//! CH-benCHmark-style analytic queries.
//!
//! Twelve queries adapted from the CH-benCHmark suite \[6\] to this engine's
//! SQL subset, covering the analytic patterns the tutorial's systems
//! optimize for: selective scans, large aggregations, multi-way joins,
//! top-k rankings, and time-windowed reporting over live transactional
//! data.

/// One analytic query.
#[derive(Debug, Clone)]
pub struct ChQuery {
    /// Short id ("Q1"...).
    pub id: &'static str,
    /// What it models.
    pub description: &'static str,
    /// The SQL text.
    pub sql: &'static str,
}

/// The query suite.
pub fn ch_queries() -> Vec<ChQuery> {
    vec![
        ChQuery {
            id: "Q1",
            description: "order-line volume summary by quantity bucket",
            sql: "SELECT ol_quantity, COUNT(*) AS cnt, SUM(ol_amount) AS total, \
                  AVG(ol_amount) AS avg_amount FROM order_line \
                  GROUP BY ol_quantity ORDER BY ol_quantity",
        },
        ChQuery {
            id: "Q2",
            description: "low-stock items (inventory alert)",
            sql: "SELECT s_i_id, SUM(s_quantity) AS q FROM stock \
                  WHERE s_quantity < 25 GROUP BY s_i_id ORDER BY q LIMIT 20",
        },
        ChQuery {
            id: "Q3",
            description: "unshipped orders by value",
            sql: "SELECT o.o_id, o.o_w_id, SUM(l.ol_amount) AS value \
                  FROM orders o JOIN order_line l ON o.o_w_id = l.ol_w_id \
                  AND o.o_d_id = l.ol_d_id AND o.o_id = l.ol_o_id \
                  WHERE o.o_carrier_id IS NULL \
                  GROUP BY o.o_id, o.o_w_id ORDER BY value DESC LIMIT 10",
        },
        ChQuery {
            id: "Q4",
            description: "order count by line-count class",
            sql: "SELECT o_ol_cnt, COUNT(*) AS n FROM orders \
                  GROUP BY o_ol_cnt ORDER BY o_ol_cnt",
        },
        ChQuery {
            id: "Q5",
            description: "revenue by customer state",
            sql: "SELECT c.c_state, SUM(l.ol_amount) AS revenue \
                  FROM customer c \
                  JOIN orders o ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id \
                  AND c.c_id = o.o_c_id \
                  JOIN order_line l ON o.o_w_id = l.ol_w_id AND o.o_d_id = l.ol_d_id \
                  AND o.o_id = l.ol_o_id \
                  GROUP BY c.c_state ORDER BY revenue DESC",
        },
        ChQuery {
            id: "Q6",
            description: "big-ticket line revenue (selective scan)",
            sql: "SELECT SUM(ol_amount) AS revenue FROM order_line \
                  WHERE ol_quantity >= 5 AND ol_amount > 400.0",
        },
        ChQuery {
            id: "Q7",
            description: "item price distribution",
            sql: "SELECT COUNT(*) AS n, MIN(i_price) AS lo, MAX(i_price) AS hi, \
                  AVG(i_price) AS mean FROM item",
        },
        ChQuery {
            id: "Q12",
            description: "delivered vs pending orders by line class",
            sql: "SELECT o_ol_cnt, COUNT(*) AS n FROM orders \
                  WHERE o_carrier_id IS NOT NULL GROUP BY o_ol_cnt ORDER BY o_ol_cnt",
        },
        ChQuery {
            id: "Q14",
            description: "recent line revenue window",
            sql: "SELECT COUNT(*) AS n, SUM(ol_amount) AS rev FROM order_line \
                  WHERE ol_delivery_d >= 1000000 AND ol_delivery_d < 2000000",
        },
        ChQuery {
            id: "Q15",
            description: "top warehouses by shipped value",
            sql: "SELECT ol_w_id, SUM(ol_amount) AS v FROM order_line \
                  GROUP BY ol_w_id ORDER BY v DESC LIMIT 5",
        },
        ChQuery {
            id: "Q18",
            description: "large customers (balance ranking)",
            sql: "SELECT c_state, COUNT(*) AS n, SUM(c_balance) AS bal FROM customer \
                  GROUP BY c_state ORDER BY bal LIMIT 8",
        },
        ChQuery {
            id: "Q20",
            description: "hot items by order count",
            sql: "SELECT l.ol_i_id, COUNT(*) AS n, SUM(l.ol_quantity) AS q \
                  FROM order_line l JOIN item i ON l.ol_i_id = i.i_id \
                  WHERE i.i_price > 50.0 \
                  GROUP BY l.ol_i_id ORDER BY n DESC LIMIT 10",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::load::{load_ch, LoadSpec};
    use oltap_core::{Database, TableFormat};

    #[test]
    fn every_query_parses_plans_and_runs() {
        let db = Database::new();
        load_ch(
            &db,
            LoadSpec {
                warehouses: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for q in ch_queries() {
            let rows = db.query(q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            // Aggregation queries always return at least one row here.
            assert!(!rows.is_empty(), "{} returned nothing", q.id);
        }
    }

    #[test]
    fn queries_agree_across_formats() {
        // The same data in row/column/dual formats must answer identically.
        let mut results = Vec::new();
        for fmt in [TableFormat::Row, TableFormat::Column, TableFormat::Dual] {
            let db = Database::new();
            load_ch(
                &db,
                LoadSpec {
                    warehouses: 1,
                    format: fmt,
                    seed: 42,
                },
            )
            .unwrap();
            // Maintenance changes physical layout; results must not move.
            db.maintenance();
            let q6 = db.query(ch_queries()[5].sql).unwrap();
            let q1 = db.query(ch_queries()[0].sql).unwrap();
            results.push((q6, q1));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }
}

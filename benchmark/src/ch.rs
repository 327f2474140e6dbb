//! The benchmark's own copy of the CH-benCHmark shape: schema,
//! cardinalities, population and statement templates. Nothing here comes
//! from `oltap-bench`, so a reorganisation of `crates/bench` cannot change
//! the load this benchmark offers.

use crate::rng::Rng;
use oltap_common::{Row, Value};

/// Cardinalities per warehouse (TPC-C's, scaled down so a 16-warehouse
/// database loads in about a second).
pub mod card {
    pub const DISTRICTS: i64 = 10;
    pub const CUSTOMERS: i64 = 300;
    pub const ITEMS: i64 = 1000;
    pub const ORDERS: i64 = 300;
    pub const MIN_OL: i64 = 5;
    pub const MAX_OL: i64 = 10;
}

/// First order id the transaction streams allocate; everything below is
/// population.
pub const FIRST_NEW_O_ID: i64 = card::ORDERS + 1;

/// The population is the same for every `--seed`: the seed drives key
/// choice and transaction parameters, not the data, so oracles and page
/// footprints are comparable across seeds.
const DATA_SEED: u64 = 0x0C4B_E9C4;

const STATES: [&str; 8] = ["CA", "NY", "TX", "WA", "IL", "MA", "FL", "OR"];

/// `CREATE TABLE` statements, all tables in COLUMN format.
pub fn ddl() -> Vec<&'static str> {
    vec![
        "CREATE TABLE warehouse (w_id BIGINT NOT NULL, w_name TEXT, w_tax DOUBLE, \
         w_ytd DOUBLE, PRIMARY KEY (w_id)) USING FORMAT COLUMN",
        "CREATE TABLE district (d_w_id BIGINT NOT NULL, d_id BIGINT NOT NULL, \
         d_name TEXT, d_tax DOUBLE, d_ytd DOUBLE, d_next_o_id BIGINT, \
         PRIMARY KEY (d_w_id, d_id)) USING FORMAT COLUMN",
        "CREATE TABLE customer (c_w_id BIGINT NOT NULL, c_d_id BIGINT NOT NULL, \
         c_id BIGINT NOT NULL, c_name TEXT, c_state TEXT, c_balance DOUBLE, \
         c_ytd_payment DOUBLE, c_payment_cnt BIGINT, \
         PRIMARY KEY (c_w_id, c_d_id, c_id)) USING FORMAT COLUMN",
        "CREATE TABLE item (i_id BIGINT NOT NULL, i_name TEXT, i_price DOUBLE, \
         i_data TEXT, PRIMARY KEY (i_id)) USING FORMAT COLUMN",
        "CREATE TABLE stock (s_w_id BIGINT NOT NULL, s_i_id BIGINT NOT NULL, \
         s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, \
         PRIMARY KEY (s_w_id, s_i_id)) USING FORMAT COLUMN",
        "CREATE TABLE orders (o_w_id BIGINT NOT NULL, o_d_id BIGINT NOT NULL, \
         o_id BIGINT NOT NULL, o_c_id BIGINT, o_entry_d TIMESTAMP, \
         o_carrier_id BIGINT, o_ol_cnt BIGINT, \
         PRIMARY KEY (o_w_id, o_d_id, o_id)) USING FORMAT COLUMN",
        "CREATE TABLE order_line (ol_w_id BIGINT NOT NULL, ol_d_id BIGINT NOT NULL, \
         ol_o_id BIGINT NOT NULL, ol_number BIGINT NOT NULL, ol_i_id BIGINT, \
         ol_quantity BIGINT, ol_amount DOUBLE, ol_delivery_d TIMESTAMP, \
         PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) USING FORMAT COLUMN",
    ]
}

/// The rows of every table at a warehouse count, in load order.
pub struct Population {
    pub tables: Vec<(&'static str, Vec<Row>)>,
}

impl Population {
    #[cfg(test)]
    pub fn rows(&self, table: &str) -> usize {
        self.tables
            .iter()
            .find(|(t, _)| *t == table)
            .map_or(0, |(_, r)| r.len())
    }

    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|(_, r)| r.len()).sum()
    }

    /// The customer row as loaded.
    pub fn customer(&self, w: i64, d: i64, c: i64) -> &Row {
        let index = ((w - 1) * card::DISTRICTS + (d - 1)) * card::CUSTOMERS + (c - 1);
        &self.tables[2].1[index as usize]
    }
}

pub fn populate(warehouses: i64) -> Population {
    let mut rng = Rng::new(DATA_SEED);
    let int = Value::Int;

    let warehouse = (1..=warehouses)
        .map(|w| {
            Row::new(vec![
                int(w),
                Value::Str(format!("wh-{w}")),
                Value::Float(rng.unit() * 0.2),
                Value::Float(300_000.0),
            ])
        })
        .collect();

    let mut district = Vec::new();
    let mut customer = Vec::new();
    for w in 1..=warehouses {
        for d in 1..=card::DISTRICTS {
            district.push(Row::new(vec![
                int(w),
                int(d),
                Value::Str(format!("dist-{w}-{d}")),
                Value::Float(rng.unit() * 0.2),
                Value::Float(30_000.0),
                int(FIRST_NEW_O_ID),
            ]));
            for c in 1..=card::CUSTOMERS {
                customer.push(Row::new(vec![
                    int(w),
                    int(d),
                    int(c),
                    Value::Str(format!("cust-{w}-{d}-{c}")),
                    Value::Str(STATES[rng.range(0, 7) as usize].to_string()),
                    Value::Float(-10.0),
                    Value::Float(10.0),
                    int(1),
                ]));
            }
        }
    }

    let item = (1..=card::ITEMS)
        .map(|i| {
            Row::new(vec![
                int(i),
                Value::Str(format!("item-{i}")),
                Value::Float(1.0 + rng.unit() * 99.0),
                Value::Str(if rng.range(0, 9) == 0 {
                    "ORIGINAL".to_string()
                } else {
                    format!("data-{i}")
                }),
            ])
        })
        .collect();

    let mut stock = Vec::new();
    for w in 1..=warehouses {
        for i in 1..=card::ITEMS {
            stock.push(Row::new(vec![
                int(w),
                int(i),
                int(rng.range(10, 99)),
                int(0),
                int(0),
            ]));
        }
    }

    let mut orders = Vec::new();
    let mut order_line = Vec::new();
    let mut ts = 1_000_000i64;
    for w in 1..=warehouses {
        for d in 1..=card::DISTRICTS {
            for o in 1..=card::ORDERS {
                let ol_cnt = rng.range(card::MIN_OL, card::MAX_OL);
                let carrier = if o < card::ORDERS * 7 / 10 {
                    int(rng.range(1, 10))
                } else {
                    Value::Null
                };
                ts += rng.range(1, 49);
                orders.push(Row::new(vec![
                    int(w),
                    int(d),
                    int(o),
                    int(rng.range(1, card::CUSTOMERS)),
                    Value::Timestamp(ts),
                    carrier,
                    int(ol_cnt),
                ]));
                for n in 1..=ol_cnt {
                    order_line.push(Row::new(vec![
                        int(w),
                        int(d),
                        int(o),
                        int(n),
                        int(rng.range(1, card::ITEMS)),
                        int(rng.range(1, 10)),
                        Value::Float(1.0 + rng.unit() * 499.0),
                        Value::Timestamp(ts + rng.range(0, 999)),
                    ]));
                }
            }
        }
    }

    Population {
        tables: vec![
            ("warehouse", warehouse),
            ("district", district),
            ("customer", customer),
            ("item", item),
            ("stock", stock),
            ("orders", orders),
            ("order_line", order_line),
        ],
    }
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Int(i) | Value::Timestamp(i) => i.to_string(),
        // `{:?}` keeps the decimal point, so the literal lexes as a float.
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
    }
}

/// One multi-row `INSERT` for `rows` (the SQL load path of `oltp_write`).
pub fn insert_sql(table: &str, rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.values().iter().map(literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

// ------------------------------------------------------------ point reads

/// A primary-key `SELECT` on one of three tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKey {
    Customer(i64, i64, i64),
    Stock(i64, i64),
    District(i64, i64),
}

impl PointKey {
    pub fn table(&self) -> &'static str {
        match self {
            PointKey::Customer(..) => "customer",
            PointKey::Stock(..) => "stock",
            PointKey::District(..) => "district",
        }
    }

    /// Ordinals of the selected columns in the table's schema.
    pub fn projection(&self) -> &'static [usize] {
        match self {
            PointKey::Customer(..) => &[3, 4, 5, 6, 7],
            PointKey::Stock(..) => &[2, 3, 4],
            PointKey::District(..) => &[2, 3, 4, 5],
        }
    }

    pub fn key_row(&self) -> Row {
        Row::new(match *self {
            PointKey::Customer(w, d, c) => vec![Value::Int(w), Value::Int(d), Value::Int(c)],
            PointKey::Stock(w, i) => vec![Value::Int(w), Value::Int(i)],
            PointKey::District(w, d) => vec![Value::Int(w), Value::Int(d)],
        })
    }

    pub fn sql(&self) -> String {
        match *self {
            PointKey::Customer(w, d, c) => format!(
                "SELECT c_name, c_state, c_balance, c_ytd_payment, c_payment_cnt \
                 FROM customer WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ),
            PointKey::Stock(w, i) => format!(
                "SELECT s_quantity, s_ytd, s_order_cnt FROM stock \
                 WHERE s_w_id = {w} AND s_i_id = {i}"
            ),
            PointKey::District(w, d) => format!(
                "SELECT d_name, d_tax, d_ytd, d_next_o_id FROM district \
                 WHERE d_w_id = {w} AND d_id = {d}"
            ),
        }
    }
}

// ------------------------------------------------------- analytic queries

/// The single-table scan+aggregate CH queries, `(id, sql)`. Seven, not the
/// issue's six: with an odd number of equally frequent statements the
/// median op latency falls inside one statement's latency mode, not on the
/// boundary between two, where it would jump from run to run.
pub const OLAP: [(&str, &str); 7] = [
    (
        "Q1",
        "SELECT ol_quantity, COUNT(*) AS cnt, SUM(ol_amount) AS total, \
         AVG(ol_amount) AS avg_amount FROM order_line \
         GROUP BY ol_quantity ORDER BY ol_quantity",
    ),
    (
        "Q6",
        "SELECT SUM(ol_amount) AS revenue FROM order_line \
         WHERE ol_quantity >= 5 AND ol_amount > 400.0",
    ),
    (
        "Q14",
        "SELECT COUNT(*) AS n, SUM(ol_amount) AS rev FROM order_line \
         WHERE ol_delivery_d >= 1000000 AND ol_delivery_d < 2000000",
    ),
    (
        "Q15",
        "SELECT ol_w_id, SUM(ol_amount) AS v FROM order_line \
         GROUP BY ol_w_id ORDER BY v DESC LIMIT 5",
    ),
    (
        "Q2",
        "SELECT s_i_id, SUM(s_quantity) AS q FROM stock \
         WHERE s_quantity < 25 GROUP BY s_i_id ORDER BY q LIMIT 20",
    ),
    (
        "Q12",
        "SELECT o_ol_cnt, COUNT(*) AS n FROM orders \
         WHERE o_carrier_id IS NOT NULL GROUP BY o_ol_cnt ORDER BY o_ol_cnt",
    ),
    (
        "Q18",
        "SELECT c_state, COUNT(*) AS n, SUM(c_balance) AS bal FROM customer \
         GROUP BY c_state ORDER BY bal LIMIT 8",
    ),
];

/// Counts the orders the transaction streams have committed; the analytic
/// stream of `htap_mixed` compares it with the acknowledged-commit counter.
pub fn freshness_sql() -> String {
    format!("SELECT COUNT(*) FROM orders WHERE o_id >= {FIRST_NEW_O_ID}")
}

// ----------------------------------------------------------- transactions

/// Added to a NewOrder's order id to make its twin: the same transaction
/// shape on fresh keys, which the traced run executes in process while the
/// original goes over the wire.
const TWIN_O_ID_OFFSET: i64 = 1_000_000_000;

#[derive(Debug, Clone, PartialEq)]
pub struct NewOrder {
    pub w: i64,
    pub d: i64,
    pub o_id: i64,
    pub c: i64,
    /// `(item, quantity)` per order line; items are distinct.
    pub lines: Vec<(i64, i64)>,
}

impl NewOrder {
    fn ts(&self) -> i64 {
        2_000_000 + self.o_id
    }

    pub fn twin(&self) -> NewOrder {
        NewOrder {
            o_id: self.o_id + TWIN_O_ID_OFFSET,
            ..self.clone()
        }
    }

    pub fn order_row(&self) -> Row {
        Row::new(vec![
            Value::Int(self.w),
            Value::Int(self.d),
            Value::Int(self.o_id),
            Value::Int(self.c),
            Value::Timestamp(self.ts()),
            Value::Null,
            Value::Int(self.lines.len() as i64),
        ])
    }

    pub fn line_rows(&self) -> Vec<Row> {
        self.lines
            .iter()
            .enumerate()
            .map(|(n, &(i, qty))| {
                Row::new(vec![
                    Value::Int(self.w),
                    Value::Int(self.d),
                    Value::Int(self.o_id),
                    Value::Int(n as i64 + 1),
                    Value::Int(i),
                    Value::Int(qty),
                    Value::Float(qty as f64 * 7.5),
                    Value::Timestamp(self.ts()),
                ])
            })
            .collect()
    }

    pub fn statements(&self) -> Vec<String> {
        let mut out = vec![
            "BEGIN".to_string(),
            insert_sql("orders", &[self.order_row()]),
        ];
        for (row, &(i, qty)) in self.line_rows().iter().zip(&self.lines) {
            out.push(insert_sql("order_line", std::slice::from_ref(row)));
            out.push(format!(
                "UPDATE stock SET s_quantity = s_quantity - {qty}, s_ytd = s_ytd + {qty}, \
                 s_order_cnt = s_order_cnt + 1 WHERE s_w_id = {} AND s_i_id = {i}",
                self.w
            ));
        }
        out.push("COMMIT".to_string());
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Payment {
    pub w: i64,
    pub d: i64,
    pub c: i64,
    pub amount: f64,
}

impl Payment {
    pub fn statements(&self) -> Vec<String> {
        let Payment { w, d, c, amount } = self;
        vec![
            "BEGIN".to_string(),
            format!(
                "UPDATE customer SET c_balance = c_balance - {amount:?}, \
                 c_ytd_payment = c_ytd_payment + {amount:?}, \
                 c_payment_cnt = c_payment_cnt + 1 \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ),
            format!("UPDATE warehouse SET w_ytd = w_ytd + {amount:?} WHERE w_id = {w}"),
            format!(
                "UPDATE district SET d_ytd = d_ytd + {amount:?} \
                 WHERE d_w_id = {w} AND d_id = {d}"
            ),
            "COMMIT".to_string(),
        ]
    }
}

/// Bytes of data the user supplied in a transaction: the encoded images of
/// the rows it inserts plus eight bytes for every column an `UPDATE`
/// assigns. The denominator of `txn.wal_bytes_per_user_byte`.
pub fn new_order_user_bytes(no: &NewOrder) -> u64 {
    let inserted: usize = std::iter::once(no.order_row())
        .chain(no.line_rows())
        .map(|r| oltap_txn::wal::encode_row(&r).len())
        .sum();
    inserted as u64 + no.lines.len() as u64 * 3 * 8
}

pub const PAYMENT_USER_BYTES: u64 = 5 * 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic_and_sized() {
        let a = populate(2);
        let b = populate(2);
        assert_eq!(a.rows("customer"), 2 * 10 * 300);
        assert_eq!(a.rows("stock"), 2 * 1000);
        assert_eq!(a.rows("orders"), 2 * 10 * 300);
        assert_eq!(a.total_rows(), b.total_rows());
        assert_eq!(a.customer(2, 3, 4).values()[..3], [2, 3, 4].map(Value::Int));
        for ((_, ra), (_, rb)) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn new_order_statement_count_follows_lines() {
        let no = NewOrder {
            w: 1,
            d: 2,
            o_id: FIRST_NEW_O_ID,
            c: 3,
            lines: vec![(10, 1), (20, 2)],
        };
        assert_eq!(no.statements().len(), 3 + 2 * 2);
        assert_ne!(no.twin().order_row(), no.order_row());
    }
}

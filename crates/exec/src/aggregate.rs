//! Blocking hash aggregation (GROUP BY) with the standard SQL aggregates.

use crate::expr::Expr;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, ColumnVector, DataType, DbError, Field, Result, Schema};
use std::borrow::Cow;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — always Float64.
    Avg,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input expression (`None` only for `COUNT(*)`).
    pub input: Option<Expr>,
    /// Output column label.
    pub label: String,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star(label: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            input: None,
            label: label.into(),
        }
    }

    /// An aggregate over an expression.
    pub fn new(func: AggFunc, input: Expr, label: impl Into<String>) -> Self {
        AggExpr {
            func,
            input: Some(input),
            label: label.into(),
        }
    }

    /// The expression aggregated: `None` for `COUNT(*)`, which reads none.
    fn input(&self) -> Result<Option<&Expr>> {
        match (self.func, &self.input) {
            (AggFunc::CountStar, _) => Ok(None),
            (_, Some(e)) => Ok(Some(e)),
            (_, None) => Err(DbError::Plan("aggregate needs an input".into())),
        }
    }

    fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match (self.func, self.input()?) {
            (AggFunc::Avg, _) => Ok(DataType::Float64),
            (AggFunc::CountStar | AggFunc::Count, _) | (_, None) => Ok(DataType::Int64),
            (_, Some(input)) => {
                let t = input.data_type(schema)?;
                if self.func == AggFunc::Sum
                    && !matches!(t, DataType::Int64 | DataType::Float64)
                {
                    return Err(DbError::Plan(format!("SUM over non-numeric {t}")));
                }
                Ok(t)
            }
        }
    }
}

/// What an aggregation is, apart from its groups: the output schema, and
/// the *slots* a [`RunningGroups`](crate::RunningGroups) store reads its
/// group keys and aggregate inputs from. The pipelines' aggregate sink and
/// the fused segment walk both fill that one store.
///
/// A slot is one distinct input expression, so `SUM(v * 2)` beside
/// `AVG(v * 2)` evaluates `v * 2` once per batch. When every group key and
/// aggregate input is a bare column nothing is evaluated at all: a slot is
/// then the column's ordinal in the input — which is what lets the fused
/// path read the same slots off encoded segments.
pub struct AggregatorCore {
    aggs: Vec<AggExpr>,
    input_types: Vec<DataType>,
    group_slots: Vec<usize>,
    /// `None` for `COUNT(*)`.
    agg_slots: Vec<Option<usize>>,
    /// The expression of each slot; `None` when slots are input ordinals.
    slot_exprs: Option<Vec<Expr>>,
    schema: SchemaRef,
}

impl AggregatorCore {
    /// Builds the core. Output schema = group-by columns (labeled by the
    /// paired names) followed by one column per aggregate.
    pub fn new(
        input_schema: &Schema,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Self> {
        let mut bare = group_by.iter().all(|(e, _)| matches!(e, Expr::Column(_)));
        for a in &aggs {
            bare &= matches!(a.input()?, None | Some(Expr::Column(_)));
        }
        let mut exprs: Vec<Expr> = Vec::new();
        let mut slot = |e: &Expr| match e {
            Expr::Column(c) if bare => *c,
            _ => exprs.iter().position(|x| x.identical(e)).unwrap_or_else(|| {
                exprs.push(e.clone());
                exprs.len() - 1
            }),
        };
        let mut fields = Vec::new();
        let mut group_slots = Vec::new();
        for (e, name) in &group_by {
            fields.push(Field::new(name.clone(), e.data_type(input_schema)?));
            group_slots.push(slot(e));
        }
        let mut input_types = Vec::new();
        let mut agg_slots = Vec::new();
        for a in &aggs {
            let input = a.input()?;
            fields.push(Field::new(a.label.clone(), a.output_type(input_schema)?));
            input_types.push(match input {
                Some(e) => e.data_type(input_schema)?,
                None => DataType::Int64,
            });
            agg_slots.push(input.map(&mut slot));
        }
        Ok(AggregatorCore {
            aggs,
            input_types,
            group_slots,
            agg_slots,
            slot_exprs: (!bare).then_some(exprs),
            schema: Arc::new(Schema::new(fields)),
        })
    }

    /// The output schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Whether every slot is a bare input column (its ordinal), so that an
    /// `Aggregate(Scan)` can read them off the scan's encoded segments.
    pub fn reads_bare_columns(&self) -> bool {
        self.slot_exprs.is_none()
    }

    /// The aggregates (in output order).
    pub(crate) fn agg_exprs(&self) -> &[AggExpr] {
        &self.aggs
    }

    /// The resolved input type of each aggregate.
    pub(crate) fn agg_input_types(&self) -> &[DataType] {
        &self.input_types
    }

    /// The slot of each group key, and of each aggregate's input (`None`
    /// for `COUNT(*)`).
    pub(crate) fn slots(&self) -> (&[usize], &[Option<usize>]) {
        (&self.group_slots, &self.agg_slots)
    }

    /// One batch's slot columns: its own when slots are input ordinals,
    /// else each slot's expression evaluated over it.
    pub(crate) fn slot_columns<'b>(&self, batch: &'b Batch) -> Result<Cow<'b, [ColumnVector]>> {
        Ok(match &self.slot_exprs {
            None => Cow::Borrowed(batch.columns()),
            Some(exprs) => Cow::Owned(Expr::eval_all(exprs, batch)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::pipeline::tests::{ctx, rows_of};
    use oltap_common::{row, Row, Value};

    fn source() -> (SchemaRef, Vec<Batch>) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]));
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                if i % 10 == 9 {
                    Row::new(vec![
                        Value::Str(["a", "b"][i % 2].into()),
                        Value::Null,
                        Value::Null,
                    ])
                } else {
                    row![["a", "b"][i % 2], i as i64, i as f64]
                }
            })
            .collect();
        let batches: Vec<Batch> = rows
            .chunks(33)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        (schema, batches)
    }

    /// Aggregates `input` through a one-worker pipeline's aggregate sink.
    fn aggregate(
        input: (SchemaRef, Vec<Batch>),
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Vec<Row>> {
        let core = Arc::new(AggregatorCore::new(&input.0, group_by, aggs)?);
        Ok(rows_of(&ctx(1).run_aggregate(input.1, Vec::new(), core)?.finish()?))
    }

    #[test]
    fn grouped_aggregates() {
        let rows = aggregate(
            source(),
            vec![(Expr::col(0), "g".into())],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Count, Expr::col(1), "nv"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "sv"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "mn"),
                AggExpr::new(AggFunc::Max, Expr::col(1), "mx"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "av"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        // Group "a": even i in 0..100 → 50 rows; i%10==9 never even → all valid.
        let a = &rows[0];
        assert_eq!(a[0], Value::Str("a".into()));
        assert_eq!(a[1], Value::Int(50));
        assert_eq!(a[2], Value::Int(50));
        assert_eq!(a[3], Value::Int((0..100).filter(|i| i % 2 == 0).sum::<i64>()));
        assert_eq!(a[4], Value::Int(0));
        assert_eq!(a[5], Value::Int(98));
        // Group "b": odd i; i%10==9 is odd → 10 NULLs out of 50.
        let b = &rows[1];
        assert_eq!(b[1], Value::Int(50));
        assert_eq!(b[2], Value::Int(40));
        let expected_sum: i64 = (0..100).filter(|i| i % 2 == 1 && i % 10 != 9).sum();
        assert_eq!(b[3], Value::Int(expected_sum));
    }

    #[test]
    fn global_aggregate_no_groups() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(100));
    }

    #[test]
    fn global_aggregate_empty_input() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rows = aggregate(
            (schema, Vec::new()),
            vec![],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(0), "s"),
                AggExpr::new(AggFunc::Min, Expr::col(0), "m"),
                AggExpr::new(AggFunc::Avg, Expr::col(0), "a"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[0][2], Value::Null);
        assert_eq!(rows[0][3], Value::Null);
    }

    #[test]
    fn grouped_empty_input_yields_no_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rows = aggregate(
            (schema, Vec::new()),
            vec![(Expr::col(0), "v".into())],
            vec![AggExpr::count_star("n")],
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn group_by_expression() {
        let rows = aggregate(
            source(),
            vec![(
                Expr::binary(BinOp::Mod, Expr::col(1), Expr::lit(3i64)),
                "m3".into(),
            )],
            vec![AggExpr::count_star("n")],
        )
        .unwrap();
        // Groups: NULL (from null v), 0, 1, 2.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0][0], Value::Null); // NULL sorts first
    }

    #[test]
    fn avg_matches_sum_over_count() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, Expr::col(2), "s"),
                AggExpr::new(AggFunc::Count, Expr::col(2), "c"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "a"),
            ],
        )
        .unwrap();
        let s = rows[0][0].as_float().unwrap();
        let c = rows[0][1].as_int().unwrap() as f64;
        let a = rows[0][2].as_float().unwrap();
        assert!((s / c - a).abs() < 1e-9);
    }

    #[test]
    fn min_max_strings() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::new(AggFunc::Min, Expr::col(0), "mn"),
                AggExpr::new(AggFunc::Max, Expr::col(0), "mx"),
            ],
        )
        .unwrap();
        assert_eq!(rows[0][0], Value::Str("a".into()));
        assert_eq!(rows[0][1], Value::Str("b".into()));
    }

    #[test]
    fn sum_rejects_strings() {
        assert!(aggregate(
            source(),
            vec![],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(0), "s")],
        )
        .is_err());
    }
}

//! Aggregation functions (`min<X>`, `max<X>`, `count<*>`, `sum<X>`, `avg<X>`).

use p2_value::{Value, ValueError};

/// An aggregation function usable in an OverLog rule head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Minimum of the aggregated values.
    Min,
    /// Maximum of the aggregated values.
    Max,
    /// Number of contributing tuples (`count<*>`).
    Count,
    /// Sum of the aggregated values.
    Sum,
    /// Arithmetic mean of the aggregated values.
    Avg,
}

impl AggFunc {
    /// Resolves an OverLog aggregate keyword.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name {
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    /// The OverLog keyword for this aggregate.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
        }
    }

    /// Computes the aggregate over a set of contributing values.
    ///
    /// Returns `None` for an empty input on min/max/avg (no tuple groups are
    /// produced), `Some(0)` for count/sum, matching SQL-style semantics.
    pub fn apply(&self, values: &[Value]) -> Result<Option<Value>, ValueError> {
        let mut state = AggState::new(*self);
        for v in values {
            state.accumulate(v)?;
        }
        Ok(state.finish())
    }
}

/// Streaming accumulator behind [`AggFunc::apply`], the table's grouped
/// [`crate::table::Table::aggregate`], and the dataflow layer's
/// per-row strand aggregation: one source of truth for the aggregate
/// semantics (all-int sums collapse to `Int`, min/max keep the first
/// extremum, avg over nothing yields no value). Streaming callers fold
/// values in one pass instead of materializing a contribution vector.
#[derive(Debug)]
pub enum AggState {
    Count(i64),
    Sum { acc: f64, all_int: bool },
    Avg { acc: f64, n: usize },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                acc: 0.0,
                all_int: true,
            },
            AggFunc::Avg => AggState::Avg { acc: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Folds one contributing value into the accumulator.
    pub fn accumulate(&mut self, v: &Value) -> Result<(), ValueError> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { acc, all_int } => {
                if !matches!(v, Value::Int(_)) {
                    *all_int = false;
                }
                *acc += v.to_double()?;
            }
            AggState::Avg { acc, n } => {
                *acc += v.to_double()?;
                *n += 1;
            }
            AggState::Min(best) => {
                if best.as_ref().map(|b| v < b).unwrap_or(true) {
                    *best = Some(v.clone());
                }
            }
            AggState::Max(best) => {
                if best.as_ref().map(|b| v > b).unwrap_or(true) {
                    *best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Folds in `n` contributions of the same value `v`, as `n` consecutive
    /// calls of [`AggState::accumulate`] would.
    pub fn accumulate_n(&mut self, v: &Value, n: usize) -> Result<(), ValueError> {
        if let AggState::Count(c) = self {
            *c += n as i64;
            return Ok(());
        }
        for _ in 0..n {
            self.accumulate(v)?;
        }
        Ok(())
    }

    /// Produces the final aggregate, or `None` when min/max/avg saw no
    /// contributions.
    pub fn finish(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n)),
            AggState::Sum { acc, all_int } => Some(if all_int {
                Value::Int(acc as i64)
            } else {
                Value::Double(acc)
            }),
            AggState::Avg { acc, n } => {
                if n == 0 {
                    None
                } else {
                    Some(Value::Double(acc / n as f64))
                }
            }
            AggState::Min(best) => best,
            AggState::Max(best) => best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::Uint160;

    #[test]
    fn from_name() {
        assert_eq!(AggFunc::from_name("min"), Some(AggFunc::Min));
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
        assert_eq!(AggFunc::Sum.name(), "sum");
    }

    #[test]
    fn count_and_sum_on_empty() {
        assert_eq!(AggFunc::Count.apply(&[]).unwrap(), Some(Value::Int(0)));
        assert_eq!(AggFunc::Sum.apply(&[]).unwrap(), Some(Value::Int(0)));
        assert_eq!(AggFunc::Min.apply(&[]).unwrap(), None);
        assert_eq!(AggFunc::Avg.apply(&[]).unwrap(), None);
    }

    #[test]
    fn min_max_over_ids() {
        let vals = vec![
            Value::Id(Uint160::from_u64(30)),
            Value::Id(Uint160::from_u64(5)),
            Value::Id(Uint160::from_u64(500)),
        ];
        assert_eq!(
            AggFunc::Min.apply(&vals).unwrap(),
            Some(Value::Id(Uint160::from_u64(5)))
        );
        assert_eq!(
            AggFunc::Max.apply(&vals).unwrap(),
            Some(Value::Id(Uint160::from_u64(500)))
        );
    }

    #[test]
    fn sum_and_avg() {
        let ints = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(AggFunc::Sum.apply(&ints).unwrap(), Some(Value::Int(6)));
        assert_eq!(AggFunc::Avg.apply(&ints).unwrap(), Some(Value::Double(2.0)));
        let mixed = vec![Value::Int(1), Value::Double(0.5)];
        assert_eq!(
            AggFunc::Sum.apply(&mixed).unwrap(),
            Some(Value::Double(1.5))
        );
        assert!(AggFunc::Sum.apply(&[Value::str("x")]).is_err());
    }

    #[test]
    fn count_ignores_types() {
        let vals = vec![Value::str("a"), Value::Null, Value::Int(1)];
        assert_eq!(AggFunc::Count.apply(&vals).unwrap(), Some(Value::Int(3)));
    }
}

//! Variable binding environments and OverLog → PEL expression compilation.
//!
//! While planning a rule strand the planner tracks, for every OverLog
//! variable, the field position it occupies in the tuple flowing down the
//! strand (the concatenation of the trigger tuple and every joined table
//! row, plus any fields appended by assignments). [`Layout`] is that
//! mapping; [`compile_expr`] turns an OverLog expression over variables into
//! a PEL expression over field positions.

use std::collections::HashMap;

use p2_overlog::{Expr as OExpr, Predicate};
use p2_pel::{Builtin, Expr as PExpr};

use crate::error::PlanError;

/// Mapping from OverLog variables to field positions in the strand tuple.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    vars: HashMap<String, usize>,
    len: usize,
}

/// Join / filter information extracted when a predicate's fields are merged
/// into a layout.
#[derive(Debug, Clone, Default)]
pub struct PredicateBinding {
    /// `(existing field, predicate column)` pairs where a predicate argument
    /// is a variable that the layout already binds (these become equijoin
    /// keys when the predicate is a table).
    pub join_keys: Vec<(usize, usize)>,
    /// `(predicate column, constant)` pairs for literal arguments.
    pub const_checks: Vec<(usize, p2_value::Value)>,
    /// `(column, column)` pairs for variables repeated *within* the
    /// predicate itself.
    pub repeat_checks: Vec<(usize, usize)>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Layout {
        Layout::default()
    }

    /// Number of fields in the strand tuple so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no fields have been bound yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of a variable, if bound.
    pub fn get(&self, var: &str) -> Option<usize> {
        self.vars.get(var).copied()
    }

    /// True if the variable is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.vars.contains_key(var)
    }

    /// Appends a single named field (used for assignment results); returns
    /// its position.
    pub fn push_var(&mut self, var: impl Into<String>) -> usize {
        let pos = self.len;
        self.vars.entry(var.into()).or_insert(pos);
        self.len += 1;
        pos
    }

    /// Appends an anonymous field (e.g. an aggregate result); returns its
    /// position.
    pub fn push_anonymous(&mut self) -> usize {
        let pos = self.len;
        self.len += 1;
        pos
    }

    /// Merges a predicate's arguments into the layout, assuming the
    /// predicate's fields are appended after the current fields (as a
    /// strand's probe appends its matched row).
    ///
    /// Returns the join keys, constant checks and repeated-variable checks
    /// needed to make the match exact. When `absorb` is false the layout is
    /// not modified (used for negated predicates, whose fields never become
    /// part of the strand tuple).
    pub fn bind_predicate(
        &mut self,
        pred: &Predicate,
        absorb: bool,
    ) -> Result<PredicateBinding, PlanError> {
        let mut binding = PredicateBinding::default();
        let mut local_positions: HashMap<String, usize> = HashMap::new();
        for (col, arg) in pred.args.iter().enumerate() {
            match arg {
                OExpr::Wildcard => {}
                OExpr::Const(v) => binding.const_checks.push((col, v.clone())),
                OExpr::Var(v) => {
                    if let Some(prev_col) = local_positions.get(v) {
                        binding.repeat_checks.push((*prev_col, col));
                    } else if let Some(existing) = self.get(v) {
                        binding.join_keys.push((existing, col));
                        local_positions.insert(v.clone(), col);
                    } else {
                        local_positions.insert(v.clone(), col);
                    }
                }
                other => {
                    return Err(PlanError::program(format!(
                        "predicate `{}` argument {col} must be a variable, wildcard or constant, \
                         found {other:?}",
                        pred.name
                    )))
                }
            }
        }
        if absorb {
            let base = self.len;
            for (col, arg) in pred.args.iter().enumerate() {
                if let OExpr::Var(v) = arg {
                    self.vars.entry(v.clone()).or_insert(base + col);
                }
            }
            self.len += pred.args.len();
        }
        Ok(binding)
    }

    /// Compiles an OverLog expression into PEL over this layout.
    pub fn compile_expr(&self, expr: &OExpr) -> Result<PExpr, PlanError> {
        compile_expr(expr, self)
    }
}

/// Compiles an OverLog expression over variables into a PEL expression over
/// field positions of the strand tuple described by `layout`.
pub fn compile_expr(expr: &OExpr, layout: &Layout) -> Result<PExpr, PlanError> {
    match expr {
        OExpr::Const(v) => Ok(PExpr::Const(v.clone())),
        OExpr::Wildcard => Err(PlanError::program(
            "`_` cannot appear inside an arithmetic or comparison expression",
        )),
        OExpr::Var(v) => layout
            .get(v)
            .map(PExpr::Field)
            .ok_or_else(|| PlanError::program(format!("variable `{v}` is not bound here"))),
        OExpr::Call { name, args, .. } => {
            let builtin = Builtin::from_name(name)
                .ok_or_else(|| PlanError::program(format!("unknown built-in function `{name}`")))?;
            let mut compiled = Vec::with_capacity(args.len());
            for a in args {
                compiled.push(compile_expr(a, layout)?);
            }
            Ok(PExpr::Call(builtin, compiled))
        }
        OExpr::Unary { op, expr } => Ok(PExpr::Unary(*op, Box::new(compile_expr(expr, layout)?))),
        OExpr::Binary { op, lhs, rhs } => Ok(PExpr::Binary(
            *op,
            Box::new(compile_expr(lhs, layout)?),
            Box::new(compile_expr(rhs, layout)?),
        )),
        OExpr::Range {
            kind,
            value,
            low,
            high,
        } => Ok(PExpr::Interval {
            kind: *kind,
            value: Box::new(compile_expr(value, layout)?),
            low: Box::new(compile_expr(low, layout)?),
            high: Box::new(compile_expr(high, layout)?),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::parse_program;
    use p2_pel::{BinOp, EvalContext, Program};
    use p2_value::{Tuple, Value};

    fn rule_predicates(src: &str) -> Vec<Predicate> {
        let p = parse_program(src).unwrap();
        p.rules[0]
            .positive_predicates()
            .into_iter()
            .cloned()
            .collect()
    }

    #[test]
    fn bind_trigger_then_join() {
        // CM7 succ@NI(NI,S,SI) :- succ@NI(NI,S,SI), pingResp@NI(NI,SI,E).
        let preds =
            rule_predicates("CM7 succ@NI(NI,S,SI) :- pingResp@NI(NI,SI,E), succ@NI(NI,S,SI).");
        let mut layout = Layout::new();
        let trigger = layout.bind_predicate(&preds[0], true).unwrap();
        assert!(trigger.join_keys.is_empty());
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.get("NI"), Some(0));
        assert_eq!(layout.get("SI"), Some(1));

        let join = layout.bind_predicate(&preds[1], true).unwrap();
        // NI joins on succ column 0, SI on succ column 2.
        assert_eq!(join.join_keys, vec![(0, 0), (1, 2)]);
        assert_eq!(layout.len(), 6);
        assert_eq!(layout.get("S"), Some(4));
    }

    #[test]
    fn constants_and_repeats_become_checks() {
        let preds = rule_predicates("R1 out@X(X) :- trigger@X(X, X, 3, \"-\", _).");
        let mut layout = Layout::new();
        let b = layout.bind_predicate(&preds[0], true).unwrap();
        assert_eq!(b.repeat_checks, vec![(0, 1)]);
        assert_eq!(b.const_checks.len(), 2);
        assert_eq!(b.const_checks[0], (2, Value::Int(3)));
        assert_eq!(b.const_checks[1], (3, Value::str("-")));
        assert_eq!(layout.len(), 5);
    }

    #[test]
    fn negated_predicates_do_not_extend_layout() {
        let preds = rule_predicates("R1 out@X(X) :- trigger@X(X, Y), member@X(X, Y).");
        let mut layout = Layout::new();
        layout.bind_predicate(&preds[0], true).unwrap();
        let before = layout.len();
        let b = layout.bind_predicate(&preds[1], false).unwrap();
        assert_eq!(layout.len(), before);
        assert_eq!(b.join_keys, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn compile_expression_resolves_fields() {
        let mut layout = Layout::new();
        layout.push_var("N");
        layout.push_var("S");
        let p = parse_program("R1 out@X(N, D) :- succ@X(N, S), D := S - N - 1.").unwrap();
        let assign = p.rules[0]
            .body
            .iter()
            .find_map(|t| match t {
                p2_overlog::BodyTerm::Assign { expr, .. } => Some(expr.clone()),
                _ => None,
            })
            .unwrap();
        let compiled = compile_expr(&assign, &layout).unwrap();
        // Evaluate: S=10, N=3 -> 6.
        let prog = Program::compile(&compiled);
        let tuple = Tuple::new("t", vec![Value::Int(3), Value::Int(10)]);
        let mut ctx = EvalContext::new("n1", 1);
        assert_eq!(prog.eval(&tuple, &mut ctx).unwrap(), Value::Int(6));
    }

    #[test]
    fn compile_errors_for_unbound_and_unknown() {
        let layout = Layout::new();
        assert!(compile_expr(&OExpr::Var("Z".into()), &layout).is_err());
        assert!(compile_expr(
            &OExpr::Call {
                name: "f_bogus".into(),
                location: None,
                args: vec![]
            },
            &layout
        )
        .is_err());
        assert!(compile_expr(&OExpr::Wildcard, &layout).is_err());
        // Known builtin compiles.
        let e = compile_expr(
            &OExpr::Call {
                name: "f_now".into(),
                location: None,
                args: vec![],
            },
            &layout,
        )
        .unwrap();
        assert!(matches!(e, PExpr::Call(Builtin::Now, _)));
    }

    #[test]
    fn push_var_is_idempotent_for_existing_names() {
        let mut layout = Layout::new();
        let a = layout.push_var("X");
        let b = layout.push_var("X");
        // The second push appends a field but keeps the original binding.
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(layout.get("X"), Some(0));
        assert_eq!(layout.len(), 2);
    }

    #[test]
    fn binary_ops_compile() {
        let mut layout = Layout::new();
        layout.push_var("A");
        let e = OExpr::Binary {
            op: BinOp::Gt,
            lhs: Box::new(OExpr::Var("A".into())),
            rhs: Box::new(OExpr::Const(Value::Int(3))),
        };
        assert!(matches!(
            compile_expr(&e, &layout).unwrap(),
            PExpr::Binary(BinOp::Gt, _, _)
        ));
    }
}

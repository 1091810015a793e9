//! The PEL byte-code compiler and stack virtual machine.

use std::sync::Arc;

use p2_value::{Tuple, Value, ValueError};

use crate::context::EvalContext;
use crate::expr::{self, Expr};
use crate::ops::Op;

/// A compiled PEL program.
///
/// Dataflow elements (selections, projections, aggregations) are
/// parameterized by one or more compiled programs; each program evaluates a
/// single expression over an input tuple and yields one value.
///
/// The byte-code is held behind an [`Arc`], so cloning a program — as the
/// shared-plan instantiation path does once per node — shares the compiled
/// ops instead of duplicating them.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Arc<[Op]>,
    /// Upper bound on the evaluation stack depth, computed at compile time so
    /// the VM can pre-allocate.
    max_stack: usize,
}

impl Program {
    /// Compiles an expression AST into byte-code.
    pub fn compile(expr: &Expr) -> Program {
        let mut ops = Vec::new();
        emit(expr, &mut ops);
        let max_stack = stack_bound(&ops);
        Program {
            ops: ops.into(),
            max_stack,
        }
    }

    /// The compiled operations (for inspection and benchmarks).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The field indices the program reads (one per `Load`, in program
    /// order, possibly repeated): its result depends on the input tuple
    /// through these fields only.
    pub fn loads(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().filter_map(|op| match op {
            Op::Load(i) => Some(*i),
            _ => None,
        })
    }

    /// Evaluates the program against a tuple, yielding a single value.
    pub fn eval(&self, tuple: &Tuple, ctx: &mut EvalContext) -> Result<Value, ValueError> {
        self.eval_fields(tuple.values(), ctx)
    }

    /// Evaluates the program against the *virtual concatenation* of several
    /// field segments: `Field(i)` resolves into the first segment while
    /// `i` is in range, then falls through to the next. The rule-strand
    /// element uses this to run a whole
    /// `trigger ++ joined-rows ++ assigned-values` chain without
    /// materializing any intermediate tuple.
    pub fn eval_concat(
        &self,
        parts: &[&[Value]],
        ctx: &mut EvalContext,
    ) -> Result<Value, ValueError> {
        self.eval_with(ctx, |i| {
            concat_get(parts, i).ok_or_else(|| ValueError::FieldOutOfRange {
                index: i,
                len: parts.iter().map(|p| p.len()).sum(),
            })
        })
    }

    /// Like [`Program::eval_concat`], interpreting the result as a boolean.
    pub fn eval_bool_concat(
        &self,
        parts: &[&[Value]],
        ctx: &mut EvalContext,
    ) -> Result<bool, ValueError> {
        Ok(self.eval_concat(parts, ctx)?.truthy())
    }

    /// True if evaluating this program draws on the node's RNG (`f_rand`,
    /// `f_coinFlip`). Such programs are order-sensitive beyond their
    /// inputs: an aggregation must evaluate them once per row, in scan
    /// order, never once per group of equal rows.
    pub fn uses_random(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::Call(b) if b.is_random()))
    }

    /// True if evaluating this program reads the clock (`f_now`). Such
    /// programs are not pure functions of their input tuple, so their
    /// results must not be cached across events.
    pub fn uses_time(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::Call(b) if b.is_time()))
    }

    /// Evaluates the program over an explicit field slice.
    pub fn eval_fields(
        &self,
        fields: &[Value],
        ctx: &mut EvalContext,
    ) -> Result<Value, ValueError> {
        self.eval_with(ctx, |i| {
            fields.get(i).ok_or(ValueError::FieldOutOfRange {
                index: i,
                len: fields.len(),
            })
        })
    }

    /// Core VM loop over a field resolver. The evaluation stack is borrowed
    /// from the context and reused across calls, so steady-state evaluation
    /// does not allocate.
    fn eval_with<'t>(
        &self,
        ctx: &mut EvalContext,
        load: impl Fn(usize) -> Result<&'t Value, ValueError>,
    ) -> Result<Value, ValueError> {
        // Take the scratch stack out of the context so builtins (which
        // borrow ctx) cannot observe it; put it back on every path.
        let mut stack = ctx.take_scratch_stack();
        stack.clear();
        stack.reserve(self.max_stack);
        let result = self.run(&mut stack, ctx, load);
        ctx.put_scratch_stack(stack);
        result
    }

    fn run<'t>(
        &self,
        stack: &mut Vec<Value>,
        ctx: &mut EvalContext,
        load: impl Fn(usize) -> Result<&'t Value, ValueError>,
    ) -> Result<Value, ValueError> {
        for op in self.ops.iter() {
            match op {
                Op::Push(v) => stack.push(v.clone()),
                Op::Load(i) => stack.push(load(*i)?.clone()),
                Op::Unary(u) => {
                    let v = pop(stack)?;
                    stack.push(expr::apply_unop(*u, v)?);
                }
                Op::Binary(b) => {
                    let rhs = pop(stack)?;
                    let lhs = pop(stack)?;
                    stack.push(expr::apply_binop(*b, &lhs, &rhs)?);
                }
                Op::Call(builtin) => {
                    let arity = builtin.arity();
                    if stack.len() < arity {
                        return Err(stack_underflow());
                    }
                    let at = stack.len() - arity;
                    let v = expr::apply_builtin(*builtin, &stack[at..], ctx)?;
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::Interval(kind) => {
                    let high = pop(stack)?;
                    let low = pop(stack)?;
                    let value = pop(stack)?;
                    stack.push(expr::apply_interval(*kind, &value, &low, &high)?);
                }
            }
        }
        pop(stack)
    }

    /// Evaluates the program and interprets the result as a boolean
    /// (selection filters).
    pub fn eval_bool(&self, tuple: &Tuple, ctx: &mut EvalContext) -> Result<bool, ValueError> {
        Ok(self.eval(tuple, ctx)?.truthy())
    }
}

/// Resolves field `i` of the virtual concatenation of `parts` (`None` when
/// out of range). The single source of truth for segmented field
/// resolution: [`Program::eval_concat`] and the fused rule strand's probe
/// machinery both use it, so probe-key lookup and PEL evaluation can never
/// disagree about what a field index means.
pub fn concat_get<'a>(parts: &[&'a [Value]], i: usize) -> Option<&'a Value> {
    let mut rest = i;
    for part in parts {
        match part.get(rest) {
            Some(v) => return Some(v),
            // `get` returned None, so `rest >= part.len()`.
            None => rest -= part.len(),
        }
    }
    None
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, ValueError> {
    stack.pop().ok_or_else(stack_underflow)
}

fn stack_underflow() -> ValueError {
    ValueError::TypeMismatch {
        op: "pel vm",
        got: "stack underflow".to_string(),
    }
}

/// Emits post-order byte-code for an expression.
fn emit(expr: &Expr, out: &mut Vec<Op>) {
    match expr {
        Expr::Const(v) => out.push(Op::Push(v.clone())),
        Expr::Field(i) => out.push(Op::Load(*i)),
        Expr::Unary(op, e) => {
            emit(e, out);
            out.push(Op::Unary(*op));
        }
        Expr::Binary(op, a, b) => {
            emit(a, out);
            emit(b, out);
            out.push(Op::Binary(*op));
        }
        Expr::Call(builtin, args) => {
            for a in args {
                emit(a, out);
            }
            out.push(Op::Call(*builtin));
        }
        Expr::Interval {
            kind,
            value,
            low,
            high,
        } => {
            emit(value, out);
            emit(low, out);
            emit(high, out);
            out.push(Op::Interval(*kind));
        }
    }
}

/// Computes an upper bound on the stack depth of a program.
fn stack_bound(ops: &[Op]) -> usize {
    let mut depth: isize = 0;
    let mut max: isize = 0;
    for op in ops {
        let delta: isize = match op {
            Op::Push(_) | Op::Load(_) => 1,
            Op::Unary(_) => 0,
            Op::Binary(_) => -1,
            Op::Call(b) => 1 - b.arity() as isize,
            Op::Interval(_) => -2,
        };
        depth += delta;
        max = max.max(depth);
    }
    max.max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Builtin, IntervalKind};
    use p2_value::{SimTime, TupleBuilder, Uint160};

    fn ctx() -> EvalContext {
        let mut c = EvalContext::new("n1", 7);
        c.set_now(SimTime::from_secs(50));
        c
    }

    fn tup() -> Tuple {
        TupleBuilder::new("t")
            .push(3i64)
            .push(4i64)
            .push(Value::Id(Uint160::from_u64(77)))
            .build()
    }

    #[test]
    fn compile_produces_postfix() {
        let e = Expr::bin(BinOp::Add, Expr::Field(0), Expr::int(2));
        let p = Program::compile(&e);
        assert_eq!(
            p.ops(),
            &[Op::Load(0), Op::Push(Value::Int(2)), Op::Binary(BinOp::Add)]
        );
    }

    #[test]
    fn vm_matches_reference_interpreter() {
        let exprs = vec![
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::Field(0), Expr::Field(1)),
                Expr::int(100),
            ),
            Expr::bin(
                BinOp::Gt,
                Expr::bin(BinOp::Sub, Expr::Call(Builtin::Now, vec![]), Expr::int(10)),
                Expr::int(20),
            ),
            Expr::Interval {
                kind: IntervalKind::OpenClosed,
                value: Box::new(Expr::Field(2)),
                low: Box::new(Expr::int(10)),
                high: Box::new(Expr::int(100)),
            },
            Expr::Call(Builtin::Sha1, vec![Expr::Field(0)]),
            Expr::Unary(crate::expr::UnOp::Not, Box::new(Expr::Field(0))),
        ];
        for e in exprs {
            let direct = e.eval(&tup(), &mut ctx());
            let via_vm = Program::compile(&e).eval(&tup(), &mut ctx());
            assert_eq!(direct, via_vm, "mismatch for {e:?}");
        }
    }

    #[test]
    fn eval_bool() {
        let p = Program::compile(&Expr::bin(BinOp::Lt, Expr::Field(0), Expr::Field(1)));
        assert!(p.eval_bool(&tup(), &mut ctx()).unwrap());
        let p = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(0), Expr::Field(1)));
        assert!(!p.eval_bool(&tup(), &mut ctx()).unwrap());
    }

    #[test]
    fn stack_bound_is_respected() {
        // Deeply right-nested additions: a + (b + (c + ...))
        let mut e = Expr::int(1);
        for i in 0..50 {
            e = Expr::bin(BinOp::Add, Expr::int(i), e);
        }
        let p = Program::compile(&e);
        assert!(p.max_stack >= 2);
        assert_eq!(p.eval(&tup(), &mut ctx()).unwrap(), Value::Int(1226));
    }

    #[test]
    fn field_out_of_range_propagates() {
        let p = Program::compile(&Expr::Field(9));
        assert!(p.eval(&tup(), &mut ctx()).is_err());
    }

    #[test]
    fn eval_concat_matches_materialized_concatenation() {
        let a = [Value::Int(3), Value::Int(4)];
        let b: [Value; 0] = [];
        let c = [Value::Int(10), Value::str("x")];
        let flat: Vec<Value> = a.iter().chain(b.iter()).chain(c.iter()).cloned().collect();
        for i in 0..=flat.len() {
            let p = Program::compile(&Expr::Field(i));
            let via_parts = p.eval_concat(&[&a, &b, &c], &mut ctx());
            let via_flat = p.eval_fields(&flat, &mut ctx());
            assert_eq!(via_parts, via_flat, "field {i}");
        }
        // Booleans and empty-part-first layouts work too.
        let p = Program::compile(&Expr::bin(BinOp::Lt, Expr::Field(0), Expr::Field(2)));
        assert!(p.eval_bool_concat(&[&b, &a, &c], &mut ctx()).unwrap());
    }

    #[test]
    fn uses_random_detects_rng_builtins() {
        assert!(Program::compile(&Expr::Call(Builtin::Rand, vec![])).uses_random());
        assert!(Program::compile(&Expr::Call(Builtin::CoinFlip, vec![Expr::int(1)])).uses_random());
        assert!(!Program::compile(&Expr::Call(Builtin::Now, vec![])).uses_random());
        assert!(!Program::compile(&Expr::Field(0)).uses_random());
    }

    #[test]
    fn uses_time_detects_the_clock_builtin() {
        assert!(Program::compile(&Expr::Call(Builtin::Now, vec![])).uses_time());
        assert!(!Program::compile(&Expr::Call(Builtin::Rand, vec![])).uses_time());
        assert!(!Program::compile(&Expr::Field(0)).uses_time());
    }
}

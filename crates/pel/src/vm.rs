//! The PEL byte-code compiler and evaluator.
//!
//! [`Program::compile`] lowers an [`Expr`] to post-order byte-code ([`Op`])
//! and picks, from the expression alone, one of two evaluation forms:
//!
//! * **Flat.** A bare field or constant, a binary operator over two fields
//!   or constants (`X == Y`, `C + 1`), or a ring interval over three
//!   (Chord's `K in (N, S]`). Most programs the planner emits have one of
//!   these shapes: assignments and head projections are mostly bare
//!   fields, and most selections are one comparison. A flat program reads
//!   its operands as `&Value`s straight from the input fields and its own
//!   constants and calls the operator once: no operand stack, and no clone
//!   except the returned value.
//! * **Byte-code.** Everything else (`K - B - 1 == D`, conjunctions of
//!   tests, `f_now() - T > 20`) runs its ops on an operand stack of
//!   [`Cow`]s that *borrow* loaded fields and constants and own only the
//!   values operators compute. The stack lives inline up to
//!   `INLINE_STACK` entries and spills to the heap only beyond.
//!
//! Neither form clones a loaded field (for an address string, an atomic
//! reference-count bump) unless it is the result.
//!
//! Both forms agree with the reference interpreter [`Expr::eval`] on
//! results and errors alike. They visit operands in its left-to-right
//! order, so field loads — and the first out-of-range field, which is the
//! error returned — come in the same order, as do builtin calls and with
//! them every RNG draw. They hand the same values to the same operator
//! functions ([`expr::apply_binop`], [`expr::apply_unop`],
//! [`expr::apply_builtin`], [`expr::apply_interval`]), borrowed rather than
//! cloned, and stop at the first error. The property tests in
//! `tests/prop_vm_equivalence.rs` check it.

use std::borrow::Cow;
use std::sync::Arc;

use p2_value::{Tuple, Value, ValueError};

use crate::context::EvalContext;
use crate::expr::{self, BinOp, Expr, IntervalKind};
use crate::ops::Op;

/// Operand-stack depth kept inline; deeper byte-code spills to the heap.
/// Every program the shipped OverLog overlays compile to fits.
const INLINE_STACK: usize = 4;

/// Placeholder for operand slots not yet written.
static EMPTY: Value = Value::Null;

/// A compiled PEL program.
///
/// Dataflow elements (selections, projections, aggregations) are
/// parameterized by one or more compiled programs; each program evaluates a
/// single expression over an input tuple and yields one value. A program
/// takes the flat form when its expression is a bare field or constant, a
/// binary operator over two of them, or a ring interval over three, and
/// runs its byte-code on a borrowing operand stack otherwise (see the
/// [module docs](crate::vm)). Either way it returns what [`Expr::eval`]
/// returns.
///
/// The byte-code is held behind an [`Arc`], so cloning a program shares
/// the compiled ops instead of duplicating them.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Arc<[Op]>,
    form: Form,
}

/// How a [`Program`] evaluates.
#[derive(Debug, Clone, PartialEq)]
enum Form {
    /// Directly on borrowed operands, without running the ops.
    Flat(Flat),
    /// The ops on a borrowing operand stack of at most `max_stack` entries
    /// (computed at compile time).
    Stack { max_stack: usize },
}

/// An expression of the flat form.
#[derive(Debug, Clone, PartialEq)]
enum Flat {
    Leaf(Leaf),
    Binary(BinOp, Leaf, Leaf),
    Interval(IntervalKind, [Leaf; 3]),
}

/// An operand a flat program reads without computing it.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Field(usize),
    Const(Value),
}

impl Flat {
    fn of(expr: &Expr) -> Option<Flat> {
        Some(match expr {
            Expr::Binary(op, a, b) => Flat::Binary(*op, Leaf::of(a)?, Leaf::of(b)?),
            Expr::Interval {
                kind,
                value,
                low,
                high,
            } => Flat::Interval(*kind, [Leaf::of(value)?, Leaf::of(low)?, Leaf::of(high)?]),
            leaf => Flat::Leaf(Leaf::of(leaf)?),
        })
    }

    fn eval<'a>(
        &'a self,
        load: impl Fn(usize) -> Result<&'a Value, ValueError>,
    ) -> Result<Value, ValueError> {
        match self {
            Flat::Leaf(a) => a.get(&load).cloned(),
            Flat::Binary(op, a, b) => expr::apply_binop(*op, a.get(&load)?, b.get(&load)?),
            Flat::Interval(kind, [value, low, high]) => {
                expr::apply_interval(*kind, value.get(&load)?, low.get(&load)?, high.get(&load)?)
            }
        }
    }
}

impl Leaf {
    fn of(expr: &Expr) -> Option<Leaf> {
        match expr {
            Expr::Field(i) => Some(Leaf::Field(*i)),
            Expr::Const(v) => Some(Leaf::Const(v.clone())),
            _ => None,
        }
    }

    fn get<'a>(
        &'a self,
        load: &impl Fn(usize) -> Result<&'a Value, ValueError>,
    ) -> Result<&'a Value, ValueError> {
        match self {
            Leaf::Field(i) => load(*i),
            Leaf::Const(v) => Ok(v),
        }
    }
}

impl Program {
    /// Compiles an expression AST into byte-code and picks its evaluation
    /// form.
    pub fn compile(expr: &Expr) -> Program {
        let mut ops = Vec::new();
        emit(expr, &mut ops);
        let form = match Flat::of(expr) {
            Some(flat) => Form::Flat(flat),
            None => Form::Stack {
                max_stack: stack_bound(&ops),
            },
        };
        Program {
            ops: ops.into(),
            form,
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
            .any(|op| matches!(op, Op::Call(b, _) if b.is_random()))
    }

    /// True if evaluating this program reads the clock (`f_now`). Such
    /// programs are not pure functions of their input tuple, so their
    /// results must not be cached across events.
    pub fn uses_time(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::Call(b, _) if b.is_time()))
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

    /// Evaluates the program over a field resolver, in its form.
    fn eval_with<'a>(
        &'a self,
        ctx: &mut EvalContext,
        load: impl Fn(usize) -> Result<&'a Value, ValueError>,
    ) -> Result<Value, ValueError> {
        match &self.form {
            Form::Flat(flat) => flat.eval(load),
            Form::Stack { max_stack } if *max_stack <= INLINE_STACK => {
                let mut stack: [Cow<'a, Value>; INLINE_STACK] =
                    std::array::from_fn(|_| Cow::Borrowed(&EMPTY));
                run(&self.ops, &mut stack, ctx, load)
            }
            Form::Stack { max_stack } => {
                let mut stack = vec![Cow::Borrowed(&EMPTY); *max_stack];
                run(&self.ops, &mut stack, ctx, load)
            }
        }
    }

    /// Evaluates the program and interprets the result as a boolean
    /// (selection filters).
    pub fn eval_bool(&self, tuple: &Tuple, ctx: &mut EvalContext) -> Result<bool, ValueError> {
        Ok(self.eval(tuple, ctx)?.truthy())
    }
}

/// Runs byte-code on `stack`, which holds at least the program's
/// [`stack_bound`] slots. Constants and loaded fields are pushed borrowed;
/// an operator's result replaces its first operand's slot, owned. The ops
/// come from [`emit`], so every pop finds its operand.
fn run<'a>(
    ops: &'a [Op],
    stack: &mut [Cow<'a, Value>],
    ctx: &mut EvalContext,
    load: impl Fn(usize) -> Result<&'a Value, ValueError>,
) -> Result<Value, ValueError> {
    let mut depth = 0;
    for op in ops {
        match op {
            Op::Push(v) => {
                stack[depth] = Cow::Borrowed(v);
                depth += 1;
            }
            Op::Load(i) => {
                stack[depth] = Cow::Borrowed(load(*i)?);
                depth += 1;
            }
            Op::Unary(u) => {
                let top = &mut stack[depth - 1];
                *top = Cow::Owned(expr::apply_unop(*u, top)?);
            }
            Op::Binary(b) => {
                depth -= 1;
                let v = expr::apply_binop(*b, &stack[depth - 1], &stack[depth])?;
                stack[depth - 1] = Cow::Owned(v);
            }
            Op::Call(builtin, argc) => {
                let at = depth - argc;
                let v = expr::apply_builtin(*builtin, &stack[at..depth], ctx)?;
                stack[at] = Cow::Owned(v);
                depth = at + 1;
            }
            Op::Interval(kind) => {
                depth -= 2;
                let v = expr::apply_interval(
                    *kind,
                    &stack[depth - 1],
                    &stack[depth],
                    &stack[depth + 1],
                )?;
                stack[depth - 1] = Cow::Owned(v);
            }
        }
    }
    Ok(std::mem::replace(&mut stack[0], Cow::Borrowed(&EMPTY)).into_owned())
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
            out.push(Op::Call(*builtin, args.len()));
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

/// Computes the stack depth a program needs (at least 1).
fn stack_bound(ops: &[Op]) -> usize {
    let mut depth: isize = 0;
    let mut max: isize = 0;
    for op in ops {
        let delta: isize = match op {
            Op::Push(_) | Op::Load(_) => 1,
            Op::Unary(_) => 0,
            Op::Binary(_) => -1,
            Op::Call(_, argc) => 1 - *argc as isize,
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
        // Deeply right-nested additions: a + (b + (c + ...)) spill the
        // operand stack to the heap.
        let mut e = Expr::int(1);
        for i in 0..50 {
            e = Expr::bin(BinOp::Add, Expr::int(i), e);
        }
        let p = Program::compile(&e);
        assert_eq!(p.form, Form::Stack { max_stack: 51 });
        assert_eq!(p.eval(&tup(), &mut ctx()).unwrap(), Value::Int(1226));
        // At the inline depth exactly.
        let mut e = Expr::Field(0);
        for _ in 1..INLINE_STACK {
            e = Expr::bin(BinOp::Sub, Expr::Field(1), e);
        }
        let p = Program::compile(&e);
        assert_eq!(
            p.form,
            Form::Stack {
                max_stack: INLINE_STACK
            }
        );
        assert_eq!(p.eval(&tup(), &mut ctx()), e.eval(&tup(), &mut ctx()));
    }

    #[test]
    fn flat_form_covers_leaves_binaries_and_intervals() {
        let ring = Expr::Interval {
            kind: IntervalKind::OpenClosed,
            value: Box::new(Expr::Field(2)),
            low: Box::new(Expr::Field(0)),
            high: Box::new(Expr::Const(Value::Id(Uint160::MAX))),
        };
        let flat = [
            Expr::Field(1),
            Expr::int(7),
            Expr::bin(BinOp::Eq, Expr::Field(0), Expr::Field(1)),
            Expr::bin(BinOp::Add, Expr::Field(2), Expr::int(1)),
            ring.clone(),
        ];
        for e in &flat {
            let p = Program::compile(e);
            assert!(matches!(p.form, Form::Flat(_)), "{e:?}");
            assert_eq!(p.eval(&tup(), &mut ctx()), e.eval(&tup(), &mut ctx()));
        }
        let nested = [
            // Chord's `K - B - 1 == D`.
            Expr::bin(
                BinOp::Eq,
                Expr::bin(
                    BinOp::Sub,
                    Expr::bin(BinOp::Sub, Expr::Field(2), Expr::Field(0)),
                    Expr::int(1),
                ),
                Expr::Field(1),
            ),
            Expr::bin(
                BinOp::And,
                ring,
                Expr::bin(BinOp::Ne, Expr::Field(0), Expr::Field(1)),
            ),
            Expr::Call(Builtin::Now, vec![]),
            Expr::Unary(crate::expr::UnOp::Neg, Box::new(Expr::Field(0))),
        ];
        for e in &nested {
            let p = Program::compile(e);
            assert!(matches!(p.form, Form::Stack { .. }), "{e:?}");
            assert_eq!(p.eval(&tup(), &mut ctx()), e.eval(&tup(), &mut ctx()));
        }
    }

    #[test]
    fn errors_match_the_reference_interpreter() {
        let exprs = [
            // The first out-of-range load is the error, in either form.
            Expr::bin(BinOp::Add, Expr::Field(8), Expr::Field(9)),
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Add, Expr::Field(0), Expr::Field(8)),
                Expr::Field(9),
            ),
            // An operator error after successful loads.
            Expr::bin(BinOp::Div, Expr::Field(0), Expr::int(0)),
            Expr::bin(
                BinOp::Mul,
                Expr::Field(2),
                Expr::bin(BinOp::Add, Expr::Field(0), Expr::Field(1)),
            ),
            // A builtin called with the wrong number of arguments.
            Expr::Call(Builtin::Now, vec![Expr::int(1)]),
            Expr::Call(Builtin::Sha1, vec![]),
        ];
        for e in exprs {
            let direct = e.eval(&tup(), &mut ctx());
            assert!(direct.is_err(), "{e:?}");
            assert_eq!(Program::compile(&e).eval(&tup(), &mut ctx()), direct);
        }
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

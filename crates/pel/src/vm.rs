//! The PEL byte-code compiler and evaluator.
//!
//! [`Program::compile`] lowers an [`Expr`] to post-order byte-code ([`Op`])
//! and picks, from the expression alone, one of two evaluation forms:
//!
//! * **Flat.** A bare field or constant, a builtin called with no argument
//!   (`f_now()`), a binary operator over two fields or constants
//!   (`X == Y`, `C + 1`), or a ring interval over three (Chord's
//!   `K in (N, S]`). Most programs the planner emits have one of these
//!   shapes: assignments and head projections are mostly bare fields, and
//!   most selections are one comparison. A flat program reads its operands
//!   as `&Value`s straight from the input fields and its own constants and
//!   calls the reference interpreter's operator function once: no operand
//!   stack, and no clone except the returned value.
//! * **Byte-code.** Everything else (`D == K - B - 1 && B in (N, K) &&
//!   NI == NI'`, `f_now() - T > 20`) runs its ops in one loop over a stack
//!   of [`Copy`] operands: an identifier, an integer, a boolean, a double
//!   or a timestamp by value, and any other field or constant (a string,
//!   `Null`) as a borrowed `&Value`. Each operator reads its operands in
//!   place and writes its result over the first. A program over
//!   identifiers, integers and booleans therefore builds no [`Value`]
//!   between operators and clones no field it loads: it converts its
//!   result operand to a `Value` once, at the end, and
//!   [`Program::eval_bool_concat`] reads its truthiness without building
//!   one at all. A computed string (`f_localAddr()` inside a larger
//!   expression, `+` on two strings) is the one result that needs an owned
//!   slot; it goes to a side list, which a program that computes no string
//!   never allocates. The operand stack lives inline up to `INLINE_STACK`
//!   entries and spills to the heap only beyond.
//!
//! In the loop, each operator has direct arms for the operand pairs
//! Chord's rules use: `+` and `-` on `Id`/`Id`, `Id`/`Int≥0` (either side)
//! and `Int`/`Int`; `<<` and `>>` of an `Id` by an `Int` in
//! `0..=u32::MAX`; the six comparisons on `Id`/`Id`, `Int`/`Int`,
//! `Bool`/`Bool`, `Id`/`Int≥0` (either side) and `Str`/`Str` (one shared
//! [`Arc`] is equal without a byte compare); ring intervals over `Id` and
//! `Int≥0` operands; `&&`, `||` and `!` on truthiness. Doubles and
//! timestamps have no arm of their own. Every other pair goes, borrowed,
//! to the reference interpreter's operator functions
//! ([`expr::apply_binop`], [`expr::apply_unop`], [`expr::apply_builtin`],
//! [`expr::apply_interval`]), which stay the one definition of PEL's
//! semantics: a direct arm returns exactly what they return for its pair,
//! in variant, bits and error.
//!
//! So both forms agree with [`Expr::eval`] on results and errors alike.
//! They visit operands in the interpreter's left-to-right order, so field
//! loads — and the first out-of-range field, which is the error returned —
//! come in the same order, as do builtin calls and with them every RNG
//! draw, and they stop at the first error. The property tests in
//! `tests/prop_vm_equivalence.rs` and the pair grid in this module's tests
//! check it.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use p2_value::{SimTime, Tuple, Uint160, Value, ValueError};

use crate::context::EvalContext;
use crate::expr::{self, BinOp, Builtin, Expr, IntervalKind, UnOp};
use crate::ops::Op;

/// Operand-stack depth kept inline; deeper byte-code spills to the heap.
/// Every program the shipped OverLog overlays compile to fits.
const INLINE_STACK: usize = 4;

/// A compiled PEL program.
///
/// Dataflow elements (selections, projections, aggregations) are
/// parameterized by one or more compiled programs; each program evaluates a
/// single expression over an input tuple and yields one value. A program
/// takes the flat form when its expression is a bare field or constant, a
/// builtin called with no argument, a binary operator over two leaves, or
/// a ring interval over three, and runs its byte-code on a stack of
/// unboxed operands otherwise (see the [module docs](crate::vm)). Either
/// way it returns what [`Expr::eval`] returns.
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
    /// Directly on its operands, without running the ops.
    Flat(Flat),
    /// The ops, on an operand stack of at most `max_stack` entries
    /// (computed at compile time).
    Stack { max_stack: usize },
}

/// An expression of the flat form.
#[derive(Debug, Clone, PartialEq)]
enum Flat {
    Leaf(Leaf),
    /// A builtin called with no argument (`f_now()`, `f_rand()`).
    Call(Builtin),
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
            Expr::Call(builtin, args) if args.is_empty() => Flat::Call(*builtin),
            leaf => Flat::Leaf(Leaf::of(leaf)?),
        })
    }

    /// Evaluates the expression on its borrowed operands, through the
    /// operator functions of the reference interpreter.
    #[inline(always)]
    fn eval<'a>(
        &'a self,
        ctx: &mut EvalContext,
        load: impl Fn(usize) -> Result<&'a Value, ValueError>,
    ) -> Result<Value, ValueError> {
        match self {
            Flat::Leaf(a) => a.get(&load).cloned(),
            Flat::Call(builtin) => expr::apply_builtin::<Value>(*builtin, &[], ctx),
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

    #[inline(always)]
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

/// An operand of the evaluation loop.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    Id(Uint160),
    Int(i64),
    Bool(bool),
    Double(f64),
    Time(SimTime),
    /// A field or constant of another variant (a string, `Null`).
    Ref(&'a Value),
    /// A computed value of another variant (a string), at this index of
    /// the evaluation's side list.
    Owned(usize),
}

impl<'a> Operand<'a> {
    /// A field or constant as an operand: scalars by value, the rest
    /// borrowed.
    #[inline(always)]
    fn of(v: &'a Value) -> Operand<'a> {
        match v {
            Value::Id(x) => Operand::Id(*x),
            Value::Int(i) => Operand::Int(*i),
            Value::Bool(b) => Operand::Bool(*b),
            Value::Double(d) => Operand::Double(*d),
            Value::Time(t) => Operand::Time(*t),
            other => Operand::Ref(other),
        }
    }

    /// A computed value as an operand; a non-scalar is moved to `owned`.
    fn computed(v: Value, owned: &mut Vec<Value>) -> Operand<'a> {
        match v {
            Value::Id(x) => Operand::Id(x),
            Value::Int(i) => Operand::Int(i),
            Value::Bool(b) => Operand::Bool(b),
            Value::Double(d) => Operand::Double(d),
            Value::Time(t) => Operand::Time(t),
            other => {
                owned.push(other);
                Operand::Owned(owned.len() - 1)
            }
        }
    }

    /// The operand as a value, borrowed where it is one already.
    fn value<'b>(&self, owned: &'b [Value]) -> Cow<'b, Value>
    where
        'a: 'b,
    {
        match *self {
            Operand::Id(x) => Cow::Owned(Value::Id(x)),
            Operand::Int(i) => Cow::Owned(Value::Int(i)),
            Operand::Bool(b) => Cow::Owned(Value::Bool(b)),
            Operand::Double(d) => Cow::Owned(Value::Double(d)),
            Operand::Time(t) => Cow::Owned(Value::Time(t)),
            Operand::Ref(v) => Cow::Borrowed(v),
            Operand::Owned(i) => Cow::Borrowed(&owned[i]),
        }
    }

    /// The operand as the result of a program.
    #[inline(always)]
    fn into_value(self, mut owned: Vec<Value>) -> Value {
        match self {
            Operand::Id(x) => Value::Id(x),
            Operand::Int(i) => Value::Int(i),
            Operand::Bool(b) => Value::Bool(b),
            Operand::Double(d) => Value::Double(d),
            Operand::Time(t) => Value::Time(t),
            Operand::Ref(v) => v.clone(),
            Operand::Owned(i) => owned.swap_remove(i),
        }
    }

    /// [`Value::truthy`] of the operand.
    #[inline(always)]
    fn truthy(&self, owned: &[Value]) -> bool {
        match self {
            Operand::Id(x) => !x.is_zero(),
            Operand::Int(i) => *i != 0,
            Operand::Bool(b) => *b,
            other => other.value(owned).truthy(),
        }
    }

    /// [`Value::to_id`] of an identifier or a non-negative integer; `None`
    /// for every other operand, which takes the generic path.
    #[inline(always)]
    fn ring(&self) -> Option<Uint160> {
        match *self {
            Operand::Id(x) => Some(x),
            Operand::Int(i) if i >= 0 => Some(Uint160::from_u64(i as u64)),
            _ => None,
        }
    }

    /// The string the operand holds, if it is one.
    fn str<'b>(&self, owned: &'b [Value]) -> Option<&'b Arc<str>>
    where
        'a: 'b,
    {
        match *self {
            Operand::Ref(Value::Str(s)) => Some(s),
            Operand::Owned(i) => match &owned[i] {
                Value::Str(s) => Some(s),
                _ => None,
            },
            _ => None,
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
        match &self.form {
            Form::Flat(flat) => flat.eval(ctx, concat_loader(parts)),
            Form::Stack { max_stack } => {
                self.run(*max_stack, ctx, concat_loader(parts), Operand::into_value)
            }
        }
    }

    /// Like [`Program::eval_concat`], interpreting the result as a boolean.
    /// Builds no [`Value`] for the result.
    pub fn eval_bool_concat(
        &self,
        parts: &[&[Value]],
        ctx: &mut EvalContext,
    ) -> Result<bool, ValueError> {
        match &self.form {
            Form::Flat(flat) => Ok(flat.eval(ctx, concat_loader(parts))?.truthy()),
            Form::Stack { max_stack } => {
                self.run(*max_stack, ctx, concat_loader(parts), |top, owned| {
                    top.truthy(&owned)
                })
            }
        }
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
        let load = |i| {
            fields.get(i).ok_or(ValueError::FieldOutOfRange {
                index: i,
                len: fields.len(),
            })
        };
        match &self.form {
            Form::Flat(flat) => flat.eval(ctx, load),
            Form::Stack { max_stack } => self.run(*max_stack, ctx, load, Operand::into_value),
        }
    }

    /// Evaluates the program and interprets the result as a boolean
    /// (selection filters).
    pub fn eval_bool(&self, tuple: &Tuple, ctx: &mut EvalContext) -> Result<bool, ValueError> {
        Ok(self.eval(tuple, ctx)?.truthy())
    }

    /// Runs the byte-code over a field resolver on an inline operand stack
    /// (or a heap one, past `INLINE_STACK`) and hands the result operand
    /// and the side list to `finish`.
    #[inline(always)]
    fn run<'a, R>(
        &'a self,
        max_stack: usize,
        ctx: &mut EvalContext,
        load: impl Fn(usize) -> Result<&'a Value, ValueError>,
        finish: impl FnOnce(Operand<'a>, Vec<Value>) -> R,
    ) -> Result<R, ValueError> {
        let mut owned = Vec::new();
        let mut inline = [Operand::Int(0); INLINE_STACK];
        let mut heap;
        let stack = if max_stack <= INLINE_STACK {
            &mut inline[..]
        } else {
            heap = vec![Operand::Int(0); max_stack];
            &mut heap[..]
        };
        let top = run(&self.ops, stack, &mut owned, ctx, load)?;
        Ok(finish(top, owned))
    }
}

/// The field resolver of [`Program::eval_concat`].
fn concat_loader<'a>(parts: &'a [&'a [Value]]) -> impl Fn(usize) -> Result<&'a Value, ValueError> {
    move |i| {
        concat_get(parts, i).ok_or_else(|| ValueError::FieldOutOfRange {
            index: i,
            len: parts.iter().map(|p| p.len()).sum(),
        })
    }
}

/// Runs byte-code on `stack`, which holds at least the program's
/// [`stack_bound`] operands, and returns its result operand. An operator's
/// result replaces its first operand. The ops come from [`emit`], so every
/// pop finds its operand.
#[inline(always)]
fn run<'a>(
    ops: &'a [Op],
    stack: &mut [Operand<'a>],
    owned: &mut Vec<Value>,
    ctx: &mut EvalContext,
    load: impl Fn(usize) -> Result<&'a Value, ValueError>,
) -> Result<Operand<'a>, ValueError> {
    let mut depth = 0;
    for op in ops {
        match op {
            Op::Push(v) => {
                stack[depth] = Operand::of(v);
                depth += 1;
            }
            Op::Load(i) => {
                stack[depth] = Operand::of(load(*i)?);
                depth += 1;
            }
            Op::Unary(u) => unary(*u, &mut stack[depth - 1], owned)?,
            Op::Binary(b) => {
                depth -= 1;
                let (a, b_) = stack.split_at_mut(depth);
                binary(*b, &mut a[depth - 1], &b_[0], owned)?;
            }
            Op::Call(builtin, argc) => {
                let at = depth - argc;
                stack[at] = call(*builtin, &stack[at..depth], owned, ctx)?;
                depth = at + 1;
            }
            Op::Interval(kind) => {
                depth -= 2;
                let (value, bounds) = stack.split_at_mut(depth);
                interval(*kind, &mut value[depth - 1], &bounds[0], &bounds[1], owned)?;
            }
        }
    }
    Ok(stack[0])
}

#[inline(always)]
fn unary<'a>(op: UnOp, a: &mut Operand<'a>, owned: &mut Vec<Value>) -> Result<(), ValueError> {
    *a = match (op, *a) {
        (UnOp::Not, a) => Operand::Bool(!a.truthy(owned)),
        (UnOp::Neg, Operand::Int(i)) => Operand::Int(i.wrapping_neg()),
        (UnOp::Neg, a) => generic_unary(op, &a, owned)?,
    };
    Ok(())
}

/// A unary operator through [`expr::apply_unop`].
#[inline(never)]
fn generic_unary<'a>(
    op: UnOp,
    a: &Operand<'a>,
    owned: &mut Vec<Value>,
) -> Result<Operand<'a>, ValueError> {
    let v = expr::apply_unop(op, &a.value(owned))?;
    Ok(Operand::computed(v, owned))
}

#[inline(always)]
fn binary<'a>(
    op: BinOp,
    a: &mut Operand<'a>,
    b: &Operand<'a>,
    owned: &mut Vec<Value>,
) -> Result<(), ValueError> {
    *a = match direct_binary(op, a, b, owned) {
        Some(r) => r,
        None => generic_binary(op, a, b, owned)?,
    };
    Ok(())
}

/// The direct arm of `a op b`, if its pair has one.
#[inline(always)]
fn direct_binary<'a>(
    op: BinOp,
    a: &Operand<'a>,
    b: &Operand<'a>,
    owned: &[Value],
) -> Option<Operand<'a>> {
    use Operand::{Bool, Id, Int};
    match op {
        BinOp::And => Some(Bool(a.truthy(owned) && b.truthy(owned))),
        BinOp::Or => Some(Bool(a.truthy(owned) || b.truthy(owned))),
        BinOp::Add | BinOp::Sub => {
            let sub = op == BinOp::Sub;
            match (*a, *b) {
                (Int(x), Int(y)) if sub => Some(Int(x.wrapping_sub(y))),
                (Int(x), Int(y)) => Some(Int(x.wrapping_add(y))),
                // Either side an identifier: ring arithmetic.
                (Id(_), _) | (_, Id(_)) => match (a.ring(), b.ring()) {
                    (Some(x), Some(y)) if sub => Some(Id(x.wrapping_sub(y))),
                    (Some(x), Some(y)) => Some(Id(x.wrapping_add(y))),
                    _ => None,
                },
                _ => None,
            }
        }
        BinOp::Shl | BinOp::Shr => match (*a, *b) {
            (Id(x), Int(n)) if (0..=u32::MAX as i64).contains(&n) => {
                Some(Id(if op == BinOp::Shl {
                    x.shl(n as u32)
                } else {
                    x.shr(n as u32)
                }))
            }
            _ => None,
        },
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            compare(a, b, owned).map(|ord| Bool(holds(op, ord)))
        }
        BinOp::Mul | BinOp::Div | BinOp::Mod => None,
    }
}

/// `a op b` through [`expr::apply_binop`].
#[inline(never)]
fn generic_binary<'a>(
    op: BinOp,
    a: &Operand<'a>,
    b: &Operand<'a>,
    owned: &mut Vec<Value>,
) -> Result<Operand<'a>, ValueError> {
    let v = expr::apply_binop(op, &a.value(owned), &b.value(owned))?;
    Ok(Operand::computed(v, owned))
}

/// [`Value::compare`] of the pairs with a direct arm; `None` for the rest.
#[inline(always)]
fn compare(a: &Operand<'_>, b: &Operand<'_>, owned: &[Value]) -> Option<Ordering> {
    use Operand::{Bool, Id, Int};
    Some(match (*a, *b) {
        (Id(x), Id(y)) => x.cmp(&y),
        (Int(x), Int(y)) => x.cmp(&y),
        (Bool(x), Bool(y)) => x.cmp(&y),
        (Id(x), Int(n)) if n >= 0 => x.cmp(&Uint160::from_u64(n as u64)),
        (Int(n), Id(y)) if n >= 0 => Uint160::from_u64(n as u64).cmp(&y),
        _ => {
            let (x, y) = (a.str(owned)?, b.str(owned)?);
            if Arc::ptr_eq(x, y) {
                Ordering::Equal
            } else {
                x.cmp(y)
            }
        }
    })
}

/// Whether comparison `op` holds for operands ordered `ord`.
#[inline(always)]
fn holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

#[inline(always)]
fn interval<'a>(
    kind: IntervalKind,
    value: &mut Operand<'a>,
    low: &Operand<'a>,
    high: &Operand<'a>,
    owned: &mut Vec<Value>,
) -> Result<(), ValueError> {
    *value = match (value.ring(), low.ring(), high.ring()) {
        (Some(k), Some(a), Some(b)) => Operand::Bool(match kind {
            IntervalKind::OpenOpen => k.in_oo(a, b),
            IntervalKind::OpenClosed => k.in_oc(a, b),
            IntervalKind::ClosedOpen => k.in_co(a, b),
            IntervalKind::ClosedClosed => k.in_cc(a, b),
        }),
        _ => generic_interval(kind, value, low, high, owned)?,
    };
    Ok(())
}

/// A ring interval through [`expr::apply_interval`].
#[inline(never)]
fn generic_interval<'a>(
    kind: IntervalKind,
    value: &Operand<'a>,
    low: &Operand<'a>,
    high: &Operand<'a>,
    owned: &mut Vec<Value>,
) -> Result<Operand<'a>, ValueError> {
    let v = expr::apply_interval(
        kind,
        &value.value(owned),
        &low.value(owned),
        &high.value(owned),
    )?;
    Ok(Operand::computed(v, owned))
}

/// Calls a builtin on the given argument operands. Most builtins take no
/// argument or one, which need no argument vector.
fn call<'a>(
    builtin: Builtin,
    args: &[Operand<'a>],
    owned: &mut Vec<Value>,
    ctx: &mut EvalContext,
) -> Result<Operand<'a>, ValueError> {
    let v = match args {
        [] => expr::apply_builtin::<Value>(builtin, &[], ctx)?,
        [a] => expr::apply_builtin(builtin, &[a.value(owned)], ctx)?,
        _ => {
            let args: Vec<_> = args.iter().map(|a| a.value(owned)).collect();
            expr::apply_builtin(builtin, &args, ctx)?
        }
    };
    Ok(Operand::computed(v, owned))
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

    /// `expr` compiled to run its byte-code even where it has a flat form.
    fn stack_form(expr: &Expr) -> Program {
        let p = Program::compile(expr);
        Program {
            form: Form::Stack {
                max_stack: stack_bound(&p.ops),
            },
            ..p
        }
    }

    /// Exact agreement: same variant and bits (`Value`'s `==` equates
    /// `Int(1)` with `Double(1.0)`), same error.
    fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    const BINOPS: [BinOp; 15] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];

    const KINDS: [IntervalKind; 4] = [
        IntervalKind::OpenOpen,
        IntervalKind::OpenClosed,
        IntervalKind::ClosedOpen,
        IntervalKind::ClosedClosed,
    ];

    /// Edge values of every variant: the integer extremes and their
    /// neighbours of zero, identifiers at zero, at a limb boundary and at
    /// the top of the ring, and two addresses that are one shared `Arc`
    /// next to an equal one that is not.
    fn edges() -> Vec<Value> {
        let shared: Arc<str> = Arc::from("n1:10000");
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(159),
            Value::Int(u32::MAX as i64 + 1),
            Value::Int(i64::MAX),
            Value::Double(-1.5),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Time(SimTime::ZERO),
            Value::Time(SimTime::from_secs(7)),
            Value::Id(Uint160::ZERO),
            Value::Id(Uint160::ONE),
            Value::Id(Uint160::from_u64(u64::MAX)),
            Value::Id(Uint160::from_limbs([0, 1, 0])),
            Value::Id(Uint160::MAX),
            Value::Str(shared.clone()),
            Value::Str(shared),
            Value::str("n1:10000"),
            Value::str(""),
            Value::str("12"),
        ]
    }

    /// Every binary operator on every pair of edge values, read from the
    /// fields and from constants, agrees with `expr::apply_binop` in the
    /// flat form and in the byte-code loop; each unary operator and
    /// interval kind with its `apply_*` likewise.
    #[test]
    fn every_operator_pair_matches_the_apply_functions() {
        let vals = edges();
        let field = |i| Expr::Field(i);
        for a in &vals {
            for b in &vals {
                let fields = [a.clone(), b.clone()];
                for op in BINOPS {
                    let want = expr::apply_binop(op, a, b);
                    for e in [
                        Expr::bin(op, field(0), field(1)),
                        Expr::bin(op, Expr::Const(a.clone()), Expr::Const(b.clone())),
                    ] {
                        for p in [Program::compile(&e), stack_form(&e)] {
                            let got = p.eval_fields(&fields, &mut ctx());
                            assert!(same(&got, &want), "{a:?} {op:?} {b:?}: {got:?} != {want:?}");
                            let truth = p.eval_bool_concat(&[&fields], &mut ctx());
                            assert_eq!(
                                truth,
                                want.as_ref().map(Value::truthy).map_err(Clone::clone)
                            );
                        }
                    }
                }
                for c in &vals {
                    let fields = [a.clone(), b.clone(), c.clone()];
                    for kind in KINDS {
                        let want = expr::apply_interval(kind, a, b, c);
                        let e = Expr::Interval {
                            kind,
                            value: Box::new(field(0)),
                            low: Box::new(field(1)),
                            high: Box::new(field(2)),
                        };
                        for p in [Program::compile(&e), stack_form(&e)] {
                            let got = p.eval_fields(&fields, &mut ctx());
                            assert!(same(&got, &want), "{a:?} in {kind:?} {b:?}, {c:?}");
                        }
                    }
                }
            }
            for op in [UnOp::Neg, UnOp::Not] {
                let want = expr::apply_unop(op, a);
                let p = Program::compile(&Expr::Unary(op, Box::new(field(0))));
                let got = p.eval_fields(std::slice::from_ref(a), &mut ctx());
                assert!(same(&got, &want), "{op:?} {a:?}: {got:?} != {want:?}");
            }
        }
    }

    /// Operands that are themselves computed (a string from `+`, a double
    /// from a timestamp difference, the clock) meet the direct arms and
    /// the generic path as loaded ones do.
    #[test]
    fn computed_operands_match_the_reference_interpreter() {
        let t = TupleBuilder::new("t")
            .push("n1")
            .push("n")
            .push("1")
            .push(Value::Time(SimTime::from_secs(20)))
            .push(Value::Id(Uint160::MAX))
            .build();
        let concat = Expr::bin(BinOp::Add, Expr::Field(1), Expr::Field(2));
        let exprs = [
            concat.clone(),
            Expr::bin(BinOp::Eq, concat.clone(), Expr::Field(0)),
            Expr::bin(BinOp::Lt, Expr::Field(0), concat.clone()),
            Expr::bin(BinOp::And, concat.clone(), Expr::Field(4)),
            Expr::bin(
                BinOp::Eq,
                Expr::Call(Builtin::LocalAddr, vec![]),
                Expr::Field(0),
            ),
            Expr::bin(
                BinOp::Gt,
                Expr::bin(BinOp::Sub, Expr::Call(Builtin::Now, vec![]), Expr::Field(3)),
                Expr::int(20),
            ),
            Expr::Call(Builtin::Sha1, vec![concat]),
            Expr::bin(
                BinOp::Add,
                Expr::bin(
                    BinOp::Shl,
                    Expr::Const(Value::Id(Uint160::ONE)),
                    Expr::int(159),
                ),
                Expr::Field(4),
            ),
        ];
        for e in exprs {
            let direct = e.eval(&t, &mut ctx());
            let p = Program::compile(&e);
            assert!(same(&p.eval(&t, &mut ctx()), &direct), "{e:?}");
            assert_eq!(
                p.eval_bool_concat(&[t.values()], &mut ctx()),
                direct.map(|v| v.truthy())
            );
        }
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

    /// A leaf, one binary operator over two leaves and one interval over
    /// three take the flat form; deeper shapes run the byte-code. Both
    /// agree with the reference interpreter, and the byte-code of a flat
    /// shape does too.
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
            Expr::Call(Builtin::Now, vec![]),
        ];
        for e in &flat {
            let p = Program::compile(e);
            assert!(matches!(p.form, Form::Flat(_)), "{e:?}");
            assert_eq!(p.eval(&tup(), &mut ctx()), e.eval(&tup(), &mut ctx()));
            let p = stack_form(e);
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
            Expr::Call(Builtin::Sha1, vec![Expr::Field(0)]),
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
            // The first out-of-range load is the error.
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

//! PEL expression AST and its reference interpreter.
//!
//! The planner builds [`Expr`] trees when translating OverLog rule bodies
//! (assignments, selection predicates, aggregate arguments) and compiles
//! them into [`crate::Program`] byte-code. The AST can also be evaluated
//! directly; the byte-code VM must agree with this reference interpreter
//! (checked by property tests).

use std::borrow::Borrow;

use p2_value::{Tuple, Uint160, Value, ValueError};

use crate::context::EvalContext;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (`+`). Identifier operands use wrapping ring arithmetic.
    Add,
    /// Subtraction (`-`). Identifier operands use wrapping ring arithmetic.
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Division (`/`).
    Div,
    /// Modulo (`%`).
    Mod,
    /// Left shift (`<<`); used for Chord finger targets (`1 << I`).
    Shl,
    /// Right shift (`>>`).
    Shr,
    /// Equality (`==`).
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Less-or-equal (`<=`).
    Le,
    /// Greater-than (`>`).
    Gt,
    /// Greater-or-equal (`>=`).
    Ge,
    /// Logical conjunction (`&&`).
    And,
    /// Logical disjunction (`||`).
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// Built-in functions available to OverLog programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `f_now()` — the node's current (virtual) wall-clock time.
    Now,
    /// `f_rand()` — uniform double in `[0, 1)`.
    Rand,
    /// `f_coinFlip(p)` — boolean, true with probability `p`.
    CoinFlip,
    /// `f_sha1(x)` — hash an arbitrary value into the 160-bit identifier
    /// space (stand-in for SHA-1; see `Uint160::hash_of`).
    Sha1,
    /// `f_localAddr()` — the node's own address.
    LocalAddr,
}

impl Builtin {
    /// Number of arguments the builtin expects.
    pub fn arity(&self) -> usize {
        match self {
            Builtin::Now | Builtin::Rand | Builtin::LocalAddr => 0,
            Builtin::CoinFlip | Builtin::Sha1 => 1,
        }
    }

    /// True if the builtin draws on the node's RNG (`f_rand`,
    /// `f_coinFlip`). Programs calling one are order-sensitive beyond
    /// their inputs; this is the single source of truth behind both
    /// [`crate::Program::uses_random`] and the whole-rule determinism
    /// classification in the OverLog analyzer.
    pub fn is_random(&self) -> bool {
        matches!(self, Builtin::Rand | Builtin::CoinFlip)
    }

    /// True if the builtin reads the node's clock (`f_now`). Programs
    /// calling one are not pure functions of their input tuple; see
    /// [`crate::Program::uses_time`].
    pub fn is_time(&self) -> bool {
        matches!(self, Builtin::Now)
    }

    /// Resolves an OverLog function name (`f_now`, `f_rand`, ...).
    pub fn from_name(name: &str) -> Option<Builtin> {
        match name {
            "f_now" => Some(Builtin::Now),
            "f_rand" => Some(Builtin::Rand),
            "f_coinFlip" | "f_coinflip" => Some(Builtin::CoinFlip),
            "f_sha1" | "f_hash" => Some(Builtin::Sha1),
            "f_localAddr" | "f_localaddr" => Some(Builtin::LocalAddr),
            _ => None,
        }
    }
}

/// Kind of ring-interval membership test (`K in (A,B]` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalKind {
    /// `(A, B)`
    OpenOpen,
    /// `(A, B]`
    OpenClosed,
    /// `[A, B)`
    ClosedOpen,
    /// `[A, B]`
    ClosedClosed,
}

/// A PEL expression over the fields of a single (joined) tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The `index`-th field of the input tuple.
    Field(usize),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call.
    Call(Builtin, Vec<Expr>),
    /// Ring-interval membership test: `value in (low, high)` (kind decides
    /// which endpoints are included). Operands are converted to 160-bit
    /// identifiers and tested on the ring.
    Interval {
        /// Which endpoints are included.
        kind: IntervalKind,
        /// The tested value.
        value: Box<Expr>,
        /// Lower (counter-clockwise) endpoint.
        low: Box<Expr>,
        /// Upper (clockwise) endpoint.
        high: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Convenience constructor: string literal.
    pub fn str(v: &str) -> Expr {
        Expr::Const(Value::str(v))
    }

    /// Convenience constructor: binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Largest field index referenced by this expression, if any.
    pub fn max_field(&self) -> Option<usize> {
        match self {
            Expr::Const(_) => None,
            Expr::Field(i) => Some(*i),
            Expr::Unary(_, e) => e.max_field(),
            Expr::Binary(_, a, b) => a.max_field().into_iter().chain(b.max_field()).max(),
            Expr::Call(_, args) => args.iter().filter_map(Expr::max_field).max(),
            Expr::Interval {
                value, low, high, ..
            } => [value, low, high]
                .iter()
                .filter_map(|e| e.max_field())
                .max(),
        }
    }

    /// Directly evaluates the expression against a tuple (reference
    /// interpreter; the compiled VM must agree with this).
    pub fn eval(&self, tuple: &Tuple, ctx: &mut EvalContext) -> Result<Value, ValueError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Field(i) => tuple.get(*i).cloned(),
            Expr::Unary(op, e) => apply_unop(*op, &e.eval(tuple, ctx)?),
            Expr::Binary(op, a, b) => {
                let lhs = a.eval(tuple, ctx)?;
                let rhs = b.eval(tuple, ctx)?;
                apply_binop(*op, &lhs, &rhs)
            }
            Expr::Call(builtin, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(tuple, ctx)?);
                }
                apply_builtin(*builtin, &vals[..], ctx)
            }
            Expr::Interval {
                kind,
                value,
                low,
                high,
            } => {
                let v = value.eval(tuple, ctx)?;
                let lo = low.eval(tuple, ctx)?;
                let hi = high.eval(tuple, ctx)?;
                apply_interval(*kind, &v, &lo, &hi)
            }
        }
    }
}

/// Applies a unary operator. Integer negation wraps, like every other
/// integer operator: `-i64::MIN` is `i64::MIN`.
pub fn apply_unop(op: UnOp, v: &Value) -> Result<Value, ValueError> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(ValueError::TypeMismatch {
                op: "neg",
                got: format!("{other}"),
            }),
        },
    }
}

/// Applies a binary operator with P2's coercion rules.
///
/// * If either operand is a 160-bit identifier, `+`, `-`, `<<`, `>>` operate
///   on the ring (wrapping modulo 2^160).
/// * Otherwise, if either operand is a double or a timestamp, arithmetic is
///   performed on doubles (timestamps convert to seconds, which is what the
///   OverLog programs expect from `f_now() - T > 20`).
/// * Otherwise integer arithmetic (wrapping) is used.
/// * Comparisons use [`Value::compare`]; logical operators use truthiness.
pub fn apply_binop(op: BinOp, lhs: &Value, rhs: &Value) -> Result<Value, ValueError> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(lhs == rhs)),
        Ne => return Ok(Value::Bool(lhs != rhs)),
        Lt => return Ok(Value::Bool(lhs < rhs)),
        Le => return Ok(Value::Bool(lhs <= rhs)),
        Gt => return Ok(Value::Bool(lhs > rhs)),
        Ge => return Ok(Value::Bool(lhs >= rhs)),
        And => return Ok(Value::Bool(lhs.truthy() && rhs.truthy())),
        Or => return Ok(Value::Bool(lhs.truthy() || rhs.truthy())),
        _ => {}
    }

    let id_mode = matches!(lhs, Value::Id(_)) || matches!(rhs, Value::Id(_));
    if id_mode {
        let a = lhs.to_id()?;
        let b = rhs.to_id()?;
        let out = match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Shl => a.shl(rhs.to_u32()?),
            Shr => a.shr(rhs.to_u32()?),
            Mul | Div | Mod => {
                return Err(ValueError::TypeMismatch {
                    op: "id arithmetic",
                    got: format!("{lhs} {op:?} {rhs}"),
                })
            }
            _ => unreachable!("comparisons handled above"),
        };
        return Ok(Value::Id(out));
    }

    let float_mode = matches!(lhs, Value::Double(_) | Value::Time(_))
        || matches!(rhs, Value::Double(_) | Value::Time(_));
    if float_mode && !matches!(op, Shl | Shr) {
        let a = lhs.to_double()?;
        let b = rhs.to_double()?;
        let out = match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => {
                if b == 0.0 {
                    return Err(ValueError::DivideByZero);
                }
                a / b
            }
            Mod => {
                if b == 0.0 {
                    return Err(ValueError::DivideByZero);
                }
                a % b
            }
            _ => unreachable!(),
        };
        return Ok(Value::Double(out));
    }

    // String concatenation with `+`.
    if op == Add {
        if let (Value::Str(a), Value::Str(b)) = (lhs, rhs) {
            return Ok(Value::str(format!("{a}{b}")));
        }
    }

    let a = lhs.to_int()?;
    let b = rhs.to_int()?;
    let out = match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return Err(ValueError::DivideByZero);
            }
            a.wrapping_div(b)
        }
        Mod => {
            if b == 0 {
                return Err(ValueError::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        Shl => a.wrapping_shl(rhs.to_u32()? % 64),
        Shr => a.wrapping_shr(rhs.to_u32()? % 64),
        _ => unreachable!(),
    };
    Ok(Value::Int(out))
}

/// Applies a built-in function to borrowed arguments (`&[Value]`,
/// `&[&Value]`, or the VM's operand slots alike).
pub fn apply_builtin<V: Borrow<Value>>(
    builtin: Builtin,
    args: &[V],
    ctx: &mut EvalContext,
) -> Result<Value, ValueError> {
    if args.len() != builtin.arity() {
        return Err(ValueError::TypeMismatch {
            op: "builtin arity",
            got: format!("{builtin:?} called with {} args", args.len()),
        });
    }
    Ok(match builtin {
        Builtin::Now => Value::Time(ctx.now()),
        Builtin::Rand => Value::Double(ctx.next_f64()),
        Builtin::LocalAddr => ctx.local_addr(),
        Builtin::CoinFlip => Value::Bool(ctx.coin_flip(args[0].borrow().to_double()?)),
        Builtin::Sha1 => {
            let bytes = args[0].borrow().to_display_string();
            Value::Id(Uint160::hash_of(bytes.as_bytes()))
        }
    })
}

/// Applies a ring-interval membership test.
pub fn apply_interval(
    kind: IntervalKind,
    value: &Value,
    low: &Value,
    high: &Value,
) -> Result<Value, ValueError> {
    let k = value.to_id()?;
    let a = low.to_id()?;
    let b = high.to_id()?;
    let result = match kind {
        IntervalKind::OpenOpen => k.in_oo(a, b),
        IntervalKind::OpenClosed => k.in_oc(a, b),
        IntervalKind::ClosedOpen => k.in_co(a, b),
        IntervalKind::ClosedClosed => k.in_cc(a, b),
    };
    Ok(Value::Bool(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::{SimTime, TupleBuilder};

    fn ctx() -> EvalContext {
        let mut c = EvalContext::new("n1", 12345);
        c.set_now(SimTime::from_secs(100));
        c
    }

    fn t() -> Tuple {
        TupleBuilder::new("test")
            .push(10i64)
            .push(4i64)
            .push("n2")
            .push(Value::Id(Uint160::from_u64(1000)))
            .push(Value::Time(SimTime::from_secs(80)))
            .build()
    }

    #[test]
    fn field_and_const() {
        let mut c = ctx();
        assert_eq!(Expr::Field(0).eval(&t(), &mut c).unwrap(), Value::Int(10));
        assert_eq!(Expr::int(7).eval(&t(), &mut c).unwrap(), Value::Int(7));
        assert!(Expr::Field(99).eval(&t(), &mut c).is_err());
    }

    #[test]
    fn integer_arithmetic() {
        let mut c = ctx();
        let e = Expr::bin(BinOp::Add, Expr::Field(0), Expr::Field(1));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Int(14));
        let e = Expr::bin(BinOp::Mul, Expr::int(6), Expr::int(7));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Int(42));
        let e = Expr::bin(BinOp::Div, Expr::int(7), Expr::int(0));
        assert_eq!(e.eval(&t(), &mut c), Err(ValueError::DivideByZero));
        let e = Expr::bin(BinOp::Mod, Expr::int(7), Expr::int(3));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Int(1));
        let e = Expr::bin(BinOp::Shl, Expr::int(1), Expr::int(4));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Int(16));
    }

    #[test]
    fn double_and_time_arithmetic() {
        let mut c = ctx();
        // f_now() - T where T is a timestamp field: seconds as double.
        let e = Expr::bin(BinOp::Sub, Expr::Call(Builtin::Now, vec![]), Expr::Field(4));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Double(20.0));
        // And the idiomatic liveness check `f_now() - T > 20`.
        let check = Expr::bin(BinOp::Gt, e, Expr::int(20));
        assert_eq!(check.eval(&t(), &mut c).unwrap(), Value::Bool(false));

        let e = Expr::bin(BinOp::Div, Expr::Const(Value::Double(1.0)), Expr::int(4));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Double(0.25));
    }

    #[test]
    fn id_ring_arithmetic() {
        let mut c = ctx();
        // K := (1 << 159) + N  wraps around the ring.
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Shl,
                Expr::Const(Value::Id(Uint160::ONE)),
                Expr::int(159),
            ),
            Expr::Field(3),
        );
        let expect = Uint160::pow2(159).wrapping_add(Uint160::from_u64(1000));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Id(expect));

        // D := K - B - 1 with wrap-around.
        let e = Expr::bin(
            BinOp::Sub,
            Expr::bin(
                BinOp::Sub,
                Expr::Const(Value::Id(Uint160::from_u64(5))),
                Expr::Field(3),
            ),
            Expr::int(1),
        );
        let expect = Uint160::from_u64(5)
            .wrapping_sub(Uint160::from_u64(1000))
            .wrapping_sub(Uint160::ONE);
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Id(expect));

        // Multiplying identifiers is not defined.
        let e = Expr::bin(BinOp::Mul, Expr::Field(3), Expr::int(2));
        assert!(e.eval(&t(), &mut c).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let mut c = ctx();
        let e = Expr::bin(BinOp::Ne, Expr::Field(2), Expr::str("-"));
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Bool(true));
        let e = Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, Expr::Field(0), Expr::int(10)),
            Expr::bin(BinOp::Eq, Expr::Field(1), Expr::int(5)),
        );
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Bool(true));
        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::bin(BinOp::Lt, Expr::Field(0), Expr::Field(1))),
        );
        assert_eq!(e.eval(&t(), &mut c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unary_operators() {
        assert_eq!(apply_unop(UnOp::Neg, &Value::Int(5)), Ok(Value::Int(-5)));
        assert_eq!(
            apply_unop(UnOp::Neg, &Value::Double(2.5)),
            Ok(Value::Double(-2.5))
        );
        // Integer negation wraps like every other integer operator instead
        // of overflowing.
        assert_eq!(
            apply_unop(UnOp::Neg, &Value::Int(i64::MIN)),
            Ok(Value::Int(i64::MIN))
        );
        assert_eq!(
            apply_unop(UnOp::Neg, &Value::Int(i64::MAX)),
            Ok(Value::Int(-i64::MAX))
        );
        assert!(apply_unop(UnOp::Neg, &Value::str("x")).is_err());
        assert_eq!(apply_unop(UnOp::Not, &Value::Int(0)), Ok(Value::Bool(true)));
    }

    #[test]
    fn string_concat() {
        let v = apply_binop(BinOp::Add, &Value::str("n"), &Value::str("1")).unwrap();
        assert_eq!(v, Value::str("n1"));
    }

    #[test]
    fn builtins() {
        let mut c = ctx();
        assert_eq!(
            Expr::Call(Builtin::Now, vec![]).eval(&t(), &mut c).unwrap(),
            Value::Time(SimTime::from_secs(100))
        );
        assert_eq!(
            Expr::Call(Builtin::LocalAddr, vec![])
                .eval(&t(), &mut c)
                .unwrap(),
            Value::str("n1")
        );
        let r = Expr::Call(Builtin::Rand, vec![])
            .eval(&t(), &mut c)
            .unwrap();
        let r = r.to_double().unwrap();
        assert!((0.0..1.0).contains(&r));
        let h = Expr::Call(Builtin::Sha1, vec![Expr::Field(2)])
            .eval(&t(), &mut c)
            .unwrap();
        assert_eq!(h, Value::Id(Uint160::hash_of(b"n2")));
        // Wrong arity is an error.
        assert!(Expr::Call(Builtin::Now, vec![Expr::int(1)])
            .eval(&t(), &mut c)
            .is_err());
    }

    #[test]
    fn interval_tests() {
        let mut c = ctx();
        let make = |kind| Expr::Interval {
            kind,
            value: Box::new(Expr::int(15)),
            low: Box::new(Expr::int(10)),
            high: Box::new(Expr::int(20)),
        };
        for kind in [
            IntervalKind::OpenOpen,
            IntervalKind::OpenClosed,
            IntervalKind::ClosedOpen,
            IntervalKind::ClosedClosed,
        ] {
            assert_eq!(make(kind).eval(&t(), &mut c).unwrap(), Value::Bool(true));
        }
        let edge = Expr::Interval {
            kind: IntervalKind::OpenClosed,
            value: Box::new(Expr::int(10)),
            low: Box::new(Expr::int(10)),
            high: Box::new(Expr::int(20)),
        };
        assert_eq!(edge.eval(&t(), &mut c).unwrap(), Value::Bool(false));
    }

    #[test]
    fn max_field() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Field(2),
            Expr::Call(Builtin::Sha1, vec![Expr::Field(7)]),
        );
        assert_eq!(e.max_field(), Some(7));
        assert_eq!(Expr::int(3).max_field(), None);
    }
}

//! Byte-code operations for the PEL virtual machine.

use p2_value::Value;

use crate::expr::{BinOp, Builtin, IntervalKind, UnOp};

/// A single PEL byte-code operation.
///
/// The byte-code is a pure stack language: operations pop their operands
/// from the evaluation stack and push their result. Programs are produced
/// by [`crate::Program::compile`] from an [`crate::Expr`] in post-order,
/// which is exactly the RPN/postfix form described in the paper. (A
/// program simple enough for the flat form never runs its ops; see
/// [`crate::vm`].)
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push a literal value.
    Push(Value),
    /// Push field `n` of the input tuple.
    Load(usize),
    /// Pop one value, apply the unary operator, push the result.
    Unary(UnOp),
    /// Pop two values (rhs first), apply the binary operator, push result.
    Binary(BinOp),
    /// Pop the given number of arguments (last argument on top) and call
    /// the builtin; a count other than [`Builtin::arity`] is the same
    /// arity error [`crate::Expr::eval`] raises.
    Call(Builtin, usize),
    /// Pop high, low, value; push the ring-interval membership boolean.
    Interval(IntervalKind),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_cloneable_and_comparable() {
        let a = Op::Push(Value::Int(1));
        assert_eq!(a.clone(), a);
        assert_ne!(a, Op::Load(0));
        assert_ne!(Op::Binary(BinOp::Add), Op::Binary(BinOp::Sub));
    }
}

//! PEL — the P2 Expression Language.
//!
//! The original P2 implements "a small but powerful expression language for
//! manipulating Values and Tuples ... a stack-based RPN-like postfix
//! language" together with a byte-code compiler and a fast virtual machine.
//! PEL programs are not written by humans: they are generated by the OverLog
//! planner and used to parameterize dataflow elements (selections,
//! projections, aggregate arguments, assignments).
//!
//! This crate reproduces that layer:
//!
//! * [`Expr`] — the expression AST the planner produces (constants, tuple
//!   field accesses, arithmetic, comparisons, ring-interval tests, built-in
//!   functions such as `f_now`, `f_rand`, `f_coinFlip`, `f_sha1`).
//! * [`Program`] — a compiled byte-code program ([`Op`] sequence). A bare
//!   field, constant or no-argument builtin, one operator over two leaves
//!   and one ring interval over three evaluate flat, on borrowed operands.
//!   Every other program runs in one evaluation loop whose operand stack
//!   holds identifiers, integers, booleans, doubles and timestamps unboxed
//!   and borrows every other field or constant, so ring arithmetic,
//!   comparisons and intervals build no [`p2_value::Value`] per operator;
//!   operand pairs without a direct arm go to the reference interpreter's
//!   operator functions (see [`vm`]).
//! * [`EvalContext`] — per-node evaluation environment (virtual clock,
//!   deterministic RNG, local address).
//!
//! The AST can also be interpreted directly ([`Expr::eval`]); property tests
//! check that compilation + VM execution agrees with direct interpretation.

pub mod context;
pub mod expr;
pub mod ops;
pub mod vm;

pub use context::EvalContext;
pub use expr::{BinOp, Builtin, Expr, IntervalKind, UnOp};
pub use ops::Op;
pub use vm::{concat_get, Program};

use p2_value::ValueError;

/// Errors produced while evaluating PEL expressions or programs.
pub type PelError = ValueError;

//! OverLog — the declarative overlay specification language of P2.
//!
//! OverLog is an adaptation of Datalog for a distributed setting: programs
//! consist of `materialize` table declarations, facts, and rules of the form
//!
//! ```text
//! R1 head@Loc(Args...) :- body1@Loc(Args...), Var := Expr, Cond, ... .
//! ```
//!
//! extended with location specifiers (`@Loc`), per-rule aggregates in the
//! head (`min<D>`, `count<*>`, ...), soft-state table declarations, `delete`
//! rules, periodic event streams, and ring-interval tests (`K in (N,S]`).
//!
//! This crate contains the front half of P2: the lexer ([`lexer`]), parser
//! ([`parser`]), abstract syntax tree ([`ast`]), a semantic validator
//! ([`validate`](mod@validate)) that enforces the restrictions of the 2005
//! planner (collocated rule bodies, stream/table equijoins, safe head
//! variables), a pretty-printer ([`pretty`]) used for round-trip testing
//! and debugging, and a whole-program static analyzer
//! ([`analyze`](mod@analyze)) that stratifies the predicate dependency
//! graph, infers schemas, tracks soft-state lifetime flow, and classifies
//! every rule's delta-safety ([`RuleClass`]) for the planner. Compilation
//! of validated programs into dataflow graphs lives in the `p2-core` crate.

pub mod analyze;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod validate;

pub use analyze::{analyze, Analysis, Diagnostic, RuleClass, Severity};
pub use ast::{
    AggSpec, BodyTerm, Expr, Fact, Head, HeadArg, Lifetime, Materialize, Predicate, Program, Rule,
    SizeBound, Span,
};
pub use error::ParseError;
pub use parser::parse_program;
pub use validate::{validate, ValidationError};

/// Parses and validates an OverLog program in one step.
///
/// This is the entry point most callers want: it accepts the textual
/// specification (e.g. the Chord program from Appendix B of the paper) and
/// returns an AST that the planner can compile, or the first error
/// encountered.
pub fn compile_checked(source: &str) -> Result<Program, error::OverlogError> {
    let program = parse_program(source).map_err(error::OverlogError::Parse)?;
    validate(&program).map_err(error::OverlogError::Validation)?;
    Ok(program)
}

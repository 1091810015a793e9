//! Semantic validation of OverLog programs.
//!
//! The 2005 P2 planner supports a constrained subset of OverLog: rule bodies
//! must be collocated at a single node, joins are between one event stream
//! and materialized tables, negation is only available against tables, and
//! heads may carry at most one aggregate. This module checks those
//! restrictions ahead of planning, plus standard Datalog safety (every head
//! variable must be bound in the body).

use std::collections::{HashMap, HashSet};
use std::fmt;

use p2_pel::Builtin;

use crate::ast::{BodyTerm, Expr, Fact, HeadArg, Materialize, Program, Rule, Span};

/// A single validation problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Issue {
    /// The rule (or fact) identifier the problem was found in, if any.
    pub rule: Option<String>,
    /// Source position of the offending clause, when the AST carries one.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.span.is_unknown() {
            write!(f, "{}: ", self.span)?;
        }
        match &self.rule {
            Some(r) => write!(f, "rule {r}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

/// All problems found in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Individual issues, in source order.
    pub issues: Vec<Issue>,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} validation issue(s):", self.issues.len())?;
        for issue in &self.issues {
            write!(f, "\n  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidationError {}

/// Validates a parsed program against the planner's restrictions.
pub fn validate(program: &Program) -> Result<(), ValidationError> {
    let mut issues = Vec::new();

    // --- Duplicate rule identifiers: two rules sharing an id make
    // diagnostics and plan element names ambiguous.
    let mut seen_ids: HashMap<&str, Span> = HashMap::new();
    for rule in &program.rules {
        if let Some(first) = seen_ids.get(rule.id.as_str()) {
            issues.push(Issue {
                rule: Some(rule.id.clone()),
                span: rule.span,
                message: format!("duplicate rule id `{}` (first defined at {first})", rule.id),
            });
        } else {
            seen_ids.insert(&rule.id, rule.span);
        }
    }

    // --- Conflicting declarations: a repeated `materialize` must repeat
    // the spec; the planner declares one table per name.
    let mut declared: HashMap<&str, &Materialize> = HashMap::new();
    for m in &program.materializations {
        match declared.get(m.name.as_str()) {
            Some(first) if first.to_spec() != m.to_spec() => issues.push(Issue {
                rule: None,
                span: m.span,
                message: format!(
                    "table `{}` is materialized again with a different spec (first declared at {})",
                    m.name, first.span
                ),
            }),
            Some(_) => {}
            None => {
                declared.insert(&m.name, m);
            }
        }
    }

    for fact in &program.facts {
        check_fact(fact, &mut issues);
    }
    for rule in &program.rules {
        check_rule(program, rule, &mut issues);
    }

    if issues.is_empty() {
        Ok(())
    } else {
        Err(ValidationError { issues })
    }
}

fn issue(issues: &mut Vec<Issue>, rule: Option<&str>, span: Span, message: impl Into<String>) {
    issues.push(Issue {
        rule: rule.map(str::to_string),
        span,
        message: message.into(),
    });
}

fn check_fact(fact: &Fact, issues: &mut Vec<Issue>) {
    for arg in &fact.args {
        match arg {
            Expr::Const(_) => {}
            Expr::Var(v) if Some(v) == fact.location.as_ref() => {}
            other => issue(
                issues,
                fact.id.as_deref(),
                fact.span,
                format!(
                    "fact `{}` arguments must be constants or the location variable, found {other:?}",
                    fact.name
                ),
            ),
        }
    }
}

fn check_rule(program: &Program, rule: &Rule, issues: &mut Vec<Issue>) {
    let id = Some(rule.id.as_str());
    let span = rule.span;
    let positives = rule.positive_predicates();

    if positives.is_empty() {
        issue(
            issues,
            id,
            span,
            "rule body must contain at least one positive predicate",
        );
        return;
    }

    // --- Collocation: all body predicates must name the same location.
    let distinct: HashSet<&str> = positives
        .iter()
        .chain(rule.negated_predicates().iter())
        .filter_map(|p| p.location.as_deref())
        .collect();
    if distinct.len() > 1 {
        issue(
            issues,
            id,
            span,
            format!(
                "rule body is not collocated: location specifiers {:?} refer to more than one node \
                 (the 2005 planner requires localized rewrites; see Appendix A of the paper)",
                distinct
            ),
        );
    }

    // --- Collect bound variables: predicate arguments bind variables.
    let mut bound: HashSet<String> = HashSet::new();
    for p in &positives {
        for (v, _) in p.variable_bindings() {
            bound.insert(v);
        }
    }

    // Assignments bind their target once their inputs are bound; iterate to a
    // fixpoint to accommodate arbitrary source order (rule order is
    // immaterial in OverLog).
    let assignments: Vec<(&String, &Expr)> = rule
        .body
        .iter()
        .filter_map(|t| match t {
            BodyTerm::Assign { var, expr } => Some((var, expr)),
            _ => None,
        })
        .collect();
    let mut progress = true;
    let mut satisfied: HashSet<usize> = HashSet::new();
    while progress {
        progress = false;
        for (i, (var, expr)) in assignments.iter().enumerate() {
            if satisfied.contains(&i) {
                continue;
            }
            if expr.variables().iter().all(|v| bound.contains(v)) {
                bound.insert((*var).clone());
                satisfied.insert(i);
                progress = true;
            }
        }
    }
    for (i, (var, _)) in assignments.iter().enumerate() {
        if !satisfied.contains(&i) {
            issue(
                issues,
                id,
                span,
                format!("assignment to `{var}` references unbound variables (or is circular)"),
            );
        }
    }

    // --- Conditions may only use bound variables.
    for term in &rule.body {
        if let BodyTerm::Condition(expr) = term {
            for v in expr.variables() {
                if !bound.contains(&v) {
                    issue(
                        issues,
                        id,
                        span,
                        format!("condition references unbound variable `{v}`"),
                    );
                }
            }
        }
    }

    // --- Negated predicates: only over materialized tables, and their
    // variables must be bound by the positive part (safe negation).
    for p in rule.negated_predicates() {
        if !program.is_materialized(&p.name) {
            issue(
                issues,
                id,
                span,
                format!(
                    "negation over `{}` requires it to be a materialized table",
                    p.name
                ),
            );
        }
        for (v, _) in p.variable_bindings() {
            if !bound.contains(&v) {
                issue(
                    issues,
                    id,
                    span,
                    format!("negated predicate `{}` uses unbound variable `{v}`", p.name),
                );
            }
        }
    }

    // --- Head safety.
    let mut agg_count = 0usize;
    for arg in &rule.head.args {
        match arg {
            HeadArg::Expr(e) => {
                for v in e.variables() {
                    if !bound.contains(&v) {
                        issue(
                            issues,
                            id,
                            span,
                            format!("head variable `{v}` is not bound in the rule body"),
                        );
                    }
                }
            }
            HeadArg::Agg(a) => {
                agg_count += 1;
                if let Some(v) = &a.var {
                    if !bound.contains(v) {
                        issue(
                            issues,
                            id,
                            span,
                            format!("aggregate variable `{v}` is not bound in the rule body"),
                        );
                    }
                }
            }
        }
    }
    if agg_count > 1 {
        issue(
            issues,
            id,
            span,
            "at most one aggregate is supported per rule head",
        );
    }
    if let Some(loc) = &rule.head.location {
        if !bound.contains(loc) {
            issue(
                issues,
                id,
                span,
                format!("head location variable `{loc}` is not bound in the rule body"),
            );
        }
    }

    // --- Built-in functions must exist.
    for term in &rule.body {
        let exprs: Vec<&Expr> = match term {
            BodyTerm::Assign { expr, .. } => vec![expr],
            BodyTerm::Condition(expr) => vec![expr],
            BodyTerm::Predicate(p) => p.args.iter().collect(),
        };
        for e in exprs {
            check_builtins(e, id, span, issues);
        }
    }
    for arg in &rule.head.args {
        if let HeadArg::Expr(e) = arg {
            check_builtins(e, id, span, issues);
        }
    }
}

fn check_builtins(expr: &Expr, rule: Option<&str>, span: Span, issues: &mut Vec<Issue>) {
    match expr {
        Expr::Call { name, args, .. } => {
            match Builtin::from_name(name) {
                None => issue(
                    issues,
                    rule,
                    span,
                    format!("unknown built-in function `{name}`"),
                ),
                Some(b) if b.arity() != args.len() => issue(
                    issues,
                    rule,
                    span,
                    format!(
                        "built-in `{name}` expects {} argument(s), got {}",
                        b.arity(),
                        args.len()
                    ),
                ),
                Some(_) => {}
            }
            for a in args {
                check_builtins(a, rule, span, issues);
            }
        }
        Expr::Unary { expr, .. } => check_builtins(expr, rule, span, issues),
        Expr::Binary { lhs, rhs, .. } => {
            check_builtins(lhs, rule, span, issues);
            check_builtins(rhs, rule, span, issues);
        }
        Expr::Range {
            value, low, high, ..
        } => {
            check_builtins(value, rule, span, issues);
            check_builtins(low, rule, span, issues);
            check_builtins(high, rule, span, issues);
        }
        Expr::Var(_) | Expr::Wildcard | Expr::Const(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<(), ValidationError> {
        validate(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_well_formed_rules() {
        let src = r#"
            materialize(succ, 10, 100, keys(2)).
            materialize(node, infinity, 1, keys(1)).
            N1 succEvent@NI(NI,S,SI) :- succ@NI(NI,S,SI).
            N2 succDist@NI(NI,S,D) :- node@NI(NI,N), succEvent@NI(NI,S,SI), D := S - N - 1.
            L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
               bestSucc@NI(NI,S,SI), K in (N,S].
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn rejects_a_conflicting_repeated_materialize() {
        let err = check(
            r#"
            materialize(foo, infinity, infinity, keys(1)).
            materialize(foo, 5, 1, keys(1,2)).
            R1 out@X(X, Y) :- foo@X(X, Y).
        "#,
        )
        .unwrap_err();
        assert_eq!(err.issues.len(), 1);
        let issue = &err.issues[0];
        assert!(issue.message.contains("`foo`"), "{err}");
        assert_eq!(issue.span.line, 3, "the second declaration: {err}");
    }

    #[test]
    fn accepts_an_identical_repeated_materialize() {
        let src = r#"
            materialize(foo, 5, 1, keys(1,2)).
            materialize(foo, 5, 1, keys(1,2)).
            R1 out@X(X, Y) :- foo@X(X, Y).
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn rejects_unbound_head_variable() {
        let err = check("R1 out@X(X, Z) :- trigger@X(X, Y).").unwrap_err();
        assert!(err.to_string().contains('Z'), "{err}");
    }

    #[test]
    fn rejects_non_collocated_body() {
        let err =
            check("R4 member@Y(Y, A) :- refreshSeq@X(X, S), member@X(X, A), neighbor@Y(Y, X).")
                .unwrap_err();
        assert!(err.to_string().contains("collocated"), "{err}");
    }

    #[test]
    fn rejects_negation_over_streams() {
        let err = check("R1 out@X(X, Y) :- trigger@X(X, Y), not ghost@X(X, Y).").unwrap_err();
        assert!(err.to_string().contains("materialized"), "{err}");
    }

    #[test]
    fn accepts_negation_over_tables() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 out@X(X, Y) :- trigger@X(X, Y), not member@X(X, Y).
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn rejects_unknown_builtin_and_bad_arity() {
        let err = check("R1 out@X(X, T) :- trigger@X(X), T := f_bogus().").unwrap_err();
        assert!(err.to_string().contains("f_bogus"), "{err}");
        let err = check("R1 out@X(X, T) :- trigger@X(X), T := f_now(3).").unwrap_err();
        assert!(err.to_string().contains("argument"), "{err}");
    }

    #[test]
    fn rejects_circular_assignments() {
        let err = check("R1 out@X(X, A) :- trigger@X(X), A := B + 1, B := A + 1.").unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
    }

    #[test]
    fn rejects_multiple_aggregates() {
        let err = check("R1 out@X(X, min<A>, max<B>) :- trigger@X(X, A, B).").unwrap_err();
        assert!(err.to_string().contains("one aggregate"), "{err}");
    }

    #[test]
    fn rejects_rule_without_positive_predicate() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 out@X(X) :- not member@X(X, Y).
        "#;
        let err = check(src).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn rejects_bad_facts() {
        let err = check("F0 nextFingerFix@NI(NI, K).").unwrap_err();
        assert!(err.to_string().contains("constants"), "{err}");
        assert!(check("F0 nextFingerFix@NI(NI, 0).").is_ok());
    }

    #[test]
    fn rejects_unbound_condition_variable() {
        let err = check("R1 out@X(X) :- trigger@X(X), Y > 3.").unwrap_err();
        assert!(err.to_string().contains("unbound variable `Y`"), "{err}");
    }

    #[test]
    fn error_display_lists_rule_ids() {
        let err = check("R9 out@X(X, Z) :- trigger@X(X).").unwrap_err();
        assert!(err.to_string().contains("R9"));
    }

    #[test]
    fn rejects_duplicate_rule_ids() {
        let src = r#"
            R1 out@X(X, Y) :- trigger@X(X, Y).
            R1 other@X(X, Y) :- trigger@X(X, Y).
        "#;
        let err = check(src).unwrap_err();
        assert!(err.to_string().contains("duplicate rule id `R1`"), "{err}");
    }

    #[test]
    fn issues_carry_source_spans() {
        let src = "\n\nR9 out@X(X, Z) :- trigger@X(X).";
        let err = check(src).unwrap_err();
        let issue = &err.issues[0];
        assert_eq!(issue.span.line, 3, "{issue}");
        assert!(err.to_string().contains("3:"), "{err}");
    }
}

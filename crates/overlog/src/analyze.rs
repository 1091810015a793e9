//! Whole-program static analysis of OverLog programs.
//!
//! [`validate`](fn@crate::validate) checks each clause in isolation; this module
//! looks at the program as a whole. [`analyze`] builds the **predicate
//! dependency graph** across every rule, fact, and `materialize` declaration
//! and derives four results from it:
//!
//! 1. **Stratification.** Rules are nodes in a trigger graph: an edge runs
//!    from a body predicate to the head whenever a new tuple of the body
//!    predicate *re-fires* the rule locally — the event stream of a
//!    stream-triggered rule, every table of an all-table delta rule, the
//!    aggregated table of a `TableAgg` rule. Probed tables do not cascade,
//!    and heads shipped to a *different* location variable are deferred
//!    through the network, so neither contributes an edge. Strongly
//!    connected components of this graph are the program's strata; a
//!    component that closes a cycle through negation is rejected
//!    (unstratifiable), a cycle through aggregation is rejected unless a
//!    materialized table inside the component bounds it (soft-state-sustained
//!    recursion, e.g. Chord's successor-eviction loop, is reported as a
//!    note), and recursion purely through event streams earns a warning
//!    (an unguarded stream loop never terminates) or a note when every rule
//!    on the cycle carries a selection guard.
//!
//! 2. **Schema inference.** Every use of a predicate — declaration, fact,
//!    rule head, body literal — votes on its arity and on the argument
//!    position that carries the location specifier. Disagreements are
//!    errors, as are primary-key positions past the inferred arity.  A body
//!    predicate that is neither materialized, derived by some head, seeded
//!    by a fact, nor external (`periodic`) is almost always a typo that
//!    silently becomes a never-firing event stream, and is flagged.
//!
//! 3. **Lifetime flow.** Deriving from short-lived soft state into a
//!    longer-lived table defeats the paper's TTL-as-garbage-collection
//!    design: the derived row outlives every fact that justified it. A rule
//!    whose head table outlives *all* of its materialized sources gets a
//!    warning (delete rules and aggregates are maintained continuously and
//!    are exempt; an infinity-lifetime source justifies any head).
//!
//! 4. **Delta-safety classification.** Every rule is labelled with a
//!    [`RuleClass`]:
//!
//!    * `deterministic` — no `f_rand`/`f_coinFlip`; same inputs, same
//!      outputs. (A nondeterministic rule still plans to a strand like any
//!      other: it draws once per row, in lookup order, so a seed fixes its
//!      draws.)
//!    * `pure` — deterministic and no `f_now`; output depends only on the
//!      joined tuples, so derivations could be replayed at any time.
//!      Prerequisite of `refresh_transparent`.
//!    * `monotone` — no negation, no deletion, no aggregation; new inputs
//!      can only add outputs, never retract them.
//!    * `refresh_transparent` — pure, and every finite-lifetime
//!      materialized body predicate is read only at its primary-key
//!      positions (the location argument is exempt: body locations are
//!      pinned to the local address). A keyed soft-state *refresh*
//!      (same key, new TTL) can then never change the rule's output: its
//!      re-evaluation on a refresh is a wasted poke by construction.
//!
//! The planner makes no decision on `RuleClass`: it stamps it on every
//! element for the profiler's per-class buckets;
//! `olg_lint` surfaces the diagnostics with source spans in human-readable
//! and JSON form.
//!
//! The pass is **total**: it never fails, it only reports. Run
//! [`validate`](crate::validate::validate) first for per-clause safety
//! errors; `analyze` assumes nothing about its input beyond a parsed AST.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use p2_pel::Builtin;

use crate::ast::{BodyTerm, Expr, HeadArg, Lifetime, Predicate, Program, Rule, Span};

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: something worth knowing, never a rejection.
    Note,
    /// Probably a mistake; rejected under `--deny-warnings`.
    Warning,
    /// The program is wrong; always a rejection.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `strat-negation`.
    pub code: &'static str,
    /// The rule id the finding is anchored to, if any.
    pub rule: Option<String>,
    /// Source position (line/column of the offending clause).
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.span.is_unknown() {
            write!(f, "{}: ", self.span)?;
        }
        write!(f, "{}[{}]: ", self.severity, self.code)?;
        if let Some(r) = &self.rule {
            write!(f, "rule {r}: ")?;
        }
        write!(f, "{}", self.message)
    }
}

/// Delta-safety classification of one rule (see the module docs for the
/// taxonomy). `pure` implies `deterministic`; `refresh_transparent`
/// implies `pure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleClass {
    /// No `f_rand`/`f_coinFlip` anywhere in the rule.
    pub deterministic: bool,
    /// Deterministic and no `f_now`: replayable at delta time.
    pub pure: bool,
    /// No negation, no `delete`, no head aggregate.
    pub monotone: bool,
    /// Pure, and keyed soft-state refreshes cannot change the output.
    pub refresh_transparent: bool,
}

impl fmt::Display for RuleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut tags: Vec<&str> = Vec::new();
        if self.pure {
            tags.push("pure");
        } else if self.deterministic {
            tags.push("deterministic");
        } else {
            tags.push("nondeterministic");
        }
        if !self.pure && self.deterministic {
            tags.push("time-dependent");
        }
        if self.monotone {
            tags.push("monotone");
        }
        if self.refresh_transparent {
            tags.push("refresh-transparent");
        }
        write!(f, "{}", tags.join("+"))
    }
}

/// Why an edge exists in the predicate dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// An event-stream trigger re-fires the rule.
    Trigger,
    /// A table delta re-fires an all-table rule.
    Delta,
    /// The aggregated table of an incrementally maintained aggregate.
    Aggregate,
    /// The head depends on the *absence* of tuples in this predicate.
    Negation,
}

/// One edge of the predicate dependency graph: a new `from` tuple can
/// change `to`, via `rule`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Source predicate.
    pub from: String,
    /// Head predicate.
    pub to: String,
    /// Why the edge exists.
    pub kind: EdgeKind,
    /// The rule that contributes the edge.
    pub rule: String,
}

/// What the analyzer inferred about one predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredicateInfo {
    /// Inferred arity (first use wins; disagreements are diagnosed).
    pub arity: Option<usize>,
    /// Argument position carrying the location specifier, when one is
    /// syntactically identifiable.
    pub location_position: Option<usize>,
    /// Declared via `materialize`.
    pub materialized: bool,
    /// Appears as some rule head.
    pub derived: bool,
    /// Seeded by a ground fact.
    pub seeded: bool,
    /// External input (`periodic`).
    pub external: bool,
}

/// The result of [`analyze`]: diagnostics plus the artifacts downstream
/// consumers (planner, profiler, lint) build on.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// All findings, roughly in source order per pass.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule classification, parallel to `program.rules` (rule ids may
    /// collide in erroneous programs, so position is the key).
    pub rule_classes: Vec<RuleClass>,
    /// The predicate dependency graph, sorted for stable comparison.
    pub edges: Vec<Edge>,
    /// Per-predicate inferred schema.
    pub predicates: BTreeMap<String, PredicateInfo>,
}

impl Analysis {
    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether any diagnostic is at least a [`Severity::Warning`].
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warning)
    }

    /// The classification of the rule at `index` in the program's rule
    /// list.
    pub fn class_of(&self, index: usize) -> RuleClass {
        self.rule_classes[index]
    }
}

/// Runs the whole-program analysis. Total: always returns an [`Analysis`],
/// never fails, even on programs that [`validate`](crate::validate::validate)
/// rejects.
pub fn analyze(program: &Program) -> Analysis {
    let mut cx = Context::new(program);
    cx.infer_schemas();
    cx.classify_rules();
    cx.build_graph();
    cx.stratify();
    cx.check_lifetimes();
    cx.edges.sort();
    Analysis {
        diagnostics: cx.diagnostics,
        rule_classes: cx.rule_classes,
        edges: cx.edges,
        predicates: cx.predicates,
    }
}

struct Context<'a> {
    program: &'a Program,
    /// A program with no `materialize` statements is a *fragment* meant to
    /// be merged into a larger program (e.g. `chord_join_seed.olg`): its
    /// body predicates are declared elsewhere, so undeclared-predicate
    /// findings demote to notes and planner-shape restrictions are skipped.
    fragment: bool,
    diagnostics: Vec<Diagnostic>,
    rule_classes: Vec<RuleClass>,
    edges: Vec<Edge>,
    predicates: BTreeMap<String, PredicateInfo>,
}

impl<'a> Context<'a> {
    fn new(program: &'a Program) -> Context<'a> {
        Context {
            program,
            fragment: program.materializations.is_empty(),
            diagnostics: Vec::new(),
            rule_classes: Vec::new(),
            edges: Vec::new(),
            predicates: BTreeMap::new(),
        }
    }

    fn push(
        &mut self,
        severity: Severity,
        code: &'static str,
        rule: Option<&str>,
        span: Span,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            severity,
            code,
            rule: rule.map(str::to_string),
            span,
            message: message.into(),
        });
    }

    // --- Schema inference -------------------------------------------------

    fn infer_schemas(&mut self) {
        // Duplicate rule ids: the dependency graph and the per-rule class
        // table key rules by id for reporting; collisions poison both.
        let mut seen: HashMap<&str, Span> = HashMap::new();
        let rules = &self.program.rules;
        let mut dups = Vec::new();
        for rule in rules {
            if let Some(first) = seen.get(rule.id.as_str()) {
                dups.push((rule.id.clone(), rule.span, *first));
            } else {
                seen.insert(&rule.id, rule.span);
            }
        }
        for (id, span, first) in dups {
            self.push(
                Severity::Error,
                "schema-dup-rule-id",
                Some(&id),
                span,
                format!("duplicate rule id `{id}` (first defined at {first})"),
            );
        }

        for m in &self.program.materializations {
            let entry = self.predicates.entry(m.name.clone()).or_default();
            entry.materialized = true;
        }
        // periodic is the planner-injected external clock stream.
        self.predicates
            .entry("periodic".into())
            .or_default()
            .external = true;

        // Each use votes on arity and location position:
        // (predicate, arity, location position, anchoring rule/fact id, span).
        type Vote = (String, usize, Option<usize>, Option<String>, Span);
        let mut votes: Vec<Vote> = Vec::new();
        for fact in &self.program.facts {
            let loc_pos = fact.args.iter().position(|a| match a {
                Expr::Var(v) => Some(v) == fact.location.as_ref(),
                _ => false,
            });
            self.predicates.entry(fact.name.clone()).or_default().seeded = true;
            votes.push((
                fact.name.clone(),
                fact.args.len(),
                loc_pos,
                fact.id.clone(),
                fact.span,
            ));
        }
        for rule in &self.program.rules {
            let head = &rule.head;
            let loc_pos = head.args.iter().position(|a| match a {
                HeadArg::Expr(Expr::Var(v)) => Some(v) == head.location.as_ref(),
                HeadArg::Agg(agg) => {
                    agg.var.as_ref() == head.location.as_ref() && agg.var.is_some()
                }
                _ => false,
            });
            self.predicates
                .entry(head.name.clone())
                .or_default()
                .derived = true;
            votes.push((
                head.name.clone(),
                head.args.len(),
                loc_pos,
                Some(rule.id.clone()),
                rule.span,
            ));
            for p in rule
                .positive_predicates()
                .into_iter()
                .chain(rule.negated_predicates())
            {
                let loc_pos = p.args.iter().position(|a| match a {
                    Expr::Var(v) => Some(v) == p.location.as_ref(),
                    _ => false,
                });
                votes.push((
                    p.name.clone(),
                    p.args.len(),
                    loc_pos,
                    Some(rule.id.clone()),
                    rule.span,
                ));
            }
        }

        for (name, arity, loc_pos, rule, span) in votes {
            // `periodic(@NI, E, Period, ...)` carries planner-interpreted
            // trailing arguments; arity is intentionally variable, but
            // fewer than three arguments cannot name a period.
            if name == "periodic" {
                if arity < 3 {
                    self.push(
                        Severity::Error,
                        "schema-periodic-arity",
                        rule.as_deref(),
                        span,
                        format!(
                            "`periodic` needs at least 3 arguments (location, id, period), found {arity}"
                        ),
                    );
                }
                continue;
            }
            let info = self.predicates.entry(name.clone()).or_default();
            match info.arity {
                None => info.arity = Some(arity),
                Some(a) if a != arity => {
                    let msg = format!(
                        "predicate `{name}` used with {arity} argument(s) here but {a} elsewhere"
                    );
                    self.push(Severity::Error, "schema-arity", rule.as_deref(), span, msg);
                }
                Some(_) => {}
            }
            if let Some(pos) = loc_pos {
                let info = self.predicates.entry(name.clone()).or_default();
                match info.location_position {
                    None => info.location_position = Some(pos),
                    Some(p) if p != pos => {
                        let msg = format!(
                            "predicate `{name}` carries its location specifier at argument {} here \
                             but at argument {} elsewhere",
                            pos + 1,
                            p + 1
                        );
                        self.push(
                            Severity::Error,
                            "schema-location",
                            rule.as_deref(),
                            span,
                            msg,
                        );
                    }
                    Some(_) => {}
                }
            }
        }

        // Primary keys must address existing columns.
        for m in &self.program.materializations {
            if let Some(arity) = self.predicates.get(&m.name).and_then(|i| i.arity) {
                for &k in &m.keys {
                    if k > arity {
                        self.push(
                            Severity::Error,
                            "schema-key-bounds",
                            None,
                            m.span,
                            format!(
                                "materialize({}): key position {k} exceeds the table's arity {arity}",
                                m.name
                            ),
                        );
                    }
                }
            }
        }

        // The silent-typo hazard: a body predicate nobody declares, derives,
        // or seeds is an event stream that can never fire.
        let undeclared_severity = if self.fragment {
            Severity::Note
        } else {
            Severity::Warning
        };
        for rule in &self.program.rules {
            for p in rule
                .positive_predicates()
                .into_iter()
                .chain(rule.negated_predicates())
            {
                let known = self
                    .predicates
                    .get(&p.name)
                    .map(|i| i.materialized || i.derived || i.seeded || i.external)
                    .unwrap_or(false);
                if !known {
                    self.push(
                        undeclared_severity,
                        "schema-undeclared",
                        Some(&rule.id),
                        rule.span,
                        format!(
                            "body predicate `{}` is neither declared (materialize), derived by a \
                             rule, seeded by a fact, nor external — it can never fire",
                            p.name
                        ),
                    );
                }
            }
        }
    }

    // --- Delta-safety classification --------------------------------------

    fn classify_rules(&mut self) {
        for rule in &self.program.rules {
            let class = classify_rule(self.program, rule);
            self.rule_classes.push(class);
        }
    }

    // --- Dependency graph -------------------------------------------------

    /// Mirrors the planner's trigger selection (`Builder::plan_rule`): the
    /// edges recorded here are exactly the tuples whose arrival re-runs the
    /// rule *on the same node*. Heads addressed to a different location
    /// variable are shipped through the network (deferred), which breaks
    /// synchronous cascades, so they contribute no edge.
    fn build_graph(&mut self) {
        for rule in &self.program.rules {
            let positives = rule.positive_predicates();
            let periodics: Vec<&&Predicate> =
                positives.iter().filter(|p| p.name == "periodic").collect();
            let streams: Vec<&&Predicate> = positives
                .iter()
                .filter(|p| p.name != "periodic" && !self.program.is_materialized(&p.name))
                .collect();
            let tables: Vec<&&Predicate> = positives
                .iter()
                .filter(|p| p.name != "periodic" && self.program.is_materialized(&p.name))
                .collect();

            // Planner shape restrictions, surfaced early with spans. A
            // fragment's undeclared predicates all parse as streams, so the
            // stream-join shape is unknowable there.
            if !self.fragment {
                if streams.len() > 1 || (!periodics.is_empty() && !streams.is_empty()) {
                    self.push(
                        Severity::Error,
                        "plan-stream-join",
                        Some(&rule.id),
                        rule.span,
                        "stream-stream joins are not supported (the 2005 planner joins one \
                         event stream with materialized tables); materialize one of the streams",
                    );
                }
                if periodics.is_empty()
                    && streams.is_empty()
                    && rule.has_aggregate()
                    && tables.len() != 1
                {
                    self.push(
                        Severity::Error,
                        "plan-agg-shape",
                        Some(&rule.id),
                        rule.span,
                        "a materialized aggregate must range over exactly one table",
                    );
                }
            }

            // Local delivery only: the head must land on the same location
            // variable the (collocated) body is bound to.
            let body_loc = positives.iter().find_map(|p| p.location.as_deref());
            let local = match (&rule.head.location, body_loc) {
                (Some(h), Some(b)) => h == b,
                _ => true, // no specifiers: conservatively assume local
            };
            if !local {
                continue;
            }

            let head = rule.head.name.clone();
            if !periodics.is_empty() {
                // External clock: no incoming edge.
            } else if let Some(stream) = streams.first() {
                // A stream-triggered rule may still aggregate in its head
                // (e.g. Chord S3); the cycle is then "through aggregation"
                // no matter what fires it.
                let kind = if rule.has_aggregate() {
                    EdgeKind::Aggregate
                } else {
                    EdgeKind::Trigger
                };
                self.edge(&stream.name, &head, kind, &rule.id);
            } else if rule.has_aggregate() {
                // Materialized TableAgg: any change to the aggregated
                // table re-fires the rule.
                for t in &tables {
                    self.edge(&t.name, &head, EdgeKind::Aggregate, &rule.id);
                }
            } else {
                for t in &tables {
                    self.edge(&t.name, &head, EdgeKind::Delta, &rule.id);
                }
            }
            // Negation: the head depends non-monotonically on these tables.
            // The runtime does not cascade deletions through anti-joins, but
            // a derivation cycle through `not` has no stratified meaning at
            // all, so the edges participate in stratification.
            for n in rule.negated_predicates() {
                self.edge(&n.name, &head, EdgeKind::Negation, &rule.id);
            }
        }
    }

    fn edge(&mut self, from: &str, to: &str, kind: EdgeKind, rule: &str) {
        self.edges.push(Edge {
            from: from.to_string(),
            to: to.to_string(),
            kind,
            rule: rule.to_string(),
        });
    }

    // --- Stratification ---------------------------------------------------

    fn stratify(&mut self) {
        // Tarjan-free SCC via Kosaraju on the (small) predicate graph.
        let mut names: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for e in &self.edges {
            for n in [e.from.as_str(), e.to.as_str()] {
                if !index.contains_key(n) {
                    index.insert(n, names.len());
                    names.push(n);
                }
            }
        }
        let n = names.len();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            let (a, b) = (index[e.from.as_str()], index[e.to.as_str()]);
            fwd[a].push(b);
            rev[b].push(a);
        }
        // First pass: finish order.
        let mut visited = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for start in 0..n {
            if visited[start] {
                continue;
            }
            // Iterative DFS with an explicit done-marker.
            let mut stack = vec![(start, false)];
            while let Some((v, done)) = stack.pop() {
                if done {
                    order.push(v);
                    continue;
                }
                if visited[v] {
                    continue;
                }
                visited[v] = true;
                stack.push((v, true));
                for &w in &fwd[v] {
                    if !visited[w] {
                        stack.push((w, false));
                    }
                }
            }
        }
        // Second pass: components on the reversed graph.
        let mut comp = vec![usize::MAX; n];
        let mut ncomp = 0;
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = ncomp;
            while let Some(v) = stack.pop() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = ncomp;
                        stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }

        // Collect, per component, the internal edges (both endpoints inside).
        let mut pending: Vec<(Severity, &'static str, Option<String>, Span, String)> = Vec::new();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
        for (v, &c) in comp.iter().enumerate() {
            members[c].push(v);
        }
        for (c, group) in members.iter().enumerate() {
            let internal: Vec<&Edge> = self
                .edges
                .iter()
                .filter(|e| comp[index[e.from.as_str()]] == c && comp[index[e.to.as_str()]] == c)
                .collect();
            // A component is cyclic if it has >1 node, or a self-loop edge.
            let cyclic = group.len() > 1 || internal.iter().any(|e| e.from == e.to);
            if !cyclic {
                continue;
            }
            let mut preds: Vec<&str> = group.iter().map(|&v| names[v]).collect();
            preds.sort_unstable();
            let cycle_desc = preds.join(" -> ");
            let rule_ids: Vec<&str> = {
                let mut ids: Vec<&str> = internal.iter().map(|e| e.rule.as_str()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            let anchor = rule_ids
                .first()
                .and_then(|id| self.program.rule(id))
                .map(|r| (r.id.clone(), r.span));
            let (anchor_id, anchor_span) = match anchor {
                Some((id, span)) => (Some(id), span),
                None => (None, Span::default()),
            };

            let has_negation = internal.iter().any(|e| e.kind == EdgeKind::Negation);
            let has_aggregate = internal.iter().any(|e| e.kind == EdgeKind::Aggregate);
            let has_materialized = group
                .iter()
                .any(|&v| self.program.is_materialized(names[v]));
            // A rule "guards" its step of the cycle if it filters with
            // conditions (e.g. Chord F6's `K in (N, B]`), which can bottom
            // out the recursion.
            let all_guarded = rule_ids.iter().all(|id| {
                self.program
                    .rule(id)
                    .map(|r| r.body.iter().any(|t| matches!(t, BodyTerm::Condition(_))))
                    .unwrap_or(false)
            });

            let findings: Vec<(Severity, &'static str, String)> = if has_negation {
                vec![(
                    Severity::Error,
                    "strat-negation",
                    format!(
                        "unstratifiable: cycle through negation ({cycle_desc}; rules {})",
                        rule_ids.join(", ")
                    ),
                )]
            } else if has_aggregate {
                if has_materialized {
                    vec![(
                        Severity::Note,
                        "strat-agg-soft-state",
                        format!(
                            "soft-state-sustained aggregate recursion: {cycle_desc} closes a \
                             cycle through an aggregate, bounded by materialized state \
                             (rules {})",
                            rule_ids.join(", ")
                        ),
                    )]
                } else {
                    vec![(
                        Severity::Error,
                        "strat-aggregation",
                        format!(
                            "unstratifiable: cycle through aggregation with no materialized \
                             table to bound it ({cycle_desc}; rules {})",
                            rule_ids.join(", ")
                        ),
                    )]
                }
            } else if has_materialized || all_guarded {
                vec![(
                    Severity::Note,
                    "strat-guarded-recursion",
                    format!(
                        "recursion through {cycle_desc} (rules {}) is {}",
                        rule_ids.join(", "),
                        if has_materialized {
                            "bounded by materialized state"
                        } else {
                            "guarded by selection conditions"
                        }
                    ),
                )]
            } else {
                vec![(
                    Severity::Warning,
                    "strat-stream-recursion",
                    format!(
                        "unguarded recursion through event streams ({cycle_desc}; rules {}): \
                         nothing bounds this cascade",
                        rule_ids.join(", ")
                    ),
                )]
            };
            for (severity, code, message) in findings {
                pending.push((severity, code, anchor_id.clone(), anchor_span, message));
            }
        }
        for (severity, code, rule, span, message) in pending {
            self.push(severity, code, rule.as_deref(), span, message);
        }
    }

    // --- Lifetime flow ----------------------------------------------------

    fn check_lifetimes(&mut self) {
        for rule in &self.program.rules {
            if rule.delete || rule.has_aggregate() {
                // Deletions and incrementally maintained aggregates are
                // refreshed continuously; they do not pin stale state.
                continue;
            }
            let Some(head_m) = self.program.materialization(&rule.head.name) else {
                continue;
            };
            let sources: Vec<(&str, Lifetime)> = rule
                .positive_predicates()
                .iter()
                .filter_map(|p| {
                    self.program
                        .materialization(&p.name)
                        .map(|m| (p.name.as_str(), m.lifetime))
                })
                .collect();
            if sources.is_empty() {
                continue;
            }
            let head_secs = match head_m.lifetime {
                Lifetime::Infinity => f64::INFINITY,
                Lifetime::Secs(s) => s,
            };
            let max_source = sources
                .iter()
                .map(|(_, l)| match l {
                    Lifetime::Infinity => f64::INFINITY,
                    Lifetime::Secs(s) => *s,
                })
                .fold(f64::NEG_INFINITY, f64::max);
            if max_source < head_secs {
                let lifetimes: Vec<String> = sources
                    .iter()
                    .map(|(n, l)| match l {
                        Lifetime::Infinity => format!("{n}(infinity)"),
                        Lifetime::Secs(s) => format!("{n}({s}s)"),
                    })
                    .collect();
                let head_desc = match head_m.lifetime {
                    Lifetime::Infinity => "infinity".to_string(),
                    Lifetime::Secs(s) => format!("{s}s"),
                };
                self.push(
                    Severity::Warning,
                    "lifetime-flow",
                    Some(&rule.id),
                    rule.span,
                    format!(
                        "derived table `{}` (lifetime {head_desc}) outlives every source it is \
                         derived from ({}); rows will survive the soft state that justified them",
                        rule.head.name,
                        lifetimes.join(", ")
                    ),
                );
            }
        }
    }
}

/// Classifies one rule. Exposed for the planner, which consults the class
/// instead of re-deriving eligibility from compiled PEL stages.
fn classify_rule(program: &Program, rule: &Rule) -> RuleClass {
    let mut uses_random = false;
    let mut uses_time = false;
    visit_rule_exprs(rule, &mut |e| {
        if let Expr::Call { name, .. } = e {
            if let Some(b) = Builtin::from_name(name) {
                uses_random |= b.is_random();
                uses_time |= b.is_time();
            }
        }
    });
    let deterministic = !uses_random;
    let pure = deterministic && !uses_time;
    let monotone = !rule.delete && rule.negated_predicates().is_empty() && !rule.has_aggregate();
    let refresh_transparent = pure && refresh_transparent(program, rule);
    RuleClass {
        deterministic,
        pure,
        monotone,
        refresh_transparent,
    }
}

/// Whether a keyed refresh (same primary key, new TTL, possibly updated
/// non-key columns) of any finite-lifetime materialized body table can
/// change the rule's output. The rule is transparent when every such table
/// is *read* only at primary-key positions: a read is a constant match, a
/// join/repeat of a variable, or a variable consumed elsewhere in the rule;
/// a position holding a single-occurrence variable or wildcard is
/// projection-free dead weight. The location argument is exempt — body
/// locations are always the local address, which a refresh cannot change.
/// Infinite-lifetime tables never refresh, so they are exempt too.
fn refresh_transparent(program: &Program, rule: &Rule) -> bool {
    // Count every variable occurrence across the rule.
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut bump = |v: &str| *counts.entry(v.to_string()).or_insert(0) += 1;
    for p in rule
        .positive_predicates()
        .into_iter()
        .chain(rule.negated_predicates())
    {
        if let Some(l) = &p.location {
            bump(l);
        }
        for a in &p.args {
            for v in a.variables() {
                bump(&v);
            }
        }
    }
    if let Some(l) = &rule.head.location {
        bump(l);
    }
    for a in &rule.head.args {
        match a {
            HeadArg::Expr(e) => {
                for v in e.variables() {
                    bump(&v);
                }
            }
            HeadArg::Agg(agg) => {
                if let Some(v) = &agg.var {
                    bump(v);
                }
            }
        }
    }
    for t in &rule.body {
        match t {
            BodyTerm::Assign { expr, .. } | BodyTerm::Condition(expr) => {
                for v in expr.variables() {
                    bump(&v);
                }
            }
            BodyTerm::Predicate(_) => {}
        }
    }

    for p in rule.positive_predicates() {
        let Some(m) = program.materialization(&p.name) else {
            continue;
        };
        if m.lifetime == Lifetime::Infinity {
            continue;
        }
        let keys: HashSet<usize> = m.keys.iter().map(|k| k.saturating_sub(1)).collect();
        for (i, arg) in p.args.iter().enumerate() {
            let is_location = matches!(arg, Expr::Var(v) if Some(v) == p.location.as_ref());
            if is_location || keys.contains(&i) {
                continue;
            }
            let read = match arg {
                Expr::Wildcard => false,
                // The location occurrence bumped the count once; any var
                // with more than one occurrence is joined or consumed.
                Expr::Var(v) => counts.get(v.as_str()).copied().unwrap_or(0) > 1,
                _ => true, // constants and computed expressions filter rows
            };
            if read {
                return false;
            }
        }
    }
    true
}

/// Calls `f` on every expression in the rule, recursively.
fn visit_rule_exprs(rule: &Rule, f: &mut impl FnMut(&Expr)) {
    fn walk(e: &Expr, f: &mut impl FnMut(&Expr)) {
        f(e);
        match e {
            Expr::Call { args, .. } => {
                for a in args {
                    walk(a, f);
                }
            }
            Expr::Unary { expr, .. } => walk(expr, f),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, f);
                walk(rhs, f);
            }
            Expr::Range {
                value, low, high, ..
            } => {
                walk(value, f);
                walk(low, f);
                walk(high, f);
            }
            Expr::Var(_) | Expr::Wildcard | Expr::Const(_) => {}
        }
    }
    for t in &rule.body {
        match t {
            BodyTerm::Predicate(p) => {
                for a in &p.args {
                    walk(a, f);
                }
            }
            BodyTerm::Assign { expr, .. } | BodyTerm::Condition(expr) => walk(expr, f),
        }
    }
    for a in &rule.head.args {
        if let HeadArg::Expr(e) = a {
            walk(e, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str) -> Analysis {
        analyze(&parse_program(src).unwrap())
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let a = run(r#"
            materialize(node, infinity, 1, keys(1)).
            materialize(succ, 10, 100, keys(2)).
            N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
        "#);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.rule_classes.len(), 1);
        let c = a.rule_classes[0];
        assert!(c.pure && c.deterministic && c.monotone);
    }

    #[test]
    fn negation_cycle_is_an_error() {
        let a = run(r#"
            materialize(p, 10, 10, keys(1)).
            materialize(q, 10, 10, keys(1)).
            R1 p@X(X) :- tick@X(X), not q@X(X).
            R2 q@X(X) :- tock@X(X), not p@X(X).
            R3 tick@X(X) :- p@X(X).
            R4 tock@X(X) :- q@X(X).
        "#);
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == "strat-negation" && d.severity == Severity::Error),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn aggregate_cycle_over_streams_is_an_error() {
        let a = run(r#"
            materialize(seed, infinity, 1, keys(1)).
            A1 total@X(X, count<*>) :- ping@X(X, Y).
            A2 ping@X(X, C) :- total@X(X, C).
        "#);
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == "strat-aggregation" && d.severity == Severity::Error),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn aggregate_cycle_through_soft_state_is_a_note() {
        // Chord's eviction pattern in miniature: succ -> succCount -> evict
        // -> succ, sustained by the materialized tables on the cycle.
        let a = run(r#"
            materialize(succ, 10, 100, keys(2)).
            materialize(succCount, infinity, 1, keys(1)).
            C1 succCount@NI(NI, count<*>) :- succ@NI(NI, S).
            C2 evictSucc@NI(NI) :- succCount@NI(NI, C), C > 4.
            C3 delete succ@NI(NI, S) :- evictSucc@NI(NI), succ@NI(NI, S).
        "#);
        let notes: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == "strat-agg-soft-state")
            .collect();
        assert_eq!(notes.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(notes[0].severity, Severity::Note);
        assert!(!a.has_warnings());
    }

    #[test]
    fn unguarded_stream_recursion_warns_and_guards_demote() {
        let a = run(r#"
            materialize(seed, infinity, 1, keys(1)).
            R1 ping@X(X, Y) :- pong@X(X, Y).
            R2 pong@X(X, Y) :- ping@X(X, Y).
        "#);
        assert!(
            codes(&a).contains(&"strat-stream-recursion"),
            "{:?}",
            a.diagnostics
        );
        let a = run(r#"
            materialize(seed, infinity, 1, keys(1)).
            R1 ping@X(X, Y) :- pong@X(X, Y), Y > 0.
            R2 pong@X(X, Y) :- ping@X(X, Y), Y < 100.
        "#);
        assert!(
            codes(&a).contains(&"strat-guarded-recursion"),
            "{:?}",
            a.diagnostics
        );
        assert!(!a.has_warnings());
    }

    #[test]
    fn remote_heads_break_cycles() {
        // Same shape as the unguarded loop above, but each hop ships the
        // head to a different node: deferred delivery, no local cascade.
        let a = run(r#"
            materialize(seed, infinity, 1, keys(1)).
            R1 ping@Y(Y, X) :- pong@X(X, Y).
            R2 pong@Y(Y, X) :- ping@X(X, Y).
        "#);
        assert!(
            !codes(&a).iter().any(|c| c.starts_with("strat-")),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let a = run(r#"
            materialize(member, 120, 100, keys(2)).
            R1 out@X(X, Y) :- member@X(X, Y).
            R2 other@X(X) :- member@X(X, Y, Z).
        "#);
        assert!(codes(&a).contains(&"schema-arity"), "{:?}", a.diagnostics);
    }

    #[test]
    fn inconsistent_location_position_is_an_error() {
        let a = run(r#"
            materialize(member, 120, 100, keys(2)).
            R1 out@X(X, Y) :- member@X(X, Y).
            R2 out@X(Y, X) :- member@X(X, Y).
        "#);
        assert!(
            codes(&a).contains(&"schema-location"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn undeclared_body_predicate_warns() {
        let a = run(r#"
            materialize(member, 120, 100, keys(2)).
            R1 out@X(X, Y) :- membr@X(X, Y).
        "#);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == "schema-undeclared")
            .expect("undeclared diagnostic");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("membr"));
    }

    #[test]
    fn fragments_demote_undeclared_to_note() {
        // No materialize statements: this is a fragment to be merged.
        let a = run("JS1 join@NI(NI, E) :- joinEvent@NI(NI, E).");
        for d in &a.diagnostics {
            assert_eq!(d.severity, Severity::Note, "{d}");
        }
    }

    #[test]
    fn key_past_arity_is_an_error() {
        let a = run(r#"
            materialize(member, 120, 100, keys(5)).
            R1 out@X(X, Y) :- member@X(X, Y).
        "#);
        assert!(
            codes(&a).contains(&"schema-key-bounds"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn duplicate_rule_ids_are_an_error() {
        let a = run(r#"
            R1 out@X(X, Y) :- ping@X(X, Y).
            R1 out@X(X, Y) :- pong@X(X, Y).
        "#);
        assert!(
            codes(&a).contains(&"schema-dup-rule-id"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn lifetime_escalation_warns() {
        let a = run(r#"
            materialize(gossip, 10, 100, keys(2)).
            materialize(archive, infinity, infinity, keys(2)).
            R1 archive@X(X, Y) :- gossip@X(X, Y).
        "#);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == "lifetime-flow")
            .expect("lifetime diagnostic");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("archive"));
    }

    #[test]
    fn infinite_source_launders_lifetimes() {
        let a = run(r#"
            materialize(gossip, 10, 100, keys(2)).
            materialize(node, infinity, 1, keys(1)).
            materialize(archive, infinity, infinity, keys(2)).
            R1 archive@X(X, Y) :- gossip@X(X, Y), node@X(X).
        "#);
        assert!(!codes(&a).contains(&"lifetime-flow"), "{:?}", a.diagnostics);
    }

    #[test]
    fn classification_flags_builtins() {
        let a = run(r#"
            materialize(t, 10, 10, keys(1)).
            R1 out@X(X, R) :- ping@X(X), R := f_rand().
            R2 out@X(X, T) :- ping@X(X), T := f_now().
            R3 out@X(X, H) :- ping@X(X), H := f_sha1(X).
        "#);
        let [r1, r2, r3] = [a.rule_classes[0], a.rule_classes[1], a.rule_classes[2]];
        assert!(!r1.deterministic && !r1.pure);
        assert!(r2.deterministic && !r2.pure && !r2.refresh_transparent);
        assert!(r3.deterministic && r3.pure);
    }

    #[test]
    fn classification_monotonicity() {
        let a = run(r#"
            materialize(t, infinity, 10, keys(1)).
            R1 out@X(X) :- ping@X(X), not t@X(X).
            R2 out@X(X, count<*>) :- ping@X(X).
            R3 delete t@X(X) :- ping@X(X), t@X(X).
            R4 out@X(X) :- ping@X(X).
        "#);
        assert!(!a.rule_classes[0].monotone);
        assert!(!a.rule_classes[1].monotone);
        assert!(!a.rule_classes[2].monotone);
        assert!(a.rule_classes[3].monotone);
    }

    #[test]
    fn refresh_transparency_tracks_key_reads() {
        let a = run(r#"
            materialize(succ, 10, 100, keys(2)).
            R1 out@NI(NI, S) :- ping@NI(NI), succ@NI(NI, S, SI).
            R2 out@NI(NI, SI) :- ping@NI(NI), succ@NI(NI, S, SI).
        "#);
        // R1 reads succ at its key column (S, position 1 = keys(2)) plus the
        // exempt location; the don't-care SI is never consumed: transparent.
        assert!(
            a.rule_classes[0].refresh_transparent,
            "{:?}",
            a.rule_classes
        );
        // R2 projects the non-key column SI into its head: a refresh that
        // rewrites SI changes the output.
        assert!(
            !a.rule_classes[1].refresh_transparent,
            "{:?}",
            a.rule_classes
        );
    }

    #[test]
    fn analysis_is_total_on_invalid_programs() {
        // validate() rejects this (unbound head var), analyze still runs.
        let a = run("R1 out@X(X, Z) :- ping@X(X).");
        assert_eq!(a.rule_classes.len(), 1);
    }
}

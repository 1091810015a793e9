//! A naive reference evaluator for OverLog programs: the oracle the
//! planner's strands are checked against.
//!
//! It reads rules straight from the `p2_overlog` AST and keeps variables in
//! a map. A rule fires once per trigger tuple, as in P2: the trigger is the
//! rule's stream predicate, or, for a rule whose body is all tables, the
//! body occurrence of the table a row was just inserted into. Every other
//! positive table predicate is a nested loop over the table's rows in scan
//! order; negated predicates must match no row, unbound variables acting as
//! wildcards; assignments run once their variables are bound; conditions
//! must hold. Aggregates use P2's per-trigger witness semantics: the
//! aggregate ranges over the last non-trigger table of the body, `min`/`max`
//! take the first extremal row in scan order as the witness the head may
//! read, and `count`/`sum` emit 0 over no rows (with the aggregated table's
//! variables null). A rule whose body is one table and whose head
//! aggregates over it is maintained: each insert into or delete from the
//! table re-folds it and emits the groups whose value changed, a vanished
//! group emitting its empty value.
//!
//! Rows live in `p2_table::Table`s, so eviction and expiry are the storage
//! engine's. Expressions are evaluated by substituting bound values into a
//! PEL expression. Nothing here shares code with the planner's strand
//! analysis, its variable layout, or the strand element. Within one
//! delivery the evaluator processes derived tuples first in, first out;
//! test programs must not make the result depend on that order (a table
//! written and read by the same cascade), since the order is the engine's
//! business and is pinned elsewhere.

use std::collections::{BTreeMap, HashMap, VecDeque};

use p2_overlog::{BodyTerm, Expr as OExpr, HeadArg, Predicate, Program, Rule};
use p2_pel::{Builtin, EvalContext, Expr as PExpr, Program as PelProgram};
use p2_table::{AggFunc, Table};
use p2_value::{SimTime, Tuple, Value};

type Bindings = HashMap<String, Value>;

/// Tuples a call sends to other nodes, as `(destination, tuple)`.
pub type Sent = Vec<(String, Tuple)>;

/// One node of a program, evaluated naively.
pub struct RefNode {
    program: Program,
    addr: String,
    tables: HashMap<String, Table>,
    eval: EvalContext,
    /// Last emitted `(group, value)` per maintained aggregate rule id.
    aggregates: HashMap<String, BTreeMap<Vec<Value>, Value>>,
    stream_facts: Vec<Tuple>,
}

impl RefNode {
    /// A node at `addr` with the program's facts installed (table facts
    /// stored at time 0, stream facts delivered at start).
    pub fn new(program: &Program, addr: &str) -> RefNode {
        let mut node = RefNode {
            program: program.clone(),
            addr: addr.to_string(),
            tables: program
                .materializations
                .iter()
                .map(|m| (m.name.clone(), Table::new(m.to_spec())))
                .collect(),
            eval: EvalContext::new(addr, 1),
            aggregates: HashMap::new(),
            stream_facts: Vec::new(),
        };
        for fact in &program.facts {
            let values = fact
                .args
                .iter()
                .map(|a| match a {
                    OExpr::Const(v) => v.clone(),
                    _ => Value::str(addr),
                })
                .collect();
            let tuple = Tuple::new(fact.name.as_str(), values);
            match node.tables.get_mut(&fact.name) {
                Some(table) => {
                    let _ = table.insert(tuple, SimTime::ZERO);
                }
                None => node.stream_facts.push(tuple),
            }
        }
        node
    }

    /// Boots the node: maintained aggregates fold their tables, then the
    /// stream facts are delivered.
    pub fn start(&mut self, now: SimTime) -> Sent {
        self.eval.set_now(now);
        let mut queue = VecDeque::new();
        let mut sent = Vec::new();
        let tables: Vec<String> = self.tables.keys().cloned().collect();
        for table in tables {
            for (rule, head) in self.poke_aggregates(&table) {
                self.route(&rule, head, &mut queue, &mut sent);
            }
        }
        queue.extend(std::mem::take(&mut self.stream_facts));
        self.drain(queue, &mut sent);
        sent
    }

    /// Delivers a tuple at `now`, after expiring soft state.
    pub fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Sent {
        self.expire(now);
        let mut sent = Vec::new();
        self.drain(VecDeque::from([tuple]), &mut sent);
        sent
    }

    /// Advances the clock to `now`, expiring soft state. (The evaluator
    /// runs no `periodic` timers.)
    pub fn advance_to(&mut self, now: SimTime) -> Sent {
        self.expire(now);
        Vec::new()
    }

    /// The rows of table `name`, sorted.
    pub fn rows(&self, name: &str) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = self.tables[name]
            .scan_iter()
            .map(|t| t.values().to_vec())
            .collect();
        rows.sort();
        rows
    }

    fn expire(&mut self, now: SimTime) {
        self.eval.set_now(now);
        for table in self.tables.values_mut() {
            table.expire(now);
        }
    }

    fn is_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Processes derived tuples until none is left.
    fn drain(&mut self, mut queue: VecDeque<Tuple>, sent: &mut Sent) {
        let rules = self.program.rules.clone();
        while let Some(tuple) = queue.pop_front() {
            let name = tuple.name().to_string();
            let mut heads: Vec<(Rule, Tuple)> = Vec::new();
            if self.is_table(&name) {
                let now = self.eval.now();
                let inserted = self.tables.get_mut(&name).expect("a table");
                if inserted.insert(tuple.clone(), now).is_err() {
                    continue;
                }
                for rule in &rules {
                    let positives = rule.positive_predicates();
                    if positives.iter().any(|p| !self.is_table(&p.name)) {
                        continue; // a stream rule: tables are only read
                    }
                    if is_maintained(rule) {
                        continue;
                    }
                    for (i, p) in positives.iter().enumerate() {
                        if p.name == name {
                            for head in self.fire(rule, i, &tuple) {
                                heads.push((rule.clone(), head));
                            }
                        }
                    }
                }
                heads.extend(self.poke_aggregates(&name));
            } else {
                for rule in &rules {
                    let positives = rule.positive_predicates();
                    if let Some(i) = positives.iter().position(|p| p.name == name) {
                        for head in self.fire(rule, i, &tuple) {
                            heads.push((rule.clone(), head));
                        }
                    }
                }
            }
            for (rule, head) in heads {
                if !rule.delete {
                    self.route(&rule, head, &mut queue, sent);
                    continue;
                }
                let table = self.tables.get_mut(&rule.head.name).expect("a table");
                let removed = table.delete_matching(&head).unwrap_or_default();
                if !removed.is_empty() {
                    for (rule, head) in self.poke_aggregates(&rule.head.name) {
                        self.route(&rule, head, &mut queue, sent);
                    }
                }
            }
        }
    }

    /// Sends a head tuple of `rule` to its location, or queues it locally.
    fn route(&self, rule: &Rule, head: Tuple, queue: &mut VecDeque<Tuple>, sent: &mut Sent) {
        let Some(loc) = &rule.head.location else {
            queue.push_back(head);
            return;
        };
        let at = rule
            .head
            .args
            .iter()
            .position(|a| {
                matches!(a, HeadArg::Expr(OExpr::Var(v)) if v == loc)
                    || matches!(a, HeadArg::Agg(s) if s.var.as_deref() == Some(loc))
            })
            .expect("the location is a head argument");
        let dest = match head.field(at) {
            Value::Str(s) => s.to_string(),
            other => other.to_display_string(),
        };
        if dest.is_empty() || dest == "null" {
            return;
        }
        if dest == self.addr {
            queue.push_back(head);
        } else {
            sent.push((dest, head));
        }
    }

    /// Re-folds every maintained aggregate over `table`, returning the
    /// head tuples of the groups whose value changed.
    fn poke_aggregates(&mut self, table: &str) -> Vec<(Rule, Tuple)> {
        let mut out = Vec::new();
        let rules: Vec<Rule> = self
            .program
            .rules
            .iter()
            .filter(|r| is_maintained(r) && r.positive_predicates()[0].name == table)
            .cloned()
            .collect();
        for rule in rules {
            let pred = rule.positive_predicates()[0].clone();
            let spec = agg_spec(&rule);
            let mut groups: BTreeMap<Vec<Value>, Vec<Value>> = BTreeMap::new();
            for row in self.tables[table].scan_iter() {
                let Some(b) = unify(&pred, row, &Bindings::new()) else {
                    continue;
                };
                let key: Vec<Value> = rule
                    .head
                    .args
                    .iter()
                    .filter_map(|a| match a {
                        HeadArg::Expr(OExpr::Var(v)) => Some(b[v].clone()),
                        _ => None,
                    })
                    .collect();
                let value = spec.var.as_ref().map_or(Value::Int(1), |v| b[v].clone());
                groups.entry(key).or_default().push(value);
            }
            let live: BTreeMap<Vec<Value>, Value> = groups
                .into_iter()
                .filter_map(|(k, vs)| Some((k, spec.func.apply(&vs).ok()??)))
                .collect();
            let last = self.aggregates.insert(rule.id.clone(), live.clone());
            let last = last.unwrap_or_default();
            let empty = spec.func.apply(&[]).ok().flatten();
            let mut emit = |group: &[Value], value: &Value| {
                let mut group = group.iter();
                let values = rule
                    .head
                    .args
                    .iter()
                    .map(|a| match a {
                        HeadArg::Agg(_) => value.clone(),
                        HeadArg::Expr(_) => group.next().expect("a group value").clone(),
                    })
                    .collect();
                out.push((rule.clone(), Tuple::new(rule.head.name.as_str(), values)));
            };
            for (group, value) in &live {
                if last.get(group) != Some(value) {
                    emit(group, value);
                }
            }
            for group in last.keys().filter(|g| !live.contains_key(*g)) {
                if let Some(empty) = &empty {
                    emit(group, empty);
                }
            }
        }
        out
    }

    /// Fires `rule` with its `trigger`-th positive predicate bound to
    /// `tuple`, returning the derived head tuples.
    fn fire(&mut self, rule: &Rule, trigger: usize, tuple: &Tuple) -> Vec<Tuple> {
        let positives = rule.positive_predicates();
        let Some(bound) = unify(positives[trigger], tuple, &Bindings::new()) else {
            return Vec::new();
        };
        let others: Vec<&Predicate> = positives
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != trigger)
            .map(|(_, p)| *p)
            .collect();
        let (joins, agg_table) = match rule.has_aggregate() {
            true => {
                let (last, joins) = others.split_last().expect("an aggregated table");
                (joins.to_vec(), Some(*last))
            }
            false => (others, None),
        };
        let mut heads = Vec::new();
        for b in self.join(&joins, bound) {
            let Some(b) = self.settle(rule, b) else {
                continue;
            };
            let head = match agg_table {
                None => self.head(rule, &b, None),
                Some(table) => self.aggregate(rule, table, b),
            };
            heads.extend(head);
        }
        heads
    }

    /// Every extension of `b` by one row of each table in `preds`, nested
    /// in body order, each table in scan order.
    fn join(&self, preds: &[&Predicate], b: Bindings) -> Vec<Bindings> {
        let Some((first, rest)) = preds.split_first() else {
            return vec![b];
        };
        let rows = self.tables[&first.name].scan_iter();
        let extended: Vec<Bindings> = rows.filter_map(|row| unify(first, row, &b)).collect();
        extended
            .into_iter()
            .flat_map(|b| self.join(rest, b))
            .collect()
    }

    /// Checks negations, runs every assignment whose variables are bound
    /// and every condition that is fully bound; `None` if the combination
    /// fails.
    fn settle(&mut self, rule: &Rule, mut b: Bindings) -> Option<Bindings> {
        for p in rule.negated_predicates() {
            let table = &self.tables[&p.name];
            if table.scan_iter().any(|row| unify_loosely(p, row, &b)) {
                return None;
            }
        }
        self.assign(rule, &mut b)?;
        for term in &rule.body {
            if let BodyTerm::Condition(c) = term {
                if bound_in(c, &b) && !self.eval_expr(c, &b)?.truthy() {
                    return None;
                }
            }
        }
        Some(b)
    }

    /// Runs the assignments whose variables are bound until none is left
    /// to run; `None` if one fails to evaluate.
    fn assign(&mut self, rule: &Rule, b: &mut Bindings) -> Option<()> {
        loop {
            let next = rule.body.iter().find_map(|t| match t {
                BodyTerm::Assign { var, expr } if !b.contains_key(var) && bound_in(expr, b) => {
                    Some((var, expr))
                }
                _ => None,
            });
            let Some((var, expr)) = next else {
                return Some(());
            };
            let value = self.eval_expr(expr, b)?;
            b.insert(var.clone(), value);
        }
    }

    /// Folds `table` for one combination `b` of the other body terms.
    fn aggregate(&mut self, rule: &Rule, table: &Predicate, b: Bindings) -> Option<Tuple> {
        let spec = agg_spec(rule);
        let mut contributions = Vec::new();
        let mut witness: Option<(Value, Bindings)> = None;
        let rows: Vec<Tuple> = self.tables[&table.name].scan_iter().cloned().collect();
        for row in &rows {
            let Some(mut rb) = unify(table, row, &b) else {
                continue;
            };
            if self.assign(rule, &mut rb).is_none() {
                continue;
            }
            let holds = rule.body.iter().all(|t| match t {
                BodyTerm::Condition(c) => self.eval_expr(c, &rb).is_some_and(|v| v.truthy()),
                _ => true,
            });
            if !holds {
                continue;
            }
            let value = match &spec.var {
                None => Value::Int(1),
                Some(v) => match rb.get(v) {
                    Some(value) => value.clone(),
                    None => continue,
                },
            };
            let better = match (&witness, spec.func) {
                (None, _) => true,
                (Some((best, _)), AggFunc::Min) => value < *best,
                (Some((best, _)), AggFunc::Max) => value > *best,
                _ => false,
            };
            if better {
                witness = Some((value.clone(), rb));
            }
            contributions.push(value);
        }
        let value = spec.func.apply(&contributions).ok()??;
        let b = match (spec.func, witness) {
            (AggFunc::Min | AggFunc::Max, Some((_, wb))) => wb,
            _ => {
                // No witness: the aggregated table's variables are null.
                let mut b = b;
                for arg in &table.args {
                    if let OExpr::Var(v) = arg {
                        b.entry(v.clone()).or_insert(Value::Null);
                    }
                }
                b
            }
        };
        self.head(rule, &b, Some(value))
    }

    /// The head tuple under `b`, with `agg` in the aggregate position.
    fn head(&mut self, rule: &Rule, b: &Bindings, agg: Option<Value>) -> Option<Tuple> {
        let mut values = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            values.push(match arg {
                HeadArg::Expr(e) => self.eval_expr(e, b)?,
                HeadArg::Agg(_) => agg.clone()?,
            });
        }
        Some(Tuple::new(rule.head.name.as_str(), values))
    }

    /// Evaluates an AST expression with its variables replaced by their
    /// bound values; `None` on an unbound variable or an evaluation error.
    fn eval_expr(&mut self, e: &OExpr, b: &Bindings) -> Option<Value> {
        let program = PelProgram::compile(&substitute(e, b)?);
        program
            .eval(&Tuple::new("ref", vec![]), &mut self.eval)
            .ok()
    }
}

/// Whether `rule` is a maintained aggregate: one table, an aggregate head.
fn is_maintained(rule: &Rule) -> bool {
    rule.has_aggregate()
        && rule.body.len() == 1
        && matches!(&rule.body[0], BodyTerm::Predicate(p) if !p.negated)
}

fn agg_spec(rule: &Rule) -> p2_overlog::AggSpec {
    rule.head
        .args
        .iter()
        .find_map(|a| match a {
            HeadArg::Agg(spec) => Some(spec.clone()),
            _ => None,
        })
        .expect("an aggregate head")
}

/// Extends `b` so that `pred`'s arguments match `row`, or `None`.
fn unify(pred: &Predicate, row: &Tuple, b: &Bindings) -> Option<Bindings> {
    if row.arity() != pred.args.len() {
        return None;
    }
    let mut b = b.clone();
    for (arg, value) in pred.args.iter().zip(row.values()) {
        match arg {
            OExpr::Var(v) => match b.get(v) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => {
                    b.insert(v.clone(), value.clone());
                }
            },
            OExpr::Const(c) if c != value => return None,
            _ => {}
        }
    }
    Some(b)
}

/// Whether `row` matches `pred` on its bound variables and constants, the
/// unbound ones matching anything (a negated predicate's test).
fn unify_loosely(pred: &Predicate, row: &Tuple, b: &Bindings) -> bool {
    row.arity() == pred.args.len()
        && pred
            .args
            .iter()
            .zip(row.values())
            .all(|(arg, value)| match arg {
                OExpr::Var(v) => b.get(v).is_none_or(|bound| bound == value),
                OExpr::Const(c) => c == value,
                _ => true,
            })
}

fn bound_in(e: &OExpr, b: &Bindings) -> bool {
    e.variables().iter().all(|v| b.contains_key(v))
}

/// `e` as a PEL expression over constants.
fn substitute(e: &OExpr, b: &Bindings) -> Option<PExpr> {
    Some(match e {
        OExpr::Var(v) => PExpr::Const(b.get(v)?.clone()),
        OExpr::Const(c) => PExpr::Const(c.clone()),
        OExpr::Wildcard => return None,
        OExpr::Call { name, args, .. } => PExpr::Call(
            Builtin::from_name(name)?,
            args.iter()
                .map(|a| substitute(a, b))
                .collect::<Option<_>>()?,
        ),
        OExpr::Unary { op, expr } => PExpr::Unary(*op, Box::new(substitute(expr, b)?)),
        OExpr::Binary { op, lhs, rhs } => PExpr::Binary(
            *op,
            Box::new(substitute(lhs, b)?),
            Box::new(substitute(rhs, b)?),
        ),
        OExpr::Range {
            kind,
            value,
            low,
            high,
        } => PExpr::Interval {
            kind: *kind,
            value: Box::new(substitute(value, b)?),
            low: Box::new(substitute(low, b)?),
            high: Box::new(substitute(high, b)?),
        },
    })
}

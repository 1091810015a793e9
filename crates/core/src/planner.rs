//! The OverLog planner: compiles a validated program into a *shared*,
//! node-independent plan, then stamps out per-node dataflow engines from it.
//!
//! The translation follows §3.5 of the paper: every rule becomes one
//! *strand* per trigger, and a strand is one [`FusedStrand`] element
//!
//! ```text
//! trigger ─ strand(checks, probes*, anti-joins*, assignments*, conditions,
//!                  [aggregation], head) ═ head ─┬─ remote: network
//!                                               └─ local: dispatch(name)
//!                                                    → Insert, strands
//! ```
//!
//! where the trigger is a `periodic` timer element, the arrival of a stream
//! tuple (through its predicate's dispatch) or the insertion delta of a
//! materialized table. Rules whose body consists solely of a table and whose
//! head aggregates over it become materialized [`TableAgg`] watchers feeding
//! an op-less strand, their head projection.
//!
//! Figure 2's network-out element and the demultiplexer its local arc
//! loops back into are not elements here: each strand's output slot is a
//! `p2_dataflow::Head` the engine runs itself (see `p2_dataflow::engine`,
//! *Heads and dispatch*). A predicate's dispatch lists the table's
//! `Insert`, then the strands the predicate triggers, in plan order, then
//! any watch tap; delivered tuples enter through it too.
//!
//! # One strand per trigger
//!
//! A rule whose body is all stored tables gets one strand per body table,
//! triggered by that table's insert pokes (including keyed soft-state
//! refreshes) and probing the others: derived soft state stays alive by
//! being re-derived on refresh, as in the paper — there is no view
//! maintenance. A [`TableAgg`] is poked by its table's inserts and deletes
//! and re-reads the table when the table's change counter has moved.
//!
//! An in-strand aggregation ([`AggOp`]) keeps no state, and its access path
//! is chosen here, per occurrence, at compile time. Its filter's `event
//! field == row column` equalities are split off into a probe key, so it
//! reads the table through the same access path as a probe (primary index
//! or declared secondary index). An aggregation left with no key — Chord's
//! L2/L3 over `finger`, SU1/S3 over `succ`, which share only the location
//! with their table — would walk every row; instead the planner declares a
//! *group index* on the table over the row columns the residual filter and
//! the aggregate expression load, and the fold evaluates once per distinct
//! projection. Only `min`/`max`/`count` folds that draw on no RNG qualify:
//! `max<R>` with `R := f_rand()` must draw once per row, and `sum`/`avg`
//! must add in scan order, so those keep the counted row scan. See the
//! aggregation block of `Builder::analyze_strand`.
//!
//! # Level delays
//!
//! A strand runs its `k` steps (each trigger check and op counts one, the
//! head one more) in one call. The planner records `k − 1` levels as a
//! delay on the strand's output slot (`Wiring::set_delay`), and the engine
//! holds each head tuple back by exactly that much (see
//! `p2_dataflow::engine`, *Level delays*), so tuples surface in the
//! breadth-first order the golden event stream was pinned on. The head
//! step then fires where the element it replaces ran. For a strand
//! triggered at level `L`, a located head routes at level `L + k` (the
//! network-out element's), and its local tuple reaches its dispatch's
//! consumers at `L + k + 2` (the demultiplexer ran at `L + k + 1`); a head
//! without a location reaches its consumers at `L + k + 1`; a `delete`
//! head deletes at `L + k` and pokes the aggregates at `L + k + 1`.
//!
//! Every poke runs: a strand whose probes find nothing emits nothing and
//! stores nothing, and the profiler counts the call as a wasted poke. Rules
//! that draw on the RNG lower the same way: a strand draws once per row, in
//! lookup order, inside one call, so a seed fixes the draws.
//!
//! # Shared plans
//!
//! Planning is split in two:
//!
//! * [`PlannedProgram::compile`] runs the whole §3.5 translation **once per
//!   program**: rule analysis, variable layout, PEL compilation, element
//!   naming and edge wiring. It compiles everything that does not depend on
//!   the node into shared, immutable form: the engine's routing table
//!   (element names, adjacency, level delays, heads and predicate
//!   dispatches; `p2_dataflow::Routing`), one [`StrandBody`] per rule
//!   strand (trigger checks, ops with their probe keys and aggregation,
//!   head programs), the table [`Schema`] and the profiler's element
//!   metadata. Tables stay declarations with their indices. A table's id
//!   is its position in the plan's declarations; every op, bridge, delete
//!   head and aggregate names its table by that id, and the schema maps
//!   names to ids.
//! * [`PlannedProgram::instantiate`] stamps out one node from the plan. It
//!   creates the node's tables, in id order, builds each element's
//!   per-node state — a strand is the shared body plus scratch — and hands
//!   both to `Engine::with_routing` with the shared routing table. It
//!   builds no graph and compiles no routing.
//!
//! A node therefore holds only the genuinely per-node state: its tables,
//! element state (strand scratch, periodic phases, materialized-aggregate
//! results, collector buffers), its engine's queue, timers, RNG and
//! counters. A thousand-node simulation pays the translation once instead
//! of a thousand times.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use p2_dataflow::elements::{
    AggOp, Collector, CollectorHandle, FusedStrand, Insert, Periodic, StrandBody, StrandOp,
    TableAgg,
};
use p2_dataflow::{Element, Engine, Head, Routing, Wiring};
use p2_obs::{ElemKind, ElemMeta, ObsMeta, RuleClassBits};
use p2_overlog::{
    analyze, AggSpec, BodyTerm, Expr as OExpr, HeadArg, Predicate, Program, Rule, RuleClass,
    SizeBound,
};
use p2_pel::{BinOp, Expr as PExpr, Program as PelProgram};
use p2_table::{AggFunc, Catalog, Schema, Table, TableSpec};
use p2_value::Value;

use crate::binding::Layout;
use crate::error::PlanError;

/// Node-independent planning configuration; the per-node address and seed
/// are arguments of [`PlannedProgram::instantiate`].
#[derive(Debug, Clone, Default)]
pub struct PlanConfig {
    /// Tuple names to attach observation taps to (results are available via
    /// [`Planned::collectors`]).
    pub watches: Vec<String>,
    /// Whether `periodic` sources start at a random phase within their
    /// period (recommended for simulations; disable for deterministic unit
    /// tests).
    pub jitter_periodics: bool,
}

impl PlanConfig {
    /// Creates a config with jitter enabled and no watches.
    pub fn new() -> PlanConfig {
        PlanConfig {
            watches: Vec::new(),
            jitter_periodics: true,
        }
    }

    /// Adds a watched tuple name.
    pub fn watch(mut self, name: impl Into<String>) -> PlanConfig {
        self.watches.push(name.into());
        self
    }

    /// Disables periodic phase jitter.
    pub fn without_jitter(mut self) -> PlanConfig {
        self.jitter_periodics = false;
        self
    }
}

/// The result of planning: a ready-to-run engine plus handles to its state.
pub struct Planned {
    /// The node's dataflow engine, which owns the node's tables.
    pub engine: Engine,
    /// The names of the tables, shared by every node of the plan.
    pub schema: Arc<Schema>,
    /// Observation buffers for each watched tuple name.
    pub collectors: HashMap<String, CollectorHandle>,
}

impl Planned {
    /// The node's tables, read by name.
    pub fn catalog(&self) -> Catalog<'_> {
        Catalog::new(&self.schema, self.engine.tables())
    }
}

/// A node-independent element description; instantiation turns it into a
/// stateful element. Tables are named by id.
enum ElementSpec {
    /// Insert bridge into table `table`.
    Insert { table: usize },
    /// Materialized aggregate watcher over a table.
    TableAgg {
        table: usize,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: Vec<usize>,
        out_name: Arc<str>,
    },
    /// A rule strand: trigger checks, probes, anti-joins, assignments,
    /// conditions, an aggregation and the head projection in one element
    /// (see `p2_dataflow::elements::FusedStrand`), over a body every node
    /// shares.
    Strand(Arc<StrandBody>),
    /// `periodic` timer source.
    Periodic {
        period: f64,
        count: Option<u64>,
        period_value: Value,
        extra_args: Vec<Value>,
    },
    /// Observation tap for a watched tuple name.
    Collector { watch: String },
}

impl ElementSpec {
    /// The element-kind mirror the profiler reports under.
    fn obs_kind(&self) -> ElemKind {
        match self {
            ElementSpec::Insert { .. } => ElemKind::Insert,
            ElementSpec::TableAgg { .. } => ElemKind::TableAgg,
            ElementSpec::Strand(_) => ElemKind::Strand,
            ElementSpec::Periodic { .. } => ElemKind::Periodic,
            ElementSpec::Collector { .. } => ElemKind::Collector,
        }
    }
}

/// Mirrors the analyzer's [`RuleClass`] into the runtime-facing
/// [`RuleClassBits`] (the obs crate must not depend on the frontend).
fn class_bits(c: RuleClass) -> RuleClassBits {
    RuleClassBits {
        deterministic: c.deterministic,
        pure: c.pure,
        monotone: c.monotone,
        refresh_transparent: c.refresh_transparent,
    }
}

/// A rule strand under analysis.
#[derive(Default)]
struct StrandSpec {
    /// Checks on the bare trigger tuple: the filters before the first op.
    pre_filters: Vec<PelProgram>,
    ops: Vec<StrandOp>,
    head_fields: Vec<PelProgram>,
    out_name: Arc<str>,
}

impl StrandSpec {
    /// Appends a selection: a trigger check while no op precedes it.
    fn filter(&mut self, filter: PelProgram) {
        if self.ops.is_empty() {
            self.pre_filters.push(filter);
        } else {
            self.ops.push(StrandOp::Filter(filter));
        }
    }

    /// The strand's level delay: one level per step after the first, the
    /// head being the last step (see the module docs).
    fn levels(&self) -> u32 {
        (self.pre_filters.len() + self.ops.len()) as u32
    }
}

/// One field of a program fact, resolved at compile time.
enum FactField {
    /// A constant value.
    Const(Value),
    /// The fact's location variable: bound to the node's address at
    /// instantiation.
    LocalAddr,
}

/// A program fact with its location variable resolved.
struct FactTemplate {
    name: Arc<str>,
    fields: Vec<FactField>,
}

/// A table declaration plus the secondary and group indices the plan's
/// probes need.
struct TablePlan {
    spec: TableSpec,
    extra_indexes: Vec<Vec<usize>>,
    group_indexes: Vec<Vec<usize>>,
}

impl TablePlan {
    /// A node's empty table, with the plan's indices.
    fn build(&self) -> Table {
        let mut table = Table::new(self.spec.clone());
        for idx in &self.extra_indexes {
            table.add_index(idx.clone());
        }
        for idx in &self.group_indexes {
            table.add_group_index(idx.clone());
        }
        table
    }
}

/// An immutable, node-independent compilation of an OverLog program: the
/// element graph as *specs* (strands as shared bodies), the compiled
/// routing table, table declarations, and the program facts. Build once
/// with [`PlannedProgram::compile`], then stamp out per-node engines with
/// [`PlannedProgram::instantiate`].
pub struct PlannedProgram {
    specs: Vec<ElementSpec>,
    /// Element names, adjacency, level delays, heads and dispatches,
    /// shared by every engine.
    routing: Arc<Routing>,
    /// Table declarations in id order.
    tables: Vec<TablePlan>,
    schema: Arc<Schema>,
    facts: Vec<FactTemplate>,
    jitter_periodics: bool,
    /// Per-element observability metadata (rule id, kind, rule class),
    /// parallel to `specs`. Built unconditionally at compile time — it is
    /// one small shared allocation — and consumed only by engines that
    /// enable observability, so plan identity and instantiation behaviour
    /// are unaffected.
    obs: Arc<ObsMeta>,
}

impl PlannedProgram {
    /// Runs the full §3.5 translation once, producing a shareable plan.
    pub fn compile(program: &Program, config: &PlanConfig) -> Result<PlannedProgram, PlanError> {
        Builder::new(program, config)?.build()
    }

    /// Number of elements in the planned graph.
    pub fn element_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of edges in the planned graph.
    pub fn edge_count(&self) -> usize {
        self.routing.route_count()
    }

    /// The compiled routing table every engine instantiated from this plan
    /// shares.
    pub fn routing(&self) -> &Arc<Routing> {
        &self.routing
    }

    /// The strands whose aggregation reads its table through a group
    /// index, as `(element label, indexed table columns)` in rule order.
    pub fn group_probes(&self) -> Vec<(&str, &[usize])> {
        let labelled = self.specs.iter().enumerate();
        labelled
            .filter_map(|(i, spec)| match spec {
                ElementSpec::Strand(body) => {
                    let cols = body.agg()?.group_index()?;
                    Some((&**self.routing.name(i), cols))
                }
                _ => None,
            })
            .collect()
    }

    /// Per-element observability metadata: entry `i` describes element `i`
    /// of every engine instantiated from this plan. Hand it to
    /// `Engine::enable_obs` to turn on the rule-level profiler.
    pub fn obs_meta(&self) -> Arc<ObsMeta> {
        self.obs.clone()
    }

    /// The resolved program facts, as tuples for a node at `addr`.
    pub fn facts_for(&self, addr: &str) -> Vec<p2_value::Tuple> {
        self.facts
            .iter()
            .map(|f| {
                let values = f
                    .fields
                    .iter()
                    .map(|field| match field {
                        FactField::Const(v) => v.clone(),
                        FactField::LocalAddr => Value::str(addr),
                    })
                    .collect();
                p2_value::Tuple::new(f.name.clone(), values)
            })
            .collect()
    }

    /// Whether the plan declares `name` as a materialized table.
    pub fn has_table(&self, name: &str) -> bool {
        self.schema.id(name).is_some()
    }

    /// Stamps out one node's engine, tables and collectors from the shared
    /// plan. Cheap relative to [`PlannedProgram::compile`]: no rule
    /// analysis, no PEL compilation, no routing — the node gets fresh tables
    /// and element state over the plan's shared strand bodies and routing
    /// table.
    pub fn instantiate(&self, local_addr: impl Into<Arc<str>>, seed: u64) -> Planned {
        let mut collectors = HashMap::new();
        let mut elements: Vec<Box<dyn Element>> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            elements.push(match spec {
                ElementSpec::Insert { table } => Box::new(Insert::new(*table)),
                ElementSpec::TableAgg {
                    table,
                    func,
                    agg_col,
                    group_cols,
                    out_name,
                } => Box::new(TableAgg::new(
                    *table,
                    *func,
                    *agg_col,
                    group_cols.clone(),
                    out_name.clone(),
                )),
                ElementSpec::Strand(body) => Box::new(FusedStrand::from(body.clone())),
                ElementSpec::Periodic {
                    period,
                    count,
                    period_value,
                    extra_args,
                } => {
                    let mut periodic = Periodic::new("periodic", *period, *count)
                        .with_period_value(period_value.clone())
                        .with_extra_args(extra_args.clone());
                    if !self.jitter_periodics {
                        periodic = periodic.without_phase_jitter();
                    }
                    Box::new(periodic)
                }
                ElementSpec::Collector { watch } => {
                    let (collector, handle) = Collector::new();
                    collectors.insert(watch.clone(), handle);
                    Box::new(collector)
                }
            });
        }

        let tables = self.tables.iter().map(TablePlan::build).collect();
        let mut engine =
            Engine::with_routing(self.routing.clone(), elements, tables, local_addr, seed);
        engine.set_dispatch_entry();
        Planned {
            engine,
            schema: self.schema.clone(),
            collectors,
        }
    }
}

enum TriggerSource<'a> {
    /// Arrival of a stream tuple through its predicate's dispatch.
    Stream(&'a str),
    /// Insert delta of a materialized table.
    TableDelta(&'a str),
    /// A `periodic` timer, described by the predicate occurrence.
    Periodic(&'a Predicate),
}

struct AggPlan<'a> {
    spec: &'a AggSpec,
    /// The table predicate whose rows are aggregated over.
    table: &'a Predicate,
}

struct Builder<'a> {
    program: &'a Program,
    config: &'a PlanConfig,
    specs: Vec<ElementSpec>,
    wiring: Wiring,
    tables: Vec<TablePlan>,
    schema: Schema,
    /// Predicate name per dispatch id, sorted.
    dispatch_names: Vec<String>,
    insert_ids: HashMap<String, usize>,
    /// TableAgg elements per table name, wired to that table's insert and
    /// delete pokes at the end of planning.
    table_aggs: HashMap<String, Vec<usize>>,
    /// Strands with a `delete` head, per table name (the rows they remove
    /// also poke TableAggs).
    delete_strands: HashMap<String, Vec<usize>>,
    /// Per-rule delta-safety classification from the whole-program
    /// analyzer, parallel to `program.rules`; stamped on each element for
    /// the profiler.
    rule_classes: Vec<RuleClass>,
    /// Classification of the rule currently being planned (set by
    /// [`Builder::build`] before each `plan_rule` call).
    current_class: RuleClass,
    /// Id of the rule currently being planned, `None` outside `plan_rule`;
    /// `add` stamps it onto every element so the profiler can attribute
    /// element counters to rules without parsing element names.
    current_rule: Option<Arc<str>>,
    /// Per-element `(rule id, class)` attribution, parallel to `specs`.
    elem_rules: Vec<Option<(Arc<str>, RuleClass)>>,
}

impl<'a> Builder<'a> {
    fn new(program: &'a Program, config: &'a PlanConfig) -> Result<Builder<'a>, PlanError> {
        if program.rules.is_empty() && program.facts.is_empty() {
            return Err(PlanError::program("program has no rules or facts"));
        }

        // One table per name: validation rejects a repeated `materialize`
        // unless it repeats the spec.
        let mut tables: Vec<TablePlan> = Vec::new();
        for m in &program.materializations {
            if !tables.iter().any(|t| t.spec.name == m.name) {
                tables.push(TablePlan {
                    spec: m.to_spec(),
                    extra_indexes: Vec::new(),
                    group_indexes: Vec::new(),
                });
            }
        }
        let schema = Schema::new(tables.iter().map(|t| &t.spec));

        // Collect every tuple name that gets a dispatch.
        let mut names: BTreeSet<String> = BTreeSet::new();
        for m in &program.materializations {
            names.insert(m.name.clone());
        }
        for f in &program.facts {
            names.insert(f.name.clone());
        }
        for r in &program.rules {
            names.insert(r.head.name.clone());
            for p in r.positive_predicates() {
                if p.name != "periodic" {
                    names.insert(p.name.clone());
                }
            }
        }
        for w in &config.watches {
            names.insert(w.clone());
        }
        let dispatch_names: Vec<String> = names.into_iter().collect();

        // Whole-program analysis: total (never fails), so planning proceeds
        // even for programs the analyzer has complaints about — the planner
        // only copies the per-rule classification into the profiler's
        // metadata.
        let rule_classes = analyze::analyze(program).rule_classes;

        let mut builder = Builder {
            program,
            config,
            specs: Vec::new(),
            wiring: Wiring::default(),
            tables,
            schema,
            dispatch_names,
            insert_ids: HashMap::new(),
            table_aggs: HashMap::new(),
            delete_strands: HashMap::new(),
            rule_classes,
            current_class: RuleClass {
                deterministic: false,
                pure: false,
                monotone: false,
                refresh_transparent: false,
            },
            current_rule: None,
            elem_rules: Vec::new(),
        };
        for name in &builder.dispatch_names {
            builder.wiring.add_dispatch(name.as_str());
        }

        // One Insert bridge per materialized table, its dispatch's first
        // consumer.
        for table in 0..builder.tables.len() {
            let name = builder.tables[table].spec.name.clone();
            let id = builder.add(format!("insert:{name}"), ElementSpec::Insert { table });
            let dispatch = builder.dispatch_of(&name).expect("declared above");
            builder.wiring.connect_dispatch(dispatch, id, 0);
            builder.insert_ids.insert(name, id);
        }
        Ok(builder)
    }

    fn add(&mut self, name: impl Into<Arc<str>>, spec: ElementSpec) -> usize {
        self.specs.push(spec);
        self.elem_rules
            .push(self.current_rule.clone().map(|r| (r, self.current_class)));
        self.wiring.add(name)
    }

    fn dispatch_of(&self, name: &str) -> Option<usize> {
        self.dispatch_names.iter().position(|n| n == name)
    }

    fn table_id(&self, rule: &Rule, name: &str) -> Result<usize, PlanError> {
        self.schema.id(name).ok_or_else(|| {
            PlanError::in_rule(&rule.id, format!("`{name}` is not a materialized table"))
        })
    }

    /// Records the secondary index an equijoin/anti-join probe needs.
    ///
    /// Probes over exactly the table's primary-key columns are served by the
    /// storage engine's primary index, so no redundant secondary index is
    /// materialized for them.
    fn declare_probe_index(&mut self, table: usize, join_keys: &[(usize, usize)]) {
        if join_keys.is_empty() {
            return;
        }
        let mut cols: Vec<usize> = join_keys.iter().map(|(_, c)| *c).collect();
        cols.sort_unstable();
        cols.dedup();
        let plan = &mut self.tables[table];
        let mut pk = plan.spec.primary_key.clone();
        pk.sort_unstable();
        pk.dedup();
        if !pk.is_empty() && pk == cols {
            return;
        }
        if !plan.extra_indexes.contains(&cols) {
            plan.extra_indexes.push(cols);
        }
    }

    /// Chooses which of an aggregation's `(event field, table
    /// column)` equalities form its key; the caller keeps the rest in the
    /// residual filter. A key compares by index equality, exactly like a
    /// join key: `Value`'s hash agrees with PEL `==` within the numeric
    /// types and within `Str`/`Id`, but `Id(x) == Int(x)` holds while the
    /// two hash differently, so a program equating an `Id` column with an
    /// `Int` field matches through a filter and misses through a key
    /// (pinned by `agg_probe_key_uses_index_equality_for_id_vs_int`).
    ///
    /// The primary key serves whenever the equalities cover it — one
    /// candidate row, no extra index. Otherwise a secondary index is
    /// declared, unless only the location column is keyed: every row of a
    /// node's table shares it, so an index would select nothing.
    fn agg_probe_key(
        &mut self,
        table: usize,
        pred: &Predicate,
        equalities: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        let pk = &self.tables[table].spec.primary_key;
        let keyed = |col: &usize| equalities.iter().any(|(_, c)| c == col);
        if !pk.is_empty() && pk.iter().all(keyed) {
            return equalities
                .iter()
                .filter(|(_, c)| pk.contains(c))
                .copied()
                .collect();
        }
        let loc_col = pred.location.as_ref().and_then(|loc| {
            pred.args
                .iter()
                .position(|a| matches!(a, OExpr::Var(v) if v == loc))
        });
        if equalities.iter().all(|(_, c)| Some(*c) == loc_col) {
            return Vec::new();
        }
        self.declare_probe_index(table, equalities);
        equalities.to_vec()
    }

    /// Chooses how a keyless aggregation reads its table: through a group
    /// index over the row columns its programs load — declared here, once
    /// per distinct column list — when its fold is the same group by group
    /// as row by row ([`AggOp::group_columns`]), else `None` for the
    /// counted row scan. `event_arity` is the width of the strand tuple the
    /// fold appends rows to.
    fn agg_probe_group_index(
        &mut self,
        table: usize,
        func: AggFunc,
        filter: Option<&PelProgram>,
        agg_expr: &PelProgram,
        event_arity: usize,
    ) -> Option<Vec<usize>> {
        let cols = AggOp::group_columns(func, filter, agg_expr, event_arity)?;
        let declared = &mut self.tables[table].group_indexes;
        if !declared.contains(&cols) {
            declared.push(cols.clone());
        }
        Some(cols)
    }

    fn build(mut self) -> Result<PlannedProgram, PlanError> {
        let rules: Vec<&Rule> = self.program.rules.iter().collect();
        for (i, rule) in rules.into_iter().enumerate() {
            self.current_class = self.rule_classes[i];
            self.current_rule = Some(Arc::from(rule.id.as_str()));
            self.plan_rule(rule)?;
        }
        self.current_rule = None;

        // Watchpoints.
        for w in &self.config.watches.clone() {
            let id = self.add(
                format!("watch:{w}"),
                ElementSpec::Collector { watch: w.clone() },
            );
            if let Some(dispatch) = self.dispatch_of(w) {
                self.wiring.connect_dispatch(dispatch, id, 0);
            }
        }

        // Wire materialized aggregates to their table's insert and delete
        // pokes.
        let table_aggs = std::mem::take(&mut self.table_aggs);
        for (table, aggs) in table_aggs {
            for agg in aggs {
                if let Some(insert) = self.insert_ids.get(&table).copied() {
                    self.wiring.connect(insert, 0, agg, 0);
                }
                for &strand in self.delete_strands.get(&table).into_iter().flatten() {
                    self.wiring.connect(strand, 0, agg, 0);
                }
            }
        }

        // Resolve facts: every argument must be a constant or the fact's
        // location variable (bound to the node address at instantiation).
        let mut facts = Vec::with_capacity(self.program.facts.len());
        for fact in &self.program.facts {
            let mut fields = Vec::with_capacity(fact.args.len());
            for arg in &fact.args {
                match arg {
                    OExpr::Const(v) => fields.push(FactField::Const(v.clone())),
                    OExpr::Var(v) if Some(v) == fact.location.as_ref() => {
                        fields.push(FactField::LocalAddr)
                    }
                    other => {
                        return Err(PlanError::program(format!(
                            "fact `{}` argument {other:?} is not a constant",
                            fact.name
                        )))
                    }
                }
            }
            facts.push(FactTemplate {
                name: fact.name.as_str().into(),
                fields,
            });
        }

        let routing = Routing::compile(self.wiring);
        let obs = Arc::new(ObsMeta {
            elems: self
                .specs
                .iter()
                .enumerate()
                .map(|(i, spec)| (spec, routing.name(i)))
                .zip(&self.elem_rules)
                .map(|((spec, name), attribution)| ElemMeta {
                    name: name.clone(),
                    rule: attribution.as_ref().map(|(r, _)| r.clone()),
                    kind: spec.obs_kind(),
                    class: attribution.as_ref().map(|(_, c)| class_bits(*c)),
                })
                .collect(),
        });
        Ok(PlannedProgram {
            specs: self.specs,
            routing: Arc::new(routing),
            tables: self.tables,
            schema: Arc::new(self.schema),
            facts,
            jitter_periodics: self.config.jitter_periodics,
            obs,
        })
    }

    fn plan_rule(&mut self, rule: &Rule) -> Result<(), PlanError> {
        let positives = rule.positive_predicates();
        let periodics: Vec<&Predicate> = positives
            .iter()
            .copied()
            .filter(|p| p.name == "periodic")
            .collect();
        let streams: Vec<&Predicate> = positives
            .iter()
            .copied()
            .filter(|p| p.name != "periodic" && !self.program.is_materialized(&p.name))
            .collect();
        let tables: Vec<&Predicate> = positives
            .iter()
            .copied()
            .filter(|p| p.name != "periodic" && self.program.is_materialized(&p.name))
            .collect();

        if periodics.len() > 1 {
            return Err(PlanError::in_rule(
                &rule.id,
                "at most one `periodic` term per rule",
            ));
        }
        if !periodics.is_empty() && !streams.is_empty() {
            return Err(PlanError::in_rule(
                &rule.id,
                "a rule may not join a `periodic` stream with another stream",
            ));
        }
        if streams.len() > 1 {
            return Err(PlanError::in_rule(
                &rule.id,
                "stream-stream joins are not supported (the 2005 planner only joins a stream \
                 with materialized tables); materialize one of the streams instead",
            ));
        }

        if let Some(periodic) = periodics.first() {
            self.build_strand(rule, periodic, TriggerSource::Periodic(periodic), &tables)
        } else if let Some(stream) = streams.first() {
            self.build_strand(rule, stream, TriggerSource::Stream(&stream.name), &tables)
        } else if rule.has_aggregate() {
            // Aggregate over a materialized table, maintained incrementally.
            if tables.len() != 1 {
                return Err(PlanError::in_rule(
                    &rule.id,
                    "materialized aggregates must range over exactly one table",
                ));
            }
            self.build_table_agg_strand(rule, tables[0])
        } else {
            if tables.is_empty() {
                return Err(PlanError::in_rule(&rule.id, "rule body has no predicates"));
            }
            // Delta-triggered: updates to any of the body tables
            // re-evaluate the rule against the others.
            for (i, trigger) in tables.iter().enumerate() {
                let others: Vec<&Predicate> = tables
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, p)| *p)
                    .collect();
                self.build_strand(
                    rule,
                    trigger,
                    TriggerSource::TableDelta(&trigger.name),
                    &others,
                )?;
            }
            Ok(())
        }
    }

    /// Adds `strand` as the rule's element `{rule}:strand`, its output slot
    /// delayed by the strand's level count; its body is compiled here, once
    /// for every node.
    fn add_strand(&mut self, rule: &Rule, strand: StrandSpec) -> usize {
        let levels = strand.levels();
        let StrandSpec {
            pre_filters,
            ops,
            head_fields,
            out_name,
        } = strand;
        let body = StrandBody::new(pre_filters, ops, head_fields, out_name);
        let id = self.add(format!("{}:strand", rule.id), ElementSpec::Strand(body));
        if levels > 0 {
            self.wiring.set_delay(id, 0, levels);
        }
        id
    }

    /// Builds one strand: the strand element, its head, and its trigger.
    fn build_strand(
        &mut self,
        rule: &Rule,
        trigger: &Predicate,
        source: TriggerSource<'_>,
        other_tables: &[&Predicate],
    ) -> Result<(), PlanError> {
        let strand = self.analyze_strand(rule, trigger, &source, other_tables)?;
        let strand = self.add_strand(rule, strand);
        self.route_head(rule, strand)?;
        match source {
            TriggerSource::Stream(name) => {
                let dispatch = self.dispatch_of(name).ok_or_else(|| {
                    PlanError::in_rule(&rule.id, format!("no dispatch for stream `{name}`"))
                })?;
                self.wiring.connect_dispatch(dispatch, strand, 0);
            }
            TriggerSource::TableDelta(name) => {
                let insert = *self.insert_ids.get(name).ok_or_else(|| {
                    PlanError::in_rule(&rule.id, format!("no insert element for table `{name}`"))
                })?;
                self.wiring.connect(insert, 0, strand, 0);
            }
            TriggerSource::Periodic(pred) => {
                let periodic = self.make_periodic(rule, pred)?;
                let id = self.add(format!("{}:periodic", rule.id), periodic);
                self.wiring.connect(id, 0, strand, 0);
            }
        }
        Ok(())
    }

    /// Analyses one strand of `rule`: trigger checks, probes, anti-joins,
    /// assignments, conditions, aggregation and the head projection, in
    /// that order.
    fn analyze_strand(
        &mut self,
        rule: &Rule,
        trigger: &Predicate,
        source: &TriggerSource<'_>,
        other_tables: &[&Predicate],
    ) -> Result<StrandSpec, PlanError> {
        let mut layout = Layout::new();
        let mut strand = StrandSpec::default();

        // --- Trigger.
        let trigger_binding = layout
            .bind_predicate(trigger, true)
            .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
        let mut trigger_checks: Vec<PExpr> = Vec::new();
        for (col, value) in &trigger_binding.const_checks {
            trigger_checks.push(PExpr::bin(
                BinOp::Eq,
                PExpr::Field(*col),
                PExpr::Const(value.clone()),
            ));
        }
        for (a, b) in &trigger_binding.repeat_checks {
            trigger_checks.push(PExpr::bin(BinOp::Eq, PExpr::Field(*a), PExpr::Field(*b)));
        }
        if !trigger_checks.is_empty() && !matches!(source, TriggerSource::Periodic(_)) {
            strand.filter(PelProgram::compile(&and_all(trigger_checks)));
        }

        // --- Aggregate analysis.
        let agg_spec = rule.head.args.iter().find_map(|a| match a {
            HeadArg::Agg(spec) => Some(spec),
            _ => None,
        });
        let agg_plan = match agg_spec {
            None => None,
            Some(spec) => {
                let table = self.choose_agg_table(rule, spec, other_tables)?;
                Some(AggPlan { spec, table })
            }
        };
        let join_tables: Vec<&Predicate> = other_tables
            .iter()
            .copied()
            .filter(|p| agg_plan.as_ref().is_none_or(|a| !std::ptr::eq(*p, a.table)))
            .collect();

        // --- Equijoins against materialized tables.
        for pred in &join_tables {
            let base = layout.len();
            let binding = layout
                .bind_predicate(pred, true)
                .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
            let table = self.table_id(rule, &pred.name)?;
            self.declare_probe_index(table, &binding.join_keys);
            let key = binding.join_keys.clone();
            strand.ops.push(FusedStrand::probe_op(table, key));

            let mut checks: Vec<PExpr> = Vec::new();
            for (col, value) in &binding.const_checks {
                checks.push(PExpr::bin(
                    BinOp::Eq,
                    PExpr::Field(base + col),
                    PExpr::Const(value.clone()),
                ));
            }
            for (a, b) in &binding.repeat_checks {
                checks.push(PExpr::bin(
                    BinOp::Eq,
                    PExpr::Field(base + a),
                    PExpr::Field(base + b),
                ));
            }
            if !checks.is_empty() {
                strand.filter(PelProgram::compile(&and_all(checks)));
            }
        }

        // --- Anti-joins for negated predicates.
        for pred in rule.negated_predicates() {
            let binding = layout
                .bind_predicate(pred, false)
                .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
            if !binding.const_checks.is_empty() || !binding.repeat_checks.is_empty() {
                return Err(PlanError::in_rule(
                    &rule.id,
                    format!(
                        "negated predicate `{}` may only contain variables and wildcards",
                        pred.name
                    ),
                ));
            }
            let table = self.table_id(rule, &pred.name)?;
            self.declare_probe_index(table, &binding.join_keys);
            strand
                .ops
                .push(FusedStrand::anti_op(table, binding.join_keys));
        }

        // --- Assignments (dependency order), excluding the aggregate
        // expression which is evaluated inside the aggregation.
        let agg_var = agg_plan.as_ref().and_then(|a| a.spec.var.clone());
        let mut pending: Vec<(&String, &OExpr)> = rule
            .body
            .iter()
            .filter_map(|t| match t {
                BodyTerm::Assign { var, expr } => Some((var, expr)),
                _ => None,
            })
            .filter(|(var, _)| agg_var.as_deref() != Some(var.as_str()))
            .collect();
        let agg_assignment: Option<&OExpr> = rule.body.iter().find_map(|t| match t {
            BodyTerm::Assign { var, expr } if Some(var.clone()) == agg_var => Some(expr),
            _ => None,
        });
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            let mut remaining = Vec::new();
            for (var, expr) in pending {
                match layout.compile_expr(expr) {
                    Ok(compiled) => {
                        let expr = PelProgram::compile(&compiled);
                        strand.ops.push(StrandOp::Assign(expr));
                        layout.push_var(var.clone());
                        progress = true;
                    }
                    Err(_) => remaining.push((var, expr)),
                }
            }
            pending = remaining;
        }
        let unresolved_assignments = pending;
        if !unresolved_assignments.is_empty() && agg_plan.is_none() {
            let vars: Vec<&String> = unresolved_assignments.iter().map(|(v, _)| *v).collect();
            return Err(PlanError::in_rule(
                &rule.id,
                format!(
                    "assignments to {vars:?} reference variables bound by no table in this strand"
                ),
            ));
        }

        // --- Conditions: those compilable now become a selection; the rest
        // must reference the aggregate table and become the aggregation's
        // filter.
        let mut pre_conditions: Vec<PExpr> = Vec::new();
        let mut deferred_conditions: Vec<&OExpr> = Vec::new();
        for term in &rule.body {
            if let BodyTerm::Condition(expr) = term {
                match layout.compile_expr(expr) {
                    Ok(compiled) => pre_conditions.push(compiled),
                    Err(e) => {
                        if agg_plan.is_some() {
                            deferred_conditions.push(expr);
                        } else {
                            return Err(PlanError::in_rule(&rule.id, e.message));
                        }
                    }
                }
            }
        }
        if !pre_conditions.is_empty() {
            strand.filter(PelProgram::compile(&and_all(pre_conditions)));
        }

        // --- Aggregation.
        let mut agg_field: Option<usize> = None;
        if let Some(aggp) = &agg_plan {
            let pred = aggp.table;
            let base = layout.len();
            let mut agg_layout = layout.clone();
            let binding = agg_layout
                .bind_predicate(pred, true)
                .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
            // Conjuncts of the shape `event field == row column` — the
            // variables the predicate shares with the strand, and explicit
            // conditions such as R5's `B == A` — can be served by the
            // table's access path instead of per-row PEL; the rest is the
            // probe's residual filter.
            let mut equalities: Vec<(usize, usize)> = binding.join_keys.clone();
            let mut filter: Vec<PExpr> = Vec::new();
            for (col, value) in &binding.const_checks {
                filter.push(PExpr::bin(
                    BinOp::Eq,
                    PExpr::Field(base + col),
                    PExpr::Const(value.clone()),
                ));
            }
            for (a, b) in &binding.repeat_checks {
                filter.push(PExpr::bin(
                    BinOp::Eq,
                    PExpr::Field(base + a),
                    PExpr::Field(base + b),
                ));
            }
            for cond in deferred_conditions {
                let compiled = agg_layout
                    .compile_expr(cond)
                    .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
                match event_row_equality(&compiled, base) {
                    Some(pair) => equalities.push(pair),
                    None => filter.push(compiled),
                }
            }
            let table = self.table_id(rule, &pred.name)?;
            let key = self.agg_probe_key(table, pred, &equalities);
            for (field, col) in equalities.iter().filter(|pair| !key.contains(pair)) {
                filter.push(PExpr::bin(
                    BinOp::Eq,
                    PExpr::Field(*field),
                    PExpr::Field(base + col),
                ));
            }
            // Any assignment that could not be applied earlier must be
            // definable over the aggregate table's columns; it can only be
            // the aggregate expression itself (checked below).
            if !unresolved_assignments.is_empty() {
                let offending: Vec<&String> = unresolved_assignments
                    .iter()
                    .map(|(v, _)| *v)
                    .filter(|v| Some((*v).clone()) != agg_var)
                    .collect();
                if !offending.is_empty() {
                    return Err(PlanError::in_rule(
                        &rule.id,
                        format!(
                            "assignments to {offending:?} depend on the aggregated table `{}` and \
                             cannot be evaluated outside the aggregate",
                            pred.name
                        ),
                    ));
                }
            }
            let agg_expr = match (&aggp.spec.var, agg_assignment) {
                (None, _) => PExpr::Const(Value::Int(1)),
                (Some(var), _) if agg_layout.is_bound(var) => {
                    PExpr::Field(agg_layout.get(var).expect("checked bound"))
                }
                (Some(_), Some(assign_expr)) => agg_layout
                    .compile_expr(assign_expr)
                    .map_err(|e| PlanError::in_rule(&rule.id, e.message))?,
                (Some(var), None) => {
                    return Err(PlanError::in_rule(
                        &rule.id,
                        format!(
                        "aggregate variable `{var}` is bound by neither a table nor an assignment"
                    ),
                    ))
                }
            };
            let filter = if filter.is_empty() {
                None
            } else {
                Some(PelProgram::compile(&and_all(filter)))
            };
            let agg_expr = PelProgram::compile(&agg_expr);
            let func = aggp.spec.func;
            let group_cols = if key.is_empty() {
                self.agg_probe_group_index(table, func, filter.as_ref(), &agg_expr, base)
            } else {
                None
            };
            let agg = AggOp::new(table, pred.args.len(), func, filter, agg_expr).with_key(key);
            strand.ops.push(
                match group_cols {
                    Some(cols) => agg.with_group_index(cols),
                    None => agg,
                }
                .into(),
            );
            layout = agg_layout;
            agg_field = Some(layout.push_anonymous());
        }

        // --- Head projection.
        let mut fields: Vec<PelProgram> = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg {
                HeadArg::Expr(e) => {
                    let compiled = layout
                        .compile_expr(e)
                        .map_err(|e| PlanError::in_rule(&rule.id, e.message))?;
                    fields.push(PelProgram::compile(&compiled));
                }
                HeadArg::Agg(_) => {
                    let pos = agg_field.ok_or_else(|| {
                        PlanError::in_rule(
                            &rule.id,
                            "aggregate head argument without an aggregate plan",
                        )
                    })?;
                    fields.push(PelProgram::compile(&PExpr::Field(pos)));
                }
            }
        }
        strand.head_fields = fields;
        strand.out_name = rule.head.name.as_str().into();
        Ok(strand)
    }

    /// Makes `strand`'s output slot its rule's head: a delete of the head
    /// table, a send by the head's location whose local side goes to the
    /// head predicate's dispatch, or, with no location, that dispatch.
    fn route_head(&mut self, rule: &Rule, strand: usize) -> Result<(), PlanError> {
        if rule.delete {
            let body_loc = rule
                .positive_predicates()
                .iter()
                .find_map(|p| p.location.clone());
            if rule.head.location.is_some() && rule.head.location != body_loc {
                return Err(PlanError::in_rule(
                    &rule.id,
                    "delete rules must target the local node's table",
                ));
            }
            let table = self.table_id(rule, &rule.head.name)?;
            self.wiring.set_head(strand, 0, Head::Delete { table });
            self.delete_strands
                .entry(rule.head.name.clone())
                .or_default()
                .push(strand);
            return Ok(());
        }

        let dispatch = self
            .dispatch_of(&rule.head.name)
            .expect("every head has a dispatch");
        let head = match &rule.head.location {
            // No location specifier: the tuple stays local.
            None => Head::Local(dispatch),
            Some(loc) => Head::Located {
                dest_field: Self::head_dest_field(rule, loc)?,
                dispatch,
            },
        };
        self.wiring.set_head(strand, 0, head);
        Ok(())
    }

    /// The head-argument position carrying the head's location variable
    /// (the field a located head reads the destination from).
    fn head_dest_field(rule: &Rule, loc: &str) -> Result<usize, PlanError> {
        rule.head
            .args
            .iter()
            .position(|a| match a {
                HeadArg::Expr(OExpr::Var(v)) => v == loc,
                HeadArg::Agg(spec) => spec.var.as_deref() == Some(loc),
                _ => false,
            })
            .ok_or_else(|| {
                PlanError::in_rule(
                    &rule.id,
                    format!("head location variable `{loc}` must appear among the head arguments"),
                )
            })
    }

    /// Builds the materialized-aggregate strand for a rule whose body is a
    /// single table and whose head aggregates over it.
    fn build_table_agg_strand(&mut self, rule: &Rule, pred: &Predicate) -> Result<(), PlanError> {
        let spec = rule
            .head
            .args
            .iter()
            .find_map(|a| match a {
                HeadArg::Agg(s) => Some(s),
                _ => None,
            })
            .expect("caller checked has_aggregate");

        if rule
            .body
            .iter()
            .any(|t| matches!(t, BodyTerm::Condition(_) | BodyTerm::Assign { .. }))
        {
            // Appendix rules of this shape (S1, N3) have no extra terms; the
            // assignment-carrying ones (N2) are stream-triggered instead.
            return Err(PlanError::in_rule(
                &rule.id,
                "materialized aggregates support only a bare table predicate in the body",
            ));
        }

        // Column of each table field, per variable.
        let mut columns: HashMap<&str, usize> = HashMap::new();
        for (col, arg) in pred.args.iter().enumerate() {
            if let OExpr::Var(v) = arg {
                columns.entry(v.as_str()).or_insert(col);
            }
        }

        let mut group_cols = Vec::new();
        for arg in &rule.head.args {
            match arg {
                HeadArg::Agg(_) => {}
                HeadArg::Expr(OExpr::Var(v)) => {
                    let col = columns.get(v.as_str()).ok_or_else(|| {
                        PlanError::in_rule(
                            &rule.id,
                            format!("head variable `{v}` is not a column of `{}`", pred.name),
                        )
                    })?;
                    group_cols.push(*col);
                }
                HeadArg::Expr(other) => {
                    return Err(PlanError::in_rule(
                        &rule.id,
                        format!(
                        "materialized aggregate heads must use plain variables, found {other:?}"
                    ),
                    ))
                }
            }
        }
        let agg_col = match &spec.var {
            None => None,
            Some(v) => Some(*columns.get(v.as_str()).ok_or_else(|| {
                PlanError::in_rule(
                    &rule.id,
                    format!(
                        "aggregate variable `{v}` is not a column of `{}`",
                        pred.name
                    ),
                )
            })?),
        };

        let table = self.table_id(rule, &pred.name)?;
        let agg_id = self.add(
            format!("{}:tableagg:{}", rule.id, pred.name),
            ElementSpec::TableAgg {
                table,
                func: spec.func,
                agg_col,
                group_cols: group_cols.clone(),
                out_name: format!("{}#tagg", rule.id).into(),
            },
        );
        self.table_aggs
            .entry(pred.name.clone())
            .or_default()
            .push(agg_id);

        // The TableAgg emits (group values in head order, aggregate); project
        // into the head's declared argument order.
        let group_len = group_cols.len();
        let mut group_cursor = 0usize;
        let mut fields = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg {
                HeadArg::Agg(_) => fields.push(PelProgram::compile(&PExpr::Field(group_len))),
                HeadArg::Expr(_) => {
                    fields.push(PelProgram::compile(&PExpr::Field(group_cursor)));
                    group_cursor += 1;
                }
            }
        }
        let head = self.add_strand(
            rule,
            StrandSpec {
                head_fields: fields,
                out_name: rule.head.name.as_str().into(),
                ..StrandSpec::default()
            },
        );
        self.wiring.connect(agg_id, 0, head, 0);
        self.route_head(rule, head)
    }

    /// Chooses which table predicate an aggregate rule aggregates over.
    ///
    /// Preference order: a table that binds the aggregate variable directly;
    /// otherwise a non-singleton table (declared size ≠ 1) binding a variable
    /// used in the aggregate's defining assignment; otherwise the last
    /// candidate in body order. (Singleton tables such as `node` act as
    /// parameters, not as the collection being aggregated.)
    fn choose_agg_table<'r>(
        &self,
        rule: &Rule,
        spec: &AggSpec,
        candidates: &[&'r Predicate],
    ) -> Result<&'r Predicate, PlanError> {
        if candidates.is_empty() {
            return Err(PlanError::in_rule(
                &rule.id,
                "an aggregate rule must join at least one materialized table to aggregate over",
            ));
        }
        if candidates.len() == 1 {
            return Ok(candidates[0]);
        }
        let binds = |pred: &Predicate, var: &str| {
            pred.args
                .iter()
                .any(|a| matches!(a, OExpr::Var(v) if v == var))
        };
        if let Some(var) = &spec.var {
            if let Some(p) = candidates.iter().find(|p| binds(p, var)) {
                return Ok(p);
            }
            // The aggregate variable is assignment-defined; look at the
            // variables feeding that assignment.
            let assign_vars: Vec<String> = rule
                .body
                .iter()
                .find_map(|t| match t {
                    BodyTerm::Assign { var: v, expr } if v == var => Some(expr.variables()),
                    _ => None,
                })
                .unwrap_or_default();
            let non_singleton = |pred: &Predicate| {
                self.program
                    .materialization(&pred.name)
                    .map(|m| m.max_size != SizeBound::Rows(1))
                    .unwrap_or(true)
            };
            if let Some(p) = candidates
                .iter()
                .find(|p| non_singleton(p) && assign_vars.iter().any(|v| binds(p, v)))
            {
                return Ok(p);
            }
        }
        Ok(candidates[candidates.len() - 1])
    }

    /// Builds the `periodic` source spec for a rule.
    fn make_periodic(&self, rule: &Rule, pred: &Predicate) -> Result<ElementSpec, PlanError> {
        if pred.args.len() < 3 {
            return Err(PlanError::in_rule(
                &rule.id,
                "`periodic` requires at least (Node, EventId, Period) arguments",
            ));
        }
        let period_value = match &pred.args[2] {
            OExpr::Const(v) => v.clone(),
            other => {
                return Err(PlanError::in_rule(
                    &rule.id,
                    format!("`periodic` period must be a constant, found {other:?}"),
                ))
            }
        };
        let period = period_value
            .to_double()
            .map_err(|_| PlanError::in_rule(&rule.id, "`periodic` period must be numeric"))?;
        let mut count = None;
        let mut extra = Vec::new();
        for arg in pred.args.iter().skip(3) {
            match arg {
                OExpr::Const(v) => {
                    if count.is_none() {
                        count = Some(v.to_int().map_err(|_| {
                            PlanError::in_rule(&rule.id, "`periodic` count must be an integer")
                        })? as u64);
                    }
                    extra.push(v.clone());
                }
                other => {
                    return Err(PlanError::in_rule(
                        &rule.id,
                        format!("`periodic` extra arguments must be constants, found {other:?}"),
                    ))
                }
            }
        }
        Ok(ElementSpec::Periodic {
            period,
            count,
            period_value,
            extra_args: extra,
        })
    }
}

/// Recognizes `Field(a) == Field(b)` with one side in the event part of
/// the joined layout (`< base`) and the other in the row part, returning
/// `(event field, row column)`.
fn event_row_equality(expr: &PExpr, base: usize) -> Option<(usize, usize)> {
    let PExpr::Binary(BinOp::Eq, lhs, rhs) = expr else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (PExpr::Field(a), PExpr::Field(b)) if *a < base && *b >= base => Some((*a, b - base)),
        (PExpr::Field(a), PExpr::Field(b)) if *b < base && *a >= base => Some((*b, a - base)),
        _ => None,
    }
}

/// Conjunction of a non-empty list of boolean expressions.
fn and_all(mut exprs: Vec<PExpr>) -> PExpr {
    let mut acc = exprs.remove(0);
    for e in exprs {
        acc = PExpr::bin(BinOp::And, acc, e);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::compile_checked;

    fn plan_src(src: &str) -> Result<Planned, PlanError> {
        let program = compile_checked(src).expect("program should parse and validate");
        let shared = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter())?;
        Ok(shared.instantiate("n1", 7))
    }

    /// The index of the element labelled `name`.
    fn element_at(plan: &PlannedProgram, name: &str) -> usize {
        let routing = plan.routing();
        (0..routing.len())
            .find(|&i| &**routing.name(i) == name)
            .unwrap_or_else(|| panic!("no element {name}"))
    }

    #[test]
    fn plans_a_minimal_ping_program() {
        let src = r#"
            materialize(node, infinity, 1, keys(1)).
            P1 ping@Y(Y, X, E) :- pingEvent@X(X, Y, E).
            P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
        "#;
        let planned = plan_src(src).unwrap();
        let desc = planned.engine.describe();
        // Bare head projections are op-less strands, and their elements
        // are all the plan has besides the table's insert bridge.
        assert!(desc.starts_with(
            "[0] insert:node (Insert)\n[1] P1:strand (FusedStrand)\n\
             [2] P2:strand (FusedStrand)\n"
        ));
        // Each head sends to its location or, when it is this node, hands
        // the tuple to its predicate's dispatch: P1's `ping` triggers P2.
        assert!(desc.contains("  1:0 => send to field 0, or dispatch ping\n"));
        assert!(desc.contains("  2:0 => send to field 0, or dispatch pong\n"));
        assert!(desc.contains("  dispatch ping -> 2:0\n  dispatch pingEvent -> 1:0\n"));
        assert!(!desc.contains("+1 levels"), "{desc}");
        assert_eq!(planned.engine.len(), 3);
    }

    #[test]
    fn plans_periodic_join_and_aggregate_rules() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            materialize(sequence, infinity, 1, keys(1)).
            R1 refreshEvent@X(X) :- periodic@X(X, E, 3).
            R2 refreshSeq@X(X, NewSeq) :- refreshEvent@X(X), sequence@X(X, Seq), NewSeq := Seq + 1.
            R3 sequence@X(X, NewS) :- refreshSeq@X(X, NewS).
            P0 pingEvent@X(X, Y, E, max<R>) :- periodic@X(X, E, 2), member@X(X, Y, S, T, L), R := f_rand().
            S1 memberCount@X(X, count<*>) :- member@X(X, A, S, T, L).
        "#;
        let planned = plan_src(src).unwrap();
        let desc = planned.engine.describe();
        assert!(desc.contains("Periodic"));
        // R2's three steps (probe, assignment, head) leave the strand's
        // output two levels late; P0's two (aggregation, head) one level.
        let shared = PlannedProgram::compile(
            &compile_checked(src).unwrap(),
            &PlanConfig::new().without_jitter(),
        )
        .unwrap();
        let (r2, p0) = (
            element_at(&shared, "R2:strand"),
            element_at(&shared, "P0:strand"),
        );
        let routing = shared.routing();
        let delayed: Vec<(usize, u32)> = (0..routing.len())
            .map(|e| (e, routing.delay_of(e, 0)))
            .filter(|&(_, levels)| levels > 0)
            .collect();
        assert_eq!(delayed, [(r2, 2), (p0, 1)]);
        assert_eq!(planned.engine.delay_of(r2, 0), 2);
        // S1 is a materialized aggregate feeding an op-less head strand.
        assert!(desc.contains("S1:tableagg:member"));
        assert!(desc.contains("S1:strand"), "{desc}");
        assert!(planned.catalog().get("member").is_some());
    }

    /// Every rule lowers to strands: rule bodies compile to no element
    /// kind other than a strand, whatever their shape.
    #[test]
    fn fusion_can_be_disabled_and_counts_strands() {
        let src = r#"
            materialize(sequence, infinity, 1, keys(1)).
            materialize(link, infinity, infinity, keys(1, 2)).
            R1 refreshSeq@X(X, NewSeq) :- refreshEvent@X(X), sequence@X(X, Seq), NewSeq := Seq + 1.
            R2 hop2@X(X, C) :- ev@X(X, A), link@X(X, A, B), link@X(X, B, C), not link@X(X, C, A).
            R3 fanout@X(X, count<*>) :- ev@X(X, A), link@X(X, A, B).
            R4 seen@X(X, A) :- ev@X(X, A).
            R5 linkCount@X(X, count<*>) :- link@X(X, A, B).
        "#;
        let program = compile_checked(src).unwrap();
        let plan = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        let meta = plan.obs_meta();
        let rule_kinds: BTreeSet<(&str, &str)> = meta
            .elems
            .iter()
            .filter_map(|e| Some((e.rule.as_deref()?, e.kind.as_str())))
            .collect();
        let rules = ["R1", "R2", "R3", "R4", "R5"];
        let expected: BTreeSet<(&str, &str)> = rules
            .iter()
            .map(|&r| (r, "strand"))
            .chain([("R5", "table_agg")])
            .collect();
        assert_eq!(rule_kinds, expected);
        let strands = meta.elems.iter().filter(|e| e.kind == ElemKind::Strand);
        assert_eq!(strands.count(), 5);
    }

    /// A rule drawing on the RNG lowers like any other: it draws once per
    /// matched row, in lookup order, inside the strand's one call, so the
    /// same seed gives the same outputs.
    #[test]
    fn rng_rules_are_never_fused() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 pick@A(A, X, R) :- ev@X(X), member@X(X, A, S), R := f_rand().
        "#;
        let program = compile_checked(src).unwrap();
        let plan = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        assert!(plan
            .instantiate("n1", 1)
            .engine
            .describe()
            .contains("R1:strand"));
        let run = |seed: u64| {
            let mut node = plan.instantiate("n1", seed);
            node.engine.start(p2_value::SimTime::ZERO);
            let at = p2_value::SimTime::from_secs(1);
            for a in ["a", "b", "c"] {
                let row = vec![Value::str("n1"), Value::str(a), Value::Int(0)];
                node.engine.deliver(p2_value::Tuple::new("member", row), at);
            }
            let ev = p2_value::Tuple::new("ev", vec![Value::str("n1")]);
            let mut picks = node.engine.deliver(ev.clone(), at);
            picks.extend(node.engine.deliver(ev, at));
            picks
        };
        let picks = run(7);
        assert_eq!(picks, run(7));
        // Six rows (two events over three members), each with the next
        // draw of the node's RNG.
        let draw = PelProgram::compile(&PExpr::Call(p2_pel::Builtin::Rand, vec![]));
        let mut rng = p2_pel::EvalContext::new("n1", 7);
        let empty = p2_value::Tuple::new("x", vec![]);
        let draws: Vec<Value> = (0..6)
            .map(|_| draw.eval(&empty, &mut rng).unwrap())
            .collect();
        let drawn: Vec<Value> = picks.iter().map(|o| o.tuple.field(2).clone()).collect();
        assert_eq!(drawn, draws);
        let members: Vec<&Value> = picks.iter().map(|o| o.tuple.field(0)).collect();
        assert_eq!(members[..3], members[3..]);
    }

    #[test]
    fn fused_strand_matches_generic_chain_end_to_end() {
        // Probe, condition, assignment and head in one strand, delivered
        // through the node's demultiplexer.
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 out@Y(Y, X, D) :- ev@X(X, Y), member@X(X, Y, S), S > 1, D := S + 10.
        "#;
        let program = compile_checked(src).unwrap();
        let mut planned = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter())
            .unwrap()
            .instantiate("n1", 7);
        planned.engine.start(p2_value::SimTime::ZERO);
        for (y, s) in [("n7", 5i64), ("n8", 1), ("n9", 3)] {
            let member = p2_value::Tuple::new(
                "member",
                vec![Value::str("n1"), Value::str(y), Value::Int(s)],
            );
            planned
                .engine
                .deliver(member, p2_value::SimTime::from_secs(1));
        }
        let mut out = |y: &str| {
            let ev = p2_value::Tuple::new("ev", vec![Value::str("n1"), Value::str(y)]);
            planned.engine.deliver(ev, p2_value::SimTime::from_secs(2))
        };
        let sent = out("n7");
        assert_eq!(sent.len(), 1);
        assert_eq!(&*sent[0].dst, "n7");
        assert_eq!(
            sent[0].tuple.values(),
            [Value::str("n7"), Value::str("n1"), Value::Int(15)]
        );
        // n8's S fails the condition; n5 has no member row.
        assert!(out("n8").is_empty());
        assert!(out("n5").is_empty());
    }

    #[test]
    fn plans_delete_rules_to_delete_elements() {
        let src = r#"
            materialize(neighbor, infinity, infinity, keys(2)).
            L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
        "#;
        let mut planned = plan_src(src).unwrap();
        // The rule is a strand whose head deletes from `neighbor` (table 0):
        // no delete element.
        let desc = planned.engine.describe();
        assert!(desc.contains("[1] L3:strand (FusedStrand)\n"), "{desc}");
        assert!(desc.contains("  1:0 => delete from table 0\n"), "{desc}");
        assert_eq!(planned.engine.len(), 2);

        let at = p2_value::SimTime::from_secs(1);
        let pair =
            |name: &str, y: &str| p2_value::Tuple::new(name, vec![Value::str("n1"), Value::str(y)]);
        planned.engine.start(p2_value::SimTime::ZERO);
        for y in ["n2", "n3"] {
            planned.engine.deliver(pair("neighbor", y), at);
        }
        planned.engine.deliver(pair("deadNeighbor", "n2"), at);
        let rows = planned.catalog().get("neighbor").unwrap().len();
        assert_eq!(rows, 1);
        assert_eq!(planned.engine.stats().malformed_heads, 0);
    }

    #[test]
    fn rejects_stream_stream_joins() {
        let src = r#"
            R1 out@X(X, Y) :- a@X(X, Y), b@X(X, Y).
        "#;
        let err = plan_src(src).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("stream-stream"), "{err}");
    }

    #[test]
    fn rejects_delete_of_non_table() {
        let src = r#"
            R1 delete ghost@X(X) :- trigger@X(X).
        "#;
        let err = plan_src(src).map(|_| ()).unwrap_err();
        assert!(
            err.to_string().contains("not a materialized table"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_head_location_argument() {
        let src = r#"
            R1 out@Y(X) :- trigger@X(X, Y).
        "#;
        let err = plan_src(src).map(|_| ()).unwrap_err();
        assert!(
            err.to_string()
                .contains("must appear among the head arguments"),
            "{err}"
        );
    }

    #[test]
    fn rejects_aggregate_without_table() {
        let src = r#"
            R1 out@X(X, count<*>) :- trigger@X(X, Y).
        "#;
        let err = plan_src(src).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("aggregate"), "{err}");
    }

    #[test]
    fn watches_create_collectors() {
        let src = r#"
            P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
        "#;
        let program = compile_checked(src).unwrap();
        let planned =
            PlannedProgram::compile(&program, &PlanConfig::new().watch("pong").without_jitter())
                .unwrap()
                .instantiate("n1", 7);
        assert!(planned.collectors.contains_key("pong"));
    }

    #[test]
    fn secondary_indices_are_created_for_join_columns() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 out@X(X, A) :- trigger@X(X, A), member@X(X, A, S, T, L).
        "#;
        let planned = plan_src(src).unwrap();
        let indexes = planned.catalog().get("member").unwrap().indexes();
        assert!(indexes.contains(&vec![0, 1]), "indexes: {indexes:?}");
    }

    /// Narada's R5 keys its `count<*>` probe on `member`'s primary key
    /// (the explicit `B == A`; the shared location `X` stays a residual
    /// check) while Chord's L2/L3, which share only the location with
    /// `finger`, carry no key and no secondary index: each reads `finger`
    /// through a group index over the row columns it loads.
    #[test]
    fn aggregate_probes_take_the_join_access_path() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            materialize(node, infinity, 1, keys(1)).
            materialize(finger, 180, 160, keys(2)).
            R5 membersFound@X(X, A, AS, AL, count<*>) :- refreshMsg@X(X, Y, YS, A, AS, AL),
               member@X(X, B, BS, BT, BL), B == A.
            L2 bestLookupDist@NI(NI, K, R, E, min<D>) :- node@NI(NI, N),
               lookup@NI(NI, K, R, E), finger@NI(NI, I, B, BI), D := K - B - 1,
               B in (N, K).
            L3 lookup@BI(min<BI>, K, R, E) :- node@NI(NI, N),
               bestLookupDist@NI(NI, K, R, E, D), finger@NI(NI, I, B, BI),
               D == K - B - 1, B in (N, K).
        "#;
        let program = compile_checked(src).unwrap();
        let shared =
            PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        let key_of = |name: &str| match &shared.specs[element_at(&shared, name)] {
            ElementSpec::Strand(body) => match body.agg() {
                Some(agg) => agg.key().pairs().to_vec(),
                None => panic!("{name} does not aggregate"),
            },
            _ => panic!("{name} is not a strand"),
        };
        assert_eq!(key_of("R5:strand"), vec![(3, 1)]);
        assert_eq!(key_of("L2:strand"), vec![]);
        assert_eq!(key_of("L3:strand"), vec![]);
        // finger(NI, I, B, BI): L2 loads NI (the location check) and B, L3
        // also the aggregated BI.
        assert_eq!(
            shared.group_probes(),
            [("L2:strand", &[0, 2][..]), ("L3:strand", &[0, 2, 3][..])]
        );

        let mut node = shared.instantiate("n1", 7);
        let finger = node.catalog().get("finger").unwrap();
        assert!(finger.indexes().is_empty());
        assert_eq!(finger.group_indexes(), [vec![0, 2], vec![0, 2, 3]]);
        let member = node.catalog().get("member").unwrap();
        assert!(member.indexes().is_empty());
        assert!(member.group_indexes().is_empty());
        node.engine.start(p2_value::SimTime::ZERO);
        let at = p2_value::SimTime::from_secs(1);
        for i in 0..8i64 {
            let row = p2_value::Tuple::new(
                "member",
                vec![
                    Value::str("n1"),
                    Value::str(format!("m{i}")),
                    Value::Int(i),
                    Value::Int(0),
                    Value::Int(1),
                ],
            );
            node.engine.deliver(row, at);
        }
        let member_stats = |node: &Planned| node.catalog().get("member").unwrap().stats();
        let before = member_stats(&node);
        for a in ["m3", "nobody"] {
            let msg = p2_value::Tuple::new(
                "refreshMsg",
                vec![
                    Value::str("n1"),
                    Value::str("n2"),
                    Value::Int(9),
                    Value::str(a),
                    Value::Int(4),
                    Value::Int(1),
                ],
            );
            node.engine.deliver(msg, at);
        }
        let after = member_stats(&node);
        assert_eq!(after.primary_lookups - before.primary_lookups, 2);
        assert_eq!(after.full_scans, before.full_scans);
    }

    #[test]
    fn shared_plan_instantiates_identical_nodes() {
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            R1 out@X(X, A) :- trigger@X(X, A), member@X(X, A, S, T, L).
            S1 memberCount@X(X, count<*>) :- member@X(X, A, S, T, L).
        "#;
        let program = compile_checked(src).unwrap();
        let shared =
            PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        assert!(shared.element_count() > 0);
        assert!(shared.edge_count() > 0);
        assert!(shared.has_table("member"));
        assert!(!shared.has_table("trigger"));

        let a = shared.instantiate("n1", 1);
        let b = shared.instantiate("n2", 2);
        // Same compiled structure...
        assert_eq!(a.engine.describe(), b.engine.describe());
        // ...and table names, but independent per-node state.
        assert!(Arc::ptr_eq(&a.schema, &b.schema));
        assert!(
            !std::ptr::eq(
                a.catalog().get("member").unwrap(),
                b.catalog().get("member").unwrap()
            ),
            "nodes must not share table storage"
        );
    }

    /// Nodes instantiated from one plan share its routing table and every
    /// strand body, and run those bodies over tables of their own: a row
    /// one node stores is never seen by another node's probe.
    #[test]
    fn nodes_from_one_plan_share_routing_and_strand_bodies() {
        let src = r#"
            materialize(succ, infinity, 16, keys(2)).
            R1 found@S(S, X) :- ev@X(X), succ@X(X, S).
            R2 hop@T(T, X) :- ev@X(X), succ@X(X, S), succ@X(X, T), S != T.
            S1 succCount@X(X, count<*>) :- succ@X(X, S).
        "#;
        let program = compile_checked(src).unwrap();
        let plan = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        let mut a = plan.instantiate("na", 1);
        let mut b = plan.instantiate("nb", 2);
        assert!(Arc::ptr_eq(a.engine.routing(), plan.routing()));
        assert!(Arc::ptr_eq(a.engine.routing(), b.engine.routing()));
        assert_eq!(a.engine.describe(), b.engine.describe());

        let strand = |planned: &Planned, i: usize| {
            let element: &dyn std::any::Any = planned.engine.element(i);
            element
                .downcast_ref::<FusedStrand>()
                .map(|s| s.body().clone())
        };
        let mut strands = 0;
        for i in 0..a.engine.len() {
            let (Some(body_a), Some(body_b)) = (strand(&a, i), strand(&b, i)) else {
                assert!(strand(&b, i).is_none());
                continue;
            };
            strands += 1;
            assert!(Arc::ptr_eq(&body_a, &body_b), "element {i}");
        }
        assert_eq!(strands, 3);

        let t0 = p2_value::SimTime::ZERO;
        let at = p2_value::SimTime::from_secs(1);
        for node in [&mut a, &mut b] {
            node.engine.start(t0);
        }
        // Node A stores a row that node B's probe key would match: the
        // same trigger finds it on A and nothing on B.
        let succ = p2_value::Tuple::new("succ", vec![Value::str("nb"), Value::str("n5")]);
        a.engine.deliver(succ, at);
        assert_eq!(a.catalog().get("succ").unwrap().len(), 1);
        assert!(b.catalog().get("succ").unwrap().is_empty());
        let ev = p2_value::Tuple::new("ev", vec![Value::str("nb")]);
        let found = a.engine.deliver(ev.clone(), at);
        assert_eq!(found.len(), 1);
        assert_eq!(&*found[0].dst, "n5");
        assert!(b.engine.deliver(ev, at).is_empty());
    }

    #[test]
    fn shared_plan_resolves_facts_per_node() {
        let src = r#"
            materialize(landmark, infinity, 1, keys(1)).
            F0 landmark@NI(NI, "n0").
            J1 joinReq@LI(LI, NI) :- joinEvent@NI(NI), landmark@NI(NI, LI), LI != NI.
        "#;
        let program = compile_checked(src).unwrap();
        let shared =
            PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
        let facts = shared.facts_for("n5");
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].name(), "landmark");
        assert_eq!(facts[0].field(0), &Value::str("n5"));
        assert_eq!(facts[0].field(1), &Value::str("n0"));
    }
}

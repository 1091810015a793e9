//! Cross-layer observability: rule-level profiling and tuple provenance
//! tracing for the compiled dataflow engine.
//!
//! # Tap-point architecture
//!
//! The paper's pitch is that compiling OverLog to a dataflow graph makes the
//! running overlay *inspectable*: every rule firing is an element invocation
//! you can tap. This crate holds the passive data structures for those taps;
//! the taps themselves live in the layers that own the events:
//!
//! - **Compile time (`p2-core` planner).** `PlannedProgram` builds one
//!   [`ObsMeta`] per program: for every `ElementSpec` it records the element
//!   name, the owning rule id (parsed from the `"<rule>:"` name prefix the
//!   planner already assigns), the element kind, and the rule's
//!   `RuleClass` from the PR 8 analyzer (mirrored here as [`RuleClassBits`]
//!   so the engine does not depend on the frontend). Element indices in the
//!   instantiated engine equal spec indices, so the meta table is shared
//!   read-only (`Arc`) by every node of a cluster.
//! - **Run time (`p2-dataflow` engine).** When observability is enabled the
//!   engine owns one [`NodeObs`] (boxed option field — a single branch per
//!   push when disabled). The drain loop taps each element invocation with
//!   (emissions, sends, state-changed) deltas it already knows, and the
//!   element API gains `ElementCtx::note_state_change()` so stateful
//!   elements (table writers, incremental aggregates)
//!   can distinguish a real mutation from a soft-state refresh no-op.
//!   A **wasted poke** is an invocation of a pokeable element (a rule
//!   strand or a materialized aggregate) that produced zero emissions,
//!   zero sends and zero state change: a rule that was triggered and
//!   matched nothing, at the cost of one element call.
//! - **Trace mode.** Provenance tracing is content-addressed: the trace tag
//!   is a [`Value`] matched by equality against any tuple field. Chord
//!   lookups already thread a globally unique event id from `lookup` to
//!   `lookupResults` — including across the network, because the id rides
//!   *inside* the tuple — so tagging needs no envelope or simulator
//!   changes and is as deterministic as the simulation it observes.
//!   Tagged derivations are recorded into a bounded per-node ring buffer
//!   ([`TraceRing`]) as [`TraceEvent`]s: tuple received at the node entry,
//!   rule fired (element invocation consuming a tagged tuple), tagged
//!   tuple sent to a remote node. The harness drains the rings into a
//!   deterministic JSONL trace ([`trace_jsonl`]). Limitation: a derivation
//!   that projects the tag value away is not followed further.
//!
//! # Overhead contract
//!
//! - **Off (default):** one `Option` test per element invocation in the
//!   engine drain loop and nothing else — no allocation, no counters, no
//!   tuple inspection. Golden pins stay bit-identical because the taps
//!   never influence scheduling, routing or evaluation.
//! - **Profiling on:** a handful of integer increments per invocation into
//!   a dense per-element table; no allocation on the hot path.
//! - **Tracing on:** adds one equality scan over the tuple's fields per
//!   invocation; `TraceEvent` construction (allocating) happens only for
//!   tagged tuples. Ring capacity bounds memory; overflow increments a
//!   `dropped` counter rather than growing.
//!
//! Observability never changes engine behaviour: with taps on or off, the
//! same tuples flow in the same order and the golden determinism pins hold.

use std::sync::Arc;

use p2_value::{SimTime, Tuple, Value};
use serde::{Json, Serialize};

/// Delta-safety classification of a rule, mirrored from
/// `p2_overlog::analyze::RuleClass` so runtime crates need no frontend
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct RuleClassBits {
    /// Rule output is a deterministic function of its inputs.
    pub deterministic: bool,
    /// No side conditions beyond the joined tables (no aggregates etc.).
    pub pure: bool,
    /// Monotone in its positive body predicates.
    pub monotone: bool,
    /// Keyed soft-state refreshes provably cannot change the rule's output.
    pub refresh_transparent: bool,
}

/// What kind of element a spec compiled to (a stable, serializable mirror of
/// the planner's `ElementSpec` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    Demux,
    Insert,
    Delete,
    TableAgg,
    Strand,
    Periodic,
    NetOut,
    Collector,
}

impl ElemKind {
    /// Stable lowercase name used in reports and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            ElemKind::Demux => "demux",
            ElemKind::Insert => "insert",
            ElemKind::Delete => "delete",
            ElemKind::TableAgg => "table_agg",
            ElemKind::Strand => "strand",
            ElemKind::Periodic => "periodic",
            ElemKind::NetOut => "netout",
            ElemKind::Collector => "collector",
        }
    }

    /// Whether an invocation of this element counts as a *poke*: rule-body
    /// work that may find nothing to do. Every strand and materialized
    /// aggregate invocation is one. A poke that yields zero emissions, zero
    /// sends and zero state change is recorded as wasted. Forwarding/IO
    /// elements (demux, netout, periodic, collector) and table writers are
    /// excluded — their invocations are either unconditional plumbing or
    /// real mutations.
    pub fn pokeable(self) -> bool {
        matches!(self, ElemKind::Strand | ElemKind::TableAgg)
    }
}

/// Compile-time metadata for one element.
#[derive(Debug, Clone)]
pub struct ElemMeta {
    /// The planner-assigned element name (e.g. `"SU1:strand"`, `"insert:succ"`).
    pub name: Arc<str>,
    /// Owning rule id, if the element implements a rule body.
    pub rule: Option<Arc<str>>,
    /// Element kind.
    pub kind: ElemKind,
    /// Delta-safety class of the owning rule, if any.
    pub class: Option<RuleClassBits>,
}

/// Compile-time observability metadata for a whole program: one entry per
/// element, indexable by engine element index (== planner spec index).
#[derive(Debug, Clone, Default)]
pub struct ObsMeta {
    /// Per-element metadata in spec order.
    pub elems: Vec<ElemMeta>,
}

impl ObsMeta {
    /// Number of elements described.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when no elements are described.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }
}

/// Per-element profile counters. All counts are cumulative since enable (or
/// the last reset) and sum across nodes with [`merge_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ElemCounters {
    /// Tuple pushes into the element.
    pub invocations: u64,
    /// Tuples consumed (== invocations; kept separate from timer fires).
    pub tuples_in: u64,
    /// Tuples emitted downstream.
    pub emitted: u64,
    /// Tuples handed to the network layer.
    pub sent: u64,
    /// Invocations that mutated element-owned or table state.
    pub state_changes: u64,
    /// Pokes (invocations of a pokeable element) with zero emissions, zero
    /// sends and zero state change.
    pub wasted_pokes: u64,
    /// Timer callbacks delivered to the element.
    pub timer_fires: u64,
}

impl ElemCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ElemCounters) {
        self.invocations += other.invocations;
        self.tuples_in += other.tuples_in;
        self.emitted += other.emitted;
        self.sent += other.sent;
        self.state_changes += other.state_changes;
        self.wasted_pokes += other.wasted_pokes;
        self.timer_fires += other.timer_fires;
    }
}

/// Sums per-element counter tables from many nodes into one.
pub fn merge_counters(into: &mut Vec<ElemCounters>, from: &[ElemCounters]) {
    if into.len() < from.len() {
        into.resize(from.len(), ElemCounters::default());
    }
    for (dst, src) in into.iter_mut().zip(from) {
        dst.merge(src);
    }
}

/// What happened, for one [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A tagged tuple entered the node (local injection or network delivery).
    Recv,
    /// An element consumed a tagged tuple.
    Fire,
    /// A tagged tuple was handed to the network layer.
    Send,
}

impl TraceKind {
    /// Stable lowercase name used in the JSONL trace.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Recv => "recv",
            TraceKind::Fire => "fire",
            TraceKind::Send => "send",
        }
    }
}

/// One step of a tagged tuple's derivation cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Per-node monotone sequence number (engine processing order).
    pub seq: u64,
    /// Simulated time of the step, in microseconds.
    pub at: u64,
    /// Address of the node the step happened on.
    pub node: Arc<str>,
    /// Step kind.
    pub kind: TraceKind,
    /// Element name (`Fire` only; empty otherwise).
    pub elem: String,
    /// Owning rule id, when the element implements a rule.
    pub rule: Option<String>,
    /// Display form of the tuple involved.
    pub tuple: String,
    /// Total emissions of the invocation (`Fire` only).
    pub emitted: u64,
    /// Display forms of the *tagged* tuples emitted (`Fire` only).
    pub out: Vec<String>,
    /// Destination address (`Send` only).
    pub dst: Option<String>,
}

impl Serialize for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::UInt(self.seq)),
            ("at".to_string(), Json::UInt(self.at)),
            ("node".to_string(), Json::Str(self.node.to_string())),
            (
                "kind".to_string(),
                Json::Str(self.kind.as_str().to_string()),
            ),
        ];
        if self.kind == TraceKind::Fire {
            fields.push(("elem".to_string(), Json::Str(self.elem.clone())));
            fields.push((
                "rule".to_string(),
                match &self.rule {
                    Some(r) => Json::Str(r.clone()),
                    None => Json::Null,
                },
            ));
        }
        fields.push(("tuple".to_string(), Json::Str(self.tuple.clone())));
        if self.kind == TraceKind::Fire {
            fields.push(("emitted".to_string(), Json::UInt(self.emitted)));
            fields.push((
                "out".to_string(),
                Json::Array(self.out.iter().map(|s| Json::Str(s.clone())).collect()),
            ));
        }
        if let Some(dst) = &self.dst {
            fields.push(("dst".to_string(), Json::Str(dst.clone())));
        }
        Json::Object(fields)
    }
}

/// Bounded per-node trace buffer. Overflow drops the newest events (and
/// counts them) instead of growing, so a forgotten trace cannot exhaust
/// memory.
#[derive(Debug, Default)]
pub struct TraceRing {
    events: Vec<TraceEvent>,
    cap: usize,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    next_seq: u64,
}

/// Default per-node trace ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 65_536;

impl TraceRing {
    /// Creates a ring holding at most `cap` events.
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            events: Vec::new(),
            cap: cap.max(1),
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Appends an event (stamping its per-node sequence number), dropping it
    /// if the ring is full.
    pub fn push(&mut self, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// Removes and returns all buffered events, keeping the ring (and its
    /// sequence counter) live for further tracing.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Active trace state: the content-addressed tag plus the ring.
#[derive(Debug)]
pub struct TraceState {
    /// Tuples carrying this value in any field are traced.
    pub tag: Value,
    /// Buffered events.
    pub ring: TraceRing,
}

/// Per-engine observability state, owned by the engine behind
/// `Option<Box<NodeObs>>` so the disabled path costs one branch.
#[derive(Debug)]
pub struct NodeObs {
    meta: Arc<ObsMeta>,
    node: Arc<str>,
    counters: Vec<ElemCounters>,
    trace: Option<TraceState>,
}

impl NodeObs {
    /// Creates profiling state for a node; tracing starts disabled.
    pub fn new(meta: Arc<ObsMeta>, node: Arc<str>) -> NodeObs {
        let n = meta.len();
        NodeObs {
            meta,
            node,
            counters: vec![ElemCounters::default(); n],
            trace: None,
        }
    }

    /// The shared compile-time metadata.
    pub fn meta(&self) -> &Arc<ObsMeta> {
        &self.meta
    }

    /// The per-element counter table (index == engine element index).
    pub fn counters(&self) -> &[ElemCounters] {
        &self.counters
    }

    /// Resets all counters to zero (trace state is untouched).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = ElemCounters::default();
        }
    }

    /// Records one tuple push into element `idx`.
    #[inline]
    pub fn record_push(&mut self, idx: usize, emitted: u64, sent: u64, state_changed: bool) {
        let c = &mut self.counters[idx];
        c.invocations += 1;
        c.tuples_in += 1;
        c.emitted += emitted;
        c.sent += sent;
        if state_changed {
            c.state_changes += 1;
        }
        if emitted == 0 && sent == 0 && !state_changed && self.meta.elems[idx].kind.pokeable() {
            c.wasted_pokes += 1;
        }
    }

    /// Records one timer callback into element `idx`.
    #[inline]
    pub fn record_timer(&mut self, idx: usize, emitted: u64, sent: u64, state_changed: bool) {
        let c = &mut self.counters[idx];
        c.timer_fires += 1;
        c.emitted += emitted;
        c.sent += sent;
        if state_changed {
            c.state_changes += 1;
        }
    }

    /// Enables provenance tracing for tuples carrying `tag`, replacing any
    /// previous trace state.
    pub fn set_trace(&mut self, tag: Value, cap: usize) {
        self.trace = Some(TraceState {
            tag,
            ring: TraceRing::new(cap),
        });
    }

    /// Disables tracing, returning any buffered events.
    pub fn clear_trace(&mut self) -> Vec<TraceEvent> {
        self.trace
            .take()
            .map(|mut t| t.ring.drain())
            .unwrap_or_default()
    }

    /// True when tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// True when tracing is on and `tuple` carries the tag in any field.
    #[inline]
    pub fn tagged(&self, tuple: &Tuple) -> bool {
        match &self.trace {
            Some(t) => tuple.values().contains(&t.tag),
            None => false,
        }
    }

    /// Records a tagged tuple entering the node.
    pub fn trace_recv(&mut self, now: SimTime, tuple: &Tuple) {
        let node = self.node.clone();
        if let Some(t) = &mut self.trace {
            t.ring.push(TraceEvent {
                seq: 0,
                at: now.as_micros(),
                node,
                kind: TraceKind::Recv,
                elem: String::new(),
                rule: None,
                tuple: tuple.to_string(),
                emitted: 0,
                out: Vec::new(),
                dst: None,
            });
        }
    }

    /// Records an element consuming a tagged tuple. `out` iterates the
    /// invocation's emitted tuples; only tagged ones are included in the
    /// event. Generic over the iterator so the engine can feed its
    /// kind-tagged scratch buffer without this crate knowing the layout.
    pub fn trace_fire<'t>(
        &mut self,
        now: SimTime,
        idx: usize,
        tuple: &Tuple,
        emitted: u64,
        out: impl IntoIterator<Item = &'t Tuple>,
    ) {
        let node = self.node.clone();
        let meta = &self.meta.elems[idx];
        let elem = meta.name.to_string();
        let rule = meta.rule.as_ref().map(|r| r.to_string());
        if let Some(t) = &mut self.trace {
            let tagged_out: Vec<String> = out
                .into_iter()
                .filter(|tp| tp.values().contains(&t.tag))
                .map(|tp| tp.to_string())
                .collect();
            t.ring.push(TraceEvent {
                seq: 0,
                at: now.as_micros(),
                node,
                kind: TraceKind::Fire,
                elem,
                rule,
                tuple: tuple.to_string(),
                emitted,
                out: tagged_out,
                dst: None,
            });
        }
    }

    /// Records a tagged tuple being handed to the network layer.
    pub fn trace_send(&mut self, now: SimTime, dst: &str, tuple: &Tuple) {
        let node = self.node.clone();
        if let Some(t) = &mut self.trace {
            t.ring.push(TraceEvent {
                seq: 0,
                at: now.as_micros(),
                node,
                kind: TraceKind::Send,
                elem: String::new(),
                rule: None,
                tuple: tuple.to_string(),
                emitted: 0,
                out: Vec::new(),
                dst: Some(dst.to_string()),
            });
        }
    }

    /// Removes and returns buffered trace events (tracing stays enabled).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(t) => t.ring.drain(),
            None => Vec::new(),
        }
    }

    /// Trace events dropped due to ring overflow.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map(|t| t.ring.dropped).unwrap_or(0)
    }
}

/// Serializes trace events as deterministic JSONL: one compact JSON object
/// per line, in the order given.
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace event serializes"));
        out.push('\n');
    }
    out
}

/// Orders drained multi-node trace events deterministically: by simulated
/// time, then node address, then per-node sequence number.
pub fn sort_trace(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        a.at.cmp(&b.at)
            .then_with(|| a.node.cmp(&b.node))
            .then_with(|| a.seq.cmp(&b.seq))
    });
}

/// Aggregated profile for one rule (all its elements summed).
#[derive(Debug, Clone, Serialize)]
pub struct RuleProfile {
    /// Rule id (e.g. `"SU1"`).
    pub rule: String,
    /// Delta-safety class from the analyzer.
    pub class: Option<RuleClassBits>,
    /// Number of elements implementing the rule.
    pub elements: u64,
    /// Summed counters over those elements.
    pub counters: ElemCounters,
    /// Invocations of the rule's pokeable elements.
    pub pokes: u64,
    /// Pokes with zero emissions, sends and state change.
    pub wasted_pokes: u64,
    /// `wasted_pokes / pokes` (0 when no pokes).
    pub wasted_rate: f64,
}

/// Per-table insert profile: how many insert invocations were pure
/// soft-state refreshes (no state change).
#[derive(Debug, Clone, Serialize)]
pub struct TableProfile {
    /// Table name.
    pub table: String,
    /// Insert-element invocations.
    pub inserts: u64,
    /// Invocations that changed table state (new row, replacement, eviction).
    pub state_changes: u64,
    /// Refresh no-op inserts: `inserts - state_changes`.
    pub refresh_inserts: u64,
    /// `refresh_inserts / inserts` (0 when no inserts).
    pub refresh_rate: f64,
}

/// Poke/waste totals for a class bucket.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClassBucket {
    /// Rules in the bucket.
    pub rules: u64,
    /// Pokes into the bucket's rules.
    pub pokes: u64,
    /// Wasted pokes.
    pub wasted_pokes: u64,
    /// `wasted_pokes / pokes` (0 when no pokes).
    pub wasted_rate: f64,
}

impl ClassBucket {
    fn finish(&mut self) {
        self.wasted_rate = rate(self.wasted_pokes, self.pokes);
    }
}

/// Cluster-wide rule-level profile report.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Per-rule profiles, sorted by rule id.
    pub rules: Vec<RuleProfile>,
    /// Per-table insert refresh profiles, sorted by table name.
    pub tables: Vec<TableProfile>,
    /// Counters summed over elements not owned by any rule (demux, table
    /// writers, netout, ...).
    pub infra: ElemCounters,
    /// Counters summed over every element.
    pub totals: ElemCounters,
    /// Total pokes across all rules.
    pub total_pokes: u64,
    /// Total wasted pokes across all rules.
    pub total_wasted_pokes: u64,
    /// `total_wasted_pokes / total_pokes`. A count, not a cost: a wasted
    /// poke is usually a cheap call that finds no match.
    pub wasted_rate: f64,
    /// Bucket for refresh-transparent rules.
    pub refresh_transparent: ClassBucket,
    /// Bucket for classified rules that are not refresh-transparent.
    pub other_rules: ClassBucket,
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds the rule-level report from compile-time metadata plus a (possibly
/// cluster-merged) counter table.
pub fn build_report(meta: &ObsMeta, counters: &[ElemCounters]) -> ProfileReport {
    use std::collections::BTreeMap;

    let mut by_rule: BTreeMap<&str, RuleProfile> = BTreeMap::new();
    let mut by_table: BTreeMap<&str, TableProfile> = BTreeMap::new();
    let mut infra = ElemCounters::default();
    let mut totals = ElemCounters::default();

    for (em, c) in meta.elems.iter().zip(counters) {
        totals.merge(c);
        match &em.rule {
            Some(rule) => {
                let entry = by_rule.entry(rule.as_ref()).or_insert_with(|| RuleProfile {
                    rule: rule.to_string(),
                    class: em.class,
                    elements: 0,
                    counters: ElemCounters::default(),
                    pokes: 0,
                    wasted_pokes: 0,
                    wasted_rate: 0.0,
                });
                entry.elements += 1;
                entry.counters.merge(c);
                if em.kind.pokeable() {
                    entry.pokes += c.invocations;
                    entry.wasted_pokes += c.wasted_pokes;
                }
            }
            None => {
                infra.merge(c);
                if em.kind == ElemKind::Insert {
                    if let Some(table) = em.name.strip_prefix("insert:") {
                        let entry = by_table.entry(table).or_insert_with(|| TableProfile {
                            table: table.to_string(),
                            inserts: 0,
                            state_changes: 0,
                            refresh_inserts: 0,
                            refresh_rate: 0.0,
                        });
                        entry.inserts += c.invocations;
                        entry.state_changes += c.state_changes;
                    }
                }
            }
        }
    }

    let mut rules: Vec<RuleProfile> = by_rule.into_values().collect();
    let mut total_pokes = 0;
    let mut total_wasted = 0;
    let mut rt = ClassBucket::default();
    let mut other = ClassBucket::default();
    for r in &mut rules {
        r.wasted_rate = rate(r.wasted_pokes, r.pokes);
        total_pokes += r.pokes;
        total_wasted += r.wasted_pokes;
        let bucket = match r.class {
            Some(c) if c.refresh_transparent => &mut rt,
            _ => &mut other,
        };
        bucket.rules += 1;
        bucket.pokes += r.pokes;
        bucket.wasted_pokes += r.wasted_pokes;
    }
    rt.finish();
    other.finish();

    let mut tables: Vec<TableProfile> = by_table.into_values().collect();
    for t in &mut tables {
        t.refresh_inserts = t.inserts - t.state_changes.min(t.inserts);
        t.refresh_rate = rate(t.refresh_inserts, t.inserts);
    }

    ProfileReport {
        rules,
        tables,
        infra,
        totals,
        total_pokes,
        total_wasted_pokes: total_wasted,
        wasted_rate: rate(total_wasted, total_pokes),
        refresh_transparent: rt,
        other_rules: other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ObsMeta {
        let class_rt = RuleClassBits {
            deterministic: true,
            pure: true,
            monotone: true,
            refresh_transparent: true,
        };
        let class_other = RuleClassBits::default();
        ObsMeta {
            elems: vec![
                ElemMeta {
                    name: Arc::from("demux"),
                    rule: None,
                    kind: ElemKind::Demux,
                    class: None,
                },
                ElemMeta {
                    name: Arc::from("SU1:strand"),
                    rule: Some(Arc::from("SU1")),
                    kind: ElemKind::Strand,
                    class: Some(class_rt),
                },
                ElemMeta {
                    name: Arc::from("L2:strand"),
                    rule: Some(Arc::from("L2")),
                    kind: ElemKind::Strand,
                    class: Some(class_other),
                },
                ElemMeta {
                    name: Arc::from("insert:succ"),
                    rule: None,
                    kind: ElemKind::Insert,
                    class: None,
                },
            ],
        }
    }

    #[test]
    fn wasted_pokes_require_pokeable_and_no_effect() {
        let m = Arc::new(meta());
        let mut obs = NodeObs::new(m, Arc::from("n0"));
        // Demux: not pokeable, never wasted.
        obs.record_push(0, 0, 0, false);
        // Strand: emitted nothing -> wasted.
        obs.record_push(1, 0, 0, false);
        // Strand: emitted one -> not wasted.
        obs.record_push(1, 1, 0, false);
        // Strand: state change only -> not wasted.
        obs.record_push(1, 0, 0, true);
        assert_eq!(obs.counters()[0].wasted_pokes, 0);
        assert_eq!(obs.counters()[1].wasted_pokes, 1);
        assert_eq!(obs.counters()[1].invocations, 3);
        assert_eq!(obs.counters()[1].state_changes, 1);
    }

    #[test]
    fn report_buckets_by_rule_class() {
        let m = meta();
        let mut counters = vec![ElemCounters::default(); 4];
        counters[1] = ElemCounters {
            invocations: 10,
            tuples_in: 10,
            emitted: 4,
            sent: 0,
            state_changes: 0,
            wasted_pokes: 6,
            timer_fires: 0,
        };
        counters[2] = ElemCounters {
            invocations: 5,
            tuples_in: 5,
            emitted: 5,
            sent: 0,
            state_changes: 5,
            wasted_pokes: 0,
            timer_fires: 0,
        };
        counters[3] = ElemCounters {
            invocations: 8,
            tuples_in: 8,
            emitted: 8,
            sent: 0,
            state_changes: 2,
            wasted_pokes: 0,
            timer_fires: 0,
        };
        let report = build_report(&m, &counters);
        assert_eq!(report.rules.len(), 2);
        assert_eq!(report.total_pokes, 15);
        assert_eq!(report.total_wasted_pokes, 6);
        assert_eq!(report.refresh_transparent.rules, 1);
        assert_eq!(report.refresh_transparent.pokes, 10);
        assert_eq!(report.refresh_transparent.wasted_pokes, 6);
        assert!((report.refresh_transparent.wasted_rate - 0.6).abs() < 1e-12);
        assert_eq!(report.other_rules.pokes, 5);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].refresh_inserts, 6);
        assert!((report.tables[0].refresh_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counter_tables() {
        let a = vec![
            ElemCounters {
                invocations: 1,
                tuples_in: 1,
                emitted: 2,
                sent: 3,
                state_changes: 1,
                wasted_pokes: 0,
                timer_fires: 4,
            };
            2
        ];
        let mut acc = Vec::new();
        merge_counters(&mut acc, &a);
        merge_counters(&mut acc, &a);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].emitted, 4);
        assert_eq!(acc[1].timer_fires, 8);
    }

    #[test]
    fn tracing_is_content_addressed_and_deterministic() {
        let m = Arc::new(meta());
        let mut obs = NodeObs::new(m, Arc::from("n0"));
        let tag = Value::Int(1_000_042);
        obs.set_trace(tag.clone(), 8);
        let tagged = Tuple::new("lookup", vec![Value::str("n0"), tag.clone()]);
        let untagged = Tuple::new("lookup", vec![Value::str("n0"), Value::Int(7)]);
        assert!(obs.tagged(&tagged));
        assert!(!obs.tagged(&untagged));

        obs.trace_recv(SimTime::from_micros(10), &tagged);
        obs.trace_fire(
            SimTime::from_micros(10),
            1,
            &tagged,
            2,
            [&tagged, &untagged],
        );
        obs.trace_send(SimTime::from_micros(10), "n1", &tagged);
        let events = obs.drain_trace();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::Recv);
        assert_eq!(events[1].kind, TraceKind::Fire);
        // Only the tagged emission appears in `out`.
        assert_eq!(events[1].out.len(), 1);
        assert_eq!(events[2].kind, TraceKind::Send);
        assert_eq!(events[2].dst.as_deref(), Some("n1"));
        // Sequence numbers are per-node monotone and survive the drain.
        assert_eq!(events[2].seq, 2);
        obs.trace_recv(SimTime::from_micros(20), &tagged);
        assert_eq!(obs.drain_trace()[0].seq, 3);

        let jsonl = trace_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().next().unwrap().contains("\"kind\": \"recv\""));
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let mut ring = TraceRing::new(2);
        for i in 0..4 {
            ring.push(TraceEvent {
                seq: 0,
                at: i,
                node: Arc::from("n0"),
                kind: TraceKind::Recv,
                elem: String::new(),
                rule: None,
                tuple: String::new(),
                emitted: 0,
                out: Vec::new(),
                dst: None,
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped, 2);
    }
}

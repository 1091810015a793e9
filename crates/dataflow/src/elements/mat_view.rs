//! Incrementally maintained join views (classic counting / semi-naive
//! maintenance on the table delta streams).
//!
//! # What a view maintains — and what it emits
//!
//! A [`MatView`] implements every delta-triggered strand of one rule whose
//! body is a pure join over stored tables (the shapes `FusedStrand`
//! recognizes): one *input* per trigger table, each carrying that strand's
//! pre-filters, probe/filter/assign ops, and head projection. The element
//! does two separable jobs:
//!
//! * **Poke-driven emission.** When the engine pokes port `k` with a tuple
//!   just inserted into trigger table `k`, the view runs input `k`'s strand
//!   through the *same* executor as [`FusedStrand`]
//!   ([`crate::elements::strand::exec`]) and emits the head tuples on out
//!   port `k`. This path is bit-for-bit what the fused (and generic)
//!   lowering produces — including firing on soft-state *refreshes*, which
//!   change no table state and therefore emit **no delta**. Emission must
//!   stay poke-driven precisely because of refreshes: Chord's stabilization
//!   cascade (`pingResp` refreshing `succ`, re-firing SU0→SU1) only works,
//!   and only matches the golden pins, if refresh pokes re-derive.
//!
//! * **Delta-driven view state.** Independently, the view drains every
//!   input table's delta subscription and maintains the set of currently
//!   derivable head tuples with **provenance counts**: an insert delta
//!   derives through its input's strand and increments each derived row's
//!   count; a `Delete`/`Expire`/`Evict` delta derives the retracted
//!   combinations and decrements. A row whose count falls to zero is no
//!   longer derivable and is emitted on the **retraction port**
//!   (`inputs.len()`), which the planner leaves unconnected in the shipped
//!   lowering — the engine drops emissions on unwired ports — so golden
//!   behaviour is unchanged while tests, gates, and future consumers can
//!   wire it to observe exact retractions. Counts (not sets) are what make
//!   duplicate derivations correct: a row derivable two ways only retracts
//!   when its *last* derivation disappears.
//!
//! # Fallback semantics
//!
//! Any delta-queue overflow, or a decrement for a row the view does not
//! hold (cross-table drain skew — see below), flags a rebuild: the view
//! re-derives all counts from a counted scan of input 0's table (deriving
//! from any one trigger enumerates the full join) and reports it via
//! [`p2_table::Table::note_rebuild`]. Rows held before the rebuild but not
//! derivable after it are retracted (sorted, deterministic); new rows are
//! *not* re-emitted — their assertions were already produced by the
//! poke-driven path.
//!
//! Three fast paths keep maintenance off the hot poke path: a **quiet
//! check** (the subscription's lock-free pending flag) skips the
//! drain/replay entirely when nothing changed — the common case, since
//! soft-state refreshes log no delta; a **hold-out**: when the drained
//! batch ends with the poked tuple's own `Insert` delta, that delta is
//! not replayed separately — the poke's single derivation serves both the
//! live emission and the provenance increment; and **replacement
//! netting**: a keyed re-insert logs a `Delete`/`Insert` pair, and when
//! the two rows agree on every trigger field the strand reads (only a
//! column the rule projects away changed), the decrement and re-increment
//! would cancel exactly, so both deltas are dropped and the counts left
//! untouched.
//!
//! Counting maintenance assumes each delta is applied against the other
//! tables' state *at the time of the mutation*. That holds exactly when at
//! most one input changed since the last drain, so a sync batch with
//! deltas from **two or more** inputs (where each side's delta would probe
//! the other's already-updated table and count new pairings twice) also
//! falls back to a rebuild rather than counting incrementally. The
//! engine's run-to-completion cascades keep multi-input batches rare: the
//! view is poked, and drains, immediately after each insert. Planners must
//! not lower rules whose programs read the RNG or the clock (stale cached
//! derivations), nor rules whose strand probes its own trigger table (the
//! delta-time derivation would observe the post-mutation state of the very
//! table being replayed).

use std::collections::HashMap;

use p2_pel::{EvalContext, Program};
use p2_table::{DeltaSubscription, TableDelta, TableRef};
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};
use crate::elements::strand::{exec, StrandOp};

/// One trigger table of a materialized view: the delta source plus the
/// strand that derives head tuples from that trigger's bindings.
pub struct ViewInput {
    /// The trigger table.
    pub table: TableRef,
    /// Subscription to the trigger table's delta stream.
    pub sub: DeltaSubscription,
    /// Filters over the bare trigger tuple.
    pub pre_filters: Vec<Program>,
    /// The strand body (probes of the *other* tables, filters, assigns).
    pub ops: Vec<StrandOp>,
    /// Head projection over the virtual strand tuple.
    pub head_fields: Vec<Program>,
}

/// A materialized join view: poke-driven head emission identical to the
/// fused strands it replaces, plus a provenance-counted row set maintained
/// from the input tables' delta streams. See the module docs.
pub struct MatView {
    inputs: Vec<ViewInput>,
    /// Per input: the sorted trigger-tuple field indices its strand reads
    /// anywhere (pre-filters, probe keys, stream checks, filters, assigns,
    /// head projection). Two trigger rows agreeing on these fields derive
    /// identical head tuples — the basis of the replacement netting fast
    /// path (see `sync_holdout`).
    relevant: Vec<Vec<usize>>,
    out_name: String,
    /// Provenance counts: head-tuple values → number of distinct body
    /// combinations currently deriving them.
    counts: HashMap<Vec<Value>, usize>,
    needs_rebuild: bool,
    /// False until the first count build (initialization, not a fallback).
    built: bool,
    /// Reused delta drain buffer.
    scratch: Vec<TableDelta>,
    /// Reused assigned-values scratch for the strand executor.
    extras: Vec<Value>,
    /// Reused delta-time derivation buffer.
    derived: Vec<Tuple>,
    /// Tuples dropped by evaluation errors (union over live and delta-time
    /// derivations, mirroring `FusedStrand::eval_errors`).
    pub eval_errors: u64,
}

/// Collects the sorted, deduplicated virtual-tuple field indices `inp`'s
/// strand reads. Indices past the trigger arity name joined or assigned
/// values, which are themselves functions of the probed tables and the
/// lower indices — so two trigger rows agreeing on every collected index
/// below their arity derive identical head tuples against identical table
/// state.
fn relevant_fields(inp: &ViewInput) -> Vec<usize> {
    let mut refs = Vec::new();
    for f in &inp.pre_filters {
        refs.extend(f.loads());
    }
    for op in &inp.ops {
        match op {
            StrandOp::Filter(p) | StrandOp::Assign(p) => refs.extend(p.loads()),
            StrandOp::Probe { key, .. } | StrandOp::AntiJoin { key, .. } => {
                refs.extend(key.pairs.iter().map(|(s, _)| *s));
                refs.extend(key.stream_checks.iter().flat_map(|&(a, b)| [a, b]));
            }
        }
    }
    for h in &inp.head_fields {
        refs.extend(h.loads());
    }
    refs.sort_unstable();
    refs.dedup();
    refs
}

/// Whether two trigger rows agree on every relevant field (indices past
/// either row's arity compare as absent-equals-absent).
fn same_relevant(relevant: &[usize], a: &Tuple, b: &Tuple) -> bool {
    a.name() == b.name()
        && relevant
            .iter()
            .all(|&i| a.values().get(i) == b.values().get(i))
}

impl MatView {
    /// Creates a view over its trigger inputs. `inputs` must be non-empty;
    /// input order must match the poke-port wiring (port `k` carries
    /// inserts into `inputs[k].table`).
    pub fn new(inputs: Vec<ViewInput>, out_name: impl Into<String>) -> MatView {
        assert!(!inputs.is_empty(), "a view needs at least one input");
        let relevant = inputs.iter().map(relevant_fields).collect();
        MatView {
            inputs,
            relevant,
            out_name: out_name.into(),
            counts: HashMap::new(),
            needs_rebuild: true,
            built: false,
            scratch: Vec::new(),
            extras: Vec::new(),
            derived: Vec::new(),
            eval_errors: 0,
        }
    }

    /// The port that emits retractions (head rows whose last derivation
    /// disappeared): one past the trigger ports.
    pub fn retract_port(&self) -> usize {
        self.inputs.len()
    }

    /// The maintained `(head values, provenance count)` pairs, sorted.
    /// Exposed for equivalence tests and diagnostics.
    pub fn contents(&self) -> Vec<(Vec<Value>, usize)> {
        let mut out: Vec<(Vec<Value>, usize)> =
            self.counts.iter().map(|(k, c)| (k.clone(), *c)).collect();
        out.sort();
        out
    }

    /// Derives the head tuples reachable from `trigger` through input
    /// `input`'s strand into `self.derived` (cleared first). Shares the
    /// fused-strand executor, so enumeration order, error drops, and
    /// filter semantics are identical to the live path.
    fn derive(&mut self, input: usize, trigger: &Tuple, ctx: &mut ElementCtx<'_>) {
        self.derived.clear();
        let MatView {
            inputs,
            out_name,
            extras,
            derived,
            eval_errors,
            ..
        } = self;
        let inp = &inputs[input];
        for filter in &inp.pre_filters {
            match filter.eval_bool(trigger, ctx.eval()) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    *eval_errors += 1;
                    return;
                }
            }
        }
        extras.clear();
        exec(
            &inp.ops,
            &[trigger.values()],
            extras,
            &inp.head_fields,
            out_name,
            eval_errors,
            ctx,
            &mut |_ctx: &mut ElementCtx<'_>, t| derived.push(t),
        );
    }

    /// Catches up on every input's delta stream, maintaining the counts
    /// and emitting retractions for rows whose last derivation vanished.
    fn sync(&mut self, ctx: &mut ElementCtx<'_>) {
        let _ = self.sync_holdout(None, ctx);
    }

    /// [`MatView::sync`], but when the drained batch ends with the poked
    /// tuple's own `Insert` delta (the overwhelmingly common shape: the
    /// engine pokes the view immediately after each insert), that delta is
    /// *held out* of the replay and `true` is returned — the caller
    /// derives the poked tuple once and uses the result for both the live
    /// emission and the provenance increment, instead of deriving twice.
    /// Holding out the tail delta is sound exactly because it is last: the
    /// other tables' current state is their state at its mutation time.
    fn sync_holdout(&mut self, poke: Option<(usize, &Tuple)>, ctx: &mut ElementCtx<'_>) -> bool {
        // Quiet fast path: under refresh-heavy workloads most pokes carry
        // no table delta at all (pure refreshes log none), so the common
        // sync is one atomic load per input — no table lock, no drain.
        if !self.needs_rebuild && !self.inputs.iter().any(|i| i.sub.has_pending()) {
            return false;
        }
        // Past the quiet check this sync folds real deltas into the
        // provenance counts (or rebuilds them): mark the poke as doing work.
        ctx.note_state_change();
        // Phase 1: drain every input under its own lock (derivation later
        // probes the *other* tables through the strand ops and must not
        // hold any table guard while doing so). Incremental counting is
        // only sound when at most ONE input changed since the last sync:
        // each delta derives against the other tables' current state, so a
        // batch touching two joined inputs would count their new pairings
        // once per side. Such batches fall back to a rebuild.
        debug_assert!(self.scratch.is_empty());
        let mut deltas = std::mem::take(&mut self.scratch);
        let mut dirty: Option<usize> = None;
        for input in 0..self.inputs.len() {
            let table = self.inputs[input].table.clone();
            let mut guard = table.lock();
            let start = deltas.len();
            if guard.drain_deltas(&self.inputs[input].sub, &mut deltas) {
                self.needs_rebuild = true;
            }
            if deltas.len() > start {
                match dirty {
                    None => dirty = Some(input),
                    Some(_) => self.needs_rebuild = true,
                }
            }
        }

        // Phase 2: replay the single dirty input's deltas through its
        // strand, adjusting provenance counts.
        let mut held = false;
        if !self.needs_rebuild {
            if let Some(input) = dirty {
                if let Some((port, tuple)) = poke {
                    if port == input
                        && deltas.last().is_some_and(|d| {
                            !d.kind.is_removal()
                                && d.tuple.name() == tuple.name()
                                && d.tuple.values() == tuple.values()
                        })
                    {
                        deltas.pop();
                        // Net out a replacement: when the delta right
                        // before the held insert removes a row agreeing on
                        // every field this strand reads (typical soft-state
                        // refresh — only a freshness column changed), the
                        // two derivations are identical, so decrement plus
                        // re-increment is a no-op. Drop both and leave the
                        // counts alone; the old row's provenance now stands
                        // for the new one.
                        if deltas.last().is_some_and(|d| {
                            d.kind.is_removal()
                                && same_relevant(&self.relevant[input], &d.tuple, tuple)
                        }) {
                            deltas.pop();
                        } else {
                            held = true;
                        }
                    }
                }
                let retract_port = self.retract_port();
                for delta in &deltas {
                    self.derive(input, &delta.tuple, ctx);
                    if delta.kind.is_removal() {
                        for t in std::mem::take(&mut self.derived) {
                            let key = t.values().to_vec();
                            match self.counts.get_mut(&key) {
                                Some(c) if *c > 1 => *c -= 1,
                                Some(_) => {
                                    self.counts.remove(&key);
                                    ctx.emit(retract_port, t);
                                }
                                None => {
                                    // Decrement miss: residual skew the
                                    // dirty-input check did not cover.
                                    self.needs_rebuild = true;
                                }
                            }
                        }
                    } else {
                        for t in self.derived.drain(..) {
                            *self.counts.entry(t.values().to_vec()).or_insert(0) += 1;
                        }
                    }
                    if self.needs_rebuild {
                        break;
                    }
                }
            }
        }
        deltas.clear();
        self.scratch = deltas;

        if self.needs_rebuild {
            self.rebuild(ctx);
            // The rebuild recounted from the tables, which already hold
            // the poked row — the caller must not increment again.
            held = false;
        }
        held
    }

    /// Re-derives all counts from input 0's table (any one trigger
    /// enumerates the full join), retracting rows that are no longer
    /// derivable. See the module docs for why new rows are not re-emitted.
    fn rebuild(&mut self, ctx: &mut ElementCtx<'_>) {
        // Drop deltas accumulated on every input: the rebuilt counts
        // already reflect the tables' current state.
        for input in 0..self.inputs.len() {
            let table = self.inputs[input].table.clone();
            let mut guard = table.lock();
            guard.drain_deltas(&self.inputs[input].sub, &mut self.scratch);
            self.scratch.clear();
        }
        let base_rows: Vec<Tuple> = {
            let table = self.inputs[0].table.clone();
            let guard = table.lock();
            if self.built {
                guard.note_rebuild();
            }
            guard.scan_iter_counted().cloned().collect()
        };
        let mut fresh: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in &base_rows {
            self.derive(0, row, ctx);
            for t in self.derived.drain(..) {
                *fresh.entry(t.values().to_vec()).or_insert(0) += 1;
            }
        }
        let mut gone: Vec<Vec<Value>> = self
            .counts
            .keys()
            .filter(|k| !fresh.contains_key(*k))
            .cloned()
            .collect();
        gone.sort();
        let retract_port = self.retract_port();
        for values in gone {
            ctx.emit(retract_port, Tuple::new(&self.out_name, values));
        }
        self.counts = fresh;
        self.needs_rebuild = false;
        self.built = true;
    }
}

impl Element for MatView {
    fn class(&self) -> &'static str {
        "MatView"
    }

    fn push(&mut self, port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let held = self.sync_holdout(Some((port, tuple)), ctx);
        // Live emission for the poked trigger, identical to the fused
        // strand this input replaces: same executor, same out-port-`k`
        // routing the planner pads to the generic chain's BFS level.
        if port >= self.inputs.len() {
            return;
        }
        if held {
            // The poke's own insert delta was held out of the replay:
            // derive once, increment provenance, emit the same tuples.
            self.derive(port, tuple, ctx);
            for t in &self.derived {
                *self.counts.entry(t.values().to_vec()).or_insert(0) += 1;
            }
            let mut derived = std::mem::take(&mut self.derived);
            for t in derived.drain(..) {
                ctx.emit(port, t);
            }
            self.derived = derived;
            return;
        }
        let MatView {
            inputs,
            out_name,
            extras,
            eval_errors,
            ..
        } = self;
        let inp = &inputs[port];
        for filter in &inp.pre_filters {
            match filter.eval_bool(tuple, ctx.eval()) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    *eval_errors += 1;
                    return;
                }
            }
        }
        extras.clear();
        exec(
            &inp.ops,
            &[tuple.values()],
            extras,
            &inp.head_fields,
            out_name,
            eval_errors,
            ctx,
            &mut |ctx: &mut ElementCtx<'_>, t| ctx.emit(port, t),
        );
    }

    fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }

    /// A poke is a provable no-op only when (a) every input is quiet (no
    /// pending deltas, no rebuild owed — `sync` would take its fast path)
    /// and (b) the poked port's live derivation is deterministically dead:
    /// a rand-free pre-filter rejects the trigger. Anything else — pending
    /// deltas, a passing or RNG-bearing filter, an evaluation error (whose
    /// count must stay exact) — wakes. Pre-filters are pure expressions
    /// over the trigger, so pre-evaluating one here returns exactly what
    /// `push` would compute.
    fn would_wake(&self, port: usize, tuple: &Tuple, eval: &mut EvalContext) -> bool {
        if self.needs_rebuild || self.inputs.iter().any(|i| i.sub.has_pending()) {
            return true;
        }
        let Some(inp) = self.inputs.get(port) else {
            // Out-of-range poke (retract-port feedback, unwired in shipped
            // plans): after a quiet sync, `push` returns without effect.
            return false;
        };
        for f in &inp.pre_filters {
            if f.uses_random() {
                return true;
            }
            match f.eval_bool(tuple, eval) {
                Ok(true) => {}
                Ok(false) => return false,
                Err(_) => return true,
            }
        }
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Collector, Demux, FusedStrand, Insert};
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, TupleBuilder};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn table(spec: TableSpec) -> TableRef {
        Arc::new(Mutex::new(Table::new(spec)))
    }

    fn field(i: usize) -> Program {
        Program::compile(&Expr::Field(i))
    }

    /// Harness: "link" tuples insert into the link table which pokes a
    /// single-input view `reach(S, D) :- link(S, D, _)`; "unlink" tuples
    /// delete. Live emissions land in `live`, retractions in `retracts`.
    struct Rig {
        engine: Engine,
        table: TableRef,
        live: crate::elements::CollectorHandle,
        retracts: crate::elements::CollectorHandle,
        view_id: usize,
    }

    fn link(s: &str, d: &str, w: i64) -> Tuple {
        TupleBuilder::new("link").push(s).push(d).push(w).build()
    }

    fn single_input_rig() -> Rig {
        rig_with_key(vec![0, 1])
    }

    fn rig_with_key(key: Vec<usize>) -> Rig {
        let t = table(TableSpec::new("link", key).with_lifetime_secs(10));
        let mut g = Graph::new();
        let demux = g.add(
            "demux",
            Box::new(Demux::new(vec!["link".into(), "unlink".into()])),
        );
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let del = g.add("delete", Box::new(crate::elements::Delete::new(t.clone())));
        let sub = t.lock().subscribe_deltas();
        let view = MatView::new(
            vec![ViewInput {
                table: t.clone(),
                sub,
                pre_filters: vec![],
                ops: vec![],
                head_fields: vec![field(0), field(1)],
            }],
            "reach",
        );
        let view_id = g.add("view", Box::new(view));
        let (c, live) = Collector::new();
        let live_id = g.add("live", Box::new(c));
        let (c, retracts) = Collector::new();
        let retract_id = g.add("retracts", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(demux, 1, del, 0);
        g.connect(ins, 0, view_id, 0);
        g.connect(del, 0, view_id, 0);
        g.connect(view_id, 0, live_id, 0);
        g.connect(view_id, 1, retract_id, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        Rig {
            engine,
            table: t,
            live,
            retracts,
            view_id,
        }
    }

    fn view_contents(engine: &mut Engine, id: usize) -> Vec<(Vec<Value>, usize)> {
        engine
            .with_element(id, |e| {
                e.as_any_mut()
                    .and_then(|a| a.downcast_mut::<MatView>())
                    .map(|v| v.contents())
            })
            .flatten()
            .unwrap()
    }

    #[test]
    fn live_emission_matches_fused_strand() {
        // The poke-driven path must be exactly FusedStrand's.
        let succ = {
            let mut t = Table::new(TableSpec::new("succ", vec![1]));
            t.add_index(vec![0]);
            for (s, si) in [(5i64, "n5"), (9, "n9")] {
                t.insert(
                    TupleBuilder::new("succ")
                        .push("n1")
                        .push(s)
                        .push(si)
                        .build(),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            Arc::new(Mutex::new(t))
        };
        let mk_ops = || {
            vec![
                FusedStrand::probe_op(succ.clone(), vec![(0, 0)]),
                StrandOp::Filter(Program::compile(&Expr::bin(
                    BinOp::Gt,
                    Expr::Field(3),
                    Expr::int(4),
                ))),
            ]
        };
        let run = |element: Box<dyn Element>| -> Vec<Tuple> {
            let mut g = Graph::new();
            let e = g.add("elt", element);
            let (c, buf) = Collector::new();
            let c = g.add("tap", Box::new(c));
            g.connect(e, 0, c, 0);
            let mut engine = Engine::new(g, "n1", 1);
            engine.set_entry(Route {
                element: e,
                port: 0,
            });
            engine.start(SimTime::ZERO);
            engine.deliver(
                TupleBuilder::new("ev").push("n1").push(100i64).build(),
                SimTime::from_secs(1),
            );
            let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
            out
        };
        let strand = FusedStrand::new(vec![], mk_ops(), vec![field(4), field(3)], "out");
        let trigger = table(TableSpec::new("ev", vec![0]));
        let sub = trigger.lock().subscribe_deltas();
        let view = MatView::new(
            vec![ViewInput {
                table: trigger,
                sub,
                pre_filters: vec![],
                ops: mk_ops(),
                head_fields: vec![field(4), field(3)],
            }],
            "out",
        );
        assert_eq!(run(Box::new(strand)), run(Box::new(view)));
    }

    #[test]
    fn view_counts_track_inserts_and_deletes() {
        let mut rig = single_input_rig();
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        rig.engine.deliver(link("a", "c", 1), SimTime::from_secs(1));
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id),
            vec![
                (vec![Value::str("a"), Value::str("b")], 1),
                (vec![Value::str("a"), Value::str("c")], 1),
            ]
        );
        assert_eq!(rig.live.lock().len(), 2);
        assert!(rig.retracts.lock().is_empty());

        // Delete one row: its derived head retracts.
        let unlink = TupleBuilder::new("unlink")
            .push("a")
            .push("b")
            .push(1i64)
            .build();
        rig.engine.deliver(unlink, SimTime::from_secs(2));
        // The view only observes the delete at its next poke.
        rig.engine.deliver(link("a", "d", 1), SimTime::from_secs(3));
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id),
            vec![
                (vec![Value::str("a"), Value::str("c")], 1),
                (vec![Value::str("a"), Value::str("d")], 1),
            ]
        );
        let retracted: Vec<Tuple> = rig.retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].values(), &[Value::str("a"), Value::str("b")]);
        assert_eq!(retracted[0].name(), "reach");
    }

    /// The provenance-count case: two stored rows derive the *same* head
    /// tuple (the projection drops the distinguishing column). Removing
    /// one derivation must not retract; removing the last one must.
    #[test]
    fn duplicate_derivations_retract_on_last_removal() {
        // Key over all three columns so equal-(S, D) rows coexist instead
        // of replacing each other.
        let mut rig = rig_with_key(vec![0, 1, 2]);
        // Same (S, D), different weight — two derivations of reach(a, b).
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        rig.engine.deliver(link("a", "b", 2), SimTime::from_secs(1));
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id),
            vec![(vec![Value::str("a"), Value::str("b")], 2)]
        );

        let unlink = |w: i64| {
            TupleBuilder::new("unlink")
                .push("a")
                .push("b")
                .push(w)
                .build()
        };
        rig.engine.deliver(unlink(1), SimTime::from_secs(2));
        rig.engine.deliver(link("x", "y", 0), SimTime::from_secs(3)); // poke
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id)
                .iter()
                .find(|(k, _)| k[0] == Value::str("a"))
                .map(|(_, c)| *c),
            Some(1),
            "count decremented without retraction"
        );
        assert!(rig.retracts.lock().is_empty());

        rig.engine.deliver(unlink(2), SimTime::from_secs(4));
        rig.engine.deliver(link("x", "z", 0), SimTime::from_secs(5)); // poke
        let retracted: Vec<Tuple> = rig.retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].values(), &[Value::str("a"), Value::str("b")]);
    }

    /// Regression mirroring PR 3's vanished-group bug: deleting every row
    /// must empty the view (and retract), not leave stale derived rows —
    /// and a re-insert re-derives from scratch.
    #[test]
    fn delete_to_empty_view_retracts_everything() {
        let mut rig = single_input_rig();
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        let unlink = TupleBuilder::new("unlink")
            .push("a")
            .push("b")
            .push(1i64)
            .build();
        rig.engine.deliver(unlink, SimTime::from_secs(2));
        assert!(rig.table.lock().is_empty());
        // Poke via an unrelated insert+delete pair so the view syncs.
        rig.engine.deliver(link("x", "y", 0), SimTime::from_secs(3));
        let contents = view_contents(&mut rig.engine, rig.view_id);
        assert_eq!(contents, vec![(vec![Value::str("x"), Value::str("y")], 1)]);
        let retracted: Vec<Tuple> = rig.retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].values(), &[Value::str("a"), Value::str("b")]);

        // Re-insert: the view re-derives (provenance was dropped, not
        // pinned at a stale zero).
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(4));
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id),
            vec![
                (vec![Value::str("a"), Value::str("b")], 1),
                (vec![Value::str("x"), Value::str("y")], 1),
            ]
        );
    }

    /// A keyed re-insert (replacement) whose changed column the rule
    /// projects away nets to nothing: counts untouched, no transient
    /// retraction — only the live re-emission.
    #[test]
    fn replacement_of_ignored_column_nets_out() {
        // Key (0, 1); head projects fields 0 and 1 — the weight column 2
        // is never read, so bumping it is invisible to the view.
        let mut rig = single_input_rig();
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        rig.engine.deliver(link("a", "b", 2), SimTime::from_secs(2));
        assert_eq!(
            view_contents(&mut rig.engine, rig.view_id),
            vec![(vec![Value::str("a"), Value::str("b")], 1)]
        );
        assert!(
            rig.retracts.lock().is_empty(),
            "netted: no transient retract"
        );
        assert_eq!(rig.live.lock().len(), 2, "refresh still re-emits");
    }

    /// The guard on netting: when the replaced column IS read by the
    /// strand, the old head must retract and the new one must count.
    #[test]
    fn replacement_of_read_column_retracts_old_head() {
        let t = table(TableSpec::new("link", vec![0, 1]).with_lifetime_secs(10));
        let mut g = Graph::new();
        let demux = g.add("demux", Box::new(Demux::new(vec!["link".into()])));
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let sub = t.lock().subscribe_deltas();
        let view = MatView::new(
            vec![ViewInput {
                table: t.clone(),
                sub,
                pre_filters: vec![],
                ops: vec![],
                head_fields: vec![field(0), field(2)],
            }],
            "reach",
        );
        let view_id = g.add("view", Box::new(view));
        let (c, retracts) = Collector::new();
        let retract_id = g.add("retracts", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(ins, 0, view_id, 0);
        g.connect(view_id, 1, retract_id, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        engine.deliver(link("a", "b", 2), SimTime::from_secs(2));
        assert_eq!(
            view_contents(&mut engine, view_id),
            vec![(vec![Value::str("a"), Value::Int(2)], 1)]
        );
        let retracted: Vec<Tuple> = retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].values(), &[Value::str("a"), Value::Int(1)]);
    }

    /// Expiry feeds the same retraction machinery as explicit deletes.
    #[test]
    fn expiry_retracts_derived_rows() {
        let mut rig = single_input_rig();
        rig.engine.deliver(link("a", "b", 1), SimTime::from_secs(1));
        assert_eq!(rig.table.lock().expire(SimTime::from_secs(20)).len(), 1);
        rig.engine
            .deliver(link("x", "y", 0), SimTime::from_secs(21)); // poke
        let retracted: Vec<Tuple> = rig.retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].values(), &[Value::str("a"), Value::str("b")]);
    }

    /// Overflowing the delta queue forces a rebuild that restores exact
    /// counts and retracts rows that vanished while the queue was blind.
    #[test]
    fn overflow_rebuild_restores_counts() {
        let mut rig = single_input_rig();
        rig.engine
            .deliver(link("a", "gone", 1), SimTime::from_secs(1));
        {
            // Mutate far past DELTA_LOG_CAP without poking the view.
            let mut t = rig.table.lock();
            for i in 0..(p2_table::DELTA_LOG_CAP as i64 + 8) {
                t.insert(link("bulk", "d", i), SimTime::from_secs(2))
                    .unwrap();
            }
            t.delete_matching(&link("a", "gone", 1)).unwrap();
        }
        rig.engine.deliver(link("x", "y", 0), SimTime::from_secs(3)); // poke
        let contents = view_contents(&mut rig.engine, rig.view_id);
        assert_eq!(
            contents,
            vec![
                (vec![Value::str("bulk"), Value::str("d")], 1),
                (vec![Value::str("x"), Value::str("y")], 1),
            ]
        );
        let retracted: Vec<Tuple> = rig.retracts.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(retracted.len(), 1, "vanished row retracts via rebuild");
        assert_eq!(
            retracted[0].values(),
            &[Value::str("a"), Value::str("gone")]
        );
        assert!(rig.table.lock().stats().rebuilds >= 1);
    }
}

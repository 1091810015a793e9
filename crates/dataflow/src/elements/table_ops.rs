//! Elements bridging the dataflow graph and stored tables: insert, delete,
//! per-event aggregation probes, and materialized table aggregates.
//!
//! # Incremental aggregation
//!
//! [`TableAgg`] is the delta protocol's canonical consumer (see the
//! `p2_table` module docs): instead of recomputing `Table::aggregate` over
//! the whole table on every poke, it subscribes to the table's exact
//! `Insert`/`Delete`/`Expire`/`Evict` delta stream and maintains per-group
//! state incrementally — O(1) per delta for `count`/`sum`/`avg`, with
//! `min`/`max` falling back to a single batched group rescan only when the
//! current extremum is retracted. Emission timing and values match the
//! recompute-per-poke semantics (including the PR 3 vanished-group
//! retraction contract), which is what keeps the 100-node golden event
//! pins bit-for-bit; a property test pins the equivalence against a
//! from-scratch recompute model under arbitrary
//! insert/delete/expire/evict interleavings. Two deliberate deviations:
//! when several groups change in one sync they now emit in one sorted
//! pass (the old element emitted changed groups in process-random
//! `HashMap` order — a latent determinism hazard; single-group tables,
//! which all shipped programs use, are unaffected), and `sum`/`avg` over
//! *floating-point* contributions maintain a running total whose
//! retractions can drift in the last ulp relative to a from-scratch fold
//! (integer contributions — every shipped aggregate — are exact).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use p2_pel::{EvalContext, Program};
use p2_table::{AggFunc, AggState, DeltaSubscription, InsertOutcome, TableDelta, TableRef};
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};
use crate::elements::relational::ProbeKey;

/// Stores arriving tuples into a table and re-emits them as *deltas*.
///
/// Every accepted insert (new row, replacement, or soft-state refresh) is
/// forwarded on port 0 so that downstream rules triggered by updates to this
/// table (e.g. `bestSucc :- succ, ...`) see the change. Rows evicted by the
/// size bound are emitted on port 1 for optional handling.
pub struct Insert {
    table: TableRef,
    /// Number of inserts that failed (malformed tuples).
    pub errors: u64,
    /// Reused eviction spill buffer: eviction-heavy tables hit the
    /// size-bound path on every insert, and this keeps that path from
    /// allocating a fresh `Vec` per tuple (`Table::insert_spill`).
    spill: Vec<Tuple>,
}

impl Insert {
    /// Creates an insert bridge for `table`.
    pub fn new(table: TableRef) -> Insert {
        Insert {
            table,
            errors: 0,
            spill: Vec::new(),
        }
    }
}

impl Element for Insert {
    fn class(&self) -> &'static str {
        "Insert"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        debug_assert!(self.spill.is_empty(), "spill buffer drained every call");
        let result = self
            .table
            .lock()
            .insert_spill(tuple.clone(), ctx.now(), &mut self.spill);
        match result {
            Ok(outcome) => {
                // A soft-state refresh of an identical row leaves the table
                // unchanged; anything else (new row, replacement, eviction)
                // is a real mutation the profiler should see.
                if !matches!(outcome, InsertOutcome::Refreshed) || !self.spill.is_empty() {
                    ctx.note_state_change();
                }
                ctx.emit(0, tuple.clone());
                for e in self.spill.drain(..) {
                    ctx.emit(1, e);
                }
            }
            Err(_) => {
                self.errors += 1;
                self.spill.clear();
            }
        }
    }
}

/// Removes the arriving tuple from a table (OverLog `delete` rules).
///
/// Removed rows are emitted on port 0 so deletions can drive further
/// processing (e.g. re-computing a materialized aggregate).
pub struct Delete {
    table: TableRef,
    /// Number of deletes that failed (malformed tuples).
    pub errors: u64,
    /// Reused removal spill buffer, mirroring `Insert`'s eviction buffer:
    /// the delete hot path (`Table::delete_matching_spill`) appends removed
    /// rows here instead of allocating a fresh `Vec` per tuple.
    spill: Vec<Tuple>,
}

impl Delete {
    /// Creates a delete bridge for `table`.
    pub fn new(table: TableRef) -> Delete {
        Delete {
            table,
            errors: 0,
            spill: Vec::new(),
        }
    }
}

impl Element for Delete {
    fn class(&self) -> &'static str {
        "Delete"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        debug_assert!(self.spill.is_empty(), "spill buffer drained every call");
        let result = self
            .table
            .lock()
            .delete_matching_spill(tuple, &mut self.spill);
        match result {
            Ok(_removed) => {
                if !self.spill.is_empty() {
                    ctx.note_state_change();
                }
                for r in self.spill.drain(..) {
                    ctx.emit(0, r);
                }
            }
            Err(_) => {
                self.errors += 1;
                self.spill.clear();
            }
        }
    }
}

/// Per-event aggregation over a table (Figure 2's "Agg min<D> on finger").
///
/// For every arriving (partially joined) event tuple, the probe walks the
/// configured table's candidate rows; each candidate is (virtually)
/// concatenated onto the event tuple, the optional `filter` decides
/// whether it contributes, and `agg_expr` computes the contributed value.
///
/// The emitted tuple is `event ++ witness_row ++ [aggregate]`:
///
/// * for `min`/`max` the witness is the table row achieving the extremum
///   (first one scanned on ties), which gives OverLog its "choose the member
///   associated with the maximum random number" / "first address of a finger
///   with that minimum distance" semantics — the head of the rule may refer
///   to columns of the winning row;
/// * for `count`/`sum`/`avg` there is no meaningful witness, so the row part
///   is null-padded; `count` and `sum` emit a zero even when no row
///   contributes (Narada's `membersFound ... count<*>` relies on seeing 0),
///   while `min`/`max`/`avg` emit nothing.
///
/// # Access path
///
/// The probe is stateless and reads the table the way [`super::Join`]
/// does. `event field == row column` equalities the planner split off the
/// filter form a key ([`AggProbe::with_key`]) served by
/// [`p2_table::Table::lookup_iter`] — the primary index when the key
/// columns are the table's primary key, a declared secondary index
/// otherwise. Key equality is *index* equality, exactly as for join keys
/// (see [`super::relational::ProbeKey`]). Keyed candidates arrive in
/// ascending `RowId` order and are evaluated and folded one by one.
///
/// With no key every row is a candidate, but within one event the two
/// programs are functions of the row's projection onto the columns they
/// load, and a soft-state table repeats itself (Chord's 160 `finger` rows
/// hold ~8 distinct `B`). An unkeyed `min`/`max`/`count` probe therefore
/// reads the table through a *group index* over exactly those columns
/// ([`AggProbe::group_columns`], [`AggProbe::with_group_index`],
/// [`p2_table::Table::groups`]): one evaluation per group, a uniform
/// group contributing its value once per row it holds, a non-uniform one
/// (hash collision, `Int(1)` beside `Double(1.0)`) read row by row. The
/// witness is the row with the best value and, among equal values, the
/// lowest `RowId` — what a scan in `RowId` order picks by keeping the
/// first extremum — so the emitted tuple is that of the plain scan as long
/// as the contributed values are totally ordered (they always are within
/// one variant and across the numeric ones), and in every case a function
/// of the table alone: the table yields groups in a process-independent
/// order.
///
/// Three kinds of unkeyed probe keep the row-by-row counted scan: programs
/// drawing on the RNG (`max<R>` with `R := f_rand()`) are not functions of
/// the row and must draw once per row in scan order; `sum`/`avg`
/// accumulate floating point, whose result depends on the order of
/// addition; and a probe given no group index.
pub struct AggProbe {
    table: TableRef,
    table_arity: usize,
    key: ProbeKey,
    /// Columns of the group index an unkeyed probe reads the table through.
    group_cols: Option<Vec<usize>>,
    out_name: Arc<str>,
    fold: RowFold,
    /// Evaluations of the filter or aggregate expression that raised an
    /// error (the candidate — a row, or a uniform group of rows — is
    /// skipped).
    pub eval_errors: u64,
}

/// The evaluate-and-fold half of an [`AggProbe`], separate from the table
/// handle and key so a fold can run while the table is locked and probed.
struct RowFold {
    func: AggFunc,
    filter: Option<Program>,
    agg_expr: Program,
}

/// Whether a probe's result is the same read group by group as row by row
/// (see [`AggProbe`]'s *Access path*).
fn folds_by_group<'p>(func: AggFunc, mut programs: impl Iterator<Item = &'p Program>) -> bool {
    matches!(func, AggFunc::Min | AggFunc::Max | AggFunc::Count)
        && !programs.any(Program::uses_random)
}

/// One event's fold in progress: candidates go in through
/// [`Folding::step`], `(aggregate, witness)` comes out of
/// [`Folding::finish`].
struct Folding<'a> {
    fold: &'a RowFold,
    event: &'a Tuple,
    ev: &'a mut EvalContext,
    errors: &'a mut u64,
    /// `count`/`sum`/`avg` accumulator.
    state: AggState,
    /// `min`/`max`: the best value so far, the scan position of the row
    /// that contributed it, and that row.
    best: Option<(Value, usize, Tuple)>,
    /// The accumulator rejected a value (non-numeric `sum`/`avg`).
    failed: bool,
}

impl RowFold {
    /// Evaluates one row's contribution against `event ++ row`: a false or
    /// failed filter and a failed aggregate expression both mean "does not
    /// contribute"; failures are counted in `errors`.
    fn contribution(
        &self,
        event: &Tuple,
        row: &Tuple,
        ev: &mut EvalContext,
        errors: &mut u64,
    ) -> Option<Value> {
        if let Some(filter) = &self.filter {
            match filter.eval_bool_joined(event, row, ev) {
                Ok(true) => {}
                Ok(false) => return None,
                Err(_) => {
                    *errors += 1;
                    return None;
                }
            }
        }
        self.agg_expr
            .eval_joined(event, row, ev)
            .map_err(|_| *errors += 1)
            .ok()
    }

    fn start<'a>(
        &'a self,
        event: &'a Tuple,
        ev: &'a mut EvalContext,
        errors: &'a mut u64,
    ) -> Folding<'a> {
        Folding {
            fold: self,
            event,
            ev,
            errors,
            state: AggState::new(self.func),
            best: None,
            failed: false,
        }
    }
}

impl Folding<'_> {
    /// Folds in `times` rows that all evaluate like `row`, the first of
    /// them at scan position `at` (its `RowId`, or any index ascending in
    /// `RowId`). Candidates may arrive in any order: among equal extrema
    /// the lowest position wins, as it would in a scan.
    fn step(&mut self, at: usize, row: &Tuple, times: usize) {
        let Some(v) = self
            .fold
            .contribution(self.event, row, self.ev, self.errors)
        else {
            return;
        };
        let wanted = match self.fold.func {
            AggFunc::Min => Ordering::Less,
            AggFunc::Max => Ordering::Greater,
            _ => {
                self.failed |= self.state.accumulate_n(&v, times).is_err();
                return;
            }
        };
        let better = self.best.as_ref().is_none_or(|(best, best_at, _)| {
            let ord = v.cmp(best);
            ord == wanted || (ord == Ordering::Equal && at < *best_at)
        });
        if better {
            self.best = Some((v, at, row.clone()));
        }
    }

    /// `(aggregate, witness)`, or `None` when nothing is to be emitted:
    /// `min`/`max`/`avg` over no contribution produce no tuple at all
    /// (`count`/`sum` legitimately produce 0), and a value the accumulator
    /// rejected aborts the whole probe, exactly like `AggFunc::apply`
    /// erroring over the collected contributions would.
    fn finish(self) -> Option<(Value, Option<Tuple>)> {
        if self.failed {
            return None;
        }
        match self.fold.func {
            AggFunc::Min | AggFunc::Max => self.best.map(|(v, _, row)| (v, Some(row))),
            _ => self.state.finish().map(|v| (v, None)),
        }
    }
}

impl AggProbe {
    /// Creates an aggregation probe over a table whose rows have
    /// `table_arity` fields. Without a key ([`AggProbe::with_key`]) or a
    /// group index ([`AggProbe::with_group_index`]) every event pays a
    /// counted full scan.
    pub fn new(
        table: TableRef,
        table_arity: usize,
        func: AggFunc,
        filter: Option<Program>,
        agg_expr: Program,
        out_name: impl Into<Arc<str>>,
    ) -> AggProbe {
        AggProbe {
            table,
            table_arity,
            key: ProbeKey::default(),
            group_cols: None,
            out_name: out_name.into(),
            fold: RowFold {
                func,
                filter,
                agg_expr,
            },
            eval_errors: 0,
        }
    }

    /// Restricts the candidates to rows equal to the event on the given
    /// `(event field, table column)` pairs. The key *replaces* those
    /// equalities: the planner removes them from the filter.
    pub fn with_key(mut self, key: Vec<(usize, usize)>) -> AggProbe {
        self.key = ProbeKey::new(key);
        self
    }

    /// The table columns (sorted) a group index must cover for an unkeyed
    /// probe with these programs over events of `event_arity` fields to
    /// evaluate once per group — every row column the programs load — or
    /// `None` if such a probe must read row by row (`sum`/`avg`, RNG
    /// draws).
    pub fn group_columns(
        func: AggFunc,
        filter: Option<&Program>,
        agg_expr: &Program,
        event_arity: usize,
    ) -> Option<Vec<usize>> {
        let programs = || filter.into_iter().chain([agg_expr]);
        if !folds_by_group(func, programs()) {
            return None;
        }
        let mut cols: Vec<usize> = programs()
            .flat_map(Program::loads)
            .filter_map(|field| field.checked_sub(event_arity))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        Some(cols)
    }

    /// Lets the probe, while it has no key, read the table through its
    /// group index over `cols`, which must be what
    /// [`AggProbe::group_columns`] returns for this probe and be declared
    /// on the table ([`p2_table::Table::add_group_index`]; without it the
    /// probe falls back to the counted scan).
    pub fn with_group_index(mut self, cols: Vec<usize>) -> AggProbe {
        let RowFold {
            func,
            filter,
            agg_expr,
        } = &self.fold;
        assert!(
            folds_by_group(*func, filter.iter().chain([agg_expr])),
            "{func:?} probe of `{}` cannot fold by group",
            self.out_name
        );
        self.group_cols = Some(cols);
        self
    }
}

impl Element for AggProbe {
    fn class(&self) -> &'static str {
        "AggProbe"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let AggProbe {
            table,
            table_arity,
            key,
            group_cols,
            out_name,
            fold,
            eval_errors,
        } = self;
        let guard = table.lock();
        let mut folding = fold.start(tuple, ctx.eval(), eval_errors);
        if !key.is_empty() {
            // Conflicting key constraints, or an event too short to probe:
            // no row matches (`count`/`sum` still report their zero).
            if key.stream_checks_hold(tuple) == Some(true) {
                key.with_probe(tuple, |probe| {
                    let rows = guard.lookup_iter(&key.table_cols, probe);
                    for (at, row) in rows.enumerate() {
                        folding.step(at, row, 1);
                    }
                });
            }
        } else if let Some(groups) = group_cols.as_deref().and_then(|cols| guard.groups(cols)) {
            for group in groups {
                if group.is_uniform() {
                    let (id, row) = group.first();
                    folding.step(id.index(), row, group.size());
                } else {
                    for (id, row) in group.rows() {
                        folding.step(id.index(), row, 1);
                    }
                }
            }
        } else {
            for (at, row) in guard.scan_iter_counted().enumerate() {
                folding.step(at, row, 1);
            }
        }
        let folded = folding.finish();
        drop(guard);
        let Some((aggregate, witness)) = folded else {
            return;
        };
        // `event ++ witness-or-nulls ++ [aggregate]`, built in place.
        let mut values = Vec::with_capacity(tuple.arity() + *table_arity + 1);
        values.extend_from_slice(tuple.values());
        match witness {
            Some(row) => values.extend_from_slice(row.values()),
            None => values.resize(values.len() + *table_arity, Value::Null),
        }
        values.push(aggregate);
        ctx.emit(0, Tuple::new(out_name.clone(), values));
    }
}

/// Incrementally maintained per-group aggregate state.
///
/// `contribs` counts the rows currently contributing (valid group key
/// *and* valid aggregate value, matching `Table::aggregate`'s filtering);
/// the group vanishes when it reaches zero.
#[derive(Debug)]
struct GroupState {
    contribs: usize,
    acc: Accum,
}

#[derive(Debug)]
enum Accum {
    /// `count<*>`: the value is `contribs` itself.
    Count,
    /// Running sum; `non_int` counts non-integer contributions so the
    /// all-int result collapse survives retractions.
    Sum { acc: f64, non_int: usize },
    /// Running sum for the mean (`contribs` is the divisor).
    Avg { acc: f64 },
    /// Current extremum. Retracting a value that is not strictly worse
    /// than `best` (or is incomparable) marks the group `dirty`; dirty
    /// groups are rebuilt in one batched table rescan at the end of the
    /// sync, not per delta.
    MinMax { best: Option<Value>, dirty: bool },
}

impl GroupState {
    fn new(func: AggFunc) -> GroupState {
        GroupState {
            contribs: 0,
            acc: match func {
                AggFunc::Count => Accum::Count,
                AggFunc::Sum => Accum::Sum {
                    acc: 0.0,
                    non_int: 0,
                },
                AggFunc::Avg => Accum::Avg { acc: 0.0 },
                AggFunc::Min | AggFunc::Max => Accum::MinMax {
                    best: None,
                    dirty: false,
                },
            },
        }
    }

    /// Folds one contribution in. `Err` means the value cannot feed this
    /// aggregate (non-numeric sum/avg) — the caller falls back to a full
    /// rebuild, which reproduces `Table::aggregate`'s error behaviour.
    fn insert(&mut self, func: AggFunc, v: &Value) -> Result<(), p2_value::ValueError> {
        match &mut self.acc {
            Accum::Count => {}
            Accum::Sum { acc, non_int } => {
                let d = v.to_double()?;
                if !matches!(v, Value::Int(_)) {
                    *non_int += 1;
                }
                *acc += d;
            }
            Accum::Avg { acc } => *acc += v.to_double()?,
            Accum::MinMax { best, dirty } => {
                if !*dirty {
                    let better = match (func, best.as_ref()) {
                        (_, None) => true,
                        (AggFunc::Min, Some(b)) => v < b,
                        (AggFunc::Max, Some(b)) => v > b,
                        _ => unreachable!("MinMax accum only for min/max"),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
        }
        self.contribs += 1;
        Ok(())
    }

    /// Retracts one contribution. Returns `Err` on numeric failure and
    /// `Ok(false)` when the state cannot absorb the retraction coherently
    /// (caller rebuilds).
    fn remove(&mut self, func: AggFunc, v: &Value) -> Result<bool, p2_value::ValueError> {
        if self.contribs == 0 {
            return Ok(false);
        }
        match &mut self.acc {
            Accum::Count => {}
            Accum::Sum { acc, non_int } => {
                let d = v.to_double()?;
                if !matches!(v, Value::Int(_)) {
                    if *non_int == 0 {
                        return Ok(false);
                    }
                    *non_int -= 1;
                }
                *acc -= d;
            }
            Accum::Avg { acc } => *acc -= v.to_double()?,
            Accum::MinMax { best, dirty } => {
                if !*dirty {
                    // Removing anything not strictly worse than the current
                    // extremum (or incomparable to it) invalidates it.
                    let safe = match (func, best.as_ref()) {
                        (_, None) => false,
                        (AggFunc::Min, Some(b)) => {
                            matches!(v.partial_cmp(b), Some(std::cmp::Ordering::Greater))
                        }
                        (AggFunc::Max, Some(b)) => {
                            matches!(v.partial_cmp(b), Some(std::cmp::Ordering::Less))
                        }
                        _ => unreachable!("MinMax accum only for min/max"),
                    };
                    if !safe {
                        *dirty = true;
                    }
                }
            }
        }
        self.contribs -= 1;
        Ok(true)
    }

    /// The group's current aggregate value (`None` only transiently, for a
    /// dirty min/max before its rescan).
    fn value(&self, func: AggFunc) -> Option<Value> {
        match &self.acc {
            Accum::Count => Some(Value::Int(self.contribs as i64)),
            Accum::Sum { acc, non_int } => Some(if *non_int == 0 {
                Value::Int(*acc as i64)
            } else {
                Value::Double(*acc)
            }),
            Accum::Avg { acc } => {
                if self.contribs == 0 {
                    None
                } else {
                    Some(Value::Double(*acc / self.contribs as f64))
                }
            }
            Accum::MinMax { best, .. } => best.clone(),
        }
        .filter(|_| self.contribs > 0 || matches!(func, AggFunc::Count | AggFunc::Sum))
    }

    fn is_dirty(&self) -> bool {
        matches!(self.acc, Accum::MinMax { dirty: true, .. })
    }
}

/// Materialized aggregate over a table, re-emitted whenever it changes.
///
/// Implements rules whose body consists solely of a table and whose head
/// carries an aggregate (`succCount(NI, count<*>) :- succ(NI, S, SI)`).
/// The element subscribes to the table's [`TableDelta`] stream and, on
/// every poke (the planner routes the table's insert and delete deltas
/// here), drains the deltas accumulated since the last poke — including
/// expiry and eviction, which the recompute-era element only observed
/// indirectly — updates its per-group state in O(1) per delta, and emits
/// `out_name(group..., agg)` for groups whose value changed. Groups whose
/// last row vanished retract exactly as before: `count`/`sum` emit their
/// empty value (0) and the memo entry is dropped; `min`/`max`/`avg` are
/// silently forgotten so a re-appearance re-emits.
pub struct TableAgg {
    table: TableRef,
    sub: DeltaSubscription,
    func: AggFunc,
    agg_col: Option<usize>,
    group_cols: Vec<usize>,
    out_name: Arc<str>,
    /// Incremental per-group state.
    groups: HashMap<Vec<Value>, GroupState>,
    /// Last emitted value per group (the change-detection memo).
    last: HashMap<Vec<Value>, Value>,
    /// Set when the incremental state must be rebuilt from a table scan
    /// (initial start, delta-queue overflow, or a numeric failure that the
    /// recompute semantics surface as "emit nothing until fixed").
    needs_rebuild: bool,
    /// Reused delta drain buffer.
    scratch: Vec<TableDelta>,
    /// Reused touched-group collection buffer.
    touched: Vec<Vec<Value>>,
}

impl TableAgg {
    /// Creates a materialized table aggregate (subscribing to the table's
    /// delta stream).
    pub fn new(
        table: TableRef,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: Vec<usize>,
        out_name: impl Into<Arc<str>>,
    ) -> TableAgg {
        let sub = table.lock().subscribe_deltas();
        TableAgg {
            table,
            sub,
            func,
            agg_col,
            group_cols,
            out_name: out_name.into(),
            groups: HashMap::new(),
            last: HashMap::new(),
            needs_rebuild: true,
            scratch: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The maintained `(group, aggregate)` pairs, sorted by group key.
    /// Exposed for the equivalence property tests and diagnostics; matches
    /// `Table::aggregate` output exactly.
    pub fn current(&self) -> Vec<(Vec<Value>, Value)> {
        let mut out: Vec<(Vec<Value>, Value)> = self
            .groups
            .iter()
            .filter_map(|(k, s)| s.value(self.func).map(|v| (k.clone(), v)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Splits a delta tuple into its group key and contribution, exactly
    /// like one `Table::aggregate` fold step; `None` when the row does not
    /// participate in this aggregate at all.
    fn classify<'t>(&self, tuple: &'t Tuple) -> Option<(Vec<Value>, &'t Value)> {
        let key = extract(tuple, &self.group_cols)?;
        let contribution = match self.agg_col {
            Some(c) => tuple.get(c).ok()?,
            None => &Value::Int(1),
        };
        Some((key, contribution))
    }

    /// Rebuilds the incremental state from a full table scan, replicating
    /// `Table::aggregate`'s row filtering and error behaviour.
    fn build_states(
        &self,
        table: &p2_table::Table,
    ) -> Result<HashMap<Vec<Value>, GroupState>, p2_value::ValueError> {
        let mut groups: HashMap<Vec<Value>, GroupState> = HashMap::new();
        for tuple in table.scan_iter_counted() {
            let Some((key, contribution)) = self.classify(tuple) else {
                continue;
            };
            groups
                .entry(key)
                .or_insert_with(|| GroupState::new(self.func))
                .insert(self.func, contribution)?;
        }
        Ok(groups)
    }

    /// Applies drained deltas to the incremental state; `false` means the
    /// state is no longer coherent and must be rebuilt.
    fn apply_deltas(&mut self) -> bool {
        for i in 0..self.scratch.len() {
            let delta = &self.scratch[i];
            let Some((key, contribution)) = self.classify(&delta.tuple) else {
                continue;
            };
            if delta.kind.is_removal() {
                let Some(state) = self.groups.get_mut(&key) else {
                    return false; // retraction for an unknown group
                };
                match state.remove(self.func, contribution) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return false,
                }
                if state.contribs == 0 {
                    self.groups.remove(&key);
                }
            } else {
                let state = self
                    .groups
                    .entry(key.clone())
                    .or_insert_with(|| GroupState::new(self.func));
                if state.insert(self.func, contribution).is_err() {
                    return false;
                }
            }
            self.touched.push(key);
        }
        true
    }

    /// Rebuilds the extremum of every dirty min/max group in one batched
    /// table rescan (the recompute-on-retraction fallback).
    fn rescan_dirty(&mut self, table: &p2_table::Table) {
        let dirty: HashSet<Vec<Value>> = self
            .groups
            .iter()
            .filter(|(_, s)| s.is_dirty())
            .map(|(k, _)| k.clone())
            .collect();
        if dirty.is_empty() {
            return;
        }
        let mut fresh: HashMap<Vec<Value>, GroupState> = HashMap::new();
        for tuple in table.scan_iter_counted() {
            let Some((key, contribution)) = self.classify(tuple) else {
                continue;
            };
            if !dirty.contains(&key) {
                continue;
            }
            // Min/max contributions never fail to accumulate (comparison
            // only), so the error arm is unreachable in practice.
            let _ = fresh
                .entry(key)
                .or_insert_with(|| GroupState::new(self.func))
                .insert(self.func, contribution);
        }
        for key in dirty {
            match fresh.remove(&key) {
                Some(state) => {
                    self.groups.insert(key, state);
                }
                None => {
                    self.groups.remove(&key);
                }
            }
        }
    }

    /// Catches up on the table's delta stream and emits every group whose
    /// aggregate changed. The emission contract matches the recompute-era
    /// element: per sync, vanished and changed groups come out in one
    /// deterministic (sorted) pass.
    fn sync(&mut self, ctx: &mut ElementCtx<'_>) {
        // Quiet fast path: nothing pending means no group changed since
        // the last sync — one atomic load instead of a lock/drain.
        if !self.needs_rebuild && !self.sub.has_pending() {
            return;
        }
        // Past the quiet check there are deltas (or a rebuild) to fold into
        // the group states: this poke does real maintenance work.
        ctx.note_state_change();
        self.touched.clear();
        {
            // The guard borrows a local clone of the `Arc`, not `self`, so
            // the state-maintenance methods below can borrow `self` freely
            // while the table stays locked.
            let table = self.table.clone();
            let mut guard = table.lock();
            if guard.drain_deltas(&self.sub, &mut self.scratch) {
                self.needs_rebuild = true;
                guard.note_rebuild();
                self.scratch.clear();
            }
            if !self.needs_rebuild && !self.apply_deltas() {
                self.needs_rebuild = true;
                guard.note_rebuild();
            }
            self.scratch.clear();
            if self.needs_rebuild {
                match self.build_states(&guard) {
                    Ok(groups) => {
                        self.groups = groups;
                        self.needs_rebuild = false;
                        // Every known or previously emitted group must be
                        // re-examined after a rebuild.
                        self.touched.clear();
                        self.touched.extend(self.groups.keys().cloned());
                        self.touched.extend(self.last.keys().cloned());
                    }
                    Err(_) => {
                        // Matches `recompute`'s behaviour on aggregation
                        // errors: emit nothing, retry at the next poke.
                        return;
                    }
                }
            } else {
                self.rescan_dirty(&guard);
            }
        }

        // One deterministic pass over the touched groups.
        self.touched.sort();
        self.touched.dedup();
        let empty_value = self.func.apply(&[]).ok().flatten();
        for key in std::mem::take(&mut self.touched) {
            match self.groups.get(&key).and_then(|s| s.value(self.func)) {
                Some(agg) => {
                    if self.last.get(&key) != Some(&agg) {
                        self.last.insert(key.clone(), agg.clone());
                        let mut values = key;
                        values.push(agg);
                        ctx.emit(0, Tuple::new(self.out_name.clone(), values));
                    }
                }
                None => {
                    // Vanished: retract if the group had ever been emitted.
                    if self.last.remove(&key).is_some() {
                        if let Some(v) = &empty_value {
                            let mut values = key;
                            values.push(v.clone());
                            ctx.emit(0, Tuple::new(self.out_name.clone(), values));
                        }
                    }
                }
            }
        }
    }
}

/// Extracts the values at `cols`, or `None` if any column is out of range
/// (mirrors `Table::aggregate`'s row filtering).
fn extract(tuple: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    cols.iter()
        .map(|&c| tuple.get(c).ok().cloned())
        .collect::<Option<Vec<Value>>>()
}

impl Element for TableAgg {
    fn class(&self) -> &'static str {
        "TableAgg"
    }

    fn push(&mut self, _port: usize, _tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }

    fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Collector, Demux};
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr, IntervalKind};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, TupleBuilder, Uint160};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn table(spec: TableSpec, rows: Vec<Tuple>) -> TableRef {
        let mut t = Table::new(spec);
        for r in rows {
            t.insert(r, SimTime::ZERO).unwrap();
        }
        Arc::new(Mutex::new(t))
    }

    fn run_one(element: Box<dyn Element>, inputs: Vec<Tuple>) -> Vec<Tuple> {
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
        for i in inputs {
            engine.deliver(i, SimTime::from_secs(1));
        }
        let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        out
    }

    #[test]
    fn insert_stores_and_emits_delta() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let insert = Insert::new(t.clone());
        let tup = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        let out = run_one(Box::new(insert), vec![tup.clone()]);
        assert_eq!(out, vec![tup]);
        assert_eq!(t.lock().len(), 1);
    }

    #[test]
    fn insert_emits_evictions_on_port_one() {
        let t = table(TableSpec::new("succ", vec![1]).with_max_size(1), vec![]);
        let mut g = Graph::new();
        let e = g.add("insert", Box::new(Insert::new(t.clone())));
        let (c, evicted_buf) = Collector::new();
        let c = g.add("evicted", Box::new(c));
        g.connect(e, 1, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        for s in [5i64, 9] {
            let tup = TupleBuilder::new("succ")
                .push("n1")
                .push(s)
                .push("x")
                .build();
            engine.deliver(tup, SimTime::from_secs(s as u64));
        }
        assert_eq!(t.lock().len(), 1);
        assert_eq!(evicted_buf.lock().len(), 1);
    }

    #[test]
    fn delete_removes_and_emits() {
        let row = TupleBuilder::new("neighbor").push("n1").push("n2").build();
        let t = table(TableSpec::new("neighbor", vec![1]), vec![row.clone()]);
        let delete = Delete::new(t.clone());
        let out = run_one(Box::new(delete), vec![row.clone()]);
        assert_eq!(out, vec![row]);
        assert!(t.lock().is_empty());
    }

    #[test]
    fn agg_probe_min_distance_like_chord_lookup() {
        // finger(NI, I, B, BI) rows; the event is lookup(NI, K, R, E) and we
        // aggregate D := K - B - 1 over fingers with B in (N, K).
        let fingers = vec![
            TupleBuilder::new("finger")
                .push("n1")
                .push(0i64)
                .push(Value::Id(Uint160::from_u64(10)))
                .push("n10")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(1i64)
                .push(Value::Id(Uint160::from_u64(40)))
                .push("n40")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(2i64)
                .push(Value::Id(Uint160::from_u64(90)))
                .push("n90")
                .build(),
        ];
        let t = table(TableSpec::new("finger", vec![2]), fingers);
        // Event tuple layout: (NI, K, R, E, N) — K at 1, N at 4.
        // Joined layout appends finger fields: I at 6, B at 7, BI at 8.
        let filter = Program::compile(&Expr::Interval {
            kind: IntervalKind::OpenOpen,
            value: Box::new(Expr::Field(7)),
            low: Box::new(Expr::Field(4)),
            high: Box::new(Expr::Field(1)),
        });
        let agg = Program::compile(&Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Field(1), Expr::Field(7)),
            Expr::int(1),
        ));
        let probe = AggProbe::new(t, 4, AggFunc::Min, Some(filter), agg, "bestLookupDist");
        let event = TupleBuilder::new("lookup_node")
            .push("n1")
            .push(Value::Id(Uint160::from_u64(70)))
            .push("n1")
            .push(123i64)
            .push(Value::Id(Uint160::from_u64(5)))
            .build();
        let out = run_one(Box::new(probe), vec![event]);
        assert_eq!(out.len(), 1);
        let got = &out[0];
        assert_eq!(got.name(), "bestLookupDist");
        // event (5 fields) ++ witness finger row (4 fields) ++ aggregate.
        assert_eq!(got.arity(), 10);
        // Fingers 10 and 40 are in (5, 70); min distance is 70-40-1 = 29,
        // achieved by the finger pointing at n40.
        assert_eq!(got.field(9), &Value::Id(Uint160::from_u64(29)));
        assert_eq!(got.field(8), &Value::str("n40"));
        assert_eq!(got.field(7), &Value::Id(Uint160::from_u64(40)));
    }

    #[test]
    fn agg_probe_max_picks_witness_row() {
        // Narada P0: pick the member with the maximum random number. Here we
        // use a deterministic "score" column instead of f_rand().
        let members = vec![
            TupleBuilder::new("member")
                .push("n1")
                .push("m1")
                .push(3i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m2")
                .push(9i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m3")
                .push(5i64)
                .build(),
        ];
        let t = table(TableSpec::new("member", vec![2]), members);
        // Event: (X, E); joined row starts at field 2, score at field 4.
        let agg = Program::compile(&Expr::Field(4));
        let probe = AggProbe::new(t, 3, AggFunc::Max, None, agg, "pingEvent");
        let event = TupleBuilder::new("periodic").push("n1").push(77i64).build();
        let out = run_one(Box::new(probe), vec![event]);
        assert_eq!(out.len(), 1);
        // Witness row is m2 (score 9).
        assert_eq!(out[0].field(3), &Value::str("m2"));
        assert_eq!(out[0].field(5), &Value::Int(9));
    }

    #[test]
    fn agg_probe_count_emits_zero_and_min_does_not() {
        let t = table(TableSpec::new("member", vec![1]), vec![]);
        let agg = Program::compile(&Expr::Field(0));
        let probe = AggProbe::new(t.clone(), 3, AggFunc::Count, None, agg, "membersFound");
        let event = TupleBuilder::new("refresh").push("n1").build();
        let out = run_one(Box::new(probe), vec![event.clone()]);
        assert_eq!(out.len(), 1);
        // event (1) ++ null row padding (3) ++ count.
        assert_eq!(out[0].arity(), 5);
        assert_eq!(out[0].field(1), &Value::Null);
        assert_eq!(out[0].field(4), &Value::Int(0));

        let agg = Program::compile(&Expr::Field(0));
        let probe = AggProbe::new(t, 3, AggFunc::Min, None, agg, "best");
        assert!(run_one(Box::new(probe), vec![event]).is_empty());
    }

    /// `member(X, A, S)` rows keyed on `A`, probed by `refresh(X, A)`
    /// events with `count<*>` — Narada's R5 in miniature.
    fn member_count_probe(rows: Vec<Tuple>, filter: Option<Program>) -> (TableRef, AggProbe) {
        let t = table(TableSpec::new("member", vec![1]), rows);
        let one = Program::compile(&Expr::int(1));
        let probe = AggProbe::new(t.clone(), 3, AggFunc::Count, filter, one, "membersFound");
        (t, probe)
    }

    fn member(a: impl Into<Value>, s: i64) -> Tuple {
        TupleBuilder::new("member")
            .push("n1")
            .push(a)
            .push(s)
            .build()
    }

    #[test]
    fn agg_probe_key_takes_the_primary_index() {
        let rows = (0..64i64).map(|i| member(format!("m{i}"), i)).collect();
        let (t, probe) = member_count_probe(rows, None);
        // Event field 1 (A) against member column 1: the primary key.
        let probe = probe.with_key(vec![(1, 1)]);
        let hit = TupleBuilder::new("refresh").push("n1").push("m7").build();
        let miss = TupleBuilder::new("refresh").push("n1").push("zz").build();
        let out = run_one(Box::new(probe), vec![hit, miss]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].field(5), &Value::Int(1));
        assert_eq!(out[1].field(5), &Value::Int(0));
        let stats = t.lock().stats();
        assert_eq!((stats.primary_lookups, stats.full_scans), (2, 0));
    }

    /// The semantics of a pushed-down equality: a key compares by *index*
    /// equality (hash bucket, then `==`), like a join key. PEL `==` equates
    /// `Id(7)` with `Int(7)` but the two hash differently, so the same
    /// equality matches as a filter conjunct and misses as a key.
    #[test]
    fn agg_probe_key_uses_index_equality_for_id_vs_int() {
        let rows = || vec![member(Value::Id(Uint160::from_u64(7)), 1)];
        let event = TupleBuilder::new("refresh").push("n1").push(7i64).build();

        let eq = Program::compile(&Expr::bin(BinOp::Eq, Expr::Field(1), Expr::Field(3)));
        let (_, filtered) = member_count_probe(rows(), Some(eq));
        let out = run_one(Box::new(filtered), vec![event.clone()]);
        assert_eq!(out[0].field(5), &Value::Int(1));

        let (_, keyed) = member_count_probe(rows(), None);
        let out = run_one(Box::new(keyed.with_key(vec![(1, 1)])), vec![event]);
        assert_eq!(out[0].field(5), &Value::Int(0));
    }

    /// Pushes one event through `probe` outside an engine; returns the
    /// emitted tuples.
    fn push_one(probe: &mut AggProbe, event: &Tuple) -> Vec<Tuple> {
        let mut eval = EvalContext::new("n1", 1);
        let (mut out, mut sends, mut timers) = (Vec::new(), Vec::new(), Vec::new());
        let mut ctx = ElementCtx::new(
            SimTime::ZERO,
            0,
            &mut eval,
            &mut out,
            &mut sends,
            &mut timers,
        );
        probe.push(0, event, &mut ctx);
        out.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn agg_probe_counts_one_eval_error_per_distinct_projection() {
        // count over 10 / S: S = 0 fails. Through the group index the three
        // S = 0 rows are one group, one evaluation and one error; the row
        // path evaluates, and fails, three times. Same tuple either way.
        let rows = vec![
            member("a", 0),
            member("b", 5),
            member("c", 0),
            member("d", 5),
            member("e", 0),
        ];
        let t = table(TableSpec::new("member", vec![1]), rows);
        let agg = || Program::compile(&Expr::bin(BinOp::Div, Expr::int(10), Expr::Field(3)));
        let event = TupleBuilder::new("ev").push("n1").build();
        let cols = AggProbe::group_columns(AggFunc::Count, None, &agg(), 1).unwrap();
        assert_eq!(cols, [2]);
        t.lock().add_group_index(cols.clone());

        let mut grouped =
            AggProbe::new(t.clone(), 3, AggFunc::Count, None, agg(), "out").with_group_index(cols);
        let out = push_one(&mut grouped, &event);
        assert_eq!(grouped.eval_errors, 1);
        assert_eq!(out[0].field(4), &Value::Int(2));
        assert_eq!(t.lock().stats().full_scans, 0);

        let mut by_row = AggProbe::new(t.clone(), 3, AggFunc::Count, None, agg(), "out");
        assert_eq!(push_one(&mut by_row, &event), out);
        assert_eq!(by_row.eval_errors, 3);
        assert_eq!(t.lock().stats().full_scans, 1);
    }

    #[test]
    fn agg_probe_group_witness_is_the_lowest_row_id_among_ties() {
        // min<S % 10> over member(X, A, S): rows b and d tie at the minimum
        // in *different* groups; whichever group the table yields first,
        // the witness is the lower RowId, as in a scan.
        let rows = vec![
            member("a", 15),
            member("b", 21),
            member("c", 15),
            member("d", 11),
        ];
        let agg = || Program::compile(&Expr::bin(BinOp::Mod, Expr::Field(3), Expr::int(10)));
        let event = TupleBuilder::new("ev").push("n1").build();
        for (func, winner, value) in [(AggFunc::Min, "b", 1), (AggFunc::Max, "a", 5)] {
            let t = table(TableSpec::new("member", vec![1]), rows.clone());
            t.lock().add_group_index(vec![2]);
            let mut probe = AggProbe::new(t, 3, func, None, agg(), "out").with_group_index(vec![2]);
            let out = push_one(&mut probe, &event);
            assert_eq!(out[0].field(2), &Value::str(winner));
            assert_eq!(out[0].field(4), &Value::Int(value));
        }
    }

    #[test]
    fn agg_probe_group_columns_names_the_row_loads_of_eligible_probes() {
        // Event of 2 fields: loads 0-1 read the event, 3 and 5 row columns
        // 1 and 3.
        let filter = Program::compile(&Expr::bin(BinOp::Eq, Expr::Field(0), Expr::Field(5)));
        let agg = Program::compile(&Expr::bin(BinOp::Sub, Expr::Field(3), Expr::Field(1)));
        let cols = |func| AggProbe::group_columns(func, Some(&filter), &agg, 2);
        assert_eq!(cols(AggFunc::Min), Some(vec![1, 3]));
        assert_eq!(cols(AggFunc::Count), Some(vec![1, 3]));
        assert_eq!(cols(AggFunc::Sum), None);
        assert_eq!(cols(AggFunc::Avg), None);
        let rand = Program::compile(&Expr::Call(p2_pel::Builtin::Rand, vec![]));
        assert_eq!(AggProbe::group_columns(AggFunc::Max, None, &rand, 2), None);
        // `count<*>` with nothing to evaluate: one group of all rows.
        let one = Program::compile(&Expr::int(1));
        let all = AggProbe::group_columns(AggFunc::Count, None, &one, 2);
        assert_eq!(all, Some(vec![]));
    }

    #[test]
    fn table_agg_emits_only_on_change() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let mut g = Graph::new();
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(
                t.clone(),
                AggFunc::Count,
                None,
                vec![0],
                "succCount",
            )),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(ins, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: ins,
            port: 0,
        });
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        // Re-inserting the identical tuple does not change the count, so no
        // new aggregate is emitted.
        engine.deliver(s1, SimTime::from_secs(2));
        let s2 = TupleBuilder::new("succ")
            .push("n1")
            .push(9i64)
            .push("n9")
            .build();
        engine.deliver(s2, SimTime::from_secs(3));

        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].values(), &[Value::str("n1"), Value::Int(1)]);
        assert_eq!(emitted[1].values(), &[Value::str("n1"), Value::Int(2)]);
    }

    /// Regression: when every row of a group is deleted, the materialized
    /// aggregate must emit the empty-group value (count 0) instead of
    /// keeping the stale last value forever, and must forget the group so a
    /// re-appearance re-emits from scratch.
    #[test]
    fn table_agg_retracts_when_group_vanishes() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let mut g = Graph::new();
        // "succ" tuples insert, "zap" tuples (same layout) delete — the
        // planner's insert-delta and delete-delta wiring in miniature.
        let demux = g.add(
            "demux",
            Box::new(Demux::new(vec!["succ".into(), "zap".into()])),
        );
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let del = g.add("delete", Box::new(Delete::new(t.clone())));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(
                t.clone(),
                AggFunc::Count,
                None,
                vec![0],
                "succCount",
            )),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(demux, 1, del, 0);
        g.connect(ins, 0, agg, 0);
        g.connect(del, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );

        // Delete the only row: the group vanishes and the aggregate must
        // report a count of zero, not stay silent at the stale 1.
        let zap = TupleBuilder::new("zap")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(zap, SimTime::from_secs(2));
        assert!(t.lock().is_empty(), "delete did not remove the row");
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(0)],
            "vanished group did not retract: {emitted:?}"
        );

        // Re-inserting the row re-emits count 1 (the group was dropped from
        // the memo, not left pinned at a stale value).
        engine.deliver(s1, SimTime::from_secs(3));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );
    }
}

//! The in-memory soft-state table storage engine.
//!
//! # Design
//!
//! Rows live in a slab — `Vec<Option<Row>>` plus a free list — addressed by
//! a compact [`RowId`] (a `u32` slot index). All index structures refer to
//! rows by `RowId` instead of cloning `Vec<Value>` keys around:
//!
//! * the **primary index** maps the 64-bit hash of a row's primary-key
//!   values to the `RowId`s whose key hashes there (almost always exactly
//!   one; hash collisions are resolved by comparing the actual key fields);
//! * **secondary indices** map the hash of the indexed column values to the
//!   set of matching `RowId`s, again verified against the stored tuple on
//!   lookup, so no per-row key vectors are materialized;
//! * **group indices** bucket the rows by their projection onto a column
//!   list so a consumer can read the table one *distinct projection* at a
//!   time (see *Group indices* below);
//! * a **staleness queue** — `BTreeSet<(SimTime, RowId)>` ordered by
//!   refresh-adjusted insertion time — drives both eviction and expiry.
//!
//! # Group indices
//!
//! A secondary index answers "which rows equal this probe on these
//! columns"; a group index ([`Table::add_group_index`]) answers "which
//! distinct values do these columns hold, and which rows hold each". The
//! dataflow layer's unkeyed strand aggregation declares one over the row
//! columns its filter and aggregate expression load and then evaluates
//! once per group instead of once per row (Chord's 160 `finger` rows hold
//! ~8 distinct `B`). Both kinds are maintained by the same two functions on
//! every mutation path — insert, replace, delete, expire, evict; a refresh
//! changes no column and touches neither — but they are separate
//! structures, so a join's secondary index pays nothing for the
//! bookkeeping below.
//!
//! Each bucket of a group index carries a `uniform` bit, and the
//! **uniformity invariant** is: `uniform` ⇒ every row of the bucket agrees
//! with every other, variant for variant, on the indexed columns (a column
//! out of range counts as a value of its own). The bit is set when a bucket
//! is created and cleared the moment a row joins that is not identical to
//! the bucket's first row — a 64-bit hash collision, or `Int(1)` beside
//! `Double(1.0)`, which hash and compare equal but which an expression can
//! tell apart. It is never re-derived: a mixed bucket stays mixed until it
//! empties and is dropped. Exactness therefore never rests on the hash: a
//! consumer may treat a uniform group as [`Group::size`] copies of its
//! first row and must read a non-uniform one row by row
//! ([`Table::groups`]).
//!
//! Buckets live in a `BTreeMap` keyed by a fixed-key hash and hold
//! ascending `RowId` sets, so [`Table::groups`] yields the same groups in
//! the same order in every process and in every run (a `HashMap`'s order
//! is process-random). A fold over groups that breaks
//! ties towards the lowest `RowId` — as the strand aggregation does — is
//! moreover free of even that order: it picks what a scan in `RowId` order
//! would.
//!
//! # Complexity
//!
//! | operation | seed (pre-overhaul) | this engine |
//! |---|---|---|
//! | `insert` within size bound | O(1) | O(log n) (staleness queue update) |
//! | `insert` evicting a victim | **O(n)** scan per eviction | O(log n) |
//! | `expire(now)` | **O(n)** full-row scan per tick | O(expired · log n) |
//! | indexed `lookup` | O(hits) + key-vector alloc | O(hits), allocation-free probe |
//! | `get` by primary key | O(1) | O(1) |
//!
//! The borrowing APIs ([`Table::scan_iter`], [`Table::lookup_iter`],
//! [`Table::get_ref`]) let dataflow elements probe without materializing
//! `Vec<Tuple>` results; the owning `scan`/`lookup`/`get` APIs are preserved
//! unchanged for existing callers.
//!
//! # Change counter
//!
//! [`Table::version`] moves on every change to the live row set: a new
//! row, a replacement, an explicit delete, a soft-state expiry and a
//! size-bound eviction. A **refresh** (re-insert of an identical tuple)
//! changes no row and leaves the counter where it was. A consumer that
//! derives state from the whole table (the dataflow layer's `TableAgg`)
//! remembers the version it last read and re-reads only when the counter
//! has moved.
//!
//! # Batched refresh
//!
//! Soft-state refresh storms (Chord's `pingResp`-driven re-inserts touch
//! every successor row once per ping period) used to pay a
//! `BTreeSet` remove + insert per refreshed row. Refreshes that move a
//! row's timestamp *forward* are now recorded in a small pending map and
//! applied lazily — the staleness queue is only updated when the row
//! reaches the front of an eviction scan, or of an expiry sweep with a
//! queued time that has expired, so any number of refreshes between sweeps
//! collapse into **one** queue update (and rows that stay hot never pay it
//! at all). Backward refreshes (clock replays in tests) are applied eagerly
//! so the queue order stays exact. The pending time is always strictly
//! later than the queued time, which keeps the front-of-queue loops sound:
//! a front entry with no pending refresh is the true minimum over effective
//! times, and a front entry still live by its queued time proves every row
//! live — the per-event expiry sweep ends there without consulting the
//! pending map.

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};

use p2_value::{SimTime, Tuple, Value, ValueError};

use crate::aggregate::{AggFunc, AggState};
use crate::spec::TableSpec;

/// Compact slab address of a stored row.
///
/// `RowId`s are internal to one table: they are reused after deletion (via
/// the free list) and must never be held across mutations by external code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(u32);

impl RowId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of inserting a tuple into a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The primary key was not present; a new row was added.
    New,
    /// A row with the same primary key and identical fields existed; its
    /// soft-state timestamp was refreshed.
    Refreshed,
    /// A row with the same primary key but different fields was replaced;
    /// the displaced tuple is returned.
    Replaced(Tuple),
}

/// Monotonic per-table operation counters.
///
/// `full_scans` is the observability hook for un-indexed lookups: a lookup
/// that can use neither the primary key nor a declared secondary index falls
/// back to scanning every row, and planners/operators can watch this counter
/// to find missing index declarations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups served by the primary-key index.
    pub primary_lookups: u64,
    /// Lookups served by a secondary index.
    pub indexed_lookups: u64,
    /// Lookups that fell back to a full-table scan (no usable index).
    pub full_scans: u64,
    /// Rows removed because their soft-state lifetime elapsed.
    pub expired: u64,
    /// Rows evicted to honour the size bound.
    pub evicted: u64,
}

impl std::ops::AddAssign for TableStats {
    fn add_assign(&mut self, rhs: TableStats) {
        self.primary_lookups += rhs.primary_lookups;
        self.indexed_lookups += rhs.indexed_lookups;
        self.full_scans += rhs.full_scans;
        self.expired += rhs.expired;
        self.evicted += rhs.evicted;
    }
}

/// Interior-mutable counters (lookups take `&self`).
#[derive(Debug, Default)]
struct StatCells {
    primary_lookups: Cell<u64>,
    indexed_lookups: Cell<u64>,
    full_scans: Cell<u64>,
    expired: Cell<u64>,
    evicted: Cell<u64>,
}

#[derive(Debug, Clone)]
struct Row {
    tuple: Tuple,
    inserted_at: SimTime,
}

/// Bucket of rows sharing one primary-key hash (len > 1 only on a 64-bit
/// hash collision between distinct keys).
type PrimaryBucket = Vec<u32>;

/// A hasher for keys that need no second hash pass: the `u64` outputs of
/// [`DefaultHasher`] that key the primary and secondary indices, and `u32`
/// row ids. One multiplication by an odd constant spreads a key over every
/// bit the map reads (low bits for the bucket, high bits for the tag) and
/// is a bijection, so distinct keys stay distinct. Maps under it iterate
/// in the same order in every process, though nothing reads them in order.
///
/// The trade: [`DefaultHasher::new`] has fixed keys, so without a random
/// second pass a peer that knows them could choose field values whose rows
/// share a bucket. The tables hold rows of the node's own overlay program,
/// whose peers run the same program.
#[derive(Debug, Default, Clone, Copy)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached by key types other than the integers below.
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A `HashMap` over pre-hashed or small integer keys ([`PassThrough`]).
type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<PassThrough>>;

/// One secondary index: hash of the indexed column values → matching rows.
///
/// The bucket is a `BTreeSet`, not a `HashSet`, so an indexed probe yields
/// matches in ascending `RowId` order. `HashSet` iteration order depends on
/// the process-random hasher state, which made the *emission order* of
/// multi-row joins (e.g. Chord's per-successor ping fan-out) differ from
/// run to run — invisible in aggregate statistics, but it moved the golden
/// event stream, which pins every send in order.
type SecondaryIndex = IntMap<u64, BTreeSet<u32>>;

/// One group index: the rows bucketed by the hash of their projection onto
/// `cols` (see the module-level *Group indices* section).
#[derive(Debug)]
struct GroupIndex {
    cols: Vec<usize>,
    /// Ordered by hash — [`DefaultHasher::new`] has fixed keys — so groups
    /// iterate identically in every process.
    buckets: BTreeMap<u64, GroupBucket>,
}

#[derive(Debug)]
struct GroupBucket {
    /// The lowest `RowId`, kept inline: reading a uniform group — its first
    /// row and its size — touches no set node, and a group of one row
    /// allocates none.
    first: u32,
    /// The other rows, all above `first`.
    rest: BTreeSet<u32>,
    /// Set ⇒ all rows are [`same_projection`] on the index's columns.
    uniform: bool,
}

impl GroupIndex {
    /// Files row `id` (not yet in any bucket) under `tuple`'s projection.
    /// `slots` resolves the bucket's current first row for the uniformity
    /// check; `id`'s own slot is never read.
    fn insert(&mut self, slots: &[Option<Row>], id: u32, tuple: &Tuple) {
        match self.buckets.entry(projection_hash(tuple, &self.cols)) {
            Entry::Vacant(e) => {
                e.insert(GroupBucket {
                    first: id,
                    rest: BTreeSet::new(),
                    uniform: true,
                });
            }
            Entry::Occupied(e) => {
                let bucket = e.into_mut();
                if bucket.uniform {
                    let first = slots[bucket.first as usize].as_ref().expect("live RowId");
                    bucket.uniform = same_projection(&first.tuple, tuple, &self.cols);
                }
                let above = if id < bucket.first {
                    std::mem::replace(&mut bucket.first, id)
                } else {
                    id
                };
                bucket.rest.insert(above);
            }
        }
    }

    fn remove(&mut self, id: u32, tuple: &Tuple) {
        let Entry::Occupied(mut e) = self.buckets.entry(projection_hash(tuple, &self.cols)) else {
            return;
        };
        let bucket = e.get_mut();
        if id != bucket.first {
            bucket.rest.remove(&id);
        } else if let Some(next) = bucket.rest.pop_first() {
            bucket.first = next;
        } else {
            e.remove();
        }
    }
}

impl GroupBucket {
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// Hash of `tuple`'s projection onto `cols`; unlike [`Table::index_hash`]
/// a column out of range hashes as a value of its own, so a group index
/// holds every row.
fn projection_hash(tuple: &Tuple, cols: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    for &c in cols {
        match tuple.values().get(c) {
            Some(v) => v.hash(&mut h),
            None => u8::MAX.hash(&mut h),
        }
    }
    h.finish()
}

/// True if `a` and `b` hold the same value of the same variant at every
/// column of `cols` (`==` alone equates `Int(1)` with `Double(1.0)`, which
/// an expression can tell apart), or are both out of range there.
fn same_projection(a: &Tuple, b: &Tuple, cols: &[usize]) -> bool {
    cols.iter()
        .all(|&c| match (a.values().get(c), b.values().get(c)) {
            (Some(x), Some(y)) => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
            (None, None) => true,
            _ => false,
        })
}

/// One bucket of a group index, yielded by [`Table::groups`].
pub struct Group<'a> {
    table: &'a Table,
    bucket: &'a GroupBucket,
}

impl<'a> Group<'a> {
    /// Whether every row of the group is known to agree, variant for
    /// variant, on the indexed columns. When false (a hash collision or
    /// mixed numeric variants) the rows must be read one by one.
    pub fn is_uniform(&self) -> bool {
        self.bucket.uniform
    }

    /// Number of rows in the group; at least one.
    pub fn size(&self) -> usize {
        1 + self.bucket.rest.len()
    }

    /// The group's row with the lowest [`RowId`].
    pub fn first(&self) -> (RowId, &'a Tuple) {
        let id = self.bucket.first;
        (RowId(id), &self.table.row(id).tuple)
    }

    /// The group's rows in ascending [`RowId`] order.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &'a Tuple)> + 'a {
        let table = self.table;
        let ids = self.bucket.ids();
        ids.map(move |id| (RowId(id), &table.row(id).tuple))
    }
}

/// A node-local, in-memory, soft-state table.
///
/// Rows are keyed by the primary key declared in the [`TableSpec`]; optional
/// secondary indices support the equality lookups performed by equijoin
/// elements. Rows expire after the spec's lifetime and the stalest row is
/// evicted when the size bound is exceeded (both via the staleness queue —
/// see the module docs for the storage layout and complexity bounds).
#[derive(Debug)]
pub struct Table {
    spec: TableSpec,
    /// Primary-key positions sorted ascending (for lookup fast-path tests).
    sorted_pk: Vec<usize>,
    slots: Vec<Option<Row>>,
    free: Vec<u32>,
    live: usize,
    primary: IntMap<u64, PrimaryBucket>,
    /// Secondary indices with their (sorted) column lists, in declaration
    /// order; a table has at most a few, so a probe finds its index by a
    /// short linear walk instead of hashing a `Vec`.
    secondary: Vec<(Vec<usize>, SecondaryIndex)>,
    /// Group indices (none, or one per distinct column list an unkeyed
    /// strand aggregation reads).
    groups: Vec<GroupIndex>,
    /// Rows ordered by refresh-adjusted insertion time.
    staleness: BTreeSet<(SimTime, u32)>,
    /// Lazily applied forward refreshes: `id -> effective time`, always
    /// strictly later than the row's queued `inserted_at` (see the
    /// module-level *Batched refresh* section).
    pending_refresh: IntMap<u32, SimTime>,
    /// Change counter (see the module-level *Change counter* section).
    version: u64,
    stats: StatCells,
}

/// Values usable as lookup probes: owned `Value`s or borrowed `&Value`s
/// (join elements probe straight out of the stream tuple without cloning).
pub trait ProbeValue {
    /// The probed value.
    fn value(&self) -> &Value;
}

impl ProbeValue for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl ProbeValue for &Value {
    fn value(&self) -> &Value {
        self
    }
}

fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl Table {
    /// Creates an empty table from its declaration.
    pub fn new(spec: TableSpec) -> Table {
        let mut sorted_pk = spec.primary_key.clone();
        sorted_pk.sort_unstable();
        sorted_pk.dedup();
        Table {
            spec,
            sorted_pk,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            primary: IntMap::default(),
            secondary: Vec::new(),
            groups: Vec::new(),
            staleness: BTreeSet::new(),
            pending_refresh: IntMap::default(),
            version: 0,
            stats: StatCells::default(),
        }
    }

    /// The table's declaration.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The table itself. This exists only so that `benchmark/`, which
    /// reads a node's table as `node.table(name)?.lock()` from when tables
    /// sat behind a mutex, keeps compiling; it goes at the benchmark's next
    /// change, and nothing else may call it.
    pub fn lock(&self) -> &Table {
        self
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> TableStats {
        TableStats {
            primary_lookups: self.stats.primary_lookups.get(),
            indexed_lookups: self.stats.indexed_lookups.get(),
            full_scans: self.stats.full_scans.get(),
            expired: self.stats.expired.get(),
            evicted: self.stats.evicted.get(),
        }
    }

    /// The change counter: moves whenever the live row set changes, and
    /// only then (see the module-level *Change counter* section).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Approximate resident size in bytes (used by the footprint benchmark).
    pub fn resident_bytes(&self) -> usize {
        self.scan_iter()
            .map(|t| t.wire_size() + std::mem::size_of::<Row>())
            .sum()
    }

    // ----- key and index hashing --------------------------------------

    fn row(&self, id: u32) -> &Row {
        self.slots[id as usize].as_ref().expect("live RowId")
    }

    /// Hash of `tuple`'s primary-key values; errors if a key position is out
    /// of range (matching the seed's `primary_key_of` contract).
    fn primary_hash_of(&self, tuple: &Tuple) -> Result<u64, ValueError> {
        if self.spec.primary_key.is_empty() {
            return Ok(hash_values(tuple.values().iter()));
        }
        let mut h = DefaultHasher::new();
        for &p in &self.spec.primary_key {
            tuple.get(p)?.hash(&mut h);
        }
        Ok(h.finish())
    }

    /// True if `row`'s primary-key fields equal `key` (in declared key
    /// order, matching the owned-key layout the seed used).
    fn row_key_matches(&self, row: &Tuple, key: &[Value]) -> bool {
        if self.spec.primary_key.is_empty() {
            return row.values() == key;
        }
        self.spec.primary_key.len() == key.len()
            && self
                .spec
                .primary_key
                .iter()
                .zip(key)
                .all(|(&p, v)| row.get(p).map(|f| f == v).unwrap_or(false))
    }

    /// True if two tuples agree on every primary-key field.
    fn same_primary_key(&self, a: &Tuple, b: &Tuple) -> bool {
        if self.spec.primary_key.is_empty() {
            return a.values() == b.values();
        }
        self.spec
            .primary_key
            .iter()
            .all(|&p| match (a.get(p), b.get(p)) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            })
    }

    /// Hash of the values at `cols`, or `None` if any column is out of
    /// range (such rows simply do not appear in that index).
    fn index_hash(tuple: &Tuple, cols: &[usize]) -> Option<u64> {
        let mut h = DefaultHasher::new();
        for &c in cols {
            tuple.get(c).ok()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// The live `RowId` holding `tuple`'s primary key, if any.
    fn find_by_key_of(&self, hash: u64, tuple: &Tuple) -> Option<u32> {
        self.primary
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| self.same_primary_key(&self.row(id).tuple, tuple))
    }

    // ----- slab and index maintenance ---------------------------------

    fn alloc(&mut self, row: Row) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(row);
                id
            }
            None => {
                self.slots.push(Some(row));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn secondary_insert(&mut self, id: u32, tuple: &Tuple) {
        for (cols, index) in &mut self.secondary {
            if let Some(h) = Self::index_hash(tuple, cols) {
                index.entry(h).or_default().insert(id);
            }
        }
        for index in &mut self.groups {
            index.insert(&self.slots, id, tuple);
        }
    }

    fn secondary_remove(&mut self, id: u32, tuple: &Tuple) {
        for (cols, index) in &mut self.secondary {
            if let Some(h) = Self::index_hash(tuple, cols) {
                if let Some(set) = index.get_mut(&h) {
                    set.remove(&id);
                    if set.is_empty() {
                        index.remove(&h);
                    }
                }
            }
        }
        for index in &mut self.groups {
            index.remove(id, tuple);
        }
    }

    /// Moves the row's staleness-queue entry to `to` and clears any pending
    /// lazy refresh (the one queue update a batch of refreshes collapses
    /// into).
    fn reposition(&mut self, id: u32, to: SimTime) {
        let slot = self.slots[id as usize].as_mut().expect("live RowId");
        let from = slot.inserted_at;
        if from != to {
            slot.inserted_at = to;
            self.staleness.remove(&(from, id));
            self.staleness.insert((to, id));
        }
        self.pending_refresh.remove(&id);
    }

    /// Applies the row's pending lazy refresh, if any; returns whether one
    /// was applied (callers re-examine the staleness front afterwards).
    fn apply_pending_refresh(&mut self, id: u32) -> bool {
        match self.pending_refresh.get(&id).copied() {
            Some(eff) => {
                self.reposition(id, eff);
                true
            }
            None => false,
        }
    }

    /// Unlinks and returns the row at `id`, fixing up every index and the
    /// staleness queue, and moves the version: every removal path (delete,
    /// expiry, eviction) ends here. O(log n + indices).
    fn remove_row(&mut self, id: u32) -> Row {
        let row = self.slots[id as usize].take().expect("live RowId");
        self.live -= 1;
        self.version += 1;
        self.free.push(id);
        self.pending_refresh.remove(&id);
        self.staleness.remove(&(row.inserted_at, id));
        let hash = self
            .primary_hash_of(&row.tuple)
            .expect("stored rows have valid keys");
        if let Some(bucket) = self.primary.get_mut(&hash) {
            bucket.retain(|&x| x != id);
            if bucket.is_empty() {
                self.primary.remove(&hash);
            }
        }
        // `secondary_remove` needs `&mut self` while `row` is already
        // detached from the slab, so borrowing is clean here.
        let tuple = row.tuple.clone();
        self.secondary_remove(id, &tuple);
        row
    }

    // ----- declarations ------------------------------------------------

    /// Declares a secondary index over the given (zero-based) columns.
    ///
    /// Existing rows are indexed immediately; declaring the same index twice
    /// is a no-op.
    pub fn add_index(&mut self, mut cols: Vec<usize>) {
        cols.sort_unstable();
        cols.dedup();
        if cols.is_empty() || self.secondary_index(&cols).is_some() {
            return;
        }
        let mut index = SecondaryIndex::default();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                if let Some(h) = Self::index_hash(&row.tuple, &cols) {
                    index.entry(h).or_default().insert(i as u32);
                }
            }
        }
        self.secondary.push((cols, index));
    }

    /// The secondary index over exactly `cols` (sorted), if declared.
    fn secondary_index(&self, cols: &[usize]) -> Option<&SecondaryIndex> {
        self.secondary
            .iter()
            .find_map(|(c, index)| (c.as_slice() == cols).then_some(index))
    }

    /// The secondary index column lists, in declaration order (for planner
    /// introspection).
    pub fn indexes(&self) -> Vec<Vec<usize>> {
        self.secondary
            .iter()
            .map(|(cols, _)| cols.clone())
            .collect()
    }

    /// Declares a group index over the given (zero-based) columns (see the
    /// module-level *Group indices* section). An empty list is one group of
    /// all rows.
    ///
    /// Existing rows are indexed immediately; declaring the same index twice
    /// is a no-op.
    pub fn add_group_index(&mut self, mut cols: Vec<usize>) {
        cols.sort_unstable();
        cols.dedup();
        if self.groups.iter().any(|g| g.cols == cols) {
            return;
        }
        let mut index = GroupIndex {
            cols,
            buckets: BTreeMap::new(),
        };
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                index.insert(&self.slots, i as u32, &row.tuple);
            }
        }
        self.groups.push(index);
    }

    /// The group index column lists, in declaration order.
    pub fn group_indexes(&self) -> Vec<Vec<usize>> {
        self.groups.iter().map(|g| g.cols.clone()).collect()
    }

    // ----- mutation -----------------------------------------------------

    /// Inserts a tuple, returning the outcome and any rows evicted to honour
    /// the size bound.
    ///
    /// Allocates a fresh eviction vector per call; hot callers that insert
    /// in a loop should reuse one buffer through [`Table::insert_spill`].
    pub fn insert(
        &mut self,
        tuple: Tuple,
        now: SimTime,
    ) -> Result<(InsertOutcome, Vec<Tuple>), ValueError> {
        let mut evicted = Vec::new();
        let outcome = self.insert_spill(tuple, now, &mut evicted)?;
        Ok((outcome, evicted))
    }

    /// Inserts a tuple, appending any rows evicted to honour the size bound
    /// to the caller-provided `spill` buffer (which is *not* cleared — the
    /// caller owns its lifecycle and can drain it between inserts).
    ///
    /// Within the size bound this is O(log n); eviction picks the stalest
    /// row from the front of the staleness queue in O(log n) rather than
    /// scanning the table. Eviction-heavy workloads (bounded soft-state
    /// tables under refresh storms) hit this path once per insert, so the
    /// dataflow `Insert` element reuses one spill buffer across all calls
    /// instead of allocating a `Vec` per tuple.
    pub fn insert_spill(
        &mut self,
        tuple: Tuple,
        now: SimTime,
        spill: &mut Vec<Tuple>,
    ) -> Result<InsertOutcome, ValueError> {
        let hash = self.primary_hash_of(&tuple)?;
        let existing = self.find_by_key_of(hash, &tuple);
        let (outcome, kept) = match existing {
            Some(id) => {
                let row = self.slots[id as usize].as_ref().expect("live RowId");
                let old_at = row.inserted_at;
                if row.tuple.values() == tuple.values() {
                    // Refresh: no visible state change, no version. Forward
                    // refreshes are recorded lazily (one staleness-queue
                    // update per sweep instead of one per refresh);
                    // backward refreshes reposition eagerly so the queue
                    // order stays exact.
                    if now > old_at {
                        self.pending_refresh.insert(id, now);
                    } else {
                        self.reposition(id, now);
                    }
                    (InsertOutcome::Refreshed, id)
                } else {
                    let old = row.tuple.clone();
                    self.secondary_remove(id, &old);
                    self.secondary_insert(id, &tuple);
                    self.staleness.remove(&(old_at, id));
                    self.staleness.insert((now, id));
                    self.pending_refresh.remove(&id);
                    let slot = self.slots[id as usize].as_mut().expect("live RowId");
                    slot.tuple = tuple.clone();
                    slot.inserted_at = now;
                    self.version += 1;
                    (InsertOutcome::Replaced(old), id)
                }
            }
            None => {
                let id = self.alloc(Row {
                    tuple: tuple.clone(),
                    inserted_at: now,
                });
                self.live += 1;
                self.primary.entry(hash).or_default().push(id);
                self.secondary_insert(id, &tuple);
                self.staleness.insert((now, id));
                self.version += 1;
                (InsertOutcome::New, id)
            }
        };

        if let Some(max) = self.spec.max_size {
            while self.live > max {
                // The stalest row (FIFO on refresh-adjusted time) is at the
                // front of the staleness queue; never evict the row we just
                // inserted. Rows with a pending lazy refresh are repositioned
                // before being trusted as victims.
                let victim = self
                    .staleness
                    .iter()
                    .map(|&(_, id)| id)
                    .find(|&id| id != kept);
                match victim {
                    Some(id) => {
                        if self.apply_pending_refresh(id) {
                            continue;
                        }
                        let row = self.remove_row(id);
                        self.stats.evicted.set(self.stats.evicted.get() + 1);
                        spill.push(row.tuple);
                    }
                    None => break,
                }
            }
        }
        Ok(outcome)
    }

    /// Removes rows whose primary key matches `tuple`'s and whose remaining
    /// fields match `tuple`'s pattern (null fields act as wildcards);
    /// returns the removed tuples.
    ///
    /// This backs OverLog `delete` rules, which name the full tuple to
    /// remove.
    ///
    /// Allocates a fresh result vector per call; hot callers (the dataflow
    /// `Delete` element) should reuse one buffer through
    /// [`Table::delete_matching_spill`].
    pub fn delete_matching(&mut self, tuple: &Tuple) -> Result<Vec<Tuple>, ValueError> {
        let mut removed = Vec::new();
        self.delete_matching_spill(tuple, &mut removed)?;
        Ok(removed)
    }

    /// Like [`Table::delete_matching`] but appends the removed tuples to the
    /// caller-provided `spill` buffer (not cleared — the caller owns its
    /// lifecycle), returning how many rows were removed. Keeps the delete
    /// hot path allocation-free, mirroring [`Table::insert_spill`].
    pub fn delete_matching_spill(
        &mut self,
        tuple: &Tuple,
        spill: &mut Vec<Tuple>,
    ) -> Result<usize, ValueError> {
        let hash = self.primary_hash_of(tuple)?;
        if let Some(id) = self.find_by_key_of(hash, tuple) {
            // Exact equality is subsumed by the loose match: a pattern with
            // no nulls matches only a field-identical row.
            if row_matches_loosely(&self.row(id).tuple, tuple) {
                spill.push(self.remove_row(id).tuple);
                return Ok(1);
            }
        }
        Ok(0)
    }

    /// Removes the row with the given primary key, if present.
    pub fn delete_key(&mut self, key: &[Value]) -> Option<Tuple> {
        let hash = hash_values(key.iter());
        let id = self
            .primary
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| self.row_key_matches(&self.row(id).tuple, key))?;
        Some(self.remove_row(id).tuple)
    }

    /// Removes and returns every row older than the table's lifetime.
    ///
    /// O(expired · log n): only rows that actually expire are visited, via
    /// the time-ordered staleness queue.
    pub fn expire(&mut self, now: SimTime) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.expire_with(now, |t| out.push(t));
        out
    }

    /// Like [`Table::expire`] but only counts the expired rows, avoiding the
    /// result vector allocation (the engine's periodic sweep discards the
    /// tuples).
    pub fn expire_count(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        self.expire_with(now, |_| n += 1);
        n
    }

    fn expire_with(&mut self, now: SimTime, mut sink: impl FnMut(Tuple)) {
        let Some(lifetime) = self.spec.lifetime else {
            return;
        };
        while let Some(&(at, id)) = self.staleness.first() {
            // Entries are ordered by queued time and a pending refresh only
            // moves a row later: a front that is live by its queued time
            // ends the sweep, without a look into `pending_refresh`.
            if now.saturating_sub(at) <= lifetime {
                break;
            }
            // A lazily refreshed row is repositioned (its one coalesced
            // queue update) before the front is trusted.
            if self.apply_pending_refresh(id) {
                continue;
            }
            let row = self.remove_row(id);
            self.stats.expired.set(self.stats.expired.get() + 1);
            sink(row.tuple);
        }
    }

    // ----- queries ------------------------------------------------------

    /// Returns all live rows (in unspecified order).
    pub fn scan(&self) -> Vec<Tuple> {
        self.scan_iter().cloned().collect()
    }

    /// Borrowing iterator over all live rows (in unspecified order).
    pub fn scan_iter(&self) -> impl Iterator<Item = &Tuple> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|r| &r.tuple))
    }

    /// Like [`Table::scan_iter`] but counted as a full scan in
    /// [`TableStats`]. Probes that find their candidate rows by walking the
    /// whole table use this so un-indexed O(n) lookups stay observable;
    /// bookkeeping walks like [`Table::resident_bytes`] stay on the
    /// uncounted iterator.
    pub fn scan_iter_counted(&self) -> impl Iterator<Item = &Tuple> {
        self.stats.full_scans.set(self.stats.full_scans.get() + 1);
        self.scan_iter()
    }

    /// The table read one distinct projection at a time: the buckets of the
    /// group index declared over exactly `cols` (sorted ascending), in a
    /// process-independent order, or `None` if there is no such index.
    /// Counted as one indexed lookup in [`TableStats`].
    pub fn groups(&self, cols: &[usize]) -> Option<impl Iterator<Item = Group<'_>>> {
        let index = self.groups.iter().find(|g| g.cols == cols)?;
        self.stats
            .indexed_lookups
            .set(self.stats.indexed_lookups.get() + 1);
        Some(index.buckets.values().map(move |bucket| Group {
            table: self,
            bucket,
        }))
    }

    /// Returns rows whose values at `cols` equal `values`.
    ///
    /// Uses the primary index when `cols` covers exactly the primary-key
    /// columns, a secondary index when one has been declared over exactly
    /// these columns (after sorting), and otherwise falls back to a counted
    /// full scan.
    pub fn lookup(&self, cols: &[usize], values: &[Value]) -> Vec<Tuple> {
        let mut pairs: Vec<(usize, &Value)> = cols.iter().copied().zip(values.iter()).collect();
        pairs.sort_by_key(|(c, _)| *c);
        // Fold duplicate columns: equal probe values collapse to one
        // constraint; conflicting values can match nothing.
        let mut sorted_cols: Vec<usize> = Vec::with_capacity(pairs.len());
        let mut sorted_vals: Vec<&Value> = Vec::with_capacity(pairs.len());
        for (c, v) in pairs {
            match sorted_cols.last() {
                Some(&c0) if c0 == c => {
                    if sorted_vals.last().map(|v0| *v0 != v).unwrap_or(false) {
                        return Vec::new();
                    }
                }
                _ => {
                    sorted_cols.push(c);
                    sorted_vals.push(v);
                }
            }
        }
        self.lookup_iter(&sorted_cols, &sorted_vals)
            .cloned()
            .collect()
    }

    /// Borrowing lookup: yields rows whose values at `cols` equal the
    /// corresponding probe value, without allocating a result vector.
    ///
    /// `cols` must be sorted ascending (the planner pre-sorts join keys;
    /// [`Table::lookup`] sorts on behalf of ad-hoc callers). Probe values
    /// may be owned `Value`s or `&Value` references borrowed from a stream
    /// tuple, making the whole probe path allocation-free.
    pub fn lookup_iter<'a, V: ProbeValue>(
        &'a self,
        cols: &'a [usize],
        values: &'a [V],
    ) -> LookupIter<'a, V> {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "lookup_iter requires sorted, deduplicated columns"
        );
        debug_assert_eq!(cols.len(), values.len());

        // Primary-key fast path: the probe covers exactly the key columns.
        if !self.sorted_pk.is_empty() && self.sorted_pk == cols {
            self.stats
                .primary_lookups
                .set(self.stats.primary_lookups.get() + 1);
            // Hash in declared key order (may differ from sorted order).
            let mut h = DefaultHasher::new();
            for &p in &self.spec.primary_key {
                let at = cols.binary_search(&p).expect("cols == sorted_pk");
                values[at].value().hash(&mut h);
            }
            let bucket = self.primary.get(&h.finish());
            return LookupIter {
                table: self,
                cols,
                values,
                inner: match bucket {
                    Some(b) => LookupSource::Primary(b.iter()),
                    None => LookupSource::Empty,
                },
            };
        }

        if let Some(index) = self.secondary_index(cols) {
            self.stats
                .indexed_lookups
                .set(self.stats.indexed_lookups.get() + 1);
            let hash = hash_values(values.iter().map(ProbeValue::value));
            return LookupIter {
                table: self,
                cols,
                values,
                inner: match index.get(&hash) {
                    Some(set) => LookupSource::Indexed(set.iter()),
                    None => LookupSource::Empty,
                },
            };
        }

        self.stats.full_scans.set(self.stats.full_scans.get() + 1);
        LookupIter {
            table: self,
            cols,
            values,
            inner: LookupSource::Scan(0),
        }
    }

    /// True if at least one row matches the probe (anti-join test); stops at
    /// the first hit.
    pub fn contains_match<V: ProbeValue>(&self, cols: &[usize], values: &[V]) -> bool {
        self.lookup_iter(cols, values).next().is_some()
    }

    /// Returns the single row with the given primary key, if any.
    pub fn get(&self, key: &[Value]) -> Option<Tuple> {
        self.get_ref(key).cloned()
    }

    /// Borrowing variant of [`Table::get`].
    pub fn get_ref(&self, key: &[Value]) -> Option<&Tuple> {
        let hash = hash_values(key.iter());
        self.primary.get(&hash)?.iter().copied().find_map(|id| {
            let tuple = &self.row(id).tuple;
            self.row_key_matches(tuple, key).then_some(tuple)
        })
    }

    /// Computes `func` over column `agg_col` of every live row, grouped by
    /// `group_cols`. Returns one `(group_values, aggregate)` pair per group,
    /// sorted by group values.
    ///
    /// For `count<*>` pass `agg_col = None`. Aggregation folds row by row —
    /// no per-group contribution vectors are materialized.
    pub fn aggregate(
        &self,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: &[usize],
    ) -> Result<Vec<(Vec<Value>, Value)>, ValueError> {
        let mut groups: BTreeMap<Vec<Value>, AggState> = BTreeMap::new();
        // One key buffer for all rows: only a group's first row allocates.
        let mut key = Vec::with_capacity(group_cols.len());
        for tuple in self.scan_iter() {
            let values = tuple.values();
            if group_cols.iter().any(|&c| c >= values.len()) {
                continue;
            }
            let contribution = match agg_col {
                Some(c) => match values.get(c) {
                    Some(v) => v,
                    None => continue,
                },
                None => &Value::Int(1),
            };
            key.clear();
            key.extend(group_cols.iter().map(|&c| values[c].clone()));
            if let Some(state) = groups.get_mut(key.as_slice()) {
                state.accumulate(contribution)?;
            } else {
                let mut state = AggState::new(func);
                state.accumulate(contribution)?;
                groups.insert(key.clone(), state);
            }
        }
        Ok(groups
            .into_iter()
            .filter_map(|(key, state)| Some((key, state.finish()?)))
            .collect())
    }

    // ----- invariant checking -------------------------------------------

    /// Exhaustively verifies the storage invariants: slab/free-list
    /// disjointness, primary and secondary indices referencing exactly the
    /// live rows under the correct hashes, and the staleness queue mirroring
    /// every live row's timestamp. Returns a description of the first
    /// violation found.
    ///
    /// Intended for tests and debugging; cost is O(rows · indices).
    pub fn check_consistency(&self) -> Result<(), String> {
        let live_ids: Vec<u32> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect();
        if live_ids.len() != self.live {
            return Err(format!(
                "live count {} != occupied slots {}",
                self.live,
                live_ids.len()
            ));
        }

        let free: HashSet<u32> = self.free.iter().copied().collect();
        if free.len() != self.free.len() {
            return Err("free list contains duplicates".into());
        }
        for &id in &self.free {
            if self
                .slots
                .get(id as usize)
                .map(Option::is_some)
                .unwrap_or(true)
            {
                return Err(format!(
                    "free-list id {id} names a live or out-of-range slot"
                ));
            }
        }
        if free.len() + self.live != self.slots.len() {
            return Err("slots not partitioned between free list and live rows".into());
        }

        // Staleness queue == live rows with their timestamps.
        if self.staleness.len() != self.live {
            return Err(format!(
                "staleness queue has {} entries for {} live rows",
                self.staleness.len(),
                self.live
            ));
        }
        for &(at, id) in &self.staleness {
            match self.slots.get(id as usize).and_then(Option::as_ref) {
                Some(row) if row.inserted_at == at => {}
                Some(row) => {
                    return Err(format!(
                        "staleness entry ({at}, {id}) disagrees with row time {}",
                        row.inserted_at
                    ))
                }
                None => return Err(format!("staleness entry ({at}, {id}) dangles")),
            }
        }

        // Pending lazy refreshes name live rows and are strictly later than
        // the queued time (backward refreshes apply eagerly), which is what
        // keeps the front-normalization loops of expiry/eviction sound.
        for (&id, &eff) in &self.pending_refresh {
            match self.slots.get(id as usize).and_then(Option::as_ref) {
                Some(row) if eff > row.inserted_at => {}
                Some(row) => {
                    return Err(format!(
                        "pending refresh ({id}, {eff}) not later than queued time {}",
                        row.inserted_at
                    ))
                }
                None => return Err(format!("pending refresh names dead row {id}")),
            }
        }

        // Primary index: every live row present exactly once under its hash.
        let mut indexed = 0usize;
        for (&hash, bucket) in &self.primary {
            for &id in bucket {
                let row = match self.slots.get(id as usize).and_then(Option::as_ref) {
                    Some(r) => r,
                    None => return Err(format!("primary bucket {hash:#x} holds dangling id {id}")),
                };
                let actual = self
                    .primary_hash_of(&row.tuple)
                    .map_err(|e| format!("stored row has invalid key: {e}"))?;
                if actual != hash {
                    return Err(format!(
                        "row {id} filed under primary hash {hash:#x}, hashes to {actual:#x}"
                    ));
                }
                indexed += 1;
            }
        }
        if indexed != self.live {
            return Err(format!(
                "primary index holds {indexed} ids for {} rows",
                self.live
            ));
        }

        // Secondary indices: bucket membership ⇔ matching index hash.
        for (cols, index) in &self.secondary {
            let mut entries = 0usize;
            for (&hash, set) in index {
                if set.is_empty() {
                    return Err(format!("index {cols:?} retains empty bucket {hash:#x}"));
                }
                for &id in set {
                    let row = match self.slots.get(id as usize).and_then(Option::as_ref) {
                        Some(r) => r,
                        None => {
                            return Err(format!(
                                "index {cols:?} bucket {hash:#x} holds dangling id {id}"
                            ))
                        }
                    };
                    match Self::index_hash(&row.tuple, cols) {
                        Some(actual) if actual == hash => {}
                        other => {
                            return Err(format!(
                                "row {id} filed under {cols:?} hash {hash:#x}, hashes to {other:?}"
                            ))
                        }
                    }
                    entries += 1;
                }
            }
            let expected = live_ids
                .iter()
                .filter(|&&id| Self::index_hash(&self.row(id).tuple, cols).is_some())
                .count();
            if entries != expected {
                return Err(format!(
                    "index {cols:?} holds {entries} entries, {expected} rows are indexable"
                ));
            }
        }

        // Group indices: every live row in exactly one bucket, under its
        // projection hash, and `uniform` only where the rows really agree.
        for index in &self.groups {
            let cols = &index.cols;
            let mut filed: Vec<u32> = Vec::with_capacity(self.live);
            for (&hash, bucket) in &index.buckets {
                let first = bucket.first;
                if bucket.rest.first().is_some_and(|&next| next <= first) {
                    return Err(format!(
                        "group index {cols:?} bucket {hash:#x}: first row {first} is not the lowest"
                    ));
                }
                for id in bucket.ids() {
                    let Some(row) = self.slots.get(id as usize).and_then(Option::as_ref) else {
                        return Err(format!(
                            "group index {cols:?} bucket {hash:#x} holds dangling id {id}"
                        ));
                    };
                    if projection_hash(&row.tuple, cols) != hash {
                        return Err(format!(
                            "row {id} misfiled under group index {cols:?} hash {hash:#x}"
                        ));
                    }
                    if bucket.uniform && !same_projection(&self.row(first).tuple, &row.tuple, cols)
                    {
                        return Err(format!(
                            "group index {cols:?} bucket {hash:#x} is marked uniform but rows \
                             {first} and {id} differ on the indexed columns"
                        ));
                    }
                    filed.push(id);
                }
            }
            filed.sort_unstable();
            if filed != live_ids {
                return Err(format!(
                    "group index {cols:?} files {} ids for {} live rows",
                    filed.len(),
                    self.live
                ));
            }
        }
        Ok(())
    }
}

enum LookupSource<'a> {
    Empty,
    Primary(std::slice::Iter<'a, u32>),
    Indexed(std::collections::btree_set::Iter<'a, u32>),
    /// Fallback scan cursor (next slot index to examine).
    Scan(usize),
}

/// Borrowing iterator returned by [`Table::lookup_iter`].
pub struct LookupIter<'a, V: ProbeValue> {
    table: &'a Table,
    cols: &'a [usize],
    values: &'a [V],
    inner: LookupSource<'a>,
}

impl<'a, V: ProbeValue> LookupIter<'a, V> {
    fn matches(&self, tuple: &Tuple) -> bool {
        self.cols
            .iter()
            .zip(self.values)
            .all(|(&c, v)| tuple.get(c).map(|f| f == v.value()).unwrap_or(false))
    }
}

impl<'a, V: ProbeValue> Iterator for LookupIter<'a, V> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            let candidate = match &mut self.inner {
                LookupSource::Empty => return None,
                LookupSource::Primary(ids) => {
                    let id = *ids.next()?;
                    &self.table.row(id).tuple
                }
                LookupSource::Indexed(ids) => {
                    let id = *ids.next()?;
                    &self.table.row(id).tuple
                }
                LookupSource::Scan(next) => {
                    let slot = self.table.slots.get(*next)?;
                    *next += 1;
                    match slot {
                        Some(row) => &row.tuple,
                        None => continue,
                    }
                }
            };
            if self.matches(candidate) {
                return Some(candidate);
            }
        }
    }
}

/// A delete pattern matches a stored row if every non-null field is equal;
/// null fields in the pattern act as wildcards.
fn row_matches_loosely(stored: &Tuple, pattern: &Tuple) -> bool {
    if stored.arity() != pattern.arity() {
        return false;
    }
    stored
        .values()
        .iter()
        .zip(pattern.values())
        .all(|(s, p)| p.is_null() || s == p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::TupleBuilder;

    fn succ_spec() -> TableSpec {
        TableSpec::new("succ", vec![1])
            .with_lifetime_secs(10)
            .with_max_size(4)
    }

    fn succ(s: i64, si: &str) -> Tuple {
        TupleBuilder::new("succ")
            .push("n1")
            .push(s)
            .push(si)
            .build()
    }

    #[test]
    fn insert_new_refresh_replace() {
        let mut t = Table::new(succ_spec());
        let (o, ev) = t.insert(succ(5, "n5"), SimTime::from_secs(1)).unwrap();
        assert_eq!(o, InsertOutcome::New);
        assert!(ev.is_empty());
        assert_eq!(t.len(), 1);

        // Same primary key (field 1) and same fields -> refresh.
        let (o, _) = t.insert(succ(5, "n5"), SimTime::from_secs(2)).unwrap();
        assert_eq!(o, InsertOutcome::Refreshed);
        assert_eq!(t.len(), 1);

        // Same primary key, different payload -> replace.
        let (o, _) = t
            .insert(succ(5, "n5-alias"), SimTime::from_secs(3))
            .unwrap();
        assert!(matches!(o, InsertOutcome::Replaced(_)));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(&[Value::Int(5)]).unwrap().field(2),
            &Value::str("n5-alias")
        );
        t.check_consistency().unwrap();
    }

    #[test]
    fn size_bound_evicts_stalest() {
        let mut t = Table::new(succ_spec());
        for (i, s) in [10i64, 20, 30, 40].iter().enumerate() {
            t.insert(succ(*s, "x"), SimTime::from_secs(i as u64))
                .unwrap();
        }
        assert_eq!(t.len(), 4);
        // Refresh the oldest so it is no longer the eviction victim.
        t.insert(succ(10, "x"), SimTime::from_secs(50)).unwrap();
        let (_, evicted) = t.insert(succ(99, "x"), SimTime::from_secs(51)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].field(1), &Value::Int(20));
        assert_eq!(t.len(), 4);
        assert_eq!(t.stats().evicted, 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn insert_spill_reuses_the_caller_buffer() {
        let mut t = Table::new(succ_spec());
        let mut spill = Vec::new();
        // Fill to the size bound (4), then keep inserting through the
        // spilling path: each insert appends exactly its victim, the buffer
        // is drained by the caller, and no per-call Vec is created.
        for (i, s) in [10i64, 20, 30, 40].iter().enumerate() {
            let o = t
                .insert_spill(succ(*s, "x"), SimTime::from_secs(i as u64), &mut spill)
                .unwrap();
            assert_eq!(o, InsertOutcome::New);
            assert!(spill.is_empty());
        }
        for (i, s) in [50i64, 60, 70].iter().enumerate() {
            t.insert_spill(succ(*s, "x"), SimTime::from_secs(10 + i as u64), &mut spill)
                .unwrap();
            assert_eq!(spill.len(), 1, "one victim per over-bound insert");
            let victim = spill.pop().unwrap();
            assert_eq!(victim.field(1), &Value::Int(10 + 10 * i as i64));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.stats().evicted, 3);
        t.check_consistency().unwrap();
    }

    #[test]
    fn expiry_honours_lifetime() {
        let mut t = Table::new(succ_spec());
        t.insert(succ(1, "a"), SimTime::from_secs(0)).unwrap();
        t.insert(succ(2, "b"), SimTime::from_secs(8)).unwrap();
        let gone = t.expire(SimTime::from_secs(11));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].field(1), &Value::Int(1));
        assert_eq!(t.len(), 1);
        // Refreshing extends the lifetime.
        t.insert(succ(2, "b"), SimTime::from_secs(12)).unwrap();
        assert!(t.expire(SimTime::from_secs(20)).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(23)).len(), 1);
        assert_eq!(t.stats().expired, 2);
        t.check_consistency().unwrap();
    }

    #[test]
    fn infinite_lifetime_never_expires() {
        let mut t = Table::new(TableSpec::new("node", vec![0]));
        t.insert(
            TupleBuilder::new("node").push("n1").push(5i64).build(),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
    }

    #[test]
    fn secondary_index_lookup() {
        let mut t = Table::new(TableSpec::new("member", vec![1]).with_max_size(100));
        t.add_index(vec![2]);
        for i in 0..20i64 {
            let tup = TupleBuilder::new("member")
                .push("n1")
                .push(format!("m{i}"))
                .push(i % 4)
                .build();
            t.insert(tup, SimTime::ZERO).unwrap();
        }
        let hits = t.lookup(&[2], &[Value::Int(3)]);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.field(2) == &Value::Int(3)));
        // Lookup on the key column uses the primary index.
        let hits = t.lookup(&[1], &[Value::str("m7")]);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.stats().primary_lookups, 1);
        // Index declared after the fact still sees existing rows.
        t.add_index(vec![1]);
        assert_eq!(t.lookup(&[1], &[Value::str("m7")]).len(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn unindexed_lookup_counts_a_full_scan() {
        let mut t = Table::new(TableSpec::new("member", vec![1]));
        for i in 0..4i64 {
            t.insert(
                TupleBuilder::new("member")
                    .push("n1")
                    .push(i)
                    .push(i * 2)
                    .build(),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(t.stats().full_scans, 0);
        assert_eq!(t.lookup(&[2], &[Value::Int(4)]).len(), 1);
        assert_eq!(t.stats().full_scans, 1);
        t.add_index(vec![2]);
        assert_eq!(t.lookup(&[2], &[Value::Int(4)]).len(), 1);
        assert_eq!(t.stats().full_scans, 1);
        assert_eq!(t.stats().indexed_lookups, 1);
    }

    /// More mutations than any bounded log could hold: the counter just
    /// keeps counting, one step per new row, with nothing to overflow.
    #[test]
    fn overflow_and_rebuild_are_counted() {
        let mut t = Table::new(TableSpec::new("x", vec![0]));
        let n = 10_000u64;
        for i in 0..n as i64 {
            let before = t.version();
            t.insert(TupleBuilder::new("x").push(i).build(), SimTime::ZERO)
                .unwrap();
            assert_eq!(t.version(), before + 1);
        }
        assert_eq!(t.version(), n);
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn counted_scan_increments_full_scans() {
        let mut t = Table::new(TableSpec::new("x", vec![0]));
        t.insert(TupleBuilder::new("x").push(1i64).build(), SimTime::ZERO)
            .unwrap();
        assert_eq!(t.scan_iter().count(), 1);
        assert_eq!(t.stats().full_scans, 0);
        assert_eq!(t.scan_iter_counted().count(), 1);
        assert_eq!(t.stats().full_scans, 1);
    }

    #[test]
    fn index_consistency_across_replace_and_delete() {
        let mut t = Table::new(TableSpec::new("finger", vec![1]));
        t.add_index(vec![2]);
        let f = |i: i64, b: &str| {
            TupleBuilder::new("finger")
                .push("n1")
                .push(i)
                .push(b)
                .build()
        };
        t.insert(f(0, "a"), SimTime::ZERO).unwrap();
        t.insert(f(1, "a"), SimTime::ZERO).unwrap();
        t.insert(f(0, "b"), SimTime::ZERO).unwrap(); // replaces finger 0
        assert_eq!(t.lookup(&[2], &[Value::str("a")]).len(), 1);
        assert_eq!(t.lookup(&[2], &[Value::str("b")]).len(), 1);
        t.delete_key(&[Value::Int(1)]);
        assert!(t.lookup(&[2], &[Value::str("a")]).is_empty());
        t.check_consistency().unwrap();
    }

    #[test]
    fn group_index_tracks_uniformity_until_the_bucket_empties() {
        let mut t = Table::new(TableSpec::new("finger", vec![1]));
        t.add_group_index(vec![2]);
        let f = |i: i64, b: Value| {
            TupleBuilder::new("finger")
                .push("n1")
                .push(i)
                .push(b)
                .build()
        };
        // (uniform, row keys) per group, sorted by first key.
        let groups = |t: &Table, cols: &[usize]| {
            let mut out: Vec<(bool, Vec<i64>)> = t
                .groups(cols)
                .expect("declared")
                .map(|g| {
                    let keys = g.rows().map(|(_, r)| r.field(1).to_int().unwrap());
                    (g.is_uniform(), keys.collect())
                })
                .collect();
            out.sort_by_key(|(_, keys)| keys[0]);
            out
        };
        let at = SimTime::ZERO;
        t.insert(f(0, Value::Int(1)), at).unwrap();
        t.insert(f(1, Value::Int(1)), at).unwrap();
        t.insert(f(2, Value::Int(7)), at).unwrap();
        assert_eq!(groups(&t, &[2]), [(true, vec![0, 1]), (true, vec![2])]);
        assert!(t.groups(&[1]).is_none(), "no such group index");

        // `Double(1.0)` hashes and compares equal to `Int(1)`: same bucket,
        // but an expression can tell the rows apart.
        t.insert(f(3, Value::Double(1.0)), at).unwrap();
        assert_eq!(groups(&t, &[2]), [(false, vec![0, 1, 3]), (true, vec![2])]);
        t.check_consistency().unwrap();

        // The bit is not re-derived when the odd row leaves...
        t.delete_key(&[Value::Int(3)]).unwrap();
        assert_eq!(groups(&t, &[2]), [(false, vec![0, 1]), (true, vec![2])]);
        // ...only when the bucket empties: a replace moves row 0 out, a
        // delete removes row 1, and the next arrival starts a fresh bucket.
        t.insert(f(0, Value::Int(7)), at).unwrap();
        t.delete_key(&[Value::Int(1)]).unwrap();
        t.insert(f(4, Value::Double(1.0)), at).unwrap();
        assert_eq!(groups(&t, &[2]), [(true, vec![0, 2]), (true, vec![4])]);
        t.check_consistency().unwrap();

        // A refresh changes nothing; an index declared late sees every row,
        // including one too short to have the column.
        let (o, _) = t.insert(f(4, Value::Double(1.0)), at).unwrap();
        assert_eq!(o, InsertOutcome::Refreshed);
        t.insert(
            TupleBuilder::new("finger").push("n1").push(5i64).build(),
            at,
        )
        .unwrap();
        t.add_group_index(vec![2, 0]);
        assert_eq!(t.group_indexes(), [vec![2], vec![0, 2]]);
        assert_eq!(
            groups(&t, &[0, 2]),
            [(true, vec![0, 2]), (true, vec![4]), (true, vec![5])]
        );
        assert_eq!(t.stats().full_scans, 0);
        t.check_consistency().unwrap();
    }

    #[test]
    fn delete_matching_full_tuple() {
        let mut t = Table::new(TableSpec::new("neighbor", vec![1]));
        let n = |y: &str| TupleBuilder::new("neighbor").push("n1").push(y).build();
        t.insert(n("n2"), SimTime::ZERO).unwrap();
        t.insert(n("n3"), SimTime::ZERO).unwrap();
        let removed = t.delete_matching(&n("n2")).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 1);
        // Deleting a non-existent row is a no-op.
        assert!(t.delete_matching(&n("n9")).unwrap().is_empty());
    }

    #[test]
    fn delete_matching_null_wildcards() {
        let mut t = Table::new(TableSpec::new("pending", vec![1]));
        let row = TupleBuilder::new("pending")
            .push("n1")
            .push(7i64)
            .push("payload")
            .build();
        t.insert(row.clone(), SimTime::ZERO).unwrap();

        // A pattern whose non-key fields are null matches any stored values
        // there (OverLog delete rules may not know every field).
        let wild = TupleBuilder::new("pending")
            .push(Value::Null)
            .push(7i64)
            .push(Value::Null)
            .build();
        let removed = t.delete_matching(&wild).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].values(), row.values());
        assert!(t.is_empty());

        // A pattern with a mismatched concrete field removes nothing.
        t.insert(row, SimTime::ZERO).unwrap();
        let miss = TupleBuilder::new("pending")
            .push(Value::Null)
            .push(7i64)
            .push("other")
            .build();
        assert!(t.delete_matching(&miss).unwrap().is_empty());
        assert_eq!(t.len(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn aggregates_over_table() {
        let mut t = Table::new(TableSpec::new("succDist", vec![1]));
        for (s, d) in [(5i64, 4i64), (9, 8), (3, 2)] {
            let tup = TupleBuilder::new("succDist")
                .push("n1")
                .push(s)
                .push(d)
                .build();
            t.insert(tup, SimTime::ZERO).unwrap();
        }
        let agg = t.aggregate(AggFunc::Min, Some(2), &[0]).unwrap();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].0, vec![Value::str("n1")]);
        assert_eq!(agg[0].1, Value::Int(2));

        let count = t.aggregate(AggFunc::Count, None, &[0]).unwrap();
        assert_eq!(count[0].1, Value::Int(3));

        // Empty table: min produces no groups, so nothing is emitted.
        let empty = Table::new(TableSpec::new("x", vec![0]));
        assert!(empty
            .aggregate(AggFunc::Min, Some(1), &[0])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn filter_scan_with_pel() {
        use p2_pel::{BinOp, EvalContext, Expr, Program};
        let mut t = Table::new(TableSpec::new("member", vec![1]));
        for i in 0..10i64 {
            let tup = TupleBuilder::new("member")
                .push("n1")
                .push(i)
                .push(i * 10)
                .build();
            t.insert(tup, SimTime::ZERO).unwrap();
        }
        let filter = Program::compile(&Expr::bin(BinOp::Ge, Expr::Field(2), Expr::int(70)));
        let mut ctx = EvalContext::new("n1", 1);
        let hits: Vec<&Tuple> = t
            .scan_iter()
            .filter(|row| filter.eval_bool(row, &mut ctx).unwrap())
            .collect();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn resident_bytes_grows_with_rows() {
        let mut t = Table::new(TableSpec::new("m", vec![1]));
        let before = t.resident_bytes();
        t.insert(
            TupleBuilder::new("m").push("n1").push(1i64).build(),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(t.resident_bytes() > before);
    }

    #[test]
    fn borrowing_apis_agree_with_owning_ones() {
        let mut t = Table::new(TableSpec::new("member", vec![1]).with_max_size(100));
        t.add_index(vec![2]);
        for i in 0..12i64 {
            let tup = TupleBuilder::new("member")
                .push("n1")
                .push(i)
                .push(i % 3)
                .build();
            t.insert(tup, SimTime::from_secs(i as u64)).unwrap();
        }
        assert_eq!(t.scan_iter().count(), t.scan().len());

        let probe = [Value::Int(2)];
        let borrowed = t.lookup_iter(&[2], &probe).count();
        assert_eq!(borrowed, t.lookup(&[2], &[Value::Int(2)]).len());

        // Reference probes work without cloning values.
        let two = Value::Int(2);
        let refs = [&two];
        assert_eq!(t.lookup_iter(&[2], &refs).count(), borrowed);

        let key = [Value::Int(7)];
        assert_eq!(t.get_ref(&key), t.get(&key).as_ref());
        assert!(t.get_ref(&[Value::Int(99)]).is_none());
        assert!(t.contains_match(&[2], &refs));
        assert!(!t.contains_match(&[2], &[&Value::Int(9)]));
    }

    #[test]
    fn interleaved_operations_keep_indices_consistent() {
        // insert → replace → refresh → expire → evict interleavings; the
        // secondary index and staleness queue must never hold dangling
        // RowIds (check_consistency verifies every cross-reference).
        let mut t = Table::new(
            TableSpec::new("soup", vec![1])
                .with_lifetime_secs(20)
                .with_max_size(6),
        );
        t.add_index(vec![2]);
        t.add_index(vec![0, 2]);
        t.add_group_index(vec![2]);
        let mk = |k: i64, p: i64| TupleBuilder::new("soup").push("n1").push(k).push(p).build();
        for step in 0..200u64 {
            let now = SimTime::from_secs(step);
            match step % 7 {
                0 | 1 => {
                    t.insert(mk((step % 11) as i64, 0), now).unwrap();
                }
                2 => {
                    t.insert(mk((step % 11) as i64, (step % 5) as i64), now)
                        .unwrap();
                }
                3 => {
                    t.delete_key(&[Value::Int((step % 13) as i64)]);
                }
                4 => {
                    t.expire(now);
                }
                5 => {
                    // Burst of inserts to force evictions.
                    for j in 0..4 {
                        t.insert(mk(100 + j, j), now).unwrap();
                    }
                }
                _ => {
                    t.delete_matching(&mk((step % 11) as i64, 0)).unwrap();
                }
            }
            t.check_consistency()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert!(t.len() <= 6);
        }
        // Force a final expiry sweep well past every lifetime.
        t.insert(mk(500, 0), SimTime::from_secs(200)).unwrap();
        let final_len = t.len();
        assert_eq!(t.expire(SimTime::from_secs(400)).len(), final_len);
        assert!(t.is_empty());
        t.check_consistency().unwrap();
        let stats = t.stats();
        assert!(stats.evicted > 0 && stats.expired > 0);
    }

    #[test]
    fn deltas_cover_every_mutation_path() {
        let mut t = Table::new(succ_spec()); // lifetime 10 s, max 4 rows
        assert_eq!(t.version(), 0);
        // Runs one mutation; returns whether it moved the version.
        let moved = |t: &mut Table, op: &dyn Fn(&mut Table)| {
            let before = t.version();
            op(t);
            assert!(t.version() >= before, "the version never steps back");
            t.version() != before
        };

        let new = |t: &mut Table| {
            t.insert(succ(5, "n5"), SimTime::from_secs(1)).unwrap();
        };
        assert!(moved(&mut t, &new), "new row");
        let refresh = |t: &mut Table| {
            let (o, _) = t.insert(succ(5, "n5"), SimTime::from_secs(2)).unwrap();
            assert_eq!(o, InsertOutcome::Refreshed);
        };
        assert!(!moved(&mut t, &refresh), "a refresh changes no row");
        let replace = |t: &mut Table| {
            let (o, _) = t.insert(succ(5, "n5b"), SimTime::from_secs(3)).unwrap();
            assert!(matches!(o, InsertOutcome::Replaced(_)));
        };
        assert!(moved(&mut t, &replace), "replace");
        let delete = |t: &mut Table| {
            t.delete_key(&[Value::Int(5)]).unwrap();
        };
        assert!(moved(&mut t, &delete), "delete");
        let missed = |t: &mut Table| {
            assert!(t.delete_key(&[Value::Int(5)]).is_none());
        };
        assert!(!moved(&mut t, &missed), "deleting nothing");

        // Eviction: the fifth row pushes the first one out.
        for (i, s) in [10i64, 20, 30, 40].iter().enumerate() {
            t.insert(succ(*s, "x"), SimTime::from_secs(10 + i as u64))
                .unwrap();
        }
        let before = t.version();
        let (_, evicted) = t.insert(succ(50, "x"), SimTime::from_secs(14)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(t.version(), before + 2, "the new row and the eviction");

        // Expiry: one step per expired row; a sweep that expires nothing
        // leaves the version alone.
        let quiet = |t: &mut Table| assert!(t.expire(SimTime::from_secs(15)).is_empty());
        assert!(
            !moved(&mut t, &quiet),
            "an expiry sweep that removes nothing"
        );
        let before = t.version();
        assert_eq!(t.expire(SimTime::from_secs(40)).len(), 4);
        assert_eq!(t.version(), before + 4);
        t.check_consistency().unwrap();
    }

    /// Many mutations in a row, through every path, and the counter only
    /// ever moves forward.
    #[test]
    fn delta_overflow_reports_once_and_recovers() {
        let mut t = Table::new(
            TableSpec::new("t", vec![1])
                .with_lifetime_secs(5)
                .with_max_size(64),
        );
        let mut last = t.version();
        for i in 0..10_000i64 {
            let at = SimTime::from_secs(i as u64 / 16);
            match i % 4 {
                0 | 1 => {
                    t.insert(succ(i % 200, "x"), at).unwrap();
                }
                2 => {
                    t.insert(succ(i % 200, "y"), at).unwrap();
                }
                _ => {
                    t.delete_key(&[Value::Int(i % 150)]);
                    t.expire(at);
                }
            }
            assert!(t.version() >= last, "step {i}: the version stepped back");
            last = t.version();
        }
        assert!(last > 8_192, "only {last} changes counted");
        let stats = t.stats();
        assert!(stats.evicted > 0 && stats.expired > 0);
        t.check_consistency().unwrap();
    }

    /// A reader that looks after every mutation and one that looks only at
    /// the end agree: the counter is table state, with no per-reader queue
    /// to fill up or fall behind.
    #[test]
    fn independent_subscriptions_see_the_same_stream() {
        let mut t = Table::new(TableSpec::new("t", vec![1]));
        let late_reader = t.version();
        let mut eager_reader = t.version();
        // One row replaced over and over: every insert is a replacement.
        t.insert(succ(1, "x0"), SimTime::ZERO).unwrap();
        for i in 1..=9_000 {
            t.insert(succ(1, &format!("x{i}")), SimTime::ZERO).unwrap();
            assert!(t.version() > eager_reader, "replacement {i} not counted");
            eager_reader = t.version();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.version() - late_reader, 9_001);
        assert_eq!(eager_reader, t.version());
    }

    #[test]
    fn lazy_refresh_coalesces_and_preserves_expiry_eviction_order() {
        let mut t = Table::new(succ_spec()); // lifetime 10 s, max 4
        for (i, s) in [1i64, 2, 3, 4].iter().enumerate() {
            t.insert(succ(*s, "x"), SimTime::from_secs(i as u64))
                .unwrap();
        }
        // Refresh row 1 repeatedly: the staleness queue must not be
        // touched until a sweep forces the single coalesced update.
        for at in [20u64, 21, 22] {
            let (o, _) = t.insert(succ(1, "x"), SimTime::from_secs(at)).unwrap();
            assert_eq!(o, InsertOutcome::Refreshed);
        }
        t.check_consistency().unwrap();
        // An expiry sweep at t=13 must expire rows 2 and 3 (inserted at 1
        // and 2, lifetime 10; row 4 at t=3 is exactly at the bound) but
        // keep the refreshed row 1 (effective time 22, queued time 0).
        let gone = t.expire(SimTime::from_secs(13));
        assert_eq!(gone.len(), 2);
        assert!(t.get(&[Value::Int(1)]).is_some());
        assert!(t.get(&[Value::Int(4)]).is_some());
        t.check_consistency().unwrap();

        // Eviction must also respect the lazy refresh: refill and confirm
        // the refreshed row is not picked as the stale victim. Inserting
        // keys 5..7 overflows once: the victim must be the unrefreshed row
        // 4 (queued at t=3), not row 1 (queued at t=0 but effective t=22).
        let mut spill = Vec::new();
        for (i, s) in [5i64, 6, 7].iter().enumerate() {
            t.insert_spill(succ(*s, "y"), SimTime::from_secs(23 + i as u64), &mut spill)
                .unwrap();
        }
        assert_eq!(spill.len(), 1);
        assert_eq!(spill[0].field(1), &Value::Int(4));
        assert!(t.get(&[Value::Int(1)]).is_some());

        t.insert(succ(1, "x"), SimTime::from_secs(40)).unwrap(); // lazy refresh again
        let (_, evicted) = t.insert(succ(8, "z"), SimTime::from_secs(41)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(
            evicted[0].field(1),
            &Value::Int(5),
            "the stalest unrefreshed row is the victim"
        );
        assert!(t.get(&[Value::Int(1)]).is_some());
        t.check_consistency().unwrap();
    }

    #[test]
    fn backward_refresh_applies_eagerly() {
        let mut t = Table::new(succ_spec());
        t.insert(succ(1, "x"), SimTime::from_secs(30)).unwrap();
        t.insert(succ(2, "y"), SimTime::from_secs(5)).unwrap();
        // Re-insert row 1 at an *earlier* time: must reposition eagerly so
        // the queue order reflects effective times exactly.
        let (o, _) = t.insert(succ(1, "x"), SimTime::from_secs(2)).unwrap();
        assert_eq!(o, InsertOutcome::Refreshed);
        t.check_consistency().unwrap();
        let gone = t.expire(SimTime::from_secs(13));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].field(1), &Value::Int(1));
    }

    #[test]
    fn delete_matching_spill_reuses_the_caller_buffer() {
        let mut t = Table::new(TableSpec::new("neighbor", vec![1]));
        let n = |y: &str| TupleBuilder::new("neighbor").push("n1").push(y).build();
        t.insert(n("n2"), SimTime::ZERO).unwrap();
        t.insert(n("n3"), SimTime::ZERO).unwrap();
        let mut spill = Vec::new();
        assert_eq!(t.delete_matching_spill(&n("n2"), &mut spill).unwrap(), 1);
        assert_eq!(spill.len(), 1);
        assert_eq!(t.delete_matching_spill(&n("n9"), &mut spill).unwrap(), 0);
        assert_eq!(spill.len(), 1, "misses append nothing");
        spill.clear();
        assert_eq!(t.delete_matching_spill(&n("n3"), &mut spill).unwrap(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn expire_count_matches_expire() {
        let mut a = Table::new(TableSpec::new("t", vec![1]).with_lifetime_secs(5));
        let mut b = Table::new(TableSpec::new("t", vec![1]).with_lifetime_secs(5));
        for i in 0..10i64 {
            let tup = TupleBuilder::new("t").push("n1").push(i).build();
            a.insert(tup.clone(), SimTime::from_secs(i as u64)).unwrap();
            b.insert(tup, SimTime::from_secs(i as u64)).unwrap();
        }
        let now = SimTime::from_secs(9);
        assert_eq!(a.expire(now).len(), b.expire_count(now));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn whole_tuple_key_tables_still_work() {
        // An empty declared key means the whole tuple is the key.
        let mut t = Table::new(TableSpec::new("link", vec![]));
        let l = |a: &str, b: &str| TupleBuilder::new("link").push(a).push(b).build();
        t.insert(l("a", "b"), SimTime::ZERO).unwrap();
        t.insert(l("a", "c"), SimTime::ZERO).unwrap();
        let (o, _) = t.insert(l("a", "b"), SimTime::from_secs(1)).unwrap();
        assert_eq!(o, InsertOutcome::Refreshed);
        assert_eq!(t.len(), 2);
        assert!(t.get(&[Value::str("a"), Value::str("b")]).is_some());
        assert_eq!(
            t.delete_key(&[Value::str("a"), Value::str("c")])
                .unwrap()
                .field(1),
            &Value::str("c")
        );
        t.check_consistency().unwrap();
    }
}

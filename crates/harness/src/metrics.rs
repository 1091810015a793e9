//! Histograms, CDFs and summary statistics used by the experiments.

use serde::Serialize;

/// Cluster-wide table-storage operation counters (summed over nodes).
///
/// `full_scans` exposes lookups that could not use an index — the planner
/// auto-declares secondary indices for every equijoin probe over non-key
/// columns, so a non-zero value here flags a probe path that regressed to
/// O(n).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StorageOps {
    /// Lookups served by primary-key indices.
    pub primary_lookups: u64,
    /// Lookups served by secondary indices.
    pub indexed_lookups: u64,
    /// Lookups that fell back to full-table scans.
    pub full_scans: u64,
    /// Rows removed by soft-state expiry.
    pub expired: u64,
    /// Rows evicted by table size bounds.
    pub evicted: u64,
    /// Always 0: tables keep no per-consumer delta log that could overflow.
    /// The field stays only because `benchmark/` builds this struct by
    /// literal; the next `benchmark` PR may drop it.
    pub overflows: u64,
    /// Always 0, for the same reason: nothing rebuilds after an overflow
    /// (`TableAgg` re-reads its table whenever the table changed).
    pub rebuilds: u64,
}

impl StorageOps {
    /// Fraction of lookups that used an index (1.0 when no lookups ran).
    pub fn indexed_fraction(&self) -> f64 {
        let indexed = self.primary_lookups + self.indexed_lookups;
        let total = indexed + self.full_scans;
        if total == 0 {
            return 1.0;
        }
        indexed as f64 / total as f64
    }
}

impl From<p2_table::TableStats> for StorageOps {
    fn from(s: p2_table::TableStats) -> StorageOps {
        StorageOps {
            primary_lookups: s.primary_lookups,
            indexed_lookups: s.indexed_lookups,
            full_scans: s.full_scans,
            expired: s.expired,
            evicted: s.evicted,
            overflows: 0,
            rebuilds: 0,
        }
    }
}

/// Cluster-wide engine ingress counters (summed over nodes), the dataflow
/// analogue of [`StorageOps`]: how many tuples entered each node's graph from
/// the outside and how many arrived with no matching entry port. A non-zero
/// `dropped_no_entry` flags traffic for tuple names the plan never declared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineOps {
    /// Tuples pushed into element input ports.
    pub handoffs: u64,
    /// Tuples injected from outside (network arrivals, application events).
    pub injected: u64,
    /// Tuples dropped because no entry port matched their name.
    pub dropped_no_entry: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Tuples handed to the network.
    pub sent: u64,
    /// Always 0: the planner's static refresh_masks, which this counted,
    /// were removed (empty for every shipped program, 0 in every recorded
    /// run). The field stays only because `benchmark/` builds this struct
    /// by literal; the next `benchmark` PR may drop it.
    pub suppressed_refresh_pokes: u64,
    /// Always 0, for the same reason: the engine no longer skips pokes (a
    /// strand that finds nothing is a wasted poke in the obs report), so
    /// nothing feeds this counter.
    pub suppressed_guard_pokes: u64,
}

impl EngineOps {
    /// Accumulates one node's [`p2_dataflow::EngineStats`] into the sum.
    pub fn absorb(&mut self, s: p2_dataflow::EngineStats) {
        self.handoffs += s.handoffs;
        self.injected += s.injected;
        self.dropped_no_entry += s.dropped_no_entry;
        self.timers_fired += s.timers_fired;
        self.sent += s.sent;
    }
}

/// Simulator event-loop counters (the event-core analogue of
/// [`StorageOps`]): how many events the loop has processed and what its
/// pending-work structures currently hold. `scheduled_wakeups` can never
/// exceed the node count — the timer index keeps at most one live entry per
/// node, so a larger value would flag tombstone accumulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SimOps {
    /// Total events processed (deliveries, arrival-time drops, wakeups).
    pub events_processed: u64,
    /// Wakeup events processed.
    pub wakeups_processed: u64,
    /// Packets currently in flight.
    pub packets_in_flight: usize,
    /// Live wakeup entries in the timer index (≤ node count).
    pub scheduled_wakeups: usize,
}

/// A discrete histogram over small non-negative integers (e.g. hop counts).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Adds one observation of `value`.
    pub fn add(&mut self, value: usize) {
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Relative frequency of each value (index = value), as plotted in
    /// Figure 3(i).
    pub fn frequencies(&self) -> Vec<(usize, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(v, c)| (v, *c as f64 / self.total as f64))
            .collect()
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Raw counts (index = value).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// An empirical CDF over floating-point samples (latencies, consistency
/// fractions).
///
/// The sorted order is computed once on first use and cached; `add`
/// invalidates the cache. This keeps repeated `quantile`/`points` calls at
/// report time from re-cloning and re-sorting the sample vector each call.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: Vec<f64>,
    dirty: bool,
}

impl Serialize for Cdf {
    fn to_json(&self) -> serde::Json {
        // Only the raw samples are data; the sort cache is derived state.
        serde::Json::Object(vec![("samples".to_string(), self.samples.to_json())])
    }
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Cdf {
        Cdf::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        self.samples.push(sample);
        self.dirty = true;
    }

    fn sorted(&mut self) -> &[f64] {
        if self.dirty || self.sorted.len() != self.samples.len() {
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.samples);
            self.sorted.sort_by(f64::total_cmp);
            self.dirty = false;
        }
        &self.sorted
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The fraction of samples at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let below = self.samples.iter().filter(|s| **s <= x).count();
        below as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// `(value, cumulative fraction)` points suitable for plotting.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        let sorted = self.sorted();
        let n = sorted.len();
        sorted
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, (i + 1) as f64 / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_frequencies_and_mean() {
        let mut h = Histogram::new();
        for v in [1usize, 2, 2, 3, 3, 3] {
            h.add(v);
        }
        assert_eq!(h.total(), 6);
        let freqs = h.frequencies();
        assert_eq!(freqs[2], (2, 2.0 / 6.0));
        assert!((h.mean() - 14.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.counts()[3], 3);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert!(h.frequencies().is_empty());
    }

    #[test]
    fn cdf_quantiles_and_fractions() {
        let mut c = Cdf::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            c.add(v);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.fraction_at_or_below(3.0), 0.6);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.quantile(0.5), 3.0);
        assert_eq!(c.mean(), 3.0);
        let pts = c.points();
        assert_eq!(pts.first().unwrap().1, 0.2);
        assert_eq!(pts.last().unwrap(), &(5.0, 1.0));
    }

    #[test]
    fn storage_ops_indexed_fraction() {
        let mut ops = StorageOps::default();
        assert_eq!(ops.indexed_fraction(), 1.0);
        ops.primary_lookups = 6;
        ops.indexed_lookups = 2;
        ops.full_scans = 2;
        assert!((ops.indexed_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn cdf_sort_cache_invalidated_by_add() {
        let mut c = Cdf::new();
        c.add(5.0);
        c.add(1.0);
        assert_eq!(c.quantile(0.0), 1.0);
        // A sample below the current minimum must be visible after the
        // cached sort has already been built.
        c.add(0.5);
        assert_eq!(c.quantile(0.0), 0.5);
        assert_eq!(c.points().first().unwrap().0, 0.5);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn engine_ops_absorb_sums() {
        let mut ops = EngineOps::default();
        ops.absorb(p2_dataflow::EngineStats {
            injected: 3,
            dropped_no_entry: 1,
            ..Default::default()
        });
        ops.absorb(p2_dataflow::EngineStats {
            injected: 2,
            sent: 4,
            ..Default::default()
        });
        assert_eq!(
            ops,
            EngineOps {
                injected: 5,
                dropped_no_entry: 1,
                sent: 4,
                ..Default::default()
            }
        );
    }
}

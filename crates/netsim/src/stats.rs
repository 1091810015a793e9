//! Traffic accounting for the bandwidth experiments.

use std::collections::HashMap;

/// Cumulative traffic counters kept by the simulator.
///
/// The paper's "maintenance bandwidth" figures count all traffic *not*
/// associated with lookups and responses; keeping per-tuple-name byte counts
/// lets the harness classify traffic exactly that way.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Total messages handed to the network.
    pub messages_sent: u64,
    /// Messages actually delivered to an up node.
    pub messages_delivered: u64,
    /// Messages dropped (loss, destination down or unknown).
    pub messages_dropped: u64,
    /// Total bytes sent (payload + UDP/IP header).
    pub bytes_sent: u64,
    /// Bytes sent per tuple name.
    pub bytes_by_name: HashMap<String, u64>,
    /// Bytes sent per source node.
    pub bytes_by_source: HashMap<String, u64>,
}

/// Bumps `map[key]` by `bytes`, allocating the key string only the first
/// time a name/source is seen — the per-packet steady state is a plain
/// hash probe.
fn bump(map: &mut HashMap<String, u64>, key: &str, bytes: u64) {
    if let Some(v) = map.get_mut(key) {
        *v += bytes;
    } else {
        map.insert(key.to_string(), bytes);
    }
}

impl NetStats {
    /// Records a transmission attempt of `bytes` bytes for tuple `name` from
    /// `src`.
    pub fn record_send(&mut self, src: &str, name: &str, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        bump(&mut self.bytes_by_name, name, bytes as u64);
        bump(&mut self.bytes_by_source, src, bytes as u64);
    }

    /// Records a successful delivery.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Records a drop.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Total bytes across tuple names for which `classify` returns true.
    pub fn bytes_where(&self, classify: impl Fn(&str) -> bool) -> u64 {
        self.bytes_by_name
            .iter()
            .filter(|(name, _)| classify(name))
            .map(|(_, b)| *b)
            .sum()
    }

    /// Bytes belonging to lookup traffic (lookups and their responses).
    pub fn lookup_bytes(&self) -> u64 {
        self.bytes_where(|n| n == "lookup" || n == "lookupResults")
    }

    /// Bytes belonging to overlay maintenance (everything that is not lookup
    /// traffic), matching the paper's definition.
    pub fn maintenance_bytes(&self) -> u64 {
        self.bytes_sent - self.lookup_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_splits_lookup_and_maintenance() {
        let mut s = NetStats::default();
        s.record_send("n1", "lookup", 100);
        s.record_send("n2", "lookupResults", 50);
        s.record_send("n1", "succ", 200);
        s.record_send("n3", "pingReq", 25);
        assert_eq!(s.bytes_sent, 375);
        assert_eq!(s.lookup_bytes(), 150);
        assert_eq!(s.maintenance_bytes(), 225);
        assert_eq!(s.bytes_by_source["n1"], 300);
        assert_eq!(s.messages_sent, 4);
    }

    #[test]
    fn repeated_sends_accumulate_under_one_key() {
        let mut s = NetStats::default();
        for _ in 0..3 {
            s.record_send("n1", "succ", 10);
        }
        assert_eq!(s.bytes_by_name.len(), 1);
        assert_eq!(s.bytes_by_name["succ"], 30);
    }

    #[test]
    fn drops_and_deliveries_are_counted() {
        let mut s = NetStats::default();
        s.record_send("n1", "x", 10);
        s.record_delivery();
        s.record_drop();
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.messages_dropped, 1);
    }
}

//! Transit-stub topology and latency model.

use std::collections::HashMap;

use p2_value::SimTime;

/// The simulated network layout.
///
/// Mirrors the Emulab configuration of the paper's evaluation: a set of
/// domains, each with one router; stub nodes attach to their domain router.
/// Latency between two nodes is the sum of their access hops plus, for
/// different domains, the inter-domain hop.
///
/// Pairwise domain latencies are precomputed into a `domains × domains`
/// matrix at construction so the simulator's per-packet lookup is a single
/// array load ([`Topology::domain_latency`]). The latency fields are public
/// for inspection; code that mutates them after construction must call
/// [`Topology::rebuild_latency_matrix`].
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of domains (routers).
    pub domains: usize,
    /// One-way latency from a stub node to its domain router.
    pub intra_domain_latency: SimTime,
    /// One-way latency between two domain routers.
    pub inter_domain_latency: SimTime,
    /// Access link capacity (bits per second) of a stub node.
    pub access_bandwidth_bps: f64,
    /// Core link capacity (bits per second) between routers.
    pub core_bandwidth_bps: f64,
    /// Row-major `domains × domains` matrix of one-way latencies between
    /// nodes placed in each pair of domains.
    latency_matrix: Vec<SimTime>,
    assignments: HashMap<String, usize>,
    next: usize,
}

impl Topology {
    /// The topology used in the paper's evaluation: 10 domain routers,
    /// 2 ms intra-domain latency, 100 ms inter-domain latency, 10 Mbps stub
    /// links and 100 Mbps core links.
    pub fn emulab_default() -> Topology {
        Topology::new(
            10,
            SimTime::from_millis(2),
            SimTime::from_millis(100),
            10e6,
            100e6,
        )
    }

    /// Creates a topology with explicit parameters.
    pub fn new(
        domains: usize,
        intra_domain_latency: SimTime,
        inter_domain_latency: SimTime,
        access_bandwidth_bps: f64,
        core_bandwidth_bps: f64,
    ) -> Topology {
        let mut t = Topology {
            domains: domains.max(1),
            intra_domain_latency,
            inter_domain_latency,
            access_bandwidth_bps,
            core_bandwidth_bps,
            latency_matrix: Vec::new(),
            assignments: HashMap::new(),
            next: 0,
        };
        t.rebuild_latency_matrix();
        t
    }

    /// Recomputes the domain×domain latency matrix from the latency fields.
    pub fn rebuild_latency_matrix(&mut self) {
        let d = self.domains;
        let same = self.intra_domain_latency + self.intra_domain_latency;
        let cross =
            self.intra_domain_latency + self.inter_domain_latency + self.intra_domain_latency;
        self.latency_matrix = (0..d * d)
            .map(|i| if i / d == i % d { same } else { cross })
            .collect();
    }

    /// Assigns a node to a domain (round-robin if not explicitly placed).
    pub fn place(&mut self, addr: impl Into<String>) -> usize {
        let addr = addr.into();
        if let Some(d) = self.assignments.get(&addr) {
            return *d;
        }
        let domain = self.next % self.domains;
        self.next += 1;
        self.assignments.insert(addr, domain);
        domain
    }

    /// Explicitly places a node in a domain.
    pub fn place_in(&mut self, addr: impl Into<String>, domain: usize) {
        self.assignments.insert(addr.into(), domain % self.domains);
    }

    /// The domain a node was placed in, if any.
    pub fn domain_of(&self, addr: &str) -> Option<usize> {
        self.assignments.get(addr).copied()
    }

    /// One-way propagation latency between two *distinct* placed nodes, by
    /// their domains. A single array load — this is the simulator's
    /// per-packet path.
    #[inline]
    pub fn domain_latency(&self, da: usize, db: usize) -> SimTime {
        self.latency_matrix[da * self.domains + db]
    }

    /// One-way propagation latency between two placed nodes.
    ///
    /// Unplaced nodes are treated as being in domain 0. Boundary/diagnostic
    /// API: the simulator resolves domains once per node and calls
    /// [`Topology::domain_latency`] directly.
    pub fn latency(&self, a: &str, b: &str) -> SimTime {
        if a == b {
            return SimTime::ZERO;
        }
        let da = self.domain_of(a).unwrap_or(0);
        let db = self.domain_of(b).unwrap_or(0);
        self.domain_latency(da, db)
    }

    /// Transmission (serialization) delay of a packet of `bytes` bytes on a
    /// stub node's access link.
    pub fn access_tx_delay(&self, bytes: usize) -> SimTime {
        let seconds = (bytes as f64 * 8.0) / self.access_bandwidth_bps;
        SimTime::from_secs_f64(seconds)
    }

    /// Number of placed nodes.
    pub fn placed(&self) -> usize {
        self.assignments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulab_defaults_match_paper() {
        let t = Topology::emulab_default();
        assert_eq!(t.domains, 10);
        assert_eq!(t.intra_domain_latency, SimTime::from_millis(2));
        assert_eq!(t.inter_domain_latency, SimTime::from_millis(100));
        assert_eq!(t.access_bandwidth_bps, 10e6);
        assert_eq!(t.core_bandwidth_bps, 100e6);
    }

    #[test]
    fn round_robin_placement_spreads_nodes() {
        let mut t = Topology::emulab_default();
        for i in 0..100 {
            t.place(format!("n{i}"));
        }
        assert_eq!(t.placed(), 100);
        // 100 nodes over 10 domains -> 10 per domain.
        let mut counts = [0usize; 10];
        for i in 0..100 {
            counts[t.domain_of(&format!("n{i}")).unwrap()] += 1;
        }
        assert!(counts.iter().all(|c| *c == 10));
        // Placement is stable.
        assert_eq!(t.place("n0"), t.domain_of("n0").unwrap());
    }

    #[test]
    fn latency_model() {
        let mut t = Topology::emulab_default();
        t.place_in("a", 0);
        t.place_in("b", 0);
        t.place_in("c", 5);
        assert_eq!(t.latency("a", "a"), SimTime::ZERO);
        assert_eq!(t.latency("a", "b"), SimTime::from_millis(4));
        assert_eq!(t.latency("a", "c"), SimTime::from_millis(104));
        assert_eq!(t.latency("a", "c"), t.latency("c", "a"));
    }

    #[test]
    fn domain_latency_matrix_matches_the_model() {
        let t = Topology::emulab_default();
        for da in 0..t.domains {
            for db in 0..t.domains {
                let expect = if da == db {
                    SimTime::from_millis(4)
                } else {
                    SimTime::from_millis(104)
                };
                assert_eq!(t.domain_latency(da, db), expect);
            }
        }
    }

    #[test]
    fn rebuild_tracks_field_edits() {
        let mut t = Topology::emulab_default();
        t.inter_domain_latency = SimTime::from_millis(50);
        t.rebuild_latency_matrix();
        assert_eq!(t.domain_latency(0, 1), SimTime::from_millis(54));
        assert_eq!(t.domain_latency(0, 0), SimTime::from_millis(4));
    }

    #[test]
    fn tx_delay_scales_with_size() {
        let t = Topology::emulab_default();
        // 1250 bytes at 10 Mbps = 1 ms.
        assert_eq!(t.access_tx_delay(1250), SimTime::from_millis(1));
        assert!(t.access_tx_delay(2500) > t.access_tx_delay(1250));
    }
}

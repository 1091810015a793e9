//! General-purpose "glue" elements: queue and tap.

use std::sync::Arc;

use parking_lot::Mutex;

use p2_value::{SimTime, Tuple};

use crate::element::{Element, ElementCtx};

/// A pass-through queue.
///
/// In the original system queues decouple push and pull sections of the
/// graph and block when full. In this reproduction intra-node flow control
/// is not needed (the engine drains a FIFO work queue), so a queue's
/// *occupancy* is defined as the engine's pending-work backlog at the moment
/// a tuple reaches the queueing point, including that tuple
/// ([`ElementCtx::pending`] + 1). The optional capacity is a load-shedding
/// bound on that backlog: while the node is processing a cascade deeper than
/// `capacity`, tuples reaching the queue are dropped. (The seed incremented
/// and decremented a counter around a synchronous emit, so occupancy never
/// exceeded one and the capacity could never trigger.)
pub struct Queue {
    capacity: Option<usize>,
    /// Number of tuples dropped because the backlog exceeded capacity.
    pub dropped: u64,
    /// Highest occupancy observed.
    pub high_watermark: usize,
}

impl Queue {
    /// Creates a queue with an optional load-shedding capacity.
    pub fn new(capacity: Option<usize>) -> Queue {
        Queue {
            capacity,
            dropped: 0,
            high_watermark: 0,
        }
    }
}

impl Element for Queue {
    fn class(&self) -> &'static str {
        "Queue"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let occupancy = ctx.pending() + 1;
        self.high_watermark = self.high_watermark.max(occupancy);
        if let Some(cap) = self.capacity {
            if occupancy > cap {
                self.dropped += 1;
                return;
            }
        }
        ctx.emit(0, tuple.clone());
    }
}

/// Shared buffer filled by a [`Collector`] element.
pub type CollectorHandle = Arc<Mutex<Vec<(SimTime, Tuple)>>>;

/// A tap that records every tuple it sees (with its arrival time) into a
/// shared buffer and forwards it unchanged.
///
/// The experiment harness uses collectors to observe `lookupResults`
/// tuples; the paper's logging facility (§3.5) plays the same role.
pub struct Collector {
    buffer: CollectorHandle,
}

impl Collector {
    /// Creates a collector and returns it along with the shared buffer.
    pub fn new() -> (Collector, CollectorHandle) {
        let buffer: CollectorHandle = Arc::new(Mutex::new(Vec::new()));
        (
            Collector {
                buffer: buffer.clone(),
            },
            buffer,
        )
    }

    /// Creates a collector writing into an existing buffer.
    pub fn with_buffer(buffer: CollectorHandle) -> Collector {
        Collector { buffer }
    }
}

impl Element for Collector {
    fn class(&self) -> &'static str {
        "Collector"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        self.buffer.lock().push((ctx.now(), tuple.clone()));
        ctx.emit(0, tuple.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Graph, Route};
    use p2_value::TupleBuilder;

    #[test]
    fn queue_forwards_and_counts() {
        let mut g = Graph::new();
        let q = g.add("queue", Box::new(Queue::new(None)));
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(q, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: q,
            port: 0,
        });
        for i in 0..5i64 {
            engine.deliver(TupleBuilder::new("x").push(i).build(), SimTime::ZERO);
        }
        assert_eq!(buf.lock().len(), 5);
    }

    /// Emits a burst of `n` copies of every incoming tuple.
    struct Burst(usize);

    impl Element for Burst {
        fn class(&self) -> &'static str {
            "Burst"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            for _ in 0..self.0 {
                ctx.emit(0, tuple.clone());
            }
        }
    }

    /// Pins the queue's occupancy/capacity semantics: occupancy is the
    /// engine backlog at the queueing point (pending work + the tuple in
    /// hand), and the capacity sheds tuples while that backlog exceeds it.
    #[test]
    fn queue_capacity_sheds_load_under_backlog() {
        let mut g = Graph::new();
        let b = g.add("burst", Box::new(Burst(5)));
        let q = g.add("queue", Box::new(Queue::new(Some(3))));
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(b, 0, q, 0);
        g.connect(q, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: b,
            port: 0,
        });
        engine.deliver(TupleBuilder::new("x").push(1i64).build(), SimTime::ZERO);

        // The burst enqueues 5 tuples for the queue at once. The first two
        // see backlogs of 5 and 4 (> capacity 3) and are shed; the remaining
        // three pass (forwarding re-enqueues downstream work, but the
        // backlog never exceeds the capacity again).
        assert_eq!(buf.lock().len(), 3);

        // A calm, one-at-a-time trickle is never shed.
        let mut g = Graph::new();
        let q = g.add("queue", Box::new(Queue::new(Some(1))));
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(q, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: q,
            port: 0,
        });
        for i in 0..4i64 {
            engine.deliver(TupleBuilder::new("x").push(i).build(), SimTime::ZERO);
        }
        assert_eq!(buf.lock().len(), 4);
    }

    #[test]
    fn collector_records_arrival_time() {
        let mut g = Graph::new();
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: c,
            port: 0,
        });
        engine.deliver(TupleBuilder::new("x").build(), SimTime::from_secs(9));
        let entries = buf.lock();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, SimTime::from_secs(9));
    }
}

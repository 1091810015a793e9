//! The interface a simulated overlay node presents to the simulator.

use std::sync::Arc;

use p2_value::{SimTime, Tuple};

/// A tuple addressed to another node.
///
/// Like the dataflow engine's `Outgoing`, the destination is an `Arc<str>`:
/// the address usually originates in a tuple field whose string is already
/// reference-counted, so crossing the node/simulator boundary shares it
/// instead of reallocating per packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Destination node address.
    pub dst: Arc<str>,
    /// Payload tuple.
    pub tuple: Tuple,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(dst: impl Into<Arc<str>>, tuple: Tuple) -> Envelope {
        Envelope {
            dst: dst.into(),
            tuple,
        }
    }
}

/// A node hosted by the simulator.
///
/// Both the declarative P2 nodes and the hand-coded baseline implement this
/// trait; the simulator drives them identically, which keeps the comparison
/// experiments fair.
pub trait Host {
    /// Boots the node at virtual time `now`.
    fn start(&mut self, now: SimTime) -> Vec<Envelope>;

    /// Delivers a tuple addressed to this node.
    fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Envelope>;

    /// Delivers a batch of tuples that all arrive at this node at the same
    /// virtual instant. The default forwards one at a time; hosts with a
    /// cheaper batched path (the P2 engine's `deliver_many`) override it so
    /// the glue amortizes per-tuple dispatch.
    fn deliver_many(&mut self, tuples: Vec<Tuple>, now: SimTime) -> Vec<Envelope> {
        let mut out = Vec::new();
        for t in tuples {
            out.extend(self.deliver(t, now));
        }
        out
    }

    /// Advances the node's clock, firing any timers due at or before `now`.
    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope>;

    /// The earliest future time at which the node has work to do, if any.
    fn next_deadline(&self) -> Option<SimTime>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::TupleBuilder;

    #[test]
    fn envelope_construction() {
        let e = Envelope::new("n2", TupleBuilder::new("ping").push("n1").build());
        assert_eq!(&*e.dst, "n2");
        assert_eq!(e.tuple.name(), "ping");
    }
}

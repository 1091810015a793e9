//! Adapter exposing a P2 node to the network simulator.

use p2_core::{Outgoing, P2Node};
use p2_netsim::{Envelope, Host};
use p2_value::{SimTime, Tuple};

/// A [`P2Node`] wrapped as a simulator [`Host`].
///
/// The wrapper is a straight delegation: outgoing dataflow tuples become
/// simulator envelopes and vice versa.
pub struct P2Host {
    node: P2Node,
}

impl P2Host {
    /// Wraps a planned node.
    pub fn new(node: P2Node) -> P2Host {
        P2Host { node }
    }

    /// Access to the underlying node (tables, collectors, statistics).
    pub fn node(&self) -> &P2Node {
        &self.node
    }

    /// Mutable access to the underlying node.
    pub fn node_mut(&mut self) -> &mut P2Node {
        &mut self.node
    }
}

fn convert(out: Vec<Outgoing>) -> Vec<Envelope> {
    out.into_iter()
        .map(|o| Envelope::new(o.dst, o.tuple))
        .collect()
}

impl Host for P2Host {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        convert(self.node.start(now))
    }

    fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Envelope> {
        convert(self.node.deliver(tuple, now))
    }

    fn deliver_many(&mut self, tuples: Vec<Tuple>, now: SimTime) -> Vec<Envelope> {
        // One soft-state sweep and one engine drain for the whole batch.
        convert(self.node.deliver_many(tuples, now))
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        convert(self.node.advance_to(now))
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.node.next_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_core::NodeConfig;
    use p2_overlog::compile_checked;
    use p2_value::TupleBuilder;

    #[test]
    fn adapter_delegates_to_the_node() {
        let src = r#"
            P1 pong@X(X, Y) :- ping@Y(Y, X).
        "#;
        let program = compile_checked(src).unwrap();
        let node = P2Node::new(&program, NodeConfig::new("n1", 1).without_jitter()).unwrap();
        let mut host = P2Host::new(node);
        host.start(SimTime::ZERO);
        let out = host.deliver(
            TupleBuilder::new("ping").push("n1").push("n2").build(),
            SimTime::from_secs(1),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].dst, "n2");
        assert_eq!(out[0].tuple.name(), "pong");
        assert!(host.node().next_deadline().is_none());
        assert_eq!(host.node_mut().addr(), "n1");
    }
}

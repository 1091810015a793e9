//! The element interface.

use std::any::Any;
use std::sync::Arc;

use p2_pel::EvalContext;
use p2_value::{SimTime, Tuple};

/// A tuple leaving the node for another node's address.
///
/// The destination is an `Arc<str>` rather than an owned `String`: on the
/// hot send path the address is usually already interned in a tuple field
/// (`Value::Str` holds an `Arc<str>`), so handing a tuple to the network is
/// a reference-count bump, not a heap allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing {
    /// Destination node address (resolved by the network substrate).
    pub dst: Arc<str>,
    /// The tuple to deliver.
    pub tuple: Tuple,
}

/// Execution context handed to an element while it processes a tuple,
/// a timer or the start-up hook.
///
/// Elements communicate exclusively through this context: they emit tuples on
/// their output ports, hand tuples destined for other nodes to the network,
/// and schedule timers. The engine routes emissions to downstream input
/// ports after the element returns (run-to-completion per element).
pub struct ElementCtx<'a> {
    now: SimTime,
    pending: usize,
    eval: &'a mut EvalContext,
    emissions: &'a mut Vec<(usize, Tuple)>,
    outgoing: &'a mut Vec<Outgoing>,
    timers: &'a mut Vec<(u64, SimTime)>,
    state_changed: bool,
    eval_errors: u64,
}

impl<'a> ElementCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        pending: usize,
        eval: &'a mut EvalContext,
        emissions: &'a mut Vec<(usize, Tuple)>,
        outgoing: &'a mut Vec<Outgoing>,
        timers: &'a mut Vec<(u64, SimTime)>,
    ) -> ElementCtx<'a> {
        ElementCtx {
            now,
            pending,
            eval,
            emissions,
            outgoing,
            timers,
            state_changed: false,
            eval_errors: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of tuples queued in the engine's work queue behind the one
    /// being processed (the node's pending backlog, including tuples waiting
    /// out a level delay). Queueing elements use this as their occupancy
    /// signal.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The node-local PEL evaluation context (clock, RNG, local address).
    pub fn eval(&mut self) -> &mut EvalContext {
        self.eval
    }

    /// The local node's address.
    pub fn local_addr(&self) -> &str {
        self.eval.local_addr_str()
    }

    /// Emits a tuple on the given output port.
    pub fn emit(&mut self, port: usize, tuple: Tuple) {
        self.emissions.push((port, tuple));
    }

    /// Hands a tuple to the network for delivery to `dst`.
    pub fn send(&mut self, dst: impl Into<Arc<str>>, tuple: Tuple) {
        self.outgoing.push(Outgoing {
            dst: dst.into(),
            tuple,
        });
    }

    /// Schedules a timer callback for this element after `delay`; the
    /// element's [`Element::on_timer`] will be invoked with `token`.
    pub fn schedule(&mut self, token: u64, delay: SimTime) {
        self.timers.push((token, self.now + delay));
    }

    /// Marks this invocation as having mutated durable state (a table row,
    /// an aggregate's group state). The profiler uses
    /// this to separate real work from soft-state refresh no-ops; an
    /// invocation with no emission, no send and no state change is a
    /// wasted poke. Cheap enough to call unconditionally.
    #[inline]
    pub fn note_state_change(&mut self) {
        self.state_changed = true;
    }

    /// Whether [`note_state_change`](Self::note_state_change) was called
    /// during this invocation.
    pub(crate) fn state_changed(&self) -> bool {
        self.state_changed
    }

    /// Records one PEL evaluation that raised an error (a filter, an
    /// assignment, a head field or an aggregate expression over a malformed
    /// or ill-typed tuple). The element drops what it was evaluating and
    /// carries on; the engine sums these into
    /// [`EngineStats::eval_errors`](crate::EngineStats::eval_errors), so a
    /// rule that fails to evaluate is counted, not silent.
    #[inline]
    pub fn note_eval_error(&mut self) {
        self.eval_errors += 1;
    }

    /// Evaluation errors noted during this invocation.
    pub(crate) fn eval_errors(&self) -> u64 {
        self.eval_errors
    }
}

/// A node in the dataflow graph.
///
/// Elements are single-threaded and processed to completion: `push` is called
/// with one tuple at a time and must not block. All effects go through the
/// [`ElementCtx`]. An element is `Any`, so a test or a tool holding a
/// `&dyn Element` (see `Engine::element`) may downcast it to its type.
pub trait Element: Any {
    /// Short class name used in graph dumps and statistics
    /// (e.g. `"Join"`, `"Insert"`).
    fn class(&self) -> &'static str;

    /// Handles a tuple arriving on input `port`.
    fn push(&mut self, port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>);

    /// Handles a timer previously scheduled with [`ElementCtx::schedule`].
    fn on_timer(&mut self, _token: u64, _ctx: &mut ElementCtx<'_>) {}

    /// Called once when the engine starts, before any tuple is processed.
    /// Elements use this to emit initial facts or schedule their first timer.
    fn on_start(&mut self, _ctx: &mut ElementCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::TupleBuilder;

    struct Echo;

    impl Element for Echo {
        fn class(&self) -> &'static str {
            "Echo"
        }

        fn push(&mut self, port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            ctx.emit(port, tuple.clone());
            ctx.send("n2", tuple.clone());
            ctx.schedule(7, SimTime::from_secs(1));
        }
    }

    #[test]
    fn context_collects_effects() {
        let mut eval = EvalContext::new("n1", 1);
        let mut emissions = Vec::new();
        let mut outgoing = Vec::new();
        let mut timers = Vec::new();
        let mut ctx = ElementCtx::new(
            SimTime::from_secs(5),
            3,
            &mut eval,
            &mut emissions,
            &mut outgoing,
            &mut timers,
        );
        assert_eq!(ctx.local_addr(), "n1");
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert_eq!(ctx.pending(), 3);

        let t = TupleBuilder::new("ping").push("n1").build();
        Echo.push(3, &t, &mut ctx);

        assert_eq!(
            emissions,
            vec![(3, TupleBuilder::new("ping").push("n1").build())]
        );
        assert_eq!(outgoing.len(), 1);
        assert_eq!(&*outgoing[0].dst, "n2");
        assert_eq!(timers, vec![(7, SimTime::from_secs(6))]);
    }
}

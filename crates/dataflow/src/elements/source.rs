//! Event source elements (`periodic`).

use std::sync::Arc;

use p2_value::{SimTime, Tuple, Value};

use crate::element::{Element, ElementCtx};

/// Emits `periodic`-style tuples at a fixed interval.
///
/// OverLog's built-in `periodic(X, E, P)` stream produces, every `P` seconds
/// at node `X`, a tuple carrying the node address, a fresh unique event
/// identifier, and the period. A fourth argument limits the number of
/// firings (`periodic(X, E, 0, 1)` fires exactly once at start-up, which
/// Appendix A uses for initialization rules).
///
/// To avoid every node in a large simulation firing in lock-step, the first
/// firing is offset by a uniformly random phase in `[0, P)` drawn from the
/// node's deterministic RNG; this mirrors the behaviour of real deployments
/// where node start times are not synchronized. The phase can be disabled
/// for unit tests.
pub struct Periodic {
    out_name: Arc<str>,
    period: f64,
    remaining: Option<u64>,
    period_value: Value,
    extra_args: Vec<Value>,
    jitter_phase: bool,
}

impl Periodic {
    /// Creates a periodic source emitting tuples named `out_name` every
    /// `period` seconds, at most `count` times (`None` = forever).
    pub fn new(out_name: impl Into<Arc<str>>, period: f64, count: Option<u64>) -> Periodic {
        Periodic {
            out_name: out_name.into(),
            period: period.max(0.0),
            remaining: count,
            period_value: Value::Double(period),
            extra_args: Vec::new(),
            jitter_phase: true,
        }
    }

    /// Overrides the value placed in the period field of emitted tuples
    /// (so that a rule written `periodic(X, E, 3)` sees the literal `3`
    /// it matches on).
    pub fn with_period_value(mut self, v: Value) -> Periodic {
        self.period_value = v;
        self
    }

    /// Appends additional constant fields to every emitted tuple (used for
    /// the 4-argument `periodic(X, E, P, C)` form).
    pub fn with_extra_args(mut self, extra: Vec<Value>) -> Periodic {
        self.extra_args = extra;
        self
    }

    /// Disables the random initial phase (deterministic first firing at
    /// exactly one period after start, or immediately for period 0).
    pub fn without_phase_jitter(mut self) -> Periodic {
        self.jitter_phase = false;
        self
    }

    fn fire(&mut self, ctx: &mut ElementCtx<'_>) {
        if let Some(remaining) = &mut self.remaining {
            if *remaining == 0 {
                return;
            }
            *remaining -= 1;
        }
        let event_id = Value::Int((ctx.eval().next_u64() >> 1) as i64);
        let mut values = vec![ctx.eval().local_addr(), event_id, self.period_value.clone()];
        values.extend(self.extra_args.iter().cloned());
        ctx.emit(0, Tuple::new(self.out_name.clone(), values));
        let more = self.remaining.map(|r| r > 0).unwrap_or(true);
        if more && self.period > 0.0 {
            ctx.schedule(0, SimTime::from_secs_f64(self.period));
        }
    }
}

impl Element for Periodic {
    fn class(&self) -> &'static str {
        "Periodic"
    }

    fn push(&mut self, _port: usize, _tuple: &Tuple, _ctx: &mut ElementCtx<'_>) {
        // Periodic sources have no inputs.
    }

    fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
        if self.period <= 0.0 {
            // Immediate one-shot (or as many shots as requested, all now).
            let shots = self.remaining.unwrap_or(1);
            for _ in 0..shots {
                self.fire(ctx);
            }
            return;
        }
        let phase = if self.jitter_phase {
            self.period * ctx.eval().next_f64()
        } else {
            self.period
        };
        ctx.schedule(0, SimTime::from_secs_f64(phase));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut ElementCtx<'_>) {
        self.fire(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Collector;
    use crate::engine::{Engine, Graph};

    fn build(
        period: f64,
        count: Option<u64>,
        jitter: bool,
    ) -> (Engine, crate::elements::CollectorHandle) {
        let mut g = Graph::new();
        let mut p =
            Periodic::new("periodic", period, count).with_period_value(Value::Int(period as i64));
        if !jitter {
            p = p.without_phase_jitter();
        }
        let p = g.add("periodic", Box::new(p));
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(p, 0, c, 0);
        let engine = Engine::new(g, "n1", 42);
        (engine, buf)
    }

    #[test]
    fn fires_repeatedly_with_fresh_event_ids() {
        let (mut engine, buf) = build(3.0, None, false);
        engine.start(SimTime::ZERO);
        engine.advance_to(SimTime::from_secs(10));
        let ticks = buf.lock();
        assert_eq!(ticks.len(), 3); // at t=3,6,9
        let ids: Vec<&Value> = ticks.iter().map(|(_, t)| t.field(1)).collect();
        assert_ne!(ids[0], ids[1]);
        assert_eq!(ticks[0].1.field(0), &Value::str("n1"));
        assert_eq!(ticks[0].1.field(2), &Value::Int(3));
    }

    #[test]
    fn one_shot_with_zero_period_fires_at_start() {
        let (mut engine, buf) = build(0.0, Some(1), false);
        engine.start(SimTime::from_secs(5));
        engine.advance_to(SimTime::from_secs(100));
        assert_eq!(buf.lock().len(), 1);
    }

    #[test]
    fn count_limits_firings() {
        let (mut engine, buf) = build(1.0, Some(2), false);
        engine.start(SimTime::ZERO);
        engine.advance_to(SimTime::from_secs(50));
        assert_eq!(buf.lock().len(), 2);
        assert_eq!(engine.next_deadline(), None);
    }

    #[test]
    fn jittered_phase_stays_within_one_period() {
        let (mut engine, buf) = build(10.0, None, true);
        engine.start(SimTime::ZERO);
        engine.advance_to(SimTime::from_secs(10));
        let ticks = buf.lock();
        assert_eq!(ticks.len(), 1);
        assert!(ticks[0].0 <= SimTime::from_secs(10));
    }

    #[test]
    fn extra_args_are_appended() {
        let mut g = Graph::new();
        let p = Periodic::new("periodic", 0.0, Some(1))
            .with_period_value(Value::Int(0))
            .with_extra_args(vec![Value::Int(1)])
            .without_phase_jitter();
        let p = g.add("periodic", Box::new(p));
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(p, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.start(SimTime::ZERO);
        let ticks = buf.lock();
        assert_eq!(ticks[0].1.arity(), 4);
        assert_eq!(ticks[0].1.field(3), &Value::Int(1));
    }
}

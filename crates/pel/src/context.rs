//! Evaluation environment for PEL programs.

use std::sync::Arc;

use p2_value::{SimTime, Value};

/// Per-node environment available to PEL built-in functions.
///
/// The context carries the node's virtual wall-clock (`f_now`), a
/// deterministic pseudo-random generator (`f_rand`, `f_coinFlip`) and the
/// node's own network address. Determinism matters: the whole simulation is
/// reproducible from a seed, which the experiment harness relies on.
#[derive(Debug, Clone)]
pub struct EvalContext {
    now: SimTime,
    rng_state: u64,
    /// Shared, so the address as a [`Value`] is a reference-count bump.
    local_addr: Arc<str>,
}

impl EvalContext {
    /// Creates a context for a node with the given address and RNG seed.
    pub fn new(local_addr: impl Into<Arc<str>>, seed: u64) -> EvalContext {
        EvalContext {
            now: SimTime::ZERO,
            // Avoid the all-zero state that xorshift cannot leave.
            rng_state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
            local_addr: local_addr.into(),
        }
    }

    /// Current virtual time, as returned by `f_now()`.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the virtual clock (monotonic; earlier times are ignored).
    pub fn set_now(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The local node's address, as a value.
    pub fn local_addr(&self) -> Value {
        Value::Str(self.local_addr.clone())
    }

    /// The local node's address, as a string slice.
    pub fn local_addr_str(&self) -> &str {
        &self.local_addr
    }

    /// Draws the next pseudo-random 64-bit number (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draws a uniform double in `[0, 1)`, as returned by `f_rand()`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Flips a biased coin: true with probability `p` (`f_coinFlip(p)`).
    pub fn coin_flip(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut ctx = EvalContext::new("n1", 7);
        ctx.set_now(SimTime::from_secs(10));
        ctx.set_now(SimTime::from_secs(5));
        assert_eq!(ctx.now(), SimTime::from_secs(10));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = EvalContext::new("n1", 42);
        let mut b = EvalContext::new("n2", 42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);

        let mut c = EvalContext::new("n1", 43);
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn rand_in_unit_interval() {
        let mut ctx = EvalContext::new("n1", 1);
        for _ in 0..1000 {
            let r = ctx.next_f64();
            assert!((0.0..1.0).contains(&r));
        }
    }

    #[test]
    fn coin_flip_respects_extremes() {
        let mut ctx = EvalContext::new("n1", 1);
        assert!(!(0..100).any(|_| ctx.coin_flip(0.0)));
        assert!((0..100).all(|_| ctx.coin_flip(1.0)));
    }

    #[test]
    fn coin_flip_is_roughly_fair() {
        let mut ctx = EvalContext::new("n1", 99);
        let heads = (0..10_000).filter(|_| ctx.coin_flip(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn local_addr() {
        let ctx = EvalContext::new("node-7:1234", 1);
        assert_eq!(ctx.local_addr(), Value::str("node-7:1234"));
        assert_eq!(ctx.local_addr_str(), "node-7:1234");
    }
}

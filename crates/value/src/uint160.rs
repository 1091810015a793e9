//! A 160-bit unsigned integer with wrapping (ring) arithmetic.
//!
//! Chord identifies nodes and keys with 160-bit identifiers (SHA-1 output in
//! the original paper) and all identifier arithmetic is performed modulo
//! 2^160. The P2 Chord specification in OverLog relies on this directly:
//! finger targets are computed as `K := (1 << I) + N` for `I` up to 159 and
//! distances as `D := K - B - 1`, both wrapping around the ring.
//!
//! The value is stored as three little-endian 64-bit limbs; the most
//! significant limb only ever holds 32 significant bits so every operation
//! re-applies `Uint160::MASK_TOP`.

use std::cmp::Ordering;
use std::fmt;

/// A 160-bit unsigned integer; all arithmetic wraps modulo 2^160.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Uint160 {
    /// Little-endian limbs: `limbs[0]` is the least significant.
    limbs: [u64; 3],
}

impl Uint160 {
    /// Mask applied to the most significant limb (only 32 bits are used).
    const MASK_TOP: u64 = 0xFFFF_FFFF;

    /// The value zero.
    pub const ZERO: Uint160 = Uint160 { limbs: [0, 0, 0] };

    /// The value one.
    pub const ONE: Uint160 = Uint160 { limbs: [1, 0, 0] };

    /// The maximum representable value, 2^160 - 1.
    pub const MAX: Uint160 = Uint160 {
        limbs: [u64::MAX, u64::MAX, Self::MASK_TOP],
    };

    /// Number of bits in the identifier space.
    pub const BITS: u32 = 160;

    /// Creates a value from raw little-endian limbs, masking the top limb.
    pub const fn from_limbs(limbs: [u64; 3]) -> Self {
        Uint160 {
            limbs: [limbs[0], limbs[1], limbs[2] & Self::MASK_TOP],
        }
    }

    /// Returns the raw little-endian limbs.
    pub const fn limbs(&self) -> [u64; 3] {
        self.limbs
    }

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        Uint160 { limbs: [v, 0, 0] }
    }

    /// Creates a value from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        Uint160 {
            limbs: [v as u64, (v >> 64) as u64, 0],
        }
    }

    /// Truncates to a `u64` (low 64 bits).
    pub const fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0, 0, 0]
    }

    /// Wrapping addition modulo 2^160.
    #[inline]
    pub fn wrapping_add(self, rhs: Uint160) -> Uint160 {
        let (l0, c0) = self.limbs[0].overflowing_add(rhs.limbs[0]);
        let (l1a, c1a) = self.limbs[1].overflowing_add(rhs.limbs[1]);
        let (l1, c1b) = l1a.overflowing_add(c0 as u64);
        let l2 = self.limbs[2]
            .wrapping_add(rhs.limbs[2])
            .wrapping_add((c1a as u64) + (c1b as u64));
        Uint160::from_limbs([l0, l1, l2])
    }

    /// Wrapping subtraction modulo 2^160: one borrow chain over the limbs,
    /// the top limb's borrow discarded by the mask.
    #[inline]
    pub fn wrapping_sub(self, rhs: Uint160) -> Uint160 {
        let (l0, b0) = self.limbs[0].overflowing_sub(rhs.limbs[0]);
        let (l1a, b1a) = self.limbs[1].overflowing_sub(rhs.limbs[1]);
        let (l1, b1b) = l1a.overflowing_sub(b0 as u64);
        let l2 = self.limbs[2]
            .wrapping_sub(rhs.limbs[2])
            .wrapping_sub((b1a as u64) + (b1b as u64));
        Uint160::from_limbs([l0, l1, l2])
    }

    /// Bitwise complement within 160 bits.
    pub fn not_160(self) -> Uint160 {
        Uint160::from_limbs([!self.limbs[0], !self.limbs[1], !self.limbs[2]])
    }

    /// Left shift by `n` bits, wrapping modulo 2^160 (bits shifted above bit
    /// 159 are discarded). Shifts of 160 or more yield zero.
    #[allow(clippy::should_implement_trait)] // saturating u32-shift API, not ops::Shl
    pub fn shl(self, n: u32) -> Uint160 {
        if n >= Self::BITS {
            return Uint160::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 3];
        for (i, slot) in out.iter_mut().enumerate() {
            if i >= limb_shift {
                let src = i - limb_shift;
                *slot |= self.limbs[src] << bit_shift;
                if bit_shift > 0 && src >= 1 {
                    *slot |= self.limbs[src - 1] >> (64 - bit_shift);
                }
            }
        }
        Uint160::from_limbs(out)
    }

    /// Logical right shift by `n` bits. Shifts of 160 or more yield zero.
    #[allow(clippy::should_implement_trait)] // saturating u32-shift API, not ops::Shr
    pub fn shr(self, n: u32) -> Uint160 {
        if n >= Self::BITS {
            return Uint160::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 3];
        for (i, slot) in out.iter_mut().enumerate() {
            let src = i + limb_shift;
            if src < 3 {
                *slot |= self.limbs[src] >> bit_shift;
                if bit_shift > 0 && src + 1 < 3 {
                    *slot |= self.limbs[src + 1] << (64 - bit_shift);
                }
            }
        }
        Uint160::from_limbs(out)
    }

    /// Returns 2^n (a single set bit), for `n < 160`.
    pub fn pow2(n: u32) -> Uint160 {
        Uint160::ONE.shl(n)
    }

    /// Ring distance from `self` to `other` travelling clockwise
    /// (i.e. `other - self` modulo 2^160).
    pub fn ring_distance_to(self, other: Uint160) -> Uint160 {
        other.wrapping_sub(self)
    }

    /// Membership of `self` in the *open-open* ring interval `(a, b)`.
    ///
    /// When `a == b` the interval covers the whole ring except `a` itself,
    /// matching the convention of the Chord pseudocode.
    pub fn in_oo(self, a: Uint160, b: Uint160) -> bool {
        if a == b {
            self != a
        } else if a < b {
            a < self && self < b
        } else {
            self > a || self < b
        }
    }

    /// Membership of `self` in the *open-closed* ring interval `(a, b]`.
    ///
    /// When `a == b` the interval covers the whole ring (a lookup on a
    /// one-node Chord ring must always succeed locally).
    pub fn in_oc(self, a: Uint160, b: Uint160) -> bool {
        if a == b {
            true
        } else if a < b {
            a < self && self <= b
        } else {
            self > a || self <= b
        }
    }

    /// Membership of `self` in the *closed-open* ring interval `[a, b)`.
    pub fn in_co(self, a: Uint160, b: Uint160) -> bool {
        if a == b {
            true
        } else if a < b {
            a <= self && self < b
        } else {
            self >= a || self < b
        }
    }

    /// Membership of `self` in the *closed-closed* ring interval `[a, b]`.
    pub fn in_cc(self, a: Uint160, b: Uint160) -> bool {
        if a == b {
            self == a
        } else if a < b {
            a <= self && self <= b
        } else {
            self >= a || self <= b
        }
    }

    /// Deterministically hashes an arbitrary byte string into the identifier
    /// space.
    ///
    /// The original system uses SHA-1; what the overlay actually requires is
    /// a deterministic, well-spread mapping from node addresses and keys to
    /// identifiers. We use three rounds of 64-bit FNV-1a with different
    /// offsets, which gives 160 well-mixed bits without a crypto dependency.
    pub fn hash_of(bytes: &[u8]) -> Uint160 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut limbs = [0u64; 3];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut h: u64 =
                0xcbf2_9ce4_8422_2325 ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            // Extra avalanche so that short inputs still differ across limbs.
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            *limb = h;
        }
        Uint160::from_limbs(limbs)
    }

    /// Parses a hexadecimal string (without `0x` prefix) of up to 40 digits.
    pub fn from_hex(s: &str) -> Option<Uint160> {
        if s.is_empty() || s.len() > 40 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let mut v = Uint160::ZERO;
        for c in s.chars() {
            let digit = c.to_digit(16).expect("checked hexdigit") as u64;
            v = v.shl(4).wrapping_add(Uint160::from_u64(digit));
        }
        Some(v)
    }

    /// Formats the value as a lower-case hexadecimal string without leading
    /// zeros (at least one digit).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let full = format!(
            "{:08x}{:016x}{:016x}",
            self.limbs[2], self.limbs[1], self.limbs[0]
        );
        full.trim_start_matches('0').to_string()
    }
}

impl Ord for Uint160 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..3).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Uint160 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Uint160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for Uint160 {
    fn from(v: u64) -> Self {
        Uint160::from_u64(v)
    }
}

impl From<u128> for Uint160 {
    fn from(v: u128) -> Self {
        Uint160::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_constants() {
        assert!(Uint160::ZERO.is_zero());
        assert_eq!(Uint160::ONE.low_u64(), 1);
        assert_eq!(Uint160::MAX.wrapping_add(Uint160::ONE), Uint160::ZERO);
    }

    /// The borrow chain agrees with the two's-complement identity
    /// `a - b == a + !b + 1 (mod 2^160)` on limb and ring boundaries, and on
    /// pairs that wrap below zero.
    #[test]
    fn wrapping_sub_matches_complement_addition() {
        let edges = [
            Uint160::ZERO,
            Uint160::ONE,
            Uint160::from_u64(2),
            Uint160::from_u64(u64::MAX),
            Uint160::from_u128(1 << 64),
            Uint160::from_u128((1 << 64) + 1),
            Uint160::from_u128(u128::MAX),
            Uint160::pow2(128),
            Uint160::pow2(128).wrapping_add(Uint160::ONE),
            Uint160::pow2(159),
            Uint160::MAX.wrapping_sub(Uint160::ONE),
            Uint160::MAX,
            Uint160::hash_of(b"key"),
            Uint160::hash_of(b"node"),
        ];
        for a in edges {
            for b in edges {
                let complement = a.wrapping_add(b.not_160()).wrapping_add(Uint160::ONE);
                assert_eq!(a.wrapping_sub(b), complement, "{a:?} - {b:?}");
                assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
            }
        }
        // Pairs that wrap: a smaller minuend borrows through every limb.
        assert_eq!(
            Uint160::ONE.wrapping_sub(Uint160::from_u64(2)),
            Uint160::MAX
        );
        assert_eq!(
            Uint160::pow2(128).wrapping_sub(Uint160::MAX),
            Uint160::pow2(128).wrapping_add(Uint160::ONE)
        );
    }

    #[test]
    fn add_sub_wrap() {
        let a = Uint160::from_u128(u128::MAX);
        let b = Uint160::from_u64(1);
        let c = a.wrapping_add(b);
        assert_eq!(c, Uint160::from_limbs([0, 0, 1]));
        assert_eq!(c.wrapping_sub(b), a);
        assert_eq!(Uint160::ZERO.wrapping_sub(Uint160::ONE), Uint160::MAX);
    }

    #[test]
    fn shifts() {
        assert_eq!(Uint160::pow2(0), Uint160::ONE);
        assert_eq!(Uint160::pow2(64), Uint160::from_limbs([0, 1, 0]));
        assert_eq!(Uint160::pow2(159), Uint160::from_limbs([0, 0, 0x8000_0000]));
        assert_eq!(Uint160::ONE.shl(160), Uint160::ZERO);
        assert_eq!(Uint160::pow2(100).shr(100), Uint160::ONE);
        assert_eq!(Uint160::pow2(159).shl(1), Uint160::ZERO);
        // shl then shr round-trips when no bits fall off the top.
        let v = Uint160::from_u128(0xDEAD_BEEF_CAFE_BABE_1234_5678_9ABC_DEF0);
        assert_eq!(v.shl(17).shr(17), v);
    }

    #[test]
    fn ordering_uses_most_significant_limb_first() {
        let small = Uint160::from_limbs([u64::MAX, u64::MAX, 0]);
        let big = Uint160::from_limbs([0, 0, 1]);
        assert!(small < big);
        assert!(Uint160::MAX > big);
    }

    #[test]
    fn ring_intervals_non_wrapping() {
        let a = Uint160::from_u64(10);
        let b = Uint160::from_u64(20);
        assert!(Uint160::from_u64(15).in_oo(a, b));
        assert!(!Uint160::from_u64(10).in_oo(a, b));
        assert!(!Uint160::from_u64(20).in_oo(a, b));
        assert!(Uint160::from_u64(20).in_oc(a, b));
        assert!(Uint160::from_u64(10).in_co(a, b));
        assert!(Uint160::from_u64(10).in_cc(a, b) && Uint160::from_u64(20).in_cc(a, b));
        assert!(!Uint160::from_u64(25).in_cc(a, b));
    }

    #[test]
    fn ring_intervals_wrapping() {
        // Interval that wraps around zero: (2^160 - 5, 10]
        let a = Uint160::MAX.wrapping_sub(Uint160::from_u64(4));
        let b = Uint160::from_u64(10);
        assert!(Uint160::ZERO.in_oc(a, b));
        assert!(Uint160::from_u64(10).in_oc(a, b));
        assert!(Uint160::MAX.in_oc(a, b));
        assert!(!Uint160::from_u64(11).in_oc(a, b));
        assert!(!a.in_oc(a, b));
        assert!(a.in_cc(a, b));
    }

    #[test]
    fn degenerate_intervals_match_chord_convention() {
        let a = Uint160::from_u64(42);
        let k = Uint160::from_u64(7);
        // (a, a] covers the whole ring: single-node lookups succeed.
        assert!(k.in_oc(a, a));
        assert!(a.in_oc(a, a));
        // (a, a) covers everything but a.
        assert!(k.in_oo(a, a));
        assert!(!a.in_oo(a, a));
        // [a, a] is just a.
        assert!(a.in_cc(a, a));
        assert!(!k.in_cc(a, a));
    }

    #[test]
    fn ring_distance() {
        let a = Uint160::from_u64(100);
        let b = Uint160::from_u64(40);
        assert_eq!(b.ring_distance_to(a), Uint160::from_u64(60));
        // Going the other way wraps around the whole ring.
        assert_eq!(
            a.ring_distance_to(b),
            Uint160::ZERO.wrapping_sub(Uint160::from_u64(60))
        );
        assert_eq!(a.ring_distance_to(a), Uint160::ZERO);
    }

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let a = Uint160::hash_of(b"node-1");
        let b = Uint160::hash_of(b"node-2");
        assert_eq!(a, Uint160::hash_of(b"node-1"));
        assert_ne!(a, b);
        // Top limb should not be systematically zero.
        let any_high =
            (0..64).any(|i| Uint160::hash_of(format!("n{i}").as_bytes()).limbs()[2] != 0);
        assert!(any_high);
    }

    #[test]
    fn hex_round_trip() {
        let v = Uint160::hash_of(b"hex me");
        let parsed = Uint160::from_hex(&v.to_hex()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(Uint160::from_hex("0").unwrap(), Uint160::ZERO);
        assert_eq!(Uint160::from_hex("ff").unwrap(), Uint160::from_u64(255));
        assert!(Uint160::from_hex("").is_none());
        assert!(Uint160::from_hex("xyz").is_none());
        assert!(Uint160::from_hex(&"f".repeat(41)).is_none());
        assert_eq!(Uint160::from_hex(&"f".repeat(40)).unwrap(), Uint160::MAX);
    }

    #[test]
    fn display_format() {
        assert_eq!(Uint160::from_u64(255).to_string(), "0xff");
        assert_eq!(Uint160::ZERO.to_string(), "0x0");
    }
}

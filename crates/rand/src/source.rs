//! Metered bit sources.
//!
//! A [`BitSource`] hands out random bits one at a time and counts every bit it
//! emits. Sources may be *finite* ([`BitTape`]) — drawing past the end yields
//! [`Exhausted`] — which is how the paper's "a node holds just a single bit"
//! regime is enforced mechanically rather than by convention.

use crate::prng::{Prng, Xoshiro256StarStar};
use std::error::Error;
use std::fmt;

/// Error returned when a finite randomness source has run dry.
///
/// Algorithms that are *supposed* to work with a fixed bit budget surface this
/// error instead of silently recycling bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Total bits the source held before running dry.
    pub capacity: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "randomness source exhausted after {} bits",
            self.capacity
        )
    }
}

impl Error for Exhausted {}

/// A metered stream of random bits.
///
/// All draws go through [`BitSource::try_next_bit`]; the provided combinators
/// (`next_bits`, `geometric`, `bernoulli`, …) therefore meter correctly for
/// every implementation.
///
/// # Example
/// ```
/// use locality_rand::source::{BitSource, PrngSource};
/// let mut s = PrngSource::seeded(5);
/// let word = s.next_bits(10).unwrap();
/// assert!(word < 1024);
/// assert_eq!(s.bits_drawn(), 10);
/// ```
pub trait BitSource {
    /// Draw one bit.
    ///
    /// # Errors
    /// Returns [`Exhausted`] if the source is finite and empty.
    fn try_next_bit(&mut self) -> Result<bool, Exhausted>;

    /// Number of bits drawn from this source so far.
    fn bits_drawn(&self) -> u64;

    /// Draw one bit.
    ///
    /// # Panics
    /// Panics if the source is exhausted. Use [`BitSource::try_next_bit`] when
    /// exhaustion is an expected outcome.
    fn next_bit(&mut self) -> bool {
        self.try_next_bit().expect("bit source exhausted") // audit: allow(panic) -- infallible-by-contract wrapper; exhaustion-aware callers use the try_ variant
    }

    /// Draw `k ≤ 64` bits and pack them into the low bits of a `u64`
    /// (first-drawn bit is the most significant of the `k`).
    ///
    /// # Errors
    /// Returns [`Exhausted`] if fewer than `k` bits remain.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    fn next_bits(&mut self, k: u32) -> Result<u64, Exhausted> {
        assert!(k <= 64, "next_bits: k must be at most 64");
        let mut v = 0u64;
        for _ in 0..k {
            v = (v << 1) | self.try_next_bit()? as u64;
        }
        Ok(v)
    }

    /// Sample a geometric random variable with parameter 1/2:
    /// flip fair coins until the first tail; the value is the index of that
    /// flip, so `Pr[X = k] = 2^-k` for `k ≥ 1`.
    ///
    /// This is exactly the paper's footnote-8 sampler (Lemma 3.3): the number
    /// of consumed bits equals the returned value, and the value is capped at
    /// `cap` flips (returning `cap` if every flip was heads), mirroring the
    /// "10 log n bits suffice w.h.p." truncation.
    ///
    /// # Panics
    /// Panics on exhaustion; use a sufficiently provisioned source.
    fn geometric(&mut self, cap: u32) -> u32 {
        for k in 1..=cap {
            if !self.next_bit() {
                return k;
            }
        }
        cap
    }

    /// Bernoulli trial with probability `num/den`, consuming an *expected*
    /// two bits (lazy binary-expansion comparison).
    ///
    /// # Panics
    /// Panics if `den == 0`, if `num > den`, or on exhaustion.
    fn bernoulli(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0, "bernoulli: zero denominator");
        assert!(num <= den, "bernoulli: probability above one");
        if num == 0 {
            return false;
        }
        if num == den {
            return true;
        }
        // Compare a uniform real r = 0.b1 b2 ... against p = num/den bit by
        // bit; return r < p. Each step doubles the remainder of p.
        let mut rem = num;
        for _ in 0..128 {
            rem *= 2;
            let p_bit = rem >= den;
            if p_bit {
                rem -= den;
            }
            let r_bit = self.next_bit();
            if r_bit != p_bit {
                return p_bit && !r_bit;
            }
            if rem == 0 {
                return false;
            }
        }
        false // astronomically unlikely tie after 128 bits
    }

    /// Uniform value in `0..n` by rejection over `ceil(log2 n)`-bit words.
    ///
    /// # Panics
    /// Panics if `n == 0` or on exhaustion.
    fn uniform_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_below: n must be positive");
        if n == 1 {
            return 0;
        }
        let k = 64 - (n - 1).leading_zeros();
        loop {
            let v = self.next_bits(k).expect("bit source exhausted"); // audit: allow(panic) -- infallible-by-contract wrapper; exhaustion-aware callers use the try_ variant
            if v < n {
                return v;
            }
        }
    }
}

/// An unbounded, metered source backed by a PRNG — the "standard model" of
/// randomized distributed algorithms (unlimited private bits).
///
/// The bit stream is each PRNG word in turn, least significant bit first.
/// The buffer holds the current word's undrawn bits *pre-reversed*: the
/// next bit is the most significant one, the `buffered` undrawn bits fill
/// the top of the word and every lower bit is zero. A `k`-bit draw is then
/// one shift (first-drawn bit most significant, as [`BitSource::next_bits`]
/// packs it), and a refill reverses the fresh word once.
#[derive(Debug, Clone)]
pub struct PrngSource {
    prng: Xoshiro256StarStar,
    buffer: u64,
    buffered: u32,
    drawn: u64,
}

impl PrngSource {
    /// Create a source from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            prng: Xoshiro256StarStar::new(seed),
            buffer: 0,
            buffered: 0,
            drawn: 0,
        }
    }

    /// Load the next PRNG word, reversed, as 64 buffered bits.
    fn refill(&mut self) {
        self.buffer = self.prng.next_u64().reverse_bits();
        self.buffered = 64;
    }

    /// Take the next `k` buffered bits, `1 ≤ k ≤ buffered`, first-drawn
    /// bit most significant. Does not meter.
    fn take(&mut self, k: u32) -> u64 {
        let v = self.buffer >> (64 - k);
        self.buffer = self.buffer.checked_shl(k).unwrap_or(0);
        self.buffered -= k;
        v
    }
}

impl BitSource for PrngSource {
    fn try_next_bit(&mut self) -> Result<bool, Exhausted> {
        if self.buffered == 0 {
            self.refill();
        }
        self.drawn += 1;
        Ok(self.take(1) == 1)
    }

    fn bits_drawn(&self) -> u64 {
        self.drawn
    }

    /// The same bits, in the same order and metering, as the bit-at-a-time
    /// default, taken a buffer at a time.
    fn next_bits(&mut self, k: u32) -> Result<u64, Exhausted> {
        assert!(k <= 64, "next_bits: k must be at most 64");
        self.drawn += u64::from(k);
        if k <= self.buffered {
            return Ok(if k == 0 { 0 } else { self.take(k) });
        }
        // Drain what is left, then the rest comes from a fresh word.
        let high = self.buffered;
        let v = if high == 0 { 0 } else { self.take(high) };
        self.refill();
        let low = k - high;
        Ok(v.checked_shl(low).unwrap_or(0) | self.take(low))
    }
}

/// A metered source is also a word generator: a 64-bit draw consumes 64
/// metered bits (any buffered remainder first, preserving bit order), so
/// word-oriented seeded constructions — the MPX exponential shifts — share
/// the same accounting as the bit-at-a-time phase algorithms.
impl Prng for PrngSource {
    fn next_u64(&mut self) -> u64 {
        self.drawn += 64;
        let k = self.buffered;
        if k == 0 {
            return self.prng.next_u64();
        }
        // `k` leftover bits become the low bits of the word (un-reversing
        // the buffer puts the next bit at bit 0 and leaves the rest zero);
        // a fresh word supplies the rest and leaves its own top `k` bits
        // buffered.
        let low = self.buffer.reverse_bits();
        let fresh = self.prng.next_u64();
        self.buffer = fresh.reverse_bits() << (64 - k);
        low | (fresh << k)
    }
}

/// A finite tape of pre-committed bits.
///
/// This is the mechanical form of "node v holds b bits of randomness": once
/// the tape is empty, no more randomness exists.
///
/// # Example
/// ```
/// use locality_rand::source::{BitSource, BitTape};
/// let mut t = BitTape::from_bits(vec![true, false, true]);
/// assert_eq!(t.remaining(), 3);
/// assert!(t.next_bit());
/// assert!(!t.next_bit());
/// assert!(t.next_bit());
/// assert!(t.try_next_bit().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTape {
    bits: Vec<bool>,
    pos: usize,
}

impl BitTape {
    /// Wrap an explicit bit vector.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits, pos: 0 }
    }

    /// Draw `len` fresh bits from `src` onto a new tape.
    ///
    /// # Panics
    /// Panics if `src` is exhausted before `len` bits are drawn.
    pub fn draw_from(src: &mut impl BitSource, len: usize) -> Self {
        Self::from_bits((0..len).map(|_| src.next_bit()).collect())
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Total capacity of the tape.
    pub fn capacity(&self) -> usize {
        self.bits.len()
    }

    /// Read (without consuming) the bit at absolute position `i`.
    pub fn peek(&self, i: usize) -> Option<bool> {
        self.bits.get(i).copied()
    }

    /// The underlying bits.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Append the contents of another tape (used when gathering scattered
    /// bits to a cluster center, Lemma 3.2).
    pub fn extend_from(&mut self, other: &BitTape) {
        self.bits.extend_from_slice(&other.bits);
    }
}

impl BitSource for BitTape {
    fn try_next_bit(&mut self) -> Result<bool, Exhausted> {
        match self.bits.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(Exhausted {
                capacity: self.bits.len() as u64,
            }),
        }
    }

    fn bits_drawn(&self) -> u64 {
        self.pos as u64
    }
}

impl FromIterator<bool> for BitTape {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_source_meters_every_bit() {
        let mut s = PrngSource::seeded(1);
        for i in 1..=200u64 {
            let _ = s.next_bit();
            assert_eq!(s.bits_drawn(), i);
        }
    }

    #[test]
    fn next_bits_packs_msb_first() {
        let mut t = BitTape::from_bits(vec![true, false, true, true]);
        assert_eq!(t.next_bits(4).unwrap(), 0b1011);
    }

    #[test]
    fn tape_exhausts_with_capacity() {
        let mut t = BitTape::from_bits(vec![false; 5]);
        for _ in 0..5 {
            t.next_bit();
        }
        assert_eq!(t.try_next_bit(), Err(Exhausted { capacity: 5 }));
        // Error formatting is human-readable.
        let msg = Exhausted { capacity: 5 }.to_string();
        assert!(msg.contains('5'));
    }

    #[test]
    fn geometric_matches_distribution() {
        let mut s = PrngSource::seeded(2024);
        let n = 40_000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            let v = s.geometric(32) as usize;
            if v < counts.len() {
                counts[v] += 1;
            }
        }
        // Pr[X=1] = 1/2, Pr[X=2] = 1/4, ...
        for (k, &c) in counts.iter().enumerate().take(5).skip(1) {
            let expected = n as f64 / (1u64 << k) as f64;
            let got = c as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt() + 20.0,
                "geometric mass at {k}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn geometric_consumes_exactly_value_bits() {
        let mut t = BitTape::from_bits(vec![true, true, false]);
        let v = t.geometric(10);
        assert_eq!(v, 3);
        assert_eq!(t.bits_drawn(), 3);
    }

    #[test]
    fn geometric_cap_applies() {
        let mut t = BitTape::from_bits(vec![true; 100]);
        assert_eq!(t.geometric(7), 7);
        assert_eq!(t.bits_drawn(), 7);
    }

    #[test]
    fn bernoulli_edge_probabilities_consume_nothing() {
        let mut s = PrngSource::seeded(3);
        assert!(!s.bernoulli(0, 10));
        assert!(s.bernoulli(10, 10));
        assert_eq!(s.bits_drawn(), 0);
    }

    #[test]
    fn bernoulli_quarter_frequency() {
        let mut s = PrngSource::seeded(4);
        let n = 40_000;
        let hits = (0..n).filter(|_| s.bernoulli(1, 4)).count();
        let expected = n as f64 / 4.0;
        assert!(
            (hits as f64 - expected).abs() < 5.0 * (expected * 0.75).sqrt(),
            "hits {hits} vs expected {expected}"
        );
        // Lazy comparison should average ~2 bits per trial, certainly < 4.
        assert!(s.bits_drawn() < 4 * n as u64);
    }

    #[test]
    fn bernoulli_is_cheap_in_bits() {
        let mut s = PrngSource::seeded(5);
        let trials = 10_000u64;
        for _ in 0..trials {
            s.bernoulli(1, 3);
        }
        let avg = s.bits_drawn() as f64 / trials as f64;
        assert!(avg < 3.0, "expected ~2 bits per trial, got {avg}");
    }

    #[test]
    fn uniform_below_range_small_cases() {
        let mut s = PrngSource::seeded(6);
        for n in 1..=9u64 {
            for _ in 0..200 {
                assert!(BitSource::uniform_below(&mut s, n) < n);
            }
        }
    }

    #[test]
    fn tape_extend_and_peek() {
        let mut a = BitTape::from_bits(vec![true]);
        let b = BitTape::from_bits(vec![false, true]);
        a.extend_from(&b);
        assert_eq!(a.capacity(), 3);
        assert_eq!(a.peek(2), Some(true));
        assert_eq!(a.peek(3), None);
    }

    #[test]
    fn tape_draw_from_meters_parent() {
        let mut s = PrngSource::seeded(9);
        let t = BitTape::draw_from(&mut s, 17);
        assert_eq!(t.capacity(), 17);
        assert_eq!(s.bits_drawn(), 17);
    }

    #[test]
    fn tape_from_iterator() {
        let t: BitTape = [true, false].into_iter().collect();
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn prng_words_are_the_bit_stream_lsb_first() {
        // Drawing a word via `Prng` must consume exactly the next 64 bits
        // of the metered stream, LSB-first — including when a partial
        // buffer is left over from a preceding bit draw.
        let mut bits = PrngSource::seeded(11);
        let mut words = PrngSource::seeded(11);
        assert_eq!(bits.next_bit(), words.next_bit());
        let w = Prng::next_u64(&mut words);
        let mut expect = 0u64;
        for i in 0..64 {
            if bits.next_bit() {
                expect |= 1 << i;
            }
        }
        assert_eq!(w, expect);
        assert_eq!(words.bits_drawn(), 65);
        // The leftover buffer keeps the streams aligned afterwards.
        assert_eq!(bits.next_bit(), words.next_bit());
    }

    /// The LSB-first, bit-at-a-time `PrngSource` that the word-level one
    /// replaced, kept verbatim as the oracle for the bit stream.
    struct LsbFirstSource {
        prng: Xoshiro256StarStar,
        buffer: u64,
        buffered: u32,
        drawn: u64,
    }

    impl LsbFirstSource {
        fn seeded(seed: u64) -> Self {
            Self {
                prng: Xoshiro256StarStar::new(seed),
                buffer: 0,
                buffered: 0,
                drawn: 0,
            }
        }
    }

    impl BitSource for LsbFirstSource {
        fn try_next_bit(&mut self) -> Result<bool, Exhausted> {
            if self.buffered == 0 {
                self.buffer = self.prng.next_u64();
                self.buffered = 64;
            }
            let bit = self.buffer & 1 == 1;
            self.buffer >>= 1;
            self.buffered -= 1;
            self.drawn += 1;
            Ok(bit)
        }

        fn bits_drawn(&self) -> u64 {
            self.drawn
        }
    }

    impl Prng for LsbFirstSource {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 64;
            let k = self.buffered;
            if k == 0 {
                return self.prng.next_u64();
            }
            let low = self.buffer & ((1u64 << k) - 1);
            let fresh = self.prng.next_u64();
            self.buffer = fresh >> (64 - k);
            self.buffered = k;
            low | (fresh << k)
        }
    }

    #[test]
    fn word_level_stream_matches_bit_at_a_time_oracle() {
        // Random interleavings of every draw shape, so each one starts at
        // every buffer offset; values and metering must agree at each step.
        let mut ops = crate::prng::SplitMix64::new(0x5eed);
        for stream in 0..300u64 {
            let mut fast = PrngSource::seeded(stream);
            let mut slow = LsbFirstSource::seeded(stream);
            for step in 0..400 {
                let (a, b) = match ops.next_u64() % 6 {
                    0 | 1 => {
                        let k = (ops.next_u64() % 65) as u32;
                        (fast.next_bits(k).unwrap(), slow.next_bits(k).unwrap())
                    }
                    2 => (u64::from(fast.next_bit()), u64::from(slow.next_bit())),
                    3 => {
                        let cap = (ops.next_u64() % 40) as u32;
                        (
                            u64::from(fast.geometric(cap)),
                            u64::from(slow.geometric(cap)),
                        )
                    }
                    4 => {
                        // Small ranges (palette-sized) and full-width ones.
                        let n = match ops.next_u64() % 2 {
                            0 => 1 + ops.next_u64() % 20,
                            _ => 1 + ops.next_u64() % u64::MAX,
                        };
                        (
                            BitSource::uniform_below(&mut fast, n),
                            BitSource::uniform_below(&mut slow, n),
                        )
                    }
                    _ => (Prng::next_u64(&mut fast), Prng::next_u64(&mut slow)),
                };
                assert_eq!(a, b, "stream {stream}, step {step}: values differ");
                assert_eq!(
                    fast.bits_drawn(),
                    slow.bits_drawn(),
                    "stream {stream}, step {step}: metering differs"
                );
            }
        }
    }
}

//! Integrity checksums for the reversal log and live weights.
//!
//! Two algorithms live here:
//!
//! * **V1 — scalar FNV-1a** ([`fnv1a_byte`]/[`fnv1a_u32`]): the original
//!   byte-at-a-time hash. It is a single sequential dependency chain —
//!   one xor + one 64-bit multiply *per byte* — so hashing the ~216 KB
//!   of prunable weights costs more than an entire inference tick.
//! * **V2 — blocked hash** ([`BlockedHasher`]): the same xor-multiply
//!   core applied one **u32 word** at a time across [`LANES`] independent
//!   accumulator lanes, folded together (with the word count) at the
//!   end. Each lane's chain is 1/[`LANES`] the length and the lanes have
//!   no data dependence on each other, so the multiplies pipeline.
//!
//! V2 keeps the property the fault-defense chain actually relies on:
//! **any single bit flip changes the digest**. Per word, `lane' =
//! (lane ^ word) * PRIME` is invertible (xor is injective, PRIME is odd
//! so multiplication mod 2^64 is a bijection), hence two streams that
//! differ in one word keep their lanes different through every later
//! step, and the final fold — itself an invertible chain over the lane
//! values — preserves the difference. Detection behaviour is therefore
//! identical to FNV-1a for the single-event upsets the fault campaigns
//! inject; only the digest *values* differ, and those are never
//! compared across algorithms.
//!
//! Segment seals and `weights_checksum` use V2; V1 survives as the
//! scalar oracle (`weights_checksum_fnv`) that tests and the checksum
//! benchmarks compare against.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Independent accumulator lanes in the V2 blocked hash.
pub const LANES: usize = 4;

/// One scalar FNV-1a step (V1).
#[inline]
pub fn fnv1a_byte(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Scalar FNV-1a over the four little-endian bytes of `x` (V1).
#[inline]
pub fn fnv1a_u32(mut h: u64, x: u32) -> u64 {
    for b in x.to_le_bytes() {
        h = fnv1a_byte(h, b);
    }
    h
}

/// Streaming V2 blocked hasher.
///
/// Words are assigned to lanes round-robin by stream position; each lane
/// runs the FNV xor-multiply chain independently and [`finish`] folds
/// the lanes (plus the total word count, so trailing-zero extension
/// changes the digest) into one u64.
///
/// The one-word [`write_u32`] path and the unrolled slice paths visit
/// the same (word, lane) pairs in the same per-lane order, so any mix
/// of the two produces the same digest — the property test checks the
/// optimized slice walk against the scalar walk word by word.
///
/// [`finish`]: BlockedHasher::finish
/// [`write_u32`]: BlockedHasher::write_u32
#[derive(Debug, Clone)]
pub struct BlockedHasher {
    lanes: [u64; LANES],
    len: u64,
}

/// Distinct lane seeds so a word contributes differently depending on
/// which lane receives it (cheap positional sensitivity within a block).
const LANE_SEEDS: [u64; LANES] = [
    FNV_OFFSET,
    FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
    FNV_OFFSET ^ 0x3C6E_F372_FE94_F82A,
    FNV_OFFSET ^ 0xDAA6_6D2C_7DDF_7440,
];

impl Default for BlockedHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockedHasher {
    /// A fresh hasher with seeded lanes and an empty stream.
    pub fn new() -> Self {
        BlockedHasher {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    /// Absorbs one word into the next lane in round-robin order.
    #[inline]
    pub fn write_u32(&mut self, x: u32) {
        let k = (self.len as usize) & (LANES - 1);
        self.lanes[k] = (self.lanes[k] ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        self.len += 1;
    }

    /// Absorbs a slice of words via the unrolled blocked inner loop.
    pub fn write_u32_slice(&mut self, xs: &[u32]) {
        self.blocked(xs, |x| x)
    }

    /// Absorbs the bit patterns of a slice of `f32`s.
    pub fn write_f32_slice(&mut self, xs: &[f32]) {
        self.blocked(xs, |x| x.to_bits())
    }

    /// Absorbs a slice of `u16`s, each widened to a word (matching the
    /// V1 convention of hashing half-precision values as `u32`).
    pub fn write_u16_slice(&mut self, xs: &[u16]) {
        self.blocked(xs, u32::from)
    }

    /// The blocked inner loop: align to a lane boundary with scalar
    /// steps, then absorb [`LANES`] words per iteration into the four
    /// independent lanes, then finish the tail with scalar steps.
    #[inline]
    fn blocked<T: Copy>(&mut self, xs: &[T], to_word: impl Fn(T) -> u32) {
        let mut i = 0;
        while (self.len as usize) & (LANES - 1) != 0 && i < xs.len() {
            self.write_u32(to_word(xs[i]));
            i += 1;
        }
        let body = &xs[i..];
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        // Two blocks per iteration: each lane advances twice, halving
        // loop-control overhead while the four independent chains still
        // hide the multiply latency. The per-lane absorption sequence is
        // identical to the scalar definition, so digests are unchanged.
        let chunks2 = body.chunks_exact(2 * LANES);
        let rem = chunks2.remainder();
        let mut absorbed = chunks2.len() * 2 * LANES;
        for c in chunks2 {
            l0 = (l0 ^ u64::from(to_word(c[0]))).wrapping_mul(FNV_PRIME);
            l1 = (l1 ^ u64::from(to_word(c[1]))).wrapping_mul(FNV_PRIME);
            l2 = (l2 ^ u64::from(to_word(c[2]))).wrapping_mul(FNV_PRIME);
            l3 = (l3 ^ u64::from(to_word(c[3]))).wrapping_mul(FNV_PRIME);
            l0 = (l0 ^ u64::from(to_word(c[4]))).wrapping_mul(FNV_PRIME);
            l1 = (l1 ^ u64::from(to_word(c[5]))).wrapping_mul(FNV_PRIME);
            l2 = (l2 ^ u64::from(to_word(c[6]))).wrapping_mul(FNV_PRIME);
            l3 = (l3 ^ u64::from(to_word(c[7]))).wrapping_mul(FNV_PRIME);
        }
        let chunks1 = rem.chunks_exact(LANES);
        let tail = chunks1.remainder();
        absorbed += chunks1.len() * LANES;
        for c in chunks1 {
            l0 = (l0 ^ u64::from(to_word(c[0]))).wrapping_mul(FNV_PRIME);
            l1 = (l1 ^ u64::from(to_word(c[1]))).wrapping_mul(FNV_PRIME);
            l2 = (l2 ^ u64::from(to_word(c[2]))).wrapping_mul(FNV_PRIME);
            l3 = (l3 ^ u64::from(to_word(c[3]))).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [l0, l1, l2, l3];
        self.len += absorbed as u64;
        for &x in tail {
            self.write_u32(to_word(x));
        }
    }

    /// Folds the lanes and the word count into the final digest.
    pub fn finish(&self) -> u64 {
        let mut h = (FNV_OFFSET ^ self.len).wrapping_mul(FNV_PRIME);
        for &lane in &self.lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference of the V2 definition: one `write_u32` per word.
    fn reference(words: &[u32]) -> u64 {
        let mut h = BlockedHasher::new();
        for &w in words {
            h.write_u32(w);
        }
        h.finish()
    }

    #[test]
    fn slice_paths_match_scalar_reference() {
        let words: Vec<u32> = (0..97).map(|i| (i as u32).wrapping_mul(2654435761)).collect();
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 31, 96, 97] {
            let mut h = BlockedHasher::new();
            h.write_u32_slice(&words[..n]);
            assert_eq!(h.finish(), reference(&words[..n]), "n = {n}");
        }
    }

    #[test]
    fn misaligned_prefix_then_slice_matches_reference() {
        let words: Vec<u32> = (0..41).map(|i| i * 7 + 3).collect();
        for split in 0..words.len() {
            let mut h = BlockedHasher::new();
            for &w in &words[..split] {
                h.write_u32(w);
            }
            h.write_u32_slice(&words[split..]);
            assert_eq!(h.finish(), reference(&words), "split = {split}");
        }
    }

    #[test]
    fn f32_and_u16_widening_match_word_convention() {
        let fs = [1.5f32, -0.0, f32::NAN, 3.25e-9, -7.0];
        let mut a = BlockedHasher::new();
        a.write_f32_slice(&fs);
        let bits: Vec<u32> = fs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a.finish(), reference(&bits));

        let hs = [0u16, 1, 0x8000, 0x7FFF, 42];
        let mut b = BlockedHasher::new();
        b.write_u16_slice(&hs);
        let wide: Vec<u32> = hs.iter().map(|&x| u32::from(x)).collect();
        assert_eq!(b.finish(), reference(&wide));
    }

    /// PR 6 satellite: streaming a payload through arbitrary odd-sized
    /// chunk boundaries must equal hashing it in one shot — the spill
    /// appends segment payloads in budgeted slices, so digest equality
    /// across every split is what lets a reader verify a record that was
    /// written incrementally. Payloads deliberately include NaN (whose
    /// bit pattern must be hashed verbatim, never canonicalized) and
    /// both zero signs (which differ by one bit and must differ in the
    /// digest).
    #[test]
    fn streaming_chunks_match_one_shot_for_any_boundary() {
        use reprune_tensor::rng::Prng;
        let mut rng = Prng::new(0xC0FFEE);
        // A payload salted with every awkward value class.
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001), // quiet NaN with payload bits
            f32::from_bits(0xFF80_0001), // signaling-style NaN
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        for len in [1usize, 2, 3, 5, 8, 9, 17, 31, 64, 65, 127, 257, 1023] {
            let payload: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 4 == 0 {
                        specials[i / 4 % specials.len()]
                    } else {
                        rng.next_uniform(-10.0, 10.0)
                    }
                })
                .collect();
            let mut one_shot = BlockedHasher::new();
            one_shot.write_f32_slice(&payload);
            let want = one_shot.finish();

            // Every fixed odd chunk size, plus random ragged splits.
            for chunk in [1usize, 2, 3, 5, 7, 11, 13, 29] {
                let mut h = BlockedHasher::new();
                for c in payload.chunks(chunk) {
                    h.write_f32_slice(c);
                }
                assert_eq!(h.finish(), want, "len {len} chunk {chunk}");
            }
            for _ in 0..8 {
                let mut h = BlockedHasher::new();
                let mut rest = &payload[..];
                while !rest.is_empty() {
                    let take = 1 + rng.next_below(rest.len());
                    h.write_f32_slice(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(h.finish(), want, "random splits, len {len}");
            }
        }

        // ±0.0 differ by one sign bit and must not collide.
        let digest = |xs: &[f32]| {
            let mut h = BlockedHasher::new();
            h.write_f32_slice(xs);
            h.finish()
        };
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        // NaN payload bits are significant: two different NaNs differ.
        assert_ne!(
            digest(&[f32::from_bits(0x7FC0_0000)]),
            digest(&[f32::from_bits(0x7FC0_0001)])
        );
    }

    #[test]
    fn single_bit_flip_always_changes_digest() {
        let words: Vec<u32> = (0..23).map(|i| i * 1_000_003).collect();
        let clean = reference(&words);
        for pos in 0..words.len() {
            for bit in 0..32 {
                let mut flipped = words.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(reference(&flipped), clean, "pos {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn length_extension_with_zeros_changes_digest() {
        let a = reference(&[5, 6, 7]);
        let b = reference(&[5, 6, 7, 0]);
        let c = reference(&[5, 6, 7, 0, 0, 0, 0]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(reference(&[]), reference(&[0]));
    }

    #[test]
    fn v1_fnv_primitives_unchanged() {
        // Known-answer check: FNV-1a of the bytes 01 00 00 00.
        let mut h = FNV_OFFSET;
        for b in [1u8, 0, 0, 0] {
            h = fnv1a_byte(h, b);
        }
        assert_eq!(fnv1a_u32(FNV_OFFSET, 1), h);
    }
}

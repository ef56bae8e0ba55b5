//! Quantized (int8) linear algebra: the execution kernels behind the
//! ladder's precision rungs.
//!
//! Mirrors the f32 seam in [`crate::linalg`]: one register-tiled,
//! cache-blocked engine ([`matmul_i8_slices_into`]) with AVX-512BW /
//! AVX2 / portable paths selected once at runtime (partial edge tiles
//! run the same SIMD kernel into a zero-padded stack tile), a scalar oracle
//! ([`matmul_i8_naive`]) for property tests, and the same optional
//! packed live-row plan so pruned-and-quantized rungs skip rows *and*
//! run narrow.
//!
//! # Exactness contract
//!
//! Accumulation is pure `i32` integer arithmetic: every product of two
//! `i8` values fits in 15 bits, so an `i32` accumulator is exact for any
//! practical depth (overflow needs `k > 2^31 / 127² ≈ 133 000`). Integer
//! addition is associative, so **every** dispatch path — and any column
//! batching — produces bit-identical results to the naive oracle by
//! construction; no accumulation-order contract is needed.
//!
//! # Quantization scheme
//!
//! Symmetric per-row scales: `scale = max|x| / 127`, `q = clamp(round(x
//! / scale), −127, 127)`, where `round` is round half away from zero.
//! Both steps are computed without libm: the scale is a `u32` max over
//! the sign-masked bit patterns (NaN patterns count as 0; non-negative
//! floats order like their bits), and the rounding clamps `x / scale`
//! to ±128, truncates it toward zero and adds ±1 when the exact
//! fraction reaches ±0.5. The mapping is
//! deterministic for every input bit pattern: `NaN` quantizes to 0, an
//! all-zero (or all-NaN) row yields `scale = 0` and all-zero codes, and
//! a non-finite `max|x|` falls back to `scale = 0` rather than
//! poisoning the row with `0 · ∞` NaNs. The reversible-precision
//! machinery in `reprune-prune` leans on this determinism: re-running
//! quantization over the same f32 bits always reproduces the same codes
//! and the same dequantized values.

/// Rows per register tile (matches the f32 micro-kernel).
const MR: usize = 4;
/// Columns per register tile: two 512-bit vectors of i32 on the widest
/// path.
const NR: usize = 32;

/// Reusable packing buffers for the int8 tiled GEMM.
///
/// `apack` holds each A-panel value pair packed as one little-endian
/// `i32` word (two sign-extended `i16`s) so the SIMD kernels broadcast a
/// depth-pair with a single `set1_epi32`; `bpack` holds the B panels
/// with depth-pairs interleaved per column. Growth events are counted
/// exactly like [`crate::linalg::GemmScratch`].
#[derive(Debug, Default)]
pub struct QGemmScratch {
    apack: Vec<i32>,
    bpack: Vec<i16>,
    alloc_events: usize,
}

impl QGemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QGemmScratch::default()
    }

    /// Number of times a packing buffer had to grow. Stable after
    /// warmup on a fixed workload.
    pub fn allocation_events(&self) -> usize {
        self.alloc_events
    }

    /// Grows the packing buffers to at least the given lengths, without
    /// re-zeroing what they already hold: the packers write every
    /// element the kernels read.
    fn reserve(&mut self, apack_len: usize, bpack_len: usize) {
        if apack_len > self.apack.capacity() || bpack_len > self.bpack.capacity() {
            self.alloc_events += 1;
        }
        grow_len(&mut self.apack, apack_len);
        grow_len(&mut self.bpack, bpack_len);
    }
}

/// Grows `buf` to at least `len` elements, leaving its existing contents
/// in place. The capacity grows exactly as a `clear` + `resize` to `len`
/// would make it grow, so growth-event accounting is unchanged; only the
/// per-call zero fill is gone.
fn grow_len<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Instruction sets the int8 dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaI8 {
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

fn isa_i8() -> IsaI8 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ISA: OnceLock<IsaI8> = OnceLock::new();
        *ISA.get_or_init(|| {
            // The 512-bit kernels need BW (byte/word ops at 512 bits),
            // not just F; VNNI fuses the madd+add pair into one dpwssd.
            if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vnni") {
                IsaI8::Avx512Vnni
            } else if is_x86_feature_detected!("avx512bw") {
                IsaI8::Avx512
            } else if is_x86_feature_detected!("avx2") {
                IsaI8::Avx2
            } else {
                IsaI8::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        IsaI8::Portable
    }
}

/// Name of the SIMD dispatch level the int8 kernel selected on this
/// host — `"avx512-vnni"`, `"avx512"`, `"avx2"`, or `"portable"`.
pub fn active_isa_i8() -> &'static str {
    match isa_i8() {
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx512Vnni => "avx512-vnni",
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx2 => "avx2",
        IsaI8::Portable => "portable",
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! int8 SIMD kernels. The GEMM tiles sign-extend to i16 pairs at
    //! pack time, the matvec dots as they load 32 codes; all accumulate
    //! i16×i16 pairs into i32 (`madd` or `dpwssd`), which is exact — see
    //! the module-level contract.
    use std::arch::x86_64::*;

    use super::{MR, NR};

    /// VNNI variant of [`tile_i8_avx512`]: `dpwssd` fuses each
    /// madd+add pair into one instruction (still exact i32 wraparound
    /// accumulation — products fit in 15 bits each, so no wraparound
    /// ever occurs at practical depths).
    ///
    /// # Safety
    ///
    /// Same contract as [`tile_i8_avx512`]; requires AVX-512BW + VNNI.
    #[target_feature(enable = "avx512bw,avx512vnni")]
    pub unsafe fn tile_i8_avx512_vnni(
        apack: *const i32,
        bpack: *const i16,
        k2: usize,
        rows: [*mut i32; MR],
    ) {
        let mut acc00 = _mm512_setzero_si512();
        let mut acc01 = _mm512_setzero_si512();
        let mut acc10 = _mm512_setzero_si512();
        let mut acc11 = _mm512_setzero_si512();
        let mut acc20 = _mm512_setzero_si512();
        let mut acc21 = _mm512_setzero_si512();
        let mut acc30 = _mm512_setzero_si512();
        let mut acc31 = _mm512_setzero_si512();
        for p in 0..k2 {
            let b0 = _mm512_loadu_si512(bpack.add(p * NR * 2).cast());
            let b1 = _mm512_loadu_si512(bpack.add(p * NR * 2 + NR).cast());
            let a0 = _mm512_set1_epi32(*apack.add(p * MR));
            let a1 = _mm512_set1_epi32(*apack.add(p * MR + 1));
            let a2 = _mm512_set1_epi32(*apack.add(p * MR + 2));
            let a3 = _mm512_set1_epi32(*apack.add(p * MR + 3));
            acc00 = _mm512_dpwssd_epi32(acc00, a0, b0);
            acc01 = _mm512_dpwssd_epi32(acc01, a0, b1);
            acc10 = _mm512_dpwssd_epi32(acc10, a1, b0);
            acc11 = _mm512_dpwssd_epi32(acc11, a1, b1);
            acc20 = _mm512_dpwssd_epi32(acc20, a2, b0);
            acc21 = _mm512_dpwssd_epi32(acc21, a2, b1);
            acc30 = _mm512_dpwssd_epi32(acc30, a3, b0);
            acc31 = _mm512_dpwssd_epi32(acc31, a3, b1);
        }
        _mm512_storeu_si512(rows[0].cast(), acc00);
        _mm512_storeu_si512(rows[0].add(16).cast(), acc01);
        _mm512_storeu_si512(rows[1].cast(), acc10);
        _mm512_storeu_si512(rows[1].add(16).cast(), acc11);
        _mm512_storeu_si512(rows[2].cast(), acc20);
        _mm512_storeu_si512(rows[2].add(16).cast(), acc21);
        _mm512_storeu_si512(rows[3].cast(), acc30);
        _mm512_storeu_si512(rows[3].add(16).cast(), acc31);
    }

    /// 4×32 tile over a pair-packed A panel (`k2` i32 pair-words per
    /// row, k-major, MR-wide) and B panel (k-major pairs, NR-wide),
    /// storing i32 accumulators to four independent row pointers.
    ///
    /// # Safety
    ///
    /// `apack` must hold `k2·MR` i32 words, `bpack` `k2·NR·2` i16s, and
    /// each row pointer must be valid for `NR` i32 writes. Requires
    /// AVX-512BW.
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn tile_i8_avx512(
        apack: *const i32,
        bpack: *const i16,
        k2: usize,
        rows: [*mut i32; MR],
    ) {
        let mut acc00 = _mm512_setzero_si512();
        let mut acc01 = _mm512_setzero_si512();
        let mut acc10 = _mm512_setzero_si512();
        let mut acc11 = _mm512_setzero_si512();
        let mut acc20 = _mm512_setzero_si512();
        let mut acc21 = _mm512_setzero_si512();
        let mut acc30 = _mm512_setzero_si512();
        let mut acc31 = _mm512_setzero_si512();
        for p in 0..k2 {
            // 32 i16 = 16 column pairs per vector; two vectors span NR.
            let b0 = _mm512_loadu_si512(bpack.add(p * NR * 2).cast());
            let b1 = _mm512_loadu_si512(bpack.add(p * NR * 2 + NR).cast());
            let a0 = _mm512_set1_epi32(*apack.add(p * MR));
            let a1 = _mm512_set1_epi32(*apack.add(p * MR + 1));
            let a2 = _mm512_set1_epi32(*apack.add(p * MR + 2));
            let a3 = _mm512_set1_epi32(*apack.add(p * MR + 3));
            acc00 = _mm512_add_epi32(acc00, _mm512_madd_epi16(a0, b0));
            acc01 = _mm512_add_epi32(acc01, _mm512_madd_epi16(a0, b1));
            acc10 = _mm512_add_epi32(acc10, _mm512_madd_epi16(a1, b0));
            acc11 = _mm512_add_epi32(acc11, _mm512_madd_epi16(a1, b1));
            acc20 = _mm512_add_epi32(acc20, _mm512_madd_epi16(a2, b0));
            acc21 = _mm512_add_epi32(acc21, _mm512_madd_epi16(a2, b1));
            acc30 = _mm512_add_epi32(acc30, _mm512_madd_epi16(a3, b0));
            acc31 = _mm512_add_epi32(acc31, _mm512_madd_epi16(a3, b1));
        }
        _mm512_storeu_si512(rows[0].cast(), acc00);
        _mm512_storeu_si512(rows[0].add(16).cast(), acc01);
        _mm512_storeu_si512(rows[1].cast(), acc10);
        _mm512_storeu_si512(rows[1].add(16).cast(), acc11);
        _mm512_storeu_si512(rows[2].cast(), acc20);
        _mm512_storeu_si512(rows[2].add(16).cast(), acc21);
        _mm512_storeu_si512(rows[3].cast(), acc30);
        _mm512_storeu_si512(rows[3].add(16).cast(), acc31);
    }

    /// AVX2 variant: same packed layout, four 256-bit vectors (8 column
    /// pairs each) per row.
    ///
    /// # Safety
    ///
    /// Same contract as [`tile_i8_avx512`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_i8_avx2(
        apack: *const i32,
        bpack: *const i16,
        k2: usize,
        rows: [*mut i32; MR],
    ) {
        let mut acc = [[_mm256_setzero_si256(); 4]; MR];
        for p in 0..k2 {
            let b = [
                _mm256_loadu_si256(bpack.add(p * NR * 2).cast()),
                _mm256_loadu_si256(bpack.add(p * NR * 2 + 16).cast()),
                _mm256_loadu_si256(bpack.add(p * NR * 2 + 32).cast()),
                _mm256_loadu_si256(bpack.add(p * NR * 2 + 48).cast()),
            ];
            for (ir, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(*apack.add(p * MR + ir));
                for (jv, b_vec) in b.iter().enumerate() {
                    acc_row[jv] = _mm256_add_epi32(acc_row[jv], _mm256_madd_epi16(av, *b_vec));
                }
            }
        }
        for (ir, acc_row) in acc.iter().enumerate() {
            for (jv, v) in acc_row.iter().enumerate() {
                _mm256_storeu_si256(rows[ir].add(jv * 8).cast(), *v);
            }
        }
    }

    /// `w · x` over i8 codes: 32 codes at a time sign-extended to i16
    /// and summed pairwise into i32 lanes by `madd` and an add, the
    /// lanes reduced at the end and the last `k mod 32` codes summed by
    /// the portable dot. Exact, like every integer path here.
    ///
    /// VNNI hosts run it too: a `dpwssd` variant measured no faster on
    /// the perception CNN's 96×512 Linear or the control MLP's layers.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Safety
    ///
    /// Requires AVX-512BW.
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn dot_i8_avx512(w: &[i8], x: &[i8]) -> i32 {
        assert_eq!(w.len(), x.len(), "dot_i8: length mismatch");
        let full = x.len() - x.len() % 32;
        let mut acc = _mm512_setzero_si512();
        for p in (0..full).step_by(32) {
            // SAFETY (loads): p + 32 ≤ len of both slices.
            let wv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.as_ptr().add(p).cast()));
            let xv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(x.as_ptr().add(p).cast()));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(wv, xv));
        }
        _mm512_reduce_add_epi32(acc).wrapping_add(super::dot_i8_portable(&w[full..], &x[full..]))
    }

    /// AVX2 variant of [`dot_i8_avx512`]: two 16-code halves per step of
    /// 32 codes.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(w: &[i8], x: &[i8]) -> i32 {
        assert_eq!(w.len(), x.len(), "dot_i8: length mismatch");
        let full = x.len() - x.len() % 32;
        let mut acc = _mm256_setzero_si256();
        for p in (0..full).step_by(16) {
            // SAFETY (loads): p + 16 ≤ len of both slices.
            let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(p).cast()));
            let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(x.as_ptr().add(p).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
        }
        let s = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
        _mm_cvtsi128_si32(s).wrapping_add(super::dot_i8_portable(&w[full..], &x[full..]))
    }
}

/// Runs the SIMD micro-kernel `level` names on one MR×NR tile.
///
/// # Safety
///
/// `level` must be the level [`isa_i8`] probed (never
/// [`IsaI8::Portable`]), `apack` must hold `k2·MR` words, `panel`
/// `k2·NR·2` i16s, and every row pointer must be valid for `NR` i32
/// writes.
#[inline(always)]
unsafe fn tile_i8_simd(
    level: IsaI8,
    apack: &[i32],
    panel: &[i16],
    k2: usize,
    rows: [*mut i32; MR],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx512Vnni => simd::tile_i8_avx512_vnni(apack.as_ptr(), panel.as_ptr(), k2, rows),
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx512 => simd::tile_i8_avx512(apack.as_ptr(), panel.as_ptr(), k2, rows),
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx2 => simd::tile_i8_avx2(apack.as_ptr(), panel.as_ptr(), k2, rows),
        IsaI8::Portable => unreachable!("portable hosts run tile_i8_portable"),
    }
}

/// Portable tile kernel: unpacks the same pair-packed panels and
/// accumulates in plain i32 (exact, so order is irrelevant). Handles
/// partial tiles by computing into a stack tile and copying the live
/// region.
#[inline(always)]
fn tile_i8_portable(
    apack: &[i32],
    bpack: &[i16],
    k2: usize,
    iw: usize,
    jw: usize,
    out: &mut [i32],
    row_offsets: &[usize],
) {
    let mut acc = [[0i32; NR]; MR];
    for p in 0..k2 {
        let bv = &bpack[p * NR * 2..(p + 1) * NR * 2];
        for ir in 0..MR {
            let pair = apack[p * MR + ir];
            let a0 = (pair as i16) as i32;
            let a1 = pair >> 16;
            let row = &mut acc[ir];
            for j in 0..NR {
                row[j] += a0 * bv[j * 2] as i32 + a1 * bv[j * 2 + 1] as i32;
            }
        }
    }
    for ir in 0..iw {
        let dst = &mut out[row_offsets[ir]..row_offsets[ir] + jw];
        dst.copy_from_slice(&acc[ir][..jw]);
    }
}

// Explicit indices transpose MR rows into pair-major order; a range
// loop is the clearest form (same allowance as the f32 packer).
#[allow(clippy::needless_range_loop)]
#[inline]
fn pack_a_panel_i8(a: &[i8], k: usize, row_indices: &[usize], apack: &mut [i32]) {
    let iw = row_indices.len();
    let k2 = k.div_ceil(2);
    for p in 0..k2 {
        for ir in 0..iw {
            let row = row_indices[ir] * k;
            let lo = a[row + 2 * p] as i16 as u16 as u32;
            let hi = if 2 * p + 1 < k {
                a[row + 2 * p + 1] as i16 as u16 as u32
            } else {
                0
            };
            apack[p * MR + ir] = (lo | (hi << 16)) as i32;
        }
        for ir in iw..MR {
            apack[p * MR + ir] = 0;
        }
    }
}

/// Packs B into NR-wide panels of interleaved depth pairs, writing every
/// element of the first `n.div_ceil(NR)·k.div_ceil(2)·NR·2`: an odd
/// depth's last pair and the columns past `n` are zero-padded.
#[inline]
fn pack_b_i8(b: &[i8], k: usize, n: usize, bpack: &mut [i16]) {
    let k2 = k.div_ceil(2);
    let npanels = n.div_ceil(NR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let panel = &mut bpack[jp * k2 * NR * 2..(jp + 1) * k2 * NR * 2];
        for (p, dst) in panel.chunks_exact_mut(NR * 2).enumerate() {
            let row0 = &b[2 * p * n + j0..][..jw];
            let (live, pad) = dst.split_at_mut(jw * 2);
            if 2 * p + 1 < k {
                let row1 = &b[(2 * p + 1) * n + j0..][..jw];
                for ((pair, &lo), &hi) in live.chunks_exact_mut(2).zip(row0).zip(row1) {
                    pair[0] = lo as i16;
                    pair[1] = hi as i16;
                }
            } else {
                for (pair, &lo) in live.chunks_exact_mut(2).zip(row0) {
                    pair[0] = lo as i16;
                    pair[1] = 0;
                }
            }
            pad.fill(0);
        }
    }
}

/// The raw-slice int8 tiled GEMM engine: `out[m×n] = a[m×k] · b[k×n]`
/// with i32 accumulation, computing only the rows listed in `live_rows`
/// when given (others are zero-filled). The int8 twin of
/// [`crate::linalg::matmul_slices_into`], bit-identical to
/// [`matmul_i8_naive`] on every dispatch path.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m·k`/`k·n`/`m·n` or a live
/// row index is out of range.
// Deliberate allow: same lowest-level-engine rationale as the f32 twin.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_slices_into(
    a: &[i8],
    m: usize,
    k: usize,
    b: &[i8],
    n: usize,
    live_rows: Option<&[u32]>,
    out: &mut [i32],
    scratch: &mut QGemmScratch,
) {
    assert_eq!(a.len(), m * k, "matmul_i8_slices_into: lhs length");
    assert_eq!(b.len(), k * n, "matmul_i8_slices_into: rhs length");
    assert_eq!(out.len(), m * n, "matmul_i8_slices_into: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    let k2 = k.div_ceil(2);
    let npanels = n.div_ceil(NR);
    scratch.reserve(k2 * MR, npanels * k2 * NR * 2);
    let mut apack = std::mem::take(&mut scratch.apack);
    let mut bpack = std::mem::take(&mut scratch.bpack);
    pack_b_i8(b, k, n, &mut bpack);

    if live_rows.is_some() {
        // Dead rows contribute exact zeros, matching a fully zeroed row.
        out.fill(0);
    }
    let level = isa_i8();
    let mut rows_buf = [0usize; MR];
    let mut row_cursor = 0usize;
    loop {
        let iw = match live_rows {
            Some(live) => {
                if row_cursor >= live.len() {
                    break;
                }
                let take = MR.min(live.len() - row_cursor);
                for (slot, &r) in rows_buf[..take].iter_mut().zip(&live[row_cursor..]) {
                    let r = r as usize;
                    assert!(r < m, "live row {r} out of range for {m} rows");
                    *slot = r;
                }
                row_cursor += take;
                take
            }
            None => {
                if row_cursor >= m {
                    break;
                }
                let take = MR.min(m - row_cursor);
                for (off, slot) in rows_buf[..take].iter_mut().enumerate() {
                    *slot = row_cursor + off;
                }
                row_cursor += take;
                take
            }
        };
        pack_a_panel_i8(a, k, &rows_buf[..iw], &mut apack);
        for jp in 0..npanels {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            let panel = &bpack[jp * k2 * NR * 2..(jp + 1) * k2 * NR * 2];
            let mut offs = [0usize; MR];
            for (o, &r) in offs.iter_mut().zip(&rows_buf[..iw]) {
                *o = r * n + j0;
            }
            if level == IsaI8::Portable {
                tile_i8_portable(&apack, panel, k2, iw, jw, out, &offs[..iw]);
            } else if iw == MR && jw == NR {
                let base = out.as_mut_ptr();
                // SAFETY: each row index < m and j0 + NR ≤ n, so every
                // pointer is valid for NR i32 writes; apack and the panel
                // were sized above; `level` came from the probe.
                unsafe {
                    tile_i8_simd(
                        level,
                        &apack,
                        panel,
                        k2,
                        [
                            base.add(offs[0]),
                            base.add(offs[1]),
                            base.add(offs[2]),
                            base.add(offs[3]),
                        ],
                    );
                }
            } else {
                // A partial tile runs the same kernel into a stack tile:
                // the packers zero-pad A past iw rows and B past jw
                // columns, and integer accumulation is exact, so the live
                // region equals the portable kernel's bit for bit.
                let mut tile = [0i32; MR * NR];
                let t = tile.as_mut_ptr();
                // SAFETY: `tile` holds MR·NR i32s, so row pointer ir·NR is
                // valid for NR writes; apack and the panel were sized
                // above; `level` came from the probe.
                unsafe {
                    let rows = [t, t.add(NR), t.add(2 * NR), t.add(3 * NR)];
                    tile_i8_simd(level, &apack, panel, k2, rows);
                }
                for (src, &o) in tile.chunks_exact(NR).zip(&offs[..iw]) {
                    out[o..o + jw].copy_from_slice(&src[..jw]);
                }
            }
        }
    }
    scratch.apack = apack;
    scratch.bpack = bpack;
}

/// Scalar int8 GEMM oracle: the straightforward triple loop with i32
/// accumulation. Ground truth for the tiled engine's property tests.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_i8_naive(a: &[i8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "matmul_i8_naive: lhs length");
    assert_eq!(b.len(), k * n, "matmul_i8_naive: rhs length");
    assert_eq!(out.len(), m * n, "matmul_i8_naive: out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        o_row.fill(0);
        for (p, &aip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bpj) in o_row.iter_mut().zip(b_row) {
                *o += aip as i32 * bpj as i32;
            }
        }
    }
}

/// The portable i8 dot product: the scalar sum of `w · x` in i32.
#[inline]
fn dot_i8_portable(w: &[i8], x: &[i8]) -> i32 {
    w.iter().zip(x).map(|(&w, &v)| w as i32 * v as i32).sum()
}

/// `w · x` on the dot kernel `level` names.
///
/// # Safety
///
/// The host must support `level`'s instruction set.
#[inline(always)]
unsafe fn dot_i8_at(level: IsaI8, w: &[i8], x: &[i8]) -> i32 {
    match level {
        // The VNNI level has AVX-512BW too.
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx512Vnni | IsaI8::Avx512 => simd::dot_i8_avx512(w, x),
        #[cfg(target_arch = "x86_64")]
        IsaI8::Avx2 => simd::dot_i8_avx2(w, x),
        IsaI8::Portable => dot_i8_portable(w, x),
    }
}

/// Int8 matrix–vector product with i32 accumulation, computing only
/// `live_rows` when given (pruned rows are zero-filled). The int8 twin
/// of [`crate::linalg::matvec_into`], backing the fully connected
/// layers of int8 rungs: each row is one SIMD dot product on the
/// [`active_isa_i8`] level, exact like every integer path.
///
/// # Panics
///
/// Panics if lengths disagree or a live row index is out of range.
pub fn matvec_i8_into(a: &[i8], x: &[i8], live_rows: Option<&[u32]>, out: &mut [i32]) {
    let k = x.len();
    assert_eq!(a.len(), out.len() * k, "matvec_i8_into: lhs length");
    let level = isa_i8();
    // SAFETY: `level` came from the probe.
    let dot = |row: usize| -> i32 { unsafe { dot_i8_at(level, &a[row * k..(row + 1) * k], x) } };
    match live_rows {
        None => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(i);
            }
        }
        Some(live) => {
            out.fill(0);
            for &r in live {
                let r = r as usize;
                assert!(r < out.len(), "live row {r} out of range for {} rows", out.len());
                out[r] = dot(r);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quantize / dequantize helpers
// ---------------------------------------------------------------------

/// The symmetric scale for a slice: `max|x| / 127`, ignoring NaNs, with
/// a zero fallback when the maximum is zero or non-finite (all-zero
/// codes — see the module-level scheme).
pub fn quant_scale(src: &[f32]) -> f32 {
    scale_from_abs_bits(src.iter().fold(0, |max, &v| max.max(abs_bits(v))))
}

/// The bit pattern of `|v|`, or 0 for a NaN. Non-negative floats order
/// like their bit patterns, so a `u32` max over these equals an
/// `f32::max` fold of `|v|` from `0.0` (which drops NaN operands).
#[inline]
pub(crate) fn abs_bits(v: f32) -> u32 {
    let bits = v.to_bits() & 0x7fff_ffff;
    if bits > 0x7f80_0000 {
        0
    } else {
        bits
    }
}

/// [`quant_scale`] from the largest [`abs_bits`] of a set of values.
#[inline]
pub(crate) fn scale_from_abs_bits(max_bits: u32) -> f32 {
    let scale = f32::from_bits(max_bits) / 127.0;
    if scale.is_finite() && scale > 0.0 {
        scale
    } else {
        0.0
    }
}

/// Quantizes one value against a precomputed scale: `v / scale` rounded
/// half away from zero and clamped to ±127. `scale == 0.0` yields 0;
/// NaN yields 0.
#[inline]
pub fn quantize_value(v: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    // `clamp` lets NaN through, and NaN truncates to 0 as `as i32` would
    // map it. Below 128 in magnitude `q - t` is exact, so the fraction
    // test is exact too.
    let q = (v / scale).clamp(-128.0, 128.0);
    let t = if q.is_nan() {
        0
    } else {
        // SAFETY: a non-NaN `q` lies in [-128, 128] after the clamp, so
        // its truncation fits an i32. This is `q as i32` without the
        // saturation checks that keep LLVM from vectorizing the loops.
        unsafe { q.to_int_unchecked::<i32>() }
    };
    let frac = q - t as f32;
    (t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32).clamp(-127, 127) as i8
}

/// Quantizes every value of `src` against one precomputed scale into
/// `dst`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn quantize_into(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_into: length mismatch");
    if scale == 0.0 {
        dst.fill(0);
        return;
    }
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_value(v, scale);
    }
}

/// Dequantizes one code. `0 · 0.0 = 0.0` keeps all-zero rows exact.
#[inline]
pub fn dequantize_value(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// Quantizes a row (or any slice) with its own symmetric scale into
/// `dst`, returning the scale used. `dst` must be the same length.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn quantize_row_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row_i8: length mismatch");
    let scale = quant_scale(src);
    quantize_into(src, scale, dst);
    scale
}

/// Dequantizes a row of codes against its scale into `dst`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dequantize_row_i8(src: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize_row_i8: length mismatch");
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = dequantize_value(q, scale);
    }
}

/// Rounds a value through the int8 grid: `dequant(quant(v))`. The
/// idempotent "snap" the precision rungs apply to live weights (NaN and
/// all-zero rows snap to `0.0`; the original bits live in the reversal
/// log).
#[inline]
pub fn round_through_i8(v: f32, scale: f32) -> f32 {
    dequantize_value(quantize_value(v, scale), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: i32) -> Vec<i8> {
        (0..len)
            .map(|i| {
                let v = (i as i32).wrapping_mul(31).wrapping_add(seed).wrapping_mul(2654435761u32 as i32);
                (v >> 24) as i8
            })
            .collect()
    }

    #[test]
    fn tiled_matches_naive_across_edge_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 4, 32),
            (5, 7, 33),
            (3, 70, 2),
            (17, 13, 40),
            (8, 1, 64),
            (9, 33, 31),
            (4, 2, 32),
            (6, 9, 16),
        ] {
            let a = pattern(m * k, 7);
            let b = pattern(k * n, -3);
            let mut tiled = vec![0i32; m * n];
            let mut naive = vec![0i32; m * n];
            let mut scratch = QGemmScratch::new();
            matmul_i8_slices_into(&a, m, k, &b, n, None, &mut tiled, &mut scratch);
            matmul_i8_naive(&a, m, k, &b, n, &mut naive);
            assert_eq!(tiled, naive, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn extreme_codes_do_not_overflow() {
        // All-(-127)·(-127) at k = 512: acc = 512 · 16129, far from i32
        // overflow, and every path must agree exactly.
        let (m, k, n) = (5, 512, 33);
        let a = vec![-127i8; m * k];
        let b = vec![-127i8; k * n];
        let mut tiled = vec![0i32; m * n];
        let mut naive = vec![0i32; m * n];
        let mut scratch = QGemmScratch::new();
        matmul_i8_slices_into(&a, m, k, &b, n, None, &mut tiled, &mut scratch);
        matmul_i8_naive(&a, m, k, &b, n, &mut naive);
        assert_eq!(tiled, naive);
        assert_eq!(tiled[0], 512 * 127 * 127);
    }

    #[test]
    fn live_rows_skip_dead_rows() {
        let (m, k, n) = (6, 5, 40);
        let a = pattern(m * k, 1);
        let b = pattern(k * n, 2);
        let mut dense = vec![0i32; m * n];
        matmul_i8_naive(&a, m, k, &b, n, &mut dense);
        let live = [0u32, 2, 5];
        let mut sparse = vec![0i32; m * n];
        let mut scratch = QGemmScratch::new();
        matmul_i8_slices_into(&a, m, k, &b, n, Some(&live), &mut sparse, &mut scratch);
        for r in 0..m {
            let row = &sparse[r * n..(r + 1) * n];
            if live.contains(&(r as u32)) {
                assert_eq!(row, &dense[r * n..(r + 1) * n], "live row {r}");
            } else {
                assert!(row.iter().all(|&v| v == 0), "dead row {r} must be zero");
            }
        }
    }

    #[test]
    fn scratch_stops_allocating_after_warmup() {
        let (m, k, n) = (16, 33, 65);
        let a = pattern(m * k, 5);
        let b = pattern(k * n, 6);
        let mut out = vec![0i32; m * n];
        let mut scratch = QGemmScratch::new();
        matmul_i8_slices_into(&a, m, k, &b, n, None, &mut out, &mut scratch);
        let warm = scratch.allocation_events();
        for _ in 0..5 {
            matmul_i8_slices_into(&a, m, k, &b, n, None, &mut out, &mut scratch);
        }
        assert_eq!(scratch.allocation_events(), warm);
    }

    #[test]
    fn matvec_matches_gemm_column() {
        let (m, k) = (7, 19);
        let a = pattern(m * k, 9);
        let x = pattern(k, 4);
        let mut mv = vec![0i32; m];
        matvec_i8_into(&a, &x, None, &mut mv);
        let mut mm = vec![0i32; m];
        matmul_i8_naive(&a, m, k, &x, 1, &mut mm);
        assert_eq!(mv, mm);
        let mut sparse = vec![0i32; m];
        matvec_i8_into(&a, &x, Some(&[1, 4]), &mut sparse);
        assert_eq!(sparse[1], mv[1]);
        assert_eq!(sparse[4], mv[4]);
        assert_eq!(sparse[0], 0);
    }

    /// Every int8 dot kernel this host can run (the VNNI level runs the
    /// AVX-512BW dot).
    fn host_levels() -> Vec<IsaI8> {
        #[allow(unused_mut)]
        let mut levels = vec![IsaI8::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512bw") {
                levels.push(IsaI8::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                levels.push(IsaI8::Avx2);
            }
        }
        levels
    }

    #[test]
    fn every_host_dot_kernel_matches_the_portable_dot() {
        for k in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 130, 512] {
            let w = pattern(k, 3);
            let x = pattern(k, -5);
            let extremes = vec![-128i8; k];
            for (w, x) in [(&w, &x), (&extremes, &extremes), (&extremes, &x)] {
                let want = dot_i8_portable(w, x);
                for level in host_levels() {
                    // SAFETY: `host_levels` lists only supported levels.
                    assert_eq!(unsafe { dot_i8_at(level, w, x) }, want, "{level:?} k={k}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_tiles_match_the_portable_tile() {
        let k = 21usize;
        let k2 = k.div_ceil(2);
        let a = pattern(MR * k, 1);
        let b = pattern(k * NR, 2);
        let mut apack = vec![0i32; k2 * MR];
        pack_a_panel_i8(&a, k, &[0, 1, 2, 3], &mut apack);
        let mut bpack = vec![0i16; k2 * NR * 2];
        pack_b_i8(&b, k, NR, &mut bpack);
        let mut want = vec![0i32; MR * NR];
        tile_i8_portable(
            &apack,
            &bpack,
            k2,
            MR,
            NR,
            &mut want,
            &[0, NR, 2 * NR, 3 * NR],
        );
        let mut naive = vec![0i32; MR * NR];
        matmul_i8_naive(&a, MR, k, &b, NR, &mut naive);
        assert_eq!(want, naive);
        let run = |tile: unsafe fn(*const i32, *const i16, usize, [*mut i32; MR])| {
            let mut got = vec![i32::MIN; MR * NR];
            let p = got.as_mut_ptr();
            // SAFETY: the panels hold k2·MR words and k2·NR·2 i16s, each
            // row pointer starts NR i32s of `got`, and the caller probed
            // the tile's ISA.
            unsafe {
                tile(
                    apack.as_ptr(),
                    bpack.as_ptr(),
                    k2,
                    [p, p.add(NR), p.add(2 * NR), p.add(3 * NR)],
                )
            };
            got
        };
        if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vnni") {
            assert_eq!(run(simd::tile_i8_avx512_vnni), want, "tile_i8_avx512_vnni");
        }
        if is_x86_feature_detected!("avx512bw") {
            assert_eq!(run(simd::tile_i8_avx512), want, "tile_i8_avx512");
        }
        if is_x86_feature_detected!("avx2") {
            assert_eq!(run(simd::tile_i8_avx2), want, "tile_i8_avx2");
        }
    }

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let src: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin() * 4.0).collect();
        let mut q = vec![0i8; src.len()];
        let scale = quantize_row_i8(&src, &mut q);
        assert!(scale > 0.0);
        let mut back = vec![0.0f32; src.len()];
        dequantize_row_i8(&q, scale, &mut back);
        for (&v, &r) in src.iter().zip(&back) {
            assert!((v - r).abs() <= scale * 0.5 + 1e-6, "{v} vs {r} (scale {scale})");
        }
    }

    #[test]
    fn quantize_handles_pathological_rows() {
        // NaN ignored in the scale, quantized to 0.
        let src = [f32::NAN, 1.0, -2.0, 0.0];
        let mut q = [0i8; 4];
        let scale = quantize_row_i8(&src, &mut q);
        assert_eq!(q[0], 0);
        assert_eq!(q[3], 0);
        assert_eq!(quantize_value(-2.0, scale), -127);
        // All-zero row: scale 0, all codes 0, round-through exact.
        assert_eq!(quant_scale(&[0.0, -0.0]), 0.0);
        assert_eq!(round_through_i8(0.0, 0.0).to_bits(), 0.0f32.to_bits());
        // Signed zero rounds to +0.0 (lossy; the log restores the bits).
        assert_eq!(round_through_i8(-0.0, 1.0).to_bits(), 0.0f32.to_bits());
        // Non-finite max falls back to scale 0 instead of 0·∞ = NaN.
        assert_eq!(quant_scale(&[f32::INFINITY, 1.0]), 0.0);
        // All-NaN row: scale 0.
        assert_eq!(quant_scale(&[f32::NAN]), 0.0);
        // Extreme-but-finite scale stays finite and deterministic.
        let big = [f32::MAX, -f32::MAX / 3.0];
        let s = quant_scale(&big);
        assert!(s.is_finite() && s > 0.0);
        let r = round_through_i8(f32::MAX, s);
        assert_eq!(r.to_bits(), round_through_i8(f32::MAX, s).to_bits());
    }

    #[test]
    fn round_through_is_idempotent_on_the_grid() {
        let src: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.9).cos() * 2.5).collect();
        let scale = quant_scale(&src);
        for &v in &src {
            let once = round_through_i8(v, scale);
            // Re-rounding a grid value with the same scale is exact.
            assert_eq!(round_through_i8(once, scale).to_bits(), once.to_bits());
        }
    }
}

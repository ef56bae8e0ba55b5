//! Dense and sparsity-aware linear algebra primitives.
//!
//! Matrix multiplication here backs the im2col-lowered convolutions in
//! `reprune-nn`, and the matrix–vector product ([`matvec`] /
//! [`matvec_into`]) its fully connected layers. Three GEMM kernels
//! coexist, each modeling a different hardware behavior — pick
//! deliberately:
//!
//! * [`matmul`] / [`matmul_into`] — the production **dense** kernel: a
//!   register-tiled 4×32 micro-kernel over packed panels (AVX-512 and AVX2
//!   paths selected at runtime, with a portable autovectorizable fallback).
//!   This models what real dense SIMD/NPU datapaths do: they multiply
//!   through zeros at full speed. There is deliberately **no** per-element
//!   zero-skip branch — fine-grained value sparsity buys nothing on dense
//!   vector hardware, and the branch that used to live here pessimized the
//!   dense path while double-counting the savings the packed-sparse kernel
//!   models properly.
//! * [`matmul_rows_into`] — the **structured-sparse** kernel: given the
//!   packed live-row index form of a pruning mask (see
//!   `reprune-prune::packed`), it iterates only live output rows/channels.
//!   This models the real latency win of *structured* (channel/row)
//!   pruning: whole rows of work disappear, so time scales with density.
//! * [`matmul_naive`] — the seed repository's scalar ikj loop, kept
//!   verbatim (including its per-element zero-skip) as the equivalence
//!   oracle for property tests and as the benchmark baseline. It models a
//!   scalar in-order core that can skip individual zero multiplies — a
//!   behavior no deployed vector unit actually has.
//!
//! # Bit-exactness contract
//!
//! Every kernel accumulates each output element over `p = 0..k` in the same
//! order, using separate multiply and add (no FMA contraction). The tiled
//! kernels therefore produce **bit-identical** results to `matmul_naive` on
//! inputs free of signed-zero edge cases, and numerically identical results
//! always (`-0.0` vs `+0.0` can differ where the naive kernel's zero-skip
//! refuses to add a `0.0·b` term). Property tests in `tests/properties.rs`
//! pin this contract.
//!
//! The matvec puts rows in vector lanes (eight, on AVX2 and AVX-512
//! hosts alike): each lane adds its row's `w * v` products from `-0.0`
//! in column order, the sequential `.sum()`'s exact rounding sequence.
//! Every output that is not NaN is bit-identical to that scalar sum, and
//! NaN appears exactly where it does (NaN sign and payload are not
//! promised).
//!
//! # Inline audit
//!
//! The micro-kernels are `#[inline]`/`#[inline(always)]` so the packed
//! panel loop monomorphizes into a single branch-free inner loop in release
//! builds; the SIMD kernels carry `#[target_feature]` and are dispatched
//! once through a cached ISA probe.

use crate::{Result, Tensor, TensorError};

/// Rows per register tile of the packed micro-kernel.
const MR: usize = 4;
/// Columns per register tile of the packed micro-kernel (two 512-bit
/// vectors of f32 on the widest path).
const NR: usize = 32;

/// Reusable packing buffers for the tiled GEMM kernels.
///
/// The hot inference loop threads one `GemmScratch` through every matmul so
/// panel packing reuses the same two buffers tick after tick. The arena
/// counts buffer-growth events: after warmup, [`GemmScratch::allocation_events`]
/// must stop increasing — the no-alloc-after-warmup tests key off this.
#[derive(Debug, Default)]
pub struct GemmScratch {
    apack: Vec<f32>,
    bpack: Vec<f32>,
    alloc_events: usize,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }

    /// Number of times a packing buffer had to grow (heap allocation
    /// events). Stable after warmup on a fixed workload.
    pub fn allocation_events(&self) -> usize {
        self.alloc_events
    }

    fn reserve(&mut self, apack_len: usize, bpack_len: usize) {
        if apack_len > self.apack.capacity() || bpack_len > self.bpack.capacity() {
            self.alloc_events += 1;
        }
        self.apack.clear();
        self.apack.resize(apack_len, 0.0);
        self.bpack.clear();
        self.bpack.resize(bpack_len, 0.0);
    }
}

/// Instruction sets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ISA: OnceLock<Isa> = OnceLock::new();
        *ISA.get_or_init(|| {
            // The matvec runs its AVX2 kernel on the AVX-512 level too.
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
                Isa::Avx512
            } else if is_x86_feature_detected!("avx2") {
                Isa::Avx2
            } else {
                Isa::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Portable
    }
}

/// Name of the SIMD dispatch level the tiled kernel selected on this host
/// — `"avx512"`, `"avx2"`, or `"portable"`. Used to label benchmark
/// reports so timings are comparable across machines.
pub fn active_isa() -> &'static str {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        Isa::Portable => "portable",
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! SIMD kernels: the GEMM tiles and the rows-in-lanes matvec. All use
    //! separate multiply + add (never FMA) so the accumulation rounds
    //! exactly like the scalar reference.
    use std::arch::x86_64::*;

    use super::{MR, NR};

    /// 4×32 tile over a packed A panel (k-major, MR-wide) and B panel
    /// (k-major, NR-wide), storing to four independent row pointers.
    ///
    /// # Safety
    ///
    /// `apack` must hold `k·MR` floats, `bpack` `k·NR` floats, and each row
    /// pointer must be valid for `NR` writes. Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512(
        apack: *const f32,
        bpack: *const f32,
        k: usize,
        rows: [*mut f32; MR],
    ) {
        let mut acc00 = _mm512_setzero_ps();
        let mut acc01 = _mm512_setzero_ps();
        let mut acc10 = _mm512_setzero_ps();
        let mut acc11 = _mm512_setzero_ps();
        let mut acc20 = _mm512_setzero_ps();
        let mut acc21 = _mm512_setzero_ps();
        let mut acc30 = _mm512_setzero_ps();
        let mut acc31 = _mm512_setzero_ps();
        for p in 0..k {
            let b0 = _mm512_loadu_ps(bpack.add(p * NR));
            let b1 = _mm512_loadu_ps(bpack.add(p * NR + 16));
            let a0 = _mm512_set1_ps(*apack.add(p * MR));
            let a1 = _mm512_set1_ps(*apack.add(p * MR + 1));
            let a2 = _mm512_set1_ps(*apack.add(p * MR + 2));
            let a3 = _mm512_set1_ps(*apack.add(p * MR + 3));
            acc00 = _mm512_add_ps(acc00, _mm512_mul_ps(a0, b0));
            acc01 = _mm512_add_ps(acc01, _mm512_mul_ps(a0, b1));
            acc10 = _mm512_add_ps(acc10, _mm512_mul_ps(a1, b0));
            acc11 = _mm512_add_ps(acc11, _mm512_mul_ps(a1, b1));
            acc20 = _mm512_add_ps(acc20, _mm512_mul_ps(a2, b0));
            acc21 = _mm512_add_ps(acc21, _mm512_mul_ps(a2, b1));
            acc30 = _mm512_add_ps(acc30, _mm512_mul_ps(a3, b0));
            acc31 = _mm512_add_ps(acc31, _mm512_mul_ps(a3, b1));
        }
        _mm512_storeu_ps(rows[0], acc00);
        _mm512_storeu_ps(rows[0].add(16), acc01);
        _mm512_storeu_ps(rows[1], acc10);
        _mm512_storeu_ps(rows[1].add(16), acc11);
        _mm512_storeu_ps(rows[2], acc20);
        _mm512_storeu_ps(rows[2].add(16), acc21);
        _mm512_storeu_ps(rows[3], acc30);
        _mm512_storeu_ps(rows[3].add(16), acc31);
    }

    /// AVX2 variant of [`tile_avx512`]: same tile, four 256-bit vectors per
    /// row pair of columns.
    ///
    /// # Safety
    ///
    /// Same contract as [`tile_avx512`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_avx2(
        apack: *const f32,
        bpack: *const f32,
        k: usize,
        rows: [*mut f32; MR],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 4]; MR];
        for p in 0..k {
            let b = [
                _mm256_loadu_ps(bpack.add(p * NR)),
                _mm256_loadu_ps(bpack.add(p * NR + 8)),
                _mm256_loadu_ps(bpack.add(p * NR + 16)),
                _mm256_loadu_ps(bpack.add(p * NR + 24)),
            ];
            for (ir, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*apack.add(p * MR + ir));
                for (jv, b_vec) in b.iter().enumerate() {
                    acc_row[jv] = _mm256_add_ps(acc_row[jv], _mm256_mul_ps(av, *b_vec));
                }
            }
        }
        for (ir, acc_row) in acc.iter().enumerate() {
            for (jv, v) in acc_row.iter().enumerate() {
                _mm256_storeu_ps(rows[ir].add(jv * 8), *v);
            }
        }
    }

    /// Row pointers of one matvec lane group. The slice indexing checks
    /// that each pointer starts `k` readable floats of `a`.
    #[inline(always)]
    fn row_ptrs(a: &[f32], k: usize, rows: &[usize; 8]) -> [*const f32; 8] {
        let mut ptrs = [a.as_ptr(); 8];
        for (p, &r) in ptrs.iter_mut().zip(rows) {
            *p = a[r * k..][..k].as_ptr();
        }
        ptrs
    }

    /// Transposes an 8×8 block: lane `i` of output `j` is lane `j` of
    /// input `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let mut s = [_mm256_setzero_ps(); 8];
        for g in 0..2 {
            let lo01 = _mm256_unpacklo_ps(r[4 * g], r[4 * g + 1]);
            let hi01 = _mm256_unpackhi_ps(r[4 * g], r[4 * g + 1]);
            let lo23 = _mm256_unpacklo_ps(r[4 * g + 2], r[4 * g + 3]);
            let hi23 = _mm256_unpackhi_ps(r[4 * g + 2], r[4 * g + 3]);
            s[4 * g] = _mm256_shuffle_ps::<0x44>(lo01, lo23);
            s[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(lo01, lo23);
            s[4 * g + 2] = _mm256_shuffle_ps::<0x44>(hi01, hi23);
            s[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(hi01, hi23);
        }
        let mut out = [_mm256_setzero_ps(); 8];
        for c in 0..4 {
            out[c] = _mm256_permute2f128_ps::<0x20>(s[c], s[4 + c]);
            out[4 + c] = _mm256_permute2f128_ps::<0x31>(s[c], s[4 + c]);
        }
        out
    }

    /// Eight rows of the row-major `a` (`x.len()` columns) dotted with
    /// `x`, row `rows[i]` in lane `i`. Each lane sums its row's `w * v`
    /// products from `-0.0` in column order, with separate multiply and
    /// add, so its result has the bits of the sequential scalar sum (NaN
    /// payloads aside).
    ///
    /// AVX-512 hosts run it too: a 16-lane AVX-512 variant was at most
    /// ~10% faster on the perception CNN's dense 96×512 Linear, left the
    /// end-to-end tick unchanged, and was slower on partly live and
    /// short layers, whose last group wastes more lanes.
    ///
    /// # Panics
    ///
    /// Panics if a row lies outside `a`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec_rows_avx2(a: &[f32], x: &[f32], rows: &[usize; 8]) -> [f32; 8] {
        let k = x.len();
        let ptrs = row_ptrs(a, k, rows);
        let mut acc = _mm256_set1_ps(-0.0);
        let full = k - k % 8;
        let mut prod = [_mm256_setzero_ps(); 8];
        for p0 in (0..full).step_by(8) {
            // SAFETY (loads): p0 + 8 ≤ k, and every row pointer and `x`
            // hold k floats from their start.
            let xv = _mm256_loadu_ps(x.as_ptr().add(p0));
            for (v, &row) in prod.iter_mut().zip(&ptrs) {
                *v = _mm256_mul_ps(_mm256_loadu_ps(row.add(p0)), xv);
            }
            for col in transpose8(prod) {
                acc = _mm256_add_ps(acc, col);
            }
        }
        let tail = k - full;
        if tail > 0 {
            // Masked-off lanes are never read, so the rows' ends bound
            // these loads just as they bound the full blocks.
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), lanes);
            let xv = _mm256_maskload_ps(x.as_ptr().add(full), mask);
            for (v, &row) in prod.iter_mut().zip(&ptrs) {
                *v = _mm256_mul_ps(_mm256_maskload_ps(row.add(full), mask), xv);
            }
            // Only live columns are added: a padding +0.0 would turn a
            // -0.0 sum positive.
            for &col in &transpose8(prod)[..tail] {
                acc = _mm256_add_ps(acc, col);
            }
        }
        let mut y = [0.0f32; 8];
        _mm256_storeu_ps(y.as_mut_ptr(), acc);
        y
    }
}

/// Portable tile kernel: same packed layout, same accumulation order, plain
/// arrays the autovectorizer can widen. Handles partial tiles (`iw ≤ MR`,
/// `jw ≤ NR`) by computing into a stack tile and copying the live region.
#[inline(always)]
fn tile_portable(
    apack: &[f32],
    bpack: &[f32],
    k: usize,
    iw: usize,
    jw: usize,
    out: &mut [f32],
    row_offsets: &[usize],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let av = &apack[p * MR..p * MR + MR];
        let bv = &bpack[p * NR..p * NR + NR];
        for (acc_row, &a) in acc.iter_mut().zip(av) {
            for (c, &b) in acc_row.iter_mut().zip(bv) {
                *c += a * b;
            }
        }
    }
    for ir in 0..iw {
        let dst = &mut out[row_offsets[ir]..row_offsets[ir] + jw];
        dst.copy_from_slice(&acc[ir][..jw]);
    }
}

// The strided A-panel gather below needs explicit indices (it transposes
// MR rows into k-major order); a range loop is the clearest way to write
// it, so the pedantic lint is silenced deliberately here.
#[allow(clippy::needless_range_loop)]
#[inline]
fn pack_a_panel(a: &[f32], k: usize, row_indices: &[usize], apack: &mut [f32]) {
    let iw = row_indices.len();
    for p in 0..k {
        for ir in 0..iw {
            apack[p * MR + ir] = a[row_indices[ir] * k + p];
        }
        for ir in iw..MR {
            apack[p * MR + ir] = 0.0;
        }
    }
}

#[inline]
fn pack_b(b: &[f32], k: usize, n: usize, bpack: &mut [f32]) {
    let npanels = n.div_ceil(NR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
        for p in 0..k {
            panel[p * NR..p * NR + jw].copy_from_slice(&b[p * n + j0..p * n + j0 + jw]);
        }
    }
}

/// The raw-slice tiled GEMM engine: `out[m×n] = a[m×k] · b[k×n]`, computing
/// only the rows listed in `live_rows` when given (others are zero-filled).
///
/// `live_rows` must be strictly increasing and in range — this is the
/// packed row-index form produced from structured pruning masks. `out` is
/// fully overwritten (no accumulate).
///
/// # Panics
///
/// Panics if slice lengths disagree with `m·k`/`k·n`/`m·n` or a live row
/// index is out of range; callers (tensor wrappers, `conv2d`) validate
/// shapes first.
// Deliberate allow: this is the lowest-level engine entry and every
// argument is load-bearing (operands, their dims, the live-row plan, the
// output, the packing arena). Bundling them into a struct would force an
// allocation or a borrow-splitting dance at every call site.
#[allow(clippy::too_many_arguments)]
pub fn matmul_slices_into(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    live_rows: Option<&[u32]>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "matmul_slices_into: lhs length");
    assert_eq!(b.len(), k * n, "matmul_slices_into: rhs length");
    assert_eq!(out.len(), m * n, "matmul_slices_into: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let npanels = n.div_ceil(NR);
    scratch.reserve(k * MR, npanels * k * NR);
    // Split borrows: take the buffers out so the packers can borrow them
    // independently of `scratch`.
    let mut apack = std::mem::take(&mut scratch.apack);
    let mut bpack = std::mem::take(&mut scratch.bpack);
    pack_b(b, k, n, &mut bpack);

    if live_rows.is_some() {
        // Dead rows contribute exact zeros, matching what the dense kernel
        // computes for an all-zero (fully pruned) row.
        out.fill(0.0);
    }
    let level = isa();
    let mut rows_buf = [0usize; MR];
    let mut row_cursor = 0usize;
    loop {
        // Next group of up to MR rows to compute.
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
        pack_a_panel(a, k, &rows_buf[..iw], &mut apack);
        for jp in 0..npanels {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            let panel = &bpack[jp * k * NR..(jp + 1) * k * NR];
            if iw == MR && jw == NR {
                match level {
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 => {
                        let base = out.as_mut_ptr();
                        // SAFETY: each row index < m and j0 + NR ≤ n, so
                        // every pointer is valid for NR writes into `out`;
                        // panel/apack lengths were sized above; the ISA
                        // probe guarantees AVX-512F.
                        unsafe {
                            simd::tile_avx512(
                                apack.as_ptr(),
                                panel.as_ptr(),
                                k,
                                [
                                    base.add(rows_buf[0] * n + j0),
                                    base.add(rows_buf[1] * n + j0),
                                    base.add(rows_buf[2] * n + j0),
                                    base.add(rows_buf[3] * n + j0),
                                ],
                            );
                        }
                    }
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 => {
                        let base = out.as_mut_ptr();
                        // SAFETY: as above; the ISA probe guarantees AVX2.
                        unsafe {
                            simd::tile_avx2(
                                apack.as_ptr(),
                                panel.as_ptr(),
                                k,
                                [
                                    base.add(rows_buf[0] * n + j0),
                                    base.add(rows_buf[1] * n + j0),
                                    base.add(rows_buf[2] * n + j0),
                                    base.add(rows_buf[3] * n + j0),
                                ],
                            );
                        }
                    }
                    Isa::Portable => {
                        let offs = [
                            rows_buf[0] * n + j0,
                            rows_buf[1] * n + j0,
                            rows_buf[2] * n + j0,
                            rows_buf[3] * n + j0,
                        ];
                        tile_portable(&apack, panel, k, MR, NR, out, &offs);
                    }
                }
            } else {
                let mut offs = [0usize; MR];
                for (o, &r) in offs.iter_mut().zip(&rows_buf[..iw]) {
                    *o = r * n + j0;
                }
                tile_portable(&apack, panel, k, iw, jw, out, &offs[..iw]);
            }
        }
    }
    scratch.apack = apack;
    scratch.bpack = bpack;
}

fn require_matrix<'t>(t: &'t Tensor, op: &'static str) -> Result<(&'t Tensor, usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
            op,
        });
    }
    Ok((t, t.shape().dim(0), t.shape().dim(1)))
}

fn check_matmul_shapes(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    let (a, m, k) = require_matrix(a, "matmul")?;
    let (b, k2, n) = require_matrix(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Multiplies two matrices: `(m×k) · (k×n) → (m×n)` with the tiled kernel.
///
/// Allocates the output and temporary packing buffers; the hot loop should
/// call [`matmul_into`] with a reused [`GemmScratch`] instead.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
/// or [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use reprune_tensor::{Tensor, linalg};
///
/// # fn main() -> Result<(), reprune_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = linalg::matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    let mut scratch = GemmScratch::new();
    matmul_slices_into(a.data(), m, k, b.data(), n, None, out.data_mut(), &mut scratch);
    Ok(out)
}

/// Tiled matmul writing into a caller-provided output tensor, reusing the
/// scratch packing buffers. `out` is reshaped in place to `(m×n)`; after
/// warmup neither the output nor the scratch allocates.
///
/// # Errors
///
/// Same shape errors as [`matmul`].
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<()> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    out.reuse_as(&[m, n]);
    matmul_slices_into(a.data(), m, k, b.data(), n, None, out.data_mut(), scratch);
    Ok(())
}

/// Structured-sparse matmul: computes only the output rows listed in
/// `live_rows` (strictly increasing indices into `0..m`), zero-filling the
/// pruned rows. Numerically identical to the dense kernel applied to a
/// matrix whose dead rows are all zero.
///
/// # Errors
///
/// Same shape errors as [`matmul`].
///
/// # Panics
///
/// Panics if a live row index is out of range.
pub fn matmul_rows_into(
    a: &Tensor,
    b: &Tensor,
    live_rows: &[u32],
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<()> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    out.reuse_as(&[m, n]);
    matmul_slices_into(
        a.data(),
        m,
        k,
        b.data(),
        n,
        Some(live_rows),
        out.data_mut(),
        scratch,
    );
    Ok(())
}

/// The seed repository's scalar ikj kernel, kept verbatim as the
/// equivalence oracle and benchmark baseline (see the module docs for what
/// each kernel models).
///
/// # Errors
///
/// Same shape errors as [`matmul`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let o_row = &mut od[i * n..(i + 1) * n];
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                // The historical "zero-skip" — models a scalar core that
                // elides individual zero multiplies. Kept only here.
                continue;
            }
            let b_row = &bd[p * n..(p + 1) * n];
            for (o, &bpj) in o_row.iter_mut().zip(b_row) {
                *o += aip * bpj;
            }
        }
    }
    Ok(out)
}

fn check_matvec_shapes(a: &Tensor, x: &Tensor) -> Result<(usize, usize)> {
    let (a, m, k) = require_matrix(a, "matvec")?;
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: x.shape().rank(),
            op: "matvec",
        });
    }
    if x.len() != k {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
            op: "matvec",
        });
    }
    Ok((m, k))
}

/// Multiplies a matrix by a vector: `(m×k) · (k) → (m)`.
///
/// Each output is its row's dot product summed sequentially from `-0.0`
/// in column order, computed 8 rows at a time on AVX2 and AVX-512 hosts
/// (one row per vector lane) and one at a time on portable hosts. Every
/// path gives the same bits except in NaN payloads, so the arena and
/// allocating forward paths agree.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `a` is not rank 2 or `x` is not
/// rank 1, or [`TensorError::ShapeMismatch`] on inner-dimension mismatch.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, _) = check_matvec_shapes(a, x)?;
    let mut out = Tensor::zeros(&[m]);
    matvec_slices(a.data(), x.data(), None, out.data_mut());
    Ok(out)
}

/// Matrix–vector product into a reused output tensor, computing only
/// `live_rows` when given (pruned rows are zero-filled).
///
/// # Errors
///
/// Same shape errors as [`matvec`].
///
/// # Panics
///
/// Panics if a live row index is out of range.
pub fn matvec_into(
    a: &Tensor,
    x: &Tensor,
    live_rows: Option<&[u32]>,
    out: &mut Tensor,
) -> Result<()> {
    let (m, _) = check_matvec_shapes(a, x)?;
    out.reuse_as(&[m]);
    matvec_slices(a.data(), x.data(), live_rows, out.data_mut());
    Ok(())
}

#[inline]
fn matvec_slices(a: &[f32], x: &[f32], live_rows: Option<&[u32]>, out: &mut [f32]) {
    // SAFETY: `isa()` names a level this host supports.
    unsafe { matvec_slices_at(isa(), a, x, live_rows, out) }
}

/// [`matvec_slices`] on the kernel `level` names.
///
/// # Safety
///
/// The host must support `level`'s instruction set.
unsafe fn matvec_slices_at(
    level: Isa,
    a: &[f32],
    x: &[f32],
    live_rows: Option<&[u32]>,
    out: &mut [f32],
) {
    let k = x.len();
    assert_eq!(a.len(), out.len() * k, "matvec: lhs length");
    match level {
        // SAFETY: the caller vouches for the level, and `isa` picks
        // `Avx512` only on hosts that also have AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 | Isa::Avx2 => lane_groups(live_rows, out, |rows: &[usize; 8]| unsafe {
            simd::matvec_rows_avx2(a, x, rows)
        }),
        Isa::Portable => {
            let dot = |row: usize| -> f32 {
                a[row * k..(row + 1) * k]
                    .iter()
                    .zip(x)
                    .map(|(&w, &v)| w * v)
                    .sum()
            };
            lane_groups(live_rows, out, |&[row]: &[usize; 1]| [dot(row)]);
        }
    }
}

/// Fills `out` from `kernel`, which computes `R` rows at once: the live
/// rows in groups of `R` when given (the other rows become `0.0`), else
/// every row. A short last group repeats its first row in the unused
/// lanes, whose results are dropped.
///
/// # Panics
///
/// Panics if a live row index is out of range.
#[inline(always)]
fn lane_groups<const R: usize>(
    live_rows: Option<&[u32]>,
    out: &mut [f32],
    mut kernel: impl FnMut(&[usize; R]) -> [f32; R],
) {
    let m = out.len();
    match live_rows {
        None => {
            for (g, dst) in out.chunks_mut(R).enumerate() {
                let rows = std::array::from_fn(|i| g * R + if i < dst.len() { i } else { 0 });
                dst.copy_from_slice(&kernel(&rows)[..dst.len()]);
            }
        }
        Some(live) => {
            out.fill(0.0);
            for group in live.chunks(R) {
                let rows = std::array::from_fn(|i| *group.get(i).unwrap_or(&group[0]) as usize);
                for &r in &rows {
                    assert!(r < m, "live row {r} out of range for {m} rows");
                }
                for (&r, y) in rows.iter().zip(kernel(&rows)).take(group.len()) {
                    out[r] = y;
                }
            }
        }
    }
}

/// Outer product of two vectors: `(m) ⊗ (n) → (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 1.
pub fn outer(x: &Tensor, y: &Tensor) -> Result<Tensor> {
    for (t, name) in [(x, "outer lhs"), (y, "outer rhs")] {
        if t.shape().rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: t.shape().rank(),
                op: if name.ends_with("lhs") { "outer(lhs)" } else { "outer(rhs)" },
            });
        }
    }
    let (m, n) = (x.len(), y.len());
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    for (i, &xi) in x.data().iter().enumerate() {
        for (j, &yj) in y.data().iter().enumerate() {
            od[i * n + j] = xi * yj;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap().data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 5]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 5]);
        assert!(c.data().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_matches_naive_across_edge_shapes() {
        // Shapes straddling every tile-edge case: m, n, k not multiples of
        // the 4×32 tile, single rows/cols, and k spanning panels.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 4, 32),
            (5, 7, 33),
            (3, 70, 2),
            (17, 13, 40),
            (8, 1, 64),
            (9, 33, 31),
        ] {
            let a = Tensor::from_vec((0..m * k).map(|v| (v as f32).sin()).collect(), &[m, k])
                .unwrap();
            let b = Tensor::from_vec((0..k * n).map(|v| (v as f32).cos()).collect(), &[k, n])
                .unwrap();
            let tiled = matmul(&a, &b).unwrap();
            let naive = matmul_naive(&a, &b).unwrap();
            assert_eq!(tiled.data(), naive.data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_reuses_buffers() {
        let a = Tensor::ones(&[8, 8]);
        let b = Tensor::eye(8);
        let mut out = Tensor::zeros(&[1]);
        let mut scratch = GemmScratch::new();
        matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        assert_eq!(out.dims(), &[8, 8]);
        assert_eq!(out, a);
        let events_after_warmup = scratch.allocation_events();
        for _ in 0..5 {
            matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        }
        assert_eq!(scratch.allocation_events(), events_after_warmup);
    }

    #[test]
    fn matmul_rows_computes_only_live_rows() {
        let m = 6;
        let a = Tensor::from_vec((0..m * 4).map(|v| v as f32 * 0.25).collect(), &[m, 4]).unwrap();
        let b = Tensor::from_vec((0..4 * 5).map(|v| (v as f32).sin()).collect(), &[4, 5]).unwrap();
        let dense = matmul(&a, &b).unwrap();
        let live = [0u32, 2, 5];
        let mut sparse = Tensor::zeros(&[1]);
        let mut scratch = GemmScratch::new();
        matmul_rows_into(&a, &b, &live, &mut sparse, &mut scratch).unwrap();
        assert_eq!(sparse.dims(), dense.dims());
        for r in 0..m {
            let row = &sparse.data()[r * 5..(r + 1) * 5];
            if live.contains(&(r as u32)) {
                assert_eq!(row, &dense.data()[r * 5..(r + 1) * 5], "live row {r}");
            } else {
                assert!(row.iter().all(|&v| v == 0.0), "dead row {r} must be zero");
            }
        }
    }

    #[test]
    fn matmul_rows_empty_live_set_zeroes_output() {
        let a = Tensor::ones(&[3, 3]);
        let b = Tensor::ones(&[3, 3]);
        let mut out = Tensor::zeros(&[1]);
        let mut scratch = GemmScratch::new();
        matmul_rows_into(&a, &b, &[], &mut out, &mut scratch).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        assert_eq!(matvec(&a, &x).unwrap().data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let x = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], &[4]).unwrap();
        let via_mm = matmul(&a, &x.reshape(&[4, 1]).unwrap()).unwrap();
        let via_mv = matvec(&a, &x).unwrap();
        assert_eq!(via_mm.data(), via_mv.data());
    }

    #[test]
    fn matvec_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(matvec(&a, &Tensor::zeros(&[2])).is_err());
        assert!(matvec(&a, &Tensor::zeros(&[3, 1])).is_err());
    }

    #[test]
    fn matvec_into_with_live_rows() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let dense = matvec(&a, &x).unwrap();
        let mut out = Tensor::zeros(&[1]);
        matvec_into(&a, &x, Some(&[1, 3]), &mut out).unwrap();
        assert_eq!(out.data()[1], dense.data()[1]);
        assert_eq!(out.data()[3], dense.data()[3]);
        assert_eq!(out.data()[0], 0.0);
        assert_eq!(out.data()[2], 0.0);
    }

    #[test]
    fn outer_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = outer(&x, &y).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn outer_rejects_matrices() {
        assert!(outer(&Tensor::zeros(&[2, 2]), &Tensor::zeros(&[2])).is_err());
        assert!(outer(&Tensor::zeros(&[2]), &Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5], &[2, 2]).unwrap();
        let c = Tensor::from_vec(vec![1.0, 0.0, -1.0, 1.0], &[2, 2]).unwrap();
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-4));
    }

    #[test]
    fn packed_column_gemm_matches_per_lane_matvec() {
        // An output column depends only on its own rhs column: vectors
        // stacked as the columns of one rhs reproduce each vector's
        // matvec bit-for-bit.
        let a = Tensor::from_vec((0..35).map(|v| (v as f32).sin()).collect(), &[5, 7]).unwrap();
        let x0 = Tensor::from_vec((0..7).map(|v| (v as f32).cos()).collect(), &[7]).unwrap();
        let x1 = Tensor::from_vec((0..7).map(|v| 0.1 * v as f32 - 0.3).collect(), &[7]).unwrap();
        let packed: Vec<f32> = x0
            .data()
            .iter()
            .zip(x1.data())
            .flat_map(|(&u, &v)| [u, v])
            .collect();
        let mut fused = vec![0.0f32; 5 * 2];
        let mut scratch = GemmScratch::new();
        matmul_slices_into(a.data(), 5, 7, &packed, 2, None, &mut fused, &mut scratch);
        let y0 = matvec(&a, &x0).unwrap();
        let y1 = matvec(&a, &x1).unwrap();
        for r in 0..5 {
            assert_eq!(fused[r * 2].to_bits(), y0.data()[r].to_bits(), "lane 0 row {r}");
            assert_eq!(fused[r * 2 + 1].to_bits(), y1.data()[r].to_bits(), "lane 1 row {r}");
        }
    }

    #[test]
    fn packed_block_gemm_matches_per_lane_gemm_with_live_rows() {
        let m = 6;
        let k = 5;
        let n = 4;
        let a: Vec<f32> = (0..m * k).map(|v| (v as f32 * 0.7).sin()).collect();
        let b0: Vec<f32> = (0..k * n).map(|v| (v as f32 * 0.3).cos()).collect();
        let b1: Vec<f32> = (0..k * n).map(|v| 0.05 * v as f32 - 1.0).collect();
        let live = [0u32, 2, 5];
        let mut scratch = GemmScratch::new();
        let mut lane0 = vec![0.0f32; m * n];
        let mut lane1 = vec![0.0f32; m * n];
        matmul_slices_into(&a, m, k, &b0, n, Some(&live), &mut lane0, &mut scratch);
        matmul_slices_into(&a, m, k, &b1, n, Some(&live), &mut lane1, &mut scratch);
        // Row p of the rhs is row p of b0 followed by row p of b1.
        let packed: Vec<f32> = (0..k)
            .flat_map(|p| b0[p * n..(p + 1) * n].iter().chain(&b1[p * n..(p + 1) * n]))
            .copied()
            .collect();
        let mut fused = vec![0.0f32; m * 2 * n];
        matmul_slices_into(&a, m, k, &packed, 2 * n, Some(&live), &mut fused, &mut scratch);
        for r in 0..m {
            for j in 0..n {
                assert_eq!(
                    fused[r * 2 * n + j].to_bits(),
                    lane0[r * n + j].to_bits(),
                    "lane 0 ({r},{j})"
                );
                assert_eq!(
                    fused[r * 2 * n + n + j].to_bits(),
                    lane1[r * n + j].to_bits(),
                    "lane 1 ({r},{j})"
                );
            }
        }
    }

    /// Every f32 matvec kernel this host can run: the scalar sum, and
    /// the eight-lane kernel (which the AVX-512 level runs too).
    fn host_levels() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut levels = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            levels.push(Isa::Avx2);
        }
        levels
    }

    #[test]
    fn every_host_matvec_kernel_matches_the_scalar_dot() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e30,
            -1e30,
            f32::from_bits(1),
            f32::from_bits(0x8000_0003),
        ];
        // Row counts around the lane width and its multiples; k across
        // full blocks and every tail length class.
        let shapes = [
            (0, 5),
            (1, 0),
            (3, 1),
            (7, 7),
            (8, 8),
            (9, 15),
            (16, 16),
            (17, 17),
            (33, 47),
            (40, 70),
        ];
        for &(m, k) in &shapes {
            for special_every in [0usize, 3, 13] {
                let val = |i: usize, salt: f32| {
                    if special_every > 0 && i.is_multiple_of(special_every) {
                        specials[(i / special_every) % specials.len()]
                    } else {
                        (i as f32 * salt).sin()
                    }
                };
                let a: Vec<f32> = (0..m * k).map(|i| val(i, 0.37)).collect();
                let x: Vec<f32> = (0..k).map(|i| val(i + 1, 1.3)).collect();
                let live: Vec<u32> = (0..m as u32).filter(|r| r % 3 != 1).collect();
                for plan in [None, Some(&live[..]), Some(&[][..])] {
                    let mut want = vec![0.0f32; m];
                    // SAFETY: every host runs the portable kernel.
                    unsafe { matvec_slices_at(Isa::Portable, &a, &x, plan, &mut want) };
                    for level in host_levels() {
                        let mut got = vec![f32::NAN; m];
                        // SAFETY: `host_levels` lists only supported levels.
                        unsafe { matvec_slices_at(level, &a, &x, plan, &mut got) };
                        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                            if w.is_nan() {
                                assert!(g.is_nan(), "{level:?} {m}x{k} row {r}: {g} for NaN");
                            } else {
                                assert_eq!(g.to_bits(), w.to_bits(), "{level:?} {m}x{k} row {r}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn negative_zero_sums_keep_their_sign_on_every_kernel() {
        // `-0.0 * 1.0` products sum to -0.0 from the -0.0 start, at every
        // k including the empty sum.
        for k in [0usize, 1, 5, 8, 16, 23] {
            let a = vec![-0.0f32; 17 * k];
            let x = vec![1.0f32; k];
            for level in host_levels() {
                let mut out = vec![1.0f32; 17];
                // SAFETY: `host_levels` lists only supported levels.
                unsafe { matvec_slices_at(level, &a, &x, None, &mut out) };
                assert!(out.iter().all(|v| v.to_bits() == 0x8000_0000), "{level:?} k={k}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_tiles_match_the_portable_tile() {
        let k = 19;
        let apack: Vec<f32> = (0..k * MR).map(|i| (i as f32 * 0.7).sin()).collect();
        let bpack: Vec<f32> = (0..k * NR).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut want = vec![0.0f32; MR * NR];
        tile_portable(&apack, &bpack, k, MR, NR, &mut want, &[0, NR, 2 * NR, 3 * NR]);
        let run = |tile: unsafe fn(*const f32, *const f32, usize, [*mut f32; MR])| {
            let mut got = vec![f32::NAN; MR * NR];
            let p = got.as_mut_ptr();
            // SAFETY: the panels hold k·MR and k·NR floats, each row
            // pointer starts NR floats of `got`, and the caller probed
            // the tile's ISA.
            unsafe {
                tile(
                    apack.as_ptr(),
                    bpack.as_ptr(),
                    k,
                    [p, p.add(NR), p.add(2 * NR), p.add(3 * NR)],
                )
            };
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        if is_x86_feature_detected!("avx512f") {
            assert_eq!(run(simd::tile_avx512), want, "tile_avx512");
        }
        if is_x86_feature_detected!("avx2") {
            assert_eq!(run(simd::tile_avx2), want, "tile_avx2");
        }
    }

    #[test]
    fn naive_zero_rows_stay_zero() {
        // The historical behavior the naive oracle preserves.
        let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(matmul_naive(&a, &b).unwrap().data(), &[2.0, 2.0, 0.0, 0.0]);
        // And the tiled kernel agrees numerically.
        assert_eq!(matmul(&a, &b).unwrap().data(), &[2.0, 2.0, 0.0, 0.0]);
    }
}

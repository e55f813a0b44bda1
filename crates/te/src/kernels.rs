//! Monomorphized native kernel tier: fixed-stride inner loops under the
//! bytecode VM.
//!
//! The compiled evaluator (the private `vm` module) executes every TE body
//! through scalar per-element dispatch — fast relative to the tree-walking
//! interpreter, but far from what the hardware can do. This module adds a
//! third evaluator tier between the two: at compile time, `select`
//! pattern-matches each compiled piece (using the body classification the
//! compiler already performs plus the strength-reduced stride tables)
//! and, when the strides are compile-time constant and unit (or zero)
//! along the axes that matter, pins a monomorphized fixed-stride Rust
//! inner loop to the piece. The VM dispatches to it instead of the
//! bytecode loop; everything else falls back to the bytecode path, with
//! the reason recorded for the `kernels.fallback.*` trace counters.
//!
//! # Pieces
//!
//! Selection is per *piece* ([`crate::compile`]): a TE whose guards cut
//! its output box — a horizontal-fusion group — is compiled once per
//! piece, on which the guard is gone and every access is affine and
//! provably in bounds, so each member selects the kernel it would select
//! on its own (`row_dot` for the QKV GEMMs, `copy_rows` for the head
//! reshapes). The VM walks a chunk's flat range as runs inside one piece
//! each and hands every run to its piece's kernel at the piece-local
//! position, so a kernel only ever sees an ordinary box. [`KernelStats`]
//! counts one dispatch per piece.
//!
//! # Supported shapes
//!
//! - **`copy_rows`** — a lone in-bounds affine load with unit (or zero)
//!   stride along the innermost output axis: whole rows become
//!   `copy_from_slice` (or a broadcast `fill`).
//! - **`ew_tile`** — straight-line element-wise bodies (no reduction, no
//!   `Select`, no generic access, no index values) whose affine accesses
//!   are all unit- or zero-stride along the innermost axis: the bytecode
//!   runs over register *tiles* of `TILE` lanes, so instruction dispatch
//!   amortizes 16× and the per-instruction lane loops autovectorize.
//! - **`row_dot`** — the matmul body `sum_k a[..,k] * b[k, j]` where the
//!   left factor does not vary along the innermost output axis and the
//!   right factor is unit-stride along it: an accumulator tile over the
//!   output row, updated k-outer/j-inner so the compiler keeps lanes in
//!   registers. Over one reduction axis, or two: a strip-mined reduction
//!   `[E/k, k]` (the post-fusion attention projection) runs its outer k
//!   loop over the operand bases and its inner k loop as before, both
//!   ascending, which is the bytecode odometer's order.
//! - **`slice_dot`** — inner products where both factors are unit-stride
//!   along the reduction axis (attention's `Q·Kᵀ` rows): bounds-check-free
//!   slice iteration with a single sequential accumulator.
//! - **`slice_reduce`** — single-operand reductions (softmax row max/sum,
//!   layernorm moments) with unit reduction stride: a sequential fold over
//!   a contiguous slice.
//!
//! # Bit-identity contract
//!
//! Every kernel performs, for each output element, exactly the float
//! operations of the bytecode in exactly the same order — in particular
//! the reduction combine order is untouched. Kernels may interleave work
//! *across* elements (that is where the SIMD lanes come from), which
//! cannot change any result bit because elements are computed
//! independently from pure loads. The one opt-out is
//! `ExecOpts::fast_math` (set from [`crate::RuntimeOptions::fast_math`]),
//! which relaxes the *reduction order* of `Sum` dots into multi-lane
//! partial accumulators; it changes float results, is off by default, and
//! is excluded from every differential oracle.
//!
//! Selection is total and static, so per-evaluation dispatch counts are
//! deterministic; the runtime aggregates them into [`KernelStats`] and the
//! trace spine exposes them as `kernels.*` counters.

use crate::compile::{AffineAccess, BodyKind, Instr, Piece};
use crate::te::ReduceOp;

/// Environment variable overriding the kernel-tier mode: `on`/`1`/`true`
/// forces the specialized tier, `off`/`0`/`false` forces pure bytecode.
/// Unset (or unparseable) means auto, which is on. An explicit
/// [`crate::RuntimeOptions::kernel_tier`] beats the environment.
pub const KERNEL_TIER_ENV: &str = "SOUFFLE_KERNEL_TIER";

/// Lanes per register tile in the element-wise kernel: one cache line of
/// f32, four SSE (two AVX) vectors, small enough that a register file of
/// tiles stays cache-resident.
const TILE: usize = 16;

/// Accumulator lanes for the `fast_math` relaxed-order dot product.
const FAST_LANES: usize = 8;

/// Below this many body evaluations (output points × reduction points) a
/// TE stays on plain bytecode: per-chunk kernel setup (scratch allocation,
/// segment bookkeeping) dominates tiny launches, which is what made MMoE's
/// tiny TEs (≤32 points: 4-wide expert GEMMs, 3-wide gates) *slower*
/// under the tier — the 0.91× regression. The measured crossover sits
/// between MMoE's 32-point bodies and LSTM's 256-point gate gemvs
/// (`[4h=32] · reduce 8`), which win 1.37× as `slice_dot`: the cutoff is
/// strict, so 256-point TEs keep their kernels and only genuinely
/// dispatch-dominated bodies fall back.
pub(crate) const SMALL_TE_POINTS: i64 = 256;

/// Per-evaluation execution switches, resolved once by the runtime and
/// threaded into every `run_chunk` call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOpts {
    /// Dispatch to the specialized kernel tier where one was selected.
    pub kernels: bool,
    /// Relax `Sum` reduction order in dot kernels (multi-lane partial
    /// accumulators). Changes float results; never set by default.
    pub fast_math: bool,
}

/// Why a TE body stayed on the bytecode path. Stable names feed the
/// `kernels.fallback.*` trace counters and `Souffle::report()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The body performs a generic (checked, possibly non-affine) access.
    GenericAccess,
    /// The body contains `Select` control flow (guarded padding).
    ControlFlow,
    /// The body materializes an index value per element.
    IndexValue,
    /// Rank-0 output with no reduction: nothing to vectorize over.
    ScalarOutput,
    /// An access stride along the relevant axis is neither 0 nor 1.
    Strided,
    /// More than one reduction axis (conv2d's `c·kh·kw` odometer).
    MultiAxisReduce,
    /// A reduction whose body is general bytecode, not a recognized load
    /// or product.
    ReducedBody,
    /// Too few body evaluations to amortize kernel setup; plain bytecode
    /// dispatch is faster (see `SMALL_TE_POINTS`).
    SmallTe,
}

impl FallbackReason {
    /// Every reason, in counter order ([`KernelStats::fallback`] indexes
    /// by this).
    pub const ALL: [FallbackReason; 8] = [
        FallbackReason::GenericAccess,
        FallbackReason::ControlFlow,
        FallbackReason::IndexValue,
        FallbackReason::ScalarOutput,
        FallbackReason::Strided,
        FallbackReason::MultiAxisReduce,
        FallbackReason::ReducedBody,
        FallbackReason::SmallTe,
    ];

    /// Stable snake_case name, used as the counter suffix.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::GenericAccess => "generic_access",
            FallbackReason::ControlFlow => "control_flow",
            FallbackReason::IndexValue => "index_value",
            FallbackReason::ScalarOutput => "scalar_output",
            FallbackReason::Strided => "strided",
            FallbackReason::MultiAxisReduce => "multi_axis_reduce",
            FallbackReason::ReducedBody => "reduced_body",
            FallbackReason::SmallTe => "small_te",
        }
    }

    fn index(self) -> usize {
        FallbackReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("reason listed in ALL")
    }
}

/// The kernel selected for one piece of a TE at compile time (stored on
/// its [`Piece`]). Selection is static: the same piece always dispatches
/// the same way, which keeps dispatch counters deterministic and lets the
/// differential suites force the tier on or off without recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelSel {
    /// Row-wise copy (`broadcast: false`) or broadcast fill
    /// (`broadcast: true`) of a single affine access.
    CopyRows { access: usize, broadcast: bool },
    /// Element-wise bytecode over register tiles of [`TILE`] lanes.
    EwTile,
    /// `sum_k a · b[.., j]`: accumulator tile over the output row.
    RowDot { a: usize, b: usize },
    /// Inner product over two unit-stride reduction slices.
    SliceDot { a: usize, b: usize },
    /// Single-operand fold over a unit-stride reduction slice.
    SliceReduce { access: usize },
    /// No specialization: run the bytecode VM path.
    Fallback(FallbackReason),
}

impl KernelSel {
    /// Stable snake_case kernel name ("bytecode" for fallbacks).
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelSel::CopyRows { .. } => "copy_rows",
            KernelSel::EwTile => "ew_tile",
            KernelSel::RowDot { .. } => "row_dot",
            KernelSel::SliceDot { .. } => "slice_dot",
            KernelSel::SliceReduce { .. } => "slice_reduce",
            KernelSel::Fallback(_) => "bytecode",
        }
    }
}

/// Picks the kernel for one compiled piece. Called once per piece at
/// compile time; the predicate only consults compile-time constants (body
/// classification, stride tables, reduction extents), never data.
pub(crate) fn select(piece: &Piece) -> KernelSel {
    let points = piece.out_shape.numel().max(1) * piece.reduce.iter().product::<i64>().max(1);
    if points < SMALL_TE_POINTS {
        return KernelSel::Fallback(FallbackReason::SmallTe);
    }
    if !piece.folds.is_empty() {
        // Fusion-produced inline reductions carry per-slice state the
        // stateless kernels cannot express; the VM's fold cache handles
        // them well on the bytecode path.
        return KernelSel::Fallback(FallbackReason::ReducedBody);
    }
    match *piece.reduce.as_slice() {
        [] => select_map(piece),
        [_] => select_single_reduce(piece),
        [_, inner] => select_two_axis_reduce(piece, inner),
        _ => KernelSel::Fallback(FallbackReason::MultiAxisReduce),
    }
}

/// Selection for map-style (no-reduction) bodies.
fn select_map(piece: &Piece) -> KernelSel {
    let rank = piece.out_shape.rank();
    if rank == 0 {
        return KernelSel::Fallback(FallbackReason::ScalarOutput);
    }
    let last = rank - 1;
    if let BodyKind::AffineLoad { access } = piece.kind {
        return match piece.affine[access].coeffs[last] {
            1 => KernelSel::CopyRows {
                access,
                broadcast: false,
            },
            0 => KernelSel::CopyRows {
                access,
                broadcast: true,
            },
            _ => KernelSel::Fallback(FallbackReason::Strided),
        };
    }
    // Element-wise tile: straight-line bytecode (first disqualifying
    // instruction in code order decides the reported reason) over accesses
    // that are row-uniform (stride 0) or row-contiguous (stride 1).
    for instr in &piece.code {
        match instr {
            Instr::LoadGeneric { .. } => return KernelSel::Fallback(FallbackReason::GenericAccess),
            Instr::JumpIfNot { .. } | Instr::Jump { .. } => {
                return KernelSel::Fallback(FallbackReason::ControlFlow)
            }
            Instr::Index { .. } => return KernelSel::Fallback(FallbackReason::IndexValue),
            Instr::Fold { .. } => return KernelSel::Fallback(FallbackReason::ReducedBody),
            Instr::Const { .. }
            | Instr::LoadAffine { .. }
            | Instr::Unary { .. }
            | Instr::Binary { .. } => {}
        }
    }
    if piece
        .affine
        .iter()
        .any(|a| !matches!(a.coeffs[last], 0 | 1))
    {
        return KernelSel::Fallback(FallbackReason::Strided);
    }
    KernelSel::EwTile
}

/// `row_dot` when the left factor of `a · b` is constant along the
/// innermost output axis and the right factor is unit-stride along it.
fn select_row_dot(piece: &Piece, a: usize, b: usize) -> Option<KernelSel> {
    let last = piece.out_shape.rank().checked_sub(1)?;
    (piece.affine[a].coeffs[last] == 0 && piece.affine[b].coeffs[last] == 1)
        .then_some(KernelSel::RowDot { a, b })
}

/// Selection for single-axis reductions.
fn select_single_reduce(piece: &Piece) -> KernelSel {
    let kv = piece.n_vars - 1; // the lone reduction variable
    match piece.kind {
        BodyKind::MulAffine { a, b } => {
            if let Some(sel) = select_row_dot(piece, a, b) {
                return sel;
            }
            if piece.affine[a].coeffs[kv] == 1 && piece.affine[b].coeffs[kv] == 1 {
                return KernelSel::SliceDot { a, b };
            }
            KernelSel::Fallback(FallbackReason::Strided)
        }
        BodyKind::AffineLoad { access } => {
            if piece.affine[access].coeffs[kv] == 1 {
                KernelSel::SliceReduce { access }
            } else {
                KernelSel::Fallback(FallbackReason::Strided)
            }
        }
        BodyKind::Generic => KernelSel::Fallback(FallbackReason::ReducedBody),
    }
}

/// Selection for two-axis reductions. First, those whose combined slice
/// is contiguous: unit stride along the inner reduction axis and a stride
/// along the outer axis equal to the inner extent mean the `outer × inner`
/// region is one flat slice, and the odometer's lexicographic (outer,
/// inner) combine order is exactly ascending-address order — so the
/// sequential slice fold is bit-identical to the bytecode. This catches
/// pooling-style `[h, w]` reductions. Then `row_dot` products, whose
/// segment kernel runs both k loops in the odometer's order: this is what
/// a strip-mined reduction (`[E/k, k]`, the post-fusion attention
/// projection) selects.
fn select_two_axis_reduce(piece: &Piece, inner: i64) -> KernelSel {
    let kv_in = piece.n_vars - 1;
    let kv_out = piece.n_vars - 2;
    let contiguous = |a: &AffineAccess| a.coeffs[kv_in] == 1 && a.coeffs[kv_out] == inner;
    match piece.kind {
        BodyKind::AffineLoad { access } => {
            if contiguous(&piece.affine[access]) {
                KernelSel::SliceReduce { access }
            } else {
                KernelSel::Fallback(FallbackReason::MultiAxisReduce)
            }
        }
        BodyKind::MulAffine { a, b } => {
            if contiguous(&piece.affine[a]) && contiguous(&piece.affine[b]) {
                KernelSel::SliceDot { a, b }
            } else {
                select_row_dot(piece, a, b)
                    .unwrap_or(KernelSel::Fallback(FallbackReason::MultiAxisReduce))
            }
        }
        BodyKind::Generic => KernelSel::Fallback(FallbackReason::ReducedBody),
    }
}

/// Per-kernel dispatch counters, aggregated by the runtime per
/// evaluation (one count per TE executed, deterministic because selection
/// is static). Exposed on [`crate::RuntimeStats`] and, through the trace
/// spine, as `kernels.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Row copy / broadcast-fill dispatches.
    pub copy_rows: u64,
    /// Element-wise tile dispatches.
    pub ew_tile: u64,
    /// Row-accumulator inner-product dispatches.
    pub row_dot: u64,
    /// Slice-pair inner-product dispatches.
    pub slice_dot: u64,
    /// Slice-fold reduction dispatches.
    pub slice_reduce: u64,
    /// Bytecode fallbacks, indexed by [`FallbackReason::ALL`].
    pub fallback: [u64; FallbackReason::ALL.len()],
}

impl KernelStats {
    pub(crate) fn record(&mut self, sel: KernelSel) {
        match sel {
            KernelSel::CopyRows { .. } => self.copy_rows += 1,
            KernelSel::EwTile => self.ew_tile += 1,
            KernelSel::RowDot { .. } => self.row_dot += 1,
            KernelSel::SliceDot { .. } => self.slice_dot += 1,
            KernelSel::SliceReduce { .. } => self.slice_reduce += 1,
            KernelSel::Fallback(r) => self.fallback[r.index()] += 1,
        }
    }

    /// Dispatches that ran a specialized kernel.
    pub fn specialized(&self) -> u64 {
        self.copy_rows + self.ew_tile + self.row_dot + self.slice_dot + self.slice_reduce
    }

    /// Dispatches that fell back to the bytecode path.
    pub fn bytecode(&self) -> u64 {
        self.fallback.iter().sum()
    }

    /// Folds another window of counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.copy_rows += other.copy_rows;
        self.ew_tile += other.ew_tile;
        self.row_dot += other.row_dot;
        self.slice_dot += other.slice_dot;
        self.slice_reduce += other.slice_reduce;
        for (a, b) in self.fallback.iter_mut().zip(&other.fallback) {
            *a += b;
        }
    }

    /// The stable `kernels.*` counter set for the trace spine: one entry
    /// per kernel, the bytecode total, and one entry per fallback reason.
    /// Zero-valued entries are included; the tracer drops them.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("kernels.copy_rows", self.copy_rows),
            ("kernels.ew_tile", self.ew_tile),
            ("kernels.row_dot", self.row_dot),
            ("kernels.slice_dot", self.slice_dot),
            ("kernels.slice_reduce", self.slice_reduce),
            ("kernels.bytecode", self.bytecode()),
        ];
        for (r, &n) in FallbackReason::ALL.iter().zip(&self.fallback) {
            out.push((fallback_counter_name(*r), n));
        }
        out
    }
}

/// The interned `kernels.fallback.<reason>` counter name for a reason.
fn fallback_counter_name(r: FallbackReason) -> &'static str {
    match r {
        FallbackReason::GenericAccess => "kernels.fallback.generic_access",
        FallbackReason::ControlFlow => "kernels.fallback.control_flow",
        FallbackReason::IndexValue => "kernels.fallback.index_value",
        FallbackReason::ScalarOutput => "kernels.fallback.scalar_output",
        FallbackReason::Strided => "kernels.fallback.strided",
        FallbackReason::MultiAxisReduce => "kernels.fallback.multi_axis_reduce",
        FallbackReason::ReducedBody => "kernels.fallback.reduced_body",
        FallbackReason::SmallTe => "kernels.fallback.small_te",
    }
}

/// Runs the selected kernel for output elements
/// `start .. start + out.len()` (flat row-major order). Only called when
/// a specialized kernel was selected; specialized bodies contain no
/// generic accesses, so no error is possible (the selection predicate is
/// what makes this infallible).
///
/// Chunks are arbitrary flat ranges — the runtime splits on chunk-size
/// boundaries, not row boundaries — so the row-based kernels walk
/// *segments*: the intersection of the chunk with each output row.
pub(crate) fn run(
    piece: &Piece,
    start: usize,
    out: &mut [f32],
    operands: &[&[f32]],
    fast_math: bool,
) {
    match piece.tier {
        KernelSel::CopyRows { .. } | KernelSel::EwTile | KernelSel::RowDot { .. } => {
            run_rows(piece, start, out, operands)
        }
        KernelSel::SliceDot { .. } | KernelSel::SliceReduce { .. } => {
            run_elems(piece, start, out, operands, fast_math)
        }
        KernelSel::Fallback(_) => unreachable!("fallback TEs dispatch to the bytecode path"),
    }
}

/// Decodes a flat starting element into loop variables and the
/// strength-reduced per-access offsets (the same preamble as the VM's
/// `run_chunk`).
fn decode_start(piece: &Piece, start: usize) -> (Vec<i64>, Vec<i64>) {
    let n_iter = piece.out_shape.rank();
    let dims = piece.out_shape.dims();
    let mut vars = vec![0i64; piece.n_vars];
    let mut rem = start as i64;
    for axis in (0..n_iter).rev() {
        vars[axis] = rem % dims[axis];
        rem /= dims[axis];
    }
    let offsets = piece
        .affine
        .iter()
        .map(|a| a.base + a.coeffs.iter().zip(&vars).map(|(c, v)| c * v).sum::<i64>())
        .collect();
    (vars, offsets)
}

/// Row-segment walk shared by the row-based kernels. Each iteration hands
/// the kernel one segment — the overlap of the chunk with one output row —
/// with `vars`/`offsets` positioned at the segment start, then advances
/// the odometer by the whole segment (one multiply-add per access instead
/// of one add per element).
fn run_rows(piece: &Piece, start: usize, out: &mut [f32], operands: &[&[f32]]) {
    let n_iter = piece.out_shape.rank();
    let dims = piece.out_shape.dims();
    let last = n_iter - 1; // selection guarantees rank >= 1
    let row = dims[last];
    let (mut vars, mut offsets) = decode_start(piece, start);

    // Kernel-specific scratch, allocated once per chunk.
    let mut regs: Vec<[f32; TILE]> = match piece.tier {
        KernelSel::EwTile => vec![[0.0f32; TILE]; piece.n_regs],
        _ => Vec::new(),
    };
    let mut acc: Vec<f32> = match piece.tier {
        KernelSel::RowDot { .. } => vec![0.0f32; row as usize],
        _ => Vec::new(),
    };

    let mut idx = 0usize;
    while idx < out.len() {
        let len = ((row - vars[last]) as usize).min(out.len() - idx);
        let seg = &mut out[idx..idx + len];
        match piece.tier {
            KernelSel::CopyRows { access, broadcast } => {
                let data = operands[piece.affine[access].operand];
                let off = offsets[access] as usize;
                if broadcast {
                    seg.fill(data[off]);
                } else {
                    seg.copy_from_slice(&data[off..off + len]);
                }
            }
            KernelSel::EwTile => ew_tile_segment(piece, &offsets, operands, &mut regs, seg),
            KernelSel::RowDot { a, b } => {
                row_dot_segment(piece, a, b, &offsets, operands, &mut acc[..len], seg)
            }
            _ => unreachable!("run_rows only handles row-based kernels"),
        }
        idx += len;

        // Advance the odometer by the whole segment.
        vars[last] += len as i64;
        let step = len as i64;
        for (off, a) in offsets.iter_mut().zip(&piece.affine) {
            *off += a.coeffs[last] * step;
        }
        if vars[last] == row {
            vars[last] = 0;
            for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                *off -= a.coeffs[last] * row;
            }
            let mut axis = last;
            loop {
                if axis == 0 {
                    break; // iteration space exhausted
                }
                axis -= 1;
                vars[axis] += 1;
                if vars[axis] < dims[axis] {
                    for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                        *off += a.coeffs[axis];
                    }
                    break;
                }
                vars[axis] = 0;
                for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                    *off -= a.coeffs[axis] * (dims[axis] - 1);
                }
            }
        }
    }
}

/// One element-wise segment: the body bytecode executed over register
/// tiles of [`TILE`] lanes. Each lane computes one output element with the
/// exact instruction sequence the scalar VM would run, so results are
/// bit-identical; the per-instruction lane loops are what autovectorizes.
fn ew_tile_segment(
    piece: &Piece,
    offsets: &[i64],
    operands: &[&[f32]],
    regs: &mut [[f32; TILE]],
    seg: &mut [f32],
) {
    let last = piece.out_shape.rank() - 1;
    let mut pos = 0usize;
    while pos < seg.len() {
        let t = TILE.min(seg.len() - pos);
        for instr in &piece.code {
            match instr {
                Instr::Const { dst, value } => regs[*dst as usize][..t].fill(*value),
                Instr::LoadAffine { dst, access } => {
                    let ai = *access as usize;
                    let a: &AffineAccess = &piece.affine[ai];
                    let data = operands[a.operand];
                    let r = &mut regs[*dst as usize];
                    if a.coeffs[last] == 1 {
                        let off = (offsets[ai] + pos as i64) as usize;
                        r[..t].copy_from_slice(&data[off..off + t]);
                    } else {
                        r[..t].fill(data[offsets[ai] as usize]);
                    }
                }
                Instr::Unary { dst, op, src } => {
                    let sv = regs[*src as usize];
                    let r = &mut regs[*dst as usize];
                    for l in 0..t {
                        r[l] = op.apply(sv[l]);
                    }
                }
                Instr::Binary { dst, op, lhs, rhs } => {
                    let lv = regs[*lhs as usize];
                    let rv = regs[*rhs as usize];
                    let r = &mut regs[*dst as usize];
                    for l in 0..t {
                        r[l] = op.apply(lv[l], rv[l]);
                    }
                }
                Instr::LoadGeneric { .. }
                | Instr::Index { .. }
                | Instr::JumpIfNot { .. }
                | Instr::Jump { .. }
                | Instr::Fold { .. } => {
                    unreachable!("excluded by the ew_tile selection predicate")
                }
            }
        }
        seg[pos..pos + t].copy_from_slice(&regs[piece.result as usize][..t]);
        pos += t;
    }
}

/// One inner-product segment over an output row: `acc[j]` accumulates
/// `a_k · b[k, j0+j]` with k outer and j inner, so the j-lane loop
/// autovectorizes while each output element still receives its terms in
/// exactly the scalar k order (bit-identical by construction; this is why
/// `fast_math` has nothing to relax here). Over two reduction axes the
/// outer one steps the operand bases and the inner one runs as above,
/// both ascending — the odometer's order.
fn row_dot_segment(
    piece: &Piece,
    a: usize,
    b: usize,
    offsets: &[i64],
    operands: &[&[f32]],
    acc: &mut [f32],
    seg: &mut [f32],
) {
    let (aa, ab) = (&piece.affine[a], &piece.affine[b]);
    let (da, db) = (operands[aa.operand], operands[ab.operand]);
    let kv = piece.n_vars - 1;
    let (ca, cb) = (aa.coeffs[kv], ab.coeffs[kv]);
    let (outer, ext, ca_out, cb_out) = match *piece.reduce.as_slice() {
        [ext] => (1, ext, 0, 0),
        [outer, ext] => (outer, ext, aa.coeffs[kv - 1], ab.coeffs[kv - 1]),
        _ => unreachable!("row_dot is selected for one or two reduction axes"),
    };
    let op = piece.reduce_op.expect("validated reduction");
    let len = seg.len();
    acc.fill(op.init());
    let (mut oa_out, mut ob_out) = (offsets[a], offsets[b]);
    for _ in 0..outer {
        let (mut oa, mut ob) = (oa_out, ob_out);
        match op {
            ReduceOp::Sum => {
                for _ in 0..ext {
                    let x = da[oa as usize];
                    let brow = &db[ob as usize..ob as usize + len];
                    for (acc_j, &b_j) in acc.iter_mut().zip(brow) {
                        *acc_j += x * b_j;
                    }
                    oa += ca;
                    ob += cb;
                }
            }
            _ => {
                for _ in 0..ext {
                    let x = da[oa as usize];
                    let brow = &db[ob as usize..ob as usize + len];
                    for (acc_j, &b_j) in acc.iter_mut().zip(brow) {
                        *acc_j = op.combine(*acc_j, x * b_j);
                    }
                    oa += ca;
                    ob += cb;
                }
            }
        }
        oa_out += ca_out;
        ob_out += cb_out;
    }
    seg.copy_from_slice(acc);
}

/// Element walk for the slice-based reduction kernels: the standard output
/// odometer, with each element's reduction running over contiguous
/// (unit-stride) operand slices — no bounds checks, no offset updates in
/// the inner loop.
fn run_elems(piece: &Piece, start: usize, out: &mut [f32], operands: &[&[f32]], fast_math: bool) {
    let n_iter = piece.out_shape.rank();
    let dims = piece.out_shape.dims();
    // One or two reduction axes; in the two-axis case selection proved the
    // combined region is a single contiguous slice of the product extent.
    let ext: i64 = piece.reduce.iter().product();
    let op = piece.reduce_op.expect("validated reduction");
    if ext <= 0 {
        // Empty reduction: every element is the identity, and the operand
        // slices must never be formed (their offsets are unconstrained).
        out.fill(op.init());
        return;
    }
    let (mut vars, mut offsets) = decode_start(piece, start);
    for slot in out.iter_mut() {
        *slot = match piece.tier {
            KernelSel::SliceDot { a, b } => {
                let (aa, ab) = (&piece.affine[a], &piece.affine[b]);
                let sa = &operands[aa.operand][offsets[a] as usize..(offsets[a] + ext) as usize];
                let sb = &operands[ab.operand][offsets[b] as usize..(offsets[b] + ext) as usize];
                match op {
                    ReduceOp::Sum if fast_math => dot_relaxed(sa, sb),
                    ReduceOp::Sum => {
                        let mut acc = op.init();
                        for (&x, &y) in sa.iter().zip(sb) {
                            acc += x * y;
                        }
                        acc
                    }
                    _ => {
                        let mut acc = op.init();
                        for (&x, &y) in sa.iter().zip(sb) {
                            acc = op.combine(acc, x * y);
                        }
                        acc
                    }
                }
            }
            KernelSel::SliceReduce { access } => {
                let aa = &piece.affine[access];
                let s = &operands[aa.operand]
                    [offsets[access] as usize..(offsets[access] + ext) as usize];
                match op {
                    ReduceOp::Sum if fast_math => sum_relaxed(s),
                    _ => {
                        let mut acc = op.init();
                        for &x in s {
                            acc = op.combine(acc, x);
                        }
                        acc
                    }
                }
            }
            _ => unreachable!("run_elems only handles slice-based kernels"),
        };
        // Advance the output odometer, keeping affine offsets in step.
        let mut axis = n_iter;
        loop {
            if axis == 0 {
                break;
            }
            axis -= 1;
            vars[axis] += 1;
            if vars[axis] < dims[axis] {
                for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                    *off += a.coeffs[axis];
                }
                break;
            }
            vars[axis] = 0;
            for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                *off -= a.coeffs[axis] * (dims[axis] - 1);
            }
        }
    }
}

/// Relaxed-order dot product: [`FAST_LANES`] partial accumulators plus a
/// sequential tail. Reassociates the `Sum` reduction, so results differ
/// from the strict order — only reachable behind the `fast_math` opt-in.
fn dot_relaxed(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; FAST_LANES];
    let mut ca = a.chunks_exact(FAST_LANES);
    let mut cb = b.chunks_exact(FAST_LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..FAST_LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// Relaxed-order slice sum (see [`dot_relaxed`]).
fn sum_relaxed(s: &[f32]) -> f32 {
    let mut acc = [0.0f32; FAST_LANES];
    let mut cs = s.chunks_exact(FAST_LANES);
    for xs in &mut cs {
        for l in 0..FAST_LANES {
            acc[l] += xs[l];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for &x in cs.remainder() {
        sum += x;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::compile::compile_program;
    use crate::program::TeProgram;
    use souffle_tensor::{DType, Shape};

    #[test]
    fn matmul_selects_row_dot() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 64]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![64, 32]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.tes()[0].pieces[0].tier,
            KernelSel::RowDot { .. }
        ));
    }

    #[test]
    fn elementwise_chain_selects_ew_tile_and_copy() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 64]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![64, 64]), DType::F32);
        let s = builders::add(&mut p, "add", a, b);
        let r = builders::relu(&mut p, "act", s);
        let t = builders::transpose(&mut p, "t", r, &[1, 0]);
        p.mark_output(t);
        let cp = compile_program(&p);
        assert!(matches!(cp.tes()[0].pieces[0].tier, KernelSel::EwTile));
        assert!(matches!(cp.tes()[1].pieces[0].tier, KernelSel::EwTile));
        // transpose: stride along the innermost output axis is the row
        // width, not 1 — stays on bytecode.
        assert!(matches!(
            cp.tes()[2].pieces[0].tier,
            KernelSel::Fallback(FallbackReason::Strided)
        ));
    }

    #[test]
    fn softmax_pieces_select_slice_reduce() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 64]), DType::F32);
        let s = builders::softmax(&mut p, "sm", a);
        p.mark_output(s);
        let cp = compile_program(&p);
        let census = cp.kernel_census();
        assert!(census.slice_reduce >= 2, "row max + row sum: {census:?}");
    }

    #[test]
    fn padded_conv_falls_back_with_reasons() {
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![1, 4, 16, 16]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![8, 4, 3, 3]), DType::F32);
        let y = builders::conv2d(&mut p, "conv", x, w, 1, 1);
        p.mark_output(y);
        let cp = compile_program(&p);
        let census = cp.kernel_census();
        assert_eq!(census.specialized(), 0);
        assert!(census.bytecode() >= 1);
    }

    #[test]
    fn tiny_te_falls_back_as_small_te() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![4, 8]), DType::F32);
        let s = builders::add(&mut p, "add", a, b);
        p.mark_output(s);
        let cp = compile_program(&p);
        // 32 body evaluations: launch overhead would dominate any kernel.
        assert_eq!(
            cp.tes()[0].pieces[0].tier,
            KernelSel::Fallback(FallbackReason::SmallTe)
        );
    }

    #[test]
    fn small_te_cutoff_counts_reduction_points() {
        // Output is only 16 elements, but each folds 512 reduction points:
        // 8192 body evaluations clear the cutoff and keep the kernel.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 512]), DType::F32);
        let s = builders::reduce_last(&mut p, "rs", ReduceOp::Sum, a);
        p.mark_output(s);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.tes()[0].pieces[0].tier,
            KernelSel::SliceReduce { .. }
        ));
    }

    #[test]
    fn contiguous_two_axis_reduce_selects_slice_reduce() {
        // Global-pool style `[h, w]` reduction over NCHW: unit stride
        // along w, stride `w_ext` along h — one contiguous slice per
        // output element, so the two-axis arm upgrades it from the old
        // multi_axis_reduce fallback.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![2, 8, 16, 16]), DType::F32);
        let y = builders::global_avg_pool(&mut p, "pool", x);
        p.mark_output(y);
        let cp = compile_program(&p);
        let sum = cp
            .tes()
            .iter()
            .map(|te| &te.pieces[0])
            .find(|p| p.reduce.len() == 2)
            .expect("pool sum TE");
        assert!(matches!(sum.tier, KernelSel::SliceReduce { .. }));
    }

    #[test]
    fn census_counters_cover_every_kernel_and_reason() {
        let stats = KernelStats::default();
        let counters = stats.counters();
        assert_eq!(counters.len(), 6 + FallbackReason::ALL.len());
        for (name, _) in counters {
            assert!(name.starts_with("kernels."), "{name}");
        }
    }
}

//! The differential semantics oracle.
//!
//! Souffle's central claim (§6 of the paper) is that its TE
//! transformations are semantic-preserving. The oracle checks that claim
//! mechanically: a program is evaluated *before* and *after* each pipeline
//! stage on identical seeded random inputs, and every program output is
//! compared element-wise with an ULP-aware tolerance. By default both
//! sides run on the compiled bytecode evaluator (bit-identical to the
//! naive interpreter but much faster, so the oracle covers more programs
//! per CI run); [`check_stage_with`] selects the evaluator explicitly, and
//! the dedicated [`Stage::CrossEvaluator`] stage pits the two evaluators
//! against each other bit-exactly. A mismatch produces a report carrying the stage,
//! the seed, the worst element, and both programs pretty-printed in
//! `te.compute` notation — everything needed to reproduce and debug the
//! broken rewrite.

use souffle::trace::Tracer;
use souffle::{ShapeCache, ShapeClass, Souffle, SouffleOptions};
use souffle_baselines::{RammerStrategy, Strategy, StrategyContext};
use souffle_sched::{program_signature, GpuSpec};
use souffle_te::interp::{eval_with_random_inputs_using, random_bindings, EvalError};
use souffle_te::sym::{bucket_boundaries, DynProgram, SymTable};
use souffle_te::{
    compile_program, source::te_source, Evaluator, Runtime, RuntimeOptions, TeProgram, TensorId,
};
use souffle_tensor::Tensor;
use souffle_transform::{
    batch_bindings, batch_program, horizontal_fuse_program, reduction_fuse_program, split_batch,
    transform_program, vertical_fuse_program,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A pipeline stage under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Horizontal TE fusion alone (§6.1).
    Horizontal,
    /// Vertical quasi-affine composition alone (§6.2).
    Vertical,
    /// Horizontal + vertical to fixpoint (`transform_program`).
    Transform,
    /// Data-movement-aware reduction fusion alone
    /// (`souffle_transform::reduction_fuse_program`): single-axis
    /// reductions carried inline in their broadcast consumers as scoped
    /// folds. The shipped pass preserves each output element's reduction
    /// order exactly (ascending fold binder ≡ the standalone reduction
    /// odometer), so this stage is checked **bit-exactly**; a fusion that
    /// reassociates must opt into tolerance explicitly via
    /// [`check_reduction_fusion_relaxed`].
    ReductionFusion,
    /// The V3 pipeline: transforms plus schedule propagation, resource
    /// partitioning and kernel merging (§6.3–6.4). The lowered kernels are
    /// not interpretable, but the TE program the pipeline lowers *is* —
    /// this checks that everything scheduling did to the program kept it
    /// equivalent.
    ScheduleMerge,
    /// The full V4 pipeline including subprogram optimization (§6.5).
    FullPipeline,
    /// No transformation at all: the *evaluators* are the system under
    /// test. The naive interpreter evaluates the program as ground truth
    /// and the compiled bytecode VM must reproduce it **bit-exactly**
    /// (tolerance is ignored for this stage).
    CrossEvaluator,
    /// The program with its TEs re-ordered into a baseline strategy's
    /// flattened kernel-group order (Rammer's wavefront grouping — the
    /// most aggressive re-orderer). Every baseline claims its groups are
    /// in execution order; this checks that executing TEs in that order
    /// is semantic-preserving. [`check_baseline`] runs the same check for
    /// an arbitrary strategy.
    BaselineOrder,
    /// The serving layer's batch rewrite
    /// (`souffle_transform::batch_program` at batch 4): a batch of
    /// distinct requests sharing one weight set is evaluated in one shot
    /// on the pooled runtime, and slice `b` of every output must be
    /// **bit-identical** to evaluating request `b` alone (`tol` is
    /// ignored). This is the batch-invariance contract `souffle-serve`
    /// builds on; `tests/serve_differential.rs` extends it to the real
    /// server across all six models and every bucket.
    BatchedServe,
    /// No transformation: the compiled evaluator's *kernel tier* is the
    /// system under test. The naive interpreter evaluates the program as
    /// ground truth and two pooled runtimes — one with the monomorphized
    /// native kernels forced **on**, one forced **off** (pure bytecode) —
    /// must both reproduce it **bit-exactly** (`tol` is ignored). Both
    /// runtimes pin 2 execution streams so chunk boundaries land
    /// mid-row, exercising the kernels' segment-walk resume logic.
    KernelTier,
    /// The shape-bucketed compile cache the serving layer is built on:
    /// the program is lifted to a symbolic-batch template
    /// ([`dyn_batch_program`]), compiled lazily per batch bucket through a
    /// [`souffle::ShapeCache`], and every batch size `1..=`
    /// [`Stage::SHAPE_BUCKET_MAX_BATCH`] — padded up to its bucket by
    /// replicating the last request — must reproduce each request's solo
    /// evaluation **bit-exactly** (`tol` is ignored). A second lookup
    /// sweep then pins the cache contract: same [`souffle::ShapeClass`] ⇒
    /// no recompilation, with hit/miss counters checked.
    ShapeBucket,
}

impl Stage {
    /// Every stage, in pipeline order (the evaluator cross-check runs
    /// last).
    pub const ALL: [Stage; 11] = [
        Stage::Horizontal,
        Stage::Vertical,
        Stage::Transform,
        Stage::ReductionFusion,
        Stage::ScheduleMerge,
        Stage::FullPipeline,
        Stage::CrossEvaluator,
        Stage::BaselineOrder,
        Stage::BatchedServe,
        Stage::KernelTier,
        Stage::ShapeBucket,
    ];

    /// The batch size [`Stage::BatchedServe`] checks with (one mid-size
    /// bucket; the serve differential suite sweeps all of 1/2/4/8).
    pub const BATCHED_SERVE_BATCH: usize = 4;

    /// The largest batch [`Stage::ShapeBucket`] sweeps (buckets `[1, 2, 4]`
    /// via `bucket_boundaries`; the serve differential suite covers the
    /// full production bucket set).
    pub const SHAPE_BUCKET_MAX_BATCH: usize = 4;

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Horizontal => "horizontal",
            Stage::Vertical => "vertical",
            Stage::Transform => "transform",
            Stage::ReductionFusion => "reduction-fusion",
            Stage::ScheduleMerge => "schedule-merge",
            Stage::FullPipeline => "full-pipeline",
            Stage::CrossEvaluator => "cross-evaluator",
            Stage::BaselineOrder => "baseline-order",
            Stage::BatchedServe => "batched-serve",
            Stage::KernelTier => "kernel-tier",
            Stage::ShapeBucket => "shape-bucket",
        }
    }

    /// Applies the stage, returning the program whose semantics must match
    /// the input's.
    pub fn apply(self, program: &TeProgram) -> TeProgram {
        match self {
            Stage::Horizontal => horizontal_fuse_program(program).0,
            Stage::Vertical => vertical_fuse_program(program).0,
            Stage::Transform => transform_program(program).0,
            Stage::ReductionFusion => reduction_fuse_program(program).0,
            Stage::ScheduleMerge => Souffle::new(SouffleOptions::v3()).compile(program).program,
            Stage::FullPipeline => {
                Souffle::new(SouffleOptions::full())
                    .compile(program)
                    .program
            }
            Stage::CrossEvaluator => program.clone(),
            Stage::BaselineOrder => baseline_order(program, &RammerStrategy),
            Stage::BatchedServe => batch_program(program, Self::BATCHED_SERVE_BATCH as i64),
            Stage::KernelTier => program.clone(),
            Stage::ShapeBucket => program.clone(),
        }
    }
}

/// Rebuilds `program` with its TEs permuted into `strategy`'s flattened
/// kernel-group order. Tensor ids are unchanged (tensors are copied in
/// declaration order), so bindings and outputs carry over directly.
pub fn baseline_order(program: &TeProgram, strategy: &dyn Strategy) -> TeProgram {
    let ctx = StrategyContext::new(program, &GpuSpec::a100());
    let mut reordered = TeProgram::new();
    for t in program.tensors() {
        reordered.add_tensor(&t.name, t.shape.clone(), t.dtype, t.kind);
    }
    for te in strategy.group(&ctx).into_iter().flatten() {
        reordered.push_te(program.te(te).clone());
    }
    reordered
}

/// Differentially checks one baseline strategy: re-orders the program's
/// TEs into the strategy's kernel-group execution order (see
/// [`baseline_order`]) and requires the result to validate (the order is
/// topological) and evaluate **bit-identically** to the untouched program
/// — the baselines lower the *same* TE semantics, only grouped
/// differently, so re-ordering whole TEs must not change a single bit.
/// `tol` only shapes the mismatch report.
///
/// # Errors
///
/// Returns an [`OracleError`] (reported under [`Stage::BaselineOrder`])
/// when the reordered program is invalid or diverges.
pub fn check_baseline(
    program: &TeProgram,
    strategy: &dyn Strategy,
    seed: u64,
    tol: &Tolerance,
) -> Result<(), OracleError> {
    let stage = Stage::BaselineOrder;
    let transformed = baseline_order(program, strategy);
    if let Err(e) = transformed.validate() {
        return Err(OracleError::Invalid {
            stage,
            detail: format!("{} order: {e:?}", strategy.name()),
            program: te_source(&transformed),
        });
    }
    let want =
        eval_with_random_inputs_using(program, seed, Evaluator::Compiled).map_err(|error| {
            OracleError::Eval {
                stage,
                which: "before",
                error,
            }
        })?;
    let got = eval_with_random_inputs_using(&transformed, seed, Evaluator::Compiled).map_err(
        |error| OracleError::Eval {
            stage,
            which: "after",
            error,
        },
    )?;
    compare_outputs(program, &transformed, stage, seed, tol, true, &want, &got)
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Closeness criterion: two values agree when they are within
/// `atol + rtol·max(|a|,|b|)` **or** within `max_ulps` representable
/// floats of each other (which adapts to magnitude where fixed tolerances
/// cannot), with `NaN ≡ NaN`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Absolute tolerance.
    pub atol: f32,
    /// Relative tolerance.
    pub rtol: f32,
    /// Maximum units-in-the-last-place distance.
    pub max_ulps: u64,
}

impl Default for Tolerance {
    fn default() -> Self {
        // Transforms reassociate at most a handful of f32 operations, so
        // the bar is deliberately tight.
        Tolerance {
            atol: 1e-4,
            rtol: 1e-4,
            max_ulps: 64,
        }
    }
}

impl Tolerance {
    /// Whether `a` and `b` agree under this tolerance.
    pub fn close(&self, a: f32, b: f32) -> bool {
        if a == b || (a.is_nan() && b.is_nan()) {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return false;
        }
        let diff = (a - b).abs();
        if diff <= self.atol + self.rtol * a.abs().max(b.abs()) {
            return true;
        }
        ulp_distance(a, b) <= self.max_ulps
    }
}

/// Distance between two floats in representable steps. Adjacent floats are
/// 1 apart, `-0.0` and `+0.0` are 0 apart, and any non-NaN is `u64::MAX`
/// from NaN.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    // Map bit patterns to a monotone integer line: negatives become the
    // negation of their magnitude ordinal.
    fn monotone(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits >> 31 == 1 {
            -i64::from(bits & 0x7FFF_FFFF)
        } else {
            i64::from(bits)
        }
    }
    monotone(a).abs_diff(monotone(b))
}

/// Everything known about one failed comparison.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The stage that broke semantics.
    pub stage: Stage,
    /// Input seed the programs were evaluated with.
    pub seed: u64,
    /// Name of the diverging output tensor.
    pub tensor: String,
    /// Flat (row-major) index of the worst element.
    pub flat_index: usize,
    /// Reference value at that element.
    pub expected: f32,
    /// Transformed-program value at that element.
    pub got: f32,
    /// Worst absolute difference across the tensor.
    pub max_abs_diff: f32,
    /// Worst ULP distance across the tensor.
    pub max_ulps: u64,
    /// The program before the stage, in `te.compute` notation.
    pub before_src: String,
    /// The program after the stage, in `te.compute` notation.
    pub after_src: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stage '{}' is not semantic-preserving (seed {:#018x}):",
            self.stage, self.seed
        )?;
        writeln!(
            f,
            "  output \"{}\"[{}]: expected {} got {} (tensor max |diff| {}, max {} ulps)",
            self.tensor, self.flat_index, self.expected, self.got, self.max_abs_diff, self.max_ulps
        )?;
        writeln!(f, "  program before:\n{}", indent(&self.before_src))?;
        write!(f, "  program after:\n{}", indent(&self.after_src))
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Oracle failure: either a program failed to run at all, or outputs
/// diverged.
#[derive(Debug)]
pub enum OracleError {
    /// A stage produced a structurally invalid program.
    Invalid {
        /// The offending stage.
        stage: Stage,
        /// `validate()`'s complaint.
        detail: String,
        /// The invalid program, pretty-printed.
        program: String,
    },
    /// The interpreter rejected the program before or after the stage.
    Eval {
        /// The offending stage.
        stage: Stage,
        /// `"before"` or `"after"`.
        which: &'static str,
        /// The interpreter error.
        error: EvalError,
    },
    /// Outputs diverged beyond tolerance.
    Mismatch(Box<Mismatch>),
    /// The transformed program dropped one of the original outputs.
    MissingOutput {
        /// The offending stage.
        stage: Stage,
        /// Name of the output that vanished.
        tensor: String,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Invalid {
                stage,
                detail,
                program,
            } => write!(
                f,
                "stage '{stage}' produced an invalid program: {detail}\n{}",
                indent(program)
            ),
            OracleError::Eval {
                stage,
                which,
                error,
            } => write!(f, "stage '{stage}': interpreter failed {which}: {error}"),
            OracleError::Mismatch(m) => m.fmt(f),
            OracleError::MissingOutput { stage, tensor } => {
                write!(f, "stage '{stage}' lost output tensor \"{tensor}\"")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Differentially checks one stage on one seed, evaluating both program
/// versions with the (fast) compiled evaluator. See [`check_stage_with`]
/// to choose the evaluator explicitly.
///
/// # Errors
///
/// Returns an [`OracleError`] when the transformed program is invalid,
/// uninterpretable, drops an output, or diverges from the reference.
pub fn check_stage(
    program: &TeProgram,
    stage: Stage,
    seed: u64,
    tol: &Tolerance,
) -> Result<(), OracleError> {
    check_stage_with(program, stage, seed, tol, Evaluator::Compiled)
}

/// [`check_stage`] with an explicit evaluator for both sides of the
/// comparison.
///
/// [`Stage::CrossEvaluator`] ignores `evaluator`: that stage *is* the
/// evaluator comparison — naive interpreter as `want`, compared
/// bit-exactly (with `tol` ignored) against **both** compiled paths: the
/// process-global VM entry point and a pooled wavefront
/// [`Runtime`] (4 execution streams, buffer arena on, persistent across
/// oracle calls so arena recycling is exercised too).
///
/// # Errors
///
/// Returns an [`OracleError`] when the transformed program is invalid,
/// uninterpretable, drops an output, or diverges from the reference.
pub fn check_stage_with(
    program: &TeProgram,
    stage: Stage,
    seed: u64,
    tol: &Tolerance,
    evaluator: Evaluator,
) -> Result<(), OracleError> {
    if stage == Stage::BatchedServe {
        // The batch rewrite changes shapes, so the generic same-bindings
        // comparison below cannot apply; its contract is per-request
        // batch invariance instead.
        return check_batched(program, Stage::BATCHED_SERVE_BATCH, seed);
    }
    if stage == Stage::KernelTier {
        // The program is untouched; the comparison is interpreter vs the
        // kernel tier forced on and off, each bit-exact.
        return check_kernel_tier(program, seed);
    }
    if stage == Stage::ShapeBucket {
        // Shapes change per bucket, so the generic same-bindings
        // comparison cannot apply; the contract is per-request invariance
        // through the bucketed cache.
        return check_shape_bucket(program, seed);
    }
    let transformed = stage.apply(program);
    if let Err(e) = transformed.validate() {
        return Err(OracleError::Invalid {
            stage,
            detail: format!("{e:?}"),
            program: te_source(&transformed),
        });
    }
    let (want_eval, got_eval, bit_exact) = match stage {
        Stage::CrossEvaluator => (Evaluator::Naive, Evaluator::Compiled, true),
        // Reduction fusion preserves per-element reduction order; the
        // relaxed entry point is `check_reduction_fusion_relaxed`.
        Stage::ReductionFusion => (evaluator, evaluator, true),
        _ => (evaluator, evaluator, false),
    };
    let want = eval_with_random_inputs_using(program, seed, want_eval).map_err(|error| {
        OracleError::Eval {
            stage,
            which: "before",
            error,
        }
    })?;
    let got = eval_with_random_inputs_using(&transformed, seed, got_eval).map_err(|error| {
        OracleError::Eval {
            stage,
            which: "after",
            error,
        }
    })?;
    compare_outputs(
        program,
        &transformed,
        stage,
        seed,
        tol,
        bit_exact,
        &want,
        &got,
    )?;
    if stage == Stage::CrossEvaluator {
        // Second compiled path: the pooled wavefront runtime (outputs
        // only). Same bindings, same bit-exactness bar as the VM above.
        let bindings = random_bindings(&transformed, seed);
        let pooled = pooled_runtime()
            .eval(&compile_program(&transformed), &bindings)
            .map_err(|error| OracleError::Eval {
                stage,
                which: "after",
                error,
            })?;
        compare_outputs(
            program,
            &transformed,
            stage,
            seed,
            tol,
            bit_exact,
            &want,
            &pooled,
        )?;
    }
    Ok(())
}

/// The explicit ULP-tolerance opt-out for [`Stage::ReductionFusion`]:
/// compares the fused program against the original under `tol` instead of
/// bit-exactly. The shipped pass never needs this — it preserves each
/// element's reduction order — so reaching for this function is a
/// deliberate statement that a fusion reassociates floats (e.g. a future
/// multi-axis or tree-reduction variant) and is held to the oracle
/// tolerance instead.
///
/// # Errors
///
/// Returns an [`OracleError`] when the fused program is invalid,
/// uninterpretable, drops an output, or diverges beyond `tol`.
pub fn check_reduction_fusion_relaxed(
    program: &TeProgram,
    seed: u64,
    tol: &Tolerance,
) -> Result<(), OracleError> {
    let stage = Stage::ReductionFusion;
    let transformed = stage.apply(program);
    if let Err(e) = transformed.validate() {
        return Err(OracleError::Invalid {
            stage,
            detail: format!("{e:?}"),
            program: te_source(&transformed),
        });
    }
    let want =
        eval_with_random_inputs_using(program, seed, Evaluator::Compiled).map_err(|error| {
            OracleError::Eval {
                stage,
                which: "before",
                error,
            }
        })?;
    let got = eval_with_random_inputs_using(&transformed, seed, Evaluator::Compiled).map_err(
        |error| OracleError::Eval {
            stage,
            which: "after",
            error,
        },
    )?;
    compare_outputs(program, &transformed, stage, seed, tol, false, &want, &got)
}

/// The [`Stage::BatchedServe`] check at an explicit batch size: builds
/// `batch` requests with distinct seeded inputs but one shared weight
/// set, evaluates the batched rewrite once on the pooled runtime, and
/// requires slice `b` of every output to be **bit-identical** to
/// evaluating request `b` alone with the compiled evaluator.
///
/// # Errors
///
/// Returns an [`OracleError`] under [`Stage::BatchedServe`] when the
/// rewrite produces an invalid program, evaluation fails on either side,
/// or any output slice diverges by even one bit.
pub fn check_batched(program: &TeProgram, batch: usize, seed: u64) -> Result<(), OracleError> {
    let stage = Stage::BatchedServe;
    let batched = batch_program(program, batch as i64);
    if let Err(e) = batched.validate() {
        return Err(OracleError::Invalid {
            stage,
            detail: format!("batch {batch}: {e:?}"),
            program: te_source(&batched),
        });
    }
    // Request b gets its own seeded inputs; weights come from request 0
    // everywhere (the server shares one weight set across every batch).
    let requests: Vec<HashMap<TensorId, Tensor>> = (0..batch)
        .map(|b| random_bindings(program, seed.wrapping_add(b as u64)))
        .collect();
    let shared_weights: Vec<TensorId> = program
        .free_tensors()
        .into_iter()
        .filter(|&id| program.tensor(id).kind == souffle_te::TensorKind::Weight)
        .collect();
    let requests: Vec<HashMap<TensorId, Tensor>> = requests
        .iter()
        .map(|r| {
            let mut r = r.clone();
            for &id in &shared_weights {
                r.insert(id, requests[0][&id].clone());
            }
            r
        })
        .collect();
    let refs: Vec<&HashMap<TensorId, Tensor>> = requests.iter().collect();
    let got_batched = pooled_runtime()
        .eval(&compile_program(&batched), &batch_bindings(program, &refs))
        .map_err(|error| OracleError::Eval {
            stage,
            which: "after",
            error,
        })?;
    let split: HashMap<TensorId, Vec<Tensor>> = got_batched
        .iter()
        .map(|(id, t)| (*id, split_batch(t)))
        .collect();
    let cp = compile_program(program);
    let tol = Tolerance::default(); // ignored: bit_exact comparison
    for (b, request) in requests.iter().enumerate() {
        let want = cp.eval(request).map_err(|error| OracleError::Eval {
            stage,
            which: "before",
            error,
        })?;
        let want: HashMap<TensorId, Tensor> = program
            .outputs()
            .iter()
            .map(|id| (*id, want[id].clone()))
            .collect();
        let got: HashMap<TensorId, Tensor> =
            split.iter().map(|(id, v)| (*id, v[b].clone())).collect();
        compare_outputs(program, &batched, stage, seed, &tol, true, &want, &got)?;
    }
    Ok(())
}

/// The persistent runtime backing the oracle's pooled cross-check: kept
/// alive across calls so successive programs recycle each other's arena
/// buffers — exactly the reuse pattern that would expose stale-data bugs.
fn pooled_runtime() -> &'static Runtime {
    static POOLED: OnceLock<Runtime> = OnceLock::new();
    POOLED.get_or_init(|| {
        Runtime::with_options(RuntimeOptions {
            threads: Some(4),
            max_parallelism: Some(4),
            ..RuntimeOptions::default()
        })
    })
}

/// The persistent runtimes backing [`Stage::KernelTier`]: one with the
/// monomorphized kernel tier forced on, one forced off. Both pin two
/// execution streams (even on single-core machines, via
/// `max_parallelism`) so output chunks split mid-row and the kernels'
/// odometer-resume paths are exercised, and both keep the arena on so
/// recycled buffers flow through the specialized loops.
fn tier_runtime(kernels: bool) -> &'static Runtime {
    static TIER_ON: OnceLock<Runtime> = OnceLock::new();
    static TIER_OFF: OnceLock<Runtime> = OnceLock::new();
    let cell = if kernels { &TIER_ON } else { &TIER_OFF };
    cell.get_or_init(|| {
        Runtime::with_options(RuntimeOptions {
            threads: Some(2),
            max_parallelism: Some(2),
            kernel_tier: Some(kernels),
            ..RuntimeOptions::default()
        })
    })
}

/// Lifts a concrete program to a symbolic-**batch** template: the batch
/// dim is declared as a sym in `1..=max_batch` and
/// [`souffle_transform::batch_program`] instantiates it, with
/// [`DynProgram::infer`] proving every tensor axis moves affinely in the
/// sym (weights stay unbatched, everything else gains a leading batch
/// axis). The template then serves any batch size without re-lowering —
/// the symbolic half of the serving layer's shape-bucketed cache.
///
/// # Errors
///
/// Returns the inference error when some axis of `program`'s batch
/// rewrite does not track the batch sym affinely (no such program exists
/// today; the error is the API contract).
pub fn dyn_batch_program(program: &TeProgram, max_batch: i64) -> Result<DynProgram, String> {
    let mut table = SymTable::new();
    let b = table.declare("batch", 1, max_batch);
    let src = program.clone();
    DynProgram::infer(table, &move |bind| batch_program(&src, bind.get(b)))
}

/// The [`Stage::ShapeBucket`] check. Three contracts in one pass:
///
/// 1. **Template fidelity** — [`dyn_batch_program`] lifts the program
///    once; every bucket variant is `concretize`d from the template, never
///    re-lowered.
/// 2. **Cross-shape bit-exactness** — for every batch size `n` in
///    `1..=SHAPE_BUCKET_MAX_BATCH`, the batch runs padded on the smallest
///    bucket `>= n` (trailing slots replicate the last request) and slice
///    `b` of every output must be **bit-identical** to evaluating request
///    `b` alone.
/// 3. **Cache semantics** — compiles happen once per distinct
///    [`souffle::ShapeClass`]; a second lookup sweep must be all hits
///    (no rebuild), with the `shape_cache.hit`/`shape_cache.miss`
///    counters matching exactly.
///
/// # Errors
///
/// Returns an [`OracleError`] under [`Stage::ShapeBucket`] on any
/// violation.
pub fn check_shape_bucket(program: &TeProgram, seed: u64) -> Result<(), OracleError> {
    let stage = Stage::ShapeBucket;
    let max_batch = Stage::SHAPE_BUCKET_MAX_BATCH;
    let dp =
        dyn_batch_program(program, max_batch as i64).map_err(|detail| OracleError::Invalid {
            stage,
            detail,
            program: te_source(program),
        })?;
    let buckets = bucket_boundaries(1, max_batch as i64);
    let tracer = Tracer::new();
    let cache: ShapeCache<(TeProgram, souffle_te::CompiledProgram)> = ShapeCache::new();
    let sig = program_signature(program);
    let key_for = |n: usize| {
        let bucket = *buckets
            .iter()
            .find(|&&b| b >= n as i64)
            .expect("max batch is always a bucket boundary");
        (
            bucket,
            ShapeClass {
                sig,
                buckets: vec![bucket],
            },
        )
    };

    let shared_weights: Vec<TensorId> = program
        .free_tensors()
        .into_iter()
        .filter(|&id| program.tensor(id).kind == souffle_te::TensorKind::Weight)
        .collect();
    let cp_solo = compile_program(program);
    // One shared weight set across every batch (request 0's draw), exactly
    // like the server.
    let weight_set = random_bindings(program, seed);
    let tol = Tolerance::default(); // ignored: bit_exact comparison
    for n in 1..=max_batch {
        let (bucket, key) = key_for(n);
        let variant = cache.get_or_build(key, &tracer, || {
            let binding = dp.table().bind(vec![bucket]).expect("bucket within bounds");
            let bp = dp.concretize(&binding);
            let cp = compile_program(&bp);
            (bp, cp)
        });
        let (bp, cp) = &*variant;
        if let Err(e) = bp.validate() {
            return Err(OracleError::Invalid {
                stage,
                detail: format!("bucket {bucket}: {e:?}"),
                program: te_source(bp),
            });
        }
        let mut requests: Vec<HashMap<TensorId, Tensor>> = (0..n)
            .map(|b| random_bindings(program, seed.wrapping_add(b as u64)))
            .collect();
        for r in &mut requests {
            for &id in &shared_weights {
                r.insert(id, weight_set[&id].clone());
            }
        }
        // Padding policy under test: trailing slots replicate the last
        // real request.
        let refs: Vec<&HashMap<TensorId, Tensor>> = (0..bucket as usize)
            .map(|slot| &requests[slot.min(n - 1)])
            .collect();
        let got_batched = pooled_runtime()
            .eval(cp, &batch_bindings(program, &refs))
            .map_err(|error| OracleError::Eval {
                stage,
                which: "after",
                error,
            })?;
        let split: HashMap<TensorId, Vec<Tensor>> = got_batched
            .iter()
            .map(|(id, t)| (*id, split_batch(t)))
            .collect();
        for (b, request) in requests.iter().enumerate() {
            let want = cp_solo.eval(request).map_err(|error| OracleError::Eval {
                stage,
                which: "before",
                error,
            })?;
            let want: HashMap<TensorId, Tensor> = program
                .outputs()
                .iter()
                .map(|id| (*id, want[id].clone()))
                .collect();
            let got: HashMap<TensorId, Tensor> =
                split.iter().map(|(id, v)| (*id, v[b].clone())).collect();
            compare_outputs(program, bp, stage, seed, &tol, true, &want, &got)?;
        }
    }

    // Second sweep: every lookup must hit without rebuilding.
    for n in 1..=max_batch {
        let (bucket, key) = key_for(n);
        let mut rebuilt = false;
        let _ = cache.get_or_build(key, &tracer, || {
            rebuilt = true;
            let binding = dp.table().bind(vec![bucket]).expect("bucket within bounds");
            let bp = dp.concretize(&binding);
            let cp = compile_program(&bp);
            (bp, cp)
        });
        if rebuilt {
            return Err(OracleError::Invalid {
                stage,
                detail: format!("bucket {bucket} recompiled on a warm lookup"),
                program: te_source(program),
            });
        }
    }
    let trace = tracer.snapshot();
    let distinct: usize = {
        let mut seen: Vec<i64> = Vec::new();
        for n in 1..=max_batch {
            let (bucket, _) = key_for(n);
            if !seen.contains(&bucket) {
                seen.push(bucket);
            }
        }
        seen.len()
    };
    let misses = trace.counters.get("shape_cache.miss").copied().unwrap_or(0);
    let hits = trace.counters.get("shape_cache.hit").copied().unwrap_or(0);
    let lookups = 2 * max_batch as u64;
    if misses != distinct as u64 || hits != lookups - distinct as u64 {
        return Err(OracleError::Invalid {
            stage,
            detail: format!(
                "cache counters off: {misses} misses / {hits} hits over {lookups} lookups, \
                 expected {distinct} misses (one per distinct bucket)"
            ),
            program: te_source(program),
        });
    }
    Ok(())
}

/// The [`Stage::KernelTier`] check: the naive interpreter provides ground
/// truth, and the compiled program must reproduce it **bit-exactly** both
/// with the kernel tier forced on and forced off. Any divergence between
/// the two forced modes therefore also surfaces (both are pinned to the
/// same reference), which is the tier's core contract: kernel selection
/// must never change a single output bit.
///
/// # Errors
///
/// Returns an [`OracleError`] under [`Stage::KernelTier`] when evaluation
/// fails on either side or any element differs by even one bit.
pub fn check_kernel_tier(program: &TeProgram, seed: u64) -> Result<(), OracleError> {
    let stage = Stage::KernelTier;
    let want = eval_with_random_inputs_using(program, seed, Evaluator::Naive).map_err(|error| {
        OracleError::Eval {
            stage,
            which: "before",
            error,
        }
    })?;
    let bindings = random_bindings(program, seed);
    let cp = compile_program(program);
    let tol = Tolerance::default(); // ignored: bit_exact comparison
    for kernels in [true, false] {
        let got = tier_runtime(kernels)
            .eval(&cp, &bindings)
            .map_err(|error| OracleError::Eval {
                stage,
                which: if kernels {
                    "after (kernel tier on)"
                } else {
                    "after (kernel tier off)"
                },
                error,
            })?;
        compare_outputs(program, program, stage, seed, &tol, true, &want, &got)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn compare_outputs(
    program: &TeProgram,
    transformed: &TeProgram,
    stage: Stage,
    seed: u64,
    tol: &Tolerance,
    bit_exact: bool,
    want: &HashMap<TensorId, Tensor>,
    got: &HashMap<TensorId, Tensor>,
) -> Result<(), OracleError> {
    for (id, w) in want {
        let name = program.tensor(*id).name.clone();
        let g = match got.get(id) {
            Some(g) => g,
            None => {
                return Err(OracleError::MissingOutput {
                    stage,
                    tensor: name,
                })
            }
        };
        let mut worst: Option<(usize, f32, f32, f32)> = None;
        let mut max_abs = 0.0f32;
        let mut max_ulps = 0u64;
        for (i, (&a, &b)) in w.data().iter().zip(g.data().iter()).enumerate() {
            let d = (a - b).abs();
            if d.is_nan() && !(a.is_nan() && b.is_nan()) {
                max_abs = f32::INFINITY;
            } else if d > max_abs {
                max_abs = d;
            }
            max_ulps = max_ulps.max(ulp_distance(a, b));
            let agree = if bit_exact {
                a.to_bits() == b.to_bits()
            } else {
                tol.close(a, b)
            };
            if !agree && worst.is_none_or(|(_, _, _, wd)| d > wd || d.is_nan()) {
                worst = Some((i, a, b, d));
            }
        }
        if g.shape() != w.shape() {
            worst = Some((0, 0.0, 0.0, f32::INFINITY));
        }
        if let Some((flat_index, expected, got_v, _)) = worst {
            return Err(OracleError::Mismatch(Box::new(Mismatch {
                stage,
                seed,
                tensor: name,
                flat_index,
                expected,
                got: got_v,
                max_abs_diff: max_abs,
                max_ulps,
                before_src: te_source(program),
                after_src: te_source(transformed),
            })));
        }
    }
    Ok(())
}

/// Runs [`check_stage`] for every [`Stage`] in pipeline order, stopping at
/// the first failure.
///
/// # Errors
///
/// Propagates the first stage's [`OracleError`].
pub fn check_all_stages(
    program: &TeProgram,
    seed: u64,
    tol: &Tolerance,
) -> Result<(), OracleError> {
    for stage in Stage::ALL {
        check_stage(program, stage, seed, tol)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    fn sample_program() -> TeProgram {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 6]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![6, 3]), DType::F32);
        let mm = builders::matmul(&mut p, "mm", a, w);
        let s = builders::sigmoid(&mut p, "sig", mm);
        let t = builders::transpose(&mut p, "t", s, &[1, 0]);
        p.mark_output(t);
        p
    }

    #[test]
    fn all_stages_preserve_sample_program() {
        let p = sample_program();
        for seed in [1, 77, 4242] {
            check_all_stages(&p, seed, &Tolerance::default()).unwrap();
        }
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(f32::NAN, f32::NAN), 0);
        assert_eq!(ulp_distance(1.0, f32::NAN), u64::MAX);
        // Distance is symmetric across zero.
        assert_eq!(
            ulp_distance(-f32::MIN_POSITIVE, f32::MIN_POSITIVE),
            2 * u64::from(f32::MIN_POSITIVE.to_bits())
        );
    }

    #[test]
    fn mismatch_report_names_seed_and_programs() {
        // Force a mismatch by comparing a program against a deliberately
        // different one through the Mismatch display path.
        let p = sample_program();
        let m = Mismatch {
            stage: Stage::Vertical,
            seed: 0xDEAD,
            tensor: "t".into(),
            flat_index: 3,
            expected: 1.0,
            got: 2.0,
            max_abs_diff: 1.0,
            max_ulps: 1 << 23,
            before_src: te_source(&p),
            after_src: te_source(&p),
        };
        let text = m.to_string();
        assert!(text.contains("0x000000000000dead"), "{text}");
        assert!(text.contains("te.compute"), "{text}");
        assert!(text.contains("vertical"), "{text}");
    }

    #[test]
    fn oracle_detects_a_broken_rewrite() {
        // Simulate a broken transform: compare the program against itself
        // with a perturbed constant. check_stage can't be used directly
        // (its stages are the real ones), so exercise the comparison core
        // through a scale-off-by-epsilon program pair via Tolerance.
        let tol = Tolerance::default();
        assert!(!tol.close(1.0, 1.01));
        assert!(tol.close(1.0, 1.0 + 1e-6));
        assert!(tol.close(1e30, 1.0000001e30)); // rtol/ulps regime
    }
}

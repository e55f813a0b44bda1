//! Wavefront-parallel runtime for compiled TE programs.
//!
//! PR 2's VM parallelized only *within* one TE (chunked output ranges on
//! fresh scoped threads) and executed TEs strictly one at a time. This
//! module adds the missing inter-TE dimension, following the paper's
//! global-analysis theme: the TE dependency graph is topologically
//! levelled into **wavefronts** ([`ExecPlan`]), every TE in a level is
//! independent of the others, and all their output chunks are submitted
//! together to a persistent work-stealing [`ThreadPool`] — so a large
//! matmul no longer idles the pool while small element-wise TEs wait, and
//! no threads are spawned per evaluation.
//!
//! A [`BufferArena`] recycles intermediate buffers: the plan records, per
//! level, which tensors die (their last consumer has run), and those
//! buffers are returned to the arena for reuse by later levels and by
//! subsequent `eval` calls.
//!
//! **Determinism.** Every output element is computed by the same
//! `run_chunk` code as the serial path, writing disjoint slices; element
//! values never depend on which worker computes them or on buffer
//! provenance (each element is written exactly once before any read). So
//! results are bit-identical across pool sizes, arena on/off, and the
//! naive interpreter — the `runtime_determinism` suite and the testkit
//! `CrossEvaluator` oracle stage enforce this.
//!
//! **Errors.** Which TEs fail (and at which element) depends only on
//! index expressions, never on data, but *discovery order* under
//! wavefront execution differs from the interpreter's definition order.
//! To keep the error contract exact, any failing evaluation discards its
//! partial results and re-runs serially in TE definition order, which
//! reproduces the interpreter's error bit for bit.

use crate::arena::{ArenaStats, BufferArena};
use crate::compile::{CompiledProgram, CompiledTe};
use crate::interp::EvalError;
use crate::kernels::{ExecOpts, KernelStats, KERNEL_TIER_ENV};
use crate::pool::{PoolStats, ThreadPool};
use crate::program::{TensorId, TensorKind};
use crate::vm::{detected_parallelism, env_threads, run_chunk, thread_count, SERIAL_THRESHOLD};
use souffle_tensor::Tensor;
use souffle_trace::{SpanId, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Target number of stealable chunks per execution stream; more chunks
/// than streams lets stealing balance uneven TE costs within a level.
const TASKS_PER_THREAD: usize = 4;

/// Synthetic Chrome-trace lane base for per-TE spans: members of one
/// wavefront level get lanes `BASE, BASE+1, …` so they render as parallel
/// tracks rather than stacking on the coordinator's thread.
const TRACE_LANE_BASE: u64 = 1000;

/// A wavefront execution plan for one [`CompiledProgram`]: TEs grouped
/// into dependency levels, plus per-level lists of tensors whose last
/// consumer is in that level (the arena recycles those).
///
/// Build with [`ExecPlan::from_compiled`] (derives levels and liveness
/// from the compiled program's own def-use edges) or
/// [`ExecPlan::with_levels_and_last_use`] (levels and liveness supplied
/// by `souffle-analysis`, validated against the program).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// TE indices (into [`CompiledProgram::tes`]) per level; every input
    /// of a level-`k` TE is produced at a level `< k`.
    levels: Vec<Vec<usize>>,
    /// Tensor-table indices that die after each level.
    free_after: Vec<Vec<usize>>,
}

impl ExecPlan {
    /// Derives the plan from the program's def-use edges: each TE's level
    /// is one more than the deepest of its producers (longest-path
    /// levelling, the same rule as `souffle-analysis`'s `TeGraph`).
    pub fn from_compiled(cp: &CompiledProgram) -> ExecPlan {
        let producer = producer_map(cp);
        let mut level_of = vec![0usize; cp.tes.len()];
        for (i, te) in cp.tes.iter().enumerate() {
            let lvl = te
                .inputs
                .iter()
                .filter_map(|tid| producer[tid.0])
                .map(|p| level_of[p] + 1)
                .max()
                .unwrap_or(0);
            level_of[i] = lvl;
        }
        let last_use = last_consumer_map(cp);
        ExecPlan::build(cp, &level_of, &last_use)
    }

    /// Builds a plan from externally computed levels and liveness (e.g.
    /// `souffle-analysis`'s dependence wavefronts and live ranges).
    ///
    /// `level_of[i]` is the wavefront of TE `i`; `last_use[t]` is the
    /// index of the last TE consuming tensor `t` (`None` when nothing
    /// consumes it). Free (bound) tensors and `Output`-kind tensors are
    /// never recycled regardless of `last_use`.
    ///
    /// # Panics
    ///
    /// Panics if the levels or liveness contradict the program: a TE
    /// scheduled no later than one of its producers, or a tensor marked
    /// dead before its actual last consumer has run. (Both would make
    /// execution read garbage, so they are programming errors, not
    /// recoverable conditions.)
    pub fn with_levels_and_last_use(
        cp: &CompiledProgram,
        level_of: &[usize],
        last_use: &[Option<usize>],
    ) -> ExecPlan {
        assert_eq!(
            level_of.len(),
            cp.tes.len(),
            "one level per TE required ({} TEs, {} levels)",
            cp.tes.len(),
            level_of.len()
        );
        assert_eq!(
            last_use.len(),
            cp.tensors.len(),
            "one last-use entry per tensor required"
        );
        let producer = producer_map(cp);
        for (i, te) in cp.tes.iter().enumerate() {
            for tid in &te.inputs {
                if let Some(p) = producer[tid.0] {
                    assert!(
                        level_of[p] < level_of[i],
                        "invalid wavefront levels: TE {} (level {}) consumes TE {} (level {})",
                        cp.tes[i].name,
                        level_of[i],
                        cp.tes[p].name,
                        level_of[p]
                    );
                }
            }
        }
        let actual = last_consumer_map(cp);
        for (t, &claimed) in last_use.iter().enumerate() {
            if let (Some(a), claimed) = (actual[t], claimed) {
                let claimed_lvl = claimed.map(|j| level_of[j]);
                assert!(
                    claimed_lvl.is_some_and(|c| c >= level_of[a]),
                    "liveness disagrees with program: tensor {} last read by TE {} (level {}), \
                     but claimed last use is {:?}",
                    cp.tensors[t].name,
                    cp.tes[a].name,
                    level_of[a],
                    claimed_lvl
                );
            }
        }
        ExecPlan::build(cp, level_of, last_use)
    }

    fn build(cp: &CompiledProgram, level_of: &[usize], last_use: &[Option<usize>]) -> ExecPlan {
        let n_levels = level_of.iter().map(|l| l + 1).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); n_levels];
        for (i, &lvl) in level_of.iter().enumerate() {
            levels[lvl].push(i);
        }
        let mut free_after = vec![Vec::new(); n_levels];
        let is_free: Vec<bool> = {
            let mut v = vec![false; cp.tensors.len()];
            for id in cp.free_tensors() {
                v[id.0] = true;
            }
            v
        };
        for (i, te) in cp.tes.iter().enumerate() {
            let t = te.output.0;
            if cp.tensors[t].kind == TensorKind::Output || is_free[t] {
                continue;
            }
            let dead_at = last_use[t].map_or(level_of[i], |j| level_of[j]);
            free_after[dead_at].push(t);
        }
        ExecPlan { levels, free_after }
    }

    /// TE indices per wavefront level.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Number of wavefront levels (the critical-path length).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

fn producer_map(cp: &CompiledProgram) -> Vec<Option<usize>> {
    let mut producer = vec![None; cp.tensors.len()];
    for (i, te) in cp.tes.iter().enumerate() {
        producer[te.output.0] = Some(i);
    }
    producer
}

fn last_consumer_map(cp: &CompiledProgram) -> Vec<Option<usize>> {
    let mut last = vec![None; cp.tensors.len()];
    for (i, te) in cp.tes.iter().enumerate() {
        for tid in &te.inputs {
            last[tid.0] = Some(i);
        }
    }
    last
}

/// Configuration for a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Execution streams (workers + the calling thread). `None` resolves
    /// via [`thread_count`] (`SOUFFLE_EVAL_THREADS`, else machine
    /// parallelism).
    pub threads: Option<usize>,
    /// Recycle intermediate buffers through the [`BufferArena`].
    pub arena: bool,
    /// Upper bound on the execution streams an `eval` actually uses.
    /// `None` caps at the machine's detected parallelism (or an explicit
    /// `SOUFFLE_EVAL_THREADS`, whichever is larger) — so an over-sized
    /// pool on a narrow machine falls back to inline execution instead of
    /// paying cross-thread handoffs that cannot run concurrently anyway.
    /// `Some(n)` pins the cap, forcing pool scheduling even past the
    /// detected parallelism (tests use this to exercise pools on
    /// single-core machines).
    pub max_parallelism: Option<usize>,
    /// Kernel-tier mode for TE dispatch ([`crate::kernels`]): `Some(true)`
    /// forces the specialized native kernels, `Some(false)` forces pure
    /// bytecode, `None` resolves via `SOUFFLE_KERNEL_TIER` (on when
    /// unset). Results are bit-identical either way — the differential
    /// suites force both sides.
    pub kernel_tier: Option<bool>,
    /// Relax `Sum` reduction order in the specialized dot kernels
    /// (multi-lane partial accumulators). Changes float results; off by
    /// default and excluded from every bit-identity oracle.
    pub fast_math: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            threads: None,
            arena: true,
            max_parallelism: None,
            kernel_tier: None,
            fast_math: false,
        }
    }
}

/// Combined runtime counters: arena reuse/allocation/high-water plus pool
/// task/steal/queue-depth stats. Snapshot via [`Runtime::stats`], or
/// drain per evaluation via [`Runtime::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Buffer-arena counters.
    pub arena: ArenaStats,
    /// Thread-pool counters (all zero for single-threaded runtimes).
    pub pool: PoolStats,
    /// Kernel-tier dispatch counters (all zero when the tier is off).
    pub kernels: KernelStats,
}

/// The persistent evaluation runtime: one work-stealing pool plus one
/// buffer arena, reused across every `eval` call made through it.
///
/// A runtime with `threads == 1` owns no pool and executes inline; the
/// level loop, chunking, and arena behave identically, so results are
/// bit-identical across pool sizes by construction.
#[derive(Debug)]
pub struct Runtime {
    threads: usize,
    /// Resolved parallelism cap ([`RuntimeOptions::max_parallelism`]);
    /// evaluation uses `threads.min(slots)` streams.
    slots: usize,
    /// `Some` iff `threads > 1`; sized to `threads - 1` workers (the
    /// scope-owning thread is the remaining execution stream). The pool
    /// may exist yet stay idle when `slots` caps execution to one stream.
    pool: Option<ThreadPool>,
    arena: Mutex<BufferArena>,
    arena_enabled: bool,
    /// [`RuntimeOptions::kernel_tier`], resolved per eval (the env
    /// fallback is re-read so CI can sweep `SOUFFLE_KERNEL_TIER`).
    kernel_tier: Option<bool>,
    fast_math: bool,
    /// Kernel dispatch counters, updated once per wavefront level by the
    /// coordinator thread (selection is static, so counts never depend on
    /// chunking or pool size).
    kernel_stats: Mutex<KernelStats>,
    /// The process-global runtime re-reads `SOUFFLE_EVAL_THREADS` on
    /// every call (tests toggle it); explicitly sized runtimes do not.
    honor_env: bool,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// Runtime with default options (machine thread count, arena on).
    pub fn new() -> Runtime {
        Runtime::with_options(RuntimeOptions::default())
    }

    /// Runtime with exactly `threads` execution streams and the arena on.
    /// The parallelism cap is pinned to `threads`, so the pool is
    /// exercised even on machines with fewer cores (the historical
    /// behavior every pool test relies on).
    pub fn with_threads(threads: usize) -> Runtime {
        Runtime::with_options(RuntimeOptions {
            threads: Some(threads),
            max_parallelism: Some(threads),
            ..RuntimeOptions::default()
        })
    }

    /// Runtime with explicit options.
    pub fn with_options(opts: RuntimeOptions) -> Runtime {
        let threads = opts.threads.unwrap_or_else(thread_count).max(1);
        let slots = opts
            .max_parallelism
            .unwrap_or_else(|| detected_parallelism().max(env_threads().unwrap_or(1)))
            .max(1);
        Runtime {
            threads,
            slots,
            pool: (threads > 1).then(|| ThreadPool::new(threads - 1)),
            arena: Mutex::new(BufferArena::new()),
            arena_enabled: opts.arena,
            kernel_tier: opts.kernel_tier,
            fast_math: opts.fast_math,
            kernel_stats: Mutex::new(KernelStats::default()),
            honor_env: false,
        }
    }

    /// Configured execution streams (pool workers + calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execution streams the next `eval` will actually use: the
    /// configured thread count capped at the resolved
    /// [`RuntimeOptions::max_parallelism`]. On a machine narrower than
    /// the configured pool this is smaller than [`Runtime::threads`] and
    /// evaluation runs inline — cross-thread handoffs cannot help when
    /// the streams cannot run concurrently. An explicit
    /// `SOUFFLE_EVAL_THREADS` on the env-honoring global runtime is taken
    /// verbatim (uncapped) so pinned CI runs still exercise the pool.
    pub fn effective_streams(&self) -> usize {
        if self.honor_env {
            match env_threads() {
                Some(n) => n,
                None => thread_count().min(self.slots),
            }
        } else {
            self.threads.min(self.slots)
        }
        .max(1)
    }

    /// Whether intermediate buffers are recycled across TEs and calls.
    pub fn arena_enabled(&self) -> bool {
        self.arena_enabled
    }

    /// Whether the next `eval` dispatches to the specialized kernel tier:
    /// the explicit [`RuntimeOptions::kernel_tier`] if set, otherwise the
    /// `SOUFFLE_KERNEL_TIER` environment variable, otherwise on.
    pub fn kernels_enabled(&self) -> bool {
        self.kernel_tier
            .or_else(|| crate::env_flag(KERNEL_TIER_ENV))
            .unwrap_or(true)
    }

    /// Whether relaxed-reduction fast math is enabled on this runtime.
    pub fn fast_math(&self) -> bool {
        self.fast_math
    }

    fn exec_opts(&self) -> ExecOpts {
        ExecOpts {
            kernels: self.kernels_enabled(),
            fast_math: self.fast_math,
        }
    }

    /// Cumulative arena reuse/allocation counters for this runtime.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.lock().expect("arena lock poisoned").stats()
    }

    /// Pool scheduling counters (zero for a single-threaded runtime).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool
            .as_ref()
            .map(ThreadPool::stats)
            .unwrap_or_default()
    }

    /// Arena + pool counters accumulated since runtime creation or the
    /// last [`Runtime::take_stats`].
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            arena: self.arena_stats(),
            pool: self.pool_stats(),
            kernels: *self.kernel_stats.lock().expect("kernel stats poisoned"),
        }
    }

    /// Drains both counter sets, returning what was accumulated and
    /// starting a fresh window. Before this existed, `BufferArena`
    /// counters accumulated across `eval` calls with no way to reset, so
    /// any per-evaluation reading (and the tracer counters derived from
    /// it) double-counted earlier runs.
    pub fn take_stats(&self) -> RuntimeStats {
        RuntimeStats {
            arena: self.arena.lock().expect("arena lock poisoned").take_stats(),
            pool: self
                .pool
                .as_ref()
                .map(ThreadPool::take_stats)
                .unwrap_or_default(),
            kernels: std::mem::take(&mut *self.kernel_stats.lock().expect("kernel stats poisoned")),
        }
    }

    /// Evaluates `cp`, returning **output tensors only** (intermediates
    /// are recycled through the arena). Levels come from
    /// [`ExecPlan::from_compiled`]; use [`Runtime::eval_with_plan`] to
    /// supply analysis-derived levels and liveness.
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's [`EvalError`]s, in the interpreter's
    /// order (failing runs fall back to serial definition-order
    /// execution to guarantee this).
    pub fn eval(
        &self,
        cp: &CompiledProgram,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, &ExecPlan::from_compiled(cp), bindings, false, None)
    }

    /// [`Runtime::eval`] recording an `eval` span (with per-level
    /// `level:<k>` children and per-TE `te:<name>` grandchildren) into
    /// `tracer`, nested under `parent` when given.
    ///
    /// Span *structure* is recorded by the calling thread in plan order,
    /// so it is identical for every pool size; only durations (gathered
    /// from the workers) vary. Results are bit-identical to
    /// [`Runtime::eval`] — tracing never touches data.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_traced(
        &self,
        cp: &CompiledProgram,
        bindings: &HashMap<TensorId, Tensor>,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(
            cp,
            &ExecPlan::from_compiled(cp),
            bindings,
            false,
            Some((tracer, parent)),
        )
    }

    /// [`Runtime::eval_traced`] with a caller-supplied [`ExecPlan`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_with_plan_traced(
        &self,
        cp: &CompiledProgram,
        plan: &ExecPlan,
        bindings: &HashMap<TensorId, Tensor>,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, plan, bindings, false, Some((tracer, parent)))
    }

    /// [`Runtime::eval_keeping_intermediates_with_plan`] recording spans
    /// into `tracer` (see [`Runtime::eval_traced`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_keeping_intermediates_with_plan_traced(
        &self,
        cp: &CompiledProgram,
        plan: &ExecPlan,
        bindings: &HashMap<TensorId, Tensor>,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, plan, bindings, true, Some((tracer, parent)))
    }

    /// [`Runtime::eval`] with a caller-supplied [`ExecPlan`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_with_plan(
        &self,
        cp: &CompiledProgram,
        plan: &ExecPlan,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, plan, bindings, false, None)
    }

    /// Evaluates `cp` keeping every TE-produced tensor (the
    /// [`CompiledProgram::eval`] compatibility contract, mirroring
    /// [`crate::interp::eval_program`]). No buffers are recycled during
    /// the run since all of them escape.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_keeping_intermediates(
        &self,
        cp: &CompiledProgram,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, &ExecPlan::from_compiled(cp), bindings, true, None)
    }

    /// [`Runtime::eval_keeping_intermediates`] with a caller-supplied
    /// plan.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::eval`].
    pub fn eval_keeping_intermediates_with_plan(
        &self,
        cp: &CompiledProgram,
        plan: &ExecPlan,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        self.eval_inner(cp, plan, bindings, true, None)
    }

    fn eval_inner(
        &self,
        cp: &CompiledProgram,
        plan: &ExecPlan,
        bindings: &HashMap<TensorId, Tensor>,
        keep_all: bool,
        trace: Option<(&Tracer, Option<SpanId>)>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        enum Slot<'a> {
            Empty,
            Bound(&'a Tensor),
            Owned(Vec<f32>),
        }
        let mut slots: Vec<Slot> = (0..cp.tensors.len()).map(|_| Slot::Empty).collect();
        for &id in cp.free_tensors() {
            let info = cp.tensor(id);
            let t = bindings.get(&id).ok_or_else(|| EvalError::Unbound {
                tensor: id,
                name: info.name.clone(),
            })?;
            if t.shape() != &info.shape {
                return Err(EvalError::ShapeMismatch {
                    tensor: id,
                    name: info.name.clone(),
                });
            }
            slots[id.0] = Slot::Bound(t);
        }
        let threads = self.effective_streams();
        let recycle = self.arena_enabled && !keep_all;
        let exec = self.exec_opts();

        // Tracing: the coordinator records every span (eval → level:<k> →
        // te:<name>) in plan order so the tree structure is identical for
        // every pool size; workers only contribute wall-clock timestamps
        // via the per-TE atomics below.
        let tracing = trace.filter(|(t, _)| t.is_enabled());
        let tr: Option<&Tracer> = tracing.map(|(t, _)| t);
        let eval_span = tracing.map(|(t, parent)| t.span_under("eval", parent));

        for (lvl, tes) in plan.levels.iter().enumerate() {
            let level_span = eval_span.as_ref().map(|e| e.child(&format!("level:{lvl}")));
            let level_t0 = tr.map_or(0, Tracer::now_ns);
            // (earliest chunk start, latest chunk end) per level member.
            let times: Vec<(AtomicU64, AtomicU64)> = if tr.is_some() {
                (0..tes.len())
                    .map(|_| (AtomicU64::new(u64::MAX), AtomicU64::new(0)))
                    .collect()
            } else {
                Vec::new()
            };
            let failed;
            // Phase 1: acquire output buffers and gather operand slices.
            // The operand refs borrow `slots`, so result insertion waits
            // until `work` is consumed below.
            // (TE index, output buffer, operand slices) per level member.
            type WorkItem<'a> = (usize, Vec<f32>, Vec<&'a [f32]>);
            let produced: Vec<(usize, Vec<f32>)> = {
                let mut work: Vec<WorkItem> = Vec::with_capacity(tes.len());
                for &ti in tes {
                    let te = &cp.tes[ti];
                    let n = te.out_shape.numel() as usize;
                    let buf = if self.arena_enabled {
                        self.arena.lock().expect("arena lock poisoned").take(n)
                    } else {
                        vec![0.0f32; n]
                    };
                    let operands: Vec<&[f32]> = te
                        .inputs
                        .iter()
                        .map(|tid| match &slots[tid.0] {
                            Slot::Bound(t) => t.data(),
                            Slot::Owned(v) => v.as_slice(),
                            Slot::Empty => {
                                panic!("plan bug: {tid} freed or unset before its last use")
                            }
                        })
                        .collect();
                    work.push((ti, buf, operands));
                }

                // Phase 2: execute the whole level. Each chunk writes a
                // disjoint slice; values are independent of the split.
                let pooled = threads > 1 && self.pool.is_some();
                let mut results: Vec<Vec<Result<(), EvalError>>> = work
                    .iter()
                    .map(|(ti, buf, _)| {
                        let n_chunks = if pooled {
                            let c = chunk_len(&cp.tes[*ti], threads);
                            buf.len().div_ceil(c.max(1))
                        } else {
                            1
                        };
                        vec![Ok(()); n_chunks.max(1)]
                    })
                    .collect();
                let total_tasks: usize = results.iter().map(Vec::len).sum();
                if !pooled || total_tasks <= 1 {
                    for (i, ((ti, buf, ops), res)) in work.iter_mut().zip(&mut results).enumerate()
                    {
                        match tr {
                            Some(t) => {
                                let t0 = t.now_ns();
                                res[0] = run_chunk(&cp.tes[*ti], 0, buf, ops, exec);
                                let t1 = t.now_ns();
                                times[i].0.fetch_min(t0, Ordering::Relaxed);
                                times[i].1.fetch_max(t1, Ordering::Relaxed);
                            }
                            None => res[0] = run_chunk(&cp.tes[*ti], 0, buf, ops, exec),
                        }
                    }
                } else {
                    let pool = self.pool.as_ref().expect("pooled implies pool");
                    pool.scope(|s| {
                        for (i, ((ti, buf, ops), res)) in
                            work.iter_mut().zip(&mut results).enumerate()
                        {
                            let te = &cp.tes[*ti];
                            let chunk = chunk_len(te, threads);
                            let ops: &[&[f32]] = ops;
                            let t_slot = times.get(i);
                            for ((ci, slice), r) in
                                buf.chunks_mut(chunk).enumerate().zip(res.iter_mut())
                            {
                                s.spawn(move || match (tr, t_slot) {
                                    (Some(t), Some(slot)) => {
                                        let t0 = t.now_ns();
                                        *r = run_chunk(te, ci * chunk, slice, ops, exec);
                                        let t1 = t.now_ns();
                                        slot.0.fetch_min(t0, Ordering::Relaxed);
                                        slot.1.fetch_max(t1, Ordering::Relaxed);
                                    }
                                    _ => *r = run_chunk(te, ci * chunk, slice, ops, exec),
                                });
                            }
                        }
                    });
                }
                failed = results.iter().flatten().any(|r| r.is_err());
                work.into_iter().map(|(ti, buf, _)| (ti, buf)).collect()
            };

            if failed {
                // Discard this level (recycling its buffers and everything
                // computed so far) and re-run serially in definition order
                // so the reported error is exactly the interpreter's.
                if self.arena_enabled {
                    let mut arena = self.arena.lock().expect("arena lock poisoned");
                    for (_, buf) in produced {
                        arena.give(buf);
                    }
                    for slot in &mut slots {
                        if let Slot::Owned(v) = std::mem::replace(slot, Slot::Empty) {
                            arena.give(v);
                        }
                    }
                }
                return eval_serial(cp, bindings, keep_all, exec);
            }

            // Tally kernel dispatches for the level (selection is static,
            // so counts are per-TE, independent of chunking or pool size).
            // A disabled tier records nothing: absent `kernels.*` counters
            // signal pure-bytecode execution.
            if exec.kernels {
                let mut ks = self.kernel_stats.lock().expect("kernel stats poisoned");
                for &ti in tes {
                    ks.record(cp.tes[ti].tier);
                }
            }

            // Record per-TE spans in plan order (structure deterministic;
            // timing from the atomics the executing threads filled). The
            // synthetic lane tid renders level members on parallel tracks
            // in chrome://tracing.
            if let (Some(t), Some(level)) = (tr, &level_span) {
                for (slot, &ti) in tes.iter().enumerate() {
                    let start = times[slot].0.load(Ordering::Relaxed);
                    let end = times[slot].1.load(Ordering::Relaxed);
                    let (start, end) = if start == u64::MAX {
                        // Zero-element TE: no chunk ever ran; pin the
                        // empty span at the level start so it still nests.
                        (level_t0, level_t0)
                    } else {
                        (start, end)
                    };
                    t.record_span(
                        &format!("te:{}", cp.tes[ti].name),
                        level.id(),
                        start,
                        end,
                        TRACE_LANE_BASE + slot as u64,
                    );
                }
            }

            // Phase 3: publish results, then retire tensors whose last
            // consumer was in this level.
            for (ti, buf) in produced {
                slots[cp.tes[ti].output.0] = Slot::Owned(buf);
            }
            if recycle {
                let mut arena = self.arena.lock().expect("arena lock poisoned");
                for &t in &plan.free_after[lvl] {
                    if let Slot::Owned(v) = std::mem::replace(&mut slots[t], Slot::Empty) {
                        arena.give(v);
                    }
                }
            }
        }

        let mut out = HashMap::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let info = &cp.tensors[i];
            match slot {
                Slot::Owned(v) => {
                    if keep_all || info.kind == TensorKind::Output {
                        out.insert(
                            TensorId(i),
                            Tensor::from_parts(info.shape.clone(), info.dtype, v),
                        );
                    } else if self.arena_enabled {
                        self.arena.lock().expect("arena lock poisoned").give(v);
                    }
                }
                Slot::Bound(t) => {
                    if info.kind == TensorKind::Output {
                        out.insert(TensorId(i), t.clone());
                    }
                }
                Slot::Empty => {}
            }
        }
        Ok(out)
    }
}

/// Chunk length (in output points) for one TE: aim for
/// [`TASKS_PER_THREAD`] stealable chunks per stream, but never chunks
/// cheaper than [`SERIAL_THRESHOLD`] body evaluations.
fn chunk_len(te: &CompiledTe, threads: usize) -> usize {
    let n = te.out_shape.numel() as usize;
    if n == 0 {
        return 1;
    }
    let reduce: usize = te.reduce.iter().product::<i64>().max(1) as usize;
    if n.saturating_mul(reduce) < SERIAL_THRESHOLD {
        return n;
    }
    let floor = (SERIAL_THRESHOLD / reduce).max(1);
    n.div_ceil(threads.max(1) * TASKS_PER_THREAD)
        .max(floor)
        .min(n)
}

/// Strictly serial evaluation in TE definition order — the interpreter's
/// error discovery order. Used as the fallback when a wavefront run hits
/// any error (the failing-element set is data-independent, so the rerun
/// fails identically, just in the canonical order).
fn eval_serial(
    cp: &CompiledProgram,
    bindings: &HashMap<TensorId, Tensor>,
    keep_all: bool,
    exec: ExecOpts,
) -> Result<HashMap<TensorId, Tensor>, EvalError> {
    let mut values: HashMap<TensorId, Tensor> = HashMap::new();
    for &id in cp.free_tensors() {
        let info = cp.tensor(id);
        let t = bindings.get(&id).ok_or_else(|| EvalError::Unbound {
            tensor: id,
            name: info.name.clone(),
        })?;
        if t.shape() != &info.shape {
            return Err(EvalError::ShapeMismatch {
                tensor: id,
                name: info.name.clone(),
            });
        }
        values.insert(id, t.clone());
    }
    for te in cp.tes() {
        let operands: Vec<&[f32]> = te
            .inputs
            .iter()
            .map(|tid| {
                values
                    .get(tid)
                    .unwrap_or_else(|| panic!("validated program: {tid} must be available"))
                    .data()
            })
            .collect();
        let mut data = vec![0.0f32; te.out_shape.numel() as usize];
        run_chunk(te, 0, &mut data, &operands, exec)?;
        let dtype = cp.tensor(te.output).dtype;
        values.insert(
            te.output,
            Tensor::from_parts(te.out_shape.clone(), dtype, data),
        );
    }
    if keep_all {
        for &id in cp.free_tensors() {
            if cp.tensor(id).kind != TensorKind::Output {
                values.remove(&id);
            }
        }
    } else {
        values.retain(|id, _| cp.tensor(*id).kind == TensorKind::Output);
    }
    Ok(values)
}

/// The process-global runtime backing [`CompiledProgram::eval`]: pool
/// sized once from [`thread_count`] at first use, arena enabled, and the
/// effective parallelism re-follows `SOUFFLE_EVAL_THREADS` per call.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mut rt = Runtime::new();
        rt.honor_env = true;
        rt
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::compile::compile_program;
    use crate::interp::{eval_program, random_bindings};
    use crate::program::TeProgram;
    use souffle_tensor::{DType, Shape};

    /// mm -> (sigmoid, exp) -> add: the canonical diamond.
    fn diamond() -> TeProgram {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![12, 16]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![16, 8]), DType::F32);
        let mm = builders::matmul(&mut p, "mm", a, w);
        let s = builders::sigmoid(&mut p, "sig", mm);
        let e = builders::exp(&mut p, "exp", mm);
        let out = builders::add(&mut p, "add", s, e);
        p.mark_output(out);
        p.validate().unwrap();
        p
    }

    #[test]
    fn diamond_levels_are_wavefronts() {
        let p = diamond();
        let cp = compile_program(&p);
        let plan = ExecPlan::from_compiled(&cp);
        assert_eq!(plan.levels(), &[vec![0], vec![1, 2], vec![3]]);
        assert_eq!(plan.num_levels(), 3);
    }

    #[test]
    fn diamond_intermediates_are_freed_at_last_use() {
        let p = diamond();
        let cp = compile_program(&p);
        let plan = ExecPlan::from_compiled(&cp);
        // mm's tensor dies after level 1 (sig+exp), sig/exp after level 2.
        let mm_tensor = cp.tes()[0].output.0;
        assert_eq!(plan.free_after[1], vec![mm_tensor]);
        assert_eq!(plan.free_after[2].len(), 2);
        assert!(plan.free_after[0].is_empty());
    }

    #[test]
    fn pooled_eval_matches_interpreter_on_diamond() {
        let p = diamond();
        let cp = compile_program(&p);
        let bindings = random_bindings(&p, 42);
        let want = eval_program(&p, &bindings).unwrap();
        let rt = Runtime::with_threads(4);
        // Repeated evals recycle arena buffers; stale data must never leak.
        for _ in 0..20 {
            let got = rt.eval(&cp, &bindings).unwrap();
            for id in p.outputs() {
                let (w, g) = (&want[&id], &got[&id]);
                assert_eq!(w.shape(), g.shape());
                for (a, b) in w.data().iter().zip(g.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        assert!(rt.arena_stats().reused > 0, "arena must recycle buffers");
    }

    #[test]
    fn keep_all_matches_full_interpreter_result() {
        let p = diamond();
        let cp = compile_program(&p);
        let bindings = random_bindings(&p, 7);
        let want = eval_program(&p, &bindings).unwrap();
        let got = Runtime::with_threads(2)
            .eval_keeping_intermediates(&cp, &bindings)
            .unwrap();
        assert_eq!(want.len(), got.len());
        for (id, w) in &want {
            for (a, b) in w.data().iter().zip(got[id].data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn invalid_levels_panic() {
        let p = diamond();
        let cp = compile_program(&p);
        let bad_levels = vec![0usize; cp.tes().len()]; // everything level 0
        let last_use = vec![None; 6];
        let r = std::panic::catch_unwind(|| {
            ExecPlan::with_levels_and_last_use(&cp, &bad_levels, &last_use)
        });
        assert!(r.is_err());
    }

    #[test]
    fn premature_liveness_panics() {
        let p = diamond();
        let cp = compile_program(&p);
        let plan = ExecPlan::from_compiled(&cp);
        let level_of = {
            let mut v = vec![0; cp.tes().len()];
            for (lvl, tes) in plan.levels().iter().enumerate() {
                for &t in tes {
                    v[t] = lvl;
                }
            }
            v
        };
        // Claim mm's tensor dies after its producer, before sig/exp read it.
        let mm_tensor = cp.tes()[0].output.0;
        let mut last_use = last_consumer_map(&cp);
        last_use[mm_tensor] = Some(0);
        let r = std::panic::catch_unwind(|| {
            ExecPlan::with_levels_and_last_use(&cp, &level_of, &last_use)
        });
        assert!(r.is_err());
    }

    /// The multi-thread-regression fix: a pool wider than the machine's
    /// useful parallelism must never schedule cross-thread handoffs — an
    /// over-sized runtime on a capped configuration runs inline, with
    /// results bit-identical to the pooled path.
    #[test]
    fn saturated_pool_never_schedules_cross_thread_handoffs() {
        let p = diamond();
        let cp = compile_program(&p);
        let bindings = random_bindings(&p, 11);
        let want = Runtime::with_threads(4).eval(&cp, &bindings).unwrap();

        let rt = Runtime::with_options(RuntimeOptions {
            threads: Some(8),
            max_parallelism: Some(1), // a single-slot machine
            ..RuntimeOptions::default()
        });
        assert_eq!(rt.threads(), 8, "configured width is reported verbatim");
        assert!(rt.pool.is_some(), "the pool exists; it must simply idle");
        assert_eq!(rt.effective_streams(), 1);
        for _ in 0..5 {
            let got = rt.eval(&cp, &bindings).unwrap();
            for id in p.outputs() {
                for (a, b) in want[&id].data().iter().zip(got[&id].data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        let stats = rt.pool_stats();
        assert_eq!(stats.tasks, 0, "no task may cross a thread boundary");
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn with_threads_pins_the_parallelism_cap() {
        // Pool tests rely on with_threads(n) exercising n streams even on
        // a single-core machine.
        let rt = Runtime::with_threads(4);
        assert_eq!(rt.effective_streams(), 4);
    }

    #[test]
    fn errors_match_interpreter_under_pooling() {
        use crate::expr::ScalarExpr;
        use souffle_affine::IndexExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        // Two failing TEs; the interpreter reports the first-defined one.
        let t1 = p.add_te(
            "bad1",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
        let t2 = p.add_te(
            "bad2",
            Shape::new(vec![9]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0).mul(2)]),
        );
        p.mark_output(t1);
        p.mark_output(t2);
        let bindings = random_bindings(&p, 1);
        let want = eval_program(&p, &bindings).unwrap_err();
        let cp = compile_program(&p);
        for rt in [Runtime::with_threads(1), Runtime::with_threads(4)] {
            assert_eq!(rt.eval(&cp, &bindings).unwrap_err(), want);
        }
    }
}

//! The end-to-end compilation pipeline.

use crate::SouffleOptions;
use souffle_analysis::AnalysisResult;
use souffle_baselines::{AnsorStrategy, Strategy, StrategyContext};
use souffle_gpusim::{simulate, ModelProfile, SimConfig};
use souffle_kernel::passes::{pipeline_pass, tensor_reuse_pass, PipelineStats, ReuseStats};
use souffle_kernel::{lower_partition, Kernel, LowerOptions};
use souffle_te::interp::EvalError;
use souffle_te::RewriteLog;
use souffle_te::{
    compile_program, CompiledProgram, ExecPlan, Runtime, RuntimeOptions, TeProgram, TensorId,
};
use souffle_tensor::Tensor;
use souffle_trace::{SpanId, Tracer};
use souffle_transform::{
    horizontal_fuse_program_logged, reduction_fuse_program_logged, vertical_fuse_program_logged,
    FusionStats, TransformStats,
};
use souffle_verify::{Certificate, Diagnostics};
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Duration;

/// Timing and statistics of one compilation (§8.5's overhead study).
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Horizontal + vertical transformation statistics.
    pub transform: TransformStats,
    /// Reduction-fusion stage counters (`fusion.*` on the trace spine):
    /// candidates, commits, cost rejections, and modeled bytes saved.
    pub fusion: FusionStats,
    /// LRU tensor-reuse pass statistics, summed over kernels.
    pub reuse: ReuseStats,
    /// Pipelining pass statistics, summed over kernels.
    pub pipeline: PipelineStats,
    /// Wall time of global analysis (dependence, classification,
    /// schedules, partitioning).
    pub analysis_time: Duration,
    /// Wall time of TE transformations.
    pub transform_time: Duration,
    /// Wall time of lowering + subprogram optimization.
    pub codegen_time: Duration,
    /// Wall time of the static verifier across all pipeline stages
    /// (zero when [`crate::SouffleOptions::verify`] is off).
    pub verify_time: Duration,
    /// Wall time of per-stage translation validation (zero when
    /// certification is off — see [`crate::SouffleOptions::certify`]).
    pub certify_time: Duration,
}

impl CompileStats {
    /// Total compilation wall time.
    pub fn total_time(&self) -> Duration {
        self.analysis_time
            + self.transform_time
            + self.codegen_time
            + self.verify_time
            + self.certify_time
    }
}

/// The result of compiling a model with Souffle.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The (possibly transformed) TE program that was lowered.
    pub program: TeProgram,
    /// Global analysis results for that program.
    pub analysis: AnalysisResult,
    /// Generated kernels in launch order.
    pub kernels: Vec<Kernel>,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Warning-severity verifier findings accumulated across pipeline
    /// stages (empty when verification is off). Errors never land here —
    /// they abort compilation.
    pub diagnostics: Diagnostics,
    /// Per-stage translation-validation certificates, in pipeline order
    /// (empty when certification is off). Each records what the certifier
    /// proved about that stage's rewrite.
    pub certificates: Vec<Certificate>,
}

impl Compiled {
    /// Number of kernels one inference launches.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Renders the generated kernels as CUDA-like source (the back-end
    /// code-generation stage, Fig. 2's `Fn_TE_Subprogram_0`).
    pub fn emit_cuda(&self) -> String {
        souffle_kernel::codegen::emit_model(&self.program, &self.kernels)
    }
}

/// Span names the pipeline records per compile, queried to derive
/// [`CompileStats`] durations (see DESIGN.md "Trace schema").
const VERIFY_SPANS: [&str; 6] = [
    "verify:frontend",
    "verify:horizontal",
    "verify:vertical",
    "verify:reduction-fusion",
    "verify:schedule-merge",
    "verify:kernel-lowering",
];

/// Translation-validation spans, one per certified stage (see
/// DESIGN.md "Translation validation").
const CERTIFY_SPANS: [&str; 4] = [
    "verify:certify:horizontal",
    "verify:certify:vertical",
    "verify:certify:reduction-fusion",
    "verify:certify:schedule-merge",
];

/// Pre-compile snapshot of per-span-name totals on a (possibly shared)
/// tracer, so one compile's stage durations can be extracted by delta even
/// when the same tracer has recorded earlier compiles or evals.
struct StageBaseline {
    base: HashMap<&'static str, u64>,
}

impl StageBaseline {
    const STAT_SPANS: [&'static str; 6] = [
        "analysis",
        "transform:horizontal",
        "transform:vertical",
        "transform:reduction",
        "lower",
        "subprogram-opt",
    ];

    fn capture(tracer: &Tracer) -> StageBaseline {
        let mut base = HashMap::new();
        for name in Self::STAT_SPANS
            .into_iter()
            .chain(VERIFY_SPANS)
            .chain(CERTIFY_SPANS)
        {
            base.insert(name, tracer.span_duration_ns(name));
        }
        StageBaseline { base }
    }

    /// Nanoseconds recorded under `names` since the capture.
    fn delta(&self, tracer: &Tracer, names: &[&'static str]) -> Duration {
        let ns: u64 = names
            .iter()
            .map(|n| tracer.span_duration_ns(n).saturating_sub(self.base[n]))
            .sum();
        Duration::from_nanos(ns)
    }
}

/// The Souffle compiler.
#[derive(Debug, Default)]
pub struct Souffle {
    options: SouffleOptions,
    /// Lazily created evaluation runtime (persistent work-stealing pool +
    /// buffer arena), shared by every `eval_reference` call on this
    /// compiler so pool threads and arena buffers are reused across
    /// inferences.
    runtime: OnceLock<Runtime>,
    /// Tracing sink for compile + eval instrumentation; disabled (free)
    /// unless installed via [`Souffle::with_tracer`] /
    /// [`Souffle::set_tracer`].
    tracer: Tracer,
}

impl Clone for Souffle {
    fn clone(&self) -> Self {
        // The runtime is per-instance state (pool threads, arena
        // buffers); a clone starts fresh and builds its own on first use.
        // The tracer clone feeds the same trace as the original.
        Souffle {
            options: self.options.clone(),
            runtime: OnceLock::new(),
            tracer: self.tracer.clone(),
        }
    }
}

impl Souffle {
    /// Creates a compiler with the given options.
    pub fn new(options: SouffleOptions) -> Self {
        Souffle {
            options,
            runtime: OnceLock::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Builder-style [`Souffle::set_tracer`].
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Installs a tracing sink. Every subsequent compile records
    /// `compile`/`verify:*`/`analysis:*`/`lower` spans into it, and every
    /// eval records `eval`/`level:*`/`te:*` spans plus `arena.*`/`pool.*`
    /// counters. Pass [`Tracer::disabled`] to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracing sink (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The active options.
    pub fn options(&self) -> &SouffleOptions {
        &self.options
    }

    /// The evaluation runtime, created on first use from
    /// [`SouffleOptions::eval_threads`] and then persistent for the
    /// lifetime of this compiler.
    pub fn runtime(&self) -> &Runtime {
        self.runtime.get_or_init(|| {
            Runtime::with_options(RuntimeOptions {
                threads: self.options.eval_threads,
                // An explicit thread request pins the cap (tests exercise
                // pools on narrow machines); the default adapts to the
                // machine and falls back to inline execution.
                max_parallelism: self.options.eval_threads,
                kernel_tier: self.options.kernel_tier,
                fast_math: self.options.fast_math,
            })
        })
    }

    /// Builds the wavefront execution plan for a compiled model from the
    /// global analysis: dependence-graph wavefronts give the levels, and
    /// the liveness pass gives each intermediate's last use (which keys
    /// the arena's buffer recycling). The plan constructor revalidates
    /// both against the program's def-use edges.
    fn exec_plan(compiled: &Compiled, cp: &CompiledProgram) -> ExecPlan {
        let mut level_of = vec![0usize; cp.tes().len()];
        for (lvl, wave) in compiled.analysis.wavefronts.iter().enumerate() {
            for te in wave {
                level_of[te.0] = lvl;
            }
        }
        let last_use: Vec<Option<usize>> = (0..compiled.program.num_tensors())
            .map(|i| {
                compiled
                    .analysis
                    .liveness
                    .get(&TensorId(i))
                    .and_then(|r| r.last_use)
            })
            .collect();
        ExecPlan::with_levels_and_last_use(cp, &level_of, &last_use)
    }

    /// Runs one verifier stage under a `verify:<stage>` span, accumulates
    /// warnings into `diags`, and fails with everything collected so far
    /// if the stage found errors. No-op when verification is disabled (no
    /// span is recorded, so `verify_time` stays zero).
    fn verify_stage(
        &self,
        tracer: &Tracer,
        parent: Option<SpanId>,
        diags: &mut Diagnostics,
        stage: &str,
        run: impl FnOnce() -> Diagnostics,
    ) -> Result<(), Diagnostics> {
        if !self.options.verify {
            return Ok(());
        }
        let _span = tracer.span_under(&format!("verify:{stage}"), parent);
        let found = run();
        let fail = found.has_errors();
        diags.merge(found);
        if fail {
            Err(std::mem::take(diags))
        } else {
            Ok(())
        }
    }

    /// Runs one translation-validation stage under a
    /// `verify:certify:<stage>` span: proves the stage's rewrite
    /// semantics-preserving, records the resulting [`Certificate`], and
    /// fails the compile on any unproven-equivalence error. Callers gate
    /// on [`crate::SouffleOptions::resolve_certify`].
    fn certify_stage(
        &self,
        tracer: &Tracer,
        parent: Option<SpanId>,
        diags: &mut Diagnostics,
        certs: &mut Vec<Certificate>,
        stage: &str,
        run: impl FnOnce() -> (Certificate, Diagnostics),
    ) -> Result<(), Diagnostics> {
        let _span = tracer.span_under(&format!("verify:certify:{stage}"), parent);
        let (cert, found) = run();
        let fail = found.has_errors();
        diags.merge(found);
        certs.push(cert);
        if fail {
            Err(std::mem::take(diags))
        } else {
            Ok(())
        }
    }

    /// Runs the full pipeline on a TE program, panicking if the static
    /// verifier rejects any stage's output. Use
    /// [`Souffle::compile_checked`] to receive the diagnostics instead.
    pub fn compile(&self, program: &TeProgram) -> Compiled {
        match self.compile_checked(program) {
            Ok(compiled) => compiled,
            Err(diags) => panic!("souffle-verify rejected the pipeline:\n{diags}"),
        }
    }

    /// Runs the full pipeline on a TE program, re-verifying the IR after
    /// every stage (frontend input, horizontal fusion, vertical fusion,
    /// schedule merging, kernel lowering) when
    /// [`crate::SouffleOptions::verify`] is set.
    ///
    /// # Errors
    ///
    /// Returns all diagnostics collected up to and including the first
    /// stage with an error-severity finding. Warnings alone never fail;
    /// they end up on [`Compiled::diagnostics`].
    pub fn compile_checked(&self, program: &TeProgram) -> Result<Compiled, Diagnostics> {
        // Stage timings come from trace spans (one mechanism for both
        // stats and tracing); when the user installed no tracer, a local
        // one records this compile only.
        let local;
        let tracer: &Tracer = if self.tracer.is_enabled() {
            &self.tracer
        } else {
            local = Tracer::new();
            &local
        };
        let baseline = StageBaseline::capture(tracer);
        let compile_span = tracer.span("compile");
        let root = compile_span.id();

        let mut stats = CompileStats::default();
        let mut diags = Diagnostics::new();
        let mut certs: Vec<Certificate> = Vec::new();
        let certify = self.options.resolve_certify();
        let spec = &self.options.spec;

        self.verify_stage(tracer, root, &mut diags, "frontend", || {
            souffle_verify::verify_program_stage(program, "frontend")
        })?;

        // --- Semantic-preserving TE transformations (§6.1, §6.2) ---
        let mut transformed = program.clone();
        if self.options.horizontal {
            let mut log = RewriteLog::new();
            let (p, s) = {
                let _span = tracer.span_under("transform:horizontal", root);
                horizontal_fuse_program_logged(&transformed, &mut log)
            };
            // The stage's input is kept for certification, not copied.
            let pre = std::mem::replace(&mut transformed, p);
            stats.transform.horizontal_groups = s.horizontal_groups;
            self.verify_stage(tracer, root, &mut diags, "horizontal", || {
                souffle_verify::verify_program_stage(&transformed, "horizontal")
            })?;
            if certify {
                self.certify_stage(tracer, root, &mut diags, &mut certs, "horizontal", || {
                    souffle_verify::certify_transform(&pre, &transformed, "horizontal", &log)
                })?;
            }
        }
        if self.options.vertical {
            let mut log = RewriteLog::new();
            let (p, s) = {
                let _span = tracer.span_under("transform:vertical", root);
                vertical_fuse_program_logged(&transformed, &mut log)
            };
            let pre = std::mem::replace(&mut transformed, p);
            stats.transform.vertical_fused = s.vertical_fused;
            self.verify_stage(tracer, root, &mut diags, "vertical", || {
                souffle_verify::verify_program_stage(&transformed, "vertical")
            })?;
            if certify {
                self.certify_stage(tracer, root, &mut diags, &mut certs, "vertical", || {
                    souffle_verify::certify_transform(&pre, &transformed, "vertical", &log)
                })?;
            }
        }
        // --- Data-movement-aware reduction fusion (fold inlining) ---
        if self.options.vertical && self.options.resolve_reduction_fusion() {
            let mut log = RewriteLog::new();
            let (p, s) = {
                let _span = tracer.span_under("transform:reduction", root);
                reduction_fuse_program_logged(&transformed, &mut log)
            };
            let pre = std::mem::replace(&mut transformed, p);
            stats.fusion = s;
            tracer.add("fusion.candidates", s.candidates as u64);
            tracer.add("fusion.fused", s.fused as u64);
            tracer.add("fusion.rejected_by_cost", s.rejected_by_cost as u64);
            tracer.add("fusion.bytes_saved", s.bytes_saved);
            self.verify_stage(tracer, root, &mut diags, "reduction-fusion", || {
                souffle_verify::verify_program_stage(&transformed, "reduction-fusion")
            })?;
            if certify {
                self.certify_stage(
                    tracer,
                    root,
                    &mut diags,
                    &mut certs,
                    "reduction-fusion",
                    || {
                        souffle_verify::certify_transform(
                            &pre,
                            &transformed,
                            "reduction-fusion",
                            &log,
                        )
                    },
                )?;
            }
        }
        stats.transform.tes_before = program.num_tes();
        stats.transform.tes_after = transformed.num_tes();

        // --- Global analysis + partitioning (§5) ---
        let analysis = AnalysisResult::analyze_traced(&transformed, spec, tracer, root);

        // --- Lowering (§6.4) + subprogram optimization (§6.5) ---
        let mut kernels = {
            let _span = tracer.span_under("lower", root);
            if self.options.global_sync {
                lower_partition(
                    &transformed,
                    &analysis.partition,
                    &analysis.schedules,
                    &analysis.classes,
                    LowerOptions::default(),
                )
            } else {
                // Without global sync, fall back to Ansor-style
                // epilogue-fused kernels over the transformed program
                // (the V0–V2 codegen).
                let ctx = StrategyContext::new(&transformed, spec);
                AnsorStrategy.compile(&ctx).kernels
            }
        };
        self.verify_stage(tracer, root, &mut diags, "schedule-merge", || {
            souffle_verify::verify_kernels_stage(&transformed, &kernels, "schedule-merge")
        })?;
        // Certify the merged schedules on the raw lowered streams — the
        // subprogram-opt passes below rewrite the instruction lists
        // (reuse elides loads) and are bytes-level, not dataflow-level.
        if certify {
            self.certify_stage(
                tracer,
                root,
                &mut diags,
                &mut certs,
                "schedule-merge",
                || souffle_verify::certify_schedule(&transformed, &kernels),
            )?;
        }
        if self.options.subprogram_opts {
            // Each block caches its tile of reused buffers; capacity
            // defaults to the device-wide shared memory.
            let cache = self
                .options
                .reuse_cache_bytes
                .unwrap_or(spec.num_sms as u64 * spec.shared_mem_per_sm);
            {
                let _span = tracer.span_under("subprogram-opt", root);
                for k in &mut kernels {
                    let r = tensor_reuse_pass(k, cache);
                    stats.reuse.loads_eliminated += r.loads_eliminated;
                    stats.reuse.bytes_saved += r.bytes_saved;
                    stats.reuse.bytes_spilled += r.bytes_spilled;
                    let p = pipeline_pass(k);
                    stats.pipeline.stages_pipelined += p.stages_pipelined;
                }
            }
            self.verify_stage(tracer, root, &mut diags, "kernel-lowering", || {
                souffle_verify::verify_kernels_stage(&transformed, &kernels, "kernel-lowering")
            })?;
        }
        drop(compile_span);
        stats.transform_time = baseline.delta(
            tracer,
            &[
                "transform:horizontal",
                "transform:vertical",
                "transform:reduction",
            ],
        );
        stats.analysis_time = baseline.delta(tracer, &["analysis"]);
        stats.codegen_time = baseline.delta(tracer, &["lower", "subprogram-opt"]);
        stats.verify_time = baseline.delta(tracer, &VERIFY_SPANS);
        stats.certify_time = baseline.delta(tracer, &CERTIFY_SPANS);

        Ok(Compiled {
            program: transformed,
            analysis,
            kernels,
            stats,
            diagnostics: diags,
            certificates: certs,
        })
    }

    /// Renders a human-readable compilation report: kernel/TE counts,
    /// per-stage timing (including verifier overhead), and the verifier's
    /// warnings deduplicated across stages (the same dead TE re-appears at
    /// every stage it survives).
    pub fn report(&self, compiled: &Compiled) -> String {
        use std::fmt::Write as _;
        let s = &compiled.stats;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compiled {} TEs -> {} kernels",
            compiled.program.num_tes(),
            compiled.num_kernels()
        );
        // Static kernel-tier census: which TEs the compiled evaluator runs
        // through specialized native loops vs the bytecode VM (the
        // per-eval dispatch counts surface as `kernels.*` trace counters).
        let census = compile_program(&compiled.program).kernel_census();
        let _ = writeln!(
            out,
            "  kernel tier: {} specialized (copy_rows {}, ew_tile {}, row_dot {}, \
             slice_dot {}, slice_reduce {}), {} bytecode",
            census.specialized(),
            census.copy_rows,
            census.ew_tile,
            census.row_dot,
            census.slice_dot,
            census.slice_reduce,
            census.bytecode()
        );
        let f = &s.fusion;
        let _ = writeln!(
            out,
            "  reduction fusion: {} candidates, {} fused, {} rejected by cost, \
             {} modeled bytes saved",
            f.candidates, f.fused, f.rejected_by_cost, f.bytes_saved
        );
        let _ = writeln!(
            out,
            "  transform {:?}  analysis {:?}  codegen {:?}  verify {:?}  certify {:?}  \
             (total {:?})",
            s.transform_time,
            s.analysis_time,
            s.codegen_time,
            s.verify_time,
            s.certify_time,
            s.total_time()
        );
        for c in &compiled.certificates {
            let _ = writeln!(out, "  {c}");
        }
        let mut seen = HashSet::new();
        for d in compiled.diagnostics.warnings() {
            if seen.insert((d.code, d.loc.clone(), d.message.clone())) {
                let _ = writeln!(
                    out,
                    "  {}[{}] {}: {}",
                    d.severity(),
                    d.code,
                    d.loc,
                    d.message
                );
            }
        }
        if self.tracer.is_enabled() {
            let trace = self.tracer.snapshot();
            if !trace.spans.is_empty() {
                out.push_str("trace:\n");
                for line in trace.tree_report().lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }

    /// Executes a compiled model on the simulated A100.
    pub fn simulate(&self, compiled: &Compiled) -> ModelProfile {
        simulate(&compiled.kernels, &self.sim_config())
    }

    /// Numerically evaluates the compiled (transformed) TE program on
    /// `bindings` with the compiled bytecode VM on this compiler's
    /// runtime, returning every tensor, intermediates included. This is
    /// the reference semantics of the generated kernels: what the lowered
    /// code must compute. The VM is bit-identical to the naive
    /// interpreter (`souffle_te::interp::eval_program`), which stays the
    /// inspectable ground truth.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] for missing/mis-shaped bindings or
    /// out-of-bounds reads.
    pub fn eval_reference(
        &self,
        compiled: &Compiled,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        let cp = compile_program(&compiled.program);
        let plan = Self::exec_plan(compiled, &cp);
        if self.tracer.is_enabled() {
            let result = self.runtime().eval_keeping_intermediates_with_plan_traced(
                &cp,
                &plan,
                bindings,
                &self.tracer,
                None,
            );
            self.record_runtime_counters();
            result
        } else {
            self.runtime()
                .eval_keeping_intermediates_with_plan(&cp, &plan, bindings)
        }
    }

    /// Drains the runtime's per-window stats into tracer counters after a
    /// traced eval (`arena.*` buffer recycling, `pool.*` work stealing,
    /// `kernels.*` specialized-tier dispatches and fallback reasons).
    fn record_runtime_counters(&self) {
        let rs = self.runtime().take_stats();
        let t = &self.tracer;
        t.add("arena.reused", rs.arena.reused);
        t.add("arena.allocated", rs.arena.allocated);
        t.high_water("arena.high_water_bytes", rs.arena.high_water_bytes);
        t.add("pool.tasks", rs.pool.tasks);
        t.add("pool.steals", rs.pool.steals);
        t.high_water("pool.max_queue_depth", rs.pool.max_queue_depth);
        for (name, v) in rs.kernels.counters() {
            t.add(name, v);
        }
    }

    /// The inference hot path: evaluates the compiled (transformed) TE
    /// program with the wavefront runtime and returns **output tensors
    /// only**. Intermediates are recycled through the runtime's buffer
    /// arena (keyed by the analysis liveness results), so repeated calls
    /// perform no per-inference allocation for them. Output values are
    /// bit-identical to [`Souffle::eval_reference`].
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] for missing/mis-shaped bindings or
    /// out-of-bounds reads, in the interpreter's order.
    pub fn eval_outputs(
        &self,
        compiled: &Compiled,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        let cp = compile_program(&compiled.program);
        let plan = Self::exec_plan(compiled, &cp);
        if self.tracer.is_enabled() {
            let result =
                self.runtime()
                    .eval_with_plan_traced(&cp, &plan, bindings, &self.tracer, None);
            self.record_runtime_counters();
            result
        } else {
            self.runtime().eval_with_plan(&cp, &plan, bindings)
        }
    }

    /// The simulator configuration Souffle-generated code runs under.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            spec: self.options.spec.clone(),
            ..SimConfig::a100()
        }
    }

    /// Convenience: compile and simulate in one call.
    pub fn run(&self, program: &TeProgram) -> (Compiled, ModelProfile) {
        let compiled = self.compile(program);
        let profile = self.simulate(&compiled);
        (compiled, profile)
    }

    /// Compiles an operator graph: every TE segment goes through the full
    /// pipeline; TE-unsupported operators become opaque library kernels
    /// that are never fused with their neighbours (§9, "Expression power
    /// of TE").
    pub fn compile_graph(
        &self,
        graph: &souffle_frontend::OpGraph,
    ) -> Result<GraphCompiled, souffle_frontend::GraphError> {
        let lowered = {
            let _span = self.tracer.span("frontend-lowering");
            graph.lower()?
        };
        let mut parts = Vec::new();
        for segment in lowered.segments {
            match segment {
                souffle_frontend::Segment::Te(program) => {
                    parts.push(GraphPart::Te(Box::new(self.compile(&program))));
                }
                souffle_frontend::Segment::Library(call) => {
                    parts.push(GraphPart::Library(library_kernel(&call)));
                }
            }
        }
        Ok(GraphCompiled { parts })
    }

    /// Simulates a compiled graph end to end.
    pub fn simulate_graph(&self, compiled: &GraphCompiled) -> ModelProfile {
        let kernels: Vec<Kernel> = compiled
            .parts
            .iter()
            .flat_map(|p| match p {
                GraphPart::Te(c) => c.kernels.clone(),
                GraphPart::Library(k) => vec![k.clone()],
            })
            .collect();
        simulate(&kernels, &self.sim_config())
    }
}

/// One compiled piece of an operator graph.
#[derive(Debug, Clone)]
pub enum GraphPart {
    /// A Souffle-compiled TE segment.
    Te(Box<Compiled>),
    /// An opaque library kernel.
    Library(Kernel),
}

/// A compiled operator graph: Souffle-optimized segments interleaved with
/// library kernels at the TE-unsupported operators.
#[derive(Debug, Clone)]
pub struct GraphCompiled {
    /// Parts in execution order.
    pub parts: Vec<GraphPart>,
}

impl GraphCompiled {
    /// Total kernels one inference launches.
    pub fn num_kernels(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                GraphPart::Te(c) => c.num_kernels(),
                GraphPart::Library(_) => 1,
            })
            .sum()
    }

    /// Number of library-call kernels.
    pub fn num_library_kernels(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| matches!(p, GraphPart::Library(_)))
            .count()
    }
}

/// Models a library operator as a single memory-streaming kernel: it reads
/// and writes its tensor once (the library implementation is tuned, but it
/// cannot fuse with anything around it).
fn library_kernel(call: &souffle_frontend::LibraryCall) -> Kernel {
    use souffle_kernel::{Instr, Stage};
    let bytes = call.output_shape.numel() as u64 * call.dtype.size_bytes();
    Kernel {
        name: format!("lib_{}", call.name),
        stages: vec![Stage {
            te: souffle_te::TeId(0),
            name: call.name.clone(),
            grid_blocks: ((call.output_shape.numel() + 255) / 256).max(1) as u64,
            threads_per_block: 256,
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            instrs: vec![
                Instr::LdGlobal {
                    tensor: souffle_te::TensorId(0),
                    bytes,
                },
                Instr::Fma { flops: bytes * 4 },
                Instr::StGlobal {
                    tensor: souffle_te::TensorId(0),
                    bytes,
                },
            ],
            pipelined: false,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    fn fig2_program() -> TeProgram {
        let mut p = TeProgram::new();
        let i0 = p.add_input("I0", Shape::new(vec![64, 64]), DType::F16);
        let w0 = p.add_weight("W0", Shape::new(vec![64, 64]), DType::F16);
        let o0 = builders::matmul(&mut p, "TE0", i0, w0);
        let o1 = builders::sigmoid(&mut p, "TE1", o0);
        let w2 = p.add_weight("W2", Shape::new(vec![64, 64]), DType::F16);
        let o2 = builders::matmul(&mut p, "TE2", o1, w2);
        let o3 = builders::add(&mut p, "TE3", o0, o2);
        let w4 = p.add_weight("W4", Shape::new(vec![64, 256]), DType::F16);
        let o4 = builders::matmul(&mut p, "TE4", o3, w4);
        p.mark_output(o4);
        p
    }

    #[test]
    fn full_pipeline_produces_fewer_kernels_than_v0() {
        let p = fig2_program();
        let (c0, prof0) = Souffle::new(SouffleOptions::v0()).run(&p);
        let (c4, prof4) = Souffle::new(SouffleOptions::full()).run(&p);
        assert!(c4.num_kernels() <= c0.num_kernels());
        assert!(prof4.total_time_s() <= prof0.total_time_s());
        assert!(prof4.global_read_bytes() <= prof0.global_read_bytes());
    }

    #[test]
    fn ablation_latency_is_monotonically_nonincreasing() {
        let p = fig2_program();
        let mut last = f64::INFINITY;
        for (name, opts) in SouffleOptions::ablation() {
            let (_, prof) = Souffle::new(opts).run(&p);
            let t = prof.total_time_s();
            assert!(
                t <= last * 1.05,
                "{name} regressed: {t:.3e} vs previous {last:.3e}"
            );
            last = t.min(last);
        }
    }

    #[test]
    fn transformed_program_still_validates() {
        let p = fig2_program();
        let compiled = Souffle::new(SouffleOptions::full()).compile(&p);
        compiled.program.validate().unwrap();
        assert!(compiled.stats.total_time() > Duration::ZERO);
    }

    #[test]
    fn full_pipeline_single_kernel_for_small_program() {
        let p = fig2_program();
        let compiled = Souffle::new(SouffleOptions::full()).compile(&p);
        // The Fig. 2 program fits in one grid-synchronized kernel.
        assert_eq!(compiled.num_kernels(), 1, "{:?}", compiled.kernels.len());
        assert!(compiled.kernels[0].uses_grid_sync());
    }

    #[test]
    fn graph_with_library_op_compiles_in_parts() {
        use souffle_frontend::{OpGraph, OpKind};
        let mut g = OpGraph::new();
        let x = g
            .add(
                "x",
                OpKind::Input(Shape::new(vec![1, 4, 8, 8]), DType::F32),
                &[],
            )
            .unwrap();
        let r = g
            .add("relu", OpKind::Unary(souffle_te::UnaryOp::Relu), &[x])
            .unwrap();
        let rs = g.add("resize", OpKind::Resize { size: 16 }, &[r]).unwrap();
        let s = g
            .add("sig", OpKind::Unary(souffle_te::UnaryOp::Sigmoid), &[rs])
            .unwrap();
        g.mark_output(s);
        let souffle = Souffle::new(SouffleOptions::full());
        let compiled = souffle.compile_graph(&g).unwrap();
        assert_eq!(compiled.num_library_kernels(), 1);
        assert!(compiled.num_kernels() >= 3, "{}", compiled.num_kernels());
        let profile = souffle.simulate_graph(&compiled);
        assert!(profile.total_time_s() > 0.0);
        assert!(profile
            .kernels
            .iter()
            .any(|k| k.name.starts_with("lib_resize")));
    }

    #[test]
    fn fully_expressible_graph_has_no_library_kernels() {
        use souffle_frontend::{OpGraph, OpKind};
        let mut g = OpGraph::new();
        let x = g
            .add("x", OpKind::Input(Shape::new(vec![8, 8]), DType::F16), &[])
            .unwrap();
        let w = g
            .add("w", OpKind::Weight(Shape::new(vec![8, 8]), DType::F16), &[])
            .unwrap();
        let mm = g.add("mm", OpKind::MatMul, &[x, w]).unwrap();
        let sm = g.add("sm", OpKind::Softmax, &[mm]).unwrap();
        g.mark_output(sm);
        let souffle = Souffle::new(SouffleOptions::full());
        let compiled = souffle.compile_graph(&g).unwrap();
        assert_eq!(compiled.num_library_kernels(), 0);
        assert_eq!(compiled.parts.len(), 1);
    }

    #[test]
    fn eval_reference_agrees_across_evaluators() {
        use souffle_te::interp::{eval_program, random_bindings};
        let p = fig2_program();
        let bindings = random_bindings(&p, 7);
        let fast = Souffle::new(SouffleOptions::full());
        let cf = fast.compile(&p);
        let want = eval_program(&cf.program, &bindings).unwrap();
        let got = fast.eval_reference(&cf, &bindings).unwrap();
        for id in p.outputs() {
            let (w, g) = (&want[&id], &got[&id]);
            assert_eq!(w.shape(), g.shape());
            for (a, b) in w.data().iter().zip(g.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn pooled_eval_reference_is_bit_identical_and_reuses_buffers() {
        use souffle_te::interp::{eval_program, random_bindings};
        let p = fig2_program();
        let bindings = random_bindings(&p, 21);
        let pooled = Souffle::new(SouffleOptions {
            eval_threads: Some(2),
            ..SouffleOptions::full()
        });
        assert_eq!(pooled.runtime().threads(), 2);
        let cf = pooled.compile(&p);
        let want = eval_program(&cf.program, &bindings).unwrap();
        // Repeated evals through one Souffle instance recycle the arena;
        // results must stay bit-identical every time.
        for round in 0..5 {
            let got = if round % 2 == 0 {
                pooled.eval_reference(&cf, &bindings).unwrap()
            } else {
                pooled.eval_outputs(&cf, &bindings).unwrap()
            };
            for id in p.outputs() {
                let (w, g) = (&want[&id], &got[&id]);
                assert_eq!(w.shape(), g.shape());
                for (a, b) in w.data().iter().zip(g.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        let stats = pooled.runtime().arena_stats();
        assert!(stats.reused > 0, "arena must recycle buffers: {stats:?}");
    }

    #[test]
    fn verifier_is_clean_on_fig2_at_every_stage() {
        let p = fig2_program();
        for (name, mut opts) in SouffleOptions::ablation() {
            opts.verify = true;
            let compiled = Souffle::new(opts).compile_checked(&p).unwrap();
            assert!(
                !compiled.diagnostics.has_errors(),
                "{name}: {}",
                compiled.diagnostics
            );
            assert_eq!(compiled.diagnostics.num_warnings(), 0, "{name}");
            assert!(compiled.stats.verify_time > Duration::ZERO, "{name}");
        }
    }

    #[test]
    fn compile_checked_rejects_oob_program_at_frontend() {
        use souffle_te::ScalarExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let out = p.add_tensor(
            "o",
            Shape::new(vec![4]),
            DType::F32,
            souffle_te::TensorKind::Output,
        );
        p.push_te(souffle_te::TensorExpr {
            name: "o".into(),
            output: out,
            inputs: vec![a],
            reduce: vec![],
            reduce_op: None,
            body: ScalarExpr::input(
                0,
                vec![souffle_affine::IndexExpr::var(0).add(souffle_affine::IndexExpr::constant(4))],
            ),
        });
        let mut opts = SouffleOptions::full();
        opts.verify = true;
        let err = Souffle::new(opts).compile_checked(&p).unwrap_err();
        assert!(err.has_code(souffle_verify::Code::OobAccess), "{err}");
        assert!(err.iter().any(|d| d.stage.as_deref() == Some("frontend")));
    }

    #[test]
    fn report_surfaces_lint_warnings_once() {
        let mut p = fig2_program();
        let dead_src = p.add_input("X", Shape::new(vec![8]), DType::F32);
        let _dead = builders::exp(&mut p, "dead", dead_src);
        let mut opts = SouffleOptions::full();
        opts.verify = true;
        let souffle = Souffle::new(opts);
        let compiled = souffle.compile(&p);
        assert!(compiled.diagnostics.has_code(souffle_verify::Code::DeadTe));
        let report = souffle.report(&compiled);
        assert!(report.contains("warning[SV201]"), "{report}");
        // The same dead TE survives every stage, but the report
        // deduplicates it to one line.
        assert_eq!(report.matches("SV201").count(), 1, "{report}");
        assert!(report.contains("kernels"), "{report}");
    }

    #[test]
    fn verify_off_skips_verification() {
        let mut opts = SouffleOptions::full();
        opts.verify = false;
        let compiled = Souffle::new(opts).compile(&fig2_program());
        assert_eq!(compiled.stats.verify_time, Duration::ZERO);
        assert!(compiled.diagnostics.is_empty());
    }

    #[test]
    fn reuse_pass_reports_savings_on_temporal_reuse() {
        let p = fig2_program();
        let compiled = Souffle::new(SouffleOptions::full()).compile(&p);
        // O0 is consumed twice (TE1, TE3): the second consumer hits the
        // cache.
        assert!(
            compiled.stats.reuse.loads_eliminated > 0,
            "{:?}",
            compiled.stats.reuse
        );
    }
}

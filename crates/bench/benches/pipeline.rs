//! Component-level benches (in-tree wall-clock harness): each pipeline
//! stage in isolation, the naive-vs-compiled evaluator comparison on a
//! BERT-sized TE program, plus ablation benches for the design choices
//! DESIGN.md calls out (level-based independence, batched vertical fusion,
//! LRU capacity).
//!
//! Run with `cargo bench -p souffle-bench --bench pipeline`; tune the
//! per-benchmark time budget with `TESTKIT_BENCH_MS` (default 100 ms).
//! Besides the console table, results are written machine-readably to
//! `results/bench_pipeline.json`.

use souffle::trace::summary::TraceSummary;
use souffle::trace::{chrome, Tracer};
use souffle::{Souffle, SouffleOptions};
use souffle_analysis::{
    classify_program, find_reuse, live_ranges, partition_program, AnalysisResult, TeGraph,
};
use souffle_bench::tiny_program;
use souffle_frontend::models::bert::{build as build_bert, BertConfig};
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_kernel::passes::tensor_reuse_pass;
use souffle_kernel::{lower_partition, LowerOptions, LruCache};
use souffle_sched::{schedule_program, GpuSpec};
use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{compile_program, thread_count, ExecPlan, Runtime, RuntimeOptions, TensorId};
use souffle_testkit::timer::{black_box, Bench, Timing};
use souffle_transform::{horizontal_fuse_program, program_traffic, vertical_fuse_program};

fn bench_analysis_stages(b: &mut Bench) {
    let program = build_model(Model::Bert, ModelConfig::Tiny);
    let spec = GpuSpec::a100();
    let graph = TeGraph::build(&program);
    let schedules = schedule_program(&program, &spec);
    let classes = classify_program(&program);

    b.group("pipeline_analysis");
    b.run("graph_build", || TeGraph::build(black_box(&program)));
    b.run("classify", || classify_program(black_box(&program)));
    b.run("reuse", || find_reuse(black_box(&program), &graph));
    b.run("liveness", || live_ranges(black_box(&program)));
    b.run("schedule", || schedule_program(black_box(&program), &spec));
    b.run("partition", || {
        partition_program(black_box(&program), &graph, &classes, &schedules, &spec)
    });
    b.run("full_analysis", || {
        AnalysisResult::analyze(black_box(&program), &spec)
    });
}

fn bench_transforms(b: &mut Bench) {
    b.group("pipeline_transforms");
    for model in [Model::Bert, Model::Mmoe, Model::Lstm] {
        let program = tiny_program(model);
        b.run(&format!("horizontal/{model}"), || {
            horizontal_fuse_program(black_box(&program))
        });
        b.run(&format!("vertical/{model}"), || {
            vertical_fuse_program(black_box(&program))
        });
    }
}

fn bench_lowering(b: &mut Bench) {
    let program = build_model(Model::Bert, ModelConfig::Tiny);
    let spec = GpuSpec::a100();
    let analysis = AnalysisResult::analyze(&program, &spec);
    b.group("pipeline_lowering");
    b.run("lower_partition", || {
        lower_partition(
            black_box(&program),
            &analysis.partition,
            &analysis.schedules,
            &analysis.classes,
            LowerOptions::default(),
        )
    });
    let kernels = lower_partition(
        &program,
        &analysis.partition,
        &analysis.schedules,
        &analysis.classes,
        LowerOptions::default(),
    );
    b.run("tensor_reuse_pass", || {
        let mut ks = kernels.clone();
        for k in &mut ks {
            tensor_reuse_pass(k, 16 << 20);
        }
        ks
    });
}

/// Speedup summary of the naive-vs-compiled evaluator comparison, for the
/// JSON report. Thread counts are recorded **per row** — the actual pool
/// size each row ran with, not a process-wide guess.
struct EvaluatorSummary {
    workload: String,
    naive_mean_ns: f64,
    compiled_1t_mean_ns: f64,
    compiled_1t_nokernels_mean_ns: f64,
    compiled_1t_fastmath_mean_ns: f64,
    compiled_mt_mean_ns: f64,
    compiled_mt_arena_mean_ns: f64,
    threads_1t: usize,
    threads_mt: usize,
    arena: souffle_te::ArenaStats,
    /// Static per-eval kernel-selection census of the BERT program.
    census: souffle_te::KernelStats,
    /// Dynamic dispatch counters drained from the kernel-tier row's
    /// runtime (census × evaluations; nonzero proves the tier actually
    /// dispatched).
    dispatched: souffle_te::KernelStats,
}

/// Naive interpreter vs compiled VM on a BERT-sized TE program: 2
/// transformer layers at sequence length 64, hidden 64 — large enough
/// that evaluation is dominated by the attention/FFN matmuls, small
/// enough that the naive interpreter still finishes within the bench
/// budget.
///
/// Each compiled row builds its own persistent [`Runtime`] so the recorded
/// stream count is exactly what that row used: `compiled_1t` pins one
/// execution stream (the honest single-thread speedup); `compiled_mt`
/// asks for the machine parallelism (or `SOUFFLE_EVAL_THREADS`) floored
/// at 2, but leaves the adaptive parallelism cap in place — on a
/// single-core container the runtime falls back to inline execution
/// rather than paying cross-thread handoffs that cannot run concurrently
/// (the old behavior made `compiled_mt` *slower* than `compiled_1t`
/// here), and `threads_mt` records the effective streams so the JSON
/// states what actually ran. Both keep intermediates, matching what the
/// naive interpreter returns; `compiled_mt_arena` is the outputs-only hot
/// path where the arena recycles every intermediate buffer across TEs and
/// calls.
fn bench_evaluators(b: &mut Bench) -> EvaluatorSummary {
    let cfg = BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        seq: 64,
        ffn: 256,
    };
    let program = build_bert(&cfg);
    let bindings = random_bindings(&program, 7);
    let compiled = compile_program(&program);
    let plan = ExecPlan::from_compiled(&compiled);

    let rt_1t = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        ..RuntimeOptions::default()
    });
    let rt_1t_nok = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(false),
        ..RuntimeOptions::default()
    });
    let rt_1t_fast = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        fast_math: true,
    });
    let mt_threads = thread_count().max(2);
    let rt_mt = Runtime::with_options(RuntimeOptions {
        threads: Some(mt_threads),
        max_parallelism: None, // adapt: inline when the machine can't help
        kernel_tier: Some(true),
        ..RuntimeOptions::default()
    });

    b.group("evaluator_bert");
    let naive_mean_ns = b
        .run("naive", || eval_program(black_box(&program), &bindings))
        .mean_ns;
    let compiled_1t_mean_ns = b
        .run("compiled_1t", || {
            rt_1t.eval_keeping_intermediates_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .mean_ns;
    let compiled_1t_nokernels_mean_ns = b
        .run("compiled_1t_nokernels", || {
            rt_1t_nok.eval_keeping_intermediates_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .mean_ns;
    let compiled_1t_fastmath_mean_ns = b
        .run("compiled_1t_fastmath", || {
            rt_1t_fast.eval_keeping_intermediates_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .mean_ns;
    let compiled_mt_mean_ns = b
        .run("compiled_mt", || {
            rt_mt.eval_keeping_intermediates_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .mean_ns;
    let compiled_mt_arena_mean_ns = b
        .run("compiled_mt_arena", || {
            rt_mt.eval_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .mean_ns;
    EvaluatorSummary {
        workload: format!(
            "bert(layers={}, hidden={}, heads={}, seq={}, ffn={})",
            cfg.layers, cfg.hidden, cfg.heads, cfg.seq, cfg.ffn
        ),
        naive_mean_ns,
        compiled_1t_mean_ns,
        compiled_1t_nokernels_mean_ns,
        compiled_1t_fastmath_mean_ns,
        compiled_mt_mean_ns,
        compiled_mt_arena_mean_ns,
        threads_1t: rt_1t.effective_streams(),
        threads_mt: rt_mt.effective_streams(),
        arena: rt_mt.arena_stats(),
        census: compiled.kernel_census(),
        dispatched: rt_1t.take_stats().kernels,
    }
}

/// Per-model evaluator rows for the smaller pipeline models: LSTM and
/// MMoE, each with the naive interpreter, the specialized kernel tier
/// (`compiled_1t`), and the pure bytecode VM (`compiled_1t_nokernels`) —
/// the same single-stream A/B as BERT above, so the JSON report prices
/// the kernel tier across body-shape mixes (LSTM is gate-matmul heavy,
/// MMoE is small-dot heavy).
struct ModelEval {
    model: &'static str,
    naive_mean_ns: f64,
    compiled_1t_mean_ns: f64,
    compiled_1t_nokernels_mean_ns: f64,
    census: souffle_te::KernelStats,
}

fn bench_model_evaluators(b: &mut Bench) -> Vec<ModelEval> {
    let rt_1t = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        ..RuntimeOptions::default()
    });
    let rt_1t_nok = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(false),
        ..RuntimeOptions::default()
    });
    let mut rows = Vec::new();
    for (model, name) in [(Model::Lstm, "lstm"), (Model::Mmoe, "mmoe")] {
        let program = tiny_program(model);
        let bindings = random_bindings(&program, 7);
        let compiled = compile_program(&program);
        let plan = ExecPlan::from_compiled(&compiled);
        b.group(&format!("evaluator_{name}"));
        let naive_mean_ns = b
            .run("naive", || eval_program(black_box(&program), &bindings))
            .mean_ns;
        let compiled_1t_mean_ns = b
            .run("compiled_1t", || {
                rt_1t.eval_keeping_intermediates_with_plan(black_box(&compiled), &plan, &bindings)
            })
            .mean_ns;
        let compiled_1t_nokernels_mean_ns = b
            .run("compiled_1t_nokernels", || {
                rt_1t_nok.eval_keeping_intermediates_with_plan(
                    black_box(&compiled),
                    &plan,
                    &bindings,
                )
            })
            .mean_ns;
        rows.push(ModelEval {
            model: name,
            naive_mean_ns,
            compiled_1t_mean_ns,
            compiled_1t_nokernels_mean_ns,
            census: compiled.kernel_census(),
        });
    }
    rows
}

/// One reduction-fusion A/B row: the same model compiled through the full
/// pipeline with the fusion stage forced off and on — TE and kernel
/// counts, the traffic model's bytes-moved totals, the stage's own
/// counters, and the measured single-stream wall-clock of evaluating each
/// transformed program.
struct FusionRow {
    model: String,
    tes_off: usize,
    tes_on: usize,
    kernels_off: usize,
    kernels_on: usize,
    modeled_bytes_off: u64,
    modeled_bytes_on: u64,
    stats: souffle_transform::FusionStats,
    eval_off_mean_ns: f64,
    eval_on_mean_ns: f64,
}

/// The reduction-fusion A/B: BERT at bench scale (softmax + layernorm
/// chains behind real matmuls) and Swin-T at test scale (layernorm-heavy
/// window attention) through the full pipeline with
/// `SouffleOptions::reduction_fusion` forced both ways. The fused
/// program's folds run on the bytecode VM's per-slice fold cache; the
/// unfused one materializes the reductions — the rows price that trade
/// end to end.
fn bench_reduction_fusion(b: &mut Bench) -> Vec<FusionRow> {
    let rt = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        ..RuntimeOptions::default()
    });
    let bert_cfg = BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        seq: 64,
        ffn: 256,
    };
    let workloads = vec![
        ("bert(bench)".to_string(), build_bert(&bert_cfg)),
        (
            "swin(tiny)".to_string(),
            tiny_program(Model::SwinTransformer),
        ),
    ];
    b.group("reduction_fusion");
    let mut rows = Vec::new();
    for (name, program) in workloads {
        let compile_with = |fusion: bool| {
            let mut opts = SouffleOptions::full();
            opts.reduction_fusion = Some(fusion);
            Souffle::new(opts).compile(&program)
        };
        let off = compile_with(false);
        let on = compile_with(true);
        let bindings = random_bindings(&program, 7);
        let cp_off = compile_program(&off.program);
        let plan_off = ExecPlan::from_compiled(&cp_off);
        let cp_on = compile_program(&on.program);
        let plan_on = ExecPlan::from_compiled(&cp_on);
        let eval_off_mean_ns = b
            .run(&format!("eval_1t_off/{name}"), || {
                rt.eval_with_plan(black_box(&cp_off), &plan_off, &bindings)
            })
            .mean_ns;
        let eval_on_mean_ns = b
            .run(&format!("eval_1t_on/{name}"), || {
                rt.eval_with_plan(black_box(&cp_on), &plan_on, &bindings)
            })
            .mean_ns;
        rows.push(FusionRow {
            model: name,
            tes_off: off.program.num_tes(),
            tes_on: on.program.num_tes(),
            kernels_off: off.num_kernels(),
            kernels_on: on.num_kernels(),
            modeled_bytes_off: program_traffic(&off.program).total(),
            modeled_bytes_on: program_traffic(&on.program).total(),
            stats: on.stats.fusion,
            eval_off_mean_ns,
            eval_on_mean_ns,
        });
    }
    rows
}

/// The explicit no-fusion baseline (ROADMAP item-5 follow-up): the same
/// workloads as the reduction-fusion A/B compiled per-TE
/// (`SouffleOptions::v0`, Ansor-style epilogue codegen only) and through
/// the full fused pipeline, so the Table 3/5 bins have a fusion-off
/// reference row.
struct BaselineRow {
    model: String,
    tes_nofuse: usize,
    tes_full: usize,
    kernels_nofuse: usize,
    kernels_full: usize,
    modeled_bytes_nofuse: u64,
    modeled_bytes_full: u64,
    eval_nofuse_mean_ns: f64,
    eval_full_mean_ns: f64,
}

fn bench_baselines(b: &mut Bench) -> Vec<BaselineRow> {
    let rt = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        ..RuntimeOptions::default()
    });
    let bert_cfg = BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        seq: 64,
        ffn: 256,
    };
    let workloads = vec![
        ("bert(bench)".to_string(), build_bert(&bert_cfg)),
        (
            "swin(tiny)".to_string(),
            tiny_program(Model::SwinTransformer),
        ),
    ];
    b.group("baselines");
    let mut rows = Vec::new();
    for (name, program) in workloads {
        let nofuse = Souffle::new(SouffleOptions::v0()).compile(&program);
        let full = Souffle::new(SouffleOptions::full()).compile(&program);
        let bindings = random_bindings(&program, 7);
        let cp_nofuse = compile_program(&nofuse.program);
        let plan_nofuse = ExecPlan::from_compiled(&cp_nofuse);
        let cp_full = compile_program(&full.program);
        let plan_full = ExecPlan::from_compiled(&cp_full);
        let eval_nofuse_mean_ns = b
            .run(&format!("eval_1t_nofuse/{name}"), || {
                rt.eval_with_plan(black_box(&cp_nofuse), &plan_nofuse, &bindings)
            })
            .mean_ns;
        let eval_full_mean_ns = b
            .run(&format!("eval_1t_full/{name}"), || {
                rt.eval_with_plan(black_box(&cp_full), &plan_full, &bindings)
            })
            .mean_ns;
        rows.push(BaselineRow {
            model: name,
            tes_nofuse: nofuse.program.num_tes(),
            tes_full: full.program.num_tes(),
            kernels_nofuse: nofuse.num_kernels(),
            kernels_full: full.num_kernels(),
            modeled_bytes_nofuse: program_traffic(&nofuse.program).total(),
            modeled_bytes_full: program_traffic(&full.program).total(),
            eval_nofuse_mean_ns,
            eval_full_mean_ns,
        });
    }
    rows
}

/// Tracing overhead + trace summary for the JSON report: the same LSTM
/// pipeline eval with no tracer argument, with a disabled tracer threaded
/// through, and with a live tracer recording every span.
struct TracingSummary {
    workload: String,
    untraced: Timing,
    disabled: Timing,
    enabled: Timing,
    summary_json: String,
    chrome_json: String,
}

impl TracingSummary {
    /// Overhead ratios from the per-row **minimum** — the robust statistic
    /// on a noisy shared machine, where means are dominated by scheduler
    /// outliers and tracing cost is strictly additive.
    fn overhead_disabled(&self) -> f64 {
        self.disabled.min_ns as f64 / self.untraced.min_ns as f64 - 1.0
    }
    fn overhead_enabled(&self) -> f64 {
        self.enabled.min_ns as f64 / self.untraced.min_ns as f64 - 1.0
    }
}

/// The observability contract is "~free when disabled": threading a
/// disabled [`Tracer`] through the wavefront executor must cost within
/// noise of the untraced entry point (documented bound: ≤5 % on the LSTM
/// pipeline bench). The enabled row prices actual span recording — a
/// fresh tracer per call, like `--trace-out` uses — and the one-shot
/// traced compile+eval below feeds the `trace_summary` object embedded in
/// `results/bench_pipeline.json`.
fn bench_tracing(b: &mut Bench) -> TracingSummary {
    let program = build_model(Model::Lstm, ModelConfig::Tiny);
    let bindings = random_bindings(&program, 11);
    let compiled = compile_program(&program);
    let plan = ExecPlan::from_compiled(&compiled);
    let rt = Runtime::with_options(RuntimeOptions {
        threads: Some(thread_count().max(2)),
        max_parallelism: None, // adapt: inline when the machine can't help
        ..RuntimeOptions::default()
    });

    b.group("tracing_lstm");
    let untraced = b
        .run("eval_untraced", || {
            rt.eval_with_plan(black_box(&compiled), &plan, &bindings)
        })
        .clone();
    let off = Tracer::disabled();
    let disabled = b
        .run("eval_tracer_disabled", || {
            rt.eval_with_plan_traced(black_box(&compiled), &plan, &bindings, &off, None)
        })
        .clone();
    let enabled = b
        .run("eval_tracer_enabled", || {
            let tracer = Tracer::new();
            rt.eval_with_plan_traced(black_box(&compiled), &plan, &bindings, &tracer, None)
        })
        .clone();

    let tracer = Tracer::new();
    let souffle = Souffle::new(SouffleOptions::full()).with_tracer(tracer.clone());
    let sc = souffle.compile(&program);
    souffle.eval_outputs(&sc, &bindings).expect("traced eval");
    let trace = tracer.take();
    let summary_json = TraceSummary::from_trace(&trace).to_json(2);
    let chrome_json = chrome::chrome_json(&trace);

    TracingSummary {
        workload: "lstm(tiny)".to_string(),
        untraced,
        disabled,
        enabled,
        summary_json,
        chrome_json,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One `{"kernels.x": n, ...}` JSON object from a counter set.
fn kernel_counters_json(stats: &souffle_te::KernelStats, indent: &str) -> String {
    let entries: Vec<String> = stats
        .counters()
        .iter()
        .map(|(name, v)| format!("{indent}  \"{name}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", entries.join(",\n"))
}

/// Renders every stage timing plus the evaluator comparisons as the
/// `souffle-bench-pipeline/6` JSON document (hand-rolled writer: the
/// workspace is dependency-free by design, so no serde).
fn render_report(
    timings: &[Timing],
    ev: &EvaluatorSummary,
    models: &[ModelEval],
    fusion: &[FusionRow],
    baselines: &[BaselineRow],
    tr: &TracingSummary,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"souffle-bench-pipeline/6\",\n  \"stages\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let sep = if i + 1 == timings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"mean_ns\": {:.1}, \"min_ns\": {}, \"max_ns\": {}}}{sep}\n",
            json_escape(&t.name),
            t.iters,
            t.mean_ns,
            t.min_ns,
            t.max_ns
        ));
    }
    out.push_str("  ],\n  \"evaluator\": {\n");
    out.push_str(&format!(
        "    \"workload\": \"{}\",\n",
        json_escape(&ev.workload)
    ));
    out.push_str(&format!(
        "    \"naive_mean_ns\": {:.1},\n    \"compiled_1t_mean_ns\": {:.1},\n    \"compiled_1t_nokernels_mean_ns\": {:.1},\n    \"compiled_1t_fastmath_mean_ns\": {:.1},\n    \"compiled_mt_mean_ns\": {:.1},\n    \"compiled_mt_arena_mean_ns\": {:.1},\n",
        ev.naive_mean_ns,
        ev.compiled_1t_mean_ns,
        ev.compiled_1t_nokernels_mean_ns,
        ev.compiled_1t_fastmath_mean_ns,
        ev.compiled_mt_mean_ns,
        ev.compiled_mt_arena_mean_ns
    ));
    out.push_str(&format!(
        "    \"speedup_compiled_1t\": {:.2},\n    \"speedup_compiled_mt\": {:.2},\n    \"speedup_compiled_mt_arena\": {:.2},\n    \"speedup_kernel_tier\": {:.2},\n",
        ev.naive_mean_ns / ev.compiled_1t_mean_ns,
        ev.naive_mean_ns / ev.compiled_mt_mean_ns,
        ev.naive_mean_ns / ev.compiled_mt_arena_mean_ns,
        ev.compiled_1t_nokernels_mean_ns / ev.compiled_1t_mean_ns,
    ));
    out.push_str(&format!(
        "    \"threads_compiled_1t\": {},\n    \"threads_compiled_mt\": {},\n    \"arena_buffers_reused\": {},\n    \"arena_buffers_allocated\": {},\n",
        ev.threads_1t, ev.threads_mt, ev.arena.reused, ev.arena.allocated
    ));
    out.push_str(&format!(
        "    \"kernel_census\": {},\n    \"kernel_dispatches_specialized\": {},\n    \"kernel_dispatches_bytecode\": {}\n",
        kernel_counters_json(&ev.census, "    "),
        ev.dispatched.specialized(),
        ev.dispatched.bytecode()
    ));
    out.push_str("  },\n  \"evaluator_models\": [\n");
    for (i, m) in models.iter().enumerate() {
        let sep = if i + 1 == models.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"model\": \"{}(tiny)\", \"naive_mean_ns\": {:.1}, \"compiled_1t_mean_ns\": {:.1}, \"compiled_1t_nokernels_mean_ns\": {:.1}, \"speedup_compiled_1t\": {:.2}, \"speedup_kernel_tier\": {:.2}, \"kernel_census\": {}}}{sep}\n",
            m.model,
            m.naive_mean_ns,
            m.compiled_1t_mean_ns,
            m.compiled_1t_nokernels_mean_ns,
            m.naive_mean_ns / m.compiled_1t_mean_ns,
            m.compiled_1t_nokernels_mean_ns / m.compiled_1t_mean_ns,
            kernel_counters_json(&m.census, "    ")
        ));
    }
    out.push_str("  ],\n  \"reduction_fusion\": [\n");
    for (i, r) in fusion.iter().enumerate() {
        let sep = if i + 1 == fusion.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"tes_off\": {}, \"tes_on\": {}, \"kernels_off\": {}, \"kernels_on\": {}, \"modeled_bytes_off\": {}, \"modeled_bytes_on\": {}, \"fusion.candidates\": {}, \"fusion.fused\": {}, \"fusion.rejected_by_cost\": {}, \"fusion.bytes_saved\": {}, \"eval_1t_off_mean_ns\": {:.1}, \"eval_1t_on_mean_ns\": {:.1}, \"speedup_reduction_fusion\": {:.2}}}{sep}\n",
            json_escape(&r.model),
            r.tes_off,
            r.tes_on,
            r.kernels_off,
            r.kernels_on,
            r.modeled_bytes_off,
            r.modeled_bytes_on,
            r.stats.candidates,
            r.stats.fused,
            r.stats.rejected_by_cost,
            r.stats.bytes_saved,
            r.eval_off_mean_ns,
            r.eval_on_mean_ns,
            r.eval_off_mean_ns / r.eval_on_mean_ns
        ));
    }
    out.push_str("  ],\n  \"baselines\": [\n");
    for (i, r) in baselines.iter().enumerate() {
        let sep = if i + 1 == baselines.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"tes_nofuse\": {}, \"tes_full\": {}, \"kernels_nofuse\": {}, \"kernels_full\": {}, \"modeled_bytes_nofuse\": {}, \"modeled_bytes_full\": {}, \"eval_1t_nofuse_mean_ns\": {:.1}, \"eval_1t_full_mean_ns\": {:.1}, \"speedup_full_vs_nofuse\": {:.2}}}{sep}\n",
            json_escape(&r.model),
            r.tes_nofuse,
            r.tes_full,
            r.kernels_nofuse,
            r.kernels_full,
            r.modeled_bytes_nofuse,
            r.modeled_bytes_full,
            r.eval_nofuse_mean_ns,
            r.eval_full_mean_ns,
            r.eval_nofuse_mean_ns / r.eval_full_mean_ns
        ));
    }
    out.push_str("  ],\n  \"tracing\": {\n");
    out.push_str(&format!(
        "    \"workload\": \"{}\",\n",
        json_escape(&tr.workload)
    ));
    out.push_str(&format!(
        "    \"untraced_min_ns\": {}, \"untraced_mean_ns\": {:.1},\n    \"disabled_min_ns\": {}, \"disabled_mean_ns\": {:.1},\n    \"enabled_min_ns\": {}, \"enabled_mean_ns\": {:.1},\n",
        tr.untraced.min_ns, tr.untraced.mean_ns,
        tr.disabled.min_ns, tr.disabled.mean_ns,
        tr.enabled.min_ns, tr.enabled.mean_ns
    ));
    out.push_str(&format!(
        "    \"overhead_disabled\": {:.4},\n    \"overhead_enabled\": {:.4}\n",
        tr.overhead_disabled(),
        tr.overhead_enabled()
    ));
    out.push_str("  },\n");
    out.push_str(&format!("  \"trace_summary\": {}\n", tr.summary_json));
    out.push_str("}\n");
    out
}

/// Writes the rendered report to `results/bench_pipeline.json`.
fn write_report(report: &str) -> std::io::Result<()> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/bench_pipeline.json"
    );
    std::fs::write(path, report)?;
    println!("\nwrote {path}");
    Ok(())
}

/// The `--smoke` gate: asserts the report is structurally sound — current
/// schema, per-model evaluator rows, and kernel-tier dispatch counters
/// present — and writes it to a scratch path instead of `results/` (smoke
/// timings are garbage by construction; they must never overwrite real
/// numbers).
fn smoke_check(
    report: &str,
    ev: &EvaluatorSummary,
    models: &[ModelEval],
    fusion: &[FusionRow],
    baselines: &[BaselineRow],
) {
    assert!(
        report.contains("\"schema\": \"souffle-bench-pipeline/6\""),
        "smoke: schema must be souffle-bench-pipeline/6"
    );
    assert_eq!(baselines.len(), 2, "smoke: expected two baseline rows");
    for r in baselines {
        assert!(
            r.kernels_full <= r.kernels_nofuse,
            "smoke: the fused pipeline must not launch more kernels than the \
             no-fusion baseline on {}: {} vs {}",
            r.model,
            r.kernels_full,
            r.kernels_nofuse
        );
    }
    assert!(
        report.contains("\"baselines\"") && report.contains("\"speedup_full_vs_nofuse\""),
        "smoke: baselines rows missing from report"
    );
    assert!(
        report.contains("\"evaluator_models\""),
        "smoke: per-model evaluator rows missing"
    );
    assert!(
        report.contains("\"reduction_fusion\"") && report.contains("\"fusion.bytes_saved\""),
        "smoke: reduction-fusion rows missing from report"
    );
    let bert = fusion
        .iter()
        .find(|r| r.model.starts_with("bert"))
        .expect("smoke: bert fusion row missing");
    assert!(
        bert.stats.fused > 0,
        "smoke: reduction fusion fused nothing on bert: {:?}",
        bert.stats
    );
    assert!(
        bert.modeled_bytes_on < bert.modeled_bytes_off,
        "smoke: fusion must shrink bert's modeled bytes: {} vs {}",
        bert.modeled_bytes_on,
        bert.modeled_bytes_off
    );
    for counter in ["kernels.row_dot", "kernels.ew_tile", "kernels.bytecode"] {
        assert!(
            report.contains(counter),
            "smoke: kernel counter {counter} missing from report"
        );
    }
    assert!(
        ev.census.specialized() > 0,
        "smoke: BERT census selected no specialized kernels: {:?}",
        ev.census
    );
    assert!(
        ev.dispatched.specialized() > 0,
        "smoke: kernel tier never dispatched on the compiled_1t row: {:?}",
        ev.dispatched
    );
    assert_eq!(models.len(), 2, "smoke: expected lstm + mmoe rows");
    let path = std::env::temp_dir().join("souffle_bench_pipeline_smoke.json");
    std::fs::write(&path, report).expect("write smoke report");
    println!("\nsmoke OK: wrote {}", path.display());
}

/// Ablation: LRU cache throughput across capacities (design choice: the
/// reuse pass runs at device-shared-memory capacity).
fn bench_lru_capacity(b: &mut Bench) {
    b.group("ablation_lru_capacity");
    for cap in [4u64 << 10, 64 << 10, 1 << 20, 16 << 20] {
        b.run(&cap.to_string(), || {
            let mut cache = LruCache::new(black_box(cap));
            for i in 0..1000u64 {
                cache.touch(TensorId((i % 37) as usize), (i % 50 + 1) * 512);
            }
            (cache.hits(), cache.misses())
        });
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    if smoke && std::env::var("TESTKIT_BENCH_MS").is_err() {
        // Smoke cares about structure, not numbers: shrink the budget so
        // the full bench sweep finishes in seconds.
        std::env::set_var("TESTKIT_BENCH_MS", "2");
    }
    let mut b = Bench::new();
    bench_analysis_stages(&mut b);
    bench_transforms(&mut b);
    bench_lowering(&mut b);
    bench_lru_capacity(&mut b);
    let ev = bench_evaluators(&mut b);
    let models = bench_model_evaluators(&mut b);
    let fusion = bench_reduction_fusion(&mut b);
    let baselines = bench_baselines(&mut b);
    let tr = bench_tracing(&mut b);
    println!(
        "\nevaluator speedup on {}: {:.1}x with {} stream(s), {:.1}x with {} stream(s) \
         ({:.1}x outputs-only with arena reuse: {} buffers recycled)",
        ev.workload,
        ev.naive_mean_ns / ev.compiled_1t_mean_ns,
        ev.threads_1t,
        ev.naive_mean_ns / ev.compiled_mt_mean_ns,
        ev.threads_mt,
        ev.naive_mean_ns / ev.compiled_mt_arena_mean_ns,
        ev.arena.reused
    );
    println!(
        "kernel tier on {}: {:.2}x over bytecode (census: {} specialized / {} bytecode TEs; \
         {} specialized dispatches on the compiled_1t row)",
        ev.workload,
        ev.compiled_1t_nokernels_mean_ns / ev.compiled_1t_mean_ns,
        ev.census.specialized(),
        ev.census.bytecode(),
        ev.dispatched.specialized()
    );
    for m in &models {
        println!(
            "kernel tier on {}(tiny): {:.2}x over bytecode ({:.1}x over naive)",
            m.model,
            m.compiled_1t_nokernels_mean_ns / m.compiled_1t_mean_ns,
            m.naive_mean_ns / m.compiled_1t_mean_ns
        );
    }
    for r in &baselines {
        println!(
            "no-fusion baseline on {}: {} TEs / {} kernels vs {} TEs / {} kernels fused, \
             {:.2}x eval from fusion",
            r.model,
            r.tes_nofuse,
            r.kernels_nofuse,
            r.tes_full,
            r.kernels_full,
            r.eval_nofuse_mean_ns / r.eval_full_mean_ns
        );
    }
    for r in &fusion {
        println!(
            "reduction fusion on {}: {} -> {} TEs, {} -> {} kernels, {:.1}% modeled bytes saved, \
             {:.2}x eval ({} fused, {} rejected by cost)",
            r.model,
            r.tes_off,
            r.tes_on,
            r.kernels_off,
            r.kernels_on,
            100.0 * r.stats.bytes_saved as f64 / r.modeled_bytes_off.max(1) as f64,
            r.eval_off_mean_ns / r.eval_on_mean_ns,
            r.stats.fused,
            r.stats.rejected_by_cost
        );
    }
    println!(
        "tracing overhead on {} (min-based): {:+.1}% with tracer disabled, {:+.1}% with tracer enabled",
        tr.workload,
        tr.overhead_disabled() * 100.0,
        tr.overhead_enabled() * 100.0
    );
    let report = render_report(b.results(), &ev, &models, &fusion, &baselines, &tr);
    if smoke {
        smoke_check(&report, &ev, &models, &fusion, &baselines);
    } else if let Err(e) = write_report(&report) {
        eprintln!("could not write results/bench_pipeline.json: {e}");
    }
    // `cargo bench --bench pipeline -- --trace-out t.json` additionally
    // dumps the fully traced LSTM compile+eval as Chrome trace_event JSON.
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--trace-out" {
            let path = argv.next().expect("--trace-out expects a file path");
            std::fs::write(&path, &tr.chrome_json).expect("write trace");
            println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
        }
    }
}

//! `infer-bert`: te's runtime and kernel tier on 64-wide tensors. BERT at
//! the pipeline bench's "bench" scale is compiled once in set-up; one
//! operation is one `Souffle::eval_outputs` call on fixed seeded inputs.

use crate::metrics::{median, ratio, Phase, Sides};
use crate::spans::Spans;
use crate::Run;
use souffle::frontend::models::bert::{build, BertConfig};
use souffle::te::interp::{eval_program, random_bindings};
use souffle::te::{
    compile_program, CompiledProgram, ExecPlan, FallbackReason, KernelStats, TeProgram, TensorId,
};
use souffle::tensor::Tensor;
use souffle::trace::Tracer;
use souffle::transform::program_traffic;
use souffle::{Compiled, Souffle, SouffleOptions};
use std::collections::HashMap;
use std::time::Instant;

const CONFIG: BertConfig = BertConfig {
    layers: 2,
    hidden: 64,
    heads: 4,
    seq: 64,
    ffn: 256,
};

const WARMUP_INFERENCES: usize = 3;

const KERNELS: [&str; 6] = [
    "row_dot",
    "slice_dot",
    "ew_tile",
    "slice_reduce",
    "copy_rows",
    "bytecode",
];

type Outputs = HashMap<TensorId, Tensor>;

fn matches(
    program: &TeProgram,
    want: &Outputs,
    got: &Result<Outputs, impl std::fmt::Debug>,
) -> bool {
    got.as_ref().is_ok_and(|got| {
        program
            .outputs()
            .iter()
            .all(|id| got.get(id).is_some_and(|g| crate::bits_equal(&want[id], g)))
    })
}

/// The plan `Souffle::eval_outputs` builds: wavefront levels from the
/// global analysis, last uses from its liveness pass.
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

pub fn run(run: &Run) -> Sides {
    let mut sides = Sides::default();
    let mut state = None;
    for k in 0..run.setups() {
        let tracer = run.tracer_at(k);
        let t = Instant::now();
        let program = {
            let _s = tracer.span("bench:build_model");
            build(&CONFIG)
        };
        let bindings = random_bindings(&program, run.seed);
        let souffle = Souffle::new(SouffleOptions::full()).with_tracer(tracer.clone());
        let compiled = {
            let _s = tracer.span("bench:compile_checked");
            souffle.compile_checked(&program)
        };
        let compiled = match compiled {
            Ok(c) => c,
            Err(d) => {
                eprintln!("infer-bert: compile failed:\n{d}");
                sides.plain.failed += 1;
                return sides;
            }
        };
        for _ in 0..WARMUP_INFERENCES {
            let _ = souffle.eval_outputs(&compiled, &bindings);
        }
        sides.side(&tracer).setups_s.push(t.elapsed().as_secs_f64());
        state = Some((program, bindings, souffle, compiled));
    }
    let (program, bindings, mut souffle, compiled) = state.expect("at least one set-up");
    // Traced inferences pass the tracer to the runtime themselves.
    souffle.set_tracer(Tracer::disabled());
    let reference = match eval_program(&program, &bindings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("infer-bert: reference interpreter failed: {e:?}");
            sides.plain.failed += 1;
            return sides;
        }
    };

    let runtime = souffle.runtime();
    run.drain();
    let mut traced = Traced::default();
    let start = Instant::now();
    let mut k = 0;
    while run.more(k, start, run.seconds) {
        let tracer = run.tracer_at(k);
        runtime.take_stats();
        let t = Instant::now();
        let out = if tracer.is_enabled() {
            let (out, plan) = traced_inference(&souffle, &compiled, &bindings, &tracer);
            sides.traced.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
            traced.add(Spans::new(tracer.take()), &plan, runtime.take_stats());
            out
        } else {
            let out = souffle.eval_outputs(&compiled, &bindings);
            sides.plain.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out
        };
        let side = sides.side(&tracer);
        side.attempted += 1;
        if !matches(&program, &reference, &out) {
            eprintln!("infer-bert: inference {} differs from the reference", k + 1);
            side.failed += 1;
        }
        k += 1;
    }
    let sim_ms = souffle.simulate(&compiled).total_time_ms();
    sides.plain.extra("sim_ms", sim_ms, "ms-modeled", 1);
    if run.tracer.is_some() {
        let phase = &mut sides.traced;
        traced.report(phase);
        phase.layer("gpusim.sim_ms", sim_ms, 1);
        phase.layer(
            "transform.traffic_mb",
            program_traffic(&compiled.program).total() as f64 / 1e6,
            1,
        );
    }
    sides
}

/// What `Souffle::eval_outputs` does, one public call at a time, each in a
/// span of the benchmark's own.
fn traced_inference(
    souffle: &Souffle,
    compiled: &Compiled,
    bindings: &Outputs,
    tracer: &Tracer,
) -> (
    Result<Outputs, souffle::te::interp::EvalError>,
    Vec<&'static str>,
) {
    let op = tracer.span("bench:infer");
    let cp = {
        let _s = op.child("bench:compile_program");
        compile_program(&compiled.program)
    };
    let plan = {
        let _s = op.child("bench:exec_plan");
        exec_plan(compiled, &cp)
    };
    let out = souffle
        .runtime()
        .eval_with_plan_traced(&cp, &plan, bindings, tracer, op.id());
    // The runtime records one `te:` span per TE in plan order.
    let kernels = plan
        .levels()
        .iter()
        .flatten()
        .map(|&ti| cp.tes()[ti].kernel())
        .collect();
    (out, kernels)
}

#[derive(Default)]
struct Traced {
    bytecode_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    /// Per inference, self time of the `te:` spans by kernel.
    kernel_ms: Vec<[f64; KERNELS.len()]>,
    /// Summed self time per TE position in plan order.
    per_te_ms: Vec<f64>,
    stats: KernelStats,
    arena_reused: u64,
    arena_allocated: u64,
    pool_steals: u64,
    inferences: usize,
}

impl Traced {
    fn add(&mut self, s: Spans, kernels: &[&'static str], rs: souffle::te::RuntimeStats) {
        self.bytecode_ms.push(s.named_ms("bench:compile_program"));
        self.plan_ms.push(s.named_ms("bench:exec_plan"));
        self.eval_ms.push(s.named_ms("eval"));
        let mut by_kernel = [0.0; KERNELS.len()];
        let te_spans: Vec<usize> = (0..s.trace.spans.len())
            .filter(|&i| s.trace.spans[i].name.starts_with("te:"))
            .collect();
        self.per_te_ms
            .resize(te_spans.len().max(self.per_te_ms.len()), 0.0);
        for (pos, (&i, kernel)) in te_spans.iter().zip(kernels).enumerate() {
            let ms = s.self_ms(i);
            let k = KERNELS
                .iter()
                .position(|k| k == kernel)
                .expect("every kernel tier name is listed");
            by_kernel[k] += ms;
            self.per_te_ms[pos] += ms;
        }
        self.kernel_ms.push(by_kernel);
        self.stats.merge(&rs.kernels);
        self.arena_reused += rs.arena.reused;
        self.arena_allocated += rs.arena.allocated;
        self.pool_steals += rs.pool.steals;
        self.inferences += 1;
    }

    fn report(&self, phase: &mut Phase) {
        let n = self.inferences;
        let per_op = |x: u64| x as f64 / n.max(1) as f64;
        phase.layer("te.bytecode_ms", median(&self.bytecode_ms), n);
        phase.layer("te.plan_ms", median(&self.plan_ms), n);
        phase.layer("te.eval_ms", median(&self.eval_ms), n);
        for (k, name) in KERNELS.iter().enumerate() {
            let ms: Vec<f64> = self.kernel_ms.iter().map(|v| v[k]).collect();
            phase.layer(&format!("te.kernel.{name}_ms"), median(&ms), n);
        }
        let mut per_te = self.per_te_ms.clone();
        per_te.sort_by(|a, b| b.total_cmp(a));
        let eval_total: f64 = self.eval_ms.iter().sum();
        phase.layer(
            "te.top4_share",
            ratio(per_te.iter().take(4).sum(), eval_total),
            n,
        );
        let dispatches = self.stats.specialized() + self.stats.bytecode();
        phase.layer(
            "te.specialized_share",
            ratio(self.stats.specialized() as f64, dispatches as f64),
            dispatches as usize,
        );
        for reason in [
            FallbackReason::GenericAccess,
            FallbackReason::ControlFlow,
            FallbackReason::ReducedBody,
        ] {
            let i = FallbackReason::ALL
                .iter()
                .position(|r| *r == reason)
                .expect("reason is listed");
            phase.layer(
                &format!("te.fallback.{}", reason.name()),
                per_op(self.stats.fallback[i]),
                n,
            );
        }
        phase.layer(
            "te.arena_reuse_ratio",
            ratio(
                self.arena_reused as f64,
                (self.arena_reused + self.arena_allocated) as f64,
            ),
            n,
        );
        phase.layer("te.pool_steals", per_op(self.pool_steals), n);
    }
}

//! `compile-zoo`: every compiler layer on the six Table 2 models at paper
//! scale. One operation is one `compile_checked` + `simulate` pass over all
//! six.

use crate::metrics::{geomean, median, ratio, Phase, Sides};
use crate::spans::Spans;
use crate::Run;
use souffle::frontend::{build_model, Model, ModelConfig};
use souffle::te::interp::{eval_program, random_bindings};
use souffle::te::TeProgram;
use souffle::trace::Tracer;
use souffle::{Compiled, Souffle, SouffleOptions};
use std::time::Instant;

/// Release builds leave verification and certification off by default;
/// forcing them on keeps the verify crate on the measured path.
fn options() -> SouffleOptions {
    SouffleOptions {
        verify: true,
        certify: Some(true),
        ..SouffleOptions::full()
    }
}

fn short(m: Model) -> &'static str {
    match m {
        Model::Bert => "bert",
        Model::ResNext => "resnext",
        Model::Lstm => "lstm",
        Model::EfficientNet => "efficientnet",
        Model::SwinTransformer => "swin",
        Model::Mmoe => "mmoe",
    }
}

/// A compile is correct when the verifier found no errors and every
/// stage's certificate closed with zero residual.
fn certified(c: &Result<Compiled, souffle::verify::Diagnostics>) -> bool {
    let ok = c.as_ref().is_ok_and(|c| {
        !c.diagnostics.has_errors() && c.certificates.iter().all(|k| k.residual == 0)
    });
    if !ok {
        match c {
            Ok(c) => eprintln!("compile-zoo: residual obligations in {:?}", c.certificates),
            Err(d) => eprintln!("compile-zoo: the verifier rejected a compile:\n{d}"),
        }
    }
    ok
}

struct Pass {
    model_ms: Vec<f64>,
    ok: bool,
    last: Vec<(Compiled, souffle::gpusim::ModelProfile)>,
}

fn pass(souffle: &Souffle, models: &[(Model, TeProgram)], tracer: &Tracer) -> Pass {
    let mut model_ms = Vec::new();
    let mut ok = true;
    let mut last = Vec::new();
    for (m, program) in models {
        let t = Instant::now();
        let compiled = {
            let _s = tracer.span(&format!("bench:compile:{}", short(*m)));
            souffle.compile_checked(program)
        };
        ok &= certified(&compiled);
        if let Ok(compiled) = compiled {
            let profile = {
                let _s = tracer.span("bench:simulate");
                souffle.simulate(&compiled)
            };
            last.push((compiled, profile));
        }
        model_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Pass { model_ms, ok, last }
}

pub fn run(run: &Run) -> Sides {
    let mut sides = Sides::default();
    let mut build_ms = Vec::new();
    let mut state = None;
    for k in 0..run.setups() {
        let tracer = run.tracer_at(k);
        let t = Instant::now();
        let models: Vec<(Model, TeProgram)> = Model::ALL
            .iter()
            .map(|&m| {
                let _s = tracer.span("bench:build_model");
                (m, build_model(m, ModelConfig::Paper))
            })
            .collect();
        if tracer.is_enabled() {
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let souffle = Souffle::new(options()).with_tracer(tracer.clone());
        let warm = pass(&souffle, &models, &tracer);
        let side = sides.side(&tracer);
        side.setups_s.push(t.elapsed().as_secs_f64());
        if !warm.ok {
            side.failed += 1;
        }
        state = Some((models, souffle));
    }
    let (models, mut souffle) = state.expect("at least one set-up");
    run.drain();

    // Per side, each model's compile times.
    let mut per_model = [
        vec![Vec::new(); models.len()],
        vec![Vec::new(); models.len()],
    ];
    let mut traced: Vec<Spans> = Vec::new();
    let mut last = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while run.more(k, start, run.seconds) {
        let tracer = run.tracer_at(k);
        souffle.set_tracer(tracer.clone());
        let t = Instant::now();
        let p = pass(&souffle, &models, &tracer);
        let side = sides.side(&tracer);
        side.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
        side.attempted += 1;
        if !p.ok {
            side.failed += 1;
        }
        let per_model = &mut per_model[usize::from(tracer.is_enabled())];
        for (v, ms) in per_model.iter_mut().zip(&p.model_ms) {
            v.push(*ms);
        }
        if tracer.is_enabled() {
            traced.push(Spans::new(tracer.take()));
        }
        last = p.last;
        k += 1;
    }

    let medians = |v: &[Vec<f64>]| -> Vec<f64> { v.iter().map(|v| median(v)).collect() };
    let sim_ms: f64 = last.iter().map(|(_, p)| p.total_time_ms()).sum();
    let plain = &mut sides.plain;
    let n = plain.ops_ms.len();
    plain.extra("compile_geo_ms", geomean(&medians(&per_model[0])), "ms", n);
    plain.extra("sim_ms", sim_ms, "ms-modeled", last.len());
    if run.tracer.is_some() {
        let traced_medians = medians(&per_model[1]);
        layers(
            &mut sides.traced,
            &traced,
            &build_ms,
            &traced_medians,
            &last,
        );
    }
    if !reference_check(run.seed) {
        sides.plain.failed += 1;
    }
    sides
}

fn layers(
    phase: &mut Phase,
    traced: &[Spans],
    build_ms: &[f64],
    model_medians: &[f64],
    last: &[(Compiled, souffle::gpusim::ModelProfile)],
) {
    let n = traced.len();
    let per_pass = |f: &dyn Fn(&Spans) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    phase.layer("frontend.build_ms", median(build_ms), build_ms.len());
    for (metric, span) in [
        ("transform.horizontal_ms", "transform:horizontal"),
        ("transform.vertical_ms", "transform:vertical"),
        ("transform.reduction_ms", "transform:reduction"),
        ("analysis.reuse_ms", "analysis:reuse"),
        ("analysis.schedule_ms", "analysis:schedule"),
        ("kernel.lower_ms", "lower"),
        ("kernel.subprogram_opt_ms", "subprogram-opt"),
        ("gpusim.simulate_ms", "bench:simulate"),
    ] {
        phase.layer(metric, per_pass(&|s| s.named_ms(span)), n);
    }
    phase.layer(
        "analysis.rest_ms",
        per_pass(&|s| {
            s.named_ms("analysis") - s.named_ms("analysis:reuse") - s.named_ms("analysis:schedule")
        }),
        n,
    );
    phase.layer(
        "verify.verify_ms",
        per_pass(&|s| {
            s.total_ms(|n| n.starts_with("verify:") && !n.starts_with("verify:certify:"))
        }),
        n,
    );
    phase.layer(
        "verify.certify_ms",
        per_pass(&|s| s.total_ms(|n| n.starts_with("verify:certify:"))),
        n,
    );
    let hits: u64 = traced.iter().map(|s| s.counter("sched.memo_hits")).sum();
    let misses: u64 = traced.iter().map(|s| s.counter("sched.memo_misses")).sum();
    phase.layer(
        "sched.memo_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );

    let models = last.len();
    let sum = |f: &dyn Fn(&(Compiled, souffle::gpusim::ModelProfile)) -> f64| -> f64 {
        last.iter().map(f).sum()
    };
    phase.layer(
        "transform.tes_after",
        sum(&|(c, _)| c.stats.transform.tes_after as f64),
        models,
    );
    phase.layer(
        "transform.fusion_bytes_saved",
        sum(&|(c, _)| c.stats.fusion.bytes_saved as f64),
        models,
    );
    phase.layer(
        "kernel.count",
        sum(&|(c, _)| c.num_kernels() as f64),
        models,
    );
    phase.layer(
        "gpusim.transfer_mb",
        sum(&|(_, p)| p.global_transfer_bytes() as f64 / 1e6),
        models,
    );
    phase.layer(
        "gpusim.grid_syncs",
        sum(&|(_, p)| p.grid_syncs() as f64),
        models,
    );
    phase.layer("gpusim.sim_ms", sum(&|(_, p)| p.total_time_ms()), models);
    for (m, ms) in Model::ALL.iter().zip(model_medians) {
        phase.layer(&format!("compile.{}_ms", short(*m)), *ms, n);
    }
    phase.layer("compile.geo_ms", geomean(model_medians), n);
}

/// Each model at Tiny scale: the naive interpreter on the compiled program
/// must match the naive interpreter on the untransformed program bit for
/// bit.
fn reference_check(seed: u64) -> bool {
    let souffle = Souffle::new(options());
    Model::ALL.iter().enumerate().all(|(k, &m)| {
        let program = build_model(m, ModelConfig::Tiny);
        let compiled = souffle.compile_checked(&program);
        if !certified(&compiled) {
            return false;
        }
        let bindings = random_bindings(&program, seed.wrapping_add(k as u64));
        let want = eval_program(&program, &bindings);
        let got = eval_program(&compiled.expect("certified").program, &bindings);
        let same = match (want, got) {
            (Ok(w), Ok(g)) => program
                .outputs()
                .iter()
                .all(|id| crate::bits_equal(&w[id], &g[id])),
            _ => false,
        };
        if !same {
            eprintln!(
                "compile-zoo: {m} at Tiny scale: the compiled program differs from the source"
            );
        }
        same
    })
}

//! Property tests for the tracing spine over random TE programs.
//!
//! Three contracts, checked for every pool size:
//!
//! 1. **Well-formed span trees** — every span is closed, children nest
//!    strictly inside their parents, parents precede children.
//! 2. **Wavefront coverage** — the `eval` span has exactly one `level:k`
//!    child per [`ExecPlan`] level, and each level span has exactly one
//!    `te:<name>` child per TE in that wavefront, in plan order. The
//!    trace is a faithful transcript of the plan, regardless of which
//!    worker thread actually ran each TE.
//! 3. **Tracing is free of observable effects** — results with tracing
//!    on are bit-identical to results with tracing off and to the naive
//!    interpreter.

use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{compile_program, ExecPlan, Runtime, RuntimeOptions, TeProgram};
use souffle_tensor::Tensor;
use souffle_testkit::teprog::gen_spec;
use souffle_testkit::{forall, Config};
use souffle_trace::{Trace, Tracer};
use std::collections::HashMap;
use std::sync::OnceLock;

fn runtimes() -> &'static [(&'static str, Runtime)] {
    static CELL: OnceLock<Vec<(&'static str, Runtime)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rt = |threads| {
            Runtime::with_options(RuntimeOptions {
                threads: Some(threads),
                max_parallelism: Some(threads),
                ..RuntimeOptions::default()
            })
        };
        vec![
            ("1 stream", rt(1)),
            ("2 streams", rt(2)),
            ("8 streams", rt(8)),
        ]
    })
}

fn bits(map: &HashMap<souffle_te::TensorId, Tensor>) -> Vec<(usize, Vec<u32>)> {
    let mut v: Vec<(usize, Vec<u32>)> = map
        .iter()
        .map(|(id, t)| (id.0, t.data().iter().map(|x| x.to_bits()).collect()))
        .collect();
    v.sort();
    v
}

/// Checks contract 2: the span tree under `eval` mirrors `plan` exactly.
fn check_covers_plan(trace: &Trace, program: &TeProgram, plan: &ExecPlan) -> Result<(), String> {
    let roots = trace.roots();
    if roots.len() != 1 || trace.spans[roots[0]].name != "eval" {
        return Err(format!("expected a single `eval` root, got {roots:?}"));
    }
    let levels = trace.children(roots[0]);
    if levels.len() != plan.num_levels() {
        return Err(format!(
            "{} level spans for {} plan levels",
            levels.len(),
            plan.num_levels()
        ));
    }
    for (lvl, (&span_idx, wave)) in levels.iter().zip(plan.levels()).enumerate() {
        if trace.spans[span_idx].name != format!("level:{lvl}") {
            return Err(format!(
                "level {lvl} span is named {}",
                trace.spans[span_idx].name
            ));
        }
        let tes = trace.children(span_idx);
        let got: Vec<&str> = tes.iter().map(|&i| trace.spans[i].name.as_str()).collect();
        let want: Vec<String> = wave
            .iter()
            .map(|&te| format!("te:{}", program.tes()[te].name))
            .collect();
        if got != want.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(format!("level {lvl}: te spans {got:?}, wavefront {want:?}"));
        }
    }
    Ok(())
}

forall!(
    traced_eval_is_well_formed_covers_wavefronts_and_is_bit_identical,
    Config::with_cases(24),
    |rng| gen_spec(rng, 10),
    |spec| {
        let program = spec.build();
        let bindings = random_bindings(&program, 11);
        let want = eval_program(&program, &bindings);
        let cp = compile_program(&program);
        let plan = ExecPlan::from_compiled(&cp);
        for (label, rt) in runtimes() {
            let untraced = rt.eval_keeping_intermediates_with_plan(&cp, &plan, &bindings);
            let tracer = Tracer::new();
            let traced = rt
                .eval_keeping_intermediates_with_plan_traced(&cp, &plan, &bindings, &tracer, None);
            let trace = tracer.take();
            trace
                .well_formed()
                .map_err(|e| format!("[{label}] malformed trace: {e}"))?;
            match (&want, &untraced, &traced) {
                (Ok(w), Ok(u), Ok(t)) => {
                    if bits(w) != bits(u) || bits(u) != bits(t) {
                        return Err(format!("[{label}] tracing changed eval results"));
                    }
                    check_covers_plan(&trace, &program, &plan)
                        .map_err(|e| format!("[{label}] {e}"))?;
                }
                (Err(we), Err(ue), Err(te)) => {
                    if we != ue || ue != te {
                        return Err(format!(
                            "[{label}] errors diverge: naive {we:?}, untraced {ue:?}, traced {te:?}"
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "[{label}] ok/err divergence: naive {}, untraced {}, traced {}",
                        want.is_ok(),
                        untraced.is_ok(),
                        traced.is_ok()
                    ))
                }
            }
        }
        Ok(())
    }
);

forall!(
    disabled_tracer_is_invisible,
    Config::with_cases(12),
    |rng| gen_spec(rng, 8),
    |spec| {
        let program = spec.build();
        let bindings = random_bindings(&program, 3);
        let cp = compile_program(&program);
        let (_, rt) = &runtimes()[1];
        let tracer = Tracer::disabled();
        let a = rt.eval_traced(&cp, &bindings, &tracer, None);
        let b = rt.eval(&cp, &bindings);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if bits(&a) != bits(&b) {
                    return Err("disabled tracer changed results".into());
                }
            }
            (Err(a), Err(b)) => {
                if a != b {
                    return Err(format!("errors diverge: {a:?} vs {b:?}"));
                }
            }
            _ => return Err("ok/err divergence with disabled tracer".into()),
        }
        let trace = tracer.take();
        if !trace.spans.is_empty() || !trace.counters.is_empty() {
            return Err("disabled tracer recorded data".into());
        }
        Ok(())
    }
);

//! Determinism of the wavefront-parallel runtime.
//!
//! The pooled evaluator must be a pure performance feature: for any
//! program, any pool size, and any state of its buffer arena, its results are
//! bit-identical to the naive tree-walking interpreter (and hence to the
//! single-threaded compiled path, which the `evaluator_equivalence` suite
//! already pins to the interpreter). This suite drives that contract over
//! `TESTKIT_SEED`-randomized generated programs and over a handcrafted
//! diamond dependency whose wavefront levels must order producers before
//! consumers. It also pins the plan the global analysis implies (its
//! wavefronts and liveness) to the plan `ExecPlan::from_compiled` derives
//! from the program's own def-use edges, on every paper model.
//!
//! The runtimes under test are process-wide statics so the hundreds of
//! property cases exercise *persistent* pools and *cross-call* arena
//! recycling instead of rebuilding threads per case.

use std::collections::HashMap;
use std::sync::OnceLock;

use souffle::{Compiled, Souffle, SouffleOptions};
use souffle_frontend::models::bert::{self, BertConfig};
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{
    builders, compile_program, CompiledProgram, ExecPlan, Runtime, RuntimeOptions, TeProgram,
    TensorId,
};
use souffle_tensor::{DType, Shape};
use souffle_testkit::teprog::gen_spec;
use souffle_testkit::{forall, Config};

/// One persistent runtime per pool size under test.
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
            ("1 stream + arena", rt(1)),
            ("2 streams + arena", rt(2)),
            ("8 streams + arena", rt(8)),
        ]
    })
}

/// Runs `program` through every pooled runtime and requires each result to
/// be bit-identical to the interpreter's (or to fail with the same error).
fn assert_pool_matches_interpreter(program: &TeProgram, seed: u64) -> Result<(), String> {
    let bindings = random_bindings(program, seed);
    let want = eval_program(program, &bindings);
    let cp = compile_program(program);
    for (label, rt) in runtimes() {
        let got = rt.eval_keeping_intermediates(&cp, &bindings);
        match (&want, got) {
            (Err(we), Err(ge)) => {
                if *we != ge {
                    return Err(format!(
                        "[{label}] errors differ: naive {we:?}, pooled {ge:?}"
                    ));
                }
            }
            (Err(we), Ok(_)) => {
                return Err(format!(
                    "[{label}] naive failed ({we:?}) but pooled succeeded"
                ));
            }
            (Ok(_), Err(ge)) => {
                return Err(format!(
                    "[{label}] pooled failed ({ge:?}) but naive succeeded"
                ));
            }
            (Ok(want), Ok(got)) => {
                compare_maps(label, program, want, &got, seed)?;
                // The outputs-only entry point must agree on the subset it
                // returns — this is the path that recycles buffers.
                let outs = rt
                    .eval(&cp, &bindings)
                    .map_err(|e| format!("[{label}] outputs-only eval failed: {e:?}"))?;
                let out_ids = program.outputs();
                if outs.len() != out_ids.len() {
                    return Err(format!(
                        "[{label}] outputs-only eval returned {} tensors, program has {} outputs",
                        outs.len(),
                        out_ids.len()
                    ));
                }
                compare_maps(label, program, &outs, want, seed)?;
            }
        }
    }
    Ok(())
}

fn compare_maps(
    label: &str,
    program: &TeProgram,
    want: &HashMap<TensorId, souffle_tensor::Tensor>,
    got: &HashMap<TensorId, souffle_tensor::Tensor>,
    seed: u64,
) -> Result<(), String> {
    for (id, w) in want {
        let Some(g) = got.get(id) else { continue };
        let name = &program.tensor(*id).name;
        if w.shape() != g.shape() {
            return Err(format!(
                "[{label}] \"{name}\" shape: naive {} vs pooled {} (seed {seed})",
                w.shape(),
                g.shape()
            ));
        }
        for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "[{label}] \"{name}\"[{i}]: naive {a} ({:#010x}) vs pooled {b} ({:#010x}), seed {seed}",
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
    }
    Ok(())
}

forall!(
    pooled_eval_is_bit_identical_across_pool_sizes,
    Config::with_cases(120),
    |rng| (gen_spec(rng, 10), rng.u64_in(0..1_000_000)),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(()); // shrunk-out-of-domain candidate
        }
        assert_pool_matches_interpreter(&spec.build(), *seed)
    }
);

/// A diamond: `base` feeds two independent branches that rejoin. The
/// execution plan must place both branches in the same wavefront, strictly
/// after their producer and strictly before the join — and the pooled
/// result must match the interpreter whatever order the pool actually
/// dispatches the middle level in.
#[test]
fn diamond_wavefronts_order_producers_before_consumers() {
    let mut p = TeProgram::new();
    let x = p.add_input("X", Shape::new(vec![24, 32]), DType::F32);
    let base = builders::scale(&mut p, "base", x, 1.5);
    let left = builders::relu(&mut p, "left", base);
    let right = builders::sigmoid(&mut p, "right", base);
    let join = builders::add(&mut p, "join", left, right);
    p.mark_output(join);
    p.validate().unwrap();

    let cp = compile_program(&p);
    let plan = ExecPlan::from_compiled(&cp);
    let levels = plan.levels();
    assert_eq!(plan.num_levels(), 3, "diamond must level as 3 wavefronts");
    assert_eq!(levels[0].len(), 1);
    assert_eq!(levels[1].len(), 2, "the two branches must share a level");
    assert_eq!(levels[2].len(), 1);

    // Producers strictly precede consumers: every TE's operands that are
    // themselves TE outputs must sit in an earlier level.
    let level_of: HashMap<usize, usize> = levels
        .iter()
        .enumerate()
        .flat_map(|(lvl, tes)| tes.iter().map(move |&te| (te, lvl)))
        .collect();
    let producer_of: HashMap<TensorId, usize> =
        p.te_ids().map(|id| (p.te(id).output, id.0)).collect();
    for id in p.te_ids() {
        for inp in &p.te(id).inputs {
            if let Some(&prod) = producer_of.get(inp) {
                assert!(
                    level_of[&prod] < level_of[&id.0],
                    "producer TE {prod} must run before consumer TE {}",
                    id.0
                );
            }
        }
    }

    for seed in [7, 1234, 777_777] {
        assert_pool_matches_interpreter(&p, seed).unwrap();
    }
}

/// Arena recycling across repeated calls must not perturb results: the
/// same program evaluated many times through one persistent runtime (so
/// later calls run on recycled buffers holding stale data) stays
/// bit-identical to the first call and to the interpreter.
#[test]
fn repeated_evals_on_recycled_buffers_are_stable() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![40, 24]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![24, 16]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, w);
    let sm = builders::softmax(&mut p, "sm", mm);
    p.mark_output(sm);
    let cp = compile_program(&p);

    let rt = Runtime::with_options(RuntimeOptions {
        threads: Some(4),
        max_parallelism: Some(4),
        ..RuntimeOptions::default()
    });
    let mut first: Option<HashMap<TensorId, souffle_tensor::Tensor>> = None;
    for round in 0..12 {
        // Alternate two seeds so buffers are recycled across *different*
        // payloads, then check round 0's bindings again at the end.
        let seed = if round % 2 == 0 { 5 } else { 6 };
        let bindings = random_bindings(&p, seed);
        let got = rt.eval(&cp, &bindings).unwrap();
        let want = eval_program(&p, &bindings).unwrap();
        compare_maps("recycled", &p, &got, &want, seed).unwrap();
        if round == 0 {
            first = Some(got);
        } else if seed == 5 {
            let f = first.as_ref().unwrap();
            compare_maps("round0-vs-later", &p, f, &got, seed).unwrap();
        }
    }
    let stats = rt.arena_stats();
    assert!(
        stats.reused > 0,
        "12 rounds through one runtime must recycle buffers, stats {stats:?}"
    );
}

/// The plan built from the global analysis: levels from its dependence
/// wavefronts, last uses from its liveness pass, validated against the
/// program by `with_levels_and_last_use`.
fn analysis_plan(compiled: &Compiled, cp: &CompiledProgram) -> ExecPlan {
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

/// The analysis levels TEs by longest path over producers in definition
/// order and ends each live range at the highest consuming TE, which is
/// exactly what `ExecPlan::from_compiled` derives from def-use edges; so
/// both plans wavefront and recycle identically on every model, untouched
/// (V0) and fully transformed.
#[test]
fn analysis_plan_is_the_def_use_plan() {
    let mut cases = Vec::new();
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        cases.push((format!("{model} V0"), program.clone(), SouffleOptions::v0()));
        cases.push((format!("{model} full"), program, SouffleOptions::full()));
    }
    let bench_bert = bert::build(&BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        seq: 64,
        ffn: 256,
    });
    cases.push((
        "BERT(bench) full".into(),
        bench_bert,
        SouffleOptions::full(),
    ));
    for (label, program, options) in cases {
        let compiled = Souffle::new(options).compile(&program);
        let cp = compile_program(&compiled.program);
        assert_eq!(
            analysis_plan(&compiled, &cp),
            ExecPlan::from_compiled(&cp),
            "{label}: the analysis plan differs from the def-use plan"
        );
    }
}

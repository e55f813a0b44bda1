//! Bit-exact differential testing of the monomorphized kernel tier.
//!
//! The kernel tier (`souffle_te::kernels`) sits between the bytecode VM
//! and the naive interpreter: at compile time each TE either gets a
//! fixed-stride native inner loop or stays on bytecode. Its contract is
//! the same as the VM's — **bit equality** with the naive interpreter for
//! every element of every produced tensor, and identical errors — and it
//! must hold whether the tier is forced on, forced off, or left in auto
//! mode, at every pool size (chunks split mid-row, so the kernels'
//! segment-resume logic is on the line).
//!
//! The suite drives that contract over the six paper models at test
//! scale — raw, fused (V1 and V4) and batched the way serving runs them —
//! hundreds of `TESTKIT_SEED`-randomized generated programs, and
//! handcrafted chunk-boundary cases, among them a horizontal GEMM group
//! whose chunks straddle its pieces and fused softmax/layernorm rows
//! whose inline folds run on `ew_tile` (with strided, short and
//! `NaN`-laden folds beside them); it also pins the selection census on
//! the models (BERT's matmuls really do take `row_dot`, the fused BERT's
//! guarded groups, strip-mined projection and fold-carrying TEs leave the
//! bytecode path, convs really do fall back), checks that the full
//! pipeline never adds bytecode points, and checks the `fast_math`
//! opt-out stays *close* (never bit-identical is not required — it
//! reassociates sums — but the oracle tolerance must hold).

use std::collections::HashMap;
use std::sync::OnceLock;

use souffle_affine::IndexExpr;
use souffle_frontend::models::bert::BertConfig;
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{
    builders, compile_program, BinaryOp, CmpOp, CompiledProgram, CompiledTe, Cond, ExecPlan,
    FallbackReason, ReduceOp, Runtime, RuntimeOptions, ScalarExpr, TeProgram, TensorId, UnaryOp,
};
use souffle_tensor::{DType, Shape, Tensor};
use souffle_testkit::oracle::{check_stage, Stage, Tolerance};
use souffle_testkit::teprog::gen_spec;
use souffle_testkit::{forall, Config};

/// One persistent runtime per (pool size, kernel-tier mode) point:
/// the tier forced on and off at both pool widths, plus an auto-mode
/// runtime (resolves `SOUFFLE_KERNEL_TIER`, on by default — this is the
/// configuration `ci.sh` sweeps with the environment set both ways).
fn runtimes() -> &'static [(&'static str, Runtime)] {
    static CELL: OnceLock<Vec<(&'static str, Runtime)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rt = |threads: usize, kernel_tier: Option<bool>| {
            Runtime::with_options(RuntimeOptions {
                threads: Some(threads),
                max_parallelism: Some(threads),
                kernel_tier,
                ..RuntimeOptions::default()
            })
        };
        vec![
            ("1 stream, kernels on", rt(1, Some(true))),
            ("1 stream, kernels off", rt(1, Some(false))),
            ("3 streams, kernels on", rt(3, Some(true))),
            ("3 streams, kernels off", rt(3, Some(false))),
            ("2 streams, kernels auto", rt(2, None)),
        ]
    })
}

fn compare_maps(
    label: &str,
    program: &TeProgram,
    want: &HashMap<TensorId, Tensor>,
    got: &HashMap<TensorId, Tensor>,
    seed: u64,
) -> Result<(), String> {
    for (id, w) in want {
        let Some(g) = got.get(id) else { continue };
        let name = &program.tensor(*id).name;
        if w.shape() != g.shape() {
            return Err(format!(
                "[{label}] \"{name}\" shape: naive {} vs tiered {} (seed {seed})",
                w.shape(),
                g.shape()
            ));
        }
        for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "[{label}] \"{name}\"[{i}]: naive {a} ({:#010x}) vs tiered {b} ({:#010x}), seed {seed}",
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// Runs `program` through every tier mode × pool size and requires each
/// result (intermediates included) to be bit-identical to the naive
/// interpreter's — or to fail with the identical error.
fn assert_tier_matches_interpreter(program: &TeProgram, seed: u64) -> Result<(), String> {
    assert_tier_matches_on(program, &random_bindings(program, seed), seed)
}

/// [`assert_tier_matches_interpreter`] on caller-built bindings (`seed`
/// only labels the report).
fn assert_tier_matches_on(
    program: &TeProgram,
    bindings: &HashMap<TensorId, Tensor>,
    seed: u64,
) -> Result<(), String> {
    let want = eval_program(program, bindings);
    let cp = compile_program(program);
    for (label, rt) in runtimes() {
        let got = rt.eval_keeping_intermediates(&cp, bindings);
        match (&want, got) {
            (Err(we), Err(ge)) => {
                if *we != ge {
                    return Err(format!(
                        "[{label}] errors differ: naive {we:?}, tiered {ge:?}"
                    ));
                }
            }
            (Err(we), Ok(_)) => {
                return Err(format!(
                    "[{label}] naive failed ({we:?}) but tiered succeeded"
                ));
            }
            (Ok(_), Err(ge)) => {
                return Err(format!(
                    "[{label}] tiered failed ({ge:?}) but naive succeeded"
                ));
            }
            (Ok(want), Ok(got)) => compare_maps(label, program, want, &got, seed)?,
        }
    }
    Ok(())
}

/// The headline contract: all six paper models at test scale, bit-exact
/// across every tier mode and pool size.
#[test]
fn six_models_are_bit_identical_across_tier_modes() {
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        for seed in [42, 777] {
            assert_tier_matches_interpreter(&program, seed)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
        }
    }
}

forall!(
    generated_programs_are_bit_identical_across_tier_modes,
    Config::with_cases(100),
    |rng| (gen_spec(rng, 10), rng.u64_in(0..1_000_000)),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(()); // shrunk-out-of-domain candidate
        }
        assert_tier_matches_interpreter(&spec.build(), *seed)
    }
);

/// The oracle's dedicated stage covers the same ground from the oracle
/// side (naive want vs tier-forced-on and tier-forced-off pooled
/// runtimes); run it directly on a kernel-rich program so the stage is
/// exercised even where `check_all_stages` sweeps are trimmed.
#[test]
fn kernel_tier_oracle_stage_passes_on_kernel_rich_program() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![12, 24]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![24, 16]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, w);
    let sm = builders::softmax(&mut p, "sm", mm);
    let sc = builders::scale(&mut p, "sc", sm, 3.0);
    p.mark_output(sc);
    p.validate().unwrap();
    for seed in [1, 99, 123_456] {
        check_stage(&p, Stage::KernelTier, seed, &Tolerance::default()).unwrap();
    }
}

/// Chunk boundaries land mid-row, so `row_dot` and `ew_tile` resume
/// their segments inside rows and `slice_reduce` splits between rows.
/// `runtime::chunk_len` cuts a TE only when its output points ×
/// reduction points reach `SERIAL_THRESHOLD` (8192), so every TE of this
/// chain is sized past it. A 3-stream pool aims for 12 chunks per TE;
/// output rows are 131 wide:
/// - `mm` (67 × 131 = 8777 outputs × 29 products): chunk
///   max(⌈8777 / 12⌉, ⌊8192 / 29⌋) = max(732, 282) = 732, so 12 chunks;
///   732 = 5 · 131 + 77, so every chunk edge falls inside a row.
/// - `bias_add`, `act`, `sm.exp`, `sm.div` (8777 outputs × 1): chunk
///   max(732, 8192) = 8192, so 2 chunks; 8192 = 62 · 131 + 70, so the
///   edge falls inside row 62.
/// - `sm.max`, `sm.sum` (67 rows × 131): chunk max(⌈67 / 12⌉,
///   ⌊8192 / 131⌋) = max(6, 62) = 62, so 2 chunks of 62 and 5 rows.
///
/// The program is a chain, one TE per plan level, and a level spawns pool
/// tasks only when its TE has at least 2 chunks: one evaluation spawns
/// 12 + 6 · 2 = 24 tasks, which the test checks on a runtime of its own
/// (the shared ones run concurrently with other tests, so their counters
/// mix). Odd prime-ish shapes also leave `TILE`- and `FAST_LANES`-sized
/// remainders everywhere.
#[test]
fn mid_row_chunk_boundaries_stay_bit_identical() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![67, 29]), DType::F32);
    let b = p.add_weight("B", Shape::new(vec![29, 131]), DType::F32);
    let bias = p.add_weight("bias", Shape::new(vec![131]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, b);
    let biased = builders::bias_add(&mut p, "bias_add", mm, bias);
    let act = builders::relu(&mut p, "act", biased);
    let sm = builders::softmax(&mut p, "sm", act);
    p.mark_output(sm);
    p.validate().unwrap();

    let cp = compile_program(&p);
    let kernels: Vec<&str> = cp.tes().iter().map(|te| te.kernel()).collect();
    assert_eq!(
        kernels,
        [
            "row_dot",
            "ew_tile",
            "ew_tile",
            "slice_reduce",
            "ew_tile",
            "slice_reduce",
            "ew_tile"
        ]
    );
    assert_eq!(ExecPlan::from_compiled(&cp).num_levels(), 7, "a chain");
    let rt = Runtime::with_threads(3);
    rt.eval(&cp, &random_bindings(&p, 5)).unwrap();
    assert_eq!(
        rt.take_stats().pool.tasks,
        24,
        "every TE is cut into chunks"
    );

    for seed in [5, 17, 4242] {
        assert_tier_matches_interpreter(&p, seed).unwrap();
    }
}

/// Fused programs through every tier mode and pool size: each Tiny model
/// after horizontal fusion alone (V1) and after the whole pipeline (V4),
/// and the V4 program batched ×4 the way serving runs it (every variable
/// shifted up by one, so horizontal-fusion guards sit on axis 1). These
/// are the guarded, delinearized bodies the bytecode compiler splits into
/// pieces and strip-mines, so they must stay bit-exact on both tiers.
#[test]
fn fused_models_are_bit_identical_across_tier_modes() {
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        for (stage, opts) in [
            ("V1", souffle::SouffleOptions::v1()),
            ("V4", souffle::SouffleOptions::v4()),
        ] {
            let fused = souffle::Souffle::new(opts).compile(&program).program;
            assert_tier_matches_interpreter(&fused, 42)
                .unwrap_or_else(|e| panic!("{model} {stage}: {e}"));
            if stage == "V4" {
                let batched = souffle_transform::batch_program(&fused, 4);
                assert_tier_matches_interpreter(&batched, 43)
                    .unwrap_or_else(|e| panic!("{model} {stage} batched x4: {e}"));
            }
        }
    }
}

/// A horizontal group of three GEMMs with odd extents, built the way
/// horizontal fusion emits it: rows `[0, 7)`, `[7, 12)` and `[12, 21)`
/// behind `v0 < 7` / `v0 < 12` guards, each member reading its own
/// operands at `v0 - cut`. With 21×13 outputs of 397 products each, a
/// 3-stream pool cuts the output into 23-element chunks, so chunk edges
/// fall inside rows and chunks `[69, 92)` and `[138, 161)` straddle the
/// member boundaries at rows 7 and 12.
#[test]
fn horizontal_gemm_group_with_odd_extents_stays_bit_identical() {
    const K: i64 = 397;
    const COLS: i64 = 13;
    let mut p = TeProgram::new();
    let rows = [7i64, 5, 9];
    let mut inputs = Vec::new();
    for (i, &r) in rows.iter().enumerate() {
        inputs.push(p.add_input(&format!("A{i}"), Shape::new(vec![r, K]), DType::F32));
        inputs.push(p.add_weight(&format!("W{i}"), Shape::new(vec![K, COLS]), DType::F32));
    }
    let member = |i: usize, cut: i64| {
        let row = IndexExpr::var(0).sub(IndexExpr::constant(cut));
        ScalarExpr::binary(
            BinaryOp::Mul,
            ScalarExpr::input(2 * i, vec![row, IndexExpr::var(2)]),
            ScalarExpr::input(2 * i + 1, vec![IndexExpr::var(2), IndexExpr::var(1)]),
        )
    };
    let guard = |cut: i64| Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(cut));
    let body = ScalarExpr::select(
        guard(7),
        member(0, 0),
        ScalarExpr::select(guard(12), member(1, 7), member(2, 12)),
    );
    let total: i64 = rows.iter().sum();
    let out = p.add_te(
        "hfuse(g0+g1+g2)",
        Shape::new(vec![total, COLS]),
        DType::F32,
        inputs,
        vec![K],
        Some(ReduceOp::Sum),
        body,
    );
    p.mark_output(out);
    p.validate().unwrap();
    for seed in [3, 29, 8080] {
        assert_tier_matches_interpreter(&p, seed).unwrap();
    }
}

/// The compiled TEs of `program` whose body carries an inline fold.
fn fold_tes<'a>(
    program: &'a TeProgram,
    cp: &'a CompiledProgram,
) -> impl Iterator<Item = &'a CompiledTe> + 'a {
    program
        .te_ids()
        .zip(cp.tes())
        .filter(|(id, _)| program.te(*id).body.has_fold())
        .map(|(_, te)| te)
}

/// matmul → softmax → layernorm over `[67, 131]`, fused in the pipeline's
/// order (vertical fusion, then `reduction_fuse_program`): `sm.exp`,
/// `sm.div`, `ln.center` and `ln.norm` carry their row max, sum, mean and
/// variance as folds, and every one of them runs `ew_tile`. On a 3-stream
/// pool `runtime::chunk_len` cuts the 8,777 outputs into chunks of 8,192
/// (= 62 · 131 + 70), so the second chunk starts inside row 62 and that
/// row's folds are computed again at the segment start. 131 is not a
/// multiple of `TILE`, so both the output lanes and the fold lanes leave
/// remainders.
#[test]
fn fused_softmax_layernorm_rows_stay_bit_identical() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![67, 29]), DType::F32);
    let b = p.add_weight("B", Shape::new(vec![29, 131]), DType::F32);
    let gamma = p.add_weight("gamma", Shape::new(vec![131]), DType::F32);
    let beta = p.add_weight("beta", Shape::new(vec![131]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, b);
    let sm = builders::softmax(&mut p, "sm", mm);
    let ln = builders::layer_norm(&mut p, "ln", sm, gamma, beta, 1e-5);
    p.mark_output(ln);
    let (vertical, _) = souffle_transform::vertical_fuse_program(&p);
    let (fused, stats) = souffle_transform::reduction_fuse_program(&vertical);
    fused.validate().unwrap();
    assert_eq!(stats.fused, 4, "{stats:?}");

    let cp = compile_program(&fused);
    let names: Vec<&str> = fold_tes(&fused, &cp).map(|te| te.name()).collect();
    assert_eq!(names, ["sm.exp", "sm.div", "ln.center", "ln.norm"]);
    for te in fold_tes(&fused, &cp) {
        assert_eq!(te.piece_kernels(), ["ew_tile"], "{}", te.name());
    }
    for seed in [5, 17, 4242] {
        assert_tier_matches_interpreter(&fused, seed).unwrap();
    }
}

/// A program of one map TE `fused[dims] = body`, operand `i` being an
/// input of shape `inputs[i]`.
fn map_te(inputs: &[&[i64]], dims: &[i64], body: ScalarExpr) -> TeProgram {
    let mut p = TeProgram::new();
    let operands = inputs
        .iter()
        .enumerate()
        .map(|(i, shape)| p.add_input(&format!("x{i}"), Shape::new(shape.to_vec()), DType::F32))
        .collect();
    let dims = Shape::new(dims.to_vec());
    let t = p.add_te("fused", dims, DType::F32, operands, vec![], None, body);
    p.mark_output(t);
    p.validate().unwrap();
    p
}

/// `operand[v_a, v_b, ..]` for the variables `vars`.
fn load(operand: usize, vars: &[usize]) -> ScalarExpr {
    ScalarExpr::input(operand, vars.iter().map(|&v| IndexExpr::var(v)).collect())
}

fn mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::binary(BinaryOp::Mul, a, b)
}

/// Two fold shapes a softmax row does not exercise: the shape of
/// EfficientNet's squeeze-excite scale, `x[c, p] · sigmoid(fold_sum(k <
/// 20, s[k] · w[k, c]))`, whose fold varies along the outer axis only and
/// whose binder strides `w` by a whole row (24), so the fold lanes gather;
/// and `x[i, j] - fold_sum(k < 5, y[i, k]²)`, a fold shorter than one lane
/// tile, over rows of 33 (two full tiles and a lane).
#[test]
fn gathered_and_short_folds_stay_bit_identical() {
    let gate = ScalarExpr::fold(ReduceOp::Sum, 2, 20, mul(load(1, &[2]), load(2, &[2, 0])));
    let se = map_te(
        &[&[24, 37], &[20], &[20, 24]],
        &[24, 37],
        mul(load(0, &[0, 1]), ScalarExpr::unary(UnaryOp::Sigmoid, gate)),
    );
    let square = ScalarExpr::fold(ReduceOp::Sum, 2, 5, mul(load(1, &[0, 2]), load(1, &[0, 2])));
    let short = map_te(
        &[&[40, 33], &[40, 5]],
        &[40, 33],
        ScalarExpr::binary(BinaryOp::Sub, load(0, &[0, 1]), square),
    );
    for (label, p) in [("squeeze-excite", se), ("short", short)] {
        assert_eq!(
            compile_program(&p).tes()[0].piece_kernels(),
            ["ew_tile"],
            "{label}"
        );
        for seed in [2, 71, 9001] {
            assert_tier_matches_interpreter(&p, seed).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// The softmax shift `out[i, j] = x[i, j] - fold_max(k < 24, x[i, k])`
/// over hand-bound rows where the combine order shows: all `-inf`, `NaN`
/// first, last, throughout and beside `±inf`, and signed zeros in both
/// orders (`max(-0, 0)` depends on which comes first).
#[test]
fn max_fold_over_infinities_and_nans_stays_bit_identical() {
    const COLS: usize = 24;
    let dims = [16, COLS as i64];
    let row_max = ScalarExpr::fold(ReduceOp::Max, 2, COLS as i64, load(0, &[0, 2]));
    let p = map_te(
        &[&dims],
        &dims,
        ScalarExpr::binary(BinaryOp::Sub, load(0, &[0, 1]), row_max),
    );
    assert_eq!(compile_program(&p).tes()[0].piece_kernels(), ["ew_tile"]);

    let x = p.free_tensors()[0];
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let mut data = random_bindings(&p, 3)[&x].data().to_vec();
    let mut row = |r: usize, f: &dyn Fn(usize) -> Option<f32>| {
        for (c, slot) in data[r * COLS..(r + 1) * COLS].iter_mut().enumerate() {
            if let Some(v) = f(c) {
                *slot = v;
            }
        }
    };
    row(0, &|_| Some(-inf));
    row(1, &|c| (c == 0).then_some(nan));
    row(2, &|c| (c == COLS - 1).then_some(nan));
    row(3, &|_| Some(nan));
    row(4, &|c| Some(if c % 2 == 0 { nan } else { -inf }));
    row(5, &|c| {
        [(3, inf), (4, nan), (17, -inf)]
            .into_iter()
            .find(|e| e.0 == c)
            .map(|e| e.1)
    });
    row(6, &|c| Some(if c % 2 == 0 { -0.0 } else { 0.0 }));
    row(7, &|c| Some(if c % 2 == 0 { 0.0 } else { -0.0 }));
    row(8, &|c| Some(if c < 20 { -1.0 - c as f32 } else { -0.0 }));
    let bindings = HashMap::from([(x, Tensor::from_vec(Shape::new(dims.to_vec()), data))]);
    assert_tier_matches_on(&p, &bindings, 0).unwrap();
}

/// The folds `ew_tile` cannot hoist out of a row stay on bytecode, report
/// `reduced_body`, and stay bit-exact there: one that reads the innermost
/// output axis (a different value per element) and one nested in another.
#[test]
fn folds_the_kernel_cannot_hoist_stay_on_bytecode_bit_identically() {
    let per_element = ScalarExpr::fold(
        ReduceOp::Sum,
        2,
        32,
        mul(load(0, &[0, 2]), load(1, &[2, 1])),
    );
    let centered = ScalarExpr::binary(
        BinaryOp::Sub,
        load(0, &[0, 2]),
        ScalarExpr::fold(ReduceOp::Max, 3, 32, load(0, &[0, 3])),
    );
    let nested = ScalarExpr::fold(ReduceOp::Sum, 2, 32, centered);
    for (label, fold) in [("per-element", per_element), ("nested", nested)] {
        let body = ScalarExpr::binary(BinaryOp::Div, load(0, &[0, 1]), fold);
        let p = map_te(&[&[24, 32], &[32, 32]], &[24, 32], body);
        let reason = compile_program(&p).tes()[0].kernel_fallback_reason();
        assert_eq!(reason, Some("reduced_body"), "{label}");
        for seed in [4, 44] {
            assert_tier_matches_interpreter(&p, seed).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// BERT at the pipeline bench's scale (what infer-bert evaluates).
fn bench_bert() -> TeProgram {
    souffle_frontend::models::bert::build(&BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        seq: 64,
        ffn: 256,
    })
}

/// `program` through the pipeline at `opts`, with reduction fusion pinned
/// on and verification off (selection and evaluation only).
fn fused_program(program: &TeProgram, opts: souffle::SouffleOptions) -> TeProgram {
    let opts = souffle::SouffleOptions {
        verify: false,
        reduction_fusion: Some(true),
        ..opts
    };
    souffle::Souffle::new(opts).compile(program).program
}

/// Every Tiny model's fold TEs sit under the small-TE cutoff, so this is
/// the one real model that evaluates fold kernels: full-pipeline
/// BERT(bench) with the tier on, at 1 and 3 streams, must match the tier
/// off bit for bit.
#[test]
fn bench_bert_full_pipeline_is_bit_identical_across_tier_modes() {
    let fused = fused_program(&bench_bert(), souffle::SouffleOptions::full());
    let cp = compile_program(&fused);
    assert!(fold_tes(&fused, &cp).count() > 0, "no fold TEs to test");
    let bindings = random_bindings(&fused, 64);
    let eval = |label: &str| {
        let (_, rt) = runtimes().iter().find(|(l, _)| *l == label).unwrap();
        rt.eval_keeping_intermediates(&cp, &bindings).unwrap()
    };
    let want = eval("1 stream, kernels off");
    for label in ["1 stream, kernels on", "3 streams, kernels on"] {
        compare_maps(label, &fused, &want, &eval(label), 64).unwrap();
    }
}

/// Bytecode points (`CompiledProgram::bytecode_points`: output × reduction
/// points over the pieces that fall back) must not rise from V0 to the
/// full pipeline: a timing-free check that no transform stage moves work
/// off the kernel tier. It is checked on BERT(bench) and on every Tiny
/// model but Swin. Swin (Tiny) rises (6,096 → 6,256): its fold TEs sit
/// under the small-TE cutoff and its window projections keep generic
/// accesses (the window partition and roll are not affine yet).
#[test]
fn full_pipeline_never_adds_bytecode_points() {
    let points = |program: &TeProgram, opts| {
        compile_program(&fused_program(program, opts)).bytecode_points()
    };
    let mut programs = vec![("BERT(bench)".to_string(), bench_bert())];
    for model in [
        Model::Bert,
        Model::ResNext,
        Model::Lstm,
        Model::EfficientNet,
        Model::Mmoe,
    ] {
        programs.push((
            format!("{model} (Tiny)"),
            build_model(model, ModelConfig::Tiny),
        ));
    }
    for (name, program) in &programs {
        let v0 = points(program, souffle::SouffleOptions::v0());
        let full = points(program, souffle::SouffleOptions::full());
        assert!(
            full <= v0,
            "{name}: bytecode points rose from {v0} at V0 to {full}"
        );
    }
}

/// Selection census on the six models: BERT's attention/FFN stack must
/// actually hit the specialized kernels it was built for, and the
/// convolutional models must fall back honestly (three-axis conv
/// odometers are exactly what the tier refuses to specialize) while
/// their two-axis average pools take the contiguous slice-reduce path.
///
/// Pins run at Paper scale — kernel selection is static (no evaluation
/// happens), and the Tiny configs sit below the small-TE dispatch cutoff
/// by design, which is pinned separately below.
#[test]
fn model_censuses_match_expected_kernel_mix() {
    let reason_index = |r: FallbackReason| {
        FallbackReason::ALL
            .iter()
            .position(|x| *x == r)
            .expect("reason listed")
    };

    let bert_program = build_model(Model::Bert, ModelConfig::Paper);
    let bert = compile_program(&bert_program).kernel_census();
    assert!(bert.row_dot > 0, "BERT matmuls must take row_dot: {bert:?}");
    assert!(
        bert.slice_reduce > 0,
        "BERT softmax/layernorm moments must take slice_reduce: {bert:?}"
    );
    assert!(
        bert.ew_tile > 0,
        "BERT bias/residual adds must take ew_tile: {bert:?}"
    );
    // The raw program reaches Q·Kᵀ through an explicit transpose TE, so
    // the score matmuls are still row_dot; only after vertical fusion
    // composes the transpose into the matmul body do both factors become
    // unit-stride over the reduction axis — slice_dot is a property of
    // the *transformed* program.
    let mut opts = souffle::SouffleOptions::full();
    opts.verify = false; // selection census only; verification is covered elsewhere
    let fused = souffle::Souffle::new(opts).compile(&bert_program).program;
    let fused_census = compile_program(&fused).kernel_census();
    assert!(
        fused_census.slice_dot > 0,
        "transformed BERT Q·Kᵀ scores must take slice_dot: {fused_census:?}"
    );
    // Reduction fusion carries softmax/layernorm denominators inline as
    // row-invariant folds, which `ew_tile` computes once per row segment:
    // nothing is left on bytecode as a general reduction body.
    assert_eq!(
        fused_census.fallback[reason_index(FallbackReason::ReducedBody)],
        0,
        "transformed BERT fold-carrying TEs must leave reduced_body: {fused_census:?}"
    );

    // BERT at the pipeline bench's scale (what infer-bert evaluates):
    // under the full pipeline the horizontal groups split at their guard
    // cuts and the projection strip-mines, so nothing falls back for
    // control flow or a generic access, and the QKV GEMM pieces and the
    // projection run row_dot; the 12 fold-carrying softmax/layernorm TEs
    // run ew_tile, so nothing at all stays on bytecode. At V0 the head
    // reshapes' delinearized reads are affine in range, so they copy rows.
    let bench_bert = bench_bert();
    let full_program = fused_program(&bench_bert, souffle::SouffleOptions::full());
    let full = compile_program(&full_program);
    let census = full.kernel_census();
    assert_eq!(
        census.bytecode(),
        0,
        "full-pipeline BERT(bench) must not fall back: {census:?}"
    );
    let folds: Vec<_> = fold_tes(&full_program, &full).collect();
    assert_eq!(
        folds.len(),
        12,
        "softmax exp/div and ln center/norm, 2 layers"
    );
    for te in folds {
        assert_eq!(te.piece_kernels(), ["ew_tile"], "{}", te.name());
    }
    let named = |suffix: &str| {
        full.tes()
            .iter()
            .filter(move |te| te.name().ends_with(suffix))
            .collect::<Vec<_>>()
    };
    let (qkv, proj) = (named(".v)"), named(".proj"));
    assert_eq!(
        (qkv.len(), proj.len()),
        (2, 2),
        "one QKV group and one projection per layer"
    );
    for te in qkv {
        assert!(te.name().starts_with("hfuse("), "{}", te.name());
        assert_eq!(te.piece_kernels(), vec!["row_dot"; 3], "{}", te.name());
    }
    for te in proj {
        assert_eq!(te.piece_kernels(), vec!["row_dot"], "{}", te.name());
    }
    let v0 = compile_program(&fused_program(&bench_bert, souffle::SouffleOptions::v0()));
    let reshapes: Vec<_> = v0
        .tes()
        .iter()
        .filter(|te| {
            [".q.reshape", ".k.reshape", ".v.reshape"]
                .iter()
                .any(|s| te.name().ends_with(s))
        })
        .collect();
    assert_eq!(reshapes.len(), 6, "q/k/v reshapes of two layers");
    for te in reshapes {
        assert_eq!(te.kernel(), "copy_rows", "V0 {}", te.name());
    }

    // Under the full pipeline no model, at either scale, leaves a piece on
    // bytecode as a straight-line affine reduction body: fold-carrying
    // pieces run ew_tile, and what stays behind reports what blocks it.
    for model in Model::ALL {
        for config in [ModelConfig::Tiny, ModelConfig::Paper] {
            let program =
                fused_program(&build_model(model, config), souffle::SouffleOptions::full());
            let census = compile_program(&program).kernel_census();
            assert_eq!(
                census.fallback[reason_index(FallbackReason::ReducedBody)],
                0,
                "{model} {config:?}: {census:?}"
            );
        }
    }

    for conv_model in [Model::ResNext, Model::EfficientNet] {
        let census = compile_program(&build_model(conv_model, ModelConfig::Paper)).kernel_census();
        assert!(
            census.fallback[reason_index(FallbackReason::MultiAxisReduce)] > 0,
            "{conv_model}: three-axis conv reductions must fall back multi_axis_reduce: {census:?}"
        );
        assert!(
            census.slice_reduce > 0,
            "{conv_model}: contiguous two-axis pools must take slice_reduce: {census:?}"
        );
    }

    // The small-TE cutoff: MMoE's gate/tower chains are exactly the
    // dispatch-overhead shapes the cutoff exists for. At Tiny scale every
    // TE is gate-sized and the whole model must stay on bytecode; at
    // Paper scale the gate softmax chains still fall back small_te while
    // the expert GEMMs (131k reduction points) keep their kernels.
    let mmoe_tiny = compile_program(&build_model(Model::Mmoe, ModelConfig::Tiny)).kernel_census();
    assert_eq!(
        mmoe_tiny.specialized(),
        0,
        "Tiny MMoE must run entirely on bytecode: {mmoe_tiny:?}"
    );
    assert!(
        mmoe_tiny.fallback[reason_index(FallbackReason::SmallTe)] > 0,
        "Tiny MMoE gate-sized TEs must fall back small_te: {mmoe_tiny:?}"
    );
    let mmoe = compile_program(&build_model(Model::Mmoe, ModelConfig::Paper)).kernel_census();
    assert!(
        mmoe.fallback[reason_index(FallbackReason::SmallTe)] > 0,
        "Paper MMoE gate-sized TEs must fall back small_te: {mmoe:?}"
    );
    assert!(
        mmoe.row_dot + mmoe.slice_dot > 0,
        "Paper MMoE expert GEMMs must keep specialized dots: {mmoe:?}"
    );
}

/// `fast_math` is the one deliberate bit-identity opt-out: multi-lane
/// partial accumulators reassociate `Sum` dots. Results must stay within
/// the oracle tolerance of the strict order — and on a reduction long
/// enough to accumulate rounding differences, they must actually *differ*
/// somewhere, proving the relaxed path ran (a bit-identical "fast" path
/// would mean the flag silently did nothing).
#[test]
fn fast_math_is_close_but_relaxed() {
    let mut p = TeProgram::new();
    // 16 rows keeps the TE above the small-TE cutoff (16·211 points).
    let w = p.add_weight("W", Shape::new(vec![16, 211]), DType::F32);
    let x = p.add_input("x", Shape::new(vec![211]), DType::F32);
    // gemv: both factors unit-stride over the reduction axis, so the
    // tier selects slice_dot — the kernel fast_math relaxes.
    let y = builders::gemv(&mut p, "y", w, x);
    p.mark_output(y);
    p.validate().unwrap();
    let census = compile_program(&p).kernel_census();
    assert!(
        census.slice_dot > 0,
        "setup must select slice_dot: {census:?}"
    );

    let rt_fast = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        fast_math: true,
    });
    let bindings = random_bindings(&p, 31);
    let want = eval_program(&p, &bindings).unwrap();
    let got = rt_fast.eval(&compile_program(&p), &bindings).unwrap();
    let tol = Tolerance::default();
    let mut any_diff = false;
    for (id, w) in &want {
        let Some(g) = got.get(id) else { continue };
        for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
            assert!(
                tol.close(*a, *b),
                "fast_math drifted beyond tolerance at [{i}]: strict {a} vs relaxed {b}"
            );
            any_diff |= a.to_bits() != b.to_bits();
        }
    }
    assert!(
        any_diff,
        "a 211-term relaxed sum should differ from the strict order in at least one bit"
    );
}

//! The cross-shape differential suite: dynamic shapes are a *compile-time*
//! feature and must be invisible at the numeric level.
//!
//! Three contracts, all **bit-exact**:
//!
//! 1. **Symbolic sequence** — BERT and LSTM register once from their
//!    [`souffle_frontend::dyn_seq_spec`] and every sequence length
//!    `1..=max` (covering every bucket boundary, both its ±1 neighbors,
//!    and the max bound) is served through the shape-bucketed cache —
//!    padded into its sequence bucket with the spec's mask/gate contract —
//!    and must match `Souffle::eval_reference` of the *fixed-shape*
//!    program compiled at that exact length.
//! 2. **Symbolic batch** — all six paper models go through the testkit's
//!    [`Stage::ShapeBucket`] oracle: one symbolic-batch template, lazily
//!    compiled per bucket, every batch size vs solo evaluation.
//! 3. **Padding regression** — for every model, an under-full batch (3
//!    requests on the 4-bucket; short sequences for the dynamic models, so
//!    both the batch axis *and* the sequence axis pad) matches the
//!    unpadded exact-shape compile.

use souffle::{Souffle, SouffleOptions};
use souffle_frontend::{build_model, dyn_seq_spec, Model, ModelConfig};
use souffle_serve::{ServeOptions, Server, ServerBuilder};
use souffle_te::interp::random_bindings;
use souffle_te::sym::DynSpec;
use souffle_te::{TeProgram, TensorId, TensorKind};
use souffle_tensor::Tensor;
use souffle_testkit::oracle::check_shape_bucket;
use souffle_testkit::seed_from_env;
use std::collections::HashMap;

fn assert_bits_eq(ctx: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{ctx}: shape mismatch");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: element {i} differs ({a} vs {b})"
        );
    }
}

fn serve_options(max_batch: usize) -> ServeOptions {
    ServeOptions {
        queue_capacity: 64,
        max_batch,
        batch_deadline_ns: 3_600_000_000_000,
        workers: 1,
        buckets: vec![1, 2, 4, 8],
        shape_cache_capacity: None,
    }
}

/// Weights for a dynamic model, keyed by name, drawn from the interface
/// program's seeded bindings.
fn dyn_weights(iface: &TeProgram, seed: u64) -> HashMap<String, Tensor> {
    random_bindings(iface, seed)
        .into_iter()
        .filter(|(id, _)| iface.tensor(*id).kind == TensorKind::Weight)
        .map(|(id, t)| (iface.tensor(id).name.clone(), t))
        .collect()
}

/// A request at exact sequence length `s`: binds every interface input
/// that exists at `s` (per-step members `t < s` only), with shapes taken
/// from the exact-length program by name.
fn request_at(
    spec: &DynSpec,
    iface: &TeProgram,
    p_s: &TeProgram,
    s: i64,
    seed: u64,
) -> HashMap<TensorId, Tensor> {
    let shape_at_s: HashMap<&str, _> = p_s
        .tensors()
        .iter()
        .map(|t| (t.name.as_str(), t.shape.clone()))
        .collect();
    let mut out = HashMap::new();
    for (k, id) in iface.free_tensors().into_iter().enumerate() {
        let info = iface.tensor(id);
        if info.kind == TensorKind::Weight || spec.is_derived_name(&info.name) {
            continue;
        }
        if let Some((_, t)) = spec.per_step_index(&info.name) {
            if t >= s {
                continue;
            }
        }
        let shape = shape_at_s[info.name.as_str()].clone();
        out.insert(
            id,
            Tensor::random(shape, seed.wrapping_add(31 * k as u64)).with_dtype(info.dtype),
        );
    }
    out
}

/// Bindings for the exact-length reference program: weights by name, the
/// request's inputs by name, and the spec's derived inputs (all-valid at
/// exact length — no padding to mask).
fn reference_bindings(
    spec: &DynSpec,
    iface: &TeProgram,
    p_s: &TeProgram,
    s: i64,
    weights: &HashMap<String, Tensor>,
    request: &HashMap<TensorId, Tensor>,
) -> HashMap<TensorId, Tensor> {
    let request_by_name: HashMap<&str, &Tensor> = request
        .iter()
        .map(|(id, t)| (iface.tensor(*id).name.as_str(), t))
        .collect();
    let binding = spec.table.bind(vec![s]).expect("s within bounds");
    let mut full = HashMap::new();
    for id in p_s.free_tensors() {
        let info = p_s.tensor(id);
        let t = if info.kind == TensorKind::Weight {
            weights[&info.name].clone()
        } else if spec.is_derived_name(&info.name) {
            spec.derived_tensor(&info.name, &info.shape, &binding)
                .expect("derived name")
                .with_dtype(info.dtype)
        } else {
            (*request_by_name[info.name.as_str()]).clone()
        };
        full.insert(id, t);
    }
    full
}

fn check_seq_response(
    model: Model,
    spec: &DynSpec,
    iface: &TeProgram,
    s: i64,
    weights: &HashMap<String, Tensor>,
    request: &HashMap<TensorId, Tensor>,
    outputs: &HashMap<TensorId, Tensor>,
) {
    let p_s = spec.at(&spec.table.bind(vec![s]).expect("s within bounds"));
    let souffle = Souffle::new(SouffleOptions::full());
    let compiled = souffle.compile(&p_s);
    let full = reference_bindings(spec, iface, &p_s, s, weights, request);
    let want = souffle
        .eval_reference(&compiled, &full)
        .expect("reference eval");
    for (k, oid) in iface.outputs().iter().enumerate() {
        let ref_id = p_s.outputs()[k];
        assert_bits_eq(
            &format!("{model} seq {s} output {oid}"),
            &want[&ref_id],
            &outputs[oid],
        );
    }
}

/// BERT and LSTM, registered once with a symbolic `seq`, serve every
/// length `1..=max` bit-exactly — compiling only one variant per sequence
/// bucket, never per request.
#[test]
fn seq_models_serve_every_length_bit_exactly() {
    let base_seed = seed_from_env() ^ 0xD15;
    for model in [Model::Bert, Model::Lstm] {
        let spec = dyn_seq_spec(model, ModelConfig::Tiny).expect("seq model");
        let iface = spec.at(&spec.table.max_binding());
        let sym = spec.table.ids().next().unwrap();
        let (min, max) = spec.table.bounds(sym);
        assert_eq!(min, 1, "{model}: seq models declare 1..=max");
        let weights = dyn_weights(&iface, base_seed);

        let server = ServerBuilder::new(serve_options(1))
            .register_dyn("m", spec.clone(), weights.clone())
            .start();
        let seq_buckets = server.seq_buckets("m").expect("registered");
        assert!(!seq_buckets.is_empty(), "{model}: symbolic model");

        for s in 1..=max {
            let p_s = spec.at(&spec.table.bind(vec![s]).unwrap());
            let request = request_at(&spec, &iface, &p_s, s, base_seed.wrapping_add(s as u64));
            let resp = server
                .submit("m", request.clone())
                .expect_accepted()
                .wait()
                .unwrap_or_else(|e| panic!("{model} seq {s}: {e}"));
            let want_bucket = *seq_buckets.iter().find(|&&b| b >= s).unwrap();
            assert_eq!(resp.seq_bucket, Some(want_bucket), "{model} seq {s}");
            check_seq_response(model, &spec, &iface, s, &weights, &request, &resp.outputs);
        }

        // One compiled variant per sequence bucket actually used — no
        // per-request recompiles. (With SOUFFLE_SHAPE_CACHE=off nothing is
        // retained; the bit-exactness sweep above is the contract then.)
        if souffle::te::env_flag(souffle::SHAPE_CACHE_ENV).unwrap_or(true) {
            let used: usize = seq_buckets.iter().filter(|&&b| b <= max).count();
            assert_eq!(
                server.cached_variants("m"),
                Some(used),
                "{model}: exactly one variant per used (batch, seq) bucket"
            );
        }
        server.shutdown();
    }
}

/// All six models through the symbolic-batch shape-bucket oracle: one
/// template, lazy per-bucket compiles, every batch size bit-exact vs solo
/// evaluation, warm lookups never recompile.
#[test]
fn all_models_pass_the_symbolic_batch_oracle() {
    let base_seed = seed_from_env() ^ 0xBA7C;
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        check_shape_bucket(&program, base_seed).unwrap_or_else(|e| panic!("{model}: {e}"));
    }
}

fn start_dyn_or_fixed(model: Model, program: &TeProgram, seed: u64) -> (Server, Option<DynSpec>) {
    match dyn_seq_spec(model, ModelConfig::Tiny) {
        Some(spec) => {
            let iface = spec.at(&spec.table.max_binding());
            let server = ServerBuilder::new(serve_options(4))
                .register_dyn("m", spec.clone(), dyn_weights(&iface, seed))
                .start();
            (server, Some(spec))
        }
        None => {
            let weights: HashMap<TensorId, Tensor> = random_bindings(program, seed)
                .into_iter()
                .filter(|(id, _)| program.tensor(*id).kind == TensorKind::Weight)
                .collect();
            let server = ServerBuilder::new(serve_options(4))
                .register("m", program, weights)
                .start();
            (server, None)
        }
    }
}

/// The padding regression: for every model, 3 requests flush onto the
/// 4-bucket (one replicated slot); the dynamic models additionally submit
/// at a *short* sequence length so the sequence axis pads inside its
/// bucket too. Every response must match the unpadded exact-shape
/// reference.
#[test]
fn padded_requests_match_the_unpadded_compile_for_every_model() {
    let base_seed = seed_from_env() ^ 0x9AD2;
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        let (server, spec) = start_dyn_or_fixed(model, &program, base_seed);

        match spec {
            Some(spec) => {
                let iface = spec.at(&spec.table.max_binding());
                let weights = dyn_weights(&iface, base_seed);
                let sym = spec.table.ids().next().unwrap();
                // One short of the top bucket: pads along seq inside it.
                let s = (spec.table.bounds(sym).1 - 1).max(1);
                let p_s = spec.at(&spec.table.bind(vec![s]).unwrap());
                let requests: Vec<HashMap<TensorId, Tensor>> = (0..3)
                    .map(|b| request_at(&spec, &iface, &p_s, s, base_seed.wrapping_add(100 + b)))
                    .collect();
                let handles: Vec<_> = requests
                    .iter()
                    .map(|r| server.submit("m", r.clone()).expect_accepted())
                    .collect();
                // 3 requests with max_batch 4: the deadline trigger would
                // stall the test, so force the flush via a 4th request.
                let filler = request_at(&spec, &iface, &p_s, s, base_seed.wrapping_add(999));
                let h4 = server.submit("m", filler.clone()).expect_accepted();
                for (b, (handle, request)) in handles.into_iter().zip(&requests).enumerate() {
                    let resp = handle
                        .wait()
                        .unwrap_or_else(|e| panic!("{model} request {b}: {e}"));
                    assert_eq!(resp.bucket, 4, "{model} request {b}");
                    check_seq_response(model, &spec, &iface, s, &weights, request, &resp.outputs);
                }
                let resp4 = h4.wait().unwrap();
                check_seq_response(model, &spec, &iface, s, &weights, &filler, &resp4.outputs);
            }
            None => {
                let souffle = Souffle::new(SouffleOptions::full());
                let compiled = souffle.compile(&program);
                let weights: HashMap<TensorId, Tensor> = random_bindings(&program, base_seed)
                    .into_iter()
                    .filter(|(id, _)| program.tensor(*id).kind == TensorKind::Weight)
                    .collect();
                let requests: Vec<HashMap<TensorId, Tensor>> = (0..4)
                    .map(|b| {
                        random_bindings(&program, base_seed.wrapping_add(100 + b))
                            .into_iter()
                            .filter(|(id, _)| program.tensor(*id).kind != TensorKind::Weight)
                            .collect()
                    })
                    .collect();
                let handles: Vec<_> = requests
                    .iter()
                    .map(|r| server.submit("m", r.clone()).expect_accepted())
                    .collect();
                for (b, (handle, request)) in handles.into_iter().zip(&requests).enumerate() {
                    let resp = handle
                        .wait()
                        .unwrap_or_else(|e| panic!("{model} request {b}: {e}"));
                    assert_eq!(resp.bucket, 4, "{model} request {b}");
                    let mut full = weights.clone();
                    full.extend(request.iter().map(|(id, t)| (*id, t.clone())));
                    let want = souffle
                        .eval_reference(&compiled, &full)
                        .expect("reference eval");
                    for id in program.outputs() {
                        assert_bits_eq(
                            &format!("{model} request {b} output {id}"),
                            &want[&id],
                            &resp.outputs[&id],
                        );
                    }
                }
            }
        }
        server.shutdown();
    }
}

//! Batched serving is a pure *throughput* feature: every response coming
//! out of a [`souffle_serve::Server`] must be bit-identical to evaluating
//! that request alone through `Souffle::eval_reference`, no matter which
//! requests shared its batch, which bucket variant it padded into, or
//! which trigger flushed it.
//!
//! This suite drives the *real* server — worker threads, timer, batcher,
//! pre-compiled bucket variants — across all six paper models and every
//! batch bucket (1/2/4/8), plus the padding path (a deadline-flushed
//! batch of 3 running on the 4-bucket with one replicated slot). The
//! testkit oracle's `Stage::BatchedServe` covers the same invariance on
//! randomized generated programs (see `tests/differential_oracle.rs`);
//! here the subject is the serving engine itself.

use souffle::{Souffle, SouffleOptions};
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_serve::{BatchTrigger, ServeOptions, ServerBuilder};
use souffle_te::interp::random_bindings;
use souffle_te::{TeProgram, TensorId, TensorKind};
use souffle_tensor::Tensor;
use souffle_testkit::seed_from_env;
use std::collections::HashMap;

/// Splits `random_bindings` output into (weights, per-request inputs) the
/// way a deployment would: weights bound once at registration, everything
/// else supplied per request.
fn split_weights(
    program: &TeProgram,
    bindings: HashMap<TensorId, Tensor>,
) -> (HashMap<TensorId, Tensor>, HashMap<TensorId, Tensor>) {
    bindings
        .into_iter()
        .partition(|(id, _)| program.tensor(*id).kind == TensorKind::Weight)
}

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

/// All six models × buckets 1/2/4/8: submit exactly `bucket` requests
/// with `max_batch == bucket` so the size trigger flushes one full batch
/// onto that bucket's variant, then demand every response bit-match the
/// per-request reference evaluation.
#[test]
fn batched_serving_matches_eval_reference_on_all_models_and_buckets() {
    let base_seed = seed_from_env();
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        let souffle = Souffle::new(SouffleOptions::full());
        let compiled = souffle.compile(&program);
        let (weights, _) = split_weights(&program, random_bindings(&program, base_seed));
        for bucket in [1usize, 2, 4, 8] {
            let server = ServerBuilder::new(ServeOptions {
                queue_capacity: 64,
                max_batch: bucket,
                // Effectively infinite: only the size trigger may fire.
                batch_deadline_ns: 3_600_000_000_000,
                workers: 1,
                buckets: vec![1, 2, 4, 8],
            })
            .register("m", &program, weights.clone())
            .start();

            let requests: Vec<HashMap<TensorId, Tensor>> = (0..bucket)
                .map(|b| {
                    let seed = base_seed
                        .wrapping_add(1 + b as u64)
                        .wrapping_add(997 * bucket as u64);
                    split_weights(&program, random_bindings(&program, seed)).1
                })
                .collect();
            let handles: Vec<_> = requests
                .iter()
                .map(|inputs| server.submit("m", inputs.clone()).expect_accepted())
                .collect();

            for (b, (handle, inputs)) in handles.into_iter().zip(&requests).enumerate() {
                let resp = handle.wait().unwrap_or_else(|e| {
                    panic!("{model} bucket {bucket} request {b}: serve failed: {e}")
                });
                assert_eq!(resp.batch_size, bucket, "{model} bucket {bucket}");
                assert_eq!(resp.bucket, bucket, "{model} bucket {bucket}");
                assert_eq!(resp.trigger, BatchTrigger::Size, "{model} bucket {bucket}");

                let mut full = weights.clone();
                full.extend(inputs.iter().map(|(id, t)| (*id, t.clone())));
                let want = souffle
                    .eval_reference(&compiled, &full)
                    .expect("reference eval");
                for id in program.outputs() {
                    assert_bits_eq(
                        &format!("{model} bucket {bucket} request {b} output {id}"),
                        &want[&id],
                        &resp.outputs[&id],
                    );
                }
            }

            let stats = server.shutdown();
            assert_eq!(stats.submitted, bucket as u64, "{model} bucket {bucket}");
            assert_eq!(stats.completed, bucket as u64, "{model} bucket {bucket}");
            assert_eq!(stats.batches, 1, "{model} bucket {bucket}");
            assert_eq!(stats.size_flushes, 1, "{model} bucket {bucket}");
            assert_eq!(stats.padded_slots, 0, "{model} bucket {bucket}");
        }
    }
}

/// The padding path: 3 requests with `max_batch` 4 and a short deadline
/// flush as one under-full batch on the 4-bucket — one replicated slot,
/// responses still bit-exact against the per-request reference.
#[test]
fn deadline_flushed_underfull_batch_pads_and_stays_bit_exact() {
    let base_seed = seed_from_env() ^ 0x9AD;
    let program = build_model(Model::Lstm, ModelConfig::Tiny);
    let souffle = Souffle::new(SouffleOptions::full());
    let compiled = souffle.compile(&program);
    let (weights, _) = split_weights(&program, random_bindings(&program, base_seed));

    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 64,
        max_batch: 4,
        batch_deadline_ns: 50_000_000, // 50 ms: fires well after the 3 pushes
        workers: 1,
        buckets: vec![1, 2, 4, 8],
    })
    .register("lstm", &program, weights.clone())
    .start();

    let requests: Vec<HashMap<TensorId, Tensor>> = (0..3)
        .map(|b| split_weights(&program, random_bindings(&program, base_seed + 1 + b)).1)
        .collect();
    let handles: Vec<_> = requests
        .iter()
        .map(|inputs| server.submit("lstm", inputs.clone()).expect_accepted())
        .collect();

    for (b, (handle, inputs)) in handles.into_iter().zip(&requests).enumerate() {
        let resp = handle.wait().expect("serve failed");
        assert_eq!(resp.batch_size, 3, "request {b}");
        assert_eq!(
            resp.bucket, 4,
            "request {b}: 3 requests pad onto the 4-bucket"
        );
        assert_eq!(resp.trigger, BatchTrigger::Deadline, "request {b}");

        let mut full = weights.clone();
        full.extend(inputs.iter().map(|(id, t)| (*id, t.clone())));
        let want = souffle
            .eval_reference(&compiled, &full)
            .expect("reference eval");
        for id in program.outputs() {
            assert_bits_eq(
                &format!("request {b} output {id}"),
                &want[&id],
                &resp.outputs[&id],
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.deadline_flushes, 1);
    assert_eq!(stats.size_flushes, 0);
    assert_eq!(stats.padded_slots, 1);
    assert_eq!(stats.completed, 3);
}

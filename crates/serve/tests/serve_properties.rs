//! Queue/backpressure properties of the serving engine.
//!
//! The contract under test: every submission attempt is resolved
//! **exactly once** — admitted and later completed (success or eval
//! error), or refused up front (`Rejected` / `Invalid`) — with no loss,
//! no duplication, and no deadlock, across randomized concurrent
//! submitters, capacities, batch triggers, and worker counts, including
//! through shutdown (which must drain every admitted request).
//!
//! Double completion panics inside the server (`request completed
//! twice`), and `Server::shutdown` joins every thread — so a passing run
//! certifies at-most-once, and the accounting assertions below certify
//! at-least-once. Cases use a two-TE toy program, not a paper model:
//! these properties are about queueing, not tensor math (that is
//! `tests/serve_differential.rs` at the workspace root).

use souffle::affine::IndexExpr;
use souffle_serve::{Response, ResponseHandle, ServeError, ServeOptions, ServerBuilder, Submit};
use souffle_te::{builders, ScalarExpr, TeProgram, TensorId};
use souffle_tensor::{DType, Shape, Tensor};
use souffle_testkit::{forall, tk_assert, tk_assert_eq, Config, Rng};
use souffle_trace::{Trace, Tracer};
use std::collections::HashMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// A deliberately tiny program (input → relu → relu) so each property
/// case can afford a fresh server (pipeline + 4 bucket variants).
fn toy_program() -> (TeProgram, TensorId) {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![4, 4]), DType::F32);
    let r = builders::relu(&mut p, "r", a);
    let s = builders::relu(&mut p, "s", r);
    p.mark_output(s);
    (p, a)
}

fn toy_request(rng: &mut Rng, input: TensorId) -> HashMap<TensorId, Tensor> {
    HashMap::from([(
        input,
        Tensor::random(Shape::new(vec![4, 4]), rng.next_u64()),
    )])
}

forall!(
    concurrent_submitters_resolve_every_request_exactly_once,
    Config::with_cases(24),
    |rng| {
        let threads = rng.usize_in(1..4);
        let per_thread = rng.usize_in(1..10);
        let capacity = rng.usize_in(1..10);
        let max_batch = rng.usize_in(1..6);
        let workers = rng.usize_in(1..3);
        // Half the cases flush by deadline while submitters are still
        // running; the other half hold everything for the shutdown drain.
        let short_deadline = rng.chance(0.5);
        let seed = rng.next_u64();
        (
            (threads, per_thread, capacity),
            (max_batch, workers, short_deadline, seed),
        )
    },
    |&((threads, per_thread, capacity), (max_batch, workers, short_deadline, seed))| {
        let (program, input) = toy_program();
        let server = ServerBuilder::new(ServeOptions {
            queue_capacity: capacity,
            max_batch,
            batch_deadline_ns: if short_deadline {
                100_000
            } else {
                3_600_000_000_000
            },
            workers,
            buckets: vec![1, 2, 4, 8],
        })
        .register("toy", &program, HashMap::new())
        .start();

        let handles = Mutex::new(Vec::new());
        let rejected = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (server, handles, rejected) = (&server, &handles, &rejected);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (t as u64).wrapping_mul(0x9E37));
                    for _ in 0..per_thread {
                        match server.submit("toy", toy_request(&mut rng, input)) {
                            Submit::Accepted(h) => handles.lock().unwrap().push(h),
                            Submit::Rejected => *rejected.lock().unwrap() += 1,
                            Submit::Invalid(why) => panic!("well-formed request invalid: {why}"),
                            Submit::Shutdown => panic!("no shutdown was requested"),
                        }
                    }
                });
            }
        });
        let handles = handles.into_inner().unwrap();
        let rejected = rejected.into_inner().unwrap();
        let accepted = handles.len() as u64;
        let attempts = (threads * per_thread) as u64;
        tk_assert_eq!(
            accepted + rejected,
            attempts,
            "every attempt resolved up front"
        );

        // Shutdown drains the batcher: afterwards every admitted handle
        // must already be completed, without any further waiting.
        let stats = server.shutdown();
        for (i, h) in handles.iter().enumerate() {
            match h.try_wait() {
                Some(Ok(_)) => {}
                Some(Err(e)) => return Err(format!("request {i} failed: {e}")),
                None => return Err(format!("request {i} still pending after shutdown")),
            }
        }
        tk_assert_eq!(stats.submitted, accepted);
        tk_assert_eq!(stats.rejected, rejected);
        tk_assert_eq!(stats.completed, accepted, "drained through shutdown");
        tk_assert_eq!(stats.failed, 0);
        tk_assert_eq!(stats.invalid, 0);
        let hist_total: u64 = stats
            .batch_hist
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        tk_assert_eq!(hist_total, accepted, "batch histogram covers every request");
        tk_assert_eq!(
            stats.batch_hist.iter().sum::<u64>(),
            stats.batches,
            "one histogram entry per executed batch"
        );
        tk_assert!(
            stats.size_flushes + stats.deadline_flushes <= stats.batches,
            "shutdown flushes are neither size- nor deadline-triggered"
        );
        Ok(())
    }
);

/// Backpressure is deterministic when nothing can flush: with a size
/// trigger larger than the admission capacity and an effectively infinite
/// deadline, a sequential burst admits exactly `capacity` requests and
/// rejects the rest — and shutdown still completes every admitted one.
#[test]
fn burst_beyond_capacity_rejects_the_excess_exactly() {
    let (program, input) = toy_program();
    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 4,
        max_batch: 8,
        batch_deadline_ns: 3_600_000_000_000,
        workers: 1,
        buckets: vec![1, 2, 4, 8],
    })
    .register("toy", &program, HashMap::new())
    .start();

    let mut rng = Rng::new(7);
    let outcomes: Vec<bool> = (0..10)
        .map(
            |_| match server.submit("toy", toy_request(&mut rng, input)) {
                Submit::Accepted(_) => true,
                Submit::Rejected => false,
                other => panic!("unexpected outcome {other:?}"),
            },
        )
        .collect();
    assert_eq!(
        outcomes,
        [true, true, true, true, false, false, false, false, false, false],
        "first `capacity` admitted, every later attempt rejected"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.rejected, 6);
    assert_eq!(stats.completed, 4, "admitted requests drain on shutdown");
    assert_eq!(stats.batches, 1);
    assert_eq!(
        stats.padded_slots, 0,
        "4 requests fill the 4-bucket exactly"
    );
}

/// Requests that can never succeed are refused as `Invalid` before
/// touching the queue, and do not count against capacity.
#[test]
fn malformed_submissions_are_invalid_not_queued() {
    let (program, input) = toy_program();
    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 2,
        max_batch: 1, // every valid request executes immediately
        batch_deadline_ns: 1_000_000,
        workers: 1,
        buckets: vec![1, 2, 4, 8],
    })
    .register("toy", &program, HashMap::new())
    .start();
    let good = || HashMap::from([(input, Tensor::random(Shape::new(vec![4, 4]), 3))]);

    assert!(matches!(server.submit("nope", good()), Submit::Invalid(_)));
    assert!(matches!(
        server.submit("toy", HashMap::new()),
        Submit::Invalid(_)
    ));
    let wrong_shape = HashMap::from([(input, Tensor::random(Shape::new(vec![2, 2]), 3))]);
    assert!(matches!(
        server.submit("toy", wrong_shape),
        Submit::Invalid(_)
    ));
    let extra = {
        let mut m = good();
        m.insert(TensorId(9999), Tensor::random(Shape::new(vec![1]), 3));
        m
    };
    assert!(matches!(server.submit("toy", extra), Submit::Invalid(_)));

    let h = server.submit("toy", good()).expect_accepted();
    let resp = h.wait().expect("valid request still served");
    assert_eq!(resp.batch_size, 1);

    let stats = server.shutdown();
    assert_eq!(stats.invalid, 4);
    assert_eq!(stats.rejected, 0, "invalid requests never hit admission");
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
}

// --- Shape-cache semantics -------------------------------------------------
//
// The bucketed compile cache must be invisible except in compile count:
// one compile per distinct `ShapeClass` (pinned through trace counters),
// and a cold bucket raced by concurrent workers compiled exactly once.

fn counter(trace: &Trace, name: &str) -> u64 {
    trace.counters.get(name).copied().unwrap_or(0)
}

fn compile_spans(trace: &Trace) -> Vec<String> {
    trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("compile:bucket:"))
        .map(|s| s.name.clone())
        .collect()
}

/// (a) Same `ShapeClass` ⇒ exactly one compile: N identical sequential
/// requests record one `shape_cache.miss`, N−1 hits, and a single
/// `compile:bucket:1` span.
#[test]
fn one_shape_class_compiles_exactly_once() {
    let (program, input) = toy_program();
    let tracer = Tracer::new();
    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 64,
        max_batch: 1,
        batch_deadline_ns: 1_000_000,
        workers: 1,
        buckets: vec![1, 2, 4, 8],
    })
    .tracer(tracer.clone())
    .register("toy", &program, HashMap::new())
    .start();

    let mut rng = Rng::new(0xCAFE);
    let n = 6u64;
    for _ in 0..n {
        server
            .submit("toy", toy_request(&mut rng, input))
            .expect_accepted()
            .wait()
            .expect("serve failed");
    }
    assert_eq!(server.cached_variants("toy"), Some(1));
    server.shutdown();

    let trace = tracer.snapshot();
    assert_eq!(counter(&trace, "shape_cache.miss"), 1);
    assert_eq!(counter(&trace, "shape_cache.hit"), n - 1);
    assert_eq!(
        compile_spans(&trace),
        vec!["compile:bucket:1".to_string()],
        "exactly one compile, on the 1-bucket"
    );
}

/// (b) Concurrent workers racing a cold bucket compile it exactly once:
/// 8 simultaneous singleton requests across 4 workers record one miss and
/// one compile span; every loser waits for the winner and records a hit.
#[test]
fn racing_workers_compile_a_cold_bucket_exactly_once() {
    let (program, input) = toy_program();
    let tracer = Tracer::new();
    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 64,
        max_batch: 1,
        batch_deadline_ns: 1_000_000,
        workers: 4,
        buckets: vec![1, 2, 4, 8],
    })
    .tracer(tracer.clone())
    .register("toy", &program, HashMap::new())
    .start();

    let done = Mutex::new(0u64);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let (server, done) = (&server, &done);
            scope.spawn(move || {
                let mut rng = Rng::new(0xBEEF ^ t);
                server
                    .submit("toy", toy_request(&mut rng, input))
                    .expect_accepted()
                    .wait()
                    .expect("serve failed");
                *done.lock().unwrap() += 1;
            });
        }
    });
    assert_eq!(done.into_inner().unwrap(), 8);
    assert_eq!(server.cached_variants("toy"), Some(1));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);

    let trace = tracer.snapshot();
    assert_eq!(counter(&trace, "shape_cache.miss"), 1, "one cold compile");
    assert_eq!(
        counter(&trace, "shape_cache.hit"),
        7,
        "losers wait, then hit"
    );
    assert_eq!(compile_spans(&trace).len(), 1);
}

/// Waits for `handle` on a helper thread, giving up after `limit`.
fn wait_within(handle: ResponseHandle, limit: Duration) -> Option<Result<Response, ServeError>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    rx.recv_timeout(limit).ok()
}

/// A bucket variant that cannot be built must fail exactly the requests
/// of its batch, with a typed error, and leave the server serving: the
/// healthy model next to it keeps answering, a retry fails the same way
/// (nothing is cached), and shutdown returns. The broken model reads
/// `A[v0 + 1, v1]` over a 4-row input, an out-of-bounds access (SV010):
/// with verification on (debug builds) its build panics in the verifier;
/// with it off, evaluation reports the out-of-bounds read.
#[test]
fn a_failing_build_fails_its_batch_and_the_server_keeps_serving() {
    const LIMIT: Duration = Duration::from_secs(60);
    let (toy, toy_input) = toy_program();
    let mut broken = TeProgram::new();
    let a = broken.add_input("A", Shape::new(vec![4, 4]), DType::F32);
    let shifted = broken.add_te(
        "shifted",
        Shape::new(vec![4, 4]),
        DType::F32,
        vec![a],
        vec![],
        None,
        ScalarExpr::input(
            0,
            vec![
                IndexExpr::var(0).add(IndexExpr::constant(1)),
                IndexExpr::var(1),
            ],
        ),
    );
    broken.mark_output(shifted);
    let server = ServerBuilder::new(ServeOptions {
        queue_capacity: 16,
        max_batch: 1,
        batch_deadline_ns: 100_000,
        workers: 1,
        buckets: vec![1, 2],
    })
    .register("toy", &toy, HashMap::new())
    .register("broken", &broken, HashMap::new())
    .start();

    let mut rng = Rng::new(7);
    let submit = |model: &str, input: TensorId, rng: &mut Rng| {
        server
            .submit(model, toy_request(rng, input))
            .expect_accepted()
    };
    let handles = vec![
        ("broken", submit("broken", a, &mut rng)),
        ("toy", submit("toy", toy_input, &mut rng)),
        ("broken", submit("broken", a, &mut rng)),
        ("toy", submit("toy", toy_input, &mut rng)),
    ];
    let deadline = Instant::now() + LIMIT;
    let results: Vec<_> = handles
        .into_iter()
        .map(|(model, h)| {
            let left = deadline.saturating_duration_since(Instant::now());
            (model, wait_within(h, left))
        })
        .collect();
    if results.iter().any(|(_, r)| r.is_none()) {
        // A worker that died with the batch would make the drop-time join
        // panic inside this panic; leak the server instead.
        std::mem::forget(server);
        panic!("a handle did not resolve within {LIMIT:?}");
    }
    // Debug builds verify every compile, so the build panics in the
    // verifier; release builds evaluate and hit the out-of-bounds read.
    let verifying = cfg!(debug_assertions);
    for (model, result) in results {
        match (model, result.expect("checked above")) {
            ("toy", r) => assert!(r.is_ok(), "healthy model failed: {r:?}"),
            (_, Err(ServeError::Panicked(msg))) if verifying => {
                assert!(msg.contains("SV010"), "panic message: {msg}");
            }
            (_, Err(ServeError::Eval(msg))) if !verifying => {
                assert!(msg.contains("out-of-bounds"), "eval error: {msg}");
            }
            (_, r) => panic!("broken model answered: {r:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.failed), (2, 2), "{stats:?}");
}

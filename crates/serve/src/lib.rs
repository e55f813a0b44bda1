#![warn(missing_docs)]
//! # souffle-serve: inference serving with dynamic batching
//!
//! The ROADMAP north-star is a *serving system under heavy concurrent
//! traffic*, not one-shot inference. This crate is that layer, std-only
//! and hermetic, on top of the existing compilation pipeline and
//! wavefront [`souffle_te::Runtime`]:
//!
//! ```text
//!  clients ──submit──▶ bounded admission ──▶ dynamic batcher ──▶ workers
//!                      (Rejected at cap)     (size | deadline)    │
//!  ResponseHandle ◀────────── per-request completion ◀────────────┘
//! ```
//!
//! - **Shape-bucketed lazy compilation.** Each registered model —
//!   fixed-shape via [`ServerBuilder::register`] or with a symbolic
//!   sequence dim via [`ServerBuilder::register_dyn`] and a
//!   [`souffle_te::sym::DynSpec`] — is compiled per
//!   [`souffle::ShapeClass`] (structural signature × `(batch, seq)`
//!   bucket vector) on first miss in a [`souffle::ShapeCache`], then
//!   kept: at most one variant per bucket pair. A batch of `n` requests
//!   at mixed sequence lengths runs on the smallest covering bucket
//!   with padded slots (mask/gate derived inputs keep padding
//!   bit-inert) and responses are sliced back to each request's true
//!   length. No per-request (re)compilation — the Vortex-style answer
//!   to varying shapes.
//! - **Explicit backpressure.** Admission is bounded; at capacity
//!   [`Submit::Rejected`] is returned immediately instead of queueing
//!   without bound.
//! - **Fault-contained workers.** A panic while building or running a
//!   batch — a bucket variant that fails verification or batch
//!   certification, or needs an unregistered weight — completes exactly
//!   that batch's requests with [`ServeError::Panicked`]; the worker
//!   keeps serving the other batches and models.
//! - **Deterministic core.** The [`BatcherCore`] takes time as a
//!   parameter (virtual-clock unit tests, no sleeps); batched results
//!   are bit-identical to per-request evaluation by the batch-invariance
//!   construction (enforced by the testkit oracle's `BatchedServe` stage
//!   and `tests/serve_differential.rs`).
//! - **Observable.** With a tracer installed, each batch records a
//!   `serve:batch:<model>` span whose children are the runtime's `eval`
//!   tree and one `serve:request` span per request; the shape cache
//!   records `compile:bucket:<k>` spans and the
//!   `shape_cache.hit/miss/compile_ms` counters.
//!
//! The repository benchmark's `serve-bert` workload (`perfbench/`)
//! measures this crate under load.

pub mod batcher;
pub mod server;

pub use batcher::{bucket_for, Batch, BatchTrigger, BatcherCore};
pub use server::{
    Response, ResponseHandle, ServeError, ServeOptions, Server, ServerBuilder, ServerStats, Submit,
};

//! The serving engine: bounded admission → dynamic batcher → worker pool
//! over a shape-bucketed compile cache.
//!
//! One [`Server`] owns, per registered model, a dynamic-shape spec
//! ([`souffle_te::sym::DynSpec`] — fixed-shape models are the degenerate
//! no-sym case) and a lazy [`souffle::ShapeCache`] of compiled variants
//! keyed by [`souffle::ShapeClass`] (structural program signature ×
//! `[batch_bucket, seq_bucket…]`). A flushed batch of `n` requests whose
//! longest sequence is `s` runs on the smallest batch bucket `>= n` and the
//! smallest sequence bucket `>= s` (from
//! [`souffle_te::sym::bucket_boundaries`]), compiled on first miss —
//! exactly once even when workers race — and memoized thereafter. Padded
//! batch slots replicate the last request; padded sequence positions are
//! filled per the spec's padding contract (fill values + derived
//! masks/gates that keep them inert) and sliced off the response.
//!
//! **Backpressure.** Admission is bounded by
//! [`ServeOptions::queue_capacity`] *admitted-but-uncompleted* requests.
//! At capacity, [`Server::submit`] returns [`Submit::Rejected`]
//! immediately — the queue never grows without bound and the caller
//! decides whether to retry, shed, or block.
//!
//! **Exactly-once completion.** Every accepted request's
//! [`ResponseHandle`] is completed exactly once — with a [`Response`] or
//! a [`ServeError`] — including across [`Server::shutdown`], which drains
//! the batcher and joins every worker before returning. Double
//! completion panics (it would mean a lost or duplicated response).
//!
//! **Determinism.** Batched execution is the [`souffle_transform::batch_program`]
//! rewrite evaluated on the wavefront [`Runtime`], so every response is
//! bit-identical to evaluating that request alone via
//! `Souffle::eval_reference` at the request's *exact* shape — regardless
//! of which requests it shared a batch with, the buckets it padded into,
//! or the worker that ran it (`tests/serve_differential.rs` and
//! `tests/dynamic_shape_differential.rs` enforce this).

use crate::batcher::{bucket_for, Batch, BatchTrigger, BatcherCore};
use souffle::{sched::program_signature, ShapeCache, ShapeClass, SHAPE_CACHE_ENV};
use souffle::{Souffle, SouffleOptions};
use souffle_te::sym::{bucket_boundaries, DynSpec};
use souffle_te::{
    compile_program, CompiledProgram, ExecPlan, Runtime, TeProgram, TensorId, TensorKind,
};
use souffle_tensor::{DType, Shape, Tensor};
use souffle_trace::Tracer;
use souffle_transform::{batch_program, split_batch, stack_tensors};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Synthetic Chrome-trace lane for per-request spans (the runtime uses
/// 1000+ for TE lanes; serve spans sit above them).
const SERVE_LANE_BASE: u64 = 2000;

/// Timer idle sleep when no deadline is pending.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Serving configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Maximum admitted-but-uncompleted requests; submissions beyond it
    /// are [`Submit::Rejected`] (explicit backpressure).
    pub queue_capacity: usize,
    /// Size trigger: a class flushes as soon as it holds this many
    /// requests. Must not exceed the largest bucket.
    pub max_batch: usize,
    /// Deadline trigger: a class flushes once its oldest request has
    /// waited this long, even if under-full.
    pub batch_deadline_ns: u64,
    /// Batch-executing worker threads.
    pub workers: usize,
    /// Batch buckets (ascending): a batch of `n` runs padded on the
    /// smallest bucket `>= n`. The default is
    /// [`souffle_te::sym::bucket_boundaries`]`(1, 8)`. Variants compile
    /// lazily on first use, not at registration.
    pub buckets: Vec<usize>,
    /// Maximum resident compiled variants per model; past it the
    /// least-recently-used ready variant is evicted (and recompiles
    /// bit-identically on the next miss). `None` = unbounded.
    pub shape_cache_capacity: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            max_batch: 8,
            batch_deadline_ns: 2_000_000, // 2 ms
            workers: 1,
            buckets: vec![1, 2, 4, 8],
            shape_cache_capacity: None,
        }
    }
}

/// Outcome of [`Server::submit`].
#[derive(Debug)]
pub enum Submit {
    /// Admitted; await the response on the handle.
    Accepted(ResponseHandle),
    /// The admission queue is at capacity — backpressure, retry later.
    Rejected,
    /// The request can never succeed (unknown model, missing/mis-shaped
    /// input binding); the message says why.
    Invalid(String),
    /// The server is shutting down and admits nothing.
    Shutdown,
}

impl Submit {
    /// Unwraps [`Submit::Accepted`], panicking otherwise (test helper).
    pub fn expect_accepted(self) -> ResponseHandle {
        match self {
            Submit::Accepted(h) => h,
            other => panic!("expected Submit::Accepted, got {other:?}"),
        }
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct Response {
    /// Output tensors of this request alone (batch slice, un-padded, and
    /// sliced back to the request's own sequence length), keyed by the
    /// model interface program's output tensor ids.
    pub outputs: HashMap<TensorId, Tensor>,
    /// Real requests in the executed batch (padding excluded).
    pub batch_size: usize,
    /// The batch bucket that ran it.
    pub bucket: usize,
    /// The sequence bucket the request padded into (`None` for models
    /// without a symbolic dim).
    pub seq_bucket: Option<i64>,
    /// What flushed the batch.
    pub trigger: BatchTrigger,
    /// Submission → execution start (queueing + batching delay).
    pub queue_ns: u64,
    /// Batched evaluation wall time (shared by the whole batch).
    pub exec_ns: u64,
    /// Server-clock submission timestamp.
    pub submitted_ns: u64,
    /// Server-clock completion timestamp; `completed_ns - submitted_ns`
    /// is this request's latency.
    pub completed_ns: u64,
}

/// Why an admitted request failed (admission errors are [`Submit`]
/// variants instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The batched evaluation failed; carries the rendered eval error.
    Eval(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Eval(e) => write!(f, "batched evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Cumulative serving counters (snapshot via [`Server::stats`], final via
/// [`Server::shutdown`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests refused with [`Submit::Rejected`] (backpressure).
    pub rejected: u64,
    /// Requests refused with [`Submit::Invalid`].
    pub invalid: u64,
    /// Requests completed with a [`Response`].
    pub completed: u64,
    /// Requests completed with a [`ServeError`].
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Size-triggered flushes.
    pub size_flushes: u64,
    /// Deadline-triggered flushes.
    pub deadline_flushes: u64,
    /// Bucket slots filled with replicated padding.
    pub padded_slots: u64,
    /// `batch_hist[n]` = executed batches holding `n` real requests
    /// (index 0 unused).
    pub batch_hist: Vec<u64>,
}

impl ServerStats {
    /// Mean real batch size over executed batches (0 when none ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: u64 = self
            .batch_hist
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        total as f64 / self.batches as f64
    }
}

enum Slot {
    Pending,
    Ready(Result<Response, ServeError>),
}

struct Completion {
    slot: Mutex<Slot>,
    cv: Condvar,
}

impl Completion {
    fn complete(&self, result: Result<Response, ServeError>) {
        let mut slot = self.slot.lock().expect("completion lock poisoned");
        match *slot {
            Slot::Pending => *slot = Slot::Ready(result),
            Slot::Ready(_) => panic!("request completed twice"),
        }
        self.cv.notify_all();
    }
}

/// The caller's side of one admitted request: blocks until the batch that
/// contains the request has executed.
pub struct ResponseHandle {
    state: Arc<Completion>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResponseHandle")
    }
}

impl ResponseHandle {
    /// Blocks until the response is ready. Always returns: every admitted
    /// request is completed, including through shutdown.
    ///
    /// # Errors
    ///
    /// The [`ServeError`] the batch execution failed with.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = self.state.slot.lock().expect("completion lock poisoned");
        loop {
            if let Slot::Ready(r) = &*slot {
                return r.clone();
            }
            slot = self.state.cv.wait(slot).expect("completion lock poisoned");
        }
    }

    /// `Some(result)` when already completed, without blocking.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        match &*self.state.slot.lock().expect("completion lock poisoned") {
            Slot::Ready(r) => Some(r.clone()),
            Slot::Pending => None,
        }
    }
}

/// How one non-weight input of a bucket variant is filled per batch slot.
enum SlotRole {
    /// Derived by the server from the request's shape binding (mask/gate).
    Derived,
    /// Member `step` of a per-step family: the request's tensor while
    /// `step < seq`, a `fill`-valued tensor beyond.
    PerStep {
        iface_id: TensorId,
        step: i64,
        fill: f32,
    },
    /// A regular input; symbolic axes pad from the request's extent up to
    /// the bucket extent with `fill`.
    Regular { iface_id: TensorId, fill: f32 },
}

struct SlotInput {
    name: String,
    bp_id: TensorId,
    /// Unbatched shape in the bucket program.
    shape: Shape,
    dtype: DType,
    role: SlotRole,
}

/// One lazily compiled `(batch bucket, seq bucket)` variant.
struct DynVariant {
    cp: CompiledProgram,
    plan: ExecPlan,
    /// Pre-bound unbatched weights, keyed by bucket-program id.
    weights: HashMap<TensorId, Tensor>,
    /// Non-weight inputs of the bucket program, in binding order.
    slots: Vec<SlotInput>,
    /// `(iface output id, bucket-program output id, symbolic axes)` —
    /// positional across the two programs.
    outputs: Vec<(TensorId, TensorId, Vec<usize>)>,
}

/// Symbolic-dim bookkeeping for a model with one declared sym.
struct SymInfo {
    min: i64,
    max: i64,
    /// Analytic sequence buckets: `bucket_boundaries(min, max)`.
    seq_buckets: Vec<i64>,
    /// Symbolic axes per regular (non-step, non-derived) input name.
    in_sym_axes: HashMap<String, Vec<usize>>,
    /// Symbolic axes per output position.
    out_sym_axes: Vec<Vec<usize>>,
}

struct ModelEntry {
    name: String,
    spec: DynSpec,
    /// Interface program (`spec` at the max binding, untransformed):
    /// requests bind its tensor ids; responses key its output ids.
    iface: TeProgram,
    /// Weights by tensor name (names are stable across shape bindings;
    /// ids are not, for generator-sourced specs).
    weights: HashMap<String, Tensor>,
    /// Non-weight, non-derived free tensors of the interface — what a
    /// max-length request binds; shorter requests bind the subset that
    /// exists at their length.
    input_ids: Vec<TensorId>,
    output_ids: Vec<TensorId>,
    /// Structural half of the [`ShapeClass`] cache key.
    sig: u64,
    sym: Option<SymInfo>,
    variants: ShapeCache<DynVariant>,
}

struct Pending {
    inputs: HashMap<TensorId, Tensor>,
    /// The request's sequence length (`None` for fixed-shape models).
    seq: Option<i64>,
    done: Arc<Completion>,
    submitted_ns: u64,
}

struct ReadyBatch {
    model: Arc<ModelEntry>,
    batch: Batch<Pending>,
}

struct State {
    batcher: BatcherCore<Pending>,
    ready: VecDeque<ReadyBatch>,
    /// Admitted and not yet completed (queued + batching + executing).
    inflight: usize,
    shutting_down: bool,
    stats: ServerStats,
}

struct Shared {
    opts: ServeOptions,
    models: BTreeMap<String, Arc<ModelEntry>>,
    runtime: Runtime,
    tracer: Tracer,
    epoch: Instant,
    state: Mutex<State>,
    /// Wakes workers (ready batch / shutdown) and the timer (new
    /// deadline / shutdown).
    work: Condvar,
}

impl Shared {
    /// The server clock: the tracer's epoch when tracing (so serve spans
    /// align with runtime spans), a private monotonic epoch otherwise.
    fn now_ns(&self) -> u64 {
        if self.tracer.is_enabled() {
            self.tracer.now_ns()
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }
}

/// Configures and builds a [`Server`]; model registration validates specs
/// and weights up front, but compiles nothing — variants compile lazily on
/// first use through the shape cache.
pub struct ServerBuilder {
    opts: ServeOptions,
    tracer: Tracer,
    models: BTreeMap<String, Arc<ModelEntry>>,
}

impl ServerBuilder {
    /// A builder with the given serving options.
    ///
    /// # Panics
    ///
    /// Panics when the options are inconsistent: no workers, zero queue
    /// capacity, unsorted/empty buckets, or `max_batch` larger than the
    /// largest bucket (such a batch could never be placed).
    pub fn new(opts: ServeOptions) -> ServerBuilder {
        assert!(opts.workers >= 1, "need at least one worker");
        assert!(opts.queue_capacity >= 1, "need a nonzero queue capacity");
        assert!(!opts.buckets.is_empty(), "need at least one batch bucket");
        assert!(
            opts.buckets.windows(2).all(|w| w[0] < w[1]) && opts.buckets[0] >= 1,
            "buckets must be ascending and >= 1: {:?}",
            opts.buckets
        );
        assert!(
            opts.max_batch >= 1 && opts.max_batch <= *opts.buckets.last().unwrap(),
            "max_batch {} must fit the largest bucket {:?}",
            opts.max_batch,
            opts.buckets
        );
        ServerBuilder {
            opts,
            tracer: Tracer::disabled(),
            models: BTreeMap::new(),
        }
    }

    /// Installs a tracing sink: each executed batch records a
    /// `serve:batch:<model>` span with the runtime's `eval` tree nested
    /// under it, plus one root `serve:request` span per real request
    /// (submission → completion) on a synthetic per-slot lane. Request
    /// spans are roots, not children of the batch span: a request's
    /// lifetime *contains* its batch execution (queueing happens before
    /// the batch starts), so nesting it under the batch would violate
    /// `Trace::well_formed`'s containment invariant. Variant compiles
    /// additionally record `compile:bucket:<k>` spans and the
    /// `shape_cache.hit` / `shape_cache.miss` / `shape_cache.compile_ms`
    /// counters.
    pub fn tracer(mut self, tracer: Tracer) -> ServerBuilder {
        self.tracer = tracer;
        self
    }

    /// Registers a fixed-shape model (the degenerate no-sym dynamic spec).
    /// `weights` must bind every `Weight`-kind free tensor of `program`
    /// (weights are shared across every batch; requests bind only the
    /// remaining inputs).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or missing/mis-shaped weights — both
    /// deployment-time programming errors, unlike per-request problems
    /// which surface as [`Submit::Invalid`].
    pub fn register(
        self,
        name: &str,
        program: &TeProgram,
        weights: HashMap<TensorId, Tensor>,
    ) -> ServerBuilder {
        let by_name = weights
            .into_iter()
            .map(|(id, t)| (program.tensor(id).name.clone(), t))
            .collect();
        self.register_dyn(name, DynSpec::fixed(program.clone()), by_name)
    }

    /// Registers a dynamic-shape model from its [`DynSpec`]. Requests bind
    /// the interface program's tensor ids (the spec at its max binding);
    /// shorter sequences bind the subset of inputs that exists at their
    /// length, with symbolic-axis extents at the actual length. Derived
    /// inputs (masks/gates) are supplied by the server, never the
    /// requester.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name, more than one declared sym, or
    /// missing/mis-shaped weights.
    pub fn register_dyn(
        mut self,
        name: &str,
        spec: DynSpec,
        weights: HashMap<String, Tensor>,
    ) -> ServerBuilder {
        assert!(
            !self.models.contains_key(name),
            "model {name:?} registered twice"
        );
        assert!(
            spec.table.len() <= 1,
            "model {name:?}: at most one symbolic dim per served model"
        );
        let iface = spec.at(&spec.table.max_binding());
        let mut input_ids = Vec::new();
        for id in iface.free_tensors() {
            let info = iface.tensor(id);
            if info.kind == TensorKind::Weight {
                let w = weights
                    .get(&info.name)
                    .unwrap_or_else(|| panic!("model {name:?}: missing weight {}", info.name));
                // Shape only: `Tensor` storage is always f32 and its dtype
                // is a logical tag (F16 models bind f32-backed tensors
                // everywhere in this workspace), so dtype is not part of
                // the binding contract.
                assert!(
                    w.shape() == &info.shape,
                    "model {name:?}: weight {} bound as {:?}, expected {:?}",
                    info.name,
                    w.shape(),
                    info.shape
                );
            } else if !spec.is_derived_name(&info.name) {
                input_ids.push(id);
            }
        }
        let sym = spec.table.ids().next().map(|sid| {
            let (min, max) = spec.table.bounds(sid);
            let pmin = spec.at(&spec.table.min_binding());
            // Name-diff the min- and max-binding programs: an axis whose
            // extent differs between the two tracks the sym (extents are
            // slope-1 in the sym, so min < max implies a visible diff).
            let min_by_name: HashMap<String, Shape> = pmin
                .tensors()
                .iter()
                .map(|t| (t.name.clone(), t.shape.clone()))
                .collect();
            let mut in_sym_axes = HashMap::new();
            for &id in &input_ids {
                let info = iface.tensor(id);
                if spec.per_step_index(&info.name).is_some() {
                    continue; // family members have fixed shapes
                }
                let Some(smin) = min_by_name.get(&info.name) else {
                    panic!(
                        "model {name:?}: input {} missing at the min binding",
                        info.name
                    );
                };
                let axes: Vec<usize> = info
                    .shape
                    .dims()
                    .iter()
                    .zip(smin.dims())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(axis, _)| axis)
                    .collect();
                if !axes.is_empty() {
                    in_sym_axes.insert(info.name.clone(), axes);
                }
            }
            let omin = pmin.outputs();
            let omax = iface.outputs();
            assert_eq!(
                omin.len(),
                omax.len(),
                "model {name:?}: output count changes with the sym"
            );
            let out_sym_axes = omin
                .iter()
                .zip(&omax)
                .map(|(&a, &b)| {
                    iface
                        .tensor(b)
                        .shape
                        .dims()
                        .iter()
                        .zip(pmin.tensor(a).shape.dims())
                        .enumerate()
                        .filter(|(_, (x, y))| x != y)
                        .map(|(axis, _)| axis)
                        .collect()
                })
                .collect();
            SymInfo {
                min,
                max,
                seq_buckets: bucket_boundaries(min, max),
                in_sym_axes,
                out_sym_axes,
            }
        });
        let output_ids = iface.outputs();
        let sig = program_signature(&iface);
        self.models.insert(
            name.to_string(),
            Arc::new(ModelEntry {
                name: name.to_string(),
                spec,
                iface,
                weights,
                input_ids,
                output_ids,
                sig,
                sym,
                variants: ShapeCache::with_settings(
                    souffle_te::env_flag(SHAPE_CACHE_ENV).unwrap_or(true),
                    self.opts.shape_cache_capacity,
                ),
            }),
        );
        self
    }

    /// Starts the worker pool and deadline timer and returns the running
    /// server.
    pub fn start(self) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batcher: BatcherCore::new(self.opts.max_batch, self.opts.batch_deadline_ns),
                ready: VecDeque::new(),
                inflight: 0,
                shutting_down: false,
                stats: ServerStats {
                    batch_hist: vec![0; self.opts.max_batch + 1],
                    ..ServerStats::default()
                },
            }),
            work: Condvar::new(),
            opts: self.opts,
            models: self.models,
            runtime: Runtime::new(),
            tracer: self.tracer,
            epoch: Instant::now(),
        });
        let workers = (0..shared.opts.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let timer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-timer".into())
                .spawn(move || timer_loop(&shared))
                .expect("spawn timer")
        };
        Server {
            shared,
            workers,
            timer: Some(timer),
        }
    }
}

/// See the [module docs](self). Build with [`ServerBuilder`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.shared.models.keys().collect::<Vec<_>>())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Submits one inference request for `model`. `inputs` must bind the
    /// model's non-weight, non-derived free tensors — for dynamic models,
    /// the subset existing at the request's sequence length, with
    /// symbolic axes at that length. Never blocks: over-capacity
    /// submissions are [`Submit::Rejected`] immediately.
    pub fn submit(&self, model: &str, inputs: HashMap<TensorId, Tensor>) -> Submit {
        let shared = &*self.shared;
        let Some(entry) = shared.models.get(model) else {
            let mut st = shared.state.lock().expect("server state poisoned");
            st.stats.invalid += 1;
            return Submit::Invalid(format!("unknown model {model:?}"));
        };
        let seq = match validate_inputs(entry, &inputs) {
            Ok(seq) => seq,
            Err(why) => {
                let mut st = shared.state.lock().expect("server state poisoned");
                st.stats.invalid += 1;
                return Submit::Invalid(why);
            }
        };
        let now = shared.now_ns();
        let mut st = shared.state.lock().expect("server state poisoned");
        if st.shutting_down {
            return Submit::Shutdown;
        }
        if st.inflight >= shared.opts.queue_capacity {
            st.stats.rejected += 1;
            return Submit::Rejected;
        }
        st.inflight += 1;
        st.stats.submitted += 1;
        let done = Arc::new(Completion {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
        });
        let handle = ResponseHandle {
            state: Arc::clone(&done),
        };
        let pending = Pending {
            inputs,
            seq,
            done,
            submitted_ns: now,
        };
        if let Some(batch) = st.batcher.push(model, pending, now) {
            st.stats.size_flushes += 1;
            st.ready.push_back(ReadyBatch {
                model: Arc::clone(entry),
                batch,
            });
        }
        // Wake workers (new ready batch) and the timer (a fresh deadline
        // may now be the earliest).
        shared.work.notify_all();
        Submit::Accepted(handle)
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.shared
            .state
            .lock()
            .expect("server state poisoned")
            .stats
            .clone()
    }

    /// The registered model names (sorted).
    pub fn models(&self) -> Vec<String> {
        self.shared.models.keys().cloned().collect()
    }

    /// The non-weight, non-derived free tensors a max-length request for
    /// `model` must bind.
    pub fn input_ids(&self, model: &str) -> Option<Vec<TensorId>> {
        self.shared.models.get(model).map(|e| e.input_ids.clone())
    }

    /// Number of compiled variants currently resident in `model`'s shape
    /// cache.
    pub fn cached_variants(&self, model: &str) -> Option<usize> {
        self.shared.models.get(model).map(|e| e.variants.len())
    }

    /// The sequence buckets `model` compiles over (`None` for an unknown
    /// model, empty for fixed-shape models).
    pub fn seq_buckets(&self, model: &str) -> Option<Vec<i64>> {
        self.shared
            .models
            .get(model)
            .map(|e| e.sym.as_ref().map_or(Vec::new(), |s| s.seq_buckets.clone()))
    }

    /// Stops admission, drains every queued request (each completes
    /// normally), joins all threads, and returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> ServerStats {
        {
            let mut st = self.shared.state.lock().expect("server state poisoned");
            if !st.shutting_down {
                st.shutting_down = true;
                let flushed = st.batcher.flush_all();
                for batch in flushed {
                    let entry = Arc::clone(&self.shared.models[&batch.class]);
                    st.ready.push_back(ReadyBatch {
                        model: entry,
                        batch,
                    });
                }
            }
            self.shared.work.notify_all();
        }
        if let Some(t) = self.timer.take() {
            t.join().expect("timer thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        let st = self.shared.state.lock().expect("server state poisoned");
        debug_assert_eq!(st.inflight, 0, "shutdown left requests uncompleted");
        st.stats.clone()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.timer.is_some() || !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// Validates a request's bindings and infers its sequence length for
/// dynamic models (`Ok(None)` for fixed-shape models).
fn validate_inputs(
    entry: &ModelEntry,
    inputs: &HashMap<TensorId, Tensor>,
) -> Result<Option<i64>, String> {
    let Some(sym) = &entry.sym else {
        for &id in &entry.input_ids {
            let info = entry.iface.tensor(id);
            let Some(t) = inputs.get(&id) else {
                return Err(format!(
                    "model {:?}: missing input {} ({id})",
                    entry.name, info.name
                ));
            };
            // Shape only — dtype is a logical tag over f32 storage (see
            // `ServerBuilder::register_dyn`).
            if t.shape() != &info.shape {
                return Err(format!(
                    "model {:?}: input {} bound as {:?}, expected {:?}",
                    entry.name,
                    info.name,
                    t.shape(),
                    info.shape
                ));
            }
        }
        if inputs.len() != entry.input_ids.len() {
            return Err(format!(
                "model {:?}: {} bindings supplied, expected exactly the {} model inputs",
                entry.name,
                inputs.len(),
                entry.input_ids.len()
            ));
        }
        return Ok(None);
    };

    // Dynamic model: every bound id must be a known input, and the
    // sequence length must be inferable consistently — from symbolic-axis
    // extents and/or per-step family counts.
    for &id in inputs.keys() {
        if !entry.input_ids.contains(&id) {
            return Err(format!(
                "model {:?}: {id} is not a bindable input (unknown, weight, or derived)",
                entry.name
            ));
        }
    }
    let mut seq: Option<(i64, String)> = None;
    let note = |s: i64, what: String, seq: &mut Option<(i64, String)>| -> Result<(), String> {
        match seq {
            None => {
                *seq = Some((s, what));
                Ok(())
            }
            Some((prev, _)) if *prev == s => Ok(()),
            Some((prev, why)) => Err(format!(
                "model {:?}: inconsistent sequence length — {why} says {prev}, {what} says {s}",
                entry.name
            )),
        }
    };
    // Per-step family counts.
    for ps in &entry.spec.per_step {
        let count = inputs
            .keys()
            .filter(|&&id| {
                let name = &entry.iface.tensor(id).name;
                name.starts_with(&ps.prefix) && entry.spec.per_step_index(name).is_some()
            })
            .count() as i64;
        if count > 0 {
            note(count, format!("{} step count", ps.prefix), &mut seq)?;
        }
    }
    // Symbolic-axis extents of bound regular inputs.
    for (&id, t) in inputs {
        let name = &entry.iface.tensor(id).name;
        if let Some(axes) = sym.in_sym_axes.get(name) {
            let axis = axes[0];
            if axis >= t.shape().rank() {
                return Err(format!(
                    "model {:?}: input {name} bound with rank {} (expected {})",
                    entry.name,
                    t.shape().rank(),
                    entry.iface.tensor(id).shape.rank()
                ));
            }
            note(t.shape().dim(axis), format!("{name} axis {axis}"), &mut seq)?;
        }
    }
    let s = match seq {
        Some((s, _)) => s,
        None if sym.min == sym.max => sym.max,
        None => {
            return Err(format!(
                "model {:?}: cannot infer the sequence length from the bound inputs",
                entry.name
            ))
        }
    };
    if s < sym.min || s > sym.max {
        return Err(format!(
            "model {:?}: sequence length {s} outside declared bounds {}..={}",
            entry.name, sym.min, sym.max
        ));
    }
    // The bound set must be exactly the inputs that exist at length `s`,
    // each with the shape the interface dictates (symbolic axes at `s`).
    let mut expected = 0usize;
    for &id in &entry.input_ids {
        let info = entry.iface.tensor(id);
        let required = match entry.spec.per_step_index(&info.name) {
            Some((_, t)) => t < s,
            None => true,
        };
        if !required {
            if inputs.contains_key(&id) {
                return Err(format!(
                    "model {:?}: input {} bound but the request's length is {s}",
                    entry.name, info.name
                ));
            }
            continue;
        }
        expected += 1;
        let Some(t) = inputs.get(&id) else {
            return Err(format!(
                "model {:?}: missing input {} ({id}) at length {s}",
                entry.name, info.name
            ));
        };
        let mut want = info.shape.dims().to_vec();
        if let Some(axes) = sym.in_sym_axes.get(&info.name) {
            for &a in axes {
                want[a] = s;
            }
        }
        if t.shape().dims() != want.as_slice() {
            return Err(format!(
                "model {:?}: input {} bound as {:?}, expected {:?} at length {s}",
                entry.name,
                info.name,
                t.shape(),
                want
            ));
        }
    }
    if inputs.len() != expected {
        return Err(format!(
            "model {:?}: {} bindings supplied, expected {} at length {s}",
            entry.name,
            inputs.len(),
            expected
        ));
    }
    Ok(Some(s))
}

/// Flushes deadline-expired classes; sleeps until the next deadline (or
/// idly) between rounds.
fn timer_loop(shared: &Shared) {
    let mut st = shared.state.lock().expect("server state poisoned");
    loop {
        if st.shutting_down {
            return;
        }
        let now = shared.now_ns();
        let mut flushed = false;
        while let Some(batch) = st.batcher.poll(now) {
            st.stats.deadline_flushes += 1;
            let entry = Arc::clone(&shared.models[&batch.class]);
            st.ready.push_back(ReadyBatch {
                model: entry,
                batch,
            });
            flushed = true;
        }
        if flushed {
            shared.work.notify_all();
        }
        let wait = match st.batcher.next_deadline() {
            Some(d) => Duration::from_nanos(d.saturating_sub(now).max(1)),
            None => IDLE_WAIT,
        };
        st = shared
            .work
            .wait_timeout(st, wait)
            .expect("server state poisoned")
            .0;
    }
}

/// Pops ready batches and executes them until shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    loop {
        let rb = {
            let mut st = shared.state.lock().expect("server state poisoned");
            loop {
                if let Some(rb) = st.ready.pop_front() {
                    break rb;
                }
                if st.shutting_down {
                    return;
                }
                st = shared.work.wait(st).expect("server state poisoned");
            }
        };
        execute_batch(shared, rb);
    }
}

/// Compiles (or fetches) the `(batch, seq)` bucket variant of a model.
fn build_variant(entry: &ModelEntry, batch: usize, seq: Option<i64>) -> DynVariant {
    let binding = match seq {
        Some(s) => entry
            .spec
            .table
            .bind(vec![s])
            .expect("seq bucket within declared bounds"),
        None => entry.spec.table.max_binding(),
    };
    let concrete = entry.spec.at(&binding);
    let compiled = Souffle::new(SouffleOptions::full()).compile(&concrete);
    let base = compiled.program;
    let bp = batch_program(&base, batch as i64);
    // Translation-validate the batch rewrite before the bucket variant is
    // ever served (debug default / SOUFFLE_CERTIFY).
    if souffle_verify::certify_default() {
        let (_, d) = souffle_verify::certify_batch(&base, &bp, batch as i64);
        assert!(
            !d.has_errors(),
            "model {:?}: batch-{batch} variant failed certification:\n{d}",
            entry.name
        );
    }
    let cp = compile_program(&bp);
    let plan = ExecPlan::from_compiled(&cp);

    let iface_by_name: HashMap<&str, TensorId> = entry
        .iface
        .free_tensors()
        .into_iter()
        .map(|id| (entry.iface.tensor(id).name.as_str(), id))
        .collect();
    let mut weights = HashMap::new();
    let mut slots = Vec::new();
    for id in bp.free_tensors() {
        // The batch rewrite copies the tensor table in order, so `id` is
        // valid in both `bp` (batched shape) and `base` (unbatched).
        let info = bp.tensor(id);
        if info.kind == TensorKind::Weight {
            let w = entry.weights.get(&info.name).unwrap_or_else(|| {
                panic!(
                    "model {:?}: bucket program needs unregistered weight {}",
                    entry.name, info.name
                )
            });
            weights.insert(id, w.clone());
            continue;
        }
        let shape = base.tensor(id).shape.clone();
        let role = if entry.spec.is_derived_name(&info.name) {
            SlotRole::Derived
        } else if let Some((_, step)) = entry.spec.per_step_index(&info.name) {
            SlotRole::PerStep {
                iface_id: iface_by_name[info.name.as_str()],
                step,
                fill: entry.spec.pad_fill_for(&info.name),
            }
        } else {
            SlotRole::Regular {
                iface_id: iface_by_name[info.name.as_str()],
                fill: entry.spec.pad_fill_for(&info.name),
            }
        };
        slots.push(SlotInput {
            name: info.name.clone(),
            bp_id: id,
            shape,
            dtype: info.dtype,
            role,
        });
    }
    let bouts = base.outputs();
    assert_eq!(
        bouts.len(),
        entry.output_ids.len(),
        "model {:?}: bucket program output count differs from the interface",
        entry.name
    );
    let outputs = entry
        .output_ids
        .iter()
        .zip(&bouts)
        .enumerate()
        .map(|(k, (&iface_id, &bp_id))| {
            let axes = entry
                .sym
                .as_ref()
                .map_or(Vec::new(), |s| s.out_sym_axes[k].clone());
            (iface_id, bp_id, axes)
        })
        .collect();
    DynVariant {
        cp,
        plan,
        weights,
        slots,
        outputs,
    }
}

/// Pads `t` up to `shape`: coordinates inside `t`'s extent copy through,
/// the rest take `fill`. Non-symbolic axes have equal extents, so this
/// only ever grows symbolic axes.
fn pad_to(t: &Tensor, shape: &Shape, fill: f32) -> Tensor {
    let dims = t.shape().dims().to_vec();
    Tensor::from_fn(shape.clone(), |idx| {
        if idx.iter().zip(&dims).all(|(&i, &d)| i < d) {
            t.at(idx)
        } else {
            fill
        }
    })
    .with_dtype(t.dtype())
}

/// Slices `t` down to extent `s` along `axes` (the inverse of the padding
/// the bucket added).
fn slice_to(t: &Tensor, axes: &[usize], s: i64) -> Tensor {
    let mut dims = t.shape().dims().to_vec();
    for &a in axes {
        dims[a] = s.min(dims[a]);
    }
    if dims.as_slice() == t.shape().dims() {
        return t.clone();
    }
    Tensor::from_fn(Shape::new(dims), |idx| t.at(idx)).with_dtype(t.dtype())
}

/// The unbatched tensor for one input slot of one request.
fn slot_tensor(entry: &ModelEntry, slot: &SlotInput, item: &Pending) -> Tensor {
    match &slot.role {
        SlotRole::Derived => {
            let binding = entry
                .spec
                .table
                .bind(vec![item.seq.expect("derived inputs imply a sym")])
                .expect("validated at submit");
            entry
                .spec
                .derived_tensor(&slot.name, &slot.shape, &binding)
                .expect("role says derived")
                .with_dtype(slot.dtype)
        }
        SlotRole::PerStep {
            iface_id,
            step,
            fill,
        } => {
            if *step < item.seq.expect("per-step inputs imply a sym") {
                item.inputs[iface_id].clone()
            } else {
                Tensor::full(slot.shape.clone(), *fill).with_dtype(slot.dtype)
            }
        }
        SlotRole::Regular { iface_id, fill } => {
            let t = &item.inputs[iface_id];
            if t.shape() == &slot.shape {
                t.clone()
            } else {
                pad_to(t, &slot.shape, *fill)
            }
        }
    }
}

/// Runs one flushed batch on its `(batch, seq)` bucket variant and
/// completes every request handle (exactly once, success or failure).
fn execute_batch(shared: &Shared, rb: ReadyBatch) {
    let entry = rb.model;
    let items = rb.batch.items;
    let n = items.len();
    let bucket = bucket_for(n, &shared.opts.buckets)
        .unwrap_or_else(|| panic!("batch of {n} exceeds every bucket"));
    let seq_bucket = entry.sym.as_ref().map(|sym| {
        let s_max = items
            .iter()
            .map(|it| it.seq.expect("sym model requests carry a length"))
            .max()
            .expect("non-empty batch");
        *sym.seq_buckets
            .iter()
            .find(|&&b| b >= s_max)
            .expect("max bound is always a bucket boundary")
    });
    let key = ShapeClass {
        sig: entry.sig,
        buckets: std::iter::once(bucket as i64).chain(seq_bucket).collect(),
    };
    let variant = entry.variants.get_or_build(key, &shared.tracer, || {
        build_variant(&entry, bucket, seq_bucket)
    });

    // Weights are shared (unbatched); inputs stack per-request tensors —
    // padded to the sequence bucket per the spec's contract — replicating
    // the last request into trailing batch slots.
    let mut bindings = variant.weights.clone();
    let slot_tensors: Vec<Vec<Tensor>> = items
        .iter()
        .map(|item| {
            variant
                .slots
                .iter()
                .map(|slot| slot_tensor(&entry, slot, item))
                .collect()
        })
        .collect();
    for (j, slot) in variant.slots.iter().enumerate() {
        let parts: Vec<&Tensor> = (0..bucket)
            .map(|b| &slot_tensors[b.min(n - 1)][j])
            .collect();
        bindings.insert(slot.bp_id, stack_tensors(&parts));
    }

    let tracing = shared.tracer.is_enabled();
    let exec_start = shared.now_ns();
    let result = if tracing {
        let span = shared
            .tracer
            .span(&format!("serve:batch:{}[{n}/{bucket}]", entry.name));
        let r = shared.runtime.eval_with_plan_traced(
            &variant.cp,
            &variant.plan,
            &bindings,
            &shared.tracer,
            span.id(),
        );
        drop(span);
        // Per-request root spans (submission → now) on synthetic lanes so
        // they render as parallel tracks. Roots, not batch-span children:
        // the interval starts at submission, before the batch began.
        for (slot, item) in items.iter().enumerate() {
            shared.tracer.record_span(
                "serve:request",
                None,
                item.submitted_ns,
                shared.now_ns(),
                SERVE_LANE_BASE + slot as u64,
            );
        }
        r
    } else {
        shared
            .runtime
            .eval_with_plan(&variant.cp, &variant.plan, &bindings)
    };
    let exec_ns = shared.now_ns().saturating_sub(exec_start);

    let mut failed = 0u64;
    match result {
        Ok(outs) => {
            let split: Vec<(TensorId, Vec<Tensor>, &Vec<usize>)> = variant
                .outputs
                .iter()
                .map(|(iface_id, bp_id, axes)| (*iface_id, split_batch(&outs[bp_id]), axes))
                .collect();
            for (slot, item) in items.into_iter().enumerate() {
                let outputs = split
                    .iter()
                    .map(|(iface_id, parts, axes)| {
                        let t = &parts[slot];
                        let t = match (item.seq, axes.is_empty()) {
                            (Some(s), false) => slice_to(t, axes, s),
                            _ => t.clone(),
                        };
                        (*iface_id, t)
                    })
                    .collect();
                let completed_ns = shared.now_ns();
                item.done.complete(Ok(Response {
                    outputs,
                    batch_size: n,
                    bucket,
                    seq_bucket,
                    trigger: rb.batch.trigger,
                    queue_ns: exec_start.saturating_sub(item.submitted_ns),
                    exec_ns,
                    submitted_ns: item.submitted_ns,
                    completed_ns,
                }));
            }
        }
        Err(e) => {
            failed = n as u64;
            let err = ServeError::Eval(e.to_string());
            for item in items {
                item.done.complete(Err(err.clone()));
            }
        }
    }

    let mut st = shared.state.lock().expect("server state poisoned");
    st.inflight -= n;
    st.stats.batches += 1;
    st.stats.padded_slots += (bucket - n) as u64;
    if st.stats.batch_hist.len() <= n {
        st.stats.batch_hist.resize(n + 1, 0);
    }
    st.stats.batch_hist[n] += 1;
    st.stats.failed += failed;
    st.stats.completed += n as u64 - failed;
}

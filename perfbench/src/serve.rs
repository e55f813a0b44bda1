//! `serve-bert`: the serving layer's own work — admission, batching,
//! padding and stacking, the output split and the shape-cache lookup — on
//! tiny BERT with a symbolic sequence length.
//!
//! The load is a pure function of the seed and is built before timing:
//! phase A offers Poisson arrivals at a fixed rate (open loop, latency timed
//! from each request's due time); phase B keeps a fixed window of requests
//! outstanding (closed loop, throughput). Neither is calibrated from a
//! measured service time, so the offered load never moves with the host.

use crate::metrics::{median, percentile, ratio, Sides};
use crate::spans::Spans;
use crate::{Run, MIN_OPS};
use souffle::frontend::{dyn_seq_spec, Model, ModelConfig};
use souffle::te::interp::{eval_program, random_bindings};
use souffle::te::sym::DynSpec;
use souffle::te::{TeProgram, TensorId, TensorKind};
use souffle::tensor::Tensor;
use souffle::trace::Tracer;
use souffle_serve::{
    Response, ResponseHandle, ServeError, ServeOptions, Server, ServerBuilder, ServerStats, Submit,
};
use souffle_testkit::Rng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Phase-A offered load, requests per second, well below capacity: open
/// loop batches hold one or two requests, and at twice this rate the median
/// latency doubled whenever the host slowed, measuring queueing instead of
/// service.
const RATE_PER_S: f64 = 100.0;
/// Phase-A requests per window: the whole pool, so that every window
/// carries the same work (1.28 s at `RATE_PER_S`). A traced run alternates
/// servers window by window.
const A_WINDOW: usize = POOL;
/// Phase-B requests kept outstanding: one full batch.
const WINDOW: usize = 8;
/// Phase-B requests per throughput sample: the whole pool, so that every
/// group carries the same work. A group drains before the next starts, so
/// a traced run alternates servers group by group.
const RATE_GROUP: usize = POOL;
/// Share of the run's seconds spent in phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.5;
/// Distinct pre-built requests, each with its reference output; the load
/// cycles through them.
const POOL: usize = 128;
/// `bench_serve`'s lognormal sequence lengths: median e^1.1 ≈ 3.
const SEQ_MU: f64 = 1.1;
const SEQ_SIGMA: f64 = 0.6;
const MODEL: &str = "bert";

type Inputs = HashMap<TensorId, Tensor>;

struct Rig {
    spec: DynSpec,
    iface: TeProgram,
    max_seq: i64,
    weights: HashMap<String, Tensor>,
}

fn rig(seed: u64) -> Rig {
    let spec = dyn_seq_spec(Model::Bert, ModelConfig::Tiny).expect("BERT has a symbolic seq");
    let iface = spec.at(&spec.table.max_binding());
    let sym = spec.table.ids().next().expect("one symbolic dim");
    let (_, max_seq) = spec.table.bounds(sym);
    let weights = random_bindings(&iface, seed)
        .into_iter()
        .filter(|(id, _)| iface.tensor(*id).kind == TensorKind::Weight)
        .map(|(id, t)| (iface.tensor(id).name.clone(), t))
        .collect();
    Rig {
        spec,
        iface,
        max_seq,
        weights,
    }
}

impl Rig {
    fn at(&self, s: i64) -> TeProgram {
        self.spec
            .at(&self.spec.table.bind(vec![s]).expect("length within bounds"))
    }

    /// A request at sequence length `s` with seeded payloads: the interface
    /// inputs that are neither weights nor derived, at their length-`s`
    /// shapes.
    fn request(&self, s: i64, rng: &mut Rng) -> Inputs {
        let p_s = self.at(s);
        let shape_at_s: HashMap<&str, _> = p_s
            .tensors()
            .iter()
            .map(|t| (t.name.as_str(), t.shape.clone()))
            .collect();
        self.iface
            .free_tensors()
            .into_iter()
            .filter(|&id| {
                let info = self.iface.tensor(id);
                info.kind != TensorKind::Weight && !self.spec.is_derived_name(&info.name)
            })
            .map(|id| {
                let info = self.iface.tensor(id);
                let shape = shape_at_s[info.name.as_str()].clone();
                (
                    id,
                    Tensor::random(shape, rng.next_u64()).with_dtype(info.dtype),
                )
            })
            .collect()
    }

    /// The naive interpreter on the exact-length program, with the derived
    /// mask all-valid: what every response to `inputs` must equal.
    fn reference(&self, s: i64, inputs: &Inputs) -> Option<Vec<Tensor>> {
        let p_s = self.at(s);
        let binding = self.spec.table.bind(vec![s]).expect("length within bounds");
        let by_name: HashMap<&str, &Tensor> = inputs
            .iter()
            .map(|(id, t)| (self.iface.tensor(*id).name.as_str(), t))
            .collect();
        let bindings = p_s
            .free_tensors()
            .into_iter()
            .map(|id| {
                let info = p_s.tensor(id);
                let t = if info.kind == TensorKind::Weight {
                    self.weights[&info.name].clone()
                } else if self.spec.is_derived_name(&info.name) {
                    self.spec
                        .derived_tensor(&info.name, &info.shape, &binding)
                        .expect("derived input")
                        .with_dtype(info.dtype)
                } else {
                    (*by_name[info.name.as_str()]).clone()
                };
                (id, t)
            })
            .collect();
        let out = eval_program(&p_s, &bindings).ok()?;
        Some(p_s.outputs().iter().map(|id| out[id].clone()).collect())
    }

    /// The pool's sequence lengths in a seeded order. The mix itself is the
    /// lognormal's mass at each length `1..=max` in whole requests (largest
    /// remainder), the same for every seed, so that a seed moves the order
    /// and the payloads but not how much work the load carries.
    fn seq_lengths(&self, rng: &mut Rng) -> Vec<i64> {
        // P(round(exp(N(MU, SIGMA))) < x) for x > 0.
        let below = |x: f64| normal_cdf((x.ln() - SEQ_MU) / SEQ_SIGMA);
        let mass: Vec<f64> = (1..=self.max_seq)
            .map(|l| {
                let lo = if l == 1 { 0.0 } else { below(l as f64 - 0.5) };
                let hi = if l == self.max_seq {
                    1.0
                } else {
                    below(l as f64 + 0.5)
                };
                (hi - lo) * POOL as f64
            })
            .collect();
        let mut counts: Vec<usize> = mass.iter().map(|m| m.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..mass.len()).collect();
        by_remainder.sort_by(|&a, &b| mass[b].fract().total_cmp(&mass[a].fract()));
        let short = POOL - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let mut lengths: Vec<i64> = counts
            .iter()
            .zip(1..)
            .flat_map(|(&c, l)| std::iter::repeat_n(l, c))
            .collect();
        for i in (1..lengths.len()).rev() {
            lengths.swap(i, rng.below(i as u64 + 1) as usize);
        }
        lengths
    }

    fn start(&self, tracer: &Tracer) -> Server {
        ServerBuilder::new(ServeOptions::default())
            .tracer(tracer.clone())
            .register_dyn(MODEL, self.spec.clone(), self.weights.clone())
            .start()
    }
}

/// The standard normal CDF, from Abramowitz and Stegun 7.1.26 for erf
/// (absolute error below 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    0.5 * (1.0 + erf.copysign(z))
}

struct Pooled {
    inputs: Inputs,
    want: Vec<Tensor>,
}

fn correct(rig: &Rig, want: &[Tensor], outputs: &Inputs) -> bool {
    rig.iface
        .outputs()
        .iter()
        .zip(want)
        .all(|(id, w)| outputs.get(id).is_some_and(|g| crate::bits_equal(w, g)))
}

/// Runs one batch per (batch, seq) bucket so every variant is compiled
/// before timing starts. A batch is formed only if its requests arrive
/// within the batching deadline; when a stalled host splits one, the sweep
/// runs again, and only the variants still missing compile.
fn warm_up(rig: &Rig, server: &Server, rng: &mut Rng) -> bool {
    const SWEEPS: usize = 5;
    let seq_buckets = server.seq_buckets(MODEL).expect("model is registered");
    let buckets = ServeOptions::default().buckets;
    let all = Some(buckets.len() * seq_buckets.len());
    for _ in 0..SWEEPS {
        for &b in &buckets {
            for &s in &seq_buckets {
                let requests: Vec<Inputs> = (0..b).map(|_| rig.request(s, rng)).collect();
                let handles: Vec<Submit> = requests
                    .into_iter()
                    .map(|r| server.submit(MODEL, r))
                    .collect();
                for h in handles {
                    let answered = match h {
                        Submit::Accepted(h) => h.wait().map_err(|e| e.to_string()),
                        refused => Err(format!("{refused:?}")),
                    };
                    if let Err(e) = answered {
                        eprintln!("serve-bert: warm-up batch {b} x seq {s}: {e}");
                        return false;
                    }
                }
            }
        }
        if server.cached_variants(MODEL) == all {
            return true;
        }
    }
    eprintln!(
        "serve-bert: {SWEEPS} warm-up sweeps left {:?} of {all:?} variants compiled",
        server.cached_variants(MODEL)
    );
    false
}

/// Whether a response is an answer equal to its reference; says why not.
fn answered(rig: &Rig, want: &[Tensor], response: &Result<Response, ServeError>) -> bool {
    match response {
        Ok(r) if correct(rig, want, &r.outputs) => true,
        Ok(_) => {
            eprintln!("serve-bert: a response differs from its reference");
            false
        }
        Err(e) => {
            eprintln!("serve-bert: a request failed: {e}");
            false
        }
    }
}

/// Batching counters over one window: `ServerStats` is cumulative, so a
/// window is the difference of the snapshots at its two ends.
struct Window {
    batches: u64,
    deadline_flushes: u64,
    padded_slots: u64,
    requests: u64,
}

impl Window {
    fn between(start: &ServerStats, end: &ServerStats) -> Window {
        let requests = |s: &ServerStats| -> u64 {
            s.batch_hist
                .iter()
                .enumerate()
                .map(|(n, c)| n as u64 * c)
                .sum()
        };
        Window {
            batches: end.batches - start.batches,
            deadline_flushes: end.deadline_flushes - start.deadline_flushes,
            padded_slots: end.padded_slots - start.padded_slots,
            requests: requests(end) - requests(start),
        }
    }
}

/// Sleeps until shortly before `due`, then spins to it.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One phase-A request in flight: the side whose server took it, pool
/// index, its lateness against the schedule, the time `submit` took, and
/// the handle.
struct Sent {
    side: usize,
    k: usize,
    late: Duration,
    submit: Duration,
    handle: ResponseHandle,
}

/// What phase A measured on one side, per answered request.
#[derive(Default)]
struct PhaseA {
    /// Due time to response.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    failed: u64,
}

impl PhaseA {
    /// A request's latency runs from its due time through the whole
    /// `submit` call (admission and validation included) and on to the
    /// server's completion stamp. The server stamps the request inside
    /// `submit`, so the tail of that call (a lock and a queue push) counts
    /// twice: a few microseconds.
    fn record(
        &mut self,
        rig: &Rig,
        want: &[Tensor],
        late: Duration,
        submit: Duration,
        response: Result<Response, ServeError>,
    ) {
        self.late_ms.push(late.as_secs_f64() * 1e3);
        self.submit_us.push(submit.as_secs_f64() * 1e6);
        let ok = answered(rig, want, &response);
        match response {
            Ok(r) if ok => {
                let served_ns = r.completed_ns - r.submitted_ns;
                self.latency_ms
                    .push((late + submit).as_secs_f64() * 1e3 + served_ns as f64 / 1e6);
                self.queue_ms.push(r.queue_ns as f64 / 1e6);
            }
            _ => self.failed += 1,
        }
    }
}

pub fn run(run: &Run) -> Sides {
    let mut sides = Sides::default();
    let mut rng = Rng::new(run.seed);
    let rig_ref = rig(run.seed);
    let mut pool = Vec::with_capacity(POOL);
    for s in rig_ref.seq_lengths(&mut rng) {
        let inputs = rig_ref.request(s, &mut rng);
        let Some(want) = rig_ref.reference(s, &inputs) else {
            eprintln!("serve-bert: reference interpreter failed at seq {s}");
            sides.plain.failed += 1;
            return sides;
        };
        pool.push(Pooled { inputs, want });
    }
    // Phase A's schedule and payloads exist before the timed phases. The
    // schedule ends with a whole window.
    let a_seconds = run.seconds * PHASE_A_SHARE;
    let b_seconds = run.seconds - a_seconds;
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / RATE_PER_S;
        let windows = due.len() / A_WINDOW;
        if t >= a_seconds && due.len() % A_WINDOW == 0 && windows >= MIN_OPS * run.sides() {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let a_payloads: Vec<Inputs> = (0..due.len())
        .map(|k| pool[k % POOL].inputs.clone())
        .collect();

    // One server per side, indexed by whether it traces; set-ups alternate
    // and each side keeps its last.
    let mut servers: [Option<Server>; 2] = [None, None];
    let mut compile_ms = Vec::new();
    for k in 0..run.setups() {
        let tracer = run.tracer_at(k);
        let i = usize::from(tracer.is_enabled());
        if let Some(old) = servers[i].take() {
            old.shutdown();
        }
        let t = Instant::now();
        let setup_rig = rig(run.seed);
        let server = setup_rig.start(&tracer);
        let warmed = warm_up(&setup_rig, &server, &mut Rng::new(run.seed ^ 0x5EED));
        let side = sides.side(&tracer);
        side.setups_s.push(t.elapsed().as_secs_f64());
        if !warmed {
            side.failed += 1;
        }
        if tracer.is_enabled() {
            compile_ms
                .push(Spans::new(tracer.take()).total_ms(|n| n.starts_with("compile:bucket:")));
        }
        servers[i] = Some(server);
    }
    let server = |i: usize| servers[i].as_ref().expect("every side is set up");
    // Batching counters of the traced server at the phase boundaries.
    let traced_stats = || servers[1].as_ref().map(Server::stats);
    let s0 = traced_stats();

    // Phase A: open loop at a fixed rate. Responses are collected between
    // arrivals, so only requests in flight stay resident.
    let mut a: [PhaseA; 2] = Default::default();
    let mut sent: VecDeque<Sent> = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(1);
    for (k, (offset, inputs)) in due.iter().zip(a_payloads).enumerate() {
        let tracer = run.tracer_at(k / A_WINDOW);
        let i = usize::from(tracer.is_enabled());
        let at = start + *offset;
        wait_until(at);
        let t0 = Instant::now();
        let submitted = server(i).submit(MODEL, inputs);
        let submit = t0.elapsed();
        let side = sides.side(&tracer);
        side.attempted += 1;
        match submitted {
            Submit::Accepted(handle) => sent.push_back(Sent {
                side: i,
                k,
                late: t0.saturating_duration_since(at),
                submit,
                handle,
            }),
            refused => {
                eprintln!("serve-bert: phase A request {k} not admitted: {refused:?}");
                side.failed += 1;
            }
        }
        while let Some(r) = sent.front().and_then(|s| s.handle.try_wait()) {
            let s = sent.pop_front().expect("front exists");
            a[s.side].record(&rig_ref, &pool[s.k % POOL].want, s.late, s.submit, r);
        }
    }
    for s in sent {
        let response = s.handle.wait();
        a[s.side].record(&rig_ref, &pool[s.k % POOL].want, s.late, s.submit, response);
    }
    for (phase, a) in [&mut sides.plain, &mut sides.traced]
        .into_iter()
        .zip(&mut a)
    {
        phase.failed += a.failed;
        phase.ops_ms = std::mem::take(&mut a.latency_ms);
    }
    let s1 = traced_stats();
    let a_trace = run.tracer.as_ref().map(|t| Spans::new(t.take()));

    // Phase B: closed loop with a fixed window outstanding, in groups that
    // each drain before the next. A group's payloads are copied from the
    // pool before its clock starts.
    let mut next = 0usize;
    let mut batches = HashSet::new();
    let mut exec_ms = Vec::new();
    let start = Instant::now();
    let mut g = 0;
    while run.more(g, start, b_seconds) {
        let tracer = run.tracer_at(g);
        let i = usize::from(tracer.is_enabled());
        let side = sides.side(&tracer);
        let mut payloads = (next..next + RATE_GROUP)
            .map(|k| (k, pool[k % POOL].inputs.clone()))
            .collect::<Vec<_>>()
            .into_iter();
        next += RATE_GROUP;
        let mut inflight = VecDeque::new();
        let mut done = 0;
        let from = Instant::now();
        loop {
            while inflight.len() < WINDOW {
                let Some((k, inputs)) = payloads.next() else {
                    break;
                };
                side.attempted += 1;
                match server(i).submit(MODEL, inputs) {
                    Submit::Accepted(h) => inflight.push_back((k, h)),
                    refused => {
                        eprintln!("serve-bert: phase B request {k} not admitted: {refused:?}");
                        side.failed += 1;
                    }
                }
            }
            let Some((k, h)) = inflight.pop_front() else {
                break;
            };
            let response = h.wait();
            let ok = answered(&rig_ref, &pool[k % POOL].want, &response);
            match response {
                Ok(r) if ok => {
                    done += 1;
                    if tracer.is_enabled() && batches.insert(r.submitted_ns + r.queue_ns) {
                        exec_ms.push(r.exec_ns as f64 / 1e6);
                    }
                }
                _ => side.failed += 1,
            }
        }
        side.rates.push(done as f64 / from.elapsed().as_secs_f64());
        g += 1;
    }
    let s2 = traced_stats();
    let b_trace = run.tracer.as_ref().map(|t| Spans::new(t.take()));
    for s in servers.into_iter().flatten() {
        s.shutdown();
    }

    let plain = &mut sides.plain;
    let p99 = percentile(&plain.ops_ms, 0.99);
    plain.extra("serve_p99_ms", p99, "ms", plain.ops_ms.len());
    let late = &a[0].late_ms;
    let late_max = late.iter().copied().fold(0.0, f64::max);
    plain.extra("loadgen_late_max_ms", late_max, "ms", late.len());

    let (Some(s0), Some(s1), Some(s2), Some(a_trace), Some(b_trace)) =
        (s0, s1, s2, a_trace, b_trace)
    else {
        return sides;
    };
    let (wa, wb) = (Window::between(&s0, &s1), Window::between(&s1, &s2));
    let a = &a[1];
    let phase = &mut sides.traced;
    let n_a = phase.ops_ms.len();
    let p99 = percentile(&phase.ops_ms, 0.99);
    phase.layer("serve.submit_us", median(&a.submit_us), a.submit_us.len());
    phase.layer("serve.queue_ms", median(&a.queue_ms), a.queue_ms.len());
    phase.layer("serve.exec_ms", median(&exec_ms), exec_ms.len());
    phase.layer(
        "serve.batch_mean",
        ratio(wb.requests as f64, wb.batches as f64),
        wb.batches as usize,
    );
    phase.layer(
        "serve.padded_slot_ratio",
        ratio(
            wb.padded_slots as f64,
            (wb.padded_slots + wb.requests) as f64,
        ),
        wb.batches as usize,
    );
    phase.layer(
        "serve.deadline_flush_share",
        ratio(wa.deadline_flushes as f64, wa.batches as f64),
        wa.batches as usize,
    );
    phase.layer("serve.p99_ms", p99, n_a);
    let hits = a_trace.counter("shape_cache.hit") + b_trace.counter("shape_cache.hit");
    let misses = a_trace.counter("shape_cache.miss") + b_trace.counter("shape_cache.miss");
    phase.layer(
        "souffle.shape_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );
    phase.layer(
        "souffle.shape_cache_compile_ms",
        median(&compile_ms),
        compile_ms.len(),
    );
    phase.layer("bench.loadgen_late_ms", median(&a.late_ms), a.late_ms.len());
    phase.layer(
        "bench.loadgen_late_max_ms",
        a.late_ms.iter().copied().fold(0.0, f64::max),
        a.late_ms.len(),
    );
    sides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_9).abs() < 1e-6);
    }

    #[test]
    fn every_seed_gets_the_same_length_mix() {
        let r = rig(1);
        let mut a = r.seq_lengths(&mut Rng::new(1));
        let mut b = r.seq_lengths(&mut Rng::new(2));
        assert_eq!(a.len(), POOL);
        assert_ne!(a, b, "the seed orders the pool");
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(a.iter().all(|&l| (1..=r.max_seq).contains(&l)));
    }
}

//! The Souffle reproduction's benchmark: one workload per invocation, in a
//! fresh process, with its load fixed by the seed.
//!
//! ```text
//! perfbench --workload <compile-zoo|infer-bert|serve-bert> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it alternates traced and untraced set-ups and
//! operations in one process, and prints the per-layer metrics from the
//! traced ones plus the tracing overhead (traced minus untraced) of each
//! end-to-end timing metric. Each run checks every output against an
//! independent reference; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`, and a wrong
//! output makes the exit code non-zero.

mod host;
mod infer;
mod metrics;
mod selfcheck;
mod serve;
mod spans;
mod zoo;

use metrics::{metric_line, result_line, Sides, Value, Workload, END_TO_END};
use souffle::tensor::Tensor;
use souffle::trace::Tracer;
use std::time::Instant;

/// Set-ups per side of a run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Timed operations per side even when `seconds` runs out first.
pub const MIN_OPS: usize = 2;

/// How one run measures.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// The tracer of a traced run; `None` in an untraced one.
    pub tracer: Option<Tracer>,
}

impl Run {
    pub fn sides(&self) -> usize {
        if self.tracer.is_some() {
            2
        } else {
            1
        }
    }

    pub fn setups(&self) -> usize {
        SETUPS * self.sides()
    }

    /// The tracer for the `k`-th set-up, operation or window: a traced run
    /// traces every second one.
    pub fn tracer_at(&self, k: usize) -> Tracer {
        match &self.tracer {
            Some(t) if k % 2 == 1 => t.clone(),
            _ => Tracer::disabled(),
        }
    }

    /// Whether a timed loop that began at `start`, may take `seconds` and
    /// has made `k` operations (or windows) goes on.
    pub fn more(&self, k: usize, start: Instant, seconds: f64) -> bool {
        k < MIN_OPS * self.sides() || start.elapsed().as_secs_f64() < seconds
    }

    /// Drops what the tracer recorded so far (set-up, warm-up).
    pub fn drain(&self) {
        if let Some(t) = &self.tracer {
            t.take();
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <compile-zoo|infer-bert|serve-bert> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Bit-exact tensor equality: same shape, same bits in every element.
pub fn bits_equal(want: &Tensor, got: &Tensor) -> bool {
    want.shape() == got.shape()
        && want
            .data()
            .iter()
            .zip(got.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn measure(w: Workload, run: &Run) -> Sides {
    match w {
        Workload::CompileZoo => zoo::run(run),
        Workload::InferBert => infer::run(run),
        Workload::ServeBert => serve::run(run),
    }
}

fn print_probe(when: &str) {
    let p = host::probe();
    println!(
        "{when} chase_ns_per_step={} alu_ms={}",
        p.chase_ns_per_step, p.alu_ms
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-check"] {
        std::process::exit(selfcheck::run());
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("operation: {}", w.operation());
    print_probe("host.start");

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(Tracer::new),
    };
    let Sides { plain, mut traced } = measure(w, &run);
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let reported = if args.trace {
        for (t, b) in traced.timings().into_iter().zip(plain.timings()) {
            traced.layers.push(Value {
                name: metrics::overhead_name(&t.name),
                value: t.value - b.value,
                unit: t.unit,
                samples: t.samples.min(b.samples),
                note: format!("traced {} - untraced {}", t.value, b.value),
            });
        }
        for v in &traced.layers {
            println!("{}", metric_line("layer", v));
        }
        // The result line carries every per-layer metric the benchmark
        // lists; a layer this workload does not exercise reads 0.
        metrics::per_layer_names()
            .into_iter()
            .map(|(name, unit, _)| {
                traced
                    .layers
                    .iter()
                    .find(|v| v.name == name)
                    .cloned()
                    .unwrap_or(Value {
                        name,
                        value: 0.0,
                        unit,
                        samples: 0,
                        note: String::new(),
                    })
            })
            .collect()
    } else {
        let mut phase = plain;
        // Reported, not gated: the median and the tail move with how long
        // other tenants contended for the host during the run.
        let n = phase.ops_ms.len();
        let p50 = metrics::median(&phase.ops_ms);
        let p90 = metrics::percentile(&phase.ops_ms, 0.9);
        phase.extra("op_p50_ms", p50, "ms", n);
        phase.extra("op_p90_ms", p90, "ms", n);
        // Reported, not gated: serve-bert's peak moves in 2 MB steps between
        // identical runs, with which thread first touched which glibc arena.
        let rss = host::peak_rss_mb().unwrap_or(0.0);
        phase.extra("peak_rss_mb", rss, "MB", 1);
        let mut reported = phase.timings();
        for v in &mut reported {
            v.note = END_TO_END
                .iter()
                .find(|m| m.name == v.name)
                .map_or(String::new(), |m| m.definition.to_string());
            println!("{}", metric_line("metric", v));
        }
        for v in &phase.extra {
            println!("{}", metric_line("extra", v));
        }
        reported
    };
    let failed_frac = metrics::ratio(failed as f64, attempted as f64);
    println!("failed_frac {failed_frac} ratio n={attempted}");
    print_probe("host.end");
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &reported));
    if !correct {
        std::process::exit(1);
    }
}

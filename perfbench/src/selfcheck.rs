//! `--self-check`: runs every workload briefly, traced and untraced, in
//! child processes and validates what each prints against `BENCHMARK.json`
//! (read from the working directory) and the metric catalogue.

use crate::metrics::{per_layer_names, Workload, END_TO_END, OVERHEAD, PER_LAYER};
use souffle::trace::json::{parse, Value};
use std::collections::BTreeSet;
use std::process::Command;

const SECONDS: &str = "2";
const SEED: &str = "7";

pub fn run() -> i32 {
    let mut errors = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| parse(&s))
    {
        Ok(spec) => check_spec(&spec, &mut errors),
        Err(e) => errors.push(format!("BENCHMARK.json: {e}")),
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("self-check: cannot locate the benchmark binary: {e}");
            return 1;
        }
    };
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let ctx = format!("{} --trace {trace}", w.name());
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", SEED, "--seconds", SECONDS])
                .args(["--trace", trace])
                .output();
            match out {
                Ok(out) if out.status.success() => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    check_output(w, trace == "1", &stdout, &ctx, &mut errors);
                }
                Ok(out) => errors.push(format!(
                    "{ctx}: exit {:?}\n{}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                )),
                Err(e) => errors.push(format!("{ctx}: cannot run: {e}")),
            }
            println!("self-check: ran {ctx}");
        }
    }
    for e in &errors {
        println!("self-check error: {e}");
    }
    println!("self-check: {} error(s)", errors.len());
    i32::from(!errors.is_empty())
}

/// `BENCHMARK.json` must list exactly the catalogue's workloads and
/// metrics, with the same units, directions and bounds.
fn check_spec(spec: &Value, errors: &mut Vec<String>) {
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Value::as_str).map(String::from))
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    if names("workloads") != workloads {
        errors.push(format!("BENCHMARK.json workloads are not {workloads:?}"));
    }
    let field = |key: &str, name: &str, f: &str| -> Option<Value> {
        spec.get(key)?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
            .get(f)
            .cloned()
    };
    if names("end_to_end") != END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>() {
        errors.push("BENCHMARK.json end_to_end names differ from the catalogue".into());
    }
    for m in &END_TO_END {
        let want = [
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.into())),
            ("bound", Value::Num(m.bound)),
        ];
        for (f, v) in want {
            if field("end_to_end", m.name, f) != Some(v.clone()) {
                errors.push(format!("BENCHMARK.json {}: {f} is not {v:?}", m.name));
            }
        }
    }
    let layers = per_layer_names();
    if names("per_layer") != layers.iter().map(|(n, _, _)| n.clone()).collect::<Vec<_>>() {
        errors.push("BENCHMARK.json per_layer names differ from the catalogue".into());
    }
    for (name, unit, better) in &layers {
        for (f, v) in [("unit", unit), ("better", better)] {
            if field("per_layer", name, f) != Some(Value::Str((*v).into())) {
                errors.push(format!("BENCHMARK.json {name}: {f} is not {v}"));
            }
        }
    }
}

/// One invocation's output: report lines for the workload's own metrics
/// with units and sample counts, then the result line with every listed
/// metric.
fn check_output(w: Workload, traced: bool, stdout: &str, ctx: &str, errors: &mut Vec<String>) {
    let mut err = |e: String| errors.push(format!("{ctx}: {e}"));
    let kind = if traced { "layer" } else { "metric" };
    let mut printed = BTreeSet::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 5 && f[0] == kind {
            let n: usize = f[4]
                .strip_prefix("n=")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let finite = f[2].parse::<f64>().is_ok_and(f64::is_finite);
            if n == 0 || !finite {
                err(format!("{line:?} lacks a finite value or a sample count"));
            }
            printed.insert((f[1].to_string(), f[3].to_string()));
        }
    }
    let expected: BTreeSet<(String, String)> = if traced {
        PER_LAYER
            .iter()
            .filter(|m| m.workloads.contains(&w))
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .chain(OVERHEAD.iter().map(|m| {
                let unit = crate::metrics::e2e(m).unit;
                (crate::metrics::overhead_name(m), unit.to_string())
            }))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    if printed != expected {
        err(format!(
            "printed {kind}s differ from the catalogue: missing {:?}, unexpected {:?}",
            expected.difference(&printed).collect::<Vec<_>>(),
            printed.difference(&expected).collect::<Vec<_>>()
        ));
    }

    let Some(last) = stdout.lines().last() else {
        err("no output".into());
        return;
    };
    let result = match parse(last) {
        Ok(v) => v,
        Err(e) => {
            err(format!("last line is not JSON: {e}"));
            return;
        }
    };
    let keys: Vec<&str> = result
        .as_obj()
        .map(|m| m.keys().map(String::as_str).collect())
        .unwrap_or_default();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        err(format!("result keys are {keys:?}"));
    }
    if result.get("correct") != Some(&Value::Bool(true)) {
        err("correct is not true".into());
    }
    let attempted = result
        .get("attempted")
        .and_then(Value::as_num)
        .unwrap_or(0.0);
    if attempted < 1.0 || attempted.fract() != 0.0 {
        err(format!("attempted is {attempted}"));
    }
    if result.get("failed") != Some(&Value::Num(0.0)) {
        err("failed is not 0".into());
    }
    let want: Vec<(String, String)> = if traced {
        per_layer_names()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let Some(metrics) = result.get("metrics").and_then(Value::as_obj) else {
        err("no metrics object".into());
        return;
    };
    if metrics.len() != want.len() {
        err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            want.len()
        ));
    }
    for (name, unit) in want {
        let m = metrics.get(&name);
        let ok = m.and_then(|m| m.get("unit")).and_then(Value::as_str) == Some(unit.as_str())
            && m.and_then(|m| m.get("value"))
                .and_then(Value::as_num)
                .is_some_and(f64::is_finite);
        if !ok {
            err(format!(
                "metric {name} missing, without unit {unit}, or not a number"
            ));
        }
    }
}

//! Golden span-tree structure tests for the tracing spine.
//!
//! The *structure* of a trace — span names, nesting, and which counters
//! fired, never durations — is a deterministic function of the model and
//! options. These tests pin that structure for BERT and LSTM at test
//! scale: an accidental re-ordering of pipeline stages, a dropped verify
//! pass, or a runtime span leak shows up as a golden diff.
//!
//! Refresh after an intentional change with:
//!
//! ```sh
//! TESTKIT_BLESS=1 cargo test --test trace_golden
//! ```

use souffle::trace::{chrome, summary::TraceSummary, Tracer};
use souffle::{Souffle, SouffleOptions};
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_te::interp::random_bindings;
use souffle_testkit::golden::assert_golden;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compile + one inference with everything pinned deterministic: verify
/// and certify on (their spans are part of the contract), one execution
/// stream (the work-stealing counters of a real pool are
/// timing-dependent and must not leak into golden structure).
fn traced_run(model: Model) -> souffle::trace::Trace {
    let program = build_model(model, ModelConfig::Tiny);
    let mut options = SouffleOptions::full();
    options.verify = true;
    // Certification defaults to on only in debug builds and reads
    // `SOUFFLE_CERTIFY`; pin it so the `verify:certify:*` spans appear in
    // release builds and under any environment too.
    options.certify = Some(true);
    options.eval_threads = Some(1);
    // Pin the kernel tier on so golden structure cannot drift with the
    // `SOUFFLE_KERNEL_TIER` environment (off would drop every `kernels.*`
    // counter from the spine).
    options.kernel_tier = Some(true);
    let tracer = Tracer::new();
    let souffle = Souffle::new(options).with_tracer(tracer.clone());
    let compiled = souffle.compile(&program);
    let bindings = random_bindings(&program, 42);
    souffle.eval_outputs(&compiled, &bindings).expect("eval");
    let trace = tracer.take();
    trace.well_formed().expect("well-formed trace");
    trace
}

#[test]
fn bert_trace_structure_matches_golden() {
    let trace = traced_run(Model::Bert);
    assert_golden(&golden_path("trace_bert.txt"), &trace.structure());
}

#[test]
fn lstm_trace_structure_matches_golden() {
    let trace = traced_run(Model::Lstm);
    assert_golden(&golden_path("trace_lstm.txt"), &trace.structure());
}

#[test]
fn structure_is_stable_across_runs() {
    let a = traced_run(Model::Lstm).structure();
    let b = traced_run(Model::Lstm).structure();
    assert_eq!(a, b, "trace structure must not depend on timing");
}

/// Pins the kernel-tier counter vocabulary: at test scale most of BERT's
/// TEs sit below the small-TE cutoff (specializing them loses to
/// dispatch overhead — the MMoE regression), so the golden run must show
/// the cutoff holding them on bytecode via `fallback.small_te`, the
/// matmuls — the QKV group's pieces among them — still reaching
/// `row_dot`, and the fused attention scores reaching `slice_dot`.
/// Paper-scale census pins — where `slice_reduce`, `ew_tile` and the
/// honest fallbacks fire — live in `kernel_tier_differential`. Every
/// `kernels.*` counter a trace emits must come from
/// [`souffle_te::KernelStats`]'s stable name set — no ad-hoc counter
/// names on the spine.
#[test]
fn kernel_tier_counters_are_pinned_in_traces() {
    let trace = traced_run(Model::Bert);
    for required in [
        "kernels.row_dot",
        "kernels.slice_dot",
        "kernels.bytecode",
        "kernels.fallback.small_te",
    ] {
        assert!(
            trace.counters.get(required).is_some_and(|&v| v > 0),
            "BERT trace must carry a nonzero {required} counter, got {:?}",
            trace.counters
        );
    }
    let stable: Vec<&str> = souffle_te::KernelStats::default()
        .counters()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    for name in trace.counters.keys() {
        if name.starts_with("kernels.") {
            assert!(
                stable.contains(&name.as_str()),
                "unknown kernel counter {name} on the trace spine"
            );
        }
    }
}

/// Pins the reduction-fusion counter vocabulary: the golden BERT run
/// compiles with the fusion stage on (it is part of `full()`), and
/// BERT's softmax/layernorm chains guarantee the stage finds and
/// commits candidates — so the headline counters must be nonzero on the
/// spine (the tracer drops counters that never accumulate, so
/// `fusion.rejected_by_cost` only appears on programs where the cost
/// gate actually vetoes a fusion). Any `fusion.*` counter a trace emits
/// must come from the stage's stable four-name vocabulary.
#[test]
fn reduction_fusion_counters_are_pinned_in_traces() {
    let trace = traced_run(Model::Bert);
    for nonzero in ["fusion.candidates", "fusion.fused", "fusion.bytes_saved"] {
        assert!(
            trace.counters.get(nonzero).is_some_and(|&v| v > 0),
            "BERT trace must carry a nonzero {nonzero} counter, got {:?}",
            trace.counters
        );
    }
    let stable = [
        "fusion.candidates",
        "fusion.fused",
        "fusion.rejected_by_cost",
        "fusion.bytes_saved",
    ];
    for name in trace.counters.keys() {
        if name.starts_with("fusion.") {
            assert!(
                stable.contains(&name.as_str()),
                "unknown fusion counter {name} on the trace spine"
            );
        }
    }
}

#[test]
fn chrome_export_of_golden_run_validates() {
    let trace = traced_run(Model::Bert);
    let doc = chrome::chrome_json(&trace);
    let stats = chrome::validate(&doc).expect("valid Chrome trace");
    // One X event per span, one C event per counter, plus metadata.
    assert_eq!(stats.complete_events, trace.spans.len());
    assert_eq!(stats.counter_events, trace.counters.len());
    assert!(stats.metadata_events >= 1);
}

#[test]
fn summary_of_golden_run_round_trips() {
    let trace = traced_run(Model::Lstm);
    let summary = TraceSummary::from_trace(&trace);
    assert_eq!(summary.span_count, trace.spans.len() as u64);
    assert!(summary.categories.contains_key("compile"), "{summary:?}");
    assert!(summary.categories.contains_key("analysis"), "{summary:?}");
    assert!(summary.categories.contains_key("eval"), "{summary:?}");
    let back = TraceSummary::from_json(&summary.to_json(0)).expect("round trip");
    assert_eq!(back, summary);
}

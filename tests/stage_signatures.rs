//! Pins the output of every compile stage on the six paper-scale models.
//!
//! For each model the test runs the stages in `compile_checked`'s order —
//! horizontal fusion, vertical fusion, reduction fusion, global analysis
//! and lowering — and records, per stage, a structural hash of what the
//! stage emitted together with the certificate that stage's translation
//! validation produces. Rewrites of the compile passes that are meant to
//! be pure speed-ups must leave this file untouched: any change to a
//! program, to the reuse report, to a lowered kernel or to a certificate
//! count shows up as a golden diff.
//!
//! Refresh after an intentional change with:
//!
//! ```sh
//! TESTKIT_BLESS=1 cargo test --test stage_signatures
//! ```

use souffle::SouffleOptions;
use souffle_analysis::AnalysisResult;
use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_kernel::{lower_partition, LowerOptions};
use souffle_sched::program_signature;
use souffle_te::{RewriteLog, TeProgram};
use souffle_testkit::golden::assert_golden;
use souffle_transform::{
    horizontal_fuse_program_logged, reduction_fuse_program_logged, vertical_fuse_program_logged,
};
use souffle_verify::{certify_schedule, certify_transform};
use std::path::PathBuf;

/// FNV-1a over a rendered artifact. `program_signature` leaves out which
/// tensor fills each operand slot, so the TE list is hashed as well.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A TE-level stage: rewrites a program, logging its rewrites.
type Stage = fn(&TeProgram, &mut RewriteLog) -> TeProgram;

/// One model's lines: each TE stage's program signature and certificate,
/// then the analysis/lowering outputs and the schedule-merge certificate.
fn stage_lines(model: Model) -> String {
    let mut program = build_model(model, ModelConfig::Paper);
    let mut out = String::new();
    let stages: [(&str, Stage); 3] = [
        ("horizontal", |p, log| {
            horizontal_fuse_program_logged(p, log).0
        }),
        ("vertical", |p, log| vertical_fuse_program_logged(p, log).0),
        ("reduction-fusion", |p, log| {
            reduction_fuse_program_logged(p, log).0
        }),
    ];
    for (stage, run) in stages {
        let mut log = RewriteLog::new();
        let next = run(&program, &mut log);
        let (cert, diags) = certify_transform(&program, &next, stage, &log);
        assert!(!diags.has_errors(), "{model:?} {stage}: {diags}");
        out.push_str(&format!(
            "{model:?} {stage}: {} TEs, sig {:016x}, tes {:016x}; {cert}\n",
            next.num_tes(),
            program_signature(&next),
            fnv(&format!("{:?}", next.tes()))
        ));
        program = next;
    }
    let spec = SouffleOptions::full().spec;
    let analysis = AnalysisResult::analyze(&program, &spec);
    let kernels = lower_partition(
        &program,
        &analysis.partition,
        &analysis.schedules,
        &analysis.classes,
        LowerOptions::default(),
    );
    let (cert, diags) = certify_schedule(&program, &kernels);
    assert!(!diags.has_errors(), "{model:?} schedule-merge: {diags}");
    out.push_str(&format!(
        "{model:?} schedule-merge: reuse {:016x}, {} kernels {:016x}; {cert}\n",
        fnv(&format!("{:?}", analysis.reuse)),
        kernels.len(),
        fnv(&format!("{kernels:?}"))
    ));
    out
}

#[test]
fn every_stage_output_matches_golden() {
    // One thread per model: LSTM's 17k TEs dominate, and the others
    // finish in its shadow.
    let lines: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = Model::ALL
            .iter()
            .map(|&m| s.spawn(move || stage_lines(m)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stage thread"))
            .collect()
    });
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stage_signatures.txt");
    assert_golden(&golden, &lines.concat());
}

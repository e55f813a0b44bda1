#!/usr/bin/env bash
# Tier-1 verification gate. Runs fully offline: the workspace has zero
# crates.io dependencies (all testing via the in-tree souffle-testkit).
#
# Usage: ./scripts/ci.sh
# Seeds are fixed by default; export TESTKIT_SEED=<u64|0xhex> to explore.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no committed build artifacts =="
if git ls-files | grep -q '^target/'; then
  echo "ci.sh: target/ build artifacts are committed; run 'git rm -r --cached target'" >&2
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link in the library crates must resolve
# to a public item, so deleting an item cannot leave a dangling link
# behind. --lib because the souffle-verify binary and the souffle_verify
# library would collide in target/doc.
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --lib --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

# Static verifier + certifier gate: every pipeline stage of every
# paper-scale model must prove clean, and with SOUFFLE_CERTIFY=on the
# translation validator must prove every transform stage (plus a batch-4
# rewrite per model) equivalent with zero residual obligations. Exit
# code is non-zero on any error diagnostic or residual obligation.
echo "== souffle-verify (SOUFFLE_CERTIFY=on, all models, paper scale) =="
SOUFFLE_CERTIFY=on cargo run -q --release --offline -p souffle --bin souffle-verify

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

# Observability gate: golden span-tree structure for BERT/LSTM (refresh
# with TESTKIT_BLESS=1 on intentional pipeline changes), trace property
# suite, and an end-to-end `souffle-cli --trace-out` run whose Chrome
# trace_event JSON is schema-checked in the test binary.
echo "== golden traces + --trace-out schema check =="
cargo test -q --offline --test trace_golden --test trace_properties
cargo test -q --offline -p souffle --test cli_trace

# Serving gate: batcher virtual-clock determinism + queue/backpressure
# properties and the server-vs-eval_reference batch-invariance
# differential (all six models × buckets 1/2/4/8).
echo "== serving suites =="
cargo test -q --offline -p souffle-serve
cargo test -q --offline --test serve_differential

# Benchmark gate: perfbench's self-check runs every workload (compile-zoo,
# infer-bert, serve-bert) for 2 s traced and untraced, checks every
# output bit-exactly against the interpreter and validates every printed
# metric against BENCHMARK.json (read from the repository root). No
# timing is asserted. --locked fails if a change would make the benchmark
# rewrite perfbench/Cargo.lock. Its release build has its own target
# directory, because perfbench is a workspace of its own.
echo "== perfbench --self-check =="
CARGO_TARGET_DIR=target/perfbench cargo run -q --locked --release --offline \
  --manifest-path perfbench/Cargo.toml -- --self-check

# Dynamic-shape gate: the cross-shape differential (BERT/LSTM symbolic
# seq served bit-exactly at every length 1..=max, one compiled variant
# per used bucket; all six models through the symbolic-batch oracle;
# per-model padding regression) and the parametric-verifier mutation
# suite.
echo "== dynamic shapes =="
cargo test -q --offline --test dynamic_shape_differential --test verify_mutations

# Re-run the evaluator-facing suites with a pinned 2-stream wavefront pool:
# results must be bit-identical under any SOUFFLE_EVAL_THREADS, and this
# catches pool-size-dependent bugs that the ambient default would hide.
echo "== cargo test (SOUFFLE_EVAL_THREADS=2) =="
SOUFFLE_EVAL_THREADS=2 cargo test -q --offline -p souffle-te -p souffle
SOUFFLE_EVAL_THREADS=2 cargo test -q --offline \
  --test evaluator_equivalence --test runtime_determinism

# Kernel-tier gate: the monomorphized native kernels must be bit-identical
# to the bytecode VM and the interpreter whichever way the environment
# forces the tier — so the evaluator suites run once with the tier pinned
# off (pure bytecode everywhere a test doesn't force it) and once pinned
# on. The pipeline bench smoke run then validates the
# souffle-bench-pipeline/6 schema with its kernel-dispatch,
# reduction-fusion, and fusion-off-baseline counters on a temp file
# (hermetic: no timing assertions, results/ untouched).
echo "== cargo test (SOUFFLE_KERNEL_TIER=off/on) + bench pipeline --smoke =="
SOUFFLE_KERNEL_TIER=off cargo test -q --offline \
  --test evaluator_equivalence --test kernel_tier_differential --test runtime_determinism
SOUFFLE_KERNEL_TIER=on cargo test -q --offline \
  --test evaluator_equivalence --test kernel_tier_differential --test runtime_determinism
cargo bench -q --offline -p souffle-bench --bench pipeline -- --smoke

# Reduction-fusion gate: fold inlining must be bit-identical to the
# materialized pipeline whichever way the environment forces the stage,
# on both the evaluator differentials and the serving path.
echo "== cargo test (SOUFFLE_REDUCTION_FUSION=off/on) =="
SOUFFLE_REDUCTION_FUSION=off cargo test -q --offline \
  --test evaluator_equivalence --test reduction_fusion_differential --test serve_differential
SOUFFLE_REDUCTION_FUSION=on cargo test -q --offline \
  --test evaluator_equivalence --test reduction_fusion_differential --test serve_differential

# Translation-validation sweep: the miscompile-injection suite forces
# certification on itself, and the serving differential exercises the
# serve-side batch-certify gate — both must pass whichever way the
# environment pins the knob.
echo "== cargo test (SOUFFLE_CERTIFY=off/on) =="
SOUFFLE_CERTIFY=off cargo test -q --offline \
  --test certify_mutations --test serve_differential
SOUFFLE_CERTIFY=on cargo test -q --offline \
  --test certify_mutations --test serve_differential

echo "ci.sh: all checks passed"

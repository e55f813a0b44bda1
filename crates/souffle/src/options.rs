//! Pipeline configuration, including the ablation points of Table 4.

use souffle_sched::GpuSpec;

/// Which optimization stages run — the knobs of the paper's ablation
/// study (§8.2): V0 is plain TVM+Ansor codegen; each step adds one
/// Souffle mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct SouffleOptions {
    /// Horizontal TE transformation (§6.1) — V1.
    pub horizontal: bool,
    /// Vertical TE transformation (§6.2) — V2.
    pub vertical: bool,
    /// Data-movement-aware reduction fusion: carry single-axis reductions
    /// (softmax denominators, layernorm moments) *inline* in their
    /// broadcast consumers as scoped folds when the bytes-moved cost model
    /// approves. Runs as its own stage between vertical fusion and global
    /// analysis, and only when `vertical` is on (its candidates are the
    /// post-vertical reduction chains). `Some(true)`/`Some(false)` force
    /// it; `None` resolves via `SOUFFLE_REDUCTION_FUSION` (on when unset).
    /// Bit-exact: fusion preserves per-element reduction order, and the
    /// stage is re-verified and oracle-checked like every other.
    pub reduction_fusion: Option<bool>,
    /// Resource-aware partitioning into grid-synchronized merged kernels
    /// (§5.4, §6.4) — V3. When off, kernels are generated per compute TE
    /// with epilogue fusion (Ansor-style).
    pub global_sync: bool,
    /// Subprogram-level optimization: instruction pipelining + LRU tensor
    /// buffer reuse (§6.5) — V4.
    pub subprogram_opts: bool,
    /// Capacity of the software-managed LRU tensor cache used by the
    /// reuse pass (§6.5). `None` uses the device-wide shared memory
    /// (each block caches its tile); the design-ablation bench sweeps
    /// this.
    pub reuse_cache_bytes: Option<u64>,
    /// Execution streams for the compiled evaluator's wavefront runtime
    /// (pool workers + calling thread). `None` resolves via
    /// `SOUFFLE_EVAL_THREADS`, else the machine parallelism. Results are
    /// bit-identical for every value.
    pub eval_threads: Option<usize>,
    /// Kernel-tier mode for the compiled evaluator: `Some(true)` forces
    /// the monomorphized native kernels, `Some(false)` forces pure
    /// bytecode, `None` resolves via `SOUFFLE_KERNEL_TIER` (on when
    /// unset). Bit-identical either way; this knob exists for the
    /// differential suites and A/B benchmarking.
    pub kernel_tier: Option<bool>,
    /// Relax `Sum` reduction order in the specialized dot kernels
    /// (multi-lane partial accumulators). Opt-in: changes float results,
    /// is excluded from every bit-identity oracle, and is benchmarked as
    /// its own row.
    pub fast_math: bool,
    /// Run the static verifier (`souffle-verify`) after every pipeline
    /// stage: the frontend program, each TE transformation, and the
    /// lowered kernels. Errors abort compilation
    /// ([`crate::Souffle::compile_checked`] returns them; `compile`
    /// panics with the rendered diagnostics); warnings are collected on
    /// [`crate::Compiled::diagnostics`]. Defaults to on in debug builds
    /// (and thus under `cargo test`), off in release builds.
    pub verify: bool,
    /// Per-stage translation validation (`souffle_verify::certify`): after
    /// every transform stage the certifier statically proves the rewritten
    /// program equivalent to its input (canonical-form comparison of
    /// unfolded tensor definitions, recorded-rewrite replay, merged-
    /// schedule dataflow validation) and attaches a
    /// [`souffle_verify::Certificate`] per stage to the compile result.
    /// `Some(true)`/`Some(false)` force it; `None` resolves via
    /// `SOUFFLE_CERTIFY`, else on in debug builds. Only effective when
    /// `verify` is on (certification is part of the verification tier).
    pub certify: Option<bool>,
    /// The target device.
    pub spec: GpuSpec,
}

impl SouffleOptions {
    /// V0: TVM + Ansor baseline codegen (no Souffle mechanisms).
    pub fn v0() -> Self {
        SouffleOptions {
            horizontal: false,
            vertical: false,
            reduction_fusion: None,
            global_sync: false,
            subprogram_opts: false,
            reuse_cache_bytes: None,
            eval_threads: None,
            kernel_tier: None,
            fast_math: false,
            verify: cfg!(debug_assertions),
            certify: None,
            spec: GpuSpec::a100(),
        }
    }

    /// V1: + horizontal transformation.
    pub fn v1() -> Self {
        SouffleOptions {
            horizontal: true,
            ..SouffleOptions::v0()
        }
    }

    /// V2: + vertical transformation.
    pub fn v2() -> Self {
        SouffleOptions {
            vertical: true,
            ..SouffleOptions::v1()
        }
    }

    /// V3: + global synchronization (merged subprogram kernels).
    pub fn v3() -> Self {
        SouffleOptions {
            global_sync: true,
            ..SouffleOptions::v2()
        }
    }

    /// V4 (= full Souffle): + subprogram-level optimization.
    pub fn v4() -> Self {
        SouffleOptions {
            subprogram_opts: true,
            ..SouffleOptions::v3()
        }
    }

    /// The complete pipeline (alias of [`SouffleOptions::v4`]).
    pub fn full() -> Self {
        SouffleOptions::v4()
    }

    /// Whether the reduction-fusion stage runs: the explicit option if
    /// set, else the `SOUFFLE_REDUCTION_FUSION` environment override,
    /// else on. The pipeline additionally requires `vertical` — the
    /// stage's candidates are post-vertical reduction chains.
    pub fn resolve_reduction_fusion(&self) -> bool {
        self.reduction_fusion
            .or_else(|| souffle_te::env_flag(souffle_transform::REDUCTION_FUSION_ENV))
            .unwrap_or(true)
    }

    /// Whether the translation-validation stage runs: requires `verify`,
    /// then the explicit option if set, else the `SOUFFLE_CERTIFY`
    /// environment override, else on in debug builds.
    pub fn resolve_certify(&self) -> bool {
        self.verify
            && self
                .certify
                .or_else(|| souffle_te::env_flag(souffle_verify::CERTIFY_ENV))
                .unwrap_or(cfg!(debug_assertions))
    }

    /// All ablation variants in order, with their Table 4 labels.
    pub fn ablation() -> Vec<(&'static str, SouffleOptions)> {
        vec![
            ("V0", SouffleOptions::v0()),
            ("V1", SouffleOptions::v1()),
            ("V2", SouffleOptions::v2()),
            ("V3", SouffleOptions::v3()),
            ("V4", SouffleOptions::v4()),
        ]
    }
}

impl Default for SouffleOptions {
    fn default() -> Self {
        SouffleOptions::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_is_monotonic() {
        let steps = SouffleOptions::ablation();
        assert_eq!(steps.len(), 5);
        let on = |o: &SouffleOptions| {
            [o.horizontal, o.vertical, o.global_sync, o.subprogram_opts]
                .iter()
                .filter(|&&b| b)
                .count()
        };
        for w in steps.windows(2) {
            assert_eq!(on(&w[1].1), on(&w[0].1) + 1);
        }
    }

    #[test]
    fn full_is_v4() {
        assert_eq!(SouffleOptions::full(), SouffleOptions::v4());
        assert_eq!(SouffleOptions::default(), SouffleOptions::v4());
    }
}

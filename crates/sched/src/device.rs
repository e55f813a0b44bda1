//! GPU device description used by the scheduler, partitioner and simulator.

use std::fmt;

/// Static description of the simulated GPU.
///
/// Defaults follow the paper's evaluation platform: a 40 GB NVIDIA A100
/// (108 SMs, ~1.56 TB/s HBM2, 19.5 TFLOP/s FP32, 312 TFLOP/s FP16 tensor
/// cores, ~2 µs kernel-launch overhead per §8.3).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u64,
    /// Maximum shared memory one block may allocate.
    pub shared_mem_per_block_max: u64,
    /// 32-bit registers per SM.
    pub registers_per_sm: u64,
    /// Global-memory bandwidth in bytes/second.
    pub global_bw_bytes_per_s: f64,
    /// FP32 FMA throughput in FLOP/s.
    pub fp32_flops: f64,
    /// FP16 tensor-core throughput in FLOP/s.
    pub fp16_tensor_flops: f64,
    /// Host-side overhead of one kernel launch, in seconds (§8.3: ≈2 µs).
    pub kernel_launch_overhead_s: f64,
    /// Cost of one grid-wide synchronization (cooperative groups), in
    /// seconds. Much cheaper than a kernel launch, which is what makes the
    /// paper's single-kernel strategy win.
    pub grid_sync_overhead_s: f64,
    /// Cost of a block-wide barrier, in seconds.
    pub block_sync_overhead_s: f64,
}

impl GpuSpec {
    /// The evaluation platform of the paper: NVIDIA A100-40GB (SXM).
    pub fn a100() -> Self {
        GpuSpec {
            name: "NVIDIA A100-SXM4-40GB (simulated)".to_string(),
            num_sms: 108,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 164 * 1024,
            shared_mem_per_block_max: 48 * 1024,
            registers_per_sm: 65_536,
            global_bw_bytes_per_s: 1.555e12,
            fp32_flops: 19.5e12,
            fp16_tensor_flops: 312e12,
            kernel_launch_overhead_s: 2.0e-6,
            grid_sync_overhead_s: 0.25e-6,
            block_sync_overhead_s: 0.02e-6,
        }
    }

    /// How many blocks of the given footprint can be resident on the whole
    /// device at once — the paper's "max blocks per wave" that bounds grid
    /// synchronization (§5.4).
    ///
    /// A zero result is clamped to `num_sms` lower bound of 0 blocks per SM
    /// being impossible: if a single block exceeds per-SM resources the
    /// schedule is infeasible and the caller must reject it, so 0 is
    /// returned in that case.
    pub fn max_blocks_per_wave(
        &self,
        threads_per_block: u32,
        shared_mem_bytes: u64,
        regs_per_thread: u32,
    ) -> u64 {
        if threads_per_block == 0 {
            return 0;
        }
        let by_threads = (self.max_threads_per_sm / threads_per_block.max(1)) as u64;
        let by_blocks = self.max_blocks_per_sm as u64;
        let by_smem = self
            .shared_mem_per_sm
            .checked_div(shared_mem_bytes)
            .unwrap_or(u64::MAX);
        let regs_per_block = regs_per_thread as u64 * threads_per_block as u64;
        let by_regs = self
            .registers_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(u64::MAX);
        let per_sm = by_threads.min(by_blocks).min(by_smem).min(by_regs);
        per_sm * self.num_sms as u64
    }

    /// Effective peak FLOP/s for a body, given tensor-core eligibility.
    pub fn peak_flops(&self, tensor_core: bool) -> f64 {
        if tensor_core {
            self.fp16_tensor_flops
        } else {
            self.fp32_flops
        }
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0} GB/s, {:.1}/{:.0} TFLOPS fp32/fp16tc)",
            self.name,
            self.num_sms,
            self.global_bw_bytes_per_s / 1e9,
            self.fp32_flops / 1e12,
            self.fp16_tensor_flops / 1e12,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_sane() {
        let g = GpuSpec::a100();
        assert_eq!(g.num_sms, 108);
        assert!(g.fp16_tensor_flops > g.fp32_flops);
        assert!(g.kernel_launch_overhead_s > g.grid_sync_overhead_s);
    }

    #[test]
    fn wave_limit_by_threads() {
        let g = GpuSpec::a100();
        // 1024-thread blocks, no smem/regs pressure: 2 blocks/SM.
        assert_eq!(g.max_blocks_per_wave(1024, 0, 0), 2 * 108);
    }

    #[test]
    fn wave_limit_by_shared_memory() {
        let g = GpuSpec::a100();
        // 41 KB blocks: floor(164/41) = 4 per SM.
        assert_eq!(g.max_blocks_per_wave(64, 41 * 1024, 16), 4 * 108);
    }

    #[test]
    fn wave_limit_by_registers() {
        let g = GpuSpec::a100();
        // 256 threads * 128 regs = 32768 regs per block -> 2 per SM.
        assert_eq!(g.max_blocks_per_wave(256, 0, 128), 2 * 108);
    }

    #[test]
    fn wave_limit_zero_threads_is_zero() {
        assert_eq!(GpuSpec::a100().max_blocks_per_wave(0, 0, 0), 0);
    }

    #[test]
    fn peak_flops_selects_pipeline() {
        let g = GpuSpec::a100();
        assert_eq!(g.peak_flops(true), g.fp16_tensor_flops);
        assert_eq!(g.peak_flops(false), g.fp32_flops);
    }

    #[test]
    fn display_nonempty() {
        assert!(GpuSpec::a100().to_string().contains("A100"));
    }
}

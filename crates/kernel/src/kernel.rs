//! Kernels, stages and compiled models.

use crate::Instr;
use souffle_te::TeId;
use std::fmt;

/// One TE's share of a merged kernel: its instruction stream plus the
/// launch configuration it was scheduled with. In the generated code each
/// stage is wrapped in an `if blockIdx < n` predicate when its launch
/// dimensions are narrower than the kernel's (§6.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The TE this stage computes.
    pub te: TeId,
    /// Human-readable name (TE name).
    pub name: String,
    /// Blocks this stage actually uses.
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory this stage's staging buffers need (bytes/block).
    pub shared_mem_bytes: u64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Instruction stream (kernel-wide byte/flop aggregates).
    pub instrs: Vec<Instr>,
    /// Whether the instruction-level pipelining pass overlapped this
    /// stage's global loads with arithmetic (§6.5).
    pub pipelined: bool,
}

impl Stage {
    /// Total global-memory bytes read by the stage.
    pub fn global_read_bytes(&self) -> u64 {
        self.instrs.iter().map(Instr::global_read_bytes).sum()
    }

    /// Total global-memory bytes written by the stage.
    pub fn global_write_bytes(&self) -> u64 {
        self.instrs.iter().map(Instr::global_write_bytes).sum()
    }

    /// Total floating-point operations.
    pub fn flops(&self) -> u64 {
        self.instrs.iter().map(Instr::flops).sum()
    }

    /// Bytes served from the shared-memory tensor cache.
    pub fn shared_read_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::LdShared { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Whether any instruction uses the tensor-core pipeline.
    pub fn uses_tensor_core(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i, Instr::Wmma { .. }))
    }

    /// Number of grid synchronizations issued by this stage.
    pub fn grid_syncs(&self) -> u64 {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::GridSync))
            .count() as u64
    }
}

/// A GPU kernel: one or more stages executing inside a single launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (subprogram name).
    pub name: String,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl Kernel {
    /// Launch grid: the widest stage (narrower stages are predicated).
    pub fn grid_blocks(&self) -> u64 {
        self.stages.iter().map(|s| s.grid_blocks).max().unwrap_or(0)
    }

    /// Threads per block of the launch (max over stages).
    pub fn threads_per_block(&self) -> u32 {
        self.stages
            .iter()
            .map(|s| s.threads_per_block)
            .max()
            .unwrap_or(0)
    }

    /// Shared memory per block of the launch (max over stages).
    pub fn shared_mem_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.shared_mem_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Registers per thread of the launch (max over stages).
    pub fn regs_per_thread(&self) -> u32 {
        self.stages
            .iter()
            .map(|s| s.regs_per_thread)
            .max()
            .unwrap_or(0)
    }

    /// Whether the kernel contains a grid synchronization (and therefore
    /// must satisfy the max-blocks-per-wave constraint).
    pub fn uses_grid_sync(&self) -> bool {
        self.stages.iter().any(|s| s.grid_syncs() > 0)
    }

    /// Total global reads over all stages.
    pub fn global_read_bytes(&self) -> u64 {
        self.stages.iter().map(Stage::global_read_bytes).sum()
    }

    /// Total global writes over all stages.
    pub fn global_write_bytes(&self) -> u64 {
        self.stages.iter().map(Stage::global_write_bytes).sum()
    }

    /// Total floating-point operations over all stages.
    pub fn flops(&self) -> u64 {
        self.stages.iter().map(Stage::flops).sum()
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel {} <<<{}, {}>>> smem={}B{}",
            self.name,
            self.grid_blocks(),
            self.threads_per_block(),
            self.shared_mem_bytes(),
            if self.uses_grid_sync() { " coop" } else { "" }
        )?;
        for s in &self.stages {
            writeln!(f, "  stage {} (grid {}):", s.name, s.grid_blocks)?;
            for i in &s.instrs {
                writeln!(f, "    {i}")?;
            }
        }
        Ok(())
    }
}

/// A fully compiled model: the ordered kernels one inference executes.
#[derive(Debug, Clone, Default)]
pub struct CompiledModel {
    /// Kernels in launch order.
    pub kernels: Vec<Kernel>,
}

impl CompiledModel {
    /// Number of kernel launches per inference.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::TensorId;

    fn stage(grid: u64, instrs: Vec<Instr>) -> Stage {
        Stage {
            te: TeId(0),
            name: "s".into(),
            grid_blocks: grid,
            threads_per_block: 128,
            shared_mem_bytes: 1024,
            regs_per_thread: 32,
            instrs,
            pipelined: false,
        }
    }

    #[test]
    fn stage_aggregates() {
        let s = stage(
            4,
            vec![
                Instr::LdGlobalToShared {
                    tensor: TensorId(0),
                    bytes: 100,
                },
                Instr::LdShared {
                    tensor: TensorId(1),
                    bytes: 50,
                },
                Instr::Wmma { flops: 1000 },
                Instr::StSharedToGlobal {
                    tensor: TensorId(2),
                    bytes: 30,
                },
                Instr::GridSync,
            ],
        );
        assert_eq!(s.global_read_bytes(), 100);
        assert_eq!(s.shared_read_bytes(), 50);
        assert_eq!(s.global_write_bytes(), 30);
        assert_eq!(s.flops(), 1000);
        assert!(s.uses_tensor_core());
        assert_eq!(s.grid_syncs(), 1);
    }

    #[test]
    fn kernel_takes_max_resources() {
        let k = Kernel {
            name: "k".into(),
            stages: vec![
                Stage {
                    grid_blocks: 4,
                    shared_mem_bytes: 2048,
                    ..stage(4, vec![])
                },
                Stage {
                    grid_blocks: 16,
                    threads_per_block: 256,
                    ..stage(16, vec![Instr::GridSync])
                },
            ],
        };
        assert_eq!(k.grid_blocks(), 16);
        assert_eq!(k.threads_per_block(), 256);
        assert_eq!(k.shared_mem_bytes(), 2048);
        assert!(k.uses_grid_sync());
    }

    #[test]
    fn compiled_model_counts_kernels() {
        let k = Kernel {
            name: "k".into(),
            stages: vec![stage(
                1,
                vec![
                    Instr::LdGlobal {
                        tensor: TensorId(0),
                        bytes: 10,
                    },
                    Instr::StGlobal {
                        tensor: TensorId(1),
                        bytes: 5,
                    },
                ],
            )],
        };
        let m = CompiledModel {
            kernels: vec![k.clone(), k],
        };
        assert_eq!(m.num_kernels(), 2);
    }

    #[test]
    fn display_contains_instrs() {
        let k = Kernel {
            name: "k".into(),
            stages: vec![stage(1, vec![Instr::GridSync])],
        };
        assert!(k.to_string().contains("grid.sync"));
    }
}

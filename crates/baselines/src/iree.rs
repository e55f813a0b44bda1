//! IREE (MLIR-based) as a fusion strategy.

use crate::strategy::{consumes_group_output, group_by, Strategy, StrategyContext};
use souffle_analysis::TeClass;
use souffle_gpusim::SimConfig;
use souffle_te::TeId;

/// IREE's behaviour (§7.2, §8.1): the linalg dialect performs
/// producer-consumer tile-and-fuse only — element-wise consumers fold
/// into a compute-intensive producer's tiles, but reductions never merge
/// with each other ("it does not fuse GEMM and softmax operators"), there
/// is no horizontal/sibling fusion, and compute-intensive operators never
/// merge ("IREE cannot fuse computation-intensive operators (e.g.,
/// batch_matmul)"). Its generic code generation achieves a low fraction of
/// peak, drastically so for direct convolutions (ResNeXt takes 314 ms in
/// Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct IreeStrategy;

impl Strategy for IreeStrategy {
    fn name(&self) -> &'static str {
        "IREE"
    }

    fn group(&self, ctx: &StrategyContext) -> Vec<Vec<TeId>> {
        group_by(ctx, |ctx, group, te| {
            let te_ref = ctx.program.te(te);
            if te_ref.is_reduction() {
                return false; // reductions always start a new dispatch
            }
            // Tile-and-fuse behind a compute-intensive producer only.
            let anchor_ci = ctx.classes[&group[0]] == TeClass::ComputeIntensive;
            anchor_ci && consumes_group_output(ctx, group, te)
        })
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            compute_efficiency: 0.30,
            memory_efficiency: 0.55,
            ..SimConfig::a100()
        }
    }

    fn compile(&self, ctx: &StrategyContext) -> souffle_kernel::CompiledModel {
        // Default grouping + lowering, then model IREE's direct-convolution
        // pathology (§8.1: 314 ms on ResNeXt vs ≤25 ms for everyone else):
        // its scalar conv loops neither use tensor cores nor vectorize, so
        // convolution kernels execute an order of magnitude more
        // instructions.
        let groups = self.group(ctx);
        let consumers = ctx.program.consumer_lists();
        let mut compiled = souffle_kernel::CompiledModel {
            kernels: groups
                .iter()
                .map(|g| {
                    souffle_kernel::lower_fused_group(
                        &ctx.program,
                        g,
                        &consumers,
                        &ctx.schedules,
                        &ctx.classes,
                        souffle_kernel::LowerOptions {
                            two_phase_reduction: false,
                            ..souffle_kernel::LowerOptions::default()
                        },
                    )
                })
                .collect(),
        };
        for (kernel, group) in compiled.kernels.iter_mut().zip(&groups) {
            // GEMMs go through a reasonable linalg.matmul path; only
            // convolutions hit the scalar direct-conv lowering.
            let has_conv = group.iter().any(|&te| ctx.program.te(te).reduce.len() >= 3);
            if !has_conv {
                continue;
            }
            for stage in &mut kernel.stages {
                for instr in &mut stage.instrs {
                    match *instr {
                        souffle_kernel::Instr::Wmma { flops }
                        | souffle_kernel::Instr::Fma { flops } => {
                            *instr = souffle_kernel::Instr::Fma { flops: flops * 12 };
                        }
                        _ => {}
                    }
                }
            }
        }
        compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_sched::GpuSpec;
    use souffle_te::{builders, TeProgram};
    use souffle_tensor::{DType, Shape};

    #[test]
    fn gemm_tile_and_fuses_epilogue_but_not_softmax() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 64]), DType::F16);
        let w = p.add_weight("W", Shape::new(vec![64, 64]), DType::F16);
        let x = builders::matmul(&mut p, "mm", a, w);
        let x = builders::relu(&mut p, "relu", x);
        let s = builders::softmax(&mut p, "sm", x);
        p.mark_output(s);
        let ctx = StrategyContext::new(&p, &GpuSpec::a100());
        let groups = IreeStrategy.group(&ctx);
        // [mm, relu] [max] [exp] [sum] [div] — pure element-wise dispatches
        // do not anchor fusion either.
        assert_eq!(groups[0], vec![TeId(0), TeId(1)]);
        assert_eq!(groups.len(), 5, "{groups:?}");
    }

    #[test]
    fn elementwise_only_dispatches_do_not_fuse() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![32]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        let r = builders::relu(&mut p, "r", e);
        p.mark_output(r);
        let ctx = StrategyContext::new(&p, &GpuSpec::a100());
        assert_eq!(IreeStrategy.group(&ctx).len(), 2);
    }

    #[test]
    fn low_codegen_efficiency() {
        let cfg = IreeStrategy.sim_config();
        assert!(cfg.compute_efficiency < SimConfig::a100().compute_efficiency);
    }

    #[test]
    fn direct_conv_kernels_pay_scalar_penalty() {
        let mut p = TeProgram::new();
        let x = p.add_input("x", Shape::new(vec![1, 8, 16, 16]), DType::F16);
        let w = p.add_weight("w", Shape::new(vec![8, 8, 3, 3]), DType::F16);
        let c = builders::conv2d(&mut p, "conv", x, w, 1, 1);
        p.mark_output(c);
        let ctx = StrategyContext::new(&p, &souffle_sched::GpuSpec::a100());
        let iree = IreeStrategy.compile(&ctx);
        let ansor = crate::AnsorStrategy.compile(&ctx);
        // Same conv, but IREE's scalar lowering executes ~12x the flops
        // and never touches the tensor cores.
        let iree_flops: u64 = iree.kernels.iter().map(|k| k.flops()).sum();
        let ansor_flops: u64 = ansor.kernels.iter().map(|k| k.flops()).sum();
        assert_eq!(iree_flops, ansor_flops * 12);
        assert!(!iree
            .kernels
            .iter()
            .flat_map(|k| &k.stages)
            .any(|s| s.uses_tensor_core()));
    }
}

//! Lowering TEs and subprograms to kernel IR (§6.4's schedule merging).

use crate::{Instr, Kernel, Stage};
use souffle_analysis::{Partition, TeClass};
use souffle_sched::{cost_operand_footprints, Schedule, ScheduleMap};
use souffle_te::{TeId, TeProgram, TensorId};
use std::collections::{HashMap, HashSet};

/// Code-generation options (varied by the baselines and the ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Stage compute-intensive operands through shared memory (`ldg2s`).
    pub use_shared_staging: bool,
    /// Lower cross-block reductions as two-phase (partial reduction +
    /// `atomicAdd`, §2.3). When disabled, split reductions fall back to a
    /// full write of partial results.
    pub two_phase_reduction: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            use_shared_staging: true,
            two_phase_reduction: true,
        }
    }
}

/// Per-tensor global read bytes of one TE (unique operand tensors, each
/// counted once at its touched footprint).
pub fn tensor_read_bytes(program: &TeProgram, te: TeId) -> Vec<(TensorId, u64)> {
    let te_ref = program.te(te);
    let out_shape = program.output_shape(te).clone();
    let mut bounds: Vec<i64> = out_shape.dims().to_vec();
    bounds.extend_from_slice(&te_ref.reduce);
    let mut per_tensor: Vec<(TensorId, u64)> = Vec::new();
    for (operand, elems) in cost_operand_footprints(program, te, &bounds) {
        let tid = te_ref.inputs[operand];
        let info = program.tensor(tid);
        let bytes = (elems.min(info.shape.numel()) as u64) * info.dtype.size_bytes();
        match per_tensor.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, b)) => *b = (*b).max(bytes),
            None => per_tensor.push((tid, bytes)),
        }
    }
    per_tensor
}

/// Lowers one TE into a stage.
fn lower_stage(
    program: &TeProgram,
    te: TeId,
    schedule: &Schedule,
    class: TeClass,
    options: LowerOptions,
) -> Stage {
    let te_ref = program.te(te);
    let out_shape = program.output_shape(te).clone();
    let out_info = program.tensor(te_ref.output);
    let out_bytes = out_shape.numel() as u64 * out_info.dtype.size_bytes();
    let mut instrs = Vec::new();

    let staged = options.use_shared_staging && class == TeClass::ComputeIntensive;
    for (tensor, bytes) in tensor_read_bytes(program, te) {
        if staged {
            instrs.push(Instr::LdGlobalToShared { tensor, bytes });
        } else {
            instrs.push(Instr::LdGlobal { tensor, bytes });
        }
    }

    let flops = te_ref.flops(&out_shape);
    if schedule.use_tensor_core {
        instrs.push(Instr::Wmma { flops });
    } else {
        instrs.push(Instr::Fma { flops });
    }

    if schedule.cross_block_reduction && options.two_phase_reduction {
        // Partial per-block reduction stays on-chip; only partial results
        // are combined through global atomics (§2.3).
        instrs.push(Instr::BlockSync);
        instrs.push(Instr::AtomicAdd { bytes: out_bytes });
    } else if staged {
        instrs.push(Instr::StSharedToGlobal {
            tensor: te_ref.output,
            bytes: out_bytes,
        });
    } else {
        instrs.push(Instr::StGlobal {
            tensor: te_ref.output,
            bytes: out_bytes,
        });
    }

    Stage {
        te,
        name: te_ref.name.clone(),
        grid_blocks: schedule.grid_blocks,
        threads_per_block: schedule.threads_per_block,
        shared_mem_bytes: schedule.shared_mem_bytes,
        regs_per_thread: schedule.regs_per_thread,
        instrs,
        pipelined: false,
    }
}

/// Lowers a single TE into its own kernel (the unfused configuration, and
/// what the baseline strategies use for operators they cannot merge).
pub fn lower_te_as_kernel(
    program: &TeProgram,
    te: TeId,
    schedule: &Schedule,
    class: TeClass,
    options: LowerOptions,
) -> Kernel {
    Kernel {
        name: program.te(te).name.clone(),
        stages: vec![lower_stage(program, te, schedule, class, options)],
    }
}

/// Lowers a group of TEs fused by *classic producer-consumer fusion* (the
/// bottom-up style of the baselines, §2): intermediates produced and
/// consumed entirely inside the group stay in registers/shared memory —
/// they are neither stored to nor loaded from global memory. Only tensors
/// crossing the group boundary generate traffic. The group becomes a
/// single-stage kernel anchored at its most demanding TE's schedule.
///
/// `consumers` is the program's [`TeProgram::consumer_lists`].
///
/// # Panics
///
/// Panics if `group` is empty or a schedule/class is missing.
pub fn lower_fused_group(
    program: &TeProgram,
    group: &[TeId],
    consumers: &[Vec<TeId>],
    schedules: &ScheduleMap,
    classes: &HashMap<TeId, TeClass>,
    options: LowerOptions,
) -> Kernel {
    let name = if group.len() == 1 {
        program.te(group[0]).name.clone()
    } else {
        format!("fused_{}x_{}", group.len(), program.te(group[0]).name)
    };
    Kernel {
        name,
        stages: vec![fused_stage(
            program, group, consumers, schedules, classes, options,
        )],
    }
}

/// Lowers a group of TEs into one *stage* with producer-consumer fusion
/// semantics: intra-group intermediates stay on chip; only tensors
/// crossing the group boundary touch global memory. Shared machinery of
/// [`lower_fused_group`] (baseline kernels) and [`lower_partition`]
/// (schedule-propagated stages of a grid-synchronized kernel, §6.3).
/// `consumers` is the program's [`TeProgram::consumer_lists`].
///
/// # Panics
///
/// Panics if `group` is empty or a schedule/class is missing.
pub fn fused_stage(
    program: &TeProgram,
    group: &[TeId],
    consumers: &[Vec<TeId>],
    schedules: &ScheduleMap,
    classes: &HashMap<TeId, TeClass>,
    options: LowerOptions,
) -> Stage {
    assert!(!group.is_empty(), "fusion group must be non-empty");
    let inside: HashSet<TensorId> = group.iter().map(|&te| program.te(te).output).collect();
    let anchor = group
        .iter()
        .max_by_key(|&&te| schedules[&te].grid_blocks)
        .copied()
        .expect("non-empty group");
    let anchor_sched = &schedules[&anchor];
    let any_ci = group
        .iter()
        .any(|te| classes.get(te) == Some(&TeClass::ComputeIntensive));
    let staged = options.use_shared_staging && any_ci;

    // External reads: inputs not produced inside the group, deduplicated.
    let mut instrs = Vec::new();
    let mut seen: HashSet<TensorId> = HashSet::new();
    for &te in group {
        for (tensor, bytes) in tensor_read_bytes(program, te) {
            if inside.contains(&tensor) || !seen.insert(tensor) {
                continue;
            }
            if staged {
                instrs.push(Instr::LdGlobalToShared { tensor, bytes });
            } else {
                instrs.push(Instr::LdGlobal { tensor, bytes });
            }
        }
    }
    // Compute: aggregate flops by pipeline.
    let mut wmma = 0u64;
    let mut fma = 0u64;
    for &te in group {
        let flops = program.te(te).flops(program.output_shape(te));
        if schedules[&te].use_tensor_core {
            wmma += flops;
        } else {
            fma += flops;
        }
    }
    if wmma > 0 {
        instrs.push(Instr::Wmma { flops: wmma });
    }
    if fma > 0 {
        instrs.push(Instr::Fma { flops: fma });
    }
    // External writes: group outputs consumed outside or escaping. A
    // cross-block split reduction combines its partial results with
    // atomics instead of a plain store (§2.3).
    for &te in group {
        let out = program.te(te).output;
        let escapes = program.tensor(out).kind == souffle_te::TensorKind::Output;
        let consumed_outside = consumers[out.0]
            .iter()
            .any(|&c| !inside.contains(&program.te(c).output));
        if escapes || consumed_outside {
            let info = program.tensor(out);
            let bytes = info.shape.numel() as u64 * info.dtype.size_bytes();
            if schedules[&te].cross_block_reduction && options.two_phase_reduction {
                instrs.push(Instr::BlockSync);
                instrs.push(Instr::AtomicAdd { bytes });
            } else if staged {
                instrs.push(Instr::StSharedToGlobal { tensor: out, bytes });
            } else {
                instrs.push(Instr::StGlobal { tensor: out, bytes });
            }
        }
    }

    Stage {
        te: anchor,
        name: program.te(anchor).name.clone(),
        grid_blocks: anchor_sched.grid_blocks,
        threads_per_block: anchor_sched.threads_per_block,
        shared_mem_bytes: anchor_sched.shared_mem_bytes,
        regs_per_thread: anchor_sched.regs_per_thread,
        instrs,
        pipelined: false,
    }
}

/// Lowers a whole partition: one kernel per subprogram.
///
/// Inside a subprogram, schedule propagation (§6.3) attaches each
/// memory-intensive TE to the stage of the compute-intensive producer it
/// consumes, so element-wise intermediates never round-trip through global
/// memory; a `grid.sync()` is inserted before every stage that consumes a
/// tensor produced by an *earlier stage* of the same kernel (§6.4).
pub fn lower_partition(
    program: &TeProgram,
    partition: &Partition,
    schedules: &ScheduleMap,
    classes: &HashMap<TeId, TeClass>,
    options: LowerOptions,
) -> Vec<Kernel> {
    let consumers = program.consumer_lists();
    partition
        .subprograms
        .iter()
        .map(|sp| {
            // Segment the subprogram into stage groups: a compute-intensive
            // TE opens a group; memory-intensive TEs join the open group
            // when they consume one of its outputs (schedule propagation).
            let mut groups: Vec<Vec<TeId>> = Vec::new();
            for &te in &sp.tes {
                let is_ci = classes.get(&te) == Some(&TeClass::ComputeIntensive);
                let joins = !is_ci
                    && groups.last().is_some_and(|g| {
                        let te_ref = program.te(te);
                        g.iter()
                            .any(|&m| te_ref.inputs.contains(&program.te(m).output))
                    });
                if joins {
                    groups.last_mut().expect("checked non-empty").push(te);
                } else {
                    groups.push(vec![te]);
                }
            }

            let mut produced: HashSet<TensorId> = HashSet::new();
            let mut stages = Vec::with_capacity(groups.len());
            for group in &groups {
                let mut stage =
                    fused_stage(program, group, &consumers, schedules, classes, options);
                let needs_sync = group.iter().any(|&te| {
                    program
                        .te(te)
                        .inputs
                        .iter()
                        .any(|input| produced.contains(input))
                });
                if needs_sync && !stages.is_empty() {
                    stage.instrs.insert(0, Instr::GridSync);
                }
                for &te in group {
                    produced.insert(program.te(te).output);
                }
                stages.push(stage);
            }
            Kernel {
                name: format!("subprogram_{}", sp.id),
                stages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_analysis::{classify_program, partition_program, TeGraph};
    use souffle_sched::{schedule_program, GpuSpec};
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    fn fig2_program() -> TeProgram {
        let mut p = TeProgram::new();
        let i0 = p.add_input("I0", Shape::new(vec![64, 64]), DType::F16);
        let w0 = p.add_weight("W0", Shape::new(vec![64, 64]), DType::F16);
        let o0 = builders::matmul(&mut p, "TE0", i0, w0);
        let o1 = builders::sigmoid(&mut p, "TE1", o0);
        let w2 = p.add_weight("W2", Shape::new(vec![64, 64]), DType::F16);
        let o2 = builders::matmul(&mut p, "TE2", o1, w2);
        let o3 = builders::add(&mut p, "TE3", o0, o2);
        p.mark_output(o3);
        p
    }

    #[test]
    fn single_te_kernel_reads_operands_once() {
        let p = fig2_program();
        let spec = GpuSpec::a100();
        let schedules = schedule_program(&p, &spec);
        let classes = classify_program(&p);
        let k = lower_te_as_kernel(
            &p,
            TeId(0),
            &schedules[&TeId(0)],
            classes[&TeId(0)],
            LowerOptions::default(),
        );
        // GEMM: 2 operands at 64*64*2 bytes each, out same.
        assert_eq!(k.global_read_bytes(), 2 * 64 * 64 * 2);
        assert_eq!(k.global_write_bytes(), 64 * 64 * 2);
        assert!(k.stages[0].uses_tensor_core());
    }

    #[test]
    fn merged_kernel_inserts_grid_sync() {
        let p = fig2_program();
        let spec = GpuSpec::a100();
        let graph = TeGraph::build(&p);
        let schedules = schedule_program(&p, &spec);
        let classes = classify_program(&p);
        let partition = partition_program(&p, &graph, &classes, &schedules, &spec);
        assert_eq!(partition.num_kernels(), 1);
        let kernels = lower_partition(
            &p,
            &partition,
            &schedules,
            &classes,
            LowerOptions::default(),
        );
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert!(k.uses_grid_sync(), "{k}");
        // Schedule propagation groups TE0+TE1 and TE2+TE3 into two stages
        // separated by one grid.sync — exactly Fig. 2's generated code
        // (`Fn_TE_Subprogram_0` with a single `grid.sync()`).
        assert_eq!(k.stages.len(), 2, "{k}");
        let syncs: u64 = k.stages.iter().map(Stage::grid_syncs).sum();
        assert_eq!(syncs, 1, "{k}");
    }

    #[test]
    fn memory_intensive_stage_uses_plain_loads() {
        let p = fig2_program();
        let spec = GpuSpec::a100();
        let schedules = schedule_program(&p, &spec);
        let classes = classify_program(&p);
        let k = lower_te_as_kernel(
            &p,
            TeId(1),
            &schedules[&TeId(1)],
            classes[&TeId(1)],
            LowerOptions::default(),
        );
        assert!(k.stages[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::LdGlobal { .. })));
        assert!(!k.stages[0].uses_tensor_core());
    }

    #[test]
    fn two_phase_reduction_uses_atomics() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 4096]), DType::F32);
        let r = builders::reduce_last(&mut p, "rs", souffle_te::ReduceOp::Sum, a);
        p.mark_output(r);
        let spec = GpuSpec::a100();
        let schedules = schedule_program(&p, &spec);
        let classes = classify_program(&p);
        let sch = &schedules[&TeId(0)];
        assert!(sch.cross_block_reduction);
        let k = lower_te_as_kernel(&p, TeId(0), sch, classes[&TeId(0)], LowerOptions::default());
        assert!(k.stages[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::AtomicAdd { .. })));
    }

    #[test]
    fn disabling_two_phase_reduction_stores_normally() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 4096]), DType::F32);
        let r = builders::reduce_last(&mut p, "rs", souffle_te::ReduceOp::Sum, a);
        p.mark_output(r);
        let spec = GpuSpec::a100();
        let schedules = schedule_program(&p, &spec);
        let classes = classify_program(&p);
        let opts = LowerOptions {
            two_phase_reduction: false,
            ..LowerOptions::default()
        };
        let k = lower_te_as_kernel(&p, TeId(0), &schedules[&TeId(0)], classes[&TeId(0)], opts);
        assert!(!k.stages[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::AtomicAdd { .. })));
    }

    #[test]
    fn sliced_reads_are_smaller_than_tensor() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![1024]), DType::F32);
        let _ = builders::strided_slice(&mut p, "s", a, 0, 0, 1, 128);
        let reads = tensor_read_bytes(&p, TeId(0));
        assert_eq!(reads, vec![(a, 128 * 4)]);
    }
}

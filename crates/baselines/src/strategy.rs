//! The common strategy interface and shared grouping machinery.

use souffle_analysis::{classify_program, TeClass, TeGraph};
use souffle_frontend::Model;
use souffle_gpusim::SimConfig;
use souffle_kernel::{lower_fused_group, CompiledModel, LowerOptions};
use souffle_sched::{schedule_program, GpuSpec, ScheduleMap};
use souffle_te::{TeId, TeProgram};
use std::collections::HashMap;
use std::fmt;

/// Compilation failure of a baseline (Table 3 reports such failures for
/// Rammer and Apollo on some models).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The failing strategy.
    pub strategy: &'static str,
    /// Why it failed.
    pub reason: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed to compile: {}", self.strategy, self.reason)
    }
}

impl std::error::Error for CompileError {}

/// Pre-computed analysis shared by all strategies: schedules and
/// classifications over the input program.
#[derive(Debug, Clone)]
pub struct StrategyContext {
    /// The TE program being compiled.
    pub program: TeProgram,
    /// Dependency graph.
    pub graph: TeGraph,
    /// Ansor-lite schedules.
    pub schedules: ScheduleMap,
    /// Compute/memory classes.
    pub classes: HashMap<TeId, TeClass>,
    /// Device.
    pub spec: GpuSpec,
}

impl StrategyContext {
    /// Analyzes a program once for use by any strategy.
    pub fn new(program: &TeProgram, spec: &GpuSpec) -> StrategyContext {
        StrategyContext {
            program: program.clone(),
            graph: TeGraph::build(program),
            schedules: schedule_program(program, spec),
            classes: classify_program(program),
            spec: spec.clone(),
        }
    }
}

/// A DNN compiler modelled as a kernel-grouping strategy.
pub trait Strategy {
    /// Name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Whether the original system could compile this model (Table 3's
    /// "Failed" entries are reproduced from the paper, not re-derived).
    fn supports(&self, _model: Model) -> bool {
        true
    }

    /// Groups the program's TEs into kernels according to the system's
    /// fusion rules. Every TE must appear in exactly one group; groups are
    /// in execution order.
    fn group(&self, ctx: &StrategyContext) -> Vec<Vec<TeId>>;

    /// Simulator configuration reflecting the system's code quality.
    fn sim_config(&self) -> SimConfig {
        SimConfig::a100()
    }

    /// Compiles a program into kernels via [`Strategy::group`].
    fn compile(&self, ctx: &StrategyContext) -> CompiledModel {
        let groups = self.group(ctx);
        debug_assert_eq!(
            groups.iter().map(Vec::len).sum::<usize>(),
            ctx.program.num_tes(),
            "{}: every TE must be grouped exactly once",
            self.name()
        );
        let consumers = ctx.program.consumer_lists();
        let kernels = groups
            .iter()
            .map(|g| {
                lower_fused_group(
                    &ctx.program,
                    g,
                    &consumers,
                    &ctx.schedules,
                    &ctx.classes,
                    LowerOptions {
                        two_phase_reduction: false,
                        ..LowerOptions::default()
                    },
                )
            })
            .collect();
        CompiledModel { kernels }
    }
}

/// Generic greedy grouping: walks TEs in definition (topological) order
/// and asks `join` whether the next TE may join the currently open group.
/// `join` receives the open group and the candidate.
pub fn group_by(
    ctx: &StrategyContext,
    mut join: impl FnMut(&StrategyContext, &[TeId], TeId) -> bool,
) -> Vec<Vec<TeId>> {
    let mut groups: Vec<Vec<TeId>> = Vec::new();
    let mut current: Vec<TeId> = Vec::new();
    for te in ctx.program.te_ids() {
        if current.is_empty() || join(ctx, &current, te) {
            current.push(te);
        } else {
            groups.push(std::mem::take(&mut current));
            current.push(te);
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// Whether `te` consumes any output of the open `group` — the
/// producer-consumer precondition most bottom-up fusers require.
pub fn consumes_group_output(ctx: &StrategyContext, group: &[TeId], te: TeId) -> bool {
    let te_ref = ctx.program.te(te);
    group
        .iter()
        .any(|&g| te_ref.inputs.contains(&ctx.program.te(g).output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    pub(crate) fn small_ctx() -> StrategyContext {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 64]), DType::F16);
        let w = p.add_weight("W", Shape::new(vec![64, 64]), DType::F16);
        let mm = builders::matmul(&mut p, "mm", a, w);
        let s = builders::sigmoid(&mut p, "sig", mm);
        p.mark_output(s);
        StrategyContext::new(&p, &GpuSpec::a100())
    }

    #[test]
    fn group_by_splits_on_false() {
        let ctx = small_ctx();
        let groups = group_by(&ctx, |_, _, _| false);
        assert_eq!(groups.len(), 2);
        let groups = group_by(&ctx, |_, _, _| true);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn consumes_group_output_detects_dataflow() {
        let ctx = small_ctx();
        assert!(consumes_group_output(&ctx, &[TeId(0)], TeId(1)));
        assert!(!consumes_group_output(&ctx, &[TeId(1)], TeId(0)));
    }

    #[test]
    fn compile_error_display() {
        let e = CompileError {
            strategy: "Rammer",
            reason: "unsupported operator".into(),
        };
        assert!(e.to_string().contains("Rammer"));
    }
}

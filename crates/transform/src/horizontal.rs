//! Horizontal transformation of independent TEs (§6.1, Fig. 3).

use crate::rewrite::{rebuild_program, TransformStats};
use souffle_affine::IndexExpr;
use souffle_analysis::TeGraph;
use souffle_te::{
    CmpOp, Cond, ReduceOp, Rewrite, RewriteLog, ScalarExpr, TeId, TeProgram, TensorExpr, TensorId,
    TensorInfo, TensorKind,
};
use souffle_tensor::Shape;
use std::collections::{HashMap, HashSet};

/// Maximum TEs merged into one horizontal group.
const MAX_GROUP: usize = 8;

/// Signature two TEs must share to be horizontally fusable: same reduction
/// structure, same dtype, same rank, and equal extents on every axis other
/// than the concatenation axis (axis 0).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    reduce: Vec<i64>,
    reduce_op: Option<ReduceOpKey>,
    tail_dims: Vec<i64>,
    dtype: souffle_tensor::DType,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReduceOpKey {
    Sum,
    Max,
    Min,
}

impl From<ReduceOp> for ReduceOpKey {
    fn from(op: ReduceOp) -> Self {
        match op {
            ReduceOp::Sum => ReduceOpKey::Sum,
            ReduceOp::Max => ReduceOpKey::Max,
            ReduceOp::Min => ReduceOpKey::Min,
        }
    }
}

/// Finds groups of pairwise-independent TEs eligible for horizontal
/// transformation. Only groups of two or more are returned.
///
/// Independence is established through graph levels: dataflow edges
/// strictly increase the longest-path level, so TEs at the same level can
/// never depend on each other. Bucketing by (signature, level) therefore
/// yields provably independent groups in linear time — which is what makes
/// the wavefront-style LSTM of §8.4 (thousands of sibling GEMVs)
/// tractable. Same-signature TEs at *different* levels are occasionally
/// independent too; those rarer opportunities are left on the table.
pub fn find_horizontal_groups(program: &TeProgram, graph: &TeGraph) -> Vec<Vec<TeId>> {
    let mut buckets: HashMap<(GroupKey, usize), Vec<TeId>> = HashMap::new();
    for te_id in program.te_ids() {
        let te = program.te(te_id);
        let shape = program.output_shape(te_id);
        if shape.rank() == 0 {
            continue;
        }
        // Outputs that escape the program cannot be replaced by views of a
        // concatenated buffer without changing the program interface.
        if program.tensor(te.output).kind == TensorKind::Output {
            continue;
        }
        let key = GroupKey {
            reduce: te.reduce.clone(),
            reduce_op: te.reduce_op.map(ReduceOpKey::from),
            tail_dims: shape.dims()[1..].to_vec(),
            dtype: program.tensor(te.output).dtype,
        };
        buckets
            .entry((key, graph.level(te_id)))
            .or_default()
            .push(te_id);
    }
    let mut groups = Vec::new();
    for (_, mut members) in buckets {
        members.sort();
        for chunk in members.chunks(MAX_GROUP) {
            if chunk.len() >= 2 {
                debug_assert!(chunk
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| chunk[i + 1..].iter().all(|&b| graph.independent(a, b))));
                groups.push(chunk.to_vec());
            }
        }
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Merges one group of independent TEs into a single concatenated TE plus
/// per-member view TEs re-extracting the original outputs (so downstream
/// consumers are untouched; the views are pure memory operators that the
/// vertical pass subsequently folds away). The new TEs are appended to
/// `out`; removing the members is left to the caller.
fn fuse_group(
    program: &TeProgram,
    tensors: &mut Vec<TensorInfo>,
    out: &mut Vec<TensorExpr>,
    group: &[TeId],
    log: &mut RewriteLog,
) {
    let members: Vec<&TensorExpr> = group.iter().map(|&id| program.te(id)).collect();
    let rank = program.output_shape(group[0]).rank();
    let dim0_total: i64 = group
        .iter()
        .map(|&id| program.output_shape(id).dim(0))
        .sum();
    let mut out_dims = program.output_shape(group[0]).dims().to_vec();
    out_dims[0] = dim0_total;
    let dtype = program.tensor(members[0].output).dtype;

    // Combined input list, each tensor once in first-occurrence order,
    // and every member's operand slots mapped into it.
    let mut inputs: Vec<TensorId> = Vec::new();
    let mut slot_of: HashMap<TensorId, usize> = HashMap::new();
    let slot_maps: Vec<Vec<usize>> = members
        .iter()
        .map(|m| {
            m.inputs
                .iter()
                .map(|&t| {
                    *slot_of.entry(t).or_insert_with(|| {
                        inputs.push(t);
                        inputs.len() - 1
                    })
                })
                .collect()
        })
        .collect();

    // Each member's body, with axis-0 shifted into its segment and operand
    // slots mapped into the combined list.
    let n_vars = rank + members[0].reduce.len();
    let mut cum = 0i64;
    let mut bodies = Vec::with_capacity(members.len());
    let mut cuts = Vec::with_capacity(members.len());
    for (m, slots) in members.iter().zip(&slot_maps) {
        let mut subs: Vec<IndexExpr> = (0..n_vars).map(IndexExpr::Var).collect();
        subs[0] = IndexExpr::var(0).sub(IndexExpr::constant(cum));
        bodies.push(m.body.substitute(&subs, &|o| slots[o]));
        cum += program.tensor(m.output).shape.dim(0);
        cuts.push(cum);
    }

    // Fold into nested if_then_else on the concat axis (Fig. 3).
    let mut segments = bodies.into_iter().zip(&cuts).rev();
    let (mut body, _) = segments.next().expect("group is non-empty");
    for (segment, &cut) in segments {
        body = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(cut)),
            segment,
            body,
        );
    }

    let concat_tensor = TensorId(tensors.len());
    let concat_name = format!(
        "hfuse({})",
        members
            .iter()
            .map(|m| m.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    );
    tensors.push(TensorInfo {
        name: concat_name.clone(),
        shape: Shape::new(out_dims),
        dtype,
        kind: TensorKind::Intermediate,
    });
    out.push(TensorExpr {
        name: concat_name,
        output: concat_tensor,
        inputs,
        reduce: members[0].reduce.clone(),
        reduce_op: members[0].reduce_op,
        body,
    });

    // Views of the fused output stand in for the members.
    log.push(Rewrite::HorizontalGroup {
        members: members.iter().map(|m| m.output).collect(),
        concat: concat_tensor,
        cuts,
    });
    let mut start = 0i64;
    for m in &members {
        let extent = program.tensor(m.output).shape.dim(0);
        let mut idx: Vec<IndexExpr> = (0..rank).map(IndexExpr::Var).collect();
        idx[0] = IndexExpr::var(0).add(IndexExpr::constant(start));
        out.push(TensorExpr {
            name: format!("{}.view", m.name),
            output: m.output,
            inputs: vec![concat_tensor],
            reduce: vec![],
            reduce_op: None,
            body: ScalarExpr::input(0, idx),
        });
        start += extent;
    }
}

/// Applies horizontal transformation to every eligible group in the
/// program. Returns the rewritten program and statistics.
pub fn horizontal_fuse_program(program: &TeProgram) -> (TeProgram, TransformStats) {
    let mut log = RewriteLog::new();
    horizontal_fuse_program_logged(program, &mut log)
}

/// Like [`horizontal_fuse_program`], additionally recording every fused
/// group in `log` for the translation-validation pass.
pub fn horizontal_fuse_program_logged(
    program: &TeProgram,
    log: &mut RewriteLog,
) -> (TeProgram, TransformStats) {
    let graph = TeGraph::build(program);
    let groups = find_horizontal_groups(program, &graph);
    if groups.is_empty() {
        return (
            program.clone(),
            TransformStats {
                tes_before: program.num_tes(),
                tes_after: program.num_tes(),
                ..TransformStats::default()
            },
        );
    }
    let mut tensors = program.tensors().to_vec();
    let mut fused: Vec<TensorExpr> = Vec::new();
    for group in &groups {
        fuse_group(program, &mut tensors, &mut fused, group, log);
    }
    // Drop every member in one pass: the kept TEs stay in program order,
    // followed by each group's fused TE and its views.
    let grouped: HashSet<TeId> = groups.iter().flatten().copied().collect();
    let mut tes: Vec<TensorExpr> = program
        .te_ids()
        .filter(|id| !grouped.contains(id))
        .map(|id| program.te(id).clone())
        .collect();
    tes.extend(fused);
    let out = rebuild_program(&tensors, tes);
    let stats = TransformStats {
        horizontal_groups: groups.len(),
        vertical_fused: 0,
        tes_before: program.num_tes(),
        tes_after: out.num_tes(),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::{builders, interp::eval_with_random_inputs};
    use souffle_tensor::{DType, Tensor};
    use std::collections::HashMap as Map;

    fn assert_same_semantics(before: &TeProgram, after: &TeProgram, seed: u64) {
        before.validate().expect("before validates");
        after.validate().expect("after validates");
        let o1 = eval_with_random_inputs(before, seed).expect("before evals");
        let o2 = eval_with_random_inputs(after, seed).expect("after evals");
        assert_eq!(o1.len(), o2.len());
        for (id, t1) in &o1 {
            assert!(
                t1.allclose(&o2[id], 1e-4, 1e-4),
                "output {id} diverged by {:?}",
                t1.max_abs_diff(&o2[id])
            );
        }
    }

    /// The Fig. 3 example: two GEMMs with shapes (4,8)x(8,16) and
    /// (2,8)x(8,16) sharing the reduction extent.
    fn fig3_program() -> (TeProgram, TensorId) {
        let mut p = TeProgram::new();
        let a1 = p.add_input("A1", Shape::new(vec![4, 8]), DType::F32);
        let b1 = p.add_weight("B1", Shape::new(vec![8, 16]), DType::F32);
        let a2 = p.add_input("A2", Shape::new(vec![2, 8]), DType::F32);
        let b2 = p.add_weight("B2", Shape::new(vec![8, 16]), DType::F32);
        let c1 = builders::matmul(&mut p, "C1", a1, b1);
        let c2 = builders::matmul(&mut p, "C2", a2, b2);
        // A consumer keeps both alive; concat along axis 0 like the figure.
        let c = builders::concat(&mut p, "C", c1, c2, 0);
        p.mark_output(c);
        (p, c)
    }

    #[test]
    fn fig3_two_gemms_fuse() {
        let (p, _) = fig3_program();
        let g = TeGraph::build(&p);
        let groups = find_horizontal_groups(&p, &g);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], vec![TeId(0), TeId(1)]);
        let (q, stats) = horizontal_fuse_program(&p);
        assert_eq!(stats.horizontal_groups, 1);
        // 1 fused GEMM + 2 views + 1 concat consumer.
        assert_eq!(q.num_tes(), 4);
        assert_same_semantics(&p, &q, 21);
    }

    #[test]
    fn fused_gemm_computes_concatenated_result() {
        let (p, c) = fig3_program();
        let (q, _) = horizontal_fuse_program(&p);
        // Evaluate with specific inputs and check the (6,16) result shape
        // semantics survive.
        let mut binds: Map<TensorId, Tensor> = Map::new();
        for id in q.free_tensors() {
            let info = q.tensor(id);
            binds.insert(id, Tensor::random(info.shape.clone(), id.0 as u64 + 1));
        }
        let o = souffle_te::interp::eval_program(&q, &binds).unwrap();
        assert_eq!(o[&c].shape().dims(), &[6, 16]);
    }

    #[test]
    fn dependent_tes_never_fuse() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8, 8]), DType::F32);
        let w1 = p.add_weight("W1", Shape::new(vec![8, 8]), DType::F32);
        let x = builders::matmul(&mut p, "mm1", a, w1);
        let w2 = p.add_weight("W2", Shape::new(vec![8, 8]), DType::F32);
        let y = builders::matmul(&mut p, "mm2", x, w2);
        p.mark_output(y);
        let g = TeGraph::build(&p);
        assert!(find_horizontal_groups(&p, &g).is_empty());
    }

    #[test]
    fn qkv_pattern_fuses_and_shares_input() {
        // Three GEMMs sharing X: the fused TE should list X once.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![16, 16]), DType::F32);
        let wq = p.add_weight("Wq", Shape::new(vec![16, 16]), DType::F32);
        let wk = p.add_weight("Wk", Shape::new(vec![16, 16]), DType::F32);
        let wv = p.add_weight("Wv", Shape::new(vec![16, 16]), DType::F32);
        let q_ = builders::matmul(&mut p, "q", x, wq);
        let k_ = builders::matmul(&mut p, "k", x, wk);
        let v_ = builders::matmul(&mut p, "v", x, wv);
        let qk = builders::add(&mut p, "qk", q_, k_);
        let qkv = builders::add(&mut p, "qkv", qk, v_);
        p.mark_output(qkv);
        let (t, stats) = horizontal_fuse_program(&p);
        assert_eq!(stats.horizontal_groups, 1);
        // Find the fused TE and check X appears once in its inputs.
        let fused = t
            .tes()
            .iter()
            .find(|te| te.name.starts_with("hfuse"))
            .expect("fused TE exists");
        let x_count = fused.inputs.iter().filter(|&&i| i == x).count();
        assert_eq!(x_count, 1, "shared input deduplicated");
        assert_same_semantics(&p, &t, 33);
    }

    #[test]
    fn mismatched_reduction_extents_do_not_fuse() {
        let mut p = TeProgram::new();
        let a1 = p.add_input("A1", Shape::new(vec![4, 8]), DType::F32);
        let b1 = p.add_weight("B1", Shape::new(vec![8, 16]), DType::F32);
        let a2 = p.add_input("A2", Shape::new(vec![4, 32]), DType::F32);
        let b2 = p.add_weight("B2", Shape::new(vec![32, 16]), DType::F32);
        let c1 = builders::matmul(&mut p, "C1", a1, b1);
        let c2 = builders::matmul(&mut p, "C2", a2, b2);
        let c = builders::add(&mut p, "C", c1, c2);
        p.mark_output(c);
        let g = TeGraph::build(&p);
        assert!(find_horizontal_groups(&p, &g).is_empty());
    }

    #[test]
    fn elementwise_groups_also_fuse() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![8]), DType::F32);
        let ea = builders::exp(&mut p, "ea", a);
        let eb = builders::sigmoid(&mut p, "eb", b);
        let s = builders::add(&mut p, "s", ea, eb);
        p.mark_output(s);
        let (q, stats) = horizontal_fuse_program(&p);
        assert_eq!(stats.horizontal_groups, 1);
        assert_same_semantics(&p, &q, 9);
    }

    #[test]
    fn program_without_groups_is_unchanged() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        p.mark_output(e);
        let (q, stats) = horizontal_fuse_program(&p);
        assert_eq!(stats.horizontal_groups, 0);
        assert_eq!(q.num_tes(), p.num_tes());
    }

    #[test]
    fn combined_transform_cleans_up_views() {
        // After horizontal fusion the extraction views should be folded
        // away by the vertical pass wherever possible.
        let (p, _) = fig3_program();
        let (q, stats) = crate::transform_program(&p);
        assert_eq!(stats.horizontal_groups, 1);
        assert!(stats.vertical_fused >= 2, "views folded: {stats:?}");
        assert_same_semantics(&p, &q, 55);
    }
}

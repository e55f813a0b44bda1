//! Ansor-lite schedule search.

use crate::cost::{operand_footprints, te_time_estimate};
use crate::{GpuSpec, Schedule, TileDim};
use souffle_te::{BinaryOp, ScalarExpr, TeId, TeProgram};
use std::collections::HashMap;

/// Schedules for every TE of a program, keyed by TE id.
pub type ScheduleMap = HashMap<TeId, Schedule>;

/// Generates a schedule for one TE: element-wise TEs get a flat
/// thread-per-element schedule; reduction TEs go through tile-size search
/// with the roofline cost model.
pub fn auto_schedule(program: &TeProgram, te: TeId, spec: &GpuSpec) -> Schedule {
    let te_ref = program.te(te);
    let out_shape = program.output_shape(te).clone();
    if !te_ref.is_reduction() {
        let mut s = Schedule::elementwise(te, out_shape.dims());
        s.estimated_time_s = te_time_estimate(program, te, &s, spec);
        return s;
    }
    search_reduction(program, te, spec)
}

/// Schedules every TE of a program, memoizing the search on a structural
/// TE signature: the many shape-identical TEs of layered models (every
/// BERT/LSTM layer repeats the same matmuls and element-wise ops) run the
/// tile search once and share the result.
pub fn schedule_program(program: &TeProgram, spec: &GpuSpec) -> ScheduleMap {
    schedule_program_with_stats(program, spec).0
}

/// Memoization counters of one [`schedule_program`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCacheStats {
    /// TEs whose schedule was copied from a structurally identical TE.
    pub hits: usize,
    /// TEs that ran the full search.
    pub misses: usize,
}

/// [`schedule_program`] returning the cache counters alongside the map.
pub fn schedule_program_with_stats(
    program: &TeProgram,
    spec: &GpuSpec,
) -> (ScheduleMap, ScheduleCacheStats) {
    let mut cache: HashMap<String, Schedule> = HashMap::new();
    let mut stats = ScheduleCacheStats::default();
    let map = program
        .te_ids()
        .map(|id| {
            let sig = te_signature(program, id);
            let schedule = match cache.get(&sig) {
                Some(hit) => {
                    stats.hits += 1;
                    let mut s = hit.clone();
                    s.te = id;
                    s
                }
                None => {
                    stats.misses += 1;
                    let s = auto_schedule(program, id, spec);
                    cache.insert(sig, s.clone());
                    s
                }
            };
            (id, schedule)
        })
        .collect();
    (map, stats)
}

/// Structural signature of a whole program: a stable 64-bit FNV-1a hash of
/// every TE's `te_signature` plus the tensor table (names, kinds, shapes,
/// dtypes). Two programs share a signature exactly when the scheduler and
/// compiler see the same structure — the shape-bucketed kernel cache uses
/// this as the structural half of its `ShapeClass` key.
pub fn program_signature(program: &TeProgram) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for t in program.tensors() {
        feed(t.name.as_bytes());
        feed(format!("|{:?}|{:?}|{:?};", t.kind, t.shape.dims(), t.dtype).as_bytes());
    }
    for id in program.te_ids() {
        feed(te_signature(program, id).as_bytes());
        feed(program.te(id).name.as_bytes());
        feed(b";");
    }
    h
}

/// Structural signature of a TE: everything [`auto_schedule`] and the cost
/// model read — output dims and dtype, reduction extents and op, operand
/// shapes and dtypes, and the body (rendered, which covers every access
/// pattern) — and nothing they don't (the TE *name* is excluded, since
/// repeated layers differ only by name).
fn te_signature(program: &TeProgram, te: TeId) -> String {
    use std::fmt::Write;
    let t = program.te(te);
    let mut s = String::new();
    let _ = write!(
        s,
        "out={:?}/{:?};red={:?}/{:?}",
        program.output_shape(te).dims(),
        program.tensor(t.output).dtype,
        t.reduce,
        t.reduce_op,
    );
    for &inp in &t.inputs {
        let info = program.tensor(inp);
        let _ = write!(s, ";in={:?}/{:?}", info.shape.dims(), info.dtype);
    }
    let _ = write!(s, ";body={}", t.body);
    s
}

/// Whether the TE's body is a multiply-accumulate of two distinct operands
/// — the shape the tensor cores accelerate.
fn is_mma_body(body: &ScalarExpr) -> bool {
    fn contains_mul_of_inputs(e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Binary(BinaryOp::Mul, a, b) => {
                reads_input(a) && reads_input(b)
                    || contains_mul_of_inputs(a)
                    || contains_mul_of_inputs(b)
            }
            ScalarExpr::Binary(_, a, b) => contains_mul_of_inputs(a) || contains_mul_of_inputs(b),
            ScalarExpr::Unary(_, a) => contains_mul_of_inputs(a),
            ScalarExpr::Select {
                on_true, on_false, ..
            } => contains_mul_of_inputs(on_true) || contains_mul_of_inputs(on_false),
            _ => false,
        }
    }
    fn reads_input(e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Input { .. } => true,
            ScalarExpr::Unary(_, a) => reads_input(a),
            ScalarExpr::Binary(_, a, b) => reads_input(a) || reads_input(b),
            ScalarExpr::Select {
                on_true, on_false, ..
            } => reads_input(on_true) || reads_input(on_false),
            _ => false,
        }
    }
    contains_mul_of_inputs(body)
}

/// Tile sizes worth trying for one axis: the fixed power-of-two ladder
/// below the extent, plus the extent itself as an exact fit (capped at
/// 128, the largest tile the ladder considers). Sorted and duplicate-free
/// so extents sitting between ladder rungs (e.g. 48) are explored exactly
/// once instead of producing repeated clamped candidates.
fn tile_candidates(extent: i64) -> Vec<i64> {
    let mut out: Vec<i64> = [1i64, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .filter(|&t| t < extent)
        .collect();
    out.push(extent.min(128));
    out.dedup();
    out
}

fn search_reduction(program: &TeProgram, te: TeId, spec: &GpuSpec) -> Schedule {
    let te_ref = program.te(te);
    let out_shape = program.output_shape(te).clone();
    let dims = out_shape.dims().to_vec();
    let rank = dims.len();
    let dtype = program.tensor(te_ref.output).dtype;
    let tensor_core = dtype.tensor_core_eligible()
        && is_mma_body(&te_ref.body)
        && te_ref.reduce.iter().product::<i64>() >= 16;

    // Tile at most the two largest dimensions; the rest stay at tile = 1.
    let mut order: Vec<usize> = (0..rank).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(dims[d]));
    let tiled_dims: Vec<usize> = order.into_iter().take(2).collect();

    let reduce_total: i64 = te_ref.reduce.iter().product();
    let out_elems: i64 = dims.iter().product();

    let mut best: Option<Schedule> = None;
    // Rank-0 (scalar) outputs — e.g. a full reduction — have nothing to
    // tile: search only over the reduction split.
    let cands_a: Vec<i64> = match tiled_dims.first() {
        Some(&d) => tile_candidates(dims[d]),
        None => vec![1],
    };
    let cands_b: Vec<i64> = if tiled_dims.len() > 1 {
        tile_candidates(dims[tiled_dims[1]])
    } else {
        vec![1]
    };
    // Cross-block reduction split candidates: only worth exploring when the
    // output is small relative to the device (the reduce_sum-after-GEMM and
    // global-pool patterns of §2.3).
    let split_cands: Vec<i64> = if out_elems < (spec.num_sms as i64 * 256) && reduce_total >= 64 {
        vec![1, 2, 4, 8]
    } else {
        vec![1]
    };

    for &ta in &cands_a {
        for &tb in &cands_b {
            for &split in &split_cands {
                let mut tiles: Vec<TileDim> = dims
                    .iter()
                    .map(|&e| TileDim { extent: e, tile: 1 })
                    .collect();
                if let Some(&d) = tiled_dims.first() {
                    tiles[d].tile = ta;
                }
                if tiled_dims.len() > 1 {
                    tiles[tiled_dims[1]].tile = tb;
                }
                let block_elems: i64 = tiles.iter().map(|t| t.tile).product();
                let threads = pick_threads(block_elems, tensor_core);

                // Shared-memory staging: operand footprints over one tile
                // with a k-chunk of the reduction, double buffered.
                let k_chunk: Vec<i64> = te_ref.reduce.iter().map(|&r| r.min(32)).collect();
                let mut tile_bounds: Vec<i64> = tiles.iter().map(|t| t.tile).collect();
                tile_bounds.extend(k_chunk.iter().copied());
                let smem_elems: i64 = operand_footprints(program, te, &tile_bounds)
                    .into_iter()
                    .map(|(_, e)| e)
                    .sum::<i64>()
                    + block_elems;
                let smem = 2 * smem_elems as u64 * dtype.size_bytes();
                if smem > spec.shared_mem_per_block_max {
                    continue;
                }
                let regs = (32 + (block_elems / threads as i64).min(128) * 2) as u32;
                let blocks: i64 = tiles.iter().map(TileDim::num_tiles).product::<i64>() * split;
                let mut sch = Schedule {
                    te,
                    output_tiles: tiles,
                    reduce_tiles: te_ref
                        .reduce
                        .iter()
                        .map(|&r| TileDim {
                            extent: r,
                            tile: (r + split - 1) / split,
                        })
                        .collect(),
                    grid_blocks: blocks.max(1) as u64,
                    threads_per_block: threads,
                    shared_mem_bytes: smem,
                    regs_per_thread: regs,
                    use_tensor_core: tensor_core,
                    cross_block_reduction: split > 1,
                    estimated_time_s: 0.0,
                };
                let mut t = te_time_estimate(program, te, &sch, spec);
                if split > 1 {
                    // Atomics + the final combine add a small cost, but the
                    // extra parallelism often wins for skinny outputs.
                    t = t / (split as f64).sqrt() + 0.3e-6;
                }
                sch.estimated_time_s = t;
                if best.as_ref().is_none_or(|b| t < b.estimated_time_s) {
                    best = Some(sch);
                }
            }
        }
    }
    best.unwrap_or_else(|| {
        let mut s = Schedule::elementwise(te, &dims);
        s.estimated_time_s = te_time_estimate(program, te, &s, spec);
        s
    })
}

fn pick_threads(block_elems: i64, tensor_core: bool) -> u32 {
    if tensor_core {
        128
    } else {
        block_elems.clamp(32, 256) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    fn spec() -> GpuSpec {
        GpuSpec::a100()
    }

    #[test]
    fn program_signature_tracks_structure_and_shape() {
        let build = |n: i64, name: &str| {
            let mut p = TeProgram::new();
            let a = p.add_input("A", Shape::new(vec![n, 16]), DType::F32);
            let b = p.add_weight("B", Shape::new(vec![16, 4]), DType::F32);
            let c = builders::matmul(&mut p, name, a, b);
            p.mark_output(c);
            p
        };
        // Deterministic and shape-sensitive: same build hashes equal, a
        // different leading extent or TE name hashes differently.
        assert_eq!(
            program_signature(&build(8, "mm")),
            program_signature(&build(8, "mm"))
        );
        assert_ne!(
            program_signature(&build(8, "mm")),
            program_signature(&build(9, "mm"))
        );
        assert_ne!(
            program_signature(&build(8, "mm")),
            program_signature(&build(8, "mm2"))
        );
    }

    #[test]
    fn elementwise_gets_flat_schedule() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![1000]), DType::F32);
        let _ = builders::relu(&mut p, "r", a);
        let s = auto_schedule(&p, TeId(0), &spec());
        assert_eq!(s.grid_blocks, 4);
        assert!(!s.use_tensor_core);
        assert!(s.estimated_time_s > 0.0);
    }

    #[test]
    fn f16_gemm_uses_tensor_cores() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![512, 512]), DType::F16);
        let b = p.add_weight("B", Shape::new(vec![512, 512]), DType::F16);
        let _ = builders::matmul(&mut p, "mm", a, b);
        let s = auto_schedule(&p, TeId(0), &spec());
        assert!(s.use_tensor_core);
        assert!(s.shared_mem_bytes > 0);
        assert!(s.shared_mem_bytes <= spec().shared_mem_per_block_max);
    }

    #[test]
    fn f32_gemm_does_not_use_tensor_cores() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![256, 256]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![256, 256]), DType::F32);
        let _ = builders::matmul(&mut p, "mm", a, b);
        assert!(!auto_schedule(&p, TeId(0), &spec()).use_tensor_core);
    }

    #[test]
    fn skinny_reduction_splits_across_blocks() {
        let mut p = TeProgram::new();
        // reduce a [64, 4096] tensor to [64]: tiny output, large reduction.
        let a = p.add_input("A", Shape::new(vec![64, 4096]), DType::F32);
        let _ = builders::reduce_last(&mut p, "rs", souffle_te::ReduceOp::Sum, a);
        let s = auto_schedule(&p, TeId(0), &spec());
        assert!(
            s.cross_block_reduction,
            "expected two-phase reduction, got {s}"
        );
    }

    #[test]
    fn full_reduction_to_scalar_schedules_without_panicking() {
        use souffle_affine::IndexExpr;
        use souffle_te::ScalarExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 4096]), DType::F32);
        let s = p.add_te(
            "sum_all",
            Shape::scalar(),
            DType::F32,
            vec![a],
            vec![64, 4096],
            Some(souffle_te::ReduceOp::Sum),
            ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
        );
        p.mark_output(s);
        p.validate().unwrap();
        let sch = auto_schedule(&p, TeId(0), &spec());
        assert!(sch.grid_blocks >= 1);
        assert!(sch.output_tiles.is_empty());
        assert!(sch.estimated_time_s > 0.0);
        // A huge reduction feeding one output element should go two-phase.
        assert!(sch.cross_block_reduction, "expected split reduction: {sch}");
    }

    #[test]
    fn tile_candidates_are_sorted_unique_and_exact_fit() {
        // 48 sits between ladder rungs 32 and 64: it must appear as an
        // exact-fit candidate, once.
        assert_eq!(tile_candidates(48), vec![1, 4, 8, 16, 32, 48]);
        // Exact rung: no duplicate.
        assert_eq!(tile_candidates(64), vec![1, 4, 8, 16, 32, 64]);
        // Above the ladder: capped at 128.
        assert_eq!(tile_candidates(4096), vec![1, 4, 8, 16, 32, 64, 128]);
        // Degenerate extents.
        assert_eq!(tile_candidates(1), vec![1]);
        assert_eq!(tile_candidates(3), vec![1, 3]);
        for e in 1..200 {
            let c = tile_candidates(e);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(c, sorted, "extent {e} candidates not sorted/unique");
            assert!(c.iter().all(|&t| t >= 1 && t <= e.min(128)));
        }
    }

    #[test]
    fn big_gemm_prefers_large_tiles() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![2048, 2048]), DType::F16);
        let b = p.add_weight("B", Shape::new(vec![2048, 2048]), DType::F16);
        let _ = builders::matmul(&mut p, "mm", a, b);
        let s = auto_schedule(&p, TeId(0), &spec());
        let max_tile = s.output_tiles.iter().map(|t| t.tile).max().unwrap();
        assert!(max_tile >= 64, "expected large tiles, got {s}");
    }

    #[test]
    fn schedule_program_covers_all_tes() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64, 64]), DType::F16);
        let b = p.add_weight("B", Shape::new(vec![64, 64]), DType::F16);
        let c = builders::matmul(&mut p, "mm", a, b);
        let d = builders::sigmoid(&mut p, "sg", c);
        let _ = builders::exp(&mut p, "ex", d);
        let map = schedule_program(&p, &spec());
        assert_eq!(map.len(), 3);
        for id in p.te_ids() {
            assert!(map.contains_key(&id));
        }
    }

    #[test]
    fn schedule_search_is_memoized_across_identical_layers() {
        // Four structurally identical f16 GEMMs (different names, like
        // repeated transformer layers), one differently-shaped GEMM, and
        // two identical element-wise TEs.
        let mut p = TeProgram::new();
        let mut x = p.add_input("X", Shape::new(vec![128, 128]), DType::F16);
        for layer in 0..4 {
            let w = p.add_weight(&format!("W{layer}"), Shape::new(vec![128, 128]), DType::F16);
            x = builders::matmul(&mut p, &format!("mm{layer}"), x, w);
        }
        let wodd = p.add_weight("Wodd", Shape::new(vec![128, 64]), DType::F16);
        let y = builders::matmul(&mut p, "mm_odd", x, wodd);
        let s1 = builders::sigmoid(&mut p, "sig1", y);
        let _ = builders::sigmoid(&mut p, "sig2", s1);

        let (map, stats) = schedule_program_with_stats(&p, &spec());
        assert_eq!(map.len(), 7);
        // mm1..mm3 hit mm0's entry; sig2 hits sig1's. mm_odd must miss.
        assert_eq!(stats.hits, 4, "{stats:?}");
        assert_eq!(stats.misses, 3, "{stats:?}");

        // Memoized schedules are identical to a fresh per-TE search
        // (modulo the `te` field, which is re-pointed on a hit).
        for id in p.te_ids() {
            let mut fresh = auto_schedule(&p, id, &spec());
            fresh.te = id;
            assert_eq!(map[&id], fresh, "schedule for {id} diverged");
        }
        // And schedule_program agrees with the stats-returning variant.
        assert_eq!(schedule_program(&p, &spec()), map);
    }

    #[test]
    fn schedules_respect_shared_memory_cap() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4096, 4096]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![4096, 4096]), DType::F32);
        let _ = builders::matmul(&mut p, "mm", a, b);
        let s = auto_schedule(&p, TeId(0), &spec());
        assert!(s.shared_mem_bytes <= spec().shared_mem_per_block_max);
    }
}

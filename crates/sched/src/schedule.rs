//! Schedules: the tiling/binding decisions Ansor-lite produces per TE.

use souffle_te::TeId;
use std::fmt;

/// Tiling of one iteration-space dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileDim {
    /// Extent of the dimension.
    pub extent: i64,
    /// Tile size assigned to one thread block (≤ extent).
    pub tile: i64,
}

impl TileDim {
    /// Number of tiles (blocks along this dimension).
    pub fn num_tiles(&self) -> i64 {
        (self.extent + self.tile - 1) / self.tile
    }
}

/// A schedule for one TE: the result of Ansor-lite's search, carrying
/// everything the partitioner (§5.4), schedule propagation (§6.3) and code
/// generation (§6.4) need.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The TE this schedule belongs to.
    pub te: TeId,
    /// Tiling of each output dimension (the `split` factors).
    pub output_tiles: Vec<TileDim>,
    /// Tiling of each reduction dimension (`tile_k`); the whole extent when
    /// the reduction is kept inside one block.
    pub reduce_tiles: Vec<TileDim>,
    /// Thread-block grid size (kernel launch dimension).
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory per block in bytes (operand staging buffers).
    pub shared_mem_bytes: u64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Whether the inner loop maps onto tensor-core WMMA.
    pub use_tensor_core: bool,
    /// Whether the reduction is split across blocks (two-phase reduction
    /// finishing with atomics, §2.3). Always `false` for TEs without
    /// reduction axes.
    pub cross_block_reduction: bool,
    /// Analytical time estimate used during search, in seconds.
    pub estimated_time_s: f64,
}

impl Schedule {
    /// Total number of output elements.
    pub fn output_elems(&self) -> i64 {
        self.output_tiles.iter().map(|t| t.extent).product()
    }

    /// A trivial one-thread-per-element schedule for an element-wise TE,
    /// used as the fallback when search is skipped.
    pub fn elementwise(te: TeId, extents: &[i64]) -> Schedule {
        let n: i64 = extents.iter().product();
        let threads = 256u32;
        let grid = ((n + threads as i64 - 1) / threads as i64).max(1) as u64;
        Schedule {
            te,
            output_tiles: extents
                .iter()
                .map(|&e| TileDim {
                    extent: e,
                    tile: e.min(256),
                })
                .collect(),
            reduce_tiles: vec![],
            grid_blocks: grid,
            threads_per_block: threads,
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            use_tensor_core: false,
            cross_block_reduction: false,
            estimated_time_s: 0.0,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: grid={} threads={} smem={}B regs={} tiles=[",
            self.te,
            self.grid_blocks,
            self.threads_per_block,
            self.shared_mem_bytes,
            self.regs_per_thread
        )?;
        for (i, t) in self.output_tiles.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}/{}", t.tile, t.extent)?;
        }
        write!(f, "]")?;
        if self.use_tensor_core {
            write!(f, " wmma")?;
        }
        if self.cross_block_reduction {
            write!(f, " atomic-reduce")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_dim_counts_tiles() {
        assert_eq!(
            TileDim {
                extent: 64,
                tile: 16
            }
            .num_tiles(),
            4
        );
        assert_eq!(
            TileDim {
                extent: 65,
                tile: 16
            }
            .num_tiles(),
            5
        );
        assert_eq!(
            TileDim {
                extent: 8,
                tile: 16
            }
            .num_tiles(),
            1
        );
    }

    #[test]
    fn elementwise_schedule_covers_space() {
        let s = Schedule::elementwise(TeId(0), &[64, 64]);
        assert_eq!(s.output_elems(), 4096);
        assert_eq!(s.grid_blocks, 16);
        assert!(!s.cross_block_reduction);
    }

    #[test]
    fn display_mentions_grid() {
        let s = Schedule::elementwise(TeId(3), &[10]);
        assert!(s.to_string().contains("grid="));
    }
}

#![warn(missing_docs)]
//! Ansor-lite: analytical schedule generation for tensor expressions.
//!
//! The paper uses Ansor to produce a schedule per TE and only consumes two
//! of its outputs (§5.4): the kernel **launch dimensions** and the
//! **register/shared-memory occupancy**, which feed the resource-aware
//! partitioner; plus the tile structure, which the schedule-propagation
//! step extends to memory-intensive consumers (§6.3).
//!
//! This crate substitutes Ansor with a deterministic analytical search
//! ("Ansor-lite"): it enumerates candidate tilings of a TE's iteration
//! space, estimates time with a roofline-style cost model on an A100-class
//! [`GpuSpec`], and returns the best [`Schedule`]. That exercises exactly
//! the code paths the paper's compiler needs while staying reproducible.
//!
//! # Example
//!
//! ```
//! use souffle_sched::{auto_schedule, GpuSpec};
//! use souffle_te::{builders, TeProgram, TeId};
//! use souffle_tensor::{DType, Shape};
//!
//! let mut p = TeProgram::new();
//! let a = p.add_input("A", Shape::new(vec![256, 256]), DType::F16);
//! let b = p.add_weight("B", Shape::new(vec![256, 256]), DType::F16);
//! let _c = builders::matmul(&mut p, "mm", a, b);
//! let spec = GpuSpec::a100();
//! let sch = auto_schedule(&p, TeId(0), &spec);
//! assert!(sch.grid_blocks >= 1);
//! assert!(sch.shared_mem_bytes <= spec.shared_mem_per_block_max);
//! ```

mod cost;
mod device;
mod schedule;
mod search;

pub use cost::{operand_footprints as cost_operand_footprints, te_global_bytes, te_time_estimate};
pub use device::GpuSpec;
pub use schedule::{Schedule, TileDim};
pub use search::{
    auto_schedule, program_signature, schedule_program, schedule_program_with_stats,
    ScheduleCacheStats, ScheduleMap,
};

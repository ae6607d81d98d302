//! # treegion-suite
//!
//! Umbrella crate for the reproduction of *"Treegion Scheduling for Wide
//! Issue Processors"* (Havanki, Banerjia, Conte — HPCA 1998).
//!
//! Re-exports the whole workspace under one roof so the examples and the
//! integration tests can use a single dependency:
//!
//! * [`ir`] — the compiler IR substrate (blocks, ops, profile counts).
//! * [`machine`] — PlayDoh-style VLIW machine models (1U/4U/8U).
//! * [`analysis`] — dominators, liveness, loops.
//! * [`treegion`] — the paper's contribution: region formation (treegion,
//!   SLR, superblock, tail duplication) and the treegion scheduler with
//!   its four heuristics.
//! * [`sim`] — sequential interpreter + VLIW schedule executor.
//! * [`workloads`] — synthetic SPECint95-style benchmark generators.
//! * [`eval`] — the experiment harness regenerating every table/figure,
//!   with formation/lowering caches and parallel fan-out.
//! * [`par`] — the hermetic scoped thread pool behind `--jobs N`.
//!
//! See README.md for a tour and DESIGN.md for the architecture.
//!
//! ## Quickstart
//!
//! ```
//! use treegion_suite::prelude::*;
//!
//! // Build a small branchy function, form treegions, schedule on the
//! // 4-issue machine with the paper's best heuristic.
//! let mut b = FunctionBuilder::new("demo");
//! let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
//! let (x, y, c) = (b.gpr(), b.gpr(), b.gpr());
//! b.push_all(bb0, [Op::movi(x, 1), Op::movi(y, 2), Op::cmp(Cond::Lt, c, x, y)]);
//! b.branch(bb0, c, (bb1, 70.0), (bb2, 30.0));
//! b.ret(bb1, Some(x));
//! b.ret(bb2, Some(y));
//! let f = b.finish();
//!
//! let machine = MachineModel::model_4u();
//! let pipeline = Pipeline::new(&machine);
//! let (formed, scheds) = pipeline.schedule_function(&f, &RegionConfig::Treegion, &NullObserver);
//! assert_eq!(scheds.len(), formed.regions.len());
//! let total: f64 = scheds.iter().map(|s| s.schedule.estimated_time(&s.lowered)).sum();
//! assert!(total > 0.0);
//! ```
//!
//! The [`treegion::Pipeline`] driver owns the whole formation →
//! lowering → DDG → list-scheduling → verification chain; a
//! [`treegion::PassObserver`] sees every stage (see DESIGN.md §11).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use treegion;
pub use treegion_analysis as analysis;
pub use treegion_eval as eval;
pub use treegion_ir as ir;
pub use treegion_machine as machine;
pub use treegion_par as par;
pub use treegion_sim as sim;
pub use treegion_workloads as workloads;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use treegion::{
        form_basic_blocks, form_slrs, form_superblocks, form_treegions, form_treegions_td,
        lower_region, render_schedule, FormOutcome, Heuristic, LoweredRegion, NullObserver,
        PassObserver, Pipeline, Profiler, Region, RegionConfig, RegionFormer, RegionKind,
        RegionSchedule, RegionSet, RobustOptions, Schedule, ScheduleOptions, Stage, StageScope,
        StageStats, TailDupLimits, TieBreak,
    };
    pub use treegion_analysis::{Cfg, DomTree, Liveness, Loops};
    pub use treegion_ir::{
        parse_module, print_function, print_module, verify_function, Block, BlockId, Cond, Edge,
        Function, FunctionBuilder, Module, Op, Opcode, Reg, RegClass, Terminator,
    };
    pub use treegion_machine::MachineModel;
    pub use treegion_sim::{interpret, State, VliwProgram};
    pub use treegion_workloads::{generate, shapes, spec_suite, BenchmarkSpec};
}

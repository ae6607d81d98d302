//! Differential test of the optimized list scheduler against the retained
//! seed implementation (`schedule_with_ddg_reference`, debug-only).
//!
//! The optimized scheduler (CSR DDG, indexed ready queue with packed sort
//! keys, union-find aliasing) is a pure data-layout rewrite: on every
//! input it must produce the *identical* schedule — same `cycles`, same
//! `exit_cycles`, same `eliminated` pairs, same `reg_alias` map. This
//! suite asserts that over the checked-in fuzz repro corpus
//! (`testdata/repros/*.tir`) plus 200 fresh `generate_fuzz` modules, for
//! all four paper heuristics plus the register-pressure extension × both
//! tie-break modes × dominator parallelism on and off, on both an
//! unconstrained 8-wide machine and a resource-limited one (the
//! limit-deferral path is where a queue rewrite would diverge).
#![cfg(debug_assertions)]

use treegion_suite::analysis::{Cfg, Liveness};
use treegion_suite::prelude::*;
use treegion_suite::treegion::{
    lower_region, schedule_with_ddg_reference, try_schedule_with_ddg, verify_schedule, Budgets, Ddg,
};
use treegion_suite::workloads::generate_fuzz;

/// Machines under test: the paper's three universal machines, a
/// constrained variant whose branch/memory limits force ops through the
/// deferral path, and the asymmetric preset (per-class fdiv/mem/branch
/// units) only the hazard automaton can express.
fn machines() -> Vec<MachineModel> {
    vec![
        MachineModel::model_1u(),
        MachineModel::model_4u(),
        MachineModel::model_8u(),
        MachineModel::builder("4b1m1", 4)
            .branch_limit(Some(1))
            .mem_ports(Some(1))
            .build(),
        MachineModel::model_4u_asym(),
    ]
}

/// Compares optimized vs reference over every configuration for one
/// formed function; panics with the configuration tag on divergence.
fn check_function(tag: &str, f: &Function, regions: &RegionSet, origin: Option<&[BlockId]>) {
    let cfg = Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    for (ri, region) in regions.regions().iter().enumerate() {
        let lr = lower_region(f, region, &live, origin);
        // The four paper heuristics plus the register-pressure extension:
        // at unbounded files RegPressure only changes the priority key, so
        // it must hold the same fast/reference identity as the others.
        let heuristics: Vec<Heuristic> = Heuristic::ALL
            .into_iter()
            .chain([Heuristic::RegPressure])
            .collect();
        for m in machines() {
            let ddg = Ddg::build(&lr, &m);
            for &heuristic in &heuristics {
                for tie_break in [TieBreak::SourceOrder, TieBreak::RoundRobin] {
                    for dominator_parallelism in [false, true] {
                        let opts = ScheduleOptions {
                            heuristic,
                            dominator_parallelism,
                            tie_break,
                        };
                        let ctx = format!(
                            "{tag} region {ri} {m} {heuristic} {tie_break:?} dompar={dominator_parallelism}"
                        );
                        let (fast, _) =
                            try_schedule_with_ddg(&lr, &ddg, &m, &opts, &Budgets::UNLIMITED)
                                .unwrap_or_else(|e| panic!("scheduler failed: {ctx}: {e}"));
                        verify_schedule(&lr, &ddg, &m, &fast)
                            .unwrap_or_else(|e| panic!("invalid schedule: {ctx}: {e}"));
                        let reference = schedule_with_ddg_reference(&lr, &ddg, &m, &opts);
                        assert_eq!(fast.cycles, reference.cycles, "cycles diverged: {ctx}");
                        assert_eq!(
                            fast.exit_cycles, reference.exit_cycles,
                            "exit_cycles diverged: {ctx}"
                        );
                        assert_eq!(
                            fast.eliminated, reference.eliminated,
                            "eliminated diverged: {ctx}"
                        );
                        assert_eq!(
                            fast.reg_alias, reference.reg_alias,
                            "reg_alias diverged: {ctx}"
                        );
                        assert_eq!(
                            fast.cycle_of, reference.cycle_of,
                            "cycle_of diverged: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// All the region shapes the pipeline schedules: plain treegions (no
/// duplicate origins) and tail-duplicated treegions (twins for dominator
/// parallelism to eliminate).
fn check_all_formers(tag: &str, f: &Function) {
    check_function(&format!("{tag}/treegion"), f, &form_treegions(f), None);
    let td = form_treegions_td(f, &TailDupLimits::expansion_2_0());
    check_function(
        &format!("{tag}/treegion-td"),
        &td.function,
        &td.regions,
        Some(&td.origin),
    );
}

#[test]
fn optimized_scheduler_matches_reference_on_fuzz_seeds() {
    let seeds: Vec<u64> = (0..200).map(|i| 0xD1F_0000 + i).collect();
    treegion_par::par_map(&seeds, |&seed| {
        let module = generate_fuzz(seed);
        for f in module.functions() {
            check_all_formers(&format!("seed {seed:#x}"), f);
        }
    });
}

#[test]
fn optimized_scheduler_matches_reference_on_saved_repros() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/repros");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no repros yet
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "tir") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let module = parse_module(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        for f in module.functions() {
            check_all_formers(&path.display().to_string(), f);
        }
    }
}

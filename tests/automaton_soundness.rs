//! Soundness of the precomputed resource-hazard automaton against a
//! brute-force counter simulation.
//!
//! Two properties over fuzzed schedules on every machine preset:
//!
//! 1. **Replay**: every cycle of every produced schedule replays through
//!    the automaton from the start state — no cycle exceeds the issue
//!    width or any class's unit count.
//! 2. **Exactness**: at every state reached during replay, `go` accepts a
//!    class *iff* a brute-force counter simulation (total slots + one
//!    counter per limited class) would accept it. The automaton is not
//!    merely conservative — it encodes the limits exactly.

use treegion_suite::analysis::{Cfg, Liveness};
use treegion_suite::machine::OpClass;
use treegion_suite::prelude::*;
use treegion_suite::treegion::{
    lower_region, try_schedule_with_ddg, verify_schedule, Budgets, Ddg,
};
use treegion_suite::workloads::generate_fuzz;

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

/// Would the brute-force counters admit one more op of `class`?
fn counters_accept(m: &MachineModel, used: &[usize; OpClass::COUNT], class: OpClass) -> bool {
    let total: usize = used.iter().sum();
    total < m.issue_width()
        && m.unit_limit(class)
            .is_none_or(|limit| used[class.index()] < limit)
}

/// Replays one schedule cycle-by-cycle through the automaton, checking
/// both properties at every step.
fn replay(tag: &str, lr: &treegion_suite::treegion::LoweredRegion, s: &Schedule, m: &MachineModel) {
    let auto = m.hazard_automaton();
    for (c, row) in s.cycles.iter().enumerate() {
        let mut state = auto.start();
        let mut used = [0usize; OpClass::COUNT];
        for &i in row {
            // Exactness: probe every class before consuming the real op.
            for class in OpClass::ALL {
                assert_eq!(
                    auto.go(state, class).is_some(),
                    counters_accept(m, &used, class),
                    "{tag}: cycle {c} state disagrees with counters on {class:?} at {used:?}"
                );
            }
            let class = OpClass::of(lr.lops[i].op.opcode);
            state = auto.go(state, class).unwrap_or_else(|| {
                panic!("{tag}: cycle {c} overflows {class:?} at {used:?} (op {i})")
            });
            used[class.index()] += 1;
        }
        // Exactness also at the cycle's final state.
        for class in OpClass::ALL {
            assert_eq!(
                auto.go(state, class).is_some(),
                counters_accept(m, &used, class),
                "{tag}: cycle {c} final state disagrees on {class:?} at {used:?}"
            );
        }
    }
}

#[test]
fn fuzz_schedules_replay_through_the_automaton() {
    let seeds: Vec<u64> = (0..60).map(|i| 0xA070_0000 + i).collect();
    treegion_par::par_map(&seeds, |&seed| {
        let module = generate_fuzz(seed);
        for f in module.functions() {
            let set = form_treegions(f);
            let cfg = Cfg::new(f);
            let live = Liveness::new(f, &cfg);
            for region in set.regions() {
                let lr = lower_region(f, region, &live, None);
                for m in machines() {
                    let ddg = Ddg::build(&lr, &m);
                    for heuristic in Heuristic::ALL {
                        let opts = ScheduleOptions {
                            heuristic,
                            dominator_parallelism: false,
                            tie_break: TieBreak::SourceOrder,
                        };
                        let ctx = format!("seed {seed:#x} {m} {heuristic}");
                        let (s, _) =
                            try_schedule_with_ddg(&lr, &ddg, &m, &opts, &Budgets::UNLIMITED)
                                .unwrap_or_else(|e| panic!("{ctx}: scheduler failed: {e}"));
                        verify_schedule(&lr, &ddg, &m, &s)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
                        replay(&ctx, &lr, &s, &m);
                    }
                }
            }
        }
    });
}

//! Structural invariants of region formation, lowering, and scheduling,
//! checked over seeded random programs.
//!
//! These were originally proptest properties; they are now plain seeded
//! loops (the workspace builds hermetically, without crates.io), which
//! keeps them deterministic and the failing seed printable.

use treegion_rng::StdRng;
use treegion_suite::prelude::*;

fn gen_module(seed: u64, budget: usize) -> Module {
    let mut spec = BenchmarkSpec::tiny(seed);
    spec.functions = 1;
    spec.blocks_per_function = (budget.max(4), budget.max(4) + 8);
    spec.p_wide_switch = 0.1;
    spec.p_linearized_chain = 0.05;
    generate(&spec)
}

/// Draws `n` (seed, budget) cases deterministically from `stream`.
fn cases(stream: u64, n: usize, budget_range: std::ops::Range<usize>) -> Vec<(u64, usize)> {
    let mut rng = StdRng::seed_from_u64(stream);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u64..100_000),
                rng.gen_range(budget_range.clone()),
            )
        })
        .collect()
}

#[test]
fn every_block_lands_in_exactly_one_region() {
    for (seed, budget) in cases(0x11_0001, 48, 4..40) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        for set in [form_basic_blocks(f), form_slrs(f), form_treegions(f)] {
            assert!(set.is_partition_of(f), "seed {seed} budget {budget}");
        }
    }
}

#[test]
fn treegions_are_trees_without_internal_merges() {
    for (seed, budget) in cases(0x11_0002, 48, 4..40) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let cfg = Cfg::new(f);
        let set = form_treegions(f);
        for r in set.regions() {
            assert!(r.is_tree(), "seed {seed}");
            // No member except the root is a merge point.
            for &b in &r.blocks()[1..] {
                assert!(
                    !cfg.is_merge_point(b),
                    "{b} is an internal merge (seed {seed})"
                );
            }
            // Tree property from the paper: every block dominates all
            // blocks below it in the region.
            let dom = DomTree::new(&cfg);
            for &b in r.blocks() {
                let mut cur = b;
                while let Some((p, _)) = r.parent_edge(cur) {
                    assert!(dom.dominates(p, b), "seed {seed}");
                    cur = p;
                }
            }
        }
    }
}

#[test]
fn slrs_are_linear_single_entry() {
    for (seed, budget) in cases(0x11_0003, 48, 4..40) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let cfg = Cfg::new(f);
        let set = form_slrs(f);
        for r in set.regions() {
            assert!(r.is_linear(), "seed {seed}");
            assert_eq!(r.path_count(), 1, "seed {seed}");
            for &b in &r.blocks()[1..] {
                assert!(!cfg.is_merge_point(b), "seed {seed}");
            }
        }
    }
}

#[test]
fn superblocks_are_single_entry_and_conserve_flow() {
    for (seed, budget) in cases(0x11_0004, 48, 4..40) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let res = form_superblocks(f);
        assert!(res.regions.is_partition_of(&res.function), "seed {seed}");
        treegion_suite::ir::verify_profile(&res.function)
            .unwrap_or_else(|e| panic!("flow conservation broken (seed {seed}): {e}"));
        let preds = res.function.predecessors();
        for r in res.regions.regions() {
            for &b in &r.blocks()[1..] {
                let (parent, _) = r.parent_edge(b).unwrap();
                for &p in &preds[b.index()] {
                    assert_eq!(p, parent, "side entrance into superblock (seed {seed})");
                }
            }
        }
    }
}

#[test]
fn tail_duplication_respects_limits_and_flow() {
    for (seed, budget) in cases(0x11_0005, 48, 4..40) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let original_ops = f.num_ops();
        for limits in [
            TailDupLimits::expansion_2_0(),
            TailDupLimits::expansion_3_0(),
        ] {
            let res = form_treegions_td(f, &limits);
            assert!(res.regions.is_partition_of(&res.function), "seed {seed}");
            treegion_suite::ir::verify_profile(&res.function)
                .unwrap_or_else(|e| panic!("flow conservation broken (seed {seed}): {e}"));
            for r in res.regions.regions() {
                assert!(r.is_tree(), "seed {seed}");
            }
            // Whole-program expansion is bounded by the per-region rule.
            assert!(
                res.function.num_ops() as f64
                    <= limits.code_expansion * original_ops.max(1) as f64 + 1e-9,
                "expansion {} over limit {} (seed {seed})",
                res.function.num_ops() as f64 / original_ops.max(1) as f64,
                limits.code_expansion
            );
        }
    }
}

#[test]
fn schedules_respect_all_dependences_and_resources() {
    for (seed, budget) in cases(0x11_0006, 48, 4..30) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let set = form_treegions(f);
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let machine = MachineModel::model_4u();
        for r in set.regions() {
            let lowered = lower_region(f, r, &live, None);
            let ddg = treegion::Ddg::build(&lowered, &machine);
            for heuristic in Heuristic::ALL {
                let opts = ScheduleOptions {
                    heuristic,
                    dominator_parallelism: false,
                    ..Default::default()
                };
                let (s, _) = treegion::try_schedule_with_ddg(
                    &lowered,
                    &ddg,
                    &machine,
                    &opts,
                    &treegion::Budgets::UNLIMITED,
                )
                .unwrap();
                treegion::verify_schedule(&lowered, &ddg, &machine, &s)
                    .unwrap_or_else(|e| panic!("schedule verification (seed {seed}): {e}"));
                // Every op scheduled exactly once.
                assert_eq!(s.issued_ops(), lowered.lops.len(), "seed {seed}");
                // Resource bound.
                for row in &s.cycles {
                    assert!(row.len() <= machine.issue_width(), "seed {seed}");
                }
                // Dependence latencies.
                for e in ddg.edges() {
                    let (cf, ct) = (s.cycle_of[e.from].unwrap(), s.cycle_of[e.to].unwrap());
                    assert!(
                        ct >= cf + e.latency,
                        "edge {e:?} violated: {cf} -> {ct} (seed {seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn renamed_defs_are_single_assignment() {
    for (seed, budget) in cases(0x11_0007, 48, 4..30) {
        let module = gen_module(seed, budget);
        let f = &module.functions()[0];
        let set = form_treegions(f);
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        for r in set.regions() {
            let lowered = lower_region(f, r, &live, None);
            let mut seen = std::collections::HashSet::new();
            for l in &lowered.lops {
                for d in &l.op.defs {
                    assert!(
                        seen.insert(*d),
                        "double def of {d} after renaming (seed {seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn textual_ir_roundtrips() {
    for (seed, budget) in cases(0x11_0008, 48, 4..30) {
        let module = gen_module(seed, budget);
        let text = print_module(&module);
        let reparsed =
            parse_module(&text).unwrap_or_else(|e| panic!("parse failed (seed {seed}): {e}"));
        assert_eq!(print_module(&reparsed), text, "seed {seed}");
    }
}

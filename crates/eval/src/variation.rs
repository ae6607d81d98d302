//! Profile-variation robustness — the paper's first item of future work:
//! "we would like to investigate the performance of treegion schedules
//! across different sets of inputs, to see the effects of profile
//! variations using the various heuristics".
//!
//! Method: schedule every region with the *training* profile, then
//! re-cost the fixed schedules under a perturbed *test* profile
//! ([`Schedule::estimated_time_under`]). The perturbation redraws each
//! branch's outgoing probabilities (mixing the original distribution with
//! a random one by `strength`) and re-propagates flow from the entry so
//! the test profile is conservation-consistent.

use crate::report::{f3, Table};
use treegion::{
    form_basic_blocks, form_treegions, Heuristic, NullObserver, Pipeline, RobustOptions,
    ScheduleOptions, StageScope,
};
use treegion_ir::{Function, Module, Terminator};
use treegion_machine::MachineModel;
use treegion_rng::StdRng;

/// Returns a copy of `f` with perturbed, flow-conserving profile weights.
///
/// `strength` ∈ [0, 1]: 0 keeps the original profile, 1 replaces every
/// branch's distribution with a fresh random one. The entry count is
/// preserved; weights are re-propagated to a fixpoint (all cycles have
/// continuation probability < 1, so propagation converges geometrically).
pub fn perturb_profile(f: &Function, seed: u64, strength: f64) -> Function {
    assert!((0.0..=1.0).contains(&strength), "strength must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = f.clone();
    let n = g.num_blocks();

    // New outgoing probability vector per block.
    let mut probs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for (_, block) in g.blocks() {
        let edges = block.term.edges();
        if edges.is_empty() {
            probs.push(vec![]);
            continue;
        }
        let total: f64 = edges.iter().map(|e| e.count).sum();
        let orig: Vec<f64> = if total > 0.0 {
            edges.iter().map(|e| e.count / total).collect()
        } else {
            vec![1.0 / edges.len() as f64; edges.len()]
        };
        let mut rand_p: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.01..1.0)).collect();
        let rsum: f64 = rand_p.iter().sum();
        for p in rand_p.iter_mut() {
            *p /= rsum;
        }
        let mixed: Vec<f64> = orig
            .iter()
            .zip(&rand_p)
            .map(|(o, r)| (1.0 - strength) * o + strength * r)
            .collect();
        probs.push(mixed);
    }

    // Propagate flow from the entry to a fixpoint.
    let entry = g.entry();
    let entry_weight = g.block(entry).weight.max(1.0);
    let succs: Vec<Vec<usize>> = g
        .blocks()
        .map(|(_, b)| b.successors().iter().map(|s| s.index()).collect())
        .collect();
    let mut w = vec![0.0f64; n];
    for _ in 0..1000 {
        let mut next = vec![0.0f64; n];
        next[entry.index()] = entry_weight;
        for b in 0..n {
            for (i, &s) in succs[b].iter().enumerate() {
                next[s] += w[b] * probs[b][i];
            }
        }
        let delta: f64 = next
            .iter()
            .zip(&w)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        w = next;
        if delta < 1e-9 * entry_weight {
            break;
        }
    }

    // Write back weights and edge counts.
    for b in 0..n {
        let weight = w[b];
        let p = probs[b].clone();
        let block = g.block_mut(treegion_ir::BlockId::from_index(b));
        block.weight = weight;
        let mut i = 0usize;
        match &mut block.term {
            Terminator::Jump(e) => e.count = weight * p[0],
            Terminator::Branch { then_, else_, .. } => {
                then_.count = weight * p[0];
                else_.count = weight * p[1];
            }
            Terminator::Switch { cases, default, .. } => {
                for c in cases.iter_mut() {
                    c.edge.count = weight * p[i];
                    i += 1;
                }
                default.count = weight * p[i];
            }
            Terminator::Ret { .. } => {}
        }
    }
    g
}

/// Speedup of treegion scheduling under a *varied* profile, per heuristic:
/// schedules are built with the training profile, then both the scheme and
/// the 1U basic-block baseline are re-costed under the perturbed profile.
pub fn variation_speedups(
    module: &Module,
    machine: &MachineModel,
    seed: u64,
    strength: f64,
) -> Vec<(Heuristic, f64)> {
    let m1 = MachineModel::model_1u();
    let base_pipe = Pipeline::new(&m1);
    let mut scheme_time = vec![0.0f64; Heuristic::ALL.len()];
    let mut base_time = 0.0f64;
    for f in module.functions() {
        let test = perturb_profile(f, seed ^ f.num_blocks() as u64, strength);
        // Baseline: basic blocks scheduled with the training profile on
        // 1U, costed under the test profile (driver stages 2–4; results
        // come back in region order).
        for s in base_pipe.schedule_set(f, &form_basic_blocks(f), None, &NullObserver) {
            base_time += s.schedule.estimated_time_under(&s.lowered, &test);
        }
        // Treegions under each heuristic: lower once through the driver,
        // then schedule per heuristic. The loop is heuristic-outer /
        // region-inner, but each per-heuristic sum still accumulates in
        // region order, so the floats are bit-identical to the legacy
        // region-outer wiring.
        let regions = form_treegions(f);
        let lowered = base_pipe
            .lower_set(f, &regions, None, &NullObserver)
            .lowered;
        for (k, h) in Heuristic::ALL.into_iter().enumerate() {
            let p = Pipeline::with_options(
                machine,
                RobustOptions {
                    sched: ScheduleOptions {
                        heuristic: h,
                        dominator_parallelism: false,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            for (i, lr) in lowered.iter().enumerate() {
                let scope = StageScope {
                    function: f.name(),
                    region: Some(i),
                };
                let (lr, s) = p.schedule_lowered(lr, scope, &NullObserver);
                scheme_time[k] += s.estimated_time_under(&lr, &test);
            }
        }
    }
    Heuristic::ALL
        .into_iter()
        .zip(scheme_time)
        .map(|(h, t)| (h, base_time / t))
        .collect()
}

/// The profile-variation table: treegion speedups per heuristic when the
/// evaluation profile is perturbed by `strength` relative to the training
/// profile used for scheduling.
pub fn variation_table(modules: &[Module], machine: &MachineModel, strength: f64) -> Table {
    let mut t = Table::new(
        format!(
            "Profile variation (future work): treegion speedups, {machine}, perturbation {strength}"
        ),
        vec![
            "program",
            "dep-height",
            "exit-count",
            "global-weight",
            "weighted-count",
        ],
    );
    let mut sums = vec![0.0f64; Heuristic::ALL.len()];
    for m in modules {
        let sp = variation_speedups(m, machine, 0xA11CE, strength);
        let mut cells = vec![m.name().to_string()];
        for (k, (_, s)) in sp.iter().enumerate() {
            sums[k] += s;
            cells.push(f3(*s));
        }
        t.row(cells);
    }
    let n = modules.len() as f64;
    let mut avg = vec!["average".to_string()];
    for s in &sums {
        avg.push(f3(s / n));
    }
    t.row(avg);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion_ir::verify_profile;
    use treegion_workloads::{generate, BenchmarkSpec};

    #[test]
    fn perturbed_profile_conserves_flow() {
        let m = generate(&BenchmarkSpec::tiny(31));
        for f in m.functions() {
            for strength in [0.0, 0.3, 1.0] {
                let p = perturb_profile(f, 99, strength);
                verify_profile(&p).unwrap();
                assert_eq!(p.num_blocks(), f.num_blocks());
            }
        }
    }

    #[test]
    fn zero_strength_is_nearly_identity() {
        let m = generate(&BenchmarkSpec::tiny(37));
        let f = &m.functions()[0];
        let p = perturb_profile(f, 7, 0.0);
        for (id, b) in f.blocks() {
            assert!(
                (p.block(id).weight - b.weight).abs() < 1e-6 * (1.0 + b.weight),
                "{id}: {} vs {}",
                p.block(id).weight,
                b.weight
            );
        }
    }

    #[test]
    fn recosting_under_training_profile_matches_estimated_time() {
        use treegion::form_treegions;
        let m = generate(&BenchmarkSpec::tiny(41));
        let f = &m.functions()[0];
        let machine = MachineModel::model_4u();
        let p = Pipeline::new(&machine);
        let scheds = p.schedule_set(f, &form_treegions(f), None, &NullObserver);
        for rs in &scheds {
            let s = &rs.schedule;
            let a = s.estimated_time(&rs.lowered);
            let b = s.estimated_time_under(&rs.lowered, f);
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn variation_speedups_stay_positive_and_finite() {
        let m = generate(&BenchmarkSpec::tiny(43));
        let sp = variation_speedups(&m, &MachineModel::model_4u(), 5, 0.5);
        assert_eq!(sp.len(), 4);
        for (h, s) in sp {
            assert!(s.is_finite() && s > 0.5, "{h}: {s}");
        }
    }
}

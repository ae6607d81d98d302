//! The seed list scheduler, retained verbatim as a differential oracle.
//!
//! This is the naive implementation [`crate::try_schedule_with_ddg`]
//! replaced: one flat `ready` vec re-filtered into `avail` and re-sorted
//! with a three-`f64` comparator on every issue pass, drained with an
//! O(ready × finished) `retain`, twins looked up through a
//! `HashMap<OpOrigin, Vec<usize>>`, and alias resolution walking the
//! public `reg_alias` chain per use. It is deliberately simple and
//! obviously faithful to the paper's Figure 3 loop; the optimized
//! scheduler must reproduce its output byte for byte, which the
//! `differential_sched` suite asserts over the fuzz corpus for every
//! heuristic × tie-break combination.
//!
//! One structural generalization since the seed: the two hard-coded
//! branch/mem limit checks became a brute-force per-class counter array
//! driven by [`MachineModel::class_units`] — the naive mirror of the
//! fast scheduler's hazard automaton, and the oracle for asymmetric
//! machines (per-class unit counts) the seed's counters could not
//! express. For branch/mem-only machines the counters check exactly what
//! the seed checked.
//!
//! Debug builds only — release builds compile just the fast scheduler.

use crate::ddg::Ddg;
use crate::lower::{LOpKind, LoweredRegion};
use crate::sched::{Schedule, ScheduleOptions, TieBreak};
use std::collections::HashMap;
use treegion_machine::{MachineModel, OpClass};

/// Schedules `lr` with the retained seed algorithm. Output must be
/// identical to [`crate::try_schedule_with_ddg`]'s schedule on every
/// input (the fast scheduler is a pure data-layout rewrite).
///
/// # Panics
///
/// Panics if the scheduler cannot make progress (a dependence-graph
/// cycle, which a correct DDG never contains).
pub fn schedule_with_ddg_reference(
    lr: &LoweredRegion,
    ddg: &Ddg,
    m: &MachineModel,
    opts: &ScheduleOptions,
) -> Schedule {
    let n = lr.lops.len();
    let priorities = opts.heuristic.priorities(lr, ddg, m);

    // Remaining unscheduled predecessor count and earliest start cycle.
    let mut pending_preds: Vec<usize> = (0..n).map(|i| ddg.preds(i).len()).collect();
    let mut earliest: Vec<u32> = vec![0; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending_preds[i] == 0).collect();

    let mut sched = Schedule {
        cycles: Vec::new(),
        cycle_of: vec![None; n],
        exit_cycles: vec![0; lr.exits.len()],
        eliminated: Vec::new(),
        reg_alias: HashMap::new(),
    };
    // Twin index for dominator parallelism: origin -> scheduled lops.
    let mut twins: HashMap<crate::lower::OpOrigin, Vec<usize>> = HashMap::new();

    let mut remaining = n;
    let mut cycle: u32 = 0;
    // Per-node issue counts for the round-robin tie break.
    let mut issued_per_node = vec![0usize; lr.nodes.len()];
    while remaining > 0 {
        let mut slots_used = 0usize;
        // Brute-force per-class counters: the naive mirror of the fast
        // scheduler's hazard automaton. One counter per resource class,
        // checked against the machine's unit vector on every candidate.
        let mut class_used = [0usize; OpClass::COUNT];
        let mut issued_this_cycle: Vec<usize> = Vec::new();

        // Re-scan after every pass: issuing an op can make a 0-latency
        // dependent ready *in the same cycle*.
        loop {
            let mut avail: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&i| earliest[i] <= cycle)
                .collect();
            // Ready branches issue ahead of everything else; the
            // heuristic still orders branches among themselves and all
            // other ops.
            avail.sort_by(|&a, &b| {
                let (ba, bb) = (
                    lr.lops[a].op.opcode.is_branch(),
                    lr.lops[b].op.opcode.is_branch(),
                );
                let base = bb.cmp(&ba).then(priorities[b].cmp(&priorities[a]));
                let base = match opts.tie_break {
                    TieBreak::SourceOrder => base,
                    TieBreak::RoundRobin => base.then(
                        issued_per_node[lr.lops[a].home].cmp(&issued_per_node[lr.lops[b].home]),
                    ),
                };
                base.then(a.cmp(&b)) // final tie: source order
            });
            let mut progressed = false;
            let mut finished: Vec<usize> = Vec::new();

            for &i in &avail {
                if slots_used >= m.issue_width() {
                    break;
                }
                let class = OpClass::of(lr.lops[i].op.opcode);
                if let Some(limit) = m.unit_limit(class) {
                    if class_used[class.index()] >= limit {
                        continue;
                    }
                }
                // Dominator parallelism: drop this op if a scheduled twin
                // computes the identical value.
                if opts.dominator_parallelism {
                    if let Some(t) = find_twin(lr, &sched, &twins, i) {
                        eliminate(lr, &mut sched, i, t);
                        finished.push(i);
                        remaining -= 1;
                        progressed = true;
                        let tc = sched.cycle_of[i].unwrap();
                        release_succs(ddg, i, tc, &mut pending_preds, &mut earliest, &mut ready);
                        continue;
                    }
                }
                // Issue.
                sched.cycle_of[i] = Some(cycle);
                issued_this_cycle.push(i);
                finished.push(i);
                slots_used += 1;
                progressed = true;
                class_used[class.index()] += 1;
                issued_per_node[lr.lops[i].home] += 1;
                if let LOpKind::ExitBranch(e) = lr.lops[i].kind {
                    sched.exit_cycles[e] = cycle;
                }
                if opts.dominator_parallelism {
                    twins.entry(lr.lops[i].origin).or_default().push(i);
                }
                remaining -= 1;
                release_succs(ddg, i, cycle, &mut pending_preds, &mut earliest, &mut ready);
            }

            ready.retain(|i| !finished.contains(i));
            if !progressed || slots_used >= m.issue_width() {
                break;
            }
        }

        sched.cycles.push(issued_this_cycle);
        cycle += 1;
        // Safety valve: a correct DDG can never deadlock.
        assert!(
            (cycle as usize) <= 4 * n + 64,
            "reference scheduler failed to make progress (dependence cycle?)"
        );
    }
    // Trim trailing empty cycles.
    while matches!(sched.cycles.last(), Some(c) if c.is_empty()) {
        sched.cycles.pop();
    }
    sched
}

fn release_succs(
    ddg: &Ddg,
    i: usize,
    cycle: u32,
    pending_preds: &mut [usize],
    earliest: &mut [u32],
    ready: &mut Vec<usize>,
) {
    for e in ddg.succs(i) {
        let t = e.to;
        earliest[t] = earliest[t].max(cycle + e.latency);
        pending_preds[t] -= 1;
        if pending_preds[t] == 0 {
            ready.push(t);
        }
    }
}

/// The seed's twin finder: linear scan of the origin's scheduled lops,
/// resolving every use through the public alias map's chain walk.
fn find_twin(
    lr: &LoweredRegion,
    sched: &Schedule,
    twins: &HashMap<crate::lower::OpOrigin, Vec<usize>>,
    i: usize,
) -> Option<usize> {
    let l = &lr.lops[i];
    if !l.op.opcode.is_speculable()
        || matches!(
            l.kind,
            LOpKind::ExitBranch(_) | LOpKind::InternalBranch | LOpKind::PrepareBranch
        )
        || l.guard.is_some()
    {
        return None;
    }
    let candidates = twins.get(&l.origin)?;
    'outer: for &t in candidates {
        let tl = &lr.lops[t];
        if tl.op.opcode != l.op.opcode
            || tl.op.imm != l.op.imm
            || tl.op.target != l.op.target
            || tl.guard != l.guard
            || tl.op.uses.len() != l.op.uses.len()
        {
            continue;
        }
        for (a, b) in l.op.uses.iter().zip(tl.op.uses.iter()) {
            if sched.resolve(*a) != sched.resolve(*b) {
                continue 'outer;
            }
        }
        return Some(t);
    }
    None
}

fn eliminate(lr: &LoweredRegion, sched: &mut Schedule, i: usize, t: usize) {
    for (a, b) in lr.lops[i].op.defs.iter().zip(lr.lops[t].op.defs.iter()) {
        sched.reg_alias.insert(*a, *b);
    }
    sched.cycle_of[i] = sched.cycle_of[t];
    sched.eliminated.push((i, t));
}

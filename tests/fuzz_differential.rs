//! Differential fuzz harness for the whole scheduling pipeline.
//!
//! Each case draws a random CFG from [`treegion_workloads::generate_fuzz`]
//! (the generator's *shape parameters* are themselves randomized per seed),
//! schedules it under every region former × heuristic on the wide
//! machines, executes the schedule on the VLIW executor, and asserts
//! architectural-state equivalence (return value + final memory) against
//! the sequential reference interpreter.
//!
//! On failure, a greedy delta-debugging shrinker removes ops one at a time
//! (re-parsing and re-verifying the candidate each step) while the failure
//! persists, and the minimized function is written to
//! `testdata/repros/fuzz_<seed>.tir` with the failing configuration as a
//! `//` comment header. The `saved_repros_stay_fixed` test replays every
//! checked-in repro, so once a bug is fixed it stays fixed.
//!
//! Case count defaults to 64; override with `FUZZ_CASES=256 cargo test
//! --test fuzz_differential`.

use std::path::PathBuf;
use treegion_suite::prelude::*;
use treegion_suite::sim::ExecResult;
use treegion_suite::treegion::{FaultPlan, PipelineError, RobustOptions, SchedFailure};
use treegion_suite::workloads::generate_fuzz;

const FUEL: u64 = 1_000_000;

fn cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The five region-formation schemes under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Former {
    BasicBlock,
    Slr,
    Treegion,
    Superblock,
    TreegionTd,
}

impl Former {
    const ALL: [Former; 5] = [
        Former::BasicBlock,
        Former::Slr,
        Former::Treegion,
        Former::Superblock,
        Former::TreegionTd,
    ];

    fn label(self) -> &'static str {
        match self {
            Former::BasicBlock => "bb",
            Former::Slr => "slr",
            Former::Treegion => "treegion",
            Former::Superblock => "superblock",
            Former::TreegionTd => "treegion-td",
        }
    }

    fn form(self, f: &Function) -> (Function, RegionSet, Option<Vec<BlockId>>) {
        match self {
            Former::BasicBlock => (f.clone(), form_basic_blocks(f), None),
            Former::Slr => (f.clone(), form_slrs(f), None),
            Former::Treegion => (f.clone(), form_treegions(f), None),
            Former::Superblock => {
                let r = form_superblocks(f);
                (r.function, r.regions, Some(r.origin))
            }
            Former::TreegionTd => {
                let r = form_treegions_td(f, &TailDupLimits::expansion_2_0());
                (r.function, r.regions, Some(r.origin))
            }
        }
    }
}

/// Schedules and executes one configuration; `Err` carries a description
/// of the divergence.
fn check_config(
    f: &Function,
    former: Former,
    heuristic: Heuristic,
    machine: &MachineModel,
    expected: &ExecResult,
) -> Result<(), String> {
    let tag = || format!("{}/{heuristic:?}/{machine}", former.label());
    let (func, regions, origin) = former.form(f);
    let opts = ScheduleOptions {
        heuristic,
        dominator_parallelism: false,
        ..Default::default()
    };
    let prog = VliwProgram::compile(&func, &regions, machine, &opts, origin.as_deref());
    let got = prog
        .execute(State::new(), FUEL)
        .map_err(|e| format!("[{}] vliw execution failed: {e}", tag()))?;
    if got.ret != expected.ret {
        return Err(format!(
            "[{}] return diverged: vliw {:?} vs interp {:?}",
            tag(),
            got.ret,
            expected.ret
        ));
    }
    if got.state.mem != expected.state.mem {
        return Err(format!("[{}] final memory diverged", tag()));
    }
    Ok(())
}

/// The full cross-product for one function. Scheduling panics (debug
/// verifier trips, watchdog asserts) are caught and reported as failures
/// so the shrinker can minimize them too.
fn run_case(f: &Function) -> Result<(), String> {
    treegion_par::catch_panic(|| {
        let expected =
            interpret(f, State::new(), FUEL).map_err(|e| format!("interpreter failed: {e}"))?;
        for former in Former::ALL {
            // Full heuristic sweep on the widest machine; one spot-check
            // on 4U keeps per-case cost bounded.
            for h in Heuristic::ALL {
                check_config(f, former, h, &MachineModel::model_8u(), &expected)?;
            }
            check_config(
                f,
                former,
                Heuristic::GlobalWeight,
                &MachineModel::model_4u(),
                &expected,
            )?;
            // Treegion shapes also on a finite 64-entry GPR file (the
            // pressure-aware scheduler and its spill path, under both the
            // paper's best heuristic and the pressure heuristic) and on
            // the per-class asymmetric machine.
            if matches!(former, Former::Treegion | Former::TreegionTd) {
                for m in [MachineModel::model_4u_r64(), MachineModel::model_4u_asym()] {
                    check_config(f, former, Heuristic::GlobalWeight, &m, &expected)?;
                }
                let r64 = MachineModel::model_4u_r64();
                check_config(f, former, Heuristic::RegPressure, &r64, &expected)?;
            }
        }
        Ok(())
    })
    .unwrap_or_else(|msg| Err(format!("panic: {msg}")))
}

/// Runs `body` with panic messages silenced (the shrinker probes many
/// deliberately-failing candidates; their backtraces are noise).
fn quiet<R>(body: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = body();
    std::panic::set_hook(hook);
    r
}

fn is_terminator_line(l: &str) -> bool {
    matches!(
        l.split_whitespace().next(),
        Some("jump" | "branch" | "switch" | "ret")
    )
}

/// Greedy delta-debugging over the textual IR: repeatedly try deleting one
/// op line; keep the deletion whenever the candidate still parses,
/// verifies, and satisfies `fails`. Bounded by `max_probes` oracle calls.
fn shrink_with(f: &Function, max_probes: usize, fails: impl Fn(&Function) -> bool) -> Function {
    let mut best = f.clone();
    let mut probes = 0usize;
    loop {
        let text = print_function(&best);
        let lines: Vec<&str> = text.lines().collect();
        let mut improved = false;
        for i in 0..lines.len() {
            if probes >= max_probes {
                return best;
            }
            let l = lines[i].trim();
            if l.is_empty()
                || l.starts_with("func")
                || l.starts_with("bb")
                || l == "}"
                || is_terminator_line(l)
            {
                continue;
            }
            let candidate_text: String = lines
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| format!("{s}\n"))
                .collect();
            let Ok(cand) = treegion_suite::ir::parse_function(&candidate_text) else {
                continue;
            };
            if verify_function(&cand).is_err() {
                continue;
            }
            probes += 1;
            if fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Shrinks against the real cross-product oracle.
fn shrink(f: &Function, max_probes: usize) -> Function {
    shrink_with(f, max_probes, |cand| quiet(|| run_case(cand)).is_err())
}

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/repros")
}

/// Writes the shrunk failing function as a parseable `.tir` repro with the
/// failure description in a comment header; returns the path.
fn write_repro(seed: u64, f: &Function, msg: &str) -> PathBuf {
    write_repro_in(&repro_dir(), seed, f, msg)
}

fn write_repro_in(dir: &std::path::Path, seed: u64, f: &Function, msg: &str) -> PathBuf {
    use std::fmt::Write as _;
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("fuzz_{seed:08x}.tir"));
    let mut text = String::new();
    let _ = writeln!(text, "// differential fuzz repro, seed {seed:#x}");
    for line in msg.lines() {
        let _ = writeln!(text, "// {line}");
    }
    let _ = writeln!(text, "module @fuzz_{seed:08x}");
    let _ = writeln!(text);
    text.push_str(&print_function(f));
    let _ = std::fs::write(&path, text);
    path
}

#[test]
fn differential_fuzz() {
    let n = cases();
    let seeds: Vec<u64> = (0..n).map(|i| 0xF022_0000 + i).collect();
    // Fuzz cases are independent, so they fan out over the worker budget.
    // The panic hook is silenced once around the whole fan-out (the hook
    // is process-global); failures come back in seed order, so the
    // failure report is deterministic at any job count.
    let per_seed: Vec<Vec<String>> = quiet(|| {
        treegion_par::par_map(&seeds, |&seed| {
            let module = generate_fuzz(seed);
            let mut failures = Vec::new();
            for f in module.functions() {
                if let Err(msg) = run_case(f) {
                    let shrunk = shrink(f, 200);
                    let path = write_repro(seed, &shrunk, &msg);
                    failures.push(format!(
                        "seed {seed:#x}: {msg}\n  minimized repro: {} ({} ops, {} blocks)",
                        path.display(),
                        shrunk.num_ops(),
                        shrunk.num_blocks()
                    ));
                }
            }
            failures
        })
    });
    let failures: Vec<String> = per_seed.into_iter().flatten().collect();
    assert!(
        failures.is_empty(),
        "{}/{n} fuzz cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Robust-pipeline fuzz: under a full fault campaign the degradation chain
/// must absorb every injected fault, and the re-formed (carved) partition
/// it reports must still execute equivalently to the reference
/// interpreter — the dynamic half of the recovery acceptance criterion.
#[test]
fn fault_campaign_recoveries_stay_equivalent() {
    let n = (cases() / 4).max(8);
    let seeds: Vec<u64> = (0..n).map(|i| 0xFA_0117 + i).collect();
    // Each seed owns its module and fault plan, so the campaign is
    // embarrassingly parallel; assertions fire inside the workers and
    // propagate through `par_map`'s panic plumbing.
    treegion_par::par_map(&seeds, |&seed| {
        let module = generate_fuzz(seed);
        let machine = MachineModel::model_8u();
        for f in module.functions() {
            let regions = form_treegions(f);
            let opts = RobustOptions {
                fault: Some(FaultPlan::from_seed(seed)),
                ..Default::default()
            };
            let r = Pipeline::with_options(&machine, opts)
                .run_set(f, &regions, None, &NullObserver)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: fallback chain exhausted: {e}"));
            assert!(
                r.events.iter().all(|e| e.recovered),
                "seed {seed:#x}: unrecovered event under strict verify"
            );
            // Dynamic differential check of the degraded partition.
            let set = r.region_set();
            let expected = interpret(f, State::new(), FUEL).expect("interp");
            let prog = VliwProgram::compile(f, &set, &machine, &ScheduleOptions::default(), None);
            let got = prog
                .execute(State::new(), FUEL)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: degraded partition failed: {e}"));
            assert_eq!(got.ret, expected.ret, "seed {seed:#x}");
            assert_eq!(got.state.mem, expected.state.mem, "seed {seed:#x}");
        }
    });
}

/// One robust-path draw on a finite register file: forms `f`, runs the
/// degradation chain, compiles the accepted partition (carved fallback
/// pieces included) and executes it against the interpreter. Returns
/// whether the chain spilled and whether it degraded; a divergence
/// panics, a chain that fails at every level is returned.
fn robust_draw(
    f: &Function,
    former: Former,
    machine: &MachineModel,
    tag: &str,
) -> Result<(bool, bool), PipelineError> {
    let (func, regions, origin) = former.form(f);
    let r = Pipeline::new(machine).run_set(&func, &regions, origin.as_deref(), &NullObserver)?;
    assert!(
        r.events.iter().all(|e| e.recovered),
        "{tag}: unrecovered event under strict verify"
    );
    let spilled = r
        .outcomes
        .iter()
        .flat_map(|o| o.lowered.lops.iter())
        .any(|l| l.op.opcode == Opcode::Spill);
    let expected = interpret(f, State::new(), FUEL).expect("interp");
    let set = r.region_set();
    let prog = VliwProgram::compile(
        &func,
        &set,
        machine,
        &ScheduleOptions::default(),
        origin.as_deref(),
    );
    let got = prog
        .execute(State::new(), FUEL)
        .unwrap_or_else(|e| panic!("{tag}: vliw execution failed: {e}"));
    assert_eq!(got.ret, expected.ret, "{tag}: return diverged");
    assert_eq!(got.state.mem, expected.state.mem, "{tag}: memory diverged");
    Ok((spilled, !r.is_clean()))
}

/// One robust draw: its tag and [`robust_draw`]'s outcome.
type Draw = (String, Result<(bool, bool), PipelineError>);

/// Runs [`robust_draw`] for every fuzz function × {treegion,
/// treegion-td} on `machine`, in seed order.
fn robust_draws(machine: &MachineModel) -> Vec<Draw> {
    let seeds: Vec<u64> = (0..cases()).map(|i| 0xF022_0000 + i).collect();
    let per_seed = treegion_par::par_map(&seeds, |&seed| {
        let module = generate_fuzz(seed);
        let mut out = Vec::new();
        for f in module.functions() {
            for former in [Former::Treegion, Former::TreegionTd] {
                let tag = format!("seed {seed:#x} {} {} {machine}", f.name(), former.label());
                let res = robust_draw(f, former, machine, &tag);
                out.push((tag, res));
            }
        }
        out
    });
    per_seed.into_iter().flatten().collect()
}

/// Robust-path differential on a 16-entry GPR file: every draw must
/// schedule (spilling and degrading as needed) and execute equivalently.
#[test]
fn spilled_robust_schedules_stay_equivalent() {
    let machine = MachineModel::model_4u().with_gpr_file(16);
    let draws = robust_draws(&machine);
    let (mut spilled, mut degraded) = (0, 0);
    for (tag, res) in &draws {
        let (s, d) = res
            .as_ref()
            .unwrap_or_else(|e| panic!("{tag}: fallback chain exhausted: {e}"));
        spilled += usize::from(*s);
        degraded += usize::from(*d);
    }
    eprintln!(
        "{machine}: {} draws, {spilled} spilled, {degraded} degraded, all equivalent",
        draws.len()
    );
}

/// An 8-entry GPR file: every draw either executes equivalently or fails
/// with register pressure at every fallback level — never a panic, a
/// different failure, or a miscompile. The failures are the known
/// pressure livelock of the parking scheduler; their count is printed,
/// not filtered.
#[test]
fn tiny_register_file_fails_only_on_register_pressure() {
    let machine = MachineModel::model_4u().with_gpr_file(8);
    let draws = robust_draws(&machine);
    let mut failed = 0;
    for (tag, res) in &draws {
        if let Err(e) = res {
            assert!(
                e.attempts
                    .iter()
                    .all(|(_, c)| matches!(c, SchedFailure::RegisterPressure { .. })),
                "{tag}: non-pressure failure: {e}"
            );
            failed += 1;
        }
    }
    eprintln!(
        "{machine}: {failed} of {} draws fail with register pressure at every level",
        draws.len()
    );
}

/// Exercises the shrinker and repro writer on a synthetic oracle (the real
/// fuzz loop only reaches them on a genuine scheduler bug): "fails" means
/// the function still contains a `mul`. The shrinker must strip everything
/// deletable while preserving the one op the oracle depends on, and the
/// written repro must round-trip through the parser.
#[test]
fn shrinker_minimizes_against_a_synthetic_oracle() {
    let module = generate_fuzz(0x5121_0000);
    let f = &module.functions()[0];
    let has_mul = |g: &Function| {
        g.block_ids()
            .any(|b| g.block(b).ops.iter().any(|o| o.opcode == Opcode::Mul))
    };
    assert!(has_mul(f), "pick a seed whose program contains a mul");
    let before = f.num_ops();
    let shrunk = shrink_with(f, 10_000, has_mul);
    assert!(has_mul(&shrunk), "shrinker deleted the failure trigger");
    assert!(
        shrunk.num_ops() < before / 2,
        "barely shrunk: {} -> {} ops",
        before,
        shrunk.num_ops()
    );
    verify_function(&shrunk).unwrap();
    // Repro writer output must parse back to the same function. Written
    // to a temp dir so the replay test never sees this transient file.
    let path = write_repro_in(
        &std::env::temp_dir(),
        0x5121_0000,
        &shrunk,
        "synthetic oracle: contains mul",
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let reparsed = parse_module(&text).unwrap();
    assert_eq!(
        print_function(&reparsed.functions()[0]),
        print_function(&shrunk)
    );
    let _ = std::fs::remove_file(&path);
}

/// Replays every checked-in `.tir` repro through the full cross-product:
/// a repro that fails again means a fixed bug has regressed.
#[test]
fn saved_repros_stay_fixed() {
    let dir = repro_dir();
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
            verify_function(f).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            if let Err(msg) = run_case(f) {
                panic!("{} regressed: {msg}", path.display());
            }
        }
    }
}

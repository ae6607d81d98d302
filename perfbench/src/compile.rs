//! `compile_suite`: in-process `tgc schedule` at one job over the eight
//! SPEC-like modules and the pressure stressor — parse, schedule through
//! the verifier-gated robust chain, render.

use crate::inputs::{compile_inputs, mix, static_ops, weighted_ops, CompileInput, LIVELOCK_GPRS};
use crate::metrics::{geomean, latency_summary, median, quantile, Outcome, CORE_STAGES};
use crate::trace::{self_time_table, self_times, StageObserver, Tracer};
use crate::Ctx;
use std::time::Instant;
use treegion::{
    render_schedule, Budgets, Ddg, FallbackLevel, FallbackPolicy, Heuristic, NullObserver,
    PassObserver, Pipeline, RegionConfig, RobustOptions, ScheduleOptions, TailDupLimits,
    VerifyMode,
};
use treegion_eval::fnv1a;
use treegion_ir::{parse_module, verify_function, Function, Reg, RegClass};
use treegion_machine::MachineModel;
use treegion_sim::{interpret, State, VliwProgram};

/// Region blocks a simulated run may enter before it counts as a hang.
const FUEL: u64 = 1_000_000;

/// `tgc schedule`'s defaults with the kind and verifier this workload
/// pins: `tree-td` at expansion 2.0, global weight, strict verification
/// with the SLR→BB fallback chain.
fn options() -> (RegionConfig, RobustOptions) {
    let kind = RegionConfig::TreegionTd(TailDupLimits::expansion_2_0());
    let ropts = RobustOptions {
        sched: ScheduleOptions {
            heuristic: Heuristic::GlobalWeight,
            dominator_parallelism: false,
            ..Default::default()
        },
        verify: VerifyMode::Strict,
        fallback: FallbackPolicy::Bb,
        budgets: Budgets::UNLIMITED,
        fault: None,
        panic_on_region: None,
    };
    (kind, ropts)
}

/// What one module's compile produced.
#[derive(Default)]
struct ModuleResult {
    functions: usize,
    /// Functions whose robust chain failed at every fallback level.
    failures: Vec<String>,
    est_cycles: f64,
    code_ops: f64,
    degraded: usize,
    digest: u64,
    wall_ns: u64,
    parse_ns: u64,
    render_ns: u64,
}

/// Trace hooks for one module compile: the tracer, the observer whose
/// stage spans hang under the current function, and the parent span.
struct Hooks<'a, 't> {
    tracer: &'a Tracer,
    obs: &'a StageObserver<'t>,
    parent: u64,
}

/// Parses, schedules and renders one module the way `tgc schedule`
/// does, pushing each function's compile latency (schedule + render)
/// onto `latencies`.
fn compile_module(
    input: &CompileInput,
    kind: &RegionConfig,
    ropts: &RobustOptions,
    hooks: Option<&Hooks<'_, '_>>,
    latencies: &mut Vec<f64>,
) -> Result<ModuleResult, String> {
    let started = Instant::now();
    let module_id = hooks.map(|h| h.tracer.id());
    let module = parse_module(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
    for f in module.functions() {
        verify_function(f).map_err(|e| format!("{}: {e}", input.name))?;
    }
    let parsed = Instant::now();
    if let Some(h) = hooks {
        let (a, b) = (h.tracer.ns_of(started), h.tracer.ns_of(parsed));
        h.tracer.record("parse", module_id, a, b, 0);
    }
    let pipeline = Pipeline::with_options(&input.machine, ropts.clone());
    let mut r = ModuleResult {
        parse_ns: (parsed - started).as_nanos() as u64,
        ..ModuleResult::default()
    };
    let mut text = String::new();
    let mut total = 0.0;
    for (fi, f) in module.functions().iter().enumerate() {
        let t0 = Instant::now();
        let fid = hooks.map(|h| {
            let id = h.tracer.id();
            h.obs.enter(id, fi as u64);
            id
        });
        let obs: &dyn PassObserver = match hooks {
            Some(h) => h.obs,
            None => &NullObserver,
        };
        r.functions += 1;
        let run = match pipeline.run_function(f, kind, obs) {
            Ok(run) => run,
            Err(e) => {
                // A failed compile is a failed operation, not a wrong
                // output: it is counted and the module goes on.
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                r.failures.push(format!("{}: {e}", input.name));
                text.push_str(&format!("func @{}: failed\n", f.name()));
                continue;
            }
        };
        let t_render = Instant::now();
        text.push_str(&format!("func @{}:\n", run.formed.function.name()));
        for o in &run.result.outcomes {
            let t = o.estimated_time();
            total += t;
            r.est_cycles += t;
            r.code_ops += o.lowered.num_ops() as f64;
            if o.level != FallbackLevel::Primary {
                r.degraded += 1;
            }
            text.push_str(&format!(
                "-- region @ {} ({} blocks, {} ops, level {}, est. time {t}):\n",
                o.region.root(),
                o.region.num_blocks(),
                o.lowered.num_ops(),
                o.level,
            ));
            text.push_str(&render_schedule(&o.lowered, &o.schedule, &input.machine));
            text.push('\n');
        }
        let t1 = Instant::now();
        r.render_ns += (t1 - t_render).as_nanos() as u64;
        latencies.push((t1 - t0).as_secs_f64() * 1e3);
        if let (Some(h), Some(fid)) = (hooks, fid) {
            let tr = h.tracer;
            tr.record(
                "render",
                Some(fid),
                tr.ns_of(t_render),
                tr.ns_of(t1),
                fi as u64,
            );
            tr.record_as(
                fid,
                "function",
                module_id,
                tr.ns_of(t0),
                tr.ns_of(t1),
                fi as u64,
            );
        }
    }
    text.push_str(&format!("total estimated time: {total}\n"));
    let done = Instant::now();
    r.wall_ns = (done - started).as_nanos() as u64;
    r.digest = fnv1a(text.as_bytes());
    if let (Some(h), Some(mid)) = (hooks, module_id) {
        let tr = h.tracer;
        tr.record_as(
            mid,
            "module",
            Some(h.parent),
            tr.ns_of(started),
            tr.ns_of(done),
            0,
        );
    }
    Ok(r)
}

/// Untimed output checks on one module: every accepted region passes
/// the schedule verifier, and every function's VLIW execution matches
/// the sequential interpreter from a seeded initial state. Functions
/// that failed to compile have no output to check; the timed passes
/// count them as failed.
fn check_module(
    input: &CompileInput,
    kind: &RegionConfig,
    ropts: &RobustOptions,
    seed: u64,
) -> Result<(), String> {
    let module = parse_module(&input.text).map_err(|e| e.to_string())?;
    let pipeline = Pipeline::with_options(&input.machine, ropts.clone());
    for (fi, f) in module.functions().iter().enumerate() {
        let Ok(run) = pipeline.run_function(f, kind, &NullObserver) else {
            continue;
        };
        for o in &run.result.outcomes {
            let ddg = Ddg::build(&o.lowered, &input.machine);
            treegion::verify_schedule(&o.lowered, &ddg, &input.machine, &o.schedule).map_err(
                |e| {
                    format!(
                        "{} @{} region {}: {e}",
                        input.name,
                        f.name(),
                        o.region_index
                    )
                },
            )?;
        }
        let initial = seeded_state(f, mix(seed, fi as u64));
        let reference = interpret(f, initial.clone(), FUEL)
            .map_err(|e| format!("{} @{}: interpreter: {e}", input.name, f.name()))?;
        let accepted = run.result.region_set();
        let prog = VliwProgram::compile(
            &run.formed.function,
            &accepted,
            &input.machine,
            &ropts.sched,
            Some(&run.formed.origin),
        );
        let got = prog
            .execute(initial, FUEL)
            .map_err(|e| format!("{} @{}: VLIW executor: {e}", input.name, f.name()))?;
        if got.ret != reference.ret || got.state.mem != reference.state.mem {
            return Err(format!(
                "{} @{}: VLIW result diverges from the sequential interpreter",
                input.name,
                f.name()
            ));
        }
    }
    Ok(())
}

/// The known-defect probe, untimed: compiles every `pressure` draw
/// against a [`LIVELOCK_GPRS`]-entry GPR file and returns the functions
/// whose robust chain fails at every fallback level there.
fn livelock_probe(
    inputs: &[CompileInput],
    kind: &RegionConfig,
    ropts: &RobustOptions,
) -> Result<Vec<String>, String> {
    let machine = MachineModel::model_4u().with_gpr_file(LIVELOCK_GPRS);
    let pipeline = Pipeline::with_options(&machine, ropts.clone());
    let mut failures = Vec::new();
    for input in inputs.iter().filter(|i| i.name == "pressure") {
        let module = parse_module(&input.text).map_err(|e| e.to_string())?;
        for f in module.functions() {
            if let Err(e) = pipeline.run_function(f, kind, &NullObserver) {
                failures.push(format!("{} @{}: {e}", input.name, f.name()));
            }
        }
    }
    Ok(failures)
}

/// Small random values in every GPR the function names.
fn seeded_state(f: &Function, seed: u64) -> State {
    let mut s = State::new();
    for i in 0..f.num_regs(RegClass::Gpr) {
        s.write(Reg::gpr(i), (mix(seed, u64::from(i)) % 64) as i64);
    }
    s
}

/// Input indexes grouped by spec name, in input order.
fn groups(inputs: &[CompileInput]) -> Vec<(&'static str, Vec<usize>)> {
    let mut out: Vec<(&'static str, Vec<usize>)> = Vec::new();
    for (k, i) in inputs.iter().enumerate() {
        match out.last_mut() {
            Some((name, ks)) if *name == i.name => ks.push(k),
            _ => out.push((i.name, vec![k])),
        }
    }
    out
}

/// Builds the inputs and the machines' hazard automata: the work done
/// before the first module is compiled.
fn setup(seed: u64) -> Vec<CompileInput> {
    let inputs = compile_inputs(seed);
    for i in &inputs {
        std::hint::black_box(i.machine.hazard_automaton().state_count());
    }
    inputs
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    treegion_par::set_jobs(1);
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        inputs = std::hint::black_box(setup(ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (kind, ropts) = options();
    let (src_ops, weighted): (Vec<f64>, Vec<f64>) = inputs
        .iter()
        .map(|i| {
            let m = parse_module(&i.text).expect("generated module parses");
            let fs = m.functions();
            (
                fs.iter().map(static_ops).sum::<f64>(),
                fs.iter().map(weighted_ops).sum::<f64>(),
            )
        })
        .unzip();
    let total_ops: f64 = src_ops.iter().sum();

    // Timed passes over the whole suite, untraced; the traced run
    // alternates traced and untraced passes so their ratio is the
    // tracing overhead.
    let tracer = Tracer::new(1_000_000);
    let obs = StageObserver::new(&tracer);
    let mut latencies = Vec::new();
    let mut pass_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_module_ns: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut first: Option<Vec<ModuleResult>> = None;
    let mut digests_stable = true;
    let (mut parse_ns, mut render_ns, mut traced_wall_ns) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + ctx.duration();
    let mut pass = 0usize;
    loop {
        let traced = ctx.trace && pass % 2 == 1;
        let pass_id = tracer.id();
        let hooks = Hooks {
            tracer: &tracer,
            obs: &obs,
            parent: pass_id,
        };
        let t = Instant::now();
        let mut results = Vec::with_capacity(inputs.len());
        let mut lat = Vec::new();
        for input in &inputs {
            results.push(compile_module(
                input,
                &kind,
                &ropts,
                traced.then_some(&hooks),
                &mut lat,
            )?);
        }
        let wall = t.elapsed();
        if traced {
            tracer.record_as(
                pass_id,
                "pass",
                None,
                tracer.ns_of(t),
                tracer.ns_of(t + wall),
                0,
            );
            traced_walls.push(wall.as_secs_f64());
            // Export the first traced pass; later ones only add to the
            // stage totals.
            tracer.freeze();
            traced_wall_ns += wall.as_nanos() as u64;
            parse_ns += results.iter().map(|r| r.parse_ns).sum::<u64>();
            render_ns += results.iter().map(|r| r.render_ns).sum::<u64>();
        } else {
            pass_walls.push(wall.as_secs_f64());
            latencies.extend(lat);
            for (k, r) in results.iter().enumerate() {
                per_module_ns[k].push(r.wall_ns as f64);
            }
        }
        match &first {
            None => first = Some(results),
            Some(f) => {
                digests_stable &= f.iter().zip(&results).all(|(a, b)| a.digest == b.digest);
            }
        }
        pass += 1;
        if Instant::now() >= deadline && (!ctx.trace || pass >= 2) {
            break;
        }
    }
    let first = first.expect("at least one pass ran");

    // Output checks, untimed.
    let mut errors = Vec::new();
    for input in &inputs {
        if let Err(e) = check_module(input, &kind, &ropts, ctx.seed) {
            errors.push(e);
        }
    }
    let failures: Vec<&String> = first.iter().flat_map(|r| &r.failures).collect();
    for f in &failures {
        eprintln!("perfbench: compile_suite function failed to compile: {f}");
    }
    if !digests_stable {
        errors.push("rendered schedules differ between passes".into());
    }
    for e in &errors {
        eprintln!("perfbench: compile_suite check failed: {e}");
    }
    let livelocks = livelock_probe(&inputs, &kind, &ropts)?;
    for f in &livelocks {
        eprintln!("perfbench: known defect, untimed probe at {LIVELOCK_GPRS} GPRs: {f}");
    }
    ctx.meta(
        &format!("pressure_livelocks_at_{LIVELOCK_GPRS}_gprs"),
        livelocks.len().to_string(),
    );
    let functions: usize = first.iter().map(|r| r.functions).sum();
    let passes_run = (pass_walls.len() + traced_walls.len()) as u64;
    out.correct = errors.is_empty();
    out.attempted = functions as u64 * passes_run;
    out.failed = failures.len() as u64 * passes_run;
    ctx.meta("failed_functions_per_pass", failures.len().to_string());

    // Per-module rows and their geometric mean.
    let est_total: f64 = first.iter().map(|r| r.est_cycles).sum();
    let code_total: f64 = first.iter().map(|r| r.code_ops).sum();
    let mut ops_rates = Vec::new();
    // One row per spec, summed over its variants.
    let mut ests = Vec::new();
    let mut codes = Vec::new();
    for (group, ks) in groups(&inputs) {
        let ns: f64 = ks.iter().map(|&k| median(&per_module_ns[k])).sum();
        let src: f64 = ks.iter().map(|&k| src_ops[k]).sum();
        let est: f64 = ks.iter().map(|&k| first[k].est_cycles).sum();
        let code: f64 = ks.iter().map(|&k| first[k].code_ops).sum();
        let functions: usize = ks.iter().map(|&k| first[k].functions).sum();
        let rate = src / (ns.max(1.0) / 1e9);
        ops_rates.push(rate);
        ests.push(est);
        codes.push(code);
        ctx.row(format!(
            "module {group:<9} ops_per_s {rate:>12.1}  est_cycles {est:>12.1}  code_ops {code:>7}  src_ops {src:>6}  functions {functions:>3}"
        ));
    }
    ctx.row(format!(
        "module geomean   ops_per_s {:>12.1}  est_cycles {:>12.1}  code_ops {:>7.1}",
        geomean(&ops_rates),
        geomean(&ests),
        geomean(&codes),
    ));
    ctx.meta("function_latency_ms", latency_summary(&latencies));
    ctx.meta("passes", pass_walls.len().to_string());
    ctx.meta("traced_passes", traced_walls.len().to_string());
    ctx.meta("source_ops_per_pass", total_ops.to_string());

    let pass_wall = median(&pass_walls);
    out.set("setup_s", median(&setups));
    out.set("compile_ops_per_s", total_ops / pass_wall);
    out.set("req_per_s", functions as f64 / pass_wall);
    out.set("latency_p50_ms", quantile(&latencies, 0.5));
    out.set("latency_p90_ms", quantile(&latencies, 0.9));
    out.set("est_cycles", 1e3 * est_total / weighted.iter().sum::<f64>());
    out.set("code_ops", 1e3 * code_total / total_ops);

    if ctx.trace {
        let totals = obs.totals();
        let split = obs.split();
        let passes = traced_walls.len() as f64;
        let lowered_ops = totals[1].stats.ops as f64;
        let src_total = total_ops * passes;
        let per_op = |ns: u64, ops: f64| if ops > 0.0 { ns as f64 / ops } else { 0.0 };
        out.set("ir.parse_ns_per_op", per_op(parse_ns, src_total));
        out.set(
            "core.formation_ns_per_op",
            per_op(totals[0].nanos, src_total),
        );
        for (k, name) in CORE_STAGES.iter().enumerate().skip(1) {
            out.set(
                format!("core.{name}_ns_per_op"),
                per_op(totals[k].nanos, totals[k].stats.ops as f64),
            );
        }
        out.set(
            "core.list_sched_ns_per_op.small",
            per_op(split.small_ns, split.small_ops as f64),
        );
        out.set(
            "core.list_sched_ns_per_op.large",
            per_op(split.large_ns, split.large_ops as f64),
        );
        out.set("core.render_ns_per_op", per_op(render_ns, lowered_ops));
        let named: u64 = parse_ns + render_ns + totals.iter().map(|t| t.nanos).sum::<u64>();
        let unattributed = traced_wall_ns.saturating_sub(named);
        out.set(
            "bench.unattributed_frac",
            unattributed as f64 / traced_wall_ns.max(1) as f64,
        );
        // Counts are per pass: every pass compiles the same inputs.
        let per_pass = |x: f64| x / passes;
        out.set("core.regions", per_pass(totals[0].stats.regions as f64));
        out.set("core.lowered_ops", per_pass(lowered_ops));
        out.set("core.ddg_edges", per_pass(totals[2].stats.edges as f64));
        out.set(
            "core.hazard_hits",
            per_pass(totals[3].stats.hazard_hits as f64),
        );
        out.set(
            "core.deferral_parks",
            per_pass(totals[3].stats.deferral_parks as f64),
        );
        out.set(
            "core.pressure_parks",
            per_pass(totals[3].stats.pressure_parks as f64),
        );
        out.set("core.spills", per_pass(totals[3].stats.spills as f64));
        out.set(
            "core.degraded_regions",
            first.iter().map(|r| r.degraded as f64).sum(),
        );
        out.set("core.pressure_livelocks", livelocks.len() as f64);
        out.set(
            "core.pressure_peak",
            f64::from(totals[3].stats.pressure_peak),
        );
        out.set(
            "trace.overhead_frac",
            median(&traced_walls) / pass_wall - 1.0,
        );

        // The slices of the traced passes add up to their wall time.
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut slices = format!(
            "slices over {} traced pass(es), wall {:.3} ms:\n  parse {:.3}\n",
            traced_walls.len(),
            ms(traced_wall_ns),
            ms(parse_ns)
        );
        for (k, name) in CORE_STAGES.iter().enumerate() {
            slices.push_str(&format!("  {name} {:.3}\n", ms(totals[k].nanos)));
        }
        slices.push_str(&format!(
            "  render {:.3}\n  unattributed {:.3}\n",
            ms(render_ns),
            ms(unattributed)
        ));
        ctx.note(slices);
        let spans = tracer.spans();
        let kept_wall: u64 = spans
            .iter()
            .filter(|s| s.name == "pass")
            .map(|s| s.dur_ns())
            .sum();
        ctx.note(self_time_table(&self_times(&spans), kept_wall));
        ctx.write_trace(&tracer)?;
    }
    Ok(())
}

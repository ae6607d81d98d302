//! `bench_sched` — machine-readable performance snapshot of the
//! scheduling pipeline and the evaluation harness.
//!
//! Emits `BENCH_sched.json` (hand-rolled JSON; the workspace builds
//! without crates.io) with:
//!
//! * ns/op microbenchmarks for region formation, lowering, DDG
//!   construction, and list scheduling on the compress-like benchmark
//!   module — sourced from the [`treegion::Profiler`] observer's
//!   per-stage [`treegion::PassObserver`] brackets on the
//!   [`treegion::Pipeline`] driver (the same instrumentation behind
//!   `tgc schedule --profile`), not ad-hoc kernel loops;
//! * us/request through the `tgc serve` engine's batch path, cold (every
//!   module scheduled and written to the disk cache tier) and warm
//!   (every module answered from cache) — the serve-daemon kernel;
//! * sustained-throughput kernels through a real TCP server driven by
//!   the `tgc loadgen` harness: `serve_warm_c1` (one connection, one
//!   batch per connection — the pre-pipelining baseline shape) and
//!   `serve_warm_c8` (8 keep-alive connections × pipeline depth 8),
//!   with req/s and connection concurrency recorded alongside;
//! * `cache_shard_probe`: ns per warm lookup on the 8-way lock-striped
//!   sharded disk cache, the warm path's contention kernel;
//! * `pressure_track`: ns per lowered op of list scheduling under a
//!   finite (64-entry) GPR file via the robust chain — the liveness
//!   bookkeeping, ceiling checks, and spill machinery in one number;
//! * end-to-end evaluation-harness wall time (all tables and figures) in
//!   three configurations: memoization off at `jobs=1` (the pre-cache
//!   behaviour), memoization on at `jobs=1`, and memoization on at the
//!   machine's job count.
//!
//! ```text
//! bench_sched [--quick] [--check] [--out PATH] [--regress BASELINE.json]
//!             [--states]
//! ```
//!
//! `--quick` (or `BENCH_QUICK=1`) runs a reduced suite with fewer
//! repetitions — the CI smoke mode. `--check` exits non-zero if the
//! parallel harness run is more than 1.2× slower than the serial one
//! (parallelism must never cost more than scheduling noise). `--out`
//! overrides the output path (default `BENCH_sched.json` in the current
//! directory, i.e. the repository root when run via `cargo run`).
//! `--regress BASELINE.json` exits non-zero if `ddg_build`,
//! `list_sched`, `schedule_region`, `pressure_track`, `hazard_probe`,
//! `serve_cold`, `serve_warm`, `serve_warm_c1`, `serve_warm_c8`, or
//! `cache_shard_probe` regresses more than 1.3× against the committed
//! baseline file (the per-kernel CI regression bound); each failing
//! line names the kernel and its observed/allowed ratio. `--states`
//! prints the hazard-automaton state count of every machine preset and
//! exits — the CI guard against state-space blowups.

use std::fmt::Write as _;
use std::time::Instant;
use treegion::{
    Heuristic, Pipeline, Profiler, RegionConfig, RobustOptions, ScheduleOptions, Stage,
    TailDupLimits,
};
use treegion_bench::{bench_module, regress_verdicts};
use treegion_eval::{fig13, fig6, fig8, table1, table2, table3, table4, Suite};
use treegion_ir::Module;
use treegion_machine::{MachineModel, OpClass};

struct Config {
    quick: bool,
    check: bool,
    out: String,
    regress: Option<String>,
}

/// The machine presets whose automatons `--states` reports.
fn presets() -> [MachineModel; 4] {
    [
        MachineModel::model_1u(),
        MachineModel::model_4u(),
        MachineModel::model_8u(),
        MachineModel::model_4u_asym(),
    ]
}

fn parse_config() -> Config {
    let mut cfg = Config {
        quick: std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1"),
        check: false,
        out: "BENCH_sched.json".to_string(),
        regress: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--check" => cfg.check = true,
            "--out" => cfg.out = it.next().expect("--out needs a path"),
            "--regress" => cfg.regress = Some(it.next().expect("--regress needs a path")),
            "--states" => {
                for m in presets() {
                    println!(
                        "state-count {} {}",
                        m.name(),
                        m.hazard_automaton().state_count()
                    );
                }
                std::process::exit(0);
            }
            other => {
                eprintln!("bench_sched: unknown argument `{other}`");
                eprintln!(
                    "usage: bench_sched [--quick] [--check] [--out PATH] \
                     [--regress BASELINE.json] [--states]"
                );
                std::process::exit(1);
            }
        }
    }
    cfg
}

/// One observed run of the staged pipeline over the whole module: forms,
/// lowers, and schedules every function under `config`, with a fresh
/// [`Profiler`] capturing per-stage wall time via the pipeline's
/// observer brackets.
fn profiled_run(
    module: &Module,
    config: &RegionConfig,
    machine: &MachineModel,
    opts: &ScheduleOptions,
) -> Profiler {
    let pipeline = Pipeline::with_options(
        machine,
        RobustOptions {
            sched: *opts,
            ..Default::default()
        },
    );
    let prof = Profiler::new();
    for f in module.functions() {
        std::hint::black_box(pipeline.schedule_function(f, config, &prof));
    }
    prof
}

/// Best-of-`reps` per-stage nanoseconds (each rep is a fresh profiled
/// pipeline run; minima are stage-wise). The second value is the best
/// per-rep `ddg + list-sched` composite — the `schedule_region` kernel,
/// which composes exactly those two stages.
fn best_stages(reps: usize, mut run: impl FnMut() -> Profiler) -> ([u128; 5], u128) {
    let mut best = [u128::MAX; 5];
    let mut best_sched = u128::MAX;
    for _ in 0..reps {
        let prof = run();
        let mut rep = [0u128; 5];
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            rep[i] = prof.stage_nanos(s);
            best[i] = best[i].min(rep[i]);
        }
        best_sched = best_sched.min(rep[2] + rep[3]);
    }
    (best, best_sched)
}

/// ns per lowered op of list scheduling the whole module on the 8-issue
/// machine with a 64-entry GPR file — the pressure-tracking overhead
/// kernel. The run rides the robust chain (spill recovery included), so
/// the number covers the incremental liveness bookkeeping, the ceiling
/// checks, and any spill rounds the finite file forces; against the
/// unbounded `list_sched` kernel it bounds what register tracking costs.
fn pressure_track_kernel(reps: usize, module: &Module, lowered_ops: u128) -> f64 {
    let m = MachineModel::model_8u_r64();
    let pipeline = Pipeline::with_options(
        &m,
        RobustOptions {
            sched: ScheduleOptions {
                heuristic: Heuristic::GlobalWeight,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut best = u128::MAX;
    for _ in 0..reps {
        let prof = Profiler::new();
        for f in module.functions() {
            std::hint::black_box(
                pipeline
                    .run_function(f, &RegionConfig::Treegion, &prof)
                    .expect("pressure-track kernel schedules"),
            );
        }
        best = best.min(prof.stage_nanos(Stage::ListSched));
    }
    best as f64 / lowered_ops.max(1) as f64
}

/// ns per `go` probe on the asymmetric preset: a tight chase through the
/// precomputed transition table over a fixed mixed-class pattern,
/// restarting from the empty-cycle state on every hazard. This is the
/// scheduler inner loop's resource check in isolation — the kernel the
/// automaton rewrite optimizes — and the regression gate on it catches a
/// table-layout or interning change that turns the O(1) probe back into
/// something slower.
fn hazard_probe_kernel(reps: usize, iters: usize) -> f64 {
    let m = MachineModel::model_4u_asym();
    let auto = m.hazard_automaton();
    let pattern = [
        OpClass::Alu,
        OpClass::Mem,
        OpClass::Alu,
        OpClass::Branch,
        OpClass::Mem,
        OpClass::Alu,
        OpClass::FDiv,
        OpClass::Alu,
    ];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut state = auto.start();
        let mut hazards = 0u64;
        let t0 = Instant::now();
        for i in 0..iters {
            match auto.go(state, pattern[i & 7]) {
                Some(next) => state = next,
                None => {
                    hazards += 1;
                    state = auto.start();
                }
            }
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
        std::hint::black_box((state, hazards));
        best = best.min(ns);
    }
    best
}

/// us-per-request through the serve engine's `process_batch`: best-of-
/// `reps` cold passes (fresh engine + disk cache; every module runs the
/// full pipeline and is fsynced into the cache) and warm passes over the
/// same engine (every module answered from the cache tiers). Runs
/// serially, like the other microbenches, so numbers are comparable
/// across machines.
fn serve_kernel(reps: usize, n: usize) -> (f64, f64) {
    use treegion_serve::{
        Admission, BatchOptions, Engine, EngineConfig, ModuleReply, ModuleRequest, Poison,
    };
    let dir = std::env::temp_dir().join(format!("tgc-bench-serve-{}", std::process::id()));
    let batch: Vec<ModuleRequest> = (0..n)
        .map(|i| ModuleRequest {
            text: format!(
                "module @bench{i}\n\nfunc @f {{\n  bb0 (weight 100):\n    r0 = movi #{i}\n    r1 = movi #2\n    r2 = add r0, r1\n    ret r2\n}}\n"
            ),
            poison: Poison::default(),
        })
        .collect();
    let gate = Admission::new(usize::MAX, 0);
    let opts = BatchOptions::default();
    let (mut cold, mut warm) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::open(&EngineConfig {
            cache_path: Some(dir.join(format!("cache-{rep}.tgc"))),
            quarantine_dir: None,
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        })
        .expect("bench engine opens");
        let t0 = Instant::now();
        let replies = engine.process_batch(&gate, &opts, &batch);
        cold = cold.min(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        assert!(replies
            .iter()
            .all(|r| matches!(r, ModuleReply::Ok { warm: false, .. })));
        let t0 = Instant::now();
        let replies = engine.process_batch(&gate, &opts, &batch);
        warm = warm.min(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        assert!(replies
            .iter()
            .all(|r| matches!(r, ModuleReply::Ok { warm: true, .. })));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (cold, warm)
}

/// Connection/pipeline shapes of the two loadgen kernels. Recorded in
/// the JSON next to the numbers so a baseline comparison knows what
/// concurrency produced them.
const LOAD_C1: (usize, usize) = (1, 1);
const LOAD_C8: (usize, usize) = (8, 8);

/// Sustained warm throughput through a real TCP `Server` driven by the
/// `tgc loadgen` harness: `(c1_us, c1_rps, c8_us, c8_rps)`.
///
/// `c1` opens a fresh connection per batch at depth 1 — the
/// pre-pipelining one-batch-per-connection baseline shape. `c8` keeps 8
/// connections alive with 8 batches in flight each. Both draw the same
/// seeded module pool, primed once beforehand, so every measured
/// request is a warm cache hit and the delta is pure protocol/cache
/// concurrency.
fn loadgen_kernel() -> (f64, f64, f64, f64) {
    use treegion_serve::{
        parse_response, read_frame, render_simple, run_loadgen, write_frame, EngineConfig,
        LoadgenConfig, Server, ServerConfig, Verb,
    };
    let dir = std::env::temp_dir().join(format!("tgc-bench-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: None,
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    })
    .expect("bench server binds");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    // One second per shape in quick mode too: sustained-throughput
    // numbers need the window to dominate startup jitter, or the CI
    // regression gate flaps.
    let base = LoadgenConfig {
        addr: addr.clone(),
        duration_ms: 1_000,
        seed: 0xBEEF,
        ..LoadgenConfig::default()
    };
    // Prime the cache: the pool is deterministic per seed, so one short
    // pass converts every later request into a warm hit.
    run_loadgen(&LoadgenConfig {
        connections: 1,
        pipeline_depth: 4,
        duration_ms: 200,
        reconnect: false,
        ..base.clone()
    })
    .expect("prime pass");
    let c1 = run_loadgen(&LoadgenConfig {
        connections: LOAD_C1.0,
        pipeline_depth: LOAD_C1.1,
        reconnect: true,
        ..base.clone()
    })
    .expect("c1 baseline pass");
    let c8 = run_loadgen(&LoadgenConfig {
        connections: LOAD_C8.0,
        pipeline_depth: LOAD_C8.1,
        reconnect: false,
        ..base
    })
    .expect("c8 pipelined pass");
    assert_eq!(c1.seq_mismatches + c8.seq_mismatches, 0, "FIFO broken");

    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    write_frame(&mut s, &render_simple(Verb::Shutdown)).unwrap();
    let reply = read_frame(&mut s).unwrap().expect("server hung up");
    assert_eq!(parse_response(&reply).unwrap().kind, "draining");
    handle.join().unwrap().expect("server run loop");
    let _ = std::fs::remove_dir_all(&dir);
    (
        c1.us_per_module(),
        c1.req_per_sec(),
        c8.us_per_module(),
        c8.req_per_sec(),
    )
}

/// ns per warm `get` on a pre-populated 8-way
/// [`treegion_eval::ShardedDiskCache`] — the lock-striped lookup the
/// serve warm path rides. A regression here means the striping (or the
/// per-shard in-memory index) picked up a serialization point.
fn cache_shard_probe_kernel(reps: usize, iters: usize) -> f64 {
    use treegion_eval::ShardedDiskCache;
    let dir = std::env::temp_dir().join(format!("tgc-bench-shardprobe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (cache, _) = ShardedDiskCache::open(&dir.join("probe.tgc"), 8, None).expect("probe store");
    let keys = 256u64;
    for k in 0..keys {
        cache
            .put(k, &format!("probe payload {k}"))
            .expect("probe put");
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut live = 0u64;
        let t0 = Instant::now();
        for i in 0..iters {
            let key = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys;
            if cache.get(key).is_some() {
                live += 1;
            }
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
        assert_eq!(live, iters as u64);
        best = best.min(ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    best
}

/// Renders every table/figure the `all` binary prints; returns total
/// rendered bytes (a cheap checksum that also defeats dead-code
/// elimination).
fn run_harness(suite: &Suite) -> usize {
    let (m4, m8) = (MachineModel::model_4u(), MachineModel::model_8u());
    let mut bytes = 0usize;
    for t in [table1(suite), table2(suite)] {
        bytes += t.render().len();
    }
    for m in [&m4, &m8] {
        bytes += fig6(suite, m).render().len();
    }
    for m in [&m4, &m8] {
        bytes += fig8(suite, m).render().len();
    }
    for t in [table3(suite), table4(suite)] {
        bytes += t.render().len();
    }
    for m in [&m4, &m8] {
        bytes += fig13(suite, m).render().len();
    }
    bytes
}

/// One end-to-end harness run (suite load + every table/figure), in
/// milliseconds, under the given job count and cache mode.
fn harness_ms(quick: bool, cached: bool, jobs: usize) -> f64 {
    treegion_par::set_jobs(jobs);
    let t0 = Instant::now();
    let suite = match (quick, cached) {
        (true, true) => Suite::load_small(2),
        (true, false) => Suite::load_small_uncached(2),
        (false, true) => Suite::load(),
        (false, false) => Suite::load_uncached(),
    };
    let bytes = run_harness(&suite);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(bytes > 0);
    ms
}

fn main() {
    let cfg = parse_config();
    // Microbench repetitions: best-of-3 even in quick mode — the kernels
    // cost milliseconds and the `--regress` bound compares against a
    // best-of-5 committed baseline, so a single noisy rep must not flap
    // the CI regression gate.
    let reps = if cfg.quick { 3 } else { 5 };

    // --- Microbenchmarks (ns per source/lowered op). ---
    //
    // Every per-kernel number below comes from the Profiler observer's
    // stage brackets on the Pipeline driver — one profiled run yields
    // formation, lowering, ddg, and list-sched in a single pass. The
    // microbenches run strictly serial so per-stage sums are comparable
    // to the committed serial baseline.
    treegion_par::set_jobs(1);
    let module = bench_module();
    let src_ops = module.num_ops() as u128;
    let m8 = MachineModel::model_8u();
    let opts = ScheduleOptions {
        heuristic: Heuristic::GlobalWeight,
        ..Default::default()
    };
    let tree = RegionConfig::Treegion;
    let tree_td = RegionConfig::TreegionTd(TailDupLimits::expansion_2_0());

    // Warm-up run; also the source of the lowered-op denominator (the
    // Lowering stage's summed op counter).
    let lowered_ops = profiled_run(&module, &tree, &m8, &opts).report()[Stage::Lowering as usize]
        .stats
        .ops as u128;

    let (stage_ns, sched_ns) = best_stages(reps, || profiled_run(&module, &tree, &m8, &opts));
    let formation_ns = stage_ns[0];
    let lowering_ns = stage_ns[1];
    let ddg_ns = stage_ns[2];
    let list_sched_ns = stage_ns[3];
    let (td_stage_ns, _) = best_stages(reps, || profiled_run(&module, &tree_td, &m8, &opts));
    let formation_td_ns = td_stage_ns[0];

    // --- Pressure-tracking kernel (finite register file, ns per op). ---
    let pressure_track_ns = pressure_track_kernel(reps, &module, lowered_ops);

    // --- Hazard-probe micro-kernel (ns per table probe). ---
    let probe_iters = if cfg.quick { 1_000_000 } else { 4_000_000 };
    let hazard_probe_ns = hazard_probe_kernel(reps, probe_iters);

    // --- Serve engine kernel (cold vs warm, us per request). ---
    // Same batch size in quick and full mode: per-request numbers only
    // compare against the committed full-mode baseline if the
    // batch-level fixed costs amortize identically, and the kernel
    // costs milliseconds either way.
    let serve_n = 32;
    let (serve_cold_us, serve_warm_us) = serve_kernel(reps, serve_n);

    // --- Sustained-throughput loadgen kernels over real TCP. ---
    let (c1_us, c1_rps, c8_us, c8_rps) = loadgen_kernel();
    let load_speedup = if c1_rps > 0.0 { c8_rps / c1_rps } else { 0.0 };

    // --- Sharded-cache probe kernel (ns per warm get). ---
    let probe_gets = if cfg.quick { 200_000 } else { 1_000_000 };
    let shard_probe_ns = cache_shard_probe_kernel(reps, probe_gets);

    // --- End-to-end harness wall times. ---
    let jobs_n = treegion_par::max_jobs();
    // Best-of-k wall times: k >= 2 even in quick mode so the --check
    // comparison is between best runs, not run-to-run noise.
    let e2e_reps = if cfg.quick { 2 } else { 3 };
    let best_ms = |cached: bool, jobs: usize| {
        (0..e2e_reps)
            .map(|_| harness_ms(cfg.quick, cached, jobs))
            .fold(f64::INFINITY, f64::min)
    };
    let uncached_jobs1 = best_ms(false, 1);
    let cached_jobs1 = best_ms(true, 1);
    let cached_jobsn = best_ms(true, jobs_n);
    treegion_par::set_jobs(1);

    let cache_speedup = uncached_jobs1 / cached_jobs1;
    let total_speedup = uncached_jobs1 / cached_jobsn;

    // --- Emit JSON. ---
    let per = |total_ns: u128, ops: u128| total_ns as f64 / ops.max(1) as f64;
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"treegion-bench-sched/v6\",");
    let _ = writeln!(
        j,
        "  \"mode\": \"{}\",",
        if cfg.quick { "quick" } else { "full" }
    );
    let _ = writeln!(j, "  \"jobs_available\": {jobs_n},");
    let _ = writeln!(j, "  \"ns_per_op\": {{");
    let _ = writeln!(
        j,
        "    \"formation_treegion\": {:.2},",
        per(formation_ns, src_ops)
    );
    let _ = writeln!(
        j,
        "    \"formation_treegion_td2\": {:.2},",
        per(formation_td_ns, src_ops)
    );
    let _ = writeln!(j, "    \"lowering\": {:.2},", per(lowering_ns, src_ops));
    let _ = writeln!(j, "    \"ddg_build\": {:.2},", per(ddg_ns, lowered_ops));
    let _ = writeln!(
        j,
        "    \"list_sched\": {:.2},",
        per(list_sched_ns, lowered_ops)
    );
    let _ = writeln!(
        j,
        "    \"schedule_region\": {:.2},",
        per(sched_ns, lowered_ops)
    );
    let _ = writeln!(j, "    \"pressure_track\": {pressure_track_ns:.2},");
    let _ = writeln!(j, "    \"hazard_probe\": {hazard_probe_ns:.2},");
    let _ = writeln!(j, "    \"cache_shard_probe\": {shard_probe_ns:.2}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"automaton_states\": {{");
    {
        let ps = presets();
        for (k, m) in ps.iter().enumerate() {
            let comma = if k + 1 < ps.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    \"{}\": {}{comma}",
                m.name(),
                m.hazard_automaton().state_count()
            );
        }
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"serve_us_per_req\": {{");
    let _ = writeln!(j, "    \"serve_cold\": {serve_cold_us:.2},");
    let _ = writeln!(j, "    \"serve_warm\": {serve_warm_us:.2},");
    let _ = writeln!(j, "    \"serve_warm_c1\": {c1_us:.2},");
    let _ = writeln!(j, "    \"serve_warm_c8\": {c8_us:.2}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"serve_load\": {{");
    let _ = writeln!(j, "    \"jobs_available\": {jobs_n},");
    let _ = writeln!(j, "    \"connections_c1\": {},", LOAD_C1.0);
    let _ = writeln!(j, "    \"pipeline_depth_c1\": {},", LOAD_C1.1);
    let _ = writeln!(j, "    \"req_per_sec_c1\": {c1_rps:.0},");
    let _ = writeln!(j, "    \"connections_c8\": {},", LOAD_C8.0);
    let _ = writeln!(j, "    \"pipeline_depth_c8\": {},", LOAD_C8.1);
    let _ = writeln!(j, "    \"req_per_sec_c8\": {c8_rps:.0},");
    let _ = writeln!(j, "    \"speedup_c8_over_c1\": {load_speedup:.2}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"harness_ms\": {{");
    let _ = writeln!(j, "    \"uncached_jobs1\": {uncached_jobs1:.1},");
    let _ = writeln!(j, "    \"cached_jobs1\": {cached_jobs1:.1},");
    let _ = writeln!(j, "    \"cached_jobsN\": {cached_jobsn:.1}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"speedup_cache_only_jobs1\": {cache_speedup:.2},");
    let _ = writeln!(j, "  \"speedup_total\": {total_speedup:.2}");
    let _ = writeln!(j, "}}");

    std::fs::write(&cfg.out, &j).expect("write BENCH_sched.json");
    eprintln!("bench_sched: wrote {}", cfg.out);
    eprint!("{j}");

    if cfg.check {
        let limit = 1.2 * cached_jobs1;
        if cached_jobsn > limit {
            eprintln!(
                "bench_sched: FAIL: jobs={jobs_n} harness took {cached_jobsn:.1} ms, \
                 more than 1.2x the jobs=1 time ({cached_jobs1:.1} ms)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_sched: check ok: jobs={jobs_n} {cached_jobsn:.1} ms <= 1.2 x {cached_jobs1:.1} ms"
        );
    }

    if let Some(baseline_path) = &cfg.regress {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("bench_sched: cannot read baseline {baseline_path}: {e}"));
        let verdicts = regress_verdicts(
            &baseline,
            1.3,
            &[
                ("ddg_build", per(ddg_ns, lowered_ops)),
                ("list_sched", per(list_sched_ns, lowered_ops)),
                ("schedule_region", per(sched_ns, lowered_ops)),
                ("pressure_track", pressure_track_ns),
                ("hazard_probe", hazard_probe_ns),
                ("serve_cold", serve_cold_us),
                ("serve_warm", serve_warm_us),
                ("serve_warm_c1", c1_us),
                ("serve_warm_c8", c8_us),
                ("cache_shard_probe", shard_probe_ns),
            ],
        );
        for v in &verdicts {
            eprintln!("{}", v.render());
        }
        if verdicts.iter().any(|v| v.failed()) {
            std::process::exit(1);
        }
    }
}

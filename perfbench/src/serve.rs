//! `serve_oneshot_cold`: an in-process `tgc serve` driven over TCP by
//! one client thread per CPU, each sending one batch of new modules per
//! fresh connection, as `tgc client` does.
//!
//! Each run has an open-loop phase at a fixed offered rate, where
//! latency is timed from each request's due time so a stall also
//! charges the requests queued behind it, and then a closed-loop phase
//! (saturated throughput: the next connection opens when the last reply
//! arrives).

use crate::inputs::{static_ops, tiny_modules, weighted_ops};
use crate::metrics::{latency_summary, median, quantile, stage_metric, Outcome, CORE_STAGES};
use crate::trace::Tracer;
use crate::{host, Ctx};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use treegion_serve::{
    parse_response, read_frame, render_compile_seq, render_simple, write_frame, Admission,
    BatchOptions, Engine, EngineConfig, ModuleReply, ModuleRequest, ResponseFrame, ResultStatus,
    Server, ServerConfig, Verb,
};

/// Modules per request.
const BATCH: usize = 2;
/// Offered open-loop rate, requests per second over all connections.
const OFFERED_RATE: f64 = 80.0;
/// The p99 latency a user of this path would accept, in ms (recorded
/// in the run metadata with whether the open loop met it).
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Closed-loop request rate the fresh module stream is sized for; above
/// it the closed loop stops early and its rate is taken over the
/// shorter time.
const FRESH_CLOSED_RATE: f64 = 250.0;
/// Share of the run spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.4;

/// A client connection: blocking, with ten-second socket timeouts.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let limit = Some(Duration::from_secs(10));
    stream.set_read_timeout(limit).map_err(|e| e.to_string())?;
    stream.set_write_timeout(limit).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// The next reply frame.
fn reply(stream: &mut TcpStream) -> Result<ResponseFrame, String> {
    let frame = read_frame(stream)?.ok_or("server closed the connection")?;
    parse_response(&frame)
}

/// A running in-process server and its work directory.
struct Running {
    addr: String,
    thread: std::thread::JoinHandle<Result<(), String>>,
    dir: PathBuf,
}

fn start(dir: PathBuf) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let config = ServerConfig {
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: Some(dir.join("quarantine")),
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?.to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread, dir })
}

fn stop(r: Running) -> Result<(), String> {
    let mut c = connect(&r.addr)?;
    write_frame(&mut c, &render_simple(Verb::Shutdown))?;
    let answer = reply(&mut c)?;
    if answer.kind != "draining" {
        return Err(format!("shutdown answered `{}`", answer.kind));
    }
    drop(c);
    r.thread
        .join()
        .map_err(|_| "server thread panicked".to_string())??;
    std::fs::remove_dir_all(&r.dir).map_err(|e| format!("rm {}: {e}", r.dir.display()))
}

/// The `stats` verb's body as a key → value map.
fn stats(addr: &str) -> Result<BTreeMap<String, String>, String> {
    let mut c = connect(addr)?;
    write_frame(&mut c, &render_simple(Verb::Stats))?;
    let answer = reply(&mut c)?;
    write_frame(&mut c, &render_simple(Verb::Close))?;
    let _ = reply(&mut c);
    Ok(answer
        .body
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn stat_num(s: &BTreeMap<String, String>, key: &str) -> f64 {
    s.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// `ns=… calls=…` of one `stage-<name>` line.
fn stage_ns_calls(s: &BTreeMap<String, String>, stage: &str) -> (f64, f64) {
    let line = s
        .get(&format!("stage-{}", stage.replace('_', "-")))
        .cloned()
        .unwrap_or_default();
    let field = |k: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(k))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field("ns="), field("calls="))
}

fn requests(modules: &[String], idx: &[usize]) -> Vec<ModuleRequest> {
    idx.iter()
        .map(|&i| ModuleRequest {
            text: modules[i].clone(),
            poison: Default::default(),
        })
        .collect()
}

/// Everything the client threads record, merged at the end of a phase.
#[derive(Default)]
struct Tally {
    completed: u64,
    modules: u64,
    failed: u64,
    out_of_order: u64,
    warm: u64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    connect_us: Vec<f64>,
    write_us: Vec<f64>,
    wait_us: Vec<f64>,
    read_us: Vec<f64>,
    /// Batches sent in the open loop, for the direct-engine replay.
    sent: Vec<Vec<usize>>,
    /// Reply payloads by module index.
    payloads: BTreeMap<usize, String>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.completed += o.completed;
        self.modules += o.modules;
        self.failed += o.failed;
        self.out_of_order += o.out_of_order;
        self.warm += o.warm;
        self.latency_ms.extend(o.latency_ms);
        self.lag_ms.extend(o.lag_ms);
        self.connect_us.extend(o.connect_us);
        self.write_us.extend(o.write_us);
        self.wait_us.extend(o.wait_us);
        self.read_us.extend(o.read_us);
        self.sent.extend(o.sent);
        self.payloads.extend(o.payloads);
    }
}

/// One request on the wire.
struct InFlight {
    seq: Option<u64>,
    idx: Vec<usize>,
    due: Instant,
    /// When the client began the request (connect).
    started: Instant,
    write_start: Instant,
    written: Instant,
    first: Option<Instant>,
    replies: Vec<(bool, String)>,
    ok: bool,
}

/// Feeds one reply frame to the oldest in-flight request; returns the
/// request when its `batch-end` arrives.
fn absorb(
    frame: ResponseFrame,
    window: &mut VecDeque<InFlight>,
    tally: &mut Tally,
) -> Result<Option<InFlight>, String> {
    let front = window
        .front_mut()
        .ok_or_else(|| format!("unsolicited `{}` frame", frame.kind))?;
    front.first.get_or_insert_with(Instant::now);
    if let Some(seq) = front.seq {
        if frame.key("seq") != Some(seq.to_string().as_str()) {
            tally.out_of_order += 1;
            front.ok = false;
        }
    }
    match frame.kind.as_str() {
        "result" => {
            if frame.status == Some(ResultStatus::Ok) {
                front
                    .replies
                    .push((frame.key("cache") == Some("warm"), frame.body));
            } else {
                front.ok = false;
            }
            Ok(None)
        }
        "batch-end" => Ok(window.pop_front()),
        other => Err(format!("unexpected `{other}` frame")),
    }
}

/// Shared, read-only state of one measured phase.
struct Phase<'a> {
    addr: &'a str,
    modules: &'a [String],
    /// Next unused module of the fresh stream.
    next_fresh: &'a AtomicUsize,
    /// Open loop: offered rate; closed loop: `None`.
    rate: Option<f64>,
    start: Instant,
    end: Instant,
    clients: usize,
    tracer: Option<&'a Tracer>,
}

impl Phase<'_> {
    /// The next request's modules; `None` once the fresh stream is used
    /// up, which ends the phase early.
    fn batch(&self) -> Option<Vec<usize>> {
        let at = self.next_fresh.fetch_add(BATCH, Ordering::Relaxed);
        (at + BATCH <= self.modules.len()).then(|| (at..at + BATCH).collect())
    }

    /// Books a completed request.
    fn finish(&self, r: InFlight, done: Instant, tally: &mut Tally) {
        let ok = r.ok && r.replies.len() == r.idx.len();
        for (&i, (warm, body)) in r.idx.iter().zip(&r.replies) {
            tally.payloads.insert(i, body.clone());
            tally.warm += u64::from(*warm);
        }
        tally.completed += 1;
        tally.modules += r.idx.len() as u64;
        tally.failed += u64::from(!ok);
        if self.rate.is_some() {
            tally.latency_ms.push((done - r.due).as_secs_f64() * 1e3);
            tally.lag_ms.push((r.started - r.due).as_secs_f64() * 1e3);
            tally.sent.push(r.idx.clone());
        }
        let first = r.first.unwrap_or(done);
        let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
        tally.connect_us.push(us(r.started, r.write_start));
        tally.write_us.push(us(r.write_start, r.written));
        tally.wait_us.push(us(r.written, first));
        tally.read_us.push(us(first, done));
        if let Some(t) = self.tracer {
            let req = r.idx[0] as u64;
            let root = t.record(
                "request",
                None,
                t.ns_of(r.due.min(r.started)),
                t.ns_of(done),
                req,
            );
            t.record(
                "connect",
                Some(root),
                t.ns_of(r.started),
                t.ns_of(r.write_start),
                req,
            );
            t.record(
                "write",
                Some(root),
                t.ns_of(r.write_start),
                t.ns_of(r.written),
                req,
            );
            t.record("wait", Some(root), t.ns_of(r.written), t.ns_of(first), req);
            t.record("read", Some(root), t.ns_of(first), t.ns_of(done), req);
        }
    }

    /// The due time of this client's `n`-th open-loop request.
    fn due(&self, client: usize, n: usize) -> Instant {
        let rate = self.rate.expect("open loop has a rate");
        let k = n * self.clients + client;
        self.start + Duration::from_secs_f64(k as f64 / rate)
    }

    /// One client thread: one batch per fresh connection.
    fn client(&self, client: usize) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let mut n = 0usize;
        loop {
            let due = match self.rate {
                Some(_) => self.due(client, n),
                None => Instant::now(),
            };
            if due >= self.end {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let Some(idx) = self.batch() else {
                break;
            };
            let frame = render_compile_seq(
                &BatchOptions::default(),
                None,
                &requests(self.modules, &idx),
            );
            let started = Instant::now();
            let mut conn = connect(self.addr)?;
            let write_start = Instant::now();
            write_frame(&mut conn, &frame)?;
            let mut window = VecDeque::from([InFlight {
                seq: None,
                idx,
                due,
                started,
                write_start,
                written: Instant::now(),
                first: None,
                replies: Vec::new(),
                ok: true,
            }]);
            loop {
                if let Some(r) = absorb(reply(&mut conn)?, &mut window, &mut tally)? {
                    self.finish(r, Instant::now(), &mut tally);
                    break;
                }
            }
            n += 1;
        }
        Ok(tally)
    }

    /// Runs every client to the phase's end and merges their tallies.
    /// Returns them with the seconds from the phase's start to its last
    /// reply: the requests in flight at the end are counted, and so is
    /// the time they took, and the phase is shorter than planned when
    /// the fresh stream ran out.
    fn run(&self) -> Result<(Tally, f64), String> {
        let results: Vec<Result<Tally, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| s.spawn(move || self.client(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let secs = self.start.elapsed().as_secs_f64();
        let mut tally = Tally::default();
        for r in results {
            tally.merge(r?);
        }
        Ok((tally, secs))
    }
}

/// Sends `batches` over one keep-alive connection, one at a time, and
/// returns each module's index, cache tier (`true` = warm) and reply
/// payload, in order.
fn fetch(
    addr: &str,
    modules: &[String],
    batches: &[Vec<usize>],
) -> Result<Vec<(usize, bool, String)>, String> {
    let mut conn = connect(addr)?;
    let mut tally = Tally::default();
    let mut out = Vec::new();
    for (k, idx) in batches.iter().enumerate() {
        let frame = render_compile_seq(
            &BatchOptions::default(),
            Some(k as u64),
            &requests(modules, idx),
        );
        let now = Instant::now();
        write_frame(&mut conn, &frame)?;
        let mut window = VecDeque::from([InFlight {
            seq: Some(k as u64),
            idx: idx.clone(),
            due: now,
            started: now,
            write_start: now,
            written: now,
            first: None,
            replies: Vec::new(),
            ok: true,
        }]);
        loop {
            if let Some(r) = absorb(reply(&mut conn)?, &mut window, &mut tally)? {
                if !r.ok || r.replies.len() != r.idx.len() {
                    return Err(format!("batch {k} was not answered ok"));
                }
                for (&i, (warm, body)) in r.idx.iter().zip(r.replies) {
                    out.push((i, warm, body));
                }
                break;
            }
        }
    }
    write_frame(&mut conn, &render_simple(Verb::Close))?;
    let _ = reply(&mut conn);
    Ok(out)
}

/// Profile-weighted estimated cycles and lowered ops summed from result
/// payloads (`time …` and `region … ops N …` lines).
fn payload_quality(payloads: &[&String]) -> (f64, f64) {
    let (mut est, mut ops) = (0.0, 0.0);
    for p in payloads {
        for line in p.lines() {
            if let Some(t) = line.strip_prefix("time ") {
                est += t.parse::<f64>().unwrap_or(0.0);
            } else if line.starts_with("region ") {
                let mut words = line.split_whitespace();
                if let Some(n) = words.by_ref().skip_while(|w| *w != "ops").nth(1) {
                    ops += n.parse::<f64>().unwrap_or(0.0);
                }
            }
        }
    }
    (est, ops)
}

/// Source ops (static, profile-weighted) of module texts.
fn source_ops(texts: &[&String]) -> (f64, f64) {
    let (mut s, mut w) = (0.0, 0.0);
    for t in texts {
        let m = treegion_ir::parse_module(t).expect("generated module parses");
        for f in m.functions() {
            s += static_ops(f);
            w += weighted_ops(f);
        }
    }
    (s, w)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    // Concurrency comes from the connections; each batch's modules run
    // on its connection's worker, as under `tgc serve --jobs 1`. The
    // `par` fan-out is paper_eval's to measure.
    treegion_par::set_jobs(1);
    let clients = host::nproc();
    let closed_s = ctx.seconds * CLOSED_SHARE;
    let open_s = ctx.seconds - closed_s;
    ctx.meta("clients", clients.to_string());
    ctx.meta("modules_per_request", BATCH.to_string());
    ctx.meta("offered_rate_req_per_s", OFFERED_RATE.to_string());
    ctx.meta("latency_limit_p99_ms", LATENCY_LIMIT_MS.to_string());
    ctx.meta("closed_loop_s", closed_s.to_string());
    ctx.meta("open_loop_s", open_s.to_string());
    let work = ctx.out_dir.join(format!("work-{}", std::process::id()));

    // Set-up: generate the fresh module stream and start a server on a
    // fresh cache. Repeated; the last one is kept. The open loop (which
    // runs first) never runs out of fresh modules; the closed loop ends
    // early if it outruns `FRESH_CLOSED_RATE`.
    let fresh_needed =
        (BATCH as f64 * (open_s * OFFERED_RATE * 1.2 + closed_s * FRESH_CLOSED_RATE)) as usize;
    let mut setups = Vec::new();
    let mut server = None;
    let mut modules = Vec::new();
    for k in 0..crate::SETUPS {
        if let Some(s) = server.take() {
            stop(s)?;
        }
        let t = Instant::now();
        modules = tiny_modules(ctx.seed, fresh_needed);
        let s = start(work.join(format!("server-{k}")))?;
        let mut c = connect(&s.addr)?;
        write_frame(&mut c, &render_simple(Verb::Ping))?;
        reply(&mut c)?;
        setups.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("one set-up ran");
    let addr = server.addr.clone();
    let next_fresh = AtomicUsize::new(0);
    let before = stats(&addr)?;
    let tracer = Tracer::new(50_000);

    let phase = |rate: Option<f64>, secs: f64, tracer: Option<&Tracer>| {
        let start = Instant::now();
        Phase {
            addr: &addr,
            modules: &modules,
            next_fresh: &next_fresh,
            rate,
            start,
            end: start + Duration::from_secs_f64(secs),
            clients,
            tracer,
        }
        .run()
    };
    // Open loop first, so the server's cumulative latency histogram the
    // `stats` verb reports after it covers only this phase.
    let (open, _) = phase(Some(OFFERED_RATE), open_s, ctx.trace.then_some(&tracer))?;
    let mid = stats(&addr)?;
    // Closed loop; the traced run splits it into an untraced and a
    // traced half, whose throughput ratio is the tracing overhead.
    let mut closed = Vec::new();
    if ctx.trace {
        closed.push(phase(None, closed_s / 2.0, None)?);
        closed.push(phase(None, closed_s / 2.0, Some(&tracer))?);
    } else {
        closed.push(phase(None, closed_s, None)?);
    }
    let after = stats(&addr)?;
    let open_fds = host::open_fds();
    let threads = host::threads();

    let closed_rate = closed[0].0.completed as f64 / closed[0].1;
    let modules_per_s = closed[0].0.modules as f64 / closed[0].1;
    let traced_rate = closed.get(1).map_or(0.0, |(t, s)| t.completed as f64 / s);
    let open_latency = open.latency_ms.clone();
    let open_lag = open.lag_ms.clone();
    let open_sent = open.sent.clone();
    let spans_us = [
        median(&open.connect_us),
        median(&open.write_us),
        median(&open.wait_us),
        median(&open.read_us),
    ];
    let mut all = Tally::default();
    for (t, _) in closed {
        all.merge(t);
    }
    all.merge(open);

    // Beyond the per-reply checks: no module was served from the cache,
    // and every reply comes back warm and byte-identical when
    // resubmitted.
    let cold: Vec<(usize, String)> = std::mem::take(&mut all.payloads).into_iter().collect();
    let again: Vec<Vec<usize>> = cold
        .chunks(BATCH)
        .map(|c| c.iter().map(|(i, _)| *i).collect())
        .collect();
    let warm = fetch(&addr, &modules, &again)?;
    let mismatched = cold
        .iter()
        .zip(&warm)
        .filter(|((i, body), (j, was_warm, warm_body))| i != j || !was_warm || body != warm_body)
        .count();
    let refs: Vec<&String> = cold.iter().map(|(_, b)| b).collect();
    let (est, code) = payload_quality(&refs);
    let texts: Vec<&String> = cold.iter().map(|(i, _)| &modules[*i]).collect();
    let (src, weighted) = source_ops(&texts);
    let mut check_errors = Vec::new();
    if all.warm > 0 {
        check_errors.push(format!(
            "{} fresh modules were answered from the cache",
            all.warm
        ));
    }
    if mismatched > 0 {
        check_errors.push(format!(
            "{mismatched} resubmitted replies differ from the cold reply"
        ));
    }
    if all.out_of_order > 0 {
        check_errors.push(format!("{} reply frames out of order", all.out_of_order));
    }
    if all.failed > 0 {
        check_errors.push(format!("{} requests were not answered ok", all.failed));
    }
    for e in &check_errors {
        eprintln!("perfbench: serve_oneshot_cold check failed: {e}");
    }
    out.correct = check_errors.is_empty();
    out.attempted = all.completed;
    out.failed = all.failed;

    ctx.meta("fresh_modules_compiled", cold.len().to_string());
    ctx.meta("open_loop_latency_ms", latency_summary(&open_latency));
    ctx.meta(
        "open_loop_p99_within_limit",
        (quantile(&open_latency, 0.99) <= LATENCY_LIMIT_MS).to_string(),
    );
    out.set("setup_s", median(&setups));
    out.set(
        "compile_ops_per_s",
        modules_per_s * src / cold.len().max(1) as f64,
    );
    out.set("req_per_s", closed_rate);
    out.set("latency_p50_ms", quantile(&open_latency, 0.5));
    out.set("latency_p90_ms", quantile(&open_latency, 0.9));
    out.set("est_cycles", 1e3 * est / weighted);
    out.set("code_ops", 1e3 * code / src);

    if ctx.trace {
        let d = |k: &str| stat_num(&after, k) - stat_num(&before, k);
        out.set("serve.connect_us", spans_us[0]);
        out.set("serve.write_us", spans_us[1]);
        out.set("serve.wait_us", spans_us[2]);
        out.set("serve.read_us", spans_us[3]);
        let server_p50 = stat_num(&mid, "latency-p50-us");
        out.set("serve.server_latency_p50_us", server_p50);
        out.set("serve.queue_us", spans_us[2] - server_p50);
        let (w, c) = (d("cache-warm"), d("cache-cold"));
        out.set("serve.cache_warm_rate", w / (w + c).max(1.0));
        out.set("serve.disk_contention", d("disk-contention"));
        out.set("serve.quarantine_contention", d("quarantine-contention"));
        out.set("serve.high_water", stat_num(&after, "high-water"));
        for stage in CORE_STAGES {
            let (n1, c1) = stage_ns_calls(&after, stage);
            let (n0, c0) = stage_ns_calls(&before, stage);
            let calls = c1 - c0;
            out.set(
                stage_metric(stage),
                if calls > 0.0 { (n1 - n0) / calls } else { 0.0 },
            );
        }
        out.set("serve.open_fds", open_fds);
        out.set("serve.threads", threads);
        out.set("loadgen.lag_p99_ms", quantile(&open_lag, 0.99));
        out.set(
            "trace.overhead_frac",
            closed_rate / traced_rate.max(1e-9) - 1.0,
        );
        // The engine alone on the same batches, bypassing the network: a
        // fresh in-memory engine, so every module compiles again.
        let engine = Engine::open(&EngineConfig::default())?;
        let admission = Admission::new(64, 100);
        let t = Instant::now();
        let mut n = 0usize;
        for idx in open_sent.iter().take(200) {
            let replies = engine.process_batch(
                &admission,
                &BatchOptions::default(),
                &requests(&modules, idx),
            );
            n += replies.len();
            if replies.iter().any(|r| !matches!(r, ModuleReply::Ok { .. })) {
                out.correct = false;
                eprintln!("perfbench: direct engine replay failed a module");
            }
        }
        out.set(
            "serve.engine_us_per_module",
            t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
        );
        ctx.write_trace(&tracer)?;
    }
    stop(server)?;
    let _ = std::fs::remove_dir_all(&work);
    Ok(())
}

//! The TCP front end: accept loop, per-connection pipelined handlers,
//! graceful drain.
//!
//! The accept loop is non-blocking with a short poll so the drain flag
//! is observed promptly; each connection gets a blocking handler thread
//! (connections are few — this is a build-farm service, not a web
//! server). `shutdown` flips the drain flag: the loop stops accepting,
//! waits for every admission slot to free (in-flight batches finish and
//! their replies go out), force-closes idle connections to unblock
//! their readers, joins every handler, and checkpoints the durable
//! cache. Crash safety does **not** depend on the graceful path — every
//! cache write is already fsynced — the checkpoint merely compacts.
//!
//! ## The connection state machine
//!
//! Each connection runs **two** threads so the socket read of batch
//! N + 1 overlaps the scheduling of batch N:
//!
//! ```text
//!  reader thread                 worker thread
//!  ─────────────                 ─────────────
//!  read_frame_event ──┐
//!  parse, dispatch    │ bounded channel (pipeline_depth)
//!  compile → enqueue ─┴───────▶  process_batch on the par pool
//!  control verbs answer          result/batch-end frames (seq echoed)
//!  via the shared writer  ◀────  via the shared writer
//! ```
//!
//! The reader keeps the PR 8 per-frame semantics (idle-budget ticks at
//! frame boundaries, immediate drop on a mid-frame stall) and handles
//! `ping`/`stats`/`shutdown`/`close` inline; `compile` batches enqueue
//! into a bounded channel the single worker drains FIFO — so one
//! connection's replies always arrive in submission order, while the
//! enqueue itself is the natural backpressure (a sender more than
//! `pipeline_depth` batches ahead blocks in TCP). Every frame write
//! goes through one mutex-guarded socket clone, keeping frames atomic
//! when a control reply interleaves with streamed results. The idle
//! reaper only ticks while **no batch is in flight** — a silent client
//! waiting on a slow batch is patient, not idle.

use crate::admission::Admission;
use crate::engine::{Engine, EngineConfig, ModuleReply};
use crate::protocol::{
    parse_request, read_frame_event, render_response, write_frame, FrameEvent, Request, Verb,
};
use crate::stats::bump;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use treegion_par::lock_tolerant as lock;

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Engine options (cache file, quarantine dir, default deadline).
    pub engine: EngineConfig,
    /// Admission high-water mark: modules in flight at once.
    pub queue_max: usize,
    /// Retry hint carried by shed replies, in milliseconds.
    pub retry_after_ms: u64,
    /// Per-connection pipeline window: compile batches buffered between
    /// the reader and the worker before the enqueue blocks.
    pub pipeline_depth: usize,
    /// Socket read timeout. Doubles as the idle poll tick: a frame that
    /// *starts* must deliver its next bytes within this budget or the
    /// connection is dropped as a stalled peer.
    pub read_timeout_ms: u64,
    /// Socket write timeout: a peer that stops draining its receive
    /// buffer cannot pin a handler on a blocked write forever.
    pub write_timeout_ms: u64,
    /// Idle budget: a connection with no traffic at all (and no batch in
    /// flight) for this long is reaped (counted in `idle-reaped`). Zero
    /// disables the reaper.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            engine: EngineConfig::default(),
            queue_max: 64,
            retry_after_ms: 100,
            pipeline_depth: 32,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            idle_timeout_ms: 300_000,
        }
    }
}

/// The per-connection timeout knobs, shared by every handler thread.
#[derive(Clone, Copy, Debug)]
struct Timeouts {
    read_ms: u64,
    write_ms: u64,
    idle_ms: u64,
    pipeline_depth: usize,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    admission: Admission,
    drain: Arc<AtomicBool>,
    timeouts: Timeouts,
}

impl Server {
    /// Opens the engine (running cache recovery and the quarantine
    /// ledger replay) and binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-recovery failures.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let engine = Arc::new(Engine::open(&config.engine)?);
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        Ok(Server {
            listener,
            engine,
            admission: Admission::new(config.queue_max.max(1), config.retry_after_ms),
            drain: Arc::new(AtomicBool::new(false)),
            timeouts: Timeouts {
                read_ms: config.read_timeout_ms.max(1),
                write_ms: config.write_timeout_ms.max(1),
                idle_ms: config.idle_timeout_ms,
                pipeline_depth: config.pipeline_depth.max(1),
            },
        })
    }

    /// The bound address (read this for `:0` ephemeral binds).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Shared handle to the engine (counters, stats, quarantine ledger)
    /// — stays valid after [`Server::run`] returns.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// A handle that trips the drain from outside the protocol (tests,
    /// embedders). The `shutdown` verb flips the same flag.
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// Runs until drained: accepts connections, serves requests, and on
    /// `shutdown` finishes in-flight work, joins every handler, and
    /// checkpoints the cache.
    ///
    /// # Errors
    ///
    /// Propagates listener failures and the final checkpoint error.
    pub fn run(self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let handlers: Mutex<Vec<(std::thread::JoinHandle<()>, TcpStream)>> = Mutex::new(Vec::new());
        while !self.drain.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let peer_copy = stream
                        .try_clone()
                        .map_err(|e| format!("clone stream: {e}"))?;
                    let engine = Arc::clone(&self.engine);
                    let admission = self.admission.clone();
                    let drain = Arc::clone(&self.drain);
                    let timeouts = self.timeouts;
                    let handle = std::thread::spawn(move || {
                        handle_connection(stream, &engine, &admission, &drain, timeouts);
                    });
                    let mut live = lock(&handlers);
                    // Reap handlers whose connection already ended: each
                    // entry pins a socket clone (one fd) until dropped.
                    for (done, _) in live.extract_if(.., |(h, _)| h.is_finished()) {
                        let _ = done.join();
                    }
                    live.push((handle, peer_copy));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
        // Drain: in-flight batches hold admission slots until their
        // replies are rendered; wait for the slots to free (bounded so a
        // wedged handler cannot hold the drain hostage), give the final
        // reply writes a beat, then unblock idle readers and join.
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.admission.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(100));
        let mut handlers = lock(&handlers);
        for (_, stream) in handlers.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (handle, _) in handlers.drain(..) {
            let _ = handle.join();
        }
        self.engine.checkpoint()
    }
}

/// Serves one connection until EOF, a `close`, a dead socket, a timeout,
/// or drain.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    admission: &Admission,
    drain: &AtomicBool,
    timeouts: Timeouts,
) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeouts.read_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(timeouts.write_ms)));
    serve_connection(&mut stream, engine, admission, drain, timeouts);
    // The accept loop holds a clone of this socket (for the drain-time
    // force-close), so merely dropping our handle would NOT send FIN —
    // the peer would sit on a half-dead connection until the server
    // drains. Shut the underlying socket down explicitly: a dropped,
    // reaped, or stalled connection closes the moment its handler exits.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One enqueued compile batch: its sequence id, the parsed request, and
/// the instant its frame was accepted (feeds the latency histogram).
struct BatchJob {
    seq: Option<u64>,
    req: Request,
    accepted: Instant,
}

/// The connection state machine (see the module docs): a reader loop on
/// the calling thread plus a scoped worker thread draining the batch
/// channel; returning ends the connection.
///
/// The socket read timeout is the poll tick: each expiry at a frame
/// boundary burns `read_ms` of the connection's idle budget (the
/// reaper) **unless a batch is in flight**, while an expiry *mid-frame*
/// means the peer started a frame and stalled — that connection is
/// dropped immediately so a wedged sender cannot pin a handler thread
/// forever.
fn serve_connection(
    stream: &mut TcpStream,
    engine: &Engine,
    admission: &Admission,
    drain: &AtomicBool,
    timeouts: Timeouts,
) {
    let Ok(wstream) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(wstream);
    // Set by the worker when a reply write fails: the connection is
    // beyond saving, the reader gives up at its next tick.
    let dead = AtomicBool::new(false);
    // Batches enqueued but not yet fully answered. The idle reaper and
    // the drain path only act when this is zero.
    let outstanding = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<BatchJob>(timeouts.pipeline_depth);
        let mut tx = Some(tx);
        let (writer, dead, outstanding) = (&writer, &dead, &outstanding);
        let mut worker = Some(s.spawn(move || {
            while let Ok(job) = rx.recv() {
                if !dead.load(Ordering::Acquire)
                    && serve_batch(writer, engine, admission, &job).is_err()
                {
                    dead.store(true, Ordering::Release);
                }
                outstanding.fetch_sub(1, Ordering::AcqRel);
            }
        }));
        // Joins the worker after closing the channel: every accepted
        // batch is answered before the connection advances past this.
        let finish =
            |tx: &mut Option<mpsc::SyncSender<BatchJob>>,
             worker: &mut Option<std::thread::ScopedJoinHandle<'_, ()>>| {
                drop(tx.take());
                if let Some(w) = worker.take() {
                    let _ = w.join();
                }
            };
        let mut idle_ms = 0u64;
        loop {
            if dead.load(Ordering::Acquire) {
                break;
            }
            let frame = match read_frame_event(&mut *stream) {
                Ok(FrameEvent::Frame(f)) => {
                    idle_ms = 0;
                    f
                }
                Ok(FrameEvent::Eof) => break, // peer hung up cleanly
                Ok(FrameEvent::IdleTimeout) => {
                    if outstanding.load(Ordering::Acquire) > 0 {
                        continue; // waiting on results, not idle
                    }
                    if drain.load(Ordering::Acquire) {
                        break; // draining: stop waiting on idle peers
                    }
                    idle_ms = idle_ms.saturating_add(timeouts.read_ms);
                    if timeouts.idle_ms > 0 && idle_ms >= timeouts.idle_ms {
                        bump(&engine.stats.idle_reaped);
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    if e.starts_with("stalled") {
                        bump(&engine.stats.read_stalls);
                    }
                    break; // dead, stalled, or force-closed socket
                }
            };
            bump(&engine.stats.requests);
            let req = match parse_request(&frame) {
                Ok(r) => r,
                Err(msg) => {
                    // Framing is intact, so the connection survives a bad
                    // request; only the request is rejected.
                    let reply = render_response("error", &[("reason", msg)], "");
                    if write_locked(writer, &reply).is_err() {
                        break;
                    }
                    continue;
                }
            };
            match req.verb {
                Verb::Ping => {
                    if write_locked(writer, &render_response("pong", &[], "")).is_err() {
                        break;
                    }
                }
                Verb::Stats => {
                    let body = engine.render_stats(admission.inflight(), admission.high_water());
                    if write_locked(writer, &render_response("stats", &[], &body)).is_err() {
                        break;
                    }
                }
                Verb::Shutdown => {
                    // Answer this connection's accepted batches first —
                    // a client that pipelines compiles and a shutdown
                    // still gets every reply.
                    finish(&mut tx, &mut worker);
                    let _ = write_locked(writer, &render_response("draining", &[], ""));
                    drain.store(true, Ordering::Release);
                    break;
                }
                Verb::Close => {
                    // Protocol FIN: drain this connection's pipeline,
                    // confirm, close. The server keeps running.
                    finish(&mut tx, &mut worker);
                    bump(&engine.stats.closes);
                    let _ = write_locked(writer, &render_response("closing", &[], ""));
                    break;
                }
                Verb::Compile => {
                    let job = BatchJob {
                        seq: req.seq,
                        req,
                        accepted: Instant::now(),
                    };
                    outstanding.fetch_add(1, Ordering::AcqRel);
                    // A full channel blocks here — backpressure via TCP.
                    match &tx {
                        Some(tx) if tx.send(job).is_ok() => {}
                        _ => {
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                    }
                }
            }
        }
        finish(&mut tx, &mut worker);
    });
}

/// Writes one frame under the connection's writer lock, keeping frames
/// atomic when the reader (control replies) and the worker (results)
/// interleave.
fn write_locked(writer: &Mutex<TcpStream>, payload: &str) -> Result<(), String> {
    write_frame(&mut *lock(writer), payload)
}

/// Runs one compile batch and streams the per-module `result` frames in
/// input order, closed by a `batch-end` frame. The request's sequence
/// id, when present, is echoed on every frame so pipelined clients can
/// demultiplex.
fn serve_batch(
    writer: &Mutex<TcpStream>,
    engine: &Engine,
    admission: &Admission,
    job: &BatchJob,
) -> Result<(), String> {
    let req = &job.req;
    let replies = engine.process_batch(admission, &req.options, &req.modules);
    let (mut ok, mut errors, mut shed) = (0u64, 0u64, 0u64);
    let with_seq = |mut keys: Vec<(&'static str, String)>| {
        if let Some(n) = job.seq {
            keys.push(("seq", n.to_string()));
        }
        keys
    };
    for (i, reply) in replies.iter().enumerate() {
        let index = ("index", i.to_string());
        let frame = match reply {
            ModuleReply::Ok { warm, payload } => {
                ok += 1;
                let tier = ("cache", if *warm { "warm" } else { "cold" }.to_string());
                render_response("result ok", &with_seq(vec![index, tier]), payload)
            }
            ModuleReply::Err {
                cause,
                detail,
                quarantined,
            } => {
                errors += 1;
                render_response(
                    "result error",
                    &with_seq(vec![
                        index,
                        ("cause", cause.clone()),
                        ("detail", detail.clone()),
                        ("quarantined", quarantined.to_string()),
                    ]),
                    "",
                )
            }
            ModuleReply::Shed { retry_after_ms } => {
                shed += 1;
                render_response(
                    "result shed",
                    &with_seq(vec![index, ("retry-after-ms", retry_after_ms.to_string())]),
                    "",
                )
            }
        };
        write_locked(writer, &frame)?;
    }
    let out = write_locked(
        writer,
        &render_response(
            "batch-end",
            &with_seq(vec![
                ("modules", replies.len().to_string()),
                ("ok", ok.to_string()),
                ("errors", errors.to_string()),
                ("shed", shed.to_string()),
            ]),
            "",
        ),
    );
    engine.stats.latency.record(job.accepted.elapsed());
    out
}

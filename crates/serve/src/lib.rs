//! Fault-tolerant scheduler-as-a-service: the `tgc serve` daemon.
//!
//! A long-lived process that accepts batches of tir modules over a
//! length-prefixed TCP protocol, fans them through the treegion
//! [`Pipeline`](treegion::Pipeline) on the shared worker pool, and
//! streams per-module results back — engineered so that one bad module
//! can never take the service (or its siblings in the batch) down:
//!
//! * **Containment** ([`engine`]) — every module runs under
//!   [`treegion_par::contain`] with an optional soft deadline escalated
//!   by a hard watchdog; a crash becomes a structured error reply.
//! * **Quarantine** — crashing modules are written to a replayable
//!   ledger (valid tir with a `//`-comment header), FNV-deduplicated,
//!   and fast-rejected on resubmission — across restarts.
//! * **Backpressure** ([`admission`]) — a bounded high-water mark on
//!   modules in flight; past it, requests are deterministically shed
//!   with a retry hint instead of queueing without bound.
//! * **Durability** — results live in a checksummed append-only disk
//!   cache (`treegion_eval::DiskCache`): every record is sealed and
//!   fsynced, startup runs a recovery scan that truncates torn tails,
//!   and a warm hit is byte-identical to the cold run that wrote it
//!   even after `kill -9` mid-write.
//! * **Observability** ([`stats`]) — a `stats` request reports hit
//!   rates, containment/shed/deadline counters, and per-stage timings
//!   from the pipeline's `PassObserver` hooks.
//!
//! The wire format ([`protocol`]) is deliberately boring: 4-byte
//! length-prefixed UTF-8 text frames, line-oriented inside, versioned
//! by a magic first line.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod histo;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;

pub use admission::{Admission, Permit};
pub use engine::{parse_quarantine, Engine, EngineConfig, ModuleReply, DEFAULT_CACHE_SHARDS};
pub use histo::{Histogram, HistogramSnapshot};
pub use loadgen::{run_loadgen, LoadReport, LoadgenConfig};
pub use protocol::{
    parse_request, parse_response, read_frame, render_compile, render_compile_seq, render_response,
    render_simple, write_frame, BatchOptions, ModuleRequest, Poison, Request, ResponseFrame,
    ResultStatus, Verb, MAGIC, MAX_FRAME,
};
pub use server::{DrainHandle, Server, ServerConfig};
pub use stats::ServeStats;

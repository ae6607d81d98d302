//! # treegion-par
//!
//! A tiny, hermetic (std-only) task runner for the treegion workspace.
//! The workspace must build without crates.io, so this crate provides
//! what the compiler, the eval harness and the serve engine need instead
//! of pulling in rayon:
//!
//! * [`par_map`] — order-preserving parallel map over a slice. Results
//!   come back in input order, so a parallel caller is **byte-identical**
//!   to the serial one as long as the mapped closure is a pure function
//!   of its item. A panicking item re-raises once the map has drained.
//! * [`par_map_isolated`] — the same map, but a panicking item becomes a
//!   [`TaskOutcome::Panicked`] instead of unwinding the caller.
//! * [`catch_panic`] and [`contain`] — the workspace's one panic envelope
//!   and its one deadline watchdog.
//!
//! ## The pool
//!
//! Both maps run on a `Pool`: a job count plus a count of live extra
//! workers. A nested fan-out (table cells → functions → regions) shares
//! its pool's budget of `jobs - 1` extra threads; an inner map that finds
//! the budget spent runs serially on its calling thread, so nesting never
//! oversubscribes or deadlocks. The public maps use one process-default
//! pool; the tests build their own, so each asserts on its own counts.
//!
//! Every map, serial or parallel, runs through one worker loop: workers
//! pull indices off a shared atomic counter, each task runs under a
//! single `catch_unwind`, and results are merged back by index. A grant
//! of workers is returned by a drop guard, so it is released exactly once
//! on every path.
//!
//! ## Determinism contract
//!
//! Parallelism here only ever changes *when* a result is computed, never
//! *what* is computed or in which order results are observed by the
//! caller. `par_map(items, f)[i] == f(&items[i])` for every `i`, at every
//! job count, and when several items panic [`par_map`] re-raises the
//! payload of the lowest-index one. Schedules, report tables and fuzz
//! verdicts produced at `jobs=1` and `jobs=N` are byte-identical (see
//! `tests/parallel_determinism.rs` at the workspace root).
//!
//! ## Job-count resolution
//!
//! The process-default job count is resolved in this order:
//!
//! 1. [`set_jobs`] (e.g. from `tgc --jobs N`),
//! 2. the `TGC_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `jobs == 1` runs strictly serially on the calling thread — the
//! documented reproducibility mode (no worker threads are ever spawned).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sync;

pub use sync::{lock_tolerant, StripedSet};

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::OnceLock;
use std::time::Duration;

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// The pool behind [`par_map`] and [`par_map_isolated`].
static DEFAULT: Pool = Pool::new(0);

/// A worker budget: the job count its maps run at (0 = [`max_jobs`]) and
/// the extra worker threads its maps hold right now.
struct Pool {
    jobs: AtomicUsize,
    live: AtomicUsize,
}

/// Workers granted to one map; returned to the pool on drop.
struct Grant<'a> {
    live: &'a AtomicUsize,
    workers: usize,
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        if self.workers > 0 {
            self.live.fetch_sub(self.workers, Ordering::SeqCst);
        }
    }
}

impl Pool {
    const fn new(jobs: usize) -> Self {
        Pool {
            jobs: AtomicUsize::new(jobs),
            live: AtomicUsize::new(0),
        }
    }

    fn set_jobs(&self, n: usize) {
        self.jobs.store(n.max(1), Ordering::SeqCst);
    }

    fn jobs(&self) -> usize {
        match self.jobs.load(Ordering::SeqCst) {
            0 => max_jobs(),
            n => n,
        }
    }

    /// Reserves up to `want` extra workers against the pool's cap of
    /// `jobs - 1`; the grant may be empty.
    fn acquire(&self, want: usize, jobs: usize) -> Grant<'_> {
        let mut workers = 0;
        if want > 0 {
            let _ = self
                .live
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                    workers = want.min((jobs - 1).saturating_sub(cur));
                    (workers > 0).then_some(cur + workers)
                });
        }
        Grant {
            live: &self.live,
            workers,
        }
    }

    /// The one worker loop: `f` on every item, each call under its own
    /// `catch_unwind`, results in input order. The calling thread always
    /// takes part, so a map with no granted workers is a serial loop.
    fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, Payload>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let task = |i: usize| catch_unwind(AssertUnwindSafe(|| f(&items[i])));
        let jobs = self.jobs();
        let grant = self.acquire(jobs.min(n).saturating_sub(1), jobs);
        if grant.workers == 0 {
            return (0..n).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return local;
                }
                local.push((i, task(i)));
            }
        };
        let mut slots: Vec<Option<Result<R, Payload>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..grant.workers).map(|_| s.spawn(drain)).collect();
            let mine = drain();
            // Every task is caught inside `drain`, so no worker unwinds.
            let theirs = handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker loop panicked"));
            for (i, r) in theirs.chain(mine) {
                slots[i] = Some(r);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index is claimed exactly once"))
            .collect()
    }

    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    }

    fn map_isolated<T, R, F, L>(&self, items: &[T], label: L, f: F) -> Vec<TaskOutcome<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        L: Fn(usize, &T) -> String,
    {
        self.run(items, f)
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(r) => TaskOutcome::Done(r),
                Err(p) => TaskOutcome::Panicked {
                    payload: panic_message(p.as_ref()),
                    task_label: label(i, &items[i]),
                },
            })
            .collect()
    }
}

/// Memoized [`max_jobs`] resolution. Resolving consults the environment
/// and `available_parallelism`, which on Linux reads cgroup files — far
/// too expensive for a map's hot path, so it happens once per process.
static ENV_JOBS: OnceLock<usize> = OnceLock::new();

/// The job count the environment asks for: `TGC_JOBS` if set and valid,
/// otherwise the machine's available parallelism (1 if unknown).
/// Resolved once per process and cached.
pub fn max_jobs() -> usize {
    *ENV_JOBS.get_or_init(resolve_env_jobs)
}

/// Upper clamp on the job count accepted from the environment. Absurd
/// `TGC_JOBS` values (misconfigured CI, a stray `$RANDOM`) would otherwise
/// make every map try to spawn thousands of threads.
const MAX_JOBS_CLAMP: usize = 512;

/// Interprets a raw `TGC_JOBS` value.
///
/// Returns `(jobs, warning)`: `jobs` is `Some(n)` when the value names a
/// usable job count (clamped to [`MAX_JOBS_CLAMP`]) and `None` when the
/// resolver should fall back to the hardware default. Invalid values
/// (`0`, non-numeric text, unparseable magnitudes) never panic — they
/// produce a human-readable warning and fall back. Empty / whitespace-only
/// values are treated as unset, silently (`export TGC_JOBS=` is common).
fn parse_jobs_env(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    let t = raw.trim();
    if t.is_empty() {
        return (None, None);
    }
    match t.parse::<usize>() {
        Ok(0) => (
            None,
            Some("TGC_JOBS=0 is invalid (must be >= 1); falling back to the default".into()),
        ),
        Ok(n) if n > MAX_JOBS_CLAMP => (
            Some(MAX_JOBS_CLAMP),
            Some(format!(
                "TGC_JOBS={t} is unreasonably large; clamping to {MAX_JOBS_CLAMP}"
            )),
        ),
        Ok(n) => (Some(n), None),
        Err(_) => (
            None,
            Some(format!(
                "TGC_JOBS=`{raw}` is not a valid job count; falling back to the default"
            )),
        ),
    }
}

fn resolve_env_jobs() -> usize {
    let raw = std::env::var("TGC_JOBS").ok();
    let (jobs, warning) = parse_jobs_env(raw.as_deref());
    if let Some(w) = warning {
        eprintln!("treegion-par: warning: {w}");
    }
    jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Overrides the job count for the whole process (clamped to ≥ 1).
/// `tgc --jobs N` and the determinism tests call this.
pub fn set_jobs(n: usize) {
    DEFAULT.set_jobs(n);
}

/// Order-preserving parallel map: returns `vec![f(&items[0]), ...]`, with
/// up to the process job count of threads (the caller included) running
/// `f` concurrently.
///
/// * One job, fewer than 2 items, or a spent worker budget degrades to a
///   serial map on the calling thread.
/// * Worker threads pull items off a shared atomic index — no work
///   splitting heuristics, which keeps the pool fair for the coarse,
///   uneven items (regions, table cells, fuzz cases) this workspace maps
///   over.
/// * If `f` panics, every item still runs; the map then re-raises the
///   payload of the lowest-index item that panicked, whatever the job
///   count and whichever worker it ran on.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    DEFAULT.map(items, f)
}

/// The outcome of one task executed by [`par_map_isolated`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The task returned normally.
    Done(R),
    /// The task panicked; the panic was contained inside the pool.
    Panicked {
        /// Stringified panic payload (`&str` / `String` payloads verbatim,
        /// anything else a placeholder).
        payload: String,
        /// Label of the failed task, from the caller's labelling closure.
        task_label: String,
    },
}

/// Order-preserving parallel map with per-task panic containment.
///
/// Like [`par_map`], but a panicking task becomes
/// [`TaskOutcome::Panicked`] (labelled by `label(index, item)`) instead
/// of resuming the unwind. A panic is caught inside the worker loop, so
/// it never kills its worker and the remaining items keep draining.
/// Outcome `i` corresponds to item `i` at every job count.
///
/// Tasks should treat shared state as suspect after a panic: `f` observes
/// side effects of a panicked sibling only through whatever synchronized
/// state the caller shares deliberately (the eval harness retries failed
/// cells against fresh, uncached state for exactly this reason).
pub fn par_map_isolated<T, R, F, L>(items: &[T], label: L, f: F) -> Vec<TaskOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    DEFAULT.map_isolated(items, label, f)
}

/// Renders a caught panic payload as a string: `&'static str` and
/// `String` payloads (the overwhelmingly common cases) come through
/// verbatim, anything else becomes a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` in place; a panic inside becomes `Err` with its message.
/// Unwind safety is asserted: a caller discards whatever state a
/// panicking `f` left half-updated.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// How a task run under [`contain`] failed to return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Escape {
    /// The task panicked; the panic message.
    Panic(String),
    /// The deadline passed first. The task's thread is detached and its
    /// late result discarded.
    Timeout,
}

/// Runs `task(ctx)` under the panic envelope, and under a deadline
/// watchdog when `deadline` is set.
///
/// Without a deadline the task runs in place on the calling thread: no
/// extra thread and no clone of `ctx`. With one, the task gets a clone of
/// `ctx` and a thread of its own, and the caller waits at most
/// `deadline` for its result. A thread that beats the deadline is joined
/// (it has already sent its result, so the join is immediate); one that
/// misses it is detached, since joining would wait out the very stall
/// the watchdog contained.
pub fn contain<C, R, F>(ctx: &C, deadline: Option<Duration>, task: F) -> Result<R, Escape>
where
    C: Clone + Send + 'static,
    R: Send + 'static,
    F: FnOnce(&C) -> R + Send + 'static,
{
    let Some(deadline) = deadline else {
        return catch_panic(|| task(ctx)).map_err(Escape::Panic);
    };
    let (tx, rx) = mpsc::channel();
    let ctx = ctx.clone();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(catch_panic(|| task(&ctx)));
    });
    match rx.recv_timeout(deadline) {
        Ok(res) => {
            let _ = handle.join();
            res.map_err(Escape::Panic)
        }
        Err(RecvTimeoutError::Timeout) => Err(Escape::Timeout),
        Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(Escape::Panic(
                "task thread exited without reporting".to_string(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 8, 33] {
            let par = Pool::new(jobs).map(&items, |x| x * 3 + 1);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |x| *x).is_empty());
        assert_eq!(pool.map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn serial_mode_spawns_no_threads() {
        // jobs=1 must never touch the worker budget.
        let pool = Pool::new(1);
        let out = pool.map(&[1, 2, 3], |x| {
            assert_eq!(pool.live.load(Ordering::SeqCst), 0);
            x * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn nested_maps_complete_and_stay_ordered() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let got = pool.map(&outer, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            let row = pool.map(&inner, move |&j| i * 100 + j);
            assert!(pool.live.load(Ordering::SeqCst) <= 3, "budget exceeded");
            row
        });
        for (i, row) in got.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, i * 100 + j);
            }
        }
        assert_eq!(pool.live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn worker_budget_is_released() {
        let pool = Pool::new(4);
        for _ in 0..10 {
            let items: Vec<usize> = (0..64).collect();
            let _ = pool.map(&items, |x| x + 1);
        }
        assert_eq!(pool.live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn panics_propagate() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |&x| {
                if x == 17 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(r.is_err());
        // Budget must still be released after a panic inside the scope.
        assert_eq!(pool.live.load(Ordering::SeqCst), 0);
    }

    /// Which of several panicking items `par_map` re-raises must not
    /// depend on the job count or on which worker finished last.
    #[test]
    fn lowest_index_panic_is_reraised_at_any_job_count() {
        let items: Vec<usize> = (0..32).collect();
        for jobs in [1, 2, 8] {
            let pool = Pool::new(jobs);
            for rep in 0..20 {
                let p = catch_unwind(AssertUnwindSafe(|| {
                    pool.map(&items, |&x| match x {
                        5 => panic!("item five"),
                        17 => panic!("item seventeen"),
                        _ => x,
                    })
                }))
                .unwrap_err();
                assert_eq!(
                    panic_message(p.as_ref()),
                    "item five",
                    "jobs={jobs} rep={rep}"
                );
            }
            assert_eq!(pool.live.load(Ordering::SeqCst), 0);
        }
    }

    /// A map that panics *inside* another map must release both grants
    /// exactly once — no deadlock, no leak, and the pool must be fully
    /// usable afterwards.
    #[test]
    fn nested_panicking_map_releases_budget() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        for _ in 0..5 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.map(&outer, |&i| {
                    let inner: Vec<usize> = (0..8).collect();
                    pool.map(&inner, move |&j| {
                        if i == 3 && j == 5 {
                            panic!("inner boom");
                        }
                        i * 10 + j
                    })
                })
            }));
            assert!(r.is_err(), "inner panic must propagate through both maps");
            assert_eq!(
                pool.live.load(Ordering::SeqCst),
                0,
                "budget leaked after nested panic"
            );
        }
        let ok = pool.map(&outer, |x| x + 1);
        assert_eq!(ok, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn isolated_map_over_nested_panics_releases_budget() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = pool.map_isolated(
            &outer,
            |i, _| format!("outer-{i}"),
            |&i| {
                let inner: Vec<usize> = (0..8).collect();
                pool.map(&inner, move |&j| {
                    if i % 3 == 1 && j == 2 {
                        panic!("inner boom at {i}");
                    }
                    i * 10 + j
                })
            },
        );
        for (i, o) in out.iter().enumerate() {
            if i % 3 == 1 {
                assert_eq!(
                    *o,
                    TaskOutcome::Panicked {
                        payload: format!("inner boom at {i}"),
                        task_label: format!("outer-{i}"),
                    }
                );
            } else {
                assert_eq!(*o, TaskOutcome::Done((0..8).map(|j| i * 10 + j).collect()));
            }
        }
        assert_eq!(pool.live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn isolated_map_contains_panics_and_keeps_draining() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let out = pool.map_isolated(
                &items,
                |i, _| format!("task-{i}"),
                |&x| {
                    if x % 10 == 3 {
                        panic!("boom at {x}");
                    }
                    x * 2
                },
            );
            assert_eq!(out.len(), items.len(), "jobs={jobs}");
            for (i, o) in out.iter().enumerate() {
                if i % 10 == 3 {
                    assert_eq!(
                        *o,
                        TaskOutcome::Panicked {
                            payload: format!("boom at {i}"),
                            task_label: format!("task-{i}"),
                        }
                    );
                } else {
                    assert_eq!(*o, TaskOutcome::Done(i * 2), "jobs={jobs}");
                }
            }
            assert_eq!(pool.live.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn isolated_map_matches_serial_outcomes() {
        let items: Vec<usize> = (0..97).collect();
        let label = |i: usize, _: &usize| i.to_string();
        let serial = Pool::new(1).map_isolated(&items, label, |&x| x * 3);
        let parallel = Pool::new(8).map_isolated(&items, label, |&x| x * 3);
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|o| matches!(o, TaskOutcome::Done(_))));
    }

    #[test]
    fn panic_payload_rendering() {
        assert_eq!(
            catch_panic(|| panic!("plain str")),
            Err::<(), _>("plain str".into())
        );
        assert_eq!(
            catch_panic(|| panic!("formatted {}", 7)),
            Err::<(), _>("formatted 7".into())
        );
        assert_eq!(
            catch_panic(|| std::panic::panic_any(42u32)),
            Err::<(), _>("<non-string panic payload>".into())
        );
        assert_eq!(catch_panic(|| 3), Ok(3));
    }

    #[test]
    fn contain_without_deadline_runs_in_place() {
        let caller = std::thread::current().id();
        let got = contain(&caller, None, |&caller| {
            std::thread::current().id() == caller
        });
        assert_eq!(got, Ok(true));
        let r: Result<(), Escape> = contain(&(), None, |_| panic!("in place"));
        assert_eq!(r, Err(Escape::Panic("in place".into())));
    }

    #[test]
    fn contain_with_deadline_watches_a_thread() {
        let long = Some(Duration::from_secs(60));
        let caller = std::thread::current().id();
        let got = contain(&caller, long, |&caller| {
            std::thread::current().id() == caller
        });
        assert_eq!(got, Ok(false));
        assert_eq!(
            contain(&7u32, long, |&x| -> u32 { panic!("watched {x}") }),
            Err(Escape::Panic("watched 7".into()))
        );
        let short = Some(Duration::from_millis(10));
        assert_eq!(
            contain(&(), short, |_| std::thread::sleep(Duration::from_millis(
                500
            ))),
            Err(Escape::Timeout)
        );
    }

    #[test]
    fn jobs_env_parsing_edge_cases() {
        // Unset and empty: silent hardware fallback.
        assert_eq!(parse_jobs_env(None), (None, None));
        assert_eq!(parse_jobs_env(Some("")), (None, None));
        assert_eq!(parse_jobs_env(Some("   ")), (None, None));
        // Valid values pass through (with surrounding whitespace).
        assert_eq!(parse_jobs_env(Some("4")), (Some(4), None));
        assert_eq!(parse_jobs_env(Some(" 8 ")), (Some(8), None));
        // Zero: warn + fall back.
        let (j, w) = parse_jobs_env(Some("0"));
        assert_eq!(j, None);
        assert!(w.unwrap().contains("TGC_JOBS=0"));
        // Non-numeric: warn + fall back.
        let (j, w) = parse_jobs_env(Some("many"));
        assert_eq!(j, None);
        assert!(w.unwrap().contains("not a valid job count"));
        // Huge but parseable: warn + clamp.
        let (j, w) = parse_jobs_env(Some("1000000"));
        assert_eq!(j, Some(MAX_JOBS_CLAMP));
        assert!(w.unwrap().contains("clamping"));
        // Overflowing magnitude: warn + fall back, never panic.
        let (j, w) = parse_jobs_env(Some("99999999999999999999999999"));
        assert_eq!(j, None);
        assert!(w.is_some());
        // Negative numbers don't parse as usize: warn + fall back.
        let (j, w) = parse_jobs_env(Some("-2"));
        assert_eq!(j, None);
        assert!(w.is_some());
    }

    #[test]
    fn set_jobs_overrides_env_and_hardware() {
        let pool = Pool::new(0);
        assert_eq!(pool.jobs(), max_jobs());
        pool.set_jobs(3);
        assert_eq!(pool.jobs(), 3);
        pool.set_jobs(0); // clamps to 1
        assert_eq!(pool.jobs(), 1);
    }
}

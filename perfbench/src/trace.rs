//! Spans recorded around calls into the program, kept in memory and
//! written at exit as Chrome trace-event JSON.
//!
//! Nothing here reaches inside the program: the benchmark brackets the
//! public calls it makes, and [`StageObserver`] receives the stage
//! brackets the pipeline already reports through its `PassObserver`
//! hooks.

use crate::metrics::{json_num, json_str};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use treegion::{PassObserver, Stage, StageScope, StageStats};

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the trace (ids start at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Slice name (`parse`, `list-sched`, `request`, ...).
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Request or function id shared by the spans of one operation.
    pub req: u64,
    /// Thread the span ran on (small integer per thread).
    pub tid: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store. Cheap enough to leave on for a whole traced
/// run; the untraced run never builds one.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
    /// Spans beyond this count are dropped, so a long run cannot grow
    /// the trace without bound. [`Tracer::freeze`] lowers it.
    keep: AtomicU64,
}

impl Tracer {
    /// A tracer keeping at most `keep` spans for export.
    pub fn new(keep: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            keep: AtomicU64::new(keep as u64),
        }
    }

    /// Keeps the spans recorded so far and drops every later one: the
    /// exported trace then covers whole passes only.
    pub fn freeze(&self) {
        let kept = self.spans.lock().expect("tracer span list poisoned").len();
        self.keep.store(kept as u64, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id (for a parent whose children close first).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn tid(&self) -> u64 {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("tracer thread list poisoned");
        match threads.iter().position(|t| *t == me) {
            Some(i) => i as u64,
            None => {
                threads.push(me);
                (threads.len() - 1) as u64
            }
        }
    }

    /// Records a closed span under a pre-reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        req: u64,
    ) {
        let tid = self.tid();
        let mut spans = self.spans.lock().expect("tracer span list poisoned");
        if (spans.len() as u64) < self.keep.load(Ordering::Relaxed) {
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
                req,
                tid,
            });
        }
    }

    /// Records a closed span and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        req: u64,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, name, parent, start_ns, end_ns, req);
        id
    }

    /// The spans kept so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .clone()
    }

    /// Writes the kept spans as Chrome trace-event JSON (opens in
    /// Perfetto or `chrome://tracing`), with `meta` as the metadata
    /// object.
    pub fn write_chrome(&self, path: &std::path::Path, meta: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}",
                json_str(&s.name),
                s.tid,
                json_num(s.start_ns as f64 / 1e3),
                json_num(s.dur_ns() as f64 / 1e3),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            ));
        }
        out.push_str(&format!("\n], \"metadata\": {meta}}}\n"));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover (overlapping children counted
/// once), summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(s.name.clone()).or_default() += s.dur_ns() - covered.min(s.dur_ns());
    }
    out
}

/// Renders a self-time table, largest first, with each row's share of
/// `wall_ns`.
pub fn self_time_table(selfs: &BTreeMap<String, u64>, wall_ns: u64) -> String {
    let mut rows: Vec<(&String, &u64)> = selfs.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let mut out = String::from("# self-time (span minus child spans)\n");
    for (name, ns) in rows {
        out.push_str(&format!(
            "#   {name:<14} {:>12.3} ms {:>6.2}%\n",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall_ns.max(1) as f64
        ));
    }
    out
}

/// Per-stage totals gathered from the pipeline's own stage brackets.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTotals {
    /// Stage invocations.
    pub calls: u64,
    /// Summed stage time.
    pub nanos: u64,
    /// Summed stage counters (`pressure_peak` by maximum).
    pub stats: StageStats,
}

/// List-scheduling time split by region size, for the small-region
/// fixed-cost question.
#[derive(Clone, Copy, Debug, Default)]
pub struct SizeSplit {
    /// Nanoseconds on regions below the split.
    pub small_ns: u64,
    /// Lowered ops of regions below the split.
    pub small_ops: u64,
    /// Nanoseconds on regions at or above the split.
    pub large_ns: u64,
    /// Lowered ops of regions at or above the split.
    pub large_ops: u64,
}

/// Lowered ops per region at which list-scheduling time counts as
/// `large`.
pub const LARGE_REGION_OPS: usize = 16;

/// A `PassObserver` that turns every stage bracket into a span under the
/// current parent and sums the stage counters.
pub struct StageObserver<'t> {
    tracer: &'t Tracer,
    parent: AtomicU64,
    req: AtomicU64,
    totals: Mutex<[StageTotals; 5]>,
    split: Mutex<SizeSplit>,
}

impl<'t> StageObserver<'t> {
    /// An observer recording into `tracer`.
    pub fn new(tracer: &'t Tracer) -> Self {
        StageObserver {
            tracer,
            parent: AtomicU64::new(0),
            req: AtomicU64::new(0),
            totals: Mutex::new([StageTotals::default(); 5]),
            split: Mutex::new(SizeSplit::default()),
        }
    }

    /// Sets the span that the next stage brackets belong to, and the
    /// operation id they carry.
    pub fn enter(&self, parent: u64, req: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.req.store(req, Ordering::Relaxed);
    }

    /// Per-stage totals in `Stage::ALL` order.
    pub fn totals(&self) -> [StageTotals; 5] {
        *self.totals.lock().expect("observer totals poisoned")
    }

    /// The list-scheduling size split.
    pub fn split(&self) -> SizeSplit {
        *self.split.lock().expect("observer split poisoned")
    }
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("stage is in Stage::ALL")
}

impl PassObserver for StageObserver<'_> {
    fn stage_exit(
        &self,
        stage: Stage,
        _scope: StageScope<'_>,
        elapsed: Duration,
        stats: StageStats,
    ) {
        let end = self.tracer.now_ns();
        let ns = elapsed.as_nanos() as u64;
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.record(
            stage.name(),
            (parent != 0).then_some(parent),
            end.saturating_sub(ns),
            end,
            self.req.load(Ordering::Relaxed),
        );
        {
            let mut totals = self.totals.lock().expect("observer totals poisoned");
            let t = &mut totals[stage_index(stage)];
            t.calls += 1;
            t.nanos += ns;
            t.stats.regions += stats.regions;
            t.stats.ops += stats.ops;
            t.stats.edges += stats.edges;
            t.stats.hazard_hits += stats.hazard_hits;
            t.stats.deferral_parks += stats.deferral_parks;
            t.stats.pressure_peak = t.stats.pressure_peak.max(stats.pressure_peak);
            t.stats.pressure_parks += stats.pressure_parks;
            t.stats.spills += stats.spills;
        }
        if stage == Stage::ListSched {
            let mut split = self.split.lock().expect("observer split poisoned");
            if stats.ops < LARGE_REGION_OPS {
                split.small_ns += ns;
                split.small_ops += stats.ops as u64;
            } else {
                split.large_ns += ns;
                split.large_ops += stats.ops as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            req: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // pass [0,100) holds module [10,90); module holds parse [10,30)
        // and two overlapping function spans [30,60) and [50,80); the
        // first function holds list-sched [35,55).
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "module", 10, 90),
            span(3, Some(2), "parse", 10, 30),
            span(4, Some(2), "function", 30, 60),
            span(5, Some(2), "function", 50, 80),
            span(6, Some(4), "list-sched", 35, 55),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["pass"], 20); // 100 - 80
        assert_eq!(selfs["module"], 10); // 80 - (20 + union 30..80 = 50)
        assert_eq!(selfs["parse"], 20);
        assert_eq!(selfs["function"], 10 + 30); // (30 - 20) + 30
        assert_eq!(selfs["list-sched"], 20);
        // Self times partition the root's wall time exactly, less the
        // double-counted overlap of the two function spans (50..60).
        let total: u64 = selfs.values().sum();
        assert_eq!(total, 100 + 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "outer", 100, 200),
            span(2, Some(1), "inner", 50, 150),
            span(3, Some(1), "late", 190, 400),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["outer"], 100 - 50 - 10);
        assert_eq!(selfs["inner"], 100);
        assert_eq!(selfs["late"], 210);
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let t = Tracer::new(10);
        let root = t.record("pass", None, 0, 2_000, 7);
        t.record("parse", Some(root), 0, 1_000, 7);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_chrome(&path, "{\"seed\": 1}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with("{\"traceEvents\": ["), "{text}");
        assert!(text.contains("\"name\": \"parse\""), "{text}");
        assert!(text.contains("\"parent\": 1"), "{text}");
        assert!(text.contains("\"metadata\": {\"seed\": 1}"), "{text}");
    }
}

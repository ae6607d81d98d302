//! `perfbench`: the treegion repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]
//! ```
//!
//! Generates its inputs from `--seed`, runs one workload for about
//! `--seconds`, checks the program's outputs, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1` (which also writes a Chrome trace under
//! `--out`). Exits 1 when an output check fails. See `README.md` for the
//! workloads and what each metric means.

mod compile;
mod eval;
mod host;
mod inputs;
mod metrics;
mod serve;
mod trace;

use metrics::{json_str, Outcome, END_TO_END};
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["compile_suite", "paper_eval", "serve_oneshot_cold"];

/// One run's parameters and the report lines it collects besides the
/// result line.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Commit (or source digest) of the program under test.
    pub commit: String,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
    meta: Vec<(String, String)>,
    lines: Vec<String>,
}

impl Ctx {
    /// The measurement window.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Records one metadata field of the run.
    pub fn meta(&mut self, key: &str, value: String) {
        self.meta.push((key.to_string(), value));
    }

    /// Records one report row (printed before the result line).
    pub fn row(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a multi-line note (printed before the result line).
    pub fn note(&mut self, text: String) {
        self.lines.extend(text.lines().map(str::to_string));
    }

    /// The run metadata as a JSON object.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Writes the tracer's spans as this run's Chrome trace file.
    pub fn write_trace(&mut self, tracer: &trace::Tracer) -> Result<(), String> {
        let path = self
            .out_dir
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed));
        tracer
            .write_chrome(&path, &self.meta_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        self.meta("trace_file", path.display().to_string());
        Ok(())
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        out_dir: PathBuf::from("perfbench/out"),
        meta: Vec::new(),
        lines: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--commit" => ctx.commit = value.clone(),
            "--out" => ctx.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(ctx)
}

fn main() {
    let mut ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    ctx.meta("workload", ctx.workload.clone());
    ctx.meta("seed", ctx.seed.to_string());
    ctx.meta("seconds", ctx.seconds.to_string());
    ctx.meta("trace", (ctx.trace as u8).to_string());
    ctx.meta("commit", ctx.commit.clone());
    ctx.meta("nproc", host::nproc().to_string());
    ctx.meta("cpu_model", host::cpu_model());
    ctx.meta("setups", SETUPS.to_string());

    let mut out = Outcome::default();
    let ran = match ctx.workload.as_str() {
        "compile_suite" => compile::run(&mut ctx, &mut out),
        "paper_eval" => eval::run(&mut ctx, &mut out),
        _ => serve::run(&mut ctx, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        std::process::exit(1);
    }
    out.set("peak_rss_mb", host::peak_rss_mb());

    let declared: Vec<(String, &str)> = if ctx.trace {
        let names = metrics::per_layer();
        out.metrics.retain(|k, _| names.iter().any(|(n, _)| n == k));
        out.default_zero(names.iter().map(|(n, _)| n.clone()));
        names
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for line in &ctx.lines {
        println!("# {line}");
    }
    println!("# meta {}", ctx.meta_json());
    match out.render(&declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !out.correct {
        std::process::exit(1);
    }
}

//! The jigsaw benchmark: one command that builds its inputs from a seed,
//! runs one workload for a fixed time, checks every output, and prints
//! each metric by name with its unit, then one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload day_triage|window_queries|live_ingest|all \
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the traced composition of the same layers and reports the per-layer
//! metrics, the tracing overhead among them, and writes the spans to
//! `.bench_work/spans-<workload>.jsonl`. See `perfbench/README.md`.

mod common;
mod day;
mod layers;
mod live;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod window;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: jigsaw_bench::alloc::CountingAlloc = jigsaw_bench::alloc::CountingAlloc;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["day_triage", "window_queries", "live_ingest"];

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: pipeline runs, queries, live events.
    pub attempted: u64,
    /// Operations that failed, errored, or produced wrong output.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The metrics of the JSON line, in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The workload's metrics under their descriptive names, printed for
    /// people (not part of the JSON line).
    pub named: Vec<(String, f64, &'static str)>,
    /// Span recorders of the traced iterations.
    pub spans: Vec<trace::Tracer>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.fail_n(1, msg);
    }

    /// Records `n` failed operations.
    pub fn fail_n(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.failures.push(msg);
    }

    /// Adds a metric of the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a descriptively named metric for the human-readable lines.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Sets the per-layer metrics: for each, the median over the traced
    /// iterations.
    pub fn set_layers(&mut self, runs: &[BTreeMap<String, f64>]) {
        for name in layers::PER_LAYER {
            let v: Vec<f64> = runs.iter().filter_map(|m| m.get(name).copied()).collect();
            self.metric(name, stats::median(&v), layers::unit_of(name));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload day_triage|window_queries|live_ingest|all --seed N --seconds N --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => {
                a.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"));
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload `{}`", a.workload));
    }
    a
}

/// Sets up and runs one workload.
fn run_workload(name: &str, args: &Args, work: &Path) -> Outcome {
    let dir = work.join(format!("corpus-{name}"));
    let mut out = Outcome::default();
    let env = match name {
        "live_ingest" => {
            let (env, loaded) = common::set_up(&dir, live::Loaded::load);
            match loaded {
                Ok(l) => live::run(&env, &l, args.seed, args.seconds, args.trace, &mut out),
                Err(e) => out.fail(format!("load events: {e}")),
            }
            env
        }
        _ => {
            let (env, ()) = common::set_up(&dir, |_| ());
            match name {
                "day_triage" => day::run(&env, args.seed, args.seconds, args.trace, &mut out),
                _ => window::run(&env, args.seed, args.seconds, args.trace, &mut out),
            }
            env
        }
    };
    out.attempted += common::SETUP_REPS as u64;
    if env.setup_failures > 0 {
        out.fail_n(
            env.setup_failures,
            format!(
                "corpus digest unstable across set-ups (first {})",
                env.digest
            ),
        );
    }
    if !args.trace {
        out.metric("setup_s", env.setup_s, "s");
        out.named("setup_s", env.setup_s, "s");
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.named("failed_frac", frac, "ratio");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let work = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let mut stdout = std::io::stdout().lock();
    for name in &names {
        let out = run_workload(name, &args, &work);
        for msg in &out.failures {
            eprintln!("FAIL {name}: {msg}");
        }
        for (k, v, u) in &out.named {
            let _ = writeln!(stdout, "{name} {k} = {v:.6} {u}");
        }
        for (k, v, u) in &out.metrics {
            let _ = writeln!(stdout, "metric {k} = {v:.6} {u}");
        }
        if args.trace {
            let path = work.join(format!("spans-{name}.jsonl"));
            let written = std::fs::File::create(&path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                for t in &out.spans {
                    t.write_jsonl(&mut w)?;
                }
                w.flush()
            });
            if let Err(e) = written {
                eprintln!("perfbench: write {}: {e}", path.display());
            }
        }
        attempted += out.attempted;
        failed += out.failed;
        if names.len() == 1 {
            metrics = out.metrics;
        } else {
            // Set-up and failure share are per workload; the rest of the
            // descriptive names are unique across workloads.
            metrics.extend(out.named.into_iter().map(|(k, v, u)| match k.as_str() {
                "setup_s" | "failed_frac" => (format!("{name}.{k}"), v, u),
                _ => (k, v, u),
            }));
        }
    }
    let correct = failed == 0;
    let _ = writeln!(
        stdout,
        "correct = {correct} ({failed} of {attempted} operations failed)"
    );
    let _ = writeln!(
        stdout,
        "{}",
        json_line(correct, attempted, failed, &metrics)
    );
    let _ = stdout.flush();
    if !correct {
        std::process::exit(1);
    }
}

//! `repro` — regenerates every table and figure of the paper's evaluation,
//! and records/re-merges on-disk trace corpora.
//!
//! ```text
//! repro [--seed N] [--scale F] [--parallel] [--threads N]
//!       [all|smoke|table1|fig4|fig6|fig7|fig8|fig9|fig10|fig11|
//!        link-stats|coverage-oracle|ablations|baselines|
//!        record --corpus DIR [--scenario NAME] [--block-bytes N] [--snaplen N]|
//!        merge --corpus DIR [--from US --to US] [--verify] [--max-buffered N]|
//!        analyze --corpus DIR [--from US --to US]|
//!        tail --corpus DIR [--chunk-bytes N] [--max-lag-us N] [--verify]|
//!        diagnose --corpus DIR [--from US --to US] [--golden FILE] [--bless]|
//!        sweep [--scenario NAME] [--golden DIR] [--corpus DIR] [--bless]]
//! ```
//!
//! Usage errors — an unknown flag or subcommand, a flag value that does
//! not parse, a missing required flag, or a second subcommand — exit 2
//! with a one-line message. Correctness failures (verify divergence,
//! `--max-buffered` exceeded, golden mismatch) exit 1, and so does a
//! corpus that is missing, fails its recorded digest, or holds a bad wired
//! member — one stderr line, never a panic.
//!
//! `smoke` is the CI entry point: a seconds-long `ScenarioConfig::tiny`
//! run through the full pipeline — once with the serial merger and once
//! with the channel-sharded parallel merge (`--threads` caps the shards),
//! asserting both produce the same jframe stream — failing loudly if
//! anything degenerates.
//!
//! The corpus subcommands reproduce the paper's actual deployment shape, where
//! day-long jigdump traces lived on disk and the merger streamed them:
//! * `record` simulates a scenario and writes it as a corpus (one
//!   compressed, indexed trace per radio + manifest + digest);
//! * `merge` streams a corpus back through the pipeline with
//!   window-bounded memory, printing the jframe count and stream digest;
//!   `--verify` re-simulates from the manifest seed and asserts the
//!   disk-backed stream is identical to the in-memory serial AND sharded
//!   runs, and `--max-buffered N` fails the run if peak merger residency
//!   ever exceeds N events (the CI memory-bound check);
//! * `analyze` streams the **entire figure suite** off a recorded corpus
//!   through the full pipeline (serial or, with `--parallel`, the
//!   channel-sharded merge) in one bounded-memory pass — no `Vec<JFrame>`
//!   is ever materialized. Every figure renders, followed by stable
//!   machine-readable `record <figure>.<key> <value>` lines. The wired
//!   distribution-network trace Figure 6 compares against is stored in the
//!   corpus (`wired.jigw`), so nothing is re-simulated — the whole suite
//!   runs from disk alone;
//! * `tail` replays a recorded corpus through the **live ingest service**
//!   (`jigsaw_live`): each radio trace is tailed in `--chunk-bytes`-sized
//!   chunks, exactly the byte stream a still-growing file would deliver,
//!   and the always-on merger emits jframes continuously under the
//!   bounded-lag contract, then renders the same figure suite and `record`
//!   lines as `analyze` — CI diffs them byte for byte. `--parallel` drives
//!   the same tailed sources through the channel-sharded batch merge
//!   instead; `--verify` re-merges the corpus in batch mode and asserts
//!   the live jframe stream is identical (count + digest) — the
//!   chunking-invariance gate, pinned at several chunk sizes.
//!
//! `sweep` is the standing golden-record harness: every scenario of the
//! adversarial sweep matrix (`jigsaw_sim::spec::ScenarioSpec::sweep_matrix`
//! — roaming, hidden terminals, co-channel re-allocation, protection-mode
//! coexistence, QoS mixes, error stress) runs end-to-end — record to a
//! disk corpus, full merges on both drivers from memory and disk, the
//! figure suite's machine records serial vs sharded, and a windowed
//! replay — and the surviving digests + `record` lines are diffed line by
//! line against per-scenario golden files under `.github/golden/sweep/`.
//! `--bless` rewrites the goldens from the current run; `--scenario`
//! restricts to one matrix entry.
//!
//! `merge`, `analyze`, and `diagnose` accept a **replay window**:
//! `--from US --to US` (anchor-universal µs, half-open `[from, to)`)
//! restricts the run to that interval of the corpus — reads index-seek to
//! the window, the clock bootstrap re-anchors at its warm-up start, and
//! disk bytes scale with the window, not the corpus (the paper's "start at
//! 11 am without decompressing the morning"). `repro` rejects `--from ≥
//! --to` and windows that miss the corpus's recorded span outright. A
//! windowed `merge --verify` replays the *full* corpus clipped to the same
//! window and asserts both runs unified identically (per-channel
//! count + clock-invariant digest — merged timestamps agree only to the
//! documented re-anchor tolerance, so the byte-exact comparison is on
//! capture-side fields).
//!
//! `--parallel` switches the single-trace figures onto
//! `Pipeline::run_parallel` (`--threads` caps the shard threads).
//! Timing lives in the separate `perfbench/` package (see its README):
//! `repro` reports wall times in passing but records no benchmark.
//!
//! Each figure subcommand simulates the building (or reuses the shared run
//! in `all` mode), pushes the traces through the Jigsaw pipeline, and
//! prints the same rows/series the paper reports, with the paper's numbers
//! quoted alongside for comparison. Absolute numbers differ (the substrate
//! is a simulator, not the UCSD testbed); the shapes are the claim.

// The repro CLI's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use jigsaw_analysis::activity::ActivityAnalysis;
use jigsaw_analysis::coverage::{pods_subset, radios_of_pods, CoverageAnalysis, OracleCoverage};
use jigsaw_analysis::dispersion::DispersionAnalysis;
use jigsaw_analysis::interference::InterferenceAnalysis;
use jigsaw_analysis::protection::ProtectionAnalysis;
use jigsaw_analysis::suite::{record_lines, Figure};
use jigsaw_analysis::summary::SummaryBuilder;
use jigsaw_analysis::tcploss::TcpLossAnalysis;
use jigsaw_bench::cli::{self, ArgSpec};
use jigsaw_bench::{
    minute_bin_us, paper_scenario, practical_minute_us, subset_streams, JframeStreamDigest,
    OpenedCorpus, WindowedStreamDigest,
};
use jigsaw_core::baseline::{naive_merge, yeo_merge};
use jigsaw_core::observer::{OnExchange, OnJFrame};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig, Reconstruction};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::unify::MergeConfig;
use jigsaw_core::JFrame;
use jigsaw_live::{ChunkedFileTail, LiveConfig, LiveMerger, ManualClock, TailStream};
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::TruthConfig;
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::TimeWindow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone)]
struct Args {
    seed: u64,
    scale: f64,
    /// Run single-trace figures through the channel-sharded merge.
    parallel: bool,
    /// Shard-thread cap (0 = one per channel, up to the core count).
    threads: usize,
    /// Corpus directory (`record` / `merge` / `analyze` / `tail` /
    /// `diagnose`; the output root for `sweep`).
    corpus: Option<String>,
    /// Scenario name: a preset (tiny | small | paper_day) or a sweep-matrix
    /// entry for `record`; a matrix filter for `sweep`.
    scenario: Option<String>,
    /// Golden override: a directory for `sweep` (default
    /// `.github/golden/sweep`), a golden *file* for `diagnose` (no
    /// default — without it, diagnose prints but never compares).
    golden: Option<String>,
    /// `sweep`/`diagnose`: rewrite the golden from this run.
    bless: bool,
    /// Trace block size in bytes for `record` (0 = format default).
    block_bytes: usize,
    /// Snap length for `record` (sim traces are already capture-snapped).
    snaplen: u32,
    /// `merge`: re-simulate from the manifest and assert disk ≡ memory.
    verify: bool,
    /// `merge`: fail if peak merger residency exceeds this many events
    /// (0 = no limit).
    max_buffered: u64,
    /// Replay window start, anchor-universal µs (`merge`/`analyze`/
    /// `diagnose`).
    from: Option<u64>,
    /// Replay window end (exclusive), anchor-universal µs.
    to: Option<u64>,
    /// `tail`: chunk size each trace tail is fed in, bytes.
    chunk_bytes: usize,
    /// `tail`: wall-clock silence before a radio is declared lagging, µs.
    max_lag_us: u64,
    cmd: String,
}

/// Exits 2 with a one-line message — the usage-error contract every
/// subcommand shares (correctness failures exit 1 instead).
fn usage_error(msg: &str) -> ! {
    cli::usage_error("repro", msg)
}

/// Every flag `repro` accepts, as one declarative table (see
/// [`jigsaw_bench::cli`]). Valued flags validate eagerly — a value that
/// doesn't parse must never silently fall back to the default, even for
/// subcommands that ignore the flag, because CI passes these flags as
/// pass/fail gates.
static FLAGS: &[ArgSpec<Args>] = &[
    ArgSpec::parsed("--seed", "an integer seed", |a, v| {
        cli::assign(&mut a.seed, v)
    }),
    ArgSpec::parsed("--scale", "a scale factor", |a, v| {
        cli::assign(&mut a.scale, v)
    }),
    ArgSpec::switch("--parallel", |a| a.parallel = true),
    ArgSpec::parsed("--threads", "a thread count", |a, v| {
        cli::assign(&mut a.threads, v)
    }),
    ArgSpec::text("--corpus", |a, v| a.corpus = Some(v)),
    ArgSpec::text("--scenario", |a, v| a.scenario = Some(v)),
    ArgSpec::text("--golden", |a, v| a.golden = Some(v)),
    ArgSpec::switch("--bless", |a| a.bless = true),
    ArgSpec::parsed("--block-bytes", "a block size in bytes", |a, v| {
        cli::assign(&mut a.block_bytes, v)
    }),
    ArgSpec::parsed("--snaplen", "a snap length", |a, v| {
        cli::assign(&mut a.snaplen, v)
    }),
    ArgSpec::switch("--verify", |a| a.verify = true),
    ArgSpec::parsed("--from", "a timestamp in universal µs", |a, v| {
        cli::assign_some(&mut a.from, v)
    }),
    ArgSpec::parsed("--to", "a timestamp in universal µs", |a, v| {
        cli::assign_some(&mut a.to, v)
    }),
    ArgSpec::parsed("--max-buffered", "an event count", |a, v| {
        cli::assign(&mut a.max_buffered, v)
    }),
    ArgSpec::parsed("--chunk-bytes", "a chunk size in bytes", |a, v| {
        cli::assign(&mut a.chunk_bytes, v)
    }),
    ArgSpec::parsed("--max-lag-us", "a lag bound in µs", |a, v| {
        cli::assign(&mut a.max_lag_us, v)
    }),
];

fn parse_args() -> Args {
    let mut args = Args {
        seed: 20060124, // the paper's trace date
        scale: 0.25,
        parallel: false,
        threads: 0,
        corpus: None,
        scenario: None,
        golden: None,
        bless: false,
        block_bytes: 0,
        snaplen: 65_535,
        verify: false,
        max_buffered: 0,
        from: None,
        to: None,
        chunk_bytes: 64 * 1024,
        max_lag_us: 2_000_000,
        cmd: String::from("all"),
    };
    let parser = cli::Parser {
        program: "repro",
        flags: FLAGS,
    };
    if let Some(cmd) = parser.parse(std::env::args().skip(1), &mut args) {
        args.cmd = cmd;
    }
    args
}

fn pipeline_config(args: &Args) -> PipelineConfig {
    PipelineConfig {
        shard: ShardConfig {
            max_threads: args.threads,
            ..ShardConfig::default()
        },
        ..PipelineConfig::default()
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("== {title}");
    println!("================================================================");
}

fn simulate(seed: u64, scale: f64) -> SimOutput {
    let cfg = paper_scenario(seed, scale);
    let t0 = Instant::now();
    eprintln!(
        "[sim] building day: {} pods / {} radios, {} APs, {} clients, {:.0}s sim-time…",
        cfg.n_pods,
        cfg.n_pods * 4,
        cfg.n_aps + cfg.n_external_aps,
        cfg.n_clients,
        cfg.day_us as f64 / 1e6
    );
    let out = cfg.run();
    eprintln!(
        "[sim] done in {:.1?}: {} capture events, {} wired packets, {}/{} flows",
        t0.elapsed(),
        out.total_events(),
        out.wired.len(),
        out.stats.flows_completed,
        out.stats.flows_opened
    );
    eprintln!(
        "[sim] queue_drops {} retry_failures {} wired_losses {} frames {} tcp_rto {} tcp_fast {}",
        out.stats.queue_drops,
        out.stats.retry_failures,
        out.stats.wired_losses,
        out.stats.frames_transmitted,
        out.stats.tcp_rto_retx,
        out.stats.tcp_fast_retx
    );
    out
}

fn main() {
    let args = parse_args();
    match args.cmd.as_str() {
        "all" => run_all(&args),
        "table1" | "fig4" | "fig8" | "fig9" | "fig10" | "fig11" | "fig6" | "link-stats" => {
            run_main_trace(&args, Some(args.cmd.as_str()))
        }
        "smoke" => run_smoke(&args),
        "fig7" => run_fig7(args.seed, args.scale),
        "coverage-oracle" => run_oracle(args.seed, args.scale),
        "ablations" => run_ablations(args.seed, args.scale),
        "baselines" => run_baselines(args.seed, args.scale),
        "record" => run_record(&args),
        "merge" => run_corpus_merge(&args),
        "analyze" => run_analyze(&args),
        "tail" => run_tail(&args),
        "diagnose" => run_diagnose(&args),
        "sweep" => run_sweep(&args),
        other => usage_error(&format!("unknown subcommand `{other}`")),
    }
}

fn run_all(args: &Args) {
    run_main_trace(args, None);
    run_fig7(args.seed, args.scale);
    run_oracle(args.seed, args.scale);
    run_ablations(args.seed, args.scale);
    run_baselines(args.seed, args.scale);
}

/// One shared simulation + pipeline pass feeding every single-trace figure.
fn run_main_trace(args: &Args, only: Option<&str>) {
    let (seed, scale) = (args.seed, args.scale);
    let out = simulate(seed, scale);
    let day = out.duration_us;
    let bin = minute_bin_us(day) * 60; // "hour" bins for readable tables
    let practical_timeout = practical_minute_us(day);

    let mut summary = SummaryBuilder::new(out.radio_meta.len());
    let mut dispersion = DispersionAnalysis::new();
    let mut activity = ActivityAnalysis::new(0, bin);
    let mut interference = InterferenceAnalysis::new();
    let mut protection = ProtectionAnalysis::new(0, bin, practical_timeout);
    let ap_addrs: Vec<jigsaw_ieee80211::MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    let ap_lookup = move |sid: u16| ap_addrs[usize::from(sid)];
    let mut coverage = CoverageAnalysis::new(&out.wired, &ap_lookup, 10_000_000);
    let mut tcploss = TcpLossAnalysis::new();

    let cfg = pipeline_config(args);
    let t0 = Instant::now();
    // One observer tuple wires every analysis into the single pass —
    // multi-hook analyses (interference consumes jframes AND attempts)
    // just implement both hooks, so nothing needs interior mutability.
    let obs = (
        &mut summary,
        &mut dispersion,
        &mut activity,
        &mut interference,
        &mut protection,
        &mut coverage,
        &mut tcploss,
    );
    let report = if args.parallel {
        Pipeline::run_parallel(out.memory_streams(), &cfg, obs)
    } else {
        Pipeline::run(out.memory_streams(), &cfg, obs)
    }
    .expect("pipeline");
    let elapsed = t0.elapsed();
    let realtime_factor = day as f64 / 1e6 / elapsed.as_secs_f64();
    let driver = if args.parallel {
        "sharded merge"
    } else {
        "serial merge"
    };
    eprintln!(
        "[pipeline] merged {} events into {} jframes in {:.1?} ({realtime_factor:.1}x faster than real time, {driver})",
        report.merge.events_in, report.merge.jframes_out, elapsed
    );

    let run = |name: &str| only.is_none() || only == Some(name);

    if run("table1") {
        let t = summary.finish();
        banner(Figure::title(&t));
        print!("{}", Figure::render(&t));
        println!(
            "(paper, full scale: 2.7B events, 47% errors, 1.58B unified, 530M jframes, 2.97 events/jframe, 1026 clients)"
        );
    }
    if run("fig4") {
        let fig = dispersion.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render(20));
    }
    if run("fig6") {
        let fig = coverage.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render());
    }
    if run("fig8") {
        let fig = activity.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render());
        println!(
            "broadcast airtime share: {:.3} (paper: ~0.10 'as seen by any given monitor')",
            fig.broadcast_airtime_fraction()
        );
    }
    if run("fig9") {
        let fig = interference.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render());
        println!(
            "paper: 88% of (s,r) pairs interfered; median X ≤ 0.025; 10% ≥ 0.1; 5% ≥ 0.2; 11% truncated; background loss 0.12; AP senders 56%"
        );
        println!(
            "measured: median X = {:.4}; P[X ≥ 0.1] = {:.2}; P[X ≥ 0.2] = {:.2}",
            fig.x_cdf.quantile(0.5).unwrap_or(0.0),
            fig.x_cdf.fraction_at_least(0.1),
            fig.x_cdf.fraction_at_least(0.2),
        );
    }
    if run("fig10") {
        let fig = protection.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render());
    }
    if run("fig11") {
        let fig = tcploss.finish();
        banner(Figure::title(&fig));
        print!("{}", fig.render());
        println!(
            "loss provenance: original-delivered {} / original-ambiguous {} / unobserved {}",
            report.transport.losses_original_delivered,
            report.transport.losses_original_ambiguous,
            report.transport.losses_no_original
        );
    }
    if run("link-stats") {
        banner("§5.1 — link-layer inference rates");
        let a = report.link.attempts.max(1) as f64;
        let x = report.link.exchanges.max(1) as f64;
        println!(
            "attempts: {} ({:.2}% inferred; paper 0.58%)",
            report.link.attempts,
            100.0 * report.link.attempts_inferred as f64 / a
        );
        println!(
            "exchanges: {} ({:.2}% inferred; paper 0.14%)",
            report.link.exchanges,
            100.0 * report.link.exchanges_inferred as f64 / x
        );
        println!(
            "delivered {} / ambiguous {}; transport resolved {} ambiguous via covering ACKs; {} covered holes",
            report.link.delivered,
            report.link.ambiguous,
            report.transport.ambiguous_resolved,
            report.transport.covered_holes
        );
        println!(
            "bootstrap: {} components, {} sets, {} coarse radios",
            report.bootstrap.components,
            report.bootstrap.sets_used,
            report.bootstrap.coarse.iter().filter(|&&c| c).count()
        );
    }
}

/// Figure 7: coverage under pod reduction (39 → 30 → 20 → 10 pods).
fn run_fig7(seed: u64, scale: f64) {
    banner("FIGURE 7 — coverage vs number of sensor pods (paper §6)");
    let out = simulate(seed, scale);
    let ap_addrs: Vec<jigsaw_ieee80211::MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    println!("pods  radios  bootstrap_components  ap_coverage  client_coverage");
    for keep in [39usize, 30, 20, 10] {
        let pods = pods_subset(39, keep);
        let radios = radios_of_pods(&pods);
        let streams = subset_streams(&out, &radios);
        let ap_addrs = ap_addrs.clone();
        let ap_lookup = move |sid: u16| ap_addrs[usize::from(sid)];
        let mut coverage = CoverageAnalysis::new(&out.wired, &ap_lookup, 10_000_000);
        let report =
            Pipeline::run(streams, &PipelineConfig::default(), &mut coverage).expect("pipeline");
        let fig = coverage.finish();
        println!(
            "{keep:>4} {:>7} {:>20} {:>12.3} {:>16.3}",
            radios.len(),
            report.bootstrap.components,
            fig.ap_coverage,
            fig.client_coverage
        );
    }
    println!("(paper: AP coverage stays ~0.94 down to 20 pods; client coverage 0.92 → 0.71 → 0.68; 10 pods partitions the bootstrap)");
}

/// §6 oracle experiment: one instrumented client vs the merged trace.
fn run_oracle(seed: u64, scale: f64) {
    banner("§6 ORACLE — instrumented-client coverage (paper: 95%)");
    let mut cfg = paper_scenario(seed, (scale * 0.5).max(0.05));
    cfg.truth = TruthConfig::OracleClient(0);
    let out = cfg.run();
    let oracle_addr = out
        .stations
        .iter()
        .find(|s| !s.is_ap)
        .expect("client exists")
        .addr;
    let mut oracle = OracleCoverage::new(&out.truth.transmissions, oracle_addr, 5_000);
    Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        &mut oracle,
    )
    .expect("pipeline");
    let fig = oracle.finish();
    println!(
        "oracle client {oracle_addr}: {}/{} link events captured = {:.3} (paper: 0.95; prior work 0.80-0.97)",
        fig.observed, fig.expected, fig.coverage
    );
}

/// Design-choice ablations called out in DESIGN.md.
fn run_ablations(seed: u64, scale: f64) {
    banner("ABLATIONS — sync design choices (quality metrics)");
    let out = simulate(seed, (scale * 0.5).max(0.05));
    let configs: Vec<(&str, MergeConfig)> = vec![
        ("jigsaw (full)", MergeConfig::default()),
        (
            "no skew EWMA",
            MergeConfig {
                ewma_alpha: 0.0,
                ..MergeConfig::default()
            },
        ),
        (
            "no resync (Yeo-style)",
            MergeConfig {
                resync_enabled: false,
                ..MergeConfig::default()
            },
        ),
        (
            "window 1ms",
            MergeConfig {
                search_window_us: 1_000,
                ..MergeConfig::default()
            },
        ),
        (
            "window 100ms",
            MergeConfig {
                search_window_us: 100_000,
                ..MergeConfig::default()
            },
        ),
        (
            "resync threshold 100us",
            MergeConfig {
                resync_threshold_us: 100,
                ..MergeConfig::default()
            },
        ),
    ];
    println!("config                  jframes   avg_inst  p50_disp  p99_disp  resyncs");
    for (name, merge) in configs {
        let cfg = PipelineConfig {
            merge,
            ..PipelineConfig::default()
        };
        let mut disp = DispersionAnalysis::new();
        let report = Pipeline::run(out.memory_streams(), &cfg, &mut disp).expect("pipeline");
        let fig = disp.finish();
        println!(
            "{name:<22} {:>9} {:>9.2} {:>8.0} {:>9.0} {:>8}",
            report.merge.jframes_out,
            report.merge.events_in as f64 / report.merge.jframes_out.max(1) as f64,
            fig.cdf.quantile(0.5).unwrap_or(0.0),
            fig.cdf.quantile(0.99).unwrap_or(0.0),
            report.merge.resyncs,
        );
    }
}

/// CI smoke: the tiny scenario through the whole sim → merge → analysis
/// path in a few seconds, with hard failures on degenerate output — run
/// once serial and once through the channel-sharded merge, asserting both
/// drivers produce the identical jframe stream.
fn run_smoke(args: &Args) {
    banner("SMOKE — ScenarioConfig::tiny, serial vs channel-sharded");
    let t0 = Instant::now();
    let out = jigsaw_sim::scenario::ScenarioConfig::tiny(args.seed).run();
    let events = out.total_events();

    let mut exchanges = 0u64;
    let mut serial_keys: Vec<(u64, u8, u32)> = Vec::new();
    let ts = Instant::now();
    let report = Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        (
            OnJFrame(|jf: &JFrame| serial_keys.push((jf.ts, jf.channel.number(), jf.wire_len))),
            OnExchange(|_: &jigsaw_core::link::exchange::Exchange| exchanges += 1),
        ),
    )
    .expect("pipeline");
    let serial_t = ts.elapsed();

    // Parallel pass: by default force one shard thread per channel even on
    // small machines — CI must exercise the threaded path, not the
    // degenerate single-shard fallback. `--threads N` overrides, so the CI
    // thread matrix (1/2/4) can pin the serial ≡ sharded assertion at
    // every shard layout, including channels split across fewer shards.
    let channels = jigsaw_trace::stream::distinct_channels(&out.radio_meta).len();
    let threads = if args.threads == 0 {
        channels.max(1)
    } else {
        args.threads
    };
    let cfg = PipelineConfig {
        shard: ShardConfig {
            max_threads: threads,
            ..ShardConfig::default()
        },
        ..PipelineConfig::default()
    };
    let mut par_exchanges = 0u64;
    let mut par_keys: Vec<(u64, u8, u32)> = Vec::new();
    let tp = Instant::now();
    let par_report = Pipeline::run_parallel(
        out.memory_streams(),
        &cfg,
        (
            OnJFrame(|jf: &JFrame| par_keys.push((jf.ts, jf.channel.number(), jf.wire_len))),
            OnExchange(|_: &jigsaw_core::link::exchange::Exchange| par_exchanges += 1),
        ),
    )
    .expect("parallel pipeline");
    let par_t = tp.elapsed();

    println!(
        "events {events}  jframes {}  exchanges {exchanges}  flows {}  serial {serial_t:.1?}  sharded({channels} ch, {threads} thr) {par_t:.1?}  total {:.1?}",
        report.merge.jframes_out,
        report.flows.len(),
        t0.elapsed()
    );
    assert!(events > 0, "simulation produced no capture events");
    assert!(report.merge.jframes_out > 0, "merger produced no jframes");
    assert!(exchanges > 0, "link layer reconstructed no exchanges");
    assert_eq!(
        report.merge.events_in, events,
        "merger dropped events on the floor"
    );
    // Sharded ≡ serial: same events, same jframe count, same stream.
    assert_eq!(
        par_report.merge.events_in, report.merge.events_in,
        "sharded merge dropped events"
    );
    assert_eq!(
        par_report.merge.jframes_out, report.merge.jframes_out,
        "sharded merge jframe count diverged from serial"
    );
    assert_eq!(
        par_keys, serial_keys,
        "sharded merge jframe stream diverged from serial"
    );
    assert_eq!(
        par_exchanges, exchanges,
        "downstream reconstruction diverged"
    );
    println!(
        "smoke OK (serial == sharded, {} jframes)",
        serial_keys.len()
    );
}

/// The corpus directory or a loud exit (the corpus subcommands are useless
/// without one).
fn corpus_dir(args: &Args) -> std::path::PathBuf {
    match &args.corpus {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            eprintln!("{}: --corpus <dir> is required", args.cmd);
            std::process::exit(2);
        }
    }
}

/// Exits 1 with a one-line `<subcommand>: <msg>` on stderr — the
/// correctness-failure half of the exit-code contract.
fn fail(args: &Args, msg: &str) -> ! {
    eprintln!("{}: {msg}", args.cmd);
    std::process::exit(1);
}

/// Opens `--corpus` through [`jigsaw_bench::open_corpus`] and describes it
/// in one line. A corpus that is missing, fails its digest, or holds a bad
/// wired member exits 1.
fn open_corpus(args: &Args) -> OpenedCorpus {
    let dir = corpus_dir(args);
    let opened = jigsaw_bench::open_corpus(&dir).unwrap_or_else(|e| fail(args, &e));
    let (corpus, m) = (&opened.corpus, opened.corpus.manifest());
    println!(
        "corpus {}: scenario {} seed {} scale {} — {} radios, {} events, {:.2} MB",
        dir.display(),
        m.scenario,
        m.seed,
        m.scale,
        m.radios.len(),
        corpus.total_events(),
        corpus.data_bytes().unwrap_or(0) as f64 / 1e6
    );
    opened
}

/// The corpus's recorded universal-time span (`None` when it records no
/// events); an unreadable index exits 1.
fn corpus_span(args: &Args, corpus: &Corpus) -> Option<(u64, u64)> {
    corpus
        .universal_span()
        .unwrap_or_else(|e| fail(args, &format!("read corpus indexes: {e}")))
}

/// The validated replay window, or `None` when no `--from`/`--to` was
/// given. Rejects half-specified windows, `from ≥ to`, and windows that
/// miss the corpus's recorded span — every one of these would otherwise be
/// an empty run that *looks* like a clean result.
fn replay_window(args: &Args, corpus: &Corpus) -> Option<TimeWindow> {
    let window = match (args.from, args.to) {
        (None, None) => return None,
        (Some(from), Some(to)) => TimeWindow::new(from, to).unwrap_or_else(|| {
            eprintln!(
                "{}: --from {from} must be strictly below --to {to}",
                args.cmd
            );
            std::process::exit(2);
        }),
        _ => {
            eprintln!("{}: --from and --to must be given together", args.cmd);
            std::process::exit(2);
        }
    };
    match corpus_span(args, corpus) {
        Some((lo, hi)) if window.overlaps(lo, hi) => Some(window),
        Some((lo, hi)) => {
            eprintln!(
                "{}: window {window} lies outside the corpus span [{lo}, {hi}] (universal µs)",
                args.cmd
            );
            std::process::exit(2);
        }
        None => {
            eprintln!("{}: corpus records no events, nothing to window", args.cmd);
            std::process::exit(2);
        }
    }
}

/// `record`: simulate a scenario and persist it as an on-disk corpus.
fn run_record(args: &Args) {
    banner("RECORD — simulate and persist a trace corpus");
    let dir = corpus_dir(args);
    let scenario = args.scenario.as_deref().unwrap_or("paper_day");
    let Some(cfg) = jigsaw_bench::scenario_by_name(scenario, args.seed, args.scale) else {
        usage_error(&format!(
            "unknown scenario `{scenario}` (expected tiny | small | paper_day, or a sweep-matrix name)"
        ));
    };
    let t0 = Instant::now();
    let out = cfg.run();
    let sim_t = t0.elapsed();
    let t0 = Instant::now();
    let summary = jigsaw_bench::record_corpus(
        &out,
        &dir,
        scenario,
        args.seed,
        args.scale,
        args.snaplen,
        args.block_bytes,
    )
    .expect("record corpus");
    println!(
        "recorded {} radios / {} events to {} in {:.1?} (sim {sim_t:.1?}): {:.2} MB on disk, digest {}",
        summary.radios,
        summary.events,
        dir.display(),
        t0.elapsed(),
        summary.data_bytes as f64 / 1e6,
        summary.digest
    );
}

/// `merge --corpus`: stream a recorded corpus through the pipeline with
/// window-bounded memory; `--verify` asserts the disk-backed jframe stream
/// is identical to in-memory serial AND sharded runs at the manifest seed.
/// With `--from/--to` the merge is a windowed replay, and `--verify`
/// instead asserts it unified exactly what the full replay clipped to the
/// same window unifies (per-channel count + clock-invariant digest).
fn run_corpus_merge(args: &Args) {
    banner("MERGE — stream an on-disk corpus through unification");
    let corpus = open_corpus(args);
    if let Some(window) = replay_window(args, &corpus.corpus) {
        return run_windowed_merge(args, &corpus, window);
    }

    let cfg = pipeline_config(args);
    let mut digest = JframeStreamDigest::new();
    let obs = OnJFrame(|jf: &JFrame| digest.observe(jf));
    let t0 = Instant::now();
    let pass = corpus
        .pass(&cfg, args.parallel, obs)
        .unwrap_or_else(|e| fail(args, &e));
    let elapsed = t0.elapsed();
    let stats = &pass.pipeline.merge;
    let (events, peak) = (stats.events_in, stats.peak_buffered);
    let driver = if args.parallel { "sharded" } else { "serial" };
    println!(
        "merged {events} events -> {} jframes in {elapsed:.1?} ({driver}, {:.0} events/s)",
        digest.count(),
        events as f64 / elapsed.as_secs_f64().max(1e-12)
    );
    println!(
        "stream digest {}  peak buffered {peak} events  disk bytes in {}",
        digest.hex(),
        pass.disk_bytes_in
    );
    if events != corpus.corpus.total_events() {
        fail(args, "merge dropped events relative to the manifest");
    }
    check_max_buffered(args, peak);

    if args.verify {
        let m = corpus.corpus.manifest();
        let Some(cfg_sim) = jigsaw_bench::scenario_by_name(&m.scenario, m.seed, m.scale) else {
            fail(
                args,
                &format!("manifest scenario `{}` unknown to this binary", m.scenario),
            );
        };
        eprintln!("[verify] re-simulating {} at seed {}…", m.scenario, m.seed);
        let out = cfg_sim.run();

        let mut mem_serial = JframeStreamDigest::new();
        Pipeline::merge_only(
            out.memory_streams(),
            &cfg,
            OnJFrame(|jf: &JFrame| mem_serial.observe(jf)),
        )
        .unwrap_or_else(|e| fail(args, &format!("in-memory serial merge: {e}")));
        let mut mem_sharded = JframeStreamDigest::new();
        let par_cfg = PipelineConfig {
            shard: ShardConfig {
                max_threads: jigsaw_trace::stream::distinct_channels(&out.radio_meta)
                    .len()
                    .max(1),
                ..ShardConfig::default()
            },
            ..cfg.clone()
        };
        Pipeline::run_parallel(
            out.memory_streams(),
            &par_cfg,
            OnJFrame(|jf: &JFrame| mem_sharded.observe(jf)),
        )
        .unwrap_or_else(|e| fail(args, &format!("in-memory sharded merge: {e}")));

        let mut ok = true;
        for (name, mem) in [("serial", &mem_serial), ("sharded", &mem_sharded)] {
            if mem.count() != digest.count() || mem.hex() != digest.hex() {
                eprintln!(
                    "FAIL: disk stream ({} jframes, {}) != in-memory {name} ({} jframes, {})",
                    digest.count(),
                    digest.hex(),
                    mem.count(),
                    mem.hex()
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "verify OK: disk == in-memory serial == in-memory sharded ({} jframes, digest {})",
            digest.count(),
            digest.hex()
        );
    }
}

/// `--max-buffered`: exits 1 when peak merger residency exceeded the bound.
fn check_max_buffered(args: &Args, peak: u64) {
    if args.max_buffered > 0 && peak > args.max_buffered {
        eprintln!(
            "FAIL: peak buffered {peak} events exceeds --max-buffered {} — \
             streaming memory is no longer bounded by the window",
            args.max_buffered
        );
        std::process::exit(1);
    }
}

/// The windowed leg of `merge --corpus --from --to`: seek-bounded replay of
/// `[from, to)`, with `--verify` comparing against the full corpus replay
/// clipped to the same window.
fn run_windowed_merge(args: &Args, corpus: &OpenedCorpus, window: TimeWindow) {
    let mut cfg = pipeline_config(args);
    cfg.window = Some(window);
    let mut digest = WindowedStreamDigest::new();
    let obs = OnJFrame(|jf: &JFrame| digest.observe(jf));
    let t0 = Instant::now();
    let pass = corpus
        .pass(&cfg, args.parallel, obs)
        .unwrap_or_else(|e| fail(args, &e));
    let elapsed = t0.elapsed();
    let stats = &pass.pipeline.merge;
    let (events, peak) = (stats.events_in, stats.peak_buffered);
    let bytes_in = pass.disk_bytes_in;
    let driver = if args.parallel { "sharded" } else { "serial" };
    let total_bytes = corpus.corpus.data_bytes().unwrap_or(0);
    println!(
        "window {window}: merged {events} events -> {} in-window jframes in {elapsed:.1?} ({driver}, {:.0} events/s)",
        digest.count(),
        events as f64 / elapsed.as_secs_f64().max(1e-12)
    );
    println!(
        "window digest {}  peak buffered {peak} events  disk bytes in {bytes_in} (corpus holds {total_bytes})",
        digest.hex()
    );
    if events > corpus.corpus.total_events() {
        fail(
            args,
            "windowed merge read more events than the corpus holds",
        );
    }
    check_max_buffered(args, peak);

    if args.verify {
        // The reference: the FULL corpus replayed from t = 0, with only
        // emission clipped to the window. Equality is on the per-channel
        // clock-invariant digest — the windowed-replay contract (merged
        // timestamps agree only to the re-anchor tolerance; unification
        // must agree exactly).
        eprintln!("[verify] full replay clipped to {window}…");
        let counter = Arc::new(AtomicU64::new(0));
        let sources = jigsaw_bench::corpus_sources(&corpus.corpus, Arc::clone(&counter))
            .unwrap_or_else(|e| fail(args, &format!("open corpus sources: {e}")));
        let mut full = WindowedStreamDigest::new();
        Pipeline::merge_only(sources, &cfg, OnJFrame(|jf: &JFrame| full.observe(jf)))
            .unwrap_or_else(|e| fail(args, &format!("clipped-full merge: {e}")));
        let full_bytes = counter.load(Ordering::Relaxed);
        if full.count() != digest.count() || full.hex() != digest.hex() {
            eprintln!(
                "FAIL: windowed replay ({} jframes, {}) != clipped-full replay ({} jframes, {})",
                digest.count(),
                digest.hex(),
                full.count(),
                full.hex()
            );
            std::process::exit(1);
        }
        if bytes_in >= full_bytes {
            // Not fatal (a window covering the whole span legitimately
            // reads everything), but worth shouting about in CI logs.
            eprintln!(
                "WARNING: windowed replay read {bytes_in} disk bytes, the full scan {full_bytes} — \
                 the index seek saved nothing"
            );
        }
        println!(
            "verify OK: windowed == clipped-full ({} jframes, digest {}); disk bytes {bytes_in} vs full scan {full_bytes}",
            digest.count(),
            digest.hex()
        );
    }
}

/// `analyze --corpus`: stream the entire figure suite off a recorded
/// corpus through the full pipeline — merge (serial or, with
/// `--parallel`, channel-sharded), link and transport reconstruction, and
/// every registered analysis — in one bounded-memory pass. No
/// `Vec<JFrame>` (nor attempt/exchange vector) is ever materialized: the
/// `Suite` observes the streams as the merge emits them.
///
/// Everything comes from the corpus: the radio traces stream from disk,
/// and the wired distribution-network trace Figure 6 compares against is
/// the corpus's `wired.jigw` member — nothing is re-simulated. With
/// `--from/--to` the whole suite runs over a windowed replay (the wired
/// trace clips to the same `[from, to)`).
fn run_analyze(args: &Args) {
    banner("ANALYZE — stream the figure suite off a recorded corpus");
    let corpus = open_corpus(args);
    let mut cfg = pipeline_config(args);
    cfg.window = replay_window(args, &corpus.corpus);
    let t0 = Instant::now();
    let (figures, pass) = corpus
        .figures(&cfg, args.parallel, ())
        .unwrap_or_else(|e| fail(args, &e));
    let elapsed = t0.elapsed();
    let report = &pass.pipeline;
    let driver = if args.parallel { "sharded" } else { "serial" };
    match cfg.window {
        Some(w) => println!("window {w}: replay restricted to the requested interval"),
        None if report.merge.events_in != corpus.corpus.total_events() => {
            fail(args, "analyze dropped events relative to the manifest")
        }
        None => {}
    }
    println!(
        "analyzed {} events -> {} jframes, {} exchanges, {} flows in {elapsed:.1?} ({driver}, peak buffered {} events, disk bytes in {})",
        report.merge.events_in,
        report.merge.jframes_out,
        report.link.exchanges,
        report.transport.flows,
        report.merge.peak_buffered,
        pass.disk_bytes_in
    );
    print_figures(&figures);
}

/// Renders every figure, then the machine `record` lines CI diffs.
fn print_figures(figures: &[Box<dyn Figure>]) {
    for fig in figures {
        banner(fig.title());
        print!("{}", fig.render());
    }
    banner("MACHINE RECORDS — figure key/value summary");
    print!("{}", record_lines(figures));
}

/// Opens every radio of a corpus as a chunk-fed file tail, in manifest
/// (radio) order — the byte stream each tail delivers is identical to what
/// a still-growing trace file would, for any chunk size.
fn corpus_tails(args: &Args, corpus: &Corpus, chunk: usize) -> Vec<ChunkedFileTail> {
    corpus
        .manifest()
        .radios
        .iter()
        .map(|r| {
            let path = corpus.dir().join(&r.data);
            ChunkedFileTail::open(&path, chunk)
                .unwrap_or_else(|e| fail(args, &format!("open trace tail {}: {e}", path.display())))
        })
        .collect()
}

/// `tail --corpus`: replay a recorded corpus through the live ingest
/// service (`jigsaw_live`) as if the traces were still being written.
/// Each radio trace is tailed in `--chunk-bytes`-sized chunks; the
/// always-on merger bootstraps, streams jframes under the bounded-lag
/// contract, and the same figure suite as `analyze` observes the stream —
/// the `record` lines must match `analyze` byte for byte, which is what
/// CI's live job diffs. Replaying a finished file never starves, so the
/// `ManualClock` stays at zero and the `--max-lag-us` policy is
/// configured but never provoked (the lag state machine is exercised by
/// the crate's channel-source tests instead).
///
/// `--parallel` drives the same tailed sources through the channel-sharded
/// batch merge (`TailStream` adapts a live source back into a pull-mode
/// stream). `--verify` re-merges the corpus through the batch disk path
/// and asserts the live jframe stream is identical — count and stream
/// digest — exiting 1 on divergence: the chunking-invariance contract,
/// checkable at any `--chunk-bytes`.
fn run_tail(args: &Args) {
    banner("TAIL — live streaming ingest from a recorded corpus");
    let corpus = open_corpus(args);
    let chunk = args.chunk_bytes.max(1);
    let mut suite = corpus.suite(None);

    let mut digest = JframeStreamDigest::new();
    let t0 = Instant::now();
    let (events_in, jframes, peak, exchanges, flows, live_report) = if args.parallel {
        let cfg = pipeline_config(args);
        let sources: Vec<TailStream<ChunkedFileTail>> = corpus_tails(args, &corpus.corpus, chunk)
            .into_iter()
            .map(|t| {
                TailStream::open(t)
                    .unwrap_or_else(|e| fail(args, &format!("read trace header: {e}")))
            })
            .collect();
        let obs = (&mut suite, OnJFrame(|jf: &JFrame| digest.observe(jf)));
        let report = Pipeline::run_parallel(sources, &cfg, obs)
            .unwrap_or_else(|e| fail(args, &format!("pipeline: {e}")));
        (
            report.merge.events_in,
            report.merge.jframes_out,
            report.merge.peak_buffered,
            report.link.exchanges,
            report.transport.flows,
            None,
        )
    } else {
        let lcfg = LiveConfig {
            max_lag_us: args.max_lag_us,
            ..LiveConfig::default()
        };
        let mut lm = LiveMerger::new(lcfg, ManualClock::new());
        for tail in corpus_tails(args, &corpus.corpus, chunk) {
            lm.add_source(tail);
        }
        let mut rec = Reconstruction::new(&mut suite);
        let report = lm
            .run(|jf| {
                digest.observe(&jf);
                rec.push(&jf);
            })
            .unwrap_or_else(|e| fail(args, &format!("live merge: {e}")));
        let (_, link, _, transport) = rec.finish();
        (
            report.merge.events_in,
            report.merge.jframes_out,
            report.merge.peak_buffered,
            link.exchanges,
            transport.flows,
            Some(report),
        )
    };
    let elapsed = t0.elapsed();
    if events_in != corpus.corpus.total_events() {
        fail(args, "tail dropped events relative to the manifest");
    }
    let driver = if args.parallel {
        "sharded-tail"
    } else {
        "live"
    };
    println!(
        "tailed {events_in} events -> {jframes} jframes, {exchanges} exchanges, {flows} flows in {elapsed:.1?} ({driver}, chunk {chunk} B, peak buffered {peak} events)"
    );
    if let Some(rep) = &live_report {
        let lag_q = rep.lag.quantiles(&[0.5, 0.99]);
        println!(
            "emission lag p50 {} µs  p99 {} µs  max {} µs (trace time behind the safe horizon)",
            lag_q[0],
            lag_q[1],
            rep.lag_max(),
        );
        for (k, s) in rep.sources.iter().enumerate() {
            let radio = match s.radio {
                Some(r) => format!("{r:?}"),
                None => "unknown".into(),
            };
            println!(
                "source {k}: {radio}  events {}  late_dropped {}  status {:?}{}",
                s.events,
                s.late_dropped,
                s.status,
                if s.lagged { " (lagged)" } else { "" },
            );
        }
        if rep.reanchors + rep.reanchors_skipped > 0 {
            println!(
                "reanchors: {} applied, {} skipped",
                rep.reanchors, rep.reanchors_skipped
            );
        }
    }

    if args.verify {
        let mut batch = JframeStreamDigest::new();
        let pass = corpus
            .pass(
                &pipeline_config(args),
                args.parallel,
                OnJFrame(|jf: &JFrame| batch.observe(jf)),
            )
            .unwrap_or_else(|e| fail(args, &format!("batch merge: {e}")));
        if pass.pipeline.merge.events_in != events_in
            || batch.count() != digest.count()
            || batch.hex() != digest.hex()
        {
            eprintln!(
                "FAIL: live stream diverges from the batch merge: live {} jframes digest {}, batch {} jframes digest {}",
                digest.count(),
                digest.hex(),
                batch.count(),
                batch.hex(),
            );
            std::process::exit(1);
        }
        println!(
            "verify OK: live ≡ batch — {} jframes, digest {}",
            digest.count(),
            digest.hex()
        );
    }

    print_figures(&suite.finish());
}

/// `diagnose`: evidence-grounded triage off a recorded corpus. One
/// coarse figure-suite pass feeds the detector catalogue
/// (`jigsaw_diagnosis::standard_detectors`); each triggered detector's
/// suspect windows are re-analyzed through the windowed-replay
/// machinery (index-seek, re-anchored clocks — cost proportional to the
/// window) and confirmed incidents print with their severity,
/// reliability, and quoted record evidence. `--from/--to` restrict the
/// diagnosed span; `--golden FILE` compares the machine records against
/// a blessed golden (exit 1 on drift), `--bless` rewrites it.
fn run_diagnose(args: &Args) {
    use jigsaw_diagnosis::{run_diagnosis, standard_detectors, RecordSet, Thresholds};
    banner("DIAGNOSE — evidence-grounded triage over the figure suite");
    let corpus = open_corpus(args);
    let m = corpus.corpus.manifest();
    let restrict = replay_window(args, &corpus.corpus);
    let span = match corpus_span(args, &corpus.corpus) {
        Some((lo, hi)) => match restrict {
            // Diagnose only the requested interval (already validated
            // to overlap the span).
            Some(w) => (w.from.max(lo), w.to.saturating_sub(1).min(hi)),
            None => (lo, hi),
        },
        None => {
            eprintln!("diagnose: corpus records no events, nothing to diagnose");
            std::process::exit(2);
        }
    };

    // One figure-suite pass over a window (or, for the coarse pass, the
    // whole span) — the same streaming path `analyze` runs, reduced to
    // its typed records.
    let analyze_span = |window: Option<TimeWindow>| -> Result<RecordSet, String> {
        let cfg = PipelineConfig {
            window,
            ..pipeline_config(args)
        };
        let (figures, _) = corpus.figures(&cfg, args.parallel, ())?;
        Ok(RecordSet::from_figures(&figures))
    };
    let t0 = Instant::now();
    let coarse =
        analyze_span(restrict).unwrap_or_else(|e| fail(args, &format!("coarse pass failed: {e}")));
    let mut deep = |w: TimeWindow| analyze_span(Some(w));
    let report = run_diagnosis(
        &standard_detectors(),
        &coarse,
        span,
        &Thresholds::default(),
        &mut deep,
    )
    .unwrap_or_else(|e| fail(args, &format!("windowed re-analysis failed: {e}")));
    let triggered = report.detectors.iter().filter(|d| d.triggered).count();
    // One stable stdout line — what CI greps into the step summary.
    println!(
        "diagnose {}: span {} {} detectors {} triggered {} windows_analyzed {} incidents {} ({:.1?})",
        m.scenario,
        report.span.0,
        report.span.1,
        report.detectors.len(),
        triggered,
        report.windows_analyzed,
        report.incidents.len(),
        t0.elapsed()
    );
    for inc in &report.incidents {
        println!(
            "  {} in {}: severity {:.2} reliability {:.2}",
            inc.detector, inc.window, inc.severity, inc.reliability
        );
    }
    banner("MACHINE RECORDS — diagnosis");
    let lines = report.record_lines();
    print!("{lines}");

    // Golden comparison is opt-in: the golden pins one specific corpus
    // (CI's tiny golden corpus), so arbitrary-corpus runs only print.
    if let Some(golden) = &args.golden {
        let path = std::path::Path::new(golden);
        let body = format!(
            "# jigsaw diagnose golden — scenario {} seed {}\n{lines}",
            m.scenario, m.seed
        );
        if args.bless {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("create golden dir");
            }
            std::fs::write(path, &body).unwrap_or_else(|e| panic!("write {golden}: {e}"));
            println!("diagnose golden BLESSED: {golden}");
        } else {
            match std::fs::read_to_string(path) {
                Ok(expected) => match jigsaw_bench::sweep::diff_lines(&expected, &body) {
                    None => println!("diagnose golden MATCHED: {golden}"),
                    Some(diff) => {
                        eprintln!(
                            "FAIL: diagnosis drifted from {golden}:\n{diff}(intentional change? re-bless with `repro diagnose --corpus {} --golden {golden} --bless`)",
                            corpus.corpus.dir().display()
                        );
                        std::process::exit(1);
                    }
                },
                Err(_) => {
                    eprintln!(
                        "FAIL: no diagnosis golden at {golden} (bless with `repro diagnose --corpus {} --golden {golden} --bless`)",
                        corpus.corpus.dir().display()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}

/// `sweep`: the standing golden-record matrix over adversarial traffic
/// shapes. Every scenario runs end-to-end (record → both merge drivers
/// from memory and disk → figure-suite records serial vs sharded → a
/// windowed replay), and the surviving digests + record lines diff
/// line-by-line against `.github/golden/sweep/<name>.golden`. Any
/// cross-check divergence or golden drift exits 1; `--bless` rewrites the
/// goldens instead of comparing.
fn run_sweep(args: &Args) {
    use jigsaw_bench::sweep::{self, GoldenStatus};
    banner("SWEEP — golden-record scenario matrix");
    let golden_dir = std::path::PathBuf::from(args.golden.as_deref().unwrap_or(sweep::GOLDEN_DIR));
    let out_root = std::path::PathBuf::from(args.corpus.as_deref().unwrap_or("target/sweep"));
    let matrix = jigsaw_sim::spec::ScenarioSpec::sweep_matrix();
    let specs = match &args.scenario {
        None => matrix,
        Some(name) => match jigsaw_sim::spec::ScenarioSpec::by_name(name) {
            Some(s) => vec![s],
            None => {
                let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
                usage_error(&format!(
                    "unknown sweep scenario `{name}` (the matrix: {names:?})"
                ));
            }
        },
    };
    // Fail fast on matrix ↔ golden drift before burning CPU on simulations.
    // Skipped when blessing (which creates the files) or filtering to one
    // scenario (a partial run cannot judge the whole set).
    if !args.bless && args.scenario.is_none() {
        if let Err(e) = sweep::check_matrix_coverage(&golden_dir) {
            eprintln!("FAIL: golden set and sweep matrix drifted apart:\n{e}");
            std::process::exit(1);
        }
    }
    let mut failures = 0usize;
    for spec in &specs {
        let t0 = Instant::now();
        let run = match sweep::run_scenario(spec, args.seed, &out_root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL: {e}");
                println!("sweep {}: FAIL ({:.1?})", spec.name, t0.elapsed());
                failures += 1;
                continue;
            }
        };
        let status = sweep::check_golden(&run, &golden_dir, args.bless);
        // One stable stdout line per scenario — what CI greps into the
        // step summary.
        println!(
            "sweep {}: events {} jframes {} digest {} window_jframes {} golden {} ({:.1?})",
            run.name,
            run.events,
            run.jframes,
            run.stream_digest,
            run.window_jframes,
            status.label(),
            t0.elapsed()
        );
        match &status {
            GoldenStatus::Mismatch(diff) => eprintln!(
                "FAIL: `{}` drifted from {}:\n{diff}(intentional change? re-bless with `repro sweep --bless`)",
                run.name,
                sweep::golden_path(&golden_dir, &run.name).display()
            ),
            GoldenStatus::Missing(path) => eprintln!(
                "FAIL: `{}` has no golden at {} (bless with `repro sweep --bless`)",
                run.name,
                path.display()
            ),
            _ => {}
        }
        if status.is_failure() {
            failures += 1;
        }
    }
    // A full bless must leave a self-consistent set behind (stale goldens
    // for retired scenarios still fail).
    if args.bless && args.scenario.is_none() {
        if let Err(e) = sweep::check_matrix_coverage(&golden_dir) {
            eprintln!("FAIL: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("sweep: {failures} scenario(s) failed");
        std::process::exit(1);
    }
    println!("sweep OK: {} scenario(s)", specs.len());
}

/// Baseline mergers vs Jigsaw.
fn run_baselines(seed: u64, scale: f64) {
    banner("BASELINES — naive (mergecap-style) and Yeo-style merging");
    let out = simulate(seed, (scale * 0.5).max(0.05));
    let events = out.total_events();

    // Jigsaw.
    let mut disp = DispersionAnalysis::new();
    let t0 = Instant::now();
    let report = Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut disp)
        .expect("pipeline");
    let jig_t = t0.elapsed();
    let jig_fig = disp.finish();

    // Yeo-style: bootstrap once, never resync.
    let mut yeo_disp = DispersionAnalysis::new();
    let t0 = Instant::now();
    let (yeo_stats, _) = yeo_merge(
        out.memory_streams(),
        &Default::default(),
        &MergeConfig::default(),
        |jf| yeo_disp.observe(&jf),
    )
    .expect("yeo");
    let yeo_t = t0.elapsed();
    let yeo_fig = yeo_disp.finish();

    // Naive: no synchronization at all.
    let t0 = Instant::now();
    let naive_stats = naive_merge(out.memory_streams(), 10_000, |_| {}).expect("naive");
    let naive_t = t0.elapsed();

    println!("merger   events  jframes  unified_evts  p99_disp_us  time");
    println!(
        "jigsaw  {events:>8} {:>8} {:>12} {:>12.0} {jig_t:>9.1?}",
        report.merge.jframes_out,
        report.merge.instances_unified,
        jig_fig.cdf.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "yeo     {events:>8} {:>8} {:>12} {:>12.0} {yeo_t:>9.1?}",
        yeo_stats.jframes_out,
        yeo_stats.instances_unified,
        yeo_fig.cdf.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "naive   {events:>8} {:>8} {:>12} {:>12} {naive_t:>9.1?}",
        naive_stats.jframes_out, naive_stats.instances_unified, "n/a",
    );
    println!(
        "(naive merging cannot unify duplicates across unsynchronized clocks: jframes ≈ events)"
    );
}

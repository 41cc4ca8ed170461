//! What every workload shares: the corpus set-up, and one figure-suite
//! pass over the corpus (whole or windowed, serial or sharded, traced or
//! not) built the way `repro analyze` and `repro diagnose` build theirs.

// tidy:allow-file(wall-clock): the benchmark harness times set-up and passes
use crate::layers::{timed_suite, traced_pass, Driver, Layers, TimedDetector};
use crate::trace::{Probe, SpanId, Tracer};
use jigsaw_analysis::suite::record_lines;
use jigsaw_analysis::{Figure, Suite};
use jigsaw_core::pipeline::{EventSource, Pipeline, PipelineConfig};
use jigsaw_core::PipelineObserver;
use jigsaw_diagnosis::{run_diagnosis, standard_detectors, RecordSet, Thresholds};
use jigsaw_ieee80211::MacAddr;
use jigsaw_sim::wired::WiredTraceRecord;
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::TimeWindow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Scenario seed of the benchmark corpus: the paper's trace date, the
/// canonical `paper_day` world. It is the same in every run because the
/// event count of `paper_day` varies about threefold across scenario
/// seeds, and wall times would then measure the seed, not the code.
pub const SCENARIO_SEED: u64 = 20_060_124;
/// Scale of the benchmark corpus (ROADMAP's headline size).
pub const SCALE: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Tracing state of a traced run: the span recorder plus the probes and
/// counts at the layer boundaries.
#[derive(Debug, Default)]
pub struct Tracing {
    /// Spans.
    pub tr: Tracer,
    /// Probes and counts.
    pub layers: Layers,
}

/// Opens a span when tracing.
pub fn enter(tracing: &mut Option<&mut Tracing>, name: &'static str) -> Option<SpanId> {
    tracing.as_mut().map(|t| t.tr.enter(name))
}

/// Closes a span [`enter`] opened.
pub fn exit(tracing: &mut Option<&mut Tracing>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracing.as_mut(), id) {
        t.tr.exit(id);
    }
}

/// Runs a possibly traced operation; when it fails, closes the spans it
/// left open so the run's later traced operations nest correctly.
pub fn guarded<T>(
    tracing: &mut Option<&mut Tracing>,
    op: impl FnOnce(&mut Option<&mut Tracing>) -> Result<T, String>,
) -> Result<T, String> {
    let depth = tracing.as_ref().map(|t| t.tr.depth());
    let out = op(tracing);
    if let (Err(_), Some(t), Some(d)) = (&out, tracing.as_mut(), depth) {
        t.tr.unwind(d);
    }
    out
}

/// The recorded corpus every workload runs on.
pub struct Env {
    /// Corpus directory.
    pub dir: PathBuf,
    /// Corpus digest, identical across the run's set-ups.
    pub digest: String,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Events in the manifest.
    pub total_events: u64,
    /// Set-ups whose digest disagreed with the first, or that failed
    /// verification.
    pub setup_failures: u64,
}

/// Simulates and records the corpus [`SETUP_REPS`] times into `dir`,
/// running `load` over each recorded corpus as part of the set-up, and
/// returns the environment with the last `load` result. The simulation
/// output is dropped before `load` runs and before anything is measured.
pub fn set_up<T>(dir: &Path, mut load: impl FnMut(&Corpus) -> T) -> (Env, T) {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        if dir.exists() {
            std::fs::remove_dir_all(dir).expect("clear corpus directory");
        }
        let t = Instant::now();
        let out = jigsaw_bench::paper_scenario(SCENARIO_SEED, SCALE).run();
        let summary =
            jigsaw_bench::record_corpus(&out, dir, "paper_day", SCENARIO_SEED, SCALE, 65_535, 0)
                .expect("record corpus");
        drop(out);
        let corpus = Corpus::open(dir).expect("open recorded corpus");
        loaded = Some(load(&corpus));
        times.push(secs(t));
        digests.push(summary.digest);
    }
    let corpus = Corpus::open(dir).expect("open recorded corpus");
    let verified = corpus.verify_digest().unwrap_or(false);
    let setup_failures =
        digests.iter().filter(|d| **d != digests[0]).count() as u64 + u64::from(!verified);
    let env = Env {
        dir: dir.to_path_buf(),
        digest: digests[0].clone(),
        setup_s: crate::stats::median(&times),
        total_events: corpus.total_events(),
        setup_failures,
    };
    (env, loaded.expect("at least one set-up"))
}

/// A corpus opened for analysis, with its wired side channel decoded.
pub struct Opened {
    /// The corpus.
    pub corpus: Corpus,
    wired: Vec<WiredTraceRecord>,
    ap_table: HashMap<u16, MacAddr>,
}

impl Opened {
    /// Opens the corpus at `dir` as `repro analyze` does.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let corpus = Corpus::open(dir).map_err(|e| e.to_string())?;
        let (wired, ap_table) = jigsaw_bench::corpus_wired(&corpus)?;
        Ok(Opened {
            corpus,
            wired,
            ap_table,
        })
    }

    /// The figure suite for `window` (whole corpus when `None`): timed
    /// analyzers when tracing, `figure_suite_parts` otherwise.
    pub fn suite(&self, window: Option<TimeWindow>, tracing: &Option<&mut Tracing>) -> Suite {
        let wired: Vec<WiredTraceRecord> = match window {
            Some(w) => self
                .wired
                .iter()
                .filter(|r| w.contains(r.ts))
                .cloned()
                .collect(),
            None => self.wired.clone(),
        };
        let lookup = |sid: u16| self.ap_table[&sid];
        let m = self.corpus.manifest();
        match tracing {
            Some(t) => timed_suite(
                m.radios.len(),
                m.duration_us,
                &wired,
                &lookup,
                &t.layers.analysis,
            ),
            None => {
                jigsaw_bench::figure_suite_parts(m.radios.len(), m.duration_us, &wired, &lookup)
            }
        }
    }

    /// One figure-suite pass over `window` (the whole corpus when `None`)
    /// with `driver`, with `extra` observing the same streams. Returns the
    /// figures and the events the merge consumed.
    pub fn pass(
        &self,
        window: Option<TimeWindow>,
        driver: Driver,
        tracing: &mut Option<&mut Tracing>,
        extra: impl PipelineObserver,
    ) -> Result<(Vec<Box<dyn Figure>>, u64), String> {
        let mut suite = self.suite(window, tracing);
        let cfg = PipelineConfig {
            window,
            ..PipelineConfig::default()
        };
        let counter = Arc::new(AtomicU64::new(0));
        let obs = (&mut suite, extra);
        let events = match window {
            Some(w) => {
                let sources =
                    jigsaw_bench::corpus_sources_windowed(&self.corpus, Arc::clone(&counter), w)
                        .map_err(|e| e.to_string())?;
                run(tracing, driver, sources, &cfg, obs)?
            }
            None => {
                let sources = jigsaw_bench::corpus_sources(&self.corpus, Arc::clone(&counter))
                    .map_err(|e| e.to_string())?;
                run(tracing, driver, sources, &cfg, obs)?
            }
        };
        let figures = match tracing {
            Some(t) => t.tr.span("analysis.finish", |_| suite.finish()),
            None => suite.finish(),
        };
        if let Some(t) = tracing {
            t.layers
                .add("trace.disk_bytes", counter.load(Relaxed) as f64);
        }
        Ok((figures, events))
    }
}

/// Runs one pass through `Pipeline::run` / `run_parallel`, or through the
/// traced composition of the same layers.
fn run<I>(
    tracing: &mut Option<&mut Tracing>,
    driver: Driver,
    sources: Vec<I>,
    cfg: &PipelineConfig,
    obs: impl PipelineObserver,
) -> Result<u64, String>
where
    I: EventSource,
    I::Stream: Send + 'static,
{
    match tracing {
        Some(t) => traced_pass(&mut t.tr, &mut t.layers, driver, sources, cfg, obs),
        None => match driver {
            Driver::Serial => Pipeline::run(sources, cfg, obs),
            Driver::Sharded => Pipeline::run_parallel(sources, cfg, obs),
        }
        .map(|r| r.merge.events_in),
    }
    .map_err(|e| e.to_string())
}

/// Whole-corpus analyze, as `repro analyze --corpus DIR [--parallel]`:
/// open the corpus, stream the figure suite, render the record lines.
/// Returns the record lines and the events merged.
pub fn analyze(
    dir: &Path,
    driver: Driver,
    tracing: &mut Option<&mut Tracing>,
) -> Result<(String, u64), String> {
    let opened = Opened::open(dir)?;
    let (figures, events) = opened.pass(None, driver, tracing, ())?;
    Ok((record_lines(&figures), events))
}

/// `repro diagnose --corpus DIR`: the coarse whole-corpus pass, the
/// detector scans, then a windowed re-analysis of each deep-dive window.
/// Returns the diagnosis record lines and `[windows analyzed, windows
/// with an incident, incidents, events merged over all passes]`.
pub fn diagnose(
    dir: &Path,
    tracing: &mut Option<&mut Tracing>,
) -> Result<(String, [u64; 4]), String> {
    let opened = Opened::open(dir)?;
    let span = opened
        .corpus
        .universal_span()
        .map_err(|e| e.to_string())?
        .ok_or("corpus records no events")?;
    let (scan_probe, diag_probe) = (Probe::shared(), Probe::shared());
    let detectors = match tracing {
        Some(_) => TimedDetector::wrap_all(standard_detectors(), &scan_probe, &diag_probe),
        None => standard_detectors(),
    };
    let coarse_span = enter(tracing, "diagnose.coarse");
    let (figures, mut events) = opened.pass(None, Driver::Serial, tracing, ())?;
    let coarse = RecordSet::from_figures(&figures);
    exit(tracing, coarse_span);
    let run_span = enter(tracing, "diagnose.run");
    let report = {
        let mut deep = |w: TimeWindow| -> Result<RecordSet, String> {
            let id = enter(tracing, "diagnose.window");
            let (figures, n) = opened.pass(Some(w), Driver::Serial, tracing, ())?;
            events += n;
            exit(tracing, id);
            Ok(RecordSet::from_figures(&figures))
        };
        run_diagnosis(&detectors, &coarse, span, &Thresholds::default(), &mut deep)?
    };
    if let (Some(t), Some(id)) = (tracing.as_mut(), run_span) {
        t.tr.exit(id);
        t.tr.aggregate(id, "diagnose.detector_scan", &scan_probe);
        t.tr.aggregate(id, "diagnose.detector_confirm", &diag_probe);
    }
    let confirmed: std::collections::BTreeSet<(u64, u64)> = report
        .incidents
        .iter()
        .map(|i| (i.window.from, i.window.to))
        .collect();
    Ok((
        report.record_lines(),
        [
            report.windows_analyzed as u64,
            confirmed.len() as u64,
            report.incidents.len() as u64,
            events,
        ],
    ))
}

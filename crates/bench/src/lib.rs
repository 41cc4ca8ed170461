//! # jigsaw-bench
//!
//! The reproduction harness: scenario presets scaled to a CPU/RAM budget,
//! shared runners, and the `repro` binary that regenerates every table and
//! figure of the paper's evaluation. Criterion benchmarks (merge
//! throughput, scaling, baselines) live under `benches/`.

use jigsaw_analysis::Figure;
use jigsaw_core::pipeline::{
    CorpusSource, EventSource, Pipeline, PipelineConfig, PipelineError, PipelineReport,
    WindowedCorpusSource,
};
use jigsaw_core::{JFrame, PipelineObserver};
use jigsaw_ieee80211::MacAddr;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_sim::spec::ScenarioSpec;
use jigsaw_sim::wired::WiredTraceRecord;
use jigsaw_trace::corpus::{Corpus, CorpusError, CorpusSummary, CorpusWriter};
use jigsaw_trace::digest::Fnv64;
use jigsaw_trace::TimeWindow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod alloc;
pub mod cli;
pub mod sweep;

/// The paper-scale scenario at a CPU/RAM scale factor.
///
/// `scale = 1.0` simulates a full diurnal "day" compressed into 720 s of
/// simulated time with 39 pods / 156 radios / 44+12 APs / 60 clients.
/// Smaller scales shorten the represented day proportionally (the diurnal
/// curve is preserved; only its sampling shrinks).
pub fn paper_scenario(seed: u64, scale: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_day(seed);
    let scale = scale.clamp(0.02, 4.0);
    cfg.day_us = (720_000_000.0 * scale) as u64;
    cfg.day_compression = 86_400_000_000.0 / cfg.day_us as f64;
    cfg.protection_timeout_us = (3_600_000_000.0 / cfg.day_compression) as u64;
    cfg.protection_check_us = (cfg.protection_timeout_us / 20).max(250_000);
    cfg
}

/// The per-"minute" bin width for a scenario: the represented day has 1440
/// minutes regardless of compression.
pub fn minute_bin_us(day_us: u64) -> u64 {
    (day_us / 1440).max(1)
}

/// One represented minute of wall time in scenario µs (the paper's
/// "practical" one-minute b-client timeout, scaled to the scenario's day
/// compression). Always ≥ 1.
pub fn practical_minute_us(day_us: u64) -> u64 {
    ((60_000_000.0 / (86_400_000_000.0 / day_us as f64)) as u64).max(1)
}

/// The full paper figure [`Suite`](jigsaw_analysis::Suite) for a simulated
/// world, coverage included: Table 1, Figures 4/6/8/9/10/11, and the
/// station census, all parameterized exactly the way `repro` wires them
/// ("hour" bins of the represented day, one-minute practical timeout).
///
/// The suite holds no borrow of `out` — the coverage expectation index is
/// built here from the wired trace — so callers may drop the simulation
/// and stream the pipeline from an on-disk corpus instead.
pub fn figure_suite(out: &SimOutput) -> jigsaw_analysis::Suite {
    let ap_addrs: Vec<MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    let ap_lookup = move |sid: u16| ap_addrs[usize::from(sid)];
    figure_suite_parts(
        out.radio_meta.len(),
        out.duration_us,
        &out.wired,
        &ap_lookup,
    )
}

/// [`figure_suite`] from its raw ingredients — what `repro analyze` builds
/// when everything (radio count, duration, wired trace, AP table) comes
/// from a recorded corpus instead of a live simulation.
pub fn figure_suite_parts(
    radios: usize,
    duration_us: u64,
    wired: &[WiredTraceRecord],
    ap_addr_of: &dyn Fn(u16) -> MacAddr,
) -> jigsaw_analysis::Suite {
    let params = jigsaw_analysis::PaperParams {
        radios,
        origin: 0,
        bin_us: minute_bin_us(duration_us) * 60,
        practical_timeout_us: practical_minute_us(duration_us),
    };
    let coverage = jigsaw_analysis::coverage::CoverageAnalysis::new(wired, ap_addr_of, 10_000_000);
    jigsaw_analysis::Suite::paper(&params).register(coverage)
}

/// A scenario resolved from a manifest (or CLI) name: either one of the
/// classic fixed presets, or a named [`ScenarioSpec`] from the sweep
/// matrix, carrying the seed it will run under.
#[derive(Debug, Clone)]
pub enum NamedScenario {
    /// `tiny` | `small` | `paper_day`.
    Preset(ScenarioConfig),
    /// A sweep-matrix spec (`roaming`, `hidden_terminal`, …) plus the run
    /// seed.
    Spec(ScenarioSpec, u64),
}

impl NamedScenario {
    /// Simulated duration in µs.
    pub fn day_us(&self) -> u64 {
        match self {
            NamedScenario::Preset(c) => c.day_us,
            NamedScenario::Spec(s, _) => s.base.day_us,
        }
    }

    /// Simulates the scenario to completion.
    pub fn run(&self) -> SimOutput {
        match self {
            NamedScenario::Preset(c) => c.clone().run(),
            NamedScenario::Spec(s, seed) => s.run(*seed),
        }
    }
}

/// Resolves a scenario by the name recorded in a corpus manifest. `scale`
/// only applies to `paper_day` (the presets are fixed-size by design);
/// names not among the classic presets fall through to the sweep matrix
/// ([`ScenarioSpec::by_name`]), so a corpus recorded by `repro sweep`
/// re-verifies with plain `repro merge --verify`.
pub fn scenario_by_name(name: &str, seed: u64, scale: f64) -> Option<NamedScenario> {
    match name {
        "tiny" => Some(NamedScenario::Preset(ScenarioConfig::tiny(seed))),
        "small" => Some(NamedScenario::Preset(ScenarioConfig::small(seed))),
        "paper_day" => Some(NamedScenario::Preset(paper_scenario(seed, scale))),
        _ => ScenarioSpec::by_name(name).map(|s| NamedScenario::Spec(s, seed)),
    }
}

/// The source revision a run was produced at: `GITHUB_SHA` when
/// CI exports one, else the working tree's `git rev-parse`, else
/// `"unknown"` — never an error, so bench runs work from a bare export.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Records a simulated world as an on-disk corpus (one compressed, indexed
/// trace per radio plus the wired distribution-network member, manifest,
/// and digest). `block_bytes = 0` uses the format's default block size;
/// smaller blocks mean a finer index.
pub fn record_corpus(
    out: &SimOutput,
    dir: &Path,
    scenario: &str,
    seed: u64,
    scale: f64,
    snaplen: u32,
    block_bytes: usize,
) -> Result<CorpusSummary, CorpusError> {
    let mut w = CorpusWriter::create(
        dir,
        scenario,
        seed,
        scale,
        snaplen,
        out.duration_us,
        block_bytes,
    )?;
    for (meta, trace) in out.radio_meta.iter().zip(&out.traces) {
        w.record_radio(*meta, trace.iter())?;
    }
    // The wired side-channel rides along so `analyze --corpus` runs the
    // Figure 6 coverage comparison without re-simulating the scenario.
    let ap_addrs: Vec<MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    let payload =
        jigsaw_sim::wired::encode_wired_trace(&out.wired, &|sid| ap_addrs[usize::from(sid)]);
    w.record_wired(out.wired.len() as u64, &payload)?;
    w.finish()
}

/// Decodes a corpus's wired member into records plus the AP id → MAC table
/// (the Figure 6 inputs). Errors when the corpus has none — corpora
/// recorded before the wired member existed must be re-recorded.
pub fn corpus_wired(
    corpus: &Corpus,
) -> Result<(Vec<WiredTraceRecord>, HashMap<u16, MacAddr>), String> {
    let payload = corpus
        .wired_payload()
        .map_err(|e| e.to_string())?
        .ok_or("corpus has no wired member (re-record it)")?;
    jigsaw_sim::wired::decode_wired_trace(&payload)
}

/// Opens every radio of a corpus as a pipeline source, all feeding one
/// shared disk-bytes counter.
pub fn corpus_sources(
    corpus: &Corpus,
    counter: Arc<AtomicU64>,
) -> Result<Vec<CorpusSource>, CorpusError> {
    Ok(corpus
        .sources(counter)?
        .into_iter()
        .map(CorpusSource)
        .collect())
}

/// Opens every radio of a corpus as a **windowed** pipeline source: reads
/// index-seek to `window` (clock bootstrap re-anchored at its warm-up
/// start), so disk bytes and merge work scale with the window, not the
/// corpus. Pair with `PipelineConfig::window = Some(window)` so emission
/// is clipped to `[from, to)` as well.
pub fn corpus_sources_windowed(
    corpus: &Corpus,
    counter: Arc<AtomicU64>,
    window: TimeWindow,
) -> Result<Vec<WindowedCorpusSource>, CorpusError> {
    Ok(corpus
        .sources(counter)?
        .into_iter()
        .map(|s| WindowedCorpusSource::new(s, window))
        .collect())
}

/// A recorded corpus opened for pipeline passes: files present, digest
/// verified, and the wired member (the Figure 6 inputs) decoded.
pub struct OpenedCorpus {
    /// The corpus.
    pub corpus: Corpus,
    /// The wired distribution-network trace.
    wired: Vec<WiredTraceRecord>,
    /// AP id → MAC, covering every AP a wired record names (the wired
    /// decoder rejects a member that breaks this).
    ap_table: HashMap<u16, MacAddr>,
}

/// What one [`OpenedCorpus::pass`] reports.
#[derive(Debug)]
pub struct PassReport {
    /// The pipeline's end-of-run report.
    pub pipeline: PipelineReport,
    /// Disk bytes the pass read (bootstrap-window reads included).
    pub disk_bytes_in: u64,
}

/// Opens the corpus at `dir`, checks it against its recorded digest, and
/// decodes its wired member. Every failure — a missing directory, a
/// digest mismatch, a bad wired member — is a one-line `Err`.
pub fn open_corpus(dir: &Path) -> Result<OpenedCorpus, String> {
    let corpus = Corpus::open(dir).map_err(|e| format!("open corpus {}: {e}", dir.display()))?;
    let intact = corpus
        .verify_digest()
        .map_err(|e| format!("digest check of {}: {e}", dir.display()))?;
    if !intact {
        return Err(format!(
            "corpus {} does not match its recorded digest (corrupt or tampered)",
            dir.display()
        ));
    }
    let (wired, ap_table) =
        corpus_wired(&corpus).map_err(|e| format!("wired member of {}: {e}", dir.display()))?;
    Ok(OpenedCorpus {
        corpus,
        wired,
        ap_table,
    })
}

impl OpenedCorpus {
    /// The figure suite for a pass over `window` (the whole corpus when
    /// `None`). A windowed suite compares against the wired records clipped
    /// to the same window (wired timestamps are wall-clock, the timeline
    /// the window is phrased in, up to the documented NTP tolerance).
    pub fn suite(&self, window: Option<TimeWindow>) -> jigsaw_analysis::Suite {
        let clipped: Vec<WiredTraceRecord>;
        let wired = match window {
            Some(w) => {
                clipped = self
                    .wired
                    .iter()
                    .filter(|r| w.contains(r.ts))
                    .cloned()
                    .collect();
                &clipped
            }
            None => &self.wired,
        };
        let ap_lookup = |sid: u16| self.ap_table[&sid];
        let m = self.corpus.manifest();
        figure_suite_parts(m.radios.len(), m.duration_us, wired, &ap_lookup)
    }

    /// One pipeline pass over the corpus delivering every stream to `obs`:
    /// index-seeked windowed sources when `cfg.window` is set (the one
    /// place the window lives, so reads and emission clipping cannot
    /// disagree), whole-corpus sources otherwise; the channel-sharded
    /// driver when `parallel`, the serial one otherwise.
    pub fn pass(
        &self,
        cfg: &PipelineConfig,
        parallel: bool,
        obs: impl PipelineObserver,
    ) -> Result<PassReport, String> {
        fn drive<I>(
            sources: Vec<I>,
            cfg: &PipelineConfig,
            parallel: bool,
            obs: impl PipelineObserver,
        ) -> Result<PipelineReport, PipelineError>
        where
            I: EventSource,
            I::Stream: Send + 'static,
        {
            if parallel {
                Pipeline::run_parallel(sources, cfg, obs)
            } else {
                Pipeline::run(sources, cfg, obs)
            }
        }
        let counter = Arc::new(AtomicU64::new(0));
        let open_err = |e: CorpusError| format!("open corpus sources: {e}");
        let pipeline = match cfg.window {
            Some(w) => drive(
                corpus_sources_windowed(&self.corpus, Arc::clone(&counter), w).map_err(open_err)?,
                cfg,
                parallel,
                obs,
            ),
            None => drive(
                corpus_sources(&self.corpus, Arc::clone(&counter)).map_err(open_err)?,
                cfg,
                parallel,
                obs,
            ),
        }
        .map_err(|e| format!("pipeline: {e}"))?;
        Ok(PassReport {
            pipeline,
            disk_bytes_in: counter.load(Ordering::Relaxed),
        })
    }

    /// A [`OpenedCorpus::pass`] streaming the figure suite for `cfg.window`,
    /// with `extra` observing the same streams; returns the finished
    /// figures.
    pub fn figures(
        &self,
        cfg: &PipelineConfig,
        parallel: bool,
        extra: impl PipelineObserver,
    ) -> Result<(Vec<Box<dyn Figure>>, PassReport), String> {
        let mut suite = self.suite(cfg.window);
        let report = self.pass(cfg, parallel, (&mut suite, extra))?;
        Ok((suite.finish(), report))
    }
}

/// A running digest over a jframe stream: count + order + content. Two
/// pipeline runs emitted the same stream iff count and digest both match —
/// what `repro merge --verify` and the golden-corpus CI step compare.
#[derive(Debug, Clone, Default)]
pub struct JframeStreamDigest {
    hasher: Fnv64,
    count: u64,
}

impl JframeStreamDigest {
    /// An empty stream digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next jframe of the stream.
    pub fn observe(&mut self, jf: &JFrame) {
        jf.digest_into(&mut self.hasher);
        self.count += 1;
    }

    /// Jframes observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The digest as 16-char hex.
    pub fn hex(&self) -> String {
        self.hasher.hex()
    }
}

/// A clock-invariant digest over a *windowed* jframe stream, per channel:
/// each jframe folds in as its [`JFrame::stable_digest`] (capture-side
/// fields only), accumulated commutatively within its channel.
///
/// This is the comparison object of the windowed-replay contract. A replay
/// re-anchored mid-trace reproduces the full replay's *unification* exactly
/// — same groups, same instances, same per-channel streams — but its
/// universal timeline is re-derived from the NTP anchors at the window, so
/// merged timestamps (and with them the cross-channel emission interleaving)
/// agree only to the re-anchor tolerance. Hence the comparison that is
/// exact, and therefore pinnable in CI: per channel, the *multiset* of
/// clock-invariant jframe identities, plus the count. Equal hex means the
/// windowed replay unified byte-for-byte what the clipped full replay
/// unified.
#[derive(Debug, Clone, Default)]
pub struct WindowedStreamDigest {
    channels: BTreeMap<u8, (u64, u64)>, // channel → (count, commutative sum)
}

impl WindowedStreamDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next jframe of the stream.
    pub fn observe(&mut self, jf: &JFrame) {
        let e = self.channels.entry(jf.channel.number()).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.wrapping_add(jf.stable_digest());
    }

    /// Jframes observed across all channels.
    pub fn count(&self) -> u64 {
        self.channels.values().map(|&(c, _)| c).sum()
    }

    /// The digest as 16-char hex (channels folded in channel order).
    pub fn hex(&self) -> String {
        let mut h = Fnv64::new();
        for (chan, &(count, sum)) in &self.channels {
            h.update(&[*chan]);
            h.update_u64(count);
            h.update_u64(sum);
        }
        h.hex()
    }
}

/// Builds memory streams for a subset of radios (Figure 7 pod reduction).
pub fn subset_streams(
    out: &SimOutput,
    radios: &[usize],
) -> Vec<jigsaw_trace::stream::MemoryStream> {
    radios
        .iter()
        .map(|&r| jigsaw_trace::stream::MemoryStream::new(out.radio_meta[r], out.traces[r].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_scaling() {
        let full = paper_scenario(1, 1.0);
        assert_eq!(full.day_us, 720_000_000);
        assert_eq!(full.n_pods, 39);
        let half = paper_scenario(1, 0.5);
        assert_eq!(half.day_us, 360_000_000);
        // Compression doubles when the day halves.
        assert!((half.day_compression / full.day_compression - 2.0).abs() < 1e-9);
        // Protection timeout keeps representing one hour of the day.
        assert_eq!(half.protection_timeout_us * 24, half.day_us / 2 * 2);
    }

    #[test]
    fn minute_bins() {
        assert_eq!(minute_bin_us(720_000_000), 500_000);
        assert_eq!(minute_bin_us(1_440), 1);
    }

    #[test]
    fn practical_minute_scales_with_compression() {
        // A 720 s day represents 86400 s: one represented minute = 500 ms.
        assert_eq!(practical_minute_us(720_000_000), 500_000);
        // Never zero, however compressed the day.
        assert!(practical_minute_us(1) >= 1);
    }

    #[test]
    fn figure_suite_registers_every_paper_figure() {
        let out = ScenarioConfig::tiny(1).run();
        let suite = figure_suite(&out);
        assert_eq!(
            suite.names(),
            vec!["table1", "fig4", "fig8", "fig9", "fig10", "stations", "fig11", "fig6"]
        );
    }

    #[test]
    fn scenario_names_resolve() {
        assert!(scenario_by_name("tiny", 1, 1.0).is_some());
        assert!(scenario_by_name("small", 1, 1.0).is_some());
        let p = scenario_by_name("paper_day", 1, 0.5).unwrap();
        assert_eq!(p.day_us(), 360_000_000);
        // Non-preset names fall through to the sweep matrix.
        let s = scenario_by_name("roaming", 7, 1.0).unwrap();
        assert!(matches!(s, NamedScenario::Spec(_, 7)));
        assert!(scenario_by_name("nope", 1, 1.0).is_none());
    }

    #[test]
    fn git_sha_is_short_and_nonempty() {
        let sha = git_sha();
        assert!(!sha.is_empty());
        assert!(sha.len() <= 12);
    }

    #[test]
    fn windowed_stream_digest_is_order_insensitive_within_channel() {
        use jigsaw_core::jframe::{Instance, JFrame};
        use jigsaw_ieee80211::{Channel, PhyRate};
        use jigsaw_trace::{PhyStatus, RadioId};
        let jf = |ts: u64, chan: u8, fill: u8| JFrame {
            ts,
            bytes: vec![fill; 20].into(),
            wire_len: 20,
            rate: PhyRate::R11,
            channel: Channel::of(chan),
            instances: jigsaw_core::Instances::one(Instance {
                radio: RadioId(0),
                ts_local: ts + 7,
                ts_universal: ts,
                rssi_dbm: -50,
                status: PhyStatus::Ok,
            }),
            dispersion: 0,
            valid: true,
            unique: true,
        };
        let frames = [jf(1, 1, 1), jf(2, 6, 2), jf(3, 1, 3)];
        let mut fwd = WindowedStreamDigest::new();
        frames.iter().for_each(|f| fwd.observe(f));
        // Same multiset, different interleaving: equal digests.
        let mut rev = WindowedStreamDigest::new();
        frames.iter().rev().for_each(|f| rev.observe(f));
        assert_eq!(fwd.count(), 3);
        assert_eq!(fwd.hex(), rev.hex());
        // Clock-derived fields do not move it...
        let mut shifted = WindowedStreamDigest::new();
        for f in &frames {
            let mut f = f.clone();
            f.ts += 1_000;
            f.instances[0].ts_universal += 1_000;
            shifted.observe(&f);
        }
        assert_eq!(fwd.hex(), shifted.hex());
        // ...but content, channel, and count do.
        let mut dropped = WindowedStreamDigest::new();
        frames.iter().take(2).for_each(|f| dropped.observe(f));
        assert_ne!(fwd.hex(), dropped.hex());
        let mut moved = WindowedStreamDigest::new();
        for (i, f) in frames.iter().enumerate() {
            let mut f = f.clone();
            if i == 0 {
                f.channel = Channel::of(11);
            }
            moved.observe(&f);
        }
        assert_ne!(fwd.hex(), moved.hex());
    }
}

//! The `repro sweep` harness: a standing golden-record correctness sweep
//! over adversarial traffic shapes.
//!
//! Each scenario of [`ScenarioSpec::sweep_matrix`] runs end-to-end —
//! simulate, record to a disk corpus, merge back on **both** drivers
//! (serial and channel-sharded, from memory and from disk), stream the
//! full figure suite, and replay a `[from, to)` window — and every leg is
//! cross-checked:
//!
//! * the four full merges (mem-serial, mem-sharded, disk-serial,
//!   disk-sharded) must emit the identical jframe stream
//!   ([`crate::JframeStreamDigest`]: count + order + content);
//! * the figure suite's machine `record` lines must be byte-identical
//!   between the serial and sharded drivers;
//! * the windowed replay (seek-bounded, mid-trace clock bootstrap) must be
//!   identical between the two drivers ([`crate::WindowedStreamDigest`]),
//!   and its digest is pinned by the golden file. Windowed-vs-clipped-full
//!   equality is *not* asserted here — adversarial scenarios starve radios
//!   of sync corrections long enough that the replays' extrapolated clocks
//!   legitimately part ways; that tame-scenario contract lives in
//!   `crates/bench/tests/windowed_replay.rs`.
//!
//! The surviving facts — corpus digest, stream digest, window digest, and
//! every `record` line — form a small text **golden file** per scenario
//! under `.github/golden/sweep/`. CI regenerates each scenario from
//! scratch and diffs against the checked-in golden line by line; any
//! behavioral drift in the simulator, the trace format, the merger, or an
//! analysis shows up as a named line in a named scenario. Intentional
//! changes re-bless with `repro sweep --bless`.

use crate::{open_corpus, record_corpus, JframeStreamDigest, WindowedStreamDigest};
use jigsaw_analysis::suite::record_lines;
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::JFrame;
use jigsaw_sim::spec::ScenarioSpec;
use jigsaw_trace::TimeWindow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The seed every golden file is blessed at (the paper's trace date).
pub const SWEEP_SEED: u64 = 20060124;

/// Default golden directory, relative to the repo root.
pub const GOLDEN_DIR: &str = ".github/golden/sweep";

/// Everything one sweep scenario proved and produced — the numbers the
/// summary line prints plus the golden-file body to compare or bless.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name (also the golden file stem).
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// Capture events recorded and re-merged.
    pub events: u64,
    /// Jframes out of the (agreeing) full merges.
    pub jframes: u64,
    /// Full-stream digest (count + order + content).
    pub stream_digest: String,
    /// Digest of the corpus files on disk.
    pub corpus_digest: String,
    /// The replay window exercised (middle third of the corpus span).
    pub window: TimeWindow,
    /// In-window jframes of the (agreeing) windowed replays.
    pub window_jframes: u64,
    /// Clock-invariant per-channel window digest.
    pub window_digest: String,
    /// The figure suite's machine `record` lines (serial ≡ sharded).
    pub record_lines: String,
    /// The golden-file body all of the above serializes to.
    pub golden_body: String,
}

/// How a scenario's output relates to its golden file.
#[derive(Debug, Clone)]
pub enum GoldenStatus {
    /// Byte-identical to the checked-in golden.
    Matched,
    /// `--bless` (re)wrote the golden from this run.
    Blessed,
    /// Differs from the golden; the payload is a readable line diff.
    Mismatch(String),
    /// No golden exists at this path (and `--bless` was not given).
    Missing(PathBuf),
}

impl GoldenStatus {
    /// One-word label for summary lines.
    pub fn label(&self) -> &'static str {
        match self {
            GoldenStatus::Matched => "MATCHED",
            GoldenStatus::Blessed => "BLESSED",
            GoldenStatus::Mismatch(_) => "MISMATCH",
            GoldenStatus::Missing(_) => "MISSING",
        }
    }

    /// True for the outcomes that should fail a CI run.
    pub fn is_failure(&self) -> bool {
        matches!(self, GoldenStatus::Mismatch(_) | GoldenStatus::Missing(_))
    }
}

fn sharded_cfg(channels: usize) -> PipelineConfig {
    PipelineConfig {
        shard: ShardConfig {
            max_threads: channels.max(1),
            ..ShardConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Runs one sweep scenario end-to-end with every cross-check, leaving its
/// corpus under `corpus_root/<name>`. `Err` carries a human-readable
/// account of the first invariant that broke.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    corpus_root: &Path,
) -> Result<ScenarioRun, String> {
    let name = spec.name.clone();
    let out = spec.run(seed);
    if out.total_events() == 0 {
        return Err(format!("{name}: simulation produced no capture events"));
    }
    let channels = jigsaw_trace::stream::distinct_channels(&out.radio_meta).len();
    let dir = corpus_root.join(&name);
    let summary = record_corpus(&out, &dir, &name, seed, 1.0, 65_535, 4096)
        .map_err(|e| format!("{name}: record corpus: {e}"))?;

    // Leg 1 — the four full merges must agree byte-for-byte.
    let serial = PipelineConfig::default();
    let sharded = sharded_cfg(channels);
    let mut mem_serial = JframeStreamDigest::new();
    Pipeline::merge_only(
        out.memory_streams(),
        &serial,
        OnJFrame(|jf: &JFrame| mem_serial.observe(jf)),
    )
    .map_err(|e| format!("{name}: in-memory serial merge: {e}"))?;
    let mut mem_sharded = JframeStreamDigest::new();
    Pipeline::run_parallel(
        out.memory_streams(),
        &sharded,
        OnJFrame(|jf: &JFrame| mem_sharded.observe(jf)),
    )
    .map_err(|e| format!("{name}: in-memory sharded merge: {e}"))?;
    drop(out);

    let corpus = open_corpus(&dir).map_err(|e| format!("{name}: {e}"))?;
    let drivers = [("serial", &serial, false), ("sharded", &sharded, true)];
    let mut legs = vec![("mem-sharded".to_string(), mem_sharded)];
    for (driver, cfg, parallel) in drivers {
        let mut digest = JframeStreamDigest::new();
        corpus
            .pass(cfg, parallel, OnJFrame(|jf: &JFrame| digest.observe(jf)))
            .map_err(|e| format!("{name}: disk {driver} merge: {e}"))?;
        legs.push((format!("disk-{driver}"), digest));
    }
    for (leg, d) in &legs {
        if d.count() != mem_serial.count() || d.hex() != mem_serial.hex() {
            return Err(format!(
                "{name}: {leg} merge diverged: {} jframes / {} vs mem-serial {} jframes / {}",
                d.count(),
                d.hex(),
                mem_serial.count(),
                mem_serial.hex()
            ));
        }
    }
    if mem_serial.count() == 0 {
        return Err(format!("{name}: merges produced no jframes"));
    }

    // Leg 2 — the figure suite's machine records, serial vs sharded.
    let mut lines = Vec::new();
    for (driver, cfg, parallel) in drivers {
        let (figures, _) = corpus
            .figures(cfg, parallel, ())
            .map_err(|e| format!("{name}: {driver} analyze: {e}"))?;
        lines.push(record_lines(&figures));
    }
    let (lines_serial, lines_sharded) = (&lines[0], &lines[1]);
    if lines_serial != lines_sharded {
        let diff = diff_lines(lines_serial, lines_sharded)
            .unwrap_or_else(|| "  (diff unavailable)\n".into());
        return Err(format!(
            "{name}: analyze record lines differ between serial and sharded drivers:\n{diff}"
        ));
    }

    // Leg 3 — the windowed replay over the middle third of the span.
    let span = corpus
        .corpus
        .universal_span()
        .map_err(|e| format!("{name}: read indexes: {e}"))?
        .ok_or_else(|| format!("{name}: corpus records no events"))?;
    let (lo, hi) = span;
    let third = (hi - lo) / 3;
    let window = TimeWindow::new(lo + third, lo + 2 * third)
        .ok_or_else(|| format!("{name}: corpus span [{lo}, {hi}] too short to window"))?;
    let mut windowed = Vec::new();
    for (driver, cfg, parallel) in drivers {
        let cfg = PipelineConfig {
            window: Some(window),
            ..cfg.clone()
        };
        let mut digest = WindowedStreamDigest::new();
        corpus
            .pass(&cfg, parallel, OnJFrame(|jf: &JFrame| digest.observe(jf)))
            .map_err(|e| format!("{name}: windowed {driver} merge: {e}"))?;
        windowed.push(digest);
    }
    let (win_serial, win_sharded) = (&windowed[0], &windowed[1]);
    // Both drivers must agree on the windowed replay exactly; the digest
    // itself is then pinned by the golden file. (Equality with a
    // clipped-full replay is deliberately NOT asserted here: it holds only
    // while every radio keeps receiving sync-quality frames, and the
    // adversarial scenarios — co-channel re-allocation in particular —
    // starve radios of corrections for whole seconds, after which the two
    // replays' extrapolated clocks legitimately disagree. The tame-scenario
    // windowed-vs-clipped contract stays pinned in
    // `crates/bench/tests/windowed_replay.rs`.)
    if win_serial.count() != win_sharded.count() || win_serial.hex() != win_sharded.hex() {
        return Err(format!(
            "{name}: windowed replay diverged between drivers: serial {} jframes / {} vs sharded {} jframes / {}",
            win_serial.count(),
            win_serial.hex(),
            win_sharded.count(),
            win_sharded.hex()
        ));
    }

    let mut run = ScenarioRun {
        name,
        seed,
        events: summary.events,
        jframes: mem_serial.count(),
        stream_digest: mem_serial.hex(),
        corpus_digest: summary.digest,
        window,
        window_jframes: win_serial.count(),
        window_digest: win_serial.hex(),
        record_lines: lines_serial.clone(),
        golden_body: String::new(),
    };
    run.golden_body = golden_body(&run);
    Ok(run)
}

/// Serializes a run to its golden-file body: a short header of pinned
/// digests, then every figure `record` line verbatim.
pub fn golden_body(run: &ScenarioRun) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "# jigsaw sweep golden — scenario {} seed {}\n",
        run.name, run.seed
    ));
    s.push_str(&format!("corpus_digest {}\n", run.corpus_digest));
    s.push_str(&format!("events {}\n", run.events));
    s.push_str(&format!("jframes {}\n", run.jframes));
    s.push_str(&format!("stream_digest {}\n", run.stream_digest));
    s.push_str(&format!("window {} {}\n", run.window.from, run.window.to));
    s.push_str(&format!("window_jframes {}\n", run.window_jframes));
    s.push_str(&format!("window_digest {}\n", run.window_digest));
    s.push_str(&run.record_lines);
    s
}

/// The golden-file path for a scenario name.
pub fn golden_path(golden_dir: &Path, name: &str) -> PathBuf {
    golden_dir.join(format!("{name}.golden"))
}

/// Compares a run against its golden file, or blesses it. Only
/// [`GoldenStatus::Blessed`] writes anything.
pub fn check_golden(run: &ScenarioRun, golden_dir: &Path, bless: bool) -> GoldenStatus {
    let path = golden_path(golden_dir, &run.name);
    if bless {
        std::fs::create_dir_all(golden_dir).expect("create golden dir");
        std::fs::write(&path, &run.golden_body)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return GoldenStatus::Blessed;
    }
    let Ok(golden) = std::fs::read_to_string(&path) else {
        return GoldenStatus::Missing(path);
    };
    match diff_lines(&golden, &run.golden_body) {
        None => GoldenStatus::Matched,
        Some(diff) => GoldenStatus::Mismatch(diff),
    }
}

/// A readable line-by-line diff, or `None` when the texts are identical.
/// The left side is labeled `golden`, the right `actual`; at most 20
/// differing lines print before eliding.
pub fn diff_lines(golden: &str, actual: &str) -> Option<String> {
    if golden == actual {
        return None;
    }
    let g: Vec<&str> = golden.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..g.len().max(a.len()) {
        let gl = g.get(i).copied();
        let al = a.get(i).copied();
        if gl != al {
            if shown == 20 {
                out.push_str("  ... (further differences elided)\n");
                break;
            }
            out.push_str(&format!(
                "  line {}:\n    golden: {}\n    actual: {}\n",
                i + 1,
                gl.unwrap_or("<absent>"),
                al.unwrap_or("<absent>")
            ));
            shown += 1;
        }
    }
    if g.len() != a.len() {
        out.push_str(&format!(
            "  line counts differ: golden {} vs actual {}\n",
            g.len(),
            a.len()
        ));
    }
    Some(out)
}

/// Fails fast when the checked-in golden set and the sweep matrix drift
/// apart — a scenario with no golden, or a stale golden for a scenario the
/// matrix no longer names — in **either** direction.
pub fn check_matrix_coverage(golden_dir: &Path) -> Result<(), String> {
    let matrix: BTreeSet<String> = ScenarioSpec::sweep_matrix()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let entries = std::fs::read_dir(golden_dir).map_err(|e| {
        format!(
            "golden dir {}: {e} (bless with `repro sweep --bless`)",
            golden_dir.display()
        )
    })?;
    let mut golden: BTreeSet<String> = BTreeSet::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if let Some(stem) = fname.strip_suffix(".golden") {
            golden.insert(stem.to_string());
        }
    }
    let missing: Vec<&String> = matrix.difference(&golden).collect();
    let stale: Vec<&String> = golden.difference(&matrix).collect();
    if missing.is_empty() && stale.is_empty() {
        return Ok(());
    }
    let mut msg = String::new();
    if !missing.is_empty() {
        msg.push_str(&format!(
            "matrix scenarios with no golden file: {missing:?} (bless with `repro sweep --bless`)\n"
        ));
    }
    if !stale.is_empty() {
        msg.push_str(&format!(
            "golden files for scenarios the matrix no longer names: {stale:?} (delete them)\n"
        ));
    }
    Err(msg.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_is_none_on_identical_and_readable_on_drift() {
        assert!(diff_lines("a\nb\n", "a\nb\n").is_none());
        let d = diff_lines("a\nb\nc\n", "a\nX\n").unwrap();
        assert!(d.contains("line 2"));
        assert!(d.contains("golden: b"));
        assert!(d.contains("actual: X"));
        assert!(d.contains("line counts differ: golden 3 vs actual 2"));
    }

    #[test]
    fn golden_body_round_trips_through_diff() {
        let run = ScenarioRun {
            name: "roaming".into(),
            seed: 1,
            events: 10,
            jframes: 5,
            stream_digest: "aa".into(),
            corpus_digest: "bb".into(),
            window: TimeWindow::new(100, 200).unwrap(),
            window_jframes: 2,
            window_digest: "cc".into(),
            record_lines: "record fig4.p50 1.5\n".into(),
            golden_body: String::new(),
        };
        let body = golden_body(&run);
        assert!(body.starts_with("# jigsaw sweep golden — scenario roaming seed 1\n"));
        assert!(body.contains("window 100 200\n"));
        assert!(body.ends_with("record fig4.p50 1.5\n"));
        assert!(diff_lines(&body, &body).is_none());
    }

    #[test]
    fn matrix_coverage_flags_both_directions() {
        let dir = std::env::temp_dir().join(format!("sweep_cov_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Missing dir fails fast.
        assert!(check_matrix_coverage(&dir).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        // Empty dir: every matrix scenario is missing.
        let err = check_matrix_coverage(&dir).unwrap_err();
        assert!(err.contains("no golden file"));
        assert!(err.contains("roaming"));
        // Full set passes.
        for s in ScenarioSpec::sweep_matrix() {
            std::fs::write(golden_path(&dir, &s.name), "x\n").unwrap();
        }
        check_matrix_coverage(&dir).expect("full set is consistent");
        // A stale extra fails the other direction.
        std::fs::write(golden_path(&dir, "retired_scenario"), "x\n").unwrap();
        let err = check_matrix_coverage(&dir).unwrap_err();
        assert!(err.contains("no longer names"));
        assert!(err.contains("retired_scenario"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

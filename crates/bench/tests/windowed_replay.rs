//! The time-windowed replay contract, pinned.
//!
//! A windowed replay (`--from/--to`) re-anchors the clock bootstrap
//! mid-trace and index-seeks every read, so its universal timeline agrees
//! with a full replay's only to the re-anchor tolerance — but its
//! *unification* must agree exactly. The contract, documented on
//! `jigsaw_core::pipeline::WindowClipper`:
//!
//! 1. window membership is decided in anchor time (clock-invariant), so
//!    windowed and clipped-full replays select the same jframes;
//! 2. per channel, the multiset of clock-invariant jframe identities
//!    (`JFrame::stable_digest`) is identical between the windowed replay
//!    and the full replay clipped to the same window;
//! 3. merged universal timestamps of matching jframes agree within a
//!    tolerance bounded by NTP anchor error + oscillator drift;
//! 4. both merge drivers produce byte-identical windowed output (stream
//!    and figure records), and the windowed replay's disk reads are
//!    bounded by the window's blocks, not the corpus.

use jigsaw_bench::{
    corpus_sources, corpus_sources_windowed, corpus_wired, figure_suite_parts, record_corpus,
    WindowedStreamDigest,
};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig, WindowClipper};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::JFrame;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::TimeWindow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A figure reduced to its comparable identity: (name, render, records).
type FigureOutput = (String, String, Vec<jigsaw_analysis::Record>);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-windowed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Documented re-anchor tolerance for the tiny scenario: NTP anchor error
/// (± a few ms) plus oscillator drift over the 8 s trace (tens of ppm →
/// well under a ms). 10 ms bounds both with margin.
const TS_TOLERANCE_US: u64 = 10_000;

fn sharded_cfg(corpus: &Corpus, window: Option<TimeWindow>) -> PipelineConfig {
    let channels: std::collections::BTreeSet<u8> = corpus
        .manifest()
        .radios
        .iter()
        .map(|r| r.meta.channel.number())
        .collect();
    PipelineConfig {
        shard: ShardConfig {
            max_threads: channels.len().max(1),
            ..ShardConfig::default()
        },
        window,
        ..PipelineConfig::default()
    }
}

/// Runs a windowed merge, returning the emitted jframes plus disk bytes.
fn windowed_jframes(corpus: &Corpus, window: TimeWindow, parallel: bool) -> (Vec<JFrame>, u64) {
    let counter = Arc::new(AtomicU64::new(0));
    let sources = corpus_sources_windowed(corpus, Arc::clone(&counter), window).unwrap();
    let cfg = if parallel {
        sharded_cfg(corpus, Some(window))
    } else {
        PipelineConfig {
            window: Some(window),
            ..PipelineConfig::default()
        }
    };
    let mut out = Vec::new();
    let run = |sources, cfg: &PipelineConfig, out: &mut Vec<JFrame>| {
        let obs = OnJFrame(|jf: &JFrame| out.push(jf.clone()));
        if parallel {
            Pipeline::run_parallel(sources, cfg, obs).map(|r| r.merge)
        } else {
            Pipeline::merge_only(sources, cfg, obs).map(|(_, stats)| stats)
        }
    };
    run(sources, &cfg, &mut out).unwrap();
    (out, counter.load(Ordering::Relaxed))
}

/// Runs the FULL corpus replay with emission clipped to the window — the
/// reference side of the contract.
fn clipped_full_jframes(corpus: &Corpus, window: TimeWindow) -> (Vec<JFrame>, u64) {
    let counter = Arc::new(AtomicU64::new(0));
    let sources = corpus_sources(corpus, Arc::clone(&counter)).unwrap();
    let cfg = PipelineConfig {
        window: Some(window),
        ..PipelineConfig::default()
    };
    let mut out = Vec::new();
    Pipeline::merge_only(sources, &cfg, OnJFrame(|jf: &JFrame| out.push(jf.clone()))).unwrap();
    (out, counter.load(Ordering::Relaxed))
}

fn digest_of(frames: &[JFrame]) -> WindowedStreamDigest {
    let mut d = WindowedStreamDigest::new();
    frames.iter().for_each(|f| d.observe(f));
    d
}

/// Pretty-prints the jframes whose stable identities appear in one stream
/// but not the other (debugging aid: the assertion message names them).
fn describe_diff(windowed: &[JFrame], full: &[JFrame]) -> String {
    let count = |frames: &[JFrame]| {
        let mut m: HashMap<u64, (i64, String)> = HashMap::new();
        for f in frames {
            let e = m.entry(f.stable_digest()).or_insert_with(|| {
                (
                    0,
                    format!(
                        "ts={} chan={} len={} valid={} instances={:?}",
                        f.ts,
                        f.channel.number(),
                        f.wire_len,
                        f.valid,
                        f.instances
                            .iter()
                            .map(|i| (i.radio.0, i.ts_local, i.status))
                            .collect::<Vec<_>>()
                    ),
                )
            });
            e.0 += 1;
        }
        m
    };
    let (w, f) = (count(windowed), count(full));
    let mut out = String::new();
    for (k, (n, desc)) in &w {
        let fn_ = f.get(k).map(|e| e.0).unwrap_or(0);
        if *n != fn_ {
            out.push_str(&format!("windowed×{n} vs full×{fn_}: {desc}\n"));
        }
    }
    for (k, (n, desc)) in &f {
        if !w.contains_key(k) {
            out.push_str(&format!("windowed×0 vs full×{n}: {desc}\n"));
        }
    }
    out
}

#[test]
fn windowed_replay_matches_clipped_full_replay() {
    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let dir = tmpdir("contract");
    record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    let corpus = Corpus::open(&dir).unwrap();
    let window = TimeWindow::new(3_000_000, 6_000_000).unwrap();

    let (win_serial, win_bytes) = windowed_jframes(&corpus, window, false);
    let (full, full_bytes) = clipped_full_jframes(&corpus, window);
    assert!(!win_serial.is_empty(), "window selected no jframes");

    // Contract #2: identical per-channel multisets of clock-invariant
    // jframe identities.
    assert_eq!(
        digest_of(&win_serial).hex(),
        digest_of(&full).hex(),
        "windowed unification diverged from clipped-full:\n{}",
        describe_diff(&win_serial, &full)
    );
    assert_eq!(win_serial.len(), full.len());

    // Contract #3: matching jframes' merged timestamps agree within the
    // documented re-anchor tolerance (match by stable identity; duplicates
    // pair in order within a channel).
    let mut by_id: HashMap<u64, Vec<u64>> = HashMap::new();
    for f in &full {
        by_id.entry(f.stable_digest()).or_default().push(f.ts);
    }
    let mut worst = 0u64;
    for f in &win_serial {
        let ts = by_id
            .get_mut(&f.stable_digest())
            .and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
            .expect("matching jframe exists (digests already equal)");
        worst = worst.max(ts.abs_diff(f.ts));
    }
    assert!(
        worst <= TS_TOLERANCE_US,
        "re-anchored timestamps {worst} µs off, tolerance {TS_TOLERANCE_US}"
    );

    // Contract #4a: both drivers emit the byte-identical windowed stream.
    let (win_sharded, _) = windowed_jframes(&corpus, window, true);
    assert_eq!(win_serial.len(), win_sharded.len());
    for (a, b) in win_serial.iter().zip(&win_sharded) {
        assert_eq!(a.ts, b.ts);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.instances, b.instances);
    }

    // Contract #4b: seek-bounded I/O — the 3/8 window (plus warm-up and
    // slack) must read meaningfully less than the full scan.
    assert!(
        win_bytes < full_bytes,
        "windowed replay read {win_bytes} bytes, full scan {full_bytes}"
    );

    // Contract #1 sanity: every emitted jframe's anchor key is in-window.
    let metas: Vec<_> = corpus.manifest().radios.iter().map(|r| r.meta).collect();
    let clip = WindowClipper::new(&metas, window);
    for f in win_serial.iter().chain(&full) {
        assert!(clip.admits(f), "out-of-window jframe emitted");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `[from, to)` boundary behavior at exact event/block timestamps, on both
/// drivers: an event at `from` is in, an event at `to` is out, block seams
/// do not duplicate or drop anything.
#[test]
fn window_clipping_pins_half_open_boundaries() {
    use jigsaw_trace::corpus::CorpusWriter;
    use jigsaw_trace::stream::EventStream;
    use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};

    // One radio, zero anchors (local time == anchor time), events every
    // 500 µs; a small block target forces many blocks so `from`/`to` land
    // exactly on block-boundary timestamps.
    let meta = RadioMeta {
        radio: RadioId(0),
        monitor: MonitorId(0),
        channel: jigsaw_ieee80211::Channel::of(1),
        anchor_wall_us: 0,
        anchor_local_us: 0,
    };
    let events: Vec<PhyEvent> = (0..400u64)
        .map(|k| PhyEvent {
            radio: RadioId(0),
            ts_local: 1_000 + k * 500,
            channel: jigsaw_ieee80211::Channel::of(1),
            rate: jigsaw_ieee80211::PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len: 60,
            bytes: vec![k as u8; 60].into(),
        })
        .collect();
    let dir = tmpdir("edges");
    let mut w = CorpusWriter::create(&dir, "edges", 1, 1.0, 200, 201_000, 2048).unwrap();
    w.record_radio(meta, events.iter()).unwrap();
    w.finish().unwrap();
    let corpus = Corpus::open(&dir).unwrap();

    // Pick window edges exactly at block-boundary event timestamps.
    let src = corpus.source(0, Arc::new(AtomicU64::new(0))).unwrap();
    let index = src.index().to_vec();
    assert!(index.len() >= 4, "need several blocks, got {}", index.len());
    let from = index[1].first_ts; // exact first event of block 1
    let to = index[3].first_ts; // exact first event of block 3: excluded
    let window = TimeWindow::new(from, to).unwrap();

    let expected: Vec<u64> = events
        .iter()
        .map(|e| e.ts_local)
        .filter(|&t| t >= from && t < to)
        .collect();
    for parallel in [false, true] {
        let (got, _) = windowed_jframes(&corpus, window, parallel);
        let got_ts: Vec<u64> = got.iter().map(|j| j.ts).collect();
        assert_eq!(got_ts, expected, "parallel={parallel}");
    }
    // The same edges, clipped from a full replay: identical selection.
    let (full, _) = clipped_full_jframes(&corpus, window);
    assert_eq!(full.iter().map(|j| j.ts).collect::<Vec<_>>(), expected);

    // A stream seeked to an exact block seam starts exactly there.
    let mut s = src.open_stream_range(from, to - 1).unwrap();
    let mut first = None;
    while let Some(e) = s.next_event().unwrap() {
        first.get_or_insert(e.ts_local);
    }
    assert_eq!(first, Some(from));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The windowed figure suite: serial and sharded drivers agree
/// byte-for-byte on every figure's render and machine records (what the
/// CI windowed-analyze comparison asserts at the CLI level).
#[test]
fn windowed_figure_suite_serial_equals_sharded() {
    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let dir = tmpdir("suite");
    record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    drop(out);
    let corpus = Corpus::open(&dir).unwrap();
    let window = TimeWindow::new(2_000_000, 7_000_000).unwrap();

    let (wired_all, ap_table) = corpus_wired(&corpus).unwrap();
    let wired: Vec<_> = wired_all
        .into_iter()
        .filter(|r| window.contains(r.ts))
        .collect();

    let run = |parallel: bool| -> Vec<FigureOutput> {
        let ap_lookup = |sid: u16| ap_table[&sid];
        let mut suite = figure_suite_parts(
            corpus.manifest().radios.len(),
            corpus.manifest().duration_us,
            &wired,
            &ap_lookup,
        );
        let sources =
            corpus_sources_windowed(&corpus, Arc::new(AtomicU64::new(0)), window).unwrap();
        let cfg = if parallel {
            sharded_cfg(&corpus, Some(window))
        } else {
            PipelineConfig {
                window: Some(window),
                ..PipelineConfig::default()
            }
        };
        if parallel {
            Pipeline::run_parallel(sources, &cfg, &mut suite).unwrap();
        } else {
            Pipeline::run(sources, &cfg, &mut suite).unwrap();
        }
        suite
            .finish()
            .iter()
            .map(|f| (f.name().to_string(), f.render(), f.records()))
            .collect()
    };
    let serial = run(false);
    let sharded = run(true);
    assert_eq!(serial.len(), sharded.len());
    let mut nonempty = 0;
    for (s, p) in serial.iter().zip(&sharded) {
        assert_eq!(s.0, p.0, "figure order diverged");
        assert_eq!(s.1, p.1, "{}: windowed render diverged across drivers", s.0);
        assert_eq!(
            s.2, p.2,
            "{}: windowed records diverged across drivers",
            s.0
        );
        nonempty += usize::from(!s.2.is_empty());
    }
    assert!(nonempty >= 5, "suite produced too few figures with records");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Windows that miss the corpus span entirely produce an empty stream
/// (the CLI additionally refuses them up front via `universal_span`).
#[test]
fn window_outside_span_is_empty_not_wrong() {
    let seed = 7;
    let out = ScenarioConfig::tiny(seed).run();
    let dir = tmpdir("outside");
    record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    drop(out);
    let corpus = Corpus::open(&dir).unwrap();
    let (lo, hi) = corpus.universal_span().unwrap().unwrap();
    assert!(lo < hi);

    // Far enough out that even the warm-up pre-roll starts past the end.
    let beyond = TimeWindow::new(hi + 10_000_000, hi + 20_000_000).unwrap();
    assert!(!beyond.overlaps(lo, hi));
    let (frames, bytes) = windowed_jframes(&corpus, beyond, false);
    assert!(frames.is_empty());
    // Nothing decoded either: index says no block overlaps.
    assert_eq!(bytes, 0);

    // A window whose warm-up clips the trace tail still emits nothing
    // in-window (jframes past `to` or before `from` never escape).
    let tail = TimeWindow::new(hi + 1_000_000, hi + 2_000_000).unwrap();
    let (frames, _) = windowed_jframes(&corpus, tail, false);
    assert!(frames.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

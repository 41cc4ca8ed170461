//! The tentpole acceptance test, in-process: record a simulated scenario
//! to an on-disk corpus, stream it back through both merge drivers, and
//! require the jframe stream to be identical — count, order, and digest —
//! to the in-memory runs at the same seed, with merger residency bounded
//! by the window rather than the corpus size.

use jigsaw_bench::{corpus_sources, record_corpus, JframeStreamDigest};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::JFrame;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::Corpus;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jigsaw-corpus-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_corpus_merge_matches_memory_serial_and_sharded() {
    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let events = out.total_events();
    assert!(events > 0);

    // Record with a small block size so the corpus spans many blocks per
    // radio (the index-guided bootstrap read must cross block seams).
    let dir = tmpdir("equiv");
    let summary = record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    assert_eq!(summary.events, events);

    let cfg = PipelineConfig::default();

    // In-memory references: serial and channel-sharded.
    let mut mem_serial = JframeStreamDigest::new();
    let (_, mem_stats) = Pipeline::merge_only(
        out.memory_streams(),
        &cfg,
        OnJFrame(|jf: &JFrame| mem_serial.observe(jf)),
    )
    .unwrap();
    let par_cfg = PipelineConfig {
        shard: ShardConfig {
            max_threads: jigsaw_trace::stream::distinct_channels(&out.radio_meta)
                .len()
                .max(1),
            ..ShardConfig::default()
        },
        ..PipelineConfig::default()
    };
    let mut mem_sharded = JframeStreamDigest::new();
    Pipeline::run_parallel(
        out.memory_streams(),
        &par_cfg,
        OnJFrame(|jf: &JFrame| mem_sharded.observe(jf)),
    )
    .unwrap();
    drop(out);

    // Disk-backed: serial and sharded, from the recorded corpus.
    let corpus = Corpus::open(&dir).unwrap();
    assert!(corpus.verify_digest().unwrap());
    let run_disk = |parallel: bool, cfg: &PipelineConfig| {
        let counter = Arc::new(AtomicU64::new(0));
        let sources = corpus_sources(&corpus, Arc::clone(&counter)).unwrap();
        let mut digest = JframeStreamDigest::new();
        let obs = OnJFrame(|jf: &JFrame| digest.observe(jf));
        let stats = if parallel {
            Pipeline::run_parallel(sources, cfg, obs).unwrap().merge
        } else {
            Pipeline::merge_only(sources, cfg, obs).unwrap().1
        };
        (digest, stats, counter.load(Ordering::Relaxed))
    };
    let (disk_serial, serial_stats, bytes_serial) = run_disk(false, &cfg);
    let (disk_sharded, sharded_stats, _) = run_disk(true, &par_cfg);

    // Identical streams: count + order + content, across all four runs.
    assert_eq!(mem_serial.count(), disk_serial.count());
    assert_eq!(mem_serial.hex(), disk_serial.hex(), "disk serial diverged");
    assert_eq!(
        mem_serial.hex(),
        mem_sharded.hex(),
        "memory sharded diverged"
    );
    assert_eq!(
        mem_serial.hex(),
        disk_sharded.hex(),
        "disk sharded diverged"
    );
    assert_eq!(serial_stats.events_in, events);
    assert_eq!(sharded_stats.events_in, events);

    // The disk merge actually read the corpus (data files + re-read of the
    // bootstrap-window blocks), and never materialized it: peak residency
    // must be well under the event count even on this small trace.
    let data_bytes = corpus.data_bytes().unwrap();
    assert!(
        bytes_serial >= data_bytes / 2,
        "merge did not stream the corpus"
    );
    assert!(
        serial_stats.peak_buffered < events / 2,
        "peak residency {} vs {events} events: not window-bounded",
        serial_stats.peak_buffered
    );
    // The in-memory path seeds its bootstrap prefix into the merger; the
    // replaying disk path must never buffer more than it.
    assert!(
        serial_stats.peak_buffered <= mem_stats.peak_buffered,
        "disk path ({}) buffers more than the seeding memory path ({})",
        serial_stats.peak_buffered,
        mem_stats.peak_buffered
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recording_is_deterministic_across_runs() {
    let seed = 7;
    let d1 = tmpdir("det1");
    let d2 = tmpdir("det2");
    let s1 = record_corpus(
        &ScenarioConfig::tiny(seed).run(),
        &d1,
        "tiny",
        seed,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    let s2 = record_corpus(
        &ScenarioConfig::tiny(seed).run(),
        &d2,
        "tiny",
        seed,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    assert_eq!(s1.digest, s2.digest, "same seed must record identically");
    let other = record_corpus(
        &ScenarioConfig::tiny(seed + 1).run(),
        &d1,
        "tiny",
        seed + 1,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    assert_ne!(s1.digest, other.digest, "different seed, different corpus");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

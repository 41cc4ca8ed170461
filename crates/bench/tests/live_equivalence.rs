//! Chunk-boundary invariance: the live ingest service must emit a jframe
//! stream **byte-identical to the batch merge** of the same corpus — same
//! count, same order, same stream digest — for *every* chunking of the
//! input bytes, on both drivers (the `LiveMerger` and the sharded batch
//! pipeline fed through `TailStream` adapters). One-byte chunks and chunks
//! straddling trace-block seams are the adversarial cases: they force the
//! tail reader's partial-block staging and block-boundary resume on nearly
//! every poll.

use jigsaw_bench::{corpus_sources, record_corpus, JframeStreamDigest};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::JFrame;
use jigsaw_live::{ChunkedFileTail, LiveConfig, LiveMerger, ManualClock, TailStream};
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::Corpus;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

const SEED: u64 = 20060124;
/// Small trace blocks so even modest chunk sizes straddle block seams.
const BLOCK_BYTES: usize = 512;

struct Fixture {
    dir: PathBuf,
    events: u64,
    batch_count: u64,
    batch_hex: String,
}

/// Records the tiny corpus once per test process and computes the batch
/// reference digest every chunking must reproduce.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let out = ScenarioConfig::tiny(SEED).run();
        let dir = std::env::temp_dir().join(format!("jigsaw-live-equiv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        record_corpus(&out, &dir, "tiny", SEED, 1.0, 65_535, BLOCK_BYTES).unwrap();
        drop(out);
        let corpus = Corpus::open(&dir).unwrap();
        let sources = corpus_sources(&corpus, Arc::new(AtomicU64::new(0))).unwrap();
        let mut digest = JframeStreamDigest::new();
        let (_, stats) = Pipeline::merge_only(
            sources,
            &PipelineConfig::default(),
            OnJFrame(|jf: &JFrame| digest.observe(jf)),
        )
        .unwrap();
        assert!(digest.count() > 0, "batch reference produced no jframes");
        Fixture {
            dir,
            events: stats.events_in,
            batch_count: digest.count(),
            batch_hex: digest.hex(),
        }
    })
}

fn tails(dir: &Path, chunk: usize) -> Vec<ChunkedFileTail> {
    let corpus = Corpus::open(dir).unwrap();
    corpus
        .manifest()
        .radios
        .iter()
        .map(|r| ChunkedFileTail::open(&corpus.dir().join(&r.data), chunk).unwrap())
        .collect()
}

/// `(jframes, digest, events_in)` of a live merge at the given chunking.
fn live_digest(chunk: usize) -> (u64, String, u64) {
    let f = fixture();
    let mut lm = LiveMerger::new(LiveConfig::default(), ManualClock::new());
    for t in tails(&f.dir, chunk) {
        lm.add_source(t);
    }
    let mut digest = JframeStreamDigest::new();
    let report = lm.run(|jf| digest.observe(&jf)).unwrap();
    (digest.count(), digest.hex(), report.merge.events_in)
}

/// The same, through the channel-sharded batch driver over `TailStream`
/// adapters — the `--parallel` leg of `repro tail`.
fn sharded_tail_digest(chunk: usize) -> (u64, String, u64) {
    let f = fixture();
    let sources: Vec<TailStream<ChunkedFileTail>> = tails(&f.dir, chunk)
        .into_iter()
        .map(|t| TailStream::open(t).unwrap())
        .collect();
    let mut digest = JframeStreamDigest::new();
    let report = Pipeline::run_parallel(
        sources,
        &PipelineConfig::default(),
        OnJFrame(|jf: &JFrame| digest.observe(jf)),
    )
    .unwrap();
    (digest.count(), digest.hex(), report.merge.events_in)
}

fn assert_matches_batch(chunk: usize, driver: &str, got: (u64, String, u64)) {
    let f = fixture();
    let (count, hex, events) = got;
    assert_eq!(events, f.events, "{driver} chunk={chunk}: events_in");
    assert_eq!(count, f.batch_count, "{driver} chunk={chunk}: jframe count");
    assert_eq!(hex, f.batch_hex, "{driver} chunk={chunk}: stream digest");
}

#[test]
fn one_byte_and_block_straddling_chunks_match_batch() {
    for chunk in [
        1usize,
        BLOCK_BYTES - 1,
        BLOCK_BYTES,
        BLOCK_BYTES + 1,
        64 * 1024,
    ] {
        assert_matches_batch(chunk, "live", live_digest(chunk));
        assert_matches_batch(chunk, "sharded-tail", sharded_tail_digest(chunk));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chunk sizes — the emitted stream never depends on where
    /// the byte boundaries fall, on either driver.
    #[test]
    fn any_chunking_yields_the_batch_stream(chunk in 1usize..4096) {
        let f = fixture();
        let (count, hex, events) = live_digest(chunk);
        prop_assert_eq!(events, f.events);
        prop_assert_eq!(count, f.batch_count);
        prop_assert_eq!(hex.as_str(), f.batch_hex.as_str());
        let (count, hex, events) = sharded_tail_digest(chunk);
        prop_assert_eq!(events, f.events);
        prop_assert_eq!(count, f.batch_count);
        prop_assert_eq!(hex.as_str(), f.batch_hex.as_str());
    }
}

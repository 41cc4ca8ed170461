//! Property tests for the sweep harness:
//!
//! * **Seed determinism** — any composition of scenario perturbations
//!   (roaming, hidden terminals, co-channel re-allocation, churn, QoS mix)
//!   simulated twice under the same seed records byte-identical corpora
//!   (same corpus digest). This is the precondition for golden files: a
//!   scenario that is not a pure function of (spec, seed) cannot be pinned.
//! * **Dual-driver survival** — every scenario of the shipped sweep matrix
//!   survives record → merge verification on both drivers: the disk-backed
//!   serial and channel-sharded merges reproduce the in-memory serial
//!   jframe stream exactly.

use jigsaw_bench::sweep::SWEEP_SEED;
use jigsaw_bench::{corpus_sources, record_corpus, JframeStreamDigest};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::JFrame;
use jigsaw_sim::scenario::{ScenarioConfig, TruthConfig};
use jigsaw_sim::spec::{CoChannel, HiddenTerminals, QosMix, Roaming, ScenarioSpec, SessionChurn};
use jigsaw_trace::corpus::Corpus;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A spec with an arbitrary subset of the five perturbations enabled, on
/// a deliberately small base (3 s, 2 pods) so property cases stay cheap.
fn spec_from_mask(mask: u8) -> ScenarioSpec {
    let base = ScenarioConfig {
        day_us: 3_000_000,
        n_pods: 2,
        n_aps: 2,
        n_clients: 4,
        truth: TruthConfig::Off,
        ..ScenarioConfig::tiny(0)
    };
    let mut spec = ScenarioSpec::plain(&format!("prop_{mask:02x}"), base);
    if mask & 1 != 0 {
        spec.roaming = Some(Roaming {
            roamers: 2,
            dwell_us: 900_000,
        });
    }
    if mask & 2 != 0 {
        spec.hidden = Some(HiddenTerminals { pairs: 1 });
    }
    if mask & 4 != 0 {
        spec.cochannel = Some(CoChannel {
            channel: 6,
            realloc_at_us: Some(1_500_000),
        });
    }
    if mask & 8 != 0 {
        spec.churn = Some(SessionChurn {
            off_at_us: 1_200_000,
            on_at_us: 2_000_000,
        });
    }
    if mask & 16 != 0 {
        spec.qos = Some(QosMix {
            bulk: 2,
            interactive: 1,
        });
    }
    spec
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jigsaw_sweep_prop_{}_{tag}", std::process::id()))
}

/// Simulates the spec and records it, returning the corpus digest.
fn corpus_digest_of(spec: &ScenarioSpec, seed: u64, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let out = spec.run(seed);
    let summary =
        record_corpus(&out, &dir, &spec.name, seed, 1.0, 65_535, 4096).expect("record corpus");
    let _ = std::fs::remove_dir_all(&dir);
    summary.digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn any_spec_is_seed_deterministic(mask in 0u8..32, seed in 1u64..10_000) {
        let spec = spec_from_mask(mask);
        let a = corpus_digest_of(&spec, seed, &format!("{mask}_{seed}_a"));
        let b = corpus_digest_of(&spec, seed, &format!("{mask}_{seed}_b"));
        prop_assert_eq!(a, b, "spec {} not deterministic under seed {}", spec.name, seed);
    }
}

#[test]
fn matrix_scenarios_survive_record_and_dual_driver_merge() {
    let root = scratch_dir("matrix");
    let _ = std::fs::remove_dir_all(&root);
    for spec in ScenarioSpec::sweep_matrix() {
        let out = spec.run(SWEEP_SEED);
        let dir = root.join(&spec.name);
        let summary = record_corpus(&out, &dir, &spec.name, SWEEP_SEED, 1.0, 65_535, 4096)
            .expect("record corpus");
        assert!(summary.events > 0, "{}: empty corpus", spec.name);

        // The reference stream: in-memory serial merge.
        let mut mem = JframeStreamDigest::new();
        Pipeline::merge_only(
            out.memory_streams(),
            &PipelineConfig::default(),
            OnJFrame(|jf: &JFrame| mem.observe(jf)),
        )
        .expect("in-memory merge");
        assert!(mem.count() > 0, "{}: no jframes", spec.name);
        let channels = jigsaw_trace::stream::distinct_channels(&out.radio_meta).len();
        drop(out);

        let corpus = Corpus::open(&dir).expect("open corpus");
        assert!(
            corpus.verify_digest().expect("digest"),
            "{}: corrupt corpus",
            spec.name
        );
        let serial_cfg = PipelineConfig::default();
        let sharded_cfg = PipelineConfig {
            shard: ShardConfig {
                max_threads: channels.max(1),
                ..ShardConfig::default()
            },
            ..PipelineConfig::default()
        };
        for (driver, parallel) in [("serial", false), ("sharded", true)] {
            let counter = Arc::new(AtomicU64::new(0));
            let sources = corpus_sources(&corpus, counter).expect("sources");
            let mut disk = JframeStreamDigest::new();
            let obs = OnJFrame(|jf: &JFrame| disk.observe(jf));
            if parallel {
                Pipeline::run_parallel(sources, &sharded_cfg, obs).expect("merge");
            } else {
                Pipeline::merge_only(sources, &serial_cfg, obs).expect("merge");
            }
            assert_eq!(
                (disk.count(), disk.hex()),
                (mem.count(), mem.hex()),
                "{}: disk {driver} merge diverged from in-memory serial",
                spec.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

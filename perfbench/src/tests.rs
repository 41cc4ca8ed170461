//! The benchmark's own tests, on `ScenarioConfig::tiny`: traced and
//! untraced passes render identical figure records, the live legs
//! reproduce the batch stream, and open-loop latency runs from due time.

use crate::common::{analyze, diagnose, Opened, Tracing};
use crate::layers::{layer_metrics, traced_pass, Driver, PER_LAYER};
use crate::live::{Loaded, Pacer};
use jigsaw_analysis::suite::record_lines;
use jigsaw_core::jframe::{Instance, JFrame};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::Instances;
use jigsaw_ieee80211::PhyRate;
use jigsaw_live::{LiveClock, ManualClock};
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::{PhyStatus, TimeWindow};
use std::path::PathBuf;

/// A tiny world recorded to a fresh temporary corpus directory.
fn tiny_corpus(tag: &str) -> (SimOutput, PathBuf) {
    let out = ScenarioConfig::tiny(7).run();
    let dir = std::env::temp_dir().join(format!("perfbench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    jigsaw_bench::record_corpus(&out, &dir, "tiny", 7, 1.0, 65_535, 4096).expect("record");
    (out, dir)
}

#[test]
fn traced_and_untraced_record_lines_are_identical() {
    let (_, dir) = tiny_corpus("records");
    let (plain, events) = analyze(&dir, Driver::Serial, &mut None).expect("untraced");
    assert!(plain.contains("record table1.jframes "));
    for driver in [Driver::Serial, Driver::Sharded] {
        let mut t = Tracing::default();
        let (traced, traced_events) = analyze(&dir, driver, &mut Some(&mut t)).expect("traced");
        assert_eq!(traced, plain, "{driver:?} traced records");
        assert_eq!(traced_events, events);
        let m = layer_metrics(&t.tr, &t.layers);
        assert!(
            PER_LAYER.iter().all(|k| m.contains_key(*k)),
            "every per-layer key computed"
        );
        assert!(m["trace.decode_s"] > 0.0 && m["analysis.fig9.busy_s"] > 0.0);
        assert!(m["reconstruct.exchanges"] > 0.0);
        if driver == Driver::Serial {
            assert_eq!(m["unify.events_in"], events as f64);
            assert!(m["unify.self_s"] > 0.0 && m["reconstruct.self_s"] > 0.0);
        } else {
            assert!(m["shard.merge_s"] > 0.0 && m["shard.threads"] >= 1.0);
        }
    }

    // A windowed pass, traced and not: identical figures.
    let opened = Opened::open(&dir).expect("open");
    let (lo, hi) = opened.corpus.universal_span().unwrap().unwrap();
    let w = TimeWindow::new(lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3).unwrap();
    let (a, _) = opened.pass(Some(w), Driver::Serial, &mut None, ()).unwrap();
    let mut t = Tracing::default();
    let (b, _) = opened
        .pass(Some(w), Driver::Serial, &mut Some(&mut t), ())
        .unwrap();
    assert_eq!(record_lines(&a), record_lines(&b));

    // The diagnosis is identical traced and not.
    let (d0, counts0) = diagnose(&dir, &mut None).expect("diagnose");
    let mut t = Tracing::default();
    let (d1, counts1) = diagnose(&dir, &mut Some(&mut t)).expect("traced diagnose");
    assert_eq!(d0, d1);
    assert_eq!(counts0, counts1);
    assert!(t.tr.total("diagnose.coarse").0 > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_pass_over_consumed_once_streams_matches_pipeline_run() {
    // Memory streams take the other seeding path (bootstrap window and
    // carry re-injected into the merger).
    let out = ScenarioConfig::tiny(3).run();
    let cfg = PipelineConfig::default();
    let mut plain = jigsaw_bench::figure_suite(&out);
    Pipeline::run(out.memory_streams(), &cfg, &mut plain).unwrap();
    let mut traced = jigsaw_bench::figure_suite(&out);
    let mut t = Tracing::default();
    let events = traced_pass(
        &mut t.tr,
        &mut t.layers,
        Driver::Serial,
        out.memory_streams(),
        &cfg,
        &mut traced,
    )
    .unwrap();
    assert_eq!(events, out.total_events());
    assert_eq!(
        record_lines(&plain.finish()),
        record_lines(&traced.finish())
    );
}

#[test]
fn live_full_speed_leg_reproduces_the_batch_stream() {
    let (_, dir) = tiny_corpus("live");
    let opened = Opened::open(&dir).unwrap();
    let loaded = Loaded::load(&opened.corpus).unwrap();
    let want = crate::live::reference(&opened).unwrap();
    let leg = crate::live::leg(&loaded, &opened, false, &mut None).unwrap();
    assert_eq!(leg.digest.count(), want.0.count());
    assert_eq!(leg.digest.hex(), want.0.hex());
    assert_eq!(leg.records, want.1);
    assert_eq!(leg.late_dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    let clock = ManualClock::new();
    clock.set(1_000);
    let pacer = Pacer {
        start_us: clock.now_us(),
        t0: 10_000,
        pace: 4,
    };
    // Trace times 10 000, 10 400 and 14 000 µs fall due 0, 100 and
    // 1 000 µs into the leg.
    let schedule = [(10_000, 0, 0), (10_400, 1, 0), (14_000, 0, 1)];
    assert_eq!(pacer.due(10_400), 1_100);
    assert_eq!(pacer.release(&schedule, 0, clock.now_us()), (1, 0));
    // The generator wakes 50 µs after the second event was due: it is
    // released late, and the lateness is reported.
    clock.advance(150);
    assert_eq!(pacer.release(&schedule, 1, clock.now_us()), (2, 50));
    assert_eq!(pacer.release(&schedule, 2, clock.now_us()), (2, 0));
    // A stall: the third event is released 700 µs late and its jframe
    // emitted 100 µs later still. Latency counts from the due time, so
    // the stall shows in full.
    clock.set(2_700);
    assert_eq!(pacer.release(&schedule, 2, clock.now_us()), (3, 700));
    clock.advance(100);
    assert_eq!(pacer.latency(14_000, clock.now_us()), 800);
    // Emission can never precede the due time; latency floors at zero.
    assert_eq!(pacer.latency(14_000, 1_500), 0);
}

#[test]
fn jframe_due_time_is_its_latest_instance() {
    let out = ScenarioConfig::tiny(5).run();
    let metas = out.radio_meta.clone();
    let loaded = Loaded::from_parts(metas.clone(), vec![Vec::new(); metas.len()]);
    let inst = |r: usize, ts_local: u64| Instance {
        radio: metas[r].radio,
        ts_local,
        ts_universal: 0,
        rssi_dbm: -50,
        status: PhyStatus::Ok,
    };
    let (a, b) = (
        metas[0].anchor_local_us + 5_000,
        metas[1].anchor_local_us + 7_000,
    );
    let mut instances = Instances::one(inst(0, a));
    instances.push(inst(1, b));
    let jf = JFrame {
        ts: 0,
        bytes: vec![0u8; 14].into(),
        wire_len: 14,
        rate: PhyRate::R11,
        channel: metas[0].channel,
        instances,
        dispersion: 0,
        valid: true,
        unique: false,
    };
    let want = metas[0]
        .anchor_universal(a)
        .max(metas[1].anchor_universal(b));
    assert_eq!(loaded.latest_instance(&jf), want);
}

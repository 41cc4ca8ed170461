//! `day_triage`: what a user runs on a recorded day — a serial `analyze`,
//! a sharded `analyze`, and a `diagnose` (coarse pass, deep-dive windows,
//! detectors) — repeated in a seeded order until the run's time is up.

// tidy:allow-file(wall-clock): the benchmark harness times each leg
use crate::common::{analyze, diagnose, guarded, secs, Env, Rng, Tracing};
use crate::layers::{layer_metrics, Driver};
use crate::stats::median;
use crate::Outcome;
use jigsaw_bench::alloc::AllocRegion;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
enum Leg {
    Serial,
    Sharded,
    Diagnose,
}

/// The run's first results, which every later one must equal: record
/// lines (serial and sharded alike) and the diagnosis.
#[derive(Default)]
struct Reference {
    records: Option<String>,
    diagnosis: Option<String>,
}

/// Keeps the first `got` in `slot`; a later one that differs is a failure.
fn check_same(slot: &mut Option<String>, got: String, what: &str, out: &mut Outcome) {
    match slot {
        None => *slot = Some(got),
        Some(want) if *want == got => {}
        Some(_) => out.fail(format!("{what} differs from the run's first result")),
    }
}

/// Runs one leg; returns its wall time and the events its merges
/// consumed, or `None` when it failed.
fn one_leg(
    env: &Env,
    leg: Leg,
    tracing: &mut Option<&mut Tracing>,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Option<(f64, u64)> {
    out.attempted += 1;
    let t = Instant::now();
    match leg {
        Leg::Serial | Leg::Sharded => {
            let driver = match leg {
                Leg::Serial => Driver::Serial,
                _ => Driver::Sharded,
            };
            match guarded(tracing, |t| analyze(&env.dir, driver, t)) {
                Ok((records, events)) => {
                    let dt = secs(t);
                    if events != env.total_events {
                        out.fail(format!(
                            "{driver:?} analyze merged {events} events, manifest has {}",
                            env.total_events
                        ));
                    }
                    check_same(
                        &mut reference.records,
                        records,
                        &format!("{driver:?} analyze record lines"),
                        out,
                    );
                    Some((dt, events))
                }
                Err(e) => {
                    out.fail(format!("{driver:?} analyze: {e}"));
                    None
                }
            }
        }
        Leg::Diagnose => match guarded(tracing, |t| diagnose(&env.dir, t)) {
            Ok((lines, [windows, confirmed, incidents, events])) => {
                let dt = secs(t);
                if let Some(t) = tracing {
                    t.layers.add("diagnose.windows_analyzed", windows as f64);
                    t.layers.add("diagnose.windows_confirmed", confirmed as f64);
                    t.layers.add("diagnose.incidents", incidents as f64);
                }
                check_same(&mut reference.diagnosis, lines, "diagnosis", out);
                Some((dt, events))
            }
            Err(e) => {
                out.fail(format!("diagnose: {e}"));
                None
            }
        },
    }
}

fn order(rng: &mut Rng) -> [Leg; 3] {
    let mut legs = [Leg::Serial, Leg::Sharded, Leg::Diagnose];
    for i in (1..legs.len()).rev() {
        legs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    legs
}

/// Runs the workload for `seconds` (at least one iteration).
pub fn run(env: &Env, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let mut rng = Rng::new(seed, 1);
    let mut reference = Reference::default();
    let start = Instant::now();
    let (mut serial, mut sharded, mut diag, mut heap) = (vec![], vec![], vec![], vec![]);
    let mut rate = vec![];
    let mut layer_runs: Vec<BTreeMap<String, f64>> = Vec::new();
    loop {
        let legs = order(&mut rng);
        if traced {
            // Untraced serial analyze, then the traced iteration: their
            // difference is the tracing overhead.
            let untraced = one_leg(env, Leg::Serial, &mut None, &mut reference, out);
            let mut t = Tracing::default();
            let mut traced_serial = None;
            for leg in legs {
                let r = one_leg(env, leg, &mut Some(&mut t), &mut reference, out);
                if matches!(leg, Leg::Serial) {
                    traced_serial = r;
                }
            }
            if let (Some((a, _)), Some((b, _))) = (untraced, traced_serial) {
                t.layers.add("tracing.overhead_s", b - a);
            }
            layer_runs.push(layer_metrics(&t.tr, &t.layers));
            out.spans.push(t.tr);
        } else {
            let (mut busy, mut merged) = (0.0, 0u64);
            for leg in legs {
                let region = AllocRegion::begin();
                let r = one_leg(env, leg, &mut None, &mut reference, out);
                let peak = region.end().peak_bytes;
                let Some((dt, events)) = r else { continue };
                busy += dt;
                merged += events;
                match leg {
                    Leg::Serial => {
                        serial.push(dt);
                        heap.push(peak as f64 / 1e6);
                    }
                    Leg::Sharded => sharded.push(dt),
                    Leg::Diagnose => diag.push(dt),
                }
            }
            if busy > 0.0 {
                rate.push(merged as f64 / busy);
            }
        }
        if secs(start) >= seconds {
            break;
        }
    }
    if traced {
        out.set_layers(&layer_runs);
        return;
    }
    let (a, s, d) = (median(&serial), median(&sharded), median(&diag));
    out.named("analyze_s", a, "s");
    out.named("analyze_sharded_s", s, "s");
    out.named("diagnose_s", d, "s");
    out.named("peak_heap_mb", median(&heap), "MB");
    out.metric("latency_p50_ms", a * 1e3, "ms");
    out.metric("latency_tail_ms", d * 1e3, "ms");
    out.metric("events_per_s", median(&rate), "events/s");
    out.metric("peak_heap_mb", median(&heap), "MB");
}

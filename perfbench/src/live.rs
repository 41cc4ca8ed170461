//! `live_ingest`: the simulated day, decoded into memory during set-up,
//! fed through in-process `ChannelSource`s into a `LiveMerger` (with
//! `SystemClock`), then `Reconstruction`, then the figure suite. Two legs:
//!
//! * full speed, a closed loop: the generator releases the next 5 ms of
//!   trace time only after the merger's previous step returned;
//! * paced, an open loop: a generator thread releases every event when it
//!   is due at [`PACE`] times trace speed, whether or not the merger keeps
//!   up, and each jframe's latency runs from the due time of its
//!   latest-due instance to its emission.

// tidy:allow-file(wall-clock): the benchmark harness times legs; the live merger itself reads time only through its LiveClock
use crate::common::{guarded, secs, Env, Opened, Rng, Tracing};
use crate::layers::layer_metrics;
use crate::stats::{median, percentile_sorted};
use crate::trace::Probe;
use crate::Outcome;
use jigsaw_analysis::suite::record_lines;
use jigsaw_bench::alloc::AllocRegion;
use jigsaw_bench::JframeStreamDigest;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig, Reconstruction};
use jigsaw_core::{JFrame, OnJFrame};
use jigsaw_live::{ChannelSource, LiveClock, LiveConfig, LiveMerger, LiveSender, SystemClock};
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::stream::EventStream;
use jigsaw_trace::{PhyEvent, RadioMeta};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paced-leg speed: trace time runs this many times faster than wall
/// time. Full speed reaches about 11× on a 2-core machine (370k events/s
/// against 34k events/s of trace on average), but the day is bursty: its
/// busiest second carries 127k events, which at 2× arrive at about 70% of
/// the full-speed capacity. At 6× (half the average capacity) the busy
/// hours arrive at twice the capacity, the backlog dominates latency, and
/// the paced p50 ranged from 60 to 190 ms between runs; at 3× it still
/// ranged from 49 to 72 ms.
pub const PACE: u64 = 2;
/// Latency limit the paced leg's p99 is held against, ms.
pub const LIMIT_MS: f64 = 250.0;
/// Trace time the closed-loop generator releases per merger step, µs.
pub const SLICE_US: u64 = 5_000;
/// How long the paced leg's service loop waits after a step that emitted
/// nothing.
const IDLE_WAIT: Duration = Duration::from_micros(100);

/// The day in memory: per-radio events plus the release schedule.
pub struct Loaded {
    metas: Vec<RadioMeta>,
    events: Vec<Vec<PhyEvent>>,
    /// `(anchor time µs, radio index, event index)` in release order.
    schedule: Vec<(u64, u32, u32)>,
    /// Radio id → index into `metas`.
    index_of: Vec<u32>,
}

impl Loaded {
    /// Decodes every radio of `corpus` into memory and orders all events
    /// by anchor time (per radio that is capture order).
    pub fn load(corpus: &Corpus) -> Result<Self, String> {
        let sources = corpus
            .sources(Arc::new(AtomicU64::new(0)))
            .map_err(|e| e.to_string())?;
        let mut metas = Vec::new();
        let mut events = Vec::new();
        for s in sources {
            let mut stream = s.open_stream().map_err(|e| e.to_string())?;
            let mut evs = Vec::new();
            while let Some(ev) = stream.next_event().map_err(|e| e.to_string())? {
                evs.push(ev);
            }
            metas.push(stream.meta());
            events.push(evs);
        }
        Ok(Self::from_parts(metas, events))
    }

    /// Builds the schedule over already-decoded events.
    pub fn from_parts(metas: Vec<RadioMeta>, events: Vec<Vec<PhyEvent>>) -> Self {
        let mut schedule = Vec::with_capacity(events.iter().map(Vec::len).sum());
        for (r, (m, evs)) in metas.iter().zip(&events).enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                schedule.push((m.anchor_universal(ev.ts_local), r as u32, i as u32));
            }
        }
        schedule.sort_unstable();
        let max_id = metas.iter().map(|m| m.radio.0).max().unwrap_or(0) as usize;
        let mut index_of = vec![u32::MAX; max_id + 1];
        for (r, m) in metas.iter().enumerate() {
            index_of[usize::from(m.radio.0)] = r as u32;
        }
        Loaded {
            metas,
            events,
            schedule,
            index_of,
        }
    }

    /// Events in the day.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    fn event(&self, k: usize) -> (usize, PhyEvent) {
        let (_, r, i) = self.schedule[k];
        (r as usize, self.events[r as usize][i as usize].clone())
    }

    /// The anchor time of a jframe's latest instance.
    pub(crate) fn latest_instance(&self, jf: &JFrame) -> u64 {
        jf.instances
            .iter()
            .map(|inst| {
                let r = self.index_of[usize::from(inst.radio.0)] as usize;
                self.metas[r].anchor_universal(inst.ts_local)
            })
            .max()
            .unwrap_or(0)
    }
}

/// Due times of the open-loop leg: trace time `t0` is due at wall time
/// `start_us` on the leg's clock, and trace time runs `pace` times faster.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    /// Clock reading the leg started at, µs.
    pub start_us: u64,
    /// Anchor time of the first scheduled event, µs.
    pub t0: u64,
    /// Trace-time speed-up.
    pub pace: u64,
}

impl Pacer {
    /// Wall time (clock µs) an event at anchor time `t` is due.
    pub fn due(&self, t: u64) -> u64 {
        self.start_us + t.saturating_sub(self.t0) / self.pace.max(1)
    }

    /// Latency of a jframe emitted at clock time `now` whose latest
    /// instance has anchor time `latest`, µs.
    pub fn latency(&self, latest: u64, now: u64) -> u64 {
        now.saturating_sub(self.due(latest))
    }

    /// The events due by clock time `now`, from schedule position `next`:
    /// returns the end of the due run and how late its first event is
    /// (0 when nothing is due yet).
    pub fn release(&self, schedule: &[(u64, u32, u32)], next: usize, now: u64) -> (usize, u64) {
        let end = next + schedule[next..].partition_point(|e| self.due(e.0) <= now);
        let late = if end > next {
            now - self.due(schedule[next].0)
        } else {
            0
        };
        (end, late)
    }
}

/// What one leg produced.
pub(crate) struct Leg {
    pub(crate) wall_s: f64,
    pub(crate) digest: JframeStreamDigest,
    pub(crate) records: String,
    pub(crate) late_dropped: u64,
    pub(crate) latencies_us: Vec<u64>,
    pub(crate) gen_late_max_us: u64,
}

/// Registers one channel source per radio.
fn channels<C: LiveClock>(
    loaded: &Loaded,
    lm: &mut LiveMerger<ChannelSource, C>,
) -> Vec<LiveSender> {
    loaded
        .metas
        .iter()
        .map(|m| {
            let (tx, src) = ChannelSource::new(*m);
            lm.add_source(src);
            tx
        })
        .collect()
}

/// The leg's jframe sink: latency (paced leg), stream digest, and
/// reconstruction into the figure suite, with their time when traced.
struct Emit<'a, O> {
    loaded: &'a Loaded,
    pacer: Pacer,
    clock: SystemClock,
    paced: bool,
    traced: bool,
    latencies_us: Vec<u64>,
    digest: JframeStreamDigest,
    rec: Reconstruction<O>,
    emitted: u64,
    instances: u64,
    sink_probe: Probe,
    push_probe: Probe,
}

impl<O: jigsaw_core::PipelineObserver> Emit<'_, O> {
    fn emit(&mut self, jf: JFrame) {
        let t = self.traced.then(Instant::now);
        if self.paced {
            let latest = self.loaded.latest_instance(&jf);
            self.latencies_us
                .push(self.pacer.latency(latest, self.clock.now_us()));
        }
        self.digest.observe(&jf);
        if self.traced {
            self.push_probe.time(|| self.rec.push(&jf));
        } else {
            self.rec.push(&jf);
        }
        self.emitted += 1;
        self.instances += jf.instances.len() as u64;
        if let Some(t) = t {
            self.sink_probe.record(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Step counts and time of one leg.
#[derive(Default)]
struct Steps {
    probe: Probe,
    steps: u64,
    idle: u64,
}

impl Steps {
    /// One `LiveMerger::step`, timed when traced; true while sources are
    /// open.
    fn step<O: jigsaw_core::PipelineObserver>(
        &mut self,
        lm: &mut LiveMerger<ChannelSource, SystemClock>,
        st: &mut Emit<'_, O>,
    ) -> Result<bool, String> {
        let before = st.emitted;
        let t = st.traced.then(Instant::now);
        let more = lm.step(&mut |jf| st.emit(jf)).map_err(|e| e.to_string())?;
        if let Some(t) = t {
            self.probe.record(t.elapsed().as_nanos() as u64);
        }
        self.steps += 1;
        if st.emitted == before {
            self.idle += 1;
        }
        Ok(more)
    }
}

/// Runs one leg: `paced` selects the open loop. The figure suite and a
/// stream digest observe the emitted jframes.
pub(crate) fn leg(
    loaded: &Loaded,
    opened: &Opened,
    paced: bool,
    tracing: &mut Option<&mut Tracing>,
) -> Result<Leg, String> {
    let clock = SystemClock::new();
    let mut lm = LiveMerger::new(LiveConfig::default(), clock.clone());
    let mut senders = channels(loaded, &mut lm);
    let mut suite = opened.suite(None, tracing);
    let pacer = Pacer {
        start_us: clock.now_us(),
        t0: loaded.schedule.first().map_or(0, |e| e.0),
        pace: PACE,
    };
    let leg_span = tracing.as_mut().map(|t| t.tr.enter("live.leg"));
    let run_span = tracing.as_mut().map(|t| t.tr.enter("live.run"));
    let t0 = Instant::now();
    let mut st = Emit {
        loaded,
        pacer,
        clock: clock.clone(),
        paced,
        traced: tracing.is_some(),
        latencies_us: Vec::with_capacity(if paced { loaded.len() / 2 } else { 0 }),
        digest: JframeStreamDigest::new(),
        rec: Reconstruction::new(&mut suite),
        emitted: 0,
        instances: 0,
        sink_probe: Probe::default(),
        push_probe: Probe::default(),
    };
    let mut steps = Steps::default();
    let mut gen_late_max_us = 0;
    let report = if paced {
        let schedule = &loaded.schedule;
        std::thread::scope(|s| -> Result<_, String> {
            // The generator: one thread releasing events when due.
            let gen = s.spawn(move || {
                let mut late_max = 0u64;
                let mut next = 0;
                while next < schedule.len() {
                    let now = clock.now_us();
                    let (end, late) = pacer.release(schedule, next, now);
                    if end == next {
                        // Sleep until the next event is due (the sleep's
                        // overshoot shows up as generator lateness).
                        let wait = pacer.due(schedule[next].0).saturating_sub(now);
                        std::thread::sleep(Duration::from_micros(wait.max(1)));
                        continue;
                    }
                    late_max = late_max.max(late);
                    for k in next..end {
                        let (r, ev) = loaded.event(k);
                        senders[r].send(ev);
                    }
                    next = end;
                }
                drop(senders);
                late_max
            });
            loop {
                let idle = steps.idle;
                if !steps.step(&mut lm, &mut st)? {
                    break;
                }
                if steps.idle > idle {
                    // Nothing to emit yet: wait a little for the
                    // generator instead of spinning on an empty poll.
                    std::thread::sleep(IDLE_WAIT);
                }
            }
            gen_late_max_us = gen.join().expect("generator thread");
            lm.finish(|jf| st.emit(jf)).map_err(|e| e.to_string())
        })?
    } else {
        // Closed loop: the next slice of trace time is released only
        // after the previous step returned.
        let mut next = 0;
        let mut horizon = pacer.t0 + SLICE_US;
        loop {
            while next < loaded.len() && loaded.schedule[next].0 < horizon {
                let (r, ev) = loaded.event(next);
                senders[r].send(ev);
                next += 1;
            }
            if next == loaded.len() {
                senders.clear();
            }
            horizon += SLICE_US;
            if !steps.step(&mut lm, &mut st)? {
                break;
            }
        }
        lm.finish(|jf| st.emit(jf)).map_err(|e| e.to_string())?
    };
    let Emit {
        rec,
        digest,
        latencies_us,
        emitted,
        instances,
        sink_probe,
        push_probe,
        ..
    } = st;
    if let Some(t) = tracing.as_mut() {
        // Per-step calls, summed under the stepping span; the sink runs
        // inside `step` (and, for the last jframes, inside `finish`).
        let run = run_span.expect("traced");
        t.tr.exit(run);
        if let Some(step) = t.tr.aggregate(run, "live.step", &steps.probe) {
            if let Some(sink) = t.tr.aggregate(step, "live.sink", &sink_probe) {
                if let Some(push) = t.tr.aggregate(sink, "reconstruct.push", &push_probe) {
                    t.layers.aggregate_analysis(&mut t.tr, push);
                }
            }
        }
    }
    let fin_span = tracing.as_mut().map(|t| t.tr.enter("reconstruct.finish"));
    let (attempts, link, _, transport) = rec.finish();
    let wall_s = secs(t0);
    let late_dropped = report.sources.iter().map(|s| s.late_dropped).sum();
    if let Some(t) = tracing.as_mut() {
        let fin = fin_span.expect("traced");
        t.tr.exit(fin);
        t.layers.aggregate_analysis(&mut t.tr, fin);
        t.tr.exit(leg_span.expect("traced"));
        let l = &mut t.layers;
        let m = &report.merge;
        l.add("unify.events_in", m.events_in as f64);
        l.add("unify.jframes_out", m.jframes_out as f64);
        l.add("unify.pushbacks", m.pushbacks as f64);
        l.add("unify.resyncs", m.resyncs as f64);
        l.max("unify.peak_buffered", m.peak_buffered as f64);
        l.add("unify.admitted_jframes", emitted as f64);
        l.add("unify.admitted_instances", instances as f64);
        l.add("reconstruct.attempts", attempts.attempts as f64);
        l.add("reconstruct.exchanges", link.exchanges as f64);
        l.add("reconstruct.flows", transport.flows as f64);
        l.add("live.steps", steps.steps as f64);
        l.add("live.idle_steps", steps.idle as f64);
        l.max("live.peak_buffered", m.peak_buffered as f64);
        l.add("live.reanchors", report.reanchors as f64);
        l.add("live.late_dropped", late_dropped as f64);
        l.max("live.gen_late_max_ms", gen_late_max_us as f64 / 1e3);
        let over = latencies_us
            .iter()
            .filter(|&&u| u as f64 / 1e3 > LIMIT_MS)
            .count();
        l.add("live.over_limit", over as f64);
    }
    let figures = match tracing.as_mut() {
        Some(t) => t.tr.span("analysis.finish", |_| suite.finish()),
        None => suite.finish(),
    };
    Ok(Leg {
        wall_s,
        digest,
        records: record_lines(&figures),
        late_dropped,
        latencies_us,
        gen_late_max_us,
    })
}

/// The batch reference of the day: jframe stream digest and figure record
/// lines of a serial `Pipeline::run` over the recorded corpus, as
/// `repro tail --verify` compares against.
pub(crate) fn reference(opened: &Opened) -> Result<(JframeStreamDigest, String), String> {
    let mut suite = opened.suite(None, &None);
    let mut digest = JframeStreamDigest::new();
    let sources = jigsaw_bench::corpus_sources(&opened.corpus, Arc::new(AtomicU64::new(0)))
        .map_err(|e| e.to_string())?;
    Pipeline::run(
        sources,
        &PipelineConfig::default(),
        (&mut suite, OnJFrame(|jf: &JFrame| digest.observe(jf))),
    )
    .map_err(|e| e.to_string())?;
    Ok((digest, record_lines(&suite.finish())))
}

/// Checks one leg against the batch reference; returns its failures.
fn check(
    leg: &Leg,
    want: &(JframeStreamDigest, String),
    events: u64,
    name: &str,
    out: &mut Outcome,
) {
    out.attempted += events;
    if leg.digest.count() != want.0.count() || leg.digest.hex() != want.0.hex() {
        out.fail_n(
            events,
            format!(
                "{name} leg: live {} jframes digest {}, batch {} jframes digest {}",
                leg.digest.count(),
                leg.digest.hex(),
                want.0.count(),
                want.0.hex()
            ),
        );
    } else if leg.records != want.1 {
        out.fail_n(
            events,
            format!("{name} leg: figure records differ from batch"),
        );
    } else if leg.late_dropped > 0 {
        out.fail_n(
            leg.late_dropped,
            format!("{name} leg: {} events dropped late", leg.late_dropped),
        );
    }
}

/// Runs the workload: one paced leg, at a seeded position among
/// full-speed legs that repeat until `seconds` have passed. The traced run
/// makes one traced leg of each kind, the full-speed one after an
/// untraced twin whose wall time gives the tracing overhead.
pub fn run(env: &Env, loaded: &Loaded, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let prepared = Opened::open(&env.dir).and_then(|o| reference(&o).map(|r| (o, r)));
    let (opened, want) = match prepared {
        Ok(v) => v,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("live reference: {e}"));
            return;
        }
    };
    let events = loaded.len() as u64;
    let paced_at = Rng::new(seed, 3).below(3);
    let (mut rate, mut heap) = (vec![], vec![]);
    let mut paced_result: Option<Vec<f64>> = None;
    let mut late_max = 0;
    let mut t = Tracing::default();
    let start = Instant::now();
    let mut full_legs = 0;
    loop {
        let paced = paced_result.is_none() && full_legs >= paced_at;
        let name = if paced { "paced" } else { "full-speed" };
        let mut untraced_wall = None;
        if traced && !paced {
            match leg(loaded, &opened, false, &mut None) {
                Ok(l) => {
                    check(&l, &want, events, name, out);
                    untraced_wall = Some(l.wall_s);
                }
                Err(e) => out.fail_n(events, format!("{name} leg: {e}")),
            }
        }
        let region = AllocRegion::begin();
        let mut tracing = traced.then_some(&mut t);
        match guarded(&mut tracing, |tr| leg(loaded, &opened, paced, tr)) {
            Ok(l) => {
                heap.push(region.end().peak_bytes as f64 / 1e6);
                check(&l, &want, events, name, out);
                if paced {
                    let mut v: Vec<f64> = l.latencies_us.iter().map(|&u| u as f64 / 1e3).collect();
                    v.sort_by(f64::total_cmp);
                    late_max = l.gen_late_max_us;
                    paced_result = Some(v);
                } else {
                    rate.push(events as f64 / l.wall_s);
                    if let Some(u) = untraced_wall {
                        t.layers.add("tracing.overhead_s", l.wall_s - u);
                    }
                }
            }
            Err(e) => {
                out.fail_n(events, format!("{name} leg: {e}"));
                if paced {
                    paced_result = Some(Vec::new());
                }
            }
        }
        if !paced {
            full_legs += 1;
        }
        let enough = if traced {
            full_legs >= 1
        } else {
            secs(start) >= seconds
        };
        if paced_result.is_some() && enough {
            break;
        }
    }
    if traced {
        out.set_layers(&[layer_metrics(&t.tr, &t.layers)]);
        out.spans.push(t.tr);
        return;
    }
    let lat = paced_result.unwrap_or_default();
    let (a, b) = (percentile_sorted(&lat, 50), percentile_sorted(&lat, 99));
    let over = lat.iter().filter(|&&ms| ms > LIMIT_MS).count();
    let r = median(&rate);
    out.named("live_events_per_s", r, "events/s");
    out.named("live_latency_p50_ms", a, "ms");
    out.named("live_latency_p99_ms", b, "ms");
    out.named("live_over_limit", over as f64, "jframes");
    out.named("live_gen_late_max_ms", late_max as f64 / 1e3, "ms");
    out.metric("latency_p50_ms", a, "ms");
    out.metric("latency_tail_ms", b, "ms");
    out.metric("events_per_s", r, "events/s");
    out.metric("peak_heap_mb", median(&heap), "MB");
}

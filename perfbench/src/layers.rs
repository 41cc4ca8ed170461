//! Timing wrappers around each layer's public entry points, and the traced
//! pipeline passes composed from them exactly as `Pipeline::run` and
//! `Pipeline::run_parallel` compose the untraced ones.
//!
//! * sources and streams: [`TimedSource`] wraps `EventSource::open`, and
//!   the [`TimedStream`] it opens wraps `EventStream::next_event`;
//! * clocks and merge: `bootstrap_at`, then `Merger::new_at` /
//!   `seed_pending` / `run`, in [`traced_pass`];
//! * sharded merge: `shard::run_sharded`, in [`traced_pass`];
//! * reconstruction: `Reconstruction::push` / `finish`;
//! * figures: every analyzer of `Suite::paper` plus coverage wrapped in a
//!   [`TimedAnalyzer`] by [`timed_suite`];
//! * diagnosis: every `Detector` wrapped in a [`TimedDetector`].

// tidy:allow-file(wall-clock): timing wrappers of the benchmark harness; the wrapped layers see the same calls and inputs as untraced runs
use crate::trace::{Counter, Probe, SpanId, Tracer};
use jigsaw_analysis::{Analyzer, Figure, Suite};
use jigsaw_bench::alloc::AllocRegion;
use jigsaw_core::link::attempt::Attempt;
use jigsaw_core::link::exchange::Exchange;
use jigsaw_core::pipeline::{
    EventSource, OpenedRadio, PipelineConfig, PipelineError, Reconstruction, WindowClipper,
};
use jigsaw_core::sync::bootstrap::bootstrap_at;
use jigsaw_core::transport::flow::FlowRecord;
use jigsaw_core::{JFrame, Merger, PipelineObserver};
use jigsaw_diagnosis::{Detector, Incident, Record, RecordSet, Thresholds};
use jigsaw_ieee80211::MacAddr;
use jigsaw_sim::wired::WiredTraceRecord;
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::{distinct_channels, EventStream};
use jigsaw_trace::{PhyEvent, RadioMeta, TimeWindow};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Probes shared by every source of one traced run (decode may run on
/// shard threads, hence atomics).
#[derive(Debug, Default)]
pub struct SourceProbes {
    /// `EventSource::open` calls (bootstrap-window read + stream open).
    pub open: Probe,
    /// `EventStream::next_event` calls.
    pub next_event: Probe,
    /// Events decoded: merge-stream events plus bootstrap-window events.
    pub decoded: Counter,
}

/// An [`EventSource`] whose `open` and stream are timed.
pub struct TimedSource<I> {
    inner: I,
    probes: Arc<SourceProbes>,
}

impl<I> TimedSource<I> {
    /// Wraps `inner`, reporting into `probes`.
    pub fn new(inner: I, probes: Arc<SourceProbes>) -> Self {
        TimedSource { inner, probes }
    }
}

impl<I: EventSource> EventSource for TimedSource<I> {
    type Stream = TimedStream<I::Stream>;

    fn open(self, window_us: u64) -> Result<OpenedRadio<Self::Stream>, FormatError> {
        let probes = self.probes;
        let inner = self.inner;
        let o = probes.open.time(|| inner.open(window_us))?;
        probes.decoded.add((o.window.len() + o.carry.len()) as u64);
        Ok(OpenedRadio {
            meta: o.meta,
            window: o.window,
            carry: o.carry,
            replay: o.replay,
            window_lo: o.window_lo,
            stream: TimedStream {
                inner: o.stream,
                probes,
            },
        })
    }
}

/// An [`EventStream`] whose `next_event` is timed and counted.
pub struct TimedStream<S> {
    inner: S,
    probes: Arc<SourceProbes>,
}

impl<S: EventStream> EventStream for TimedStream<S> {
    fn meta(&self) -> RadioMeta {
        self.inner.meta()
    }

    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        let ev = self.probes.next_event.time(|| self.inner.next_event())?;
        if ev.is_some() {
            self.probes.decoded.add(1);
        }
        Ok(ev)
    }
}

/// An analyzer whose observer hooks are timed (`busy`).
pub struct TimedAnalyzer<A> {
    inner: A,
    busy: Arc<Probe>,
}

impl<A: Analyzer> PipelineObserver for TimedAnalyzer<A> {
    fn on_jframe(&mut self, jf: &JFrame) {
        let t = Instant::now();
        self.inner.on_jframe(jf);
        self.busy.record(t.elapsed().as_nanos() as u64);
    }

    fn on_attempt(&mut self, a: &Attempt) {
        let t = Instant::now();
        self.inner.on_attempt(a);
        self.busy.record(t.elapsed().as_nanos() as u64);
    }

    fn on_exchange(&mut self, x: &Exchange) {
        let t = Instant::now();
        self.inner.on_exchange(x);
        self.busy.record(t.elapsed().as_nanos() as u64);
    }

    fn on_flows(&mut self, flows: &[FlowRecord]) {
        let t = Instant::now();
        self.inner.on_flows(flows);
        self.busy.record(t.elapsed().as_nanos() as u64);
    }
}

impl<A: Analyzer + 'static> Analyzer for TimedAnalyzer<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn into_figure(self: Box<Self>) -> Box<dyn Figure> {
        Box::new(self.inner).into_figure()
    }
}

/// The figure names of the paper suite plus coverage, in registration
/// order (what `jigsaw_bench::figure_suite_parts` registers).
pub const FIGURES: [&str; 8] = [
    "table1", "fig4", "fig8", "fig9", "fig10", "stations", "fig11", "fig6",
];

/// One busy probe per figure, in [`FIGURES`] order.
#[derive(Debug)]
pub struct AnalysisProbes {
    /// Busy time of each analyzer's hooks.
    pub busy: Vec<Arc<Probe>>,
}

impl Default for AnalysisProbes {
    fn default() -> Self {
        AnalysisProbes {
            busy: FIGURES.iter().map(|_| Probe::shared()).collect(),
        }
    }
}

/// The suite `jigsaw_bench::figure_suite_parts` builds — `Suite::paper`'s
/// analyzers in its order, then coverage — with every analyzer timed.
pub fn timed_suite(
    radios: usize,
    duration_us: u64,
    wired: &[WiredTraceRecord],
    ap_addr_of: &dyn Fn(u16) -> MacAddr,
    probes: &AnalysisProbes,
) -> Suite {
    use jigsaw_analysis::*;
    let p = PaperParams {
        radios,
        origin: 0,
        bin_us: jigsaw_bench::minute_bin_us(duration_us) * 60,
        practical_timeout_us: jigsaw_bench::practical_minute_us(duration_us),
    };
    let t = |i: usize| Arc::clone(&probes.busy[i]);
    fn timed<A>(inner: A, busy: Arc<Probe>) -> TimedAnalyzer<A> {
        TimedAnalyzer { inner, busy }
    }
    Suite::new()
        .register(timed(summary::SummaryBuilder::new(p.radios), t(0)))
        .register(timed(dispersion::DispersionAnalysis::new(), t(1)))
        .register(timed(
            activity::ActivityAnalysis::new(p.origin, p.bin_us),
            t(2),
        ))
        .register(timed(interference::InterferenceAnalysis::new(), t(3)))
        .register(timed(
            protection::ProtectionAnalysis::new(p.origin, p.bin_us, p.practical_timeout_us.max(1)),
            t(4),
        ))
        .register(timed(stations::StationsAnalysis::new(), t(5)))
        .register(timed(tcploss::TcpLossAnalysis::new(), t(6)))
        .register(timed(
            coverage::CoverageAnalysis::new(wired, ap_addr_of, 10_000_000),
            t(7),
        ))
}

/// A detector whose `scan` and `diagnose` are timed.
pub struct TimedDetector {
    inner: Box<dyn Detector>,
    scan: Arc<Probe>,
    diagnose: Arc<Probe>,
}

impl TimedDetector {
    /// Wraps every detector, sharing one scan and one diagnose probe.
    pub fn wrap_all(
        detectors: Vec<Box<dyn Detector>>,
        scan: &Arc<Probe>,
        diagnose: &Arc<Probe>,
    ) -> Vec<Box<dyn Detector>> {
        detectors
            .into_iter()
            .map(|inner| {
                Box::new(TimedDetector {
                    inner,
                    scan: Arc::clone(scan),
                    diagnose: Arc::clone(diagnose),
                }) as Box<dyn Detector>
            })
            .collect()
    }
}

impl Detector for TimedDetector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scan(&self, coarse: &RecordSet, thresholds: &Thresholds) -> Option<Vec<Record>> {
        self.scan.time(|| self.inner.scan(coarse, thresholds))
    }

    fn diagnose(
        &self,
        window: TimeWindow,
        windowed: &RecordSet,
        thresholds: &Thresholds,
    ) -> Option<Incident> {
        self.diagnose
            .time(|| self.inner.diagnose(window, windowed, thresholds))
    }
}

/// Everything one traced run accumulates besides spans: the probes at the
/// layer boundaries and the counts recorded there. Totals span every
/// traced pass of a workload iteration.
#[derive(Debug, Default)]
pub struct Layers {
    /// Source and stream probes.
    pub sources: Arc<SourceProbes>,
    /// The merge sink (clip + reconstruction) inside `Merger::run`.
    pub sink: Probe,
    /// `Reconstruction::push`.
    pub push: Probe,
    /// Analyzer hooks.
    pub analysis: AnalysisProbes,
    /// Counts recorded at the boundaries, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Raises the count `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// The count `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Attaches the per-analyzer probes under `parent` as aggregates named
    /// `analysis.<figure>`.
    pub fn aggregate_analysis(&self, tr: &mut Tracer, parent: SpanId) {
        for (name, probe) in ANALYSIS_SPANS.iter().zip(&self.analysis.busy) {
            tr.aggregate(parent, name, probe);
        }
    }
}

/// Span names of the analyzer aggregates, in [`FIGURES`] order.
pub const ANALYSIS_SPANS: [&str; 8] = [
    "analysis.table1",
    "analysis.fig4",
    "analysis.fig8",
    "analysis.fig9",
    "analysis.fig10",
    "analysis.stations",
    "analysis.fig11",
    "analysis.fig6",
];

/// Which merge driver a traced pass composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Merger::new_at` / `seed_pending` / `run`, as `Pipeline::run`.
    Serial,
    /// `shard::run_sharded`, as `Pipeline::run_parallel`.
    Sharded,
}

/// A pipeline pass composed from the layers' public functions exactly as
/// `Pipeline::run` (serial) or `Pipeline::run_parallel` (sharded) does,
/// with a span at every layer boundary. `obs` is fed through
/// `Reconstruction`, as the pipeline's own downstream chain feeds it.
/// Returns the events the merge consumed.
pub fn traced_pass<I>(
    tr: &mut Tracer,
    layers: &mut Layers,
    driver: Driver,
    sources: Vec<I>,
    cfg: &PipelineConfig,
    obs: impl PipelineObserver,
) -> Result<u64, PipelineError>
where
    I: EventSource,
    I::Stream: Send + 'static,
{
    let pass = tr.enter(match driver {
        Driver::Serial => "pipeline.serial",
        Driver::Sharded => "pipeline.sharded",
    });

    // Sources: open every radio (bootstrap-window read + stream open).
    let open = tr.enter("trace.open");
    let n = sources.len();
    let (mut metas, mut windows, mut seeds, mut los, mut streams) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut replays = Vec::with_capacity(n);
    for src in sources {
        let o = TimedSource::new(src, Arc::clone(&layers.sources)).open(cfg.bootstrap.window_us)?;
        metas.push(o.meta);
        replays.push((o.replay, o.carry));
        windows.push(o.window);
        los.push(o.window_lo);
        streams.push(o.stream);
    }
    tr.exit(open);
    tr.aggregate(open, "trace.open_radio", &layers.sources.open);

    // Clocks: offsets from the bootstrap windows at each window start.
    let boot = tr.span("sync.bootstrap", |_| {
        bootstrap_at(&metas, &windows, &los, &cfg.bootstrap)
    })?;
    layers.add("sync.calls", 1.0);
    layers.add("sync.sets_used", boot.sets_used as f64);
    layers.add("sync.candidates", boot.candidates as f64);
    let clip = cfg.window.map(|w| WindowClipper::new(&metas, w));
    // Seeds exactly as the pipeline derives them: replaying sources
    // re-read their window, consumed-once streams re-inject it.
    for (window, (replay, carry)) in windows.into_iter().zip(replays) {
        seeds.push(if replay {
            Vec::new()
        } else {
            let mut w = window;
            w.extend(carry);
            w
        });
    }

    let mut rec = Reconstruction::new(obs);
    let (mut jframes, mut instances, mut sink_allocs) = (0u64, 0u64, 0u64);
    let sink_probe = &layers.sink;
    let push_probe = &layers.push;
    let mut sink = |jf: JFrame| {
        let t = Instant::now();
        let region = (driver == Driver::Serial).then(AllocRegion::begin);
        if clip.as_ref().is_none_or(|c| c.admits(&jf)) {
            jframes += 1;
            instances += jf.instances.len() as u64;
            push_probe.time(|| rec.push(&jf));
        }
        if let Some(r) = region {
            sink_allocs += r.end().allocs;
        }
        sink_probe.record(t.elapsed().as_nanos() as u64);
    };

    let (run, stats) = match driver {
        Driver::Serial => {
            let run = tr.enter("unify.run");
            let region = AllocRegion::begin();
            let mut merger = Merger::new_at(streams, &boot.offsets, &los, cfg.merge.clone());
            for (r, seed) in seeds.into_iter().enumerate() {
                merger.seed_pending(r, seed);
            }
            let stats = merger.run(&mut sink)?;
            let allocs = region.end().allocs.saturating_sub(sink_allocs);
            tr.exit(run);
            layers.add("unify.allocs", allocs as f64);
            layers.add("unify.serial_events_in", stats.events_in as f64);
            (run, stats)
        }
        Driver::Sharded => {
            let channels = distinct_channels(&metas).len();
            let run = tr.enter("shard.run");
            let stats = jigsaw_core::shard::run_sharded(
                streams,
                &boot.offsets,
                seeds,
                &los,
                &cfg.merge,
                &cfg.shard,
                &mut sink,
            )?;
            tr.exit(run);
            layers.max("shard.threads", cfg.shard.shards_for(channels) as f64);
            layers.max("shard.peak_buffered", stats.peak_buffered as f64);
            (run, stats)
        }
    };
    tr.aggregate(run, "trace.next_event", &layers.sources.next_event);
    let sink_name = match driver {
        Driver::Serial => "unify.sink",
        Driver::Sharded => "shard.sink",
    };
    if let Some(sink) = tr.aggregate(run, sink_name, &layers.sink) {
        if let Some(push) = tr.aggregate(sink, "reconstruct.push", &layers.push) {
            layers.aggregate_analysis(tr, push);
        }
    }

    let fin = tr.enter("reconstruct.finish");
    let (attempts, link, _flows, transport) = rec.finish();
    tr.exit(fin);
    layers.aggregate_analysis(tr, fin);
    tr.exit(pass);

    if driver == Driver::Serial {
        layers.add("unify.events_in", stats.events_in as f64);
        layers.add("unify.jframes_out", stats.jframes_out as f64);
        layers.add("unify.pushbacks", stats.pushbacks as f64);
        layers.add("unify.resyncs", stats.resyncs as f64);
        layers.max("unify.peak_buffered", stats.peak_buffered as f64);
    }
    layers.add("unify.admitted_jframes", jframes as f64);
    layers.add("unify.admitted_instances", instances as f64);
    layers.add("reconstruct.attempts", attempts.attempts as f64);
    layers.add("reconstruct.exchanges", link.exchanges as f64);
    layers.add("reconstruct.flows", transport.flows as f64);
    Ok(stats.events_in)
}

/// Every per-layer metric of one traced workload iteration, computed from
/// its spans and counts (0 where the iteration did not exercise a layer).
pub fn layer_metrics(tr: &Tracer, layers: &Layers) -> BTreeMap<String, f64> {
    let busy = |n: &str| tr.total(n).0;
    let own = |n: &str| tr.total(n).1;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let decoded = layers.sources.decoded.get() as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("trace.decode_s", busy("trace.next_event"));
    put("trace.events_decoded", decoded);
    put("trace.window_read_s", busy("trace.open"));
    put("trace.disk_mb", layers.get("trace.disk_bytes") / 1e6);
    put(
        "trace.useful_ratio",
        ratio(layers.get("unify.admitted_instances"), decoded),
    );
    put("sync.bootstrap_s", busy("sync.bootstrap"));
    put("sync.calls", layers.get("sync.calls"));
    put(
        "sync.sets_used_ratio",
        ratio(layers.get("sync.sets_used"), layers.get("sync.candidates")),
    );
    put("unify.self_s", own("unify.run"));
    for k in [
        "unify.events_in",
        "unify.jframes_out",
        "unify.pushbacks",
        "unify.resyncs",
        "unify.peak_buffered",
        "shard.threads",
        "shard.peak_buffered",
        "reconstruct.attempts",
        "reconstruct.exchanges",
        "reconstruct.flows",
        "diagnose.windows_analyzed",
        "diagnose.incidents",
        "live.steps",
        "live.peak_buffered",
        "live.late_dropped",
        "live.reanchors",
        "live.over_limit",
        "live.gen_late_max_ms",
        "tracing.overhead_s",
    ] {
        put(k, layers.get(k));
    }
    put(
        "unify.instances_per_jframe",
        ratio(
            layers.get("unify.admitted_instances"),
            layers.get("unify.admitted_jframes"),
        ),
    );
    put(
        "unify.allocs_per_event",
        ratio(
            layers.get("unify.allocs"),
            layers.get("unify.serial_events_in"),
        ),
    );
    put("shard.merge_s", busy("shard.run") - busy("shard.sink"));
    put(
        "reconstruct.self_s",
        own("reconstruct.push") + own("reconstruct.finish"),
    );
    for (fig, span) in FIGURES.iter().zip(ANALYSIS_SPANS) {
        put(&format!("analysis.{fig}.busy_s"), busy(span));
    }
    put("analysis.finish_s", busy("analysis.finish"));
    put(
        "diagnose.scan_s",
        busy("diagnose.coarse") + busy("diagnose.detector_scan"),
    );
    put(
        "diagnose.deep_dive_s",
        busy("diagnose.window") + busy("diagnose.detector_confirm"),
    );
    put(
        "diagnose.confirm_ratio",
        ratio(
            layers.get("diagnose.windows_confirmed"),
            layers.get("diagnose.windows_analyzed"),
        ),
    );
    put("live.step_s", own("live.step"));
    put("live.sink_s", busy("live.sink"));
    put(
        "live.idle_step_ratio",
        ratio(layers.get("live.idle_steps"), layers.get("live.steps")),
    );
    m
}

/// Every per-layer metric the traced run reports, in report order.
pub const PER_LAYER: [&str; 47] = [
    "trace.decode_s",
    "trace.events_decoded",
    "trace.window_read_s",
    "trace.disk_mb",
    "trace.useful_ratio",
    "sync.bootstrap_s",
    "sync.calls",
    "sync.sets_used_ratio",
    "unify.self_s",
    "unify.events_in",
    "unify.jframes_out",
    "unify.instances_per_jframe",
    "unify.pushbacks",
    "unify.resyncs",
    "unify.peak_buffered",
    "unify.allocs_per_event",
    "shard.merge_s",
    "shard.threads",
    "shard.peak_buffered",
    "reconstruct.self_s",
    "reconstruct.attempts",
    "reconstruct.exchanges",
    "reconstruct.flows",
    "analysis.table1.busy_s",
    "analysis.fig4.busy_s",
    "analysis.fig8.busy_s",
    "analysis.fig9.busy_s",
    "analysis.fig10.busy_s",
    "analysis.stations.busy_s",
    "analysis.fig11.busy_s",
    "analysis.fig6.busy_s",
    "analysis.finish_s",
    "diagnose.scan_s",
    "diagnose.deep_dive_s",
    "diagnose.windows_analyzed",
    "diagnose.incidents",
    "diagnose.confirm_ratio",
    "live.step_s",
    "live.sink_s",
    "live.steps",
    "live.idle_step_ratio",
    "live.peak_buffered",
    "live.late_dropped",
    "live.reanchors",
    "live.over_limit",
    "live.gen_late_max_ms",
    "tracing.overhead_s",
];

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name == "unify.instances_per_jframe" {
        "instances/jframe"
    } else if name == "unify.allocs_per_event" {
        "allocs/event"
    } else {
        "count"
    }
}

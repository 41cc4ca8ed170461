//! The single-pass streaming pipeline: bootstrap → unify → link → transport.
//!
//! Mirrors the paper's online design (§4, requirement 3): traces are
//! consumed once, in time order, and every stage streams into the next.
//! Analyses subscribe via a single [`PipelineObserver`] instead of
//! materializing the 500M-jframe intermediate the paper's hardware had to
//! contend with: one observer receives every unified jframe, every
//! transmission attempt, every closed exchange, and (once, at the end)
//! the reconstructed flow records. Closures stay ergonomic through the
//! [`crate::observer`] adapters, and tuples fan one pass out to several
//! analyses.
//!
//! Every driver takes a `Vec` of [`EventSource`]s — one per radio. A source
//! abstracts *where events come from*: any in-memory or decoded
//! [`EventStream`] is a source (consumed once, with the bootstrap prefix
//! re-seeded into the merger), and a disk corpus radio
//! ([`jigsaw_trace::corpus::RadioTraceSource`]) is a source whose bootstrap
//! window is served by an index-bounded file read while the merge re-streams
//! the file from the start — so a day-long corpus is merged with memory
//! bounded by the search window, never by trace length
//! ([`MergeStats::peak_buffered`](crate::unify::MergeStats) measures it).
//!
//! Replays need not start at t = 0: a [`WindowedCorpusSource`] re-anchors
//! the clock bootstrap at any corpus timestamp (index-seeked reads, coarse
//! NTP-anchor seed, [`bootstrap_at`] refinement) and
//! [`PipelineConfig::window`] clips emission to the requested `[from, to)`
//! — the paper's "start at 11 am" replay, with I/O and merge cost
//! proportional to the window. [`WindowClipper`] documents the
//! clock-invariant membership rule and the equivalence contract a windowed
//! replay is pinned against.
//!
//! Two drivers share every stage — one private pass opens the sources,
//! bootstraps, clips, and merges through [`crate::shard::run_sharded`]:
//! * [`Pipeline::run`] — the serial merger: a single shard, which
//!   `run_sharded` runs inline on the calling thread;
//! * [`Pipeline::run_parallel`] — the channel-sharded merge
//!   ([`crate::shard`]): one merge thread per channel shard, with
//!   link/transport reconstruction consuming the K-way-merged jframe
//!   stream on the calling thread (so merging and reconstruction
//!   overlap). Output is jframe-for-jframe identical to the serial driver.
//!
//! [`Pipeline::merge_only`] stops after unification (serial), and
//! [`Reconstruction`] is the post-unification chain on its own, for drivers
//! that produce jframes outside [`Pipeline`].

use crate::jframe::JFrame;
use crate::link::attempt::{Attempt, AttemptAssembler, AttemptStats};
use crate::link::exchange::{Exchange, ExchangeAssembler, LinkStats};
use crate::observer::{OnExchange, OnJFrame, PipelineObserver};
use crate::shard::ShardConfig;
use crate::sync::bootstrap::{bootstrap_at, BootstrapConfig, BootstrapError, BootstrapReport};
use crate::transport::flow::{FlowRecord, TransportAnalyzer, TransportStats};
use crate::unify::{MergeConfig, MergeStats};
use jigsaw_ieee80211::Micros;
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::EventStream;
use jigsaw_trace::{PhyEvent, RadioMeta, TimeWindow};
use std::cmp::Reverse;
// tidy:allow-file(hash-order): coarse-offset and reorder maps are keyed lookup only; emission order comes from the replay heap
use std::collections::{BinaryHeap, HashMap};

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Bootstrap parameters.
    pub bootstrap: BootstrapConfig,
    /// Unification parameters.
    pub merge: MergeConfig,
    /// Channel-sharding parameters ([`Pipeline::run_parallel`] only).
    pub shard: ShardConfig,
    /// Replay window: when set, only jframes whose anchor-time key falls
    /// in `[from, to)` reach the observer (see [`WindowClipper`] for the
    /// clock-invariant membership rule and the equivalence contract).
    /// Pair it with windowed sources ([`WindowedCorpusSource`]) so reads
    /// are window-bounded too; with ordinary sources it clips a full
    /// replay — the reference side of the windowed-equivalence check.
    pub window: Option<TimeWindow>,
}

/// Everything the pipeline reports at the end of a run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Bootstrap outcome.
    pub bootstrap: BootstrapReport,
    /// Merge statistics.
    pub merge: MergeStats,
    /// Attempt-assembly statistics.
    pub attempts: AttemptStats,
    /// Exchange-assembly statistics (the paper's §5.1 inference rates).
    pub link: LinkStats,
    /// Per-flow transport records.
    pub flows: Vec<FlowRecord>,
    /// Aggregate transport statistics.
    pub transport: TransportStats,
}

/// Errors from a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// Bootstrap failed.
    Bootstrap(BootstrapError),
    /// Trace decoding failed.
    Format(FormatError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Bootstrap(e) => write!(f, "bootstrap: {e}"),
            PipelineError::Format(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<BootstrapError> for PipelineError {
    fn from(e: BootstrapError) -> Self {
        PipelineError::Bootstrap(e)
    }
}

impl From<FormatError> for PipelineError {
    fn from(e: FormatError) -> Self {
        PipelineError::Format(e)
    }
}

/// A per-radio supplier of pipeline input.
///
/// Opening a source splits it into the *bootstrap window* (the NTP-anchored
/// first second, input to offset estimation) and the *merge stream*. The
/// two flavors differ in what happens to window events:
///
/// * any [`EventStream`] is a source (blanket impl): streams are
///   consumed-once, so window events — plus the one past-window event the
///   split necessarily reads — are handed back for re-seeding into the
///   merger;
/// * a rewindable disk source (e.g.
///   [`jigsaw_trace::corpus::RadioTraceSource`]) reads the window in a
///   separate index-bounded pass and lets the merge stream replay the file
///   from the start, so nothing is buffered across stages.
pub trait EventSource {
    /// The merge stream this source opens into.
    type Stream: EventStream;

    /// Opens the source, splitting off the bootstrap window.
    fn open(self, window_us: u64) -> Result<OpenedRadio<Self::Stream>, FormatError>;
}

/// One opened [`EventSource`].
pub struct OpenedRadio<S> {
    /// Radio metadata.
    pub meta: RadioMeta,
    /// Events inside the bootstrap window
    /// (`window_lo ≤ ts_local ≤ window_lo + window`) — the input to offset
    /// estimation, and nothing else: one out-of-window reference frame is
    /// enough to skew a synchronization set.
    pub window: Vec<PhyEvent>,
    /// Events consumed from the stream beyond the window (at most one for
    /// the stream impl). They must reach the merger ahead of `stream` —
    /// dropping them would lose events.
    pub carry: Vec<PhyEvent>,
    /// True when `stream` itself replays the window events (rewindable
    /// sources): the merger then must *not* be seeded with them.
    pub replay: bool,
    /// Local time the bootstrap window starts at: the NTP anchor for a
    /// from-the-start source, or the coarse-local image of the replay
    /// window's read start for a windowed one. Offset estimation windows
    /// at it, and the merger's clock EWMA references it.
    pub window_lo: Micros,
    /// The merge stream.
    pub stream: S,
}

impl<S: EventStream> EventSource for S {
    type Stream = S;

    fn open(mut self, window_us: u64) -> Result<OpenedRadio<S>, FormatError> {
        let meta = self.meta();
        let hi = meta.anchor_local_us.saturating_add(window_us);
        let mut window = Vec::new();
        let mut carry = Vec::new();
        while let Some(ev) = self.next_event()? {
            if ev.ts_local > hi {
                carry.push(ev);
                break;
            }
            window.push(ev);
        }
        Ok(OpenedRadio {
            meta,
            window,
            carry,
            replay: false,
            window_lo: meta.anchor_local_us,
            stream: self,
        })
    }
}

/// A disk-corpus radio as a pipeline source (newtype, because the blanket
/// stream impl above forbids implementing [`EventSource`] directly for the
/// foreign [`RadioTraceSource`](jigsaw_trace::corpus::RadioTraceSource)
/// type): the bootstrap window comes from an index-bounded file read, the
/// merge stream replays the file from the start, and nothing is buffered
/// between the two stages.
pub struct CorpusSource(pub jigsaw_trace::corpus::RadioTraceSource);

impl EventSource for CorpusSource {
    type Stream = jigsaw_trace::corpus::CorpusStream;

    fn open(self, window_us: u64) -> Result<OpenedRadio<Self::Stream>, FormatError> {
        let meta = self.0.meta();
        // Index-bounded prefix read (`index::find_block` delimits the
        // blocks overlapping the window); the merge stream re-reads the
        // file from the start, so nothing needs seeding.
        let window = self.0.read_bootstrap_window(window_us)?;
        let stream = self.0.open_stream()?;
        Ok(OpenedRadio {
            meta,
            window,
            carry: Vec::new(),
            replay: true,
            window_lo: meta.anchor_local_us,
            stream,
        })
    }
}

/// Left-edge warm-up: how far before `window.from` a windowed replay
/// starts reading and merging (µs). The first [`BootstrapConfig::window_us`]
/// of it feeds the mid-trace offset bootstrap; the rest gives continuous
/// resynchronization time to converge onto the full-replay clock state
/// before the first in-window jframe is emitted.
pub const WINDOW_WARMUP_US: Micros = 2_000_000;

/// Right-edge read slack (µs): how far past `window.to` each radio keeps
/// reading, so a jframe whose earliest instance sits just inside the
/// window still collects instances from radios whose NTP anchors disagree
/// by milliseconds. Generous — it costs at most a couple of extra blocks
/// per radio.
pub const WINDOW_READ_SLACK_US: Micros = 100_000;

/// A disk-corpus radio opened for a **time-windowed replay**: reads are
/// index-seeked to the window, the mid-trace bootstrap window comes from a
/// block-bounded read at the warm-up start, and the merge stream is
/// clipped so nothing past the window (plus slack) is ever decoded — disk
/// bytes are proportional to the window's blocks, not the corpus.
///
/// The window is phrased in anchor-universal time; each radio locates it
/// on its own local clock through [`RadioMeta::coarse_local`] (the NTP
/// anchor pair as the coarse seed), and [`bootstrap_at`] then refines the
/// offsets from sync-quality frames found right there.
pub struct WindowedCorpusSource {
    source: jigsaw_trace::corpus::RadioTraceSource,
    window: TimeWindow,
    warmup_us: Micros,
    slack_us: Micros,
}

impl WindowedCorpusSource {
    /// Wraps a corpus radio for a `[from, to)` replay with the default
    /// warm-up and read slack.
    pub fn new(source: jigsaw_trace::corpus::RadioTraceSource, window: TimeWindow) -> Self {
        Self::with_margins(source, window, WINDOW_WARMUP_US, WINDOW_READ_SLACK_US)
    }

    /// [`WindowedCorpusSource::new`] with explicit margins (tests pin edge
    /// behavior with tight ones).
    pub fn with_margins(
        source: jigsaw_trace::corpus::RadioTraceSource,
        window: TimeWindow,
        warmup_us: Micros,
        slack_us: Micros,
    ) -> Self {
        WindowedCorpusSource {
            source,
            window,
            warmup_us,
            slack_us,
        }
    }
}

impl EventSource for WindowedCorpusSource {
    type Stream = jigsaw_trace::corpus::WindowedCorpusStream;

    fn open(self, window_us: u64) -> Result<OpenedRadio<Self::Stream>, FormatError> {
        let meta = self.source.meta();
        let lo = meta.coarse_local(self.window.from.saturating_sub(self.warmup_us));
        let hi = meta
            .coarse_local(self.window.to)
            .saturating_add(self.slack_us);
        // Mid-trace bootstrap window: one `window_us` of events starting at
        // the warm-up start, read through the block index.
        let window = self
            .source
            .read_window(lo, lo.saturating_add(window_us).min(hi))?;
        // The merge stream replays the same range from disk (bootstrap
        // events included — `replay` tells the driver not to seed them).
        let stream = self.source.open_stream_range(lo, hi)?;
        Ok(OpenedRadio {
            meta,
            window,
            carry: Vec::new(),
            replay: true,
            window_lo: lo,
            stream,
        })
    }
}

/// Decides which jframes belong to a replay window.
///
/// Membership is keyed on **anchor time**, not merged universal time: a
/// jframe's window key is the minimum over its instances of
/// [`RadioMeta::anchor_universal`]`(ts_local)` — a value derived purely
/// from captured timestamps and manifest anchors. Merged universal
/// timestamps depend on clock state (a mid-trace bootstrap re-derives the
/// timeline, so windowed and full replays agree on `ts` only to the
/// re-anchor tolerance); the anchor key is identical in both, which is
/// what makes "windowed ≡ full-clipped-to-window" an exact, pinnable
/// equivalence on [`JFrame::stable_digest`] multisets.
pub struct WindowClipper {
    window: TimeWindow,
    coarse: HashMap<u16, i64>,
}

impl WindowClipper {
    /// Builds a clipper for `window` over the given radio set.
    pub fn new(metas: &[RadioMeta], window: TimeWindow) -> Self {
        WindowClipper {
            window,
            coarse: metas
                .iter()
                .map(|m| (m.radio.0, m.coarse_offset_us()))
                .collect(),
        }
    }

    /// The window being clipped to.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The jframe's clock-invariant window key: the earliest instance in
    /// anchor time (falls back to the merged `ts` for an instance-less
    /// jframe, which the merger never emits).
    pub fn anchor_ts(&self, jf: &JFrame) -> Micros {
        jf.instances
            .iter()
            .map(|i| {
                let off = self.coarse.get(&i.radio.0).copied().unwrap_or(0);
                (i.ts_local as i64 - off).max(0) as Micros
            })
            .min()
            .unwrap_or(jf.ts)
    }

    /// True when the jframe belongs to the window.
    pub fn admits(&self, jf: &JFrame) -> bool {
        self.window.contains(self.anchor_ts(jf))
    }
}

/// Every radio's opened source, ready for bootstrap + merge.
pub(crate) struct SourceSet<S> {
    pub metas: Vec<RadioMeta>,
    pub windows: Vec<Vec<PhyEvent>>,
    pub carries: Vec<Vec<PhyEvent>>,
    pub replays: Vec<bool>,
    pub window_los: Vec<Micros>,
    pub streams: Vec<S>,
}

impl<S: EventStream> SourceSet<S> {
    /// Opens all sources, preserving radio order.
    pub fn open<I>(sources: Vec<I>, window_us: u64) -> Result<Self, FormatError>
    where
        I: EventSource<Stream = S>,
    {
        let n = sources.len();
        let mut set = SourceSet {
            metas: Vec::with_capacity(n),
            windows: Vec::with_capacity(n),
            carries: Vec::with_capacity(n),
            replays: Vec::with_capacity(n),
            window_los: Vec::with_capacity(n),
            streams: Vec::with_capacity(n),
        };
        for src in sources {
            let opened = src.open(window_us)?;
            set.metas.push(opened.meta);
            set.windows.push(opened.window);
            set.carries.push(opened.carry);
            set.replays.push(opened.replay);
            set.window_los.push(opened.window_lo);
            set.streams.push(opened.stream);
        }
        Ok(set)
    }

    /// Runs bootstrap over the in-window events only, windowed at each
    /// source's declared window start.
    pub fn bootstrap(&self, cfg: &BootstrapConfig) -> Result<BootstrapReport, BootstrapError> {
        let views: Vec<&[PhyEvent]> = self.windows.iter().map(|w| w.as_slice()).collect();
        bootstrap_at(&self.metas, &views, &self.window_los, cfg)
    }

    /// The window clipper for this radio set, when the config asks for one.
    pub fn clipper(&self, cfg: &PipelineConfig) -> Option<WindowClipper> {
        cfg.window.map(|w| WindowClipper::new(&self.metas, w))
    }

    /// Splits into merge input: the streams, plus per radio the events to
    /// seed ahead of them (empty for replaying sources) and the local time
    /// to reference the clock EWMA at.
    pub fn into_merge_input(self) -> (Vec<S>, Vec<Vec<PhyEvent>>, Vec<Micros>) {
        let seeds = self
            .windows
            .into_iter()
            .zip(self.carries)
            .zip(self.replays)
            .map(|((mut window, carry), replay)| {
                if replay {
                    debug_assert!(carry.is_empty(), "replay sources never carry");
                    Vec::new()
                } else {
                    window.extend(carry);
                    window
                }
            })
            .collect();
        (self.streams, seeds, self.window_los)
    }
}

/// The post-unification reconstruction chain: attempt assembly → exchange
/// assembly → transport reconstruction, plus the exchange reordering heap
/// (exchanges close out of order — a delivered exchange closes at its ACK,
/// an ambiguous one lingers to the 500 ms timeout — but transport
/// reconstruction needs transmission-time order, so closed exchanges sit in
/// a small heap until a 1 s watermark passes them).
///
/// Every [`Pipeline`] driver feeds this consumer, so sharded runs
/// reconstruct exactly what serial runs reconstruct; drivers that produce
/// jframes *outside* [`Pipeline`] — the live tail driver chief among them —
/// use it directly. Push unified jframes in emission order via
/// [`Reconstruction::push`], then call [`Reconstruction::finish`] exactly
/// once: the observer sees the identical callback stream it would see from
/// a batch [`Pipeline::run`] over the same jframes.
pub struct Reconstruction<O> {
    attempts: AttemptAssembler,
    exchanges: ExchangeAssembler,
    transport: TransportAnalyzer,
    attempt_buf: Vec<Attempt>,
    exchange_buf: Vec<Exchange>,
    reorder: BinaryHeap<Reverse<(u64, u64)>>,
    reorder_store: HashMap<u64, Exchange>,
    reorder_seq: u64,
    obs: O,
}

const REORDER_HORIZON_US: u64 = 1_000_000;

impl<O: PipelineObserver> Reconstruction<O> {
    /// Wraps an observer; see [`Pipeline::run`] for the observer contract.
    pub fn new(obs: O) -> Self {
        Reconstruction {
            attempts: AttemptAssembler::new(),
            exchanges: ExchangeAssembler::new(),
            transport: TransportAnalyzer::new(),
            attempt_buf: Vec::new(),
            exchange_buf: Vec::new(),
            reorder: BinaryHeap::new(),
            reorder_store: HashMap::new(),
            reorder_seq: 0,
            obs,
        }
    }

    fn enqueue_closed(&mut self) {
        for x in self.exchange_buf.drain(..) {
            self.reorder.push(Reverse((x.first_ts, self.reorder_seq)));
            self.reorder_store.insert(self.reorder_seq, x);
            self.reorder_seq += 1;
        }
    }

    /// Feeds one unified jframe (must arrive in emission order).
    pub fn push(&mut self, jf: &JFrame) {
        self.obs.on_jframe(jf);
        self.attempts.push(jf, &mut self.attempt_buf);
        for a in self.attempt_buf.drain(..) {
            self.obs.on_attempt(&a);
            self.exchanges.push(a, &mut self.exchange_buf);
        }
        self.enqueue_closed();
        let watermark = jf.ts.saturating_sub(REORDER_HORIZON_US);
        while let Some(&Reverse((ts, seq))) = self.reorder.peek() {
            if ts >= watermark {
                break;
            }
            self.reorder.pop();
            let x = self.reorder_store.remove(&seq).expect("stored exchange");
            self.transport.push(&x);
            self.obs.on_exchange(&x);
        }
    }

    /// Flushes every assembler and delivers the flow records, returning
    /// `(attempts, link, flows, transport)` — the same aggregates
    /// [`PipelineReport`] carries.
    pub fn finish(mut self) -> (AttemptStats, LinkStats, Vec<FlowRecord>, TransportStats) {
        self.attempts.finish(&mut self.attempt_buf);
        for a in self.attempt_buf.drain(..) {
            self.obs.on_attempt(&a);
            self.exchanges.push(a, &mut self.exchange_buf);
        }
        self.exchanges.finish(&mut self.exchange_buf);
        self.enqueue_closed();
        while let Some(Reverse((_, seq))) = self.reorder.pop() {
            let x = self.reorder_store.remove(&seq).expect("stored exchange");
            self.transport.push(&x);
            self.obs.on_exchange(&x);
        }
        let (flows, transport_stats) = self.transport.finish();
        self.obs.on_flows(&flows);
        (
            self.attempts.stats.clone(),
            self.exchanges.stats.clone(),
            flows,
            transport_stats,
        )
    }
}

/// The serial drivers' shard layout: a single shard, which
/// [`crate::shard::run_sharded`] runs as a plain inline
/// [`Merger`](crate::unify::Merger) on the calling thread (batching and
/// queue depth never come into play).
const SERIAL: ShardConfig = ShardConfig {
    max_threads: 1,
    batch: 1,
    queue_batches: 1,
};

/// The one pass behind every driver: open the sources, bootstrap the clocks
/// over their windows, merge through [`crate::shard::run_sharded`] with the
/// `shard` layout, and hand every jframe the replay window admits to `sink`.
fn merge_pass<I>(
    sources: Vec<I>,
    cfg: &PipelineConfig,
    shard: &ShardConfig,
    mut sink: impl FnMut(&JFrame),
) -> Result<(BootstrapReport, MergeStats), PipelineError>
where
    I: EventSource,
    I::Stream: Send + 'static,
{
    let set = SourceSet::open(sources, cfg.bootstrap.window_us)?;
    let boot = set.bootstrap(&cfg.bootstrap)?;
    let clip = set.clipper(cfg);
    let (streams, seeds, refs) = set.into_merge_input();
    let stats = crate::shard::run_sharded(
        streams,
        &boot.offsets,
        seeds,
        &refs,
        &cfg.merge,
        shard,
        |jf| {
            if clip.as_ref().is_none_or(|c| c.admits(&jf)) {
                sink(&jf);
            }
        },
    )?;
    Ok((boot, stats))
}

/// [`merge_pass`] feeding a [`Reconstruction`] over `obs`.
fn full_pass<I>(
    sources: Vec<I>,
    cfg: &PipelineConfig,
    shard: &ShardConfig,
    obs: impl PipelineObserver,
) -> Result<PipelineReport, PipelineError>
where
    I: EventSource,
    I::Stream: Send + 'static,
{
    let mut rec = Reconstruction::new(obs);
    let (bootstrap, merge) = merge_pass(sources, cfg, shard, |jf| rec.push(jf))?;
    let (attempts, link, flows, transport) = rec.finish();
    Ok(PipelineReport {
        bootstrap,
        merge,
        attempts,
        link,
        flows,
        transport,
    })
}

/// The pipeline driver.
pub struct Pipeline;

impl Pipeline {
    /// Runs the full pipeline over per-radio sources (streams or disk
    /// corpus radios) with the serial merger, delivering every output
    /// stream to `obs`.
    ///
    /// The observer receives every unified jframe, every transmission
    /// attempt (the paper's §7.2 interference analysis operates on
    /// attempts, which are distinct from frame exchanges), every closed
    /// exchange, and — once, at the end — the reconstructed flow records.
    /// Pass `()` for no observation, a closure adapter such as
    /// [`OnJFrame`] for one stream, a tuple to fan out to several
    /// analyses, or `&mut analysis` to keep the analysis afterwards.
    pub fn run<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        obs: impl PipelineObserver,
    ) -> Result<PipelineReport, PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        full_pass(sources, cfg, &SERIAL, obs)
    }

    /// [`Pipeline::run`] with the channel-sharded parallel merge
    /// ([`crate::shard`]) laid out by `cfg.shard`: bootstrap is unchanged
    /// (it is global — monitor clocks bridge channels), the merge fans out
    /// one thread per channel shard, and reconstruction consumes the
    /// re-merged stream here on the calling thread — so the observer needs
    /// no `Send` bound and sees exactly what [`Pipeline::run`] would
    /// deliver.
    pub fn run_parallel<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        obs: impl PipelineObserver,
    ) -> Result<PipelineReport, PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        full_pass(sources, cfg, &cfg.shard, obs)
    }

    /// Bootstrap + serial merge only — no link/transport reconstruction,
    /// so only [`PipelineObserver::on_jframe`] fires. Benchmarks isolate
    /// the merge stage with this.
    pub fn merge_only<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        mut obs: impl PipelineObserver,
    ) -> Result<(BootstrapReport, MergeStats), PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        merge_pass(sources, cfg, &SERIAL, |jf| obs.on_jframe(jf))
    }

    /// Convenience wrapper that materializes jframes and exchanges
    /// (small runs and tests only).
    pub fn run_collect<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
    ) -> Result<(Vec<JFrame>, Vec<Exchange>, PipelineReport), PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        let mut jframes = Vec::new();
        let mut xs = Vec::new();
        let report = Self::run(
            sources,
            cfg,
            (
                OnJFrame(|jf: &JFrame| jframes.push(jf.clone())),
                OnExchange(|x: &Exchange| xs.push(x.clone())),
            ),
        )?;
        Ok((jframes, xs, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, PhyStatus, RadioId};

    fn meta(radio: u16, anchor_local: u64) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio),
            channel: Channel::of(1),
            anchor_wall_us: 0,
            anchor_local_us: anchor_local,
        }
    }

    fn frame_bytes(seq: u16) -> Vec<u8> {
        serialize_frame(&Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(seq),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                ..Default::default()
            },
            null: false,
            body: vec![seq as u8; 40],
        }))
    }

    fn ev(radio: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
        let wire_len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len,
            bytes: bytes.into(),
        }
    }

    /// The bootstrap window boundary: an event at exactly `anchor + window`
    /// is bootstrap input; the first event past it is kept for merging but
    /// excluded from bootstrap.
    #[test]
    fn bootstrap_window_splits_at_boundary() {
        let window = BootstrapConfig::default().window_us; // 1 s
        let streams = vec![
            MemoryStream::new(
                meta(0, 0),
                vec![
                    ev(0, 100, frame_bytes(1)),
                    ev(0, window, frame_bytes(2)), // exactly at the edge: in
                    ev(0, window + 1, frame_bytes(3)), // first past the edge: out
                    ev(0, window + 50, frame_bytes(4)), // never read as prefix
                ],
            ),
            MemoryStream::new(meta(1, 0), vec![ev(1, 150, frame_bytes(1))]),
        ];
        let set = SourceSet::open(streams, window).unwrap();
        // Radio 0: three events consumed (the loop stops after the first
        // out-of-window event), only two of them bootstrap input.
        assert_eq!(set.windows[0].len(), 2);
        assert_eq!(set.carries[0].len(), 1);
        assert_eq!(set.windows[1].len(), 1);
        assert!(set.carries[1].is_empty());
        assert!(set.replays.iter().all(|&r| !r), "streams are consumed-once");
        // The stream still holds the unread tail.
        assert_eq!(set.streams[0].len(), 1);

        // The out-of-window event is NOT a synchronization candidate...
        let boot = set.bootstrap(&BootstrapConfig::default()).unwrap();
        assert_eq!(boot.candidates, 3); // r0: seq 1 + seq 2; r1: seq 1
        assert_eq!(boot.components, 1);

        // ...but it IS merge input, seeded ahead of the stream.
        let (streams, seeds, refs) = set.into_merge_input();
        assert_eq!(seeds[0].len(), 3);
        assert_eq!(seeds[0][2].ts_local, window + 1);
        assert_eq!(seeds[1].len(), 1);
        assert_eq!(streams[0].len(), 1);
        // Stream sources reference their clocks at the NTP anchor.
        assert_eq!(refs, vec![0, 0]);
    }

    /// A rewindable test double: the window is served out-of-band and the
    /// stream replays everything — the disk-corpus shape of a source.
    struct ReplaySource {
        meta: RadioMeta,
        events: Vec<PhyEvent>,
    }

    impl EventSource for ReplaySource {
        type Stream = MemoryStream;

        fn open(self, window_us: u64) -> Result<OpenedRadio<MemoryStream>, FormatError> {
            let hi = self.meta.anchor_local_us.saturating_add(window_us);
            let window = self
                .events
                .iter()
                .filter(|e| e.ts_local <= hi)
                .cloned()
                .collect();
            Ok(OpenedRadio {
                meta: self.meta,
                window,
                carry: Vec::new(),
                replay: true,
                window_lo: self.meta.anchor_local_us,
                stream: MemoryStream::new(self.meta, self.events),
            })
        }
    }

    /// Replaying sources and consumed-once streams must produce identical
    /// pipelines: same bootstrap input, same merged stream, nothing seeded
    /// twice and nothing dropped.
    #[test]
    fn replay_source_matches_stream_source() {
        let window = BootstrapConfig::default().window_us;
        let mk_events = |r: u16| {
            vec![
                ev(r, 100 + u64::from(r), frame_bytes(1)),
                ev(r, window + 1 + u64::from(r), frame_bytes(3)),
                ev(r, window + 40_000 + u64::from(r), frame_bytes(7)),
            ]
        };
        let streams: Vec<MemoryStream> = (0..2)
            .map(|r| MemoryStream::new(meta(r, 0), mk_events(r)))
            .collect();
        let (jf_stream, _, rs) =
            Pipeline::run_collect(streams, &PipelineConfig::default()).unwrap();

        let replays: Vec<ReplaySource> = (0..2)
            .map(|r| ReplaySource {
                meta: meta(r, 0),
                events: mk_events(r),
            })
            .collect();
        let (jf_replay, _, rr) =
            Pipeline::run_collect(replays, &PipelineConfig::default()).unwrap();

        assert_eq!(rs.merge.events_in, rr.merge.events_in);
        assert_eq!(rs.bootstrap.candidates, rr.bootstrap.candidates);
        assert_eq!(jf_stream.len(), jf_replay.len());
        for (a, b) in jf_stream.iter().zip(&jf_replay) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.instances, b.instances);
        }
    }

    /// End-to-end: the consumed out-of-window event still reaches the
    /// merger (no event is dropped on the floor).
    #[test]
    fn out_of_window_prefix_event_still_merged() {
        let window = BootstrapConfig::default().window_us;
        let streams = vec![
            MemoryStream::new(
                meta(0, 0),
                vec![
                    ev(0, 100, frame_bytes(1)),
                    ev(0, window + 1, frame_bytes(3)),
                ],
            ),
            MemoryStream::new(meta(1, 0), vec![ev(1, 102, frame_bytes(1))]),
        ];
        let (jframes, _, report) =
            Pipeline::run_collect(streams, &PipelineConfig::default()).unwrap();
        assert_eq!(report.merge.events_in, 3);
        assert_eq!(jframes.len(), 2);
        assert!(jframes.iter().any(|j| j.ts == window + 1));
    }

    /// One observer sees every stream the pipeline emits, with `on_flows`
    /// firing exactly once at the end — the contract every analysis (and
    /// the analysis `Suite`) builds on.
    #[test]
    fn observer_sees_every_stream_once() {
        #[derive(Default)]
        struct Probe {
            jframes: u64,
            attempts: u64,
            exchanges: u64,
            flows_calls: u64,
            flows_after_streams: bool,
        }
        impl crate::observer::PipelineObserver for Probe {
            fn on_jframe(&mut self, _jf: &JFrame) {
                self.jframes += 1;
            }
            fn on_attempt(&mut self, _a: &Attempt) {
                self.attempts += 1;
            }
            fn on_exchange(&mut self, _x: &Exchange) {
                self.exchanges += 1;
            }
            fn on_flows(&mut self, _flows: &[crate::transport::flow::FlowRecord]) {
                self.flows_calls += 1;
                self.flows_after_streams = self.jframes > 0;
            }
        }

        let streams = vec![
            MemoryStream::new(
                meta(0, 0),
                (0..40u64)
                    .map(|k| ev(0, 1_000 + k * 2_000, frame_bytes(k as u16)))
                    .collect(),
            ),
            MemoryStream::new(meta(1, 0), vec![ev(1, 1_002, frame_bytes(0))]),
        ];
        let mut probe = Probe::default();
        let report = Pipeline::run(streams, &PipelineConfig::default(), &mut probe).unwrap();
        assert_eq!(probe.jframes, report.merge.jframes_out);
        assert_eq!(probe.attempts, report.link.attempts);
        assert_eq!(probe.exchanges, report.link.exchanges);
        assert_eq!(probe.flows_calls, 1, "on_flows must fire exactly once");
        assert!(
            probe.flows_after_streams,
            "on_flows fires after the streams"
        );
        assert!(probe.jframes > 0 && probe.attempts > 0 && probe.exchanges > 0);
    }

    /// Serial and parallel drivers agree end to end (jframes, exchanges,
    /// and the figures derived from them all hang off these sinks).
    #[test]
    fn parallel_pipeline_matches_serial() {
        let mk_streams = || {
            let chans = [1u8, 6, 11, 1];
            let mut per_radio: Vec<Vec<PhyEvent>> = vec![Vec::new(); 4];
            for k in 0..30u64 {
                for (r, &c) in chans.iter().enumerate() {
                    let mut e = ev(
                        r as u16,
                        1_000 + k * 4_000 + r as u64,
                        frame_bytes((k % 4000) as u16),
                    );
                    e.channel = Channel::of(c);
                    per_radio[r].push(e);
                }
            }
            per_radio
                .into_iter()
                .enumerate()
                .map(|(r, evs)| {
                    let m = RadioMeta {
                        channel: Channel::of(chans[r]),
                        ..meta(r as u16, 0)
                    };
                    MemoryStream::new(m, evs)
                })
                .collect::<Vec<_>>()
        };
        let cfg = PipelineConfig {
            shard: ShardConfig {
                max_threads: 3,
                ..ShardConfig::default()
            },
            ..PipelineConfig::default()
        };
        let mut serial = Vec::new();
        let rs = Pipeline::run(
            mk_streams(),
            &cfg,
            OnJFrame(|jf: &JFrame| serial.push(jf.clone())),
        )
        .unwrap();
        let mut par = Vec::new();
        let rp = Pipeline::run_parallel(
            mk_streams(),
            &cfg,
            OnJFrame(|jf: &JFrame| par.push(jf.clone())),
        )
        .unwrap();
        assert_eq!(serial.len(), par.len());
        assert_eq!(rs.merge.events_in, rp.merge.events_in);
        assert_eq!(rs.merge.jframes_out, rp.merge.jframes_out);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.channel, b.channel);
            assert_eq!(a.instances, b.instances);
        }
    }
}

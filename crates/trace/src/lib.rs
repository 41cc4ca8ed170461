//! # jigsaw-trace
//!
//! The capture-side data model of the Jigsaw system: per-radio PHY event
//! records and the *jigdump*-style storage pipeline (paper §3.3).
//!
//! The real system runs a `jigdump` process per radio that pulls PHY event
//! records from a modified MadWifi driver — **all** events, including
//! corrupted frames and PHY errors, with 1 µs Atheros timestamps —
//! compresses them (LZO) and streams them over NFS with a metadata index.
//! This crate reproduces that contract:
//!
//! * [`PhyEvent`] — one reception at one radio: local timestamp, channel,
//!   PLCP rate, RSSI, FCS/PHY status, true wire length, and captured bytes
//!   (possibly snap-truncated, like jigdump's ~200-byte window);
//! * [`Payload`] — the captured bytes themselves: a zero-copy range handle
//!   into the shared decompressed block the event was decoded from (or a
//!   small owned buffer for constructed events), cloned in O(1) by
//!   [`Payload::handle`] so decode → merge → jframe never copies payload
//!   bytes;
//! * [`mod@format`] — a compact binary trace format: delta/varint encoded
//!   records in independently decodable compressed blocks;
//! * [`compress`] — an LZ77-family codec implemented in-repo (stand-in for
//!   LZO, which is not in the approved dependency set);
//! * [`index`] — the per-block metadata index jigdump writes alongside data
//!   files so the merger can seek by time;
//! * [`stream`] — time-sorted event streams consumed by the merger, from
//!   memory or from disk;
//! * [`tail`] — incremental decode of a *growing* trace: chunk-fed bytes,
//!   whole-block commits, and block-boundary resume for live ingest;
//! * [`corpus`] — a recorded deployment on disk: one compressed, indexed
//!   trace file per radio plus a manifest and digest (see below);
//! * [`digest`] — FNV-1a content digests backing the golden-corpus CI check;
//! * [`pcap`] — classic-pcap export (LINKTYPE_IEEE802_11) for interop with
//!   wireshark/tcpdump tooling.
//!
//! ## The disk corpus and the record/merge workflow
//!
//! A *corpus* is a directory with one trace file (`rNNN.jigt`) and one
//! block-index file (`rNNN.jigx`) per radio, a line-oriented `MANIFEST`
//! (scenario, seed, scale, snaplen, duration, per-radio table, wired
//! member), the wired distribution-network trace (`wired.jigw`), and a
//! `corpus.digest` FNV-1a fingerprint of everything — the unit of
//! replayable, CI-checkable merge input. The `repro` binary drives the
//! whole cycle:
//!
//! ```text
//! repro record --corpus DIR [--scenario tiny|small|paper_day] [--seed N]
//!              [--scale F] [--block-bytes N]     # simulate → write corpus
//! repro merge  --corpus DIR [--parallel --threads N] [--verify]
//!              [--from US --to US] [--max-buffered N]  # corpus → jframes
//! ```
//!
//! Decode and window-read costs are measured by the `perfbench/` benchmark
//! (`trace.decode_s`, `trace.window_read_s`, `trace.disk_mb`).
//!
//! `merge` never materializes the corpus in memory: each radio's bootstrap
//! window is read through the block index ([`index::find_block`] bounds the
//! decode), the merge then re-streams every file from the start, and peak
//! resident events stay bounded by the search window and the shard queues —
//! not by corpus size. `--verify` re-simulates from the manifest's seed and
//! asserts the disk-backed jframe stream is identical (count, order, and
//! digest) to the in-memory serial and channel-sharded runs.
//!
//! With `--from/--to` the replay is **time-windowed**: reads index-seek to
//! the window ([`TimeWindow`], phrased in the anchor-universal time of
//! [`RadioMeta::anchor_universal`]), the clock bootstrap re-anchors
//! mid-trace, and disk bytes scale with the window's blocks rather than
//! the corpus — the paper's "start at 11 am without decompressing the
//! morning". A windowed `--verify` pins the run against the full replay
//! clipped to the same window.

pub mod compress;
pub mod corpus;
pub mod digest;
pub mod format;
pub mod index;
pub mod payload;
pub mod pcap;
pub mod stream;
pub mod tail;
pub mod varint;

pub use payload::Payload;

use jigsaw_ieee80211::{Channel, Micros, PhyRate};

/// Dense identifier of a single radio (one of the 156 in the full build-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RadioId(pub u16);

impl RadioId {
    /// The radio id as a usize index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for RadioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Dense identifier of a monitor (a Soekris board driving two radios that
/// share one local clock — the property §4.1 exploits to bridge channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonitorId(pub u16);

impl MonitorId {
    /// The monitor id as a usize index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for MonitorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Static description of one radio: who owns it, where it listens, and the
/// NTP wall-clock anchor of its trace. The merger consumes a table of these
/// alongside the traces.
///
/// The anchor reproduces paper footnote 4: each monitor keeps its *system*
/// clock within milliseconds via NTP and records it in the trace, giving a
/// coarse mapping from the free-running radio clock to wall time. Jigsaw
/// uses it to delimit the bootstrap window — originally the trace's first
/// second, and since time-windowed replay landed, a one-second window at
/// *any* requested timestamp: [`RadioMeta::coarse_local`] maps a universal
/// (wall-anchored) timestamp to this radio's local clock to millisecond
/// accuracy, which is exactly good enough to seed a fresh bootstrap there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadioMeta {
    /// The radio.
    pub radio: RadioId,
    /// The monitor whose clock timestamps this radio's events.
    pub monitor: MonitorId,
    /// The channel the radio is tuned to.
    pub channel: Channel,
    /// NTP wall-clock µs at the trace start (±ms NTP error).
    pub anchor_wall_us: u64,
    /// The radio's local clock value at the same instant.
    pub anchor_local_us: u64,
}

impl RadioMeta {
    /// The coarse clock offset implied by the NTP anchor pair:
    /// `local ≈ universal + coarse_offset_us` (signed µs). Accurate to the
    /// NTP error (milliseconds) plus whatever the oscillator has drifted
    /// since the anchor was taken (ppm × elapsed time).
    pub fn coarse_offset_us(&self) -> i64 {
        self.anchor_local_us as i64 - self.anchor_wall_us as i64
    }

    /// Maps a universal (wall-anchored) timestamp to this radio's local
    /// clock through the anchor pair — the coarse seed a mid-trace replay
    /// uses to know *where in the local-time trace* a wall-clock window
    /// starts, before the fine-grained bootstrap takes over.
    pub fn coarse_local(&self, universal: Micros) -> Micros {
        (universal as i64 + self.coarse_offset_us()).max(0) as Micros
    }

    /// Maps a local timestamp to *anchor time* — the NTP-anchored universal
    /// timeline defined purely by the manifest anchors, independent of any
    /// merge-time clock state. Windowed replay clips by this key so a
    /// windowed run and a full run agree exactly on window membership.
    pub fn anchor_universal(&self, local: Micros) -> Micros {
        (local as i64 - self.coarse_offset_us()).max(0) as Micros
    }
}

/// A half-open `[from, to)` interval on the universal (wall-anchored)
/// timeline, in µs — the "start at 11 am" window a time-windowed replay
/// merges and analyzes. Construct with [`TimeWindow::new`], which enforces
/// `from < to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Inclusive start, universal µs.
    pub from: Micros,
    /// Exclusive end, universal µs.
    pub to: Micros,
}

impl TimeWindow {
    /// Builds a window; `None` unless `from < to` (an empty or inverted
    /// window is always a caller error worth surfacing, never a silent
    /// no-op run).
    pub fn new(from: Micros, to: Micros) -> Option<Self> {
        (from < to).then_some(TimeWindow { from, to })
    }

    /// True when `ts` falls inside `[from, to)`.
    pub fn contains(&self, ts: Micros) -> bool {
        ts >= self.from && ts < self.to
    }

    /// True when the window intersects the span `[lo, hi]`.
    pub fn overlaps(&self, lo: Micros, hi: Micros) -> bool {
        self.from <= hi && self.to > lo
    }

    /// Window length in µs.
    pub fn len_us(&self) -> Micros {
        self.to - self.from
    }
}

impl std::fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.from, self.to)
    }
}

/// Reception quality of a PHY event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhyStatus {
    /// Frame decoded completely and the FCS verified.
    Ok,
    /// Frame decoded (PLCP locked, length known) but the FCS failed —
    /// contents are partially or wholly corrupt.
    FcsError,
    /// The radio saw energy / a preamble but could not decode a frame at
    /// all (too weak, collision, microwave burst, foreign modulation).
    PhyError,
}

impl PhyStatus {
    /// True when the captured bytes are trustworthy end-to-end.
    pub fn is_ok(self) -> bool {
        matches!(self, PhyStatus::Ok)
    }

    /// Compact code for serialization.
    pub fn code(self) -> u8 {
        match self {
            PhyStatus::Ok => 0,
            PhyStatus::FcsError => 1,
            PhyStatus::PhyError => 2,
        }
    }

    /// Decodes [`PhyStatus::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(PhyStatus::Ok),
            1 => Some(PhyStatus::FcsError),
            2 => Some(PhyStatus::PhyError),
            _ => None,
        }
    }
}

/// One PHY event at one radio — the atom of the entire Jigsaw pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhyEvent {
    /// Which radio captured this event.
    pub radio: RadioId,
    /// Local clock of the owning monitor at reception, µs (1 µs resolution,
    /// includes that monitor's offset/skew/drift — *not* universal time).
    pub ts_local: Micros,
    /// Channel the radio was tuned to.
    pub channel: Channel,
    /// PLCP-decoded rate (for [`PhyStatus::PhyError`] this is the radio's
    /// best guess and carries no information).
    pub rate: PhyRate,
    /// Received signal strength, dBm (negative).
    pub rssi_dbm: i16,
    /// Decode quality.
    pub status: PhyStatus,
    /// True frame length on the air, bytes incl. FCS (from the PLCP header,
    /// known even when the body is corrupt; 0 for pure PHY errors).
    pub wire_len: u32,
    /// Captured bytes (≤ snap length; equal to `wire_len` when complete).
    /// A [`Payload`]: a zero-copy handle into the decoded block when the
    /// event came off disk, an inline buffer when generated in memory.
    pub bytes: Payload,
}

impl PhyEvent {
    /// True if the full frame body was captured (no snap truncation).
    pub fn is_complete(&self) -> bool {
        self.bytes.len() as u32 == self.wire_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip() {
        for s in [PhyStatus::Ok, PhyStatus::FcsError, PhyStatus::PhyError] {
            assert_eq!(PhyStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(PhyStatus::from_code(9), None);
    }

    #[test]
    fn completeness() {
        let ev = PhyEvent {
            radio: RadioId(3),
            ts_local: 17,
            channel: Channel::of(6),
            rate: PhyRate::R11,
            rssi_dbm: -60,
            status: PhyStatus::Ok,
            wire_len: 4,
            bytes: vec![1, 2, 3, 4].into(),
        };
        assert!(ev.is_complete());
        let mut snapped = ev.clone();
        snapped.bytes = vec![1, 2].into();
        assert!(!snapped.is_complete());
    }

    #[test]
    fn ids_display() {
        assert_eq!(RadioId(15).to_string(), "r15");
        assert_eq!(MonitorId(7).to_string(), "m7");
        assert_eq!(RadioId(15).index(), 15);
    }

    #[test]
    fn anchor_mapping_roundtrips() {
        let m = RadioMeta {
            radio: RadioId(0),
            monitor: MonitorId(0),
            channel: Channel::of(1),
            anchor_wall_us: 2_000,
            anchor_local_us: 5_000_000,
        };
        assert_eq!(m.coarse_offset_us(), 4_998_000);
        assert_eq!(m.coarse_local(10_000), 5_008_000);
        assert_eq!(m.anchor_universal(5_008_000), 10_000);
        // Local clocks far behind wall time clamp at 0, never wrap.
        let behind = RadioMeta {
            anchor_wall_us: 9_000_000,
            anchor_local_us: 1_000,
            ..m
        };
        assert_eq!(behind.coarse_offset_us(), -8_999_000);
        assert_eq!(behind.coarse_local(1_000_000), 0);
    }

    #[test]
    fn time_window_semantics() {
        assert!(TimeWindow::new(5, 5).is_none());
        assert!(TimeWindow::new(6, 5).is_none());
        let w = TimeWindow::new(100, 200).unwrap();
        assert!(w.contains(100) && w.contains(199));
        assert!(!w.contains(99) && !w.contains(200));
        assert_eq!(w.len_us(), 100);
        assert!(w.overlaps(0, 100) && w.overlaps(199, 300) && w.overlaps(150, 160));
        assert!(!w.overlaps(0, 99) && !w.overlaps(200, 300));
        assert_eq!(w.to_string(), "[100, 200)");
    }
}

//! Criterion benchmark: the zero-copy payload path (PR 10).
//!
//! Two micro-benchmarks isolate the decode cost that perfbench's
//! `trace.decode_s` measures end to end. `block_decode` decodes a compressed trace two ways: the
//! shared path hands out [`jigsaw_trace::Payload`] range handles into the
//! decompressed block (what `TraceReader` does now), and the owned path
//! re-materializes every payload with `to_vec()` — the per-event copy the
//! pre-PR-10 decoder performed. `payload_access` then reads the decoded
//! bytes back, comparing deref-through-a-handle against a plain owned
//! buffer, pinning the access-side cost of sharing at (expected) zero.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jigsaw_ieee80211::{Channel, PhyRate};
use jigsaw_trace::format::{TraceReader, TraceWriter};
use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};

const EVENTS: usize = 20_000;

fn meta() -> RadioMeta {
    RadioMeta {
        radio: RadioId(1),
        monitor: MonitorId(0),
        channel: Channel::of(6),
        anchor_wall_us: 1_000_000,
        anchor_local_us: 0,
    }
}

/// A compressed trace of `EVENTS` beacon-sized events with repetitive-ish
/// bodies (so the LZ codec emits real match tokens, like captured air).
fn trace_bytes() -> Vec<u8> {
    let mut w = TraceWriter::with_block_target(Vec::new(), meta(), 256, 4096).expect("create");
    let mut ts = 0u64;
    for i in 0..EVENTS {
        ts += 1_024;
        let len = 40 + (i % 7) * 24;
        let body: Vec<u8> = (0..len).map(|j| (i as u8) ^ (j as u8)).collect();
        let ev = PhyEvent {
            radio: RadioId(1),
            ts_local: ts,
            channel: Channel::of(6),
            rate: PhyRate::R11,
            rssi_dbm: -55,
            status: PhyStatus::Ok,
            wire_len: len as u32,
            bytes: body.into(),
        };
        w.append(&ev).expect("append");
    }
    let (buf, _, _) = w.finish().expect("finish");
    buf
}

fn bench_block_decode(c: &mut Criterion) {
    let buf = trace_bytes();
    let mut g = c.benchmark_group("block_decode");
    g.throughput(Throughput::Elements(EVENTS as u64));
    g.sample_size(20);

    g.bench_function(BenchmarkId::new("shared", EVENTS), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for r in TraceReader::open(&buf[..]).expect("open") {
                total += r.expect("decode").bytes.len();
            }
            total
        })
    });
    // The pre-PR-10 decoder: one owned Vec<u8> per event.
    g.bench_function(BenchmarkId::new("owned", EVENTS), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for r in TraceReader::open(&buf[..]).expect("open") {
                total += r.expect("decode").bytes.to_vec().len();
            }
            total
        })
    });
    g.finish();
}

fn bench_payload_access(c: &mut Criterion) {
    let buf = trace_bytes();
    let shared: Vec<PhyEvent> = TraceReader::open(&buf[..])
        .expect("open")
        .map(|r| r.expect("decode"))
        .collect();
    let owned: Vec<Vec<u8>> = shared.iter().map(|e| e.bytes.to_vec()).collect();
    let bytes: u64 = owned.iter().map(|b| b.len() as u64).sum();

    let mut g = c.benchmark_group("payload_access");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);

    g.bench_function(BenchmarkId::new("shared_handle", EVENTS), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for e in &shared {
                acc += e.bytes.iter().map(|&x| u64::from(x)).sum::<u64>();
            }
            acc
        })
    });
    g.bench_function(BenchmarkId::new("owned_vec", EVENTS), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in &owned {
                acc += v.iter().map(|&x| u64::from(x)).sum::<u64>();
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_block_decode, bench_payload_access);
criterion_main!(benches);

//! `window_queries`: one client querying the corpus in a closed loop, each
//! query a 1 s windowed `analyze --from/--to` at a seeded position — the
//! paper's "start at 11 am" mode, whose cost is index seek, whole-block
//! decode around the window, and the mid-trace clock bootstrap.

// tidy:allow-file(wall-clock): the benchmark harness times each query
use crate::common::{guarded, secs, Env, Opened, Rng, Tracing};
use crate::layers::{layer_metrics, Driver};
use crate::stats::{median, percentile_sorted, tail_percentile};
use crate::Outcome;
use jigsaw_analysis::suite::record_lines;
use jigsaw_bench::alloc::AllocRegion;
use jigsaw_bench::WindowedStreamDigest;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig, WindowClipper};
use jigsaw_core::{JFrame, OnJFrame};
use jigsaw_trace::TimeWindow;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Queries a run makes at least.
pub const MIN_QUERIES: usize = 40;
/// Window positions drawn per run; a run stops early past its time only
/// after [`MIN_QUERIES`].
pub const POOL: usize = 64;
/// Query window length, µs.
pub const WINDOW_US: u64 = 1_000_000;
/// The reported tail percentile: at 40 queries, p75 is the highest with at
/// least 10 samples beyond it.
pub const TAIL_PCT: u32 = 75;

/// `POOL` 1 s windows at seeded positions across the corpus span.
pub fn draw_windows(seed: u64, span: (u64, u64)) -> Vec<TimeWindow> {
    let mut rng = Rng::new(seed, 2);
    let room = span
        .1
        .saturating_sub(span.0)
        .saturating_sub(WINDOW_US)
        .max(1);
    (0..POOL)
        .map(|_| {
            let from = span.0 + rng.below(room);
            TimeWindow::new(from, from + WINDOW_US).expect("nonempty window")
        })
        .collect()
}

/// The reference for every window in one untimed pass: the full serial
/// merge, each jframe folded into the digest of every window its
/// clock-invariant anchor key falls in.
pub fn reference(
    opened: &Opened,
    windows: &[TimeWindow],
) -> Result<Vec<WindowedStreamDigest>, String> {
    let corpus = &opened.corpus;
    let metas = corpus.metas();
    let clipper = WindowClipper::new(&metas, windows[0]);
    let mut digests = vec![WindowedStreamDigest::new(); windows.len()];
    let sources = jigsaw_bench::corpus_sources(corpus, Arc::new(AtomicU64::new(0)))
        .map_err(|e| e.to_string())?;
    Pipeline::merge_only(
        sources,
        &PipelineConfig::default(),
        OnJFrame(|jf: &JFrame| {
            let key = clipper.anchor_ts(jf);
            for (w, d) in windows.iter().zip(digests.iter_mut()) {
                if w.contains(key) {
                    d.observe(jf);
                }
            }
        }),
    )
    .map_err(|e| e.to_string())?;
    Ok(digests)
}

/// One query: the windowed figure suite plus the window's stream digest.
/// Returns `(record lines, digest, events merged)`.
fn query(
    opened: &Opened,
    w: TimeWindow,
    tracing: &mut Option<&mut Tracing>,
) -> Result<(String, WindowedStreamDigest, u64), String> {
    let mut digest = WindowedStreamDigest::new();
    let (figures, events) = opened.pass(
        Some(w),
        Driver::Serial,
        tracing,
        OnJFrame(|jf: &JFrame| digest.observe(jf)),
    )?;
    Ok((record_lines(&figures), digest, events))
}

/// Runs the workload: at least [`MIN_QUERIES`] queries and at least
/// `seconds`, from one client in a closed loop.
pub fn run(env: &Env, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let setup = || -> Result<_, String> {
        let opened = Opened::open(&env.dir)?;
        let span = opened
            .corpus
            .universal_span()
            .map_err(|e| e.to_string())?
            .ok_or("corpus records no events")?;
        let windows = draw_windows(seed, span);
        let refs = reference(&opened, &windows)?;
        Ok((windows, refs))
    };
    let (windows, refs) = match setup() {
        Ok(v) => v,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("query reference: {e}"));
            return;
        }
    };

    let (mut lat, mut events, mut traced_lat) = (Vec::new(), 0u64, Vec::new());
    let mut t = Tracing::default();
    let region = AllocRegion::begin();
    let start = Instant::now();
    for (i, (w, want)) in windows.iter().zip(&refs).enumerate() {
        if i >= MIN_QUERIES && secs(start) >= seconds {
            break;
        }
        out.attempted += 1;
        // The query includes opening the corpus, as `repro analyze` does.
        let t0 = Instant::now();
        let got = Opened::open(&env.dir).and_then(|o| query(&o, *w, &mut None));
        let dt = secs(t0);
        match got {
            Ok((records, digest, n)) => {
                if digest.count() != want.count() || digest.hex() != want.hex() {
                    out.fail(format!(
                        "query {w}: {} jframes digest {}, clipped full replay {} jframes digest {}",
                        digest.count(),
                        digest.hex(),
                        want.count(),
                        want.hex()
                    ));
                }
                lat.push(dt);
                events += n;
                if traced {
                    let t0 = Instant::now();
                    let again = guarded(&mut Some(&mut t), |tr| {
                        Opened::open(&env.dir).and_then(|o| query(&o, *w, tr))
                    });
                    traced_lat.push(secs(t0));
                    match again {
                        Ok((r, d, _)) if r == records && d.hex() == digest.hex() => {}
                        Ok(_) => out.fail(format!("traced query {w} differs from untraced")),
                        Err(e) => out.fail(format!("traced query {w}: {e}")),
                    }
                }
            }
            Err(e) => out.fail(format!("query {w}: {e}")),
        }
    }
    let peak_mb = region.end().peak_bytes as f64 / 1e6;
    if traced {
        t.layers
            .add("tracing.overhead_s", median(&traced_lat) - median(&lat));
        out.set_layers(&[layer_metrics(&t.tr, &t.layers)]);
        out.spans.push(t.tr);
        return;
    }
    let mut sorted = lat.clone();
    sorted.sort_by(f64::total_cmp);
    if tail_percentile(sorted.len(), 10).is_none_or(|p| p < TAIL_PCT) {
        out.fail(format!(
            "{} queries leave fewer than 10 beyond p{TAIL_PCT}",
            sorted.len()
        ));
    }
    let (p50, tail) = (
        median(&lat) * 1e3,
        percentile_sorted(&sorted, TAIL_PCT) * 1e3,
    );
    let busy: f64 = lat.iter().sum();
    out.named("query_p50_ms", p50, "ms");
    out.named("query_p75_ms", tail, "ms");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_tail_ms", tail, "ms");
    out.metric(
        "events_per_s",
        if busy > 0.0 {
            events as f64 / busy
        } else {
            0.0
        },
        "events/s",
    );
    out.metric("peak_heap_mb", peak_mb, "MB");
}

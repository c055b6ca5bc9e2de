//! Cost of the tracing instrumentation on the request hot path.
//!
//! The span-emission sites (`sns_core::trace`) are wired permanently
//! through the front end, dispatch plane and worker stub; when tracing
//! is disabled each site costs one `Option` branch. This bench proves
//! that cost is inside the noise floor: the same TranSend request-path
//! profile (pass-through requests through admission → lottery dispatch
//! → queue → service → reply) is measured in four configurations in
//! one process —
//!
//! * `request_path/base` — tracing disabled;
//! * `request_path/off`  — tracing disabled again (the A/A control:
//!   any base↔off gap is pure measurement noise);
//! * `request_path/on`   — tracing enabled, every span recorded;
//! * `request_path/sampled` — tracing enabled, head-sampled 1-in-64:
//!   the always-on production configuration, where almost every
//!   request takes the enabled-but-sampled-out path.
//!
//! The four are interleaved: each round runs every configuration in a
//! few passes, each pass in a fresh seeded order, and keeps each
//! configuration's fastest pass. The gate is on per-round ratios to
//! `base`, so host drift across the run cancels: the upper end of a
//! seeded bootstrap 95% interval for the median `off/base` and
//! `sampled/base` ratio must stay ≤ 1.02. The bin also asserts that all
//! four configurations dispatch bit-identical simulations — recording
//! (or deciding not to record) spans must observe the run, never
//! perturb it. Rows (one sample per round) are *appended* to
//! `BENCH_sim.json` alongside the `sim_throughput` scheduler rows,
//! together with the span-derived `slo/*` summary rows aggregated from
//! the fully traced run.
//!
//! ```sh
//! cargo run -p sns-bench --release --bin trace_overhead [-- OUTPUT.json]
//! ```

use std::time::{Duration, Instant};

use sns_core::slo::SloAggregator;
use sns_core::trace::TraceLog;
use sns_sim::time::SimTime;
use sns_sim::Pcg32;
use sns_testkit::BenchSuite;
use sns_transend::client::ClientReportHandle;
use sns_transend::{TranSendBuilder, TranSendCluster};
use sns_workload::trace::TraceRecord;
use sns_workload::MimeType;

/// Requests per measured run.
const REQUESTS: u64 = 200;

/// Pass-through objects (identity pipeline), one every 5 ms.
fn items() -> Vec<(Duration, TraceRecord)> {
    (0..REQUESTS)
        .map(|i| {
            (
                Duration::from_millis(5 * i),
                TraceRecord {
                    at: Duration::from_millis(5 * i),
                    user: (i % 16) as u32,
                    url: format!("bin://object/{}", i % 64),
                    mime: MimeType::Other,
                    size: 16 * 1024,
                },
            )
        })
        .collect()
}

fn build(traced: bool, sample_rate: u32) -> (TranSendCluster, ClientReportHandle) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(0x0b5e)
        .with_worker_nodes(4)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .with_tracing(traced)
        .with_trace_sampling(sample_rate)
        .build();
    let report = cluster.attach_client(items(), Duration::from_secs(2));
    (cluster, report)
}

/// Rebuilds `path` as one JSON row array: every pre-existing row except
/// stale `request_path/*` and `slo/*` ones, then the given freshly
/// rendered rows.
fn append_rows(path: &str, new_rows_json: &str) {
    let row_lines = |s: &str, drop_ours: bool| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("\"bench\":"))
            .filter(|l| {
                !(drop_ours
                    && (l.contains("\"bench\":\"request_path/") || l.contains("\"bench\":\"slo/")))
            })
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
            .collect()
    };
    let mut rows = match std::fs::read_to_string(path) {
        Ok(existing) => row_lines(&existing, true),
        Err(_) => Vec::new(),
    };
    rows.extend(row_lines(new_rows_json, false));
    let body = rows.join(",\n");
    std::fs::write(path, format!("[\n{body}\n]")).expect("write bench rows");
}

/// Untimed warmup rounds before measurement.
const WARMUP_ROUNDS: usize = 4;
/// Measured rounds. A round times every configuration in interleaved
/// passes, so a slow stretch on the host hits all four alike.
const ROUNDS: usize = 200;
/// Passes per round; a configuration's round time is its fastest pass.
const PASSES: usize = 3;
/// Bootstrap resamples of the per-round ratios.
const RESAMPLES: usize = 2000;
/// The gate: a configuration may cost at most 2% over `base`.
const BOUND: f64 = 1.02;

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of `ratios` and the upper end of its bootstrap 95% interval
/// (percentile method, seeded so the gate is a pure function of the
/// timings).
fn median_with_upper(ratios: &[f64]) -> (f64, f64) {
    let mut rng = Pcg32::new(0xB007);
    let medians = sorted(
        (0..RESAMPLES)
            .map(|_| {
                let resample = (0..ratios.len())
                    .map(|_| ratios[rng.below(ratios.len() as u64) as usize])
                    .collect();
                median(&sorted(resample))
            })
            .collect(),
    );
    let upper = medians[(RESAMPLES as f64 * 0.975) as usize];
    (median(&sorted(ratios.to_vec())), upper)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let mut suite = BenchSuite::new("sim");

    /// Head-sampling rate of the always-on configuration.
    const SAMPLE_RATE: u32 = 64;
    let configs = [
        ("base", false, 1),
        ("off", false, 1),
        ("on", true, 1),
        ("sampled", true, SAMPLE_RATE),
    ];
    let mut fingerprints: Vec<Option<(u64, u64, u64)>> = vec![None; configs.len()];
    let mut full_trace: Option<TraceLog> = None;
    let mut sampled_spans = 0usize;
    // times[c][r]: configuration c's fastest pass in round r, wall ns.
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); configs.len()];
    let mut order_rng = Pcg32::new(7);
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let mut best = [f64::INFINITY; 4];
        for _ in 0..PASSES {
            // A fresh order every pass. Rotation alone keeps the cyclic
            // order, so `sampled` would always run straight after the
            // allocation-heavy `on` run and inherit its heap state.
            let mut order = [0, 1, 2, 3];
            order_rng.shuffle(&mut order);
            for c in order {
                let (_, traced, rate) = configs[c];
                let (mut cluster, report) = build(traced, rate);
                let t = Instant::now();
                cluster.sim.run_until(SimTime::from_secs(30));
                best[c] = best[c].min(t.elapsed().as_nanos() as f64);
                let r = report.borrow();
                assert_eq!(r.responses, REQUESTS, "every request must be answered");
                fingerprints[c] = Some((
                    cluster.sim.events_dispatched(),
                    r.responses,
                    r.bytes_received,
                ));
                if traced && rate == 1 {
                    full_trace = Some(cluster.trace().expect("tracing enabled"));
                } else if traced {
                    sampled_spans = cluster.trace().expect("tracing enabled").len();
                }
            }
        }
        if round >= WARMUP_ROUNDS {
            for (c, ns) in best.into_iter().enumerate() {
                times[c].push(ns);
            }
        }
    }
    let fingerprints: Vec<_> = fingerprints.into_iter().flatten().collect();
    // Tracing — on, off, or sampled — must observe the run, not
    // perturb it: all four configurations executed the bit-identical
    // simulation (the sampling decision never touches component RNGs).
    assert!(
        fingerprints.iter().all(|f| *f == fingerprints[0]),
        "enabling tracing changed the simulation: {fingerprints:?}"
    );
    let full_trace = full_trace.expect("the traced run ran");
    let spans_recorded = full_trace.len();
    assert!(
        spans_recorded > REQUESTS as usize,
        "the traced run should record more than one span per request"
    );
    assert!(
        sampled_spans > 0 && sampled_spans < spans_recorded / 4,
        "1-in-{SAMPLE_RATE} sampling must keep a small non-empty slice: \
         {sampled_spans} of {spans_recorded} spans"
    );

    for ((tag, _, _), samples) in configs.iter().zip(&times) {
        suite.record(&format!("request_path/{tag}"), samples);
    }
    // Per-round ratios against the same round's base run, so drift in
    // host speed across the run cancels.
    let ratios =
        |c: usize| -> Vec<f64> { times[c].iter().zip(&times[0]).map(|(t, b)| t / b).collect() };
    let (off, off_hi) = median_with_upper(&ratios(1));
    let (on, on_hi) = median_with_upper(&ratios(2));
    let (sampled, sampled_hi) = median_with_upper(&ratios(3));
    let pct = |r: f64| (r - 1.0) * 100.0;
    println!(
        "-- median per-round cost vs base [95% upper]: disabled A/A {:+.2}% [{:+.2}%]   \
         enabled {:+.2}% [{:+.2}%]   sampled-out {:+.2}% [{:+.2}%]   \
         ({ROUNDS} rounds; {spans_recorded} spans/run on, {sampled_spans} at 1/{SAMPLE_RATE})",
        pct(off),
        pct(off_hi),
        pct(on),
        pct(on_hi),
        pct(sampled),
        pct(sampled_hi),
    );
    assert!(
        off_hi <= BOUND,
        "disabled tracing path regressed the request profile by more than 2%: \
         median off/base {off:.4}, 95% upper {off_hi:.4}"
    );
    assert!(
        sampled_hi <= BOUND,
        "enabled-but-sampled-out tracing costs more than 2% over disabled: \
         median sampled/base {sampled:.4}, 95% upper {sampled_hi:.4}"
    );

    // Span-derived SLO summary rows from the fully traced run: request
    // and per-service percentiles plus the depth-1 breakdown, in the
    // same trajectory format as the bench rows.
    let mut slo = SloAggregator::new(1);
    slo.ingest(&full_trace);
    assert_eq!(
        slo.sampled_requests(),
        REQUESTS,
        "rate-1 SLO closure: every answered request has a request span"
    );

    // One append: a second call would treat the first call's fresh
    // rows as stale and drop them.
    append_rows(
        &out,
        &format!("{}\n{}", suite.to_json(), slo.to_json_rows("sim")),
    );
    println!(
        "appended {} bench + {} slo rows to {out}",
        suite.rows().len(),
        slo.rows().len()
    );
}

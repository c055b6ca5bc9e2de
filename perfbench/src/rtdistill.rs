//! `rt_distill`: real GIF and HTML distiller threads on the `sns-rt`
//! backend, open-loop load from one submitter thread and one collector
//! thread, at a fixed low rate, a fixed high rate and up a rate ladder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::{payload_as, JobResult, Payload};
use sns_distillers::{GifDistiller, HtmlMunger};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::Pcg32;
use sns_tacc::{ContentObject, TaccWorkerHost};
use sns_workload::{MimeType, SizeModel};

use crate::spans::Spans;
use crate::{host, layers, stats, Outcome, Params};

const GIF_WORKERS: usize = 2;
const HTML_WORKERS: usize = 2;
/// Distinct input objects, drawn 3:1 GIF:HTML.
const POOL: usize = 16_384;
/// Smallest GIF fed in, so distilled output is always smaller.
const MIN_GIF: u64 = 2_048;
const LARGEST_HTML: u64 = 16_384;
/// Fixed offered rates (jobs/s) of the `low` and `high` phases.
const LOW_RATE: f64 = 1_000.0;
const HIGH_RATE: f64 = 10_000.0;
/// The latency limit: a ladder rung passes while its p90 stays within
/// it and the backlog left at the rung's end drains within 4x it.
const SLO_P90_US: f64 = 500.0;
const LADDER_START: f64 = 16_000.0;
const LADDER_STEP: f64 = 1.25;
const MAX_RUNGS: u32 = 10;
/// Rounds per run, each on a fresh cluster. Thread placement differs
/// from one cluster to the next and moves latency between two modes, and
/// the host stalls now and then, so each figure is the mean of the middle
/// half of many short rounds.
const ROUNDS: u64 = 8;
/// Shares of `--seconds` spent in each fixed phase and in one rung,
/// per round.
const LOW_SHARE: f64 = 0.025;
const HIGH_SHARE: f64 = 0.03;
const RUNG_SHARE: f64 = 0.012;
/// Outstanding jobs at which a phase stops offering load: the backlog
/// is growing, so the rate is past what the cluster sustains.
const BACKLOG_CAP: u64 = 1_000;
/// How long the collector waits for a reply before counting it lost.
const GIVE_UP: Duration = Duration::from_secs(5);

/// One input object; `payload` is what is submitted.
struct Input {
    url: String,
    mime: MimeType,
    len: u64,
    payload: Payload,
}

fn make_pool(seed: u64) -> Vec<Input> {
    let sizes = SizeModel::default();
    let mut rng = Pcg32::new(seed ^ 0x706f_6f6c);
    (0..POOL)
        .map(|i| {
            let gif = rng.below(4) < 3;
            let (mime, len, obj) = if gif {
                let len = sizes.sample(MimeType::Gif, &mut rng).max(MIN_GIF);
                let url = format!("http://origin/rt{i}.gif");
                (
                    MimeType::Gif,
                    len,
                    ContentObject::synthetic(url, MimeType::Gif, len),
                )
            } else {
                let size = sizes.sample(MimeType::Html, &mut rng).min(LARGEST_HTML);
                let url = format!("http://origin/rt{i}.html");
                let page = layers::html_page(&url, size);
                (
                    MimeType::Html,
                    page.len() as u64,
                    ContentObject::text(url, MimeType::Html, page),
                )
            };
            Input {
                url: obj.url.clone(),
                mime,
                len,
                payload: obj.into_payload(),
            }
        })
        .collect()
}

fn start_cluster(seed: u64) -> Arc<RtCluster> {
    let c = RtCluster::start(RtConfig::new().with_time_scale(0.0).with_seed(seed));
    c.add_workers("distiller/gif", GIF_WORKERS, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(GifDistiller::new()),
            BTreeMap::new(),
        ))
    });
    c.add_workers("distiller/html", HTML_WORKERS, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(HtmlMunger::new()),
            BTreeMap::new(),
        ))
    });
    c
}

/// A submitted job the collector still waits for.
struct Sent {
    due: Instant,
    returned: Instant,
    input: usize,
    rx: Receiver<JobResult>,
}

/// What one phase measured; times in ns.
#[derive(Default)]
struct Phase {
    jobs: u64,
    latency: Vec<u64>,
    reply: Vec<u64>,
    submit: Vec<u64>,
    late: Vec<u64>,
    bad: u64,
    first_bad: Option<String>,
    lost: u64,
    drain_ns: u64,
    /// Load was cut short by a backlog of `BACKLOG_CAP` jobs.
    overloaded: bool,
}

impl Phase {
    /// Latency quantile in µs; `latency` is sorted when the phase ends.
    fn p_us(&self, q: f64) -> f64 {
        stats::quantile_sorted(&self.latency, q, 1e3)
    }
}

/// Checks one reply against its input.
fn check(input: &Input, res: &JobResult) -> Result<(), String> {
    let JobResult::Ok(p) = res else {
        return Err(format!("job on {} failed: {res:?}", input.url));
    };
    let out = payload_as::<ContentObject>(p)
        .ok_or_else(|| format!("{}: reply is not content", input.url))?;
    match input.mime {
        MimeType::Gif if out.len() >= input.len => Err(format!(
            "{}: GIF output {} not smaller than input {}",
            input.url,
            out.len(),
            input.len
        )),
        MimeType::Html if out.is_empty() => Err(format!("{}: empty HTML output", input.url)),
        _ => Ok(()),
    }
}

/// Polls every outstanding reply, so a job that finishes early is never
/// charged for a slower one queued ahead of it.
fn collect(
    rx: Receiver<Sent>,
    pool: &[Input],
    answered: &AtomicU64,
    mut spans: Spans,
) -> (Phase, Spans) {
    let mut ph = Phase::default();
    let mut pending: Vec<Sent> = Vec::new();
    let mut open = true;
    let mut last_progress = Instant::now();
    let mut last_reply = Instant::now();
    let mut submit_end = None;
    loop {
        while open {
            match rx.try_recv() {
                Ok(s) => pending.push(s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    submit_end = Some(Instant::now());
                }
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].rx.try_recv() {
                Ok(res) => {
                    let now = Instant::now();
                    let s = pending.swap_remove(i);
                    ph.latency.push((now - s.due).as_nanos() as u64);
                    ph.reply.push((now - s.returned).as_nanos() as u64);
                    spans.record("rt.reply", s.returned, now);
                    if let Err(why) = check(&pool[s.input], &res) {
                        ph.bad += 1;
                        ph.first_bad.get_or_insert(why);
                    }
                    last_reply = now;
                    progressed = true;
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    pending.swap_remove(i);
                    ph.lost += 1;
                }
            }
        }
        if !open && pending.is_empty() {
            break;
        }
        if progressed {
            last_progress = Instant::now();
        } else {
            if !open && last_progress.elapsed() > GIVE_UP {
                ph.lost += pending.len() as u64;
                break;
            }
            std::thread::yield_now();
        }
    }
    if let Some(end) = submit_end {
        ph.drain_ns = last_reply.saturating_duration_since(end).as_nanos() as u64;
    }
    (ph, spans)
}

/// Waits for `due` by yielding, never sleeping: with the collector also
/// polling, both cores stay busy, so a worker's wake-up costs a thread
/// switch and never an idle CPU's exit latency.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::thread::yield_now();
    }
}

/// Offers Poisson arrivals at `rate` for `dur`, open loop, and collects
/// every reply. Latency runs from each job's due time.
fn run_phase(
    cluster: &RtCluster,
    pool: &[Input],
    rate: f64,
    dur: Duration,
    seed: u64,
    spans: &mut Spans,
) -> Phase {
    let mut rng = Pcg32::new(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate);
        if t >= dur.as_secs_f64() {
            break;
        }
        schedule.push((
            Duration::from_secs_f64(t),
            rng.below(pool.len() as u64) as usize,
        ));
    }
    let mut submit = Vec::with_capacity(schedule.len());
    let mut late = Vec::with_capacity(schedule.len());
    let (tx, rx) = mpsc::channel::<Sent>();
    let collector_spans = spans.fork(1 << 30);
    let answered = AtomicU64::new(0);
    let mut sent = 0u64;
    let (mut ph, collector_spans) = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(rx, pool, &answered, collector_spans));
        let start = Instant::now() + Duration::from_millis(2);
        for &(offset, input) in &schedule {
            if sent - answered.load(Ordering::Relaxed) >= BACKLOG_CAP {
                break;
            }
            sent += 1;
            let due = start + offset;
            let t0 = wait_until(due);
            let class = match pool[input].mime {
                MimeType::Gif => "distiller/gif",
                _ => "distiller/html",
            };
            let reply = cluster.submit(class, "transform", Arc::clone(&pool[input].payload), None);
            let t1 = Instant::now();
            spans.record("rt.submit", t0, t1);
            late.push((t0 - due).as_nanos() as u64);
            submit.push((t1 - t0).as_nanos() as u64);
            let job = Sent {
                due,
                returned: t1,
                input,
                rx: reply,
            };
            tx.send(job)
                .expect("collector runs until the sender is dropped");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    spans.absorb(collector_spans);
    ph.latency.sort_unstable();
    ph.jobs = sent;
    ph.overloaded = sent < schedule.len() as u64;
    ph.submit = submit;
    ph.late = late;
    ph
}

/// Generates the inputs and starts a cluster; returns both and the CPU
/// seconds this thread spent on it.
fn setup(seed: u64, spans: &mut Spans) -> (Arc<RtCluster>, Vec<Input>, f64) {
    let t0 = host::ThreadClock::start();
    spans.enter("setup");
    let pool = spans.time("workload.inputs", || make_pool(seed));
    let cluster = spans.time("rt.start", || start_cluster(seed));
    spans.exit();
    (cluster, pool, t0.elapsed_s())
}

/// One round: a fresh cluster, the two fixed rates, then the ladder.
struct Round {
    setup_s: f64,
    low: Phase,
    high: Phase,
    rungs: Vec<(f64, Phase)>,
    max_rate: f64,
    /// Dispatch counters of the round's cluster, read before shutdown.
    counters: [f64; 5],
}

const COUNTERS: [&str; 4] = [
    "stub.dispatches",
    "stub.timeouts",
    "manager.load_reports",
    "manager.spawns",
];

fn round(p: &Params, k: u64, spans: &mut Spans) -> Round {
    let secs = |share: f64| Duration::from_secs_f64(p.seconds * share);
    let (cluster, pool, setup_s) = setup(p.seed, spans);
    let salt = p.seed ^ (k << 32);
    let low = run_phase(&cluster, &pool, LOW_RATE, secs(LOW_SHARE), salt ^ 1, spans);
    let high = run_phase(
        &cluster,
        &pool,
        HIGH_RATE,
        secs(HIGH_SHARE),
        salt ^ 2,
        spans,
    );

    // Climb until a rung misses the limit; the highest passing rate is
    // refined by log-rate interpolation to where p90 crosses the limit.
    let high_p90 = high.p_us(0.90);
    let mut passed = if high_p90 <= SLO_P90_US {
        (HIGH_RATE, high_p90)
    } else {
        (LOW_RATE, low.p_us(0.90))
    };
    let mut max_rate = passed.0 * (SLO_P90_US / passed.1).min(1.0);
    let mut rungs = Vec::new();
    let mut rate = LADDER_START;
    'ladder: for r in 0..MAX_RUNGS {
        // A rung passes if either of two attempts meets the limit, so one
        // stall of the host does not end the ladder.
        let mut best_p90 = f64::MAX;
        for attempt in 0..2 {
            let seed = salt ^ (16 + 2 * u64::from(r) + attempt);
            let ph = run_phase(&cluster, &pool, rate, secs(RUNG_SHARE), seed, spans);
            let p90 = ph.p_us(0.90);
            let drained = ph.drain_ns as f64 <= 4.0 * SLO_P90_US * 1e3;
            let ok = p90 <= SLO_P90_US && drained && !ph.overloaded && ph.bad == 0 && ph.lost == 0;
            rungs.push((rate, ph));
            if ok {
                max_rate = rate;
                passed = (rate, p90);
                rate *= LADDER_STEP;
                continue 'ladder;
            }
            best_p90 = best_p90.min(p90);
        }
        if best_p90 > SLO_P90_US {
            let (r0, p0) = passed;
            let f = ((SLO_P90_US - p0) / (best_p90 - p0)).clamp(0.0, 1.0);
            max_rate = r0 * (rate / r0).powf(f);
        }
        break;
    }
    let mut counters = [0.0; 5];
    for (c, name) in counters.iter_mut().zip(COUNTERS) {
        *c = cluster.counter(name) as f64;
    }
    counters[4] = cluster.jobs_done.load(Ordering::Relaxed) as f64;
    cluster.shutdown();
    Round {
        setup_s,
        low,
        high,
        rungs,
        max_rate,
        counters,
    }
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(p.trace, p.epoch);
    let mut off = Spans::new(false, p.epoch);
    let mut rounds: Vec<Round> = (0..ROUNDS).map(|k| round(p, k, &mut off)).collect();

    for (k, r) in rounds.iter().enumerate() {
        let phases = [("low", &r.low), ("high", &r.high)]
            .into_iter()
            .chain(r.rungs.iter().map(|(_, ph)| ("rung", ph)));
        for (name, ph) in phases {
            out.attempted += ph.jobs;
            out.failed += ph.bad + ph.lost;
            out.gate(ph.bad == 0, || {
                format!(
                    "round {k} {name}: {} bad replies, first: {:?}",
                    ph.bad, ph.first_bad
                )
            });
            out.gate(ph.lost == 0, || {
                format!("round {k} {name}: {} replies never came", ph.lost)
            });
            let answered = ph.latency.len() as u64;
            out.gate(answered + ph.lost == ph.jobs, || {
                format!("round {k} {name}: {answered} replies for {} jobs", ph.jobs)
            });
        }
    }

    let mean = |f: fn(&Round) -> f64| stats::iq_mean(&rounds.iter().map(f).collect::<Vec<_>>());
    let low_p50 = mean(|r| r.low.p_us(0.50));
    let low_p90 = mean(|r| r.low.p_us(0.90));
    let high_p50 = mean(|r| r.high.p_us(0.50));
    let high_p90 = mean(|r| r.high.p_us(0.90));
    let high_p99 = mean(|r| r.high.p_us(0.99));
    let max_rate = mean(|r| r.max_rate);
    let setup_s = stats::median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    for (k, v) in [
        ("req_per_s", max_rate),
        ("latency_p50_ms", high_p50 / 1e3),
        ("latency_tail_ms", high_p90 / 1e3),
        ("setup_s", setup_s),
    ] {
        out.e2e.insert(k, v);
    }
    for (k, r) in rounds.iter().enumerate() {
        let rungs: Vec<String> = r
            .rungs
            .iter()
            .map(|(rate, ph)| format!("{:.0}k:{:.0}", *rate / 1e3, ph.p_us(0.90)))
            .collect();
        out.named(
            format!("round{k}.ladder_p90_us {}", rungs.join(" ")),
            r.max_rate,
            "1/s",
        );
    }
    out.named("rt_p50_us.low", low_p50, "us");
    out.named("rt_p90_us.low", low_p90, "us");
    out.named("rt_p50_us.high", high_p50, "us");
    out.named("rt_p90_us.high", high_p90, "us");
    out.named("rt_p99_us.high", high_p99, "us");
    out.named("rt_max_rate_slo", max_rate, "1/s");
    out.named("setup_s", setup_s, "s");

    if p.trace {
        out.layers.insert("rt.low_p50_us", low_p50);
        out.layers.insert("rt.low_p90_us", low_p90);
        trace_layers(p, &mut out, &mut rounds[0], high_p50, &mut spans);
        out.spans = Some(spans);
    }
    out
}

fn trace_layers(p: &Params, out: &mut Outcome, r: &mut Round, high_p50: f64, spans: &mut Spans) {
    let jobs: f64 = [&r.low, &r.high]
        .into_iter()
        .chain(r.rungs.iter().map(|(_, ph)| ph))
        .map(|ph| ph.jobs as f64)
        .sum();
    let [dispatches, timeouts, reports, spawns, done] = r.counters;
    let high = &mut r.high;
    let l = &mut out.layers;
    l.insert(
        "rt.submit_ns_p50",
        stats::quantile(&mut high.submit, 0.50, 1.0),
    );
    l.insert(
        "rt.submit_ns_p99",
        stats::quantile(&mut high.submit, 0.99, 1.0),
    );
    l.insert(
        "rt.reply_us_p50",
        stats::quantile(&mut high.reply, 0.50, 1e3),
    );
    l.insert(
        "rt.gen_late_us_p99",
        stats::quantile(&mut high.late, 0.99, 1e3),
    );
    l.insert(
        "rt.gen_late_us_max",
        stats::quantile(&mut high.late, 1.0, 1e3),
    );
    l.insert("dispatch.jobs_per_req", dispatches / jobs);
    l.insert("dispatch.timeouts", timeouts);
    l.insert("control.reports_per_req", reports / jobs);
    l.insert("control.spawns", spawns);
    l.insert("tacc.jobs_per_req", done / jobs);
    l.insert("distill.per_req", done / jobs);
    let pool = make_pool(p.seed);
    let objects: Vec<(&str, MimeType, u64)> = pool
        .iter()
        .map(|i| (i.url.as_str(), i.mime, i.len))
        .collect();
    let t = spans.time("layer.distill", || layers::transform_ns(&objects, p.seed));
    l.insert("distill.transform_ns.gif", t.gif);
    l.insert("distill.transform_ns.html", t.html);

    // The high rate again, with a span around every submit and every
    // reply; the p50 it adds is the tracing overhead.
    spans.enter("rt.traced_high");
    let (cluster, pool, _) = setup(p.seed, spans);
    let dur = Duration::from_secs_f64(p.seconds * HIGH_SHARE);
    let traced = run_phase(&cluster, &pool, HIGH_RATE, dur, p.seed ^ 2, spans);
    cluster.shutdown();
    spans.exit();
    let traced_p50 = traced.p_us(0.50);
    l.insert("trace.overhead_share", (traced_p50 - high_p50) / high_p50);
}

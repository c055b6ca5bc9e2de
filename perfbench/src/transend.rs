//! `transend_trace`: TranSend on the simulator under the bursty Figure 6
//! trace, open loop, with a small share of preference writes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::{ClientRequest, SnsMsg};
use sns_san::SanConfig;
use sns_sim::{Component, ComponentId, Ctx, Pcg32, SimTime, TraceLog};
use sns_tacc::FetchRequest;
use sns_transend::{PrefUpdate, TranSendBuilder};
use sns_workload::{ArrivalProcess, MimeType, Playback, Schedule, TraceGenerator, WorkloadConfig};

use crate::spans::Spans;
use crate::{host, layers, reps, stats, Outcome, Params};

/// Hours of the Figure 6 day that are replayed.
const TRACE_HOURS: u64 = 4;
/// Replay speed-up; the burst peaks then exceed what one distiller per
/// class can absorb, so the manager spawns more.
const ACCEL: f64 = 8.0;
/// Origin miss penalty relative to the paper's distribution; at 1.0 the
/// slowest fetches outlive the dispatch timeout and fail.
const ORIGIN_PENALTY_SCALE: f64 = 0.1;
/// Share of requests that are `PrefUpdate` writes.
const WRITE_SHARE: f64 = 0.02;
/// Cluster warm-up before the first request is due.
const START_DELAY: Duration = Duration::from_secs(4);
/// Virtual time allowed after the last request for replies to drain.
const DRAIN: Duration = Duration::from_secs(120);
/// Virtual time per `run_until` call.
const SLICE: Duration = Duration::from_secs(10);
/// Head-sampling rate of the program-traced run behind `vt.share.*`.
const VT_SAMPLING: u32 = 16;

/// One request of the replay.
pub struct Item {
    /// Send offset from the end of warm-up.
    pub at: Duration,
    pub user: u32,
    pub url: String,
    pub mime: MimeType,
    pub size: u64,
    /// Settings of a preference write; `None` for a read.
    pub write: Option<Vec<(String, String)>>,
}

/// Builds the replay: the bursty trace, accelerated, with a seeded 2%
/// of requests turned into preference writes by the same user.
pub fn generate(seed: u64) -> Vec<Item> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed,
        ..Default::default()
    });
    let process = ArrivalProcess::paper_default(seed);
    let trace = gen.bursty(&process, Duration::from_secs(TRACE_HOURS * 3600));
    let mut rng = Pcg32::new(seed ^ 0x7772_6974_6573);
    Playback::new(&trace, Schedule::Accelerated(ACCEL))
        .map(|(at, r)| {
            let write = rng.chance(WRITE_SHARE).then(|| {
                vec![
                    ("quality".to_string(), (10 + rng.below(60)).to_string()),
                    ("scale".to_string(), (1 + rng.below(4)).to_string()),
                ]
            });
            Item {
                at,
                user: r.user,
                url: r.url.clone(),
                mime: r.mime,
                size: r.size,
                write,
            }
        })
        .collect()
}

/// Every latency the client saw, by request index (`u64::MAX` while
/// unanswered), plus outcome counts.
#[derive(Default)]
struct Ledger {
    sent_at: Vec<u64>,
    latency: Vec<u64>,
    responses: u64,
    errors: u64,
    degraded: u64,
    duplicates: u64,
}

/// Open-loop playback client that records every latency exactly and
/// sends reads and writes together.
struct Client {
    fes: Vec<ComponentId>,
    items: Rc<[Item]>,
    next: usize,
    next_fe: usize,
    ledger: Rc<RefCell<Ledger>>,
}

impl Client {
    const SEND: u64 = 1;

    fn due(&self, i: usize) -> SimTime {
        SimTime::ZERO + START_DELAY + self.items[i].at
    }

    fn arm(&self, ctx: &mut Ctx<'_, SnsMsg>) {
        if self.next < self.items.len() {
            let due = self.due(self.next);
            ctx.timer(due.since(ctx.now()), Self::SEND);
        }
    }
}

impl Component<SnsMsg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        let SnsMsg::Response(resp) = msg else {
            return;
        };
        let mut l = self.ledger.borrow_mut();
        let i = (resp.id - 1) as usize;
        if l.latency[i] != u64::MAX {
            l.duplicates += 1;
            return;
        }
        l.latency[i] = ctx.now().as_nanos() - l.sent_at[i];
        l.responses += 1;
        l.degraded += u64::from(resp.degraded);
        l.errors += u64::from(resp.result.is_err());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token != Self::SEND {
            return;
        }
        while self.next < self.items.len() && self.due(self.next) <= ctx.now() {
            let i = self.next;
            self.next += 1;
            let item = &self.items[i];
            let body: sns_core::Payload = match &item.write {
                Some(settings) => Arc::new(PrefUpdate {
                    settings: settings.clone(),
                }),
                None => Arc::new(FetchRequest {
                    url: item.url.clone(),
                    mime: item.mime,
                    size: item.size,
                }),
            };
            let fe = self.fes[self.next_fe % self.fes.len()];
            self.next_fe += 1;
            self.ledger.borrow_mut().sent_at[i] = ctx.now().as_nanos();
            ctx.send(
                fe,
                SnsMsg::Request(Arc::new(ClientRequest {
                    id: i as u64 + 1,
                    user: format!("u{}", item.user),
                    url: item.url.clone(),
                    body: Some(body),
                })),
            );
        }
        self.arm(ctx);
    }

    fn kind(&self) -> &'static str {
        "client"
    }
}

/// Counters read from the cluster after a repetition, by name.
const COUNTERS: &[&str] = &[
    "ts.requests",
    "ts.cache_hit_final",
    "ts.cache_hit_orig",
    "ts.cache_miss",
    "ts.distilled",
    "ts.profile_cache_hits",
    "ts.pref_updates",
    "ts.errors",
    "stub.dispatches",
    "stub.timeouts",
    "manager.load_reports",
    "manager.spawns",
    "worker.jobs_done",
];

/// Everything that must repeat exactly for one seed.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Fingerprint {
    events: u64,
    san_delivered: u64,
    san_bytes: u64,
    san_drops: u64,
    responses: u64,
    errors: u64,
    degraded: u64,
    latency_sum_ns: u64,
    counters: Vec<u64>,
}

struct Rep {
    requests: u64,
    setup_s: f64,
    gen_ns: f64,
    run_s: f64,
    allocs: u64,
    fp: Fingerprint,
    items: Rc<[Item]>,
    latency: Vec<u64>,
    duplicates: u64,
    trace: Option<TraceLog>,
}

impl Rep {
    fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.fp.counters[i] as f64
    }
}

/// One repetition; per-request latencies and the inputs are kept only
/// with `detail`.
fn one_rep(seed: u64, spans: &mut Spans, program_tracing: bool, detail: bool) -> Rep {
    spans.enter("rep");
    let t0 = host::ThreadClock::start();
    spans.enter("setup");
    let g0 = Instant::now();
    let items: Rc<[Item]> = spans.time("workload.generate", || generate(seed)).into();
    let gen_ns = g0.elapsed().as_nanos() as f64;
    let mut cluster = spans.time("transend.build", || {
        let b = TranSendBuilder::new()
            .with_seed(seed)
            .with_origin_penalty_scale(ORIGIN_PENALTY_SCALE);
        if program_tracing {
            b.with_tracing(true).with_trace_sampling(VT_SAMPLING)
        } else {
            b
        }
        .build()
    });
    let ledger = Rc::new(RefCell::new(Ledger {
        sent_at: vec![0; items.len()],
        latency: vec![u64::MAX; items.len()],
        ..Ledger::default()
    }));
    let client = Client {
        fes: cluster.fes.clone(),
        items: Rc::clone(&items),
        next: 0,
        next_fe: 0,
        ledger: Rc::clone(&ledger),
    };
    cluster
        .sim
        .spawn(cluster.client_node, Box::new(client), "client");
    spans.exit();
    let setup_s = t0.elapsed_s();

    // Run in slices until every request is answered (or the drain
    // allowance after the last send runs out).
    let last = SimTime::ZERO + START_DELAY + items.last().map_or(Duration::ZERO, |i| i.at);
    let horizon = last + DRAIN;
    let mut allocs = 0;
    let r0 = host::ThreadClock::start();
    let mut t = SimTime::ZERO;
    spans.enter("run");
    while t < horizon {
        t = (t + SLICE).min(horizon);
        // Allocations are counted inside the engine call only, so span
        // bookkeeping never enters the count.
        spans.time("sim.run_until", || {
            let a0 = host::allocations();
            cluster.sim.run_until(t);
            allocs += host::allocations() - a0;
        });
        if t >= last && ledger.borrow().responses == items.len() as u64 {
            break;
        }
    }
    spans.exit();
    let run_s = r0.elapsed_s();
    spans.exit();

    let stats = cluster.sim.stats();
    let san = cluster.sim.net().stats();
    let l = ledger.borrow();
    let latency_sum_ns = l
        .latency
        .iter()
        .filter(|&&x| x != u64::MAX)
        .fold(0u64, |a, &x| a.wrapping_add(x));
    Rep {
        requests: items.len() as u64,
        setup_s,
        gen_ns,
        run_s,
        allocs,
        fp: Fingerprint {
            events: cluster.sim.events_dispatched(),
            san_delivered: san.delivered,
            san_bytes: san.bytes_carried,
            san_drops: san.datagrams_dropped + san.partition_drops + san.blackout_drops,
            responses: l.responses,
            errors: l.errors,
            degraded: l.degraded,
            latency_sum_ns,
            counters: COUNTERS.iter().map(|c| stats.counter(c)).collect(),
        },
        latency: if detail {
            l.latency.clone()
        } else {
            Vec::new()
        },
        duplicates: l.duplicates,
        items: if detail { items } else { Rc::from(Vec::new()) },
        trace: cluster.trace(),
    }
}

/// p50 and p99 (ms) of the answered requests among `pick`.
fn latency_ms(latency: &[u64], pick: impl Fn(usize) -> bool) -> (f64, f64) {
    let mut v: Vec<u64> = latency
        .iter()
        .enumerate()
        .filter(|&(i, &x)| x != u64::MAX && pick(i))
        .map(|(_, &x)| x)
        .collect();
    (
        stats::quantile(&mut v, 0.50, 1e6),
        stats::quantile(&mut v, 0.99, 1e6),
    )
}

/// Which requests were sent in light-load seconds: seconds whose
/// arrival count is at or below the median count of the replay.
fn light_mask(items: &[Item]) -> Vec<bool> {
    let second = |i: &Item| i.at.as_secs() as usize;
    let n = items.last().map_or(0, second) + 1;
    let mut counts = vec![0u64; n];
    for i in items {
        counts[second(i)] += 1;
    }
    let threshold = stats::quantile(&mut counts.clone(), 0.5, 1.0) as u64;
    items
        .iter()
        .map(|i| counts[second(i)] <= threshold)
        .collect()
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(p.trace, p.epoch);
    let (warm, reps) = reps::repeat(p, &mut spans, |rec, detail| {
        one_rep(p.seed, rec, false, detail)
    });

    // Correctness and determinism gates.
    for (k, r) in std::iter::once(&warm).chain(&reps).enumerate() {
        let n = r.requests;
        out.attempted += n;
        out.failed += (n - r.fp.responses) + r.fp.errors;
        out.gate(r.fp.responses == n, || {
            format!("rep {k}: {} of {n} requests answered", r.fp.responses)
        });
        out.gate(r.fp.errors == 0, || {
            format!("rep {k}: {} errors", r.fp.errors)
        });
        out.gate(r.duplicates == 0, || format!("rep {k}: duplicate replies"));
        out.gate(r.fp == warm.fp, || {
            format!(
                "rep {k} is not identical to rep 0: {:?} vs {:?}",
                r.fp, warm.fp
            )
        });
    }
    let allocs: Vec<u64> = reps.iter().map(|r| r.allocs).collect();
    reps::gate_same_allocs(&mut out, &allocs);

    let r0 = &reps[0];
    let requests = r0.items.len() as f64;
    let req_per_s = stats::median(
        &reps
            .iter()
            .map(|r| r.fp.responses as f64 / r.run_s)
            .collect::<Vec<_>>(),
    );
    let setup_s = stats::median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let (p50, p99) = latency_ms(&r0.latency, |_| true);
    let light = light_mask(&r0.items);
    let (lp50, lp99) = latency_ms(&r0.latency, |i| light[i]);
    for (k, v) in [
        ("req_per_s", req_per_s),
        ("latency_p50_ms", p50),
        ("latency_tail_ms", p99),
        ("setup_s", setup_s),
    ] {
        out.e2e.insert(k, v);
    }
    out.named("requests_per_rep", requests, "count");
    out.named("measured_reps", reps.len() as f64, "count");
    out.named("sim_req_per_s", req_per_s, "1/s");
    out.named("sim_latency_p50_ms", p50, "ms");
    out.named("sim_latency_p99_ms", p99, "ms");
    out.named("light_sim_latency_p50_ms", lp50, "ms");
    out.named("light_sim_latency_p99_ms", lp99, "ms");
    out.named("setup_s", setup_s, "s");

    if p.trace {
        trace_layers(p, &mut out, &reps, &mut spans);
        out.spans = Some(spans);
    }
    out
}

/// Per-layer metrics of a traced run.
fn trace_layers(p: &Params, out: &mut Outcome, reps: &[Rep], spans: &mut Spans) {
    let r = &reps[0];
    let req = r.items.len() as f64;
    let events = r.fp.events as f64;
    let host_ns_per_event = stats::median(
        &reps
            .iter()
            .map(|r| r.run_s * 1e9 / events)
            .collect::<Vec<_>>(),
    );
    let hits = r.counter("ts.cache_hit_final") + r.counter("ts.cache_hit_orig");
    let lookups = hits + r.counter("ts.cache_miss");
    let writes = r.items.iter().filter(|i| i.write.is_some()).count() as f64;
    let gen_ns = stats::median(&reps.iter().map(|r| r.gen_ns).collect::<Vec<_>>());
    let overhead = reps::tracing_overhead(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());

    let sizes: Vec<(u64, u64)> = r
        .items
        .iter()
        .map(|i| ((START_DELAY + i.at).as_nanos() as u64, i.size))
        .collect();
    // The default topology's nodes: 8 dedicated, 2 overflow, infra,
    // front end, client and origin.
    let san_ns = spans.time("layer.san_unicast", || {
        layers::san_unicast_ns(SanConfig::switched_100mbps(), 14, &sizes, p.seed)
    });
    let objects: Vec<(&str, MimeType, u64)> = r
        .items
        .iter()
        .filter(|i| i.write.is_none())
        .map(|i| (i.url.as_str(), i.mime, i.size))
        .collect();
    let reads: Vec<(&str, u64)> = objects.iter().map(|&(url, _, size)| (url, size)).collect();
    let cache_ns = spans.time("layer.cache_lookup", || layers::cache_lookup_ns(&reads, 4));
    let distill = spans.time("layer.distill", || layers::transform_ns(&objects, p.seed));
    let write_stream: Vec<(String, &[(String, String)])> = r
        .items
        .iter()
        .filter_map(|i| i.write.as_deref().map(|w| (format!("u{}", i.user), w)))
        .collect();
    let wal_ns = spans.time("layer.wal_commit", || layers::wal_commit_ns(&write_stream));

    // One more repetition with the program's own request tracing on
    // (head-sampled), for the virtual-time breakdown.
    let mut off = Spans::new(false, p.epoch);
    let traced = spans.time("vt.traced_rep", || one_rep(p.seed, &mut off, true, false));
    let shares = layers::vt_shares(
        traced.trace.as_ref().expect("tracing was enabled"),
        VT_SAMPLING,
    );

    let l = &mut out.layers;
    l.insert("sim.events_per_req", events / req);
    l.insert("sim.host_ns_per_event", host_ns_per_event);
    l.insert("sim.allocs_per_req", r.allocs as f64 / req);
    l.insert("san.msgs_per_req", r.fp.san_delivered as f64 / req);
    l.insert("san.bytes_per_req", r.fp.san_bytes as f64 / req);
    l.insert("san.drops", r.fp.san_drops as f64);
    l.insert("san.unicast_ns", san_ns);
    l.insert("dispatch.jobs_per_req", r.counter("stub.dispatches") / req);
    l.insert("dispatch.timeouts", r.counter("stub.timeouts"));
    l.insert(
        "control.reports_per_req",
        r.counter("manager.load_reports") / req,
    );
    l.insert("control.spawns", r.counter("manager.spawns"));
    l.insert("cache.hit_ratio", hits / lookups.max(1.0));
    l.insert("cache.lookup_ns", cache_ns);
    l.insert("distill.per_req", r.counter("ts.distilled") / req);
    l.insert("distill.transform_ns.gif", distill.gif);
    l.insert("distill.transform_ns.jpeg", distill.jpeg);
    l.insert("distill.transform_ns.html", distill.html);
    l.insert(
        "profile.cache_hit_ratio",
        r.counter("ts.profile_cache_hits") / (req - writes).max(1.0),
    );
    l.insert("profile.pref_updates", r.counter("ts.pref_updates"));
    l.insert("wal.commit_ns", wal_ns);
    l.insert("workload.gen_ns_per_req", gen_ns / req);
    l.insert("tacc.jobs_per_req", r.counter("worker.jobs_done") / req);
    for (name, share) in shares {
        l.insert(name, share);
    }
    l.insert("trace.overhead_share", overhead);
}

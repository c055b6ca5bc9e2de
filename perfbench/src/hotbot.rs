//! `hotbot_query`: HotBot on the simulator, 26 partitions, Zipf-ranked
//! queries at constant rates, open loop; every uncached query fans out
//! to all partitions and waits for the slowest.

use std::time::Duration;

use sns_hotbot::{HotBotBuilder, HotBotClient};
use sns_san::SanConfig;
use sns_sim::{Pcg32, SimTime, TraceLog};

use crate::spans::Spans;
use crate::{host, layers, reps, stats, Outcome, Params};

const PARTITIONS: usize = 26;
const DOCS: usize = 5_400;
/// Queries draw their terms from this many most frequent words, so
/// every query has at least one matching document.
const QUERY_VOCAB: usize = 2_000;
/// Main phase: queries and their constant mean rate (queries/s).
const QUERIES: u64 = 3_000;
const RATE: f64 = 40.0;
/// Light phase before it, at a tenth of the rate.
const LIGHT_QUERIES: u64 = 300;
const LIGHT_RATE: f64 = 4.0;
/// Cluster warm-up before the light phase, and the gap between phases.
const START_DELAY: Duration = Duration::from_secs(5);
/// Virtual time per `run_until` call, and the most a run may take.
const SLICE: Duration = Duration::from_secs(5);
const HORIZON: SimTime = SimTime::from_secs(600);
const VT_SAMPLING: u32 = 4;

/// Everything that must repeat exactly for one seed.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint {
    events: u64,
    san_delivered: u64,
    san_bytes: u64,
    san_drops: u64,
    sent: [u64; 2],
    answered: [u64; 2],
    full_coverage: [u64; 2],
    errors: [u64; 2],
    min_results: [u64; 2],
    /// p50 and p99 latency in ns, light then main phase.
    latency_ns: [u64; 4],
    counters: Vec<u64>,
}

const COUNTERS: &[&str] = &[
    "hb.queries",
    "hb.answers",
    "hb.partial_answers",
    "hb.qcache_hits",
    "stub.dispatches",
    "stub.timeouts",
    "manager.load_reports",
    "manager.spawns",
    "worker.jobs_done",
];

struct Rep {
    setup_s: f64,
    run_s: f64,
    allocs: u64,
    fp: Fingerprint,
    vocab: usize,
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
    fn answered(&self) -> u64 {
        self.fp.answered.iter().sum()
    }
}

fn one_rep(seed: u64, spans: &mut Spans, program_tracing: bool) -> Rep {
    spans.enter("rep");
    let t0 = host::ThreadClock::start();
    spans.enter("setup");
    let mut cluster = spans.time("hotbot.build", || {
        let b = HotBotBuilder::new()
            .with_seed(seed)
            .with_partitions(PARTITIONS)
            .with_corpus_docs(DOCS);
        if program_tracing {
            b.with_tracing(true).with_trace_sampling(VT_SAMPLING)
        } else {
            b
        }
        .build()
    });
    // `HotBotCluster::attach_client` ignores the seed, so the clients
    // are made here with seeds derived from the run's.
    let light_span = Duration::from_secs_f64(LIGHT_QUERIES as f64 / LIGHT_RATE);
    let phases = [
        (LIGHT_RATE, LIGHT_QUERIES, START_DELAY, seed ^ 0x11),
        (RATE, QUERIES, START_DELAY * 2 + light_span, seed ^ 0x22),
    ];
    let reports: Vec<_> = phases
        .iter()
        .map(|&(rate, n, delay, s)| {
            let (client, report) =
                HotBotClient::new(cluster.fes.clone(), rate, n, QUERY_VOCAB, s, delay);
            cluster
                .sim
                .spawn(cluster.client_node, Box::new(client), "client");
            report
        })
        .collect();
    spans.exit();
    let setup_s = t0.elapsed_s();

    let mut allocs = 0;
    let r0 = host::ThreadClock::start();
    let mut t = SimTime::ZERO;
    spans.enter("run");
    while t < HORIZON {
        t = (t + SLICE).min(HORIZON);
        spans.time("sim.run_until", || {
            let a0 = host::allocations();
            cluster.sim.run_until(t);
            allocs += host::allocations() - a0;
        });
        let done = reports
            .iter()
            .zip(&phases)
            .all(|(r, ph)| r.borrow().answered == ph.1);
        if done {
            break;
        }
    }
    spans.exit();
    let run_s = r0.elapsed_s();
    spans.exit();

    let stats = cluster.sim.stats();
    let san = cluster.sim.net().stats();
    let mut fp = Fingerprint {
        events: cluster.sim.events_dispatched(),
        san_delivered: san.delivered,
        san_bytes: san.bytes_carried,
        san_drops: san.datagrams_dropped + san.partition_drops + san.blackout_drops,
        sent: [0; 2],
        answered: [0; 2],
        full_coverage: [0; 2],
        errors: [0; 2],
        min_results: [0; 2],
        latency_ns: [0; 4],
        counters: COUNTERS.iter().map(|c| stats.counter(c)).collect(),
    };
    for (k, r) in reports.iter().enumerate() {
        let mut r = r.borrow_mut();
        fp.sent[k] = r.sent;
        fp.answered[k] = r.answered;
        fp.full_coverage[k] = r.full_coverage;
        fp.errors[k] = r.errors;
        fp.min_results[k] = if r.results.count() == 0 {
            0
        } else {
            r.results.min() as u64
        };
        // Each phase stays under the report's exact-sample capacity, so
        // these quantiles are exact.
        fp.latency_ns[2 * k] = (r.latency.quantile(0.50) * 1e9).round() as u64;
        fp.latency_ns[2 * k + 1] = (r.latency.quantile(0.99) * 1e9).round() as u64;
    }
    Rep {
        setup_s,
        run_s,
        allocs,
        fp,
        vocab: cluster.vocab,
        trace: cluster.trace(),
    }
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(p.trace, p.epoch);
    let (warm, reps) = reps::repeat(p, &mut spans, |rec, _| one_rep(p.seed, rec, false));

    for (k, r) in std::iter::once(&warm).chain(&reps).enumerate() {
        let f = &r.fp;
        for ph in 0..2 {
            let n = if ph == 0 { LIGHT_QUERIES } else { QUERIES };
            out.attempted += n;
            out.failed += (n - f.answered[ph]) + f.errors[ph];
            out.gate(f.sent[ph] == n && f.answered[ph] == n, || {
                format!(
                    "rep {k} phase {ph}: {} of {n} queries answered",
                    f.answered[ph]
                )
            });
            out.gate(f.errors[ph] == 0, || {
                format!("rep {k}: {} errors", f.errors[ph])
            });
            out.gate(f.full_coverage[ph] == f.answered[ph], || {
                format!("rep {k} phase {ph}: partial coverage")
            });
            out.gate(f.min_results[ph] >= 1, || {
                format!("rep {k} phase {ph}: an answer had no results")
            });
        }
        out.gate(*f == warm.fp, || {
            format!("rep {k} is not identical to rep 0: {f:?} vs {:?}", warm.fp)
        });
    }
    let allocs: Vec<u64> = reps.iter().map(|r| r.allocs).collect();
    reps::gate_same_allocs(&mut out, &allocs);

    let r0 = &reps[0];
    let req_per_s = stats::median(
        &reps
            .iter()
            .map(|r| r.answered() as f64 / r.run_s)
            .collect::<Vec<_>>(),
    );
    let setup_s = stats::median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let [lp50, lp99, p50, p99] = r0.fp.latency_ns.map(|ns| ns as f64 / 1e6);
    for (k, v) in [
        ("req_per_s", req_per_s),
        ("latency_p50_ms", p50),
        ("latency_tail_ms", p99),
        ("setup_s", setup_s),
    ] {
        out.e2e.insert(k, v);
    }
    out.named("queries_per_rep", r0.answered() as f64, "count");
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

fn trace_layers(p: &Params, out: &mut Outcome, reps: &[Rep], spans: &mut Spans) {
    let r = &reps[0];
    let req = r.answered() as f64;
    let events = r.fp.events as f64;
    let host_ns_per_event = stats::median(
        &reps
            .iter()
            .map(|r| r.run_s * 1e9 / events)
            .collect::<Vec<_>>(),
    );
    let overhead = reps::tracing_overhead(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());

    // Isolated passes. The corpus seed mirrors `HotBotBuilder`'s derivation
    // from the engine seed; the query stream is drawn the way the
    // client draws it, from the run's seed.
    let corpus_seed = p.seed ^ 0xc0de;
    let vocab = r.vocab;
    let mut rng = Pcg32::new(p.seed);
    let queries: Vec<String> = (0..QUERIES)
        .map(|_| layers::make_query(&mut rng, QUERY_VOCAB))
        .collect();
    let query_ns = spans.time("layer.search_query", || {
        layers::search_query_ns(corpus_seed, vocab, DOCS / PARTITIONS, &queries)
    });
    let build_s = spans.time("layer.index_build", || {
        layers::index_build_s(corpus_seed, vocab, DOCS, PARTITIONS)
    });
    // Messages of the run's mean size, spread over its virtual span.
    let mean_bytes = r.fp.san_bytes / r.fp.san_delivered.max(1);
    let msgs: Vec<(u64, u64)> = (0..r.fp.san_delivered.min(200_000))
        .map(|i| (i * 200_000, mean_bytes))
        .collect();
    let nodes = (PARTITIONS + 4) as u32;
    let san_ns = spans.time("layer.san_unicast", || {
        layers::san_unicast_ns(SanConfig::myrinet(), nodes, &msgs, p.seed)
    });

    let mut off = Spans::new(false, p.epoch);
    let traced = spans.time("vt.traced_rep", || one_rep(p.seed, &mut off, true));
    let shares = layers::vt_shares(
        traced.trace.as_ref().expect("tracing was enabled"),
        VT_SAMPLING,
    );

    let full: u64 = r.fp.full_coverage.iter().sum();
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
    l.insert("search.query_ns", query_ns);
    l.insert("search.index_build_s", build_s);
    l.insert("hotbot.full_coverage_share", full as f64 / req);
    l.insert("tacc.jobs_per_req", r.counter("worker.jobs_done") / req);
    for (name, share) in shares {
        l.insert(name, share);
    }
    l.insert("trace.overhead_share", overhead);
}

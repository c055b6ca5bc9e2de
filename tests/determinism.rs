//! Whole-stack determinism: identical seeds produce bit-identical runs
//! across every layer — the property that makes all the reproduced
//! figures and fault-injection experiments replayable.
//!
//! The golden rows pin each artefact to a constant: the numeric
//! fingerprint, or the `fnv1a` hash of the monitor log or JSONL
//! export. Each constant is the value the heap-ordered reference
//! scheduler and the timer wheel both produced before the engine was
//! narrowed to the wheel alone, so a change that moves event order by
//! even one byte fails here.

use std::time::Duration;

use cluster_sns::cache::fnv1a;
use cluster_sns::chaos::{FaultKind, FaultPlan, SimChaos, SimChaosConfig};
use cluster_sns::core::MonitorTap;
use cluster_sns::hotbot::HotBotBuilder;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::playback::{Playback, Schedule};
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn transend_fingerprint(seed: u64) -> (u64, u64, u64, String) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x11,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(30));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let report = cluster.attach_client(items, Duration::from_secs(3));
    // Fault injection is part of the fingerprint too.
    cluster.sim.at(SimTime::from_secs(12), |sim| {
        if let Some(&d) = sim
            .components_of_kind(cluster_sns::core::intern_class("distiller/gif"))
            .first()
        {
            sim.kill_component(d);
        }
    });
    cluster.sim.run_until(SimTime::from_secs(200));
    let r = report.borrow();
    // Fold every counter into a stable string.
    let counters: String = cluster
        .sim
        .stats()
        .all_counters()
        .map(|(k, v)| format!("{k}={v};"))
        .collect();
    (
        cluster.sim.events_dispatched(),
        r.responses,
        r.bytes_received,
        counters,
    )
}

#[test]
fn transend_runs_are_bit_identical_given_a_seed() {
    let a = transend_fingerprint(0xd5);
    let b = transend_fingerprint(0xd5);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = transend_fingerprint(0xd5);
    let b = transend_fingerprint(0xd6);
    assert_ne!(a.0, b.0, "different seeds must diverge");
}

/// A full TranSend trace replay (fault injection included), run twice,
/// lands on the golden event count, responses, bytes and counter hash.
#[test]
fn transend_replay_is_identical_across_schedulers() {
    let golden = (10_179, 121, 203_562, 0xbec4_38c4_d664_face);
    for _ in 0..2 {
        let (events, responses, bytes, counters) = transend_fingerprint(0xd5);
        assert_eq!(
            (events, responses, bytes, fnv1a(counters.as_bytes())),
            golden,
            "the replay drifted from the pinned fingerprint"
        );
    }
}

/// Asserts that `run` renders the same artefact twice and that it
/// hashes to `golden`.
fn assert_golden(what: &str, golden: u64, run: impl Fn() -> String) {
    for _ in 0..2 {
        let rendered = run();
        assert_eq!(
            fnv1a(rendered.as_bytes()),
            golden,
            "{what} drifted from its pinned hash"
        );
    }
}

/// One full chaos run: same seed, same fault plan, returns the
/// byte-stable canonical rendering of the tapped monitor-event log.
fn chaos_monitor_log(seed: u64) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_worker_nodes(5)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");

    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x33,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(3.0, Duration::from_secs(40));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));

    // Exercise every injection path the sim backend supports.
    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(15),
            FaultKind::KillWorker {
                class: "cache".into(),
                which: 0,
            },
        )
        .with(Duration::from_secs(22), FaultKind::KillManager)
        .with(
            Duration::from_secs(30),
            FaultKind::Partition {
                pool: "dedicated".into(),
                which: 1,
                heal_after: Duration::from_secs(8),
            },
        )
        .with(
            Duration::from_secs(45),
            FaultKind::BeaconLoss {
                lasting: Duration::from_secs(2),
            },
        );
    SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(120)));
    let rendered = log.borrow().canonical();
    assert!(!rendered.is_empty(), "the tap must have seen events");
    rendered
}

#[test]
fn same_seed_same_plan_gives_byte_identical_monitor_logs() {
    let a = chaos_monitor_log(0xFA);
    let b = chaos_monitor_log(0xFA);
    assert_eq!(a, b, "monitor-event logs must be byte-identical");
    let c = chaos_monitor_log(0xFB);
    assert_ne!(a, c, "a different seed must perturb the event stream");
}

/// The chaos demo plan (kill-worker, kill-manager, partition, beacon
/// loss) leaves the golden monitor-event log, byte for byte, on every
/// replay.
#[test]
fn chaos_monitor_logs_are_byte_identical_across_schedulers() {
    assert_golden("the chaos monitor log", 0x3fcc_c93b_63ee_8af7, || {
        chaos_monitor_log(0xFA)
    });
}

/// One rolling-upgrade-under-load chaos run: a `RollingUpgrade` plan
/// verb walks two dedicated nodes through drain → upgraded rejoin while
/// a trace replays, and the byte-stable canonical monitor log (drains,
/// rejoins, respawns, and all) is returned.
fn rolling_upgrade_log(seed: u64) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_worker_nodes(5)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");

    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x77,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(3.0, Duration::from_secs(60));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));

    let plan = FaultPlan::new().with(
        Duration::from_secs(15),
        FaultKind::RollingUpgrade {
            pool: "dedicated".into(),
            nodes: 2,
            batch: 1,
            settle: Duration::from_secs(12),
        },
    );
    SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(120)));
    let rendered = log.borrow().canonical();
    assert!(
        rendered.contains("node_drained") && rendered.contains("node_rejoined"),
        "the upgrade must have rolled: {rendered}"
    );
    rendered
}

/// A rolling upgrade under live load — the most schedule-sensitive
/// cluster operation, since drains race in-flight dispatches — leaves
/// the golden monitor log on every replay.
#[test]
fn rolling_upgrade_monitor_logs_are_byte_identical_across_schedulers() {
    assert_golden(
        "the rolling-upgrade monitor log",
        0x5754_02c7_5343_2332,
        || rolling_upgrade_log(0xFA),
    );
}

/// One traced TranSend run, exported as JSONL. Trace emission rides the
/// engine's event order, so the export is as replayable as the run.
fn transend_trace_jsonl(seed: u64) -> String {
    transend_trace_jsonl_sampled(seed, 1)
}

/// The same traced run, head-sampled 1-in-`rate` at the front end.
fn transend_trace_jsonl_sampled(seed: u64, rate: u32) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .with_tracing(true)
        .with_trace_sampling(rate)
        .build();
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x55,
        users: 20,
        shared_objects: 60,
        private_per_user: 6,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(15));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(90));
    let log = cluster.trace().expect("tracing was enabled");
    assert!(!log.is_empty(), "the run must have recorded spans");
    cluster_sns::core::trace::to_jsonl(&log)
}

/// Head sampling is a pure function of the request number, so a
/// sampled export must be (a) golden and replayable, like the full
/// export, and (b) a strict, non-empty line-subset of the full export
/// for the same seed — sampling drops whole requests, it never invents
/// or reorders spans.
#[test]
fn sampled_trace_exports_are_deterministic_and_subset_the_full_export() {
    assert_golden("the sampled trace export", 0x8cc8_b621_ad18_cdb3, || {
        transend_trace_jsonl_sampled(0xd7, 4)
    });
    let full = transend_trace_jsonl(0xd7);
    let sampled = transend_trace_jsonl_sampled(0xd7, 4);
    assert!(
        sampled.lines().count() > 0,
        "1-in-4 sampling should keep some spans"
    );
    assert!(
        sampled.lines().count() < full.lines().count(),
        "1-in-4 sampling should drop some spans"
    );
    let full_lines: std::collections::BTreeSet<&str> = full.lines().collect();
    for line in sampled.lines() {
        assert!(
            full_lines.contains(line),
            "sampled span missing from the full export: {line}"
        );
    }
}

/// Same seed, same workload: the JSONL trace export replays to the
/// golden bytes — traces are as replayable as the runs they observe.
#[test]
fn same_seed_trace_exports_are_byte_identical_across_schedulers() {
    assert_golden("the trace export", 0x6149_ce51_7550_5b4c, || {
        transend_trace_jsonl(0xd7)
    });
}

#[test]
fn hotbot_runs_are_bit_identical_given_a_seed() {
    let run = || {
        let mut cluster = HotBotBuilder::new()
            .with_partitions(5)
            .with_corpus_docs(400)
            .with_frontends(1)
            .build();
        let report = cluster.attach_client(6.0, 40, Duration::from_secs(4));
        cluster.sim.run_until(SimTime::from_secs(40));
        let r = report.borrow();
        (
            cluster.sim.events_dispatched(),
            r.answered,
            (r.latency.mean() * 1e9) as u64,
        )
    };
    assert_eq!(run(), run());
}

/// Shrinkable sequential ≡ sharded equivalence: random word streams
/// decode to a multi-shard topology (2–4 lanes of echo workers behind a
/// gateway), a packet schedule and a fault plan of echo kills; the
/// parallel lane driver must reproduce the sequential reference
/// fingerprint byte for byte. Failures shrink to a minimal divergent
/// word sequence via the testkit's choice-stream shrinking.
mod sharded {
    use std::time::Duration;

    use sns_testkit::{gens, props, tk_assert, tk_assert_eq};

    use cluster_sns::sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
    use cluster_sns::sim::network::IdealNetwork;
    use cluster_sns::sim::time::SimTime;
    use cluster_sns::sim::{ComponentId, Lane, PortId, ShardRun, ShardedSim, Uplink};

    #[derive(Clone)]
    struct Pkt(u64);
    impl Wire for Pkt {
        fn wire_size(&self) -> u64 {
            96
        }
    }

    struct Gateway {
        ups: Vec<Uplink<Pkt>>,
        local: ComponentId,
    }
    impl Component<Pkt> for Gateway {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, _from: ComponentId, msg: Pkt) {
            ctx.stats().incr("hops", 1);
            if msg.0 == 0 {
                return;
            }
            if ctx.rng().below(3) == 0 {
                ctx.send(self.local, Pkt(msg.0 - 1));
            } else {
                let k = ctx.rng().below(self.ups.len() as u64) as usize;
                self.ups[k].send(ctx.now(), Pkt(msg.0 - 1));
            }
        }
    }

    struct Echo;
    impl Component<Pkt> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, from: ComponentId, msg: Pkt) {
            ctx.stats().incr("echoed", 1);
            ctx.send(from, msg);
        }
    }

    fn run(words: &[u64], parallel: bool) -> ShardRun {
        let shards = 2 + (words.first().copied().unwrap_or(0) % 3) as u32;
        let latency = Duration::from_millis(1);
        let mut ss: ShardedSim<Pkt, IdealNetwork> = ShardedSim::new(latency);
        for _ in 0..shards {
            let words: Vec<u64> = words.to_vec();
            ss.add_shard(move |shard| {
                let sim = Sim::new(
                    SimConfig::new().with_seed(0xdef ^ u64::from(shard.0)),
                    IdealNetwork::default(),
                );
                let mut lane = Lane::new(sim);
                let node = lane.sim().add_node(NodeSpec::new(1, "dedicated"));
                let local = lane.sim().spawn(node, Box::new(Echo), "echo");
                let ups: Vec<Uplink<Pkt>> = (0..shards)
                    .filter(|&t| t != shard.0)
                    .map(|t| lane.uplink(PortId(t)))
                    .collect();
                let gw = lane
                    .sim()
                    .spawn(node, Box::new(Gateway { ups, local }), "gateway");
                lane.bind(PortId(shard.0), gw);
                for (i, &w) in words.iter().enumerate() {
                    if i as u32 % shards != shard.0 {
                        continue;
                    }
                    if w % 5 == 4 {
                        // Fault plan: kill the shard's echo worker.
                        let at = SimTime::from_nanos((1 + (w >> 8) % 150_000) * 1_000);
                        lane.sim().at(at, |sim| {
                            if let Some(&v) = sim.components_of_kind("echo").first() {
                                sim.kill_component(v);
                            }
                        });
                    } else {
                        let at = SimTime::from_nanos(((w >> 8) % 100_000) * 1_000);
                        lane.sim().inject_at(at, gw, Pkt(2 + (w >> 4) % 30));
                    }
                }
                lane.set_report(|sim| {
                    sim.stats()
                        .all_counters()
                        .map(|(k, v)| format!("{k}={v};"))
                        .collect()
                });
                lane
            });
        }
        let until = SimTime::from_secs(1);
        if parallel {
            ss.run_parallel(until)
        } else {
            ss.run_sequential(until)
        }
    }

    props! {
        /// Whatever topology, schedule and fault plan the words encode,
        /// both lane drivers agree byte for byte.
        fn sharded_runs_match_the_sequential_reference(
            words in gens::vec(gens::any_u64(), 1..32),
        ) {
            let seq = run(&words, false);
            let par = run(&words, true);
            tk_assert_eq!(seq.fingerprint(), par.fingerprint());
            tk_assert!(seq.total_events() > 0);
        }
    }
}

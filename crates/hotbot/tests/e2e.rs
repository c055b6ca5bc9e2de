//! End-to-end HotBot tests: fan-out/collation correctness, graceful
//! degradation on partition loss (the 54M→51M scenario), and recovery.

use std::time::Duration;

use sns_hotbot::HotBotBuilder;
use sns_sim::time::SimTime;

#[test]
fn queries_fan_out_and_answer_with_full_coverage() {
    let mut cluster = HotBotBuilder::new()
        .with_partitions(8)
        .with_corpus_docs(800)
        .with_frontends(1)
        .build();
    let report = cluster.attach_client(5.0, 50, Duration::from_secs(4));
    cluster.sim.run_until(SimTime::from_secs(40));
    let r = report.borrow();
    assert_eq!(r.sent, 50);
    assert_eq!(r.answered, 50);
    assert_eq!(r.errors, 0);
    assert_eq!(r.full_coverage, 50, "all partitions up ⇒ full coverage");
    assert!(r.results.mean() > 0.5, "queries mostly find documents");
}

#[test]
fn partition_loss_degrades_coverage_then_recovers() {
    let mut cluster = HotBotBuilder::new()
        .with_partitions(26)
        .with_corpus_docs(2600)
        .with_frontends(1)
        .with_auto_restart_partitions(true)
        .build();
    let report = cluster.attach_client(8.0, 400, Duration::from_secs(5));
    // Kill one partition's node mid-run (the paper's example: one of 26
    // nodes dies; the database drops from 54M to ~51M docs), then "fast
    // restart" it (§3.2: RAID keeps the data; restart minimises impact).
    let victim = cluster.partition_nodes[3];
    cluster
        .sim
        .at(SimTime::from_secs(15), move |sim| sim.kill_node(victim));
    cluster
        .sim
        .at(SimTime::from_secs(35), move |sim| sim.revive_node(victim));
    cluster.sim.run_until(SimTime::from_secs(90));

    let r = report.borrow();
    assert_eq!(r.answered, 400, "every query answered");
    assert_eq!(r.errors, 0, "partition loss never fails a query");
    assert!(
        r.partial_coverage > 0,
        "some queries saw the degraded window"
    );
    // Coverage during the outage ≈ 25/26 ≈ 96%, never catastrophic.
    assert!(
        r.min_coverage > 0.90,
        "losing 1 of 26 partitions costs ~4% coverage, saw {}",
        r.min_coverage
    );
    assert!(
        r.full_coverage > r.partial_coverage,
        "recovery restores full coverage for later queries"
    );
}

#[test]
fn incremental_delivery_pages_from_the_recent_search_cache() {
    use sns_core::msg::{ClientRequest, SnsMsg};
    use sns_core::payload_as;
    use sns_hotbot::logic::{QueryRequest, SearchPage};
    use sns_sim::engine::{Component, Ctx};
    use sns_sim::ComponentId;
    use std::sync::Arc;

    struct PagingClient {
        fe: ComponentId,
        sent_page2: bool,
    }
    impl Component<SnsMsg> for PagingClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
            ctx.timer(Duration::from_secs(4), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _t: u64) {
            ctx.send(
                self.fe,
                SnsMsg::Request(Arc::new(ClientRequest {
                    id: 1,
                    user: "u".into(),
                    url: "hotbot://q".into(),
                    body: Some(Arc::new(QueryRequest {
                        query: "w0".into(),
                        page: 0,
                        page_size: 5,
                    })),
                })),
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _f: ComponentId, msg: SnsMsg) {
            let SnsMsg::Response(resp) = msg else { return };
            let Ok(p) = &resp.result else {
                ctx.stats().incr("page.errors", 1);
                return;
            };
            let page = payload_as::<SearchPage>(p).expect("search page");
            ctx.stats()
                .incr("page.results_total", page.hits.len() as u64);
            if !self.sent_page2 {
                self.sent_page2 = true;
                ctx.stats().incr("page.first_answered", 1);
                // "Next 5": the FE serves this from the recent-search
                // cache without re-running the fan-out.
                ctx.send(
                    self.fe,
                    SnsMsg::Request(Arc::new(ClientRequest {
                        id: 2,
                        user: "u".into(),
                        url: "hotbot://q".into(),
                        body: Some(Arc::new(QueryRequest {
                            query: "w0".into(),
                            page: 1,
                            page_size: 5,
                        })),
                    })),
                );
            } else {
                ctx.stats().incr("page.second_answered", 1);
            }
        }
    }

    let mut cluster = HotBotBuilder::new()
        .with_partitions(6)
        .with_corpus_docs(600)
        .with_frontends(1)
        .build();
    let fe = cluster.fes[0];
    let node = cluster.client_node;
    cluster.sim.spawn(
        node,
        Box::new(PagingClient {
            fe,
            sent_page2: false,
        }),
        "paging",
    );
    cluster.sim.run_until(SimTime::from_secs(30));
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("page.errors"), 0);
    assert_eq!(stats.counter("page.first_answered"), 1);
    assert_eq!(stats.counter("page.second_answered"), 1);
    assert!(
        stats.counter("page.results_total") > 5,
        "page 2 had content"
    );
    assert_eq!(
        stats.counter("hb.qcache_hits"),
        1,
        "the second page came from the recent-search cache"
    );
    // Only one fan-out happened: 6 partitions answered exactly once each.
    assert_eq!(stats.counter("hb.queries"), 2);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut cluster = HotBotBuilder::new()
            .with_partitions(6)
            .with_corpus_docs(600)
            .with_frontends(1)
            .build();
        let report = cluster.attach_client(5.0, 30, Duration::from_secs(4));
        cluster.sim.run_until(SimTime::from_secs(30));
        let r = report.borrow();
        (
            r.answered,
            r.latency.mean(),
            cluster.sim.events_dispatched(),
        )
    };
    assert_eq!(run(), run());
}

/// The query stream is a function of the cluster seed: two seeds must
/// replay different query terms, not one fixed stream for every run.
#[test]
fn cluster_seed_drives_the_query_stream() {
    use sns_core::msg::SnsMsg;
    use sns_sim::engine::{Component, Ctx};
    use sns_sim::ComponentId;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Stands in for the front ends and records each query URL.
    struct Recorder(Rc<RefCell<Vec<String>>>);
    impl Component<SnsMsg> for Recorder {
        fn on_message(&mut self, _: &mut Ctx<'_, SnsMsg>, _: ComponentId, msg: SnsMsg) {
            if let SnsMsg::Request(req) = msg {
                self.0.borrow_mut().push(req.url.clone());
            }
        }
    }

    let queries = |seed: u64| {
        let mut cluster = HotBotBuilder::new()
            .with_seed(seed)
            .with_partitions(2)
            .with_corpus_docs(100)
            .with_frontends(1)
            .build();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let node = cluster.client_node;
        let recorder = cluster
            .sim
            .spawn(node, Box::new(Recorder(Rc::clone(&seen))), "recorder");
        cluster.fes = vec![recorder];
        cluster.attach_client(20.0, 20, Duration::from_secs(1));
        cluster.sim.run_until(SimTime::from_secs(10));
        let seen = seen.borrow().clone();
        assert_eq!(seen.len(), 20, "every query reached the recorder");
        seen
    };
    assert_eq!(queries(1), queries(1), "one seed replays one stream");
    assert_ne!(queries(1), queries(2), "different seeds, different queries");
}

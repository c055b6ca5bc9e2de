//! Cross-crate TACC composition: real distiller chains executed through
//! the worker host adapter, variant-hash cache-key discipline, the
//! rewebber round trip — the §2.3 "Unix pipeline" claim — and the
//! fetch → transform → aggregate chain served end to end on both
//! backends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cluster_sns::core::msg::{ClientRequest, Job, JobResult, SnsMsg};
use cluster_sns::core::payload_as;
use cluster_sns::core::worker::WorkerLogic;
use cluster_sns::distillers::{GifDistiller, HtmlMunger, KeywordFilter, MetasearchAggregator};
use cluster_sns::rt::{RtCluster, RtConfig};
use cluster_sns::sim::engine::{Component, Ctx};
use cluster_sns::sim::ComponentId;
use cluster_sns::sim::{Pcg32, SimTime};
use cluster_sns::tacc::content::{synth_html, Body, ContentObject};
use cluster_sns::tacc::origin::FetchRequest;
use cluster_sns::tacc::pipeline::PipelineSpec;
use cluster_sns::tacc::worker::{AggregateRequest, TaccArgs, TaccWorkerHost};
use cluster_sns::tacc::OriginServer;
use cluster_sns::transend::logic::AggregateServiceRequest;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::MimeType;

fn run_stage(
    host: &mut TaccWorkerHost,
    obj: ContentObject,
    profile: &BTreeMap<String, String>,
    rng: &mut Pcg32,
) -> ContentObject {
    let job = Job {
        id: 1,
        class: host.class(),
        op: "transform".into(),
        input: obj.into_payload(),
        profile: Some(Arc::new(profile.clone())),
        reply_to: ComponentId(1),
        sampled: true,
    };
    let out = host.process(&job, SimTime::ZERO, rng).expect("stage ok");
    payload_as::<ContentObject>(&out).expect("content").clone()
}

#[test]
fn html_then_keyword_chain_does_both_transformations() {
    let mut rng = Pcg32::new(1);
    let mut munger = TaccWorkerHost::transformer(Box::new(HtmlMunger::new()), BTreeMap::new());
    let mut filter = TaccWorkerHost::transformer(Box::new(KeywordFilter::new()), BTreeMap::new());
    let words: Vec<&str> = "the cluster serves network services with cluster workers over and over"
        .split(' ')
        .collect();
    let page = ContentObject::text(
        "http://h/p",
        MimeType::Html,
        synth_html("http://h/p", 2, &words),
    );
    let mut profile = BTreeMap::new();
    profile.insert("keywords".to_string(), "cluster".to_string());
    profile.insert("quality".to_string(), "25".to_string());

    let munged = run_stage(&mut munger, page, &profile, &mut rng);
    let filtered = run_stage(&mut filter, munged, &profile, &mut rng);

    assert_eq!(filtered.lineage, vec!["html", "keyword"]);
    let Body::Text(t) = &filtered.body else {
        panic!("text body")
    };
    assert!(t.contains("transend-toolbar"), "munger stage applied");
    assert!(t.contains("ts-original=1"), "original links added");
    assert!(
        t.contains("color:red"),
        "keyword stage applied on the munged output"
    );
    // The keyword filter must not have mangled the markup the munger
    // produced (attributes are exempt from highlighting).
    assert!(t.contains("data-ts-quality=\"25\""));
}

#[test]
fn pipeline_variants_isolate_users_with_different_args() {
    let pipeline = PipelineSpec::of(&["gif"]);
    let low = TaccArgs::from_map(BTreeMap::from([("quality".to_string(), "10".to_string())]));
    let high = TaccArgs::from_map(BTreeMap::from([("quality".to_string(), "90".to_string())]));
    // Different preferences must cache under different variants…
    assert_ne!(pipeline.final_variant(&low), pipeline.final_variant(&high));
    // …and actually produce different bytes.
    let mut rng = Pcg32::new(2);
    let mut gif = GifDistiller::new();
    use cluster_sns::tacc::worker::TaccWorker;
    let img = ContentObject::synthetic("u", MimeType::Gif, 30_000);
    let small = gif.transform(&img, &low, &mut rng).unwrap();
    let large = gif.transform(&img, &high, &mut rng).unwrap();
    assert!(small.len() < large.len());
}

#[test]
fn worker_host_enforces_mime_discipline_across_the_chain() {
    let mut rng = Pcg32::new(3);
    let mut gif = TaccWorkerHost::transformer(Box::new(GifDistiller::new()), BTreeMap::new());
    // GIF distiller outputs JPEG (format conversion): feeding its output
    // back into itself must be rejected as a soft failure, which the
    // front end turns into a fallback, not a crash.
    let img = ContentObject::synthetic("u", MimeType::Gif, 10_000);
    let once = run_stage(&mut gif, img, &BTreeMap::new(), &mut rng);
    assert_eq!(once.mime, MimeType::Jpeg);
    let job = Job {
        id: 2,
        class: gif.class(),
        op: "transform".into(),
        input: once.into_payload(),
        profile: None,
        reply_to: ComponentId(1),
        sampled: true,
    };
    let err = gif.process(&job, SimTime::ZERO, &mut rng);
    assert!(matches!(
        err,
        Err(cluster_sns::core::worker::WorkerError::Failed(_))
    ));
}

/// Three search-engine result pages for query `id`.
fn engine_sources(id: u64) -> Vec<FetchRequest> {
    (0..3)
        .map(|e| FetchRequest {
            url: format!("http://engine{e}/results?q={id}"),
            mime: MimeType::Html,
            size: 16 * 1024,
        })
        .collect()
}

fn metasearch_args(id: u64) -> BTreeMap<String, String> {
    BTreeMap::from([
        ("query".to_string(), format!("query {id}")),
        ("max_results".to_string(), "10".to_string()),
    ])
}

/// Sends prepared requests to one front end after a delay and records
/// each response as `(id, ok, degraded)`.
struct MetasearchClient {
    fe: ComponentId,
    to_send: Vec<ClientRequest>,
    answers: Arc<Mutex<Vec<(u64, bool, bool)>>>,
}

impl Component<SnsMsg> for MetasearchClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        ctx.timer(Duration::from_secs(5), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _token: u64) {
        for r in self.to_send.drain(..) {
            ctx.send(self.fe, SnsMsg::Request(Arc::new(r)));
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        if let SnsMsg::Response(resp) = msg {
            self.answers
                .lock()
                .unwrap()
                .push((resp.id, resp.result.is_ok(), resp.degraded));
        }
    }
}

/// The §5.1 metasearch service on the sim: the stock TranSend front end
/// fans each request out to the origin, collates the pages through the
/// aggregator and replies, with no service-specific infrastructure.
#[test]
fn metasearch_fan_in_aggregates_through_the_sim_front_end() {
    let mut cluster = TranSendBuilder::new()
        .with_seed(0xEC)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_distillers(["gif", "html"])
        .with_aggregators(["metasearch"])
        .with_origin_penalty_scale(0.2)
        .build();
    let to_send = (0..4u64)
        .map(|id| ClientRequest {
            id,
            user: "tester".into(),
            url: format!("transend://metasearch?q={id}"),
            body: Some(Arc::new(AggregateServiceRequest {
                aggregator: "metasearch".into(),
                sources: engine_sources(id),
                args: metasearch_args(id),
            })),
        })
        .collect();
    let answers = Arc::new(Mutex::new(Vec::new()));
    let fe = cluster.fes[0];
    let node = cluster.client_node;
    cluster.sim.spawn(
        node,
        Box::new(MetasearchClient {
            fe,
            to_send,
            answers: Arc::clone(&answers),
        }),
        "metasearch-client",
    );
    cluster.sim.run_until(SimTime::from_secs(400));

    let got = answers.lock().unwrap().clone();
    assert_eq!(got.len(), 4, "every request must be answered: {got:?}");
    for (id, ok, degraded) in &got {
        assert!(ok, "request {id} failed");
        assert!(!degraded, "request {id} degraded");
    }
    assert_eq!(cluster.sim.stats().counter("ts.agg_answers"), 4);
}

/// The same chain on the threaded runtime, composed in plain sequential
/// code through `RtCluster::submit`: fetch every source, transform each
/// page, aggregate the results.
#[test]
fn fetch_transform_aggregate_chain_serves_on_the_rt_backend() {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(0.02)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    c.add_workers("origin", 2, || {
        Box::new(OriginServer::new().with_penalty_scale(0.02))
    });
    c.add_workers("distiller/html", 2, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(HtmlMunger::new()),
            BTreeMap::new(),
        ))
    });
    c.add_workers("aggregator/metasearch", 1, || {
        Box::new(TaccWorkerHost::aggregator(
            Box::new(MetasearchAggregator::new()),
            BTreeMap::new(),
        ))
    });

    let wait = |rx: std::sync::mpsc::Receiver<JobResult>, stage: &str| -> ContentObject {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(JobResult::Ok(p)) => ContentObject::from_payload(&p)
                .cloned()
                .unwrap_or_else(|| panic!("{stage} replied without content")),
            other => panic!("{stage} did not reply Ok: {other:?}"),
        }
    };
    for id in 0..2u64 {
        let profile = Some(Arc::new(metasearch_args(id)));
        let fetches: Vec<_> = engine_sources(id)
            .into_iter()
            .map(|src| c.submit(OriginServer::CLASS, "fetch", Arc::new(src), None))
            .collect();
        let pages: Vec<ContentObject> = fetches.into_iter().map(|rx| wait(rx, "fetch")).collect();
        let transforms: Vec<_> = pages
            .into_iter()
            .map(|page| {
                c.submit(
                    "distiller/html",
                    "transform",
                    page.into_payload(),
                    profile.clone(),
                )
            })
            .collect();
        let inputs: Vec<ContentObject> = transforms
            .into_iter()
            .map(|rx| wait(rx, "transform"))
            .collect();
        assert!(inputs.iter().all(|o| o.lineage == ["html"]));
        let merged = wait(
            c.submit(
                "aggregator/metasearch",
                "aggregate",
                Arc::new(AggregateRequest { inputs }),
                profile,
            ),
            "aggregate",
        );
        assert!(
            !merged.is_empty(),
            "request {id} aggregated to an empty page"
        );
    }
    c.shutdown();
}

//! Isolated layer passes: each calls one crate's public entry point on
//! its own, over inputs taken from the workload, and returns the median
//! cost per call across a few passes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sns_cache::{CacheKey, HashRing, LruCache, Weighted};
use sns_core::SloAggregator;
use sns_distillers::{GifDistiller, HtmlMunger, JpegDistiller};
use sns_profiledb::{MemDevice, ProfileDb, Txn, Wal};
use sns_san::{San, SanConfig};
use sns_search::{CorpusGenerator, InvertedIndex};
use sns_sim::{ComponentId, Endpoint, Network, NodeId, Pcg32, SimTime, TraceLog, TrafficClass};
use sns_tacc::{ContentObject, TaccArgs, TaccWorker};
use sns_workload::MimeType;

use crate::stats;

/// Passes per isolated measurement; the median pass is reported.
const PASSES: usize = 5;

/// Median over `PASSES` of (time of `pass`) / `calls`, in ns. `pass`
/// returns the time it measured, so per-pass set-up stays untimed.
fn per_call_ns(calls: usize, mut pass: impl FnMut() -> Duration) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let v: Vec<f64> = (0..PASSES)
        .map(|_| pass().as_nanos() as f64 / calls as f64)
        .collect();
    stats::median(&v)
}

/// `San::unicast` over `(send time ns, bytes)` messages between seeded
/// random node pairs, each data message followed by a 256-byte control
/// message the other way.
pub fn san_unicast_ns(cfg: SanConfig, nodes: u32, msgs: &[(u64, u64)], seed: u64) -> f64 {
    let mut rng = Pcg32::new(seed);
    let pairs: Vec<(u32, u32)> = msgs
        .iter()
        .map(|_| {
            let a = rng.below(u64::from(nodes)) as u32;
            let b = (a + 1 + rng.below(u64::from(nodes) - 1) as u32) % nodes;
            (a, b)
        })
        .collect();
    let ep = |n: u32| Endpoint {
        node: NodeId(n),
        comp: ComponentId(u64::from(n) + 1),
    };
    per_call_ns(msgs.len() * 2, || {
        let mut san = San::new(cfg.clone());
        for n in 0..nodes {
            san.register_node(NodeId(n));
        }
        let mut rng = Pcg32::new(seed);
        let t = Instant::now();
        for (&(at, size), &(a, b)) in msgs.iter().zip(&pairs) {
            let now = SimTime::from_nanos(at);
            let class = TrafficClass::Reliable;
            black_box(san.unicast(now, &mut rng, ep(a), ep(b), size, class));
            black_box(san.unicast(now, &mut rng, ep(b), ep(a), 256, class));
        }
        t.elapsed()
    })
}

/// Cached body of the given size.
struct Obj(u64);

impl Weighted for Obj {
    fn weight(&self) -> u64 {
        self.0
    }
}

/// Placement (`HashRing::lookup`) plus `LruCache` get, and put on a
/// miss, over the read stream's URLs.
pub fn cache_lookup_ns(reads: &[(&str, u64)], partitions: u32) -> f64 {
    let keys: Vec<(CacheKey, u64)> = reads
        .iter()
        .map(|&(url, size)| (CacheKey::original(url), size))
        .collect();
    per_call_ns(keys.len(), || {
        let mut ring = HashRing::new();
        for p in 0..partitions {
            ring.add(p);
        }
        let mut parts: Vec<LruCache<CacheKey, Obj>> = (0..partitions)
            .map(|_| LruCache::new(512 * 1024 * 1024))
            .collect();
        let t = Instant::now();
        for (i, (key, size)) in keys.iter().enumerate() {
            let p = *ring
                .lookup(key.placement_hash())
                .expect("ring has partitions");
            let lru = &mut parts[p as usize];
            let now = i as u64;
            if lru.get(key, now).is_none() {
                lru.put(key.clone(), Obj(*size), now, None);
            }
        }
        t.elapsed()
    })
}

/// Median transform cost per object, by distiller.
pub struct TransformNs {
    pub gif: f64,
    pub jpeg: f64,
    pub html: f64,
}

/// Most objects per type fed to a transform pass.
const MAX_OBJECTS: usize = 2_000;

/// A text page of about `size` bytes: paragraphs with an inline image
/// every few of them, so the HTML distiller has markup to rewrite.
pub fn html_page(url: &str, size: u64) -> String {
    use std::fmt::Write as _;
    const WORDS: [&str; 8] = [
        "cluster", "network", "service", "proxy", "distill", "cache", "base", "scalable",
    ];
    let mut out = format!("<html><head><title>{url}</title></head><body>\n");
    let mut i = 0usize;
    while (out.len() as u64) < size.max(256) {
        out.push_str("<p>");
        for k in 0..12 {
            out.push_str(WORDS[(i * 7 + k) % WORDS.len()]);
            out.push(' ');
        }
        out.push_str("</p>\n");
        if i.is_multiple_of(4) {
            let _ = writeln!(
                out,
                "<img src=\"{url}/img{i}.gif\" width=\"320\" height=\"240\">"
            );
        }
        i += 1;
    }
    out.push_str("</body></html>\n");
    out
}

/// `TaccWorker::transform` of the GIF, JPEG and HTML distillers over
/// the workload's objects of each type (0 for a type it has none of).
pub fn transform_ns(objects: &[(&str, MimeType, u64)], seed: u64) -> TransformNs {
    let pick = |m: MimeType| -> Vec<ContentObject> {
        objects
            .iter()
            .filter(|o| o.1 == m)
            .take(MAX_OBJECTS)
            .map(|&(url, mime, size)| match mime {
                MimeType::Html => ContentObject::text(url, mime, html_page(url, size)),
                _ => ContentObject::synthetic(url, mime, size),
            })
            .collect()
    };
    let args = TaccArgs::default();
    let run = |w: &mut dyn TaccWorker, objs: &[ContentObject]| {
        per_call_ns(objs.len(), || {
            let mut rng = Pcg32::new(seed);
            let t = Instant::now();
            for o in objs {
                let _ = black_box(w.transform(black_box(o), &args, &mut rng));
            }
            t.elapsed()
        })
    };
    TransformNs {
        gif: run(&mut GifDistiller::new(), &pick(MimeType::Gif)),
        jpeg: run(&mut JpegDistiller::new(), &pick(MimeType::Jpeg)),
        html: run(&mut HtmlMunger::new(), &pick(MimeType::Html)),
    }
}

/// `ProfileDb::commit` over the write stream, against an in-memory log.
pub fn wal_commit_ns(writes: &[(String, &[(String, String)])]) -> f64 {
    per_call_ns(writes.len(), || {
        let mut db = ProfileDb::open(Wal::new(MemDevice::new())).expect("fresh in-memory db");
        let txns: Vec<Txn> = writes
            .iter()
            .map(|(user, settings)| {
                settings.iter().fold(Txn::new(), |t, (k, v)| {
                    t.put(user.as_str(), k.as_str(), v.as_str())
                })
            })
            .collect();
        let t = Instant::now();
        for txn in txns {
            db.commit(txn).expect("in-memory commit");
        }
        t.elapsed()
    })
}

/// A HotBot-style query: 1-3 terms with log-uniform rank over `vocab`.
pub fn make_query(rng: &mut Pcg32, vocab: usize) -> String {
    let terms = 1 + rng.below(3);
    let parts: Vec<String> = (0..terms)
        .map(|_| {
            let rank = ((vocab as f64).powf(rng.f64()) - 1.0) as usize;
            format!("w{}", rank.min(vocab - 1))
        })
        .collect();
    parts.join(" ")
}

/// `InvertedIndex::query` over `queries` against an index of `docs`
/// documents drawn like one partition of the corpus.
pub fn search_query_ns(corpus_seed: u64, vocab: usize, docs: usize, queries: &[String]) -> f64 {
    let mut index = InvertedIndex::new();
    for d in CorpusGenerator::new(corpus_seed, vocab, 120, 1.0).generate(docs) {
        index.add(&d);
    }
    per_call_ns(queries.len(), || {
        let t = Instant::now();
        for q in queries {
            black_box(index.query(black_box(q), 10));
        }
        t.elapsed()
    })
}

/// Seconds to generate `docs` documents and index them into
/// `partitions` inverted indexes, as the HotBot builder does.
pub fn index_build_s(corpus_seed: u64, vocab: usize, docs: usize, partitions: usize) -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut parts: Vec<InvertedIndex> =
                (0..partitions).map(|_| InvertedIndex::new()).collect();
            for d in CorpusGenerator::new(corpus_seed, vocab, 120, 1.0).generate(docs) {
                parts[d.id as usize % partitions].add(&d);
            }
            black_box(&parts);
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&v)
}

/// Share of sampled request time per virtual-time breakdown component,
/// from the program's own head-sampled request trace.
pub fn vt_shares(log: &TraceLog, sample_rate: u32) -> Vec<(&'static str, f64)> {
    let mut slo = SloAggregator::new(sample_rate);
    slo.ingest(log);
    let sums = slo.breakdown_sums();
    let total: f64 = sums.iter().map(|(_, ns)| ns).sum();
    sums.into_iter()
        .filter_map(|(name, ns)| {
            let key = match name {
                "queue" => "vt.share.queue",
                "service" => "vt.share.service",
                "net" => "vt.share.net",
                "compute" => "vt.share.compute",
                "overhead" => "vt.share.overhead",
                _ => return None,
            };
            Some((key, ns / total.max(1.0)))
        })
        .collect()
}

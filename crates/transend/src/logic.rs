//! TranSend's front-end dispatch logic (§3.1.1): the per-request state
//! machine the FE framework drives.
//!
//! Request processing: pair the request with the user's customisation
//! preferences (write-through-cached, §3.1.4) → look up the distilled
//! variant in the virtual cache (consistent hashing across live cache
//! workers, §3.1.5) → on miss, look up / fetch the original → send it
//! through the per-MIME distillation pipeline → inject results back into
//! the cache → reply. Every failure has a BASE fallback (§3.1.8): a
//! missing profile means default preferences, a cache timeout is just a
//! miss, a failed distiller means the user gets the original content,
//! degraded but fast.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sns_cache::CacheKey;
use sns_cache::VirtualCache;
use sns_core::frontend::{Action, FeEvent, ReqState, SvcView};
use sns_core::msg::{JobResult, ProfileData};
use sns_core::{payload_as, AppData, ServiceLogic, WorkerClass};
use sns_tacc::cache_worker::{CacheGet, CacheGetResult, CacheInject, CacheWorker};
use sns_tacc::content::ContentObject;
use sns_tacc::origin::{FetchRequest, OriginServer};
use sns_tacc::pipeline::PipelineSpec;
use sns_tacc::profile_worker::{ProfileGet, ProfilePut, ProfileReply, ProfileWorker};
use sns_tacc::worker::TaccArgs;
use sns_workload::MimeType;

/// A user-preference update request (the §3.1.4 service interface for
/// registering customisation settings).
#[derive(Debug, Clone)]
pub struct PrefUpdate {
    /// Settings to upsert for the requesting user.
    pub settings: Vec<(String, String)>,
}

impl AppData for PrefUpdate {
    fn wire_size(&self) -> u64 {
        self.settings
            .iter()
            .map(|(k, v)| (k.len() + v.len() + 8) as u64)
            .sum::<u64>()
            + 16
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct TranSendConfig {
    /// Objects below this size pass through undistilled (§4.1: "data
    /// under 1 KB is transferred to the client unmodified").
    pub distill_threshold: u64,
    /// Default distillation arguments (overridden per user by profiles).
    pub defaults: BTreeMap<String, String>,
    /// Profile-cache capacity (entries).
    pub profile_cache_cap: usize,
    /// Whether post-transformation content is cached (§4.6 turns this
    /// off to force re-distillation on every request).
    pub cache_distilled: bool,
}

impl Default for TranSendConfig {
    fn default() -> Self {
        let mut defaults = BTreeMap::new();
        defaults.insert("scale".to_string(), "2".to_string());
        defaults.insert("quality".to_string(), "25".to_string());
        TranSendConfig {
            distill_threshold: 1024,
            defaults,
            profile_cache_cap: 4096,
            cache_distilled: true,
        }
    }
}

/// A request for an aggregation service (§5.1: the Bay Area Culture
/// Page, metasearch): fetch the named sources from the wide area, then
/// collate them with the named aggregator worker.
#[derive(Debug, Clone)]
pub struct AggregateServiceRequest {
    /// Aggregator worker name (class becomes `aggregator/<name>`).
    pub aggregator: String,
    /// Pages to fetch and feed to the aggregator.
    pub sources: Vec<FetchRequest>,
    /// Service arguments delivered to the aggregator (query, month, …).
    pub args: BTreeMap<String, String>,
}

impl AppData for AggregateServiceRequest {
    fn wire_size(&self) -> u64 {
        self.aggregator.len() as u64 + self.sources.iter().map(|s| s.wire_size()).sum::<u64>() + 32
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// Dispatch tags.
const TAG_PROFILE: u64 = 1;
const TAG_CACHE_FINAL: u64 = 2;
const TAG_CACHE_ORIG: u64 = 3;
const TAG_ORIGIN: u64 = 4;
const TAG_INJECT: u64 = 5;
const TAG_PREF: u64 = 6;
const TAG_DISTILL0: u64 = 16;
const TAG_AGGREGATE: u64 = 8;
const TAG_AGG_FETCH0: u64 = 1024;

/// Aggregation-request state stored in [`ReqState::data`].
struct TsAgg {
    request: AggregateServiceRequest,
    fetched: Vec<Option<ContentObject>>,
    remaining: usize,
}

/// Per-request state stored in [`ReqState::data`].
struct TsState {
    fetch: FetchRequest,
    profile: Option<ProfileData>,
    pipeline: PipelineSpec,
    args: TaccArgs,
    stage: usize,
    original: Option<ContentObject>,
}

/// The TranSend service logic.
pub struct TranSendLogic {
    cfg: TranSendConfig,
    vcache: VirtualCache<sns_sim::ComponentId>,
    profile_cache: BTreeMap<String, Option<ProfileData>>,
    profile_order: VecDeque<String>,
}

impl TranSendLogic {
    /// Creates the logic.
    pub fn new(cfg: TranSendConfig) -> Self {
        TranSendLogic {
            cfg,
            vcache: VirtualCache::new(),
            profile_cache: BTreeMap::new(),
            profile_order: VecDeque::new(),
        }
    }

    /// Syncs the consistent-hash ring with the live cache-worker set from
    /// the latest beacon ("automatically re-hashing when cache nodes are
    /// added or removed", §3.1.5).
    fn refresh_ring(&mut self, view: &SvcView<'_, '_>) {
        let mut live = view.stub.workers_of(&WorkerClass::new(CacheWorker::CLASS));
        live.sort();
        let current: Vec<_> = self.vcache.partitions().to_vec();
        for gone in current.iter().filter(|p| !live.contains(p)) {
            self.vcache.remove_partition(gone);
        }
        for fresh in live.iter().filter(|p| !current.contains(p)) {
            self.vcache.add_partition(*fresh);
        }
    }

    fn cache_profile(&mut self, user: &str, profile: Option<ProfileData>) {
        if !self.profile_cache.contains_key(user) {
            self.profile_order.push_back(user.to_string());
            if self.profile_order.len() > self.cfg.profile_cache_cap {
                if let Some(victim) = self.profile_order.pop_front() {
                    self.profile_cache.remove(&victim);
                }
            }
        }
        self.profile_cache.insert(user.to_string(), profile);
    }

    fn plan(&self, st: &mut TsState) {
        let args = TaccArgs::merged(&self.cfg.defaults, st.profile.as_ref());
        let mut pipeline = match st.fetch.mime {
            MimeType::Gif => PipelineSpec::single("gif"),
            MimeType::Jpeg => PipelineSpec::single("jpeg"),
            MimeType::Html => PipelineSpec::single("html"),
            MimeType::Other => PipelineSpec::identity(),
        };
        // Per-user composition: a keyword filter chains after the HTML
        // munger when the profile asks for it (§5.1).
        if st.fetch.mime == MimeType::Html && args.get("keywords").is_some() {
            pipeline = pipeline.then("keyword");
        }
        // Thin clients get the spoon-feeding simplifier as a final stage
        // (§5.1 "Real Web Access for PDAs and Smart Phones").
        if st.fetch.mime == MimeType::Html && args.get("device") == Some("palm") {
            pipeline = pipeline.then("pda");
        }
        if st.fetch.size < self.cfg.distill_threshold || args.get_bool("originals", false) {
            pipeline = PipelineSpec::identity();
        }
        st.args = args;
        st.pipeline = pipeline;
    }

    fn final_key(st: &TsState) -> CacheKey {
        let v = st.pipeline.final_variant(&st.args);
        if st.pipeline.is_empty() {
            CacheKey::original(&st.fetch.url)
        } else {
            CacheKey::variant(&st.fetch.url, v)
        }
    }

    fn cache_get(&self, key: CacheKey, tag: u64, out: &mut Vec<Action>) -> bool {
        let Some(&worker) = self.vcache.route(&key) else {
            return false;
        };
        out.push(Action::DispatchTo {
            tag,
            worker,
            class: CacheWorker::CLASS.into(),
            op: "get".into(),
            input: Arc::new(CacheGet { key }),
            profile: None,
        });
        true
    }

    fn cache_inject(&self, key: CacheKey, object: ContentObject, out: &mut Vec<Action>) {
        if let Some(&worker) = self.vcache.route(&key) {
            out.push(Action::DispatchTo {
                tag: TAG_INJECT,
                worker,
                class: CacheWorker::CLASS.into(),
                op: "inject".into(),
                input: Arc::new(CacheInject { key, object }),
                profile: None,
            });
        }
    }

    fn fetch_origin(st: &TsState, out: &mut Vec<Action>) {
        out.push(Action::Dispatch {
            tag: TAG_ORIGIN,
            class: OriginServer::CLASS.into(),
            op: "fetch".into(),
            input: Arc::new(st.fetch.clone()),
            profile: None,
        });
    }

    fn dispatch_stage(st: &TsState, input: ContentObject, out: &mut Vec<Action>) {
        let stage_name = &st.pipeline.stages()[st.stage];
        out.push(Action::Dispatch {
            tag: TAG_DISTILL0 + st.stage as u64,
            class: WorkerClass::new(format!("distiller/{stage_name}")),
            op: "transform".into(),
            input: input.into_payload(),
            profile: Some(Arc::new(st.args.as_map().clone())),
        });
    }

    /// Entry point once the profile is resolved: plan and start lookups.
    fn start_processing(
        &mut self,
        st: &mut TsState,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        self.plan(st);
        self.refresh_ring(view);
        if !self.cfg.cache_distilled && !st.pipeline.is_empty() {
            // Distilled variants are not cached: look up the original and
            // re-distill per request (the §4.6 measurement mode).
            let key = CacheKey::original(&st.fetch.url);
            if self.cache_get(key, TAG_CACHE_ORIG, out) {
                return;
            }
        } else {
            let key = Self::final_key(st);
            if self.cache_get(key, TAG_CACHE_FINAL, out) {
                return;
            }
        }
        // No cache workers known (bootstrap or total cache loss): the
        // cache is only an optimisation — go straight to the origin.
        view.stats().incr("ts.no_cache_available", 1);
        Self::fetch_origin(st, out);
    }

    /// The original object is in hand: distill or reply.
    fn have_original(
        &mut self,
        st: &mut TsState,
        obj: ContentObject,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        st.original = Some(obj.clone());
        if st.pipeline.is_empty() {
            view.stats().incr("ts.passthrough", 1);
            view.stats().observe("ts.response_bytes", obj.len() as f64);
            out.push(Action::Reply(Ok(obj.into_payload())));
            return;
        }
        st.stage = 0;
        Self::dispatch_stage(st, obj, out);
    }

    /// Drives an aggregation request: collect fetches, run the
    /// aggregator, reply. Missing sources are tolerated (BASE
    /// approximate answers — the culture page is useful even when a
    /// source site is down).
    #[allow(clippy::too_many_arguments)]
    fn on_agg_event(
        &mut self,
        req: &mut ReqState,
        mut st: TsAgg,
        tag: u64,
        reply: Option<&JobResult>,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        if tag >= TAG_AGG_FETCH0 {
            let i = (tag - TAG_AGG_FETCH0) as usize;
            if i < st.fetched.len() && st.fetched[i].is_none() {
                st.remaining -= 1;
                if let Some(JobResult::Ok(p)) = reply {
                    st.fetched[i] = ContentObject::from_payload(p).cloned();
                } else {
                    view.stats().incr("ts.agg_source_missing", 1);
                    out.push(Action::MarkDegraded);
                }
            }
            if st.remaining == 0 {
                let inputs: Vec<ContentObject> = st.fetched.iter().flatten().cloned().collect();
                if inputs.is_empty() {
                    view.stats().incr("ts.errors", 1);
                    out.push(Action::Reply(Err("no sources reachable".into())));
                } else {
                    out.push(Action::Dispatch {
                        tag: TAG_AGGREGATE,
                        class: WorkerClass::new(format!("aggregator/{}", st.request.aggregator)),
                        op: "aggregate".into(),
                        input: Arc::new(sns_tacc::worker::AggregateRequest { inputs }),
                        profile: Some(Arc::new(st.request.args.clone())),
                    });
                }
            }
            req.data = Some(Box::new(st));
            return;
        }
        if tag == TAG_AGGREGATE {
            match reply {
                Some(JobResult::Ok(p)) => {
                    view.stats().incr("ts.agg_answers", 1);
                    out.push(Action::Reply(Ok(p.clone())));
                }
                _ => {
                    view.stats().incr("ts.errors", 1);
                    out.push(Action::Reply(Err("aggregator unavailable".into())));
                }
            }
        }
        req.data = Some(Box::new(st));
    }

    fn reply_original_degraded(
        st: &TsState,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
        why: &str,
    ) {
        if let Some(orig) = &st.original {
            view.stats().incr("ts.fallback_original", 1);
            view.stats().observe("ts.response_bytes", orig.len() as f64);
            out.push(Action::MarkDegraded);
            out.push(Action::Reply(Ok(orig.clone().into_payload())));
        } else {
            view.stats().incr("ts.errors", 1);
            out.push(Action::Reply(Err(format!("service degraded: {why}"))));
        }
    }
}

impl ServiceLogic for TranSendLogic {
    fn on_request(
        &mut self,
        req: &mut ReqState,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        view.stats().incr("ts.requests", 1);
        // Preference updates go to the ACID database (§3.1.4).
        if let Some(body) = &req.request.body {
            if let Some(update) = payload_as::<PrefUpdate>(body) {
                self.profile_cache.remove(&req.request.user);
                out.push(Action::Dispatch {
                    tag: TAG_PREF,
                    class: ProfileWorker::CLASS.into(),
                    op: "put".into(),
                    input: Arc::new(ProfilePut {
                        user: req.request.user.clone(),
                        settings: update.settings.clone(),
                    }),
                    profile: None,
                });
                return;
            }
        }
        if let Some(body) = &req.request.body {
            if let Some(agg) = payload_as::<AggregateServiceRequest>(body).cloned() {
                // Aggregation service (§5.1): fan out the source fetches.
                view.stats().incr("ts.agg_requests", 1);
                let n = agg.sources.len();
                for (i, src) in agg.sources.iter().enumerate() {
                    out.push(Action::Dispatch {
                        tag: TAG_AGG_FETCH0 + i as u64,
                        class: OriginServer::CLASS.into(),
                        op: "fetch".into(),
                        input: Arc::new(src.clone()),
                        profile: None,
                    });
                }
                req.data = Some(Box::new(TsAgg {
                    request: agg,
                    fetched: vec![None; n],
                    remaining: n,
                }));
                return;
            }
        }
        let fetch = req
            .request
            .body
            .as_ref()
            .and_then(|b| payload_as::<FetchRequest>(b).cloned())
            .unwrap_or(FetchRequest {
                url: req.request.url.clone(),
                mime: MimeType::Other,
                size: 8 * 1024,
            });
        let mut st = TsState {
            fetch,
            profile: None,
            pipeline: PipelineSpec::identity(),
            args: TaccArgs::default(),
            stage: 0,
            original: None,
        };
        // Profile: write-through cache absorbs reads (§3.1.4).
        if let Some(cached) = self.profile_cache.get(&req.request.user) {
            view.stats().incr("ts.profile_cache_hits", 1);
            st.profile = cached.clone();
            self.start_processing(&mut st, view, out);
        } else if !view
            .stub
            .workers_of(&WorkerClass::new(ProfileWorker::CLASS))
            .is_empty()
        {
            out.push(Action::Dispatch {
                tag: TAG_PROFILE,
                class: ProfileWorker::CLASS.into(),
                op: "get".into(),
                input: Arc::new(ProfileGet {
                    user: req.request.user.clone(),
                }),
                profile: None,
            });
        } else {
            // No profile DB reachable: default preferences (BASE — the
            // ACID island being down degrades, not fails, the service).
            view.stats().incr("ts.profile_unavailable", 1);
            self.start_processing(&mut st, view, out);
        }
        req.data = Some(Box::new(st));
    }

    fn on_event(
        &mut self,
        req: &mut ReqState,
        ev: FeEvent<'_>,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        // Preference-update acks carry no TsState.
        let (tag, reply): (u64, Option<&JobResult>) = match &ev {
            FeEvent::WorkerReply { tag, result } => (*tag, Some(result)),
            FeEvent::DispatchFailed { tag, .. } => (*tag, None),
            FeEvent::ComputeDone { tag } => (*tag, None),
        };
        if tag == TAG_PREF {
            let ok = matches!(reply, Some(JobResult::Ok(_)));
            out.push(if ok {
                view.stats().incr("ts.pref_updates", 1);
                Action::Reply(Ok(ContentObject::text(
                    "transend://prefs",
                    MimeType::Html,
                    "<html><body>preferences saved</body></html>",
                )
                .into_payload()))
            } else {
                Action::Reply(Err("preference update failed".into()))
            });
            return;
        }
        if tag == TAG_INJECT {
            return; // fire-and-forget
        }
        let Some(data) = req.data.take() else {
            return;
        };
        let mut st = match data.downcast::<TsState>() {
            Ok(st) => st,
            Err(other) => {
                if let Ok(agg) = other.downcast::<TsAgg>() {
                    self.on_agg_event(req, *agg, tag, reply, view, out);
                }
                return;
            }
        };
        match (tag, reply) {
            (TAG_PROFILE, Some(JobResult::Ok(p))) => {
                let profile = payload_as::<ProfileReply>(p).and_then(|r| r.profile.clone());
                self.cache_profile(&req.request.user, profile.clone());
                st.profile = profile;
                self.start_processing(&mut st, view, out);
            }
            (TAG_PROFILE, _) => {
                // Failed or timed out: default preferences, degraded.
                view.stats().incr("ts.profile_unavailable", 1);
                self.start_processing(&mut st, view, out);
            }
            (TAG_CACHE_FINAL, Some(JobResult::Ok(p))) => {
                let hit = payload_as::<CacheGetResult>(p).and_then(|r| r.object.clone());
                match hit {
                    Some(obj) => {
                        view.stats().incr("ts.cache_hit_final", 1);
                        view.stats().observe("ts.response_bytes", obj.len() as f64);
                        out.push(Action::Reply(Ok(obj.into_payload())));
                    }
                    None if st.pipeline.is_empty() => {
                        view.stats().incr("ts.cache_miss", 1);
                        Self::fetch_origin(&st, out);
                    }
                    None => {
                        view.stats().incr("ts.cache_miss", 1);
                        let key = CacheKey::original(&st.fetch.url);
                        if !self.cache_get(key, TAG_CACHE_ORIG, out) {
                            Self::fetch_origin(&st, out);
                        }
                    }
                }
            }
            (TAG_CACHE_FINAL, _) => {
                // Cache timeout/failure = miss (caching is an
                // optimisation, §3.1.5).
                view.stats().incr("ts.cache_unavailable", 1);
                Self::fetch_origin(&st, out);
            }
            (TAG_CACHE_ORIG, Some(JobResult::Ok(p))) => {
                let hit = payload_as::<CacheGetResult>(p).and_then(|r| r.object.clone());
                match hit {
                    Some(obj) => {
                        view.stats().incr("ts.cache_hit_orig", 1);
                        self.have_original(&mut st, obj, view, out);
                    }
                    None => Self::fetch_origin(&st, out),
                }
            }
            (TAG_CACHE_ORIG, _) => {
                view.stats().incr("ts.cache_unavailable", 1);
                Self::fetch_origin(&st, out);
            }
            (TAG_ORIGIN, Some(JobResult::Ok(p))) => {
                let Some(obj) = ContentObject::from_payload(p).cloned() else {
                    out.push(Action::Reply(Err("origin returned garbage".into())));
                    req.data = Some(st);
                    return;
                };
                view.stats().incr("ts.origin_fetches", 1);
                self.refresh_ring(view);
                self.cache_inject(CacheKey::original(&st.fetch.url), obj.clone(), out);
                self.have_original(&mut st, obj, view, out);
            }
            (TAG_ORIGIN, _) => {
                Self::reply_original_degraded(&st, view, out, "origin unreachable");
            }
            (t, Some(JobResult::Ok(p))) if t >= TAG_DISTILL0 => {
                let Some(obj) = ContentObject::from_payload(p).cloned() else {
                    Self::reply_original_degraded(&st, view, out, "distiller garbage");
                    req.data = Some(st);
                    return;
                };
                st.stage += 1;
                if st.stage < st.pipeline.len() {
                    Self::dispatch_stage(&st, obj, out);
                } else {
                    view.stats().incr("ts.distilled", 1);
                    if let Some(orig) = &st.original {
                        let saved = orig.len().saturating_sub(obj.len());
                        view.stats().observe("ts.bytes_saved", saved as f64);
                    }
                    view.stats().observe("ts.response_bytes", obj.len() as f64);
                    if self.cfg.cache_distilled {
                        self.refresh_ring(view);
                        self.cache_inject(Self::final_key(&st), obj.clone(), out);
                    }
                    out.push(Action::Reply(Ok(obj.into_payload())));
                }
            }
            (t, Some(JobResult::Failed(_)) | None) if t >= TAG_DISTILL0 => {
                // Distiller failed or timed out after retries: the user
                // gets the original — an approximate answer delivered
                // quickly beats an exact answer delivered slowly
                // (§3.1.8).
                Self::reply_original_degraded(&st, view, out, "distiller unavailable");
            }
            _ => {}
        }
        req.data = Some(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_selects_pipeline_by_mime_and_threshold() {
        let logic = TranSendLogic::new(TranSendConfig::default());
        let mk = |mime, size| TsState {
            fetch: FetchRequest {
                url: "u".into(),
                mime,
                size,
            },
            profile: None,
            pipeline: PipelineSpec::identity(),
            args: TaccArgs::default(),
            stage: 0,
            original: None,
        };
        let mut st = mk(MimeType::Gif, 10_000);
        logic.plan(&mut st);
        assert_eq!(st.pipeline.stages(), &["gif"]);
        let mut st = mk(MimeType::Jpeg, 10_000);
        logic.plan(&mut st);
        assert_eq!(st.pipeline.stages(), &["jpeg"]);
        let mut st = mk(MimeType::Other, 10_000);
        logic.plan(&mut st);
        assert!(st.pipeline.is_empty());
        // Below the 1 KB threshold: pass through unmodified (§4.1).
        let mut st = mk(MimeType::Gif, 600);
        logic.plan(&mut st);
        assert!(st.pipeline.is_empty());
    }

    #[test]
    fn keyword_filter_chains_for_users_with_keywords() {
        let logic = TranSendLogic::new(TranSendConfig::default());
        let mut profile = BTreeMap::new();
        profile.insert("keywords".to_string(), "rust".to_string());
        let mut st = TsState {
            fetch: FetchRequest {
                url: "u".into(),
                mime: MimeType::Html,
                size: 8_000,
            },
            profile: Some(Arc::new(profile)),
            pipeline: PipelineSpec::identity(),
            args: TaccArgs::default(),
            stage: 0,
            original: None,
        };
        logic.plan(&mut st);
        assert_eq!(st.pipeline.stages(), &["html", "keyword"]);
    }

    #[test]
    fn final_key_is_original_for_identity_pipeline() {
        let logic = TranSendLogic::new(TranSendConfig::default());
        let mut st = TsState {
            fetch: FetchRequest {
                url: "http://x/tiny.gif".into(),
                mime: MimeType::Gif,
                size: 100,
            },
            profile: None,
            pipeline: PipelineSpec::identity(),
            args: TaccArgs::default(),
            stage: 0,
            original: None,
        };
        logic.plan(&mut st);
        let key = TranSendLogic::final_key(&st);
        assert_eq!(key, CacheKey::original("http://x/tiny.gif"));
        // And distinct variants for distilled content.
        let mut st2 = TsState {
            fetch: FetchRequest {
                url: "http://x/big.gif".into(),
                mime: MimeType::Gif,
                size: 10_000,
            },
            profile: None,
            pipeline: PipelineSpec::identity(),
            args: TaccArgs::default(),
            stage: 0,
            original: None,
        };
        logic.plan(&mut st2);
        let key2 = TranSendLogic::final_key(&st2);
        assert_ne!(key2.variant, 0);
    }
}

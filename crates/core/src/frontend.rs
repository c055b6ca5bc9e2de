//! The front-end framework (§2.2.1, §3.1.1): request shepherding over a
//! bounded thread pool, service-specific dispatch logic, and process-peer
//! supervision of the manager.
//!
//! "The static partitioning of functionality between front ends and
//! workers reflects our desire to keep workers as simple as possible, by
//! localizing in the front ends the control decisions associated with
//! satisfying user requests." A service plugs in a [`ServiceLogic`]: a
//! per-request state machine that reacts to request arrival, worker
//! replies, dispatch failures and local compute completions by emitting
//! [`Action`]s. The framework handles everything else: thread
//! accounting, per-request TCP/kernel overhead, dispatch timeouts and
//! retries (via the embedded [`ManagerStub`]), manager registration and
//! manager restart.

use std::any::Any;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use sns_sim::engine::{Component, Ctx};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, GroupId};

use crate::monitor::MonitorEvent;
use crate::msg::{ClientRequest, ClientResponse, JobResult, ProfileData, SnsMsg};
use crate::stub::{ManagerStub, TimeoutVerdict};
use crate::trace;
use crate::{Payload, SnsConfig, WorkerClass};

/// What service logic can ask the framework to do.
#[derive(Debug)]
pub enum Action {
    /// Dispatch a job to the best worker of a class (lottery + retries).
    Dispatch {
        /// Service-chosen correlation tag (unique per request).
        tag: u64,
        /// Worker class.
        class: WorkerClass,
        /// Worker operation.
        op: String,
        /// Input payload.
        input: Payload,
        /// Profile delivered with the job (§2.3).
        profile: Option<ProfileData>,
    },
    /// Dispatch a job to one specific worker (cache-ring routing,
    /// partition fan-out). No automatic retry.
    DispatchTo {
        /// Correlation tag.
        tag: u64,
        /// Target worker.
        worker: ComponentId,
        /// Worker class (for bookkeeping).
        class: WorkerClass,
        /// Worker operation.
        op: String,
        /// Input payload.
        input: Payload,
        /// Profile delivered with the job.
        profile: Option<ProfileData>,
    },
    /// Burn local front-end CPU (page assembly, parsing).
    Compute {
        /// Correlation tag.
        tag: u64,
        /// CPU time.
        cost: Duration,
    },
    /// Finish the request.
    Reply(Result<Payload, String>),
    /// Flag the eventual response as degraded (approximate answer,
    /// §3.1.8).
    MarkDegraded,
}

/// Framework-maintained per-request state handed to the service logic.
pub struct ReqState {
    /// The original client request.
    pub request: Arc<ClientRequest>,
    /// Service-private state (parsed plan, partial results, …).
    pub data: Option<Box<dyn Any + Send>>,
    /// Set by [`Action::MarkDegraded`].
    pub degraded: bool,
    /// When the framework started processing.
    pub started: SimTime,
    client: ComponentId,
    /// Head-sampling decision, made once on arrival and gating every
    /// span of this request (see `crate::trace::Sampling`).
    sampled: bool,
}

/// Context available to service-logic callbacks: the clock, the RNG and
/// stats sink, and a read-only view of the hint cache.
pub struct SvcView<'a, 'k> {
    /// Current time.
    pub now: SimTime,
    /// The hint cache (worker membership, estimates).
    pub stub: &'a ManagerStub,
    ctx: &'a mut Ctx<'k, SnsMsg>,
}

impl<'a, 'k> SvcView<'a, 'k> {
    /// Deterministic RNG stream.
    pub fn rng(&mut self) -> &mut Pcg32 {
        self.ctx.rng()
    }

    /// The shared measurement sink.
    pub fn stats(&mut self) -> &mut sns_sim::stats::StatsHub {
        self.ctx.stats()
    }
}

/// Events delivered to service logic about one of its dispatches.
#[derive(Debug)]
pub enum FeEvent<'a> {
    /// A worker answered.
    WorkerReply {
        /// The dispatch's tag.
        tag: u64,
        /// The result.
        result: &'a JobResult,
    },
    /// A dispatch failed permanently (timeout after retries, or a pinned
    /// worker timed out). The service layer decides the fallback
    /// (§2.2.4).
    DispatchFailed {
        /// The dispatch's tag.
        tag: u64,
        /// The class it targeted.
        class: WorkerClass,
    },
    /// An [`Action::Compute`] finished.
    ComputeDone {
        /// The compute's tag.
        tag: u64,
    },
}

/// Service-specific front-end behaviour: a per-request state machine.
pub trait ServiceLogic: Send {
    /// A request arrived and holds a thread; emit initial actions.
    fn on_request(&mut self, req: &mut ReqState, view: &mut SvcView<'_, '_>, out: &mut Vec<Action>);

    /// Something happened to one of this request's dispatches/computes.
    fn on_event(
        &mut self,
        req: &mut ReqState,
        ev: FeEvent<'_>,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    );
}

/// Builds a replacement manager with the given incarnation (front ends
/// are the manager's process peers, §3.1.3).
pub type ManagerFactory = Box<dyn FnMut(u64) -> Box<dyn Component<SnsMsg>> + Send>;

/// Front-end wiring configuration.
pub struct FeConfig {
    /// Layer knobs.
    pub sns: SnsConfig,
    /// Beacon multicast group.
    pub beacon_group: GroupId,
    /// Monitor multicast group.
    pub monitor_group: GroupId,
    /// Factory to restart a dead manager; `None` disables supervision.
    pub manager_factory: Option<ManagerFactory>,
}

// Timer-token spaces.
const KIND_SHIFT: u32 = 56;
const K_HEALTH: u64 = 1 << KIND_SHIFT;
const K_OVERHEAD: u64 = 2 << KIND_SHIFT;
const K_COMPUTE: u64 = 3 << KIND_SHIFT;
const K_DISPATCH: u64 = 4 << KIND_SHIFT;
const ID_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// The front-end component.
pub struct FrontEnd {
    cfg: FeConfig,
    logic: Box<dyn ServiceLogic>,
    stub: ManagerStub,
    requests: BTreeMap<u64, ReqState>,
    /// job id → (request, tag).
    jobs: BTreeMap<u64, (u64, u64)>,
    /// compute token id → (request, tag, when requested).
    computes: BTreeMap<u64, (u64, u64, SimTime)>,
    accept_queue: VecDeque<(ComponentId, Arc<ClientRequest>)>,
    active: u32,
    next_req: u64,
    next_compute: u64,
    registered_incarnation: Option<u64>,
    restart_pending: bool,
}

impl FrontEnd {
    /// Creates a front end around service logic.
    pub fn new(logic: Box<dyn ServiceLogic>, cfg: FeConfig) -> Self {
        let stub = ManagerStub::new(cfg.sns.clone());
        FrontEnd {
            cfg,
            logic,
            stub,
            requests: BTreeMap::new(),
            jobs: BTreeMap::new(),
            computes: BTreeMap::new(),
            accept_queue: VecDeque::new(),
            active: 0,
            next_req: 1,
            next_compute: 1,
            registered_incarnation: None,
            restart_pending: false,
        }
    }

    /// Disables the §4.5 delta correction (ablation experiments).
    pub fn set_delta_correction(&mut self, on: bool) {
        self.stub.set_delta_correction(on);
    }

    /// Requests currently holding a thread.
    pub fn active_requests(&self) -> u32 {
        self.active
    }

    /// The span context dispatches of `req_id` carry: its request span
    /// as parent and its stored head-sampling decision.
    fn span_ctx(&self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64) -> trace::SpanCtx {
        let sampled = self
            .requests
            .get(&req_id)
            .map(|req| req.sampled)
            .unwrap_or(true);
        trace::SpanCtx::under(trace::request_span_id(ctx.me(), req_id), sampled)
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, SnsMsg>, client: ComponentId, r: Arc<ClientRequest>) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.active += 1;
        let now = ctx.now();
        // The head-sampling decision: made exactly once, here, where the
        // request enters the system; everything downstream (overhead,
        // compute, dispatch, worker queue/service spans) inherits it.
        let sampled = ctx.tracer().decide(req_id);
        self.requests.insert(
            req_id,
            ReqState {
                request: r,
                data: None,
                degraded: false,
                started: now,
                client,
                sampled,
            },
        );
        // Per-request TCP/kernel overhead occupies the FE's CPU first
        // (the §4.4 state-management cost).
        ctx.exec_cpu(self.cfg.sns.fe_request_overhead, K_OVERHEAD | req_id);
    }

    fn run_logic<F>(&mut self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64, f: F)
    where
        F: FnOnce(&mut dyn ServiceLogic, &mut ReqState, &mut SvcView<'_, '_>, &mut Vec<Action>),
    {
        let Some(mut req) = self.requests.remove(&req_id) else {
            return;
        };
        let mut out = Vec::new();
        {
            let mut view = SvcView {
                now: ctx.now(),
                stub: &self.stub,
                ctx,
            };
            f(self.logic.as_mut(), &mut req, &mut view, &mut out);
        }
        self.requests.insert(req_id, req);
        self.apply(ctx, req_id, out);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64, actions: Vec<Action>) {
        for action in actions {
            if !self.requests.contains_key(&req_id) {
                // A Reply already finished this request; drop the rest.
                break;
            }
            match action {
                Action::Dispatch {
                    tag,
                    class,
                    op,
                    input,
                    profile,
                } => {
                    let span = self.span_ctx(ctx, req_id);
                    let job_id = self.stub.dispatch(ctx, class, op, input, profile, span);
                    self.jobs.insert(job_id, (req_id, tag));
                    ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | job_id);
                }
                Action::DispatchTo {
                    tag,
                    worker,
                    class,
                    op,
                    input,
                    profile,
                } => {
                    let span = self.span_ctx(ctx, req_id);
                    let job_id = self
                        .stub
                        .dispatch_to(ctx, worker, class, op, input, profile, span);
                    self.jobs.insert(job_id, (req_id, tag));
                    ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | job_id);
                }
                Action::Compute { tag, cost } => {
                    let cid = self.next_compute;
                    self.next_compute += 1;
                    self.computes.insert(cid, (req_id, tag, ctx.now()));
                    ctx.exec_cpu(cost, K_COMPUTE | cid);
                }
                Action::MarkDegraded => {
                    if let Some(req) = self.requests.get_mut(&req_id) {
                        req.degraded = true;
                    }
                }
                Action::Reply(result) => {
                    let Some(req) = self.requests.remove(&req_id) else {
                        continue;
                    };
                    let now = ctx.now();
                    if req.sampled && ctx.tracer().is_enabled() {
                        let me = ctx.me();
                        let bytes = result.as_ref().map(|p| p.wire_size()).unwrap_or(0);
                        ctx.tracer().record(trace::span(
                            trace::request_span_id(me, req_id),
                            None,
                            trace::REQUEST,
                            trace::CAT_FE,
                            me,
                            "",
                            req.started,
                            now,
                            bytes,
                            result.is_ok(),
                        ));
                    }
                    let latency = now.since(req.started);
                    ctx.stats().observe("fe.latency_s", latency.as_secs_f64());
                    ctx.stats().incr("fe.replies", 1);
                    if req.degraded {
                        ctx.stats().incr("fe.degraded_replies", 1);
                    }
                    if result.is_err() {
                        ctx.stats().incr("fe.error_replies", 1);
                    }
                    ctx.send(
                        req.client,
                        SnsMsg::Response(Arc::new(ClientResponse {
                            id: req.request.id,
                            result,
                            degraded: req.degraded,
                        })),
                    );
                    self.active -= 1;
                    // Free thread: admit a queued connection.
                    if let Some((client, r)) = self.accept_queue.pop_front() {
                        self.begin(ctx, client, r);
                    }
                }
            }
        }
    }

    fn health_check(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        let now = ctx.now();
        let quiet = match self.stub.last_beacon() {
            None => false, // never seen one; bootstrap, nothing to restart
            Some(t) => now.since(t) > self.cfg.sns.beacon_loss_timeout,
        };
        if quiet && !self.restart_pending {
            if let Some(factory) = self.cfg.manager_factory.as_mut() {
                // Beacons stopped: the manager is presumed dead; restart
                // it with a fresh incarnation (process peers, §3.1.3).
                let inc = self.stub.incarnation() + 1;
                let comp = factory(inc);
                let node = ctx.my_node();
                if ctx.spawn(node, comp, "manager").is_some() {
                    self.restart_pending = true;
                    ctx.stats().incr("fe.manager_restarts", 1);
                    let me = ctx.me();
                    ctx.multicast(
                        self.cfg.monitor_group,
                        SnsMsg::Monitor(Arc::new(MonitorEvent::PeerRestarted {
                            by: me,
                            kind: "manager",
                        })),
                    );
                }
            }
        }
        let me = ctx.me();
        let load = f64::from(self.active);
        ctx.multicast(
            self.cfg.monitor_group,
            SnsMsg::Monitor(Arc::new(MonitorEvent::Heartbeat {
                who: me,
                kind: "frontend",
                load,
            })),
        );
        ctx.timer(self.cfg.sns.beacon_period, K_HEALTH);
    }
}

impl Component<SnsMsg> for FrontEnd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.stub.set_tracing(ctx.tracer().is_enabled());
        self.stub.set_sampling(ctx.tracer().sampling());
        ctx.join(self.cfg.beacon_group);
        let me = ctx.me();
        let node = ctx.my_node();
        ctx.multicast(
            self.cfg.monitor_group,
            SnsMsg::Monitor(Arc::new(MonitorEvent::Started {
                who: me,
                kind: "frontend",
                node,
            })),
        );
        ctx.timer(self.cfg.sns.beacon_period, K_HEALTH);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::Request(r) => {
                ctx.stats().incr("fe.requests", 1);
                if self.active >= self.cfg.sns.fe_threads {
                    ctx.stats().incr("fe.queued", 1);
                    self.accept_queue.push_back((from, r));
                } else {
                    self.begin(ctx, from, r);
                }
            }
            SnsMsg::Beacon(b) => {
                let new_manager = self.stub.on_beacon(&b);
                self.restart_pending = false;
                if new_manager || self.registered_incarnation != Some(b.incarnation) {
                    self.registered_incarnation = Some(b.incarnation);
                    let me = ctx.me();
                    let node = ctx.my_node();
                    ctx.send(b.manager, SnsMsg::RegisterFrontEnd { fe: me, node });
                }
                self.stub.flush_pending(ctx);
            }
            SnsMsg::WorkResponse { job_id, result, .. } => {
                if self.stub.on_response(ctx, job_id).is_none() {
                    return; // late duplicate after timeout
                }
                let Some(&(req_id, tag)) = self.jobs.get(&job_id) else {
                    return;
                };
                self.jobs.remove(&job_id);
                self.run_logic(ctx, req_id, |logic, req, view, out| {
                    logic.on_event(
                        req,
                        FeEvent::WorkerReply {
                            tag,
                            result: &result,
                        },
                        view,
                        out,
                    );
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        let kind = token & !ID_MASK;
        let id = token & ID_MASK;
        match kind {
            K_HEALTH => self.health_check(ctx),
            K_DISPATCH => match self.stub.on_timeout(ctx, id) {
                TimeoutVerdict::Retried => {
                    ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | id);
                }
                TimeoutVerdict::GaveUp(class) => {
                    if let Some((req_id, tag)) = self.jobs.remove(&id) {
                        self.run_logic(ctx, req_id, |logic, req, view, out| {
                            logic.on_event(req, FeEvent::DispatchFailed { tag, class }, view, out);
                        });
                    }
                }
                TimeoutVerdict::Unknown => {}
            },
            _ => {}
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        let kind = token & !ID_MASK;
        let id = token & ID_MASK;
        match kind {
            K_OVERHEAD => {
                if ctx.tracer().is_enabled() {
                    if let Some(req) = self.requests.get(&id).filter(|req| req.sampled) {
                        let me = ctx.me();
                        ctx.tracer().record(trace::span(
                            trace::overhead_span_id(me, id),
                            Some(trace::request_span_id(me, id)),
                            trace::OVERHEAD,
                            trace::CAT_FE,
                            me,
                            "",
                            req.started,
                            ctx.now(),
                            0,
                            true,
                        ));
                    }
                }
                self.run_logic(ctx, id, |logic, req, view, out| {
                    logic.on_request(req, view, out);
                });
            }
            K_COMPUTE => {
                if let Some((req_id, tag, started)) = self.computes.remove(&id) {
                    let sampled = self
                        .requests
                        .get(&req_id)
                        .map(|req| req.sampled)
                        .unwrap_or(false);
                    if sampled && ctx.tracer().is_enabled() {
                        let me = ctx.me();
                        ctx.tracer().record(trace::span(
                            trace::compute_span_id(me, id),
                            Some(trace::request_span_id(me, req_id)),
                            trace::COMPUTE,
                            trace::CAT_FE,
                            me,
                            "",
                            started,
                            ctx.now(),
                            0,
                            true,
                        ));
                    }
                    self.run_logic(ctx, req_id, |logic, req, view, out| {
                        logic.on_event(req, FeEvent::ComputeDone { tag }, view, out);
                    });
                }
            }
            _ => {}
        }
    }

    fn kind(&self) -> &'static str {
        "frontend"
    }
}

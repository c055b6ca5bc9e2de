//! Wall-clock driver for async service bodies: the **same futures**
//! the sim front end polls under virtual time, polled here on real
//! threads against a live [`RtCluster`].
//!
//! The split mirrors the sim adapter exactly — only the axis changes:
//!
//! | concern            | sim (`AsyncSvcLogic`)        | rt (this driver)            |
//! |--------------------|------------------------------|-----------------------------|
//! | clock              | `VirtualClock` ← `ctx.now()` | `WallClock` (monotonic)     |
//! | `Action::Dispatch` | framework lottery dispatch   | [`RtCluster::submit`]       |
//! | `Action::Nap`      | engine timer                 | deadline list + park        |
//! | wake-up            | engine event delivery        | executor condvar            |
//!
//! Bodies only dispatch by class ([`SvcHandle::dispatch`]); the live
//! cluster routes every job through the shared dispatch plane.

use std::collections::BTreeMap;
use std::sync::mpsc::TryRecvError;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle, SvcOp};
use sns_core::exec::{Clock as _, Executor, WallClock};
use sns_core::frontend::Action;
use sns_core::msg::{ClientRequest, JobResult};
use sns_core::{Payload, WorkerClass};

use crate::RtCluster;

/// How often the driver re-checks reply channels while parked (the
/// cluster's reply channels are plain `mpsc` and cannot signal the
/// executor's condvar).
const POLL_TICK: Duration = Duration::from_millis(1);

/// The served request's outcome plus the stats the body emitted (the
/// sim adapter writes these into the engine stats hub; here the caller
/// aggregates them).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The body's reply.
    pub result: Result<Payload, String>,
    /// Whether the body flagged the answer as degraded (BASE).
    pub degraded: bool,
    /// Counters the body incremented, by key.
    pub stats: BTreeMap<&'static str, u64>,
}

/// An in-flight dispatch: the awaited token, the class (reported on
/// failure, like `FeEvent::DispatchFailed`), and the reply channel.
struct InFlight {
    token: u64,
    class: WorkerClass,
    rx: mpsc::Receiver<JobResult>,
}

/// Serves one request: polls the body to completion against the live
/// cluster, blocking the calling thread (run one request per thread,
/// like the paper's FE thread pool).
pub fn serve<S: AsyncService>(
    cluster: &RtCluster,
    svc: &mut S,
    request: ClientRequest,
) -> ServeOutcome {
    let clock = WallClock::new();
    let handle = SvcHandle::new_request();
    let fut = svc.handle(Arc::new(request), handle.clone());
    let mut exec = Executor::new();
    let root = exec.spawn(fut);
    let ready = exec.ready_queue();

    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut naps: Vec<(u64, Instant)> = Vec::new();
    let mut stats: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut degraded = false;
    let mut reply: Option<Result<Payload, String>> = None;

    loop {
        handle.sync(clock.now());
        exec.run_ready();
        for op in handle.take_ops() {
            match op {
                SvcOp::Incr(key, n) => *stats.entry(key).or_insert(0) += n,
                SvcOp::Observe(_, _) => {}
                SvcOp::Act(act) => match act {
                    Action::Dispatch {
                        tag,
                        class,
                        op,
                        input,
                        profile,
                    } => {
                        let rx = cluster.submit(class.name(), &op, input, profile);
                        in_flight.push(InFlight {
                            token: tag,
                            class,
                            rx,
                        });
                    }
                    Action::Compute { tag, cost } => naps.push((tag, Instant::now() + cost)),
                    Action::Nap { tag, delay } => naps.push((tag, Instant::now() + delay)),
                    Action::MarkDegraded => degraded = true,
                    Action::Reply(r) => reply = reply.or(Some(r)),
                    Action::DispatchTo { .. } => unreachable!("SvcHandle only dispatches by class"),
                },
            }
        }
        if !exec.is_live(root) {
            break;
        }

        // Deliver whatever has arrived; filled slots wake the body, so
        // loop straight back into run_ready.
        let mut progressed = false;
        in_flight.retain(|f| match f.rx.try_recv() {
            Ok(result) => {
                progressed |= handle.fill(f.token, EventOutcome::Reply(result));
                false
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => {
                progressed |= handle.fill(f.token, EventOutcome::Failed(f.class.clone()));
                false
            }
        });
        let now = Instant::now();
        naps.retain(|&(token, deadline)| {
            if deadline <= now {
                progressed |= handle.fill(token, EventOutcome::Done);
                false
            } else {
                true
            }
        });
        if progressed {
            continue;
        }
        let park = naps
            .iter()
            .map(|&(_, t)| t.saturating_duration_since(now))
            .min()
            .unwrap_or(POLL_TICK)
            .min(POLL_TICK);
        ready.wait(park.max(Duration::from_micros(50)));
    }

    let result = if handle.replied() {
        reply.unwrap_or(Err("reply action lost".into()))
    } else {
        *stats.entry("exec.body_no_reply").or_insert(0) += 1;
        Err("service body returned without replying".into())
    };
    ServeOutcome {
        result,
        degraded,
        stats,
    }
}

//! Repeating one simulator workload within a run.

use std::time::Instant;

use crate::spans::Spans;
use crate::{stats, Outcome, Params};

/// Measured repetitions are at least this many, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// Runs one untimed warm-up repetition, which fills lazily built process
/// state (interned metric names, allocator pools), then measured ones
/// until `--seconds` have passed. `rep` gets the span recorder to use
/// and whether its per-request detail will be read: only the first
/// measured repetition's is, so memory does not grow with the number of
/// repetitions that fit. In a traced run every other measured repetition
/// records spans, and [`tracing_overhead`] compares the two halves.
pub fn repeat<R>(
    p: &Params,
    spans: &mut Spans,
    mut rep: impl FnMut(&mut Spans, bool) -> R,
) -> (R, Vec<R>) {
    let mut off = Spans::new(false, p.epoch);
    let warm = rep(&mut off, false);
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < p.seconds {
        let traced = p.trace && reps.len().is_multiple_of(2);
        let rec = if traced { &mut *spans } else { &mut off };
        reps.push(rep(rec, reps.is_empty()));
    }
    (warm, reps)
}

/// (traced − untraced) / untraced median wall time, given the measured
/// repetitions' wall times in the order [`repeat`] ran them.
pub fn tracing_overhead(run_s: &[f64]) -> f64 {
    let half = |traced: bool| {
        let v: Vec<f64> = run_s
            .iter()
            .enumerate()
            .filter(|(k, _)| k.is_multiple_of(2) == traced)
            .map(|(_, s)| *s)
            .collect();
        stats::median(&v)
    };
    (half(true) - half(false)) / half(false)
}

/// Gates that every measured repetition made the same number of
/// allocations. The warm-up is left out: it interns names and fills
/// allocator pools once per process.
pub fn gate_same_allocs(out: &mut Outcome, allocs: &[u64]) {
    for &a in &allocs[1..] {
        out.gate(a == allocs[0], || {
            format!(
                "allocation count differs between repetitions: {a} vs {}",
                allocs[0]
            )
        });
    }
}

//! Readouts of the process and its host: allocation counting, peak
//! memory, thread CPU time and hypervisor steal.
//!
//! The counting allocator wraps the system allocator and bumps one
//! relaxed atomic per allocation. The count publishes no other data, so
//! `Relaxed` is enough; it is exact for single-threaded simulator runs
//! and approximate (but still complete) under threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (including reallocations) made through it.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update has
// no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the whole process.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time the hypervisor took from this VM's CPUs, summed over CPUs, in
/// seconds since boot (`steal` in `/proc/stat`); 0 where unavailable.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok());
    // USER_HZ is 100 on every Linux target this runs on.
    ticks.map_or(0.0, |t| t / 100.0)
}

/// CPU nanoseconds the calling thread has run, from
/// `/proc/thread-self/schedstat`: time spent waiting for a CPU is left
/// out (and, with paravirtual steal accounting, time the hypervisor
/// gave to other tenants).
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Measures the calling thread's CPU time, or wall time where the
/// kernel does not expose it.
pub struct ThreadClock {
    wall: std::time::Instant,
    cpu_ns: Option<u64>,
}

impl ThreadClock {
    pub fn start() -> Self {
        ThreadClock {
            wall: std::time::Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 / 1e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

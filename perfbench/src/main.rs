//! Service-path benchmark for the cluster-sns workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload transend_trace --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `transend_trace` and `hotbot_query` on the simulator,
//! `rt_distill` on real threads. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` is a separate run that records spans around the
//! benchmark's calls into each layer and prints the per-layer metrics.
//! The last stdout line is one JSON object; the lines before it are the
//! same figures for people, under the names `NOTES.md` uses. The process
//! exits 1 when a correctness gate fails.

mod host;
mod hotbot;
mod layers;
mod reps;
mod rtdistill;
mod spans;
mod stats;
mod transend;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static GLOBAL: host::Counting = host::Counting;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events_per_req", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.allocs_per_req", "count"),
    ("san.msgs_per_req", "count"),
    ("san.bytes_per_req", "B"),
    ("san.drops", "count"),
    ("san.unicast_ns", "ns"),
    ("dispatch.jobs_per_req", "count"),
    ("dispatch.timeouts", "count"),
    ("control.reports_per_req", "count"),
    ("control.spawns", "count"),
    ("rt.submit_ns_p50", "ns"),
    ("rt.submit_ns_p99", "ns"),
    ("rt.reply_us_p50", "us"),
    ("rt.gen_late_us_p99", "us"),
    ("rt.gen_late_us_max", "us"),
    ("rt.low_p50_us", "us"),
    ("rt.low_p90_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("distill.per_req", "count"),
    ("distill.transform_ns.gif", "ns"),
    ("distill.transform_ns.jpeg", "ns"),
    ("distill.transform_ns.html", "ns"),
    ("profile.cache_hit_ratio", "ratio"),
    ("profile.pref_updates", "count"),
    ("wal.commit_ns", "ns"),
    ("search.query_ns", "ns"),
    ("search.index_build_s", "s"),
    ("hotbot.full_coverage_share", "ratio"),
    ("workload.gen_ns_per_req", "ns"),
    ("tacc.jobs_per_req", "count"),
    ("vt.share.queue", "ratio"),
    ("vt.share.service", "ratio"),
    ("vt.share.net", "ratio"),
    ("vt.share.compute", "ratio"),
    ("vt.share.overhead", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub epoch: Instant,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness gates; empty means the run is correct.
    pub gate_failures: Vec<String>,
    /// Generic end-to-end metrics (the JSON names).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The same end-to-end figures under their workload-specific names.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans recorded during a traced run.
    pub spans: Option<spans::Spans>,
}

impl Outcome {
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <transend_trace|hotbot_query|rt_distill> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Params) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        usage()
    };
    (
        w,
        Params {
            seed,
            seconds,
            trace,
            epoch: Instant::now(),
        },
    )
}

/// `{commit, nproc, rustc, seed}` for the result header. The commit is
/// read only from a `.git` in the working directory, never a parent's.
fn tags(seed: u64) -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = run("rustc", &["--version"]);
    format!(
        "{{\"commit\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"seed\": {seed}}}",
        commit.as_deref().unwrap_or("unknown"),
        rustc.as_deref().unwrap_or("unknown")
    )
}

fn main() {
    let (workload, p) = parse_args();
    let steal0 = host::steal_s();
    let mut out = match workload.as_str() {
        "transend_trace" => transend::run(&p),
        "hotbot_query" => hotbot::run(&p),
        "rt_distill" => rtdistill::run(&p),
        _ => usage(),
    };
    // Validity of the run: the share of the VM's CPU time the hypervisor
    // gave to other tenants while it ran.
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal = (host::steal_s() - steal0) / (p.epoch.elapsed().as_secs_f64() * ncpu);
    out.named("host_steal_share", steal, "ratio");
    let rss = host::peak_rss_mb().unwrap_or(0.0);
    out.e2e.insert("peak_rss_mb", rss);
    out.named("peak_rss_mb", rss, "MB");
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.named("failed_share", share, "ratio");
    out.gate(out.attempted > 0, || "no requests attempted".into());
    let (failed, attempted) = (out.failed, out.attempted);
    out.gate(failed == 0, || {
        format!("{failed} of {attempted} requests failed")
    });

    println!(
        "perfbench workload={workload} trace={} tags={}",
        u8::from(p.trace),
        tags(p.seed)
    );
    for (name, value, unit) in &out.named {
        println!("  {name:<28} {value:>16.4} {unit}");
    }

    let (table, values) = if p.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            out.gate_failures.push(format!("{name} is not finite"));
        }
        if !p.trace && value <= 0.0 {
            out.gate_failures
                .push(format!("end-to-end metric {name} must be positive"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        if p.trace {
            println!("  {name:<28} {value:>16.4} {unit}");
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if let Some(spans) = &out.spans {
        println!("  span self-times (count, total ms, self ms):");
        for (name, count, total, own) in spans.totals() {
            println!(
                "    {name:<26} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{workload}-seed{}.spans.jsonl",
            p.seed
        ));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            println!("  spans written to {}", path.display());
        }
    }
    let correct = out.gate_failures.is_empty();
    for why in &out.gate_failures {
        println!("  GATE FAILED: {why}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A disabled recorder costs one branch per call. Spans are kept in
//! memory and written out as JSON lines when the run ends; nothing is
//! recorded inside the program under test.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder with an explicit open-span stack.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u32,
    open: Vec<(u32, &'static str, u64)>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            next_id: 1,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's epoch, with ids
    /// drawn from a disjoint range so merged spans stay unique.
    pub fn fork(&self, id_base: u32) -> Self {
        Spans {
            next_id: id_base,
            ..Spans::new(self.on, self.epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            let now = self.now_ns();
            self.open.push((id, name, now));
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let (id, name, start_ns) = self.open.pop().expect("exit without enter");
            let end_ns = self.now_ns();
            let parent = self.open.last().map(|o| o.0);
            self.done.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            self.done.push(Span {
                id,
                parent: self.open.last().map(|o| o.0),
                name,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Moves another recorder's finished spans into this one, parented
    /// under this recorder's innermost open span when they had none.
    pub fn absorb(&mut self, other: Spans) {
        let parent = self.open.last().map(|o| o.0);
        self.done.extend(other.done.into_iter().map(|mut s| {
            s.parent = s.parent.or(parent);
            s
        }));
    }

    /// Total and self time per span name, sorted by name. Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for s in &self.done {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &self.done {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t, o))
            .collect()
    }

    /// Writes every finished span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.done.len() * 96);
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

//! Spans recorded around the public calls the benchmark makes, and the
//! per-layer self times derived from them.
//!
//! Every call is timed whether or not tracing is on (the end-to-end
//! latencies need the duration); with tracing on, each call also
//! leaves a [`Span`] in the calling thread's [`SpanLog`]. Logs stay in
//! memory and are merged when a unit of work ends.
//!
//! Self time is computed by a sweep over the unit's wall interval: at
//! every instant the innermost open spans (those with no open child)
//! share that instant equally. On one thread this is the classic
//! "duration minus the part its children cover"; with client threads
//! running side by side it still sums to at most the wall time, so the
//! per-layer shares can be read against `wall_s` directly.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Span names owned by the benchmark itself (loop glue, unit roots).
/// Everything else names a layer of the program.
pub const BENCH_PREFIX: &str = "bench.";

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A per-thread span recorder; a no-op store when tracing is off.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// An open span: close it with [`SpanLog::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    started: Instant,
}

impl SpanLog {
    pub fn new(on: bool, epoch: Instant) -> Self {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A log for another thread, sharing this one's epoch and switch.
    pub fn fork(&self) -> Self {
        SpanLog::new(self.on, self.epoch)
    }

    pub fn open(&self, name: &'static str, parent: u64, request: u64) -> Open {
        Open {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            started: Instant::now(),
        }
    }

    /// Ends `open`, recording it when tracing is on; returns its length.
    pub fn close(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if self.on {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                name: open.name,
                start_ns: nanos(open.started - self.epoch),
                end_ns: nanos(ended - self.epoch),
            });
        }
        ended - open.started
    }

    /// Times `f` as one span named `name`.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(name, parent, request);
        let out = f();
        (out, self.close(open))
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per span name inside the root span `root` (seconds),
/// attributing each instant of the root's interval equally to the
/// innermost open descendants.
pub fn self_times(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let in_tree = |mut i: usize| loop {
        if spans[i].id == root {
            return true;
        }
        match index.get(&spans[i].parent) {
            Some(&p) => i = p,
            None => return false,
        }
    };
    let members: Vec<usize> = (0..spans.len()).filter(|&i| in_tree(i)).collect();
    // (time, is_start, span); ends sort before starts at equal times.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(members.len() * 2);
    for &i in &members {
        events.push((spans[i].start_ns, true, i));
        events.push((spans[i].end_ns, false, i));
    }
    events.sort_unstable();
    let mut open_children: HashMap<usize, u32> = HashMap::new();
    let mut open: Vec<usize> = Vec::new();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, is_start, i) in events {
        let leaves: Vec<usize> = open
            .iter()
            .copied()
            .filter(|s| open_children.get(s).copied().unwrap_or(0) == 0)
            .collect();
        if t > last && !leaves.is_empty() {
            let share = (t - last) as f64 / 1e9 / leaves.len() as f64;
            for leaf in leaves {
                *out.entry(spans[leaf].name).or_insert(0.0) += share;
            }
        }
        last = t;
        let parent = index.get(&spans[i].parent).copied();
        if is_start {
            open.push(i);
            if let Some(p) = parent {
                *open_children.entry(p).or_insert(0) += 1;
            }
        } else {
            open.retain(|&s| s != i);
            if let Some(p) = parent {
                if let Some(n) = open_children.get_mut(&p) {
                    *n = n.saturating_sub(1);
                }
            }
        }
    }
    out
}

/// Share of `wall` covered by program layers (names outside
/// [`BENCH_PREFIX`]).
pub fn coverage(self_times: &BTreeMap<&'static str, f64>, wall: f64) -> f64 {
    let layers: f64 = self_times
        .iter()
        .filter(|(name, _)| !name.starts_with(BENCH_PREFIX))
        .map(|(_, s)| s)
        .sum();
    layers / wall
}

/// Writes spans as JSON lines (`name, start, end, parent, request`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        let spans = vec![
            span(1, 0, "bench.root", 0, 1_000_000_000),
            span(2, 1, "a", 100_000_000, 400_000_000),
            span(3, 1, "b", 400_000_000, 900_000_000),
        ];
        let t = self_times(&spans, 1);
        assert!((t["a"] - 0.3).abs() < 1e-9);
        assert!((t["b"] - 0.5).abs() < 1e-9);
        assert!((t["bench.root"] - 0.2).abs() < 1e-9);
        assert!((coverage(&t, 1.0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn parallel_leaves_share_each_instant() {
        let spans = vec![
            span(1, 0, "bench.root", 0, 1_000_000_000),
            span(2, 1, "bench.client", 0, 1_000_000_000),
            span(3, 1, "bench.client", 0, 1_000_000_000),
            span(4, 2, "issue", 0, 1_000_000_000),
            span(5, 3, "issue", 0, 500_000_000),
        ];
        let t = self_times(&spans, 1);
        assert!((t["issue"] - 0.75).abs() < 1e-9);
        assert!((t["bench.client"] - 0.25).abs() < 1e-9);
        let total: f64 = t.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

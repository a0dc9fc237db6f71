//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into the program
//! (FaaS wrappers, gateway requests, layer replays), kept in memory, and
//! written to one Chrome `trace_event` file when the run ends. Spans of one
//! message share its payload fingerprint as `msg`. Per-layer self time is a
//! span's duration minus what its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub msg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve a span id before the span ends, so children can name it as
    /// their parent.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("trace sink poisoned").push(span);
    }

    /// Record a span with a fresh id; returns the id.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        msg: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.record(Span {
            name,
            id,
            parent,
            msg,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace sink poisoned").clone()
    }

    /// Write every span as a Chrome `trace_event` JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"[\n")?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"msg\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.msg
            )?;
        }
        w.write_all(b"\n]\n")?;
        w.flush()
    }
}

/// Per-name self time: `(count, total self µs)` for every span name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, (u64, f64)> = HashMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = out.entry(s.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur.saturating_sub(covered) as f64 / 1e3;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = Tracer::new(Instant::now());
        let root = t.next_id();
        t.record(Span {
            name: "root",
            id: root,
            parent: 0,
            msg: 0,
            start_ns: 0,
            end_ns: 100_000,
        });
        t.span("child", root, 0, 10_000, 30_000);
        t.span("child", root, 0, 20_000, 40_000);
        let st = self_times(&t.spans());
        assert_eq!(st["root"], (1, 70.0));
        assert_eq!(st["child"], (2, 40.0));
    }
}

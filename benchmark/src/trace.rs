//! Spans recorded by the traced run, from the benchmark's own files
//! around the calls into each layer. They stay in memory (a bounded ring
//! per worker) and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One span. Spans of one request share the request's root span as
/// `parent` (0 = no parent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Layer boundary the span sits on, e.g. `semlock.acquire`.
    pub name: &'static str,
    pub worker: u16,
    /// Nanoseconds since the traced run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Attempts a request span needed (1 = first try; 0 for child spans).
    pub attempts: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The last `capacity` spans one worker recorded. Recording costs the
/// same for every request; only retention is bounded, so a 15 s run does
/// not hold (or write) gigabytes.
#[derive(Debug)]
pub struct SpanRing {
    spans: Vec<Span>,
    capacity: usize,
    next: usize,
    /// Spans ever pushed (retained or overwritten).
    pub recorded: u64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            spans: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        self.recorded += 1;
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Retained spans, oldest first.
    pub fn into_spans(mut self) -> Vec<Span> {
        if self.spans.len() == self.capacity {
            self.spans.rotate_left(self.next);
        }
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per span name: the spans' median duration and their total self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub median_ns: f64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
        out.entry(s.name).or_default().self_ns += selfs[&s.id];
    }
    for (name, d) in &durations {
        out.get_mut(name).expect("same keys").median_ns = crate::estimator::median(d);
    }
    out
}

/// `benchmark/out/`, next to the benchmark's manifest. `cargo run` sets
/// `CARGO_MANIFEST_DIR` for the program; a binary started by hand falls
/// back to the directory it was built from.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

/// Write `out/trace-<workload>.json`; returns the path.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(
        f,
        "{{\"workload\": {workload:?}, \"seed\": {seed}, \"self_time_ns\": {{"
    )?;
    for (i, (name, st)) in by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(f, "{sep}{name:?}: {}", st.self_ns)?;
    }
    writeln!(
        f,
        "}},\n\"columns\": [\"id\", \"parent\", \"name\", \"worker\", \"start_ns\", \"end_ns\", \"attempts\"],\n\"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            f,
            "[{}, {}, {:?}, {}, {}, {}, {}]{sep}",
            s.id, s.parent, s.name, s.worker, s.start_ns, s.end_ns, s.attempts
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            worker: 0,
            start_ns,
            end_ns,
            attempts: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(1, 0, "section", 100, 200),
            span(2, 1, "semlock.select", 100, 110),
            span(3, 1, "semlock.acquire", 110, 150),
            // Overlaps the previous child by 10 and sticks out of the
            // parent by 20: only 150..200 is new cover.
            span(4, 1, "adts.body", 140, 220),
            span(5, 0, "request", 300, 350),
            // Orphan: its parent was overwritten in the ring.
            span(6, 99, "semlock.release", 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 0);
        assert_eq!(st[&2], 10);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 80);
        assert_eq!(st[&5], 50);
        assert_eq!(st[&6], 10);

        let gap = [
            span(1, 0, "section", 0, 100),
            span(2, 1, "semlock.acquire", 10, 30),
            span(3, 1, "adts.body", 50, 70),
        ];
        assert_eq!(self_times(&gap)[&1], 60);
        let names = by_name(&gap);
        assert_eq!(names["section"].self_ns, 60);
        assert_eq!(names["adts.body"].median_ns, 20.0);
    }

    #[test]
    fn ring_keeps_the_newest_spans_in_order() {
        let mut ring = SpanRing::new(3);
        for i in 1..=5 {
            ring.push(span(i, 0, "request", i, i + 1));
        }
        assert_eq!(ring.recorded, 5);
        let ids: Vec<u64> = ring.into_spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, [3, 4, 5]);
        let mut short = SpanRing::new(3);
        short.push(span(1, 0, "request", 0, 1));
        assert_eq!(short.into_spans().len(), 1);
    }
}

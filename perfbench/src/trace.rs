//! In-memory spans around the benchmark's calls into the crates.
//!
//! A span records a name, start and end (ns since the tracer was
//! created), its parent span and the id of the unit (cell, machine or
//! sweep) it belongs to. Spans stay in memory until [`Tracer::write`]
//! dumps them at the end of the run. A disabled tracer only calls the
//! closure, so untraced passes pay nothing but a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name prefix of the benchmark's own grouping spans (pass, unit).
/// Everything else is a per-layer span around a public crate call.
pub const BENCH_PREFIX: &str = "bench.";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        let depth = self.stack.len();
        self.stack.push(idx);
        let out = f(self);
        // Truncate rather than pop: a panic caught inside `f` leaves
        // its unclosed spans on the stack.
        self.stack.truncate(depth);
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as unit `unit` (a cell, machine or sweep id), inside a
    /// `bench.unit` span.
    pub fn unit<R>(&mut self, unit: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = std::mem::replace(&mut self.unit, unit);
        let out = self.span("bench.unit", f);
        self.unit = outer;
        out
    }

    /// Index the next span will get (marks the start of a pass).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in ms per span name over the spans recorded since
    /// `from`: each span's duration minus its children's durations.
    pub fn self_ms_since(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut self_ns: BTreeMap<&'static str, i64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            if s.end_ns < s.start_ns {
                continue; // never closed (a panic unwound through it)
            }
            let dur = (s.end_ns - s.start_ns) as i64;
            *self_ns.entry(s.name).or_default() += dur;
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                debug_assert!(p < i);
                *self_ns.entry(self.spans[p].name).or_default() -= dur;
            }
        }
        self_ns
            .into_iter()
            .map(|(k, v)| (k, v.max(0) as f64 / 1e6))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path, unit_names: &[String]) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let unit = unit_names
                .get(sp.unit as usize)
                .map(String::as_str)
                .unwrap_or("");
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{},\"unit_name\":\"{}\"}}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.unit,
                unit.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        std::fs::write(path, s)
    }
}

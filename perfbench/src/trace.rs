//! Span tracing at the layer boundaries, recorded from the benchmark's
//! side of each call.
//!
//! A span has a name (`<layer>.<call>`), a start and an end on one
//! monotonic clock, the span that was open when it began (its parent) and
//! the operation id the workload set. Spans stay in memory until the run
//! ends; [`summarize`] turns them into per-layer self times and per-call
//! durations, and [`write_csv`] writes them out. While tracing is off,
//! [`enter`] costs one thread-local read and a branch.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns span recording on or off for the spans begun from now on.
pub fn set_active(on: bool) {
    ACTIVE.with(|a| a.set(on));
}

pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Sets the operation id stamped on the spans begun from now on.
pub fn set_op(op: u64) {
    if active() {
        TRACER.with(|t| t.borrow_mut().op = op);
    }
}

pub fn span_count() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// An open span; it ends when dropped.
#[must_use]
pub struct Guard(Option<u32>);

impl Guard {
    /// Renames the span before it ends (e.g. to book it to another layer
    /// once the call has said what it did).
    pub fn rename(&self, name: &'static str) {
        if let Some(index) = self.0 {
            TRACER.with(|t| t.borrow_mut().spans[index as usize].name = name);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let now = Instant::now();
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let end = (now - t.epoch).as_nanos() as u64;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(index), "spans must nest");
                t.spans[index as usize].end_ns = end;
            });
        }
    }
}

/// Begins a span named `name` when tracing is on.
#[inline]
pub fn enter(name: &'static str) -> Guard {
    if !active() {
        return Guard(None);
    }
    let now = Instant::now();
    Guard(Some(TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let index = t.spans.len() as u32;
        let start = (now - t.epoch).as_nanos() as u64;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let op = t.op;
        t.spans.push(Span { name, parent, op, start_ns: start, end_ns: start });
        t.open.push(index);
        index
    })))
}

/// Takes every recorded span out of the tracer.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Durations and self times of every span sharing one name, in ns.
#[derive(Debug, Default)]
pub struct CallTimes {
    pub duration_ns: Vec<f64>,
    pub self_ns: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Summary {
    /// Total duration of the root spans: the traced wall time.
    pub wall_s: f64,
    /// Self time per layer; the layers' self times add up to `wall_s`.
    pub self_s: BTreeMap<&'static str, f64>,
    pub calls: BTreeMap<&'static str, CallTimes>,
}

impl Summary {
    pub fn durations(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], |c| &c.duration_ns)
    }

    pub fn self_times(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], |c| &c.self_ns)
    }
}

/// A span's self time is its duration minus the time its children cover.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            covered[span.parent as usize] += span.duration_ns();
        }
    }
    let mut summary = Summary::default();
    for (span, covered) in spans.iter().zip(covered) {
        let own = span.duration_ns().saturating_sub(covered);
        if span.parent == NO_PARENT {
            summary.wall_s += span.duration_ns() as f64 / 1e9;
        }
        *summary.self_s.entry(span.layer()).or_default() += own as f64 / 1e9;
        let calls = summary.calls.entry(span.name).or_default();
        calls.duration_ns.push(span.duration_ns() as f64);
        calls.self_ns.push(own as f64);
    }
    summary
}

/// Writes the spans as CSV: `span,parent,op,name,start_ns,end_ns`
/// (`parent` is empty for a root span).
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span,parent,op,name,start_ns,end_ns")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT { String::new() } else { span.parent.to_string() };
        writeln!(
            out,
            "{index},{parent},{},{},{},{}",
            span.op, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_spans() {
        set_active(true);
        {
            let _root = enter("bench.block");
            set_op(7);
            let _child = enter("cubefit.place");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _off = enter("bench.block");
        }
        set_active(false);
        {
            let _ignored = enter("bench.block");
        }
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].op, 7);
        let summary = summarize(&spans);
        let total: f64 = summary.self_s.values().sum();
        assert!((total - summary.wall_s).abs() < 1e-9);
        assert!(summary.self_s["cubefit"] >= 0.002);
        assert_eq!(summary.durations("bench.block").len(), 2);
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Every span
//! carries the op it belongs to and its parent (which may live on
//! another thread, e.g. a pool row under the op that fanned it out).
//! Spans stay in memory until the run ends, then go out as Chrome
//! trace-event JSON in the line format `jepo_trace::validate` checks,
//! and are folded into per-layer times.

use crate::util::median;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub tid: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated package joules the spanned work charged, if any.
    pub joules: f64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Name of the root span of every traced op; its duration is the op's
/// traced latency.
pub const OP: &str = "op";
/// Name of the root span of the off-path replays made for an op (a
/// served request re-executed in-process, the whole `profile()` call).
pub const REPLAY: &str = "replay";

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread: `(span id, op id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    span: Span,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.span.id
    }

    pub fn add_joules(&mut self, j: f64) {
        self.span.joules += j;
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let mut done = self.span.clone();
        done.end_ns = self.rec.now_ns();
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(done);
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &str, parent: u64, op: u64) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, op)));
        Guard {
            rec: self,
            span: Span {
                id,
                parent,
                op,
                tid: TID.with(|t| *t),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                joules: 0.0,
            },
        }
    }

    /// A root span (`OP` or `REPLAY`) for op `op`.
    pub fn root(&self, name: &str, op: u64) -> Guard<'_> {
        self.open(name, 0, op)
    }

    /// A child of the innermost span open on this thread.
    pub fn span(&self, name: &str) -> Guard<'_> {
        let (parent, op) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.open(name, parent, op)
    }

    /// A child of an explicit parent, for work fanned out to another
    /// thread.
    pub fn span_under(&self, name: &str, parent: u64, op: u64) -> Guard<'_> {
        self.open(name, parent, op)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Chrome trace-event JSON, one event per line: per thread, begin and
/// end events in time order with balanced nesting, so the output passes
/// `jepo_trace::validate::validate_chrome`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut by_tid: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut lines = vec![
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"perfbench\"}}"
            .to_string(),
    ];
    for (tid, mut list) in by_tid {
        // Parents start no later and end no earlier than their children
        // and have smaller ids (opened first).
        list.sort_by(|a, b| {
            (a.start_ns, std::cmp::Reverse(a.end_ns), a.id).cmp(&(
                b.start_ns,
                std::cmp::Reverse(b.end_ns),
                b.id,
            ))
        });
        let mut open: Vec<&Span> = Vec::new();
        let end_line = |s: &Span| {
            format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"args\":{{\"span_id\":\"{:016x}\",\"package_j\":{:.9}}}}}",
                s.end_ns as f64 / 1e3,
                s.id,
                s.joules.max(0.0)
            )
        };
        for s in list {
            while let Some(top) = open.last() {
                if top.id == s.parent {
                    break;
                }
                lines.push(end_line(top));
                open.pop();
            }
            lines.push(format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"name\":\"{}\",\"args\":{{\"span_id\":\"{:016x}\",\"parent\":\"{:016x}\",\"op\":{}}}}}",
                s.start_ns as f64 / 1e3,
                s.name,
                s.id,
                s.parent,
                s.op
            ));
            open.push(s);
        }
        while let Some(top) = open.pop() {
            lines.push(end_line(top));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Per-layer times folded from the spans of traced ops.
pub struct LayerRow {
    pub name: String,
    /// Ops in which the layer ran.
    pub ops: usize,
    /// Mean calls per op in which it ran.
    pub calls: f64,
    /// Median over those ops of the layer's inclusive time per op, ms.
    pub incl_ms: f64,
    /// Median over those ops of the layer's self time per op, ms:
    /// inclusive time minus children run on the same thread.
    pub self_ms: f64,
    /// Median simulated joules per op.
    pub joules: f64,
}

pub struct Layers {
    pub rows: Vec<LayerRow>,
    /// Median over ops of the time the op root's direct children cover,
    /// ms: the part of a traced op that the layer spans account for.
    pub covered_ms: f64,
}

pub fn fold(spans: &[Span]) -> Layers {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    let tid_of: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.tid)).collect();
    let root_of_op: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| (s.id, s.op))
        .collect();
    let mut covered: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if tid_of.get(&s.parent) == Some(&s.tid) {
            *child_ms.entry(s.parent).or_default() += s.dur_ms();
        }
        if let Some(&op) = root_of_op.get(&s.parent) {
            *covered.entry(op).or_default() += s.dur_ms();
        }
    }
    // (layer, op) -> (calls, inclusive, self, joules)
    let mut per: BTreeMap<(&str, u64), (usize, f64, f64, f64)> = BTreeMap::new();
    for s in spans {
        if s.name == OP || s.name == REPLAY {
            continue;
        }
        let e = per.entry((s.name.as_str(), s.op)).or_default();
        let incl = s.dur_ms();
        e.0 += 1;
        e.1 += incl;
        e.2 += (incl - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        e.3 += s.joules;
    }
    let mut grouped: BTreeMap<&str, Vec<(usize, f64, f64, f64)>> = BTreeMap::new();
    for ((name, _), v) in per {
        grouped.entry(name).or_default().push(v);
    }
    let rows = grouped
        .into_iter()
        .map(|(name, v)| {
            let col =
                |f: fn(&(usize, f64, f64, f64)) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
            LayerRow {
                name: name.to_string(),
                ops: v.len(),
                calls: v.iter().map(|x| x.0 as f64).sum::<f64>() / v.len() as f64,
                incl_ms: median(&col(|x| x.1)),
                self_ms: median(&col(|x| x.2)),
                joules: median(&col(|x| x.3)),
            }
        })
        .collect();
    let covered: Vec<f64> = covered.into_values().collect();
    Layers {
        rows,
        covered_ms: median(&covered),
    }
}

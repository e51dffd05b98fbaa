//! Spans recorded from the benchmark's own side of the layer boundaries.
//!
//! Every application op gets an op span; every `dispatch` it makes, seen
//! through the wrapping [`Traced`] dispatcher, gets a child span labelled
//! with the returned `CallPath` (or `shed`/`error`). Spans of one op share
//! its id. Aggregates are kept for every op; the raw spans are kept in
//! memory up to [`SPAN_CAP`] and written out when the run ends.

use crate::measure::Hist;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;
use switchless_core::{CallPath, OcallDispatcher, OcallRequest, SwitchlessError};

/// Raw spans kept in memory (≈ 32 B each); aggregates keep counting past it.
pub const SPAN_CAP: usize = 200_000;

/// What a dispatch span returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Path(CallPath),
    Shed,
    Error,
}

impl Outcome {
    fn index(self) -> usize {
        match self {
            Outcome::Path(CallPath::Switchless) => 0,
            Outcome::Path(CallPath::Fallback) => 1,
            Outcome::Path(CallPath::Regular) => 2,
            Outcome::Shed => 3,
            Outcome::Error => 4,
        }
    }

    fn name(self) -> &'static str {
        ["switchless", "fallback", "regular", "shed", "error"][self.index()]
    }
}

/// Ops carry a small label chosen by the workload (the lmbench phase);
/// dispatch histograms are kept per label.
pub const LABELS: usize = 2;

#[derive(Clone, Copy)]
struct Span {
    op: u64,
    /// `None` for the op span itself.
    outcome: Option<Outcome>,
    start_ns: u64,
    dur_ns: u64,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
    label: usize,
    op_start: Instant,
    child_ns: u64,
    /// Dispatch latency per `[label][outcome]`.
    dispatch: [[Hist; 5]; LABELS],
    ops: u64,
    dispatches: u64,
    self_ns: u64,
    bytes: u64,
}

/// In-memory span log shared by the op loop and the [`Traced`] wrapper.
pub struct SpanLog {
    inner: Mutex<Inner>,
}

/// Per-layer aggregates of one traced run.
pub struct Summary {
    pub ops: u64,
    /// Admitted dispatches (sheds excluded).
    pub dispatches: u64,
    pub self_ns: u64,
    pub bytes: u64,
    dispatch: [[Hist; 5]; LABELS],
}

impl Summary {
    /// Dispatch latency histogram of `outcome` over ops with `label`.
    pub fn dispatch(&self, label: usize, outcome: Outcome) -> &Hist {
        &self.dispatch[label][outcome.index()]
    }

    /// The same, merged over every label.
    pub fn dispatch_all(&self, outcome: Outcome) -> Hist {
        let mut h = self.dispatch[0][outcome.index()].clone();
        for l in 1..LABELS {
            h.merge(&self.dispatch[l][outcome.index()]);
        }
        h
    }

    pub fn per_op(&self, x: u64) -> f64 {
        x as f64 / self.ops.max(1) as f64
    }
}

impl SpanLog {
    pub fn new() -> Self {
        let now = Instant::now();
        SpanLog {
            inner: Mutex::new(Inner {
                epoch: now,
                spans: Vec::with_capacity(SPAN_CAP),
                op: 0,
                label: 0,
                op_start: now,
                child_ns: 0,
                dispatch: Default::default(),
                ops: 0,
                dispatches: 0,
                self_ns: 0,
                bytes: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span log poisoned by a panicking op")
    }

    /// Forget everything recorded so far (warm-up traffic).
    pub fn reset(&self) {
        let mut g = self.lock();
        g.spans.clear();
        g.dispatch = Default::default();
        (g.op, g.ops, g.dispatches, g.self_ns, g.bytes) = (0, 0, 0, 0, 0);
    }

    /// Open the span of the next op.
    pub fn begin_op(&self, label: usize) {
        let mut g = self.lock();
        g.op += 1;
        g.label = label.min(LABELS - 1);
        g.child_ns = 0;
        g.op_start = Instant::now();
    }

    /// Close the current op span.
    pub fn end_op(&self) {
        let end = Instant::now();
        let mut g = self.lock();
        let dur = end.duration_since(g.op_start).as_nanos() as u64;
        g.ops += 1;
        g.self_ns += dur.saturating_sub(g.child_ns);
        let span = Span {
            op: g.op,
            outcome: None,
            start_ns: g.op_start.duration_since(g.epoch).as_nanos() as u64,
            dur_ns: dur,
        };
        g.push(span);
    }

    fn dispatch_span(&self, start: Instant, end: Instant, outcome: Outcome, bytes: usize) {
        let dur = end.duration_since(start).as_nanos() as u64;
        let mut g = self.lock();
        g.child_ns += dur;
        if let Outcome::Path(_) = outcome {
            g.dispatches += 1;
        }
        g.bytes += bytes as u64;
        let label = g.label;
        g.dispatch[label][outcome.index()].record(dur);
        let span = Span {
            op: g.op,
            outcome: Some(outcome),
            start_ns: start.duration_since(g.epoch).as_nanos() as u64,
            dur_ns: dur,
        };
        g.push(span);
    }

    pub fn summary(&self) -> Summary {
        let g = self.lock();
        Summary {
            ops: g.ops,
            dispatches: g.dispatches,
            self_ns: g.self_ns,
            bytes: g.bytes,
            dispatch: g.dispatch.clone(),
        }
    }

    /// Write the kept spans as CSV (`op,kind,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let g = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,kind,start_ns,dur_ns")?;
        for s in &g.spans {
            let kind = s.outcome.map_or("op", Outcome::name);
            writeln!(w, "{},{kind},{},{}", s.op, s.start_ns, s.dur_ns)?;
        }
        w.flush()
    }
}

impl Inner {
    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }
}

/// Dispatcher wrapper that records one span per `dispatch`.
pub struct Traced<'a> {
    pub inner: &'a dyn OcallDispatcher,
    pub log: &'a SpanLog,
}

impl OcallDispatcher for Traced<'_> {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        let t0 = Instant::now();
        let r = self.inner.dispatch(req, payload_in, payload_out);
        let t1 = Instant::now();
        let outcome = match &r {
            Ok((_, path)) => Outcome::Path(*path),
            Err(SwitchlessError::Overloaded { .. }) => Outcome::Shed,
            Err(_) => Outcome::Error,
        };
        self.log
            .dispatch_span(t0, t1, outcome, payload_in.len() + payload_out.len());
        r
    }
}

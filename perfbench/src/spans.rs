//! Spans around the benchmark's calls into each layer's public API.
//!
//! A traced run records one [`Span`] per call: layer, start, end, parent
//! span and a request id. Spans go into a buffer preallocated before the
//! timed window and are only summarised (and written out) after it. The
//! untraced run uses [`NoTrace`], whose methods compile to nothing.

use crate::hist::Histogram;
use std::io::Write;
use std::time::Instant;

/// The layers (and the benchmark's own steps) a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// A load thread's whole timed window (the root of its spans).
    LoadWindow,
    /// An open-loop load thread sleeping until its next op is due.
    LoadIdle,
    /// `TimestampGraphs::build`.
    SharegraphTsgraph,
    /// `TsRegistry::new`.
    TimestampRegistry,
    /// `ThreadedCluster::with_config` / `with_tcp`.
    RuntimeConstruct,
    /// `ServingTier::new`.
    ServingTierNew,
    /// `ServingWorker::write`.
    ServingWrite,
    /// `ServingWorker::read`.
    ServingRead,
    /// `ServingWorker::flush`.
    ServingFlush,
    /// `ServingWorker::poll`.
    ServingPoll,
    /// `ServingWorker::finish`.
    ServingFinish,
    /// `ThreadedCluster::write_burst`.
    RuntimeWriteBurst,
    /// `ThreadedCluster::store_snapshot` plus the register lookup.
    RuntimeRead,
    /// `ThreadedCluster::settle`.
    RuntimeSettle,
    /// `ThreadedCluster::trace_snapshot`.
    RuntimeTraceMerge,
    /// The benchmark's own verifier.
    Verify,
}

/// Every layer, in `repr` order.
pub const LAYERS: [Layer; 16] = [
    Layer::LoadWindow,
    Layer::LoadIdle,
    Layer::SharegraphTsgraph,
    Layer::TimestampRegistry,
    Layer::RuntimeConstruct,
    Layer::ServingTierNew,
    Layer::ServingWrite,
    Layer::ServingRead,
    Layer::ServingFlush,
    Layer::ServingPoll,
    Layer::ServingFinish,
    Layer::RuntimeWriteBurst,
    Layer::RuntimeRead,
    Layer::RuntimeSettle,
    Layer::RuntimeTraceMerge,
    Layer::Verify,
];

impl Layer {
    /// The span name: the module, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::LoadWindow => "load.window",
            Layer::LoadIdle => "load.idle",
            Layer::SharegraphTsgraph => "sharegraph.tsgraph",
            Layer::TimestampRegistry => "timestamp.registry",
            Layer::RuntimeConstruct => "runtime.construct",
            Layer::ServingTierNew => "serving.tier_new",
            Layer::ServingWrite => "serving.write",
            Layer::ServingRead => "serving.read",
            Layer::ServingFlush => "serving.flush",
            Layer::ServingPoll => "serving.poll",
            Layer::ServingFinish => "serving.finish",
            Layer::RuntimeWriteBurst => "runtime.write_burst",
            Layer::RuntimeRead => "runtime.read",
            Layer::RuntimeSettle => "runtime.settle",
            Layer::RuntimeTraceMerge => "runtime.trace_merge",
            Layer::Verify => "verify",
        }
    }
}

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the buffer's epoch.
    pub start: u64,
    /// Nanoseconds since the buffer's epoch (0 while open).
    pub end: u64,
    /// Request id: `session << 32 | op index`, or `replica << 32 | burst`.
    pub req: u64,
    /// Index of the enclosing span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    /// The layer called.
    pub layer: Layer,
}

/// What the load threads record through: [`NoTrace`] or [`SpanBuf`].
pub trait Tracer {
    /// Opaque handle of an open span.
    type Open: Copy;
    /// Opens a span around a call into `layer`.
    fn open(&mut self, layer: Layer, req: u64) -> Self::Open;
    /// Closes the span `open` returned.
    fn close(&mut self, open: Self::Open);
}

/// The untraced run's tracer: records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    type Open = ();
    #[inline(always)]
    fn open(&mut self, _: Layer, _: u64) {}
    #[inline(always)]
    fn close(&mut self, _: ()) {}
}

/// A preallocated span buffer for one thread.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans that did not fit; a non-zero value fails the span-count identity.
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer holding up to `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (re-basing their parent indices).
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
        self.dropped += other.dropped;
    }

    /// Writes the spans as tab-separated text, one span per line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tlayer\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start,
                s.end,
                s.req
            )?;
        }
        Ok(())
    }

    /// Per-layer call counts, total and self times, and duration histograms.
    pub fn summarize(&self) -> Vec<LayerSummary> {
        let mut out: Vec<LayerSummary> = LAYERS
            .iter()
            .map(|&layer| LayerSummary {
                layer,
                ..LayerSummary::default()
            })
            .collect();
        // A span's self time is its duration minus its children's: the
        // children of one parent never overlap (one thread, nested calls).
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            let l = &mut out[s.layer as usize];
            l.calls += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(children);
            l.hist.record(dur);
        }
        out
    }
}

impl Tracer for SpanBuf {
    type Open = u32;

    fn open(&mut self, layer: Layer, req: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            start,
            end: 0,
            req,
            parent,
            layer,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        if idx == ROOT {
            return;
        }
        let end = self.now();
        self.spans[idx as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in nesting order");
    }
}

/// One layer's totals over a traced run.
#[derive(Debug, Clone)]
pub struct LayerSummary {
    /// The layer.
    pub layer: Layer,
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times (duration minus child spans).
    pub self_ns: u64,
    /// Span durations.
    pub hist: Histogram,
}

impl Default for LayerSummary {
    fn default() -> Self {
        LayerSummary {
            layer: Layer::LoadWindow,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            hist: Histogram::default(),
        }
    }
}

/// Runs `f` inside a span.
#[inline(always)]
pub fn span<T: Tracer, R>(t: &mut T, layer: Layer, req: u64, f: impl FnOnce() -> R) -> R {
    let o = t.open(layer, req);
    let r = f();
    t.close(o);
    r
}

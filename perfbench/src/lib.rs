//! The prcc benchmark: three workloads driven through the public APIs of
//! `prcc-core` (`ThreadedCluster`, `ServingTier`/`ServingWorker`),
//! `prcc-sharegraph` (`TimestampGraphs`) and `prcc-timestamp`
//! (`TsRegistry`), every run verified by the linear verifier in
//! [`verify`].
//!
//! * `serve-hot` and `serve-partial` ([`serve`]) push client sessions
//!   through the serving tier;
//! * `replicate-tcp` ([`replicate`]) writes straight into a loopback TCP
//!   cluster, bypassing the serving tier.
//!
//! A [`Pass`] is one execution of a workload on a fresh cluster: set-up,
//! warm-up, a measured phase of fixed work, settle, verification. Untraced
//! passes give the end-to-end metrics; traced passes ([`spans::SpanBuf`])
//! give the per-layer ones.

pub mod hist;
pub mod replicate;
pub mod serve;
pub mod spans;
pub mod verify;

use hist::Histogram;
use prcc_checker::{SessionEvent, Trace, UpdateId};
use prcc_core::{ReplicaView, ThreadedCluster};
use prcc_sharegraph::{LoopConfig, RegisterId, ShareGraph, TimestampGraphs};
use prcc_timestamp::TsRegistry;
use spans::{span, Layer, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Warm-up work before the measured phase of a pass, as a share of the
/// measured work: connections, caches and the program's buffers fill in
/// it. It is driven, verified and traced like the rest, but not measured.
pub const WARMUP: f64 = 0.25;

/// How a pass is run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the generated inputs.
    pub seed: u64,
    /// Sizes the measured phase: the work the workload's nominal rate
    /// does in this many seconds.
    pub seconds: f64,
    /// Set-ups timed for `setup_s` (the last one runs the workload).
    pub setup_reps: usize,
    /// Keep the merged trace and session events in the [`Pass`] (tests).
    pub keep_evidence: bool,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Measured-phase length in seconds (first op to last ack).
    pub window_s: f64,
    /// Client ops attempted, warm-up included.
    pub attempted: u64,
    /// Client ops that failed (shed, timed out, abandoned), warm-up included.
    pub failed: u64,
    /// Client ops acked in the measured phase.
    pub served: u64,
    /// Writes acked in the measured phase.
    pub writes: u64,
    /// Start of the measured phase until `settle` returned, in seconds.
    pub until_settled_s: f64,
    /// Client read latency (ns).
    pub read_lat: Histogram,
    /// Client write-ack latency quantiles (ns): p50, p90, p99, p999, and
    /// the sample count.
    pub write_q: [f64; 5],
    /// Issue → remote apply, per delivery (ns).
    pub visible: Histogram,
    /// `total_wire_bytes / total_applied`.
    pub meta_bytes_per_msg: f64,
    /// VmHWM before verification, in MiB.
    pub peak_rss_mb: f64,
    /// Load-thread time not spent idle, summed over threads (ns).
    pub busy_ns: u64,
    /// Calls made per layer, counted by the load threads themselves.
    pub calls: BTreeMap<&'static str, u64>,
    /// Per-layer values that are not span timings.
    pub layer: BTreeMap<&'static str, f64>,
    /// Verifier findings and broken counter identities.
    pub violations: Vec<String>,
    /// Extra lines for the report (tails, sample counts).
    pub notes: Vec<String>,
    /// The merged trace, when [`Params::keep_evidence`] is set.
    pub trace: Option<Trace>,
    /// The served session events, when [`Params::keep_evidence`] is set.
    pub events: Option<Vec<SessionEvent>>,
}

impl Pass {
    /// Records a broken identity when `lhs != rhs`.
    pub fn identity(&mut self, what: &str, lhs: u64, rhs: u64) {
        if lhs != rhs {
            self.violations
                .push(format!("identity broken: {what}: {lhs} != {rhs}"));
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Milliseconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Sets a cluster up `p.setup_reps` times and returns the last one: `graph`
/// makes a fresh share graph and `build` the cluster over it. `setup_s` is
/// the median set-up time. `TimestampGraphs::build` and `TsRegistry::new`,
/// which the constructor runs, are also timed standalone on the same graph.
pub fn set_up<T: Tracer>(
    pass: &mut Pass,
    p: &Params,
    tr: &mut T,
    graph: impl Fn() -> ShareGraph,
    build: impl Fn(ShareGraph) -> ThreadedCluster,
) -> ThreadedCluster {
    let reps = p.setup_reps.max(1);
    let (mut setup, mut construct, mut tsg, mut reg) = (vec![], vec![], vec![], vec![]);
    let mut cluster = None;
    for _ in 0..reps {
        drop(cluster.take());
        let t0 = Instant::now();
        let g = graph();
        let (c, ms) = timed(|| span(tr, Layer::RuntimeConstruct, 0, || build(g.clone())));
        setup.push(t0.elapsed().as_secs_f64());
        construct.push(ms);
        cluster = Some(c);
        let (graphs, ms) = timed(|| {
            span(tr, Layer::SharegraphTsgraph, 0, || {
                TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE)
            })
        });
        tsg.push(ms);
        let (_, ms) = timed(|| {
            span(tr, Layer::TimestampRegistry, 0, || {
                TsRegistry::new(&g, graphs)
            })
        });
        reg.push(ms);
    }
    pass.setup_s = median(&setup);
    pass.layer
        .insert("runtime.construct_ms", median(&construct));
    pass.layer.insert("sharegraph.tsgraph_ms", median(&tsg));
    pass.layer.insert("timestamp.registry_ms", median(&reg));
    for name in [
        "runtime.construct",
        "sharegraph.tsgraph",
        "timestamp.registry",
    ] {
        pass.calls.insert(name, reps as u64);
    }
    cluster.expect("at least one set-up")
}

/// What a settled cluster leaves for verification.
#[derive(Debug)]
pub struct Settled {
    /// The merged trace.
    pub trace: Trace,
    /// The share graph the cluster ran.
    pub graph: ShareGraph,
    /// Every replica's published view after settling.
    pub views: Vec<Arc<ReplicaView>>,
    /// Remote applies.
    pub applied: f64,
}

/// Settles `cluster` after the window that started at `from`, and reads
/// what the metrics and the verifier need from it: the merged trace,
/// delivery latencies, settled views, the peak resident set (before any
/// verification memory) and the runtime's counters.
pub fn settle<T: Tracer>(
    pass: &mut Pass,
    tr: &mut T,
    cluster: &ThreadedCluster,
    from: Instant,
) -> Settled {
    let (_, settle_ms) = timed(|| span(tr, Layer::RuntimeSettle, 0, || cluster.settle()));
    pass.until_settled_s = from.elapsed().as_secs_f64();
    let (trace, merge_ms) =
        timed(|| span(tr, Layer::RuntimeTraceMerge, 0, || cluster.trace_snapshot()));
    for d in cluster.delivery_latencies_nanos() {
        pass.visible.record(d);
    }
    let graph = cluster.graph().clone();
    let views = graph
        .replicas()
        .map(|r| cluster.store_snapshot(r))
        .collect();
    pass.peak_rss_mb = peak_rss_mb();
    let applied = cluster.total_applied() as f64;
    pass.meta_bytes_per_msg = cluster.total_wire_bytes() as f64 / applied.max(1.0);
    let publishes: u64 = graph.replicas().map(|r| cluster.snapshot_version(r)).sum();
    let l = &mut pass.layer;
    l.insert(
        "runtime.applies_per_publish",
        (trace.num_updates() as f64 + applied) / (publishes as f64).max(1.0),
    );
    l.insert("runtime.settle_ms", settle_ms);
    l.insert("runtime.trace_merge_ms", merge_ms);
    l.insert("codec.demotions", cluster.total_codec_demotions() as f64);
    l.insert(
        "net.retransmits_per_msg",
        cluster.total_retransmits() as f64 / applied.max(1.0),
    );
    for name in ["runtime.settle", "runtime.trace_merge"] {
        pass.calls.insert(name, 1);
    }
    Settled {
        trace,
        graph,
        views,
        applied,
    }
}

/// Verifies a settled pass: causal safety and liveness of its trace, the
/// session guarantees over `events`, and every `acked` write covered at
/// every holder. Findings go to `pass.violations`.
pub fn verify_pass<T: Tracer>(
    pass: &mut Pass,
    tr: &mut T,
    s: &Settled,
    events: &[SessionEvent],
    acked: impl IntoIterator<Item = (UpdateId, RegisterId)>,
) {
    let t = Instant::now();
    let placement = s.graph.placement();
    let violations = span(tr, Layer::Verify, 0, || {
        let tv = verify::check_trace(&s.trace, placement);
        let mut v = tv.violations;
        v.extend(verify::check_sessions(&tv.causality, events));
        v.extend(verify::check_acked(acked, placement, |h, u| {
            s.views[h.index()].covers(u)
        }));
        v
    });
    record_verdicts(pass, violations);
    pass.layer.insert("verify.s", t.elapsed().as_secs_f64());
    pass.calls.insert("verify", 1);
}

/// Appends the verifier's findings to `pass.violations`, the first few in full.
fn record_verdicts(pass: &mut Pass, violations: Vec<verify::Violation>) {
    const SHOWN: usize = 20;
    let total = violations.len();
    pass.violations
        .extend(violations.iter().take(SHOWN).map(ToString::to_string));
    if total > SHOWN {
        pass.violations
            .push(format!("... and {} more violations", total - SHOWN));
    }
}

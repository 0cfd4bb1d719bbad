//! The serving workloads: client sessions through `ServingTier` over an
//! in-process `ThreadedCluster`.
//!
//! Two load threads each own half of the sessions (`sid ≡ w mod 2`) and
//! issue ops round-major — op `k` of every owned session before op `k+1`
//! of any — flushing and polling every [`FLUSH_EVERY`] ops, as
//! `prcc_sim::run_serving_scenario` does. A closed loop issues the next
//! op as soon as the previous call returns; an open loop issues op `j`
//! of a thread at `start + j / (rate / 2)` and times reads from that due
//! time, so a stall also charges the ops queued behind it.
//!
//! A pass is a fixed amount of work (see [`ServeSpec::rate`]), so its
//! trace, and the memory the program keeps for it, is the same size on
//! every run: a warm-up phase, then — after both load threads meet at a
//! barrier — the measured phase. Each phase drives its own worker and
//! finishes it, so the measured phase has its own `Collected`.

use crate::hist::Histogram;
use crate::spans::{span, Layer, Tracer};
use crate::{set_up, settle, timed, verify_pass, Params, Pass, WARMUP};
use prcc_core::{ClusterConfig, ServingConfig, ServingTier, ThreadedCluster, Value};
use prcc_net::DelayModel;
use prcc_sharegraph::{RegisterId, ShareGraph};
use prcc_sim::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Load threads: one per core of a 2-core host.
pub const LOAD_THREADS: usize = 2;
/// Ops per load thread between `flush` + `poll` calls.
pub const FLUSH_EVERY: usize = 64;
/// Ops generated per session; op `k` uses entry `k % OPS_PER_SESSION`,
/// so a long window cycles the table (values stay unique: they encode `k`).
pub const OPS_PER_SESSION: usize = 128;
/// Write values are `sid * VALUE_STRIDE + k`.
const VALUE_STRIDE: u64 = 1_000_000_000;

/// A serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Builds the share graph.
    pub graph: fn() -> ShareGraph,
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Zipf skew of register popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Share of ops that are writes.
    pub write_frac: f64,
    /// Ops per second that size a pass: a pass of `s` seconds issues
    /// `rate · s` ops. An open loop offers exactly this rate; a closed loop
    /// runs about this fast on a 2-core x86-64 VM, and its pass takes as
    /// long as the fixed work takes.
    pub rate: f64,
    /// Issue ops on the `rate` schedule (open loop) instead of as soon as
    /// the previous call returns (closed loop).
    pub open_loop: bool,
}

fn clique_8x2() -> ShareGraph {
    prcc_sharegraph::topology::clique_full(8, 2)
}

fn random_8x4096() -> ShareGraph {
    prcc_sharegraph::topology::random_connected_placement(
        prcc_sharegraph::topology::RandomPlacementConfig {
            replicas: 8,
            registers: 4096,
            replication_factor: 3,
            seed: 1,
        },
    )
}

/// `serve-hot`: full replication on 2 registers, 10k sessions, Zipf 1.0,
/// 10 % writes, closed loop; a pass issues 220k ops per second of window.
pub fn serve_hot() -> ServeSpec {
    ServeSpec {
        graph: clique_8x2,
        sessions: 10_000,
        zipf_theta: 1.0,
        write_frac: 0.1,
        rate: 220_000.0,
        open_loop: false,
    }
}

/// `serve-partial`: 8 replicas × 4096 registers at replication factor 3,
/// uniform keys, 50 % writes, 10k sessions, open loop at 28k ops/s —
/// about half of what this workload sustains closed-loop.
pub fn serve_partial() -> ServeSpec {
    ServeSpec {
        graph: random_8x4096,
        sessions: 10_000,
        zipf_theta: 0.0,
        write_frac: 0.5,
        rate: 28_000.0,
        open_loop: true,
    }
}

/// Generated ops: `register << 1 | is_write`, `OPS_PER_SESSION` per session.
struct Inputs {
    ops: Vec<u32>,
}

impl Inputs {
    fn generate(spec: &ServeSpec, registers: usize, seed: u64) -> Self {
        let zipf = Zipf::new(registers, spec.zipf_theta);
        let mut ops = Vec::with_capacity(spec.sessions * OPS_PER_SESSION);
        for sid in 0..spec.sessions as u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ sid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for _ in 0..OPS_PER_SESSION {
                let x = zipf.sample(&mut rng) as u32;
                let w = rng.gen_bool(spec.write_frac);
                ops.push(x << 1 | u32::from(w));
            }
        }
        Inputs { ops }
    }

    fn op(&self, sid: usize, k: u64) -> u32 {
        self.ops[sid * OPS_PER_SESSION + (k % OPS_PER_SESSION as u64) as usize]
    }

    /// True if `v` is a value some session wrote (or will write) to `x`.
    fn is_write_of(&self, v: &Value, x: RegisterId, sessions: usize) -> bool {
        let Some(v) = v.as_u64() else { return false };
        let (sid, k) = ((v / VALUE_STRIDE) as usize, v % VALUE_STRIDE);
        sid < sessions && self.op(sid, k) == (x.raw() << 1 | 1)
    }
}

/// What one load thread saw.
#[derive(Default)]
struct ThreadOut {
    attempted: u64,
    write_errs: u64,
    read_errs: u64,
    bad_values: u64,
    /// Measured-phase client read latency.
    read_lat: Histogram,
    /// Open-loop issue lateness, both phases.
    late: Histogram,
    idle_ns: u64,
    sleeps: u64,
    calls: [u64; 5],
    /// When this thread passed the barrier into the measured phase.
    measured_from: Option<Instant>,
    end: Option<Instant>,
}

const C_WRITE: usize = 0;
const C_READ: usize = 1;
const C_FLUSH: usize = 2;
const C_POLL: usize = 3;
const C_FINISH: usize = 4;

/// Runs one pass of `spec`. `tracers` holds one tracer per load thread
/// and one for the main thread, returned for the caller to summarise.
pub fn run<T: Tracer + Send>(spec: &ServeSpec, p: &Params, mut tracers: Vec<T>) -> (Pass, Vec<T>) {
    assert_eq!(
        tracers.len(),
        LOAD_THREADS + 1,
        "one tracer per load thread plus main"
    );
    let mut main_tr = tracers.pop().expect("main tracer");
    let mut pass = Pass::default();

    let registers = (spec.graph)().placement().num_registers();
    let inputs = Inputs::generate(spec, registers, p.seed);

    let cluster = set_up(&mut pass, p, &mut main_tr, spec.graph, |g| {
        ThreadedCluster::with_config(g, DelayModel::Fixed(1), p.seed, ClusterConfig::default())
    });
    let (tier, tier_ms) = timed(|| {
        span(&mut main_tr, Layer::ServingTierNew, 0, || {
            ServingTier::new(&cluster, ServingConfig::default())
        })
    });
    pass.setup_s += tier_ms / 1e3;
    pass.calls.insert("serving.tier_new", 1);

    // Fixed work per load thread and phase, in whole flush quanta.
    let quanta = |secs: f64| {
        ((spec.rate * secs / (FLUSH_EVERY * LOAD_THREADS) as f64)
            .round()
            .max(1.0) as usize)
            * FLUSH_EVERY
    };
    let phases = [quanta(p.seconds * WARMUP), quanta(p.seconds)];
    let barrier = Barrier::new(LOAD_THREADS);
    let start = Instant::now();
    let (outs, collected, measured, tracers) = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(w, mut tr)| {
                let (tier, inputs, barrier) = (&tier, &inputs, &barrier);
                s.spawn(move || {
                    let (out, cols) = drive(spec, tier, inputs, w, start, phases, barrier, &mut tr);
                    (out, cols, tr)
                })
            })
            .collect();
        let mut outs = Vec::new();
        let (mut all, mut measured) = (
            prcc_core::Collected::default(),
            prcc_core::Collected::default(),
        );
        let mut trs = Vec::new();
        for h in handles {
            let (o, [warm, meas], tr) = h.join().expect("load thread");
            outs.push(o);
            all.absorb(warm);
            measured.absorb(meas);
            trs.push(tr);
        }
        (outs, all, measured, trs)
    });
    let from = outs
        .iter()
        .filter_map(|o| o.measured_from)
        .min()
        .unwrap_or(start);
    let end = outs.iter().filter_map(|o| o.end).max().unwrap_or(start);
    pass.window_s = (end - from).as_secs_f64();
    pass.served = measured.ops;
    pass.writes = measured.write_lat.len() as u64;
    for o in &outs {
        pass.read_lat.merge(&o.read_lat);
    }
    let mut wl = measured.write_lat;
    pass.write_q = [
        wl.percentile(0.50) as f64,
        wl.percentile(0.90) as f64,
        wl.percentile(0.99) as f64,
        wl.percentile(0.999) as f64,
        wl.len() as f64,
    ];
    let mut collected = collected;
    collected.events.extend(measured.events);
    collected.ops += measured.ops;
    collected.failed += measured.failed;

    let settled = settle(&mut pass, &mut main_tr, &cluster, from);
    let stats = tier.stats();
    // Free the cluster before verifying.
    drop(tier);
    drop(cluster);
    let acked = prcc_checker::acked_writes(&collected.events);
    verify_pass(
        &mut pass,
        &mut main_tr,
        &settled,
        &collected.events,
        acked.iter().copied(),
    );
    let issued = settled.trace.num_updates() as u64;

    // Counters and identities.
    let sum = |f: fn(&ThreadOut) -> u64| outs.iter().map(f).sum::<u64>();
    pass.attempted = sum(|o| o.attempted);
    pass.failed = stats.ops_shed + stats.op_timeouts + stats.writes_abandoned;
    let acked_writes = acked.len() as u64;
    pass.identity(
        "served + failed == attempted",
        collected.ops + pass.failed,
        pass.attempted,
    );
    pass.identity(
        "ops_routed_local + ops_forwarded == served",
        stats.ops_routed_local + stats.ops_forwarded,
        collected.ops,
    );
    pass.identity("acked writes == issued updates", acked_writes, issued);
    let bad = sum(|o| o.bad_values);
    if bad > 0 {
        pass.violations.push(format!(
            "{bad} reads returned a value never written to their register"
        ));
    }
    let errs = sum(|o| o.write_errs + o.read_errs);
    if errs > 0 {
        pass.notes
            .push(format!("{errs} serving calls returned an error"));
    }

    pass.busy_ns = outs
        .iter()
        .map(|o| {
            let end = o.end.unwrap_or(start);
            ((end - start).as_nanos() as u64).saturating_sub(o.idle_ns)
        })
        .sum();

    let mut late = Histogram::default();
    for o in &outs {
        late.merge(&o.late);
    }
    let reads = sum(|o| o.calls[C_READ]) as f64;
    let routed = (stats.ops_routed_local + stats.ops_forwarded) as f64;
    let l = &mut pass.layer;
    l.insert(
        "serving.forwarded_frac",
        stats.ops_forwarded as f64 / routed.max(1.0),
    );
    l.insert(
        "serving.block_frac",
        (stats.ryw_blocks + stats.mr_blocks) as f64 / reads.max(1.0),
    );
    l.insert("serving.shed", stats.ops_shed as f64);
    l.insert("serving.timeouts", stats.op_timeouts as f64);
    l.insert("serving.dep_evictions", stats.dep_evictions as f64);
    l.insert("load.late_p90_us", late.quantile(0.90) / 1e3);
    for (name, i) in [
        ("serving.write", C_WRITE),
        ("serving.read", C_READ),
        ("serving.flush", C_FLUSH),
        ("serving.poll", C_POLL),
        ("serving.finish", C_FINISH),
    ] {
        pass.calls
            .insert(name, outs.iter().map(|o| o.calls[i]).sum());
    }
    pass.calls.insert("load.window", LOAD_THREADS as u64);
    pass.calls.insert("load.idle", sum(|o| o.sleeps));
    pass.notes.push(format!(
        "load lateness p50/p90/p99 {:.1}/{:.1}/{:.1} us over {} ops",
        late.quantile(0.5) / 1e3,
        late.quantile(0.9) / 1e3,
        late.quantile(0.99) / 1e3,
        late.count()
    ));
    if p.keep_evidence {
        pass.trace = Some(settled.trace);
        pass.events = Some(collected.events);
    }
    let mut tracers = tracers;
    tracers.push(main_tr);
    (pass, tracers)
}

/// One load thread: owns sessions `w, w + LOAD_THREADS, …` and issues
/// `phases[0]` warm-up ops, meets the other load threads at `barrier`, then
/// issues `phases[1]` measured ops. Each phase drives a fresh worker,
/// finished at the phase's end; their `Collected`s are returned in order.
#[allow(clippy::too_many_arguments)]
fn drive<T: Tracer>(
    spec: &ServeSpec,
    tier: &ServingTier<'_>,
    inputs: &Inputs,
    w: usize,
    start: Instant,
    phases: [usize; 2],
    barrier: &Barrier,
    tr: &mut T,
) -> (ThreadOut, [prcc_core::Collected; 2]) {
    let mut out = ThreadOut::default();
    let period = Duration::from_secs_f64(LOAD_THREADS as f64 / spec.rate);
    let owned = (spec.sessions - w).div_ceil(LOAD_THREADS);
    // Round-major cursor: op `k` of the `pos`-th owned session.
    let (mut k, mut pos) = (0u64, 0usize);
    let mut j = 0u32; // ops issued by this thread (open-loop schedule index)
    let root = tr.open(Layer::LoadWindow, w as u64);
    let mut collected = [
        prcc_core::Collected::default(),
        prcc_core::Collected::default(),
    ];
    for (phase, &ops) in phases.iter().enumerate() {
        let measured = phase == 1;
        if measured {
            barrier.wait();
            out.measured_from = Some(Instant::now());
        }
        let mut worker = tier.worker();
        for n in 1..=ops {
            let sid = w + pos * LOAD_THREADS;
            let req = (sid as u64) << 32 | k;
            // When the op was due: now (closed loop) or on the schedule.
            let due = if spec.open_loop {
                let due = start + period * j;
                let now = Instant::now();
                if due > now {
                    out.sleeps += 1;
                    let o = tr.open(Layer::LoadIdle, req);
                    std::thread::sleep(due - now);
                    tr.close(o);
                    out.idle_ns += (Instant::now() - now).as_nanos() as u64;
                }
                out.late.record((Instant::now() - due).as_nanos() as u64);
                due
            } else {
                Instant::now()
            };
            j += 1;
            out.attempted += 1;
            let op = inputs.op(sid, k);
            let x = RegisterId::new(op >> 1);
            if op & 1 == 1 {
                let v = Value::U64(sid as u64 * VALUE_STRIDE + k);
                out.calls[C_WRITE] += 1;
                if span(tr, Layer::ServingWrite, req, || {
                    worker.write(sid as u64, x, v)
                })
                .is_err()
                {
                    out.write_errs += 1;
                }
            } else {
                out.calls[C_READ] += 1;
                match span(tr, Layer::ServingRead, req, || {
                    worker.read(sid as u64, x, k)
                }) {
                    Ok((v, _)) => {
                        if measured {
                            out.read_lat
                                .record((Instant::now() - due).as_nanos() as u64);
                        }
                        if v.is_some_and(|v| !inputs.is_write_of(&v, x, spec.sessions)) {
                            out.bad_values += 1;
                        }
                    }
                    Err(_) => out.read_errs += 1,
                }
            }
            pos += 1;
            if pos == owned {
                (pos, k) = (0, k + 1);
            }
            if n % FLUSH_EVERY == 0 {
                out.calls[C_FLUSH] += 1;
                span(tr, Layer::ServingFlush, req, || worker.flush());
                out.calls[C_POLL] += 1;
                span(tr, Layer::ServingPoll, req, || worker.poll());
            }
        }
        out.calls[C_FINISH] += 1;
        collected[phase] = span(tr, Layer::ServingFinish, w as u64, || worker.finish());
    }
    tr.close(root);
    out.end = Some(Instant::now());
    (out, collected)
}

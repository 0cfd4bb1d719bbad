//! The `replicate-tcp` workload: writes straight into a `ThreadedCluster`
//! over real loopback sockets, with no serving tier.
//!
//! `ring(12)` (Fig. 13: every replica tracks all 2n edges), compressed
//! wire, session layer armed. Each of two load threads owns six
//! replicas and cycles them: one `write_burst` of [`BURST`] writes at a
//! replica, then a read of each of that replica's registers from its
//! published snapshot. The read checks that the snapshot covers the
//! burst's own write of the register. Bursts are issued open-loop on a
//! fixed schedule ([`OFFERED_WRITES_PER_SECOND`]) and timed from when
//! they were due.

use crate::hist::Histogram;
use crate::spans::{span, Layer, Tracer};
use crate::{set_up, settle, verify_pass, Params, Pass, WARMUP};
use prcc_checker::UpdateId;
use prcc_core::{ClusterConfig, ThreadedCluster, Value};
use prcc_net::{SessionConfig, TcpNetConfig};
use prcc_sharegraph::{RegisterId, ReplicaId, ShareGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Replicas in the ring.
pub const REPLICAS: usize = 12;
/// Load threads; each owns `REPLICAS / LOAD_THREADS` consecutive replicas.
pub const LOAD_THREADS: usize = 2;
/// Writes per `write_burst` call.
pub const BURST: usize = 32;
/// Offered writes per second: the open loop's schedule, and the size of a
/// pass (`s` seconds make `OFFERED_WRITES_PER_SECOND · s` writes). About
/// half of what a shared 2-core x86-64 VM sustained closed-loop in its slow
/// spells; its closed-loop throughput drifted between 118k and 186k ops/s
/// from minute to minute, too much for steady figures.
const OFFERED_WRITES_PER_SECOND: f64 = 50_000.0;
/// Register choices generated per replica; the window cycles them.
const CHOICES: usize = 4096;
/// Write values are `replica << VALUE_SHIFT | write index at that replica`.
const VALUE_SHIFT: u32 = 40;

/// Retransmission timer in wall-clock milliseconds: well above a loopback
/// round trip under CPU contention, so retransmits stay rare on a clean run.
fn session() -> SessionConfig {
    SessionConfig {
        rto_base: 400,
        rto_max: 2000,
        jitter: 20,
        ack_delay: 0,
    }
}

fn graph() -> ShareGraph {
    prcc_sharegraph::topology::ring(REPLICAS)
}

/// Per replica, the register of its `i`-th write (cycled).
struct Inputs {
    registers: Vec<Vec<RegisterId>>,
    choices: Vec<Vec<u8>>,
}

impl Inputs {
    fn generate(g: &ShareGraph, seed: u64) -> Self {
        let registers: Vec<Vec<RegisterId>> = g
            .replicas()
            .map(|r| g.placement().registers_of(r).iter().collect())
            .collect();
        let choices = registers
            .iter()
            .enumerate()
            .map(|(r, regs)| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (r as u64 + 1).wrapping_mul(0x9E37_79B9));
                (0..CHOICES)
                    .map(|_| rng.gen_range(0..regs.len()) as u8)
                    .collect()
            })
            .collect();
        Inputs { registers, choices }
    }

    fn register(&self, r: usize, i: u64) -> RegisterId {
        self.registers[r][self.choices[r][(i % CHOICES as u64) as usize] as usize]
    }

    /// True if `v` is a value some replica wrote to `x`.
    fn is_write_of(&self, v: &Value, x: RegisterId) -> bool {
        let Some(v) = v.as_u64() else { return false };
        let r = (v >> VALUE_SHIFT) as usize;
        r < self.registers.len() && self.register(r, v & ((1 << VALUE_SHIFT) - 1)) == x
    }
}

#[derive(Default)]
struct ThreadOut {
    bursts: u64,
    reads: u64,
    bad_reads: u64,
    out_of_order_acks: u64,
    /// Issue lateness against the schedule, both phases.
    late: Histogram,
    idle_ns: u64,
    sleeps: u64,
    /// Measured phase: ops acked, burst latency (from due), read latency.
    ops: u64,
    burst_lat: Histogram,
    read_lat: Histogram,
    /// Per owned replica: writes acked there (their seqs are `0..count`).
    acked: Vec<(usize, u64)>,
    /// When this thread passed the barrier into the measured phase.
    measured_from: Option<Instant>,
    end: Option<Instant>,
}

/// Runs one pass; `tracers` is one per load thread plus one for main.
pub fn run<T: Tracer + Send>(p: &Params, mut tracers: Vec<T>) -> (Pass, Vec<T>) {
    assert_eq!(
        tracers.len(),
        LOAD_THREADS + 1,
        "one tracer per load thread plus main"
    );
    let mut main_tr = tracers.pop().expect("main tracer");
    let mut pass = Pass::default();
    let inputs = Inputs::generate(&graph(), p.seed);

    let cluster = set_up(&mut pass, p, &mut main_tr, graph, |g| {
        let config = ClusterConfig {
            session: Some(session()),
            ..ClusterConfig::default()
        };
        ThreadedCluster::with_tcp(g, config, TcpNetConfig::default())
            .expect("loopback cluster starts")
    });

    // Fixed work per load thread and phase, in whole rounds over its
    // replicas.
    let per_round = (REPLICAS * BURST) as f64;
    let rounds = |secs: f64| {
        (OFFERED_WRITES_PER_SECOND * secs / per_round)
            .round()
            .max(1.0) as usize
    };
    let phases = [rounds(p.seconds * WARMUP), rounds(p.seconds)];
    let barrier = Barrier::new(LOAD_THREADS);
    let start = Instant::now();
    let (outs, tracers) = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(w, mut tr)| {
                let (cluster, inputs, barrier) = (&cluster, &inputs, &barrier);
                s.spawn(move || {
                    let out = drive(cluster, inputs, w, start, phases, barrier, &mut tr);
                    (out, tr)
                })
            })
            .collect();
        let mut outs = Vec::new();
        let mut trs = Vec::new();
        for h in handles {
            let (o, tr) = h.join().expect("load thread");
            outs.push(o);
            trs.push(tr);
        }
        (outs, trs)
    });
    let from = outs
        .iter()
        .filter_map(|o| o.measured_from)
        .min()
        .unwrap_or(start);
    let end = outs.iter().filter_map(|o| o.end).max().unwrap_or(start);
    pass.window_s = (end - from).as_secs_f64();

    let settled = settle(&mut pass, &mut main_tr, &cluster, from);
    let tcp = cluster
        .tcp_stats()
        .expect("tcp cluster reports transport stats");
    // Free the cluster before verifying.
    drop(cluster);
    let mut acked = [0u64; REPLICAS];
    for o in &outs {
        for &(r, n) in &o.acked {
            acked[r] = n;
        }
    }
    // Every write `write_burst` acked: seqs `0..acked[r]` of replica r, on
    // the register the trace recorded for it.
    let trace = &settled.trace;
    let acked_writes = trace
        .updates()
        .into_iter()
        .filter(|u| u.seq < acked[u.issuer.index()])
        .map(|u| (u, trace.register_of(u).expect("issued")));
    verify_pass(&mut pass, &mut main_tr, &settled, &[], acked_writes);
    let issued = trace.num_updates() as u64;
    let applied = settled.applied;

    let sum = |f: fn(&ThreadOut) -> u64| outs.iter().map(f).sum::<u64>();
    let reads = sum(|o| o.reads);
    let writes = sum(|o| o.bursts) * BURST as u64;
    pass.attempted = writes + reads;
    pass.served = sum(|o| o.ops);
    pass.writes = outs.iter().map(|o| o.burst_lat.count()).sum::<u64>() * BURST as u64;
    pass.identity("acked writes == issued updates", writes, issued);
    pass.identity("acks in issue order", sum(|o| o.out_of_order_acks), 0);
    let bad = sum(|o| o.bad_reads);
    if bad > 0 {
        pass.violations.push(format!(
            "{bad} reads missed their own write or returned a value never written there"
        ));
    }
    let mut wl = Histogram::default();
    for o in &outs {
        wl.merge(&o.burst_lat);
        pass.read_lat.merge(&o.read_lat);
    }
    pass.write_q = [
        wl.quantile(0.50),
        wl.quantile(0.90),
        wl.quantile(0.99),
        wl.quantile(0.999),
        wl.count() as f64,
    ];
    pass.busy_ns = outs
        .iter()
        .map(|o| ((o.end.unwrap_or(start) - start).as_nanos() as u64).saturating_sub(o.idle_ns))
        .sum();
    let mut late = Histogram::default();
    for o in &outs {
        late.merge(&o.late);
    }
    pass.layer
        .insert("load.late_p90_us", late.quantile(0.90) / 1e3);
    pass.calls.insert("load.idle", sum(|o| o.sleeps));
    pass.notes.push(format!(
        "load lateness p50/p90/p99 {:.1}/{:.1}/{:.1} us over {} bursts",
        late.quantile(0.5) / 1e3,
        late.quantile(0.9) / 1e3,
        late.quantile(0.99) / 1e3,
        late.count()
    ));

    let tsum = |f: fn(&prcc_net::TcpStatsSnapshot) -> u64| tcp.iter().map(f).sum::<u64>() as f64;
    let syscalls = tsum(|t| t.write_syscalls);
    let l = &mut pass.layer;
    l.insert(
        "net.wire_bytes_per_msg",
        tsum(|t| t.bytes_sent) / applied.max(1.0),
    );
    l.insert("net.syscalls_per_msg", syscalls / applied.max(1.0));
    l.insert(
        "net.frames_per_syscall",
        tsum(|t| t.frames_sent) / syscalls.max(1.0),
    );
    l.insert("net.reconnects", tsum(|t| t.reconnects));
    l.insert("net.shed", tsum(|t| t.shed_outbound));
    l.insert("net.decode_errors", tsum(|t| t.decode_errors));
    pass.notes.push(format!(
        "net: retransmits/msg={:.5} shed={} reconnects={} syscalls/msg={:.3}",
        pass.layer["net.retransmits_per_msg"],
        pass.layer["net.shed"],
        pass.layer["net.reconnects"],
        pass.layer["net.syscalls_per_msg"]
    ));
    pass.calls.insert("runtime.write_burst", sum(|o| o.bursts));
    pass.calls.insert("runtime.read", reads);
    pass.calls.insert("load.window", LOAD_THREADS as u64);
    if p.keep_evidence {
        pass.trace = Some(settled.trace);
    }
    let mut tracers = tracers;
    tracers.push(main_tr);
    (pass, tracers)
}

/// One load thread: makes `phases[0]` warm-up rounds over replicas
/// `w * 6 .. w * 6 + 6`, one burst per replica per round, meets the other
/// load thread at `barrier`, then makes `phases[1]` measured rounds. Its `j`-th
/// burst is due at `start + j · period`.
#[allow(clippy::too_many_arguments)]
fn drive<T: Tracer>(
    cluster: &ThreadedCluster,
    inputs: &Inputs,
    w: usize,
    start: Instant,
    phases: [usize; 2],
    barrier: &Barrier,
    tr: &mut T,
) -> ThreadOut {
    let per = REPLICAS / LOAD_THREADS;
    let owned: Vec<usize> = (w * per..(w + 1) * per).collect();
    let mut out = ThreadOut::default();
    let mut next = [0u64; REPLICAS];
    let mut batch: Vec<(RegisterId, Value)> = Vec::with_capacity(BURST);
    let mut last_write: Vec<Option<UpdateId>> = Vec::with_capacity(4);
    let period = Duration::from_secs_f64((LOAD_THREADS * BURST) as f64 / OFFERED_WRITES_PER_SECOND);
    let mut j = 0u32;
    let root = tr.open(Layer::LoadWindow, w as u64);
    let mut b = 0u64;
    for (phase, &rounds) in phases.iter().enumerate() {
        let measured = phase == 1;
        if measured {
            barrier.wait();
            out.measured_from = Some(Instant::now());
        }
        for _ in 0..rounds {
            for &r in &owned {
                let rid = ReplicaId::new(r as u32);
                let req = (r as u64) << 32 | b;
                batch.clear();
                for i in next[r]..next[r] + BURST as u64 {
                    batch.push((
                        inputs.register(r, i),
                        Value::U64((r as u64) << VALUE_SHIFT | i),
                    ));
                }
                let due = start + period * j;
                j += 1;
                let now = Instant::now();
                if due > now {
                    out.sleeps += 1;
                    let o = tr.open(Layer::LoadIdle, req);
                    std::thread::sleep(due - now);
                    tr.close(o);
                    out.idle_ns += (Instant::now() - now).as_nanos() as u64;
                }
                out.late.record((Instant::now() - due).as_nanos() as u64);
                let ids = span(tr, Layer::RuntimeWriteBurst, req, || {
                    cluster.write_burst(rid, &batch)
                });
                let burst_ns = (Instant::now() - due).as_nanos() as u64;
                out.bursts += 1;
                if measured {
                    out.burst_lat.record(burst_ns);
                    out.ops += ids.len() as u64;
                }
                for (k, id) in ids.iter().enumerate() {
                    if id.seq != next[r] + k as u64 || id.issuer != rid {
                        out.out_of_order_acks += 1;
                    }
                }
                // Read back each of r's registers: the snapshot must cover
                // the burst's last write of it.
                last_write.clear();
                last_write.resize(inputs.registers[r].len(), None);
                for ((x, _), id) in batch.iter().zip(&ids) {
                    let slot = inputs.registers[r]
                        .iter()
                        .position(|y| y == x)
                        .expect("own register");
                    last_write[slot] = Some(*id);
                }
                for (slot, &x) in inputs.registers[r].iter().enumerate() {
                    let t0 = Instant::now();
                    let (view, v) = span(tr, Layer::RuntimeRead, req, || {
                        let view = cluster.store_snapshot(rid);
                        let v = view.get(&x).cloned();
                        (view, v)
                    });
                    let read_ns = t0.elapsed().as_nanos() as u64;
                    if measured {
                        out.read_lat.record(read_ns);
                        out.ops += 1;
                    }
                    out.reads += 1;
                    let own_ok = last_write[slot].is_none_or(|u| view.covers(u));
                    let value_ok = v.as_ref().is_none_or(|v| inputs.is_write_of(v, x));
                    if !own_ok || !value_ok || (last_write[slot].is_some() && v.is_none()) {
                        out.bad_reads += 1;
                    }
                }
                next[r] += BURST as u64;
            }
            b += 1;
        }
    }
    tr.close(root);
    out.end = Some(Instant::now());
    out.acked = owned.iter().map(|&r| (r, next[r])).collect();
    out
}

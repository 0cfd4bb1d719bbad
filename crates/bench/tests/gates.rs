//! Performance and robustness gates of the wire codec, the session
//! layer, the threaded runtime, the serving tier and the TCP transport.
//!
//! Correctness gates (byte counts, convergence, consistency, session
//! guarantees, availability) are plain tests. Timing gates depend on the
//! host and the build profile, so they are ignored by default; run them
//! one at a time in release mode:
//!
//! ```text
//! cargo test --release -p prcc-bench --test gates -- --ignored --test-threads=1
//! ```
//!
//! Tests that read the same rows share one run of them per process.

use prcc_bench::e13_faults::run_cell;
use prcc_core::{
    cluster_codec, BatchMsg, BatchPolicy, ClusterConfig, Metadata, System, ThreadedCluster,
    UpdateMsg, Value, WireMode,
};
use prcc_net::{
    BoundListener, DelayModel, FaultPlan, FaultSchedule, SessionConfig, SessionFrame, TcpEndpoint,
    TcpNetConfig, Transport,
};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_sim::netrun::{write_value, NetWorkload};
use prcc_sim::serving::{run_serving_scenario, ServingRunReport, ServingScenarioConfig};
use prcc_sim::RunReport;
use prcc_timestamp::{TsRegistry, VectorClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const TIMING: &str = "timing gate: run with --release -- --ignored";

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

// ---------------------------------------------------------------------------
// Wire codec: metadata bytes and send cost per wire mode (lockstep System)
// ---------------------------------------------------------------------------

/// One wire run: every replica writes one of its registers, `rounds`
/// times, draining one step per replica between rounds. Returns
/// `(writes, messages, metadata bytes, send ns)`.
fn wire_run(g: &ShareGraph, mode: WireMode, rounds: usize) -> (usize, usize, usize, u128) {
    let mut sys = System::builder(g.clone())
        .wire_mode(mode)
        .delay(DelayModel::Fixed(1))
        .seed(42)
        .build();
    let writers: Vec<_> = g
        .replicas()
        .map(|i| {
            (
                i,
                g.placement().registers_of(i).first().expect("a register"),
            )
        })
        .collect();
    let mut send_ns = 0;
    for round in 0..rounds {
        for &(i, x) in &writers {
            let t = Instant::now();
            sys.write(i, x, Value::from(round as u64));
            send_ns += t.elapsed().as_nanos();
        }
        for _ in 0..writers.len() {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    assert!(sys.check().is_consistent(), "wire run must stay consistent");
    assert_eq!(
        sys.net_stats().codec_demotions,
        0,
        "registry layouts never demote"
    );
    let m = sys.metrics();
    let writes = rounds * writers.len();
    (
        writes,
        m.data_messages + m.meta_messages,
        m.metadata_bytes,
        send_ns,
    )
}

/// `(bytes per update, bytes per message)` over 10 rounds.
fn wire_bytes(g: &ShareGraph, mode: WireMode) -> (f64, f64) {
    let (writes, messages, bytes, _) = wire_run(g, mode, 10);
    (bytes as f64 / writes as f64, bytes as f64 / messages as f64)
}

fn clique24_wire_bytes() -> &'static [(f64, f64); 2] {
    static ROWS: OnceLock<[(f64, f64); 2]> = OnceLock::new();
    ROWS.get_or_init(|| {
        let g = topology::clique_full(24, 2);
        [
            wire_bytes(&g, WireMode::Raw),
            wire_bytes(&g, WireMode::Compressed),
        ]
    })
}

#[test]
fn wire_ring12_compressed_ships_fewer_bytes_than_raw() {
    let g = topology::ring(12);
    let (raw, _) = wire_bytes(&g, WireMode::Raw);
    let (comp, _) = wire_bytes(&g, WireMode::Compressed);
    assert!(
        comp < raw,
        "ring(12) compressed {comp:.2} B/update >= raw {raw:.2}"
    );
}

#[test]
fn wire_clique24_compression_ratio_at_least_8x() {
    let [(_, raw), (_, comp)] = *clique24_wire_bytes();
    let ratio = raw / comp;
    assert!(
        ratio >= 8.0,
        "clique(24) ratio {ratio:.1}x < 8x ({raw:.2} vs {comp:.2} B/message)"
    );
}

#[test]
fn wire_clique24_compressed_at_most_530_bytes_per_message() {
    let [_, (_, comp)] = *clique24_wire_bytes();
    assert!(
        comp <= 530.0,
        "clique(24) compressed {comp:.2} B/message > 530"
    );
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn wire_clique24_compressed_send_within_5x_raw() {
    let g = topology::clique_full(24, 2);
    let ns_per_send = |mode| {
        median(
            (0..3)
                .map(|_| {
                    let (writes, _, _, ns) = wire_run(&g, mode, 10);
                    ns as f64 / writes as f64
                })
                .collect(),
        )
    };
    let raw = ns_per_send(WireMode::Raw);
    let comp = ns_per_send(WireMode::Compressed);
    eprintln!("clique(24) ns/send: compressed {comp:.0}, raw {raw:.0}");
    assert!(
        comp <= 5.0 * raw.max(1.0),
        "{TIMING}: compressed {comp:.0} ns/send > 5x raw {raw:.0}"
    );
}

// ---------------------------------------------------------------------------
// Session layer: the E13 fault sweep on ring(5)
// ---------------------------------------------------------------------------

/// Drop probability × crash count on ring(5), 4 writes per replica.
fn fault_sweep() -> &'static [(f64, usize, RunReport)] {
    static SWEEP: OnceLock<Vec<(f64, usize, RunReport)>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let mut cells = Vec::new();
        for drop in [0.0, 0.1, 0.3, 0.5] {
            for crashes in 0..3 {
                cells.push((drop, crashes, run_cell(5, drop, crashes, 4)));
            }
        }
        cells
    })
}

#[test]
fn faults_every_cell_converges_checker_clean() {
    for (drop, crashes, rep) in fault_sweep() {
        assert!(
            rep.consistent && rep.stuck_pending == 0,
            "drop={drop} crashes={crashes}: stuck={} consistent={}",
            rep.stuck_pending,
            rep.consistent
        );
    }
}

#[test]
fn faults_fault_free_cell_never_retransmits() {
    let (_, _, rep) = &fault_sweep()[0];
    assert_eq!(rep.retransmits, 0);
}

#[test]
fn faults_high_drop_rates_retransmit() {
    assert!(fault_sweep()
        .iter()
        .any(|(drop, _, rep)| *drop >= 0.3 && rep.retransmits > 0));
}

// ---------------------------------------------------------------------------
// Threaded runtime: batched vs unbatched shipping
// ---------------------------------------------------------------------------

/// Updates/s of `writers` concurrent pipelined write bursts on
/// clique_full(8, 2), first issue to last remote apply.
fn clique8_updates_per_sec(batch: bool, writers: u32, writes_per_writer: usize) -> f64 {
    let g = topology::clique_full(8, 2);
    let cfg = ClusterConfig {
        session: Some(SessionConfig::default()),
        batch: if batch {
            BatchPolicy::default()
        } else {
            BatchPolicy::unbatched()
        },
        ingress_depth: 8192,
        ..ClusterConfig::default()
    };
    let cluster = ThreadedCluster::with_config(g.clone(), DelayModel::Fixed(1), 42, cfg);
    // Writer w drives replica w on the first register no earlier writer
    // claimed, sharing one once every register is taken.
    let mut assignments: Vec<(ReplicaId, RegisterId)> = Vec::new();
    for w in 0..writers {
        let regs = g.placement().registers_of(r(w));
        let x = regs
            .iter()
            .find(|x| assignments.iter().all(|&(_, y)| y != *x))
            .or_else(|| regs.first())
            .expect("every replica stores a register");
        assignments.push((r(w), x));
    }
    let expected: usize = assignments
        .iter()
        .map(|&(_, x)| writes_per_writer * (g.placement().holders(x).len() - 1))
        .sum();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for &(i, x) in &assignments {
            let cluster = &cluster;
            s.spawn(move || {
                let burst: Vec<_> = (0..writes_per_writer)
                    .map(|k| (x, Value::from(k as u64)))
                    .collect();
                cluster.write_burst(i, &burst);
            });
        }
    });
    let deadline = t0 + Duration::from_secs(120);
    while cluster.total_applied() < expected {
        assert!(Instant::now() < deadline, "throughput run stalled");
        std::thread::sleep(Duration::from_micros(500));
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(cluster.check().is_consistent());
    (writers as usize * writes_per_writer) as f64 / secs
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn throughput_batching_doubles_clique8_updates_per_sec() {
    let on = clique8_updates_per_sec(true, 8, 300);
    let off = clique8_updates_per_sec(false, 8, 300);
    eprintln!("clique(8) x 8 writers: batched {on:.0} up/s, unbatched {off:.0} up/s");
    assert!(
        on >= 2.0 * off,
        "{TIMING}: batched {on:.0} < 2x unbatched {off:.0} up/s"
    );
}

// ---------------------------------------------------------------------------
// Serving tier: sessions multiplexed onto clique_full(8, k)
// ---------------------------------------------------------------------------

fn serving_cfg(sessions: usize, ops_per_session: usize) -> ServingScenarioConfig {
    ServingScenarioConfig {
        sessions,
        ops_per_session,
        write_ratio: 0.1,
        zipf_theta: 1.0,
        workers: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(2, 8),
        seed: 42,
        flush_quantum: 64,
        ..Default::default()
    }
}

/// The naive serving design the tier replaces: one client, every op a
/// blocking command round trip into replica 0 of clique_full(8, 2).
/// Returns ops/s.
fn serial_baseline(ops: usize) -> f64 {
    let g = topology::clique_full(8, 2);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(1), 42);
    let regs: Vec<_> = g.placement().registers_of(r(0)).iter().collect();
    let mut rng = StdRng::seed_from_u64(42);
    let t0 = Instant::now();
    for k in 0..ops {
        let x = regs[k % regs.len()];
        if rng.gen_bool(0.1) {
            std::hint::black_box(cluster.write(r(0), x, Value::from(k as u64)));
        } else {
            std::hint::black_box(cluster.read_at(r(0), x));
        }
    }
    let ops_per_sec = ops as f64 / t0.elapsed().as_secs_f64();
    cluster.settle();
    assert!(
        cluster.check().is_consistent(),
        "serial baseline inconsistent"
    );
    ops_per_sec
}

struct ServingRows {
    baseline_ops_per_sec: f64,
    headline: ServingRunReport,
    closed_loop: ServingRunReport,
    /// `(registers, report)` for 64, 1 024 and 16 384 registers.
    sweep: Vec<(usize, ServingRunReport)>,
}

/// The quick sweep: 2 000 sessions × 20 ops on clique_full(8, 2), the
/// same run closed loop, and 1 000 sessions × 15 ops over growing
/// register spaces.
fn serving_rows() -> &'static ServingRows {
    static ROWS: OnceLock<ServingRows> = OnceLock::new();
    ROWS.get_or_init(|| {
        let clique = topology::clique_full(8, 2);
        let headline = serving_cfg(2_000, 20);
        ServingRows {
            baseline_ops_per_sec: serial_baseline(5_000),
            headline: run_serving_scenario(&clique, &headline),
            closed_loop: run_serving_scenario(
                &clique,
                &ServingScenarioConfig {
                    flush_quantum: 1,
                    ..headline
                },
            ),
            sweep: [64, 1024, 16384]
                .into_iter()
                .map(|k| {
                    let g = topology::clique_full(8, k);
                    (k, run_serving_scenario(&g, &serving_cfg(1_000, 15)))
                })
                .collect(),
        }
    })
}

/// The full-size headline: 10 000 sessions × 12 ops, against a 20 000-op
/// serial baseline.
fn serving_full() -> &'static (f64, ServingRunReport) {
    static FULL: OnceLock<(f64, ServingRunReport)> = OnceLock::new();
    FULL.get_or_init(|| {
        let rep = run_serving_scenario(&topology::clique_full(8, 2), &serving_cfg(10_000, 12));
        assert!(rep.consistent && rep.session_violations == 0, "{rep}");
        (serial_baseline(20_000), rep)
    })
}

#[test]
fn serving_rows_are_consistent_and_fully_routed() {
    let rows = serving_rows();
    let sweep = rows.sweep.iter().map(|(_, rep)| rep);
    for rep in [&rows.headline, &rows.closed_loop].into_iter().chain(sweep) {
        assert!(rep.consistent, "{rep}");
        assert_eq!(rep.session_violations, 0, "{rep}");
        assert_eq!(
            rep.stats.ops_routed_local + rep.stats.ops_forwarded,
            rep.ops,
            "{rep}"
        );
    }
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_beats_serial_baseline_1_5x() {
    let rows = serving_rows();
    let (tier, base) = (rows.headline.ops_per_sec, rows.baseline_ops_per_sec);
    eprintln!("serving {tier:.0} ops/s vs serial baseline {base:.0}");
    assert!(
        tier >= 1.5 * base,
        "{TIMING}: {tier:.0} ops/s < 1.5x baseline {base:.0}"
    );
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_write_p50_within_2ms() {
    let p50 = serving_rows().headline.write_p50_ns;
    eprintln!("serving headline write p50 {p50} ns");
    assert!(p50 <= 2_000_000, "{TIMING}: write p50 {p50} ns > 2 ms");
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_write_p50_flat_from_64_to_16k_registers() {
    let sweep = &serving_rows().sweep;
    let (small, big) = (sweep[0].1.write_p50_ns, sweep[2].1.write_p50_ns);
    eprintln!("write p50: {small} ns at 64 registers, {big} ns at 16384");
    assert!(
        big <= 2 * small.max(1),
        "{TIMING}: {big} ns > 2x {small} ns"
    );
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_full_beats_serial_baseline_1_5x() {
    let (base, rep) = serving_full();
    eprintln!(
        "full serving {:.0} ops/s vs serial baseline {base:.0}",
        rep.ops_per_sec
    );
    assert!(rep.ops_per_sec >= 1.5 * base, "{TIMING}: {rep}");
}

/// The full headline is also the fault-free baseline of the storm rows.
#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_full_sustains_100k_ops_per_sec() {
    let (_, rep) = serving_full();
    eprintln!("full serving {:.0} ops/s", rep.ops_per_sec);
    assert!(rep.ops_per_sec >= 100_000.0, "{TIMING}: {rep}");
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn serving_full_write_p50_within_1ms() {
    let (_, rep) = serving_full();
    eprintln!("full serving write p50 {} ns", rep.write_p50_ns);
    assert!(rep.write_p50_ns <= 1_000_000, "{TIMING}: {rep}");
}

// ---------------------------------------------------------------------------
// Serving tier under fault storms
// ---------------------------------------------------------------------------

struct Storms {
    baseline: ServingRunReport,
    /// `(report, scripted restarts)` for the clique and ring storms.
    storms: [(ServingRunReport, usize); 2],
}

/// A fault-free clique baseline, a clique crash storm (two staggered
/// crashes + 30 % drops) and a ring storm (crash + flapping link + 20 %
/// drops); one storm tick is 200 µs of wall clock.
fn storms() -> &'static Storms {
    static STORMS: OnceLock<Storms> = OnceLock::new();
    STORMS.get_or_init(|| {
        let base = serving_cfg(2_000, 20);
        let clique = topology::clique_full(8, 2);
        let clique_storm = FaultSchedule::from_plan(FaultPlan::dropping(0.3))
            .crash(r(0), 10, 300)
            .crash(r(3), 50, 400);
        let ring_storm = FaultSchedule::from_plan(FaultPlan::dropping(0.2))
            .crash(r(1), 10, 350)
            .flap(r(4), r(5), 0, 40, 40, 4);
        let storm = |faults, sessions| ServingScenarioConfig {
            sessions,
            faults,
            durability: Some(256),
            ..base.clone()
        };
        Storms {
            baseline: run_serving_scenario(&clique, &base),
            storms: [
                (
                    run_serving_scenario(&clique, &storm(clique_storm, 2_000)),
                    2,
                ),
                (
                    run_serving_scenario(&topology::ring(8), &storm(ring_storm, 1_000)),
                    1,
                ),
            ],
        }
    })
}

#[test]
fn resilience_rows_are_verified() {
    let s = storms();
    for rep in std::iter::once(&s.baseline).chain(s.storms.iter().map(|(rep, _)| rep)) {
        assert!(rep.consistent && rep.session_violations == 0, "{rep}");
        assert_eq!(rep.acked_write_loss, 0, "{rep}");
        assert!(rep.ops + rep.stats.ops_shed <= rep.attempted, "{rep}");
    }
}

#[test]
fn resilience_baseline_is_failover_free_at_full_availability() {
    let rep = &storms().baseline;
    assert_eq!(rep.availability, 1.0, "{rep}");
    assert_eq!(rep.ops, rep.attempted, "{rep}");
    assert_eq!(rep.restarts, 0, "{rep}");
    let st = &rep.stats;
    assert_eq!(
        (
            st.failovers,
            st.ops_shed,
            st.op_timeouts,
            st.writes_abandoned
        ),
        (0, 0, 0, 0)
    );
}

#[test]
fn resilience_storms_fail_over_restart_and_stay_available() {
    for (rep, restarts) in &storms().storms {
        assert!(rep.stats.failovers > 0, "no failovers: {rep}");
        assert_eq!(rep.restarts, *restarts, "{rep}");
        assert!(rep.availability >= 0.5, "{rep}");
    }
}

// ---------------------------------------------------------------------------
// TCP transport: bytes on the real wire and write coalescing
// ---------------------------------------------------------------------------

/// Kernel-visible bytes per delivered update on a loopback TCP
/// clique_full(24, 2), compressed wire, write coalescing on: 150 rounds of
/// the single-writer schedule, one burst per writing replica.
fn clique24_tcp_bytes_per_message() -> f64 {
    let g = topology::clique_full(24, 2);
    let config = ClusterConfig {
        wire: WireMode::Compressed,
        // Loopback RTO well above a contended round trip, so the bytes
        // measure the codec rather than retransmission noise.
        session: Some(SessionConfig {
            rto_base: 400,
            rto_max: 2000,
            jitter: 20,
            ack_delay: 0,
        }),
        batch: BatchPolicy {
            batch_count: 1,
            ..BatchPolicy::default()
        },
        ..ClusterConfig::default()
    };
    let cluster = ThreadedCluster::with_tcp(g.clone(), config, TcpNetConfig::default())
        .expect("loopback cluster");
    let rounds = 150;
    let wl = NetWorkload::new(&g, rounds);
    std::thread::scope(|s| {
        for i in g.replicas() {
            let regs = wl.registers_of(i);
            if regs.is_empty() {
                continue;
            }
            let cluster = &cluster;
            s.spawn(move || {
                let burst: Vec<_> = (0..rounds)
                    .flat_map(|round| regs.iter().map(move |&x| (x, write_value(x, round))))
                    .collect();
                cluster.write_burst(i, &burst);
            });
        }
    });
    cluster.settle();
    assert!(cluster.check().is_consistent());
    let bytes: u64 = cluster
        .tcp_stats()
        .expect("tcp stats")
        .iter()
        .map(|s| s.bytes_sent)
        .sum();
    bytes as f64 / cluster.total_applied().max(1) as f64
}

/// Frames/s through one loopback socket with the cluster codec: 20 000
/// one-update frames submitted until all are handed to the kernel, with
/// `coalesce` choosing many frames per `write(2)` or one.
fn pump_frames_per_sec(coalesce: bool) -> f64 {
    const FRAMES: u64 = 20_000;
    let g = topology::path(2);
    let registry = Arc::new(TsRegistry::new(
        &g,
        TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
    ));
    let cfg = TcpNetConfig {
        coalesce,
        // Deep enough for the whole pump: neither side blocks.
        outbox_depth: FRAMES as usize + 16,
        ingress_depth: FRAMES as usize + 16,
        ..TcpNetConfig::default()
    };
    let loopback = ([127, 0, 0, 1], 0).into();
    let (b0, b1) = (
        BoundListener::bind(r(0), loopback).expect("bind"),
        BoundListener::bind(r(1), loopback).expect("bind"),
    );
    let (a0, a1) = (b0.local_addr(), b1.local_addr());
    let e0 = TcpEndpoint::start(
        b0,
        HashMap::from([(r(1), a1)]),
        cfg.clone(),
        cluster_codec(r(0), registry.clone()),
    )
    .expect("endpoint 0");
    let e1 = TcpEndpoint::start(
        b1,
        HashMap::from([(r(0), a0)]),
        cfg,
        cluster_codec(r(1), registry),
    )
    .expect("endpoint 1");
    let (h0, h1) = (e0.handle(), e1.handle());
    let meta = Arc::new(Metadata::Vector(VectorClock::from_values(vec![1, 0])));
    let frame = |seq: u64| {
        SessionFrame::Bare(BatchMsg {
            updates: vec![UpdateMsg {
                issuer: r(0),
                seq,
                register: RegisterId::new(0),
                value: Some(Value::U64(seq)),
                meta: meta.clone(),
                transit: None,
            }],
        })
    };
    // The handshake stays outside the timed window.
    assert!(h0.send(r(1), frame(0)));
    assert!(h1.recv_timeout(Duration::from_secs(10)).is_some());
    let receiver = std::thread::spawn(move || {
        for got in 0..FRAMES {
            assert!(
                h1.recv_timeout(Duration::from_secs(10)).is_some(),
                "pump lost frame {got}"
            );
        }
    });
    let t0 = Instant::now();
    for seq in 1..=FRAMES {
        while !h0.send(r(1), frame(seq)) {
            std::thread::yield_now();
        }
    }
    while e0.stats().frames_sent < FRAMES + 1 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    receiver.join().expect("receiver");
    e0.shutdown();
    e1.shutdown();
    FRAMES as f64 / elapsed.as_secs_f64()
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn net_clique24_compressed_at_most_530_bytes_per_message_on_the_wire() {
    let bytes = median((0..3).map(|_| clique24_tcp_bytes_per_message()).collect());
    eprintln!("clique(24) compressed {bytes:.2} B/message on the wire");
    assert!(bytes <= 530.0, "{TIMING}: {bytes:.2} B/message > 530");
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn net_pump_coalescing_at_least_1_5x() {
    let on = median((0..3).map(|_| pump_frames_per_sec(true)).collect());
    let off = median((0..3).map(|_| pump_frames_per_sec(false)).collect());
    eprintln!(
        "pump: coalesced {on:.0} frames/s, per-frame {off:.0} ({:.2}x)",
        on / off
    );
    assert!(
        on >= 1.5 * off,
        "{TIMING}: coalescing {:.2}x < 1.5x",
        on / off
    );
}

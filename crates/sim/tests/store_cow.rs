//! Differential test: the threaded runtime's published snapshots against
//! the lockstep [`System`] oracle.
//!
//! The threaded runtime publishes O(Δ) copy-on-write views from one
//! replica loop whose I/O half runs on its own thread (no WAL) or inline
//! on the apply thread (WAL armed). None of that may be observable: the
//! same single-writer workload, replayed through the lockstep `System`
//! in the same per-issuer order (so every update id matches), must end
//! in byte-identical canonical stores (values and provenance) on every
//! replica, identical applied frontiers, identical `covers()` verdicts
//! over a grid of update ids, and the same clean causal-consistency
//! verdict — under both I/O placements, with and without faults. The
//! serving tier re-runs its own session-guarantee checker under both
//! placements.
//!
//! A separate non-vacuity test pins the mechanism itself: consecutive
//! published views of a many-register store must share the `Arc`s of
//! every shard the intervening writes did not touch — if that ever
//! degrades to cloning everything, the O(Δ) claim is silently gone and
//! this test, not a benchmark, catches it.

use prcc_checker::{Event, UpdateId};
use prcc_core::{ClusterConfig, ReplicaView, System, ThreadedCluster, Value};
use prcc_net::{DelayModel, FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
use prcc_sim::netrun::{store_lines, NetWorkload};
use prcc_sim::serving::{run_serving_scenario, ServingScenarioConfig};
use proptest::prelude::*;

/// The two places a replica's I/O half runs, as the durability setting
/// selects them: its own `io-N` thread (no WAL) or the apply thread (a
/// WAL compacting every 16 entries).
const PLACEMENTS: [Option<usize>; 2] = [None, Some(16)];

/// Everything observable about a finished run, canonicalised for
/// comparison with the oracle.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Per-replica canonical store lines (value + provenance, sorted).
    stores: Vec<Vec<String>>,
    /// Per-replica applied frontiers.
    frontiers: Vec<Vec<u64>>,
    /// Per-replica `covers()` verdicts over a fixed grid of update ids.
    covers: Vec<Vec<bool>>,
    /// Causal-consistency verdict of the trace.
    consistent: bool,
}

impl Observed {
    /// Canonicalises one view per replica. The `covers()` grid crosses
    /// every issuer with every seq up to one past the largest any
    /// workload issuer reaches.
    fn new(g: &ShareGraph, wl: &NetWorkload, views: &[ReplicaView], consistent: bool) -> Self {
        let max_seq = g
            .replicas()
            .map(|r| wl.registers_of(r).len() as u64 * wl.rounds())
            .max()
            .unwrap_or(0);
        Observed {
            stores: views.iter().map(store_lines).collect(),
            frontiers: views.iter().map(|v| v.frontier().to_vec()).collect(),
            covers: views
                .iter()
                .map(|v| {
                    g.replicas()
                        .flat_map(|issuer| {
                            (0..=max_seq + 1).map(move |seq| UpdateId { issuer, seq })
                        })
                        .map(|u| v.covers(u))
                        .collect()
                })
                .collect(),
            consistent,
        }
    }
}

/// Fast session config for `DelayModel::Fixed(1)` runs: round trips are
/// a few 200 µs ticks, so retransmission can be aggressive without
/// spurious resends dominating the run.
fn quick_session() -> SessionConfig {
    SessionConfig {
        rto_base: 40,
        rto_max: 320,
        jitter: 4,
        ack_delay: 0,
    }
}

/// The oracle: the workload replayed through the lockstep `System` to
/// quiescence. Its views are captured from the final replicas with the
/// frontier the trace implies (every update a replica issued or
/// applied, per issuer).
fn lockstep(
    g: &ShareGraph,
    wl: &NetWorkload,
    seed: u64,
    schedule: &FaultSchedule,
    session: Option<SessionConfig>,
) -> Observed {
    let mut builder = System::builder(g.clone())
        .delay(DelayModel::Fixed(1))
        .seed(seed)
        .fault_schedule(schedule.clone());
    if let Some(cfg) = session {
        builder = builder.session(cfg);
    }
    let mut sys = builder.build();
    for (r, x, v) in wl.writes() {
        sys.write(r, x, v);
    }
    sys.run_to_quiescence();
    let n = g.num_replicas();
    let mut frontiers = vec![vec![0u64; n]; n];
    for ev in sys.trace().events() {
        let (at, u) = match *ev {
            Event::Issue { update, .. } => (update.issuer, update),
            Event::Apply { update, at } => (at, update),
        };
        let f = &mut frontiers[at.index()][u.issuer.index()];
        *f = (*f).max(u.seq + 1);
    }
    let views: Vec<ReplicaView> = g
        .replicas()
        .zip(frontiers)
        .map(|(r, f)| ReplicaView::capture(sys.replica(r), f))
        .collect();
    Observed::new(g, wl, &views, sys.check().is_consistent())
}

/// One threaded run of the workload, observed through the published
/// snapshots.
fn threaded(
    g: &ShareGraph,
    wl: &NetWorkload,
    seed: u64,
    durability: Option<usize>,
    schedule: &FaultSchedule,
    session: Option<SessionConfig>,
) -> Observed {
    let cluster = ThreadedCluster::with_config(
        g.clone(),
        DelayModel::Fixed(1),
        seed,
        ClusterConfig {
            schedule: schedule.clone(),
            session,
            durability,
            ..Default::default()
        },
    );
    wl.drive(&cluster);
    cluster.settle();
    let views: Vec<ReplicaView> = g
        .replicas()
        .map(|r| (*cluster.store_snapshot(r)).clone())
        .collect();
    let consistent = cluster.check().is_consistent();
    cluster.shutdown();
    Observed::new(g, wl, &views, consistent)
}

/// Runs the workload through the lockstep oracle and through the
/// threaded runtime under both I/O placements, and asserts every
/// observation is identical and consistent.
fn assert_matches_lockstep(
    g: &ShareGraph,
    rounds: u64,
    seed: u64,
    schedule: &FaultSchedule,
    session: Option<SessionConfig>,
) {
    let wl = NetWorkload::new(g, rounds);
    let oracle = lockstep(g, &wl, seed, schedule, session);
    assert!(oracle.consistent, "lockstep oracle trace inconsistent");
    for durability in PLACEMENTS {
        let subject = threaded(g, &wl, seed, durability, schedule, session);
        assert_eq!(
            subject, oracle,
            "durability={durability:?} diverged from the lockstep oracle"
        );
    }
}

#[test]
fn ring_benign_matches_lockstep() {
    let g = topology::ring(5);
    assert_matches_lockstep(&g, 3, 11, &FaultSchedule::none(), None);
}

#[test]
fn clique_benign_matches_lockstep() {
    let g = topology::clique_full(4, 24);
    assert_matches_lockstep(&g, 2, 7, &FaultSchedule::none(), None);
}

#[test]
fn ring_with_drops_and_session_matches_lockstep() {
    let g = topology::ring(4);
    let schedule = FaultSchedule::from_plan(FaultPlan::dropping(0.25));
    assert_matches_lockstep(&g, 3, 23, &schedule, Some(quick_session()));
}

#[test]
fn clique_with_outage_and_session_matches_lockstep() {
    let g = topology::clique_full(4, 12);
    let schedule = FaultSchedule::none()
        .outage(ReplicaId::new(0), ReplicaId::new(1), 20, 300)
        .outage(ReplicaId::new(2), ReplicaId::new(3), 50, 250);
    assert_matches_lockstep(&g, 2, 31, &schedule, Some(quick_session()));
}

/// The WAL-armed arm on its own, under every fault at once: the inline
/// I/O half must log own writes, sends and deliveries, ack only after
/// the WAL write, and still converge to the oracle's world through drops,
/// a link outage and session retransmission.
#[test]
fn wal_armed_with_drops_outage_and_session_matches_lockstep() {
    let g = topology::ring(5);
    let wl = NetWorkload::new(&g, 3);
    let schedule = FaultSchedule::from_plan(FaultPlan::dropping(0.2)).outage(
        ReplicaId::new(1),
        ReplicaId::new(2),
        10,
        200,
    );
    let session = Some(quick_session());
    let oracle = lockstep(&g, &wl, 41, &schedule, session);
    assert!(oracle.consistent, "lockstep oracle trace inconsistent");
    let subject = threaded(&g, &wl, 41, Some(4), &schedule, session);
    assert_eq!(subject, oracle, "WAL-armed run diverged from the oracle");
}

proptest! {
    /// Benign runs across graph shapes, sizes, rounds and seeds: both
    /// I/O placements observe the same world as the lockstep oracle. One
    /// placement per case keeps each case at one threaded run.
    #[test]
    fn placements_match_lockstep_across_workloads(
        ring in 0usize..2,
        n in 3usize..6,
        registers in 4usize..32,
        rounds in 1u64..3,
        placement in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let g = if ring == 1 {
            topology::ring(n)
        } else {
            topology::clique_full(n, registers)
        };
        let wl = NetWorkload::new(&g, rounds);
        let none = FaultSchedule::none();
        let oracle = lockstep(&g, &wl, seed, &none, None);
        prop_assert!(oracle.consistent, "lockstep oracle trace inconsistent");
        let durability = PLACEMENTS[placement];
        let subject = threaded(&g, &wl, seed, durability, &none, None);
        prop_assert_eq!(
            subject, oracle,
            "durability={:?} diverged from the lockstep oracle", durability
        );
    }
}

/// The serving tier's own check under both I/O placements, judged by
/// the causal-consistency check *and* the session-guarantee checker. A
/// completed write must never be invisible to its own session (the
/// checker counts that as a read-your-writes violation).
#[test]
fn serving_session_guarantees_hold_under_both_placements() {
    for durability in PLACEMENTS {
        let report = run_serving_scenario(
            &topology::clique_full(4, 8),
            &ServingScenarioConfig {
                sessions: 16,
                ops_per_session: 25,
                workers: 4,
                write_ratio: 0.4,
                zipf_theta: 0.9,
                seed: 17,
                durability,
                ..Default::default()
            },
        );
        assert!(
            report.consistent,
            "durability={durability:?}: trace inconsistent: {report}"
        );
        assert_eq!(
            report.session_violations, 0,
            "durability={durability:?}: session guarantees violated: {report}"
        );
    }
}

/// Non-vacuity: consecutive publishes of a many-register store must
/// alias (share `Arc`s for) every shard the intervening write did not
/// touch. A single write can dirty at most one shard, so at least
/// `total - 1` of the shards must be pointer-identical across the two
/// views — this is the O(Δ) mechanism itself, not a proxy metric.
#[test]
fn consecutive_publishes_alias_unchanged_shards() {
    for durability in PLACEMENTS {
        let g = topology::clique_full(2, 2048);
        let cluster = ThreadedCluster::with_config(
            g,
            DelayModel::Fixed(1),
            3,
            ClusterConfig {
                durability,
                ..Default::default()
            },
        );
        let r0 = ReplicaId::new(0);
        cluster.write(r0, RegisterId::new(0), Value::from(1u64));
        cluster.settle();
        let before = cluster.store_snapshot(r0);
        cluster.write(r0, RegisterId::new(1), Value::from(2u64));
        cluster.settle();
        let after = cluster.store_snapshot(r0);
        let (aliased, total) = after.shards_shared_with(&before);
        assert!(total >= 64, "2048 registers must spread over many shards");
        assert!(
            aliased >= total - 1,
            "durability={durability:?}: one write may dirty one shard, yet only \
             {aliased}/{total} aliased"
        );
        assert!(aliased < total, "the written shard must have been rebuilt");
        cluster.shutdown();
    }
}

/// Read-your-writes across the burst-publish path: a completion token
/// must never escape before the publish that makes the write visible.
/// Every `write` and every id of a `write_burst` must be covered by the
/// very next snapshot taken — under both I/O placements, with
/// concurrent writers hammering the same replicas.
#[test]
fn completed_writes_are_immediately_visible() {
    for durability in PLACEMENTS {
        let g = topology::clique_full(3, 16);
        let cluster = ThreadedCluster::with_config(
            g.clone(),
            DelayModel::Fixed(1),
            5,
            ClusterConfig {
                durability,
                ..Default::default()
            },
        );
        std::thread::scope(|scope| {
            for r in g.replicas() {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let x = RegisterId::new((i % 16) as u32);
                        let uid = cluster.write(r, x, Value::from(i));
                        assert!(
                            cluster.store_snapshot(r).covers(uid),
                            "durability={durability:?}: write token escaped \
                             before its publish"
                        );
                    }
                    let burst: Vec<_> = (0..16u32)
                        .map(|j| (RegisterId::new(j), Value::from(u64::from(j) + 100)))
                        .collect();
                    let ids = cluster.write_burst(r, &burst);
                    let view = cluster.store_snapshot(r);
                    for uid in ids {
                        assert!(
                            view.covers(uid),
                            "durability={durability:?}: burst token escaped \
                             before its publish"
                        );
                    }
                });
            }
        });
        cluster.settle();
        assert!(cluster.check().is_consistent());
        cluster.shutdown();
    }
}

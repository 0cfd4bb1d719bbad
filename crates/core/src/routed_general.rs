//! Restricted inter-replica communication (Appendix D): break share-graph
//! edges and route their registers' updates over virtual registers along
//! residual paths.
//!
//! For each broken edge `(a, b)`, each register shared by exactly
//! `{a, b}` is split into the original copy at `a` plus a twin at `b`; a
//! BFS path through the residual share graph carries writes between them
//! as metadata+payload updates on fresh virtual registers. The timestamp
//! graphs are built on the *effective* (post-surgery) share graph, which
//! is where the metadata savings come from.
//!
//! [`RoutedSystem::ring`] is Figure 13's case: breaking one ring edge
//! turns the share graph into a path, so each timestamp shrinks from `2n`
//! counters to the tree-sized `2·N_i`, while writes to the broken
//! register pay `n−1` hops of propagation latency.

use crate::message::{TransitInfo, UpdateMsg};
use crate::replica::Replica;
use crate::system::SystemMetrics;
use crate::tracker::{CausalityTracker, EdgeTracker};
use crate::value::Value;
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{DelayModel, SimNetwork};
use prcc_sharegraph::{
    LoopConfig, Placement, RegSet, RegisterId, ReplicaId, ShareGraph, TimestampGraphs,
};
use prcc_timestamp::TsRegistry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a routing surgery could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedError {
    /// The named pair shares no registers.
    NothingShared(ReplicaId, ReplicaId),
    /// A register on the broken edge has holders beyond the pair, so
    /// removing the direct edge would not disconnect them.
    NotPairwise(RegisterId),
    /// After removing the broken edges, no residual path connects the
    /// pair.
    NoResidualPath(ReplicaId, ReplicaId),
}

impl fmt::Display for RoutedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutedError::NothingShared(a, b) => {
                write!(f, "replicas {a} and {b} share no registers")
            }
            RoutedError::NotPairwise(x) => {
                write!(f, "register {x} has holders beyond the broken pair")
            }
            RoutedError::NoResidualPath(a, b) => {
                write!(f, "no residual path between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for RoutedError {}

#[derive(Debug, Clone)]
struct BrokenInfo {
    a: ReplicaId,
    b: ReplicaId,
    twin: RegisterId,
    /// Residual path `a = route[0], …, route[last] = b`.
    route: Vec<ReplicaId>,
}

/// A deployment with broken edges and routed registers.
pub struct RoutedSystem {
    logical: Placement,
    effective: ShareGraph,
    replicas: Vec<Replica>,
    net: SimNetwork<UpdateMsg>,
    trace: Trace,
    metrics: SystemMetrics,
    issue_time: HashMap<UpdateId, u64>,
    transit_issue: HashMap<(ReplicaId, u64), u64>,
    broken: HashMap<RegisterId, BrokenInfo>,
    /// Virtual register per undirected residual edge used by some route.
    virtuals: HashMap<(ReplicaId, ReplicaId), RegisterId>,
}

impl fmt::Debug for RoutedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedSystem")
            .field("replicas", &self.replicas.len())
            .field("broken_registers", &self.broken.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl RoutedSystem {
    /// Breaks every `(a, b)` pair in `break_edges` on `graph`.
    ///
    /// # Errors
    ///
    /// See [`RoutedError`]. All registers on a broken edge must be held
    /// by exactly that pair, and the residual graph must still connect
    /// each pair.
    pub fn new(
        graph: &ShareGraph,
        break_edges: &[(ReplicaId, ReplicaId)],
        delay: DelayModel,
        seed: u64,
    ) -> Result<Self, RoutedError> {
        let logical = graph.placement().clone();
        let n = logical.num_replicas();
        let mut sets: Vec<RegSet> = (0..n)
            .map(|i| logical.registers_of(ReplicaId::new(i as u32)).clone())
            .collect();
        let mut next_reg = logical.num_registers() as u32;
        let mut broken: HashMap<RegisterId, BrokenInfo> = HashMap::new();

        // Surgery: split each pairwise register of each broken edge.
        let mut pending_routes: Vec<(RegisterId, ReplicaId, ReplicaId)> = Vec::new();
        for &(a, b) in break_edges {
            let shared = logical.shared(a, b);
            if shared.is_empty() {
                return Err(RoutedError::NothingShared(a, b));
            }
            for x in shared.iter() {
                if logical.holders(x) != [a.min(b), a.max(b)] {
                    return Err(RoutedError::NotPairwise(x));
                }
                let twin = RegisterId::new(next_reg);
                next_reg += 1;
                sets[b.index()].remove(x);
                sets[b.index()].insert(twin);
                broken.insert(
                    x,
                    BrokenInfo {
                        a,
                        b,
                        twin,
                        route: Vec::new(),
                    },
                );
                pending_routes.push((x, a, b));
            }
        }

        // Residual graph (before virtuals) for route computation.
        let residual = ShareGraph::new(Placement::from_sets(sets.clone()));
        let mut virtuals: HashMap<(ReplicaId, ReplicaId), RegisterId> = HashMap::new();
        for (x, a, b) in pending_routes {
            let route = bfs_path(&residual, a, b).ok_or(RoutedError::NoResidualPath(a, b))?;
            for w in route.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                let vreg = *virtuals.entry(key).or_insert_with(|| {
                    let v = RegisterId::new(next_reg);
                    next_reg += 1;
                    sets[key.0.index()].insert(v);
                    sets[key.1.index()].insert(v);
                    v
                });
                let _ = vreg;
            }
            broken.get_mut(&x).expect("inserted above").route = route;
        }

        let effective = ShareGraph::new(Placement::from_sets(sets));
        let registry = Arc::new(TsRegistry::new(
            &effective,
            TimestampGraphs::build(&effective, LoopConfig::EXHAUSTIVE),
        ));
        let replicas = effective
            .replicas()
            .map(|i| {
                Replica::new(
                    i,
                    effective.placement().registers_of(i).clone(),
                    Box::new(EdgeTracker::new(registry.clone(), i)) as Box<dyn CausalityTracker>,
                )
            })
            .collect();

        Ok(RoutedSystem {
            logical,
            effective,
            replicas,
            net: SimNetwork::new(delay, seed),
            trace: Trace::new(),
            metrics: SystemMetrics::default(),
            issue_time: HashMap::new(),
            transit_issue: HashMap::new(),
            broken,
            virtuals,
        })
    }

    /// Figure 13's broken ring: ring(`n`) (register `i` shared by `i` and
    /// `i+1 mod n`) with edge `(n−1, 0)` broken. Register `n−1` stays at
    /// replica `n−1`, replica 0 holds its twin, and writes to it travel
    /// the path `n−1 → n−2 → … → 0` on virtual registers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize, delay: DelayModel, seed: u64) -> Self {
        assert!(n >= 3, "a ring needs at least 3 replicas");
        let far = ReplicaId::new((n - 1) as u32);
        Self::new(
            &prcc_sharegraph::topology::ring(n),
            &[(far, ReplicaId::new(0))],
            delay,
            seed,
        )
        .expect("a ring minus one edge is a path")
    }

    /// The effective (post-surgery) share graph.
    pub fn effective_graph(&self) -> &ShareGraph {
        &self.effective
    }

    /// Per-replica timestamp counter counts.
    pub fn timestamp_counters(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .map(|r| r.tracker().num_counters())
            .collect()
    }

    fn local_register(&self, r: ReplicaId, x: RegisterId) -> RegisterId {
        match self.broken.get(&x) {
            Some(info) if r == info.b => info.twin,
            _ => x,
        }
    }

    /// Client write of the *logical* register `x` at replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not logically store `x`.
    pub fn write(&mut self, r: ReplicaId, x: RegisterId, v: Value) -> UpdateId {
        assert!(
            self.logical.stores(r, x),
            "register {x} not logically stored at {r}"
        );
        let local = self.local_register(r, x);
        let recipients: Vec<ReplicaId> = self
            .effective
            .placement()
            .holders(local)
            .iter()
            .copied()
            .filter(|&h| h != r)
            .collect();
        let (msg, recipients) = self.replicas[r.index()]
            .write(local, v.clone(), recipients)
            .unwrap_or_else(|e| panic!("{e}"));
        let id = UpdateId {
            issuer: r,
            seq: msg.seq,
        };
        self.trace.record_issue_with_id(id, x);
        self.issue_time.insert(id, self.net.now());
        for dst in &recipients {
            self.account_send(&msg);
            self.net.send(r, *dst, msg.clone());
        }
        if let Some(info) = self.broken.get(&x).cloned() {
            if r == info.a || r == info.b {
                let final_dst = if r == info.a { info.b } else { info.a };
                self.transit_issue.insert((r, msg.seq), self.net.now());
                self.send_transit_hop(
                    r,
                    TransitInfo {
                        origin: (r, msg.seq),
                        register: x,
                        final_dst,
                        value: v,
                    },
                );
            }
        }
        id
    }

    fn send_transit_hop(&mut self, at: ReplicaId, transit: TransitInfo) {
        let info = self.broken[&transit.register].clone();
        let pos = info
            .route
            .iter()
            .position(|&p| p == at)
            .expect("transit holder on route");
        let next = if transit.final_dst == info.b {
            info.route[pos + 1]
        } else {
            info.route[pos - 1]
        };
        let key = (at.min(next), at.max(next));
        let vreg = self.virtuals[&key];
        let mut msg = self.replicas[at.index()].issue_virtual(vreg, None);
        msg.transit = Some(transit);
        let id = UpdateId {
            issuer: at,
            seq: msg.seq,
        };
        self.trace.record_issue_with_id(id, vreg);
        self.issue_time.insert(id, self.net.now());
        self.account_send(&msg);
        self.net.send(at, next, msg);
    }

    fn account_send(&mut self, m: &UpdateMsg) {
        self.metrics.metadata_bytes += m.meta.size_bytes();
        if let Some(v) = &m.value {
            self.metrics.data_messages += 1;
            self.metrics.payload_bytes += v.size_bytes();
        } else {
            self.metrics.meta_messages += 1;
        }
    }

    /// Reads the *logical* register `x` at replica `r`.
    pub fn read(&self, r: ReplicaId, x: RegisterId) -> Option<&Value> {
        self.replicas[r.index()].read(self.local_register(r, x))
    }

    /// Delivers one message; returns `false` at quiescence.
    pub fn step(&mut self) -> bool {
        let Some((t, env)) = self.net.next_delivery() else {
            return false;
        };
        let dst = env.dst;
        let applied = self.replicas[dst.index()].receive(env.msg);
        for a in applied {
            let id = UpdateId {
                issuer: a.msg.issuer,
                seq: a.msg.seq,
            };
            if let Some(transit) = &a.msg.transit {
                if transit.final_dst == dst {
                    self.trace.record_apply(
                        UpdateId {
                            issuer: transit.origin.0,
                            seq: transit.origin.1,
                        },
                        dst,
                    );
                }
            }
            self.trace.record_apply(id, dst);
            self.metrics.applies += 1;
            if let Some(&issued) = self.issue_time.get(&id) {
                let vis = t.saturating_sub(issued);
                self.metrics.total_visibility += vis;
                self.metrics.visibility_samples += 1;
                self.metrics.max_visibility = self.metrics.max_visibility.max(vis);
            }
            if let Some(transit) = a.msg.transit.clone() {
                if transit.final_dst == dst {
                    let local = self.local_register(dst, transit.register);
                    self.replicas[dst.index()].store_local(local, transit.value.clone());
                    if let Some(issued) = self.transit_issue.remove(&transit.origin) {
                        let vis = t.saturating_sub(issued);
                        self.metrics.total_visibility += vis;
                        self.metrics.visibility_samples += 1;
                        self.metrics.max_visibility = self.metrics.max_visibility.max(vis);
                    }
                } else {
                    self.send_transit_hop(dst, transit);
                }
            }
        }
        true
    }

    /// Runs until quiescence.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// True if nothing is in flight or pending.
    pub fn is_settled(&self) -> bool {
        self.net.is_quiescent() && self.replicas.iter().all(|r| r.pending_count() == 0)
    }

    /// Checks the trace against the *logical* placement.
    pub fn check(&self) -> CheckReport {
        check(&self.trace, &self.logical)
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }
}

/// Shortest path `from → to` in `g`, inclusive of both endpoints.
fn bfs_path(g: &ShareGraph, from: ReplicaId, to: ReplicaId) -> Option<Vec<ReplicaId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: Vec<Option<ReplicaId>> = vec![None; g.num_replicas()];
    let mut seen = vec![false; g.num_replicas()];
    seen[from.index()] = true;
    let mut q = std::collections::VecDeque::from([from]);
    while let Some(v) = q.pop_front() {
        for &w in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                prev[w.index()] = Some(v);
                if w == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::topology;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn grid_with_broken_edge() {
        // Grid 3x3: break the edge between replicas 0 and 1 (register 0).
        let g = topology::grid(3, 3);
        let mut sys =
            RoutedSystem::new(&g, &[(r(0), r(1))], DelayModel::Fixed(1), 0).expect("routable");
        // Counters shrink at the endpoints relative to the plain grid.
        let plain = crate::System::builder(g.clone()).build();
        let plain_counters = plain.timestamp_counters();
        let routed_counters = sys.timestamp_counters();
        assert!(
            routed_counters.iter().sum::<usize>() <= plain_counters.iter().sum::<usize>() + 8,
            "virtual edges may add counters but the broken direct edge is gone"
        );
        // Writes to the broken register still converge.
        sys.write(r(0), x(0), Value::from(11u64));
        sys.run_to_quiescence();
        assert_eq!(sys.read(r(1), x(0)), Some(&Value::from(11u64)));
        sys.write(r(1), x(0), Value::from(12u64));
        sys.run_to_quiescence();
        assert_eq!(sys.read(r(0), x(0)), Some(&Value::from(12u64)));
        assert!(sys.is_settled());
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
    }

    #[test]
    fn multiple_broken_edges_on_torus() {
        let g = topology::torus(3, 3);
        // Break two disjoint edges.
        let e1 = (r(0), r(1));
        let shared01 = g.placement().shared(r(0), r(1));
        assert!(!shared01.is_empty());
        let e2 = (r(4), r(5));
        let mut sys = RoutedSystem::new(&g, &[e1, e2], DelayModel::Fixed(2), 3).expect("routable");
        // Drive writes on every logical register at one holder each.
        let logical_regs = g.placement().num_registers() as u32;
        for reg in 0..logical_regs {
            let holder = *g.placement().holders(x(reg)).first().unwrap();
            sys.write(holder, x(reg), Value::from(u64::from(reg)));
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        // Both broken registers reached their far endpoints.
        for reg in shared01.iter() {
            assert_eq!(
                sys.read(r(1), reg),
                Some(&Value::from(u64::from(reg.raw())))
            );
        }
    }

    /// Per-replica logical stores: `(register, value)` for every register
    /// the replica logically holds (the far endpoint's twin reads as the
    /// broken register).
    type Stores = Vec<Vec<(u32, Option<u64>)>>;

    /// A seeded write load on ring(`n`): `(writer, register, value,
    /// deliveries to step after the write)`.
    fn fig13_load(n: usize) -> Vec<(ReplicaId, RegisterId, u64, usize)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(n as u64);
        (0..4 * n as u64)
            .map(|k| {
                let i = rng.gen_range(0..n as u32);
                // Replica i holds registers i−1 and i.
                let reg = if rng.gen_bool(0.5) {
                    i
                } else {
                    (i + n as u32 - 1) % n as u32
                };
                (r(i), x(reg), k, rng.gen_range(0..3))
            })
            .collect()
    }

    fn fig13_ring(n: usize) -> (Vec<usize>, Stores, bool) {
        let mut sys = RoutedSystem::ring(n, DelayModel::Uniform { min: 1, max: 20 }, n as u64);
        for (i, reg, v, steps) in fig13_load(n) {
            sys.write(i, reg, Value::from(v));
            for _ in 0..steps {
                sys.step();
            }
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        let logical = topology::ring(n);
        let stores = logical
            .replicas()
            .map(|i| {
                logical
                    .placement()
                    .registers_of(i)
                    .iter()
                    .map(|reg| (reg.raw(), sys.read(i, reg).and_then(Value::as_u64)))
                    .collect()
            })
            .collect();
        (
            sys.timestamp_counters(),
            stores,
            sys.check().is_consistent(),
        )
    }

    #[test]
    fn ring_matches_pinned_figure13_runs() {
        // Counters, converged logical stores (replica 0's twin reads as
        // register n−1) and checker verdicts, recorded from the dedicated
        // broken-ring simulator this constructor replaced. Endpoints keep
        // 2 counters and interior replicas 4: the tree-sized 2·N_i.
        let s = |v: u64| Some(v);
        let pinned: [(usize, Vec<usize>, Stores); 3] = [
            (
                4,
                vec![2, 4, 4, 2],
                vec![
                    vec![(0, s(11)), (3, s(6))],
                    vec![(0, s(7)), (1, s(10))],
                    vec![(1, s(14)), (2, s(13))],
                    vec![(2, s(15)), (3, s(6))],
                ],
            ),
            (
                6,
                vec![2, 4, 4, 4, 4, 2],
                vec![
                    vec![(0, s(23)), (5, s(12))],
                    vec![(0, s(16)), (1, s(0))],
                    vec![(1, s(0)), (2, s(22))],
                    vec![(2, s(22)), (3, s(14))],
                    vec![(3, s(14)), (4, s(19))],
                    vec![(4, s(15)), (5, s(21))],
                ],
            ),
            (
                8,
                vec![2, 4, 4, 4, 4, 4, 4, 2],
                vec![
                    vec![(0, s(21)), (7, s(14))],
                    vec![(0, s(21)), (1, s(28))],
                    vec![(1, s(28)), (2, s(16))],
                    vec![(2, s(16)), (3, s(10))],
                    vec![(3, s(10)), (4, s(26))],
                    vec![(4, s(26)), (5, s(31))],
                    vec![(5, s(31)), (6, s(29))],
                    vec![(6, s(29)), (7, s(30))],
                ],
            ),
        ];
        for (n, counters, stores) in pinned {
            assert_eq!(fig13_ring(n), (counters, stores, true), "ring({n})");
        }
    }

    #[test]
    fn broken_ring_has_tree_sized_timestamps() {
        let n = 6;
        let routed = RoutedSystem::ring(n, DelayModel::Fixed(1), 0);
        // Unbroken ring: every replica tracks 2n = 12 counters.
        let plain = crate::System::builder(topology::ring(n)).build();
        let plain_counters = plain.timestamp_counters();
        assert!(plain_counters.iter().all(|&c| c == 2 * n));
        // Broken ring (a path): endpoints track 2 counters, interior 4.
        for (i, &c) in routed.timestamp_counters().iter().enumerate() {
            let expected = if i == 0 || i == n - 1 { 2 } else { 4 };
            assert_eq!(c, expected, "replica {i}");
            assert!(c < plain_counters[i]);
        }
    }

    #[test]
    fn broken_register_routes_both_ways() {
        let n = 5;
        let far = r((n - 1) as u32);
        let broken = x((n - 1) as u32);
        let mut ring = RoutedSystem::ring(n, DelayModel::Fixed(1), 2);
        // Register 1 is shared by replicas 1 and 2 — untouched by the
        // break.
        ring.write(r(1), x(1), Value::from(7u64));
        ring.write(far, broken, Value::from(42u64));
        ring.run_to_quiescence();
        assert!(ring.is_settled());
        assert_eq!(ring.read(r(2), x(1)), Some(&Value::from(7u64)));
        assert_eq!(ring.read(r(0), broken), Some(&Value::from(42u64)));
        ring.write(r(0), broken, Value::from(43u64));
        ring.run_to_quiescence();
        assert_eq!(ring.read(far, broken), Some(&Value::from(43u64)));
        let rep = ring.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
    }

    #[test]
    fn transit_latency_exceeds_direct_latency() {
        let n = 6;
        let mut ring = RoutedSystem::ring(n, DelayModel::Fixed(10), 3);
        ring.write(r(1), x(1), Value::from(1u64));
        ring.run_to_quiescence();
        let direct_max = ring.metrics().max_visibility;
        // The routed write crosses n−1 hops.
        ring.write(r((n - 1) as u32), x((n - 1) as u32), Value::from(2u64));
        ring.run_to_quiescence();
        assert!(ring.metrics().max_visibility >= direct_max * ((n - 1) as u64) / 2);
    }

    #[test]
    fn causal_chains_through_the_broken_ring() {
        // Every replica writes each round; adversarial delays across
        // seeds put causal chains across the broken edge.
        let n = 5;
        for seed in 0..10 {
            let mut ring = RoutedSystem::ring(n, DelayModel::Uniform { min: 1, max: 60 }, seed);
            for round in 0..3u64 {
                for i in 0..n as u32 {
                    ring.write(r(i), x(i), Value::from(round));
                }
            }
            ring.run_to_quiescence();
            assert!(ring.is_settled(), "seed {seed}");
            let rep = ring.check();
            assert!(rep.is_consistent(), "seed {seed}: {:?}", rep.violations);
        }
    }

    #[test]
    #[should_panic(expected = "not logically stored")]
    fn write_requires_logical_holder() {
        let mut ring = RoutedSystem::ring(4, DelayModel::Fixed(1), 0);
        ring.write(r(2), x(0), Value::from(0u64));
    }

    #[test]
    fn errors_reported() {
        let g = topology::path(3);
        // Non-adjacent pair.
        assert_eq!(
            RoutedSystem::new(&g, &[(r(0), r(2))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NothingShared(r(0), r(2))
        );
        // Breaking the only path disconnects: path 0-1, register 0.
        assert_eq!(
            RoutedSystem::new(&g, &[(r(0), r(1))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NoResidualPath(r(0), r(1))
        );
        // Register with three holders cannot be broken pairwise.
        let tri = prcc_sharegraph::ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .share(1, [0, 1])
                .build(),
        );
        assert_eq!(
            RoutedSystem::new(&tri, &[(r(0), r(2))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NotPairwise(x(0))
        );
    }

    #[test]
    fn causal_chains_across_broken_edges() {
        let g = topology::grid(3, 2);
        for seed in 0..5 {
            let mut sys = RoutedSystem::new(
                &g,
                &[(r(0), r(1))],
                DelayModel::Uniform { min: 1, max: 40 },
                seed,
            )
            .expect("routable");
            for round in 0..3u64 {
                for reg in 0..g.placement().num_registers() as u32 {
                    let holder = *g.placement().holders(x(reg)).first().unwrap();
                    sys.write(holder, x(reg), Value::from(round));
                    sys.step();
                }
            }
            sys.run_to_quiescence();
            assert!(sys.is_settled(), "seed {seed}");
            let rep = sys.check();
            assert!(rep.is_consistent(), "seed {seed}: {:?}", rep.violations);
        }
    }
}

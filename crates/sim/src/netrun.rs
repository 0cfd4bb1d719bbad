//! Differential harness for real-socket cluster runs.
//!
//! The socket transport is gated on a **differential equivalence**: the
//! same seeded workload driven through a TCP-backed cluster and through
//! the in-process [`ThreadedCluster`] must end in *byte-identical*
//! stores on every replica, with identical checker verdicts. Causal
//! memory does not converge under concurrent writes to one register —
//! different delivery interleavings legitimately end in different final
//! values — so the differential workload designates a **single writer
//! per register** ([`designated_writer`]): per-issuer updates apply in
//! issue order everywhere, which makes the final store a pure function
//! of the workload, independent of network timing. Any divergence is
//! then a transport bug, never scheduling noise.
//!
//! For multi-process runs (`prcc-node`), each node exports its event log
//! ([`NodeEvent`]) and the driver reassembles a global [`Trace`] with
//! [`merge_node_events`] — a topological merge that preserves each
//! node's own event order and places every apply after its issue, since
//! wall clocks are not comparable across processes.

use prcc_checker::Trace;
use prcc_core::{NodeEvent, ReplicaView, ThreadedCluster, Value};
use prcc_sharegraph::{RegisterId, ReplicaId, ShareGraph};
use std::collections::HashSet;

/// The register's one designated writer: a deterministic pick among its
/// holders (`holders(x)[x.index() mod |holders|]`), so every process
/// derives the same assignment from the shared graph.
pub fn designated_writer(g: &ShareGraph, x: RegisterId) -> ReplicaId {
    let holders = g.placement().holders(x);
    holders[x.index() % holders.len()]
}

/// The deterministic value of `x`'s write in `round` — register and
/// round packed so every value in the run is distinct.
pub fn write_value(x: RegisterId, round: u64) -> Value {
    Value::U64((u64::from(x.raw()) << 32) | round)
}

/// A pure seeded single-writer workload: every register is written
/// `rounds` times by its designated writer, rounds interleaved across
/// nodes.
#[derive(Debug, Clone)]
pub struct NetWorkload {
    /// `per_node[i]` — the registers node `i` writes each round, in
    /// issue order.
    per_node: Vec<Vec<RegisterId>>,
    /// Writes per register.
    rounds: u64,
}

impl NetWorkload {
    /// Derives the workload for `g` — a pure function of the graph, so
    /// driver and nodes need not exchange it.
    pub fn new(g: &ShareGraph, rounds: u64) -> Self {
        let mut per_node = vec![Vec::new(); g.num_replicas()];
        for idx in 0..g.placement().num_registers() {
            let x = RegisterId::new(idx as u32);
            per_node[designated_writer(g, x).index()].push(x);
        }
        NetWorkload { per_node, rounds }
    }

    /// Writes per register.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The registers node `i` writes each round, in issue order.
    pub fn registers_of(&self, i: ReplicaId) -> &[RegisterId] {
        &self.per_node[i.index()]
    }

    /// Total writes the whole run issues.
    pub fn total_writes(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum::<usize>() * self.rounds as usize
    }

    /// How many remote applies `node` must observe at quiescence: one
    /// per round per stored register whose designated writer is someone
    /// else. Each node computes this locally from the shared graph — the
    /// multi-process quiescence condition needs no global counter.
    pub fn expected_applies(&self, g: &ShareGraph, node: ReplicaId) -> usize {
        g.placement()
            .registers_of(node)
            .iter()
            .filter(|&x| designated_writer(g, x) != node)
            .count()
            * self.rounds as usize
    }

    /// Every write of the run as `(writer, register, value)`: rounds
    /// outermost, nodes round-robin within a round, each node's
    /// registers in schedule order — per-node issue order (the only
    /// order that matters for determinism, and the one that fixes every
    /// update id) is identical on every replay.
    pub fn writes(&self) -> impl Iterator<Item = (ReplicaId, RegisterId, Value)> + '_ {
        (0..self.rounds).flat_map(move |round| {
            self.per_node.iter().enumerate().flat_map(move |(i, regs)| {
                regs.iter()
                    .map(move |&x| (ReplicaId::new(i as u32), x, write_value(x, round)))
            })
        })
    }

    /// Drives the full workload through `cluster` from this thread, in
    /// [`writes`](Self::writes) order.
    pub fn drive(&self, cluster: &ThreadedCluster) {
        for (r, x, v) in self.writes() {
            cluster.write(r, x, v);
        }
    }
}

/// Canonical serialization of a replica's final state: one line per
/// register, sorted, value and provenance included. Two runs are
/// store-identical iff these lines are identical.
pub fn store_lines(view: &ReplicaView) -> Vec<String> {
    let mut lines: Vec<String> = view
        .store()
        .into_iter()
        .map(|(x, v)| {
            let src = view
                .source_of(x)
                .map(|u| format!("{}:{}", u.issuer.raw(), u.seq))
                .unwrap_or_else(|| "-".into());
            format!("{} {} {}", x.raw(), value_repr(&v), src)
        })
        .collect();
    lines.sort();
    lines
}

fn value_repr(v: &Value) -> String {
    match v {
        Value::U64(n) => format!("u{n}"),
        Value::Str(s) => format!("s{}", s.escape_default()),
        Value::Bytes(b) => {
            let hex: String = b.iter().map(|byte| format!("{byte:02x}")).collect();
            format!("b{hex}")
        }
    }
}

/// FNV-1a over the canonical store lines — the compact fingerprint nodes
/// report to the multi-process driver.
pub fn store_fingerprint(view: &ReplicaView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in store_lines(view) {
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reassembles per-node event logs into one global [`Trace`]:
/// round-robin over the nodes, always preserving each node's own order,
/// emitting an apply only once its issue is placed. Cross-process
/// clocks are incomparable, so *any* interleaving consistent with those
/// two constraints reproduces exactly the per-replica histories the
/// causal-consistency checker inspects.
///
/// # Panics
///
/// Panics if some apply's issue never appears in any log (a corrupt
/// report — every applied update was issued somewhere).
pub fn merge_node_events(logs: &[Vec<NodeEvent>]) -> Trace {
    let mut pos = vec![0usize; logs.len()];
    let mut placed: HashSet<prcc_checker::UpdateId> = HashSet::new();
    let mut trace = Trace::new();
    let total: usize = logs.iter().map(Vec::len).sum();
    let mut done = 0usize;
    while done < total {
        let mut progressed = false;
        for (i, log) in logs.iter().enumerate() {
            while pos[i] < log.len() {
                match log[pos[i]] {
                    NodeEvent::Issue { id, register } => {
                        trace.record_issue_with_id(id, register);
                        placed.insert(id);
                    }
                    NodeEvent::Apply { id } => {
                        if !placed.contains(&id) {
                            break; // this node waits for the issuer's log
                        }
                        trace.record_apply(id, ReplicaId::new(i as u32));
                    }
                }
                pos[i] += 1;
                done += 1;
                progressed = true;
            }
        }
        assert!(
            progressed,
            "node event logs contain an apply whose issue never appears"
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_checker::{check, UpdateId};
    use prcc_sharegraph::topology;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn designated_writer_is_a_holder_and_stable() {
        let g = topology::ring(6);
        for idx in 0..g.placement().num_registers() {
            let reg = x(idx as u32);
            let w = designated_writer(&g, reg);
            assert!(g.placement().holders(reg).contains(&w));
            assert_eq!(w, designated_writer(&g, reg), "must be deterministic");
        }
    }

    #[test]
    fn workload_counts_are_consistent() {
        let g = topology::ring(5);
        let w = NetWorkload::new(&g, 4);
        assert_eq!(w.total_writes(), g.placement().num_registers() * 4);
        // Every expected apply corresponds to exactly one (register,
        // holder≠writer) pair per round.
        let total_applies: usize = g.replicas().map(|i| w.expected_applies(&g, i)).sum();
        let pairs: usize = (0..g.placement().num_registers())
            .map(|i| g.placement().holders(x(i as u32)).len() - 1)
            .sum();
        assert_eq!(total_applies, pairs * 4);
    }

    #[test]
    fn merge_reorders_applies_after_issues() {
        // Node 0's log starts with an apply of node 1's update — the
        // round-robin merge must hold it back until node 1's issue is
        // placed (logs are indexed by replica id, and node 0 is visited
        // first).
        let u = UpdateId {
            issuer: r(1),
            seq: 0,
        };
        let logs = [
            vec![NodeEvent::Apply { id: u }],
            vec![NodeEvent::Issue {
                id: u,
                register: x(0),
            }],
        ];
        let trace = merge_node_events(&logs);
        assert_eq!(trace.num_updates(), 1);
        let g = topology::path(2);
        assert!(check(&trace, g.placement()).is_consistent());
    }

    #[test]
    #[should_panic(expected = "issue never appears")]
    fn merge_rejects_orphan_apply() {
        let u = UpdateId {
            issuer: r(0),
            seq: 7,
        };
        merge_node_events(&[vec![NodeEvent::Apply { id: u }]]);
    }

    #[test]
    fn store_lines_distinguish_values_and_sources() {
        let g = topology::path(2);
        let wl = NetWorkload::new(&g, 3);
        let cluster = ThreadedCluster::new(g, prcc_net::DelayModel::Fixed(0), 1);
        wl.drive(&cluster);
        cluster.settle();
        let a = cluster.store_snapshot(r(0));
        let b = cluster.store_snapshot(r(1));
        assert_eq!(
            store_lines(&a),
            store_lines(&b),
            "single-writer runs converge"
        );
        assert_eq!(store_fingerprint(&a), store_fingerprint(&b));
    }
}

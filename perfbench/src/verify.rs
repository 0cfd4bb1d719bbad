//! A linear-time exact verifier for a run's merged [`Trace`].
//!
//! `prcc_checker::check` keeps, per update, a bitset of every update
//! that happened before it, which is quadratic in the run's length. Here
//! the happened-before relation `↪` is kept as one vector clock per
//! update, indexed by issuer: `VC(u)[j]` counts the updates of issuer
//! `j` in `u`'s causal past, `u` included. An issuer's updates are
//! causally ordered by program order, so a causal past is a prefix of
//! each issuer's sequence and `u1 ↪ u2` iff `u1 ≠ u2` and
//! `VC(u2)[u1.issuer] > u1.seq`. Building the clocks is one pass over
//! the trace; each check below is O(replicas) per event plus pointers
//! that only move forward, so the whole verification is linear in the
//! trace for a fixed replica count.
//!
//! Checked, with the same meaning as `prcc_checker`:
//! * causal safety (Definition 2): when replica `a` applies `u`, every
//!   update `↪ u` on a register `a` stores is already applied at `a`;
//! * liveness: every update is applied at every holder of its register;
//! * read-your-writes and monotonic reads over served [`SessionEvent`]s;
//! * (by [`check_acked`]) every acked write is covered at every holder.

use prcc_checker::{Event, SessionEvent, Trace, UpdateId};
use prcc_sharegraph::{ClientId, Placement, RegisterId, ReplicaId};
use std::collections::HashMap;
use std::fmt;

/// One thing the verifier found wrong.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Violation {
    /// The trace itself is ill-formed (gap in an issuer's sequence,
    /// duplicate issue, apply of an update never issued); checking stopped.
    Malformed(String),
    /// `update` was applied at `at` before its causal predecessor `missing`.
    Safety {
        /// The update applied too early.
        update: UpdateId,
        /// Where.
        at: ReplicaId,
        /// The predecessor on a register `at` stores, not yet applied there.
        missing: UpdateId,
    },
    /// `update` never reached `at`, a holder of its register.
    Liveness {
        /// The lost update.
        update: UpdateId,
        /// The holder that never applied it.
        at: ReplicaId,
    },
    /// A read returned a value causally older than the session's own
    /// write of the register (or nothing after such a write).
    ReadYourWrites {
        /// The session.
        client: ClientId,
        /// The register.
        register: RegisterId,
        /// What the read observed.
        observed: Option<UpdateId>,
        /// The session's last write of the register.
        own: UpdateId,
    },
    /// A read returned a value causally older than the session's previous
    /// observation of the register.
    MonotonicReads {
        /// The session.
        client: ClientId,
        /// The register.
        register: RegisterId,
        /// What the read observed.
        observed: UpdateId,
        /// The session's previous observation.
        previous: UpdateId,
    },
    /// A session event names an update the trace never issued.
    UnknownUpdate(UpdateId),
    /// An acked write is not covered at a holder of its register after the
    /// cluster settled.
    AckedWriteLost {
        /// The acked write.
        update: UpdateId,
        /// The holder missing it.
        at: ReplicaId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Malformed(m) => write!(f, "malformed trace: {m}"),
            Violation::Safety {
                update,
                at,
                missing,
            } => write!(f, "safety: {update} applied at {at} before {missing}"),
            Violation::Liveness { update, at } => write!(f, "liveness: {update} never at {at}"),
            Violation::ReadYourWrites {
                client,
                register,
                observed,
                own,
            } => write!(
                f,
                "read-your-writes: {client} read {observed:?} on {register} after writing {own}"
            ),
            Violation::MonotonicReads {
                client,
                register,
                observed,
                previous,
            } => write!(
                f,
                "monotonic-reads: {client} read {observed} on {register} after {previous}"
            ),
            Violation::UnknownUpdate(u) => write!(f, "session event names unissued {u}"),
            Violation::AckedWriteLost { update, at } => {
                write!(f, "acked write {update} not covered at {at}")
            }
        }
    }
}

/// The happened-before relation of a trace, as per-update vector clocks.
#[derive(Debug)]
pub struct Causality {
    n: usize,
    /// Per issuer: `n` clock entries per issued update, in sequence order.
    clocks: Vec<Vec<u32>>,
    /// Per issuer: the register each update wrote.
    registers: Vec<Vec<RegisterId>>,
}

impl Causality {
    /// Number of updates issued by `issuer`.
    fn issued(&self, issuer: usize) -> u64 {
        self.registers[issuer].len() as u64
    }

    fn clock(&self, u: UpdateId) -> Option<&[u32]> {
        let i = u.issuer.index();
        if i >= self.n || u.seq >= self.issued(i) {
            return None;
        }
        let at = u.seq as usize * self.n;
        Some(&self.clocks[i][at..at + self.n])
    }

    /// True if the trace issued `u`.
    pub fn knows(&self, u: UpdateId) -> bool {
        self.clock(u).is_some()
    }

    /// `u1 ↪ u2`.
    pub fn happened_before(&self, u1: UpdateId, u2: UpdateId) -> bool {
        u1 != u2
            && self.clock(u2).is_some_and(|c| {
                c.get(u1.issuer.index())
                    .is_some_and(|&k| u64::from(k) > u1.seq)
            })
    }
}

/// Per (replica, issuer) bitset of applied sequence numbers.
#[derive(Debug, Default, Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn set(&mut self, i: u64) {
        let w = (i / 64) as usize;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (i % 64);
    }

    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

/// What [`check_trace`] found, with the relation it built.
#[derive(Debug)]
pub struct TraceVerdict {
    /// The happened-before relation, for [`check_sessions`].
    pub causality: Causality,
    /// Safety, liveness and well-formedness violations.
    pub violations: Vec<Violation>,
}

/// Checks causal safety and liveness of a complete (quiescent) trace.
pub fn check_trace(trace: &Trace, placement: &Placement) -> TraceVerdict {
    let n = placement.num_replicas();
    let mut causality = Causality {
        n,
        clocks: vec![Vec::new(); n],
        registers: vec![Vec::new(); n],
    };
    let mut violations = Vec::new();
    // Per replica: the join of the clocks of everything issued or applied there.
    let mut closure = vec![vec![0u32; n]; n];
    let mut applied = vec![vec![Bits::default(); n]; n];
    // ptr[a][k]: every update of issuer k below it that writes a register
    // `a` stores is applied at `a`.
    let mut ptr = vec![vec![0u64; n]; n];
    let mut clock = vec![0u32; n];

    for ev in trace.events() {
        match *ev {
            Event::Issue { update, register } => {
                let r = update.issuer.index();
                if r >= n || update.seq != causality.issued(r) {
                    violations.push(Violation::Malformed(format!(
                        "issue of {update} out of sequence"
                    )));
                    return TraceVerdict {
                        causality,
                        violations,
                    };
                }
                closure[r][r] = (update.seq + 1) as u32;
                causality.clocks[r].extend_from_slice(&closure[r]);
                causality.registers[r].push(register);
                applied[r][r].set(update.seq);
            }
            Event::Apply { update, at } => {
                let (j, a) = (update.issuer.index(), at.index());
                let Some(c) = causality.clock(update).filter(|_| a < n) else {
                    violations.push(Violation::Malformed(format!(
                        "apply of {update} at {at} before its issue"
                    )));
                    return TraceVerdict {
                        causality,
                        violations,
                    };
                };
                clock.copy_from_slice(c);
                for k in 0..n {
                    // `update` itself is the last of its issuer's prefix.
                    let bound = if k == j {
                        update.seq
                    } else {
                        u64::from(clock[k])
                    };
                    let p = &mut ptr[a][k];
                    let regs = &causality.registers[k];
                    while *p < regs.len() as u64
                        && (!placement.stores(at, regs[*p as usize]) || applied[a][k].get(*p))
                    {
                        *p += 1;
                    }
                    for s in *p..bound {
                        if placement.stores(at, regs[s as usize]) && !applied[a][k].get(s) {
                            violations.push(Violation::Safety {
                                update,
                                at,
                                missing: UpdateId {
                                    issuer: ReplicaId::new(k as u32),
                                    seq: s,
                                },
                            });
                        }
                    }
                }
                for (mine, &theirs) in closure[a].iter_mut().zip(&clock) {
                    *mine = (*mine).max(theirs);
                }
                applied[a][j].set(update.seq);
            }
        }
    }

    for (j, regs) in causality.registers.iter().enumerate() {
        for (s, &x) in regs.iter().enumerate() {
            for &h in placement.holders(x) {
                if !applied[h.index()][j].get(s as u64) {
                    violations.push(Violation::Liveness {
                        update: UpdateId {
                            issuer: ReplicaId::new(j as u32),
                            seq: s as u64,
                        },
                        at: h,
                    });
                }
            }
        }
    }
    TraceVerdict {
        causality,
        violations,
    }
}

/// Checks read-your-writes and monotonic reads. `events` must be in
/// per-session service order; sessions may interleave arbitrarily.
pub fn check_sessions(causality: &Causality, events: &[SessionEvent]) -> Vec<Violation> {
    let client_of = |e: &SessionEvent| match e {
        SessionEvent::Write { client, .. } | SessionEvent::Read { client, .. } => client.index(),
    };
    // Counting sort by session keeps each session's order and stays linear.
    let sessions = events.iter().map(|e| client_of(e) + 1).max().unwrap_or(0);
    let mut start = vec![0usize; sessions + 1];
    for e in events {
        start[client_of(e) + 1] += 1;
    }
    for c in 0..sessions {
        start[c + 1] += start[c];
    }
    let mut order = vec![0u32; events.len()];
    let mut fill = start.clone();
    for (i, e) in events.iter().enumerate() {
        let c = client_of(e);
        order[fill[c]] = i as u32;
        fill[c] += 1;
    }

    let mut violations = Vec::new();
    // Per register of the current session: (last own write, last observation).
    let mut state: HashMap<RegisterId, (Option<UpdateId>, Option<UpdateId>)> = HashMap::new();
    for c in 0..sessions {
        state.clear();
        for &i in &order[start[c]..start[c + 1]] {
            match events[i as usize] {
                SessionEvent::Write {
                    update, register, ..
                } => {
                    if !causality.knows(update) {
                        violations.push(Violation::UnknownUpdate(update));
                    }
                    state.insert(register, (Some(update), Some(update)));
                }
                SessionEvent::Read {
                    client,
                    register,
                    observed,
                } => {
                    let entry = state.entry(register).or_default();
                    let Some(obs) = observed else {
                        if let Some(own) = entry.0 {
                            violations.push(Violation::ReadYourWrites {
                                client,
                                register,
                                observed,
                                own,
                            });
                        }
                        continue;
                    };
                    if !causality.knows(obs) {
                        violations.push(Violation::UnknownUpdate(obs));
                    }
                    if let Some(own) = entry.0.filter(|&w| causality.happened_before(obs, w)) {
                        violations.push(Violation::ReadYourWrites {
                            client,
                            register,
                            observed,
                            own,
                        });
                    }
                    if let Some(previous) = entry.1.filter(|&p| causality.happened_before(obs, p)) {
                        violations.push(Violation::MonotonicReads {
                            client,
                            register,
                            observed: obs,
                            previous,
                        });
                    }
                    entry.1 = Some(obs);
                }
            }
        }
    }
    violations
}

/// Checks that every acked write is covered at every holder of its
/// register; `covered(h, u)` asks holder `h`'s settled state.
pub fn check_acked(
    acked: impl IntoIterator<Item = (UpdateId, RegisterId)>,
    placement: &Placement,
    covered: impl Fn(ReplicaId, UpdateId) -> bool,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (update, x) in acked {
        for &h in placement.holders(x) {
            if !covered(h, update) {
                violations.push(Violation::AckedWriteLost { update, at: h });
            }
        }
    }
    violations
}

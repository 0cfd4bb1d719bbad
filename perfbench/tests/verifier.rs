//! The linear verifier agrees with `prcc_checker` on short runs of every
//! workload — as run, with applies dropped from the trace, and with stale
//! reads injected into the session log — and flags each synthetic
//! negative control.

use prcc_checker::{SessionEvent, Trace, UpdateId, Violation as CheckerViolation};
use prcc_perfbench::spans::NoTrace;
use prcc_perfbench::verify::{check_acked, check_sessions, check_trace, Violation};
use prcc_perfbench::{replicate, serve, Params, Pass};
use prcc_sharegraph::{topology, ClientId, Placement, RegisterId, ReplicaId, ShareGraph};
use std::collections::BTreeSet;

fn params(seconds: f64) -> Params {
    Params {
        seed: 3,
        seconds,
        setup_reps: 1,
        keep_evidence: true,
    }
}

fn serve_pass(spec: serve::ServeSpec, seconds: f64) -> (Pass, ShareGraph) {
    let graph = (spec.graph)();
    let (pass, _) = serve::run(
        &spec,
        &params(seconds),
        vec![NoTrace; serve::LOAD_THREADS + 1],
    );
    (pass, graph)
}

type Verdicts = BTreeSet<(char, UpdateId, ReplicaId, Option<UpdateId>)>;

/// Safety and liveness findings of both verifiers, in one comparable form.
fn both(trace: &Trace, p: &Placement) -> (Verdicts, Verdicts) {
    let mine = check_trace(trace, p)
        .violations
        .into_iter()
        .map(|v| match v {
            Violation::Safety {
                update,
                at,
                missing,
            } => ('s', update, at, Some(missing)),
            Violation::Liveness { update, at } => ('l', update, at, None),
            other => panic!("unexpected {other}"),
        })
        .collect();
    let theirs = prcc_checker::check(trace, p)
        .violations
        .into_iter()
        .map(|v| match v {
            CheckerViolation::Safety {
                update,
                at,
                missing,
            } => ('s', update, at, Some(missing)),
            CheckerViolation::Liveness { update, at } => ('l', update, at, None),
        })
        .collect();
    (mine, theirs)
}

/// The same trace with every `every`-th apply dropped: lost updates, and
/// later applies that now run ahead of their dependencies.
fn drop_applies(trace: &Trace, every: usize) -> Trace {
    let mut out = Trace::new();
    let mut applies = 0usize;
    for ev in trace.events() {
        match *ev {
            prcc_checker::Event::Issue { update, register } => {
                out.record_issue_with_id(update, register)
            }
            prcc_checker::Event::Apply { update, at } => {
                applies += 1;
                if !applies.is_multiple_of(every) {
                    out.record_apply(update, at);
                }
            }
        }
    }
    out
}

/// Per kind, how many session violations each verifier reports.
fn session_counts(
    trace: &Trace,
    p: &Placement,
    events: &[SessionEvent],
) -> ((usize, usize), (usize, usize)) {
    let tv = check_trace(trace, p);
    let mine = check_sessions(&tv.causality, events);
    let count = |pred: fn(&Violation) -> bool| mine.iter().filter(|v| pred(v)).count();
    let theirs = prcc_checker::check_sessions(trace, events);
    let count_t = |prefix: &str| theirs.iter().filter(|v| v.starts_with(prefix)).count();
    (
        (
            count(|v| matches!(v, Violation::ReadYourWrites { .. })),
            count(|v| matches!(v, Violation::MonotonicReads { .. })),
        ),
        (count_t("read-your-writes"), count_t("monotonic-reads")),
    )
}

/// The events with two reads injected after every write of `(i, s)`,
/// `s > 0`: one observing the write itself, then one observing the older
/// `(i, s - 1)` — a read-your-writes and a monotonic-reads violation each.
fn stale_reads(events: &[SessionEvent]) -> Vec<SessionEvent> {
    let mut out = Vec::with_capacity(events.len() * 3);
    for e in events {
        out.push(e.clone());
        if let SessionEvent::Write {
            client,
            update,
            register,
        } = *e
        {
            if update.seq > 0 {
                let older = UpdateId {
                    issuer: update.issuer,
                    seq: update.seq - 1,
                };
                for observed in [update, older] {
                    out.push(SessionEvent::Read {
                        client,
                        register,
                        observed: Some(observed),
                    });
                }
            }
        }
    }
    out
}

fn agree_on(pass: &Pass, graph: &ShareGraph) {
    assert!(pass.violations.is_empty(), "{:?}", pass.violations);
    let trace = pass.trace.as_ref().expect("evidence kept");
    let p = graph.placement();
    assert!(trace.num_updates() > 0, "the run issued nothing");

    let (mine, theirs) = both(trace, p);
    assert!(mine.is_empty() && theirs.is_empty());
    let corrupt = drop_applies(trace, 7);
    let (mine, theirs) = both(&corrupt, p);
    assert!(!theirs.is_empty(), "the corruption must be visible");
    assert_eq!(mine, theirs);

    if let Some(events) = &pass.events {
        let (mine, theirs) = session_counts(trace, p, events);
        assert_eq!(mine, (0, 0));
        assert_eq!(mine, theirs);
        let (mine, theirs) = session_counts(trace, p, &stale_reads(events));
        assert!(mine.0 > 0 && mine.1 > 0, "the corruption must be visible");
        assert_eq!(mine, theirs);
    }
}

#[test]
fn agrees_with_prcc_checker_on_serve_hot() {
    let (pass, graph) = serve_pass(
        serve::ServeSpec {
            sessions: 64,
            ..serve::serve_hot()
        },
        0.05,
    );
    agree_on(&pass, &graph);
}

#[test]
fn agrees_with_prcc_checker_on_serve_partial() {
    let (pass, graph) = serve_pass(
        serve::ServeSpec {
            sessions: 64,
            rate: 4_000.0,
            ..serve::serve_partial()
        },
        0.3,
    );
    agree_on(&pass, &graph);
}

#[test]
fn agrees_with_prcc_checker_on_replicate_tcp() {
    let (pass, _) = replicate::run(&params(0.02), vec![NoTrace; replicate::LOAD_THREADS + 1]);
    agree_on(&pass, &topology::ring(replicate::REPLICAS));
}

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

fn x(i: u32) -> RegisterId {
    RegisterId::new(i)
}

/// Three replicas sharing register 0.
fn shared3() -> Placement {
    Placement::builder(3).share(0, [0, 1, 2]).build()
}

#[test]
fn flags_an_apply_before_its_dependency() {
    let mut t = Trace::new();
    let u1 = t.record_issue(r(0), x(0));
    t.record_apply(u1, r(1));
    let u2 = t.record_issue(r(1), x(0)); // u1 ↪ u2
    t.record_apply(u2, r(0));
    t.record_apply(u2, r(2)); // before u1 reached r2
    t.record_apply(u1, r(2));
    let v = check_trace(&t, &shared3()).violations;
    assert_eq!(
        v,
        vec![Violation::Safety {
            update: u2,
            at: r(2),
            missing: u1
        }]
    );
    let (mine, theirs) = both(&t, &shared3());
    assert_eq!(mine, theirs);
}

#[test]
fn flags_a_lost_update() {
    let mut t = Trace::new();
    let u = t.record_issue(r(0), x(0));
    t.record_apply(u, r(1)); // never reaches r2
    let v = check_trace(&t, &shared3()).violations;
    assert_eq!(
        v,
        vec![Violation::Liveness {
            update: u,
            at: r(2)
        }]
    );
    let (mine, theirs) = both(&t, &shared3());
    assert_eq!(mine, theirs);
}

/// r0 issues u1 then u2 on register 0 (u1 ↪ u2 by program order).
fn chain() -> (Trace, UpdateId, UpdateId) {
    let mut t = Trace::new();
    let u1 = t.record_issue(r(0), x(0));
    let u2 = t.record_issue(r(0), x(0));
    (t, u1, u2)
}

#[test]
fn flags_a_stale_read_after_the_sessions_own_write() {
    let (t, u1, u2) = chain();
    let c = ClientId::new(0);
    let events = vec![
        SessionEvent::Write {
            client: c,
            update: u2,
            register: x(0),
        },
        SessionEvent::Read {
            client: c,
            register: x(0),
            observed: Some(u1),
        },
    ];
    let one = Placement::builder(1).share(0, [0]).build();
    let v = check_sessions(&check_trace(&t, &one).causality, &events);
    assert!(v.contains(&Violation::ReadYourWrites {
        client: c,
        register: x(0),
        observed: Some(u1),
        own: u2
    }));
    let (mine, theirs) = session_counts(&t, &one, &events);
    assert_eq!(mine, theirs);
}

#[test]
fn flags_a_read_going_backwards() {
    let (t, u1, u2) = chain();
    let c = ClientId::new(0);
    let read = |u| SessionEvent::Read {
        client: c,
        register: x(0),
        observed: Some(u),
    };
    let events = vec![read(u2), read(u1)];
    let one = Placement::builder(1).share(0, [0]).build();
    assert_eq!(
        check_sessions(&check_trace(&t, &one).causality, &events),
        vec![Violation::MonotonicReads {
            client: c,
            register: x(0),
            observed: u1,
            previous: u2
        }]
    );
    assert_eq!(session_counts(&t, &one, &events), ((0, 1), (0, 1)));
}

#[test]
fn flags_an_acked_write_missing_at_a_holder() {
    let (_, u1, _) = chain();
    let v = check_acked([(u1, x(0))], &shared3(), |h, _| h != r(1));
    assert_eq!(
        v,
        vec![Violation::AckedWriteLost {
            update: u1,
            at: r(1)
        }]
    );
}

#[test]
fn rejects_a_malformed_trace_instead_of_panicking() {
    let mut t = Trace::new();
    t.record_apply(
        UpdateId {
            issuer: r(0),
            seq: 0,
        },
        r(1),
    );
    let v = check_trace(&t, &shared3()).violations;
    assert!(matches!(v.as_slice(), [Violation::Malformed(_)]), "{v:?}");
}

//! A TCP handshake names its sender, and the receiving endpoint builds
//! per-pair codec state for that sender. A forged handshake — claiming
//! to come from the receiver itself, from an id past the cluster, or from
//! a replica outside the endpoint's peer set — must be rejected and
//! counted, never reach the codec factory (which cannot build a layout
//! for a pair that does not exist), and must not disturb honest peers.

use prcc_core::{cluster_codec, BatchMsg, Metadata, UpdateMsg, Value};
use prcc_net::{BoundListener, SessionFrame, TcpEndpoint, TcpNetConfig, Transport};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_timestamp::TsRegistry;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static PANICS: AtomicUsize = AtomicUsize::new(0);

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

/// The 13-byte connection handshake: magic `PRCC`, version 1, then the
/// sender and receiver ids as little-endian `u32`s.
fn handshake(src: u32, dst: u32) -> Vec<u8> {
    let mut hs = b"PRCC".to_vec();
    hs.push(1);
    hs.extend_from_slice(&src.to_le_bytes());
    hs.extend_from_slice(&dst.to_le_bytes());
    hs
}

#[test]
fn forged_handshakes_are_rejected_without_panics() {
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        eprintln!("{info}");
    }));

    // Replica 0 of ring(4) is configured with its two ring neighbours
    // only; replica 2 is a valid id but not one of its peers.
    let g = topology::ring(4);
    let registry = Arc::new(TsRegistry::new(
        &g,
        TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
    ));
    let loopback = ([127, 0, 0, 1], 0).into();
    let b0 = BoundListener::bind(r(0), loopback).expect("bind 0");
    let b1 = BoundListener::bind(r(1), loopback).expect("bind 1");
    let b3 = BoundListener::bind(r(3), loopback).expect("bind 3");
    let (a0, a1, a3) = (b0.local_addr(), b1.local_addr(), b3.local_addr());
    let cfg = TcpNetConfig::default();
    let e0 = TcpEndpoint::start(
        b0,
        HashMap::from([(r(1), a1), (r(3), a3)]),
        cfg.clone(),
        cluster_codec(r(0), registry.clone()),
    )
    .expect("endpoint 0");
    let e1 = TcpEndpoint::start(
        b1,
        HashMap::from([(r(0), a0)]),
        cfg,
        cluster_codec(r(1), registry.clone()),
    )
    .expect("endpoint 1");

    // src == me, src >= n, and an in-range id outside the peer set.
    let forged: Vec<TcpStream> = [0u32, 9, 2]
        .into_iter()
        .map(|src| {
            let mut s = TcpStream::connect(a0).expect("connect");
            s.write_all(&handshake(src, 0)).expect("write handshake");
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while e0.stats().decode_errors < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        e0.stats().decode_errors,
        3,
        "every forged handshake counted"
    );

    // The honest neighbour still gets through.
    let mut ts = registry.new_timestamp(r(1));
    registry.advance(&mut ts, RegisterId::new(0));
    let frame = SessionFrame::Bare(BatchMsg {
        updates: vec![UpdateMsg {
            issuer: r(1),
            seq: 1,
            register: RegisterId::new(0),
            value: Some(Value::U64(7)),
            meta: Arc::new(Metadata::Edge(ts)),
            transit: None,
        }],
    });
    assert!(e1.handle().send(r(0), frame));
    let got = e0
        .handle()
        .recv_timeout(Duration::from_secs(10))
        .expect("honest peer delivers");
    assert_eq!(got.src, r(1));
    drop(forged);

    e0.shutdown();
    e1.shutdown();
    let _ = std::panic::take_hook();
    assert_eq!(e0.stats().decode_errors, 3);
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a forged handshake panicked"
    );
}

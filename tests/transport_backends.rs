//! Fault-injection and accounting tests that hold on every wire
//! backend: the in-process [`VirtualWire`] and, where the environment
//! can bind loopback sockets, [`OsWire`].
//!
//! The fault-injection tests decorate each backend with
//! [`ShortSendWire`], forcing short `send_many` returns mid-batch, and
//! assert that the one tail-in-place retry path,
//! [`UdpEndpoint::send_all`]'s bounded-stall loop, never reorders, drops
//! or duplicates a datagram, reports one call per attempt, and gives up
//! after [`MAX_SEND_STALLS`] stalls with the unsent tail still in the
//! caller's vector.

use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_netsim::net::{
    NetError, OsWire, ShortSendWire, Transport, TransportKind, UdpEndpoint, VirtualWire,
    MAX_SEND_STALLS,
};
use endbox_netsim::Packet;
use std::sync::Arc;

/// The backends this environment can run.
fn backends() -> Vec<TransportKind> {
    let mut kinds = vec![TransportKind::Virtual];
    if OsWire::available() {
        kinds.push(TransportKind::OsSocket);
    }
    kinds
}

/// A fresh wire of each available backend, behind the fault decorator.
fn faulty_wires() -> Vec<ShortSendWire> {
    backends()
        .into_iter()
        .map(|kind| {
            ShortSendWire::new(match kind {
                TransportKind::Virtual => Arc::new(VirtualWire::new()) as Arc<dyn Transport>,
                TransportKind::OsSocket => Arc::new(OsWire::new()),
            })
        })
        .collect()
}

/// Every datagram waiting at `ep`, in arrival order. The OS backend
/// crosses the kernel, so give delivery a bounded moment.
fn drain(ep: &UdpEndpoint) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    for _ in 0..1_000 {
        ep.recv_many(64, &mut got);
        std::thread::yield_now();
    }
    got.into_iter().map(|d| d.payload).collect()
}

/// Forced short `send_many` returns mid-batch on every backend: the
/// [`UdpEndpoint::send_all`] stall-retry loop must ship the tail in
/// place — the receiver sees every datagram exactly once, in order —
/// and report one `send_many` call per short send plus the final one.
#[test]
fn short_send_tails_retry_in_order_through_send_all() {
    for wire in faulty_wires() {
        let backend = wire.backend();
        let receiver = wire.bind(1).unwrap();
        let sender = wire.bind(100).unwrap();
        // Three staged faults: a 2-cap, a 0-cap (nothing moves, pure
        // stall), then a 1-cap; the remaining retries send unfaulted.
        wire.push_short_send(2);
        wire.push_short_send(0);
        wire.push_short_send(1);
        let mut batch: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 8]).collect();
        let calls = sender.send_all(1, &mut batch).unwrap();
        assert!(batch.is_empty(), "{backend}: every datagram ships");
        assert_eq!(calls, 3 + 1, "{backend}: three short sends, then one");
        assert_eq!(wire.pending_faults(), 0, "{backend}: all faults consumed");
        let got: Vec<u8> = drain(&receiver)
            .iter()
            .map(|p| {
                assert!(p.iter().all(|&b| b == p[0]));
                p[0]
            })
            .collect();
        assert_eq!(
            got,
            (0u8..10).collect::<Vec<_>>(),
            "{backend}: tail-in-place retry must not reorder or duplicate"
        );
    }
}

/// The stall bound: [`UdpEndpoint::send_all`] retries a stalled batch
/// [`MAX_SEND_STALLS`] times; a stall on the last retry surfaces as
/// [`NetError::Io`] with the unsent datagrams still in the caller's
/// vector, in order — nothing is dropped and nothing sent twice.
#[test]
fn send_all_gives_up_after_the_stall_bound_keeping_the_tail() {
    for wire in faulty_wires() {
        let backend = wire.backend();
        let receiver = wire.bind(1).unwrap();
        let sender = wire.bind(100).unwrap();
        let mut batch: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 8]).collect();
        // 65 zero caps: the first attempt and all 64 retries stall.
        for _ in 0..=MAX_SEND_STALLS {
            wire.push_short_send(0);
        }
        let err = sender.send_all(1, &mut batch).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{backend}: {err:?}");
        assert_eq!(wire.pending_faults(), 0, "{backend}: 65 attempts made");
        assert_eq!(batch.len(), 5, "{backend}: nothing sent, nothing lost");
        // A shipped prefix, then the bound: the tail stays, in order.
        wire.push_short_send(2);
        for _ in 0..MAX_SEND_STALLS {
            wire.push_short_send(0);
        }
        assert!(sender.send_all(1, &mut batch).is_err());
        assert_eq!(wire.pending_faults(), 0);
        let tail: Vec<u8> = batch.iter().map(|p| p[0]).collect();
        assert_eq!(tail, vec![2, 3, 4], "{backend}: unsent tail kept in order");
        // 64 stalls are within the bound: the 65th attempt ships the rest.
        for _ in 0..MAX_SEND_STALLS {
            wire.push_short_send(0);
        }
        sender.send_all(1, &mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(wire.pending_faults(), 0);
        let got: Vec<u8> = drain(&receiver).iter().map(|p| p[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "{backend}: no drop, no dup");
    }
}

/// Regression pin for the bulk-128 plateau (ISSUE 7 satellite): the
/// measured datagrams-per-call ratio saturates at the **per-socket
/// queue depth at drain time**, not at the bulk size — a `recv_many`
/// cannot move more than is waiting. With the dry-socket skip in
/// `AsyncFrontEnd::pump`, a bulk at or above the depth moves each queue
/// in exactly one call (`got < want` marks the socket dry; no zero-yield
/// re-check), so bulk 32 and bulk 128 are call-for-call identical on
/// 8-deep queues: the `BENCH_wire.json` plateau is queue-depth
/// saturation, documented in `docs/architecture.md` §6.
#[test]
fn datagrams_per_call_saturates_at_queue_depth_not_bulk_size() {
    const DEPTH: u32 = 8;
    let run = |kind: TransportKind, bulk: usize| {
        let mut scenario = Scenario::enterprise(2, UseCase::Nop)
            .seed(0xc2_04)
            .async_ingress(true)
            .transport(kind)
            .build_sharded(2)
            .unwrap();
        scenario.set_recv_bulk(bulk);
        for client in 0..2usize {
            for seq in 0..DEPTH {
                let pkt = Packet::tcp(
                    Scenario::client_addr(client),
                    Scenario::network_addr(),
                    48_000 + client as u16,
                    5_001,
                    seq,
                    format!("saturate {client} {seq}").as_bytes(),
                );
                let sealed = scenario.clients[client].send_packet(pkt).unwrap();
                assert_eq!(sealed.len(), 1, "single-fragment records");
                scenario.send_wire_datagrams(client as u64, sealed);
            }
        }
        let outs = scenario.pump_async().len();
        assert_eq!(outs as u32, 2 * DEPTH);
        scenario.async_stats()
    };
    for kind in backends() {
        let at_32 = run(kind, 32);
        let at_128 = run(kind, 128);
        // At or above the depth: one call per 8-deep socket queue — the
        // ratio is the queue depth, and raising the bulk cannot move it.
        assert_eq!(at_32.io_calls, 2, "one recv_many per drained socket");
        assert_eq!(at_32.io_calls, at_128.io_calls);
        assert_eq!(at_32.datagrams, at_128.datagrams);
        let ratio = at_32.datagrams as f64 / at_32.io_calls as f64;
        assert_eq!(ratio, DEPTH as f64, "saturation point == queue depth");
        // Below the depth the call count is governed by the bulk size
        // (ceil(depth/bulk) full vectors + one short dry-marking call when
        // the last vector fills exactly).
        let at_4 = run(kind, 4);
        assert_eq!(at_4.io_calls, 6, "8-deep at bulk 4: 4+4+dry per socket");
    }
}

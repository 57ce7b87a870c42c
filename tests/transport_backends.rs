//! Fault-injection tests that hold on every wire backend: the
//! in-process [`VirtualWire`] and, where the environment can bind
//! loopback sockets, [`OsWire`].
//!
//! The tests decorate each backend with [`ShortSendWire`], forcing
//! short `send_many` returns mid-batch, and assert that the one
//! tail-in-place retry path, [`UdpEndpoint::send_all`]'s bounded-stall
//! loop, never reorders, drops or duplicates a datagram, reports one
//! call per attempt, and gives up after [`MAX_SEND_STALLS`] stalls with
//! the unsent tail still in the caller's vector.

use endbox_netsim::net::{
    NetError, OsWire, ShortSendWire, Transport, TransportKind, UdpEndpoint, VirtualWire,
    MAX_SEND_STALLS,
};
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

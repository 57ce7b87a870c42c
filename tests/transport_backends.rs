//! Fault-injection and accounting tests that hold on every wire
//! backend: the in-process [`VirtualWire`] and, where the environment
//! can bind loopback sockets, [`OsWire`].
//!
//! The fault-injection tests decorate each backend with
//! [`ShortSendWire`], forcing short `send_many` returns mid-batch, and
//! assert the tail-in-place retry path ([`FramedSender::forward`]'s
//! stall loop, [`TxBatcher`]'s queue-head requeue) never reorders,
//! drops or duplicates a datagram. The reconciliation tests pin the
//! `io_calls` symmetry between ingress and egress accounting:
//! [`TxBatchStats`] totals must agree with the
//! [`FramedSender::send_stats`] totals for the same datagrams.
//!
//! [`TxBatchStats`]: endbox::server::TxBatchStats

use endbox::scenario::Scenario;
use endbox::server::TxBatcher;
use endbox::use_cases::UseCase;
use endbox_netsim::net::{OsWire, ShortSendWire, Transport, TransportKind, VirtualWire};
use endbox_netsim::Packet;
use endbox_vpn::endpoint::FramedSender;
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

/// Forced short `send_many` returns mid-batch on every backend: the
/// [`FramedSender::forward`] stall-retry loop must ship the tail in
/// place — the receiver sees every datagram exactly once, in order.
#[test]
fn short_send_tails_retry_in_order_through_framed_sender() {
    for wire in faulty_wires() {
        let backend = wire.backend();
        let receiver = wire.bind(1).unwrap();
        let sender = FramedSender::new(wire.bind(100).unwrap(), 1 << 20);
        // Three staged faults: a 2-cap, a 0-cap (nothing moves, pure
        // stall), then a 1-cap; the remaining retries send unfaulted.
        wire.push_short_send(2);
        wire.push_short_send(0);
        wire.push_short_send(1);
        let batch: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 8]).collect();
        let shipped = sender.forward(1, batch).unwrap();
        assert_eq!(shipped, 10, "{backend}: every datagram ships");
        assert_eq!(wire.pending_faults(), 0, "{backend}: all faults consumed");
        let stats = sender.send_stats();
        assert_eq!(stats.datagrams, 10);
        assert_eq!(
            stats.io_calls, 4,
            "{backend}: caps 2/0/1 then the 7-tail -> four bulk calls"
        );
        assert_eq!(stats.stalls, 3, "{backend}: each short return stalls once");
        let mut got = Vec::new();
        while let Some(d) = receiver.try_recv() {
            got.push(d.payload[0]);
            assert!(d.payload.iter().all(|&b| b == d.payload[0]));
        }
        assert_eq!(
            got,
            (0u8..10).collect::<Vec<_>>(),
            "{backend}: tail-in-place retry must not reorder or duplicate"
        );
    }
}

/// The same fault shape through the TX-batching egress stage: a partial
/// flush leaves the tail at the head of its queue, the next flush ships
/// it, and per-destination FIFO order survives on every backend.
#[test]
fn short_send_tails_stay_queued_in_order_through_tx_batcher() {
    for wire in faulty_wires() {
        let backend = wire.backend();
        let dst_a = wire.bind(1).unwrap();
        let dst_b = wire.bind(2).unwrap();
        let mut tx = TxBatcher::new(wire.bind(100).unwrap());
        tx.enqueue(1, (0u8..6).map(|i| vec![i; 4]));
        tx.enqueue(2, (10u8..14).map(|i| vec![i; 4]));
        // First flush: destination 1 ships only 2 of 6, destination 2
        // only 1 of 4; the tails stay queued in place.
        wire.push_short_send(2);
        wire.push_short_send(1);
        let shipped = tx.flush().unwrap();
        assert_eq!(shipped, 3, "{backend}: partial flush ships the caps");
        assert_eq!(tx.pending(), 7, "{backend}: tails stay queued");
        let mid = tx.stats();
        assert_eq!(mid.partial_sends, 2, "{backend}: both queues went short");
        // Second flush ships everything that is left, unfaulted.
        let rest = tx.flush().unwrap();
        assert_eq!(rest, 7);
        assert_eq!(tx.pending(), 0);
        let stats = tx.stats();
        assert_eq!(stats.sent, 10);
        assert_eq!(
            stats.io_calls, 4,
            "{backend}: two destinations x two flushes"
        );
        let drain = |ep: &endbox_netsim::net::UdpEndpoint| {
            let mut got = Vec::new();
            while let Some(d) = ep.try_recv() {
                got.push(d.payload[0]);
            }
            got
        };
        assert_eq!(
            drain(&dst_a),
            (0u8..6).collect::<Vec<_>>(),
            "{backend}: destination 1 FIFO survives the partial flush"
        );
        assert_eq!(
            drain(&dst_b),
            (10u8..14).collect::<Vec<_>>(),
            "{backend}: destination 2 FIFO survives the partial flush"
        );
    }
}

/// `io_calls` symmetry between the two egress counters: shipping the
/// same fragments through [`FramedSender`] (bulk `send_many` per record
/// batch) and through [`TxBatcher`] (bulk `send_many` per destination
/// per flush) must reconcile — identical datagram totals, identical
/// bulk-call counts, identical wire bytes — even under injected partial
/// sends.
#[test]
fn tx_batcher_reconciles_with_framed_sender_send_totals() {
    for wire in faulty_wires() {
        let via_sender = wire.bind(1).unwrap();
        let via_batcher = wire.bind(2).unwrap();
        let sender = FramedSender::new(wire.bind(100).unwrap(), 1 << 20);
        let mut tx = TxBatcher::new(wire.bind(101).unwrap());
        // Three "record batches" of 4 datagrams each; both paths see the
        // identical payloads and the identical mid-batch fault.
        let batches: Vec<Vec<Vec<u8>>> = (0u8..3)
            .map(|b| (0u8..4).map(|i| vec![b * 16 + i; 6]).collect())
            .collect();
        wire.push_short_send(2);
        for batch in &batches {
            sender.forward(1, batch.clone()).unwrap();
        }
        wire.push_short_send(2);
        for batch in &batches {
            tx.enqueue(2, batch.clone());
            while tx.pending() > 0 {
                tx.flush().unwrap();
            }
        }
        let s = sender.send_stats();
        let t = tx.stats();
        assert_eq!(s.datagrams, 12);
        assert_eq!(t.sent, s.datagrams, "egress totals reconcile");
        assert_eq!(t.enqueued, s.datagrams);
        assert_eq!(
            t.io_calls, s.io_calls,
            "one faulted batch each -> both sides pay the same extra call: {s:?} vs {t:?}"
        );
        assert_eq!(
            s.stalls + 3,
            s.io_calls,
            "3 batches + 1 stall retry each side"
        );
        assert_eq!(t.partial_sends, 1);
        let drain = |ep: &endbox_netsim::net::UdpEndpoint| {
            let mut got = Vec::new();
            while let Some(d) = ep.try_recv() {
                got.push(d.payload.clone());
            }
            got
        };
        assert_eq!(
            drain(&via_sender),
            drain(&via_batcher),
            "both egress paths put identical bytes on the wire, in order"
        );
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
            .rx_shards(2)
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

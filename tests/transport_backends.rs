//! Parity, fault-injection and accounting tests for the kernel-bypass
//! transport backends: the io_uring-style [`RingWire`]
//! submission/completion ring and the AF_XDP-shaped [`XdpWire`]
//! zero-copy frame backend.
//!
//! The parity tests replay the adversarial [`support::Schedule`]s —
//! 1-byte fragments, splits inside record headers, partial records
//! straddling poll rounds, replayed Disconnects, deep queue floods —
//! through the event-driven front-end over each backend and assert
//! byte-identical outcomes against the single-threaded reference server
//! across the `(rx_shards, workers, policy, bulk)` grid. Both backends
//! are in-process and always available; by default the named schedules
//! run on a representative sub-grid, and setting `ENDBOX_REQUIRE_RING=1`
//! (the CI Linux runner does) widens them to the **full** grid, the same
//! way `ENDBOX_REQUIRE_OS_SOCKET=1` hardens the loopback suite.
//!
//! The fault-injection tests decorate each backend with
//! [`ShortSendWire`], forcing short `send_many` returns mid-batch, and
//! assert the tail-in-place retry path ([`FramedSender::forward`]'s
//! stall loop, [`TxBatcher`]'s queue-head requeue) never reorders,
//! drops or duplicates a datagram on any backend. The reconciliation
//! tests pin the `io_calls` symmetry between ingress and egress
//! accounting: [`TxBatchStats`] totals must agree with the
//! [`FramedSender::send_stats`] totals for the same datagrams.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::server::TxBatcher;
use endbox::use_cases::UseCase;
use endbox_netsim::net::{RingWire, ShortSendWire, Transport, TransportKind, VirtualWire, XdpWire};
use endbox_netsim::Packet;
use endbox_vpn::endpoint::FramedSender;
use std::sync::Arc;
use support::{assert_parity, full_grid, PeerMap, RunCfg, Schedule, Step};

/// The two kernel-bypass backends under test.
const BYPASS_BACKENDS: [TransportKind; 2] = [TransportKind::Ring, TransportKind::XdpFrame];

/// The full `(rx_shards, workers)` grid where it is required (CI sets
/// `ENDBOX_REQUIRE_RING=1`); the default sub-grid keeps local runs fast
/// while still covering 1/2/4 RX shards and 2/4 workers.
fn framing_grid() -> Vec<(usize, usize)> {
    if std::env::var("ENDBOX_REQUIRE_RING").as_deref() == Ok("1") {
        full_grid()
    } else {
        vec![(1, 2), (2, 4), (4, 2)]
    }
}

/// Splits through the record header and 1-byte fragments, partial
/// records straddling poll rounds, a replayed Disconnect — the
/// adversarial framing schedule of the bulk-ingress suite — must be
/// byte-identical to the reference on the ring and frame backends.
fn adversarial_framing_schedule() -> Schedule {
    Schedule::new("backend-adversarial-framing", 2, 0xc2_01)
        .stall(0, 200)
        .step(Step::SplitRecord {
            client: 0,
            payload_len: 40,
            splits: (1..60).collect(), // 1-byte fragments through header + body
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 200,
            splits: vec![1, 2, 3, 90], // splits inside the record header
            tag: 1,
            lo: 0,
            hi: 3,
        })
        .step(Step::Disconnect { client: 1 })
        .step(Step::Replay)
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 200,
            splits: vec![1, 2, 3, 90],
            tag: 1,
            lo: 3,
            hi: 5,
        })
        .step(Step::Single { client: 0 })
}

#[test]
fn ring_backend_matches_reference_on_adversarial_framing() {
    let schedule = adversarial_framing_schedule();
    assert_parity(
        &schedule,
        &framing_grid(),
        &RunCfg::bulk_grid(TransportKind::Ring),
    );
}

#[test]
fn xdp_backend_matches_reference_on_adversarial_framing() {
    let schedule = adversarial_framing_schedule();
    assert_parity(
        &schedule,
        &framing_grid(),
        &RunCfg::bulk_grid(TransportKind::XdpFrame),
    );
}

/// Deep per-socket queues with all peers colliding on RX shard 0
/// (stride-4 peer map): descriptor rings must cut and re-merge the
/// flood exactly like the socket backends do.
#[test]
fn bypass_backends_survive_deep_queues_on_a_collided_shard() {
    let mut schedule = Schedule::new("backend-deep-queues", 3, 0xc2_02).peers(PeerMap::Stride(4));
    for round in 0..3 {
        for _ in 0..12 {
            schedule = schedule.step(Step::Single { client: 0 });
        }
        schedule = schedule
            .step(Step::Single { client: 1 })
            .step(Step::Ping { client: 2 });
        if round < 2 {
            schedule = schedule.step(Step::Flush);
        }
    }
    for kind in BYPASS_BACKENDS {
        assert_parity(&schedule, &[(2, 4)], &RunCfg::bulk_grid(kind));
    }
}

/// The scenario reports the bypass backends by name — the knob CI's
/// gated parity suites flip — and a round-trip works end to end on each.
#[test]
fn bypass_backends_are_reported_by_the_scenario() {
    for (kind, name) in [
        (TransportKind::Ring, "ring"),
        (TransportKind::XdpFrame, "xdp-frame"),
    ] {
        let mut scenario = Scenario::enterprise(1, UseCase::Nop)
            .seed(0xc2_03)
            .async_ingress(true)
            .transport(kind)
            .build_sharded(1)
            .unwrap();
        assert_eq!(scenario.wire_backend(), name);
        let pkt = Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            47_000,
            5_001,
            1,
            b"backend probe",
        );
        let sealed = scenario.clients[0].send_packet(pkt).unwrap();
        let sent = sealed.len();
        scenario.send_wire_datagrams(0, sealed);
        let outs = scenario.pump_async();
        assert_eq!(outs.len(), sent, "{name}: every datagram delivered");
        for (_, result) in outs {
            result.unwrap();
        }
    }
}

/// Egress senders built over the backend's pre-registered arena
/// ([`RingWire::pool`] / [`XdpWire::umem`] — the wiring
/// `ScenarioBuilder::transport` installs for the client links): fragment
/// buffers come from the arena, recycle through it, and arrive intact.
#[test]
fn pooled_egress_draws_fragment_buffers_from_the_backend_arena() {
    let ring = RingWire::new();
    let xdp = XdpWire::new();
    let cases: [(&str, Arc<dyn Transport>, endbox_netsim::BufferPool); 2] = [
        ("ring", Arc::new(ring.clone()), ring.pool().clone()),
        ("xdp-frame", Arc::new(xdp.clone()), xdp.umem().clone()),
    ];
    for (name, wire, arena) in cases {
        let receiver = wire.bind(1).unwrap();
        let mut sender = FramedSender::with_pool(wire.bind(100).unwrap(), 16, arena.clone());
        let record = endbox_vpn::proto::Record {
            opcode: endbox_vpn::proto::Opcode::Data,
            session_id: 7,
            packet_id: 3,
            payload: vec![0xee; 50],
        };
        let n = sender.send_record(1, &record).unwrap();
        assert!(n > 1, "{name}: 50 B record at 16 B MTU must fragment");
        let cold = arena.stats();
        assert_eq!(
            cold.fresh_allocs, n as u64,
            "{name}: cold arena hands out one buffer per fragment"
        );
        // The receiver recycles the frames into the same arena; a second
        // send then allocates nothing new — the zero-copy loop closes
        // through the backend's registered memory.
        while let Some(d) = receiver.try_recv() {
            arena.give(d.payload);
        }
        sender.send_record(1, &record).unwrap();
        assert_eq!(
            arena.stats().fresh_allocs,
            cold.fresh_allocs,
            "{name}: warm arena egress allocates nothing new"
        );
    }
}

/// Forced short `send_many` returns mid-batch on every backend: the
/// [`FramedSender::forward`] stall-retry loop must ship the tail in
/// place — the receiver sees every datagram exactly once, in order.
#[test]
fn short_send_tails_retry_in_order_through_framed_sender() {
    let inners: [Arc<dyn Transport>; 3] = [
        Arc::new(VirtualWire::new()),
        Arc::new(RingWire::new()),
        Arc::new(XdpWire::new()),
    ];
    for inner in inners {
        let backend = inner.backend();
        let wire = ShortSendWire::new(inner);
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
    let inners: [Arc<dyn Transport>; 3] = [
        Arc::new(VirtualWire::new()),
        Arc::new(RingWire::new()),
        Arc::new(XdpWire::new()),
    ];
    for inner in inners {
        let backend = inner.backend();
        let wire = ShortSendWire::new(inner);
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
    let wire = ShortSendWire::new(Arc::new(VirtualWire::new()) as Arc<dyn Transport>);
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
    let run = |bulk: usize| {
        let mut scenario = Scenario::enterprise(2, UseCase::Nop)
            .seed(0xc2_04)
            .rx_shards(2)
            .async_ingress(true)
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
    let at_32 = run(32);
    let at_128 = run(128);
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
    let at_4 = run(4);
    assert_eq!(at_4.io_calls, 6, "8-deep at bulk 4: 4+4+dry per socket");
}

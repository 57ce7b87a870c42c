//! Parity and reconciliation tests for the datapath control plane every
//! event loop runs (closed-loop per-shard budgets with per-socket token
//! buckets, the autonomous hot-peer remap law, and the dispatcher's
//! rate-based rebalance + idle-worker stealing).
//!
//! The named schedules replay the same deterministic interleaving
//! classes the other suites are pinned by — plus [`Step::Remap`]
//! steps that fire the manual re-home hook at exact schedule positions,
//! racing a peer's re-home against a crafted `Disconnect`, against a
//! partial record in flight inside its reassembler, and against the
//! colliding-peers placement where every peer homes on shard 0. The
//! parity claim is the controller's core invariant: every decision lands
//! at a round boundary, so outcomes stay byte-identical to the
//! single-threaded reference — only scheduling moves.
//!
//! The reconciliation tests pin the [`ControllerStats`] contract against
//! independent datapath counters: granted budget covers every drained
//! datagram, re-homes and their drained partials account exactly against
//! the server's RX counters, steals stay a subset of migrations, and the
//! token buckets only report borrowing when a burst actually spends
//! capacity that idle shard-mates banked in earlier rounds.
//!
//! [`ControllerStats`]: endbox::server::ControllerStats

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;
use endbox_vpn::proto::{Opcode, Record};
use support::{assert_parity_bulk, simplify, split_raw, Out, PeerMap, Schedule, Step};

/// A partial record parked in its reassembler, then a crafted
/// `Disconnect` queued and the peer re-homed *before* the Disconnect is
/// delivered — so the teardown arrives at the new home, races a replayed
/// Disconnect for the now-dead session, and the record tail completes
/// (and fails its verdict) at the new home. A second re-home moves the
/// dead-session peer back.
#[test]
fn adaptive_schedule_remap_races_disconnect() {
    let schedule = Schedule::new("remap-races-disconnect", 3, 0xada1)
        .step(Step::Batch {
            client: 0,
            n_packets: 3,
        })
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 96,
            splits: vec![7, 33],
            tag: 1,
            lo: 0,
            hi: 2,
        })
        .step(Step::Flush)
        .step(Step::Disconnect { client: 1 })
        .step(Step::Remap { client: 1, to: 1 })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 96,
            splits: vec![7, 33],
            tag: 1,
            lo: 2,
            hi: 3,
        })
        .step(Step::Remap { client: 1, to: 0 })
        .step(Step::Single { client: 0 });
    assert_parity_bulk(&schedule);
}

/// A split record whose head is already inside the reassembler when its
/// peer re-homes: the in-flight partial drains at the quiesce point and
/// reinstalls at the new group, the tail arrives there and completes the
/// record, a replay of the tail fragments is rejected identically, and a
/// second re-home follows.
#[test]
fn adaptive_schedule_split_record_straddles_remap() {
    let schedule = Schedule::new("split-record-straddles-remap", 3, 0xada2)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 7,
            lo: 0,
            hi: 2,
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Remap { client: 0, to: 1 })
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 7,
            lo: 2,
            hi: 4,
        })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Remap { client: 0, to: 3 })
        .step(Step::Single { client: 0 });
    assert_parity_bulk(&schedule);
}

/// The adversarial colliding placement (`PeerMap::Stride(4)`: every peer
/// homes on shard 0 at every RX count in the grid), then manual re-homes
/// spread the peers across shards mid-schedule while traffic continues —
/// the spread changes which poll group serves whom, and nothing else.
#[test]
fn adaptive_schedule_remap_spreads_colliding_peers() {
    let schedule = Schedule::new("remap-spreads-colliding-peers", 3, 0xada4)
        .peers(PeerMap::Stride(4))
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::Remap { client: 1, to: 1 })
        .step(Step::Remap { client: 2, to: 2 })
        .step(Step::Batch {
            client: 1,
            n_packets: 2,
        })
        .step(Step::Single { client: 2 })
        .step(Step::Single { client: 0 })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Remap { client: 0, to: 1 })
        .step(Step::Single { client: 1 });
    assert_parity_bulk(&schedule);
}

/// Mixed traffic (batches, pings, a split record, a replayed batch) with
/// stalled RX shards and **no** manual remaps: the controller's own
/// budget/token/remap laws run against ordinary adversarial interleaving
/// and must not move a single outcome.
#[test]
fn adaptive_schedule_controller_on_mixed_traffic() {
    let schedule = Schedule::new("controller-on-mixed-traffic", 4, 0xada3)
        .stall(0, 35)
        .stall(2, 20)
        .step(Step::Batch {
            client: 0,
            n_packets: 4,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Ping { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecord {
            client: 3,
            payload_len: 64,
            splits: vec![9, 30],
        })
        .step(Step::Batch {
            client: 2,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Single { client: 0 })
        .step(Step::Ping { client: 3 })
        .step(Step::Flush)
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Single { client: 2 });
    assert_parity_bulk(&schedule);
}

/// Seals `n` single-packet records from `client` and ships them onto the
/// wire; returns the number of wire datagrams sent.
fn send_records(scenario: &mut ShardedScenario, client: usize, n: usize, round: usize) -> usize {
    let mut sent = 0;
    for i in 0..n {
        let payload = format!("ctrl round {round} client {client} packet {i}");
        let packet = Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            41_000 + client as u16,
            5_001,
            (round * 1_000 + i) as u32,
            payload.as_bytes(),
        );
        let datagrams = scenario.clients[client].send_packet(packet).unwrap();
        sent += datagrams.len();
        scenario.send_wire_datagrams(client as u64, datagrams);
    }
    sent
}

/// Pumps the event loop until `expect` outcomes arrived.
fn pump_all(scenario: &mut ShardedScenario, expect: usize) -> Vec<Out> {
    let mut outs = Vec::new();
    let mut spins = 0;
    while outs.len() < expect {
        outs.extend(
            scenario
                .pump_async()
                .into_iter()
                .map(|(_, result)| simplify(result)),
        );
        spins += 1;
        assert!(
            spins < 100_000,
            "wire lost datagrams: {} of {expect}",
            outs.len()
        );
    }
    outs
}

/// The [`endbox::server::ControllerStats`] reconciliation contract
/// against independent datapath counters, under a heavy-tailed mix:
/// every drained datagram was covered by a granted budget, the budget
/// controller planned a subset of the event loop's rounds, steals are a
/// subset of migrations, and manual re-homes account exactly against the
/// server's RX remap counters.
#[test]
fn controller_stats_reconcile_with_datapath_counters() {
    let mut scenario: ShardedScenario = Scenario::enterprise(8, UseCase::Nop)
        .seed(0xadc0)
        .rx_shards(2)
        .async_ingress(true)
        .build_sharded(4)
        .unwrap();
    let sizes = [6usize, 1, 1, 1, 3, 1, 1, 1];
    let mut drained_total = 0u64;
    for round in 0..4 {
        let mut sent = 0;
        for (client, &n) in sizes.iter().enumerate() {
            sent += send_records(&mut scenario, client, n, round);
        }
        pump_all(&mut scenario, sent);
        drained_total += sent as u64;
    }

    let ingress = scenario.async_stats();
    let stats = scenario.controller_stats();
    assert_eq!(ingress.datagrams, drained_total);
    assert!(
        stats.budget_rounds >= 1,
        "controller never planned: {stats:?}"
    );
    assert!(
        stats.budget_rounds <= ingress.rounds,
        "planned more rounds than the event loop ran: {stats:?} vs {ingress:?}"
    );
    assert!(
        stats.budget_grants >= ingress.datagrams,
        "drained datagrams exceeded the granted budget: {stats:?} vs {ingress:?}"
    );
    assert!(
        stats.steals <= stats.migrations,
        "steals must be a subset of migrations: {stats:?}"
    );
    assert_eq!(
        (stats.remaps, stats.drained_partials),
        scenario.server.rx_remap_counters(),
        "controller snapshot diverged from the server's RX counters"
    );

    // The manual re-home pair accounts exactly like the controller's
    // own: one of the two moves below must change the peer's shard
    // (they target both shards), and every drained partial rides the
    // counter.
    let before = scenario.controller_stats();
    let drained = scenario.remap_peer(1, 0) + scenario.remap_peer(1, 1);
    let after = scenario.controller_stats();
    assert!(
        after.remaps > before.remaps,
        "a shard-changing re-home must count: {before:?} vs {after:?}"
    );
    assert_eq!(
        after.drained_partials,
        before.drained_partials + drained as u64
    );
    assert_eq!(
        (after.remaps, after.drained_partials),
        scenario.server.rx_remap_counters()
    );
}

/// A manual re-home with a record head in flight: the partial drains at
/// the quiesce point (counted in [`endbox::server::ControllerStats`]),
/// reinstalls at the new home, and the tail completes the record to the
/// **same** outcome as an identical run that never re-homed.
#[test]
fn manual_remap_drains_inflight_partial_and_preserves_outcome() {
    let build = || -> ShardedScenario {
        Scenario::enterprise(2, UseCase::Nop)
            .seed(0xadc2)
            .rx_shards(2)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap()
    };
    let mut remapped = build();
    let mut control = build();

    let record = Record {
        opcode: Opcode::Data,
        session_id: remapped.session_id(0),
        packet_id: 0x6001,
        payload: vec![0xab; 160],
    };
    let frags = split_raw(&record.to_bytes(), &[11, 60], 0xBEEF_0001);
    assert_eq!(frags.len(), 3);

    // Head (2 of 3 fragments) into both scenarios; both park a partial.
    let head: Vec<Vec<u8>> = frags[..2].to_vec();
    remapped.send_wire_datagrams(0, head.clone());
    control.send_wire_datagrams(0, head);
    let mut outs_remapped = pump_all(&mut remapped, 2);
    let mut outs_control = pump_all(&mut control, 2);

    // Re-home peer 0 (shard 0 -> 1) in one scenario only: exactly the
    // one in-flight partial drains and reinstalls.
    let drained = remapped.remap_peer(0, 1);
    assert_eq!(drained, 1, "the parked partial must drain with the move");
    let stats = remapped.controller_stats();
    assert_eq!(stats.remaps, 1);
    assert_eq!(stats.drained_partials, 1);

    // Tail completes the record at the new home; the verdict must be
    // identical with and without the re-home.
    remapped.send_wire_datagrams(0, vec![frags[2].clone()]);
    control.send_wire_datagrams(0, vec![frags[2].clone()]);
    outs_remapped.extend(pump_all(&mut remapped, 1));
    outs_control.extend(pump_all(&mut control, 1));
    assert_eq!(outs_remapped, outs_control);
    assert!(
        matches!(outs_remapped[0], Out::Pending) && matches!(outs_remapped[1], Out::Pending),
        "head fragments must park, not deliver: {outs_remapped:?}"
    );
}

/// The token buckets' borrowing contract: a steady trickle never
/// borrows (every socket stays inside its fair share), while a burst
/// after a trickle spends the capacity idle shard-mates banked —
/// `tokens_borrowed` moves only then.
#[test]
fn token_buckets_borrow_only_after_banked_carryover() {
    let mut scenario: ShardedScenario = Scenario::enterprise(8, UseCase::Nop)
        .seed(0xadc1)
        .rx_shards(1)
        .async_ingress(true)
        .build_sharded(2)
        .unwrap();

    // Trickle round: one record per peer; everyone is far under fair
    // share, so nothing is borrowed — but every peer banks unclaimed
    // tokens.
    let mut sent = 0;
    for client in 0..8 {
        sent += send_records(&mut scenario, client, 1, 0);
    }
    pump_all(&mut scenario, sent);
    let steady = scenario.controller_stats();
    assert_eq!(
        steady.tokens_borrowed, 0,
        "a steady trickle must not borrow: {steady:?}"
    );

    // Burst round: one peer floods far past its per-round fair share
    // while shard-mates trickle; the flood drains in full against the
    // banked carryover and the excess is accounted as borrowed.
    let mut sent = send_records(&mut scenario, 0, 200, 1);
    for client in 1..8 {
        sent += send_records(&mut scenario, client, 1, 1);
    }
    pump_all(&mut scenario, sent);
    let burst = scenario.controller_stats();
    assert!(
        burst.tokens_borrowed > 0,
        "a burst after a trickle must spend banked tokens: {burst:?}"
    );
}

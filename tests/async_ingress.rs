//! Parity and backpressure tests for the event-driven socket front-end
//! (`AsyncFrontEnd`: one poll group over every peer's socket, feeding
//! shards `peer_id mod C`).
//!
//! The named tests replay [`support::Schedule`]s — the same deterministic
//! interleaving classes the call-driven pipeline is pinned by in
//! `tests/rx_interleaving.rs` — through the **event-driven** ingress path
//! (`ScenarioBuilder::async_ingress`): datagrams ride the virtual wire
//! into per-peer server sockets, and a readiness poll loop drains them
//! into one receive call. With the default (generous) budget the drained
//! batch is re-merged into exact wire order, so the outcomes must be
//! byte-identical to the single-threaded reference server over the whole
//! shard grid `C ∈ {1, 2, 4, 8}`. `Flush` boundaries become
//! *poll-round* boundaries here, so partial records straddle event-loop
//! iterations instead of `receive_datagrams` calls — the
//! readiness-interleaving analogue of the batch-boundary schedules.
//!
//! The backpressure test floods one socket past the aggregate budget and
//! asserts the scheduling contract directly: a flooding peer defers to
//! later rounds while its shard-mates ride in every round, and per-peer
//! outcome order stays exactly the single-threaded order throughout.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::server::{Delivery, DEFAULT_SHARD_BUDGET};
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;
use support::{
    assert_parity, generated_schedule, simplify, Out, PeerMap, RunCfg, Schedule, Step, GRID,
};

/// `grid` through the event-driven front-end.
fn assert_parity_async(schedule: &Schedule, grid: &[usize]) {
    assert_parity(schedule, grid, &[RunCfg::event_loop()]);
}

/// A Disconnect decided on its (stalled) owning shard, a replayed
/// Disconnect that must fail, and a split record completing afterwards —
/// all arriving through sockets instead of calls.
#[test]
fn async_schedule_disconnect_races_slow_owning_shard() {
    let schedule = Schedule::new("async-disconnect-races-slow-owning-shard", 2, 0xac01)
        .stall(0, 400)
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Disconnect { client: 0 })
        .step(Step::Replay) // replayed Disconnect: session unknown -> must NOT tear down
        .step(Step::SplitRecord {
            client: 0,
            payload_len: 220,
            splits: vec![3, 40],
        })
        .step(Step::Single { client: 1 })
        .step(Step::Flush)
        .step(Step::Single { client: 1 });
    assert_parity_async(&schedule, &GRID);
}

/// All peers collide on one shard via stride-4 peer ids: the event loop
/// drains every socket feeding the collided shard and must
/// still reproduce the single-threaded sequencing, Disconnect teardown
/// included.
#[test]
fn async_schedule_all_peers_collide_on_one_poll_group() {
    let schedule = Schedule::new("async-all-peers-collide", 3, 0xac02)
        .peers(PeerMap::Stride(4))
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Replay)
        .step(Step::Disconnect { client: 2 })
        .step(Step::Replay)
        .step(Step::Single { client: 0 })
        .step(Step::Flush)
        .step(Step::Ping { client: 1 })
        .step(Step::Single { client: 1 });
    assert_parity_async(&schedule, &GRID);
}

/// A split record whose head arrives in one poll round and whose tail
/// only becomes readable two event-loop rounds later, with other peers'
/// traffic (and a shard stall) in between: reassembly state must survive
/// across wakeups exactly as it survives across `receive_datagrams`
/// calls.
#[test]
fn async_schedule_split_record_straddles_poll_rounds() {
    let mut schedule = Schedule::new("async-split-straddles-poll-rounds", 2, 0xac03)
        .stall(0, 150)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 300,
            splits: vec![5, 9, 120],
            tag: 1,
            lo: 0,
            hi: 2,
        })
        .step(Step::Flush); // poll-round boundary with the record half-read
    for _ in 0..10 {
        schedule = schedule.step(Step::Single { client: 1 });
    }
    schedule = schedule
        .step(Step::Flush) // a second wakeup without the tail
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 300,
            splits: vec![5, 9, 120],
            tag: 1,
            lo: 2,
            hi: 4,
        })
        .step(Step::Single { client: 1 });
    assert_parity_async(&schedule, &GRID);
}

/// Interleaved tiny datagrams (1-byte fragments through header and body)
/// across poll-round boundaries, with a stalled sibling shard.
#[test]
fn async_schedule_interleaved_tiny_datagrams() {
    let mut schedule = Schedule::new("async-interleaved-tiny-datagrams", 2, 0xac04).stall(1, 100);
    for i in 0..6 {
        schedule = schedule
            .step(Step::SplitRecord {
                client: i % 2,
                payload_len: 24,
                splits: (1..40).collect(),
            })
            .step(Step::Single {
                client: (i + 1) % 2,
            });
        if i % 3 == 2 {
            schedule = schedule.step(Step::Flush);
        }
    }
    assert_parity_async(&schedule, &GRID);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Generated readiness interleavings (batches, singles, pings,
        /// replays, disconnects, splits, poll-round boundaries, colliding
        /// or spread peer maps) through the event-driven front-end are
        /// byte-identical to the single-threaded server.
        #[test]
        fn generated_schedules_match_single_server_through_event_loop(
            n_clients in 2usize..4,
            seed in 0u64..1_000,
            collide in proptest::any::<bool>(),
            raw in prop::collection::vec((0usize..8, 0usize..4, 0usize..8), 3..9),
        ) {
            let schedule = generated_schedule(
                "async-proptest-schedule",
                &raw,
                n_clients,
                collide,
                0xac50 + seed,
            );
            assert_parity_async(&schedule, &GRID);
        }
    }
}

/// Builds one single-packet wire datagram for `client` (small payload →
/// one datagram per record).
fn single_datagram(
    scenario: &mut endbox::scenario::ShardedScenario,
    client: usize,
    seq: u32,
) -> Vec<u8> {
    let pkt = Packet::tcp(
        Scenario::client_addr(client),
        Scenario::network_addr(),
        44_000 + client as u16,
        5_001,
        seq,
        format!("bp client {client} seq {seq}").as_bytes(),
    );
    let mut sealed = scenario.clients[client].send_packet(pkt).unwrap();
    assert_eq!(sealed.len(), 1, "small record must be one datagram");
    sealed.pop().unwrap()
}

/// Backpressure contract: a peer flooding its socket past everything one
/// round may drain (`DEFAULT_SHARD_BUDGET × C`) cannot starve its
/// shard-mates — the mates'
/// traffic rides in the very first round while the flood's tail defers
/// to later rounds — and the outcomes still match the call-driven server
/// per peer, in per-peer order.
#[test]
fn flooding_peer_defers_while_shard_mates_ride_every_round() {
    let build = |async_ingress: bool| {
        Scenario::enterprise(8, UseCase::Nop)
            .seed(0xac10)
            .async_ingress(async_ingress)
            .build_sharded(4)
            .unwrap()
    };
    let mut sync = build(false);
    let mut async_ = build(true);

    // Peer 0 floods its socket; peers 4 (same shard: 4 mod 4 == 0) and
    // 1 (different shard) each send a trickle. Identical seeds produce
    // identical wire bytes on both scenarios.
    const FLOOD: usize = DEFAULT_SHARD_BUDGET * 4 + 64;
    let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
    for seq in 0..FLOOD {
        sends.push((0, single_datagram(&mut async_, 0, seq as u32)));
    }
    sends.push((4, single_datagram(&mut async_, 4, 100)));
    sends.push((4, single_datagram(&mut async_, 4, 101)));
    sends.push((1, single_datagram(&mut async_, 1, 200)));
    for (client, d) in &sends {
        async_.send_wire_datagrams(*client as u64, vec![d.clone()]);
    }

    // Peer 0's socket holds more queued datagrams than the whole server
    // may drain in one round, so the round budget binds and draining
    // takes rounds.
    let first_round = async_.pump_async_round();
    let first_peers: Vec<u64> = first_round.iter().map(|(p, _)| *p).collect();
    assert!(
        first_peers.contains(&4),
        "shard-mate must ride the first round despite the flood: {first_peers:?}"
    );
    assert!(
        first_peers.contains(&1),
        "other shards are untouched by the flood: {first_peers:?}"
    );
    assert!(
        first_peers.iter().filter(|&&p| p == 0).count() < FLOOD,
        "the flood must not drain in one budgeted round"
    );
    // The even split is work-conserving: what the trickling sockets
    // leave unclaimed goes to the flood, so a binding round drains its
    // whole budget of `DEFAULT_SHARD_BUDGET × C`.
    assert_eq!(
        first_round.len(),
        DEFAULT_SHARD_BUDGET * 4,
        "a binding round drains exactly its budget"
    );
    let stats = async_.async_stats();
    assert!(
        stats.deferred_rounds >= 1,
        "budget exhaustion must be observable: {stats:?}"
    );
    // At most one `recv_many` per ready socket per drain pass. The first
    // pass visits all three sockets and the trickles run dry in it; the
    // second hands the flood what is left of the budget, a call boundary
    // in the middle of its queue.
    let (ready_sockets, passes) = (3, 2);
    assert!(
        stats.io_calls as usize <= ready_sockets * passes,
        "one call per ready socket per pass: {} calls for {} datagrams",
        stats.io_calls,
        first_round.len()
    );
    assert!(async_.backlog() > 0, "flood tail still queued");

    // Drain the tail and compare against the call-driven server, per
    // peer and in per-peer order (cross-peer interleaving is allowed to
    // move across rounds; per-peer order is the contract).
    let mut async_outs: Vec<(u64, Out)> = first_round
        .into_iter()
        .map(|(p, r)| (p, simplify(r)))
        .collect();
    async_outs.extend(
        async_
            .pump_async()
            .into_iter()
            .map(|(p, r)| (p, simplify(r))),
    );
    assert_eq!(async_.backlog(), 0);

    let sync_outs: Vec<(u64, Out)> = sync
        .server
        .receive_datagrams(sends.iter().map(|(c, d)| (*c as u64, d.clone())).collect())
        .into_iter()
        .zip(sends.iter())
        .map(|(r, (c, _))| (*c as u64, simplify(r)))
        .collect();
    for peer in [0u64, 1, 4] {
        let got: Vec<&Out> = async_outs
            .iter()
            .filter(|(p, _)| *p == peer)
            .map(|(_, o)| o)
            .collect();
        let want: Vec<&Out> = sync_outs
            .iter()
            .filter(|(p, _)| *p == peer)
            .map(|(_, o)| o)
            .collect();
        assert_eq!(
            got, want,
            "peer {peer} diverged from the call-driven server"
        );
    }
    assert_eq!(async_outs.len(), sync_outs.len());
}

/// The front-end's counters reconcile with the shards': every datagram
/// the event loop drains is a datagram some shard framed from.
#[test]
fn async_stats_reconcile_with_rx_shard_stats() {
    let mut s = Scenario::enterprise(6, UseCase::Nop)
        .seed(0xac11)
        .async_ingress(true)
        .build_sharded(2)
        .unwrap();
    let rx_before: u64 = s.server.shard_stats().iter().map(|st| st.datagrams).sum();
    for round in 0..3 {
        let payloads: Vec<Vec<Vec<u8>>> = (0..6)
            .map(|c| {
                (0..2)
                    .map(|i| format!("recon {round} {c} {i}").into_bytes())
                    .collect()
            })
            .collect();
        let delivered = s.send_batches_from_all(&payloads).unwrap();
        assert!(delivered.iter().all(|d| d.len() == 2));
    }
    let stats = s.async_stats();
    let rx_after: u64 = s.server.shard_stats().iter().map(|st| st.datagrams).sum();
    assert_eq!(
        stats.datagrams,
        rx_after - rx_before,
        "every drained datagram reaches exactly one shard"
    );
    assert_eq!(stats.rounds, 3, "one dispatch round per driver call");
    // One poll per pump call: each driver call pumps its one round, then
    // one idle pump finds nothing readable.
    assert_eq!(
        stats.wakeups,
        stats.rounds + 3,
        "one wakeup per pump call: {stats:?}"
    );
    assert_eq!(stats.deferred_rounds, 0);
}

/// Singular `receive_datagram` calls (the handshake/control path) mix
/// freely with event-driven data-path ingress: the shards see one
/// per-peer order regardless of which doorway a datagram used.
#[test]
fn control_path_calls_mix_with_event_driven_ingress() {
    let mut s = Scenario::enterprise(2, UseCase::Nop)
        .seed(0xac12)
        .async_ingress(true)
        .build_sharded(2)
        .unwrap();
    // Data over the event loop…
    let d0 = single_datagram(&mut s, 0, 1);
    s.send_wire_datagrams(0, vec![d0]);
    let outs = s.pump_async();
    assert_eq!(outs.len(), 1);
    assert!(matches!(
        outs[0].1,
        Ok(Delivery::Packet { .. } | Delivery::PacketBatch { .. })
    ));
    // …then a control ping through the call-driven doorway, then data
    // again: per-peer framing order must hold across the mix.
    let ping = s.clients[0].build_ping().unwrap();
    for frag in &ping {
        s.server.receive_datagram(0, frag).unwrap();
    }
    let d1 = single_datagram(&mut s, 0, 2);
    s.send_wire_datagrams(0, vec![d1]);
    let outs = s.pump_async();
    assert_eq!(outs.len(), 1);
    assert!(outs[0].1.is_ok(), "replay window must not trip: {outs:?}");
}

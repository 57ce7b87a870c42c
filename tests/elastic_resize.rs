//! Structural elasticity: grow/shrink RX framing shards and worker
//! shards online, pinned by a resize-schedule parity grid.
//!
//! The named schedules interleave [`Step::Resize`] against the existing
//! adversarial classes — a grow lands mid-flood with datagrams already
//! buffered, a shrink retires the very shard holding an in-flight
//! partial record (the partial drains at the quiesce point and rehashes
//! to its new home, where the tail completes it), a resize races a
//! crafted `Disconnect`, and back-to-back grow+shrink pairs bracket
//! traffic. Every schedule replays over the full
//! `(rx, workers) ∈ {1,2,4} × {1,2,4,8}` starting grid through both the
//! call-driven and the event-driven doorway, asserting byte-identical
//! outcomes against the single-threaded reference: capacity changes
//! never change outcomes, only where work happens. One schedule grows
//! the worker pool under a session that has not spoken yet, so the
//! dispatcher's idle-worker steals are exercised across the grid too.
//!
//! The deterministic tests pin the [`ResizeStats`] contract (a shrink
//! drains exactly the parked partials of the peers whose owner changed;
//! worker shrinks migrate every session off the retiring shards) and
//! the resize law itself (a sustained flood grows the pool, sustained
//! idleness shrinks it back, through hysteresis and cooldown). The
//! proptest interleaves random `Step::Resize` steps with the existing
//! schedule classes and reconciles the stats against the schedule that
//! drove them — no record lost or duplicated across any rehash.
//!
//! [`ResizeStats`]: endbox::server::ResizeStats

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::ResizeStats;
use endbox::use_cases::UseCase;
use endbox_netsim::net::VirtualWire;
use endbox_netsim::Packet;
use endbox_vpn::proto::{Opcode, Record};
use support::{
    assert_parity, full_grid, run, run_single, simplify, split_raw, Out, PeerMap, RunCfg, Schedule,
    Step,
};

/// Every **starting** `(rx_shards, workers)` of the full grid through both
/// doorways: the call-driven `receive_datagrams` path and the
/// event-driven front-end (there a resize additionally rebuilds the poll
/// groups around the live sockets). Returns the dispatcher's
/// `(migrations, steals)` over all of it.
fn assert_parity_elastic(schedule: &Schedule) -> (u64, u64) {
    let cfgs = [RunCfg::call(), RunCfg::event_loop()];
    assert_parity(schedule, &full_grid(), &cfgs)
}

/// A grow fired while a four-client flood is mid-flight: datagrams from
/// every client are already buffered when the pool doubles, so the whole
/// burst rides through the *resized* server and re-merges into exact
/// input order regardless of which geometry framed which datagram. A
/// fifth client stays silent until the end: once the flood has loaded
/// its worker, the idle workers the grow added steal that session (its
/// replay window is still empty), and its first record is opened on the
/// worker that stole it.
#[test]
fn schedule_grow_mid_flood() {
    let schedule = Schedule::new("grow-mid-flood", 5, 0xe1a1)
        .step(Step::Batch {
            client: 0,
            n_packets: 6,
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 5,
        })
        .step(Step::Single { client: 2 })
        .step(Step::Batch {
            client: 3,
            n_packets: 4,
        })
        .step(Step::Resize { rx: 4, workers: 8 })
        .step(Step::Batch {
            client: 0,
            n_packets: 3,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Flush)
        .step(Step::Batch {
            client: 2,
            n_packets: 4,
        })
        .step(Step::Single { client: 3 })
        .step(Step::Single { client: 4 });
    let (migrations, steals) = assert_parity_elastic(&schedule);
    assert!(steals > 0, "idle workers never stole the silent session");
    assert!(steals <= migrations, "every steal is a migration");
}

/// A shrink retires the shard holding an in-flight partial record: the
/// head fragments park in a reassembler, the pool shrinks to one shard
/// (the retiring shard drains its partial to the survivor), the tail
/// arrives after the rehash and completes the record — then a replay of
/// the tail is rejected identically and a grow follows.
#[test]
fn schedule_shrink_straddles_partial() {
    let schedule = Schedule::new("shrink-straddles-partial", 3, 0xe1a2)
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 3,
            lo: 0,
            hi: 2,
        })
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Resize { rx: 1, workers: 1 })
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 3,
            lo: 2,
            hi: 4,
        })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Resize { rx: 4, workers: 4 })
        .step(Step::Single { client: 1 });
    assert_parity_elastic(&schedule);
}

/// A resize races a crafted `Disconnect`: the teardown is buffered but
/// not yet flushed when the pool resizes, so the Disconnect is framed by
/// the *new* geometry, a replay of it fails against the dead session
/// without tearing down the fresh reassembler, and the parked partial's
/// tail still completes (and fails its verdict) after a second resize.
#[test]
fn schedule_resize_races_disconnect() {
    let schedule = Schedule::new("resize-races-disconnect", 3, 0xe1a3)
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
        .step(Step::Resize { rx: 2, workers: 2 })
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
        .step(Step::Resize { rx: 1, workers: 4 })
        .step(Step::Single { client: 0 });
    assert_parity_elastic(&schedule);
}

/// Back-to-back grow+shrink pairs with no traffic between them, under
/// the adversarial colliding peer map (every peer homes on shard 0 at
/// every grid point) and a stalled shard 0 — two full rehashes in a row
/// must compose to a no-op on outcomes, twice.
#[test]
fn schedule_back_to_back_grow_shrink() {
    let schedule = Schedule::new("back-to-back-grow-shrink", 4, 0xe1a4)
        .peers(PeerMap::Stride(4))
        .stall(0, 120)
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Flush)
        .step(Step::Resize { rx: 8, workers: 8 })
        .step(Step::Resize { rx: 1, workers: 1 })
        .step(Step::Batch {
            client: 2,
            n_packets: 3,
        })
        .step(Step::Single { client: 3 })
        .step(Step::Flush)
        .step(Step::Resize { rx: 2, workers: 4 })
        .step(Step::Resize { rx: 4, workers: 2 })
        .step(Step::Replay)
        .step(Step::Single { client: 0 });
    assert_parity_elastic(&schedule);
}

/// Seals `n` single-packet records from `client` and ships them onto the
/// wire; returns the number of wire datagrams sent.
fn send_records(scenario: &mut ShardedScenario, client: usize, n: usize, round: usize) -> usize {
    let mut sent = 0;
    for i in 0..n {
        let payload = format!("elastic round {round} client {client} packet {i}");
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
            "wire lost datagrams across a resize: {} of {expect}",
            outs.len()
        );
    }
    outs
}

/// The satellite `rehome_peer` fix: a re-home targeting a group index
/// that is no longer live (stale after a shrink) must panic loudly
/// instead of silently wrapping onto the wrong group — a wrapped re-home
/// would park the peer's socket on a group that does not feed the shard
/// owning its reassembly state.
#[test]
#[should_panic(expected = "is not live")]
fn rehome_peer_rejects_stale_group_index() {
    let wire = VirtualWire::new();
    let mut fe = endbox::server::AsyncFrontEnd::new(2);
    fe.register_peer(7, wire.bind(7).unwrap());
    // A caller holding an index from before a shrink: only groups 0..2
    // are live, so 5 must be rejected, not wrapped to 5 % 2 == 1.
    fe.rehome_peer(7, 5);
}

/// The RX half of the same relocation rejects the same stale index the
/// same way (it used to wrap it to `5 % 2 == 1`, leaving the peer's
/// reassembly state on a shard its socket's poll group does not feed).
#[test]
#[should_panic(expected = "is not live")]
fn remap_rx_peer_rejects_stale_shard_index() {
    let mut scenario = Scenario::enterprise(1, UseCase::Nop)
        .seed(0xe1c1)
        .rx_shards(4)
        .build_sharded(1)
        .unwrap();
    scenario.resize_rx_shards(2);
    scenario.server.remap_rx_peer(0, 5);
}

/// A shrink with a record head in flight, against a twin scenario that
/// never resizes: exactly the parked partial of the owner-changed peer
/// drains (counted in [`ResizeStats`]), reinstalls at its home under the
/// new modulus, and the tail completes the record to the **same**
/// outcome as the twin.
#[test]
fn shrink_drains_inflight_partial_and_preserves_outcome() {
    let build = || -> ShardedScenario {
        Scenario::enterprise(2, UseCase::Nop)
            .seed(0xe1c2)
            .rx_shards(2)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap()
    };
    let mut resized = build();
    let mut control = build();

    // Peer 1 homes on shard 1 of 2; after the shrink to one shard its
    // home is shard 0, so the rehash moves it — partial and all.
    let record = Record {
        opcode: Opcode::Data,
        session_id: resized.session_id(1),
        packet_id: 0x7001,
        payload: vec![0xcd; 160],
    };
    let frags = split_raw(&record.to_bytes(), &[11, 60], 0xBEEF_0002);
    assert_eq!(frags.len(), 3);

    let head: Vec<Vec<u8>> = frags[..2].to_vec();
    resized.send_wire_datagrams(1, head.clone());
    control.send_wire_datagrams(1, head);
    let mut outs_resized = pump_all(&mut resized, 2);
    let mut outs_control = pump_all(&mut control, 2);

    let (moved, drained) = resized.resize_rx_shards(1);
    assert!(moved >= 1, "peer 1's owner changed, so it must move");
    assert_eq!(drained, 1, "the parked partial must drain with the rehash");
    let stats = resized.resize_stats();
    assert_eq!(stats.rx_shrinks, 1);
    assert_eq!(stats.rx_grows, 0);
    assert_eq!(stats.partials_drained, 1);
    assert_eq!(stats.peers_rehashed, moved as u64);

    // Tail completes the record at the rehashed home; the verdict must
    // be identical with and without the resize.
    resized.send_wire_datagrams(1, vec![frags[2].clone()]);
    control.send_wire_datagrams(1, vec![frags[2].clone()]);
    outs_resized.extend(pump_all(&mut resized, 1));
    outs_control.extend(pump_all(&mut control, 1));
    assert_eq!(outs_resized, outs_control);
    assert!(
        matches!(outs_resized[0], Out::Pending) && matches!(outs_resized[1], Out::Pending),
        "head fragments must park, not deliver: {outs_resized:?}"
    );
}

/// Worker elasticity bookkeeping: a shrink migrates every session off
/// the retiring shards (counted in [`ResizeStats::sessions_moved`]), a
/// grow spawns fresh workers that already carry the live config policy,
/// and traffic flows identically before and after both.
#[test]
fn worker_resize_migrates_sessions_and_keeps_serving() {
    let mut scenario: ShardedScenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1c3)
        .rx_shards(2)
        .async_ingress(true)
        .build_sharded(4)
        .unwrap();

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, client, 2, 0);
    }
    pump_all(&mut scenario, sent);

    // 4 sessions homed across 4 worker shards; shrinking to 1 retires
    // three shards and every session on them must migrate.
    let moved = scenario.resize_workers(1);
    assert!(
        moved >= 3,
        "three of four worker homes retire: moved {moved}"
    );
    let stats = scenario.resize_stats();
    assert_eq!(stats.worker_shrinks, 1);
    assert_eq!(stats.worker_grows, 0);
    assert_eq!(stats.sessions_moved, moved as u64);

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, client, 2, 1);
    }
    pump_all(&mut scenario, sent);

    // Grow back: fresh workers, no sessions need to move for a grow.
    let moved = scenario.resize_workers(8);
    assert_eq!(moved, 0, "a grow retires nothing: moved {moved}");
    assert_eq!(scenario.resize_stats().worker_grows, 1);

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, client, 2, 2);
    }
    let outs = pump_all(&mut scenario, sent);
    assert_eq!(outs.len(), sent);
}

/// The resize law end to end ([`ScenarioBuilder::elastic`]): a sustained
/// flood pushes the demand EWMAs past the grow hysteresis and the pool
/// grows; sustained idleness decays them back and — after the cooldown —
/// the pool shrinks to one shard again. Workers track the RX count
/// through [`RESIZE_WORKERS_PER_SHARD`].
///
/// [`ScenarioBuilder::elastic`]: endbox::scenario::ScenarioBuilder::elastic
/// [`RESIZE_WORKERS_PER_SHARD`]: endbox::server::RESIZE_WORKERS_PER_SHARD
#[test]
fn elastic_law_grows_under_flood_and_shrinks_when_idle() {
    let mut scenario: ShardedScenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1c4)
        .rx_shards(1)
        .elastic(true)
        .build_sharded(2)
        .unwrap();
    assert_eq!(scenario.server.rx_shard_count(), 1);

    // Flood until the grow fires (hysteresis needs a few consecutive
    // over-demand control rounds; each flood/pump cycle provides them).
    let mut round = 0;
    while scenario.resize_stats().rx_grows == 0 && round < 12 {
        let mut sent = 0;
        for client in 0..4 {
            sent += send_records(&mut scenario, client, 75, round);
        }
        let outs = pump_all(&mut scenario, sent);
        assert_eq!(outs.len(), sent, "no datagram may be lost across a grow");
        round += 1;
    }
    let grown = scenario.resize_stats();
    assert!(
        grown.rx_grows >= 1,
        "the flood never fired a grow: {grown:?}"
    );
    assert!(
        scenario.server.rx_shard_count() > 1,
        "a grow must actually add shards"
    );

    // Idle rounds decay the EWMAs; after the cooldown plus the shrink
    // hysteresis the pool falls back to one shard.
    for _ in 0..60 {
        scenario.pump_async();
    }
    let shrunk = scenario.resize_stats();
    assert!(
        shrunk.rx_shrinks >= 1,
        "sustained idleness never fired a shrink: {shrunk:?}"
    );
    assert_eq!(
        scenario.server.rx_shard_count(),
        1,
        "idle demand must shrink back to the floor"
    );
    assert!(
        shrunk.worker_grows >= 1 && shrunk.worker_shrinks >= 1,
        "workers must track the RX resizes: {shrunk:?}"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes index tuples into a schedule mixing every existing step
    /// class with [`Step::Resize`] (kind 8): grows and shrinks land at
    /// arbitrary positions between batches, splits, replays,
    /// disconnects and flush boundaries.
    fn to_schedule(
        raw: &[(usize, usize, usize)],
        n_clients: usize,
        collide: bool,
        seed: u64,
    ) -> Schedule {
        let mut schedule =
            Schedule::new("proptest-elastic", n_clients, 0xe1b0 + seed).peers(if collide {
                PeerMap::Stride(4)
            } else {
                PeerMap::Identity
            });
        schedule = schedule.stall((seed % 4) as usize, 120);
        for &(kind, client, n) in raw {
            let client = client % n_clients;
            schedule = schedule.step(match kind % 9 {
                0 => Step::Batch {
                    client,
                    n_packets: 1 + n % 6,
                },
                1 => Step::Single { client },
                2 => Step::Ping { client },
                3 => Step::Replay,
                4 => Step::SplitRecord {
                    client,
                    payload_len: 16 + n * 13,
                    splits: vec![1 + n, 7 + n * 3, 60],
                },
                5 => Step::Flush,
                6 => Step::Disconnect { client },
                _ => Step::Resize {
                    rx: 1 + n % 4,
                    workers: 1 + (n * 3) % 8,
                },
            });
        }
        schedule
    }

    /// How many [`Step::Resize`] steps a schedule carries — the upper
    /// bound on every grow/shrink counter pair in [`ResizeStats`].
    fn resize_steps(schedule: &Schedule) -> u64 {
        schedule
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Resize { .. }))
            .count() as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Random interleavings of `Step::Resize` with every existing
        /// schedule class stay byte-identical to the single-threaded
        /// reference through both doorways, and the [`ResizeStats`]
        /// reconcile with the schedule that drove them: grows plus
        /// shrinks never exceed the resize steps (equal-geometry
        /// resizes are no-ops), and a schedule without resizes leaves
        /// the stats at zero — no record lost or duplicated across any
        /// rehash.
        #[test]
        fn resize_interleavings_preserve_parity_and_reconcile(
            n_clients in 2usize..4,
            seed in 0u64..1_000,
            collide in proptest::any::<bool>(),
            raw in prop::collection::vec((0usize..9, 0usize..4, 0usize..8), 4..10),
        ) {
            let schedule = to_schedule(&raw, n_clients, collide, seed);
            let resizes = resize_steps(&schedule);
            let reference = run_single(&schedule);
            for &(rx, workers) in &[(1usize, 1usize), (2, 4), (4, 8)] {
                let (outs, moves) = run(&schedule, (rx, workers), &RunCfg::call());
                let stats = moves.resize;
                prop_assert_eq!(
                    &outs, &reference,
                    "call-driven divergence at rx={} workers={}",
                    rx, workers
                );
                prop_assert!(
                    stats.rx_grows + stats.rx_shrinks <= resizes,
                    "more RX resizes than steps: {:?} vs {} steps", stats, resizes
                );
                prop_assert!(
                    stats.worker_grows + stats.worker_shrinks <= resizes,
                    "more worker resizes than steps: {:?} vs {} steps", stats, resizes
                );
                if resizes == 0 {
                    prop_assert_eq!(stats, ResizeStats::default());
                }
                let (outs, _) = run(&schedule, (rx, workers), &RunCfg::event_loop());
                prop_assert_eq!(
                    &outs, &reference,
                    "event-driven divergence at rx={} workers={}",
                    rx, workers
                );
            }
        }
    }
}

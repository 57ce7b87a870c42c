//! Structural elasticity: grow/shrink the shard count online, pinned by a
//! resize-schedule parity grid.
//!
//! The named schedules interleave [`Step::Resize`] against the existing
//! adversarial classes — a grow lands mid-flood with datagrams already
//! buffered, a shrink retires the very shard holding an in-flight
//! partial record (the partial moves at the quiesce point to its new
//! home, where the tail completes it), a resize races a crafted
//! `Disconnect`, and back-to-back grow+shrink pairs bracket traffic.
//! Every schedule replays over the full starting grid `C ∈ {1, 2, 4, 8}`
//! through both the call-driven and the event-driven doorway, asserting
//! byte-identical outcomes against the single-threaded reference:
//! capacity changes never change outcomes, only where work happens. One
//! schedule grows the server under a peer that has not spoken since its
//! handshake, so the dispatch law's idle-shard steals are exercised
//! across the grid too.
//!
//! The deterministic tests pin the [`ResizeStats`] contract (a shrink
//! moves exactly the parked partials and bound sessions of the peers on
//! retiring shards) and the resize law itself (a sustained flood grows
//! the server, sustained idleness shrinks it back, through hysteresis and
//! cooldown, reading the one total-backlog EWMA that is the only socket
//! depth the event loop samples). The proptest interleaves random `Step::Resize` steps with
//! the existing schedule classes and reconciles the stats against the
//! schedule that drove them — no record lost or duplicated across any
//! move.
//!
//! [`ResizeStats`]: endbox::server::ResizeStats

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::ResizeStats;
use endbox::use_cases::UseCase;
use endbox::EndBoxError;
use endbox_vpn::frag::Reassembler;
use endbox_vpn::proto::Record;
use endbox_vpn::VpnError;
use std::collections::HashSet;
use support::{
    assert_parity, assert_relocation_keeps_partial, egress_schedule, pump_until, run, send_records,
    Geometry, PeerMap, RunCfg, Schedule, Step, GRID,
};

/// Every **starting** shard count of the grid through both doorways: the
/// call-driven `receive_datagrams` path and the event-driven front-end
/// (there the sockets stay registered where they are, and a grown server
/// fills through the dispatch law exactly as through the call-driven
/// doorway). Returns the dispatch law's `(migrations, steals)` over all
/// of it.
fn assert_parity_elastic(schedule: &Schedule) -> (u64, u64) {
    let cfgs = [RunCfg::call(), RunCfg::event_loop()];
    assert_parity(schedule, &GRID, &cfgs)
}

/// A grow fired while a four-client flood is mid-flight: datagrams from
/// every client are already buffered when the server grows, so the whole
/// burst rides through the *resized* server and re-merges into exact
/// input order regardless of which shard framed which datagram. A fifth
/// client stays silent until the end: once the flood has loaded its
/// shard, the idle shards the grow added steal that peer (it has carried
/// no bound traffic), and its first record is opened on the shard that
/// stole it.
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
        .step(Step::Resize { shards: 8 })
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
    assert!(steals > 0, "idle shards never stole the silent peer");
    assert!(steals <= migrations, "every steal is a migration");
}

/// A shrink retires the shard holding an in-flight partial record: the
/// head fragments park in a reassembler, the server shrinks to one shard
/// (the retiring shard hands its partial to the survivor), the tail
/// arrives after the move and completes the record — then a replay of
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
        .step(Step::Resize { shards: 1 })
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
        .step(Step::Resize { shards: 4 })
        .step(Step::Single { client: 1 });
    assert_parity_elastic(&schedule);
}

/// A resize races a crafted `Disconnect`: the teardown is buffered but
/// not yet flushed when the server resizes, so the Disconnect is framed
/// by the *new* geometry, a replay of it fails against the dead session
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
        .step(Step::Resize { shards: 2 })
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
        .step(Step::Resize { shards: 1 })
        .step(Step::Single { client: 0 });
    assert_parity_elastic(&schedule);
}

/// Back-to-back grow+shrink pairs with no traffic between them, under
/// the adversarial colliding peer map (every peer homes on shard 0 at
/// C ≤ 4) and a stalled shard 0 — two resizes in a row must compose to a
/// no-op on outcomes, twice.
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
        .step(Step::Resize { shards: 8 })
        .step(Step::Resize { shards: 1 })
        .step(Step::Batch {
            client: 2,
            n_packets: 3,
        })
        .step(Step::Single { client: 3 })
        .step(Step::Flush)
        .step(Step::Resize { shards: 2 })
        .step(Step::Resize { shards: 4 })
        .step(Step::Replay)
        .step(Step::Single { client: 0 });
    assert_parity_elastic(&schedule);
}

/// Egress between moves (`support::egress_schedule`): the server's seals
/// and pings towards clients whose receive halves a shrink moved onto
/// other shards are byte-identical to the reference's at every starting
/// grid point through both doorways, and sealing to a disconnected
/// session is `UnknownSession` on every server.
#[test]
fn schedule_egress_across_resizes_and_disconnect() {
    let schedule = egress_schedule();
    let (reference, _) = run(&schedule, Geometry::Reference, &RunCfg::call());
    // Eleven seals; client 2's seal and ping after its Disconnect fail.
    let refused: Vec<bool> = reference
        .egress
        .iter()
        .map(|sealed| matches!(sealed, Err(EndBoxError::Vpn(VpnError::UnknownSession(_)))))
        .collect();
    let mut want = [false; 11];
    want[8..10].fill(true);
    assert_eq!(refused, want);
    assert!(reference.egress.iter().flatten().all(|d| !d.is_empty()));
    let (_, moves) = run(&schedule, 8, &RunCfg::call());
    assert!(moves.resize.sessions_moved > 0, "no receive half moved");
    assert_parity_elastic(&schedule);
}

/// In both suites a record's nonce is its packet id — GMAC's under the
/// integrity-only suite, and AES-GCM's under the enterprise one, where a
/// repeat would also leak the XOR of two plaintexts — so no
/// `(session, direction, packet id)` may repeat among the records the
/// clients seal and the server's send table seals: across the resizes
/// that move receive halves, the disconnect and the pings of the egress
/// schedule, at every starting grid point through both doorways (where
/// the outcomes also match the reference's).
#[test]
fn isp_nonces_never_repeat_across_moves() {
    for schedule in [egress_schedule().isp(), egress_schedule()] {
        assert_nonces_never_repeat(&schedule);
    }
}

fn assert_nonces_never_repeat(schedule: &Schedule) {
    let (reference, _) = run(schedule, Geometry::Reference, &RunCfg::call());
    let mut runs = vec![reference];
    for cfg in [RunCfg::call(), RunCfg::event_loop()] {
        for point in GRID {
            let (got, _) = run(schedule, point, &cfg);
            assert_eq!(got, runs[0], "C={point} under {cfg:?}");
            runs.push(got);
        }
    }
    for replay in &runs {
        // Clients' records, reassembled per client; each egress entry is
        // one server record's fragments.
        let mut per_client: Vec<Reassembler> = (0..schedule.n_clients)
            .map(|_| Reassembler::new())
            .collect();
        let mut sealed: Vec<(Record, &str)> = Vec::new();
        for (client, d) in &replay.sealed_by_clients {
            if let Some(bytes) = per_client[*client].push(d).unwrap() {
                sealed.push((Record::from_bytes(&bytes).unwrap(), "client to server"));
            }
        }
        for datagrams in replay.egress.iter().flatten() {
            let mut reassembler = Reassembler::new();
            let records: Vec<Vec<u8>> = datagrams
                .iter()
                .filter_map(|d| reassembler.push(d).unwrap())
                .collect();
            assert_eq!(records.len(), 1);
            sealed.push((Record::from_bytes(&records[0]).unwrap(), "server to client"));
        }
        // Six client batches and singles; eleven server seals and pings
        // less the two refused after client 2's Disconnect.
        assert_eq!(sealed.len(), 6 + 9);
        // In clear under the integrity-only suite only.
        let in_clear = sealed
            .iter()
            .any(|(r, _)| r.payload.windows(12).any(|w| w == b"egress round"));
        assert_eq!(in_clear, schedule.isp, "{}", schedule.name);
        let mut seen = HashSet::new();
        for (record, direction) in &sealed {
            assert!(
                seen.insert((record.session_id, *direction, record.packet_id)),
                "{}: nonce repeated: session {} {direction} packet id {}",
                schedule.name,
                record.session_id,
                record.packet_id
            );
        }
    }
}

/// A remap to a shard index that is no longer live (stale after a
/// shrink) panics loudly instead of wrapping to `5 % 2 == 1`, a shard the
/// caller never named.
#[test]
#[should_panic(expected = "is not live")]
fn remap_rx_peer_rejects_stale_shard_index() {
    let mut scenario = Scenario::enterprise(1, UseCase::Nop)
        .seed(0xe1c1)
        .build_sharded(4)
        .unwrap();
    scenario.server.resize(2);
    scenario.server.remap_peer(0, 5);
}

/// A shrink with a record head in flight, against a twin scenario that
/// never resizes: exactly the parked partial of the moved peer drains
/// (counted in [`ResizeStats`]), reinstalls at its home under the new
/// count, and the tail completes the record to the **same** outcome as
/// the twin.
#[test]
fn shrink_drains_inflight_partial_and_preserves_outcome() {
    let build = || {
        Scenario::enterprise(2, UseCase::Nop)
            .seed(0xe1c2)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap()
    };
    // Peer 1 lives on shard 1 of 2; the shrink to one shard retires it,
    // so the peer moves to shard 0 — partial and all. The tail then
    // completes the record there.
    assert_relocation_keeps_partial(build, 1, |resized| {
        let (moved, drained) = resized.server.resize(1);
        assert_eq!(moved, 1, "only peer 1 lived on the retiring shard");
        assert_eq!(drained, 1, "the parked partial must move with its peer");
        let stats = resized.server.resize_stats();
        assert_eq!(stats.shrinks, 1);
        assert_eq!(stats.grows, 0);
        assert_eq!(stats.partials_drained, 1);
        assert_eq!(stats.peers_moved, moved as u64);
    });
}

/// Shard elasticity bookkeeping: a shrink moves every session off the
/// retiring shards with its peer (counted in
/// [`ResizeStats::sessions_moved`]), a grow spawns fresh shards that
/// already carry the live config policy, and traffic flows identically
/// before and after both.
#[test]
fn worker_resize_migrates_sessions_and_keeps_serving() {
    let mut scenario: ShardedScenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1c3)
        .async_ingress(true)
        .build_sharded(4)
        .unwrap();

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, "elastic", client, 2, 0);
    }
    pump_until(&mut scenario, sent);

    // 4 peers, each with its bound session, on 4 shards; shrinking to 1
    // retires three shards and every peer and session on them must move.
    let (moved, _) = scenario.server.resize(1);
    assert_eq!(moved, 3, "three of four shards retire");
    let stats = scenario.server.resize_stats();
    assert_eq!(stats.shrinks, 1);
    assert_eq!(stats.grows, 0);
    assert_eq!(
        stats.sessions_moved, 3,
        "each moved peer carries its session"
    );

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, "elastic", client, 2, 1);
    }
    pump_until(&mut scenario, sent);

    // Grow back: fresh shards, nothing needs to move for a grow.
    let (moved, _) = scenario.server.resize(8);
    assert_eq!(moved, 0, "a grow retires nothing: moved {moved}");
    assert_eq!(scenario.server.resize_stats().grows, 1);

    let mut sent = 0;
    for client in 0..4 {
        sent += send_records(&mut scenario, "elastic", client, 2, 2);
    }
    let outs = pump_until(&mut scenario, sent);
    assert_eq!(outs.len(), sent);
}

/// The resize law end to end ([`ScenarioBuilder::elastic`]): a sustained
/// flood pushes the demand EWMAs past the grow hysteresis and the pool
/// grows; sustained idleness decays them back and — after the cooldown —
/// the server shrinks to one shard again.
///
/// [`ScenarioBuilder::elastic`]: endbox::scenario::ScenarioBuilder::elastic
#[test]
fn elastic_law_grows_under_flood_and_shrinks_when_idle() {
    let mut scenario: ShardedScenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1c4)
        .elastic(true)
        .build_sharded(1)
        .unwrap();
    assert_eq!(scenario.server.shard_count(), 1);

    // Flood until the grow fires (hysteresis needs a few consecutive
    // over-demand control rounds; each flood/pump cycle provides them).
    let mut round = 0;
    while scenario.server.resize_stats().grows == 0 && round < 12 {
        let mut sent = 0;
        for client in 0..4 {
            sent += send_records(&mut scenario, "elastic", client, 75, round);
        }
        let outs = pump_until(&mut scenario, sent);
        assert_eq!(outs.len(), sent, "no datagram may be lost across a grow");
        round += 1;
    }
    let grown = scenario.server.resize_stats();
    assert!(grown.grows >= 1, "the flood never fired a grow: {grown:?}");
    assert!(
        scenario.server.shard_count() > 1,
        "a grow must actually add shards"
    );

    // Idle rounds decay the EWMAs; after the cooldown plus the shrink
    // hysteresis the server falls back to one shard.
    for _ in 0..60 {
        scenario.pump_async();
    }
    let shrunk = scenario.server.resize_stats();
    assert!(
        shrunk.shrinks >= 1,
        "sustained idleness never fired a shrink: {shrunk:?}"
    );
    assert_eq!(
        scenario.server.shard_count(),
        1,
        "idle demand must shrink back to the floor"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes index tuples into a schedule mixing every existing step
    /// class with [`Step::Resize`] (kinds 7 and 8): grows and shrinks
    /// land at arbitrary positions between batches, splits, replays,
    /// disconnects, egress seals (kinds 9 and 10) and flush boundaries.
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
            schedule = schedule.step(match kind % 11 {
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
                9 => Step::Egress {
                    client,
                    n_packets: 1 + n % 4,
                },
                10 => Step::ServerPing { client },
                _ => Step::Resize {
                    shards: 1 + (n * 3) % 8,
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
        /// move.
        #[test]
        fn resize_interleavings_preserve_parity_and_reconcile(
            n_clients in 2usize..4,
            seed in 0u64..1_000,
            collide in proptest::any::<bool>(),
            raw in prop::collection::vec((0usize..11, 0usize..4, 0usize..8), 4..10),
        ) {
            let schedule = to_schedule(&raw, n_clients, collide, seed);
            let resizes = resize_steps(&schedule);
            let (reference, _) = run(&schedule, Geometry::Reference, &RunCfg::call());
            for shards in [1, 2, 8] {
                let (outs, moves) = run(&schedule, shards, &RunCfg::call());
                let stats = moves.resize;
                prop_assert_eq!(
                    &outs, &reference,
                    "call-driven divergence at C={}",
                    shards
                );
                prop_assert!(
                    stats.grows + stats.shrinks <= resizes,
                    "more resizes than steps: {:?} vs {} steps", stats, resizes
                );
                if resizes == 0 {
                    prop_assert_eq!(stats, ResizeStats::default());
                }
                let (outs, _) = run(&schedule, shards, &RunCfg::event_loop());
                prop_assert_eq!(
                    &outs, &reference,
                    "event-driven divergence at C={}",
                    shards
                );
            }
        }
    }
}

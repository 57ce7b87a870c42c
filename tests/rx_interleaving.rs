//! Deterministic interleaving/fault tests for the sharded RX front-end
//! (`RxShardPool`, `peer_id mod K`).
//!
//! Every test replays a named [`support::Schedule`] — an explicit
//! description of one interleaving class (input order, batch boundaries,
//! chosen `peer_id`s, partial-datagram splits, per-shard stalls) —
//! through the single-threaded reference server and the sharded server
//! across the `(rx_shards, workers)` grid, asserting
//! byte-identical outcomes. The re-merge makes the result independent of
//! the actual thread schedule; the stalls force the adversarial arrival
//! orders to really occur, so nothing here is a timing accident.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::server::Delivery;
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;
use support::{
    assert_parity, full_grid, simplify, split_raw, Out, PeerMap, RunCfg, Schedule, Step,
};

/// `grid` through direct `receive_datagrams` calls.
fn assert_parity_call(schedule: &Schedule, grid: &[(usize, usize)]) {
    assert_parity(schedule, grid, &[RunCfg::call()]);
}

/// A successful Disconnect pauses only its owning RX shard; stalling that
/// shard makes every other shard's events reach the re-merge first, so
/// the front-end must hold them while the Disconnect verdict round-trips
/// across the pipeline boundary — with the peer's next record (split so a
/// fragment lands inside a fresh reassembler) and a failed replayed
/// Disconnect behind it.
#[test]
fn rx_schedule_disconnect_races_slow_owning_shard() {
    let schedule = Schedule::new("disconnect-races-slow-owning-shard", 2, 0xeb90)
        .stall(0, 400) // peer 0's shard (for every K in the grid) frames slowly
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Disconnect { client: 0 })
        .step(Step::Replay) // replayed Disconnect: session unknown now -> must NOT tear down
        .step(Step::SplitRecord {
            client: 0,
            payload_len: 220,
            splits: vec![3, 40], // first cut inside the record header
        })
        .step(Step::Single { client: 1 })
        .step(Step::Flush)
        .step(Step::Single { client: 1 });
    assert_parity_call(&schedule, &full_grid());
}

/// The mirror image: the *sibling* shard is slow, so the Disconnect
/// verdict is ready long before the other peers' events arrive and the
/// re-merge buffer holds completed later-index events instead.
#[test]
fn rx_schedule_disconnect_with_slow_sibling_shard() {
    let schedule = Schedule::new("disconnect-with-slow-sibling-shard", 3, 0xeb91)
        .stall(1, 400)
        .step(Step::Single { client: 1 })
        .step(Step::Disconnect { client: 0 })
        .step(Step::Batch {
            client: 2,
            n_packets: 4,
        })
        .step(Step::SplitRecord {
            client: 1,
            payload_len: 150,
            splits: vec![1], // 1-byte first fragment
        })
        .step(Step::Ping { client: 2 });
    assert_parity_call(&schedule, &full_grid());
}

/// All peers collide on RX shard 0 via chosen `peer_id`s (stride 4 is
/// divisible by every K in the grid): sharding buys nothing, but the
/// collided shard must still sequence every peer exactly like the single
/// RX thread — including a Disconnect pause in the middle of the
/// collided stream.
#[test]
fn rx_schedule_all_peers_collide_on_one_shard() {
    let schedule = Schedule::new("all-peers-collide", 3, 0xeb92)
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
    assert_parity_call(&schedule, &full_grid());
}

/// A split record's tail straddles both a `Flush` boundary and the
/// RX_DISPATCH_CHUNK cut: the head fragments arrive in one
/// `receive_datagrams` batch, 40 complete records from other peers force
/// chunked dispatches, and only then does the tail complete the record —
/// which the session layer rejects identically on both servers (crafted
/// payload, live session).
#[test]
fn rx_schedule_split_straddles_dispatch_and_flush_boundaries() {
    let mut schedule = Schedule::new("split-straddles-boundaries", 2, 0xeb93)
        .stall(0, 150)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 300,
            splits: vec![5, 9, 120],
            tag: 1,
            lo: 0,
            hi: 2,
        })
        .step(Step::Flush);
    for _ in 0..40 {
        schedule = schedule.step(Step::Single { client: 1 });
    }
    schedule = schedule
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 300,
            splits: vec![5, 9, 120],
            tag: 1,
            lo: 2,
            hi: 4,
        })
        .step(Step::Single { client: 1 });
    assert_parity_call(&schedule, &full_grid());
}

/// Interleaved tiny datagrams: every record of every peer is split to
/// single-digit fragment sizes (including 1-byte splits), peers
/// alternating datagram-by-datagram across batch boundaries.
#[test]
fn rx_schedule_interleaved_tiny_datagrams() {
    let mut schedule = Schedule::new("interleaved-tiny-datagrams", 2, 0xeb94).stall(1, 100);
    for i in 0..6 {
        schedule = schedule
            .step(Step::SplitRecord {
                client: i % 2,
                payload_len: 24,
                splits: (1..40).collect(), // 1-byte fragments through header and body
            })
            .step(Step::Single {
                client: (i + 1) % 2,
            });
        if i % 3 == 2 {
            schedule = schedule.step(Step::Flush);
        }
    }
    assert_parity_call(&schedule, &full_grid());
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn to_schedule(
        raw: &[(usize, usize, usize)],
        n_clients: usize,
        collide: bool,
        seed: u64,
    ) -> Schedule {
        let mut schedule =
            Schedule::new("proptest-schedule", n_clients, 0xeb50 + seed).peers(if collide {
                PeerMap::Stride(4)
            } else {
                PeerMap::Identity
            });
        // A deterministic stall profile derived from the seed keeps the
        // cross-shard arrival order adversarial without flaking.
        schedule = schedule.stall((seed % 4) as usize, 120);
        for &(kind, client, n) in raw {
            let client = client % n_clients;
            schedule = schedule.step(match kind % 8 {
                0 | 1 => Step::Batch {
                    client,
                    n_packets: 1 + n % 6,
                },
                2 => Step::Single { client },
                3 => Step::Ping { client },
                4 => Step::Replay,
                5 => Step::SplitRecord {
                    client,
                    payload_len: 16 + n * 13,
                    splits: vec![1 + n, 7 + n * 3, 60],
                },
                6 => Step::Flush,
                _ => Step::Disconnect { client },
            });
        }
        schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Proptest-generated schedules (batches, singles, pings,
        /// replays, disconnects, arbitrary splits, flush boundaries,
        /// colliding or spread peer maps) are byte-identical to the
        /// single-threaded server over the FULL
        /// (rx_shards × workers) grid.
        #[test]
        fn generated_schedules_match_single_server_on_full_grid(
            n_clients in 2usize..4,
            seed in 0u64..1_000,
            collide in proptest::any::<bool>(),
            raw in prop::collection::vec((0usize..8, 0usize..4, 0usize..8), 3..9),
        ) {
            let schedule = to_schedule(&raw, n_clients, collide, seed);
            assert_parity_call(&schedule, &full_grid());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Reassembly fuzz: a real sealed record, re-split at arbitrary
        /// byte offsets (1-byte fragments, cuts inside the record header,
        /// anything), fed through the sharded RX path must yield exactly
        /// the records the unsplit stream yields on the single-threaded
        /// `VpnServer` path.
        #[test]
        fn arbitrary_split_points_match_unsplit_stream(
            seed in 0u64..1_000,
            n_packets in 1usize..5,
            raw_splits in prop::collection::vec(1usize..900, 0..14),
        ) {
            let payloads: Vec<Vec<u8>> = (0..n_packets)
                .map(|i| format!("fuzz {seed} packet {i}").into_bytes())
                .collect();
            let mk_packets = |idx: usize| -> Vec<Packet> {
                payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        Packet::tcp(
                            Scenario::client_addr(idx),
                            Scenario::network_addr(),
                            42_000,
                            5_001,
                            i as u32,
                            p,
                        )
                    })
                    .collect()
            };

            // Reference: the unsplit datagrams through the single server.
            let mut single = Scenario::enterprise(1, UseCase::Nop)
                .seed(0xeb60 + seed)
                .build()
                .unwrap();
            let unsplit = single.clients[0].send_batch(mk_packets(0)).unwrap();
            let reference_np: Vec<Out> = unsplit
                .iter()
                .map(|d| simplify(single.server.receive_datagram(0, d)))
                .filter(|o| *o != Out::Pending)
                .collect();

            for rx_shards in [1usize, 2, 4] {
                let mut sharded = Scenario::enterprise(1, UseCase::Nop)
                    .seed(0xeb60 + seed)
                    .rx_shards(rx_shards)
                    .build_sharded(rx_shards) // workers vary with the RX grid
                    .unwrap();
                // Identical key material -> identical record bytes; recover
                // them from the client's own fragments, then re-split at
                // the fuzzed offsets.
                let datagrams = sharded.clients[0].send_batch(mk_packets(0)).unwrap();
                let mut reasm = endbox_vpn::frag::Reassembler::new();
                let mut record_bytes = None;
                for d in &datagrams {
                    if let Some(bytes) = reasm.push(d).unwrap() {
                        record_bytes = Some(bytes);
                    }
                }
                let record_bytes = record_bytes.expect("one full record");
                let frags = split_raw(&record_bytes, &raw_splits, 0xF00D_0001);
                let got: Vec<Out> = sharded
                    .server
                    .receive_datagrams(frags.into_iter().map(|d| (0u64, d)).collect())
                    .into_iter()
                    .map(simplify)
                    .collect();
                // Fragment counts differ, so Pending verdicts differ; the
                // *records* (non-pending outcomes) must be identical.
                let got_np: Vec<Out> =
                    got.into_iter().filter(|o| *o != Out::Pending).collect();
                prop_assert_eq!(&got_np, &reference_np, "rx_shards={} diverged", rx_shards);
            }
        }
    }
}

/// Mixed singular (`receive_datagram`) and batch (`receive_datagrams`)
/// calls route through the same RX shard pool and must preserve per-peer
/// order — a multi-fragment record fed fragment-by-fragment across
/// call-style boundaries completes exactly like on the single server.
#[test]
fn mixed_singular_and_batch_calls_preserve_per_peer_order() {
    let seed = 0xeb95;
    let payloads: Vec<Vec<u8>> = (0..24).map(|i| vec![0x55u8; 1_200 + i]).collect();
    let packets = |idx: usize| -> Vec<Packet> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Packet::tcp(
                    Scenario::client_addr(idx),
                    Scenario::network_addr(),
                    43_000,
                    5_001,
                    i as u32,
                    p,
                )
            })
            .collect()
    };

    let mut single = Scenario::enterprise(2, UseCase::Nop)
        .seed(seed)
        .build()
        .unwrap();
    let d0 = single.clients[0].send_batch(packets(0)).unwrap();
    let d1 = single.clients[1].send_batch(packets(1)).unwrap();
    assert!(
        d0.len() >= 3,
        "record must fragment: {} datagrams",
        d0.len()
    );
    let mut reference = Vec::new();
    // Interleave peers datagram-by-datagram, like the sharded run below.
    let mut interleaved: Vec<(u64, Vec<u8>)> = Vec::new();
    let (mut i0, mut i1) = (0usize, 0usize);
    while i0 < d0.len() || i1 < d1.len() {
        if i0 < d0.len() {
            interleaved.push((0, d0[i0].clone()));
            i0 += 1;
        }
        if i1 < d1.len() {
            interleaved.push((1, d1[i1].clone()));
            i1 += 1;
        }
    }
    for (peer, d) in &interleaved {
        reference.push(simplify(single.server.receive_datagram(*peer, d)));
    }

    for rx_shards in [1usize, 2, 4] {
        let mut sharded = Scenario::enterprise(2, UseCase::Nop)
            .seed(seed)
            .rx_shards(rx_shards)
            .build_sharded(4)
            .unwrap();
        let d0 = sharded.clients[0].send_batch(packets(0)).unwrap();
        let d1 = sharded.clients[1].send_batch(packets(1)).unwrap();
        let mut interleaved: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut i0, mut i1) = (0usize, 0usize);
        while i0 < d0.len() || i1 < d1.len() {
            if i0 < d0.len() {
                interleaved.push((0, d0[i0].clone()));
                i0 += 1;
            }
            if i1 < d1.len() {
                interleaved.push((1, d1[i1].clone()));
                i1 += 1;
            }
        }
        // Alternate call styles: singular, then a batch of three, then
        // singular again, … — per-peer fragment order must survive the
        // mix because both styles feed the same pool.
        let mut got = Vec::new();
        let mut queue = interleaved
            .into_iter()
            .collect::<std::collections::VecDeque<_>>();
        let mut batch_turn = false;
        while let Some((peer, d)) = queue.pop_front() {
            if batch_turn {
                let mut batch = vec![(peer, d)];
                for _ in 0..2 {
                    if let Some(next) = queue.pop_front() {
                        batch.push(next);
                    }
                }
                got.extend(
                    sharded
                        .server
                        .receive_datagrams(batch)
                        .into_iter()
                        .map(simplify),
                );
            } else {
                got.push(simplify(sharded.server.receive_datagram(peer, &d)));
            }
            batch_turn = !batch_turn;
        }
        assert_eq!(got, reference, "rx_shards={rx_shards}");
    }
}

/// The RX shard pool's per-shard counters must reconcile with the
/// front-end re-merge totals, and reassembly state must sit exactly on
/// the owning shard.
#[test]
fn rx_shard_stats_reconcile_with_frontend_totals() {
    let mut s = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xeb96)
        .rx_shards(4)
        .build_sharded(2)
        .unwrap();

    // A few full batches from every client...
    let payloads: Vec<Vec<Vec<u8>>> = (0..4)
        .map(|c| {
            (0..3)
                .map(|i| format!("stats {c} {i}").into_bytes())
                .collect()
        })
        .collect();
    s.send_batches_from_all(&payloads).unwrap();

    // ...a crafted disconnect for client 3 (pauses RX shard 3)...
    let sid = s.session_id(3);
    let disconnect = endbox_vpn::proto::Record {
        opcode: endbox_vpn::proto::Opcode::Disconnect,
        session_id: sid,
        packet_id: 0,
        payload: vec![],
    };
    let frags = support::split_raw(&disconnect.to_bytes(), &[], 0xBEEF_0001);
    let mut total_datagrams = 4u64; // one record datagram per client above
    for d in frags {
        total_datagrams += 1;
        let r = s.server.receive_datagram(3, &d).unwrap();
        assert!(matches!(r, Delivery::Disconnected { .. }));
    }

    // ...and a dangling partial record from client 1 (held on shard 1).
    let partial = endbox_vpn::proto::Record {
        opcode: endbox_vpn::proto::Opcode::Data,
        session_id: s.session_id(1),
        packet_id: 99,
        payload: vec![0xee; 300],
    };
    let frags = support::split_raw(&partial.to_bytes(), &[40, 200], 0xBEEF_0002);
    let held_bytes: usize = frags[..2].iter().map(|d| d.len() - 8).sum();
    for d in &frags[..2] {
        total_datagrams += 1;
        assert!(matches!(
            s.server.receive_datagram(1, d).unwrap(),
            Delivery::Pending
        ));
    }

    let stats = s.server.rx_shard_stats();
    assert_eq!(stats.len(), 4);
    let (merged, verdicts) = s.server.rx_merge_counters();

    // Counter reconciliation: per-shard sums == front-end totals. (The
    // handshake ran through the pool too, so compare against the
    // front-end's own totals rather than re-deriving from the script.)
    let framed: u64 = stats.iter().map(|st| st.records_framed).sum();
    let pauses: u64 = stats.iter().map(|st| st.disconnect_pauses).sum();
    let datagrams: u64 = stats.iter().map(|st| st.datagrams).sum();
    assert_eq!(framed, merged, "framed records must reconcile: {stats:?}");
    assert_eq!(pauses, verdicts, "disconnect pauses must reconcile");
    assert_eq!(verdicts, 1, "exactly one disconnect verdict was issued");
    assert!(
        datagrams >= total_datagrams,
        "shards saw every datagram (incl. handshakes): {datagrams} < {total_datagrams}"
    );

    // Placement: the partial record is pinned to peer 1's shard (1 mod 4),
    // byte-for-byte; every other shard holds nothing.
    for (shard, st) in stats.iter().enumerate() {
        if shard == 1 {
            assert_eq!(st.pending_records, 1, "shard 1 holds the partial");
            assert_eq!(
                st.reassembly_bytes_held, held_bytes,
                "held bytes must match the two buffered fragments"
            );
        } else {
            assert_eq!(st.pending_records, 0, "shard {shard} must hold nothing");
            assert_eq!(st.reassembly_bytes_held, 0);
        }
        // Peer i (i = client idx) lands on shard i for K=4.
        assert_eq!(
            st.peers,
            if shard == 3 { 0 } else { 1 },
            "shard {shard}: disconnect tore down peer 3's reassembler only"
        );
    }

    // The pool keeps working after the stats round-trip.
    let delivered = s.send_batches_from_all(&payloads[..3]).unwrap();
    assert_eq!(delivered.len(), 3);
}

/// The full-grid comprehensive schedule: a little of everything, checked
/// over every `(rx, workers)` pair on a reduced step budget (the
/// acceptance grid for the named tests above runs per-class).
#[test]
fn rx_schedule_kitchen_sink_on_reduced_grid() {
    let schedule = Schedule::new("kitchen-sink", 3, 0xeb97)
        .peers(PeerMap::Identity)
        .stall(2, 200)
        .step(Step::Batch {
            client: 0,
            n_packets: 5,
        })
        .step(Step::SplitRecord {
            client: 1,
            payload_len: 180,
            splits: vec![2, 90],
        })
        .step(Step::Replay)
        .step(Step::Flush)
        .step(Step::Disconnect { client: 1 })
        .step(Step::Replay)
        .step(Step::Ping { client: 2 })
        .step(Step::Single { client: 0 })
        .step(Step::Flush)
        .step(Step::Batch {
            client: 2,
            n_packets: 2,
        });
    assert_parity_call(&schedule, &[(1, 1), (2, 8), (4, 2), (4, 4)]);
}

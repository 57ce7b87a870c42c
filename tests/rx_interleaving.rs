//! Deterministic interleaving/fault tests for the sharded server's
//! run-to-completion shards (`peer_id mod C`).
//!
//! Every test replays a named [`support::Schedule`] — an explicit
//! description of one interleaving class (input order, batch boundaries,
//! chosen `peer_id`s, partial-datagram splits, per-shard stalls) —
//! through the single-threaded reference server and the sharded server
//! across the shard grid `C ∈ {1, 2, 4, 8}`, asserting byte-identical
//! outcomes. The re-merge and the input-order escalations make the
//! result independent of the actual thread schedule; the stalls force
//! the adversarial reply orders to really occur, so nothing here is a
//! timing accident.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::server::Delivery;
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;
use support::{
    assert_parity, generated_schedule, simplify, split_raw, Out, PeerMap, RunCfg, Schedule, Step,
    GRID,
};

/// `grid` through direct `receive_datagrams` calls.
fn assert_parity_call(schedule: &Schedule, grid: &[usize]) {
    assert_parity(schedule, grid, &[RunCfg::call()]);
}

/// A successful Disconnect is decided, and its reassembler torn down, on
/// the owning shard; stalling that shard makes every other shard's
/// replies reach the re-merge first — with the peer's next record (split
/// so a fragment lands inside a fresh reassembler) and a failed replayed
/// Disconnect behind it.
#[test]
fn rx_schedule_disconnect_races_slow_owning_shard() {
    let schedule = Schedule::new("disconnect-races-slow-owning-shard", 2, 0xeb90)
        .stall(0, 400) // peer 0's shard (for every C in the grid) works slowly
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
    assert_parity_call(&schedule, &GRID);
}

/// The mirror image: the *sibling* shard is slow, so the Disconnect's
/// shard replies long before the other peers' outcomes arrive.
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
    assert_parity_call(&schedule, &GRID);
}

/// All peers collide on shard 0 via chosen `peer_id`s (stride 4 is
/// divisible by C ≤ 4): sharding buys nothing, but the collided shard
/// must still sequence every peer exactly like the single thread —
/// including a Disconnect in the middle of the collided stream.
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
    assert_parity_call(&schedule, &GRID);
}

/// A split record's tail straddles a `Flush` boundary and a long run of
/// other traffic: the head fragments arrive in one `receive_datagrams`
/// batch, 40 complete records from another peer follow, and only then
/// does the tail complete the record — which the session layer rejects
/// identically on both servers (crafted payload, live session).
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
    assert_parity_call(&schedule, &GRID);
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
    assert_parity_call(&schedule, &GRID);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Proptest-generated schedules (batches, singles, pings,
        /// replays, disconnects, arbitrary splits, flush boundaries,
        /// colliding or spread peer maps) are byte-identical to the
        /// single-threaded server over the full shard grid.
        #[test]
        fn generated_schedules_match_single_server_on_full_grid(
            n_clients in 2usize..4,
            seed in 0u64..1_000,
            collide in proptest::any::<bool>(),
            raw in prop::collection::vec((0usize..8, 0usize..4, 0usize..8), 3..9),
        ) {
            let schedule =
                generated_schedule("proptest-schedule", &raw, n_clients, collide, 0xeb50 + seed);
            assert_parity_call(&schedule, &GRID);
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

            for shards in GRID {
                let mut sharded = Scenario::enterprise(1, UseCase::Nop)
                    .seed(0xeb60 + seed)
                    .build_sharded(shards)
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
                prop_assert_eq!(&got_np, &reference_np, "C={} diverged", shards);
            }
        }
    }
}

/// Mixed singular (`receive_datagram`) and batch (`receive_datagrams`)
/// calls route through the same shards and must preserve per-peer order — a multi-fragment record fed fragment-by-fragment across
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

    // Both clients' records, interleaved datagram-by-datagram.
    let interleave = |d0: Vec<Vec<u8>>, d1: Vec<Vec<u8>>| -> Vec<(u64, Vec<u8>)> {
        assert!(
            d0.len() >= 3,
            "record must fragment: {} datagrams",
            d0.len()
        );
        let mut interleaved = Vec::new();
        for i in 0..d0.len().max(d1.len()) {
            if let Some(d) = d0.get(i) {
                interleaved.push((0, d.clone()));
            }
            if let Some(d) = d1.get(i) {
                interleaved.push((1, d.clone()));
            }
        }
        interleaved
    };

    let mut single = Scenario::enterprise(2, UseCase::Nop)
        .seed(seed)
        .build()
        .unwrap();
    let d0 = single.clients[0].send_batch(packets(0)).unwrap();
    let d1 = single.clients[1].send_batch(packets(1)).unwrap();
    let reference: Vec<Out> = single
        .server
        .receive_datagrams(interleave(d0, d1))
        .into_iter()
        .map(simplify)
        .collect();

    for shards in GRID {
        let mut sharded = Scenario::enterprise(2, UseCase::Nop)
            .seed(seed)
            .build_sharded(shards)
            .unwrap();
        let d0 = sharded.clients[0].send_batch(packets(0)).unwrap();
        let d1 = sharded.clients[1].send_batch(packets(1)).unwrap();
        let interleaved = interleave(d0, d1);
        // Alternate call styles: singular, then a batch of three, then
        // singular again, … — per-peer fragment order must survive the
        // mix because both styles feed the same shards.
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
        assert_eq!(got, reference, "C={shards}");
    }
}

/// The shards' counters must reconcile with the front-end re-merge
/// totals, and peer and session state must sit exactly on the owning
/// shard.
#[test]
fn rx_shard_stats_reconcile_with_frontend_totals() {
    let mut s = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xeb96)
        .build_sharded(4)
        .unwrap();

    // A few full batches from every client (each first record binds its
    // session to the client's peer)...
    let payloads: Vec<Vec<Vec<u8>>> = (0..4)
        .map(|c| {
            (0..3)
                .map(|i| format!("stats {c} {i}").into_bytes())
                .collect()
        })
        .collect();
    s.send_batches_from_all(&payloads).unwrap();

    // ...a crafted disconnect for client 3 (decided on shard 3)...
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

    let stats = s.server.shard_stats();
    assert_eq!(stats.len(), 4);
    let (merged, resolved) = s.server.rx_merge_counters();

    // Counter reconciliation: per-shard sums == front-end totals. (The
    // handshakes ran through the shards too, so compare against the
    // front-end's own totals rather than re-deriving from the script.)
    let framed: u64 = stats.iter().map(|st| st.records_framed).sum();
    let escalated: u64 = stats.iter().map(|st| st.escalations).sum();
    let datagrams: u64 = stats.iter().map(|st| st.datagrams).sum();
    assert_eq!(framed, merged, "framed records must reconcile: {stats:?}");
    assert_eq!(escalated, resolved, "escalations must reconcile");
    assert_eq!(
        resolved, 8,
        "four handshakes and four first records, nothing after binding"
    );
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
        // Peer i (i = client idx) lands on shard i for C=4, and so does
        // its session.
        let live = usize::from(shard != 3);
        assert_eq!(
            (st.peers, st.sessions),
            (live, live),
            "shard {shard}: the disconnect tore down peer 3 and its session only"
        );
    }

    // A record for a session no shard holds and no handshake could issue
    // is refused on its shard, without a front-end trip.
    let bogus = endbox_vpn::proto::Record {
        opcode: endbox_vpn::proto::Opcode::Data,
        session_id: 999,
        packet_id: 1,
        payload: vec![0xee; 40],
    };
    let d = support::split_raw(&bogus.to_bytes(), &[], 0xBEEF_0003);
    assert_eq!(
        s.server.receive_datagram(0, &d[0]).unwrap_err(),
        endbox::EndBoxError::Vpn(endbox_vpn::VpnError::UnknownSession(999))
    );
    assert_eq!(s.server.rx_merge_counters().1, resolved, "no escalation");

    // The shards keep working after the stats round-trip.
    let delivered = s.send_batches_from_all(&payloads[..3]).unwrap();
    assert_eq!(delivered.len(), 3);
}

/// The comprehensive schedule: a little of everything, in one schedule,
/// over the shard grid.
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
    assert_parity_call(&schedule, &GRID);
}

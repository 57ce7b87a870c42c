//! Shard determinism: a sharded server with N ∈ {1, 2, 4, 8} workers must
//! be observationally equivalent to the single-threaded server on
//! interleaved multi-client traffic — byte-identical per-client
//! emissions, identical drop/replay verdicts, identical session state —
//! for any thread schedule, across the dispatcher's session migrations
//! and with the pipelined RX front-end in between.
//!
//! Both servers are driven with byte-identical wire traffic: scenarios
//! built from the same seed produce identical client key material, so
//! replaying the same (client, action) script through each scenario's own
//! clients yields the same datagrams bit for bit.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::use_cases::UseCase;
use endbox::EndBoxClient;
use endbox_netsim::Packet;

/// `(workers, rx_shards)` pairs the named parity tests run: every worker
/// count, with the RX pool width varied alongside (the full
/// rx × workers cross-product runs in `tests/rx_interleaving.rs` and the
/// proptests below).
const PARITY_GRID: [(usize, usize); 4] = [(1, 4), (2, 2), (4, 1), (8, 4)];

/// One step of the traffic script.
#[derive(Debug, Clone)]
enum Action {
    /// `client` seals a batch of `n_packets` payloads.
    SendBatch { client: usize, n_packets: usize },
    /// `client` seals a single data record.
    SendSingle { client: usize },
    /// `client` sends a config-version ping.
    Ping { client: usize },
    /// Re-send every datagram of the previous round (replay attack).
    Replay,
}

// The per-delivery view both servers must agree on lives in the shared
// harness, so this file and the schedule-based tests compare the same
// thing.
use support::{simplify, Out};

/// Builds the wire datagrams for one action using the given scenario's
/// own clients (deterministic: both scenarios produce identical bytes).
fn seal_action(
    clients: &mut [EndBoxClient],
    action: &Action,
    round: usize,
    prev_round: &[(u64, Vec<u8>)],
) -> Vec<(u64, Vec<u8>)> {
    let payload = |client: usize, i: usize| {
        format!(
            "round {round} client {client} packet {i} {}",
            "x".repeat(round % 37)
        )
        .into_bytes()
    };
    let mk_packet = |client: usize, i: usize| {
        Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            40_000 + client as u16,
            5_001,
            i as u32,
            &payload(client, i),
        )
    };
    match action {
        Action::SendBatch { client, n_packets } => {
            let packets: Vec<Packet> = (0..*n_packets).map(|i| mk_packet(*client, i)).collect();
            clients[*client]
                .send_batch(packets)
                .unwrap()
                .into_iter()
                .map(|d| (*client as u64, d))
                .collect()
        }
        Action::SendSingle { client } => clients[*client]
            .send_packet(mk_packet(*client, 0))
            .unwrap()
            .into_iter()
            .map(|d| (*client as u64, d))
            .collect(),
        Action::Ping { client } => clients[*client]
            .build_ping()
            .unwrap()
            .into_iter()
            .map(|d| (*client as u64, d))
            .collect(),
        Action::Replay => prev_round.to_vec(),
    }
}

/// Drives the script through a single-threaded scenario, one datagram at
/// a time (the reference behaviour).
fn run_single(scenario: &mut Scenario, script: &[Action]) -> Vec<Out> {
    let mut outs = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    for (round, action) in script.iter().enumerate() {
        let datagrams = seal_action(&mut scenario.clients, action, round, &prev);
        for (peer, d) in &datagrams {
            outs.push(simplify(scenario.server.receive_datagram(*peer, d)));
        }
        prev = datagrams;
    }
    outs
}

/// Drives the same script through a sharded scenario; each round's
/// datagrams go through the server as **one** pipelined multi-client
/// dispatch (ownership moves into the RX stage).
fn run_sharded(scenario: &mut ShardedScenario, script: &[Action]) -> Vec<Out> {
    let mut outs = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    for (round, action) in script.iter().enumerate() {
        let datagrams = seal_action(&mut scenario.clients, action, round, &prev);
        outs.extend(
            scenario
                .server
                .receive_datagrams(datagrams.clone())
                .into_iter()
                .map(simplify),
        );
        prev = datagrams;
    }
    outs
}

/// Asserts parity for every worker count; returns the total migrations
/// the dispatcher performed across all worker counts.
fn assert_parity(n_clients: usize, use_case: UseCase, seed: u64, script: &[Action]) -> u64 {
    let mut single = Scenario::enterprise(n_clients, use_case)
        .seed(seed)
        .build()
        .unwrap();
    let reference = run_single(&mut single, script);
    let mut migrations = 0;
    for (workers, rx_shards) in PARITY_GRID {
        let mut sharded = Scenario::enterprise(n_clients, use_case)
            .seed(seed)
            .rx_shards(rx_shards)
            .build_sharded(workers)
            .unwrap();
        let got = run_sharded(&mut sharded, script);
        assert_eq!(
            got, reference,
            "N={workers} workers, K={rx_shards} RX shards diverged from the \
             single-threaded server (clients={n_clients}, seed={seed})"
        );
        // Session state agrees too.
        assert_eq!(sharded.server.session_ids(), single.server.session_ids());
        for idx in 0..n_clients {
            assert_eq!(
                sharded
                    .server
                    .client_config_version(sharded.session_id(idx)),
                single.server.client_config_version(single.session_id(idx)),
                "reported config version diverged for client {idx}"
            );
        }
        assert_eq!(sharded.server.counters(), single.server.counters());
        migrations += sharded.server.migrations();
    }
    migrations
}

#[test]
fn interleaved_batches_with_replays_match_single_server() {
    let script = vec![
        Action::SendBatch {
            client: 0,
            n_packets: 4,
        },
        Action::SendBatch {
            client: 1,
            n_packets: 3,
        },
        Action::Replay, // both batches replayed -> Replay verdicts
        Action::SendSingle { client: 2 },
        Action::SendBatch {
            client: 2,
            n_packets: 8,
        },
        Action::Ping { client: 0 },
        Action::SendBatch {
            client: 0,
            n_packets: 1,
        },
        Action::Replay,
    ];
    assert_parity(3, UseCase::Firewall, 0xeb01, &script);
}

#[test]
fn config_grace_period_verdicts_match_single_server() {
    // Announce a new config on both servers, then send stale traffic:
    // the StaleConfiguration verdicts (and the recovery after a ping)
    // must agree shard-for-shard.
    let n_clients = 2;
    let mut single = Scenario::enterprise(n_clients, UseCase::Nop)
        .seed(7)
        .build()
        .unwrap();
    for (workers, rx_shards) in PARITY_GRID {
        let mut sharded = Scenario::enterprise(n_clients, UseCase::Nop)
            .seed(7)
            .rx_shards(rx_shards)
            .build_sharded(workers)
            .unwrap();
        single.server.announce_config(2, 0);
        sharded.server.announce_config(2, 0);
        let script = vec![
            Action::SendBatch {
                client: 0,
                n_packets: 2,
            },
            Action::SendSingle { client: 1 },
        ];
        let reference = run_single(&mut single, &script);
        let got = run_sharded(&mut sharded, &script);
        assert_eq!(got, reference, "N={workers}");
        assert!(
            reference
                .iter()
                .all(|o| matches!(o, Out::Rejected(_) | Out::Pending)),
            "stale traffic must be rejected: {reference:?}"
        );
        // A fresh single server for the next worker count (its replay
        // windows advanced).
        single = Scenario::enterprise(n_clients, UseCase::Nop)
            .seed(7)
            .build()
            .unwrap();
    }
}

#[test]
fn heavy_tailed_load_mix_matches_single_server_and_migrates() {
    // Clients 0 and 4 (session ids 1 and 5 — both homed on shard 0 at 4
    // workers) are elephants; the rest are mice. Every action is its own
    // dispatch, so the elephants' records must be heavy enough for the
    // hot shard's decaying EWMA to clear the one-MTU floor of the
    // migration threshold. The dispatcher must migrate under this mix,
    // and the output must stay byte-identical to the single-threaded
    // server across the migration.
    let mut script = Vec::new();
    for round in 0..6 {
        script.push(Action::SendBatch {
            client: 0,
            n_packets: 64,
        });
        script.push(Action::SendBatch {
            client: 4,
            n_packets: 48,
        });
        for client in [1, 2, 3] {
            script.push(Action::SendBatch {
                client,
                n_packets: 1,
            });
        }
        if round % 2 == 1 {
            script.push(Action::Replay);
        }
    }
    let migrations = assert_parity(5, UseCase::Firewall, 0xeb77, &script);
    assert!(
        migrations > 0,
        "the heavy-tailed mix must exercise actual migrations"
    );
}

#[test]
fn adversarial_single_session_load_matches_single_server() {
    // All traffic from ONE session: the worst case for any dispatcher (a
    // session is unsplittable, so migration cannot help and must not
    // fire pathologically or corrupt the replay window).
    let mut script = Vec::new();
    for _ in 0..5 {
        script.push(Action::SendBatch {
            client: 0,
            n_packets: 8,
        });
        script.push(Action::SendSingle { client: 0 });
        script.push(Action::Replay);
        script.push(Action::Ping { client: 0 });
    }
    let migrations = assert_parity(3, UseCase::Firewall, 0xeb78, &script);
    assert_eq!(
        migrations, 0,
        "an unsplittable dominant session must never ping-pong"
    );
}

/// Crafts a single-datagram Disconnect plus a two-fragment follow-up
/// record for `sid` (contents irrelevant — the session is gone; only the
/// sequencing verdicts matter).
fn craft_disconnect_and_fragments(sid: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    use endbox_vpn::frag::Fragmenter;
    use endbox_vpn::proto::{Opcode, Record};

    let mtu = endbox_netsim::CostModel::calibrated().mtu_payload;
    let mut frag = Fragmenter::new();
    let disconnect = Record {
        opcode: Opcode::Disconnect,
        session_id: sid,
        packet_id: 0,
        payload: vec![],
    };
    let d = frag.fragment(&disconnect.to_bytes(), mtu);
    assert_eq!(d.len(), 1);
    let next = Record {
        opcode: Opcode::Data,
        session_id: sid,
        packet_id: 1,
        payload: vec![0xab; mtu + 100],
    };
    let f = frag.fragment(&next.to_bytes(), mtu);
    assert_eq!(f.len(), 2);
    (d.into_iter().next().unwrap(), f)
}

#[test]
fn disconnect_followed_by_in_batch_fragment_matches_single_server() {
    // A successful Disconnect tears down the peer's reassembler. If the
    // same receive batch carries a *fragment* of the peer's next record
    // after the Disconnect, the single-threaded server processes the
    // teardown first and the fragment lands in a fresh reassembler; the
    // pipelined server must sequence it identically even though the
    // teardown now happens on the RX stage, across the pipeline boundary
    // (the RX stage pauses on the Disconnect until its verdict is known).
    let mut single = Scenario::enterprise(1, UseCase::Nop)
        .seed(99)
        .build()
        .unwrap();
    let (d, f) = craft_disconnect_and_fragments(single.session_id(0));
    let mut reference = vec![simplify(single.server.receive_datagram(0, &d))];
    reference.push(simplify(single.server.receive_datagram(0, &f[0])));
    reference.push(simplify(single.server.receive_datagram(0, &f[1])));

    for (workers, rx_shards) in PARITY_GRID {
        let mut sharded = Scenario::enterprise(1, UseCase::Nop)
            .seed(99)
            .rx_shards(rx_shards)
            .build_sharded(workers)
            .unwrap();
        let (d, f) = craft_disconnect_and_fragments(sharded.session_id(0));
        // Disconnect and the first fragment of the next record arrive in
        // ONE batch; the second fragment arrives later.
        let mut got: Vec<Out> = sharded
            .server
            .receive_datagrams(vec![(0, d), (0, f[0].clone())])
            .into_iter()
            .map(simplify)
            .collect();
        got.push(simplify(sharded.server.receive_datagram(0, &f[1])));
        assert_eq!(got, reference, "N={workers}");
    }
}

#[test]
fn disconnect_race_interleaved_with_other_peers_matches_single_server() {
    // The Disconnect races the RX stage while OTHER peers' fragments are
    // in flight in the same batch: pausing the RX stage for peer 0's
    // teardown must not reorder or stall peer 1's reassembly, and a
    // REPLAYED (now-invalid) Disconnect later in the same batch must NOT
    // tear the fresh reassembler down.
    let mut single = Scenario::enterprise(2, UseCase::Nop)
        .seed(101)
        .build()
        .unwrap();
    let mk_inputs = |sid0: u64, sid1: u64| {
        let (d0, f0) = craft_disconnect_and_fragments(sid0);
        let (_, f1) = craft_disconnect_and_fragments(sid1);
        // peer0: disconnect, then its next record's two fragments with the
        // replayed disconnect wedged between them; peer1's fragments
        // interleave throughout.
        vec![
            (0u64, d0.clone()),
            (1u64, f1[0].clone()),
            (0u64, f0[0].clone()),
            (0u64, d0), // replayed Disconnect: session unknown now
            (1u64, f1[1].clone()),
            (0u64, f0[1].clone()),
        ]
    };
    let reference: Vec<Out> = mk_inputs(single.session_id(0), single.session_id(1))
        .into_iter()
        .map(|(peer, d)| simplify(single.server.receive_datagram(peer, &d)))
        .collect();
    // Sanity: peer 0's record completes (the replayed Disconnect fails and
    // must not reset reassembly) and is then rejected at the session layer.
    assert!(matches!(reference[0], Out::Disconnected(_)));
    assert!(matches!(reference[3], Out::Rejected(_)));
    assert!(matches!(reference[5], Out::Rejected(_)));

    for (workers, rx_shards) in PARITY_GRID {
        let mut sharded = Scenario::enterprise(2, UseCase::Nop)
            .seed(101)
            .rx_shards(rx_shards)
            .build_sharded(workers)
            .unwrap();
        let inputs = mk_inputs(sharded.session_id(0), sharded.session_id(1));
        let got: Vec<Out> = sharded
            .server
            .receive_datagrams(inputs)
            .into_iter()
            .map(simplify)
            .collect();
        assert_eq!(got, reference, "N={workers}");
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn to_script(raw: &[(usize, usize, usize)], n_clients: usize) -> Vec<Action> {
        raw.iter()
            .map(|&(kind, client, n)| {
                let client = client % n_clients;
                match kind % 5 {
                    0 | 1 => Action::SendBatch {
                        client,
                        n_packets: 1 + n % 8,
                    },
                    2 => Action::SendSingle { client },
                    3 => Action::Ping { client },
                    _ => Action::Replay,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Any interleaving of batches, singles, pings and replays from
        /// 2-4 clients produces byte-identical emissions and identical
        /// verdicts on 1/2/4/8-worker sharded servers.
        #[test]
        fn sharded_server_is_observationally_equivalent(
            n_clients in 2usize..5,
            seed in 0u64..1_000,
            raw in prop::collection::vec((0usize..5, 0usize..5, 0usize..8), 2..7),
        ) {
            let script = to_script(&raw, n_clients);
            assert_parity(n_clients, UseCase::Firewall, 0xeb00 + seed, &script);
        }
    }

    /// Adversarial peer-mix proptests: these drive the schedule harness
    /// (`tests/support`) so the peer ids, split points and batch
    /// boundaries are chosen hostile to the RX pool, and assert the
    /// input-order re-merge over the FULL (rx_shards × workers) grid.
    mod adversarial {
        use super::*;
        use support::{assert_parity, full_grid, PeerMap, RunCfg, Schedule, Step};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            /// All peers collide on ONE RX shard via chosen `peer_id`s
            /// (stride 4 ≡ shard 0 for every K in the grid): the collided
            /// shard must sequence everything exactly like the single RX
            /// thread.
            #[test]
            fn colliding_peer_ids_match_single_server(
                seed in 0u64..500,
                raw in prop::collection::vec((0usize..5, 0usize..3, 0usize..8), 3..8),
            ) {
                let mut schedule =
                    Schedule::new("prop-colliding-peers", 3, 0xeb20 + seed).peers(PeerMap::Stride(4));
                for &(kind, client, n) in &raw {
                    schedule = schedule.step(match kind {
                        0 | 1 => Step::Batch { client, n_packets: 1 + n % 6 },
                        2 => Step::Single { client },
                        3 => Step::Replay,
                        _ => Step::Flush,
                    });
                }
                assert_parity(&schedule, &full_grid(), &[RunCfg::call()]);
            }

            /// A single peer floods the server (deep batches, splits,
            /// replays, a disconnect race) — one RX shard does all the
            /// work while its siblings idle, and order must still hold.
            #[test]
            fn single_peer_flood_matches_single_server(
                seed in 0u64..500,
                raw in prop::collection::vec((0usize..6, 1usize..9), 3..8),
            ) {
                let mut schedule = Schedule::new("prop-single-peer-flood", 1, 0xeb30 + seed)
                    .stall(0, 80);
                for &(kind, n) in &raw {
                    schedule = schedule.step(match kind {
                        0 | 1 => Step::Batch { client: 0, n_packets: n },
                        2 => Step::Single { client: 0 },
                        3 => Step::Replay,
                        4 => Step::SplitRecord {
                            client: 0,
                            payload_len: 30 + n * 17,
                            splits: vec![n, n * 5, 70],
                        },
                        _ => Step::Flush,
                    });
                }
                assert_parity(&schedule, &full_grid(), &[RunCfg::call()]);
            }

            /// Interleaved tiny datagrams: every peer's records split
            /// into 1-byte-ish fragments, alternating datagram-by-datagram
            /// across flush boundaries.
            #[test]
            fn interleaved_tiny_datagrams_match_single_server(
                seed in 0u64..500,
                cuts in prop::collection::vec(1usize..32, 2..10),
            ) {
                let mut schedule = Schedule::new("prop-tiny-datagrams", 2, 0xeb40 + seed)
                    .stall((seed % 2) as usize, 100);
                for (i, &c) in cuts.iter().enumerate() {
                    schedule = schedule
                        .step(Step::SplitRecord {
                            client: i % 2,
                            payload_len: 8 + c,
                            splits: (1..(8 + c)).collect(),
                        })
                        .step(Step::Single { client: (i + 1) % 2 });
                    if c % 3 == 0 {
                        schedule = schedule.step(Step::Flush);
                    }
                }
                assert_parity(&schedule, &full_grid(), &[RunCfg::call()]);
            }
        }
    }
}

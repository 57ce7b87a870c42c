//! Shard determinism: a sharded server with C ∈ {1, 2, 4, 8} shards must
//! be observationally equivalent to the single-threaded server on
//! interleaved multi-client traffic — byte-identical per-client
//! emissions, identical drop/replay verdicts, identical session state —
//! for any thread schedule, across the dispatch law's peer migrations
//! and across handshakes that land inside a receive batch.
//!
//! Both servers are driven with byte-identical wire traffic through the
//! shared schedule harness (`tests/support`): scenarios built from the
//! same seed produce identical client key material, so replaying the same
//! schedule through each scenario's own clients yields the same datagrams
//! bit for bit.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use support::{assert_parity, run, simplify, Geometry, Out, RunCfg, Schedule, Step, GRID};

/// A traffic script: `steps` in order, each its own `receive_datagrams`
/// call on the sharded server.
fn script(
    name: &'static str,
    n_clients: usize,
    seed: u64,
    steps: impl IntoIterator<Item = Step>,
) -> Schedule {
    steps
        .into_iter()
        .fold(Schedule::new(name, n_clients, seed), |schedule, step| {
            schedule.step(step).step(Step::Flush)
        })
}

/// Asserts a script's parity at every shard count of the grid through
/// the call-driven doorway; returns the dispatch law's `(migrations,
/// steals)`.
fn assert_script_parity(schedule: &Schedule) -> (u64, u64) {
    assert_parity(schedule, &GRID, &[RunCfg::call()])
}

#[test]
fn interleaved_batches_with_replays_match_single_server() {
    let schedule = script(
        "interleaved-batches-replays",
        3,
        0xeb01,
        [
            Step::Batch {
                client: 0,
                n_packets: 4,
            },
            Step::Batch {
                client: 1,
                n_packets: 3,
            },
            Step::Replay, // client 1's batch replayed -> Replay verdicts
            Step::Single { client: 2 },
            Step::Batch {
                client: 2,
                n_packets: 8,
            },
            Step::Ping { client: 0 },
            Step::Batch {
                client: 0,
                n_packets: 1,
            },
            Step::Replay,
        ],
    );
    assert_script_parity(&schedule);
}

#[test]
fn config_grace_period_verdicts_match_single_server() {
    // Announce a new config with no grace period, then send stale
    // traffic: the StaleConfiguration verdicts must agree
    // shard-for-shard.
    let schedule = script(
        "stale-config",
        2,
        7,
        [
            Step::Announce {
                version: 2,
                grace_secs: 0,
            },
            Step::Batch {
                client: 0,
                n_packets: 2,
            },
            Step::Single { client: 1 },
        ],
    );
    let (reference, _) = run(&schedule, Geometry::Reference, &RunCfg::call());
    assert!(
        reference
            .outs
            .iter()
            .all(|o| matches!(o, Out::Rejected(_) | Out::Pending)),
        "stale traffic must be rejected: {:?}",
        reference.outs
    );
    assert_script_parity(&schedule);
}

#[test]
fn heavy_tailed_load_mix_matches_single_server_and_migrates() {
    // Clients 0 and 4 (peers 0 and 4 — both on shard 0 at C = 2 and 4)
    // are elephants; the rest are mice. Every step is its own receive
    // call, so the elephants' records must be heavy enough for the hot
    // shard's decaying EWMA to clear the one-MTU floor of the migration
    // threshold. The dispatch law must migrate under this mix, and the
    // output must stay byte-identical to the single-threaded server
    // across the migration.
    let mut steps = Vec::new();
    for round in 0..6 {
        steps.push(Step::Batch {
            client: 0,
            n_packets: 64,
        });
        steps.push(Step::Batch {
            client: 4,
            n_packets: 48,
        });
        for client in [1, 2, 3] {
            steps.push(Step::Batch {
                client,
                n_packets: 1,
            });
        }
        if round % 2 == 1 {
            steps.push(Step::Replay);
        }
    }
    let (migrations, _) = assert_script_parity(&script("heavy-tailed-mix", 5, 0xeb77, steps));
    assert!(
        migrations > 0,
        "the heavy-tailed mix must exercise actual migrations"
    );
}

#[test]
fn round_robin_single_peer_calls_never_migrate() {
    // Four equal peers take turns, one per receive call. Each call makes
    // its sender's shard look hot for a moment, but no shard stays hot
    // for three calls in a row: the persistence trigger's debounce must
    // hold, or the law would chase each burst and ping-pong the peers
    // between shards.
    let steps = (0..12).flat_map(|_| {
        (0..4).map(|client| Step::Batch {
            client,
            n_packets: 48,
        })
    });
    let moves = assert_script_parity(&script("round-robin-single-peer", 4, 0xeb79, steps));
    assert_eq!(moves, (0, 0), "taking turns is not an imbalance");
}

#[test]
fn adversarial_single_session_load_matches_single_server() {
    // All traffic from ONE peer: the worst case for any dispatcher (a
    // peer is unsplittable, so migration cannot help and must not fire
    // pathologically or corrupt the replay window).
    let steps = (0..5).flat_map(|_| {
        [
            Step::Batch {
                client: 0,
                n_packets: 8,
            },
            Step::Single { client: 0 },
            Step::Replay,
            Step::Ping { client: 0 },
        ]
    });
    let (migrations, _) =
        assert_script_parity(&script("single-dominant-session", 3, 0xeb78, steps));
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

/// Feeds the receive batches `batches` builds from a scenario's session
/// ids through `receive_datagrams`, on the reference and at every shard
/// count of the grid, asserts identical outcomes, and returns the
/// reference's.
fn assert_batches_parity(
    n_clients: usize,
    seed: u64,
    batches: impl Fn(&[u64]) -> Vec<Vec<(u64, Vec<u8>)>>,
) -> Vec<Out> {
    let builder = || Scenario::enterprise(n_clients, UseCase::Nop).seed(seed);
    let mut single = builder().build().unwrap();
    let sids: Vec<u64> = (0..n_clients).map(|i| single.session_id(i)).collect();
    let reference: Vec<Out> = batches(&sids)
        .into_iter()
        .flat_map(|batch| single.server.receive_datagrams(batch))
        .map(simplify)
        .collect();
    for shards in GRID {
        let mut sharded = builder().build_sharded(shards).unwrap();
        let sids: Vec<u64> = (0..n_clients).map(|i| sharded.session_id(i)).collect();
        let got: Vec<Out> = batches(&sids)
            .into_iter()
            .flat_map(|batch| sharded.server.receive_datagrams(batch))
            .map(simplify)
            .collect();
        assert_eq!(got, reference, "C={shards}");
    }
    reference
}

#[test]
fn disconnect_followed_by_in_batch_fragment_matches_single_server() {
    // A successful Disconnect tears down the peer's reassembler. If the
    // same receive batch carries a *fragment* of the peer's next record
    // after the Disconnect, the single-threaded server processes the
    // teardown first and the fragment lands in a fresh reassembler; the
    // sharded server must sequence it identically — the shard that owns
    // the peer decides the Disconnect and tears the reassembler down
    // before it frames the next datagram.
    // Disconnect and the first fragment of the next record arrive in ONE
    // batch; the second fragment arrives later.
    assert_batches_parity(1, 99, |sids| {
        let (d, f) = craft_disconnect_and_fragments(sids[0]);
        vec![vec![(0, d), (0, f[0].clone())], vec![(0, f[1].clone())]]
    });
}

#[test]
fn disconnect_race_interleaved_with_other_peers_matches_single_server() {
    // The Disconnect races OTHER peers' fragments in flight in the same
    // batch: peer 0's teardown must not reorder or stall peer 1's
    // reassembly, and a
    // REPLAYED (now-invalid) Disconnect later in the same batch must NOT
    // tear the fresh reassembler down.
    let reference = assert_batches_parity(2, 101, |sids| {
        let (d0, f0) = craft_disconnect_and_fragments(sids[0]);
        let (_, f1) = craft_disconnect_and_fragments(sids[1]);
        // peer0: disconnect, then its next record's two fragments with the
        // replayed disconnect wedged between them; peer1's fragments
        // interleave throughout.
        vec![vec![
            (0u64, d0.clone()),
            (1u64, f1[0].clone()),
            (0u64, f0[0].clone()),
            (0u64, d0), // replayed Disconnect: session unknown now
            (1u64, f1[1].clone()),
            (0u64, f0[1].clone()),
        ]]
    });
    // Sanity: peer 0's record completes (the replayed Disconnect fails and
    // must not reset reassembly) and is then rejected at the session layer.
    assert!(matches!(reference[0], Out::Disconnected(_)));
    assert!(matches!(reference[3], Out::Rejected(_)));
    assert!(matches!(reference[5], Out::Rejected(_)));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn to_steps(raw: &[(usize, usize, usize)], n_clients: usize) -> Vec<Step> {
        raw.iter()
            .map(|&(kind, client, n)| {
                let client = client % n_clients;
                match kind % 5 {
                    0 | 1 => Step::Batch {
                        client,
                        n_packets: 1 + n % 8,
                    },
                    2 => Step::Single { client },
                    3 => Step::Ping { client },
                    _ => Step::Replay,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Any interleaving of batches, singles, pings and replays from
        /// 2-4 clients produces byte-identical emissions and identical
        /// verdicts on 1/2/4/8-shard servers.
        #[test]
        fn sharded_server_is_observationally_equivalent(
            n_clients in 2usize..5,
            seed in 0u64..1_000,
            raw in prop::collection::vec((0usize..5, 0usize..5, 0usize..8), 2..7),
        ) {
            let steps = to_steps(&raw, n_clients);
            assert_script_parity(&script("prop-observational", n_clients, 0xeb00 + seed, steps));
        }
    }

    /// Adversarial peer-mix proptests: the peer ids, split points and
    /// batch boundaries are chosen hostile to the shards, and the
    /// input-order re-merge is asserted over the full shard grid.
    mod adversarial {
        use super::*;
        use support::PeerMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            /// All peers collide on ONE shard via chosen `peer_id`s
            /// (stride 4 ≡ shard 0 for C ≤ 4): the collided shard must
            /// sequence everything exactly like the single thread.
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
                assert_parity(&schedule, &GRID, &[RunCfg::call()]);
            }

            /// A single peer floods the server (deep batches, splits,
            /// replays, a disconnect race) — one shard does all the work
            /// while its siblings idle, and order must still hold.
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
                assert_parity(&schedule, &GRID, &[RunCfg::call()]);
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
                assert_parity(&schedule, &GRID, &[RunCfg::call()]);
            }
        }
    }
}

/// Handshakes inside a receive batch: one client per shard is
/// disconnected, and its new `HandshakeInit` datagrams arrive in one
/// batch interleaved with the established peers' data, with shard 0
/// stalled — so handshakes escalate from several shards at once and the
/// front-end must answer them in input order. Responses, session ids,
/// outcomes and counters equal the reference's at every shard count, and
/// the reconnected clients' first records bind their new sessions.
#[test]
fn handshakes_inside_a_batch_match_single_server() {
    use endbox::EndBoxClient;
    use endbox_netsim::Packet;
    use endbox_vpn::proto::{Opcode, Record};

    const CLIENTS: usize = 12;
    let data = |clients: &mut [EndBoxClient], client: usize, round: u32| {
        let packet = Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            49_000 + client as u16,
            5_001,
            round,
            format!("reconnect round {round} client {client}").as_bytes(),
        );
        clients[client].send_packet(packet).unwrap()
    };
    // One script, fed to `receive` (either server's `receive_datagrams`):
    // everyone binds, clients `0..shards` disconnect and reconnect inside
    // one batch, everyone sends again. Returns every outcome, in order.
    let script = |shards: usize,
                  clients: &mut [EndBoxClient],
                  sids: &[u64],
                  receive: &mut dyn FnMut(Vec<(u64, Vec<u8>)>) -> Vec<Out>| {
        let mut outs = Vec::new();
        let round = |clients: &mut [EndBoxClient], round: u32| {
            (0..CLIENTS)
                .flat_map(|c| {
                    data(clients, c, round)
                        .into_iter()
                        .map(move |d| (c as u64, d))
                })
                .collect::<Vec<_>>()
        };
        let batch = round(clients, 0);
        outs.extend(receive(batch));
        let disconnects = (0..shards)
            .map(|c| {
                let record = Record {
                    opcode: Opcode::Disconnect,
                    session_id: sids[c],
                    packet_id: 0,
                    payload: vec![],
                };
                let frags = support::split_raw(&record.to_bytes(), &[], 0xD15C_0000 + c as u32);
                (c as u64, frags.into_iter().next().unwrap())
            })
            .collect();
        outs.extend(receive(disconnects));
        let mut mixed = Vec::new();
        for c in 0..CLIENTS {
            let datagrams = if c < shards {
                clients[c].connect_start().unwrap()
            } else {
                data(clients, c, 1)
            };
            mixed.extend(datagrams.into_iter().map(|d| (c as u64, d)));
        }
        let replies = receive(mixed);
        // The reconnecting clients sent in client order, and handshakes
        // are answered in input order: the k-th response is client k's.
        let responses = replies.iter().filter_map(|out| match out {
            Out::Established(_, response) => Some(response),
            _ => None,
        });
        for (client, response) in clients.iter_mut().zip(responses) {
            for frag in response {
                client.connect_complete(frag).unwrap();
            }
        }
        outs.extend(replies);
        let batch = round(clients, 2);
        outs.extend(receive(batch));
        outs
    };

    for shards in GRID {
        let builder = || Scenario::enterprise(CLIENTS, UseCase::Nop).seed(0x4a5d);
        let mut reference = builder().build().unwrap();
        let sids: Vec<u64> = (0..CLIENTS).map(|c| reference.session_id(c)).collect();
        let server = &mut reference.server;
        let want = script(shards, &mut reference.clients, &sids, &mut |batch| {
            server
                .receive_datagrams(batch)
                .into_iter()
                .map(simplify)
                .collect()
        });
        let mut sharded = builder().build_sharded(shards).unwrap();
        sharded.server.set_stall_micros(0, 300);
        let server = &mut sharded.server;
        let got = script(shards, &mut sharded.clients, &sids, &mut |batch| {
            server
                .receive_datagrams(batch)
                .into_iter()
                .map(simplify)
                .collect()
        });
        assert_eq!(got, want, "C={shards}");
        let established = want
            .iter()
            .filter(|o| matches!(o, Out::Established(..)))
            .count();
        assert_eq!(established, shards, "every reconnect is answered");
        assert!(
            want.iter()
                .skip(want.len() - CLIENTS)
                .all(|o| matches!(o, Out::Packets(_))),
            "everyone's last record is delivered, reconnected clients' included: {want:?}"
        );
        assert_eq!(sharded.server.counters(), reference.server.counters());
        assert_eq!(sharded.server.session_ids(), reference.server.session_ids());
    }
}

//! A session is bound to the transport peer of its first authenticated
//! record, on both servers: a record naming it from any other peer is
//! `UnknownSession` before any MAC work, so it neither consumes a
//! replay-window slot nor binds anything, and a forgery binds nothing.
//! Every test runs the single-threaded reference and the sharded server
//! at every shard count of the grid, and asserts both the expected
//! verdicts and byte-identical outcomes.

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox::{EndBoxClient, EndBoxError};
use endbox_netsim::Packet;
use endbox_vpn::VpnError;
use support::{simplify, Out, GRID};

/// A peer no client speaks from.
const STRANGER: u64 = 9;

/// One sealed single-datagram record from `client`.
fn record(clients: &mut [EndBoxClient], client: usize, seq: u32) -> Vec<u8> {
    let packet = Packet::tcp(
        Scenario::client_addr(client),
        Scenario::network_addr(),
        47_000 + client as u16,
        5_001,
        seq,
        format!("binding client {client} seq {seq}").as_bytes(),
    );
    let mut sealed = clients[client].send_packet(packet).unwrap();
    assert_eq!(sealed.len(), 1, "small record, one datagram");
    sealed.pop().unwrap()
}

/// Runs the receive batches `script` seals on the reference and at every
/// shard count (with `stall` on the shard of that peer, if any), asserts
/// identical outcomes, and returns the reference's.
fn on_both_servers(
    seed: u64,
    stall: Option<u64>,
    script: impl Fn(&mut [EndBoxClient]) -> Vec<Vec<(u64, Vec<u8>)>>,
) -> Vec<Out> {
    let builder = || Scenario::enterprise(2, UseCase::Nop).seed(seed);
    let mut reference = builder().build().unwrap();
    let want: Vec<Out> = script(&mut reference.clients)
        .into_iter()
        .flat_map(|batch| reference.server.receive_datagrams(batch))
        .map(simplify)
        .collect();
    for shards in GRID {
        let mut sharded = builder().build_sharded(shards).unwrap();
        if let Some(peer) = stall {
            sharded
                .server
                .set_stall_micros(sharded.server.shard_of(peer), 300);
        }
        let got: Vec<Out> = script(&mut sharded.clients)
            .into_iter()
            .flat_map(|batch| sharded.server.receive_datagrams(batch))
            .map(simplify)
            .collect();
        assert_eq!(got, want, "C={shards}");
        assert_eq!(
            sharded.server.counters(),
            reference.server.counters(),
            "C={shards}"
        );
    }
    want
}

fn unknown(outs: &Out, session_id: u64) -> bool {
    *outs == Out::Rejected(EndBoxError::Vpn(VpnError::UnknownSession(session_id)))
}

/// A valid record captured and re-sent from another peer before the
/// genuine copy arrives is refused without touching the replay window,
/// so the genuine copy is still accepted. (Before sessions were bound,
/// the stranger's copy was accepted and the genuine one was a `Replay`.)
#[test]
fn cross_peer_replay_is_rejected_and_the_genuine_copy_then_accepted() {
    let outs = on_both_servers(0xb1d1, None, |clients| {
        let first = record(clients, 0, 0);
        let captured = record(clients, 0, 1);
        vec![
            vec![(0, first)],
            vec![(STRANGER, captured.clone()), (0, captured)],
        ]
    });
    assert!(matches!(outs[0], Out::Packets(_)), "{outs:?}");
    assert!(unknown(&outs[1], 1), "the stranger is refused: {outs:?}");
    assert!(matches!(outs[2], Out::Packets(_)), "{outs:?}");
}

/// A forged first record from a foreign peer fails authentication and
/// binds nothing: the genuine client's first record binds its own peer,
/// and from then on the foreign peer is a stranger to the session.
#[test]
fn forged_first_record_from_a_foreign_peer_does_not_bind() {
    let outs = on_both_servers(0xb1d2, None, |clients| {
        let mut forged = record(clients, 0, 0);
        let last = forged.len() - 1;
        forged[last] ^= 1;
        let genuine = record(clients, 0, 1);
        let later = record(clients, 0, 2);
        vec![
            vec![(STRANGER, forged)],
            vec![(0, genuine), (STRANGER, later)],
        ]
    });
    assert!(
        matches!(
            outs[0],
            Out::Rejected(EndBoxError::Vpn(VpnError::AuthenticationFailed))
        ),
        "{outs:?}"
    );
    assert!(matches!(outs[1], Out::Packets(_)), "{outs:?}");
    assert!(unknown(&outs[2], 1), "bound to peer 0 now: {outs:?}");
}

/// Two peers — on different shards whenever there are two — race the
/// same first record of an unbound session in one batch: the lower input
/// index binds the session, the other copy is a stranger's. Run with and
/// without the winner's shard stalled, so on the sharded server the
/// loser's escalation reaches the front-end first.
#[test]
fn two_peers_race_the_first_record_and_the_lower_index_wins() {
    for stall in [None, Some(1)] {
        let outs = on_both_servers(0xb1d3, stall, |clients| {
            let first = record(clients, 0, 0);
            let next = record(clients, 0, 1);
            vec![
                vec![(1, first.clone()), (0, first)],
                vec![(0, next.clone()), (1, next)],
            ]
        });
        assert!(matches!(outs[0], Out::Packets(_)), "{outs:?}");
        assert!(unknown(&outs[1], 1), "peer 0 lost the race: {outs:?}");
        assert!(unknown(&outs[2], 1), "peer 0 stays a stranger: {outs:?}");
        assert!(matches!(outs[3], Out::Packets(_)), "{outs:?}");
    }
}

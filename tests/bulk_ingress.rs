//! Parity tests for the socket boundary: `recv_many` ingress, egress
//! through the server's TX socket and the OS-socket backend.
//!
//! The named tests replay [`support::Schedule`]s — the deterministic
//! interleaving classes of `tests/rx_interleaving.rs` and
//! `tests/async_ingress.rs` — through the event-driven front-end, which
//! drains each ready socket's share of a round in one `recv_many` call.
//! Outcomes must be byte-identical to the single-threaded reference
//! server at every shard count of the grid.
//!
//! The OS-socket tests run the same schedules over real loopback UDP
//! sockets ([`endbox_netsim::net::OsWire`]) behind the identical
//! transport API, asserting the backends agree byte-for-byte; they skip
//! when the sandbox forbids loopback (set `ENDBOX_REQUIRE_OS_SOCKET=1`
//! to make the skip a failure).

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_netsim::net::{OsWire, TransportKind};
use endbox_netsim::Packet;
use support::{assert_parity, egress_schedule, PeerMap, RunCfg, Schedule, Step, GRID};

/// `grid` over the **OS-socket** backend (real loopback UDP). Skips
/// (with a note) when the sandbox forbids loopback sockets — set
/// `ENDBOX_REQUIRE_OS_SOCKET=1` to turn the skip into a failure.
fn assert_parity_os(schedule: &Schedule, grid: &[usize]) {
    if !OsWire::available() {
        if std::env::var("ENDBOX_REQUIRE_OS_SOCKET").as_deref() == Ok("1") {
            panic!("ENDBOX_REQUIRE_OS_SOCKET=1 but loopback UDP is unavailable");
        }
        eprintln!(
            "skipping OS-socket parity for `{}`: loopback UDP unavailable",
            schedule.name
        );
        return;
    }
    let cfg = RunCfg::event_loop().transport(TransportKind::OsSocket);
    assert_parity(schedule, grid, &[cfg]);
}

/// Splits through the record header and 1-byte fragments, partial
/// records straddling poll rounds, a replayed Disconnect — the
/// adversarial framing schedule — through the event loop on the full
/// grid.
#[test]
fn bulk_sizes_are_outcome_invariant_on_adversarial_framing() {
    let schedule = Schedule::new("bulk-adversarial-framing", 2, 0xb1_01)
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
        .step(Step::Single { client: 0 });
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// Deep per-socket queues (one peer floods 12 datagrams per flush while
/// collided stride-4 peers trickle) drain one call per socket and change
/// no outcome. Call boundaries in the middle of a queue, where the round
/// budget splits it, are pinned by the flood test of
/// `tests/async_ingress.rs`.
#[test]
fn bulk_call_boundaries_mid_queue_preserve_outcomes() {
    let mut schedule = Schedule::new("bulk-deep-queues", 3, 0xb1_02).peers(PeerMap::Stride(4));
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
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// Egress mirror: server→client batches leave the server's TX socket
/// through one `send_all` (one bulk `send_many` on the virtual wire) and
/// must put exactly the fragments of a direct `send_batch_to_client` on
/// the wire, in order.
#[test]
fn tx_batched_egress_is_byte_identical_to_direct_fragments() {
    let build = || {
        Scenario::enterprise(3, UseCase::Nop)
            .seed(0xb1_04)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap()
    };
    let mut direct = build();
    let mut batched = build();
    let packets: Vec<Packet> = (0..5)
        .map(|i| {
            Packet::tcp(
                Scenario::network_addr(),
                Scenario::client_addr(1),
                5_001,
                46_000,
                i,
                format!("egress packet {i} {}", "z".repeat(i as usize * 40)).as_bytes(),
            )
        })
        .collect();
    // Identical seeds → identical session keys → identical fragments.
    let want = direct
        .server
        .send_batch_to_client(direct.session_id(1), &packets)
        .unwrap();
    let got = batched.egress_batch_to_client(1, &packets).unwrap();
    assert_eq!(got, want, "the TX socket must not alter wire bytes");

    let stats = batched.tx_stats();
    assert_eq!(stats.sent, want.len() as u64);
    assert_eq!(
        stats.io_calls, 1,
        "one record batch, one bulk send: {stats:?}"
    );
    assert_eq!(stats.partial_sends, 0, "virtual wire never splits a bulk");
}

/// The OS-socket backend behind the same transport API: adversarial
/// framing schedules over real loopback UDP deliver byte-identical
/// results to the single-threaded reference (and hence to the virtual
/// wire, which the grid pins against the same reference).
#[test]
fn os_socket_backend_matches_virtual_wire_byte_for_byte() {
    let schedule = Schedule::new("os-backend-parity", 2, 0xb1_05)
        .step(Step::SplitRecord {
            client: 0,
            payload_len: 32,
            splits: (1..48).collect(),
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Flush)
        .step(Step::Disconnect { client: 0 })
        .step(Step::Replay)
        .step(Step::Single { client: 1 });
    assert_parity_os(&schedule, &[1, 2]);
}

/// Deep queues over the OS backend: kernel-buffered datagrams drain
/// through bulk `recv_many` with pool-backed receive buffers, and the
/// flood schedule still matches the reference exactly.
#[test]
fn os_socket_backend_survives_deep_queues_and_bulk_drains() {
    let mut schedule = Schedule::new("os-backend-deep-queues", 2, 0xb1_06);
    for _ in 0..20 {
        schedule = schedule.step(Step::Single { client: 0 });
    }
    schedule = schedule
        .step(Step::Single { client: 1 })
        .step(Step::Flush)
        .step(Step::Single { client: 0 });
    assert_parity_os(&schedule, &[2]);
}

/// Egress between moves over real loopback UDP: every server seal and
/// ping rides the server's TX socket to the client's socket and must be the
/// reference's wire bytes, at every starting grid point.
#[test]
fn os_socket_egress_matches_reference_across_moves() {
    assert_parity_os(&egress_schedule(), &GRID);
}

/// The scenario reports which backend it runs on — the knob CI's gated
/// loopback smoke test flips.
#[test]
fn wire_backend_is_reported() {
    let virt = Scenario::enterprise(1, UseCase::Nop)
        .seed(0xb1_07)
        .async_ingress(true)
        .build_sharded(1)
        .unwrap();
    assert_eq!(virt.wire_backend(), "virtual");
    if OsWire::available() {
        let os = Scenario::enterprise(1, UseCase::Nop)
            .seed(0xb1_08)
            .async_ingress(true)
            .transport(TransportKind::OsSocket)
            .build_sharded(1)
            .unwrap();
        assert_eq!(os.wire_backend(), "os-socket");
    }
}

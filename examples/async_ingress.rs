//! Event-driven socket ingress, step by step: sealed datagrams ride the
//! in-process wire into per-peer server sockets, and the
//! `AsyncFrontEnd`'s poll loop (one poll group for every shard) drains them
//! into the pipelined dispatch — including what backpressure looks like
//! when one peer floods its socket.
//!
//! The condensed version is the rustdoc example on
//! `endbox::server::AsyncFrontEnd`.
//!
//! ```text
//! cargo run --example async_ingress
//! ```

use endbox::scenario::Scenario;
use endbox::server::DEFAULT_SHARD_BUDGET;
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Event-driven socket front-end");
    println!("=============================\n");

    // 6 peers, 2 run-to-completion shards, one poll group over all six
    // sockets.
    let mut s = Scenario::enterprise(6, UseCase::Firewall)
        .async_ingress(true)
        .build_sharded(2)?;
    println!(
        "6 peers connected; {} shards behind one poll group",
        s.server.shard_count()
    );

    // Every peer seals one small record and puts it on the wire. Nothing
    // is processed yet — the datagrams sit in the server-side sockets.
    for peer in 0..6 {
        let pkt = Packet::tcp(
            Scenario::client_addr(peer),
            Scenario::network_addr(),
            40_000 + peer as u16,
            5_001,
            0,
            format!("peer {peer} says hello").as_bytes(),
        );
        let sealed = s.clients[peer].send_packet(pkt)?;
        s.send_wire_datagrams(peer as u64, sealed);
    }
    println!(
        "\n6 datagrams queued in sockets (backlog = {})",
        s.backlog()
    );

    // One pump: poll once, drain every readable socket, re-merge
    // by wire arrival stamp, one pipelined dispatch.
    let results = s.pump_async();
    println!("one event-loop run delivered {} packets", results.len());
    let stats = s.async_stats();
    println!(
        "stats: {} wakeups for {} datagrams ({:.2} wakeups/datagram — the \
         amortisation a call-driven front-end never gets)",
        stats.wakeups,
        stats.datagrams,
        stats.wakeups as f64 / stats.datagrams as f64
    );

    // Backpressure: peer 0 floods — more than one round may drain
    // (`DEFAULT_SHARD_BUDGET` × 2 shards) — while
    // its shard-mate (peer 2, same shard: 2 mod 2 == 0) sends one
    // packet. The mate still rides the first round; the flood's tail
    // defers.
    let flood = (DEFAULT_SHARD_BUDGET * 2 + 64) as u32;
    for seq in 0..flood {
        let pkt = Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            40_000,
            5_001,
            1 + seq,
            b"flood flood flood",
        );
        let sealed = s.clients[0].send_packet(pkt)?;
        s.send_wire_datagrams(0, sealed);
    }
    let pkt = Packet::tcp(
        Scenario::client_addr(2),
        Scenario::network_addr(),
        40_002,
        5_001,
        1,
        b"just one polite packet",
    );
    let sealed = s.clients[2].send_packet(pkt)?;
    s.send_wire_datagrams(2, sealed);

    let first_round = s.pump_async_round();
    let served: Vec<u64> = first_round.iter().map(|(p, _)| *p).collect();
    println!(
        "\nflood round 1: served {} datagrams, peer 2 among them: {} — the \
         shard-mate was not starved; backlog {} defers to later rounds",
        served.len(),
        served.contains(&2),
        s.backlog()
    );
    let rest = s.pump_async();
    println!(
        "remaining rounds drained {} datagrams; deferred_rounds = {}",
        rest.len(),
        s.async_stats().deferred_rounds
    );

    println!("\nevent-driven ingress complete.");
    Ok(())
}

//! Scenario 1 (§II-A): a large company offloads its middleboxes to
//! employee machines. Demonstrates: several clients with IDPS, encrypted
//! configuration files (rules hidden from employees), a malicious
//! payload being dropped at the *source*, and grace-period enforcement
//! against a client that refuses to update.
//!
//! ```text
//! cargo run --example enterprise_network
//! ```

use endbox::error::EndBoxError;
use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Enterprise network scenario (Fig. 2a)");
    println!("=====================================\n");

    let mut scenario = Scenario::enterprise(3, UseCase::Idps).build()?;
    println!("3 employee machines enrolled; IDPS (377 rules) runs inside each enclave");

    // Normal work traffic flows.
    for i in 0..3 {
        scenario.send_from_client(i, b"quarterly report upload")?;
    }
    println!("benign traffic from all 3 clients delivered");

    // Employee 1's machine is infected: the malware tries to reach an
    // internal server. Rule 0 of the rule set (a `drop` rule on port 80)
    // catches it before the packet ever leaves the machine.
    let malware_packet = Packet::tcp(
        Scenario::client_addr(1),
        Scenario::network_addr(),
        40_001,
        80,
        0,
        b"beacon EB-MAL-0000 exfil",
    );
    match scenario.send_packet_from_client(1, malware_packet) {
        Err(EndBoxError::PacketDropped) => {
            println!("malware beacon DROPPED at the source by the in-enclave IDPS");
        }
        other => panic!("expected drop, got {other:?}"),
    }
    println!(
        "client 1 IDS alerts: {}",
        scenario.clients[1]
            .click_handler("ids", "alerts")
            .unwrap_or_default()
    );

    // The admin pushes an updated (encrypted!) rule set with a 30 s grace
    // period. Configs are encrypted in the enterprise scenario so
    // employees cannot read the detection rules (§III-E).
    let version = scenario.update_config(&UseCase::DdosPrevention.click_config(), 30)?;
    println!("\nadmin pushed config v{version} (encrypted, 30 s grace period)");
    for i in 0..3 {
        println!("  client {i} now at version {}", scenario.client_version(i));
    }
    let stored = scenario.config_server.fetch(version).unwrap();
    println!(
        "  config on the file server is encrypted: {} ({} bytes)",
        stored.encrypted,
        stored.payload.len()
    );

    // A stale client (simulated by a fresh deployment where client 0 skips
    // the update) is blocked once the grace period is over.
    let mut stale = Scenario::enterprise(1, UseCase::Idps).seed(7).build()?;
    stale.server.announce_config(99, 0); // grace period 0 s
    let pkt = Packet::tcp(
        Scenario::client_addr(0),
        Scenario::network_addr(),
        40_000,
        5001,
        0,
        b"from stale client",
    );
    match stale.send_packet_from_client(0, pkt) {
        Err(EndBoxError::Vpn(endbox_vpn::VpnError::StaleConfiguration { client, required })) => {
            println!(
                "\nstale client blocked after grace period (has v{client}, server requires v{required})"
            );
        }
        other => panic!("expected stale-config block, got {other:?}"),
    }

    // Scale-out: the same enterprise, served by the sharded pipeline —
    // 2 RX framing shards in front of 2 session-crypto workers, every
    // client's batch in one multi-client dispatch. Results are
    // byte-identical to the single-threaded server (the parity grids in
    // tests/ are the proof); the sharding win shows up in
    // `exp fig10_scalability` / `exp rx_scaling`.
    let mut sharded = Scenario::enterprise(4, UseCase::Idps)
        .seed(11)
        .rx_shards(2)
        .build_sharded(2)?;
    let payloads: Vec<Vec<Vec<u8>>> = (0..4)
        .map(|c| {
            (0..4)
                .map(|i| format!("dept {c} doc {i}").into_bytes())
                .collect()
        })
        .collect();
    let delivered = sharded.send_batches_from_all(&payloads)?;
    println!(
        "\nsharded fan-in: {} clients x {} packets through {} RX shards / {} workers, all delivered",
        delivered.len(),
        delivered[0].len(),
        sharded.server.rx_shard_count(),
        sharded.server.worker_count(),
    );

    println!("\nenterprise scenario complete.");
    Ok(())
}

//! The §V-A attack battery. Every function mounts one of the paper's
//! attacks against a live deployment and reports whether the system
//! defended itself; the test suite asserts every outcome is `Defended`.

use crate::config_update::SignedConfig;
use crate::error::EndBoxError;
use crate::scenario::Scenario;
use crate::use_cases::UseCase;
use endbox_netsim::packet::QOS_ENDBOX_PROCESSED;
use endbox_netsim::Packet;
use endbox_sgx::EnclaveError;
use endbox_vpn::handshake::ServerHello;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::{VpnError, PROTOCOL_V1};
use rand::SeedableRng;

/// Outcome of an attack attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack was blocked; explanation of the defending mechanism.
    Defended(&'static str),
    /// The attack succeeded — a reproduction bug if it ever happens.
    Breached(&'static str),
}

impl AttackOutcome {
    /// True if the system defended itself.
    pub fn defended(&self) -> bool {
        matches!(self, AttackOutcome::Defended(_))
    }
}

/// §V-A "Bypassing middlebox functions": a malicious client sends raw,
/// unsealed traffic straight at the server.
pub fn bypass_middlebox(scenario: &mut Scenario) -> AttackOutcome {
    let raw = Packet::tcp(
        Scenario::client_addr(0),
        Scenario::network_addr(),
        40_000,
        5001,
        0,
        b"traffic that skipped Click",
    );
    // Wrap it into a fake data record without valid keys.
    let record = Record {
        opcode: Opcode::Data,
        session_id: scenario.session_id(0),
        packet_id: 1_000_000,
        payload: {
            let mut p = raw.bytes().to_vec();
            p.extend_from_slice(&[0u8; 32]); // forged tag
            p
        },
    };
    let mut frag = endbox_vpn::frag::Fragmenter::new();
    let datagrams = frag.fragment(&record.to_bytes(), 8_960);
    for d in &datagrams {
        match scenario.server.receive_datagram(99, d) {
            Ok(crate::server::Delivery::Packet { .. }) => {
                return AttackOutcome::Breached("unsealed traffic delivered");
            }
            Ok(_) => {}
            Err(EndBoxError::Vpn(VpnError::AuthenticationFailed)) => {
                return AttackOutcome::Defended(
                    "server only accepts traffic sealed with keys held by a correct EndBox client",
                );
            }
            Err(_) => {
                return AttackOutcome::Defended("record rejected before decryption");
            }
        }
    }
    AttackOutcome::Defended("no fake fragment produced a delivery")
}

/// §V-A "Using old or invalid middlebox configurations": replaying a stale
/// config to the enclave, and running stale after the grace period.
pub fn config_rollback(scenario: &mut Scenario) -> AttackOutcome {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // Craft an old-version config signed by the real CA (e.g. captured
    // from an earlier deployment).
    let old = SignedConfig::publish(
        &UseCase::Nop.click_config(),
        1, // same as the initial version -> not newer
        scenario.ca.signing_key(),
        None,
        &mut rng,
    );
    match scenario.clients[0].enclave_app().apply_config(&old) {
        Ok(()) => AttackOutcome::Breached("stale config accepted"),
        Err(EndBoxError::ConfigUpdate(_)) => AttackOutcome::Defended(
            "version numbers are embedded in the update and must increase monotonically",
        ),
        Err(_) => AttackOutcome::Defended("config rejected"),
    }
}

/// §V-A: after the grace period expires, a client that kept the old
/// configuration is blocked by the server.
pub fn stale_config_after_grace(scenario: &mut Scenario) -> AttackOutcome {
    // Admin publishes version 2 with zero grace; client 0 refuses to
    // update (malicious) — it never fetches.
    scenario.server.announce_config(2, 0);
    let datagrams = match scenario.clients[0].send_packet(Packet::tcp(
        Scenario::client_addr(0),
        Scenario::network_addr(),
        40_000,
        5001,
        0,
        b"stale client traffic",
    )) {
        Ok(d) => d,
        Err(_) => return AttackOutcome::Defended("client-side rejection"),
    };
    for d in &datagrams {
        match scenario.server.receive_datagram(0, d) {
            Ok(crate::server::Delivery::Packet { .. }) => {
                return AttackOutcome::Breached("stale-config traffic delivered after grace");
            }
            Ok(_) => {}
            Err(EndBoxError::Vpn(VpnError::StaleConfiguration { .. })) => {
                return AttackOutcome::Defended(
                    "server blocks clients that did not apply the new configuration",
                );
            }
            Err(_) => return AttackOutcome::Defended("traffic rejected"),
        }
    }
    AttackOutcome::Defended("no stale packet delivered")
}

/// §V-A "Replaying traffic": capture a sealed datagram and replay it.
pub fn replay_traffic(scenario: &mut Scenario) -> AttackOutcome {
    let datagrams = scenario.clients[0]
        .send_packet(Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            40_000,
            5001,
            0,
            b"legitimate packet",
        ))
        .expect("send");
    // First delivery is legitimate.
    for d in &datagrams {
        let _ = scenario.server.receive_datagram(0, d);
    }
    // Replay the captured datagrams.
    for d in &datagrams {
        match scenario.server.receive_datagram(0, d) {
            Ok(crate::server::Delivery::Packet { .. }) => {
                return AttackOutcome::Breached("replayed packet delivered");
            }
            Ok(_) => {}
            Err(EndBoxError::Vpn(VpnError::Replay)) => {
                return AttackOutcome::Defended(
                    "OpenVPN-style packet-id replay window rejects the duplicate",
                );
            }
            Err(EndBoxError::Vpn(VpnError::Fragmentation(_))) => {
                return AttackOutcome::Defended("duplicate fragments never reassemble twice");
            }
            Err(_) => return AttackOutcome::Defended("replay rejected"),
        }
    }
    AttackOutcome::Defended("replayed datagrams produced no delivery")
}

/// §V-A "Denial-of-service attacks": the host destroys the enclave; only
/// that client loses connectivity.
pub fn enclave_dos(scenario: &mut Scenario) -> AttackOutcome {
    scenario.clients[0].enclave_app().destroy();
    let send = scenario.clients[0].send_packet(Packet::tcp(
        Scenario::client_addr(0),
        Scenario::network_addr(),
        40_000,
        5001,
        0,
        b"after dos",
    ));
    let self_harmed = matches!(send, Err(EndBoxError::Enclave(EnclaveError::Destroyed)));
    // Other clients are unaffected.
    let others_fine = if scenario.clients.len() > 1 {
        scenario
            .send_from_client(1, b"unaffected neighbour")
            .is_ok()
    } else {
        true
    };
    if self_harmed && others_fine {
        AttackOutcome::Defended("killing the enclave only disconnects the attacker's own machine")
    } else if !self_harmed {
        AttackOutcome::Breached("client kept network access without its enclave")
    } else {
        AttackOutcome::Breached("DoS on one client affected others")
    }
}

/// §V-A "Downgrade attacks": a MITM rewrites the server's chosen protocol
/// version; the in-enclave check must refuse it.
pub fn downgrade_attack() -> AttackOutcome {
    use crate::client::{EndBoxClient, EndBoxClientConfig};
    use crate::server::{Delivery, EndBoxServer, EndBoxServerConfig};
    use endbox_crypto::schnorr::SigningKey;
    use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
    use endbox_vpn::handshake::HandshakeConfig;

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut ias = IasSimulator::new(&mut rng);
    let mut ca = crate::ca::CertificateAuthority::new(ias.public_key(), &mut rng);
    let cpu = CpuIdentity::from_seed([0xd0; 32]);
    ias.register_platform(cpu.attestation_public());

    let mut cfg = EndBoxClientConfig::new("victim", ca.public_key(), cpu);
    cfg.min_version = endbox_vpn::PROTOCOL_V2; // enclave-enforced minimum
    cfg.offered_version = endbox_vpn::PROTOCOL_V2;
    let mut client = EndBoxClient::new(cfg).expect("client");
    ca.allow_measurement(client.enclave_app().measurement());
    client
        .enroll("victim", &mut ca, &ias, &mut rng)
        .expect("enroll");

    let server_key = SigningKey::generate(&mut rng);
    let server_cert =
        ca.issue_server_certificate("endbox-server", server_key.verifying_key(), 0, &mut rng);
    let mut server = EndBoxServer::new(EndBoxServerConfig {
        handshake: HandshakeConfig {
            identity: server_key,
            certificate: server_cert,
            ca_public: ca.public_key(),
            min_version: PROTOCOL_V1,
        },
        suite: endbox_vpn::CipherSuite::Aes128Gcm,
        server_click: None,
        cost: endbox_netsim::CostModel::calibrated(),
        meter: endbox_netsim::cost::CycleMeter::new(),
        clock: endbox_netsim::time::SharedClock::new(),
        rng_seed: 5,
    })
    .expect("server");

    let hello = client.connect_start().expect("hello");
    let mut response = None;
    for frag in &hello {
        if let Ok(Delivery::Established { response: r, .. }) = server.receive_datagram(0, frag) {
            response = Some(r);
        }
    }
    let response = response.expect("established");
    // MITM: reassemble, rewrite the chosen version to V1, re-fragment.
    let mut reasm = endbox_vpn::frag::Reassembler::new();
    let mut record_bytes = None;
    for frag in &response {
        if let Ok(Some(b)) = reasm.push(frag) {
            record_bytes = Some(b);
        }
    }
    let record = Record::from_bytes(&record_bytes.unwrap()).unwrap();
    let mut shello = ServerHello::from_bytes(&record.payload).unwrap();
    shello.chosen_version = PROTOCOL_V1;
    let tampered = Record {
        opcode: Opcode::HandshakeResp,
        session_id: record.session_id,
        packet_id: 0,
        payload: shello.to_bytes(),
    };
    let mut frag = endbox_vpn::frag::Fragmenter::new();
    for d in frag.fragment(&tampered.to_bytes(), 8_960) {
        match client.connect_complete(&d) {
            Ok(()) => return AttackOutcome::Breached("downgraded handshake accepted"),
            Err(EndBoxError::Vpn(VpnError::VersionTooLow { .. }))
            | Err(EndBoxError::Vpn(VpnError::BadSignature)) => {
                return AttackOutcome::Defended(
                    "the version check runs inside the enclave and the transcript is signed",
                );
            }
            Err(EndBoxError::NotReady(_)) => {} // more fragments
            Err(_) => return AttackOutcome::Defended("tampered response rejected"),
        }
    }
    AttackOutcome::Defended("handshake never completed on tampered input")
}

/// §V-A "Interface attacks": calling undeclared enclave entry points and
/// feeding malformed parameters.
pub fn interface_attack(scenario: &mut Scenario) -> AttackOutcome {
    // 1. Undeclared ecalls (arbitrary code-path probing): a name no
    // enclave has, and a name from the paper's TaLoS-style library surface
    // that this enclave implements no body for.
    for name in ["ecall_read_arbitrary_memory", "ecall_ssl_read"] {
        match scenario.clients[0].enclave_app().try_raw_ecall(name) {
            Err(EndBoxError::Enclave(EnclaveError::UndeclaredCall(_))) => {}
            _ => return AttackOutcome::Breached("undeclared ecall reachable"),
        }
    }
    // 2. Malformed record with an oversized length field (Iago-style).
    let mut evil_payload = vec![0u8; 40];
    evil_payload[17] = 0xff; // absurd length field
    let record = Record {
        opcode: Opcode::DataBatch,
        session_id: scenario.session_id(0),
        packet_id: 2,
        payload: evil_payload,
    };
    match scenario.clients[0]
        .enclave_app()
        .process_ingress_batch(&record)
    {
        Ok(_) => AttackOutcome::Breached("malformed record processed"),
        Err(_) => AttackOutcome::Defended(
            "ecall parameters are sanity-checked; undeclared calls rejected",
        ),
    }
}

/// §IV-A: an external attacker sets the 0xeb QoS byte hoping receiving
/// clients skip their middlebox.
pub fn qos_spoofing(scenario: &mut Scenario) -> AttackOutcome {
    let mut external = Packet::tcp(
        std::net::Ipv4Addr::new(198, 51, 100, 7), // outside the network
        Scenario::client_addr(0),
        4444,
        40_000,
        0,
        b"external packet with spoofed flag",
    );
    external.set_tos(QOS_ENDBOX_PROCESSED);
    scenario.server.sanitize_external(&mut external);
    if external.tos() == QOS_ENDBOX_PROCESSED {
        AttackOutcome::Breached("spoofed QoS flag survived the server")
    } else {
        AttackOutcome::Defended("server strips 0xeb from packets entering the network")
    }
}

/// §III-E: a malicious host crafts a ping announcing a bogus config
/// version to its own enclave (e.g. to freeze updates).
pub fn crafted_ping(scenario: &mut Scenario) -> AttackOutcome {
    let msg = endbox_vpn::ping::PingMessage {
        config_version: u64::MAX,
        grace_period_secs: u32::MAX,
        timestamp_ns: 0,
    };
    let mut payload = msg.to_bytes();
    payload.extend_from_slice(&[0u8; 32]); // forged tag
    let record = Record {
        opcode: Opcode::Ping,
        session_id: scenario.session_id(0),
        packet_id: 77,
        payload,
    };
    match scenario.clients[0].enclave_app().process_ping(&record) {
        Ok(_) => AttackOutcome::Breached("crafted ping accepted"),
        Err(EndBoxError::Vpn(VpnError::AuthenticationFailed)) => {
            AttackOutcome::Defended("ping authenticity is validated inside the enclave")
        }
        Err(_) => AttackOutcome::Defended("crafted ping rejected"),
    }
}

/// Runs the whole battery, returning named outcomes. Attacks that mutate
/// global policy or destroy enclaves run on their own fresh deployments.
pub fn run_all() -> Vec<(&'static str, AttackOutcome)> {
    let mut results = Vec::new();
    let mut s = Scenario::enterprise(2, UseCase::Firewall)
        .build()
        .expect("scenario");
    results.push(("bypass_middlebox", bypass_middlebox(&mut s)));
    results.push(("replay_traffic", replay_traffic(&mut s)));
    results.push(("config_rollback", config_rollback(&mut s)));
    results.push(("qos_spoofing", qos_spoofing(&mut s)));
    results.push(("crafted_ping", crafted_ping(&mut s)));
    results.push(("interface_attack", interface_attack(&mut s)));

    let mut s2 = Scenario::enterprise(2, UseCase::Firewall)
        .seed(0xa77)
        .build()
        .expect("scenario");
    results.push((
        "stale_config_after_grace",
        stale_config_after_grace(&mut s2),
    ));

    let mut s3 = Scenario::enterprise(2, UseCase::Firewall)
        .seed(0xa78)
        .build()
        .expect("scenario");
    results.push(("enclave_dos", enclave_dos(&mut s3)));

    results.push(("downgrade_attack", downgrade_attack()));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_is_defended() {
        for (name, outcome) in run_all() {
            assert!(outcome.defended(), "attack `{name}` breached: {outcome:?}");
        }
    }
}

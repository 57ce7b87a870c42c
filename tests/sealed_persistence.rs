//! Integration: §III-C step 7 — sealed enrollment state. "An enclave only
//! has to be attested once": after a restart, the client restores its
//! identity, certificate and config key from the sealed blob and
//! reconnects without any CA/IAS interaction.

use endbox::ca::CertificateAuthority;
use endbox::client::{EndBoxClient, EndBoxClientConfig};
use endbox::error::EndBoxError;
use endbox::server::{Delivery, EndBoxServer, EndBoxServerConfig};
use endbox_crypto::schnorr::SigningKey;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::time::SharedClock;
use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
use endbox_vpn::handshake::HandshakeConfig;
use endbox_vpn::{CipherSuite, PROTOCOL_V1};
use rand::SeedableRng;

struct World {
    ias: IasSimulator,
    ca: CertificateAuthority,
    cpu: CpuIdentity,
    rng: rand::rngs::StdRng,
}

fn world(seed: u8) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ea1 + seed as u64);
    let mut ias = IasSimulator::new(&mut rng);
    let cpu = CpuIdentity::from_seed([seed; 32]);
    ias.register_platform(cpu.attestation_public());
    let ca = CertificateAuthority::new(ias.public_key(), &mut rng);
    World { ias, ca, cpu, rng }
}

fn client(w: &World, subject: &str) -> EndBoxClient {
    let cfg = EndBoxClientConfig::new(subject, w.ca.public_key(), w.cpu.clone());
    EndBoxClient::new(cfg).unwrap()
}

fn server(w: &mut World) -> EndBoxServer {
    let key = SigningKey::generate(&mut w.rng);
    let cert =
        w.ca.issue_server_certificate("endbox-server", key.verifying_key(), 0, &mut w.rng);
    EndBoxServer::new(EndBoxServerConfig {
        handshake: HandshakeConfig {
            identity: key,
            certificate: cert,
            ca_public: w.ca.public_key(),
            min_version: PROTOCOL_V1,
        },
        suite: CipherSuite::Aes128Gcm,
        server_click: None,
        cost: CostModel::calibrated(),
        meter: CycleMeter::new(),
        clock: SharedClock::new(),
        rng_seed: 1,
    })
    .unwrap()
}

fn connect(client: &mut EndBoxClient, server: &mut EndBoxServer, peer: u64) {
    let hello = client.connect_start().unwrap();
    let mut response = None;
    for frag in &hello {
        if let Delivery::Established { response: r, .. } =
            server.receive_datagram(peer, frag).unwrap()
        {
            response = Some(r);
        }
    }
    for frag in &response.unwrap() {
        client.connect_complete(frag).unwrap();
    }
}

#[test]
fn restart_reconnects_without_reattestation() {
    let mut w = world(10);
    // First boot: full attestation.
    let mut first = client(&w, "laptop-1");
    w.ca.allow_measurement(first.enclave_app().measurement());
    let sealed = first
        .enroll("laptop-1", &mut w.ca, &w.ias, &mut w.rng)
        .unwrap();
    assert_eq!(w.ca.issued_count(), 1);

    // "Reboot": a brand-new client process on the same machine restores
    // from the sealed blob. No CA/IAS calls — issued_count stays put.
    let mut rebooted = client(&w, "laptop-1");
    rebooted.restore_enrollment(&sealed).unwrap();
    assert_eq!(w.ca.issued_count(), 1, "no re-attestation");

    // And it can establish a VPN session with the restored certificate.
    let mut srv = server(&mut w);
    connect(&mut rebooted, &mut srv, 0);
    assert!(rebooted.is_connected());
    let datagrams = rebooted
        .send_packet(endbox_netsim::Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 1, 0, 1),
            1,
            2,
            b"after reboot",
        ))
        .unwrap();
    let mut delivered = false;
    for d in &datagrams {
        if let Delivery::Packet { .. } = srv.receive_datagram(0, d).unwrap() {
            delivered = true;
        }
    }
    assert!(delivered);
}

#[test]
fn sealed_blob_is_bound_to_the_cpu() {
    let mut w = world(11);
    let mut first = client(&w, "laptop-2");
    w.ca.allow_measurement(first.enclave_app().measurement());
    let sealed = first
        .enroll("laptop-2", &mut w.ca, &w.ias, &mut w.rng)
        .unwrap();

    // An attacker copies the blob to a different machine.
    let other_cpu = CpuIdentity::from_seed([0x99; 32]);
    let cfg = EndBoxClientConfig::new("laptop-2", w.ca.public_key(), other_cpu);
    let mut thief = EndBoxClient::new(cfg).unwrap();
    let err = thief.restore_enrollment(&sealed).unwrap_err();
    assert_eq!(
        err,
        EndBoxError::Enrollment("sealed state failed to unseal")
    );
}

#[test]
fn sealed_blob_is_bound_to_the_enclave_code() {
    let mut w = world(12);
    let mut first = client(&w, "laptop-3");
    w.ca.allow_measurement(first.enclave_app().measurement());
    let sealed = first
        .enroll("laptop-3", &mut w.ca, &w.ias, &mut w.rng)
        .unwrap();

    // Same CPU, but a client binary built with a different CA key — its
    // measurement differs, so the sealing key differs.
    let other_ca = CertificateAuthority::new(w.ias.public_key(), &mut w.rng);
    let cfg = EndBoxClientConfig::new("laptop-3", other_ca.public_key(), w.cpu.clone());
    let mut other_build = EndBoxClient::new(cfg).unwrap();
    assert!(other_build.restore_enrollment(&sealed).is_err());
}

#[test]
fn tampered_blob_rejected() {
    let mut w = world(13);
    let mut first = client(&w, "laptop-4");
    w.ca.allow_measurement(first.enclave_app().measurement());
    let sealed = first
        .enroll("laptop-4", &mut w.ca, &w.ias, &mut w.rng)
        .unwrap();
    for i in [0usize, 16, sealed.len() / 2, sealed.len() - 1] {
        let mut t = sealed.clone();
        t[i] ^= 0x01;
        let mut fresh = client(&w, "laptop-4");
        assert!(fresh.restore_enrollment(&t).is_err(), "tamper at {i}");
    }
    let mut fresh = client(&w, "laptop-4");
    assert!(fresh.restore_enrollment(&[]).is_err());
}

//! Integration: the full Fig. 4 enrollment chain across `endbox-sgx`,
//! `endbox-vpn` and `endbox` — and every way it must fail.

use endbox::ca::CertificateAuthority;
use endbox::client::{EndBoxClient, EndBoxClientConfig};
use endbox::error::EndBoxError;
use endbox::interface::Ecall;
use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x1e57)
}

#[test]
fn full_enrollment_and_handshake() {
    let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
    assert_eq!(s.ca.issued_count(), 3, "2 clients + 1 server certificate");
    assert!(s.clients.iter().all(|c| c.is_connected()));
    // Both clients share the same enclave measurement (same build).
    let m0 = s.clients[0].enclave_app().measurement();
    let m1 = s.clients[1].enclave_app().measurement();
    assert_eq!(m0, m1);
}

#[test]
fn unknown_measurement_is_refused_by_ca() {
    let mut r = rng();
    let mut ias = IasSimulator::new(&mut r);
    let cpu = CpuIdentity::from_seed([1u8; 32]);
    ias.register_platform(cpu.attestation_public());
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut r);
    // CA never whitelists the measurement.
    let cfg = EndBoxClientConfig::new("rogue", ca.public_key(), cpu);
    let mut client = EndBoxClient::new(cfg).unwrap();
    let err = client.enroll("rogue", &mut ca, &ias, &mut r).unwrap_err();
    assert_eq!(err, EndBoxError::Enrollment("unknown enclave measurement"));
}

#[test]
fn revoked_platform_cannot_enroll() {
    let mut r = rng();
    let mut ias = IasSimulator::new(&mut r);
    let cpu = CpuIdentity::from_seed([2u8; 32]);
    ias.register_platform(cpu.attestation_public());
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut r);
    let cfg = EndBoxClientConfig::new("victim", ca.public_key(), cpu.clone());
    let mut client = EndBoxClient::new(cfg).unwrap();
    ca.allow_measurement(client.enclave_app().measurement());
    // Platform key leaked -> Intel revokes it.
    ias.revoke_platform(&cpu.attestation_public());
    let err = client.enroll("victim", &mut ca, &ias, &mut r).unwrap_err();
    assert_eq!(err, EndBoxError::Enrollment("IAS rejected the quote"));
}

#[test]
fn unregistered_platform_cannot_enroll() {
    let mut r = rng();
    let ias = IasSimulator::new(&mut r); // platform never provisioned
    let cpu = CpuIdentity::from_seed([3u8; 32]);
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut r);
    let cfg = EndBoxClientConfig::new("ghost", ca.public_key(), cpu);
    let mut client = EndBoxClient::new(cfg).unwrap();
    ca.allow_measurement(client.enclave_app().measurement());
    assert!(client.enroll("ghost", &mut ca, &ias, &mut r).is_err());
}

#[test]
fn wrong_ca_key_in_binary_rejects_enrollment_response() {
    // The enclave pins the CA public key at build time; a client built
    // with a different CA key must reject certificates from this CA.
    let mut r = rng();
    let mut ias = IasSimulator::new(&mut r);
    let cpu = CpuIdentity::from_seed([4u8; 32]);
    ias.register_platform(cpu.attestation_public());
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut r);
    let other_ca = CertificateAuthority::new(ias.public_key(), &mut r);

    // Client binary embeds *other_ca*'s key.
    let cfg = EndBoxClientConfig::new("confused", other_ca.public_key(), cpu);
    let mut client = EndBoxClient::new(cfg).unwrap();
    ca.allow_measurement(client.enclave_app().measurement());
    let err = client
        .enroll("confused", &mut ca, &ias, &mut r)
        .unwrap_err();
    assert_eq!(err, EndBoxError::Enrollment("CA signature invalid"));
}

#[test]
fn client_cannot_connect_before_enrollment() {
    let mut r = rng();
    let ias = IasSimulator::new(&mut r);
    let ca = CertificateAuthority::new(ias.public_key(), &mut r);
    let cfg = EndBoxClientConfig::new("eager", ca.public_key(), CpuIdentity::from_seed([5; 32]));
    let mut client = EndBoxClient::new(cfg).unwrap();
    assert!(matches!(
        client.connect_start(),
        Err(EndBoxError::NotReady(_))
    ));
}

#[test]
fn sending_before_handshake_fails() {
    let mut r = rng();
    let mut ias = IasSimulator::new(&mut r);
    let cpu = CpuIdentity::from_seed([6u8; 32]);
    ias.register_platform(cpu.attestation_public());
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut r);
    let cfg = EndBoxClientConfig::new("early", ca.public_key(), cpu);
    let mut client = EndBoxClient::new(cfg).unwrap();
    ca.allow_measurement(client.enclave_app().measurement());
    client.enroll("early", &mut ca, &ias, &mut r).unwrap();
    // Enrolled but not connected.
    let pkt = endbox_netsim::Packet::udp(
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        std::net::Ipv4Addr::new(10, 1, 0, 1),
        1,
        2,
        b"too early",
    );
    assert!(matches!(
        client.send_packet(pkt),
        Err(EndBoxError::NotReady(_))
    ));
}

#[test]
fn interface_matches_paper_dimensions() {
    // Steady state uses one ecall per packet (§IV-A); the §V-G ablation's
    // per-crypto-operation layout adds twelve body-less crossings, each
    // counted as an ecall.
    for (batched, per_packet) in [(true, 1), (false, 13)] {
        let mut s = Scenario::enterprise(1, UseCase::Nop)
            .batched_ecalls(batched)
            .build()
            .unwrap();
        assert_eq!(
            s.clients[0].enclave_app().raw_enclave_ecall_names(),
            Ecall::ALL.len()
        );
        let before = s.clients[0].enclave_app().transition_counters().ecalls;
        for _ in 0..10 {
            s.send_from_client(0, b"count my ecalls").unwrap();
        }
        let after = s.clients[0].enclave_app().transition_counters().ecalls;
        assert_eq!(after - before, 10 * per_packet, "batched: {batched}");
    }
}

//! Integration: the §V-A attack battery plus cross-crate attack variants
//! not covered by the built-in battery.

use endbox::attacks::run_all;
use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox::EndBoxError;
use endbox_vpn::frag::Fragmenter;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::VpnError;

#[test]
fn full_attack_battery_defended() {
    for (name, outcome) in run_all() {
        assert!(outcome.defended(), "attack `{name}`: {outcome:?}");
    }
}

#[test]
fn battery_names_cover_the_papers_discussion() {
    let names: Vec<&str> = run_all().into_iter().map(|(n, _)| n).collect();
    for expected in [
        "bypass_middlebox", // §V-A bypassing middlebox functions
        "config_rollback",  // §V-A old or invalid configurations
        "stale_config_after_grace",
        "replay_traffic",   // §V-A replaying traffic
        "enclave_dos",      // §V-A denial-of-service
        "downgrade_attack", // §V-A downgrade attacks
        "interface_attack", // §V-A interface attacks
        "qos_spoofing",     // §IV-A flag sanitisation
        "crafted_ping",     // §III-E ping authenticity
    ] {
        assert!(names.contains(&expected), "missing attack {expected}");
    }
}

#[test]
fn session_hijack_with_wrong_keys_fails() {
    // Client 1 tries to inject traffic into client 0's session.
    let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
    let datagrams = s.clients[1]
        .send_packet(endbox_netsim::Packet::tcp(
            Scenario::client_addr(1),
            Scenario::network_addr(),
            40_001,
            5001,
            0,
            b"hijack attempt",
        ))
        .unwrap();
    // Rewrite the session id on the wire to client 0's session.
    let mut reasm = endbox_vpn::frag::Reassembler::new();
    let mut record_bytes = None;
    for d in &datagrams {
        if let Some(b) = reasm.push(d).unwrap() {
            record_bytes = Some(b);
        }
    }
    let mut record = Record::from_bytes(&record_bytes.unwrap()).unwrap();
    record.session_id = s.session_id(0);
    record.opcode = Opcode::Data;
    let mut frag = endbox_vpn::frag::Fragmenter::new();
    for d in frag.fragment(&record.to_bytes(), 8_960) {
        let result = s.server.receive_datagram(0, &d);
        assert!(
            !matches!(result, Ok(endbox::server::Delivery::Packet { .. })),
            "hijacked record must not decrypt under another session's keys"
        );
    }
}

#[test]
fn truncated_and_garbage_datagrams_never_panic() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let cases: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x00],
        vec![0xff; 7],
        vec![0xff; 64],
        vec![0x01; 10_000],
        {
            // Valid fragment header, garbage record inside.
            let mut frag = endbox_vpn::frag::Fragmenter::new();
            frag.fragment(&[0xeb; 100], 8_960).remove(0)
        },
    ];
    for (i, datagram) in cases.iter().enumerate() {
        // Errors are fine; panics or deliveries are not.
        let result = s.server.receive_datagram(77, datagram);
        assert!(
            !matches!(result, Ok(endbox::server::Delivery::Packet { .. })),
            "case {i} must not deliver"
        );
    }
    // The server keeps working for the legitimate client.
    s.send_from_client(0, b"still alive").unwrap();
}

#[test]
fn client_ingress_rejects_garbage_without_panicking() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    for garbage in [vec![0u8; 3], vec![0xffu8; 40], vec![0x42u8; 2_000]] {
        let _ = s.clients[0].receive_datagram_batch(&garbage); // must not panic
    }
    s.send_from_client(0, b"still alive too").unwrap();
}

#[test]
fn dos_on_own_enclave_is_self_limiting() {
    let mut s = Scenario::enterprise(2, UseCase::Firewall).build().unwrap();
    s.clients[0].enclave_app().destroy();
    assert!(
        s.send_from_client(0, b"x").is_err(),
        "destroyed enclave cannot send"
    );
    // The neighbour and the network are unaffected.
    s.send_from_client(1, b"neighbour unaffected").unwrap();
    assert_eq!(s.server.session_count(), 2);
}

/// The client has one receive doorway, and it admits only what a server
/// seals for a client: `DataBatch` and `Ping`. A fragmented `Data`
/// record is turned away after reassembly and before any ecall, so it
/// costs no enclave transition and leaves the replay window alone: the
/// next genuine batch still delivers.
#[test]
fn client_doorway_rejects_data_records_before_the_enclave() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let sid = s.session_id(0);
    let record = Record {
        opcode: Opcode::Data,
        session_id: sid,
        packet_id: 1,
        payload: vec![0x5a; 300],
    };
    let fragments = Fragmenter::new().fragment_record(&record, 64);
    assert!(fragments.len() > 1, "the record must arrive in pieces");
    let ecalls = s.clients[0].enclave_app().transition_counters().ecalls;
    let (last, head) = fragments.split_last().unwrap();
    for fragment in head {
        let delivered = s.clients[0].receive_datagram_batch(fragment).unwrap();
        assert!(delivered.is_empty());
    }
    assert!(matches!(
        s.clients[0].receive_datagram_batch(last),
        Err(EndBoxError::Vpn(VpnError::Malformed(
            "unexpected record on data path"
        )))
    ));
    assert_eq!(
        s.clients[0].enclave_app().transition_counters().ecalls,
        ecalls,
        "a rejected record must not reach the enclave"
    );

    let packet = endbox_netsim::Packet::tcp(
        Scenario::network_addr(),
        Scenario::client_addr(0),
        80,
        40_000,
        0,
        b"genuine batch after the rejected record",
    );
    let mut delivered = Vec::new();
    for d in s.server.send_batch_to_client(sid, &[packet]).unwrap() {
        delivered.extend(s.clients[0].receive_datagram_batch(&d).unwrap());
    }
    assert_eq!(delivered.len(), 1);
    assert_eq!(
        delivered[0].app_payload(),
        b"genuine batch after the rejected record"
    );
    assert!(endbox::attacks::interface_attack(&mut s).defended());
}

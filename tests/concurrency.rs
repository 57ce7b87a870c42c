//! Integration: the client and server halves run on separate OS threads
//! connected by crossbeam channels (a stand-in for the UDP socket pair),
//! proving the whole stack is `Send` and behaves under asynchronous,
//! interleaved delivery from many clients at once.

use crossbeam::channel;
use endbox::scenario::Scenario;
use endbox::server::Delivery;
use endbox::use_cases::UseCase;
use endbox_netsim::Packet;
use std::thread;

/// One datagram on the simulated wire.
struct Wire {
    peer: u64,
    bytes: Vec<u8>,
}

#[test]
fn threaded_clients_stream_through_channel_server() {
    const CLIENTS: usize = 4;
    const PACKETS_PER_CLIENT: u32 = 50;

    let mut scenario = Scenario::enterprise(CLIENTS, UseCase::Firewall)
        .build()
        .unwrap();
    let (tx, rx) = channel::bounded::<Wire>(256);

    // Move the clients out onto worker threads, keep the server here.
    let clients = std::mem::take(&mut scenario.clients);
    let mut workers = Vec::new();
    for (i, mut client) in clients.into_iter().enumerate() {
        let tx = tx.clone();
        workers.push(thread::spawn(move || {
            for seq in 0..PACKETS_PER_CLIENT {
                let payload = format!("client {i} packet {seq}");
                let pkt = Packet::tcp(
                    Scenario::client_addr(i),
                    Scenario::network_addr(),
                    40_000 + i as u16,
                    5001,
                    seq,
                    payload.as_bytes(),
                );
                for datagram in client.send_packet(pkt).unwrap() {
                    tx.send(Wire {
                        peer: i as u64,
                        bytes: datagram,
                    })
                    .unwrap();
                }
            }
            client
        }));
    }
    drop(tx);

    // The server consumes interleaved datagrams from all clients.
    let mut delivered_per_client = [0u32; CLIENTS];
    while let Ok(wire) = rx.recv() {
        match scenario
            .server
            .receive_datagram(wire.peer, &wire.bytes)
            .unwrap()
        {
            Delivery::Packet { packet, .. } => {
                let text = String::from_utf8(packet.app_payload().to_vec()).unwrap();
                let who: usize = text.split_whitespace().nth(1).unwrap().parse().unwrap();
                delivered_per_client[who] += 1;
            }
            Delivery::Pending => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    for (i, &n) in delivered_per_client.iter().enumerate() {
        assert_eq!(n, PACKETS_PER_CLIENT, "client {i}");
    }
    // Join the workers; their stats survived the move.
    for w in workers {
        let client = w.join().unwrap();
        assert_eq!(client.stats.sent, PACKETS_PER_CLIENT as u64);
    }
}

#[test]
fn bidirectional_threads_echo_through_server() {
    let mut scenario = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
    let session_1 = scenario.session_id(1);

    let (to_server, from_clients) = channel::unbounded::<Wire>();
    let (to_client_1, at_client_1) = channel::unbounded::<Vec<u8>>();

    let mut clients = std::mem::take(&mut scenario.clients);
    let mut client_1 = clients.pop().unwrap();
    let mut client_0 = clients.pop().unwrap();

    // Client 0: sends 20 messages addressed to client 1.
    let sender = thread::spawn(move || {
        for seq in 0..20u32 {
            let pkt = Packet::tcp(
                Scenario::client_addr(0),
                Scenario::client_addr(1),
                40_000,
                40_001,
                seq,
                format!("c2c message {seq}").as_bytes(),
            );
            for datagram in client_0.send_packet(pkt).unwrap() {
                to_server
                    .send(Wire {
                        peer: 0,
                        bytes: datagram,
                    })
                    .unwrap();
            }
        }
    });

    // Client 1: receives and counts.
    let receiver = thread::spawn(move || {
        let mut received = 0u32;
        while let Ok(datagram) = at_client_1.recv() {
            received += client_1.receive_datagram_batch(&datagram).unwrap().len() as u32;
        }
        received
    });

    // Server thread body (runs inline): forward deliveries to client 1.
    while let Ok(wire) = from_clients.recv() {
        if let Delivery::Packet { packet, .. } = scenario
            .server
            .receive_datagram(wire.peer, &wire.bytes)
            .unwrap()
        {
            for d in scenario
                .server
                .send_batch_to_client(session_1, &[packet])
                .unwrap()
            {
                to_client_1.send(d).unwrap();
            }
        }
    }
    drop(to_client_1);

    sender.join().unwrap();
    assert_eq!(receiver.join().unwrap(), 20);
}

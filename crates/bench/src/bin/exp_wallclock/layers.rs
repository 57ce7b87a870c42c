//! Replays: the workload's generated records fed to a shadow instance of
//! one layer at a time, through that layer's public function. A replay
//! runs alone on the driver thread, so its figure is the layer's cost
//! without queueing or contention — what the layer *would* save if it
//! were free, not what it costs inside the threaded path.

use crate::workload::{packet_view, Generator, RecordPlan, Spec};
use endbox::use_cases::UseCase;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_crypto::aes::Aes128;
use endbox_crypto::hmac::hmac_sha256;
use endbox_crypto::modes::{cbc_decrypt, cbc_encrypt};
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::net::{OsWire, PollGroup, Token, Transport};
use endbox_netsim::{BufferPool, Packet, PacketBatch};
use endbox_sgx::enclave::EnclaveBuilder;
use endbox_snort::community;
use endbox_snort::engine::CompiledRules;
use endbox_vpn::channel::{CipherSuite, DataChannel, SessionKeys};
use endbox_vpn::frag::{Fragmenter, Reassembler};
use endbox_vpn::proto::{frame, Record};
use endbox_vpn::shard::materialize_frames;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Records sealed ahead of each timed open/reassemble/materialise sweep
/// (a record can be opened once: the replay window rejects repeats).
const SWEEP: usize = 32;

/// Accumulates only the time spent inside [`Stopwatch::time`], so a
/// replay can prepare fresh inputs between timed calls.
#[derive(Debug, Default)]
struct Stopwatch {
    timed_ns: u64,
    units: u64,
}

impl Stopwatch {
    fn time<R>(&mut self, units: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(f());
        self.timed_ns += start.elapsed().as_nanos() as u64;
        self.units += units as u64;
        out
    }
}

/// Repeats `step` for `budget` of wall time (at least once) and returns
/// the timed nanoseconds per unit.
fn ns_per_unit(budget: Duration, mut step: impl FnMut(&mut Stopwatch)) -> f64 {
    let mut sw = Stopwatch::default();
    let deadline = Instant::now() + budget;
    loop {
        step(&mut sw);
        if Instant::now() >= deadline {
            break;
        }
    }
    sw.timed_ns as f64 / sw.units.max(1) as f64
}

/// `(metric name, value, unit)` rows a replay produced.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Every replay for `spec`, each given `budget` of wall time. The records
/// come from the workload's own generator with the run's seed.
pub fn replay_all(spec: &Spec, seed: u64, budget: Duration) -> Rows {
    let mut gen = Generator::new(spec, seed);
    let mut plan = RecordPlan::default();
    let mut next_record = move || gen.next_record(0, &mut plan);
    let suite = if spec.isp {
        CipherSuite::IntegrityOnly
    } else {
        CipherSuite::Aes128CbcHmac
    };
    let mut rows = Rows::new();
    crypto(&mut next_record, budget, &mut rows);
    vpn(&mut next_record, suite, spec.batch, budget, &mut rows);
    click_and_snort(&mut next_record, spec.use_case, budget, &mut rows);
    ecall(budget, &mut rows);
    net(&mut next_record, suite, spec.clients, budget, &mut rows);
    rows
}

fn channel_pair(suite: CipherSuite) -> (DataChannel, DataChannel) {
    let keys = SessionKeys::derive(&[0x11; 32], &[0x22; 32], &[0x33; 32]);
    let cost = CostModel::calibrated();
    (
        DataChannel::client(&keys, suite, CycleMeter::new(), cost.clone()),
        DataChannel::server(&keys, suite, CycleMeter::new(), cost),
    )
}

/// One record's tunnel payloads (the IP packets the channel seals).
fn payload_refs(packets: &[Packet]) -> Vec<&[u8]> {
    packets.iter().map(Packet::bytes).collect()
}

fn crypto(next_record: &mut impl FnMut() -> Vec<Packet>, budget: Duration, rows: &mut Rows) {
    let aes = Aes128::new(&[0x42; 16]);
    let iv = [0x17; 16];
    let mac_key = [0x5a; 32];
    let blob = frame::encode(&payload_refs(&next_record()));
    let ciphertext = cbc_encrypt(&aes, &iv, &blob);
    rows.push((
        "crypto.aes_cbc_encrypt_ns_per_byte",
        ns_per_unit(budget, |sw| {
            sw.time(blob.len(), || cbc_encrypt(&aes, &iv, black_box(&blob)));
        }),
        "ns/B",
    ));
    rows.push((
        "crypto.aes_cbc_decrypt_ns_per_byte",
        ns_per_unit(budget, |sw| {
            sw.time(ciphertext.len(), || {
                cbc_decrypt(&aes, &iv, black_box(&ciphertext))
            })
            .expect("own ciphertext decrypts");
        }),
        "ns/B",
    ));
    rows.push((
        "crypto.hmac_sha256_ns_per_byte",
        ns_per_unit(budget, |sw| {
            sw.time(blob.len(), || hmac_sha256(&mac_key, black_box(&blob)));
        }),
        "ns/B",
    ));
}

fn vpn(
    next_record: &mut impl FnMut() -> Vec<Packet>,
    suite: CipherSuite,
    batch: usize,
    budget: Duration,
    rows: &mut Rows,
) {
    let mtu = CostModel::calibrated().mtu_payload;
    let session = 1;

    let packets = next_record();
    let (mut client, _) = channel_pair(suite);
    rows.push((
        "vpn.seal_batch_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let refs = payload_refs(&packets);
            sw.time(batch, || client.seal_batch(session, &refs));
        }),
        "ns/pkt",
    ));

    // A sweep seals SWEEP fresh records on a fresh channel pair, then
    // times the receive-side step on each of them.
    let mut sealed_sweep = |server: &mut Option<DataChannel>| -> Vec<Record> {
        let (mut client, fresh_server) = channel_pair(suite);
        *server = Some(fresh_server);
        (0..SWEEP)
            .map(|_| client.seal_batch(session, &payload_refs(&next_record())))
            .collect()
    };

    rows.push((
        "vpn.open_batch_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let mut server = None;
            let records = sealed_sweep(&mut server);
            let server = server.as_mut().expect("sweep installs the server side");
            for record in &records {
                sw.time(batch, || server.open_batch_frames(record))
                    .expect("own record opens");
            }
        }),
        "ns/pkt",
    ));

    let pool = BufferPool::new();
    let mut fragmenter = Fragmenter::new();
    let mut fragments_per_record = 0usize;
    let record_bytes = sealed_sweep(&mut None)[0].to_bytes();
    rows.push((
        "vpn.fragment_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let fragments = sw.time(batch, || fragmenter.fragment_in(&record_bytes, mtu, &pool));
            fragments_per_record = fragments.len();
            pool.give_many(fragments);
        }),
        "ns/pkt",
    ));
    rows.push((
        "vpn.fragments_per_record",
        fragments_per_record as f64,
        "count",
    ));

    let mut reassembler = Reassembler::new();
    rows.push((
        "vpn.reassemble_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            for record in sealed_sweep(&mut None) {
                let fragments = fragmenter.fragment(&record.to_bytes(), mtu);
                sw.time(batch, || {
                    let mut whole = None;
                    for fragment in &fragments {
                        whole = reassembler.push(fragment).expect("own fragments");
                    }
                    Record::from_bytes(&whole.expect("all fragments pushed"))
                })
                .expect("own record parses");
            }
        }),
        "ns/pkt",
    ));

    rows.push((
        "vpn.materialize_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let mut server = None;
            let records = sealed_sweep(&mut server);
            let server = server.as_mut().expect("sweep installs the server side");
            for record in &records {
                let frames = server.open_batch_frames(record).expect("own record opens");
                // Dropping the batch afterwards returns its buffers to the
                // pool, as delivery does on the datapath.
                sw.time(batch, || materialize_frames(&pool, frames))
                    .expect("generated frames are IPv4");
            }
        }),
        "ns/pkt",
    ));
}

fn click_and_snort(
    next_record: &mut impl FnMut() -> Vec<Packet>,
    use_case: UseCase,
    budget: Duration,
    rows: &mut Rows,
) {
    // The client's Click runs inside a hardware-mode enclave.
    let env = ElementEnv {
        in_enclave: true,
        hardware_mode: true,
        ..ElementEnv::default()
    };
    let mut router =
        Router::from_config(&use_case.click_config(), env).expect("use-case config parses");
    rows.push((
        "click.process_batch_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let packets = next_record();
            let n = packets.len();
            sw.time(n, || router.process_batch(PacketBatch::from(packets)));
        }),
        "ns/pkt",
    ));

    let rules = CompiledRules::compile(&community::paper_rules());
    rows.push((
        "snort.scan_ns_per_pkt",
        ns_per_unit(budget, |sw| {
            let packets = next_record();
            sw.time(packets.len(), || {
                for pkt in &packets {
                    black_box(rules.scan(&packet_view(pkt)));
                }
            });
        }),
        "ns/pkt",
    ));
}

fn ecall(budget: Duration, rows: &mut Rows) {
    let mut enclave = EnclaveBuilder::new(b"exp-wallclock-empty-enclave")
        .declare_ecalls(["ecall_noop"])
        .build(|_| ());
    rows.push((
        "sgx.ecall_ns_per_call",
        ns_per_unit(budget, |sw| {
            sw.time(1_000, || {
                for _ in 0..1_000 {
                    enclave
                        .ecall("ecall_noop", |_, _| black_box(()))
                        .expect("declared ecall");
                }
            });
        }),
        "ns/call",
    ));
}

/// Raw loopback sockets at the workload's datagram size: what the kernel
/// boundary costs with nothing of EndBox above the wire.
fn net(
    next_record: &mut impl FnMut() -> Vec<Packet>,
    suite: CipherSuite,
    clients: usize,
    budget: Duration,
    rows: &mut Rows,
) {
    let mtu = CostModel::calibrated().mtu_payload;
    let (mut client, _) = channel_pair(suite);
    let record = client.seal_batch(1, &payload_refs(&next_record()));
    let datagrams = Fragmenter::new().fragment(&record.to_bytes(), mtu);
    let n = datagrams.len();

    let wire = OsWire::new();
    let tx = wire.bind(1).expect("loopback socket");
    let rx = wire.bind(2).expect("loopback socket");
    let mut sent_ns = Stopwatch::default();
    let recv_ns_per_dgram = ns_per_unit(budget, |sw| {
        let mut outgoing = datagrams.clone();
        sent_ns
            .time(n, || tx.send_many(2, &mut outgoing))
            .expect("loopback send");
        assert!(outgoing.is_empty(), "loopback took the whole record");
        let mut got = Vec::with_capacity(n);
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < n {
            let before = got.len();
            sw.time(0, || rx.recv_many(n - before, &mut got));
            sw.units += (got.len() - before) as u64;
            assert!(Instant::now() < deadline, "loopback lost a datagram");
        }
        wire.pool().give_many(got.into_iter().map(|d| d.payload));
    });
    rows.push((
        "net.send_many_ns_per_dgram",
        sent_ns.timed_ns as f64 / sent_ns.units.max(1) as f64,
        "ns/dgram",
    ));
    rows.push(("net.recv_many_ns_per_dgram", recv_ns_per_dgram, "ns/dgram"));

    // One socket per client registered, one of them readable — the
    // level-triggered scan a paced record wakes the front-end with.
    let mut group = PollGroup::new();
    let sockets: Vec<_> = (0..clients)
        .map(|c| wire.bind(100 + c as u64).expect("loopback socket"))
        .collect();
    for (slot, socket) in sockets.iter().enumerate() {
        group.register(socket, Token(slot));
    }
    tx.send_to(100, datagrams[0].clone())
        .expect("loopback send");
    let deadline = Instant::now() + Duration::from_secs(2);
    while !sockets[0].readable() {
        assert!(Instant::now() < deadline, "loopback lost a datagram");
    }
    let mut events = Vec::with_capacity(clients);
    rows.push((
        "net.poll_ns_per_wakeup",
        ns_per_unit(budget, |sw| {
            sw.time(100, || {
                for _ in 0..100 {
                    events.clear();
                    black_box(group.poll(&mut events));
                }
            });
        }),
        "ns/wakeup",
    ));
}

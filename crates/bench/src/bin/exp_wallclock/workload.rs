//! The five traffic mixes, the seeded packet generator, and the output
//! check.

use endbox::scenario::{Scenario, ScenarioBuilder};
use endbox::use_cases::UseCase;
use endbox_netsim::net::TransportKind;
use endbox_netsim::Packet;
use endbox_snort::community;
use endbox_snort::engine::{CompiledRules, PacketView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How traffic enters the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorway {
    /// Call-driven, closed loop: every client seals one record, then one
    /// `ShardedEndBoxServer::receive_datagrams` call takes them all.
    Call,
    /// Event-driven over loopback UDP, closed loop, round trip: client →
    /// `AsyncFrontEnd` → server, and each delivered batch is echoed back
    /// through `TxBatcher` and opened by the client.
    SocketEcho,
    /// Event-driven over loopback UDP, open loop, one way: one record
    /// per tick of a fixed schedule, clients round-robin.
    SocketPaced,
}

impl Doorway {
    pub fn uses_sockets(self) -> bool {
        self != Doorway::Call
    }
}

/// One traffic mix. Later issues refer to workloads by `name`.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    /// `Scenario::isp` (integrity-only suite) instead of
    /// `Scenario::enterprise` (AES-128-CBC + HMAC).
    pub isp: bool,
    pub use_case: UseCase,
    pub clients: usize,
    /// Packets per record.
    pub batch: usize,
    /// Application payload bytes per packet.
    pub payload: usize,
    pub rx_shards: usize,
    pub doorway: Doorway,
    /// One packet of every record carries an IDS-triggering payload and
    /// must be dropped inside the client enclave.
    pub malicious: bool,
}

/// Worker (crypto shard) threads of every deployment.
pub const WORKERS: usize = 2;

/// Tick rate of [`Doorway::SocketPaced`]: about a fifth of the rate at
/// which the deployment can take `paced_socket`'s records.
pub const PACED_RECORDS_PER_SECOND: u64 = 200;

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "bulk_nop",
        why: "4 clients x 16x1460 B records, NOP, AES+HMAC, call-driven: byte-proportional \
              crypto and copies do the work, so crypto/copy and worker-parallelism changes show",
        isp: false,
        use_case: UseCase::Nop,
        clients: 4,
        batch: 16,
        payload: 1460,
        rx_shards: 1,
        doorway: Doorway::Call,
        malicious: false,
    },
    Spec {
        name: "small_manypeer",
        why: "32 clients x 4x64 B records, NOP, 2 RX shards, call-driven: per-record fixed \
              costs (ecall, MAC, reassembly, channel hand-off, re-merge) do the work, not bytes",
        isp: false,
        use_case: UseCase::Nop,
        clients: 32,
        batch: 4,
        payload: 64,
        rx_shards: 2,
        doorway: Doorway::Call,
        malicious: false,
    },
    Spec {
        name: "isp_idps",
        why: "ISP integrity-only suite, 377-rule IDPS, 1 packet in 16 malicious and dropped in \
              the enclave: Click + Aho-Corasick do the work and AES none; the only mix off the \
              fast path",
        isp: true,
        use_case: UseCase::Idps,
        clients: 4,
        batch: 16,
        payload: 1460,
        rx_shards: 1,
        doorway: Doorway::Call,
        malicious: true,
    },
    Spec {
        name: "socket_echo",
        why: "4 clients x 8x256 B records, firewall, loopback UDP round trip: the only closed \
              loop crossing the kernel, AsyncFrontEnd, PollGroup and TxBatcher, and the only \
              one using server seal + client open",
        isp: false,
        use_case: UseCase::Firewall,
        clients: 4,
        batch: 8,
        payload: 256,
        rx_shards: 1,
        doorway: Doorway::SocketEcho,
        malicious: false,
    },
    Spec {
        name: "paced_socket",
        why: "open loop, 200 records/s of 16x1460 B over loopback UDP at ~20% load, latency \
              from the due instant: a gain bought with batching delay shows here as worse \
              latency",
        isp: false,
        use_case: UseCase::Firewall,
        clients: 4,
        batch: 16,
        payload: 1460,
        rx_shards: 1,
        doorway: Doorway::SocketPaced,
        malicious: false,
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The deployment builder for this mix entered through `doorway`
    /// (the workload's own, or another one for a shadow pass). The
    /// deployment seed is the builder's default: the benchmark seed
    /// drives traffic, not key material.
    pub fn builder(&self, doorway: Doorway) -> ScenarioBuilder {
        let b = if self.isp {
            Scenario::isp(self.clients, self.use_case)
        } else {
            Scenario::enterprise(self.clients, self.use_case)
        };
        let b = b.rx_shards(self.rx_shards);
        if doorway.uses_sockets() {
            b.async_ingress(true).transport(TransportKind::OsSocket)
        } else {
            b
        }
    }

    /// The clients that send in round `round` through `doorway`.
    pub fn senders(&self, doorway: Doorway, round: u64) -> std::ops::Range<usize> {
        match doorway {
            Doorway::SocketPaced => {
                let c = (round % self.clients as u64) as usize;
                c..c + 1
            }
            Doorway::Call | Doorway::SocketEcho => 0..self.clients,
        }
    }
}

/// What one generated record must look like when it comes out.
#[derive(Debug, Default)]
pub struct RecordPlan {
    pub id: u64,
    /// Application payload of every generated packet, in send order
    /// (buffers are reused across rounds).
    pub payloads: Vec<Vec<u8>>,
    /// Which of them must be dropped by the middlebox.
    pub malicious: Vec<bool>,
}

impl RecordPlan {
    /// Payloads that must be delivered, in order.
    pub fn expected(&self) -> impl Iterator<Item = &[u8]> {
        self.payloads
            .iter()
            .zip(&self.malicious)
            .filter(|(_, &m)| !m)
            .map(|(p, _)| p.as_slice())
    }
}

const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Bytes of every payload that carry the record id and packet index
/// (base 36, lower case), so no two generated packets are equal.
const TAG_LEN: usize = 16;

/// Size of the seeded filler text payloads are cut from.
const FILLER_LEN: usize = 64 * 1024;

/// Seeded packet source. The same seed yields the same packets; nothing
/// else about the benchmark reaches the program under test.
///
/// Payloads are lower-case alphanumerics, which no `snort::community`
/// rule matches (every rule content starts with `EB-`); a malicious
/// packet additionally carries `community::triggering_payload(i)` for a
/// drop rule `i` at a seeded offset.
#[derive(Debug)]
pub struct Generator {
    rng: StdRng,
    filler: Vec<u8>,
    batch: usize,
    payload: usize,
    /// Trigger strings of the drop rules that match this generator's
    /// packet header (empty unless the mix is malicious).
    triggers: Vec<Vec<u8>>,
    next_record: u64,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        assert!(spec.payload >= TAG_LEN, "payload must hold the tag");
        let mut rng = StdRng::seed_from_u64(seed);
        let filler = (0..FILLER_LEN + spec.payload)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        let triggers = if spec.malicious {
            drop_rule_triggers(spec.payload - TAG_LEN)
        } else {
            Vec::new()
        };
        assert!(
            !spec.malicious || !triggers.is_empty(),
            "no community drop rule matches the generated header"
        );
        Generator {
            rng,
            filler,
            batch: spec.batch,
            payload: spec.payload,
            triggers,
            next_record: 0,
        }
    }

    /// Id the next record will get.
    pub fn next_record_id(&self) -> u64 {
        self.next_record
    }

    /// Builds the next record of `client` and writes what must come out
    /// of the system into `plan`.
    pub fn next_record(&mut self, client: usize, plan: &mut RecordPlan) -> Vec<Packet> {
        let id = self.next_record;
        self.next_record += 1;
        plan.id = id;
        plan.payloads.resize_with(self.batch, Vec::new);
        plan.malicious.clear();
        plan.malicious.resize(self.batch, false);
        if !self.triggers.is_empty() {
            plan.malicious[self.rng.gen_range(0..self.batch)] = true;
        }
        let mut packets = Vec::with_capacity(self.batch);
        for i in 0..self.batch {
            let payload = &mut plan.payloads[i];
            payload.clear();
            write_tag(payload, id, i);
            let start = self.rng.gen_range(0..FILLER_LEN);
            payload.extend_from_slice(&self.filler[start..start + self.payload - TAG_LEN]);
            if plan.malicious[i] {
                let trigger = &self.triggers[self.rng.gen_range(0..self.triggers.len())];
                let at = self.rng.gen_range(TAG_LEN..=self.payload - trigger.len());
                payload[at..at + trigger.len()].copy_from_slice(trigger);
            }
            packets.push(packet(
                client,
                (id as u32).wrapping_mul(64).wrapping_add(i as u32),
                payload,
            ));
        }
        packets
    }
}

fn write_tag(out: &mut Vec<u8>, record: u64, index: usize) {
    let mut v = record * 64 + index as u64;
    for _ in 0..TAG_LEN {
        out.push(ALPHABET[(v % 36) as usize]);
        v /= 36;
    }
}

/// The TCP packet client `client` sends (same addressing as
/// `ShardedScenario::send_batch_from_client`).
fn packet(client: usize, seq: u32, payload: &[u8]) -> Packet {
    Packet::tcp(
        Scenario::client_addr(client),
        Scenario::network_addr(),
        40_000 + client as u16,
        5_001,
        seq,
        payload,
    )
}

/// Trigger strings of the community rules that *drop* a packet with this
/// generator's header, found by asking the rule engine itself; triggers
/// longer than `max_len` do not fit the payload and are left out.
fn drop_rule_triggers(max_len: usize) -> Vec<Vec<u8>> {
    let rules = CompiledRules::compile(&community::paper_rules());
    (0..community::PAPER_RULE_COUNT)
        .map(community::triggering_payload)
        .filter(|trigger| trigger.len() <= max_len)
        .filter(|trigger| rules.scan(&packet_view(&packet(0, 0, trigger))).drop)
        .collect()
}

/// The rule engine's view of `pkt` (what `IDSMatcher` builds per packet).
pub fn packet_view(pkt: &Packet) -> PacketView<'_> {
    let header = pkt.header();
    PacketView {
        src: header.src,
        dst: header.dst,
        protocol: header.protocol.to_u8(),
        src_port: pkt.src_port(),
        dst_port: pkt.dst_port(),
        payload: pkt.app_payload(),
    }
}

/// Packets attempted, delivered byte-correct, and failed. A malicious
/// packet that was dropped as it had to be is attempted and neither good
/// nor failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub good: u64,
    pub failed: u64,
}

impl Tally {
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - earlier.attempted,
            good: self.good - earlier.good,
            failed: self.failed - earlier.failed,
        }
    }

    /// Checks one record's output against its plan: delivered count,
    /// source order and payload bytes; a malicious packet must be absent.
    /// `errored` marks a record one of whose calls returned `Err`.
    pub fn check(&mut self, plan: &RecordPlan, delivered: &[Packet], errored: bool) {
        let attempted = plan.payloads.len() as u64;
        self.attempted += attempted;
        if errored {
            self.failed += attempted;
            return;
        }
        let mut expected = 0u64;
        let mut good = 0u64;
        for (i, want) in plan.expected().enumerate() {
            expected += 1;
            if delivered
                .get(i)
                .is_some_and(|got| got.app_payload() == want)
            {
                good += 1;
            }
        }
        // Anything beyond the expected count was delivered when it had to
        // be dropped (or was invented by the system).
        let extra = (delivered.len() as u64).saturating_sub(expected);
        self.good += good;
        self.failed += (expected - good + extra).min(attempted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(spec: &Spec, seed: u64, records: usize) -> Vec<(Vec<Vec<u8>>, Vec<bool>)> {
        let mut g = Generator::new(spec, seed);
        let mut plan = RecordPlan::default();
        (0..records)
            .map(|r| {
                let packets = g.next_record(r % spec.clients, &mut plan);
                assert_eq!(plan.id, r as u64);
                (
                    packets.iter().map(|p| p.bytes().to_vec()).collect(),
                    plan.malicious.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for spec in &SPECS {
            let a = collect(spec, 7, 6);
            assert_eq!(
                a,
                collect(spec, 7, 6),
                "{}: same seed, same packets",
                spec.name
            );
            assert_ne!(
                a,
                collect(spec, 8, 6),
                "{}: seed changes packets",
                spec.name
            );
        }
    }

    #[test]
    fn payloads_have_the_stated_size_and_alphabet() {
        for spec in &SPECS {
            let mut g = Generator::new(spec, 1);
            let mut plan = RecordPlan::default();
            let packets = g.next_record(0, &mut plan);
            assert_eq!(packets.len(), spec.batch);
            for (pkt, (payload, &malicious)) in packets
                .iter()
                .zip(plan.payloads.iter().zip(&plan.malicious))
            {
                assert_eq!(pkt.app_payload(), payload.as_slice());
                assert_eq!(payload.len(), spec.payload);
                let benign = payload.iter().all(|b| ALPHABET.contains(b));
                assert_eq!(benign, !malicious, "only triggers leave the alphabet");
            }
            assert_eq!(
                plan.malicious.iter().filter(|&&m| m).count(),
                usize::from(spec.malicious)
            );
        }
    }

    #[test]
    fn every_packet_of_a_run_is_distinct() {
        let spec = spec_by_name("small_manypeer").unwrap();
        let mut seen = std::collections::HashSet::new();
        for (packets, _) in collect(spec, 3, 64) {
            for p in packets {
                assert!(seen.insert(p));
            }
        }
    }

    #[test]
    fn malicious_triggers_are_dropped_by_the_rule_engine() {
        let triggers = drop_rule_triggers(1460 - TAG_LEN);
        assert!(triggers.len() >= 2, "several drop rules match the header");
        assert!(triggers.iter().all(|t| t.starts_with(b"xxxx EB-MAL-")));
    }

    #[test]
    fn check_counts_misses_extras_and_errors() {
        let spec = spec_by_name("isp_idps").unwrap();
        let mut g = Generator::new(spec, 5);
        let mut plan = RecordPlan::default();
        let packets = g.next_record(1, &mut plan);
        let benign: Vec<Packet> = packets
            .iter()
            .zip(&plan.malicious)
            .filter(|(_, &m)| !m)
            .map(|(p, _)| p.clone())
            .collect();

        let mut t = Tally::default();
        t.check(&plan, &benign, false);
        assert_eq!((t.attempted, t.good, t.failed), (16, 15, 0));

        // The malicious packet got through: one extra delivery.
        let mut t = Tally::default();
        t.check(&plan, &packets, false);
        assert!(t.failed >= 1 && t.failed <= 16);

        // One packet lost: everything behind it is out of place.
        let mut t = Tally::default();
        t.check(&plan, &benign[1..], false);
        assert_eq!(t.good + t.failed, 15);
        assert!(t.failed >= 1);

        let mut t = Tally::default();
        t.check(&plan, &benign, true);
        assert_eq!((t.good, t.failed), (0, 16));
    }

    #[test]
    fn paced_rounds_rotate_over_the_clients() {
        let spec = spec_by_name("paced_socket").unwrap();
        let order: Vec<usize> = (0..6)
            .map(|r| spec.senders(Doorway::SocketPaced, r).start)
            .collect();
        assert_eq!(order, [0, 1, 2, 3, 0, 1]);
        assert_eq!(spec.senders(Doorway::Call, 5), 0..4);
    }
}

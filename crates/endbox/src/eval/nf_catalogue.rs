//! The stateful NF catalogue over the order-preserving batched datapath.
//!
//! PR 9 made `Router::process_batch` order-preserving across arbitrary
//! fan-out/re-merge graphs, which unblocks running *stateful* network
//! functions — NAT, rate limiting, connection tracking — on the batched
//! path: their flow tables observe packets in exactly the order
//! one-at-a-time pushes would feed them, so batching is purely a
//! boundary-cost optimisation and never a semantic change.
//!
//! This experiment installs a realistic stateful chain (connection
//! tracker → stateful NAT → token bucket, with a `Tee` accounting
//! fan-out) through the paper's Fig. 5 reconfiguration cycle and drives
//! three adversarial traffic mixes through the full EndBox-SGX stack:
//!
//! * **flood** — a small number of flows at line rate (NAT table is hot,
//!   every packet hits an established mapping);
//! * **heavy-tail** — two elephant flows carrying most bytes plus a tail
//!   of one-packet mice (constant flow-table churn);
//! * **frag-mix** — alternating oversize packets (fragmented by the VPN
//!   into several datagrams) and minimum-size runts (worst case for
//!   per-record framing).
//!
//! Each mix is measured twice on fresh scenarios: per-packet ecalls
//! (`batch = 1`) vs the batched datapath (`batch = 16`). The win comes
//! from amortising the enclave transition, Click traversal set-up and
//! record seal over the batch; the 1.3x floor is a row of
//! [`crate::eval::CLAIMS`].

use super::table::{cells, Table};
use super::throughput::replay_mbps;
use crate::scenario::Scenario;
use crate::use_cases::UseCase;
use endbox_netsim::pipeline::PacketCharge;
use endbox_netsim::traffic::benign_payload;
use endbox_netsim::Packet;
use rand::SeedableRng;

/// Batch depth of the batched datapath run (matches
/// [`crate::eval::throughput::DEFAULT_BATCH_SIZE`]).
pub const NF_BATCH: usize = 16;

/// The three traffic mixes, in report order.
pub const NF_MIXES: [&str; 3] = ["flood", "heavy-tail", "frag-mix"];

/// The stateful chain installed via the Fig. 5 cycle. The `Tee` fans
/// every packet out to an accounting branch, so the batched traversal
/// exercises the order-preserving fan-out scheduler on the hot path.
pub fn nf_chain_config() -> &'static str {
    "FromDevice(tun0) -> ct :: ConnTracker(MAX 4096) -> tee :: Tee(2);\n\
     tee[0] -> nat :: IPRewriter(SRC 198.51.100.7, PORTS 20000 60000)\n\
       -> tb :: TokenBucket(RATE 100000000, BURST 1000000) -> ToDevice(tun0);\n\
     tee[1] -> acct :: Counter -> Discard;\n\
     ct[1] -> Discard; nat[1] -> Discard; tb[1] -> Discard;"
}

/// Builds the deterministic packet list for `mix`. Every packet carries
/// its position in the first four payload bytes so order preservation is
/// checkable end to end (the NAT rewrites addresses/ports, not payloads).
///
/// # Panics
///
/// Panics on an unknown mix name (a bug in the caller).
pub fn mix_packets(mix: &str) -> Vec<Packet> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9f21);
    let mut packets = Vec::new();
    let mut push = |packets: &mut Vec<Packet>, flow: u16, len: usize| {
        let idx = packets.len() as u32;
        let mut payload = benign_payload(len.max(4), &mut rng);
        payload[..4].copy_from_slice(&idx.to_be_bytes());
        packets.push(Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            40_000 + flow,
            5_001,
            idx,
            &payload,
        ));
    };
    match mix {
        // 48 packets over 4 flows: NAT and conntrack tables stay hot.
        "flood" => {
            for i in 0..48u16 {
                push(&mut packets, i % 4, 512);
            }
        }
        // 2 elephants carry 32 MTU-sized packets; 16 mice send one runt
        // each, interleaved, so the flow table churns mid-batch.
        "heavy-tail" => {
            for i in 0..48u16 {
                if i % 3 == 2 {
                    push(&mut packets, 100 + i / 3, 96);
                } else {
                    push(&mut packets, i % 2, 1_400);
                }
            }
        }
        // Oversize packets that fragment into several VPN datagrams,
        // alternating with minimum-size runts, over 8 flows.
        "frag-mix" => {
            for i in 0..32u16 {
                push(&mut packets, i % 8, if i % 2 == 0 { 2_900 } else { 64 });
            }
        }
        other => panic!("unknown NF mix {other}"),
    }
    packets
}

/// Stateful-element activity read back from the client's Click handlers
/// after the batched run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfChainStats {
    /// NAT flow-table entries.
    pub nat_flows: u64,
    /// Packets rewritten by the NAT.
    pub nat_rewritten: u64,
    /// Connection-tracker flow entries.
    pub conn_flows: u64,
    /// Token-bucket conformant packets.
    pub conformed: u64,
    /// Copies produced by the accounting `Tee` branch.
    pub fanout_copies: u64,
}

fn handler_u64(scenario: &mut Scenario, element: &str, handler: &str) -> u64 {
    scenario.clients[0]
        .click_handler(element, handler)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs `mix` packets through a fresh EndBox-SGX NOP scenario with the
/// NF chain installed, `samples` replays at the given batch depth.
/// Returns the per-packet charge plus the chain's handler stats, and
/// asserts end-to-end order preservation on every replay.
fn run_mix(mix: &str, batch_size: usize, samples: usize) -> (PacketCharge, NfChainStats) {
    let packets = mix_packets(mix);
    let mut scenario = Scenario::enterprise(1, UseCase::Nop)
        .seed(0x9f00)
        .build()
        .expect("scenario must build");
    scenario
        .update_config(nf_chain_config(), 0)
        .expect("NF chain must install");

    let client_meter = scenario.clients[0].meter().clone();
    let server_meter = scenario.server_meter.clone();

    // One un-metered warm-up replay: flow tables reach steady state and
    // first-use costs stay out of the measurement, identically for the
    // single and batched runs.
    drive(&mut scenario, &packets, batch_size);
    client_meter.take();
    server_meter.take();

    let mut wire_total = 0usize;
    let mut frag_total = 0usize;
    for _ in 0..samples {
        let (wire, frags) = drive(&mut scenario, &packets, batch_size);
        wire_total += wire;
        frag_total += frags;
    }

    let total = (samples * packets.len()) as u64;
    let avg_bytes = packets.iter().map(Packet::len).sum::<usize>() / packets.len();
    let charge = PacketCharge {
        payload_bytes: avg_bytes,
        wire_bytes: wire_total / total as usize,
        fragments: (frag_total.div_ceil(total as usize)).max(1),
        client_cycles: client_meter.take() / total,
        server_cycles: server_meter.take() / total,
        dropped: false,
    };
    let stats = NfChainStats {
        nat_flows: handler_u64(&mut scenario, "nat", "flows"),
        nat_rewritten: handler_u64(&mut scenario, "nat", "rewritten"),
        conn_flows: handler_u64(&mut scenario, "ct", "flows"),
        conformed: handler_u64(&mut scenario, "tb", "conformed"),
        fanout_copies: handler_u64(&mut scenario, "acct", "count"),
    };
    (charge, stats)
}

/// Pushes one replay of `packets` through the client and server at the
/// given batch depth; returns (wire bytes, datagram count) and asserts
/// that the server delivered every packet in its original order.
fn drive(scenario: &mut Scenario, packets: &[Packet], batch_size: usize) -> (usize, usize) {
    let mut wire = 0usize;
    let mut frags = 0usize;
    let mut delivered: Vec<Packet> = Vec::with_capacity(packets.len());
    for chunk in packets.chunks(batch_size) {
        let batch: Vec<Packet> = chunk.to_vec();
        let datagrams = if batch_size == 1 {
            let [pkt] = <[Packet; 1]>::try_from(batch).expect("chunk of one");
            scenario.clients[0].send_packet(pkt).expect("send")
        } else {
            scenario.clients[0].send_batch(batch).expect("send batch")
        };
        frags += datagrams.len();
        wire += datagrams.iter().map(Vec::len).sum::<usize>();
        let mut per_record = scenario.deliver(vec![(0, datagrams)]).expect("deliver");
        delivered.extend(per_record.pop().expect("one record in, one record out"));
    }
    assert_eq!(
        delivered.len(),
        packets.len(),
        "the NF chain must not drop conformant traffic"
    );
    for (i, pkt) in delivered.iter().enumerate() {
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&pkt.app_payload()[..4]);
        assert_eq!(
            u32::from_be_bytes(tag),
            i as u32,
            "order violated at delivery position {i} (batch {batch_size})"
        );
    }
    (wire, frags)
}

/// Replays of each mix per measurement.
const NF_SAMPLES: usize = 6;

/// `BENCH_nf.json` — the full grid: every mix, per-packet ecalls vs the
/// batch-[`NF_BATCH`] datapath, plus the stateful chain's activity in the
/// batched run.
///
/// # Panics
///
/// Panics if a replay reorders or drops packets, or if the stateful
/// chain did no stateful work (the NAT saw no flows, or the token bucket
/// did not conform exactly the NAT-rewritten stream).
pub fn nf_catalogue() -> Table {
    let mut table = Table::new(
        "nf",
        format!(
            "Stateful NF catalogue: ConnTracker -> IPRewriter (NAT) -> TokenBucket with Tee \
             accounting fan-out\n    EndBox SGX[NOP] stack, chain installed via the Fig. 5 \
             cycle; per-packet ecalls vs batch-{NF_BATCH} datapath, {NF_SAMPLES} replays per \
             mix; delivery order asserted on every replay"
        ),
        &[
            ("mix", 0),
            ("packets", 0),
            ("avg_bytes", 0),
            ("batch", 0),
            ("single_mbps", 4),
            ("batched_mbps", 4),
            ("speedup", 4),
            ("nat_flows", 0),
            ("nat_rewritten", 0),
            ("conn_flows", 0),
            ("conformed", 0),
            ("fanout_copies", 0),
        ],
        (
            &[],
            "mix",
            &[
                "packets",
                "avg_bytes",
                "single_mbps",
                "batched_mbps",
                "speedup",
                "nat_flows",
                "nat_rewritten",
                "conn_flows",
                "conformed",
                "fanout_copies",
            ],
        ),
    );
    for mix in NF_MIXES {
        let packets = mix_packets(mix);
        let avg_bytes = packets.iter().map(Packet::len).sum::<usize>() / packets.len();
        let single_mbps = replay_mbps(run_mix(mix, 1, NF_SAMPLES).0);
        let (batched_charge, stats) = run_mix(mix, NF_BATCH, NF_SAMPLES);
        let batched_mbps = replay_mbps(batched_charge);
        assert!(stats.nat_flows > 0, "{mix}: NAT saw no flows");
        assert_eq!(
            stats.conformed, stats.nat_rewritten,
            "{mix}: token bucket must conform exactly the NAT-rewritten stream"
        );
        let stats = [
            stats.nat_flows,
            stats.nat_rewritten,
            stats.conn_flows,
            stats.conformed,
            stats.fanout_copies,
        ];
        let speedup = batched_mbps / single_mbps;
        let keys = cells![mix, packets.len(), avg_bytes, NF_BATCH];
        let mbps = cells![single_mbps, batched_mbps, speedup];
        table.push(keys.chain(mbps).chain(stats.map(Into::into)));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_tagged() {
        for mix in NF_MIXES {
            let a = mix_packets(mix);
            let b = mix_packets(mix);
            assert_eq!(a.len(), b.len(), "{mix}");
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.bytes(), y.bytes(), "{mix} packet {i}");
                let mut tag = [0u8; 4];
                tag.copy_from_slice(&x.app_payload()[..4]);
                assert_eq!(u32::from_be_bytes(tag), i as u32, "{mix} tag {i}");
            }
        }
    }

    #[test]
    fn frag_mix_actually_fragments() {
        let packets = mix_packets("frag-mix");
        assert!(packets.iter().any(|p| p.len() > 2_000), "needs oversize");
        assert!(packets.iter().any(|p| p.len() < 200), "needs runts");
    }

    #[test]
    fn batched_nf_chain_beats_single_by_1_3x() {
        // The CI floor: the batched datapath must win by >= 1.3x on the
        // flood mix (the headline ecall-amortisation case). Order
        // preservation is asserted inside every run_mix replay.
        let (single, _) = run_mix("flood", 1, 4);
        let (batched, stats) = run_mix("flood", NF_BATCH, 4);
        let single_mbps = replay_mbps(single);
        let batched_mbps = replay_mbps(batched);
        assert!(
            batched_mbps >= 1.3 * single_mbps,
            "flood speedup regressed: single={single_mbps:.1} batched={batched_mbps:.1}"
        );
        // The stateful chain actually did stateful work.
        assert_eq!(stats.nat_flows, 4, "flood has 4 flows");
        assert_eq!(stats.conn_flows, 4);
        assert!(stats.nat_rewritten >= 48 * 5, "{stats:?}");
        assert_eq!(stats.conformed, stats.nat_rewritten, "{stats:?}");
        assert_eq!(stats.fanout_copies, stats.nat_rewritten, "{stats:?}");
    }

    #[test]
    fn heavy_tail_and_frag_mix_preserve_order_and_win() {
        for (mix, floor) in [("heavy-tail", 1.3), ("frag-mix", 1.3)] {
            let (single, _) = run_mix(mix, 1, 2);
            let (batched, stats) = run_mix(mix, NF_BATCH, 2);
            let s = replay_mbps(single);
            let b = replay_mbps(batched);
            assert!(
                b >= floor * s,
                "{mix} speedup regressed: single={s:.1} batched={b:.1} floor={floor}"
            );
            assert!(stats.nat_flows > 0, "{mix}: {stats:?}");
        }
    }
}

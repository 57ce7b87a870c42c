//! `IPFilter`: the firewall element ("We use the IPFilter Click element
//! without any code modifications. For our evaluation we use a set of 16
//! rules that do not match any packet", §V-B).
//!
//! Rule syntax (one rule per configuration argument, evaluated top-down;
//! first match decides):
//!
//! ```text
//! allow src host 10.0.0.1 && dst port 80
//! deny src net 192.168.0.0/16
//! drop proto udp && dst port 53
//! allow all
//! ```

use crate::element::{Element, ElementContext, ElementEnv};
use endbox_netsim::packet::IpProtocol;
use endbox_netsim::Packet;
use std::net::Ipv4Addr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterAction {
    Allow,
    Deny,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Predicate {
    All,
    SrcHost(Ipv4Addr),
    DstHost(Ipv4Addr),
    SrcNet(Ipv4Addr, u8),
    DstNet(Ipv4Addr, u8),
    SrcPort(u16, u16),
    DstPort(u16, u16),
    Proto(IpProtocol),
}

impl Predicate {
    fn matches(&self, pkt: &Packet) -> bool {
        let header = pkt.header();
        match self {
            Predicate::All => true,
            Predicate::SrcHost(a) => header.src == *a,
            Predicate::DstHost(a) => header.dst == *a,
            Predicate::SrcNet(base, p) => in_net(header.src, *base, *p),
            Predicate::DstNet(base, p) => in_net(header.dst, *base, *p),
            Predicate::SrcPort(lo, hi) => pkt.src_port().is_some_and(|p| (*lo..=*hi).contains(&p)),
            Predicate::DstPort(lo, hi) => pkt.dst_port().is_some_and(|p| (*lo..=*hi).contains(&p)),
            Predicate::Proto(proto) => header.protocol == *proto,
        }
    }
}

fn in_net(addr: Ipv4Addr, base: Ipv4Addr, prefix: u8) -> bool {
    let mask = if prefix == 0 {
        0
    } else {
        u32::MAX << (32 - prefix as u32)
    };
    (u32::from(addr) & mask) == (u32::from(base) & mask)
}

#[derive(Debug, Clone)]
struct FilterRule {
    action: FilterAction,
    conjuncts: Vec<Predicate>,
}

impl FilterRule {
    fn matches(&self, pkt: &Packet) -> bool {
        self.conjuncts.iter().all(|p| p.matches(pkt))
    }
}

/// The firewall element. Allowed packets go to output 0; denied packets
/// go to output 1 if connected, otherwise they are dropped. Packets
/// matching no rule are allowed (configurations end with an explicit
/// catch-all in practice).
#[derive(Debug)]
pub struct IpFilter {
    rules: Vec<FilterRule>,
    allowed: u64,
    denied: u64,
}

impl IpFilter {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        if args.is_empty() {
            return Err("IPFilter needs at least one rule".into());
        }
        let rules = args
            .iter()
            .map(|a| parse_rule(a))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(IpFilter {
            rules,
            allowed: 0,
            denied: 0,
        }))
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

fn parse_rule(text: &str) -> Result<FilterRule, String> {
    let text = text.trim();
    let (action_tok, rest) = text
        .split_once(char::is_whitespace)
        .unwrap_or((text, "all"));
    let action = match action_tok {
        "allow" | "accept" | "pass" => FilterAction::Allow,
        "deny" | "drop" | "reject" => FilterAction::Deny,
        other => return Err(format!("unknown filter action `{other}`")),
    };
    let mut conjuncts = Vec::new();
    for clause in rest.split("&&") {
        conjuncts.push(parse_predicate(clause.trim())?);
    }
    Ok(FilterRule { action, conjuncts })
}

fn parse_predicate(clause: &str) -> Result<Predicate, String> {
    let toks: Vec<&str> = clause.split_whitespace().collect();
    match toks.as_slice() {
        ["all"] | [] => Ok(Predicate::All),
        ["proto", p] => match *p {
            "tcp" => Ok(Predicate::Proto(IpProtocol::Tcp)),
            "udp" => Ok(Predicate::Proto(IpProtocol::Udp)),
            "icmp" => Ok(Predicate::Proto(IpProtocol::Icmp)),
            other => Err(format!("unknown protocol `{other}`")),
        },
        [dir @ ("src" | "dst"), "host", addr] => {
            let a: Ipv4Addr = addr.parse().map_err(|_| format!("bad host `{addr}`"))?;
            Ok(if *dir == "src" {
                Predicate::SrcHost(a)
            } else {
                Predicate::DstHost(a)
            })
        }
        [dir @ ("src" | "dst"), "net", net] => {
            let (base, prefix) = net
                .split_once('/')
                .ok_or_else(|| format!("bad net `{net}`"))?;
            let base: Ipv4Addr = base.parse().map_err(|_| format!("bad net `{net}`"))?;
            let prefix: u8 = prefix.parse().map_err(|_| format!("bad net `{net}`"))?;
            if prefix > 32 {
                return Err(format!("prefix out of range `{net}`"));
            }
            Ok(if *dir == "src" {
                Predicate::SrcNet(base, prefix)
            } else {
                Predicate::DstNet(base, prefix)
            })
        }
        [dir @ ("src" | "dst"), "port", spec] => {
            let (lo, hi) = if let Some((lo, hi)) = spec.split_once('-') {
                (
                    lo.parse().map_err(|_| format!("bad port `{spec}`"))?,
                    hi.parse().map_err(|_| format!("bad port `{spec}`"))?,
                )
            } else {
                let p: u16 = spec.parse().map_err(|_| format!("bad port `{spec}`"))?;
                (p, p)
            };
            if lo > hi {
                return Err(format!("inverted port range `{spec}`"));
            }
            Ok(if *dir == "src" {
                Predicate::SrcPort(lo, hi)
            } else {
                Predicate::DstPort(lo, hi)
            })
        }
        _ => Err(format!("cannot parse predicate `{clause}`")),
    }
}

impl Element for IpFilter {
    fn class_name(&self) -> &'static str {
        "IPFilter"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        ctx.env.meter.add(ctx.env.cost.fw_cycles(self.rules.len()));
        let action = self
            .rules
            .iter()
            .find(|r| r.matches(&pkt))
            .map_or(FilterAction::Allow, |r| r.action);
        match action {
            FilterAction::Allow => {
                self.allowed += 1;
                ctx.output(0, pkt);
            }
            FilterAction::Deny => {
                self.denied += 1;
                ctx.output(1, pkt);
            }
        }
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "allowed" => Some(self.allowed.to_string()),
            "denied" => Some(self.denied.to_string()),
            "rules" => Some(self.rules.len().to_string()),
            _ => None,
        }
    }
}

/// The paper's evaluation firewall: 16 rules that match no evaluation
/// packet, ending in an allow-all (§V-B).
pub fn evaluation_rules() -> Vec<String> {
    let mut rules: Vec<String> = (0..15)
        .map(|i| {
            format!(
                "deny src host 203.0.113.{} && dst port {}",
                i + 1,
                20_000 + i * 13
            )
        })
        .collect();
    rules.push("allow all".to_string());
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementEnv;

    fn tcp(dst_port: u16) -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 5),
            Ipv4Addr::new(10, 0, 1, 9),
            40000,
            dst_port,
            0,
            b"p",
        )
    }

    fn run(f: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let env = ElementEnv::default();
        let mut outputs = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = ElementContext::new(&mut outputs, &mut emitted, &env);
        f.process(0, p, &mut ctx);
        outputs
    }

    #[test]
    fn first_match_decides() {
        let env = ElementEnv::default();
        let mut f = IpFilter::factory(
            &[
                "deny dst port 23".into(),
                "allow all".into(),
                "deny all".into(),
            ],
            &env,
        )
        .unwrap();
        assert_eq!(run(f.as_mut(), tcp(23))[0].0, 1); // denied
        assert_eq!(run(f.as_mut(), tcp(80))[0].0, 0); // allowed by rule 2
        assert_eq!(f.read_handler("allowed").as_deref(), Some("1"));
        assert_eq!(f.read_handler("denied").as_deref(), Some("1"));
    }

    #[test]
    fn conjunction_requires_all_terms() {
        let env = ElementEnv::default();
        let mut f = IpFilter::factory(
            &[
                "deny src host 10.0.0.5 && dst port 22".into(),
                "allow all".into(),
            ],
            &env,
        )
        .unwrap();
        assert_eq!(run(f.as_mut(), tcp(22))[0].0, 1);
        assert_eq!(run(f.as_mut(), tcp(80))[0].0, 0); // port differs
    }

    #[test]
    fn net_and_range_predicates() {
        let env = ElementEnv::default();
        let mut f = IpFilter::factory(
            &[
                "deny dst net 10.0.1.0/24 && dst port 1000-2000".into(),
                "allow all".into(),
            ],
            &env,
        )
        .unwrap();
        assert_eq!(run(f.as_mut(), tcp(1500))[0].0, 1);
        assert_eq!(run(f.as_mut(), tcp(2500))[0].0, 0);
    }

    #[test]
    fn proto_predicate() {
        let env = ElementEnv::default();
        let mut f =
            IpFilter::factory(&["deny proto udp".into(), "allow all".into()], &env).unwrap();
        let udp = Packet::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"u",
        );
        assert_eq!(run(f.as_mut(), udp)[0].0, 1);
        assert_eq!(run(f.as_mut(), tcp(80))[0].0, 0);
    }

    #[test]
    fn evaluation_rules_match_nothing() {
        let env = ElementEnv::default();
        let mut f = IpFilter::factory(&evaluation_rules(), &env).unwrap();
        assert_eq!(evaluation_rules().len(), 16);
        for port in [80, 443, 5001, 22] {
            assert_eq!(run(f.as_mut(), tcp(port))[0].0, 0, "port {port} must pass");
        }
    }

    #[test]
    fn charges_per_rule_cost() {
        let env = ElementEnv::default();
        let mut f = IpFilter::factory(&evaluation_rules(), &env).unwrap();
        env.meter.take();
        let mut outputs = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = crate::element::ElementContext::new(&mut outputs, &mut emitted, &env);
        f.process(0, tcp(80), &mut ctx);
        assert_eq!(env.meter.read(), env.cost.fw_cycles(16));
    }

    #[test]
    fn rejects_bad_rules() {
        let env = ElementEnv::default();
        for bad in [
            "explode all",
            "deny src host not-an-ip",
            "deny dst net 10.0.0.0",
            "deny dst net 10.0.0.0/40",
            "deny src port 10-5",
            "deny proto ospf",
            "deny frobnicate 7",
        ] {
            assert!(
                IpFilter::factory(&[bad.to_string()], &env).is_err(),
                "{bad}"
            );
        }
        assert!(IpFilter::factory(&[], &env).is_err());
    }
}

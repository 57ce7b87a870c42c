//! Classification and dispatch elements.

use crate::element::{Element, ElementContext, ElementEnv, ElementState};
use endbox_netsim::packet::{IpProtocol, Ipv4Header};
use endbox_netsim::Packet;
use std::net::Ipv4Addr;

/// Byte-pattern classifier (Click's `Classifier`). Each argument is a
/// space-separated list of `offset/hexbytes` terms; `-` matches
/// everything. The first matching argument's index selects the output
/// port; non-matching packets are dropped (as in Click).
/// One pattern: `(offset, expected bytes)` terms that must all match.
type BytePattern = Vec<(usize, Vec<u8>)>;

#[derive(Debug)]
pub struct Classifier {
    patterns: Vec<Option<BytePattern>>, // None = match-all
}

impl Classifier {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        if args.is_empty() {
            return Err("Classifier needs at least one pattern".into());
        }
        let mut patterns = Vec::with_capacity(args.len());
        for arg in args {
            if arg.trim() == "-" {
                patterns.push(None);
                continue;
            }
            let mut terms = Vec::new();
            for term in arg.split_whitespace() {
                let (off, hex) = term
                    .split_once('/')
                    .ok_or_else(|| format!("bad classifier term `{term}`"))?;
                let off: usize = off.parse().map_err(|_| format!("bad offset in `{term}`"))?;
                let bytes =
                    endbox_crypto::hex::decode(hex).map_err(|_| format!("bad hex in `{term}`"))?;
                if bytes.is_empty() {
                    return Err(format!("empty value in `{term}`"));
                }
                terms.push((off, bytes));
            }
            patterns.push(Some(terms));
        }
        Ok(Box::new(Classifier { patterns }))
    }

    fn matches(pattern: &[(usize, Vec<u8>)], data: &[u8]) -> bool {
        pattern.iter().all(|(off, bytes)| {
            data.len() >= off + bytes.len() && &data[*off..*off + bytes.len()] == bytes.as_slice()
        })
    }

    /// First matching pattern's output port, or `None` (drop).
    fn classify(&self, data: &[u8]) -> Option<usize> {
        self.patterns.iter().position(|pattern| match pattern {
            None => true,
            Some(terms) => Self::matches(terms, data),
        })
    }
}

impl Element for Classifier {
    fn class_name(&self) -> &'static str {
        "Classifier"
    }

    fn n_outputs(&self) -> usize {
        self.patterns.len()
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        if let Some(port) = self.classify(pkt.bytes()) {
            ctx.output(port, pkt);
        }
        // No match: dropped.
    }
}

/// A small IP-level classifier: each argument is one expression of
/// `tcp` / `udp` / `icmp` / `src|dst port N` / `src|dst host A.B.C.D`
/// terms joined with `and`; `-` matches everything.
#[derive(Debug)]
pub struct IpClassifier {
    exprs: Vec<Option<Vec<IpTerm>>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum IpTerm {
    Proto(IpProtocol),
    SrcPort(u16),
    DstPort(u16),
    SrcHost(Ipv4Addr),
    DstHost(Ipv4Addr),
}

impl IpClassifier {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        if args.is_empty() {
            return Err("IPClassifier needs at least one expression".into());
        }
        let mut exprs = Vec::with_capacity(args.len());
        for arg in args {
            if arg.trim() == "-" {
                exprs.push(None);
                continue;
            }
            let mut terms = Vec::new();
            let tokens: Vec<&str> = arg.split_whitespace().collect();
            let mut i = 0;
            while i < tokens.len() {
                match tokens[i] {
                    "and" => i += 1,
                    "tcp" => {
                        terms.push(IpTerm::Proto(IpProtocol::Tcp));
                        i += 1;
                    }
                    "udp" => {
                        terms.push(IpTerm::Proto(IpProtocol::Udp));
                        i += 1;
                    }
                    "icmp" => {
                        terms.push(IpTerm::Proto(IpProtocol::Icmp));
                        i += 1;
                    }
                    dir @ ("src" | "dst") => {
                        let kind = tokens.get(i + 1).copied().ok_or("truncated expression")?;
                        let value = tokens.get(i + 2).copied().ok_or("truncated expression")?;
                        let term = match kind {
                            "port" => {
                                let p: u16 =
                                    value.parse().map_err(|_| format!("bad port `{value}`"))?;
                                if dir == "src" {
                                    IpTerm::SrcPort(p)
                                } else {
                                    IpTerm::DstPort(p)
                                }
                            }
                            "host" => {
                                let a: Ipv4Addr =
                                    value.parse().map_err(|_| format!("bad host `{value}`"))?;
                                if dir == "src" {
                                    IpTerm::SrcHost(a)
                                } else {
                                    IpTerm::DstHost(a)
                                }
                            }
                            other => return Err(format!("unknown selector `{dir} {other}`")),
                        };
                        terms.push(term);
                        i += 3;
                    }
                    other => return Err(format!("unknown IPClassifier token `{other}`")),
                }
            }
            exprs.push(Some(terms));
        }
        Ok(Box::new(IpClassifier { exprs }))
    }

    fn matches(terms: &[IpTerm], header: &Ipv4Header, pkt: &Packet) -> bool {
        terms.iter().all(|t| match t {
            IpTerm::Proto(p) => header.protocol == *p,
            IpTerm::SrcPort(p) => pkt.src_port() == Some(*p),
            IpTerm::DstPort(p) => pkt.dst_port() == Some(*p),
            IpTerm::SrcHost(a) => header.src == *a,
            IpTerm::DstHost(a) => header.dst == *a,
        })
    }
}

impl Element for IpClassifier {
    fn class_name(&self) -> &'static str {
        "IPClassifier"
    }

    fn n_outputs(&self) -> usize {
        self.exprs.len()
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        let header = pkt.header();
        for (i, expr) in self.exprs.iter().enumerate() {
            let hit = match expr {
                None => true,
                Some(terms) => Self::matches(terms, &header, &pkt),
            };
            if hit {
                ctx.output(i, pkt);
                return;
            }
        }
    }
}

/// Validates the IP header; valid packets to output 0, invalid to output 1
/// (dropped if unconnected).
#[derive(Debug, Default)]
pub struct CheckIpHeader {
    bad: u64,
}

impl CheckIpHeader {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        if !args.is_empty() {
            return Err("CheckIPHeader takes no arguments".into());
        }
        Ok(Box::<CheckIpHeader>::default())
    }
}

impl Element for CheckIpHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        match Ipv4Header::parse(pkt.bytes()) {
            Ok(_) => ctx.output(0, pkt),
            Err(_) => {
                self.bad += 1;
                ctx.output(1, pkt);
            }
        }
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        (name == "bad").then(|| self.bad.to_string())
    }
}

/// Round-robin packet dispatch across N outputs — the paper's load
/// balancing element ("The RoundRobinSwitch Click element allows us to
/// balance IP packets or TCP flows across several machines", §V-B).
#[derive(Debug)]
pub struct RoundRobinSwitch {
    n: usize,
    next: usize,
}

impl RoundRobinSwitch {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        let n = match args {
            [] => 2,
            [n] => n.parse().map_err(|_| format!("bad output count `{n}`"))?,
            _ => return Err("RoundRobinSwitch takes at most one argument".into()),
        };
        if n == 0 {
            return Err("RoundRobinSwitch needs at least one output".into());
        }
        Ok(Box::new(RoundRobinSwitch { n, next: 0 }))
    }
}

impl Element for RoundRobinSwitch {
    fn class_name(&self) -> &'static str {
        "RoundRobinSwitch"
    }

    fn n_outputs(&self) -> usize {
        self.n
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        ctx.env.meter.add(
            ctx.env
                .cost
                .lb_cycles(ctx.env.hardware_mode && ctx.env.in_enclave),
        );
        let port = self.next;
        self.next = (self.next + 1) % self.n;
        ctx.output(port, pkt);
    }

    fn export_state(&self) -> Option<ElementState> {
        Some(vec![("next".into(), self.next.to_string())])
    }

    fn import_state(&mut self, state: ElementState) {
        for (k, v) in state {
            if k == "next" {
                self.next = v.parse::<usize>().unwrap_or(0) % self.n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementEnv;

    fn pkt(proto: u8) -> Packet {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        match proto {
            6 => Packet::tcp(src, dst, 40000, 80, 0, b"x"),
            17 => Packet::udp(src, dst, 40000, 53, b"x"),
            _ => Packet::icmp_echo_request(src, dst, 1, 1, b"x"),
        }
    }

    fn run(elem: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let env = ElementEnv::default();
        let mut outputs = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = ElementContext::new(&mut outputs, &mut emitted, &env);
        elem.process(0, p, &mut ctx);
        outputs
    }

    #[test]
    fn classifier_matches_ip_proto_byte() {
        let env = ElementEnv::default();
        // Byte 9 of the IP header is the protocol: 06 TCP, 11 UDP.
        let mut c = Classifier::factory(&["9/06".into(), "9/11".into(), "-".into()], &env).unwrap();
        assert_eq!(run(c.as_mut(), pkt(6))[0].0, 0);
        assert_eq!(run(c.as_mut(), pkt(17))[0].0, 1);
        assert_eq!(run(c.as_mut(), pkt(1))[0].0, 2);
    }

    #[test]
    fn classifier_no_match_drops() {
        let env = ElementEnv::default();
        let mut c = Classifier::factory(&["9/06".into()], &env).unwrap();
        assert!(run(c.as_mut(), pkt(17)).is_empty());
    }

    #[test]
    fn ip_classifier_port_and_proto() {
        let env = ElementEnv::default();
        let mut c = IpClassifier::factory(
            &["tcp and dst port 80".into(), "udp".into(), "-".into()],
            &env,
        )
        .unwrap();
        assert_eq!(run(c.as_mut(), pkt(6))[0].0, 0);
        assert_eq!(run(c.as_mut(), pkt(17))[0].0, 1);
        assert_eq!(run(c.as_mut(), pkt(1))[0].0, 2);
    }

    #[test]
    fn ip_classifier_host_terms() {
        let env = ElementEnv::default();
        let mut c = IpClassifier::factory(&["src host 10.0.0.1".into(), "-".into()], &env).unwrap();
        assert_eq!(run(c.as_mut(), pkt(6))[0].0, 0);
    }

    #[test]
    fn round_robin_rotates_and_transfers_state() {
        let env = ElementEnv::default();
        let mut rr = RoundRobinSwitch::factory(&["3".into()], &env).unwrap();
        let ports: Vec<usize> = (0..5).map(|_| run(rr.as_mut(), pkt(6))[0].0).collect();
        assert_eq!(ports, vec![0, 1, 2, 0, 1]);
        let state = rr.export_state().unwrap();
        let mut rr2 = RoundRobinSwitch::factory(&["3".into()], &env).unwrap();
        rr2.import_state(state);
        assert_eq!(run(rr2.as_mut(), pkt(6))[0].0, 2);
    }

    #[test]
    fn check_ip_header_separates_bad_packets() {
        let env = ElementEnv::default();
        let mut c = CheckIpHeader::factory(&[], &env).unwrap();
        assert_eq!(run(c.as_mut(), pkt(6))[0].0, 0);
        assert_eq!(c.read_handler("bad").as_deref(), Some("0"));
    }

    #[test]
    fn factories_validate() {
        let env = ElementEnv::default();
        assert!(Classifier::factory(&[], &env).is_err());
        assert!(Classifier::factory(&["nonsense".into()], &env).is_err());
        assert!(Classifier::factory(&["4/zz".into()], &env).is_err());
        assert!(IpClassifier::factory(&["quux".into()], &env).is_err());
        assert!(IpClassifier::factory(&["src port x".into()], &env).is_err());
        assert!(RoundRobinSwitch::factory(&["0".into()], &env).is_err());
    }
}

//! Stateful network functions: NAT, rate limiting, connection tracking —
//! the Slick-style catalogue of modular middlebox functions the paper's
//! click layer is meant to host ("analysing, filtering, and manipulating
//! network traffic", §II-B). All three are order-sensitive: their
//! routing decisions depend on the exact packet arrival order, which the
//! batched router's order-preserving scheduler guarantees matches
//! pushing the packets one at a time (see `crate::router` module docs).

use crate::element::{Element, ElementContext, ElementEnv, ElementState};
use endbox_netsim::packet::IpProtocol;
use endbox_netsim::time::SimTime;
use endbox_netsim::Packet;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Directional 5-tuple identifying one side of a NAT'd flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct NatKey {
    src: Ipv4Addr,
    sport: u16,
    dst: Ipv4Addr,
    dport: u16,
    proto: u8,
}

/// Stateful NAPT (Click's `IPRewriter` pattern): the first packet of each
/// outbound TCP/UDP flow allocates the next free external port and
/// installs a flow-table entry; subsequent packets of the flow reuse it.
/// Outbound packets leave with `SRC <external-ip>:<allocated-port>`;
/// return traffic addressed to the external ip and an allocated port is
/// rewritten back to the original endpoint. Port allocation is strictly
/// arrival-ordered, which makes the element a canary for batched
/// re-merge ordering bugs.
///
/// Outputs: 0 = rewritten (or non-TCP/UDP passthrough), 1 = new flow
/// rejected because the port range is exhausted.
///
/// Config: `IPRewriter(SRC <ip>, PORTS <lo> <hi>)` — `PORTS` optional,
/// default 1024–65535.
#[derive(Debug)]
pub struct StatefulNat {
    external: Ipv4Addr,
    port_lo: u16,
    port_hi: u16,
    next_port: u16,
    /// Outbound 5-tuple → allocated external port.
    flows: HashMap<NatKey, u16>,
    /// Allocated external port → outbound 5-tuple (reverse rewrites).
    by_port: HashMap<u16, NatKey>,
    rewritten: u64,
    reversed: u64,
    passthrough: u64,
    exhausted: u64,
}

impl StatefulNat {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        let mut external = None;
        let mut range = (1024u16, 65535u16);
        for arg in args {
            let toks: Vec<&str> = arg.split_whitespace().collect();
            match toks.as_slice() {
                ["SRC", ip] => {
                    external = Some(ip.parse().map_err(|_| format!("bad SRC `{ip}`"))?);
                }
                ["PORTS", lo, hi] => {
                    let lo: u16 = lo.parse().map_err(|_| format!("bad port `{lo}`"))?;
                    let hi: u16 = hi.parse().map_err(|_| format!("bad port `{hi}`"))?;
                    if lo == 0 || lo > hi {
                        return Err(format!("bad PORTS range `{lo} {hi}`"));
                    }
                    range = (lo, hi);
                }
                _ => return Err(format!("bad IPRewriter option `{arg}`")),
            }
        }
        let external = external.ok_or("IPRewriter needs SRC <external-ip>")?;
        Ok(Box::new(StatefulNat {
            external,
            port_lo: range.0,
            port_hi: range.1,
            next_port: range.0,
            flows: HashMap::new(),
            by_port: HashMap::new(),
            rewritten: 0,
            reversed: 0,
            passthrough: 0,
            exhausted: 0,
        }))
    }

    /// Next free external port at or after `next_port` (wrapping within
    /// the range), or `None` when every port is allocated.
    fn allocate_port(&mut self) -> Option<u16> {
        let span = (self.port_hi - self.port_lo) as u32 + 1;
        if self.by_port.len() as u32 >= span {
            return None;
        }
        let mut candidate = self.next_port;
        loop {
            if !self.by_port.contains_key(&candidate) {
                self.next_port = if candidate == self.port_hi {
                    self.port_lo
                } else {
                    candidate + 1
                };
                return Some(candidate);
            }
            candidate = if candidate == self.port_hi {
                self.port_lo
            } else {
                candidate + 1
            };
        }
    }
}

impl Element for StatefulNat {
    fn class_name(&self) -> &'static str {
        "IPRewriter"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, mut pkt: Packet, ctx: &mut ElementContext<'_>) {
        ctx.env.meter.add(
            ctx.env
                .cost
                .lb_cycles(ctx.env.hardware_mode && ctx.env.in_enclave),
        );
        let header = pkt.header();
        let proto = header.protocol;
        let (Some(sport), Some(dport)) = (pkt.src_port(), pkt.dst_port()) else {
            // No L4 ports (ICMP etc.): forward untouched.
            self.passthrough += 1;
            ctx.output(0, pkt);
            return;
        };

        // Return traffic: addressed to the external ip on an allocated
        // port — rewrite back to the original endpoint.
        if header.dst == self.external {
            if let Some(orig) = self.by_port.get(&dport).copied() {
                if orig.proto == proto.to_u8() {
                    pkt.set_dst(orig.src);
                    pkt.set_dst_port(orig.sport);
                    self.reversed += 1;
                    ctx.output(0, pkt);
                    return;
                }
            }
        }

        let key = NatKey {
            src: header.src,
            sport,
            dst: header.dst,
            dport,
            proto: proto.to_u8(),
        };
        let ext_port = match self.flows.get(&key).copied() {
            Some(p) => p,
            None => match self.allocate_port() {
                Some(p) => {
                    self.flows.insert(key, p);
                    self.by_port.insert(p, key);
                    p
                }
                None => {
                    self.exhausted += 1;
                    ctx.output(1, pkt);
                    return;
                }
            },
        };
        pkt.set_src(self.external);
        pkt.set_src_port(ext_port);
        self.rewritten += 1;
        ctx.output(0, pkt);
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "flows" => Some(self.flows.len().to_string()),
            "rewritten" => Some(self.rewritten.to_string()),
            "reversed" => Some(self.reversed.to_string()),
            "passthrough" => Some(self.passthrough.to_string()),
            "exhausted" => Some(self.exhausted.to_string()),
            _ => None,
        }
    }

    fn export_state(&self) -> Option<ElementState> {
        let mut state = vec![
            ("next_port".into(), self.next_port.to_string()),
            ("rewritten".into(), self.rewritten.to_string()),
            ("reversed".into(), self.reversed.to_string()),
            ("passthrough".into(), self.passthrough.to_string()),
            ("exhausted".into(), self.exhausted.to_string()),
        ];
        let mut flows: Vec<(&NatKey, &u16)> = self.flows.iter().collect();
        flows.sort();
        for (k, ext) in flows {
            state.push((
                format!(
                    "flow:{}:{}:{}:{}:{}",
                    k.src, k.sport, k.dst, k.dport, k.proto
                ),
                ext.to_string(),
            ));
        }
        Some(state)
    }

    fn import_state(&mut self, state: ElementState) {
        for (k, v) in state {
            match k.as_str() {
                "next_port" => self.next_port = v.parse().unwrap_or(self.port_lo),
                "rewritten" => self.rewritten = v.parse().unwrap_or(0),
                "reversed" => self.reversed = v.parse().unwrap_or(0),
                "passthrough" => self.passthrough = v.parse().unwrap_or(0),
                "exhausted" => self.exhausted = v.parse().unwrap_or(0),
                _ => {
                    let Some(rest) = k.strip_prefix("flow:") else {
                        continue;
                    };
                    let parts: Vec<&str> = rest.split(':').collect();
                    let [src, sport, dst, dport, proto] = parts.as_slice() else {
                        continue;
                    };
                    let (Ok(src), Ok(sport), Ok(dst), Ok(dport), Ok(proto), Ok(ext)) = (
                        src.parse(),
                        sport.parse(),
                        dst.parse(),
                        dport.parse(),
                        proto.parse(),
                        v.parse(),
                    ) else {
                        continue;
                    };
                    let key = NatKey {
                        src,
                        sport,
                        dst,
                        dport,
                        proto,
                    };
                    self.flows.insert(key, ext);
                    self.by_port.insert(ext, key);
                }
            }
        }
    }
}

/// Packet-granular token-bucket rate limiter: conforming packets go to
/// output 0, the overflow to output 1 (dropped if unconnected). Tokens
/// refill from the element clock at `RATE` packets per second up to
/// `BURST`; the bucket starts full. Whether a given packet conforms
/// depends on how many came before it — order-sensitive by construction.
///
/// Config: `TokenBucket(RATE <pps>, BURST <packets>)` — `BURST`
/// optional, default 32.
#[derive(Debug)]
pub struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    tokens: f64,
    last: Option<SimTime>,
    conformed: u64,
    exceeded: u64,
}

impl TokenBucket {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        let mut rate = None;
        let mut burst = 32u64;
        for arg in args {
            let toks: Vec<&str> = arg.split_whitespace().collect();
            match toks.as_slice() {
                ["RATE", r] => {
                    rate = Some(r.parse().map_err(|_| format!("bad RATE `{r}`"))?);
                }
                ["BURST", b] => {
                    burst = b.parse().map_err(|_| format!("bad BURST `{b}`"))?;
                }
                _ => return Err(format!("bad TokenBucket option `{arg}`")),
            }
        }
        let rate_pps = rate.ok_or("TokenBucket needs RATE <packets/s>")?;
        if rate_pps == 0 || burst == 0 {
            return Err("TokenBucket RATE and BURST must be > 0".into());
        }
        Ok(Box::new(TokenBucket {
            rate_pps,
            burst,
            tokens: burst as f64,
            last: None,
            conformed: 0,
            exceeded: 0,
        }))
    }
}

impl Element for TokenBucket {
    fn class_name(&self) -> &'static str {
        "TokenBucket"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        ctx.env.meter.add(ctx.env.cost.splitter_per_packet);
        let now = ctx.env.clock.now();
        if let Some(last) = self.last {
            let dt = (now - last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_pps as f64).min(self.burst as f64);
        }
        self.last = Some(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.conformed += 1;
            ctx.output(0, pkt);
        } else {
            self.exceeded += 1;
            ctx.output(1, pkt);
        }
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "conformed" => Some(self.conformed.to_string()),
            "exceeded" => Some(self.exceeded.to_string()),
            "tokens" => Some(format!("{:.3}", self.tokens)),
            _ => None,
        }
    }

    fn export_state(&self) -> Option<ElementState> {
        Some(vec![
            ("tokens".into(), self.tokens.to_bits().to_string()),
            ("conformed".into(), self.conformed.to_string()),
            ("exceeded".into(), self.exceeded.to_string()),
        ])
    }

    fn import_state(&mut self, state: ElementState) {
        for (k, v) in state {
            match k.as_str() {
                "tokens" => {
                    if let Ok(bits) = v.parse::<u64>() {
                        self.tokens = f64::from_bits(bits).clamp(0.0, self.burst as f64);
                    }
                }
                "conformed" => self.conformed = v.parse().unwrap_or(0),
                "exceeded" => self.exceeded = v.parse().unwrap_or(0),
                _ => {}
            }
        }
    }
}

/// Direction-agnostic 5-tuple (both directions of a connection map to
/// the same entry), including the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ConnKey {
    a: (Ipv4Addr, u16),
    b: (Ipv4Addr, u16),
    proto: u8,
}

impl ConnKey {
    fn new(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, proto: IpProtocol) -> Self {
        let x = (src, sport);
        let y = (dst, dport);
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        ConnKey {
            a,
            b,
            proto: proto.to_u8(),
        }
    }
}

/// Connection tracker with a bounded flow table: packets of tracked
/// connections (and the first packet of a new connection while the table
/// has room) go to output 0; packets of new connections arriving at a
/// full table are rejected to output 1. Which connections win table
/// slots is decided strictly by arrival order.
///
/// Config: `ConnTracker(MAX <flows>)` — optional, default 1024.
#[derive(Debug)]
pub struct ConnTracker {
    max_flows: usize,
    /// Tracked connection → packets seen.
    conns: HashMap<ConnKey, u64>,
    new_flows: u64,
    established: u64,
    rejected: u64,
}

impl ConnTracker {
    /// Factory for the registry.
    pub fn factory(args: &[String], _env: &ElementEnv) -> Result<Box<dyn Element>, String> {
        let mut max_flows = 1024usize;
        for arg in args {
            let toks: Vec<&str> = arg.split_whitespace().collect();
            match toks.as_slice() {
                ["MAX", n] => {
                    max_flows = n.parse().map_err(|_| format!("bad MAX `{n}`"))?;
                }
                _ => return Err(format!("bad ConnTracker option `{arg}`")),
            }
        }
        if max_flows == 0 {
            return Err("ConnTracker MAX must be > 0".into());
        }
        Ok(Box::new(ConnTracker {
            max_flows,
            conns: HashMap::new(),
            new_flows: 0,
            established: 0,
            rejected: 0,
        }))
    }
}

impl Element for ConnTracker {
    fn class_name(&self) -> &'static str {
        "ConnTracker"
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, _port: usize, pkt: Packet, ctx: &mut ElementContext<'_>) {
        ctx.env.meter.add(
            ctx.env
                .cost
                .lb_cycles(ctx.env.hardware_mode && ctx.env.in_enclave),
        );
        let header = pkt.header();
        let key = ConnKey::new(
            header.src,
            pkt.src_port().unwrap_or(0),
            header.dst,
            pkt.dst_port().unwrap_or(0),
            header.protocol,
        );
        if let Some(count) = self.conns.get_mut(&key) {
            *count += 1;
            self.established += 1;
            ctx.output(0, pkt);
        } else if self.conns.len() < self.max_flows {
            self.conns.insert(key, 1);
            self.new_flows += 1;
            ctx.output(0, pkt);
        } else {
            self.rejected += 1;
            ctx.output(1, pkt);
        }
    }

    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "flows" => Some(self.conns.len().to_string()),
            "new_flows" => Some(self.new_flows.to_string()),
            "established" => Some(self.established.to_string()),
            "rejected" => Some(self.rejected.to_string()),
            _ => None,
        }
    }

    fn export_state(&self) -> Option<ElementState> {
        let mut state = vec![
            ("new_flows".into(), self.new_flows.to_string()),
            ("established".into(), self.established.to_string()),
            ("rejected".into(), self.rejected.to_string()),
        ];
        let mut conns: Vec<(&ConnKey, &u64)> = self.conns.iter().collect();
        conns.sort();
        for (k, count) in conns {
            state.push((
                format!("conn:{}:{}:{}:{}:{}", k.a.0, k.a.1, k.b.0, k.b.1, k.proto),
                count.to_string(),
            ));
        }
        Some(state)
    }

    fn import_state(&mut self, state: ElementState) {
        for (k, v) in state {
            match k.as_str() {
                "new_flows" => self.new_flows = v.parse().unwrap_or(0),
                "established" => self.established = v.parse().unwrap_or(0),
                "rejected" => self.rejected = v.parse().unwrap_or(0),
                _ => {
                    let Some(rest) = k.strip_prefix("conn:") else {
                        continue;
                    };
                    let parts: Vec<&str> = rest.split(':').collect();
                    let [a_ip, a_port, b_ip, b_port, proto] = parts.as_slice() else {
                        continue;
                    };
                    let (Ok(a_ip), Ok(a_port), Ok(b_ip), Ok(b_port), Ok(proto), Ok(count)) = (
                        a_ip.parse(),
                        a_port.parse(),
                        b_ip.parse(),
                        b_port.parse(),
                        proto.parse(),
                        v.parse(),
                    ) else {
                        continue;
                    };
                    if self.conns.len() < self.max_flows {
                        self.conns.insert(
                            ConnKey {
                                a: (a_ip, a_port),
                                b: (b_ip, b_port),
                                proto,
                            },
                            count,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use endbox_netsim::time::SimDuration;

    fn udp(sport: u16, dport: u16) -> Packet {
        Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            sport,
            dport,
            b"payload",
        )
    }

    fn run(elem: &mut dyn Element, p: Packet, env: &ElementEnv) -> (usize, Packet) {
        let mut outputs = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = ElementContext::new(&mut outputs, &mut emitted, env);
        elem.process(0, p, &mut ctx);
        outputs.into_iter().next().expect("one output")
    }

    #[test]
    fn nat_allocates_ports_in_arrival_order() {
        let env = ElementEnv::default();
        let mut nat =
            StatefulNat::factory(&["SRC 198.51.100.1".into(), "PORTS 6000 6003".into()], &env)
                .unwrap();
        let (port, out) = run(nat.as_mut(), udp(1111, 80), &env);
        assert_eq!(port, 0);
        assert_eq!(out.header().src, Ipv4Addr::new(198, 51, 100, 1));
        assert_eq!(out.src_port(), Some(6000));
        assert!(
            Packet::from_bytes(out.bytes().to_vec()).is_ok(),
            "NAT output stays wire-valid"
        );
        // Second flow gets the next port; repeat of the first reuses 6000.
        let (_, out2) = run(nat.as_mut(), udp(2222, 80), &env);
        assert_eq!(out2.src_port(), Some(6001));
        let (_, out1b) = run(nat.as_mut(), udp(1111, 80), &env);
        assert_eq!(out1b.src_port(), Some(6000));
        assert_eq!(nat.read_handler("flows").as_deref(), Some("2"));
    }

    #[test]
    fn nat_reverses_return_traffic() {
        let env = ElementEnv::default();
        let mut nat = StatefulNat::factory(&["SRC 198.51.100.1".into()], &env).unwrap();
        let (_, out) = run(nat.as_mut(), udp(1111, 80), &env);
        let ext_port = out.src_port().unwrap();
        // Return packet: server -> external:allocated.
        let ret = Packet::udp(
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(198, 51, 100, 1),
            80,
            ext_port,
            b"reply",
        );
        let (port, back) = run(nat.as_mut(), ret, &env);
        assert_eq!(port, 0);
        assert_eq!(back.header().dst, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(back.dst_port(), Some(1111));
        assert_eq!(nat.read_handler("reversed").as_deref(), Some("1"));
    }

    #[test]
    fn nat_exhaustion_rejects_new_flows() {
        let env = ElementEnv::default();
        let mut nat =
            StatefulNat::factory(&["SRC 198.51.100.1".into(), "PORTS 6000 6001".into()], &env)
                .unwrap();
        assert_eq!(run(nat.as_mut(), udp(1, 80), &env).0, 0);
        assert_eq!(run(nat.as_mut(), udp(2, 80), &env).0, 0);
        let (port, _) = run(nat.as_mut(), udp(3, 80), &env);
        assert_eq!(port, 1, "range exhausted: new flow rejected");
        assert_eq!(nat.read_handler("exhausted").as_deref(), Some("1"));
        // Existing flows still pass.
        assert_eq!(run(nat.as_mut(), udp(1, 80), &env).0, 0);
    }

    #[test]
    fn nat_state_roundtrips_through_hot_swap() {
        let env = ElementEnv::default();
        let mut nat =
            StatefulNat::factory(&["SRC 198.51.100.1".into(), "PORTS 6000 6010".into()], &env)
                .unwrap();
        run(nat.as_mut(), udp(1111, 80), &env);
        run(nat.as_mut(), udp(2222, 80), &env);
        let state = nat.export_state().unwrap();
        let mut nat2 =
            StatefulNat::factory(&["SRC 198.51.100.1".into(), "PORTS 6000 6010".into()], &env)
                .unwrap();
        nat2.import_state(state);
        // Existing flow keeps its mapping; a new flow continues from
        // where the allocator left off.
        let (_, out) = run(nat2.as_mut(), udp(1111, 80), &env);
        assert_eq!(out.src_port(), Some(6000));
        let (_, out3) = run(nat2.as_mut(), udp(3333, 80), &env);
        assert_eq!(out3.src_port(), Some(6002));
    }

    #[test]
    fn nat_passes_portless_traffic() {
        let env = ElementEnv::default();
        let mut nat = StatefulNat::factory(&["SRC 198.51.100.1".into()], &env).unwrap();
        let icmp = Packet::icmp_echo_request(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            7,
            1,
            b"ping",
        );
        let (port, out) = run(nat.as_mut(), icmp, &env);
        assert_eq!(port, 0);
        assert_eq!(out.header().src, Ipv4Addr::new(10, 0, 0, 1), "untouched");
        assert_eq!(nat.read_handler("passthrough").as_deref(), Some("1"));
    }

    #[test]
    fn token_bucket_conforms_burst_then_rejects() {
        let env = ElementEnv::default();
        let mut tb = TokenBucket::factory(&["RATE 1000".into(), "BURST 4".into()], &env).unwrap();
        let ports: Vec<usize> = (0..6)
            .map(|_| run(tb.as_mut(), udp(1, 2), &env).0)
            .collect();
        assert_eq!(ports, vec![0, 0, 0, 0, 1, 1], "burst of 4 then overflow");
        assert_eq!(tb.read_handler("conformed").as_deref(), Some("4"));
        assert_eq!(tb.read_handler("exceeded").as_deref(), Some("2"));
        // Refill at 1000 pps: 2 ms buys two tokens.
        env.clock.advance(SimDuration::from_millis(2));
        assert_eq!(run(tb.as_mut(), udp(1, 2), &env).0, 0);
        assert_eq!(run(tb.as_mut(), udp(1, 2), &env).0, 0);
        assert_eq!(run(tb.as_mut(), udp(1, 2), &env).0, 1);
    }

    #[test]
    fn token_bucket_state_roundtrips() {
        let env = ElementEnv::default();
        let mut tb = TokenBucket::factory(&["RATE 10".into(), "BURST 8".into()], &env).unwrap();
        for _ in 0..5 {
            run(tb.as_mut(), udp(1, 2), &env);
        }
        let state = tb.export_state().unwrap();
        let mut tb2 = TokenBucket::factory(&["RATE 10".into(), "BURST 8".into()], &env).unwrap();
        tb2.import_state(state);
        assert_eq!(tb2.read_handler("conformed").as_deref(), Some("5"));
        assert_eq!(tb2.read_handler("tokens").as_deref(), Some("3.000"));
    }

    #[test]
    fn conn_tracker_bounds_table_by_arrival_order() {
        let env = ElementEnv::default();
        let mut ct = ConnTracker::factory(&["MAX 2".into()], &env).unwrap();
        assert_eq!(run(ct.as_mut(), udp(1, 80), &env).0, 0, "flow 1 admitted");
        assert_eq!(run(ct.as_mut(), udp(2, 80), &env).0, 0, "flow 2 admitted");
        assert_eq!(run(ct.as_mut(), udp(3, 80), &env).0, 1, "table full");
        // Established flows keep flowing; the reverse direction maps to
        // the same connection.
        assert_eq!(run(ct.as_mut(), udp(1, 80), &env).0, 0);
        let reverse = Packet::udp(
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            1,
            b"reply",
        );
        assert_eq!(run(ct.as_mut(), reverse, &env).0, 0);
        assert_eq!(ct.read_handler("flows").as_deref(), Some("2"));
        assert_eq!(ct.read_handler("established").as_deref(), Some("2"));
        assert_eq!(ct.read_handler("rejected").as_deref(), Some("1"));
    }

    #[test]
    fn conn_tracker_state_roundtrips() {
        let env = ElementEnv::default();
        let mut ct = ConnTracker::factory(&["MAX 4".into()], &env).unwrap();
        run(ct.as_mut(), udp(1, 80), &env);
        run(ct.as_mut(), udp(2, 80), &env);
        let state = ct.export_state().unwrap();
        let mut ct2 = ConnTracker::factory(&["MAX 4".into()], &env).unwrap();
        ct2.import_state(state);
        assert_eq!(ct2.read_handler("flows").as_deref(), Some("2"));
        // Transferred connections count as established, not new.
        assert_eq!(run(ct2.as_mut(), udp(1, 80), &env).0, 0);
        assert_eq!(ct2.read_handler("established").as_deref(), Some("1"));
    }

    #[test]
    fn factories_validate() {
        let env = ElementEnv::default();
        assert!(StatefulNat::factory(&[], &env).is_err());
        assert!(StatefulNat::factory(&["SRC nonsense".into()], &env).is_err());
        assert!(StatefulNat::factory(&["SRC 1.2.3.4".into(), "PORTS 9 5".into()], &env).is_err());
        assert!(TokenBucket::factory(&[], &env).is_err());
        assert!(TokenBucket::factory(&["RATE 0".into()], &env).is_err());
        assert!(TokenBucket::factory(&["SPEED 5".into()], &env).is_err());
        assert!(ConnTracker::factory(&["MAX 0".into()], &env).is_err());
        assert!(ConnTracker::factory(&["BOGUS".into()], &env).is_err());
    }
}

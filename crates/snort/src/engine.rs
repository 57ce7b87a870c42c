//! The matching engine: compiles a rule set into one Aho–Corasick
//! automaton over every content of every rule plus header predicates, and
//! scans packets.
//!
//! A scan walks the payload once and records which patterns occurred in a
//! bitset keyed by pattern id. Pattern ids are assigned in (rule, content)
//! order, so a rule's contents are a contiguous id range and the set bits,
//! read in ascending order, name the candidate rules in rule-index order.
//! Only those candidates — and the rules that have no content at all — get
//! their header predicate evaluated; a payload in which no pattern occurs
//! allocates nothing and visits no content rule.

use crate::aho::{AhoCorasick, LANES};
use crate::rule::{ProtoPattern, Rule, RuleAction};
use std::net::Ipv4Addr;

/// Packet fields the engine needs (kept independent of the packet crate so
/// this substrate has no simulator dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// Source port (TCP/UDP only).
    pub src_port: Option<u16>,
    /// Destination port (TCP/UDP only).
    pub dst_port: Option<u16>,
    /// Application payload to scan.
    pub payload: &'a [u8],
}

/// One fired rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Snort rule id.
    pub sid: u32,
    /// Rule message.
    pub msg: String,
    /// Action requested by the rule.
    pub action: RuleAction,
}

/// Result of scanning one packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanOutcome {
    /// All rules that fired.
    pub alerts: Vec<Alert>,
    /// True if any fired rule requests a drop.
    pub drop: bool,
}

/// A compiled rule set ready for per-packet scanning.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    rules: Vec<Rule>,
    /// One automaton over all contents; pattern ids in (rule, content)
    /// order.
    matcher: AhoCorasick,
    /// Pattern id → rule index.
    pattern_rule: Vec<u32>,
    /// Rule index → its first pattern id; one extra entry closes the last
    /// rule's range.
    first_pattern: Vec<u32>,
    /// Rules without contents, ascending: they fire on the header alone.
    contentless: Vec<u32>,
}

impl CompiledRules {
    /// Compiles `rules` into the scanning automaton and its hit index.
    pub fn compile(rules: &[Rule]) -> Self {
        let mut pattern_rule = Vec::new();
        let mut first_pattern = Vec::with_capacity(rules.len() + 1);
        let mut contentless = Vec::new();
        for (ri, rule) in rules.iter().enumerate() {
            first_pattern.push(pattern_rule.len() as u32);
            pattern_rule.extend(rule.contents.iter().map(|_| ri as u32));
            if rule.contents.is_empty() {
                contentless.push(ri as u32);
            }
        }
        first_pattern.push(pattern_rule.len() as u32);
        let contents = rules.iter().flat_map(|rule| &rule.contents);
        CompiledRules {
            rules: rules.to_vec(),
            matcher: AhoCorasick::new(contents.map(|c| (c.bytes.as_slice(), c.nocase))),
            pattern_rule,
            first_pattern,
            contentless,
        }
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Matcher memory (for EPC accounting inside the enclave): the
    /// automaton plus the pattern → rule index.
    pub fn memory_bytes(&self) -> usize {
        self.matcher.memory_bytes()
            + (self.pattern_rule.len() + self.first_pattern.len() + self.contentless.len())
                * std::mem::size_of::<u32>()
    }

    fn header_matches(rule: &Rule, pkt: &PacketView<'_>) -> bool {
        let proto_ok = match rule.proto {
            ProtoPattern::Ip => true,
            ProtoPattern::Tcp => pkt.protocol == 6,
            ProtoPattern::Udp => pkt.protocol == 17,
            ProtoPattern::Icmp => pkt.protocol == 1,
        };
        if !proto_ok {
            return false;
        }
        let forward = rule.src.matches(pkt.src)
            && rule.dst.matches(pkt.dst)
            && rule.src_port.matches(pkt.src_port)
            && rule.dst_port.matches(pkt.dst_port);
        if forward {
            return true;
        }
        rule.bidirectional
            && rule.src.matches(pkt.dst)
            && rule.dst.matches(pkt.src)
            && rule.src_port.matches(pkt.dst_port)
            && rule.dst_port.matches(pkt.src_port)
    }

    /// Scans one packet: a rule fires when its header predicates match and
    /// *all* of its content patterns occur in the payload (content-less
    /// rules fire on header match alone). Rules fire in rule order.
    pub fn scan(&self, pkt: &PacketView<'_>) -> ScanOutcome {
        self.scan_lanes::<LANES>(pkt)
    }

    fn scan_lanes<const N: usize>(&self, pkt: &PacketView<'_>) -> ScanOutcome {
        // Which patterns occur in the payload? Allocated on the first hit.
        let mut hits: Vec<u64> = Vec::new();
        self.matcher.walk::<N>(pkt.payload, |m| {
            if hits.is_empty() {
                hits = vec![0; self.pattern_rule.len().div_ceil(64)];
            }
            hits[m.pattern / 64] |= 1 << (m.pattern % 64);
        });
        let hit = |pid: usize| hits[pid / 64] >> (pid % 64) & 1 != 0;

        let mut outcome = ScanOutcome::default();
        let mut contentless = self.contentless.iter().map(|&ri| ri as usize).peekable();
        for (word_idx, &word) in hits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pid = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A rule is a candidate where its first content hit; the
                // rest of its range then has to be all hits.
                let ri = self.pattern_rule[pid] as usize;
                if self.first_pattern[ri] as usize != pid
                    || !(pid + 1..self.first_pattern[ri + 1] as usize).all(hit)
                {
                    continue;
                }
                while let Some(earlier) = contentless.next_if(|&c| c < ri) {
                    if self.fire(earlier, pkt, &mut outcome) {
                        return ScanOutcome::default();
                    }
                }
                if self.fire(ri, pkt, &mut outcome) {
                    return ScanOutcome::default();
                }
            }
        }
        for ri in contentless {
            if self.fire(ri, pkt, &mut outcome) {
                return ScanOutcome::default();
            }
        }
        outcome
    }

    /// Applies rule `ri`, whose contents are all present, to `outcome` if
    /// its header matches. Returns true for a matching `pass` rule, which
    /// short-circuits the scan (Snort pass semantics).
    fn fire(&self, ri: usize, pkt: &PacketView<'_>, outcome: &mut ScanOutcome) -> bool {
        let rule = &self.rules[ri];
        if !Self::header_matches(rule, pkt) {
            return false;
        }
        if rule.action == RuleAction::Pass {
            return true;
        }
        if rule.action == RuleAction::Drop {
            outcome.drop = true;
        }
        if rule.action != RuleAction::Log {
            outcome.alerts.push(Alert {
                sid: rule.sid,
                msg: rule.msg.clone(),
                action: rule.action,
            });
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::parse_rules;

    fn view<'a>(payload: &'a [u8], dst_port: u16) -> PacketView<'a> {
        PacketView {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 1, 1),
            protocol: 6,
            src_port: Some(40000),
            dst_port: Some(dst_port),
            payload,
        }
    }

    fn compile(text: &str) -> CompiledRules {
        CompiledRules::compile(&parse_rules(text).unwrap())
    }

    #[test]
    fn content_and_header_must_both_match() {
        let c = compile(r#"alert tcp any any -> any 80 (msg:"evil"; content:"evil"; sid:1;)"#);
        assert_eq!(c.scan(&view(b"an evil payload", 80)).alerts.len(), 1);
        assert!(c.scan(&view(b"an evil payload", 81)).alerts.is_empty()); // wrong port
        assert!(c.scan(&view(b"a benign payload", 80)).alerts.is_empty()); // no content
    }

    #[test]
    fn all_contents_required() {
        let c = compile(
            r#"alert tcp any any -> any any (msg:"two"; content:"aaa"; content:"bbb"; sid:2;)"#,
        );
        assert!(c.scan(&view(b"aaa only", 80)).alerts.is_empty());
        assert!(c.scan(&view(b"bbb only", 80)).alerts.is_empty());
        assert_eq!(c.scan(&view(b"aaa and bbb", 80)).alerts.len(), 1);
    }

    #[test]
    fn drop_action_sets_drop_flag() {
        let c = compile(r#"drop tcp any any -> any any (msg:"bad"; content:"bad"; sid:3;)"#);
        let out = c.scan(&view(b"bad stuff", 80));
        assert!(out.drop);
        assert_eq!(out.alerts[0].action, RuleAction::Drop);
    }

    #[test]
    fn alert_does_not_drop() {
        let c = compile(r#"alert tcp any any -> any any (msg:"sus"; content:"sus"; sid:4;)"#);
        let out = c.scan(&view(b"sus payload", 80));
        assert!(!out.drop);
        assert_eq!(out.alerts.len(), 1);
    }

    #[test]
    fn nocase_rules_match_any_case() {
        let c =
            compile(r#"alert tcp any any -> any any (msg:"nc"; content:"EVIL"; nocase; sid:5;)"#);
        assert_eq!(c.scan(&view(b"some eViL here", 80)).alerts.len(), 1);
    }

    #[test]
    fn pass_rule_short_circuits() {
        let c = compile(
            "pass tcp any any -> any 22 (msg:\"ssh ok\"; sid:6;)\n\
             alert tcp any any -> any any (msg:\"all\"; content:\"x\"; sid:7;)\n",
        );
        assert!(c.scan(&view(b"x", 22)).alerts.is_empty()); // pass wins
        assert_eq!(c.scan(&view(b"x", 23)).alerts.len(), 1);
    }

    #[test]
    fn bidirectional_matches_reverse() {
        let c = compile(r#"alert tcp any any <> any 80 (msg:"bi"; content:"q"; sid:8;)"#);
        // Reverse direction: src_port = 80.
        let pkt = PacketView {
            src: Ipv4Addr::new(10, 0, 1, 1),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            protocol: 6,
            src_port: Some(80),
            dst_port: Some(40000),
            payload: b"q",
        };
        assert_eq!(c.scan(&pkt).alerts.len(), 1);
    }

    #[test]
    fn icmp_rules_ignore_ports() {
        let c = compile(r#"alert icmp any any -> any any (msg:"ping"; sid:9;)"#);
        let pkt = PacketView {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            protocol: 1,
            src_port: None,
            dst_port: None,
            payload: b"",
        };
        assert_eq!(c.scan(&pkt).alerts.len(), 1);
    }

    #[test]
    fn multiple_rules_can_fire() {
        let c = compile(
            "alert tcp any any -> any any (msg:\"a\"; content:\"aa\"; sid:10;)\n\
             drop tcp any any -> any any (msg:\"b\"; content:\"bb\"; sid:11;)\n",
        );
        let out = c.scan(&view(b"aa bb", 80));
        assert_eq!(out.alerts.len(), 2);
        assert!(out.drop);
    }

    #[test]
    fn content_less_rule_fires_on_header() {
        let c = compile(r#"alert tcp any any -> any 23 (msg:"telnet"; sid:12;)"#);
        assert_eq!(c.scan(&view(b"whatever", 23)).alerts.len(), 1);
    }

    /// A rule whose contents are `n` distinct four-byte tokens, and a
    /// payload carrying all of them.
    fn many_contents(n: usize) -> (CompiledRules, Vec<String>) {
        let tokens: Vec<String> = (0..n).map(|i| format!("T{i:03}")).collect();
        let contents: String = tokens
            .iter()
            .map(|t| format!("content:\"{t}\"; "))
            .collect();
        let text = format!("drop tcp any any -> any any (msg:\"wide\"; {contents}sid:13;)");
        (compile(&text), tokens)
    }

    #[test]
    fn rule_with_65_or_more_contents_fires_exactly_when_all_are_present() {
        // The hit set is keyed by pattern id; a per-rule 64-bit mask used
        // to fold contents 63, 64, … onto one bit and never fire.
        for n in [63, 64, 65, 130] {
            let (c, tokens) = many_contents(n);
            let all = tokens.join(" ");
            assert!(c.scan(&view(all.as_bytes(), 80)).drop, "{n} contents");
            for missing in [0, 62, n - 1] {
                let mut partial = tokens.clone();
                partial.remove(missing);
                let out = c.scan(&view(partial.join(" ").as_bytes(), 80));
                assert!(
                    !out.drop && out.alerts.is_empty(),
                    "{n} contents, #{missing} absent"
                );
            }
        }
    }

    #[test]
    fn paper_rule_set_fits_the_documented_footprint() {
        let c = CompiledRules::compile(&crate::community::paper_rules());
        // e b m a l n d, '-', ten digits, CR, LF, and class 0.
        assert_eq!(c.matcher.class_count(), 21);
        assert_eq!(c.matcher.pattern_count(), 377 + 377 / 3);
        assert_eq!(c.matcher.state_count(), 850);
        assert!(c.memory_bytes() <= 256 * 1024, "{} B", c.memory_bytes());
        // The transition table dominates: states x 32 classes x 4 B.
        assert!(c.memory_bytes() > c.matcher.state_count() * 32 * 4);
    }

    /// A packet whose header satisfies `rule`.
    fn view_for<'a>(rule: &Rule, payload: &'a [u8]) -> PacketView<'a> {
        use crate::rule::PortPattern;
        PacketView {
            protocol: match rule.proto {
                ProtoPattern::Udp => 17,
                ProtoPattern::Icmp => 1,
                ProtoPattern::Tcp | ProtoPattern::Ip => 6,
            },
            dst_port: Some(match rule.dst_port {
                PortPattern::Any => 80,
                PortPattern::Port(p) | PortPattern::Range(p, _) => p,
            }),
            ..view(payload, 0)
        }
    }

    fn sids(out: &ScanOutcome) -> Vec<u32> {
        out.alerts.iter().map(|a| a.sid).collect()
    }

    #[test]
    fn lower_cased_trigger_fires_only_nocase_rules() {
        use crate::community::{paper_rules, triggering_payload};
        let rules = paper_rules();
        let c = CompiledRules::compile(&rules);
        for (i, rule) in rules.iter().enumerate() {
            let sid = 1_000_000 + i as u32;
            let trigger = triggering_payload(i);
            assert_eq!(sids(&c.scan(&view_for(rule, &trigger))), vec![sid]);
            let lowered = trigger.to_ascii_lowercase();
            let nocase = rule.contents.iter().all(|c| c.nocase);
            assert_eq!(
                sids(&c.scan(&view_for(rule, &lowered))),
                if nocase { vec![sid] } else { vec![] },
                "rule {i}"
            );
        }
    }

    #[test]
    fn trigger_fires_at_every_offset_and_length_as_in_one_lane() {
        use crate::community::{paper_rules, triggering_payload};
        let rules = paper_rules();
        let c = CompiledRules::compile(&rules);
        let filler = |len: usize| -> Vec<u8> { (0..len).map(|i| b'a' + (i % 26) as u8).collect() };
        // Rules matching any TCP port: one content, two contents, nocase.
        for i in [12usize, 2, 22] {
            let trigger = triggering_payload(i);
            let expect = vec![1_000_000 + i as u32];
            let check = |len: usize, at: usize| {
                let mut payload = filler(len);
                payload[at..at + trigger.len()].copy_from_slice(&trigger);
                let pkt = view_for(&rules[i], &payload);
                let lanes = c.scan(&pkt);
                assert_eq!(lanes, c.scan_lanes::<1>(&pkt), "rule {i}, {len} B, at {at}");
                assert_eq!(sids(&lanes), expect, "rule {i}, {len} B, at {at}");
            };
            // Every offset of a full-size payload crosses every lane seam.
            for at in 0..=1460 - trigger.len() {
                check(1460, at);
            }
            // Every length around the point where the walk starts to split.
            for len in 0..=4 * c.matcher.max_pattern_len() + 80 {
                let clean = c.scan(&view_for(&rules[i], &filler(len)));
                assert_eq!(clean, ScanOutcome::default(), "{len} B clean");
                if len >= trigger.len() {
                    (0..=len - trigger.len()).for_each(|at| check(len, at));
                }
            }
        }
    }

    /// What `scan` must compute, by brute force: every content searched
    /// for on its own, rules visited in order.
    fn reference_scan(rules: &[Rule], pkt: &PacketView<'_>) -> ScanOutcome {
        let mut outcome = ScanOutcome::default();
        for rule in rules {
            let present = rule.contents.iter().all(|c| {
                pkt.payload.windows(c.bytes.len()).any(|w| {
                    if c.nocase {
                        w.eq_ignore_ascii_case(&c.bytes)
                    } else {
                        w == c.bytes.as_slice()
                    }
                })
            });
            if !present || !CompiledRules::header_matches(rule, pkt) {
                continue;
            }
            match rule.action {
                RuleAction::Pass => return ScanOutcome::default(),
                RuleAction::Log => continue,
                RuleAction::Drop => outcome.drop = true,
                RuleAction::Alert => {}
            }
            outcome.alerts.push(Alert {
                sid: rule.sid,
                msg: rule.msg.clone(),
                action: rule.action,
            });
        }
        outcome
    }

    mod differential {
        use super::*;
        use crate::rule::{AddrPattern, ContentPattern, PortPattern};
        use proptest::prelude::*;

        const ALPHABET: [u8; 6] = *b"abAB\x00\xff";

        fn symbols(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
            prop::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), len)
        }

        /// Short contents over a tiny alphabet, so that rules share
        /// contents, contents nest, and most packets hit something; pass
        /// and log rules are rarer than alert and drop.
        fn rules() -> impl Strategy<Value = Vec<Rule>> {
            let content = (symbols(1..4), any::<bool>())
                .prop_map(|(bytes, nocase)| ContentPattern { bytes, nocase });
            let header = (0u8..10, 0u8..4, 0u8..3, any::<bool>());
            prop::collection::vec((header, prop::collection::vec(content, 0..4)), 0..12).prop_map(
                |drawn| {
                    drawn
                        .into_iter()
                        .enumerate()
                        .map(
                            |(i, ((action, proto, port, bidirectional), contents))| Rule {
                                action: match action {
                                    0 => RuleAction::Pass,
                                    1 => RuleAction::Log,
                                    2..=5 => RuleAction::Alert,
                                    _ => RuleAction::Drop,
                                },
                                proto: [
                                    ProtoPattern::Ip,
                                    ProtoPattern::Tcp,
                                    ProtoPattern::Tcp,
                                    ProtoPattern::Udp,
                                ][proto as usize],
                                src: AddrPattern::Any,
                                src_port: PortPattern::Any,
                                dst: AddrPattern::Any,
                                dst_port: [
                                    PortPattern::Any,
                                    PortPattern::Port(80),
                                    PortPattern::Range(81, 90),
                                ][port as usize],
                                bidirectional,
                                msg: format!("rule {i}"),
                                sid: i as u32,
                                contents,
                            },
                        )
                        .collect()
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn scan_matches_brute_force_reference(
                rules in rules(),
                // Past 4 x (2 + 16) bytes the walk splits into lanes.
                payload in symbols(0..160),
                ports in (0usize..3, 0usize..3, any::<bool>()),
            ) {
                let port = |i: usize| [80, 85, 4000][i];
                let pkt = PacketView {
                    protocol: if ports.2 { 6 } else { 17 },
                    src_port: Some(port(ports.0)),
                    ..view(&payload, port(ports.1))
                };
                let c = CompiledRules::compile(&rules);
                let want = reference_scan(&rules, &pkt);
                prop_assert_eq!(&c.scan(&pkt), &want);
                prop_assert_eq!(&c.scan_lanes::<1>(&pkt), &want);
            }
        }
    }
}

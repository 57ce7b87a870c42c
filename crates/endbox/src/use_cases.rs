//! The five evaluation middlebox functions of §V-B, as Click
//! configurations.

use endbox_click::elements::evaluation_rules;

/// A middlebox function from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseCase {
    /// Forwarding baseline ("NOP").
    Nop,
    /// Load balancing via `RoundRobinSwitch` ("LB").
    LoadBalancer,
    /// IP firewall with 16 non-matching rules ("FW").
    Firewall,
    /// Intrusion detection with 377 community rules ("IDPS").
    Idps,
    /// DDoS prevention: IDS + trusted rate limiting ("DDoS").
    DdosPrevention,
}

impl UseCase {
    /// All five, in the paper's order.
    pub fn all() -> [UseCase; 5] {
        [
            UseCase::Nop,
            UseCase::LoadBalancer,
            UseCase::Firewall,
            UseCase::Idps,
            UseCase::DdosPrevention,
        ]
    }

    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            UseCase::Nop => "NOP",
            UseCase::LoadBalancer => "LB",
            UseCase::Firewall => "FW",
            UseCase::Idps => "IDPS",
            UseCase::DdosPrevention => "DDoS",
        }
    }

    /// The client-side Click configuration implementing this function
    /// (`TrustedSplitter` samples trusted time; the paper sets the
    /// interval to 500 000 packets).
    pub fn click_config(&self) -> String {
        self.click_config_with(SplitterFlavor::Trusted)
    }

    /// Server-side variant: the DDoS splitter reads time via syscalls
    /// (`UntrustedSplitter`, §V-B).
    pub fn server_click_config(&self) -> String {
        self.click_config_with(SplitterFlavor::Untrusted)
    }

    fn click_config_with(&self, splitter: SplitterFlavor) -> String {
        match self {
            UseCase::Nop => "FromDevice(tun0) -> ToDevice(tun0);".to_string(),
            UseCase::LoadBalancer => {
                // Round-robin across two uplinks; both accept.
                "FromDevice(tun0) -> rr :: RoundRobinSwitch(2);\n\
                 rr[0] -> ToDevice(tun0);\n\
                 rr[1] -> ToDevice(tun1);"
                    .to_string()
            }
            UseCase::Firewall => {
                let rules = evaluation_rules().join(", ");
                format!(
                    "FromDevice(tun0) -> fw :: IPFilter({rules}) -> ToDevice(tun0);\n\
                     fw[1] -> Discard;"
                )
            }
            UseCase::Idps => "FromDevice(tun0) \
                              -> ids :: IDSMatcher(COMMUNITY 377) \
                              -> ToDevice(tun0);\n\
                              ids[1] -> Discard;"
                .to_string(),
            UseCase::DdosPrevention => {
                let splitter_class = match splitter {
                    SplitterFlavor::Trusted => "TrustedSplitter",
                    SplitterFlavor::Untrusted => "UntrustedSplitter",
                };
                let sample = match splitter {
                    SplitterFlavor::Trusted => 500_000,
                    SplitterFlavor::Untrusted => 1,
                };
                format!(
                    "FromDevice(tun0) \
                     -> ids :: IDSMatcher(COMMUNITY 377) \
                     -> shaper :: {splitter_class}(RATE 10000000000, SAMPLE {sample}) \
                     -> ToDevice(tun0);\n\
                     ids[1] -> Discard;\n\
                     shaper[1] -> Discard;"
                )
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SplitterFlavor {
    Trusted,
    Untrusted,
}

impl std::fmt::Display for UseCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use endbox_click::element::ElementEnv;
    use endbox_click::Router;
    use endbox_netsim::Packet;
    use std::net::Ipv4Addr;

    fn pkt() -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            40000,
            5001,
            0,
            b"benignpayload",
        )
    }

    #[test]
    fn all_configs_parse_and_forward_benign_traffic() {
        for uc in UseCase::all() {
            let mut router =
                Router::from_config(&uc.click_config(), ElementEnv::default()).unwrap();
            let out = router.process_batch(vec![pkt()]);
            assert_eq!(out.accepted, 1, "{uc} must forward benign traffic");
        }
    }

    #[test]
    fn server_variants_parse() {
        for uc in UseCase::all() {
            Router::from_config(&uc.server_click_config(), ElementEnv::default()).unwrap();
        }
    }

    #[test]
    fn firewall_has_sixteen_rules() {
        let mut router =
            Router::from_config(&UseCase::Firewall.click_config(), ElementEnv::default()).unwrap();
        assert_eq!(router.read_handler("fw", "rules").as_deref(), Some("16"));
        router.process_batch(vec![pkt()]);
        assert_eq!(router.read_handler("fw", "allowed").as_deref(), Some("1"));
    }

    #[test]
    fn idps_loads_377_rules() {
        let mut router =
            Router::from_config(&UseCase::Idps.click_config(), ElementEnv::default()).unwrap();
        assert_eq!(router.read_handler("ids", "rules").as_deref(), Some("377"));
        router.process_batch(vec![pkt()]);
        assert_eq!(router.read_handler("ids", "alerts").as_deref(), Some("0"));
    }

    #[test]
    fn idps_drops_malicious_traffic() {
        let mut router =
            Router::from_config(&UseCase::Idps.click_config(), ElementEnv::default()).unwrap();
        // Rule 0 of the synthetic set is sid 1000000, alert, content
        // EB-MAL-0000; rule 11 (i%11==0) variants are drop rules.
        let evil = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            40000,
            80,
            0,
            b"xx EB-MAL-0000 xx",
        );
        let out = router.process_batch(vec![evil]);
        // sid 1000000 is a drop rule (0 % 11 == 0): packet must not pass.
        assert_eq!(out.accepted, 0);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = UseCase::all().iter().map(|u| u.name()).collect();
        assert_eq!(names, vec!["NOP", "LB", "FW", "IDPS", "DDoS"]);
    }
}

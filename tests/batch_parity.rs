//! Batch parity: pushing N packets as one `PacketBatch` through
//! `Router::process_batch` must yield byte-identical emitted packets,
//! identical verdicts, drops, cycle totals and element state to pushing
//! them one at a time through [`Oracle`], a breadth-first walk built
//! here from the public element API only — so the reference is never the
//! scheduler under test. The grid covers the quickstart (firewall), IDS,
//! IPFilter and stateful-NF configurations, arbitrary traffic
//! (property-tested), pool-backed packets, and arbitrary random
//! fan-out/re-merge graphs mixing stateless and order-sensitive stateful
//! elements (`random_fanout_graphs_have_exact_parity` below).

use endbox::use_cases::UseCase;
use endbox_click::config::ConfigGraph;
use endbox_click::element::{Element, ElementContext, ElementEnv};
use endbox_click::registry::ElementRegistry;
use endbox_click::Router;
use endbox_netsim::packet::Verdict;
use endbox_netsim::{BufferPool, Packet, PacketBatch};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// The reference the batched scheduler is specified against: every
/// packet pushed alone at the `FromDevice` entry and walked breadth-first
/// to completion, one `click_element_base` charge per hop, as Click runs
/// a packet. It shares no code with `Router`.
struct Oracle {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    /// `out_edges[element][out_port] = Some((to_element, to_port))`.
    out_edges: Vec<Vec<Option<(usize, usize)>>>,
    entry: Option<usize>,
    env: ElementEnv,
}

impl Oracle {
    fn new(config: &str, env: ElementEnv) -> Oracle {
        let graph = ConfigGraph::parse(config).unwrap();
        let registry = ElementRegistry::standard();
        let elements: Vec<Box<dyn Element>> = graph
            .elements
            .iter()
            .map(|d| registry.create(&d.name, &d.class, &d.args, &env).unwrap())
            .collect();
        let mut out_edges: Vec<Vec<Option<(usize, usize)>>> =
            elements.iter().map(|e| vec![None; e.n_outputs()]).collect();
        for c in &graph.connections {
            out_edges[c.from][c.from_port] = Some((c.to, c.to_port));
        }
        Oracle {
            entry: graph.elements.iter().position(|d| d.class == "FromDevice"),
            names: graph.elements.into_iter().map(|d| d.name).collect(),
            elements,
            out_edges,
            env,
        }
    }

    /// Walks one packet; returns its emissions and its drops at
    /// unconnected ports.
    fn push(&mut self, pkt: Packet) -> (Vec<Packet>, u64) {
        let mut emitted = Vec::new();
        let mut dropped = 0;
        let Some(entry) = self.entry else {
            return (emitted, dropped);
        };
        let mut queue = VecDeque::from([(entry, 0, pkt)]);
        let mut outputs = Vec::new();
        while let Some((idx, port, pkt)) = queue.pop_front() {
            self.env.meter.add(self.env.cost.click_element_base);
            let mut ctx = ElementContext::new(&mut outputs, &mut emitted, &self.env);
            self.elements[idx].process(port, pkt, &mut ctx);
            for (out_port, out_pkt) in outputs.drain(..) {
                match self.out_edges[idx].get(out_port).copied().flatten() {
                    Some((to, to_port)) => queue.push_back((to, to_port, out_pkt)),
                    None => dropped += 1,
                }
            }
        }
        (emitted, dropped)
    }

    fn read_handler(&self, element: &str, handler: &str) -> Option<String> {
        let idx = self.names.iter().position(|n| n == element)?;
        self.elements[idx].read_handler(handler)
    }
}

/// The configurations the parity guarantee is specified over: the
/// quickstart example's firewall, the IDPS chain, a plain IPFilter with
/// both ports wired up, the stateful NF catalogue chain (connection
/// tracker → NAT → token bucket), a stateful Counter ahead of an
/// IPFilter whose deny port is unconnected, an IPFilter ahead of an
/// IDSMatcher (both charge per packet), and two Tee branches of
/// different depth re-merging into one order-sensitive RoundRobinSwitch.
fn parity_configs() -> Vec<(&'static str, String)> {
    vec![
        ("quickstart-firewall", UseCase::Firewall.click_config()),
        ("idps", UseCase::Idps.click_config()),
        (
            "ipfilter",
            "FromDevice(tun0) -> f :: IPFilter(deny dst port 23, deny src port 7, allow all) \
             -> ToDevice(tun0); f[1] -> Discard;"
                .to_string(),
        ),
        (
            "nf-chain",
            "FromDevice(tun0) -> ct :: ConnTracker(MAX 12) \
             -> nat :: IPRewriter(SRC 198.51.100.1, PORTS 6000 6009) \
             -> tb :: TokenBucket(RATE 200000, BURST 24) -> ToDevice(tun0); \
             ct[1] -> Discard; nat[1] -> Discard; tb[1] -> Discard;"
                .to_string(),
        ),
        (
            "counter-ipfilter",
            "FromDevice(t) -> c :: Counter \
             -> f :: IPFilter(deny dst port 23, allow all) -> ToDevice(t);"
                .to_string(),
        ),
        (
            "ipfilter-ids",
            "FromDevice(t) -> f :: IPFilter(deny dst port 23, allow all) \
             -> ids :: IDSMatcher(COMMUNITY 20) -> ToDevice(t); ids[1] -> Discard;"
                .to_string(),
        ),
        (
            "tee-roundrobin",
            "rr :: RoundRobinSwitch(2); \
             FromDevice(t) -> tee :: Tee(2); \
             tee[0] -> c0 :: Counter -> rr; \
             tee[1] -> rr; \
             rr[0] -> a :: Counter -> ToDevice(t); \
             rr[1] -> b :: Counter -> ToDevice(t);"
                .to_string(),
        ),
    ]
}

/// Handlers compared between the oracle and the batched router — the
/// union of every element's observable state.
const PARITY_HANDLERS: &[&str] = &[
    "count",
    "allowed",
    "denied",
    "alerts",
    "drops",
    "scanned_bytes",
    "bad",
    "flows",
    "rewritten",
    "reversed",
    "passthrough",
    "exhausted",
    "conformed",
    "exceeded",
    "tokens",
    "new_flows",
    "established",
    "rejected",
];

/// Runs `packets` through `config` both ways and asserts byte/verdict
/// equality plus identical element state and cycle totals.
fn assert_parity(name: &str, config: &str, packets: Vec<Packet>) {
    let env_oracle = ElementEnv::default();
    let meter_oracle = env_oracle.meter.clone();
    let mut oracle = Oracle::new(config, env_oracle);

    let env_batch = ElementEnv::default();
    let meter_batch = env_batch.meter.clone();
    let mut router_batch = Router::from_config(config, env_batch).unwrap();

    meter_oracle.take();
    let mut oracle_emitted: Vec<Vec<u8>> = Vec::new();
    let mut oracle_verdicts = Vec::new();
    let mut oracle_dropped = 0u64;
    for pkt in packets.iter().cloned() {
        let (emitted, dropped) = oracle.push(pkt);
        oracle_verdicts.push(if emitted.is_empty() {
            Verdict::Drop
        } else {
            Verdict::Accept
        });
        oracle_dropped += dropped;
        oracle_emitted.extend(emitted.iter().map(|p| p.bytes().to_vec()));
    }
    let oracle_cycles = meter_oracle.take();

    meter_batch.take();
    let out = router_batch.process_batch(packets);
    let batch_cycles = meter_batch.take();

    let batch_emitted: Vec<Vec<u8>> = out.emitted.iter().map(|p| p.bytes().to_vec()).collect();
    assert_eq!(
        batch_emitted, oracle_emitted,
        "[{name}] emitted packet bytes must match"
    );
    assert_eq!(
        out.verdicts, oracle_verdicts,
        "[{name}] per-packet verdicts must match"
    );
    assert_eq!(
        out.dropped, oracle_dropped,
        "[{name}] unconnected-port drops must match"
    );
    assert_eq!(
        batch_cycles, oracle_cycles,
        "[{name}] total cycle charges must match"
    );

    // Handler-visible element state evolved identically.
    for element in &oracle.names {
        for handler in PARITY_HANDLERS {
            assert_eq!(
                oracle.read_handler(element, handler),
                router_batch.read_handler(element, handler),
                "[{name}] handler {element}.{handler} must match"
            );
        }
    }
}

fn mixed_traffic(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let src = Ipv4Addr::new(10, 0, 0, 1 + (i % 5) as u8);
            let dst = Ipv4Addr::new(10, 0, 1, 1);
            match i % 4 {
                // Telnet traffic the IPFilter config denies.
                0 => Packet::tcp(src, dst, 40_000 + i as u16, 23, i as u32, b"telnet-ish"),
                // The synthetic IDS rule set's drop content on port 80.
                1 => Packet::tcp(src, dst, 40_000, 80, i as u32, b"xx EB-MAL-0000 xx"),
                2 => Packet::udp(src, dst, 7, 53, b"dns query"),
                _ => Packet::tcp(src, dst, 40_000, 443, i as u32, b"benign payload bytes"),
            }
        })
        .collect()
}

#[test]
fn batch_parity_on_mixed_traffic() {
    for (name, config) in parity_configs() {
        assert_parity(name, &config, mixed_traffic(24));
    }
}

#[test]
fn batch_parity_with_pooled_packets() {
    let pool = BufferPool::new();
    for (name, config) in parity_configs() {
        let packets: Vec<Packet> = (0..16)
            .map(|i| {
                Packet::tcp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 2),
                    Ipv4Addr::new(10, 0, 1, 1),
                    41_000,
                    if i % 2 == 0 { 80 } else { 23 },
                    i as u32,
                    b"pooled parity packet",
                )
            })
            .collect();
        assert_parity(name, &config, packets);
    }
    let stats = pool.stats();
    assert!(
        stats.reused > 0,
        "steady-state rounds must recycle buffers: {stats:?}"
    );
}

#[test]
fn pool_recycling_reaches_steady_state_through_the_router() {
    let pool = BufferPool::new();
    let mut router =
        Router::from_config(&UseCase::Firewall.click_config(), ElementEnv::default()).unwrap();
    for _round in 0..10 {
        let batch: PacketBatch = (0..8)
            .map(|i| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 3),
                    Ipv4Addr::new(10, 0, 1, 1),
                    5_000,
                    6_000 + i as u16,
                    b"recycled",
                )
            })
            .collect();
        let out = router.process_batch(batch);
        assert_eq!(out.accepted, 8);
        drop(out);
    }
    let stats = pool.stats();
    assert_eq!(stats.fresh_allocs, 8, "only the first round allocates");
    assert_eq!(stats.reused, 72, "remaining nine rounds reuse every buffer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary traffic shapes: ports and payloads randomised, batch
    /// size 1..32, across all seven parity configurations.
    #[test]
    fn batch_parity_holds_for_arbitrary_traffic(
        specs in prop::collection::vec(
            (any::<u16>(), any::<u16>(), prop::collection::vec(any::<u8>(), 0..200)),
            1..32,
        ),
        config_idx in 0usize..7,
    ) {
        let (name, config) = parity_configs().swap_remove(config_idx);
        let packets: Vec<Packet> = specs
            .iter()
            .map(|(sport, dport, payload)| {
                Packet::tcp(
                    Ipv4Addr::new(10, 0, 0, 9),
                    Ipv4Addr::new(10, 0, 1, 1),
                    *sport,
                    *dport,
                    0,
                    payload,
                )
            })
            .collect();
        assert_parity(name, &config, packets);
    }
}

#[test]
fn fan_out_remerge_into_stateful_elements_has_exact_parity() {
    // The re-merge shape the order-preserving scheduler exists for: two
    // Tee branches of different depth re-merging into one
    // RoundRobinSwitch, whose ports feed order-sensitive NFs.
    let config = "rr :: RoundRobinSwitch(2); \
                  FromDevice(t) -> tee :: Tee(2); \
                  tee[0] -> c :: Counter -> rr; \
                  tee[1] -> rr; \
                  rr[0] -> ct :: ConnTracker(MAX 4) -> ToDevice(t); \
                  rr[1] -> tb :: TokenBucket(RATE 1000, BURST 5) -> ToDevice(t); \
                  ct[1] -> Discard; tb[1] -> Discard;";
    assert_parity("tee-remerge-rr", config, mixed_traffic(17));
}

/// Element classes the random graph generator draws from. Entries are
/// `(declaration, n_outputs, is_tee)`.
const GRAPH_CLASSES: &[(&str, usize, bool)] = &[
    ("Counter", 1, false),
    ("Tee(2)", 2, true),
    ("RoundRobinSwitch(2)", 2, false),
    ("TokenBucket(RATE 1000, BURST 3)", 2, false),
    ("ConnTracker(MAX 3)", 2, false),
    ("IPRewriter(SRC 198.51.100.1, PORTS 7000 7004)", 2, false),
];

/// Builds a random acyclic fan-out/re-merge configuration from a byte
/// spec. Every edge goes from an earlier-created element to a
/// later-created one, so the graph is a DAG by construction; `Tee`
/// nesting is capped at depth 3. Roughly one in four steps re-merges an
/// open output into an existing downstream element instead of growing a
/// new branch, and half the leftover outputs stay unconnected
/// (exercising the drop path).
fn random_fanout_config(spec: &[u8]) -> String {
    struct Node {
        decl: &'static str,
        tee_depth: usize,
    }
    let mut nodes = vec![Node {
        decl: "FromDevice(t)",
        tee_depth: 0,
    }];
    // Open output stubs: (element index, output port).
    let mut stubs: std::collections::VecDeque<(usize, usize)> =
        std::collections::VecDeque::from([(0usize, 0usize)]);
    let mut conns: Vec<(usize, usize, usize)> = Vec::new();

    for &b in spec {
        let Some((from, port)) = stubs.pop_front() else {
            break;
        };
        let merge_candidates = nodes.len() - from - 1;
        if b % 4 == 3 && merge_candidates > 0 {
            // Re-merge into a strictly later-created element.
            let target = from + 1 + (b as usize / 4) % merge_candidates;
            conns.push((from, port, target));
            continue;
        }
        let mut choice = (b as usize / 4) % GRAPH_CLASSES.len();
        if GRAPH_CLASSES[choice].2 && nodes[from].tee_depth >= 3 {
            choice = 0; // Tee depth cap reached: degrade to Counter.
        }
        let (decl, n_out, is_tee) = GRAPH_CLASSES[choice];
        let idx = nodes.len();
        nodes.push(Node {
            decl,
            tee_depth: nodes[from].tee_depth + usize::from(is_tee),
        });
        conns.push((from, port, idx));
        for p in 0..n_out {
            stubs.push_back((idx, p));
        }
    }
    // Close half the remaining stubs with exits, leave the rest
    // unconnected (dropped packets must still have parity).
    for (i, (from, port)) in stubs.into_iter().enumerate() {
        if i % 2 == 0 {
            let idx = nodes.len();
            nodes.push(Node {
                decl: "ToDevice(t)",
                tee_depth: 0,
            });
            conns.push((from, port, idx));
        }
    }

    let mut cfg = String::new();
    for (i, node) in nodes.iter().enumerate() {
        cfg.push_str(&format!("e{i} :: {};\n", node.decl));
    }
    for (from, port, to) in conns {
        cfg.push_str(&format!("e{from}[{port}] -> e{to};\n"));
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: random fan-out/re-merge graphs (Tee depth
    /// ≤ 3, stateless and order-sensitive stateful elements mixed, some
    /// outputs deliberately unconnected) have byte-identical emissions,
    /// verdicts, drops, element state and cycle totals between the
    /// batched router and the one-at-a-time oracle.
    #[test]
    fn random_fanout_graphs_have_exact_parity(
        graph_spec in prop::collection::vec(any::<u8>(), 0..24),
        traffic in prop::collection::vec((0u16..6, 0u16..4, 1u16..5), 1..24),
    ) {
        let config = random_fanout_config(&graph_spec);
        // Few distinct endpoints so the stateful elements see flow reuse,
        // table pressure and port-range exhaustion.
        let packets: Vec<Packet> = traffic
            .iter()
            .map(|&(s, d, len)| {
                Packet::udp(
                    Ipv4Addr::new(10, 0, 0, 10 + s as u8),
                    Ipv4Addr::new(10, 0, 1, 1),
                    30_000 + s,
                    50 + d,
                    &vec![b'r'; len as usize],
                )
            })
            .collect();
        assert_parity("random-fanout", &config, packets);
    }
}

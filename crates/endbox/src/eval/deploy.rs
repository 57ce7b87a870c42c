//! Deployments under evaluation and per-packet charge measurement.
//!
//! [`measure`] builds the *real* functional stack a [`MeasureSpec`]
//! describes (CA, attestation, handshake, enclave, Click, and — for the
//! sharded server — RX shards, workers and the socket front-end), pushes
//! rounds of sample packets through it, and reads the cycle meters. The
//! resulting [`PacketCharge`] is then replayed through the
//! [`endbox_netsim::pipeline`] timing layer. This keeps every reported
//! number tied to the actual protocol/middlebox code, and makes the spec
//! the one place that says what a number measured.

use crate::client::{EndBoxClient, TrustLevel};
use crate::scenario::{Scenario, ShardedScenario};
use crate::server::{ControllerStats, DEFAULT_RECV_BULK};
use crate::use_cases::UseCase;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::pipeline::PacketCharge;
use endbox_netsim::traffic::benign_payload;
use endbox_netsim::Packet;
use rand::SeedableRng;

/// Cycles a plain (non-VPN) sender spends per packet in the kernel path —
/// used only by the vanilla-Click deployment where clients run bare iperf.
const KERNEL_SEND_FIXED: u64 = 3_500;
/// Per-byte kernel copy cost for the same path.
const KERNEL_SEND_PER_BYTE: f64 = 0.5;

/// A middlebox deployment from §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Unmodified OpenVPN, no middlebox (baseline).
    VanillaOpenVpn,
    /// OpenVPN with a server-side Click instance (centralised middlebox).
    OpenVpnClick(UseCase),
    /// Server-side Click without any VPN (single process).
    VanillaClick(UseCase),
    /// EndBox in SDK simulation mode.
    EndBoxSim(UseCase),
    /// EndBox on SGX hardware.
    EndBoxSgx(UseCase),
}

impl Deployment {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Deployment::VanillaOpenVpn => "vanilla OpenVPN".to_string(),
            Deployment::OpenVpnClick(uc) => format!("OpenVPN+Click[{uc}]"),
            Deployment::VanillaClick(uc) => format!("vanilla Click[{uc}]"),
            Deployment::EndBoxSim(uc) => format!("EndBox SIM[{uc}]"),
            Deployment::EndBoxSgx(uc) => format!("EndBox SGX[{uc}]"),
        }
    }

    /// Whether the server runs one extra process per client (the attached
    /// Click instance of OpenVPN+Click).
    pub fn server_procs_per_client(&self) -> usize {
        match self {
            Deployment::OpenVpnClick(_) => 2,
            _ => 1,
        }
    }

    /// Whether all server work serialises in one process (vanilla Click).
    pub fn server_single_process(&self) -> bool {
        matches!(self, Deployment::VanillaClick(_))
    }
}

/// The server a measured stack is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Server {
    /// The paper's set-up: one single-threaded server process per client
    /// ([`crate::server::EndBoxServer`]), with the deployment's
    /// server-side Click attached if it has one.
    PerClient,
    /// One [`crate::server::ShardedEndBoxServer`]: `rx_shards` framing
    /// threads in front of `workers` crypto shards.
    Sharded {
        /// RX framing shards (== poll groups of the event loop).
        rx_shards: usize,
        /// Worker shards.
        workers: usize,
    },
}

/// How a peer's packets of one round are sealed into records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Records {
    /// One record coalescing all of the peer's packets (`send_batch`:
    /// one enclave transition and one seal per round).
    Batched,
    /// One single-packet record per packet (`send_packet`), peers
    /// interleaved packet by packet — no coalescing, so per-datagram
    /// framing dominates the server work.
    Single,
}

/// How a round's datagrams enter the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorway {
    /// Handed straight to `receive_datagram(s)`: no sockets in the loop.
    Call,
    /// Shipped over the wire into per-peer server sockets and drained by
    /// the [`crate::server::AsyncFrontEnd`] event loop.
    EventLoop,
}

/// What one [`measure`] run builds and drives: the independent variables
/// of every experiment, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureSpec {
    /// Deployment (trust level, use case, server-side Click).
    pub deployment: Deployment,
    /// Tunnel payload bytes per packet.
    pub payload_len: usize,
    /// Measured rounds (after one un-metered warm-up round).
    pub samples: usize,
    /// Server flavour and geometry.
    pub server: Server,
    /// Connected peers, all sending every round.
    pub peers: usize,
    /// Record shape of a round.
    pub records: Records,
    /// Packets each peer sends per round (the base count under `zipf`).
    pub per_peer: usize,
    /// Scale each peer's packet count by the heavy-tailed weights of
    /// [`crate::eval::scalability::heavy_tail_weights`] (a few elephants
    /// dominate) instead of sending `per_peer` everywhere.
    pub zipf: bool,
    /// Ingress doorway.
    pub doorway: Doorway,
    /// Datagrams per bulk `recv_many` call of the event loop (`1` is the
    /// per-datagram transport shape).
    pub recv_bulk: usize,
}

impl MeasureSpec {
    /// The §V single-flow set-up: one client sending one single-packet
    /// record per round to its own server process.
    pub fn single_flow(deployment: Deployment, payload_len: usize, samples: usize) -> Self {
        MeasureSpec {
            deployment,
            payload_len,
            samples,
            server: Server::PerClient,
            peers: 1,
            records: Records::Single,
            per_peer: 1,
            zipf: false,
            doorway: Doorway::Call,
            recv_bulk: DEFAULT_RECV_BULK,
        }
    }

    /// Like [`MeasureSpec::single_flow`], but coalescing `batch` packets
    /// per record and enclave transition (`1` is the single-packet path).
    pub fn batched_flow(
        deployment: Deployment,
        payload_len: usize,
        samples: usize,
        batch: usize,
    ) -> Self {
        let records = if batch == 1 {
            Records::Single
        } else {
            Records::Batched
        };
        MeasureSpec {
            records,
            per_peer: batch,
            ..Self::single_flow(deployment, payload_len, samples)
        }
    }

    /// EndBox-SGX NOP at 1 500 B on the sharded server, call-driven —
    /// the base every scaling sweep overrides.
    pub fn sharded(rx_shards: usize, workers: usize) -> Self {
        MeasureSpec {
            server: Server::Sharded { rx_shards, workers },
            ..Self::single_flow(Deployment::EndBoxSgx(UseCase::Nop), 1_500, 8)
        }
    }
}

/// What [`measure`] read off the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Per-packet charges. [`PacketCharge::rx_cycles`] is the share of
    /// `server_cycles` that runs on the RX lanes: per-datagram framing
    /// plus, through the event loop, the socket receives.
    pub charge: PacketCharge,
    /// Event-loop wakeups per drained datagram — the amortisation input
    /// to [`endbox_netsim::pipeline::AsyncFrontEndModel::event_driven`].
    /// `1.0` through [`Doorway::Call`]: a call-driven front-end pays one
    /// wakeup per datagram by definition.
    pub wakeups_per_datagram: f64,
    /// Datagrams moved per socket call — the amortisation input to
    /// [`endbox_netsim::pipeline::SyscallBatchModel::bulk`], bounded by
    /// the per-socket queue depth at drain time. `1.0` through
    /// [`Doorway::Call`].
    pub datagrams_per_call: f64,
    /// What the control plane did — read off the event loop, so all
    /// zeros through [`Doorway::Call`].
    pub controller: ControllerStats,
}

/// The real stack under measurement.
enum Stack {
    PerClient(Box<Scenario>),
    Sharded(Box<ShardedScenario>),
}

impl Stack {
    fn build(spec: &MeasureSpec) -> Stack {
        let (trust, use_case, server_click) = match spec.deployment {
            Deployment::VanillaOpenVpn => (TrustLevel::Untrusted, UseCase::Nop, None),
            Deployment::OpenVpnClick(uc) => (
                TrustLevel::Untrusted,
                UseCase::Nop,
                Some(uc.server_click_config()),
            ),
            Deployment::EndBoxSim(uc) => (TrustLevel::Simulation, uc, None),
            Deployment::EndBoxSgx(uc) => (TrustLevel::Hardware, uc, None),
            Deployment::VanillaClick(_) => unreachable!("has no VPN stack"),
        };
        let event_loop = spec.doorway == Doorway::EventLoop;
        let mut builder = Scenario::enterprise(spec.peers, use_case)
            .trust(trust)
            .seed(0xbe9c)
            .async_ingress(event_loop);
        if let Some(cfg) = &server_click {
            builder = builder.server_click(cfg);
        }
        match spec.server {
            Server::PerClient => {
                assert!(!event_loop, "the per-client server is call-driven");
                Stack::PerClient(Box::new(builder.build().expect("deployment must build")))
            }
            Server::Sharded { rx_shards, workers } => {
                let mut scenario = builder
                    .rx_shards(rx_shards)
                    .build_sharded(workers)
                    .expect("sharded deployment must build");
                if event_loop {
                    scenario.set_recv_bulk(spec.recv_bulk);
                }
                Stack::Sharded(Box::new(scenario))
            }
        }
    }

    fn clients(&mut self) -> &mut [EndBoxClient] {
        match self {
            Stack::PerClient(s) => &mut s.clients,
            Stack::Sharded(s) => &mut s.clients,
        }
    }

    fn server_meter(&self) -> CycleMeter {
        match self {
            Stack::PerClient(s) => s.server_meter.clone(),
            Stack::Sharded(s) => s.server_meter.clone(),
        }
    }

    /// One round: peer `idx` seals `sizes[idx]` packets, then everything
    /// enters the server through the spec's doorway (the event loop
    /// drains to idle). Returns (wire datagrams, wire bytes).
    fn round(
        &mut self,
        spec: &MeasureSpec,
        sizes: &[usize],
        payload: &[u8],
        seq: u32,
    ) -> (usize, usize) {
        let packet = |idx: usize, i: usize| {
            Packet::tcp(
                Scenario::client_addr(idx),
                Scenario::network_addr(),
                40_000 + idx as u16,
                5001,
                seq + i as u32,
                payload,
            )
        };
        // One entry per sealed record, in wire order.
        let mut records: Vec<(u64, Vec<Vec<u8>>)> = Vec::new();
        let clients = self.clients();
        match spec.records {
            Records::Batched => {
                for (idx, &n) in sizes.iter().enumerate() {
                    let packets = (0..n).map(|i| packet(idx, i)).collect();
                    let sealed = clients[idx].send_batch(packets).expect("send batch");
                    records.push((idx as u64, sealed));
                }
            }
            Records::Single => {
                for i in 0..sizes.iter().copied().max().unwrap_or(0) {
                    for (idx, _) in sizes.iter().enumerate().filter(|(_, &n)| i < n) {
                        let sealed = clients[idx].send_packet(packet(idx, i)).expect("send");
                        records.push((idx as u64, sealed));
                    }
                }
            }
        }
        let datagrams = records.iter().map(|(_, d)| d.len()).sum();
        let wire_bytes = records.iter().flat_map(|(_, d)| d).map(Vec::len).sum();
        match (self, spec.doorway) {
            (Stack::PerClient(s), _) => {
                for (peer, sealed) in &records {
                    for d in sealed {
                        s.server.receive_datagram(*peer, d).expect("deliver");
                    }
                }
            }
            (Stack::Sharded(s), Doorway::Call) => {
                let flat = records
                    .into_iter()
                    .flat_map(|(peer, sealed)| sealed.into_iter().map(move |d| (peer, d)))
                    .collect();
                for result in s.server.receive_datagrams(flat) {
                    result.expect("deliver");
                }
            }
            (Stack::Sharded(s), Doorway::EventLoop) => {
                for (peer, sealed) in records {
                    s.send_wire_datagrams(peer, sealed);
                }
                for (_, result) in s.pump_async() {
                    result.expect("deliver");
                }
            }
        }
        (datagrams, wire_bytes)
    }
}

/// Measures the per-packet cycle charges of the stack `spec` describes:
/// builds it, runs one warm-up round (first-use costs stay out of the
/// steady state) and `spec.samples` metered rounds, and condenses the
/// meters into a per-packet [`PacketCharge`] plus the event loop's
/// amortisation ratios. Worker and RX threads charge the shared server
/// meter, so the per-packet *total* is geometry-independent — sharding
/// wins are modelled by the timing layer's lanes, fed by this charge.
///
/// The event loop always runs over the deterministic in-process wire;
/// its server sockets are metered at the `socket_*` constants, and the
/// RX-lane share counts the same constants per drained datagram.
///
/// # Panics
///
/// Panics if the stack cannot be constructed or a delivery fails (a bug
/// in the harness), or on a contradictory spec: the event loop without
/// the sharded server, or a server-side Click on it.
pub fn measure(spec: &MeasureSpec) -> Measured {
    if let Deployment::VanillaClick(uc) = spec.deployment {
        return Measured {
            charge: measure_vanilla_click(uc, spec.payload_len, spec.samples),
            wakeups_per_datagram: 1.0,
            datagrams_per_call: 1.0,
            controller: ControllerStats::default(),
        };
    }
    let mut stack = Stack::build(spec);
    let sizes = if spec.zipf {
        let weights = crate::eval::scalability::heavy_tail_weights(spec.peers);
        ShardedScenario::heavy_tail_batch_sizes(&weights, spec.per_peer)
    } else {
        vec![spec.per_peer; spec.peers]
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let payload = benign_payload(spec.payload_len, &mut rng);
    let client_meters: Vec<CycleMeter> =
        stack.clients().iter().map(|c| c.meter().clone()).collect();
    let server_meter = stack.server_meter();

    stack.round(spec, &sizes, &payload, 0);
    for m in &client_meters {
        m.take();
    }
    server_meter.take();
    let event_loop = match &stack {
        Stack::Sharded(s) if spec.doorway == Doorway::EventLoop => Some(s.async_stats()),
        _ => None,
    };

    let (mut datagrams, mut wire_bytes) = (0usize, 0usize);
    for r in 1..=spec.samples {
        let (d, b) = stack.round(spec, &sizes, &payload, (r * spec.per_peer) as u32);
        datagrams += d;
        wire_bytes += b;
    }

    let packets = (spec.samples * sizes.iter().sum::<usize>()) as u64;
    let cost = CostModel::calibrated();
    let server_cycles = server_meter.take();
    let framing_cycles = cost.vpn_server_per_fragment * datagrams as u64;
    let mut boundary_cycles = 0;
    let (mut wakeups_per_datagram, mut datagrams_per_call) = (1.0, 1.0);
    let mut controller = ControllerStats::default();
    if let (Stack::Sharded(s), Some(warm)) = (&stack, event_loop) {
        let stats = s.async_stats();
        let drained = stats.datagrams - warm.datagrams;
        assert_eq!(drained as usize, datagrams, "every datagram drained");
        wakeups_per_datagram = (stats.wakeups - warm.wakeups) as f64 / drained.max(1) as f64;
        datagrams_per_call = drained as f64 / (stats.io_calls - warm.io_calls).max(1) as f64;
        controller = s.controller_stats();
        boundary_cycles = cost.socket_recv_fixed * datagrams as u64
            + (cost.socket_per_byte * wire_bytes as f64) as u64;
    }
    let client_cycles: u64 = client_meters.iter().map(CycleMeter::take).sum();
    let charge = PacketCharge {
        payload_bytes: spec.payload_len + 40, // payload + IP/TCP headers
        wire_bytes: wire_bytes / packets as usize,
        fragments: (datagrams as u64).div_ceil(packets).max(1) as usize,
        client_cycles: client_cycles / packets,
        server_cycles: server_cycles / packets,
        rx_cycles: framing_cycles / packets + boundary_cycles / packets,
        dropped: false,
    };
    Measured {
        charge,
        wakeups_per_datagram,
        datagrams_per_call,
        controller,
    }
}

/// Vanilla Click: clients send plain traffic (no VPN); the server runs one
/// Click process that every packet traverses.
fn measure_vanilla_click(use_case: UseCase, payload_len: usize, samples: usize) -> PacketCharge {
    let cost = CostModel::calibrated();
    let meter = CycleMeter::new();
    let env = ElementEnv {
        cost: cost.clone(),
        meter: meter.clone(),
        device_io: true,
        ..ElementEnv::default()
    };
    let mut router =
        Router::from_config(&use_case.server_click_config(), env).expect("use case config");

    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let payload = benign_payload(payload_len.min(65_000), &mut rng);
    let pkt = Packet::tcp(
        Scenario::client_addr(0),
        Scenario::network_addr(),
        40_000,
        5001,
        0,
        &payload,
    );
    router.process(pkt.clone()); // warm-up
    meter.take();
    for _ in 0..samples {
        // Kernel hands the packet to the Click process and back.
        meter.add(
            cost.click_fetch_per_packet + (cost.click_fetch_per_byte * pkt.len() as f64) as u64,
        );
        router.process(pkt.clone());
    }
    let server_cycles = meter.take() / samples as u64;

    let wire = pkt.len() + 28; // UDP-less raw Ethernet-ish overhead stand-in
    PacketCharge {
        payload_bytes: pkt.len(),
        wire_bytes: wire,
        fragments: cost.fragments(pkt.len()),
        client_cycles: KERNEL_SEND_FIXED + (KERNEL_SEND_PER_BYTE * pkt.len() as f64) as u64,
        server_cycles,
        rx_cycles: 0,
        dropped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge(deployment: Deployment, payload_len: usize, samples: usize) -> PacketCharge {
        measure(&MeasureSpec::single_flow(deployment, payload_len, samples)).charge
    }

    #[test]
    fn endbox_sgx_costs_more_than_sim_than_vanilla() {
        let vanilla = charge(Deployment::VanillaOpenVpn, 1500, 8);
        let sim = charge(Deployment::EndBoxSim(UseCase::Nop), 1500, 8);
        let sgx = charge(Deployment::EndBoxSgx(UseCase::Nop), 1500, 8);
        assert!(
            vanilla.client_cycles < sim.client_cycles,
            "vanilla {} < sim {}",
            vanilla.client_cycles,
            sim.client_cycles
        );
        assert!(
            sim.client_cycles < sgx.client_cycles,
            "sim {} < sgx {}",
            sim.client_cycles,
            sgx.client_cycles
        );
        // Server-side work identical for all three (no server Click).
        let tol = vanilla.server_cycles / 5;
        assert!(sgx.server_cycles.abs_diff(vanilla.server_cycles) < tol.max(2000));
    }

    #[test]
    fn openvpn_click_moves_cost_to_server() {
        let vanilla = charge(Deployment::VanillaOpenVpn, 1500, 8);
        let with_click = charge(Deployment::OpenVpnClick(UseCase::Idps), 1500, 8);
        assert!(with_click.server_cycles > vanilla.server_cycles + 3_000);
        // Client side stays vanilla.
        assert!(with_click.client_cycles.abs_diff(vanilla.client_cycles) < 4_000);
    }

    #[test]
    fn idps_costs_more_than_nop_on_endbox() {
        let nop = charge(Deployment::EndBoxSgx(UseCase::Nop), 1500, 8);
        let idps = charge(Deployment::EndBoxSgx(UseCase::Idps), 1500, 8);
        assert!(idps.client_cycles > nop.client_cycles + 10_000);
    }

    #[test]
    fn large_payloads_fragment() {
        let charge = charge(Deployment::VanillaOpenVpn, 32_768, 4);
        assert!(
            charge.fragments >= 4,
            "32KB spans several datagrams: {}",
            charge.fragments
        );
        assert!(charge.wire_bytes > 32_768);
    }

    #[test]
    fn vanilla_click_is_server_bound() {
        let c = charge(Deployment::VanillaClick(UseCase::Nop), 1500, 8);
        assert!(c.server_cycles > c.client_cycles);
    }

    #[test]
    fn call_doorway_reports_unit_amortisation_and_an_idle_controller() {
        let m = measure(&MeasureSpec {
            peers: 2,
            per_peer: 4,
            samples: 2,
            ..MeasureSpec::sharded(1, 2)
        });
        assert_eq!((m.wakeups_per_datagram, m.datagrams_per_call), (1.0, 1.0));
        assert_eq!(m.controller, ControllerStats::default());
        assert!(m.charge.rx_cycles > 0 && m.charge.rx_cycles <= m.charge.server_cycles);
    }
}

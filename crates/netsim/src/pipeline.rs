//! The timing layer: replays per-packet cycle charges (measured by running
//! the real EndBox code) through simulated machines and links, producing
//! the throughput / latency / CPU-utilisation numbers of §V.
//!
//! # Model
//!
//! Functional code charges [`crate::cost::CycleMeter`]s as it processes
//! packets; a measurement harness condenses those charges into a
//! [`PacketCharge`] per deployment, and [`run_scalability`] replays the
//! charge through client machines, a link and a server machine as a
//! sequence of *serial lanes*:
//!
//! * **Client lanes** — one single-threaded VPN process per client;
//!   queued packets never reserve execution slots.
//! * **Wire** — transmissions serialise in actual client-completion
//!   order.
//! * **Shard lanes** ([`ScalabilityConfig::server_shards`],
//!   [`ShardLanes`]) — `C` run-to-completion shard threads, one serial
//!   lane each. A packet runs its whole `server_cycles` on its peer's
//!   lane, plus its share of the socket front-end's cost: the
//!   event-loop wakeup charge ([`ShardLanes::wakeups`]), per datagram
//!   when call-driven and amortised over the measured drain batch when
//!   event-driven. Peers home at `client mod C`; with
//!   [`ShardLanes::migrate`] a peer moves to the least-backlogged lane
//!   when its own falls behind (one rule, [`MIGRATION_BACKLOG_JOBS`]).
//!
//! # Compatibility invariant
//!
//! The socket model exists only on shard lanes, so a model that would be
//! ignored cannot be written down. Each refinement is an `Option`, and
//! `None` keeps the coarser model **bit-identical** (regression-tested
//! below): no shard lanes is the paper's one-process-per-client server,
//! no socket model prices wakeups at zero. Shipped figures never move
//! when a refinement is added to the model.

use crate::resource::{Link, Machine, MachineSpec};
use crate::time::{SimDuration, SimTime};

/// Cycle charges for one tunnel-level packet, as measured by running the
/// functional code with a [`crate::cost::CycleMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCharge {
    /// Application payload carried (tun-level bytes).
    pub payload_bytes: usize,
    /// Total bytes placed on the wire (payload + VPN overheads).
    pub wire_bytes: usize,
    /// Number of wire datagrams.
    pub fragments: usize,
    /// Cycles charged on the client machine.
    pub client_cycles: u64,
    /// Cycles charged on the server machine.
    pub server_cycles: u64,
    /// True if the middlebox dropped the packet (still consumes client
    /// cycles, but no wire/server cost).
    pub dropped: bool,
}

/// Result of a throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputResult {
    /// Goodput in Mbps (delivered payload bits / elapsed).
    pub mbps: f64,
    /// Wall-clock span of the run in simulated time.
    pub elapsed: SimDuration,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped by the middlebox.
    pub dropped: u64,
    /// Client-side CPU utilisation in [0, 1].
    pub client_util: f64,
    /// Server-side CPU utilisation in [0, 1].
    pub server_util: f64,
}

/// Simulates a saturating single flow (one iperf client through one VPN
/// server), the Fig. 8 / Fig. 9 setup: the client VPN process is
/// single-threaded, so packets are serialised on one flow watermark.
pub fn run_single_flow(
    client_spec: MachineSpec,
    server_spec: MachineSpec,
    link: &mut Link,
    charges: impl Iterator<Item = PacketCharge>,
) -> ThroughputResult {
    let mut client = Machine::new(client_spec);
    let mut server = Machine::new(server_spec);
    let mut client_flow = SimTime::ZERO;
    let mut server_flow = SimTime::ZERO;

    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut delivered_bits = 0u64;
    let mut last_event = SimTime::ZERO;

    for charge in charges {
        let done_client =
            client.run_job_flow(SimTime::ZERO, charge.client_cycles, &mut client_flow);
        last_event = last_event.max(done_client);
        if charge.dropped {
            dropped += 1;
            continue;
        }
        let frag_bytes = charge.wire_bytes / charge.fragments.max(1);
        let mut arrived = done_client;
        for _ in 0..charge.fragments.max(1) {
            arrived = link.transmit(done_client, frag_bytes);
        }
        let done_server = server.run_job_flow(arrived, charge.server_cycles, &mut server_flow);
        delivered += 1;
        delivered_bits += charge.payload_bytes as u64 * 8;
        last_event = last_event.max(done_server);
    }

    let elapsed = last_event - SimTime::ZERO;
    let mbps = if elapsed == SimDuration::ZERO {
        0.0
    } else {
        delivered_bits as f64 / elapsed.as_secs_f64() / 1e6
    };
    ThroughputResult {
        mbps,
        elapsed,
        delivered,
        dropped,
        client_util: client.utilisation(elapsed),
        server_util: server.utilisation(elapsed),
    }
}

/// Configuration for a multi-client scalability run (Fig. 10).
#[derive(Debug, Clone)]
pub struct ScalabilityConfig {
    /// Number of connected clients.
    pub n_clients: usize,
    /// Offered load per client in bits/s (paper: 200 Mbps).
    pub per_client_bps: u64,
    /// Tunnel payload size (paper: 1 500 B).
    pub payload_bytes: usize,
    /// Simulated duration of the measurement window.
    pub duration: SimDuration,
    /// Client machines available (paper: five class A machines).
    pub n_client_machines: usize,
    /// Extra scheduler contention on the server per process beyond two per
    /// core (models one-OpenVPN-instance-per-client oversubscription).
    pub contention_per_excess_process: f64,
    /// Server processes per client (OpenVPN instance + optional Click).
    pub server_procs_per_client: usize,
    /// All server work funnels through ONE single-threaded process (the
    /// vanilla-Click deployment of Fig. 10a, capped at one core).
    pub server_single_process: bool,
    /// `Some(lanes)`: the server is ONE process of run-to-completion
    /// shard lanes — the sharded EndBox server. `None`: the paper's
    /// legacy one-process-per-client model, governed by
    /// `server_procs_per_client` / `server_single_process`.
    pub server_shards: Option<ShardLanes>,
    /// `Some(w)`: relative offered-load weight per client (heavy-tailed
    /// mixes). Weights are normalised so the *aggregate* offered load
    /// stays `n_clients * per_client_bps` — a skewed mix is directly
    /// comparable to the uniform one. `None`: every client offers
    /// `per_client_bps` (the paper's uniform setup).
    pub client_load_weights: Option<Vec<f64>>,
}

/// The sharded server: `c` run-to-completion shard threads, each a serial
/// flow competing for the machine's cores. A shard runs a packet's whole
/// server work — frame, open, deliver — plus its share of the socket
/// front-end's cost (one poll group over every peer's socket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLanes {
    /// Shards (minimum 1).
    pub c: usize,
    /// Model the control plane moving peers: a peer migrates, watermark
    /// and all, to the least-backlogged lane when its current lane's
    /// backlog exceeds the minimum by more than
    /// [`MIGRATION_BACKLOG_JOBS`] jobs' worth of `server_cycles` — the
    /// timing-layer counterpart of the real server's one `migrate`,
    /// whichever law calls it. `false`: fixed `client mod c` homing, the
    /// counterfactual a measured charge is replayed against. A measured
    /// charge earns this flag only when its run actually moved a peer.
    pub migrate: bool,
    /// `Some(m)`: model the socket front-end. Each packet charges
    /// `m.per_packet_cycles(fragments)` extra event-loop cycles on its
    /// shard lane — the wakeup cost of the I/O front-end per wire
    /// datagram, amortised over however many datagrams each wakeup
    /// drains (see [`AsyncFrontEndModel`]). `None`: socket wakeups are
    /// free (bit-identical to the model without them).
    pub wakeups: Option<AsyncFrontEndModel>,
}

impl ShardLanes {
    /// `c` shard lanes with fixed homing and free socket I/O.
    pub fn new(c: usize) -> Self {
        ShardLanes {
            c,
            migrate: false,
            wakeups: None,
        }
    }

    /// The socket front-end's cycles for one packet of `fragments` wire
    /// datagrams on its shard lane: the event-loop wakeup share (free
    /// with no model).
    fn socket_cycles(&self, fragments: usize) -> u64 {
        self.wakeups.map_or(0, |m| m.per_packet_cycles(fragments))
    }
}

/// Timing model of the socket front-end on the shard lanes.
///
/// A **call-driven** front-end does one blocking receive per wire
/// datagram: every datagram pays a full wakeup
/// (`wakeups_per_datagram == 1`). An **event-driven** front-end
/// (`endbox::server::AsyncFrontEnd`) drains every readable socket per
/// poll wakeup, so the wakeup cost amortises over the drain batch:
/// `wakeups_per_datagram` is the *measured* `wakeups / datagrams` ratio of
/// a real front-end run (many ready peers → far below 1). The per-datagram
/// socket receive cost itself is identical in both modes and is part of
/// the measured [`PacketCharge`] (the `net` layer charges it to the
/// server meter); only the wakeup amortisation differs, and that is what
/// this model prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncFrontEndModel {
    /// Cycles per event-loop wakeup
    /// ([`crate::cost::CostModel::event_loop_wakeup`]).
    pub wakeup_cycles: u64,
    /// Wakeups per **wire datagram**: 1.0 for a call-driven front-end,
    /// the measured `wakeups / datagrams` ratio for an event-driven one.
    /// A fragmenting mix pays this once per fragment (see
    /// [`AsyncFrontEndModel::per_packet_cycles`]).
    pub wakeups_per_datagram: f64,
}

impl AsyncFrontEndModel {
    /// The call-driven baseline: one wakeup per datagram.
    pub fn call_driven(wakeup_cycles: u64) -> Self {
        AsyncFrontEndModel {
            wakeup_cycles,
            wakeups_per_datagram: 1.0,
        }
    }

    /// The event-driven model with a measured amortisation ratio.
    pub fn event_driven(wakeup_cycles: u64, wakeups_per_datagram: f64) -> Self {
        AsyncFrontEndModel {
            wakeup_cycles,
            wakeups_per_datagram,
        }
    }

    /// Amortised event-loop cycles charged per packet on its shard lane:
    /// a packet spanning `fragments` wire datagrams pays the per-datagram
    /// wakeup share once per datagram.
    pub fn per_packet_cycles(&self, fragments: usize) -> u64 {
        (self.wakeup_cycles as f64 * self.wakeups_per_datagram * fragments.max(1) as f64).round()
            as u64
    }
}

/// Backlog gap (in per-packet server jobs) that triggers a peer migration
/// under [`ShardLanes::migrate`]. Small enough to react within a
/// measurement window, large enough that uniform load never migrates.
pub const MIGRATION_BACKLOG_JOBS: u64 = 16;

impl Default for ScalabilityConfig {
    fn default() -> Self {
        ScalabilityConfig {
            n_clients: 1,
            per_client_bps: 200_000_000,
            payload_bytes: 1_500,
            duration: SimDuration::from_millis(30),
            n_client_machines: 5,
            contention_per_excess_process: 0.012,
            server_procs_per_client: 1,
            server_single_process: false,
            server_shards: None,
            client_load_weights: None,
        }
    }
}

/// Result of a scalability run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityResult {
    /// Aggregate server-side goodput in Gbps.
    pub gbps: f64,
    /// Server CPU utilisation in [0, 1].
    pub server_cpu: f64,
    /// Mean client machine CPU utilisation in [0, 1].
    pub client_cpu: f64,
    /// Fraction of offered packets delivered within the window.
    pub delivery_ratio: f64,
    /// Peer-to-shard migrations performed by the modelled control plane
    /// (always 0 without [`ShardLanes::migrate`]).
    pub migrations: u64,
}

/// Runs the Fig. 10 experiment: `n_clients` paced flows of
/// `per_client_bps` each, through one server machine. `charge` supplies
/// the per-packet cycle charges (measured once per deployment on the real
/// code path — all clients send identical traffic in the paper's setup).
pub fn run_scalability(
    client_spec: MachineSpec,
    server_spec: MachineSpec,
    charge: PacketCharge,
    cfg: &ScalabilityConfig,
) -> ScalabilityResult {
    let mut server = Machine::new(server_spec);
    // One OpenVPN process per client (§V-E): oversubscription beyond the
    // hardware threads costs scheduler overhead. A sharded server is a
    // single process with a bounded thread count, so it never
    // oversubscribes regardless of the client count.
    let hw_threads = server.spec().cores * 2;
    let n_procs = match cfg.server_shards {
        Some(_) => 1,
        None if cfg.server_single_process => 1,
        None => cfg.n_clients * cfg.server_procs_per_client,
    };
    let excess = n_procs.saturating_sub(hw_threads);
    server.set_contention(1.0 + excess as f64 * cfg.contention_per_excess_process);
    // Each shard is ONE thread: its jobs run serially on its own lane and
    // a queued packet does not occupy a core while it waits (shard queues
    // live in the pool, not on the run queue). When the threads outnumber
    // the execution slots, the lanes fair-share the machine.
    let shards = cfg.server_shards.map_or(1, |lanes| lanes.c.max(1));
    let slots = server.spec().slots();
    if cfg.server_shards.is_some() && shards > slots {
        server.set_contention(shards as f64 / slots as f64);
    }

    // Per-client offered rates: uniform, or weighted by the (normalised)
    // load mix so the aggregate offered load is identical either way.
    let weights: Vec<f64> = match &cfg.client_load_weights {
        None => vec![1.0; cfg.n_clients],
        Some(w) => {
            assert_eq!(w.len(), cfg.n_clients, "one weight per client");
            let sum: f64 = w.iter().sum();
            w.iter().map(|x| x * cfg.n_clients as f64 / sum).collect()
        }
    };

    let mut client_machines: Vec<Machine> = (0..cfg.n_client_machines)
        .map(|m| {
            let mut machine = Machine::new(client_spec.clone());
            // Client lanes are serial (one single-threaded VPN process per
            // client, scheduled below with `run_job_serial`), so queued
            // packets never reserve execution slots — but the machine's
            // aggregate capacity still has to bind. Expected duty per
            // lane is its offered packet rate times the per-packet service
            // time, capped at one core (a serial lane cannot use more);
            // when the machine's summed duty exceeds its execution slots,
            // the lanes fair-share it.
            let service_secs = charge.client_cycles as f64 / machine.spec().freq_hz as f64;
            let duty: f64 = (0..cfg.n_clients)
                .filter(|c| c % cfg.n_client_machines == m)
                .map(|c| {
                    let pps =
                        cfg.per_client_bps as f64 * weights[c] / (cfg.payload_bytes as f64 * 8.0);
                    (pps * service_secs).min(1.0)
                })
                .sum();
            let slots = machine.spec().slots() as f64;
            if duty > slots {
                machine.set_contention(duty / slots);
            }
            machine
        })
        .collect();
    let mut link = Link::ten_gbps();

    // Build the globally time-ordered arrival schedule. Clients are offset
    // by a fraction of their interval so arrivals interleave.
    let mut events: Vec<(SimTime, usize)> = Vec::new();
    let mut offered = 0u64;
    for (c, weight) in weights.iter().enumerate() {
        let rate_bps = cfg.per_client_bps as f64 * weight;
        if rate_bps <= 0.0 {
            continue;
        }
        let interval = SimDuration::from_secs_f64(cfg.payload_bytes as f64 * 8.0 / rate_bps);
        let packets = (cfg.duration.as_nanos() / interval.as_nanos().max(1)) as usize;
        offered += packets as u64;
        let offset =
            SimDuration::from_nanos(interval.as_nanos() * c as u64 / cfg.n_clients.max(1) as u64);
        for i in 0..packets {
            let t =
                SimTime::ZERO + offset + SimDuration::from_nanos(interval.as_nanos() * i as u64);
            events.push((t, c));
        }
    }
    events.sort_unstable();

    let mut client_flows = vec![SimTime::ZERO; cfg.n_clients];
    let mut server_flows = vec![SimTime::ZERO; cfg.n_clients];
    let mut delivered_bits = 0u64;
    let mut delivered = 0u64;
    let deadline = SimTime::ZERO + cfg.duration;

    // Current peer-to-shard placement: home `client mod c` to start with
    // (the real server also places a peer at `peer mod C`), moved on the
    // fly when migration is modelled.
    let mut assignment: Vec<usize> = (0..cfg.n_clients).map(|c| c % shards).collect();
    let mut migrations = 0u64;
    let migration_threshold = SimDuration::from_secs_f64(
        MIGRATION_BACKLOG_JOBS as f64 * charge.server_cycles as f64 / server.spec().freq_hz as f64,
    );
    // A shard runs the packet's whole server work plus its peer's share of
    // the socket front-end.
    let job_cycles = charge.server_cycles
        + cfg
            .server_shards
            .map_or(0, |lanes| lanes.socket_cycles(charge.fragments));

    // Client stage: per-client serial lane — one single-threaded VPN
    // process per client. A backlogged client (e.g. a heavy-tailed
    // elephant) is capped at one core's throughput, but its *queued*
    // packets must not reserve execution slots and starve the other
    // clients sharing the machine.
    let mut wire_events: Vec<(SimTime, usize)> = Vec::with_capacity(events.len());
    for (arrival, c) in events {
        let machine = &mut client_machines[c % cfg.n_client_machines];
        let done_client =
            machine.run_job_serial(arrival, charge.client_cycles, &mut client_flows[c]);
        if charge.dropped {
            continue;
        }
        wire_events.push((done_client, c));
    }
    // Wire + server stages, in the order packets actually hit the wire
    // (the link serialises real transmit instants; a client whose queue
    // delays its packets must not inflate earlier transmissions). Sorting
    // is stable per client because each client lane is serial.
    wire_events.sort_unstable();

    let frag_bytes = charge.wire_bytes / charge.fragments.max(1);
    for (done_client, c) in wire_events {
        let mut arrived = done_client;
        for _ in 0..charge.fragments.max(1) {
            arrived = link.transmit(done_client, frag_bytes);
        }
        // Client c's peer lives on exactly one shard lane at a time, so
        // per-peer ordering stays a serial watermark. A modelled migration
        // moves the peer (watermark and all) when its lane's backlog
        // exceeds the least-loaded lane's by the threshold.
        let done_server = match cfg.server_shards {
            Some(lanes) => {
                let lane = if lanes.migrate && shards > 1 {
                    let cur = assignment[c];
                    let backlog = |s: usize| server_flows[s].saturating_sub(arrived);
                    let best = (0..shards).min_by_key(|&s| backlog(s)).unwrap_or(cur);
                    if backlog(cur) > backlog(best) + migration_threshold {
                        assignment[c] = best;
                        migrations += 1;
                    }
                    assignment[c]
                } else {
                    c % shards
                };
                // Serial lane per shard thread (see the contention set-up
                // above): queued packets wait in the shard's queue, so
                // they must not reserve execution slots ahead of time.
                server.run_job_serial(arrived, job_cycles, &mut server_flows[lane])
            }
            None if cfg.server_single_process => {
                server.run_job_flow(arrived, job_cycles, &mut server_flows[0])
            }
            None => server.run_job_flow(arrived, job_cycles, &mut server_flows[c]),
        };
        // Only packets completing within the window count towards
        // steady-state throughput (a saturated server accumulates backlog).
        if done_server <= deadline {
            delivered += 1;
            delivered_bits += charge.payload_bytes as u64 * 8;
        }
    }

    let elapsed = cfg.duration;
    ScalabilityResult {
        gbps: delivered_bits as f64 / elapsed.as_secs_f64() / 1e9,
        server_cpu: server.utilisation(elapsed),
        client_cpu: {
            let total: f64 = client_machines.iter().map(|m| m.utilisation(elapsed)).sum();
            total / client_machines.len() as f64
        },
        delivery_ratio: if offered == 0 {
            0.0
        } else {
            delivered as f64 / offered as f64
        },
        migrations,
    }
}

/// One leg of an unloaded latency path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leg {
    /// CPU processing of `cycles` at `freq_hz`.
    Cycles {
        /// Cycles consumed.
        cycles: u64,
        /// Clock frequency of the machine executing them.
        freq_hz: u64,
    },
    /// Wire transfer of `bytes` over a `rate_bps` link with propagation
    /// `delay`.
    Wire {
        /// Bytes transferred.
        bytes: usize,
        /// Link rate.
        rate_bps: u64,
        /// One-way propagation delay.
        delay: SimDuration,
    },
    /// A fixed delay (e.g. remote-site RTT contribution).
    Fixed(SimDuration),
}

/// Sums an unloaded latency path (used by Fig. 7, Fig. 11, Table I).
pub fn unloaded_latency(legs: &[Leg]) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for leg in legs {
        total += match *leg {
            Leg::Cycles { cycles, freq_hz } => SimDuration::from_cycles(cycles, freq_hz),
            Leg::Wire {
                bytes,
                rate_bps,
                delay,
            } => SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps as f64) + delay,
            Leg::Fixed(d) => d,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge(payload: usize, client: u64, server: u64) -> PacketCharge {
        PacketCharge {
            payload_bytes: payload,
            wire_bytes: payload + 60,
            fragments: 1,
            client_cycles: client,
            server_cycles: server,
            dropped: false,
        }
    }

    /// `n_clients` cheap peers, each offering 20 Mbps of `c`'s packets to
    /// the shard lanes `lanes`.
    fn small_records(c: PacketCharge, n_clients: usize, lanes: ShardLanes) -> ScalabilityResult {
        let cfg = ScalabilityConfig {
            n_clients,
            per_client_bps: 20_000_000,
            payload_bytes: c.payload_bytes,
            duration: SimDuration::from_millis(20),
            server_shards: Some(lanes),
            ..ScalabilityConfig::default()
        };
        run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &cfg)
    }

    #[test]
    fn single_flow_is_client_bound_when_client_slower() {
        let mut link = Link::ten_gbps();
        let r = run_single_flow(
            MachineSpec::class_a(),
            MachineSpec::class_a(),
            &mut link,
            std::iter::repeat_n(charge(1500, 50_000, 10_000), 2_000),
        );
        // Client at 50k cycles on a full-speed 3.5GHz slot: ~14.3us/packet
        // -> ~840 Mbps.
        assert!(r.mbps > 750.0 && r.mbps < 950.0, "{}", r.mbps);
        assert!(r.delivered == 2_000);
    }

    #[test]
    fn dropped_packets_do_not_deliver() {
        let mut link = Link::ten_gbps();
        let mut c = charge(1500, 10_000, 10_000);
        c.dropped = true;
        let r = run_single_flow(
            MachineSpec::class_a(),
            MachineSpec::class_a(),
            &mut link,
            std::iter::repeat_n(c, 100),
        );
        assert_eq!(r.delivered, 0);
        assert_eq!(r.dropped, 100);
        assert_eq!(r.mbps, 0.0);
    }

    #[test]
    fn scalability_saturates_server() {
        // Server work of 29k cycles/packet at 16.7kpps/client saturates
        // class B (~17e9 cycles/s) around 35 clients.
        let cfg = ScalabilityConfig {
            n_clients: 60,
            duration: SimDuration::from_millis(20),
            ..ScalabilityConfig::default()
        };
        let r = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            charge(1500, 20_000, 29_000),
            &cfg,
        );
        assert!(
            r.server_cpu > 0.95,
            "server should be saturated: {}",
            r.server_cpu
        );
        assert!(r.gbps < 12.0 * 0.8, "cannot exceed offered load");
        assert!(r.gbps > 4.0, "should deliver several Gbps: {}", r.gbps);

        // With few clients the server is underutilised and throughput
        // follows the offered load.
        let cfg_small = ScalabilityConfig {
            n_clients: 5,
            ..cfg
        };
        let r_small = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            charge(1500, 20_000, 29_000),
            &cfg_small,
        );
        assert!(r_small.server_cpu < 0.5);
        assert!(
            (r_small.gbps - 1.0).abs() < 0.15,
            "5 x 200Mbps: {}",
            r_small.gbps
        );
    }

    #[test]
    fn scalability_is_linear_before_saturation() {
        let base = ScalabilityConfig {
            duration: SimDuration::from_millis(20),
            ..ScalabilityConfig::default()
        };
        let tput = |n| {
            let cfg = ScalabilityConfig {
                n_clients: n,
                ..base.clone()
            };
            run_scalability(
                MachineSpec::class_a(),
                MachineSpec::class_b(),
                charge(1500, 20_000, 29_000),
                &cfg,
            )
            .gbps
        };
        let t10 = tput(10);
        let t20 = tput(20);
        assert!((t20 / t10 - 2.0).abs() < 0.1, "t10={t10} t20={t20}");
    }

    #[test]
    fn shards_scale_a_saturated_server() {
        // Heavy per-packet server work: one shard lane saturates well
        // below the offered load, so adding shards must scale throughput.
        let tput = |shards| {
            let cfg = ScalabilityConfig {
                n_clients: 32,
                duration: SimDuration::from_millis(20),
                server_shards: Some(ShardLanes::new(shards)),
                ..ScalabilityConfig::default()
            };
            run_scalability(
                MachineSpec::class_a(),
                MachineSpec::class_b(),
                charge(1500, 20_000, 29_000),
                &cfg,
            )
            .gbps
        };
        let one = tput(1);
        let four = tput(4);
        assert!(
            four >= 2.0 * one,
            "4 shards must at least double one: {one} vs {four}"
        );
    }

    #[test]
    fn one_shard_matches_single_process() {
        let mk = |shards: Option<usize>, single| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_shards: shards.map(ShardLanes::new),
            server_single_process: single,
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 29_000);
        let sharded = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(Some(1), false),
        );
        let single = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(None, true),
        );
        assert_eq!(sharded, single, "1 shard == the single-process model");
    }

    #[test]
    fn uniform_weights_match_unweighted_run() {
        let base = ScalabilityConfig {
            n_clients: 12,
            duration: SimDuration::from_millis(20),
            server_shards: Some(ShardLanes::new(4)),
            ..ScalabilityConfig::default()
        };
        let weighted = ScalabilityConfig {
            client_load_weights: Some(vec![3.0; 12]), // uniform, just scaled
            ..base.clone()
        };
        let c = charge(1500, 20_000, 29_000);
        let a = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &base);
        let b = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &weighted);
        assert_eq!(a, b, "normalised uniform weights are a no-op");
    }

    #[test]
    fn migration_recovers_a_skewed_shard() {
        // Elephants at clients 0, 4, 8, 12 all home on shard 0 under
        // `c mod 4`; the hot lane (a serial flow capped at one core)
        // saturates while the others idle. Migration moves peers off the
        // backlog.
        let n = 16;
        let mut weights = vec![0.2; n];
        for c in (0..n).step_by(4) {
            weights[c] = 3.0;
        }
        let mk = |migrate| ScalabilityConfig {
            n_clients: n,
            duration: SimDuration::from_millis(20),
            server_shards: Some(ShardLanes {
                migrate,
                ..ShardLanes::new(4)
            }),
            client_load_weights: Some(weights.clone()),
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 60_000);
        let fixed = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(false),
        );
        let moving = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(true));
        assert_eq!(fixed.migrations, 0);
        assert!(moving.migrations > 0, "skew must trigger migrations");
        assert!(
            moving.gbps >= 1.3 * fixed.gbps,
            "migration must recover the hot shard: fixed {:.2} vs migrating {:.2} Gbps",
            fixed.gbps,
            moving.gbps
        );
    }

    #[test]
    fn migration_is_a_noop_under_uniform_load() {
        let mk = |migrate| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_shards: Some(ShardLanes {
                migrate,
                ..ShardLanes::new(4)
            }),
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 29_000);
        let fixed = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(false),
        );
        let moving = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(true));
        assert!(
            (moving.gbps - fixed.gbps).abs() / fixed.gbps < 0.05,
            "uniform load must not regress: {} vs {}",
            fixed.gbps,
            moving.gbps
        );
    }

    #[test]
    fn shard_lanes_scale_a_framing_bound_ingress() {
        // Small records from many peers: one shard lane saturates on the
        // per-packet server work; C=4 shards must recover well over 1.3x.
        let c = charge(296, 20_000, 36_000);
        let tput = |shards| small_records(c, 48, ShardLanes::new(shards)).gbps;
        let (one, four) = (tput(1), tput(4));
        assert!(
            four >= 1.3 * one,
            "4 shards must beat 1 by >=1.3x on a small-record mix: {one:.3} vs {four:.3}"
        );
    }

    #[test]
    fn socket_models_are_plain_shard_lane_cycles() {
        // A socket model adds its per-packet cycles to the shard lane that
        // runs the packet and does nothing else: the same run with those
        // cycles folded into `server_cycles` is the same result.
        let c = charge(296, 20_000, 36_000);
        let folded = PacketCharge {
            server_cycles: c.server_cycles + 18_000,
            ..c
        };
        let plain = small_records(folded, 120, ShardLanes::new(4));
        let wakeups = ShardLanes {
            wakeups: Some(AsyncFrontEndModel::call_driven(18_000)),
            ..ShardLanes::new(4)
        };
        assert_eq!(small_records(c, 120, wakeups), plain);
    }

    #[test]
    fn async_model_zero_ratio_or_absent_is_a_noop() {
        let c = charge(1500, 20_000, 29_000);
        let run = |wakeups| {
            let lanes = ShardLanes {
                wakeups,
                ..ShardLanes::new(2)
            };
            small_records(c, 16, lanes)
        };
        let zero = run(Some(AsyncFrontEndModel::event_driven(18_000, 0.0)));
        assert_eq!(run(None), zero, "zero wakeups/packet must price nothing");
    }

    #[test]
    fn event_driven_front_end_recovers_a_wakeup_bound_ingress() {
        // Many cheap peers, small records: with one blocking receive per
        // datagram the wakeup cost rivals the per-packet server work and
        // the shard lanes saturate; an event loop draining ~10 datagrams
        // per wakeup must recover well over 1.3x.
        let c = charge(296, 20_000, 36_000);
        let tput = |fe| {
            let lanes = ShardLanes {
                wakeups: Some(fe),
                ..ShardLanes::new(4)
            };
            small_records(c, 120, lanes).gbps
        };
        let call = tput(AsyncFrontEndModel::call_driven(18_000));
        let event = tput(AsyncFrontEndModel::event_driven(18_000, 0.1));
        assert!(
            event >= 1.3 * call,
            "event-driven must beat call-driven >=1.3x on a wakeup-bound mix: \
             {call:.3} vs {event:.3} Gbps"
        );
    }

    #[test]
    fn unloaded_latency_sums() {
        let d = unloaded_latency(&[
            Leg::Cycles {
                cycles: 35_000,
                freq_hz: 3_500_000_000,
            },
            Leg::Wire {
                bytes: 1_250,
                rate_bps: 10_000_000_000,
                delay: SimDuration::from_micros(30),
            },
            Leg::Fixed(SimDuration::from_millis(5)),
        ]);
        // 10us + 1us + 30us + 5ms
        assert_eq!(d.as_nanos(), 10_000 + 1_000 + 30_000 + 5_000_000);
    }
}

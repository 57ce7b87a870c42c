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
//! * **Worker lanes** ([`ScalabilityConfig::server_worker_shards`],
//!   [`WorkerLanes`]) — one serial flow per worker shard; sessions are
//!   placed by static affinity or the load-aware migration model
//!   ([`WorkerLanes::load_aware`]).
//! * **RX lanes** ([`WorkerLanes::rx`], [`RxLanes`]) — `K` serial framing
//!   lanes (`client mod K`) in front of the worker lanes, charging
//!   [`PacketCharge::rx_cycles`] each, with completion-ordered hand-off
//!   to dispatch. The socket front-end ([`RxLanes::wakeups`]) adds the
//!   event-loop wakeup charge here: per datagram when call-driven,
//!   amortised over the measured drain batch when event-driven. The
//!   syscall boundary ([`RxLanes::syscalls`]) likewise adds the per-call
//!   kernel-crossing charge, amortised over the measured bulk
//!   `recv_many` batch size.
//!
//! # Compatibility invariant
//!
//! The refinements nest — RX lanes exist only in front of worker lanes,
//! the socket models only on RX lanes — so a model that would be ignored
//! cannot be written down. Each level is an `Option`, and `None` keeps
//! the coarser model **bit-identical** (regression-tested below), so
//! shipped figures never move when a new stage is added to the model.

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
    /// Cycles charged on the server machine (total — includes
    /// `rx_cycles`).
    pub server_cycles: u64,
    /// The portion of `server_cycles` attributable to the RX front-end
    /// (datagram reassembly and record framing). Only consulted when
    /// [`WorkerLanes::rx`] models a separate RX stage: those cycles then
    /// run on serial RX lanes instead of the worker-shard lanes, leaving
    /// the per-packet total unchanged.
    pub rx_cycles: u64,
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
    /// `Some(lanes)`: the server is ONE process of worker-shard lanes
    /// (and, nested inside, RX lanes) — the sharded multi-worker EndBox
    /// server. `None`: the paper's legacy one-process-per-client model,
    /// governed by `server_procs_per_client` / `server_single_process`.
    pub server_worker_shards: Option<WorkerLanes>,
    /// `Some(w)`: relative offered-load weight per client (heavy-tailed
    /// mixes). Weights are normalised so the *aggregate* offered load
    /// stays `n_clients * per_client_bps` — a skewed mix is directly
    /// comparable to the uniform one. `None`: every client offers
    /// `per_client_bps` (the paper's uniform setup).
    pub client_load_weights: Option<Vec<f64>>,
}

/// The sharded server's worker stage: `n` shard threads, each a serial
/// flow competing for the machine's cores (session-id-affine assignment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerLanes {
    /// Worker shards (minimum 1).
    pub n: usize,
    /// Dispatch sessions to worker flows load-awarely: a session migrates
    /// to the least-backlogged shard when its current shard's backlog
    /// exceeds the minimum by more than [`MIGRATION_BACKLOG_JOBS`] jobs'
    /// worth of service time (bounded migration — the timing-layer model
    /// of the real `ShardedVpnServer`'s dispatcher). `false`: fixed
    /// session-id affinity (`client mod n`), the counterfactual a
    /// measured charge is replayed against.
    pub load_aware: bool,
    /// `Some(rx)`: a separate RX stage in front of the workers. `None`:
    /// the RX work stays folded into the worker lanes (the pre-RX-pool
    /// model; exact legacy behaviour).
    pub rx: Option<RxLanes>,
}

impl WorkerLanes {
    /// `n` worker lanes with fixed affinity and the RX work folded in.
    pub fn new(n: usize) -> Self {
        WorkerLanes {
            n,
            load_aware: false,
            rx: None,
        }
    }
}

/// The sharded server's RX stage: `k` serial framing lanes sharded by
/// `client mod k`, each charging [`PacketCharge::rx_cycles`] per packet,
/// with **completion-ordered** hand-off to the worker-shard dispatch
/// stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxLanes {
    /// RX framing lanes (minimum 1).
    pub k: usize,
    /// Model the control plane's **online peer→shard remap**: a client
    /// re-homes to the least-backlogged RX lane when its current lane's
    /// backlog exceeds the minimum by more than
    /// [`MIGRATION_BACKLOG_JOBS`] RX jobs' worth of service time — the
    /// timing-layer counterpart of the real `RxShardPool` remap that the
    /// front-end drives from its hot-group law. `false`: RX homing is
    /// fixed `client mod k` for the whole run. A measured charge earns
    /// this flag only when its run actually performed remaps.
    pub remap: bool,
    /// `Some(m)`: model the socket front-end ahead of the RX lanes. Each
    /// packet charges `m.per_packet_cycles(fragments)` extra event-loop
    /// cycles on its RX lane — the wakeup cost of the I/O front-end per
    /// wire datagram, amortised over however many datagrams each wakeup
    /// drains (see [`AsyncFrontEndModel`]). `None`: socket wakeups are
    /// free (exact legacy behaviour, bit-identical).
    pub wakeups: Option<AsyncFrontEndModel>,
    /// `Some(m)`: price the kernel-boundary crossings of socket I/O. Each
    /// packet charges `m.per_packet_cycles(fragments)` on its RX lane —
    /// the per-call syscall cost divided by how many datagrams each bulk
    /// `recv_many` call moves (see [`SyscallBatchModel`]). `None`:
    /// syscall crossings are free (exact legacy behaviour,
    /// bit-identical), matching the `net` layer's metering, which
    /// charges per-datagram socket costs but never the per-call
    /// boundary cost.
    pub syscalls: Option<SyscallBatchModel>,
}

impl RxLanes {
    /// `k` RX lanes with fixed homing and free socket I/O.
    pub fn new(k: usize) -> Self {
        RxLanes {
            k,
            remap: false,
            wakeups: None,
            syscalls: None,
        }
    }
}

/// Timing model of the socket front-end in front of the RX lanes.
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

    /// Amortised event-loop cycles charged per packet on its RX lane: a
    /// packet spanning `fragments` wire datagrams pays the per-datagram
    /// wakeup share once per datagram.
    pub fn per_packet_cycles(&self, fragments: usize) -> u64 {
        (self.wakeup_cycles as f64 * self.wakeups_per_datagram * fragments.max(1) as f64).round()
            as u64
    }
}

/// Timing model of the syscall boundary under bulk socket I/O.
///
/// Every socket receive crosses the kernel boundary
/// ([`crate::cost::CostModel::syscall_per_call`]): trap, register
/// save/restore, mitigation flushes, scheduler wake of the blocked
/// reader. A **per-datagram** transport (`try_recv`/`send_to`) pays
/// that once per wire datagram; the **bulk** `sendmmsg`/`recvmmsg`
/// shape (`UdpEndpoint::recv_many`/`send_many`) pays it once per call
/// and moves `datagrams_per_call` datagrams with it — the measured
/// amortisation ratio of a real `AsyncFrontEnd` run (its
/// `AsyncIngressStats::io_calls` counter against datagrams drained).
/// The per-datagram socket costs themselves
/// (`socket_recv_fixed`/`socket_per_byte`) are identical in both
/// shapes and already live in the measured [`PacketCharge`]; only the
/// per-call boundary cost differs, and that is what this model prices
/// — the direct analogue of [`AsyncFrontEndModel`] for the syscall
/// boundary instead of the event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallBatchModel {
    /// Cycles per kernel crossing
    /// ([`crate::cost::CostModel::syscall_per_call`]).
    pub call_cycles: u64,
    /// Wire datagrams moved per call: 1.0 for the per-datagram
    /// transport shape, the measured `datagrams / io_calls` ratio for a
    /// bulk front-end (bounded above by the configured bulk size, and
    /// below it whenever sockets run dry mid-batch).
    pub datagrams_per_call: f64,
}

impl SyscallBatchModel {
    /// The per-datagram baseline: one kernel crossing per datagram.
    pub fn per_datagram(call_cycles: u64) -> Self {
        SyscallBatchModel {
            call_cycles,
            datagrams_per_call: 1.0,
        }
    }

    /// The bulk model with a measured amortisation ratio.
    ///
    /// # Panics
    ///
    /// Panics if `datagrams_per_call < 1.0` — a call cannot move less
    /// than one datagram on a productive front-end.
    pub fn bulk(call_cycles: u64, datagrams_per_call: f64) -> Self {
        assert!(
            datagrams_per_call >= 1.0,
            "a syscall moves at least one datagram, got {datagrams_per_call}"
        );
        SyscallBatchModel {
            call_cycles,
            datagrams_per_call,
        }
    }

    /// Amortised syscall cycles charged per packet on its RX lane: a
    /// packet spanning `fragments` wire datagrams pays the per-call
    /// cost divided by the datagrams each call moves, once per
    /// datagram.
    pub fn per_packet_cycles(&self, fragments: usize) -> u64 {
        (self.call_cycles as f64 * fragments.max(1) as f64 / self.datagrams_per_call.max(1.0))
            .round() as u64
    }
}

/// Backlog gap (in per-packet server jobs) that triggers a session
/// migration under [`WorkerLanes::load_aware`]. Small enough to react within a
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
            server_worker_shards: None,
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
    /// Session-to-shard migrations performed by the load-aware dispatcher
    /// (always 0 with static affinity).
    pub migrations: u64,
    /// Client→RX-lane re-homings performed by the modelled online remap
    /// (always 0 without [`RxLanes::remap`]).
    pub rx_remaps: u64,
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
    // hardware threads costs scheduler overhead. A sharded multi-worker
    // server is a single process with a bounded thread count, so it never
    // oversubscribes regardless of the client count.
    let hw_threads = server.spec().cores * 2;
    let n_procs = match cfg.server_worker_shards {
        Some(_) => 1,
        None if cfg.server_single_process => 1,
        None => cfg.n_clients * cfg.server_procs_per_client,
    };
    let excess = n_procs.saturating_sub(hw_threads);
    server.set_contention(1.0 + excess as f64 * cfg.contention_per_excess_process);
    // With worker shards the RX front-end may run as its own thread pool;
    // RX lanes and worker lanes together make up the server's thread
    // count.
    let rx_lanes = cfg.server_worker_shards.and_then(|w| w.rx);
    if let Some(w) = cfg.server_worker_shards {
        // Each worker shard (and RX shard) is ONE thread: its jobs run
        // serially on its own lane and a queued packet does not occupy a
        // core while it waits (shard queues live in channels, not on the
        // run queue). When the threads outnumber the execution slots, the
        // lanes fair-share the machine.
        let threads = w.n.max(1) + rx_lanes.map_or(0, |rx| rx.k.max(1));
        let slots = server.spec().slots();
        if threads > slots {
            server.set_contention(threads as f64 / slots as f64);
        }
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

    // Current session-to-shard assignment: static affinity to start with
    // (the real dispatcher also places new sessions at `(sid-1) mod N`),
    // rebalanced on the fly when load-aware dispatch is on.
    let workers = cfg.server_worker_shards.map_or(1, |w| w.n.max(1));
    let mut assignment: Vec<usize> = (0..cfg.n_clients).map(|c| c % workers).collect();
    let mut migrations = 0u64;
    let mut rx_remaps = 0u64;
    let migration_threshold = SimDuration::from_secs_f64(
        MIGRATION_BACKLOG_JOBS as f64 * charge.server_cycles as f64 / server.spec().freq_hz as f64,
    );

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

    // Wire stage: serialise real transmit instants in wire order.
    let mut server_ready: Vec<(SimTime, usize)> = Vec::with_capacity(wire_events.len());
    for (done_client, c) in wire_events {
        let frag_bytes = charge.wire_bytes / charge.fragments.max(1);
        let mut arrived = done_client;
        for _ in 0..charge.fragments.max(1) {
            arrived = link.transmit(done_client, frag_bytes);
        }
        server_ready.push((arrived, c));
    }

    // RX stage (the sharded front-end model): each packet is framed on
    // its client's RX lane (`client mod k`, serial — reassembly state is
    // pinned to one RX shard), then handed to the dispatch stage in
    // RX-**completion** order, mirroring the real `RxShardPool` whose
    // events reach the front-end re-merge as shards finish. The framing
    // cycles move from the worker lanes to the RX lanes; the per-packet
    // total is unchanged.
    let rx_cycles = charge.rx_cycles.min(charge.server_cycles);
    let shard_cycles = match rx_lanes {
        Some(_) => charge.server_cycles - rx_cycles,
        None => charge.server_cycles,
    };
    if let Some(rx) = rx_lanes {
        let k = rx.k.max(1);
        // Socket front-end: the event-loop wakeup charge runs on the RX
        // lane that drains the peer's socket (one poll group per RX
        // shard). Call-driven: one wakeup per datagram; event-driven: the
        // measured amortisation. `None` keeps wakeups free (legacy).
        let io_cycles = rx
            .wakeups
            .map_or(0, |m| m.per_packet_cycles(charge.fragments))
            // Syscall boundary: per-call cost amortised over the bulk
            // receive batch, charged on the same RX lane. `None` = free,
            // bit-identical to the pre-bulk-transport model.
            + rx
                .syscalls
                .map_or(0, |m| m.per_packet_cycles(charge.fragments));
        let mut rx_flows = vec![SimTime::ZERO; k];
        // RX homing: fixed `client mod k` (reassembly pinning), or —
        // with the controller's online remap modelled — re-home a client
        // whose lane has fallen behind the least-backlogged lane by the
        // remap threshold. Mirrors the worker stage's bounded-migration
        // model; an RX job here costs `rx_cycles + io_cycles`.
        let mut rx_assignment: Vec<usize> = (0..cfg.n_clients).map(|c| c % k).collect();
        let rx_remap_threshold = SimDuration::from_secs_f64(
            MIGRATION_BACKLOG_JOBS as f64 * (rx_cycles + io_cycles) as f64
                / server.spec().freq_hz as f64,
        );
        for entry in server_ready.iter_mut() {
            let (arrived, c) = *entry;
            let lane = if rx.remap && k > 1 {
                let cur = rx_assignment[c];
                let backlog = |l: usize| rx_flows[l].saturating_sub(arrived);
                let best = (0..k).min_by_key(|&l| backlog(l)).unwrap_or(cur);
                if backlog(cur) > backlog(best) + rx_remap_threshold {
                    rx_assignment[c] = best;
                    rx_remaps += 1;
                }
                rx_assignment[c]
            } else {
                c % k
            };
            entry.0 = server.run_job_serial(arrived, rx_cycles + io_cycles, &mut rx_flows[lane]);
        }
        // Completion-ordered hand-off (stable sort: a client's RX lane is
        // serial, so its own completions stay in input order).
        server_ready.sort_by_key(|&(t, _)| t);
    }

    for (arrived, c) in server_ready {
        // Shard assignment mirrors the real sharded server's routing:
        // client c's session lands on exactly one worker flow at a time,
        // so per-session ordering stays a serial watermark. Load-aware
        // dispatch migrates a session (watermark and all) when its shard's
        // backlog exceeds the least-loaded shard's by the threshold.
        let done_server = match cfg.server_worker_shards {
            Some(lanes) => {
                let w = workers;
                let flow_idx = if lanes.load_aware && w > 1 {
                    let cur = assignment[c];
                    let backlog = |s: usize| server_flows[s].saturating_sub(arrived);
                    let best = (0..w).min_by_key(|&s| backlog(s)).unwrap_or(cur);
                    if backlog(cur) > backlog(best) + migration_threshold {
                        assignment[c] = best;
                        migrations += 1;
                    }
                    assignment[c]
                } else {
                    c % w
                };
                // Serial lane per shard thread (see the contention set-up
                // above): queued packets wait in the shard's channel, so
                // they must not reserve execution slots ahead of time.
                server.run_job_serial(arrived, shard_cycles, &mut server_flows[flow_idx])
            }
            None if cfg.server_single_process => {
                server.run_job_flow(arrived, shard_cycles, &mut server_flows[0])
            }
            None => server.run_job_flow(arrived, shard_cycles, &mut server_flows[c]),
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
        rx_remaps,
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

    /// Four worker lanes behind the RX stage `rx`.
    fn rx_lanes(rx: RxLanes) -> WorkerLanes {
        WorkerLanes {
            rx: Some(rx),
            ..WorkerLanes::new(4)
        }
    }

    fn charge(payload: usize, client: u64, server: u64) -> PacketCharge {
        PacketCharge {
            payload_bytes: payload,
            wire_bytes: payload + 60,
            fragments: 1,
            client_cycles: client,
            server_cycles: server,
            rx_cycles: 0,
            dropped: false,
        }
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
    fn worker_shards_scale_a_saturated_server() {
        // Heavy per-packet server work: one worker flow saturates well
        // below the offered load, so adding shards must scale throughput.
        let tput = |workers| {
            let cfg = ScalabilityConfig {
                n_clients: 32,
                duration: SimDuration::from_millis(20),
                server_worker_shards: Some(WorkerLanes::new(workers)),
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
            "4 worker shards must at least double one: {one} vs {four}"
        );
    }

    #[test]
    fn one_worker_shard_matches_single_process() {
        let mk = |shards: Option<usize>, single| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_worker_shards: shards.map(WorkerLanes::new),
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
        assert_eq!(sharded, single, "1 worker == the single-process model");
    }

    #[test]
    fn uniform_weights_match_unweighted_run() {
        let base = ScalabilityConfig {
            n_clients: 12,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(WorkerLanes::new(4)),
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
    fn load_aware_dispatch_recovers_a_skewed_shard() {
        // Elephants at clients 0, 4, 8, 12 all map to shard 0 under
        // static `c mod 4` affinity; the hot shard (a serial flow capped
        // at one core) saturates while the others idle. Load-aware
        // dispatch migrates sessions off the backlog.
        let n = 16;
        let mut weights = vec![0.2; n];
        for c in (0..n).step_by(4) {
            weights[c] = 3.0;
        }
        let mk = |load_aware| ScalabilityConfig {
            n_clients: n,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(WorkerLanes {
                load_aware,
                ..WorkerLanes::new(4)
            }),
            client_load_weights: Some(weights.clone()),
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 60_000);
        let stat = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(false),
        );
        let aware = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(true));
        assert_eq!(stat.migrations, 0);
        assert!(aware.migrations > 0, "skew must trigger migrations");
        assert!(
            aware.gbps >= 1.3 * stat.gbps,
            "load-aware must recover the hot shard: static {:.2} vs aware {:.2} Gbps",
            stat.gbps,
            aware.gbps
        );
    }

    #[test]
    fn rx_model_with_zero_rx_cycles_matches_legacy_sharded_run() {
        // With no framing cost split out, the RX lanes are zero-duration
        // pass-throughs and the completion-ordered hand-off degenerates to
        // arrival order: the model must be bit-identical to the legacy
        // folded-RX run (as long as the extra RX thread does not push the
        // machine into fair-sharing).
        let mk = |rx| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(WorkerLanes {
                rx,
                ..WorkerLanes::new(4)
            }),
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 29_000);
        let legacy = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(None));
        let rx = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(Some(RxLanes::new(1))),
        );
        assert_eq!(legacy, rx, "zero rx_cycles must be a model no-op");
    }

    #[test]
    fn rx_lanes_scale_a_framing_bound_ingress() {
        // Framing dominates the per-packet server work (small records):
        // one RX lane saturates while the worker shards idle; K=4 RX
        // shards must recover well over 1.3x.
        let mut c = charge(296, 20_000, 36_000);
        c.rx_cycles = 24_000;
        let tput = |k| {
            let cfg = ScalabilityConfig {
                n_clients: 48,
                per_client_bps: 20_000_000,
                payload_bytes: 296,
                duration: SimDuration::from_millis(20),
                server_worker_shards: Some(rx_lanes(RxLanes::new(k))),
                ..ScalabilityConfig::default()
            };
            run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &cfg).gbps
        };
        let (one, four) = (tput(1), tput(4));
        assert!(
            four >= 1.3 * one,
            "4 RX shards must beat 1 by >=1.3x on a framing-bound mix: {one:.3} vs {four:.3}"
        );
    }

    #[test]
    fn async_model_zero_ratio_or_absent_is_a_noop() {
        let mk = |wakeups| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(rx_lanes(RxLanes {
                wakeups,
                ..RxLanes::new(2)
            })),
            ..ScalabilityConfig::default()
        };
        let mut c = charge(1500, 20_000, 29_000);
        c.rx_cycles = 10_000;
        let off = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(None));
        let zero = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(Some(AsyncFrontEndModel::event_driven(18_000, 0.0))),
        );
        assert_eq!(off, zero, "zero wakeups/packet must price nothing");
    }

    #[test]
    fn event_driven_front_end_recovers_a_wakeup_bound_ingress() {
        // Many cheap peers, small records: with one blocking receive per
        // datagram the wakeup cost rivals the framing cost and the RX
        // lanes saturate; an event loop draining ~10 datagrams per wakeup
        // must recover well over 1.3x.
        let mut c = charge(296, 20_000, 36_000);
        c.rx_cycles = 24_000;
        let tput = |fe| {
            let cfg = ScalabilityConfig {
                n_clients: 120,
                per_client_bps: 20_000_000,
                payload_bytes: 296,
                duration: SimDuration::from_millis(20),
                server_worker_shards: Some(rx_lanes(RxLanes {
                    wakeups: Some(fe),
                    ..RxLanes::new(4)
                })),
                ..ScalabilityConfig::default()
            };
            run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &cfg).gbps
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
    fn syscall_model_absent_is_a_noop() {
        let mk = |syscalls| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(rx_lanes(RxLanes {
                syscalls,
                ..RxLanes::new(2)
            })),
            ..ScalabilityConfig::default()
        };
        let mut c = charge(1500, 20_000, 29_000);
        c.rx_cycles = 10_000;
        let off = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(None));
        let free = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(Some(SyscallBatchModel::bulk(0, 1.0))),
        );
        assert_eq!(off, free, "zero call cycles must price nothing");
    }

    #[test]
    fn bulk_syscalls_recover_a_syscall_bound_ingress() {
        // Small records, many peers: per-datagram kernel crossings rival
        // the framing cost and the RX lanes saturate; a bulk transport
        // moving ~30 datagrams per call must recover well over 1.5x.
        let mut c = charge(296, 20_000, 36_000);
        c.rx_cycles = 24_000;
        let tput = |m| {
            let cfg = ScalabilityConfig {
                n_clients: 120,
                per_client_bps: 20_000_000,
                payload_bytes: 296,
                duration: SimDuration::from_millis(20),
                server_worker_shards: Some(rx_lanes(RxLanes {
                    syscalls: Some(m),
                    ..RxLanes::new(2)
                })),
                ..ScalabilityConfig::default()
            };
            run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &cfg).gbps
        };
        let per_datagram = tput(SyscallBatchModel::per_datagram(21_000));
        let bulk = tput(SyscallBatchModel::bulk(21_000, 30.0));
        assert!(
            bulk >= 1.5 * per_datagram,
            "bulk syscalls must beat per-datagram >=1.5x on a syscall-bound mix: \
             {per_datagram:.3} vs {bulk:.3} Gbps"
        );
    }

    #[test]
    fn syscall_amortisation_is_monotone_in_bulk_ratio() {
        let m = |r| SyscallBatchModel::bulk(21_000, r).per_packet_cycles(1);
        assert_eq!(m(1.0), 21_000);
        assert!(m(8.0) < m(2.0));
        assert!(m(128.0) < m(32.0));
        // Fragmenting packets pay per datagram, amortised the same way.
        let frag = SyscallBatchModel::bulk(21_000, 4.0);
        assert_eq!(frag.per_packet_cycles(8), 42_000);
    }

    #[test]
    fn load_aware_dispatch_is_a_noop_under_uniform_load() {
        let mk = |load_aware| ScalabilityConfig {
            n_clients: 16,
            duration: SimDuration::from_millis(20),
            server_worker_shards: Some(WorkerLanes {
                load_aware,
                ..WorkerLanes::new(4)
            }),
            ..ScalabilityConfig::default()
        };
        let c = charge(1500, 20_000, 29_000);
        let stat = run_scalability(
            MachineSpec::class_a(),
            MachineSpec::class_b(),
            c,
            &mk(false),
        );
        let aware = run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), c, &mk(true));
        assert!(
            (aware.gbps - stat.gbps).abs() / stat.gbps < 0.05,
            "uniform load must not regress: {} vs {}",
            stat.gbps,
            aware.gbps
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

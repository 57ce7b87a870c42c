//! Deterministic interleaving/fault harness for the sharded RX front-end.
//!
//! A [`Schedule`] is an explicit, named description of one interleaving
//! class: which client produces which wire datagrams in which order,
//! where the `receive_datagrams` batch boundaries fall ([`Step::Flush`]),
//! which `peer_id`s the datagrams carry (steering them onto chosen RX
//! shards), how records are split into partial datagrams (including
//! splits inside record headers), and which RX shards are artificially
//! stalled so their events reach the front-end re-merge late.
//!
//! [`assert_schedule_parity`] replays the schedule through the
//! single-threaded reference server and through the sharded server for
//! every `(rx_shards, workers, dispatch policy)` in the grid, asserting
//! byte-identical outcomes; [`assert_schedule_parity_async`] does the
//! same through the **event-driven** socket front-end
//! (`ScenarioBuilder::async_ingress`), where a [`Step::Flush`] becomes a
//! poll-round boundary instead of a `receive_datagrams` batch boundary.
//! Because the sharded server re-merges by input index (and the event
//! loop re-merges drained datagrams by wire arrival stamp), the
//! assertions hold for *every* thread schedule — the stalls only force
//! the adversarial arrival orders to actually occur, so each
//! interleaving class is a reproducible named test instead of a timing
//! accident. [`assert_schedule_parity_adaptive`] replays a schedule with
//! the whole **self-tuning control plane** live
//! (`ScenarioBuilder::adaptive_control`), where [`Step::Remap`] steps
//! additionally fire manual peer re-homes at exact schedule positions.

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::Delivery;
use endbox::use_cases::UseCase;
use endbox::{EndBoxClient, EndBoxError};
use endbox_netsim::net::TransportKind;
use endbox_netsim::Packet;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::shard::DispatchPolicy;
use endbox_vpn::wire::Writer;

/// RX shard counts the grid covers.
pub const RX_GRID: [usize; 3] = [1, 2, 4];
/// Worker shard counts the grid covers.
pub const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// An aggressive load-aware configuration so even short schedules cross
/// the migration threshold — parity must hold *across* migrations.
pub fn eager_load_aware() -> DispatchPolicy {
    DispatchPolicy::LoadAware {
        imbalance_bytes: 1_000,
        max_migrations_per_dispatch: 2,
    }
}

/// The dispatch policies the grid covers.
pub fn policies() -> [DispatchPolicy; 2] {
    [DispatchPolicy::Static, eager_load_aware()]
}

/// How client indices map to wire-level `peer_id`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerMap {
    /// `peer = client` (peers spread across RX shards as `client mod K`).
    Identity,
    /// `peer = client * stride`. With a stride divisible by every RX
    /// shard count in the grid (e.g. 4), **all** peers collide on RX
    /// shard 0 — the adversarial placement where sharding buys nothing
    /// but must still be correct.
    Stride(u64),
}

impl PeerMap {
    pub fn peer(self, client: usize) -> u64 {
        match self {
            PeerMap::Identity => client as u64,
            PeerMap::Stride(s) => client as u64 * s,
        }
    }
}

/// One step of a schedule.
#[derive(Debug, Clone)]
pub enum Step {
    /// `client` seals `n_packets` payloads as one `DataBatch` record.
    Batch { client: usize, n_packets: usize },
    /// `client` seals one `Data` record.
    Single { client: usize },
    /// `client` sends its config-version ping.
    Ping { client: usize },
    /// Re-queue the datagrams produced by the previous datagram-producing
    /// step (replay attack; after a [`Step::Disconnect`] this is the
    /// *failed replayed Disconnect* — the session is gone, so the verdict
    /// fails and the fresh reassembler must NOT be torn down).
    Replay,
    /// A crafted single-datagram `Disconnect` record for `client`'s
    /// session.
    Disconnect { client: usize },
    /// A crafted `Data` record for `client`'s session, split into partial
    /// datagrams at the given byte offsets of the record body (0 < split
    /// < body len; offsets may fall inside the record header). The
    /// fragments are emitted in order, so a [`Step::Flush`] between other
    /// steps lets a partial record straddle dispatch boundaries.
    SplitRecord {
        client: usize,
        payload_len: usize,
        splits: Vec<usize>,
    },
    /// Emit only fragments `lo..hi` of a crafted split record; the other
    /// fragments come from a sibling part-step carrying the same `tag`
    /// (and identical `payload_len`/`splits`). This is how a partial
    /// record **straddles** `Flush`/dispatch boundaries: the head lands
    /// in one `receive_datagrams` batch, the tail in a later one, with
    /// other peers' traffic in between.
    SplitRecordPart {
        client: usize,
        payload_len: usize,
        splits: Vec<usize>,
        tag: u32,
        lo: usize,
        hi: usize,
    },
    /// Re-home `client`'s peer onto RX shard / poll group `to` at this
    /// exact schedule position, via the manual control-plane hook
    /// ([`ShardedScenario::remap_peer`]: reassembly state moves first —
    /// quiesced, in-flight partial records drained and reinstalled —
    /// then the socket registration follows). `to` is clamped onto the
    /// run's RX shard count so one schedule drives every grid point. A
    /// no-op for the single-threaded reference and the call-driven
    /// sharded runs — the parity claim is precisely that re-homing
    /// never changes outcomes, only where reassembly happens.
    Remap { client: usize, to: usize },
    /// Resize the sharded server's structure at this exact schedule
    /// position — RX framing shards to `rx` and worker shards to
    /// `workers` — via the manual elasticity hooks
    /// ([`ShardedScenario::resize_rx_shards`] /
    /// [`ShardedScenario::resize_workers`]: every peer's reassembly
    /// state rehashes to its home under the new modulus, quiesced and
    /// drained; retiring workers drain their sessions to survivors).
    /// Both counts are clamped to `1..=8`. Like [`Step::Remap`], buffered
    /// datagrams are deliberately NOT flushed first — they arrive after
    /// the rehash, racing buffered traffic against the resize. A no-op
    /// for the single-threaded reference — the parity claim is precisely
    /// that capacity changes never change outcomes.
    Resize { rx: usize, workers: usize },
    /// Cut a `receive_datagrams` batch boundary here (no-op for the
    /// single-threaded reference, which always goes datagram-at-a-time).
    Flush,
}

/// A named, reproducible interleaving class.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub name: &'static str,
    pub n_clients: usize,
    pub seed: u64,
    pub peers: PeerMap,
    /// `(rx_shard, micros)` stalls installed before the sharded run;
    /// entries whose shard index exceeds the run's RX count are skipped.
    pub stalls: Vec<(usize, u64)>,
    pub steps: Vec<Step>,
}

impl Schedule {
    pub fn new(name: &'static str, n_clients: usize, seed: u64) -> Schedule {
        Schedule {
            name,
            n_clients,
            seed,
            peers: PeerMap::Identity,
            stalls: Vec::new(),
            steps: Vec::new(),
        }
    }

    pub fn peers(mut self, peers: PeerMap) -> Schedule {
        self.peers = peers;
        self
    }

    pub fn stall(mut self, shard: usize, micros: u64) -> Schedule {
        self.stalls.push((shard, micros));
        self
    }

    pub fn step(mut self, step: Step) -> Schedule {
        self.steps.push(step);
        self
    }
}

/// The view of a delivery both servers must agree on.
#[derive(Debug, PartialEq)]
pub enum Out {
    Pending,
    Packets(Vec<Vec<u8>>),
    Ping(u64),
    Disconnected(u64),
    Rejected(EndBoxError),
}

pub fn simplify(result: Result<Delivery, EndBoxError>) -> Out {
    match result {
        Ok(Delivery::Pending) => Out::Pending,
        Ok(Delivery::Packet { packet, .. }) => Out::Packets(vec![packet.bytes().to_vec()]),
        Ok(Delivery::PacketBatch { packets, .. }) => {
            Out::Packets(packets.iter().map(|p| p.bytes().to_vec()).collect())
        }
        Ok(Delivery::Ping { message, .. }) => Out::Ping(message.config_version),
        Ok(Delivery::Disconnected { session_id }) => Out::Disconnected(session_id),
        Ok(other) => panic!("unexpected delivery in parity run: {other:?}"),
        Err(e) => Out::Rejected(e),
    }
}

/// Splits raw record bytes into fragment datagrams at the given offsets,
/// writing the fragment headers by hand — so a split may fall anywhere,
/// including inside the record header or 1 byte in. `id` must be unique
/// per (peer, in-flight record); crafted ids live far above the clients'
/// own fragmenter sequence.
pub fn split_raw(record_bytes: &[u8], splits: &[usize], id: u32) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = splits
        .iter()
        .copied()
        .filter(|&s| s > 0 && s < record_bytes.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut bounds = vec![0usize];
    bounds.extend(cuts);
    bounds.push(record_bytes.len());
    let total = (bounds.len() - 1) as u16;
    (0..total as usize)
        .map(|i| {
            let mut w = Writer::new();
            w.u32(id)
                .u16(i as u16)
                .u16(total)
                .raw(&record_bytes[bounds[i]..bounds[i + 1]]);
            w.finish()
        })
        .collect()
}

/// Frag-id namespace for crafted records (clients' own fragmenters count
/// up from 0; crafted records must not collide with their in-flight ids).
const CRAFT_ID_BASE: u32 = 0xC0DE_0000;
/// Separate namespace for [`Step::SplitRecordPart`] tags (stable across
/// the sibling part-steps of one record).
const CRAFT_PART_BASE: u32 = 0xD0DE_0000;

/// Seals one step into wire datagrams using the scenario's own clients.
/// Deterministic: scenarios built from the same seed hold identical key
/// material, so the single and sharded runs see identical bytes.
#[allow(clippy::too_many_arguments)]
fn seal_step(
    clients: &mut [EndBoxClient],
    session_ids: &[u64],
    peers: PeerMap,
    step: &Step,
    round: usize,
    prev: &[(u64, Vec<u8>)],
    craft_seq: &mut u32,
) -> Vec<(u64, Vec<u8>)> {
    let mk_packet = |client: usize, i: usize| {
        let payload = format!(
            "sched round {round} client {client} packet {i} {}",
            "y".repeat(round % 29)
        );
        Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            41_000 + client as u16,
            5_001,
            i as u32,
            payload.as_bytes(),
        )
    };
    match step {
        Step::Batch { client, n_packets } => {
            let packets: Vec<Packet> = (0..*n_packets).map(|i| mk_packet(*client, i)).collect();
            clients[*client]
                .send_batch(packets)
                .unwrap()
                .into_iter()
                .map(|d| (peers.peer(*client), d))
                .collect()
        }
        Step::Single { client } => clients[*client]
            .send_packet(mk_packet(*client, 0))
            .unwrap()
            .into_iter()
            .map(|d| (peers.peer(*client), d))
            .collect(),
        Step::Ping { client } => clients[*client]
            .build_ping()
            .unwrap()
            .into_iter()
            .map(|d| (peers.peer(*client), d))
            .collect(),
        Step::Replay => prev.to_vec(),
        Step::Disconnect { client } => {
            *craft_seq += 1;
            let record = Record {
                opcode: Opcode::Disconnect,
                session_id: session_ids[*client],
                packet_id: 0,
                payload: vec![],
            };
            split_raw(&record.to_bytes(), &[], CRAFT_ID_BASE + *craft_seq)
                .into_iter()
                .map(|d| (peers.peer(*client), d))
                .collect()
        }
        Step::SplitRecord {
            client,
            payload_len,
            splits,
        } => {
            *craft_seq += 1;
            let record = Record {
                opcode: Opcode::Data,
                session_id: session_ids[*client],
                packet_id: 1 + *craft_seq as u64,
                payload: vec![0xab; *payload_len],
            };
            split_raw(&record.to_bytes(), splits, CRAFT_ID_BASE + *craft_seq)
                .into_iter()
                .map(|d| (peers.peer(*client), d))
                .collect()
        }
        Step::SplitRecordPart {
            client,
            payload_len,
            splits,
            tag,
            lo,
            hi,
        } => {
            let record = Record {
                opcode: Opcode::Data,
                session_id: session_ids[*client],
                packet_id: 0x7000 + *tag as u64,
                payload: vec![0xcd; *payload_len],
            };
            split_raw(&record.to_bytes(), splits, CRAFT_PART_BASE + *tag)
                .drain(..)
                .skip(*lo)
                .take(hi.saturating_sub(*lo))
                .map(|d| (peers.peer(*client), d))
                .collect()
        }
        Step::Flush | Step::Remap { .. } | Step::Resize { .. } => Vec::new(),
    }
}

/// Replays the schedule through the single-threaded reference server,
/// one datagram at a time.
pub fn run_single(schedule: &Schedule) -> Vec<Out> {
    let mut scenario = Scenario::enterprise(schedule.n_clients, UseCase::Nop)
        .seed(schedule.seed)
        .build()
        .unwrap();
    let session_ids: Vec<u64> = (0..schedule.n_clients)
        .map(|i| scenario.session_id(i))
        .collect();
    let mut outs = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut craft_seq = 0u32;
    for (round, step) in schedule.steps.iter().enumerate() {
        let datagrams = seal_step(
            &mut scenario.clients,
            &session_ids,
            schedule.peers,
            step,
            round,
            &prev,
            &mut craft_seq,
        );
        for (peer, d) in &datagrams {
            outs.push(simplify(scenario.server.receive_datagram(*peer, d)));
        }
        if !datagrams.is_empty() {
            prev = datagrams;
        }
    }
    outs
}

/// Replays the schedule through a sharded scenario: datagrams accumulate
/// until a [`Step::Flush`] (or the end), then go through the server as
/// one pipelined `receive_datagrams` dispatch.
pub fn run_sharded(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: DispatchPolicy,
) -> Vec<Out> {
    run_sharded_elastic(schedule, rx_shards, workers, policy).0
}

/// Like [`run_sharded`], but also returns the server's [`ResizeStats`]
/// after the replay, so property tests can reconcile the resize counters
/// against the schedule that drove them (e.g. grows + shrinks never
/// exceed the number of [`Step::Resize`] steps, and a schedule without
/// resizes leaves the stats at zero).
///
/// [`ResizeStats`]: endbox::server::ResizeStats
pub fn run_sharded_elastic(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: DispatchPolicy,
) -> (Vec<Out>, endbox::server::ResizeStats) {
    let mut scenario: ShardedScenario = Scenario::enterprise(schedule.n_clients, UseCase::Nop)
        .seed(schedule.seed)
        .dispatch(policy)
        .rx_shards(rx_shards)
        .build_sharded(workers)
        .unwrap();
    for &(shard, micros) in &schedule.stalls {
        if shard < rx_shards {
            scenario.server.set_rx_stall_micros(shard, micros);
        }
    }
    let session_ids: Vec<u64> = (0..schedule.n_clients)
        .map(|i| scenario.session_id(i))
        .collect();
    let mut outs = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut segment: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut craft_seq = 0u32;
    for (round, step) in schedule.steps.iter().enumerate() {
        if matches!(step, Step::Flush) {
            outs.extend(
                scenario
                    .server
                    .receive_datagrams(std::mem::take(&mut segment))
                    .into_iter()
                    .map(simplify),
            );
            continue;
        }
        if let Step::Resize { rx, workers } = step {
            // Between receive batches by construction (the segment has
            // not been dispatched yet), so the resize's quiescence
            // requirement holds; the buffered segment then rides through
            // the *resized* server.
            scenario.resize_rx_shards((*rx).clamp(1, 8));
            scenario.resize_workers((*workers).clamp(1, 8));
            continue;
        }
        let datagrams = seal_step(
            &mut scenario.clients,
            &session_ids,
            schedule.peers,
            step,
            round,
            &prev,
            &mut craft_seq,
        );
        segment.extend(datagrams.iter().cloned());
        if !datagrams.is_empty() {
            prev = datagrams;
        }
    }
    outs.extend(
        scenario
            .server
            .receive_datagrams(segment)
            .into_iter()
            .map(simplify),
    );
    let stats = scenario.resize_stats();
    (outs, stats)
}

/// Replays the schedule through an **event-driven** sharded scenario
/// ([`ScenarioBuilder::async_ingress`]): datagrams accumulate until a
/// [`Step::Flush`] (or the end), then ride the virtual wire into the
/// per-peer server sockets — one `send` per datagram, in input order, so
/// the wire stamps reproduce the exact interleaving — and one
/// run-until-idle event loop drains them through the pipelined dispatch.
///
/// With the default (generous) shard budget everything drains in one
/// poll round per flush segment, so the event loop re-merges the drained
/// datagrams into exact wire order and the flat output sequence is
/// comparable 1:1 with the single-threaded reference.
pub fn run_async(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: DispatchPolicy,
) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        Some(policy),
        None,
        TransportKind::Virtual,
    )
}

/// [`run_async`] with the whole **self-tuning control plane** live
/// ([`ScenarioBuilder::adaptive_control`]): closed-loop per-shard
/// budgets with per-socket token buckets, the autonomous hot-peer remap
/// law, [`DispatchPolicy::Adaptive`] rate-derived migration and
/// idle-worker stealing. There is no policy parameter — the controller
/// owns the policy; that is the configuration under test. [`Step::Remap`]
/// steps additionally fire the manual remap hook at their exact schedule
/// position, racing re-homes against whatever the schedule interleaves
/// them with.
///
/// [`ScenarioBuilder::adaptive_control`]: endbox::scenario::ScenarioBuilder::adaptive_control
pub fn run_async_adaptive(schedule: &Schedule, rx_shards: usize, workers: usize) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        None,
        None,
        TransportKind::Virtual,
    )
}

/// [`run_async_adaptive`] with an explicit ingress `recv_many` bulk
/// size, so the controller-on grid also covers the bulk axis: the
/// closed-loop budgets must not depend on how many datagrams each
/// transport call returns.
pub fn run_async_adaptive_bulk(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    recv_bulk: usize,
) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        None,
        Some(recv_bulk),
        TransportKind::Virtual,
    )
}

/// [`run_async`] with an explicit ingress `recv_many` bulk size (`1` =
/// the per-datagram transport shape; the default is the production bulk
/// of `DEFAULT_DRAIN_QUOTA`). Outcomes must not depend on the setting —
/// that is the invariant the bulk parity grid pins.
pub fn run_async_bulk(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: DispatchPolicy,
    recv_bulk: usize,
) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        Some(policy),
        Some(recv_bulk),
        TransportKind::Virtual,
    )
}

/// [`run_async_bulk`] over the **OS-socket** backend: the same schedule
/// rides real loopback UDP sockets (wire stamps survive the kernel
/// round-trip in the OS wire header), so the outcomes must still be
/// byte-identical to the single-threaded reference. `policy: None`
/// runs the self-tuning control plane instead of a pinned policy, as in
/// [`run_async_adaptive`] — over this backend the controller sees
/// `pending()` as 0/1 per socket, not a queue depth. Only call when
/// [`endbox_netsim::net::OsWire::available`].
pub fn run_async_os(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: Option<DispatchPolicy>,
    recv_bulk: usize,
) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        policy,
        Some(recv_bulk),
        TransportKind::OsSocket,
    )
}

/// [`run_async_bulk`] over an arbitrary wire backend
/// ([`ScenarioBuilder::transport`]): the same schedule rides the chosen
/// transport — SQ/CQ descriptor rings for [`TransportKind::Ring`],
/// zero-copy frame descriptors for [`TransportKind::XdpFrame`] — and
/// the outcomes must still be byte-identical to the single-threaded
/// reference.
///
/// [`ScenarioBuilder::transport`]: endbox::scenario::ScenarioBuilder::transport
pub fn run_async_backend(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: DispatchPolicy,
    recv_bulk: usize,
    kind: TransportKind,
) -> Vec<Out> {
    run_async_configured(
        schedule,
        rx_shards,
        workers,
        Some(policy),
        Some(recv_bulk),
        kind,
    )
}

/// `policy: None` selects the self-tuning control plane
/// (`ScenarioBuilder::adaptive_control` — the controller owns the
/// dispatch policy); `Some(policy)` pins the classic static
/// configuration.
fn run_async_configured(
    schedule: &Schedule,
    rx_shards: usize,
    workers: usize,
    policy: Option<DispatchPolicy>,
    recv_bulk: Option<usize>,
    transport: TransportKind,
) -> Vec<Out> {
    let builder = Scenario::enterprise(schedule.n_clients, UseCase::Nop)
        .seed(schedule.seed)
        .rx_shards(rx_shards)
        .async_ingress(true)
        .transport(transport);
    let builder = match policy {
        Some(policy) => builder.dispatch(policy),
        None => builder.adaptive_control(true),
    };
    let mut scenario: ShardedScenario = builder.build_sharded(workers).unwrap();
    if let Some(bulk) = recv_bulk {
        scenario.set_recv_bulk(bulk);
    }
    for &(shard, micros) in &schedule.stalls {
        if shard < rx_shards {
            scenario.server.set_rx_stall_micros(shard, micros);
        }
    }
    let session_ids: Vec<u64> = (0..schedule.n_clients)
        .map(|i| scenario.session_id(i))
        .collect();
    let mut outs = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut segment: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut craft_seq = 0u32;
    let mut sent_total = 0usize;
    // Every datagram yields exactly one outcome, so after a flush the
    // loop pumps until the output count catches up with the send count —
    // immediate on the virtual wire, a bounded wait for the kernel to
    // deliver on the OS backend.
    let flush = |scenario: &mut ShardedScenario,
                 segment: &mut Vec<(u64, Vec<u8>)>,
                 outs: &mut Vec<Out>,
                 sent_total: &mut usize| {
        *sent_total += segment.len();
        for (peer, d) in segment.drain(..) {
            scenario.send_wire_datagrams(peer, vec![d]);
        }
        let mut spins = 0;
        loop {
            outs.extend(
                scenario
                    .pump_async()
                    .into_iter()
                    .map(|(_, result)| simplify(result)),
            );
            if outs.len() >= *sent_total {
                break;
            }
            spins += 1;
            assert!(
                spins < 100_000,
                "wire lost datagrams: {} of {}",
                outs.len(),
                *sent_total
            );
            std::thread::yield_now();
        }
    };
    for (round, step) in schedule.steps.iter().enumerate() {
        if matches!(step, Step::Flush) {
            flush(&mut scenario, &mut segment, &mut outs, &mut sent_total);
            continue;
        }
        if let Step::Remap { client, to } = step {
            // Socket registration is lazy on first send; an empty send
            // forces it so a schedule may re-home a peer that has not
            // produced traffic yet. Datagrams still buffered in
            // `segment` are deliberately NOT flushed first: they arrive
            // *after* the re-home, which is one of the races the remap
            // schedules pin.
            let peer = schedule.peers.peer(*client);
            scenario.send_wire_datagrams(peer, Vec::new());
            scenario.remap_peer(peer, to % rx_shards);
            continue;
        }
        if let Step::Resize { rx, workers } = step {
            // Like Remap: buffered datagrams are deliberately NOT
            // flushed first — they ride sockets registered before the
            // rehash and arrive after it, which is exactly the
            // resize-races-buffered-traffic class these schedules pin.
            scenario.resize_rx_shards((*rx).clamp(1, 8));
            scenario.resize_workers((*workers).clamp(1, 8));
            continue;
        }
        let datagrams = seal_step(
            &mut scenario.clients,
            &session_ids,
            schedule.peers,
            step,
            round,
            &prev,
            &mut craft_seq,
        );
        segment.extend(datagrams.iter().cloned());
        if !datagrams.is_empty() {
            prev = datagrams;
        }
    }
    flush(&mut scenario, &mut segment, &mut outs, &mut sent_total);
    outs
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the **event-driven** front-end for every
/// `(rx_shards, workers, policy)` in the grid.
pub fn assert_schedule_parity_async(schedule: &Schedule) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_async_on(schedule, &grid);
}

/// Like [`assert_schedule_parity_async`], but over a caller-chosen
/// sub-grid.
pub fn assert_schedule_parity_async_on(schedule: &Schedule, grid: &[(usize, usize)]) {
    let reference = run_single(schedule);
    for policy in policies() {
        for &(rx, workers) in grid {
            let got = run_async(schedule, rx, workers, policy);
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server through the \
                 event-driven front-end at rx_shards={rx} workers={workers} policy={policy:?}",
                schedule.name
            );
        }
    }
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the event-driven front-end with the **self-tuning control plane**
/// live, for every `(rx_shards, workers, bulk)` in the grid ×
/// [`BULK_GRID`] (no policy axis — the controller owns the policy).
/// Adaptive budgets, token buckets,
/// the autonomous remap law and idle-worker stealing are all armed
/// while the schedule replays; any [`Step::Remap`] steps fire the
/// manual re-home hook at their exact position. The claim under test:
/// every controller decision lands at a round boundary, so outcomes
/// never move — only scheduling does.
pub fn assert_schedule_parity_adaptive(schedule: &Schedule) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_adaptive_on(schedule, &grid);
}

/// Like [`assert_schedule_parity_adaptive`], but over a caller-chosen
/// sub-grid. Every `(rx, workers)` point additionally sweeps the
/// ingress `recv_many` bulk axis ([`BULK_GRID`]) — the budget
/// controller sits *above* the transport drain, so the bulk shape must
/// not leak into outcomes either.
pub fn assert_schedule_parity_adaptive_on(schedule: &Schedule, grid: &[(usize, usize)]) {
    let reference = run_single(schedule);
    for &(rx, workers) in grid {
        for bulk in BULK_GRID {
            let got = run_async_adaptive_bulk(schedule, rx, workers, bulk);
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server under the \
                 self-tuning control plane at rx_shards={rx} workers={workers} bulk={bulk}",
                schedule.name
            );
        }
    }
}

/// The dispatch-policy axis of the elastic resize grid: the two static
/// configurations plus the self-tuning controller (`None` — the
/// controller owns the policy, including the resize law's worker
/// placement).
pub fn elastic_policies() -> [Option<DispatchPolicy>; 3] {
    [Some(DispatchPolicy::Static), Some(eager_load_aware()), None]
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the resizing sharded server for every **starting**
/// `(rx_shards, workers)` in the full grid × {Static, LoadAware,
/// Adaptive}. Schedules are expected to carry [`Step::Resize`] steps —
/// the grid point is only the starting geometry; the schedule moves it.
/// Every point replays through both doorways: the call-driven
/// `receive_datagrams` path (static policies) and the event-driven
/// front-end (all three policies — there a resize additionally rebuilds
/// the poll groups around the live sockets).
pub fn assert_schedule_parity_elastic(schedule: &Schedule) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_elastic_on(schedule, &grid);
}

/// Like [`assert_schedule_parity_elastic`], but over a caller-chosen
/// sub-grid of starting `(rx_shards, workers)` points.
pub fn assert_schedule_parity_elastic_on(schedule: &Schedule, grid: &[(usize, usize)]) {
    let reference = run_single(schedule);
    for policy in elastic_policies() {
        for &(rx, workers) in grid {
            if let Some(policy) = policy {
                let got = run_sharded(schedule, rx, workers, policy);
                assert_eq!(
                    got, reference,
                    "schedule `{}` diverged from the single-threaded server across a \
                     call-driven resize at rx_shards={rx} workers={workers} policy={policy:?}",
                    schedule.name
                );
            }
            let got =
                run_async_configured(schedule, rx, workers, policy, None, TransportKind::Virtual);
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server across an \
                 event-driven resize at rx_shards={rx} workers={workers} policy={policy:?}",
                schedule.name
            );
        }
    }
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the sharded server for every `(rx_shards, workers, policy)` in
/// the grid.
pub fn assert_schedule_parity(schedule: &Schedule) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_on(schedule, &grid);
}

/// Like [`assert_schedule_parity`], but over a caller-chosen sub-grid
/// (proptest keeps case counts low; the named tests run the full grid).
pub fn assert_schedule_parity_on(schedule: &Schedule, grid: &[(usize, usize)]) {
    let reference = run_single(schedule);
    for policy in policies() {
        for &(rx, workers) in grid {
            let got = run_sharded(schedule, rx, workers, policy);
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server at \
                 rx_shards={rx} workers={workers} policy={policy:?}",
                schedule.name
            );
        }
    }
}

/// Ingress `recv_many` bulk sizes the bulk parity grid covers: the
/// per-datagram transport shape (1), a tiny bulk that forces call
/// boundaries mid-queue (2), and the production default (32).
pub const BULK_GRID: [usize; 3] = [1, 2, 32];

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the event-driven front-end draining through bulk `recv_many`
/// calls, for every `(rx_shards, workers, policy, bulk)` in the full
/// grid × [`BULK_GRID`].
pub fn assert_schedule_parity_bulk(schedule: &Schedule) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_bulk_on(schedule, &grid);
}

/// Like [`assert_schedule_parity_bulk`], but over a caller-chosen
/// sub-grid of `(rx_shards, workers)` points.
pub fn assert_schedule_parity_bulk_on(schedule: &Schedule, grid: &[(usize, usize)]) {
    let reference = run_single(schedule);
    for policy in policies() {
        for &(rx, workers) in grid {
            for bulk in BULK_GRID {
                let got = run_async_bulk(schedule, rx, workers, policy, bulk);
                assert_eq!(
                    got, reference,
                    "schedule `{}` diverged from the single-threaded server through \
                     bulk recv_many ingress at rx_shards={rx} workers={workers} \
                     policy={policy:?} bulk={bulk}",
                    schedule.name
                );
            }
        }
    }
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the **OS-socket** backend (real loopback UDP) over `grid`, at
/// both the per-datagram and the production bulk size, under pinned
/// static dispatch and under the self-tuning controller. Skips (with a
/// note) when the sandbox forbids loopback sockets — set
/// `ENDBOX_REQUIRE_OS_SOCKET=1` to turn the skip into a failure.
pub fn assert_schedule_parity_os(schedule: &Schedule, grid: &[(usize, usize)]) {
    if !endbox_netsim::net::OsWire::available() {
        if std::env::var("ENDBOX_REQUIRE_OS_SOCKET").as_deref() == Ok("1") {
            panic!("ENDBOX_REQUIRE_OS_SOCKET=1 but loopback UDP is unavailable");
        }
        eprintln!(
            "skipping OS-socket parity for `{}`: loopback UDP unavailable",
            schedule.name
        );
        return;
    }
    let reference = run_single(schedule);
    for &(rx, workers) in grid {
        for policy in [Some(DispatchPolicy::Static), None] {
            for bulk in [1usize, 32] {
                let got = run_async_os(schedule, rx, workers, policy, bulk);
                assert_eq!(
                    got, reference,
                    "schedule `{}` diverged from the single-threaded server over the \
                     OS-socket backend at rx_shards={rx} workers={workers} bulk={bulk} \
                     policy={policy:?} (None = controller)",
                    schedule.name
                );
            }
        }
    }
}

/// Asserts byte-identical outcomes between the single-threaded reference
/// and the event-driven front-end over the given wire backend, for every
/// `(rx_shards, workers, policy, bulk)` in the full grid ×
/// [`BULK_GRID`] — the kernel-bypass mirror of
/// [`assert_schedule_parity_bulk`]. Unlike the OS backend, the ring and
/// frame backends are in-process and always available, so there is no
/// skip path.
pub fn assert_schedule_parity_backend(schedule: &Schedule, kind: TransportKind) {
    let grid: Vec<(usize, usize)> = RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect();
    assert_schedule_parity_backend_on(schedule, &grid, kind);
}

/// Like [`assert_schedule_parity_backend`], but over a caller-chosen
/// sub-grid of `(rx_shards, workers)` points.
pub fn assert_schedule_parity_backend_on(
    schedule: &Schedule,
    grid: &[(usize, usize)],
    kind: TransportKind,
) {
    let reference = run_single(schedule);
    for policy in policies() {
        for &(rx, workers) in grid {
            for bulk in BULK_GRID {
                let got = run_async_backend(schedule, rx, workers, policy, bulk, kind);
                assert_eq!(
                    got,
                    reference,
                    "schedule `{}` diverged from the single-threaded server over the \
                     {} backend at rx_shards={rx} workers={workers} policy={policy:?} \
                     bulk={bulk}",
                    schedule.name,
                    kind.name()
                );
            }
        }
    }
}

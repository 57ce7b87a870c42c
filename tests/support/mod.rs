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
//! [`run_single`] replays a schedule through the single-threaded
//! reference server; [`run`] replays it through the sharded server at one
//! `(rx_shards, workers)` grid point, configured by a [`RunCfg`]: which
//! doorway (direct `receive_datagrams` calls, or the **event-driven**
//! socket front-end, where a [`Step::Flush`] becomes a poll-round
//! boundary instead of a batch boundary), which `recv_many` bulk size
//! and which wire backend. The dispatch law and — through the event loop
//! — the budget, token and remap laws run in every configuration; there
//! is nothing to select. [`assert_parity`] asserts byte-identical
//! outcomes between the two for every grid point × configuration it is
//! given. Because the sharded server re-merges by input index (and the
//! event loop re-merges drained datagrams by wire arrival stamp), the
//! assertions hold for *every* thread schedule — the stalls only force
//! the adversarial arrival orders to actually occur, so each
//! interleaving class is a reproducible named test instead of a timing
//! accident. [`Step::Remap`] and [`Step::Resize`] steps additionally fire
//! manual peer re-homes and pool resizes at exact schedule positions, and
//! every sharded run reports the session moves the dispatcher made
//! ([`Moves`]), so a suite can assert relocation was exercised, not just
//! compiled.

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::{Delivery, ResizeStats};
use endbox::use_cases::UseCase;
use endbox::{EndBoxClient, EndBoxError};
use endbox_netsim::net::TransportKind;
use endbox_netsim::Packet;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::wire::Writer;

/// RX shard counts the grid covers.
pub const RX_GRID: [usize; 3] = [1, 2, 4];
/// Worker shard counts the grid covers.
pub const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// Every `(rx_shards, workers)` point of [`RX_GRID`] × [`WORKER_GRID`].
pub fn full_grid() -> Vec<(usize, usize)> {
    RX_GRID
        .iter()
        .flat_map(|&rx| WORKER_GRID.iter().map(move |&w| (rx, w)))
        .collect()
}

/// Ingress `recv_many` bulk sizes the bulk parity grid covers: the
/// per-datagram transport shape (1), a tiny bulk that forces call
/// boundaries mid-queue (2), and the production default (32).
pub const BULK_GRID: [usize; 3] = [1, 2, 32];

/// How datagrams enter the sharded server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorway {
    /// Datagrams accumulate until a [`Step::Flush`] (or the end), then go
    /// through the server as one pipelined `receive_datagrams` dispatch.
    Call,
    /// `ScenarioBuilder::async_ingress`: the accumulated datagrams ride
    /// the wire into the per-peer server sockets — one `send` per
    /// datagram, in input order, so the wire stamps reproduce the exact
    /// interleaving — and the event loop drains them through the
    /// pipelined dispatch. With the default (generous) shard budget
    /// everything drains in one poll round per flush segment, so the flat
    /// output sequence is comparable 1:1 with the reference.
    EventLoop,
}

/// One way of running a schedule through the sharded server.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub doorway: Doorway,
    /// Ingress `recv_many` bulk size (`1` = the per-datagram transport
    /// shape); `None` leaves the production default. Event loop only.
    pub recv_bulk: Option<usize>,
    /// The wire backend behind the sockets. Event loop only. Over
    /// [`TransportKind::OsSocket`] the schedule rides real loopback UDP
    /// (only where `OsWire::available`), and the controller sees
    /// `pending()` as 0/1 per socket, not a queue depth.
    pub transport: TransportKind,
}

impl RunCfg {
    /// Direct `receive_datagrams` calls.
    pub fn call() -> RunCfg {
        RunCfg {
            doorway: Doorway::Call,
            ..RunCfg::event_loop()
        }
    }

    /// The event loop over the virtual wire at the default bulk size.
    pub fn event_loop() -> RunCfg {
        RunCfg {
            doorway: Doorway::EventLoop,
            recv_bulk: None,
            transport: TransportKind::Virtual,
        }
    }

    pub fn bulk(self, recv_bulk: usize) -> RunCfg {
        RunCfg {
            recv_bulk: Some(recv_bulk),
            ..self
        }
    }

    pub fn transport(self, transport: TransportKind) -> RunCfg {
        RunCfg { transport, ..self }
    }
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

/// What one replay of a schedule produced: the outcome of every
/// datagram, in order, and the server's traffic counters afterwards.
#[derive(Debug, PartialEq)]
pub struct Replay {
    pub outs: Vec<Out>,
    pub delivered: u64,
    pub rejected: u64,
}

impl Replay {
    /// `counters` is the server's `(delivered, click-dropped, rejected)`;
    /// no parity run carries a server-side Click.
    fn new(outs: Vec<Out>, (delivered, _, rejected): (u64, u64, u64)) -> Replay {
        Replay {
            outs,
            delivered,
            rejected,
        }
    }
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
pub fn run_single(schedule: &Schedule) -> Replay {
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
    Replay::new(outs, scenario.server.counters())
}

/// What a sharded run relocated while it replayed a schedule: the
/// server's [`ResizeStats`] (so tests can reconcile the resize counters
/// against the schedule that drove them) and the dispatcher's session
/// moves.
#[derive(Debug, Clone, Copy)]
pub struct Moves {
    pub resize: ResizeStats,
    /// Sessions the dispatcher migrated (steals included).
    pub migrations: u64,
    /// The migrations that were idle-worker steals.
    pub steals: u64,
}

/// Replays the schedule through a sharded scenario with `rx_shards` RX
/// shards and `workers` workers as `cfg` describes, returning the
/// replay and what the server relocated along the way.
pub fn run(
    schedule: &Schedule,
    (rx_shards, workers): (usize, usize),
    cfg: &RunCfg,
) -> (Replay, Moves) {
    let event_loop = cfg.doorway == Doorway::EventLoop;
    let mut scenario: ShardedScenario = Scenario::enterprise(schedule.n_clients, UseCase::Nop)
        .seed(schedule.seed)
        .rx_shards(rx_shards)
        .async_ingress(event_loop)
        .transport(cfg.transport)
        .build_sharded(workers)
        .unwrap();
    if let Some(bulk) = cfg.recv_bulk {
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
    let mut flush =
        |scenario: &mut ShardedScenario, segment: &mut Vec<(u64, Vec<u8>)>, outs: &mut Vec<Out>| {
            if !event_loop {
                let results = scenario.server.receive_datagrams(std::mem::take(segment));
                outs.extend(results.into_iter().map(simplify));
                return;
            }
            // Every datagram yields exactly one outcome, so the loop
            // pumps until the output count catches up with the send
            // count — immediate on the virtual wire, a bounded wait for
            // the kernel to deliver on the OS backend.
            sent_total += segment.len();
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
                if outs.len() >= sent_total {
                    break;
                }
                spins += 1;
                assert!(
                    spins < 100_000,
                    "wire lost datagrams: {} of {sent_total}",
                    outs.len(),
                );
                std::thread::yield_now();
            }
        };
    for (round, step) in schedule.steps.iter().enumerate() {
        match step {
            Step::Flush => flush(&mut scenario, &mut segment, &mut outs),
            // Datagrams still buffered in `segment` are deliberately NOT
            // flushed before a Remap or a Resize: they arrive *after*
            // the relocation, which is one of the races these schedules
            // pin. Between receive batches by construction, so the
            // relocation's quiescence requirement holds.
            Step::Remap { client, to } if event_loop => {
                // Socket registration is lazy on first send; an empty
                // send forces it so a schedule may re-home a peer that
                // has not produced traffic yet.
                let peer = schedule.peers.peer(*client);
                scenario.send_wire_datagrams(peer, Vec::new());
                scenario.remap_peer(peer, to % rx_shards);
            }
            Step::Resize { rx, workers } => {
                scenario.resize_rx_shards((*rx).clamp(1, 8));
                scenario.resize_workers((*workers).clamp(1, 8));
            }
            _ => {
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
        }
    }
    flush(&mut scenario, &mut segment, &mut outs);
    let replay = Replay::new(outs, scenario.server.counters());
    let moves = Moves {
        resize: scenario.resize_stats(),
        migrations: scenario.server.migrations(),
        steals: scenario.server.steals(),
    };
    (replay, moves)
}

/// Asserts byte-identical outcomes and equal `(delivered, rejected)`
/// counters between the single-threaded reference and the sharded server
/// for every `(rx_shards, workers)` in `grid` ×
/// every configuration in `cfgs`. Where a schedule carries
/// [`Step::Resize`] steps the grid point is only the *starting*
/// geometry; the schedule moves it. Returns the dispatcher's
/// `(migrations, steals)` summed over every run.
pub fn assert_parity(schedule: &Schedule, grid: &[(usize, usize)], cfgs: &[RunCfg]) -> (u64, u64) {
    let reference = run_single(schedule);
    let (mut migrations, mut steals) = (0, 0);
    for cfg in cfgs {
        for &point in grid {
            let (got, moves) = run(schedule, point, cfg);
            migrations += moves.migrations;
            steals += moves.steals;
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server at \
                 (rx_shards, workers)={point:?} under {cfg:?}",
                schedule.name
            );
        }
    }
    (migrations, steals)
}

/// [`assert_parity`] over the full grid at every [`BULK_GRID`] size,
/// through the event loop over the virtual wire: the bulk shape may only
/// ever move the call count, and every control-plane decision lands at a
/// round boundary, so neither may move an outcome.
pub fn assert_parity_bulk(schedule: &Schedule) {
    let cfgs = BULK_GRID.map(|bulk| RunCfg::event_loop().bulk(bulk));
    assert_parity(schedule, &full_grid(), &cfgs);
}

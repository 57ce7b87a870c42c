//! Deterministic interleaving/fault harness for the sharded server.
//!
//! A [`Schedule`] is an explicit, named description of one interleaving
//! class: which client produces which wire datagrams in which order,
//! where the `receive_datagrams` batch boundaries fall ([`Step::Flush`]),
//! which `peer_id`s the datagrams carry (steering them onto chosen
//! shards), how records are split into partial datagrams (including
//! splits inside record headers), and which shards are artificially
//! stalled so their replies and escalations reach the front-end late.
//!
//! [`run`] replays a schedule at one [`Geometry`]: the single-threaded
//! reference server, or the sharded server at one shard count `C` of the
//! grid, configured by a [`RunCfg`]: which doorway (direct
//! `receive_datagrams` calls, or the **event-driven** socket front-end,
//! where a [`Step::Flush`] becomes a poll-round boundary instead of a
//! batch boundary), and which wire backend.
//! One loop drives both servers; the reference has no relocation, no
//! shard threads to stall and no event loop, so [`Step::Remap`],
//! [`Step::Resize`], the stalls and the doorway do nothing there, and its
//! `receive_datagrams` runs each datagram to completion in order. The
//! dispatch law — the one law that places peers, on the bytes the server
//! routed — and, through the event loop, the drain rule (one round
//! budget, shared fairly among ready sockets) run in every sharded
//! configuration; there is nothing to select. [`assert_parity`] asserts byte-identical outcomes between the
//! reference and every grid point × configuration it is given. Because
//! the sharded server re-merges by input index and answers escalations
//! in input order (and the event loop re-merges drained datagrams by
//! wire arrival stamp), the assertions hold for *every* thread schedule —
//! the stalls only force the adversarial orders to actually occur, so
//! each interleaving class is a reproducible named test instead of a
//! timing accident.
//! [`Step::Remap`] and [`Step::Resize`] steps additionally fire manual
//! peer re-homes and pool resizes at exact schedule positions, and every
//! sharded run reports the session moves the dispatcher made ([`Moves`]),
//! so a suite can assert relocation was exercised, not just compiled.
//! [`Step::Egress`] and [`Step::ServerPing`] run the other direction: the
//! server seals towards a client at an exact schedule position, and the
//! wire datagrams (or the error) are compared too. Every [`Replay`] also
//! carries the session state afterwards — the connected session ids and
//! the config version each client's session proved — so every grid point
//! of every suite compares that as well.

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::{Delivery, ResizeStats};
use endbox::use_cases::UseCase;
use endbox::{EndBoxClient, EndBoxError};
use endbox_netsim::net::TransportKind;
use endbox_netsim::Packet;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::wire::Writer;

/// The shard counts `C` the grid covers.
pub const GRID: [usize; 4] = [1, 2, 4, 8];

/// Where [`run`] replays a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The single-threaded reference server — the oracle.
    Reference,
    /// The sharded server with `C` shards.
    Sharded(usize),
}

impl From<usize> for Geometry {
    fn from(shards: usize) -> Geometry {
        Geometry::Sharded(shards)
    }
}

/// How datagrams enter the sharded server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorway {
    /// Datagrams accumulate until a [`Step::Flush`] (or the end), then go
    /// through the server as one `receive_datagrams` call.
    Call,
    /// `ScenarioBuilder::async_ingress`: the accumulated datagrams ride
    /// the wire into the per-peer server sockets — one `send` per
    /// datagram, in input order, so the wire stamps reproduce the exact
    /// interleaving — and the event loop drains them through the same
    /// call. With the default (generous) shard budget
    /// everything drains in one poll round per flush segment, so the flat
    /// output sequence is comparable 1:1 with the reference.
    EventLoop,
}

/// One way of running a schedule through the sharded server.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub doorway: Doorway,
    /// The wire backend behind the sockets. Event loop only. Over
    /// [`TransportKind::OsSocket`] the schedule rides real loopback UDP
    /// (only where `OsWire::available`). Placement reads routed bytes,
    /// the same on both wires; `pending()` — 0/1 per socket there, not
    /// a queue depth — feeds only `backlog()` and the resize law, which
    /// the harness never arms.
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

    /// The event loop over the virtual wire.
    pub fn event_loop() -> RunCfg {
        RunCfg {
            doorway: Doorway::EventLoop,
            transport: TransportKind::Virtual,
        }
    }

    pub fn transport(self, transport: TransportKind) -> RunCfg {
        RunCfg { transport, ..self }
    }
}

/// How client indices map to wire-level `peer_id`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerMap {
    /// `peer = client` (peers spread across shards as `client mod C`).
    Identity,
    /// `peer = client * stride`. With a stride divisible by most shard
    /// counts in the grid (e.g. 4), **all** peers collide on shard 0 —
    /// the adversarial placement where sharding buys nothing but must
    /// still be correct.
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
    /// Re-home `client`'s peer onto shard `to` at this exact schedule
    /// position, via the manual control-plane hook
    /// (`ShardedEndBoxServer::remap_peer`: the peer's reassembler and bound
    /// sessions move, quiesced, in-flight partial records included; its
    /// server socket stays in the one poll group). `to` is taken
    /// modulo the live shard count so one schedule drives every grid
    /// point. A no-op for the single-threaded reference — the parity
    /// claim is precisely that re-homing never changes outcomes, only
    /// where the work happens.
    Remap { client: usize, to: usize },
    /// Resize the sharded server to `shards` shards at this exact
    /// schedule position, via the manual elasticity hook
    /// (`ShardedEndBoxServer::resize`: a shrink moves every peer of
    /// a retiring shard, quiesced, to its home under the new count).
    /// Clamped to `1..=8`. Like [`Step::Remap`], buffered datagrams are
    /// deliberately NOT flushed first — they arrive after the move,
    /// racing buffered traffic against the resize. A no-op for the
    /// single-threaded reference — the parity claim is precisely that
    /// capacity changes never change outcomes.
    Resize { shards: usize },
    /// Cut a `receive_datagrams` batch boundary here (the reference runs
    /// each datagram to completion in order, so a boundary cannot move
    /// an outcome there).
    Flush,
    /// The server seals `n_packets` towards `client` as one `DataBatch`
    /// record — `send_batch_to_client`, and through the event loop
    /// `ShardedScenario::egress_batch_to_client` (TX socket, wire,
    /// client socket). Its wire datagrams, or its error, join
    /// [`Replay::egress`]. A sharded run first flushes the datagrams still
    /// buffered, so the seal sees every earlier verdict, as the
    /// reference's does (a Disconnect's above all).
    Egress { client: usize, n_packets: usize },
    /// The server's config ping towards `client` (`make_ping`), compared
    /// like [`Step::Egress`].
    ServerPing { client: usize },
    /// The server announces config `version` with a `grace_secs` grace
    /// period (`announce_config`, Fig. 5 steps 2–3) after the datagrams
    /// still buffered, like [`Step::Egress`]: once the grace period is
    /// over, traffic from a client that has not proved `version` is
    /// stale.
    Announce { version: u64, grace_secs: u32 },
}

/// A named, reproducible interleaving class.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub name: &'static str,
    pub n_clients: usize,
    pub seed: u64,
    pub peers: PeerMap,
    /// `(shard, micros)` stalls installed before the sharded run; entries
    /// whose shard index exceeds the run's shard count are skipped.
    pub stalls: Vec<(usize, u64)>,
    pub steps: Vec<Step>,
    /// Replay under `Scenario::isp` (the integrity-only suite) instead of
    /// `Scenario::enterprise`.
    pub isp: bool,
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
            isp: false,
        }
    }

    pub fn isp(mut self) -> Schedule {
        self.isp = true;
        self
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
    Established(u64, Vec<Vec<u8>>),
    Packets(Vec<Vec<u8>>),
    Ping(u64),
    Disconnected(u64),
    Rejected(EndBoxError),
}

/// What the server sealed towards a client at one [`Step::Egress`] or
/// [`Step::ServerPing`]: the wire datagrams, in order, or the error.
pub type Sealed = Result<Vec<Vec<u8>>, EndBoxError>;

/// What one replay of a schedule produced: the outcome of every
/// datagram, in order, what every egress step sealed, and the server's
/// traffic counters and session state afterwards.
#[derive(Debug, PartialEq)]
pub struct Replay {
    pub outs: Vec<Out>,
    pub egress: Vec<Sealed>,
    /// The wire datagrams the clients' own channels sealed (batches,
    /// singles and pings; not crafted or replayed ones), with the index
    /// of the client that sealed each.
    pub sealed_by_clients: Vec<(usize, Vec<u8>)>,
    pub delivered: u64,
    pub rejected: u64,
    /// The connected session ids, ascending.
    pub session_ids: Vec<u64>,
    /// Each client's session's `client_config_version`, in client order
    /// (`None` once it disconnected).
    pub config_versions: Vec<Option<u64>>,
}

pub fn simplify(result: Result<Delivery, EndBoxError>) -> Out {
    match result {
        Ok(Delivery::Pending) => Out::Pending,
        Ok(Delivery::Established {
            session_id,
            response,
        }) => Out::Established(session_id, response),
        Ok(Delivery::Packet { packet, .. }) => Out::Packets(vec![packet.bytes().to_vec()]),
        Ok(Delivery::PacketBatch { packets, .. }) => {
            Out::Packets(packets.iter().map(|p| p.bytes().to_vec()).collect())
        }
        Ok(Delivery::Ping { message, .. }) => Out::Ping(message.config_version),
        Ok(Delivery::Disconnected { session_id }) => Out::Disconnected(session_id),
        Err(e) => Out::Rejected(e),
    }
}

/// Decodes proptest-drawn `(kind, client, n)` tuples into a schedule of
/// batches, singles, pings, replays, splits, flush boundaries and
/// disconnects over `n_clients` clients, with colliding (`Stride(4)`) or
/// spread peers and a stall profile derived from `seed`, which keeps the
/// cross-shard arrival order adversarial without flaking.
pub fn generated_schedule(
    name: &'static str,
    raw: &[(usize, usize, usize)],
    n_clients: usize,
    collide: bool,
    seed: u64,
) -> Schedule {
    let peers = if collide {
        PeerMap::Stride(4)
    } else {
        PeerMap::Identity
    };
    let mut schedule = Schedule::new(name, n_clients, seed)
        .peers(peers)
        .stall((seed % 4) as usize, 120);
    for &(kind, client, n) in raw {
        let client = client % n_clients;
        schedule = schedule.step(match kind % 8 {
            0 | 1 => Step::Batch {
                client,
                n_packets: 1 + n % 6,
            },
            2 => Step::Single { client },
            3 => Step::Ping { client },
            4 => Step::Replay,
            5 => Step::SplitRecord {
                client,
                payload_len: 16 + n * 13,
                splits: vec![1 + n, 7 + n * 3, 60],
            },
            6 => Step::Flush,
            _ => Step::Disconnect { client },
        });
    }
    schedule
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

/// The packets a [`Step::Egress`] at schedule position `round` seals
/// towards `client` — identical for the reference and every sharded run.
fn egress_packets(client: usize, n_packets: usize, round: usize) -> Vec<Packet> {
    (0..n_packets)
        .map(|i| {
            Packet::tcp(
                Scenario::network_addr(),
                Scenario::client_addr(client),
                5_001,
                41_000 + client as u16,
                i as u32,
                format!("egress round {round} client {client} packet {i}").as_bytes(),
            )
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
        Step::Flush
        | Step::Remap { .. }
        | Step::Resize { .. }
        | Step::Egress { .. }
        | Step::ServerPing { .. }
        | Step::Announce { .. } => Vec::new(),
    }
}

/// What a sharded run relocated while it replayed a schedule: the
/// server's [`ResizeStats`] (so tests can reconcile the resize counters
/// against the schedule that drove them) and the dispatch law's peer
/// moves. All zero for the reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moves {
    pub resize: ResizeStats,
    /// Peers the dispatch law migrated (steals included).
    pub migrations: u64,
    /// The migrations that were idle-shard steals.
    pub steals: u64,
}

/// The deployment one replay drives.
enum Under {
    Reference(Box<Scenario>),
    Sharded(Box<ShardedScenario>),
}

/// Evaluates `$body` with `$s` bound to the scenario `$under` holds: a
/// call both servers answer with the same inherent method is written
/// once.
macro_rules! on_either {
    ($under:expr, $s:ident => $body:expr) => {
        match $under {
            Under::Reference($s) => $body,
            Under::Sharded($s) => $body,
        }
    };
}

/// Replays the schedule at `geometry` — the reference, or a shard count
/// run as `cfg` describes — returning the replay and what the server
/// relocated along the way.
pub fn run(schedule: &Schedule, geometry: impl Into<Geometry>, cfg: &RunCfg) -> (Replay, Moves) {
    let deployment = if schedule.isp {
        Scenario::isp
    } else {
        Scenario::enterprise
    };
    let builder = deployment(schedule.n_clients, UseCase::Nop).seed(schedule.seed);
    let mut under = match geometry.into() {
        Geometry::Reference => Under::Reference(Box::new(builder.build().unwrap())),
        Geometry::Sharded(shards) => {
            let scenario = builder
                .async_ingress(cfg.doorway == Doorway::EventLoop)
                .transport(cfg.transport)
                .build_sharded(shards)
                .unwrap();
            for &(shard, micros) in &schedule.stalls {
                if shard < shards {
                    scenario.server.set_stall_micros(shard, micros);
                }
            }
            Under::Sharded(Box::new(scenario))
        }
    };
    let session_ids: Vec<u64> = (0..schedule.n_clients)
        .map(|i| on_either!(&under, s => s.session_id(i)))
        .collect();
    let mut outs = Vec::new();
    let mut egress = Vec::new();
    let mut sealed_by_clients = Vec::new();
    let mut prev: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut segment: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut craft_seq = 0u32;
    for (round, step) in schedule.steps.iter().enumerate() {
        // The server-side steps act after every earlier verdict, as the
        // reference's do (a Disconnect's above all).
        let server_side = matches!(
            step,
            Step::Egress { .. } | Step::ServerPing { .. } | Step::Announce { .. }
        );
        if server_side && !segment.is_empty() {
            outs.extend(receive(&mut under, std::mem::take(&mut segment)));
        }
        match *step {
            Step::Flush => outs.extend(receive(&mut under, std::mem::take(&mut segment))),
            // Datagrams still buffered in `segment` are deliberately NOT
            // flushed before a Remap or a Resize: they arrive *after*
            // the relocation, which is one of the races these schedules
            // pin. Between receive batches by construction, so the
            // relocation's quiescence requirement holds.
            Step::Remap { client, to } => {
                if let Under::Sharded(s) = &mut under {
                    let peer = schedule.peers.peer(client);
                    if s.async_ingress_enabled() {
                        // Socket registration is lazy on first send; an
                        // empty send forces it so a schedule may re-home
                        // a peer that has not produced traffic yet.
                        s.send_wire_datagrams(peer, Vec::new());
                    }
                    // Against the *live* shard count: a resize may have
                    // shrunk the server since the schedule was drawn, and
                    // `remap_peer` (deliberately) panics on stale indices.
                    let to = to % s.server.shard_count();
                    s.server.remap_peer(peer, to);
                }
            }
            Step::Resize { shards } => {
                if let Under::Sharded(s) = &mut under {
                    s.server.resize(shards.clamp(1, 8));
                }
            }
            Step::Egress { client, n_packets } => {
                let packets = egress_packets(client, n_packets, round);
                let sid = session_ids[client];
                egress.push(match &mut under {
                    Under::Sharded(s) if s.async_ingress_enabled() => {
                        s.egress_batch_to_client(client, &packets)
                    }
                    Under::Sharded(s) => s.server.send_batch_to_client(sid, &packets),
                    Under::Reference(s) => s.server.send_batch_to_client(sid, &packets),
                });
            }
            Step::ServerPing { client } => {
                let sid = session_ids[client];
                egress.push(on_either!(&mut under, s => s.server.make_ping(sid)));
            }
            Step::Announce {
                version,
                grace_secs,
            } => on_either!(&mut under, s => s.server.announce_config(version, grace_secs)),
            _ => {
                let datagrams = seal_step(
                    on_either!(&mut under, s => &mut s.clients),
                    &session_ids,
                    schedule.peers,
                    step,
                    round,
                    &prev,
                    &mut craft_seq,
                );
                if let Step::Batch { client, .. }
                | Step::Single { client }
                | Step::Ping { client } = *step
                {
                    sealed_by_clients.extend(datagrams.iter().map(|(_, d)| (client, d.clone())));
                }
                segment.extend(datagrams.iter().cloned());
                if !datagrams.is_empty() {
                    prev = datagrams;
                }
            }
        }
    }
    outs.extend(receive(&mut under, segment));
    let (delivered, _, rejected) = on_either!(&under, s => s.server.counters());
    let replay = Replay {
        outs,
        egress,
        sealed_by_clients,
        delivered,
        rejected,
        session_ids: on_either!(&under, s => s.server.session_ids()),
        config_versions: session_ids
            .iter()
            .map(|&sid| on_either!(&mut under, s => s.server.client_config_version(sid)))
            .collect(),
    };
    let moves = match &under {
        Under::Reference(_) => Moves::default(),
        Under::Sharded(s) => Moves {
            resize: s.server.resize_stats(),
            migrations: s.server.migrations(),
            steals: s.server.steals(),
        },
    };
    (replay, moves)
}

/// The datagrams up to one batch boundary, in order: one
/// `receive_datagrams` call, or one event-loop segment.
fn receive(under: &mut Under, segment: Vec<(u64, Vec<u8>)>) -> Vec<Out> {
    match under {
        Under::Sharded(s) if s.async_ingress_enabled() => {
            // One send per datagram, in input order, so the wire stamps
            // reproduce the exact interleaving.
            let sent = segment.len();
            for (peer, d) in segment {
                s.send_wire_datagrams(peer, vec![d]);
            }
            pump_until(s, sent)
        }
        _ => on_either!(under, s => s.server.receive_datagrams(segment))
            .into_iter()
            .map(simplify)
            .collect(),
    }
}

/// Seals `n` single-packet `tag` records from `client` and ships them
/// onto the wire; returns the number of wire datagrams sent.
pub fn send_records(
    scenario: &mut ShardedScenario,
    tag: &str,
    client: usize,
    n: usize,
    round: usize,
) -> usize {
    let mut sent = 0;
    for i in 0..n {
        let payload = format!("{tag} round {round} client {client} packet {i}");
        let packet = Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            41_000 + client as u16,
            5_001,
            (round * 1_000 + i) as u32,
            payload.as_bytes(),
        );
        let datagrams = scenario.clients[client].send_packet(packet).unwrap();
        sent += datagrams.len();
        scenario.send_wire_datagrams(client as u64, datagrams);
    }
    sent
}

/// Parks the head of a three-fragment record from `client` in twin
/// event-loop scenarios, runs `relocate` on the first twin only, then
/// sends the tail to both: the relocated twin must see the twin's
/// outcomes exactly, the head parked as two `Pending`s. Returns what
/// `relocate` returned.
pub fn assert_relocation_keeps_partial<T>(
    build: impl Fn() -> ShardedScenario,
    client: usize,
    relocate: impl FnOnce(&mut ShardedScenario) -> T,
) -> T {
    let (mut relocated, mut twin) = (build(), build());
    let record = Record {
        opcode: Opcode::Data,
        session_id: relocated.session_id(client),
        packet_id: 0x6001,
        payload: vec![0xab; 160],
    };
    let frags = split_raw(&record.to_bytes(), &[11, 60], 0xBEEF_0001);
    assert_eq!(frags.len(), 3);
    let peer = client as u64;
    let mut outs = [&mut relocated, &mut twin].map(|s| {
        s.send_wire_datagrams(peer, frags[..2].to_vec());
        pump_until(s, 2)
    });
    let result = relocate(&mut relocated);
    for (s, outs) in [&mut relocated, &mut twin].into_iter().zip(&mut outs) {
        s.send_wire_datagrams(peer, vec![frags[2].clone()]);
        outs.extend(pump_until(s, 1));
    }
    assert_eq!(outs[0], outs[1]);
    assert!(
        matches!(outs[0][..2], [Out::Pending, Out::Pending]),
        "head fragments must park, not deliver: {:?}",
        outs[0]
    );
    result
}

/// Runs the event loop at least once and until `expect` outcomes came
/// out. Every datagram yields exactly one outcome, so this is immediate
/// on the virtual wire and a bounded wait for the kernel to deliver on
/// the OS backend.
pub fn pump_until(scenario: &mut ShardedScenario, expect: usize) -> Vec<Out> {
    let mut outs = Vec::with_capacity(expect);
    let mut spins = 0;
    loop {
        let results = scenario.pump_async();
        outs.extend(results.into_iter().map(|(_, result)| simplify(result)));
        if outs.len() >= expect {
            return outs;
        }
        spins += 1;
        assert!(
            spins < 100_000,
            "wire lost datagrams: {} of {expect}",
            outs.len()
        );
        std::thread::yield_now();
    }
}

/// Server→client egress between moves: seals and server pings land
/// before and after resizes that move sessions' receive halves onto other
/// shards (a shrink to one shard gathers every peer; a later grow,
/// stealable silent client 3 and a second shrink follow), so the
/// packet-id sequence must run on unbroken from the front-end's send
/// half; client 2 seals and is pinged after its `Disconnect`, which is
/// `UnknownSession` on every server. Run by `tests/elastic_resize.rs`
/// (full grid, both doorways) and `tests/bulk_ingress.rs` (OS sockets).
pub fn egress_schedule() -> Schedule {
    Schedule::new("egress-across-moves", 4, 0xe9_01)
        .step(Step::Batch {
            client: 0,
            n_packets: 3,
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 2,
        })
        .step(Step::Single { client: 2 })
        .step(Step::Egress {
            client: 1,
            n_packets: 4,
        })
        .step(Step::ServerPing { client: 0 })
        .step(Step::Egress {
            client: 3,
            n_packets: 2,
        })
        .step(Step::Resize { shards: 1 })
        .step(Step::Egress {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Egress {
            client: 1,
            n_packets: 1,
        })
        .step(Step::Resize { shards: 8 })
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Egress {
            client: 3,
            n_packets: 2,
        })
        .step(Step::ServerPing { client: 3 })
        .step(Step::Resize { shards: 2 })
        .step(Step::Egress {
            client: 0,
            n_packets: 5,
        })
        .step(Step::Disconnect { client: 2 })
        .step(Step::Egress {
            client: 2,
            n_packets: 2,
        })
        .step(Step::ServerPing { client: 2 })
        .step(Step::Replay)
        .step(Step::Single { client: 3 })
        .step(Step::Egress {
            client: 3,
            n_packets: 1,
        })
}

/// Asserts an equal [`Replay`] — byte-identical outcomes and egress,
/// equal `(delivered, rejected)` counters and session state — between the
/// single-threaded reference and the sharded server for every shard
/// count in `grid` × every configuration in `cfgs`. Where a schedule
/// carries [`Step::Resize`] steps the grid point is only the *starting*
/// geometry; the schedule moves it. Returns the dispatch law's
/// `(migrations, steals)` summed over every run.
pub fn assert_parity(schedule: &Schedule, grid: &[usize], cfgs: &[RunCfg]) -> (u64, u64) {
    let (reference, _) = run(schedule, Geometry::Reference, &RunCfg::call());
    let (mut migrations, mut steals) = (0, 0);
    for cfg in cfgs {
        for &point in grid {
            let (got, moves) = run(schedule, point, cfg);
            migrations += moves.migrations;
            steals += moves.steals;
            assert_eq!(
                got, reference,
                "schedule `{}` diverged from the single-threaded server at \
                 C={point} under {cfg:?}",
                schedule.name
            );
        }
    }
    (migrations, steals)
}

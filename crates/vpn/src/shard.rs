//! The sharded multi-worker server datapath: `VpnServer`'s session table
//! partitioned across N worker shards, each shard processing traffic
//! strictly in batch units on its own thread with its own
//! [`BufferPool`].
//!
//! # Architecture
//!
//! * [`VpnShard`] is one partition of the server: a session table, the
//!   config-version policy, and a buffer pool. All per-record logic
//!   (policy enforcement, record opening, **per-session replay windows**,
//!   ping handling, disconnects) lives here, in one record handler
//!   ([`VpnShard::handle_record_delivery`]) producing one event type
//!   ([`ShardEvent`]) — [`crate::server::VpnServer`] is exactly one
//!   inline shard behind the handshake responder, so the single-threaded
//!   and sharded servers share one implementation of the datapath and
//!   cannot drift apart.
//! * [`ShardedVpnServer`] runs one worker thread per shard on an
//!   [`OwnerPool`] (per-worker request channels, one shared reply
//!   channel, loud failure when a worker dies). The front-end keeps the
//!   handshake responder (identity, session-id allocator, RNG — the same
//!   one `VpnServer` answers with) and the authoritative copy of the
//!   config policy; workers own everything per-session.
//!
//! # Routing invariants
//!
//! 1. **Single-owner sessions.** Session `s` is owned by exactly one
//!    shard at any instant. Initial placement is the *home shard*
//!    `(s - 1) mod N` (session ids are allocated densely from 1, so
//!    consecutive sessions round-robin across shards). The dispatcher may
//!    *migrate* a session to another shard (see *The dispatch law*
//!    below), but only at a dispatch boundary and via an explicit
//!    extract/install round-trip, so every record for a session is still
//!    processed by its (current) owning shard — which is what keeps
//!    per-session replay windows and channel state single-writer without
//!    locks. The replay window and channel state travel inside the
//!    [`ServerSession`] when it moves, and `ShardedVpnServer::migrate` is
//!    the only function that moves one — rebalancing, stealing and
//!    worker-pool shrinks all call it. Per-peer reassembly state never
//!    lives on a worker: it belongs to the RX stage, which relocates it by
//!    its own rules (`docs/architecture.md` §4.3 states both sets side by
//!    side).
//! 2. **Per-shard FIFO.** Each worker processes its requests in the order
//!    the front-end sent them. Combined with single-owner routing and
//!    boundary-only migration this preserves the per-session record order
//!    of the single-threaded server exactly: the extract round-trip
//!    blocks until the old shard drained every earlier record of the
//!    session, and the install is enqueued before any later one.
//! 3. **Handshake serialisation.** Handshakes mutate front-end state (the
//!    RNG and the session-id allocator), so [`ShardedVpnServer`] flushes
//!    all outstanding shard work before processing one. Session-id and
//!    key-material assignment is therefore byte-identical to
//!    `VpnServer`'s for any interleaving of clients.
//!
//! # Re-merge ordering guarantee
//!
//! [`ShardedVpnServer::handle_records`] returns exactly one result per
//! input record, **in input order**, regardless of worker count or thread
//! scheduling: requests are tagged with their input index, workers echo
//! the tags, and the front-end slots replies back by index before
//! returning. A sharded server with N workers is therefore
//! observationally equivalent to the single-threaded server — byte-equal
//! emissions, identical replay/policy verdicts — which is property-tested
//! in `tests/shard_parity.rs` for N ∈ {1, 2, 4, 8}.
//!
//! # The dispatch law
//!
//! Home-shard placement keeps shards independent, but a handful of heavy
//! sessions whose ids collide modulo N can saturate one shard while the
//! others idle. The dispatcher therefore keeps an exponentially-weighted
//! moving average of dispatched bytes per shard and per session, and at
//! every dispatch boundary runs one law with nothing to configure
//! (`ShardedVpnServer::rebalance`):
//!
//! 1. **Migrate.** While the hottest shard's EWMA exceeds the coldest's
//!    by more than the *mean* per-shard EWMA, the heaviest session that
//!    fits in half the gap moves hot → cold — at most one move per worker
//!    per dispatch. The mean is the measured service rate (bytes per
//!    dispatch with exponential decay), so the threshold scales with the
//!    traffic instead of being tuned for one mix. It is floored at one
//!    MTU-sized packet: below that a "gap" is a single packet of jitter,
//!    and an extract/install round-trip costs more than the packet it
//!    would move.
//! 2. **Steal.** A worker whose EWMA has decayed to nothing pulls one
//!    session that has never accepted a packet from the worker holding
//!    the most sessions (`ShardedVpnServer::steal_idle`).
//!
//! Because a move only changes *which* shard processes a session — never
//! the order of its records, nor any verdict — the server stays
//! byte-identical to the single-threaded one; the parity tests run across
//! real migrations and steals.

use crate::channel::{BatchFrames, CipherSuite, DataChannel};
use crate::error::VpnError;
use crate::handshake::{ClientInfo, HandshakeConfig};
use crate::ping::PingMessage;
use crate::pool::{OwnerPool, Replies};
use crate::proto::{Opcode, Record};
use crate::server::Responder;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::{BufferPool, Packet, PacketBatch};
use std::collections::HashMap;

/// Server-side state for one client session.
#[derive(Debug)]
pub struct ServerSession {
    /// Authenticated client information from the handshake.
    pub info: ClientInfo,
    /// Latest configuration version the client proved via ping.
    pub reported_config_version: u64,
    pub(crate) channel: DataChannel,
}

/// Configuration-version policy (§III-E), replicated to every shard on
/// each announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ConfigPolicy {
    pub(crate) required_version: u64,
    /// Versions >= `previous_ok_version` are accepted until the deadline.
    pub(crate) previous_ok_version: u64,
    pub(crate) grace_deadline_secs: u64,
    pub(crate) grace_period_secs: u32,
}

impl ConfigPolicy {
    /// The policy once `version` is announced at `now_secs`: the version
    /// required until now stays acceptable for the grace period ("During
    /// the grace period, the ENDBOX server allows both old and new
    /// configurations to be active. After its expiry, the server blocks
    /// traffic from clients that are not applying the new configuration",
    /// §III-E).
    pub(crate) fn announce(self, version: u64, grace_period_secs: u32, now_secs: u64) -> Self {
        ConfigPolicy {
            previous_ok_version: self.required_version,
            required_version: version,
            grace_deadline_secs: now_secs + grace_period_secs as u64,
            grace_period_secs,
        }
    }

    /// The periodic server ping carrying this announcement (Fig. 5
    /// step 4).
    pub(crate) fn ping(self, now_ns: u64) -> PingMessage {
        PingMessage {
            config_version: self.required_version,
            grace_period_secs: self.grace_period_secs,
            timestamp_ns: now_ns,
        }
    }
}

/// Decay factor of the per-shard / per-session load EWMAs (the weight of
/// the newest dispatch).
const LOAD_EWMA_ALPHA: f64 = 0.5;

/// Floor of the migration threshold: one MTU-sized packet. Below this a
/// "gap" is a single packet of jitter, not an imbalance — it is a
/// physical unit, not a tuning knob (the threshold itself is the measured
/// mean shard rate).
const MIN_IMBALANCE_BYTES: f64 = 1_500.0;

/// A shard whose byte EWMA has decayed below one byte is idle for the
/// purposes of work stealing (the EWMA halves every dispatch, so any
/// real traffic keeps it far above this).
const IDLE_EWMA: f64 = 1.0;

/// What either server produced for one input record: the packet-level
/// deliveries of the shard that handled it, or — for a handshake — the
/// responder's answer.
#[derive(Debug)]
pub enum ShardEvent {
    /// Handshake completed; send `response` back to the client.
    Established {
        /// Assigned session id.
        session_id: u64,
        /// ServerHello record to transmit.
        response: Record,
        /// Who connected.
        info: ClientInfo,
    },
    /// A single tunnel packet, materialised from the shard's pool.
    Packet {
        /// Session it arrived on.
        session_id: u64,
        /// The decapsulated IP packet.
        packet: Packet,
    },
    /// A batched record's packets, pool-backed, in batch order.
    Batch {
        /// Session it arrived on.
        session_id: u64,
        /// The decapsulated IP packets.
        batch: PacketBatch,
    },
    /// An authenticated ping arrived.
    Ping {
        /// Session it arrived on.
        session_id: u64,
        /// The ping contents.
        message: PingMessage,
    },
    /// Orderly disconnect.
    Disconnected {
        /// Session that ended.
        session_id: u64,
    },
}

/// Materialises batch frames into pool-backed packets in **one pass**:
/// one `take_many` for the whole batch and one copy per frame (out of the
/// decrypted blob straight into a recycled buffer). `pool` is handed
/// nothing it did not lend: dropping `frames` returns the blob to the
/// channel that decrypted it, and every buffer taken here comes back when
/// its packet is dropped, so takes and gives balance.
///
/// # Errors
///
/// [`VpnError::Malformed`] if any frame is not a valid IPv4 packet (the
/// whole batch is rejected, matching the single-packet path's per-record
/// verdict).
pub fn materialize_frames(pool: &BufferPool, frames: BatchFrames) -> Result<PacketBatch, VpnError> {
    let n = frames.len();
    let cap = frames.iter().map(<[u8]>::len).max().unwrap_or(0);
    let mut bufs = pool.take_many(n, cap).into_iter();
    let mut batch = PacketBatch::with_capacity(n);
    let mut bad = false;
    for frame in frames.iter() {
        let mut buf = bufs.next().expect("one buffer per frame");
        buf.extend_from_slice(frame);
        match Packet::from_vec_in(pool, buf) {
            Ok(pkt) => batch.push(pkt),
            Err(_) => {
                bad = true;
                break;
            }
        }
    }
    if bufs.len() > 0 {
        pool.give_many(bufs);
    }
    if bad {
        Err(VpnError::Malformed("bad tunnelled packet"))
    } else {
        Ok(batch)
    }
}

/// One partition of the server's session state. See the module docs for
/// the invariants; [`crate::server::VpnServer`] embeds exactly one.
#[derive(Debug, Default)]
pub struct VpnShard {
    sessions: HashMap<u64, ServerSession>,
    policy: ConfigPolicy,
    pool: BufferPool,
}

impl VpnShard {
    /// An empty shard with its own buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard's buffer pool (packets this shard materialises recycle
    /// through it).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub(crate) fn set_policy(&mut self, policy: ConfigPolicy) {
        self.policy = policy;
    }

    pub(crate) fn policy(&self) -> ConfigPolicy {
        self.policy
    }

    /// Adds a freshly established session to this shard.
    pub fn install(&mut self, session_id: u64, session: ServerSession) {
        self.sessions.insert(session_id, session);
    }

    /// Removes a session.
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] if absent.
    pub fn remove(&mut self, session_id: u64) -> Result<(), VpnError> {
        self.sessions
            .remove(&session_id)
            .map(|_| ())
            .ok_or(VpnError::UnknownSession(session_id))
    }

    /// Detaches a session (replay window and channel state included) so
    /// the dispatcher can install it on another shard.
    pub fn extract(&mut self, session_id: u64) -> Option<ServerSession> {
        self.sessions.remove(&session_id)
    }

    /// Detaches `session_id` only while its replay window has never
    /// accepted a packet ([`DataChannel::replay_is_empty`]) — the
    /// steal-safety predicate of the dispatcher's stealing pass. A busy
    /// or unknown session stays put and `None` is returned.
    pub fn extract_if_idle(&mut self, session_id: u64) -> Option<ServerSession> {
        if self.sessions.get(&session_id)?.channel.replay_is_empty() {
            self.sessions.remove(&session_id)
        } else {
            None
        }
    }

    /// Looks up a session.
    pub fn session(&self, id: u64) -> Option<&ServerSession> {
        self.sessions.get(&id)
    }

    /// Session ids owned by this shard, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of sessions on this shard.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Config-policy gate shared by every data path: after the grace
    /// deadline only the required version may send; during grace, the
    /// previous version is also acceptable.
    fn checked_session(
        &mut self,
        session_id: u64,
        now_secs: u64,
    ) -> Result<&mut ServerSession, VpnError> {
        let policy = self.policy;
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or(VpnError::UnknownSession(session_id))?;
        let v = session.reported_config_version;
        let acceptable = if now_secs >= policy.grace_deadline_secs {
            v >= policy.required_version
        } else {
            v >= policy.previous_ok_version
        };
        if !acceptable {
            return Err(VpnError::StaleConfiguration {
                client: v,
                required: policy.required_version,
            });
        }
        Ok(session)
    }

    /// Opens a single `Data` record (policy + authentication + replay).
    ///
    /// # Errors
    ///
    /// Policy, session and channel failures.
    pub fn open_data(&mut self, record: &Record, now_secs: u64) -> Result<Vec<u8>, VpnError> {
        // The plaintext lands in one of the shard's own buffers, which the
        // delivery path hands back as the packet's backing store: the
        // pool is given what it lent, not a fresh allocation per record.
        let mut buf = self.pool.take(record.payload.len());
        let opened = self
            .checked_session(record.session_id, now_secs)
            .and_then(|session| session.channel.open_into(record, &mut buf));
        match opened {
            Ok(()) => Ok(buf),
            Err(e) => {
                self.pool.give(buf);
                Err(e)
            }
        }
    }

    /// Opens a `DataBatch` record into frame handles (no per-frame copy).
    ///
    /// # Errors
    ///
    /// Policy, session and channel failures.
    pub fn open_data_batch(
        &mut self,
        record: &Record,
        now_secs: u64,
    ) -> Result<BatchFrames, VpnError> {
        self.checked_session(record.session_id, now_secs)?
            .channel
            .open_batch_frames(record)
    }

    /// Handles an authenticated ping (the client's config-version proof,
    /// §III-E step 9).
    ///
    /// # Errors
    ///
    /// Session and channel failures.
    pub fn handle_ping(&mut self, record: &Record) -> Result<PingMessage, VpnError> {
        let session = self
            .sessions
            .get_mut(&record.session_id)
            .ok_or(VpnError::UnknownSession(record.session_id))?;
        let payload = session.channel.open(record)?;
        let message = PingMessage::from_bytes(&payload)?;
        session.reported_config_version = message.config_version;
        Ok(message)
    }

    /// Handles one non-handshake record — the one record handler under
    /// both servers. Tunnel payloads are materialised into this shard's
    /// pool; one that is not an IPv4 packet is rejected after it was
    /// authenticated, so it has consumed its replay-window slot.
    ///
    /// # Errors
    ///
    /// All authentication/policy failures, plus
    /// [`VpnError::Malformed`] for payloads that are not IPv4 packets.
    pub fn handle_record_delivery(
        &mut self,
        record: &Record,
        now_secs: u64,
    ) -> Result<ShardEvent, VpnError> {
        match record.opcode {
            Opcode::Data => {
                let payload = self.open_data(record, now_secs)?;
                // The pooled buffer the record was decrypted into becomes
                // the packet's backing store as it is.
                let packet = Packet::from_vec_in(&self.pool, payload)
                    .map_err(|_| VpnError::Malformed("bad tunnelled packet"))?;
                Ok(ShardEvent::Packet {
                    session_id: record.session_id,
                    packet,
                })
            }
            Opcode::DataBatch => {
                let frames = self.open_data_batch(record, now_secs)?;
                let batch = materialize_frames(&self.pool, frames)?;
                Ok(ShardEvent::Batch {
                    session_id: record.session_id,
                    batch,
                })
            }
            Opcode::Ping => Ok(ShardEvent::Ping {
                session_id: record.session_id,
                message: self.handle_ping(record)?,
            }),
            Opcode::Disconnect => {
                self.remove(record.session_id)?;
                Ok(ShardEvent::Disconnected {
                    session_id: record.session_id,
                })
            }
            Opcode::HandshakeInit | Opcode::HandshakeResp => {
                Err(VpnError::Malformed("handshake record on the data path"))
            }
        }
    }

    /// Seals a payload to a client on this shard.
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn seal_to_client(
        &mut self,
        session_id: u64,
        opcode: Opcode,
        payload: &[u8],
    ) -> Result<Record, VpnError> {
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or(VpnError::UnknownSession(session_id))?;
        Ok(session.channel.seal(opcode, session_id, payload))
    }

    /// Seals several payloads to a client as one `DataBatch` record.
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn seal_batch_to_client(
        &mut self,
        session_id: u64,
        payloads: &[&[u8]],
    ) -> Result<Record, VpnError> {
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or(VpnError::UnknownSession(session_id))?;
        Ok(session.channel.seal_batch(session_id, payloads))
    }

    /// Builds the periodic server ping for a session, carrying this
    /// shard's view of the config announcement.
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn make_ping(&mut self, session_id: u64, now_ns: u64) -> Result<Record, VpnError> {
        let msg = self.policy.ping(now_ns);
        self.seal_to_client(session_id, Opcode::Ping, &msg.to_bytes())
    }
}

/// A read-only snapshot of one session, fetched across the shard
/// boundary.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Authenticated client information.
    pub info: ClientInfo,
    /// Latest configuration version the client proved via ping.
    pub reported_config_version: u64,
}

enum ShardRequest {
    /// Process records (tagged with their input index) in order.
    Records {
        seq: u64,
        now_secs: u64,
        records: Vec<(u32, Record)>,
    },
    /// Adopt a freshly established session.
    Install {
        session_id: u64,
        session: Box<ServerSession>,
    },
    /// Replace the config policy.
    Policy(ConfigPolicy),
    /// Seal one payload to a client (also used for server pings).
    Seal {
        seq: u64,
        session_id: u64,
        opcode: Opcode,
        payload: Vec<u8>,
    },
    /// Snapshot one session.
    Query { seq: u64, session_id: u64 },
    /// Detach a session so it can migrate to another shard. With
    /// `only_if_idle`, **only if** its replay window is still empty —
    /// the steal-safety predicate, evaluated authoritatively on the
    /// owning shard thread (the front-end's view of "fresh" could race
    /// a record the shard already accepted). Replies
    /// [`ReplyBody::Extracted`]`(None)` if the session is gone, or busy
    /// under `only_if_idle` — then it stays put.
    Extract {
        seq: u64,
        session_id: u64,
        only_if_idle: bool,
    },
    /// Panic with the next request in hand: a worker death mid-dispatch.
    #[cfg(test)]
    Die,
}

enum ReplyBody {
    Records(Vec<(u32, Result<ShardEvent, VpnError>)>),
    Sealed(Result<Record, VpnError>),
    Session(Option<SessionSnapshot>),
    Extracted(Option<Box<ServerSession>>),
}

struct WorkerReply {
    seq: u64,
    body: ReplyBody,
}

fn worker_loop(
    mut shard: VpnShard,
    rx: crossbeam::channel::Receiver<ShardRequest>,
    tx: Replies<WorkerReply>,
) {
    while let Ok(request) = rx.recv() {
        match request {
            ShardRequest::Records {
                seq,
                now_secs,
                records,
            } => {
                let results = records
                    .into_iter()
                    .map(|(idx, record)| (idx, shard.handle_record_delivery(&record, now_secs)))
                    .collect();
                tx.send(WorkerReply {
                    seq,
                    body: ReplyBody::Records(results),
                });
            }
            ShardRequest::Install {
                session_id,
                session,
            } => shard.install(session_id, *session),
            ShardRequest::Policy(policy) => shard.set_policy(policy),
            ShardRequest::Seal {
                seq,
                session_id,
                opcode,
                payload,
            } => {
                tx.send(WorkerReply {
                    seq,
                    body: ReplyBody::Sealed(shard.seal_to_client(session_id, opcode, &payload)),
                });
            }
            ShardRequest::Query { seq, session_id } => {
                let snapshot = shard.session(session_id).map(|s| SessionSnapshot {
                    info: s.info.clone(),
                    reported_config_version: s.reported_config_version,
                });
                tx.send(WorkerReply {
                    seq,
                    body: ReplyBody::Session(snapshot),
                });
            }
            ShardRequest::Extract {
                seq,
                session_id,
                only_if_idle,
            } => {
                let session = if only_if_idle {
                    shard.extract_if_idle(session_id)
                } else {
                    shard.extract(session_id)
                };
                tx.send(WorkerReply {
                    seq,
                    body: ReplyBody::Extracted(session.map(Box::new)),
                });
            }
            #[cfg(test)]
            ShardRequest::Die => {
                let _in_hand = rx.recv();
                panic!("injected worker death mid-dispatch");
            }
        }
    }
}

/// The sharded multi-worker VPN server: handshake front-end plus N
/// [`VpnShard`] worker threads. See the module docs for the routing
/// invariants and the re-merge ordering guarantee.
pub struct ShardedVpnServer {
    responder: Responder,
    policy: ConfigPolicy,
    /// The worker threads, one [`VpnShard`] each.
    pool: OwnerPool<ShardRequest, WorkerReply>,
    /// Front-end registry: which sessions exist and which shard *currently*
    /// owns each (home shard at placement; the dispatcher may move a
    /// session later).
    session_shard: HashMap<u64, usize>,
    next_seq: u64,
    /// EWMA of dispatched payload bytes per shard.
    shard_load: Vec<f64>,
    /// EWMA of dispatched payload bytes per session.
    session_load: HashMap<u64, f64>,
    migrations: u64,
    /// The subset of `migrations` performed by the work-stealing pass
    /// (idle workers pulling steal-safe sessions).
    steals: u64,
}

impl std::fmt::Debug for ShardedVpnServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedVpnServer")
            .field("workers", &self.pool.len())
            .field("sessions", &self.session_shard.len())
            .field("required_version", &self.policy.required_version)
            .finish()
    }
}

impl ShardedVpnServer {
    /// Creates a server with `workers` shard threads (minimum 1).
    pub fn new(
        handshake: HandshakeConfig,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
        rng_seed: u64,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        ShardedVpnServer {
            responder: Responder::new(handshake, suite, meter, cost, rng_seed),
            policy: ConfigPolicy::default(),
            pool: OwnerPool::new("vpn-shard", workers, |_, rx, tx| {
                worker_loop(VpnShard::new(), rx, tx)
            }),
            session_shard: HashMap::new(),
            next_seq: 0,
            shard_load: vec![0.0; workers],
            session_load: HashMap::new(),
            migrations: 0,
            steals: 0,
        }
    }

    /// Number of worker shards.
    pub fn worker_count(&self) -> usize {
        self.pool.len()
    }

    /// Grows or shrinks the worker pool to `workers` threads online,
    /// returning how many sessions were migrated off retiring workers.
    ///
    /// Growing spawns fresh workers and replicates the current
    /// `ConfigPolicy` to each before any record can route there, so a
    /// new worker never sees a stale policy. Shrinking drains every
    /// session a retiring worker owns to its new home under the reduced
    /// count through `migrate` — the one way a session ever moves — then
    /// retires the emptied threads. Sessions on surviving workers keep
    /// their placement — the registry stays authoritative — so a resize
    /// never changes any record's outcome, only where it is computed.
    ///
    /// Must be called at a dispatch boundary (no batch in flight), which
    /// every front-end caller guarantees by construction.
    pub fn resize_workers(&mut self, workers: usize) -> usize {
        let new = workers.max(1);
        let old = self.pool.len();
        let mut moved = 0;
        if new > old {
            self.pool.grow(new - old);
            for shard in old..new {
                self.pool.send(shard, ShardRequest::Policy(self.policy));
            }
        } else {
            // Retiring workers drain to their successors before exit: in
            // deterministic session order, move every session homed on a
            // doomed worker to its static home under the new count.
            let mut evicted: Vec<u64> = self
                .session_shard
                .iter()
                .filter(|&(_, &shard)| shard >= new)
                .map(|(&sid, _)| sid)
                .collect();
            evicted.sort_unstable();
            for sid in evicted {
                let from = self.session_shard[&sid];
                let to = (sid.wrapping_sub(1) % new as u64) as usize;
                if self.migrate(sid, from, to, false) {
                    moved += 1;
                }
            }
            self.pool.shrink(old - new);
        }
        self.shard_load.resize(new, 0.0);
        moved
    }

    /// Sessions migrated by the dispatcher so far (imbalance moves
    /// **plus** steals — every steal is a migration).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Sessions pulled by idle workers in the work-stealing pass — always
    /// a subset of [`ShardedVpnServer::migrations`].
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// A session's *home* shard, `(s - 1) mod N` — its initial placement.
    fn home_shard(&self, session_id: u64) -> usize {
        (session_id.wrapping_sub(1) % self.pool.len() as u64) as usize
    }

    /// The shard *currently* owning `session_id` (invariant 1). Unknown
    /// sessions route to their home shard, which reports
    /// [`VpnError::UnknownSession`] — the same verdict the single-threaded
    /// server gives.
    pub fn shard_of(&self, session_id: u64) -> usize {
        self.session_shard
            .get(&session_id)
            .copied()
            .unwrap_or_else(|| self.home_shard(session_id))
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// One blocking round-trip expecting a sealed record back.
    fn sealed_round_trip(
        &mut self,
        shard: usize,
        seq: u64,
        request: ShardRequest,
    ) -> Result<Record, VpnError> {
        match self.pool.round_trip(shard, request) {
            WorkerReply {
                seq: reply_seq,
                body: ReplyBody::Sealed(result),
            } => {
                debug_assert_eq!(reply_seq, seq, "round-trips are strictly serialised");
                result
            }
            _ => unreachable!("seal requests produce sealed replies"),
        }
    }

    /// Dispatches every non-empty per-shard group and slots the replies
    /// back into `results` by input index.
    fn flush_groups(
        &mut self,
        groups: &mut [Vec<(u32, Record)>],
        now_secs: u64,
        results: &mut [Option<Result<ShardEvent, VpnError>>],
    ) {
        let mut outstanding = 0usize;
        for (shard, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let seq = self.next_seq();
            let records = std::mem::take(group);
            self.pool.send(
                shard,
                ShardRequest::Records {
                    seq,
                    now_secs,
                    records,
                },
            );
            outstanding += 1;
        }
        // Replies arrive in any order; the embedded indices slot them.
        for _ in 0..outstanding {
            let ReplyBody::Records(items) = self.pool.recv().body else {
                unreachable!("record requests produce record replies");
            };
            for (idx, result) in items {
                if let Ok(ShardEvent::Disconnected { session_id }) = &result {
                    self.session_shard.remove(session_id);
                    self.session_load.remove(session_id);
                }
                results[idx as usize] = Some(result);
            }
        }
    }

    /// Folds one dispatch's per-shard / per-session payload bytes into the
    /// load EWMAs (all entries decay, the dispatched ones gain).
    fn note_dispatch_loads(&mut self, shard_bytes: &[u64], session_bytes: &HashMap<u64, u64>) {
        for (load, &bytes) in self.shard_load.iter_mut().zip(shard_bytes) {
            *load = *load * (1.0 - LOAD_EWMA_ALPHA) + bytes as f64 * LOAD_EWMA_ALPHA;
        }
        for load in self.session_load.values_mut() {
            *load *= 1.0 - LOAD_EWMA_ALPHA;
        }
        for (&sid, &bytes) in session_bytes {
            // Only live sessions accrue load: a session disconnected in
            // this very dispatch was just dropped from the registry, and
            // records with bogus session ids (rejected as UnknownSession)
            // must not grow the map — it would otherwise leak one entry
            // per spoofed id.
            if self.session_shard.contains_key(&sid) {
                *self.session_load.entry(sid).or_insert(0.0) += bytes as f64 * LOAD_EWMA_ALPHA;
            }
        }
    }

    /// The dispatch law, run at every dispatch boundary: while the EWMA
    /// gap between the hottest and the coldest shard exceeds the measured
    /// mean per-shard rate (the byte EWMAs *are* the rate proxy: bytes per
    /// dispatch with exponential decay; floored at one MTU packet), move
    /// the heaviest movable session hot → cold — at most one move per
    /// worker, a structural bound — then let idle workers steal. A
    /// candidate must satisfy `2 * load <= gap`, which guarantees the gap
    /// strictly shrinks and the hot shard stays at least as loaded as the
    /// cold one — so a single dominant session (load == gap) never moves,
    /// and the dispatcher cannot ping-pong it between shards.
    fn rebalance(&mut self) {
        let workers = self.pool.len();
        if workers < 2 {
            return;
        }
        let mean = self.shard_load.iter().sum::<f64>() / workers as f64;
        let threshold = mean.max(MIN_IMBALANCE_BYTES);
        for _ in 0..workers {
            let (mut hot, mut cold) = (0usize, 0usize);
            for s in 1..workers {
                if self.shard_load[s] > self.shard_load[hot] {
                    hot = s;
                }
                if self.shard_load[s] < self.shard_load[cold] {
                    cold = s;
                }
            }
            let gap = self.shard_load[hot] - self.shard_load[cold];
            if gap <= threshold {
                break;
            }
            // Heaviest movable session on the hot shard; deterministic
            // tie-break on the lowest session id.
            let candidate = self
                .session_shard
                .iter()
                .filter(|&(_, &shard)| shard == hot)
                .map(|(&sid, _)| (sid, self.session_load.get(&sid).copied().unwrap_or(0.0)))
                .filter(|&(_, load)| load > 0.0 && 2.0 * load <= gap)
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            let Some((sid, load)) = candidate else {
                break;
            };
            if self.migrate(sid, hot, cold, false) {
                self.shard_load[hot] -= load;
                self.shard_load[cold] += load;
            }
        }
        self.steal_idle();
    }

    /// The work-stealing pass, run after the migration pass at the same
    /// dispatch boundary: while some worker is idle (its byte
    /// EWMA has decayed to nothing) and the busiest worker holds more
    /// sessions, the idle worker pulls one *steal-safe* session — one
    /// that has never accepted a data packet, so no replay-window or
    /// re-ordering state moves with it. The front-end nominates fresh
    /// sessions (zero load EWMA, deterministic lowest-id tie-break) and
    /// the owning shard confirms the predicate authoritatively
    /// (`only_if_idle`): a session the shard has
    /// already fed stays put and the nomination is dropped. At most one
    /// steal per worker per dispatch — a structural bound, not a knob.
    fn steal_idle(&mut self) {
        // Every worker busy is the steady state of a loaded server: leave
        // before allocating anything.
        if !self.shard_load.iter().any(|&load| load < IDLE_EWMA) {
            return;
        }
        let mut counts = vec![0usize; self.pool.len()];
        for &shard in self.session_shard.values() {
            counts[shard] += 1;
        }
        let mut rejected: Vec<u64> = Vec::new();
        let mut stole = vec![false; self.pool.len()];
        for _ in 0..self.pool.len() {
            let max_count = counts.iter().copied().max().unwrap_or(0);
            let Some(thief) = (0..self.pool.len())
                .find(|&s| !stole[s] && self.shard_load[s] < IDLE_EWMA && counts[s] < max_count)
            else {
                return;
            };
            let victim = (0..self.pool.len())
                .max_by(|&a, &b| {
                    counts[a]
                        .cmp(&counts[b])
                        .then(self.shard_load[a].total_cmp(&self.shard_load[b]))
                })
                .expect("at least two shards");
            if victim == thief
                || counts[victim] <= counts[thief] + 1
                || self.shard_load[victim] < IDLE_EWMA
            {
                return;
            }
            let candidate = self
                .session_shard
                .iter()
                .filter(|&(sid, &shard)| shard == victim && !rejected.contains(sid))
                .map(|(&sid, _)| sid)
                .filter(|sid| self.session_load.get(sid).copied().unwrap_or(0.0) == 0.0)
                .min();
            let Some(sid) = candidate else {
                return;
            };
            if self.migrate(sid, victim, thief, true) {
                counts[victim] -= 1;
                counts[thief] += 1;
                stole[thief] = true;
                self.steals += 1;
            } else {
                // The shard vetoed the steal (the session already
                // accepted traffic the front-end has not accounted
                // yet); never re-nominate it this pass.
                rejected.push(sid);
            }
        }
    }

    /// Moves one session's state from `from` to `to` — the only function
    /// that does, and the only one that updates the registry for a move.
    /// Only called at a dispatch boundary. The blocking extract
    /// round-trip is the quiesce point (when it returns, the old shard
    /// has drained every earlier record of the session); the session
    /// moves whole, replay window included; and the install is enqueued
    /// ahead of any later record. Per-session record order is therefore
    /// preserved across the move. With `only_if_idle` the old shard
    /// refuses unless the replay window is still empty, and a refusal
    /// leaves the session where it is. Returns whether the session
    /// actually moved (callers must not shift load accounting otherwise).
    fn migrate(&mut self, session_id: u64, from: usize, to: usize, only_if_idle: bool) -> bool {
        let seq = self.next_seq();
        let extract = ShardRequest::Extract {
            seq,
            session_id,
            only_if_idle,
        };
        let ReplyBody::Extracted(session) = self.pool.round_trip(from, extract).body else {
            unreachable!("extract requests produce extracted replies");
        };
        match session {
            Some(session) => {
                self.pool.send(
                    to,
                    ShardRequest::Install {
                        session_id,
                        session,
                    },
                );
                self.session_shard.insert(session_id, to);
                self.migrations += 1;
                true
            }
            // Busy: the steal is off and the session stays registered.
            None if only_if_idle => false,
            None => {
                // The registry said the session lived here; it is gone on
                // the shard too, so drop it from the front-end maps.
                self.session_shard.remove(&session_id);
                self.session_load.remove(&session_id);
                false
            }
        }
    }

    /// Handles a whole batch of wire records — from any mix of clients —
    /// and returns one result per record **in input order** (the re-merge
    /// guarantee in the module docs).
    pub fn handle_records(
        &mut self,
        records: Vec<Record>,
        now_secs: u64,
    ) -> Vec<Result<ShardEvent, VpnError>> {
        // Dispatch boundary: rebalance before any of this batch's records
        // are assigned, so a session's whole batch lands on one shard.
        self.rebalance();
        let n = records.len();
        let mut results: Vec<Option<Result<ShardEvent, VpnError>>> = (0..n).map(|_| None).collect();
        let mut groups: Vec<Vec<(u32, Record)>> = vec![Vec::new(); self.pool.len()];
        let mut shard_bytes = vec![0u64; self.pool.len()];
        let mut session_bytes: HashMap<u64, u64> = HashMap::new();
        for (i, record) in records.into_iter().enumerate() {
            match record.opcode {
                Opcode::HandshakeInit => {
                    // Invariant 3: drain shard work queued so far, then
                    // run the handshake on the front-end.
                    self.flush_groups(&mut groups, now_secs, &mut results);
                    results[i] = Some(self.handle_handshake(&record, now_secs));
                }
                Opcode::HandshakeResp => {
                    results[i] = Some(Err(VpnError::Malformed("server received HandshakeResp")));
                }
                _ => {
                    let shard = self.shard_of(record.session_id);
                    shard_bytes[shard] += record.payload.len() as u64;
                    *session_bytes.entry(record.session_id).or_insert(0) +=
                        record.payload.len() as u64;
                    groups[shard].push((i as u32, record));
                }
            }
        }
        self.flush_groups(&mut groups, now_secs, &mut results);
        self.note_dispatch_loads(&shard_bytes, &session_bytes);
        results
            .into_iter()
            .map(|r| r.expect("every record produces a result"))
            .collect()
    }

    /// Handles one wire record (the single-record convenience over
    /// [`ShardedVpnServer::handle_records`]).
    ///
    /// # Errors
    ///
    /// All authentication/policy failures; the caller drops the traffic.
    pub fn handle_record(
        &mut self,
        record: &Record,
        now_secs: u64,
    ) -> Result<ShardEvent, VpnError> {
        self.handle_records(vec![record.clone()], now_secs)
            .pop()
            .expect("one result for one record")
    }

    fn handle_handshake(&mut self, record: &Record, now_secs: u64) -> Result<ShardEvent, VpnError> {
        let (session_id, session, event) =
            self.responder
                .respond(record, self.policy.required_version, now_secs)?;
        let shard = self.shard_of(session_id);
        self.pool.send(
            shard,
            ShardRequest::Install {
                session_id,
                session: Box::new(session),
            },
        );
        self.session_shard.insert(session_id, shard);
        Ok(event)
    }

    /// Announces a new required configuration version with a grace period
    /// (§III-E); the policy is replicated to every shard.
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32, now_secs: u64) {
        self.policy = self.policy.announce(version, grace_period_secs, now_secs);
        let policy = self.policy;
        for shard in 0..self.pool.len() {
            self.pool.send(shard, ShardRequest::Policy(policy));
        }
    }

    /// The currently required configuration version.
    pub fn required_config_version(&self) -> u64 {
        self.policy.required_version
    }

    /// Seals a payload to a client (routed to the owning shard).
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn seal_to_client(
        &mut self,
        session_id: u64,
        opcode: Opcode,
        payload: Vec<u8>,
    ) -> Result<Record, VpnError> {
        let shard = self.shard_of(session_id);
        let seq = self.next_seq();
        self.sealed_round_trip(
            shard,
            seq,
            ShardRequest::Seal {
                seq,
                session_id,
                opcode,
                payload,
            },
        )
    }

    /// Seals several payloads to a client as one `DataBatch` record.
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn seal_batch_to_client(
        &mut self,
        session_id: u64,
        payloads: &[&[u8]],
    ) -> Result<Record, VpnError> {
        // A batch record is the seal of its framed payloads, so the frames
        // cross to the owning shard as one blob — one allocation for the
        // whole batch, and the worker needs no batch-specific request.
        let blob = crate::proto::frame::encode(payloads);
        self.seal_to_client(session_id, Opcode::DataBatch, blob)
    }

    /// Builds the periodic server ping for a session (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn make_ping(&mut self, session_id: u64, now_ns: u64) -> Result<Record, VpnError> {
        let msg = self.policy.ping(now_ns);
        self.seal_to_client(session_id, Opcode::Ping, msg.to_bytes())
    }

    /// Fetches a snapshot of one session from its owning shard.
    pub fn session_snapshot(&mut self, session_id: u64) -> Option<SessionSnapshot> {
        if !self.session_shard.contains_key(&session_id) {
            return None;
        }
        let shard = self.shard_of(session_id);
        let seq = self.next_seq();
        let query = ShardRequest::Query { seq, session_id };
        match self.pool.round_trip(shard, query).body {
            ReplyBody::Session(snapshot) => snapshot,
            _ => unreachable!("query requests produce session replies"),
        }
    }

    /// Active session ids, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.session_shard.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of connected clients.
    pub fn session_count(&self) -> usize {
        self.session_shard.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::channel::SessionKeys;
    use crate::handshake::{client_complete, client_start};
    use crate::PROTOCOL_V1;
    use endbox_crypto::schnorr::SigningKey;
    use rand::SeedableRng;

    struct Harness {
        server: ShardedVpnServer,
        client_cfg: HandshakeConfig,
        rng: rand::rngs::StdRng,
    }

    fn harness(workers: usize) -> Harness {
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let ca = SigningKey::generate(&mut rng);
        let server_key = SigningKey::generate(&mut rng);
        let client_key = SigningKey::generate(&mut rng);
        let server_cert =
            Certificate::issue("server", server_key.verifying_key(), 1 << 40, &ca, &mut rng);
        let client_cert = Certificate::issue(
            "client-1",
            client_key.verifying_key(),
            1 << 40,
            &ca,
            &mut rng,
        );
        let server = ShardedVpnServer::new(
            HandshakeConfig {
                identity: server_key,
                certificate: server_cert,
                ca_public: ca.verifying_key(),
                min_version: PROTOCOL_V1,
            },
            CipherSuite::Aes128CbcHmac,
            CycleMeter::new(),
            CostModel::calibrated(),
            1,
            workers,
        );
        let client_cfg = HandshakeConfig {
            identity: client_key,
            certificate: client_cert,
            ca_public: ca.verifying_key(),
            min_version: PROTOCOL_V1,
        };
        Harness {
            server,
            client_cfg,
            rng,
        }
    }

    fn connect(h: &mut Harness, config_version: u64) -> (u64, DataChannel) {
        let (hello, state) = client_start(&h.client_cfg, PROTOCOL_V1, config_version, &mut h.rng);
        let record = Record {
            opcode: Opcode::HandshakeInit,
            session_id: 0,
            packet_id: 0,
            payload: hello.to_bytes(),
        };
        let event = h.server.handle_record(&record, 0).unwrap();
        let ShardEvent::Established {
            session_id,
            response,
            ..
        } = event
        else {
            panic!("expected Established");
        };
        let shello = crate::handshake::ServerHello::from_bytes(&response.payload).unwrap();
        let keys: SessionKeys = client_complete(&h.client_cfg, &state, &shello, 0).unwrap();
        let channel = DataChannel::client(
            &keys,
            CipherSuite::Aes128CbcHmac,
            CycleMeter::new(),
            CostModel::calibrated(),
        );
        (session_id, channel)
    }

    #[test]
    fn sessions_round_robin_across_shards() {
        let mut h = harness(4);
        let mut sids = Vec::new();
        for _ in 0..8 {
            sids.push(connect(&mut h, 1).0);
        }
        assert_eq!(h.server.session_count(), 8);
        let shards: Vec<usize> = sids.iter().map(|&s| h.server.shard_of(s)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn data_roundtrip_and_replay_on_any_worker_count() {
        for workers in [1, 2, 4] {
            let mut h = harness(workers);
            let (sid, mut chan) = connect(&mut h, 1);
            // A well-formed tunnelled IP packet.
            let pkt = Packet::udp(
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 1, 1),
                1,
                2,
                b"tunnelled",
            );
            let rec = chan.seal(Opcode::Data, sid, pkt.bytes());
            match h.server.handle_record(&rec, 1).unwrap() {
                ShardEvent::Packet { session_id, packet } => {
                    assert_eq!(session_id, sid);
                    assert_eq!(packet.bytes(), pkt.bytes());
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(
                h.server.handle_record(&rec, 1).unwrap_err(),
                VpnError::Replay,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn batched_records_from_many_clients_remerge_in_input_order() {
        let mut h = harness(4);
        let mut clients: Vec<(u64, DataChannel)> = (0..6).map(|_| connect(&mut h, 1)).collect();
        let mk = |i: u8| {
            Packet::udp(
                std::net::Ipv4Addr::new(10, 0, 0, i),
                std::net::Ipv4Addr::new(10, 0, 1, 1),
                1,
                2,
                &[i; 8],
            )
        };
        // Interleave batches from all clients in one call.
        let mut records = Vec::new();
        let mut expected_sids = Vec::new();
        for round in 0..3u8 {
            for (sid, chan) in clients.iter_mut() {
                let pkts = [mk(round * 2 + 1), mk(round * 2 + 2)];
                let refs: Vec<&[u8]> = pkts.iter().map(Packet::bytes).collect();
                records.push(chan.seal_batch(*sid, &refs));
                expected_sids.push(*sid);
            }
        }
        let results = h.server.handle_records(records, 1);
        assert_eq!(results.len(), expected_sids.len());
        for (result, want_sid) in results.into_iter().zip(expected_sids) {
            match result.unwrap() {
                ShardEvent::Batch { session_id, batch } => {
                    assert_eq!(session_id, want_sid, "results must stay in input order");
                    assert_eq!(batch.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn policy_broadcast_blocks_stale_clients_on_all_shards() {
        let mut h = harness(3);
        let mut clients: Vec<(u64, DataChannel)> = (0..3).map(|_| connect(&mut h, 1)).collect();
        h.server.announce_config(2, 0, 100);
        assert_eq!(h.server.required_config_version(), 2);
        for (sid, chan) in clients.iter_mut() {
            let rec = chan.seal(Opcode::Data, *sid, b"stale");
            assert!(matches!(
                h.server.handle_record(&rec, 101),
                Err(VpnError::StaleConfiguration { .. })
            ));
        }
    }

    #[test]
    fn ping_updates_snapshot_and_reenables_traffic() {
        let mut h = harness(2);
        let (sid, mut chan) = connect(&mut h, 1);
        h.server.announce_config(2, 0, 100);
        let ping = PingMessage {
            config_version: 2,
            grace_period_secs: 0,
            timestamp_ns: 0,
        };
        let rec = chan.seal(Opcode::Ping, sid, &ping.to_bytes());
        match h.server.handle_record(&rec, 101).unwrap() {
            ShardEvent::Ping { message, .. } => assert_eq!(message.config_version, 2),
            other => panic!("unexpected {other:?}"),
        }
        let snap = h.server.session_snapshot(sid).unwrap();
        assert_eq!(snap.reported_config_version, 2);
        let pkt = Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            b"fresh",
        );
        let rec = chan.seal(Opcode::Data, sid, pkt.bytes());
        assert!(matches!(
            h.server.handle_record(&rec, 102),
            Ok(ShardEvent::Packet { .. })
        ));
    }

    #[test]
    fn disconnect_updates_front_end_registry() {
        let mut h = harness(2);
        let (sid, _) = connect(&mut h, 1);
        let rec = Record {
            opcode: Opcode::Disconnect,
            session_id: sid,
            packet_id: 0,
            payload: vec![],
        };
        h.server.handle_record(&rec, 1).unwrap();
        assert_eq!(h.server.session_count(), 0);
        assert!(h.server.session_snapshot(sid).is_none());
    }

    /// The worker takes the record and dies with it. Before `OwnerPool`
    /// this blocked forever: the front-end held a reply sender of its own
    /// (to spawn workers with), so the reply channel never disconnected.
    #[test]
    fn record_for_a_dead_worker_fails_loudly_instead_of_hanging() {
        let mut h = harness(2);
        let (sid, mut chan) = connect(&mut h, 1);
        let shard = h.server.shard_of(sid);
        let rec = chan.seal(Opcode::Data, sid, b"never opened");
        let mut server = h.server;
        server.pool.send(shard, ShardRequest::Die);
        let message = crate::pool::panic_message_of(move || {
            server.handle_records(vec![rec], 1);
        });
        assert_eq!(message, format!("vpn-shard thread {shard} died"));
    }

    #[test]
    fn server_sealed_ping_opens_at_client() {
        let mut h = harness(2);
        let (sid, mut chan) = connect(&mut h, 1);
        h.server.announce_config(7, 60, 0);
        let rec = h.server.make_ping(sid, 42).unwrap();
        let payload = chan.open(&rec).unwrap();
        let msg = PingMessage::from_bytes(&payload).unwrap();
        assert_eq!(msg.config_version, 7);
        assert_eq!(msg.grace_period_secs, 60);
    }

    /// Drives `rounds` of skewed traffic: each `(client, batch)` entry in
    /// `heavy` seals a `batch`-packet record per round, every other client
    /// one small record, all through one `handle_records` dispatch.
    fn skewed_rounds(
        h: &mut Harness,
        clients: &mut [(u64, DataChannel)],
        heavy: &[(usize, usize)],
        rounds: usize,
    ) {
        for round in 0..rounds {
            let mut records = Vec::new();
            for (i, (sid, chan)) in clients.iter_mut().enumerate() {
                let pkt = Packet::udp(
                    std::net::Ipv4Addr::new(10, 0, 0, (i + 1) as u8),
                    std::net::Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    2,
                    &[round as u8; 64],
                );
                if let Some(&(_, batch)) = heavy.iter().find(|&&(c, _)| c == i) {
                    let refs: Vec<&[u8]> = (0..batch).map(|_| pkt.bytes()).collect();
                    records.push(chan.seal_batch(*sid, &refs));
                } else {
                    records.push(chan.seal(Opcode::Data, *sid, pkt.bytes()));
                }
            }
            for result in h.server.handle_records(records, 1) {
                result.expect("all traffic is well-formed");
            }
        }
    }

    #[test]
    fn dispatcher_migrates_colliding_heavy_sessions() {
        // Sessions 1 and 5 both live on shard 0 of a 4-worker server
        // (home shard (sid-1) mod 4 = 0). Both are heavy: the dispatcher
        // must move one of them off the hot shard — and the session keeps
        // working (channel state, replay window) after the move.
        let mut h = harness(4);
        let mut clients: Vec<(u64, DataChannel)> = (0..8).map(|_| connect(&mut h, 1)).collect();
        assert_eq!(h.server.shard_of(1), 0);
        assert_eq!(h.server.shard_of(5), 0);
        skewed_rounds(&mut h, &mut clients, &[(0, 24), (4, 12)], 6);
        assert!(h.server.migrations() > 0, "sustained skew must migrate");
        assert!(
            h.server.shard_of(1) != 0 || h.server.shard_of(5) != 0,
            "one of the colliding heavy sessions must have moved off shard 0"
        );
        // The migrated session's replay window travelled with it.
        let (sid, chan) = &mut clients[if h.server.shard_of(1) != 0 { 0 } else { 4 }];
        let pkt = Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            b"post-migration",
        );
        let rec = chan.seal(Opcode::Data, *sid, pkt.bytes());
        assert!(matches!(
            h.server.handle_record(&rec, 1),
            Ok(ShardEvent::Packet { .. })
        ));
        assert_eq!(
            h.server.handle_record(&rec, 1).unwrap_err(),
            VpnError::Replay
        );
    }

    #[test]
    fn uniform_load_does_not_migrate() {
        let mut h = harness(4);
        let mut clients: Vec<(u64, DataChannel)> = (0..8).map(|_| connect(&mut h, 1)).collect();
        skewed_rounds(&mut h, &mut clients, &[], 6);
        assert_eq!(h.server.migrations(), 0, "balanced shards must stay put");
    }

    #[test]
    fn single_dominant_session_never_ping_pongs() {
        // One session carries essentially all traffic: migrating it can
        // never reduce the imbalance (it just swaps hot and cold), so the
        // `2 * load <= gap` filter must keep it pinned — no per-dispatch
        // extract/install churn.
        let mut h = harness(4);
        let mut clients: Vec<(u64, DataChannel)> = (0..8).map(|_| connect(&mut h, 1)).collect();
        skewed_rounds(&mut h, &mut clients, &[(0, 24)], 6);
        // Co-located light sessions may rebalance away once, then the
        // assignment must be stable: further rounds add no migrations.
        let settled = h.server.migrations();
        skewed_rounds(&mut h, &mut clients, &[(0, 24)], 6);
        assert_eq!(
            h.server.migrations(),
            settled,
            "a dominant session must not ping-pong between shards"
        );
        assert_eq!(h.server.shard_of(1), 0, "it stays on its home shard");
    }

    #[test]
    fn bogus_and_disconnected_sessions_leave_no_load_entries() {
        let mut h = harness(2);
        let (sid, mut chan) = connect(&mut h, 1);
        let pkt = Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            b"traffic",
        );
        // A record for a session that never existed is rejected — and must
        // not grow the dispatcher's load map (one entry per spoofed id
        // would be an unbounded leak).
        let bogus = Record {
            opcode: Opcode::Data,
            session_id: 999,
            packet_id: 1,
            payload: vec![0xee; 120],
        };
        let data = chan.seal(Opcode::Data, sid, pkt.bytes());
        let disconnect = Record {
            opcode: Opcode::Disconnect,
            session_id: sid,
            packet_id: 0,
            payload: vec![],
        };
        // Data + Disconnect for the same session in ONE dispatch: the load
        // accounting after the flush must not resurrect the removed entry.
        let results = h.server.handle_records(vec![bogus, data, disconnect], 1);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &VpnError::UnknownSession(999)
        );
        assert!(matches!(results[1], Ok(ShardEvent::Packet { .. })));
        assert!(matches!(results[2], Ok(ShardEvent::Disconnected { .. })));
        assert!(
            !h.server.session_load.contains_key(&999),
            "spoofed session ids must not leak load entries"
        );
        assert!(
            !h.server.session_load.contains_key(&sid),
            "disconnect in the same dispatch must not resurrect the entry"
        );
    }

    #[test]
    fn materialize_frames_is_one_copy_and_recycles() {
        let pool = BufferPool::new();
        let keys = SessionKeys::derive(&[7u8; 32], &[1u8; 32], &[2u8; 32]);
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        let mut c = DataChannel::client(
            &keys,
            CipherSuite::Aes128CbcHmac,
            meter.clone(),
            cost.clone(),
        );
        let mut s = DataChannel::server(&keys, CipherSuite::Aes128CbcHmac, meter, cost);
        let pkts: Vec<Packet> = (0..4)
            .map(|i| {
                Packet::udp(
                    std::net::Ipv4Addr::new(10, 0, 0, 1),
                    std::net::Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    i + 1,
                    &[i as u8; 100],
                )
            })
            .collect();
        let refs: Vec<&[u8]> = pkts.iter().map(Packet::bytes).collect();
        let rec = c.seal_batch(5, &refs);
        let frames = s.open_batch_frames(&rec).unwrap();
        let batch = materialize_frames(&pool, frames).unwrap();
        assert_eq!(batch.len(), 4);
        for (got, want) in batch.iter().zip(&pkts) {
            assert_eq!(got.bytes(), want.bytes());
        }
        let stats = pool.stats();
        assert_eq!(stats.batched_ops, 1, "one take_many for the whole batch");
        // The pool lent four buffers and gets exactly those four back:
        // the decrypted blob went home to the channel, not in here.
        drop(batch);
        assert_eq!(pool.stats().handed_out(), 4);
        assert_eq!(pool.stats().returned, 4);
    }

    /// Takes and gives balance: after the first round fills the pools,
    /// a thousand more leave the packet pool exactly as it was (at the
    /// parent it grew by one record blob per round, up to its cap).
    #[test]
    fn seal_open_materialize_drop_conserves_the_pool() {
        let pool = BufferPool::new();
        let keys = SessionKeys::derive(&[7u8; 32], &[1u8; 32], &[2u8; 32]);
        let cost = CostModel::calibrated();
        for suite in [CipherSuite::Aes128CbcHmac, CipherSuite::IntegrityOnly] {
            let mut c = DataChannel::client(&keys, suite, CycleMeter::new(), cost.clone());
            let mut s = DataChannel::server(&keys, suite, CycleMeter::new(), cost.clone());
            let pkts: Vec<Packet> = (0..16)
                .map(|i| {
                    Packet::udp(
                        std::net::Ipv4Addr::new(10, 0, 0, 1),
                        std::net::Ipv4Addr::new(10, 0, 1, 1),
                        1,
                        i + 1,
                        &[i as u8; 1432],
                    )
                })
                .collect();
            let refs: Vec<&[u8]> = pkts.iter().map(Packet::bytes).collect();
            let mut round = || {
                let rec = c.seal_batch(5, &refs);
                let frames = s.open_batch_frames(&rec).unwrap();
                drop(materialize_frames(&pool, frames).unwrap());
            };
            round();
            let warm = (pool.free_buffers(), pool.free_bytes(), pool.stats());
            for _ in 0..1_000 {
                round();
            }
            assert_eq!((pool.free_buffers(), pool.free_bytes()), (warm.0, warm.1));
            assert_eq!(warm.0, 16, "one packet buffer per frame, no blob");
            let stats = pool.stats();
            assert_eq!(stats.fresh_allocs, warm.2.fresh_allocs, "{suite:?}");
            assert_eq!(stats.discarded, 0);
        }
    }

    #[test]
    fn malformed_frame_rejects_whole_batch() {
        let pool = BufferPool::new();
        let keys = SessionKeys::derive(&[7u8; 32], &[1u8; 32], &[2u8; 32]);
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        let mut c = DataChannel::client(
            &keys,
            CipherSuite::Aes128CbcHmac,
            meter.clone(),
            cost.clone(),
        );
        let mut s = DataChannel::server(&keys, CipherSuite::Aes128CbcHmac, meter, cost);
        let good = Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            b"ok",
        );
        let rec = c.seal_batch(5, &[good.bytes(), b"not an ip packet"]);
        let frames = s.open_batch_frames(&rec).unwrap();
        assert_eq!(
            materialize_frames(&pool, frames),
            Err(VpnError::Malformed("bad tunnelled packet"))
        );
    }
}

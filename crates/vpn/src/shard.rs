//! One partition of the server's session state, and the one record
//! handler both servers run over it.
//!
//! [`VpnShard`] is a session table, the config-version policy and a
//! buffer pool. All per-record logic on the receive side — policy
//! enforcement, record opening, **per-session replay windows**, ping
//! handling, disconnects — lives in one record handler
//! ([`VpnShard::handle_record_delivery`]) producing one event type
//! ([`ShardEvent`]). [`crate::server::VpnServer`] is exactly one inline
//! shard behind the handshake responder; `endbox::server`'s sharded
//! server runs one per run-to-completion shard thread and keeps one on
//! its front-end for the sessions that are not bound yet. Both servers
//! therefore share one implementation of the datapath and cannot drift
//! apart.
//!
//! # Sessions bind to a peer
//!
//! A session is bound to the transport peer of its first authenticated
//! record ([`ServerSession::bound_peer`]). From then on a record naming
//! it from any other peer is [`VpnError::UnknownSession`] before any MAC
//! work: it touches neither the replay window nor a buffer, so a record
//! captured and re-sent from another address cannot consume the genuine
//! copy's window slot. A record that fails authentication binds nothing.
//! This is how an OpenVPN server without `--float` keys its client
//! instances by their real address, and it is what lets the sharded
//! server keep every session on the one shard that owns its peer.

use crate::channel::{BatchFrames, RecvHalf};
use crate::error::VpnError;
use crate::handshake::ClientInfo;
use crate::ping::PingMessage;
use crate::proto::{Opcode, Record};
use endbox_netsim::{BufferPool, Packet, PacketBatch};
use std::collections::HashMap;

/// Server-side state for one client session — what a shard owns and
/// what a relocation moves: the client's identity, its proved config
/// version, the peer it is bound to and the **receive half** of its
/// channel (replay window included). The send half never leaves the
/// front-end's `SendTable`.
#[derive(Debug)]
pub struct ServerSession {
    /// Authenticated client information from the handshake.
    pub info: ClientInfo,
    /// Latest configuration version the client proved via ping.
    pub reported_config_version: u64,
    pub(crate) recv: RecvHalf,
    peer: Option<u64>,
}

impl ServerSession {
    pub(crate) fn new(info: ClientInfo, recv: RecvHalf) -> ServerSession {
        ServerSession {
            reported_config_version: info.config_version,
            info,
            recv,
            peer: None,
        }
    }

    /// The peer this session's first authenticated record came from;
    /// `None` until one has.
    pub fn bound_peer(&self) -> Option<u64> {
        self.peer
    }
}

/// Configuration-version policy (§III-E): every shard holds a copy, and
/// an announcement replaces all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigPolicy {
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

    /// The gate every data path shares: after the grace deadline only the
    /// required version may send; during grace, the previous version is
    /// also acceptable.
    fn admit(self, session: &ServerSession, now_secs: u64) -> Result<(), VpnError> {
        let v = session.reported_config_version;
        let acceptable = if now_secs >= self.grace_deadline_secs {
            v >= self.required_version
        } else {
            v >= self.previous_ok_version
        };
        if acceptable {
            Ok(())
        } else {
            Err(VpnError::StaleConfiguration {
                client: v,
                required: self.required_version,
            })
        }
    }
}

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

/// The session `session_id` if `peer` may speak for it: unbound, or bound
/// to `peer`. Anything else — no such session, or one bound elsewhere —
/// is [`VpnError::UnknownSession`], the verdict a stranger gets.
fn session_of(
    sessions: &mut HashMap<u64, ServerSession>,
    session_id: u64,
    peer: u64,
) -> Result<&mut ServerSession, VpnError> {
    match sessions.get_mut(&session_id) {
        Some(session) if session.peer.is_none_or(|bound| bound == peer) => Ok(session),
        _ => Err(VpnError::UnknownSession(session_id)),
    }
}

/// One partition of the server's session state. See the module docs;
/// [`crate::server::VpnServer`] embeds exactly one.
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

    /// Replaces this shard's copy of the config policy.
    pub fn set_policy(&mut self, policy: ConfigPolicy) {
        self.policy = policy;
    }

    /// This shard's copy of the config policy.
    pub fn policy(&self) -> ConfigPolicy {
        self.policy
    }

    /// Adopts a session — freshly established, or relocated whole.
    pub fn install(&mut self, session_id: u64, session: ServerSession) {
        self.sessions.insert(session_id, session);
    }

    /// Detaches `session_id` if it is bound to a peer: what the sharded
    /// server's front-end hands to the shard owning that peer once a
    /// record has bound it.
    pub fn take_bound(&mut self, session_id: u64) -> Option<ServerSession> {
        self.sessions.get(&session_id)?.peer?;
        self.sessions.remove(&session_id)
    }

    /// Detaches every session bound to `peer` (replay windows and receive
    /// halves included), in ascending id order — what a relocation of the
    /// peer carries along.
    pub fn extract_peer(&mut self, peer: u64) -> Vec<(u64, ServerSession)> {
        let mut ids: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.peer == Some(peer))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| (id, self.sessions.remove(&id).expect("listed above")))
            .collect()
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

    /// Handles one non-handshake record from `peer` — the one record
    /// handler under both servers. A session is bound to the peer of its
    /// first authenticated record and answers no other (module docs).
    /// Tunnel payloads are materialised into this shard's pool; one that
    /// is not an IPv4 packet is rejected after it was authenticated, so
    /// it has consumed its replay-window slot and bound its session.
    ///
    /// # Errors
    ///
    /// All authentication/policy failures, plus
    /// [`VpnError::Malformed`] for payloads that are not IPv4 packets.
    pub fn handle_record_delivery(
        &mut self,
        record: &Record,
        peer: u64,
        now_secs: u64,
    ) -> Result<ShardEvent, VpnError> {
        let session_id = record.session_id;
        match record.opcode {
            Opcode::Data => {
                let session = session_of(&mut self.sessions, session_id, peer)?;
                self.policy.admit(session, now_secs)?;
                // The plaintext lands in one of the shard's own buffers,
                // which becomes the packet's backing store as it is: the
                // pool is given what it lent, not a fresh allocation.
                let mut buf = self.pool.take(record.payload.len());
                if let Err(e) = session.recv.open_into(record, &mut buf) {
                    self.pool.give(buf);
                    return Err(e);
                }
                session.peer = Some(peer);
                let packet = Packet::from_vec_in(&self.pool, buf)
                    .map_err(|_| VpnError::Malformed("bad tunnelled packet"))?;
                Ok(ShardEvent::Packet { session_id, packet })
            }
            Opcode::DataBatch => {
                let session = session_of(&mut self.sessions, session_id, peer)?;
                self.policy.admit(session, now_secs)?;
                let frames = session.recv.open_batch_frames(record)?;
                session.peer = Some(peer);
                let batch = materialize_frames(&self.pool, frames)?;
                Ok(ShardEvent::Batch { session_id, batch })
            }
            // A ping is the client's config-version proof (§III-E step 9).
            Opcode::Ping => {
                let session = session_of(&mut self.sessions, session_id, peer)?;
                let payload = session.recv.open(record)?;
                session.peer = Some(peer);
                let message = PingMessage::from_bytes(&payload)?;
                session.reported_config_version = message.config_version;
                Ok(ShardEvent::Ping {
                    session_id,
                    message,
                })
            }
            Opcode::Disconnect => {
                session_of(&mut self.sessions, session_id, peer)?;
                self.sessions.remove(&session_id);
                Ok(ShardEvent::Disconnected { session_id })
            }
            Opcode::HandshakeInit | Opcode::HandshakeResp => {
                Err(VpnError::Malformed("handshake record on the data path"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{CipherSuite, DataChannel, SessionKeys};
    use endbox_netsim::cost::{CostModel, CycleMeter};

    #[test]
    fn materialize_frames_is_one_copy_and_recycles() {
        let pool = BufferPool::new();
        let keys = SessionKeys::derive(&[7u8; 32], &[1u8; 32], &[2u8; 32]);
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        let mut c = DataChannel::client(&keys, CipherSuite::Aes128Gcm, meter.clone(), cost.clone());
        let mut s = DataChannel::server(&keys, CipherSuite::Aes128Gcm, meter, cost);
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
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
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
        let mut c = DataChannel::client(&keys, CipherSuite::Aes128Gcm, meter.clone(), cost.clone());
        let mut s = DataChannel::server(&keys, CipherSuite::Aes128Gcm, meter, cost);
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

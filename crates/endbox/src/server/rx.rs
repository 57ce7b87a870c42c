//! The shard: per-peer reassembly and record framing ([`RxShard`]), and
//! the run-to-completion thread that frames and opens for its peers.
//!
//! [`RxShard`] is the frame step — one peer map, `frame` one datagram,
//! tear a peer down, hand a peer over or adopt one. The single-threaded
//! reference owns one inline under its `VpnServer`. The sharded server
//! runs `C` [`Shard`]s on an `OwnerPool`: each owns the `RxShard` state
//! of the peers placed on it and a `VpnShard` holding the sessions bound
//! to those peers, and runs frame → open over its peers' datagrams in
//! input order. What only the front-end can answer — a handshake, or a
//! record naming a session that may still be unbound — the shard
//! *escalates*: it replies with what it has done so far and waits for the
//! answer before it touches its next datagram.

use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_vpn::frag::Reassembler;
use endbox_vpn::pool::{Replies, Requests};
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::server::ServerSession;
use endbox_vpn::shard::{ConfigPolicy, ShardEvent, VpnShard};
use endbox_vpn::VpnError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one wire datagram came to.
pub(super) enum Outcome {
    /// More fragments pending.
    Pending,
    /// Reassembly failed (counted against `rejected`).
    Reassembly(VpnError),
    /// The reassembled bytes are not a valid record.
    Malformed(VpnError),
    /// The record it completed, and the session layer's verdict on it.
    Opened(Result<ShardEvent, VpnError>),
}

/// Observability counters for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Wire datagrams this shard pushed into its reassemblers.
    pub datagrams: u64,
    /// Complete records this shard framed (including records the session
    /// layer rejected, and those it escalated — framing happened either
    /// way).
    pub records_framed: u64,
    /// Bytes currently buffered in this shard's incomplete reassemblies.
    pub reassembly_bytes_held: usize,
    /// Records currently awaiting more fragments on this shard.
    pub pending_records: usize,
    /// Live per-peer reassemblers this shard owns.
    pub peers: usize,
    /// Sessions this shard owns (every one bound to one of its peers).
    pub sessions: usize,
    /// Records this shard escalated to the front-end and waited on.
    pub escalations: u64,
}

/// The frame step: the reassembly state of the peers placed here. Per
/// peer, not per session; it leaves a shard only through
/// [`RxShard::extract`]. (Public only because the reference server's
/// type names it; the module is not, so no caller can.)
pub struct RxShard {
    reassemblers: HashMap<u64, Reassembler>,
    meter: CycleMeter,
    per_fragment: u64,
    datagrams: u64,
    framed: u64,
}

impl RxShard {
    pub(super) fn new(meter: &CycleMeter, cost: &CostModel) -> RxShard {
        RxShard {
            reassemblers: HashMap::new(),
            meter: meter.clone(),
            per_fragment: cost.vpn_server_per_fragment,
            datagrams: 0,
            framed: 0,
        }
    }

    /// Frames one wire datagram of `peer`, charging its receipt: the
    /// record it completed, or — as `Err` — what the datagram came to
    /// without one. The datagram is adopted as the reassembly piece, and
    /// a completed record's bytes become its payload — no copy on either
    /// step.
    pub(super) fn frame(&mut self, peer: u64, datagram: Vec<u8>) -> Result<Record, Outcome> {
        self.meter.add(self.per_fragment);
        self.datagrams += 1;
        let reassembler = self.reassemblers.entry(peer).or_default();
        match reassembler.push_owned(datagram) {
            Err(e) => Err(Outcome::Reassembly(e)),
            Ok(None) => Err(Outcome::Pending),
            Ok(Some(bytes)) => {
                let record = Record::from_vec(bytes).map_err(Outcome::Malformed)?;
                self.framed += 1;
                Ok(record)
            }
        }
    }

    /// A Disconnect for `peer`'s session succeeded: the peer's reassembler
    /// goes, before any later datagram of the peer is framed.
    pub(super) fn teardown(&mut self, peer: u64) {
        self.reassemblers.remove(&peer);
    }

    /// Detaches `peer`'s reassembly state whole, in-flight partial
    /// records included.
    fn extract(&mut self, peer: u64) -> Option<Reassembler> {
        self.reassemblers.remove(&peer)
    }

    fn install(&mut self, peer: u64, reassembler: Reassembler) {
        let prior = self.reassemblers.insert(peer, reassembler);
        debug_assert!(
            prior.is_none(),
            "a relocation extracts before it installs; peer {peer} already lives here"
        );
    }
}

/// Which records a shard must hand to the front-end instead of deciding
/// itself: handshakes, and those naming a session that is unbound when
/// the batch was sent, or that a handshake of the batch could still
/// issue — an earlier record of the batch, on any shard, may bind or
/// create it. Each handshake takes at least one datagram, so a batch of
/// `n` issues at most the next `n` ids.
#[derive(Clone)]
pub(super) struct Escalate {
    pub(super) unbound: Vec<u64>,
    pub(super) issuable: std::ops::Range<u64>,
}

impl Escalate {
    fn covers(&self, session_id: u64) -> bool {
        self.issuable.contains(&session_id) || self.unbound.contains(&session_id)
    }
}

/// A record a shard escalated, with its input index and peer.
pub(super) struct Escalated {
    pub(super) idx: u32,
    pub(super) peer: u64,
    pub(super) record: Record,
}

/// The front-end's answer to an escalated record, beyond its outcome.
pub(super) struct Resolution {
    /// The session the record bound to its peer, to live here from now.
    pub(super) install: Option<(u64, Box<ServerSession>)>,
    /// The record disconnected its session: tear the peer down.
    pub(super) teardown: bool,
}

/// Everything of one peer a relocation moves: its reassembler and the
/// sessions bound to it.
pub(super) struct PeerState {
    reassembler: Option<Reassembler>,
    sessions: Vec<(u64, ServerSession)>,
}

impl PeerState {
    /// `(in-flight partial records, sessions)` riding along.
    pub(super) fn contents(&self) -> (usize, usize) {
        let partials = self.reassembler.as_ref().map_or(0, Reassembler::pending);
        (partials, self.sessions.len())
    }
}

pub(super) enum Request {
    /// Frame and open these `(input index, peer, datagram)` entries, in
    /// order. Indices are global over the receive batch.
    Batch {
        now_secs: u64,
        entries: Vec<(u32, u64, Vec<u8>)>,
        escalate: Escalate,
    },
    /// The answer the shard is waiting on.
    Resolved(Resolution),
    /// Hand over a peer ([`PeerState`]).
    Extract(u64),
    /// Adopt a relocated peer.
    Install(u64, PeerState),
    /// Replace the config policy.
    Policy(ConfigPolicy),
    /// The config version a session has proved.
    ConfigVersion(u64),
    /// Report [`ShardStats`].
    Stats,
}

pub(super) enum Reply {
    /// Outcomes of a batch's entries so far. With `escalated`, the shard
    /// waits for a [`Request::Resolved`] before it goes on; without, the
    /// batch is done.
    Progress {
        shard: usize,
        done: Vec<(u32, Outcome)>,
        escalated: Option<Escalated>,
    },
    Peer(PeerState),
    ConfigVersion(Option<u64>),
    Stats {
        shard: usize,
        stats: ShardStats,
    },
}

/// One run-to-completion shard: the frame step and the session state of
/// the peers placed on it.
pub(super) struct Shard {
    rx: RxShard,
    vpn: VpnShard,
    escalations: u64,
}

impl Shard {
    pub(super) fn new(meter: &CycleMeter, cost: &CostModel) -> Shard {
        Shard {
            rx: RxShard::new(meter, cost),
            vpn: VpnShard::new(),
            escalations: 0,
        }
    }

    /// Frame → open for one datagram, or — as `Err` — the record to
    /// escalate. A record for a session this shard does not hold is
    /// `UnknownSession` here unless the front-end may still bind or
    /// create it; the verdict mutates nothing, so escalating after it is
    /// safe.
    fn step(
        &mut self,
        peer: u64,
        datagram: Vec<u8>,
        now_secs: u64,
        escalate: &Escalate,
    ) -> Result<Outcome, Record> {
        let record = match self.rx.frame(peer, datagram) {
            Ok(record) => record,
            Err(outcome) => return Ok(outcome),
        };
        if matches!(record.opcode, Opcode::HandshakeInit | Opcode::HandshakeResp) {
            return Err(record);
        }
        let event = self.vpn.handle_record_delivery(&record, peer, now_secs);
        match event {
            Err(VpnError::UnknownSession(id)) if escalate.covers(id) => return Err(record),
            Ok(ShardEvent::Disconnected { .. }) => self.rx.teardown(peer),
            _ => {}
        }
        Ok(Outcome::Opened(event))
    }

    fn resolve(&mut self, peer: u64, resolution: Resolution) {
        if let Some((session_id, session)) = resolution.install {
            self.vpn.install(session_id, *session);
        }
        if resolution.teardown {
            self.rx.teardown(peer);
        }
    }

    fn extract(&mut self, peer: u64) -> PeerState {
        PeerState {
            reassembler: self.rx.extract(peer),
            sessions: self.vpn.extract_peer(peer),
        }
    }

    fn install(&mut self, peer: u64, state: PeerState) {
        if let Some(reassembler) = state.reassembler {
            self.rx.install(peer, reassembler);
        }
        for (session_id, session) in state.sessions {
            self.vpn.install(session_id, session);
        }
    }

    fn stats(&self) -> ShardStats {
        let partials = self.rx.reassemblers.values();
        ShardStats {
            datagrams: self.rx.datagrams,
            records_framed: self.rx.framed,
            reassembly_bytes_held: partials.clone().map(Reassembler::pending_bytes).sum(),
            pending_records: partials.map(Reassembler::pending).sum(),
            peers: self.rx.reassemblers.len(),
            sessions: self.vpn.session_count(),
            escalations: self.escalations,
        }
    }
}

/// One shard thread: serves requests until the pool retires it.
pub(super) fn shard_loop(
    index: usize,
    mut shard: Shard,
    requests: Requests<Request>,
    replies: Replies<Reply>,
    stall_micros: &AtomicU64,
) {
    while let Some(request) = requests.recv() {
        match request {
            Request::Batch {
                now_secs,
                entries,
                escalate,
            } => {
                let mut done = Vec::with_capacity(entries.len());
                for (idx, peer, datagram) in entries {
                    // Deterministic-schedule hook: a stalled shard works
                    // slowly, forcing adversarial reply and escalation
                    // orders at the front-end (tests/support).
                    let stall = stall_micros.load(Ordering::Relaxed);
                    if stall > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(stall));
                    }
                    match shard.step(peer, datagram, now_secs, &escalate) {
                        Ok(outcome) => done.push((idx, outcome)),
                        Err(record) => {
                            shard.escalations += 1;
                            replies.send(Reply::Progress {
                                shard: index,
                                done: std::mem::take(&mut done),
                                escalated: Some(Escalated { idx, peer, record }),
                            });
                            match requests.recv() {
                                Some(Request::Resolved(resolution)) => {
                                    shard.resolve(peer, resolution)
                                }
                                _ => return,
                            }
                        }
                    }
                }
                replies.send(Reply::Progress {
                    shard: index,
                    done,
                    escalated: None,
                });
            }
            // Only ever sent to a shard waiting on an escalation.
            Request::Resolved(_) => unreachable!("no escalation is pending"),
            Request::Extract(peer) => replies.send(Reply::Peer(shard.extract(peer))),
            Request::Install(peer, state) => shard.install(peer, state),
            Request::Policy(policy) => shard.vpn.set_policy(policy),
            Request::ConfigVersion(session_id) => {
                let version = shard.vpn.session(session_id);
                replies.send(Reply::ConfigVersion(
                    version.map(|s| s.reported_config_version),
                ));
            }
            Request::Stats => replies.send(Reply::Stats {
                shard: index,
                stats: shard.stats(),
            }),
        }
    }
}

//! A vendored non-blocking socket/reactor layer: pluggable wire
//! transports behind one endpoint handle, with syscall-shaped bulk I/O
//! and a readiness-based poll API.
//!
//! The sharded EndBox server of [`pipeline`](crate::pipeline) fame is
//! driven by synchronous `receive_datagrams` calls; serving *thousands*
//! of VPN peers without a thread per connection needs an event-driven
//! front-end instead (Slick and LightBox make the same move in front of
//! their protected datapaths). The build environment is offline and the
//! whole reproduction must stay deterministic, so this module vendors the
//! minimal `mio`-shaped subset the front-end needs, split along a
//! transport boundary:
//!
//! * [`Transport`] — the pluggable wire: anything that can bind a port
//!   and hand out a [`UdpEndpoint`]. Two backends implement it:
//!   [`VirtualWire`] (the deterministic in-process default) and
//!   [`OsWire`] (real non-blocking `std::net::UdpSocket`s on the
//!   loopback device); [`TransportKind`] selects between them and
//!   [`ShortSendWire`] decorates either with partial-send fault
//!   injection. A kernel-bypass backend (rings, zero-copy frames) is not
//!   modelled: one comes back as a real, timed transport or not at all.
//! * [`WireEndpoint`] — the per-socket operations a backend provides:
//!   single-datagram `send_to`/`try_recv` plus the **bulk**
//!   `send_many`/`recv_many` pair shaped like `sendmmsg`/`recvmmsg` (one
//!   call moves a whole batch; partial sends leave the unsent tail in the
//!   caller's vector).
//! * [`VirtualWire`] — the in-process wire: a registry of bound ports.
//!   Every datagram sent through it is stamped with a **globally
//!   monotonic sequence number** (the analogue of kernel receive
//!   timestamping), so a reader draining several sockets can reconstruct
//!   the exact wire arrival order.
//! * [`OsWire`] — the OS-socket backend: each bound port is a real
//!   non-blocking UDP socket on `127.0.0.1`, with a 16-byte wire header
//!   carrying the same globally monotonic stamp (assigned at send time
//!   from a wire-shared counter) and the sender's port. Because the
//!   stamp rides the wire, the re-merge-by-`seq` ordering contract is
//!   **identical** to the virtual backend's, which is what lets the
//!   parity tests assert byte-identical application-level results across
//!   backends. Receive buffers come from a [`BufferPool`], so ingress
//!   performs no per-datagram allocation in steady state.
//! * [`UdpEndpoint`] — the bound, cloneable, non-blocking handle over
//!   either backend: [`UdpEndpoint::send_to`] enqueues at the
//!   destination port, [`UdpEndpoint::try_recv`] never blocks (returns
//!   `None` instead of `EWOULDBLOCK`). Endpoints bound with
//!   [`VirtualWire::bind_metered`] (or [`Transport::bind_metered`] on
//!   any backend) charge the calibrated socket costs
//!   ([`CostModel::socket_send_fixed`], [`CostModel::socket_recv_fixed`],
//!   [`CostModel::socket_per_byte`]) to a [`CycleMeter`], so socket I/O
//!   shows up in measured [`PacketCharge`](crate::pipeline::PacketCharge)s
//!   like every other layer. Bulk calls charge the **same per-datagram
//!   costs** as N single calls — the per-*call* syscall saving is priced
//!   by the timing layer ([`crate::pipeline::SyscallBatchModel`] /
//!   [`CostModel::syscall_per_call`]), not metered here, so one measured
//!   charge replays honestly under every bulk size.
//! * [`PollGroup`] — a level-triggered readiness poller over registered
//!   endpoints. [`PollGroup::poll`] scans in registration order (no OS,
//!   no timing races: readiness is deterministic given the send order)
//!   and counts wakeups; the *cost* of a wakeup is modelled by the timing
//!   layer ([`crate::pipeline::AsyncFrontEndModel`]), not charged here,
//!   so the same functional run can be replayed under both the
//!   call-driven and the event-driven cost model. Registration and
//!   deregistration are O(1) amortised (token-indexed slots with
//!   order-preserving compaction), so a churning peer population never
//!   turns the reactor into a linear scan.
//!
//! # Determinism
//!
//! On the virtual backend everything is driven by the caller: there are
//! no background threads, readiness is a pure function of what has been
//! sent and not yet received, and poll scans follow registration order.
//! Two runs that perform the same sends observe byte-identical datagrams,
//! sequence numbers and poll results — which is what lets
//! `tests/async_ingress.rs` and `tests/bulk_ingress.rs` replay the
//! `tests/support/` schedule grid through the event-driven front-end and
//! assert byte-identical parity with the single-threaded reference
//! server. The OS backend adds the kernel to the loop but keeps the
//! ordering contract: stamps are assigned in send order and carried in
//! the wire header, UDP on loopback neither drops nor reorders under the
//! test loads, and the front-end's re-merge sort restores stamp order
//! regardless of per-socket drain order.

use crate::buffer::{BufferPool, PoolStats};
use crate::cost::{CostModel, CycleMeter};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors of the socket layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The port is already bound.
    AddrInUse(u64),
    /// No endpoint is bound at the destination port.
    Unreachable(u64),
    /// An OS-level socket error (OS backend only).
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::AddrInUse(p) => write!(f, "port {p} already bound"),
            NetError::Unreachable(p) => write!(f, "no endpoint bound at port {p}"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// One received datagram, with its source port and the wire-global
/// arrival sequence number (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Port of the sending endpoint.
    pub src: u64,
    /// Globally monotonic arrival stamp: sorting datagrams drained from
    /// *different* sockets by `seq` reconstructs wire order.
    pub seq: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Selector for the wire backend a scenario or benchmark builds its
/// transport from — one name per [`Transport`] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The deterministic in-process wire ([`VirtualWire`]).
    #[default]
    Virtual,
    /// Real loopback UDP sockets ([`OsWire`]).
    OsSocket,
}

impl TransportKind {
    /// Short name, equal to [`Transport::backend`] of the constructed
    /// wire.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Virtual => "virtual",
            TransportKind::OsSocket => "os-socket",
        }
    }
}

/// The per-socket operations a wire backend provides — the seam between
/// the reactor layer and the transport that actually moves bytes.
///
/// The bulk pair is shaped like `sendmmsg`/`recvmmsg`: one call moves a
/// whole batch, and the contract is **exactly** equivalent to the
/// corresponding sequence of single-datagram calls (same datagrams, same
/// order, same stamps), so every parity proof over the single-datagram
/// path transfers to the bulk path unchanged.
pub trait WireEndpoint: Send + Sync + std::fmt::Debug {
    /// The port this endpoint is bound to.
    fn port(&self) -> u64;

    /// Sends one datagram to the endpoint bound at `dst`, stamped with
    /// the wire-global sequence number.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] if no endpoint is bound at `dst`;
    /// [`NetError::Io`] on OS-socket failures.
    fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError>;

    /// Bulk send (`sendmmsg` shape): ships the payloads to `dst` in
    /// order, removing each sent payload from the front of `payloads`.
    /// Returns the number sent. A **partial send** (the OS socket
    /// would block mid-batch) leaves the unsent tail in `payloads` for
    /// the caller to retry — nothing is silently dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] if no endpoint is bound at `dst` (no
    /// payloads consumed); [`NetError::Io`] on hard OS-socket failures.
    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError>;

    /// Receives one datagram without blocking: `None` is the
    /// `EWOULDBLOCK` analogue.
    fn try_recv(&self) -> Option<Datagram>;

    /// Bulk receive (`recvmmsg` shape): appends up to `max` waiting
    /// datagrams to `out` in queue order and returns how many were
    /// taken. A short count means the socket is dry.
    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize;

    /// Whether a datagram is waiting (level-triggered readiness).
    fn readable(&self) -> bool;

    /// Queue depth: datagrams received by the wire but not yet drained.
    ///
    /// **Known limitation.** The OS backend cannot see the kernel's queue
    /// depth: [`OsWire`] endpoints answer `usize::from(self.readable())`
    /// — one `peek_from` syscall returning `1` when anything is queued,
    /// `0` otherwise. Everything the server's control plane derives from
    /// this value therefore counts readable *sockets*, not queued
    /// datagrams, over the only real transport: the front-end's
    /// `backlog()`, the per-group demand EWMAs behind the remap and
    /// resize laws (`RESIZE_TARGET_DEMAND` is calibrated in datagrams),
    /// and the demand-proportional split in `plan_budgets`. Outcomes are
    /// unaffected (the controller only moves scheduling; the
    /// controller-on OS-socket parity grid in `tests/bulk_ingress.rs`
    /// pins that), but a deep queue behind one socket looks no hotter
    /// than a single waiting datagram.
    fn pending(&self) -> usize;
}

/// A pluggable wire: anything that can bind ports and hand out
/// [`UdpEndpoint`]s. [`VirtualWire`] is the deterministic default;
/// [`OsWire`] binds real loopback UDP sockets behind the same API.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Binds `port`, returning its endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the port is already bound on this
    /// wire; [`NetError::Io`] if the backend cannot create a socket.
    fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError>;

    /// Binds `port` with socket-cost metering: sends and receives on the
    /// returned endpoint charge [`CostModel`] socket costs to `meter`.
    ///
    /// # Errors
    ///
    /// See [`Transport::bind`].
    fn bind_metered(
        &self,
        port: u64,
        meter: CycleMeter,
        cost: &CostModel,
    ) -> Result<UdpEndpoint, NetError> {
        let ep = self.bind(port)?;
        Ok(ep.metered(meter, cost))
    }

    /// Short backend name for logs and bench labels.
    fn backend(&self) -> &'static str;
}

/// Receive queue of one bound port.
#[derive(Debug, Default)]
struct PortQueue {
    queue: VecDeque<Datagram>,
}

#[derive(Debug, Default)]
struct WireState {
    ports: HashMap<u64, Arc<Mutex<PortQueue>>>,
    next_seq: u64,
}

/// Binds `port` on an in-process wire, creating its receive queue.
fn bind_port(state: &Mutex<WireState>, port: u64) -> Result<Arc<Mutex<PortQueue>>, NetError> {
    let mut state = state.lock().expect("wire lock");
    if state.ports.contains_key(&port) {
        return Err(NetError::AddrInUse(port));
    }
    let queue = Arc::new(Mutex::new(PortQueue::default()));
    state.ports.insert(port, queue.clone());
    Ok(queue)
}

/// Locks an in-process wire and resolves the destination port queue —
/// in that order. Stamping and enqueueing under ONE wire-lock
/// acquisition is the bulk path's whole point, and also what keeps the
/// per-port FIFO-by-`seq` invariant: releasing the wire lock between
/// stamp and enqueue would let a concurrent sender win the port-queue
/// lock with a later stamp. (`try_recv` takes only the port lock, so
/// receivers never deadlock against senders.)
fn lock_wire_dst<'a>(
    state: &'a Mutex<WireState>,
    dst: u64,
) -> Result<(std::sync::MutexGuard<'a, WireState>, Arc<Mutex<PortQueue>>), NetError> {
    let state = state.lock().expect("wire lock");
    let queue = state
        .ports
        .get(&dst)
        .ok_or(NetError::Unreachable(dst))?
        .clone();
    Ok((state, queue))
}

/// Stamps one payload with the wire-global sequence number and enqueues
/// it at `dst`.
fn stamp_enqueue_one(
    state: &Mutex<WireState>,
    src: u64,
    dst: u64,
    payload: Vec<u8>,
) -> Result<(), NetError> {
    let (mut state, queue) = lock_wire_dst(state, dst)?;
    let seq = state.next_seq;
    state.next_seq += 1;
    queue
        .lock()
        .expect("port lock")
        .queue
        .push_back(Datagram { src, seq, payload });
    Ok(())
}

/// Stamps `payloads` with consecutive wire-global sequence numbers and
/// enqueues them at `dst`. In-process wires never block, so a bulk send
/// is all-or-nothing — success consumes everything, Unreachable consumes
/// nothing (the lookup happens before the drain, so a failed send leaves
/// the caller's batch intact for error reporting or retry).
fn stamp_enqueue_batch(
    state: &Mutex<WireState>,
    src: u64,
    dst: u64,
    payloads: &mut Vec<Vec<u8>>,
) -> Result<usize, NetError> {
    let (mut state, queue) = lock_wire_dst(state, dst)?;
    let mut port = queue.lock().expect("port lock");
    let n = payloads.len();
    for payload in payloads.drain(..) {
        let seq = state.next_seq;
        state.next_seq += 1;
        port.queue.push_back(Datagram { src, seq, payload });
    }
    Ok(n)
}

/// The in-process wire: a registry of bound ports with global arrival
/// stamping. Cloning is cheap and clones share the wire.
#[derive(Debug, Clone, Default)]
pub struct VirtualWire {
    state: Arc<Mutex<WireState>>,
}

impl VirtualWire {
    /// A fresh, empty wire.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `port`, returning its endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the port is already bound.
    pub fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError> {
        let queue = bind_port(&self.state, port)?;
        Ok(UdpEndpoint {
            inner: Arc::new(VirtualEndpoint {
                wire: self.clone(),
                port,
                queue,
            }),
            metering: None,
        })
    }

    /// Binds `port` with socket-cost metering: sends and receives on the
    /// returned endpoint charge [`CostModel`] socket costs to `meter`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the port is already bound.
    pub fn bind_metered(
        &self,
        port: u64,
        meter: CycleMeter,
        cost: &CostModel,
    ) -> Result<UdpEndpoint, NetError> {
        Ok(self.bind(port)?.metered(meter, cost))
    }
}

impl Transport for VirtualWire {
    fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError> {
        VirtualWire::bind(self, port)
    }

    fn backend(&self) -> &'static str {
        "virtual"
    }
}

/// The virtual-wire implementation of [`WireEndpoint`].
#[derive(Clone)]
struct VirtualEndpoint {
    wire: VirtualWire,
    port: u64,
    queue: Arc<Mutex<PortQueue>>,
}

impl std::fmt::Debug for VirtualEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualEndpoint")
            .field("port", &self.port)
            .field("pending", &self.pending())
            .finish()
    }
}

impl WireEndpoint for VirtualEndpoint {
    fn port(&self) -> u64 {
        self.port
    }

    fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError> {
        stamp_enqueue_one(&self.wire.state, self.port, dst, payload)
    }

    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        stamp_enqueue_batch(&self.wire.state, self.port, dst, payloads)
    }

    fn try_recv(&self) -> Option<Datagram> {
        self.queue.lock().expect("port lock").queue.pop_front()
    }

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        let mut q = self.queue.lock().expect("port lock");
        let take = max.min(q.queue.len());
        out.extend(q.queue.drain(..take));
        take
    }

    fn readable(&self) -> bool {
        !self.queue.lock().expect("port lock").queue.is_empty()
    }

    fn pending(&self) -> usize {
        self.queue.lock().expect("port lock").queue.len()
    }
}

/// Wire-header length of the OS backend: `[seq: u64 BE][src port: u64
/// BE]` prepended to every datagram so the stamp and source survive the
/// kernel round-trip.
pub const OS_WIRE_HEADER_LEN: usize = 16;

/// Largest datagram the OS backend receives (wire header + the biggest
/// fragment the VPN layer emits, with headroom).
const OS_MAX_DATAGRAM: usize = 16 * 1024;

#[derive(Debug, Default)]
struct OsRegistry {
    /// Wire port → the socket's loopback address.
    by_port: HashMap<u64, std::net::SocketAddr>,
}

/// The OS-socket backend: every bound wire port is a real non-blocking
/// `std::net::UdpSocket` on `127.0.0.1`, mapped through a wire-shared
/// port registry. Stamps are assigned at send time from a wire-shared
/// counter and carried in a [`OS_WIRE_HEADER_LEN`]-byte header, so the
/// re-merge-by-`seq` ordering contract matches [`VirtualWire`] exactly.
///
/// Receive buffers are drawn from the wire's [`BufferPool`] and handed
/// to the caller as the datagram payload (header stripped in place) —
/// zero additional user-space copies, no per-datagram allocation once
/// the pool is warm. Callers return finished payloads via
/// [`OsWire::pool`] to keep the loop allocation-free;
/// [`OsWire::pool_stats`] reconciles what was handed out against what
/// came back.
///
/// Cloning is cheap and clones share the wire (registry, stamp counter
/// and pool).
#[derive(Debug, Clone, Default)]
pub struct OsWire {
    registry: Arc<Mutex<OsRegistry>>,
    next_seq: Arc<AtomicU64>,
    pool: BufferPool,
}

impl OsWire {
    /// A fresh wire with an empty port registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this environment can bind loopback UDP sockets at all —
    /// lets tests skip gracefully in network-less sandboxes.
    pub fn available() -> bool {
        std::net::UdpSocket::bind(("127.0.0.1", 0)).is_ok()
    }

    /// The receive-buffer pool (return drained payloads here to keep the
    /// ingress loop allocation-free).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Recycling counters of the receive/egress buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl Transport for OsWire {
    fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError> {
        let mut reg = self.registry.lock().expect("registry lock");
        if reg.by_port.contains_key(&port) {
            return Err(NetError::AddrInUse(port));
        }
        let socket =
            std::net::UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| NetError::Io(e.to_string()))?;
        socket
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        let addr = socket
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;
        reg.by_port.insert(port, addr);
        Ok(UdpEndpoint {
            inner: Arc::new(OsEndpoint {
                socket,
                port,
                wire: self.clone(),
            }),
            metering: None,
        })
    }

    fn backend(&self) -> &'static str {
        "os-socket"
    }
}

/// The OS-socket implementation of [`WireEndpoint`].
struct OsEndpoint {
    socket: std::net::UdpSocket,
    port: u64,
    wire: OsWire,
}

impl std::fmt::Debug for OsEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsEndpoint")
            .field("port", &self.port)
            .field("addr", &self.socket.local_addr().ok())
            .finish()
    }
}

impl OsEndpoint {
    fn lookup(&self, dst: u64) -> Result<std::net::SocketAddr, NetError> {
        self.wire
            .registry
            .lock()
            .expect("registry lock")
            .by_port
            .get(&dst)
            .copied()
            .ok_or(NetError::Unreachable(dst))
    }

    /// Frames `payload` into a pooled buffer, stamps it and ships it.
    /// `Ok(false)` means the socket would block (payload untouched in
    /// the frame buffer is discarded back to the pool; caller retries).
    fn send_framed(&self, addr: std::net::SocketAddr, payload: &[u8]) -> Result<bool, NetError> {
        let mut frame = self.wire.pool.take(OS_WIRE_HEADER_LEN + payload.len());
        let seq = self.wire.next_seq.fetch_add(1, Ordering::Relaxed);
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&self.port.to_be_bytes());
        frame.extend_from_slice(payload);
        let result = self.socket.send_to(&frame, addr);
        self.wire.pool.give(frame);
        match result {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }
}

impl WireEndpoint for OsEndpoint {
    fn port(&self) -> u64 {
        self.port
    }

    fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError> {
        let addr = self.lookup(dst)?;
        // UDP sends on loopback practically never block; spin a few
        // times before surfacing the condition as an error.
        for _ in 0..64 {
            if self.send_framed(addr, &payload)? {
                return Ok(());
            }
            std::thread::yield_now();
        }
        Err(NetError::Io("send would block".into()))
    }

    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let addr = self.lookup(dst)?;
        let mut sent = 0;
        while sent < payloads.len() {
            if !self.send_framed(addr, &payloads[sent])? {
                break; // partial send: tail stays with the caller
            }
            sent += 1;
        }
        payloads.drain(..sent);
        Ok(sent)
    }

    fn try_recv(&self) -> Option<Datagram> {
        let mut out = Vec::with_capacity(1);
        self.recv_many(1, &mut out);
        out.pop()
    }

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        let mut taken = 0;
        while taken < max {
            let mut buf = self.wire.pool.take(OS_MAX_DATAGRAM);
            buf.resize(OS_MAX_DATAGRAM, 0);
            match self.socket.recv_from(&mut buf) {
                Ok((n, _)) if n >= OS_WIRE_HEADER_LEN => {
                    buf.truncate(n);
                    let seq = u64::from_be_bytes(buf[0..8].try_into().expect("8 bytes"));
                    let src = u64::from_be_bytes(buf[8..16].try_into().expect("8 bytes"));
                    // Strip the header in place: the pooled buffer itself
                    // becomes the payload (no second copy, no fresh
                    // allocation).
                    buf.drain(..OS_WIRE_HEADER_LEN);
                    out.push(Datagram {
                        src,
                        seq,
                        payload: buf,
                    });
                    taken += 1;
                }
                Ok(_) => {
                    // Runt frame (not ours): drop it, recycle the buffer.
                    self.wire.pool.give(buf);
                }
                Err(_) => {
                    // WouldBlock or transient error: the socket is dry.
                    self.wire.pool.give(buf);
                    break;
                }
            }
        }
        taken
    }

    fn readable(&self) -> bool {
        let mut probe = [0u8; 1];
        self.socket.peek_from(&mut probe).is_ok()
    }

    fn pending(&self) -> usize {
        usize::from(self.readable())
    }
}

/// A fault-injecting [`Transport`] decorator: forces scheduled bulk
/// `send_many` calls on its endpoints to return **short** — at most the
/// scheduled cap is sent, the unsent tail stays at the front of the
/// caller's vector — exercising the partial-send retry paths
/// (`FramedSender::forward`'s bounded-stall loop, `TxBatcher`'s
/// tail-in-place reflush) on any backend, including the in-process ones
/// that never block on their own.
///
/// Caps are consumed in FIFO order, one per bulk call, wire-wide; calls
/// with no scheduled cap (and all `send_to` singles) pass through
/// untouched.
#[derive(Debug, Clone)]
pub struct ShortSendWire {
    inner: Arc<dyn Transport>,
    caps: Arc<Mutex<VecDeque<usize>>>,
}

impl ShortSendWire {
    /// Decorates `inner` with an empty fault schedule.
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        ShortSendWire {
            inner,
            caps: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Schedules a short return: the next bulk send anywhere on the
    /// wire ships at most `cap` datagrams (zero caps force a full
    /// stall).
    pub fn push_short_send(&self, cap: usize) {
        self.caps.lock().expect("fault lock").push_back(cap);
    }

    /// Scheduled faults not yet consumed.
    pub fn pending_faults(&self) -> usize {
        self.caps.lock().expect("fault lock").len()
    }
}

impl Transport for ShortSendWire {
    fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError> {
        let ep = self.inner.bind(port)?;
        Ok(UdpEndpoint {
            inner: Arc::new(ShortSendEndpoint {
                inner: ep.inner,
                caps: self.caps.clone(),
            }),
            metering: None,
        })
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
}

/// The fault-injecting endpoint wrapper of [`ShortSendWire`].
struct ShortSendEndpoint {
    inner: Arc<dyn WireEndpoint>,
    caps: Arc<Mutex<VecDeque<usize>>>,
}

impl std::fmt::Debug for ShortSendEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShortSendEndpoint")
            .field("inner", &self.inner)
            .finish()
    }
}

impl WireEndpoint for ShortSendEndpoint {
    fn port(&self) -> u64 {
        self.inner.port()
    }

    fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.send_to(dst, payload)
    }

    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let cap = self.caps.lock().expect("fault lock").pop_front();
        let Some(cap) = cap else {
            return self.inner.send_many(dst, payloads);
        };
        // Ship only the capped head through the real backend; whatever
        // it leaves unsent (or everything, on error) is spliced back in
        // front so the caller's tail-in-place contract holds exactly.
        let take = cap.min(payloads.len());
        let mut head: Vec<Vec<u8>> = payloads.drain(..take).collect();
        let result = self.inner.send_many(dst, &mut head);
        for (i, p) in head.drain(..).enumerate() {
            payloads.insert(i, p);
        }
        result
    }

    fn try_recv(&self) -> Option<Datagram> {
        self.inner.try_recv()
    }

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        self.inner.recv_many(max, out)
    }

    fn readable(&self) -> bool {
        self.inner.readable()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A bound, non-blocking endpoint over a pluggable [`Transport`]
/// backend. Cloning is cheap; clones share the receive queue (like
/// `dup`ed file descriptors).
#[derive(Clone)]
pub struct UdpEndpoint {
    inner: Arc<dyn WireEndpoint>,
    metering: Option<Arc<(CycleMeter, CostModel)>>,
}

impl std::fmt::Debug for UdpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpEndpoint")
            .field("port", &self.inner.port())
            .field("pending", &self.inner.pending())
            .finish()
    }
}

impl UdpEndpoint {
    /// Attaches socket-cost metering to this handle (shared queue, new
    /// handle).
    fn metered(mut self, meter: CycleMeter, cost: &CostModel) -> UdpEndpoint {
        self.metering = Some(Arc::new((meter, cost.clone())));
        self
    }

    /// The port this endpoint is bound to.
    pub fn port(&self) -> u64 {
        self.inner.port()
    }

    fn charge_send(&self, n: usize, bytes: usize) {
        if let Some(m) = &self.metering {
            let (meter, cost) = &**m;
            meter.add(
                cost.socket_send_fixed * n as u64 + (cost.socket_per_byte * bytes as f64) as u64,
            );
        }
    }

    fn charge_recv(&self, n: usize, bytes: usize) {
        if let Some(m) = &self.metering {
            let (meter, cost) = &**m;
            meter.add(
                cost.socket_recv_fixed * n as u64 + (cost.socket_per_byte * bytes as f64) as u64,
            );
        }
    }

    /// Sends one datagram to the endpoint bound at `dst`. The datagram is
    /// stamped with the wire-global arrival sequence number.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] if no endpoint is bound at `dst`;
    /// [`NetError::Io`] on OS-socket failures.
    pub fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError> {
        self.charge_send(1, payload.len());
        self.inner.send_to(dst, payload)
    }

    /// Bulk send (`sendmmsg` shape): ships the payloads to `dst` in
    /// order with **one** backend call, draining the sent prefix from
    /// `payloads`. Returns the number sent; a partial send (OS socket
    /// backpressure) leaves the unsent tail in `payloads` for retry.
    ///
    /// Metering charges the same per-datagram socket costs as N single
    /// sends — the per-call syscall saving is the timing layer's to
    /// price ([`crate::pipeline::SyscallBatchModel`]).
    ///
    /// # Errors
    ///
    /// See [`WireEndpoint::send_many`].
    pub fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let before_bytes: usize = payloads.iter().map(Vec::len).sum();
        let before_len = payloads.len();
        let result = self.inner.send_many(dst, payloads);
        if let Ok(sent) = &result {
            let after_bytes: usize = payloads.iter().map(Vec::len).sum();
            debug_assert_eq!(before_len - payloads.len(), *sent);
            self.charge_send(*sent, before_bytes - after_bytes);
        }
        result
    }

    /// Receives one datagram without blocking: `None` is the
    /// `EWOULDBLOCK` analogue.
    pub fn try_recv(&self) -> Option<Datagram> {
        let d = self.inner.try_recv()?;
        self.charge_recv(1, d.payload.len());
        Some(d)
    }

    /// Bulk receive (`recvmmsg` shape): appends up to `max` waiting
    /// datagrams to `out` in queue order with **one** backend call.
    /// Returns how many were taken; a short count means the socket is
    /// dry. Datagram payloads move by ownership (virtual backend) or
    /// arrive in pool-recycled buffers (OS backend) — no copies either
    /// way.
    pub fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        let start = out.len();
        let n = self.inner.recv_many(max, out);
        let bytes: usize = out[start..].iter().map(|d| d.payload.len()).sum();
        self.charge_recv(n, bytes);
        n
    }

    /// Whether a datagram is waiting (level-triggered readiness).
    pub fn readable(&self) -> bool {
        self.inner.readable()
    }

    /// Queue depth: datagrams received by the wire but not yet drained
    /// (the OS backend reports at most 1 — kernel queue depth is not
    /// observable).
    pub fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// Caller-chosen identifier for a registered endpoint, echoed back in
/// [`Event`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// One readiness event: the endpoint registered under `token` has at
/// least one datagram waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Token supplied at registration.
    pub token: Token,
}

/// A level-triggered readiness poller over registered endpoints — the
/// `epoll`/`mio::Poll` analogue of the socket layer.
///
/// [`PollGroup::poll`] scans registered endpoints **in registration
/// order** and reports every readable one, so readiness is deterministic
/// given the send history. The poller counts wakeups
/// ([`PollGroup::wakeups`]): the event-driven front-end's amortisation —
/// how many datagrams each wakeup drains — is the measured input to the
/// timing-layer event-loop charge
/// ([`crate::pipeline::AsyncFrontEndModel`]).
///
/// Registration and deregistration are **O(1) amortised**: slots are
/// appended in registration order and indexed by token, deregistration
/// tombstones the slot, and the slot list compacts (order-preserving)
/// once tombstones outnumber live entries — a churning peer population
/// costs constant work per register/deregister instead of a linear scan.
#[derive(Debug, Default)]
pub struct PollGroup {
    /// Registration-ordered slots; `None` marks a deregistered entry
    /// awaiting compaction.
    entries: Vec<Option<(Token, UdpEndpoint)>>,
    /// Token → slot indices into `entries` (one token may cover several
    /// registrations).
    index: HashMap<Token, Vec<usize>>,
    live: usize,
    wakeups: u64,
}

/// [`PollGroup`] compaction threshold: slot lists of at most this many
/// entries are scanned as-is rather than compacted.
const COMPACT_MIN_ENTRIES: usize = 16;

impl PollGroup {
    /// An empty poll group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `endpoint` under `token` (readable interest — the only
    /// interest these endpoints have: sends never block for long).
    pub fn register(&mut self, endpoint: &UdpEndpoint, token: Token) {
        let slot = self.entries.len();
        self.entries.push(Some((token, endpoint.clone())));
        self.index.entry(token).or_default().push(slot);
        self.live += 1;
    }

    /// Deregisters every endpoint registered under `token` (O(1)
    /// amortised: tombstone + occasional order-preserving compaction).
    pub fn deregister(&mut self, token: Token) {
        let Some(slots) = self.index.remove(&token) else {
            return;
        };
        for slot in slots {
            if self.entries[slot].take().is_some() {
                self.live -= 1;
            }
        }
        // Compact once tombstones dominate, preserving registration
        // order; amortised O(1) per deregistration.
        if self.entries.len() > COMPACT_MIN_ENTRIES && self.live * 2 < self.entries.len() {
            self.entries.retain(Option::is_some);
            self.index.clear();
            for (slot, entry) in self.entries.iter().enumerate() {
                let (token, _) = entry.as_ref().expect("compacted");
                self.index.entry(*token).or_default().push(slot);
            }
        }
    }

    /// Registered endpoint count.
    pub fn registered(&self) -> usize {
        self.live
    }

    /// Scans the registered endpoints and appends one [`Event`] per
    /// readable endpoint (level-triggered; registration order). Returns
    /// the number of events found. Counts one wakeup.
    pub fn poll(&mut self, events: &mut Vec<Event>) -> usize {
        self.wakeups += 1;
        let before = events.len();
        for (token, ep) in self.entries.iter().flatten() {
            if ep.readable() {
                events.push(Event { token: *token });
            }
        }
        events.len() - before
    }

    /// Times [`PollGroup::poll`] was called.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_send_recv_roundtrip() {
        let wire = VirtualWire::new();
        let a = wire.bind(1).unwrap();
        let b = wire.bind(2).unwrap();
        assert_eq!(wire.bind(1).err(), Some(NetError::AddrInUse(1)));
        a.send_to(2, b"hello".to_vec()).unwrap();
        assert!(b.readable());
        let d = b.try_recv().unwrap();
        assert_eq!(d.src, 1);
        assert_eq!(d.payload, b"hello");
        assert!(!b.readable());
        assert_eq!(b.try_recv(), None);
        assert_eq!(a.send_to(99, vec![]), Err(NetError::Unreachable(99)));
    }

    #[test]
    fn sequence_numbers_reconstruct_wire_order() {
        let wire = VirtualWire::new();
        let tx = wire.bind(10).unwrap();
        let r1 = wire.bind(11).unwrap();
        let r2 = wire.bind(12).unwrap();
        tx.send_to(11, vec![1]).unwrap();
        tx.send_to(12, vec![2]).unwrap();
        tx.send_to(11, vec![3]).unwrap();
        let mut drained = [
            r2.try_recv().unwrap(),
            r1.try_recv().unwrap(),
            r1.try_recv().unwrap(),
        ];
        drained.sort_by_key(|d| d.seq);
        let payloads: Vec<u8> = drained.iter().map(|d| d.payload[0]).collect();
        assert_eq!(payloads, vec![1, 2, 3], "seq sort == wire send order");
    }

    #[test]
    fn bulk_send_many_matches_single_sends() {
        // Two wires, same traffic: one bulk call vs N singles must
        // produce identical queues (stamps, order, payloads).
        let bulk_wire = VirtualWire::new();
        let single_wire = VirtualWire::new();
        let (btx, brx) = (bulk_wire.bind(1).unwrap(), bulk_wire.bind(2).unwrap());
        let (stx, srx) = (single_wire.bind(1).unwrap(), single_wire.bind(2).unwrap());
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3]).collect();
        let mut batch = payloads.clone();
        assert_eq!(btx.send_many(2, &mut batch).unwrap(), 5);
        assert!(batch.is_empty(), "virtual bulk send consumes everything");
        for p in payloads {
            stx.send_to(2, p).unwrap();
        }
        let mut bulk_got = Vec::new();
        assert_eq!(brx.recv_many(16, &mut bulk_got), 5);
        let mut single_got = Vec::new();
        while let Some(d) = srx.try_recv() {
            single_got.push(d);
        }
        assert_eq!(bulk_got, single_got, "bulk path == single path");
    }

    #[test]
    fn send_many_to_unbound_port_consumes_nothing() {
        let wire = VirtualWire::new();
        let tx = wire.bind(1).unwrap();
        let mut batch = vec![vec![1u8], vec![2u8]];
        assert_eq!(tx.send_many(9, &mut batch), Err(NetError::Unreachable(9)));
        assert_eq!(batch.len(), 2, "failed bulk send keeps the payloads");
    }

    #[test]
    fn recv_many_respects_max_and_preserves_order() {
        let wire = VirtualWire::new();
        let tx = wire.bind(1).unwrap();
        let rx = wire.bind(2).unwrap();
        for i in 0..7u8 {
            tx.send_to(2, vec![i]).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.recv_many(3, &mut out), 3);
        assert_eq!(rx.recv_many(100, &mut out), 4, "short count == dry");
        assert_eq!(rx.recv_many(1, &mut out), 0);
        let seen: Vec<u8> = out.iter().map(|d| d.payload[0]).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn poll_reports_readable_endpoints_in_registration_order() {
        let wire = VirtualWire::new();
        let tx = wire.bind(1).unwrap();
        let a = wire.bind(2).unwrap();
        let b = wire.bind(3).unwrap();
        let mut poll = PollGroup::new();
        poll.register(&a, Token(0));
        poll.register(&b, Token(1));
        let mut events = Vec::new();
        assert_eq!(poll.poll(&mut events), 0);
        tx.send_to(3, vec![9]).unwrap();
        tx.send_to(2, vec![8]).unwrap();
        events.clear();
        assert_eq!(poll.poll(&mut events), 2);
        assert_eq!(
            events[0].token,
            Token(0),
            "registration order, not send order"
        );
        assert_eq!(events[1].token, Token(1));
        // Level-triggered: still readable until drained.
        events.clear();
        assert_eq!(poll.poll(&mut events), 2);
        a.try_recv().unwrap();
        b.try_recv().unwrap();
        events.clear();
        assert_eq!(poll.poll(&mut events), 0);
        assert_eq!(poll.wakeups(), 4);
    }

    /// 10k sockets of register/deregister churn must complete promptly
    /// (the old linear `retain` made this quadratic) and leave a group
    /// that polls exactly like one freshly built from the survivors.
    #[test]
    fn poll_group_churn_is_fast_and_matches_a_fresh_group() {
        const N: usize = 10_000;
        let wire = VirtualWire::new();
        let tx = wire.bind(u64::MAX).unwrap();
        let endpoints: Vec<UdpEndpoint> = (0..N as u64).map(|p| wire.bind(p).unwrap()).collect();
        let mut poll = PollGroup::new();
        let started = std::time::Instant::now();
        for (i, ep) in endpoints.iter().enumerate() {
            poll.register(ep, Token(i));
        }
        assert_eq!(poll.registered(), N);
        // Deregister every even token, then every third odd one, and
        // register the evens again behind the surviving odds.
        for i in (0..N).step_by(2) {
            poll.deregister(Token(i));
        }
        assert_eq!(poll.registered(), N / 2);
        for i in (1..N).step_by(6) {
            poll.deregister(Token(i));
        }
        for i in (0..N).step_by(2) {
            poll.register(&endpoints[i], Token(i));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "10k-socket churn took {elapsed:?} — register/deregister has regressed \
             from O(1) amortised"
        );
        // The same live sockets, registered once in the order they
        // survived in: odds not of the form 6k+1, then the evens.
        let mut fresh = PollGroup::new();
        let survivors = (1..N).step_by(2).filter(|i| i % 6 != 1);
        for i in survivors.chain((0..N).step_by(2)) {
            fresh.register(&endpoints[i], Token(i));
        }
        assert_eq!(poll.registered(), fresh.registered());
        // Readable: a surviving odd, a re-registered even, a removed odd.
        for port in [9_999, 4, 3, 7, 8] {
            tx.send_to(port, vec![1]).unwrap();
        }
        let (mut churned, mut built) = (Vec::new(), Vec::new());
        assert_eq!(poll.poll(&mut churned), 4);
        fresh.poll(&mut built);
        assert_eq!(churned, built, "churn must not change what a poll reports");
        let tokens: Vec<usize> = churned.iter().map(|e| e.token.0).collect();
        assert_eq!(tokens, vec![3, 9_999, 4, 8], "registration order preserved");
    }

    #[test]
    fn deregister_survives_compaction_and_reregistration() {
        let wire = VirtualWire::new();
        let eps: Vec<UdpEndpoint> = (0..64u64).map(|p| wire.bind(p).unwrap()).collect();
        let mut poll = PollGroup::new();
        for (i, ep) in eps.iter().enumerate() {
            poll.register(ep, Token(i));
        }
        // Trigger compaction (tombstones dominate).
        for i in 0..48 {
            poll.deregister(Token(i));
        }
        assert_eq!(poll.registered(), 16);
        // Deregister *after* compaction must still resolve slots.
        poll.deregister(Token(50));
        assert_eq!(poll.registered(), 15);
        poll.deregister(Token(50)); // idempotent
        assert_eq!(poll.registered(), 15);
        let tx = wire.bind(u64::MAX).unwrap();
        tx.send_to(63, vec![1]).unwrap();
        let mut events = Vec::new();
        assert_eq!(poll.poll(&mut events), 1);
        assert_eq!(events[0].token, Token(63));
    }

    #[test]
    fn metered_endpoints_charge_socket_costs() {
        let wire = VirtualWire::new();
        let cost = CostModel::calibrated();
        let meter = CycleMeter::new();
        let tx = wire.bind(1).unwrap();
        let rx = wire.bind_metered(2, meter.clone(), &cost).unwrap();
        tx.send_to(2, vec![0u8; 100]).unwrap();
        assert_eq!(meter.read(), 0, "unmetered sender, undrained receiver");
        rx.try_recv().unwrap();
        let expected = cost.socket_recv_fixed + (cost.socket_per_byte * 100.0) as u64;
        assert_eq!(meter.take(), expected);
    }

    #[test]
    fn bulk_metering_matches_single_metering() {
        // One measured charge must replay identically under every bulk
        // size: bulk calls charge exactly N× the single-datagram cost.
        let cost = CostModel::calibrated();
        let wire = VirtualWire::new();
        let meter_bulk = CycleMeter::new();
        let meter_single = CycleMeter::new();
        let tx = wire.bind(1).unwrap();
        let rx_bulk = wire.bind_metered(2, meter_bulk.clone(), &cost).unwrap();
        let rx_single = wire.bind_metered(3, meter_single.clone(), &cost).unwrap();
        for i in 0..6u8 {
            tx.send_to(2, vec![i; 50]).unwrap();
            tx.send_to(3, vec![i; 50]).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx_bulk.recv_many(6, &mut out), 6);
        while rx_single.try_recv().is_some() {}
        assert_eq!(meter_bulk.take(), meter_single.take());

        let meter_tx = CycleMeter::new();
        let tx_metered = wire.bind_metered(10, meter_tx.clone(), &cost).unwrap();
        let mut batch: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 25]).collect();
        tx_metered.send_many(2, &mut batch).unwrap();
        let expected = cost.socket_send_fixed * 4 + (cost.socket_per_byte * 100.0) as u64;
        assert_eq!(meter_tx.take(), expected);
    }

    #[test]
    fn os_wire_roundtrips_with_stamps_when_available() {
        if !OsWire::available() {
            eprintln!("skipping: loopback sockets unavailable in this environment");
            return;
        }
        let wire = OsWire::new();
        let a = Transport::bind(&wire, 1).unwrap();
        let b = Transport::bind(&wire, 2).unwrap();
        assert_eq!(
            Transport::bind(&wire, 1).err(),
            Some(NetError::AddrInUse(1))
        );
        assert_eq!(wire.backend(), "os-socket");
        a.send_to(2, b"over the kernel".to_vec()).unwrap();
        a.send_to(2, b"second".to_vec()).unwrap();
        // Loopback delivery is synchronous in practice but give the
        // kernel a moment to be safe.
        let mut got = Vec::new();
        for _ in 0..1_000 {
            b.recv_many(16, &mut got);
            if got.len() >= 2 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].src, 1);
        assert_eq!(got[0].payload, b"over the kernel");
        assert!(got[0].seq < got[1].seq, "stamps carry send order");
        assert_eq!(a.send_to(9, vec![1]), Err(NetError::Unreachable(9)));
        // Return payloads: the pool reconciles (every buffer handed out
        // for ingress came back or is accounted for).
        let held = got.len() as u64;
        for d in got {
            wire.pool().give(d.payload);
        }
        let stats = wire.pool_stats();
        assert_eq!(
            stats.handed_out(),
            stats.returned + stats.discarded,
            "pool reconciles after payload return: {stats:?} (held {held})"
        );
    }

    #[test]
    fn short_send_faults_leave_the_tail_in_place_in_order() {
        let wire = ShortSendWire::new(Arc::new(VirtualWire::new()));
        let tx = Transport::bind(&wire, 1).unwrap();
        let rx = Transport::bind(&wire, 2).unwrap();
        assert_eq!(wire.backend(), TransportKind::Virtual.name());

        wire.push_short_send(2);
        wire.push_short_send(0); // a full stall
        let mut batch: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i]).collect();
        assert_eq!(tx.send_many(2, &mut batch).unwrap(), 2);
        let tail: Vec<u8> = batch.iter().map(|p| p[0]).collect();
        assert_eq!(tail, vec![2, 3, 4], "unsent tail in place, in order");
        assert_eq!(tx.send_many(2, &mut batch).unwrap(), 0, "stalled");
        assert_eq!(batch.len(), 3);
        // Unfaulted retry drains the tail; the receiver sees the
        // original order with no duplicates.
        assert_eq!(tx.send_many(2, &mut batch).unwrap(), 3);
        assert_eq!(wire.pending_faults(), 0);
        let mut out = Vec::new();
        assert_eq!(rx.recv_many(16, &mut out), 5);
        let seen: Vec<u8> = out.iter().map(|d| d.payload[0]).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "no reorder, no dup");
    }
}

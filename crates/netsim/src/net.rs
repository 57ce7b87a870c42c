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
//! * [`WireEndpoint`] — the four per-socket calls a backend provides:
//!   its `port`, the **bulk** `send_many`/`recv_many` pair shaped like
//!   `sendmmsg`/`recvmmsg` (one call moves a whole batch; partial sends
//!   leave the unsent tail in the caller's vector) and the `pending`
//!   queue depth.
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
//!   any backend. Besides the bulk calls it owns the one bounded-stall
//!   send loop, [`UdpEndpoint::send_all`], and the single-datagram
//!   conveniences [`UdpEndpoint::send_to`], [`UdpEndpoint::try_recv`]
//!   (never blocks: `None` instead of `EWOULDBLOCK`) and
//!   [`UdpEndpoint::readable`], each a one-line wrapper over the bulk
//!   calls. Endpoints bound with [`Transport::bind_metered`] charge the
//!   calibrated socket costs
//!   ([`CostModel::socket_send_fixed`], [`CostModel::socket_recv_fixed`],
//!   [`CostModel::socket_per_byte`]) to a [`CycleMeter`], so socket I/O
//!   shows up in measured [`PacketCharge`](crate::pipeline::PacketCharge)s
//!   like every other layer. Bulk calls charge the **same per-datagram
//!   costs** as N single calls: the OS backend's bulk calls are loops of
//!   one `send_to`/`recv_from` per datagram, so a bulk call saves no
//!   kernel crossing and there is no per-call saving to price.
//! * [`PollGroup`] — a level-triggered readiness poller over registered
//!   endpoints. [`PollGroup::poll`] scans in registration order (no OS,
//!   no timing races: readiness is deterministic given the send order)
//!   and counts wakeups; the *cost* of a wakeup is modelled by the timing
//!   layer ([`crate::pipeline::AsyncFrontEndModel`]), not charged here,
//!   so the same functional run can be replayed under both the
//!   call-driven and the event-driven cost model.
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
use std::cell::RefCell;
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

/// The per-socket calls a wire backend provides — the seam between the
/// reactor layer and the transport that actually moves bytes. Only the
/// calls the datapath uses live here; the single-datagram conveniences
/// and the bounded-stall loop are written once, on [`UdpEndpoint`], over
/// these four.
///
/// The bulk pair is shaped like `sendmmsg`/`recvmmsg`: one call moves a
/// whole batch in order, with consecutive stamps, so a batch of one is
/// the single-datagram case.
pub trait WireEndpoint: Send + Sync + std::fmt::Debug {
    /// The port this endpoint is bound to.
    fn port(&self) -> u64;

    /// Bulk send (`sendmmsg` shape): ships the payloads to `dst` in
    /// order, each stamped with the wire-global sequence number, removing
    /// each sent payload from the front of `payloads`. Returns the number
    /// sent. A **partial send** (the OS socket would block mid-batch, or
    /// fails hard after shipping a prefix) leaves the unsent tail in
    /// `payloads` for the caller to retry — nothing is silently dropped
    /// and nothing sent stays behind to be sent twice.
    ///
    /// # Errors
    ///
    /// Only with nothing consumed: [`NetError::Unreachable`] if no
    /// endpoint is bound at `dst`; [`NetError::Io`] on a hard OS-socket
    /// failure of the first payload.
    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError>;

    /// Bulk receive (`recvmmsg` shape): appends up to `max` waiting
    /// datagrams to `out` in queue order and returns how many were
    /// taken. A short count means the socket is dry.
    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize;

    /// Queue depth: datagrams received by the wire but not yet drained;
    /// non-zero is level-triggered readiness.
    ///
    /// **Known limitation.** The OS backend cannot see the kernel's queue
    /// depth: [`OsWire`] endpoints answer one `peek_from` syscall,
    /// returning `1` when anything is queued, `0` otherwise. What the
    /// server derives from this value therefore counts readable
    /// *sockets*, not queued datagrams, over the only real transport:
    /// the front-end's `backlog()` and the demand EWMA behind the resize
    /// law (`RESIZE_TARGET_DEMAND` is calibrated in datagrams). Peer
    /// placement does not read it — the dispatch law reads the bytes the
    /// server routed — and a front-end without the resize law reads it
    /// per round only as readiness. Outcomes are unaffected (the
    /// laws only move scheduling; the OS-socket parity grid in
    /// `tests/bulk_ingress.rs` pins that), but a deep queue behind one
    /// socket looks no bigger than a single waiting datagram.
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
}

impl Transport for VirtualWire {
    fn bind(&self, port: u64) -> Result<UdpEndpoint, NetError> {
        let mut state = self.state.lock().expect("wire lock");
        if state.ports.contains_key(&port) {
            return Err(NetError::AddrInUse(port));
        }
        let queue = Arc::new(Mutex::new(PortQueue::default()));
        state.ports.insert(port, queue.clone());
        Ok(UdpEndpoint {
            inner: Arc::new(VirtualEndpoint {
                wire: self.clone(),
                port,
                queue,
            }),
            metering: None,
        })
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

    /// Stamps and enqueues under ONE wire-lock acquisition, which keeps
    /// the per-port FIFO-by-`seq` invariant: releasing the wire lock
    /// between stamp and enqueue would let a concurrent sender win the
    /// port-queue lock with a later stamp. (`recv_many` takes only the
    /// port lock, so receivers never deadlock against senders.) The
    /// in-process wire never blocks, so a send is all-or-nothing: the
    /// destination is resolved before the drain, and `Unreachable`
    /// leaves the caller's batch intact.
    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let mut state = self.wire.state.lock().expect("wire lock");
        let queue = state
            .ports
            .get(&dst)
            .ok_or(NetError::Unreachable(dst))?
            .clone();
        let mut port = queue.lock().expect("port lock");
        let n = payloads.len();
        for payload in payloads.drain(..) {
            let seq = state.next_seq;
            state.next_seq += 1;
            port.queue.push_back(Datagram {
                src: self.port,
                seq,
                payload,
            });
        }
        Ok(n)
    }

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        let mut q = self.queue.lock().expect("port lock");
        let take = max.min(q.queue.len());
        out.extend(q.queue.drain(..take));
        take
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

thread_local! {
    /// The OS backend's receive frame, one per thread (a per-endpoint
    /// frame would cost 16 KiB per socket): every `recv_from` lands
    /// here, zero-filled once, and only the payload is copied out.
    static OS_RECV_FRAME: RefCell<Box<[u8]>> =
        RefCell::new(vec![0; OS_MAX_DATAGRAM].into_boxed_slice());
}

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
/// Each datagram is received into a per-thread scratch frame, and its
/// payload is copied once into a buffer drawn from the wire's
/// [`BufferPool`] at the payload's size — no per-receive zero-fill, no
/// 16 KiB of capacity riding along with a small payload, and no
/// per-datagram allocation once the pool is warm. Callers return
/// finished payloads via [`OsWire::pool`] to keep the loop
/// allocation-free; [`OsWire::pool_stats`] reconciles what was handed
/// out against what came back.
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

    fn send_many(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let addr = self.lookup(dst)?;
        let mut sent = 0;
        while sent < payloads.len() {
            match self.send_framed(addr, &payloads[sent]) {
                Ok(true) => sent += 1,
                Err(e) if sent == 0 => return Err(e),
                // Would block, or a hard error after a shipped prefix:
                // either way a partial send. The prefix is drained (and
                // metered), the tail stays with the caller, and a hard
                // error meets the next call with nothing consumed.
                Ok(false) | Err(_) => break,
            }
        }
        payloads.drain(..sent);
        Ok(sent)
    }

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        OS_RECV_FRAME.with_borrow_mut(|frame| {
            let mut taken = 0;
            while taken < max {
                match self.socket.recv_from(frame) {
                    Ok((n, _)) if n >= OS_WIRE_HEADER_LEN => {
                        let seq = u64::from_be_bytes(frame[0..8].try_into().expect("8 bytes"));
                        let src = u64::from_be_bytes(frame[8..16].try_into().expect("8 bytes"));
                        let mut payload = self.wire.pool.take(n - OS_WIRE_HEADER_LEN);
                        payload.extend_from_slice(&frame[OS_WIRE_HEADER_LEN..n]);
                        out.push(Datagram { src, seq, payload });
                        taken += 1;
                    }
                    // Runt frame (not ours): skip it.
                    Ok(_) => {}
                    // WouldBlock or transient error: the socket is dry.
                    Err(_) => break,
                }
            }
            taken
        })
    }

    fn pending(&self) -> usize {
        let mut probe = [0u8; 1];
        usize::from(self.socket.peek_from(&mut probe).is_ok())
    }
}

/// A fault-injecting [`Transport`] decorator: forces scheduled
/// `send_many` calls on its endpoints to return **short** — at most the
/// scheduled cap is sent, the unsent tail stays at the front of the
/// caller's vector — exercising the partial-send retry paths
/// ([`UdpEndpoint::send_all`]'s bounded-stall loop) on any backend,
/// including the in-process one that never blocks on its own.
///
/// Caps are consumed in FIFO order, one per backend `send_many` call,
/// wire-wide. Every send reaches the backend as a `send_many`, so a
/// single-datagram [`UdpEndpoint::send_to`] consumes a cap too; calls
/// with no scheduled cap pass through untouched.
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

    fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        self.inner.recv_many(max, out)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// Partial sends [`UdpEndpoint::send_all`] retries before it gives up on
/// a batch (each retry first yields the thread so the kernel can drain
/// the socket).
pub const MAX_SEND_STALLS: usize = 64;

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

    /// Sends one datagram to the endpoint bound at `dst`:
    /// [`UdpEndpoint::send_all`] of a batch of one.
    ///
    /// # Errors
    ///
    /// See [`UdpEndpoint::send_all`].
    pub fn send_to(&self, dst: u64, payload: Vec<u8>) -> Result<(), NetError> {
        self.send_all(dst, &mut vec![payload]).map(drop)
    }

    /// Bulk send (`sendmmsg` shape): ships the payloads to `dst` in
    /// order with **one** backend call, draining the sent prefix from
    /// `payloads`. Returns the number sent; a partial send (OS socket
    /// backpressure) leaves the unsent tail in `payloads` for retry.
    ///
    /// Metering charges the same per-datagram socket costs as N single
    /// sends: the OS backend makes one `send_to` per datagram either way.
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

    /// Ships every payload to `dst`, in order: the workspace's one
    /// bounded-stall send loop. Calls [`UdpEndpoint::send_many`] and
    /// retries a partial send in place, yielding the thread between
    /// attempts so the kernel can drain the socket. Only the OS backend
    /// (or a [`ShortSendWire`] fault) ever sends partially; the
    /// in-process wire ships a batch in one call. Returns the number of
    /// `send_many` calls made, so `calls - 1` is the partial sends it
    /// retried.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] if no endpoint is bound at `dst`;
    /// [`NetError::Io`] on a hard socket error, or once the batch has
    /// stalled [`MAX_SEND_STALLS`] times and stalls again. Either way
    /// the unsent tail stays in `payloads`, in order; what was sent is
    /// gone from it.
    pub fn send_all(&self, dst: u64, payloads: &mut Vec<Vec<u8>>) -> Result<usize, NetError> {
        let mut calls = 0;
        while !payloads.is_empty() {
            self.send_many(dst, payloads)?;
            calls += 1;
            if payloads.is_empty() {
                break;
            }
            // Every call so far came back short.
            if calls > MAX_SEND_STALLS {
                return Err(NetError::Io(format!(
                    "send to {dst} stalled with {} datagrams unsent",
                    payloads.len()
                )));
            }
            std::thread::yield_now();
        }
        Ok(calls)
    }

    /// Receives one datagram without blocking (`None` is the
    /// `EWOULDBLOCK` analogue): [`UdpEndpoint::recv_many`] of at most
    /// one.
    pub fn try_recv(&self) -> Option<Datagram> {
        let mut out = Vec::with_capacity(1);
        self.recv_many(1, &mut out);
        out.pop()
    }

    /// Bulk receive (`recvmmsg` shape): appends up to `max` waiting
    /// datagrams to `out` in queue order with **one** backend call.
    /// Returns how many were taken; a short count means the socket is
    /// dry. Datagram payloads move by ownership (virtual backend) or are
    /// copied once, out of the receive frame into pool-recycled buffers
    /// (OS backend).
    pub fn recv_many(&self, max: usize, out: &mut Vec<Datagram>) -> usize {
        let start = out.len();
        let n = self.inner.recv_many(max, out);
        let bytes: usize = out[start..].iter().map(|d| d.payload.len()).sum();
        self.charge_recv(n, bytes);
        n
    }

    /// Whether a datagram is waiting (level-triggered readiness):
    /// [`UdpEndpoint::pending`] is non-zero.
    pub fn readable(&self) -> bool {
        self.pending() > 0
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
/// ([`crate::pipeline::AsyncFrontEndModel`]). An endpoint stays
/// registered for the group's lifetime.
#[derive(Debug, Default)]
pub struct PollGroup {
    /// Registered endpoints, in registration order.
    entries: Vec<(Token, UdpEndpoint)>,
    wakeups: u64,
}

impl PollGroup {
    /// An empty poll group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `endpoint` under `token` (readable interest — the only
    /// interest these endpoints have: sends never block for long).
    pub fn register(&mut self, endpoint: &UdpEndpoint, token: Token) {
        self.entries.push((token, endpoint.clone()));
    }

    /// Scans the registered endpoints and appends one [`Event`] per
    /// readable endpoint (level-triggered; registration order). Returns
    /// the number of events found. Counts one wakeup.
    pub fn poll(&mut self, events: &mut Vec<Event>) -> usize {
        self.wakeups += 1;
        let before = events.len();
        for (token, ep) in &self.entries {
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
    fn os_receive_sizes_payloads_to_fit_and_skips_runts() {
        if !OsWire::available() {
            eprintln!("skipping: loopback sockets unavailable in this environment");
            return;
        }
        let wire = OsWire::new();
        let a = Transport::bind(&wire, 1).unwrap();
        let b = Transport::bind(&wire, 2).unwrap();
        let recv_one = || {
            for _ in 0..1_000 {
                if let Some(d) = b.try_recv() {
                    return d;
                }
                std::thread::yield_now();
            }
            panic!("datagram never arrived");
        };
        a.send_to(2, vec![7; 100]).unwrap();
        let d = recv_one();
        assert_eq!(d.payload, vec![7; 100]);
        assert!(
            d.payload.capacity() < OS_MAX_DATAGRAM,
            "a 100 B payload holds {} B of capacity",
            d.payload.capacity()
        );
        // A runt from a socket outside the wire is skipped, and the
        // datagram queued behind it arrives intact.
        let addr = wire.registry.lock().unwrap().by_port[&2];
        let foreign = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        foreign.send_to(&[0xee; 5], addr).unwrap();
        a.send_to(2, b"after the runt".to_vec()).unwrap();
        let d = recv_one();
        assert_eq!((d.src, d.payload.as_slice()), (1, &b"after the runt"[..]));
        assert!(!b.readable(), "the runt was consumed, not left queued");
    }

    #[test]
    fn os_hard_error_after_a_prefix_is_a_partial_send() {
        if !OsWire::available() {
            eprintln!("skipping: loopback sockets unavailable in this environment");
            return;
        }
        let wire = OsWire::new();
        let cost = CostModel::calibrated();
        let meter = CycleMeter::new();
        let tx = wire.bind_metered(1, meter.clone(), &cost).unwrap();
        let rx = wire.bind(2).unwrap();
        // With its wire header the third payload exceeds the largest UDP
        // datagram, so the kernel refuses it (EMSGSIZE) after a and b
        // have gone out.
        let big = vec![0xee; 65_520];
        let mut batch = vec![b"a".to_vec(), b"b".to_vec(), big.clone(), b"c".to_vec()];
        assert_eq!(
            tx.send_many(2, &mut batch),
            Ok(2),
            "prefix reported as sent"
        );
        assert_eq!(batch, vec![big.clone(), b"c".to_vec()], "prefix drained");
        let expected = cost.socket_send_fixed * 2 + (cost.socket_per_byte * 2.0) as u64;
        assert_eq!(meter.take(), expected, "the prefix is metered once");
        // The next call meets the error with nothing consumed.
        assert!(matches!(tx.send_many(2, &mut batch), Err(NetError::Io(_))));
        assert_eq!(
            batch,
            vec![big, b"c".to_vec()],
            "failed call keeps the batch"
        );
        assert_eq!(meter.take(), 0);
        let mut got = Vec::new();
        for _ in 0..1_000 {
            rx.recv_many(16, &mut got);
            std::thread::yield_now();
        }
        let payloads: Vec<&[u8]> = got.iter().map(|d| d.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"a", b"b"], "a and b arrive exactly once");
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

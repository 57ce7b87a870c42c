//! The TX-batching egress stage of the sharded server ([`TxBatcher`]).

#[cfg(doc)]
use super::{AsyncIngressStats, ShardedEndBoxServer};

/// Counters of the TX-batching egress stage ([`TxBatcher`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxBatchStats {
    /// Datagrams accepted by [`TxBatcher::enqueue`].
    pub enqueued: u64,
    /// Datagrams shipped onto the wire.
    pub sent: u64,
    /// [`TxBatcher::flush`] calls.
    pub flushes: u64,
    /// Bulk `send_many` calls issued (each one "syscall").
    /// `sent / io_calls` is the egress syscall amortisation — the TX
    /// mirror of [`AsyncIngressStats::io_calls`].
    pub io_calls: u64,
    /// `send_many` calls that shipped only part of their batch (OS
    /// socket backpressure; the tail stayed queued for the next flush).
    pub partial_sends: u64,
}

/// The TX-batching egress stage: collects the fragments the server
/// produces towards clients ([`ShardedEndBoxServer::send_to_client`] /
/// [`ShardedEndBoxServer::send_batch_to_client`]) into per-destination
/// queues and ships each queue with **one** bulk
/// [`UdpEndpoint::send_many`](endbox_netsim::net::UdpEndpoint::send_many)
/// call per flush — the `sendmmsg` shape on the egress side, replacing
/// per-datagram `send_to` writes.
///
/// # Ordering and partial sends
///
/// Per-destination FIFO order is preserved unconditionally: a queue is
/// only ever appended to, and `send_many` ships a prefix. A partial send
/// (OS-socket backpressure) leaves the unshipped tail **at the head of
/// its queue** for the next flush; nothing is reordered or dropped, and
/// [`TxBatchStats::partial_sends`] counts the occurrences. Destinations
/// flush in first-enqueue order, mirroring the wire-order discipline of
/// the ingress side.
#[derive(Debug)]
pub struct TxBatcher {
    endpoint: endbox_netsim::net::UdpEndpoint,
    /// Per-destination queues in first-enqueue order (a `Vec`, not a
    /// `HashMap`, to keep flush order deterministic; destination counts
    /// are small — one per connected peer at most).
    queues: Vec<(u64, Vec<Vec<u8>>)>,
    stats: TxBatchStats,
}

impl TxBatcher {
    /// A batcher sending through `endpoint` (typically the server's
    /// dedicated TX socket).
    pub fn new(endpoint: endbox_netsim::net::UdpEndpoint) -> TxBatcher {
        TxBatcher {
            endpoint,
            queues: Vec::new(),
            stats: TxBatchStats::default(),
        }
    }

    /// The endpoint this batcher sends through.
    pub fn endpoint(&self) -> &endbox_netsim::net::UdpEndpoint {
        &self.endpoint
    }

    /// Queues `datagrams` for `dst`, preserving order behind anything
    /// already queued there.
    pub fn enqueue(&mut self, dst: u64, datagrams: impl IntoIterator<Item = Vec<u8>>) {
        let queue = match self.queues.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, q)) => q,
            None => {
                self.queues.push((dst, Vec::new()));
                &mut self.queues.last_mut().expect("just pushed").1
            }
        };
        let before = queue.len();
        queue.extend(datagrams);
        self.stats.enqueued += (queue.len() - before) as u64;
    }

    /// Datagrams queued and not yet shipped.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    /// Ships every queue with one bulk call each, in first-enqueue
    /// order. Returns the number of datagrams shipped; tails that hit
    /// backpressure stay queued (see the type docs).
    ///
    /// # Errors
    ///
    /// [`endbox_netsim::net::NetError::Unreachable`] if a destination
    /// has no bound endpoint (its queue is left intact; earlier
    /// destinations' sends stand).
    pub fn flush(&mut self) -> Result<usize, endbox_netsim::net::NetError> {
        self.stats.flushes += 1;
        let mut shipped = 0;
        for (dst, queue) in &mut self.queues {
            if queue.is_empty() {
                continue;
            }
            self.stats.io_calls += 1;
            let sent = self.endpoint.send_many(*dst, queue)?;
            shipped += sent;
            self.stats.sent += sent as u64;
            if !queue.is_empty() {
                self.stats.partial_sends += 1;
            }
        }
        self.queues.retain(|(_, q)| !q.is_empty());
        Ok(shipped)
    }

    /// Egress counters.
    pub fn stats(&self) -> TxBatchStats {
        self.stats
    }
}

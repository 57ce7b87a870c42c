//! Buffer recycling and packet batching: the allocation backbone of the
//! batched datapath.
//!
//! Every layer of the original datapath moved exactly one [`Packet`]
//! (an owned `Vec<u8>`) at a time and allocated a fresh backing store per
//! packet — the classic per-packet-overhead trap that batching NF runtimes
//! eliminate. This module provides the two building blocks the rest of the
//! stack (click router, VPN channel, EndBox client/server) is built on:
//!
//! * [`BufferPool`] — a shared free-list of `Vec<u8>` backing stores.
//!   Packets built through the `*_in` constructors draw their buffer from
//!   the pool and return it on drop, so a steady-state forwarding loop
//!   takes and gives in balance and the pool holds its working set.
//!   Retention is bounded in bytes ([`DEFAULT_MAX_BYTES`]). [`PoolStats`]
//!   exposes fresh-allocation vs reuse counters so benchmarks can
//!   *measure* the win instead of asserting it.
//! * [`PacketBatch`] — a plain `Vec<Packet>` moved through the stack as
//!   one unit: one router invocation, one enclave transition, one sealed
//!   VPN record for many tun-level packets.
//!
//! # Invariants
//!
//! * A batch preserves packet order across every layer boundary; batch
//!   processing is byte-identical to pushing the packets one at a time
//!   (property-tested in `tests/batch_parity.rs`).
//! * A pooled packet's backing store returns to its pool on drop
//!   ([`PoolStats::reuse_fraction`] measures the recycling on both the
//!   server shards and the client's in-enclave pool). Record-sized
//!   decrypt buffers are *not* donated to packet pools: they recycle
//!   through their data channel, so a packet pool only ever holds
//!   packet-sized buffers.
//! * Batch-granular pool traffic ([`BufferPool::take_many`] /
//!   [`BufferPool::give_many`] / [`recycle_packets`]) takes one lock
//!   acquisition per batch, counted by [`PoolStats::batched_ops`].

use crate::packet::Packet;
use std::sync::{Arc, Mutex};

/// Counters describing how effective buffer recycling has been.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that had to be freshly allocated.
    pub fresh_allocs: u64,
    /// Buffers handed out from the free list (no allocation).
    pub reused: u64,
    /// Buffers returned to the free list.
    pub returned: u64,
    /// Buffers dropped because keeping them would exceed the byte limit.
    pub discarded: u64,
    /// Batch-granular operations ([`BufferPool::take_many`] /
    /// [`BufferPool::give_many`] calls), each of which acquired the pool
    /// mutex exactly once for its whole batch.
    pub batched_ops: u64,
}

impl PoolStats {
    /// Buffers handed out in total (fresh + reused).
    pub fn handed_out(&self) -> u64 {
        self.fresh_allocs + self.reused
    }

    /// Fraction of hand-outs served from the free list, in [0, 1] —
    /// the steady-state figure of merit for a recycling datapath.
    pub fn reuse_fraction(&self) -> f64 {
        if self.handed_out() == 0 {
            0.0
        } else {
            self.reused as f64 / self.handed_out() as f64
        }
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    free: Vec<Vec<u8>>,
    /// Sum of the capacities on `free` — what the pool pins while idle.
    free_bytes: usize,
    stats: PoolStats,
}

impl PoolInner {
    fn take(&mut self, min_capacity: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.reused += 1;
                self.free_bytes -= buf.capacity();
                buf.clear();
                buf.reserve(min_capacity);
                buf
            }
            None => {
                self.stats.fresh_allocs += 1;
                Vec::with_capacity(min_capacity)
            }
        }
    }

    fn give(&mut self, mut buf: Vec<u8>, max_bytes: usize) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free_bytes + buf.capacity() <= max_bytes {
            buf.clear();
            self.free_bytes += buf.capacity();
            self.free.push(buf);
            self.stats.returned += 1;
        } else {
            self.stats.discarded += 1;
        }
    }
}

/// Default bound on the bytes an idle pool retains; beyond this, returned
/// buffers are simply freed. Room for a few thousand MTU-sized packet
/// buffers (deep batches), small enough that an idle pool does not pin
/// memory — and, being a byte bound, it holds whatever size arrives.
pub const DEFAULT_MAX_BYTES: usize = 4 << 20;

/// A shared, thread-safe pool of recycled packet backing stores.
///
/// Cloning is cheap; clones share the same free list. A pool handle
/// attached to a [`Packet`] makes the packet return its buffer here when
/// dropped (see [`Packet::from_vec_in`] and the pooled constructors).
///
/// Retention is bounded in **bytes** (the capacities on the free list
/// never sum to more than the limit), so a pool that is given more than
/// it is asked for — a datapath that donates foreign allocations —
/// stops growing at a known size instead of at a buffer count times
/// whatever capacity arrived. A balanced datapath (every `take` matched
/// by a `give`) retains exactly its in-flight working set.
///
/// Each take/give acquires the pool mutex once; the batch-granular
/// [`BufferPool::take_many`] / [`BufferPool::give_many`] acquire it once
/// per batch.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
    max_bytes: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool retaining at most [`DEFAULT_MAX_BYTES`].
    pub fn new() -> Self {
        Self::with_byte_limit(DEFAULT_MAX_BYTES)
    }

    /// Creates an empty pool whose free list retains at most `max_bytes`
    /// of buffer capacity.
    pub fn with_byte_limit(max_bytes: usize) -> Self {
        BufferPool {
            inner: Arc::default(),
            max_bytes,
        }
    }

    /// Takes a cleared buffer with at least `min_capacity` bytes of
    /// capacity, reusing a recycled one when available.
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        self.inner.lock().unwrap().take(min_capacity)
    }

    /// Returns a buffer to the free list (freed instead if that would
    /// take the list over its byte limit, or the buffer has no capacity
    /// worth keeping).
    pub fn give(&self, buf: Vec<u8>) {
        self.inner.lock().unwrap().give(buf, self.max_bytes);
    }

    /// Takes `n` cleared buffers of at least `min_capacity` bytes each,
    /// acquiring the pool mutex **once** for the whole batch (vs once per
    /// buffer with [`BufferPool::take`]) — the batch-granular recycling
    /// that keeps per-shard workers from serialising on the pool lock.
    pub fn take_many(&self, n: usize, min_capacity: usize) -> Vec<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.batched_ops += 1;
        (0..n).map(|_| inner.take(min_capacity)).collect()
    }

    /// Returns a whole batch of buffers under **one** lock acquisition
    /// (the batch-granular counterpart of [`BufferPool::give`]).
    pub fn give_many<I: IntoIterator<Item = Vec<u8>>>(&self, bufs: I) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.batched_ops += 1;
        for buf in bufs {
            inner.give(buf, self.max_bytes);
        }
    }

    /// True if `other` shares this pool's free list.
    pub fn same_pool(&self, other: &BufferPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Current recycling counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.inner.lock().unwrap().free.len()
    }

    /// Bytes of capacity currently retained on the free list (never more
    /// than the pool's byte limit).
    pub fn free_bytes(&self) -> usize {
        self.inner.lock().unwrap().free_bytes
    }
}

/// Recycles a collection of packets back to their pools with **one**
/// [`BufferPool::give_many`] call per distinct pool, instead of one lock
/// round-trip per packet via the `Drop` impl. Non-pooled packets are
/// simply freed.
pub fn recycle_packets<I: IntoIterator<Item = Packet>>(packets: I) {
    // Hot paths feed packets that all share one pool; group by pool
    // identity so mixed batches still recycle correctly.
    let mut groups: Vec<(BufferPool, Vec<Vec<u8>>)> = Vec::new();
    for pkt in packets {
        let (pool, buf) = pkt.into_parts();
        let Some(pool) = pool else { continue };
        match groups.iter_mut().find(|(p, _)| p.same_pool(&pool)) {
            Some((_, bufs)) => bufs.push(buf),
            None => groups.push((pool, vec![buf])),
        }
    }
    for (pool, bufs) in groups {
        pool.give_many(bufs);
    }
}

/// An ordered batch of packets moved through the datapath as one unit.
///
/// Semantically a batch is equivalent to pushing its packets one at a
/// time in order — the batched router/VPN/EndBox paths are required (and
/// property-tested) to produce byte-identical results — but it crosses
/// each layer boundary once instead of once per packet.
pub type PacketBatch = Vec<Packet>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn pool_reuses_returned_buffers() {
        let pool = BufferPool::new();
        let a = pool.take(64);
        assert_eq!(pool.stats().fresh_allocs, 1);
        pool.give(a);
        let b = pool.take(32);
        assert_eq!(pool.stats().reused, 1);
        assert!(b.capacity() >= 32);
        assert_eq!(pool.stats().fresh_allocs, 1, "no second allocation");
    }

    #[test]
    fn pool_grows_small_buffers_on_demand() {
        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(8));
        let buf = pool.take(1024);
        assert!(buf.capacity() >= 1024);
    }

    #[test]
    fn pool_respects_byte_limit_whatever_the_buffer_size() {
        let pool = BufferPool::with_byte_limit(40);
        for _ in 0..4 {
            pool.give(Vec::with_capacity(16));
        }
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.free_bytes(), 32);
        assert_eq!(pool.stats().returned, 2);
        assert_eq!(pool.stats().discarded, 2);
        // A large buffer is held to the same bound, not counted as "one".
        pool.give(Vec::with_capacity(24_000));
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.stats().discarded, 3);
        // Taking frees room; growing a taken buffer is the taker's memory.
        let big = pool.take(1024);
        assert!(big.capacity() >= 1024);
        assert_eq!(pool.free_bytes(), 16);
        pool.give(big);
        assert_eq!(pool.free_bytes(), 16, "over the limit: freed");
    }

    #[test]
    fn dropping_pooled_packets_recycles() {
        let pool = BufferPool::new();
        {
            let _p = Packet::udp_in(&pool, addr(1), addr(2), 1, 2, b"payload");
            assert_eq!(pool.stats().fresh_allocs, 1);
        }
        assert_eq!(pool.stats().returned, 1);
        // The next pooled packet reuses the buffer.
        let _q = Packet::udp_in(&pool, addr(1), addr(2), 1, 2, b"other");
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().fresh_allocs, 1);
    }

    #[test]
    fn steady_state_batch_loop_stops_allocating() {
        let pool = BufferPool::new();
        let rounds = 16usize;
        let per_round = 8usize;
        for _ in 0..rounds {
            let mut batch = PacketBatch::with_capacity(per_round);
            for i in 0..per_round {
                batch.push(Packet::tcp_in(
                    &pool,
                    addr(1),
                    addr(2),
                    1000,
                    80,
                    i as u32,
                    b"data",
                ));
            }
            drop(batch);
        }
        let stats = pool.stats();
        assert_eq!(
            stats.fresh_allocs, per_round as u64,
            "first round allocates, rest reuse"
        );
        assert_eq!(stats.reused, ((rounds - 1) * per_round) as u64);
    }

    #[test]
    fn take_many_locks_once_and_reuses() {
        let pool = BufferPool::new();
        let bufs = pool.take_many(8, 64);
        assert_eq!(bufs.len(), 8);
        assert_eq!(pool.stats().fresh_allocs, 8);
        assert_eq!(pool.stats().batched_ops, 1);
        pool.give_many(bufs);
        assert_eq!(pool.stats().returned, 8);
        assert_eq!(pool.stats().batched_ops, 2);
        let again = pool.take_many(8, 32);
        assert_eq!(pool.stats().reused, 8, "second batch reuses all buffers");
        assert_eq!(pool.stats().fresh_allocs, 8, "no new allocations");
        assert!(again.iter().all(|b| b.capacity() >= 32));
    }

    #[test]
    fn give_many_respects_byte_limit() {
        let pool = BufferPool::with_byte_limit(3 * 16);
        pool.give_many((0..5).map(|_| Vec::with_capacity(16)));
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(pool.stats().returned, 3);
        assert_eq!(pool.stats().discarded, 2);
        // Zero-capacity buffers are skipped entirely.
        pool.give_many(vec![Vec::new()]);
        assert_eq!(pool.free_buffers(), 3);
    }

    #[test]
    fn recycle_packets_groups_by_pool() {
        let pool_a = BufferPool::new();
        let pool_b = BufferPool::new();
        let mut packets = Vec::new();
        for i in 0..4 {
            packets.push(Packet::udp_in(&pool_a, addr(1), addr(2), 1, i, b"a"));
        }
        packets.push(Packet::udp_in(&pool_b, addr(1), addr(2), 1, 9, b"b"));
        packets.push(Packet::udp(addr(1), addr(2), 1, 10, b"plain"));
        recycle_packets(packets);
        assert_eq!(pool_a.stats().returned, 4);
        assert_eq!(pool_a.stats().batched_ops, 1, "one lock for pool A");
        assert_eq!(pool_b.stats().returned, 1);
        assert!(pool_a.same_pool(&pool_a.clone()));
        assert!(!pool_a.same_pool(&pool_b));
    }

    #[test]
    fn into_parts_detaches_without_returning() {
        let pool = BufferPool::new();
        let p = Packet::udp_in(&pool, addr(1), addr(2), 1, 2, b"payload");
        let (got_pool, buf) = p.into_parts();
        assert!(got_pool.is_some());
        assert_eq!(
            pool.stats().returned,
            0,
            "Drop must not run after into_parts"
        );
        assert!(!buf.is_empty());
        pool.give(buf);
        assert_eq!(pool.stats().returned, 1);
    }
}

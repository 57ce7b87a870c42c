//! The sharded server ([`ShardedEndBoxServer`]): the RX stage on `K`
//! threads, the re-merging dispatch, and the session layer on `N` worker
//! shards.

use super::rx::{RxEvent, RxOutcome};
#[cfg(doc)]
use super::EndBoxServer;
use super::{Delivery, EndBoxServerConfig, RxShardPool, RxShardStats, Server, ServerIo};
use crate::error::EndBoxError;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::shard::ShardedVpnServer;

/// Records accumulated from the RX stage before a sharded dispatch is cut.
/// Small enough that shard crypto starts while the RX stage still parses
/// the tail of a large receive batch; large enough to amortise the
/// channel round-trip.
pub const RX_DISPATCH_CHUNK: usize = 32;

/// Observability counters for structural elasticity: every online
/// grow/shrink of the RX shard pool or worker pool, and the state that
/// migrated across those rehashes. Reconciles with the datapath — a
/// resize never loses or duplicates a record (pinned by
/// `tests/elastic_resize.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResizeStats {
    /// RX pool grow operations (`K` increased).
    pub rx_grows: u64,
    /// RX pool shrink operations (`K` decreased; retiring shards drained
    /// to their successors before their threads exited).
    pub rx_shrinks: u64,
    /// Worker pool grow operations (`N` increased).
    pub worker_grows: u64,
    /// Worker pool shrink operations (`N` decreased).
    pub worker_shrinks: u64,
    /// Peers whose reassembly state moved to a different RX shard across
    /// all resizes (peers whose home is unchanged under the new modulus
    /// do not count).
    pub peers_rehashed: u64,
    /// In-flight partial records that rode along inside rehashed
    /// reassemblers (distinct from the remap law's
    /// [`ShardedEndBoxServer::rx_remap_counters`] drain count).
    pub partials_drained: u64,
    /// Sessions migrated off retiring workers (replay windows and crypto
    /// state move with them, via the same extract→install round-trip as
    /// a dispatcher migration).
    pub sessions_moved: u64,
}

/// The sharded multi-worker EndBox server front-end, now a **staged
/// pipeline**:
///
/// 1. **RX stage** ([`RxShardPool`], `K` threads): per-peer datagram
///    reassembly and record framing, sharded by `peer_id mod K`. A
///    peer's reassembly state has one owning shard at a time.
/// 2. **Dispatch** (front-end thread): shard events are re-merged into
///    input-index order and handed to the [`ShardedVpnServer`] in chunks
///    of [`RX_DISPATCH_CHUNK`], so shard crypto for early records
///    overlaps with RX framing of later ones on every RX shard.
/// 3. **Workers**: everything per-session (crypto, replay windows,
///    policy, packet materialisation from per-shard buffer pools) runs on
///    the shard threads, placed by the dispatch law of
///    `endbox_vpn::shard`.
///
/// # Re-merge ordering guarantee
///
/// [`ShardedEndBoxServer::receive_datagrams`] returns exactly one
/// [`Delivery`] result per input datagram, **in input order**, for any
/// RX shard count, worker count, chunking and thread schedule;
/// per-session record order is preserved by per-peer RX order (see
/// [`RxShardPool`]) plus single-owner routing and per-shard FIFO (see
/// `endbox_vpn::shard`), and a Disconnect pauses its owning RX shard
/// until its verdict is known so reassembler teardown sequences exactly
/// like the single-threaded server. With any `(rx_shards, workers)` the
/// observable behaviour is identical to [`EndBoxServer`] —
/// property-tested in `tests/shard_parity.rs` and replayed under named
/// deterministic schedules in `tests/rx_interleaving.rs`.
///
/// The sharded server intentionally has no server-side Click instance:
/// that attachment exists only for the centralised OpenVPN+Click
/// baseline, which the sharded EndBox deployment replaces.
pub type ShardedEndBoxServer = Server<ShardedVpnServer, StagedRx>;

/// The sharded server's RX stage: the shard pool, what the front-end
/// counts while re-merging it, and — because every resize of either pool
/// is driven from this thread, between receive batches — the elasticity
/// counters. (Public only because the server's type names it.)
pub struct StagedRx {
    pool: RxShardPool,
    /// Records the front-end re-merged from the RX shards (reconciles
    /// with the sum of per-shard `records_framed`).
    records_merged: u64,
    /// Disconnect verdicts the front-end sent back to paused RX shards
    /// (reconciles with the sum of per-shard `disconnect_pauses`).
    disconnect_verdicts: u64,
    /// Peers the control plane re-homed to a different RX shard.
    remaps: u64,
    /// Partial records drained along with those remaps (in flight inside
    /// the moved reassemblers at their quiesce points).
    drained_partials: u64,
    /// Structural elasticity counters (grow/shrink of `K` and `N`).
    resize: ResizeStats,
}

impl std::fmt::Debug for ShardedEndBoxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEndBoxServer")
            .field("workers", &self.vpn.worker_count())
            .field("rx_shards", &self.rx.pool.shard_count())
            .field("sessions", &self.vpn.session_count())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl ShardedEndBoxServer {
    /// Builds the pipeline: `workers` crypto shard threads and `rx_shards`
    /// RX framing threads (minimum 1 each).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] if a server-side Click configuration is
    /// supplied (only the centralised baseline carries one).
    pub fn with_pipeline(
        cfg: EndBoxServerConfig,
        workers: usize,
        rx_shards: usize,
    ) -> Result<ShardedEndBoxServer, EndBoxError> {
        if cfg.server_click.is_some() {
            return Err(EndBoxError::NotReady(
                "sharded server has no server-side Click",
            ));
        }
        let vpn = ShardedVpnServer::new(
            cfg.handshake,
            cfg.suite,
            cfg.meter.clone(),
            cfg.cost.clone(),
            cfg.rng_seed,
            workers,
        );
        let rx = StagedRx {
            pool: RxShardPool::new(rx_shards, &cfg.meter, &cfg.cost),
            records_merged: 0,
            disconnect_verdicts: 0,
            remaps: 0,
            drained_partials: 0,
            resize: ResizeStats::default(),
        };
        let io = ServerIo::new(cfg.cost, cfg.meter, cfg.clock);
        Ok(Server::assemble(vpn, rx, None, io))
    }

    /// Number of worker shards.
    pub fn worker_count(&self) -> usize {
        self.vpn.worker_count()
    }

    /// Number of RX shards.
    pub fn rx_shard_count(&self) -> usize {
        self.rx.pool.shard_count()
    }

    /// Per-RX-shard observability counters (records framed, reassembly
    /// bytes held, disconnect pauses, …), indexed by shard. A cross-thread
    /// query, hence `&mut` — like [`Server::client_config_version`].
    pub fn rx_shard_stats(&mut self) -> Vec<RxShardStats> {
        self.rx.pool.stats()
    }

    /// Front-end re-merge totals `(records merged, disconnect verdicts)`,
    /// for reconciling against [`ShardedEndBoxServer::rx_shard_stats`].
    pub fn rx_merge_counters(&self) -> (u64, u64) {
        (self.rx.records_merged, self.rx.disconnect_verdicts)
    }

    /// Test hook: stall RX shard `shard` by `micros` per datagram (see
    /// [`RxShardPool::set_stall_micros`]).
    pub fn set_rx_stall_micros(&self, shard: usize, micros: u64) {
        self.rx.pool.set_stall_micros(shard, micros);
    }

    /// Sessions the dispatcher migrated so far (steals included).
    pub fn migrations(&self) -> u64 {
        self.vpn.migrations()
    }

    /// Idle-worker steals performed by the dispatcher (a subset of
    /// [`ShardedEndBoxServer::migrations`]).
    pub fn steals(&self) -> u64 {
        self.vpn.steals()
    }

    /// Re-homes `peer`'s reassembly state to RX shard `to` (see
    /// [`RxShardPool::remap_peer`] for the quiescence contract), returning
    /// the number of in-flight partial records drained along. Only legal
    /// between `receive_datagrams` calls.
    ///
    /// # Panics
    ///
    /// If `to` is not a live RX shard.
    pub fn remap_rx_peer(&mut self, peer: u64, to: usize) -> usize {
        let before = self.rx.pool.shard_of(peer);
        let drained = self.rx.pool.remap_peer(peer, to);
        if self.rx.pool.shard_of(peer) != before {
            self.rx.remaps += 1;
            self.rx.drained_partials += drained as u64;
        }
        drained
    }

    /// `(remaps, drained partial records)` performed so far via
    /// [`ShardedEndBoxServer::remap_rx_peer`].
    pub fn rx_remap_counters(&self) -> (u64, u64) {
        (self.rx.remaps, self.rx.drained_partials)
    }

    /// The RX shard currently owning `peer`'s reassembly state.
    pub fn rx_shard_of(&self, peer: u64) -> usize {
        self.rx.pool.shard_of(peer)
    }

    /// Resizes the RX framing pool to `shards` threads online (minimum
    /// 1), rehashing every peer's reassembly state to its home under the
    /// new modulus with the quiesce/drain/install discipline of
    /// [`RxShardPool::resize`]. Returns `(peers rehashed, in-flight
    /// partials drained along)`. Only legal between `receive_datagrams`
    /// calls — a no-op if `shards` already matches.
    pub fn resize_rx_shards(&mut self, shards: usize) -> (usize, usize) {
        let before = self.rx.pool.shard_count();
        let (moved, drained) = self.rx.pool.resize(shards);
        let after = self.rx.pool.shard_count();
        if after > before {
            self.rx.resize.rx_grows += 1;
        } else if after < before {
            self.rx.resize.rx_shrinks += 1;
        }
        self.rx.resize.peers_rehashed += moved as u64;
        self.rx.resize.partials_drained += drained as u64;
        (moved, drained)
    }

    /// Resizes the worker pool to `workers` shard threads online (minimum
    /// 1); retiring workers drain every session they own (replay windows
    /// included) to their successors before exit. Returns how many
    /// sessions moved. Only legal at a dispatch boundary — a no-op if
    /// `workers` already matches.
    pub fn resize_workers(&mut self, workers: usize) -> usize {
        let before = self.vpn.worker_count();
        let moved = self.vpn.resize_workers(workers);
        let after = self.vpn.worker_count();
        if after > before {
            self.rx.resize.worker_grows += 1;
        } else if after < before {
            self.rx.resize.worker_shrinks += 1;
        }
        self.rx.resize.sessions_moved += moved as u64;
        moved
    }

    /// Structural-elasticity counters accumulated so far.
    pub fn resize_stats(&self) -> ResizeStats {
        self.rx.resize
    }

    /// Receives one wire datagram. This is *not* a special-cased path: the
    /// datagram routes through the [`RxShardPool`] exactly like a batch of
    /// one, so singular and batch calls may be mixed freely without
    /// perturbing per-peer reassembly order (the copy it makes is what
    /// handing the datagram to the RX stage costs on this path).
    ///
    /// # Errors
    ///
    /// Every authentication/policy failure; callers drop the traffic.
    pub fn receive_datagram(
        &mut self,
        peer_id: u64,
        datagram: &[u8],
    ) -> Result<Delivery, EndBoxError> {
        self.receive_datagrams(vec![(peer_id, datagram.to_vec())])
            .pop()
            .expect("one result for one datagram")
    }

    /// Receives a whole batch of wire datagrams — from any mix of clients
    /// — through the staged pipeline, returning one result per datagram
    /// in input order (the re-merge guarantee above). Takes the datagrams
    /// by value: ownership moves into the RX shards, so the ingress path
    /// performs no wire-level copy.
    pub fn receive_datagrams(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<Delivery, EndBoxError>> {
        let n = datagrams.len();
        if n == 0 {
            return Vec::new();
        }
        // Stage 1: ship the receive batch to the RX shards; they stream
        // outcomes back while we dispatch records.
        self.rx.pool.submit(datagrams);
        // Stages 2+3: re-merge shard events into **input-index order**
        // (cross-peer interleaving across shards is arbitrary; `stash`
        // holds early arrivals until the cursor reaches them), cutting a
        // sharded dispatch whenever a chunk of records accumulated (shard
        // crypto overlaps RX framing of the tail) or a Disconnect needs
        // its verdict before its shard's reassembly may continue.
        let mut results: Vec<Option<Result<Delivery, EndBoxError>>> =
            (0..n).map(|_| None).collect();
        let mut stash: Vec<Option<(u64, RxOutcome)>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<(u32, Record)> = Vec::new();
        let mut cursor = 0usize;
        let mut received = 0usize;
        while received < n {
            let RxEvent { idx, peer, outcome } = self.rx.pool.next_event();
            received += 1;
            stash[idx as usize] = Some((peer, outcome));
            while cursor < n {
                let Some((peer, outcome)) = stash[cursor].take() else {
                    break;
                };
                match self.framed(outcome) {
                    Err(result) => results[cursor] = Some(result),
                    Ok(record) => {
                        self.rx.records_merged += 1;
                        let disconnect = record.opcode == Opcode::Disconnect;
                        pending.push((cursor as u32, record));
                        if disconnect {
                            // Drain the pipeline up to and including the
                            // Disconnect, then release the paused owning
                            // shard with the verdict.
                            self.dispatch_pending(&mut pending, &mut results);
                            let confirmed =
                                matches!(results[cursor], Some(Ok(Delivery::Disconnected { .. })));
                            self.rx.disconnect_verdicts += 1;
                            self.rx.pool.verdict(peer, confirmed);
                        } else if pending.len() >= RX_DISPATCH_CHUNK {
                            self.dispatch_pending(&mut pending, &mut results);
                        }
                    }
                }
                cursor += 1;
            }
        }
        self.dispatch_pending(&mut pending, &mut results);
        results
            .into_iter()
            .map(|r| r.expect("every datagram produces a result"))
            .collect()
    }

    /// One sharded dispatch for the queued records, then the
    /// deterministic re-merge back into input order.
    fn dispatch_pending(
        &mut self,
        pending: &mut Vec<(u32, Record)>,
        results: &mut [Option<Result<Delivery, EndBoxError>>],
    ) {
        if pending.is_empty() {
            return;
        }
        let now_secs = self.io.now_secs();
        let mut origins = Vec::with_capacity(pending.len());
        let mut records = Vec::with_capacity(pending.len());
        for (idx, record) in pending.drain(..) {
            origins.push(idx);
            records.push(record);
        }
        let events = self.vpn.handle_records(records, now_secs);
        for (idx, event) in origins.into_iter().zip(events) {
            results[idx as usize] = Some(self.deliver(event));
        }
    }
}

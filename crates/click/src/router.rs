//! The router: instantiates a parsed configuration into an element graph,
//! pushes batches of packets through it, and hot-swaps configurations at
//! runtime.
//!
//! # Batched datapath
//!
//! [`Router::process_batch`] is the router's one traversal: a whole
//! [`PacketBatch`] goes through the graph at once, and a single packet is
//! a batch of one. Packets are queued per element and each element's
//! [`Element::process`] is called once per packet of every run the
//! scheduler picks. All per-traversal state (the per-element pending
//! queues, the output scratch, the sequence keys described below) lives
//! in the `Router` and is recycled across calls: in steady state a
//! traversal allocates only the [`BatchOutput`] it returns, whatever the
//! batch length and however many hops the graph has.
//!
//! ## Order preservation
//!
//! Batch processing is observably equivalent to pushing the same packets
//! one at a time, each run breadth-first to completion, for **arbitrary
//! graphs**, including fan-out (`Tee`) and fan-out paths that *re-merge*
//! into order-sensitive stateful elements (e.g. two `Tee` branches
//! feeding one `RoundRobinSwitch`): per-element arrival order,
//! handler-visible element state, total cycle charges, and the emitted
//! byte sequence all match.
//!
//! The scheduler achieves this by tagging every in-flight packet with a
//! hierarchical sequence key `(batch_slot, emission_path)` — the path
//! records, hop by hop, which output of its parent each packet was — and
//! ordering keys *shortlex* per slot (shorter paths first, then
//! lexicographic), which is exactly the order a breadth-first walk of one
//! packet visits events in. Each element's pending queue is kept
//! key-sorted; each step runs the element whose queued front key is
//! globally minimal, over the longest front run that no other queued
//! packet can still preempt (bounded by the smallest front key among
//! elements with a graph path into it). Linear pipelines and independent
//! fan-out sinks therefore still process whole batches per element; only
//! genuine re-merge points degrade to the interleaving one-at-a-time
//! pushes would produce.
//!
//! The invariant is pinned by `tests/batch_parity.rs`, which compares
//! this scheduler against an independent breadth-first walk built from
//! the public element API (a property-test grid over random
//! fan-out/re-merge graphs with stateful elements), and by
//! `fan_out_batch_remerge_order_is_pinned` below.

use crate::config::ConfigGraph;
use crate::element::{Element, ElementContext, ElementEnv};
use crate::error::ClickError;
use crate::registry::ElementRegistry;
use endbox_netsim::packet::Verdict;
use endbox_netsim::{Packet, PacketBatch};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Result of pushing a [`PacketBatch`] through the router.
#[derive(Debug)]
pub struct BatchOutput {
    /// Packets emitted by `ToDevice` elements, each carrying the
    /// `batch_slot` annotation of the input packet it originated from.
    pub emitted: PacketBatch,
    /// Per input packet (by batch position): `Accept` if at least one
    /// emission originated from it, `Drop` otherwise.
    pub verdicts: Vec<Verdict>,
    /// Number of input packets with verdict `Accept`.
    pub accepted: usize,
    /// Packets discarded at unconnected output ports.
    pub dropped: u64,
}

impl BatchOutput {
    /// First emitted packet per input slot (slot-indexed; `None` for
    /// inputs with no emission), with the batch-slot annotation cleared.
    ///
    /// The datapath keeps exactly the *first* emission of each accepted
    /// packet: the client seals it, the server delivers it.
    ///
    /// Packets not kept — non-first emissions for a slot, and packets
    /// whose slot annotation is missing or out of range (possible after a
    /// mid-batch hot-swap) — are recycled to their [`BufferPool`]s in one
    /// batched `give_many` pass per pool instead of one lock round-trip
    /// per packet.
    ///
    /// [`BufferPool`]: endbox_netsim::BufferPool
    pub fn first_emissions_by_slot(self) -> Vec<Option<Packet>> {
        let mut by_slot: Vec<Option<Packet>> = (0..self.verdicts.len()).map(|_| None).collect();
        let mut extras: Vec<Packet> = Vec::new();
        for mut pkt in self.emitted {
            match pkt
                .meta
                .batch_slot
                .and_then(|slot| by_slot.get_mut(slot as usize))
            {
                Some(cell) if cell.is_none() => {
                    pkt.meta.batch_slot = None;
                    *cell = Some(pkt);
                }
                _ => extras.push(pkt),
            }
        }
        endbox_netsim::recycle_packets(extras);
        by_slot
    }

    /// First emitted packet of each accepted input, in input order, with
    /// the batch-slot annotation cleared.
    ///
    /// When the emitted batch already is that — every packet annotated
    /// with an in-range slot, the slots strictly increasing, as a linear
    /// graph that forwards or drops each packet leaves it — it is
    /// returned as it is, without allocating.
    pub fn into_first_emissions(mut self) -> Vec<Packet> {
        let mut next = 0;
        let one_per_slot_in_order = self.emitted.iter().all(|pkt| match pkt.meta.batch_slot {
            Some(slot) if (next..self.verdicts.len()).contains(&(slot as usize)) => {
                next = slot as usize + 1;
                true
            }
            _ => false,
        });
        if !one_per_slot_in_order {
            return self
                .first_emissions_by_slot()
                .into_iter()
                .flatten()
                .collect();
        }
        for pkt in &mut self.emitted {
            pkt.meta.batch_slot = None;
        }
        self.emitted
    }
}

/// Hierarchical sequence key ordering in-flight packets of a batch
/// traversal by the order one-at-a-time pushes would visit them in.
///
/// `slot` is the packet's position in the input batch; the key's *path*
/// records, hop by hop, the sibling index each descendant was assigned
/// when its parent's outputs were drained (the input packet itself has an
/// empty path). Paths live in the router's arena — `start` and `len`
/// locate this key's — which is emptied at the start of every traversal,
/// so a key costs no allocation. Keys compare *shortlex* within a slot —
/// shorter paths first, then lexicographic — which is exactly the order
/// a breadth-first walk of one packet visits events in, and keys
/// are globally unique per traversal (each packet instance is processed
/// once).
#[derive(Debug, Clone, Copy)]
struct SeqKey {
    slot: u32,
    start: u32,
    len: u32,
}

impl SeqKey {
    fn path(self, arena: &[u32]) -> &[u32] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }

    fn cmp(self, other: SeqKey, arena: &[u32]) -> Ordering {
        self.slot
            .cmp(&other.slot)
            .then_with(|| self.len.cmp(&other.len))
            .then_with(|| self.path(arena).cmp(other.path(arena)))
    }

    /// The key of this key's next child: its path extended by `sibling`,
    /// appended to the arena.
    fn child(self, sibling: u32, arena: &mut Vec<u32>) -> SeqKey {
        let start = arena.len() as u32;
        arena.extend_from_within(self.start as usize..(self.start + self.len) as usize);
        arena.push(sibling);
        SeqKey {
            slot: self.slot,
            start,
            len: self.len + 1,
        }
    }
}

/// One entry of an element's pending queue during a batch traversal.
#[derive(Debug)]
struct PendingPacket {
    key: SeqKey,
    port: usize,
    pkt: Packet,
}

/// One input event of the element run currently being processed: where
/// its packet sat in the sequence order, and how many children (output
/// packets) it has produced so far — the next sibling index.
#[derive(Debug)]
struct RunEvent {
    key: SeqKey,
    children: u32,
}

/// The event of `run` that consumed the input in batch slot `slot`. A run
/// is popped off a key-sorted queue and holds one event per slot, so its
/// slots are strictly increasing.
fn event_of_slot(run: &[RunEvent], slot: Option<u32>) -> usize {
    slot.and_then(|s| run.binary_search_by_key(&s, |e| e.key.slot).ok())
        .unwrap_or_else(|| {
            debug_assert!(false, "element output lost its batch_slot annotation");
            0
        })
}

/// Sequence-key bookkeeping of a batch traversal (allocations reused).
#[derive(Debug, Default)]
struct KeyScratch {
    /// Arena of the keys' paths, emptied per traversal.
    paths: Vec<u32>,
    /// Input events of the element run being processed.
    run: Vec<RunEvent>,
    /// Key of the event that produced each emission, in emission order.
    emitted: Vec<SeqKey>,
    /// Argsort of the emissions by key.
    order: Vec<usize>,
}

/// Inserts `entry` into a key-sorted queue. Arrivals are mostly already
/// in order (whole upstream runs drain in key order), so appending is the
/// fast path; re-merges falling back to a binary-search insert.
fn insert_sorted(queue: &mut VecDeque<PendingPacket>, entry: PendingPacket, arena: &[u32]) {
    match queue.back() {
        Some(last) if last.key.cmp(entry.key, arena).is_gt() => {
            let pos = queue.partition_point(|e| e.key.cmp(entry.key, arena).is_lt());
            queue.insert(pos, entry);
        }
        _ => queue.push_back(entry),
    }
}

/// Transitive closure of the element graph: `reach[a][b]` is true when a
/// packet leaving `a` can arrive at `b` after one or more hops. The
/// batched scheduler uses it to bound how far ahead an element may run
/// before a packet still queued elsewhere could preempt it.
fn compute_reach(out_edges: &[Vec<Option<(usize, usize)>>]) -> Vec<Vec<bool>> {
    let n = out_edges.len();
    let adj: Vec<Vec<usize>> = out_edges
        .iter()
        .map(|ports| ports.iter().filter_map(|e| e.map(|(to, _)| to)).collect())
        .collect();
    let mut reach = vec![vec![false; n]; n];
    for (start, row) in reach.iter_mut().enumerate() {
        let mut stack: Vec<usize> = adj[start].clone();
        while let Some(x) = stack.pop() {
            if !row[x] {
                row[x] = true;
                stack.extend(adj[x].iter().copied());
            }
        }
    }
    reach
}

/// A running Click router.
pub struct Router {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    classes: Vec<String>,
    /// `out_edges[element][out_port] = Some((to_element, to_port))`.
    out_edges: Vec<Vec<Option<(usize, usize)>>>,
    entry: Option<usize>,
    env: ElementEnv,
    config_text: String,
    hotswaps: u64,
    /// Transitive closure of the element graph (recomputed on hot-swap).
    reach: Vec<Vec<bool>>,
    /// The classes this router builds from, kept for hot-swaps.
    registry: ElementRegistry,
    /// Element-output scratch handed to every `ElementContext`.
    scratch_outputs: Vec<(usize, Packet)>,
    /// Per-element key-sorted pending queues for batch traversal. Kept in
    /// `self` (not moved out) during traversal so an element panic leaves
    /// in-flight packets observable and recyclable instead of lost.
    pending: Vec<VecDeque<PendingPacket>>,
    /// The run being handed to `Element::process`, popped off its
    /// pending queue whole before the first call, so an element panic
    /// strands only packets queued outside the run (allocation reused).
    scratch_batch: PacketBatch,
    /// Packets dropped at unconnected ports during a batch traversal,
    /// recycled to their pools in one `give_many` at the end instead of
    /// one lock round-trip per packet.
    scratch_drops: Vec<Packet>,
    scratch_keys: KeyScratch,
    /// Packets recovered from stale pending queues (after an element
    /// panicked mid-batch) and recycled to their pools.
    stale_recycled: u64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("elements", &self.names)
            .field("hotswaps", &self.hotswaps)
            .finish()
    }
}

struct BuiltGraph {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    classes: Vec<String>,
    out_edges: Vec<Vec<Option<(usize, usize)>>>,
    entry: Option<usize>,
}

fn build(
    graph: &ConfigGraph,
    registry: &ElementRegistry,
    env: &ElementEnv,
) -> Result<BuiltGraph, ClickError> {
    let mut elements = Vec::with_capacity(graph.elements.len());
    let mut names = Vec::with_capacity(graph.elements.len());
    let mut classes = Vec::with_capacity(graph.elements.len());
    for decl in &graph.elements {
        let element = registry.create(&decl.name, &decl.class, &decl.args, env)?;
        names.push(decl.name.clone());
        classes.push(decl.class.clone());
        elements.push(element);
    }

    let mut out_edges: Vec<Vec<Option<(usize, usize)>>> =
        elements.iter().map(|e| vec![None; e.n_outputs()]).collect();
    for conn in &graph.connections {
        let n_out = elements[conn.from].n_outputs();
        if conn.from_port >= n_out {
            return Err(ClickError::BadConnection(format!(
                "`{}` has {} output(s), port {} out of range",
                names[conn.from], n_out, conn.from_port
            )));
        }
        let n_in = elements[conn.to].n_inputs();
        if conn.to_port >= n_in {
            return Err(ClickError::BadConnection(format!(
                "`{}` has {} input(s), port {} out of range",
                names[conn.to], n_in, conn.to_port
            )));
        }
        if out_edges[conn.from][conn.from_port].is_some() {
            return Err(ClickError::BadConnection(format!(
                "output {}[{}] connected twice",
                names[conn.from], conn.from_port
            )));
        }
        out_edges[conn.from][conn.from_port] = Some((conn.to, conn.to_port));
    }

    let entry = classes.iter().position(|c| c == "FromDevice");
    Ok(BuiltGraph {
        elements,
        names,
        classes,
        out_edges,
        entry,
    })
}

impl Router {
    /// Parses and instantiates `config_text` with the standard registry.
    ///
    /// # Errors
    ///
    /// Propagates parse, class-lookup, configuration and connection
    /// errors.
    pub fn from_config(config_text: &str, env: ElementEnv) -> Result<Router, ClickError> {
        Self::build_with(config_text, env, ElementRegistry::standard())
    }

    /// Same as [`Router::from_config`] with a caller-provided registry,
    /// which the router keeps: hot-swaps build through it too.
    ///
    /// # Errors
    ///
    /// See [`Router::from_config`].
    pub fn from_config_with_registry(
        config_text: &str,
        env: ElementEnv,
        registry: &ElementRegistry,
    ) -> Result<Router, ClickError> {
        Self::build_with(config_text, env, registry.clone())
    }

    fn build_with(
        config_text: &str,
        env: ElementEnv,
        registry: ElementRegistry,
    ) -> Result<Router, ClickError> {
        let graph = ConfigGraph::parse(config_text)?;
        let built = build(&graph, &registry, &env)?;
        let n = built.elements.len();
        let mut pending = Vec::with_capacity(n);
        pending.resize_with(n, VecDeque::new);
        let reach = compute_reach(&built.out_edges);
        Ok(Router {
            elements: built.elements,
            names: built.names,
            classes: built.classes,
            out_edges: built.out_edges,
            entry: built.entry,
            env,
            config_text: config_text.to_string(),
            hotswaps: 0,
            reach,
            registry,
            scratch_outputs: Vec::with_capacity(4),
            pending,
            scratch_batch: PacketBatch::new(),
            scratch_drops: Vec::new(),
            scratch_keys: KeyScratch::default(),
            stale_recycled: 0,
        })
    }

    /// Pushes a whole batch through the router in one traversal; a single
    /// packet is a batch of one.
    ///
    /// Packets are queued per element and run through
    /// [`Element::process`] in runs, while the key-ordered scheduler
    /// keeps every element's arrival order — and hence its state and the
    /// emitted sequence — identical to pushing the packets one at a time.
    /// See the module docs for the scheduling discipline.
    pub fn process_batch(&mut self, mut batch: PacketBatch) -> BatchOutput {
        let n_in = batch.len();
        let mut emitted: Vec<Packet> = Vec::with_capacity(n_in);
        let mut dropped = 0u64;
        // A panic during an earlier traversal may have left in-flight
        // packets queued; recover them before seeding the new batch.
        self.drain_stale_pending();
        let Some(entry) = self.entry else {
            endbox_netsim::recycle_packets(batch.drain(..));
            return BatchOutput {
                emitted: PacketBatch::new(),
                verdicts: vec![Verdict::Drop; n_in],
                accepted: 0,
                dropped,
            };
        };

        for (slot, mut pkt) in batch.drain(..).enumerate() {
            let slot = slot as u32;
            pkt.meta.batch_slot = Some(slot);
            self.pending[entry].push_back(PendingPacket {
                key: SeqKey {
                    slot,
                    start: 0,
                    len: 0,
                },
                port: 0,
                pkt,
            });
        }

        let mut outputs = std::mem::take(&mut self.scratch_outputs);
        let mut work = std::mem::take(&mut self.scratch_batch);
        let mut drops = std::mem::take(&mut self.scratch_drops);
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.paths.clear();
        keys.emitted.clear();
        loop {
            // Run the element whose queued front key is globally minimal.
            let mut min: Option<(usize, SeqKey)> = None;
            for (i, queue) in self.pending.iter().enumerate() {
                let Some(front) = queue.front() else { continue };
                if min.is_none_or(|(_, m)| front.key.cmp(m, &keys.paths).is_lt()) {
                    min = Some((i, front.key));
                }
            }
            let Some((idx, _)) = min else { break };

            // Preemption bound: the smallest front key among *other*
            // elements with a graph path into `idx`. Entries at or past
            // the bound could still gain earlier-keyed predecessors from
            // those packets' descendants, so they wait for a later run.
            let mut bound: Option<SeqKey> = None;
            for (i, queue) in self.pending.iter().enumerate() {
                if i == idx || !self.reach[i][idx] {
                    continue;
                }
                if let Some(front) = queue.front() {
                    if bound.is_none_or(|b| front.key.cmp(b, &keys.paths).is_lt()) {
                        bound = Some(front.key);
                    }
                }
            }
            let self_loop = self.reach[idx][idx];

            // Longest front run with one input port, below the bound, and
            // with pairwise-distinct slots (output→input attribution
            // below keys on `batch_slot`). The queue is key-sorted, so a
            // repeated slot can only repeat the run's last one.
            let port = self.pending[idx].front().expect("non-empty").port;
            work.clear();
            keys.run.clear();
            while let Some(front) = self.pending[idx].front() {
                if front.port != port
                    || bound.is_some_and(|b| front.key.cmp(b, &keys.paths).is_ge())
                    || keys
                        .run
                        .last()
                        .is_some_and(|e| e.key.slot == front.key.slot)
                {
                    break;
                }
                let entry_pkt = self.pending[idx].pop_front().expect("checked front");
                keys.run.push(RunEvent {
                    key: entry_pkt.key,
                    children: 0,
                });
                work.push(entry_pkt.pkt);
                if self_loop {
                    // An element that can reach itself may enqueue
                    // descendants keyed between this entry and the next;
                    // process one packet at a time so they get their turn.
                    break;
                }
            }
            if work.is_empty() {
                // The front entry is at/past the bound: some other element
                // holds the globally minimal key — impossible, since `idx`
                // was chosen as the global minimum and bounds only come
                // from other elements' front keys.
                unreachable!("scheduler made no progress");
            }

            self.env
                .meter
                .add(self.env.cost.click_element_base * work.len() as u64);
            let emitted_before = emitted.len();
            let mut ctx = ElementContext::new(&mut outputs, &mut emitted, &self.env);
            for pkt in work.drain(..) {
                self.elements[idx].process(port, pkt, &mut ctx);
            }

            // Emissions carry the key of the event that produced them;
            // the final stable sort restores one-at-a-time order.
            for pkt in &emitted[emitted_before..] {
                keys.emitted
                    .push(keys.run[event_of_slot(&keys.run, pkt.meta.batch_slot)].key);
            }

            // Outputs extend their parent's path by the next sibling
            // index, in drain order — the order a one-at-a-time push
            // would have enqueued them in.
            for (out_port, mut out_pkt) in outputs.drain(..) {
                let ev = event_of_slot(&keys.run, out_pkt.meta.batch_slot);
                let ev = &mut keys.run[ev];
                let key = ev.key.child(ev.children, &mut keys.paths);
                ev.children += 1;
                match self.out_edges[idx].get(out_port).copied().flatten() {
                    Some((to, to_port)) => insert_sorted(
                        &mut self.pending[to],
                        PendingPacket {
                            key,
                            port: to_port,
                            pkt: out_pkt,
                        },
                        &keys.paths,
                    ),
                    None => {
                        out_pkt.meta.verdict = Verdict::Drop;
                        dropped += 1;
                        drops.push(out_pkt);
                    }
                }
            }
        }
        // Batch-granular recycling: all unconnected-port drops return
        // their buffers under one pool lock acquisition.
        endbox_netsim::recycle_packets(drops.drain(..));
        self.scratch_outputs = outputs;
        self.scratch_batch = work;
        self.scratch_drops = drops;

        // Restore the one-at-a-time emission order: stable argsort by the
        // producing event's key (ties — several emissions from one event —
        // keep their call order; the index tie-break makes the order
        // total, so the allocation-free unstable sort is stable here).
        keys.order.clear();
        keys.order.extend(0..emitted.len());
        keys.order.sort_unstable_by(|&a, &b| {
            keys.emitted[a]
                .cmp(keys.emitted[b], &keys.paths)
                .then(a.cmp(&b))
        });
        if keys.order.iter().enumerate().any(|(i, &o)| i != o) {
            let mut cells: Vec<Option<Packet>> = emitted.into_iter().map(Some).collect();
            emitted = keys
                .order
                .iter()
                .map(|&o| cells[o].take().expect("permutation"))
                .collect();
        }
        self.scratch_keys = keys;

        let mut verdicts = vec![Verdict::Drop; n_in];
        let mut accepted = 0usize;
        for pkt in &emitted {
            // The sharded server's re-merge relies on every emission
            // carrying a valid slot annotation for its originating input.
            debug_assert!(
                pkt.meta.batch_slot.is_some_and(|s| (s as usize) < n_in),
                "batched emission lost its batch_slot annotation"
            );
            if let Some(slot) = pkt.meta.batch_slot {
                let v = &mut verdicts[slot as usize];
                if *v != Verdict::Accept {
                    *v = Verdict::Accept;
                    accepted += 1;
                }
            }
        }
        BatchOutput {
            emitted,
            verdicts,
            accepted,
            dropped,
        }
    }

    /// Hot-swaps to a new configuration, transferring state between
    /// same-name same-class elements ("we adapt the hot-swapping mechanism
    /// to work with configuration files stored in memory", §IV). On error
    /// the old configuration keeps running.
    ///
    /// # Errors
    ///
    /// Any parse/build error for the new configuration; the router is
    /// unchanged in that case.
    pub fn hot_swap(&mut self, new_config: &str) -> Result<(), ClickError> {
        let graph = ConfigGraph::parse(new_config)?;
        let mut built = build(&graph, &self.registry, &self.env)?;

        // Charge the hot-swap cost model (Table II): parse + instantiate,
        // plus device setup when this Click owns its devices (vanilla).
        let cost = &self.env.cost;
        let mut cycles = cost.hotswap_base + cost.element_instantiate * built.elements.len() as u64;
        if self.env.device_io {
            cycles += cost.device_setup;
        }
        self.env.meter.add(cycles);

        // State transfer: match by (name, class).
        for (new_idx, name) in built.names.iter().enumerate() {
            let matching_old = self
                .names
                .iter()
                .position(|n| n == name)
                .filter(|&old_idx| self.classes[old_idx] == built.classes[new_idx]);
            if let Some(old_idx) = matching_old {
                if let Some(state) = self.elements[old_idx].export_state() {
                    built.elements[new_idx].import_state(state);
                }
            }
        }

        // A hot-swap requested while a traversal sits interrupted (an
        // element panicked mid-batch) must not leak or misroute the
        // in-flight packets: drain them back to their pools first, then
        // size the queues for the new graph.
        self.drain_stale_pending();
        self.elements = built.elements;
        self.names = built.names;
        self.classes = built.classes;
        self.out_edges = built.out_edges;
        self.entry = built.entry;
        self.config_text = new_config.to_string();
        self.hotswaps += 1;
        self.reach = compute_reach(&self.out_edges);
        // The per-element pending queues must track the new graph size.
        self.pending.clear();
        self.pending.resize_with(self.elements.len(), VecDeque::new);
        Ok(())
    }

    /// Recycles packets stranded in the pending queues by a traversal
    /// that did not run to completion (an element panic caught by the
    /// caller). Deterministic: buffers return to their pools in one
    /// batched pass and the count is recorded in
    /// [`Router::stale_recycled`]. Called automatically at the start of
    /// every [`Router::process_batch`] and by [`Router::hot_swap`].
    fn drain_stale_pending(&mut self) {
        let stale: usize = self.pending.iter().map(VecDeque::len).sum();
        if stale == 0 {
            return;
        }
        self.stale_recycled += stale as u64;
        endbox_netsim::recycle_packets(
            self.pending
                .iter_mut()
                .flat_map(|queue| queue.drain(..))
                .map(|entry| entry.pkt),
        );
    }

    /// Number of packets currently queued inside an interrupted batch
    /// traversal (always 0 after a `process_batch` that returned).
    pub fn pending_depth(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Total packets recovered from interrupted traversals and recycled
    /// to their buffer pools.
    pub fn stale_recycled(&self) -> u64 {
        self.stale_recycled
    }

    /// Reads a handler on a named element (e.g. `("counter", "count")`).
    pub fn read_handler(&self, element: &str, handler: &str) -> Option<String> {
        let idx = self.names.iter().position(|n| n == element)?;
        self.elements[idx].read_handler(handler)
    }

    /// Writes a handler on a named element.
    ///
    /// # Errors
    ///
    /// [`ClickError::Handler`] if the element or handler does not exist.
    pub fn write_handler(
        &mut self,
        element: &str,
        handler: &str,
        value: &str,
    ) -> Result<(), ClickError> {
        let idx = self
            .names
            .iter()
            .position(|n| n == element)
            .ok_or_else(|| ClickError::Handler(format!("no element `{element}`")))?;
        self.elements[idx].write_handler(handler, value)
    }

    /// Element instance names in declaration order.
    pub fn element_names(&self) -> &[String] {
        &self.names
    }

    /// The currently active configuration text.
    pub fn config_text(&self) -> &str {
        &self.config_text
    }

    /// Number of successful hot-swaps.
    pub fn hotswap_count(&self) -> u64 {
        self.hotswaps
    }

    /// The router's environment.
    pub fn env(&self) -> &ElementEnv {
        &self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn pkt() -> Packet {
        Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            b"payload",
        )
    }

    /// Pushes one packet: a batch of one.
    fn one(r: &mut Router, pkt: Packet) -> BatchOutput {
        r.process_batch(vec![pkt])
    }

    #[test]
    fn nop_config_forwards() {
        let mut r =
            Router::from_config("FromDevice(tun0) -> ToDevice(tun0);", ElementEnv::default())
                .unwrap();
        let out = one(&mut r, pkt());
        assert_eq!(out.accepted, 1);
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(out.emitted[0].meta.verdict, Verdict::Accept);
    }

    #[test]
    fn discard_rejects() {
        let mut r =
            Router::from_config("FromDevice(tun0) -> Discard;", ElementEnv::default()).unwrap();
        let out = one(&mut r, pkt());
        assert_eq!(out.accepted, 0);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn unconnected_port_drops() {
        // IPFilter's deny port (1) is unconnected: denied packets are
        // dropped — and now counted instead of vanishing silently.
        let mut r = Router::from_config(
            "FromDevice(t) -> f :: IPFilter(deny dst port 2, allow all) -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        let out = one(&mut r, pkt()); // dst port 2 -> denied
        assert_eq!(out.accepted, 0);
        assert_eq!(out.dropped, 1, "unconnected-port drop must be observable");
        assert_eq!(r.read_handler("f", "denied").as_deref(), Some("1"));

        // Accepted packets record no drops.
        let ok = Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            1,
            99,
            b"x",
        );
        let out = one(&mut r, ok);
        assert_eq!(out.accepted, 1);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn batch_emitted_carry_slot_annotations() {
        let mut r =
            Router::from_config("FromDevice(t) -> ToDevice(t);", ElementEnv::default()).unwrap();
        let batch: PacketBatch = (0..3).map(|_| pkt()).collect();
        let out = r.process_batch(batch);
        let slots: Vec<Option<u32>> = out.emitted.iter().map(|p| p.meta.batch_slot).collect();
        assert_eq!(slots, vec![Some(0), Some(1), Some(2)]);
        assert!(out
            .emitted
            .iter()
            .all(|p| p.meta.verdict == Verdict::Accept));
    }

    #[test]
    fn fan_out_batch_remerge_order_is_pinned() {
        // Pin of the order-preservation invariant at a fan-out: a Tee
        // into two ToDevices emits exactly as N one-packet batches
        // would — per input slot, both branch emissions together (Tee
        // pushes its clone ports first, then port 0), slots in input
        // order. This is the order the module docs promise and the
        // sharded server's deterministic re-merge consumes.
        let mut r = Router::from_config(
            "FromDevice(t) -> tee :: Tee(2); tee[0] -> ToDevice(t); tee[1] -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        let out = r.process_batch((0..3).map(|_| pkt()).collect());
        let slots: Vec<Option<u32>> = out.emitted.iter().map(|p| p.meta.batch_slot).collect();
        assert_eq!(
            slots,
            vec![Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)],
            "emissions interleave per input slot, matching one-at-a-time pushes"
        );
        assert_eq!(out.accepted, 3);
        // And the slot-indexed re-merge picks the *first* emission of each
        // input, in input order.
        let firsts = out.into_first_emissions();
        let first_slots: Vec<Option<u32>> = firsts.iter().map(|p| p.meta.batch_slot).collect();
        assert_eq!(first_slots, vec![None, None, None], "annotation cleared");
        assert_eq!(firsts.len(), 3);
    }

    #[test]
    fn first_emissions_recycles_non_kept_packets() {
        use endbox_netsim::BufferPool;
        // A Tee doubles every pooled packet; `first_emissions_by_slot`
        // keeps one per slot and must recycle the rest back to the pool
        // in one batched pass — the satellite fix for the buffer leak.
        let mut r = Router::from_config(
            "FromDevice(t) -> tee :: Tee(2); tee[0] -> ToDevice(t); tee[1] -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        let pool = BufferPool::new();
        let batch: PacketBatch = (0..4)
            .map(|_| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    2,
                    b"dup",
                )
            })
            .collect();
        let before = pool.stats();
        let out = r.process_batch(batch);
        assert_eq!(out.emitted.len(), 8, "tee duplicated each packet");
        let firsts = out.first_emissions_by_slot();
        let after = pool.stats();
        assert_eq!(firsts.iter().flatten().count(), 4);
        assert_eq!(
            after.returned - before.returned,
            4,
            "the non-first emissions went back to the pool"
        );
        assert_eq!(
            after.batched_ops - before.batched_ops,
            1,
            "one pool lock for all non-kept emissions"
        );
        drop(firsts);
        let end = pool.stats();
        assert_eq!(
            end.returned - before.returned,
            8,
            "pool reconciles: every buffer eventually returned"
        );
    }

    #[test]
    fn first_emissions_survives_stale_slots() {
        // Emissions whose slot annotation is out of range (e.g. produced
        // before a mid-batch reconfiguration) must be recycled, not
        // panic the slot-indexed re-merge.
        let mut r =
            Router::from_config("FromDevice(t) -> ToDevice(t);", ElementEnv::default()).unwrap();
        let out = r.process_batch((0..3).map(|_| pkt()).collect());
        let shrunk = BatchOutput {
            emitted: out.emitted,
            verdicts: out.verdicts[..1].to_vec(), // pretend only 1 input
            accepted: 1,
            dropped: 0,
        };
        let firsts = shrunk.first_emissions_by_slot();
        assert_eq!(firsts.len(), 1);
        assert!(firsts[0].is_some());
    }

    #[test]
    fn batched_drops_recycle_buffers_under_one_lock() {
        use endbox_netsim::BufferPool;
        // Every packet is denied and lands on IPFilter's unconnected deny
        // port; the batch path must give all buffers back in one
        // `give_many` call.
        let mut r = Router::from_config(
            "FromDevice(t) -> f :: IPFilter(deny dst port 2, allow all) -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        let pool = BufferPool::new();
        let batch: PacketBatch = (0..6)
            .map(|_| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    2,
                    b"denied",
                )
            })
            .collect();
        let before = pool.stats();
        let out = r.process_batch(batch);
        assert_eq!(out.dropped, 6);
        let after = pool.stats();
        assert_eq!(after.returned - before.returned, 6, "all buffers recycled");
        assert_eq!(
            after.batched_ops - before.batched_ops,
            1,
            "one pool lock for the whole drop batch"
        );
    }

    #[test]
    fn entryless_router_recycles_its_input_under_one_lock() {
        use endbox_netsim::BufferPool;
        // A graph without `FromDevice` (which a signed config update can
        // install) drops every input; the buffers go back in one
        // `give_many` like every other router drop.
        let mut r = Router::from_config("c :: Counter -> Discard;", ElementEnv::default()).unwrap();
        let pool = BufferPool::new();
        let batch: PacketBatch = (0..6)
            .map(|_| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    2,
                    b"no entry",
                )
            })
            .collect();
        let before = pool.stats();
        let out = r.process_batch(batch);
        assert_eq!(out.verdicts, vec![Verdict::Drop; 6]);
        let after = pool.stats();
        assert_eq!(after.returned - before.returned, 6, "all buffers recycled");
        assert_eq!(
            after.batched_ops - before.batched_ops,
            1,
            "one pool lock for the whole dropped input"
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut r =
            Router::from_config("FromDevice(t) -> ToDevice(t);", ElementEnv::default()).unwrap();
        let out = r.process_batch(PacketBatch::new());
        assert_eq!(out.accepted, 0);
        assert!(out.emitted.is_empty());
        assert!(out.verdicts.is_empty());
    }

    #[test]
    fn batch_after_hotswap_uses_new_graph() {
        let mut r =
            Router::from_config("FromDevice(t) -> ToDevice(t);", ElementEnv::default()).unwrap();
        r.process_batch((0..4).map(|_| pkt()).collect());
        r.hot_swap("FromDevice(t) -> Discard;").unwrap();
        let out = r.process_batch((0..4).map(|_| pkt()).collect());
        assert_eq!(out.accepted, 0, "new config discards everything");
    }

    #[test]
    fn tee_emits_multiple() {
        let mut r = Router::from_config(
            "FromDevice(t) -> tee :: Tee(2); tee[0] -> ToDevice(t); tee[1] -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        let out = one(&mut r, pkt());
        assert_eq!(out.emitted.len(), 2);
    }

    #[test]
    fn handlers_reachable_by_name() {
        let mut r = Router::from_config(
            "FromDevice(t) -> c :: Counter -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        one(&mut r, pkt());
        one(&mut r, pkt());
        assert_eq!(r.read_handler("c", "count").as_deref(), Some("2"));
        r.write_handler("c", "reset", "").unwrap();
        assert_eq!(r.read_handler("c", "count").as_deref(), Some("0"));
        assert!(r.read_handler("nope", "count").is_none());
        assert!(r.write_handler("c", "bogus", "").is_err());
    }

    #[test]
    fn hotswap_preserves_counter_state() {
        let mut r = Router::from_config(
            "FromDevice(t) -> c :: Counter -> ToDevice(t);",
            ElementEnv::default(),
        )
        .unwrap();
        one(&mut r, pkt());
        r.hot_swap("FromDevice(t) -> c :: Counter -> f :: IPFilter(allow all) -> ToDevice(t);")
            .unwrap();
        assert_eq!(
            r.read_handler("c", "count").as_deref(),
            Some("1"),
            "state transferred"
        );
        one(&mut r, pkt());
        assert_eq!(r.read_handler("c", "count").as_deref(), Some("2"));
        assert_eq!(r.hotswap_count(), 1);
    }

    #[test]
    fn hotswap_failure_keeps_old_config() {
        let mut r =
            Router::from_config("FromDevice(t) -> ToDevice(t);", ElementEnv::default()).unwrap();
        let old = r.config_text().to_string();
        assert!(r
            .hot_swap("FromDevice(t) -> NoSuchElement -> ToDevice(t);")
            .is_err());
        assert_eq!(r.config_text(), old);
        assert_eq!(one(&mut r, pkt()).accepted, 1, "old config still works");
        assert_eq!(r.hotswap_count(), 0);
    }

    #[test]
    fn hotswap_charges_device_setup_only_for_vanilla() {
        let cost = endbox_netsim::CostModel::calibrated();

        let env_endbox = ElementEnv::default();
        let meter_endbox = env_endbox.meter.clone();
        let mut r1 = Router::from_config("FromDevice(t) -> ToDevice(t);", env_endbox).unwrap();
        meter_endbox.take();
        r1.hot_swap("FromDevice(t) -> ToDevice(t);").unwrap();
        let endbox_cycles = meter_endbox.read();

        let env_vanilla = ElementEnv {
            device_io: true,
            ..ElementEnv::default()
        };
        let meter_vanilla = env_vanilla.meter.clone();
        let mut r2 = Router::from_config("FromDevice(t) -> ToDevice(t);", env_vanilla).unwrap();
        meter_vanilla.take();
        r2.hot_swap("FromDevice(t) -> ToDevice(t);").unwrap();
        let vanilla_cycles = meter_vanilla.read();

        assert_eq!(vanilla_cycles - endbox_cycles, cost.device_setup);
    }

    #[test]
    fn bad_port_connections_rejected() {
        let err = Router::from_config("FromDevice(t) -> [1]ToDevice(t);", ElementEnv::default())
            .unwrap_err();
        assert!(matches!(err, ClickError::BadConnection(_)));

        let err = Router::from_config(
            "a :: Discard; FromDevice(t)[2] -> a;",
            ElementEnv::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ClickError::BadConnection(_)));
    }

    #[test]
    fn double_connection_rejected() {
        let err = Router::from_config(
            "f :: FromDevice(t); f -> Discard; f -> Discard;",
            ElementEnv::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ClickError::BadConnection(_)));
    }

    #[test]
    fn full_use_case_chain() {
        // The paper's DDoS prevention chain: IDS + rate limiting.
        let mut r = Router::from_config(
            "FromDevice(tun0) \
             -> ids :: IDSMatcher(COMMUNITY 50) \
             -> ts :: TrustedSplitter(RATE 1000000000, SAMPLE 100) \
             -> ToDevice(tun0); \
             ids[1] -> Discard; \
             ts[1] -> Discard;",
            ElementEnv::default(),
        )
        .unwrap();
        let out = one(&mut r, pkt());
        assert_eq!(out.accepted, 1);
        assert_eq!(r.read_handler("ids", "alerts").as_deref(), Some("0"));
        assert_eq!(r.read_handler("ts", "conformed").as_deref(), Some("1"));
    }

    #[test]
    fn element_base_cost_charged_per_traversal() {
        let env = ElementEnv::default();
        let meter = env.meter.clone();
        let cost = env.cost.clone();
        let mut r = Router::from_config("FromDevice(t) -> Counter -> Counter -> ToDevice(t);", env)
            .unwrap();
        meter.take();
        one(&mut r, pkt());
        // 4 elements traversed.
        assert_eq!(meter.read(), 4 * cost.click_element_base);
    }
}

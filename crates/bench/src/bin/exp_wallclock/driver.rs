//! Drives one deployment from one thread: peers are sessions multiplexed
//! by the driver, not threads. Every call into the system under test is
//! a public one and is wrapped in a span.

use crate::trace::Tracer;
use crate::workload::{
    Doorway, Generator, RecordPlan, Spec, Tally, PACED_RECORDS_PER_SECOND, WORKERS,
};
use endbox::error::EndBoxError;
use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::Delivery;
use endbox_netsim::Packet;
use std::time::{Duration, Instant};

/// How long a socket round waits for datagrams the kernel has accepted
/// to become readable before the record counts as failed.
const PUMP_DEADLINE: Duration = Duration::from_secs(2);

const PACED_PERIOD_NS: u64 = 1_000_000_000 / PACED_RECORDS_PER_SECOND;

/// Full IP packets the server delivered for one record — what the parity
/// preflight compares.
pub type Captured = (u64, Vec<Vec<u8>>);

/// One sharded deployment plus the generator and bookkeeping to drive it.
pub struct Bench {
    pub spec: &'static Spec,
    pub doorway: Doorway,
    pub s: ShardedScenario,
    gen: Generator,
    /// One reusable plan per client.
    plans: Vec<RecordPlan>,
    errored: Vec<bool>,
    sent_at_ns: Vec<u64>,
    /// Server-delivered packets per client (socket rounds regroup the
    /// event loop's dispatch-ordered results here).
    delivered: Vec<Vec<Packet>>,
    round: u64,
    /// `false` sends the open loop's records back to back (the preflight).
    pub pacing: bool,
    /// Start of the paced schedule (tracer clock).
    paced_epoch_ns: u64,
    paced_tick: u64,
    pub tally: Tally,
    /// Per record: send (closed loop) or due instant (open loop) to
    /// verified delivery.
    pub latencies_ns: Vec<u64>,
    /// Per round: how long after it was due the round's first record
    /// entered the system. A closed-loop round is due when the driver
    /// starts it, so this is the generator's own delay.
    pub late_ns: Vec<u64>,
    /// Time the paced driver busy-waited for its ticks: CPU the load
    /// generator burns, which `cpu_us_per_pkt` leaves out.
    pub spun_ns: u64,
    /// Wire datagrams the clients emitted.
    pub datagrams: u64,
    /// `Some` while the parity preflight records server deliveries.
    pub captured: Option<Vec<Captured>>,
}

impl Bench {
    /// Builds the deployment: IAS/CA, enrol + attest + handshake of every
    /// client (all inside `build_sharded`).
    pub fn build(spec: &'static Spec, doorway: Doorway, seed: u64) -> Result<Bench, EndBoxError> {
        let s = spec.builder(doorway).build_sharded(WORKERS)?;
        Ok(Bench {
            spec,
            doorway,
            s,
            gen: Generator::new(spec, seed),
            plans: (0..spec.clients).map(|_| RecordPlan::default()).collect(),
            errored: vec![false; spec.clients],
            sent_at_ns: vec![0; spec.clients],
            delivered: (0..spec.clients).map(|_| Vec::new()).collect(),
            round: 0,
            pacing: true,
            paced_epoch_ns: 0,
            paced_tick: 0,
            tally: Tally::default(),
            latencies_ns: Vec::new(),
            late_ns: Vec::new(),
            spun_ns: 0,
            datagrams: 0,
            captured: None,
        })
    }

    /// Restarts the open-loop schedule at "now" (after set-up work that
    /// must not count as generator lateness).
    pub fn restart_schedule(&mut self, tr: &Tracer) {
        self.paced_epoch_ns = tr.now_ns();
        self.paced_tick = 0;
    }

    /// Forgets the samples collected so far (not the tally).
    pub fn clear_samples(&mut self) {
        self.latencies_ns.clear();
        self.late_ns.clear();
    }

    /// One round: every sender of the round seals one record, the server
    /// takes them, every output is checked.
    pub fn round(&mut self, tr: &mut Tracer) {
        let senders = self.spec.senders(self.doorway, self.round);
        self.round += 1;
        let rid0 = self.gen.next_record_id();
        let round_span = tr.open("round", rid0);

        let paced = self.doorway == Doorway::SocketPaced && self.pacing;
        let due_ns = if paced {
            let due = self.paced_epoch_ns + self.paced_tick * PACED_PERIOD_NS;
            self.paced_tick += 1;
            let wait = tr.open("idle.wait", rid0);
            self.spun_ns += wait_until(tr, due);
            tr.close(wait);
            due
        } else {
            tr.now_ns()
        };

        let gen_span = tr.open("gen.build", rid0);
        let mut batches: Vec<Vec<Packet>> = Vec::with_capacity(senders.len());
        for c in senders.clone() {
            batches.push(self.gen.next_record(c, &mut self.plans[c]));
        }
        tr.close(gen_span);

        // Client side: each sender seals its record; call-driven rounds
        // collect the datagrams, socket rounds put them on the wire.
        let mut call_datagrams: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut counts = vec![0usize; self.spec.clients];
        for (c, packets) in senders.clone().zip(batches) {
            let rid = self.plans[c].id;
            let now = tr.now_ns();
            if c == senders.start {
                self.late_ns.push(now - due_ns);
            }
            self.sent_at_ns[c] = if paced { due_ns } else { now };
            self.errored[c] = false;
            let span = tr.open("client.send_batch", rid);
            let sealed = self.s.clients[c].send_batch(packets);
            tr.close(span);
            match sealed {
                Err(_) => self.errored[c] = true,
                Ok(sealed) => {
                    counts[c] = sealed.len();
                    self.datagrams += sealed.len() as u64;
                    if self.doorway.uses_sockets() {
                        let span = tr.open("wire.forward", rid);
                        self.s.send_wire_datagrams(c as u64, sealed);
                        tr.close(span);
                    } else {
                        call_datagrams.extend(sealed.into_iter().map(|d| (c as u64, d)));
                    }
                }
            }
        }

        // Server side.
        for c in senders.clone() {
            self.delivered[c].clear();
        }
        if self.doorway.uses_sockets() {
            let expected: usize = counts.iter().sum();
            let span = tr.open("frontend.pump", rid0);
            let results = self.pump_until(expected);
            tr.close(span);
            if results.len() != expected {
                // Lost on the wire: every sender of the round is suspect.
                for c in senders.clone() {
                    self.errored[c] = true;
                }
            }
            for (peer, result) in results {
                self.collect(peer as usize, result);
            }
        } else {
            let span = tr.open("server.receive", rid0);
            let results = self.s.server.receive_datagrams(call_datagrams);
            tr.close(span);
            let mut results = results.into_iter();
            for c in senders.clone() {
                for _ in 0..counts[c] {
                    let result = results.next().expect("one result per datagram");
                    self.collect(c, result);
                }
            }
        }

        // Output check (and, on the echo doorway, the way back).
        for c in senders.clone() {
            let rid = self.plans[c].id;
            if let Some(captured) = self.captured.as_mut() {
                let bytes = self.delivered[c]
                    .iter()
                    .map(|p| p.bytes().to_vec())
                    .collect();
                captured.push((rid, bytes));
            }
            if self.doorway == Doorway::SocketEcho && !self.delivered[c].is_empty() {
                let forwarded = std::mem::take(&mut self.delivered[c]);
                let span = tr.open("server.egress", rid);
                let wire = self.s.egress_batch_to_client(c, &forwarded);
                tr.close(span);
                let span = tr.open("client.receive", rid);
                match wire {
                    Err(_) => self.errored[c] = true,
                    Ok(wire) => {
                        for datagram in &wire {
                            match self.s.clients[c].receive_datagram_batch(datagram) {
                                Ok(packets) => self.delivered[c].extend(packets),
                                Err(_) => self.errored[c] = true,
                            }
                        }
                    }
                }
                tr.close(span);
            }
            let span = tr.open("verify", rid);
            self.tally
                .check(&self.plans[c], &self.delivered[c], self.errored[c]);
            tr.close(span);
            self.latencies_ns.push(tr.now_ns() - self.sent_at_ns[c]);
        }
        tr.close(round_span);
    }

    /// Runs the event loop until `expected` datagrams came out of it (the
    /// kernel may hand them over a moment after `send_to` returned).
    fn pump_until(&mut self, expected: usize) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        let mut results = self.s.pump_async();
        if results.len() < expected {
            let deadline = Instant::now() + PUMP_DEADLINE;
            while results.len() < expected && Instant::now() < deadline {
                std::hint::spin_loop();
                results.extend(self.s.pump_async());
            }
        }
        results
    }

    fn collect(&mut self, client: usize, result: Result<Delivery, EndBoxError>) {
        match result {
            Ok(Delivery::Pending) => {}
            Ok(Delivery::PacketBatch { packets, .. }) => self.delivered[client].extend(packets),
            Ok(Delivery::Packet { packet, .. }) => self.delivered[client].push(packet),
            Ok(_) | Err(_) => self.errored[client] = true,
        }
    }
}

/// Busy-waits for `due_ns`; returns how long that took. The paced driver
/// never sleeps: a CPU that has idled runs the next record ~15% slower on
/// this kind of VM, by an amount the host sets, and `thread::sleep`
/// overshoots by up to a few hundred microseconds after a sleep of
/// milliseconds, which would be charged to the record's latency.
fn wait_until(tr: &Tracer, due_ns: u64) -> u64 {
    let start = tr.now_ns();
    let mut now = start;
    while now < due_ns {
        std::hint::spin_loop();
        now = tr.now_ns();
    }
    now - start
}

/// The single-threaded reference deployment: `Scenario` around the inline
/// `EndBoxServer`, fed the same generated records. Used by the parity
/// preflight and by the `server.reference_receive` replay.
pub struct Reference {
    spec: &'static Spec,
    doorway: Doorway,
    s: Scenario,
    gen: Generator,
    plan: RecordPlan,
    round: u64,
    /// Time spent inside `EndBoxServer::receive_datagram`.
    pub receive_ns: u64,
    /// Packets those calls delivered.
    pub delivered: u64,
}

impl Reference {
    pub fn build(
        spec: &'static Spec,
        doorway: Doorway,
        seed: u64,
    ) -> Result<Reference, EndBoxError> {
        Ok(Reference {
            spec,
            doorway,
            s: spec.builder(Doorway::Call).build()?,
            gen: Generator::new(spec, seed),
            plan: RecordPlan::default(),
            round: 0,
            receive_ns: 0,
            delivered: 0,
        })
    }

    /// One round of the same sender schedule as [`Bench::round`]; returns
    /// what the inline server delivered, record by record.
    pub fn round(&mut self) -> Result<Vec<Captured>, EndBoxError> {
        let senders = self.spec.senders(self.doorway, self.round);
        self.round += 1;
        let mut out = Vec::with_capacity(senders.len());
        for c in senders {
            let packets = self.gen.next_record(c, &mut self.plan);
            let sealed = self.s.clients[c].send_batch(packets)?;
            let mut delivered = Vec::new();
            for datagram in &sealed {
                let start = Instant::now();
                let result = self.s.server.receive_datagram(c as u64, datagram);
                self.receive_ns += start.elapsed().as_nanos() as u64;
                match result? {
                    Delivery::Pending => {}
                    Delivery::PacketBatch { packets, .. } => {
                        delivered.extend(packets.iter().map(|p| p.bytes().to_vec()));
                    }
                    Delivery::Packet { packet, .. } => delivered.push(packet.bytes().to_vec()),
                    _ => return Err(EndBoxError::NotReady("unexpected delivery type")),
                }
            }
            self.delivered += delivered.len() as u64;
            out.push((self.plan.id, delivered));
        }
        Ok(out)
    }
}

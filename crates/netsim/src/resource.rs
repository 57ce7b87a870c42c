//! Simulated machines and links.
//!
//! A [`Machine`] schedules jobs (cycle counts) onto its cores using
//! earliest-free-core dispatch; a [`Link`] serialises transmissions at its
//! configured rate plus propagation delay. Both track busy time so
//! experiments can report CPU utilisation (Fig. 10).

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Core clock of the paper's class A machines (§V-B).
pub const CLASS_A_HZ: u64 = 3_500_000_000;
/// Core clock of the paper's class B machines (§V-B).
pub const CLASS_B_HZ: u64 = 3_300_000_000;

/// Static description of a machine class.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable name ("class A", "class B").
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Core frequency in Hz.
    pub freq_hz: u64,
    /// Hyper-threading yield: effective throughput multiplier when all
    /// logical threads are busy (1.0 = HT off, paper machines run HT on).
    pub ht_factor: f64,
}

impl MachineSpec {
    /// Class A: SGX-capable 4-core Xeon v5 (§V-B).
    pub fn class_a() -> Self {
        MachineSpec {
            name: "class A (Xeon v5, SGX)",
            cores: 4,
            freq_hz: CLASS_A_HZ,
            ht_factor: 1.3,
        }
    }

    /// Class B: non-SGX 4-core Xeon v2 (§V-B).
    pub fn class_b() -> Self {
        MachineSpec {
            name: "class B (Xeon v2)",
            cores: 4,
            freq_hz: CLASS_B_HZ,
            ht_factor: 1.3,
        }
    }

    /// Number of execution slots the simulator models: hyper-threading
    /// yields `ceil(cores * ht_factor)` full-speed slots (an underloaded
    /// machine runs single threads at full core speed; the aggregate
    /// capacity matches the HT-enabled throughput).
    pub fn slots(&self) -> usize {
        (self.cores as f64 * self.ht_factor).ceil() as usize
    }
}

/// A multi-core machine executing jobs measured in cycles.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    /// Next-free instants, one per logical execution slot.
    slots: BinaryHeap<Reverse<SimTime>>,
    busy: SimDuration,
    /// Multiplier applied to job durations (process-contention model).
    contention: f64,
}

impl Machine {
    /// Creates a machine with `spec.slots()` full-speed execution slots.
    pub fn new(spec: MachineSpec) -> Self {
        let n_slots = spec.slots();
        let slots = (0..n_slots).map(|_| Reverse(SimTime::ZERO)).collect();
        Machine {
            spec,
            slots,
            busy: SimDuration::ZERO,
            contention: 1.0,
        }
    }

    /// The machine's spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Sets a contention multiplier ≥ 1.0 modelling scheduler overhead when
    /// many single-threaded processes (one OpenVPN instance per client,
    /// §V-E) oversubscribe the cores.
    pub fn set_contention(&mut self, factor: f64) {
        assert!(factor >= 1.0);
        self.contention = factor;
    }

    /// Duration a job of `cycles` takes on one slot (full core speed).
    fn job_duration(&self, cycles: u64) -> SimDuration {
        SimDuration::from_secs_f64(cycles as f64 * self.contention / self.spec.freq_hz as f64)
    }

    /// Schedules a job that becomes ready at `ready`; returns completion.
    pub fn run_job(&mut self, ready: SimTime, cycles: u64) -> SimTime {
        let Reverse(free) = self.slots.pop().expect("machine has slots");
        let start = ready.max(free);
        let d = self.job_duration(cycles);
        let end = start + d;
        self.busy += d;
        self.slots.push(Reverse(end));
        end
    }

    /// Schedules a job pinned to run serially after all previously pinned
    /// jobs of the same flow (single-threaded process model): the caller
    /// supplies and updates the flow's own `serial_free` watermark.
    pub fn run_job_serial(
        &mut self,
        ready: SimTime,
        cycles: u64,
        serial_free: &mut SimTime,
    ) -> SimTime {
        let start = ready.max(*serial_free);
        let d = self.job_duration(cycles);
        let end = start + d;
        self.busy += d;
        *serial_free = end;
        end
    }

    /// Schedules a job belonging to a single-threaded flow *and* competing
    /// for the machine's execution slots: it starts no earlier than the
    /// flow's previous job finished, and no earlier than a slot frees up.
    pub fn run_job_flow(&mut self, ready: SimTime, cycles: u64, flow: &mut SimTime) -> SimTime {
        let Reverse(free) = self.slots.pop().expect("machine has slots");
        let start = ready.max(free).max(*flow);
        let d = self.job_duration(cycles);
        let end = start + d;
        self.busy += d;
        self.slots.push(Reverse(end));
        *flow = end;
        end
    }

    /// Utilisation in [0, 1] over `elapsed` (can exceed 1 if oversubscribed;
    /// clamped).
    pub fn utilisation(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        let slots = self.spec.slots() as f64;
        (self.busy.as_secs_f64() / (elapsed.as_secs_f64() * slots)).min(1.0)
    }
}

/// A point-to-point link with a serialised transmit queue.
#[derive(Debug, Clone)]
pub struct Link {
    rate_bps: u64,
    delay: SimDuration,
    free_at: SimTime,
    busy: SimDuration,
}

impl Link {
    /// Creates a link with `rate_bps` capacity and `delay` propagation.
    pub fn new(rate_bps: u64, delay: SimDuration) -> Self {
        Link {
            rate_bps,
            delay,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// The paper's testbed link: 10 Gbps, 30 µs one-way.
    pub fn ten_gbps() -> Self {
        Link::new(10_000_000_000, SimDuration::from_micros(30))
    }

    /// Transmits `bytes` starting no earlier than `ready`; returns arrival
    /// time at the far end.
    pub fn transmit(&mut self, ready: SimTime, bytes: usize) -> SimTime {
        let start = ready.max(self.free_at);
        let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps as f64);
        self.free_at = start + tx;
        self.busy += tx;
        self.free_at + self.delay
    }

    /// One-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Link rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_parallelism() {
        let mut m = Machine::new(MachineSpec::class_a());
        let n = MachineSpec::class_a().slots();
        assert_eq!(n, 6, "4 cores x 1.3 HT -> 6 slots");
        // All slots run equal jobs in parallel.
        let ends: Vec<SimTime> = (0..n)
            .map(|_| m.run_job(SimTime::ZERO, 1_000_000))
            .collect();
        assert!(ends.iter().all(|&e| e == ends[0]));
        // One more job queues behind them.
        let extra = m.run_job(SimTime::ZERO, 1_000_000);
        assert!(extra > ends[0]);
    }

    #[test]
    fn serial_jobs_do_not_overlap() {
        let mut m = Machine::new(MachineSpec::class_a());
        let mut flow = SimTime::ZERO;
        let e1 = m.run_job_serial(SimTime::ZERO, 1_000, &mut flow);
        let e2 = m.run_job_serial(SimTime::ZERO, 1_000, &mut flow);
        assert!(e2 > e1);
        assert_eq!(e2.as_nanos(), 2 * e1.as_nanos());
    }

    #[test]
    fn contention_slows_jobs() {
        let mut fast = Machine::new(MachineSpec::class_b());
        let mut slow = Machine::new(MachineSpec::class_b());
        slow.set_contention(2.0);
        let ef = fast.run_job(SimTime::ZERO, 1_000_000);
        let es = slow.run_job(SimTime::ZERO, 1_000_000);
        assert_eq!(es.as_nanos(), 2 * ef.as_nanos());
    }

    #[test]
    fn link_serialises() {
        let mut l = Link::new(8_000_000, SimDuration::from_millis(1)); // 1 B/us
        let a1 = l.transmit(SimTime::ZERO, 1_000); // tx 1ms
        assert_eq!(a1.as_nanos(), 2_000_000); // 1ms tx + 1ms delay
        let a2 = l.transmit(SimTime::ZERO, 1_000); // queued behind first
        assert_eq!(a2.as_nanos(), 3_000_000);
    }

    #[test]
    fn utilisation_bounds() {
        let mut m = Machine::new(MachineSpec::class_a());
        m.run_job(SimTime::ZERO, 3_500_000); // ~1.54ms on one slot (HT)
        let u = m.utilisation(SimDuration::from_millis(2));
        assert!(u > 0.0 && u < 1.0, "{u}");
    }
}

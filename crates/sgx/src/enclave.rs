//! The enclave container: life cycle, a named ecall interface with
//! transition accounting, and the in-enclave service surface (sealing,
//! reports, trusted time, EPC).
//!
//! The interface is *closed*: invoking an undeclared ecall fails, and
//! every transition charges its cost to the shared [`CycleMeter`].
//! Nothing in the model leaves the enclave, so there are no ocalls.

use crate::attestation::{CpuIdentity, Report, USER_DATA_LEN};
use crate::epc::EpcAllocator;
use crate::error::EnclaveError;
use crate::measurement::Measurement;
use crate::sealing;
use crate::trusted_time::TrustedTime;
use crate::SgxMode;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::time::{SharedClock, SimTime};
use rand::SeedableRng;
use std::collections::HashSet;

/// Transition counters for the enclave interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounters {
    /// Number of ecall transitions made.
    pub ecalls: u64,
}

/// Services available to code running *inside* the enclave.
#[derive(Debug)]
pub struct EnclaveServices {
    measurement: Measurement,
    mode: SgxMode,
    cost: CostModel,
    meter: CycleMeter,
    epc: EpcAllocator,
    cpu: CpuIdentity,
    trusted_time: TrustedTime,
    rng: rand::rngs::StdRng,
}

impl EnclaveServices {
    /// The enclave's measurement.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The execution mode.
    pub fn mode(&self) -> SgxMode {
        self.mode
    }

    /// Charges in-enclave computation to the cycle meter.
    pub fn charge(&self, cycles: u64) {
        self.meter.add(cycles);
    }

    /// Charges the EPC memory-encryption cost for touching `bytes` inside
    /// the enclave (hardware mode only).
    pub fn charge_epc_traffic(&self, bytes: usize) {
        if self.mode == SgxMode::Hardware {
            self.meter
                .add((self.cost.epc_per_byte * bytes as f64) as u64);
        }
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// A handle to the machine's cycle meter (for in-enclave components
    /// that charge costs themselves, e.g. the VPN data channel).
    pub fn meter_handle(&self) -> CycleMeter {
        self.meter.clone()
    }

    /// Creates a local-attestation report binding `user_data` to this
    /// enclave's measurement (Fig. 4 step 2).
    pub fn create_report(&self, user_data: [u8; USER_DATA_LEN]) -> Report {
        Report::create(&self.cpu, self.measurement, user_data)
    }

    /// Seals data to this enclave identity.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.charge(self.cost.crypto_cycles(plaintext.len()));
        sealing::seal(
            self.cpu.fuse_seed(),
            &self.measurement,
            plaintext,
            &mut self.rng,
        )
    }

    /// Unseals data previously sealed by this enclave identity.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::UnsealFailed`] on authentication failure.
    pub fn unseal(&mut self, blob: &[u8]) -> Result<Vec<u8>, EnclaveError> {
        self.charge(self.cost.crypto_cycles(blob.len()));
        sealing::unseal(self.cpu.fuse_seed(), &self.measurement, blob)
    }

    /// Reads SGX trusted time (expensive; see
    /// [`crate::trusted_time::TrustedTime`]).
    pub fn trusted_now(&self) -> SimTime {
        self.trusted_time.now()
    }

    /// Number of trusted-time reads so far.
    pub fn trusted_time_reads(&self) -> u64 {
        self.trusted_time.read_count()
    }

    /// Allocates enclave memory (EPC-accounted).
    pub fn epc_alloc(&mut self, bytes: usize) {
        self.epc.alloc(bytes);
    }

    /// Frees enclave memory.
    pub fn epc_free(&mut self, bytes: usize) {
        self.epc.free(bytes);
    }

    /// EPC accounting snapshot.
    pub fn epc(&self) -> &EpcAllocator {
        &self.epc
    }

    /// In-enclave RNG (seeded deterministically per enclave for the
    /// simulation).
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.rng
    }
}

/// Life-cycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeCycle {
    Alive,
    Destroyed,
}

/// An enclave holding trusted state `T`, reachable only through declared
/// ecalls.
#[derive(Debug)]
pub struct Enclave<T> {
    state: T,
    services: EnclaveServices,
    declared_ecalls: HashSet<String>,
    counters: CallCounters,
    life: LifeCycle,
}

impl<T> Enclave<T> {
    /// Invokes the ecall `name`, giving `f` access to the trusted state and
    /// the in-enclave services. Charges one transition.
    ///
    /// # Errors
    ///
    /// * [`EnclaveError::Destroyed`] after [`Enclave::destroy`].
    /// * [`EnclaveError::UndeclaredCall`] for unknown ecall names — the
    ///   closed-interface defence of §IV-B.
    pub fn ecall<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T, &mut EnclaveServices) -> R,
    ) -> Result<R, EnclaveError> {
        if self.life == LifeCycle::Destroyed {
            return Err(EnclaveError::Destroyed);
        }
        if !self.declared_ecalls.contains(name) {
            return Err(EnclaveError::UndeclaredCall(name.to_string()));
        }
        self.transit(1);
        Ok(f(&mut self.state, &mut self.services))
    }

    /// Makes `n` ecall transitions that run no body: counted and charged
    /// exactly as `n` empty declared ecalls, but reachable under no name.
    /// The §IV-A ablation prices its per-crypto-operation crossings so.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::Destroyed`] after [`Enclave::destroy`].
    pub fn empty_transitions(&mut self, n: u64) -> Result<(), EnclaveError> {
        if self.life == LifeCycle::Destroyed {
            return Err(EnclaveError::Destroyed);
        }
        self.transit(n);
        Ok(())
    }

    fn transit(&mut self, n: u64) {
        self.counters.ecalls += n;
        let services = &self.services;
        services
            .meter
            .add(n * services.mode.transition_cycles(&services.cost));
    }

    /// Destroys the enclave; further ecalls fail. (An attacker controlling
    /// the untrusted host can always do this — a DoS that only hurts the
    /// client itself, §V-A.)
    pub fn destroy(&mut self) {
        self.life = LifeCycle::Destroyed;
    }

    /// The enclave measurement.
    pub fn measurement(&self) -> Measurement {
        self.services.measurement
    }

    /// The execution mode.
    pub fn mode(&self) -> SgxMode {
        self.services.mode
    }

    /// Transition counters.
    pub fn counters(&self) -> CallCounters {
        self.counters
    }

    /// Number of declared ecalls.
    pub fn declared_ecall_count(&self) -> usize {
        self.declared_ecalls.len()
    }

    /// Read-only access to the in-enclave services (EPC stats etc.).
    pub fn services(&self) -> &EnclaveServices {
        &self.services
    }
}

/// Builder for [`Enclave`].
#[derive(Debug)]
pub struct EnclaveBuilder {
    code_identity: Vec<u8>,
    embedded_config: Vec<u8>,
    mode: SgxMode,
    declared_ecalls: Vec<String>,
    cost: CostModel,
    meter: CycleMeter,
    epc_capacity: usize,
    /// `None` until [`EnclaveBuilder::cpu`]: the default platform's key
    /// is derived only if the enclave is built on it.
    cpu: Option<CpuIdentity>,
    clock: SharedClock,
    rng_seed: u64,
}

impl EnclaveBuilder {
    /// Starts building an enclave whose measurement derives from
    /// `code_identity`.
    pub fn new(code_identity: &[u8]) -> Self {
        EnclaveBuilder {
            code_identity: code_identity.to_vec(),
            embedded_config: Vec::new(),
            mode: SgxMode::Hardware,
            declared_ecalls: Vec::new(),
            cost: CostModel::calibrated(),
            meter: CycleMeter::new(),
            epc_capacity: crate::epc::DEFAULT_CAPACITY,
            cpu: None,
            clock: SharedClock::new(),
            rng_seed: 0x5eed,
        }
    }

    /// Data baked into the binary at build time and covered by the
    /// measurement (EndBox: the CA public key, §III-C).
    pub fn embedded_config(mut self, config: &[u8]) -> Self {
        self.embedded_config = config.to_vec();
        self
    }

    /// Execution mode.
    pub fn mode(mut self, mode: SgxMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declares the ecall interface.
    pub fn declare_ecalls<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.declared_ecalls
            .extend(names.into_iter().map(str::to_string));
        self
    }

    /// Cost model to charge against.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Cycle meter shared with the rest of the machine's components.
    pub fn meter(mut self, meter: CycleMeter) -> Self {
        self.meter = meter;
        self
    }

    /// EPC capacity override (default 128 MB).
    pub fn epc_capacity(mut self, bytes: usize) -> Self {
        self.epc_capacity = bytes;
        self
    }

    /// The platform this enclave runs on.
    pub fn cpu(mut self, cpu: CpuIdentity) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Simulation clock backing trusted time.
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Deterministic seed for the in-enclave RNG.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Creates and initialises the enclave; `init` runs inside and builds
    /// the trusted state.
    pub fn build<T>(self, init: impl FnOnce(&mut EnclaveServices) -> T) -> Enclave<T> {
        let measurement = Measurement::of(&self.code_identity, &self.embedded_config);
        let epc = EpcAllocator::new(
            self.epc_capacity,
            self.cost.epc_page_fault,
            self.meter.clone(),
        );
        let trusted_time =
            TrustedTime::new(self.clock, self.cost.trusted_time_read, self.meter.clone());
        let mut services = EnclaveServices {
            measurement,
            mode: self.mode,
            cost: self.cost,
            meter: self.meter,
            epc,
            cpu: self
                .cpu
                .unwrap_or_else(|| CpuIdentity::from_seed([0u8; 32])),
            trusted_time,
            rng: rand::rngs::StdRng::seed_from_u64(self.rng_seed),
        };
        let state = init(&mut services);
        Enclave {
            state,
            services,
            declared_ecalls: self.declared_ecalls.into_iter().collect(),
            counters: CallCounters::default(),
            life: LifeCycle::Alive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enclave() -> (Enclave<u64>, CycleMeter) {
        let meter = CycleMeter::new();
        let e = EnclaveBuilder::new(b"test-enclave")
            .declare_ecalls(["increment", "get"])
            .meter(meter.clone())
            .build(|_| 0u64);
        (e, meter)
    }

    #[test]
    fn ecalls_run_and_charge() {
        let (mut e, meter) = enclave();
        let cost = CostModel::calibrated();
        e.ecall("increment", |s, _| *s += 1).unwrap();
        let v = e.ecall("get", |s, _| *s).unwrap();
        assert_eq!(v, 1);
        assert_eq!(e.counters().ecalls, 2);
        assert_eq!(meter.read(), 2 * cost.ecall_hw);
    }

    #[test]
    fn undeclared_ecall_rejected() {
        let (mut e, _) = enclave();
        let err = e.ecall("read_arbitrary_memory", |_, _| ()).unwrap_err();
        assert!(matches!(err, EnclaveError::UndeclaredCall(_)));
        assert_eq!(e.counters().ecalls, 0);
    }

    #[test]
    fn empty_transitions_charge_and_count_as_empty_ecalls() {
        for mode in [SgxMode::Hardware, SgxMode::Simulation] {
            let build = |meter: &CycleMeter| {
                EnclaveBuilder::new(b"x")
                    .mode(mode)
                    .declare_ecalls(["f"])
                    .meter(meter.clone())
                    .build(|_| ())
            };
            let (meter_a, meter_b) = (CycleMeter::new(), CycleMeter::new());
            let (mut a, mut b) = (build(&meter_a), build(&meter_b));
            for _ in 0..12 {
                a.ecall("f", |_, _| ()).unwrap();
            }
            b.empty_transitions(12).unwrap();
            assert_eq!(meter_b.read(), meter_a.read(), "{mode:?}");
            assert_eq!(b.counters(), a.counters(), "{mode:?}");
            assert_eq!(b.counters().ecalls, 12);
            b.destroy();
            assert_eq!(b.empty_transitions(1), Err(EnclaveError::Destroyed));
        }
    }

    #[test]
    fn simulation_mode_is_cheaper() {
        let meter = CycleMeter::new();
        let mut e = EnclaveBuilder::new(b"test")
            .mode(SgxMode::Simulation)
            .declare_ecalls(["f"])
            .meter(meter.clone())
            .build(|_| ());
        e.ecall("f", |_, _| ()).unwrap();
        let cost = CostModel::calibrated();
        assert_eq!(meter.read(), cost.ecall_sim);
        assert!(cost.ecall_sim < cost.ecall_hw);
    }

    #[test]
    fn destroyed_enclave_rejects_ecalls() {
        let (mut e, _) = enclave();
        e.destroy();
        assert_eq!(e.ecall("get", |s, _| *s), Err(EnclaveError::Destroyed));
    }

    #[test]
    fn seal_unseal_through_services() {
        let (mut e, _) = enclave();
        let blob = e
            .ecall("increment", |_, svc| svc.seal(b"key material"))
            .unwrap();
        let out = e.ecall("get", |_, svc| svc.unseal(&blob)).unwrap().unwrap();
        assert_eq!(out, b"key material");
    }

    #[test]
    fn measurement_depends_on_embedded_config() {
        let a = EnclaveBuilder::new(b"code")
            .embedded_config(b"ca1")
            .build(|_| ());
        let b = EnclaveBuilder::new(b"code")
            .embedded_config(b"ca2")
            .build(|_| ());
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn report_carries_measurement() {
        let (mut e, _) = enclave();
        let mr = e.measurement();
        let rep = e
            .ecall("get", |_, svc| svc.create_report([5u8; 64]))
            .unwrap();
        assert_eq!(rep.measurement, mr);
    }

    #[test]
    fn epc_traffic_charged_only_in_hardware_mode() {
        let meter_hw = CycleMeter::new();
        let mut hw = EnclaveBuilder::new(b"x")
            .declare_ecalls(["f"])
            .meter(meter_hw.clone())
            .build(|_| ());
        meter_hw.take();
        hw.ecall("f", |_, svc| svc.charge_epc_traffic(100_000))
            .unwrap();
        let cost = CostModel::calibrated();
        assert_eq!(
            meter_hw.read(),
            cost.ecall_hw + (cost.epc_per_byte * 100_000.0) as u64
        );

        let meter_sim = CycleMeter::new();
        let mut sim = EnclaveBuilder::new(b"x")
            .mode(SgxMode::Simulation)
            .declare_ecalls(["f"])
            .meter(meter_sim.clone())
            .build(|_| ());
        meter_sim.take();
        sim.ecall("f", |_, svc| svc.charge_epc_traffic(100_000))
            .unwrap();
        assert_eq!(meter_sim.read(), cost.ecall_sim);
    }
}

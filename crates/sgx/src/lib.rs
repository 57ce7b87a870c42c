//! A software model of Intel SGX for the EndBox reproduction.
//!
//! The paper's security and performance arguments rest on specific SGX
//! mechanisms; this crate reproduces each one explicitly instead of relying
//! on SGX hardware (unavailable here):
//!
//! * [`enclave`] — enclave life cycle, a closed, *named* ecall interface
//!   (EndBox declares one name per ecall body; the paper's 70 ecalls and
//!   20 ocalls, §IV-B, are mapped onto them in `docs/architecture.md`
//!   §8), and per-transition cycle accounting.
//! * [`epc`] — the 128 MB enclave page cache with paging penalties (§II-C).
//! * [`measurement`] — MRENCLAVE-style code measurements.
//! * [`sealing`] — sealed storage keyed by CPU fuse key + measurement.
//! * [`trusted_time`] — the trusted time source used by `TrustedSplitter`.
//! * [`attestation`] — reports, the Quoting Enclave, and a simulated Intel
//!   Attestation Service (Fig. 4).
//!
//! Modes: [`SgxMode::Hardware`] charges real transition/EPC costs;
//! [`SgxMode::Simulation`] models the SDK's simulation mode (cheap guarded
//! calls, no memory-encryption overhead) — the paper evaluates both
//! (EndBox-SGX vs EndBox-SIM).

#![deny(unsafe_code)]

pub mod attestation;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod measurement;
pub mod sealing;
pub mod trusted_time;

pub use enclave::{Enclave, EnclaveBuilder, EnclaveServices};
pub use error::EnclaveError;
pub use measurement::Measurement;

/// Whether the enclave runs with hardware protection or in the SDK's
/// simulation mode (§IV: "the SDK offers a simulation mode that allows the
/// execution of SGX applications on unsupported hardware").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SgxMode {
    /// Real SGX instructions: full transition and EPC costs.
    #[default]
    Hardware,
    /// SDK simulation mode: same behaviour, reduced costs, no hardware
    /// security guarantees.
    Simulation,
}

impl SgxMode {
    /// Cycle cost of one ecall transition pair (enter and exit) in this mode.
    pub fn transition_cycles(self, cost: &endbox_netsim::CostModel) -> u64 {
        match self {
            SgxMode::Hardware => cost.ecall_hw,
            SgxMode::Simulation => cost.ecall_sim,
        }
    }
}

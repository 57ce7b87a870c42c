//! Remote attestation: reports, the Quoting Enclave and a simulated Intel
//! Attestation Service (IAS).
//!
//! Reproduces the message flow of Fig. 4: an enclave creates a *report*
//! binding user data (the enclave's fresh public key) to its measurement;
//! the Quoting Enclave converts the report into a *quote* signed with the
//! platform's attestation key (fused into the CPU at manufacturing,
//! §II-C); the IAS verifies the quote and answers with a signed
//! attestation verification report the CA can check.

use crate::error::EnclaveError;
use crate::measurement::Measurement;
use endbox_crypto::hmac::hmac_sha256;
use endbox_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use std::collections::HashSet;

/// Size of the user-data field in reports and quotes.
pub const USER_DATA_LEN: usize = 64;

/// A per-CPU identity holding the keys "fused into the CPU during
/// manufacturing" (§II-C).
#[derive(Clone)]
pub struct CpuIdentity {
    fuse_seed: [u8; 32],
    /// The EPID-stand-in attestation signing key, derived from the seed
    /// once.
    attestation_key: SigningKey,
}

impl std::fmt::Debug for CpuIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CpuIdentity { fuse_seed: <redacted>, attestation_key: <redacted> }")
    }
}

impl CpuIdentity {
    /// Creates a CPU identity from a manufacturing seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        CpuIdentity {
            fuse_seed: seed,
            attestation_key: SigningKey::from_seed(&hmac_sha256(&seed, b"sgx-attestation-key")),
        }
    }

    /// The fuse seed (only the SGX model itself should use this).
    pub(crate) fn fuse_seed(&self) -> &[u8; 32] {
        &self.fuse_seed
    }

    /// Key used to MAC local-attestation reports.
    fn report_key(&self) -> [u8; 32] {
        hmac_sha256(&self.fuse_seed, b"sgx-report-key")
    }

    /// Public half of the attestation key, as provisioned to Intel (here:
    /// registered with the [`IasSimulator`]).
    pub fn attestation_public(&self) -> VerifyingKey {
        self.attestation_key.verifying_key()
    }
}

/// A local-attestation report: measurement + user data, MACed with the
/// CPU's report key so only enclaves on the same platform (here: the
/// Quoting Enclave) can verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Measurement of the reporting enclave.
    pub measurement: Measurement,
    /// Caller-chosen binding data (EndBox: the enclave's public key hash).
    pub user_data: [u8; USER_DATA_LEN],
    mac: [u8; 32],
}

impl Report {
    /// Creates a report. Internal: called via
    /// [`crate::EnclaveServices::create_report`] so that only enclave code
    /// can bind its own measurement.
    pub(crate) fn create(
        cpu: &CpuIdentity,
        measurement: Measurement,
        user_data: [u8; USER_DATA_LEN],
    ) -> Report {
        let mac = report_mac(cpu, &measurement, &user_data);
        Report {
            measurement,
            user_data,
            mac,
        }
    }

    /// Verifies the MAC against the platform's report key.
    fn verify(&self, cpu: &CpuIdentity) -> bool {
        endbox_crypto::ct_eq(
            &report_mac(cpu, &self.measurement, &self.user_data),
            &self.mac,
        )
    }
}

fn report_mac(
    cpu: &CpuIdentity,
    measurement: &Measurement,
    user_data: &[u8; USER_DATA_LEN],
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(32 + USER_DATA_LEN);
    msg.extend_from_slice(measurement.as_bytes());
    msg.extend_from_slice(user_data);
    hmac_sha256(&cpu.report_key(), &msg)
}

/// A quote: a report countersigned with the platform attestation key, fit
/// for remote verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Measurement of the quoted enclave.
    pub measurement: Measurement,
    /// User data carried over from the report.
    pub user_data: [u8; USER_DATA_LEN],
    /// Platform attestation public key (identifies the signing platform).
    pub platform_key: VerifyingKey,
    signature: Signature,
}

fn quote_message(measurement: &Measurement, user_data: &[u8; USER_DATA_LEN]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(9 + 32 + USER_DATA_LEN);
    msg.extend_from_slice(b"sgx-quote");
    msg.extend_from_slice(measurement.as_bytes());
    msg.extend_from_slice(user_data);
    msg
}

/// The Quoting Enclave: verifies local reports and produces quotes.
#[derive(Debug, Clone)]
pub struct QuotingEnclave {
    cpu: CpuIdentity,
}

impl QuotingEnclave {
    /// Instantiates the QE on a platform.
    pub fn new(cpu: CpuIdentity) -> Self {
        QuotingEnclave { cpu }
    }

    /// Converts a report into a quote.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::AttestationFailed`] if the report was not
    /// produced on this platform (bad MAC).
    pub fn quote(
        &self,
        report: &Report,
        rng: &mut impl rand::RngCore,
    ) -> Result<Quote, EnclaveError> {
        if !report.verify(&self.cpu) {
            return Err(EnclaveError::AttestationFailed("report MAC invalid"));
        }
        let msg = quote_message(&report.measurement, &report.user_data);
        let signature = self.cpu.attestation_key.sign(&msg, rng);
        Ok(Quote {
            measurement: report.measurement,
            user_data: report.user_data,
            platform_key: self.cpu.attestation_public(),
            signature,
        })
    }
}

/// Verdict carried in an IAS attestation verification report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteStatus {
    /// Quote verified against a registered, non-revoked platform.
    Ok,
    /// Signature did not verify.
    SignatureInvalid,
    /// Platform key unknown to the attestation service.
    UnknownPlatform,
    /// Platform key has been revoked.
    PlatformRevoked,
}

/// A signed attestation verification report from the (simulated) IAS.
#[derive(Debug, Clone, PartialEq)]
pub struct IasReport {
    /// Verification verdict.
    pub status: QuoteStatus,
    /// Measurement from the verified quote.
    pub measurement: Measurement,
    /// User data from the verified quote.
    pub user_data: [u8; USER_DATA_LEN],
    signature: Signature,
}

impl IasReport {
    /// Verifies the IAS signature with the service's public key.
    pub fn verify(&self, ias_key: &VerifyingKey) -> Result<(), EnclaveError> {
        ias_key
            .verify(
                &ias_report_message(self.status, &self.measurement, &self.user_data),
                &self.signature,
            )
            .map_err(|_| EnclaveError::AttestationFailed("IAS report signature invalid"))
    }
}

fn ias_report_message(
    status: QuoteStatus,
    measurement: &Measurement,
    user_data: &[u8; USER_DATA_LEN],
) -> Vec<u8> {
    let status_byte = match status {
        QuoteStatus::Ok => 0u8,
        QuoteStatus::SignatureInvalid => 1,
        QuoteStatus::UnknownPlatform => 2,
        QuoteStatus::PlatformRevoked => 3,
    };
    let mut msg = Vec::with_capacity(8 + 1 + 32 + USER_DATA_LEN);
    msg.extend_from_slice(b"ias-avr");
    msg.push(status_byte);
    msg.extend_from_slice(measurement.as_bytes());
    msg.extend_from_slice(user_data);
    msg
}

/// Simulated web-based Intel Attestation Service (§II-C: "Using the
/// web-based Intel Attestation Service, quotes can be remotely verified to
/// originate from a genuine SGX CPU").
#[derive(Debug)]
pub struct IasSimulator {
    signing: SigningKey,
    registered: HashSet<[u8; 32]>,
    revoked: HashSet<[u8; 32]>,
}

impl IasSimulator {
    /// Creates the service with a fresh signing key.
    pub fn new(rng: &mut impl rand::RngCore) -> Self {
        IasSimulator {
            signing: SigningKey::generate(rng),
            registered: HashSet::new(),
            revoked: HashSet::new(),
        }
    }

    /// The service's report-signing public key (relying parties pin this).
    pub fn public_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Registers a genuine platform (models Intel's manufacturing-time key
    /// provisioning).
    pub fn register_platform(&mut self, key: VerifyingKey) {
        self.registered.insert(key.to_bytes());
    }

    /// Revokes a platform.
    pub fn revoke_platform(&mut self, key: &VerifyingKey) {
        self.revoked.insert(key.to_bytes());
    }

    /// Verifies a quote, returning a signed verification report.
    pub fn verify_quote(&self, quote: &Quote, rng: &mut impl rand::RngCore) -> IasReport {
        let key_bytes = quote.platform_key.to_bytes();
        let status = if self.revoked.contains(&key_bytes) {
            QuoteStatus::PlatformRevoked
        } else if !self.registered.contains(&key_bytes) {
            QuoteStatus::UnknownPlatform
        } else {
            let msg = quote_message(&quote.measurement, &quote.user_data);
            match quote.platform_key.verify(&msg, &quote.signature) {
                Ok(()) => QuoteStatus::Ok,
                Err(_) => QuoteStatus::SignatureInvalid,
            }
        };
        let signature = self.signing.sign(
            &ias_report_message(status, &quote.measurement, &quote.user_data),
            rng,
        );
        IasReport {
            status,
            measurement: quote.measurement,
            user_data: quote.user_data,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn setup() -> (
        CpuIdentity,
        QuotingEnclave,
        IasSimulator,
        rand::rngs::StdRng,
    ) {
        let mut r = rng();
        let cpu = CpuIdentity::from_seed([3u8; 32]);
        let qe = QuotingEnclave::new(cpu.clone());
        let mut ias = IasSimulator::new(&mut r);
        ias.register_platform(cpu.attestation_public());
        (cpu, qe, ias, r)
    }

    fn report(cpu: &CpuIdentity, mr: &str, data: u8) -> Report {
        Report::create(
            cpu,
            Measurement::of(mr.as_bytes(), b""),
            [data; USER_DATA_LEN],
        )
    }

    #[test]
    fn full_flow_succeeds() {
        let (cpu, qe, ias, mut r) = setup();
        let rep = report(&cpu, "endbox", 7);
        let quote = qe.quote(&rep, &mut r).unwrap();
        let avr = ias.verify_quote(&quote, &mut r);
        assert_eq!(avr.status, QuoteStatus::Ok);
        avr.verify(&ias.public_key()).unwrap();
        assert_eq!(avr.user_data, [7u8; USER_DATA_LEN]);
    }

    #[test]
    fn qe_rejects_foreign_report() {
        let (_, qe, _, mut r) = setup();
        let other_cpu = CpuIdentity::from_seed([99u8; 32]);
        let rep = report(&other_cpu, "endbox", 7);
        assert!(qe.quote(&rep, &mut r).is_err());
    }

    #[test]
    fn ias_rejects_unknown_platform() {
        let mut r = rng();
        let cpu = CpuIdentity::from_seed([4u8; 32]);
        let qe = QuotingEnclave::new(cpu.clone());
        let ias = IasSimulator::new(&mut r); // platform never registered
        let quote = qe.quote(&report(&cpu, "e", 1), &mut r).unwrap();
        assert_eq!(
            ias.verify_quote(&quote, &mut r).status,
            QuoteStatus::UnknownPlatform
        );
    }

    #[test]
    fn ias_rejects_revoked_platform() {
        let (cpu, qe, mut ias, mut r) = setup();
        ias.revoke_platform(&cpu.attestation_public());
        let quote = qe.quote(&report(&cpu, "e", 1), &mut r).unwrap();
        assert_eq!(
            ias.verify_quote(&quote, &mut r).status,
            QuoteStatus::PlatformRevoked
        );
    }

    #[test]
    fn tampered_quote_flagged() {
        let (cpu, qe, ias, mut r) = setup();
        let mut quote = qe.quote(&report(&cpu, "e", 1), &mut r).unwrap();
        quote.user_data[0] ^= 1; // tamper after signing
        assert_eq!(
            ias.verify_quote(&quote, &mut r).status,
            QuoteStatus::SignatureInvalid
        );
    }

    #[test]
    fn forged_ias_report_rejected() {
        let (cpu, qe, ias, mut r) = setup();
        let quote = qe.quote(&report(&cpu, "e", 1), &mut r).unwrap();
        let avr = ias.verify_quote(&quote, &mut r);
        // Verify against the wrong IAS key (attacker-run service).
        let fake_ias = IasSimulator::new(&mut r);
        assert!(avr.verify(&fake_ias.public_key()).is_err());
    }

    #[test]
    fn report_binds_user_data() {
        let (cpu, qe, ias, mut r) = setup();
        let quote = qe.quote(&report(&cpu, "e", 42), &mut r).unwrap();
        let avr = ias.verify_quote(&quote, &mut r);
        // User data (the enclave public key in EndBox) survives the chain.
        assert_eq!(avr.user_data, [42u8; USER_DATA_LEN]);
        assert_eq!(avr.measurement, Measurement::of(b"e", b""));
    }

    #[test]
    fn debug_redacts_the_fused_keys() {
        let cpu = CpuIdentity::from_seed([5u8; 32]);
        let shown = format!("{cpu:?}");
        assert_eq!(
            shown,
            "CpuIdentity { fuse_seed: <redacted>, attestation_key: <redacted> }"
        );
        assert_eq!(
            cpu.attestation_public(),
            CpuIdentity::from_seed([5u8; 32]).attestation_public()
        );
    }
}

//! Errors raised by the SGX model.

use std::error::Error;
use std::fmt;

/// Errors from enclave operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// The enclave was destroyed.
    Destroyed,
    /// An ecall name not present in the declared interface was
    /// invoked (interface attacks, §V-A, are rejected here).
    UndeclaredCall(String),
    /// Sealed blob failed authentication or was sealed by another enclave.
    UnsealFailed,
    /// Attestation verification failed.
    AttestationFailed(&'static str),
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::Destroyed => f.write_str("enclave destroyed"),
            EnclaveError::UndeclaredCall(name) => {
                write!(f, "call `{name}` is not part of the enclave interface")
            }
            EnclaveError::UnsealFailed => f.write_str("sealed data failed authentication"),
            EnclaveError::AttestationFailed(why) => write!(f, "attestation failed: {why}"),
        }
    }
}

impl Error for EnclaveError {}

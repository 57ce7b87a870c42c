//! The EndBox enclave interface declaration.
//!
//! §IV-B gives the paper's enclave 90 calls: 70 ecalls, 20 ocalls, and 4
//! ecalls on the hot path. This model declares exactly the ecalls that
//! have a body in [`crate::enclave_app::EnclaveApp`]: one [`Ecall`] row
//! each, and no ocalls (nothing in the model leaves the enclave). The
//! [`endbox_sgx`] enclave rejects any call not declared here, so a name
//! without a body is refused too, which is the defence against interface
//! attacks evaluated in §V-A. `docs/architecture.md` §8 maps the paper's
//! 90 calls onto these rows.

macro_rules! ecalls {
    ($($(#[$doc:meta])* $row:ident => $name:literal,)+) => {
        /// One row per ecall the enclave implements.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Ecall {
            $($(#[$doc])* $row,)+
        }

        impl Ecall {
            /// Every row, in declaration order.
            pub const ALL: &'static [Ecall] = &[$(Ecall::$row,)+];

            /// The name the enclave declares this row under.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Ecall::$row => $name,)+
                }
            }
        }
    };
}

ecalls! {
    /// Fig. 4 step 1: generate the identity and encryption key pairs.
    KeypairGenerate => "ecall_keypair_generate",
    /// Fig. 4 step 2: the report binding the public keys.
    ReportCreate => "ecall_report_create",
    /// Fig. 4 steps 6–7: install the certificate and config key, seal them.
    EnrollmentFinish => "ecall_enrollment_finish",
    /// §III-C: restore enrollment from the sealed blob after a restart.
    SealedStateRestore => "ecall_sealed_state_restore",
    /// The VPN handshake's ClientHello.
    HandshakeStart => "ecall_handshake_start",
    /// The ServerHello, checked against the minimum version in the enclave.
    HandshakeComplete => "ecall_handshake_complete",
    /// Egress hot path: Click, then seal (§IV-B).
    PacketEncrypt => "ecall_packet_encrypt",
    /// Ingress hot path: open, then Click (§IV-B).
    PacketDecrypt => "ecall_packet_decrypt",
    /// Fig. 5 step 9: the ping proving the config version.
    PingBuild => "ecall_ping_build",
    /// §III-E: authenticate a server ping.
    PingProcess => "ecall_ping_process",
    /// Fig. 5 steps 6–8: verify, decrypt and hot-swap a configuration.
    ConfigApply => "ecall_config_apply",
    /// The configuration version applied.
    ConfigVersionRead => "ecall_config_version_read",
    /// §III-D: a TLS session key forwarded by the patched library.
    TlsKeyRegister => "ecall_tls_key_register",
    /// Read a Click handler.
    ClickReadHandler => "ecall_click_read_handler",
    /// Packet and ingress-pool counters.
    ClickElementCount => "ecall_click_element_count",
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_has_fifteen_rows() {
        assert_eq!(Ecall::ALL.len(), 15);
    }

    #[test]
    fn no_duplicate_names() {
        let names: HashSet<&str> = Ecall::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Ecall::ALL.len());
        assert!(names.iter().all(|n| n.starts_with("ecall_")));
    }
}

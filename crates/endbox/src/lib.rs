//! # EndBox — scalable middlebox functions using client-side trusted execution
//!
//! A full reproduction of *EndBox* (Goltzsche et al., DSN 2018): middlebox
//! functions (firewall, IDPS, load balancing, DDoS prevention, …) execute
//! on **untrusted client machines**, protected by an SGX enclave, instead
//! of on centralised middlebox hardware. The enclave holds the VPN
//! connection endpoint, so every packet that reaches the managed network
//! provably passed through the client-side Click middlebox.
//!
//! The crate composes the substrates of this workspace:
//!
//! * [`enclave_app`] — the trusted half of the client: the Click router,
//!   the VPN data channel and all keys live inside an [`endbox_sgx`]
//!   enclave; exactly **one ecall per packet** on the data path (§IV-A).
//! * [`client`] — the partitioned EndBox client (Fig. 3): untrusted
//!   fragmentation/encapsulation around the trusted core, with one
//!   receive doorway (`DataBatch` and `Ping` records only — everything a
//!   server seals for a client).
//! * [`server`] — the EndBox VPN server: sole entry point to the managed
//!   network, certificate gatekeeping, config-version enforcement, QoS
//!   flag sanitisation.
//! * [`ca`] — the certificate authority and the remote-attestation
//!   enrollment workflow of Fig. 4.
//! * [`config_update`] — signed (optionally encrypted) Click
//!   configurations with versioning and grace periods (Fig. 5).
//! * [`tls_shim`] — the patched-TLS-library simulation that forwards
//!   session keys into the enclave for encrypted-traffic DPI (§III-D).
//! * [`use_cases`] — the five evaluation middlebox functions (§V-B).
//! * [`attacks`] — the §V-A attack battery, each returning an outcome that
//!   the tests assert is `Defended`.
//! * [`scenario`] — enterprise and ISP scenario builders (§II-A).
//! * [`eval`] — deployments and experiment runners regenerating every
//!   table and figure of §V.
//!
//! The repository-level `README.md` carries the crate map and datapath
//! diagram; `docs/architecture.md` carries the per-subsystem invariants
//! and the map from each invariant to the test that pins it.
//!
//! ## Quickstart
//!
//! ```
//! use endbox::scenario::Scenario;
//! use endbox::use_cases::UseCase;
//!
//! // One client, firewall middlebox, hardware-mode enclave.
//! let mut scenario = Scenario::enterprise(1, UseCase::Firewall).build().unwrap();
//! let delivered = scenario.send_from_client(0, b"hello network").unwrap();
//! assert_eq!(delivered.app_payload(), b"hello network");
//! ```

#![deny(unsafe_code)]

pub mod attacks;
pub mod ca;
pub mod client;
pub mod config_update;
pub mod enclave_app;
pub mod error;
pub mod eval;
pub mod interface;
pub mod scenario;
pub mod server;
pub mod tls_shim;
pub mod use_cases;

pub use ca::CertificateAuthority;
pub use client::{EndBoxClient, EndBoxClientConfig, TrustLevel};
pub use error::EndBoxError;
pub use server::{EndBoxServer, ShardedEndBoxServer};

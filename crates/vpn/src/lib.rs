//! An OpenVPN-model VPN for the EndBox reproduction.
//!
//! EndBox builds on OpenVPN v2.4.0 because it "(i) is open-source; (ii) has
//! relatively few dependencies; (iii) is implemented in user-space; and
//! (iv) is widely used" (§IV). This crate reproduces the pieces the paper
//! depends on:
//!
//! * [`proto`] — the wire record format (control/data/ping channels).
//! * [`cert`] — certificates issued by the network's CA (Fig. 4); only
//!   attested enclaves hold one, so "unattested clients cannot establish
//!   connections because of missing certificates" (§III-C).
//! * [`handshake`] — a TLS-style control-channel handshake: X25519 key
//!   agreement authenticated by certificates, with minimum-version
//!   enforcement on both sides (downgrade defence, §V-A).
//! * [`channel`] — the data channel: AES-128-GCM (the AEAD OpenVPN's own
//!   data channel moved to from the paper's AES-128-CBC + HMAC-SHA256) and
//!   an integrity-only mode, GMAC, for the ISP scenario (§IV-A).
//! * [`replay`] — OpenVPN's sliding-window replay protection (§V-A:
//!   "the ENDBOX server detects this, due to OpenVPN's implementation of
//!   packet replay protection").
//! * [`ping`] — keepalive messages extended with the configuration version
//!   and grace period (§III-E).
//! * [`frag`] — fragmentation/encapsulation of sealed records into
//!   MTU-sized datagrams; runs *outside* the enclave, matching the
//!   partitioning of Fig. 3.
//! * [`server`] — the multi-session VPN server (a handshake front-end
//!   around one inline [`shard::VpnShard`]).
//! * [`shard`] — one partition of the session state and the one record
//!   handler over it; sessions bind to the peer of their first
//!   authenticated record.
//! * [`pool`] — the owner-thread pool the sharded server's
//!   run-to-completion shards (`endbox::server`) run on: spawn, retire,
//!   join and thread-death reporting, written once.

#![deny(unsafe_code)]

pub mod cert;
pub mod channel;
pub mod error;
pub mod frag;
pub mod handshake;
pub mod ping;
pub mod pool;
pub mod proto;
pub mod replay;
pub mod server;
pub mod shard;
pub mod wire;

pub use cert::Certificate;
pub use channel::{CipherSuite, DataChannel, RecvHalf, SendHalf, SessionKeys};
pub use error::VpnError;
pub use proto::Record;

/// Protocol version 1 (the TLS 1.2 analogue).
pub const PROTOCOL_V1: u8 = 1;
/// Protocol version 2 (the TLS 1.3 analogue).
pub const PROTOCOL_V2: u8 = 2;

//! The control-channel handshake: X25519 key agreement authenticated with
//! CA-issued certificates.
//!
//! Downgrade defence (§V-A): "OpenVPN implements server-side checks that
//! ensure the minimal TLS version to be used. On the client-side, the
//! corresponding check happens within the enclave during connection
//! establishment and therefore cannot be circumvented." Both sides here
//! enforce `min_version`; the client-side check runs inside the enclave in
//! the `endbox` crate.

use crate::cert::Certificate;
use crate::channel::SessionKeys;
use crate::error::VpnError;
use crate::wire::{Reader, Writer};
use endbox_crypto::schnorr::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use endbox_crypto::x25519;

/// Identity and policy for one handshake endpoint.
#[derive(Debug, Clone)]
pub struct HandshakeConfig {
    /// This endpoint's long-term signing key (matches its certificate).
    pub identity: SigningKey,
    /// This endpoint's CA-issued certificate.
    pub certificate: Certificate,
    /// The CA public key pinned at build time ("The public key of the CA
    /// is pre-deployed into enclave binaries during system compilation",
    /// §III-C).
    pub ca_public: VerifyingKey,
    /// Lowest protocol version this endpoint accepts.
    pub min_version: u8,
}

/// First handshake message (client → server).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientHello {
    /// Protocol version the client wants to speak.
    pub offered_version: u8,
    /// Ephemeral X25519 public key.
    pub eph_pub: [u8; 32],
    /// Client nonce.
    pub nonce: [u8; 32],
    /// Client certificate.
    pub certificate: Certificate,
    /// Click configuration version the client currently runs (§III-E).
    pub config_version: u64,
    signature: Signature,
}

/// Second handshake message (server → client).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerHello {
    /// Version chosen by the server (>= both minimums).
    pub chosen_version: u8,
    /// Assigned session id.
    pub session_id: u64,
    /// Ephemeral X25519 public key.
    pub eph_pub: [u8; 32],
    /// Server nonce.
    pub nonce: [u8; 32],
    /// Server certificate.
    pub certificate: Certificate,
    /// Configuration version currently required by the server.
    pub required_config_version: u64,
    signature: Signature,
}

/// Pending client handshake state (keep private to the enclave).
pub struct ClientState {
    eph_secret: [u8; 32],
    nonce: [u8; 32],
    offered_version: u8,
}

impl std::fmt::Debug for ClientState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientState { <redacted> }")
    }
}

/// Information the server learns about an authenticated client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientInfo {
    /// Certificate subject.
    pub subject: String,
    /// Config version the client reported at connect time.
    pub config_version: u64,
    /// Negotiated protocol version.
    pub version: u8,
}

fn client_transcript(
    offered_version: u8,
    eph_pub: &[u8; 32],
    nonce: &[u8; 32],
    cert: &Certificate,
    config_version: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(b"endbox-hs-client")
        .u8(offered_version)
        .raw(eph_pub)
        .raw(nonce)
        .bytes(&cert.to_bytes())
        .u64(config_version);
    w.finish()
}

fn server_transcript(
    chosen_version: u8,
    session_id: u64,
    eph_pub: &[u8; 32],
    nonce: &[u8; 32],
    cert: &Certificate,
    required_config_version: u64,
    client_nonce: &[u8; 32],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(b"endbox-hs-server")
        .u8(chosen_version)
        .u64(session_id)
        .raw(eph_pub)
        .raw(nonce)
        .bytes(&cert.to_bytes())
        .u64(required_config_version)
        .raw(client_nonce);
    w.finish()
}

/// Starts a client handshake.
pub fn client_start(
    cfg: &HandshakeConfig,
    offered_version: u8,
    config_version: u64,
    rng: &mut impl rand::RngCore,
) -> (ClientHello, ClientState) {
    let (eph_secret, eph_pub) = x25519::keypair(rng);
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    let transcript = client_transcript(
        offered_version,
        &eph_pub,
        &nonce,
        &cfg.certificate,
        config_version,
    );
    let signature = cfg.identity.sign(&transcript, rng);
    (
        ClientHello {
            offered_version,
            eph_pub,
            nonce,
            certificate: cfg.certificate.clone(),
            config_version,
            signature,
        },
        ClientState {
            eph_secret,
            nonce,
            offered_version,
        },
    )
}

/// Server side: validates a `ClientHello` and produces the response plus
/// session keys.
///
/// # Errors
///
/// Certificate, signature and version failures per [`VpnError`].
pub fn server_respond(
    cfg: &HandshakeConfig,
    hello: &ClientHello,
    session_id: u64,
    required_config_version: u64,
    now_secs: u64,
    rng: &mut impl rand::RngCore,
) -> Result<(ServerHello, SessionKeys, ClientInfo), VpnError> {
    if hello.offered_version < cfg.min_version {
        return Err(VpnError::VersionTooLow {
            offered: hello.offered_version,
            minimum: cfg.min_version,
        });
    }
    hello.certificate.verify(&cfg.ca_public, now_secs)?;
    let transcript = client_transcript(
        hello.offered_version,
        &hello.eph_pub,
        &hello.nonce,
        &hello.certificate,
        hello.config_version,
    );
    hello
        .certificate
        .public_key
        .verify(&transcript, &hello.signature)
        .map_err(|_| VpnError::BadSignature)?;

    let (eph_secret, eph_pub) = x25519::keypair(rng);
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    let chosen_version = hello.offered_version;
    let transcript = server_transcript(
        chosen_version,
        session_id,
        &eph_pub,
        &nonce,
        &cfg.certificate,
        required_config_version,
        &hello.nonce,
    );
    let signature = cfg.identity.sign(&transcript, rng);

    let shared = x25519::shared_secret(&eph_secret, &hello.eph_pub);
    let keys = SessionKeys::derive(&shared, &hello.nonce, &nonce);
    Ok((
        ServerHello {
            chosen_version,
            session_id,
            eph_pub,
            nonce,
            certificate: cfg.certificate.clone(),
            required_config_version,
            signature,
        },
        keys,
        ClientInfo {
            subject: hello.certificate.subject.clone(),
            config_version: hello.config_version,
            version: chosen_version,
        },
    ))
}

/// Client side: validates the `ServerHello` and derives session keys.
/// This check runs inside the enclave in EndBox, so a compromised host
/// cannot skip the version or certificate validation.
///
/// # Errors
///
/// Certificate, signature and version failures per [`VpnError`].
pub fn client_complete(
    cfg: &HandshakeConfig,
    state: &ClientState,
    hello: &ServerHello,
    now_secs: u64,
) -> Result<SessionKeys, VpnError> {
    if hello.chosen_version < cfg.min_version {
        return Err(VpnError::VersionTooLow {
            offered: hello.chosen_version,
            minimum: cfg.min_version,
        });
    }
    if hello.chosen_version > state.offered_version {
        return Err(VpnError::Malformed("server chose unoffered version"));
    }
    hello.certificate.verify(&cfg.ca_public, now_secs)?;
    let transcript = server_transcript(
        hello.chosen_version,
        hello.session_id,
        &hello.eph_pub,
        &hello.nonce,
        &hello.certificate,
        hello.required_config_version,
        &state.nonce,
    );
    hello
        .certificate
        .public_key
        .verify(&transcript, &hello.signature)
        .map_err(|_| VpnError::BadSignature)?;
    let shared = x25519::shared_secret(&state.eph_secret, &hello.eph_pub);
    Ok(SessionKeys::derive(&shared, &state.nonce, &hello.nonce))
}

impl ClientHello {
    /// Serialises to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.offered_version)
            .raw(&self.eph_pub)
            .raw(&self.nonce)
            .bytes(&self.certificate.to_bytes())
            .u64(self.config_version)
            .raw(&self.signature.to_bytes());
        w.finish()
    }

    /// Parses from wire bytes.
    ///
    /// # Errors
    ///
    /// [`VpnError::Malformed`] or certificate errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<ClientHello, VpnError> {
        let mut r = Reader::new(bytes);
        let offered_version = r.u8()?;
        let eph_pub = r.array()?;
        let nonce = r.array()?;
        let certificate = Certificate::from_bytes(r.bytes()?)?;
        let config_version = r.u64()?;
        let sig: [u8; SIGNATURE_LEN] = r.array()?;
        let signature =
            Signature::from_bytes(&sig).map_err(|_| VpnError::Malformed("bad signature"))?;
        Ok(ClientHello {
            offered_version,
            eph_pub,
            nonce,
            certificate,
            config_version,
            signature,
        })
    }
}

impl ServerHello {
    /// Serialises to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.chosen_version)
            .u64(self.session_id)
            .raw(&self.eph_pub)
            .raw(&self.nonce)
            .bytes(&self.certificate.to_bytes())
            .u64(self.required_config_version)
            .raw(&self.signature.to_bytes());
        w.finish()
    }

    /// Parses from wire bytes.
    ///
    /// # Errors
    ///
    /// [`VpnError::Malformed`] or certificate errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServerHello, VpnError> {
        let mut r = Reader::new(bytes);
        let chosen_version = r.u8()?;
        let session_id = r.u64()?;
        let eph_pub = r.array()?;
        let nonce = r.array()?;
        let certificate = Certificate::from_bytes(r.bytes()?)?;
        let required_config_version = r.u64()?;
        let sig: [u8; SIGNATURE_LEN] = r.array()?;
        let signature =
            Signature::from_bytes(&sig).map_err(|_| VpnError::Malformed("bad signature"))?;
        Ok(ServerHello {
            chosen_version,
            session_id,
            eph_pub,
            nonce,
            certificate,
            required_config_version,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PROTOCOL_V1, PROTOCOL_V2};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn configs(min_client: u8, min_server: u8) -> (HandshakeConfig, HandshakeConfig) {
        let mut r = rng();
        let ca = SigningKey::generate(&mut r);
        let client_key = SigningKey::generate(&mut r);
        let server_key = SigningKey::generate(&mut r);
        let client_cert =
            Certificate::issue("client-1", client_key.verifying_key(), 10_000, &ca, &mut r);
        let server_cert = Certificate::issue(
            "endbox-server",
            server_key.verifying_key(),
            10_000,
            &ca,
            &mut r,
        );
        (
            HandshakeConfig {
                identity: client_key,
                certificate: client_cert,
                ca_public: ca.verifying_key(),
                min_version: min_client,
            },
            HandshakeConfig {
                identity: server_key,
                certificate: server_cert,
                ca_public: ca.verifying_key(),
                min_version: min_server,
            },
        )
    }

    #[test]
    fn full_handshake_derives_matching_keys() {
        let (ccfg, scfg) = configs(PROTOCOL_V1, PROTOCOL_V1);
        let mut r = rng();
        let (hello, state) = client_start(&ccfg, PROTOCOL_V2, 3, &mut r);
        let (shello, server_keys, info) = server_respond(&scfg, &hello, 1, 5, 100, &mut r).unwrap();
        let client_keys = client_complete(&ccfg, &state, &shello, 100).unwrap();
        assert_eq!(
            client_keys.client_to_server.enc,
            server_keys.client_to_server.enc
        );
        assert_eq!(
            client_keys.server_to_client.enc,
            server_keys.server_to_client.enc
        );
        assert_eq!(info.subject, "client-1");
        assert_eq!(info.config_version, 3);
        assert_eq!(shello.required_config_version, 5);
    }

    #[test]
    fn server_rejects_low_version() {
        let (ccfg, scfg) = configs(PROTOCOL_V1, PROTOCOL_V2);
        let mut r = rng();
        let (hello, _) = client_start(&ccfg, PROTOCOL_V1, 0, &mut r);
        let err = server_respond(&scfg, &hello, 1, 0, 0, &mut r).unwrap_err();
        assert_eq!(
            err,
            VpnError::VersionTooLow {
                offered: 1,
                minimum: 2
            }
        );
    }

    #[test]
    fn client_rejects_downgraded_response() {
        // A MITM rewrites the server's chosen version below the client's
        // enclave-enforced minimum: the signature check or version check
        // must fail.
        let (ccfg, scfg) = configs(PROTOCOL_V2, PROTOCOL_V1);
        let mut r = rng();
        let (hello, state) = client_start(&ccfg, PROTOCOL_V2, 0, &mut r);
        let (mut shello, _, _) = server_respond(&scfg, &hello, 1, 0, 0, &mut r).unwrap();
        shello.chosen_version = PROTOCOL_V1;
        let err = client_complete(&ccfg, &state, &shello, 0).unwrap_err();
        assert_eq!(
            err,
            VpnError::VersionTooLow {
                offered: 1,
                minimum: 2
            }
        );
    }

    #[test]
    fn forged_server_identity_rejected() {
        let (ccfg, scfg) = configs(PROTOCOL_V1, PROTOCOL_V1);
        let mut r = rng();
        // An attacker without a CA-signed cert crafts their own.
        let attacker_key = SigningKey::generate(&mut r);
        let attacker_ca = SigningKey::generate(&mut r);
        let attacker_cert = Certificate::issue(
            "endbox-server",
            attacker_key.verifying_key(),
            10_000,
            &attacker_ca,
            &mut r,
        );
        let attacker_cfg = HandshakeConfig {
            identity: attacker_key,
            certificate: attacker_cert,
            ca_public: scfg.ca_public,
            min_version: PROTOCOL_V1,
        };
        let (hello, state) = client_start(&ccfg, PROTOCOL_V1, 0, &mut r);
        let (shello, _, _) = server_respond(&attacker_cfg, &hello, 1, 0, 0, &mut r).unwrap();
        assert!(matches!(
            client_complete(&ccfg, &state, &shello, 0),
            Err(VpnError::BadCertificate(_))
        ));
    }

    #[test]
    fn unattested_client_without_cert_cannot_connect() {
        // A client whose certificate was not issued by the network CA is
        // rejected — "unattested clients cannot establish connections
        // because of missing certificates" (§III-C).
        let (_, scfg) = configs(PROTOCOL_V1, PROTOCOL_V1);
        let mut r = rng();
        let rogue_key = SigningKey::generate(&mut r);
        let rogue_ca = SigningKey::generate(&mut r);
        let rogue_cert = Certificate::issue(
            "intruder",
            rogue_key.verifying_key(),
            10_000,
            &rogue_ca,
            &mut r,
        );
        let rogue_cfg = HandshakeConfig {
            identity: rogue_key,
            certificate: rogue_cert,
            ca_public: scfg.ca_public,
            min_version: PROTOCOL_V1,
        };
        let (hello, _) = client_start(&rogue_cfg, PROTOCOL_V1, 0, &mut r);
        assert!(matches!(
            server_respond(&scfg, &hello, 1, 0, 0, &mut r),
            Err(VpnError::BadCertificate(_))
        ));
    }

    #[test]
    fn tampered_hello_signature_rejected() {
        let (ccfg, scfg) = configs(PROTOCOL_V1, PROTOCOL_V1);
        let mut r = rng();
        let (mut hello, _) = client_start(&ccfg, PROTOCOL_V2, 0, &mut r);
        hello.config_version = 99; // tamper with the signed config version
        assert_eq!(
            server_respond(&scfg, &hello, 1, 0, 0, &mut r).unwrap_err(),
            VpnError::BadSignature
        );
    }

    #[test]
    fn hello_serialisation_roundtrips() {
        let (ccfg, scfg) = configs(PROTOCOL_V1, PROTOCOL_V1);
        let mut r = rng();
        let (hello, state) = client_start(&ccfg, PROTOCOL_V2, 1, &mut r);
        let parsed = ClientHello::from_bytes(&hello.to_bytes()).unwrap();
        assert_eq!(parsed, hello);
        let (shello, _, _) = server_respond(&scfg, &parsed, 4, 2, 0, &mut r).unwrap();
        let sparsed = ServerHello::from_bytes(&shello.to_bytes()).unwrap();
        assert_eq!(sparsed, shello);
        client_complete(&ccfg, &state, &sparsed, 0).unwrap();
    }
}

//! Certificates binding a subject (an attested EndBox enclave, or the VPN
//! server) to a Schnorr public key, signed by the network's certificate
//! authority (Fig. 4).

use crate::error::VpnError;
use crate::wire::{Reader, Writer};
use endbox_crypto::schnorr::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};

/// A CA-issued certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Subject identity (e.g. `"endbox-client-17"`).
    pub subject: String,
    /// The subject's public key.
    pub public_key: VerifyingKey,
    /// Expiry, in simulated seconds since epoch.
    pub not_after_secs: u64,
    signature: Signature,
}

fn tbs_bytes(subject: &str, public_key: &VerifyingKey, not_after_secs: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(b"endbox-cert-v1")
        .string(subject)
        .raw(&public_key.to_bytes())
        .u64(not_after_secs);
    w.finish()
}

impl Certificate {
    /// Issues a certificate signed by `ca`.
    pub fn issue(
        subject: &str,
        public_key: VerifyingKey,
        not_after_secs: u64,
        ca: &SigningKey,
        rng: &mut impl rand::RngCore,
    ) -> Certificate {
        let signature = ca.sign(&tbs_bytes(subject, &public_key, not_after_secs), rng);
        Certificate {
            subject: subject.to_string(),
            public_key,
            not_after_secs,
            signature,
        }
    }

    /// Verifies expiry, then the issuer signature. Expiry is checked
    /// first because it is free: an expired certificate — forged or not —
    /// costs no exponentiation.
    ///
    /// # Errors
    ///
    /// [`VpnError::BadCertificate`] on expiry or signature failure.
    pub fn verify(&self, ca_public: &VerifyingKey, now_secs: u64) -> Result<(), VpnError> {
        if now_secs > self.not_after_secs {
            return Err(VpnError::BadCertificate("expired"));
        }
        ca_public
            .verify(
                &tbs_bytes(&self.subject, &self.public_key, self.not_after_secs),
                &self.signature,
            )
            .map_err(|_| VpnError::BadCertificate("issuer signature invalid"))
    }

    /// Serialises to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.string(&self.subject)
            .raw(&self.public_key.to_bytes())
            .u64(self.not_after_secs)
            .raw(&self.signature.to_bytes());
        w.finish()
    }

    /// Parses from wire bytes.
    ///
    /// # Errors
    ///
    /// [`VpnError::Malformed`] / [`VpnError::BadCertificate`] on bad input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Certificate, VpnError> {
        let mut r = Reader::new(bytes);
        let subject = r.string()?;
        let pk: [u8; 32] = r.array()?;
        let public_key = VerifyingKey::from_bytes(&pk)
            .map_err(|_| VpnError::BadCertificate("bad public key"))?;
        let not_after_secs = r.u64()?;
        let sig: [u8; SIGNATURE_LEN] = r.array()?;
        let signature =
            Signature::from_bytes(&sig).map_err(|_| VpnError::BadCertificate("bad signature"))?;
        Ok(Certificate {
            subject,
            public_key,
            not_after_secs,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn issue_verify_roundtrip() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng);
        let subject_key = SigningKey::generate(&mut rng);
        let cert = Certificate::issue(
            "client-1",
            subject_key.verifying_key(),
            1_000,
            &ca,
            &mut rng,
        );
        cert.verify(&ca.verifying_key(), 500).unwrap();
        assert_eq!(
            cert.verify(&ca.verifying_key(), 1_001),
            Err(VpnError::BadCertificate("expired"))
        );
    }

    #[test]
    fn wrong_ca_rejected() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng);
        let rogue_ca = SigningKey::generate(&mut rng);
        let key = SigningKey::generate(&mut rng);
        let cert = Certificate::issue("client-1", key.verifying_key(), 1_000, &rogue_ca, &mut rng);
        assert!(cert.verify(&ca.verifying_key(), 0).is_err());
    }

    /// Expiry is decided before any exponentiation: an expired certificate
    /// whose signature is garbage is turned away as expired, which the
    /// signature check cannot have decided.
    #[test]
    fn expired_certificate_is_rejected_before_its_signature_is_checked() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let key = SigningKey::generate(&mut rng);
        let forged = Certificate::issue("client-1", key.verifying_key(), 1_000, &forger, &mut rng);
        assert_eq!(
            forged.verify(&ca.verifying_key(), 999),
            Err(VpnError::BadCertificate("issuer signature invalid"))
        );
        assert_eq!(
            forged.verify(&ca.verifying_key(), 1_001),
            Err(VpnError::BadCertificate("expired"))
        );
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng);
        let key = SigningKey::generate(&mut rng);
        let cert = Certificate::issue("client-é", key.verifying_key(), 77, &ca, &mut rng);
        let parsed = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(parsed, cert);
        parsed.verify(&ca.verifying_key(), 0).unwrap();
    }

    #[test]
    fn tampered_subject_rejected() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng);
        let key = SigningKey::generate(&mut rng);
        let mut cert = Certificate::issue("client-1", key.verifying_key(), 77, &ca, &mut rng);
        cert.subject = "client-2".into(); // privilege forgery attempt
        assert!(cert.verify(&ca.verifying_key(), 0).is_err());
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(Certificate::from_bytes(&[]).is_err());
        assert!(Certificate::from_bytes(&[0u8; 40]).is_err());
    }
}

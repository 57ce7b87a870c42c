//! Field multiplications per asymmetric operation, and per client set-up.
//!
//! `endbox_crypto::field::mul_count` counts every GF(2^255 − 19)
//! multiplication and squaring on the calling thread. The counts below
//! are exact and machine-independent, so a change to the arithmetic, to
//! the fixed-base tables or to how often set-up derives a key shows here
//! as a changed number rather than as noise in a timing.

use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_crypto::field::mul_count;
use endbox_crypto::schnorr::SigningKey;
use endbox_crypto::x25519;
use rand::SeedableRng;

/// Field multiplications `f` makes on this thread.
fn muls<R>(f: impl FnOnce() -> R) -> u64 {
    let before = mul_count();
    let _ = f();
    mul_count() - before
}

/// Builds the fixed-base tables (counted once, on first use) so that the
/// pinned figures are the steady per-operation cost.
fn warm_tables() {
    let _ = x25519::public_key(&[1u8; 32]);
    let _ = SigningKey::from_seed(&[1u8; 32]);
}

#[test]
fn asymmetric_primitives_cost_pinned_multiplications() {
    warm_tables();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let (secret, public) = x25519::keypair(&mut rng);

    // Ladder: 255 steps of 4 squarings + 5 multiplications, then the
    // 254 + 11 inversion chain and one multiplication.
    assert_eq!(muls(|| x25519::shared_secret(&secret, &public)), 2_561);
    // Fixed base: 64 mixed additions (7) and 4 doublings (8), then the
    // inversion and one multiplication for u = (Z + Y)/(Z − Y).
    assert_eq!(muls(|| x25519::public_key(&secret)), 746);
    // g^x: one comb row per hex digit after the first.
    assert_eq!(muls(|| SigningKey::from_seed(&secret)), 63);
    // verify: g^s (63), vk^e with 4-bit windows (329), one product.
    let key = SigningKey::generate(&mut rng);
    let sig = key.sign(b"count me", &mut rng);
    let vk = key.verifying_key();
    assert_eq!(muls(|| vk.verify(b"count me", &sig).unwrap()), 393);
}

#[test]
fn one_client_set_up_costs_under_half_the_square_and_multiply_build() {
    warm_tables();
    let build = |n| muls(|| Scenario::enterprise(n, UseCase::Nop).build().unwrap());
    let one = build(1);
    // The count repeats exactly: set-up draws only from the seed.
    assert_eq!(build(1), one);
    assert_eq!(one, 16_735);
    // Per client: 4 ladders (the KEM and handshake shared secrets), 4
    // fixed-base public keys (the enclave's, the CA's KEM key and both
    // handshake ephemerals), 7 g^x (identity, attestation key, signatures
    // of the quote, IAS report, certificate and both handshake sides)
    // and 7 verifications: 4·2,561 + 4·746 + 7·63 + 7·393. The other 315
    // are the IAS, CA and server keys and their signatures.
    assert_eq!(build(2) - one, 16_420);
    // The U256 ladder (3,059 per X25519) and square-and-multiply `pow`
    // (≈383 per g^x or vk^e) made 38,213 for the one-client build:
    // 36,404 per client (9 ladders and 23 pows) and 1,809 for the IAS, CA
    // and server keys.
    assert!(one * 2 <= 38_213, "{one}");
}

//! The data channel: authenticated encryption of tunnel payloads.
//!
//! Suite choices reproduce the paper's options: AES-128-CBC + HMAC-SHA256
//! (OpenVPN's configuration in the evaluation), integrity-only protection
//! for the ISP scenario ("AES-128-CBC packet encryption is optional …
//! the fact that egress traffic is analysed by Click needs to be ensured
//! by applying integrity protection", §IV-A), and a payload-sampled mode
//! used by bulk scalability simulations (full cycle cost charged, payload
//! bytes not individually encrypted — see DESIGN.md §4).
//!
//! # One buffer per record
//!
//! A sealed payload is `[IV ‖ ciphertext ‖ tag]` (the IV and the
//! encryption are absent from the integrity-only suites). `seal` builds it
//! in the one `Vec` the [`Record`] will own: IV first, the plaintext (for
//! a batch, the frames straight from [`frame::encode_into`]) after it,
//! PKCS#7 padding and CBC encryption where the bytes lie, then the MAC
//! appended. `open` checks the MAC over the borrowed body **first** and
//! touches neither the replay window nor any output buffer until it
//! verifies — a forged record learns nothing from padding — then decrypts
//! into a recycled buffer: the caller's ([`DataChannel::open_into`]) or,
//! for batches, one that [`BatchFrames`] returns to the channel when it
//! is dropped. Every key-dependent HMAC state (ipad/opad midstates, for
//! both directions and for the IV derivation) is computed once, when the
//! channel is built.

use crate::error::VpnError;
use crate::proto::{frame, Opcode, Record};
use crate::replay::ReplayWindow;
use endbox_crypto::aes::{Aes128, BLOCK_LEN};
use endbox_crypto::hmac::{hkdf, HmacSha256};
use endbox_crypto::modes::{cbc_decrypt_in_place, cbc_encrypt_in_place};
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::BufferPool;

/// Data-channel protection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CipherSuite {
    /// AES-128-CBC encryption + HMAC-SHA256 (enterprise default).
    #[default]
    Aes128CbcHmac,
    /// HMAC-SHA256 only; payload travels in clear (ISP mode, §IV-A).
    IntegrityOnly,
    /// Simulation-only: MAC over a payload sample, full crypto cycle cost
    /// charged. Keeps bulk experiments fast without changing framing.
    SampledPayload,
}

/// Keys for one direction of a session.
#[derive(Clone)]
pub struct DirectionKeys {
    /// AES-128 encryption key.
    pub enc: [u8; 16],
    /// HMAC key.
    pub mac: [u8; 32],
}

impl std::fmt::Debug for DirectionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DirectionKeys { <redacted> }")
    }
}

/// Both directions of a session.
#[derive(Debug, Clone)]
pub struct SessionKeys {
    /// Client-to-server keys.
    pub client_to_server: DirectionKeys,
    /// Server-to-client keys.
    pub server_to_client: DirectionKeys,
}

impl SessionKeys {
    /// Derives directional keys from the X25519 shared secret and both
    /// handshake nonces.
    pub fn derive(shared: &[u8; 32], client_nonce: &[u8; 32], server_nonce: &[u8; 32]) -> Self {
        let mut salt = Vec::with_capacity(64);
        salt.extend_from_slice(client_nonce);
        salt.extend_from_slice(server_nonce);
        let c2s_enc: [u8; 16] = hkdf(&salt, shared, b"endbox c2s enc");
        let c2s_mac: [u8; 32] = hkdf(&salt, shared, b"endbox c2s mac");
        let s2c_enc: [u8; 16] = hkdf(&salt, shared, b"endbox s2c enc");
        let s2c_mac: [u8; 32] = hkdf(&salt, shared, b"endbox s2c mac");
        SessionKeys {
            client_to_server: DirectionKeys {
                enc: c2s_enc,
                mac: c2s_mac,
            },
            server_to_client: DirectionKeys {
                enc: s2c_enc,
                mac: s2c_mac,
            },
        }
    }
}

const TAG_LEN: usize = 32;
const IV_LEN: usize = 16;

/// Decrypt-buffer capacity a channel keeps between records: a few
/// maximum-size batch blobs, so callers holding several [`BatchFrames`]
/// at once still recycle, and an idle channel pins little.
const BLOB_RETENTION_BYTES: usize = 256 * 1024;

/// The decoded view of a [`Opcode::DataBatch`] record: the decrypted blob
/// plus the byte range of each frame inside it.
///
/// Produced by [`DataChannel::open_batch_frames`] with **one copy total**
/// (the decrypt itself): frames are offset/length handles into the blob,
/// not per-frame `Vec`s, so callers materialise packets straight from the
/// slices (e.g. into pool-recycled buffers) in a single pass. The blob is
/// on loan from the channel that opened the record and goes back to it
/// when the view is dropped.
#[derive(Debug)]
pub struct BatchFrames {
    blob: Vec<u8>,
    ranges: Vec<std::ops::Range<usize>>,
    home: BufferPool,
}

impl Drop for BatchFrames {
    fn drop(&mut self) {
        self.home.give(std::mem::take(&mut self.blob));
    }
}

impl BatchFrames {
    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if the batch carries no frames.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The bytes of frame `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.blob[self.ranges[i].clone()]
    }

    /// Iterates over the frames in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.ranges.iter().map(|r| &self.blob[r.clone()])
    }

    /// Total frame bytes (excluding framing overhead).
    pub fn total_bytes(&self) -> usize {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// Copies every frame out into owned vectors (test/diagnostic
    /// convenience; the datapath materialises straight from the frame
    /// slices instead).
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

/// One endpoint's view of an established data channel.
///
/// Everything that depends only on the session keys is expanded **once
/// per direction** at channel construction and cached: the AES key
/// schedules (`send_aes`/`recv_aes`) and the keyed HMAC contexts
/// (`send_mac`/`recv_mac`/`iv_mac`, cloned per record). `seal`/`open`
/// must never re-run a key expansion on the per-record hot path.
#[derive(Debug)]
pub struct DataChannel {
    suite: CipherSuite,
    send_aes: Aes128,
    recv_aes: Aes128,
    send_mac: HmacSha256,
    recv_mac: HmacSha256,
    /// Keyed with the send encryption key; derives the per-packet IV.
    iv_mac: HmacSha256,
    next_send_id: u64,
    replay: ReplayWindow,
    meter: CycleMeter,
    cost: CostModel,
    /// Decrypt buffers of opened batch records, between uses.
    blobs: BufferPool,
}

impl DataChannel {
    /// Client-side channel (sends with client-to-server keys).
    pub fn client(
        keys: &SessionKeys,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
    ) -> Self {
        Self::new(
            &keys.client_to_server,
            &keys.server_to_client,
            suite,
            meter,
            cost,
        )
    }

    /// Server-side channel (sends with server-to-client keys).
    pub fn server(
        keys: &SessionKeys,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
    ) -> Self {
        Self::new(
            &keys.server_to_client,
            &keys.client_to_server,
            suite,
            meter,
            cost,
        )
    }

    fn new(
        send: &DirectionKeys,
        recv: &DirectionKeys,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
    ) -> Self {
        DataChannel {
            suite,
            send_aes: Aes128::new(&send.enc),
            recv_aes: Aes128::new(&recv.enc),
            send_mac: HmacSha256::new(&send.mac),
            recv_mac: HmacSha256::new(&recv.mac),
            iv_mac: HmacSha256::new(&send.enc),
            next_send_id: 1,
            replay: ReplayWindow::new(),
            meter,
            cost,
            blobs: BufferPool::with_byte_limit(BLOB_RETENTION_BYTES),
        }
    }

    /// The suite in force.
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// Seals `plaintext` into a record.
    pub fn seal(&mut self, opcode: Opcode, session_id: u64, plaintext: &[u8]) -> Record {
        self.seal_with(opcode, session_id, plaintext.len(), |body| {
            body.extend_from_slice(plaintext);
        })
    }

    /// Seals several tunnel packets into **one** [`Opcode::DataBatch`]
    /// record (the §IV batching optimisation): one IV, one MAC and one
    /// fixed per-record crypto charge amortised across the whole batch,
    /// instead of one of each per packet.
    pub fn seal_batch(&mut self, session_id: u64, payloads: &[&[u8]]) -> Record {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        let plain_len = frame::overhead(payloads.len()) + total;
        self.seal_with(Opcode::DataBatch, session_id, plain_len, |body| {
            frame::encode_into(body, payloads);
        })
    }

    /// Builds the sealed payload in one buffer: `write` appends the
    /// `plain_len` plaintext bytes right after the IV, where they are
    /// then padded, encrypted and MACed.
    fn seal_with(
        &mut self,
        opcode: Opcode,
        session_id: u64,
        plain_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Record {
        let packet_id = self.next_send_id;
        self.next_send_id += 1;
        self.charge(plain_len);
        let mut body = Vec::with_capacity(IV_LEN + plain_len + BLOCK_LEN + TAG_LEN);
        let tag = match self.suite {
            CipherSuite::Aes128CbcHmac => {
                let iv = self.derive_iv(packet_id);
                body.extend_from_slice(&iv);
                write(&mut body);
                cbc_encrypt_in_place(&self.send_aes, &iv, &mut body, IV_LEN);
                Self::tag(&self.send_mac, opcode, packet_id, &body)
            }
            CipherSuite::IntegrityOnly => {
                write(&mut body);
                Self::tag(&self.send_mac, opcode, packet_id, &body)
            }
            CipherSuite::SampledPayload => {
                write(&mut body);
                Self::sampled_tag(&self.send_mac, opcode, packet_id, &body)
            }
        };
        body.extend_from_slice(&tag);
        Record {
            opcode,
            session_id,
            packet_id,
            payload: body,
        }
    }

    /// Opens a sealed record, enforcing authenticity and replay
    /// protection.
    ///
    /// # Errors
    ///
    /// [`VpnError::AuthenticationFailed`] on tag mismatch,
    /// [`VpnError::Replay`] for repeated packet ids,
    /// [`VpnError::Malformed`] on framing problems.
    pub fn open(&mut self, record: &Record) -> Result<Vec<u8>, VpnError> {
        let mut out = Vec::new();
        self.open_into(record, &mut out)?;
        Ok(out)
    }

    /// [`DataChannel::open`] into a buffer the caller recycles: `out` is
    /// cleared, then holds exactly the plaintext. The MAC is verified on
    /// the borrowed record body before anything else happens, so a record
    /// that fails authentication moves neither the replay window nor a
    /// byte of `out`; on any error `out` is left empty.
    ///
    /// # Errors
    ///
    /// See [`DataChannel::open`].
    pub fn open_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<(), VpnError> {
        out.clear();
        if record.payload.len() < TAG_LEN {
            return Err(VpnError::Malformed("sealed payload too short"));
        }
        let (body, tag) = record.payload.split_at(record.payload.len() - TAG_LEN);
        let expected = match self.suite {
            CipherSuite::SampledPayload => {
                Self::sampled_tag(&self.recv_mac, record.opcode, record.packet_id, body)
            }
            _ => Self::tag(&self.recv_mac, record.opcode, record.packet_id, body),
        };
        if !endbox_crypto::ct_eq(&expected, tag) {
            return Err(VpnError::AuthenticationFailed);
        }
        if !self.replay.accept(record.packet_id) {
            return Err(VpnError::Replay);
        }
        self.charge(body.len());
        match self.suite {
            CipherSuite::Aes128CbcHmac => {
                if body.len() < IV_LEN + BLOCK_LEN {
                    return Err(VpnError::Malformed("ciphertext too short"));
                }
                let (iv, ciphertext) = body.split_at(IV_LEN);
                let iv: &[u8; IV_LEN] = iv.try_into().expect("split at IV_LEN");
                out.extend_from_slice(ciphertext);
                match cbc_decrypt_in_place(&self.recv_aes, iv, out) {
                    Ok(len) => out.truncate(len),
                    Err(_) => {
                        out.clear();
                        return Err(VpnError::AuthenticationFailed);
                    }
                }
            }
            CipherSuite::IntegrityOnly | CipherSuite::SampledPayload => {
                out.extend_from_slice(body);
            }
        }
        Ok(())
    }

    /// Opens a [`Opcode::DataBatch`] record as frame handles into the
    /// decrypted blob — one copy total (the decrypt), no per-frame copy.
    /// The blob is one of this channel's recycled buffers and returns to
    /// it when the [`BatchFrames`] is dropped, so steady-state opening
    /// allocates no blob at all.
    ///
    /// # Errors
    ///
    /// Everything [`DataChannel::open`] raises, plus
    /// [`VpnError::Malformed`] for non-batch records or bad framing.
    pub fn open_batch_frames(&mut self, record: &Record) -> Result<BatchFrames, VpnError> {
        if record.opcode != Opcode::DataBatch {
            return Err(VpnError::Malformed("expected DataBatch record"));
        }
        // From here the blob goes home on every path: `BatchFrames` gives
        // it back when dropped, `?` included.
        let mut frames = BatchFrames {
            blob: self.blobs.take(record.payload.len()),
            ranges: Vec::new(),
            home: self.blobs.clone(),
        };
        self.open_into(record, &mut frames.blob)?;
        frames.ranges = frame::decode(&frames.blob)?;
        Ok(frames)
    }

    /// Number of records sealed so far.
    pub fn sealed_count(&self) -> u64 {
        self.next_send_id - 1
    }

    /// True while the receive-side replay window has never accepted a
    /// packet (see [`ReplayWindow::is_empty`]) — the steal-safety
    /// predicate of the dispatcher.
    pub fn replay_is_empty(&self) -> bool {
        self.replay.is_empty()
    }

    fn charge(&self, bytes: usize) {
        let cycles = match self.suite {
            CipherSuite::IntegrityOnly => self.cost.integrity_only_cycles(bytes),
            // SampledPayload charges the full CBC+HMAC budget: it stands in
            // for the real suite in bulk runs.
            _ => self.cost.crypto_cycles(bytes),
        };
        self.meter.add(cycles);
    }

    /// Deterministic per-packet IV (unique per packet id; see module docs).
    fn derive_iv(&self, packet_id: u64) -> [u8; IV_LEN] {
        let mut m = self.iv_mac.clone();
        m.update(b"iv");
        m.update(&packet_id.to_be_bytes());
        let d = m.finalize();
        d[..IV_LEN].try_into().unwrap()
    }

    fn tag(keyed: &HmacSha256, opcode: Opcode, packet_id: u64, body: &[u8]) -> [u8; TAG_LEN] {
        let mut m = keyed.clone();
        m.update(&[opcode.to_u8()]);
        m.update(&packet_id.to_be_bytes());
        m.update(body);
        m.finalize()
    }

    /// MAC over a payload sample: first/last 32 bytes + length.
    fn sampled_tag(
        keyed: &HmacSha256,
        opcode: Opcode,
        packet_id: u64,
        body: &[u8],
    ) -> [u8; TAG_LEN] {
        let mut m = keyed.clone();
        m.update(&[opcode.to_u8(), 0xfe]);
        m.update(&packet_id.to_be_bytes());
        m.update(&(body.len() as u64).to_be_bytes());
        let head = &body[..body.len().min(32)];
        let tail = &body[body.len().saturating_sub(32)..];
        m.update(head);
        m.update(tail);
        m.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SessionKeys {
        SessionKeys::derive(&[7u8; 32], &[1u8; 32], &[2u8; 32])
    }

    fn pair(suite: CipherSuite) -> (DataChannel, DataChannel) {
        let k = keys();
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        (
            DataChannel::client(&k, suite, meter.clone(), cost.clone()),
            DataChannel::server(&k, suite, meter, cost),
        )
    }

    #[test]
    fn directional_keys_differ() {
        let k = keys();
        assert_ne!(k.client_to_server.enc, k.server_to_client.enc);
        assert_ne!(k.client_to_server.mac, k.server_to_client.mac);
    }

    #[test]
    fn seal_open_roundtrip_all_suites() {
        for suite in [
            CipherSuite::Aes128CbcHmac,
            CipherSuite::IntegrityOnly,
            CipherSuite::SampledPayload,
        ] {
            let (mut c, mut s) = pair(suite);
            let rec = c.seal(Opcode::Data, 9, b"tunnelled ip packet");
            assert_eq!(rec.session_id, 9);
            let pt = s.open(&rec).unwrap();
            assert_eq!(pt, b"tunnelled ip packet", "{suite:?}");
            // And the reverse direction.
            let rec2 = s.seal(Opcode::Data, 9, b"reply");
            assert_eq!(c.open(&rec2).unwrap(), b"reply");
        }
    }

    #[test]
    fn cbc_hides_plaintext_integrity_only_does_not() {
        let (mut c, _) = pair(CipherSuite::Aes128CbcHmac);
        let rec = c.seal(Opcode::Data, 1, b"supersecretpayload");
        assert!(!rec
            .payload
            .windows(b"supersecretpayload".len())
            .any(|w| w == b"supersecretpayload"));

        let (mut c2, _) = pair(CipherSuite::IntegrityOnly);
        let rec2 = c2.seal(Opcode::Data, 1, b"supersecretpayload");
        assert!(rec2
            .payload
            .windows(b"supersecretpayload".len())
            .any(|w| w == b"supersecretpayload"));
    }

    #[test]
    fn tampering_detected() {
        for suite in [CipherSuite::Aes128CbcHmac, CipherSuite::IntegrityOnly] {
            let (mut c, mut s) = pair(suite);
            let mut rec = c.seal(Opcode::Data, 1, b"payload payload payload");
            rec.payload[3] ^= 0x40;
            assert_eq!(
                s.open(&rec),
                Err(VpnError::AuthenticationFailed),
                "{suite:?}"
            );
        }
    }

    #[test]
    fn opcode_is_bound_into_tag() {
        let (mut c, mut s) = pair(CipherSuite::IntegrityOnly);
        let mut rec = c.seal(Opcode::Data, 1, b"x");
        rec.opcode = Opcode::Ping; // confuse data with control traffic
        assert_eq!(s.open(&rec), Err(VpnError::AuthenticationFailed));
    }

    #[test]
    fn replayed_records_rejected() {
        let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
        let rec = c.seal(Opcode::Data, 1, b"once only");
        s.open(&rec).unwrap();
        assert_eq!(s.open(&rec), Err(VpnError::Replay));
    }

    #[test]
    fn packet_id_tampering_detected() {
        let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
        let mut rec = c.seal(Opcode::Data, 1, b"payload");
        rec.packet_id += 1; // try to evade replay window
        assert_eq!(s.open(&rec), Err(VpnError::AuthenticationFailed));
    }

    /// MAC before decrypt: whatever is wrong with a record — tag, body,
    /// truncation, a body that is not whole blocks — the verdict is the
    /// one the parent gave, the replay window has not moved (the genuine
    /// record still opens afterwards) and the caller's recycled buffer
    /// holds nothing, least of all its previous plaintext.
    #[test]
    fn rejected_records_touch_neither_window_nor_buffer() {
        let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
        let genuine = c.seal(Opcode::Data, 1, &[0x61; 100]);
        let n = genuine.payload.len();
        let damaged = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut rec = genuine.clone();
            f(&mut rec.payload);
            rec
        };
        let cases = [
            (
                "tag bit",
                damaged(&|p| p[n - 1] ^= 1),
                VpnError::AuthenticationFailed,
            ),
            (
                "body bit",
                damaged(&|p| p[IV_LEN + 3] ^= 0x10),
                VpnError::AuthenticationFailed,
            ),
            (
                "iv bit",
                damaged(&|p| p[0] ^= 0x80),
                VpnError::AuthenticationFailed,
            ),
            (
                "cut below IV + one block",
                damaged(&|p| p.truncate(IV_LEN + 8 + TAG_LEN)),
                VpnError::AuthenticationFailed,
            ),
            (
                "cut below a tag",
                damaged(&|p| p.truncate(TAG_LEN - 1)),
                VpnError::Malformed("sealed payload too short"),
            ),
            (
                "body not whole blocks",
                damaged(&|p| {
                    p.remove(IV_LEN + 5);
                }),
                VpnError::AuthenticationFailed,
            ),
        ];
        let mut out = b"plaintext of the previous record".to_vec();
        for (what, rec, want) in cases {
            assert_eq!(s.open_into(&rec, &mut out), Err(want), "{what}");
            assert!(out.is_empty(), "{what}");
            assert!(s.replay_is_empty(), "{what}: window moved");
            out.extend_from_slice(b"plaintext of the previous record");
        }
        s.open_into(&genuine, &mut out).unwrap();
        assert_eq!(out, [0x61; 100]);
    }

    /// The same for records whose MAC *verifies* but whose body the CBC
    /// suite cannot decrypt (sealed under the integrity-only suite with
    /// the same keys): the error is the parent's, and no plaintext or
    /// stale byte comes out.
    #[test]
    fn authentic_but_undecryptable_bodies_yield_no_bytes() {
        let k = keys();
        let cost = CostModel::calibrated();
        let mut plain = DataChannel::client(
            &k,
            CipherSuite::IntegrityOnly,
            CycleMeter::new(),
            cost.clone(),
        );
        let mut s = DataChannel::server(&k, CipherSuite::Aes128CbcHmac, CycleMeter::new(), cost);
        let mut out = b"stale".to_vec();
        let short = plain.seal(Opcode::Data, 1, &[7; 10]);
        assert_eq!(
            s.open_into(&short, &mut out),
            Err(VpnError::Malformed("ciphertext too short"))
        );
        assert!(out.is_empty());
        let ragged = plain.seal(Opcode::Data, 1, &[7; IV_LEN + 24]);
        assert_eq!(
            s.open_into(&ragged, &mut out),
            Err(VpnError::AuthenticationFailed)
        );
        assert!(out.is_empty());
        let bad_padding = plain.seal(Opcode::Data, 1, &[7; IV_LEN + 32]);
        assert_eq!(
            s.open_into(&bad_padding, &mut out),
            Err(VpnError::AuthenticationFailed)
        );
        assert!(out.is_empty());
    }

    /// A batch blob is on loan: dropping the frames hands it back, and the
    /// next record decrypts into the same allocation.
    #[test]
    fn batch_blob_returns_to_its_channel() {
        let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
        let payloads: Vec<&[u8]> = vec![&[1; 700], &[2; 700]];
        let frames = s.open_batch_frames(&c.seal_batch(1, &payloads)).unwrap();
        let first = frames.frame(0).as_ptr();
        drop(frames);
        assert_eq!(s.blobs.free_buffers(), 1);
        let frames = s.open_batch_frames(&c.seal_batch(1, &payloads)).unwrap();
        assert_eq!(frames.frame(0).as_ptr(), first, "same buffer, recycled");
        assert_eq!(s.blobs.stats().fresh_allocs, 1);
        // A rejected record borrows and returns too.
        let mut forged = c.seal_batch(1, &payloads);
        forged.payload[20] ^= 1;
        assert!(s.open_batch_frames(&forged).is_err());
        drop(frames);
        assert_eq!(s.blobs.free_buffers(), 2);
        assert_eq!(s.blobs.stats().discarded, 0);
    }

    /// The sealed payload is built in the one buffer the record owns, and
    /// its bytes are what the parent's blob → padded copy → body copy
    /// produced: IV, then CBC of the framed batch, then the tag over both.
    #[test]
    fn seal_batch_layout_is_iv_ciphertext_tag() {
        use endbox_crypto::hmac::HmacSha256;
        use endbox_crypto::modes::cbc_encrypt;
        let k = keys();
        let (mut c, _) = pair(CipherSuite::Aes128CbcHmac);
        let payloads: Vec<&[u8]> = vec![b"first packet", b"", b"third tunnelled packet"];
        let rec = c.seal_batch(7, &payloads);

        let mut m = HmacSha256::new(&k.client_to_server.enc);
        m.update(b"iv");
        m.update(&1u64.to_be_bytes());
        let iv: [u8; 16] = m.finalize()[..16].try_into().unwrap();
        let aes = Aes128::new(&k.client_to_server.enc);
        let mut want = iv.to_vec();
        want.extend(cbc_encrypt(&aes, &iv, &frame::encode(&payloads)));
        let mut m = HmacSha256::new(&k.client_to_server.mac);
        m.update(&[Opcode::DataBatch.to_u8()]);
        m.update(&1u64.to_be_bytes());
        m.update(&want);
        want.extend(m.finalize());
        assert_eq!(rec.payload, want);
    }

    #[test]
    fn batch_seal_open_roundtrip() {
        for suite in [
            CipherSuite::Aes128CbcHmac,
            CipherSuite::IntegrityOnly,
            CipherSuite::SampledPayload,
        ] {
            let (mut c, mut s) = pair(suite);
            let payloads: Vec<&[u8]> = vec![b"first packet", b"", b"third tunnelled packet"];
            let rec = c.seal_batch(7, &payloads);
            assert_eq!(rec.opcode, Opcode::DataBatch);
            assert_eq!(
                s.open_batch_frames(&rec).unwrap().to_vecs(),
                payloads,
                "{suite:?}"
            );
        }
    }

    #[test]
    fn batch_record_amortises_fixed_crypto_cost() {
        let cost = CostModel::calibrated();
        let payloads = [[0u8; 500]; 8];
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();

        let k = keys();
        let meter_single = CycleMeter::new();
        let mut single = DataChannel::client(
            &k,
            CipherSuite::Aes128CbcHmac,
            meter_single.clone(),
            cost.clone(),
        );
        for p in &refs {
            single.seal(Opcode::Data, 1, p);
        }
        let single_cycles = meter_single.take();

        let meter_batch = CycleMeter::new();
        let mut batched = DataChannel::client(
            &k,
            CipherSuite::Aes128CbcHmac,
            meter_batch.clone(),
            cost.clone(),
        );
        batched.seal_batch(1, &refs);
        let batch_cycles = meter_batch.take();

        assert!(
            batch_cycles < single_cycles,
            "batched sealing must be cheaper: {batch_cycles} vs {single_cycles}"
        );
        // The saving is the per-packet fixed cost, (n-1) * crypto_per_packet,
        // minus the framing bytes the batch additionally protects.
        assert!(single_cycles - batch_cycles > cost.crypto_per_packet * 6);
        assert_eq!(batched.sealed_count(), 1, "one record for the whole batch");
    }

    #[test]
    fn batch_open_rejects_wrong_opcode_and_tampering() {
        let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
        let rec = c.seal(Opcode::Data, 1, b"plain data record");
        assert!(
            s.open_batch_frames(&rec).is_err(),
            "plain Data record is not a batch"
        );

        let mut rec = c.seal_batch(1, &[b"aaaa", b"bbbb"]);
        rec.payload[9] ^= 1;
        assert_eq!(
            s.open_batch_frames(&rec).unwrap_err(),
            VpnError::AuthenticationFailed
        );
    }

    #[test]
    fn integrity_only_is_cheaper_than_cbc() {
        let cost = CostModel::calibrated();
        assert!(cost.integrity_only_cycles(1500) < cost.crypto_cycles(1500));
    }

    #[test]
    fn cycle_charges_match_suite() {
        let k = keys();
        let cost = CostModel::calibrated();
        let meter = CycleMeter::new();
        let mut c =
            DataChannel::client(&k, CipherSuite::IntegrityOnly, meter.clone(), cost.clone());
        c.seal(Opcode::Data, 1, &[0u8; 1000]);
        assert_eq!(meter.take(), cost.integrity_only_cycles(1000));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any payload roundtrips through any suite.
            #[test]
            fn seal_open_roundtrip(
                payload in prop::collection::vec(any::<u8>(), 0..2048),
                suite_idx in 0usize..3,
            ) {
                let suite = [
                    CipherSuite::Aes128CbcHmac,
                    CipherSuite::IntegrityOnly,
                    CipherSuite::SampledPayload,
                ][suite_idx];
                let (mut c, mut s) = pair(suite);
                let rec = c.seal(Opcode::Data, 1, &payload);
                prop_assert_eq!(s.open(&rec).unwrap(), payload);
            }

            /// Bit flips anywhere in a CBC+HMAC record are rejected.
            #[test]
            fn any_bitflip_detected(
                payload in prop::collection::vec(any::<u8>(), 1..256),
                byte_idx in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let (mut c, mut s) = pair(CipherSuite::Aes128CbcHmac);
                let mut rec = c.seal(Opcode::Data, 1, &payload);
                let i = byte_idx.index(rec.payload.len());
                rec.payload[i] ^= 1 << bit;
                prop_assert!(s.open(&rec).is_err());
            }
        }
    }

    #[test]
    fn wrong_direction_keys_fail() {
        let k = keys();
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        let mut c1 =
            DataChannel::client(&k, CipherSuite::Aes128CbcHmac, meter.clone(), cost.clone());
        let mut c2 = DataChannel::client(&k, CipherSuite::Aes128CbcHmac, meter, cost);
        let rec = c1.seal(Opcode::Data, 1, b"hello");
        // A client cannot open another client's traffic (keys are
        // directional).
        assert!(c2.open(&rec).is_err());
    }
}

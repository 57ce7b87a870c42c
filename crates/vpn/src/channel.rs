//! The data channel: authenticated encryption of tunnel payloads.
//!
//! Two suites on one AEAD. The paper's OpenVPN protects each record with
//! AES-128-CBC + HMAC-SHA256 (§IV-A); the enterprise suite here is
//! AES-128-GCM, the AEAD OpenVPN's own data channel moved to in 2.4 and
//! LightBox uses for its middlebox channel. The ISP scenario's
//! integrity-only suite ("AES-128-CBC packet encryption is optional …
//! the fact that egress traffic is analysed by Click needs to be ensured
//! by applying integrity protection", §IV-A) is GMAC, GCM with nothing
//! encrypted. Both authenticate every byte of a record. The cost model
//! still prices the enterprise suite as the paper's CBC+HMAC
//! ([`CostModel::crypto_cycles`]): it prices the paper's testbed, not
//! this cipher.
//!
//! # One buffer per record
//!
//! A sealed payload is `[body ‖ tag16]` in both suites — no IV, no
//! padding. The nonce is `0³² ‖ packet_id`, so
//! `J0 = 0³² ‖ packet_id ‖ 0x00000001`; it is unique because the keys are
//! per direction and the packet ids come from the one [`SendHalf`]
//! counter. `seal` builds the payload in the one `Vec` the [`Record`]
//! will own: the plaintext (for a batch, the frames straight from
//! [`frame::encode_into`]), then, under AES-GCM, the keystream from
//! `J0 + 1` XORed in where the bytes lie and the tag over
//! `A = opcode ‖ packet_id` and `C = body`; integrity-only, the tag over
//! `A = opcode ‖ packet_id ‖ body` and no `C`. `open` checks the tag over
//! the borrowed body **first** and touches neither the replay window nor
//! any output buffer until it verifies, then copies the body into a
//! recycled buffer — the caller's ([`DataChannel::open_into`]) or, for
//! batches, one that [`BatchFrames`] returns to the channel when it is
//! dropped — and, under AES-GCM, XORs the keystream out of it. The key
//! schedule and GHASH powers of each direction are computed once, when
//! the channel is built.
//!
//! # Two halves
//!
//! Sealing touches only send-direction state and opening only
//! receive-direction state, so a channel is a [`SendHalf`] plus a
//! [`RecvHalf`]. The client keeps the pair as one [`DataChannel`]; the
//! server [`DataChannel::split`]s it, keeping the send half on the
//! front-end thread that seals egress and handing the receive half to the
//! worker that opens the session's records.

use crate::error::VpnError;
use crate::proto::{frame, Opcode, Record};
use crate::replay::ReplayWindow;
use endbox_crypto::ct_eq;
use endbox_crypto::ghash::{self, Gcm, TAG_LEN};
use endbox_crypto::hmac::hkdf;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::BufferPool;
use std::sync::Arc;

/// Data-channel protection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CipherSuite {
    /// AES-128-GCM: the body encrypted, the record authenticated
    /// (enterprise default).
    #[default]
    Aes128Gcm,
    /// GMAC only (AES-GCM with an empty plaintext); the payload travels
    /// in clear (ISP mode, §IV-A).
    IntegrityOnly,
}

impl CipherSuite {
    /// The enterprise suite under the name it had while it was
    /// AES-128-CBC + HMAC-SHA256. Kept only for the wall-clock
    /// benchmark's sources, which name it; it goes with ROADMAP item 9's
    /// seam.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Aes128CbcHmac: CipherSuite = CipherSuite::Aes128Gcm;

    /// The tag of a record's wire `body`: the ciphertext under AES-GCM,
    /// the plaintext, bound as AAD behind the header, under GMAC.
    fn tag(self, gcm: &Gcm, opcode: Opcode, packet_id: u64, body: &[u8]) -> [u8; TAG_LEN] {
        let header = header(opcode, packet_id);
        match self {
            CipherSuite::Aes128Gcm => gcm.tag(&nonce(packet_id), &[&header], body),
            CipherSuite::IntegrityOnly => gcm.tag(&nonce(packet_id), &[&header, body], &[]),
        }
    }
}

/// The key of one direction of a session.
#[derive(Clone)]
pub struct DirectionKeys {
    /// AES-128 key of both suites.
    pub enc: [u8; 16],
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
        SessionKeys {
            client_to_server: DirectionKeys {
                enc: hkdf(&salt, shared, b"endbox c2s enc"),
            },
            server_to_client: DirectionKeys {
                enc: hkdf(&salt, shared, b"endbox s2c enc"),
            },
        }
    }
}

/// The longest body a record seals. The wire header states the payload
/// length, tag included, in a `u32` ([`Record::header`]), so no longer
/// record can travel. GCM's counter is `inc32`, which wraps within the
/// low 32 bits, while the keystream's CTR carries into all 128; the two
/// agree for any body shorter than 2³² − 2 blocks
/// ([`ghash::MAX_TEXT_LEN`]), which this bound is far below.
const MAX_BODY_LEN: usize = u32::MAX as usize - TAG_LEN;
const _: () = assert!((MAX_BODY_LEN as u64) < ghash::MAX_TEXT_LEN);

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

/// The suite both halves of a channel run, and the meter its per-record
/// crypto cost is charged to with the `CostModel` formula for that suite.
/// One model per channel, shared by its halves.
#[derive(Debug, Clone)]
struct Suite {
    kind: CipherSuite,
    meter: CycleMeter,
    cost: Arc<CostModel>,
}

impl Suite {
    fn charge(&self, bytes: usize) {
        let cycles = match self.kind {
            CipherSuite::Aes128Gcm => self.cost.crypto_cycles(bytes),
            CipherSuite::IntegrityOnly => self.cost.integrity_only_cycles(bytes),
        };
        self.meter.add(cycles);
    }
}

/// The send direction of a channel: everything sealing touches and
/// nothing else — the send key and the packet-id counter. On the server
/// it lives with the front-end thread that seals egress
/// (`server::SendTable`), apart from the [`RecvHalf`] a worker owns.
///
/// Not `Clone`, and the only place a direction's packet ids come from:
/// the nonce is the packet id, so this is what its uniqueness rests on.
#[derive(Debug)]
pub struct SendHalf {
    gcm: Gcm,
    next_id: u64,
    suite: Suite,
}

/// The receive direction of a channel: everything opening touches — the
/// receive key, the replay window and the recycled decrypt buffers. On
/// the server it is what a [`crate::shard::ServerSession`] carries from
/// worker to worker.
#[derive(Debug)]
pub struct RecvHalf {
    gcm: Gcm,
    replay: ReplayWindow,
    /// Decrypt buffers of opened batch records, between uses.
    blobs: BufferPool,
    suite: Suite,
}

/// One endpoint's view of an established data channel: a [`SendHalf`]
/// and a [`RecvHalf`]. The client keeps the pair; the server splits it
/// ([`DataChannel::split`]) so each direction lives with the thread that
/// uses it.
///
/// Everything that depends only on the session keys is expanded **once
/// per direction** at channel construction and cached: the AES key
/// schedule and the GHASH key (H and its powers). `seal`/`open` must
/// never re-run a key expansion on the per-record hot path.
#[derive(Debug)]
pub struct DataChannel {
    send: SendHalf,
    recv: RecvHalf,
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
        let suite = Suite {
            kind: suite,
            meter,
            cost: Arc::new(cost),
        };
        DataChannel {
            send: SendHalf {
                gcm: Gcm::new(&send.enc),
                next_id: 1,
                suite: suite.clone(),
            },
            recv: RecvHalf {
                gcm: Gcm::new(&recv.enc),
                replay: ReplayWindow::new(),
                blobs: BufferPool::with_byte_limit(BLOB_RETENTION_BYTES),
                suite,
            },
        }
    }

    /// Splits the channel into its two directions, each to be owned by
    /// the thread that uses it. Nothing is copied or re-derived.
    pub fn split(self) -> (SendHalf, RecvHalf) {
        (self.send, self.recv)
    }

    /// The suite in force.
    pub fn suite(&self) -> CipherSuite {
        self.send.suite.kind
    }

    /// Seals `plaintext` into a record ([`SendHalf::seal`]).
    pub fn seal(&mut self, opcode: Opcode, session_id: u64, plaintext: &[u8]) -> Record {
        self.send.seal(opcode, session_id, plaintext)
    }

    /// Seals several tunnel packets into one record
    /// ([`SendHalf::seal_batch`]).
    pub fn seal_batch<I>(&mut self, session_id: u64, payloads: I) -> Record
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        self.send.seal_batch(session_id, payloads)
    }

    /// Opens a sealed record ([`RecvHalf::open`]).
    ///
    /// # Errors
    ///
    /// See [`RecvHalf::open`].
    pub fn open(&mut self, record: &Record) -> Result<Vec<u8>, VpnError> {
        self.recv.open(record)
    }

    /// Opens a sealed record into a recycled buffer
    /// ([`RecvHalf::open_into`]).
    ///
    /// # Errors
    ///
    /// See [`RecvHalf::open`].
    pub fn open_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<(), VpnError> {
        self.recv.open_into(record, out)
    }

    /// Opens a batch record as frame handles
    /// ([`RecvHalf::open_batch_frames`]).
    ///
    /// # Errors
    ///
    /// See [`RecvHalf::open_batch_frames`].
    pub fn open_batch_frames(&mut self, record: &Record) -> Result<BatchFrames, VpnError> {
        self.recv.open_batch_frames(record)
    }

    /// Number of records sealed so far.
    pub fn sealed_count(&self) -> u64 {
        self.send.next_id - 1
    }

    /// See [`RecvHalf::replay_is_empty`].
    pub fn replay_is_empty(&self) -> bool {
        self.recv.replay_is_empty()
    }
}

impl SendHalf {
    /// Seals `plaintext` into a record.
    pub fn seal(&mut self, opcode: Opcode, session_id: u64, plaintext: &[u8]) -> Record {
        self.seal_with(opcode, session_id, plaintext.len(), |body| {
            body.extend_from_slice(plaintext);
        })
    }

    /// Seals several tunnel packets into **one** [`Opcode::DataBatch`]
    /// record (the §IV batching optimisation): one nonce, one tag and one
    /// fixed per-record crypto charge amortised across the whole batch,
    /// instead of one of each per packet. The frames are written straight
    /// into the record body — no intermediate blob. `payloads` is any
    /// clonable iterator of byte slices ([`frame::encode_into`]).
    pub fn seal_batch<I>(&mut self, session_id: u64, payloads: I) -> Record
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        let payloads = payloads.into_iter();
        let plain_len = frame::encoded_len(payloads.clone());
        self.seal_with(Opcode::DataBatch, session_id, plain_len, |body| {
            frame::encode_into(body, payloads);
        })
    }

    /// Builds the sealed payload in one buffer: `write` appends the
    /// `plain_len` plaintext bytes, the suite encrypts them where they
    /// lie (AES-GCM) or leaves them (GMAC), and the tag follows them.
    ///
    /// # Panics
    ///
    /// Panics if `plain_len` exceeds [`MAX_BODY_LEN`]: the record's
    /// length would not fit its wire header.
    fn seal_with(
        &mut self,
        opcode: Opcode,
        session_id: u64,
        plain_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Record {
        assert!(plain_len <= MAX_BODY_LEN, "record body too long to seal");
        let packet_id = self.next_id;
        self.next_id += 1;
        self.suite.charge(plain_len);
        let mut body = Vec::with_capacity(plain_len + TAG_LEN);
        write(&mut body);
        if self.suite.kind == CipherSuite::Aes128Gcm {
            self.gcm.keystream_xor(&nonce(packet_id), &mut body);
        }
        let tag = self.suite.kind.tag(&self.gcm, opcode, packet_id, &body);
        body.extend_from_slice(&tag);
        Record {
            opcode,
            session_id,
            packet_id,
            payload: body,
        }
    }
}

impl RecvHalf {
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

    /// [`RecvHalf::open`] into a buffer the caller recycles: `out` is
    /// cleared, then holds exactly the plaintext. The tag is verified on
    /// the borrowed record body before anything else happens, so a
    /// record that fails authentication moves neither the replay window
    /// nor a byte of `out`; on any error `out` is left empty.
    ///
    /// # Errors
    ///
    /// See [`RecvHalf::open`].
    pub fn open_into(&mut self, record: &Record, out: &mut Vec<u8>) -> Result<(), VpnError> {
        out.clear();
        let Some(body_len) = record.payload.len().checked_sub(TAG_LEN) else {
            return Err(VpnError::Malformed("sealed payload too short"));
        };
        if body_len > MAX_BODY_LEN {
            return Err(VpnError::Malformed("sealed payload too long"));
        }
        let (body, tag) = record.payload.split_at(body_len);
        let kind = self.suite.kind;
        let expected = kind.tag(&self.gcm, record.opcode, record.packet_id, body);
        if !ct_eq(&expected, tag) {
            return Err(VpnError::AuthenticationFailed);
        }
        if !self.replay.accept(record.packet_id) {
            return Err(VpnError::Replay);
        }
        self.suite.charge(body.len());
        out.extend_from_slice(body);
        if kind == CipherSuite::Aes128Gcm {
            self.gcm.keystream_xor(&nonce(record.packet_id), out);
        }
        Ok(())
    }

    /// Opens a [`Opcode::DataBatch`] record as frame handles into the
    /// decrypted blob — one copy total (the decrypt), no per-frame copy.
    /// The blob is one of this half's recycled buffers and returns to it
    /// when the [`BatchFrames`] is dropped, so steady-state opening
    /// allocates no blob at all.
    ///
    /// # Errors
    ///
    /// Everything [`RecvHalf::open`] raises, plus
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

    /// True while the replay window has never accepted a packet (see
    /// [`ReplayWindow::is_empty`]) — the steal-safety predicate of the
    /// dispatcher.
    pub fn replay_is_empty(&self) -> bool {
        self.replay.is_empty()
    }
}

/// The bytes a record's tag binds ahead of its body: `opcode ‖ packet_id`.
fn header(opcode: Opcode, packet_id: u64) -> [u8; 9] {
    let mut h = [opcode.to_u8(); 9];
    h[1..].copy_from_slice(&packet_id.to_be_bytes());
    h
}

/// A record's 96-bit nonce: `0³² ‖ packet_id`.
fn nonce(packet_id: u64) -> [u8; ghash::NONCE_LEN] {
    let mut nonce = [0u8; ghash::NONCE_LEN];
    nonce[4..].copy_from_slice(&packet_id.to_be_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use endbox_crypto::aes::Aes128;

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
    }

    #[test]
    fn seal_open_roundtrip_all_suites() {
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
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

    /// The server splits its channel and the client keeps the pair: a
    /// record sealed by the server's send half opens with the client's
    /// receive half and the reverse, in every suite — and the split half
    /// seals exactly the bytes the unsplit channel would have.
    #[test]
    fn split_halves_interoperate_with_the_client_pair() {
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
            let (mut c, s) = pair(suite);
            let (_, mut whole) = pair(suite);
            let (mut send, mut recv) = s.split();
            let payloads: Vec<&[u8]> = vec![b"to the client", b"", b"and one more"];
            for _ in 0..3 {
                let down = send.seal_batch(4, &payloads);
                assert_eq!(down.payload, whole.seal_batch(4, &payloads).payload);
                assert_eq!(c.open_batch_frames(&down).unwrap().to_vecs(), payloads);
                let ping = send.seal(Opcode::Ping, 4, b"ping");
                assert_eq!(ping.payload, whole.seal(Opcode::Ping, 4, b"ping").payload);
                assert_eq!(c.open(&ping).unwrap(), b"ping", "{suite:?}");
                let up = c.seal(Opcode::Data, 4, b"to the server");
                assert_eq!(recv.open(&up).unwrap(), b"to the server", "{suite:?}");
                assert_eq!(recv.open(&up), Err(VpnError::Replay));
            }
            assert!(!recv.replay_is_empty());
        }
    }

    #[test]
    fn gcm_hides_plaintext_integrity_only_does_not() {
        let (mut c, _) = pair(CipherSuite::Aes128Gcm);
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
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
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
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
            let (mut c, mut s) = pair(suite);
            let mut rec = c.seal(Opcode::Data, 1, b"x");
            rec.opcode = Opcode::Ping; // confuse data with control traffic
            assert_eq!(s.open(&rec), Err(VpnError::AuthenticationFailed));
        }
    }

    #[test]
    fn replayed_records_rejected() {
        let (mut c, mut s) = pair(CipherSuite::Aes128Gcm);
        let rec = c.seal(Opcode::Data, 1, b"once only");
        s.open(&rec).unwrap();
        assert_eq!(s.open(&rec), Err(VpnError::Replay));
    }

    #[test]
    fn packet_id_tampering_detected() {
        let (mut c, mut s) = pair(CipherSuite::Aes128Gcm);
        let mut rec = c.seal(Opcode::Data, 1, b"payload");
        rec.packet_id += 1; // try to evade replay window
        assert_eq!(s.open(&rec), Err(VpnError::AuthenticationFailed));
    }

    /// Tag before anything else: whatever is wrong with a record — tag,
    /// body, truncation — the verdict is the one the parent gave, the
    /// replay window has not moved (the genuine record still opens
    /// afterwards) and the caller's recycled buffer holds nothing, least
    /// of all its previous plaintext. Both suites lay a record out as
    /// `[body ‖ tag16]`, so one list of damages serves both.
    #[test]
    fn rejected_records_touch_neither_window_nor_buffer() {
        let auth = VpnError::AuthenticationFailed;
        type Damage = fn(&mut Vec<u8>);
        let cases: Vec<(&str, Damage, VpnError)> = vec![
            ("tag bit", |p| *p.last_mut().unwrap() ^= 1, auth.clone()),
            ("body bit", |p| p[3] ^= 0x10, auth.clone()),
            (
                "body byte dropped",
                |p| {
                    p.remove(5);
                },
                auth.clone(),
            ),
            ("tag dropped", |p| p.truncate(100), auth.clone()),
            (
                "cut below a 16 B tag",
                |p| p.truncate(TAG_LEN - 1),
                VpnError::Malformed("sealed payload too short"),
            ),
        ];
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
            let (mut c, mut s) = pair(suite);
            let genuine = c.seal(Opcode::Data, 1, &[0x61; 100]);
            let mut out = b"plaintext of the previous record".to_vec();
            for (what, damage, want) in &cases {
                let mut rec = genuine.clone();
                damage(&mut rec.payload);
                assert_eq!(
                    s.open_into(&rec, &mut out),
                    Err(want.clone()),
                    "{suite:?}: {what}"
                );
                assert!(out.is_empty(), "{suite:?}: {what}");
                assert!(s.replay_is_empty(), "{suite:?}: {what}: window moved");
                out.extend_from_slice(b"plaintext of the previous record");
            }
            s.open_into(&genuine, &mut out).unwrap();
            assert_eq!(out, [0x61; 100], "{suite:?}");
        }
    }

    /// A batch blob is on loan: dropping the frames hands it back, and the
    /// next record decrypts into the same allocation.
    #[test]
    fn batch_blob_returns_to_its_channel() {
        let (mut c, mut s) = pair(CipherSuite::Aes128Gcm);
        let payloads: Vec<&[u8]> = vec![&[1; 700], &[2; 700]];
        let frames = s.open_batch_frames(&c.seal_batch(1, &payloads)).unwrap();
        let first = frames.frame(0).as_ptr();
        drop(frames);
        assert_eq!(s.recv.blobs.free_buffers(), 1);
        let frames = s.open_batch_frames(&c.seal_batch(1, &payloads)).unwrap();
        assert_eq!(frames.frame(0).as_ptr(), first, "same buffer, recycled");
        assert_eq!(s.recv.blobs.stats().fresh_allocs, 1);
        // A rejected record borrows and returns too.
        let mut forged = c.seal_batch(1, &payloads);
        forged.payload[20] ^= 1;
        assert!(s.open_batch_frames(&forged).is_err());
        drop(frames);
        assert_eq!(s.recv.blobs.free_buffers(), 2);
        assert_eq!(s.recv.blobs.stats().discarded, 0);
    }

    /// The sealed payload is built in the one buffer the record owns,
    /// and its bytes are AES-GCM's: the framed batch encrypted, then its
    /// tag — no IV and no padding, 16 B of overhead.
    #[test]
    fn seal_batch_layout_is_ciphertext_tag() {
        let (mut c, _) = pair(CipherSuite::Aes128Gcm);
        let payloads: Vec<&[u8]> = vec![b"first packet", b"", b"third tunnelled packet"];
        let plaintext = frame::encode(&payloads);
        let rec = c.seal_batch(7, &payloads);
        assert_eq!(rec.payload.len(), plaintext.len() + TAG_LEN);
        assert_eq!(rec.payload, gcm_oracle(Opcode::DataBatch, 1, &plaintext));
    }

    /// GHASH from the spec's pieces alone: `H = E_K(0)` for the client's
    /// key, and Algorithm 1 one bit at a time through [`ghash::mul`] over
    /// `blocks` (whole blocks, already padded).
    fn ghash_oracle(aes: &Aes128, blocks: &[u8]) -> [u8; 16] {
        let h = aes.encrypt_block(&[0; 16]);
        let mut y = [0u8; 16];
        for x in blocks.chunks_exact(16) {
            for (y, x) in y.iter_mut().zip(x) {
                *y ^= x;
            }
            y = ghash::mul(&y, &h);
        }
        y
    }

    /// `E_K(0³² ‖ packet_id ‖ [i]₃₂)` under the client's key.
    fn counter_oracle(aes: &Aes128, packet_id: u64, i: u32) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[4..12].copy_from_slice(&packet_id.to_be_bytes());
        block[12..].copy_from_slice(&i.to_be_bytes());
        aes.encrypt_block(&block)
    }

    /// `bytes` zero-padded to whole blocks.
    fn padded(bytes: &[u8]) -> Vec<u8> {
        let mut v = bytes.to_vec();
        v.resize(bytes.len().div_ceil(16) * 16, 0);
        v
    }

    /// The sealed payload of an AES-GCM client record from the spec's
    /// pieces alone: the plaintext XORed block by block with
    /// `E_K(0³² ‖ packet_id ‖ i)` for `i = 2, 3, …`, then the tag —
    /// [`ghash_oracle`] over `opcode ‖ packet_id`, zero-padded, the
    /// ciphertext, zero-padded, and the length block, masked with
    /// `E_K(J0)`.
    fn gcm_oracle(opcode: Opcode, packet_id: u64, plaintext: &[u8]) -> Vec<u8> {
        let aes = Aes128::new(&keys().client_to_server.enc);
        let mut sealed: Vec<u8> = Vec::with_capacity(plaintext.len() + 16);
        for (i, p) in plaintext.chunks(16).enumerate() {
            let k = counter_oracle(&aes, packet_id, i as u32 + 2);
            sealed.extend(p.iter().zip(k).map(|(p, k)| p ^ k));
        }
        let mut a = vec![opcode.to_u8()];
        a.extend_from_slice(&packet_id.to_be_bytes());
        let mut x = padded(&a);
        x.extend(padded(&sealed));
        x.extend_from_slice(&(8 * a.len() as u64).to_be_bytes());
        x.extend_from_slice(&(8 * sealed.len() as u64).to_be_bytes());
        let y = ghash_oracle(&aes, &x);
        let mask = counter_oracle(&aes, packet_id, 1);
        sealed.extend(y.iter().zip(mask).map(|(y, m)| y ^ m));
        sealed
    }

    /// The GMAC tag of an integrity-only client record from the spec's
    /// pieces alone: [`ghash_oracle`] over `opcode ‖ packet_id ‖ body`,
    /// zero-padded, and its length block, masked with
    /// `E_K(0³² ‖ packet_id ‖ 1)`.
    fn gmac_oracle(rec: &Record) -> [u8; 16] {
        let aes = Aes128::new(&keys().client_to_server.enc);
        let body = &rec.payload[..rec.payload.len() - 16];
        let mut a = vec![rec.opcode.to_u8()];
        a.extend_from_slice(&rec.packet_id.to_be_bytes());
        a.extend_from_slice(body);
        let mut x = padded(&a);
        x.extend_from_slice(&(8 * a.len() as u64).to_be_bytes());
        x.extend_from_slice(&[0; 8]);
        let mut y = ghash_oracle(&aes, &x);
        for (y, m) in y.iter_mut().zip(counter_oracle(&aes, rec.packet_id, 1)) {
            *y ^= m;
        }
        y
    }

    /// The sealed bytes of one fixed-key client channel, pinned to the
    /// SHA-256 of every record it seals: `seal` at every length 0..=300,
    /// `seal_batch` in the three benchmark shapes (16×1460, 8×256, 4×64)
    /// and a `Ping`, per suite. The AES-GCM digest was recorded when that
    /// suite replaced CBC+HMAC, and every one of its records is rebuilt
    /// here, ciphertext and tag, by the bit-serial [`gcm_oracle`]; the
    /// integrity-only digest when that suite became GMAC, and every one
    /// of its tags is recomputed by [`gmac_oracle`] — so both pin the
    /// wire bytes themselves, not only agreement with the kernels a seal
    /// is built from.
    #[test]
    fn sealed_bytes_match_the_recorded_digest() {
        use endbox_crypto::hex;
        use endbox_crypto::sha256::Sha256;
        let recorded = [
            (
                CipherSuite::Aes128Gcm,
                "6ef7a40583c325aa628bc9a0af21b841f28fe690573ee68023287fe4f191fbe7",
            ),
            (
                CipherSuite::IntegrityOnly,
                "ce46d48e885257127e720fcecbb63f467412e1061aeec8f970eed3cf953d25fc",
            ),
        ];
        for (suite, want) in recorded {
            let (mut c, _) = pair(suite);
            let mut h = Sha256::new();
            let mut absorb = |rec: Record, plaintext: &[u8]| {
                match suite {
                    CipherSuite::Aes128Gcm => assert_eq!(
                        rec.payload,
                        gcm_oracle(rec.opcode, rec.packet_id, plaintext),
                        "packet id {}",
                        rec.packet_id
                    ),
                    CipherSuite::IntegrityOnly => {
                        let tag = &rec.payload[rec.payload.len() - 16..];
                        assert_eq!(tag, gmac_oracle(&rec), "packet id {}", rec.packet_id);
                    }
                }
                h.update(&[rec.opcode.to_u8()]);
                h.update(&rec.session_id.to_be_bytes());
                h.update(&rec.packet_id.to_be_bytes());
                h.update(&(rec.payload.len() as u64).to_be_bytes());
                h.update(&rec.payload);
            };
            for len in 0..=300usize {
                let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                absorb(c.seal(Opcode::Data, 5, &plaintext), &plaintext);
            }
            for (count, size) in [(16usize, 1460usize), (8, 256), (4, 64)] {
                let packets: Vec<Vec<u8>> = (0..count)
                    .map(|p| (0..size).map(|i| (i ^ (p * 7 + size)) as u8).collect())
                    .collect();
                let refs: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
                absorb(c.seal_batch(5, &refs), &frame::encode(&refs));
            }
            absorb(c.seal(Opcode::Ping, 5, b"ping"), b"ping");
            assert_eq!(hex::encode(&h.finalize()), want, "{suite:?}");
        }
    }

    #[test]
    fn batch_seal_open_roundtrip() {
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly] {
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
            CipherSuite::Aes128Gcm,
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
            CipherSuite::Aes128Gcm,
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
        let (mut c, mut s) = pair(CipherSuite::Aes128Gcm);
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
                suite_idx in 0usize..2,
            ) {
                let suite = [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly][suite_idx];
                let (mut c, mut s) = pair(suite);
                let rec = c.seal(Opcode::Data, 1, &payload);
                prop_assert_eq!(s.open(&rec).unwrap(), payload);
            }

            /// In both suites, a single-bit flip anywhere in what the tag
            /// binds — opcode, packet id, body or the tag itself — is
            /// rejected before the replay window moves or a byte reaches
            /// `out`, and the genuine record opens afterwards. (A flipped
            /// opcode byte naming no opcode never leaves the wire decoder.)
            #[test]
            fn any_bitflip_detected(
                payload in prop::collection::vec(any::<u8>(), 1..256),
                suite_idx in 0usize..2,
                bit_idx in any::<prop::sample::Index>(),
            ) {
                let suite = [CipherSuite::Aes128Gcm, CipherSuite::IntegrityOnly][suite_idx];
                let (mut c, mut s) = pair(suite);
                let genuine = c.seal(Opcode::Data, 1, &payload);
                let mut rec = genuine.clone();
                let bit = bit_idx.index(8 * (1 + 8 + rec.payload.len()));
                let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
                match byte {
                    0 => {
                        let flipped = rec.opcode.to_u8() ^ mask;
                        let all = [
                            Opcode::HandshakeInit,
                            Opcode::HandshakeResp,
                            Opcode::Data,
                            Opcode::DataBatch,
                            Opcode::Ping,
                            Opcode::Disconnect,
                        ];
                        match all.into_iter().find(|o| o.to_u8() == flipped) {
                            Some(opcode) => rec.opcode = opcode,
                            None => return,
                        }
                    }
                    1..=8 => rec.packet_id ^= (mask as u64) << (8 * (8 - byte)),
                    _ => rec.payload[byte - 9] ^= mask,
                }
                let mut out = b"earlier plaintext".to_vec();
                prop_assert!(s.open_into(&rec, &mut out).is_err());
                prop_assert!(out.is_empty());
                prop_assert!(s.replay_is_empty(), "window moved");
                s.open_into(&genuine, &mut out).unwrap();
                prop_assert_eq!(out, payload);
            }
        }
    }

    #[test]
    fn wrong_direction_keys_fail() {
        let k = keys();
        let meter = CycleMeter::new();
        let cost = CostModel::calibrated();
        let mut c1 = DataChannel::client(&k, CipherSuite::Aes128Gcm, meter.clone(), cost.clone());
        let mut c2 = DataChannel::client(&k, CipherSuite::Aes128Gcm, meter, cost);
        let rec = c1.seal(Opcode::Data, 1, b"hello");
        // A client cannot open another client's traffic (keys are
        // directional).
        assert!(c2.open(&rec).is_err());
    }
}

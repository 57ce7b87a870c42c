//! Fragmentation and encapsulation of sealed records into MTU-sized
//! datagrams.
//!
//! Runs in the *untrusted* half of the EndBox client ("Other parts that
//! are not important for security (such as packet encapsulation and
//! fragmentation) are executed outside of the enclave", §III-B) —
//! fragmentation operates on ciphertext, so it needs no keys, and a
//! tampered fragment is caught later by the record MAC.

use crate::error::VpnError;
use crate::proto::Record;
use endbox_netsim::BufferPool;
use std::collections::HashMap;

/// Per-datagram fragment header size.
pub const FRAG_HEADER_LEN: usize = 4 + 2 + 2;

/// Splits sealed record bytes into numbered datagrams.
#[derive(Debug, Default)]
pub struct Fragmenter {
    next_id: u32,
}

impl Fragmenter {
    /// New fragmenter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits `record_bytes` into datagrams of at most `mtu_payload`
    /// payload bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `mtu_payload` is zero.
    pub fn fragment(&mut self, record_bytes: &[u8], mtu_payload: usize) -> Vec<Vec<u8>> {
        self.fragment_with(&[record_bytes], mtu_payload, Vec::with_capacity)
    }

    /// Like [`Fragmenter::fragment`], but drawing each datagram's buffer
    /// from `pool` instead of allocating fresh — the egress half of the
    /// zero-copy datapath (the receiver recycles the buffers back after
    /// reassembly). Output bytes are identical to [`Fragmenter::fragment`].
    ///
    /// # Panics
    ///
    /// Panics if `mtu_payload` is zero.
    pub fn fragment_in(
        &mut self,
        record_bytes: &[u8],
        mtu_payload: usize,
        pool: &BufferPool,
    ) -> Vec<Vec<u8>> {
        self.fragment_with(&[record_bytes], mtu_payload, |cap| pool.take(cap))
    }

    /// Fragments a record without serialising it first: the datagrams are
    /// cut straight from the record header and the sealed payload, so the
    /// payload is copied once (into its datagrams) instead of twice.
    /// Output bytes are identical to fragmenting
    /// [`Record::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `mtu_payload` is zero.
    pub fn fragment_record(&mut self, record: &Record, mtu_payload: usize) -> Vec<Vec<u8>> {
        self.fragment_with(
            &[&record.header(), &record.payload],
            mtu_payload,
            Vec::with_capacity,
        )
    }

    /// Shared splitting core over the concatenation of `parts`: `alloc`
    /// supplies each datagram's (empty) backing buffer, sized for header +
    /// chunk.
    fn fragment_with(
        &mut self,
        parts: &[&[u8]],
        mtu_payload: usize,
        alloc: impl Fn(usize) -> Vec<u8>,
    ) -> Vec<Vec<u8>> {
        assert!(mtu_payload > 0, "mtu must be positive");
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        // An empty record still travels as one (empty) fragment.
        let count = len.div_ceil(mtu_payload).max(1);
        let total = count as u16;
        let mut parts = parts.iter();
        let mut rest: &[u8] = &[];
        (0..count)
            .map(|i| {
                let mut need = (len - i * mtu_payload).min(mtu_payload);
                // Header laid out exactly as `Writer` would (big-endian
                // u32 id, u16 index, u16 total), written straight into
                // the caller-supplied buffer.
                let mut buf = alloc(FRAG_HEADER_LEN + need);
                buf.extend_from_slice(&id.to_be_bytes());
                buf.extend_from_slice(&(i as u16).to_be_bytes());
                buf.extend_from_slice(&total.to_be_bytes());
                while need > 0 {
                    if rest.is_empty() {
                        rest = parts.next().expect("parts hold `len` bytes");
                        continue;
                    }
                    let (now, later) = rest.split_at(need.min(rest.len()));
                    buf.extend_from_slice(now);
                    rest = later;
                    need -= now.len();
                }
                buf
            })
            .collect()
    }
}

#[derive(Debug)]
struct Partial {
    /// Whole datagrams (fragment header included), by fragment index.
    pieces: Vec<Option<Vec<u8>>>,
    received: usize,
    /// Insertion order, for eviction.
    seq: u64,
}

/// Maximum records pending reassembly per peer — bounds the memory an
/// attacker can pin by spraying first-fragments that never complete.
pub const MAX_PENDING: usize = 64;

/// Reassembles datagrams back into record bytes. Tolerates reordering and
/// duplication; interleaved records are reassembled independently. At
/// most [`MAX_PENDING`] incomplete records are kept; beyond that the
/// oldest is evicted (its record is lost, like a dropped packet).
#[derive(Debug, Default)]
pub struct Reassembler {
    partials: HashMap<u32, Partial>,
    next_seq: u64,
    evictions: u64,
}

impl Reassembler {
    /// New reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of incomplete records evicted under memory pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Feeds one datagram. Returns the full record bytes once all pieces
    /// of a record have arrived.
    ///
    /// # Errors
    ///
    /// [`VpnError::Fragmentation`] on malformed or inconsistent fragments.
    pub fn push(&mut self, datagram: &[u8]) -> Result<Option<Vec<u8>>, VpnError> {
        self.push_owned(datagram.to_vec())
    }

    /// [`Reassembler::push`] for a caller that owns the datagram (a socket
    /// drain, a receive batch): the buffer is adopted instead of copied.
    /// A record that fits one datagram comes back in that very buffer,
    /// with the fragment header shifted out — no allocation at all; a
    /// fragmented one is held as its datagrams and copied once, into the
    /// returned record.
    ///
    /// # Errors
    ///
    /// As [`Reassembler::push`].
    pub fn push_owned(&mut self, mut datagram: Vec<u8>) -> Result<Option<Vec<u8>>, VpnError> {
        let Some(header) = datagram.first_chunk::<FRAG_HEADER_LEN>() else {
            return Err(VpnError::Fragmentation("truncated header"));
        };
        let id = u32::from_be_bytes(header[..4].try_into().expect("4 of 8"));
        let index = u16::from_be_bytes(header[4..6].try_into().expect("2 of 8")) as usize;
        let total = u16::from_be_bytes(header[6..].try_into().expect("2 of 8")) as usize;
        if total == 0 || index >= total {
            return Err(VpnError::Fragmentation("index out of range"));
        }
        if total == 1 && !self.partials.contains_key(&id) {
            datagram.drain(..FRAG_HEADER_LEN);
            return Ok(Some(datagram));
        }
        if !self.partials.contains_key(&id) && self.partials.len() >= MAX_PENDING {
            // Evict the oldest incomplete record (fragment-flood defence).
            if let Some((&oldest, _)) = self.partials.iter().min_by_key(|(_, p)| p.seq) {
                self.partials.remove(&oldest);
                self.evictions += 1;
            }
        }
        let seq = self.next_seq;
        let partial = self.partials.entry(id).or_insert_with(|| Partial {
            pieces: vec![None; total],
            received: 0,
            seq,
        });
        if partial.seq == seq {
            self.next_seq += 1;
        }
        if partial.pieces.len() != total {
            return Err(VpnError::Fragmentation("total mismatch across fragments"));
        }
        if partial.pieces[index].is_none() {
            partial.pieces[index] = Some(datagram);
            partial.received += 1;
        }
        if partial.received == total {
            let partial = self.partials.remove(&id).unwrap();
            let chunks = || {
                partial
                    .pieces
                    .iter()
                    .map(|piece| &piece.as_ref().expect("all received")[FRAG_HEADER_LEN..])
            };
            let mut out = Vec::with_capacity(chunks().map(<[u8]>::len).sum());
            for chunk in chunks() {
                out.extend_from_slice(chunk);
            }
            return Ok(Some(out));
        }
        Ok(None)
    }

    /// Number of records awaiting completion.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Bytes currently buffered across incomplete records — the memory an
    /// RX shard is holding for this peer (surfaced by
    /// `ShardedEndBoxServer::rx_shard_stats`).
    pub fn pending_bytes(&self) -> usize {
        self.partials
            .values()
            .map(|p| {
                p.pieces
                    .iter()
                    .flatten()
                    .map(|piece| piece.len() - FRAG_HEADER_LEN)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Writer;
    use proptest::prelude::*;

    #[test]
    fn single_fragment_roundtrip() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        let frags = f.fragment(b"short record", 1000);
        assert_eq!(frags.len(), 1);
        assert_eq!(r.push(&frags[0]).unwrap().unwrap(), b"short record");
    }

    #[test]
    fn multi_fragment_roundtrip() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        let data: Vec<u8> = (0..2500u16).map(|i| (i % 251) as u8).collect();
        let frags = f.fragment(&data, 1000);
        assert_eq!(frags.len(), 3);
        assert!(r.push(&frags[0]).unwrap().is_none());
        assert_eq!(r.pending_bytes(), 1000);
        assert!(r.push(&frags[1]).unwrap().is_none());
        assert_eq!(r.pending_bytes(), 2000);
        assert_eq!(r.push(&frags[2]).unwrap().unwrap(), data);
        assert_eq!(r.pending(), 0);
        assert_eq!(r.pending_bytes(), 0);
    }

    #[test]
    fn reordering_and_duplicates_tolerated() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        let data = vec![9u8; 2100];
        let frags = f.fragment(&data, 1000);
        assert!(r.push(&frags[2]).unwrap().is_none());
        assert!(r.push(&frags[0]).unwrap().is_none());
        assert!(r.push(&frags[0]).unwrap().is_none()); // duplicate
        assert_eq!(r.push(&frags[1]).unwrap().unwrap(), data);
    }

    #[test]
    fn interleaved_records() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        let a = vec![1u8; 1500];
        let b = vec![2u8; 1500];
        let fa = f.fragment(&a, 1000);
        let fb = f.fragment(&b, 1000);
        assert!(r.push(&fa[0]).unwrap().is_none());
        assert!(r.push(&fb[0]).unwrap().is_none());
        assert_eq!(r.push(&fb[1]).unwrap().unwrap(), b);
        assert_eq!(r.push(&fa[1]).unwrap().unwrap(), a);
    }

    #[test]
    fn malformed_fragments_rejected() {
        let mut r = Reassembler::new();
        assert!(r.push(&[1, 2]).is_err()); // truncated header
                                           // index >= total
        let mut w = Writer::new();
        w.u32(1).u16(3).u16(2).raw(b"x");
        assert!(r.push(&w.finish()).is_err());
        // total = 0
        let mut w = Writer::new();
        w.u32(1).u16(0).u16(0).raw(b"x");
        assert!(r.push(&w.finish()).is_err());
    }

    #[test]
    fn inconsistent_total_rejected() {
        let mut r = Reassembler::new();
        let mut w1 = Writer::new();
        w1.u32(5).u16(0).u16(2).raw(b"a");
        let mut w2 = Writer::new();
        w2.u32(5).u16(1).u16(3).raw(b"b"); // different total for same id
        assert!(r.push(&w1.finish()).unwrap().is_none());
        assert!(r.push(&w2.finish()).is_err());
    }

    #[test]
    fn fragment_flood_is_bounded() {
        let mut r = Reassembler::new();
        // Spray first-fragments of records that never complete.
        for id in 0..(MAX_PENDING as u32 * 4) {
            let mut w = Writer::new();
            w.u32(id).u16(0).u16(2).raw(b"never completes");
            assert!(r.push(&w.finish()).unwrap().is_none());
        }
        assert!(
            r.pending() <= MAX_PENDING,
            "pending bounded: {}",
            r.pending()
        );
        assert_eq!(r.evictions(), MAX_PENDING as u64 * 3);
        // A fresh record still reassembles fine under pressure.
        let mut f = Fragmenter::new();
        let mut frags = f.fragment(b"legit", 2);
        // Give it a high id so it does not collide with the flood ids.
        let last = frags.pop().unwrap();
        for frag in &frags {
            r.push(frag).unwrap();
        }
        assert_eq!(r.push(&last).unwrap().unwrap(), b"legit");
    }

    #[test]
    fn pooled_fragmentation_is_byte_identical_and_reuses_buffers() {
        let pool = BufferPool::new();
        let data: Vec<u8> = (0..3000u16).map(|i| (i % 251) as u8).collect();
        // Same fragmenter state (ids advance identically) → identical
        // wire bytes from both paths.
        let mut fresh = Fragmenter::new();
        let mut pooled = Fragmenter::new();
        let a = fresh.fragment(&data, 1000);
        let b = pooled.fragment_in(&data, 1000, &pool);
        assert_eq!(a, b, "pooled output must be byte-identical");
        assert_eq!(pool.stats().fresh_allocs, 3);
        // Recycle and refragment: steady state allocates nothing new.
        for buf in b {
            pool.give(buf);
        }
        let c = pooled.fragment_in(&data, 1000, &pool);
        assert_eq!(pool.stats().fresh_allocs, 3, "warm pool: no new allocs");
        assert_eq!(pool.stats().reused, 3);
        // Pool reconciliation: everything handed out is either returned
        // or still held by `c`.
        let stats = pool.stats();
        assert_eq!(
            stats.handed_out(),
            stats.returned + stats.discarded + c.len() as u64
        );
    }

    #[test]
    fn fragment_record_equals_fragmenting_its_bytes() {
        use crate::proto::{Opcode, RECORD_OVERHEAD};
        for payload_len in [0usize, 1, 90, 979, 980, 2500] {
            let record = Record {
                opcode: Opcode::DataBatch,
                session_id: 7,
                packet_id: 9,
                payload: (0..payload_len).map(|i| (i % 251) as u8).collect(),
            };
            // MTUs that cut inside the header, at its end, and past it.
            for mtu in [1usize, 5, RECORD_OVERHEAD, RECORD_OVERHEAD + 1, 1000] {
                let (mut a, mut b) = (Fragmenter::new(), Fragmenter::new());
                assert_eq!(
                    a.fragment_record(&record, mtu),
                    b.fragment(&record.to_bytes(), mtu),
                    "payload {payload_len}, mtu {mtu}"
                );
            }
        }
    }

    #[test]
    fn owned_datagrams_are_adopted_not_copied() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        // One fragment: the record comes back in the datagram's own buffer.
        let datagram = f.fragment(b"fits one datagram", 1000).pop().unwrap();
        let buffer = datagram.as_ptr();
        let record = r.push_owned(datagram).unwrap().unwrap();
        assert_eq!(record, b"fits one datagram");
        assert_eq!(record.as_ptr(), buffer);
        assert_eq!(r.pending(), 0);
        // Several: same bytes as the borrowing path, accounting included.
        let data: Vec<u8> = (0..2500u16).map(|i| (i % 251) as u8).collect();
        let mut frags = f.fragment(&data, 1000);
        let last = frags.pop().unwrap();
        for frag in frags {
            assert!(r.push_owned(frag).unwrap().is_none());
        }
        assert_eq!(r.pending_bytes(), 2000);
        assert_eq!(r.push_owned(last).unwrap().unwrap(), data);
        assert_eq!(r.push_owned(vec![1, 2, 3]), r.push(&[1, 2, 3]));
    }

    #[test]
    fn empty_record_roundtrips() {
        let mut f = Fragmenter::new();
        let mut r = Reassembler::new();
        let frags = f.fragment(b"", 100);
        assert_eq!(frags.len(), 1);
        assert_eq!(r.push(&frags[0]).unwrap().unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fragment_reassemble_any_order(
            data in prop::collection::vec(any::<u8>(), 0..5000),
            mtu in 1usize..1500,
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut f = Fragmenter::new();
            let mut r = Reassembler::new();
            let mut frags = f.fragment(&data, mtu);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            frags.shuffle(&mut rng);
            let mut result = None;
            for frag in &frags {
                if let Some(rec) = r.push(frag).unwrap() {
                    result = Some(rec);
                }
            }
            prop_assert_eq!(result.unwrap(), data);
        }
    }
}

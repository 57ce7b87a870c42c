//! The wire record format: every datagram between an EndBox client and the
//! server is one record.

use crate::error::VpnError;
use crate::wire::Reader;

/// Record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Control channel: client hello.
    HandshakeInit,
    /// Control channel: server hello.
    HandshakeResp,
    /// Data channel payload (sealed).
    Data,
    /// Data channel batch: several tun-level packets coalesced into one
    /// sealed record (the §IV batching optimisation). The payload is a
    /// [`frame`]-encoded sequence of packets.
    DataBatch,
    /// Keepalive/ping (sealed; §III-E extension carries config version).
    Ping,
    /// Orderly teardown.
    Disconnect,
}

impl Opcode {
    /// Wire byte for this opcode — also bound into data-channel MACs, so
    /// there is exactly one opcode/byte table in the crate.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Opcode::HandshakeInit => 1,
            Opcode::HandshakeResp => 2,
            Opcode::Data => 3,
            Opcode::Ping => 4,
            Opcode::Disconnect => 5,
            Opcode::DataBatch => 6,
        }
    }

    fn from_u8(v: u8) -> Result<Self, VpnError> {
        Ok(match v {
            1 => Opcode::HandshakeInit,
            2 => Opcode::HandshakeResp,
            3 => Opcode::Data,
            4 => Opcode::Ping,
            5 => Opcode::Disconnect,
            6 => Opcode::DataBatch,
            _ => return Err(VpnError::Malformed("unknown opcode")),
        })
    }
}

/// Framing for [`Opcode::DataBatch`] payloads: `u32` packet count, then
/// each packet as `u32` length + bytes. Kept deliberately simple — the
/// whole blob is sealed/authenticated as one unit by the data channel.
pub mod frame {
    use crate::error::VpnError;

    /// Bytes of framing overhead for a batch of `n` packets.
    pub fn overhead(n: usize) -> usize {
        4 + 4 * n
    }

    /// Packets and payload bytes in `payloads`.
    fn count_and_total<P: AsRef<[u8]>>(payloads: impl Iterator<Item = P>) -> (usize, usize) {
        payloads.fold((0, 0), |(n, total), p| (n + 1, total + p.as_ref().len()))
    }

    /// Length of the encoding of `payloads`.
    pub fn encoded_len<P: AsRef<[u8]>>(payloads: impl Iterator<Item = P>) -> usize {
        let (n, total) = count_and_total(payloads);
        overhead(n) + total
    }

    /// Appends the encoding of `payloads` to `out`, after whatever it
    /// already holds — the data channel writes a batch straight into the
    /// record body this way, so the frames are never copied again before
    /// they are encrypted. `payloads` is walked twice (the count leads
    /// the frames), so it is any clonable iterator of byte slices: a
    /// `&[&[u8]]`, or the packets' bytes mapped as they lie, with no
    /// table of slices built first.
    pub fn encode_into<I>(out: &mut Vec<u8>, payloads: I)
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        let payloads = payloads.into_iter();
        let (n, total) = count_and_total(payloads.clone());
        out.reserve(overhead(n) + total);
        out.extend_from_slice(&(n as u32).to_be_bytes());
        for p in payloads {
            let p = p.as_ref();
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            out.extend_from_slice(p);
        }
    }

    /// Encodes `payloads` into a fresh blob.
    pub fn encode(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out, payloads);
        out
    }

    /// Decodes a blob produced by [`encode`], yielding each packet's byte
    /// range within `blob` (zero-copy; callers slice the blob).
    ///
    /// # Errors
    ///
    /// [`VpnError::Malformed`] on truncation, trailing garbage, or a
    /// count/length mismatch.
    pub fn decode(blob: &[u8]) -> Result<Vec<std::ops::Range<usize>>, VpnError> {
        if blob.len() < 4 {
            return Err(VpnError::Malformed("batch blob too short"));
        }
        let count = u32::from_be_bytes(blob[..4].try_into().unwrap()) as usize;
        // Each frame needs at least its 4-byte length header, so any count
        // beyond blob.len()/4 is malformed — checking here also keeps a
        // hostile count field from driving a huge pre-allocation.
        if count > (blob.len() - 4) / 4 {
            return Err(VpnError::Malformed("batch count exceeds blob size"));
        }
        let mut ranges = Vec::with_capacity(count);
        let mut off = 4usize;
        for _ in 0..count {
            if blob.len() < off + 4 {
                return Err(VpnError::Malformed("batch frame header truncated"));
            }
            let len = u32::from_be_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            if blob.len() < off + len {
                return Err(VpnError::Malformed("batch frame body truncated"));
            }
            ranges.push(off..off + len);
            off += len;
        }
        if off != blob.len() {
            return Err(VpnError::Malformed("trailing bytes after batch frames"));
        }
        Ok(ranges)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip() {
            let payloads: Vec<&[u8]> = vec![b"one", b"", b"three33"];
            let blob = encode(&payloads);
            assert_eq!(blob.len(), overhead(3) + 3 + 7);
            let ranges = decode(&blob).unwrap();
            let decoded: Vec<&[u8]> = ranges.into_iter().map(|r| &blob[r]).collect();
            assert_eq!(decoded, payloads);
        }

        #[test]
        fn empty_batch_roundtrips() {
            let blob = encode(&[]);
            assert!(decode(&blob).unwrap().is_empty());
        }

        #[test]
        fn rejects_malformed() {
            assert!(decode(&[]).is_err());
            assert!(decode(&[0, 0, 0, 2, 0, 0, 0, 1]).is_err()); // body truncated
            let mut blob = encode(&[b"x"]);
            blob.push(9); // trailing garbage
            assert!(decode(&blob).is_err());
            blob.pop();
            blob[3] = 2; // count says 2, only 1 frame present
            assert!(decode(&blob).is_err());
        }

        #[test]
        fn encode_into_appends_behind_a_prefix() {
            let payloads: [&[u8]; 2] = [b"aaaa", b"b"];
            let mut buf = b"sixteen byte pre".to_vec();
            encode_into(&mut buf, payloads);
            assert_eq!(&buf[..16], b"sixteen byte pre");
            assert_eq!(&buf[16..], &encode(&payloads)[..]);
        }
    }
}

/// A wire record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type.
    pub opcode: Opcode,
    /// Session the record belongs to (0 during handshake init).
    pub session_id: u64,
    /// Monotonic packet id for replay protection (data/ping).
    pub packet_id: u64,
    /// Opaque payload (sealed for data/ping records).
    pub payload: Vec<u8>,
}

/// Bytes of framing added around each payload on the wire.
pub const RECORD_OVERHEAD: usize = 1 + 8 + 8 + 4;

impl Record {
    /// The [`RECORD_OVERHEAD`] bytes that precede the payload on the
    /// wire: opcode, session id, packet id, payload length.
    pub fn header(&self) -> [u8; RECORD_OVERHEAD] {
        let mut h = [0u8; RECORD_OVERHEAD];
        h[0] = self.opcode.to_u8();
        h[1..9].copy_from_slice(&self.session_id.to_be_bytes());
        h[9..17].copy_from_slice(&self.packet_id.to_be_bytes());
        h[17..].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        h
    }

    /// Serialises to wire bytes. (The datapath never needs the record
    /// contiguous: [`crate::frag::Fragmenter::fragment_record`] cuts
    /// datagrams straight from the header and the payload.)
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_OVERHEAD + self.payload.len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Validates wire bytes as exactly one record and returns the header
    /// fields; the payload is then `bytes[RECORD_OVERHEAD..]`.
    fn parse_header(bytes: &[u8]) -> Result<(Opcode, u64, u64), VpnError> {
        let mut r = Reader::new(bytes);
        let opcode = Opcode::from_u8(r.u8()?)?;
        let session_id = r.u64()?;
        let packet_id = r.u64()?;
        r.bytes()?;
        if !r.is_empty() {
            return Err(VpnError::Malformed("trailing bytes after record"));
        }
        Ok((opcode, session_id, packet_id))
    }

    /// Parses from wire bytes.
    ///
    /// # Errors
    ///
    /// [`VpnError::Malformed`] on truncation or unknown opcodes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Record, VpnError> {
        let (opcode, session_id, packet_id) = Self::parse_header(bytes)?;
        Ok(Record {
            opcode,
            session_id,
            packet_id,
            payload: bytes[RECORD_OVERHEAD..].to_vec(),
        })
    }

    /// [`Record::from_bytes`] for a caller that owns the wire bytes (a
    /// reassembled record): the buffer itself becomes the payload, with
    /// the header shifted out in place — no second allocation.
    ///
    /// # Errors
    ///
    /// As [`Record::from_bytes`].
    pub fn from_vec(mut bytes: Vec<u8>) -> Result<Record, VpnError> {
        let (opcode, session_id, packet_id) = Self::parse_header(&bytes)?;
        bytes.drain(..RECORD_OVERHEAD);
        Ok(Record {
            opcode,
            session_id,
            packet_id,
            payload: bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rec = Record {
            opcode: Opcode::Data,
            session_id: 42,
            packet_id: 7,
            payload: vec![1, 2, 3],
        };
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), RECORD_OVERHEAD + 3);
        assert_eq!(bytes[..RECORD_OVERHEAD], rec.header());
        assert_eq!(Record::from_bytes(&bytes).unwrap(), rec);
        assert_eq!(Record::from_vec(bytes).unwrap(), rec);
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for op in [
            Opcode::HandshakeInit,
            Opcode::HandshakeResp,
            Opcode::Data,
            Opcode::Ping,
            Opcode::Disconnect,
        ] {
            let rec = Record {
                opcode: op,
                session_id: 1,
                packet_id: 2,
                payload: vec![],
            };
            assert_eq!(Record::from_bytes(&rec.to_bytes()).unwrap().opcode, op);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Record::from_bytes(&[]).is_err());
        assert!(Record::from_bytes(&[9; 30]).is_err()); // opcode 9
        let mut ok = Record {
            opcode: Opcode::Data,
            session_id: 1,
            packet_id: 1,
            payload: vec![5],
        }
        .to_bytes();
        ok.push(0); // trailing byte
        assert_eq!(
            Record::from_bytes(&ok),
            Err(VpnError::Malformed("trailing bytes after record"))
        );
        assert_eq!(
            Record::from_vec(ok),
            Err(VpnError::Malformed("trailing bytes after record"))
        );
        assert!(Record::from_vec(vec![3; RECORD_OVERHEAD - 1]).is_err());
    }
}

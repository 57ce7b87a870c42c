//! IPv4 packets with TCP/UDP/ICMP payloads — the packet type that flows
//! through the real Click router and VPN implementations.
//!
//! Headers are serialised to real wire format with real Internet checksums,
//! so Click elements (e.g. `CheckIPHeader`, `IPFilter`) operate on byte
//! layouts identical to the ones the paper's Click elements saw.
//!
//! # Pool-aware buffers
//!
//! A [`Packet`] owns its bytes, but the backing store is *pool-aware*: the
//! `*_in` constructors ([`Packet::udp_in`], [`Packet::tcp_in`],
//! [`Packet::from_vec_in`], ...) draw the buffer from a
//! [`crate::buffer::BufferPool`] and return it there when the packet is
//! dropped, so a steady-state forwarding loop recycles buffers instead of
//! allocating per packet. Cloning a pooled packet also draws from the
//! pool. Pool attachment never changes observable behaviour: equality,
//! hashing of bytes, headers and checksums are identical for pooled and
//! plain packets, and the parity tests in `tests/batch_parity.rs` hold the
//! batched pooled datapath to byte-identical outputs.

use crate::buffer::BufferPool;
use crate::time::SimTime;
use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;

/// The QoS/TOS value EndBox clients set on packets already processed by
/// Click, so a receiving EndBox client can skip re-processing (§IV-A).
pub const QOS_ENDBOX_PROCESSED: u8 = 0xeb;

/// Length of the (option-less) IPv4 header we generate.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of the TCP header we generate (no options).
pub const TCP_HEADER_LEN: usize = 20;
/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;
/// Length of the ICMP echo header.
pub const ICMP_HEADER_LEN: usize = 8;

/// Errors raised while parsing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer bytes than the header requires.
    Truncated,
    /// IP version field is not 4 or IHL is unsupported.
    BadVersion,
    /// Header checksum mismatch.
    BadChecksum,
    /// The total-length field disagrees with the buffer size.
    BadLength,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            PacketError::Truncated => "packet truncated",
            PacketError::BadVersion => "unsupported IP version or header length",
            PacketError::BadChecksum => "bad header checksum",
            PacketError::BadLength => "total length mismatch",
        };
        f.write_str(msg)
    }
}

impl Error for PacketError {}

/// IP protocol numbers used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProtocol {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => f.write_str("icmp"),
            IpProtocol::Tcp => f.write_str("tcp"),
            IpProtocol::Udp => f.write_str("udp"),
            IpProtocol::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// Parsed view of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Type-of-service / DSCP byte.
    pub tos: u8,
    /// Total packet length including the header.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Carried protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

/// RFC 1071 Internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

impl Ipv4Header {
    /// Serialises the header (with correct checksum) into 20 bytes.
    pub fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut h = [0u8; IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5
        h[1] = self.tos;
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // flags+fragment offset: DF set, offset 0
        h[6] = 0x40;
        h[8] = self.ttl;
        h[9] = self.protocol.to_u8();
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Parses and validates a header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] if the buffer is too short, the version is
    /// not IPv4, the checksum is wrong, or the length field is inconsistent.
    pub fn parse(bytes: &[u8]) -> Result<Ipv4Header, PacketError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        if bytes[0] != 0x45 {
            return Err(PacketError::BadVersion);
        }
        if internet_checksum(&bytes[..IPV4_HEADER_LEN]) != 0 {
            return Err(PacketError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN || total_len as usize > bytes.len() {
            return Err(PacketError::BadLength);
        }
        Ok(Ipv4Header {
            tos: bytes[1],
            total_len,
            ident: u16::from_be_bytes([bytes[4], bytes[5]]),
            ttl: bytes[8],
            protocol: IpProtocol::from_u8(bytes[9]),
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
        })
    }
}

/// Click-style packet annotations carried alongside the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// Paint annotation (Click's `Paint`/`CheckPaint` elements).
    pub paint: Option<u8>,
    /// Verdict set by the middlebox pipeline.
    pub verdict: Verdict,
    /// When the packet entered the current processing context.
    pub ingress_time: SimTime,
    /// Position of this packet within the batch currently traversing the
    /// router (set by the batched datapath so emissions and drops can be
    /// attributed to their originating input packet; `None` outside batch
    /// processing). An annotation only — never serialised to the wire.
    pub batch_slot: Option<u32>,
}

/// Outcome of middlebox processing for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Not yet decided.
    #[default]
    Pending,
    /// Packet may be forwarded.
    Accept,
    /// Packet must be dropped.
    Drop,
}

/// An IPv4 packet: owned bytes plus simulation annotations.
///
/// The backing store may be attached to a [`BufferPool`] (see the module
/// docs); pool attachment is invisible to equality and hashing.
pub struct Packet {
    data: Vec<u8>,
    /// Pool the backing store returns to on drop (`None` = plain heap).
    pool: Option<BufferPool>,
    /// Annotations (paint, verdict, timestamps).
    pub meta: PacketMeta,
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        let data = match &self.pool {
            Some(pool) => {
                let mut buf = pool.take(self.data.len());
                buf.extend_from_slice(&self.data);
                buf
            }
            None => self.data.clone(),
        };
        Packet {
            data,
            pool: self.pool.clone(),
            meta: self.meta,
        }
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            let buf = std::mem::take(&mut self.data);
            if buf.capacity() > 0 {
                pool.give(buf);
            }
        }
    }
}

impl Packet {
    /// Dismantles the packet into its pool handle (if any) and backing
    /// store *without* returning the buffer to the pool, so callers can
    /// recycle many buffers under one lock via [`BufferPool::give_many`]
    /// (see [`crate::buffer::recycle_packets`]).
    pub fn into_parts(mut self) -> (Option<BufferPool>, Vec<u8>) {
        let pool = self.pool.take();
        let data = std::mem::take(&mut self.data);
        // `pool` is now None, so Drop has nothing left to give back.
        (pool, data)
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.meta == other.meta
    }
}

impl Eq for Packet {}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("data", &self.data)
            .field("meta", &self.meta)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

/// Takes a build buffer from `pool` or the heap.
fn alloc_buffer(pool: Option<&BufferPool>, capacity: usize) -> Vec<u8> {
    match pool {
        Some(pool) => pool.take(capacity),
        None => Vec::with_capacity(capacity),
    }
}

impl Packet {
    /// Wraps raw bytes, validating the IPv4 header.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] if the header is malformed.
    pub fn from_bytes(data: Vec<u8>) -> Result<Packet, PacketError> {
        Ipv4Header::parse(&data)?;
        Ok(Packet {
            data,
            pool: None,
            meta: PacketMeta::default(),
        })
    }

    /// Like [`Packet::from_bytes`], but adopts the vector into `pool`'s
    /// recycling (zero-copy: the buffer itself becomes pool-managed and
    /// returns to the free list when the packet drops).
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] if the header is malformed.
    pub fn from_vec_in(pool: &BufferPool, data: Vec<u8>) -> Result<Packet, PacketError> {
        Ipv4Header::parse(&data)?;
        Ok(Packet {
            data,
            pool: Some(pool.clone()),
            meta: PacketMeta::default(),
        })
    }

    /// Builds a UDP packet.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Packet {
        Self::udp_impl(None, src, dst, sport, dport, payload)
    }

    /// Builds a UDP packet in a buffer recycled through `pool`.
    pub fn udp_in(
        pool: &BufferPool,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &[u8],
    ) -> Packet {
        Self::udp_impl(Some(pool), src, dst, sport, dport, payload)
    }

    fn udp_impl(
        pool: Option<&BufferPool>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &[u8],
    ) -> Packet {
        let udp_len = UDP_HEADER_LEN + payload.len();
        let header = Ipv4Header {
            tos: 0,
            total_len: (IPV4_HEADER_LEN + udp_len) as u16,
            ident: 0,
            ttl: 64,
            protocol: IpProtocol::Udp,
            src,
            dst,
        };
        let mut data = alloc_buffer(pool, header.total_len as usize);
        data.extend_from_slice(&header.to_bytes());
        data.extend_from_slice(&sport.to_be_bytes());
        data.extend_from_slice(&dport.to_be_bytes());
        data.extend_from_slice(&(udp_len as u16).to_be_bytes());
        data.extend_from_slice(&[0, 0]); // checksum placeholder
        data.extend_from_slice(payload);
        let csum = l4_checksum(&header, &data[IPV4_HEADER_LEN..]);
        data[IPV4_HEADER_LEN + 6..IPV4_HEADER_LEN + 8].copy_from_slice(&csum.to_be_bytes());
        Packet {
            data,
            pool: pool.cloned(),
            meta: PacketMeta::default(),
        }
    }

    /// Builds a TCP packet (header flags: PSH|ACK, fixed window).
    pub fn tcp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        seq: u32,
        payload: &[u8],
    ) -> Packet {
        Self::tcp_impl(None, src, dst, sport, dport, seq, payload)
    }

    /// Builds a TCP packet in a buffer recycled through `pool`.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_in(
        pool: &BufferPool,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        seq: u32,
        payload: &[u8],
    ) -> Packet {
        Self::tcp_impl(Some(pool), src, dst, sport, dport, seq, payload)
    }

    #[allow(clippy::too_many_arguments)]
    fn tcp_impl(
        pool: Option<&BufferPool>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        seq: u32,
        payload: &[u8],
    ) -> Packet {
        let tcp_len = TCP_HEADER_LEN + payload.len();
        let header = Ipv4Header {
            tos: 0,
            total_len: (IPV4_HEADER_LEN + tcp_len) as u16,
            ident: 0,
            ttl: 64,
            protocol: IpProtocol::Tcp,
            src,
            dst,
        };
        let mut data = alloc_buffer(pool, header.total_len as usize);
        data.extend_from_slice(&header.to_bytes());
        data.extend_from_slice(&sport.to_be_bytes());
        data.extend_from_slice(&dport.to_be_bytes());
        data.extend_from_slice(&seq.to_be_bytes());
        data.extend_from_slice(&0u32.to_be_bytes()); // ack
        data.extend_from_slice(&[0x50, 0x18]); // offset 5, PSH|ACK
        data.extend_from_slice(&0xffffu16.to_be_bytes()); // window
        data.extend_from_slice(&[0, 0]); // checksum placeholder
        data.extend_from_slice(&[0, 0]); // urgent
        data.extend_from_slice(payload);
        let csum = l4_checksum(&header, &data[IPV4_HEADER_LEN..]);
        data[IPV4_HEADER_LEN + 16..IPV4_HEADER_LEN + 18].copy_from_slice(&csum.to_be_bytes());
        Packet {
            data,
            pool: pool.cloned(),
            meta: PacketMeta::default(),
        }
    }

    /// Builds an ICMP echo request.
    pub fn icmp_echo_request(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
    ) -> Packet {
        let icmp_len = ICMP_HEADER_LEN + payload.len();
        let header = Ipv4Header {
            tos: 0,
            total_len: (IPV4_HEADER_LEN + icmp_len) as u16,
            ident: 0,
            ttl: 64,
            protocol: IpProtocol::Icmp,
            src,
            dst,
        };
        let mut data = Vec::with_capacity(header.total_len as usize);
        data.extend_from_slice(&header.to_bytes());
        data.push(8); // type: echo request
        data.push(0); // code
        data.extend_from_slice(&[0, 0]); // checksum placeholder
        data.extend_from_slice(&ident.to_be_bytes());
        data.extend_from_slice(&seq.to_be_bytes());
        data.extend_from_slice(payload);
        let csum = internet_checksum(&data[IPV4_HEADER_LEN..]);
        data[IPV4_HEADER_LEN + 2..IPV4_HEADER_LEN + 4].copy_from_slice(&csum.to_be_bytes());
        Packet {
            data,
            pool: None,
            meta: PacketMeta::default(),
        }
    }

    /// Parsed IPv4 header.
    ///
    /// # Panics
    ///
    /// Panics if the packet bytes have been corrupted since construction;
    /// construction always validates.
    pub fn header(&self) -> Ipv4Header {
        Ipv4Header::parse(&self.data).expect("packet invariant: valid IPv4 header")
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the packet has no bytes (never the case for valid packets).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the packet, returning its bytes. The buffer leaves pool
    /// management (the caller owns it outright).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.data)
    }

    /// The TOS/QoS byte.
    pub fn tos(&self) -> u8 {
        self.data[1]
    }

    /// Rewrites the TOS/QoS byte, fixing the header checksum.
    pub fn set_tos(&mut self, tos: u8) {
        self.data[1] = tos;
        self.data[10] = 0;
        self.data[11] = 0;
        let csum = internet_checksum(&self.data[..IPV4_HEADER_LEN]);
        self.data[10..12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Bytes after the IP header (the L4 segment).
    pub fn ip_payload(&self) -> &[u8] {
        &self.data[IPV4_HEADER_LEN..]
    }

    /// Application payload (after the L4 header), if the protocol is known.
    pub fn app_payload(&self) -> &[u8] {
        let l4 = self.ip_payload();
        let skip = match self.header().protocol {
            IpProtocol::Tcp => TCP_HEADER_LEN,
            IpProtocol::Udp => UDP_HEADER_LEN,
            IpProtocol::Icmp => ICMP_HEADER_LEN,
            IpProtocol::Other(_) => 0,
        };
        if l4.len() >= skip {
            &l4[skip..]
        } else {
            &[]
        }
    }

    /// Rewrites the source address (NAT-style), fixing the IP header
    /// checksum and the L4 checksum (which covers the pseudo-header).
    pub fn set_src(&mut self, addr: Ipv4Addr) {
        self.data[12..16].copy_from_slice(&addr.octets());
        self.fix_checksums_after_addr_change();
    }

    /// Rewrites the destination address, fixing both checksums.
    pub fn set_dst(&mut self, addr: Ipv4Addr) {
        self.data[16..20].copy_from_slice(&addr.octets());
        self.fix_checksums_after_addr_change();
    }

    /// Rewrites the TCP/UDP source port (NAPT-style), fixing the L4
    /// checksum. No-op for other protocols.
    pub fn set_src_port(&mut self, port: u16) {
        self.set_l4_port(0, port);
    }

    /// Rewrites the TCP/UDP destination port, fixing the L4 checksum.
    /// No-op for other protocols.
    pub fn set_dst_port(&mut self, port: u16) {
        self.set_l4_port(2, port);
    }

    fn set_l4_port(&mut self, field_off: usize, port: u16) {
        let header = self.header();
        let csum_off = match header.protocol {
            IpProtocol::Tcp => IPV4_HEADER_LEN + 16,
            IpProtocol::Udp => IPV4_HEADER_LEN + 6,
            _ => return,
        };
        let off = IPV4_HEADER_LEN + field_off;
        if self.data.len() < off + 2 || self.data.len() < csum_off + 2 {
            return;
        }
        self.data[off..off + 2].copy_from_slice(&port.to_be_bytes());
        self.data[csum_off] = 0;
        self.data[csum_off + 1] = 0;
        let csum = l4_checksum(&header, &self.data[IPV4_HEADER_LEN..]);
        self.data[csum_off..csum_off + 2].copy_from_slice(&csum.to_be_bytes());
    }

    fn fix_checksums_after_addr_change(&mut self) {
        // IP header checksum.
        self.data[10] = 0;
        self.data[11] = 0;
        let csum = internet_checksum(&self.data[..IPV4_HEADER_LEN]);
        self.data[10..12].copy_from_slice(&csum.to_be_bytes());
        // L4 checksum covers the pseudo-header for TCP/UDP.
        let header = self.header();
        let csum_off = match header.protocol {
            IpProtocol::Tcp => Some(IPV4_HEADER_LEN + 16),
            IpProtocol::Udp => Some(IPV4_HEADER_LEN + 6),
            _ => None,
        };
        if let Some(off) = csum_off {
            if self.data.len() >= off + 2 {
                self.data[off] = 0;
                self.data[off + 1] = 0;
                let csum = l4_checksum(&header, &self.data[IPV4_HEADER_LEN..]);
                self.data[off..off + 2].copy_from_slice(&csum.to_be_bytes());
            }
        }
    }

    /// Replaces the application payload in place with an equal-length
    /// buffer (used by the in-enclave TLS decryption element, which swaps
    /// ciphertext for plaintext without changing packet sizes). Fixes the
    /// L4 checksum.
    ///
    /// # Panics
    ///
    /// Panics if `new_payload` has a different length than the current
    /// application payload.
    pub fn replace_app_payload(&mut self, new_payload: &[u8]) {
        let header = self.header();
        let skip = match header.protocol {
            IpProtocol::Tcp => TCP_HEADER_LEN,
            IpProtocol::Udp => UDP_HEADER_LEN,
            IpProtocol::Icmp => ICMP_HEADER_LEN,
            IpProtocol::Other(_) => 0,
        };
        let start = IPV4_HEADER_LEN + skip;
        assert_eq!(
            self.data.len() - start,
            new_payload.len(),
            "replacement payload must have equal length"
        );
        self.data[start..].copy_from_slice(new_payload);
        // Recompute the L4 checksum over the rewritten segment.
        let csum_off = match header.protocol {
            IpProtocol::Tcp => Some(IPV4_HEADER_LEN + 16),
            IpProtocol::Udp => Some(IPV4_HEADER_LEN + 6),
            IpProtocol::Icmp => Some(IPV4_HEADER_LEN + 2),
            IpProtocol::Other(_) => None,
        };
        if let Some(off) = csum_off {
            self.data[off] = 0;
            self.data[off + 1] = 0;
            let csum = match header.protocol {
                IpProtocol::Icmp => internet_checksum(&self.data[IPV4_HEADER_LEN..]),
                _ => l4_checksum(&header, &self.data[IPV4_HEADER_LEN..]),
            };
            self.data[off..off + 2].copy_from_slice(&csum.to_be_bytes());
        }
    }

    /// Source port for TCP/UDP packets.
    pub fn src_port(&self) -> Option<u16> {
        match self.header().protocol {
            IpProtocol::Tcp | IpProtocol::Udp => {
                let p = self.ip_payload();
                (p.len() >= 2).then(|| u16::from_be_bytes([p[0], p[1]]))
            }
            _ => None,
        }
    }

    /// Destination port for TCP/UDP packets.
    pub fn dst_port(&self) -> Option<u16> {
        match self.header().protocol {
            IpProtocol::Tcp | IpProtocol::Udp => {
                let p = self.ip_payload();
                (p.len() >= 4).then(|| u16::from_be_bytes([p[2], p[3]]))
            }
            _ => None,
        }
    }
}

/// TCP/UDP checksum with the IPv4 pseudo-header.
fn l4_checksum(header: &Ipv4Header, segment: &[u8]) -> u16 {
    let mut pseudo = Vec::with_capacity(12 + segment.len());
    pseudo.extend_from_slice(&header.src.octets());
    pseudo.extend_from_slice(&header.dst.octets());
    pseudo.push(0);
    pseudo.push(header.protocol.to_u8());
    pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
    pseudo.extend_from_slice(segment);
    let c = internet_checksum(&pseudo);
    if c == 0 {
        0xffff
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn udp_roundtrip() {
        let p = Packet::udp(addr(1), addr(2), 1234, 53, b"query");
        let h = p.header();
        assert_eq!(h.protocol, IpProtocol::Udp);
        assert_eq!(h.src, addr(1));
        assert_eq!(h.dst, addr(2));
        assert_eq!(p.src_port(), Some(1234));
        assert_eq!(p.dst_port(), Some(53));
        assert_eq!(p.app_payload(), b"query");
        assert_eq!(p.len(), 20 + 8 + 5);
        // Re-parse from raw bytes.
        let p2 = Packet::from_bytes(p.bytes().to_vec()).unwrap();
        assert_eq!(p2.header(), h);
    }

    #[test]
    fn tcp_builder() {
        let p = Packet::tcp(addr(3), addr(4), 40000, 443, 7, b"hello tls");
        assert_eq!(p.header().protocol, IpProtocol::Tcp);
        assert_eq!(p.dst_port(), Some(443));
        assert_eq!(p.app_payload(), b"hello tls");
    }

    #[test]
    fn icmp_builder() {
        let p = Packet::icmp_echo_request(addr(1), addr(9), 77, 3, &[0xab; 8]);
        assert_eq!(p.header().protocol, IpProtocol::Icmp);
        assert_eq!(p.src_port(), None);
        assert_eq!(p.app_payload(), &[0xab; 8]);
        // ICMP checksum must validate.
        assert_eq!(internet_checksum(p.ip_payload()), 0);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let p = Packet::udp(addr(1), addr(2), 1, 2, b"x");
        let mut raw = p.into_bytes();
        raw[12] ^= 0xff; // corrupt src address
        assert_eq!(Packet::from_bytes(raw), Err(PacketError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Packet::from_bytes(vec![0x45, 0, 0]),
            Err(PacketError::Truncated)
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = Packet::udp(addr(1), addr(2), 1, 2, b"x").into_bytes();
        raw[0] = 0x46; // IHL 6 unsupported
        assert_eq!(Packet::from_bytes(raw), Err(PacketError::BadVersion));
    }

    #[test]
    fn set_tos_keeps_header_valid() {
        let mut p = Packet::udp(addr(1), addr(2), 5, 6, b"data");
        p.set_tos(QOS_ENDBOX_PROCESSED);
        assert_eq!(p.tos(), 0xeb);
        // Header still parses (checksum fixed up).
        assert_eq!(Packet::from_bytes(p.bytes().to_vec()).unwrap().tos(), 0xeb);
    }

    #[test]
    fn address_rewrite_keeps_packet_valid() {
        let mut p = Packet::tcp(addr(1), addr(2), 40000, 80, 7, b"nat me");
        p.set_src(Ipv4Addr::new(192, 0, 2, 1));
        p.set_dst(Ipv4Addr::new(198, 51, 100, 2));
        let reparsed = Packet::from_bytes(p.bytes().to_vec()).unwrap();
        assert_eq!(reparsed.header().src, Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(reparsed.header().dst, Ipv4Addr::new(198, 51, 100, 2));
        assert_eq!(reparsed.app_payload(), b"nat me");
    }

    #[test]
    fn replace_app_payload_same_length() {
        let mut p = Packet::udp(addr(1), addr(2), 10, 20, b"ciphertext!!");
        p.replace_app_payload(b"plaintext!!!");
        assert_eq!(p.app_payload(), b"plaintext!!!");
        // Header still valid after the rewrite.
        assert!(Packet::from_bytes(p.bytes().to_vec()).is_ok());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn replace_app_payload_rejects_length_change() {
        let mut p = Packet::udp(addr(1), addr(2), 10, 20, b"abc");
        p.replace_app_payload(b"abcd");
    }

    #[test]
    fn checksum_known_value() {
        // RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn udp_packets_always_valid(
            sport in any::<u16>(),
            dport in any::<u16>(),
            payload in prop::collection::vec(any::<u8>(), 0..1200),
        ) {
            let p = Packet::udp(addr(1), addr(2), sport, dport, &payload);
            prop_assert!(Packet::from_bytes(p.bytes().to_vec()).is_ok());
            prop_assert_eq!(p.app_payload(), &payload[..]);
        }

        #[test]
        fn tos_rewrite_preserves_validity(tos in any::<u8>()) {
            let mut p = Packet::udp(addr(1), addr(2), 1, 2, b"payload");
            p.set_tos(tos);
            prop_assert!(Packet::from_bytes(p.bytes().to_vec()).is_ok());
        }

        #[test]
        fn odd_length_checksum_consistent(payload in prop::collection::vec(any::<u8>(), 0..64)) {
            // Checksum of data with its own checksum appended folds to zero.
            let c = internet_checksum(&payload);
            let mut with = payload.clone();
            // Only meaningful for even-length data (checksum is 16-bit aligned).
            if with.len() % 2 == 0 {
                with.extend_from_slice(&c.to_be_bytes());
                prop_assert_eq!(internet_checksum(&with), 0);
            }
        }
    }
}

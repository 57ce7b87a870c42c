//! Hostile fragment headers: what a peer can make the reassembler hold
//! before any MAC has checked a byte. The fragment header's `total` is
//! attacker-chosen, so a partial record's storage must grow with the
//! pieces that actually arrived, not with the count a header claims.

#[path = "support/counting_alloc.rs"]
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::{live_bytes_in, CountingAllocator};
use endbox_vpn::frag::{Reassembler, MAX_PENDING};
use endbox_vpn::wire::Writer;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A bare fragment header — no payload — for fragment 0 of record `id`,
/// claiming `total` fragments.
fn header_only(id: u32, total: u16) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(id).u16(0).u16(total);
    w.finish()
}

/// 64 datagrams of 8 header bytes each (512 B on the wire), every one
/// claiming the largest fragment count a header can carry. Sized by the
/// header, this pinned ~100 MB for one peer while `pending_bytes()` — what
/// `ShardStats::reassembly_bytes_held` reports — said 0.
#[test]
fn claimed_fragment_totals_pin_no_memory() {
    let flood: Vec<Vec<u8>> = (0..MAX_PENDING as u32)
        .map(|id| header_only(id, u16::MAX))
        .collect();
    let (reassembler, grown) = live_bytes_in(|| {
        let mut r = Reassembler::new();
        for datagram in &flood {
            assert_eq!(r.push(datagram), Ok(None));
        }
        r
    });
    assert_eq!(reassembler.pending(), MAX_PENDING);
    assert_eq!(reassembler.pending_bytes(), 0, "no payload byte arrived");
    assert!(
        grown < 64 * 1024,
        "{} partial records of 8 wire bytes each hold {grown} B",
        MAX_PENDING
    );
}

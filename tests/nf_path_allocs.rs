//! Pins the allocation behaviour of the client enclave's NF path: a scan
//! that finds nothing allocates nothing, a batch traversal allocates
//! only its result, however long the batch and however many hops the
//! graph has, and handing a benign batch's emissions on to the seal
//! allocates nothing.

#[path = "support/counting_alloc.rs"]
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAllocator};
use endbox::use_cases::UseCase;
use endbox_click::{ElementEnv, Router};
use endbox_netsim::{Packet, PacketBatch};
use endbox_snort::community::{paper_rules, triggering_payload};
use endbox_snort::engine::{CompiledRules, PacketView};
use std::net::Ipv4Addr;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);

/// Benign traffic as the generators produce it: lower-case letters.
fn clean_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'a' + (i % 26) as u8).collect()
}

#[test]
fn scan_of_a_clean_payload_allocates_nothing() {
    let compiled = CompiledRules::compile(&paper_rules());
    fn view(payload: &[u8]) -> PacketView<'_> {
        PacketView {
            src: SRC,
            dst: DST,
            protocol: 6,
            src_port: Some(40000),
            dst_port: Some(80),
            payload,
        }
    }
    let clean = clean_payload(1460);
    let (outcome, allocations) = allocations_in(|| compiled.scan(&view(&clean)));
    assert!(outcome.alerts.is_empty() && !outcome.drop);
    assert_eq!(allocations, 0, "clean 1460 B payload");

    // The counter does see this thread: a hit allocates its hit set and
    // its alert.
    let (mut malicious, trigger) = (clean, triggering_payload(0));
    malicious[700..700 + trigger.len()].copy_from_slice(&trigger);
    let (outcome, allocations) = allocations_in(|| compiled.scan(&view(&malicious)));
    assert!(outcome.drop);
    assert!(allocations > 0);
}

#[test]
fn batch_traversal_allocations_do_not_depend_on_batch_length_or_hop_count() {
    let batch = |len: usize| -> PacketBatch {
        let payload = clean_payload(1460);
        (0..len)
            .map(|i| Packet::tcp(SRC, DST, 40000, 80, i as u32, &payload))
            .collect()
    };
    let mut per_graph = Vec::new();
    for use_case in [UseCase::Nop, UseCase::Firewall, UseCase::Idps] {
        let mut router = Router::from_config(&use_case.click_config(), ElementEnv::default())
            .expect("use-case configuration instantiates");
        // Warm-up: the router's scratch grows to the largest batch once.
        assert_eq!(router.process_batch(batch(64)).accepted, 64);
        let counts: Vec<u64> = [1, 4, 16, 64]
            .into_iter()
            .map(|len| {
                let input = batch(len);
                let (out, allocations) = allocations_in(|| router.process_batch(input));
                assert_eq!(out.accepted, len, "{use_case:?}: benign traffic passes");
                allocations
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{use_case:?}: allocations per traversal vary with batch length: {counts:?}"
        );
        per_graph.push(counts[0]);
    }
    assert!(
        per_graph.iter().all(|&c| c == per_graph[0]),
        "allocations per traversal vary with the graph (2, 4 and 4 elements): {per_graph:?}"
    );
    // What is left is the result: the emitted batch and the verdicts.
    assert!(per_graph[0] <= 2, "{per_graph:?}");
}

/// The client's egress ecall keeps the first emission of each accepted
/// packet (`BatchOutput::into_first_emissions`). After a NOP or firewall
/// graph that passes every packet, the emitted batch already holds one
/// emission per slot in slot order, and goes on as it is: no slot-indexed
/// table, no second `Vec`.
#[test]
fn first_emissions_of_a_benign_batch_allocate_nothing() {
    for use_case in [UseCase::Nop, UseCase::Firewall] {
        let mut router = Router::from_config(&use_case.click_config(), ElementEnv::default())
            .expect("use-case configuration instantiates");
        let payload = clean_payload(1460);
        let input: PacketBatch = (0..16)
            .map(|i| Packet::tcp(SRC, DST, 40000 + i, 80, 0, &payload))
            .collect();
        let out = router.process_batch(input);
        assert_eq!(out.accepted, 16, "{use_case:?}: benign traffic passes");
        let (firsts, allocations) = allocations_in(|| out.into_first_emissions());
        assert_eq!(allocations, 0, "{use_case:?}");
        assert_eq!(firsts.len(), 16);
        assert!(firsts.iter().all(|p| p.meta.batch_slot.is_none()));
        let ports: Vec<u16> = firsts.iter().map(|p| p.src_port().unwrap()).collect();
        assert_eq!(
            ports,
            (40000..40016).collect::<Vec<u16>>(),
            "{use_case:?}: input order"
        );
    }
}

/// A warm NOP client sealing a 16 × 1460 B batch: the tun-side and
/// enclave-side bookkeeping, the Click traversal, the one sealed record
/// and its fragments. The seal takes the emitted packets' bytes as they
/// lie — no table of payload slices is built per batch — so the count is
/// pinned exactly.
#[test]
fn warm_nop_send_batch_allocation_count_is_pinned() {
    use endbox::scenario::Scenario;
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let payload = clean_payload(1460);
    let batch = || -> Vec<Packet> {
        (0..16)
            .map(|i| Packet::tcp(SRC, DST, 40000 + i, 80, 0, &payload))
            .collect()
    };
    // Warm-up: pools, scratch and the fragmenter reach their steady size.
    for _ in 0..8 {
        assert!(!s.clients[0].send_batch(batch()).unwrap().is_empty());
    }
    let counts: Vec<u64> = (0..4)
        .map(|_| {
            let input = batch();
            let (datagrams, allocations) = allocations_in(|| s.clients[0].send_batch(input));
            assert!(!datagrams.unwrap().is_empty());
            allocations
        })
        .collect();
    // Eight while the egress ecall collected the payload slices into a
    // `Vec<&[u8]>` before sealing.
    assert_eq!(counts, [7; 4]);
}

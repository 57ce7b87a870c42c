//! Pins the allocation behaviour of the client enclave's NF path: a scan
//! that finds nothing allocates nothing, and a batch traversal allocates
//! only its result, however long the batch and however many hops the
//! graph has.

#[path = "support/counting_alloc.rs"]
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

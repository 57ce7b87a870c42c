//! Integration: the Fig. 5 configuration-update protocol end to end —
//! versioning, grace periods, encryption, replay defence and state
//! preservation across hot swaps.

use endbox::config_update::SignedConfig;
use endbox::error::EndBoxError;
use endbox::scenario::Scenario;
use endbox::use_cases::UseCase;
use endbox_vpn::VpnError;
use rand::SeedableRng;

#[test]
fn full_update_cycle_over_the_wire() {
    let mut s = Scenario::enterprise(3, UseCase::Nop).build().unwrap();
    assert_eq!(s.client_version(0), 1);
    let v = s
        .update_config(&UseCase::Firewall.click_config(), 60)
        .unwrap();
    for i in 0..3 {
        assert_eq!(s.client_version(i), v, "client {i}");
        assert_eq!(s.server.client_config_version(s.session_id(i)), Some(v));
    }
    // The new middlebox is live: firewall handlers exist now.
    assert_eq!(
        s.clients[0].click_handler("fw", "rules").as_deref(),
        Some("16")
    );
}

#[test]
fn enterprise_configs_are_encrypted_isp_configs_are_not() {
    let mut ent = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    ent.update_config(&UseCase::Firewall.click_config(), 0)
        .unwrap();
    assert!(ent.config_server.fetch(2).unwrap().encrypted);

    let mut isp = Scenario::isp(1, UseCase::Nop).build().unwrap();
    isp.update_config(&UseCase::Firewall.click_config(), 0)
        .unwrap();
    let cfg = isp.config_server.fetch(2).unwrap();
    assert!(!cfg.encrypted);
    assert!(cfg.plaintext_click().unwrap().contains("IPFilter"));
}

#[test]
fn version_replay_rejected_by_enclave() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    s.update_config(&UseCase::Firewall.click_config(), 0)
        .unwrap(); // v2
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // Replay v1-style config (signed by the genuine CA, old version).
    let old = SignedConfig::publish(
        &UseCase::Nop.click_config(),
        2, // same version as current -> not newer
        s.ca.signing_key(),
        None,
        &mut rng,
    );
    let err = s.clients[0].enclave_app().apply_config(&old).unwrap_err();
    assert_eq!(
        err,
        EndBoxError::ConfigUpdate("version not newer (replay?)")
    );
}

#[test]
fn forged_signature_rejected() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let attacker_key = endbox_crypto::schnorr::SigningKey::generate(&mut rng);
    let forged = SignedConfig::publish(
        "FromDevice(t) -> ToDevice(t);",
        99,
        &attacker_key, // not the CA
        None,
        &mut rng,
    );
    let err = s.clients[0]
        .enclave_app()
        .apply_config(&forged)
        .unwrap_err();
    assert_eq!(err, EndBoxError::ConfigUpdate("signature invalid"));
}

#[test]
fn version_mismatch_inside_payload_rejected() {
    // An attacker splices a valid old payload under a new version header;
    // the version embedded *inside* the (signed) body must match.
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let good = SignedConfig::publish(
        &UseCase::Firewall.click_config(),
        7,
        s.ca.signing_key(),
        None,
        &mut rng,
    );
    // Manually altering the version breaks the outer signature first.
    let mut spliced = good.clone();
    spliced.version = 8;
    let err = s.clients[0]
        .enclave_app()
        .apply_config(&spliced)
        .unwrap_err();
    assert_eq!(err, EndBoxError::ConfigUpdate("signature invalid"));
}

#[test]
fn grace_period_allows_old_then_blocks() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    // Announce v2 with a 30 s grace period but DON'T update the client.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let signed = SignedConfig::publish(
        &UseCase::Firewall.click_config(),
        2,
        s.ca.signing_key(),
        Some(&s.ca.config_key()),
        &mut rng,
    );
    s.config_server.upload(signed);
    s.server.announce_config(2, 30);

    // During grace: old config still accepted.
    s.send_from_client(0, b"during grace").unwrap();

    // Advance past the grace period.
    s.clock
        .advance(endbox_netsim::time::SimDuration::from_secs(31));
    let err = s.send_from_client(0, b"after grace").unwrap_err();
    assert!(matches!(
        err,
        EndBoxError::Vpn(VpnError::StaleConfiguration {
            client: 1,
            required: 2
        })
    ));

    // Client finally updates (ping -> fetch -> apply -> proof) and is
    // readmitted.
    s.ping_and_update_client(0).unwrap();
    assert_eq!(s.client_version(0), 2);
    s.send_from_client(0, b"after update").unwrap();
}

#[test]
fn hot_swap_preserves_element_state() {
    let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
    let counted_config = "FromDevice(tun0) -> c :: Counter -> ToDevice(tun0);";
    s.update_config(counted_config, 0).unwrap();
    for _ in 0..5 {
        s.send_from_client(0, b"count me").unwrap();
    }
    assert_eq!(
        s.clients[0].click_handler("c", "count").as_deref(),
        Some("5")
    );
    // Swap to a config that keeps the same named Counter: state carries
    // over ("Click's hot-swapping transfers state").
    let extended = "FromDevice(tun0) -> c :: Counter -> f :: IPFilter(allow all) -> ToDevice(tun0);\nf[1] -> Discard;";
    s.update_config(extended, 0).unwrap();
    assert_eq!(
        s.clients[0].click_handler("c", "count").as_deref(),
        Some("5")
    );
    s.send_from_client(0, b"count me too").unwrap();
    assert_eq!(
        s.clients[0].click_handler("c", "count").as_deref(),
        Some("6")
    );
}

#[test]
fn broken_config_leaves_old_one_running() {
    let mut s = Scenario::enterprise(1, UseCase::Firewall).build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    // Admin fat-fingers a config: signed and versioned correctly but not
    // valid Click text.
    let broken = SignedConfig::publish(
        "FromDevice(tun0) -> NoSuchElement -> ToDevice(tun0);",
        2,
        s.ca.signing_key(),
        Some(&s.ca.config_key()),
        &mut rng,
    );
    let err = s.clients[0]
        .enclave_app()
        .apply_config(&broken)
        .unwrap_err();
    assert_eq!(err, EndBoxError::ConfigUpdate("config rejected by Click"));
    // Old config still in force.
    assert_eq!(s.client_version(0), 1);
    s.send_from_client(0, b"still running v1").unwrap();
}

#[test]
fn wrong_config_key_cannot_decrypt() {
    // A client from a different deployment (different CA/config key)
    // cannot decrypt this deployment's encrypted configs.
    let mut s1 = Scenario::enterprise(1, UseCase::Nop)
        .seed(100)
        .build()
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let foreign_key = [0xaau8; 32]; // not s1's config key
    let cfg = SignedConfig::publish(
        &UseCase::Firewall.click_config(),
        2,
        s1.ca.signing_key(),
        Some(&foreign_key),
        &mut rng,
    );
    let err = s1.clients[0].enclave_app().apply_config(&cfg).unwrap_err();
    assert_eq!(err, EndBoxError::ConfigUpdate("decryption failed"));
}

/// Test element that panics on its N-th packet — used to interrupt a
/// batch traversal halfway so packets are stranded in the router's
/// pending queues.
#[derive(Debug)]
struct PanicAfter {
    remaining: u64,
}

impl endbox_click::element::Element for PanicAfter {
    fn class_name(&self) -> &'static str {
        "PanicAfter"
    }

    fn process(
        &mut self,
        _port: usize,
        pkt: endbox_netsim::Packet,
        ctx: &mut endbox_click::element::ElementContext<'_>,
    ) {
        if self.remaining == 0 {
            // Disarm before unwinding: the fault fires exactly once.
            self.remaining = u64::MAX;
            panic!("injected element fault");
        }
        self.remaining -= 1;
        ctx.output(0, pkt);
    }
}

fn panic_after_factory(
    args: &[String],
    _env: &endbox_click::element::ElementEnv,
) -> Result<Box<dyn endbox_click::element::Element>, String> {
    let remaining = args
        .first()
        .and_then(|a| a.parse().ok())
        .ok_or("PanicAfter needs a packet count")?;
    Ok(Box::new(PanicAfter { remaining }))
}

#[test]
fn hot_swap_mid_batch_drains_stranded_packets_deterministically() {
    use endbox_click::element::ElementEnv;
    use endbox_click::registry::ElementRegistry;
    use endbox_click::Router;
    use endbox_netsim::{BufferPool, Packet, PacketBatch};
    use std::net::Ipv4Addr;

    let mut registry = ElementRegistry::standard();
    registry.register("PanicAfter", panic_after_factory);
    // Tee fans out: branch 1 runs (Counter, then queues at ToDevice)
    // before branch 0's PanicAfter run — so when PanicAfter dies on its
    // third packet, ToDevice still holds a full batch of clones.
    let config = "FromDevice(t) -> tee :: Tee(2); \
                  tee[0] -> p :: PanicAfter(2) -> Discard; \
                  tee[1] -> c :: Counter -> ToDevice(t);";
    let mut router =
        Router::from_config_with_registry(config, ElementEnv::default(), &registry).unwrap();

    let pool = BufferPool::new();
    let batch: PacketBatch = (0..6)
        .map(|i| {
            Packet::udp_in(
                &pool,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 1, 1),
                1000 + i as u16,
                2000,
                b"mid-batch swap",
            )
        })
        .collect();

    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.process_batch(batch)));
    assert!(result.is_err(), "the injected element fault must surface");
    assert_eq!(
        router.pending_depth(),
        6,
        "the ToDevice queue still holds the surviving branch"
    );

    // Swapping mid-batch must drain the stranded packets back to their
    // pools — deterministically, and observably via `stale_recycled`.
    let before = pool.stats();
    router
        .hot_swap("FromDevice(t) -> c :: Counter -> ToDevice(t);")
        .unwrap();
    let after = pool.stats();
    assert_eq!(router.pending_depth(), 0);
    assert_eq!(router.stale_recycled(), 6);
    assert_eq!(
        after.returned - before.returned,
        6,
        "stranded packets recycled by the swap"
    );
    assert_eq!(
        after.batched_ops - before.batched_ops,
        1,
        "one pool lock for the whole stranded queue"
    );
    // Pool reconciliation: every buffer ever taken is back.
    assert_eq!(
        after.fresh_allocs + after.reused,
        after.returned + after.discarded,
        "no pooled buffer leaked across the interrupted traversal: {after:?}"
    );
    // Counter state survived the swap (same name, same class) and the
    // new graph processes traffic normally.
    assert_eq!(router.read_handler("c", "count").as_deref(), Some("6"));
    let out = router.process_batch(
        (0..3)
            .map(|_| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 1),
                    1,
                    2,
                    b"after swap",
                )
            })
            .collect(),
    );
    assert_eq!(
        out.accepted, 3,
        "new config is live after the mid-batch swap"
    );
}

#[test]
fn interrupted_batch_drains_on_next_traversal_without_a_swap() {
    use endbox_click::element::ElementEnv;
    use endbox_click::registry::ElementRegistry;
    use endbox_click::Router;
    use endbox_netsim::{BufferPool, Packet, PacketBatch};
    use std::net::Ipv4Addr;

    let mut registry = ElementRegistry::standard();
    registry.register("PanicAfter", panic_after_factory);
    // As above: the Counter hop makes ToDevice's sequence keys longer
    // than PanicAfter's, so the panic fires while ToDevice still queues
    // the surviving branch.
    let config = "FromDevice(t) -> tee :: Tee(2); \
                  tee[0] -> p :: PanicAfter(1) -> Discard; \
                  tee[1] -> Counter -> ToDevice(t);";
    let mut router =
        Router::from_config_with_registry(config, ElementEnv::default(), &registry).unwrap();

    let pool = BufferPool::new();
    let batch: PacketBatch = (0..4)
        .map(|_| {
            Packet::udp_in(
                &pool,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 1, 1),
                7,
                8,
                b"x",
            )
        })
        .collect();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.process_batch(batch)));
    assert!(result.is_err());
    assert_eq!(router.pending_depth(), 4);

    // The next batch drains the stale queue before seeding — old packets
    // cannot leak into the new traversal's output.
    let out = router.process_batch(
        (0..2)
            .map(|_| {
                Packet::udp_in(
                    &pool,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 1),
                    7,
                    8,
                    b"y",
                )
            })
            .collect(),
    );
    assert_eq!(router.stale_recycled(), 4);
    assert_eq!(out.emitted.len(), 2, "only the new batch's packets emit");
    let stats = pool.stats();
    assert_eq!(
        stats.fresh_allocs + stats.reused,
        stats.returned + stats.discarded + 2,
        "everything but the two just-emitted packets is back in the pool"
    );
}

#[test]
fn hot_swap_builds_through_the_routers_own_registry() {
    use endbox_click::element::ElementEnv;
    use endbox_click::registry::ElementRegistry;
    use endbox_click::Router;

    let mut registry = ElementRegistry::standard();
    registry.register("PanicAfter", panic_after_factory);
    let mut router = Router::from_config_with_registry(
        "FromDevice(t) -> p :: PanicAfter(5) -> ToDevice(t);",
        ElementEnv::default(),
        &registry,
    )
    .unwrap();
    // The new config keeps the custom class: the swap must resolve it
    // through the registry the router was built with, not the standard
    // one.
    router
        .hot_swap("FromDevice(t) -> c :: Counter -> p :: PanicAfter(5) -> ToDevice(t);")
        .expect("a custom class survives a hot-swap");
    assert_eq!(router.hotswap_count(), 1);
    let out = router.process_batch(vec![endbox_netsim::Packet::udp(
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        std::net::Ipv4Addr::new(10, 0, 1, 1),
        7,
        8,
        b"after swap",
    )]);
    assert_eq!(out.accepted, 1, "the swapped graph runs");
    assert_eq!(router.read_handler("c", "count").as_deref(), Some("1"));
}

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

/// The PR 9 seam under structural elasticity: a config hot-swap lands
/// while a **resize drain is in flight** — the server has just shrunk,
/// moving a parked partial record to its new home, and the record's tail
/// has not yet arrived — and the swapped router itself holds packets
/// stranded by an interrupted traversal. `drain_stale_pending` must
/// recover every stranded packet back to its pool, and the resize drain
/// must still complete the in-flight record exactly once: the two drain
/// disciplines (router pending queues, shard reassembly state) never eat
/// each other's packets.
#[test]
fn hot_swap_during_resize_drain_recovers_every_inflight_packet() {
    use endbox::scenario::ShardedScenario;
    use endbox_click::element::ElementEnv;
    use endbox_click::registry::ElementRegistry;
    use endbox_click::Router;
    use endbox_netsim::{BufferPool, Packet, PacketBatch};
    use endbox_vpn::proto::{Opcode, Record};
    use std::net::Ipv4Addr;
    use support::{pump_until, split_raw, Out};

    // Datapath side: peer 1's record head parks on shard 1 — the shard
    // the shrink below retires.
    let mut scenario: ShardedScenario = Scenario::enterprise(2, UseCase::Nop)
        .seed(0x9e1)
        .async_ingress(true)
        .build_sharded(2)
        .unwrap();
    let record = Record {
        opcode: Opcode::Data,
        session_id: scenario.session_id(1),
        packet_id: 0x8001,
        payload: vec![0x5a; 140],
    };
    let frags = split_raw(&record.to_bytes(), &[9, 50], 0xBEEF_0003);
    assert_eq!(frags.len(), 3);
    scenario.send_wire_datagrams(1, frags[..2].to_vec());
    let outs = pump_until(&mut scenario, 2);
    assert!(outs.iter().all(|o| matches!(o, Out::Pending)));

    // The resize drain fires: the shrink retires shard 1 and the parked
    // partial migrates to the survivor. The drain is now "in flight" —
    // reassembly state has moved but the record is still incomplete.
    let (_, drained) = scenario.server.resize(1);
    assert_eq!(drained, 1, "the parked partial must ride the shrink");

    // Mid-drain, the operator hot-swaps a config whose router holds a
    // batch stranded by an interrupted traversal (the PR 9 scenario).
    let mut registry = ElementRegistry::standard();
    registry.register("PanicAfter", panic_after_factory);
    let config = "FromDevice(t) -> tee :: Tee(2); \
                  tee[0] -> p :: PanicAfter(2) -> Discard; \
                  tee[1] -> c :: Counter -> ToDevice(t);";
    let mut router =
        Router::from_config_with_registry(config, ElementEnv::default(), &registry).unwrap();
    let pool = BufferPool::new();
    let batch: PacketBatch = (0..6)
        .map(|i| {
            Packet::udp_in(
                &pool,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 1, 1),
                3000 + i as u16,
                4000,
                b"swap during resize drain",
            )
        })
        .collect();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.process_batch(batch)));
    assert!(result.is_err(), "the injected element fault must surface");
    assert_eq!(router.pending_depth(), 6);

    let before = pool.stats();
    router
        .hot_swap("FromDevice(t) -> c :: Counter -> ToDevice(t);")
        .unwrap();
    let after = pool.stats();
    assert_eq!(router.pending_depth(), 0);
    assert_eq!(router.stale_recycled(), 6);
    assert_eq!(
        after.returned - before.returned,
        6,
        "drain_stale_pending must recover every stranded packet"
    );
    assert_eq!(
        after.fresh_allocs + after.reused,
        after.returned + after.discarded,
        "no pooled buffer leaked across the swap: {after:?}"
    );

    // The resize drain completes: the tail arrives at the peer's new home
    // and the in-flight record resolves exactly once — neither lost to
    // the shrink nor duplicated by the swap.
    scenario.send_wire_datagrams(1, vec![frags[2].clone()]);
    let tail = pump_until(&mut scenario, 1);
    assert_eq!(tail.len(), 1, "the record must resolve exactly once");
    assert!(
        !matches!(tail[0], Out::Pending),
        "the tail must complete the record: {tail:?}"
    );
    let stats = scenario.server.resize_stats();
    assert_eq!(stats.shrinks, 1);
    assert_eq!(stats.partials_drained, 1);
}

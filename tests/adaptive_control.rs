//! Parity and reconciliation tests for the datapath control plane every
//! event loop runs (one round budget split evenly over the sockets
//! holding data) and the one placement law under it: the dispatch law, whose gap and
//! persistence triggers and idle-shard stealing move peers on the bytes
//! the server routed.
//!
//! The named schedules replay the same deterministic interleaving
//! classes the other suites are pinned by — plus [`Step::Remap`]
//! steps that fire the manual re-home hook at exact schedule positions,
//! racing a peer's re-home against a crafted `Disconnect`, against a
//! partial record in flight inside its reassembler, and against the
//! colliding-peers placement where every peer homes on shard 0. The
//! parity claim is the controller's core invariant: every decision lands
//! at a round boundary, so outcomes stay byte-identical to the
//! single-threaded reference — only scheduling moves.
//!
//! The reconciliation tests pin the control plane's counters against
//! independent datapath counters: the [`AsyncIngressStats`] datagrams
//! never exceed one round budget per round, a manual re-home returns
//! exactly the partial records it drained, and steals stay a subset of
//! migrations.
//!
//! [`AsyncIngressStats`]: endbox::server::AsyncIngressStats

#[path = "support/mod.rs"]
#[allow(dead_code)]
mod support;

use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::DEFAULT_SHARD_BUDGET;
use endbox::use_cases::UseCase;
use support::{
    assert_parity, assert_relocation_keeps_partial, pump_until, send_records, PeerMap, RunCfg,
    Schedule, Step, GRID,
};

/// A partial record parked in its reassembler, then a crafted
/// `Disconnect` queued and the peer re-homed *before* the Disconnect is
/// delivered — so the teardown arrives at the new home, races a replayed
/// Disconnect for the now-dead session, and the record tail completes
/// (and fails its verdict) at the new home. A second re-home moves the
/// dead-session peer back.
#[test]
fn adaptive_schedule_remap_races_disconnect() {
    let schedule = Schedule::new("remap-races-disconnect", 3, 0xada1)
        .step(Step::Batch {
            client: 0,
            n_packets: 3,
        })
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 96,
            splits: vec![7, 33],
            tag: 1,
            lo: 0,
            hi: 2,
        })
        .step(Step::Flush)
        .step(Step::Disconnect { client: 1 })
        .step(Step::Remap { client: 1, to: 1 })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 1,
            payload_len: 96,
            splits: vec![7, 33],
            tag: 1,
            lo: 2,
            hi: 3,
        })
        .step(Step::Remap { client: 1, to: 0 })
        .step(Step::Single { client: 0 });
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// A split record whose head is already inside the reassembler when its
/// peer re-homes: the in-flight partial drains at the quiesce point and
/// reinstalls at the new shard, the tail arrives there and completes the
/// record, a replay of the tail fragments is rejected identically, and a
/// second re-home follows.
#[test]
fn adaptive_schedule_split_record_straddles_remap() {
    let schedule = Schedule::new("split-record-straddles-remap", 3, 0xada2)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 7,
            lo: 0,
            hi: 2,
        })
        .step(Step::Batch {
            client: 1,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Remap { client: 0, to: 1 })
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecordPart {
            client: 0,
            payload_len: 120,
            splits: vec![7, 33, 80],
            tag: 7,
            lo: 2,
            hi: 4,
        })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Remap { client: 0, to: 3 })
        .step(Step::Single { client: 0 });
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// The adversarial colliding placement (`PeerMap::Stride(4)`: every peer
/// homes on shard 0 at every C ≤ 4 in the grid), then manual re-homes
/// spread the peers across shards mid-schedule while traffic continues —
/// the spread changes which shard serves whom, and nothing else.
#[test]
fn adaptive_schedule_remap_spreads_colliding_peers() {
    let schedule = Schedule::new("remap-spreads-colliding-peers", 3, 0xada4)
        .peers(PeerMap::Stride(4))
        .step(Step::Batch {
            client: 0,
            n_packets: 2,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Single { client: 2 })
        .step(Step::Flush)
        .step(Step::Remap { client: 1, to: 1 })
        .step(Step::Remap { client: 2, to: 2 })
        .step(Step::Batch {
            client: 1,
            n_packets: 2,
        })
        .step(Step::Single { client: 2 })
        .step(Step::Single { client: 0 })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Remap { client: 0, to: 1 })
        .step(Step::Single { client: 1 });
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// Mixed traffic (batches, pings, a split record, a replayed batch) with
/// stalled shards and **no** manual remaps: the event loop's drain rule
/// and the dispatch law run against ordinary adversarial interleaving and
/// must not move a single outcome.
#[test]
fn adaptive_schedule_controller_on_mixed_traffic() {
    let schedule = Schedule::new("controller-on-mixed-traffic", 4, 0xada3)
        .stall(0, 35)
        .stall(2, 20)
        .step(Step::Batch {
            client: 0,
            n_packets: 4,
        })
        .step(Step::Single { client: 1 })
        .step(Step::Ping { client: 2 })
        .step(Step::Flush)
        .step(Step::SplitRecord {
            client: 3,
            payload_len: 64,
            splits: vec![9, 30],
        })
        .step(Step::Batch {
            client: 2,
            n_packets: 2,
        })
        .step(Step::Flush)
        .step(Step::Replay)
        .step(Step::Single { client: 0 })
        .step(Step::Ping { client: 3 })
        .step(Step::Flush)
        .step(Step::Batch {
            client: 1,
            n_packets: 3,
        })
        .step(Step::Single { client: 2 });
    assert_parity(&schedule, &GRID, &[RunCfg::event_loop()]);
}

/// The control plane's counters against independent datapath counters,
/// under a heavy-tailed mix: every round drained at most one budget of
/// `DEFAULT_SHARD_BUDGET × C`, and
/// the dispatch law's steals are a subset of its migrations, which do
/// not count manual re-homes.
#[test]
fn controller_stats_reconcile_with_datapath_counters() {
    let mut scenario: ShardedScenario = Scenario::enterprise(8, UseCase::Nop)
        .seed(0xadc0)
        .async_ingress(true)
        .build_sharded(2)
        .unwrap();
    let sizes = [6usize, 1, 1, 1, 3, 1, 1, 1];
    let mut drained_total = 0u64;
    for round in 0..4 {
        let mut sent = 0;
        for (client, &n) in sizes.iter().enumerate() {
            sent += send_records(&mut scenario, "ctrl", client, n, round);
        }
        pump_until(&mut scenario, sent);
        drained_total += sent as u64;
    }

    let ingress = scenario.async_stats();
    assert_eq!(ingress.datagrams, drained_total);
    assert!(ingress.rounds >= 1, "the event loop never ran: {ingress:?}");
    assert!(
        ingress.datagrams <= ingress.rounds * (DEFAULT_SHARD_BUDGET * 2) as u64,
        "drained more than one budget of DEFAULT_SHARD_BUDGET × C per round: {ingress:?}"
    );
    let (migrations, steals) = (scenario.server.migrations(), scenario.server.steals());
    assert!(
        steals <= migrations,
        "steals must be a subset of migrations: {steals} > {migrations}"
    );

    // A manual re-home pair moves the peer but is no dispatch-law
    // migration: `migrations()` counts the law's own moves only.
    scenario.server.remap_peer(1, 0);
    scenario.server.remap_peer(1, 1);
    assert_eq!(scenario.server.shard_of(1), 1);
    assert_eq!(scenario.server.migrations(), migrations);
}

/// A manual re-home with a record head in flight: the partial drains at
/// the quiesce point (counted in the re-home's return value), reinstalls
/// at the new home, and the tail completes the record to the **same**
/// outcome as an identical run that never re-homed.
#[test]
fn manual_remap_drains_inflight_partial_and_preserves_outcome() {
    let build = || {
        Scenario::enterprise(2, UseCase::Nop)
            .seed(0xadc2)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap()
    };
    // Re-home peer 0 (shard 0 -> 1) in one scenario only: exactly the
    // one in-flight partial drains and reinstalls, and the tail completes
    // the record at the new home.
    assert_relocation_keeps_partial(build, 0, |remapped| {
        let drained = remapped.server.remap_peer(0, 1);
        assert_eq!(drained, 1, "the parked partial must drain with the move");
        assert_eq!(remapped.server.shard_of(0), 1);
    });
}

//! Fig. 10 — server-side aggregate throughput and CPU usage as the number
//! of clients grows (200 Mbps offered per client, 1 500 B packets) — and
//! the scaling experiments this repository adds on top: run-to-completion
//! shards, peer migration, the event-driven front-end, the self-tuning
//! controller and online resizing.
//!
//! Every experiment is the same two steps: [`measure`] the per-packet
//! charge of one real stack (the [`MeasureSpec`] says which), then
//! [`replay`] it through the timing layer's lanes at each client count.
//! Each returns one [`Table`]; those listed in
//! [`crate::eval::ARTIFACTS`] are committed as `BENCH_*.json`.

use super::deploy::{measure, Deployment, Doorway, MeasureSpec, Measured, Records};
use super::table::{cells, Cell, Table};
use super::throughput::DEFAULT_BATCH_SIZE;
use crate::use_cases::UseCase;
use endbox_netsim::cost::CostModel;
use endbox_netsim::pipeline::{
    run_scalability, AsyncFrontEndModel, PacketCharge, ScalabilityConfig, ScalabilityResult,
    ShardLanes,
};
use endbox_netsim::resource::MachineSpec;
use endbox_netsim::time::SimDuration;
use endbox_netsim::traffic::{diurnal_trace, flash_crowd_trace, TraceStep};

/// Client counts plotted in Fig. 10.
pub fn client_counts() -> [usize; 9] {
    [1, 5, 10, 15, 20, 30, 40, 50, 60]
}

/// Shard counts C swept by the sharded Fig. 10 extension and by the
/// small-record shard-scaling experiment.
pub fn shard_counts() -> [usize; 4] {
    [1, 2, 4, 8]
}

/// Payload size of the small-record mix (bytes). Small records mean one
/// wire datagram per record, so the fixed per-packet server work is
/// maximal — exactly the regime where one shard is the serial
/// bottleneck.
pub const SMALL_MIX_PAYLOAD: usize = 256;

/// Offered load per peer of the small-record mix (bits/s). Many cheap
/// peers, not a few elephants: the aggregate packet rate is what
/// saturates a shard lane.
pub const SMALL_MIX_PER_CLIENT_BPS: u64 = 20_000_000;

/// Peer counts of the small-record sweeps.
const SMALL_MIX_CLIENTS: [usize; 6] = [20, 40, 60, 80, 100, 120];

/// Off-peak client count of the offered-load traces.
pub const TRACE_BASE: usize = 10;

/// Peak client count of the offered-load traces. Deliberately in the
/// *lane-imbalance* regime of the 2-shard server: the crowd's Zipf
/// elephants all home on shard lane 0 (even client ids), whose offered
/// load exceeds twice a lane's capacity while the odd lane still has idle
/// headroom — so moving peers converts real throughput, and a
/// configuration that cannot move them leaves the cold lane underused. Far
/// past this (say 60 clients at the same per-client rate) *both* lanes
/// saturate and every configuration converges to the same aggregate
/// ceiling, which would measure nothing.
pub const TRACE_PEAK: usize = 30;

/// Steps per offered-load trace.
const TRACE_STEPS: usize = 12;

/// The lane model every sweep shares: `per_client_bps` of
/// `payload_bytes` packets per client over a 20 ms window, five client
/// machines, no scheduler contention, and the server `shards` — `None`
/// for the paper's one-process-per-client server.
fn lanes(
    per_client_bps: u64,
    payload_bytes: usize,
    shards: Option<ShardLanes>,
) -> ScalabilityConfig {
    ScalabilityConfig {
        per_client_bps,
        payload_bytes,
        duration: SimDuration::from_millis(20),
        contention_per_excess_process: 0.0,
        server_shards: shards,
        ..ScalabilityConfig::default()
    }
}

/// Fig. 10's offered load (200 Mbps of 1 500 B packets per client) into
/// `c` shard lanes, peers fixed at home or moved by `migrate`.
fn fig10_lanes(c: usize, migrate: bool) -> ScalabilityConfig {
    let shards = ShardLanes {
        migrate,
        ..ShardLanes::new(c)
    };
    lanes(200_000_000, 1_500, Some(shards))
}

/// Replays one measured charge through the timing layer: `clients`
/// clients on class-A machines offer `lanes`' load to a class-B server
/// modelled by `lanes`; `crowd` skews the per-client load by
/// [`heavy_tail_weights`] (aggregate unchanged).
pub fn replay(
    charge: PacketCharge,
    lanes: &ScalabilityConfig,
    clients: usize,
    crowd: bool,
) -> ScalabilityResult {
    let cfg = ScalabilityConfig {
        n_clients: clients,
        client_load_weights: crowd.then(|| heavy_tail_weights(clients)),
        ..lanes.clone()
    };
    run_scalability(MachineSpec::class_a(), MachineSpec::class_b(), charge, &cfg)
}

/// The `gbps`, `mpps`, `server_cpu` cells of one replayed sweep row.
fn perf(charge: &PacketCharge, r: &ScalabilityResult) -> impl Iterator<Item = Cell> {
    let mpps = r.gbps * 1e9 / (charge.payload_bytes as f64 * 8.0) / 1e6;
    cells![r.gbps, mpps, r.server_cpu]
}

/// A sweep table's columns: integer/label `keys`, the three [`perf`]
/// columns, then `extra` measured columns.
fn columns(keys: &[&'static str], extra: &[(&'static str, usize)]) -> Vec<(&'static str, usize)> {
    let mut out: Vec<_> = keys.iter().map(|&k| (k, 0)).collect();
    out.extend([("gbps", 4), ("mpps", 5), ("server_cpu", 4)]);
    out.extend(extra);
    out
}

/// The many-peer small-record mix on the `shards`-shard EndBox-SGX NOP
/// stack: `peers` peers each send `per_peer` single-packet records per
/// round.
fn small_record_mix(shards: usize, peers: usize, per_peer: usize) -> MeasureSpec {
    MeasureSpec {
        payload_len: SMALL_MIX_PAYLOAD,
        samples: 6,
        peers,
        per_peer,
        ..MeasureSpec::sharded(shards)
    }
}

fn mix_title(what: &str, stack: &str) -> String {
    format!(
        "Many-peer small-record mix ({SMALL_MIX_PAYLOAD} B payloads, {} Mbps/peer, single-record \
         datagrams): {what}\n    batched EndBox SGX[NOP] stack, {stack}",
        SMALL_MIX_PER_CLIENT_BPS / 1_000_000
    )
}

/// Scheduler-pressure penalty: the OpenVPN+Click baseline crosses two
/// processes per packet, and once the run queue exceeds the hardware
/// threads, every crossing pays wake-up latency and cache pollution that
/// grows with the number of runnable processes. This is what makes the
/// paper's OpenVPN+Click curve *decrease* beyond its 2.5 Gbps peak while
/// vanilla OpenVPN (no per-packet IPC) plateaus flat (§V-E, Fig. 10a).
const SCHED_PENALTY_PER_EXCESS_PROC: f64 = 0.015;

/// The paper's Fig. 10 sweep over `deployments` (one server process per
/// client, or one for everything under vanilla Click): columns
/// `deployment`, `clients`, `gbps`, `server_cpu`.
fn paper_fig10(title: &str, deployments: &[Deployment]) -> Table {
    let mut table = Table::new(
        "fig10_paper",
        title.to_string(),
        &[
            ("deployment", 0),
            ("clients", 0),
            ("gbps", 2),
            ("server_cpu", 2),
        ],
        (&["deployment"], "clients", &["gbps", "server_cpu"]),
    );
    let single = |d| measure(&MeasureSpec::single_flow(d, 1_500, 16)).charge;
    let hw_threads = MachineSpec::class_b().cores * 2;
    for &deployment in deployments {
        let base = single(deployment);
        // The Click-side share of the per-packet work (fetch + IPC +
        // elements) is what the scheduler pressure amplifies.
        let click_side = match deployment {
            Deployment::OpenVpnClick(_) => base
                .server_cycles
                .saturating_sub(single(Deployment::VanillaOpenVpn).server_cycles),
            _ => 0,
        };
        let lanes = ScalabilityConfig {
            server_procs_per_client: deployment.server_procs_per_client(),
            server_single_process: deployment.server_single_process(),
            ..lanes(200_000_000, 1_500, None)
        };
        for n in client_counts() {
            let procs = n * deployment.server_procs_per_client();
            let excess = procs.saturating_sub(hw_threads) as f64;
            let mut charge = base;
            charge.server_cycles +=
                (click_side as f64 * SCHED_PENALTY_PER_EXCESS_PROC * excess) as u64;
            let r = replay(charge, &lanes, n, false);
            table.push(cells![deployment.name(), n, r.gbps, r.server_cpu]);
        }
    }
    table
}

/// The Fig. 10 sweep for one deployment.
pub fn sweep(deployment: Deployment) -> Table {
    paper_fig10(&deployment.name(), &[deployment])
}

/// Fig. 10a: the four deployments with the NOP function.
pub fn fig10a() -> Table {
    paper_fig10(
        "Fig. 10a: NOP use case, different deployments",
        &[
            Deployment::VanillaOpenVpn,
            Deployment::EndBoxSgx(UseCase::Nop),
            Deployment::VanillaClick(UseCase::Nop),
            Deployment::OpenVpnClick(UseCase::Nop),
        ],
    )
}

/// Fig. 10b: the five use cases on EndBox SGX and OpenVPN+Click.
pub fn fig10b() -> Table {
    let deployments: Vec<Deployment> = UseCase::all()
        .into_iter()
        .flat_map(|uc| [Deployment::EndBoxSgx(uc), Deployment::OpenVpnClick(uc)])
        .collect();
    paper_fig10(
        "Fig. 10b: five use cases, EndBox vs OpenVPN+Click",
        &deployments,
    )
}

/// `BENCH_fig10.json` — the sharded Fig. 10 extension: two real clients
/// seal [`DEFAULT_BATCH_SIZE`]-packet records into the sharded server
/// once; the charge replays with the server as one process of 1/2/4/8
/// shard lanes (the `workers` column is that shard count C).
pub fn fig10_sharded() -> Table {
    let batch = DEFAULT_BATCH_SIZE;
    let mut table = Table::new(
        "fig10",
        format!(
            "Sharded server: batched EndBox SGX[NOP], batch={batch} \
             (shards x clients)"
        ),
        &columns(&["deployment", "clients", "workers", "batch"], &[]),
        (&["workers"], "clients", &["gbps", "mpps"]),
    );
    let charge = measure(&MeasureSpec {
        peers: 2,
        records: Records::Batched,
        per_peer: batch,
        ..MeasureSpec::sharded(1)
    })
    .charge;
    for c in shard_counts() {
        for n in client_counts() {
            let r = replay(charge, &fig10_lanes(c, false), n, false);
            let name = format!("{} sharded", Deployment::EndBoxSgx(UseCase::Nop).name());
            table.push(cells![name, n, c, batch].chain(perf(&charge, &r)));
        }
    }
    table
}

/// The heavy-tailed per-client load mix: a Zipf(α = 1.2) weight per rank,
/// with ranks assigned to clients by a fixed permutation that models an
/// arbitrary connect order. With the default stride the four heaviest
/// sessions land on session ids congruent modulo 4 — exactly the
/// collision static `(sid-1) mod N` affinity cannot escape, and the case
/// the load-aware dispatcher is built for. Aggregate offered load is
/// normalised by the timing layer, so the mix is directly comparable to
/// the uniform sweep.
pub fn heavy_tail_weights(n_clients: usize) -> Vec<f64> {
    const ALPHA: f64 = 1.2;
    // The four heaviest ranks land on clients 0, 4, 8, 12 — session ids
    // 1, 5, 9, 13, all homed on shard 0 at 4 workers.
    let elephants: Vec<usize> = (0..4).map(|r| 4 * r).filter(|&c| c < n_clients).collect();
    let mut order = elephants.clone();
    order.extend((0..n_clients).filter(|c| !elephants.contains(c)));
    let mut weights = vec![0.0; n_clients];
    for (rank, &client) in order.iter().enumerate() {
        weights[client] = 1.0 / ((rank + 1) as f64).powf(ALPHA);
    }
    weights
}

/// Per-client packet counts for one round of a heavy-tailed load mix:
/// client `i` contributes `ceil(weights[i] * base_batch)` packets
/// (minimum 1, so every session stays active). With the Zipf weights
/// of [`heavy_tail_weights`], a few elephant clients seal deep batches
/// while the mice send single packets — the skew the load-aware
/// dispatcher is measured against.
pub fn heavy_tail_batch_sizes(weights: &[f64], base_batch: usize) -> Vec<usize> {
    let max = weights.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    weights
        .iter()
        .map(|w| ((w / max) * base_batch as f64).ceil().max(1.0) as usize)
        .collect()
}

/// The heavy-tailed batched measurement behind the dispatcher comparison:
/// eight clients seal Zipf-sized records into the sharded server.
fn heavy_tail_spec() -> MeasureSpec {
    MeasureSpec {
        peers: 8,
        records: Records::Batched,
        per_peer: DEFAULT_BATCH_SIZE,
        zipf: true,
        ..MeasureSpec::sharded(1)
    }
}

/// `BENCH_heavytail.json` — static affinity vs load-aware dispatch under
/// the Zipf mix whose elephants collide on one home shard, at 4 shards.
/// The one real stack is measured once; its charge is replayed with the
/// same mix through 4 shard lanes with modelled migration and with every
/// peer fixed at home. The `static` row is therefore a lane-model
/// counterfactual — the server no longer has a static mode to measure —
/// and the win is a queueing effect the timing layer reproduces.
pub fn heavy_tail() -> Table {
    let mut table = Table::new(
        "heavytail",
        format!(
            "Heavy-tailed load mix (Zipf 1.2, colliding elephants): static affinity vs \
             load-aware dispatch\n    batched EndBox SGX[NOP], batch={DEFAULT_BATCH_SIZE}, \
             4 shards"
        ),
        &columns(
            &["policy", "clients", "workers", "batch"],
            &[("migrations", 0)],
        ),
        (&["policy"], "clients", &["gbps", "migrations"]),
    );
    let charge = measure(&heavy_tail_spec()).charge;
    for (policy, migrate) in [("static", false), ("load-aware", true)] {
        for n in [10, 20, 30, 40, 50, 60] {
            let r = replay(charge, &fig10_lanes(4, migrate), n, true);
            let keys = cells![policy, n, 4usize, DEFAULT_BATCH_SIZE];
            table.push(keys.chain(perf(&charge, &r)).chain(cells![r.migrations]));
        }
    }
    table
}

/// `BENCH_rx.json` — shard scaling: six peers interleave single-record
/// datagrams into a server of C shards; the charge replays through C
/// shard lanes.
pub fn rx_scaling() -> Table {
    let mut table = Table::new(
        "rx",
        mix_title(
            "shard scaling",
            &format!("shards C in {:?}", shard_counts()),
        ),
        &columns(&["clients", "shards"], &[]),
        (&["shards"], "clients", &["mpps", "server_cpu"]),
    );
    for c in shard_counts() {
        let charge = measure(&small_record_mix(c, 6, 4)).charge;
        let cfg = lanes(
            SMALL_MIX_PER_CLIENT_BPS,
            charge.payload_bytes,
            Some(ShardLanes::new(c)),
        );
        for n in SMALL_MIX_CLIENTS {
            let r = replay(charge, &cfg, n, false);
            table.push(cells![n, c].chain(perf(&charge, &r)));
        }
    }
    table
}

/// The event-driven measurement behind [`async_ingress`]: the
/// small-record mix (8 peers × 8 records) riding the wire into per-peer
/// sockets that the event loop's one poll group drains, 4 shards.
pub fn async_ingress_spec() -> MeasureSpec {
    MeasureSpec {
        doorway: Doorway::EventLoop,
        ..small_record_mix(4, 8, 8)
    }
}

/// `BENCH_async.json` — call-driven vs event-driven socket front-end.
/// Both modes replay **one** real-stack measurement
/// ([`async_ingress_spec`]); the only modelled difference is the wakeup
/// amortisation — one wakeup per datagram against the measured ratio —
/// which is precisely the event-driven front-end's contribution.
pub fn async_ingress() -> Table {
    let mut table = Table::new(
        "async",
        mix_title(
            "socket front-end comparison",
            "4 shards behind one poll group",
        ),
        &columns(&["mode", "clients", "shards"], &[("wakeups_per_packet", 4)]),
        (&["mode"], "clients", &["mpps", "server_cpu"]),
    );
    let m = measure(&async_ingress_spec());
    let wakeup = CostModel::calibrated().event_loop_wakeup;
    for (mode, model) in [
        ("call-driven", AsyncFrontEndModel::call_driven(wakeup)),
        (
            "event-driven",
            AsyncFrontEndModel::event_driven(wakeup, m.wakeups_per_datagram),
        ),
    ] {
        let shards = ShardLanes {
            wakeups: Some(model),
            ..ShardLanes::new(4)
        };
        let cfg = lanes(
            SMALL_MIX_PER_CLIENT_BPS,
            m.charge.payload_bytes,
            Some(shards),
        );
        for n in SMALL_MIX_CLIENTS {
            let r = replay(m.charge, &cfg, n, false);
            let wakeups_per_packet = model.wakeups_per_datagram * m.charge.fragments.max(1) as f64;
            let keys = cells![mode, n, 4usize];
            table.push(
                keys.chain(perf(&m.charge, &r))
                    .chain(cells![wakeups_per_packet]),
            );
        }
    }
    table
}

/// The modelled baseline the controller's rows are set against: the
/// same measured charge replayed with every peer fixed at its home shard
/// `client mod C` for the whole run (`migrate: false`). A lane-model
/// counterfactual — the real server always runs its laws — of what moving
/// peers is worth.
pub const FIXED_HOMING: &str = "fixed-homing";

/// The measurement behind [`adaptive_control`] and [`elastic_resize`]:
/// the heavy-tailed small-record mix through the event loop. 8 peers at
/// 2 shards puts both Zipf elephants (peers 0 and 4) on shard 0; base
/// batch 24 makes that shard carry ~43 of each round's ~59 datagrams,
/// 2.7x the other shard — a steady hot spot that the dispatch law's
/// persistence trigger (2x the other shards' mean for 3 consecutive
/// calls) actually moves, though its gap trigger alone would not.
pub fn controlled_spec(shards: usize) -> MeasureSpec {
    MeasureSpec {
        doorway: Doorway::EventLoop,
        zipf: true,
        ..small_record_mix(shards, 8, 24)
    }
}

/// Replays one [`controlled_spec`] measurement at one trace step through
/// `shards` shard lanes: crowd steps carry the Zipf skew, the event
/// loop's measured wakeup amortisation prices the socket front-end, and
/// peers migrate only for a *measured* run whose dispatch law
/// demonstrably moved a peer — and not at all under `fixed_homing`, the
/// [`FIXED_HOMING`] counterfactual.
fn replay_step(
    m: &Measured,
    shards: usize,
    fixed_homing: bool,
    step: &TraceStep,
) -> impl Iterator<Item = Cell> {
    let wakeup = CostModel::calibrated().event_loop_wakeup;
    let shards = ShardLanes {
        migrate: m.migrations > 0 && !fixed_homing,
        wakeups: Some(AsyncFrontEndModel::event_driven(
            wakeup,
            m.wakeups_per_datagram,
        )),
        ..ShardLanes::new(shards)
    };
    let cfg = lanes(
        SMALL_MIX_PER_CLIENT_BPS,
        m.charge.payload_bytes,
        Some(shards),
    );
    perf(&m.charge, &replay(m.charge, &cfg, step.clients, step.crowd))
}

fn trace_title(what: &str, stack: &str) -> String {
    format!(
        "Heavy-tailed small-record mix ({SMALL_MIX_PAYLOAD} B payloads, {} Mbps/peer) over \
         offered-load traces: {what}\n    batched EndBox SGX[NOP] stack, {stack}; \
         {TRACE_BASE} -> {TRACE_PEAK} clients over {TRACE_STEPS} steps; crowd-phase steps \
         carry the Zipf skew",
        SMALL_MIX_PER_CLIENT_BPS / 1_000_000
    )
}

/// `BENCH_adaptive.json` — the controller vs [`FIXED_HOMING`] over a
/// flash-crowd and a diurnal trace (2 shards). The real stack is measured
/// exactly once; both rows replay that charge, and only the offered load
/// moves across steps.
pub fn adaptive_control() -> Table {
    let mut table = Table::new(
        "adaptive",
        trace_title(
            "online peer re-homing vs fixed shard homing",
            "2 shards; flash-crowd + diurnal traces",
        ),
        &columns(&["config", "trace", "step", "clients", "crowd"], &[]),
        (&["trace", "config"], "step", &["gbps"]),
    );
    let traces = [
        (
            "flash-crowd",
            flash_crowd_trace(TRACE_BASE, TRACE_PEAK, TRACE_STEPS),
        ),
        (
            "diurnal",
            diurnal_trace(TRACE_BASE, TRACE_PEAK, TRACE_STEPS),
        ),
    ];
    let m = measure(&controlled_spec(2));
    for (config, fixed_homing) in [(FIXED_HOMING, true), ("controller", false)] {
        for (trace, steps) in &traces {
            for s in steps {
                let keys = cells![config, *trace, s.step, s.clients, s.crowd];
                table.push(keys.chain(replay_step(&m, 2, fixed_homing, s)));
            }
        }
    }
    table
}

/// The fixed `(name, shards)` capacity ladder the elastic
/// server competes against: an operator who picked one rung up front and
/// cannot change it as the diurnal load moves. The rungs bracket the
/// demand range — `fixed-small` is right-sized for the trough (and
/// saturates at the peak), `fixed-large` for the peak (and idles at the
/// trough). The elastic row moves along exactly this ladder, so "elastic
/// within 10% of the best rung at every step" means online resizing
/// recovers the whole fixed tuning space.
pub const ELASTIC_LADDER: [(&str, usize); 3] =
    [("fixed-small", 1), ("fixed-mid", 2), ("fixed-large", 4)];

/// The [`ELASTIC_LADDER`] rung (by index) the resize law settles on for
/// one trace step: the trace-level projection of the control law in
/// `AsyncFrontEnd::control_round` (the live law folds the total socket
/// backlog into one demand EWMA each round; over a whole step it converges
/// onto the offered load, so the step's client count is the demand
/// proxy). Demand maps linearly onto the ladder's shard range — the
/// trough picks the smallest rung, the peak the largest — mirroring
/// `desired = ceil(demand / RESIZE_TARGET_DEMAND)` with the trace's
/// peak normalised onto `fixed-large`.
pub fn elastic_rung_for(clients: usize, peak: usize) -> usize {
    let top = ELASTIC_LADDER.len() - 1;
    let desired = (clients * ELASTIC_LADDER[top].1)
        .div_ceil(peak.max(1))
        .max(1);
    ELASTIC_LADDER
        .iter()
        .position(|rung| rung.1 >= desired)
        .unwrap_or(top)
}

/// `BENCH_elastic.json` — online shard-count resizing vs the fixed
/// [`ELASTIC_LADDER`] over the diurnal trace. Every shard count is
/// measured once on the real stack; fixed rungs replay one count for the
/// whole trace, the `elastic` row follows [`elastic_rung_for`] step by
/// step, so capacity tracks the curve.
pub fn elastic_resize() -> Table {
    let mut table = Table::new(
        "elastic",
        trace_title(
            "online shard-count resizing vs fixed capacity rungs",
            "ladder C in {1, 2, 4}; diurnal trace",
        ),
        &columns(&["config", "step", "clients", "crowd", "shards"], &[]),
        (&["config"], "step", &["gbps", "shards"]),
    );
    let trace = diurnal_trace(TRACE_BASE, TRACE_PEAK, TRACE_STEPS);
    let rungs = ELASTIC_LADDER.map(|(_, shards)| measure(&controlled_spec(shards)));
    let fixed = (0..ELASTIC_LADDER.len()).map(|rung| (ELASTIC_LADDER[rung].0, Some(rung)));
    for (config, fixed_rung) in fixed.chain([("elastic", None)]) {
        for s in &trace {
            let rung = fixed_rung.unwrap_or_else(|| elastic_rung_for(s.clients, TRACE_PEAK));
            let shards = ELASTIC_LADDER[rung].1;
            let keys = cells![config, s.step, s.clients, s.crowd, shards];
            table.push(keys.chain(replay_step(&rungs[rung], shards, false, s)));
        }
    }
    table
}

/// Real-stack elasticity demo for the `exp` driver: drives a flood then
/// sustained idleness through a live elastic scenario
/// (`ScenarioBuilder::elastic`) and returns the resulting
/// [`crate::server::ResizeStats`] — the law must have both grown and
/// shrunk the server ([`crate::server::ResizeStats::grows`] and
/// [`crate::server::ResizeStats::shrinks`] >= 1) for the replayed
/// elastic row to be an honest model of the implementation.
pub fn elastic_capacity_demo() -> crate::server::ResizeStats {
    use crate::scenario::Scenario;
    let mut scenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1a5)
        .elastic(true)
        .build_sharded(1)
        .expect("elastic scenario");
    let mut round = 0;
    while scenario.server.resize_stats().grows == 0 && round < 12 {
        let mut sent = 0;
        for client in 0..4 {
            for i in 0..75 {
                let payload = format!("demo round {round} client {client} packet {i}");
                let packet = endbox_netsim::Packet::tcp(
                    Scenario::client_addr(client),
                    Scenario::network_addr(),
                    41_000 + client as u16,
                    5_001,
                    (round * 1_000 + i) as u32,
                    payload.as_bytes(),
                );
                let datagrams = scenario.clients[client]
                    .send_packet(packet)
                    .expect("seal demo packet");
                sent += datagrams.len();
                scenario.send_wire_datagrams(client as u64, datagrams);
            }
        }
        let mut got = 0;
        let mut spins = 0;
        while got < sent {
            got += scenario.pump_async().len();
            spins += 1;
            assert!(spins < 100_000, "demo lost datagrams: {got} of {sent}");
        }
        round += 1;
    }
    for _ in 0..60 {
        scenario.pump_async();
    }
    scenario.server.resize_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(table: &Table, clients: usize) -> f64 {
        table.get(&[("clients", &clients.to_string())], "gbps")
    }

    #[test]
    fn endbox_scales_linearly_until_server_saturates() {
        let points = sweep(Deployment::EndBoxSgx(UseCase::Nop));
        // Linear region: 5 -> 10 -> 20 clients roughly doubles.
        let (a5, a10, a20) = (at(&points, 5), at(&points, 10), at(&points, 20));
        assert!((a10 / a5 - 2.0).abs() < 0.2, "{a10} vs {a5}");
        assert!((a20 / a10 - 2.0).abs() < 0.2);
        // Plateau at roughly the paper's 6.5 Gbps (±20%).
        let plateau = at(&points, 60);
        assert!((plateau - 6.5).abs() / 6.5 < 0.2, "plateau {plateau}");
    }

    #[test]
    fn endbox_beats_openvpn_click_at_sixty_clients() {
        let e = at(&sweep(Deployment::EndBoxSgx(UseCase::Firewall)), 60);
        let c = at(&sweep(Deployment::OpenVpnClick(UseCase::Firewall)), 60);
        // Paper: 2.6x for lightweight use cases.
        let factor = e / c;
        assert!(factor > 1.8, "EndBox should win clearly: {factor:.2}x");
    }

    #[test]
    fn compute_heavy_use_cases_widen_the_gap() {
        let l = at(&sweep(Deployment::OpenVpnClick(UseCase::Firewall)), 60);
        let h = at(&sweep(Deployment::OpenVpnClick(UseCase::Idps)), 60);
        assert!(
            h < l,
            "IDPS saturates the central server earlier: {h} vs {l}"
        );
    }

    #[test]
    fn server_cpu_saturates_for_central_deployments() {
        let points = sweep(Deployment::OpenVpnClick(UseCase::Idps));
        let cpu = points.get(&[("clients", "60")], "server_cpu");
        assert!(cpu > 0.9, "central middlebox CPU-bound: {cpu}");
    }

    fn fig10_charge(shards: usize) -> PacketCharge {
        measure(&MeasureSpec {
            peers: 2,
            records: Records::Batched,
            per_peer: DEFAULT_BATCH_SIZE,
            ..MeasureSpec::sharded(shards)
        })
        .charge
    }

    #[test]
    fn sharded_charge_matches_single_server_work() {
        // Sharding redistributes the per-packet work, it must not change
        // its total: the measured per-packet server cycles of a 4-shard
        // stack stay close to the 1-shard stack's.
        let (one, four) = (fig10_charge(1), fig10_charge(4));
        let tol = one.server_cycles / 5;
        assert!(
            four.server_cycles.abs_diff(one.server_cycles) <= tol.max(2_000),
            "per-packet server work must be shard-count independent: {} vs {}",
            one.server_cycles,
            four.server_cycles
        );
        assert_eq!(one.payload_bytes, four.payload_bytes);
    }

    #[test]
    fn migration_keeps_uniform_fig10_numbers() {
        // The guard-rail: under the *uniform* Fig. 10 load modelled
        // migration must be within 5% of fixed homing.
        let charge = fig10_charge(4);
        let run = |migrate: bool| replay(charge, &fig10_lanes(4, migrate), 60, false).gbps;
        let (g_fixed, g_moving) = (run(false), run(true));
        assert!(
            (g_moving - g_fixed).abs() / g_fixed < 0.05,
            "uniform load must not regress: fixed {g_fixed:.2} vs migrating {g_moving:.2} Gbps"
        );
    }

    #[test]
    fn heavy_tail_win_comes_from_migrations() {
        let charge = measure(&heavy_tail_spec()).charge;
        let replay_at_60 = |migrate| replay(charge, &fig10_lanes(4, migrate), 60, true);
        let fixed = replay_at_60(false);
        let moving = replay_at_60(true);
        assert_eq!(fixed.migrations, 0);
        assert!(moving.migrations > 0 && moving.gbps > fixed.gbps);
    }

    #[test]
    fn shard_win_grows_with_peer_count() {
        // At low peer counts few shards keep up (the win must come from
        // saturation, not from a modelling constant); at high counts the
        // single shard pins the ceiling.
        let table = rx_scaling();
        let win = |clients: &str| {
            table.get(&[("shards", "4"), ("clients", clients)], "gbps")
                / table.get(&[("shards", "1"), ("clients", clients)], "gbps")
        };
        let (low, high) = (win("20"), win("120"));
        assert!(
            high > low,
            "the shard-scaling win must grow with peers: {low:.2}x at 20 vs {high:.2}x at 120"
        );
    }

    #[test]
    fn uniform_fig10_numbers_hold_their_baseline() {
        // The guard-rail: 9.92 Gbps at 60 clients on 4 shards is the
        // sharded Fig. 10 baseline; big batched records keep the shard
        // lanes clear of the ceiling.
        let charge = fig10_charge(4);
        let gbps = replay(charge, &fig10_lanes(4, false), 60, false).gbps;
        assert!(
            (gbps - 9.92).abs() / 9.92 < 0.05,
            "uniform Fig. 10 must stay within 5% of the baseline: {gbps:.2} Gbps"
        );
    }

    #[test]
    fn event_loop_amortises_wakeups_on_the_small_record_mix() {
        // The measured input to the async model must show real
        // amortisation: with 8 ready peers per round, the event loop
        // drains many datagrams per wakeup, so the ratio sits far below
        // the call-driven front-end's 1.0.
        let m = measure(&async_ingress_spec());
        assert!(
            m.wakeups_per_datagram > 0.0 && m.wakeups_per_datagram < 0.5,
            "event loop must amortise wakeups well below call-driven: {:.3}",
            m.wakeups_per_datagram
        );
        assert_eq!(m.charge.fragments, 1, "small records must not fragment");
    }

    #[test]
    fn one_poll_and_one_budget_per_round_at_every_shard_count() {
        // One poll group feeds every shard: a round costs one wakeup and
        // drains at most one budget of `DEFAULT_SHARD_BUDGET × C`,
        // whatever C is.
        let wakeups = [1, 2, 4].map(|c| {
            let m = measure(&controlled_spec(c));
            let per_round = (crate::server::DEFAULT_SHARD_BUDGET * c) as u64;
            assert!(
                m.ingress.datagrams <= m.ingress.rounds * per_round,
                "C = {c}: {:?}",
                m.ingress
            );
            m.wakeups_per_datagram
        });
        assert!(
            wakeups.iter().all(|&w| w == wakeups[0]),
            "wakeups per datagram moved with C: {wakeups:?}"
        );
    }

    #[test]
    fn dispatch_law_moves_a_peer_on_the_controlled_mix() {
        // Both Zipf elephants (peers 0 and 4) home on shard 0 at C = 2
        // and 4, so that shard runs persistently hot and the dispatch
        // law must move a peer off it — the move that lets the
        // `adaptive` and `elastic` rows replay migration.
        for c in [2, 4] {
            let m = measure(&controlled_spec(c));
            assert!(m.migrations >= 1, "C = {c}: {m:?}");
        }
    }

    #[test]
    fn elastic_rung_tracks_the_diurnal_curve() {
        // The trough picks the smallest rung, the peak the largest,
        // and the rung never shrinks while demand grows.
        assert_eq!(elastic_rung_for(1, TRACE_PEAK), 0);
        assert_eq!(
            elastic_rung_for(TRACE_PEAK, TRACE_PEAK),
            ELASTIC_LADDER.len() - 1
        );
        let mut last = 0;
        for clients in 1..=TRACE_PEAK {
            let rung = elastic_rung_for(clients, TRACE_PEAK);
            assert!(
                rung >= last,
                "rung shrank while demand grew at {clients} clients"
            );
            last = rung;
        }
    }

    #[test]
    fn elastic_demo_grows_and_shrinks_the_real_stack() {
        // The replayed elastic row is only honest if the real resize
        // law both grows under the flood and shrinks back when idle.
        let stats = elastic_capacity_demo();
        assert!(stats.grows >= 1, "demo never grew: {stats:?}");
        assert!(stats.shrinks >= 1, "demo never shrank: {stats:?}");
    }

    #[test]
    fn heavy_tail_weights_are_normalisable_and_skewed() {
        let w = heavy_tail_weights(60);
        assert_eq!(w.len(), 60);
        assert!(w.iter().all(|&x| x > 0.0));
        // Elephants sit on clients 0, 4, 8, 12 in descending order.
        assert!(w[0] > w[4] && w[4] > w[8] && w[8] > w[12]);
        // The four elephants (one home shard at 4 workers) carry the
        // majority of the offered load.
        let total: f64 = w.iter().sum();
        let elephants = w[0] + w[4] + w[8] + w[12];
        assert!(
            elephants / total > 0.5,
            "heavy tail must be heavy: {:.2}",
            elephants / total
        );
    }
}

//! Fig. 10 — server-side aggregate throughput and CPU usage as the number
//! of clients grows (200 Mbps offered per client, 1 500 B packets) — and
//! the scaling experiments this repository adds on top: worker shards,
//! load-aware dispatch, RX shards, the event-driven front-end, bulk socket
//! I/O, the self-tuning controller and online resizing.
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
    run_scalability, AsyncFrontEndModel, PacketCharge, RxLanes, ScalabilityConfig,
    ScalabilityResult, SyscallBatchModel, WorkerLanes,
};
use endbox_netsim::resource::MachineSpec;
use endbox_netsim::time::SimDuration;
use endbox_netsim::traffic::{diurnal_trace, flash_crowd_trace, TraceStep};

/// Client counts plotted in Fig. 10.
pub fn client_counts() -> [usize; 9] {
    [1, 5, 10, 15, 20, 30, 40, 50, 60]
}

/// Worker-shard counts swept by the sharded Fig. 10 extension.
pub fn worker_counts() -> [usize; 4] {
    [1, 2, 4, 8]
}

/// RX-shard counts swept by the RX-scaling experiment.
pub fn rx_shard_counts() -> [usize; 3] {
    [1, 2, 4]
}

/// Payload size of the RX-bound small-record mix (bytes). Small records
/// mean one wire datagram per record, so the per-packet framing share is
/// maximal — exactly the regime where a single RX thread is the serial
/// bottleneck.
pub const RX_MIX_PAYLOAD: usize = 256;

/// Offered load per peer of the small-record mix (bits/s). Many cheap
/// peers, not a few elephants: the aggregate packet rate is what
/// saturates a framing lane.
pub const RX_MIX_PER_CLIENT_BPS: u64 = 20_000_000;

/// Peer counts of the small-record sweeps.
const RX_MIX_CLIENTS: [usize; 6] = [20, 40, 60, 80, 100, 120];

/// Peer counts of the syscall-boundary sweep.
const BOUNDARY_CLIENTS: [usize; 3] = [40, 80, 120];

/// Bulk sizes swept by the syscall-batching comparison: `1` is the
/// per-datagram transport (one `recvfrom` per wire datagram), the rest
/// hand the kernel a `recvmmsg`-shaped vector of up to N datagrams per
/// crossing.
pub const WIRE_BULK_SIZES: [usize; 4] = [1, 8, 32, 128];

/// Off-peak client count of the offered-load traces.
pub const TRACE_BASE: usize = 10;

/// Peak client count of the offered-load traces. Deliberately in the
/// *lane-imbalance* regime of the 2-RX-shard server: the crowd's Zipf
/// elephants all home on RX lane 0 (even client ids), whose offered load
/// exceeds twice a lane's capacity while the odd lane still has idle
/// headroom — so online re-homing converts real throughput, and a
/// configuration that cannot remap leaves the cold lane underused. Far
/// past this (say 60 clients at the same per-client rate) *both* lanes
/// saturate and every configuration converges to the same aggregate
/// ceiling, which would measure nothing.
pub const TRACE_PEAK: usize = 30;

/// Steps per offered-load trace.
const TRACE_STEPS: usize = 12;

/// The lane model every sweep shares: a 20 ms window, five client
/// machines, no scheduler contention, and the paper's
/// one-process-per-client server until a sweep says otherwise.
fn lanes(per_client_bps: u64, payload_bytes: usize) -> ScalabilityConfig {
    ScalabilityConfig {
        per_client_bps,
        payload_bytes,
        duration: SimDuration::from_millis(20),
        contention_per_excess_process: 0.0,
        ..ScalabilityConfig::default()
    }
}

/// Fig. 10's offered load (200 Mbps of 1 500 B packets per client) into
/// one server process with `workers` shard flows — placed load-awarely
/// or by fixed affinity — RX work folded into the worker lanes.
fn fig10_lanes(workers: usize, load_aware: bool) -> ScalabilityConfig {
    ScalabilityConfig {
        server_worker_shards: Some(WorkerLanes {
            load_aware,
            ..WorkerLanes::new(workers)
        }),
        ..lanes(200_000_000, 1_500)
    }
}

/// The small-record mix's offered load into the serial framing lanes
/// `rx` in front of `workers` shard flows.
fn rx_mix_lanes(charge: &PacketCharge, rx: RxLanes, workers: WorkerLanes) -> ScalabilityConfig {
    ScalabilityConfig {
        server_worker_shards: Some(WorkerLanes {
            rx: Some(rx),
            ..workers
        }),
        ..lanes(RX_MIX_PER_CLIENT_BPS, charge.payload_bytes)
    }
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

/// The many-peer small-record mix on the sharded EndBox-SGX NOP stack:
/// `peers` peers each send `per_peer` single-packet records per round.
fn small_record_mix(
    rx_shards: usize,
    workers: usize,
    peers: usize,
    per_peer: usize,
) -> MeasureSpec {
    MeasureSpec {
        payload_len: RX_MIX_PAYLOAD,
        samples: 6,
        peers,
        per_peer,
        ..MeasureSpec::sharded(rx_shards, workers)
    }
}

fn mix_title(what: &str, stack: &str) -> String {
    format!(
        "Many-peer small-record mix ({RX_MIX_PAYLOAD} B payloads, {} Mbps/peer, single-record \
         datagrams): {what}\n    batched EndBox SGX[NOP] stack, {stack}",
        RX_MIX_PER_CLIENT_BPS / 1_000_000
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
            ..lanes(200_000_000, 1_500)
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
/// seal [`DEFAULT_BATCH_SIZE`]-packet records into a sharded server with
/// 1/2/4/8 worker threads; the charge replays with the server as one
/// process of that many shard flows.
pub fn fig10_sharded() -> Table {
    let batch = DEFAULT_BATCH_SIZE;
    let mut table = Table::new(
        "fig10",
        format!(
            "Sharded multi-worker server: batched EndBox SGX[NOP], batch={batch} \
             (workers x clients)"
        ),
        &columns(&["deployment", "clients", "workers", "batch"], &[]),
        (&["workers"], "clients", &["gbps", "mpps"]),
    );
    for workers in worker_counts() {
        let charge = measure(&MeasureSpec {
            peers: 2,
            records: Records::Batched,
            per_peer: batch,
            ..MeasureSpec::sharded(1, workers)
        })
        .charge;
        for n in client_counts() {
            let r = replay(charge, &fig10_lanes(workers, false), n, false);
            let name = format!("{} sharded", Deployment::EndBoxSgx(UseCase::Nop).name());
            table.push(cells![name, n, workers, batch].chain(perf(&charge, &r)));
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

/// The heavy-tailed batched measurement behind the dispatcher comparison:
/// eight clients seal Zipf-sized records into a 4-worker server.
fn heavy_tail_spec() -> MeasureSpec {
    MeasureSpec {
        peers: 8,
        records: Records::Batched,
        per_peer: DEFAULT_BATCH_SIZE,
        zipf: true,
        ..MeasureSpec::sharded(1, 4)
    }
}

/// `BENCH_heavytail.json` — static affinity vs load-aware dispatch under
/// the Zipf mix whose elephants collide on one home shard, at 4 worker
/// shards. The one real stack is measured once; its charge is replayed
/// with the same mix through the load-aware lane model and through
/// fixed affinity. The `static` row is therefore a lane-model
/// counterfactual — the server no longer has a static mode to measure —
/// and the win is a queueing effect the timing layer reproduces.
pub fn heavy_tail() -> Table {
    let mut table = Table::new(
        "heavytail",
        format!(
            "Heavy-tailed load mix (Zipf 1.2, colliding elephants): static affinity vs \
             load-aware dispatch\n    batched EndBox SGX[NOP], batch={DEFAULT_BATCH_SIZE}, \
             4 worker shards"
        ),
        &columns(
            &["policy", "clients", "workers", "batch"],
            &[("migrations", 0)],
        ),
        (&["policy"], "clients", &["gbps", "migrations"]),
    );
    let charge = measure(&heavy_tail_spec()).charge;
    for (policy, load_aware) in [("static", false), ("load-aware", true)] {
        for n in [10, 20, 30, 40, 50, 60] {
            let r = replay(charge, &fig10_lanes(4, load_aware), n, true);
            let keys = cells![policy, n, 4usize, DEFAULT_BATCH_SIZE];
            table.push(keys.chain(perf(&charge, &r)).chain(cells![r.migrations]));
        }
    }
    table
}

/// `BENCH_rx.json` — RX front-end sharding: six peers interleave
/// single-record datagrams into a server with K RX framing threads (4
/// workers); the charge replays with K serial framing lanes
/// (completion-ordered hand-off) in front of the worker flows.
pub fn rx_scaling() -> Table {
    let mut table = Table::new(
        "rx",
        mix_title(
            "RX front-end sharding",
            &format!("4 worker shards, RX shards K in {:?}", rx_shard_counts()),
        ),
        &columns(&["clients", "rx_shards", "workers"], &[]),
        (&["rx_shards"], "clients", &["mpps", "server_cpu"]),
    );
    for k in rx_shard_counts() {
        let charge = measure(&small_record_mix(k, 4, 6, 4)).charge;
        for n in RX_MIX_CLIENTS {
            let lanes = rx_mix_lanes(&charge, RxLanes::new(k), WorkerLanes::new(4));
            let r = replay(charge, &lanes, n, false);
            table.push(cells![n, k, 4usize].chain(perf(&charge, &r)));
        }
    }
    table
}

/// The event-driven measurement behind [`async_ingress`]: the
/// small-record mix (8 peers × 8 records) riding the wire into per-peer
/// sockets that the event loop drains, 4 RX shards (one poll group
/// each), 4 workers.
pub fn async_ingress_spec() -> MeasureSpec {
    MeasureSpec {
        doorway: Doorway::EventLoop,
        ..small_record_mix(4, 4, 8, 8)
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
            "4 worker shards, 4 RX shards (one poll group each)",
        ),
        &columns(
            &["mode", "clients", "rx_shards", "workers"],
            &[("wakeups_per_packet", 4)],
        ),
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
        let rx = RxLanes {
            wakeups: Some(model),
            ..RxLanes::new(4)
        };
        let lanes = rx_mix_lanes(&m.charge, rx, WorkerLanes::new(4));
        for n in RX_MIX_CLIENTS {
            let r = replay(m.charge, &lanes, n, false);
            let wakeups_per_packet = model.wakeups_per_datagram * m.charge.fragments.max(1) as f64;
            let keys = cells![mode, n, 4usize, 4usize];
            table.push(
                keys.chain(perf(&m.charge, &r))
                    .chain(cells![wakeups_per_packet]),
            );
        }
    }
    table
}

/// The bulk-draining measurement behind [`syscall_batch`]: the
/// event-driven small-record mix, queued twice as deep per peer as
/// [`async_ingress_spec`] (a call cannot move more than is waiting),
/// drained with `recv_many(bulk)`, 2 RX shards, 4 workers. (A socket's
/// token allowance is its share of the group budget — hundreds of
/// datagrams here — so the fairness grain never caps the measured
/// amortisation.)
pub fn boundary_spec(bulk: usize) -> MeasureSpec {
    MeasureSpec {
        doorway: Doorway::EventLoop,
        recv_bulk: bulk,
        ..small_record_mix(2, 4, 8, 16)
    }
}

/// One bulk size's rows: measures [`boundary_spec`] and replays it with
/// the calibrated per-syscall cost spread over the measured
/// datagrams-per-call ratio on the RX lanes
/// ([`SyscallBatchModel::per_datagram`] at bulk 1,
/// [`SyscallBatchModel::bulk`] above it; a measured ratio below 1.0 —
/// the final empty dry-check call per socket — is clamped: a syscall
/// never moves less than one datagram).
///
/// Yields, per peer count, `(clients, [gbps, mpps, server_cpu,
/// datagrams_per_call])`.
fn boundary_rows(bulk: usize) -> Vec<(usize, Vec<Cell>)> {
    let m = measure(&boundary_spec(bulk));
    let cost = CostModel::calibrated();
    let model = if bulk <= 1 {
        SyscallBatchModel::per_datagram(cost.syscall_per_call)
    } else {
        SyscallBatchModel::bulk(cost.syscall_per_call, m.datagrams_per_call.max(1.0))
    };
    let rx = RxLanes {
        syscalls: Some(model),
        ..RxLanes::new(2)
    };
    let lanes = rx_mix_lanes(&m.charge, rx, WorkerLanes::new(4));
    BOUNDARY_CLIENTS
        .into_iter()
        .map(|n| {
            let r = replay(m.charge, &lanes, n, false);
            let measured = perf(&m.charge, &r).chain(cells![model.datagrams_per_call]);
            (n, measured.collect())
        })
        .collect()
}

/// `BENCH_wire.json` — syscall-batched transport: the small-record mix
/// drained with `recv_many` vectors of every size in
/// [`WIRE_BULK_SIZES`]. The metered per-datagram work is identical at
/// every bulk size; only the kernel crossings it needs move.
pub fn syscall_batch() -> Table {
    let mut table = Table::new(
        "wire",
        mix_title(
            "syscall-batched transport comparison",
            &format!("4 worker shards, 2 RX shards, recv_many bulk sizes {WIRE_BULK_SIZES:?}"),
        ),
        &columns(
            &["bulk", "clients", "rx_shards", "workers"],
            &[("datagrams_per_call", 4)],
        ),
        (
            &["bulk"],
            "clients",
            &["mpps", "server_cpu", "datagrams_per_call"],
        ),
    );
    for bulk in WIRE_BULK_SIZES {
        for (n, measured) in boundary_rows(bulk) {
            table.push(cells![bulk, n, 2usize, 4usize].chain(measured));
        }
    }
    table
}

/// The modelled baseline the controller's rows are set against: the
/// same measured charge replayed with RX homing fixed at `client mod k`
/// for the whole run. A lane-model counterfactual — the real front-end
/// always runs its remap law — of what the controller's online re-homing
/// is worth.
pub const FIXED_HOMING: &str = "fixed-homing";

/// The measurement behind [`adaptive_control`] and [`elastic_resize`]:
/// the heavy-tailed small-record mix through the event loop. 8 peers at
/// 2 RX shards puts both Zipf elephants (peers 0 and 4) in poll group 0;
/// base batch 24 makes that group's per-round backlog (~43 datagrams)
/// deep enough that the hot-group law (2x the other groups' mean,
/// 3-round debounce) actually fires.
pub fn controlled_spec(rx_shards: usize, workers: usize) -> MeasureSpec {
    MeasureSpec {
        doorway: Doorway::EventLoop,
        zipf: true,
        ..small_record_mix(rx_shards, workers, 8, 24)
    }
}

/// Replays one [`controlled_spec`] measurement at one trace step: crowd
/// steps carry the Zipf skew, workers dispatch load-awarely, and online
/// RX re-homing is modelled only for a *measured* run that demonstrably
/// performed remaps — and not at all under `fixed_homing`, the
/// [`FIXED_HOMING`] counterfactual.
fn replay_step(
    m: &Measured,
    rx_shards: usize,
    workers: usize,
    fixed_homing: bool,
    step: &TraceStep,
) -> impl Iterator<Item = Cell> {
    let wakeup = CostModel::calibrated().event_loop_wakeup;
    let rx = RxLanes {
        remap: !fixed_homing && m.controller.remaps > 0,
        wakeups: Some(AsyncFrontEndModel::event_driven(
            wakeup,
            m.wakeups_per_datagram,
        )),
        ..RxLanes::new(rx_shards)
    };
    let workers = WorkerLanes {
        load_aware: true,
        ..WorkerLanes::new(workers)
    };
    let lanes = rx_mix_lanes(&m.charge, rx, workers);
    perf(
        &m.charge,
        &replay(m.charge, &lanes, step.clients, step.crowd),
    )
}

fn trace_title(what: &str, stack: &str) -> String {
    format!(
        "Heavy-tailed small-record mix ({RX_MIX_PAYLOAD} B payloads, {} Mbps/peer) over \
         offered-load traces: {what}\n    batched EndBox SGX[NOP] stack, {stack}; \
         {TRACE_BASE} -> {TRACE_PEAK} clients over {TRACE_STEPS} steps; crowd-phase steps \
         carry the Zipf skew",
        RX_MIX_PER_CLIENT_BPS / 1_000_000
    )
}

/// `BENCH_adaptive.json` — the controller vs [`FIXED_HOMING`] over a
/// flash-crowd and a diurnal trace (2 RX shards, 4 workers). The real
/// stack is measured exactly once; both rows replay that charge, and
/// only the offered load moves across steps.
pub fn adaptive_control() -> Table {
    let mut table = Table::new(
        "adaptive",
        trace_title(
            "online peer re-homing vs fixed RX homing",
            "4 worker shards, 2 RX shards; flash-crowd + diurnal traces",
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
    let m = measure(&controlled_spec(2, 4));
    for (config, fixed_homing) in [(FIXED_HOMING, true), ("controller", false)] {
        for (trace, steps) in &traces {
            for s in steps {
                let keys = cells![config, *trace, s.step, s.clients, s.crowd];
                table.push(keys.chain(replay_step(&m, 2, 4, fixed_homing, s)));
            }
        }
    }
    table
}

/// The fixed `(name, rx_shards, workers)` capacity ladder the elastic
/// server competes against: an operator who picked one rung up front and
/// cannot change it as the diurnal load moves. The rungs bracket the
/// demand range — `fixed-small` is right-sized for the trough (and
/// saturates at the peak), `fixed-large` for the peak (and idles at the
/// trough). The elastic row moves along exactly this ladder, so "elastic
/// within 10% of the best rung at every step" means online resizing
/// recovers the whole fixed tuning space.
pub const ELASTIC_LADDER: [(&str, usize, usize); 3] = [
    ("fixed-small", 1, 1),
    ("fixed-mid", 2, 4),
    ("fixed-large", 4, 8),
];

/// The [`ELASTIC_LADDER`] rung (by index) the resize law settles on for
/// one trace step: the trace-level projection of the control law in
/// `AsyncFrontEnd::control_round` (the live law folds socket backlog
/// into demand EWMAs each round; over a whole step the EWMA converges
/// onto the offered load, so the step's client count is the demand
/// proxy). Demand maps linearly onto the ladder's RX range — the
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

/// `BENCH_elastic.json` — online RX/worker resizing vs the fixed
/// [`ELASTIC_LADDER`] over the diurnal trace. Every geometry is measured
/// once on the real stack; fixed rungs
/// replay one geometry for the whole trace, the `elastic` row follows
/// [`elastic_rung_for`] step by step, so capacity tracks the curve.
pub fn elastic_resize() -> Table {
    let mut table = Table::new(
        "elastic",
        trace_title(
            "online RX/worker resizing vs fixed capacity rungs",
            "ladder (K,N) in {(1,1), (2,4), (4,8)}; diurnal trace",
        ),
        &columns(
            &["config", "step", "clients", "crowd", "rx_shards", "workers"],
            &[],
        ),
        (&["config"], "step", &["gbps", "rx_shards"]),
    );
    let trace = diurnal_trace(TRACE_BASE, TRACE_PEAK, TRACE_STEPS);
    let rungs =
        ELASTIC_LADDER.map(|(_, rx_shards, workers)| measure(&controlled_spec(rx_shards, workers)));
    let fixed = (0..ELASTIC_LADDER.len()).map(|rung| (ELASTIC_LADDER[rung].0, Some(rung)));
    for (config, fixed_rung) in fixed.chain([("elastic", None)]) {
        for s in &trace {
            let rung = fixed_rung.unwrap_or_else(|| elastic_rung_for(s.clients, TRACE_PEAK));
            let (_, rx_shards, workers) = ELASTIC_LADDER[rung];
            let keys = cells![config, s.step, s.clients, s.crowd, rx_shards, workers];
            table.push(keys.chain(replay_step(&rungs[rung], rx_shards, workers, false, s)));
        }
    }
    table
}

/// Real-stack elasticity demo for the `exp` driver: drives a flood then
/// sustained idleness through a live elastic scenario
/// (`ScenarioBuilder::elastic`) and returns the resulting
/// [`crate::server::ResizeStats`] — the law must have both grown and
/// shrunk the pool ([`crate::server::ResizeStats::rx_grows`] and
/// [`crate::server::ResizeStats::rx_shrinks`] >= 1) for the replayed
/// elastic row to be an honest model of the implementation.
pub fn elastic_capacity_demo() -> crate::server::ResizeStats {
    use crate::scenario::Scenario;
    let mut scenario = Scenario::enterprise(4, UseCase::Nop)
        .seed(0xe1a5)
        .rx_shards(1)
        .elastic(true)
        .build_sharded(2)
        .expect("elastic scenario");
    let mut round = 0;
    while scenario.resize_stats().rx_grows == 0 && round < 12 {
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
    scenario.resize_stats()
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

    fn fig10_charge(workers: usize) -> PacketCharge {
        measure(&MeasureSpec {
            peers: 2,
            records: Records::Batched,
            per_peer: DEFAULT_BATCH_SIZE,
            ..MeasureSpec::sharded(1, workers)
        })
        .charge
    }

    #[test]
    fn sharded_charge_matches_single_server_work() {
        // Sharding redistributes the per-packet work, it must not change
        // its total: the measured per-packet server cycles of a 4-worker
        // sharded stack stay close to the 1-worker stack's.
        let (one, four) = (fig10_charge(1), fig10_charge(4));
        let tol = one.server_cycles / 5;
        assert!(
            four.server_cycles.abs_diff(one.server_cycles) <= tol.max(2_000),
            "per-packet server work must be worker-count independent: {} vs {}",
            one.server_cycles,
            four.server_cycles
        );
        assert_eq!(one.payload_bytes, four.payload_bytes);
    }

    #[test]
    fn load_aware_dispatch_keeps_uniform_fig10_numbers() {
        // The guard-rail: under the *uniform* Fig. 10 load the dispatcher
        // must be within 5% of static affinity.
        let charge = fig10_charge(4);
        let run = |load_aware: bool| replay(charge, &fig10_lanes(4, load_aware), 60, false).gbps;
        let (g_stat, g_aware) = (run(false), run(true));
        assert!(
            (g_aware - g_stat).abs() / g_stat < 0.05,
            "uniform load must not regress: static {g_stat:.2} vs load-aware {g_aware:.2} Gbps"
        );
    }

    #[test]
    fn heavy_tail_win_comes_from_migrations() {
        let charge = measure(&heavy_tail_spec()).charge;
        let replay_at_60 = |load_aware| replay(charge, &fig10_lanes(4, load_aware), 60, true);
        let stat = replay_at_60(false);
        let aware = replay_at_60(true);
        assert_eq!(stat.migrations, 0);
        assert!(aware.migrations > 0 && aware.gbps > stat.gbps);
    }

    #[test]
    fn rx_mix_is_framing_dominated() {
        // The many-peer small-record mix must actually be RX-bound:
        // per-datagram framing has to carry the majority of the per-packet
        // server work, or the sweep measures the wrong bottleneck.
        let charge = measure(&small_record_mix(1, 4, 6, 4)).charge;
        assert!(
            charge.rx_cycles * 2 >= charge.server_cycles,
            "framing must dominate the small-record mix: rx {} of {} total",
            charge.rx_cycles,
            charge.server_cycles
        );
        assert!(charge.rx_cycles <= charge.server_cycles);
        assert_eq!(charge.fragments, 1, "small records must not fragment");
    }

    #[test]
    fn rx_sharding_win_grows_with_peer_count() {
        // At low peer counts even one RX lane keeps up (the win must come
        // from saturation, not from a modelling constant); at high counts
        // the single lane pins the ceiling.
        let table = rx_scaling();
        let win = |clients: &str| {
            table.get(&[("rx_shards", "4"), ("clients", clients)], "gbps")
                / table.get(&[("rx_shards", "1"), ("clients", clients)], "gbps")
        };
        let (low, high) = (win("20"), win("120"));
        assert!(
            high > low,
            "the RX-sharding win must grow with peers: {low:.2}x at 20 vs {high:.2}x at 120"
        );
    }

    #[test]
    fn uniform_fig10_numbers_unmoved_by_rx_pool() {
        // The guard-rail: the RX pool must not move the uniform Fig. 10
        // sharded numbers (big batched records amortise framing to a
        // sliver per packet, and the sweep keeps RX folded into the
        // worker lanes). 9.92 Gbps at 60 clients / 4 workers is the
        // pre-RX-pool baseline.
        let charge = fig10_charge(4);
        let gbps = replay(charge, &fig10_lanes(4, false), 60, false).gbps;
        assert!(
            (gbps - 9.92).abs() / 9.92 < 0.05,
            "uniform Fig. 10 must stay within 5% of the baseline: {gbps:.2} Gbps"
        );
        // And the batched path's measured framing share really is a
        // minority (on the small-record mix it is the majority; see
        // `rx_mix_is_framing_dominated`).
        assert!(
            charge.rx_cycles * 2 <= charge.server_cycles,
            "batched records must amortise framing: rx {} of {}",
            charge.rx_cycles,
            charge.server_cycles
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
        assert!(
            m.charge.rx_cycles <= m.charge.server_cycles,
            "rx share (framing + socket) within the measured total: rx {} of {}",
            m.charge.rx_cycles,
            m.charge.server_cycles
        );
    }

    #[test]
    fn bulk_socket_io_amortises_syscalls_on_the_small_record_mix() {
        // With 16 datagrams queued per peer socket at drain time, a
        // bulk-32 `recv_many` front-end moves many datagrams per call,
        // while the per-datagram front-end cannot exceed one (its
        // dry-check tail even drags it slightly below).
        let one = measure(&boundary_spec(1));
        let bulk = measure(&boundary_spec(32));
        assert!(
            one.datagrams_per_call <= 1.0,
            "{:.3}",
            one.datagrams_per_call
        );
        assert!(
            bulk.datagrams_per_call >= 8.0,
            "bulk-32 must amortise across deep queues: {:.3}",
            bulk.datagrams_per_call
        );
        // The drained application work is bulk-invariant: identical
        // record mix, identical fragment shape.
        assert_eq!(one.charge.fragments, bulk.charge.fragments);
        assert_eq!(one.charge.payload_bytes, bulk.charge.payload_bytes);
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
        assert!(stats.rx_grows >= 1, "demo never grew: {stats:?}");
        assert!(stats.rx_shrinks >= 1, "demo never shrank: {stats:?}");
        assert_eq!(stats.worker_grows, stats.rx_grows);
        assert_eq!(stats.worker_shrinks, stats.rx_shrinks);
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

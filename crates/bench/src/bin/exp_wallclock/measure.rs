//! One workload in this process: set-up with its parity preflight, then either
//! the untraced windows (end-to-end metrics) or the traced pass, shadow
//! passes and replays (per-layer metrics).

use crate::alloc;
use crate::driver::{Bench, Captured, Reference};
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{percentile, summarize_windows, WindowSummary};
use crate::trace::{self, Span, Totals, Tracer};
use crate::workload::{Doorway, Spec, Tally};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds of the parity preflight.
const PREFLIGHT_ROUNDS: usize = 32;

/// Span slots of the traced pass; it stops early rather than grow.
const TRACE_CAPACITY: usize = 160_000;

/// How a run of `--seconds` divides its time.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Full set-ups timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
    /// Untraced reference window of a traced run (tracing overhead and
    /// the tail diagnostics come from it).
    pub traced_reference: Duration,
    pub traced: Duration,
    /// Length of each side pass: allocation counting, every shadow pass
    /// (after a warm-up a quarter as long) and the reference-server replay.
    pub side: Duration,
    /// Budget of each layer replay.
    pub replay: Duration,
}

/// Length of one measurement window. Half a second holds hundreds of
/// rounds of every closed loop and 100 paced records, and is short enough
/// that a run has tens of windows, so a burst of interference from the
/// shared host moves a minority of them and leaves the median alone.
const WINDOW: Duration = Duration::from_millis(500);

impl Plan {
    /// The full shape (7 set-ups, 1 s warm-up, half-second windows filling
    /// `seconds`); `--smoke` is one window and one set-up.
    pub fn new(seconds: f64, smoke: bool) -> Plan {
        let s = Duration::from_secs_f64;
        if smoke {
            Plan {
                setup_reps: 1,
                warmup: s(0.1),
                windows: 1,
                window: s(seconds),
                traced_reference: s(0.2 * seconds),
                traced: s(0.3 * seconds),
                side: s(0.12 * seconds),
                replay: s(0.01 * seconds),
            }
        } else {
            Plan {
                setup_reps: 7,
                warmup: s(1.0),
                windows: ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1),
                window: WINDOW.min(s(seconds)),
                traced_reference: s(0.2 * seconds),
                traced: s(0.3 * seconds),
                side: s(0.2 * seconds),
                replay: s(0.015 * seconds),
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile range over median of the windows, for windowed
    /// metrics.
    pub spread: Option<f64>,
    pub samples: Vec<f64>,
}

/// What one `measure` invocation found.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Per-layer metrics that came from a shadow pass through a doorway
    /// other than the workload's own.
    pub shadowed: Vec<&'static str>,
}

/// One full set-up, the unit of `setup_s`: builds the deployment (IAS/CA,
/// enrol + attest + handshake every client) and takes it through the
/// parity preflight. The first generated rounds go through both the
/// sharded deployment and a freshly built single-threaded reference, and
/// what the two servers deliver must be byte-identical.
fn set_up(
    spec: &'static Spec,
    doorway: Doorway,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Bench, Reference), String> {
    let mut bench = Bench::build(spec, doorway, seed).map_err(|e| format!("set-up: {e}"))?;
    bench.captured = Some(Vec::new());
    // Back to back: waiting for ticks would pad the set-up time.
    bench.pacing = false;
    while bench.captured.as_ref().map_or(0, Vec::len) < PREFLIGHT_ROUNDS * spec.clients {
        bench.round(tr);
    }
    bench.pacing = true;
    let sharded: Vec<Captured> = bench.captured.take().expect("capture was on");
    let mut reference =
        Reference::build(spec, doorway, seed).map_err(|e| format!("reference set-up: {e}"))?;
    let mut inline: Vec<Captured> = Vec::with_capacity(sharded.len());
    while inline.len() < sharded.len() {
        inline.extend(reference.round().map_err(|e| format!("reference: {e}"))?);
    }
    inline.truncate(sharded.len());
    if let Some((a, b)) = sharded.iter().zip(&inline).find(|(a, b)| a != b) {
        return Err(format!(
            "parity preflight failed at record {}: sharded delivered {} packets, \
             the single-threaded reference {} (record {})",
            a.0,
            a.1.len(),
            b.1.len(),
            b.0
        ));
    }
    if bench.tally.failed > 0 {
        return Err(format!(
            "output check failed during the preflight: {:?}",
            bench.tally
        ));
    }
    Ok((bench, reference))
}

/// Runs rounds for `length`; returns the wall time actually spent.
fn run_for(bench: &mut Bench, tr: &mut Tracer, length: Duration) -> Duration {
    let start = Instant::now();
    loop {
        bench.round(tr);
        let elapsed = start.elapsed();
        if elapsed >= length {
            return elapsed;
        }
    }
}

fn us(ns: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    percentile(&mut v, q)
}

/// The untraced run: `setup_s` from repeated builds, then the windows.
pub fn end_to_end(spec: &'static Spec, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut tr = Tracer::new(0);
    let mut setup_times = Vec::with_capacity(plan.setup_reps);
    let mut bench = None;
    for _ in 0..plan.setup_reps {
        // Tear the previous deployment down first: its threads and pools
        // must not count against the next build or the peak RSS.
        drop(bench.take());
        let start = Instant::now();
        let (built, reference) = set_up(spec, spec.doorway, seed, &mut tr)?;
        setup_times.push(start.elapsed().as_secs_f64());
        drop(reference);
        bench = Some(built);
    }
    let mut bench = bench.expect("at least one set-up");

    bench.restart_schedule(&tr);
    run_for(&mut bench, &mut tr, plan.warmup);

    // Per-window values of the four windowed metrics, in `END_TO_END` order.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for _ in 0..plan.windows {
        bench.clear_samples();
        let tally_before = bench.tally;
        let cpu_before = procfs::process_cpu();
        let spun_before = bench.spun_ns;
        let wall = run_for(&mut bench, &mut tr, plan.window).as_secs_f64();
        // The paced driver's busy-wait for its next tick is the load
        // generator's CPU, not the deployment's.
        let spun = Duration::from_nanos(bench.spun_ns - spun_before);
        let cpu = (procfs::process_cpu() - cpu_before)
            .saturating_sub(spun)
            .as_secs_f64();
        let good = bench.tally.since(&tally_before).good as f64;
        if good == 0.0 {
            return Err(format!(
                "no packet was delivered in a window: {:?}",
                bench.tally
            ));
        }
        samples[0].push(good / wall);
        samples[1].push(good * spec.payload as f64 * 8.0 / 1e6 / wall);
        samples[2].push(us(&bench.latencies_ns, 0.5));
        samples[3].push(cpu * 1e6 / good);
    }
    let mut summaries: Vec<WindowSummary> = samples.iter().map(|s| summarize_windows(s)).collect();
    let rss = procfs::peak_rss_mb();
    summaries.push(WindowSummary {
        median: rss,
        spread: 0.0,
        samples: vec![rss],
    });
    summaries.push(summarize_windows(&setup_times));
    assert_eq!(summaries.len(), END_TO_END.len(), "one summary per metric");

    let metrics = END_TO_END
        .iter()
        .zip(summaries)
        .map(|(m, s)| Metric {
            name: m.name,
            unit: m.unit,
            value: s.median,
            spread: Some(s.spread),
            samples: s.samples,
        })
        .collect();
    Ok(Outcome {
        correct: bench.tally.failed == 0,
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics,
        shadowed: Vec::new(),
    })
}

/// Monotonic counters read from the deployment's public stats.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    ecalls: u64,
    records_merged: u64,
    migrations: u64,
    steals: u64,
    frontend_datagrams: u64,
    frontend_wakeups: u64,
    frontend_io_calls: u64,
    frontend_deferred_rounds: u64,
    tx_sent: u64,
    tx_io_calls: u64,
    tx_partial_sends: u64,
    /// `[fresh allocations, reuses]` of the clients' ingress pools, summed.
    client_pool: [u64; 2],
    /// The same for the client links' egress pool.
    egress_pool: [u64; 2],
}

impl Counters {
    fn read(bench: &mut Bench) -> Counters {
        let egress = bench.s.egress_pool_stats();
        let mut c = Counters {
            records_merged: bench.s.server.rx_merge_counters().0,
            migrations: bench.s.server.migrations(),
            steals: bench.s.server.steals(),
            egress_pool: [egress.fresh_allocs, egress.reused],
            ..Counters::default()
        };
        if bench.doorway.uses_sockets() {
            let frontend = bench.s.async_stats();
            c.frontend_datagrams = frontend.datagrams;
            c.frontend_wakeups = frontend.wakeups;
            c.frontend_io_calls = frontend.io_calls;
            c.frontend_deferred_rounds = frontend.deferred_rounds;
            let tx = bench.s.tx_stats();
            c.tx_sent = tx.sent;
            c.tx_io_calls = tx.io_calls;
            c.tx_partial_sends = tx.partial_sends;
        }
        for client in &mut bench.s.clients {
            c.ecalls += client.enclave_app().transition_counters().ecalls;
            let pool = client.ingress_pool_stats();
            c.client_pool[0] += pool.fresh_allocs;
            c.client_pool[1] += pool.reused;
        }
        c
    }

    /// What was counted since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        let pool = |now: [u64; 2], then: [u64; 2]| [now[0] - then[0], now[1] - then[1]];
        Counters {
            ecalls: self.ecalls - earlier.ecalls,
            records_merged: self.records_merged - earlier.records_merged,
            migrations: self.migrations - earlier.migrations,
            steals: self.steals - earlier.steals,
            frontend_datagrams: self.frontend_datagrams - earlier.frontend_datagrams,
            frontend_wakeups: self.frontend_wakeups - earlier.frontend_wakeups,
            frontend_io_calls: self.frontend_io_calls - earlier.frontend_io_calls,
            frontend_deferred_rounds: self.frontend_deferred_rounds
                - earlier.frontend_deferred_rounds,
            tx_sent: self.tx_sent - earlier.tx_sent,
            tx_io_calls: self.tx_io_calls - earlier.tx_io_calls,
            tx_partial_sends: self.tx_partial_sends - earlier.tx_partial_sends,
            client_pool: pool(self.client_pool, earlier.client_pool),
            egress_pool: pool(self.egress_pool, earlier.egress_pool),
        }
    }
}

/// Share of a pool's hand-outs served from its free list.
fn reuse_fraction([fresh, reused]: [u64; 2]) -> f64 {
    ratio(reused, fresh + reused)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// One traced stretch of rounds through one doorway.
struct Pass {
    doorway: Doorway,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
    wall_ns: u64,
    tally: Tally,
    datagrams: u64,
    /// Counted during the pass.
    counted: Counters,
}

impl Pass {
    fn run(bench: &mut Bench, length: Duration) -> Pass {
        let mut tr = Tracer::new(TRACE_CAPACITY);
        bench.restart_schedule(&tr);
        let headroom = 8 + 6 * bench.spec.clients;
        let tally_before = bench.tally;
        let datagrams_before = bench.datagrams;
        let before = Counters::read(bench);
        tr.set_enabled(true);
        let start = tr.now_ns();
        while tr.now_ns() - start < length.as_nanos() as u64 && !tr.nearly_full(headroom) {
            bench.round(&mut tr);
        }
        let wall_ns = tr.now_ns() - start;
        let spans = tr.into_spans();
        Pass {
            doorway: bench.doorway,
            totals: trace::totals_by_name(&spans),
            spans,
            wall_ns,
            tally: bench.tally.since(&tally_before),
            datagrams: bench.datagrams - datagrams_before,
            counted: Counters::read(bench).since(&before),
        }
    }
}

fn attempted(pass: &Pass) -> u64 {
    pass.tally.attempted
}

fn good(pass: &Pass) -> u64 {
    pass.tally.good
}

fn datagrams(pass: &Pass) -> u64 {
    pass.datagrams
}

/// Allocator calls and bytes requested per attempted packet, counted over
/// `length` of untraced rounds. A pass of its own: the two shared
/// counters bounce between every thread's cache, which would distort the
/// spans if they ticked during the traced pass.
fn count_allocations(bench: &mut Bench, off: &mut Tracer, length: Duration) -> (f64, f64) {
    bench.restart_schedule(off);
    let attempted_before = bench.tally.attempted;
    let (calls_before, bytes_before) = alloc::counters();
    alloc::set_counting(true);
    run_for(bench, off, length);
    alloc::set_counting(false);
    let (calls, bytes) = alloc::counters();
    let attempted = bench.tally.attempted - attempted_before;
    (
        ratio(calls - calls_before, attempted),
        ratio(bytes - bytes_before, attempted),
    )
}

/// The first pass (the workload's own comes first) that recorded `span`,
/// and that span's time per `per(pass)`.
fn span_metric<'a>(passes: &'a [Pass], span: &str, per: fn(&Pass) -> u64) -> (f64, &'a Pass) {
    let (totals, pass) = passes
        .iter()
        .find_map(|p| p.totals.get(span).map(|t| (t, p)))
        .unwrap_or_else(|| panic!("no pass recorded a `{span}` span"));
    (totals.total_ns as f64 / per(pass).max(1) as f64, pass)
}

/// The traced run: per-layer metrics from spans, counts and replays.
pub fn per_layer(
    spec: &'static Spec,
    seed: u64,
    plan: &Plan,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(0);
    let (mut bench, mut reference) = set_up(spec, spec.doorway, seed, &mut off)?;

    bench.restart_schedule(&off);
    run_for(&mut bench, &mut off, plan.warmup);

    // Untraced reference window, then the traced pass.
    bench.clear_samples();
    let tally_before = bench.tally;
    let wall = run_for(&mut bench, &mut off, plan.traced_reference).as_secs_f64();
    let untraced_pps = bench.tally.since(&tally_before).good as f64 / wall;
    let late_p99_us = us(&bench.late_ns, 0.99);
    let latency_p90_us = us(&bench.latencies_ns, 0.9);
    let latency_p99_us = us(&bench.latencies_ns, 0.99);

    let mut passes = vec![Pass::run(&mut bench, plan.traced)];
    let primary = &passes[0];
    let traced_pps = primary.tally.good as f64 / (primary.wall_ns as f64 / 1e9);
    trace::write_trace(trace_path, spec.name, &primary.spans)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let (allocations_per_pkt, allocated_bytes_per_pkt) =
        count_allocations(&mut bench, &mut off, plan.side);
    let mut tally = bench.tally;
    drop(bench);

    // Shadow passes: the same traffic through the doorways the workload
    // does not use, for the spans and counters only they have.
    for doorway in [Doorway::Call, Doorway::SocketEcho] {
        if doorway == spec.doorway {
            continue;
        }
        let mut shadow =
            Bench::build(spec, doorway, seed).map_err(|e| format!("shadow set-up: {e}"))?;
        run_for(&mut shadow, &mut off, plan.side / 4);
        passes.push(Pass::run(&mut shadow, plan.side));
        tally.attempted += shadow.tally.attempted;
        tally.good += shadow.tally.good;
        tally.failed += shadow.tally.failed;
    }

    // The inline single-threaded server on the same records.
    let deadline = Instant::now() + plan.side;
    reference.receive_ns = 0;
    reference.delivered = 0;
    while Instant::now() < deadline {
        reference.round().map_err(|e| format!("reference: {e}"))?;
    }
    let reference_ns_per_pkt = ratio(reference.receive_ns, reference.delivered);
    drop(reference);

    let replays = layers::replay_all(spec, seed, plan.replay);
    let replay = |name: &str| {
        replays
            .iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("no replay produced {name}"))
            .1
    };

    let primary = &passes[0];
    // Each arm yields the value and the doorway of the pass it came from
    // (the workload's own doorway for replays and derived values).
    let own = |v: f64| (v, spec.doorway);
    let from = |span: &str, per: fn(&Pass) -> u64| {
        let (v, pass) = span_metric(&passes, span, per);
        (v, pass.doorway)
    };
    let counted = |pass: Option<&Pass>, f: &dyn Fn(&Counters) -> f64| {
        let pass = pass.expect("a pass through that doorway ran");
        (f(&pass.counted), pass.doorway)
    };
    let per_kpkt = |count: u64| 1e3 * ratio(count, primary.tally.attempted);
    let socket = passes.iter().find(|p| p.doorway.uses_sockets());
    let echo = passes.iter().find(|p| p.doorway == Doorway::SocketEcho);
    let value = |name: &str| -> (f64, Doorway) {
        match name {
            "gen.build_ns_per_pkt" => from("gen.build", attempted),
            "verify.ns_per_pkt" => from("verify", attempted),
            "client.send_batch_ns_per_pkt" => from("client.send_batch", attempted),
            "server.receive_ns_per_pkt" => from("server.receive", good),
            "wire.forward_ns_per_dgram" => from("wire.forward", datagrams),
            "frontend.pump_ns_per_dgram" => from("frontend.pump", datagrams),
            "server.egress_ns_per_pkt" => from("server.egress", good),
            "client.receive_ns_per_pkt" => from("client.receive", good),
            "client.ecalls_per_pkt" => own(ratio(primary.counted.ecalls, primary.tally.attempted)),
            "client.residual_ns_per_pkt" => own(from("client.send_batch", attempted).0
                - replay("click.process_batch_ns_per_pkt")
                - replay("vpn.seal_batch_ns_per_pkt")
                - replay("vpn.fragment_ns_per_pkt")),
            "server.reference_receive_ns_per_pkt" => own(reference_ns_per_pkt),
            "server.pipeline_speedup" => {
                let (sharded, doorway) = from("server.receive", good);
                (reference_ns_per_pkt / sharded, doorway)
            }
            "dispatch.migrations_per_kpkt" => own(per_kpkt(primary.counted.migrations)),
            "dispatch.steals_per_kpkt" => own(per_kpkt(primary.counted.steals)),
            "rx.records_merged" => own(per_kpkt(primary.counted.records_merged)),
            "frontend.datagrams_per_wakeup" => {
                counted(socket, &|c| ratio(c.frontend_datagrams, c.frontend_wakeups))
            }
            "frontend.datagrams_per_io_call" => counted(socket, &|c| {
                ratio(c.frontend_datagrams, c.frontend_io_calls)
            }),
            "frontend.deferred_rounds" => counted(socket, &|c| c.frontend_deferred_rounds as f64),
            "tx.datagrams_per_io_call" => counted(echo, &|c| ratio(c.tx_sent, c.tx_io_calls)),
            "tx.partial_sends" => counted(echo, &|c| c.tx_partial_sends as f64),
            "alloc.count_per_pkt" => own(allocations_per_pkt),
            "alloc.bytes_per_pkt" => own(allocated_bytes_per_pkt),
            "client.pool_reuse_fraction" => counted(echo, &|c| reuse_fraction(c.client_pool)),
            "egress.pool_reuse_fraction" => counted(echo, &|c| reuse_fraction(c.egress_pool)),
            "gen.late_p99_us" => own(late_p99_us),
            "tail.record_latency_p90_us" => own(latency_p90_us),
            "tail.record_latency_p99_us" => own(latency_p99_us),
            "trace.unattributed_share" => {
                // Every layer span is a direct child of a `round`.
                let round = primary.totals["round"];
                own(1.0 - (round.total_ns - round.self_ns) as f64 / primary.wall_ns as f64)
            }
            "trace.overhead_share" => own(1.0 - traced_pps / untraced_pps),
            replayed => own(replay(replayed)),
        }
    };
    let mut shadowed = Vec::new();
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, doorway) = value(name);
            if doorway != spec.doorway {
                shadowed.push(name);
            }
            Metric {
                name,
                unit,
                value,
                spread: None,
                samples: Vec::new(),
            }
        })
        .collect();

    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        shadowed,
    })
}

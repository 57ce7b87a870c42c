//! Evaluation harness: deployments, per-packet charge measurement on the
//! real code paths, and runners regenerating every table and figure of
//! §V. The `endbox-bench` crate's `exp` driver prints these results in
//! the paper's format and writes the [`ARTIFACTS`].

pub mod deploy;
pub mod latency;
pub mod nf_catalogue;
pub mod optimizations;
pub mod reconfig;
pub mod scalability;
pub mod table;
pub mod throughput;

pub use deploy::{measure, Deployment, MeasureSpec};
pub use table::{Claim, Ratio, Table};

/// A committed artifact: `(stem, builder)` — `BENCH_<stem>.json` is
/// exactly `builder().to_json()`.
pub type Artifact = (&'static str, fn() -> Table);

/// Every committed artifact. The runs are deterministic, so the
/// committed files regenerate byte-identical (pinned by
/// `tests/bench_golden.rs`).
pub const ARTIFACTS: [Artifact; 8] = [
    ("fig10", scalability::fig10_sharded),
    ("heavytail", scalability::heavy_tail),
    ("rx", scalability::rx_scaling),
    ("async", scalability::async_ingress),
    ("wire", scalability::syscall_batch),
    ("adaptive", scalability::adaptive_control),
    ("elastic", scalability::elastic_resize),
    ("nf", nf_catalogue::nf_catalogue),
];

/// `gbps` of the `by == num` row over the `by ∈ den` rows.
const fn gbps(
    by: &'static str,
    num: &'static str,
    den: &'static [&'static str],
    den_best: bool,
) -> Ratio {
    Ratio::Rows {
        column: "gbps",
        by,
        num,
        den,
        den_best,
    }
}

/// A claim about the saturated end of a client-count sweep.
const fn at_peak(artifact: &'static str, what: &'static str, ratio: Ratio, floor: f64) -> Claim {
    Claim {
        artifact,
        what,
        keys: &["clients"],
        at_peak: true,
        ratio,
        floor,
    }
}

const FIXED_RUNGS: &[&str] = &[
    scalability::ELASTIC_LADDER[0].0,
    scalability::ELASTIC_LADDER[1].0,
    scalability::ELASTIC_LADDER[2].0,
];

/// The headline claims — the only place their thresholds are written.
/// `exp check` and `tests/bench_golden.rs` evaluate every row on the
/// regenerated tables; `docs/architecture.md` §7 lists the same rows.
pub const CLAIMS: [Claim; 10] = [
    at_peak(
        "fig10",
        "4 worker shards over 1 at 60 clients (batched EndBox-SGX)",
        gbps("workers", "4", &["1"], true),
        2.0,
    ),
    at_peak(
        "heavytail",
        "load-aware over static dispatch under the Zipf mix at 60 clients",
        gbps("policy", "load-aware", &["static"], true),
        1.3,
    ),
    at_peak(
        "rx",
        "K=4 RX shards over K=1 at 120 peers (small records)",
        gbps("rx_shards", "4", &["1"], true),
        1.3,
    ),
    at_peak(
        "async",
        "event-driven over call-driven front-end at 120 peers (small records)",
        gbps("mode", "event-driven", &["call-driven"], true),
        1.3,
    ),
    at_peak(
        "wire",
        "bulk-32 `recv_many` over per-datagram receives at 120 peers (small records)",
        gbps("bulk", "32", &["1"], true),
        1.5,
    ),
    Claim {
        artifact: "adaptive",
        what: "controller over modelled fixed RX homing, every step of both traces",
        keys: &["trace", "step"],
        at_peak: false,
        ratio: gbps("config", "controller", &[scalability::FIXED_HOMING], true),
        floor: 0.95,
    },
    Claim {
        artifact: "adaptive",
        what: "controller over modelled fixed RX homing at each trace's peak",
        keys: &["trace", "step"],
        at_peak: true,
        ratio: gbps("config", "controller", &[scalability::FIXED_HOMING], true),
        floor: 1.2,
    },
    Claim {
        artifact: "elastic",
        what: "elastic resize over the best fixed (K, N) rung, every diurnal step",
        keys: &["step"],
        at_peak: false,
        ratio: gbps("config", "elastic", FIXED_RUNGS, true),
        floor: 0.9,
    },
    Claim {
        artifact: "elastic",
        what: "elastic resize over the smallest fixed rung at the diurnal peak",
        keys: &["step"],
        at_peak: true,
        ratio: gbps("config", "elastic", &["fixed-small"], true),
        floor: 1.3,
    },
    Claim {
        artifact: "nf",
        what: "batch-16 over per-packet ecalls through the stateful NF chain, every mix",
        keys: &["mix"],
        at_peak: false,
        ratio: Ratio::Columns {
            num: "batched_mbps",
            den: "single_mbps",
        },
        floor: 1.3,
    },
];

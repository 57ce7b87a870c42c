//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root repeats this table (a unit
//! test keeps the two in step); the README says what each one measures.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: something a user of the deployment would see.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

/// Every workload reports every one of these; `failed_share` is carried
/// by the `failed`/`attempted` counts beside them, and any increase of it
/// is a regression.
///
/// The bounds are sized against the box the benchmark was defined on, not
/// against the code: on that shared 2-vCPU VM the ten-second median of a
/// single-threaded arithmetic loop drifts by 5-10% over minutes, and every
/// timed metric here inherits the drift (the README has the ten-seed
/// spreads the bounds were chosen from).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_pps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "Mbit/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "record_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_pkt",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. No bound — they explain
/// end-to-end movements, they are not judged themselves.
pub const PER_LAYER: [(&str, &str, Better); 44] = [
    ("gen.build_ns_per_pkt", "ns/pkt", Better::Lower),
    ("verify.ns_per_pkt", "ns/pkt", Better::Lower),
    ("client.send_batch_ns_per_pkt", "ns/pkt", Better::Lower),
    ("server.receive_ns_per_pkt", "ns/pkt", Better::Lower),
    ("wire.forward_ns_per_dgram", "ns/dgram", Better::Lower),
    ("frontend.pump_ns_per_dgram", "ns/dgram", Better::Lower),
    ("server.egress_ns_per_pkt", "ns/pkt", Better::Lower),
    ("client.receive_ns_per_pkt", "ns/pkt", Better::Lower),
    ("crypto.aes_cbc_encrypt_ns_per_byte", "ns/B", Better::Lower),
    ("crypto.aes_cbc_decrypt_ns_per_byte", "ns/B", Better::Lower),
    ("crypto.hmac_sha256_ns_per_byte", "ns/B", Better::Lower),
    ("vpn.seal_batch_ns_per_pkt", "ns/pkt", Better::Lower),
    ("vpn.open_batch_ns_per_pkt", "ns/pkt", Better::Lower),
    ("vpn.fragment_ns_per_pkt", "ns/pkt", Better::Lower),
    ("vpn.reassemble_ns_per_pkt", "ns/pkt", Better::Lower),
    ("vpn.materialize_ns_per_pkt", "ns/pkt", Better::Lower),
    ("vpn.fragments_per_record", "count", Better::Lower),
    ("click.process_batch_ns_per_pkt", "ns/pkt", Better::Lower),
    ("snort.scan_ns_per_pkt", "ns/pkt", Better::Lower),
    ("sgx.ecall_ns_per_call", "ns/call", Better::Lower),
    ("client.ecalls_per_pkt", "1/pkt", Better::Lower),
    ("client.residual_ns_per_pkt", "ns/pkt", Better::Lower),
    (
        "server.reference_receive_ns_per_pkt",
        "ns/pkt",
        Better::Lower,
    ),
    ("server.pipeline_speedup", "ratio", Better::Higher),
    ("dispatch.migrations_per_kpkt", "1/kpkt", Better::Lower),
    ("dispatch.steals_per_kpkt", "1/kpkt", Better::Lower),
    ("rx.records_merged", "1/kpkt", Better::Lower),
    ("net.send_many_ns_per_dgram", "ns/dgram", Better::Lower),
    ("net.recv_many_ns_per_dgram", "ns/dgram", Better::Lower),
    ("net.poll_ns_per_wakeup", "ns/wakeup", Better::Lower),
    ("frontend.datagrams_per_wakeup", "ratio", Better::Higher),
    ("frontend.datagrams_per_io_call", "ratio", Better::Higher),
    ("frontend.deferred_rounds", "count", Better::Lower),
    ("tx.datagrams_per_io_call", "ratio", Better::Higher),
    ("tx.partial_sends", "count", Better::Lower),
    ("alloc.count_per_pkt", "1/pkt", Better::Lower),
    ("alloc.bytes_per_pkt", "B/pkt", Better::Lower),
    ("client.pool_reuse_fraction", "ratio", Better::Higher),
    ("egress.pool_reuse_fraction", "ratio", Better::Higher),
    ("gen.late_p99_us", "us", Better::Lower),
    ("tail.record_latency_p90_us", "us", Better::Lower),
    ("tail.record_latency_p99_us", "us", Better::Lower),
    ("trace.unattributed_share", "share", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::SPECS;

    fn as_str(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn strings(doc: &Value, list: &str, key: &str) -> Vec<String> {
        let Some(Value::Arr(items)) = doc.get(list) else {
            panic!("{list} is an array");
        };
        items
            .iter()
            .map(|item| match item.get(key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{list}[].{key} is a string, got {other:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must not drift apart.
    #[test]
    fn benchmark_json_repeats_this_catalogue() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();

        let workloads: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(strings(&doc, "workloads", "name"), workloads);
        let whys: Vec<String> = SPECS
            .iter()
            .map(|s| s.why.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(strings(&doc, "workloads", "why"), whys);

        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(strings(&doc, "end_to_end", "name"), names);
        let units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        assert_eq!(strings(&doc, "end_to_end", "unit"), units);
        let better: Vec<&str> = END_TO_END.iter().map(|m| as_str(m.better)).collect();
        assert_eq!(strings(&doc, "end_to_end", "better"), better);
        let Some(Value::Arr(items)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, metric) in items.iter().zip(&END_TO_END) {
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(metric.bound)
            );
        }

        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(strings(&doc, "per_layer", "name"), names);
        let units: Vec<&str> = PER_LAYER.iter().map(|m| m.1).collect();
        assert_eq!(strings(&doc, "per_layer", "unit"), units);
        let better: Vec<&str> = PER_LAYER.iter().map(|m| as_str(m.2)).collect();
        assert_eq!(strings(&doc, "per_layer", "better"), better);
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(SPECS.iter().map(|s| (s.name, "count")))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }
}

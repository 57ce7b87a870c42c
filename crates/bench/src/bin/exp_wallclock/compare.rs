//! `exp_wallclock compare A.json B.json`: applies the catalogue's bounds
//! to two `result.json` files, A the baseline and B the candidate.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// Verdict for one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The windows of one of the runs spread wider than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate `b` against baseline `a`; `spread` is the wider of
/// the two runs' window spreads.
pub fn judge(metric: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > metric.bound {
        return Verdict::Unresolved;
    }
    let worsening = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `failed / attempted` of one workload; any increase is a regression.
fn failed_share(workload: &Value) -> Option<f64> {
    let e2e = workload.get("end_to_end")?;
    let failed = e2e.get("failed")?.as_f64()?;
    let attempted = e2e.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per workload × metric. `Ok(true)` means no pairing was
/// `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads_a = a.get("workloads").ok_or("A has no `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B has no `workloads`")?;
    let mut clean = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "spread"
    );
    for (workload, wa) in workloads_a.members() {
        let wb = workloads_b
            .get(workload)
            .ok_or_else(|| format!("B has no workload `{workload}`"))?;
        let field = |w: &Value, metric: &str, key: &str| -> Result<f64, String> {
            w.get("end_to_end")
                .and_then(|e| e.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(key))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("`{workload}` lacks {metric}.{key}"))
        };
        for metric in &END_TO_END {
            let (va, vb) = (
                field(wa, metric.name, "value")?,
                field(wb, metric.name, "value")?,
            );
            let spread = field(wa, metric.name, "spread")?.max(field(wb, metric.name, "spread")?);
            let verdict = judge(metric, va, vb, spread);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}%  {}",
                workload,
                metric.name,
                va,
                vb,
                (vb - va) / va * 100.0,
                spread * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (
            failed_share(wa).ok_or_else(|| format!("A `{workload}` lacks failure counts"))?,
            failed_share(wb).ok_or_else(|| format!("B `{workload}` lacks failure counts"))?,
        );
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        clean &= verdict != Verdict::Worse;
        println!(
            "{:<16} {:<24} {:>14.6} {:>14.6} {:>8} {:>8}  {}",
            workload,
            "failed_share",
            fa,
            fb,
            "",
            "",
            verdict.as_str()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPS: EndToEnd = EndToEnd {
        name: "pps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
    };
    const P50: EndToEnd = EndToEnd {
        name: "p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&PPS, 1000.0, 1000.0, 0.01), Verdict::Same);
        assert_eq!(judge(&PPS, 1000.0, 930.0, 0.01), Verdict::Same);
        assert_eq!(judge(&PPS, 1000.0, 900.0, 0.01), Verdict::Worse);
        assert_eq!(judge(&PPS, 1000.0, 1100.0, 0.01), Verdict::Better);
        assert_eq!(judge(&P50, 200.0, 225.0, 0.02), Verdict::Worse);
        assert_eq!(judge(&P50, 200.0, 175.0, 0.02), Verdict::Better);
        assert_eq!(judge(&P50, 200.0, 215.0, 0.02), Verdict::Same);
    }

    #[test]
    fn a_wide_spread_leaves_the_pairing_unresolved() {
        assert_eq!(judge(&PPS, 1000.0, 500.0, 0.09), Verdict::Unresolved);
        assert_eq!(judge(&PPS, 1000.0, 1000.0, 0.5), Verdict::Unresolved);
    }
}

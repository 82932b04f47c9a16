//! `tcms_benchmark compare PARENT.json CHANGE.json`: one row per
//! (workload, end-to-end metric), judged against the bound that
//! `BENCHMARK.json` fixes for the metric.

use std::collections::BTreeMap;

use tcms_obs::json::{self, JsonValue};

use crate::stats::{median, relative_spread};

/// How a metric moved from the parent to the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the parent's own spread.
    Better,
    /// Neither better nor worse by more than the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The parent's own quartile spread is wider than the bound, so a
    /// regression of bound size could not be seen.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from each side's run values.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let spread = relative_spread(parent).unwrap_or(0.0);
    // Signed relative change, positive when the change is worse.
    let base = if pm == 0.0 { 1.0 } else { pm.abs() };
    let worse_by = (if higher_is_better { pm - cm } else { cm - pm }) / base;
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && all_better {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Bound and direction of each end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without bound")?;
            let higher = m.get("better").and_then(JsonValue::as_str) == Some("higher");
            Ok((name.to_owned(), (bound, higher)))
        })
        .collect()
}

/// Per workload and metric, the values across runs of a report file.
fn values(report: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let doc = json::parse(report)?;
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_object)
        .ok_or("not a tcms_benchmark report (no workloads)")?;
    let mut out = BTreeMap::new();
    for (w, body) in workloads {
        let Some(metrics) = body.get("metrics").and_then(JsonValue::as_object) else {
            continue;
        };
        for (m, summary) in metrics {
            let vs: Vec<f64> = summary
                .get("values")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect();
            out.insert((w.clone(), m.clone()), vs);
        }
    }
    Ok(out)
}

/// Runs the subcommand; returns whether any metric got worse.
///
/// # Errors
///
/// Reports unreadable or malformed files.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds_path = it.next().ok_or("--bounds needs a file")?.clone(),
            _ => files.push(a.clone()),
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err("usage: tcms_benchmark compare PARENT.json CHANGE.json [--bounds FILE]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = bounds(&read(&bounds_path)?)?;
    let (pv, cv) = (values(&read(parent)?)?, values(&read(change)?)?);
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "bound"
    );
    let mut any_worse = false;
    for ((w, m), p) in &pv {
        let (Some(&(bound, higher)), Some(c)) = (bounds.get(m), cv.get(&(w.clone(), m.clone())))
        else {
            continue;
        };
        let v = verdict(p, c, bound, higher);
        any_worse |= v == Verdict::Worse;
        let (pm, cm) = (median(p).unwrap_or(0.0), median(c).unwrap_or(0.0));
        let delta = if pm == 0.0 {
            0.0
        } else {
            100.0 * (cm - pm) / pm.abs()
        };
        println!(
            "{w:<12} {m:<18} {pm:>14.4} {cm:>14.4} {delta:>8.2}% {:>8.2}% {:>6.1}%  {}",
            100.0 * relative_spread(p).unwrap_or(0.0),
            100.0 * bound,
            v.as_str()
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +20% is worse than a 10% bound.
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0], 0.10, false),
            Verdict::Worse
        );
        // +5% is within the bound.
        assert_eq!(
            verdict(&parent, &[105.0, 104.0, 106.0], 0.10, false),
            Verdict::Same
        );
        // -20% everywhere is better.
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0], 0.10, false),
            Verdict::Better
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0], 0.10, true),
            Verdict::Worse
        );
        // A parent spread wider than the bound leaves a small move
        // unresolved.
        let noisy = [50.0, 100.0, 150.0, 100.0];
        assert_eq!(verdict(&noisy, &[110.0], 0.10, false), Verdict::Unresolved);
        // … unless every change run beats every parent run.
        assert_eq!(verdict(&noisy, &[10.0, 12.0], 0.10, false), Verdict::Better);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let b = bounds(
            r#"{"end_to_end":[{"name":"op_ms_p50_ref","unit":"ms","better":"lower","bound":0.1},
                {"name":"throughput_ops_s","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        assert_eq!(b["op_ms_p50_ref"], (0.1, false));
        assert_eq!(b["throughput_ops_s"], (0.2, true));
    }
}

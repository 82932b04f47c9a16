//! The one-shot workloads, `table1` and `synth_scale`: passes of
//! `schedule_request` calls without a cache, as `tcms schedule` runs
//! them. One operation is one pass over the workload's requests.

use std::time::Instant;

use tcms_core::{check_execution, compute_report, random_activations};
use tcms_ir::canon::fnv64;
use tcms_obs::TraceRecorder;
use tcms_serve::pipeline::build_spec;
use tcms_serve::{schedule_request, ExecContext, ScheduleArtifacts, ServeError};

use crate::inputs::{self, OneShotInputs, OneShotRequest};
use crate::layers::{self, CacheCounts, StageTimes};
use crate::report::{self, Metric, RunReport};
use crate::speed::Probe;
use crate::stats::Tally;
use crate::{end_to_end, golden, op_metrics, overhead_pct, Settings};

/// Table 1 of the paper: total areas of the global and local runs.
const TABLE1_AREAS: [(&str, u64); 2] = [("global", 14), ("local", 27)];

/// Set-ups per run; each includes a warm-up pass.
const SETUPS: usize = 3;

/// Activation patterns per schedule for the conflict-freedom check.
const EXECUTION_CHECKS: u64 = 4;

/// Runs one one-shot workload.
///
/// # Errors
///
/// Fails when the generated inputs differ from the pinned digest.
pub fn run(
    workload: &str,
    make: fn(u64) -> OneShotInputs,
    s: &Settings,
) -> Result<RunReport, String> {
    // The timed phase probes the machine's speed after every pass.
    let mut speed_probe = Probe::new();
    // Set-up, repeated so its median is steady: generate and pin the
    // inputs, then one untimed warm-up pass. Its answers are the ones
    // the oracle checks and every timed pass must repeat byte for byte.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..s.setup_repeats(SETUPS) {
        let t = Instant::now();
        let inputs = make(s.seed);
        let digest = inputs.digest();
        inputs::check_pinned(workload, s.seed, digest)?;
        let warm = warm_up(&inputs.requests);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((inputs, digest, warm));
    }
    let (mut inputs, digest, warm) = prepared.expect("at least one set-up");
    let requests = inputs.requests.clone();
    let mut errors = Vec::new();
    let reference: Vec<Option<&str>> = requests
        .iter()
        .zip(&warm)
        .map(|(r, w)| match w {
            Ok(a) => Some(a.text.as_str()),
            Err(e) => {
                errors.push(format!("{}: warm-up failed: {e}", r.label));
                None
            }
        })
        .collect();

    // The timed phase. Traced runs alternate plain and decomposed passes
    // so both see the same machine state.
    let rec = TraceRecorder::new();
    let mut tally = Tally::default();
    let mut plain_us = Vec::new();
    let mut traced: Vec<StageTimes> = Vec::new();
    let mut primed = Vec::new();
    let mut answered = vec![0u64; requests.len()];
    let mut check = |i: usize, text: Option<&str>| {
        tally.record(1, text.is_some() && text == reference[i]);
        answered[i] += 1;
    };
    let timed = Instant::now();
    let mut pass = 0u64;
    while pass < s.min_ops() || timed.elapsed() < s.seconds {
        let order = inputs.next_order();
        if s.trace && pass % 2 == 1 {
            let (times, out) = layers::decomposed_pass(&requests, &order, &rec, pass);
            traced.push(times);
            for (i, d) in out.iter().enumerate() {
                check(i, d.as_ref().ok().map(|d| d.text.as_str()));
            }
            if primed.is_empty() {
                primed = out
                    .iter()
                    .flatten()
                    .map(layers::Decomposed::cacheable)
                    .collect();
            }
        } else {
            let (wall, out) = layers::plain_pass(&requests, &order);
            plain_us.push(wall);
            for (i, text) in out.iter().enumerate() {
                check(i, text.as_ref().ok().map(String::as_str));
            }
        }
        speed_probe.sample(1);
        pass += 1;
    }
    let vm_hwm_mb = report::vm_hwm_mb();

    // The oracle, outside the timed region. A request whose reference
    // answer is wrong fails every time it was answered.
    let checked = oracle(workload, &requests, &warm, s.seed, &mut errors);
    for (i, (_, ok)) in checked.iter().enumerate() {
        if !ok {
            tally.fail(answered[i]);
        }
    }
    let total_area: u64 = checked.iter().map(|c| c.0).sum();
    let pass_ms: Vec<f64> = plain_us.iter().map(|us| us / 1e3).collect();
    // The rate of plain passes over the time they took: probes and
    // decomposed passes are not what users run.
    let busy_s = plain_us.iter().sum::<f64>() / 1e6;
    let [rate, tail, percentile] = op_metrics(&pass_ms, pass_ms.len() as u64, busy_s);

    let (metrics, extras) = if s.trace {
        let want: Vec<String> = reference
            .iter()
            .map(|r| r.unwrap_or("").to_owned())
            .collect();
        let hits =
            layers::hit_path(&requests, &primed, &want, s.hit_reps(), &rec).unwrap_or_else(|e| {
                errors.push(e);
                layers::HitTimes::default()
            });
        let traced_us: Vec<f64> = traced.iter().map(|t| t.wall).collect();
        let cache = CacheCounts {
            hits: hits.hits,
            misses: hits.misses,
            coalesced: 0,
            scheduler_runs: requests.len() as u64,
        };
        let mut metrics = layers::layer_metrics(
            &plain_us,
            &traced,
            &hits,
            cache,
            overhead_pct(&traced_us, &plain_us),
        );
        let mut extras = per_request_extras(&requests, &traced);
        extras.push(layers::parallel_evals(&traced));
        metrics.extend([rate, tail]);
        extras.push(percentile);
        s.write_trace(workload, "main", rec.finish());
        (metrics, extras)
    } else {
        let (metrics, raw) = end_to_end(&setup_s, &pass_ms, &speed_probe, total_area, vm_hwm_mb);
        let mut extras = raw.to_vec();
        extras.extend([rate, tail, percentile]);
        (metrics, extras)
    };
    Ok(RunReport {
        workload: workload.to_owned(),
        tally,
        errors,
        metrics,
        extras,
        inputs_digest: digest,
    })
}

fn warm_up(requests: &[OneShotRequest]) -> Vec<Result<ScheduleArtifacts, ServeError>> {
    requests
        .iter()
        .map(|r| {
            schedule_request(
                &r.design,
                &layers::options(r.all_global),
                &ExecContext::default(),
            )
        })
        .collect()
}

/// Checks the warm-up answers: report bytes against the golden digests,
/// Table 1's areas, and conflict-freedom of each schedule under seeded
/// random activations (the paper's verifier, independent of the
/// scheduler). Returns each request's total area and whether it passed.
fn oracle(
    workload: &str,
    requests: &[OneShotRequest],
    warm: &[Result<ScheduleArtifacts, ServeError>],
    seed: u64,
    errors: &mut Vec<String>,
) -> Vec<(u64, bool)> {
    requests
        .iter()
        .zip(warm)
        .map(|(r, w)| {
            let Ok(a) = w else { return (0, false) };
            let mut ok = true;
            if let Err(e) = golden::check(workload, &r.label, fnv64(a.text.as_bytes())) {
                errors.push(e);
                ok = false;
            }
            let (area, executed) = execution_check(a, r.all_global, seed, &r.label, errors);
            ok &= executed;
            if workload == "table1" {
                let want = TABLE1_AREAS
                    .iter()
                    .find(|(l, _)| *l == r.label)
                    .map(|p| p.1);
                if want != Some(area) {
                    errors.push(format!(
                        "table1 {}: area {area}, paper says {want:?}",
                        r.label
                    ));
                    ok = false;
                }
            }
            (area, ok)
        })
        .collect()
}

/// Re-checks one schedule with `check_execution` on seeded random
/// activations. Returns its total area and whether every check passed.
pub fn execution_check(
    a: &ScheduleArtifacts,
    all_global: Option<u32>,
    seed: u64,
    label: &str,
    errors: &mut Vec<String>,
) -> (u64, bool) {
    let spec = match build_spec(&a.system, all_global, &[]) {
        Ok(spec) => spec,
        Err(e) => {
            errors.push(format!("{label}: {e}"));
            return (0, false);
        }
    };
    let report = compute_report(&a.system, &spec, &a.schedule);
    let mut ok = true;
    for k in 0..EXECUTION_CHECKS {
        let acts = random_activations(&a.system, &spec, &a.schedule, 3, seed * 1000 + k);
        if let Err(e) = check_execution(&a.system, &spec, &a.schedule, &report, &acts) {
            errors.push(format!("{label}: execution check {k}: {e}"));
            ok = false;
        }
    }
    (report.total_area(), ok)
}

/// Engine counters per request of the first decomposed pass: Table 1's
/// global and local specs use the force cache very differently.
fn per_request_extras(requests: &[OneShotRequest], traced: &[StageTimes]) -> Vec<Metric> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    requests
        .iter()
        .zip(&first.per_request)
        .flat_map(|(r, stats)| {
            #[allow(clippy::cast_precision_loss)]
            [
                Metric::new(
                    &format!("fds.{}.iterations", r.label),
                    "count",
                    stats.iterations as f64,
                    1,
                ),
                Metric::new(
                    &format!("fds.{}.force_cache_hit_rate", r.label),
                    "ratio",
                    stats.hit_rate(),
                    1,
                ),
            ]
        })
        .collect()
}

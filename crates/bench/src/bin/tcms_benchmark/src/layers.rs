//! The traced path: `schedule_request` replayed step by step.
//!
//! A *pass* runs a set of requests once. [`plain_pass`] calls the
//! pipeline as users do; [`decomposed_pass`] replays its cache-less,
//! monolithic branch one layer at a time — `load_system` →
//! `build_spec` → `ModuloScheduler::run` → `Schedule::verify` →
//! `render_schedule_report` — timing each call and recording a span
//! around it. [`hit_path`] does the same for the cached branch a warm
//! daemon request takes. Both must render the bytes the pipeline
//! renders; the caller checks that.

use std::time::Instant;

use tcms_core::{config_fingerprint_with, CacheableResult, ModuloScheduler};
use tcms_fds::{FdsConfig, IfdsStats, RunBudget};
use tcms_ir::canon::Canonicalization;
use tcms_obs::{span, TraceRecorder};
use tcms_serve::pipeline::{build_spec, load_system, render_schedule_report};
use tcms_serve::{
    schedule_request, CacheKey, Disposition, ExecContext, SchedCache, ScheduleOptions, ServeError,
};

use crate::inputs::OneShotRequest;
use crate::report::Metric;
use crate::stats::{median, stage_residual_pct};

/// The scheduler configuration `schedule_request` uses with the default
/// execution context.
fn config() -> FdsConfig {
    FdsConfig {
        budget: RunBudget::UNLIMITED,
        ..FdsConfig::default()
    }
}

/// Schedule options of a request.
pub fn options(all_global: Option<u32>) -> ScheduleOptions {
    ScheduleOptions {
        all_global,
        ..ScheduleOptions::default()
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Runs `f` inside a span named `name`, adding its wall time to `acc`.
fn stage<T>(rec: &TraceRecorder, acc: &mut f64, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span!(rec, name);
    let start = Instant::now();
    let out = f();
    *acc += micros(start);
    out
}

/// One pass through the real pipeline (no cache, `NoopRecorder`):
/// its wall time in µs and each request's report, by request index.
pub fn plain_pass(
    requests: &[OneShotRequest],
    order: &[usize],
) -> (f64, Vec<Result<String, ServeError>>) {
    let mut out: Vec<Result<String, ServeError>> = Vec::with_capacity(requests.len());
    out.resize_with(requests.len(), || Err(ServeError::Internal(String::new())));
    let start = Instant::now();
    for &i in order {
        let r = &requests[i];
        out[i] = schedule_request(&r.design, &options(r.all_global), &ExecContext::default())
            .map(|a| a.text);
    }
    (micros(start), out)
}

/// Self times of one decomposed pass, in µs, plus the engine counters.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    /// Wall time of the whole traced pass.
    pub wall: f64,
    /// `load_system`.
    pub parse: f64,
    /// `build_spec`.
    pub spec: f64,
    /// `ModuloScheduler::new(..).with_config(..).run()` (S3).
    pub s3: f64,
    /// `Schedule::verify`.
    pub verify: f64,
    /// `render_schedule_report`.
    pub render: f64,
    /// Engine counters summed over the pass.
    pub ifds: IfdsStats,
    /// Engine counters of each request, by request index.
    pub per_request: Vec<IfdsStats>,
}

impl StageTimes {
    /// The sum of the stage self times.
    pub fn stage_sum(&self) -> f64 {
        self.parse + self.spec + self.s3 + self.verify + self.render
    }
}

/// One request's result of the decomposed path.
#[derive(Debug)]
pub struct Decomposed {
    /// The rendered report.
    pub text: String,
    /// The loaded design.
    pub system: tcms_ir::System,
    /// The finished schedule.
    pub schedule: tcms_fds::Schedule,
    /// Frame-reduction iterations of the run.
    pub iterations: u64,
}

impl Decomposed {
    /// The result in canonical form, as the cache stores it.
    pub fn cacheable(&self) -> CacheableResult {
        CacheableResult::capture(
            &Canonicalization::of(&self.system),
            &self.schedule,
            self.iterations,
        )
    }
}

/// One pass replayed layer by layer, with a span per layer call.
pub fn decomposed_pass(
    requests: &[OneShotRequest],
    order: &[usize],
    rec: &TraceRecorder,
    pass: u64,
) -> (StageTimes, Vec<Result<Decomposed, ServeError>>) {
    let mut t = StageTimes {
        per_request: vec![IfdsStats::default(); requests.len()],
        ..StageTimes::default()
    };
    let mut out: Vec<Result<Decomposed, ServeError>> = Vec::with_capacity(requests.len());
    out.resize_with(requests.len(), || Err(ServeError::Internal(String::new())));
    let start = Instant::now();
    {
        let _pass = span!(rec, "bench.pass", pass = pass);
        for &i in order {
            let _request = span!(rec, "bench.request", pass = pass, request = i as u64);
            out[i] = decompose(&requests[i], rec, &mut t).map(|(d, stats)| {
                t.ifds.absorb(&stats);
                t.per_request[i] = stats;
                d
            });
        }
    }
    t.wall = micros(start);
    (t, out)
}

fn decompose(
    r: &OneShotRequest,
    rec: &TraceRecorder,
    t: &mut StageTimes,
) -> Result<(Decomposed, IfdsStats), ServeError> {
    let system = stage(rec, &mut t.parse, "ir.parse", || load_system(&r.design))?;
    let spec = stage(rec, &mut t.spec, "core.spec", || {
        build_spec(&system, r.all_global, &[])
    })?;
    let outcome = stage(rec, &mut t.s3, "core.s3", || {
        ModuloScheduler::new(&system, spec.clone())
            .map_err(ServeError::from)?
            .with_config(config())
            .run()
            .map_err(ServeError::from)
    })?;
    stage(rec, &mut t.verify, "core.verify", || {
        outcome.schedule.verify(&system)
    })
    .map_err(|e| ServeError::Verify(e.to_string()))?;
    let text = stage(rec, &mut t.render, "serve.render", || {
        render_schedule_report(
            &system,
            &spec,
            &outcome.schedule,
            outcome.iterations,
            None,
            false,
            0,
        )
    })?;
    let (schedule, iterations, stats) = (outcome.schedule, outcome.iterations, outcome.stats);
    Ok((
        Decomposed {
            text,
            system,
            schedule,
            iterations,
        },
        stats,
    ))
}

/// Self times of the cached branch, in µs per pass (medians over the
/// repetitions), and the probe cache's counters.
#[derive(Debug, Clone, Default)]
pub struct HitTimes {
    /// `Canonicalization::of` plus `hash`.
    pub canon: f64,
    /// `config_fingerprint_with`.
    pub fingerprint: f64,
    /// `SchedCache::get_or_compute` answering from memory.
    pub lookup: f64,
    /// `CacheableResult::replay`.
    pub replay: f64,
    /// The whole hit path: parse, spec, canon, fingerprint, lookup,
    /// replay, verify and render.
    pub total: f64,
    /// Probe cache hits.
    pub hits: u64,
    /// Probe cache misses.
    pub misses: u64,
}

/// Replays the cached branch `reps` times over every request. The cache
/// is filled from `primed` (the decomposed results, no new scheduling)
/// first; every hit must render `want[i]`.
///
/// # Errors
///
/// Names the request whose hit path failed or rendered other bytes.
pub fn hit_path(
    requests: &[OneShotRequest],
    primed: &[CacheableResult],
    want: &[String],
    reps: usize,
    rec: &TraceRecorder,
) -> Result<HitTimes, String> {
    let cache = SchedCache::new(requests.len().max(1) * 2, 2);
    let config = config();
    let mut per_rep: Vec<[f64; 5]> = Vec::with_capacity(reps);
    // Stages the cache-less decomposition already reports separately.
    let mut shared_stages = 0.0;
    // Rep 0 fills the cache (misses, no scheduling); reps 1.. are hits.
    for rep in 0..=reps {
        let mut acc = [0.0f64; 5];
        let start = Instant::now();
        for (i, r) in requests.iter().enumerate() {
            let _request = span!(rec, "bench.hit", rep = rep as u64, request = i as u64);
            let fail = |e: &dyn std::fmt::Display| format!("hit path of {}: {e}", r.label);
            let system = stage(rec, &mut shared_stages, "ir.parse", || {
                load_system(&r.design)
            })
            .map_err(|e| fail(&e))?;
            let spec = stage(rec, &mut shared_stages, "core.spec", || {
                build_spec(&system, r.all_global, &[])
            })
            .map_err(|e| fail(&e))?;
            let (canon, hash) = stage(rec, &mut acc[0], "ir.canon", || {
                let canon = Canonicalization::of(&system);
                let hash = canon.hash();
                (canon, hash)
            });
            let key = stage(rec, &mut acc[1], "core.fingerprint", || CacheKey {
                spec: hash,
                config: config_fingerprint_with(&system, &canon, &spec, &config, None),
            });
            let (cached, disposition) = stage(rec, &mut acc[2], "serve.cache_lookup", || {
                cache.get_or_compute(key, || Ok(primed[i].clone()))
            });
            let cached = cached.map_err(|e| fail(&e))?;
            if rep > 0 && disposition != Disposition::Hit {
                return Err(fail(&"a warm lookup missed"));
            }
            let schedule = stage(rec, &mut acc[3], "core.replay", || cached.replay(&canon))
                .map_err(|e| fail(&e))?;
            stage(rec, &mut shared_stages, "core.verify", || {
                schedule.verify(&system)
            })
            .map_err(|e| fail(&e))?;
            let text = stage(rec, &mut shared_stages, "serve.render", || {
                render_schedule_report(
                    &system,
                    &spec,
                    &schedule,
                    cached.iterations,
                    cached.note.as_deref(),
                    false,
                    0,
                )
            })
            .map_err(|e| fail(&e))?;
            if text != want[i] {
                return Err(fail(&"replayed report differs from the pipeline's bytes"));
            }
        }
        acc[4] = micros(start);
        if rep > 0 {
            per_rep.push(acc);
        }
    }
    let med = |k: usize| median(&per_rep.iter().map(|a| a[k]).collect::<Vec<_>>()).unwrap_or(0.0);
    let stats = cache.stats();
    Ok(HitTimes {
        canon: med(0),
        fingerprint: med(1),
        lookup: med(2),
        replay: med(3),
        total: med(4),
        hits: stats.hits,
        misses: stats.misses,
    })
}

/// Cache counters of the layer under `serve::cache`, from the probe
/// cache (one-shot workloads) or the live daemons (serve workloads).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that scheduled.
    pub misses: u64,
    /// Lookups coalesced onto an in-flight run.
    pub coalesced: u64,
    /// Fresh scheduler runs.
    pub scheduler_runs: u64,
}

/// Candidate pairs evaluated inside a parallel fan-out per decomposed
/// pass: zero unless `TCMS_THREADS` is above 1, so it is reported but
/// not listed.
pub fn parallel_evals(traced: &[StageTimes]) -> Metric {
    #[allow(clippy::cast_precision_loss)]
    let evals = traced.first().map_or(0.0, |t| t.ifds.parallel_evals as f64);
    Metric::new("fds.parallel_evals", "count", evals, traced.len() as u64)
}

/// The per-layer metrics every workload reports, from the plain passes'
/// wall times, the decomposed passes, the hit path and the cache.
pub fn layer_metrics(
    plain_us: &[f64],
    traced: &[StageTimes],
    hits: &HitTimes,
    cache: CacheCounts,
    overhead_pct: f64,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&StageTimes) -> f64| {
        median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let n = traced.len() as u64;
    // Engine counters are deterministic per pass: take the first.
    let ifds = traced.first().map(|t| t.ifds).unwrap_or_default();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let eval_us = med(&|t| us(t.ifds.eval_time));
    let commit_us = med(&|t| us(t.ifds.commit_time));
    let select_us = med(&|t| us(t.ifds.total_time) - us(t.ifds.eval_time) - us(t.ifds.commit_time));
    let ns_per_force = med(&|t| {
        #[allow(clippy::cast_precision_loss)]
        let forces = t.ifds.ops_evaluated.max(1) as f64;
        us(t.ifds.eval_time) * 1e3 / forces
    });
    let pipeline_us = median(plain_us).unwrap_or(0.0);
    let stages = [
        med(&|t| t.parse),
        med(&|t| t.spec),
        med(&|t| t.s3),
        med(&|t| t.verify),
        med(&|t| t.render),
    ];
    let stage_sum = med(&|t| t.stage_sum());
    let lookups = cache.hits + cache.misses + cache.coalesced;
    #[allow(clippy::cast_precision_loss)]
    let count = |v: u64| v as f64;
    vec![
        Metric::new("fds.iterations", "count", count(ifds.iterations), n),
        Metric::new(
            "fds.forces_evaluated",
            "count",
            count(ifds.ops_evaluated),
            n,
        ),
        Metric::new("fds.force_cache_hit_rate", "ratio", ifds.hit_rate(), n),
        Metric::new("fds.eval_us", "us", eval_us, n),
        Metric::new("fds.select_us", "us", select_us, n),
        Metric::new("fds.commit_us", "us", commit_us, n),
        Metric::new("fds.ns_per_force", "ns", ns_per_force, n),
        Metric::new("ir.parse_us", "us", stages[0], n),
        Metric::new("core.spec_us", "us", stages[1], n),
        Metric::new("core.s3_us", "us", stages[2], n),
        Metric::new("core.verify_us", "us", stages[3], n),
        Metric::new("serve.render_us", "us", stages[4], n),
        Metric::new("ir.canon_us", "us", hits.canon, n),
        Metric::new("core.fingerprint_us", "us", hits.fingerprint, n),
        Metric::new("serve.cache_lookup_us", "us", hits.lookup, n),
        Metric::new("core.replay_us", "us", hits.replay, n),
        Metric::new("serve.hit_path_us", "us", hits.total, n),
        Metric::new(
            "serve.pipeline_us",
            "us",
            pipeline_us,
            plain_us.len() as u64,
        ),
        Metric::new(
            "serve.stage_residual_pct",
            "%",
            stage_residual_pct(pipeline_us, &[stage_sum]),
            n,
        ),
        Metric::new("serve.cache_hits", "count", count(cache.hits), lookups),
        Metric::new("serve.cache_misses", "count", count(cache.misses), lookups),
        Metric::new(
            "serve.cache_hit_rate",
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                count(cache.hits + cache.coalesced) / count(lookups)
            },
            lookups,
        ),
        Metric::new(
            "serve.scheduler_runs",
            "count",
            count(cache.scheduler_runs),
            lookups,
        ),
        Metric::new("bench.trace_overhead_pct", "%", overhead_pct, n),
    ]
}

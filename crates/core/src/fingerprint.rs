//! Cache keys and cacheable results for content-addressed scheduling.
//!
//! The serve subsystem (and the one-shot CLI's `--cache-dir`) cache
//! finished schedules keyed by `(canonical spec hash, config
//! fingerprint)`:
//!
//! * the **spec hash** comes from [`tcms_ir::canon`] and is invariant
//!   under declaration-order permutations of the design,
//! * the **config fingerprint** ([`config_fingerprint`]) covers
//!   everything else the schedule depends on: the sharing specification
//!   expressed in *canonical* coordinates (so the same `--global mul=2`
//!   over two permuted declarations fingerprints equal) and the
//!   deterministic force-model knobs of [`FdsConfig`].
//!
//! Deliberately **excluded** from the fingerprint:
//!
//! * the worker-thread count — schedules are bit-identical at every
//!   count (pinned by `tests/determinism.rs`),
//! * the wall-clock deadline of [`tcms_fds::RunBudget`] — a cached
//!   success is served instantly and therefore satisfies *any* deadline;
//!   only failed runs are deadline-dependent, and failures are never
//!   cached.
//!
//! The cached value is a [`CacheableResult`]: start times in canonical
//! operation order plus the run's iteration count. Storing canonical
//! order makes the entry declaration-order independent, so a permuted
//! resubmission of the same design replays to a verified-valid schedule
//! without an IFDS run.

use std::convert::Infallible;

use tcms_fds::{FdsConfig, Schedule, SpringWeights};
use tcms_ir::canon::{Canonicalization, Fnv64};
use tcms_ir::System;

use crate::assign::{Scope, SharingSpec};

/// Stable 64-bit fingerprint of everything the schedule depends on
/// besides the design itself: the sharing specification (in canonical
/// type/process coordinates) and the deterministic [`FdsConfig`] knobs.
#[must_use]
pub fn config_fingerprint(
    system: &System,
    canon: &Canonicalization,
    spec: &SharingSpec,
    config: &FdsConfig,
) -> u64 {
    let mut text = String::from("tcms-config v1\n");
    // Scopes in canonical type order, groups in canonical process order:
    // two permuted declarations of the same sharing setup serialize
    // identically.
    for &ti in canon.type_order() {
        let k = tcms_ir::ResourceTypeId::from_index(ti);
        match spec.scope(k) {
            Scope::Local => text.push_str("type local\n"),
            Scope::Global { group, period } => {
                let mut ranks: Vec<usize> = group
                    .iter()
                    .map(|p| canon.process_rank(p.index()))
                    .collect();
                ranks.sort_unstable();
                text.push_str(&format!("type global period={period} group={ranks:?}\n"));
            }
        }
    }
    // Force-model knobs that change the schedule. The wall deadline is
    // excluded on purpose (see the module docs); the deterministic budget
    // axes are included because tripping them changes the outcome.
    text.push_str(&format!("lookahead={:016x}\n", config.lookahead.to_bits()));
    text.push_str(match config.spring_weights {
        SpringWeights::Uniform => "weights=uniform\n",
        SpringWeights::Area => "weights=area\n",
    });
    text.push_str(&format!(
        "max_iterations={:?} max_evals={:?}\n",
        config.budget.max_iterations, config.budget.max_evals
    ));
    let _ = system;
    let mut h = Fnv64::new();
    h.update(text.as_bytes());
    h.finish()
}

/// [`config_fingerprint`] under its old name, kept because the
/// `tcms_benchmark` package calls it (the last argument has no values).
#[must_use]
pub fn config_fingerprint_with(
    system: &System,
    canon: &Canonicalization,
    spec: &SharingSpec,
    config: &FdsConfig,
    _: Option<&Infallible>,
) -> u64 {
    config_fingerprint(system, canon, spec, config)
}

/// A finished schedule in cache-portable form: start times in canonical
/// operation order plus the converged iteration count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheableResult {
    /// Start time of the operation at each canonical position.
    pub starts: Vec<u32>,
    /// Frame-reduction iterations of the original run (reported verbatim
    /// on replay so cached and fresh responses render identically).
    pub iterations: u64,
    /// Optional provenance line of the original run, re-rendered
    /// verbatim on every hit. Fresh runs store none; snapshot entries
    /// that carry one still load and render as recorded.
    pub note: Option<String>,
}

impl CacheableResult {
    /// Captures a finished schedule of `canon`'s system.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is incomplete; verify before caching.
    #[must_use]
    pub fn capture(canon: &Canonicalization, schedule: &Schedule, iterations: u64) -> Self {
        let starts = canon
            .op_order()
            .iter()
            .map(|&o| schedule.expect_start(o))
            .collect();
        CacheableResult {
            starts,
            iterations,
            note: None,
        }
    }

    /// Replays the cached starts onto a system with the same canonical
    /// hash.
    ///
    /// # Errors
    ///
    /// Returns a message when the operation counts disagree (a hash
    /// collision or corrupt cache entry); callers must additionally
    /// verify the replayed schedule before serving it.
    pub fn replay(&self, canon: &Canonicalization) -> Result<Schedule, String> {
        if self.starts.len() != canon.op_order().len() {
            return Err(format!(
                "cached entry has {} ops, system has {}",
                self.starts.len(),
                canon.op_order().len()
            ));
        }
        let mut schedule = Schedule::new(canon.op_order().len());
        for (rank, &op) in canon.op_order().iter().enumerate() {
            schedule.set(op, self.starts[rank]);
        }
        Ok(schedule)
    }

    /// Serializes to the JSON object used by the cache snapshot (one
    /// entry per line, without the surrounding key fields).
    #[must_use]
    pub fn to_json_fields(&self) -> String {
        let mut out = format!("\"iterations\":{},\"starts\":[", self.iterations);
        for (i, s) in self.starts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push(']');
        if let Some(note) = &self.note {
            out.push_str(",\"note\":");
            tcms_obs::json::write_escaped(&mut out, note);
        }
        out
    }

    /// A stable digest of the payload, stored alongside each snapshot
    /// line and re-checked on load. Note-less results hash exactly as
    /// they did before the note field existed, so pre-existing snapshot
    /// entries stay valid.
    #[must_use]
    pub fn integrity(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.iterations.to_le_bytes());
        for s in &self.starts {
            h.update(&s.to_le_bytes());
        }
        if let Some(note) = &self.note {
            h.update(b"|note|");
            h.update(note.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ModuloScheduler;
    use tcms_ir::parse::parse_system;

    const A: &str = "
resource add delay=1 area=1
resource mul delay=2 area=4 pipelined
process A
block body time=8
op m0 mul
op a0 add
edge m0 a0
process B
block body time=8
op m0 mul
op a0 add
edge m0 a0
";

    const A_SHUFFLED: &str = "
resource mul delay=2 area=4 pipelined
resource add delay=1 area=1
process B
block body time=8
op a0 add
op m0 mul
edge m0 a0
process A
block body time=8
op a0 add
op m0 mul
edge m0 a0
";

    #[test]
    fn fingerprint_is_permutation_invariant() {
        let sa = parse_system(A).unwrap();
        let sb = parse_system(A_SHUFFLED).unwrap();
        let (ca, cb) = (Canonicalization::of(&sa), Canonicalization::of(&sb));
        let cfg = FdsConfig::default();
        let fa = config_fingerprint(&sa, &ca, &SharingSpec::all_global(&sa, 4), &cfg);
        let fb = config_fingerprint(&sb, &cb, &SharingSpec::all_global(&sb, 4), &cfg);
        assert_eq!(fa, fb);
    }

    #[test]
    fn fingerprint_separates_configs() {
        let sys = parse_system(A).unwrap();
        let canon = Canonicalization::of(&sys);
        let cfg = FdsConfig::default();
        let global = config_fingerprint(&sys, &canon, &SharingSpec::all_global(&sys, 4), &cfg);
        let local = config_fingerprint(&sys, &canon, &SharingSpec::all_local(&sys), &cfg);
        let other_period =
            config_fingerprint(&sys, &canon, &SharingSpec::all_global(&sys, 5), &cfg);
        assert_ne!(global, local);
        assert_ne!(global, other_period);
        let tweaked = FdsConfig {
            lookahead: 0.5,
            ..FdsConfig::default()
        };
        let lk = config_fingerprint(&sys, &canon, &SharingSpec::all_global(&sys, 4), &tweaked);
        assert_ne!(global, lk);
    }

    #[test]
    fn capture_replay_round_trips_bit_identically() {
        let sys = parse_system(A).unwrap();
        let canon = Canonicalization::of(&sys);
        let out = ModuloScheduler::new(&sys, SharingSpec::all_global(&sys, 4))
            .unwrap()
            .run()
            .unwrap();
        let cached = CacheableResult::capture(&canon, &out.schedule, out.iterations);
        let replayed = cached.replay(&canon).unwrap();
        assert_eq!(replayed.starts(), out.schedule.starts());
    }

    #[test]
    fn replay_onto_permutation_is_valid_and_name_consistent() {
        let sa = parse_system(A).unwrap();
        let sb = parse_system(A_SHUFFLED).unwrap();
        let (ca, cb) = (Canonicalization::of(&sa), Canonicalization::of(&sb));
        assert_eq!(ca.hash(), cb.hash());
        let out = ModuloScheduler::new(&sa, SharingSpec::all_global(&sa, 4))
            .unwrap()
            .run()
            .unwrap();
        let cached = CacheableResult::capture(&ca, &out.schedule, out.iterations);
        let replayed = cached.replay(&cb).unwrap();
        replayed.verify(&sb).unwrap();
        // Canonically aligned ops receive identical start times.
        for rank in 0..ca.op_order().len() {
            assert_eq!(
                out.schedule.expect_start(ca.op_order()[rank]),
                replayed.expect_start(cb.op_order()[rank])
            );
        }
    }

    #[test]
    fn replay_rejects_wrong_arity() {
        let sys = parse_system(A).unwrap();
        let canon = Canonicalization::of(&sys);
        let bad = CacheableResult {
            starts: vec![0; 3],
            iterations: 1,
            note: None,
        };
        assert!(bad.replay(&canon).is_err());
    }

    #[test]
    fn integrity_tracks_payload() {
        let a = CacheableResult {
            starts: vec![1, 2, 3],
            iterations: 7,
            note: None,
        };
        let mut b = a.clone();
        assert_eq!(a.integrity(), b.integrity());
        b.starts[1] = 9;
        assert_ne!(a.integrity(), b.integrity());
        // A note changes the digest, and different notes differ.
        let with_note = |note: &str| CacheableResult {
            note: Some(note.to_owned()),
            ..a.clone()
        };
        let noted = with_note("provenance: run 2");
        assert_ne!(a.integrity(), noted.integrity());
        assert_ne!(
            noted.integrity(),
            with_note("provenance: run 3").integrity()
        );
    }

    #[test]
    fn note_rides_the_json_fields() {
        let a = CacheableResult {
            starts: vec![4, 5],
            iterations: 2,
            note: Some("provenance: run 2".into()),
        };
        let fields = a.to_json_fields();
        assert!(fields.contains("\"note\":\"provenance: run 2\""));
        let bare = CacheableResult {
            note: None,
            ..a.clone()
        };
        assert!(!bare.to_json_fields().contains("note"));
    }
}

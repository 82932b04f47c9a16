//! Deterministic network-fault decisions for the serving chaos harness.
//!
//! The companion of [`tcms_sim::fault`], one layer down the stack:
//! where [`FaultPlan`](tcms_sim::FaultPlan) stresses the *scheduled
//! system* (jittered triggers, outages), a [`NetFaultPlan`] stresses
//! the *serving transport* — which bytes of a proxied TCP stream get
//! delayed, truncated, or cut. This module makes only the **decisions**;
//! the TCP proxy that applies them is [`ChaosProxy`](crate::ChaosProxy)
//! next door in [`chaos`](crate::chaos), so the policy stays pure,
//! seed-reproducible and unit-testable without sockets.
//!
//! All randomness derives from [`NetFaultPlan::seed`] plus a
//! per-connection stream index, so two chaos runs with the same plan
//! inject byte-for-byte the same faults regardless of thread timing
//! *within a connection* (the paper-bench replication standard this
//! workspace holds all experiments to).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What to do with one forwarded chunk of a proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// Forward untouched.
    None,
    /// Forward after a latency spike of this many milliseconds.
    Delay(u64),
    /// Forward only the first `keep_permille`/1000 of the chunk, then
    /// kill the connection — a mid-line truncation the reader sees as a
    /// torn response.
    Truncate {
        /// Fraction of the chunk to forward, in permille (0..=1000).
        keep_permille: u16,
    },
    /// Drop the connection before forwarding anything — a reset from
    /// the peer's point of view.
    Reset,
    /// Forward the full chunk, then kill the connection — the write
    /// "succeeded" but the session is gone.
    KillAfter,
}

/// A seed-driven transport-fault plan. The default plan injects
/// nothing; enable fault classes by raising their probabilities. Each
/// forwarded chunk draws one decision; the classes are tried in the
/// order reset → truncate → kill → delay.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Per-chunk probability of a connection reset before forwarding.
    pub reset_prob: f64,
    /// Per-chunk probability of truncating the chunk then killing the
    /// connection.
    pub truncate_prob: f64,
    /// Per-chunk probability of killing the connection right after a
    /// complete forward.
    pub kill_prob: f64,
    /// Per-chunk probability of a latency spike.
    pub delay_prob: f64,
    /// Latency-spike ceiling in milliseconds (draws are `1..=max`).
    pub max_delay_ms: u64,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults enabled.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            reset_prob: 0.0,
            truncate_prob: 0.0,
            kill_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
        }
    }

    /// The moderate all-classes plan the chaos bench drives: frequent
    /// small delays, occasional resets, rare truncations and kills —
    /// enough that every fault class fires in a few hundred chunks.
    #[must_use]
    pub fn moderate(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            reset_prob: 0.04,
            truncate_prob: 0.03,
            kill_prob: 0.02,
            delay_prob: 0.15,
            max_delay_ms: 15,
        }
    }

    /// Checks the plan's probabilities.
    ///
    /// # Panics
    ///
    /// Panics if a probability is not a finite value in `[0, 1)`, or if
    /// delays are enabled with a zero ceiling.
    pub fn validate(&self) {
        for (name, p) in [
            ("reset_prob", self.reset_prob),
            ("truncate_prob", self.truncate_prob),
            ("kill_prob", self.kill_prob),
            ("delay_prob", self.delay_prob),
        ] {
            assert!(
                p.is_finite() && (0.0..1.0).contains(&p),
                "{name} must be a finite probability in [0, 1), got {p}"
            );
        }
        assert!(
            self.delay_prob == 0.0 || self.max_delay_ms > 0,
            "delay_prob > 0 requires max_delay_ms > 0"
        );
    }

    /// Whether any fault class is enabled.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.reset_prob == 0.0
            && self.truncate_prob == 0.0
            && self.kill_prob == 0.0
            && self.delay_prob == 0.0
    }

    /// The deterministic fault RNG of connection `conn`: each proxied
    /// connection gets its own stream, so faults within a connection do
    /// not depend on how connections interleave.
    #[must_use]
    pub fn conn_rng(&self, conn: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(0xE703_7ED1_A0B4_28DB ^ conn),
        )
    }

    /// The self-contained fault stream of connection `conn` — the plan
    /// plus its [`conn_rng`](NetFaultPlan::conn_rng), packaged so
    /// consumers (the `tcms-serve` proxy) need no RNG types of their
    /// own.
    #[must_use]
    pub fn stream(&self, conn: u64) -> NetFaultStream {
        NetFaultStream {
            plan: self.clone(),
            rng: self.conn_rng(conn),
        }
    }

    /// Draws the fault decision for the next chunk of a connection.
    pub fn next_fault(&self, rng: &mut StdRng) -> ChunkFault {
        if rng.random::<f64>() < self.reset_prob {
            return ChunkFault::Reset;
        }
        if rng.random::<f64>() < self.truncate_prob {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let keep_permille = (rng.random::<f64>() * 1000.0) as u16;
            return ChunkFault::Truncate { keep_permille };
        }
        if rng.random::<f64>() < self.kill_prob {
            return ChunkFault::KillAfter;
        }
        if rng.random::<f64>() < self.delay_prob {
            return ChunkFault::Delay(rng.random_range(1..=self.max_delay_ms.max(1)));
        }
        ChunkFault::None
    }
}

/// One connection's fault decision stream (see [`NetFaultPlan::stream`]).
#[derive(Debug, Clone)]
pub struct NetFaultStream {
    plan: NetFaultPlan,
    rng: StdRng,
}

impl NetFaultStream {
    /// Draws the decision for the next chunk.
    pub fn next_fault(&mut self) -> ChunkFault {
        self.plan.next_fault(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_raw_plan_draws() {
        let plan = NetFaultPlan::moderate(11);
        let mut stream = plan.stream(5);
        let mut rng = plan.conn_rng(5);
        for _ in 0..128 {
            assert_eq!(stream.next_fault(), plan.next_fault(&mut rng));
        }
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = NetFaultPlan::quiet(42);
        assert!(plan.is_quiet());
        plan.validate();
        let mut rng = plan.conn_rng(0);
        for _ in 0..1_000 {
            assert_eq!(plan.next_fault(&mut rng), ChunkFault::None);
        }
    }

    #[test]
    fn moderate_plan_is_deterministic_per_connection_stream() {
        let plan = NetFaultPlan::moderate(7);
        plan.validate();
        let draw = |conn: u64| {
            let mut rng = plan.conn_rng(conn);
            (0..256)
                .map(|_| plan.next_fault(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3), "same seed + conn ⇒ same faults");
        assert_ne!(draw(3), draw(4), "connections get independent streams");
        assert_ne!(
            draw(3),
            {
                let other = NetFaultPlan::moderate(8);
                let mut rng = other.conn_rng(3);
                (0..256)
                    .map(|_| other.next_fault(&mut rng))
                    .collect::<Vec<_>>()
            },
            "the seed matters"
        );
    }

    #[test]
    fn moderate_plan_exercises_every_fault_class() {
        let plan = NetFaultPlan::moderate(1);
        let mut rng = plan.conn_rng(0);
        let mut saw = [false; 5];
        for _ in 0..4_000 {
            match plan.next_fault(&mut rng) {
                ChunkFault::None => saw[0] = true,
                ChunkFault::Delay(ms) => {
                    assert!((1..=plan.max_delay_ms).contains(&ms));
                    saw[1] = true;
                }
                ChunkFault::Truncate { keep_permille } => {
                    assert!(keep_permille <= 1000);
                    saw[2] = true;
                }
                ChunkFault::Reset => saw[3] = true,
                ChunkFault::KillAfter => saw[4] = true,
            }
        }
        assert_eq!(saw, [true; 5], "every class fires within 4000 draws");
    }

    #[test]
    #[should_panic(expected = "reset_prob")]
    fn validate_rejects_bad_probabilities() {
        NetFaultPlan {
            reset_prob: 1.5,
            ..NetFaultPlan::quiet(0)
        }
        .validate();
    }
}

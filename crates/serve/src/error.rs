//! Typed failures of the serving pipeline and their wire classification.
//!
//! Every error a request can produce maps to a stable `(class, code)`
//! pair on the wire; the scheduling classes reuse the CLI's documented
//! exit codes so a script driving the daemon and a script driving the
//! one-shot binary branch on the same numbers. The service-only classes
//! use HTTP-flavoured codes (`429` overloaded, `408` deadline) that can
//! never collide with the CLI range.

use std::fmt;

use tcms_core::ScheduleError;

/// A typed failure of the serving pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request itself was malformed (bad JSON, missing or ill-typed
    /// fields).
    BadRequest(String),
    /// The request named an action this daemon does not implement — a
    /// distinct class (and pinned code) so version-skewed clients can
    /// tell "you sent garbage" from "this daemon is too old".
    UnknownAction(String),
    /// The design text failed to parse or compile.
    Malformed(String),
    /// The sharing specification is invalid for the design.
    Spec(String),
    /// The scheduler failed with a typed [`ScheduleError`].
    Schedule(ScheduleError),
    /// A produced or replayed schedule failed verification.
    Verify(String),
    /// The job queue is full — the request was shed without scheduling
    /// (the 429-style backpressure response).
    Overloaded {
        /// Bounded queue capacity at rejection time.
        capacity: usize,
    },
    /// The per-job deadline expired before a worker picked the job up.
    DeadlineExpired {
        /// How long the job waited in the queue, in milliseconds.
        waited_ms: u64,
    },
    /// The request line exceeded the daemon's size cap and was rejected
    /// before parsing (the read loop must not buffer unboundedly).
    TooLarge {
        /// The configured request-line cap, in bytes.
        limit: usize,
    },
    /// The scheduler panicked while executing this job. The worker
    /// caught the unwind, so the daemon survives; this 500-class error
    /// is what the one bad request gets back.
    Internal(String),
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
    /// The fleet peer owning this request's content address did not
    /// answer (dead, cut off by the network, or mid-restart). Retryable: a
    /// later attempt — or another node — may reach the owner or serve
    /// the entry after anti-entropy replicates it.
    PeerUnavailable {
        /// The advertised address of the unreachable owner.
        peer: String,
    },
}

impl ServeError {
    /// The stable wire class of this failure.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::UnknownAction(_) => "unknown-action",
            ServeError::Malformed(_) => "malformed",
            ServeError::Spec(_) => "spec",
            ServeError::Schedule(e) => match e {
                ScheduleError::Spec(_) => "spec",
                ScheduleError::Infeasible { .. } => "infeasible",
                ScheduleError::BudgetExhausted(_) => "budget",
                ScheduleError::PeriodGridOverflow { .. } => "period-grid",
                ScheduleError::VerificationFailed { .. } => "verify",
            },
            ServeError::Verify(_) => "verify",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExpired { .. } => "deadline",
            ServeError::TooLarge { .. } => "too-large",
            ServeError::Internal(_) => "internal",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::PeerUnavailable { .. } => "peer-unavailable",
        }
    }

    /// The stable wire code: CLI exit codes for the scheduling classes,
    /// HTTP-flavoured codes for the service-only ones.
    #[must_use]
    pub fn code(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 2,
            ServeError::UnknownAction(_) => 404,
            ServeError::Malformed(_) => 4,
            ServeError::Spec(_) | ServeError::Schedule(ScheduleError::Spec(_)) => 5,
            ServeError::Schedule(ScheduleError::Infeasible { .. }) => 6,
            ServeError::Schedule(ScheduleError::BudgetExhausted(_)) => 7,
            ServeError::Schedule(ScheduleError::PeriodGridOverflow { .. }) => 8,
            ServeError::Verify(_)
            | ServeError::Schedule(ScheduleError::VerificationFailed { .. }) => 9,
            ServeError::Overloaded { .. } => 429,
            ServeError::DeadlineExpired { .. } => 408,
            ServeError::TooLarge { .. } => 413,
            ServeError::Internal(_) => 500,
            // Both 503s are "not now, try again" — the *class* string
            // distinguishes a draining daemon from an unreachable fleet
            // owner, and clients base retry decisions on the class.
            ServeError::ShuttingDown | ServeError::PeerUnavailable { .. } => 503,
        }
    }

    /// Extracts a panic payload's message and wraps it as
    /// [`ServeError::Internal`] — the one conversion every
    /// `catch_unwind` site in the daemon shares.
    #[must_use]
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> ServeError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        ServeError::Internal(msg)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::UnknownAction(name) => write!(
                f,
                "unknown action `{name}`; this daemon serves schedule, \
                 simulate, stats, ping, shutdown, sync_digest, sync_pull, \
                 sync_push"
            ),
            ServeError::Malformed(msg) => write!(f, "malformed input: {msg}"),
            ServeError::Spec(msg) => write!(f, "invalid sharing spec: {msg}"),
            ServeError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            ServeError::Verify(msg) => write!(f, "schedule verification failed: {msg}"),
            ServeError::Overloaded { capacity } => {
                write!(f, "job queue full ({capacity} jobs); retry later")
            }
            ServeError::DeadlineExpired { waited_ms } => {
                write!(f, "deadline expired after {waited_ms} ms in queue")
            }
            ServeError::TooLarge { limit } => {
                write!(f, "request line exceeds the {limit}-byte cap")
            }
            ServeError::Internal(msg) => {
                write!(f, "internal error (worker panic): {msg}")
            }
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
            ServeError::PeerUnavailable { peer } => {
                write!(f, "fleet peer `{peer}` is unavailable; retry another node")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for ServeError {
    fn from(e: ScheduleError) -> Self {
        ServeError::Schedule(e)
    }
}

impl From<tcms_core::CoreError> for ServeError {
    fn from(e: tcms_core::CoreError) -> Self {
        ServeError::Schedule(ScheduleError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_codes_are_stable() {
        let cases: Vec<(ServeError, &str, u16)> = vec![
            (ServeError::BadRequest("x".into()), "bad-request", 2),
            (
                ServeError::UnknownAction("frobnicate".into()),
                "unknown-action",
                404,
            ),
            (ServeError::Malformed("x".into()), "malformed", 4),
            (ServeError::Spec("x".into()), "spec", 5),
            (
                ServeError::Schedule(ScheduleError::Infeasible {
                    block: "P::b".into(),
                    slack: -1,
                    binding_resource: "mul".into(),
                }),
                "infeasible",
                6,
            ),
            (
                ServeError::Schedule(ScheduleError::PeriodGridOverflow {
                    process: "P".into(),
                }),
                "period-grid",
                8,
            ),
            (ServeError::Verify("x".into()), "verify", 9),
            (ServeError::Overloaded { capacity: 4 }, "overloaded", 429),
            (
                ServeError::DeadlineExpired { waited_ms: 9 },
                "deadline",
                408,
            ),
            (ServeError::TooLarge { limit: 4096 }, "too-large", 413),
            (ServeError::Internal("boom".into()), "internal", 500),
            (ServeError::ShuttingDown, "shutting-down", 503),
            (
                ServeError::PeerUnavailable {
                    peer: "127.0.0.1:9999".into(),
                },
                "peer-unavailable",
                503,
            ),
        ];
        for (e, class, code) in cases {
            assert_eq!(e.class(), class, "{e}");
            assert_eq!(e.code(), code, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn from_panic_extracts_str_and_string_payloads() {
        let p = std::panic::catch_unwind(|| panic!("literal message")).unwrap_err();
        assert_eq!(
            ServeError::from_panic(p.as_ref()),
            ServeError::Internal("literal message".into())
        );
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(
            ServeError::from_panic(p.as_ref()),
            ServeError::Internal("formatted 7".into())
        );
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(
            ServeError::from_panic(p.as_ref()),
            ServeError::Internal("non-string panic payload".into())
        );
    }
}

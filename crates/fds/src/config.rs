//! Tuning parameters shared by all force-directed schedulers.

use std::time::Duration;

use tcms_ir::{ResourceLibrary, ResourceTypeId};

/// How resource types are weighted in the total force ("global spring
/// constants" in the improved FDS of Verhaegh et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpringWeights {
    /// All types weigh the same.
    Uniform,
    /// Types weigh their area cost, so saving an instance of an expensive
    /// unit dominates. This is the default.
    #[default]
    Area,
}

impl SpringWeights {
    /// Weight of resource type `rtype` under this policy.
    pub fn weight(self, library: &ResourceLibrary, rtype: ResourceTypeId) -> f64 {
        match self {
            SpringWeights::Uniform => 1.0,
            SpringWeights::Area => library.get(rtype).area() as f64,
        }
    }
}

/// Hard limits on one engine run — the watchdog of the scheduling pipeline.
///
/// The default budget is unlimited on every axis, so a default-configured
/// run behaves exactly like the pre-budget engine. When a limit trips, the
/// engine aborts with [`crate::EngineError::BudgetExhausted`] carrying a
/// partial-progress report instead of spinning forever.
///
/// `max_iterations` and `max_evals` are deterministic (they count work, not
/// time); `wall_deadline` is inherently wall-clock-dependent and should be
/// reserved for interactive/service deployments where reproducibility
/// matters less than bounded latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Maximum frame-reduction iterations (`None` = unlimited).
    pub max_iterations: Option<u64>,
    /// Wall-clock deadline for the whole run (`None` = unlimited).
    pub wall_deadline: Option<Duration>,
    /// Maximum candidate force-pair evaluations (`None` = unlimited).
    pub max_evals: Option<u64>,
}

impl RunBudget {
    /// The unlimited budget (identical to `RunBudget::default()`).
    pub const UNLIMITED: RunBudget = RunBudget {
        max_iterations: None,
        wall_deadline: None,
        max_evals: None,
    };

    /// `true` if no axis is limited — the watchdog can be skipped entirely.
    pub fn is_unlimited(&self) -> bool {
        self.max_iterations.is_none() && self.wall_deadline.is_none() && self.max_evals.is_none()
    }
}

/// Configuration of the force model.
///
/// # Example
///
/// ```
/// use tcms_fds::{FdsConfig, SpringWeights};
///
/// let cfg = FdsConfig {
///     lookahead: 0.0,
///     spring_weights: SpringWeights::Uniform,
///     ..FdsConfig::default()
/// };
/// assert_ne!(cfg, FdsConfig::default());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FdsConfig {
    /// Look-ahead factor η: a displacement `x` is priced against
    /// `D(t) + η·x(t)` instead of `D(t)`. Paulin and Knight suggest `1/3`;
    /// the paper's exact value is lost to OCR, so it is configurable and
    /// swept in an ablation bench.
    pub lookahead: f64,
    /// Per-type force weights.
    pub spring_weights: SpringWeights,
    /// Run budget enforced by the engine's watchdog (unlimited by default).
    pub budget: RunBudget,
}

impl Default for FdsConfig {
    fn default() -> Self {
        FdsConfig {
            lookahead: 1.0 / 3.0,
            spring_weights: SpringWeights::Area,
            budget: RunBudget::UNLIMITED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::generators::paper_library;

    #[test]
    fn default_config() {
        let cfg = FdsConfig::default();
        assert!((cfg.lookahead - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cfg.spring_weights, SpringWeights::Area);
    }

    #[test]
    fn weights() {
        let (lib, t) = paper_library();
        assert_eq!(SpringWeights::Uniform.weight(&lib, t.mul), 1.0);
        assert_eq!(SpringWeights::Area.weight(&lib, t.mul), 4.0);
        assert_eq!(SpringWeights::Area.weight(&lib, t.add), 1.0);
    }

    #[test]
    fn default_budget_is_unlimited() {
        assert!(RunBudget::default().is_unlimited());
        assert!(RunBudget::UNLIMITED.is_unlimited());
        assert_eq!(FdsConfig::default().budget, RunBudget::UNLIMITED);
        let limited = RunBudget {
            max_iterations: Some(10),
            ..RunBudget::default()
        };
        assert!(!limited.is_unlimited());
        let timed = RunBudget {
            wall_deadline: Some(Duration::from_millis(5)),
            ..RunBudget::default()
        };
        assert!(!timed.is_unlimited());
    }
}

//! Multi-model budget planning: several reversibly-pruned networks
//! sharing one energy budget.
//!
//! Real autonomy stacks run a *fleet* of networks (perception, prediction,
//! control). Reversible pruning makes each of them a dial; this module
//! holds the fleet *data model* — [`FleetMember`] profiles (validated once,
//! at admission) and the [`BudgetPlan`] allocation they produce. The
//! planner lives in [`crate::planner`]: one heap-ordered greedy, which
//! [`plan_budget`] and the fleet executor's
//! [`FleetPlanner`](crate::planner::FleetPlanner) both run, picks
//! per-member ladder levels that
//!
//! 1. **never** violate any member's safety envelope at the current risk
//!    (hard constraint, not traded), and
//! 2. subject to that, keep as much utility (profiled accuracy) as the
//!    budget allows, shedding capacity where it is cheapest first —
//!    a greedy marginal utility-per-joule allocation.

pub use crate::planner::{plan_budget, plan_budget_prevalidated};

use crate::envelope::SafetyEnvelope;
use crate::{Result, RuntimeError};
use reprune_platform::Joules;
use serde::{Deserialize, Serialize};

/// One budget-managed model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMember {
    /// Human-readable name.
    pub name: String,
    /// The member's safety envelope (levels must match the profiles).
    pub envelope: SafetyEnvelope,
    /// Per-tick inference energy at each ladder level (strictly
    /// decreasing in level).
    pub energy_per_level: Vec<Joules>,
    /// Utility (e.g. profiled accuracy in `[0,1]`) at each level
    /// (non-increasing in level).
    pub utility_per_level: Vec<f64>,
}

impl FleetMember {
    /// Builds a member from a runtime's profiled knowledge base
    /// ([`crate::manager::RuntimeManager::knowledge`]), pairing the
    /// per-level energy profile measured at attach time with a
    /// caller-supplied utility profile (e.g. validation accuracy per
    /// level).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] under the same consistency
    /// rules as [`FleetMember::validate`].
    pub fn from_knowledge(
        name: impl Into<String>,
        envelope: SafetyEnvelope,
        levels: &[crate::knowledge::LevelKnowledge],
        utility_per_level: Vec<f64>,
    ) -> Result<Self> {
        let member = FleetMember {
            name: name.into(),
            envelope,
            energy_per_level: levels.iter().map(|lk| lk.inference.energy).collect(),
            utility_per_level,
        };
        member.validate()?;
        Ok(member)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if lengths disagree with the
    /// envelope, any profile value is non-finite, or the profiles are not
    /// monotone.
    pub fn validate(&self) -> Result<()> {
        let n = self.envelope.levels();
        if self.energy_per_level.len() != n || self.utility_per_level.len() != n {
            return Err(RuntimeError::bad_config(format!(
                "{}: envelope has {n} levels, profiles have {}/{}",
                self.name,
                self.energy_per_level.len(),
                self.utility_per_level.len()
            )));
        }
        // A NaN would sail through the monotonicity windows below (every
        // comparison false), then poison the planner's score arithmetic
        // and its tie order. Validation runs once at admission,
        // so the planner hot path may assume finite profiles.
        if self.energy_per_level.iter().any(|e| !e.0.is_finite())
            || self.utility_per_level.iter().any(|u| !u.is_finite())
        {
            return Err(RuntimeError::bad_config(format!(
                "{}: energy/utility profiles must be finite",
                self.name
            )));
        }
        for pair in self.energy_per_level.windows(2) {
            if pair[1].0 >= pair[0].0 {
                return Err(RuntimeError::bad_config(format!(
                    "{}: energy must strictly decrease with level",
                    self.name
                )));
            }
        }
        for pair in self.utility_per_level.windows(2) {
            if pair[1] > pair[0] {
                return Err(RuntimeError::bad_config(format!(
                    "{}: utility must not increase with level",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// Result of one budget-planning pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetPlan {
    /// Chosen ladder level per member, same order as the input.
    pub levels: Vec<usize>,
    /// Total per-tick energy of the allocation.
    pub total_energy: Joules,
    /// Total utility of the allocation.
    pub total_utility: f64,
    /// `false` if even the most-pruned safe allocation exceeds the budget
    /// (the allocation returned is then that maximally pruned one).
    pub feasible: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(name: &str, energies: &[f64], utilities: &[f64]) -> FleetMember {
        FleetMember {
            name: name.into(),
            envelope: SafetyEnvelope::evenly_spaced(energies.len(), 0.6).unwrap(),
            energy_per_level: energies.iter().map(|&e| Joules(e)).collect(),
            utility_per_level: utilities.to_vec(),
        }
    }

    fn perception() -> FleetMember {
        member("perception", &[10.0, 7.0, 4.0, 2.0], &[0.95, 0.93, 0.88, 0.60])
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut m = perception();
        m.energy_per_level.pop();
        assert!(m.validate().is_err());
        let mut m = perception();
        m.energy_per_level[1] = Joules(11.0); // not decreasing
        assert!(m.validate().is_err());
        let mut m = perception();
        m.utility_per_level[2] = 0.99; // utility increases
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_catches_non_finite_profiles() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = perception();
            m.energy_per_level[3] = Joules(bad);
            assert!(m.validate().is_err(), "energy {bad} must be rejected");
            let mut m = perception();
            m.utility_per_level[2] = bad;
            assert!(m.validate().is_err(), "utility {bad} must be rejected");
        }
    }

    #[test]
    fn from_knowledge_mirrors_profiled_energy() {
        use reprune_platform::{InferenceCost, Seconds};
        let lk = |level: usize, energy: f64| crate::knowledge::LevelKnowledge {
            level,
            sparsity: 0.3 * level as f64,
            inference: InferenceCost {
                latency: Seconds(0.01),
                energy: Joules(energy),
                macs: 1_000,
                bytes_moved: reprune_platform::Bytes(4_096),
            },
            log_entries: level * 100,
        };
        let levels = [lk(0, 10.0), lk(1, 7.0), lk(2, 4.0), lk(3, 2.0)];
        let env = SafetyEnvelope::evenly_spaced(4, 0.6).unwrap();
        let m = FleetMember::from_knowledge(
            "perception",
            env.clone(),
            &levels,
            vec![0.95, 0.93, 0.88, 0.60],
        )
        .unwrap();
        assert_eq!(m.energy_per_level, vec![Joules(10.0), Joules(7.0), Joules(4.0), Joules(2.0)]);
        assert!(m.validate().is_ok());
        // Mismatched utility profile is rejected at construction.
        assert!(FleetMember::from_knowledge("bad", env, &levels, vec![0.9, 0.8]).is_err());
    }
}

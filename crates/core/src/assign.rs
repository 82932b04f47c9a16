//! Step (S1): assignment of resource types to processes.
//!
//! Every resource type is either **local** — the traditional per-process
//! resource counting — or **global**: assigned to a *process group* whose
//! members share instances through periodic access authorizations. A type
//! may be global for a subset of its users; the remaining users keep local
//! instances.

use tcms_ir::{BlockId, ProcessId, ResourceTypeId, System};

use crate::error::CoreError;
use crate::modulo::{checked_lcm, lcm};

/// Sharing scope of one resource type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Traditional: one pool per process.
    Local,
    /// Shared by the listed process group with the given access period ρ.
    Global {
        /// Processes sharing the instances (at least two).
        group: Vec<ProcessId>,
        /// Access period ρ of the authorization sequence.
        period: u32,
    },
}

/// Full sharing specification: one [`Scope`] per resource type.
///
/// # Example
///
/// ```
/// use tcms_core::SharingSpec;
/// use tcms_ir::generators::paper_system;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (sys, types) = paper_system()?;
/// // Table 1: adder and multiplier global over all five processes,
/// // subtracter global over the two diffeq processes, all with ρ = 5.
/// let mut spec = SharingSpec::all_local(&sys);
/// spec.set_global(types.add, sys.users_of_type(types.add), 5);
/// spec.set_global(types.mul, sys.users_of_type(types.mul), 5);
/// spec.set_global(types.sub, sys.users_of_type(types.sub), 5);
/// spec.validate(&sys)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingSpec {
    scopes: Vec<Scope>,
}

impl SharingSpec {
    /// The traditional specification: every type local.
    pub fn all_local(system: &System) -> Self {
        SharingSpec {
            scopes: vec![Scope::Local; system.library().len()],
        }
    }

    /// Makes every type used by two or more processes global over all its
    /// users, with a common `period` — the paper's "pure global resource
    /// assignment".
    pub fn all_global(system: &System, period: u32) -> Self {
        let mut spec = Self::all_local(system);
        for k in system.library().ids() {
            let users = system.users_of_type(k);
            if users.len() >= 2 {
                spec.set_global(k, users, period);
            }
        }
        spec
    }

    /// Assigns `rtype` globally to `group` with access period `period`.
    /// Errors surface in [`SharingSpec::validate`].
    pub fn set_global(&mut self, rtype: ResourceTypeId, group: Vec<ProcessId>, period: u32) {
        self.scopes[rtype.index()] = Scope::Global { group, period };
    }

    /// Reverts `rtype` to the traditional local assignment.
    pub fn set_local(&mut self, rtype: ResourceTypeId) {
        self.scopes[rtype.index()] = Scope::Local;
    }

    /// The scope of `rtype`.
    pub fn scope(&self, rtype: ResourceTypeId) -> &Scope {
        &self.scopes[rtype.index()]
    }

    /// `true` if `rtype` is globally shared.
    pub fn is_global(&self, rtype: ResourceTypeId) -> bool {
        matches!(self.scopes[rtype.index()], Scope::Global { .. })
    }

    /// The access period of a global type, `None` for local types.
    pub fn period(&self, rtype: ResourceTypeId) -> Option<u32> {
        match &self.scopes[rtype.index()] {
            Scope::Local => None,
            Scope::Global { period, .. } => Some(*period),
        }
    }

    /// Overwrites the period of a global type (used by the period
    /// explorer).
    ///
    /// # Panics
    ///
    /// Panics if `rtype` is local.
    pub fn set_period(&mut self, rtype: ResourceTypeId, period: u32) {
        match &mut self.scopes[rtype.index()] {
            Scope::Global { period: p, .. } => *p = period,
            Scope::Local => panic!("cannot set a period on a local type"),
        }
    }

    /// The sharing group of a global type, `None` for local types.
    pub fn group(&self, rtype: ResourceTypeId) -> Option<&[ProcessId]> {
        match &self.scopes[rtype.index()] {
            Scope::Local => None,
            Scope::Global { group, .. } => Some(group),
        }
    }

    /// `true` if `rtype` is global *and* `process` belongs to its group
    /// (i.e. the process's usage is counted in the shared pool).
    pub fn is_global_for(&self, rtype: ResourceTypeId, process: ProcessId) -> bool {
        self.group(rtype).is_some_and(|g| g.contains(&process))
    }

    /// Global types assigned to `process` — the paper's set `G_p`.
    pub fn global_types_of_process(
        &self,
        system: &System,
        process: ProcessId,
    ) -> Vec<ResourceTypeId> {
        system
            .library()
            .ids()
            .filter(|&k| self.is_global_for(k, process))
            .collect()
    }

    /// All global resource types (the paper's set of types assigned to more
    /// than one process).
    pub fn global_types(&self, system: &System) -> Vec<ResourceTypeId> {
        system
            .library()
            .ids()
            .filter(|&k| self.is_global(k))
            .collect()
    }

    /// Grid spacing of `process` (equation 3): the lcm of the periods of
    /// all global types assigned to it. Block start times of the process
    /// are restricted to multiples of this spacing; `1` if no global type
    /// is assigned.
    pub fn grid_spacing(&self, system: &System, process: ProcessId) -> u32 {
        self.global_types_of_process(system, process)
            .into_iter()
            .fold(1, |acc, k| {
                lcm(acc, self.period(k).expect("global types have periods"))
            })
    }

    /// Grid spacing of a single block: the lcm of the periods of the global
    /// types the block actually uses. Blocks without global usage may start
    /// at any time (spacing 1), as noted in the paper.
    pub fn block_grid_spacing(&self, system: &System, block: BlockId) -> u32 {
        let process = system.block(block).process();
        system
            .types_used_by_block(block)
            .into_iter()
            .filter(|&k| self.is_global_for(k, process))
            .fold(1, |acc, k| {
                lcm(acc, self.period(k).expect("global types have periods"))
            })
    }

    /// Validates group sizes, membership, duplicates and periods.
    ///
    /// # Errors
    ///
    /// See [`CoreError`]; the first violation found is returned.
    pub fn validate(&self, system: &System) -> Result<(), CoreError> {
        for (k, rt) in system.library().iter() {
            let Scope::Global { group, period } = &self.scopes[k.index()] else {
                continue;
            };
            if *period == 0 {
                return Err(CoreError::ZeroPeriod {
                    rtype: rt.name().to_owned(),
                });
            }
            if group.len() < 2 {
                return Err(CoreError::GroupTooSmall {
                    rtype: rt.name().to_owned(),
                });
            }
            let users = system.users_of_type(k);
            let mut seen = std::collections::HashSet::new();
            for &p in group {
                if !seen.insert(p) {
                    return Err(CoreError::DuplicateProcessInGroup {
                        rtype: rt.name().to_owned(),
                        process: system.process(p).name().to_owned(),
                    });
                }
                if !users.contains(&p) {
                    return Err(CoreError::ProcessDoesNotUseType {
                        rtype: rt.name().to_owned(),
                        process: system.process(p).name().to_owned(),
                    });
                }
            }
        }
        // Equation-3 screen against arithmetic overflow: every process's
        // grid spacing must fit in u32, so the unchecked `lcm` used on the
        // hot paths is safe for validated specifications.
        for p in system.process_ids() {
            let mut acc: u32 = 1;
            for k in self.global_types_of_process(system, p) {
                let period = self.period(k).expect("global types have periods");
                acc = checked_lcm(acc, period).ok_or_else(|| CoreError::PeriodGridOverflow {
                    process: system.process(p).name().to_owned(),
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::generators::paper_system;

    #[test]
    fn all_local_has_no_global_types() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_local(&sys);
        assert!(spec.global_types(&sys).is_empty());
        spec.validate(&sys).unwrap();
        for p in sys.process_ids() {
            assert_eq!(spec.grid_spacing(&sys, p), 1);
        }
    }

    #[test]
    fn all_global_covers_shared_types() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        spec.validate(&sys).unwrap();
        assert!(spec.is_global(t.add));
        assert!(spec.is_global(t.mul));
        assert!(spec.is_global(t.sub));
        assert_eq!(spec.period(t.add), Some(5));
        assert_eq!(spec.group(t.sub).unwrap().len(), 2);
        assert_eq!(spec.group(t.add).unwrap().len(), 5);
    }

    #[test]
    fn grid_spacing_is_lcm_of_periods() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.add, sys.users_of_type(t.add), 3);
        spec.set_global(t.mul, sys.users_of_type(t.mul), 4);
        spec.validate(&sys).unwrap();
        let p0 = sys.process_ids().next().unwrap();
        assert_eq!(spec.grid_spacing(&sys, p0), 12);
    }

    #[test]
    fn block_spacing_only_counts_used_types() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        // Subtracter is used only by the diffeq processes.
        spec.set_global(t.sub, sys.users_of_type(t.sub), 5);
        spec.validate(&sys).unwrap();
        let ewf_block = sys.process(tcms_ir::ProcessId::from_index(0)).blocks()[0];
        let diffeq_block = sys.process(tcms_ir::ProcessId::from_index(3)).blocks()[0];
        assert_eq!(spec.block_grid_spacing(&sys, ewf_block), 1);
        assert_eq!(spec.block_grid_spacing(&sys, diffeq_block), 5);
    }

    #[test]
    fn group_of_one_rejected() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.add, vec![sys.process_ids().next().unwrap()], 5);
        assert!(matches!(
            spec.validate(&sys),
            Err(CoreError::GroupTooSmall { .. })
        ));
    }

    #[test]
    fn non_user_in_group_rejected() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        // P1 (EWF) does not use the subtracter.
        let p1 = sys.process_by_name("P1").unwrap();
        let p4 = sys.process_by_name("P4").unwrap();
        spec.set_global(t.sub, vec![p1, p4], 5);
        assert!(matches!(
            spec.validate(&sys),
            Err(CoreError::ProcessDoesNotUseType { .. })
        ));
    }

    #[test]
    fn duplicate_process_rejected() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        let p4 = sys.process_by_name("P4").unwrap();
        spec.set_global(t.sub, vec![p4, p4], 5);
        assert!(matches!(
            spec.validate(&sys),
            Err(CoreError::DuplicateProcessInGroup { .. })
        ));
    }

    #[test]
    fn zero_period_rejected() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.add, sys.users_of_type(t.add), 0);
        assert!(matches!(
            spec.validate(&sys),
            Err(CoreError::ZeroPeriod { .. })
        ));
    }

    #[test]
    fn set_period_updates() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_global(&sys, 5);
        spec.set_period(t.mul, 7);
        assert_eq!(spec.period(t.mul), Some(7));
        assert_eq!(spec.period(t.add), Some(5));
    }

    #[test]
    #[should_panic(expected = "local type")]
    fn set_period_on_local_panics() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_period(t.mul, 7);
    }

    #[test]
    fn overflowing_period_grid_rejected() {
        // Two near-u32::MAX co-prime periods: each fits, their lcm does
        // not. Validation must reject instead of wrapping silently.
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.add, sys.users_of_type(t.add), u32::MAX - 4);
        spec.set_global(t.mul, sys.users_of_type(t.mul), u32::MAX - 58);
        assert!(matches!(
            spec.validate(&sys),
            Err(CoreError::PeriodGridOverflow { .. })
        ));
        // A single huge period is fine by itself (spacing = the period).
        let mut single = SharingSpec::all_local(&sys);
        single.set_global(t.add, sys.users_of_type(t.add), u32::MAX - 4);
        single.validate(&sys).unwrap();
    }

    #[test]
    fn partial_group_leaves_rest_local() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        let p1 = sys.process_by_name("P1").unwrap();
        let p2 = sys.process_by_name("P2").unwrap();
        let p3 = sys.process_by_name("P3").unwrap();
        spec.set_global(t.mul, vec![p1, p2], 5);
        spec.validate(&sys).unwrap();
        assert!(spec.is_global_for(t.mul, p1));
        assert!(!spec.is_global_for(t.mul, p3));
        assert_eq!(spec.global_types_of_process(&sys, p3), vec![]);
        assert_eq!(spec.global_types_of_process(&sys, p1), vec![t.mul]);
    }
}

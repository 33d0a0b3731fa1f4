//! Assist-aware region preference (extension).
//!
//! The paper's region detector assigns *hardware* to irregular regions and
//! *software* to regular ones — the right policy for conflict-reduction
//! assists (MAT bypassing, victim caches), whose value lies in protecting
//! hot data from irregular traffic. For a *prefetching* assist the mapping
//! inverts: stream buffers help exactly the regions with sequential miss
//! streams, i.e. the regular ones (see EXPERIMENTS.md, "Extension
//! experiments").
//!
//! This module generalizes marker insertion over an [`AssistPolicy`]: the
//! same region analysis, but each region's ON/OFF decision reflects where
//! the attached mechanism actually helps.

use crate::classify::Preference;
use crate::redundant::eliminate_redundant_markers;
use crate::region::{detect_and_mark_with, MIN_REGION_VOLUME};
use selcache_ir::{Marker, Program};

/// Which program regions an assist benefits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssistPolicy {
    /// Conflict-reduction mechanisms (bypassing, victim caches): enable on
    /// irregular regions — the paper's rule.
    IrregularRegions,
    /// Prefetching mechanisms (stream buffers): enable on regular regions,
    /// whose miss streams are sequential.
    RegularRegions,
    /// Enable everywhere (equivalent to the combined version, expressed as
    /// markers).
    Always,
    /// Defer the per-region decision to a run-time controller (the
    /// `selcache-adapt` adaptive hardware): every region's marker is ON so
    /// the controller sees all of them, and the static hardware/software
    /// classification is carried only as region labels. Marker-wise
    /// identical to
    /// [`AssistPolicy::Always`]; kept distinct because the *meaning* of ON
    /// differs — "controller may act here", not "assist is on here".
    Dynamic,
}

impl AssistPolicy {
    /// The marker a region with the given (paper-rule) preference receives
    /// under this policy.
    pub fn marker_for(&self, preference: Preference) -> Marker {
        let on = match self {
            AssistPolicy::IrregularRegions => preference == Preference::Hardware,
            AssistPolicy::RegularRegions => preference == Preference::Software,
            AssistPolicy::Always | AssistPolicy::Dynamic => true,
        };
        if on {
            Marker::On
        } else {
            Marker::Off
        }
    }
}

/// Region detection + marker insertion under an assist-specific policy,
/// with redundant markers eliminated. With
/// [`AssistPolicy::IrregularRegions`] this is exactly
/// [`crate::insert_markers`].
pub fn insert_markers_for(program: &Program, threshold: f64, policy: AssistPolicy) -> Program {
    let marked = detect_and_mark_with(program, threshold, MIN_REGION_VOLUME, policy);
    eliminate_redundant_markers(&marked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{AffineExpr, Interp, OpKind, ProgramBuilder, Subscript};

    fn mixed() -> Program {
        let mut b = ProgramBuilder::new("m");
        let a = b.array("A", &[2048], 8);
        let x = b.array("X", &[2048], 8);
        let ip = b.data_array("IP", (0..2048).rev().collect(), 4);
        b.loop_(2048, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).fp(1);
            });
        });
        b.loop_(2048, |b, i| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(i), 0);
            });
        });
        b.finish().unwrap()
    }

    fn dynamic_markers(p: &Program) -> Vec<OpKind> {
        Interp::new(p)
            .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff))
            .map(|o| o.kind)
            .collect()
    }

    #[test]
    fn irregular_policy_matches_paper_rule() {
        let p = mixed();
        let a = insert_markers_for(&p, 0.5, AssistPolicy::IrregularRegions);
        let b = crate::insert_markers(&p, 0.5);
        assert_eq!(a, b);
        // ON before the gather loop only.
        assert_eq!(dynamic_markers(&a), vec![OpKind::AssistOn]);
    }

    #[test]
    fn regular_policy_inverts() {
        let p = mixed();
        let m = insert_markers_for(&p, 0.5, AssistPolicy::RegularRegions);
        // The regular loop is first: ON for it, then OFF before the gather.
        assert_eq!(dynamic_markers(&m), vec![OpKind::AssistOn, OpKind::AssistOff]);
    }

    #[test]
    fn always_policy_single_on() {
        let p = mixed();
        let m = insert_markers_for(&p, 0.5, AssistPolicy::Always);
        assert_eq!(dynamic_markers(&m), vec![OpKind::AssistOn]);
    }

    #[test]
    fn dynamic_policy_marks_everything_on() {
        // The controller wants to see every region: marker-wise this is
        // `Always`, and the region structure itself is untouched.
        let p = mixed();
        let m = insert_markers_for(&p, 0.5, AssistPolicy::Dynamic);
        assert_eq!(m, insert_markers_for(&p, 0.5, AssistPolicy::Always));
        assert_eq!(dynamic_markers(&m), vec![OpKind::AssistOn]);
    }

    #[test]
    fn policies_preserve_work() {
        let p = mixed();
        let loads =
            |p: &Program| Interp::new(p).filter(|o| matches!(o.kind, OpKind::Load(_))).count();
        for policy in
            [AssistPolicy::IrregularRegions, AssistPolicy::RegularRegions, AssistPolicy::Always]
        {
            let m = insert_markers_for(&p, 0.5, policy);
            assert_eq!(loads(&p), loads(&m), "{policy:?}");
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn marker_mapping_table() {
        use AssistPolicy::*;
        assert_eq!(IrregularRegions.marker_for(Preference::Hardware), Marker::On);
        assert_eq!(IrregularRegions.marker_for(Preference::Software), Marker::Off);
        assert_eq!(RegularRegions.marker_for(Preference::Hardware), Marker::Off);
        assert_eq!(RegularRegions.marker_for(Preference::Software), Marker::On);
        assert_eq!(Always.marker_for(Preference::Software), Marker::On);
        assert_eq!(Dynamic.marker_for(Preference::Hardware), Marker::On);
        assert_eq!(Dynamic.marker_for(Preference::Software), Marker::On);
    }
}

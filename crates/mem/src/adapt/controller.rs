//! The per-region explore/exploit policy state machine.

use selcache_ir::RegionId;

/// The assist mechanisms the controller arbitrates between, in trial (and
/// tie-break) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AssistChoice {
    /// No assist: plain L1 allocation.
    Off,
    /// MAT/SLDT cache bypassing (Johnson & Hwu).
    Bypass,
    /// Victim caching (Jouppi).
    Victim,
}

impl AssistChoice {
    /// Every choice, in trial order (also the tie-break order: on equal
    /// scores the earlier entry wins, so `Off` is preferred when an
    /// assist buys nothing).
    pub const ALL: [AssistChoice; 3] =
        [AssistChoice::Off, AssistChoice::Bypass, AssistChoice::Victim];

    /// Lowercase display name (report and JSON vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            AssistChoice::Off => "off",
            AssistChoice::Bypass => "bypass",
            AssistChoice::Victim => "victim",
        }
    }

    fn index(self) -> usize {
        match self {
            AssistChoice::Off => 0,
            AssistChoice::Bypass => 1,
            AssistChoice::Victim => 2,
        }
    }
}

/// Tuning knobs of the online controller. Part of the execution identity
/// (canonically serialized), so two runs differing in any field never
/// alias in the result store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Accesses to one region that make up one decision interval.
    pub interval_accesses: u32,
    /// Intervals each candidate is trialed for during explore.
    pub trial_intervals: u32,
    /// Exploit tolerance: an interval is "bad" when its misses exceed the
    /// locked-in baseline by more than this percentage.
    pub hysteresis_pct: u32,
    /// Consecutive bad intervals before the controller re-explores.
    pub hysteresis_intervals: u32,
    /// Distinct regions tracked; later regions share the overflow slot
    /// (which also serves `RegionId::NONE`).
    pub max_regions: usize,
    /// Way-duel floor: neither side of the regular/irregular L1 way duel
    /// ([`super::WayDuel`]) ever shrinks below this many ways.
    pub min_ways: u32,
    /// L1d accesses per way-duel adjustment interval.
    pub duel_accesses: u32,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            interval_accesses: 512,
            trial_intervals: 2,
            hysteresis_pct: 25,
            hysteresis_intervals: 2,
            max_regions: 64,
            min_ways: 1,
            duel_accesses: 4096,
        }
    }
}

/// One interval-boundary verdict: the policy applied from here on, and
/// whether that changed the previously applied policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The policy in force for the region after this boundary.
    pub choice: AssistChoice,
    /// True when the boundary changed the applied policy.
    pub switched: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Trialing `choice` (the candidate under test); `scores` accumulates
    /// per-candidate interval misses.
    Explore,
    /// Locked onto `choice`; watching interval misses against `baseline`.
    Exploit,
}

#[derive(Debug, Clone, PartialEq)]
struct RegionSlot {
    phase: Phase,
    /// The policy currently applied (the trial candidate during explore).
    choice: AssistChoice,
    /// Accesses seen in the current interval.
    accesses: u32,
    /// Misses seen in the current interval.
    misses: u64,
    /// Accumulated trial misses per candidate (explore only).
    scores: [u64; 3],
    /// Intervals completed for the current explore candidate.
    intervals_done: u32,
    /// Per-interval miss baseline of the locked-in winner (exploit only).
    baseline: u64,
    /// Consecutive exploit intervals over the hysteresis bound.
    bad_intervals: u32,
}

impl RegionSlot {
    fn new() -> RegionSlot {
        RegionSlot {
            phase: Phase::Explore,
            choice: AssistChoice::Off,
            accesses: 0,
            misses: 0,
            scores: [0; 3],
            intervals_done: 0,
            baseline: 0,
            bad_intervals: 0,
        }
    }
}

/// The online per-region policy controller.
///
/// Feed it one [`record_access`](AdaptController::record_access) per L1d
/// data access and read the applied policy back with
/// [`policy`](AdaptController::policy) *before* the access is served (the
/// decision for an interval is made at its boundary, so the policy a
/// lookup sees never depends on that lookup's own outcome).
///
/// ```
/// use selcache_mem::{AdaptController, AssistChoice, ControllerConfig};
/// use selcache_ir::RegionId;
///
/// let cfg = ControllerConfig { interval_accesses: 4, trial_intervals: 1, ..Default::default() };
/// let mut ctl = AdaptController::new(cfg);
/// let r = RegionId(0);
/// assert_eq!(ctl.policy(r), AssistChoice::Off); // explore starts at Off
/// for _ in 0..4 {
///     ctl.record_access(r, true); // every access misses
/// }
/// assert_eq!(ctl.policy(r), AssistChoice::Bypass); // next trial candidate
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptController {
    cfg: ControllerConfig,
    /// `max_regions` region slots plus one trailing overflow/NONE slot.
    slots: Vec<RegionSlot>,
    switches: u64,
}

impl AdaptController {
    /// A fresh controller: every region starts exploring at
    /// [`AssistChoice::Off`].
    pub fn new(cfg: ControllerConfig) -> AdaptController {
        let slots = vec![RegionSlot::new(); cfg.max_regions + 1];
        AdaptController { cfg, slots, switches: 0 }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Total policy switches applied so far (across all regions,
    /// including explore-phase candidate rotations — each is a real
    /// policy change the hardware acts on).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    fn slot_index(&self, region: RegionId) -> usize {
        let overflow = self.slots.len() - 1;
        if region.is_none() {
            overflow
        } else {
            region.index().min(overflow)
        }
    }

    /// The policy currently in force for `region`.
    pub fn policy(&self, region: RegionId) -> AssistChoice {
        self.slots[self.slot_index(region)].choice
    }

    /// Records one L1d access of `region` and its miss outcome. Returns a
    /// [`Decision`] at each interval boundary (and `None` inside an
    /// interval).
    pub fn record_access(&mut self, region: RegionId, missed: bool) -> Option<Decision> {
        let interval = self.cfg.interval_accesses.max(1);
        let idx = self.slot_index(region);
        let slot = &mut self.slots[idx];
        slot.accesses += 1;
        slot.misses += u64::from(missed);
        if slot.accesses < interval {
            return None;
        }
        let interval_misses = slot.misses;
        slot.accesses = 0;
        slot.misses = 0;
        let prev = slot.choice;
        match slot.phase {
            Phase::Explore => {
                slot.scores[slot.choice.index()] += interval_misses;
                slot.intervals_done += 1;
                if slot.intervals_done >= self.cfg.trial_intervals.max(1) {
                    slot.intervals_done = 0;
                    match slot.choice {
                        AssistChoice::Off => slot.choice = AssistChoice::Bypass,
                        AssistChoice::Bypass => slot.choice = AssistChoice::Victim,
                        AssistChoice::Victim => {
                            // All candidates trialed: lock in the argmin
                            // (ties favor the earlier candidate, i.e. Off).
                            let winner = AssistChoice::ALL
                                .into_iter()
                                .min_by_key(|c| (slot.scores[c.index()], c.index()))
                                .expect("ALL is non-empty");
                            slot.baseline = slot.scores[winner.index()]
                                / u64::from(self.cfg.trial_intervals.max(1));
                            slot.scores = [0; 3];
                            slot.bad_intervals = 0;
                            slot.choice = winner;
                            slot.phase = Phase::Exploit;
                        }
                    }
                }
            }
            Phase::Exploit => {
                let bound =
                    slot.baseline + slot.baseline * u64::from(self.cfg.hysteresis_pct) / 100;
                if interval_misses > bound {
                    slot.bad_intervals += 1;
                } else {
                    slot.bad_intervals = 0;
                }
                if slot.bad_intervals >= self.cfg.hysteresis_intervals.max(1) {
                    // The locked-in policy stopped paying: re-explore from
                    // the top of the candidate list.
                    slot.phase = Phase::Explore;
                    slot.choice = AssistChoice::Off;
                    slot.intervals_done = 0;
                    slot.bad_intervals = 0;
                }
            }
        }
        let switched = slot.choice != prev;
        if switched {
            self.switches += 1;
        }
        Some(Decision { choice: slot.choice, switched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ControllerConfig {
        ControllerConfig {
            interval_accesses: 4,
            trial_intervals: 1,
            hysteresis_pct: 25,
            hysteresis_intervals: 2,
            ..Default::default()
        }
    }

    /// Drives `intervals` whole intervals where `miss_of(i)` gives the
    /// miss outcome of access `i` within each interval.
    fn drive(
        ctl: &mut AdaptController,
        region: RegionId,
        intervals: u32,
        misses_per_interval: u32,
    ) {
        let per = ctl.cfg.interval_accesses;
        for _ in 0..intervals {
            for i in 0..per {
                ctl.record_access(region, i < misses_per_interval);
            }
        }
    }

    #[test]
    fn explore_rotates_candidates_in_order() {
        let mut ctl = AdaptController::new(tiny_cfg());
        let r = RegionId(0);
        assert_eq!(ctl.policy(r), AssistChoice::Off);
        drive(&mut ctl, r, 1, 4);
        assert_eq!(ctl.policy(r), AssistChoice::Bypass);
        drive(&mut ctl, r, 1, 4);
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        assert_eq!(ctl.switches(), 2);
    }

    #[test]
    fn converges_on_the_strictly_better_candidate() {
        // Synthetic region where victim strictly beats bypass (and off):
        // off misses 4/4, bypass 3/4, victim 1/4 per interval. After one
        // explore sweep the controller must lock in Victim, and with the
        // victim's miss level sustained it must stay locked in.
        let mut ctl = AdaptController::new(tiny_cfg());
        let r = RegionId(2);
        drive(&mut ctl, r, 1, 4); // Off trial
        drive(&mut ctl, r, 1, 3); // Bypass trial
        drive(&mut ctl, r, 1, 1); // Victim trial -> lock-in
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        let switches_at_lock_in = ctl.switches();
        drive(&mut ctl, r, 20, 1); // sustained at baseline: no churn
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        assert_eq!(ctl.switches(), switches_at_lock_in);
    }

    #[test]
    fn ties_prefer_off() {
        let mut ctl = AdaptController::new(tiny_cfg());
        let r = RegionId(0);
        drive(&mut ctl, r, 3, 2); // all three trials identical
        assert_eq!(ctl.policy(r), AssistChoice::Off);
    }

    #[test]
    fn hysteresis_tolerates_one_bad_interval_then_reexplores() {
        let mut ctl = AdaptController::new(tiny_cfg());
        let r = RegionId(1);
        drive(&mut ctl, r, 1, 4);
        drive(&mut ctl, r, 1, 3);
        drive(&mut ctl, r, 1, 1); // locks in Victim, baseline 1
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        drive(&mut ctl, r, 1, 4); // bad interval #1: tolerated
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        drive(&mut ctl, r, 1, 1); // back under the bound: counter resets
        drive(&mut ctl, r, 1, 4); // bad again, but not consecutive
        assert_eq!(ctl.policy(r), AssistChoice::Victim);
        drive(&mut ctl, r, 1, 4); // second consecutive bad -> re-explore
        assert_eq!(ctl.policy(r), AssistChoice::Off);
    }

    #[test]
    fn regions_are_independent_and_overflow_shares_a_slot() {
        let cfg = ControllerConfig { max_regions: 2, ..tiny_cfg() };
        let mut ctl = AdaptController::new(cfg);
        drive(&mut ctl, RegionId(0), 1, 4);
        assert_eq!(ctl.policy(RegionId(0)), AssistChoice::Bypass);
        assert_eq!(ctl.policy(RegionId(1)), AssistChoice::Off);
        // Region 5 and NONE are past max_regions: both land in the
        // overflow slot and observe the same state.
        drive(&mut ctl, RegionId(5), 1, 4);
        assert_eq!(ctl.policy(RegionId(5)), ctl.policy(RegionId::NONE));
        assert_eq!(ctl.policy(RegionId(5)), AssistChoice::Bypass);
    }

    #[test]
    fn decisions_fire_exactly_at_interval_boundaries() {
        let mut ctl = AdaptController::new(tiny_cfg());
        let r = RegionId(0);
        for i in 1..=12 {
            let d = ctl.record_access(r, true);
            assert_eq!(d.is_some(), i % 4 == 0, "access {i}");
            if let Some(d) = d {
                assert_eq!(d.choice, ctl.policy(r));
            }
        }
    }
}

//! Runtime watchdog for deployed timed plans.
//!
//! Planning ends with a [`crate::PlannedUpdate`]; deployment is where
//! timing faults live. This module is the controller-side tracker a
//! deployer drives while a timed plan is in flight: register each
//! scheduled update's nominal firing instant, report applies as their
//! confirmations arrive, and poll [`UpdateWatchdog::check`] — overdue
//! tasks come back as re-arm verdicts while the certified slack window
//! can still absorb the delay, and as a single rollback verdict once
//! it cannot.
//!
//! The decision logic is `chronus-faults`' [`RecoveryPolicy`] and the
//! tolerance is a [`SlackBudget`] — typically derived from the slack
//! certificate the engine's slack stage attached to the plan
//! ([`UpdateWatchdog::from_certificate`]), closing the loop from
//! *certified* tolerance to *enforced* tolerance. Counters flow
//! through a [`FaultStats`] scoped registry, so a deployment's
//! re-arm/rollback history exports next to the engine's planning
//! metrics.

use chronus_clock::Nanos;
use chronus_faults::{FaultStats, FaultSummary, RecoveryAction, RecoveryPolicy, SlackBudget};
use chronus_verify::SlackCertificate;

/// One tracked task: a scheduled update's nominal firing instant and
/// whether its apply has been confirmed.
#[derive(Clone, Copy, Debug)]
struct Tracked {
    nominal_ns: Nanos,
    applied: bool,
}

/// What the watchdog asks the deployer to do about the plan's overdue
/// tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchdogVerdict {
    /// Re-send `task` so it applies at `at` (true time, ns) — the
    /// delay stays inside the certified slack window.
    Rearm {
        /// The task to re-send (the id [`UpdateWatchdog::track`]
        /// returned).
        task: usize,
        /// When the re-sent update should apply (true time, ns).
        at: Nanos,
    },
    /// The slack window cannot absorb the delay: abandon the timed
    /// plan and complete the update through two-phase rollback.
    Rollback,
}

/// Controller-side deadline tracker for one deployed timed plan.
#[derive(Debug)]
pub struct UpdateWatchdog {
    policy: RecoveryPolicy,
    slack: SlackBudget,
    stats: FaultStats,
    tasks: Vec<Tracked>,
    rolled_back: bool,
}

impl UpdateWatchdog {
    /// A watchdog with an explicit re-arm margin (how long a re-sent
    /// update takes to land and apply) and slack budget.
    pub fn new(margin_ns: Nanos, slack: SlackBudget) -> Self {
        UpdateWatchdog {
            policy: RecoveryPolicy::new(margin_ns),
            slack,
            stats: FaultStats::new(),
            tasks: Vec::new(),
            rolled_back: false,
        }
    }

    /// A watchdog whose slack budget is taken from a slack
    /// certificate under the deployment's step length — the intended
    /// pairing with [`crate::PlannedUpdate::slack`].
    pub fn from_certificate(
        certificate: &SlackCertificate,
        step_ns: Nanos,
        margin_ns: Nanos,
    ) -> Self {
        Self::new(margin_ns, SlackBudget::new(certificate.delta_ns(step_ns)))
    }

    /// The slack budget recoveries are held to.
    pub fn slack(&self) -> SlackBudget {
        self.slack
    }

    /// Registers one scheduled update by its nominal firing instant
    /// (true time, ns), returning its task id.
    pub fn track(&mut self, nominal_ns: Nanos) -> usize {
        self.stats.record_armed();
        self.tasks.push(Tracked {
            nominal_ns,
            applied: false,
        });
        self.tasks.len() - 1
    }

    /// Confirms `task` applied at `at_ns`, recording its firing
    /// deviation. Returns `false` for an unknown or already-confirmed
    /// task (late duplicate confirmations are absorbed, not recounted).
    pub fn note_applied(&mut self, task: usize, at_ns: Nanos) -> bool {
        match self.tasks.get_mut(task) {
            Some(t) if !t.applied => {
                t.applied = true;
                self.stats.record_fired(at_ns - t.nominal_ns);
                true
            }
            _ => false,
        }
    }

    /// Polls the deadline check at true time `now`: every unconfirmed
    /// task past its margin gets a verdict. One rollback verdict
    /// replaces everything else — once any task's delay exceeds the
    /// slack window the whole timed plan is abandoned, and subsequent
    /// polls return nothing.
    pub fn check(&mut self, now: Nanos) -> Vec<WatchdogVerdict> {
        if self.rolled_back {
            return Vec::new();
        }
        let mut verdicts = Vec::new();
        for (task, t) in self.tasks.iter().enumerate() {
            if t.applied || now < t.nominal_ns + self.policy.margin_ns {
                continue;
            }
            match self.policy.decide(t.nominal_ns, now, self.slack) {
                RecoveryAction::Rearm { at } => {
                    self.stats.record_rearm();
                    verdicts.push(WatchdogVerdict::Rearm { task, at });
                }
                RecoveryAction::Rollback => {
                    self.rolled_back = true;
                    self.stats.record_rollback();
                    return vec![WatchdogVerdict::Rollback];
                }
            }
        }
        verdicts
    }

    /// Tasks registered but not yet confirmed applied.
    pub fn pending(&self) -> usize {
        self.tasks.iter().filter(|t| !t.applied).count()
    }

    /// `true` once a poll has abandoned the timed plan.
    pub fn rolled_back(&self) -> bool {
        self.rolled_back
    }

    /// The watchdog's live instruments (a `chronus_faults_*` scoped
    /// registry; see [`FaultStats::registry`] for exposition).
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Snapshot of the deployment's fault/recovery counters.
    pub fn summary(&self) -> FaultSummary {
        self.stats.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    #[test]
    fn on_time_applies_draw_no_verdicts() {
        let mut wd = UpdateWatchdog::new(10 * MS, SlackBudget::new(100 * MS));
        let a = wd.track(1_000 * MS);
        let b = wd.track(1_100 * MS);
        assert_eq!(wd.pending(), 2);
        assert!(wd.note_applied(a, 1_000 * MS + 20_000));
        assert!(wd.note_applied(b, 1_100 * MS - 15_000));
        assert!(!wd.note_applied(b, 1_100 * MS), "double confirm absorbed");
        assert!(!wd.note_applied(99, 0), "unknown task rejected");
        assert_eq!(wd.pending(), 0);
        assert!(wd.check(2_000 * MS).is_empty());
        let s = wd.summary();
        assert_eq!(s.triggers_armed, 2);
        assert_eq!(s.triggers_fired, 2);
        assert_eq!(s.max_fire_deviation_ns, 20_000);
        assert_eq!(s.rearms + s.rollbacks, 0);
    }

    #[test]
    fn overdue_task_rearms_within_slack_then_rolls_back() {
        let mut wd = UpdateWatchdog::new(10 * MS, SlackBudget::new(100 * MS));
        let task = wd.track(1_000 * MS);
        // Before the margin elapses: no verdict yet.
        assert!(wd.check(1_005 * MS).is_empty());
        // Past the margin, inside slack: re-arm as soon as possible.
        let v = wd.check(1_050 * MS);
        assert_eq!(
            v,
            vec![WatchdogVerdict::Rearm {
                task,
                at: 1_060 * MS
            }],
            "earliest landing = now + margin"
        );
        // Far past slack: the plan is abandoned — once.
        assert_eq!(wd.check(1_200 * MS), vec![WatchdogVerdict::Rollback]);
        assert!(wd.rolled_back());
        assert!(wd.check(1_300 * MS).is_empty(), "rollback is terminal");
        let s = wd.summary();
        assert_eq!(s.rearms, 1);
        assert_eq!(s.rollbacks, 1);
    }

    #[test]
    fn rollback_preempts_other_rearms_in_the_same_poll() {
        let mut wd = UpdateWatchdog::new(10 * MS, SlackBudget::new(20 * MS));
        wd.track(2_000 * MS); // will still be rearmable
        wd.track(1_000 * MS); // hopelessly late at poll time
        let v = wd.check(2_005 * MS);
        assert_eq!(v, vec![WatchdogVerdict::Rollback]);
        assert_eq!(wd.summary().rollbacks, 1);
    }

    #[test]
    fn certificate_derived_budget_matches_delta() {
        let wd = UpdateWatchdog::from_certificate(
            &SlackCertificate {
                slack_steps: 1,
                schedules_checked: 1,
                budget_exhausted: false,
            },
            100 * MS,
            10 * MS,
        );
        // One step of slack at a 100 ms step is Δ = step − 1 ns.
        assert_eq!(wd.slack().delta_ns, 100 * MS - 1);
    }
}

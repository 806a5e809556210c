//! Slack certificates: how much per-switch timing error a certified
//! schedule tolerates.
//!
//! A timed schedule assigns each `(flow, switch)` update a step
//! `t`; in deployment the switch fires at true time
//! `update_at + t·step ± δ`, where δ collects the post-sync residual
//! clock error, control-channel jitter and install latency. A
//! [`SlackCertificate`] proves a *uniform tolerance*: as long as every
//! trigger fires within `±Δ` of its nominal instant, the schedule
//! remains loop- and congestion-free.
//!
//! ## Why a finite check suffices
//!
//! The certifier's fluid model observes the data plane at integer
//! steps. A rule change displaced by a real offset δ is
//! indistinguishable, at that granularity, from an integer
//! re-scheduling of the same switch:
//!
//! - firing **early** by δ ∈ (0, step) changes nothing — no arrival
//!   between the perturbed and nominal instants — and early by
//!   δ ∈ [j·step, (j+1)·step) behaves exactly like step `t − j`;
//! - firing **late** by δ ∈ ((j−1)·step, j·step] behaves exactly like
//!   step `t + j`.
//!
//! Hence every real perturbation vector with `|δ_i| < k·step` maps to
//! an integer schedule with each entry displaced within
//! `{−(k−1), …, +k}`. Certifying that finite hypercube (entries below
//! step 0 are clamped out — the model starts at "now") certifies the
//! whole continuous box, soundly. The certificate reports
//! `slack_steps = k` for the largest fully-certified hypercube, i.e.
//! a guaranteed tolerance of `Δ = k·step − 1 ns` for any step length.
//!
//! The check is exhaustive and exponential in the number of schedule
//! entries, so the whole search is budgeted: it attempts tolerances up
//! to [`MAX_SLACK_STEPS`] and spends at most [`SLACK_BUDGET`]
//! perturbed-schedule certifications. A budget exhaustion stops
//! *growth* but never weakens what was already certified.

use crate::VerifyConfig;
use crate::{certify_with, Violation};
use chronus_net::{FlowId, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;

/// Largest tolerance (in steps) the slack search attempts to certify.
pub const MAX_SLACK_STEPS: TimeStep = 4;

/// Cap on perturbed-schedule certifications across one slack search.
pub const SLACK_BUDGET: usize = 4_096;

/// Proof that a schedule tolerates uniform per-switch timing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlackCertificate {
    /// Largest `k` such that every perturbation of every entry within
    /// `{−(k−1), …, +k}` steps certifies. `0` means only exact firing
    /// is certified (some single-step lateness already violates).
    pub slack_steps: TimeStep,
    /// Perturbed schedules certified during the search.
    pub schedules_checked: usize,
    /// The search stopped growing `k` because the certification
    /// budget ran out (the reported `slack_steps` is still sound).
    pub budget_exhausted: bool,
}

impl SlackCertificate {
    /// The certified tolerance in nanoseconds for an emulation with
    /// the given step length: any firing within ±Δ of nominal is
    /// covered. Zero when only exact firing is certified.
    pub fn delta_ns(&self, step_ns: i128) -> i128 {
        if self.slack_steps <= 0 {
            0
        } else {
            (self.slack_steps as i128) * step_ns - 1
        }
    }

    /// Does the certificate cover a measured deviation — e.g. the
    /// post-sync residual clock error from `two_way_sync` — under the
    /// given step length?
    pub fn covers_residual(&self, residual_ns: i128, step_ns: i128) -> bool {
        residual_ns.abs() <= self.delta_ns(step_ns)
    }
}

impl std::fmt::Display for SlackCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slack certificate: ±{} step(s) ({} schedules checked{})",
            self.slack_steps,
            self.schedules_checked,
            if self.budget_exhausted {
                ", budget exhausted"
            } else {
                ""
            }
        )
    }
}

/// Certifies the largest uniform timing tolerance for `schedule`.
///
/// Returns `Err` only when the *nominal* schedule itself fails
/// certification; otherwise the certificate reports the largest
/// fully-certified hypercube (possibly `slack_steps = 0`).
pub fn slack_certificate(
    instance: &UpdateInstance,
    schedule: &Schedule,
) -> Result<SlackCertificate, Violation> {
    let mut span = chronus_trace::span!(
        "verify.slack",
        entries = schedule.len() as u64,
        max_steps = MAX_SLACK_STEPS
    )
    .entered();
    // Load bounds and witnesses are irrelevant here; only the verdict
    // matters, for every perturbed variant.
    let quick = VerifyConfig {
        enabled: true,
        witnesses: false,
    };
    certify_with(instance, schedule, &quick)?;

    let entries: Vec<(FlowId, SwitchId, TimeStep)> = schedule.iter().collect();
    let mut checked = 0usize;
    let mut slack: TimeStep = 0;
    let mut budget_exhausted = false;

    'grow: for k in 1..=MAX_SLACK_STEPS {
        // Displacement menu per entry for tolerance k: −(k−1)…+k,
        // clamped so no entry moves below step 0.
        let menus: Vec<Vec<TimeStep>> = entries
            .iter()
            .map(|&(_, _, t)| ((-(k - 1)).max(-t)..=k).collect())
            .collect();
        // The hypercube has `2^entries` corners or more, so the product
        // overflows `usize` at 64 entries: an overflowing cube is simply
        // over budget.
        let within_budget = menus
            .iter()
            .try_fold(1usize, |cube, menu| cube.checked_mul(menu.len()))
            .and_then(|cube| checked.checked_add(cube))
            .is_some_and(|total| total <= SLACK_BUDGET);
        if !within_budget {
            budget_exhausted = true;
            break;
        }
        // Odometer over the hypercube.
        let mut digits = vec![0usize; menus.len()];
        loop {
            let mut perturbed = schedule.clone();
            for (idx, &(flow, switch, t)) in entries.iter().enumerate() {
                let menu = match menus.get(idx) {
                    Some(m) => m,
                    None => continue,
                };
                let offset = digits
                    .get(idx)
                    .and_then(|&d| menu.get(d))
                    .copied()
                    .unwrap_or(0);
                perturbed.set(flow, switch, t + offset);
            }
            checked += 1;
            if certify_with(instance, &perturbed, &quick).is_err() {
                break 'grow;
            }
            // Advance the odometer.
            let mut pos = 0usize;
            while let (Some(d), Some(menu)) = (digits.get_mut(pos), menus.get(pos)) {
                *d += 1;
                if *d < menu.len() {
                    break;
                }
                *d = 0;
                pos += 1;
            }
            if pos >= menus.len() {
                break;
            }
        }
        slack = k;
    }

    if span.is_recording() {
        span.record("slack_steps", slack);
        span.record("schedules_checked", checked as u64);
    }
    Ok(SlackCertificate {
        slack_steps: slack,
        schedules_checked: checked,
        budget_exhausted,
    })
}

/// Re-validates a slack certificate the cheap way: spot-checks that
/// the certified hypercube's corner schedules still certify. Full
/// re-validation is re-running [`slack_certificate`].
pub fn check_slack(
    instance: &UpdateInstance,
    schedule: &Schedule,
    cert: &SlackCertificate,
) -> Result<(), Violation> {
    if cert.slack_steps <= 0 {
        return Ok(());
    }
    let quick = VerifyConfig {
        enabled: true,
        witnesses: false,
    };
    let k = cert.slack_steps;
    for corner in [-(k - 1), k] {
        let mut perturbed = schedule.clone();
        for (flow, switch, t) in schedule.iter() {
            perturbed.set(flow, switch, (t + corner).max(0));
        }
        certify_with(instance, &perturbed, &quick)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn staged() -> Schedule {
        Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 1), (sid(0), 2), (sid(3), 2)],
        )
    }

    #[test]
    fn nominal_violation_propagates() {
        let inst = motivating_example();
        let naive = Schedule::all_at_zero(&inst);
        assert!(slack_certificate(&inst, &naive).is_err());
    }

    #[test]
    fn staged_plan_has_positive_slack_or_a_counterexample() {
        let inst = motivating_example();
        let cert = slack_certificate(&inst, &staged()).expect("staged plan certifies");
        assert!(cert.schedules_checked > 0);
        // Either some tolerance was certified and re-validates, or a
        // k=1 perturbation violated: the 16-corner cube is well within
        // budget, so the budget cannot be what stopped the search.
        if cert.slack_steps == 0 {
            assert!(!cert.budget_exhausted, "{cert}");
        } else {
            assert!(check_slack(&inst, &staged(), &cert).is_ok());
        }
        println!("{cert}");
    }

    #[test]
    fn dilating_a_tight_plan_buys_slack() {
        // The greedy staged plan is *tight*: each dependency is
        // separated by exactly one step, so displacing e.g. switch 1
        // onto switch 2's step re-creates the transient loop and the
        // uniform slack is 0. Stretching every gap (t → 2t) trades
        // makespan for tolerance: the dilated plan certifies ±1 step.
        let inst = motivating_example();
        let tight = slack_certificate(&inst, &staged()).expect("staged plan certifies");
        assert_eq!(tight.slack_steps, 0, "{tight}");

        let dilated = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 2), (sid(0), 4), (sid(3), 4)],
        );
        let cert = slack_certificate(&inst, &dilated).expect("dilated plan certifies");
        assert!(cert.slack_steps >= 1, "{cert}");
        assert!(cert.delta_ns(100_000_000) >= 99_999_999);
        assert!(check_slack(&inst, &dilated, &cert).is_ok());
    }

    #[test]
    fn delta_ns_converts_steps_to_time() {
        let cert = SlackCertificate {
            slack_steps: 2,
            schedules_checked: 1,
            budget_exhausted: false,
        };
        let step = 100_000_000i128; // 100 ms
        assert_eq!(cert.delta_ns(step), 199_999_999);
        assert!(cert.covers_residual(1_000, step));
        assert!(cert.covers_residual(-199_999_999, step));
        assert!(!cert.covers_residual(200_000_000, step));

        let zero = SlackCertificate {
            slack_steps: 0,
            ..cert
        };
        assert_eq!(zero.delta_ns(step), 0);
        assert!(zero.covers_residual(0, step));
        assert!(!zero.covers_residual(1, step));
    }

    /// A certifying schedule for a reversal migration over an
    /// `n`-switch line: the exit shortcut first, then each reversed hop
    /// once everything downstream of it is new, and the entry shortcut
    /// last — `n − 1` entries.
    fn reversal(n: u32) -> (UpdateInstance, Schedule) {
        let inst = chronus_net::reversal_instance(n as usize, 2, 1);
        let mut pairs: Vec<(SwitchId, TimeStep)> = (1..n - 1)
            .map(|i| (sid(i), TimeStep::from(i) - 1))
            .collect();
        pairs.push((sid(0), TimeStep::from(n) - 2));
        (inst, Schedule::from_pairs(FlowId(0), pairs))
    }

    #[test]
    fn budget_exhaustion_is_reported_not_fatal() {
        // 14 entries: the k = 1 hypercube has 2^14 corners, more than
        // the budget but far from overflowing `usize`.
        let (inst, s) = reversal(15);
        assert_eq!(s.len(), 14);
        assert!(1usize << s.len() > SLACK_BUDGET);
        let cert = slack_certificate(&inst, &s).expect("nominal certifies");
        assert_eq!(cert.slack_steps, 0);
        assert!(cert.budget_exhausted);
        assert_eq!(
            cert.schedules_checked, 0,
            "an over-budget cube is not walked"
        );
    }

    #[test]
    fn hypercube_past_usize_is_budget_exhausted() {
        // A reversal migration over a 70-switch line has 69 schedule
        // entries, so even the k = 1 hypercube (2^69 corners) overflows
        // `usize`. The search must report the budget as exhausted
        // instead of wrapping the corner count and walking the cube.
        let (inst, s) = reversal(70);
        assert!(s.len() >= 64);
        let cert = slack_certificate(&inst, &s).expect("nominal certifies");
        assert!(cert.budget_exhausted, "{cert}");
        assert_eq!(cert.slack_steps, 0);
        assert!(cert.schedules_checked <= SLACK_BUDGET);
    }

    #[test]
    fn single_entry_schedule_slack() {
        // Old 0→1→2→3 shortcut to 0→2→3: only the source flips its
        // next hop, every downstream switch keeps its old rule, and
        // capacities are ample — moving the single update around can
        // neither loop, blackhole, nor congest, so the slack reaches
        // MAX_SLACK_STEPS.
        let mut b = chronus_net::NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 10, 1).unwrap();
        b.add_link(sid(1), sid(2), 10, 1).unwrap();
        b.add_link(sid(2), sid(3), 10, 1).unwrap();
        b.add_link(sid(0), sid(2), 10, 1).unwrap();
        let net = b.build();
        let flow = chronus_net::Flow::new(
            FlowId(0),
            1,
            chronus_net::Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            chronus_net::Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(net, flow).unwrap();
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 1)]);
        let cert = slack_certificate(&inst, &s).expect("certifies");
        assert_eq!(cert.slack_steps, MAX_SLACK_STEPS, "{cert}");
        assert!(!cert.budget_exhausted);
        assert!(check_slack(&inst, &s, &cert).is_ok());
    }
}

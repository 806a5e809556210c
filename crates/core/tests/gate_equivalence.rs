//! Prefix-safety oracle for the incremental exact gate.
//!
//! The greedy loop commits a candidate only when the incremental
//! simulator says the extended partial schedule is consistent. The
//! full `FluidSimulator` is the oracle for that answer: for every
//! round of a default greedy run, the schedule committed through that
//! round must simulate `Consistent` from scratch. Rejection-side
//! equivalence (incremental ≡ full verdict after arbitrary apply/undo)
//! is pinned by `chronus-timenet`'s `tests/incremental_props.rs`.

use chronus_core::greedy::{greedy_schedule_with, GreedyConfig};
use chronus_net::{
    motivating_example, reversal_instance, InstanceGenerator, InstanceGeneratorConfig,
    UpdateInstance,
};
use chronus_timenet::{FluidSimulator, Schedule, Verdict};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Rebuilds every committed prefix of a default greedy run from its
/// round trace and re-simulates each one with the full simulator.
/// Post-hoc certification is off: it never changes the schedule, and
/// with it on a gate that admitted a bad commit would surface as a
/// certification error, skipping the instance instead of failing here.
/// Returns whether greedy found a schedule to check.
fn assert_prefix_safe(inst: &UpdateInstance) -> bool {
    let config = GreedyConfig {
        verify: chronus_verify::VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };
    let Ok(out) = greedy_schedule_with(inst, config) else {
        return false;
    };
    let committed: BTreeSet<_> = out
        .rounds
        .iter()
        .flat_map(|r| r.committed.iter().copied())
        .collect();
    // The fresh pre-pass: every entry no round committed, all at 0.
    let mut prefix = Schedule::new();
    for (flow, switch, t) in out.schedule.iter() {
        if !committed.contains(&(flow, switch)) {
            assert_eq!(t, 0, "fresh activation of {switch:?} off step 0");
            prefix.set(flow, switch, t);
        }
    }
    let check = |prefix: &Schedule, what: &str| {
        let report = FluidSimulator::check(inst, prefix);
        assert_eq!(report.verdict(), Verdict::Consistent, "{what}: {report}");
    };
    check(&prefix, "fresh pre-pass");
    for round in &out.rounds {
        for &(flow, switch) in &round.committed {
            prefix.set(flow, switch, round.time);
        }
        check(&prefix, &format!("prefix through t={}", round.time));
    }
    assert_eq!(prefix, out.schedule, "the last prefix is the schedule");
    true
}

#[test]
fn motivating_example_is_prefix_safe() {
    assert!(assert_prefix_safe(&motivating_example()));
}

#[test]
fn reversal_instances_are_prefix_safe() {
    for n in 4..9 {
        assert!(assert_prefix_safe(&reversal_instance(n, 2, 1)));
        // Capacity 1 with demand 1 is the congestion-tight variant.
        assert_prefix_safe(&reversal_instance(n, 1, 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_paper_instances_are_prefix_safe(
        switches in 6usize..24,
        seed in 0u64..10_000,
    ) {
        let cfg = InstanceGeneratorConfig::paper(switches, seed);
        if let Some(inst) = InstanceGenerator::new(cfg).generate() {
            assert_prefix_safe(&inst);
        }
    }
}

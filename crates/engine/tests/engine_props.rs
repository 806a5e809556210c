//! Engine-level properties: concurrent planning is observationally
//! equivalent to sequential planning, deadlines degrade rather than
//! fail, and batches leave fully certified.

use chronus_engine::{
    plan_sequential, Engine, EngineConfig, PlanKind, Stage, StageOutcome, UpdateRequest,
};
use chronus_net::{motivating_example, reversal_instance, UpdateInstance};
use chronus_timenet::{FluidSimulator, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// A batch of known-feasible single-flow instances drawn from `seed`:
/// path reversals of varying length mixed with the paper's worked
/// example.
fn seeded_batch(seed: u64, len: usize) -> Vec<UpdateRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let inst = if rng.gen_bool(0.25) {
                motivating_example()
            } else {
                let n = rng.gen_range(4usize..=8);
                reversal_instance(n, 2, 1)
            };
            UpdateRequest::new(i as u64, Arc::new(inst), Duration::from_secs(30))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Planning a batch on N workers yields byte-identical schedules
    /// to planning the same requests sequentially in request order.
    fn concurrent_batch_equals_sequential(seed in 0u64..10_000, workers in 1usize..5) {
        let requests = seeded_batch(seed, 10);
        let sequential = plan_sequential(&requests);
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let concurrent = engine.plan_batch(requests);
        prop_assert_eq!(concurrent.len(), sequential.len());
        for (c, s) in concurrent.iter().zip(&sequential) {
            prop_assert_eq!(c.id, s.id);
            prop_assert_eq!(c.winner, s.winner);
            // Byte-identical: the rendered schedules match exactly.
            let (cs, ss) = (c.plan.schedule(), s.plan.schedule());
            prop_assert_eq!(cs.is_some(), ss.is_some());
            if let (Some(cs), Some(ss)) = (cs, ss) {
                prop_assert_eq!(cs, ss);
                prop_assert_eq!(cs.to_string(), ss.to_string());
            }
        }
    }

    /// Every schedule the engine emits is certified consistent by the
    /// exact simulator.
    fn engine_schedules_are_consistent(seed in 0u64..10_000) {
        let requests = seeded_batch(seed, 6);
        let instances: Vec<Arc<UpdateInstance>> =
            requests.iter().map(|r| r.instance.clone()).collect();
        let engine = Engine::new(EngineConfig::with_workers(3));
        let plans = engine.plan_batch(requests);
        for (plan, inst) in plans.iter().zip(&instances) {
            let schedule = plan.plan.schedule().expect("feasible batch plans timed");
            let report = FluidSimulator::check(inst, schedule);
            prop_assert_eq!(report.verdict(), Verdict::Consistent);
        }
    }
}

#[test]
fn induced_timeout_falls_back_to_two_phase() {
    // Deadline already spent: the optimizing stages are skipped and
    // every request still leaves with a consistent two-phase plan —
    // a timeout is a degradation, not an error.
    let engine = Engine::new(EngineConfig::with_workers(2));
    let requests: Vec<UpdateRequest> = (0..6)
        .map(|i| UpdateRequest::new(i, Arc::new(motivating_example()), Duration::ZERO))
        .collect();
    let plans = engine.plan_batch(requests);
    assert_eq!(plans.len(), 6);
    for p in &plans {
        assert_eq!(p.winner, Stage::TwoPhase);
        assert!(p.deadline_exceeded);
        assert!(matches!(p.plan, PlanKind::TwoPhase(_)));
        for stage in [Stage::Greedy, Stage::Tree] {
            assert!(
                matches!(p.attempt(stage).unwrap().outcome, StageOutcome::Skipped(_)),
                "optimizing stages skipped under a spent deadline"
            );
        }
    }
    let report = engine.report();
    assert_eq!(report.timeouts, 6);
    assert_eq!(report.two_phase.wins, 6);
}

#[test]
fn fifty_flow_batch_plans_and_certifies() {
    // The acceptance batch: 50 flows through the fallback chain on a
    // worker pool, every schedule certified Consistent by the exact
    // simulator.
    let instances: Vec<Arc<UpdateInstance>> = (0..50)
        .map(|i| match i % 6 {
            0 => Arc::new(motivating_example()),
            r => Arc::new(reversal_instance(3 + r, 2, 1)),
        })
        .collect();
    let engine = Engine::new(EngineConfig::with_workers(4));
    let plans = engine.plan_instances(instances.clone());
    assert_eq!(plans.len(), 50);
    for (i, (plan, inst)) in plans.iter().zip(&instances).enumerate() {
        assert_eq!(plan.id.0, i as u64, "submission order");
        let schedule = plan
            .plan
            .schedule()
            .expect("all batch members are greedy-feasible");
        let report = FluidSimulator::check(inst, schedule);
        assert_eq!(report.verdict(), Verdict::Consistent, "flow {i}");
    }
    let report = engine.report();
    assert_eq!(report.completed, 50);
    assert_eq!(report.greedy.wins, 50);
}

//! Plan a 50-flow batch on the engine, then drive every flow through
//! the emulated data plane.
//!
//! ```text
//! cargo run --example batched_updates
//! ```
//!
//! Fifty update instances (the paper's Fig. 1 example mixed with path
//! reversals of several sizes) are submitted to a 4-worker
//! `chronus-engine`. Each request walks the greedy → tree → two-phase
//! fallback chain under its deadline; the batch report shows which
//! stage won and per-stage latencies. Every emitted schedule is certified by the exact fluid
//! simulator, then replayed on the discrete-event emulator through the
//! `Engine` update driver — the full controller path from "please move
//! these flows" to packets on the wire.

use chronus::emu::{EmuConfig, Emulator, UpdateDriver};
use chronus::engine::{Engine, EngineConfig, Stage};
use chronus::net::{motivating_example, reversal_instance, UpdateInstance};
use chronus::timenet::{FluidSimulator, Verdict};
use std::sync::Arc;

fn main() {
    // The batch: six instance shapes cycled over 50 flows.
    let instances: Vec<Arc<UpdateInstance>> = (0..50)
        .map(|i| match i % 6 {
            0 => Arc::new(motivating_example()),
            r => Arc::new(reversal_instance(3 + r, 2, 1)),
        })
        .collect();

    println!("planning 50 flows on a 4-worker engine...\n");
    let engine = Engine::new(EngineConfig::with_workers(4));
    let plans = engine.plan_instances(instances.clone());

    // Per-flow outcome, certified against the exact simulator.
    let mut by_stage = [0usize; 4];
    for (plan, inst) in plans.iter().zip(&instances) {
        by_stage[match plan.winner {
            Stage::Sharded => 0,
            Stage::Greedy => 1,
            Stage::Tree => 2,
            Stage::TwoPhase => 3,
        }] += 1;
        if let Some(schedule) = plan.plan.schedule() {
            let report = FluidSimulator::check(inst, schedule);
            assert_eq!(report.verdict(), Verdict::Consistent, "{}", plan.id);
        }
    }
    println!(
        "winners: sharded {} | greedy {} | tree {} | two-phase {}",
        by_stage[0], by_stage[1], by_stage[2], by_stage[3]
    );
    println!("all timed schedules certified Consistent by the fluid simulator\n");
    println!("{}", engine.report());

    // Replay a sample of the batch on the emulated data plane: the
    // Engine driver re-plans at install time and fires the winning
    // plan's FlowMods (timed triggers for a schedule, version flip for
    // a two-phase fallback).
    println!("\nreplaying 10 of the flows on the emulator...");
    let mut ttl = 0;
    let mut buf = 0;
    for (i, inst) in instances.iter().step_by(5).enumerate() {
        let mut emu = Emulator::new(inst, EmuConfig::default(), i as u64);
        emu.install_driver(UpdateDriver::engine(inst.clone(), 2));
        let report = emu.run();
        ttl += report.ttl_drops;
        buf += report.buffer_drops;
    }
    println!("emulator replay: {ttl} TTL drops, {buf} buffer drops");
    assert_eq!(ttl, 0, "certified schedules never loop packets");
}

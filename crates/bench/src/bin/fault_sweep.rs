//! Certified fault sweep: the end-to-end robustness gate for the
//! fault-injection + reliable-delivery + slack-recovery stack.
//!
//! Usage: `fault_sweep [seeds]` (default 1000).
//!
//! For every seed the sweep runs the motivating example's timed update
//! through the emulator with faults injected on the control channel:
//!
//! - message drops with per-seed probability up to 20%;
//! - one switch-agent reboot that wipes armed triggers, timed to end
//!   before the update window so recovery re-arms can land;
//! - the reliable-delivery protocol (acks, exponential-backoff
//!   retransmission, receiver dedup) defending the channel;
//! - a slack budget taken from a real `chronus-verify` certificate
//!   over the dilated greedy schedule, bounding watchdog re-arms.
//!
//! Every run must end *certified*: all timed tasks applied, no
//! rollback, and a clean data plane (no loops, blackholes or drops).
//! Any seed that fails is reported and the process exits non-zero —
//! this binary is a CI gate, not a demo.
//!
//! The sweep also prints the trigger-executor scaling check: 10 000
//! triggers drained through the `BinaryHeap` `ScheduledExecutor`
//! versus a naive rescan-on-every-advance executor (the shape of the
//! pre-fix implementation), timed side by side. The print is
//! informational, like `bench_check`'s `gate_nanos` series: wall-clock
//! ratios drift with hardware, correctness gates do not.

#![forbid(unsafe_code)]

use chronus_clock::{HardwareClock, Nanos, ScheduledExecutor};
use chronus_core::greedy::greedy_schedule;
use chronus_emu::{EmuConfig, Emulator, UpdateDriver};
use chronus_faults::{FaultPlan, FaultSummary, ReliableConfig};
use chronus_net::{motivating_example, SwitchId};
use chronus_verify::slack_certificate;
use std::process::ExitCode;
use std::time::Instant;

/// Schedule-time dilation factor: the greedy packing certifies zero
/// slack on the motivating example; ×2 buys a full step of certified
/// tolerance (Δ ≈ one 100 ms step) for the watchdog to spend.
const DILATION: i64 = 2;

/// A naive trigger executor with the pre-fix shape: armed triggers in
/// a flat vector, every `advance_to` rescanning everything — O(n) per
/// firing, O(n²) to drain n triggers one by one.
struct NaiveExecutor {
    clock: HardwareClock,
    armed: Vec<(Nanos, u64)>,
}

impl NaiveExecutor {
    fn new(clock: HardwareClock) -> Self {
        NaiveExecutor {
            clock,
            armed: Vec::new(),
        }
    }

    fn arm(&mut self, local_time: Nanos, payload: u64) {
        self.armed.push((local_time, payload));
    }

    fn advance_to(&mut self, now: Nanos) -> Vec<(Nanos, u64)> {
        let local_now = self.clock.read(now);
        let mut fired: Vec<(Nanos, u64)> = Vec::new();
        let mut i = 0;
        while i < self.armed.len() {
            if self.armed[i].0 <= local_now {
                fired.push(self.armed.remove(i));
            } else {
                i += 1;
            }
        }
        fired.sort_unstable();
        fired
    }
}

/// Drains `n` triggers one firing per `advance_to` call through both
/// executors and prints the wall-clock comparison.
fn executor_scaling_check(n: usize) {
    let clock = HardwareClock::perfect();

    let start = Instant::now();
    let mut heap = ScheduledExecutor::new(clock);
    for i in 0..n {
        heap.arm(i as Nanos, i as u64);
    }
    let mut heap_fired = 0usize;
    for t in 0..n {
        heap_fired += heap.advance_to(t as Nanos).len();
    }
    let heap_elapsed = start.elapsed();

    let start = Instant::now();
    let mut naive = NaiveExecutor::new(clock);
    for i in 0..n {
        naive.arm(i as Nanos, i as u64);
    }
    let mut naive_fired = 0usize;
    for t in 0..n {
        naive_fired += naive.advance_to(t as Nanos).len();
    }
    let naive_elapsed = start.elapsed();

    assert_eq!(heap_fired, n);
    assert_eq!(naive_fired, n);
    let speedup = naive_elapsed.as_nanos() as f64 / heap_elapsed.as_nanos().max(1) as f64;
    println!(
        "info: executor drain of {n} triggers: heap {heap_elapsed:?}, \
         naive rescan {naive_elapsed:?} ({speedup:.0}x) — O(n log n) vs O(n^2)"
    );
}

fn main() -> ExitCode {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);

    let inst = motivating_example();
    let schedule = greedy_schedule(&inst)
        .expect("the motivating example is greedy-schedulable")
        .schedule
        .dilated(DILATION);
    let cert = slack_certificate(&inst, &schedule).expect("the dilated schedule certifies");
    assert!(
        cert.slack_steps >= 1,
        "dilation must buy at least one step of slack, got {}",
        cert.slack_steps
    );
    let config = EmuConfig {
        run_for: 8_000_000_000,
        update_at: 2_000_000_000,
        ..EmuConfig::default()
    };
    println!(
        "fault sweep: {seeds} seeds, drop <= 20%, one reboot, slack {} step(s) (delta {} ns)",
        cert.slack_steps,
        cert.delta_ns(config.step_ns)
    );

    let started = Instant::now();
    let mut failures = 0u64;
    let mut totals = FaultSummary::default();
    let mut max_deviation = 0u64;
    for seed in 0..seeds {
        // Per-seed fault mix: loss rate sweeps 0..=20%, the rebooting
        // switch cycles through the scheduled ones, and the outage
        // always ends before the update window opens at 2 s.
        let drop_prob = (seed % 21) as f64 / 100.0;
        let reboot_switch = SwitchId((seed % 4) as u32);
        let reboot_at = 1_000_000_000 + (seed % 5) as Nanos * 100_000_000;
        let outage = 200_000_000 + (seed % 3) as Nanos * 100_000_000;
        let plan = FaultPlan::lossy(seed, drop_prob).with_reboot(reboot_at, reboot_switch, outage);

        let mut emu = Emulator::new(&inst, config, seed);
        emu.install_faults_certified(plan, ReliableConfig::default(), &cert);
        emu.install_driver(UpdateDriver::chronus(schedule.clone(), &inst));
        let report = emu.run();

        let f = report.faults.expect("faults were installed");
        totals.drops += f.drops;
        totals.dups += f.dups;
        totals.retransmits += f.retransmits;
        totals.exhausted += f.exhausted;
        totals.reboots += f.reboots;
        totals.triggers_lost += f.triggers_lost;
        totals.rearms += f.rearms;
        totals.rollbacks += f.rollbacks;
        max_deviation = max_deviation.max(f.max_fire_deviation_ns);

        let certified = report.timed_tasks_pending == 0 && !report.rolled_back && report.clean();
        if !certified {
            failures += 1;
            eprintln!(
                "FAIL: seed {seed} (drop {drop_prob:.2}, reboot {reboot_switch} at {reboot_at}): \
                 pending {}, rolled_back {}, ttl_drops {}, misses {}, buffer_drops {}\n  {f}",
                report.timed_tasks_pending,
                report.rolled_back,
                report.ttl_drops,
                report.table_misses,
                report.buffer_drops
            );
        }
    }

    println!(
        "swept {seeds} seeds in {:?}: {} drops, {} dups, {} retransmits, {} exhausted, \
         {} reboots ({} triggers lost), {} rearms, {} rollbacks",
        started.elapsed(),
        totals.drops,
        totals.dups,
        totals.retransmits,
        totals.exhausted,
        totals.reboots,
        totals.triggers_lost,
        totals.rearms,
        totals.rollbacks
    );
    println!(
        "max firing deviation {} ns vs certified delta {} ns",
        max_deviation,
        cert.delta_ns(config.step_ns)
    );
    if max_deviation > cert.delta_ns(config.step_ns).max(0) as u64 {
        eprintln!("FAIL: a firing strayed outside the certified slack window");
        failures += 1;
    }

    executor_scaling_check(10_000);

    if failures > 0 {
        eprintln!("fault_sweep: {failures} run(s) ended uncertified");
        ExitCode::FAILURE
    } else {
        println!("fault_sweep: all {seeds} runs ended certified");
        ExitCode::SUCCESS
    }
}

//! Engine-level planning metrics.
//!
//! The counters live in a per-engine [`MetricsRegistry`]
//! (`chronus-trace`), under `chronus_engine_*` names; the recording
//! methods write through cached lock-free handles, so the hot path
//! never takes the registry lock. [`PlanReport`] is a derived view
//! over the registry — the same numbers are exportable as Prometheus
//! text or a JSON snapshot via [`EngineMetrics::registry`].
//!
//! One registry per [`crate::Engine`] instance (not process-global)
//! keeps concurrent engines — and the test suite's parallel engine
//! tests — from bleeding counts into each other; callers that want a
//! whole-process rollup absorb each snapshot into
//! [`MetricsRegistry::global`].

use crate::fallback::{PlannedUpdate, Stage, StageOutcome};
use chronus_net::TimeStep;
use chronus_timenet::GateStats;
use chronus_trace::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use chronus_verify::SlackCertificate;
use std::fmt;
use std::time::Duration;

/// Cached handles for one fallback stage's instruments.
struct StageHandles {
    attempts: Counter,
    wins: Counter,
    failures: Counter,
    skips: Counter,
    nanos: Histogram,
}

impl StageHandles {
    fn new(registry: &MetricsRegistry, stage: &str) -> Self {
        let name = |suffix: &str| format!("chronus_engine_{stage}_{suffix}");
        StageHandles {
            attempts: registry.counter(&name("attempts_total")),
            wins: registry.counter(&name("wins_total")),
            failures: registry.counter(&name("failures_total")),
            skips: registry.counter(&name("skips_total")),
            nanos: registry.histogram(&name("stage_ns")),
        }
    }

    fn stats(&self) -> StageStats {
        StageStats {
            attempts: self.attempts.get(),
            wins: self.wins.get(),
            failures: self.failures.get(),
            skips: self.skips.get(),
            total: Duration::from_nanos(self.nanos.sum()),
        }
    }
}

/// Shared instruments every worker records into, backed by one
/// registry per engine.
pub struct EngineMetrics {
    registry: MetricsRegistry,
    sharded: StageHandles,
    greedy: StageHandles,
    tree: StageHandles,
    tp: StageHandles,
    shard_shards_planned: Counter,
    shard_replan_rounds: Counter,
    shard_conflicts: Counter,
    shard_joint_fallbacks: Counter,
    shard_cross_links: Gauge,
    shard_shared_links: Gauge,
    gate_incremental_checks: Counter,
    gate_full_checks: Counter,
    greedy_arena_bytes: Gauge,
    gate_ledger_applies: Counter,
    gate_ledger_undos: Counter,
    gate_cells_touched: Counter,
    gate_full_equivalent_cells: Counter,
    certs_issued: Counter,
    certs_failed: Counter,
    certs_skipped: Counter,
    slack_certified: Counter,
    slack_dilated: Counter,
    slack_target_missed: Counter,
    slack_uncertifiable: Counter,
    slack_schedules_checked: Counter,
    slack_steps: Histogram,
    slack_nanos: Histogram,
    submitted: Counter,
    completed: Counter,
    timeouts: Counter,
    queue_depth: Gauge,
    queue_peak: Gauge,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineMetrics")
            .field("snapshot", &self.registry.snapshot())
            .finish()
    }
}

impl EngineMetrics {
    /// Fresh, zeroed metrics over a new scoped registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(name);
        EngineMetrics {
            sharded: StageHandles::new(&registry, "sharded"),
            greedy: StageHandles::new(&registry, "greedy"),
            tree: StageHandles::new(&registry, "tree"),
            tp: StageHandles::new(&registry, "two_phase"),
            shard_shards_planned: counter("chronus_engine_shard_shards_planned_total"),
            shard_replan_rounds: counter("chronus_engine_shard_replan_rounds_total"),
            shard_conflicts: counter("chronus_engine_shard_conflicts_total"),
            shard_joint_fallbacks: counter("chronus_engine_shard_joint_fallbacks_total"),
            shard_cross_links: registry.gauge("chronus_engine_shard_cross_links"),
            shard_shared_links: registry.gauge("chronus_engine_shard_shared_links"),
            gate_incremental_checks: counter("chronus_engine_gate_incremental_checks_total"),
            gate_full_checks: counter("chronus_engine_gate_full_checks_total"),
            greedy_arena_bytes: registry.gauge("chronus_engine_greedy_arena_bytes"),
            gate_ledger_applies: counter("chronus_engine_gate_ledger_applies_total"),
            gate_ledger_undos: counter("chronus_engine_gate_ledger_undos_total"),
            gate_cells_touched: counter("chronus_engine_gate_cells_touched_total"),
            gate_full_equivalent_cells: counter("chronus_engine_gate_full_equivalent_cells_total"),
            certs_issued: counter("chronus_engine_certs_issued_total"),
            certs_failed: counter("chronus_engine_certs_failed_total"),
            certs_skipped: counter("chronus_engine_certs_skipped_total"),
            slack_certified: counter("chronus_engine_slack_certified_total"),
            slack_dilated: counter("chronus_engine_slack_dilated_total"),
            slack_target_missed: counter("chronus_engine_slack_target_missed_total"),
            slack_uncertifiable: counter("chronus_engine_slack_uncertifiable_total"),
            slack_schedules_checked: counter("chronus_engine_slack_schedules_checked_total"),
            slack_steps: registry.histogram("chronus_engine_slack_steps"),
            slack_nanos: registry.histogram("chronus_engine_slack_stage_ns"),
            submitted: counter("chronus_engine_requests_submitted_total"),
            completed: counter("chronus_engine_requests_completed_total"),
            timeouts: counter("chronus_engine_deadline_timeouts_total"),
            queue_depth: registry.gauge("chronus_engine_queue_depth"),
            queue_peak: registry.gauge("chronus_engine_queue_peak"),
            registry,
        }
    }

    /// The engine-scoped metrics registry backing every counter here,
    /// for Prometheus text exposition
    /// ([`MetricsRegistry::to_prometheus`]), JSON snapshots, or
    /// absorption into [`MetricsRegistry::global`].
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Point-in-time snapshot of every `chronus_engine_*` instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    fn stage(&self, stage: Stage) -> &StageHandles {
        match stage {
            Stage::Sharded => &self.sharded,
            Stage::Greedy => &self.greedy,
            Stage::Tree => &self.tree,
            Stage::TwoPhase => &self.tp,
        }
    }

    /// Folds one sharded-stage run's statistics into the engine
    /// totals: shards planned, replan rounds burned, reservation
    /// conflicts, and joint fallbacks; the gauges keep the largest
    /// partition-complexity seen.
    pub fn record_shard(&self, stats: &chronus_core::shard::ShardStats) {
        self.shard_shards_planned.add(stats.shards as u64);
        self.shard_replan_rounds.add(stats.replan_rounds as u64);
        self.shard_conflicts.add(stats.conflicts as u64);
        if stats.fell_back_joint {
            self.shard_joint_fallbacks.inc();
        }
        self.shard_cross_links
            .max(stats.cross_links.min(i64::MAX as usize) as i64);
        self.shard_shared_links
            .max(stats.shared_links.min(i64::MAX as usize) as i64);
    }

    /// Records a stage that ran to an outcome.
    pub fn record_attempt(&self, stage: Stage, outcome: &StageOutcome, elapsed: Duration) {
        let s = self.stage(stage);
        s.attempts.inc();
        s.nanos.record(elapsed.as_nanos() as u64);
        match outcome {
            StageOutcome::Won => s.wins.inc(),
            StageOutcome::Failed(_) => s.failures.inc(),
            StageOutcome::Skipped(_) => s.skips.inc(),
        }
    }

    /// Records a stage skipped by deadline pressure.
    pub fn record_skip(&self, stage: Stage) {
        self.stage(stage).skips.inc();
    }

    /// Folds one planning run's exact-gate counters into the engine
    /// totals.
    pub fn record_gate(&self, stats: &GateStats) {
        self.gate_incremental_checks.add(stats.incremental_checks);
        self.gate_full_checks.add(stats.full_checks);
        self.gate_ledger_applies.add(stats.ledger_applies);
        self.gate_ledger_undos.add(stats.ledger_undos);
        self.gate_cells_touched.add(stats.cells_touched);
        self.gate_full_equivalent_cells
            .add(stats.full_equivalent_cells);
    }

    /// Records one greedy run's simulation-arena high-water mark (the
    /// gauge keeps the largest seen).
    pub fn record_greedy_arena(&self, arena_bytes: u64) {
        self.greedy_arena_bytes
            .max(arena_bytes.min(i64::MAX as u64) as i64);
    }

    /// Records one request's certification outcome: `skipped` when
    /// verification was disabled, `issued` when the certifier vouched
    /// for the winning plan, `failed` when it ran and could not.
    pub fn record_certification(&self, enabled: bool, issued: bool) {
        match (enabled, issued) {
            (false, _) => self.certs_skipped.inc(),
            (true, true) => self.certs_issued.inc(),
            (true, false) => self.certs_failed.inc(),
        }
    }

    /// Records one slack-stage success: a timed plan shipped with a
    /// slack certificate, dilated by `factor` (1 = undilated), with
    /// `target_met` saying whether the stage's target was reached.
    pub fn record_slack(&self, cert: &SlackCertificate, factor: TimeStep, target_met: bool) {
        self.slack_certified.inc();
        if factor > 1 {
            self.slack_dilated.inc();
        }
        if !target_met {
            self.slack_target_missed.inc();
        }
        self.slack_schedules_checked
            .add(cert.schedules_checked as u64);
        self.slack_steps.record(cert.slack_steps.max(0) as u64);
    }

    /// Records a slack stage where even the undilated winner failed to
    /// re-certify (a planner/certifier disagreement).
    pub fn record_slack_failure(&self) {
        self.slack_uncertifiable.inc();
    }

    /// Records the wall-clock cost of one slack stage.
    pub fn record_slack_elapsed(&self, elapsed: Duration) {
        self.slack_nanos.record(elapsed.as_nanos() as u64);
    }

    /// Records a finished request.
    pub fn record_completion(&self, planned: &PlannedUpdate) {
        self.completed.inc();
        if planned.deadline_exceeded {
            self.timeouts.inc();
        }
    }

    /// Records a request entering the queue, keeping the running and
    /// peak depth.
    pub fn record_enqueue(&self) {
        self.submitted.inc();
        let depth = self.queue_depth.add(1);
        self.queue_peak.max(depth);
    }

    /// Records a worker picking a request off the queue.
    pub fn record_dequeue(&self) {
        self.queue_depth.add(-1);
    }

    /// Derives a [`PlanReport`] view over the registry.
    pub fn report(&self) -> PlanReport {
        PlanReport {
            sharded: self.sharded.stats(),
            greedy: self.greedy.stats(),
            tree: self.tree.stats(),
            two_phase: self.tp.stats(),
            shard: ShardStats {
                shards_planned: self.shard_shards_planned.get(),
                replan_rounds: self.shard_replan_rounds.get(),
                conflicts: self.shard_conflicts.get(),
                joint_fallbacks: self.shard_joint_fallbacks.get(),
                cross_links_peak: self.shard_cross_links.get().max(0) as u64,
                shared_links_peak: self.shard_shared_links.get().max(0) as u64,
            },
            gate: GateStats {
                incremental_checks: self.gate_incremental_checks.get(),
                full_checks: self.gate_full_checks.get(),
                ledger_applies: self.gate_ledger_applies.get(),
                ledger_undos: self.gate_ledger_undos.get(),
                cells_touched: self.gate_cells_touched.get(),
                full_equivalent_cells: self.gate_full_equivalent_cells.get(),
            },
            certs: CertStats {
                issued: self.certs_issued.get(),
                failed: self.certs_failed.get(),
                skipped: self.certs_skipped.get(),
            },
            slack: SlackStats {
                certified: self.slack_certified.get(),
                dilated: self.slack_dilated.get(),
                target_missed: self.slack_target_missed.get(),
                uncertifiable: self.slack_uncertifiable.get(),
                schedules_checked: self.slack_schedules_checked.get(),
            },
            arena_bytes: self.greedy_arena_bytes.get().max(0) as u64,
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            timeouts: self.timeouts.get(),
            queue_depth: self.queue_depth.get().max(0) as u64,
            queue_peak: self.queue_peak.get().max(0) as u64,
        }
    }
}

/// Snapshot of one stage's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StageStats {
    /// Times the stage ran.
    pub attempts: u64,
    /// Times it produced the winning plan.
    pub wins: u64,
    /// Times it ran and could not plan.
    pub failures: u64,
    /// Times it was skipped (deadline or earlier winner).
    pub skips: u64,
    /// Total wall-clock time spent inside the stage.
    pub total: Duration,
}

impl StageStats {
    /// Mean latency per attempt, zero when the stage never ran.
    pub fn mean_latency(&self) -> Duration {
        if self.attempts == 0 {
            Duration::ZERO
        } else {
            self.total / self.attempts as u32
        }
    }
}

/// Snapshot of the independent certifier's counters across completed
/// requests.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CertStats {
    /// Winning plans the certifier vouched for.
    pub issued: u64,
    /// Winning plans the certifier ran on and refused to vouch for
    /// (e.g. a two-phase fallback whose flip window congests).
    pub failed: u64,
    /// Requests planned with certification disabled.
    pub skipped: u64,
}

/// Snapshot of the sharded stage's reservation counters across
/// completed requests (all zero unless the engine was configured with
/// a [`chronus_core::shard::ShardingConfig`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ShardStats {
    /// Populated shards planned across all sharded runs.
    pub shards_planned: u64,
    /// Replan rounds burned beyond each run's first attempt.
    pub replan_rounds: u64,
    /// Reservation conflicts caught by certificate composition.
    pub conflicts: u64,
    /// Runs that gave up on sharding and planned jointly.
    pub joint_fallbacks: u64,
    /// Largest cross-shard link count any partition produced.
    pub cross_links_peak: u64,
    /// Largest shared-link (reservation) count any run needed.
    pub shared_links_peak: u64,
}

/// Snapshot of the slack stage's counters across completed requests
/// (all zero unless the engine was configured
/// [`with_slack`](crate::EngineConfig::with_slack)).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SlackStats {
    /// Timed plans shipped with a slack certificate.
    pub certified: u64,
    /// Plans whose schedule was dilated (factor > 1) to buy slack.
    pub dilated: u64,
    /// Plans that shipped below the stage's slack target even at the
    /// maximum dilation factor.
    pub target_missed: u64,
    /// Slack stages where even the undilated winner failed to
    /// re-certify.
    pub uncertifiable: u64,
    /// Perturbed schedules certified across all slack searches.
    pub schedules_checked: u64,
}

/// Point-in-time engine report: per-stage latencies and win counts,
/// queue pressure and deadline casualties.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanReport {
    /// Sharded-stage counters (all zero on unsharded engines).
    pub sharded: StageStats,
    /// Greedy-stage counters.
    pub greedy: StageStats,
    /// Tree-stage counters.
    pub tree: StageStats,
    /// Two-phase-stage counters.
    pub two_phase: StageStats,
    /// Sharded-stage reservation counters.
    pub shard: ShardStats,
    /// Aggregated exact-gate counters across all greedy-stage runs:
    /// incremental vs full checks, ledger traffic, and the cell-visit
    /// volume a full re-simulation would have cost instead.
    pub gate: GateStats,
    /// Independent-certifier counters across completed requests.
    pub certs: CertStats,
    /// Slack-stage counters across completed requests.
    pub slack: SlackStats,
    /// Largest simulation-arena high-water mark (bytes) any greedy run
    /// reported — the flat pool footprint of the planning hot path.
    pub arena_bytes: u64,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests fully planned.
    pub completed: u64,
    /// Requests whose deadline expired before every optimizing stage
    /// could run.
    pub timeouts: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Largest queue depth observed.
    pub queue_peak: u64,
}

impl PlanReport {
    /// Fraction of completed requests that fell through to the
    /// two-phase fallback.
    pub fn fallback_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.two_phase.wins as f64 / self.completed as f64
        }
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: {}/{} planned, {} deadline-degraded, queue {} (peak {})",
            self.completed, self.submitted, self.timeouts, self.queue_depth, self.queue_peak
        )?;
        let show_sharded = self.sharded.attempts > 0 || self.sharded.skips > 0;
        for (name, s) in [
            ("sharded", &self.sharded),
            ("greedy", &self.greedy),
            ("tree", &self.tree),
            ("two-phase", &self.two_phase),
        ] {
            if name == "sharded" && !show_sharded {
                continue;
            }
            writeln!(
                f,
                "  {name:<9} {} attempts, {} wins, {} failures, {} skips, mean {:?}",
                s.attempts,
                s.wins,
                s.failures,
                s.skips,
                s.mean_latency()
            )?;
        }
        if self.shard != ShardStats::default() {
            writeln!(
                f,
                "  shards: {} planned, {} replan rounds, {} conflicts, \
                 {} joint fallbacks (peaks: {} cross links, {} shared links)",
                self.shard.shards_planned,
                self.shard.replan_rounds,
                self.shard.conflicts,
                self.shard.joint_fallbacks,
                self.shard.cross_links_peak,
                self.shard.shared_links_peak
            )?;
        }
        writeln!(
            f,
            "  certifier: {} issued, {} failed, {} skipped",
            self.certs.issued, self.certs.failed, self.certs.skipped
        )?;
        if self.slack != SlackStats::default() {
            writeln!(
                f,
                "  slack: {} certified ({} dilated, {} below target, \
                 {} uncertifiable), {} perturbed schedules checked",
                self.slack.certified,
                self.slack.dilated,
                self.slack.target_missed,
                self.slack.uncertifiable,
                self.slack.schedules_checked
            )?;
        }
        writeln!(
            f,
            "  exact gate: {} incremental / {} full checks, \
             {} applies, {} undos, {} cells touched (full-sim equivalent {})",
            self.gate.incremental_checks,
            self.gate.full_checks,
            self.gate.ledger_applies,
            self.gate.ledger_undos,
            self.gate.cells_touched,
            self.gate.full_equivalent_cells
        )?;
        write!(
            f,
            "  greedy resources: arena high-water ~{} B",
            self.arena_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bookkeeping_and_rates() {
        let m = EngineMetrics::new();
        m.record_attempt(Stage::Greedy, &StageOutcome::Won, Duration::from_micros(10));
        m.record_attempt(
            Stage::Greedy,
            &StageOutcome::Failed("x".into()),
            Duration::from_micros(30),
        );
        m.record_skip(Stage::Tree);
        m.record_certification(true, true);
        m.record_certification(true, false);
        m.record_certification(false, false);
        m.record_enqueue();
        m.record_enqueue();
        m.record_dequeue();
        let r = m.report();
        assert_eq!(r.greedy.attempts, 2);
        assert_eq!(r.greedy.wins, 1);
        assert_eq!(r.greedy.failures, 1);
        assert_eq!(r.tree.skips, 1);
        assert_eq!(r.greedy.mean_latency(), Duration::from_micros(20));
        assert_eq!(r.submitted, 2);
        assert_eq!(r.queue_depth, 1);
        assert_eq!(r.queue_peak, 2);
        assert_eq!(
            r.certs,
            CertStats {
                issued: 1,
                failed: 1,
                skipped: 1
            }
        );
        let text = r.to_string();
        assert!(text.contains("greedy"), "{text}");
        assert!(text.contains("certifier: 1 issued"), "{text}");
        assert!(!text.contains("cache"), "{text}");
    }

    #[test]
    fn shard_counters_roll_up_and_render_conditionally() {
        let m = EngineMetrics::new();
        // An unsharded engine's report hides the sharded rows.
        let quiet = m.report().to_string();
        assert!(!quiet.contains("sharded"), "{quiet}");
        assert!(!quiet.contains("shards:"), "{quiet}");

        m.record_attempt(Stage::Sharded, &StageOutcome::Won, Duration::from_micros(5));
        m.record_shard(&chronus_core::shard::ShardStats {
            shards: 4,
            cross_links: 16,
            shared_links: 2,
            replan_rounds: 1,
            conflicts: 1,
            fell_back_joint: false,
        });
        m.record_shard(&chronus_core::shard::ShardStats {
            shards: 2,
            cross_links: 8,
            shared_links: 3,
            replan_rounds: 0,
            conflicts: 0,
            fell_back_joint: true,
        });
        let r = m.report();
        assert_eq!(r.sharded.attempts, 1);
        assert_eq!(r.sharded.wins, 1);
        assert_eq!(
            r.shard,
            ShardStats {
                shards_planned: 6,
                replan_rounds: 1,
                conflicts: 1,
                joint_fallbacks: 1,
                cross_links_peak: 16,
                shared_links_peak: 3,
            }
        );
        let text = r.to_string();
        assert!(text.contains("sharded"), "{text}");
        assert!(text.contains("shards: 6 planned"), "{text}");
        // The registry sees the same counters under their full names.
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("chronus_engine_shard_shards_planned_total"),
            Some(6)
        );
        assert_eq!(
            snap.counter("chronus_engine_shard_joint_fallbacks_total"),
            Some(1)
        );
        assert_eq!(snap.counter("chronus_engine_sharded_wins_total"), Some(1));
    }

    #[test]
    fn report_is_a_view_over_the_registry() {
        let m = EngineMetrics::new();
        m.record_attempt(Stage::Greedy, &StageOutcome::Won, Duration::from_micros(10));
        m.record_certification(true, true);
        m.record_enqueue();

        // The exact same numbers are visible through the registry.
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("chronus_engine_greedy_attempts_total"),
            Some(1)
        );
        assert_eq!(snap.counter("chronus_engine_greedy_wins_total"), Some(1));
        assert_eq!(snap.counter("chronus_engine_certs_issued_total"), Some(1));
        assert_eq!(
            snap.counter("chronus_engine_requests_submitted_total"),
            Some(1)
        );
        assert_eq!(snap.gauge("chronus_engine_queue_depth"), Some(1));
        assert_eq!(
            snap.histogram("chronus_engine_greedy_stage_ns"),
            Some((10_000, 1))
        );
        let r = m.report();
        assert_eq!(r.greedy.attempts, 1);
        assert_eq!(r.greedy.total, Duration::from_micros(10));

        // And the Prometheus rendering carries them too.
        let prom = m.registry().to_prometheus();
        assert!(
            prom.contains("chronus_engine_greedy_attempts_total 1"),
            "{prom}"
        );
        assert!(
            prom.contains("chronus_engine_greedy_stage_ns_count 1"),
            "{prom}"
        );

        // Two engines' registries are fully isolated.
        let other = EngineMetrics::new();
        assert_eq!(
            other
                .snapshot()
                .counter("chronus_engine_greedy_attempts_total"),
            Some(0)
        );
    }
}

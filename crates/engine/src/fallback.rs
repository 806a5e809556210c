//! The planning fallback chain: sharded → greedy → tree → two-phase.
//!
//! Every request walks the same chain, cheapest-best first:
//!
//! 0. **Sharded** (opt-in, multi-flow only) — partitions the topology,
//!    reserves shared-link capacity per shard, and plans the shards in
//!    parallel, composing their certificates into one sealed proof.
//!    Runs only when the engine was configured with a
//!    [`ShardingConfig`](crate::ShardingConfig) and the request
//!    carries more than one flow.
//! 1. **Greedy** (paper Algorithm 2) — the Chronus scheduler; when it
//!    succeeds the flow migrates with no rule-space overhead.
//! 2. **Tree** (paper Algorithm 1) — the feasibility search; slower,
//!    but it can find witness schedules on instances where the greedy
//!    round structure stalls, and it proves infeasibility.
//! 3. **Two-phase** — the per-packet-consistency baseline. It ignores
//!    the timing dimension entirely, always exists, and preserves
//!    consistency at the cost of doubled rules; the chain's
//!    consistency-preserving last resort.
//!
//! The deadline governs the *optimizing* stages only: a request whose
//! budget runs out before greedy or tree finishes skips ahead and
//! still leaves with a consistent two-phase plan — deadline pressure
//! degrades plan quality, never correctness. The same deadline bounds
//! the slack stage that follows a timed win: no dilation factor starts
//! after it has passed.
// `flows[0]`: the chain plans single-flow instances; multi-flow
// batches are split into one request per flow upstream.
#![allow(clippy::indexing_slicing)]

use crate::metrics::EngineMetrics;
use crate::pool::EngineConfig;
use crate::request::{RequestId, UpdateRequest};
use chronus_baselines::tp::{tp_plan, TpPlan};
use chronus_core::greedy::{greedy_schedule_in, GreedyConfig};
use chronus_core::shard::shard_schedule_in;
use chronus_core::tree::{check_feasibility, Feasibility};
use chronus_net::{TimeStep, UpdateInstance};
use chronus_timenet::{Schedule, SimWorkspace};
use chronus_trace::EnteredSpan;
use chronus_verify::{
    certify_two_phase, certify_with, slack_certificate, Certificate, SlackCertificate, VerifyConfig,
};
use std::convert::Infallible;
use std::fmt;
use std::time::{Duration, Instant};

/// Certified tolerance (in steps) the slack stage aims for: it stops
/// dilating once a factor certifies at least this much.
///
/// A greedy/tree schedule packs dependent updates onto adjacent steps,
/// which certifies zero slack — any single-step displacement of one
/// switch can recreate the transient loop. Dilating the schedule
/// (multiplying every step by a factor) stretches those gaps: the same
/// ordering constraints hold with spare steps in between, so the slack
/// certificate's tolerance grows with the factor — makespan traded for
/// robustness against exactly the timing faults `chronus-faults`
/// injects.
const SLACK_TARGET_STEPS: TimeStep = 1;

/// Largest dilation factor the slack stage tries (1 = never dilate).
/// When even this factor misses [`SLACK_TARGET_STEPS`], the best-slack
/// candidate ships anyway and the miss is counted in the metrics.
const SLACK_MAX_DILATION: TimeStep = 4;

/// A stage of the fallback chain, in chain order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// The sharded multi-flow planner (opt-in; multi-flow requests
    /// under an engine configured with a
    /// [`ShardingConfig`](crate::ShardingConfig)).
    Sharded,
    /// The greedy scheduler (paper Algorithm 2).
    Greedy,
    /// The tree feasibility search (paper Algorithm 1).
    Tree,
    /// The two-phase commit baseline.
    TwoPhase,
}

impl Stage {
    /// All stages in chain order.
    pub const CHAIN: [Stage; 4] = [Stage::Sharded, Stage::Greedy, Stage::Tree, Stage::TwoPhase];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Sharded => "sharded",
            Stage::Greedy => "greedy",
            Stage::Tree => "tree",
            Stage::TwoPhase => "two-phase",
        })
    }
}

/// How one stage of the chain ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StageOutcome {
    /// The stage produced the winning plan.
    Won,
    /// The stage ran and could not plan; the payload says why.
    Failed(String),
    /// The stage never ran; the payload says why (deadline exhausted,
    /// or an earlier stage already won).
    Skipped(String),
}

/// One stage's record in a [`PlannedUpdate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageAttempt {
    /// Which stage.
    pub stage: Stage,
    /// How it ended.
    pub outcome: StageOutcome,
    /// Wall-clock time spent inside the stage (zero when skipped).
    pub elapsed: Duration,
}

/// A two-phase plan for a batch member: the per-flow rule plan plus
/// the ingress flip time the engine chose for it.
#[derive(Clone, Debug)]
pub struct TpBatchPlan {
    /// The duplicate-rules + stamp-flip plan.
    pub plan: TpPlan,
    /// When the ingress stamp flips, in time steps: after the old
    /// generation's in-flight packets can no longer interleave.
    pub flip_time: TimeStep,
}

/// The plan a request leaves the chain with.
#[derive(Clone, Debug)]
pub enum PlanKind {
    /// A timed per-switch schedule (greedy or tree won) — zero rule
    /// overhead, certified consistent by construction.
    Timed(Schedule),
    /// The two-phase fallback — consistent, but transiently doubles
    /// the flow's rules.
    TwoPhase(TpBatchPlan),
}

impl PlanKind {
    /// The timed schedule, when one was found.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            PlanKind::Timed(s) => Some(s),
            PlanKind::TwoPhase(_) => None,
        }
    }
}

/// The engine's answer to one [`UpdateRequest`].
#[derive(Clone, Debug)]
pub struct PlannedUpdate {
    /// The request this answers.
    pub id: RequestId,
    /// The winning plan.
    pub plan: PlanKind,
    /// The stage that produced it.
    pub winner: Stage,
    /// Per-stage records, in chain order.
    pub attempts: Vec<StageAttempt>,
    /// Total planning wall-clock time for this request.
    pub elapsed: Duration,
    /// `true` when the deadline expired before every optimizing stage
    /// could run (the plan is then the two-phase fallback).
    pub deadline_exceeded: bool,
    /// The independent certifier's proof that the winning plan is
    /// consistent. `None` when certification was disabled in the
    /// engine config, or when the certifier could not vouch for the
    /// plan (a two-phase fallback whose flip window congests — the
    /// cases [`crate::PlanReport`]'s `certs.failed` counts).
    pub certificate: Option<Certificate>,
    /// The slack certificate for the shipped timed schedule: the
    /// largest per-switch timing tolerance ±Δ under which consistency
    /// still holds. `None` when the slack stage is off or
    /// the plan is the two-phase fallback (which has no timed
    /// schedule to perturb).
    pub slack: Option<SlackCertificate>,
    /// The dilation factor applied to the shipped schedule by the
    /// slack stage (1 = the planner's schedule, undilated).
    pub dilation: TimeStep,
    /// The `engine.plan` trace-span id this plan was produced under
    /// (0 when neither the trace collector nor the flight recorder
    /// was on). Callers persist it so forensic dumps and SLO
    /// histogram exemplars can point back at the exact planning span.
    pub span_id: u64,
}

impl PlannedUpdate {
    /// The attempt record for `stage`, if the chain reached it.
    pub fn attempt(&self, stage: Stage) -> Option<&StageAttempt> {
        self.attempts.iter().find(|a| a.stage == stage)
    }

    /// The winning timed schedule, or a [`PlanError`] naming the
    /// request and winning stage when the plan legitimately has none
    /// (the two-phase fallback won) — the non-panicking accessor to
    /// reach for where a timed schedule is assumed.
    pub fn timed_schedule(&self) -> Result<&Schedule, PlanError> {
        self.plan.schedule().ok_or(PlanError {
            id: self.id,
            winner: self.winner,
        })
    }
}

/// A plan was asked for something its winning stage did not produce:
/// [`PlannedUpdate::timed_schedule`] on a two-phase fallback plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanError {
    /// The request whose plan was interrogated.
    pub id: RequestId,
    /// The stage that won without a timed schedule.
    pub winner: Stage,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: the {} stage won without a timed schedule",
            self.id, self.winner
        )
    }
}

impl std::error::Error for PlanError {}

/// The ingress flip time the engine assigns to two-phase plans: one
/// step past the initial path's total delay, so every old-generation
/// packet in flight at the flip has drained past any shared link.
pub fn tp_flip_time(instance: &UpdateInstance) -> TimeStep {
    let phi_init = instance.flows[0]
        .initial
        .total_delay(&instance.network)
        .unwrap_or(0);
    (phi_init + 1) as TimeStep
}

/// The static span name for one stage's attempt.
fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Sharded => "engine.stage.sharded",
        Stage::Greedy => "engine.stage.greedy",
        Stage::Tree => "engine.stage.tree",
        Stage::TwoPhase => "engine.stage.two_phase",
    }
}

/// What the slack stage ships: the schedule, its slack certificate,
/// the consistency certificate matching it (`None` when the stage
/// certified nothing, so the winner's certificate stands), and the
/// dilation factor applied.
type SlackPurchase = (Schedule, SlackCertificate, Option<Certificate>, TimeStep);

/// The slack stage: dilates a winning timed schedule until its slack
/// certificate meets [`SLACK_TARGET_STEPS`] (or the factor cap
/// [`SLACK_MAX_DILATION`]), then certifies the shipped factor once
/// more, with witnesses.
///
/// The request's deadline (`deadline` after `started`) bounds the
/// stage: once it has passed, no further factor is tried and the best
/// one so far ships. When it has passed before the first factor, the
/// undilated winner ships with zero certified slack — exact firing
/// only, which the journal and restore treat as a zero budget.
fn buy_slack(
    instance: &UpdateInstance,
    schedule: &Schedule,
    started: Instant,
    deadline: Duration,
) -> Option<SlackPurchase> {
    let mut best: Option<(Schedule, SlackCertificate, TimeStep)> = None;
    for factor in 1..=SLACK_MAX_DILATION {
        if started.elapsed() >= deadline {
            if factor == 1 {
                let exact = SlackCertificate {
                    slack_steps: 0,
                    schedules_checked: 0,
                    budget_exhausted: true,
                };
                return Some((schedule.clone(), exact, None, 1));
            }
            break;
        }
        let candidate = schedule.dilated(factor);
        let Ok(slack) = slack_certificate(instance, &candidate) else {
            // A dilation should never break a consistent plan, but if
            // a factor fails to certify, skip it rather than ship it.
            continue;
        };
        let reached = slack.slack_steps >= SLACK_TARGET_STEPS;
        let improves = best
            .as_ref()
            .is_none_or(|(_, b, _)| slack.slack_steps > b.slack_steps);
        if improves {
            best = Some((candidate, slack, factor));
        }
        if reached {
            break;
        }
    }
    let (shipped, slack, factor) = best?;
    let cert = certify_with(instance, &shipped, &VerifyConfig::default()).ok()?;
    Some((shipped, slack, Some(cert), factor))
}

/// A stage's winning plan and its consistency certificate.
type StageWin = (PlanKind, Option<Certificate>);

/// One request's walk down the chain: the attempt list in chain order,
/// the winner so far, and whether the deadline cut an optimizing stage.
struct ChainRun<'a> {
    metrics: &'a EngineMetrics,
    started: Instant,
    deadline: Duration,
    attempts: Vec<StageAttempt>,
    winner: Option<(Stage, PlanKind, Option<Certificate>)>,
    deadline_exceeded: bool,
}

impl ChainRun<'_> {
    /// Records `stage` as skipped, without running it or touching the
    /// stage metrics.
    fn skip(&mut self, stage: Stage, reason: &str) {
        self.attempts.push(StageAttempt {
            stage,
            outcome: StageOutcome::Skipped(reason.into()),
            elapsed: Duration::ZERO,
        });
    }

    /// Runs an optimizing stage unless an earlier stage already won or
    /// the request's deadline has passed; a win becomes the chain's
    /// winner.
    fn optimize(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&mut EnteredSpan) -> Result<StageWin, String>,
    ) {
        if self.winner.is_some() {
            self.skip(stage, "earlier stage won");
        } else if self.started.elapsed() >= self.deadline {
            self.deadline_exceeded = true;
            self.metrics.record_skip(stage);
            self.skip(stage, "deadline exhausted");
        } else if let Ok((plan, certificate)) = self.run_stage(stage, body) {
            self.winner = Some((stage, plan, certificate));
        }
    }

    /// Runs one stage inside its trace span and records how it ended:
    /// the span's `outcome` field, the stage metrics, and the attempt.
    fn run_stage<T, E: fmt::Display>(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&mut EnteredSpan) -> Result<T, E>,
    ) -> Result<T, E> {
        let stage_start = Instant::now();
        let mut span = chronus_trace::span!(stage_span_name(stage)).entered();
        let result = body(&mut span);
        let elapsed = stage_start.elapsed();
        let outcome = match &result {
            Ok(_) => StageOutcome::Won,
            Err(e) => StageOutcome::Failed(e.to_string()),
        };
        if span.is_recording() {
            span.record("outcome", if result.is_ok() { "won" } else { "failed" });
        }
        drop(span);
        self.metrics.record_attempt(stage, &outcome, elapsed);
        self.attempts.push(StageAttempt {
            stage,
            outcome,
            elapsed,
        });
        result
    }
}

/// The two-phase plan for `req`, with the certifier's verdict on its
/// flip window when certification is enabled.
fn two_phase_fallback(req: &UpdateRequest, verify: &VerifyConfig) -> StageWin {
    let instance = &req.instance;
    let flip_time = tp_flip_time(instance);
    let tp = TpBatchPlan {
        plan: tp_plan(&instance.flows[0]),
        flip_time,
    };
    // The two-phase fallback is consistency-preserving by
    // construction, but the certifier can still refuse to vouch for a
    // flip window that transiently congests a shared link; that
    // legitimate `None` is what `certs.failed` counts — the refusal
    // itself is preserved on the trace via the violation's `Display`
    // rendering.
    let certificate = if verify.enabled {
        match certify_two_phase(instance, flip_time) {
            Ok(cert) => Some(cert),
            Err(violation) => {
                chronus_trace::instant!(
                    "engine.cert_refused",
                    request = req.id.0,
                    violation = violation.to_string()
                );
                // A refused certificate is a planner/certifier
                // disagreement worth a forensic dump (rate limited and
                // inert unless the recorder is on).
                chronus_trace::FlightRecorder::trigger("cert-refused");
                None
            }
        }
    } else {
        None
    };
    (PlanKind::TwoPhase(tp), certificate)
}

/// Walks the fallback chain for one request under `config`'s
/// certification, slack and sharding settings, recording per-stage
/// metrics. `ws` holds the greedy gate's simulation buffers: each
/// engine worker keeps one for its whole life, so steady-state
/// planning does not re-allocate the load ledger per request. The walk
/// is deterministic for a fixed request whenever the deadline does
/// not bite (every stage is itself deterministic).
pub fn plan_with_chain(
    req: &UpdateRequest,
    config: &EngineConfig,
    metrics: &EngineMetrics,
    ws: &mut SimWorkspace,
) -> PlannedUpdate {
    let started = Instant::now();
    let instance = &req.instance;
    let verify = &config.verify;
    let mut plan_span = chronus_trace::span!(
        "engine.plan",
        request = req.id.0,
        flows = instance.flows.len()
    )
    .entered();

    let mut chain = ChainRun {
        metrics,
        started,
        deadline: req.deadline,
        attempts: Vec::with_capacity(Stage::CHAIN.len()),
        winner: None,
        deadline_exceeded: false,
    };

    // The opt-in sharded pre-stage: multi-flow requests are split by
    // topology partition and planned shard-by-shard over a shared-link
    // capacity-reservation table. The attempt is recorded only when
    // sharding is configured, so unsharded engines keep the familiar
    // three-stage attempt list.
    if let Some(shard_cfg) = &config.sharding {
        if instance.flows.len() < 2 {
            chain.skip(Stage::Sharded, "single-flow request");
        } else {
            chain.optimize(Stage::Sharded, |span| {
                let mut cfg = *shard_cfg;
                cfg.greedy.verify = *verify;
                let out = shard_schedule_in(instance, cfg, ws).map_err(|e| e.to_string())?;
                metrics.record_shard(&out.stats);
                if span.is_recording() {
                    span.record("shards", out.stats.shards as u64);
                    span.record("fell_back_joint", out.stats.fell_back_joint);
                }
                Ok((PlanKind::Timed(out.schedule), out.certificate))
            });
        }
    }

    chain.optimize(Stage::Greedy, |_| {
        let cfg = GreedyConfig {
            verify: *verify,
            ..GreedyConfig::default()
        };
        let out = greedy_schedule_in(instance, cfg, ws).map_err(|e| e.to_string())?;
        metrics.record_gate(&out.gate);
        metrics.record_greedy_arena(out.arena_bytes);
        Ok((PlanKind::Timed(out.schedule), out.certificate))
    });

    chain.optimize(Stage::Tree, |_| match check_feasibility(instance) {
        Feasibility::Feasible {
            schedule,
            certificate,
        } => Ok((
            PlanKind::Timed(schedule),
            verify.enabled.then_some(*certificate),
        )),
        Feasibility::Infeasible { witness } => Err(match witness {
            Some(w) => format!("infeasible: {w:?}"),
            None => "infeasible".into(),
        }),
        Feasibility::Unknown => Err("search budget exhausted".into()),
    });

    // The consistency-preserving last resort: two-phase always plans,
    // deadline or not — it is the reason a request cannot fail.
    let (winner_stage, mut plan, mut certificate) = match chain.winner.take() {
        Some(found) => {
            chain.skip(Stage::TwoPhase, "earlier stage won");
            found
        }
        None => {
            let Ok((plan, certificate)) = chain.run_stage(Stage::TwoPhase, |_| {
                Ok::<_, Infallible>(two_phase_fallback(req, verify))
            });
            (Stage::TwoPhase, plan, certificate)
        }
    };
    let ChainRun {
        attempts,
        deadline_exceeded,
        ..
    } = chain;

    // The slack stage: timed winners get a certified timing tolerance,
    // dilated up to the factor cap until the target is met. Two-phase
    // plans have no timed schedule to perturb and skip the stage.
    let mut slack = None;
    let mut dilation = 1;
    if let (true, PlanKind::Timed(schedule)) = (config.slack, &plan) {
        let stage_start = Instant::now();
        let mut slack_span = chronus_trace::span!("engine.stage.slack").entered();
        match buy_slack(instance, schedule, started, req.deadline) {
            Some((shipped, slack_cert, cert, factor)) => {
                let target_met = slack_cert.slack_steps >= SLACK_TARGET_STEPS;
                if slack_span.is_recording() {
                    slack_span.record("slack_steps", slack_cert.slack_steps);
                    slack_span.record("dilation", factor);
                    slack_span.record("target_met", target_met);
                }
                metrics.record_slack(&slack_cert, factor, target_met);
                plan = PlanKind::Timed(shipped);
                if verify.enabled && cert.is_some() {
                    certificate = cert;
                }
                slack = Some(slack_cert);
                dilation = factor;
            }
            None => {
                // Even the undilated winner failed to re-certify — a
                // planner/certifier disagreement worth surfacing.
                slack_span.record("outcome", "uncertifiable");
                metrics.record_slack_failure();
            }
        }
        drop(slack_span);
        metrics.record_slack_elapsed(stage_start.elapsed());
    }

    metrics.record_certification(verify.enabled, certificate.is_some());
    if deadline_exceeded {
        chronus_trace::instant!("engine.deadline_expired", request = req.id.0);
        chronus_trace::FlightRecorder::trigger("deadline-expired");
    }
    if plan_span.is_recording() {
        plan_span.record("winner", winner_stage.to_string());
        plan_span.record("deadline_exceeded", deadline_exceeded);
        plan_span.record("certified", certificate.is_some());
    }
    let span_id = plan_span.id().unwrap_or(0);
    drop(plan_span);
    let planned = PlannedUpdate {
        id: req.id,
        plan,
        winner: winner_stage,
        attempts,
        elapsed: started.elapsed(),
        deadline_exceeded,
        certificate,
        slack,
        dilation,
        span_id,
    };
    metrics.record_completion(&planned);
    planned
}

/// Plans `requests` one by one on the calling thread under the default
/// [`EngineConfig`] — the reference behaviour the concurrent engine
/// must reproduce plan-for-plan (see the equivalence property test).
pub fn plan_sequential(requests: &[UpdateRequest]) -> Vec<PlannedUpdate> {
    let config = EngineConfig::default();
    let metrics = EngineMetrics::new();
    let mut ws = SimWorkspace::default();
    requests
        .iter()
        .map(|r| plan_with_chain(r, &config, &metrics, &mut ws))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardingConfig;
    use chronus_net::motivating_example;
    use chronus_timenet::{FluidSimulator, Verdict};
    use std::sync::Arc;

    fn req(deadline: Duration) -> UpdateRequest {
        UpdateRequest::new(0, Arc::new(motivating_example()), deadline)
    }

    /// k=4 fat tree with one pod-local migration per pod — fully
    /// pod-separable, so the sharded stage plans it without
    /// reservations (mirrors `chronus_core::shard`'s fixture).
    fn separable_instance() -> UpdateInstance {
        use chronus_net::topology::{fat_tree, LinkParams};
        use chronus_net::{Flow, FlowId, Path};
        let net = fat_tree(
            4,
            LinkParams {
                capacity: 1000,
                delay: 1,
            },
        );
        let by_name = |n: &str| {
            net.switches()
                .find(|&s| net.switch_name(s) == Some(n))
                .unwrap()
        };
        let mut flows = Vec::new();
        for pod in 0..4u32 {
            let e0 = by_name(&format!("edge{}", 2 * pod));
            let e1 = by_name(&format!("edge{}", 2 * pod + 1));
            let a0 = by_name(&format!("agg{}", 2 * pod));
            let a1 = by_name(&format!("agg{}", 2 * pod + 1));
            flows.push(
                Flow::new(
                    FlowId(pod),
                    100,
                    Path::new(vec![e0, a0, e1]),
                    Path::new(vec![e0, a1, e1]),
                )
                .unwrap(),
            );
        }
        UpdateInstance::new(net, flows).unwrap()
    }

    fn plan(req: &UpdateRequest, config: &EngineConfig) -> (PlannedUpdate, EngineMetrics) {
        let metrics = EngineMetrics::new();
        let planned = plan_with_chain(req, config, &metrics, &mut SimWorkspace::default());
        (planned, metrics)
    }

    #[test]
    fn sharded_stage_wins_multi_flow_requests_when_configured() {
        let inst = separable_instance();
        let request = UpdateRequest::new(1, Arc::new(inst.clone()), Duration::from_secs(30));
        let sharded = EngineConfig::default().with_sharding(ShardingConfig::default());
        let (planned, _) = plan(&request, &sharded);
        assert_eq!(planned.winner, Stage::Sharded);
        assert_eq!(planned.attempts.len(), 4);
        for stage in [Stage::Greedy, Stage::Tree, Stage::TwoPhase] {
            assert!(matches!(
                planned.attempt(stage).unwrap().outcome,
                StageOutcome::Skipped(_)
            ));
        }
        // The composed certificate seals the schedule against the
        // original joint instance.
        let cert = planned.certificate.as_ref().expect("composed certificate");
        assert_eq!(cert.check(&inst), Ok(()));
        let schedule = planned.timed_schedule().expect("timed plan");
        assert_eq!(
            FluidSimulator::check(&inst, schedule).verdict(),
            Verdict::Consistent
        );
        // Without a sharding config the attempt list stays three-stage.
        let (unsharded, _) = plan(&request, &EngineConfig::default());
        assert!(unsharded.attempt(Stage::Sharded).is_none());
        assert_eq!(unsharded.attempts.len(), 3);
    }

    #[test]
    fn sharded_stage_skips_single_flow_requests() {
        let sharded = EngineConfig::default().with_sharding(ShardingConfig::default());
        let (planned, _) = plan(&req(Duration::from_secs(30)), &sharded);
        assert_eq!(planned.winner, Stage::Greedy);
        assert_eq!(planned.attempts.len(), 4);
        assert_eq!(
            planned.attempt(Stage::Sharded).unwrap().outcome,
            StageOutcome::Skipped("single-flow request".into())
        );
    }

    #[test]
    fn greedy_wins_the_motivating_example() {
        let (planned, _) = plan(&req(Duration::from_secs(30)), &EngineConfig::default());
        assert_eq!(planned.winner, Stage::Greedy);
        assert!(!planned.deadline_exceeded);
        let schedule = planned.timed_schedule().expect("timed plan");
        let inst = motivating_example();
        let report = FluidSimulator::check(&inst, schedule);
        assert_eq!(report.verdict(), Verdict::Consistent);
        // The winning plan ships with an independent certificate that
        // re-validates against the instance.
        let cert = planned.certificate.as_ref().expect("certificate");
        assert_eq!(cert.check(&inst), Ok(()));
        // Later stages are recorded as skipped, in chain order.
        assert_eq!(planned.attempts.len(), 3);
        assert!(matches!(
            planned.attempt(Stage::Tree).unwrap().outcome,
            StageOutcome::Skipped(_)
        ));
        assert!(matches!(
            planned.attempt(Stage::TwoPhase).unwrap().outcome,
            StageOutcome::Skipped(_)
        ));
    }

    #[test]
    fn zero_deadline_degrades_to_two_phase() {
        let (planned, _) = plan(&req(Duration::ZERO), &EngineConfig::default());
        assert_eq!(planned.winner, Stage::TwoPhase);
        assert!(planned.deadline_exceeded);
        assert!(matches!(planned.plan, PlanKind::TwoPhase(_)));
        for stage in [Stage::Greedy, Stage::Tree] {
            assert_eq!(
                planned.attempt(stage).unwrap().outcome,
                StageOutcome::Skipped("deadline exhausted".into())
            );
        }
    }

    #[test]
    fn two_phase_plan_reports_plan_error_instead_of_panicking() {
        let (planned, _) = plan(&req(Duration::ZERO), &EngineConfig::default());
        assert_eq!(planned.winner, Stage::TwoPhase);
        let err = planned
            .timed_schedule()
            .expect_err("two-phase plans carry no timed schedule");
        assert_eq!(
            err,
            PlanError {
                id: planned.id,
                winner: Stage::TwoPhase,
            }
        );
        assert!(err.to_string().contains("two-phase"));
    }

    #[test]
    fn disabled_verification_skips_certificates() {
        let config = EngineConfig {
            verify: VerifyConfig::disabled(),
            ..EngineConfig::default()
        };
        let (planned, metrics) = plan(&req(Duration::from_secs(30)), &config);
        assert_eq!(planned.winner, Stage::Greedy);
        assert!(planned.certificate.is_none());
        assert_eq!(metrics.report().certs.skipped, 1);
    }

    #[test]
    fn slack_stage_past_its_deadline_ships_the_undilated_winner() {
        let inst = motivating_example();
        let (planned, _) = plan(&req(Duration::from_secs(30)), &EngineConfig::default());
        let winner = planned.timed_schedule().expect("timed plan");
        // A zero deadline is spent before the first factor, so nothing
        // is certified.
        let (shipped, slack, cert, factor) =
            buy_slack(&inst, winner, Instant::now(), Duration::ZERO)
                .expect("an expired stage still ships");
        assert_eq!(factor, 1);
        assert_eq!(&shipped, winner);
        assert_eq!(slack.slack_steps, 0);
        assert_eq!(slack.schedules_checked, 0);
        assert!(cert.is_none(), "the winner's certificate stands");
    }

    #[test]
    fn sequential_planning_is_deterministic() {
        let requests: Vec<UpdateRequest> = (0..3)
            .map(|i| UpdateRequest::new(i, Arc::new(motivating_example()), Duration::from_secs(30)))
            .collect();
        let a = plan_sequential(&requests);
        let b = plan_sequential(&requests);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.winner, y.winner);
            assert_eq!(x.plan.schedule(), y.plan.schedule());
        }
    }
}

//! Out-of-daemon re-plans and per-layer timings. Each layer is timed
//! from outside by calling its public functions on the workload's own
//! inputs; no daemon code is touched.

use crate::stats::{mean, percentile};
use crate::workload::Workload;
use chronus_daemon::proto::{request_from_line, Request};
use chronus_daemon::{ArmedRecord, DaemonConfig, Journal, Priority};
use chronus_engine::{
    planning_horizon, CacheKey, Engine, PlanKind, PlanReport, PlannedUpdate, Stage, UpdateRequest,
};
use chronus_net::codec::instance_from_value;
use chronus_verify::certify;
use std::path::Path;
use std::time::{Duration, Instant};

/// One sample submission re-planned with the daemon's engine settings.
pub struct Replanned {
    pub index: usize,
    pub planned: PlannedUpdate,
    /// The paper's objective for the shipped schedule: `makespan + 1`
    /// time steps.
    pub makespan_steps: i64,
    /// Certified slack `k` of the shipped schedule (0 when none).
    pub slack_steps: i64,
    /// Time to look up (and on a miss materialize) the request's
    /// time-extended window, before the plan itself.
    pub materialize: Duration,
}

impl Replanned {
    /// Certified firing offsets per switch: the slack certificate
    /// admits every offset in `{-(k-1), …, +k}`, i.e. `2k` of them, and
    /// a schedule with `k = 0` only its exact step.
    pub fn slack_window_steps(&self) -> f64 {
        (2 * self.slack_steps).max(1) as f64
    }

    pub fn armed(&self) -> bool {
        self.planned.certificate.is_some() && self.planned.plan.schedule().is_some()
    }
}

fn step_count(planned: &PlannedUpdate) -> i64 {
    match &planned.plan {
        PlanKind::Timed(schedule) => schedule.makespan().unwrap_or(0) + 1,
        PlanKind::TwoPhase(tp) => tp.flip_time + 1,
    }
}

/// Re-plans the submissions at `indices`, in order, through a fresh
/// engine built from `DaemonConfig::default().engine()`, re-checking
/// every certificate against its instance. With `materialize_first`,
/// each request's window is looked up (and timed) before the plan, so
/// the plan's own lookup hits. Returns the plans and the engine's report.
pub fn replan(
    workload: &Workload,
    indices: &[usize],
    materialize_first: bool,
    problems: &mut Vec<String>,
) -> (Vec<Replanned>, PlanReport) {
    let config = DaemonConfig::default();
    let engine = Engine::new(config.engine());
    let mut out = Vec::with_capacity(indices.len());
    for &index in indices {
        let instance = &workload.instances[workload.submissions[index].instance];
        let materialize = if materialize_first {
            let key = CacheKey::for_instance(instance, planning_horizon(instance));
            let t = Instant::now();
            engine.cache().get_or_materialize(key, instance);
            t.elapsed()
        } else {
            Duration::ZERO
        };
        let request = UpdateRequest::new(index as u64, instance.clone(), config.default_deadline());
        let planned = engine.plan_one(request);
        if let Some(cert) = &planned.certificate {
            if let Err(e) = cert.check(instance) {
                problems.push(format!("sample {index}: certificate fails its check: {e}"));
            }
        }
        out.push(Replanned {
            index,
            makespan_steps: step_count(&planned),
            slack_steps: planned.slack.as_ref().map_or(0, |s| s.slack_steps),
            planned,
            materialize,
        });
    }
    let report = engine.report();
    (out, report)
}

/// Checks that a second pass reproduced every per-instance result of
/// the first.
pub fn compare_passes(first: &[Replanned], second: &[Replanned], problems: &mut Vec<String>) {
    for b in second {
        let Some(a) = first.iter().find(|a| a.index == b.index) else {
            problems.push(format!("sample {}: missing from the first pass", b.index));
            continue;
        };
        if (a.makespan_steps, a.slack_steps, a.planned.winner)
            != (b.makespan_steps, b.slack_steps, b.planned.winner)
        {
            problems.push(format!(
                "sample {}: second pass differs: makespan {} vs {}, slack {} vs {}",
                a.index, a.makespan_steps, b.makespan_steps, a.slack_steps, b.slack_steps
            ));
        }
    }
}

/// Per-layer measurements from the traced run.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sum of this module's layer p50s on the blocking path of one
    /// submission (decode, window lookup, plan, arm append), in ms.
    pub blocking_sum_ms: f64,
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

/// Repeats `items` round-robin until at least `min` are taken.
fn cycle<T>(items: &[T], min: usize) -> impl Iterator<Item = &T> {
    let rounds = if items.is_empty() {
        0
    } else {
        min.div_ceil(items.len())
    };
    (0..rounds).flat_map(move |_| items.iter())
}

/// Times decode, plan stages, certify and the journal on the sample
/// (the live-daemon layers are read from the daemon itself); the
/// journal is a bench-owned one under `journal_dir`.
pub fn measure(
    workload: &Workload,
    plans: &[Replanned],
    report: &PlanReport,
    journal_dir: &Path,
    problems: &mut Vec<String>,
) -> Result<Layers, String> {
    let mut metrics = Vec::new();

    // daemon::proto + net::codec: the submit line as it crosses the wire.
    let lines: Vec<String> = workload
        .sample
        .iter()
        .map(|&i| {
            serde_json::to_string(&workload.submissions[i].request).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut decode_us = Vec::new();
    for line in cycle(&lines, 400) {
        let t = Instant::now();
        let request = request_from_line(line)?;
        let Request::Submit { instance, .. } = request else {
            return Err("sample line did not decode as submit".to_string());
        };
        instance_from_value(&instance).map_err(|e| e.to_string())?;
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let line_kb = mean(
        &lines
            .iter()
            .map(|l| l.len() as f64 / 1024.0)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    metrics.push(("decode_us_p50", p(&decode_us, 0.5), "us"));
    metrics.push(("line_kb", line_kb, "KiB"));

    // engine: the whole plan, the cache lookup, the greedy stage, and
    // the slack stage (plan time outside the stage attempts; the
    // window lookup inside the plan hits because it was primed).
    let plan_ms: Vec<f64> = plans
        .iter()
        .map(|r| r.planned.elapsed.as_secs_f64() * 1e3)
        .collect();
    let materialize_ms: Vec<f64> = plans
        .iter()
        .map(|r| r.materialize.as_secs_f64() * 1e3)
        .collect();
    let greedy_ms: Vec<f64> = plans
        .iter()
        .filter_map(|r| r.planned.attempt(Stage::Greedy))
        .filter(|a| !a.elapsed.is_zero())
        .map(|a| a.elapsed.as_secs_f64() * 1e3)
        .collect();
    let slack_ms: Vec<f64> = plans
        .iter()
        .map(|r| {
            let stages: Duration = r.planned.attempts.iter().map(|a| a.elapsed).sum();
            r.planned.elapsed.saturating_sub(stages).as_secs_f64() * 1e3
        })
        .collect();
    let armed = plans.iter().filter(|r| r.armed()).count() as u64;
    let gate_calls = report.gate.incremental_checks + report.gate.full_checks;
    metrics.push(("plan_ms_p50", p(&plan_ms, 0.5), "ms"));
    metrics.push(("plan_ms_p90", p(&plan_ms, 0.9), "ms"));
    metrics.push(("materialize_ms_p50", p(&materialize_ms, 0.5), "ms"));
    metrics.push(("greedy_ms_p50", p(&greedy_ms, 0.5), "ms"));
    metrics.push((
        "gate_calls_per_arm",
        gate_calls as f64 / armed.max(1) as f64,
        "count",
    ));
    metrics.push(("slack_ms_p50", p(&slack_ms, 0.5), "ms"));
    metrics.push((
        "slack_checks_per_arm",
        report.slack.schedules_checked as f64 / armed.max(1) as f64,
        "count",
    ));

    // verify: certify the shipped schedule again.
    let mut certify_ms = Vec::new();
    for r in plans {
        if let Some(schedule) = r.planned.plan.schedule() {
            let instance = &workload.instances[workload.submissions[r.index].instance];
            let t = Instant::now();
            let cert = certify(instance, schedule);
            certify_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if cert.is_err() {
                problems.push(format!(
                    "sample {}: shipped schedule does not certify",
                    r.index
                ));
            }
        }
    }
    metrics.push(("certify_ms_p50", p(&certify_ms, 0.5), "ms"));

    // daemon::journal: arm record + completion tombstone, each fsynced,
    // on a bench-owned journal beside the daemon's state.
    let records: Vec<ArmedRecord> = plans
        .iter()
        .filter_map(|r| {
            let schedule = r.planned.plan.schedule()?.clone();
            let certificate = r.planned.certificate.clone()?;
            let instance = &workload.instances[workload.submissions[r.index].instance];
            Some(ArmedRecord {
                id: r.index as u64,
                tenant: "bench".to_string(),
                priority: Priority::Normal,
                epoch_ns: 0,
                dilation: r.planned.dilation,
                instance: (**instance).clone(),
                schedule,
                certificate,
                slack: r.planned.slack.clone(),
                span_id: 0,
                plan_ns: r.planned.elapsed.as_nanos() as u64,
            })
        })
        .collect();
    let path = journal_dir.join("journal.jsonl");
    let mut journal = Journal::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut arm_us, mut complete_us, mut arm_bytes) = (Vec::new(), Vec::new(), 0u64);
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    for (i, record) in cycle(&records, 120).enumerate() {
        let mut record = record.clone();
        record.id = i as u64 + 1;
        let before = size(&path);
        let t = Instant::now();
        journal.append_arm(&record).map_err(|e| e.to_string())?;
        arm_us.push(t.elapsed().as_secs_f64() * 1e6);
        arm_bytes += size(&path) - before;
        let t = Instant::now();
        journal
            .append_complete(record.id)
            .map_err(|e| e.to_string())?;
        complete_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    let replay = Journal::replay(&path).map_err(|e| e.to_string())?;
    if !replay.live.is_empty() || replay.corrupt_lines != 0 {
        problems.push("bench journal did not replay empty".to_string());
    }
    metrics.push(("journal_arm_us_p50", p(&arm_us, 0.5), "us"));
    metrics.push(("journal_arm_us_p90", p(&arm_us, 0.9), "us"));
    metrics.push(("journal_complete_us_p50", p(&complete_us, 0.5), "us"));
    metrics.push((
        "journal_kb_per_arm",
        arm_bytes as f64 / 1024.0 / arm_us.len().max(1) as f64,
        "KiB",
    ));

    let blocking_sum_ms = p(&decode_us, 0.5) / 1e3
        + p(&materialize_ms, 0.5)
        + p(&plan_ms, 0.5)
        + p(&arm_us, 0.5) / 1e3;
    Ok(Layers {
        metrics,
        blocking_sum_ms,
    })
}

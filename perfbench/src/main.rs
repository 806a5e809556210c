//! `chronus-perfbench`: one benchmark run against a real `chronusd`.
//!
//! ```text
//! chronus-perfbench --workload churn|fig10_64|fig10_512 --seed N
//!                   --seconds S --trace 0|1 --chronusd PATH
//!                   [--state-dir DIR] [--clk-tck HZ]
//! ```
//!
//! Inputs are generated from the seed first. The daemon is then started
//! several times (the median exec→first-`ping` time is `setup_s`), the
//! last instance is driven for the timed phase, drained, and the
//! workload's sample is re-planned outside the daemon for the
//! schedule-quality metrics. With `--trace 1` the per-layer timings
//! are taken as well, and those are what the result line carries.
//! The last line of standard output is the JSON result; the exit code
//! is non-zero when the run could not complete.

#![forbid(unsafe_code)]

mod daemon;
mod drive;
mod layers;
mod stats;
mod workload;

use daemon::Chronusd;
use drive::Outcome;
use stats::{block_percentile, mean, percentile, scrape_quantile, scrape_value, share};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Daemon starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 9;
/// The phase's latencies are split, in sending order, into consecutive
/// blocks of at least this many (and at most [`MAX_BLOCKS`] blocks);
/// `arm_p50_ms` and `arm_p90_ms` are the median block's percentiles, so a
/// few seconds of interference from outside the benchmark move one block
/// instead of the run. 100 leaves 10 samples beyond each block's p90.
const BLOCK_SAMPLES: usize = 100;
const MAX_BLOCKS: usize = 16;
/// Pings timed for `ping_rtt_us`.
const PINGS: usize = 300;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    chronusd: PathBuf,
    state_dir: PathBuf,
    clk_tck: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let num = |flag: &str, v: &str| -> Result<f64, String> {
        v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
    };
    Ok(Args {
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed: not a whole number".to_string())?,
        seconds: num("--seconds", need("--seconds")?)?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
        chronusd: PathBuf::from(need("--chronusd")?),
        state_dir: PathBuf::from(get("--state-dir").unwrap_or(".bench_run")),
        clk_tck: num("--clk-tck", get("--clk-tck").unwrap_or("100"))?,
    })
}

/// Result-line metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let t = Instant::now();
    let workload = workload::generate(&args.workload, args.seed, args.seconds)?;
    println!(
        "inputs: {} seed {}: {} submissions over {} distinct instances, sample {} (generated in {:.2} s)",
        workload.name,
        args.seed,
        workload.submissions.len(),
        workload.instances.len(),
        workload.sample.len(),
        t.elapsed().as_secs_f64()
    );
    let state = args
        .state_dir
        .join(format!("{}-{}", workload.name, std::process::id()));
    let mut problems: Vec<String> = Vec::new();

    // Set-up: exec → first answered ping, several times; the last
    // daemon stays up for the timed phase.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_STARTS {
        let d = Chronusd::start(&args.chronusd, &state.join(format!("start-{k}")))?;
        setups.push(d.setup.as_secs_f64());
        if k + 1 < SETUP_STARTS {
            d.drain()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no daemon started")?;
    let setup_s = percentile(&setups, 0.5).unwrap_or(0.0);

    let phase = drive::run(&workload, &daemon.socket, args.seconds)?;
    problems.extend(phase.problems.iter().cloned());

    // Live-daemon layer readings for the traced run, and their share of
    // one submission's blocking path: two round trips (submit and
    // watch) and the queue wait.
    let mut live: Vec<Metric> = Vec::new();
    let mut live_blocking_ms = 0.0;
    if args.trace {
        let mut client = chronus_daemon::CtlClient::connect(&daemon.socket)
            .map_err(|e| format!("daemon connection: {e}"))?;
        let mut rtts = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let text = client.metrics_text().map_err(|e| format!("metrics: {e}"))?;

        let sheds: f64 = [
            "chronus_daemon_shed_queue_full_total",
            "chronus_daemon_shed_rate_limited_total",
            "chronus_daemon_shed_draining_total",
        ]
        .iter()
        .filter_map(|name| scrape_value(&text, name))
        .sum();
        let bucket = |series: &str, q| scrape_quantile(&text, series, q).unwrap_or(0.0) / 1e6;
        println!(
            "daemon scrape (log2-bucket upper bounds): submit->settle p50 <= {:.3} ms, p90 <= {:.3} ms; \
             plan p50 <= {:.3} ms, p90 <= {:.3} ms",
            bucket("chronus_daemon_submit_to_settle_ns", 0.5),
            bucket("chronus_daemon_submit_to_settle_ns", 0.9),
            bucket("chronus_daemon_plan_ns", 0.5),
            bucket("chronus_daemon_plan_ns", 0.9),
        );
        let wait = |q| bucket("chronus_daemon_queue_wait_ns", q);
        let rtt_us = percentile(&rtts, 0.5).unwrap_or(0.0);
        live_blocking_ms = 2.0 * rtt_us / 1e3 + wait(0.5);
        live.push(("ping_rtt_us", rtt_us, "us"));
        live.push(("queue_wait_ms_p50", wait(0.5), "ms"));
        live.push(("queue_wait_ms_p90", wait(0.9), "ms"));
        live.push(("shed_count", sheds, "count"));
        // The daemon's own window cache over the whole phase.
        let gauge = |name| scrape_value(&text, name).unwrap_or(0.0);
        let (hits, misses) = (
            gauge("chronus_daemon_cache_hits"),
            gauge("chronus_daemon_cache_misses"),
        );
        live.push(("cache_hit_share", hits / (hits + misses).max(1.0), "ratio"));
        live.push((
            "cache_bytes_mb",
            gauge("chronus_daemon_cache_bytes") / (1024.0 * 1024.0),
            "MiB",
        ));
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let cpu_ticks = daemon.cpu_ticks()?;
    let own_ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stats::cpu_ticks(&s))
        .unwrap_or(0);
    daemon.drain()?;

    // Re-plan the sample outside the daemon: schedule quality, and
    // the daemon's winners must match.
    let distinct = workload.distinct_sample();
    let replanned = if args.trace {
        &workload.sample
    } else {
        &distinct
    };
    let (plans, report) = layers::replan(&workload, replanned, args.trace, &mut problems);
    for r in &plans {
        let Some(record) = phase.records.get(r.index) else {
            continue;
        };
        let detail = record
            .status
            .as_ref()
            .and_then(|s| s.get("detail"))
            .and_then(|d| d.as_str())
            .unwrap_or("");
        let agrees = match &record.outcome {
            Outcome::Armed => r.armed() && detail.contains(&format!("{} winner", r.planned.winner)),
            Outcome::Degraded => !r.armed(),
            Outcome::Failed(_) => true,
        };
        if !agrees {
            problems.push(format!(
                "sample {}: daemon settled it {:?} ({detail}) but the re-plan won with {} (certified: {})",
                r.index,
                record.outcome,
                r.planned.winner,
                r.armed()
            ));
        }
    }
    let quality: Vec<&layers::Replanned> = plans
        .iter()
        .filter(|r| distinct.contains(&r.index))
        .collect();
    let makespan_steps = mean(
        &quality
            .iter()
            .map(|r| r.makespan_steps as f64)
            .collect::<Vec<_>>(),
    );
    let slack_window = mean(
        &quality
            .iter()
            .map(|r| r.slack_window_steps())
            .collect::<Vec<_>>(),
    );

    let attempted = phase.records.len() as u64;
    let armed = phase.count(|o| *o == Outcome::Armed);
    let degraded = phase.count(|o| *o == Outcome::Degraded);
    let failed = phase.count(|o| matches!(o, Outcome::Failed(_)));
    if attempted == 0 {
        problems.push("no submission was attempted".to_string());
    }
    if armed + degraded + failed != attempted {
        problems.push("a submission was neither armed, degraded nor failed".to_string());
    }
    let latencies = phase.latencies_ms();
    let lateness: Vec<f64> = phase.records.iter().map(|r| r.late_ms).collect();
    let blocks = (latencies.len() / BLOCK_SAMPLES).clamp(1, MAX_BLOCKS);
    let arm_p50 = block_percentile(&latencies, blocks, 0.5).unwrap_or(0.0);
    let arm_p90 = block_percentile(&latencies, blocks, 0.9).unwrap_or(0.0);
    let wall = phase.wall.max(Duration::from_nanos(1)).as_secs_f64();

    println!(
        "phase: {attempted} attempted in {wall:.3} s: {armed} armed+confirmed, {degraded} degraded, {failed} failed \
         (fail_share {:.4}, degraded_share {:.4})",
        share(failed, attempted),
        share(degraded, attempted)
    );
    for r in phase
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
        .take(5)
    {
        println!("  failed: {:?}", r.outcome);
    }
    println!(
        "latency submit->settled (client clock, n={}): p50 {arm_p50:.3} ms, p90 {arm_p90:.3} ms \
         (median of {blocks} blocks; whole run p50 {:.3} ms, p90 {:.3} ms); \
         generator lateness p90 {:.3} ms (n={})",
        latencies.len(),
        percentile(&latencies, 0.5).unwrap_or(0.0),
        percentile(&latencies, 0.9).unwrap_or(0.0),
        percentile(&lateness, 0.9).unwrap_or(0.0),
        lateness.len()
    );
    println!(
        "setup: {} starts, median {:.4} s; daemon peak RSS {peak_rss_mb:.1} MiB, CPU {:.2} s \
         (load generator {:.2} s); re-planned {} submissions ({} distinct instances)",
        setups.len(),
        setup_s,
        cpu_ticks as f64 / args.clk_tck,
        own_ticks as f64 / args.clk_tck,
        plans.len(),
        quality.len()
    );

    let metrics: Vec<Metric> = if args.trace {
        let (second, _) = layers::replan(&workload, &distinct, false, &mut problems);
        layers::compare_passes(&plans, &second, &mut problems);
        drop(second);
        let journal_dir = state.join("layer-journal");
        let measured = layers::measure(&workload, &plans, &report, &journal_dir, &mut problems)?;
        let attributed = live_blocking_ms + measured.blocking_sum_ms;
        let mut m = live;
        m.extend(measured.metrics);
        m.push((
            "unattributed_share",
            1.0 - attributed / arm_p50.max(f64::MIN_POSITIVE),
            "ratio",
        ));
        m.push((
            "gen_late_ms_p90",
            percentile(&lateness, 0.9).unwrap_or(0.0),
            "ms",
        ));
        m
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("arm_p50_ms", arm_p50, "ms"),
            ("arm_p90_ms", arm_p90, "ms"),
            ("armed_per_s", armed as f64 / wall, "1/s"),
            ("settled_share", share(armed + degraded, attempted), "ratio"),
            ("certified_share", share(armed, attempted), "ratio"),
            ("makespan_steps", makespan_steps.unwrap_or(0.0), "steps"),
            ("slack_window_steps", slack_window.unwrap_or(0.0), "steps"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            (
                "cpu_ms_per_arm",
                cpu_ticks as f64 * 1e3 / args.clk_tck / armed.max(1) as f64,
                "ms",
            ),
        ]
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    let _ = std::fs::remove_dir_all(&state);
    Ok((problems.is_empty(), attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chronus-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chronus-perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

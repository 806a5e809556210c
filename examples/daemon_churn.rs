//! Sustained churn through an in-process `chronusd`.
//!
//! Drives the daemon with a seeded Poisson arrival process — mixed
//! tenants, priorities and instance shapes, one deliberately throttled
//! tenant — then reads the admission outcome and latency percentiles
//! straight off the daemon's own Prometheus scrape, the way an
//! operator's dashboard would.
//!
//! ```text
//! cargo run --release --example daemon_churn [SEED]
//! ```

use chronus::daemon::{Daemon, DaemonConfig, Priority, Shed};
use chronus::net::{motivating_example, reversal_instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Arrival rate of the churn trace (requests per second).
const LAMBDA: f64 = 200.0;
/// Number of arrivals in the trace.
const EVENTS: usize = 200;

/// Extracts one cumulative-histogram percentile (in milliseconds) from
/// a Prometheus text exposition.
fn percentile_ms(text: &str, series: &str, q: f64) -> f64 {
    let prefix = format!("{series}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            if let Some((le, value)) = rest.split_once("\"} ") {
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                buckets.push((le, value.parse().unwrap_or(0.0)));
            }
        }
    }
    let total = buckets.last().map(|(_, c)| *c).unwrap_or(0.0);
    if total == 0.0 {
        return 0.0;
    }
    let rank = (q * total).ceil();
    for (le, cumulative) in buckets {
        if cumulative >= rank {
            return le / 1e6; // ns bucket bound -> ms
        }
    }
    f64::INFINITY
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let mut rng = StdRng::seed_from_u64(seed);

    let state = std::env::temp_dir().join(format!("chronusd-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut config = DaemonConfig {
        snapshot_dir: state.clone(),
        workers: 2,
        queue_bound: 32,
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    };
    // One tenant is held to a trickle so the shed path shows up in the
    // trace: ~40 req/s offered against a 5 req/s budget.
    config
        .tenant_overrides
        .insert("burst".to_string(), (5.0, 2.0));
    let daemon = Daemon::start(config).expect("daemon start");

    println!("chronusd churn: seed {seed}, {EVENTS} Poisson arrivals at {LAMBDA}/s");
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let mut admitted = Vec::new();
    let (mut shed_rate, mut shed_queue) = (0u64, 0u64);
    for i in 0..EVENTS {
        // Poisson process: exponential inter-arrival gaps.
        let u: f64 = rng.gen();
        let gap_s = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / LAMBDA;
        std::thread::sleep(Duration::from_nanos((gap_s * 1e9) as u64));

        let tenant = if i % 5 == 4 {
            "burst".to_string()
        } else {
            format!("tenant-{}", i % 4)
        };
        let instance = if rng.gen_bool(0.7) {
            Arc::new(motivating_example())
        } else {
            Arc::new(reversal_instance(rng.gen_range(4..8usize), 2, 1))
        };
        match daemon.submit(&tenant, priorities[i % 3], None, instance) {
            Ok(id) => admitted.push(id),
            Err(Shed::RateLimited { .. }) => shed_rate += 1,
            Err(Shed::QueueFull { .. }) => shed_queue += 1,
            Err(Shed::Draining) => unreachable!("daemon is not draining"),
        }
    }

    // Let every admitted update settle, then confirm the armed ones so
    // the journal ends the run empty.
    let mut armed = 0u64;
    for &id in &admitted {
        let status = daemon
            .watch(id, Duration::from_secs(30))
            .expect("update settles");
        if status.state == chronus::daemon::UpdateState::Armed {
            daemon.confirm(id).expect("confirm armed update");
            armed += 1;
        }
    }

    let text = daemon.metrics_text();
    println!(
        "admission: {} submitted, {} admitted, {} shed (rate {}, queue {}), {} armed",
        EVENTS,
        admitted.len(),
        shed_rate + shed_queue,
        shed_rate,
        shed_queue,
        armed
    );
    println!("latency percentiles (log2-bucket upper bounds):");
    for series in [
        "chronus_daemon_queue_wait_ns",
        "chronus_daemon_plan_ns",
        "chronus_daemon_submit_to_settle_ns",
    ] {
        println!(
            "  {series:<36} p50 <= {:>9.3} ms   p90 <= {:>9.3} ms   p99 <= {:>9.3} ms",
            percentile_ms(&text, series, 0.50),
            percentile_ms(&text, series, 0.90),
            percentile_ms(&text, series, 0.99),
        );
    }

    let report = daemon.shutdown();
    println!(
        "drained: engine planned {}, {} armed left in journal",
        report.engine_planned, report.snapshot_live
    );
    assert_eq!(
        report.snapshot_live, 0,
        "confirmed updates must leave no journal residue"
    );
    let _ = std::fs::remove_dir_all(state);
}

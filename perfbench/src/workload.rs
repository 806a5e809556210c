//! The three workloads' inputs, generated before any timing starts.
//!
//! Each workload submits a fixed set of instances; the seed draws what
//! varies from run to run: the order of the submissions and, in the open
//! loop, the arrival times. The sets are fixed because the daemon's cost
//! per instance is heavy-tailed (at n=64 the plan's p90 is about three
//! times its p50), so a set drawn per seed moved a run's CPU per arm by
//! about 10% and its p90 latency by about 15%.

use chronus_bench::fig10::scale_instance;
use chronus_daemon::Priority;
use chronus_net::codec::instance_to_value;
use chronus_net::{motivating_example, reversal_instance, UpdateInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};
use std::sync::Arc;

/// Open-loop arrival rate of `churn` (submissions per second).
pub const CHURN_RATE: f64 = 200.0;
/// fig10 n=8 instances in the `churn` pool.
const CHURN_FIG10_VARIANTS: usize = 2;
/// Leading `churn` submissions timed layer by layer in the traced run.
const CHURN_SAMPLE: usize = 400;
/// First fig10 generator seed; instance `i` of a set comes from the
/// `i`-th seed at or above it that generates.
const FIG10_SEED: u64 = 20170605;
/// `fig10_64` submits a fixed number of distinct instances per second of
/// run: about what one client settles per second at this commit (2-core
/// host), so the phase lasts about `--seconds`. The count is fixed
/// rather than the time, because every distinct instance adds a cached
/// window to the daemon's resident set: a faster daemon must not look
/// worse on `peak_rss_mb` for having seen more instances.
const FIG10_64_PER_SECOND: f64 = 40.0;
/// Distinct instances of `fig10_512` (fixed for the same reason; about
/// 48 MB of cached window each at this commit).
const FIG10_512_POOL: usize = 100;

/// How submissions are paced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Poisson arrivals at a fixed rate, sent on schedule.
    Open,
    /// One client that waits for each submission to settle (and be
    /// confirmed) before sending the next, through every prepared
    /// submission.
    Closed,
}

/// One prepared submission.
pub struct Submission {
    /// Index into [`Workload::instances`].
    pub instance: usize,
    /// The complete `submit` request, encoded before timing.
    pub request: Value,
    /// Open loop: when it is due, as seconds after the phase starts.
    pub due_s: f64,
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub pacing: Pacing,
    /// Distinct instances; submissions refer to them by index.
    pub instances: Vec<Arc<UpdateInstance>>,
    /// Submissions in sending order.
    pub submissions: Vec<Submission>,
    /// Submission indices, ascending, re-planned outside the daemon:
    /// their distinct instances give `makespan_steps` and
    /// `slack_window_steps`, and the traced run times every layer on
    /// all of them.
    pub sample: Vec<usize>,
}

impl Workload {
    /// The first submission of each distinct instance in the sample: the
    /// schedule-quality metrics average over these, so a repeated
    /// instance counts once.
    pub fn distinct_sample(&self) -> Vec<usize> {
        let mut seen = vec![false; self.instances.len()];
        self.sample
            .iter()
            .copied()
            .filter(|&i| !std::mem::replace(&mut seen[self.submissions[i].instance], true))
            .collect()
    }
}

pub const NAMES: [&str; 3] = ["churn", "fig10_64", "fig10_512"];

fn submit_request(tenant: &str, priority: Priority, instance: &UpdateInstance) -> Value {
    let mut obj = Map::new();
    obj.insert("cmd".to_string(), Value::from("submit"));
    obj.insert("tenant".to_string(), Value::from(tenant));
    obj.insert("priority".to_string(), Value::from(priority.as_str()));
    obj.insert("instance".to_string(), instance_to_value(instance));
    Value::Object(obj)
}

/// The first `count` fig10-scale instances of `n` switches, from
/// generator seeds [`FIG10_SEED`] up (the few seeds the generator
/// rejects are skipped).
fn fig10_instances(n: usize, count: usize) -> Vec<Arc<UpdateInstance>> {
    (FIG10_SEED..)
        .filter_map(|s| scale_instance(n, s))
        .take(count)
        .map(Arc::new)
        .collect()
}

/// Builds workload `name` for `seed`; `seconds` sets the open loop's
/// arrival schedule and the closed loop's submission count.
pub fn generate(name: &str, seed: u64, seconds: f64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0A05_BE4C);
    match name {
        "churn" => {
            let mut instances = vec![Arc::new(motivating_example())];
            instances.extend((4..8).map(|n| Arc::new(reversal_instance(n, 2, 1))));
            instances.extend(fig10_instances(8, CHURN_FIG10_VARIANTS));
            let priorities = [Priority::High, Priority::Normal, Priority::Low];
            let mut submissions = Vec::new();
            let mut due_s = 0.0;
            let mut deck: Vec<usize> = Vec::new();
            loop {
                // Exponential inter-arrival gaps: a Poisson process.
                let u: f64 = rng.gen();
                due_s += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / CHURN_RATE;
                if due_s >= seconds {
                    break;
                }
                // Dealt like cards from a reshuffled deck of the pool, so
                // every run carries the same mix.
                if deck.is_empty() {
                    deck = (0..instances.len()).collect();
                    deck.shuffle(&mut rng);
                }
                let instance = deck.pop().unwrap_or(0);
                let i = submissions.len();
                let tenant = format!("tenant-{}", i % 4);
                submissions.push(Submission {
                    instance,
                    request: submit_request(&tenant, priorities[i % 3], &instances[instance]),
                    due_s,
                });
            }
            let sample = (0..submissions.len().min(CHURN_SAMPLE)).collect();
            Ok(Workload {
                name: "churn",
                pacing: Pacing::Open,
                instances,
                submissions,
                sample,
            })
        }
        "fig10_64" | "fig10_512" => {
            let (n, count, sampled, label) = if name == "fig10_64" {
                let count = (FIG10_64_PER_SECOND * seconds).ceil().max(1.0) as usize;
                (64, count, 256, "fig10_64")
            } else {
                (512, FIG10_512_POOL, 24, "fig10_512")
            };
            let instances = fig10_instances(n, count);
            let mut order: Vec<usize> = (0..count).collect();
            order.shuffle(&mut rng);
            let submissions: Vec<Submission> = order
                .iter()
                .map(|&i| Submission {
                    instance: i,
                    request: submit_request("controller", Priority::Normal, &instances[i]),
                    due_s: 0.0,
                })
                .collect();
            // The same instances on every run, wherever the seed put them.
            let sample = (0..submissions.len())
                .filter(|&i| submissions[i].instance < sampled)
                .collect();
            Ok(Workload {
                name: label,
                pacing: Pacing::Closed,
                instances,
                submissions,
                sample,
            })
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

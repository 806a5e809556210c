//! Sharded vs joint multi-flow planning benchmark, machine readable.
//!
//! The sharded planner (`chronus_core::shard`) exists to make K-flow
//! updates on fabric-scale topologies *faster* without giving up the
//! joint proof: pods plan in parallel against reserved slices of the
//! shared links, and the per-shard certificates compose into one
//! sealed joint certificate. This bench measures exactly that claim:
//! the same K-flow instances planned **sharded** (pod partition,
//! parallel workers, composed certificate) and **jointly** (one
//! monolithic greedy run), both arms with certification on, on
//! fat-tree fabrics at the nominal scales n ∈ {512, 2048} (arity 20 →
//! 500 switches, arity 40 → 2000 switches) and K ∈ {8, 32, 128} flows.
//!
//! The flow mix is mostly pod-local **dependency chains**: flows in a
//! pod occupy consecutive aggregation groups and each migrates onto
//! its neighbour's current group, with link capacity (150) unable to
//! hold two demands (100) at once — so the chain must hand off
//! sequentially and the planner genuinely works for its schedule.
//! One in sixteen flows crosses pods through the core on dedicated
//! aggregation groups — enough cross-shard load that the reservation
//! table actually has shared links to slice, while staying statically
//! additive so both arms stay clean and the comparison measures
//! *time*, not luck.
//!
//! Per cell it emits wall-clock totals for both arms, the shard
//! stats, and a `summary/{n}x{K}` object with `speedup`
//! (joint ÷ sharded), `sharded_clean` and `joint_clean` rates.
//! Writes `BENCH_multiflow.json`; `bench_check --multiflow` gates the
//! speedup floor at the 2048x128 cell and pins both clean rates at
//! every cell.
// Bench harness: panicking on a malformed fixture is intended.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)]
#![forbid(unsafe_code)]

use chronus_core::greedy::{greedy_schedule_in, GreedyConfig};
use chronus_core::shard::{shard_schedule_in, ShardStats, ShardingConfig};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{Flow, FlowId, Network, Path, SwitchId, UpdateInstance};
use chronus_timenet::SimWorkspace;
use std::fmt::Write as _;
use std::time::Instant;

/// (nominal scale, fat-tree arity): arity 20 → 500 switches, arity
/// 40 → 2000. The nominal n labels the JSON keys.
const FABRICS: &[(usize, usize)] = &[(512, 20), (2048, 40)];
/// Flows per instance.
const FLOW_COUNTS: &[usize] = &[8, 32, 128];
/// Instances per cell (fewer at the large scale: the *joint* arm is
/// the expensive one, and it is the baseline, not the subject).
fn instances_for(n: usize) -> usize {
    if n >= 2048 {
        2
    } else {
        3
    }
}

struct Fabric {
    net: Network,
    cores: Vec<SwitchId>,
    aggs: Vec<SwitchId>,
    edges: Vec<SwitchId>,
    pods: usize,
    half: usize,
}

fn build_fabric(arity: usize) -> Fabric {
    // Capacity 150 against demand 100: no link can hold two flows, so
    // chained migrations must hand off in time.
    let net = fat_tree(
        arity,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let half = arity / 2;
    let by_name = |prefix: &str, count: usize| -> Vec<SwitchId> {
        let mut ids = vec![SwitchId(0); count];
        let mut found = 0usize;
        for s in net.switches() {
            if let Some(name) = net.switch_name(s) {
                if let Some(i) = name
                    .strip_prefix(prefix)
                    .and_then(|t| t.parse::<usize>().ok())
                {
                    ids[i] = s;
                    found += 1;
                }
            }
        }
        assert_eq!(found, count, "fabric is missing {prefix} switches");
        ids
    };
    Fabric {
        cores: by_name("core", half * half),
        aggs: by_name("agg", arity * half),
        edges: by_name("edge", arity * half),
        net,
        pods: arity,
        half,
    }
}

/// One in this many flows crosses pods through the core.
const CROSS_EVERY: usize = 16;
const DEMAND: u64 = 100;
/// Cross flows are half-demand so a *pair* of them fits one link:
/// their shared destination links are additively safe reservations.
const CROSS_DEMAND: u64 = 50;
/// Target chain length per pod (deeper layers allowing).
const CHAIN_TARGET: usize = 16;

/// Deterministic K-flow mix over the fabric.
///
/// Chain flows form per-pod hand-off chains: flow `j` of a pod runs
/// `edge0 → agg(j) → edge1` and migrates to `agg(j + 1)` — exactly
/// the group flow `j + 1` still occupies, and the link cannot hold
/// both (capacity 150, demands 100), so the pod's chain must hand off
/// back-to-front in time. Chains pack into as few pods as the
/// aggregation depth allows (up to [`CHAIN_TARGET`] flows each), so
/// the joint planner faces one big entangled instance while each
/// shard plans a single short chain. Cross flows ride dedicated top
/// aggregation groups and per-flow core switches, and arrive in
/// *pairs* sharing a destination edge at half demand — the shared
/// destination links are loaded by two shards at once, so the
/// reservation table genuinely has capacity to slice, while staying
/// statically additive (two 50s under a 150 link) so both arms stay
/// clean and the comparison measures *time*, not luck. The `seed`
/// rotates each chain's starting group so instances of a cell
/// exercise different links.
fn flows_for(fabric: &Fabric, kflows: usize, seed: u64) -> Vec<Flow> {
    let (pods, half) = (fabric.pods, fabric.half);
    let agg = |pod: usize, a: usize| fabric.aggs[pod * half + a % half];
    let edge = |pod: usize, e: usize| fabric.edges[pod * half + e % half];
    let core = |a: usize, c: usize| fabric.cores[(a % half) * half + c % half];
    let cross = kflows / CROSS_EVERY;
    let chain_total = kflows - cross;
    // Chain groups stay below the two reserved cross groups.
    let max_chain = half.saturating_sub(4).max(1);
    let target = max_chain.min(CHAIN_TARGET);
    let use_pods = chain_total.div_ceil(target).clamp(1, pods);
    assert!(
        use_pods * max_chain >= chain_total,
        "fabric too small for {kflows} flows"
    );
    let mut flows = Vec::with_capacity(kflows);
    for t in 0..chain_total {
        let pod = t % use_pods;
        let j = t / use_pods;
        let len = chain_total / use_pods + usize::from(pod < chain_total % use_pods);
        // Rotate the chain's starting group wherever the layer has
        // slack for it, so seeds touch different links.
        let rot = (seed as usize % 2).min(half.saturating_sub(4).saturating_sub(len));
        let (e0, e1) = (edge(pod, 0), edge(pod, 1));
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                DEMAND,
                Path::new(vec![e0, agg(pod, rot + j), e1]),
                Path::new(vec![e0, agg(pod, rot + j + 1), e1]),
            )
            .expect("chain fixture paths"),
        );
    }
    for m in 0..cross {
        let (p, d) = (m % pods, (pods / 2 + m / 2) % pods);
        let (a0, a1) = (half - 2, half - 1);
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                CROSS_DEMAND,
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a0),
                    core(a0, m),
                    agg(d, a0),
                    edge(d, 4),
                ]),
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a1),
                    core(a1, m),
                    agg(d, a1),
                    edge(d, 4),
                ]),
            )
            .expect("cross fixture paths"),
        );
    }
    flows
}

#[derive(Default)]
struct Arm {
    nanos: f64,
    clean: usize,
    attempts: usize,
}

fn main() {
    let mut rows = String::new();
    let mut summaries = String::new();

    // Process warm-up: burn in clock ramp and allocator on a throwaway
    // small cell before anything is timed.
    {
        let fabric = build_fabric(8);
        let inst =
            UpdateInstance::new(fabric.net.clone(), flows_for(&fabric, 8, 0)).expect("warm-up");
        let mut ws = SimWorkspace::default();
        let _ = shard_schedule_in(&inst, ShardingConfig::default(), &mut ws);
        let _ = greedy_schedule_in(&inst, GreedyConfig::default(), &mut ws);
    }

    for &(n, arity) in FABRICS {
        let fabric = build_fabric(arity);
        for &kflows in FLOW_COUNTS {
            let shard_cfg = ShardingConfig {
                shards: fabric.pods,
                ..ShardingConfig::default()
            };
            let mut sharded = Arm::default();
            let mut joint = Arm::default();
            let mut stats = ShardStats::default();
            let mut ws = SimWorkspace::default();
            for seed in 0..instances_for(n) as u64 {
                let inst =
                    UpdateInstance::new(fabric.net.clone(), flows_for(&fabric, kflows, seed))
                        .unwrap_or_else(|e| panic!("bench instance {n}x{kflows}/{seed}: {e}"));

                let t0 = Instant::now();
                let out = shard_schedule_in(&inst, shard_cfg, &mut ws);
                sharded.nanos += t0.elapsed().as_nanos() as f64;
                sharded.attempts += 1;
                if let Ok(out) = &out {
                    stats = out.stats;
                    let sealed = out
                        .certificate
                        .as_ref()
                        .is_some_and(|c| c.check(&inst).is_ok());
                    if sealed {
                        sharded.clean += 1;
                    }
                }

                let t0 = Instant::now();
                let out = greedy_schedule_in(&inst, GreedyConfig::default(), &mut ws);
                joint.nanos += t0.elapsed().as_nanos() as f64;
                joint.attempts += 1;
                if let Ok(out) = &out {
                    let sealed = out
                        .certificate
                        .as_ref()
                        .is_some_and(|c| c.check(&inst).is_ok());
                    if sealed {
                        joint.clean += 1;
                    }
                }
            }
            let speedup = joint.nanos / sharded.nanos.max(1.0);
            let sharded_clean = sharded.clean as f64 / sharded.attempts.max(1) as f64;
            let joint_clean = joint.clean as f64 / joint.attempts.max(1) as f64;
            println!(
                "multiflow/{n}x{kflows}: sharded {:.1} ms, joint {:.1} ms -> speedup {speedup:.2}x \
                 (shards {}, shared links {}, fallback {}, clean {sharded_clean:.2}/{joint_clean:.2})",
                sharded.nanos / 1e6,
                joint.nanos / 1e6,
                stats.shards,
                stats.shared_links,
                stats.fell_back_joint,
            );
            let _ = write!(
                rows,
                "{}\n  \"multiflow/{n}x{kflows}\": {{\"sharded_ns\": {:.0}, \"joint_ns\": {:.0}, \
                 \"shards\": {}, \"shared_links\": {}, \"replan_rounds\": {}, \"conflicts\": {}}}",
                if rows.is_empty() { "" } else { "," },
                sharded.nanos,
                joint.nanos,
                stats.shards,
                stats.shared_links,
                stats.replan_rounds,
                stats.conflicts,
            );
            let _ = write!(
                summaries,
                ",\n  \"summary/{n}x{kflows}\": {{\"speedup\": {speedup:.2}, \
                 \"sharded_clean\": {sharded_clean:.2}, \"joint_clean\": {joint_clean:.2}}}"
            );
        }
    }

    let json = format!("{{{rows}{summaries}\n}}\n");
    let path = "BENCH_multiflow.json";
    std::fs::write(path, &json).expect("write BENCH_multiflow.json");
    println!("(json: {path})");
}

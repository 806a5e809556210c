//! # chronus-engine — a concurrent batched update-planning engine
//!
//! The paper's algorithms plan one flow migration at a time; a timed
//! SDN controller faces a *stream* of them. This crate turns the
//! workspace's planners into a long-lived service:
//!
//! - [`Engine`]: a crossbeam-channel worker pool accepting batches of
//!   [`UpdateRequest`]s, answering each in submission order;
//! - the **fallback chain** ([`plan_with_chain`]): greedy scheduler →
//!   tree feasibility search → two-phase baseline, so every request
//!   leaves with a consistency-preserving plan — deadline pressure
//!   degrades plan *quality* (rule overhead), never correctness;
//! - the **slack stage** ([`EngineConfig::with_slack`]): timed winners
//!   ship with a slack certificate — the certified timing tolerance
//!   ±Δ — dilating the schedule (up to 4×, until one step is certified)
//!   to buy tolerance when the planner's packing certifies none;
//! - [`UpdateWatchdog`]: the deployment-side deadline tracker turning
//!   that certified tolerance into re-arm-or-rollback decisions;
//! - [`PlanReport`]: per-stage latencies and win counts, queue depths
//!   and deadline casualties.
//!
//! Concurrency is observationally pure: every chain stage is
//! deterministic, so a batch planned on N workers yields exactly the
//! plans of [`plan_sequential`] whenever deadlines do not bite — a
//! property pinned by this crate's tests.
//!
//! ```
//! use chronus_engine::{Engine, EngineConfig, Stage};
//! use chronus_net::motivating_example;
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::with_workers(2));
//! let plans = engine.plan_instances(vec![Arc::new(motivating_example()); 4]);
//! assert!(plans.iter().all(|p| p.winner == Stage::Greedy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod cache;
mod fallback;
mod metrics;
mod pool;
mod request;
mod watchdog;

// The window memo is not on any planning path; it is exported only for
// callers that time materialization by hand.
pub use cache::{flow_signature, planning_horizon, topology_hash, CacheKey, TimeNetCache};
pub use fallback::{
    plan_sequential, plan_with_chain, tp_flip_time, PlanError, PlanKind, PlannedUpdate, Stage,
    StageAttempt, StageOutcome, TpBatchPlan,
};
pub use metrics::{CertStats, EngineMetrics, PlanReport, ShardStats, SlackStats, StageStats};
pub use pool::{DrainReport, Engine, EngineConfig, PlanTicket};
// The sharded pre-stage's knobs travel with the engine config; re-export
// them so `EngineConfig::with_sharding` callers need no chronus-core dep.
pub use chronus_core::shard::ShardingConfig;
pub use request::{RequestId, UpdateRequest};
pub use watchdog::{UpdateWatchdog, WatchdogVerdict};

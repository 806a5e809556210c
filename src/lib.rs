//! # chronus — consistent data-plane updates in timed SDNs
//!
//! A from-scratch Rust reproduction of *Chronus: Consistent Data Plane
//! Updates in Timed SDNs* (Zheng, Chen, Schmid, Dai, Wu — ICDCS 2017).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`net`] — the network model: switches, capacitated/delayed links,
//!   paths, flows, topologies, routing, instance generators;
//! - [`timenet`] — time-extended networks, schedules and the exact
//!   dynamic-flow simulator (the reproduction's ground truth);
//! - [`core`] — the paper's algorithms: tree feasibility (Alg. 1),
//!   greedy scheduling (Alg. 2), dependency sets (Alg. 3), loop checks
//!   (Alg. 4) and execution plans (Alg. 5);
//! - [`opt`] — exact MUTP solvers: schedule-space branch and bound and
//!   the ILP of program (3);
//! - [`baselines`] — the OR (order replacement) and TP (two-phase)
//!   comparison schemes;
//! - [`openflow`] — the OpenFlow-style data-plane substrate;
//! - [`clock`] — the Time4-style synchronized-clock substrate;
//! - [`emu`] — the discrete-event emulator standing in for Mininet;
//! - [`engine`] — the concurrent batched update-planning engine:
//!   worker-pool planning with per-request deadlines and the
//!   greedy → tree → two-phase fallback chain;
//! - [`verify`] — the independent static certifier: proves schedules
//!   loop- and congestion-free by interval arithmetic, with no shared
//!   simulator code, and seals every solver's success with a
//!   machine-checkable certificate;
//! - [`trace`] — the observability layer: structured spans across
//!   every solver/engine/emulator hot path, a lock-free metrics
//!   registry with Prometheus/JSON encoders, and a Chrome trace-event
//!   timeline exporter (load `trace.json` in Perfetto);
//! - [`faults`] — fault injection and failure recovery: seeded
//!   fault plans (message loss/duplication/delay, install stragglers,
//!   clock-desync spikes, switch reboots), a reliable-delivery
//!   protocol with acks and exponential-backoff retransmission, and
//!   the slack-certified re-arm / two-phase-rollback recovery policy;
//! - [`daemon`] — `chronusd`, the long-running update service: a
//!   Unix-socket line-JSON IPC server wrapping the engine with
//!   priority-class admission queues, per-tenant token-bucket rate
//!   limits, a resident planning engine, and a write-ahead
//!   journal of certified armed schedules that the restart path
//!   re-arms within certified slack or rolls back (plus the
//!   `chronusctl` CLI client).
//!
//! ## Quickstart
//!
//! ```
//! use chronus::core::greedy::greedy_schedule;
//! use chronus::net::motivating_example;
//! use chronus::timenet::{FluidSimulator, Verdict};
//!
//! let instance = motivating_example();
//! let outcome = greedy_schedule(&instance).expect("feasible");
//! let report = FluidSimulator::check(&instance, &outcome.schedule);
//! assert_eq!(report.verdict(), Verdict::Consistent);
//! println!("update in {} steps:\n{}", outcome.makespan + 1, outcome.schedule);
//! ```
//!
//! To plan a whole batch concurrently, hand the instances to the
//! engine instead of calling the scheduler per flow:
//!
//! ```
//! use chronus::engine::{Engine, EngineConfig};
//! use chronus::net::motivating_example;
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::with_workers(2));
//! let plans = engine.plan_instances(vec![Arc::new(motivating_example()); 8]);
//! assert!(plans.iter().all(|p| p.timed_schedule().is_ok()));
//! assert!(plans.iter().all(|p| p.certificate.is_some()));
//! println!("{}", engine.report());
//! ```
//!
//! Run `cargo run -p chronus-bench --release --bin walkthrough` for the
//! paper's worked example, and the `fig6`…`fig11`/`table2` binaries to
//! regenerate every figure and table of the evaluation (see
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use chronus_baselines as baselines;
pub use chronus_clock as clock;
pub use chronus_core as core;
pub use chronus_daemon as daemon;
pub use chronus_emu as emu;
pub use chronus_engine as engine;
pub use chronus_faults as faults;
pub use chronus_net as net;
pub use chronus_openflow as openflow;
pub use chronus_opt as opt;
pub use chronus_timenet as timenet;
pub use chronus_trace as trace;
pub use chronus_verify as verify;

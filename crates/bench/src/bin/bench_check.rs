//! CI gate over the committed bench JSONs: turns the bench-smoke job
//! from "print the numbers" into an assertion.
//!
//! Usage: `bench_check <baseline.json> <fresh.json>`
//!
//! Over `BENCH_simulate.json` (end-to-end default greedy), four checks
//! per size, exit code 1 on any failure:
//!
//! 1. **Makespan pin** — each size's greedy `makespan` must equal the
//!    committed baseline's. Timing drifts with hardware; schedule
//!    *quality* must not.
//! 2. **Simulator-call pin** — each size's `simulator_calls` must equal
//!    the baseline's. The count is deterministic, so a change means the
//!    greedy loop's commit sequence changed.
//! 3. **Cell-ratio floor** — at n ∈ {64, 512, 2048}, `cell_ratio`
//!    (cells a full re-simulation per check would visit ÷ cells the
//!    incremental gate visited) must not fall below the committed
//!    value. It is a deterministic counter ratio, so the floor has no
//!    noise margin; n=8 is too small for the ratio to mean anything.
//! 4. **Wall-clock cap** — `ns_per_op` (fastest rep) must stay within
//!    1.5× the committed baseline at every size.
//!
//! A further series is printed but never gated: per-size
//! `gate_ns_per_op` deltas against the baseline.
//!
//! A second mode, `bench_check --multiflow <baseline.json> <fresh.json>`,
//! gates `BENCH_multiflow.json` (sharded vs joint planning):
//!
//! 5. **Sharded speedup floor** — the fresh `summary/2048x128` cell's
//!    `speedup` must be ≥ 2.0. That is the cell the sharded planner
//!    exists for (fabric-scale topology, K = 128 flows); the committed
//!    run records ~2.9×, so the floor is well clear of noise while
//!    still catching the planner losing its edge. Smaller cells are
//!    printed for the log but never gated — at K = 8 the partition
//!    overhead legitimately loses to a trivial joint run.
//! 6. **Clean-rate pin** — `sharded_clean` and `joint_clean` must
//!    equal the committed baseline at *every* cell. Timing drifts;
//!    the fraction of runs that end with a sealed, `check`-clean
//!    certificate must not.
//!
//! The JSON is the bench's own flat hand-written format, so parsing is
//! a hand-rolled field scan — no serde in the workspace.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// All sizes `bench_simulate` emits.
const ALL_SIZES: &[usize] = &[8, 64, 512, 2048];

/// Sizes whose `cell_ratio` is floored at the committed value.
const CELL_RATIO_SIZES: &[usize] = &[64, 512, 2048];

/// Largest allowed `ns_per_op` as a multiple of the committed one.
const NS_PER_OP_CAP: f64 = 1.5;

/// Every cell `bench_multiflow` emits, as `{n}x{K}` key suffixes.
const MULTIFLOW_CELLS: &[&str] = &[
    "512x8", "512x32", "512x128", "2048x8", "2048x32", "2048x128",
];

/// The one gated multiflow cell and its sharded-speedup floor. The
/// committed run records ~2.9× here; 2.0 catches a real regression
/// without flaking on scheduler noise.
const MULTIFLOW_GATE: (&str, f64) = ("2048x128", 2.0);

/// Extracts `field` from the flat JSON object that follows `"key":`.
/// Returns `None` when the key or field is missing — the caller
/// decides whether that is fatal (fresh file) or tolerable (an older
/// committed baseline without the field).
fn lookup(json: &str, key: &str, field: &str) -> Option<f64> {
    let start = json.find(&format!("\"{key}\""))?;
    let obj = &json[start..];
    let open = obj.find('{')?;
    let close = obj[open..].find('}')? + open;
    let body = &obj[open..=close];
    let fstart = body.find(&format!("\"{field}\""))?;
    let after = &body[fstart..];
    let colon = after.find(':')?;
    let tail = after[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn read(path: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            None
        }
    }
}

/// `--multiflow` mode: gates `BENCH_multiflow.json` (see module docs,
/// checks 5 and 6).
fn check_multiflow(baseline_path: &str, fresh_path: &str) -> ExitCode {
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failures = 0u32;

    let (gate_cell, floor) = MULTIFLOW_GATE;
    let gate_key = format!("summary/{gate_cell}");
    match lookup(&fresh, &gate_key, "speedup") {
        Some(s) if s >= floor => println!("ok: {gate_key} speedup {s:.2} >= {floor:.2}"),
        Some(s) => {
            eprintln!("FAIL: {gate_key} speedup {s:.2} < {floor:.2} — sharded planner regressed");
            failures += 1;
        }
        None => {
            eprintln!("FAIL: {gate_key} speedup missing from {fresh_path}");
            failures += 1;
        }
    }

    for &cell in MULTIFLOW_CELLS {
        let key = format!("summary/{cell}");
        for field in ["sharded_clean", "joint_clean"] {
            match (lookup(&baseline, &key, field), lookup(&fresh, &key, field)) {
                (Some(b), Some(f)) if b == f => println!("ok: {key} {field} {f:.2} unchanged"),
                (Some(b), Some(f)) => {
                    eprintln!("FAIL: {key} {field} changed: baseline {b:.2}, fresh {f:.2}");
                    failures += 1;
                }
                (None, _) => {
                    eprintln!("FAIL: {key} {field} missing from baseline {baseline_path}");
                    failures += 1;
                }
                (_, None) => {
                    eprintln!("FAIL: {key} {field} missing from {fresh_path}");
                    failures += 1;
                }
            }
        }
        // Ungated speedups: CI-log information (hardware-dependent,
        // and small cells legitimately sit below 1.0).
        if cell != gate_cell {
            match lookup(&fresh, &key, "speedup") {
                Some(s) => println!("info: {key} speedup {s:.2} (ungated)"),
                None => println!("info: {key} speedup not recorded in {fresh_path}"),
            }
        }
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} assertion(s) failed");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all multiflow gates passed");
        ExitCode::SUCCESS
    }
}

/// One gated comparison of a fresh field against its committed value;
/// `ok(baseline, fresh)` decides, and `what` names the rule in the log.
fn gate(
    baseline: &str,
    fresh: &str,
    key: &str,
    field: &str,
    what: &str,
    ok: impl Fn(f64, f64) -> bool,
) -> bool {
    match (lookup(baseline, key, field), lookup(fresh, key, field)) {
        (Some(b), Some(f)) if ok(b, f) => {
            println!("ok: {key} {field} {f} ({what} baseline {b})");
            true
        }
        (Some(b), Some(f)) => {
            eprintln!("FAIL: {key} {field} {f} breaks {what} baseline {b}");
            false
        }
        (None, _) => {
            eprintln!("FAIL: {key} {field} missing from the baseline");
            false
        }
        (_, None) => {
            eprintln!("FAIL: {key} {field} missing from the fresh run");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, fresh_path) = match args.as_slice() {
        [_, flag, b, f] if flag == "--multiflow" => return check_multiflow(b, f),
        [_, b, f] => (b, f),
        _ => {
            eprintln!(
                "usage: bench_check <baseline.json> <fresh.json>\n\
                 \u{20}      bench_check --multiflow <baseline.json> <fresh.json>"
            );
            return ExitCode::FAILURE;
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failures = 0u32;
    let mut check = |key: &str, field: &str, what: &str, ok: &dyn Fn(f64, f64) -> bool| {
        if !gate(&baseline, &fresh, key, field, what, ok) {
            failures += 1;
        }
    };
    for &n in ALL_SIZES {
        let key = format!("greedy/{n}");
        check(&key, "makespan", "equal to", &|b, f| f == b);
        check(&key, "simulator_calls", "equal to", &|b, f| f == b);
        if CELL_RATIO_SIZES.contains(&n) {
            check(&key, "cell_ratio", "at least", &|b, f| f >= b);
        }
        check(&key, "ns_per_op", "at most 1.5x", &|b, f| {
            f <= NS_PER_OP_CAP * b
        });
    }

    // Informational only — gate wall-clock is already inside the gated
    // `ns_per_op`; the deltas are printed for the CI log.
    for &n in ALL_SIZES {
        let key = format!("greedy/{n}");
        match (
            lookup(&baseline, &key, "gate_ns_per_op"),
            lookup(&fresh, &key, "gate_ns_per_op"),
        ) {
            (Some(b), Some(f)) if b > 0.0 => println!(
                "info: {key} gate_ns_per_op {f:.0} (baseline {b:.0}, {:+.1}%)",
                (f - b) / b * 100.0
            ),
            (_, Some(f)) => println!("info: {key} gate_ns_per_op {f:.0} (no baseline value)"),
            (_, None) => println!("info: {key} gate_ns_per_op not recorded in {fresh_path}"),
        }
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} assertion(s) failed");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all gates passed");
        ExitCode::SUCCESS
    }
}

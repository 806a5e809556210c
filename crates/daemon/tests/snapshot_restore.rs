//! Satellite: snapshot/restore under a crash.
//!
//! Arms a batch of certified updates through an in-process [`Daemon`],
//! kills it mid-flight (drop without drain — exactly what `kill -9`
//! leaves on disk: the write-ahead journal and nothing else), restarts
//! from the journal, and asserts every armed update is either re-armed
//! within its certified slack or rolled back — none lost, and every
//! restored record still verified against its stored certificate.

use chronus_clock::Nanos;
use chronus_daemon::{Daemon, DaemonConfig, Journal, Priority, UpdateState};
use chronus_faults::FaultPlan;
use chronus_net::{motivating_example, SwitchId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Pinned wall-clock base for the first daemon incarnation (ns).
const BASE: Nanos = 1_000_000_000_000;
/// Watch timeout generous enough for CI machines.
const SETTLE: Duration = Duration::from_secs(20);

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(snapshot_dir: &Path, base_epoch_ns: Nanos) -> DaemonConfig {
    DaemonConfig {
        snapshot_dir: snapshot_dir.to_path_buf(),
        base_epoch_ns: Some(base_epoch_ns),
        // No background snapshotter: the journal alone must be enough.
        snapshot_interval_ms: 0,
        workers: 2,
        // The batch arrives in one burst from few tenants.
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    }
}

fn priority_for(i: usize) -> Priority {
    match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    }
}

/// Submits `n` certified updates and waits until every one is armed.
/// Returns the assigned ids.
fn arm_batch(daemon: &Daemon, n: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for i in 0..n {
        let tenant = format!("tenant-{}", i % 4);
        let id = daemon
            .submit(
                &tenant,
                priority_for(i),
                None,
                Arc::new(motivating_example()),
            )
            .unwrap_or_else(|shed| panic!("submission {i} shed: {shed}"));
        ids.push(id);
    }
    for &id in &ids {
        let status = daemon
            .watch(id, SETTLE)
            .unwrap_or_else(|| panic!("update {id} never settled"));
        assert_eq!(
            status.state,
            UpdateState::Armed,
            "update {id} settled as {} ({})",
            status.state.as_str(),
            status.detail
        );
        assert!(status.certified, "update {id} armed without a certificate");
        assert!(
            status.epoch_ns.is_some(),
            "update {id} armed without an epoch"
        );
    }
    ids
}

#[test]
fn armed_schedules_survive_a_crash_and_rearm_within_slack() {
    let snapshot_dir = temp_state_dir("rearm");
    let first = config(&snapshot_dir, BASE);
    let journal_path = first.journal_path();

    let daemon = Daemon::start(first.clone()).expect("first start");
    let ids = arm_batch(&daemon, 12);
    assert_eq!(daemon.armed_len(), 12);

    // Two updates complete before the crash; their tombstones must
    // keep them out of the restored set.
    daemon.confirm(ids[0]).expect("confirm first");
    daemon.confirm(ids[1]).expect("confirm second");
    assert_eq!(daemon.armed_len(), 10);

    // Crash: drop without drain. The WAL is all that survives.
    drop(daemon);

    // Offline audit of what the crash left behind: every live record
    // must still verify against its stored certificate.
    let replay = Journal::replay(&journal_path).expect("replay journal");
    assert_eq!(replay.corrupt_lines, 0);
    assert_eq!(replay.live.len(), 10);
    for record in &replay.live {
        record
            .certificate
            .check(&record.instance)
            .unwrap_or_else(|v| panic!("stored certificate {} broken: {v}", record.id));
        assert!(!record.schedule.is_empty());
    }

    // Restart with the clock restored just behind the first epoch: a
    // short outage, so every armed window is still reachable.
    let second = config(&snapshot_dir, BASE - 1_000_000_000);
    let daemon = Daemon::start(second).expect("restart");
    let restore = daemon.restore_report().clone();
    assert_eq!(restore.live_found, 10);
    assert_eq!(restore.rearmed, 10, "short outage must re-arm everything");
    assert_eq!(restore.rolled_back, 0);
    assert_eq!(restore.lost, 0);
    assert_eq!(restore.corrupt_lines, 0);
    assert_eq!(daemon.armed_len(), 10);

    for &id in &ids[2..] {
        let status = daemon
            .status(id)
            .unwrap_or_else(|| panic!("update {id} lost across restart"));
        assert_eq!(status.state, UpdateState::Armed);
        assert!(status.certified);
        assert!(
            status.detail.contains("re-armed"),
            "detail: {}",
            status.detail
        );
    }
    // The two confirmed updates must not resurrect.
    assert!(daemon.status(ids[0]).is_none());
    assert!(daemon.status(ids[1]).is_none());

    // Ids keep monotonically increasing across the restart (the
    // journal carries the high-water mark).
    let next = daemon
        .submit(
            "tenant-0",
            Priority::Normal,
            None,
            Arc::new(motivating_example()),
        )
        .expect("post-restart submit");
    assert!(
        next > *ids.iter().max().unwrap_or(&0),
        "id {next} reused across restart"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(snapshot_dir);
}

/// Regression: compaction snapshots the live `armed` set and rewrites
/// the journal to exactly that set. Arms and confirms must be atomic
/// with respect to it — a record journaled but not yet in the map (or
/// removed from the map before its tombstone landed) would be silently
/// dropped from (or resurrected into) the rewritten file. Hammer
/// compactions from two sides while arming and confirming, then audit
/// the journal a crash would leave behind.
#[test]
fn compaction_racing_arms_and_confirms_loses_nothing() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    let snapshot_dir = temp_state_dir("race");
    let mut cfg = config(&snapshot_dir, BASE);
    // Background snapshotter at the tightest interval, on top of the
    // explicit snapshot() hammer below.
    cfg.snapshot_interval_ms = 1;
    let journal_path = cfg.journal_path();
    let daemon = Arc::new(Daemon::start(cfg).expect("start"));

    let stop = Arc::new(AtomicBool::new(false));
    let snapper = {
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                daemon.snapshot().expect("forced compaction");
            }
        })
    };

    let ids = arm_batch(&daemon, 30);
    let mut confirmed = BTreeSet::new();
    for &id in ids.iter().step_by(3) {
        daemon.confirm(id).expect("confirm");
        confirmed.insert(id);
    }

    stop.store(true, Ordering::Relaxed);
    snapper.join().expect("snapper thread");

    let expected: BTreeSet<u64> = ids
        .iter()
        .copied()
        .filter(|id| !confirmed.contains(id))
        .collect();
    assert_eq!(daemon.armed_len(), expected.len());

    // Crash: drop without drain, then audit the journal on disk.
    drop(daemon);
    let replay = Journal::replay(&journal_path).expect("replay journal");
    assert_eq!(replay.corrupt_lines, 0);
    let live: BTreeSet<u64> = replay.live.iter().map(|r| r.id).collect();
    assert_eq!(
        live, expected,
        "journal live set diverged from the acknowledged armed set"
    );
    let _ = std::fs::remove_dir_all(snapshot_dir);
}

/// Journal rewrites so far, read off the daemon's scrape.
fn journal_rewrites(daemon: &Daemon) -> u64 {
    daemon
        .metrics_text()
        .lines()
        .find_map(|line| line.strip_prefix("chronus_daemon_snapshots_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("chronus_daemon_snapshots_total in the scrape")
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("read journal")
        .lines()
        .count()
}

#[test]
fn snapshots_of_an_unchanged_journal_rewrite_nothing() {
    let snapshot_dir = temp_state_dir("idle");
    let cfg = config(&snapshot_dir, BASE);
    let journal_path = cfg.journal_path();
    let daemon = Daemon::start(cfg).expect("start");
    let ids = arm_batch(&daemon, 3);

    assert_eq!(daemon.snapshot().expect("snapshot"), 3);
    let rewrites = journal_rewrites(&daemon);
    for _ in 0..5 {
        assert_eq!(daemon.snapshot().expect("idle snapshot"), 3);
    }
    assert_eq!(
        journal_rewrites(&daemon),
        rewrites,
        "an idle journal was rewritten"
    );

    daemon.confirm(ids[0]).expect("confirm");
    assert_eq!(daemon.snapshot().expect("snapshot after confirm"), 2);
    assert_eq!(journal_rewrites(&daemon), rewrites + 1);
    assert_eq!(journal_lines(&journal_path), 2);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(snapshot_dir);
}

#[test]
fn first_snapshot_after_a_restart_compacts_the_replayed_journal() {
    let snapshot_dir = temp_state_dir("replayed");
    let cfg = config(&snapshot_dir, BASE);
    let journal_path = cfg.journal_path();
    let daemon = Daemon::start(cfg).expect("first start");
    let ids = arm_batch(&daemon, 4);
    daemon.confirm(ids[0]).expect("confirm first");
    daemon.confirm(ids[1]).expect("confirm second");
    drop(daemon); // crash: four arm records and two tombstones on disk
    assert_eq!(journal_lines(&journal_path), 6);

    // The restore appends nothing (a short outage re-arms both), yet
    // the replayed file still holds the settled records.
    let daemon = Daemon::start(config(&snapshot_dir, BASE - 1_000_000_000)).expect("restart");
    assert_eq!(daemon.restore_report().rearmed, 2);
    assert_eq!(daemon.snapshot().expect("snapshot"), 2);
    assert_eq!(journal_lines(&journal_path), 2);
    let live: Vec<u64> = Journal::replay(&journal_path)
        .expect("replay journal")
        .live
        .iter()
        .map(|r| r.id)
        .collect();
    assert_eq!(live, ids[2..]);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(snapshot_dir);
}

#[test]
fn a_long_outage_rolls_back_every_missed_window() {
    let snapshot_dir = temp_state_dir("rollback");
    let daemon = Daemon::start(config(&snapshot_dir, BASE)).expect("first start");
    let ids = arm_batch(&daemon, 10);
    drop(daemon); // crash

    // Model the outage with the faults crate's reboot injection: the
    // controller host goes down at BASE and stays down for an hour —
    // far past every certified slack window.
    let outage = FaultPlan::quiet(7).with_reboot(BASE, SwitchId(0), 3_600_000_000_000);
    let reboot = &outage.reboots[0];
    let restart_epoch = reboot.at + reboot.outage_ns;

    let daemon = Daemon::start(config(&snapshot_dir, restart_epoch)).expect("restart");
    let restore = daemon.restore_report().clone();
    assert_eq!(restore.live_found, 10);
    assert_eq!(restore.rearmed, 0);
    assert_eq!(restore.rolled_back, 10, "missed windows must roll back");
    assert_eq!(restore.lost, 0);
    assert_eq!(daemon.armed_len(), 0);
    for &id in &ids {
        let status = daemon
            .status(id)
            .unwrap_or_else(|| panic!("update {id} lost across restart"));
        assert_eq!(status.state, UpdateState::RolledBack);
    }
    daemon.shutdown();

    // Rollback tombstones are durable: a third incarnation finds an
    // empty live set, not ten zombies.
    let daemon = Daemon::start(config(&snapshot_dir, restart_epoch)).expect("third start");
    assert_eq!(daemon.restore_report().live_found, 0);
    assert_eq!(daemon.armed_len(), 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(snapshot_dir);
}

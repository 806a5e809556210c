//! Satellite: end-to-end smoke over a real Unix socket.
//!
//! Boots the full IPC server on a temp socket, drives it with the
//! [`CtlClient`] exactly as `chronusctl` would — 50 mixed-priority
//! submissions, a deliberately rate-limited tenant, watches, a
//! snapshot, a Prometheus scrape — then drains and asserts a clean
//! exit with the socket file removed.

use chronus_daemon::server::MAX_LINE_BYTES;
use chronus_daemon::{run_server, CtlClient, Daemon, DaemonConfig, Priority};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Connects with retries while the server thread binds the socket.
fn connect(socket: &Path) -> CtlClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match CtlClient::connect(socket) {
            Ok(client) => return client,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    }
}

#[test]
fn fifty_submissions_scrape_and_drain_cleanly() {
    let state = temp_dir("state");
    let socket = temp_dir("sock").join("chronusd.sock");
    let mut config = DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: state.clone(),
        workers: 2,
        queue_bound: 128,
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    };
    // One tenant is throttled to (effectively) a single request so the
    // shed path is exercised over the wire too.
    config
        .tenant_overrides
        .insert("greedy".to_string(), (1e-6, 1.0));

    let daemon = Daemon::start(config).expect("daemon start");
    let server = std::thread::Builder::new()
        .name("smoke-server".to_string())
        .spawn(move || run_server(daemon))
        .expect("spawn server");

    let mut client = connect(&socket);
    client.ping().expect("ping");

    // 50 mixed-priority submissions across four tenants.
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let instance = chronus_net::motivating_example();
    let mut ids = Vec::new();
    for i in 0..50usize {
        let tenant = format!("tenant-{}", i % 4);
        let id = client
            .submit(&tenant, priorities[i % 3], Some(10_000), &instance)
            .unwrap_or_else(|e| panic!("submit {i}: {e}"));
        ids.push(id);
    }
    assert_eq!(ids.len(), 50);

    // The throttled tenant gets one request through, then a shed with
    // the `shed` marker and a retry hint rather than a hard error.
    client
        .submit("greedy", Priority::Normal, None, &instance)
        .expect("greedy's first request fits its burst");
    let mut shed_req = serde_json::Map::new();
    shed_req.insert("cmd".to_string(), Value::from("submit"));
    shed_req.insert("tenant".to_string(), Value::from("greedy"));
    shed_req.insert(
        "instance".to_string(),
        chronus_net::codec::instance_to_value(&instance),
    );
    let shed = client
        .call(&Value::Object(shed_req))
        .expect("shed response still arrives");
    assert_eq!(shed.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(shed.get("shed"), Some(&Value::Bool(true)), "shed: {shed:?}");

    // Every accepted update settles (armed, completed, or failed —
    // but settled, with the motivating example they certify and arm).
    for &id in &ids {
        let status = client
            .watch(id, 30_000)
            .unwrap_or_else(|e| panic!("watch {id}: {e}"));
        let state = status.get("state").and_then(Value::as_str).unwrap_or("?");
        assert_eq!(state, "armed", "update {id}: {status:?}");
    }

    // A snapshot reports the armed set.
    let live = client.snapshot().expect("snapshot");
    assert_eq!(live, 51, "50 batch + 1 greedy armed records");

    // The scrape speaks well-formed Prometheus text with the daemon's
    // own scoped series present and consistent.
    let text = client.metrics_text().expect("metrics");
    for series in [
        "# TYPE chronus_daemon_submitted_total counter",
        "# TYPE chronus_daemon_admitted_total counter",
        "# TYPE chronus_daemon_shed_rate_limited_total counter",
        "# TYPE chronus_daemon_queue_wait_ns histogram",
        "# TYPE chronus_daemon_plan_ns histogram",
        "# TYPE chronus_engine_requests_completed_total counter",
    ] {
        assert!(text.contains(series), "scrape missing `{series}`:\n{text}");
    }
    let sample = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no sample for {name}"))
            .parse()
            .expect("numeric sample")
    };
    assert_eq!(sample("chronus_daemon_submitted_total"), 52.0);
    assert_eq!(sample("chronus_daemon_admitted_total"), 51.0);
    assert_eq!(sample("chronus_daemon_shed_rate_limited_total"), 1.0);
    assert_eq!(sample("chronus_daemon_armed_total"), 51.0);
    // Every admitted submission was planned, and timed.
    assert_eq!(sample("chronus_daemon_plan_ns_count"), 51.0);
    // The engine keeps no window cache, so none is exposed.
    assert!(
        !text.contains("chronus_daemon_cache_"),
        "scrape still renders cache series:\n{text}"
    );

    // Aggregate status view.
    let all = client.status_all().expect("status all");
    let counts = all.get("counts").cloned().unwrap_or(Value::Null);
    assert_eq!(
        counts.get("armed").and_then(Value::as_u64_exact),
        Some(51),
        "counts: {counts:?}"
    );

    // Drain: daemon acknowledges, finishes, removes its socket, and
    // the server thread returns a clean report.
    client.drain().expect("drain");
    let report = server
        .join()
        .expect("server thread")
        .expect("server result");
    assert_eq!(report.armed_remaining, 51);
    assert_eq!(report.snapshot_live, 51);
    assert!(!socket.exists(), "socket file must be removed on exit");

    let _ = std::fs::remove_dir_all(state);
    if let Some(dir) = socket.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn over_long_request_line_is_refused_and_the_server_keeps_serving() {
    let state = temp_dir("cap-state");
    let socket = temp_dir("cap-sock").join("chronusd.sock");
    let config = DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: state.clone(),
        snapshot_interval_ms: 0,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config).expect("daemon start");
    let server = std::thread::Builder::new()
        .name("cap-server".to_string())
        .spawn(move || run_server(daemon))
        .expect("spawn server");
    let mut client = connect(&socket);
    client.ping().expect("ping");

    // One line a byte past the cap. The server stops reading there and
    // hangs up, so the newline may land on a closed socket.
    let mut raw = UnixStream::connect(&socket).expect("raw connect");
    raw.write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("write the capped prefix");
    let _ = raw.write_all(b"\n");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    let reply: Value = serde_json::from_str(&reply).expect("json reply");
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{reply:?}");
    let error = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(error.contains("exceeds"), "{reply:?}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("read after reply"),
        0,
        "the connection is closed after the error"
    );

    // A fresh connection still answers, and the refusal was counted.
    let mut fresh = connect(&socket);
    fresh.ping().expect("ping after an over-long line");
    let text = fresh.metrics_text().expect("metrics");
    assert!(
        text.contains("chronus_daemon_proto_errors_total 1\n"),
        "{text}"
    );

    fresh.drain().expect("drain");
    server
        .join()
        .expect("server thread")
        .expect("server result");
    let _ = std::fs::remove_dir_all(state);
    if let Some(dir) = socket.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! The load generator: drives a running `chronusd` over its socket
//! through [`CtlClient`]. Each submission is `submit`, then `watch`
//! until settled, then `confirm` if it armed. Latency is taken on the
//! client clock: from send (closed loop) or from the due time (open
//! loop) until `watch` reports the submission settled.

use crate::workload::{Pacing, Submission, Workload};
use chronus_daemon::CtlClient;
use serde_json::Value;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Daemon-side limit on one `watch`; a submission still unsettled
/// after it counts as failed.
pub const WATCH_LIMIT_MS: u64 = 30_000;
/// Closed loop: cut-off, as a multiple of `--seconds`.
const CLOSED_LOOP_STRETCH: f64 = 3.0;
/// Open loop: the settler's sleep when no reply was ready.
const POLL_GAP: Duration = Duration::from_micros(50);

/// How one submission ended, as the client saw it.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Settled `armed` with `certified: true`, then confirmed.
    Armed,
    /// Settled, but as a two-phase or uncertified plan.
    Degraded,
    /// Shed, refused, malformed, failed in the daemon, or unsettled at
    /// the watch limit.
    Failed(String),
}

/// One submission's record.
#[derive(Clone, Debug)]
pub struct Record {
    pub outcome: Outcome,
    /// Send (or due time) to settled; `None` when it never settled.
    pub latency_ms: Option<f64>,
    /// Open loop: how late the generator sent it. Closed loop: the
    /// client's own gap between finishing one submission and sending
    /// the next.
    pub late_ms: f64,
    /// The settled status object, as `watch` returned it.
    pub status: Option<Value>,
}

/// Result of the timed phase.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall: Duration,
    /// Protocol misbehaviour seen on the way (a refused confirm, an
    /// unknown state): each makes the run incorrect.
    pub problems: Vec<String>,
}

impl Phase {
    pub fn count(&self, want: fn(&Outcome) -> bool) -> u64 {
        self.records.iter().filter(|r| want(&r.outcome)).count() as u64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.latency_ms).collect()
    }
}

fn io(e: std::io::Error) -> String {
    format!("daemon connection: {e}")
}

/// Sends one prepared `submit`; `Ok(id)` when admitted.
fn submit(client: &mut CtlClient, sub: &Submission) -> Result<Result<u64, String>, String> {
    let response = client.call(&sub.request).map_err(io)?;
    if response.get("ok") == Some(&Value::Bool(true)) {
        return response
            .get("id")
            .and_then(Value::as_u64_exact)
            .map(Ok)
            .ok_or_else(|| "submit reply without id".to_string());
    }
    let kind = if response.get("shed") == Some(&Value::Bool(true)) {
        "shed"
    } else {
        "refused"
    };
    let error = response.get("error").and_then(Value::as_str).unwrap_or("?");
    Ok(Err(format!("{kind}: {error}")))
}

/// Classifies a settled (or timed-out) status object.
fn outcome_of(id: u64, status: &Value) -> Result<Outcome, String> {
    let state = status.get("state").and_then(Value::as_str).unwrap_or("");
    let certified = status.get("certified") == Some(&Value::Bool(true));
    Ok(match state {
        "armed" if certified => Outcome::Armed,
        "armed" | "completed" => Outcome::Degraded,
        "failed" | "rolled_back" => Outcome::Failed(format!("daemon settled it {state}")),
        "queued" | "planning" => {
            Outcome::Failed(format!("unsettled ({state}) after {WATCH_LIMIT_MS} ms"))
        }
        other => return Err(format!("update {id}: unknown state `{other}`")),
    })
}

/// Watches `id` to settlement and classifies it.
fn settle(client: &mut CtlClient, id: u64) -> Result<(Outcome, Value), String> {
    let status = client.watch(id, WATCH_LIMIT_MS).map_err(io)?;
    Ok((outcome_of(id, &status)?, status))
}

fn confirm(client: &mut CtlClient, id: u64, problems: &mut Vec<String>) {
    if let Err(e) = client.confirm(id) {
        problems.push(format!("confirm {id} refused: {e}"));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the timed phase against the daemon on `socket`.
pub fn run(workload: &Workload, socket: &Path, seconds: f64) -> Result<Phase, String> {
    match workload.pacing {
        Pacing::Closed => closed_loop(&workload.submissions, socket, seconds),
        Pacing::Open => open_loop(&workload.submissions, socket),
    }
}

/// One client; each submission settles (and is confirmed) before the
/// next is sent, through all prepared submissions. A daemon slow enough
/// to need more than [`CLOSED_LOOP_STRETCH`] × `seconds` is cut off
/// there, and the rest are not attempted.
fn closed_loop(subs: &[Submission], socket: &Path, seconds: f64) -> Result<Phase, String> {
    let mut client = CtlClient::connect(socket).map_err(io)?;
    let mut records = Vec::new();
    let mut problems = Vec::new();
    let start = Instant::now();
    let mut previous_end = start;
    for sub in subs {
        if start.elapsed().as_secs_f64() >= CLOSED_LOOP_STRETCH * seconds {
            break;
        }
        let sent = Instant::now();
        let late_ms = ms(sent - previous_end);
        let record = match submit(&mut client, sub)? {
            Err(why) => Record {
                outcome: Outcome::Failed(why),
                latency_ms: None,
                late_ms,
                status: None,
            },
            Ok(id) => {
                let (outcome, status) = settle(&mut client, id)?;
                let settled = sent.elapsed();
                if outcome == Outcome::Armed {
                    confirm(&mut client, id, &mut problems);
                }
                let latency_ms = (!matches!(outcome, Outcome::Failed(_))).then(|| ms(settled));
                Record {
                    outcome,
                    latency_ms,
                    late_ms,
                    status: Some(status),
                }
            }
        };
        records.push(record);
        previous_end = Instant::now();
    }
    Ok(Phase {
        records,
        wall: start.elapsed(),
        problems,
    })
}

/// What the sender hands the settler.
struct Sent {
    index: usize,
    due: Instant,
    late_ms: f64,
    admitted: Result<u64, String>,
}

/// A raw connection speaking the same line protocol, read without
/// blocking so one thread can wait on many replies at once.
struct Line {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Line {
    fn connect(socket: &Path) -> Result<Line, String> {
        let stream = UnixStream::connect(socket).map_err(io)?;
        stream.set_nonblocking(true).map_err(io)?;
        Ok(Line {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        let mut rest = request.as_bytes();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(io(e)),
            }
        }
        Ok(())
    }

    /// The next complete reply, if one has arrived.
    fn poll(&mut self) -> Result<Option<Value>, String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                let text = String::from_utf8_lossy(&line);
                return serde_json::from_str(text.trim())
                    .map(Some)
                    .map_err(|e| format!("bad reply: {e}"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed a watch connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(io(e)),
            }
        }
    }
}

/// Classifies a `watch` reply.
fn classify(id: u64, reply: &Value) -> Result<(Outcome, Value), String> {
    if reply.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("watch {id} refused: {reply:?}"));
    }
    let status = reply
        .get("status")
        .cloned()
        .ok_or_else(|| format!("watch {id}: reply without status"))?;
    Ok((outcome_of(id, &status)?, status))
}

/// A submission whose `watch` is in flight.
struct Watching {
    index: usize,
    id: u64,
    due: Instant,
    late_ms: f64,
    line: usize,
}

/// Open loop. The sender (CtlClient) submits each arrival at its due
/// time and hands it to the settler thread ([`settle_all`]).
fn open_loop(subs: &[Submission], socket: &Path) -> Result<Phase, String> {
    let mut sender = CtlClient::connect(socket).map_err(io)?;
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let settling = scope.spawn(move || settle_all(rx, subs.len(), socket));
        let mut send_error = None;
        for (index, sub) in subs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(sub.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late_ms = ms(Instant::now().saturating_duration_since(due));
            match submit(&mut sender, sub) {
                Ok(admitted) => {
                    let sent = Sent {
                        index,
                        due,
                        late_ms,
                        admitted,
                    };
                    if tx.send(sent).is_err() {
                        break; // the settler stopped on an error
                    }
                }
                Err(e) => {
                    send_error = Some(e);
                    break;
                }
            }
        }
        drop(tx);
        let (records, problems) = settling
            .join()
            .map_err(|_| "settler thread panicked".to_string())??;
        if let Some(e) = send_error {
            return Err(e);
        }
        Ok(Phase {
            records: records.into_iter().flatten().collect(),
            wall: start.elapsed(),
            problems,
        })
    })
}

/// The open loop's settler. It keeps one `watch` in flight per admitted
/// submission, each on its own connection, and polls them all, so every
/// settlement is seen when it happens rather than after the submissions
/// ahead of it settle. Confirms are pipelined on one more connection.
/// Returns a record per submission index (`None` if never sent).
fn settle_all(
    rx: Receiver<Sent>,
    submissions: usize,
    socket: &Path,
) -> Result<(Vec<Option<Record>>, Vec<String>), String> {
    let mut records: Vec<Option<Record>> = vec![None; submissions];
    let mut problems = Vec::new();
    let mut lines: Vec<Line> = Vec::new();
    let mut idle: Vec<usize> = Vec::new();
    let mut watching: Vec<Watching> = Vec::new();
    let mut confirms = Line::connect(socket)?;
    let mut confirms_pending = 0usize;
    let mut sending = true;
    while sending || !watching.is_empty() || confirms_pending > 0 {
        let mut progressed = false;
        loop {
            let next = if watching.is_empty() && confirms_pending == 0 && !progressed {
                // Nothing in flight: sleep until the sender hands over more.
                rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            let sent = match next {
                Ok(sent) => sent,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    sending = false;
                    break;
                }
            };
            progressed = true;
            let id = match sent.admitted {
                Ok(id) => id,
                Err(why) => {
                    records[sent.index] = Some(Record {
                        outcome: Outcome::Failed(why),
                        latency_ms: None,
                        late_ms: sent.late_ms,
                        status: None,
                    });
                    continue;
                }
            };
            let line = match idle.pop() {
                Some(l) => l,
                None => {
                    lines.push(Line::connect(socket)?);
                    lines.len() - 1
                }
            };
            lines[line].send(&format!(
                "{{\"cmd\":\"watch\",\"id\":{id},\"timeout_ms\":{WATCH_LIMIT_MS}}}\n"
            ))?;
            watching.push(Watching {
                index: sent.index,
                id,
                due: sent.due,
                late_ms: sent.late_ms,
                line,
            });
        }
        let mut i = 0;
        while i < watching.len() {
            let Some(reply) = lines[watching[i].line].poll()? else {
                i += 1;
                continue;
            };
            let settled = Instant::now();
            progressed = true;
            let w = watching.swap_remove(i);
            idle.push(w.line);
            let (outcome, status) = classify(w.id, &reply)?;
            if outcome == Outcome::Armed {
                confirms.send(&format!("{{\"cmd\":\"confirm\",\"id\":{}}}\n", w.id))?;
                confirms_pending += 1;
            }
            let latency_ms = (!matches!(outcome, Outcome::Failed(_))).then(|| ms(settled - w.due));
            records[w.index] = Some(Record {
                outcome,
                latency_ms,
                late_ms: w.late_ms,
                status: Some(status),
            });
        }
        while confirms_pending > 0 {
            let Some(reply) = confirms.poll()? else {
                break;
            };
            progressed = true;
            confirms_pending -= 1;
            if reply.get("ok") != Some(&Value::Bool(true)) {
                problems.push(format!("confirm refused: {reply:?}"));
            }
        }
        if !progressed {
            std::thread::sleep(POLL_GAP);
        }
    }
    Ok((records, problems))
}

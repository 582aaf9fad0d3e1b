//! Pieces shared by the two serving workloads: the offline reference, the
//! closed-loop client connections and the request log of a traced server.

use crate::checks::Offline;
use crate::client::{self, Reply};
use crate::{report, run_rounds, trace, Phase};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Client connections (closed loop: each waits for its reply before it
/// sends the next request). Two, the core count of the reference host.
pub const CONNECTIONS: u64 = 2;

/// The offline test-scale sweep, made in this process before the measured
/// phase, that every response is checked against.
pub fn offline_reference() -> Result<Offline, String> {
    let results =
        harness::run_suite_with(&hpc_kernels::test_suite(), &harness::SuiteConfig::default());
    Offline::new(harness::to_jsonl(&results))
}

/// A 16-hex request id for `X-Sim-Trace-Id`, unique within a run.
pub fn trace_id(seed: u64, round: u64, conn: u64, k: u64) -> String {
    let mut rng = crate::schedule::Rng::new(seed ^ (round << 24) ^ (conn << 16) ^ k);
    format!("{:016x}", rng.next_u64() | 1)
}

/// The measured phase of a serving workload: `CONNECTIONS` client threads,
/// alive for the whole phase, run whole rounds. In round `r` connection
/// `c` sends the requests `conn_round(r, c)` sends, one at a time, each
/// after the previous reply. A barrier separates rounds, so a round's wall
/// time covers exactly its requests. Returns the phase and every sample,
/// ordered by round and connection.
pub fn closed_loop(
    seconds: f64,
    clk_tck: f64,
    max_rounds: u64,
    conn_round: impl Fn(u64, u64) -> Vec<Sample> + Sync,
) -> (Phase, Vec<Sample>) {
    let barrier = Barrier::new(CONNECTIONS as usize + 1);
    let round = AtomicU64::new(0);
    let parent = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let samples = Mutex::new(Vec::new());
    let phase = std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let (barrier, round, parent, stop, samples, conn_round) =
                (&barrier, &round, &parent, &stop, &samples, &conn_round);
            s.spawn(move || loop {
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let p = parent.load(Ordering::SeqCst);
                let _adopt = trace::adopt((p != 0).then_some(p));
                let out = conn_round(round.load(Ordering::SeqCst), conn);
                samples
                    .lock()
                    .expect("a client thread panicked")
                    .extend(out);
                barrier.wait();
            });
        }
        let phase = run_rounds(seconds, clk_tck, (1, max_rounds), |r| {
            round.store(r, Ordering::SeqCst);
            parent.store(trace::current().unwrap_or(0), Ordering::SeqCst);
            barrier.wait(); // start of the round
            barrier.wait(); // every connection is done with it
        });
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        phase
    });
    let mut samples = samples.into_inner().expect("a client thread panicked");
    samples.sort_by_key(|s| (s.round, s.conn));
    (phase, samples)
}

/// What one request of the measured phase produced.
pub struct Sample {
    pub kind: &'static str,
    /// Round and connection that sent it (for ordering the problem list).
    pub round: u64,
    pub conn: u64,
    pub id: String,
    /// `None` when the connection or the exchange failed.
    pub reply: Option<(u16, f64, f64)>,
    /// Rows returned (cells), for a 200.
    pub rows: u64,
    pub problems: Vec<String>,
}

impl Sample {
    /// Latency in ms of an answered 200.
    pub fn ok_ms(&self) -> Option<f64> {
        match self.reply {
            Some((200, total_s, _)) if self.problems.is_empty() => Some(total_s * 1e3),
            _ => None,
        }
    }
}

/// Send one request and turn its reply into a [`Sample`] with `check`
/// applied to a 200 body. Connect and transport errors are failed
/// operations, not latencies.
pub fn send(
    addr: SocketAddr,
    kind: &'static str,
    (round, conn, id): (u64, u64, String),
    method: &str,
    path: &str,
    body: &[u8],
    check: impl FnOnce(&Reply) -> (u64, Vec<String>),
) -> Sample {
    let headers = [("X-Sim-Trace-Id", id.as_str())];
    let mut s = Sample {
        kind,
        round,
        conn,
        id: id.clone(),
        reply: None,
        rows: 0,
        problems: Vec::new(),
    };
    match client::request(addr, method, path, &headers, body) {
        Err(e) => s.problems.push(format!("{kind} request failed: {e}")),
        Ok(r) => {
            let end = r.started + r.total;
            let args = vec![
                ("kind", kind.to_string()),
                ("conn", conn.to_string()),
                ("id", id),
            ];
            let request = trace::record("client.request", r.started, end, args);
            let _in_request = trace::adopt(request);
            trace::record(
                "client.connect",
                r.started,
                r.started + r.connect,
                Vec::new(),
            );
            s.reply = Some((r.status, r.total.as_secs_f64(), r.connect.as_secs_f64()));
            if r.status != 200 {
                s.problems
                    .push(format!("{kind} answered HTTP {}", r.status));
            } else {
                let (rows, problems) = check(&r);
                s.rows = rows;
                s.problems = problems;
            }
        }
    }
    s
}

/// Totals of a measured phase's samples.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub ok: u64,
    pub rows: u64,
    pub latencies_ms: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub problems: Vec<String>,
}

pub fn tally(samples: &[Sample]) -> Tally {
    let mut t = Tally {
        attempted: samples.len() as u64,
        failed: 0,
        ok: 0,
        rows: 0,
        latencies_ms: Vec::new(),
        connect_us: Vec::new(),
        problems: Vec::new(),
    };
    for s in samples {
        if let Some((_, _, connect)) = s.reply {
            t.connect_us.push(connect * 1e6);
        }
        match s.ok_ms() {
            Some(ms) => {
                t.ok += 1;
                t.rows += s.rows;
                t.latencies_ms.push(ms);
            }
            None => {
                // A 200 whose body fails a check is a wrong answer, not a
                // failed operation: it makes the run incorrect and counts
                // toward neither `ok` nor `rows`. Unanswered or non-200
                // requests failed.
                if !matches!(s.reply, Some((200, _, _))) {
                    t.failed += 1;
                }
                for p in &s.problems {
                    t.problems
                        .push(format!("round {} conn {}: {p}", s.round, s.conn));
                }
            }
        }
    }
    t
}

/// `trace=<id> ... total_us=<n>` from a traced server's `requests.log`:
/// server-side time per request id.
pub fn request_log(dir: &Path) -> HashMap<String, f64> {
    let text = std::fs::read_to_string(dir.join("requests.log")).unwrap_or_default();
    let mut out = HashMap::new();
    for line in text.lines() {
        let field = |k: &str| {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(k).and_then(|v| v.strip_prefix('=')))
        };
        if let (Some(id), Some(us)) = (
            field("trace"),
            field("total_us").and_then(|v| v.parse::<f64>().ok()),
        ) {
            out.insert(id.to_string(), us);
        }
    }
    out
}

/// p50 and, with at least 1000 samples, p99 of a latency list.
pub fn latency_metrics(o: &mut report::Outcome, t: &Tally) {
    o.set("p50_ms", report::median(&t.latencies_ms));
    if t.latencies_ms.len() >= 1000 {
        o.extra
            .push(("p99_ms", report::quantile(&t.latencies_ms, 0.99), "ms"));
    }
}

/// A scratch directory for a traced server's request log.
pub fn log_dir(out: &Path, name: &str) -> std::path::PathBuf {
    let dir = out.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(reply: Option<(u16, f64, f64)>, problems: &[&str]) -> Sample {
        Sample {
            kind: "sweep",
            round: 0,
            conn: 0,
            id: "1".into(),
            reply,
            rows: 9,
            problems: problems.iter().map(|p| p.to_string()).collect(),
        }
    }

    #[test]
    fn tally_counts_only_correct_answers_as_ok() {
        let t = tally(&[
            sample(Some((200, 0.002, 1e-4)), &[]),
            sample(Some((200, 0.003, 1e-4)), &["digest differs"]),
            sample(Some((503, 0.001, 1e-4)), &["sweep answered HTTP 503"]),
            sample(None, &["sweep request failed: refused"]),
        ]);
        assert_eq!((t.attempted, t.ok, t.failed, t.rows), (4, 1, 2, 9));
        assert_eq!(t.latencies_ms, vec![2.0]);
        assert_eq!(t.connect_us.len(), 3);
        assert_eq!(t.problems.len(), 3);
    }
}

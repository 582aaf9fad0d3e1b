//! `serve-hot`: one in-process `serve` whose cache already holds the
//! test-scale grid. Two closed-loop connections send a seeded mix of
//! full-grid sweeps, sweeps naming 1–16 cells and `GET /v1/cell/<key>`;
//! every cell is a cache hit, so the HTTP reactor, JSON parsing, key
//! hashing, cache reads and JSONL formatting do the work.

use crate::checks::{self, Offline};
use crate::report::{self, Outcome, FAMILIES};
use crate::schedule::{self, Req, PRECISIONS, VERSIONS};
use crate::service::{self, Sample, CONNECTIONS};
use crate::{client, host, prom, timed_setup, trace, Args};
use harness::serve::RunningServer;
use harness::ServeConfig;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Server start-ups per run (about 0.13 s each, mostly the cold cache
/// fill, and spread over 0.11–0.17 s on a loaded host); the median is
/// `setup_s`.
const SETUP_REPS: usize = 30;

/// Each request opens a TCP connection, and the server's side of each
/// lingers in TIME_WAIT; capping a run's requests keeps it well inside
/// the ephemeral port range (32768–60999).
const MAX_REQUESTS: u64 = 12_000;

fn start(trace_dir: Option<PathBuf>, off: &Offline) -> Result<RunningServer, String> {
    let server = harness::serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        trace_dir,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve failed to start: {e}"))?;
    client::wait_healthy(server.addr, std::time::Duration::from_secs(30))?;
    // Fill the cache: one cold full-grid sweep.
    let fill = client::request(
        server.addr,
        "POST",
        "/v1/sweep",
        &[],
        schedule::FULL_BODY.as_bytes(),
    )
    .map_err(|e| format!("cache fill failed: {e}"))?;
    let problems = checks::full_grid(&fill.body, off);
    if fill.status != 200 || !problems.is_empty() {
        return Err(format!("cache fill answered {}: {problems:?}", fill.status));
    }
    Ok(server)
}

fn stop(server: RunningServer) {
    if let Err(e) = server.shutdown() {
        eprintln!("simbench: server shutdown: {e}");
    }
}

fn cell_key(c: schedule::Coord) -> String {
    let prec = if c.2 == 0 {
        hpc_kernels::Precision::F32
    } else {
        hpc_kernels::Precision::F64
    };
    let v = hpc_kernels::Variant::ALL[c.1];
    debug_assert_eq!(v.label().replace(' ', "-"), VERSIONS[c.1]);
    debug_assert_eq!(prec.label(), PRECISIONS[c.2]);
    harness::cell_spec("test", None, None, FAMILIES[c.0], v, prec)
        .key()
        .to_string()
}

/// Check one answer of the mix; returns the rows it carried and what is
/// wrong with it.
fn check(req: &Req, body: &[u8], off: &Offline) -> (u64, Vec<String>) {
    match req {
        Req::Full => (72, checks::full_grid(body, off)),
        Req::Subset(cells) => (cells.len() as u64, checks::subset(body, cells, off)),
        Req::Cell(c) => (1, checks::single_cell(body, &cell_key(*c), *c, off)),
    }
}

fn send(addr: SocketAddr, req: &Req, at: (u64, u64, String), off: &Offline) -> Sample {
    let (kind, method, path, body) = match req {
        Req::Full => (
            "full",
            "POST",
            "/v1/sweep".to_string(),
            schedule::FULL_BODY.to_string(),
        ),
        Req::Subset(cells) => (
            "subset",
            "POST",
            "/v1/sweep".to_string(),
            schedule::subset_body(cells),
        ),
        Req::Cell(c) => (
            "cell",
            "GET",
            format!("/v1/cell/{}", cell_key(*c)),
            String::new(),
        ),
    };
    service::send(addr, kind, at, method, &path, body.as_bytes(), |r| {
        check(req, &r.body, off)
    })
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let off = service::offline_reference()?;
    let log_dir = traced.then(|| service::log_dir(&args.out, "serve-hot-requests"));
    let (server, setup_s) = timed_setup(SETUP_REPS, || start(log_dir.clone(), &off), stop)?;
    let addr = server.addr;

    let per_round = CONNECTIONS
        * (schedule::FULL_PER_ROUND + schedule::SUBSET_PER_ROUND + schedule::CELL_PER_ROUND) as u64;
    let before = client::metrics_page(addr)?;
    let (phase, samples) = service::closed_loop(
        args.seconds,
        args.clk_tck,
        MAX_REQUESTS / per_round,
        |round, conn| {
            schedule::serve_round(args.seed, round, conn)
                .iter()
                .enumerate()
                .map(|(k, req)| {
                    send(
                        addr,
                        req,
                        (
                            round,
                            conn,
                            service::trace_id(args.seed, round, conn, k as u64),
                        ),
                        &off,
                    )
                })
                .collect()
        },
    );
    let after = client::metrics_page(addr)?;
    stop(server);

    let t = service::tally(&samples);
    o.attempted = t.attempted;
    o.failed = t.failed;
    o.problems.extend(t.problems.iter().take(20).cloned());
    if t.problems.len() > 20 {
        o.problem(format!("... and {} more", t.problems.len() - 20));
    }
    o.set("setup_s", setup_s);
    o.set("wall_s", phase.round_s());
    o.set("cpu_s", phase.cpu_per_round());
    o.set("peak_rss_mb", host::peak_rss_mb());
    o.set("cells_per_s", t.rows as f64 / phase.wall_s);
    o.set("req_per_s", t.ok as f64 / phase.wall_s);
    service::latency_metrics(&mut o, &t);

    if traced {
        let stage = |s: &str| prom::hist_mean(&before, &after, &format!("sim_server_stage_{s}_us"));
        o.set("sim-server.parse_us", stage("parse"));
        o.set("sim-server.admit_us", stage("admit"));
        o.set("sim-server.cache_lookup_us", stage("cache_lookup"));
        o.set("sim-server.format_us", stage("format"));
        let sweep_us = prom::hist_mean(&before, &after, "sim_server_sweep_time_us");
        o.set("sim-server.sweep_us", sweep_us);
        for lane in ["interactive", "bulk"] {
            o.set(
                &format!("sim-server.lane_wait_{lane}_us"),
                prom::hist_mean(&before, &after, &format!("sim_server_lane_wait_{lane}_us")),
            );
        }
        let hits = prom::delta(&before, &after, "sim_server_cache_hits");
        let misses = prom::delta(&before, &after, "sim_server_cache_misses");
        o.set(
            "sim-server.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        o.set("sim-server.http.connect_us", report::mean(&t.connect_us));
        // Client latency minus the server's own time for the same request
        // (matched by trace id through the server's request log).
        let log_dir = log_dir.expect("traced run has a log dir");
        let server_us = service::request_log(&log_dir);
        let outside: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind != "cell")
            .filter_map(|s| Some(s.ok_ms()? * 1e3 - server_us.get(&s.id)?))
            .collect();
        o.set("sim-server.http.outside_us", report::mean(&outside));
        let _ = std::fs::remove_dir_all(&log_dir);
        o.set("harness.checkpoint.decode_us", decode_us()?);
    }
    Ok(o)
}

/// `decode_entry` per cached payload: every test-scale cell's encoding,
/// decoded repeatedly from outside the server.
fn decode_us() -> Result<f64, String> {
    let results =
        harness::run_suite_with(&hpc_kernels::test_suite(), &harness::SuiteConfig::default());
    let payloads: Vec<String> = results.cells.values().map(harness::encode_entry).collect();
    const REPS: usize = 50;
    let t = Instant::now();
    for _ in 0..REPS {
        let _s = trace::span("harness.decode_entry");
        for p in &payloads {
            if std::hint::black_box(harness::decode_entry(p)).is_none() {
                return Err("a cached payload does not decode".into());
            }
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / (REPS * payloads.len()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checks pass on the real service's answers and fail when one byte
    /// of a per-cell value in the answer is flipped.
    #[test]
    fn checks_catch_one_flipped_byte_in_real_answers() {
        let off = service::offline_reference().unwrap();
        let server = start(None, &off).unwrap();
        let reqs = [
            Req::Full,
            Req::Subset(vec![(0, 3, 0), (8, 1, 1), (5, 2, 1)]),
            Req::Cell((4, 0, 0)),
        ];
        for req in &reqs {
            let (method, path, body) = match req {
                Req::Full => (
                    "POST",
                    "/v1/sweep".to_string(),
                    schedule::FULL_BODY.to_string(),
                ),
                Req::Subset(c) => ("POST", "/v1/sweep".to_string(), schedule::subset_body(c)),
                Req::Cell(c) => ("GET", format!("/v1/cell/{}", cell_key(*c)), String::new()),
            };
            let r = client::request(server.addr, method, &path, &[], body.as_bytes()).unwrap();
            assert_eq!(r.status, 200);
            assert!(check(req, &r.body, &off).1.is_empty(), "{req:?}");
            let text = String::from_utf8(r.body.clone()).unwrap();
            for field in ["\"time_s\":", "\"output_digest\":\"", "\"energy_j\":"] {
                let at = text.find(field).unwrap() + field.len() + 2;
                let mut bad = r.body.clone();
                bad[at] = if bad[at] == b'1' { b'2' } else { b'1' };
                assert!(!check(req, &bad, &off).1.is_empty(), "{req:?} {field}");
            }
        }
        stop(server);
    }
}

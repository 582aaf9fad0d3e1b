//! `autotune-fleet`: an in-process `route` over two in-process `serve`
//! shards, sent the requests `harness autotune --addr` sends. Each request
//! is one candidate pipeline: the nine test-scale OpenCL-Opt/single cells
//! under a seeded ordering of all seven passes (autotune's shuffled
//! candidates), never repeated within a run. Autotune's other candidates
//! (no passes, each single pass, the canonical order) are the same in every
//! invocation and would be cache hits after the first, so they are not
//! sent. Every cell misses, and the shard caches are smaller than the cells
//! a run names, so they also evict: the optimizer, scheduler batching,
//! `sim-pool` and the router's fan-out do the work, and the cache is
//! written rather than read.

use crate::checks::{self, Offline};
use crate::report::{self, Outcome};
use crate::schedule::{self, Orderings};
use crate::service::{self, CONNECTIONS};
use crate::{client, host, probe, prom, timed_setup, trace, Args};
use harness::route::RunningRouter;
use harness::serve::RunningServer;
use harness::{CellEntry, RouteConfig, ServeConfig, SuiteConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fleet start-ups per run (about 2 ms each); the median is `setup_s`.
const SETUP_REPS: usize = 150;
/// Cache capacity of each shard: a request sends four or five cells to
/// each shard, so the fourth request of a run already evicts.
const SHARD_CAPACITY: usize = 16;
/// Sweeps per connection per round.
const SWEEPS_PER_CONN: u64 = 4;
/// Rounds per run at most: one ordering per request, never repeated.
const MAX_ROUNDS: u64 = Orderings::COUNT / (CONNECTIONS * SWEEPS_PER_CONN);
/// Pipelines whose cells are re-run through `run_one` for the traced
/// per-cell time.
const RUN_ONE_PIPELINES: usize = 4;

struct Fleet {
    shards: Vec<RunningServer>,
    router: RunningRouter,
}

impl Fleet {
    fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }
}

fn start(log_dirs: &Option<(PathBuf, PathBuf)>) -> Result<Fleet, String> {
    let mut shards = Vec::new();
    for i in 0..2 {
        let trace_dir = log_dirs
            .as_ref()
            .map(|(a, b)| if i == 0 { a.clone() } else { b.clone() });
        shards.push(
            harness::serve::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                capacity: SHARD_CAPACITY,
                trace_dir,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("shard failed to start: {e}"))?,
        );
    }
    let router = harness::route::start(RouteConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        replicas: 1,
        retry_budget: 3,
        breaker_threshold: 3,
        fault_seed: None,
        timeout_ms: None,
        trace_dir: None,
        trace_sample: 0,
        slow_ms: None,
        workers: sim_server::http::DEFAULT_WORKERS,
        priority_cells: sim_server::http::DEFAULT_PRIORITY_CELLS,
    })
    .map_err(|e| format!("router failed to start: {e}"))?;
    let fleet = Fleet { shards, router };
    for addr in fleet.shard_addrs().into_iter().chain([fleet.router.addr]) {
        client::wait_healthy(addr, Duration::from_secs(30))?;
    }
    Ok(fleet)
}

fn stop(f: Fleet) {
    if let Err(e) = f.router.shutdown() {
        eprintln!("simbench: router shutdown: {e}");
    }
    for s in f.shards {
        if let Err(e) = s.shutdown() {
            eprintln!("simbench: shard shutdown: {e}");
        }
    }
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let off = service::offline_reference()?;
    let log_dirs = traced.then(|| {
        (
            service::log_dir(&args.out, "fleet-shard0-requests"),
            service::log_dir(&args.out, "fleet-shard1-requests"),
        )
    });
    let (fleet, setup_s) = timed_setup(SETUP_REPS, || start(&log_dirs), stop)?;
    let addr = fleet.router.addr;

    // Orderings are drawn up front, so what a round sends never depends on
    // how far the previous rounds got.
    let per_round = CONNECTIONS * SWEEPS_PER_CONN;
    let cells = schedule::autotune_cells();
    let mut gen = Orderings::new(args.seed);
    let orderings: Vec<String> = (0..MAX_ROUNDS * per_round)
        .map(|_| gen.next_ordering())
        .collect();

    let page = |a: SocketAddr| client::metrics_page(a);
    let before: Vec<String> = fleet
        .shard_addrs()
        .into_iter()
        .map(page)
        .collect::<Result<_, _>>()?;
    let router_before = page(addr)?;
    let (phase, samples) =
        service::closed_loop(args.seconds, args.clk_tck, MAX_ROUNDS, |round, conn| {
            (0..SWEEPS_PER_CONN)
                .map(|k| {
                    let ordering =
                        &orderings[(round * per_round + conn * SWEEPS_PER_CONN + k) as usize];
                    let body = schedule::passes_body(ordering);
                    let at = (round, conn, service::trace_id(args.seed, round, conn, k));
                    service::send(
                        addr,
                        "sweep",
                        at,
                        "POST",
                        "/v1/sweep",
                        body.as_bytes(),
                        |r| {
                            let found = checks::optimized(&r.body, &cells, &off);
                            (cells.len() as u64, found)
                        },
                    )
                })
                .collect()
        });
    let after: Vec<String> = fleet
        .shard_addrs()
        .into_iter()
        .map(page)
        .collect::<Result<_, _>>()?;
    let router_after = page(addr)?;
    stop(fleet);

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
        let pages: Vec<(String, String)> = before.into_iter().zip(after).collect();
        let batches = prom::delta_sum(&pages, "sim_server_batches_total");
        o.set("sim-server.scheduler.batches", batches);
        o.set(
            "sim-server.scheduler.cells_per_batch",
            prom::delta_sum(&pages, "sim_server_cells_simulated_total") / batches.max(1.0),
        );
        o.set(
            "sim-server.scheduler.queue_wait_us",
            prom::hist_mean_sum(&pages, "sim_server_stage_queue_wait_us"),
        );
        let hits = prom::delta_sum(&pages, "sim_server_cache_hits");
        let misses = prom::delta_sum(&pages, "sim_server_cache_misses");
        o.set(
            "sim-server.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        o.set(
            "sim-server.cache.insertions",
            prom::delta_sum(&pages, "sim_server_cache_insertions"),
        );
        o.set(
            "sim-server.cache.evictions",
            prom::delta_sum(&pages, "sim_server_cache_evictions"),
        );
        o.set(
            "route.retries",
            prom::delta(&router_before, &router_after, "sim_router_retries_total"),
        );
        o.set(
            "route.shard_errors",
            prom::delta(
                &router_before,
                &router_after,
                "sim_router_shard_errors_total",
            ),
        );
        // Client latency minus the slower shard's own time for the same
        // request (the router stamps the client's trace id on both).
        let (a, b) = log_dirs.expect("traced run has log dirs");
        let (la, lb) = (service::request_log(&a), service::request_log(&b));
        let fanout: Vec<f64> = samples
            .iter()
            .filter_map(|s| {
                let slowest = la
                    .get(&s.id)
                    .copied()
                    .unwrap_or(0.0)
                    .max(lb.get(&s.id).copied().unwrap_or(0.0));
                (slowest > 0.0).then_some(s.ok_ms()? * 1e3 - slowest)
            })
            .collect();
        o.set("route.fanout_us", report::mean(&fanout));
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);

        let sent = &orderings[..samples.len()];
        o.set("kernel-ir.opt_s", opt_s(sent)?);
        let first = &sent[..RUN_ONE_PIPELINES.min(sent.len())];
        let ms = run_one_ms(first, &off, &mut o.problems)?;
        o.set("harness.runner.run_one_ms", ms);
    }
    Ok(o)
}

/// `Pipeline::run` over the nine test-scale kernels, per pipeline sent.
fn opt_s(sent: &[String]) -> Result<f64, String> {
    let programs: Vec<kernel_ir::Program> = probe::launches(probe::Scale::Test)
        .into_iter()
        .map(|l| l.program)
        .collect();
    let mut total = 0.0;
    for ordering in sent {
        let pl = kernel_ir::Pipeline::parse(ordering)?;
        let _s = trace::span("kernel-ir.opt").arg("passes", ordering);
        let t = Instant::now();
        for p in &programs {
            std::hint::black_box(pl.run(p));
        }
        total += t.elapsed().as_secs_f64();
    }
    Ok(total / sent.len().max(1) as f64)
}

/// `run_one` per autotune cell under the first pipelines the run sent;
/// each cell's digest must equal the unoptimized offline digest.
fn run_one_ms(sent: &[String], off: &Offline, problems: &mut Vec<String>) -> Result<f64, String> {
    let suite = hpc_kernels::test_suite();
    let mut times = Vec::new();
    for ordering in sent {
        let cfg = SuiteConfig {
            passes: Some(kernel_ir::Pipeline::parse(ordering)?),
            ..SuiteConfig::default()
        };
        for c in schedule::autotune_cells() {
            let (bi, v, p) = c;
            let prec = hpc_kernels::Precision::ALL[p];
            let t = Instant::now();
            let entry = {
                let _s = trace::span("harness.run_one").arg("bench", suite[bi].name());
                harness::run_one(
                    suite[bi].as_ref(),
                    bi,
                    hpc_kernels::Variant::ALL[v],
                    prec,
                    &cfg,
                )
            };
            if let CellEntry::Ok(cell) = entry {
                times.push(t.elapsed().as_secs_f64() * 1e3);
                let want = off
                    .row(c)
                    .get("output_digest")
                    .and_then(crate::json::Value::as_str);
                if want != Some(format!("{:016x}", cell.output_digest).as_str()) {
                    problems.push(format!(
                        "run_one {} under {ordering}: digest differs",
                        checks::label(c)
                    ));
                }
            }
        }
    }
    Ok(report::mean(&times))
}

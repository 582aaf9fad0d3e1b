//! `simbench` — one benchmark for the simulator and its service.
//!
//! ```text
//! simbench --workload <paper-grid|serve-hot|autotune-fleet> --seed <n>
//!          --seconds <s> --trace <0|1> [--clk-tck <hz>] [--out <dir>]
//! ```
//!
//! Each invocation runs one workload in this process and prints, as its
//! last stdout line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run first repeats the untraced
//! measurement, then measures again with span recording on, prints the
//! tracing overhead, writes every span as one Chrome trace under `--out`,
//! and derives the per-layer metrics from those spans.
//!
//! The benchmark pins the engine (columnar), the thread count (every host
//! core), the optimizer pipeline (none) and the fault plan (none) itself;
//! see `run.py`, which also clears the environment variables that would
//! otherwise select them.

mod checks;
mod client;
mod fleet;
mod host;
mod json;
mod paper_grid;
mod probe;
mod prom;
mod report;
mod schedule;
mod serve_hot;
mod service;
mod trace;

use report::Outcome;
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["paper-grid", "serve-hot", "autotune-fleet"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub clk_tck: f64,
    pub out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        clk_tck: 100.0,
        out: ".simbench".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--clk-tck" => a.clk_tck = val()?.parse().map_err(|_| "--clk-tck needs a number")?,
            "--out" => a.out = val()?.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Select engine, threads, passes and faults explicitly, whatever the
/// caller's environment says.
fn pin_configuration() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    kernel_ir::set_engine(kernel_ir::Engine::Columnar);
    sim_pool::set_threads(threads);
    kernel_ir::opt::set_passes(None);
    sim_faults::install(None);
    threads
}

/// Wall time and CPU time of a measured phase made of whole rounds.
pub struct Phase {
    /// Wall seconds of each round.
    pub rounds: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    pub fn n(&self) -> usize {
        self.rounds.len()
    }

    /// Median wall seconds of one round: the fixed unit of work.
    pub fn round_s(&self) -> f64 {
        report::median(&self.rounds)
    }

    /// CPU seconds per round.
    pub fn cpu_per_round(&self) -> f64 {
        self.cpu_s / self.n().max(1) as f64
    }
}

/// No round starts that would, at the pace of the longest round so far,
/// end after this many seconds of measured phase: a much slower program
/// runs fewer rounds (at least one) and is still measured within run.py's
/// time limit, instead of being killed.
pub const PHASE_CAP_S: f64 = 120.0;

/// Run whole rounds until `seconds` have elapsed and at least `min_rounds`
/// have run, or until `max_rounds` have, or until [`PHASE_CAP_S`] stops the
/// next round. `round` gets the round index.
pub fn run_rounds(
    seconds: f64,
    clk_tck: f64,
    (min_rounds, max_rounds): (u64, u64),
    mut round: impl FnMut(u64),
) -> Phase {
    let cpu0 = host::cpu_s(clk_tck);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut longest = 0.0f64;
    for r in 0..max_rounds.max(1) {
        let t = Instant::now();
        let _s = trace::span("round").arg("round", r);
        round(r);
        let took = t.elapsed().as_secs_f64();
        longest = longest.max(took);
        rounds.push(took);
        let elapsed = start.elapsed().as_secs_f64();
        if r + 1 >= min_rounds && elapsed >= seconds {
            break;
        }
        if elapsed + longest > PHASE_CAP_S {
            eprintln!(
                "simbench: stopping after {} rounds: the next would end past {PHASE_CAP_S} s",
                r + 1
            );
            break;
        }
    }
    let phase = Phase {
        rounds,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_s(clk_tck) - cpu0,
    };
    eprintln!(
        "simbench: {} rounds in {:.3} s; round seconds min {:.6} median {:.6} max {:.6}",
        phase.n(),
        phase.wall_s,
        report::quantile(&phase.rounds, 0.0),
        phase.round_s(),
        report::quantile(&phase.rounds, 1.0)
    );
    phase
}

/// Median over `reps` repetitions of a set-up step. Every repetition but
/// the last is torn down; the last one is kept for the measured phase.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    eprintln!(
        "simbench: {} set-ups; seconds min {:.6} median {:.6} max {:.6}",
        times.len(),
        report::quantile(&times, 0.0),
        report::median(&times),
        report::quantile(&times, 1.0)
    );
    Ok((
        last.expect("at least one repetition"),
        report::median(&times),
    ))
}

/// The traced run's end-to-end figures against its untraced half's: the
/// tracing overhead.
fn overhead_line(
    workload: &str,
    untraced: &BTreeMap<String, f64>,
    traced: &BTreeMap<String, f64>,
) -> String {
    let parts: Vec<String> = ["wall_s", "cpu_s", "p50_ms", "req_per_s", "cells_per_s"]
        .iter()
        .filter_map(|k| {
            let (u, t) = (untraced.get(*k)?, traced.get(*k)?);
            Some(format!(
                "{}: {{\"untraced\": {u}, \"traced\": {t}, \"overhead_pct\": {}}}",
                json::quote(k),
                100.0 * (t - u) / u.abs().max(1e-12)
            ))
        })
        .collect();
    format!(
        "tracing-overhead: {{\"workload\": {}, {}}}",
        json::quote(workload),
        parts.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = pin_configuration();
    eprintln!(
        "simbench: workload {} seed {} seconds {} trace {} on {threads} threads",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let run = |traced: bool, seconds: f64| -> Result<Outcome, String> {
        let a = Args {
            workload: args.workload.clone(),
            out: args.out.clone(),
            seconds,
            ..args
        };
        match args.workload.as_str() {
            "paper-grid" => paper_grid::run(&a, traced),
            "serve-hot" => serve_hot::run(&a, traced),
            _ => fleet::run(&a, traced),
        }
    };
    let result = if args.trace {
        // Half the time untraced, half traced: same work, so the difference
        // is the cost of recording spans.
        run(false, args.seconds / 2.0).and_then(|plain| {
            trace::enable();
            let traced = run(true, args.seconds / 2.0)?;
            trace::disable();
            println!(
                "{}",
                overhead_line(&args.workload, &plain.metrics, &traced.metrics)
            );
            let spans = trace::spans();
            let path = args
                .out
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            trace::write_chrome(&path, &spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!(
                "simbench: {} spans written to {}",
                spans.len(),
                path.display()
            );
            let mut o = traced;
            o.attempted += plain.attempted;
            o.failed += plain.failed;
            o.problems.extend(plain.problems);
            Ok(o)
        })
    } else {
        run(false, args.seconds)
    };
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &o.problems {
        eprintln!("simbench: check failed: {p}");
    }
    if let Some(line) = report::extra_line(&o) {
        println!("{line}");
    }
    let defs = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    println!("{}", report::result_line(&o, &defs));
}

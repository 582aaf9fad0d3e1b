//! `paper-grid`: the offline 72-cell grid at paper scale, then the CSV and
//! JSONL exports and the figure tables — what a user runs to regenerate
//! Figures 2–4. One round is one whole grid; one "request" is one round.
//!
//! The grid's inputs are the paper's fixed inputs: the seed selects
//! nothing here.

use crate::report::{self, Outcome, FAMILIES};
use crate::{checks, host, probe, run_rounds, trace, Args};
use harness::{CellEntry, SuiteConfig, SuiteResults};
use hpc_kernels::{Benchmark, Precision, RunOutcome, RunSkip, Variant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Suite construction takes a fraction of a microsecond, and on a shared
/// host what it costs swings by a quarter within a second, so it is timed
/// in `SETUP_BATCHES` batches of `SETUP_BATCH` constructions spaced
/// `SETUP_GAP` apart before the measured phase (about a second in all);
/// `setup_s` is the median batch mean. Back-to-back batches sample one
/// moment of the host, and their median varies twice as much between runs.
const SETUP_BATCHES: usize = 200;
const SETUP_BATCH: usize = 1000;
const SETUP_GAP: Duration = Duration::from_millis(5);
/// Grids per run: with fewer, one slow stretch of a shared host decides a
/// run's figures. Three paper-scale grids take about 45 s on the 2-core
/// reference host, so this count, not `--seconds`, sets the length of an
/// untraced run ([`crate::PHASE_CAP_S`] caps it for a much slower program).
/// A traced run, which measures twice and adds the probe, runs one grid per
/// half.
const MIN_ROUNDS: u64 = 3;

/// A suite member that records a span around each `Benchmark::run`.
struct Traced(Box<dyn Benchmark>);

/// The open `harness.run_suite_with` span: cells run on pool workers, whose
/// spans take it as their parent.
static SWEEP_SPAN: AtomicU64 = AtomicU64::new(0);

impl Benchmark for Traced {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn description(&self) -> &'static str {
        self.0.description()
    }

    fn run(&self, variant: Variant, prec: Precision) -> Result<RunOutcome, RunSkip> {
        let sweep = SWEEP_SPAN.load(Ordering::Relaxed);
        let _sweep = trace::adopt((sweep != 0).then_some(sweep));
        let _s = trace::span("hpc-kernels.run")
            .arg("bench", self.0.name())
            .arg("kind", if variant.on_gpu() { "gpu" } else { "cpu" })
            .arg("variant", variant.label())
            .arg("precision", prec.label());
        self.0.run(variant, prec)
    }
}

/// Wrap every suite member in [`Traced`].
fn wrap_traced(suite: Vec<Box<dyn Benchmark>>) -> Vec<Box<dyn Benchmark>> {
    suite
        .into_iter()
        .map(|b| Box::new(Traced(b)) as Box<dyn Benchmark>)
        .collect()
}

/// Time `SETUP_BATCHES` spaced batches of `hpc_kernels::suite()` (only the
/// program's own set-up: the tracing wrapper is added afterwards). Returns
/// the median batch mean and the last suite built.
fn timed_suite() -> (f64, Vec<Box<dyn Benchmark>>) {
    let mut times = Vec::with_capacity(SETUP_BATCHES);
    let mut last = None;
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            last = Some(std::hint::black_box(hpc_kernels::suite()));
        }
        times.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        std::thread::sleep(SETUP_GAP);
    }
    (report::median(&times), last.expect("at least one batch"))
}

/// One grid: run, export, render every figure. Returns the results and
/// their JSONL export.
fn grid(suite: &[Box<dyn Benchmark>]) -> (SuiteResults, String) {
    let results = {
        let _s = trace::span("harness.run_suite_with");
        SWEEP_SPAN.store(trace::current().unwrap_or(0), Ordering::Relaxed);
        harness::run_suite_with(suite, &SuiteConfig::default())
    };
    let export = |name: &'static str, f: &dyn Fn() -> String| {
        let _s = trace::span("harness.export").arg("fn", name);
        std::hint::black_box(f())
    };
    export("to_csv", &|| harness::to_csv(&results));
    let jsonl = export("to_jsonl", &|| harness::to_jsonl(&results));
    for prec in Precision::ALL {
        export("fig2", &|| harness::fig2(&results, prec));
        export("fig3", &|| harness::fig3(&results, prec));
        export("fig4", &|| harness::fig4(&results, prec));
    }
    export("summary", &|| harness::summary(&results));
    (results, jsonl)
}

pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (setup_s, suite) = timed_suite();
    let suite = wrap_traced(suite);

    let mut last: Option<(SuiteResults, String)> = None;
    let mut first_jsonl: Option<String> = None;
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    let phase = run_rounds(args.seconds, args.clk_tck, (min_rounds, u64::MAX), |_| {
        let (results, jsonl) = grid(&suite);
        match &first_jsonl {
            None => first_jsonl = Some(jsonl.clone()),
            Some(first) if *first != jsonl => o.problem("grid export differs between rounds"),
            Some(_) => {}
        }
        last = Some((results, jsonl));
    });
    let (results, jsonl) = last.expect("at least one round");
    let cells = results.cells.len() as u64;
    o.attempted = cells * phase.n() as u64;

    // Correctness: every run cell validated against its f64 reference,
    // plus the properties checked on the exported rows.
    for (coord, entry) in &results.cells {
        let (bench, v, bits) = coord;
        let prec = if *bits == 64 {
            Precision::F64
        } else {
            Precision::F32
        };
        match entry {
            CellEntry::Ok(cell) => {
                let r = &cell.outcome;
                if !r.validated || r.max_rel_err.is_nan() || r.max_rel_err > prec.tol() {
                    o.problem(format!(
                        "{bench}/{}/{}: not validated (max rel err {:.3e})",
                        v.label(),
                        prec.label(),
                        r.max_rel_err
                    ));
                }
            }
            CellEntry::Skipped(_) => {}
            CellEntry::Failed(e) => {
                o.failed += phase.n() as u64;
                o.problem(format!(
                    "{bench}/{}/{}: failed: {}",
                    v.label(),
                    prec.label(),
                    e.message
                ));
            }
        }
    }
    for p in checks::paper_grid(&jsonl) {
        o.problem(p);
    }

    let wall = phase.round_s();
    o.set("setup_s", setup_s);
    o.set("wall_s", wall);
    o.set("cpu_s", phase.cpu_per_round());
    o.set("peak_rss_mb", host::peak_rss_mb());
    o.set("cells_per_s", cells as f64 / wall);
    o.set("req_per_s", phase.n() as f64 / phase.wall_s);
    o.set("p50_ms", wall * 1e3);
    let (speedup, energy) = harness::headline(&results);
    let paper = harness::paper::HEADLINE_SPEEDUP;
    let paper_energy = harness::paper::HEADLINE_ENERGY;
    o.extra.push((
        "speedup_err_pct",
        100.0 * (speedup - paper).abs() / paper,
        "%",
    ));
    o.extra.push((
        "energy_err_pct",
        100.0 * (energy - paper_energy).abs() / paper_energy,
        "%",
    ));

    if traced {
        layers(&mut o, &results, &suite)?;
    }
    Ok(o)
}

/// Per-layer metrics of the traced round(s), the meter re-measurement, the
/// simulated counts and the probe.
fn layers(
    o: &mut Outcome,
    results: &SuiteResults,
    suite: &[Box<dyn Benchmark>],
) -> Result<(), String> {
    let spans = trace::spans();
    let grids = trace::select(&spans, "harness.run_suite_with", &[])
        .count()
        .max(1) as f64;
    for f in FAMILIES {
        o.set(
            &format!("hpc-kernels.host_s.{f}"),
            trace::total_s(&spans, "hpc-kernels.run", &[("bench", f)]) / grids,
        );
    }
    let gpu = trace::total_s(&spans, "hpc-kernels.run", &[("kind", "gpu")]) / grids;
    let cpu = trace::total_s(&spans, "hpc-kernels.run", &[("kind", "cpu")]) / grids;
    o.set("hpc-kernels.gpu_host_s", gpu);
    o.set("hpc-kernels.cpu_host_s", cpu);
    o.set(
        "harness.export_s",
        trace::total_s(&spans, "harness.export", &[]) / grids,
    );
    let sweep_s = trace::total_s(&spans, "harness.run_suite_with", &[]) / grids;
    o.set(
        "sim-pool.busy_frac",
        (gpu + cpu) / (sweep_s * sim_pool::threads() as f64),
    );

    // Time in `harness::measure`, re-run from outside on every measured
    // cell with the runner's seed; it must reproduce the cell's energy.
    let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
    let model = powersim::PowerModel::default();
    let mut meter_s = 0.0;
    let (mut ops, mut l2, mut dram) = (0u64, 0u64, 0u64);
    for ((bench, _, bits), entry) in &results.cells {
        let CellEntry::Ok(cell) = entry else { continue };
        let bi = names.iter().position(|n| n == bench).expect("suite member") as u64;
        let t = Instant::now();
        let (_, _, energy) = {
            let _s = trace::span("powersim.measure").arg("bench", bench);
            harness::measure(&cell.outcome, &model, bi << 8 | *bits as u64)
        };
        meter_s += t.elapsed().as_secs_f64();
        if energy.to_bits() != cell.energy_j.to_bits() {
            o.problem(format!(
                "{bench}: re-measured energy {energy} != {}",
                cell.energy_j
            ));
        }
        let c = &cell.counters;
        ops += c.total_ops();
        l2 += c.l2_hits + c.dram_lines;
        dram += c.dram_lines;
    }
    o.set("powersim.meter_s", meter_s);
    o.set("kernel-ir.ops_executed", ops as f64);
    o.set("memsim.l2_accesses", l2 as f64);
    o.set("memsim.dram_lines", dram as f64);

    for (name, v) in probe::run()? {
        o.set(&name, v);
    }
    Ok(())
}

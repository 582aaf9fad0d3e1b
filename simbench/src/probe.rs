//! Layer probe: each family's OpenCL-Opt single-precision kernel, built
//! with the public constructors in `hpc_kernels::<module>`, run through
//! each layer of the simulator separately so its host time can be split:
//! decode, interpretation on both engines, the Mali and Cortex-A15 timing
//! models, and `memsim` replay of the recorded access stream.
//!
//! The probe runs on one thread, so a device model's time minus the
//! interpretation time is the model's own cost.

use crate::report::{FAMILIES, PROBE};
use crate::trace;
use hpc_kernels::Precision;
use kernel_ir::trace::{AccessKind, CountingTracer, NullTracer, Pattern, RecordingTracer};
use kernel_ir::{
    ArgBinding, BufferData, DecodedProgram, Engine, Hints, MemoryPool, NDRange, Program, Scalar,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// One kernel launch, ready to run.
pub struct Launch {
    pub family: &'static str,
    pub program: Program,
    pub buffers: Vec<BufferData>,
    pub bindings: Vec<ArgBinding>,
    pub ndrange: NDRange,
}

impl Launch {
    /// A fresh pool with the launch's initial buffers (outputs zeroed).
    pub fn pool(&self) -> MemoryPool {
        let mut pool = MemoryPool::new();
        for b in &self.buffers {
            pool.add(b.clone());
        }
        pool
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Test,
}

const P: Precision = Precision::F32;

fn globals(n: usize) -> Vec<ArgBinding> {
    (0..n).map(ArgBinding::Global).collect()
}

fn hints() -> Hints {
    Hints {
        inline: true,
        const_args: true,
    }
}

fn fits(program: &Program, nd: NDRange) -> bool {
    hpc_kernels::common::gpu()
        .check_resources(program, nd)
        .is_ok()
}

/// The nine OpenCL-Opt single-precision launches, in figure order, with
/// the work-group sizes the benchmarks choose.
pub fn launches(scale: Scale) -> Vec<Launch> {
    use hpc_kernels::*;
    let paper = scale == Scale::Paper;
    let mut out = Vec::new();

    let s = if paper {
        spmv::Spmv::default()
    } else {
        spmv::Spmv::test_size()
    };
    let m = s.matrix();
    out.push(Launch {
        family: "spmv",
        program: s.kernel(P, hints()),
        buffers: vec![
            BufferData::U32(m.row_ptr),
            BufferData::U32(m.col),
            P.buffer(&m.val),
            P.buffer(&m.x),
            BufferData::zeroed(Scalar::F32, s.rows),
        ],
        bindings: globals(5),
        ndrange: NDRange::d1(s.rows, 64),
    });

    let v = if paper {
        vecop::Vecop::default()
    } else {
        vecop::Vecop::test_size()
    };
    let (program, width) = v.opt_kernel(P);
    out.push(Launch {
        family: "vecop",
        program,
        buffers: vec![
            P.buffer(&common::prng_uniform(11, v.n)),
            P.buffer(&common::prng_uniform(13, v.n)),
            BufferData::zeroed(Scalar::F32, v.n),
        ],
        bindings: globals(3),
        ndrange: NDRange::d1(v.n / width as usize, 128),
    });

    let h = if paper {
        hist::Hist::default()
    } else {
        hist::Hist::test_size()
    };
    out.push(Launch {
        family: "hist",
        program: h.opt_kernel(P),
        buffers: vec![
            BufferData::U32(h.input()),
            BufferData::zeroed(Scalar::U32, h.buckets),
        ],
        bindings: vec![
            ArgBinding::Global(0),
            ArgBinding::Global(1),
            ArgBinding::LocalSize(h.buckets),
        ],
        ndrange: NDRange::d1(h.n / h.opt_items_per_thread, 256.min(h.buckets.max(64))),
    });

    let st = if paper {
        stencil3d::Stencil3d::default()
    } else {
        stencil3d::Stencil3d::test_size()
    };
    let n = st.dim - 2;
    out.push(Launch {
        family: "3dstc",
        program: st.opt_kernel(P),
        buffers: vec![
            P.buffer(&st.input()),
            BufferData::zeroed(Scalar::F32, st.dim * st.dim * st.dim),
        ],
        bindings: globals(2),
        ndrange: NDRange::d3([n, n, n / st.opt_z_per_thread], [16, 8, 1]),
    });

    let r = if paper {
        red::Red::default()
    } else {
        red::Red::test_size()
    };
    out.push(Launch {
        family: "red",
        program: r.stage1_opt(P),
        buffers: vec![
            P.buffer(&r.input()),
            BufferData::zeroed(Scalar::F32, r.opt_groups),
            BufferData::zeroed(Scalar::F32, 1),
        ],
        bindings: vec![
            ArgBinding::Global(0),
            ArgBinding::Global(1),
            ArgBinding::LocalSize(r.wg),
        ],
        ndrange: NDRange::d1(r.wg * r.opt_groups, r.wg),
    });

    let a = if paper {
        amcd::Amcd::default()
    } else {
        amcd::Amcd::test_size()
    };
    out.push(Launch {
        family: "amcd",
        program: a.kernel(P, hints()),
        buffers: vec![P.buffer(&a.init())],
        bindings: globals(1),
        ndrange: NDRange::d1(a.walkers, 128.min(a.walkers)),
    });

    let nb = if paper {
        nbody::Nbody::default()
    } else {
        nbody::Nbody::test_size()
    };
    let program = nb.opt_kernel(P);
    // The benchmark falls back to work-group 32 when 128 does not fit.
    let wide = NDRange::d1(nb.n, 128);
    let ndrange = if fits(&program, wide) {
        wide
    } else {
        NDRange::d1(nb.n, 32)
    };
    out.push(Launch {
        family: "nbody",
        program,
        buffers: vec![
            P.buffer(&nb.bodies()),
            BufferData::zeroed(Scalar::F32, nb.n * 4),
        ],
        bindings: globals(2),
        ndrange,
    });

    let c = if paper {
        conv2d::Conv2d::default()
    } else {
        conv2d::Conv2d::test_size()
    };
    let m = c.n - 4;
    // Widest vector that divides the interior, at the benchmark's tuned
    // tile: the largest {16,8,4,2,1}^2 tile dividing the global size,
    // capped at 256 work-items.
    let width = [8usize, 4, 2]
        .into_iter()
        .find(|w| mali_hpc::local_divides_global(m, *w))
        .unwrap_or(1);
    let wx = mali_hpc::largest_dividing_pow2(m / width, 16);
    let mut wy = mali_hpc::largest_dividing_pow2(m, 16);
    while wx * wy > 256 {
        wy /= 2;
    }
    out.push(Launch {
        family: "2dcon",
        program: c.opt_kernel(P, width as u8),
        buffers: vec![
            P.buffer(&c.input()),
            BufferData::zeroed(Scalar::F32, c.n * c.n),
        ],
        bindings: globals(2),
        ndrange: NDRange::d2(m / width, m, wx, wy.max(1)),
    });

    let d = if paper {
        dmmm::Dmmm::default()
    } else {
        dmmm::Dmmm::test_size()
    };
    let (x, y) = d.inputs();
    let n = d.n;
    let mut chosen = None;
    'widths: for width in [d.opt_width, 2] {
        let program = d.opt_kernel(P, width);
        for wg in [[16usize, 8, 1], [16, 4, 1], [8, 4, 1]] {
            let global = [n / width as usize, n, 1];
            let nd = NDRange::d3(global, wg);
            if mali_hpc::wg_tiles_global(global, wg) && fits(&program, nd) {
                chosen = Some((program, nd));
                break 'widths;
            }
        }
    }
    let (program, ndrange) = chosen.unwrap_or_else(|| {
        let program = d.opt_kernel(P, 2);
        (program, NDRange::d3([n / 2, n, 1], [8, 4, 1]))
    });
    out.push(Launch {
        family: "dmmm",
        program,
        buffers: vec![
            P.buffer(&x),
            P.buffer(&y),
            BufferData::zeroed(Scalar::F32, n * n),
        ],
        bindings: globals(3),
        ndrange,
    });

    debug_assert_eq!(out.iter().map(|l| l.family).collect::<Vec<_>>(), FAMILIES);
    out
}

/// Replay a recorded access stream into a fresh Mali L2 the way the device
/// model does (line-granular probes; gathers probe every lane). Returns the
/// number of hierarchy accesses.
fn replay(log: &RecordingTracer<CountingTracer>) -> u64 {
    let cfg = mali_gpu::MaliConfig::default();
    let mut hier = memsim::Hierarchy::l2_only(cfg.l2);
    let mut lanes = log.lane_log.iter();
    let mut n = 0u64;
    for a in &log.mem_log {
        let write = !matches!(a.kind, AccessKind::Read);
        if a.pattern == Pattern::Gather {
            for &addr in lanes.by_ref().take(a.width as usize) {
                std::hint::black_box(hier.access(addr, a.elem.bytes(), write, false));
                n += 1;
            }
        } else {
            let streaming = a.pattern == Pattern::Contiguous;
            std::hint::black_box(hier.access(a.addr, a.bytes, write, streaming));
            n += 1;
        }
    }
    n
}

/// Run every paper-scale launch through each layer on one thread and
/// return the probe's per-layer metrics, per family and in total.
pub fn run() -> Result<BTreeMap<String, f64>, String> {
    let threads = sim_pool::threads();
    sim_pool::set_threads(1);
    let result = run_serial();
    sim_pool::set_threads(threads);
    result
}

fn run_serial() -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut ops_all, mut accesses_all) = (0u64, 0u64);
    let _probe = trace::span("probe");
    for l in launches(Scale::Paper) {
        let _fam = trace::span("probe.family").arg("bench", l.family);
        let time = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
            let _s = trace::span(name).arg("bench", l.family);
            let t = Instant::now();
            f().map(|_| t.elapsed().as_secs_f64())
        };
        let err = |e: &dyn std::fmt::Debug| format!("probe {}: {e:?}", l.family);

        let pool = l.pool();
        let decode = time("kernel-ir.decode", &mut || {
            std::hint::black_box(DecodedProgram::decode(&l.program, &l.bindings, &pool));
            Ok(())
        })?;
        let interp = |engine: Engine, name: &'static str| {
            let mut pool = l.pool();
            time(name, &mut || {
                kernel_ir::run_ndrange_with_engine(
                    &l.program,
                    &l.bindings,
                    &mut pool,
                    l.ndrange,
                    &mut NullTracer,
                    engine,
                )
                .map_err(|e| err(&e))
            })
        };
        let columnar = interp(Engine::Columnar, "kernel-ir.interp.columnar")?;
        let scalar = interp(Engine::Scalar, "kernel-ir.interp.scalar")?;

        let mut pool = l.pool();
        let mali = time("mali-gpu.run", &mut || {
            hpc_kernels::common::gpu()
                .run(&l.program, &l.bindings, &mut pool, l.ndrange)
                .map(|_| ())
                .map_err(|e| err(&e))
        })?;
        let mut pool = l.pool();
        let cpu = time("cpu-sim.run", &mut || {
            hpc_kernels::common::cpu()
                .run(&l.program, &l.bindings, &mut pool, l.ndrange, 1)
                .map(|_| ())
                .map_err(|e| err(&e))
        })?;

        let mut rec = RecordingTracer::new(CountingTracer::default());
        let mut pool = l.pool();
        kernel_ir::run_ndrange_with_engine(
            &l.program,
            &l.bindings,
            &mut pool,
            l.ndrange,
            &mut rec,
            Engine::Columnar,
        )
        .map_err(|e| err(&e))?;
        let ops = rec.shard.ops;
        let mut accesses = 0;
        let replay_s = time("memsim.replay", &mut || {
            accesses = replay(&rec);
            Ok(())
        })?;
        drop(rec);

        let values = [
            decode,
            columnar,
            scalar,
            ops as f64 / (columnar * 1e6).max(1e-9),
            (mali - columnar).max(0.0),
            replay_s,
            replay_s * 1e9 / accesses.max(1) as f64,
            (cpu - columnar).max(0.0),
        ];
        for ((name, _, _), v) in PROBE.into_iter().zip(values) {
            out.insert(format!("{name}.{}", l.family), v);
            *totals.entry(name).or_default() += v;
        }
        ops_all += ops;
        accesses_all += accesses;
    }
    for (name, v) in totals {
        out.insert(name.to_string(), v);
    }
    // Rates are not additive: recompute the totals from summed parts.
    let interp = out["kernel-ir.interp_s.columnar"];
    out.insert(
        "kernel-ir.ops_per_us".into(),
        ops_all as f64 / (interp * 1e6).max(1e-9),
    );
    let replay = out["memsim.replay_s"];
    out.insert(
        "memsim.ns_per_access".into(),
        replay * 1e9 / accesses_all.max(1) as f64,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scale_launches_run_and_fit_the_device() {
        for l in launches(Scale::Test) {
            assert!(l.ndrange.valid(), "{}", l.family);
            assert!(fits(&l.program, l.ndrange), "{}", l.family);
            let mut pool = l.pool();
            kernel_ir::run_ndrange_with_engine(
                &l.program,
                &l.bindings,
                &mut pool,
                l.ndrange,
                &mut NullTracer,
                Engine::Columnar,
            )
            .unwrap_or_else(|e| panic!("{}: {e:?}", l.family));
        }
    }
}

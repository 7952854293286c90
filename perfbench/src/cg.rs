//! `sparse_cg`: conjugate gradient with a shared search vector, mirroring
//! `workloads::cg`. Each iteration every thread gathers the remote entries
//! of `p` its rows reference (fine-grained reads through the page cache),
//! reduces two dot products, and republishes its chunk of `p`. The node
//! page cache is smaller than the shared working set (matrix plus `p`),
//! and the sharing is read-mostly: the time goes to SI refetches, `rma`
//! line fills and capacity evictions, with no multi-writer pages and no
//! locks.

use crate::harness::{measure, Mode};
use crate::rng::Rng;
use crate::sor::bit_identical;
use crate::trace::{Layer, Probe};
use crate::{Exec, Workload};
use argo::types::{GlobalF64Array, GlobalU64Array};
use argo::{ArgoConfig, ArgoCtx, ArgoMachine};
use mem::cache::CacheConfig;
use rma::{Endpoint, Transport};
use std::sync::Arc;
use workloads::costs::{CG_NONZERO, VEC_OP};

/// Matrix dimension.
const N: usize = 131_072;
/// Nonzeros per row, diagonal included.
const NNZ: usize = 16;
const ITERATIONS: usize = 8;
/// Page-cache lines per node (one page each): 2 MiB, against a 32 MiB
/// matrix and a 1 MiB `p` vector.
const CACHE_LINES: usize = 512;
/// One reduction slot per page, so slots are single-writer.
const SLOT_STRIDE: usize = 512;

pub struct CgInput {
    cols: Vec<u64>,
    vals: Vec<f64>,
}

pub struct SparseCg;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Collective sum. Alternates between two slot sets, so one barrier per
/// reduction suffices: a set is rewritten only after every thread has
/// passed the next barrier, i.e. finished reading it.
fn reduce<T: Transport>(
    ctx: &mut ArgoCtx<T>,
    p: &mut Probe,
    slots: GlobalF64Array,
    round: &mut usize,
    value: f64,
) -> f64 {
    let nt = ctx.nthreads();
    let base = (*round % 2) * nt * SLOT_STRIDE;
    *round += 1;
    p.call(Layer::Access, ctx, |c| {
        c.write_f64(slots.addr(base + c.tid() * SLOT_STRIDE), value)
    });
    p.call(Layer::Barrier, ctx, |c| c.barrier());
    (0..nt)
        .map(|t| {
            p.call(Layer::Access, ctx, |c| {
                c.read_f64(slots.addr(base + t * SLOT_STRIDE))
            })
        })
        .sum()
}

struct Shared {
    colidx: GlobalU64Array,
    vals: GlobalF64Array,
    pvec: GlobalF64Array,
    slots: GlobalF64Array,
}

/// A thread's private copies of its matrix rows and its gathered `p`
/// entries, one slot per nonzero. Built during set-up and filled with
/// non-zero values so every page is faulted in before measurement.
struct Buffers {
    vals: Vec<f64>,
    cols: Vec<u64>,
    x: Vec<f64>,
}

impl Buffers {
    fn new(nonzeros: usize) -> Self {
        Buffers {
            vals: vec![f64::NAN; nonzeros],
            cols: vec![u64::MAX; nonzeros],
            x: vec![f64::NAN; nonzeros],
        }
    }
}

fn kernel<T: Transport>(
    ctx: &mut ArgoCtx<T>,
    p: &mut Probe,
    g: &Shared,
    Buffers {
        mut vals,
        mut cols,
        mut x,
    }: Buffers,
) -> Vec<f64> {
    let chunk = ctx.my_chunk(N);
    let m = chunk.len();
    let mut round = 0;
    let mut z = vec![0.0f64; m];
    let mut r = vec![1.0f64; m];
    let mut q = vec![0.0f64; m];
    let mut p_local = r.clone();
    p.call(Layer::Access, ctx, |c| {
        c.write_f64_slice(g.pvec.addr(chunk.start), &p_local)
    });
    let rr = p.call(Layer::Compute, ctx, |_| dot(&r, &r));
    let mut rho = reduce(ctx, p, g.slots, &mut round, rr);
    p.call(Layer::Access, ctx, |c| {
        c.read_f64_slice(g.vals.addr(chunk.start * NNZ), &mut vals)
    });
    p.call(Layer::Access, ctx, |c| {
        c.read_u64_slice(g.colidx.addr(chunk.start * NNZ), &mut cols)
    });
    for _ in 0..ITERATIONS {
        let step = ctx.thread.now();
        // Gather p at every nonzero: local entries from this thread's
        // chunk, remote ones element by element through the page cache.
        for (at, &col) in cols.iter().enumerate() {
            let col = col as usize;
            x[at] = if chunk.contains(&col) {
                p_local[col - chunk.start]
            } else {
                p.call(Layer::Access, ctx, |c| c.read_f64(g.pvec.addr(col)))
            };
        }
        let pq = p.call(Layer::Compute, ctx, |c| {
            for (li, qi) in q.iter_mut().enumerate() {
                *qi = dot(
                    &vals[li * NNZ..(li + 1) * NNZ],
                    &x[li * NNZ..(li + 1) * NNZ],
                );
            }
            c.thread.compute((m * NNZ) as u64 * CG_NONZERO);
            dot(&p_local, &q)
        });
        let alpha = rho / reduce(ctx, p, g.slots, &mut round, pq);
        let rr = p.call(Layer::Compute, ctx, |c| {
            for li in 0..m {
                z[li] += alpha * p_local[li];
                r[li] -= alpha * q[li];
            }
            c.thread.compute(2 * m as u64 * VEC_OP);
            dot(&r, &r)
        });
        let rho_new = reduce(ctx, p, g.slots, &mut round, rr);
        let beta = rho_new / rho;
        rho = rho_new;
        p.call(Layer::Compute, ctx, |c| {
            for li in 0..m {
                p_local[li] = r[li] + beta * p_local[li];
            }
            c.thread.compute(m as u64 * VEC_OP);
        });
        p.call(Layer::Access, ctx, |c| {
            c.write_f64_slice(g.pvec.addr(chunk.start), &p_local)
        });
        p.call(Layer::Barrier, ctx, |c| c.barrier()); // publish p for the next gather
        p.ops.push(ctx.thread.now() - step);
    }
    z
}

impl Workload for SparseCg {
    const OP: &'static str = "one CG iteration, barriers included";
    const NAME: &'static str = "sparse_cg";
    type Input = CgInput;
    type Expected = Vec<f64>;
    type Output = Vec<f64>;

    /// A diagonally dominant matrix: row `i` holds `(i, NNZ + 2)` then
    /// `NNZ - 1` seeded random columns with values in `[-0.5, 0.5)`.
    fn inputs(seed: u64) -> CgInput {
        let mut r = Rng::new(seed, 2);
        let mut cols = Vec::with_capacity(N * NNZ);
        let mut vals = Vec::with_capacity(N * NNZ);
        for i in 0..N {
            cols.push(i as u64);
            vals.push(NNZ as f64 + 2.0);
            for _ in 1..NNZ {
                cols.push(r.below(N as u64));
                vals.push(r.unit() - 0.5);
            }
        }
        CgInput { cols, vals }
    }

    /// Sequential CG on the same matrix; returns `z`.
    fn reference(input: &CgInput) -> Vec<f64> {
        let spmv = |x: &[f64]| -> Vec<f64> {
            (0..N)
                .map(|i| {
                    (i * NNZ..(i + 1) * NNZ)
                        .map(|at| input.vals[at] * x[input.cols[at] as usize])
                        .sum()
                })
                .collect()
        };
        let mut z = vec![0.0f64; N];
        let mut r = vec![1.0f64; N];
        let mut pv = r.clone();
        let mut rho = dot(&r, &r);
        for _ in 0..ITERATIONS {
            let q = spmv(&pv);
            let alpha = rho / dot(&pv, &q);
            for i in 0..N {
                z[i] += alpha * pv[i];
                r[i] -= alpha * q[i];
            }
            let rho_new = dot(&r, &r);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..N {
                pv[i] = r[i] + beta * pv[i];
            }
        }
        z
    }

    fn execute<T: Transport>(
        build: fn(ArgoConfig) -> Arc<ArgoMachine<T>>,
        input: &Arc<CgInput>,
        mode: Mode,
        run: u32,
    ) -> Exec<Vec<f64>> {
        let t0 = crate::harness::Start::now();
        let mut cfg = ArgoConfig::small(2, 1);
        cfg.bytes_per_node = 32 << 20;
        cfg.carina.cache = CacheConfig::new(CACHE_LINES, 1);
        let m = build(cfg);
        let dsm = m.dsm();
        let g = Arc::new(Shared {
            colidx: GlobalU64Array::alloc(dsm, N * NNZ),
            vals: GlobalF64Array::alloc(dsm, N * NNZ),
            pvec: GlobalF64Array::alloc(dsm, N),
            slots: GlobalF64Array::alloc(dsm, 2 * cfg.total_threads() * SLOT_STRIDE),
        });
        let (inp, gi) = (input.clone(), g.clone());
        let (measured, z) = measure(
            &m,
            t0,
            mode,
            run,
            move |ctx| {
                let rows = ctx.my_chunk(N);
                let span = rows.start * NNZ..rows.end * NNZ;
                ctx.write_u64_slice(gi.colidx.addr(span.start), &inp.cols[span.clone()]);
                ctx.write_f64_slice(gi.vals.addr(span.start), &inp.vals[span]);
                Buffers::new(rows.len() * NNZ)
            },
            move |ctx, p, buffers| kernel(ctx, p, &g, buffers),
        );
        let Some(z) = z else {
            return Exec::set_up(measured);
        };
        Exec {
            measured,
            output: Some(z.concat()),
            invariants: m.dsm().check_invariants(),
            extra: Vec::new(),
        }
    }

    /// Matches the sequential reference to rounding: the distributed dot
    /// products add the same terms in another order.
    fn check(expected: &Vec<f64>, output: &Vec<f64>) -> Result<(), String> {
        if expected.len() != output.len() {
            return Err(format!("length {} vs {}", output.len(), expected.len()));
        }
        let scale = expected.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        match expected.iter().zip(output).position(|(e, o)| {
            let d = (e - o).abs();
            d.is_nan() || d > 1e-9 * scale
        }) {
            None => Ok(()),
            Some(i) => Err(format!(
                "z[{i}] = {} vs reference {}",
                output[i], expected[i]
            )),
        }
    }

    /// Both backends reduce the same partial sums in the same order.
    fn agree(sim: &Vec<f64>, native: &Vec<f64>) -> Result<(), String> {
        bit_identical(sim, native)
    }
}

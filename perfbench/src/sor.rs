//! `stencil_sor`: red-black SOR on a shared grid that fits in the page
//! cache, mirroring `workloads::sor`. Each thread owns a block of rows,
//! reads its halo rows as slices and writes back only the cells of the
//! colour it updates, with a barrier after every half-sweep. Rows are not
//! page-aligned, so the pages at chunk boundaries are written by both
//! nodes every half-sweep: the virtual time goes to SD drains, twins and
//! diffs at barriers, the host time to the carina read/write hit path.

use crate::harness::{measure, read_back, Mode};
use crate::rng::Rng;
use crate::trace::{Layer, Probe};
use crate::{Exec, Workload};
use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoCtx, ArgoMachine};
use rma::{Endpoint, Transport};
use std::sync::Arc;

/// Grid side: 386 f64 rows (3088 B) straddle pages, so chunk-boundary
/// pages are multi-writer.
const N: usize = 386;
/// Red+black sweeps per run.
const ITERATIONS: usize = 24;
const OMEGA: f64 = 1.25;
/// Virtual cycles charged per cell and half-sweep (as `workloads::sor`).
const CELL_CYCLES: u64 = 4;

pub struct SorInput {
    n: usize,
    grid: Vec<f64>,
}

pub struct StencilSor;

/// Thread `tid`'s block of interior rows.
fn my_rows(tid: usize, nthreads: usize, n: usize) -> std::ops::Range<usize> {
    let per = (n - 2).div_ceil(nthreads);
    let lo = 1 + tid * per;
    lo..(lo + per).min(n - 1)
}

/// One half-sweep update of row `i` from the rows above, at and below it.
#[inline]
fn relax_row(colour: usize, i: usize, rows: &[Vec<f64>; 3], out: &mut [f64]) {
    let n = out.len();
    out.copy_from_slice(&rows[1]);
    for j in 1..(n - 1) {
        if (i + j) % 2 == colour {
            let nb = rows[0][j] + rows[2][j] + rows[1][j - 1] + rows[1][j + 1];
            out[j] += OMEGA * (nb / 4.0 - rows[1][j]);
        }
    }
}

fn kernel<T: Transport>(ctx: &mut ArgoCtx<T>, p: &mut Probe, grid: GlobalF64Array, n: usize) {
    let mine = my_rows(ctx.tid(), ctx.nthreads(), n);
    let mut rows = [vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]];
    let mut out = vec![0.0f64; n];
    for _ in 0..ITERATIONS {
        for colour in 0..2usize {
            let step = ctx.thread.now();
            for i in mine.clone() {
                for (k, r) in rows.iter_mut().enumerate() {
                    p.call(Layer::Access, ctx, |c| {
                        c.read_f64_slice(grid.addr((i - 1 + k) * n), r)
                    });
                }
                p.call(Layer::Compute, ctx, |c| {
                    relax_row(colour, i, &rows, &mut out);
                    c.thread.compute(n as u64 * CELL_CYCLES);
                });
                // Only this colour's cells: the others are being read by
                // the neighbouring thread this half-sweep.
                for j in (1 + (i + 1 + colour) % 2..n - 1).step_by(2) {
                    let v = out[j];
                    p.call(Layer::Access, ctx, |c| c.write_f64(grid.addr(i * n + j), v));
                }
            }
            p.call(Layer::Barrier, ctx, |c| c.barrier());
            p.ops.push(ctx.thread.now() - step);
        }
    }
}

impl Workload for StencilSor {
    const OP: &'static str = "one half-sweep: the rows, then the barrier";
    const NAME: &'static str = "stencil_sor";
    type Input = SorInput;
    type Expected = Vec<f64>;
    type Output = Vec<f64>;

    fn inputs(seed: u64) -> SorInput {
        let mut r = Rng::new(seed, 1);
        let grid = (0..N * N).map(|_| 100.0 * r.unit()).collect();
        SorInput { n: N, grid }
    }

    fn reference(input: &SorInput) -> Vec<f64> {
        let n = input.n;
        let mut g = input.grid.clone();
        for _ in 0..ITERATIONS {
            for colour in 0..2 {
                for i in 1..(n - 1) {
                    let rows = [
                        g[(i - 1) * n..i * n].to_vec(),
                        g[i * n..(i + 1) * n].to_vec(),
                        g[(i + 1) * n..(i + 2) * n].to_vec(),
                    ];
                    relax_row(colour, i, &rows, &mut g[i * n..(i + 1) * n]);
                }
            }
        }
        g
    }

    fn execute<T: Transport>(
        build: fn(ArgoConfig) -> Arc<ArgoMachine<T>>,
        input: &Arc<SorInput>,
        mode: Mode,
        run: u32,
    ) -> Exec<Vec<f64>> {
        let t0 = crate::harness::Start::now();
        let m = build(ArgoConfig::small(2, 1));
        let n = input.n;
        let grid = GlobalF64Array::alloc(m.dsm(), n * n);
        let inp = input.clone();
        let (measured, done) = measure(
            &m,
            t0,
            mode,
            run,
            move |ctx| {
                let mut init = my_rows(ctx.tid(), ctx.nthreads(), n).collect::<Vec<_>>();
                if ctx.tid() == 0 {
                    init.extend([0, n - 1]);
                }
                for i in init {
                    ctx.write_f64_slice(grid.addr(i * n), &inp.grid[i * n..(i + 1) * n]);
                }
            },
            move |ctx, p, ()| kernel(ctx, p, grid, n),
        );
        if done.is_none() {
            return Exec::set_up(measured);
        }
        let output = read_back(&m, move |ctx| {
            let mut g = vec![0.0f64; n * n];
            ctx.read_f64_slice(grid.addr(0), &mut g);
            g
        });
        Exec {
            measured,
            output: Some(output),
            invariants: m.dsm().check_invariants(),
            extra: Vec::new(),
        }
    }

    fn check(expected: &Vec<f64>, output: &Vec<f64>) -> Result<(), String> {
        bit_identical(expected, output)
    }

    fn agree(sim: &Vec<f64>, native: &Vec<f64>) -> Result<(), String> {
        bit_identical(sim, native)
    }
}

/// Element-wise bit equality of two f64 vectors.
pub fn bit_identical(a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length {} vs {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("element {i}: {} vs {}", a[i], b[i])),
    }
}

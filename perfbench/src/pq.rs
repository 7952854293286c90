//! `pq_hqdl`: the Figure 12 priority queue, mirroring `bench::prioq` and
//! the HQDL loop of `fig12_locks_dsm`. Each op is 48 units of local work
//! followed by either a detached insert or a waited `extract_min` on a
//! pairing heap in DSM memory, all delegated through one HQDL lock. The
//! time goes to HQDL batching, global-lock handover and per-batch fences
//! on the heap's hot home page; there are no barriers and no bulk data.
//!
//! The interleaving of the two nodes' batches depends on host scheduling,
//! so virtual times and most counts vary from run to run; the ops each
//! thread issues do not.

use crate::harness::{measure, read_back, Mode};
use crate::rng::Rng;
use crate::trace::{Layer, Probe};
use crate::{Exec, Workload};
use argo::{ArgoConfig, ArgoCtx, ArgoMachine};
use bench::prioq::{LocalWork, WORK_UNIT_CYCLES};
use rma::{Endpoint, Transport};
use std::sync::Arc;
use vela::{DsmPairingHeap, Hqdl};

const THREADS: usize = 2;
/// Ops per thread, half of them waited extracts: 30k op samples per
/// repetition, 300 of them beyond p99. Shorter repetitions let single
/// interleaving regimes dominate and spread the virtual metrics.
const OPS: usize = 30_000;
const WORK_UNITS: usize = 48;
const PREFILL: usize = 4096;
const CAPACITY: u64 = 1 << 18;
/// Sections one HQDL tenure may run (as in Figure 12).
const BATCH_LIMIT: usize = 1024;

pub struct PqInput {
    prefill: Vec<u64>,
    /// Per thread: `Some(key)` inserts, `None` extracts the minimum.
    ops: Vec<Vec<Option<u64>>>,
    /// Per thread: seed of the local-work array updates.
    work_seeds: Vec<u64>,
}

/// Keys and counts that went into and out of the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flow {
    pub count: u64,
    /// Wrapping sum of the keys.
    pub sum: u64,
}

impl Flow {
    fn add(&mut self, key: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key);
    }
}

/// The heap's contents after the run, against what the ops imply.
pub struct PqOutput {
    /// Prefill plus inserts minus extracts.
    expected: Flow,
    /// What draining the heap produced.
    drained: Flow,
    /// The heap's own length word before draining.
    len_word: u64,
    /// Whether the drain came out in ascending order.
    sorted: bool,
}

pub struct PqHqdl;

fn kernel<T: Transport>(
    ctx: &mut ArgoCtx<T>,
    p: &mut Probe,
    lock: &Arc<Hqdl<T>>,
    heap: DsmPairingHeap,
    input: &PqInput,
) -> (Flow, Flow) {
    let tid = ctx.tid();
    let mut work = LocalWork::new(input.work_seeds[tid]);
    let (mut inserted, mut extracted) = (Flow::default(), Flow::default());
    for &op in &input.ops[tid] {
        p.call(Layer::Compute, ctx, |c| {
            std::hint::black_box(work.run(WORK_UNITS));
            c.thread.compute(WORK_UNITS as u64 * WORK_UNIT_CYCLES);
        });
        let dsm = ctx.dsm().clone();
        match op {
            Some(key) => {
                inserted.add(key);
                p.call(Layer::Delegate, ctx, |c| {
                    let _ = lock.delegate(&mut c.thread, move |ht| heap.insert(&dsm, ht, key));
                });
            }
            None => {
                let c0 = ctx.thread.now();
                let got = p.call(Layer::Wait, ctx, |c| {
                    lock.delegate_wait(&mut c.thread, move |ht| heap.extract_min(&dsm, ht))
                });
                p.ops.push(ctx.thread.now() - c0);
                if let Some(key) = got {
                    extracted.add(key);
                }
            }
        }
    }
    // Flush this node's detached inserts.
    p.call(Layer::Wait, ctx, |c| {
        lock.delegate_wait(&mut c.thread, |_| {})
    });
    (inserted, extracted)
}

impl Workload for PqHqdl {
    const OP: &'static str = "one delegate_wait(extract_min)";
    const NAME: &'static str = "pq_hqdl";
    type Input = PqInput;
    type Expected = ();
    type Output = PqOutput;

    fn inputs(seed: u64) -> PqInput {
        let mut r = Rng::new(seed, 3);
        let prefill = (0..PREFILL).map(|_| r.next_u64()).collect();
        // Exactly half inserts per thread, in seeded order: a seed changes
        // which op comes when and which keys, not how many of each.
        let ops = (0..THREADS)
            .map(|_| {
                let mut ops: Vec<Option<u64>> = (0..OPS)
                    .map(|i| (i % 2 == 0).then(|| r.next_u64()))
                    .collect();
                for i in (1..OPS).rev() {
                    ops.swap(i, r.below(i as u64 + 1) as usize);
                }
                ops
            })
            .collect();
        let work_seeds = (0..THREADS).map(|_| r.next_u64()).collect();
        PqInput {
            prefill,
            ops,
            work_seeds,
        }
    }

    /// Conservation is checked against each run's own ops (see
    /// [`Self::check`]); there is no sequential result to compare.
    fn reference(_input: &PqInput) {}

    fn execute<T: Transport>(
        build: fn(ArgoConfig) -> Arc<ArgoMachine<T>>,
        input: &Arc<PqInput>,
        mode: Mode,
        run: u32,
    ) -> Exec<PqOutput> {
        let t0 = crate::harness::Start::now();
        let mut cfg = ArgoConfig::small(THREADS, 1);
        cfg.bytes_per_node = 20 << 20;
        let m = build(cfg);
        let dsm = m.dsm().clone();
        let base = dsm
            .allocator()
            .alloc(DsmPairingHeap::bytes_needed(CAPACITY), 8)
            .expect("global memory for the heap");
        let heap = DsmPairingHeap::attach(base);
        let lock = Hqdl::<T>::new(dsm.clone(), BATCH_LIMIT);
        let (inp, lk) = (input.clone(), lock.clone());
        let init_input = input.clone();
        let (measured, flows) = measure(
            &m,
            t0,
            mode,
            run,
            move |ctx| {
                if ctx.tid() == 0 {
                    let dsm = ctx.dsm().clone();
                    DsmPairingHeap::init(&dsm, &mut ctx.thread, base, CAPACITY);
                    for &k in &init_input.prefill {
                        heap.insert(&dsm, &mut ctx.thread, k);
                    }
                }
            },
            move |ctx, p, ()| kernel(ctx, p, &lk, heap, &inp),
        );
        let Some(flows) = flows else {
            return Exec::set_up(measured);
        };
        let mut expected = Flow::default();
        for &k in &input.prefill {
            expected.add(k);
        }
        for (ins, ext) in &flows {
            expected.count = expected.count + ins.count - ext.count;
            expected.sum = expected.sum.wrapping_add(ins.sum).wrapping_sub(ext.sum);
        }
        let (len_word, drained, sorted) = read_back(&m, move |ctx| {
            let dsm = ctx.dsm().clone();
            let len_word = heap.len(&dsm, &mut ctx.thread);
            let (mut drained, mut sorted, mut last) = (Flow::default(), true, 0);
            while let Some(k) = heap.extract_min(&dsm, &mut ctx.thread) {
                sorted &= k >= last;
                last = k;
                drained.add(k);
            }
            (len_word, drained, sorted)
        });
        let st = lock.stats();
        Exec {
            measured,
            output: Some(PqOutput {
                expected,
                drained,
                len_word,
                sorted,
            }),
            invariants: m.dsm().check_invariants(),
            extra: vec![
                ("vela.hqdl.acquire_cycles", st.acquire_cycles as f64),
                ("vela.hqdl.fence_cycles", st.fence_cycles as f64),
                ("vela.hqdl.section_cycles", st.section_cycles as f64),
            ],
        }
    }

    /// Count and key sum are conserved, the heap's length word agrees, and
    /// the drain is ordered.
    fn check(_: &(), out: &PqOutput) -> Result<(), String> {
        if out.drained != out.expected {
            return Err(format!(
                "drained {:?}, expected {:?} (prefill + inserted - extracted)",
                out.drained, out.expected
            ));
        }
        if out.len_word != out.drained.count {
            return Err(format!(
                "length word {} vs {} drained",
                out.len_word, out.drained.count
            ));
        }
        if !out.sorted {
            return Err("drain not in ascending order".into());
        }
        Ok(())
    }

    /// The two backends interleave the nodes' batches differently, so the
    /// extracted keys differ; each is checked on its own.
    fn agree(_sim: &PqOutput, _native: &PqOutput) -> Result<(), String> {
        Ok(())
    }
}

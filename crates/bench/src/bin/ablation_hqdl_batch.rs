//! Ablation: HQDL batch size.
//!
//! HQDL's benefit comes from executing *many* critical sections per
//! global-lock tenure (one SD at queue close, amortized, plus one SI at
//! queue open when the lock arrived from another node). With
//! `batch_limit = 1` every section pays its own global-lock round trip and
//! SD, and more tenures mean more handovers, each with its SI — the cost
//! structure of non-hierarchical (remote) delegation, which the paper
//! argues "does not save us any self-invalidations and self-downgrades"
//! (§4.2).

use argo::{ArgoConfig, ArgoMachine};
use bench::prioq::{LocalWork, WORK_UNIT_CYCLES};
use bench::{cell, f2, full_scale, print_header, print_row};
use vela::{DsmPairingHeap, Hqdl};

fn run(nodes: usize, tpn: usize, batch: usize, ops: usize) -> f64 {
    let mut cfg = ArgoConfig::small(nodes, tpn);
    cfg.bytes_per_node = 16 << 20;
    let m = ArgoMachine::new(cfg);
    let dsm = m.dsm().clone();
    let base = dsm
        .allocator()
        .alloc(DsmPairingHeap::bytes_needed(1 << 16), 8)
        .expect("global memory");
    let lock = Hqdl::new(dsm.clone(), batch);
    let d0 = dsm.clone();
    let report = m.run(move |ctx| {
        if ctx.tid() == 0 {
            let h = DsmPairingHeap::init(&d0, &mut ctx.thread, base, 1 << 16);
            for k in 0..512 {
                h.insert(&d0, &mut ctx.thread, k * 7);
            }
        }
        ctx.start_measurement();
        let mut w = LocalWork::new(ctx.tid() as u64 + 1);
        let heap = DsmPairingHeap::attach(base);
        for _ in 0..ops {
            w.run(48);
            ctx.thread.compute(48 * WORK_UNIT_CYCLES);
            let dsm = d0.clone();
            if w.coin() {
                let k = w.key();
                let _ = lock.delegate(&mut ctx.thread, move |ht| heap.insert(&dsm, ht, k));
            } else {
                lock.delegate_wait(&mut ctx.thread, move |ht| {
                    heap.extract_min(&dsm, ht);
                });
            }
        }
        lock.delegate_wait(&mut ctx.thread, |_| {});
        0.0
    });
    let total_ops = (ops * nodes * tpn) as f64;
    total_ops / (report.cycles as f64 / m.config().cost.cpu_ghz / 1e3)
}

fn main() {
    let full = full_scale();
    let (nodes, tpn, ops) = if full { (8, 15, 300) } else { (4, 4, 120) };
    print_header(
        &format!("Ablation: HQDL batch limit ({nodes} nodes x {tpn} threads, ops/us)"),
        &["batch", "ops/us"],
    );
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        let t = run(nodes, tpn, batch, ops);
        print_row(&[cell(batch), f2(t)]);
    }
    println!("\nExpectation: throughput rises with batch size — batch 1 pays a global");
    println!("lock round trip + SD per section, and an SI per handover.");
}

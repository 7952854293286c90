//! Ablation: what if the cohort baseline also got hierarchical fence
//! placement?
//!
//! HQDL's edge over the cohort lock in Figure 12 has two components:
//! (1) hierarchical fencing — one SD per node tenure and one SI per
//! arrival of the global lock from another node, instead of both per
//! critical section, and (2) delegation — no per-section lock hand-offs
//! and the protected data stays hot in one executing context. This
//! ablation isolates (1) by running the cohort lock with per-section
//! fences (vanilla Argo lock semantics, the paper's baseline) and with
//! hierarchical fences.

use argo::{ArgoConfig, ArgoMachine};
use bench::prioq::{LocalWork, WORK_UNIT_CYCLES};
use bench::{cell, f2, full_scale, print_header, print_row};
use vela::{DsmCohortLock, DsmPairingHeap, FencePlacement, Hqdl};

const HEAP_CAPACITY: u64 = 1 << 16;

fn run_cohort(nodes: usize, tpn: usize, ops: usize, fencing: FencePlacement) -> f64 {
    let mut cfg = ArgoConfig::small(nodes, tpn);
    cfg.bytes_per_node = 16 << 20;
    let m = ArgoMachine::new(cfg);
    let dsm = m.dsm().clone();
    let base = dsm
        .allocator()
        .alloc(DsmPairingHeap::bytes_needed(HEAP_CAPACITY), 8)
        .expect("global memory");
    let lock = DsmCohortLock::with_fencing(dsm.clone(), 48, fencing);
    let d0 = dsm.clone();
    let report = m.run(move |ctx| {
        if ctx.tid() == 0 {
            let h = DsmPairingHeap::init(&d0, &mut ctx.thread, base, HEAP_CAPACITY);
            for k in 0..1024 {
                h.insert(&d0, &mut ctx.thread, k * 11);
            }
        }
        ctx.start_measurement();
        let mut w = LocalWork::new(ctx.tid() as u64 + 1);
        let heap = DsmPairingHeap::attach(base);
        for _ in 0..ops {
            w.run(48);
            ctx.thread.compute(48 * WORK_UNIT_CYCLES);
            if w.coin() {
                let k = w.key();
                lock.with(&mut ctx.thread, |ht| heap.insert(&d0, ht, k));
            } else {
                lock.with(&mut ctx.thread, |ht| {
                    heap.extract_min(&d0, ht);
                });
            }
        }
        0.0
    });
    (ops * nodes * tpn) as f64 / (report.cycles as f64 / m.config().cost.cpu_ghz / 1e3)
}

fn run_hqdl(nodes: usize, tpn: usize, ops: usize) -> f64 {
    let mut cfg = ArgoConfig::small(nodes, tpn);
    cfg.bytes_per_node = 16 << 20;
    let m = ArgoMachine::new(cfg);
    let dsm = m.dsm().clone();
    let base = dsm
        .allocator()
        .alloc(DsmPairingHeap::bytes_needed(HEAP_CAPACITY), 8)
        .expect("global memory");
    let lock = Hqdl::new(dsm.clone(), 1024);
    let d0 = dsm.clone();
    let report = m.run(move |ctx| {
        if ctx.tid() == 0 {
            let h = DsmPairingHeap::init(&d0, &mut ctx.thread, base, HEAP_CAPACITY);
            for k in 0..1024 {
                h.insert(&d0, &mut ctx.thread, k * 11);
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
    (ops * nodes * tpn) as f64 / (report.cycles as f64 / m.config().cost.cpu_ghz / 1e3)
}

fn main() {
    let full = full_scale();
    let (tpn, ops) = if full { (15, 300) } else { (4, 120) };
    let nodes_list: &[usize] = if full { &[1, 2, 4, 8, 16] } else { &[1, 2, 4] };
    print_header(
        "Ablation: fence placement in the cohort lock (ops/us)",
        &["nodes", "cohort/sect", "cohort/hier", "HQDL"],
    );
    for &n in nodes_list {
        let per_section = run_cohort(n, tpn, ops, FencePlacement::PerSection);
        let hier = run_cohort(n, tpn, ops, FencePlacement::Hierarchical);
        let hqdl = run_hqdl(n, tpn, ops);
        print_row(&[cell(n), f2(per_section), f2(hier), f2(hqdl)]);
    }
    println!("\nExpectation: hierarchical fencing recovers part of HQDL's edge; the");
    println!("rest comes from delegation itself (no per-section hand-offs, data hot");
    println!("on the helper). Paper Figure 12 corresponds to the per-section column.");
}

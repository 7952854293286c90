//! Cross-policy equivalence: the coherence policy decides *when* cached
//! copies die and *what* the directory remembers — never what a
//! data-race-free program computes.
//!
//! Each program here runs on identically configured machines once per
//! policy — the Carina SI/SD classification protocol, the Tardis
//! timestamp-lease protocol, and the Pyxis hybrid — and the results must
//! be bit-identical. The policies' *mechanisms* are allowed (expected!)
//! to differ, and the tests also pin that: Tardis runs grant leases and
//! never reflect classification transitions; Carina runs do the opposite;
//! Pyxis maintains the classification ledger in both modes (and may tick
//! either family's counters on top).

use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, CoherenceSnapshot, Pyxis, Tardis};
use mem::{GlobalAddr, PAGE_BYTES};
use rma::SimTransport;
use std::sync::Arc;
use vela::Hqdl;
use workloads::{matmul, sor};

fn machine<C: Coherence>(nodes: usize, tpn: usize) -> Arc<ArgoMachine<SimTransport, C>> {
    ArgoMachine::with_policy(ArgoConfig::small(nodes, tpn))
}

/// Tardis's ledger: leases moved, classification didn't.
fn assert_tardis_shaped(c: &CoherenceSnapshot) {
    assert!(
        c.lease_renewals + c.lease_expiries + c.lease_kept > 0,
        "a tardis run with fences must touch the lease counters"
    );
    assert_eq!(c.p_to_s + c.nw_to_sw + c.sw_to_mw, 0, "tardis tracks no classes");
}

/// Carina's ledger: classification moved, leases didn't.
fn assert_carina_shaped(c: &CoherenceSnapshot) {
    assert_eq!(
        c.lease_renewals + c.lease_expiries + c.lease_kept,
        0,
        "si/sd grants no leases"
    );
    assert_eq!(c.mode_lease_checks + c.mode_classify_checks, 0, "pure policies tick no mode counters");
}

/// Pyxis's ledger: every fence examination is attributed to exactly one
/// mode (either family's protocol counters may tick on top), and the
/// reconcile counter only moves when a switch actually happened.
fn assert_pyxis_shaped(c: &CoherenceSnapshot) {
    assert!(
        c.mode_lease_checks + c.mode_classify_checks > 0,
        "a pyxis run with fences must attribute examinations to a mode"
    );
    if c.mode_to_lease + c.mode_to_sisd == 0 {
        assert_eq!(c.mode_reconciles, 0, "reconciles require a switch");
    }
}

#[test]
fn matmul_checksum_is_policy_independent() {
    let p = matmul::MatmulParams { n: 64 };
    let sisd = matmul::run_argo(&machine::<CarinaSiSd>(2, 2), p);
    let tardis = matmul::run_argo(&machine::<Tardis>(2, 2), p);
    let pyxis = matmul::run_argo(&machine::<Pyxis>(2, 2), p);
    assert_eq!(
        sisd.checksum.to_bits(),
        tardis.checksum.to_bits(),
        "matmul diverged across policies: sisd {} tardis {}",
        sisd.checksum,
        tardis.checksum
    );
    assert_eq!(
        sisd.checksum.to_bits(),
        pyxis.checksum.to_bits(),
        "matmul diverged across policies: sisd {} pyxis {}",
        sisd.checksum,
        pyxis.checksum
    );
    assert_carina_shaped(&sisd.coherence);
    assert_tardis_shaped(&tardis.coherence);
    assert_pyxis_shaped(&pyxis.coherence);
}

#[test]
fn sor_checksum_is_policy_independent() {
    let p = sor::SorParams { n: 48, iterations: 4, omega: 1.25 };
    let sisd = sor::run_argo(&machine::<CarinaSiSd>(3, 1), p);
    let tardis = sor::run_argo(&machine::<Tardis>(3, 1), p);
    let pyxis = sor::run_argo(&machine::<Pyxis>(3, 1), p);
    assert_eq!(
        sisd.checksum.to_bits(),
        tardis.checksum.to_bits(),
        "sor diverged across policies: sisd {} tardis {}",
        sisd.checksum,
        tardis.checksum
    );
    assert_eq!(
        sisd.checksum.to_bits(),
        pyxis.checksum.to_bits(),
        "sor diverged across policies: sisd {} pyxis {}",
        sisd.checksum,
        pyxis.checksum
    );
    assert_carina_shaped(&sisd.coherence);
    assert_tardis_shaped(&tardis.coherence);
    assert_pyxis_shaped(&pyxis.coherence);
}

/// Word-for-word final memory identity, not just a checksum: every thread
/// writes its chunk, barriers, reads a neighbour's chunk, and the peeked
/// home memory must agree bit for bit across policies.
#[test]
fn final_memory_words_are_policy_independent() {
    fn run<C: Coherence>(n: usize) -> (Vec<u64>, Vec<f64>) {
        let m = machine::<C>(3, 2);
        let arr = GlobalF64Array::alloc(m.dsm(), n);
        let report = m.run(move |ctx| {
            for i in ctx.my_chunk(n) {
                arr.set(ctx, i, (i as f64).sqrt());
            }
            ctx.barrier();
            let total = ctx.nthreads();
            let next = (ctx.tid() + 1) % total;
            let per = n.div_ceil(total);
            let lo = (next * per).min(n);
            let hi = ((next + 1) * per).min(n);
            let mut sum = 0.0;
            for i in lo..hi {
                sum += arr.get(ctx, i);
            }
            sum
        });
        let words = (0..n).map(|i| m.dsm().peek_u64(arr.addr(i))).collect();
        (words, report.results)
    }
    let (mem_sisd, sums_sisd) = run::<CarinaSiSd>(4096);
    let (mem_tardis, sums_tardis) = run::<Tardis>(4096);
    let (mem_pyxis, sums_pyxis) = run::<Pyxis>(4096);
    assert_eq!(mem_sisd, mem_tardis, "final memory diverged across policies");
    assert_eq!(sums_sisd, sums_tardis, "observed values diverged across policies");
    assert_eq!(mem_sisd, mem_pyxis, "final memory diverged under pyxis");
    assert_eq!(sums_sisd, sums_pyxis, "observed values diverged under pyxis");
}

/// Delegated critical sections under every policy: HQDL skips its SI when
/// the global lock stays on a node, so each policy's acquire side must
/// still show every section the writes of all earlier ones. Each section
/// reads one word on each of three pages, checks they agree, and
/// increments all three.
#[test]
fn hqdl_sections_are_policy_independent() {
    const SECTIONS: u64 = 200;
    fn run<C: Coherence>() -> (Vec<u64>, CoherenceSnapshot) {
        let m = machine::<C>(3, 2);
        let dsm = m.dsm().clone();
        let base = dsm.allocator().alloc_pages(3).expect("mem");
        let words: Vec<GlobalAddr> = (0..3).map(|p| base.offset(p * PAGE_BYTES)).collect();
        let lock = Hqdl::new(dsm.clone(), 64);
        let w = words.clone();
        let report = m.run(move |ctx| {
            for _ in 0..SECTIONS {
                let (d, w) = (dsm.clone(), w.clone());
                lock.delegate_wait(&mut ctx.thread, move |ht| {
                    let v: Vec<u64> = w.iter().map(|&a| d.read_u64(ht, a)).collect();
                    assert!(v.iter().all(|&x| x == v[0]), "pages disagree: {v:?}");
                    for &a in &w {
                        d.write_u64(ht, a, v[0] + 1);
                    }
                });
            }
        });
        let finals = words.iter().map(|&a| m.dsm().peek_u64(a)).collect();
        (finals, report.coherence)
    }
    let (sisd, c_sisd) = run::<CarinaSiSd>();
    let (tardis, c_tardis) = run::<Tardis>();
    let (pyxis, c_pyxis) = run::<Pyxis>();
    assert_eq!(sisd, vec![6 * SECTIONS; 3], "sisd lost an increment");
    assert_eq!(sisd, tardis, "hqdl diverged across policies");
    assert_eq!(sisd, pyxis, "hqdl diverged under pyxis");
    assert_carina_shaped(&c_sisd);
    assert_tardis_shaped(&c_tardis);
    assert_pyxis_shaped(&c_pyxis);
}

/// The report carries the policy name end to end.
#[test]
fn run_report_names_the_policy() {
    let m = machine::<Tardis>(2, 1);
    let report = m.run(|ctx| ctx.tid());
    assert_eq!(report.policy, "tardis");
    assert!(report.to_json().contains("\"policy\":\"tardis\""));
    let m = machine::<CarinaSiSd>(2, 1);
    let report = m.run(|ctx| ctx.tid());
    assert_eq!(report.policy, "sisd");
    assert!(report.summary().contains("policy sisd"));
    let m = machine::<Pyxis>(2, 1);
    let report = m.run(|ctx| ctx.tid());
    assert_eq!(report.policy, "pyxis");
    assert!(report.to_json().contains("\"policy\":\"pyxis\""));
}

//! Per-layer metrics: the table of every metric the traced run reports,
//! what each one should move, and how it is read off a measured region.
//!
//! Each entry names the end-to-end metric and workload a change to that
//! layer should move. Those are the predictions a later change that
//! claims a gain must check against the trace.

use crate::harness::Measured;
use crate::trace::Layer;
use obs::Site;
use std::collections::BTreeMap;

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric(s) and workload(s) this layer should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const ALL_SIM: &str = "sim_cpu_s, all workloads";
const SOR_SD: &str = "makespan_cycles on stencil_sor";
const CG_MISS: &str = "makespan_cycles on sparse_cg";
const SI: &str = "makespan_cycles on sparse_cg and pq_hqdl";
const HQDL: &str = "op_p50_cycles, op_p99_cycles, makespan_cycles on pq_hqdl; 0 elsewhere";

pub const METRICS: &[LayerMetric] = &[
    m(
        "argo.setup.host_ns",
        "ns",
        "lower",
        "setup_s, all workloads",
    ),
    m("argo.region.overhead_ns", "ns", "lower", ALL_SIM),
    m(
        "carina.access.calls",
        "count",
        "lower",
        "sim_cpu_s, native_cpu_s on stencil_sor",
    ),
    m(
        "carina.access.host_ns",
        "ns",
        "lower",
        "sim_cpu_s, native_cpu_s on stencil_sor",
    ),
    m("carina.access.cycles", "cycles", "lower", CG_MISS),
    m("carina.read_hits", "count", "higher", CG_MISS),
    m("carina.write_hits", "count", "higher", CG_MISS),
    m("carina.read_misses", "count", "lower", CG_MISS),
    m("carina.write_faults", "count", "lower", CG_MISS),
    m("carina.hit_ratio", "ratio", "higher", CG_MISS),
    m("carina.read_miss.cycles_sum", "cycles", "lower", CG_MISS),
    m("carina.read_miss.p50", "cycles", "lower", CG_MISS),
    m("carina.read_miss.p99", "cycles", "lower", CG_MISS),
    m("carina.sd_fence.cycles_sum", "cycles", "lower", SOR_SD),
    m("carina.sd_fence.p99", "cycles", "lower", SOR_SD),
    m("carina.write_fault.cycles_sum", "cycles", "lower", SOR_SD),
    m("carina.writeback_bytes", "bytes", "lower", SOR_SD),
    m("carina.diff_words", "count", "lower", SOR_SD),
    m("carina.twins_created", "count", "lower", SOR_SD),
    m("carina.downgrade_batches", "count", "lower", SOR_SD),
    m("carina.si_fence.cycles_sum", "cycles", "lower", SI),
    m("carina.si_invalidated", "count", "lower", SI),
    m("carina.si_keep_ratio", "ratio", "higher", SI),
    m(
        "mem.evictions",
        "count",
        "lower",
        "sim_cpu_s, makespan_cycles on sparse_cg; ~0 on stencil_sor",
    ),
    m("rma.reads", "count", "lower", SI),
    m("rma.writes", "count", "lower", SI),
    m("rma.atomics", "count", "lower", SI),
    m("rma.bytes", "bytes", "lower", SI),
    m("rma.issue_to_poll.cycles_sum", "cycles", "lower", SI),
    m(
        "rma.retries",
        "count",
        "lower",
        "must be 0: no fault plan is active",
    ),
    m(
        "rma.exhaustions",
        "count",
        "lower",
        "must be 0: no fault plan is active",
    ),
    m(
        "simnet.ops_in_max_share",
        "ratio",
        "lower",
        "makespan_cycles, op_p99_cycles on pq_hqdl",
    ),
    m(
        "vela.barrier.calls",
        "count",
        "lower",
        "makespan_cycles on stencil_sor and sparse_cg",
    ),
    m(
        "vela.barrier.host_ns",
        "ns",
        "lower",
        "sim_cpu_s on stencil_sor and sparse_cg",
    ),
    m(
        "vela.barrier.cycles",
        "cycles",
        "lower",
        "makespan_cycles on stencil_sor and sparse_cg",
    ),
    m(
        "vela.barrier_wait.p99",
        "cycles",
        "lower",
        "makespan_cycles on stencil_sor and sparse_cg; 0 on pq_hqdl",
    ),
    m("vela.hqdl.delegate.calls", "count", "lower", HQDL),
    m("vela.hqdl.delegate.host_ns", "ns", "lower", HQDL),
    m("vela.hqdl.delegate.cycles", "cycles", "lower", HQDL),
    m("vela.hqdl.wait.calls", "count", "lower", HQDL),
    m("vela.hqdl.wait.host_ns", "ns", "lower", HQDL),
    m("vela.hqdl.wait.cycles", "cycles", "lower", HQDL),
    m("vela.hqdl.batches", "count", "lower", HQDL),
    m("vela.hqdl.mean_batch", "count", "higher", HQDL),
    m("vela.hqdl.handovers", "count", "lower", HQDL),
    m("vela.hqdl.remote_frac", "ratio", "lower", HQDL),
    m("vela.hqdl.queue_wait_p99", "cycles", "lower", HQDL),
    m("vela.hqdl.acquire_cycles", "cycles", "lower", HQDL),
    m("vela.hqdl.fence_cycles", "cycles", "lower", HQDL),
    m("vela.hqdl.section_cycles", "cycles", "lower", HQDL),
    m(
        "workloads.compute.cycles",
        "cycles",
        "lower",
        "control: no DSM change should move it",
    ),
    m(
        "workloads.compute.host_ns",
        "ns",
        "lower",
        "control: no DSM change should move it",
    ),
    m("obs.recorder.submitted", "count", "lower", ALL_SIM),
    m("obs.recorder.dropped", "count", "lower", ALL_SIM),
    m(
        "ledger.unattributed_cycles",
        "cycles",
        "lower",
        "must be 0: every measured cycle lies in a top-level span",
    ),
    m(
        "trace.overhead",
        "ratio",
        "lower",
        "traced sim_cpu_s / untraced sim_cpu_s",
    ),
];

/// The counts that repeat exactly between runs of one seed, per workload,
/// and are asserted to. A count claim may rest only on these. Virtual
/// times (the makespan, span cycles, fence and miss latencies) are not
/// among them: host scheduling shifts link-contention windows by a few
/// hundredths of a percent, even without locks.
pub fn exact_counts(workload: &str) -> &'static [&'static str] {
    const BARRIER_KERNELS: &[&str] = &[
        "carina.access.calls",
        "carina.read_hits",
        "carina.write_hits",
        "carina.read_misses",
        "carina.write_faults",
        "carina.writeback_bytes",
        "carina.diff_words",
        "carina.twins_created",
        "carina.downgrade_batches",
        "carina.si_invalidated",
        "mem.evictions",
        "rma.reads",
        "rma.writes",
        "rma.atomics",
        "rma.bytes",
        "vela.barrier.calls",
        "workloads.compute.cycles",
    ];
    match workload {
        "pq_hqdl" => &[
            "vela.hqdl.delegate.calls",
            "vela.hqdl.wait.calls",
            "workloads.compute.cycles",
        ],
        _ => BARRIER_KERNELS,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Read every per-layer metric of one region off its counters and, when
/// the region was traced, its spans. `extra` carries counters only the
/// workload can see (the HQDL lock's own statistics).
pub fn collect(
    m: &Measured,
    extra: &[(&'static str, f64)],
    traced: bool,
) -> BTreeMap<&'static str, f64> {
    let c = &m.coherence;
    let prof = &m.profile;
    let site = |s: Site| prof.get(s);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, x: f64| {
        v.insert(k, x);
    };
    put("argo.setup.host_ns", m.setup_ns as f64);
    put("argo.region.overhead_ns", m.overhead_ns as f64);
    put("carina.read_hits", c.read_hits as f64);
    put("carina.write_hits", c.write_hits as f64);
    put("carina.read_misses", c.read_misses as f64);
    put("carina.write_faults", c.write_faults as f64);
    let hits = c.read_hits + c.write_hits;
    put(
        "carina.hit_ratio",
        ratio(hits, hits + c.read_misses + c.write_faults),
    );
    put(
        "carina.read_miss.cycles_sum",
        site(Site::ReadMiss).sum as f64,
    );
    put(
        "carina.read_miss.p50",
        site(Site::ReadMiss).percentile(50.0) as f64,
    );
    put(
        "carina.read_miss.p99",
        site(Site::ReadMiss).percentile(99.0) as f64,
    );
    put("carina.sd_fence.cycles_sum", site(Site::SdFence).sum as f64);
    put(
        "carina.sd_fence.p99",
        site(Site::SdFence).percentile(99.0) as f64,
    );
    put(
        "carina.write_fault.cycles_sum",
        site(Site::WriteFault).sum as f64,
    );
    put("carina.writeback_bytes", c.writeback_bytes as f64);
    put("carina.diff_words", c.diff_words as f64);
    put("carina.twins_created", c.twins_created as f64);
    put("carina.downgrade_batches", c.downgrade_batches as f64);
    put("carina.si_fence.cycles_sum", site(Site::SiFence).sum as f64);
    put("carina.si_invalidated", c.si_invalidated as f64);
    put("carina.si_keep_ratio", c.si_keep_ratio());
    put("mem.evictions", c.evictions as f64);
    put("rma.reads", m.net.rdma_reads as f64);
    put("rma.writes", m.net.rdma_writes as f64);
    put("rma.atomics", m.net.rdma_atomics as f64);
    put("rma.bytes", (m.net.bytes_read + m.net.bytes_written) as f64);
    put(
        "rma.issue_to_poll.cycles_sum",
        site(Site::IssueToPoll).sum as f64,
    );
    put("rma.retries", c.verb_retries as f64);
    put("rma.exhaustions", c.verb_exhaustions as f64);
    let max_in = m.ops_in.iter().copied().max().unwrap_or(0);
    put(
        "simnet.ops_in_max_share",
        ratio(max_in, m.ops_in.iter().sum()),
    );
    put(
        "vela.barrier_wait.p99",
        site(Site::BarrierWait).percentile(99.0) as f64,
    );
    let lock = m.locks.first();
    put("vela.hqdl.batches", lock.map_or(0, |l| l.batches) as f64);
    put("vela.hqdl.mean_batch", lock.map_or(0.0, |l| l.mean_batch()));
    put(
        "vela.hqdl.handovers",
        lock.map_or(0, |l| l.handovers) as f64,
    );
    put(
        "vela.hqdl.remote_frac",
        lock.map_or(0.0, |l| l.remote_fraction()),
    );
    put(
        "vela.hqdl.queue_wait_p99",
        lock.map_or(0, |l| l.queue_wait.percentile(99.0)) as f64,
    );
    for name in [
        "vela.hqdl.acquire_cycles",
        "vela.hqdl.fence_cycles",
        "vela.hqdl.section_cycles",
    ] {
        put(name, 0.0);
    }
    for &(k, x) in extra {
        put(k, x);
    }
    put("obs.recorder.submitted", m.recorder.submitted as f64);
    put("obs.recorder.dropped", m.recorder.dropped as f64);
    if traced {
        let agg = |l: Layer| {
            m.threads.iter().fold((0u64, 0u64, 0u64), |(n, h, cy), t| {
                let a = t.probe.aggs[l as usize];
                (n + a.calls, h + a.host_ns, cy + a.cycles)
            })
        };
        let layers: [(Layer, [&'static str; 3]); 5] = [
            (
                Layer::Access,
                [
                    "carina.access.calls",
                    "carina.access.host_ns",
                    "carina.access.cycles",
                ],
            ),
            (
                Layer::Barrier,
                [
                    "vela.barrier.calls",
                    "vela.barrier.host_ns",
                    "vela.barrier.cycles",
                ],
            ),
            (
                Layer::Delegate,
                [
                    "vela.hqdl.delegate.calls",
                    "vela.hqdl.delegate.host_ns",
                    "vela.hqdl.delegate.cycles",
                ],
            ),
            (
                Layer::Wait,
                [
                    "vela.hqdl.wait.calls",
                    "vela.hqdl.wait.host_ns",
                    "vela.hqdl.wait.cycles",
                ],
            ),
            (
                Layer::Compute,
                ["", "workloads.compute.host_ns", "workloads.compute.cycles"],
            ),
        ];
        for (layer, [calls, host, cycles]) in layers {
            let (n, h, cy) = agg(layer);
            if !calls.is_empty() {
                put(calls, n as f64);
            }
            put(host, h as f64);
            put(cycles, cy as f64);
        }
        put("ledger.unattributed_cycles", unattributed(m) as f64);
    }
    v
}

/// Measured cycles no top-level span accounts for, summed over threads.
pub fn unattributed(m: &Measured) -> u64 {
    m.threads
        .iter()
        .map(|t| t.cycles.abs_diff(t.probe.attributed_cycles()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The object of `BENCHMARK.json` that names `name`.
    fn entry<'a>(json: &'a str, name: &str) -> Option<&'a str> {
        let at = json.find(&format!("\"name\": \"{name}\""))?;
        let end = at + json[at..].find('}')?;
        Some(&json[at..end])
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer")..];
        assert_eq!(per_layer.matches("\"better\"").count(), METRICS.len());
        for lm in METRICS {
            let e = entry(per_layer, lm.name).unwrap_or_else(|| panic!("{} missing", lm.name));
            assert!(e.contains(&format!("\"unit\": \"{}\"", lm.unit)), "{e}");
            assert!(e.contains(&format!("\"better\": \"{}\"", lm.better)), "{e}");
        }
        for (name, unit) in crate::END_TO_END {
            let e = entry(&json, name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(e.contains(&format!("\"unit\": \"{unit}\"")), "{e}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }
}

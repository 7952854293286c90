//! One measured region on one backend, shared by every kernel.
//!
//! [`measure`] runs a kernel's initialisation writes, then
//! `start_measurement`, then (unless the [`Mode`] is [`Mode::Setup`]) the
//! measured kernel, and returns what both the end-to-end and the per-layer
//! metrics are computed from: set-up and measured host time (wall and
//! CPU), the virtual makespan, each thread's [`Probe`], and the counters
//! the program exports.

use crate::trace::{cpu_ns, host_ns, CpuClock, Probe};
use argo::{ArgoCtx, ArgoMachine};
use carina::CoherenceSnapshot;
use rma::{Endpoint, Transport};
use simnet::stats::NetStatsSnapshot;
use std::sync::{Arc, Barrier};

/// How far a region runs, and whether its kernel is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only: stop once `start_measurement` has returned.
    Setup,
    /// The measured kernel, untraced.
    Plain,
    /// The measured kernel with a span around every call into a layer.
    Traced,
}

/// Host clocks read before a machine is built, where set-up starts.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    /// Host ns since the process epoch.
    pub wall_ns: u64,
    /// CPU ns of the whole process.
    pub cpu_ns: u64,
}

impl Start {
    pub fn now() -> Self {
        Start {
            wall_ns: host_ns(),
            cpu_ns: cpu_ns(CpuClock::Process),
        }
    }
}

/// What one simulated thread hands back from a measured region.
pub struct ThreadOut {
    pub probe: Probe,
    /// Virtual cycles from `start_measurement` to the kernel's end.
    pub cycles: u64,
    /// Host ns (process epoch) when `start_measurement` returned.
    pub started_ns: u64,
    /// Process CPU ns when `start_measurement` returned.
    pub started_process_cpu_ns: u64,
    /// This thread's CPU ns from `start_measurement` to the kernel's end.
    pub cpu_ns: u64,
    /// Host ns when the kernel returned.
    pub ended_ns: u64,
    /// Host ns spent in the whole thread body.
    pub body_ns: u64,
}

/// A measured region's outcome, apart from the kernel's own results.
pub struct Measured {
    pub threads: Vec<ThreadOut>,
    /// Counters the program exports for the region.
    pub coherence: CoherenceSnapshot,
    pub net: NetStatsSnapshot,
    pub profile: obs::ProfileSnapshot,
    pub locks: Vec<obs::LockObsSnapshot>,
    pub recorder: obs::RecorderStats,
    /// Host ns (process epoch) before the machine was built.
    pub t0_ns: u64,
    /// Host ns from before machine construction until the last thread's
    /// `start_measurement` returned.
    pub setup_ns: u64,
    /// Process CPU ns over the same interval as `setup_ns`.
    pub setup_cpu_ns: u64,
    /// Host ns from the first `start_measurement` return to the last
    /// kernel end.
    pub host_ns: u64,
    /// CPU ns the threads spent in the measured kernel, summed.
    pub cpu_ns: u64,
    /// Host ns of `run()` minus the slowest thread body.
    pub overhead_ns: u64,
    /// Max over threads of the measured virtual cycles.
    pub makespan: u64,
    /// Inbound verbs per home node during the measured section.
    pub ops_in: Vec<u64>,
}

/// Run `init` (unmeasured input writes; it returns the thread's state for
/// the kernel), `start_measurement`, then `kernel` on every thread of `m`,
/// and return the region's measurements with each thread's kernel result
/// (`None` in [`Mode::Setup`], which skips the kernel). `t0` is the host
/// clocks read before the machine was built. `run` tags this region's
/// spans.
pub fn measure<T, S, R, I, K>(
    m: &Arc<ArgoMachine<T>>,
    t0: Start,
    mode: Mode,
    run: u32,
    init: I,
    kernel: K,
) -> (Measured, Option<Vec<R>>)
where
    T: Transport,
    R: Send + 'static,
    I: Fn(&mut ArgoCtx<T>) -> S + Send + Sync + 'static,
    K: Fn(&mut ArgoCtx<T>, &mut Probe, S) -> R + Send + Sync + 'static,
{
    let threads = m.config().total_threads();
    // Host-only rendezvous (no virtual cost): every input write has landed
    // before the per-node verb counters restart.
    let gate = Arc::new(Barrier::new(threads));
    let net = m.net().clone();
    let region_start = host_ns();
    let mut report = m.run(move |ctx| {
        let body_start = host_ns();
        let state = init(ctx);
        gate.wait();
        if ctx.tid() == 0 {
            net.reset_per_node_stats();
        }
        gate.wait();
        ctx.start_measurement();
        let mut probe = Probe::new(mode == Mode::Traced, run, ctx.tid() as u32);
        let started_ns = host_ns();
        let started_process_cpu_ns = cpu_ns(CpuClock::Process);
        let cpu0 = cpu_ns(CpuClock::Thread);
        probe.begin(ctx.thread.now());
        let result = (mode != Mode::Setup).then(|| kernel(ctx, &mut probe, state));
        let cycles = ctx.measured_cycles();
        probe.end(ctx.thread.now());
        let cpu = cpu_ns(CpuClock::Thread) - cpu0;
        let ended_ns = host_ns();
        let out = ThreadOut {
            probe,
            cycles,
            started_ns,
            started_process_cpu_ns,
            cpu_ns: cpu,
            ended_ns,
            body_ns: ended_ns - body_start,
        };
        (result, out)
    });
    let region_ns = host_ns() - region_start;
    let (results, threads): (Vec<Option<R>>, Vec<ThreadOut>) =
        std::mem::take(&mut report.results).into_iter().unzip();
    let first_start = threads.iter().map(|t| t.started_ns).min().unwrap_or(0);
    let last_start = threads.iter().map(|t| t.started_ns).max().unwrap_or(0);
    let last_end = threads.iter().map(|t| t.ended_ns).max().unwrap_or(0);
    let slowest_body = threads.iter().map(|t| t.body_ns).max().unwrap_or(0);
    // The process CPU clock only grows, so the largest reading is the last.
    let setup_cpu_end = threads.iter().map(|t| t.started_process_cpu_ns).max();
    let measured = Measured {
        t0_ns: t0.wall_ns,
        setup_ns: last_start - t0.wall_ns,
        setup_cpu_ns: setup_cpu_end.unwrap_or(t0.cpu_ns) - t0.cpu_ns,
        host_ns: last_end - first_start,
        cpu_ns: threads.iter().map(|t| t.cpu_ns).sum(),
        overhead_ns: region_ns.saturating_sub(slowest_body),
        makespan: threads.iter().map(|t| t.cycles).max().unwrap_or(0),
        ops_in: m.net().per_node_stats().iter().map(|p| p.ops_in).collect(),
        threads,
        coherence: report.coherence,
        net: report.net,
        profile: report.profile,
        locks: report.locks,
        recorder: report.recorder,
    };
    (measured, results.into_iter().collect())
}

/// Run `f` on thread 0 in a fresh, unmeasured region after an acquire
/// fence, to read results back for checking.
pub fn read_back<T, R, F>(m: &Arc<ArgoMachine<T>>, f: F) -> R
where
    T: Transport,
    R: Send + 'static,
    F: Fn(&mut ArgoCtx<T>) -> R + Send + Sync + 'static,
{
    let mut results = m
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.acquire();
                Some(f(ctx))
            } else {
                None
            }
        })
        .results;
    results[0].take().expect("thread 0 reads back")
}

//! Outside-in tracing: spans around every call the kernels make into a
//! layer, recorded from the benchmark's side of the public API.
//!
//! Each simulated thread owns a [`Probe`]. With tracing off it only keeps
//! the per-op latency samples the end-to-end metrics need; with tracing on
//! it also times every call (host nanoseconds and virtual cycles), folds
//! the call into a per-layer aggregate, and keeps a span in memory.
//! Consecutive calls into the same layer share one span (its `calls` field
//! counts them), which keeps a run's span list bounded by the number of
//! layer switches rather than the number of element accesses.
//!
//! [`write_perfetto`] writes the spans of a traced run as Chrome/Perfetto
//! trace-event JSON together with each layer's self time.

use argo::ArgoCtx;
use rma::{Endpoint, Transport};
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the kernels cross, one per kind of top-level call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ArgoCtx` element and slice reads/writes (the carina access paths).
    Access,
    /// `ArgoCtx::barrier` (the vela hierarchical barrier).
    Barrier,
    /// `Hqdl::delegate` (detached critical section).
    Delegate,
    /// `Hqdl::delegate_wait` (waited critical section).
    Wait,
    /// The kernel's own arithmetic plus its `compute` charge.
    Compute,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Access => "carina.access",
            Layer::Barrier => "vela.barrier",
            Layer::Delegate => "vela.hqdl.delegate",
            Layer::Wait => "vela.hqdl.wait",
            Layer::Compute => "workloads.compute",
        }
    }
}

/// Calls, host time and virtual cycles spent in one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub host_ns: u64,
    pub cycles: u64,
}

/// One recorded span. Times are host nanoseconds since the process epoch
/// and virtual cycles on the thread's clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    /// Trace lane: simulated thread id, or [`MAIN_LANE`] for the harness.
    pub lane: u32,
    /// Index of the parent span in the same list, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub start_cycles: u64,
    pub end_cycles: u64,
    /// Calls merged into this span.
    pub calls: u64,
}

/// Lane of the spans the harness records around whole phases.
pub const MAIN_LANE: u32 = u32::MAX;

/// Spans kept per thread before further ones are only aggregated.
const SPAN_CAP: usize = 1 << 18;

/// Host nanoseconds since the first call in this process.
pub fn host_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The CPU-time clocks of `clock_gettime(2)`.
#[derive(Debug, Clone, Copy)]
#[repr(i32)]
pub enum CpuClock {
    /// Every thread of the process.
    Process = 2,
    /// The calling thread.
    Thread = 3,
}

/// CPU nanoseconds consumed so far on `clock`. Unlike wall time this does
/// not grow while a thread waits for a CPU, whether another task has it or
/// (with paravirtual steal-time accounting) the hypervisor has lent the
/// virtual CPU to another guest.
pub fn cpu_ns(clock: CpuClock) -> u64 {
    // `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Per-thread recorder.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    run: u32,
    lane: u32,
    pub aggs: [Agg; 5],
    pub spans: Vec<Span>,
    /// Spans not kept because the cap was reached (still aggregated).
    pub spans_dropped: u64,
    /// Index of the open measured-section span.
    root: Option<usize>,
    /// Layer of the last kept top-level span, for merging.
    last: Option<Layer>,
    /// Virtual-cycle latencies of the workload's unit operation (see
    /// `END_TO_END`), kept with tracing on or off.
    pub ops: Vec<u64>,
}

impl Probe {
    pub fn new(on: bool, run: u32, lane: u32) -> Self {
        Probe {
            on,
            run,
            lane,
            aggs: [Agg::default(); 5],
            spans: Vec::new(),
            spans_dropped: 0,
            root: None,
            last: None,
            ops: Vec::new(),
        }
    }

    /// Open the thread's measured-section span.
    pub fn begin(&mut self, cycles: u64) {
        if self.on {
            let now = host_ns();
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                name: "argo.measured",
                run: self.run,
                lane: self.lane,
                parent: None,
                start_ns: now,
                end_ns: now,
                start_cycles: cycles,
                end_cycles: cycles,
                calls: 1,
            });
        }
    }

    /// Close the measured-section span.
    pub fn end(&mut self, cycles: u64) {
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = host_ns();
            self.spans[i].end_cycles = cycles;
        }
    }

    /// Virtual cycles of every top-level call, all layers.
    pub fn attributed_cycles(&self) -> u64 {
        self.aggs.iter().map(|a| a.cycles).sum()
    }

    /// Run `f` as one call into `layer`.
    #[inline]
    pub fn call<T: Transport, R>(
        &mut self,
        layer: Layer,
        ctx: &mut ArgoCtx<T>,
        f: impl FnOnce(&mut ArgoCtx<T>) -> R,
    ) -> R {
        if !self.on {
            return f(ctx);
        }
        let c0 = ctx.thread.now();
        let h0 = host_ns();
        let r = f(ctx);
        let h1 = host_ns();
        let c1 = ctx.thread.now();
        self.record(layer, h0, h1, c0, c1);
        r
    }

    fn record(&mut self, layer: Layer, h0: u64, h1: u64, c0: u64, c1: u64) {
        let a = &mut self.aggs[layer as usize];
        a.calls += 1;
        a.host_ns += h1 - h0;
        a.cycles += c1 - c0;
        if self.last == Some(layer) {
            let s = self.spans.last_mut().expect("merged span exists");
            s.end_ns = h1;
            s.end_cycles = c1;
            s.calls += 1;
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            self.last = None;
            return;
        }
        self.last = Some(layer);
        self.spans.push(Span {
            name: layer.name(),
            run: self.run,
            lane: self.lane,
            parent: self.root,
            start_ns: h0,
            end_ns: h1,
            start_cycles: c0,
            end_cycles: c1,
            calls: 1,
        });
    }
}

/// Self time of each span name: duration minus the part its children
/// cover, summed over spans. Returns `(name, host ns, cycles)` sorted by
/// name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_cycles = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_cycles[p] += s.end_cycles - s.start_cycles;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        e.1 += (s.end_cycles - s.start_cycles).saturating_sub(child_cycles[i]);
    }
    by_name.into_iter().map(|(n, (h, c))| (n, h, c)).collect()
}

/// Render spans as Perfetto-loadable trace-event JSON. Each span becomes a
/// complete (`"X"`) event on process `run`, thread `lane`; virtual cycles,
/// merged call counts and the parent go in `args`. `meta` lands in
/// `otherData` next to each layer's self time.
pub fn write_perfetto(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let tid = if sp.lane == MAIN_LANE {
            -1
        } else {
            sp.lane as i64
        };
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"calls\":{},\"start_cycles\":{},\"cycles\":{}}}}}",
            sp.name,
            sp.run,
            tid,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            i,
            parent,
            sp.calls,
            sp.start_cycles,
            sp.end_cycles - sp.start_cycles,
        );
    }
    s.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{");
    for (k, v) in meta {
        let _ = write!(s, "\"{k}\":\"{v}\",");
    }
    s.push_str("\"self_time\":[");
    for (i, (name, ns, cycles)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"layer\":\"{name}\",\"host_ns\":{ns},\"cycles\":{cycles}}}"
        );
    }
    s.push_str("]}}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, ns: (u64, u64), cy: (u64, u64)) -> Span {
        Span {
            name,
            run: 0,
            lane: 0,
            parent,
            start_ns: ns.0,
            end_ns: ns.1,
            start_cycles: cy.0,
            end_cycles: cy.1,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, (0, 100), (0, 1000)),
            span("a", Some(0), (10, 40), (0, 600)),
            span("b", Some(0), (50, 60), (600, 900)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![("a", 30, 600), ("b", 10, 300), ("root", 60, 100)]);
    }

    #[test]
    fn perfetto_json_has_one_event_per_span() {
        let spans = vec![span("root", None, (0, 1000), (0, 5))];
        let json = write_perfetto(&spans, &[("workload", "x".into())]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"self_time\":[{\"layer\":\"root\""));
    }
}

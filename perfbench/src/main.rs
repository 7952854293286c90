//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stencil_sor|sparse_cg|pq_hqdl> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on 2 simulated nodes x 1 worker thread, as a closed
//! loop of fixed work whose inputs come from `--seed`. One run repeats the
//! workload until `--seconds` have passed (at least [`MIN_REPS`] times),
//! checks every repetition's output, and reports medians over the
//! repetitions (means for the `op_*` percentiles; see [`END_TO_END`]).
//!
//! * `--trace 0`: each repetition sets the simulator up [`SETUPS_PER_REP`]
//!   times, runs the last set-up's kernel and then the native backend,
//!   untraced, and the run prints the end-to-end metrics.
//! * `--trace 1`: each repetition runs the simulator untraced and then
//!   traced (a span around every call the kernel makes into a layer), and
//!   the run prints the per-layer metrics of [`layers::METRICS`]. The
//!   first traced repetition's spans are written as Perfetto JSON.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only if every check passed.

mod cg;
mod harness;
mod layers;
mod pq;
mod rng;
mod sor;
mod trace;

use argo::{ArgoConfig, ArgoMachine};
use harness::{Measured, Mode};
use rma::Transport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, MAIN_LANE};

/// Repetitions a run makes even when `--seconds` has already passed.
const MIN_REPS: usize = 3;
/// Upper bound on repetitions per run.
const MAX_REPS: usize = 200;
/// Simulator set-ups per repetition with `--trace 0`; only the last runs
/// the kernel. A repetition's `setup_s` sample is the cheapest of them, and
/// the run reports the median of these samples.
const SETUPS_PER_REP: usize = 3;
/// A run that has not finished [`WATCHDOG_FACTOR`] x `--seconds` plus
/// [`WATCHDOG_MARGIN`] after it started exits non-zero without a result
/// (a deadlocked region cannot be joined).
const WATCHDOG_FACTOR: u32 = 2;
const WATCHDOG_MARGIN: Duration = Duration::from_secs(110);

/// The end-to-end metrics and their units, as `--trace 0` reports them.
/// The op behind `op_*` is each workload's unit of work ([`Workload::OP`]).
///
/// The host times are CPU time, not wall time: `sim_cpu_s` and
/// `native_cpu_s` sum the worker threads' CPU time over the measured
/// section, and `setup_s` is the process's CPU time from before machine
/// construction until `start_measurement` returns. On a shared virtual
/// machine wall time also counts the time a worker waits to be scheduled
/// (behind another task, or while the hypervisor runs another guest on its
/// virtual CPU, and on every wake-up from a barrier); CPU time leaves that
/// out, while a waiter that spins is still charged. The run also prints the
/// wall-clock medians, as a comment line.
///
/// Host times and `makespan_cycles` are medians over a run's repetitions;
/// `op_*` are means over them of each repetition's percentile, because a
/// `stencil_sor` half-sweep's virtual latency varies by a cycle or two
/// between repetitions, and a median would pick the same cycle count in
/// every run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("makespan_cycles", "cycles"),
    ("sim_cpu_s", "s"),
    ("native_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_cycles", "cycles"),
    ("op_p99_cycles", "cycles"),
];

/// What one backend produced for one repetition.
pub struct Exec<O> {
    pub measured: Measured,
    /// The kernel's results; `None` after a [`Mode::Setup`] execution.
    pub output: Option<O>,
    /// `Dsm::check_invariants()` after the run.
    pub invariants: Vec<String>,
    /// Per-layer counters only the workload can read.
    pub extra: Vec<(&'static str, f64)>,
}

impl<O> Exec<O> {
    /// A [`Mode::Setup`] execution: nothing ran after `start_measurement`.
    pub fn set_up(measured: Measured) -> Self {
        Exec {
            measured,
            output: None,
            invariants: Vec::new(),
            extra: Vec::new(),
        }
    }

    fn output(&self) -> &O {
        self.output.as_ref().expect("the kernel ran")
    }
}

/// A benchmark workload: seeded inputs, a sequential reference, and a
/// kernel that runs on any backend.
pub trait Workload {
    const NAME: &'static str;
    /// The unit of work whose virtual latency `op_p50_cycles` and
    /// `op_p99_cycles` report.
    const OP: &'static str;
    type Input: Send + Sync + 'static;
    type Expected;
    type Output;
    fn inputs(seed: u64) -> Self::Input;
    fn reference(input: &Self::Input) -> Self::Expected;
    fn execute<T: Transport>(
        build: fn(ArgoConfig) -> Arc<ArgoMachine<T>>,
        input: &Arc<Self::Input>,
        mode: Mode,
        run: u32,
    ) -> Exec<Self::Output>;
    /// One backend's output against the reference.
    fn check(expected: &Self::Expected, output: &Self::Output) -> Result<(), String>;
    /// The simulator's output against the native backend's.
    fn agree(sim: &Self::Output, native: &Self::Output) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Checks attempted and failed in one run; every failure is printed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}: {e}");
        }
    }

    fn invariants(&mut self, what: &str, problems: &[String]) {
        let r = match problems.first() {
            None => Ok(()),
            Some(p) => Err(format!("{} problem(s), first: {p}", problems.len())),
        };
        self.check(what, r);
    }
}

/// Counts that must repeat exactly: the first value seen of each is the
/// baseline every later repetition is held to.
struct ExactCounts {
    names: &'static [&'static str],
    baseline: BTreeMap<&'static str, f64>,
}

impl ExactCounts {
    fn check(&mut self, checks: &mut Checks, values: &BTreeMap<&'static str, f64>) {
        for &name in self.names {
            let Some(&v) = values.get(name) else { continue };
            match self.baseline.get(name) {
                None => {
                    self.baseline.insert(name, v);
                }
                Some(&b) => checks.check(
                    &format!("exact count {name}"),
                    if b == v {
                        Ok(())
                    } else {
                        Err(format!("{v} vs {b} in the first repetition"))
                    },
                ),
            }
        }
    }
}

/// Per-repetition samples of one run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    makespan: Vec<f64>,
    sim_cpu_s: Vec<f64>,
    native_cpu_s: Vec<f64>,
    /// Wall-clock counterparts of `setup_s`, `sim_cpu_s`, `native_cpu_s`.
    setup_wall_s: Vec<f64>,
    sim_wall_s: Vec<f64>,
    native_wall_s: Vec<f64>,
    op_p50: Vec<f64>,
    op_p99: Vec<f64>,
    op_count: usize,
    /// Untraced simulator CPU seconds of traced runs (overhead base).
    plain_cpu_s: Vec<f64>,
    layers: Vec<BTreeMap<&'static str, f64>>,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1] as f64
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulator checks shared by every repetition: output, invariants,
/// no retried or exhausted verbs, and the exact counts.
fn check_sim<W: Workload>(
    checks: &mut Checks,
    exact: &mut ExactCounts,
    expected: &W::Expected,
    sim: &Exec<W::Output>,
    traced: bool,
) -> BTreeMap<&'static str, f64> {
    checks.check("simulator output", W::check(expected, sim.output()));
    checks.invariants("simulator invariants", &sim.invariants);
    let values = layers::collect(&sim.measured, &sim.extra, traced);
    for name in ["rma.retries", "rma.exhaustions"] {
        let n = values[name];
        checks.check(
            name,
            if n == 0.0 {
                Ok(())
            } else {
                Err(format!("{n} without a fault plan"))
            },
        );
    }
    if traced {
        for t in &sim.measured.threads {
            let attributed = t.probe.attributed_cycles();
            checks.check(
                "cycle ledger",
                if attributed == t.cycles {
                    Ok(())
                } else {
                    Err(format!("{} measured vs {attributed} in spans", t.cycles))
                },
            );
        }
    }
    exact.check(checks, &values);
    values
}

/// Harness-level spans of one repetition (set-up, kernel, read-back), on
/// the main lane.
fn phase_spans(m: &Measured, run: u32, done_ns: u64) -> Vec<Span> {
    let start = m.threads.iter().map(|t| t.started_ns).min().unwrap_or(0);
    let end = m.threads.iter().map(|t| t.ended_ns).max().unwrap_or(0);
    let phase = |name, a, b| Span {
        name,
        run,
        lane: MAIN_LANE,
        parent: None,
        start_ns: a,
        end_ns: b,
        start_cycles: 0,
        end_cycles: 0,
        calls: 1,
    };
    vec![
        phase("argo.setup", m.t0_ns, m.t0_ns + m.setup_ns),
        phase("argo.kernel", start, end),
        phase("check.read_back", end, done_ns),
    ]
}

fn bench<W: Workload>(args: &Args) -> i32 {
    let input = Arc::new(W::inputs(args.seed));
    let expected = W::reference(&input);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut exact = ExactCounts {
        names: layers::exact_counts(W::NAME),
        baseline: BTreeMap::new(),
    };
    let mut s = Samples::default();
    let mut spans: Option<Vec<Span>> = None;
    let mut dropped = 0u64;
    let started = Instant::now();
    let mut rep = 0usize;
    // Stop before a repetition that would end past the deadline, judged by
    // the mean repetition so far, so a run measures for `--seconds`.
    while rep < MIN_REPS
        || (rep < MAX_REPS && Instant::now() + started.elapsed() / rep as u32 <= deadline)
    {
        let run = rep as u32;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (mut setup_cpu_ns, mut setup_ns) = (u64::MAX, u64::MAX);
            if !args.trace {
                for _ in 1..SETUPS_PER_REP {
                    let set_up = W::execute(ArgoMachine::new, &input, Mode::Setup, run);
                    setup_cpu_ns = setup_cpu_ns.min(set_up.measured.setup_cpu_ns);
                    setup_ns = setup_ns.min(set_up.measured.setup_ns);
                }
            }
            let sim = W::execute(ArgoMachine::new, &input, Mode::Plain, run);
            check_sim::<W>(&mut checks, &mut exact, &expected, &sim, false);
            if args.trace {
                s.plain_cpu_s.push(sim.measured.cpu_ns as f64 / 1e9);
                let traced = W::execute(ArgoMachine::new, &input, Mode::Traced, run);
                let done_ns = trace::host_ns();
                let values = check_sim::<W>(&mut checks, &mut exact, &expected, &traced, true);
                s.sim_cpu_s.push(traced.measured.cpu_ns as f64 / 1e9);
                s.layers.push(values);
                if spans.is_none() {
                    let mut all = phase_spans(&traced.measured, run, done_ns);
                    dropped = traced
                        .measured
                        .threads
                        .iter()
                        .map(|t| t.probe.spans_dropped)
                        .sum();
                    for t in traced.measured.threads {
                        let base = all.len();
                        all.extend(t.probe.spans.into_iter().map(|mut sp| {
                            sp.parent = sp.parent.map(|p| p + base);
                            sp
                        }));
                    }
                    spans = Some(all);
                }
            } else {
                let native = W::execute(ArgoMachine::native, &input, Mode::Plain, run);
                checks.check("native output", W::check(&expected, native.output()));
                checks.invariants("native invariants", &native.invariants);
                checks.check(
                    "simulator and native agree",
                    W::agree(sim.output(), native.output()),
                );
                let m = &sim.measured;
                s.setup_s
                    .push(setup_cpu_ns.min(m.setup_cpu_ns) as f64 / 1e9);
                s.setup_wall_s.push(setup_ns.min(m.setup_ns) as f64 / 1e9);
                s.makespan.push(m.makespan as f64);
                s.sim_cpu_s.push(m.cpu_ns as f64 / 1e9);
                s.sim_wall_s.push(m.host_ns as f64 / 1e9);
                s.native_cpu_s.push(native.measured.cpu_ns as f64 / 1e9);
                s.native_wall_s.push(native.measured.host_ns as f64 / 1e9);
                let mut ops: Vec<u64> = m
                    .threads
                    .iter()
                    .flat_map(|t| t.probe.ops.iter().copied())
                    .collect();
                s.op_count = ops.len();
                s.op_p50.push(percentile(&mut ops, 50.0));
                s.op_p99.push(percentile(&mut ops, 99.0));
            }
        }));
        if let Err(panic) = result {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            checks.attempted += 1;
            checks.failed += 1;
            eprintln!("CHECK FAILED: repetition {rep} panicked: {msg}");
        }
        rep += 1;
    }

    let mut metrics: Vec<(&str, f64, &str)>;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} repetitions={rep} nodes=2 threads_per_node=1 host_parallelism={}",
        W::NAME,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        metrics = Vec::with_capacity(layers::METRICS.len());
        for lm in layers::METRICS {
            let v = match lm.name {
                "trace.overhead" => median(&s.sim_cpu_s) / median(&s.plain_cpu_s),
                name => median(
                    &s.layers
                        .iter()
                        .filter_map(|l| l.get(name).copied())
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((lm.name, v, lm.unit));
            println!(
                "{:<32} {:>16.6} {:<7} ({} is better) -> {}",
                lm.name, v, lm.unit, lm.better, lm.moves
            );
        }
        if let Some(spans) = &spans {
            write_trace(W::NAME, args.seed, spans, dropped);
        }
    } else {
        let values = [
            median(&s.makespan),
            median(&s.sim_cpu_s),
            median(&s.native_cpu_s),
            median(&s.setup_s),
            peak_rss_mb(),
            mean(&s.op_p50),
            mean(&s.op_p99),
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        for (name, v, unit) in &metrics {
            println!("{name:<16} {v:>18.6} {unit}");
        }
        println!(
            "# wall clock (not metrics): setup {:.6} s, sim {:.6} s, native {:.6} s",
            median(&s.setup_wall_s),
            median(&s.sim_wall_s),
            median(&s.native_wall_s),
        );
        println!(
            "# op = {} ({} samples per repetition, mean over repetitions)",
            W::OP,
            s.op_count
        );
    }
    println!(
        "# exact counts (asserted equal across repetitions): {}",
        exact.names.join(", ")
    );
    println!(
        "# fail_frac {} ({} of {} checks failed)",
        if checks.attempted == 0 {
            0.0
        } else {
            checks.failed as f64 / checks.attempted as f64
        },
        checks.failed,
        checks.attempted
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    json.push_str("}}");
    println!("{json}");
    if checks.failed == 0 {
        0
    } else {
        1
    }
}

/// Write the traced run's spans under the cargo target directory.
/// `dropped` counts spans past the per-thread cap (aggregated, not kept).
fn write_trace(workload: &str, seed: u64, spans: &[Span], dropped: u64) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let json = trace::write_perfetto(
        spans,
        &[
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("spans_dropped", dropped.to_string()),
        ],
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("# perfetto trace: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload <stencil_sor|sparse_cg|pq_hqdl> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let watchdog = Duration::from_secs(args.seconds)
        .saturating_mul(WATCHDOG_FACTOR)
        .saturating_add(WATCHDOG_MARGIN);
    std::thread::spawn(move || {
        std::thread::sleep(watchdog);
        eprintln!("perfbench: no result after {watchdog:?}, giving up");
        std::process::exit(3);
    });
    let code = match args.workload.as_str() {
        sor::StencilSor::NAME => bench::<sor::StencilSor>(&args),
        cg::SparseCg::NAME => bench::<cg::SparseCg>(&args),
        pq::PqHqdl::NAME => bench::<pq::PqHqdl>(&args),
        other => {
            eprintln!("unknown workload {other}");
            2
        }
    };
    std::process::exit(code);
}

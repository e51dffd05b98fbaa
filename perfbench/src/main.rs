//! One benchmark for the real call path, the scheduler and its planes, and
//! the DES. See `README.md` for the workloads, metrics and oracles.
//!
//! Usage: `zc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing; with `--trace 1` they are the per-layer ones, from a
//! spans-only and a telemetry-hub pass, each compared against an untraced
//! pass.

mod crypto;
mod des;
mod kv;
mod lmbench;
mod measure;
mod oracle;
mod trace;

use measure::Meter;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

pub const WORKLOADS: [&str; 4] = ["kv_zc", "lmbench_phased", "crypto_intel", "des_campaign"];

/// Per-layer metrics, in print order. A layer a workload does not run
/// reads 0 there (e.g. `intel.*` on `kv_zc`).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.ocalls_per_op", "count"),
    ("workloads.self_us_per_op", "us"),
    ("zc.dispatch_p50_ns.switchless", "ns"),
    ("zc.dispatch_p99_ns.switchless", "ns"),
    ("zc.dispatch_p50_ns.fallback", "ns"),
    ("zc.fallback_ratio", "ratio"),
    ("zc.pool_reallocs_per_kcall", "count"),
    ("zc.phase_ns.reserve", "ns"),
    ("zc.phase_ns.copy_in", "ns"),
    ("zc.phase_ns.signal", "ns"),
    ("zc.phase_ns.wait", "ns"),
    ("zc.phase_ns.execute", "ns"),
    ("zc.phase_ns.copy_out", "ns"),
    ("sched.decisions_per_s", "1/s"),
    ("sched.mean_workers.burst", "count"),
    ("sched.mean_workers.sparse", "count"),
    ("runtime.cpu_us_per_op", "us"),
    ("overload.admitted_ratio", "ratio"),
    ("overload.shed_rate_limited", "count"),
    ("planes.dispatch_ns_delta", "ns"),
    ("supervise.watchdog_cancels", "count"),
    ("supervise.duplicate_executions", "count"),
    ("intel.dispatch_p50_ns.switchless", "ns"),
    ("intel.dispatch_p50_ns.regular", "ns"),
    ("intel.fallback_ratio", "ratio"),
    ("intel.worker_sleep_share", "ratio"),
    ("sgx.transitions_per_op", "count"),
    ("sgx.copied_kib_per_op", "KiB"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.hub_overhead_pct", "%"),
    ("telemetry.events_dropped", "count"),
    ("des.replay_calls_per_s.no_sl", "1/s"),
    ("des.replay_calls_per_s.intel", "1/s"),
    ("des.replay_calls_per_s.zc", "1/s"),
    ("des.event_kernel_calls_per_s", "1/s"),
    ("des.trace_record_s", "s"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Length of one measured pass. A traced run makes two to four passes
    /// (untraced, spans, hub, and for `lmbench_phased` a bare runtime) of a
    /// quarter of the run length each.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }
}

/// What one run prints: correctness, op accounting and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// First oracle violation, if any.
    pub wrong: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Note an oracle violation (the first one is kept).
    pub fn check(&mut self, c: oracle::Check) {
        if let Err(e) = c {
            eprintln!("WRONG: {e}");
            self.wrong.get_or_insert(e);
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// The six end-to-end metrics from the setup times and the timed run.
    pub fn end_to_end(mut self, setups: &[f64], m: &Meter) -> Result<Self, String> {
        self.metric("setup_s", measure::median(setups), "s");
        self.metric("ops_per_s", m.ops_per_s(), "1/s");
        self.metric("op_p50_us", m.latency_ns(0.50) / 1e3, "us");
        self.metric("op_p99_us", m.latency_ns(0.99) / 1e3, "us");
        self.metric("cpu_us_per_op", m.cpu_us_per_op(), "us");
        self.metric("peak_rss_mb", measure::peak_rss_mib()?, "MiB");
        Ok(self)
    }

    /// The per-layer metrics, every name in [`PER_LAYER`] order.
    pub fn per_layer(&mut self, layers: &Layers) {
        for (name, unit) in PER_LAYER {
            self.metric(name, layers.0[name], unit);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_none(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One op's outcome: `Err(Ok(msg))` is a failed call (the program
/// returned `Err`), `Err(Err(msg))` a wrong output.
pub type OpResult = Result<(), Result<String, String>>;

/// The timed part of a pass: whole rounds, each running `n` ops of every
/// `(label, n)` in `round`, until the pass time is up. `before(label)` runs
/// untimed ahead of each op (in-enclave work between calls, samplers);
/// `op(label)` is the timed op; `after()` checks the outputs of a
/// successful op, untimed.
pub fn timed_rounds(
    args: &Args,
    report: &mut Report,
    spans: Option<&trace::SpanLog>,
    round: &[(usize, u64)],
    mut before: impl FnMut(usize),
    mut op: impl FnMut(usize) -> OpResult,
    mut after: impl FnMut() -> oracle::Check,
) -> Meter {
    if let Some(log) = spans {
        log.reset();
    }
    let mut meter = Meter::start();
    loop {
        for &(label, n) in round {
            for _ in 0..n {
                report.attempted += 1;
                before(label);
                if let Some(log) = spans {
                    log.begin_op(label);
                }
                let t = std::time::Instant::now();
                let r = op(label);
                meter.op(t);
                if let Some(log) = spans {
                    log.end_op();
                }
                match r {
                    Ok(()) => report.check(after()),
                    Err(Ok(failed)) => {
                        eprintln!("failed op: {failed}");
                        report.failed += 1;
                    }
                    Err(Err(wrong)) => report.check(Err(wrong)),
                }
            }
        }
        if !meter.end_round(args.pass_seconds()) {
            break;
        }
    }
    meter.stop();
    meter
}

/// What one pass instruments: the runtime's telemetry hub, the
/// benchmark's own spans, both or (for timed end-to-end runs) neither.
#[derive(Clone, Copy, Default)]
pub struct Probe<'a> {
    pub hub: Option<&'a Arc<zc_telemetry::Telemetry>>,
    pub spans: Option<&'a trace::SpanLog>,
}

/// The passes of a traced run: spans only (no hub, so span latencies
/// carry no hub cost), then hub only (the six-phase profile and the hub's
/// own cost).
pub struct TracedRun {
    pub spans: trace::SpanLog,
    pub hub: Arc<zc_telemetry::Telemetry>,
}

impl Default for TracedRun {
    fn default() -> Self {
        TracedRun {
            spans: trace::SpanLog::new(),
            hub: zc_telemetry::Telemetry::new(),
        }
    }
}

impl TracedRun {
    pub fn spans(&self) -> Probe<'_> {
        Probe {
            hub: None,
            spans: Some(&self.spans),
        }
    }

    pub fn hub(&self) -> Probe<'_> {
        Probe {
            hub: Some(&self.hub),
            spans: None,
        }
    }

    /// Overheads against the untraced pass, and the hub's dropped events.
    pub fn telemetry_layers(&self, layers: &mut Layers, untraced: f64, spans: f64, hub: f64) {
        layers.set("telemetry.overhead_pct", overhead_pct(untraced, spans));
        layers.set("telemetry.hub_overhead_pct", overhead_pct(untraced, hub));
        layers.set(
            "telemetry.events_dropped",
            self.hub.tracer().dropped() as f64,
        );
    }
}

/// Per-layer values of one traced run; every name starts at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = value;
    }
}

/// Layer metrics every real-runtime workload shares: the workload's own
/// time and ocall count per op (from the spans), the runtime's CPU and the
/// enclave boundary.
pub fn real_layers(layers: &mut Layers, m: &Meter, s: &trace::Summary, transitions: u64) {
    layers.set("workloads.ocalls_per_op", s.per_op(s.dispatches));
    layers.set("workloads.self_us_per_op", s.per_op(s.self_ns) / 1e3);
    layers.set("runtime.cpu_us_per_op", m.runtime_cpu_us_per_op());
    layers.set(
        "sgx.transitions_per_op",
        transitions as f64 / m.ops.max(1) as f64,
    );
    layers.set("sgx.copied_kib_per_op", s.per_op(s.bytes) / 1024.0);
}

/// Write a traced pass's spans to `.bench_out/` in the working directory.
pub fn write_spans(log: &trace::SpanLog, args: &Args) {
    let path = std::path::Path::new(".bench_out")
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    match log.write_csv(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Traced minus untraced throughput, as a percentage of the untraced.
pub fn overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must lie in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = oracle::self_test() {
        eprintln!("zc-perfbench: oracle {e}");
        return ExitCode::from(3);
    }
    let result = match args.workload.as_str() {
        "kv_zc" => kv::run(&args),
        "lmbench_phased" => lmbench::run(&args),
        "crypto_intel" => crypto::run(&args),
        _ => des::run(&args),
    };
    let result = result.and_then(|r| match r.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, v, _)) => Err(format!("metric {name} is not a number ({v})")),
        None => Ok(r),
    });
    match result {
        Ok(report) => {
            for (n, v, u) in &report.metrics {
                println!("{:<36} {v:>16.4} {u}", format!("{}.{n}", args.workload));
            }
            println!(
                "{}: attempted {} failed {}",
                args.workload, report.attempted, report.failed
            );
            println!("{}", report.json());
            if report.wrong.is_some() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("zc-perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

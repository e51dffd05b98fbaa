//! `lmbench_phased`: 8-byte `read(/dev/zero)` / `write(/dev/null)` calls,
//! alternating, in burst phases (no in-enclave work between calls) and
//! sparse phases (in-enclave work sized so the scheduler's argmin prefers
//! zero workers), on a `ZcRuntime` with the supervision, overload and
//! recovery planes on at their machine-derived defaults.
//!
//! Calls the overload plane sheds (`Overloaded{..}`) are retried until
//! admitted: the op then completes, its latency includes the wait for a
//! token, and every shed is counted per reason against the plane's own
//! ledger. See the README for why sheds are not counted as failed ops.

use crate::kv::{await_first_decision, start_zc, zc_layers, ZcPass};
use crate::trace::{Outcome, SpanLog, Traced};
use crate::{oracle, timed_rounds, Args, Layers, OpResult, Probe, Report, TracedRun};
use sgx_sim::hostfs::{FsFuncs, HostFs, OpenMode};
use sgx_sim::Enclave;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use switchless_core::overload::ShedReason;
use switchless_core::{
    CallPath, CpuSpec, OcallDispatcher, OcallRequest, OcallTable, SwitchlessError, ZcConfig,
};
use zc_workloads::lmbench::WORD;
use zc_workloads::EnclaveIo;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed burst ops after start-up (part of setup).
const WARMUP_OPS: u64 = 2000;
const BURST: usize = 0;
const SPARSE: usize = 1;

/// Phase shape, derived from the scheduler's own parameters.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Back-to-back calls per burst phase: eight quanta at one `T_es`
    /// per call, the regular-path cost, so a burst spans several
    /// scheduling quanta on every path.
    pub burst_ops: u64,
    /// Calls per sparse phase: about four quanta of spacing.
    pub sparse_ops: u64,
    /// In-enclave work before each sparse call, in cycles. Zero workers
    /// win the argmin when `weight·F_0·T_es < µQ`; with `F_0 = µQ/gap`
    /// calls per probe that is `gap > weight·T_es`, here doubled.
    pub work_cycles: u64,
}

impl Phases {
    pub fn for_config(cfg: &ZcConfig) -> Self {
        let p = cfg.policy_params();
        let work_cycles = 2 * p.fallback_weight * p.t_es_cycles;
        Phases {
            burst_ops: 8 * p.quantum_cycles / p.t_es_cycles,
            sparse_ops: 4 * p.quantum_cycles / work_cycles,
            work_cycles,
        }
    }
}

/// Dispatcher wrapper that retries shed calls until admitted, counting
/// every offer and every shed by reason.
struct Retrying<'a> {
    inner: &'a dyn OcallDispatcher,
    offered: AtomicU64,
    shed: [AtomicU64; ShedReason::ALL.len()],
}

impl Retrying<'_> {
    fn shed(&self) -> Vec<u64> {
        self.shed
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

impl OcallDispatcher for Retrying<'_> {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        loop {
            self.offered.fetch_add(1, Ordering::Relaxed);
            match self.inner.dispatch(req, payload_in, payload_out) {
                Err(SwitchlessError::Overloaded { reason }) => {
                    self.shed[reason.index()].fetch_add(1, Ordering::Relaxed);
                }
                r => return r,
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let planes = |c: ZcConfig| c.with_supervision().with_overload().with_recovery();
    let plain = pass(args, planes, Probe::default(), &mut report)?;
    if !args.trace {
        return report.end_to_end(&plain.zc.setups, &plain.zc.meter);
    }
    let t = TracedRun::default();
    let spans = pass(args, planes, t.spans(), &mut report)?;
    let hubbed = pass(args, planes, t.hub(), &mut report)?;
    let summary = t.spans.summary();
    let mut layers = Layers::default();
    zc_layers(&mut layers, &spans.zc, &summary, &hubbed.zc);
    t.telemetry_layers(
        &mut layers,
        plain.zc.meter.ops_per_s(),
        spans.zc.meter.ops_per_s(),
        hubbed.zc.meter.ops_per_s(),
    );
    let (offered, admitted, rate_limited) = spans.overload;
    layers.set(
        "overload.admitted_ratio",
        admitted as f64 / offered.max(1) as f64,
    );
    layers.set("overload.shed_rate_limited", rate_limited as f64);
    layers.set("supervise.duplicate_executions", spans.duplicates as f64);
    crate::write_spans(&t.spans, args);

    // The same traffic on a bare runtime gives the planes' marginal
    // dispatch cost in the burst phase.
    let bare = SpanLog::new();
    let probe = Probe {
        hub: None,
        spans: Some(&bare),
    };
    pass(args, |c| c, probe, &mut report)?;
    layers.set(
        "planes.dispatch_ns_delta",
        burst_dispatch_p50(&summary) - burst_dispatch_p50(&bare.summary()),
    );
    report.per_layer(&layers);
    Ok(report)
}

/// Median latency of the admitted dispatches of burst-phase ops.
fn burst_dispatch_p50(s: &crate::trace::Summary) -> f64 {
    let mut h = s
        .dispatch(BURST, Outcome::Path(CallPath::Switchless))
        .clone();
    h.merge(s.dispatch(BURST, Outcome::Path(CallPath::Fallback)));
    h.merge(s.dispatch(BURST, Outcome::Path(CallPath::Regular)));
    h.quantile(0.5)
}

struct LmPass {
    zc: ZcPass,
    /// Overload plane over the timed run: offered, admitted and
    /// rate-limited calls (zero without the plane).
    overload: (u64, u64, u64),
    /// Host executions beyond the completed ops, over the runtime's life.
    duplicates: u64,
}

/// One application op: an 8-byte read or write, checked.
fn op(io: &EnclaveIo<'_>, fds: (u64, u64), read: bool, buf: &mut Vec<u8>) -> OpResult {
    if read {
        let n = io
            .read(fds.0, WORD, buf)
            .map_err(|e| Ok(format!("read: {e}")))?;
        oracle::lm_read(n, buf).map_err(Err)
    } else {
        let n = io
            .write(fds.1, &[0xa5; WORD])
            .map_err(|e| Ok(format!("write: {e}")))?;
        oracle::lm_write(n).map_err(Err)
    }
}

fn pass(
    args: &Args,
    planes: impl Fn(ZcConfig) -> ZcConfig,
    probe: Probe<'_>,
    report: &mut Report,
) -> Result<LmPass, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let fs = HostFs::new();
        let mut table = OcallTable::new();
        let funcs = FsFuncs::register(&mut table, &fs);
        let cpu = CpuSpec::host_machine();
        let enclave = Enclave::new(cpu);
        let config = planes(ZcConfig::for_cpu(cpu));
        let phases = Phases::for_config(&config);
        let rt = start_zc(config, table, &enclave, probe.hub)?;
        let wrapper;
        let inner: &dyn OcallDispatcher = match probe.spans {
            Some(log) => {
                wrapper = Traced { inner: &rt, log };
                &wrapper
            }
            None => &rt,
        };
        let retrying = Retrying {
            inner,
            offered: AtomicU64::new(0),
            shed: Default::default(),
        };
        let io = EnclaveIo::new(&retrying, funcs);
        let fds = (
            io.open("/dev/zero", OpenMode::Read)
                .map_err(|e| format!("open /dev/zero: {e}"))?,
            io.open("/dev/null", OpenMode::Write)
                .map_err(|e| format!("open /dev/null: {e}"))?,
        );
        let mut buf = Vec::with_capacity(WORD);
        let mut done = [0u64; 2]; // reads, writes the host executed
        let mut k = 0u64;
        let mut one = |_: usize| {
            let read = k.is_multiple_of(2);
            k += 1;
            let r = op(&io, fds, read, &mut buf);
            if !matches!(r, Err(Ok(_))) {
                done[usize::from(!read)] += 1;
            }
            r
        };
        for _ in 0..WARMUP_OPS {
            one(BURST).map_err(|e| format!("warm-up: {e:?}"))?;
        }
        await_first_decision(&rt);
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            rt.shutdown();
            continue;
        }

        // Timed run: whole rounds of one burst phase then one sparse phase.
        let profile0 = probe.hub.map(|h| h.profile().snapshot());
        let stats0 = rt.stats().snapshot();
        let overload0 = rt.overload_snapshot();
        let (decisions0, ocalls0) = (rt.scheduler_decisions(), enclave.ocalls());
        let mut workers = [(0.0, 0u64); 2];
        let clock = rt.clock();
        let meter = timed_rounds(
            args,
            report,
            probe.spans,
            &[(BURST, phases.burst_ops), (SPARSE, phases.sparse_ops)],
            |label| {
                if label == SPARSE {
                    clock.spin_cycles(phases.work_cycles);
                }
                if probe.spans.is_some() {
                    workers[label].0 += rt.active_workers() as f64;
                    workers[label].1 += 1;
                }
            },
            &mut one,
            || Ok(()),
        );
        let stats = rt.stats().snapshot().delta_since(&stats0);
        let decisions = rt.scheduler_decisions() - decisions0;
        let transitions = enclave.ocalls() - ocalls0;
        let profile = probe
            .hub
            .zip(profile0)
            .map(|(h, p0)| (p0, h.profile().snapshot()));
        let overload = match (overload0, rt.overload_snapshot()) {
            (Some(a), Some(b)) => (
                b.offered - a.offered,
                b.admitted - a.admitted,
                b.shed_for(ShedReason::RateLimited) - a.shed_for(ShedReason::RateLimited),
            ),
            _ => (0, 0, 0),
        };
        io.close(fds.0).map_err(|e| format!("close: {e}"))?;
        io.close(fds.1).map_err(|e| format!("close: {e}"))?;

        // Oracles: the plane's ledger is the benchmark's own, and the host
        // executed each completed op once (plus what watchdog
        // cancellations may add).
        if let Some(ov) = rt.overload_snapshot() {
            report.check(oracle::shed_ledger(
                retrying.offered.load(Ordering::Relaxed),
                &retrying.shed(),
                ov.offered,
                ov.admitted,
                &ov.shed,
            ));
        }
        let (reads, writes, _) = fs.op_counts();
        let completed = done[0] + done[1];
        let life = rt.stats().snapshot();
        eprintln!(
            "host executions {} for {completed} completed ops; watchdog cancels {}, guard violations {}",
            reads + writes,
            life.cancelled,
            life.guard_violations
        );
        let (replayed, redelivered) = rt
            .recovery_snapshot()
            .map_or((0, 0), |r| (r.replayed, r.redelivered));
        report.check(oracle::executions(
            reads + writes,
            completed,
            life.cancelled,
            replayed,
            redelivered,
        ));
        rt.shutdown();
        return Ok(LmPass {
            zc: ZcPass {
                setups,
                meter,
                cpu,
                stats,
                decisions,
                transitions,
                workers,
                profile,
            },
            overload,
            duplicates: (reads + writes).saturating_sub(completed),
        });
    }
    unreachable!("the last setup runs the timed pass")
}

//! `kv_zc`: kissdb 50/50 SET/GET over a seeded uniform key space on a bare
//! `ZcRuntime` sized from the host (no planes, no telemetry hub when
//! untraced).

use crate::measure::Meter;
use crate::trace::{Outcome, Summary, Traced};
use crate::{oracle, timed_rounds, Args, Layers, OpResult, Probe, Report, TracedRun};
use sgx_sim::hostfs::{FsFuncs, HostFs};
use sgx_sim::Enclave;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallPath, CallStatsSnapshot, CpuSpec, OcallDispatcher, OcallTable, SplitMix64, ZcConfig,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::{Phase, ProfileSnapshot, Telemetry};
use zc_workloads::{EnclaveIo, KissDb};

/// kissdb hash-table slots per page; with [`KEYS`] keys the chain holds
/// about `KEYS / HASH` = 12 keys per slot, so an op walks ~6 pages and
/// makes ~15 fs ocalls.
const HASH: u64 = 256;
/// Size of the uniform key space, all preloaded during setup.
const KEYS: usize = 3072;
/// Ops per round (≈ 45 ms on a 2-vCPU host).
const ROUND_OPS: u64 = 2000;
/// Untimed ops after preload (part of setup).
const WARMUP_OPS: u64 = 1000;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const DB: &str = "/kv.db";

/// Ocalls issued outside the host fs counters: kissdb's two `fopen`s
/// (preload, timed run) and two `fclose`s.
const OPEN_CLOSE_OCALLS: u64 = 4;

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let plain = pass(args, Probe::default(), &mut report)?;
    if !args.trace {
        return report.end_to_end(&plain.setups, &plain.meter);
    }
    let t = TracedRun::default();
    let spans = pass(args, t.spans(), &mut report)?;
    let hubbed = pass(args, t.hub(), &mut report)?;
    let mut layers = Layers::default();
    zc_layers(&mut layers, &spans, &t.spans.summary(), &hubbed);
    t.telemetry_layers(
        &mut layers,
        plain.meter.ops_per_s(),
        spans.meter.ops_per_s(),
        hubbed.meter.ops_per_s(),
    );
    report.per_layer(&layers);
    crate::write_spans(&t.spans, args);
    Ok(report)
}

/// Measurements of one pass over a ZC runtime.
pub struct ZcPass {
    pub setups: Vec<f64>,
    pub meter: Meter,
    pub cpu: CpuSpec,
    pub stats: CallStatsSnapshot,
    pub decisions: u64,
    pub transitions: u64,
    /// Σ sampled `active_workers()` and sample count, per op label.
    pub workers: [(f64, u64); 2],
    /// Phase profile at the start and end of the timed run (hub passes).
    pub profile: Option<(ProfileSnapshot, ProfileSnapshot)>,
}

/// Per-layer metrics of a ZC workload (shared with `lmbench_phased`): from
/// the spans pass `p` with its summary `s`, and the hub pass's profile.
pub fn zc_layers(layers: &mut Layers, p: &ZcPass, s: &Summary, hubbed: &ZcPass) {
    crate::real_layers(layers, &p.meter, s, p.transitions);
    let sw = s.dispatch_all(Outcome::Path(CallPath::Switchless));
    layers.set("zc.dispatch_p50_ns.switchless", sw.quantile(0.50));
    layers.set("zc.dispatch_p99_ns.switchless", sw.quantile(0.99));
    let fb = s.dispatch_all(Outcome::Path(CallPath::Fallback));
    layers.set("zc.dispatch_p50_ns.fallback", fb.quantile(0.50));
    let st = &p.stats;
    layers.set(
        "zc.fallback_ratio",
        st.fallback as f64 / (st.switchless + st.fallback).max(1) as f64,
    );
    layers.set(
        "zc.pool_reallocs_per_kcall",
        st.pool_reallocs as f64 * 1e3 / st.total_calls().max(1) as f64,
    );
    layers.set("supervise.watchdog_cancels", st.cancelled as f64);
    if let Some((before, after)) = &hubbed.profile {
        let (b, a) = (
            before.path(CallPath::Switchless),
            after.path(CallPath::Switchless),
        );
        for (phase, name) in Phase::ALL.iter().zip([
            "zc.phase_ns.reserve",
            "zc.phase_ns.copy_in",
            "zc.phase_ns.signal",
            "zc.phase_ns.wait",
            "zc.phase_ns.execute",
            "zc.phase_ns.copy_out",
        ]) {
            let (pb, pa) = (&b.phases[phase.index()], &a.phases[phase.index()]);
            let cycles = (pa.sum - pb.sum) as f64 / (pa.count - pb.count).max(1) as f64;
            layers.set(name, cycles / hubbed.cpu.freq_hz as f64 * 1e9);
        }
    }
    layers.set(
        "sched.decisions_per_s",
        p.decisions as f64 / p.meter.elapsed_s(),
    );
    let mean = |(sum, n): (f64, u64)| sum / n.max(1) as f64;
    layers.set("sched.mean_workers.burst", mean(p.workers[0]));
    layers.set("sched.mean_workers.sparse", mean(p.workers[1]));
}

/// Start a ZC runtime, with a telemetry hub when tracing.
pub fn start_zc(
    config: ZcConfig,
    table: OcallTable,
    enclave: &Enclave,
    hub: Option<&Arc<Telemetry>>,
) -> Result<ZcRuntime, String> {
    let table = Arc::new(table);
    match hub {
        Some(h) => {
            ZcRuntime::start_with_telemetry(config, table, enclave.clone(), Arc::clone(h), None)
        }
        None => ZcRuntime::start(config, table, enclave.clone()),
    }
    .map_err(|e| format!("runtime start: {e}"))
}

/// Block until the scheduler has finished its first configuration phase,
/// so timing starts on a settled worker count.
pub fn await_first_decision(rt: &ZcRuntime) {
    let t0 = Instant::now();
    while rt.scheduler_decisions() == 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Keys {
    keys: Vec<u64>,
    reference: BTreeMap<u64, u64>,
    rng: SplitMix64,
}

impl Keys {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6b76_5f7a_6300_0001);
        let mut reference = BTreeMap::new();
        while reference.len() < KEYS {
            reference.insert(rng.next_u64(), rng.next_u64());
        }
        Keys {
            keys: reference.keys().copied().collect(),
            reference,
            rng,
        }
    }

    /// One application op: SET a fresh value, or GET and check it.
    fn op(&mut self, db: &mut KissDb<'_>) -> OpResult {
        let key = self.keys[self.rng.next_below(KEYS as u64) as usize];
        if self.rng.next_u64() & 1 == 0 {
            let v = self.rng.next_u64();
            db.put(&key.to_le_bytes(), &v.to_le_bytes())
                .map_err(|e| Ok(format!("SET: {e}")))?;
            self.reference.insert(key, v);
            Ok(())
        } else {
            let got = db
                .get(&key.to_le_bytes())
                .map_err(|e| Ok(format!("GET: {e}")))?;
            oracle::kv_get(key, got.as_deref(), self.reference[&key]).map_err(Err)
        }
    }
}

fn pass(args: &Args, probe: Probe<'_>, report: &mut Report) -> Result<ZcPass, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let fs = HostFs::new();
        let mut table = OcallTable::new();
        let funcs = FsFuncs::register(&mut table, &fs);
        let cpu = CpuSpec::host_machine();
        let enclave = Enclave::new(cpu);
        let rt = start_zc(ZcConfig::for_cpu(cpu), table, &enclave, probe.hub)?;
        let mut keys = Keys::new(args.seed);
        {
            let mut db = KissDb::open(EnclaveIo::new(&rt, funcs), DB, HASH, 8, 8)
                .map_err(|e| format!("preload open: {e}"))?;
            for (k, v) in &keys.reference {
                db.put(&k.to_le_bytes(), &v.to_le_bytes())
                    .map_err(|e| format!("preload: {e}"))?;
            }
            db.close().map_err(|e| format!("preload close: {e}"))?;
        }
        let wrapper;
        let disp: &dyn OcallDispatcher = match probe.spans {
            Some(log) => {
                wrapper = Traced { inner: &rt, log };
                &wrapper
            }
            None => &rt,
        };
        let mut db = KissDb::open(EnclaveIo::new(disp, funcs), DB, HASH, 8, 8)
            .map_err(|e| format!("open: {e}"))?;
        for _ in 0..WARMUP_OPS {
            if let Err(e) = keys.op(&mut db) {
                return Err(format!("warm-up: {e:?}"));
            }
        }
        await_first_decision(&rt);
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            db.close().map_err(|e| format!("close: {e}"))?;
            rt.shutdown();
            continue;
        }

        let profile0 = probe.hub.map(|h| h.profile().snapshot());
        let stats0 = rt.stats().snapshot();
        let (decisions0, ocalls0) = (rt.scheduler_decisions(), enclave.ocalls());
        let mut workers = (0.0, 0u64);
        let meter = timed_rounds(
            args,
            report,
            probe.spans,
            &[(0, ROUND_OPS)],
            |_| {
                if probe.spans.is_some() {
                    workers.0 += rt.active_workers() as f64;
                    workers.1 += 1;
                }
            },
            |_| keys.op(&mut db),
            || Ok(()),
        );
        let stats = rt.stats().snapshot().delta_since(&stats0);
        let decisions = rt.scheduler_decisions() - decisions0;
        let transitions = enclave.ocalls() - ocalls0;
        let profile = probe
            .hub
            .zip(profile0)
            .map(|(h, p0)| (p0, h.profile().snapshot()));

        // Oracles: the store holds exactly the reference map, and the
        // runtime accounted for every ocall the host fs served.
        let entries = db.iter_all().map_err(|e| format!("iter_all: {e}"))?;
        report.check(oracle::kv_contents(&entries, &keys.reference));
        db.close().map_err(|e| format!("close: {e}"))?;
        let all = rt.stats().snapshot();
        let (reads, writes, seeks) = fs.op_counts();
        report.check(oracle::calls_cover_host(
            all.total_calls(),
            all.issued,
            reads + writes + seeks + OPEN_CLOSE_OCALLS,
        ));
        rt.shutdown();
        return Ok(ZcPass {
            setups,
            meter,
            cpu,
            stats,
            decisions,
            transitions,
            workers: [workers, (0.0, 0)],
            profile,
        });
    }
    unreachable!("the last setup runs the timed pass")
}

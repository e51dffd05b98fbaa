//! `des_campaign`: a fixed slice of the figure campaign through
//! `zc_des::run`. Setup records a real kissdb SET trace; each round replays
//! it under `no_sl`, `i-all-2` and `zc` on the paper machine with the
//! default (cycle-accurate) kernel, as Figs. 8 and 9 do, then runs one
//! open-loop MMPP run on the event kernel at many vCPUs. One op is one
//! simulated ocall; its cost is host time.

use crate::measure::{median, Meter};
use crate::{oracle, overhead_pct, Args, Layers, Report};
use sgx_sim::hostfs::FsFuncs;
use std::sync::Arc;
use std::time::Instant;
use switchless_core::{FuncId, SplitMix64};
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::{
    ArrivalProcess, CallDesc, Mechanism, OpenLoad, ServiceDist, SimConfig, SimReport, WorkloadSpec,
    ZcSimParams,
};
use zc_telemetry::Telemetry;
use zc_workloads::efile::{regular_fixture, EnclaveIo};
use zc_workloads::trace::{fs_trace_to_calls, HostCostModel, TraceRecorder};
use zc_workloads::KissDb;

/// kissdb SETs recorded during setup (8 B keys and values, as in Fig. 8).
const TRACE_SETS: u64 = 1500;
/// Enclave callers sharing the replayed trace (as the Fig. 8 harness).
const REPLAY_CALLERS: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed, checked rounds after the trace is recorded (part of setup).
const WARMUP_ROUNDS: usize = 3;
/// Call classes: fopen, fclose, fseeko, fread, fwrite.
const CLASSES: usize = 5;
const FSEEKO: usize = 2;
const FREAD: usize = 3;
const FWRITE: usize = 4;

/// Open-loop run: vCPUs, generators, window and MMPP shape (cycles).
const OPEN_VCPUS: usize = 64;
const OPEN_CALLERS: usize = 16;
const OPEN_WINDOW_CYCLES: u64 = 2_000_000;
const OPEN_SERVICE_CYCLES: u64 = 2_000;
const OPEN_MMPP: ArrivalProcess = ArrivalProcess::Mmpp {
    calm_gap_cycles: 40_000,
    burst_gap_cycles: 4_000,
    calm_dwell_cycles: 200_000,
    burst_dwell_cycles: 100_000,
};

const LABELS: [&str; 3] = ["no_sl", "intel", "zc"];

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let plain = pass(args, None, &mut report)?;
    if !args.trace {
        return report.end_to_end(&plain.setups, &plain.meter);
    }
    // Every simulation is timed in every pass; the traced pass adds the
    // telemetry hub, which the DES feeds with scheduler events.
    let hub = Telemetry::new();
    let traced = pass(args, Some(&hub), &mut report)?;
    let mut layers = Layers::default();
    for (i, name) in [
        "des.replay_calls_per_s.no_sl",
        "des.replay_calls_per_s.intel",
        "des.replay_calls_per_s.zc",
        "des.event_kernel_calls_per_s",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(name, median(&traced.sim_rates[i]));
    }
    layers.set("des.trace_record_s", median(&traced.record_s));
    layers.set(
        "telemetry.hub_overhead_pct",
        overhead_pct(plain.meter.ops_per_s(), traced.meter.ops_per_s()),
    );
    layers.set("telemetry.events_dropped", hub.tracer().dropped() as f64);
    report.per_layer(&layers);
    Ok(report)
}

struct DesPass {
    setups: Vec<f64>,
    record_s: Vec<f64>,
    meter: Meter,
    /// Simulated calls per host second of each sim, per round:
    /// the three replays then the open-loop run.
    sim_rates: [Vec<f64>; 4],
}

fn class_of(f: FuncId, funcs: &FsFuncs) -> usize {
    [
        funcs.fopen,
        funcs.fclose,
        funcs.fseeko,
        funcs.fread,
        funcs.fwrite,
    ]
    .iter()
    .position(|&g| g == f)
    .expect("trace holds only fs ocalls")
}

/// Record the ocall trace of `TRACE_SETS` seeded kissdb SETs.
fn record_trace(seed: u64) -> Result<Vec<CallDesc>, String> {
    let (_fs, disp, funcs) = regular_fixture();
    let rec = TraceRecorder::new(disp);
    let mut db = KissDb::open(EnclaveIo::new(&rec, funcs), "/trace.db", 1024, 8, 8)
        .map_err(|e| format!("trace open: {e}"))?;
    let mut rng = SplitMix64::new(seed ^ 0x6465_735f_7472_6301);
    for _ in 0..TRACE_SETS {
        db.put(&rng.next_u64().to_le_bytes(), &rng.next_u64().to_le_bytes())
            .map_err(|e| format!("trace put: {e}"))?;
    }
    db.close().map_err(|e| format!("trace close: {e}"))?;
    // kissdb's in-enclave work per op is tiny: 100 cycles, as in Fig. 8.
    Ok(fs_trace_to_calls(
        &rec.trace(),
        &funcs,
        &HostCostModel::default(),
        |f| class_of(f, &funcs),
        |_| 100,
    ))
}

struct Campaign {
    replays: Vec<SimConfig>,
    open: SimConfig,
    /// Per-caller host-work bound on any replay's simulated duration.
    bound_cycles: u64,
    trace_len: u64,
}

impl Campaign {
    fn new(trace: &[CallDesc], seed: u64, hub: Option<&Arc<Telemetry>>) -> Self {
        let per = trace.len().div_ceil(REPLAY_CALLERS);
        let chunks: Vec<&[CallDesc]> = trace.chunks(per.max(1)).collect();
        let bound_cycles = chunks
            .iter()
            .map(|c| c.iter().map(|d| d.host_cycles).sum::<u64>())
            .max()
            .unwrap_or(0);
        let workloads: Vec<WorkloadSpec> = chunks
            .iter()
            .map(|c| WorkloadSpec::ClosedLoop {
                pattern: c.to_vec(),
                total_ops: c.len() as u64,
            })
            .collect();
        let traced = |c: SimConfig| match hub {
            Some(h) => c.with_telemetry(Arc::clone(h)),
            None => c,
        };
        let replays = [
            Mechanism::NoSl,
            Mechanism::Intel(IntelSimConfig::new(2, [FSEEKO, FREAD, FWRITE])),
            Mechanism::Zc(ZcSimParams::default()),
        ]
        .into_iter()
        .map(|m| traced(SimConfig::new(m, workloads.clone(), CLASSES)))
        .collect();
        let call = CallDesc {
            class: 0,
            host_cycles: OPEN_SERVICE_CYCLES,
            payload_bytes: 64,
            ret_bytes: 64,
            ..CallDesc::default()
        };
        let load = OpenLoad::new(call, OPEN_MMPP, seed, OPEN_WINDOW_CYCLES).with_service(
            ServiceDist::Exponential {
                mean_cycles: OPEN_SERVICE_CYCLES,
            },
        );
        let open = traced(
            SimConfig::new(
                Mechanism::Zc(ZcSimParams::default()),
                vec![WorkloadSpec::Open(load); OPEN_CALLERS],
                1,
            )
            .with_vcpus(OPEN_VCPUS)
            .with_event_kernel(),
        );
        Campaign {
            replays,
            open,
            bound_cycles,
            trace_len: trace.len() as u64,
        }
    }

    /// Run one round, checking every report; returns each sim's
    /// simulated calls and host seconds.
    fn round(&self, report: &mut Report) -> [(u64, f64); 4] {
        let mut out = [(0, 0.0); 4];
        let mut durations = [0u64; 3];
        for (i, cfg) in self.replays.iter().enumerate() {
            let (r, secs) = timed(cfg);
            report.check(oracle::replay(
                LABELS[i],
                r.counters.total_calls(),
                self.trace_len,
                r.duration_cycles,
                self.bound_cycles,
            ));
            durations[i] = r.duration_cycles;
            out[i] = (r.counters.total_calls(), secs);
        }
        report.check(oracle::zc_beats_no_sl(durations[2], durations[0]));
        let (r, secs) = timed(&self.open);
        let c = &r.counters;
        report.check(oracle::open_loop_conserves(
            c.offered,
            c.total_calls(),
            c.ops_shed,
            c.ops_abandoned,
            c.refused_non_idempotent,
        ));
        out[3] = (c.total_calls(), secs);
        out
    }
}

fn timed(cfg: &SimConfig) -> (SimReport, f64) {
    let t = Instant::now();
    let r = zc_des::run(cfg);
    (r, t.elapsed().as_secs_f64())
}

fn pass(args: &Args, hub: Option<&Arc<Telemetry>>, report: &mut Report) -> Result<DesPass, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut record_s = Vec::with_capacity(SETUPS);
    let mut campaign = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let trace = record_trace(args.seed)?;
        record_s.push(t0.elapsed().as_secs_f64());
        let c = Campaign::new(&trace, args.seed, hub);
        for _ in 0..WARMUP_ROUNDS {
            c.round(report);
        }
        setups.push(t0.elapsed().as_secs_f64());
        campaign = Some(c);
    }
    let campaign = campaign.expect("at least one setup");
    let mut sim_rates: [Vec<f64>; 4] = Default::default();
    let mut meter = Meter::start();
    loop {
        for (rates, (calls, secs)) in sim_rates.iter_mut().zip(campaign.round(report)) {
            meter.batch(calls, secs * 1e9 / calls.max(1) as f64);
            report.attempted += calls;
            rates.push(calls as f64 / secs);
        }
        if !meter.end_round(args.pass_seconds()) {
            break;
        }
    }
    meter.stop();
    Ok(DesPass {
        setups,
        record_s,
        meter,
        sim_rates,
    })
}

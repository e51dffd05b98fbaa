//! `crypto_intel`: AES-256-CBC round trip of a seeded file in KiB chunks
//! (`encrypt_file` then `decrypt_file`) on `IntelSwitchless` with one
//! worker and the paper's static `frw` set: `fread`/`fwrite` switchless,
//! `fopen`/`fclose` regular. No ZC code runs.

use crate::measure::Meter;
use crate::trace::{Outcome, Traced};
use crate::{oracle, timed_rounds, Args, Layers, OpResult, Probe, Report, TracedRun};
use intel_switchless::IntelSwitchless;
use sgx_sim::hostfs::{FsFuncs, HostFs};
use sgx_sim::Enclave;
use std::sync::Arc;
use std::time::Instant;
use switchless_core::{CallPath, CpuSpec, IntelConfig, OcallDispatcher, OcallTable, SplitMix64};
use zc_workloads::crypto::{decrypt_file, encrypt_file, Aes256, BLOCK};
use zc_workloads::EnclaveIo;

/// Plaintext size; with [`CHUNK`] it makes 2 frames per direction and
/// ~20 ocalls per round trip. On a 2-vCPU host about one switchless
/// dispatch in 3000 stalls for > 50 µs (the worker loses its core); with
/// 30 ocalls per op those stalls hit ~1% of ops and the p99 sat on that
/// knee, with 20 they hit ~0.7% and the p99 stays in the body.
const FILE_BYTES: usize = 4 * 1024;
const CHUNK: usize = 2 * 1024;
/// Intel untrusted workers: one, so caller + worker fit two host cores.
const WORKERS: usize = 1;
/// Round trips per round (≈ 1.2 s on a 2-vCPU host): 40 latency samples
/// lie beyond each round's p99.
const ROUND_OPS: u64 = 4000;
/// Untimed round trips after start-up (part of setup).
const WARMUP_OPS: u64 = 400;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let plain = pass(args, Probe::default(), &mut report)?;
    if !args.trace {
        return report.end_to_end(&plain.setups, &plain.meter);
    }
    let t = TracedRun::default();
    let spans = pass(args, t.spans(), &mut report)?;
    let hubbed = pass(args, t.hub(), &mut report)?;
    let s = t.spans.summary();
    let mut layers = Layers::default();
    crate::real_layers(&mut layers, &spans.meter, &s, spans.transitions);
    layers.set(
        "intel.dispatch_p50_ns.switchless",
        s.dispatch_all(Outcome::Path(CallPath::Switchless))
            .quantile(0.5),
    );
    layers.set(
        "intel.dispatch_p50_ns.regular",
        s.dispatch_all(Outcome::Path(CallPath::Regular))
            .quantile(0.5),
    );
    layers.set("intel.fallback_ratio", spans.fallback_ratio);
    layers.set("intel.worker_sleep_share", spans.sleep_share);
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

struct CryptoPass {
    setups: Vec<f64>,
    meter: Meter,
    transitions: u64,
    fallback_ratio: f64,
    /// Mean sampled share of workers asleep on the wake condvar.
    sleep_share: f64,
}

struct Input {
    plaintext: Vec<u8>,
    aes: Aes256,
    iv: [u8; BLOCK],
}

impl Input {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6165_735f_6362_6301);
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n.div_ceil(8))
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .take(n)
                .collect()
        };
        let key: [u8; 32] = bytes(32).try_into().expect("32 bytes");
        let iv: [u8; BLOCK] = bytes(BLOCK).try_into().expect("16 bytes");
        Input {
            plaintext: bytes(FILE_BYTES),
            aes: Aes256::new(&key),
            iv,
        }
    }

    /// One application op: encrypt `/plain` to `/cipher`, decrypt it to
    /// `/restored`.
    fn op(&self, io: &EnclaveIo<'_>) -> OpResult {
        encrypt_file(io, &self.aes, &self.iv, "/plain", "/cipher", CHUNK)
            .map_err(|e| Ok(format!("encrypt: {e}")))?;
        decrypt_file(io, &self.aes, &self.iv, "/cipher", "/restored")
            .map_err(|e| Ok(format!("decrypt: {e}")))?;
        Ok(())
    }

    fn check(&self, fs: &HostFs) -> oracle::Check {
        let read = |p: &str| fs.file_contents(p).ok_or(format!("{p} missing"));
        oracle::crypto_round_trip(
            &self.aes,
            &self.iv,
            &self.plaintext,
            CHUNK,
            &read("/cipher")?,
            &read("/restored")?,
        )
    }
}

fn pass(args: &Args, probe: Probe<'_>, report: &mut Report) -> Result<CryptoPass, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let fs = HostFs::new();
        let mut table = OcallTable::new();
        let funcs = FsFuncs::register(&mut table, &fs);
        let enclave = Enclave::new(CpuSpec::host_machine());
        let config = IntelConfig::new(WORKERS, [funcs.fread, funcs.fwrite]);
        let table = Arc::new(table);
        let rt = match probe.hub {
            Some(hub) => IntelSwitchless::start_with_telemetry(
                config,
                table,
                enclave.clone(),
                Arc::clone(hub),
                None,
            ),
            None => IntelSwitchless::start(config, table, enclave.clone()),
        }
        .map_err(|e| format!("runtime start: {e}"))?;
        report.check(oracle::nist_cbc_aes256());
        let input = Input::new(args.seed);
        fs.put_file("/plain", input.plaintext.clone());
        let wrapper;
        let disp: &dyn OcallDispatcher = match probe.spans {
            Some(log) => {
                wrapper = Traced { inner: &rt, log };
                &wrapper
            }
            None => &rt,
        };
        let io = EnclaveIo::new(disp, funcs);
        for _ in 0..WARMUP_OPS {
            input.op(&io).map_err(|e| format!("warm-up: {e:?}"))?;
        }
        report.check(input.check(&fs));
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            rt.shutdown();
            continue;
        }

        let stats0 = rt.stats().snapshot();
        let ocalls0 = enclave.ocalls();
        let mut asleep = (0.0, 0u64);
        let meter = timed_rounds(
            args,
            report,
            probe.spans,
            &[(0, ROUND_OPS)],
            |_| {
                if probe.spans.is_some() {
                    asleep.0 += rt.sleeping_workers() as f64 / WORKERS as f64;
                    asleep.1 += 1;
                }
            },
            |_| input.op(&io),
            || input.check(&fs),
        );
        let st = rt.stats().snapshot().delta_since(&stats0);
        let transitions = enclave.ocalls() - ocalls0;
        rt.shutdown();
        return Ok(CryptoPass {
            setups,
            meter,
            transitions,
            fallback_ratio: st.fallback as f64 / (st.switchless + st.fallback).max(1) as f64,
            sleep_share: asleep.0 / asleep.1.max(1) as f64,
        });
    }
    unreachable!("the last setup runs the timed pass")
}

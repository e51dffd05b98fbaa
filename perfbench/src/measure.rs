//! Measurement primitives: a latency histogram, round-based throughput,
//! process/thread CPU time and peak RSS.

use std::time::Instant;

/// Sub-buckets per power-of-two octave (2^SUB_BITS): a bucket is at most
/// 1/128 ≈ 0.8% wide relative to its lower edge.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Log-linear histogram of nanosecond latencies. Quantiles interpolate by
/// rank inside their bucket, so they move continuously with the data
/// instead of snapping to bucket edges.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    (SUB + u64::from(shift) * SUB + sub) as usize
}

/// `(lower edge, width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile `q` in (0, 1], interpolated within the
    /// bucket holding that rank. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = bucket_range(i);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} lies within the {} recorded samples", self.n)
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// User + system CPU in microseconds, from `getrusage(2)`.
fn cpu_us(who: i32) -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` with the
    // 64-bit Linux layout, and `who` is one of the two constants above.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    tv(&ru.utime) + tv(&ru.stime)
}

/// CPU of the whole process (every thread, spinning workers included).
pub fn process_cpu_us() -> f64 {
    cpu_us(RUSAGE_SELF)
}

/// CPU of the calling thread only.
pub fn thread_cpu_us() -> f64 {
    cpu_us(RUSAGE_THREAD)
}

/// Peak resident set of this process image in MiB (`VmHWM`). Unlike
/// `ru_maxrss`, it does not inherit the peak of the process that spawned
/// this one (cargo, a shell, a harness script).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Latency samples a round needs before its own p50/p99 count: with 1000
/// samples, ten lie beyond the p99.
pub const ROUND_MIN_SAMPLES: usize = 1000;

/// Nearest-rank quantile of `xs` (reordered in place).
fn nearest_rank(xs: &mut [u64], q: f64) -> f64 {
    let k = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    *xs.select_nth_unstable(k).1 as f64
}

/// Timed-run accumulator. A run is a sequence of rounds; each round
/// yields its throughput, CPU per op and (with at least
/// [`ROUND_MIN_SAMPLES`] latency samples) its p50 and p99. The run
/// reports the median over rounds of each, so a host stall that spoils a
/// few rounds moves no metric much.
pub struct Meter {
    /// Every latency sample of the run.
    lat: Hist,
    pub ops: u64,
    round_lat: Vec<u64>,
    round_rates: Vec<f64>,
    round_cpu: Vec<f64>,
    round_p50: Vec<f64>,
    round_p99: Vec<f64>,
    start: Instant,
    round_start: Instant,
    round_cpu0: f64,
    round_ops: u64,
    cpu0: f64,
    thread_cpu0: f64,
    elapsed_s: f64,
    cpu_us: f64,
    thread_cpu_us: f64,
}

impl Meter {
    pub fn start() -> Self {
        let now = Instant::now();
        let cpu0 = process_cpu_us();
        Meter {
            lat: Hist::default(),
            ops: 0,
            round_lat: Vec::new(),
            round_rates: Vec::new(),
            round_cpu: Vec::new(),
            round_p50: Vec::new(),
            round_p99: Vec::new(),
            start: now,
            round_start: now,
            round_cpu0: cpu0,
            round_ops: 0,
            cpu0,
            thread_cpu0: thread_cpu_us(),
            elapsed_s: 0.0,
            cpu_us: 0.0,
            thread_cpu_us: 0.0,
        }
    }

    /// Record one completed op that started at `t0`.
    #[inline]
    pub fn op(&mut self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.lat.record(ns);
        self.round_lat.push(ns);
        self.ops += 1;
        self.round_ops += 1;
    }

    /// Record `ops` ops completed by one batch (a whole simulation) as a
    /// single latency sample of `ns_per_op` each.
    pub fn batch(&mut self, ops: u64, ns_per_op: f64) {
        let ns = ns_per_op.round() as u64;
        self.lat.record(ns);
        self.round_lat.push(ns);
        self.ops += ops;
        self.round_ops += ops;
    }

    /// Close the current round; returns `true` while the run should go on.
    pub fn end_round(&mut self, seconds: f64) -> bool {
        let now = Instant::now();
        let cpu = process_cpu_us();
        let ops = self.round_ops.max(1) as f64;
        self.round_rates
            .push(ops / now.duration_since(self.round_start).as_secs_f64());
        self.round_cpu.push((cpu - self.round_cpu0) / ops);
        if self.round_lat.len() >= ROUND_MIN_SAMPLES {
            self.round_p50.push(nearest_rank(&mut self.round_lat, 0.50));
            self.round_p99.push(nearest_rank(&mut self.round_lat, 0.99));
        }
        self.round_lat.clear();
        self.round_start = now;
        self.round_cpu0 = cpu;
        self.round_ops = 0;
        now.duration_since(self.start).as_secs_f64() < seconds
    }

    /// Stop the clocks (call on the caller thread, before teardown).
    pub fn stop(&mut self) {
        self.elapsed_s = self.start.elapsed().as_secs_f64();
        self.cpu_us = process_cpu_us() - self.cpu0;
        self.thread_cpu_us = thread_cpu_us() - self.thread_cpu0;
        let mut r = self.round_rates.clone();
        r.sort_by(f64::total_cmp);
        let at = |q: f64| r[((r.len() - 1) as f64 * q) as usize];
        eprintln!(
            "timed: {} rounds, {} ops in {:.3} s; round ops/s min {:.0} p25 {:.0} p50 {:.0} p75 {:.0} max {:.0}",
            r.len(),
            self.ops,
            self.elapsed_s,
            at(0.0),
            at(0.25),
            at(0.5),
            at(0.75),
            at(1.0)
        );
    }

    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Median of the per-round rates.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.round_rates)
    }

    /// Median of the per-round latency quantile `q` (0.5 or 0.99), in ns;
    /// from all samples when no round held enough of them (a simulation
    /// round yields one sample per simulation).
    pub fn latency_ns(&self, q: f64) -> f64 {
        let rounds = if q < 0.9 {
            &self.round_p50
        } else {
            &self.round_p99
        };
        if rounds.is_empty() {
            self.lat.quantile(q)
        } else {
            median(rounds)
        }
    }

    /// Median of the per-round process CPU per op.
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.round_cpu)
    }

    /// Process CPU minus the caller thread's own, per op over the whole
    /// run: what the runtime's workers and helper threads burn.
    pub fn runtime_cpu_us_per_op(&self) -> f64 {
        (self.cpu_us - self.thread_cpu_us) / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            (1 << 40) + 12_345,
        ] {
            let (lo, w) = bucket_range(bucket_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v} in [{lo}, {lo}+{w})"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_ranks_within_a_bucket_width() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "p99 {p99}");
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! Order statistics and process resource readings.

use std::io;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A nearest-rank percentile, with how many samples rank after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: u64,
}

/// Nearest rank (1-based) of the `p`-th percentile of `n` samples.
fn rank(n: u64, p: u32) -> u64 {
    (u64::from(p) * n).div_ceil(100).max(1)
}

/// Fewest samples for which the `p`-th percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples_for(p: u32) -> u64 {
    let mut n = MIN_BEYOND + 1;
    while n - rank(n, p) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Smallest latency bucket, in µs, and the ratio between neighbours.
const LOWEST_US: f64 = 0.01;
const GROWTH: f64 = 1.001;
/// Enough buckets to reach past ten minutes.
const BUCKETS: usize = 25_000;

/// Call latencies in log-spaced buckets 0.1% wide. Memory stays fixed
/// however many calls a run makes, so the peak RSS the benchmark reports
/// does not grow with throughput; a percentile is off by at most 0.05%.
pub struct Latencies {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Latencies {
    pub fn record(&mut self, us: f64) {
        let b = ((us / LOWEST_US).ln() / GROWTH.ln()).floor();
        let b = if b >= 0.0 {
            (b as usize).min(BUCKETS - 1)
        } else {
            0
        };
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank `p`-th percentile (0 < p ≤ 100): the geometric middle
    /// of the bucket holding that rank.
    pub fn percentile(&self, p: u32) -> Option<Percentile> {
        if self.n == 0 || p == 0 || p > 100 {
            return None;
        }
        let rank = rank(self.n, p);
        let mut seen = 0;
        let b = self.counts.iter().position(|&c| {
            seen += c;
            seen >= rank
        })?;
        Some(Percentile {
            value: LOWEST_US * GROWTH.powf(b as f64 + 0.5),
            beyond: self.n - rank,
        })
    }

    /// Like [`Latencies::percentile`], but refuses a percentile with
    /// fewer than [`MIN_BEYOND`] samples beyond it: such a tail is a
    /// handful of outliers, not a measurement.
    pub fn supported_percentile(&self, p: u32) -> Result<Percentile, String> {
        let q = self
            .percentile(p)
            .ok_or_else(|| format!("no samples for p{p}"))?;
        if q.beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} of {} samples has only {} beyond it (need {MIN_BEYOND})",
                self.n, q.beyond
            ));
        }
        Ok(q)
    }
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

mod sys {
    #[repr(C)]
    pub struct TimeVal {
        pub sec: i64,
        pub usec: i64,
    }

    #[repr(C)]
    pub struct RUsage {
        pub utime: TimeVal,
        pub stime: TimeVal,
        pub rest: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// User plus system CPU time of the whole process, in microseconds.
pub fn process_cpu_us() -> u64 {
    let mut ru = std::mem::MaybeUninit::<sys::RUsage>::uninit();
    // SAFETY: `ru` points to writable storage of the `struct rusage` size
    // on x86-64/aarch64 Linux (two timevals and fourteen longs).
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, ru.as_mut_ptr()) };
    // getrusage fails only for an invalid `who` or buffer address.
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // SAFETY: getrusage returned 0, so it filled the whole struct.
    let ru = unsafe { ru.assume_init() };
    let us = |t: &sys::TimeVal| (t.sec as u64) * 1_000_000 + t.usec as u64;
    us(&ru.utime) + us(&ru.stime)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = f64>) -> Latencies {
        let mut h = Latencies::default();
        for v in values {
            h.record(v);
        }
        h
    }

    fn close(a: f64, b: f64) -> bool {
        (a / b - 1.0).abs() <= 0.0005
    }

    #[test]
    fn nearest_rank_percentiles() {
        let h = hist((1..=100).map(f64::from));
        let p50 = h.percentile(50).unwrap();
        assert!(close(p50.value, 50.0), "{p50:?}");
        let p90 = h.percentile(90).unwrap();
        assert!(close(p90.value, 90.0), "{p90:?}");
        assert_eq!(p90.beyond, 10);
        let p100 = h.percentile(100).unwrap();
        assert!(close(p100.value, 100.0));
        assert_eq!(p100.beyond, 0);
        assert!(close(hist([7.0]).percentile(50).unwrap().value, 7.0));
        assert!(Latencies::default().percentile(50).is_none());
        assert!(h.percentile(0).is_none());
        // Out-of-range samples land in the end buckets.
        assert_eq!(hist([0.0, 1e12]).len(), 2);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(90), 100);
        let ok = hist((0..100).map(f64::from));
        assert_eq!(ok.supported_percentile(90).unwrap().beyond, 10);
        let short = hist((0..99).map(f64::from));
        assert!(short.supported_percentile(90).is_err());
        // p99 would need a thousand samples: why the benchmark reports p90.
        assert_eq!(min_samples_for(99), 1000);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn resource_readings_are_positive() {
        let mut spin = 0u64;
        for i in 0..2_000_000u64 {
            spin = std::hint::black_box(spin.wrapping_add(i));
        }
        assert!(process_cpu_us() > 0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}

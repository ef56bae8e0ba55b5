//! Percentiles, quartiles, digests and process memory — the arithmetic
//! every report line rests on.

use std::fmt;

/// Percentiles the tail rule may pick from, in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank percentile given
/// in per-mille.
fn beyond(n: usize, permille: u64) -> usize {
    let rank = (permille as usize * n).div_ceil(1000);
    n - rank
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] beyond the
/// percentile `p` — the condition for reporting that percentile at all.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, (p * 10.0).round() as u64) >= TAIL_MIN_BEYOND
}

/// The highest conventional percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .find(|&&pm| beyond(n, pm) >= TAIL_MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 64-bit FNV-1a, fed through `fmt::Write` so `Debug` output hashes
/// without allocating.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a value's `Debug` rendering (every field, exact float
    /// digits) into the digest.
    pub fn debug(&mut self, v: &impl fmt::Debug) {
        use fmt::Write;
        write!(self, "{v:?}").expect("hashing never fails");
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...) in MiB;
/// `None` where `/proc` is unavailable.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some(10.5 / 4.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "tick_p50_us",
            "setup_s",
            "runtime.planner.share",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/tick",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv::default();
        a.bytes(b"ab");
        let mut b = Fnv::default();
        b.bytes(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.debug(&(1u8, 2.5f64));
        let mut d = Fnv::default();
        d.bytes(b"(1, 2.5)");
        assert_eq!(c.finish(), d.finish());
    }
}

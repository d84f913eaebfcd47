//! Order statistics, process memory readings and the report lines every
//! workload prints.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`, which is sorted
/// in place.  Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at least
/// ten samples beyond it, as `(label, quantile)`.  `None` when even the
/// median has fewer than ten samples above it.
pub fn supported_tail(count: usize) -> Option<(&'static str, f64)> {
    // (label, quantile, 1 / (1 - quantile)): at least ten samples lie
    // beyond the quantile once `count >= 10 / (1 - quantile)`.
    const TAILS: [(&str, f64, usize); 5] = [
        ("p99.99", 0.9999, 10_000),
        ("p99.9", 0.999, 1_000),
        ("p99", 0.99, 100),
        ("p90", 0.9, 10),
        ("p50", 0.5, 2),
    ];
    TAILS
        .into_iter()
        .find(|&(_, _, inverse)| count >= 10 * inverse)
        .map(|(label, q, _)| (label, q))
}

/// Prints one timing line: the median, the sample count and the highest
/// percentile the sample supports.  Returns the median.
pub fn report_timing(workload: &str, name: &str, unit: &str, samples: &mut [f64]) -> f64 {
    let p50 = median(samples);
    let tail = match supported_tail(samples.len()) {
        Some((label, q)) => format!("{label} {:.4} {unit}", percentile(samples, q)),
        None => "no percentile beyond p50 has 10 samples".to_string(),
    };
    println!(
        "{workload:<18} {name:<22} p50 {p50:.4} {unit}  n={}  {tail}",
        samples.len()
    );
    p50
}

/// Log-bucketed histogram of latencies in ms, from 100 ns to 100 s, with
/// buckets 0.5 % wide.  Its memory is fixed whatever the sample count, so
/// it leaves the process's peak RSS alone.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    const MIN_MS: f64 = 1e-4;
    const RATIO: f64 = 1.005;
    const BUCKETS: usize = 4160;

    pub fn record(&mut self, ms: f64) {
        let index = ((ms / Self::MIN_MS).ln() / Self::RATIO.ln()).floor();
        let index = (index.max(0.0) as usize).min(Self::BUCKETS - 1);
        self.counts[index] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile, to within half a bucket (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        let index = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("rank is within the total");
        Self::MIN_MS * Self::RATIO.powf(index as f64 + 0.5)
    }

    /// Prints the median, the sample count and the highest percentile with
    /// ten samples beyond it.
    pub fn report(&self, workload: &str, name: &str) {
        let tail = match supported_tail(self.total as usize) {
            Some((label, q)) => format!("{label} {:.4} ms", self.percentile(q)),
            None => "no percentile beyond p50 has 10 samples".to_string(),
        };
        println!(
            "{workload:<18} {name:<22} p50 {:.4} ms  n={}  {tail}",
            self.percentile(0.5),
            self.total
        );
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }
}

/// Prints one scalar line.
pub fn report_value(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<18} {name:<22} {value:.6} {unit}");
}

/// Prints a series of per-set-up values, in run order.
pub fn report_series(workload: &str, name: &str, values: &[f64]) {
    let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{workload:<18} {name:<22} {}", values.join(" "));
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reads a `kB` field of `/proc/self/status` in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.  Each workload
/// runs in its own process, so this is the workload's own peak.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set size, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.5), 50.0);
        assert_eq!(percentile(&mut samples, 0.99), 99.0);
        assert_eq!(percentile(&mut samples, 1.0), 100.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(f64::from(i) * 0.01);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.percentile(0.5) / 5.0 - 1.0).abs() < 0.005);
        assert!((h.percentile(0.99) / 9.9 - 1.0).abs() < 0.005);
        let mut other = Histogram::default();
        other.record(1e9);
        h.merge(&other);
        assert!(h.percentile(1.0) > 9e4);
        assert_eq!(Histogram::default().percentile(0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(100_000).map(|t| t.0), Some("p99.99"));
        assert_eq!(supported_tail(19), None);
    }
}

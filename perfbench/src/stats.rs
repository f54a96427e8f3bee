//! Order statistics and process measurements.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank
/// method; sorts in place. Zero for no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `across`-quantile, over consecutive runs of `len` samples, of
/// each run's `q`-quantile; a short last run is left out unless it is
/// the only one.
pub fn sliced(samples: &[f64], len: usize, q: f64, across: f64) -> f64 {
    let mut per_run: Vec<f64> = samples
        .chunks_exact(len.max(1))
        .map(|c| quantile(&mut c.to_vec(), q))
        .collect();
    if per_run.is_empty() {
        return quantile(&mut samples.to_vec(), q);
    }
    quantile(&mut per_run, across)
}

/// Whether `samples` has at least ten samples beyond its p99, the
/// condition for reporting that percentile.
pub fn p99_resolved(samples: usize) -> bool {
    samples >= 1000
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}

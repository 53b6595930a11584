//! Order statistics for the reported timings.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A tail timing: which percentile it is, its value, the samples it
/// was taken from, and how many of them lie beyond it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, as `"p90"`.
    pub label: String,
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples above the value. The percentile is well founded when at
    /// least ten are: serve rounds number in the hundreds per run, but a
    /// batch run has about ten jobs, too few for any tail percentile to
    /// have ten beyond it. Their maximum moved by a quarter between runs
    /// on a noisy host, so they still report the fixed percentile, and
    /// this count says how far to trust it.
    pub beyond: usize,
}

/// The `pct` percentile of `xs`. A workload fixes `pct` so the same
/// percentile is reported in every run of it.
pub fn tail(xs: &[f64], pct: u32) -> Tail {
    let value = quantile(xs, f64::from(pct) / 100.0);
    Tail {
        label: format!("p{pct}"),
        value,
        samples: xs.len(),
        beyond: xs.iter().filter(|&&x| x > value).count(),
    }
}

/// The median and the `pct` tail of grouped samples (one group per
/// input or per client), each the mean over groups of the group's own
/// figure. The groups differ in size of work, so a pooled figure would
/// jump between their modes with the mix of samples; the mean of
/// per-group figures does not. The tail's sample and beyond counts are
/// totals over the groups.
pub fn grouped(groups: &[Vec<f64>], pct: u32) -> (f64, Tail) {
    let k = groups.len().max(1) as f64;
    let tails: Vec<Tail> = groups.iter().map(|g| tail(g, pct)).collect();
    let t = Tail {
        label: format!("p{pct}"),
        value: tails.iter().map(|t| t.value).sum::<f64>() / k,
        samples: tails.iter().map(|t| t.samples).sum(),
        beyond: tails.iter().map(|t| t.beyond).sum(),
    };
    (groups.iter().map(|g| median(g)).sum::<f64>() / k, t)
}

/// Events per second as the median over whole windows of `window_s`
/// seconds: `at` holds each event's time in seconds from the start of
/// a phase of `wall_s` seconds. A burst of interference slows a few
/// windows and moves this median little, where it would pull the mean
/// rate over the whole phase. A phase shorter than one window reports
/// its mean rate.
pub fn windowed_rate(at: &[f64], wall_s: f64, window_s: f64) -> f64 {
    let windows = (wall_s / window_s).floor() as usize;
    if windows == 0 {
        return at.len() as f64 / wall_s;
    }
    let mut counts = vec![0.0; windows];
    for &t in at {
        if let Some(c) = counts.get_mut((t / window_s).floor() as usize) {
            *c += 1.0;
        }
    }
    median(&counts) / window_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 90);
        assert_eq!((t.label.as_str(), t.samples, t.beyond), ("p90", 100, 10));
        let few = tail(&xs[..10], 90);
        assert!((few.value - 9.1).abs() < 1e-9);
        assert_eq!(few.beyond, 1);
    }

    #[test]
    fn grouped_figures_average_per_group() {
        let (p50, t) = grouped(&[vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]], 50);
        assert_eq!(p50, 11.0);
        assert_eq!((t.label.as_str(), t.value), ("p50", 11.0));
        assert_eq!((t.samples, t.beyond), (6, 2));
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // 10 events a second for 4 s, with the third second stalled
        let at: Vec<f64> = (0..40)
            .filter(|i| i / 10 != 2)
            .map(|i| f64::from(i) / 10.0)
            .collect();
        assert_eq!(windowed_rate(&at, 4.0, 1.0), 10.0);
        // the partial last window (4 s on) is left out
        let at = [0.1, 0.2, 1.1, 1.2, 2.1, 2.2, 3.5, 4.1, 4.2, 4.3];
        assert_eq!(windowed_rate(&at, 4.6, 1.0), 2.0);
        // a phase shorter than one window gives its mean rate
        assert_eq!(windowed_rate(&[0.1, 0.2], 0.5, 1.0), 4.0);
    }
}

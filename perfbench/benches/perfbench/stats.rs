//! Order statistics over measured samples.

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).min(len)
}

/// Samples completing in each of `k` equal windows of `[0, span)`; a
/// sample completing at `span` or later counts in the last window.
pub fn window_counts(done_s: &[f64], span: f64, k: usize) -> Vec<usize> {
    let mut out = vec![0; k];
    for &t in done_s {
        out[((t / span * k as f64) as usize).min(k - 1)] += 1;
    }
    out
}

//! Order statistics the instrument reports. Copied (not imported) from the
//! bench crate's helpers so later edits to `openloop.rs`/`smoke.rs` cannot
//! change what this benchmark measures.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// without the `thin` mark.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`], refused (`None`) when fewer than [`MIN_TAIL`] samples lie
/// beyond it on either side: a p95 of forty samples is two observations.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    (n - r >= MIN_TAIL && r > MIN_TAIL).then(|| sorted[r - 1])
}

/// Sort ascending (latencies are never NaN; a NaN would sort last).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Run `f`, returning its result and how many seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// `num / den`, 0 when the denominator is 0 — for hit shares and per-answer
/// ratios whose denominator a workload may legitimately never touch.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.95), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn thin_tails_are_refused() {
        // p95 of 199 samples: rank 190, 9 beyond -> refused; 200 -> 10 beyond.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(supported_percentile(&v[..199], 0.95), None);
        assert_eq!(supported_percentile(&v, 0.95), Some(189.0));
        // The median needs ten samples on each side.
        assert_eq!(supported_percentile(&v[..20], 0.5), None);
        assert_eq!(supported_percentile(&v[..21], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}

//! Exact order statistics over recorded samples (nearest rank).

fn rank(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), 0.5)]
}

/// q-quantile of integer samples divided by `per_unit` (e.g. `1e6` to
/// turn nanoseconds into milliseconds). Sorts in place; 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64, per_unit: f64) -> f64 {
    samples.sort_unstable();
    quantile_sorted(samples, q, per_unit)
}

/// [`quantile`] of samples already in ascending order.
pub fn quantile_sorted(sorted: &[u64], q: f64, per_unit: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)] as f64 / per_unit
}

/// Mean of the middle half: drops the lowest and the highest quarter of
/// the values (0 when empty).
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let keep = &v[cut..v.len() - cut];
    if keep.is_empty() {
        return 0.0;
    }
    keep.iter().sum::<f64>() / keep.len() as f64
}

//! Order statistics and small helpers.

/// Exact nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it (p90, p99, p99.9, ...), as a fraction; 0 when there is none.
pub fn supported_quantile(n: usize) -> f64 {
    let mut q = 0.0;
    let mut tail = 0.1;
    while (n as f64) * tail >= 10.0 {
        q = 1.0 - tail;
        tail /= 10.0;
    }
    q
}

/// One FNV-1a step over the eight bytes of `v`.
pub fn fnv(hash: u64, v: u64) -> u64 {
    let mut h = if hash == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        hash
    };
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

//! Order statistics and content digests.

/// Median of `values` (the mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Which percentile it is (share of samples at or below it, in %).
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// With `n` sorted samples, index `n - 11` has exactly ten above it.
/// Fewer than 11 samples have no such rank; the maximum is reported
/// then, labelled p100.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent digest of an edge set: the wrapping sum of a
/// strong mix of each normalized `(min, max)` pair, so any order and
/// either orientation of the same set digest equally.
pub fn edge_digest(edges: &[(u32, u32)]) -> u64 {
    edges
        .iter()
        .map(|&(a, b)| {
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            splitmix((u64::from(a) << 32) | u64::from(b))
        })
        .fold(0u64, u64::wrapping_add)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn digest_ignores_order_and_orientation() {
        assert_eq!(
            edge_digest(&[(1, 2), (3, 4)]),
            edge_digest(&[(4, 3), (2, 1)])
        );
        assert_ne!(edge_digest(&[(1, 2)]), edge_digest(&[(1, 3)]));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

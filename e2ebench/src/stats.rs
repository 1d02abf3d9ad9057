//! Order statistics, the seeded stream the inputs derive from, and a reader
//! for the server's Prometheus exposition.

use std::collections::HashMap;

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (`0.0` for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Element `index` of the seeded stream `stream`: splitmix64 over the
/// workload seed, so every input of a run is a pure function of `--seed`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`mix`].
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    (mix(seed, stream, index) >> 11) as f64 / (1_u64 << 53) as f64
}

/// One `GET /metrics` body: series key (name plus rendered label set) to
/// value. Absent series read as `0.0` — a counter nobody incremented.
#[derive(Debug, Default, Clone)]
pub struct Prom(HashMap<String, f64>);

impl Prom {
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn prometheus_keys_keep_their_label_sets() {
        let p = Prom::parse(
            "# TYPE x counter\nx 3\ny_p50{route=\"POST /stores/{name}/metrics\"} 120\n",
        );
        assert_eq!(p.get("x"), 3.0);
        assert_eq!(p.get("y_p50{route=\"POST /stores/{name}/metrics\"}"), 120.0);
        assert_eq!(p.get("missing"), 0.0);
    }
}

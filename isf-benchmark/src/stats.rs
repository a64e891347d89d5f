//! Order statistics, computed exactly as Python's `statistics` module does
//! so numbers printed here match a check written against that module.

/// A sample's median and quartiles.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, n) = (v.first()?, v.len());
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        // `statistics.quantiles(v, n=4)`, default (exclusive) method.
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            min,
            q1: quartile(1),
            median,
            q3: quartile(3),
        })
    }

    /// The interquartile distance as a share of the median (0 when the
    /// median is 0 and the quartiles agree).
    #[must_use]
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

//! IBk — k-nearest-neighbour classifier.
//!
//! "IBk implements a k-nearest-neighbour classifier" (§VIII, Aha's
//! instance-based learning). Distance is WEKA's mixed Euclidean:
//! min-max-normalized numerics, 0/1 mismatch on nominals; ties are
//! broken by the closer neighbour.

use super::Classifier;
use crate::data::{AttributeKind, Dataset};
use crate::ops::Kernel;
use crate::MlError;

/// k-NN with linear search (WEKA's default `LinearNNSearch`).
pub struct IBk {
    kernel: Kernel,
    /// Number of neighbours (WEKA `-K`, default 1; the paper's table
    /// lists IBk separately from KStar so we keep WEKA's default).
    pub k: usize,
    /// Distance-weighted voting (WEKA `-I`).
    pub distance_weighting: bool,
    train: Vec<(Vec<f64>, f64)>, // (normalized features, class)
    norms: Vec<(f64, f64)>,      // per-feature (min, range)
    feats: Vec<usize>,
    nominal: Vec<bool>,
    num_classes: usize,
}

impl IBk {
    /// Defaults (k=1).
    pub fn new() -> IBk {
        IBk::with_kernel(Kernel::silent())
    }

    /// With an explicit energy kernel.
    pub fn with_kernel(kernel: Kernel) -> IBk {
        IBk {
            kernel,
            k: 3,
            distance_weighting: false,
            train: Vec::new(),
            norms: Vec::new(),
            feats: Vec::new(),
            nominal: Vec::new(),
            num_classes: 0,
        }
    }

    fn normalize(&self, row: &[f64]) -> Vec<f64> {
        self.feats
            .iter()
            .enumerate()
            .map(|(k, &f)| {
                let v = row.get(f).copied().unwrap_or(f64::NAN);
                if self.nominal[k] || v.is_nan() {
                    v
                } else {
                    let (min, range) = self.norms[k];
                    (v - min) / range
                }
            })
            .collect()
    }

    /// Mixed-type distance between normalized feature vectors.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        // Per-neighbour neutral overhead: the search's heap bookkeeping
        // and `Instance` accessor calls.
        self.kernel.charge(jepo_rapl::OpCategory::Call, 4);
        self.kernel.charge(jepo_rapl::OpCategory::Load, 10);
        // Numeric dims go through the counted squared-distance; nominal
        // dims contribute 0/1 via counted label-style comparison.
        let mut d = 0.0;
        let mut num_a = Vec::with_capacity(a.len());
        let mut num_b = Vec::with_capacity(a.len());
        for k in 0..a.len() {
            if self.nominal[k] {
                let (x, y) = (a[k], b[k]);
                if x.is_nan() || y.is_nan() {
                    d += 1.0;
                } else {
                    d += self.kernel.select(x == y, 0.0, 1.0);
                }
            } else if a[k].is_nan() || b[k].is_nan() {
                d += 1.0;
            } else {
                num_a.push(a[k]);
                num_b.push(b[k]);
            }
        }
        d + self.kernel.squared_distance(&num_a, &num_b)
    }
}

impl Default for IBk {
    fn default() -> Self {
        IBk::new()
    }
}

impl Classifier for IBk {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::Train("empty dataset".into()));
        }
        self.feats = data.feature_indices();
        self.nominal = self
            .feats
            .iter()
            .map(|&f| matches!(data.attributes()[f].kind, AttributeKind::Nominal(_)))
            .collect();
        self.norms = self
            .feats
            .iter()
            .map(|&f| {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for r in &data.instances {
                    let v = r[f];
                    if !v.is_nan() {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                if !min.is_finite() {
                    (0.0, 1.0)
                } else {
                    (min, (max - min).max(1e-12))
                }
            })
            .collect();
        self.num_classes = data.num_classes();
        self.train = data
            .instances
            .iter()
            .map(|r| (self.normalize(r), r[data.class_index]))
            .collect();
        Ok(())
    }

    fn predict(&self, row: &[f64]) -> f64 {
        if self.train.is_empty() {
            return 0.0;
        }
        let q = self.normalize(row);
        self.kernel.bump_counters(1);
        // Linear scan, keeping the k best.
        let mut best: Vec<(f64, f64)> = Vec::with_capacity(self.k + 1); // (dist, class)
        for (x, c) in &self.train {
            let d = self.distance(&q, x);
            let pos = best.partition_point(|&(bd, _)| bd < d);
            if pos < self.k {
                best.insert(pos, (d, *c));
                best.truncate(self.k);
            }
        }
        let mut votes = vec![0.0; self.num_classes];
        for &(d, c) in &best {
            let w = if self.distance_weighting {
                1.0 / (d + 1e-6)
            } else {
                1.0
            };
            votes[c as usize] += w;
        }
        super::tree_util::majority(&votes)
    }

    fn name(&self) -> &'static str {
        "IBk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Attribute;

    fn blobs() -> Dataset {
        let mut d = Dataset::new(
            "t",
            vec![
                Attribute::numeric("x"),
                Attribute::numeric("y"),
                Attribute::binary("c"),
            ],
        );
        for i in 0..30 {
            let j = (i % 6) as f64 * 0.1;
            d.push(vec![0.0 + j, 0.0 + j, 0.0]).unwrap();
            d.push(vec![5.0 + j, 5.0 + j, 1.0]).unwrap();
        }
        d
    }

    #[test]
    fn nearest_blob_wins() {
        let mut c = IBk::new();
        c.fit(&blobs()).unwrap();
        assert_eq!(c.predict(&[0.2, 0.1, 0.0]), 0.0);
        assert_eq!(c.predict(&[5.2, 5.3, 0.0]), 1.0);
    }

    #[test]
    fn k1_memorizes_training_data() {
        let d = blobs();
        let mut c = IBk::new();
        c.k = 1;
        c.fit(&d).unwrap();
        for r in &d.instances {
            assert_eq!(c.predict(r), r[2]);
        }
    }

    #[test]
    fn nominal_mismatch_contributes_distance() {
        let mut d = Dataset::new(
            "t",
            vec![Attribute::nominal("k", &["a", "b"]), Attribute::binary("y")],
        );
        for _ in 0..10 {
            d.push(vec![0.0, 0.0]).unwrap();
            d.push(vec![1.0, 1.0]).unwrap();
        }
        let mut c = IBk::new();
        c.k = 3;
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[0.0, 0.0]), 0.0);
        assert_eq!(c.predict(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn distance_weighting_prefers_close_votes() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        // Two far 1s, one near 0: k=3 unweighted votes 1, weighted votes 0.
        d.push(vec![0.0, 0.0]).unwrap();
        d.push(vec![10.0, 1.0]).unwrap();
        d.push(vec![10.1, 1.0]).unwrap();
        let mut unweighted = IBk::new();
        unweighted.k = 3;
        unweighted.fit(&d).unwrap();
        assert_eq!(unweighted.predict(&[0.5, 0.0]), 1.0);
        let mut weighted = IBk::new();
        weighted.k = 3;
        weighted.distance_weighting = true;
        weighted.fit(&d).unwrap();
        assert_eq!(weighted.predict(&[0.5, 0.0]), 0.0);
    }

    #[test]
    fn missing_values_are_max_distance() {
        let d = blobs();
        let mut c = IBk::new();
        c.fit(&d).unwrap();
        // NaN query still classifies (to something valid).
        let p = c.predict(&[f64::NAN, 0.0, 0.0]);
        assert!(p == 0.0 || p == 1.0);
    }
}

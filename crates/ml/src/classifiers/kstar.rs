//! KStar — instance-based classifier with an entropic distance
//! (Cleary & Trigg, 1995).
//!
//! "KStar implements a nearest-neighbor classifier with generalized
//! distance function based on transformations" (§VIII). The probability
//! of transforming instance `a` into `b` decomposes per attribute:
//! numeric attributes use an exponential kernel whose scale blends
//! between nearest-neighbour and uniform behaviour; nominal attributes
//! use the blend-parameterized stay/change model. The class score is
//! the summed transformation probability over training instances.

use super::Classifier;
use crate::data::{AttributeKind, Dataset};
use crate::ops::Kernel;
use crate::MlError;

/// KStar classifier.
pub struct KStar {
    kernel: Kernel,
    /// Global blend in `(0, 1]` (WEKA `-B 20` → 0.20).
    pub blend: f64,
    train: Vec<(Vec<f64>, f64)>,
    feats: Vec<usize>,
    kinds: Vec<Option<usize>>, // None=numeric, Some(cardinality)
    scales: Vec<f64>,          // numeric: mean absolute deviation × blend factor
    num_classes: usize,
}

impl KStar {
    /// Defaults (blend 0.2).
    pub fn new() -> KStar {
        KStar::with_kernel(Kernel::silent())
    }

    /// With an explicit energy kernel.
    pub fn with_kernel(kernel: Kernel) -> KStar {
        KStar {
            kernel,
            blend: 0.2,
            train: Vec::new(),
            feats: Vec::new(),
            kinds: Vec::new(),
            scales: Vec::new(),
            num_classes: 0,
        }
    }

    /// Per-attribute transformation probability P*(b|a).
    fn attr_prob(&self, k: usize, a: f64, b: f64) -> f64 {
        match self.kinds[k] {
            Some(card) => {
                // Nominal stay/change model: stay with prob 1-x0,
                // change to any specific other value with x0/(card-1).
                let x0 = self.blend.min(0.999);
                if a.is_nan() || b.is_nan() {
                    1.0 / card as f64
                } else if a == b {
                    1.0 - x0
                } else {
                    x0 / (card as f64 - 1.0).max(1.0)
                }
            }
            None => {
                if a.is_nan() || b.is_nan() {
                    return 0.5;
                }
                let s = self.scales[k];
                // Exponential transformation density.
                self.kernel.exp(-self.kernel.div((a - b).abs(), s))
            }
        }
    }
}

impl Default for KStar {
    fn default() -> Self {
        KStar::new()
    }
}

impl Classifier for KStar {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::Train("empty dataset".into()));
        }
        self.feats = data.feature_indices();
        self.kinds = self
            .feats
            .iter()
            .map(|&f| match &data.attributes()[f].kind {
                AttributeKind::Nominal(l) => Some(l.len()),
                AttributeKind::Numeric => None,
            })
            .collect();
        // Scale = blend-scaled mean absolute deviation (the blend
        // parameter interpolates sharp→uniform, per the paper's spirit).
        self.scales = self
            .feats
            .iter()
            .map(|&f| {
                let vals: Vec<f64> = data
                    .instances
                    .iter()
                    .map(|r| r[f])
                    .filter(|v| !v.is_nan())
                    .collect();
                if vals.is_empty() {
                    return 1.0;
                }
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                let mad = vals.iter().map(|v| (v - mean).abs()).sum::<f64>() / vals.len() as f64;
                (mad * self.blend / 0.2).max(1e-9)
            })
            .collect();
        self.num_classes = data.num_classes();
        self.train = data
            .instances
            .iter()
            .map(|r| {
                let x: Vec<f64> = self.feats.iter().map(|&f| r[f]).collect();
                (x, r[data.class_index])
            })
            .collect();
        Ok(())
    }

    fn predict(&self, row: &[f64]) -> f64 {
        if self.train.is_empty() {
            return 0.0;
        }
        let q: Vec<f64> = self
            .feats
            .iter()
            .map(|&f| row.get(f).copied().unwrap_or(f64::NAN))
            .collect();
        let mut scores = vec![0.0f64; self.num_classes];
        self.kernel.bump_counters(1);
        for (x, c) in &self.train {
            // Neutral per-instance overhead (accessors, loop control).
            self.kernel.charge(jepo_rapl::OpCategory::Call, 2);
            self.kernel.charge(jepo_rapl::OpCategory::Load, 6);
            // Product of per-attribute transformation probabilities.
            let mut p = 1.0;
            for k in 0..q.len() {
                p = self.kernel.mul(p, self.attr_prob(k, q[k], x[k]));
                if p < 1e-300 {
                    break;
                }
            }
            scores[*c as usize] += p;
        }
        super::tree_util::majority(&scores)
    }

    fn name(&self) -> &'static str {
        "KStar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Attribute;

    #[test]
    fn classifies_separated_blobs() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        for i in 0..20 {
            d.push(vec![i as f64 * 0.1, 0.0]).unwrap();
            d.push(vec![8.0 + i as f64 * 0.1, 1.0]).unwrap();
        }
        let mut c = KStar::new();
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[0.5, 0.0]), 0.0);
        assert_eq!(c.predict(&[8.5, 0.0]), 1.0);
    }

    #[test]
    fn nominal_transformation_prefers_matching_values() {
        let mut d = Dataset::new(
            "t",
            vec![
                Attribute::nominal("k", &["a", "b", "c"]),
                Attribute::binary("y"),
            ],
        );
        for _ in 0..20 {
            d.push(vec![0.0, 0.0]).unwrap();
            d.push(vec![1.0, 1.0]).unwrap();
            d.push(vec![2.0, 1.0]).unwrap();
        }
        let mut c = KStar::new();
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[0.0, 0.0]), 0.0);
        assert_eq!(c.predict(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn blend_controls_smoothing() {
        // With blend→1 the nominal model is near-uniform: far instances
        // still contribute, so the majority class can win everywhere.
        let mut d = Dataset::new(
            "t",
            vec![Attribute::nominal("k", &["a", "b"]), Attribute::binary("y")],
        );
        for _ in 0..5 {
            d.push(vec![0.0, 0.0]).unwrap();
        }
        for _ in 0..15 {
            d.push(vec![1.0, 1.0]).unwrap();
        }
        let mut sharp = KStar::new();
        sharp.blend = 0.05;
        sharp.fit(&d).unwrap();
        assert_eq!(
            sharp.predict(&[0.0, 0.0]),
            0.0,
            "sharp blend respects the match"
        );
        let mut smooth = KStar::new();
        smooth.blend = 0.99;
        smooth.fit(&d).unwrap();
        assert_eq!(
            smooth.predict(&[0.0, 0.0]),
            1.0,
            "uniform blend follows the majority"
        );
    }

    #[test]
    fn attr_prob_is_a_probability() {
        let mut d = Dataset::new(
            "t",
            vec![
                Attribute::numeric("x"),
                Attribute::nominal("k", &["a", "b"]),
                Attribute::binary("y"),
            ],
        );
        for i in 0..10 {
            d.push(vec![i as f64, (i % 2) as f64, (i % 2) as f64])
                .unwrap();
        }
        let mut c = KStar::new();
        c.fit(&d).unwrap();
        for (a, b) in [(0.0, 0.0), (1.0, 5.0), (f64::NAN, 2.0)] {
            let p = c.attr_prob(0, a, b);
            assert!((0.0..=1.0).contains(&p), "numeric P = {p}");
        }
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (f64::NAN, 1.0)] {
            let p = c.attr_prob(1, a, b);
            assert!((0.0..=1.0).contains(&p), "nominal P = {p}");
        }
    }
}

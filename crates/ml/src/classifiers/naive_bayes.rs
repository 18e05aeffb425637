//! Naive Bayes — Gaussian numerics, Laplace-smoothed nominals.
//!
//! "Naive Bayes is a probabilistic classifier which is based on Bayes
//! theorem" (§VIII); this matches WEKA's default configuration
//! (normal-distribution estimator for numeric attributes).

use super::Classifier;
use crate::data::{AttributeKind, Dataset};
use crate::ops::Kernel;
use crate::MlError;

#[derive(Debug, Clone)]
enum AttrModel {
    /// Per-class (mean, std).
    Gaussian(Vec<(f64, f64)>),
    /// Per-class per-label smoothed probabilities.
    Categorical(Vec<Vec<f64>>),
}

/// Gaussian/categorical naive Bayes.
pub struct NaiveBayes {
    kernel: Kernel,
    priors: Vec<f64>,
    models: Vec<(usize, AttrModel)>,
}

impl NaiveBayes {
    /// Default configuration.
    pub fn new() -> NaiveBayes {
        NaiveBayes::with_kernel(Kernel::silent())
    }

    /// With an explicit energy kernel.
    pub fn with_kernel(kernel: Kernel) -> NaiveBayes {
        NaiveBayes {
            kernel,
            priors: Vec::new(),
            models: Vec::new(),
        }
    }
}

impl Default for NaiveBayes {
    fn default() -> Self {
        NaiveBayes::new()
    }
}

impl Classifier for NaiveBayes {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::Train("empty dataset".into()));
        }
        let k = data.num_classes();
        let n = data.len() as f64;
        // Priors with Laplace smoothing.
        let counts = data.class_counts();
        self.priors = counts
            .iter()
            .map(|&c| (c as f64 + 1.0) / (n + k as f64))
            .collect();
        self.models.clear();
        for attr in data.feature_indices() {
            // NB's estimator pass is instance-major (sequential) in
            // WEKA, so the traversal-order suggestion barely touches it.
            self.kernel.charge_sequential_scan(data.len());
            let model = match &data.attributes()[attr].kind {
                AttributeKind::Numeric => {
                    let mut sums = vec![0.0; k];
                    let mut sqs = vec![0.0; k];
                    let mut ns = vec![0.0; k];
                    for row in &data.instances {
                        let v = row[attr];
                        if v.is_nan() {
                            continue;
                        }
                        let c = row[data.class_index] as usize;
                        sums[c] = self.kernel.add(sums[c], v);
                        sqs[c] = self.kernel.add(sqs[c], self.kernel.mul(v, v));
                        ns[c] += 1.0;
                    }
                    let stats = (0..k)
                        .map(|c| {
                            if ns[c] < 2.0 {
                                (0.0, 1.0)
                            } else {
                                let mean = sums[c] / ns[c];
                                let var = (sqs[c] / ns[c] - mean * mean).max(1e-6);
                                (self.kernel.quantize(mean), self.kernel.quantize(var.sqrt()))
                            }
                        })
                        .collect();
                    AttrModel::Gaussian(stats)
                }
                AttributeKind::Nominal(labels) => {
                    let m = labels.len();
                    let mut table = vec![vec![1.0; m]; k]; // Laplace
                    for row in &data.instances {
                        let v = row[attr];
                        if v.is_nan() {
                            continue;
                        }
                        let c = row[data.class_index] as usize;
                        let v = v as usize;
                        if v < m {
                            table[c][v] += 1.0;
                        }
                    }
                    for probs in table.iter_mut() {
                        let total: f64 = probs.iter().sum();
                        for p in probs.iter_mut() {
                            *p = self.kernel.quantize(*p / total);
                        }
                    }
                    AttrModel::Categorical(table)
                }
            };
            self.models.push((attr, model));
        }
        Ok(())
    }

    fn predict(&self, row: &[f64]) -> f64 {
        if self.priors.is_empty() {
            return 0.0;
        }
        let mut best = (0usize, f64::NEG_INFINITY);
        for (c, &prior) in self.priors.iter().enumerate() {
            let mut logp = prior.ln();
            for (attr, model) in &self.models {
                let v = row[*attr];
                if v.is_nan() {
                    continue;
                }
                match model {
                    AttrModel::Gaussian(stats) => {
                        let (mean, std) = stats[c];
                        let z = self.kernel.div(self.kernel.sub(v, mean), std);
                        // log N(v; mean, std) up to a shared constant.
                        logp -= 0.5 * z * z + std.ln();
                    }
                    AttrModel::Categorical(table) => {
                        let p = table[c].get(v as usize).copied().unwrap_or(1e-9);
                        logp += self.kernel.ln(p.max(1e-12));
                    }
                }
            }
            if logp > best.1 {
                best = (c, logp);
            }
        }
        best.0 as f64
    }

    fn name(&self) -> &'static str {
        "Naive Bayes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Attribute;

    #[test]
    fn separable_gaussians_classify_correctly() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        // Class 0 around 0, class 1 around 10.
        for i in 0..40 {
            d.push(vec![(i % 5) as f64 - 2.0, 0.0]).unwrap();
            d.push(vec![10.0 + (i % 5) as f64 - 2.0, 1.0]).unwrap();
        }
        let mut c = NaiveBayes::new();
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[0.5, 0.0]), 0.0);
        assert_eq!(c.predict(&[9.5, 0.0]), 1.0);
    }

    #[test]
    fn nominal_likelihoods_work() {
        let mut d = Dataset::new(
            "t",
            vec![Attribute::nominal("k", &["a", "b"]), Attribute::binary("y")],
        );
        for _ in 0..30 {
            d.push(vec![0.0, 0.0]).unwrap();
            d.push(vec![1.0, 1.0]).unwrap();
        }
        // A little crosstalk.
        d.push(vec![0.0, 1.0]).unwrap();
        let mut c = NaiveBayes::new();
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[0.0, 0.0]), 0.0);
        assert_eq!(c.predict(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn missing_values_are_skipped() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        for i in 0..20 {
            d.push(vec![i as f64, if i < 10 { 0.0 } else { 1.0 }])
                .unwrap();
        }
        d.push(vec![f64::NAN, 0.0]).unwrap();
        let mut c = NaiveBayes::new();
        c.fit(&d).unwrap();
        // Prediction with a missing value falls back to priors.
        let p = c.predict(&[f64::NAN, 0.0]);
        assert!(p == 0.0 || p == 1.0);
    }

    #[test]
    fn priors_break_ties() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        // 3:1 class imbalance, uninformative attribute.
        for _ in 0..30 {
            d.push(vec![1.0, 0.0]).unwrap();
        }
        for _ in 0..10 {
            d.push(vec![1.0, 1.0]).unwrap();
        }
        let mut c = NaiveBayes::new();
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&[1.0, 0.0]), 0.0);
    }
}

//! Logistic — multinomial ridge logistic regression.
//!
//! "Logistic builds a multinomial logistic regression that uses a ridge
//! estimator to guard against overfitting by penalizing large
//! coefficients based on [le Cessie & van Houwelingen 1992]" (§VIII).
//! Features go through the NominalToBinary + standardize pipeline
//! ([`Dataset::to_numeric`]); optimization is batch gradient descent
//! with backtracking on divergence — adequate for the convex objective.

use super::Classifier;
use crate::data::Dataset;
use crate::ops::Kernel;
use crate::MlError;

/// Ridge logistic regression (one-vs-rest for >2 classes).
pub struct Logistic {
    kernel: Kernel,
    /// Ridge penalty (WEKA `-R`, default 1e-8; we default higher for the
    /// high-cardinality one-hot airports).
    pub ridge: f64,
    /// Gradient-descent iterations.
    pub max_iter: usize,
    /// Per-class weight vectors (bias last).
    weights: Vec<Vec<f64>>,
    num_classes: usize,
    encoder: Option<Encoder>,
}

impl Logistic {
    /// Default configuration.
    pub fn new() -> Logistic {
        Logistic::with_kernel(Kernel::silent())
    }

    /// With an explicit energy kernel.
    pub fn with_kernel(kernel: Kernel) -> Logistic {
        Logistic {
            kernel,
            ridge: 1e-4,
            max_iter: 150,
            weights: Vec::new(),
            num_classes: 0,
            encoder: None,
        }
    }

    fn sigmoid(&self, z: f64) -> f64 {
        self.kernel.raw_flops(2, 1);
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    /// Profile-independent dot: WEKA's Logistic optimizes through its
    /// own matrix code, which JEPO's source edits never touched, so the
    /// efficiency profile does not change its per-op costs.
    fn raw_dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.kernel.raw_flops(a.len() as u64, a.len() as u64);
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn raw_axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.kernel.raw_flops(x.len() as u64, x.len() as u64);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn train_binary(&self, rows: &[Vec<f64>], targets: &[f64]) -> Vec<f64> {
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let n = rows.len() as f64;
        let mut w = vec![0.0; dim + 1]; // bias last
        let mut lr = 1.0;
        let mut prev_loss = f64::INFINITY;
        for _ in 0..self.max_iter {
            let mut grad = vec![0.0; dim + 1];
            let mut loss = 0.0;
            for (x, &t) in rows.iter().zip(targets) {
                let z = self.raw_dot(&w[..dim], x) + w[dim];
                let p = self.sigmoid(z);
                let err = p - t;
                self.raw_axpy(err / n, x, &mut grad[..dim]);
                grad[dim] += err / n;
                let pl = p.clamp(1e-12, 1.0 - 1e-12);
                loss -= t * pl.ln() + (1.0 - t) * (1.0 - pl).ln();
            }
            // Ridge term (bias excluded).
            for d in 0..dim {
                grad[d] += self.ridge * w[d];
                loss += 0.5 * self.ridge * w[d] * w[d];
            }
            if loss > prev_loss {
                lr *= 0.5; // backtrack
                if lr < 1e-6 {
                    break;
                }
            }
            prev_loss = loss;
            self.raw_axpy(-lr, &grad.clone(), &mut w);
        }
        w
    }

    fn score(&self, w: &[f64], x: &[f64]) -> f64 {
        let dim = w.len() - 1;
        self.raw_dot(&w[..dim], x) + w[dim]
    }
}

impl Default for Logistic {
    fn default() -> Self {
        Logistic::new()
    }
}

impl Classifier for Logistic {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::Train("empty dataset".into()));
        }
        let (rows, labels, _) = data.to_numeric();
        self.num_classes = data.num_classes();
        self.weights.clear();
        if self.num_classes == 2 {
            let targets: Vec<f64> = labels
                .iter()
                .map(|&l| if l == 1.0 { 1.0 } else { 0.0 })
                .collect();
            self.weights.push(self.train_binary(&rows, &targets));
        } else {
            for c in 0..self.num_classes {
                let targets: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l as usize == c { 1.0 } else { 0.0 })
                    .collect();
                self.weights.push(self.train_binary(&rows, &targets));
            }
        }
        // The feature encoding of the query path must match training;
        // stash the training data stats by re-encoding at predict time
        // via the stored dataset schema. (Encoding lives in the dataset;
        // we keep a copy of the training set's encoder output space.)
        self.encoder = Some(Encoder::fit(data));
        Ok(())
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let Some(enc) = &self.encoder else {
            return 0.0;
        };
        let x = enc.encode(row);
        if self.num_classes == 2 {
            let z = self.score(&self.weights[0], &x);
            if z > 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            let mut best = (0usize, f64::NEG_INFINITY);
            for (c, w) in self.weights.iter().enumerate() {
                let z = self.score(w, &x);
                if z > best.1 {
                    best = (c, z);
                }
            }
            best.0 as f64
        }
    }

    fn name(&self) -> &'static str {
        "Logistic"
    }
}

// --- feature encoder shared by the linear models -------------------------

use crate::data::AttributeKind;

/// One-hot + standardization encoder fitted on training data, applied to
/// query rows (mirrors `Dataset::to_numeric`'s layout).
#[derive(Debug, Clone)]
pub struct Encoder {
    feats: Vec<usize>,
    offsets: Vec<usize>,
    kinds: Vec<(bool, usize)>, // (numeric, cardinality)
    means: Vec<f64>,
    stds: Vec<f64>,
    /// Encoded dimension.
    pub dim: usize,
}

impl Encoder {
    /// Fit on a dataset (same statistics as `to_numeric`).
    pub fn fit(data: &Dataset) -> Encoder {
        let feats = data.feature_indices();
        let mut dim = 0;
        let mut offsets = Vec::new();
        let mut kinds = Vec::new();
        for &f in &feats {
            offsets.push(dim);
            match &data.attributes()[f].kind {
                AttributeKind::Numeric => {
                    dim += 1;
                    kinds.push((true, 0));
                }
                AttributeKind::Nominal(l) => {
                    dim += l.len();
                    kinds.push((false, l.len()));
                }
            }
        }
        let n = data.len().max(1) as f64;
        let mut means = vec![0.0; feats.len()];
        let mut stds = vec![1.0; feats.len()];
        for (k, &f) in feats.iter().enumerate() {
            if kinds[k].0 && !data.is_empty() {
                let mean = data.instances.iter().map(|r| r[f]).sum::<f64>() / n;
                let var = data
                    .instances
                    .iter()
                    .map(|r| (r[f] - mean).powi(2))
                    .sum::<f64>()
                    / n;
                means[k] = mean;
                stds[k] = var.sqrt().max(1e-12);
            }
        }
        Encoder {
            feats,
            offsets,
            kinds,
            means,
            stds,
            dim,
        }
    }

    /// Encode one raw instance row.
    pub fn encode(&self, row: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        for (k, &f) in self.feats.iter().enumerate() {
            let v = row.get(f).copied().unwrap_or(f64::NAN);
            if v.is_nan() {
                continue;
            }
            if self.kinds[k].0 {
                x[self.offsets[k]] = (v - self.means[k]) / self.stds[k];
            } else {
                let idx = v as usize;
                if idx < self.kinds[k].1 {
                    x[self.offsets[k] + idx] = 1.0;
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::airlines::AirlinesGenerator;
    use crate::data::Attribute;

    #[test]
    fn separates_linear_data() {
        let mut d = Dataset::new(
            "t",
            vec![
                Attribute::numeric("x1"),
                Attribute::numeric("x2"),
                Attribute::binary("y"),
            ],
        );
        for i in 0..200 {
            let x1 = (i % 20) as f64 / 10.0 - 1.0;
            let x2 = ((i * 7) % 20) as f64 / 10.0 - 1.0;
            let y = if x1 + x2 > 0.0 { 1.0 } else { 0.0 };
            d.push(vec![x1, x2, y]).unwrap();
        }
        let mut c = Logistic::new();
        c.fit(&d).unwrap();
        let correct = d.instances.iter().filter(|r| c.predict(r) == r[2]).count();
        assert!(correct as f64 / 200.0 > 0.95, "{correct}/200");
    }

    #[test]
    fn learns_airlines_signal() {
        // High-cardinality one-hot airports need a few samples per
        // airport before the linear model beats chance.
        let data = AirlinesGenerator::new(31).generate(2500);
        let eval = crate::eval::crossval::stratified_cross_validate(&data, 3, 3, Logistic::new);
        assert!(eval.accuracy() > 0.56, "{}", eval.accuracy());
    }

    #[test]
    fn encoder_roundtrip_dimensions() {
        let data = AirlinesGenerator::new(1).generate(50);
        let enc = Encoder::fit(&data);
        // 3 numeric + 18 + 293 + 293 + 7 nominal one-hot.
        assert_eq!(enc.dim, 3 + 18 + 293 + 293 + 7);
        let x = enc.encode(&data.instances[0]);
        assert_eq!(x.len(), enc.dim);
        let hot: f64 = x.iter().filter(|&&v| v == 1.0).sum();
        assert!((hot - 4.0).abs() < 1e-12, "4 nominal slots hot, got {hot}");
    }

    #[test]
    fn ridge_keeps_weights_bounded() {
        let mut d = Dataset::new("t", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        // Perfectly separable: unregularized weights would diverge.
        for i in 0..50 {
            d.push(vec![i as f64, if i < 25 { 0.0 } else { 1.0 }])
                .unwrap();
        }
        let mut c = Logistic::new();
        c.ridge = 0.1;
        c.fit(&d).unwrap();
        let max_w = c.weights[0].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_w < 50.0, "ridge bound violated: {max_w}");
    }
}

//! Shared decision-tree machinery: entropy, split search, tree nodes.
//!
//! J48, RandomTree, RandomForest and REPTree all build on these
//! primitives; their differences (attribute subsets, split criteria,
//! pruning) live in their own modules, as in WEKA.

use crate::data::{AttributeKind, Dataset};
use crate::ops::Kernel;

/// A fitted tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Leaf with a class distribution.
    Leaf {
        /// Predicted class index.
        class: f64,
        /// Class counts seen during training (pruning statistics).
        dist: Vec<f64>,
    },
    /// Binary split on a numeric attribute (`<= threshold` goes left).
    Numeric {
        /// Attribute index.
        attr: usize,
        /// Split threshold.
        threshold: f64,
        /// `<=` branch.
        left: Box<Node>,
        /// `>` branch.
        right: Box<Node>,
        /// Training distribution (for pruning to a leaf).
        dist: Vec<f64>,
    },
    /// Multiway split on a nominal attribute (one child per label).
    Nominal {
        /// Attribute index.
        attr: usize,
        /// One child per label value.
        children: Vec<Node>,
        /// Fallback class for unseen/missing values.
        default: f64,
        /// Training distribution.
        dist: Vec<f64>,
    },
}

impl Node {
    /// Classify one row.
    pub fn classify(&self, row: &[f64]) -> f64 {
        match self {
            Node::Leaf { class, .. } => *class,
            Node::Numeric {
                attr,
                threshold,
                left,
                right,
                dist,
            } => {
                let v = row[*attr];
                if v.is_nan() {
                    return majority(dist);
                }
                if v <= *threshold {
                    left.classify(row)
                } else {
                    right.classify(row)
                }
            }
            Node::Nominal {
                attr,
                children,
                default,
                ..
            } => {
                let v = row[*attr];
                if v.is_nan() {
                    return *default;
                }
                match children.get(v as usize) {
                    Some(child) => child.classify(row),
                    None => *default,
                }
            }
        }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Numeric { left, right, .. } => left.leaves() + right.leaves(),
            Node::Nominal { children, .. } => children.iter().map(Node::leaves).sum(),
        }
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Numeric { left, right, .. } => 1 + left.depth().max(right.depth()),
            Node::Nominal { children, .. } => {
                1 + children.iter().map(Node::depth).max().unwrap_or(0)
            }
        }
    }

    /// The training class distribution stored at this node.
    pub fn dist(&self) -> &[f64] {
        match self {
            Node::Leaf { dist, .. } => dist,
            Node::Numeric { dist, .. } => dist,
            Node::Nominal { dist, .. } => dist,
        }
    }
}

/// Majority index of a distribution.
pub fn majority(dist: &[f64]) -> f64 {
    dist.iter()
        .enumerate()
        // `total_cmp`: a NaN count (poisoned weight) picks one class
        // deterministically instead of whichever the scan saw last.
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as f64)
        .unwrap_or(0.0)
}

/// Class distribution of a dataset (float counts — C4.5 uses fractional
/// weights for missing values).
pub fn class_distribution(data: &Dataset) -> Vec<f64> {
    let mut dist = vec![0.0; data.num_classes()];
    for i in 0..data.len() {
        let c = data.class_of(i) as usize;
        if c < dist.len() {
            dist[c] += 1.0;
        }
    }
    dist
}

/// Shannon entropy of a count vector, in bits, through the kernel
/// (quantized so f32 profiles can flip near-tie split decisions).
pub fn entropy(counts: &[f64], kernel: &Kernel) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // The xlogx core is WEKA's `Utils` library code — identical on both
    // profiles; only the quantization (double → float demotion) shows,
    // which is exactly the accuracy-drop mechanism of Table IV.
    kernel.raw_flops(2 * counts.len() as u64, 2 * counts.len() as u64);
    let mut h = 0.0;
    for &c in counts {
        if c > 0.0 {
            let p = kernel.quantize(c / total);
            h -= p * (p.ln() / std::f64::consts::LN_2);
        }
    }
    kernel.quantize(h)
}

/// A candidate split found by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Attribute index.
    pub attr: usize,
    /// Numeric threshold (`None` for nominal multiway).
    pub threshold: Option<f64>,
    /// Information gain in bits.
    pub gain: f64,
    /// C4.5 gain ratio (gain / split info).
    pub gain_ratio: f64,
}

/// Evaluate the best split on one attribute. Charges an attribute scan
/// to the kernel — this is the loop JEPO's array-traversal finding
/// targets in WEKA.
pub fn evaluate_attribute(data: &Dataset, attr: usize, kernel: &Kernel) -> Option<Split> {
    let row_bytes = data.num_attributes() * 8;
    kernel.charge_attribute_scan(data.len(), row_bytes);
    let parent = entropy(&class_distribution(data), kernel);
    match &data.attributes()[attr].kind {
        AttributeKind::Nominal(labels) => {
            let mut dists = vec![vec![0.0; data.num_classes()]; labels.len()];
            let mut counts = vec![0.0; labels.len()];
            for row in &data.instances {
                let v = row[attr];
                if v.is_nan() {
                    continue;
                }
                let v = v as usize;
                if v < labels.len() {
                    dists[v][row[data.class_index] as usize] += 1.0;
                    counts[v] += 1.0;
                }
            }
            let total: f64 = counts.iter().sum();
            if total <= 0.0 {
                return None;
            }
            let mut child_h = 0.0;
            let mut split_info = 0.0;
            for (d, &n) in dists.iter().zip(&counts) {
                if n > 0.0 {
                    let w = n / total;
                    child_h += w * entropy(d, kernel);
                    split_info -= w * (w.ln() / std::f64::consts::LN_2);
                }
            }
            let gain = kernel.quantize(parent - child_h);
            if gain <= 1e-10 {
                return None;
            }
            let gain_ratio = if split_info > 1e-10 {
                kernel.quantize(gain / split_info)
            } else {
                gain
            };
            Some(Split {
                attr,
                threshold: None,
                gain,
                gain_ratio,
            })
        }
        AttributeKind::Numeric => {
            // Sort values; test midpoints between class-changing values.
            let mut pairs: Vec<(f64, usize)> = data
                .instances
                .iter()
                .filter(|r| !r[attr].is_nan())
                .map(|r| (r[attr], r[data.class_index] as usize))
                .collect();
            if pairs.len() < 2 {
                return None;
            }
            kernel.charge_sort(pairs.len());
            // NaNs are filtered above; `total_cmp` keeps the sort a
            // total order regardless (and pins `-0.0 < 0.0`).
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let k = data.num_classes();
            let total_dist = {
                let mut d = vec![0.0; k];
                for &(_, c) in &pairs {
                    d[c] += 1.0;
                }
                d
            };
            let mut left = vec![0.0; k];
            let mut right = total_dist.clone();
            let n = pairs.len() as f64;
            let mut best: Option<(f64, f64, f64)> = None; // (threshold, gain, split_info)
            for w in 0..pairs.len() - 1 {
                let (v, c) = pairs[w];
                left[c] += 1.0;
                right[c] -= 1.0;
                let next_v = pairs[w + 1].0;
                if next_v <= v {
                    continue; // same value: not a valid cut point
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let child_h =
                    (nl / n) * entropy(&left, kernel) + (nr / n) * entropy(&right, kernel);
                let gain = kernel.quantize(parent - child_h);
                let wl = nl / n;
                let wr = nr / n;
                let split_info = -(wl * (wl.ln() / std::f64::consts::LN_2)
                    + wr * (wr.ln() / std::f64::consts::LN_2));
                let threshold = (v + next_v) / 2.0;
                if best.map(|(_, g, _)| gain > g).unwrap_or(gain > 1e-10) {
                    best = Some((threshold, gain, split_info));
                }
            }
            best.map(|(threshold, gain, split_info)| Split {
                attr,
                threshold: Some(threshold),
                gain,
                gain_ratio: if split_info > 1e-10 {
                    kernel.quantize(gain / split_info)
                } else {
                    gain
                },
            })
        }
    }
}

/// Partition a dataset by a split.
pub fn apply_split(data: &Dataset, split: &Split) -> Vec<Dataset> {
    match split.threshold {
        Some(t) => {
            let (le, gt) = data.partition(|i| {
                data.instances[i][split.attr] <= t || data.instances[i][split.attr].is_nan()
            });
            vec![le, gt]
        }
        None => {
            let labels = data.attributes()[split.attr].cardinality();
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); labels];
            for i in 0..data.len() {
                let v = data.instances[i][split.attr];
                if !v.is_nan() && (v as usize) < labels {
                    groups[v as usize].push(i);
                }
            }
            groups.into_iter().map(|g| data.subset(&g)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Attribute;
    use crate::Kernel;

    fn xor_ish() -> Dataset {
        // x <= 5 → class 0; x > 5 → class 1 (clean numeric split at 5.5).
        let mut d = Dataset::new(
            "t",
            vec![
                Attribute::numeric("x"),
                Attribute::nominal("c", &["a", "b"]),
                Attribute::binary("y"),
            ],
        );
        for i in 0..10 {
            let y = if i > 5 { 1.0 } else { 0.0 };
            d.push(vec![i as f64, (i % 2) as f64, y]).unwrap();
        }
        d
    }

    #[test]
    fn entropy_bounds() {
        let k = Kernel::silent();
        assert_eq!(entropy(&[10.0, 0.0], &k), 0.0);
        assert!((entropy(&[5.0, 5.0], &k) - 1.0).abs() < 1e-6);
        assert_eq!(entropy(&[], &k), 0.0);
        let h3 = entropy(&[1.0, 1.0, 1.0], &k);
        assert!((h3 - 3f64.log2()).abs() < 1e-6);
    }

    #[test]
    fn numeric_split_finds_clean_boundary() {
        let d = xor_ish();
        let s = evaluate_attribute(&d, 0, &Kernel::silent()).unwrap();
        assert_eq!(s.attr, 0);
        let t = s.threshold.unwrap();
        assert!(t > 5.0 && t < 7.0, "threshold {t}");
        assert!(s.gain > 0.9, "gain {}", s.gain);
    }

    #[test]
    fn uninformative_nominal_has_no_split() {
        let d = xor_ish();
        // attr 1 alternates with parity — uncorrelated with y>5 label…
        // actually parity vs >5: i=6,8 even-class1, i=7,9 odd-class1 → gain ~0.
        let s = evaluate_attribute(&d, 1, &Kernel::silent());
        if let Some(s) = s {
            assert!(s.gain < 0.1, "gain {}", s.gain);
        }
    }

    #[test]
    fn apply_split_partitions_consistently() {
        let d = xor_ish();
        let s = evaluate_attribute(&d, 0, &Kernel::silent()).unwrap();
        let parts = apply_split(&d, &s);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len() + parts[1].len(), d.len());
        // Left pure class 0, right pure class 1.
        assert!(parts[0].instances.iter().all(|r| r[2] == 0.0));
        assert!(parts[1].instances.iter().all(|r| r[2] == 1.0));
    }

    #[test]
    fn node_classify_and_stats() {
        let leaf0 = Node::Leaf {
            class: 0.0,
            dist: vec![3.0, 0.0],
        };
        let leaf1 = Node::Leaf {
            class: 1.0,
            dist: vec![0.0, 4.0],
        };
        let tree = Node::Numeric {
            attr: 0,
            threshold: 5.5,
            left: Box::new(leaf0),
            right: Box::new(leaf1),
            dist: vec![3.0, 4.0],
        };
        assert_eq!(tree.classify(&[2.0, 0.0, 0.0]), 0.0);
        assert_eq!(tree.classify(&[9.0, 0.0, 0.0]), 1.0);
        assert_eq!(
            tree.classify(&[f64::NAN, 0.0, 0.0]),
            1.0,
            "missing → majority"
        );
        assert_eq!(tree.leaves(), 2);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn majority_handles_ties_and_empty() {
        assert_eq!(majority(&[1.0, 5.0, 2.0]), 1.0);
        assert_eq!(majority(&[]), 0.0);
    }

    #[test]
    fn majority_with_nan_count_is_deterministic() {
        // A poisoned (NaN) weight sorts above every finite count under
        // `total_cmp`, so the picked class is fixed by position, not by
        // scan order.
        assert_eq!(majority(&[1.0, f64::NAN, 2.0]), 1.0);
        assert_eq!(majority(&[f64::NAN, 5.0]), 0.0);
        assert_eq!(majority(&[5.0, f64::NAN]), 1.0);
    }

    #[test]
    fn split_winner_is_input_order_independent_with_nan_gain() {
        // The same selection expression the tree builders use: a NaN
        // gain (degenerate entropy arithmetic) must not make the
        // winning attribute depend on candidate scan order.
        let mk = |attr, gain| Split {
            attr,
            threshold: None,
            gain,
            gain_ratio: gain,
        };
        let splits = [mk(0, 0.3), mk(1, f64::NAN), mk(2, 0.7)];
        let fwd = splits
            .iter()
            .max_by(|a, b| a.gain.total_cmp(&b.gain))
            .unwrap()
            .attr;
        let rev = splits
            .iter()
            .rev()
            .max_by(|a, b| a.gain.total_cmp(&b.gain))
            .unwrap()
            .attr;
        assert_eq!(fwd, rev, "winner must not depend on scan order");
        assert_eq!(
            fwd, 1,
            "NaN sorts above all finite gains — surfaced, not hidden"
        );
    }
}

//! RandomForest — bagging over RandomTrees.
//!
//! "RandomForest uses bagging on ensemble of random trees" (§VIII).
//! Trees are built in parallel on the jepo-pool scoped worker pool
//! (the ensemble is embarrassingly parallel); each worker charges a
//! per-tree kernel whose local scoreboard flushes into its own stripe
//! of the shared counter, so concurrent accounting is lossless *and*
//! contention-free.

use super::random_tree::RandomTree;
use super::Classifier;
use crate::data::Dataset;
use crate::ops::Kernel;
use crate::MlError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bagged ensemble of random trees.
pub struct RandomForest {
    kernel: Kernel,
    seed: u64,
    /// Number of trees (WEKA `-I`, default 100).
    pub n_trees: usize,
    /// Build trees in parallel.
    pub parallel: bool,
    trees: Vec<RandomTree>,
}

impl RandomForest {
    /// Defaults.
    pub fn new(seed: u64) -> RandomForest {
        RandomForest::with_kernel(Kernel::silent(), seed)
    }

    /// With an explicit energy kernel.
    pub fn with_kernel(kernel: Kernel, seed: u64) -> RandomForest {
        RandomForest {
            kernel,
            seed,
            n_trees: 30,
            parallel: true,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    fn bootstrap(&self, data: &Dataset, rng: &mut StdRng) -> Dataset {
        let n = data.len();
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            // The bagging copy: the hot allocation/copy path JEPO's
            // arrays-copy suggestion hits in WEKA's Bagging.
            let mut row = Vec::new();
            self.kernel.copy(&data.instances[i], &mut row);
            rows.push(row);
        }
        // Bagging's shared bookkeeping (out-of-bag bitmap, the static
        // progress counter the baseline code keeps) is touched per
        // resampling block, not per draw.
        self.kernel.bump_counters(n as u64 / 6);
        data.with_rows(rows)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::Train("empty dataset".into()));
        }
        let samples: Vec<(Dataset, u64)> = {
            let mut rng = StdRng::seed_from_u64(self.seed);
            (0..self.n_trees)
                .map(|t| (self.bootstrap(data, &mut rng), self.seed ^ (t as u64) << 17))
                .collect()
        };
        // A scoreboard-carrying Kernel is !Sync, so workers cannot share
        // `&self.kernel`; each build constructs its own kernel around
        // the shared striped counter instead (counts are exact sums, so
        // the split changes nothing in the totals).
        let profile = self.kernel.profile();
        let counter = self.kernel.counter();
        let build = move |(sample, tree_seed): &(Dataset, u64)| -> Result<RandomTree, MlError> {
            let kernel = Kernel::with_counter(profile, counter.clone());
            let mut tree = RandomTree::with_kernel(kernel.clone(), *tree_seed);
            tree.fit(sample)?;
            let leaves = tree.leaves().to_string();
            let _ = kernel.build_report(&["RandomTree: ", &leaves, " leaves\n"]);
            Ok(tree)
        };
        self.trees = if self.parallel {
            jepo_pool::try_parallel_map(&samples, 0, |_, s| build(s))?
        } else {
            samples.iter().map(build).collect::<Result<Vec<_>, _>>()?
        };
        Ok(())
    }

    fn predict(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        // Average distributions (WEKA's probability voting).
        let mut votes: Vec<f64> = Vec::new();
        for t in &self.trees {
            let d = t.distribution(row);
            if votes.is_empty() {
                votes = d;
            } else {
                for (v, x) in votes.iter_mut().zip(d) {
                    *v += x;
                }
            }
        }
        super::tree_util::majority(&votes)
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::airlines::AirlinesGenerator;
    use crate::eval::crossval::stratified_cross_validate;

    #[test]
    fn forest_beats_single_tree_on_noisy_data() {
        let data = AirlinesGenerator::new(13).generate(600);
        let forest_eval = stratified_cross_validate(&data, 4, 5, || {
            let mut f = RandomForest::new(1);
            f.n_trees = 15;
            f
        });
        let tree_eval = stratified_cross_validate(&data, 4, 5, || RandomTree::new(1));
        assert!(
            forest_eval.accuracy() + 0.02 >= tree_eval.accuracy(),
            "forest {:.3} vs tree {:.3}",
            forest_eval.accuracy(),
            tree_eval.accuracy()
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let data = AirlinesGenerator::new(17).generate(300);
        let mut par = RandomForest::new(7);
        par.n_trees = 8;
        par.parallel = true;
        par.fit(&data).unwrap();
        let mut seq = RandomForest::new(7);
        seq.n_trees = 8;
        seq.parallel = false;
        seq.fit(&data).unwrap();
        for row in data.instances.iter().take(50) {
            assert_eq!(par.predict(row), seq.predict(row));
        }
    }

    #[test]
    fn tree_count_matches_config() {
        let data = AirlinesGenerator::new(17).generate(120);
        let mut f = RandomForest::new(3);
        f.n_trees = 5;
        f.fit(&data).unwrap();
        assert_eq!(f.tree_count(), 5);
    }

    #[test]
    fn bootstrap_shares_the_schema_and_counts_one_copy_per_draw() {
        use jepo_rapl::OpCategory;
        let kernel = Kernel::new(crate::EfficiencyProfile::baseline());
        let data = AirlinesGenerator::new(17).generate(100);
        let forest = RandomForest::with_kernel(kernel.clone(), 3);
        let sample = forest.bootstrap(&data, &mut StdRng::seed_from_u64(3));
        assert!(std::sync::Arc::ptr_eq(&data.schema, &sample.schema));
        assert_eq!(sample.len(), data.len());
        assert!(sample.instances.iter().all(|r| data.instances.contains(r)));
        drop(forest);
        // One counted copy per drawn row, nothing else.
        let copied = kernel.snapshot().get(OpCategory::ArrayCopyElem);
        assert_eq!(copied, (data.len() * data.num_attributes()) as u64);
    }

    #[test]
    fn bagging_charges_copies_to_the_kernel() {
        use jepo_rapl::OpCategory;
        let kernel = Kernel::new(crate::EfficiencyProfile::baseline());
        let data = AirlinesGenerator::new(17).generate(100);
        let mut f = RandomForest::with_kernel(kernel.clone(), 3);
        f.n_trees = 3;
        f.fit(&data).unwrap();
        // Trees keep their kernels until the forest drops; drop it so
        // every scoreboard flushes before reading the shared counter.
        drop(f);
        let snap = kernel.snapshot();
        assert!(
            snap.get(OpCategory::ArrayCopyElem) >= 300,
            "manual copies counted"
        );
        assert!(snap.get(OpCategory::StaticAccess) > 0);
        assert!(snap.get(OpCategory::StringConcat) > 0);
    }
}

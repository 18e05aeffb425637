//! Stratified k-fold cross-validation — the paper's protocol
//! ("evaluated various classifiers using stratified 10-fold
//! cross-validation").
//!
//! Folds are independent, so [`stratified_cross_validate_jobs`] fans
//! them out over the jepo-pool scoped worker pool with one fresh
//! [`Kernel`]/op-counter per fold. Per-fold evaluations and op
//! snapshots are merged **in fold order** at join, which makes the
//! parallel run bit-identical to the sequential one for any `jobs`.

use super::metrics::Evaluation;
use crate::classifiers::Classifier;
use crate::data::Dataset;
use crate::ops::{EfficiencyProfile, Kernel};
use jepo_rapl::OpSnapshot;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Assign each instance to a fold, preserving class proportions
/// (WEKA's `Instances.stratify`). Returns `fold_of[i]` per instance.
pub fn stratified_folds(data: &Dataset, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    let mut rng = StdRng::seed_from_u64(seed);
    // Group indices by class, shuffle within class, deal round-robin.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); data.num_classes()];
    for i in 0..data.len() {
        let c = (data.class_of(i) as usize).min(by_class.len() - 1);
        by_class[c].push(i);
    }
    let mut fold_of = vec![0usize; data.len()];
    let mut next = 0usize;
    for group in &mut by_class {
        group.shuffle(&mut rng);
        for &i in group.iter() {
            fold_of[i] = next % k;
            next += 1;
        }
    }
    fold_of
}

/// The `(test, train)` sets of one fold of a [`stratified_folds`]
/// assignment. Both share `data`'s schema.
pub fn fold_sets(data: &Dataset, fold_of: &[usize], fold: usize) -> (Dataset, Dataset) {
    data.partition(|i| fold_of[i] == fold)
}

/// Run stratified k-fold cross-validation, building a fresh classifier
/// per fold via `make`. Returns the aggregated evaluation.
pub fn stratified_cross_validate<C: Classifier>(
    data: &Dataset,
    k: usize,
    seed: u64,
    mut make: impl FnMut() -> C,
) -> Evaluation {
    let fold_of = stratified_folds(data, k, seed);
    let mut eval = Evaluation::new(data.num_classes());
    for fold in 0..k {
        let (test, train) = fold_sets(data, &fold_of, fold);
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let mut clf = make();
        if clf.fit(&train).is_err() {
            continue;
        }
        for row in &test.instances {
            let pred = clf.predict(row);
            eval.record(row[test.class_index], pred);
        }
    }
    eval
}

/// Counted, optionally parallel cross-validation.
///
/// Each fold gets a **fresh** [`Kernel`] (and thus its own op-counter);
/// `make` builds the fold's classifier around it. Folds run on up to
/// `jobs` workers (`0` = one per core, `1` = sequential). Per-fold
/// results are committed by fold index and merged in fold order, so the
/// returned `(Evaluation, OpSnapshot)` is identical — bit for bit — to
/// the sequential run: confusion-matrix and op-count merging are sums
/// of per-fold integers, which commute.
pub fn stratified_cross_validate_jobs<C: Classifier>(
    data: &Dataset,
    k: usize,
    seed: u64,
    jobs: usize,
    profile: EfficiencyProfile,
    make: impl Fn(Kernel) -> C + Sync,
) -> (Evaluation, OpSnapshot) {
    let fold_of = stratified_folds(data, k, seed);
    let folds: Vec<usize> = (0..k).collect();
    let per_fold = jepo_pool::parallel_map(&folds, jobs, |_, &fold| {
        let kernel = Kernel::new(profile);
        let mut eval = Evaluation::new(data.num_classes());
        let (test, train) = fold_sets(data, &fold_of, fold);
        if !train.is_empty() && !test.is_empty() {
            let mut clf = make(kernel.clone());
            if clf.fit(&train).is_ok() {
                for row in &test.instances {
                    eval.record(row[test.class_index], clf.predict(row));
                }
            }
        }
        // The classifier (and every kernel clone it held) has dropped by
        // here, flushing all scoreboards; `take_snapshot` flushes the
        // fold kernel's own board and drains the shared counter.
        (eval, kernel.take_snapshot())
    });
    let mut eval = Evaluation::new(data.num_classes());
    let mut ops = OpSnapshot::default();
    for (e, s) in &per_fold {
        eval.merge(e);
        ops.merge(s);
    }
    (eval, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::airlines::AirlinesGenerator;
    use crate::data::Attribute;

    #[test]
    fn folds_preserve_class_proportions() {
        let data = AirlinesGenerator::new(3).generate(1000);
        let folds = stratified_folds(&data, 10, 1);
        let overall = data.class_counts();
        let overall_ratio = overall[1] as f64 / data.len() as f64;
        for f in 0..10 {
            let idxs: Vec<usize> = (0..data.len()).filter(|&i| folds[i] == f).collect();
            let pos = idxs.iter().filter(|&&i| data.class_of(i) == 1.0).count();
            let ratio = pos as f64 / idxs.len() as f64;
            assert!(
                (ratio - overall_ratio).abs() < 0.08,
                "fold {f}: {ratio} vs {overall_ratio}"
            );
            // Folds are near-equal size.
            assert!((idxs.len() as i64 - 100).abs() <= 2);
        }
    }

    #[test]
    fn folds_are_deterministic_per_seed() {
        let data = AirlinesGenerator::new(3).generate(200);
        assert_eq!(stratified_folds(&data, 5, 9), stratified_folds(&data, 5, 9));
        assert_ne!(
            stratified_folds(&data, 5, 9),
            stratified_folds(&data, 5, 10)
        );
    }

    /// Trivial classifier predicting the training majority class.
    struct Majority(f64);
    impl Classifier for Majority {
        fn fit(&mut self, d: &Dataset) -> Result<(), crate::MlError> {
            self.0 = d.majority_class();
            Ok(())
        }
        fn predict(&self, _x: &[f64]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "Majority"
        }
    }

    #[test]
    fn cross_validation_runs_all_folds() {
        let mut d = Dataset::new("toy", vec![Attribute::numeric("x"), Attribute::binary("y")]);
        for i in 0..100 {
            d.push(vec![i as f64, if i % 3 == 0 { 1.0 } else { 0.0 }])
                .unwrap();
        }
        let eval = stratified_cross_validate(&d, 10, 1, || Majority(0.0));
        assert_eq!(eval.total(), 100);
        // Majority class is 0 (66 of 100): accuracy ≈ 0.66.
        assert!((eval.accuracy() - 0.66).abs() < 0.05);
    }

    #[test]
    fn parallel_folds_match_sequential_bit_for_bit() {
        use crate::classifiers::by_name;
        let data = AirlinesGenerator::new(7).generate(300);
        let profile = EfficiencyProfile::baseline();
        let run = |jobs| {
            stratified_cross_validate_jobs(&data, 5, 7, jobs, profile, |kernel| {
                by_name("Naive Bayes", kernel, 7).unwrap()
            })
        };
        let (eval1, ops1) = run(1);
        for jobs in [2, 3, 8] {
            let (evaln, opsn) = run(jobs);
            assert_eq!(eval1, evaln, "jobs={jobs}");
            assert_eq!(ops1, opsn, "jobs={jobs}");
        }
        // And the counted path agrees with the plain sequential API.
        let plain = stratified_cross_validate(&data, 5, 7, || {
            by_name("Naive Bayes", Kernel::new(profile), 7).unwrap()
        });
        assert_eq!(plain, eval1);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn k1_is_rejected() {
        let d = AirlinesGenerator::new(1).generate(10);
        stratified_folds(&d, 1, 0);
    }
}

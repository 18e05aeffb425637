//! Property tests over the ML substrate: ARFF round-trips, fold
//! invariants, and classifier sanity on generated datasets.

use jepo_ml::classifiers::{by_name, Classifier, CLASSIFIER_NAMES};
use jepo_ml::data::{arff, Attribute, Dataset};
use jepo_ml::eval::crossval::stratified_folds;
use jepo_ml::Kernel;
use proptest::prelude::*;

fn small_dataset() -> impl Strategy<Value = Dataset> {
    // 2 numeric features + a binary class; labels follow a noisy
    // threshold rule so there is always signal and both classes.
    (10usize..80, any::<u64>()).prop_map(|(n, seed)| {
        let mut d = Dataset::new(
            "gen",
            vec![
                Attribute::numeric("x"),
                Attribute::numeric("y"),
                Attribute::binary("c"),
            ],
        );
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            let x = next() * 10.0;
            let y = next() * 10.0;
            let c = if x + y > 10.0 { 1.0 } else { 0.0 };
            // Force both classes to exist.
            let c = if i == 0 {
                0.0
            } else if i == 1 {
                1.0
            } else {
                c
            };
            d.push(vec![x, y, c]).unwrap();
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ARFF write → parse is the identity on schema and values.
    #[test]
    fn arff_roundtrip(d in small_dataset()) {
        let text = arff::write(&d);
        let back = arff::parse(&text).unwrap();
        prop_assert_eq!(d.attributes(), back.attributes());
        prop_assert_eq!(d.len(), back.len());
        for (a, b) in d.instances.iter().zip(&back.instances) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
            }
        }
    }

    /// Stratified folds partition all instances and keep fold sizes
    /// within two of each other.
    #[test]
    fn folds_partition_and_balance(d in small_dataset(), k in 2usize..6) {
        let folds = stratified_folds(&d, k, 3);
        prop_assert_eq!(folds.len(), d.len());
        let mut sizes = vec![0usize; k];
        for &f in &folds {
            prop_assert!(f < k);
            sizes[f] += 1;
        }
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 2, "{:?}", sizes);
    }

    /// Every classifier fits generated data without error and predicts
    /// only valid class indices.
    #[test]
    fn classifiers_fit_and_predict_valid_classes(d in small_dataset()) {
        for name in CLASSIFIER_NAMES {
            let mut clf = by_name(name, Kernel::silent(), 1).unwrap();
            clf.fit(&d).unwrap_or_else(|e| panic!("{name}: {e}"));
            for row in d.instances.iter().take(10) {
                let p = clf.predict(row);
                prop_assert!(p == 0.0 || p == 1.0, "{} predicted {}", name, p);
            }
        }
    }

    /// Training and predicting is deterministic for a fixed seed.
    #[test]
    fn fitting_is_deterministic(d in small_dataset()) {
        for name in ["Random Tree", "Random Forest", "SGD", "SMO"] {
            let mut a = by_name(name, Kernel::silent(), 9).unwrap();
            let mut b = by_name(name, Kernel::silent(), 9).unwrap();
            a.fit(&d).unwrap();
            b.fit(&d).unwrap();
            for row in d.instances.iter().take(10) {
                prop_assert_eq!(a.predict(row), b.predict(row), "{}", name);
            }
        }
    }
}

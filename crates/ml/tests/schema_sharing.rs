//! Every dataset derived from another shares its schema: subsets, CV
//! folds and tree splits copy a pointer, not the ~600 airlines label
//! strings. A deep copy coming back would make a tree split on
//! `Airport From` allocate hundreds of thousands of strings; these
//! tests make it fail instead of just slowing Table IV down.

use jepo_ml::classifiers::tree_util::{apply_split, Split};
use jepo_ml::data::airlines::AirlinesGenerator;
use jepo_ml::eval::crossval::{fold_sets, stratified_folds};
use jepo_ml::Dataset;
use std::sync::Arc;

fn airlines() -> Dataset {
    AirlinesGenerator::new(5).generate(400)
}

fn assert_shares(parent: &Dataset, child: &Dataset, what: &str) {
    assert!(
        Arc::ptr_eq(&parent.schema, &child.schema),
        "{what} deep-copied the schema"
    );
}

fn split(attr: usize, threshold: Option<f64>) -> Split {
    Split {
        attr,
        threshold,
        gain: 0.0,
        gain_ratio: 0.0,
    }
}

#[test]
fn subset_and_partition_share_the_schema() {
    let data = airlines();
    assert_shares(&data, &data.subset(&[0, 3, 3, 7]), "subset");
    assert_shares(&data, &data.subset(&[]), "empty subset");
    let (even, odd) = data.partition(|i| i % 2 == 0);
    assert_shares(&data, &even, "partition (first)");
    assert_shares(&data, &odd, "partition (second)");
}

#[test]
fn tree_splits_share_the_schema() {
    let data = airlines();
    let attr = |name: &str| {
        data.attributes()
            .iter()
            .position(|a| a.name == name)
            .expect("airlines attribute")
    };
    let numeric = apply_split(&data, &split(attr("Time"), Some(700.0)));
    assert_eq!(numeric.len(), 2);
    for child in &numeric {
        assert_shares(&data, child, "numeric split");
    }
    let airport = attr("Airport From");
    assert_eq!(data.attributes()[airport].cardinality(), 293);
    let nominal = apply_split(&data, &split(airport, None));
    assert_eq!(nominal.len(), 293, "one child per label, empty ones too");
    for child in &nominal {
        assert_shares(&data, child, "293-label nominal split");
    }
    // Grandchildren share the root's schema, not a copy per level.
    let (left, _) = numeric[0].partition(|i| i % 3 == 0);
    assert_shares(&data, &left, "split of a split");
}

#[test]
fn cross_validation_folds_share_the_schema() {
    let data = airlines();
    let fold_of = stratified_folds(&data, 4, 9);
    for fold in 0..4 {
        let (test, train) = fold_sets(&data, &fold_of, fold);
        assert!(!test.is_empty() && !train.is_empty());
        assert_shares(&data, &test, "CV test set");
        assert_shares(&data, &train, "CV train set");
    }
}

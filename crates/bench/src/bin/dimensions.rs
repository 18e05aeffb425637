//! Ablation: which JEPO suggestion buys which share of Table IV's
//! improvement? For each efficiency-profile dimension, run the optimized
//! profile with that one dimension reverted to baseline and report the
//! improvement lost. Then re-price the baseline and optimized op counts
//! under a uniform cost model (every op costs the same): the improvement
//! collapses, because Table IV depends on cost heterogeneity.
//!
//! Usage: `dimensions [classifier] [instances]` (defaults "Random
//! Forest", 1000).

use jepo_bench::report::Args;
use jepo_core::WekaExperiment;
use jepo_ml::classifiers::by_name;
use jepo_ml::eval::crossval::stratified_cross_validate;
use jepo_ml::{EfficiencyProfile, Kernel};
use jepo_rapl::{CostModel, Measurement};

fn main() {
    let args = Args::from_env(&[]);
    let classifier: String = args.pos(0, "Random Forest".into());
    let instances: usize = args.pos(1, 1_000);
    let exp = WekaExperiment {
        instances,
        folds: 5,
        ..Default::default()
    };
    let data = exp.dataset();
    let (base, _) = exp.measure(&classifier, EfficiencyProfile::baseline(), &data);
    let (opt, _) = exp.measure(&classifier, EfficiencyProfile::optimized(), &data);
    let full = Measurement::improvement_pct(base.package_j, opt.package_j);
    println!("{classifier}: full optimization improves package energy by {full:.2}%");
    println!(
        "{:<18} {:>24}",
        "dimension reverted", "improvement remaining"
    );
    println!("{}", "-".repeat(44));
    for dim in EfficiencyProfile::DIMENSIONS {
        let (partial, _) =
            exp.measure(&classifier, EfficiencyProfile::optimized_except(dim), &data);
        let pct = Measurement::improvement_pct(base.package_j, partial.package_j);
        println!("{dim:<18} {pct:>23.2}%");
    }

    let uniform = CostModel::uniform(2.0);
    let joules_under = |profile: EfficiencyProfile| {
        let kernel = Kernel::new(profile);
        stratified_cross_validate(&data, exp.folds, exp.seed, || {
            by_name(&classifier, kernel.clone(), exp.seed).expect("known classifier")
        });
        uniform.joules_for(&kernel.take_snapshot())
    };
    let b = joules_under(EfficiencyProfile::baseline());
    let o = joules_under(EfficiencyProfile::optimized());
    println!(
        "\nuniform cost model: improvement {:.2}% (heterogeneity is the effect)",
        Measurement::improvement_pct(b, o)
    );
}

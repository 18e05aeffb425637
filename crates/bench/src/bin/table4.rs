//! Regenerate Table IV: the WEKA evaluation.
//!
//! Every classifier runs stratified 10-fold CV on the airlines data
//! under the baseline and JEPO-optimized efficiency profiles; energy
//! flows through the calibrated cost/latency models into the simulated
//! RAPL device; the §VIII Tukey protocol produces the means.
//!
//! With `--jobs N` the ten classifier rows fan out over N workers
//! (0 = one per core; values beyond the available cores are clamped,
//! since oversubscription only adds scheduler noise to the timing).
//! The runner is deterministic: before reporting,
//! this harness re-runs the table sequentially, verifies the parallel
//! output is bit-identical, and records both wall-clock times plus the
//! speedup in `BENCH_table4.json`.
//!
//! Usage: `table4 [instances] [folds] [--jobs N]` (defaults 2000, 10, 1;
//! the paper used 10,000 instances — pass it explicitly if you have a
//! few minutes).

use jepo_bench::report::{num, Args, Json};
use jepo_core::{report, ClassifierResult, WekaExperiment};
use std::time::Instant;

/// Bitwise equality of two result sets (f64s compared by bits — the
/// determinism contract is *identical output*, not merely close).
fn bit_identical(a: &[ClassifierResult], b: &[ClassifierResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.changes == y.changes
                && x.converged == y.converged
                && [
                    (x.package_improvement_pct, y.package_improvement_pct),
                    (x.cpu_improvement_pct, y.cpu_improvement_pct),
                    (x.time_improvement_pct, y.time_improvement_pct),
                    (x.accuracy_baseline, y.accuracy_baseline),
                    (x.accuracy_optimized, y.accuracy_optimized),
                    (x.baseline.package_j, y.baseline.package_j),
                    (x.baseline.seconds, y.baseline.seconds),
                    (x.optimized.package_j, y.optimized.package_j),
                    (x.optimized.seconds, y.optimized.seconds),
                ]
                .iter()
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn main() {
    let args = Args::from_env(&["--jobs"]);
    let instances: usize = args.pos(0, 2_000);
    let folds: usize = args.pos(1, 10);
    let exp = WekaExperiment {
        instances,
        folds,
        ..Default::default()
    };
    let clamp = jepo_pool::clamp_to_cores(args.flag("--jobs").unwrap_or(1));
    let effective = clamp.effective;
    eprintln!(
        "Running {} classifiers × 2 profiles, {instances} instances, {folds}-fold CV, \
         {effective} worker(s)…",
        jepo_ml::classifiers::CLASSIFIER_NAMES.len()
    );

    let t = Instant::now();
    let results = exp.run_all_jobs(effective);
    let par_secs = t.elapsed().as_secs_f64();

    eprintln!("Verifying against the sequential run…");
    let t = Instant::now();
    let sequential = exp.run_all_jobs(1);
    let seq_secs = t.elapsed().as_secs_f64();
    let identical = bit_identical(&results, &sequential);

    println!("{}", report::table4(&results));
    println!("Paper reference (i5-3317U, 10,000 instances): Random Forest best at");
    println!("14.46% package / 14.19% CPU / 12.93% time; Random Tree worst accuracy drop 0.48%.");
    println!(
        "\nWall clock: sequential {seq_secs:.2}s, {effective} worker(s) {par_secs:.2}s \
         (speedup {:.2}×); parallel output bit-identical: {identical}",
        seq_secs / par_secs.max(1e-9)
    );
    if !identical {
        eprintln!("ERROR: parallel run diverged from the sequential run");
    }

    let rows = results.iter().map(|r| {
        Json::obj([
            ("classifier", r.name.as_str().into()),
            ("changes", r.changes.into()),
            ("package_improvement_pct", num(r.package_improvement_pct, 6)),
            ("cpu_improvement_pct", num(r.cpu_improvement_pct, 6)),
            ("time_improvement_pct", num(r.time_improvement_pct, 6)),
            ("accuracy_drop_pct", num(r.accuracy_drop_pct, 6)),
            ("converged", r.converged.into()),
        ])
    });
    Json::obj([
        ("bench", "table4".into()),
        ("instances", instances.into()),
        ("folds", folds.into()),
        ("requested_jobs", clamp.requested.into()),
        ("jobs", effective.into()),
        ("available_cores", clamp.cores.into()),
        ("note", clamp.note().into()),
        ("sequential_secs", num(seq_secs, 3)),
        ("parallel_secs", num(par_secs, 3)),
        ("speedup", num(seq_secs / par_secs.max(1e-9), 3)),
        ("bit_identical_to_sequential", identical.into()),
        ("rows", Json::Arr(rows.collect())),
    ])
    .write_artifact("BENCH_table4.json");
    println!("\nMarkdown:\n{}", report::table4_markdown(&results));
    if !identical {
        std::process::exit(1);
    }
}

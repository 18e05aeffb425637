//! `table4`: the paper's Table IV, one caller.
//!
//! One op runs the ten-classifier WEKA experiment over the row pool and
//! renders the table. Only here do `ml`, `pool` and the `core`
//! measurement protocol do real work. RandomForest's row is most of the
//! makespan, so this is the workload on which the row pool's critical
//! path shows.

use crate::trace::{Recorder, OP, REPLAY};
use crate::util::{ms_since, spearman, timed_setup, Outcome, Window};
use crate::Cfg;
use jepo_core::{corpus, derived_seed, report, ClassifierResult, WekaExperiment};
use jepo_ml::classifiers::{by_name, CLASSIFIER_NAMES};
use jepo_ml::eval::crossval::stratified_folds;
use jepo_ml::eval::metrics::Evaluation;
use jepo_ml::{Dataset, EfficiencyProfile, Kernel};
use jepo_rapl::{CostModel, Domain, Measurement, OpSnapshot, SimulatedRapl};
use std::time::Instant;

const INSTANCES: usize = 200;
const FOLDS: usize = 2;
/// Set-up repetitions before the window, and again after every op
/// (outside its timing), so the median sees the same host phases the
/// ops see. One set-up takes about 2 ms, an op about 2 s.
const SETUP_REPS: usize = 25;
const SETUP_REPS_PER_OP: usize = 10;

/// Layer-name form of a classifier (`Random Forest` -> `RandomForest`).
fn short(name: &str) -> String {
    name.replace(' ', "")
}

/// One row measured from outside: the cross-validation of
/// `WekaExperiment::measure` under one profile, with every fold's fit
/// and predict in its own span. Returns the measurement, the accuracy
/// and the time spent in fit and predict.
fn measure(
    exp: &WekaExperiment,
    name: &str,
    profile: EfficiencyProfile,
    data: &Dataset,
    rec: &Recorder,
) -> (Measurement, f64, f64) {
    let c = short(name);
    let (fit_span, predict_span) = (format!("ml.fit.{c}"), format!("ml.predict.{c}"));
    let fold_of = stratified_folds(data, exp.folds, exp.seed);
    let mut eval = Evaluation::new(data.num_classes());
    let mut ops = OpSnapshot::default();
    let mut ml_ms = 0.0;
    for fold in 0..exp.folds {
        let kernel = Kernel::new(profile);
        let mut fold_eval = Evaluation::new(data.num_classes());
        let (test, train) = data.partition(|i| fold_of[i] == fold);
        if !train.is_empty() && !test.is_empty() {
            let mut clf = by_name(name, kernel.clone(), exp.seed).expect("known classifier");
            let t = Instant::now();
            let fitted = {
                let _s = rec.span(&fit_span);
                clf.fit(&train).is_ok()
            };
            if fitted {
                let _s = rec.span(&predict_span);
                for row in &test.instances {
                    fold_eval.record(row[test.class_index], clf.predict(row));
                }
            }
            ml_ms += ms_since(t);
        }
        // The classifier has dropped here, flushing its kernel clones.
        ops.merge(&kernel.take_snapshot());
        eval.merge(&fold_eval);
    }
    let joules = CostModel::paper_calibrated().joules_for(&ops);
    let seconds = jepo_jvm::LatencyModel::paper_calibrated().seconds_for(&ops);
    let sim = SimulatedRapl::new(exp.device.clone());
    sim.add_dynamic_energy(joules);
    sim.advance_seconds(seconds);
    let m = Measurement {
        package_j: sim.read_joules(Domain::Package),
        core_j: sim.read_joules(Domain::Core),
        uncore_j: sim.read_joules(Domain::Uncore),
        dram_j: sim.read_joules(Domain::Dram),
        seconds,
    };
    (m, eval.accuracy(), ml_ms)
}

/// One Table IV row rebuilt from the public pieces `run_classifier`
/// composes, each in its own span. Returns the row, its fit+predict
/// time and its simulated joules.
fn row(
    exp: &WekaExperiment,
    name: &str,
    data: &Dataset,
    rec: &Recorder,
) -> (ClassifierResult, f64, f64) {
    let (base_m, base_acc, base_ms) = measure(exp, name, EfficiencyProfile::baseline(), data, rec);
    let (opt_m, opt_acc, opt_ms) = measure(exp, name, EfficiencyProfile::optimized(), data, rec);
    let noise_seed = derived_seed(exp.protocol.seed, name);
    let (base, opt) = {
        let _s = rec.span("core.protocol");
        (
            exp.protocol.run_with_seed(noise_seed, || base_m),
            exp.protocol.run_with_seed(noise_seed, || opt_m),
        )
    };
    let changes = {
        let _s = rec.span("core.changes");
        WekaExperiment::change_count(name).expect("known classifier")
    };
    let result = ClassifierResult {
        name: name.to_string(),
        changes,
        package_improvement_pct: Measurement::improvement_pct(
            base.mean.package_j,
            opt.mean.package_j,
        ),
        cpu_improvement_pct: Measurement::improvement_pct(base.mean.core_j, opt.mean.core_j),
        time_improvement_pct: Measurement::improvement_pct(base.mean.seconds, opt.mean.seconds),
        baseline: base.mean,
        optimized: opt.mean,
        accuracy_baseline: base_acc,
        accuracy_optimized: opt_acc,
        accuracy_drop_pct: ((base_acc - opt_acc) * 100.0).max(0.0),
        converged: base.converged && opt.converged,
    };
    (result, base_ms + opt_ms, base_m.package_j + opt_m.package_j)
}

/// The op with a span at each public call: the dataset, the program's
/// own `run_classifier` for every row over the pool (the three lines of
/// `run_all_jobs`), and the render. Off the op's path, a replay then
/// splits every row into fit, predict, protocol and change-count spans;
/// it must render the same table as the op.
fn traced_op(
    exp: &WekaExperiment,
    jobs: usize,
    rec: &Recorder,
    id: u64,
    out: &mut Outcome,
) -> (f64, String) {
    let t = Instant::now();
    let root = rec.root(OP, id);
    let data = {
        let _s = rec.span("ml.dataset");
        exp.dataset()
    };
    let _ = corpus::shared_corpus();
    let pool_t = Instant::now();
    let rows = {
        let pool = rec.span("pool.makespan");
        let parent = pool.id();
        jepo_pool::parallel_map(&CLASSIFIER_NAMES, jobs, |_, name| {
            let t = Instant::now();
            let _s = rec.span_under(&format!("pool.row.{}", short(name)), parent, id);
            (exp.run_classifier(name, &data), ms_since(t))
        })
    };
    let makespan = ms_since(pool_t);
    let text = {
        let _s = rec.span("core.table4_render");
        let results: Vec<ClassifierResult> = rows.iter().map(|r| r.0.clone()).collect();
        report::table4(&results)
    };
    drop(root);
    let ms = ms_since(t);

    let row_ms: Vec<f64> = rows.iter().map(|r| r.1).collect();
    out.observe(
        "pool.critical_row_ms",
        row_ms.iter().copied().fold(0.0, f64::max),
    );
    out.observe(
        "pool.busy_frac",
        row_ms.iter().sum::<f64>() / (jobs as f64 * makespan),
    );

    let (mut replayed, mut ml_ms, mut sim_j) = (Vec::new(), Vec::new(), Vec::new());
    {
        let _r = rec.root(REPLAY, id);
        for name in CLASSIFIER_NAMES {
            let (result, ms, j) = row(exp, name, &data, rec);
            out.observe(format!("ml.sim_j.{}", short(name)), j);
            replayed.push(result);
            ml_ms.push(ms);
            sim_j.push(j);
        }
    }
    out.observe("ml.time_energy_rank_corr", spearman(&ml_ms, &sim_j));
    let differs = "the row replay renders a different table than run_classifier".to_string();
    if report::table4(&replayed) != text && !out.check_errors.contains(&differs) {
        out.check_errors.push(differs);
    }
    (ms, text)
}

pub fn run(cfg: &Cfg, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let jobs = cfg.concurrency;
    out.record.push(("jobs", jobs.to_string()));
    let mut exp = WekaExperiment {
        instances: INSTANCES,
        folds: FOLDS,
        ..Default::default()
    };
    exp.protocol.seed = derived_seed(cfg.seed, "table4/protocol");
    // Set-up: the dataset and a fresh parse of the corpus the rows'
    // change counts read.
    let setup = || (exp.dataset(), corpus::full_corpus());
    timed_setup(SETUP_REPS, &mut out.setup_times, setup, drop);

    // Reference, outside the timed window: the sequential runner.
    let reference = report::table4(&exp.run_all_jobs(1));

    let window = Window::start(cfg.seconds, cfg.trace);
    let cpu0 = crate::util::cpu_seconds();
    while let Some(traced) = window.phase(out.attempted) {
        out.attempted += 1;
        let id = out.attempted;
        let (ms, text) = if traced {
            traced_op(&exp, jobs, rec, id, &mut out)
        } else {
            let t = Instant::now();
            let text = report::table4(&exp.run_all_jobs(jobs));
            (ms_since(t), text)
        };
        let ms = if text == reference {
            ms
        } else {
            out.failures.add("mismatch");
            f64::INFINITY
        };
        if traced {
            out.traced_ms.push(ms);
        } else {
            out.untraced_ms.push(ms);
        }
        timed_setup(SETUP_REPS_PER_OP, &mut out.setup_times, setup, drop);
    }
    out.window_s = window.elapsed();
    out.cpu_s = crate::util::cpu_seconds() - cpu0;
    out
}

//! End-to-end differential tests for the optimized interpreters: the
//! whole profiler pipeline (corpus compile → instrument → run → report)
//! must produce byte-identical output under all engines (legacy,
//! pre-decoded, register-IR), the masked telemetry trace must match,
//! and the Table IV report text must be invariant across `--jobs` —
//! the optimized engines are only allowed to be *faster*, never
//! *different*.

use jepo_core::corpus;
use jepo_core::report;
use jepo_core::{JepoProfiler, ProfileReport, WekaExperiment};
use jepo_jvm::Dispatch;

fn profile_with(dispatch: Dispatch) -> ProfileReport {
    JepoProfiler::new()
        .with_dispatch(dispatch)
        .profile(&corpus::runnable_project())
        .expect("corpus profiles")
}

fn assert_reports_identical(l: &ProfileReport, d: &ProfileReport) {
    assert_eq!(l.main_class, d.main_class);
    assert_eq!(l.probes_injected, d.probes_injected);
    assert_eq!(l.stdout, d.stdout, "program stdout diverged");
    assert_eq!(l.result_txt, d.result_txt, "result.txt diverged");
    assert_eq!(l.view(), d.view(), "Fig. 4 profiler view diverged");
    for (name, a, b) in [
        ("package_j", l.energy.package_j, d.energy.package_j),
        ("core_j", l.energy.core_j, d.energy.core_j),
        ("uncore_j", l.energy.uncore_j, d.energy.uncore_j),
        ("dram_j", l.energy.dram_j, d.energy.dram_j),
        ("seconds", l.energy.seconds, d.energy.seconds),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "energy `{name}` diverged");
    }
    assert_eq!(l.records.len(), d.records.len());
    for (a, b) in l.records.iter().zip(&d.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.executions, b.executions, "{}", a.name);
        assert_eq!(
            a.total_package_j.to_bits(),
            b.total_package_j.to_bits(),
            "{} package_j",
            a.name
        );
        assert_eq!(
            a.total_core_j.to_bits(),
            b.total_core_j.to_bits(),
            "{} core_j",
            a.name
        );
        assert_eq!(
            a.total_seconds.to_bits(),
            b.total_seconds.to_bits(),
            "{} seconds",
            a.name
        );
        assert_eq!(a.per_execution.len(), b.per_execution.len(), "{}", a.name);
        for ((aj, asec), (bj, bsec)) in a.per_execution.iter().zip(&b.per_execution) {
            assert_eq!(aj.to_bits(), bj.to_bits(), "{} per-exec joules", a.name);
            assert_eq!(asec.to_bits(), bsec.to_bits(), "{} per-exec secs", a.name);
        }
    }
}

/// The interpreter-bound end-to-end path: the instrumented WEKA corpus
/// run (mini-NaiveBayes over 300 instances) through all three engines.
#[test]
fn corpus_profile_is_bit_identical_across_engines() {
    let legacy = profile_with(Dispatch::Legacy);
    let decoded = profile_with(Dispatch::Decoded);
    assert_reports_identical(&legacy, &decoded);
    let ir = profile_with(Dispatch::Ir);
    assert_reports_identical(&legacy, &ir);
}

/// Same comparison with telemetry on: the masked Chrome trace (span
/// tree, names, sequence — everything except wall-clock/energy noise)
/// must be identical under both engines. The trace goes to a private
/// tracer: the outer track routes the profiler's own tracks into it, so
/// sibling tests running on other threads cannot write into them.
#[test]
fn masked_trace_is_identical_across_engines() {
    let tracer = jepo_trace::Tracer::new();
    tracer.enable();
    let mut masked = Vec::new();
    for dispatch in [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir] {
        tracer.clear();
        {
            let _route = tracer.track("test");
            let _report = profile_with(dispatch);
        }
        let json = tracer.export_chrome(false);
        jepo_trace::validate::validate_chrome(&json).expect("trace validates");
        masked.push(jepo_trace::validate::masked_content(&json));
    }
    assert_eq!(masked[0], masked[1], "masked trace diverged (decoded)");
    assert_eq!(masked[0], masked[2], "masked trace diverged (ir)");
}

/// Small Table IV experiment: report text must be byte-identical for
/// `jobs ∈ {1, 2, 4}` (the kernels share the same striped-counter
/// exactness contract the interpreter's scoreboards flush through).
#[test]
fn small_table4_report_is_jobs_invariant() {
    let exp = WekaExperiment {
        instances: 300,
        folds: 3,
        ..Default::default()
    };
    let texts: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&jobs| report::table4(&exp.run_all_jobs(jobs)))
        .collect();
    assert_eq!(texts[0], texts[1], "jobs=1 vs jobs=2");
    assert_eq!(texts[0], texts[2], "jobs=1 vs jobs=4");
    assert!(texts[0].contains("Naive Bayes"), "report has rows");
}

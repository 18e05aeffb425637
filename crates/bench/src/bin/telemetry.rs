//! Telemetry self-measurement — how much does `jepo-trace` cost?
//!
//! An observability layer inside an *energy measurement* harness must
//! itself be close to free, or it perturbs the quantity being measured.
//! This bench pins that down in two regimes:
//!
//! * **Kernel micro legs** — a fixed arithmetic workload run three ways:
//!   with no instrumentation site at all (`no_site`), with a span site
//!   while tracing is disabled (`disabled_site` — the thread-local read
//!   and branch every shipped call site pays), and with tracing enabled
//!   and recording (`enabled_site`). Reps of the three legs are
//!   *interleaved* so frequency drift hits all legs equally; medians are
//!   reported. The selfcheck gate requires the disabled-site overhead to
//!   be statistically indistinguishable from zero: within
//!   `max(2%, 3 × measured noise)` of the uninstrumented leg.
//! * **Table IV off/on** — the real experiment harness run with
//!   telemetry fully off and fully on (global tracer + registry),
//!   reporting wall-clock overhead. The traced `--jobs` ∈ {1, 2, 4}
//!   runs are exported, structurally validated (balanced spans, monotone
//!   timestamps, nonnegative energy), and their *masked* content is
//!   required to be bit-identical across job counts.
//!
//! * **Sampling vs instrumented profiler legs** — the bundled runnable
//!   corpus profiled three ways per rep, interleaved: a plain VM run
//!   (baseline), the instrumented profiler (probes in every method), and
//!   the sampling profiler (safepoint snapshots on a virtual-time
//!   interval, calibrated overhead subtraction). The selfcheck gates
//!   require sampling overhead strictly below instrumented overhead,
//!   a nonnegative calibration subtraction, and zero dropped samples.
//!
//! Results land in `BENCH_telemetry.json`. With `--selfcheck` the
//! process exits nonzero when any gate fails (CI's telemetry smoke).
//!
//! Usage: `telemetry [outer_iters] [work_per_iter] [--reps R]
//!         [--instances N] [--folds K] [--selfcheck]`
//! (defaults 200,000 / 200 / 7 reps / 400 instances / 2 folds).

use jepo_bench::report::{median, num, Args, Json};
use jepo_core::{corpus, JepoProfiler, ProfilingMode, WekaExperiment};
use jepo_jvm::Vm;
use jepo_rapl::DeviceProfile;
use jepo_trace::{Registry, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Fixed arithmetic unit (splitmix64 steps, xor-folded): the "real
/// work" an instrumentation site sits next to.
#[inline]
fn workload(steps: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..steps {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= z ^ (z >> 31);
    }
    x
}

/// ns per outer iteration for the uninstrumented loop.
fn leg_no_site(outer: u64, work: u64) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..outer {
        acc ^= workload(work, i);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / outer as f64
}

/// Same loop with a span site per iteration, tracing disabled — every
/// site costs one thread-local read + branch.
fn leg_disabled_site(outer: u64, work: u64) -> f64 {
    assert!(!Tracer::global().is_enabled(), "leg requires tracing off");
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..outer {
        let _s = jepo_trace::span("bench/unit");
        acc ^= workload(work, i);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / outer as f64
}

/// Same loop recording into an instance tracer (the enabled price:
/// two lock acquisitions and two events per span).
fn leg_enabled_site(tracer: &Tracer, outer: u64, work: u64) -> f64 {
    tracer.clear();
    let _track = tracer.track("bench");
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..outer {
        let _s = jepo_trace::span("bench/unit");
        acc ^= workload(work, i);
    }
    black_box(acc);
    let ns = t.elapsed().as_nanos() as f64 / outer as f64;
    assert_eq!(
        tracer.data().span_count(),
        outer as usize,
        "enabled leg must have recorded every span"
    );
    ns
}

struct MicroResult {
    no_site_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
    noise_pct: f64,
    overhead_disabled_pct: f64,
    overhead_enabled_pct: f64,
}

/// Run the three micro legs `reps` times, interleaved; report medians
/// and the no-site leg's rep-to-rep spread as the noise floor.
fn micro(outer: u64, work: u64, reps: usize) -> MicroResult {
    let tracer = Tracer::new();
    tracer.enable();
    // One warmup round outside the books.
    leg_no_site(outer / 4 + 1, work);
    leg_disabled_site(outer / 4 + 1, work);
    leg_enabled_site(&tracer, outer / 4 + 1, work);
    let (mut no, mut dis, mut en) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        no.push(leg_no_site(outer, work));
        dis.push(leg_disabled_site(outer, work));
        en.push(leg_enabled_site(&tracer, outer, work));
    }
    let no_min = no.iter().cloned().fold(f64::INFINITY, f64::min);
    let no_max = no.iter().cloned().fold(0.0f64, f64::max);
    let no_site_ns = median(&no);
    let disabled_ns = median(&dis);
    let enabled_ns = median(&en);
    MicroResult {
        no_site_ns,
        disabled_ns,
        enabled_ns,
        noise_pct: 100.0 * (no_max - no_min) / (2.0 * no_site_ns),
        overhead_disabled_pct: 100.0 * (disabled_ns - no_site_ns) / no_site_ns,
        overhead_enabled_pct: 100.0 * (enabled_ns - no_site_ns) / no_site_ns,
    }
}

struct Table4Result {
    off_secs: f64,
    on_secs: f64,
    overhead_pct: f64,
    stats: jepo_trace::validate::TraceStats,
    metric_lines: usize,
    deterministic: bool,
    trace_errors: Vec<String>,
}

/// Off/on Table IV legs plus the cross-jobs determinism check.
fn table4_legs(instances: usize, folds: usize) -> Table4Result {
    let exp = WekaExperiment {
        instances,
        folds,
        ..Default::default()
    };
    let tracer = Tracer::global();
    let registry = Registry::global();
    assert!(!tracer.is_enabled() && !registry.is_enabled());

    // Off leg (telemetry fully disabled, the shipped default).
    let t = Instant::now();
    let off_rows = exp.run_all_jobs(4);
    let off_secs = t.elapsed().as_secs_f64();

    // On legs: jobs ∈ {1, 2, 4}, each exported and validated; the
    // jobs=4 leg is the timed one (matches the off leg).
    tracer.enable();
    registry.enable();
    let mut masked: Vec<String> = Vec::new();
    let mut trace_errors = Vec::new();
    let mut on_secs = 0.0;
    let mut stats = jepo_trace::validate::TraceStats::default();
    for jobs in [1usize, 2, 4] {
        tracer.clear();
        let t = Instant::now();
        let rows = exp.run_all_jobs(jobs);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(rows.len(), off_rows.len(), "jobs={jobs} row count");
        let json = tracer.export_chrome(false);
        match jepo_trace::validate::validate_chrome(&json) {
            Ok(s) => {
                if jobs == 4 {
                    on_secs = secs;
                    stats = s;
                }
            }
            Err(e) => trace_errors.push(format!("jobs={jobs}: {e}")),
        }
        masked.push(jepo_trace::validate::masked_content(&json));
    }
    let metric_lines = registry.jsonl().lines().count();
    tracer.disable();
    registry.disable();
    tracer.clear();
    registry.clear();
    Table4Result {
        off_secs,
        on_secs,
        overhead_pct: 100.0 * (on_secs - off_secs) / off_secs.max(1e-12),
        stats,
        metric_lines,
        deterministic: masked.windows(2).all(|w| w[0] == w[1]),
        trace_errors,
    }
}

/// The "overhead_enabled_pct" this bench reported *before* span names
/// were interned (one `String` allocation per enabled span). Kept in
/// the JSON so the before/after of the interning change stays visible.
const ENABLED_OVERHEAD_BEFORE_INTERNING_PCT: f64 = 33.97;

struct SamplingResult {
    baseline_secs: f64,
    instrumented_secs: f64,
    sampling_secs: f64,
    instrumented_overhead_pct: f64,
    sampling_overhead_pct: f64,
    interval_us: u64,
    samples: u64,
    dropped: u64,
    calibration_j: f64,
    raw_total_j: f64,
    calibrated_total_j: f64,
}

/// Profile the bundled corpus three ways per rep — plain run,
/// instrumented, sampling — interleaved; report medians. The baseline
/// is a bare compile+run so both profiler modes pay their full cost
/// (discovery, attribution) against the same floor.
fn sampling_legs(reps: usize, interval_us: u64) -> SamplingResult {
    let project = corpus::runnable_project();
    let baseline = || {
        let mut vm = Vm::from_project(&project)
            .expect("corpus compiles")
            .with_device(DeviceProfile::laptop_i5_3317u())
            .with_fuel(2_000_000_000);
        vm.run_main().expect("corpus runs");
    };
    // Warmup round outside the books.
    baseline();
    JepoProfiler::new().profile(&project).expect("instrumented");
    let (mut base, mut inst, mut samp) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        baseline();
        base.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        JepoProfiler::new().profile(&project).expect("instrumented");
        inst.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let report = JepoProfiler::new()
            .with_mode(ProfilingMode::Sampling { interval_us })
            .profile(&project)
            .expect("sampling");
        samp.push(t.elapsed().as_secs_f64());
        last = report.sampled;
    }
    let s = last.expect("sampling mode returns attribution");
    let baseline_secs = median(&base);
    let instrumented_secs = median(&inst);
    let sampling_secs = median(&samp);
    let floor = baseline_secs.max(1e-12);
    SamplingResult {
        baseline_secs,
        instrumented_secs,
        sampling_secs,
        instrumented_overhead_pct: 100.0 * (instrumented_secs - baseline_secs) / floor,
        sampling_overhead_pct: 100.0 * (sampling_secs - baseline_secs) / floor,
        interval_us,
        samples: s.samples,
        dropped: s.dropped,
        calibration_j: s.calibration_j,
        raw_total_j: s.raw_total_j,
        calibrated_total_j: s.calibrated_total_j,
    }
}

fn main() {
    let args = Args::from_env(&["--reps", "--instances", "--folds"]);
    let outer: u64 = args.pos(0, 200_000);
    let work: u64 = args.pos(1, 200);
    let reps = args.flag("--reps").unwrap_or(7).max(1);
    let instances = args.flag("--instances").unwrap_or(400);
    let folds = args.flag("--folds").unwrap_or(2);
    let selfcheck = args.has("--selfcheck");

    eprintln!(
        "telemetry bench: {outer} sites × {work} splitmix steps × {reps} reps; \
         Table IV at {instances} instances / {folds} folds…"
    );

    let m = micro(outer, work, reps);
    println!(
        "micro: no_site {:.2} ns, disabled_site {:.2} ns ({:+.3}%), \
         enabled_site {:.2} ns ({:+.1}%), noise ±{:.3}%",
        m.no_site_ns,
        m.disabled_ns,
        m.overhead_disabled_pct,
        m.enabled_ns,
        m.overhead_enabled_pct,
        m.noise_pct
    );

    let t4 = table4_legs(instances, folds);
    println!(
        "table4: off {:.3} s, on {:.3} s ({:+.1}%); trace {} events / {} spans / \
         {} tracks, {:.3} J attributed; {} metric lines; deterministic: {}",
        t4.off_secs,
        t4.on_secs,
        t4.overhead_pct,
        t4.stats.events,
        t4.stats.spans,
        t4.stats.tracks,
        t4.stats.total_package_j,
        t4.metric_lines,
        t4.deterministic
    );
    for e in &t4.trace_errors {
        eprintln!("trace validation failed: {e}");
    }

    let s = sampling_legs(reps, 20);
    println!(
        "sampling: baseline {:.3} s, instrumented {:.3} s ({:+.1}%), \
         sampling {:.3} s ({:+.1}%); {} samples ({} dropped) @ {} µs, \
         calibration {:.6} J, raw {:.6} J → calibrated {:.6} J",
        s.baseline_secs,
        s.instrumented_secs,
        s.instrumented_overhead_pct,
        s.sampling_secs,
        s.sampling_overhead_pct,
        s.samples,
        s.dropped,
        s.interval_us,
        s.calibration_j,
        s.raw_total_j,
        s.calibrated_total_j
    );

    // Selfcheck gates.
    let disabled_gate = f64::max(2.0, 3.0 * m.noise_pct);
    let disabled_ok = m.overhead_disabled_pct <= disabled_gate;
    let traces_ok = t4.trace_errors.is_empty() && t4.stats.spans > 0;
    let sampling_cheaper = s.sampling_overhead_pct < s.instrumented_overhead_pct;
    let calibration_ok = s.calibration_j >= 0.0 && s.calibrated_total_j >= 0.0;
    let no_drops = s.dropped == 0 && s.samples > 0;
    let failures: Vec<&str> = [
        (!disabled_ok).then_some("disabled-site overhead above the noise gate"),
        (!traces_ok).then_some("Chrome trace failed structural validation"),
        (!t4.deterministic).then_some("masked trace content differs across --jobs"),
        (!sampling_cheaper).then_some("sampling overhead not below instrumented overhead"),
        (!calibration_ok).then_some("calibration subtraction went negative"),
        (!no_drops).then_some("sampling profiler dropped samples"),
    ]
    .into_iter()
    .flatten()
    .collect();

    Json::obj([
        ("bench", "telemetry".into()),
        ("outer_iters", outer.into()),
        ("work_per_iter", work.into()),
        ("reps", reps.into()),
        (
            "micro",
            Json::obj([
                ("no_site_ns", num(m.no_site_ns, 3)),
                ("disabled_site_ns", num(m.disabled_ns, 3)),
                ("enabled_site_ns", num(m.enabled_ns, 3)),
                ("noise_pct", num(m.noise_pct, 3)),
                ("overhead_disabled_pct", num(m.overhead_disabled_pct, 3)),
                ("overhead_enabled_pct", num(m.overhead_enabled_pct, 3)),
                (
                    "overhead_enabled_before_interning_pct",
                    num(ENABLED_OVERHEAD_BEFORE_INTERNING_PCT, 2),
                ),
                ("disabled_gate_pct", num(disabled_gate, 3)),
            ]),
        ),
        (
            "table4",
            Json::obj([
                ("instances", instances.into()),
                ("folds", folds.into()),
                ("off_secs", num(t4.off_secs, 4)),
                ("on_secs", num(t4.on_secs, 4)),
                ("overhead_pct", num(t4.overhead_pct, 2)),
                ("trace_events", t4.stats.events.into()),
                ("trace_spans", t4.stats.spans.into()),
                ("trace_tracks", t4.stats.tracks.into()),
                ("trace_package_j", num(t4.stats.total_package_j, 6)),
                ("metric_lines", t4.metric_lines.into()),
                ("deterministic_across_jobs", t4.deterministic.into()),
            ]),
        ),
        (
            "sampling",
            Json::obj([
                ("interval_us", s.interval_us.into()),
                ("baseline_secs", num(s.baseline_secs, 4)),
                ("instrumented_secs", num(s.instrumented_secs, 4)),
                ("sampling_secs", num(s.sampling_secs, 4)),
                (
                    "instrumented_overhead_pct",
                    num(s.instrumented_overhead_pct, 2),
                ),
                ("sampling_overhead_pct", num(s.sampling_overhead_pct, 2)),
                ("samples", s.samples.into()),
                ("dropped", s.dropped.into()),
                ("calibration_j", num(s.calibration_j, 9)),
                ("raw_total_j", num(s.raw_total_j, 9)),
                ("calibrated_total_j", num(s.calibrated_total_j, 9)),
            ]),
        ),
        (
            "selfcheck",
            Json::obj([
                ("enforced", selfcheck.into()),
                ("passed", failures.is_empty().into()),
                (
                    "failures",
                    Json::Arr(failures.iter().map(|&f| f.into()).collect()),
                ),
            ]),
        ),
    ])
    .write_artifact("BENCH_telemetry.json");

    if selfcheck && !failures.is_empty() {
        for f in &failures {
            eprintln!("selfcheck FAILED: {f}");
        }
        std::process::exit(1);
    }
    if selfcheck {
        println!("selfcheck passed.");
    }
}

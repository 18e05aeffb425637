//! Analyzer microbench + corpus self-check — the numbers behind the
//! flow-sensitive analysis layer.
//!
//! Six legs over the bundled WEKA-flavoured corpus:
//!
//! * **syntactic ×1** — the PR-2 baseline: pattern rules only.
//! * **syntactic ×N** — the same, fanned over `jepo-pool`.
//! * **flow ×1** — CFG construction + reaching defs + liveness +
//!   dominators per method, then the definition-aware rules.
//! * **flow ×N** — the flow pipeline over `jepo-pool`.
//! * **interproc ×1** — flow plus whole-program call-graph summaries
//!   and the cross-method rules.
//! * **interproc ×N** — the interprocedural pipeline over `jepo-pool`
//!   (facts built once, single-threaded, before the fan-out).
//!
//! The interesting ratios are `flow_overhead_1t` (what the dataflow
//! facts cost over pure pattern matching) and the per-mode parallel
//! speedups. `N` is clamped to `available_parallelism` — timing more
//! threads than cores only measures scheduler thrash, and the old
//! unclamped default published sub-1× "speedups" that were really
//! oversubscription noise. The requested value is still recorded
//! (`requested_threads`, plus a `note` when clamping kicked in) so the
//! JSON says what happened. After every leg the harness asserts the
//! suggestion count is identical across thread counts for that mode —
//! the speedup never trades away determinism (the acceptance criterion
//! is bit-identical output for jobs ∈ {1, 2, 4}; counts are the cheap
//! proxy asserted on every run, and the full equality is pinned in
//! `tests/flow_analysis.rs`).
//!
//! Three more legs measure the incremental layer over a *generated*
//! corpus (`jepo_analyzer::gen`, default 1000 files — the bundled
//! corpus is too small to show cache effects):
//!
//! * **cold** — fresh [`jepo_analyzer::AnalysisCache`] every rep: full
//!   hash + analyze of every file.
//! * **warm** — a pre-warmed cache and an unchanged corpus: hash +
//!   lookup only, zero re-analysis.
//! * **warm_1pct_dirty** — alternating two corpus revisions that differ
//!   in ~1% of files, so every rep re-analyzes exactly that dirty set.
//! * **interproc_cold / interproc_warm** — the same cold/warm pair
//!   under the interprocedural analyzer, whose cache entries carry
//!   call-graph dependency hashes; warm must still be bit-identical
//!   with zero re-analysis.
//!
//! Every incremental leg asserts its output equals the plain
//! (non-cached) analysis of the same revision — warm is bit-identical
//! to cold, never just "close".
//!
//! Results land in `BENCH_analyzer.json`.
//!
//! A second role: `--selfcheck` runs the flow-sensitive extended
//! analyzer over the corpus and compares per-component suggestion
//! counts against the checked-in `expected_analyzer_counts.json`, then
//! gates the incremental layer on the generated corpus: warm output
//! must be bit-identical to cold and the warm leg must be ≥10× faster.
//! Any panic, count drift, byte drift, or speedup shortfall fails the
//! process — CI runs this on every push. Regenerate the expectation
//! file with `--update-expected` after an intentional rule change.
//!
//! Usage: `analyzer [reps] [--threads N] [--gen-files N] [--selfcheck]
//! [--update-expected]` (reps defaults to 40; threads defaults to the
//! core count; gen-files defaults to 1000).

use jepo_analyzer::gen::{generate_project, generate_project_with, GenConfig};
use jepo_analyzer::{AnalysisMode, Analyzer, JavaComponent, Suggestion};
use jepo_bench::report::{num, Args, Json};
use jepo_core::corpus;
use jepo_jlang::JavaProject;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Every component the interprocedural analyzer can emit, in a stable
/// order.
fn all_components() -> Vec<JavaComponent> {
    let mut v: Vec<JavaComponent> = JavaComponent::ALL.to_vec();
    v.extend(JavaComponent::EXTENDED);
    v.extend(JavaComponent::INTERPROC);
    v
}

/// Per-component counts as stable `(name, count)` rows.
fn component_counts(suggestions: &[Suggestion]) -> Vec<(String, usize)> {
    all_components()
        .into_iter()
        .map(|c| {
            let n = suggestions.iter().filter(|s| s.component == c).count();
            (format!("{c:?}"), n)
        })
        .collect()
}

/// The expectation file's content for `project`: what
/// `--update-expected` writes and `--selfcheck` compares against.
fn expected_counts(project: &JavaProject) -> Json {
    let suggestions = Analyzer::interprocedural().analyze_project(project);
    counts_json(&component_counts(&suggestions), suggestions.len())
}

fn counts_json(counts: &[(String, usize)], total: usize) -> Json {
    Json::obj([
        ("mode", "interproc+extended".into()),
        ("total", total.into()),
        (
            "components",
            Json::obj(counts.iter().map(|(name, n)| (name.as_str(), (*n).into()))),
        ),
    ])
}

/// Minimal reader for the expectation file: every `"Name": N` pair.
/// Tolerates whitespace and trailing commas; ignores non-count lines.
fn parse_counts(json: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key == "mode" || key == "components" {
            continue;
        }
        if let Ok(n) = value.trim().parse::<usize>() {
            out.push((key.to_string(), n));
        }
    }
    out
}

const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_analyzer_counts.json");

/// Compare corpus counts against the checked-in expectation; any drift
/// is a hard failure with a per-component diff.
fn selfcheck(project: &JavaProject) -> Result<(), String> {
    let suggestions = Analyzer::interprocedural().analyze_project(project);
    let got = component_counts(&suggestions);
    let expected_src = std::fs::read_to_string(EXPECTED_PATH)
        .map_err(|e| format!("cannot read {EXPECTED_PATH}: {e} (run --update-expected)"))?;
    let expected = parse_counts(&expected_src);
    let mut drift = Vec::new();
    let lookup =
        |rows: &[(String, usize)], key: &str| rows.iter().find(|(k, _)| k == key).map(|(_, n)| *n);
    if let Some(t) = lookup(&expected, "total") {
        if t != suggestions.len() {
            drift.push(format!("total: expected {t}, got {}", suggestions.len()));
        }
    }
    for (name, n) in &got {
        match lookup(&expected, name) {
            Some(e) if e == *n => {}
            Some(e) => drift.push(format!("{name}: expected {e}, got {n}")),
            None => drift.push(format!("{name}: not in expectation file, got {n}")),
        }
    }
    if drift.is_empty() {
        println!(
            "selfcheck OK: {} suggestions across {} components match {}",
            suggestions.len(),
            got.iter().filter(|(_, n)| *n > 0).count(),
            EXPECTED_PATH
        );
        Ok(())
    } else {
        Err(format!(
            "suggestion counts drifted from {EXPECTED_PATH}:\n  {}\n\
             (if intentional, regenerate with --update-expected)",
            drift.join("\n  ")
        ))
    }
}

/// Gate the incremental layer: over a generated corpus, warm output
/// must be byte-identical to cold (every field, impact to the last
/// bit) and the warm leg must be ≥10× faster than cold. Timings take
/// the best of three runs per leg so a noisy CI box cannot fail a
/// genuinely fast cache.
fn incremental_selfcheck(gen_files: usize, threads: usize) -> Result<(), String> {
    let cfg = GenConfig {
        files: gen_files,
        ..GenConfig::default()
    };
    let project = generate_project(&cfg);
    let analyzer = Analyzer::with_extensions();
    let cold_ref = analyzer.analyze_project_jobs(&project, threads);

    fn best_of<F: FnMut() -> Vec<Suggestion>>(runs: usize, mut f: F) -> (f64, Vec<Suggestion>) {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..runs {
            let t = Instant::now();
            out = black_box(f());
            best = best.min(t.elapsed().as_secs_f64());
        }
        (best, out)
    }

    let (cold_secs, cold_out) = best_of(3, || {
        let mut cache = analyzer.new_cache();
        analyzer.analyze_project_incremental_jobs(&project, &mut cache, threads)
    });
    if cold_out != cold_ref {
        return Err("incremental cold output differs from plain analysis".into());
    }

    let mut cache = analyzer.new_cache();
    analyzer.analyze_project_incremental_jobs(&project, &mut cache, threads);
    let (warm_secs, warm_out) = best_of(3, || {
        analyzer.analyze_project_incremental_jobs(&project, &mut cache, threads)
    });
    if warm_out != cold_ref {
        return Err("warm output is not bit-identical to cold".into());
    }

    let speedup = cold_secs / warm_secs.max(1e-12);
    if speedup < 10.0 {
        return Err(format!(
            "warm leg only {speedup:.1}× faster than cold over {gen_files} generated \
             files (gate: ≥10×; cold {:.2} ms, warm {:.2} ms)",
            cold_secs * 1e3,
            warm_secs * 1e3
        ));
    }
    println!(
        "incremental selfcheck OK: {gen_files} generated files, {} suggestions, \
         warm ≡ cold, warm {speedup:.1}× faster (cold {:.2} ms, warm {:.2} ms)",
        cold_ref.len(),
        cold_secs * 1e3,
        warm_secs * 1e3
    );

    // Same gate under the interprocedural analyzer: its cache entries
    // additionally carry call-graph dependency hashes, and a warm run
    // must still be bit-identical to cold with zero re-analysis. (No
    // timing gate here — dep-hash recomputation makes warm slower than
    // the flow cache by design, and the flow gate above already proves
    // the cache machinery is fast.)
    let ia = Analyzer::interprocedural();
    let i_ref = ia.analyze_project_jobs(&project, threads);
    let mut icache = ia.new_cache();
    let i_cold = ia.analyze_project_incremental_jobs(&project, &mut icache, threads);
    if i_cold != i_ref {
        return Err("interproc cold output differs from plain analysis".into());
    }
    let i_warm = ia.analyze_project_incremental_jobs(&project, &mut icache, threads);
    if i_warm != i_ref {
        return Err("interproc warm output is not bit-identical to cold".into());
    }
    if icache.stats().last_misses != 0 {
        return Err(format!(
            "interproc warm run re-analyzed {} file(s); dependency hashes are unstable",
            icache.stats().last_misses
        ));
    }
    println!(
        "interproc incremental selfcheck OK: {} suggestions, warm ≡ cold, 0 misses",
        i_ref.len()
    );
    Ok(())
}

struct Leg {
    mode: &'static str,
    threads: usize,
    runs_per_s: f64,
    secs_per_run: f64,
    suggestions: usize,
}

/// The benched analyzer for a mode: extended rules for the syntactic
/// and flow legs, the full rule set for the interprocedural leg.
fn analyzer_for(mode: AnalysisMode) -> Analyzer {
    match mode {
        AnalysisMode::Interprocedural => Analyzer::interprocedural(),
        _ => Analyzer::with_extensions().with_mode(mode),
    }
}

/// Time `reps` full-project analyses at a given mode and job count.
fn run_leg(project: &JavaProject, mode: AnalysisMode, jobs: usize, reps: u32) -> Leg {
    let analyzer = analyzer_for(mode);
    // Warm-up run also yields the suggestion count for the invariance
    // assertion below.
    let first = analyzer.analyze_project_jobs(project, jobs);
    let t = Instant::now();
    for _ in 0..reps {
        black_box(analyzer.analyze_project_jobs(project, jobs));
    }
    let secs = t.elapsed().as_secs_f64();
    Leg {
        mode: match mode {
            AnalysisMode::Syntactic => "syntactic",
            AnalysisMode::FlowSensitive => "flow",
            AnalysisMode::Interprocedural => "interproc",
        },
        threads: jobs,
        runs_per_s: reps as f64 / secs.max(1e-12),
        secs_per_run: secs / reps as f64,
        suggestions: first.len(),
    }
}

impl Leg {
    fn json(&self) -> Json {
        Json::obj([
            ("mode", self.mode.into()),
            ("threads", self.threads.into()),
            ("runs_per_s", num(self.runs_per_s, 2)),
            ("ms_per_run", num(self.secs_per_run * 1e3, 3)),
            ("suggestions", self.suggestions.into()),
        ])
    }
}

/// One incremental leg: `(name, secs_per_run, suggestions)`.
struct IncrLeg {
    name: &'static str,
    secs_per_run: f64,
    suggestions: usize,
}

/// Results of the incremental legs over the generated corpus.
struct IncrBench {
    generated_files: usize,
    dirty_files: usize,
    reps: u32,
    legs: Vec<IncrLeg>,
    warm_speedup: f64,
}

/// Run the cold / warm / warm_1pct_dirty legs over a generated corpus.
///
/// Every leg's output is asserted equal to the plain (cache-free)
/// analysis of the same revision — the timings are only meaningful if
/// the cache never changes the answer.
fn run_incremental_legs(gen_files: usize, threads: usize, reps: u32) -> IncrBench {
    let cfg = GenConfig {
        files: gen_files,
        ..GenConfig::default()
    };
    // ~1% of files (at least one) flips between revisions.
    let dirty: HashSet<usize> = (0..gen_files).step_by(100).collect();
    let rev0 = generate_project(&cfg);
    let rev1 = generate_project_with(&cfg, |i| u64::from(dirty.contains(&i)));
    let analyzer = Analyzer::with_extensions();
    let cold_ref = analyzer.analyze_project_jobs(&rev0, threads);
    let cold_ref1 = analyzer.analyze_project_jobs(&rev1, threads);

    let mut legs = Vec::new();

    // cold: a fresh cache every rep — full hash + analyze.
    let t = Instant::now();
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut cache = analyzer.new_cache();
        out = black_box(analyzer.analyze_project_incremental_jobs(&rev0, &mut cache, threads));
    }
    let cold_secs = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(out, cold_ref, "cold incremental ≠ plain analysis");
    legs.push(IncrLeg {
        name: "cold",
        secs_per_run: cold_secs,
        suggestions: out.len(),
    });

    // warm: pre-warmed cache, unchanged corpus — hash + lookup only.
    let mut cache = analyzer.new_cache();
    analyzer.analyze_project_incremental_jobs(&rev0, &mut cache, threads);
    let t = Instant::now();
    for _ in 0..reps {
        out = black_box(analyzer.analyze_project_incremental_jobs(&rev0, &mut cache, threads));
    }
    let warm_secs = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(out, cold_ref, "warm output not bit-identical to cold");
    assert_eq!(cache.stats().last_misses, 0, "warm leg must not re-analyze");
    legs.push(IncrLeg {
        name: "warm",
        secs_per_run: warm_secs,
        suggestions: out.len(),
    });

    // warm_1pct_dirty: alternate the two revisions, so each rep sees
    // exactly the dirty set changed relative to the cached state.
    let t = Instant::now();
    for rep in 0..reps {
        let project = if rep % 2 == 0 { &rev1 } else { &rev0 };
        out = black_box(analyzer.analyze_project_incremental_jobs(project, &mut cache, threads));
        assert_eq!(
            cache.stats().last_misses,
            dirty.len() as u64,
            "each rep re-analyzes exactly the ~1% dirty set"
        );
        assert_eq!(
            &out,
            if rep % 2 == 0 { &cold_ref1 } else { &cold_ref },
            "dirty-leg output not bit-identical to plain analysis"
        );
    }
    let dirty_secs = t.elapsed().as_secs_f64() / reps as f64;
    legs.push(IncrLeg {
        name: "warm_1pct_dirty",
        secs_per_run: dirty_secs,
        suggestions: out.len(),
    });

    // interproc_cold / interproc_warm: the dependency-aware cache. Warm
    // pays a whole-program summary rebuild per run (that is what makes
    // callee-edit invalidation possible) but must still be bit-identical
    // with zero re-analysis.
    let ia = Analyzer::interprocedural();
    let i_ref = ia.analyze_project_jobs(&rev0, threads);
    let t = Instant::now();
    for _ in 0..reps {
        let mut cache = ia.new_cache();
        out = black_box(ia.analyze_project_incremental_jobs(&rev0, &mut cache, threads));
    }
    let i_cold_secs = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(out, i_ref, "interproc cold incremental ≠ plain analysis");
    legs.push(IncrLeg {
        name: "interproc_cold",
        secs_per_run: i_cold_secs,
        suggestions: out.len(),
    });

    let mut icache = ia.new_cache();
    ia.analyze_project_incremental_jobs(&rev0, &mut icache, threads);
    let t = Instant::now();
    for _ in 0..reps {
        out = black_box(ia.analyze_project_incremental_jobs(&rev0, &mut icache, threads));
    }
    let i_warm_secs = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(
        out, i_ref,
        "interproc warm output not bit-identical to cold"
    );
    assert_eq!(
        icache.stats().last_misses,
        0,
        "interproc warm leg must not re-analyze (dep hashes unstable?)"
    );
    legs.push(IncrLeg {
        name: "interproc_warm",
        secs_per_run: i_warm_secs,
        suggestions: out.len(),
    });

    IncrBench {
        generated_files: gen_files,
        dirty_files: dirty.len(),
        reps,
        legs,
        warm_speedup: cold_secs / warm_secs.max(1e-12),
    }
}

impl IncrBench {
    fn json(&self) -> Json {
        let legs = self.legs.iter().map(|l| {
            Json::obj([
                ("leg", l.name.into()),
                ("runs_per_s", num(1.0 / l.secs_per_run.max(1e-12), 2)),
                ("ms_per_run", num(l.secs_per_run * 1e3, 3)),
                ("suggestions", l.suggestions.into()),
            ])
        });
        Json::obj([
            ("generated_files", self.generated_files.into()),
            ("dirty_files", self.dirty_files.into()),
            ("reps", self.reps.into()),
            ("warm_speedup", num(self.warm_speedup, 2)),
            ("legs", Json::Arr(legs.collect())),
        ])
    }
}

fn main() {
    let args = Args::from_env(&["--gen-files", "--threads"]);
    let project = corpus::full_corpus();
    let gen_files = args.flag("--gen-files").unwrap_or(1000).max(1);
    let cores = jepo_pool::available_cores();

    if args.has("--update-expected") {
        expected_counts(&project).write_artifact(EXPECTED_PATH);
        return;
    }
    if args.has("--selfcheck") {
        if let Err(msg) = selfcheck(&project).and_then(|()| incremental_selfcheck(gen_files, cores))
        {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }

    let reps: u32 = args.pos(0, 40);
    let clamp = jepo_pool::clamp_to_cores(args.flag("--threads").unwrap_or(cores.max(2)));
    let threads = clamp.effective;

    eprintln!(
        "analyzer microbench: {} corpus files, {reps} reps per leg, \
         1 vs {threads} job(s), {cores} core(s)…",
        project.files().len(),
    );

    let mut legs = Vec::new();
    for (mode, jobs) in [
        (AnalysisMode::Syntactic, 1),
        (AnalysisMode::Syntactic, threads),
        (AnalysisMode::FlowSensitive, 1),
        (AnalysisMode::FlowSensitive, threads),
        (AnalysisMode::Interprocedural, 1),
        (AnalysisMode::Interprocedural, threads),
    ] {
        let leg = run_leg(&project, mode, jobs, reps);
        println!(
            "{:>9} ×{}: {:>8.2} runs/s ({:.3} ms/run, {} suggestions)",
            leg.mode,
            leg.threads,
            leg.runs_per_s,
            leg.secs_per_run * 1e3,
            leg.suggestions
        );
        legs.push(leg);
    }

    // Determinism proxy: thread count must never change what the
    // analyzer finds (the full bit-identity is a tier-1 test).
    for mode in ["syntactic", "flow", "interproc"] {
        let counts: Vec<usize> = legs
            .iter()
            .filter(|l| l.mode == mode)
            .map(|l| l.suggestions)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{mode} suggestion count varies with thread count: {counts:?}"
        );
    }

    let time_of = |mode: &str, t: usize| {
        legs.iter()
            .find(|l| l.mode == mode && l.threads == t)
            .map(|l| l.secs_per_run)
            .unwrap_or(f64::NAN)
    };
    let flow_overhead_1t = time_of("flow", 1) / time_of("syntactic", 1).max(1e-12);
    let interproc_overhead_1t = time_of("interproc", 1) / time_of("flow", 1).max(1e-12);
    let flow_speedup = time_of("flow", 1) / time_of("flow", threads).max(1e-12);
    let syntactic_speedup = time_of("syntactic", 1) / time_of("syntactic", threads).max(1e-12);
    let interproc_speedup = time_of("interproc", 1) / time_of("interproc", threads).max(1e-12);
    println!(
        "flow overhead ×1: {flow_overhead_1t:.2}×; interproc overhead over flow ×1: \
         {interproc_overhead_1t:.2}×; parallel speedup ×{threads}: \
         syntactic {syntactic_speedup:.2}×, flow {flow_speedup:.2}×, \
         interproc {interproc_speedup:.2}×"
    );

    // Incremental legs run fewer reps — one cold rep is a full
    // analysis of the generated corpus, orders of magnitude more work
    // than a corpus microbench rep.
    let incr_reps = (reps / 8).max(2);
    eprintln!(
        "incremental legs: {gen_files} generated files, {incr_reps} reps per leg, \
         {threads} job(s)…"
    );
    let incr = run_incremental_legs(gen_files, threads, incr_reps);
    for leg in &incr.legs {
        println!(
            "{:>16}: {:>8.2} runs/s ({:.3} ms/run, {} suggestions)",
            leg.name,
            1.0 / leg.secs_per_run.max(1e-12),
            leg.secs_per_run * 1e3,
            leg.suggestions
        );
    }
    println!(
        "incremental warm speedup over cold: {:.1}× ({} files, {} dirty per rep)",
        incr.warm_speedup, incr.generated_files, incr.dirty_files
    );

    let mut fields = vec![
        ("bench", "analyzer".into()),
        ("corpus_files", project.files().len().into()),
        ("reps", reps.into()),
        ("threads", threads.into()),
        ("requested_threads", clamp.requested.into()),
        ("available_cores", cores.into()),
    ];
    if clamp.clamped() {
        fields.push(("note", clamp.note().into()));
    }
    fields.extend([
        ("flow_overhead_1t", num(flow_overhead_1t, 2)),
        ("interproc_overhead_1t", num(interproc_overhead_1t, 2)),
        ("syntactic_speedup", num(syntactic_speedup, 2)),
        ("flow_speedup", num(flow_speedup, 2)),
        ("interproc_speedup", num(interproc_speedup, 2)),
        ("legs", Json::Arr(legs.iter().map(Leg::json).collect())),
        ("incremental", incr.json()),
    ]);
    Json::obj(fields).write_artifact("BENCH_analyzer.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_trip_through_the_expectation_format() {
        let counts = vec![("StringConcat".to_string(), 3), ("Modulus".to_string(), 0)];
        let text = counts_json(&counts, 3).render();
        let mut expect = vec![("total".to_string(), 3)];
        expect.extend(counts);
        assert_eq!(parse_counts(&text), expect);
    }

    #[test]
    fn update_expected_rewrites_the_checked_in_file_byte_for_byte() {
        let checked_in = std::fs::read_to_string(EXPECTED_PATH).unwrap();
        assert_eq!(expected_counts(&corpus::full_corpus()).render(), checked_in);
    }
}

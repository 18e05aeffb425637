//! `profile_cold`: the paper's Fig. 4 path from source text, one caller.
//!
//! One op parses the bundled runnable WEKA corpus, profiles it with the
//! default (IR, instrumented) profiler and renders the view and
//! `result.txt`. This is the only workload where `jlang` and the front
//! half of `jvm` (compile, instrument, decode, IR-lower) do real work.
//! The input is the bundled corpus itself, the one the paper's Fig. 4
//! snapshot pins; the seed changes nothing in it.

use crate::trace::{Recorder, OP, REPLAY};
use crate::util::{ms_since, timed_setup, Outcome, Window};
use crate::Cfg;
use jepo_core::{corpus, views, JepoProfiler, ProfileReport};
use jepo_jlang::JavaProject;
use jepo_jvm::{Dispatch, Vm};
use std::sync::Arc;
use std::time::Instant;

/// The hand-pinned Fig. 4 view of the runnable corpus.
const SNAPSHOT: &str = include_str!("../../tests/snapshots/profiler_view.txt");

/// What an op must reproduce: the rendered outputs plus the program's
/// stdout and the energy f64 bits.
#[derive(PartialEq, Debug)]
struct Rendered {
    view: String,
    result_txt: String,
    stdout: String,
    energy_bits: [u64; 5],
}

fn energy_bits(m: &jepo_rapl::Measurement) -> [u64; 5] {
    [m.package_j, m.core_j, m.uncore_j, m.dram_j, m.seconds].map(f64::to_bits)
}

fn rendered(report: &ProfileReport) -> Rendered {
    Rendered {
        view: report.view(),
        result_txt: report.result_txt.clone(),
        stdout: report.stdout.clone(),
        energy_bits: energy_bits(&report.energy),
    }
}

fn parse(files: &[(String, String)]) -> JavaProject {
    let mut project = JavaProject::new();
    for (name, text) in files {
        project.add_file(name, text).expect("bundled corpus parses");
    }
    project
}

/// Set-up repetitions before the window, and again after every op
/// (outside its timing): loading the corpus takes well under a
/// millisecond, and spreading the repetitions over the run lets the
/// median see the same host phases the ops see.
const SETUP_REPS: usize = 50;
const SETUP_REPS_PER_OP: usize = 1;

fn load_corpus() -> Vec<(String, String)> {
    corpus::runnable_project()
        .files()
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect()
}

/// The op as a user runs it: parse, `profile()`, render.
fn op(files: &[(String, String)]) -> Result<Rendered, String> {
    let project = parse(files);
    let report = JepoProfiler::new()
        .profile(&project)
        .map_err(|e| e.to_string())?;
    Ok(rendered(&report))
}

/// The same op decomposed into the public per-layer calls that
/// `profile()` makes on its cold path, each inside a span.
fn traced_op(
    files: &[(String, String)],
    rec: &Recorder,
    id: u64,
    out: &mut Outcome,
) -> Result<(f64, Rendered), String> {
    let t = Instant::now();
    let root = rec.root(OP, id);
    let project = {
        let _s = rec.span("jlang.parse");
        parse(files)
    };
    let mut program = {
        let _s = rec.span("jvm.compile");
        jepo_jvm::compile_project(&project).map_err(|e| e.to_string())?
    };
    {
        let _s = rec.span("jvm.instrument");
        jepo_jvm::instrument_all(&mut program);
    }
    let decoded = {
        let _s = rec.span("jvm.decode");
        Arc::new(jepo_jvm::decode(&program))
    };
    let ir = {
        let _s = rec.span("jvm.ir_lower");
        Arc::new(jepo_jvm::ir::compile(&program, &decoded))
    };
    let run = {
        let mut s = rec.span("jvm.execute");
        let mut vm = Vm::from_prepared(program, Some(decoded), Some(ir.clone()), true)
            .with_device(jepo_rapl::DeviceProfile::laptop_i5_3317u())
            .with_fuel(JepoProfiler::new().fuel);
        let run = vm.run_main().map_err(|e| e.to_string())?;
        s.add_joules(run.energy.package_j);
        run
    };
    let (view, result_txt) = {
        let _s = rec.span("core.report");
        let records = Vm::aggregate_profile(&run.profile);
        (views::profiler_view(&records), views::result_txt(&records))
    };
    drop(root);
    let ms = ms_since(t);

    // Useful/attempted ratio of eager lowering: a method counts as
    // entered when the run recorded a profile event for it.
    let entered: std::collections::BTreeSet<u32> = run.profile.iter().map(|e| e.method).collect();
    let lowered: Vec<usize> = (0..ir.methods.len())
        .filter(|&m| ir.methods[m].is_some())
        .collect();
    let called = lowered
        .iter()
        .filter(|&&m| entered.contains(&(m as u32)))
        .count();
    out.observe("jvm.ir_methods_lowered", lowered.len() as f64);
    out.observe(
        "jvm.ir_lowered_called_frac",
        crate::util::frac(called as f64, lowered.len() as f64),
    );
    out.observe("jvm.execute_ops", run.ops_executed as f64);
    out.observe("jvm.execute_sim_j", run.energy.package_j);

    {
        let _r = rec.root(REPLAY, id);
        let _s = rec.span("core.profile");
        JepoProfiler::new()
            .profile(&project)
            .map_err(|e| e.to_string())?;
    }
    Ok((
        ms,
        Rendered {
            view,
            result_txt,
            stdout: run.stdout,
            energy_bits: energy_bits(&run.energy),
        },
    ))
}

pub fn run(cfg: &Cfg, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: load the bundled corpus, the op's only input.
    let files = timed_setup(SETUP_REPS, &mut out.setup_times, load_corpus, drop);
    // One op outside set-up and window lets lazy initialisation finish
    // before timing.
    let _ = op(&files);

    // References, outside the timed window: the pinned view, and a run
    // on the decoded engine for stdout, result.txt and energy bits.
    let reference = JepoProfiler::new()
        .with_dispatch(Dispatch::Decoded)
        .profile(&parse(&files))
        .map(|r| rendered(&r));
    let expected = match reference {
        Ok(r) if r.view == SNAPSHOT => r,
        Ok(r) => {
            out.check_errors
                .push("decoded-engine view differs from the pinned snapshot".into());
            Rendered {
                view: SNAPSHOT.to_string(),
                ..r
            }
        }
        Err(e) => {
            out.check_errors
                .push(format!("decoded reference failed: {e}"));
            return out;
        }
    };

    let window = Window::start(cfg.seconds, cfg.trace);
    let cpu0 = crate::util::cpu_seconds();
    while let Some(traced) = window.phase(out.attempted) {
        out.attempted += 1;
        let id = out.attempted;
        let result = if traced {
            traced_op(&files, rec, id, &mut out)
        } else {
            let t = Instant::now();
            op(&files).map(|r| (ms_since(t), r))
        };
        let ms = match result {
            Ok((ms, r)) if r == expected => ms,
            Ok(_) => {
                out.failures.add("mismatch");
                f64::INFINITY
            }
            Err(_) => {
                out.failures.add("internal");
                f64::INFINITY
            }
        };
        if traced {
            out.traced_ms.push(ms);
        } else {
            out.untraced_ms.push(ms);
        }
        timed_setup(SETUP_REPS_PER_OP, &mut out.setup_times, load_corpus, drop);
    }
    out.window_s = window.elapsed();
    out.cpu_s = crate::util::cpu_seconds() - cpu0;
    out
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <profile_cold|table4|serve_hot|serve_edit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. A run sets up (several times,
//! reporting the median), computes independent reference outputs, then
//! runs closed-loop ops for `--seconds`, checking every output. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced ops, writes the spans as a Chrome
//! trace, and prints the per-layer table. The last
//! line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod profile_cold;
mod serve;
mod table4;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Recorder;
use util::{frac, median, percentile, Outcome, FAILURE_CLASSES};

/// The configured concurrency: clients and workers (or pool jobs) are
/// two each, clamped to the cores the host has.
const CONCURRENCY: usize = 2;

/// Run parameters shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Clients, daemon workers and pool jobs: `CONCURRENCY` clamped to
    /// `nproc`.
    pub concurrency: usize,
}

const WORKLOADS: [&str; 4] = ["profile_cold", "table4", "serve_hot", "serve_edit"];

/// The benchmark's description; its `per_layer` list names the
/// metrics a traced run prints, so the list has one owner.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The per-layer metrics `(name, unit)` in `BENCHMARK.json` order,
/// printed by every traced run whatever the workload: a layer the
/// workload does not reach reads 0, which is the "should not move"
/// prediction made visible.
fn layer_metrics() -> Vec<(&'static str, &'static str)> {
    let list = BENCHMARK_JSON
        .split_once("\"per_layer\"")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    // The string value of `"key": "value"` inside one entry.
    let field = |entry: &'static str, key: &str| -> Option<&'static str> {
        let (_, rest) = entry.split_once(&format!("\"{key}\""))?;
        let (_, rest) = rest.split_once('"')?;
        Some(rest.split_once('"')?.0)
    };
    list.split('}')
        .filter_map(|e| Some((field(e, "name")?, field(e, "unit")?)))
        .collect()
}

/// Metric name of a span's layer: `ml.fit.J48` -> `ml.fit_ms.J48`.
fn span_metric(span: &str) -> String {
    let mut parts = span.splitn(3, '.');
    let (a, b) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    match parts.next() {
        Some(rest) => format!("{a}.{b}_ms.{rest}"),
        None => format!("{a}.{b}_ms"),
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok((workload, seed, seconds, trace))
}

/// FNV-1a over the program sources and manifests, so a run names the
/// code it measured even where the checkout has no git metadata.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `HEAD` of the checkout's git metadata, read directly, if present.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
}

/// Where the traced run writes its Chrome trace: the build directory,
/// which the repository ignores.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    dir.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            // JSON has no infinity; a failed op's latency prints as a
            // huge finite number.
            let v = if v.is_finite() { *v } else { 1e12 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        concurrency: CONCURRENCY.min(nproc),
    };
    let rec = Recorder::new();
    let out: Outcome = match workload.as_str() {
        "profile_cold" => profile_cold::run(&cfg, &rec),
        "table4" => table4::run(&cfg, &rec),
        "serve_hot" => serve::run(&cfg, &rec, serve::Kind::Hot),
        _ => serve::run(&cfg, &rec, serve::Kind::Edit),
    };

    let mut record = vec![
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", (trace as u8).to_string()),
        ("nproc", nproc.to_string()),
        (
            "commit",
            format!("\"{}\"", git_head().unwrap_or_else(|| "none".into())),
        ),
        ("source_fnv", format!("\"{}\"", source_hash())),
    ];
    record.extend(out.record.iter().map(|(k, v)| (*k, v.clone())));
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("run: {{{}}}", record.join(", "));

    let failed = out.failures.total();
    let attempted = out.attempted.max(1);
    let mut correct = out.check_errors.is_empty() && failed == 0 && out.attempted > 0;
    for e in &out.check_errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "set-up: {} repetitions, quartiles (ms): {:.4} {:.4} {:.4}",
        out.setup_times.len(),
        percentile(&out.setup_times, 25.0) * 1e3,
        median(&out.setup_times) * 1e3,
        percentile(&out.setup_times, 75.0) * 1e3
    );
    let untraced_p50 = median(&out.untraced_ms);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile(&out.untraced_ms, d as f64 * 10.0)))
        .collect();
    println!(
        "untraced ops: {}, latency deciles (ms): {}",
        out.untraced_ms.len(),
        deciles.join(" ")
    );

    let cpu_ms_per_op = frac(out.cpu_s * 1e3, out.attempted as f64);
    let metrics: Vec<(String, f64, &str)> = if !trace {
        let ok = out.attempted - failed.min(out.attempted);
        // Measured but not gated: on a host whose speed shifts in
        // phases, these swing more than any allowed bound.
        for (n, v, u) in [
            ("latency_p90_ms", percentile(&out.untraced_ms, 90.0), "ms"),
            ("throughput_ops_s", frac(ok as f64, out.window_s), "1/s"),
            ("cpu_ms_per_op", cpu_ms_per_op, "ms"),
        ] {
            println!("{n:<28} {v:>16.6} {u} (not gated)");
        }
        vec![
            ("setup_s".into(), median(&out.setup_times), "s"),
            ("latency_p50_ms".into(), untraced_p50, "ms"),
            (
                "peak_rss_mb".into(),
                out.peak_rss_mb.unwrap_or_else(|| util::status_mb("VmHWM")),
                "MB",
            ),
            ("ok_frac".into(), frac(ok as f64, attempted as f64), "frac"),
        ]
    } else {
        let spans = rec.spans();
        let json = trace::chrome_json(&spans);
        let path = trace_path(&workload, seed);
        match jepo_trace::validate::validate_chrome(&json) {
            Ok(st) => println!(
                "trace: {} spans on {} threads -> {}",
                st.spans,
                st.tracks,
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: trace export invalid: {e}");
                correct = false;
            }
        }
        if let Err(e) = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, &json))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let layers = trace::fold(&spans);
        println!(
            "{:<28} {:>6} {:>8} {:>11} {:>11} {:>8} {:>12}",
            "layer", "ops", "calls/op", "incl ms/op", "self ms/op", "self %", "sim J/op"
        );
        for r in &layers.rows {
            println!(
                "{:<28} {:>6} {:>8.1} {:>11.4} {:>11.4} {:>7.1}% {:>12.6}",
                r.name,
                r.ops,
                r.calls,
                r.incl_ms,
                r.self_ms,
                100.0 * frac(r.self_ms, untraced_p50),
                r.joules
            );
        }
        let mut values: BTreeMap<String, f64> = out
            .values
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect();
        for r in &layers.rows {
            values.entry(span_metric(&r.name)).or_insert(r.incl_ms);
        }
        values.insert("latency_p90_ms".into(), percentile(&out.untraced_ms, 90.0));
        values.insert("latency_p99_ms".into(), percentile(&out.untraced_ms, 99.0));
        values.insert("cpu_ms_per_op".into(), cpu_ms_per_op);
        values.insert(
            "trace.overhead_frac".into(),
            frac(median(&out.traced_ms), untraced_p50) - 1.0,
        );
        values.insert(
            "trace.coverage_frac".into(),
            frac(layers.covered_ms, untraced_p50),
        );
        for f in FAILURE_CLASSES {
            values.insert(format!("failed.{f}"), out.failures.get(f) as f64);
        }
        layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                (name.to_string(), v, unit)
            })
            .collect()
    };
    for (n, v, u) in &metrics {
        println!("{n:<28} {v:>16.6} {u}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
}

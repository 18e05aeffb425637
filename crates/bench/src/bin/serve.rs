//! Load generator for the `jepo serve` daemon — the sustained-throughput
//! benchmark behind `BENCH_serve.json`.
//!
//! Boots the daemon in-process, then drives it through three phases:
//!
//! 1. **cold** — every distinct request in the mixed catalog once; the
//!    daemon has never seen the bytes, so parse/compile/analyze all run.
//! 2. **warm** — the same catalog again, several rounds; every response
//!    comes from the shared hot cache (response memo + AST/prepared
//!    programs), which is where the headline speedup comes from.
//! 3. **sustained** — N concurrent clients hammer the daemon with the
//!    mixed catalog and per-request latencies feed p50/p95/p99 and the
//!    sustained req/s figure.
//!
//! `--selfcheck` turns the run into a hard gate: every warm response
//! must be byte-identical to its cold counterpart (which is itself the
//! CLI's exact stdout — the CLI prints the same renderers), zero
//! requests may be dropped or rejected, and the warm speedup must be
//! ≥ 5×. Any violation exits 1.
//!
//! Usage: `serve [--jobs N] [--clients N] [--requests N] [--selfcheck]`
//! (defaults: jobs 0 = cores, 4 clients, 40 requests per client).

use jepo_bench::report::{num, percentile, Args, Json};
use jepo_serve::codec::Request;
use jepo_serve::{client, ServerConfig};
use std::time::Instant;

/// One catalog entry: a named request plus its cold-reference body.
struct CatalogEntry {
    label: String,
    request: Request,
}

/// Files of a generated analyzer corpus as `(name, body)` pairs.
fn corpus_files(seed: u64, files: usize) -> Vec<(String, String)> {
    let cfg = jepo_analyzer::gen::GenConfig {
        files,
        seed,
        ..Default::default()
    };
    jepo_analyzer::gen::generate_project(&cfg)
        .files()
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect()
}

/// A tiny runnable project for profile traffic; `k` varies the bytes so
/// distinct variants are distinct cache entries.
fn profile_files(k: u64) -> Vec<(String, String)> {
    vec![
        (
            "Main.java".to_string(),
            format!(
                "class Main {{ public static void main(String[] args) {{ \
                 int acc = 0; \
                 for (int i = 0; i < 40; i = i + 1) {{ acc = acc + Work.step(i, {k}); }} \
                 System.out.println(acc); }} }}"
            ),
        ),
        (
            "Work.java".to_string(),
            "class Work { static int step(int i, int k) { return i * k + i % 3; } }".to_string(),
        ),
    ]
}

/// The mixed-traffic catalog: analyze / energy / profile / table4.
fn build_catalog() -> Vec<CatalogEntry> {
    let mut catalog = Vec::new();
    for seed in [1u64, 2, 3] {
        let files = corpus_files(seed, 6);
        let mut request = Request::new("analyze");
        request.files = files.clone();
        catalog.push(CatalogEntry {
            label: format!("analyze/gen{seed}"),
            request,
        });
        let mut request = Request::new("energy");
        request.params.push(("top".into(), "10".into()));
        request.files = files;
        catalog.push(CatalogEntry {
            label: format!("energy/gen{seed}"),
            request,
        });
    }
    for k in [2u64, 5] {
        let mut request = Request::new("profile");
        request.files = profile_files(k);
        catalog.push(CatalogEntry {
            label: format!("profile/k{k}"),
            request,
        });
    }
    for instances in [60usize, 90] {
        let mut request = Request::new("table4");
        request
            .params
            .push(("instances".into(), instances.to_string()));
        request.params.push(("folds".into(), "2".into()));
        catalog.push(CatalogEntry {
            label: format!("table4/{instances}"),
            request,
        });
    }
    catalog
}

/// Summary of one phase's latencies.
struct PhaseStats {
    requests: usize,
    total_secs: f64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn phase_stats(latencies_ms: &[f64], total_secs: f64) -> PhaseStats {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    PhaseStats {
        requests: latencies_ms.len(),
        total_secs,
        mean_ms: mean,
        p50_ms: percentile(&sorted, 50.0),
        p95_ms: percentile(&sorted, 95.0),
        p99_ms: percentile(&sorted, 99.0),
    }
}

impl PhaseStats {
    fn json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.into()),
            ("total_secs", num(self.total_secs, 4)),
            ("mean_ms", num(self.mean_ms, 4)),
            ("p50_ms", num(self.p50_ms, 4)),
            ("p95_ms", num(self.p95_ms, 4)),
            ("p99_ms", num(self.p99_ms, 4)),
        ])
    }
}

/// One timed request; returns `(latency_ms, cache_tag, body)`.
fn timed_request(addr: &str, req: &Request) -> Result<(f64, String, String), String> {
    let t = Instant::now();
    let resp = client::request(addr, req).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some((code, message)) = resp.error {
        return Err(format!("{code}: {message}"));
    }
    Ok((ms, resp.cache, resp.body))
}

fn main() {
    let args = Args::from_env(&["--jobs", "--clients", "--requests"]);
    let clients = args.flag("--clients").unwrap_or(4).max(1);
    let per_client = args.flag("--requests").unwrap_or(40).max(1);
    let selfcheck = args.has("--selfcheck");
    let clamp = jepo_pool::clamp_to_cores(args.flag("--jobs").unwrap_or(0));

    let queue_depth = clients * 4 + 8;
    let handle = jepo_serve::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clamp.effective,
        queue_depth,
        ..Default::default()
    })
    .expect("bind the benchmark daemon");
    let addr = handle.addr().to_string();
    eprintln!(
        "daemon on {addr}: {} worker(s), queue depth {queue_depth}",
        handle.workers()
    );

    let catalog = build_catalog();
    eprintln!(
        "catalog: {} distinct requests; {clients} client(s) × {per_client} sustained requests",
        catalog.len()
    );

    // Phase 1: cold.
    let mut cold_bodies: Vec<String> = Vec::new();
    let mut cold_lat = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let t_cold = Instant::now();
    for entry in &catalog {
        match timed_request(&addr, &entry.request) {
            Ok((ms, cache, body)) => {
                if cache != "cold" {
                    failures.push(format!("{}: first request served {cache}", entry.label));
                }
                cold_lat.push(ms);
                cold_bodies.push(body);
            }
            Err(e) => {
                failures.push(format!("{}: {e}", entry.label));
                cold_bodies.push(String::new());
            }
        }
    }
    let cold = phase_stats(&cold_lat, t_cold.elapsed().as_secs_f64());

    // Phase 2: warm rounds over the identical catalog.
    let mut warm_lat = Vec::new();
    let mut warm_mismatches = 0usize;
    let t_warm = Instant::now();
    for _round in 0..3 {
        for (i, entry) in catalog.iter().enumerate() {
            match timed_request(&addr, &entry.request) {
                Ok((ms, cache, body)) => {
                    if cache != "warm" {
                        failures.push(format!("{}: repeat served {cache}", entry.label));
                    }
                    if body != cold_bodies[i] {
                        warm_mismatches += 1;
                    }
                    warm_lat.push(ms);
                }
                Err(e) => failures.push(format!("{}: {e}", entry.label)),
            }
        }
    }
    let warm = phase_stats(&warm_lat, t_warm.elapsed().as_secs_f64());
    let warm_speedup = cold.mean_ms / warm.mean_ms.max(1e-9);

    // Phase 3: sustained mixed load from concurrent clients.
    let t_sus = Instant::now();
    let results: Vec<(Vec<f64>, usize, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = &addr;
                let catalog = &catalog;
                let cold_bodies = &cold_bodies;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    let (mut warm_hits, mut mismatches, mut errors) = (0usize, 0usize, 0usize);
                    for n in 0..per_client {
                        let i = (c + n) % catalog.len();
                        match timed_request(addr, &catalog[i].request) {
                            Ok((ms, cache, body)) => {
                                lat.push(ms);
                                if cache == "warm" {
                                    warm_hits += 1;
                                }
                                if body != cold_bodies[i] {
                                    mismatches += 1;
                                }
                            }
                            Err(_) => errors += 1,
                        }
                    }
                    (lat, warm_hits, mismatches, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let sustained_secs = t_sus.elapsed().as_secs_f64();
    let mut sus_lat = Vec::new();
    let (mut sus_warm, mut sus_mismatch, mut sus_errors) = (0usize, 0usize, 0usize);
    for (lat, w, m, e) in results {
        sus_lat.extend(lat);
        sus_warm += w;
        sus_mismatch += m;
        sus_errors += e;
    }
    let sustained = phase_stats(&sus_lat, sustained_secs);
    let req_per_s = sustained.requests as f64 / sustained_secs.max(1e-9);

    // Graceful stop: drain, then join. A dropped request would surface
    // as an error above or a mismatated count here.
    let shutdown = client::request(&addr, &Request::new("shutdown"));
    let shutdown_ok = matches!(&shutdown, Ok(r) if r.is_ok());
    handle.join();

    let submitted = catalog.len() + warm_lat.len() + clients * per_client;
    let completed = cold_lat.len() + warm_lat.len() + sus_lat.len();
    let dropped = submitted - completed - failures.iter().filter(|f| !f.contains("served")).count();
    let warm_ok = warm_speedup >= 5.0;
    let bytes_ok = warm_mismatches == 0 && sus_mismatch == 0 && failures.is_empty();

    println!("== jepo serve sustained-throughput benchmark ==");
    println!(
        "cold:      {:3} requests, mean {:8.2} ms  (p50 {:.2} / p95 {:.2} / p99 {:.2})",
        cold.requests, cold.mean_ms, cold.p50_ms, cold.p95_ms, cold.p99_ms
    );
    println!(
        "warm:      {:3} requests, mean {:8.2} ms  (p50 {:.2} / p95 {:.2} / p99 {:.2})",
        warm.requests, warm.mean_ms, warm.p50_ms, warm.p95_ms, warm.p99_ms
    );
    println!("warm speedup: {warm_speedup:.1}× (gate: ≥ 5×)");
    println!(
        "sustained: {:3} requests over {:.2}s from {clients} client(s) → {req_per_s:.1} req/s \
         ({} warm, {} errors)",
        sustained.requests, sustained_secs, sus_warm, sus_errors
    );
    println!(
        "integrity: {} byte mismatches, {} dropped, shutdown ok: {shutdown_ok}",
        warm_mismatches + sus_mismatch,
        dropped
    );
    for f in failures.iter().take(5) {
        eprintln!("failure: {f}");
    }

    Json::obj([
        ("bench", "serve".into()),
        ("requested_jobs", clamp.requested.into()),
        ("jobs", clamp.effective.into()),
        ("available_cores", clamp.cores.into()),
        ("note", clamp.note().into()),
        ("queue_depth", queue_depth.into()),
        ("clients", clients.into()),
        ("distinct_requests", catalog.len().into()),
        ("cold", cold.json()),
        ("warm", warm.json()),
        ("sustained", sustained.json()),
        ("sustained_req_per_s", num(req_per_s, 2)),
        ("warm_speedup", num(warm_speedup, 2)),
        ("warm_hits_sustained", sus_warm.into()),
        (
            "selfcheck",
            Json::obj([
                ("enabled", selfcheck.into()),
                ("warm_equals_cold", bytes_ok.into()),
                ("dropped_requests", dropped.into()),
                ("request_errors", sus_errors.into()),
                ("warm_speedup_ok", warm_ok.into()),
                ("shutdown_ok", shutdown_ok.into()),
            ]),
        ),
    ])
    .write_artifact("BENCH_serve.json");

    if selfcheck {
        let mut bad = Vec::new();
        if !bytes_ok {
            bad.push("warm responses diverged from cold bytes".to_string());
        }
        if dropped != 0 || sus_errors != 0 {
            bad.push(format!("{dropped} dropped / {sus_errors} errored requests"));
        }
        if !warm_ok {
            bad.push(format!("warm speedup {warm_speedup:.1}× below the 5× gate"));
        }
        if !shutdown_ok {
            bad.push("graceful shutdown failed".to_string());
        }
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("SELFCHECK FAILED: {b}");
            }
            std::process::exit(1);
        }
        println!("Selfcheck passed: warm ≡ cold bytes, zero dropped, speedup ≥ 5×, clean drain.");
    }
}

//! `serve_hot` and `serve_edit`: closed-loop clients over loopback to
//! an in-process `jepo serve` daemon.
//!
//! `serve_hot` repeats requests from a catalog that set-up has already
//! served once, so every timed request is a response-memo hit and the
//! request is only accept, framing, the pool hand-off and the memo
//! lookup. `serve_edit` sends `analyze` for a client-owned generated
//! corpus after a few files changed, so every request misses the memo
//! and runs the shared incremental analyzer: the write path of every
//! cache layer. `serve_edit` runs in sessions of a fixed number of
//! requests, each on a freshly set-up daemon.

use crate::trace::{Recorder, OP, REPLAY};
use crate::util::{frac, ms_since, timed_setup, Failures, Outcome, Rng, Window, Zipf};
use crate::Cfg;
use jepo_analyzer::gen::{self, GenConfig};
use jepo_analyzer::{impact, AnalysisCache, Analyzer};
use jepo_core::JepoProfiler;
use jepo_jlang::JavaProject;
use jepo_serve::codec::{CodecError, Request};
use jepo_serve::{client, ops, ContentKey, HotCache, Response, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Edit,
}

/// Files per client corpus in `serve_edit`, and files edited per request
/// (about 1%).
const EDIT_FILES: usize = 200;
const EDITS_PER_REQUEST: usize = 2;
/// `serve_edit` responses kept per client for the after-window check.
const EDIT_SAMPLES: usize = 3;
/// After every this many requests, when that request is traced, a
/// client also sends a `ping`.
const PING_EVERY: u64 = 4;
/// Set-up repetitions before the window, and as many after it: each
/// binds a daemon and fills its caches. One set-up varies by a quarter
/// within a run, so the median needs many.
const SETUP_REPS: usize = 8;
/// `serve_edit` requests per session. The daemon's caches never
/// evict, so its requests slow down and its memory grows with every
/// request it has served; with one daemon for the whole window, a
/// faster host would serve more and read slower and bigger. A fresh
/// daemon every this many requests makes every run measure the same
/// daemon ages. Memory freed by a stopped daemon stays in the
/// allocator, so the process peak still creeps up with every session:
/// `peak_rss_mb` is read when the first session ends.
const SESSION_REQUESTS: u64 = 100;

struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
}

fn start_daemon(workers: usize) -> Daemon {
    let handle = jepo_serve::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 8,
        ..Default::default()
    })
    .expect("bind the benchmark daemon on loopback");
    Daemon {
        addr: handle.addr(),
        handle,
    }
}

/// One request on a fresh connection, with timeouts; failures map to
/// their class.
fn send(addr: SocketAddr, req: &Request, timeout: Duration) -> Result<Response, &'static str> {
    let io_class = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => "timeout",
        _ => "codec",
    };
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io_class)?;
    stream.set_nodelay(true).map_err(io_class)?;
    stream.set_read_timeout(Some(timeout)).map_err(io_class)?;
    stream.set_write_timeout(Some(timeout)).map_err(io_class)?;
    let resp = client::raw_request(&mut stream, &req.encode()).map_err(|e| match e {
        CodecError::Io(e) => io_class(e),
        _ => "codec",
    })?;
    match &resp.error {
        None => Ok(resp),
        Some((code, _)) => Err(match code.as_str() {
            "busy" => "busy",
            "shutting-down" => "shutting_down",
            "bad-request" => "bad_request",
            _ => "internal",
        }),
    }
}

/// The daemon's `stats` counters.
#[derive(Clone, Copy, Default)]
struct Stats {
    served: f64,
    errored: f64,
    rejected: f64,
    parse: (f64, f64),
    prepared: (f64, f64),
    memo: (f64, f64),
}

fn stats(addr: SocketAddr) -> Option<Stats> {
    let body = send(addr, &Request::new("stats"), Duration::from_secs(10))
        .ok()?
        .body;
    let num = |from: &str, key: &str| -> Option<f64> {
        let at = body.find(from)? + from.len();
        let rest = &body[at..];
        let at = rest.find(key)? + key.len();
        let digits: String = rest[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    };
    let layer = |name: &str| -> Option<(f64, f64)> {
        Some((num(name, "\"hits\":")?, num(name, "\"misses\":")?))
    };
    Some(Stats {
        served: num("", "\"served\":")?,
        errored: num("", "\"errored\":")?,
        rejected: num("", "\"rejected\":")?,
        parse: layer("\"parse_cache\"")?,
        prepared: layer("\"prepared_cache\"")?,
        memo: layer("\"response_memo\"")?,
    })
}

impl Stats {
    /// Add the counters accrued from `before` to `after`.
    fn add_delta(&mut self, before: &Stats, after: &Stats) {
        let d = |x: (f64, f64), y: (f64, f64)| (y.0 - x.0, y.1 - x.1);
        let add = |t: &mut (f64, f64), x: (f64, f64)| {
            t.0 += x.0;
            t.1 += x.1;
        };
        self.served += after.served - before.served;
        self.errored += after.errored - before.errored;
        self.rejected += after.rejected - before.rejected;
        add(&mut self.parse, d(before.parse, after.parse));
        add(&mut self.prepared, d(before.prepared, after.prepared));
        add(&mut self.memo, d(before.memo, after.memo));
    }
}

/// Send `shutdown`, wait for the drain, and report whether it was clean.
fn stop(d: Daemon) -> bool {
    let ok = matches!(
        send(d.addr, &Request::new("shutdown"), Duration::from_secs(30)),
        Ok(r) if r.body == "shutting down\n"
    );
    d.handle.join();
    ok
}

fn project_of(files: &[(String, String)]) -> Result<JavaProject, String> {
    let mut p = JavaProject::new();
    for (name, body) in files {
        p.add_file(name, body).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(p)
}

/// `analyze` rendered without any cache: whole-project interprocedural
/// analysis, ranked, through the CLI's renderer.
fn analyze_reference(files: &[(String, String)]) -> Result<String, String> {
    let project = project_of(files)?;
    let mut s = Analyzer::interprocedural().analyze_project(&project);
    impact::rank(&mut s);
    Ok(ops::analyze_render(&s, project.len()))
}

/// Any catalog request rendered without any cache.
fn reference(req: &Request) -> Result<String, String> {
    match req.verb.as_str() {
        "analyze" => analyze_reference(&req.files),
        "energy" => {
            let top = req.param("top").and_then(|t| t.parse().ok()).unwrap_or(20);
            Ok(ops::energy_render(&project_of(&req.files)?, top))
        }
        "profile" => {
            let report = JepoProfiler::new()
                .profile(&project_of(&req.files)?)
                .map_err(|e| e.to_string())?;
            let mut out = ops::profile_render(&report);
            if !report.stdout.is_empty() {
                out.push_str(&format!(
                    "\nprogram output:\n{}\n",
                    report.stdout.trim_end()
                ));
            }
            Ok(out)
        }
        other => Err(format!("no reference for `{other}`")),
    }
}

fn gen_files(cfg: &GenConfig, revs: &[u64]) -> Vec<(String, String)> {
    (0..cfg.files)
        .map(|i| (gen::file_name(i), gen::generate_source(cfg, i, revs[i])))
        .collect()
}

/// The `serve_hot` catalog: analyze and energy over small generated
/// corpora, and profile over small runnable programs.
fn hot_catalog(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 1);
    let mut catalog = Vec::new();
    for _ in 0..6 {
        let cfg = GenConfig {
            files: 4 + rng.below(5),
            seed: rng.next_u64() % 1_000_000,
            ..Default::default()
        };
        let files = gen_files(&cfg, &vec![0; cfg.files]);
        let mut analyze = Request::new("analyze");
        analyze.files = files.clone();
        catalog.push(analyze);
        let mut energy = Request::new("energy");
        energy.params.push(("top".into(), "10".into()));
        energy.files = files;
        catalog.push(energy);
    }
    for _ in 0..4 {
        let (k, n) = (2 + rng.below(50), 20 + rng.below(40));
        let mut profile = Request::new("profile");
        profile.files = vec![
            (
                "Main.java".to_string(),
                format!(
                    "class Main {{ public static void main(String[] args) {{ int acc = 0; \
                     for (int i = 0; i < {n}; i = i + 1) {{ acc = acc + Work.step(i, {k}); }} \
                     System.out.println(acc); }} }}"
                ),
            ),
            (
                "Work.java".to_string(),
                "class Work { static int step(int i, int k) { return i * k + i % 3; } }"
                    .to_string(),
            ),
        ];
        catalog.push(profile);
    }
    // Which entries are popular depends on the seed.
    for i in (1..catalog.len()).rev() {
        catalog.swap(i, rng.below(i + 1));
    }
    catalog
}

/// A client's corpus in one session. Each session draws its own, so a
/// run's latency spans several corpora rather than one seed's.
fn edit_cfg(seed: u64, client: usize, session: u64) -> GenConfig {
    GenConfig {
        files: EDIT_FILES,
        seed: Rng::new(seed, 100 + client as u64 + (session << 8)).next_u64() % 1_000_000,
        ..Default::default()
    }
}

/// One client's corpus and edit stream in `serve_edit`.
struct Editor {
    cfg: GenConfig,
    revs: Vec<u64>,
    files: Vec<(String, String)>,
    rng: Rng,
}

impl Editor {
    /// The client's corpus for `session`, at revision 0.
    fn new(seed: u64, client: usize, session: u64) -> Editor {
        let cfg = edit_cfg(seed, client, session);
        let revs = vec![0; cfg.files];
        Editor {
            files: gen_files(&cfg, &revs),
            revs,
            cfg,
            rng: Rng::new(seed, 200 + client as u64 + (session << 8)),
        }
    }

    fn request(&self) -> Request {
        let mut req = Request::new("analyze");
        req.files = self.files.clone();
        req
    }

    /// Give about 1% of the files a new revision; returns their indices.
    fn edit(&mut self) -> Vec<usize> {
        let mut edited = Vec::with_capacity(EDITS_PER_REQUEST);
        while edited.len() < EDITS_PER_REQUEST {
            let i = self.rng.below(self.cfg.files);
            if !edited.contains(&i) {
                edited.push(i);
            }
        }
        for &i in &edited {
            self.revs[i] += 1;
            self.files[i].1 = gen::generate_source(&self.cfg, i, self.revs[i]);
        }
        edited
    }
}

/// The in-process replay of what the daemon does for a request, used
/// by traced requests to time the layers behind the socket.
struct Replay {
    cache: HotCache,
    analysis: Mutex<(Analyzer, AnalysisCache)>,
}

impl Replay {
    fn new() -> Replay {
        let analyzer = Analyzer::interprocedural();
        let cache = analyzer.new_cache();
        Replay {
            cache: HotCache::new(),
            analysis: Mutex::new((analyzer, cache)),
        }
    }

    /// `ops::execute` for `analyze`, decomposed into the cache's public
    /// layers: memo lookup, project assembly, incremental analysis on a
    /// replay `AnalysisCache`, render, memo insert.
    fn analyze(&self, req: &Request, rec: &Recorder, log: &mut Log) -> Option<String> {
        let _e = rec.span("serve.execute");
        let key = ContentKey::of(&req.encode());
        if let Some(body) = self.cache.memo_get(key) {
            return Some(body.as_ref().clone());
        }
        let project = {
            let _s = rec.span("serve.project");
            self.cache.project(&req.files).ok()?
        };
        let suggestions = {
            let _s = rec.span("analyzer.incremental");
            let mut guard = self.analysis.lock().expect("replay analyzer lock");
            let (analyzer, cache) = &mut *guard;
            let mut s = analyzer.analyze_project_incremental(&project, cache);
            impact::rank(&mut s);
            let st = cache.stats();
            log.observe("analyzer.reanalyzed_files", st.last_misses as f64);
            log.observe(
                "analyzer.reuse_frac",
                frac(st.last_hits as f64, (st.last_hits + st.last_misses) as f64),
            );
            s
        };
        let body = {
            let _s = rec.span("serve.render");
            ops::analyze_render(&suggestions, project.len())
        };
        self.cache.memo_put(key, &body);
        Some(body)
    }
}

/// What one client thread measured.
#[derive(Default)]
struct Log {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    attempted: u64,
    /// Ok responses, pings included.
    ok: u64,
    failures: Failures,
    values: BTreeMap<String, Vec<f64>>,
    /// `serve_edit` responses kept for the after-window check.
    samples: Vec<Sample>,
}

struct Sample {
    client: usize,
    session: u64,
    /// Index of the request's latency in the traced or untraced list.
    slot: usize,
    traced: bool,
    revs: Vec<u64>,
    body: String,
}

impl Log {
    fn observe(&mut self, name: &str, v: f64) {
        self.values.entry(name.to_string()).or_default().push(v);
    }

    fn latency(&mut self, traced: bool, ms: f64) -> usize {
        let v = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        v.push(ms);
        v.len() - 1
    }

    fn latency_fail(&mut self, traced: bool, slot: usize) {
        let v = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        v[slot] = f64::INFINITY;
    }
}

/// Shared, read-only state of the timed window.
struct Ctx<'a> {
    kind: Kind,
    addr: SocketAddr,
    window: Window,
    rec: &'a Recorder,
    timeout: Duration,
    /// `serve_hot`: the catalog, its cache-free references and the
    /// Zipf sampler over it.
    catalog: &'a [Request],
    expected: &'a [String],
    zipf: &'a Zipf,
    replay: &'a Replay,
    seed: u64,
    session: u64,
    /// Requests per client in this session.
    limit: u64,
}

fn client(ctx: &Ctx, c: usize, mut editor: Option<Editor>) -> Log {
    let mut log = Log::default();
    let mut rng = Rng::new(ctx.seed, 300 + c as u64 + (ctx.session << 8));
    let mut seen = 0u64;
    let op_base = ((ctx.session << 8) + c as u64 + 1) << 32;
    while log.attempted < ctx.limit {
        let Some(traced) = ctx.window.phase(log.attempted) else {
            break;
        };
        log.attempted += 1;
        let (req, idx, edited) = match editor.as_mut() {
            Some(ed) => {
                let edited = ed.edit();
                (ed.request(), 0, edited)
            }
            None => {
                let i = ctx.zipf.sample(&mut rng);
                (ctx.catalog[i].clone(), i, Vec::new())
            }
        };
        let id = op_base + log.attempted;
        let t = Instant::now();
        let result = if traced {
            let _root = ctx.rec.root(OP, id);
            let _s = ctx.rec.span("serve.roundtrip");
            send(ctx.addr, &req, ctx.timeout)
        } else {
            send(ctx.addr, &req, ctx.timeout)
        };
        let ms = ms_since(t);
        let resp = match result {
            Ok(r) => r,
            Err(class) => {
                log.failures.add(class);
                log.latency(traced, f64::INFINITY);
                continue;
            }
        };
        log.ok += 1;
        let slot = log.latency(traced, ms);
        match &editor {
            None => {
                if resp.body != ctx.expected[idx] {
                    log.failures.add("mismatch");
                    log.latency_fail(traced, slot);
                }
            }
            Some(ed) => {
                // Reservoir sample of responses for the after-window
                // check against the non-incremental reference.
                seen += 1;
                let keep = if log.samples.len() < EDIT_SAMPLES {
                    Some(log.samples.len())
                } else {
                    let j = rng.below(seen as usize);
                    (j < EDIT_SAMPLES).then_some(j)
                };
                if let Some(k) = keep {
                    let s = Sample {
                        client: c,
                        session: ctx.session,
                        slot,
                        traced,
                        revs: ed.revs.clone(),
                        body: resp.body.clone(),
                    };
                    if k == log.samples.len() {
                        log.samples.push(s);
                    } else {
                        log.samples[k] = s;
                    }
                }
            }
        }
        if traced {
            replay(ctx, &req, &edited, &resp, ms, id, &mut log);
        }
    }
    log
}

/// Off-path measurements for a traced request: the daemon's execution
/// replayed in-process (so transport = roundtrip - execute), frame
/// sizes, and every few requests a `ping`.
fn replay(
    ctx: &Ctx,
    req: &Request,
    edited: &[usize],
    resp: &Response,
    roundtrip_ms: f64,
    id: u64,
    log: &mut Log,
) {
    let rec = ctx.rec;
    let _r = rec.root(REPLAY, id);
    let t = Instant::now();
    let body = match ctx.kind {
        Kind::Hot => {
            let _e = rec.span("serve.execute");
            ops::execute(req, &ctx.replay.cache).ok().map(|(b, _)| b)
        }
        Kind::Edit => ctx.replay.analyze(req, rec, log),
    };
    let execute_ms = ms_since(t);
    if body.as_deref() != Some(resp.body.as_str()) {
        log.failures.add("mismatch");
    }
    log.observe("serve.transport_ms", roundtrip_ms - execute_ms);
    log.observe("serve.request_bytes", req.encode().len() as f64);
    log.observe("serve.response_bytes", resp.body.len() as f64);
    if !edited.is_empty() {
        // The parse work an edit causes, timed on its own: the daemon
        // parses exactly the files whose bytes it has not seen.
        let _s = rec.span("jlang.parse");
        let mut scratch = JavaProject::new();
        for &i in edited {
            let (name, body) = &req.files[i];
            if scratch.add_file(name, body).is_err() {
                log.failures.add("mismatch");
            }
        }
    }
    if log.attempted.is_multiple_of(PING_EVERY) {
        let _s = rec.span("serve.ping");
        match send(ctx.addr, &Request::new("ping"), ctx.timeout) {
            Ok(_) => log.ok += 1,
            Err(class) => log.failures.add(class),
        }
    }
}

/// Bring a replay cache to the state set-up leaves the daemon in.
fn warm_replay(kind: Kind, warm: &[Request]) -> Replay {
    let replay = Replay::new();
    for r in warm {
        match kind {
            Kind::Hot => {
                let _ = ops::execute(r, &replay.cache);
            }
            Kind::Edit => {
                let _ = replay.analyze(r, &Recorder::new(), &mut Log::default());
            }
        }
    }
    replay
}

pub fn run(cfg: &Cfg, rec: &Recorder, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    // One `serve_edit` client: two would keep both cores of a 2-core
    // host busy and evict each other's state from the daemon's single
    // analysis cache, so the run would measure the scheduler.
    let clients = match kind {
        Kind::Hot => cfg.concurrency,
        Kind::Edit => 1,
    };
    let workers = cfg.concurrency;
    let limit = match kind {
        Kind::Hot => u64::MAX,
        Kind::Edit => SESSION_REQUESTS,
    };
    out.record.push(("clients", clients.to_string()));
    out.record.push(("workers", workers.to_string()));
    let timeout = Duration::from_secs(30);
    let catalog = if kind == Kind::Hot {
        hot_catalog(cfg.seed)
    } else {
        Vec::new()
    };

    // Set-up: bind the daemon and bring its caches to the state the
    // workload measures (the whole catalog served once, or each
    // client's corpus analyzed once).
    let warm = |session: u64| -> Vec<Request> {
        match kind {
            Kind::Hot => catalog.clone(),
            Kind::Edit => (0..clients)
                .map(|c| Editor::new(cfg.seed, c, session).request())
                .collect(),
        }
    };
    let set_up = |session: u64| {
        let d = start_daemon(workers);
        let mut filled = Ok(());
        for r in &warm(session) {
            if let Err(class) = send(d.addr, r, timeout) {
                filled = Err(format!("set-up request failed: {class}"));
                break;
            }
        }
        (d, filled)
    };
    let discard = |(d, _): (Daemon, _)| {
        stop(d);
    };
    let (first, filled) = timed_setup(SETUP_REPS, &mut out.setup_times, || set_up(0), discard);
    if let Err(e) = filled {
        out.check_errors.push(e);
    }

    // References, outside the timed window.
    let mut expected = Vec::new();
    for r in &catalog {
        match reference(r) {
            Ok(body) => expected.push(body),
            Err(e) => {
                out.check_errors.push(format!("reference failed: {e}"));
                expected.push(String::new());
            }
        }
    }
    let zipf = Zipf::new(catalog.len().max(1), 1.0);

    let window = Window::start(cfg.seconds, cfg.trace);
    let cpu0 = crate::util::cpu_seconds();
    let mut logs: Vec<Log> = Vec::new();
    let mut totals = Stats::default();
    let mut next = Some(first);
    for session in 0.. {
        let daemon = next.take().unwrap_or_else(|| {
            // A fresh daemon, set up as before the window; the time
            // counts in `setup_s`, not in any request.
            let (d, filled) = timed_setup(1, &mut out.setup_times, || set_up(session), discard);
            if let Err(e) = filled {
                out.check_errors.push(e);
            }
            d
        });
        let replay = if cfg.trace {
            warm_replay(kind, &warm(session))
        } else {
            Replay::new()
        };
        let before = stats(daemon.addr);
        let rss0 = crate::util::status_mb("VmRSS");
        let ctx = Ctx {
            kind,
            addr: daemon.addr,
            window,
            rec,
            timeout,
            catalog: &catalog,
            expected: &expected,
            zipf: &zipf,
            replay: &replay,
            seed: cfg.seed,
            session,
            limit,
        };
        let session_logs: Vec<Log> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let ctx = &ctx;
                    let editor = (kind == Kind::Edit).then(|| Editor::new(cfg.seed, c, session));
                    s.spawn(move || client(ctx, c, editor))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        out.observe(
            "serve.rss_growth_mb",
            crate::util::status_mb("VmRSS") - rss0,
        );
        let session_ok: u64 = session_logs.iter().map(|l| l.ok).sum();
        match (before, stats(daemon.addr)) {
            (Some(b), Some(a)) => {
                // Clean accounting: the daemon served exactly the ok
                // responses the clients saw, plus the closing `stats`.
                if a.served - b.served != session_ok as f64 + 1.0 {
                    out.check_errors.push(format!(
                        "daemon served {} requests in session {session}, clients saw {session_ok} ok",
                        a.served - b.served - 1.0
                    ));
                }
                totals.add_delta(&b, &a);
            }
            _ => out.check_errors.push("stats request failed".into()),
        }
        logs.extend(session_logs);
        if kind == Kind::Edit && session == 0 {
            out.peak_rss_mb = Some(crate::util::status_mb("VmHWM"));
        }
        if !stop(daemon) {
            out.check_errors
                .push("shutdown did not drain cleanly".into());
        }
        if window.phase(0).is_none() {
            break;
        }
    }
    out.window_s = window.elapsed();
    out.cpu_s = crate::util::cpu_seconds() - cpu0;

    let mut samples = Vec::new();
    for mut log in logs {
        out.attempted += log.attempted;
        out.failures.merge(&log.failures);
        for (k, v) in std::mem::take(&mut log.values) {
            out.values.entry(k).or_default().extend(v);
        }
        samples.extend(
            std::mem::take(&mut log.samples)
                .into_iter()
                .map(|s| (s, out.untraced_ms.len(), out.traced_ms.len())),
        );
        out.untraced_ms.extend(log.untraced);
        out.traced_ms.extend(log.traced);
    }

    // `serve_edit`: check the sampled responses against whole-project
    // analysis of the same revisions.
    for (s, u_off, t_off) in samples {
        let files = gen_files(&edit_cfg(cfg.seed, s.client, s.session), &s.revs);
        if analyze_reference(&files).as_deref() != Ok(s.body.as_str()) {
            out.failures.add("mismatch");
            let (v, off) = if s.traced {
                (&mut out.traced_ms, t_off)
            } else {
                (&mut out.untraced_ms, u_off)
            };
            v[off + s.slot] = f64::INFINITY;
        }
    }

    let hit_frac = |(h, m): (f64, f64)| frac(h, h + m);
    out.observe("serve.memo_hit_frac", hit_frac(totals.memo));
    out.observe("serve.parse_hit_frac", hit_frac(totals.parse));
    out.observe("serve.prepared_hit_frac", hit_frac(totals.prepared));
    out.observe("serve.rejected", totals.rejected);
    out.observe("serve.errored", totals.errored);

    // As many set-ups again after the window, so that `setup_s` sees
    // the host as the window left it too.
    let (last, filled) = timed_setup(SETUP_REPS, &mut out.setup_times, || set_up(0), discard);
    stop(last);
    if let Err(e) = filled {
        out.check_errors.push(e);
    }
    out
}

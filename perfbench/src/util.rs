//! Small helpers shared by every workload: order statistics, process
//! counters read from `/proc`, a seeded generator, failure accounting
//! and the timed-window schedule.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of `values` (`p` in 0..=100). Non-finite
/// entries (failed ops) sort last, so a failure counts as missing any
/// latency limit. Empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was observed.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spearman rank correlation of two equally long series (average ranks
/// for ties). 0 when either series is constant.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                r[idx[k]] = avg;
            }
            i = j + 1;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
    frac(cov, (va * vb).sqrt())
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`. The kernel reports it in USER_HZ = 100 ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`), in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c / total;
            *c = acc;
        }
        Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// Failure classes, counted separately. Every class is printed, so a
/// class that never occurs reads 0.
pub const FAILURE_CLASSES: [&str; 7] = [
    "busy",
    "shutting_down",
    "bad_request",
    "internal",
    "codec",
    "timeout",
    "mismatch",
];

#[derive(Default)]
pub struct Failures(BTreeMap<&'static str, u64>);

impl Failures {
    pub fn add(&mut self, class: &'static str) {
        debug_assert!(FAILURE_CLASSES.contains(&class), "{class}");
        *self.0.entry(class).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Failures) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_default() += v;
        }
    }

    pub fn get(&self, class: &str) -> u64 {
        self.0.get(class).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }
}

/// The timed window. An untraced run measures every op untraced; a
/// traced run alternates untraced and traced ops, so the overhead
/// comparison sees the same machine state on both sides.
#[derive(Clone, Copy)]
pub struct Window {
    start: Instant,
    seconds: f64,
    trace: bool,
}

impl Window {
    pub fn start(seconds: f64, trace: bool) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            trace,
        }
    }

    /// `None` once the window is over; otherwise whether the caller's
    /// op number `n` runs traced.
    pub fn phase(&self, n: u64) -> Option<bool> {
        if self.start.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        Some(self.trace && n % 2 == 1)
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// What one workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of every set-up repetition, seconds; `setup_s` is
    /// their median.
    pub setup_times: Vec<f64>,
    /// Latency of every untraced op, ms; failed ops are `INFINITY`.
    pub untraced_ms: Vec<f64>,
    /// Latency of every traced op, ms; failed ops are `INFINITY`.
    pub traced_ms: Vec<f64>,
    /// Timed-window wall time, seconds.
    pub window_s: f64,
    /// Process CPU seconds spent inside the timed window.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failures: Failures,
    /// Output checks that failed outside any op (e.g. a reference that
    /// disagrees with a pinned snapshot); each makes `correct` false.
    pub check_errors: Vec<String>,
    /// Per-op observations of non-time layer metrics (counts, ratios,
    /// joules), reported as medians.
    pub values: BTreeMap<String, Vec<f64>>,
    /// `VmHWM` in MB read after a fixed amount of work, for a workload
    /// whose memory grows with the work done; `None` reads it when the
    /// run ends.
    pub peak_rss_mb: Option<f64>,
    /// Extra run-record fields (effective clients, jobs, ...).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn observe(&mut self, name: impl Into<String>, value: f64) {
        self.values.entry(name.into()).or_default().push(value);
    }
}

/// Run `setup` `reps` times, push each wall time in seconds to
/// `times`, and return the last result. Every earlier result goes to
/// `discard` outside the timed part, so repetitions never overlap.
pub fn timed_setup<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one repetition")
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

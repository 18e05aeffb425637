//! Kernel op-accounting microbench — the numbers behind the scoreboard
//! rearchitecture.
//!
//! Compares two accounting designs on the classifier hot path:
//!
//! * **atomic** — the pre-scoreboard design: every charged op is an
//!   atomic RMW on a shared flat counter array (modelled here as stripe
//!   0 of a one-stripe [`OpCounter`], which is exactly what the old
//!   `AtomicU64` array was). Under threads, all workers contend on the
//!   same cache lines.
//! * **scoreboard** — the current [`Kernel`]: plain `Cell` bumps into a
//!   thread-local scoreboard, flushed in bulk to a cache-line-padded
//!   stripe. Non-atomic counts are also visible to the optimizer, so
//!   the accounting can melt into the surrounding arithmetic.
//!
//! Two shapes are measured, single-threaded and with N threads:
//! *scalar* (one charge per op, `Kernel::add` in a tight loop — the
//! worst case for accounting overhead) and *vector* (`Kernel::dot` on
//! length-64 vectors — a handful of bulk charges amortized over 64
//! mul-adds). Arithmetic is identical between designs, so the ratio
//! isolates the accounting cost. After every run the harness asserts
//! the counter total equals the exact expected op count — the speedup
//! never trades away exactness.
//!
//! Results land in `BENCH_kernel.json`.
//!
//! Usage: `kernel [scalar_iters] [vector_iters] [--threads N]`
//! (defaults 20,000,000 and 200,000; threads defaults to
//! `max(2, cores)`; CI's perf-smoke passes a small budget).

use jepo_bench::report::{num, Args, Json};
use jepo_ml::{EfficiencyProfile, Kernel, Precision};
use jepo_rapl::{OpCategory, OpCounter};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The old accounting design, reconstructed for the baseline leg:
/// per-op atomic RMWs against one shared (unstriped) counter, with
/// arithmetic matching [`Kernel`] bit-for-bit so the two legs differ
/// only in how they count.
struct AtomicKernel {
    counter: Arc<OpCounter>,
    alu: OpCategory,
    mul: OpCategory,
    f32_round: bool,
}

impl AtomicKernel {
    fn new(profile: EfficiencyProfile) -> AtomicKernel {
        let f32_round = profile.precision == Precision::F32;
        AtomicKernel {
            counter: Arc::new(OpCounter::striped(1)),
            alu: if f32_round {
                OpCategory::FloatAlu
            } else {
                OpCategory::DoubleAlu
            },
            mul: if f32_round {
                OpCategory::FloatMul
            } else {
                OpCategory::DoubleMul
            },
            f32_round,
        }
    }

    #[inline]
    fn quantize(&self, x: f64) -> f64 {
        if self.f32_round {
            x as f32 as f64
        } else {
            x
        }
    }

    /// Counted add — one atomic RMW per op, as the old kernel did.
    #[inline]
    fn add(&self, a: f64, b: f64) -> f64 {
        self.counter.incr(self.alu);
        self.quantize(a + b)
    }

    /// Counted dot with the old bulk charging: one atomic RMW per
    /// category (six per call), all on the shared flat array.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as u64;
        self.counter.add(OpCategory::ArrayIndex, 2 * n);
        self.counter.add(OpCategory::Branch, n);
        self.counter.add(OpCategory::IntAlu, 2 * n);
        self.counter.add(self.mul, n);
        self.counter.add(self.alu, n);
        self.counter.add(OpCategory::Load, 2 * n);
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        self.quantize(s)
    }
}

/// Scalar hot loop: one charged add per iteration. The XOR fold defeats
/// dead-code elimination without serializing on a float dependency.
fn scalar_scoreboard(kernel: &Kernel, iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc ^= kernel.add(i as f64, 0.5).to_bits();
    }
    acc
}

fn scalar_atomic(kernel: &AtomicKernel, iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc ^= kernel.add(i as f64, 0.5).to_bits();
    }
    acc
}

fn vector_scoreboard(kernel: &Kernel, iters: u64, a: &[f64], b: &[f64]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..iters {
        acc ^= kernel.dot(a, b).to_bits();
    }
    acc
}

fn vector_atomic(kernel: &AtomicKernel, iters: u64, a: &[f64], b: &[f64]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..iters {
        acc ^= kernel.dot(a, b).to_bits();
    }
    acc
}

const VECTOR_LEN: usize = 64;

/// One measured leg: run `per_thread` iterations on each of `threads`
/// workers, return elapsed seconds. `spawn_leg` builds the per-thread
/// closure (the scoreboard leg moves a fresh `Kernel` clone into each
/// worker — the kernel is deliberately `!Sync`; the atomic leg shares
/// one counter, which is the contention being measured).
fn timed<'scope, F>(threads: usize, spawn_leg: F) -> f64
where
    F: Fn() -> Box<dyn FnOnce() + Send + 'scope>,
{
    let workers: Vec<_> = (0..threads).map(|_| spawn_leg()).collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in workers {
            s.spawn(w);
        }
    });
    t.elapsed().as_secs_f64()
}

struct Leg {
    atomic_mops: f64,
    scoreboard_mops: f64,
    speedup: f64,
}

/// Measure the scalar shape at a thread count; assert exact totals.
fn scalar_leg(profile: EfficiencyProfile, threads: usize, iters: u64) -> Leg {
    let per_thread = iters / threads as u64;
    let total = per_thread * threads as u64;

    let atomic = AtomicKernel::new(profile);
    let atomic_ref = &atomic;
    let atomic_secs = timed(threads, || {
        Box::new(move || {
            black_box(scalar_atomic(atomic_ref, per_thread));
        })
    });
    assert_eq!(
        atomic.counter.snapshot().get(atomic.alu),
        total,
        "atomic scalar leg lost counts"
    );

    let kernel = Kernel::new(profile);
    let score_secs = timed(threads, || {
        let k = kernel.clone();
        Box::new(move || {
            black_box(scalar_scoreboard(&k, per_thread));
        })
    });
    // Worker clones drop-flushed inside `timed`; the root kernel has
    // nothing local, so the shared counter already holds everything.
    assert_eq!(
        kernel.take_snapshot().get(atomic.alu),
        total,
        "scoreboard scalar leg lost counts"
    );

    Leg {
        atomic_mops: total as f64 / atomic_secs / 1e6,
        scoreboard_mops: total as f64 / score_secs / 1e6,
        speedup: atomic_secs / score_secs.max(1e-12),
    }
}

/// Measure the vector shape (`dot` on length-64 vectors) at a thread
/// count; throughput is charged element-ops per second.
fn vector_leg(profile: EfficiencyProfile, threads: usize, iters: u64) -> Leg {
    let per_thread = iters / threads as u64;
    let total_calls = per_thread * threads as u64;
    let elem_ops = total_calls * VECTOR_LEN as u64;
    let a: Vec<f64> = (0..VECTOR_LEN).map(|i| i as f64 * 0.25).collect();
    let b: Vec<f64> = (0..VECTOR_LEN).map(|i| 1.0 / (i + 1) as f64).collect();

    let atomic = AtomicKernel::new(profile);
    let (atomic_ref, av, bv) = (&atomic, &a, &b);
    let atomic_secs = timed(threads, || {
        Box::new(move || {
            black_box(vector_atomic(atomic_ref, per_thread, av, bv));
        })
    });
    assert_eq!(
        atomic.counter.snapshot().get(atomic.mul),
        elem_ops,
        "atomic vector leg lost counts"
    );

    let kernel = Kernel::new(profile);
    let score_secs = timed(threads, || {
        let k = kernel.clone();
        let (av, bv) = (a.clone(), b.clone());
        Box::new(move || {
            black_box(vector_scoreboard(&k, per_thread, &av, &bv));
        })
    });
    assert_eq!(
        kernel.take_snapshot().get(atomic.mul),
        elem_ops,
        "scoreboard vector leg lost counts"
    );

    Leg {
        atomic_mops: elem_ops as f64 / atomic_secs / 1e6,
        scoreboard_mops: elem_ops as f64 / score_secs / 1e6,
        speedup: atomic_secs / score_secs.max(1e-12),
    }
}

fn main() {
    let args = Args::from_env(&["--threads"]);
    let scalar_iters: u64 = args.pos(0, 20_000_000);
    let vector_iters: u64 = args.pos(1, 200_000);
    let cores = jepo_pool::available_cores();
    let threads = args
        .flag("--threads")
        .unwrap_or_else(|| cores.max(2))
        .max(1);

    // The optimized profile's F32 quantization is the heavier arithmetic
    // path — the conservative choice for measuring accounting overhead.
    let profile = EfficiencyProfile::optimized();
    eprintln!(
        "kernel microbench: {scalar_iters} scalar ops, {vector_iters} dot calls \
         (len {VECTOR_LEN}), 1 vs {threads} thread(s), {cores} core(s)…"
    );

    let mut legs = Vec::new();
    for (name, t) in [
        ("scalar", 1),
        ("scalar", threads),
        ("vector", 1),
        ("vector", threads),
    ] {
        let leg = if name == "scalar" {
            scalar_leg(profile, t, scalar_iters)
        } else {
            vector_leg(profile, t, vector_iters)
        };
        println!(
            "{name:>7} ×{t}: atomic {:>9.2} Mops/s, scoreboard {:>9.2} Mops/s ({:.2}×)",
            leg.atomic_mops, leg.scoreboard_mops, leg.speedup
        );
        legs.push((name, t, leg));
    }

    let scalar_1t_speedup = legs
        .iter()
        .find(|(n, t, _)| *n == "scalar" && *t == 1)
        .map(|(_, _, l)| l.speedup)
        .unwrap_or(0.0);
    if scalar_1t_speedup < 5.0 {
        eprintln!(
            "warning: single-thread scalar speedup {scalar_1t_speedup:.2}× is below the \
             5× target (noisy host or tiny budget?)"
        );
    }

    let rows = legs.iter().map(|(name, threads, leg)| {
        Json::obj([
            ("shape", (*name).into()),
            ("threads", (*threads).into()),
            ("atomic_mops", num(leg.atomic_mops, 2)),
            ("scoreboard_mops", num(leg.scoreboard_mops, 2)),
            ("speedup", num(leg.speedup, 2)),
        ])
    });
    Json::obj([
        ("bench", "kernel".into()),
        ("scalar_iters", scalar_iters.into()),
        ("vector_iters", vector_iters.into()),
        ("vector_len", VECTOR_LEN.into()),
        ("threads", threads.into()),
        ("available_cores", cores.into()),
        ("scalar_1t_speedup", num(scalar_1t_speedup, 2)),
        ("legs", Json::Arr(rows.collect())),
    ])
    .write_artifact("BENCH_kernel.json");
}

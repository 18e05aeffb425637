//! # jepo-bench — benchmark harnesses
//!
//! One binary per paper table (`table1`–`table4`), one for the figures
//! (`figures`), and the ablations (`dimensions`: per-dimension and
//! uniform-cost-model). The [`report`] module gives every bin the same
//! `BENCH_*.json` writer, argument parser and percentiles.
//!
//! Reproduction targets:
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Table I   | `cargo run -p jepo-bench --bin table1 --release` |
//! | Table II  | `cargo run -p jepo-bench --bin table2 --release` |
//! | Table III | `cargo run -p jepo-bench --bin table3 --release` |
//! | Table IV  | `cargo run -p jepo-bench --bin table4 --release` |
//! | Figs 1–5  | `cargo run -p jepo-bench --bin figures --release` |
//!
//! Perf microbenches (not paper artifacts), each writing a
//! `BENCH_*.json`: `kernel` (op accounting), `analyzer` (flow and
//! incremental analysis), `interp` (dispatch engines), `telemetry`
//! (tracing overhead) and `serve` (daemon throughput).

pub mod report;

/// Shared helper: print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a ratio as the paper's "+N%" convention.
pub fn pct_more(ratio: f64) -> String {
    format!("+{:.0}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pct_more_formats_like_the_paper() {
        assert_eq!(super::pct_more(178.0), "+17700%");
        assert_eq!(super::pct_more(17.2), "+1620%");
        assert_eq!(super::pct_more(1.37), "+37%");
    }
}

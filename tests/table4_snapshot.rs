//! Golden pin of Table IV at 400 instances × 4 folds. The text is a
//! function of op counts, the cost model and the seeded protocol alone,
//! so a host-side change (data layout, parallelism, allocation) must
//! leave it byte-identical. The jobs-invariance test in `jepo-core`
//! compares one build with itself; this file compares every build with
//! the recorded text, so drift in op counts or RNG draws fails here.
//!
//! The snapshot is `jepo table4 400 4` stdout. An intentional change to
//! the energy model or a classifier regenerates it with
//! `cargo run -p jepo-cli --release -- table4 400 4 > tests/snapshots/table4_400x4.txt`.

use jepo::core::{report, WekaExperiment};

#[test]
fn table4_400x4_matches_snapshot_at_1_and_2_jobs() {
    let expected = include_str!("snapshots/table4_400x4.txt");
    let exp = WekaExperiment {
        instances: 400,
        folds: 4,
        ..Default::default()
    };
    for jobs in [1, 2] {
        assert_eq!(
            report::table4(&exp.run_all_jobs(jobs)),
            expected,
            "Table IV at --jobs {jobs} drifted from tests/snapshots/table4_400x4.txt"
        );
    }
}

//! The shared `BENCH_*.json` layout, argument parsing and percentiles.

use jepo_bench::report::{median, num, percentile, Args, Json};

#[test]
fn renders_the_artifact_layout_with_escaping_and_fixed_precision() {
    let json = Json::obj([
        ("bench", "demo".into()),
        ("note", "say \"hi\"\\\n\tnow\u{1}".into()),
        ("reps", 7usize.into()),
        ("secs", num(1.0 / 3.0, 3)),
        ("rate", num(12345.678, 0)),
        ("bad", num(f64::NAN, 2)),
        ("ok", true.into()),
        ("tags", Json::Arr(vec!["a".into(), "b".into()])),
        ("none", Json::Arr(vec![])),
        (
            "legs",
            Json::Arr(vec![
                Json::obj([("leg", "cold".into()), ("ms", num(2.5, 2))]),
                Json::obj([("leg", "warm".into()), ("ms", num(0.25, 2))]),
            ]),
        ),
        (
            "inner",
            Json::obj([
                ("x", 1u64.into()),
                ("nested", Json::obj([("y", 2u32.into())])),
            ]),
        ),
        ("empty", Json::obj(Vec::<(String, Json)>::new())),
    ]);
    let expect = r#"{
  "bench": "demo",
  "note": "say \"hi\"\\\n\tnow\u0001",
  "reps": 7,
  "secs": 0.333,
  "rate": 12346,
  "bad": null,
  "ok": true,
  "tags": ["a", "b"],
  "none": [],
  "legs": [
    {"leg": "cold", "ms": 2.50},
    {"leg": "warm", "ms": 0.25}
  ],
  "inner": {
    "x": 1,
    "nested": {
      "y": 2
    }
  },
  "empty": {}
}
"#;
    assert_eq!(json.render(), expect);
}

#[test]
fn args_split_flags_switches_and_positionals() {
    let argv = [
        "600",
        "--jobs",
        "4",
        "--selfcheck",
        "5",
        "--reps",
        "x",
        "--folds",
    ];
    let args = Args::parse(argv.map(String::from), &["--jobs", "--reps", "--folds"]);
    assert_eq!(args.pos(0, 0usize), 600);
    assert_eq!(args.pos(1, 0usize), 5);
    assert_eq!(
        args.pos(2, 9usize),
        9,
        "missing positional takes the default"
    );
    assert_eq!(args.flag::<usize>("--jobs"), Some(4));
    assert_eq!(args.flag::<usize>("--reps"), None, "unparseable value");
    assert_eq!(args.flag::<usize>("--folds"), None, "flag without a value");
    assert!(args.has("--selfcheck"));
    assert!(!args.has("--jobs"));
    let args = Args::parse(["--jobs", "--selfcheck"].map(String::from), &["--jobs"]);
    assert!(
        args.has("--selfcheck"),
        "a switch is never taken as a value"
    );
    assert_eq!(args.pos(0, "J48".to_string()), "J48");
}

#[test]
fn percentile_and_median_are_nearest_rank() {
    assert_eq!(percentile(&[], 50.0), 0.0);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(percentile(&[4.0], 0.0), 4.0);
    assert_eq!(percentile(&[4.0], 100.0), 4.0);
    assert_eq!(median(&[4.0]), 4.0);
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&sorted, 100.0), 10.0);
    assert_eq!(percentile(&sorted, 50.0), 6.0);
    assert_eq!(percentile(&sorted, 95.0), 10.0);
    assert_eq!(percentile(&sorted, 90.0), 9.0);
    // The median is the upper one, `xs[len / 2]` after sorting.
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 3.0);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[2.0, 1.0]), 2.0);
}

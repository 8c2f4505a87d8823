//! Tests of the reporting helpers, the harness and the command line:
//! tables and trial statistics, gate evaluation, the exit code, the JSON
//! shapes and the subcommand table.

use std::time::Duration;

use crate::harness::*;
use crate::report::{fmt_duration, fmt_ops, Series, Table};
use crate::{parse, usage, SUBCOMMANDS};

#[test]
fn table_renders_aligned() {
    let mut t = Table::new("demo", &["a", "bbbb"]);
    t.row(vec!["1".into(), "2".into()]);
    let r = t.render();
    assert!(r.contains("demo"));
    assert!(r.contains("bbbb"));
}

#[test]
#[should_panic(expected = "row arity")]
fn table_rejects_bad_rows() {
    let mut t = Table::new("demo", &["a"]);
    t.row(vec!["1".into(), "2".into()]);
}

#[test]
fn series_statistics() {
    let mut s = Series::new();
    for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
        s.push(ms);
    }
    assert_eq!(s.samples.len(), 5);
    assert_eq!(s.mean(), 22.0);
    assert_eq!(s.median(), 3.0);
    assert_eq!(s.percentile(0.0), 1.0);
    assert_eq!(s.percentile(100.0), 100.0);
}

/// Trial statistics by hand for the trial counts the harness uses
/// (3 quick, 5 full) and the edge cases beside them (1, and an even 4).
#[test]
fn trial_statistics_match_hand_values() {
    let check = |values: &[f64], median: f64, q1: f64, q3: f64| {
        let mut s = Series::new();
        values.iter().for_each(|&v| s.push(v));
        let got = [s.median(), s.quartiles().0, s.quartiles().1];
        for (got, want) in got.into_iter().zip([median, q1, q3]) {
            assert!((got - want).abs() < 1e-12, "{values:?}: got {got}, want {want}");
        }
    };
    check(&[7.0], 7.0, 7.0, 7.0);
    // Unsorted on purpose: the issue's three hot-append pairs.
    check(&[0.32, 1.57, 0.50], 0.50, 0.41, 1.035);
    check(&[4.0, 1.0, 3.0, 2.0], 2.5, 1.75, 3.25);
    check(&[50.0, 10.0, 40.0, 20.0, 30.0], 30.0, 20.0, 40.0);
    assert!(Series::new().median().is_nan());
}

#[test]
fn formatting() {
    assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
    assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
    assert_eq!(fmt_ops(2_500_000.0), "2.50 Mops/s");
    assert_eq!(fmt_ops(1_500.0), "1.5 Kops/s");
}

fn series(values: &[f64]) -> Series {
    let mut s = Series::new();
    values.iter().for_each(|&v| s.push(v));
    s
}

/// The parent took the best of its pairs, so these three passed `>= 0.9`
/// at 1.57; on the median they fail, and the exit code says so.
#[test]
fn gate_is_judged_on_the_median_not_the_best_trial() {
    let v = judge("ratio", ">=", 0.9, &series(&[0.32, 1.57, 0.50]));
    assert_eq!((v.median, v.bound, v.pass), (0.50, 0.9, false));
    assert_eq!(exit_code(&[v]), 1);
    let v = judge("ratio", ">=", 0.9, &series(&[0.95, 0.89, 1.02]));
    assert!(v.pass);
    assert_eq!(exit_code(&[v]), 0);
    assert_eq!(exit_code(&[]), 0);
}

#[test]
fn operators_are_strict_where_they_say_and_an_empty_series_fails() {
    let pass = |op, value, bound| judge("m", op, bound, &series(&[value])).pass;
    assert!(pass(">=", 2.0, 2.0) && !pass(">", 2.0, 2.0));
    assert!(pass("<", 9.9, 10.0) && !pass("<", 10.0, 10.0));
    assert!(pass("==", 0.0, 0.0) && !pass("==", 1.0, 0.0));
    // A metric that was never recorded cannot pass its gate.
    let none = Series::new();
    assert!(GATES.iter().all(|&(_, metric, op, quick, _)| !judge(metric, op, quick, &none).pass));
}

#[test]
fn gate_bounds_follow_the_mode() {
    let scaling = |quick| {
        let mut r = Report::new("datapath", quick);
        r.record("scaling_4x_over_1x", "x", MODELLED, 1.7);
        r.verdicts().pop().unwrap()
    };
    assert_eq!((scaling(true).bound, scaling(true).pass), (1.5, true));
    assert_eq!((scaling(false).bound, scaling(false).pass), (2.0, false));
    assert_eq!((Report::new("fanout", true).trials, Report::new("fanout", false).trials), (3, 5));
}

#[test]
fn report_judges_its_own_gates_and_fails_a_missing_metric() {
    let mut r = Report::new("tiering", true);
    for ratio in [0.32, 1.57, 0.50] {
        r.record("hot_append_ratio", "x", WALL, ratio);
    }
    let verdicts = r.verdicts();
    assert_eq!(verdicts.len(), 2, "tiering has two gates");
    assert!(verdicts.iter().all(|v| !v.pass), "median 0.50 and a missing metric both fail");
    assert_eq!(exit_code(&verdicts), 1);
    let json = r.to_json(Some("abc1234")).render();
    assert!(json.contains(r#""commit": "abc1234""#), "{json}");
    assert!(json.contains(r#""mode": "quick""#), "{json}");
    let stats = r#""clock": "wall", "unit": "x", "trials": 3, "median": 0.5, "q1": 0.41, "q3": 1.035"#;
    assert!(json.contains(stats), "{json}");
    assert!(json.contains(r#""values": [0.32, 1.57, 0.5]"#), "{json}");
    assert!(json.contains(r#""pass": false"#) && !json.contains(r#""pass": true"#), "{json}");
    assert!(r.summary().render().contains("FAILED"));
}

#[test]
fn every_gate_belongs_to_a_feature_subcommand() {
    for (bench, ..) in GATES {
        assert!(SUBCOMMANDS.iter().any(|s| s.name == *bench), "{bench} is not a subcommand");
    }
}

/// Splits one flat JSON object line into (key, raw value) pairs.
fn fields(line: &str) -> Vec<(String, String)> {
    let inner = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')).expect("one object");
    inner
        .split(", \"")
        .map(|pair| {
            let (k, v) = pair.split_once("\": ").expect("key: value");
            (k.trim_start_matches('"').to_string(), v.to_string())
        })
        .collect()
}

#[test]
fn history_line_round_trips_its_fields() {
    let mut r = Report::new("datapath", false);
    for v in [3.5, 3.7, 3.6, 3.9, 3.4] {
        r.record("scaling_4x_over_1x", "x", MODELLED, v);
    }
    let lines = r.history_lines(Some("e09a621"));
    assert_eq!(lines.len(), 1);
    assert!(!lines[0].contains('\n'), "one line per metric");
    let expected = [
        ("commit", "\"e09a621\""),
        ("source", "\"flexlog-bench\""),
        ("bench", "\"datapath\""),
        ("metric", "\"scaling_4x_over_1x\""),
        ("clock", "\"modelled\""),
        ("unit", "\"x\""),
        ("trials", "5"),
        ("median", "3.6"),
        ("q1", "3.5"),
        ("q3", "3.7"),
    ];
    let got = fields(&lines[0]);
    assert_eq!(got.len(), expected.len());
    for ((k, v), (ek, ev)) in got.iter().zip(expected) {
        assert_eq!((k.as_str(), v.as_str()), (ek, ev));
    }
    // Without --commit the field is null, not absent.
    assert!(r.history_lines(None)[0].starts_with("{\"commit\": null, "));
}

fn argv(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

#[test]
fn every_subcommand_dispatches_and_is_listed() {
    let help = usage();
    for (i, s) in SUBCOMMANDS.iter().enumerate() {
        let (found, args) = parse(&argv(&[s.name, "--quick"])).expect(s.name);
        assert!(std::ptr::eq(found, s), "{} dispatched to {}", s.name, found.name);
        assert!(args.quick && args.out.is_none());
        let line = format!("  {:<11} {}\n", s.name, s.about);
        assert!(help.contains(&line), "{} missing from --help", s.name);
        let earlier = &SUBCOMMANDS[..i];
        assert!(earlier.iter().all(|other| other.name != s.name), "{} listed twice", s.name);
    }
}

#[test]
fn command_line_errors_are_reported_not_guessed() {
    let err = |words: &[&str]| parse(&argv(words)).err().expect("must be rejected");
    assert_eq!(err(&["fig12"]), "unknown subcommand `fig12`");
    assert_eq!(err(&[]), "missing subcommand");
    assert_eq!(err(&["fig1", "--fast"]), "unknown argument `--fast`");
    assert_eq!(err(&["tiering", "--out"]), "--out needs a value");
    let (_, args) = parse(&argv(&[
        "tiering", "--out", "o.json", "--history", "h.jsonl", "--commit", "abc",
    ]))
    .unwrap();
    assert_eq!(
        (args.quick, args.out.as_deref(), args.history.as_deref(), args.commit.as_deref()),
        (false, Some("o.json"), Some("h.jsonl"), Some("abc"))
    );
}

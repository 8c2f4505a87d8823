//! The one JSON writer: escaping, non-finite numbers, nesting, key order,
//! and the metrics report that is rendered through it.

use flexlog_obs::{Json, Registry};

#[test]
fn strings_are_escaped() {
    let s = Json::from("say \"hi\" \\ back\nnext\ttab\u{1}\u{1f}é");
    assert_eq!(s.render(), r#""say \"hi\" \\ back\nnext\u0009tab\u0001\u001fé""#);
    // Keys go through the same escaping as values.
    assert_eq!(Json::obj([("a\"b", Json::Null)]).render(), r#"{"a\"b": null}"#);
}

#[test]
fn non_finite_numbers_render_as_null() {
    let v = Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.25, 3.0]);
    assert_eq!(v.render(), "[null, null, null, 1.5, -0.25, 3]");
}

#[test]
fn integers_keep_their_full_range() {
    let v = Json::arr([Json::from(u64::MAX), Json::from(i64::MIN), Json::from(true)]);
    assert_eq!(v.render(), "[18446744073709551615, -9223372036854775808, true]");
}

#[test]
fn objects_keep_insertion_order_and_flat_ones_stay_on_one_line() {
    let line = Json::obj([("zeta", 1u64.into()), ("alpha", "x".into()), ("mid", Json::Null)]);
    assert_eq!(line.render(), r#"{"zeta": 1, "alpha": "x", "mid": null}"#);
    assert_eq!(Json::obj::<&str>([]).render(), "{}");
    assert_eq!(Json::arr::<u64>([]).render(), "[]");
}

#[test]
fn nested_containers_indent_one_child_per_line() {
    let metric = Json::obj([("median", 2.5.into()), ("values", Json::arr([2.0, 2.5, 3.0]))]);
    let v = Json::obj([
        ("bench", "demo".into()),
        ("metrics", Json::obj([("m", metric)])),
        ("gates", Json::arr([Json::obj([("pass", true.into())]), Json::obj::<&str>([])])),
        ("pairs", Json::arr([Json::arr([1u64, 2]), Json::arr::<u64>([])])),
    ]);
    let expected = r#"{
  "bench": "demo",
  "metrics": {
    "m": {"median": 2.5, "values": [2, 2.5, 3]}
  },
  "gates": [
    {"pass": true},
    {}
  ],
  "pairs": [[1, 2], []]
}"#;
    assert_eq!(v.render(), expected);
}

#[test]
fn metrics_report_renders_through_the_writer() {
    let r = Registry::new();
    r.counter("net.sent").add(9);
    r.counter("a \"quoted\" name").add(1);
    r.gauge("pm.live").set(-3);
    r.histogram("lat").record(100);
    let json = r.snapshot().render_json();
    assert!(json.contains("\"net.sent\": 9"), "{json}");
    assert!(json.contains("\"pm.live\": -3"), "{json}");
    assert!(json.contains("\"p99_ns\""), "{json}");
    assert!(json.contains(r#""a \"quoted\" name": 1"#), "{json}");
    // Sections in a fixed order, metrics in name order within each.
    let at = |needle: &str| json.find(needle).unwrap_or_else(|| panic!("{needle} missing: {json}"));
    assert!(at("\"counters\"") < at("\"gauges\"") && at("\"gauges\"") < at("\"histograms\""));
    assert!(at("a \\\"quoted") < at("net.sent"));
    assert!(json.ends_with("}\n"));
}

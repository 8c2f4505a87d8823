//! Named metrics and the result line.

/// One reported value. Names follow `<layer>.<what>_<unit suffix>`.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// The unit is read off the name, so a name cannot disagree with it.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        let name = name.into();
        let unit = unit_of(&name);
        // JSON has no NaN or infinity; a ratio without a base reports 0.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// Unit of a metric, from the unit suffix of its name (ignoring a trailing
/// `_per_rec` / `_per_append` and a `.<span name>` tail).
fn unit_of(name: &str) -> &'static str {
    let stem = name
        .trim_end_matches("_per_rec")
        .trim_end_matches("_per_append");
    let stem = match stem.find("_pct.") {
        Some(at) => &stem[..at + 4],
        None => stem,
    };
    [
        ("_per_s", "1/s"),
        ("_s", "s"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_ns", "ns"),
        ("_mb", "MiB"),
        ("_pct", "%"),
        ("_ops", "1/s"),
        ("_rps", "1/s"),
    ]
    .iter()
    .find(|(suffix, _)| stem.ends_with(suffix))
    .map_or("count", |&(_, unit)| unit)
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

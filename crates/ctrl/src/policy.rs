//! The control loop's policy: one declarative rule set for scaling and
//! tiering.
//!
//! A list of rules, each a conjunction of [`Condition`]s guarding one
//! [`Action`], that an operator can read, diff, and reason about. The
//! [`crate::ControlLoop`] evaluates the policy against per-color
//! [`Observation`]s (diffed from the shared metrics registry and read
//! from the replicas' storage) and actuates the matches through the
//! [`crate::ControlPlane`].
//!
//! Grammar (one rule per line, `#` comments). Per color, the first rule
//! whose conditions hold and whose action can run wins: a `scale_out` of a
//! color that shares no shard, or a `split` of a leaf that owns one color,
//! falls through to the color's next matching rule.
//!
//! ```text
//! rule   := "when" cond ( "&&" cond )* "then" action
//! cond   := "pm_pressure" ">" FLOAT        # pm_live_bytes / pm_capacity
//!         | "span" ">=" INT                # live (PM+SSD) records of the color
//!         | "ssd_resident" ">=" INT        # records already demoted to SSD
//!         | "idle_ms" ">=" INT             # since the color was last read *or* appended
//!         | "age_ms" ">=" INT              # since the color was last appended
//!         | "rate" ">=" FLOAT              # appends/s over the observation window
//!         | "batch_wait_p99_us" ">=" INT   # sequencer batch-wait p99 (global)
//! action := "archive" [ "keep=" INT ] [ "max=" INT ]   # seal+upload, then drop
//!         | "demote"  [ "max=" INT ]                   # PM -> SSD, stay live
//!         | "scale_out"                    # a new shard, then migrate the color onto it
//!         | "split"                        # split the color's leaf
//! ```
//!
//! Example — the tiering default ([`Policy::recommended`]):
//!
//! ```text
//! # Under PM pressure, push any sizable cold span down to the archive.
//! when pm_pressure > 0.5 && age_ms >= 50 && span >= 256 then archive keep=64 max=4096
//! # Long-idle colors drain to the archive even without pressure.
//! when idle_ms >= 1000 && span >= 128 then archive keep=32 max=4096
//! # Appended-but-unread colors get demoted out of PM early.
//! when age_ms >= 200 && span >= 64 then demote max=1024
//! ```
//!
//! Example — scaling rules:
//!
//! ```text
//! # A hot color that shares its shard gets a shard of its own.
//! when rate >= 5000 then scale_out
//! # A congested sequencer hands half of a leaf's colors to a new leaf.
//! when batch_wait_p99_us >= 200 then split
//! ```

use std::fmt;
use std::time::Duration;

use flexlog_types::ColorId;

/// One measurable predicate over a color's observed state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Condition {
    /// `pm_live_bytes / pm_capacity` on the hosting shard exceeds this.
    PmPressureAbove(f64),
    /// The color holds at least this many live (PM+SSD) records.
    SpanAtLeast(u64),
    /// At least this many of the color's records already sit on SSD.
    SsdResidentAtLeast(u64),
    /// No read or append for at least this long.
    IdleFor(Duration),
    /// No append for at least this long (reads don't reset it).
    AgeAtLeast(Duration),
    /// At least this many appends per second over the observation window.
    RateAtLeast(f64),
    /// The sequencers' batch-wait p99 is at least this long.
    BatchWaitAtLeast(Duration),
}

impl Condition {
    pub fn matches(&self, obs: &Observation) -> bool {
        match *self {
            Condition::PmPressureAbove(r) => obs.pm_pressure > r,
            Condition::SpanAtLeast(n) => obs.live_records >= n,
            Condition::SsdResidentAtLeast(n) => obs.ssd_resident >= n,
            Condition::IdleFor(d) => obs.idle >= d,
            Condition::AgeAtLeast(d) => obs.age >= d,
            Condition::RateAtLeast(r) => obs.rate >= r,
            Condition::BatchWaitAtLeast(d) => obs.batch_wait_p99 >= d,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::PmPressureAbove(r) => write!(f, "pm_pressure > {r}"),
            Condition::SpanAtLeast(n) => write!(f, "span >= {n}"),
            Condition::SsdResidentAtLeast(n) => write!(f, "ssd_resident >= {n}"),
            Condition::IdleFor(d) => write!(f, "idle_ms >= {}", d.as_millis()),
            Condition::AgeAtLeast(d) => write!(f, "age_ms >= {}", d.as_millis()),
            Condition::RateAtLeast(r) => write!(f, "rate >= {r}"),
            Condition::BatchWaitAtLeast(d) => write!(f, "batch_wait_p99_us >= {}", d.as_micros()),
        }
    }
}

/// What to do with a color whose conditions all match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Seal the cold prefix into segments, upload, then release PM/SSD
    /// bytes — keeping the newest `keep_tail` records hot and moving at
    /// most `max_records` per round.
    Archive { keep_tail: u64, max_records: u64 },
    /// Copy at most `max_records` of the color's oldest PM-resident
    /// records down to SSD (they stay live and readable).
    Demote { max_records: u64 },
    /// Add a shard under the leaf of a shard the color shares with
    /// another color, then migrate the color onto it. Skipped when the
    /// color shares no shard.
    ScaleOut,
    /// Split the color's owning leaf, moving the later half of its colors
    /// to a new leaf. Skipped when that leaf owns fewer than 2 colors.
    Split,
}

/// Every action's verb, indexed by [`Action::kind`].
pub(crate) const VERBS: [&str; 4] = ["archive", "demote", "scale_out", "split"];

impl Action {
    /// The action's index in [`VERBS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Action::Archive { .. } => 0,
            Action::Demote { .. } => 1,
            Action::ScaleOut => 2,
            Action::Split => 3,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", VERBS[self.kind()])?;
        match self {
            Action::Archive {
                keep_tail,
                max_records,
            } => write!(f, " keep={keep_tail} max={max_records}"),
            Action::Demote { max_records } => write!(f, " max={max_records}"),
            Action::ScaleOut | Action::Split => Ok(()),
        }
    }
}

/// `when <conds…> then <action>`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub when: Vec<Condition>,
    pub action: Action,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "when ")?;
        for (i, c) in self.when.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " then {}", self.action)
    }
}

/// What the control loop knows about one color when it evaluates the
/// policy. Rates and clocks come from the shared metrics registry
/// (`seq.color_sns.*` and `storage.color_reads.*` diffs, the
/// `seq.batch_wait_ns` histogram), residency from the replicas' storage.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    pub color: ColorId,
    /// Live (PM + SSD) records the color holds on its shard.
    pub live_records: u64,
    /// How many of those are already SSD-resident.
    pub ssd_resident: u64,
    /// `pm_live_bytes / pm_capacity` of the hosting shard.
    pub pm_pressure: f64,
    /// Time since the color was last read or appended.
    pub idle: Duration,
    /// Time since the color was last appended.
    pub age: Duration,
    /// Appends per second over the observation window.
    pub rate: f64,
    /// The sequencers' batch-wait p99; the same for every color.
    pub batch_wait_p99: Duration,
}

/// Parse failure: line number (1-based) and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyParseError {}

/// An ordered rule list; per color, the first matching rule whose action
/// can run wins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Policy {
    pub rules: Vec<Rule>,
}

impl Policy {
    /// The shipped tiering default (see the module docs for the source
    /// text).
    pub fn recommended() -> Self {
        Policy {
            rules: vec![
                Rule {
                    when: vec![
                        Condition::PmPressureAbove(0.5),
                        Condition::AgeAtLeast(Duration::from_millis(50)),
                        Condition::SpanAtLeast(256),
                    ],
                    action: Action::Archive {
                        keep_tail: 64,
                        max_records: 4096,
                    },
                },
                Rule {
                    when: vec![
                        Condition::IdleFor(Duration::from_millis(1000)),
                        Condition::SpanAtLeast(128),
                    ],
                    action: Action::Archive {
                        keep_tail: 32,
                        max_records: 4096,
                    },
                },
                Rule {
                    when: vec![
                        Condition::AgeAtLeast(Duration::from_millis(200)),
                        Condition::SpanAtLeast(64),
                    ],
                    action: Action::Demote { max_records: 1024 },
                },
            ],
        }
    }

    /// Parses the policy grammar (module docs). Empty input is a valid
    /// policy that never does anything.
    pub fn parse(text: &str) -> Result<Self, PolicyParseError> {
        let mut rules = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            rules.push(parse_rule(line).map_err(|message| PolicyParseError {
                line: idx + 1,
                message,
            })?);
        }
        Ok(Policy { rules })
    }

    /// Evaluates every observation: at most one match per color, its first
    /// rule whose conditions hold and whose action `can_run` on it, as
    /// `(rule index, observation)` in observation order.
    pub fn evaluate<'o>(
        &self,
        observations: &'o [Observation],
        can_run: impl Fn(Action, ColorId) -> bool,
    ) -> Vec<(usize, &'o Observation)> {
        let matches = |r: &Rule, obs: &Observation| r.when.iter().all(|c| c.matches(obs));
        observations
            .iter()
            .filter_map(|obs| {
                let mut rules = self.rules.iter();
                let rule = rules.position(|r| matches(r, obs) && can_run(r.action, obs.color));
                rule.map(|i| (i, obs))
            })
            .collect()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

fn parse_rule(line: &str) -> Result<Rule, String> {
    let rest = line
        .strip_prefix("when")
        .ok_or_else(|| "rule must start with 'when'".to_string())?;
    let (conds, action) = rest
        .split_once("then")
        .ok_or_else(|| "missing 'then'".to_string())?;
    let when: Vec<Condition> = conds
        .split("&&")
        .map(|c| parse_condition(c.trim()))
        .collect::<Result<_, _>>()?;
    if when.is_empty() {
        return Err("at least one condition required".to_string());
    }
    Ok(Rule {
        when,
        action: parse_action(action.trim())?,
    })
}

fn parse_condition(cond: &str) -> Result<Condition, String> {
    let mut parts = cond.split_whitespace();
    let (field, op, value) = (
        parts.next().ok_or("empty condition")?,
        parts.next().ok_or_else(|| format!("condition '{cond}': missing operator"))?,
        parts.next().ok_or_else(|| format!("condition '{cond}': missing value"))?,
    );
    if parts.next().is_some() {
        return Err(format!("condition '{cond}': trailing tokens"));
    }
    let int = |v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("condition '{cond}': '{v}' is not an integer"))
    };
    let float = |v: &str| {
        v.parse::<f64>()
            .map_err(|_| format!("condition '{cond}': '{v}' is not a number"))
    };
    match (field, op) {
        ("pm_pressure", ">") => float(value).map(Condition::PmPressureAbove),
        ("span", ">=") => int(value).map(Condition::SpanAtLeast),
        ("ssd_resident", ">=") => int(value).map(Condition::SsdResidentAtLeast),
        ("idle_ms", ">=") => int(value).map(|ms| Condition::IdleFor(Duration::from_millis(ms))),
        ("age_ms", ">=") => int(value).map(|ms| Condition::AgeAtLeast(Duration::from_millis(ms))),
        ("rate", ">=") => float(value).map(Condition::RateAtLeast),
        ("batch_wait_p99_us", ">=") => {
            int(value).map(|us| Condition::BatchWaitAtLeast(Duration::from_micros(us)))
        }
        _ => Err(format!(
            "condition '{cond}': unknown field/operator '{field} {op}'"
        )),
    }
}

fn parse_action(action: &str) -> Result<Action, String> {
    let mut parts = action.split_whitespace();
    let verb = parts.next().ok_or("missing action")?;
    let mut keep_tail = 0u64;
    let mut max_records = u64::MAX;
    let mut bare = true;
    for p in parts {
        bare = false;
        if let Some(v) = p.strip_prefix("keep=") {
            keep_tail = v
                .parse()
                .map_err(|_| format!("action '{action}': bad keep= value"))?;
        } else if let Some(v) = p.strip_prefix("max=") {
            max_records = v
                .parse()
                .map_err(|_| format!("action '{action}': bad max= value"))?;
        } else {
            return Err(format!("action '{action}': unknown token '{p}'"));
        }
    }
    match verb {
        "archive" => Ok(Action::Archive {
            keep_tail,
            max_records,
        }),
        "demote" => Ok(Action::Demote { max_records }),
        "scale_out" if bare => Ok(Action::ScaleOut),
        "split" if bare => Ok(Action::Split),
        "scale_out" | "split" => Err(format!("action '{action}': '{verb}' takes no parameters")),
        _ => Err(format!("unknown action '{verb}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(color: u32) -> Observation {
        Observation {
            color: ColorId(color),
            live_records: 0,
            ssd_resident: 0,
            pm_pressure: 0.0,
            idle: Duration::ZERO,
            age: Duration::ZERO,
            rate: 0.0,
            batch_wait_p99: Duration::ZERO,
        }
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let text = "\
# push cold spans down
when pm_pressure > 0.5 && age_ms >= 50 && span >= 256 then archive keep=64 max=4096
when idle_ms >= 1000 && span >= 128 then archive keep=32 max=4096
when age_ms >= 200 && span >= 64 then demote max=1024
";
        let policy = Policy::parse(text).unwrap();
        assert_eq!(policy, Policy::recommended());
        let reparsed = Policy::parse(&policy.to_string()).unwrap();
        assert_eq!(reparsed, policy);

        let scaling = "\
when rate >= 5000 then scale_out
when rate >= 0.5 && batch_wait_p99_us >= 200 then split
";
        let policy = Policy::parse(scaling).unwrap();
        assert_eq!(
            policy.rules,
            vec![
                Rule {
                    when: vec![Condition::RateAtLeast(5000.0)],
                    action: Action::ScaleOut,
                },
                Rule {
                    when: vec![
                        Condition::RateAtLeast(0.5),
                        Condition::BatchWaitAtLeast(Duration::from_micros(200)),
                    ],
                    action: Action::Split,
                },
            ]
        );
        assert_eq!(policy.to_string(), scaling);
        assert!(Policy::parse("when span >= 1 then split max=4").is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Policy::parse("when span >= 10 then archive\nwhat now").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Policy::parse("when span > 10 then archive").unwrap_err();
        assert!(err.message.contains("unknown field/operator"), "{err}");
        let err = Policy::parse("when span >= 10 then shred").unwrap_err();
        assert!(err.message.contains("unknown action"), "{err}");
        let err = Policy::parse("when then archive").unwrap_err();
        assert!(err.message.contains("empty condition"), "{err}");
    }

    #[test]
    fn first_matching_rule_wins_and_conditions_are_anded() {
        let policy = Policy::parse(
            "when span >= 100 && idle_ms >= 50 then archive keep=8\n\
             when span >= 100 then demote max=16\n",
        )
        .unwrap();

        let mut hot = obs(1);
        hot.live_records = 200;
        hot.idle = Duration::from_millis(10); // fails rule 1, matches rule 2
        let mut cold = obs(2);
        cold.live_records = 200;
        cold.idle = Duration::from_millis(80); // matches rule 1
        let small = obs(3); // matches nothing

        let observations = [hot, cold, small];
        let moves: Vec<(ColorId, Action)> = policy
            .evaluate(&observations, |_, _| true)
            .into_iter()
            .map(|(rule, o)| (o.color, policy.rules[rule].action))
            .collect();
        assert_eq!(
            moves,
            vec![
                (ColorId(1), Action::Demote { max_records: 16 }),
                (
                    ColorId(2),
                    Action::Archive {
                        keep_tail: 8,
                        max_records: u64::MAX,
                    },
                ),
            ]
        );
    }

    #[test]
    fn pm_pressure_is_strict_greater() {
        let policy = Policy::parse("when pm_pressure > 0.5 then demote").unwrap();
        let mut at = obs(1);
        at.pm_pressure = 0.5;
        assert!(policy.evaluate(&[at], |_, _| true).is_empty());
        at.pm_pressure = 0.51;
        assert_eq!(policy.evaluate(&[at], |_, _| true).len(), 1);
    }

    #[test]
    fn empty_policy_moves_nothing() {
        let policy = Policy::parse("# only comments\n\n").unwrap();
        let mut o = obs(1);
        o.live_records = u64::MAX;
        o.pm_pressure = 1.0;
        o.idle = Duration::from_secs(3600);
        o.age = Duration::from_secs(3600);
        o.rate = f64::MAX;
        o.batch_wait_p99 = Duration::from_secs(3600);
        assert!(policy.evaluate(&[o], |_, _| true).is_empty());
    }
}

//! The workspace's one JSON emitter: a small value tree with a renderer.
//!
//! No serde in-tree, so everything that writes JSON — the metrics report,
//! the bench harness's `BENCH_*.json` and history lines — builds a [`Json`]
//! and calls [`Json::render`]. Objects keep insertion order, strings are
//! escaped, and a non-finite number renders as `null` (JSON has no NaN).

/// A JSON value. Build scalars with `.into()`, containers with
/// [`Json::obj`] / [`Json::arr`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(u64 => Int, i64 => Int, f64 => Num, &str => Str, String => Str, bool => Bool);

impl Json {
    /// An object whose keys render in the order given.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value. A container whose children are scalars or arrays
    /// of scalars stays on one line (so a flat object is one JSONL line);
    /// any other puts each child on its own line, indented two spaces per
    /// level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Scalars and arrays of scalars: what a one-line container may hold.
    fn fits_inline(&self) -> bool {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Arr(items) => items.iter().all(scalar),
            other => scalar(other),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, entries): (_, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Num(n) if n.is_finite() => return out.push_str(&n.to_string()),
            Json::Null | Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => {
                (['{', '}'], pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let flat = entries.iter().all(|(_, v)| v.fits_inline());
        let newline = |depth| if flat { String::new() } else { format!("\n{:1$}", "", 2 * depth) };
        out.push(brackets[0]);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(if flat { ", " } else { "," });
            }
            out.push_str(&newline(depth + 1));
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !entries.is_empty() {
            out.push_str(&newline(depth));
        }
        out.push(brackets[1]);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

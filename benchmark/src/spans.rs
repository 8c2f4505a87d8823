//! Benchmark-side spans: one root span per operation and a child span
//! around each public call the generator makes on its behalf. Spans live
//! in a pre-sized per-caller buffer and are written out after the run;
//! nothing here reaches into the crates under test.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Spans one caller may keep; recording stops (and `dropped` counts) beyond
/// it, so the buffer never reallocates inside the timed window.
const SPANS_PER_CALLER: usize = 100_000;

/// Handle of an open span; [`NO_SPAN`] when recording is off or full.
pub type SpanRef = usize;
pub const NO_SPAN: SpanRef = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: SpanRef,
    /// Operation id the span belongs to (spans of one op share it).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One caller's span buffer.
pub struct SpanBuf {
    caller: usize,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    /// `traced` pre-sizes the buffer; an untraced run allocates nothing.
    pub fn new(caller: usize, traced: bool) -> Self {
        SpanBuf {
            caller,
            spans: Vec::with_capacity(if traced { SPANS_PER_CALLER } else { 0 }),
            dropped: 0,
        }
    }

    /// Opens a span at `now_ns` when `on`; otherwise a no-op.
    #[inline]
    pub fn open(
        &mut self,
        on: bool,
        name: &'static str,
        parent: SpanRef,
        op: u64,
        now_ns: u64,
    ) -> SpanRef {
        if !on {
            return NO_SPAN;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.spans.len() - 1
    }

    #[inline]
    pub fn close(&mut self, span: SpanRef, now_ns: u64) {
        if span != NO_SPAN {
            self.spans[span].end_ns = now_ns;
        }
    }
}

/// Self time per span name, as a share of the summed root-span durations:
/// a span's self time is its duration minus its children's.
pub fn self_time_shares(bufs: &[SpanBuf]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut roots_ns = 0.0;
    for buf in bufs {
        let mut children = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if s.parent != NO_SPAN {
                children[s.parent] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in buf.spans.iter().zip(children) {
            let dur = s.end_ns - s.start_ns;
            if s.parent == NO_SPAN {
                roots_ns += dur as f64;
            }
            *self_ns.entry(s.name).or_default() += dur.saturating_sub(kids) as f64;
        }
    }
    self_ns
        .into_iter()
        .map(|(name, ns)| (name, crate::stats::ratio(100.0 * ns, roots_ns)))
        .collect()
}

/// Writes every span as one JSON object per line; returns lines written.
pub fn write_jsonl(path: &Path, workload: &str, bufs: &[SpanBuf]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut lines = 0;
    for buf in bufs {
        let id = |i: SpanRef| format!("c{}-{}", buf.caller, i);
        for (i, s) in buf.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                format!("\"{}\"", id(s.parent))
            };
            writeln!(
                out,
                "{{\"id\":\"{}\",\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"caller\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                id(i), parent, s.name, workload, buf.caller, s.op, s.start_ns, s.end_ns
            )?;
            lines += 1;
        }
    }
    out.flush()?;
    Ok(lines)
}

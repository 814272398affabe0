//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary,
//! after the fact (start and end are already known), kept in memory and
//! written out as JSON lines when the run ends. A layer's self time is
//! its span's duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// A work count carried by the span (Stage 3's per-worker wedge
    /// visits), if any.
    pub count: Option<u64>,
}

/// Per-thread span buffer. A disabled tracer records nothing and
/// returns dummy ids, so untraced runs pay one branch per boundary.
pub struct Tracer {
    enabled: bool,
    /// High bits of every id this tracer hands out (one per thread), so
    /// buffers merge without renumbering.
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, thread: u64) -> Tracer {
        Tracer {
            enabled,
            id_base: thread << 40,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id_base | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
            count: None,
        });
        id
    }

    /// Records a zero-length span at `at` carrying a work count.
    pub fn record_count(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        at: Instant,
        count: u64,
    ) {
        if self.enabled {
            self.record(name, op, parent, at, at);
            if let Some(span) = self.spans.last_mut() {
                span.count = Some(count);
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in seconds: its duration minus the union of
/// its children's intervals.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(a, s.end);
                covered += (b - a).as_secs_f64();
                cursor = cursor.max(b);
            }
            ((s.end - s.start).as_secs_f64() - covered).max(0.0)
        })
        .collect()
}

/// Per-layer summary: `(name, spans, mean self ms, total self ms)`,
/// sorted by total self time, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, total))| (name, n, total * 1e3 / n as f64, total * 1e3))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Writes every span as one JSON line (times in µs from `origin`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], origin: Instant) -> Result<(), String> {
    let err = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    let micros = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let count = s.count.map_or("null".to_string(), |c| c.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"count\":{count}}}",
            s.id,
            s.op,
            s.name,
            micros(s.start),
            micros(s.end)
        )
        .map_err(err)?;
    }
    out.flush().map_err(err)
}

//! What a workload hands back, and how it is printed.

use crate::phase::Phase;
use crate::stats::{median, tail};
use hyperline_server::json::Json;
use std::time::Duration;

/// One per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Where the number comes from, or why it reads as it does.
    pub note: String,
}

impl Layer {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Layer {
        Layer {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// A finished workload run: one process, or several merged.
pub struct Report {
    /// Set-up seconds, one entry per process.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase: every end-to-end metric comes from it.
    pub phase: Phase,
    /// The traced timed phase (`--trace 1` only).
    pub traced: Option<Phase>,
    /// `VmHWM` after the untraced phase, reset after set-up; one entry
    /// per process.
    pub peak_rss_mb: Vec<f64>,
    /// RSS when `VmHWM` was reset (what set-up left resident), one entry
    /// per process.
    pub rss_at_reset: Vec<f64>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Vec<Layer>,
    /// Self time per span name of the traced phase.
    pub self_times: Vec<(&'static str, usize, f64, f64)>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    pub fn attempted(&self) -> u64 {
        self.phase.attempted + self.traced.as_ref().map_or(0, |p| p.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.phase.failed + self.traced.as_ref().map_or(0, |p| p.failed)
    }

    /// The end-to-end metrics: `(name, value, unit, note)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, String)> {
        let t = tail(&self.phase.latencies_ms);
        vec![
            (
                "setup_s",
                median(&self.setup_s),
                "s",
                format!(
                    "median of {} processes' set-ups: {:?}",
                    self.setup_s.len(),
                    rounded(&self.setup_s)
                ),
            ),
            (
                "p50_ms",
                median(&self.phase.latencies_ms),
                "ms",
                format!("n={}", t.n),
            ),
            (
                "tail_ms",
                t.value,
                "ms",
                format!(
                    "p{:.1} of n={} (highest percentile with >=10 samples above)",
                    t.percentile, t.n
                ),
            ),
            (
                "ops_per_s",
                self.phase.ops_per_s,
                "1/s",
                "closed loop".to_string(),
            ),
            (
                "peak_rss_mb",
                mean(&self.peak_rss_mb),
                "MiB",
                format!(
                    "mean over processes of VmHWM after the timed phase: {:?}, reset after set-up at RSS {:?}",
                    rounded(&self.peak_rss_mb),
                    rounded(&self.rss_at_reset)
                ),
            ),
        ]
    }

    /// The untraced results of one process, for [`Report::from_json`].
    pub fn to_json(&self) -> String {
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Float(x)).collect());
        Json::obj()
            .set("setup_s", floats(&self.setup_s))
            .set("peak_rss_mb", floats(&self.peak_rss_mb))
            .set("rss_at_reset", floats(&self.rss_at_reset))
            .set("latencies_ms", floats(&self.phase.latencies_ms))
            .set("ops_per_s", self.phase.ops_per_s)
            .set("attempted", self.phase.attempted)
            .set("failed", self.phase.failed)
            .set(
                "errors",
                Json::Arr(
                    self.phase
                        .errors
                        .iter()
                        .map(|e| Json::from(e.as_str()))
                        .collect(),
                ),
            )
            .set("cpu_s", self.phase.cpu.as_secs_f64())
            .render()
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let json = Json::parse(text)?;
        let field = |key: &str| json.get(key).ok_or(format!("segment lacks {key:?}"));
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            field(key)?
                .as_array()
                .ok_or(format!("{key:?} is not an array"))?
                .iter()
                .map(|j| json_number(j).ok_or(format!("non-number in {key:?}")))
                .collect()
        };
        let num = |key: &str| {
            field(key).and_then(|j| json_number(j).ok_or(format!("{key:?} is not a number")))
        };
        let errors = field("errors")?
            .as_array()
            .ok_or("\"errors\" is not an array")?
            .iter()
            .map(|e| e.as_str().unwrap_or("?").to_string())
            .collect();
        Ok(Report {
            setup_s: floats("setup_s")?,
            peak_rss_mb: floats("peak_rss_mb")?,
            rss_at_reset: floats("rss_at_reset")?,
            phase: Phase {
                latencies_ms: floats("latencies_ms")?,
                ops_per_s: num("ops_per_s")?,
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                errors,
                spans: Vec::new(),
                cpu: Duration::from_secs_f64(num("cpu_s")?),
            },
            traced: None,
            layers: Vec::new(),
            self_times: Vec::new(),
            notes: Vec::new(),
        })
    }

    /// Folds another process's untraced results into this one. Each
    /// process ran the same share of the time, so throughput is their
    /// mean.
    pub fn merge(&mut self, other: Report) {
        let n = self.setup_s.len() as f64;
        self.phase.ops_per_s = (self.phase.ops_per_s * n + other.phase.ops_per_s) / (n + 1.0);
        self.setup_s.extend(other.setup_s);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        self.rss_at_reset.extend(other.rss_at_reset);
        self.phase.latencies_ms.extend(other.phase.latencies_ms);
        self.phase.attempted += other.phase.attempted;
        self.phase.failed += other.phase.failed;
        self.phase.errors.extend(other.phase.errors);
        self.phase.cpu += other.phase.cpu;
    }
}

/// A JSON number as `f64`, whether it was written as an integer or not.
pub fn json_number(j: &Json) -> Option<f64> {
    match j {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}

/// Prints the human-readable report and, as the last line, the JSON
/// result object.
pub fn print(report: &Report, traced: bool) {
    let failed = report.failed();
    for line in &report.notes {
        println!("{line}");
    }
    let mut lat = report.phase.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    if let (Some(min), Some(max)) = (lat.first(), lat.last()) {
        let q = |f: f64| lat[((lat.len() - 1) as f64 * f) as usize];
        println!(
            "op latency ms: min {min:.3} q1 {:.3} median {:.3} q3 {:.3} max {max:.3}",
            q(0.25),
            q(0.5),
            q(0.75)
        );
    }
    let rows: Vec<(&str, f64, &str, String)> = if traced {
        for (name, n, mean, total) in &report.self_times {
            println!("self time  {name:<28} spans={n:<6} mean={mean:.4} ms total={total:.1} ms");
        }
        report
            .layers
            .iter()
            .map(|l| (l.name, l.value, l.unit, l.note.clone()))
            .collect()
    } else {
        report.end_to_end()
    };
    for (name, value, unit, note) in &rows {
        println!("{name:<34} {value:>14.4} {unit:<6} {note}");
    }
    for e in report
        .phase
        .errors
        .iter()
        .chain(report.traced.iter().flat_map(|p| &p.errors))
    {
        println!("FAILED {e}");
    }
    // JSON has no NaN or infinity; a metric that is not a number makes
    // the run incorrect rather than being written as something else.
    let finite = rows.iter().all(|r| r.1.is_finite());
    if !finite {
        println!("FAILED a metric is not a finite number");
    }
    let correct = failed == 0 && finite;
    println!(
        "attempted={} failed={failed} correct={correct}",
        report.attempted()
    );
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit, _)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        report.attempted(),
        metrics.join(",")
    );
}

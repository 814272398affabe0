//! Workload `build`: the paper's headline computation, in-process.
//!
//! One caller, one build in flight: each op is
//! `run_pipeline(&h, &PipelineConfig::new(2))` on the `activeDNS`
//! profile parsed from edge-list bytes, with two workers. The benchmark
//! never picks a `Strategy`, so a change of library defaults shows.

use crate::phase::{closed_loop, OpOutcome};
use crate::report::{Layer, Report};
use crate::stats::{edge_digest, median};
use crate::trace::{self_time_table, Tracer};
use crate::{host, serve, Args, WORKERS};
use hyperline_gen::Profile;
use hyperline_hypergraph::io::{read_edge_list, write_edge_list};
use hyperline_hypergraph::Hypergraph;
use hyperline_slinegraph::{run_pipeline, spgemm_slinegraph, PipelineConfig, PipelineRun};
use hyperline_util::parallel::with_threads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The pipeline's stage names, in the layer vocabulary of the report.
const STAGES: [(&str, &str); 5] = [
    ("preprocessing", "hypergraph.prep.relabel"),
    ("s-overlap", "slinegraph.overlap"),
    ("postprocess", "slinegraph.postprocess"),
    ("squeeze", "slinegraph.squeeze"),
    ("s-connected-components", "graph.components"),
];

/// One op's layer figures, kept in the traced phase.
#[derive(Default, Clone)]
pub struct StageFigures {
    /// Seconds per entry of [`STAGES`].
    pub stage_s: [f64; 5],
    pub wedges: u64,
    pub imbalance: f64,
}

impl StageFigures {
    pub fn of(run: &PipelineRun) -> StageFigures {
        let mut f = StageFigures::default();
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            f.stage_s[i] = run.times.get(stage).map_or(0.0, |d| d.as_secs_f64());
        }
        let visits = run.stats.visits_per_worker();
        f.wedges = visits.iter().sum();
        let mean = f.wedges as f64 / visits.len().max(1) as f64;
        let max = visits.iter().copied().max().unwrap_or(0) as f64;
        f.imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        f
    }
}

/// The library layers' per-layer metrics from several ops' figures.
pub fn stage_layers(figures: &[StageFigures], source: &str) -> Result<Vec<Layer>, String> {
    let wedges = figures.first().map_or(0, |f| f.wedges);
    if figures.iter().any(|f| f.wedges != wedges) {
        return Err("wedge count differs between identical builds".to_string());
    }
    let stage_ms = |i: usize| {
        median(
            &figures
                .iter()
                .map(|f| f.stage_s[i] * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let overlap_ms = stage_ms(1);
    let note = format!("median of {} {source}", figures.len());
    Ok(vec![
        Layer::new(
            "hypergraph.prep.relabel_ms",
            stage_ms(0),
            "ms",
            note.clone(),
        ),
        Layer::new("slinegraph.overlap_ms", overlap_ms, "ms", note.clone()),
        Layer::new(
            "slinegraph.wedges",
            wedges as f64,
            "count",
            "sum of per-worker wedge_visits",
        ),
        Layer::new(
            "slinegraph.ns_per_wedge",
            overlap_ms * 1e6 / wedges.max(1) as f64,
            "ns",
            "overlap_ms / wedges",
        ),
        Layer::new(
            "slinegraph.worker_imbalance",
            median(&figures.iter().map(|f| f.imbalance).collect::<Vec<_>>()),
            "ratio",
            format!("max/mean per-worker wedge_visits, {note}"),
        ),
        Layer::new("slinegraph.postprocess_ms", stage_ms(2), "ms", note.clone()),
        Layer::new("slinegraph.squeeze_ms", stage_ms(3), "ms", note.clone()),
        Layer::new("graph.components_ms", stage_ms(4), "ms", note),
    ])
}

/// One build on `WORKERS` workers.
pub fn build(h: &Hypergraph) -> PipelineRun {
    with_threads(WORKERS, || run_pipeline(h, &PipelineConfig::new(2)))
}

struct Caller {
    h: Hypergraph,
    figures: Vec<StageFigures>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Inputs: generated from the seed, handed over as edge-list bytes.
    let bytes = {
        let h = Profile::ActiveDns.generate(args.seed);
        let mut bytes = Vec::new();
        write_edge_list(&h, &mut bytes).map_err(|e| format!("write edge list: {e}"))?;
        bytes
    };
    let parse = || read_edge_list(&bytes[..]).map_err(|e| format!("parse edge list: {e}"));

    // Oracle, once per process and outside set-up: the SpGEMM construction
    // is an independent algorithm for the same edge set.
    let (ref_edges, ref_digest) = {
        let r = spgemm_slinegraph(&parse()?, 2, true);
        (r.edges.len(), edge_digest(&r.edges))
    };
    let check = |run: &PipelineRun| -> Result<(), String> {
        let edges = &run.line_graph.edges;
        if edges.len() != ref_edges || edge_digest(edges) != ref_digest {
            return Err(format!(
                "line graph has {} edges (digest mismatch: {}), SpGEMM reference has {ref_edges}",
                edges.len(),
                edge_digest(edges) != ref_digest
            ));
        }
        Ok(())
    };

    // Set-up: parse plus one discarded warm-up build.
    let start = Instant::now();
    let h = parse()?;
    let warm = build(&h);
    let setup_s = start.elapsed().as_secs_f64();
    check(&warm).map_err(|e| format!("warm-up build: {e}"))?;
    let wedges = StageFigures::of(&warm).wedges;
    drop(warm);
    let h_edges = h.num_edges();

    let in_flight = AtomicUsize::new(0);
    let op = |caller: &mut Caller, _client: usize, op_id: u64, tracer: &mut Tracer| {
        // Load-shape guard: never more than one build at a time.
        if in_flight.fetch_add(1, Ordering::SeqCst) != 0 {
            in_flight.fetch_sub(1, Ordering::SeqCst);
            return OpOutcome::failed(Instant::now(), "two builds in flight".to_string());
        }
        let start = Instant::now();
        let run = build(&caller.h);
        let end = Instant::now();
        in_flight.fetch_sub(1, Ordering::SeqCst);
        let root = tracer.record("build.op", op_id, None, start, end);
        let figures = StageFigures::of(&run);
        let mut at = start;
        for (i, (_, layer)) in STAGES.iter().enumerate() {
            let stage_end = at + std::time::Duration::from_secs_f64(figures.stage_s[i]);
            let id = tracer.record(layer, op_id, Some(root), at, stage_end);
            if i == 1 {
                // Stage 3's per-worker AlgoStats, as zero-length child
                // spans carrying each worker's wedge visits.
                for &v in &run.stats.visits_per_worker() {
                    tracer.record_count("slinegraph.overlap.worker", op_id, Some(id), at, v);
                }
            }
            at = stage_end;
        }
        let verdict = check(&run);
        let check_end = Instant::now();
        tracer.record("check", op_id, None, end, check_end);
        if args.trace {
            caller.figures.push(figures);
        }
        OpOutcome {
            start,
            end,
            verdict,
        }
    };

    let mut callers = [Caller {
        h,
        figures: Vec::new(),
    }];
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rss_at_reset = host::reset_peak_rss()?;
    let phase = closed_loop(&mut callers, seconds, false, op)?;
    let peak_rss_mb = host::peak_rss_mb()?;
    let mut report = Report {
        setup_s: vec![setup_s],
        phase,
        traced: None,
        peak_rss_mb: vec![peak_rss_mb],
        rss_at_reset: vec![rss_at_reset],
        layers: Vec::new(),
        self_times: Vec::new(),
        notes: vec![format!(
            "input: activeDNS profile, seed {}, {} hyperedges, {} bytes of edge list; L_2 has {ref_edges} edges, {wedges} wedges",
            args.seed,
            h_edges,
            bytes.len()
        )],
    };
    if !args.trace {
        return Ok(report);
    }

    // Traced run: the second half of the time, spans on.
    callers[0].figures.clear();
    let traced = closed_loop(&mut callers, seconds, true, op)?;
    let mut layers = vec![
        Layer::new(
            "process.cpu_ms_per_op",
            report.phase.cpu.as_secs_f64() * 1e3 / report.phase.attempted.max(1) as f64,
            "ms",
            "user+sys over the untraced phase",
        ),
        parse_layer(&bytes, 5)?,
    ];
    layers.extend(stage_layers(&callers[0].figures, "traced builds")?);
    let slg = build(&callers[0].h).line_graph;
    layers.push(betweenness_layer(&slg, args.seed, 3));
    // No server runs in this workload; its server layers come from a
    // short probe serving this input after the timed phases.
    layers.extend(serve::probe_layers(&bytes, args)?);
    layers.push(crate::overhead_layer(&report.phase, &traced));
    report.self_times = self_time_table(&traced.spans);
    crate::write_trace(args, &traced.spans)?;
    report.traced = Some(traced);
    report.layers = layers;
    Ok(report)
}

/// `hypergraph.io.parse_ms`: `read_edge_list` on the workload's bytes.
pub fn parse_layer(bytes: &[u8], reps: usize) -> Result<Layer, String> {
    let mut ms = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let h = read_edge_list(std::hint::black_box(bytes)).map_err(|e| format!("parse: {e}"))?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(h);
    }
    Ok(Layer::new(
        "hypergraph.io.parse_ms",
        median(&ms),
        "ms",
        format!("read_edge_list, median of {reps}"),
    ))
}

/// `graph.betweenness_ms`: `betweenness_sampled(16, seed)`.
pub fn betweenness_layer(slg: &hyperline_slinegraph::SLineGraph, seed: u64, reps: usize) -> Layer {
    let mut ms = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(with_threads(WORKERS, || slg.betweenness_sampled(16, seed)));
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Layer::new(
        "graph.betweenness_ms",
        median(&ms),
        "ms",
        format!("betweenness_sampled(16), median of {reps}"),
    )
}

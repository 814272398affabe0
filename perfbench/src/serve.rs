//! Workloads `serve-warm` and `serve-miss`, plus the server probe of the
//! `build` workload's traced run.
//!
//! An in-process `hyperline-server` (two workers) is driven over
//! loopback HTTP by two closed-loop clients, each on its own keep-alive
//! connection. The server loads the generated input from a file the
//! benchmark writes, through `POST /datasets?path=`.

use crate::client::{request_bytes, Conn, Response};
use crate::phase::{closed_loop, OpOutcome, Phase};
use crate::pipeline::{betweenness_layer, build, parse_layer, stage_layers, StageFigures};
use crate::report::{json_number, Layer, Report};
use crate::stats::{fnv1a, median};
use crate::trace::{self_time_table, Tracer};
use crate::{host, Args, CLIENTS, WORKERS};
use hyperline_gen::Profile;
use hyperline_hypergraph::io::{read_edge_list, write_edge_list};
use hyperline_server::gzip::{self, Effort};
use hyperline_server::json::Json;
use hyperline_server::{http, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up ops per client at the end of set-up (discarded).
const WARMUP_OPS: usize = 2;
/// A warm `/healthz` round trip this slow means requests are stalling
/// on Nagle's algorithm and delayed ACKs, not being served.
const NAGLE_FLOOR: Duration = Duration::from_millis(40);

const WARM_TARGET: &str = "/datasets/genomics/slg?s=2&limit=1000000000";
const GZIP: &str = "accept-encoding: gzip\r\n";
/// The generated input's file name under the server's data root.
const INPUT_FILE: &str = "genomics.hgr";

fn start_server(dir: &Path) -> Result<ServerHandle, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        data_root: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    Ok(server.spawn())
}

fn expect_status(r: &Response, status: u16) -> Result<(), String> {
    if r.status == status {
        Ok(())
    } else {
        Err(format!(
            "status {} (expected {status}): {}",
            r.status,
            String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
        ))
    }
}

fn load(conn: &mut Conn, name: &str) -> Result<(), String> {
    let r = conn.request(
        "POST",
        &format!("/datasets?path={INPUT_FILE}&name={name}"),
        "",
    )?;
    expect_status(&r, 201)
}

/// Fails if a warm `/healthz` round trip on `conn` reaches the Nagle
/// floor (median of five, after one warm-up).
fn healthz_guard(conn: &mut Conn) -> Result<f64, String> {
    let mut ms = Vec::new();
    for i in 0..6 {
        let r = conn.request("GET", "/healthz", "")?;
        expect_status(&r, 200)?;
        if i > 0 {
            ms.push(r.elapsed().as_secs_f64() * 1e3);
        }
    }
    let m = median(&ms);
    if m >= NAGLE_FLOOR.as_secs_f64() * 1e3 {
        return Err(format!(
            "warm /healthz takes {m:.1} ms: requests are stalling on Nagle/delayed ACK"
        ));
    }
    Ok(m)
}

/// Client-side figures of one request, kept in the traced phase.
#[derive(Clone, Copy)]
struct ReqFigures {
    op: u64,
    ttfb_s: f64,
    body_s: f64,
    wire_bytes: usize,
}

impl ReqFigures {
    fn of(op: u64, r: &Response) -> ReqFigures {
        ReqFigures {
            op,
            ttfb_s: (r.first_byte - r.sent).as_secs_f64(),
            body_s: (r.done - r.first_byte).as_secs_f64(),
            wire_bytes: r.wire_bytes,
        }
    }
}

/// Records a request span with its wait (sent → first byte) and body
/// (first → last byte) children.
fn trace_request(tracer: &mut Tracer, name: &'static str, op: u64, parent: u64, r: &Response) {
    let id = tracer.record(name, op, Some(parent), r.sent, r.done);
    tracer.record("wire.ttfb", op, Some(id), r.sent, r.first_byte);
    tracer.record("wire.body", op, Some(id), r.first_byte, r.done);
}

struct Client {
    conn: Conn,
    reqs: Vec<ReqFigures>,
    /// serve-miss: `(seed, slg body, betweenness body)` of sampled ops.
    samples: Vec<(u64, Vec<u8>, Vec<u8>)>,
}

impl Client {
    fn new(conn: Conn) -> Client {
        Client {
            conn,
            reqs: Vec::new(),
            samples: Vec::new(),
        }
    }
}

/// Which of the two server workloads.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Warm,
    Miss,
}

/// The primed warm body every `serve-warm` op must reproduce.
struct Primed {
    len: usize,
    digest: u64,
}

pub fn run(args: &Args, kind: Kind, dir: &Path) -> Result<Report, String> {
    // Input: generated from the seed, written where the server may load it.
    let mut bytes = Vec::new();
    write_edge_list(&Profile::Genomics.generate(args.seed), &mut bytes)
        .map_err(|e| format!("write edge list: {e}"))?;
    std::fs::write(dir.join(INPUT_FILE), &bytes).map_err(|e| format!("write input: {e}"))?;
    let h = read_edge_list(&bytes[..]).map_err(|e| format!("parse: {e}"))?;
    // The library's own s=2 line graph: the oracle for served rows.
    let library = build(&h);

    let start = Instant::now();
    let handle = start_server(dir)?;
    let mut clients = (0..CLIENTS)
        .map(|_| Conn::open(handle.addr()).map(Client::new))
        .collect::<Result<Vec<_>, _>>()?;
    match kind {
        Kind::Warm => {
            load(&mut clients[0].conn, "genomics")?;
            // Prime the artifact tier (the one cold fill).
            let r = clients[0].conn.request("GET", WARM_TARGET, GZIP)?;
            expect_status(&r, 200)?;
        }
        Kind::Miss => {
            for (c, client) in clients.iter_mut().enumerate() {
                load(&mut client.conn, &format!("live-{c}"))?;
            }
        }
    }
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..WARMUP_OPS {
            match kind {
                Kind::Warm => {
                    let r = client.conn.request("GET", WARM_TARGET, GZIP)?;
                    expect_status(&r, 200)?;
                }
                Kind::Miss => {
                    session(&mut client.conn, c, i as u64)?;
                }
            }
        }
    }
    let setup_s = start.elapsed().as_secs_f64();

    // Checks outside the timed phase, then the Nagle guard.
    let mut notes = Vec::new();
    let primed = match kind {
        Kind::Warm => Some(check_warm_body(&mut clients[0].conn, &library, &mut notes)?),
        Kind::Miss => None,
    };
    for client in clients.iter_mut() {
        let ms = healthz_guard(&mut client.conn)?;
        notes.push(format!("warm /healthz round trip: {ms:.3} ms"));
    }
    notes.push(format!(
        "input: genomics profile, seed {}, {} hyperedges, L_2 has {} edges",
        args.seed,
        h.num_edges(),
        library.line_graph.num_edges()
    ));

    let op = |client: &mut Client, c: usize, op_id: u64, tracer: &mut Tracer| match kind {
        Kind::Warm => warm_op(client, op_id, tracer, primed.as_ref().expect("primed body")),
        Kind::Miss => miss_op(client, c, op_id, tracer),
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rss_at_reset = host::reset_peak_rss()?;
    let mut phase = closed_loop(&mut clients, seconds, false, op)?;
    let peak_rss_mb = host::peak_rss_mb()?;
    if kind == Kind::Miss {
        verify_samples(&mut clients, &library.line_graph, &mut phase);
    }

    let mut report = Report {
        setup_s: vec![setup_s],
        phase,
        traced: None,
        peak_rss_mb: vec![peak_rss_mb],
        rss_at_reset: vec![rss_at_reset],
        layers: Vec::new(),
        self_times: Vec::new(),
        notes,
    };
    if args.trace {
        for client in clients.iter_mut() {
            client.reqs.clear();
        }
        let before = Snapshot::take(&mut clients[0].conn)?;
        let mut traced = closed_loop(&mut clients, seconds, true, op)?;
        let after = Snapshot::take(&mut clients[0].conn)?;
        if kind == Kind::Miss {
            verify_samples(&mut clients, &library.line_graph, &mut traced);
        }
        // Op ids count per client; make them unique across clients.
        let reqs: Vec<ReqFigures> = clients
            .iter()
            .enumerate()
            .flat_map(|(c, client)| {
                client.reqs.iter().map(move |r| ReqFigures {
                    op: (c as u64) << 32 | r.op,
                    ..*r
                })
            })
            .collect();
        let (routes, requests, identity): (&[&str], Vec<Vec<u8>>, Vec<u8>) = match kind {
            Kind::Warm => (
                &["slg"],
                vec![request_bytes("GET", WARM_TARGET, GZIP)],
                clients[0].conn.request("GET", WARM_TARGET, "")?.body,
            ),
            Kind::Miss => (
                &["add_dataset", "slg", "betweenness"],
                session_requests(0, 1),
                clients[0]
                    .conn
                    .request("GET", "/datasets/live-0/slg?s=2&limit=16", "")?
                    .body,
            ),
        };
        let mut layers = vec![
            Layer::new(
                "process.cpu_ms_per_op",
                report.phase.cpu.as_secs_f64() * 1e3 / report.phase.attempted.max(1) as f64,
                "ms",
                "user+sys of the whole process (clients and server) over the untraced phase",
            ),
            parse_layer(&bytes, 21)?,
        ];
        // The library stages on the served input, run standalone.
        let figures: Vec<StageFigures> = (0..7).map(|_| StageFigures::of(&build(&h))).collect();
        layers.extend(stage_layers(
            &figures,
            "standalone builds of the served input",
        )?);
        layers.push(betweenness_layer(&library.line_graph, args.seed, 7));
        layers.extend(server_layers(
            &before,
            &after,
            traced.attempted,
            &reqs,
            routes,
            &requests,
            &identity,
        ));
        layers.push(crate::overhead_layer(&report.phase, &traced));
        report.self_times = self_time_table(&traced.spans);
        crate::write_trace(args, &traced.spans)?;
        report.traced = Some(traced);
        report.layers = layers;
    }
    drop(clients);
    handle.shutdown();
    Ok(report)
}

/// Set-up checks of `serve-warm`: the primed gzip body decodes to the
/// identity body, whose rows are the library's s=2 line graph.
fn check_warm_body(
    conn: &mut Conn,
    library: &hyperline_slinegraph::PipelineRun,
    notes: &mut Vec<String>,
) -> Result<Primed, String> {
    let zipped = conn.request("GET", WARM_TARGET, GZIP)?;
    expect_status(&zipped, 200)?;
    if zipped.header("content-encoding") != Some("gzip") {
        return Err("warm /slg answered without gzip".to_string());
    }
    let identity = conn.request("GET", WARM_TARGET, "")?;
    expect_status(&identity, 200)?;
    let decoded = gzip::decode(&zipped.body)?;
    if decoded != identity.body {
        return Err("gzip body does not decode to the identity body".to_string());
    }
    let json = Json::parse(identity.text()?)?;
    if json.get("cache").and_then(Json::as_str) != Some("hit") {
        return Err("primed /slg is not an artifact-tier hit".to_string());
    }
    let served = edge_rows(&json)?;
    if served != library.line_graph.edges {
        return Err(format!(
            "served rows ({}) differ from the library's s=2 line graph ({})",
            served.len(),
            library.line_graph.edges.len()
        ));
    }
    notes.push(format!(
        "warm body: {} B identity, {} B gzip",
        identity.body.len(),
        zipped.body.len()
    ));
    Ok(Primed {
        len: zipped.body.len(),
        digest: fnv1a(&zipped.body),
    })
}

fn warm_op(client: &mut Client, op_id: u64, tracer: &mut Tracer, primed: &Primed) -> OpOutcome {
    let start = Instant::now();
    let r = match client.conn.request("GET", WARM_TARGET, GZIP) {
        Ok(r) => r,
        Err(e) => return OpOutcome::failed(start, e),
    };
    let root = tracer.record("serve.op", op_id, None, r.sent, r.done);
    trace_request(tracer, "http.slg", op_id, root, &r);
    if tracer.enabled() {
        client.reqs.push(ReqFigures::of(op_id, &r));
    }
    let verdict = expect_status(&r, 200).and_then(|()| {
        if r.body.len() == primed.len && fnv1a(&r.body) == primed.digest {
            Ok(())
        } else {
            Err(format!(
                "body of {} B differs from the primed body",
                r.body.len()
            ))
        }
    });
    OpOutcome {
        start: r.sent,
        end: r.done,
        verdict,
    }
}

/// The three requests of one `serve-miss` session.
fn session_targets(c: usize, seed: u64) -> [(&'static str, String); 3] {
    [
        ("POST", format!("/datasets?path={INPUT_FILE}&name=live-{c}")),
        ("GET", format!("/datasets/live-{c}/slg?s=2&limit=16")),
        (
            "GET",
            format!("/datasets/live-{c}/betweenness?s=2&samples=16&seed={seed}&top=10"),
        ),
    ]
}

fn session_requests(c: usize, seed: u64) -> Vec<Vec<u8>> {
    session_targets(c, seed)
        .iter()
        .map(|(method, target)| request_bytes(method, target, ""))
        .collect()
}

/// One refresh-and-query session; returns its three responses.
fn session(conn: &mut Conn, c: usize, seed: u64) -> Result<[Response; 3], String> {
    let [load, slg, bc] = session_targets(c, seed);
    let load = conn.request(load.0, &load.1, "")?;
    expect_status(&load, 201)?;
    let slg = conn.request(slg.0, &slg.1, "")?;
    expect_status(&slg, 200)?;
    let bc = conn.request(bc.0, &bc.1, "")?;
    expect_status(&bc, 200)?;
    Ok([load, slg, bc])
}

/// Every this-many-th op of a client keeps its bodies for the
/// post-phase comparison with the library.
const SAMPLE_EVERY: u64 = 8;
const MAX_SAMPLES: usize = 8;

fn miss_op(client: &mut Client, c: usize, op_id: u64, tracer: &mut Tracer) -> OpOutcome {
    let start = Instant::now();
    let [load, slg, bc] = match session(&mut client.conn, c, op_id) {
        Ok(r) => r,
        Err(e) => return OpOutcome::failed(start, e),
    };
    let root = tracer.record("serve.op", op_id, None, load.sent, bc.done);
    trace_request(tracer, "http.add_dataset", op_id, root, &load);
    trace_request(tracer, "http.slg", op_id, root, &slg);
    trace_request(tracer, "http.betweenness", op_id, root, &bc);
    if tracer.enabled() {
        for r in [&load, &slg, &bc] {
            client.reqs.push(ReqFigures::of(op_id, r));
        }
    }
    // Every op must be an artifact-tier miss (the reload invalidated).
    let verdict = match slg.text().and_then(Json::parse) {
        Ok(json) if json.get("cache").and_then(Json::as_str) == Some("miss") => Ok(()),
        Ok(_) => Err("/slg after a reload was not a cache miss".to_string()),
        Err(e) => Err(format!("/slg body: {e}")),
    };
    if op_id.is_multiple_of(SAMPLE_EVERY) && client.samples.len() < MAX_SAMPLES {
        client.samples.push((op_id, slg.body, bc.body));
    }
    OpOutcome {
        start: load.sent,
        end: bc.done,
        verdict,
    }
}

/// Compares sampled `serve-miss` bodies with the library: the first 16
/// rows of the line graph and `betweenness_sampled(16, seed)`'s top 10.
/// A mismatch counts as a failed op.
fn verify_samples(
    clients: &mut [Client],
    slg: &hyperline_slinegraph::SLineGraph,
    phase: &mut Phase,
) {
    for (c, client) in clients.iter_mut().enumerate() {
        for (seed, slg_body, bc_body) in client.samples.drain(..) {
            if let Err(e) = verify_sample(slg, seed, &slg_body, &bc_body) {
                phase.failed += 1;
                phase.errors.push(format!("client {c} op {seed}: {e}"));
            }
        }
    }
}

fn verify_sample(
    slg: &hyperline_slinegraph::SLineGraph,
    seed: u64,
    slg_body: &[u8],
    bc_body: &[u8],
) -> Result<(), String> {
    let text = |b: &[u8]| String::from_utf8(b.to_vec()).map_err(|e| e.to_string());
    if edge_rows(&Json::parse(&text(slg_body)?)?)? != slg.edges[..slg.edges.len().min(16)] {
        return Err("/slg rows differ from the library's line graph".to_string());
    }
    let ranking = Json::parse(&text(bc_body)?)?;
    let served: Vec<(u32, f64)> = ranking
        .get("ranking")
        .and_then(Json::as_array)
        .ok_or("no ranking")?
        .iter()
        .map(|row| {
            let edge = row.get("edge").and_then(Json::as_int)?;
            Some((u32::try_from(edge).ok()?, json_number(row.get("score")?)?))
        })
        .collect::<Option<_>>()
        .ok_or("malformed ranking row")?;
    let expected =
        hyperline_util::parallel::with_threads(WORKERS, || slg.betweenness_sampled(16, seed));
    let expected = &expected[..expected.len().min(10)];
    let same = served.len() == expected.len()
        && served
            .iter()
            .zip(expected)
            .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= 1e-12 * b.1.abs().max(1.0));
    if !same {
        return Err(format!(
            "betweenness top-10 {served:?} differs from the library's {expected:?}"
        ));
    }
    Ok(())
}

/// The `[i, j]` rows of an `/slg` body.
fn edge_rows(json: &Json) -> Result<Vec<(u32, u32)>, String> {
    let pair = |row: &Json| match row.as_array() {
        Some([a, b]) => Some((
            u32::try_from(a.as_int()?).ok()?,
            u32::try_from(b.as_int()?).ok()?,
        )),
        _ => None,
    };
    json.get("edges")
        .and_then(Json::as_array)
        .ok_or("no edges array")?
        .iter()
        .map(pair)
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed edge row".to_string())
}

/// `/metrics` (Prometheus text, every sample) and `/debug/pipeline` at
/// one instant.
struct Snapshot {
    samples: BTreeMap<String, f64>,
    pipeline: Json,
}

impl Snapshot {
    fn take(conn: &mut Conn) -> Result<Snapshot, String> {
        let prom = conn.request("GET", "/metrics?format=prometheus", "")?;
        expect_status(&prom, 200)?;
        let samples = prom
            .text()?
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect();
        let pipeline = conn.request("GET", "/debug/pipeline", "")?;
        expect_status(&pipeline, 200)?;
        Ok(Snapshot {
            samples,
            pipeline: Json::parse(pipeline.text()?)?,
        })
    }

    fn value(&self, key: &str) -> f64 {
        self.samples.get(key).copied().unwrap_or(0.0)
    }

    /// Cumulative bucket counts `(le, count)` of histogram `family` for
    /// every series whose labels contain `filter`, keyed by series.
    fn buckets(&self, family: &str, filter: &str) -> BTreeMap<String, Vec<(f64, f64)>> {
        let prefix = format!("{family}_bucket{{");
        let mut out: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (key, &count) in &self.samples {
            let Some(labels) = key.strip_prefix(&prefix).and_then(|k| k.strip_suffix('}')) else {
                continue;
            };
            if !labels.contains(filter) {
                continue;
            }
            let Some((series, le)) = labels.rsplit_once("le=\"") else {
                continue;
            };
            let le = le.trim_end_matches('"');
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            out.entry(series.to_string()).or_default().push((le, count));
        }
        for v in out.values_mut() {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        out
    }

    /// Σ `(count, total_micros)` of the `counting` stage over datasets.
    fn counting(&self) -> (f64, f64) {
        let mut sum = (0.0, 0.0);
        for (_, stages) in self
            .pipeline
            .get("datasets")
            .and_then(Json::entries)
            .unwrap_or(&[])
        {
            if let Some(s) = stages.get("counting") {
                sum.0 += s.get("count").and_then(Json::as_int).unwrap_or(0) as f64;
                sum.1 += s.get("total_micros").and_then(Json::as_int).unwrap_or(0) as f64;
            }
        }
        sum
    }
}

/// Quantile `q` of the samples a histogram family gained between two
/// snapshots, over every series matching `filter`, interpolated
/// linearly inside the server's log buckets (16 linear sub-buckets per
/// power of two). 0 when nothing was recorded.
fn delta_quantile(before: &Snapshot, after: &Snapshot, family: &str, filter: &str, q: f64) -> f64 {
    let old = before.buckets(family, filter);
    // Per-bucket sample counts gained, merged over series, keyed by the
    // bucket's inclusive upper bound.
    let mut gained: BTreeMap<u64, f64> = BTreeMap::new();
    for (series, new) in after.buckets(family, filter) {
        let old = old.get(&series).cloned().unwrap_or_default();
        // Buckets are listed only when non-empty, so the old cumulative
        // count at `le` is the last listed one at or below it.
        let old_cum = |le: f64| {
            old.iter()
                .take_while(|(l, _)| *l <= le)
                .last()
                .map_or(0.0, |(_, c)| *c)
        };
        let mut prev = 0.0;
        for &(le, cum) in new.iter().filter(|(le, _)| le.is_finite()) {
            let delta = cum - old_cum(le);
            *gained.entry(le as u64).or_default() += delta - prev;
            prev = delta;
        }
    }
    let total: f64 = gained.values().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut seen = 0.0;
    for (&high, &n) in &gained {
        if n > 0.0 && seen + n >= rank {
            let width = if high < 16 {
                1
            } else {
                1u64 << (63 - high.leading_zeros() - 4)
            };
            let low = high + 1 - width;
            return low as f64 + width as f64 * (rank - seen) / n;
        }
        seen += n;
    }
    gained.keys().last().map_or(0.0, |&k| k as f64)
}

/// The server's per-layer metrics over one measured window.
fn server_layers(
    before: &Snapshot,
    after: &Snapshot,
    ops: u64,
    reqs: &[ReqFigures],
    routes: &[&str],
    requests: &[Vec<u8>],
    identity_body: &[u8],
) -> Vec<Layer> {
    let ops_f = ops.max(1) as f64;
    let delta = |key: &str| after.value(key) - before.value(key);
    // Per-op sums of the client-side request figures.
    let mut per_op: BTreeMap<u64, (f64, f64, usize)> = BTreeMap::new();
    for r in reqs {
        let e = per_op.entry(r.op).or_default();
        e.0 += r.ttfb_s;
        e.1 += r.body_s;
        e.2 += r.wire_bytes;
    }
    let per_op: Vec<(f64, f64, usize)> = per_op.into_values().collect();
    let col =
        |f: &dyn Fn(&(f64, f64, usize)) -> f64| median(&per_op.iter().map(f).collect::<Vec<_>>());

    let (count_before, micros_before) = before.counting();
    let (count_after, micros_after) = after.counting();
    let (fill_ms, fill_note) = if count_after > count_before {
        (
            (micros_after - micros_before) / (count_after - count_before) / 1e3,
            format!(
                "mean of {} cold fills in the traced phase",
                count_after - count_before
            ),
        )
    } else {
        (
            micros_after / count_after.max(1.0) / 1e3,
            format!("mean of {count_after} cold fills since bind (none in the traced phase)"),
        )
    };

    let handler_ms: f64 = routes
        .iter()
        .map(|r| {
            delta_quantile(
                before,
                after,
                "hyperline_request_duration_micros",
                &format!("route=\"{r}\""),
                0.5,
            )
        })
        .sum::<f64>()
        / 1e3;

    let mut encode_ms = Vec::new();
    let reps = if identity_body.len() > 100_000 { 5 } else { 51 };
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(gzip::compress_with(
            std::hint::black_box(identity_body),
            Effort::Fast,
        ));
        encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let transport_gzip_p50 =
        delta_quantile(before, after, "hyperline_gzip_encode_micros", "", 0.5) / 1e3;

    let mut parse_us = Vec::new();
    for _ in 0..1001 {
        let start = Instant::now();
        for bytes in requests {
            let parsed = http::parse_head(std::hint::black_box(bytes));
            assert!(
                matches!(parsed, Ok(Some(_))),
                "benchmark request must parse"
            );
            std::hint::black_box(parsed.ok());
        }
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    let ratio = |tier: &str| {
        let hits = delta(&format!("hyperline_cache_hits_total{{tier=\"{tier}\"}}"));
        let misses = delta(&format!("hyperline_cache_misses_total{{tier=\"{tier}\"}}"));
        let note = format!(
            "{hits} hits / {} lookups in the traced phase",
            hits + misses
        );
        let value = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        (value, note)
    };
    let (art_ratio, art_note) = ratio("artifacts");
    let (met_ratio, met_note) = ratio("metrics");
    let route_list = routes.join("+");
    vec![
        Layer::new("server.pipeline.overlap_ms", fill_ms, "ms", format!("/debug/pipeline counting span, {fill_note}")),
        Layer::new(
            "server.ttfb_ms",
            col(&|r| r.0 * 1e3),
            "ms",
            "request written -> first byte, summed per op, median over ops",
        ),
        Layer::new(
            "server.handler_ms",
            handler_ms,
            "ms",
            format!("/metrics request_duration p50 of {route_list}, traced phase only"),
        ),
        Layer::new(
            "server.body_ms",
            col(&|r| r.1 * 1e3),
            "ms",
            "first -> last byte, summed per op, median over ops",
        ),
        Layer::new(
            "server.wire_bytes_per_op",
            col(&|r| r.2 as f64),
            "bytes",
            "response bytes read off the socket (head, framing, payload) per op",
        ),
        Layer::new(
            "server.gzip.encode_ms",
            median(&encode_ms),
            "ms",
            format!(
                "compress_with(Fast) on the {} B identity body, median of {reps}; server transport.gzip_encode p50 = {transport_gzip_p50:.3} ms",
                identity_body.len()
            ),
        ),
        Layer::new(
            "server.event.wakeups_per_op",
            delta("hyperline_event_loop_wakeups_total") / ops_f,
            "count",
            "event-loop wakeups per op",
        ),
        Layer::new(
            "server.event.eagain_per_op",
            delta("hyperline_event_loop_eagain_total") / ops_f,
            "count",
            "EAGAIN yields while flushing, per op",
        ),
        Layer::new(
            "server.http.parse_head_us",
            median(&parse_us),
            "us",
            format!("http::parse_head on the op's {} exact request(s), median of 1001", requests.len()),
        ),
        Layer::new(
            "server.pool.queue_wait_p50_us",
            delta_quantile(before, after, "hyperline_queue_wait_micros", "", 0.5),
            "us",
            "traced phase only",
        ),
        Layer::new(
            "server.pool.queue_wait_p99_us",
            delta_quantile(before, after, "hyperline_queue_wait_micros", "", 0.99),
            "us",
            "traced phase only",
        ),
        Layer::new(
            "server.cache.lock_hold_p99_us",
            delta_quantile(before, after, "hyperline_cache_lock_hold_micros", "", 0.99),
            "us",
            "both tiers, traced phase only",
        ),
        Layer::new("server.cache.artifacts.hit_ratio", art_ratio, "ratio", art_note),
        Layer::new("server.cache.metrics.hit_ratio", met_ratio, "ratio", met_note),
        Layer::new(
            "server.cache.metrics.evictions",
            delta("hyperline_cache_evictions_total{tier=\"metrics\"}"),
            "count",
            "traced phase only",
        ),
    ]
}

/// Number of warm requests in the `build` workload's server probe.
const PROBE_WARM: u64 = 8;

/// The `build` workload's server layers: its input served by a fresh
/// server — loaded, one cold `/slg` fill and one betweenness, then
/// warm gzip `/slg` reads — measured like the server workloads.
pub fn probe_layers(bytes: &[u8], args: &Args) -> Result<Vec<Layer>, String> {
    let dir = crate::data_dir(args).join("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(dir.join("activeDNS.hgr"), bytes)
        .map_err(|e| format!("write probe input: {e}"))?;
    let handle = start_server(&dir)?;
    let result = (|| {
        let mut conn = Conn::open(handle.addr())?;
        let before = Snapshot::take(&mut conn)?;
        let cold = "/datasets/dns/slg?s=2&limit=16";
        let bc = "/datasets/dns/betweenness?s=2&samples=16&seed=1&top=10";
        let mut reqs = Vec::new();
        let mut requests = Vec::new();
        let mut op = 0;
        for (method, target, headers) in [
            ("POST", "/datasets?path=activeDNS.hgr&name=dns", ""),
            ("GET", cold, ""),
            ("GET", bc, ""),
        ]
        .into_iter()
        .chain((0..PROBE_WARM).map(|_| ("GET", cold, GZIP)))
        {
            let r = conn.request(method, target, headers)?;
            expect_status(&r, if method == "POST" { 201 } else { 200 })?;
            reqs.push(ReqFigures::of(op, &r));
            if op < 3 {
                requests.push(request_bytes(method, target, headers));
            }
            op += 1;
        }
        let after = Snapshot::take(&mut conn)?;
        let identity = conn.request("GET", cold, "")?.body;
        let mut layers = server_layers(
            &before,
            &after,
            op,
            &reqs,
            &["add_dataset", "slg", "betweenness"],
            &requests,
            &identity,
        );
        for l in layers.iter_mut() {
            l.note = format!(
                "probe (load, cold /slg, betweenness, {PROBE_WARM} warm gzip /slg; per request): {}",
                l.note
            );
        }
        Ok(layers)
    })();
    handle.shutdown();
    result
}

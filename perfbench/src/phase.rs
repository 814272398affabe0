//! The closed-loop timed phase shared by every workload.
//!
//! Each client runs on its own thread and starts its next op only after
//! the previous one returned, until the phase's deadline; ops already
//! started then finish. An op reports the interval that is its latency
//! and, separately, the verdict of its correctness check: the check
//! runs after the op's end timestamp, and its time is removed from the
//! client's wall time, so neither latency nor throughput includes it.

use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};

/// What one op returns.
pub struct OpOutcome {
    /// Start and end of the measured interval.
    pub start: Instant,
    pub end: Instant,
    /// The correctness verdict, checked after `end`.
    pub verdict: Result<(), String>,
}

impl OpOutcome {
    /// An op that failed before it produced anything to check.
    pub fn failed(start: Instant, error: String) -> OpOutcome {
        OpOutcome {
            start,
            end: Instant::now(),
            verdict: Err(error),
        }
    }
}

/// Everything a phase measured.
pub struct Phase {
    /// Latency of each successful op, in ms.
    pub latencies_ms: Vec<f64>,
    /// Completed ops per second, summed over clients, each client's
    /// rate taken over its wall time minus its check time.
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// Process CPU time spent during the phase.
    pub cpu: Duration,
}

/// Runs `op(state, client, op_id, tracer)` in a closed loop on one
/// thread per entry of `states` for `seconds`.
pub fn closed_loop<S: Send>(
    states: &mut [S],
    seconds: f64,
    traced: bool,
    op: impl Fn(&mut S, usize, u64, &mut Tracer) -> OpOutcome + Sync,
) -> Result<Phase, String> {
    let cpu_before = crate::host::cpu_time()?;
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let op = &op;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(client, state)| {
                scope.spawn(move || {
                    let mut log = ClientLog::new(Tracer::new(traced, client as u64));
                    let started = Instant::now();
                    let mut checking = Duration::ZERO;
                    let mut op_id = 0u64;
                    while Instant::now() < deadline {
                        let outcome = op(state, client, op_id, &mut log.tracer);
                        checking += outcome.end.elapsed();
                        log.attempted += 1;
                        match outcome.verdict {
                            Ok(()) => log
                                .latencies_ms
                                .push((outcome.end - outcome.start).as_secs_f64() * 1e3),
                            Err(e) => {
                                log.failed += 1;
                                if log.errors.len() < 5 {
                                    log.errors.push(format!("client {client} op {op_id}: {e}"));
                                }
                            }
                        }
                        op_id += 1;
                    }
                    log.busy = started.elapsed().saturating_sub(checking);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu = crate::host::cpu_time()?.saturating_sub(cpu_before);
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        ops_per_s: 0.0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        spans: Vec::new(),
        cpu,
    };
    for log in logs {
        phase.ops_per_s += (log.attempted - log.failed) as f64 / log.busy.as_secs_f64();
        phase.latencies_ms.extend(log.latencies_ms);
        phase.attempted += log.attempted;
        phase.failed += log.failed;
        phase.errors.extend(log.errors);
        phase.spans.extend(log.tracer.into_spans());
    }
    Ok(phase)
}

struct ClientLog {
    tracer: Tracer,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    busy: Duration,
}

impl ClientLog {
    fn new(tracer: Tracer) -> ClientLog {
        ClientLog {
            tracer,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            busy: Duration::ZERO,
        }
    }
}

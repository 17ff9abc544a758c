//! Machinery shared by the workloads: running one query alone on an
//! installation, and the pass loop that fixes how much work feeds the
//! virtual-clock metrics while host-clock samples keep coming until the
//! run's time is up.

use std::time::Instant;

use lambada_core::Lambada;
use lambada_engine::logical::LogicalPlan;
use lambada_engine::RecordBatch;
use lambada_sim::Simulation;

use crate::check::same_result;
use crate::ledger::{QueryRun, TraceStats};
use crate::spans::Spans;
use crate::stream::StreamRun;

/// A named query with its reference result (`None` for modeled data,
/// which has no rows to compare).
pub struct Query {
    pub name: &'static str,
    pub plan: LogicalPlan,
    pub reference: Option<RecordBatch>,
}

/// Plan and statically verify `plan` the way the query service does
/// before admission, returning host seconds (only timed when tracing).
pub fn time_planning(
    system: &Lambada,
    plan: &LogicalPlan,
    spans: &Spans,
    qid: u64,
) -> Result<f64, String> {
    if !spans.enabled() {
        return Ok(0.0);
    }
    let t0 = Instant::now();
    let dag =
        spans.time("planning", "plan", qid, || system.plan(plan)).map_err(|e| e.to_string())?;
    spans
        .time("planning", "verify_plan", qid, || system.verify_plan(&dag))
        .map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Run `q` alone on `system` (after `make_cold` when `cold`), check its
/// result, and keep its report, billing delta and — when tracing — the
/// simulator spans it produced.
pub fn run_alone(
    sim: &Simulation,
    system: &Lambada,
    q: &Query,
    cold: bool,
    spans: &Spans,
    qid: u64,
) -> Result<QueryRun, String> {
    let cloud = system.cloud();
    if cold {
        spans.time("core::invoke", "make_cold", qid, || system.make_cold());
    }
    let plan_host_s = time_planning(system, &q.plan, spans, qid)?;
    let trace_from = cloud.trace.len();
    let before = cloud.billing.snapshot();
    let start = cloud.handle.now();
    let t0 = Instant::now();
    let report = sim.block_on(system.run_query(&q.plan)).map_err(|e| format!("{}: {e}", q.name))?;
    spans.record("core::driver", "run_query", qid, t0, Instant::now());
    let billed = cloud.billing.snapshot().since(&before);
    if let Some(want) = &q.reference {
        same_result(&report.batch, want).map_err(|e| format!("{}: {e}", q.name))?;
    }
    let trace = spans.enabled().then(|| TraceStats::of(&cloud.trace.events()[trace_from..], start));
    Ok(QueryRun { query: q.name, cold, report, billed, plan_host_s, trace })
}

/// What one pass produced.
#[derive(Default)]
pub struct PassOut {
    /// Host wall seconds of the pass's timed calls.
    pub host_s: f64,
    /// Simulated requests the pass billed.
    pub requests: f64,
    pub runs: Vec<QueryRun>,
    pub streams: Vec<StreamRun>,
    /// Peak in-flight workers on the service gate the stream ran through.
    pub gate_peak: usize,
    /// Operations attempted and the descriptions of those that failed.
    pub attempted: u64,
    pub errors: Vec<String>,
}

/// Everything a run's passes produced. Virtual-clock data comes from the
/// first `keep` passes only, so it is fixed by the seed whatever the host
/// speed; host-clock samples come from every pass.
#[derive(Default)]
pub struct Passes {
    pub kept: Vec<PassOut>,
    /// Host seconds per pass, split by whether spans were recorded.
    pub host_untraced: Vec<f64>,
    pub host_traced: Vec<f64>,
    /// Host microseconds per simulated request, per untraced pass.
    pub host_us_per_request: Vec<f64>,
    /// Peak resident memory once the kept passes have run.
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Passes {
    pub fn runs(&self) -> impl Iterator<Item = &QueryRun> {
        self.kept.iter().flat_map(|p| p.runs.iter())
    }

    pub fn streams(&self) -> impl Iterator<Item = &StreamRun> {
        self.kept.iter().flat_map(|p| p.streams.iter())
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run passes until at least `keep` have run and `seconds` have passed.
/// In traced runs, passes alternate between recording spans and not, so
/// the untraced host time and the tracing overhead come from one run.
pub fn drive(
    keep: usize,
    seconds: f64,
    traced: bool,
    spans: &Spans,
    mut pass: impl FnMut(u64) -> PassOut,
) -> Passes {
    let mut out = Passes::default();
    let begin = Instant::now();
    let mut i = 0u64;
    while (i as usize) < keep || begin.elapsed().as_secs_f64() < seconds {
        let on = traced && i.is_multiple_of(2);
        spans.set_active(on);
        let p = pass(i);
        out.attempted += p.attempted;
        out.errors.extend(p.errors.iter().cloned());
        if on {
            out.host_traced.push(p.host_s);
        } else {
            out.host_untraced.push(p.host_s);
            if p.requests > 0.0 {
                out.host_us_per_request.push(p.host_s / p.requests * 1e6);
            }
        }
        if (i as usize) < keep {
            out.kept.push(p);
            if i as usize + 1 == keep {
                // Later passes only add host samples; reading the peak here
                // keeps it independent of how many of them fit in the run.
                out.peak_rss_mib = peak_rss_mib();
            }
        }
        i += 1;
    }
    spans.set_active(traced);
    out
}

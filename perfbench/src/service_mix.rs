//! `service_mix`: one `QueryService` shared by four tenants. Three send
//! q1, q6, q12 and q3 as open-loop Poisson arrivals in virtual time over
//! a fixed ladder of rates that ends in an overload step; the fourth runs
//! a continuous query that pushes one micro-batch per virtual second for
//! the whole ladder. Each pass first runs every ad-hoc query alone after
//! `make_cold` (the cold probe, whose billing and trace spans are exact),
//! then the ladder.

use std::future::Future;
use std::pin::pin;
use std::task::Poll;
use std::time::Instant;

use lambada_core::{
    AggStrategy, Lambada, LambadaConfig, QueryService, ServiceConfig, TenantBudget,
};
use lambada_sim::{secs, SimRng};

use crate::check::same_result;
use crate::closed::{drive, time_planning, PassOut, Passes, Query};
use crate::data::{fresh_cloud, mix, Tpch};
use crate::ledger::{simulated_requests, Metric, QueryRun, TraceStats};
use crate::spans::Spans;
use crate::stats::{mean, median, tail};
use crate::stream::{run_stream, StreamInput};
use crate::{Args, Outcome};

const SCALE: f64 = 0.01;
const LINEITEM_FILES: usize = 6;
/// The service's global in-flight worker gate.
const WORKER_CAP: usize = 24;
/// Offered ad-hoc rates (queries per virtual second) and arrivals per
/// step, in order. The last step offers about twice what the service
/// sustains, so its completion rate measures the saturation throughput.
const LADDER: [(f64, usize); 4] = [(1.0, 48), (2.0, 48), (4.0, 48), (16.0, 192)];
/// Latency limit on the ad-hoc tail span that `max_rate_qps` honours.
pub const LATENCY_LIMIT_S: f64 = 3.0;
/// Rate whose spans `span_p50_s` / `span_tail_s` report.
const REFERENCE_RATE: f64 = 2.0;
const TENANTS: usize = 3;
const STREAM_EVENTS: usize = 200;
/// Cold-probe repetitions of each ad-hoc query per pass.
const COLD_REPS: usize = 3;
/// Passes whose virtual-clock results are kept.
const KEEP: usize = 2;

/// One ad-hoc arrival: offset from the step start, tenant, query index.
struct Arrival {
    offset_s: f64,
    tenant: usize,
    query: usize,
}

fn schedule(seed: u64, rate: f64, arrivals: usize, queries: usize) -> Vec<Arrival> {
    let rng = SimRng::new(seed);
    let mut t = 0.0;
    (0..arrivals)
        .map(|i| {
            t += rng.exponential(1.0 / rate);
            Arrival {
                offset_s: t,
                tenant: rng.range_u64(0, TENANTS as u64 - 1) as usize,
                query: i % queries,
            }
        })
        .collect()
}

/// What one rate step measured.
struct Step {
    /// Spans in arrival order, timed from each query's due time.
    spans: Vec<f64>,
    /// Virtual completion times, relative to the step start.
    done_s: Vec<f64>,
    runs: Vec<QueryRun>,
    /// Largest gap between a query's due time and its submission.
    late_s: f64,
}

impl Step {
    /// Median span of the last third of arrivals over the first third's:
    /// above 1 when the backlog grows during the step.
    fn growth(&self) -> f64 {
        let third = (self.spans.len() / 3).max(1);
        median(&self.spans[self.spans.len() - third..]) / median(&self.spans[..third]).max(1e-9)
    }

    /// Completions per virtual second between the first and last eighth
    /// of completions, which skips the ramp-up and the drain.
    fn throughput(&self) -> f64 {
        let mut done = self.done_s.clone();
        if done.len() < 2 {
            return 0.0;
        }
        done.sort_by(f64::total_cmp);
        let k = done.len() / 8;
        let (a, b) = (done[k], done[done.len() - 1 - k]);
        (done.len() - 1 - 2 * k) as f64 / (b - a).max(1e-9)
    }
}

/// Poll two futures to completion on the current task.
async fn join2<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    let (mut a, mut b) = (pin!(a), pin!(b));
    let (mut ra, mut rb) = (None, None);
    std::future::poll_fn(|cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await;
    (ra.expect("first future finished"), rb.expect("second future finished"))
}

/// Run every rate step in order; a step starts once the previous one
/// has drained.
async fn ladder(
    service: &QueryService,
    queries: &[Query],
    seed: u64,
    errors: &mut Vec<String>,
    attempted: &mut u64,
) -> Vec<Step> {
    let handle = service.system().cloud().handle.clone();
    let mut steps = Vec::new();
    for (si, &(rate, arrivals)) in LADDER.iter().enumerate() {
        let start = handle.now();
        let mut submitted = Vec::new();
        let mut late_s: f64 = 0.0;
        for a in schedule(mix(seed, si as u64), rate, arrivals, queries.len()) {
            let due = start + secs(a.offset_s);
            if handle.now() < due {
                handle.sleep_until(due).await;
            }
            late_s = late_s.max((handle.now() - due).as_secs_f64());
            let q = &queries[a.query];
            submitted.push((
                q,
                a.offset_s,
                service.submit(&format!("tenant{}", a.tenant), &q.plan),
            ));
        }
        let mut step = Step { spans: Vec::new(), done_s: Vec::new(), runs: Vec::new(), late_s };
        for (q, offset_s, h) in submitted {
            *attempted += 1;
            let checked = h.await.map_err(|e| e.to_string()).and_then(|report| {
                same_result(&report.batch, q.reference.as_ref().expect("real data"))
                    .map(|()| report)
            });
            match checked {
                Ok(report) => {
                    step.spans.push(report.span_secs);
                    step.done_s.push(offset_s + report.span_secs);
                    step.runs.push(QueryRun {
                        query: q.name,
                        cold: false,
                        report,
                        billed: Default::default(),
                        plan_host_s: 0.0,
                        trace: None,
                    });
                }
                Err(e) => errors.push(format!("{} at {rate} q/s: {e}", q.name)),
            }
        }
        steps.push(step);
    }
    steps
}

struct Mix {
    data: Tpch,
    queries: Vec<Query>,
    stream: StreamInput,
}

fn setup(seed: u64) -> Mix {
    let data = Tpch::generate(SCALE, mix(seed, 2), LINEITEM_FILES, false);
    let (_sim, cloud) = fresh_cloud(mix(seed, 1), 0);
    let mut system = Lambada::install(&cloud, config());
    for spec in data.stage(&cloud) {
        system.register_table(spec);
    }
    let _service = QueryService::with_config(system, service_config());
    let virtual_len: f64 = LADDER.iter().map(|&(r, n)| n as f64 / r).sum();
    let stream = StreamInput::generate(mix(seed, 3), virtual_len.ceil() as usize, STREAM_EVENTS);
    Mix { data, queries: Vec::new(), stream }
}

fn config() -> LambadaConfig {
    LambadaConfig {
        join_workers: Some(4),
        agg: AggStrategy::Exchange { workers: Some(2) },
        ..LambadaConfig::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_inflight_workers: WORKER_CAP,
        max_concurrent_queries: 8,
        shrink_fleets: true,
        default_budget: TenantBudget::default(),
    }
}

/// Everything a pass measured beyond [`PassOut`].
#[derive(Default)]
struct MixPass {
    steps: Vec<Step>,
    /// Billing delta of the ladder phase and the queries it ran.
    ladder_usd: f64,
    ladder_queries: usize,
}

fn pass(m: &Mix, seed: u64, pass: u64, spans: &Spans) -> (PassOut, MixPass) {
    let mut out = PassOut::default();
    let mut mp = MixPass::default();
    let (sim, cloud) = fresh_cloud(mix(seed, 100 + pass), 0);
    let mut system = Lambada::install(&cloud, config());
    for spec in m.data.stage(&cloud) {
        system.register_table(spec);
    }
    let service = QueryService::with_config(system, service_config());
    let t0 = Instant::now();
    // Cold probe: each query alone, so billing and trace are exact.
    let probes = m
        .queries
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| (0..COLD_REPS).map(move |r| (qi * COLD_REPS + r, q)));
    for (qi, q) in probes {
        out.attempted += 1;
        let qid = pass * 1000 + qi as u64;
        spans.time("core::invoke", "make_cold", qid, || service.system().make_cold());
        let run = time_planning(service.system(), &q.plan, spans, qid).and_then(|plan_host_s| {
            let trace_from = cloud.trace.len();
            let before = cloud.billing.snapshot();
            let start = cloud.handle.now();
            let t = Instant::now();
            let report = sim
                .block_on(service.run("probe", &q.plan))
                .map_err(|e| format!("{}: {e}", q.name))?;
            spans.record("core::service", "submit", qid, t, Instant::now());
            same_result(&report.batch, q.reference.as_ref().expect("real data"))
                .map_err(|e| format!("{}: {e}", q.name))?;
            let billed = cloud.billing.snapshot().since(&before);
            let trace =
                spans.enabled().then(|| TraceStats::of(&cloud.trace.events()[trace_from..], start));
            Ok(QueryRun { query: q.name, cold: true, report, billed, plan_host_s, trace })
        });
        match run {
            Ok(r) => out.runs.push(r),
            Err(e) => out.errors.push(e),
        }
    }
    // The ladder, with the stream tenant alongside.
    let before = cloud.billing.snapshot();
    let ladder_seed = mix(seed, 200 + pass);
    let mut errors = Vec::new();
    let mut attempted = 0;
    let t_ladder = Instant::now();
    let (steps, stream) = sim.block_on(join2(
        ladder(&service, &m.queries, ladder_seed, &mut errors, &mut attempted),
        run_stream(&service, &m.stream, 1.0, spans),
    ));
    spans.record("core::service", "ladder", pass, t_ladder, Instant::now());
    out.attempted += attempted + m.stream.batches.len() as u64;
    out.errors.extend(errors);
    mp.ladder_usd = cloud.billing.snapshot().since(&before).total();
    mp.ladder_queries = steps.iter().map(|s| s.runs.len()).sum::<usize>() + stream.reports.len();
    if let Some(e) = &stream.error {
        out.errors.push(e.clone());
    }
    out.streams.push(stream);
    mp.steps = steps;
    out.gate_peak = service.peak_inflight_workers();
    out.host_s = t0.elapsed().as_secs_f64();
    out.requests = simulated_requests(&cloud.billing.snapshot());
    (out, mp)
}

/// Highest rate the service sustains: its saturation throughput (the
/// backlog grows at any higher rate), lowered to where the pooled ad-hoc
/// tail crosses the latency limit if a rate below saturation already
/// misses it. The crossing is interpolated linearly on the tail between
/// the last ladder rate under the limit and the first one over it. The
/// overload step takes no part: its tail grows with its length.
fn max_rate(tails: &[f64], throughput: f64) -> f64 {
    let open = LADDER.len() - 1;
    let crossing = match (0..open).find(|&i| tails[i] > LATENCY_LIMIT_S) {
        None => f64::INFINITY,
        Some(0) => LADDER[0].0 * LATENCY_LIMIT_S / tails[0],
        Some(j) => {
            let (r0, r1) = (LADDER[j - 1].0, LADDER[j].0);
            r0 + (r1 - r0) * (LATENCY_LIMIT_S - tails[j - 1]) / (tails[j] - tails[j - 1])
        }
    };
    throughput.min(crossing)
}

pub fn run(args: &Args, spans: &Spans) -> Outcome {
    let (mut m, setup_times) = crate::timed_setup(spans, || setup(args.seed));
    m.queries = crate::workloads::with_references(
        &m.data,
        vec![
            ("q1", lambada_workloads::q1("lineitem")),
            ("q6", lambada_workloads::q6("lineitem")),
            ("q12", lambada_workloads::q12("lineitem", "orders")),
            ("q3", lambada_workloads::q3("lineitem", "orders")),
        ],
    );

    let mut mix_passes = Vec::new();
    let passes: Passes = drive(KEEP, args.seconds, args.trace, spans, |i| {
        let (p, mp) = pass(&m, args.seed, i, spans);
        if (i as usize) < KEEP {
            mix_passes.push(mp);
        }
        p
    });

    // Pool each rate step over the kept passes.
    let mut tails = Vec::new();
    let mut ref_spans = Vec::new();
    let mut late_s: f64 = 0.0;
    println!("--- service_mix ladder (latency limit {LATENCY_LIMIT_S} s on the tail)");
    for (si, &(rate, _)) in LADDER.iter().enumerate() {
        let steps: Vec<&Step> = mix_passes.iter().map(|p| &p.steps[si]).collect();
        let pooled: Vec<f64> = steps.iter().flat_map(|s| s.spans.iter().copied()).collect();
        let growth = mean(&steps.iter().map(|s| s.growth()).collect::<Vec<_>>());
        let (p, t) = tail(&pooled);
        late_s = steps.iter().map(|s| s.late_s).fold(late_s, f64::max);
        println!(
            "rate {rate:>4} q/s: p50 {:.3} s, p{p:.1} {t:.3} s of {} spans, backlog growth x{growth:.2}",
            median(&pooled),
            pooled.len()
        );
        tails.push(t);
        if rate == REFERENCE_RATE {
            ref_spans = pooled;
        }
    }
    let throughput = mean(
        &mix_passes.iter().map(|p| p.steps[LADDER.len() - 1].throughput()).collect::<Vec<_>>(),
    );
    println!("saturation throughput {throughput:.3} q/s; generator lateness max {late_s:.6} s");

    let cold: Vec<&QueryRun> = passes.runs().filter(|r| r.cold).collect();
    let lags: Vec<f64> = passes.streams().flat_map(|s| s.lags.iter().copied()).collect();
    let usd: f64 = mix_passes.iter().map(|p| p.ladder_usd).sum();
    let nq: usize = mix_passes.iter().map(|p| p.ladder_queries).sum();
    let (p, t) = tail(&ref_spans);
    let mut out = Outcome {
        attempted: passes.attempted,
        errors: passes.errors.clone(),
        host: Some(crate::host_metric(&passes)),
        ..Outcome::default()
    };
    out.e2e = vec![
        Metric::new(
            "setup_s",
            median(&setup_times),
            "s",
            format!("median of {} set-ups", setup_times.len()),
        ),
        Metric::new("peak_rss_mib", passes.peak_rss_mib, "MiB", "VmHWM after the kept passes"),
        Metric::new(
            "span_p50_s",
            median(&ref_spans),
            "s",
            format!("ad-hoc at {REFERENCE_RATE} q/s, {} spans", ref_spans.len()),
        ),
        Metric::new(
            "span_tail_s",
            t,
            "s",
            format!("ad-hoc at {REFERENCE_RATE} q/s, p{p:.1} of {} spans", ref_spans.len()),
        ),
        Metric::new(
            "cold_span_p50_s",
            crate::pass_median(&passes, true),
            "s",
            format!(
                "median over {} passes of the mean cold-probe span, {} spans",
                passes.kept.len(),
                cold.len()
            ),
        ),
        Metric::new(
            "usd_per_query",
            usd / nq.max(1) as f64,
            "USD",
            format!("ladder billing delta over {nq} ad-hoc and stream queries"),
        ),
        Metric::new(
            "max_rate_qps",
            max_rate(&tails, throughput),
            "1/s",
            format!("saturation throughput; {LATENCY_LIMIT_S} s tail limit below saturation"),
        ),
        Metric::new(
            "stream_lag_p50_s",
            median(&lags),
            "s",
            format!("median over {} micro-batches", lags.len()),
        ),
    ];
    if args.trace {
        let replays =
            crate::replay::replay(m.data.table("lineitem"), m.data.table("orders"), spans);
        let ladder: Vec<&QueryRun> =
            mix_passes.iter().flat_map(|p| p.steps.iter().flat_map(|s| s.runs.iter())).collect();
        let admission = ladder.iter().map(|r| r.report.span_secs - r.report.latency_secs).collect();
        let runs: Vec<&QueryRun> = cold.iter().copied().chain(ladder).collect();
        out.layers = crate::common_layers(&passes, &runs, &cold, admission, replays);
    }
    out
}

//! End-to-end and per-layer benchmark of the Lambada reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_scan|join_shuffle|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The system runs on two clocks and the benchmark reports both: virtual
//! seconds and dollars from the simulator (what the paper reports;
//! fixed for a seed), and host wall seconds spent in the engine, format
//! and simulator code. Every run checks its results against the
//! reference executor. The last line of standard output is one JSON
//! object: `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records the benchmark's spans in every other pass, reports the
//! per-layer metrics and the tracing overhead, and writes the spans as
//! Chrome trace-event JSON under `.perfbench_out/`. See
//! `perfbench/WORKLOADS.md` for what each workload and metric means.

mod check;
mod closed;
mod data;
mod ledger;
mod replay;
mod service_mix;
mod spans;
mod stats;
mod stream;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use closed::Passes;
use ledger::{layer_metrics, Metric, QueryRun};
use spans::Spans;
use stats::{mean, median, tail};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    /// `host_s`: printed with the end-to-end metrics but reported, not
    /// gated (see `perfbench/WORKLOADS.md`), and a per-layer metric.
    pub host: Option<Metric>,
    pub layers: Vec<Metric>,
}

/// Set-up is repeated at least this often, and for at least
/// [`SETUP_MIN_SECS`]; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 1.0;

/// Time repeated set-ups and keep the last one built.
fn timed_setup<T>(spans: &Spans, f: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut built = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(f());
        let t1 = Instant::now();
        spans.record("workloads", "setup", 0, t0, t1);
        times.push(t1.duration_since(t0).as_secs_f64());
    }
    (built.expect("at least one set-up"), times)
}

/// Median over the kept passes of each pass's mean span over its cold
/// (or hot) runs: every query of the mix weighs the same, and the bimodal
/// spans of single queries (exchange discovery backoff) average out
/// within a pass instead of flipping a per-query median.
fn pass_median(passes: &Passes, cold: bool) -> f64 {
    let means: Vec<f64> = passes
        .kept
        .iter()
        .map(|p| {
            mean(
                &p.runs.iter().filter(|r| r.cold == cold).map(QueryRun::span_s).collect::<Vec<_>>(),
            )
        })
        .collect();
    median(&means)
}

/// `span_tail_s` with its percentile and sample count.
fn tail_metric(spans: &[f64]) -> Metric {
    let (p, v) = tail(spans);
    Metric::new("span_tail_s", v, "s", format!("p{p:.1} of {} spans", spans.len()))
}

fn host_metric(passes: &Passes) -> Metric {
    Metric::new(
        "host_s",
        median(&passes.host_untraced),
        "s",
        format!(
            "median host seconds per pass over {} untraced passes {:.3?}",
            passes.host_untraced.len(),
            passes.host_untraced
        ),
    )
}

/// Per-layer metrics of the stream tenant and the service it ran on.
fn stream_layers(passes: &Passes) -> Vec<Metric> {
    let streams: Vec<_> = passes.streams().collect();
    let batch_spans: Vec<f64> =
        streams.iter().flat_map(|s| s.reports.iter().map(|r| r.span_secs)).collect();
    let puts: Vec<f64> = streams
        .iter()
        .flat_map(|s| {
            s.reports.iter().map(|r| r.stages.iter().map(|st| st.put_requests as f64).sum())
        })
        .collect();
    vec![
        Metric::new(
            "streaming.batch_span_s",
            median(&batch_spans),
            "s",
            format!("median over {} micro-batches", batch_spans.len()),
        ),
        Metric::new(
            "streaming.late_events",
            mean(&streams.iter().map(|s| s.late_events as f64).collect::<Vec<_>>()),
            "count",
            "mean per stream",
        ),
        Metric::new(
            "streaming.carried_groups",
            median(
                &streams.iter().flat_map(|s| s.carried_groups.iter().copied()).collect::<Vec<_>>(),
            ),
            "count",
            "median after each batch",
        ),
        Metric::new("streaming.put_requests", mean(&puts), "count", "mean per micro-batch"),
    ]
}

/// Per-layer metrics common to every workload: counters, planning,
/// simulator host cost, the service and stream tenants, kernel replays
/// and the tracing overhead. `runs` are the queries whose reports feed
/// the counters, `billed` those that ran alone, and `admission` the
/// admission waits of service-submitted queries beyond the stream's.
fn common_layers(
    passes: &Passes,
    runs: &[&QueryRun],
    billed: &[&QueryRun],
    mut admission: Vec<f64>,
    replays: Vec<Metric>,
) -> Vec<Metric> {
    let mut out = vec![host_metric(passes)];
    out.extend(layer_metrics(runs, billed));
    let planned: Vec<f64> =
        runs.iter().filter(|r| r.plan_host_s > 0.0).map(|r| r.plan_host_s * 1e3).collect();
    out.push(Metric::new(
        "plan.host_ms_per_query",
        median(&planned),
        "ms",
        format!("median plan + verify_plan over {} queries", planned.len()),
    ));
    out.push(Metric::new(
        "sim.host_us_per_request",
        median(&passes.host_us_per_request),
        "us",
        "median over untraced passes of host_s / simulated requests",
    ));
    admission.extend(
        passes.streams().flat_map(|s| s.reports.iter().map(|r| r.span_secs - r.latency_secs)),
    );
    out.push(Metric::new(
        "service.admission_wait_s",
        mean(&admission),
        "s",
        format!("mean span minus latency over {} service queries", admission.len()),
    ));
    out.push(Metric::new(
        "service.gate_peak_inflight",
        passes.kept.iter().map(|p| p.gate_peak).max().unwrap_or(0) as f64,
        "count",
        "peak in-flight workers on the service gate",
    ));
    out.extend(stream_layers(passes));
    out.extend(replays);
    let overhead = median(&passes.host_traced) - median(&passes.host_untraced);
    out.push(Metric::new(
        "bench.trace_overhead_s",
        overhead,
        "s",
        format!(
            "median traced pass ({}) minus median untraced pass ({})",
            passes.host_traced.len(),
            passes.host_untraced.len()
        ),
    ));
    out
}

/// A closed-loop workload end to end.
fn run_closed(
    args: &Args,
    spans: &Spans,
    build: impl Fn() -> workloads::Closed,
    keep: usize,
) -> Outcome {
    let (workload, setup) = timed_setup(spans, build);
    let workload = workload.with_queries();
    let passes = workload.run(args, keep, spans);
    let runs: Vec<&QueryRun> = passes.runs().collect();
    let hot: Vec<&QueryRun> = runs.iter().copied().filter(|r| !r.cold).collect();
    let cold: Vec<&QueryRun> = runs.iter().copied().filter(|r| r.cold).collect();
    let all_spans: Vec<f64> = runs.iter().map(|r| r.span_s()).collect();
    let lags: Vec<f64> = passes.streams().flat_map(|s| s.lags.iter().copied()).collect();
    let busy: f64 = all_spans.iter().sum();
    for q in &workload.queries {
        let of = |cold: bool| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.query == q.name && r.cold == cold)
                .map(|r| r.span_s())
                .collect()
        };
        let (c, h) = (of(true), of(false));
        println!(
            "{:<4} cold p50 {:.3} s over {} runs, hot p50 {:.3} s over {} runs: {:.2?}",
            q.name,
            median(&c),
            c.len(),
            median(&h),
            h.len(),
            h
        );
    }
    let mut out = Outcome {
        attempted: passes.attempted,
        errors: passes.errors.clone(),
        host: Some(host_metric(&passes)),
        ..Outcome::default()
    };
    out.e2e = vec![
        Metric::new("setup_s", median(&setup), "s", format!("median of {} set-ups", setup.len())),
        Metric::new("peak_rss_mib", passes.peak_rss_mib, "MiB", "VmHWM after the kept passes"),
        Metric::new(
            "span_p50_s",
            pass_median(&passes, false),
            "s",
            format!(
                "median over {} passes of the mean hot span, {} spans",
                passes.kept.len(),
                hot.len()
            ),
        ),
        tail_metric(&all_spans),
        Metric::new(
            "cold_span_p50_s",
            pass_median(&passes, true),
            "s",
            format!(
                "median over {} passes of the mean cold span, {} spans",
                passes.kept.len(),
                cold.len()
            ),
        ),
        Metric::new(
            "usd_per_query",
            mean(&runs.iter().map(|r| r.billed.total()).collect::<Vec<_>>()),
            "USD",
            format!("mean billing delta over {} queries", runs.len()),
        ),
        Metric::new(
            "max_rate_qps",
            runs.len() as f64 / busy.max(1e-9),
            "1/s",
            "closed loop, one client: queries per virtual second",
        ),
        Metric::new(
            "stream_lag_p50_s",
            median(&lags),
            "s",
            format!("median over {} probe micro-batches", lags.len()),
        ),
    ];
    if args.trace {
        let replays = match workload.real_data() {
            Some(d) => replay::replay(d.table("lineitem"), d.table("orders"), spans),
            None => {
                let d = data::Tpch::generate(0.01, data::mix(args.seed, 9), 4, false);
                replay::replay(d.table("lineitem"), d.table("orders"), spans)
            }
        };
        out.layers = common_layers(&passes, &runs, &runs, Vec::new(), replays);
    }
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("--- {title}");
    for m in metrics {
        println!("{:<40} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new(args.trace);
    let begin = Instant::now();
    let outcome = match args.workload.as_str() {
        "paper_scan" => run_closed(&args, &spans, || workloads::paper_scan(args.seed), 7),
        "join_shuffle" => run_closed(&args, &spans, || workloads::join_shuffle(args.seed), 6),
        "service_mix" => service_mix::run(&args, &spans),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let failed = outcome.errors.len() as u64;
    let attempted = outcome.attempted.max(1);
    println!(
        "workload {} seed {} ({:.1} s host)",
        args.workload,
        args.seed,
        begin.elapsed().as_secs_f64()
    );
    print_metrics("end-to-end", &outcome.e2e);
    if let Some(host) = &outcome.host {
        print_metrics("host clock, reported but not gated", std::slice::from_ref(host));
    }
    println!(
        "{:<40} {:>16.6} {:<8} {failed} of {attempted} operations",
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio"
    );
    for e in outcome.errors.iter().take(10) {
        println!("ERROR {e}");
    }
    let reported = if args.trace {
        print_metrics("per-layer", &outcome.layers);
        std::fs::create_dir_all(".perfbench_out")
            .and_then(|()| {
                let path = format!(".perfbench_out/trace-{}-{}.json", args.workload, args.seed);
                std::fs::write(&path, spans.chrome_json())?;
                println!("wrote {} spans to {path}", spans.len());
                Ok(())
            })
            .unwrap_or_else(|e| eprintln!("perfbench: trace export failed: {e}"));
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!("{}", json_result(failed == 0, attempted, failed, reported));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! What the benchmark keeps about each query, and the per-layer metrics
//! it derives from that: `QueryReport`/`StageReport`/`WorkerMetrics`
//! counters, billing deltas, and the simulator's trace spans.

use lambada_core::QueryReport;
use lambada_sim::{BillingSnapshot, CostItem, SimTime, TraceEvent};

use crate::stats::{mean, median};

/// One metric as printed: value, unit, and how it was aggregated.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric { name, value, unit, note: note.into() }
    }
}

/// Simulator spans that fell inside one query's window.
#[derive(Default)]
pub struct TraceStats {
    /// Query start → last worker handler running.
    pub launch_s: f64,
    /// Durations of the cold-start inits.
    pub faas_init_s: Vec<f64>,
    /// Worker-seconds in each exchange phase, summed over the fleet.
    pub exchange_write_s: f64,
    pub exchange_wait_s: f64,
    pub exchange_read_s: f64,
}

impl TraceStats {
    /// Attribute `events` (recorded while only this query ran) to a query
    /// that started at `start`.
    pub fn of(events: &[TraceEvent], start: SimTime) -> TraceStats {
        let mut t = TraceStats::default();
        let mut last_running = start;
        for e in events {
            let d = e.duration_secs();
            match e.label {
                "worker_running" => last_running = last_running.max(e.start),
                "faas_init" => t.faas_init_s.push(d),
                "exchange_write" => t.exchange_write_s += d,
                "exchange_wait" => t.exchange_wait_s += d,
                "exchange_read" => t.exchange_read_s += d,
                _ => {}
            }
        }
        t.launch_s = (last_running - start).as_secs_f64();
        t
    }
}

/// One finished query.
pub struct QueryRun {
    pub query: &'static str,
    pub cold: bool,
    pub report: QueryReport,
    /// Billing delta over the query's window. Exact when the query ran
    /// alone; under concurrency it includes neighbours' requests.
    pub billed: BillingSnapshot,
    /// Host seconds spent in planning and static verification.
    pub plan_host_s: f64,
    /// Present in traced runs for queries that ran alone.
    pub trace: Option<TraceStats>,
}

impl QueryRun {
    pub fn span_s(&self) -> f64 {
        self.report.span_secs
    }

    /// Workers that read table row groups: the scan fleets.
    fn scan_workers(&self) -> impl Iterator<Item = &lambada_core::WorkerMetrics> {
        self.report.worker_metrics.iter().filter(|m| m.row_groups_scanned + m.row_groups_pruned > 0)
    }

    fn is_scan_stage(label: &str) -> bool {
        label.starts_with("scan:")
    }

    /// Bytes that moved over exchange edges.
    pub fn shuffled_bytes(&self) -> u64 {
        self.report.stages.iter().map(|s| s.bytes_exchanged).sum()
    }

    /// S3 requests of exchange edges and result uploads: every request
    /// except the scan stages' table GETs.
    pub fn exchange_requests(&self) -> u64 {
        self.report
            .stages
            .iter()
            .map(|s| {
                let gets = if Self::is_scan_stage(&s.label) { 0 } else { s.get_requests };
                gets + s.put_requests + s.list_requests
            })
            .sum()
    }

    /// S3 requests the billing ledger saw in this query's window that no
    /// stage counter accounts for (exact only when the query ran alone).
    pub fn unattributed_s3_requests(&self) -> f64 {
        let billed = self.billed.units(CostItem::S3Get)
            + self.billed.units(CostItem::S3Put)
            + self.billed.units(CostItem::S3List);
        billed - self.report.s3_requests() as f64
    }
}

/// Simulated requests of every kind in a billing delta.
pub fn simulated_requests(b: &BillingSnapshot) -> f64 {
    [
        CostItem::LambdaRequests,
        CostItem::S3Get,
        CostItem::S3Put,
        CostItem::S3List,
        CostItem::SqsRequests,
        CostItem::KvReads,
        CostItem::KvWrites,
    ]
    .iter()
    .map(|&i| b.units(i))
    .sum()
}

fn per_query<F: Fn(&QueryRun) -> f64>(runs: &[&QueryRun], f: F) -> f64 {
    mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Per-layer metrics every workload reports, from the queries it ran.
/// `billed` holds the runs whose billing delta is exact (queries that
/// ran alone). Trace-derived metrics use the runs carrying [`TraceStats`].
pub fn layer_metrics(runs: &[&QueryRun], billed: &[&QueryRun]) -> Vec<Metric> {
    let n = runs.len();
    let note = |what: &str| format!("{what} over {n} queries");
    let traced: Vec<&TraceStats> = runs.iter().filter_map(|r| r.trace.as_ref()).collect();
    let nt = traced.len();
    let tnote = |what: &str| format!("{what} over {nt} queries run alone");
    let scan_rgs = |r: &QueryRun| -> (f64, f64) {
        r.scan_workers().fold((0.0, 0.0), |(p, s), m| {
            (p + m.row_groups_pruned as f64, s + m.row_groups_scanned as f64)
        })
    };
    let (pruned, scanned) =
        runs.iter().map(|r| scan_rgs(r)).fold((0.0, 0.0), |(p, s), (a, b)| (p + a, s + b));
    let processing: Vec<f64> =
        runs.iter().flat_map(|r| r.scan_workers().map(|m| m.processing_secs)).collect();
    let shuffled_mib: f64 = runs.iter().map(|r| r.shuffled_bytes() as f64).sum::<f64>() / MIB;
    let exch_requests: f64 = runs.iter().map(|r| r.exchange_requests() as f64).sum();
    let bn = billed.len().max(1) as f64;
    let bill = |item: CostItem| billed.iter().map(|r| r.billed.units(item)).sum::<f64>() / bn;
    let bnote = format!("mean billing delta over {} queries run alone", billed.len());
    let stage_sum = |r: &QueryRun, f: fn(&lambada_core::StageReport) -> f64| -> f64 {
        r.report.stages.iter().map(f).sum()
    };
    vec![
        Metric::new(
            "invoke.launch_s",
            median(&traced.iter().map(|t| t.launch_s).collect::<Vec<_>>()),
            "s",
            tnote("median"),
        ),
        Metric::new(
            "invoke.cold_starts",
            per_query(runs, |r| r.report.cold_starts as f64),
            "count",
            note("mean"),
        ),
        Metric::new(
            "sim.faas_init_s",
            median(&traced.iter().flat_map(|t| t.faas_init_s.iter().copied()).collect::<Vec<_>>()),
            "s",
            "median cold-start init span",
        ),
        Metric::new(
            "scan.get_requests",
            per_query(runs, |r| r.scan_workers().map(|m| m.get_requests as f64).sum()),
            "count",
            note("mean"),
        ),
        Metric::new(
            "scan.mib_read",
            per_query(runs, |r| r.scan_workers().map(|m| m.bytes_read as f64).sum::<f64>() / MIB),
            "MiB",
            note("mean"),
        ),
        Metric::new(
            "scan.rowgroup_pruned_ratio",
            if pruned + scanned > 0.0 { pruned / (pruned + scanned) } else { 0.0 },
            "ratio",
            note("pooled"),
        ),
        Metric::new(
            "scan.processing_s",
            median(&processing),
            "s",
            format!("median over {} scan workers", processing.len()),
        ),
        Metric::new("sim.s3_get", bill(CostItem::S3Get), "count", bnote.clone()),
        Metric::new("sim.s3_put", bill(CostItem::S3Put), "count", bnote.clone()),
        Metric::new("sim.s3_list", bill(CostItem::S3List), "count", bnote.clone()),
        Metric::new("sim.sqs_requests", bill(CostItem::SqsRequests), "count", bnote.clone()),
        Metric::new(
            "sim.lambda_invocations",
            bill(CostItem::LambdaRequests),
            "count",
            bnote.clone(),
        ),
        Metric::new("sim.lambda_gib_s", bill(CostItem::LambdaGibSeconds), "GiB-s", bnote),
        Metric::new(
            "exchange.write_s",
            mean(&traced.iter().map(|t| t.exchange_write_s).collect::<Vec<_>>()),
            "worker-s",
            tnote("mean"),
        ),
        Metric::new(
            "exchange.wait_s",
            mean(&traced.iter().map(|t| t.exchange_wait_s).collect::<Vec<_>>()),
            "worker-s",
            tnote("mean"),
        ),
        Metric::new(
            "exchange.read_s",
            mean(&traced.iter().map(|t| t.exchange_read_s).collect::<Vec<_>>()),
            "worker-s",
            tnote("mean"),
        ),
        Metric::new(
            "exchange.poll_wait_worker_s",
            per_query(runs, |r| stage_sum(r, |s| s.exchange_wait_secs)),
            "worker-s",
            note("mean"),
        ),
        Metric::new("exchange.mib_shuffled", shuffled_mib / n.max(1) as f64, "MiB", note("mean")),
        Metric::new(
            "exchange.requests_per_mib",
            if shuffled_mib > 0.0 { exch_requests / shuffled_mib } else { 0.0 },
            "1/MiB",
            note("pooled"),
        ),
        Metric::new(
            "sched.queue_wait_s",
            median(&runs.iter().map(|r| stage_sum(r, |s| s.queue_wait_secs)).collect::<Vec<_>>()),
            "s",
            note("median of stage sum"),
        ),
        Metric::new(
            "sched.exec_s",
            median(&runs.iter().map(|r| stage_sum(r, |s| s.exec_secs)).collect::<Vec<_>>()),
            "s",
            note("median of stage sum"),
        ),
        Metric::new(
            "driver.collect_s",
            median(
                &runs
                    .iter()
                    .map(|r| {
                        let last = r.report.stages.iter().map(|s| s.wall_secs).fold(0.0, f64::max);
                        (r.report.latency_secs - last).max(0.0)
                    })
                    .collect::<Vec<_>>(),
            ),
            "s",
            note("median of latency minus last stage"),
        ),
        Metric::new(
            "driver.backup_invocations",
            per_query(runs, |r| r.report.backup_invocations() as f64),
            "count",
            note("mean"),
        ),
        Metric::new(
            "driver.unattributed_s3_requests",
            billed.iter().map(|r| r.unattributed_s3_requests()).sum::<f64>() / bn,
            "count",
            format!("mean over {} queries run alone", billed.len()),
        ),
        Metric::new(
            "service.workers_per_query",
            per_query(runs, |r| r.report.workers as f64),
            "count",
            note("mean"),
        ),
    ]
}

pub const MIB: f64 = 1024.0 * 1024.0;

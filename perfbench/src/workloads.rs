//! The two closed-loop workloads: one client runs every query of the mix
//! cold (after `make_cold`) and then hot, one at a time, followed by a
//! short stream probe on the same installation.
//!
//! * `paper_scan` — Q1 and Q6 over a paper-scale descriptor LINEITEM
//!   (SF 1000, 1280 files, one file per worker, as in Fig 12).
//! * `join_shuffle` — real-data multi-stage TPC-H queries with exchange
//!   aggregation and distributed sort over the object-store transport.

use std::time::Instant;

use lambada_core::{
    AggStrategy, Lambada, LambadaConfig, QueryService, SortStrategy, TableSpec, TransportKind,
};
use lambada_engine::logical::LogicalPlan;
use lambada_engine::Optimizer;
use lambada_format::ChunkStats;
use lambada_sim::services::object_store::Body;
use lambada_sim::Cloud;
use lambada_workloads::lineitem::{cols, dates};
use lambada_workloads::{stage_descriptors, DescriptorOptions};

use crate::closed::{drive, run_alone, PassOut, Passes, Query};
use crate::data::{fresh_cloud, mix, Tpch, BUCKET};
use crate::ledger::{simulated_requests, QueryRun};
use crate::spans::Spans;
use crate::stream::{run_stream, StreamInput};
use crate::Args;

/// Paper-scale descriptor table: SF 1000 in 1280 files.
const PAPER_SCALE: f64 = 1000.0;
const PAPER_FILES: usize = 1280;
/// Real-data scale factor of `join_shuffle`.
const JOIN_SCALE: f64 = 0.05;
const JOIN_LINEITEM_FILES: usize = 12;
/// Stream probe after every pass: batches x events.
const PROBE_BATCHES: usize = 8;
const PROBE_EVENTS: usize = 200;

/// Where a pass's tables come from.
enum Tables {
    /// Paper-scale descriptor files (synthetic objects plus footers) and
    /// the `(rows_in, row groups scanned, pruned)` each query must report.
    Descriptor { spec: TableSpec, expected: Vec<(&'static str, (u64, u64, u64))> },
    /// Real generated tables, also the kernel replays' input.
    Real(Tpch),
}

/// A closed-loop workload, ready to run passes.
pub struct Closed {
    tables: Tables,
    config: LambadaConfig,
    min_concurrency: usize,
    pub queries: Vec<Query>,
    /// Hot runs of each query per pass, after its cold run.
    hot_reps: usize,
    stream: StreamInput,
}

/// Row groups a Q1/Q6 scan must read on the descriptor table, from the
/// ship-date statistics of its footers: `(rows, scanned, pruned)`.
fn expected_scan(spec: &TableSpec, keep: impl Fn(i64, i64) -> bool) -> (u64, u64, u64) {
    let mut out = (0, 0, 0);
    for f in &spec.files {
        for rg in &f.meta.as_ref().expect("descriptor footer").row_groups {
            let Some(ChunkStats::I64 { min, max }) = rg.columns[cols::SHIPDATE].stats else {
                continue;
            };
            if keep(min, max) {
                out.0 += rg.num_rows;
                out.1 += 1;
            } else {
                out.2 += 1;
            }
        }
    }
    out
}

/// Set up `paper_scan`: the descriptor table, staged once and installed,
/// plus the stream probe's input.
pub fn paper_scan(seed: u64) -> Closed {
    let (_sim, cloud) = fresh_cloud(mix(seed, 1), PAPER_FILES + 64);
    let opts = DescriptorOptions {
        scale: PAPER_SCALE,
        num_files: PAPER_FILES,
        seed: mix(seed, 2),
        ..DescriptorOptions::default()
    };
    let spec = stage_descriptors(&cloud, BUCKET, "lineitem", &opts);
    let config = LambadaConfig::default();
    let _system = Lambada::install(&cloud, config.clone());
    Closed {
        tables: Tables::Descriptor { spec, expected: Vec::new() },
        config,
        min_concurrency: PAPER_FILES + 64,
        queries: Vec::new(),
        hot_reps: 1,
        stream: StreamInput::generate(mix(seed, 3), PROBE_BATCHES, PROBE_EVENTS),
    }
}

/// Set up `join_shuffle`: LINEITEM, ORDERS and CUSTOMER at SF 0.05,
/// generated, encoded, staged once and installed, plus the stream
/// probe's input.
pub fn join_shuffle(seed: u64) -> Closed {
    let data = Tpch::generate(JOIN_SCALE, mix(seed, 2), JOIN_LINEITEM_FILES, true);
    let config = LambadaConfig {
        agg: AggStrategy::Exchange { workers: None },
        sort: SortStrategy::Exchange { workers: None },
        transport: TransportKind::ObjectStore,
        ..LambadaConfig::default()
    };
    let (_sim, cloud) = fresh_cloud(mix(seed, 1), 0);
    let mut system = Lambada::install(&cloud, config.clone());
    for spec in data.stage(&cloud) {
        system.register_table(spec);
    }
    Closed {
        tables: Tables::Real(data),
        config,
        min_concurrency: 0,
        queries: Vec::new(),
        hot_reps: 2,
        stream: StreamInput::generate(mix(seed, 3), PROBE_BATCHES, PROBE_EVENTS),
    }
}

/// `queries` with reference results from the local executor over the same
/// generated columns.
pub fn with_references(data: &Tpch, queries: Vec<(&'static str, LogicalPlan)>) -> Vec<Query> {
    let cat = data.catalog();
    queries
        .into_iter()
        .map(|(name, plan)| {
            let optimized = Optimizer::new().optimize(&plan).expect("optimizes");
            let reference =
                lambada_engine::execute_into_batch(&optimized, &cat).expect("reference runs");
            Query { name, plan, reference: Some(reference) }
        })
        .collect()
}

impl Closed {
    /// Attach the query mix and what each query must return: reference
    /// results on real tables, pruning counts on the descriptor table.
    /// Runs after set-up, untimed.
    pub fn with_queries(mut self) -> Closed {
        match &mut self.tables {
            Tables::Descriptor { spec, expected } => {
                *expected = vec![
                    ("q1", expected_scan(spec, |min, _| min <= dates::Q1_CUTOFF)),
                    (
                        "q6",
                        expected_scan(spec, |min, max| {
                            max >= dates::Q6_START && min < dates::Q6_END
                        }),
                    ),
                ];
                self.queries = vec![
                    Query { name: "q1", plan: lambada_workloads::q1("lineitem"), reference: None },
                    Query { name: "q6", plan: lambada_workloads::q6("lineitem"), reference: None },
                ];
            }
            Tables::Real(data) => {
                self.queries = with_references(
                    data,
                    vec![
                        ("q1", lambada_workloads::q1("lineitem")),
                        ("q12", lambada_workloads::q12("lineitem", "orders")),
                        ("q3", lambada_workloads::q3("lineitem", "orders")),
                        ("q4", lambada_workloads::q4("lineitem", "orders")),
                        ("q21", lambada_workloads::q21("lineitem", "orders")),
                        ("q5", lambada_workloads::q5("lineitem", "orders", "customer")),
                    ],
                );
            }
        }
        self
    }

    /// Real tables, when the workload has them.
    pub fn real_data(&self) -> Option<&Tpch> {
        match &self.tables {
            Tables::Real(data) => Some(data),
            Tables::Descriptor { .. } => None,
        }
    }

    /// Stage the tables into a pass's fresh cloud; the bytes are shared.
    fn stage(&self, cloud: &Cloud) -> Vec<TableSpec> {
        match &self.tables {
            Tables::Descriptor { spec, .. } => {
                for f in &spec.files {
                    cloud.s3.stage(&f.bucket, &f.key, Body::Synthetic(f.size));
                }
                vec![spec.clone()]
            }
            Tables::Real(data) => data.stage(cloud),
        }
    }

    /// On the descriptor table, the scan must read exactly the row groups
    /// its footers leave after pruning, and every worker must report.
    fn check_scan(&self, run: &QueryRun) -> Result<(), String> {
        let Tables::Descriptor { expected, .. } = &self.tables else {
            return Ok(());
        };
        let want = expected.iter().find(|(q, _)| *q == run.query).map(|(_, e)| *e);
        let m = &run.report.worker_metrics;
        let got = (
            m.iter().map(|w| w.rows_in).sum::<u64>(),
            m.iter().map(|w| w.row_groups_scanned).sum::<u64>(),
            m.iter().map(|w| w.row_groups_pruned).sum::<u64>(),
        );
        if m.len() != run.report.workers {
            return Err(format!(
                "{}: {} of {} workers reported",
                run.query,
                m.len(),
                run.report.workers
            ));
        }
        if Some(got) != want {
            return Err(format!(
                "{}: (rows_in, scanned, pruned) {got:?} != descriptor {want:?}",
                run.query
            ));
        }
        Ok(())
    }

    /// One pass: a fresh cloud seeded for `pass`, every query cold and
    /// then `hot_reps` times hot, then the stream probe at one micro-batch
    /// per virtual second.
    fn pass(&self, seed: u64, pass: u64, spans: &Spans) -> PassOut {
        let mut out = PassOut::default();
        let (sim, cloud) = fresh_cloud(mix(seed, 100 + pass), self.min_concurrency);
        let mut system = Lambada::install(&cloud, self.config.clone());
        for spec in self.stage(&cloud) {
            system.register_table(spec);
        }
        let t0 = Instant::now();
        for (qi, q) in self.queries.iter().enumerate() {
            for rep in 0..=self.hot_reps {
                let cold = rep == 0;
                out.attempted += 1;
                let qid = pass * 1000 + (qi * (self.hot_reps + 1) + rep) as u64;
                match run_alone(&sim, &system, q, cold, spans, qid)
                    .and_then(|r| self.check_scan(&r).map(|()| r))
                {
                    Ok(r) => out.runs.push(r),
                    Err(e) => out.errors.push(e),
                }
            }
        }
        let service = QueryService::new(system);
        let stream = sim.block_on(run_stream(&service, &self.stream, 1.0, spans));
        out.attempted += self.stream.batches.len() as u64;
        if let Some(e) = &stream.error {
            out.errors.push(e.clone());
        }
        out.streams.push(stream);
        out.gate_peak = service.peak_inflight_workers();
        out.host_s = t0.elapsed().as_secs_f64();
        out.requests = simulated_requests(&cloud.billing.snapshot());
        if spans.enabled() && pass == 0 {
            spans.add_virtual(pass, &cloud.trace.events());
        }
        out
    }

    /// Run passes for the run's time budget; the first `keep` feed the
    /// virtual-clock metrics.
    pub fn run(&self, args: &Args, keep: usize, spans: &Spans) -> Passes {
        drive(keep, args.seconds, args.trace, spans, |i| self.pass(args.seed, i, spans))
    }
}

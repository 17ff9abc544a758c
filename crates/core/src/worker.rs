//! The serverless worker: event handler + execution engine wrapper (§3.3).
//!
//! The handler extracts the worker id, plan fragment, and inputs from the
//! invocation payload, invokes its second-generation children (if any),
//! runs the fragment, and posts a success or error message to the result
//! queue — including out-of-memory situations, which are *reported* rather
//! than dying silently.
//!
//! Every query stage runs the same shape, a [`StageTask`]: an input
//! (table files, one edge of rows, one edge of agg shards, or the build
//! and probe edges of a join) drained into a [`Pipeline`], whose output
//! leaves through a sink (the driver, an exchange edge, a sort edge, or
//! carried agg state).

use std::rc::Rc;

use lambada_engine::agg::GroupedAggState;
use lambada_engine::join::JoinState;
use lambada_engine::logical::SortKey;
use lambada_engine::physical::{
    agg_state_to_batch, range_boundaries, range_partition_batch, sort_key_columns,
};
use lambada_engine::pipeline::{Pipeline, PipelineOutput, PipelineSpec, Terminal};
use lambada_engine::types::{DataType, Schema, SchemaRef};
use lambada_engine::{AggFunc, Expr, JoinVariant, RecordBatch, Scalar};
use lambada_sim::services::faas::{FaasService, FunctionSpec, InstanceCtx, InvokePayload};
use lambada_sim::services::object_store::Body;
use lambada_sim::sync::mpsc;
use lambada_sim::Cloud;

use crate::costmodel::ComputeCostModel;
use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange::{run_exchange, EdgeReadStats, ExchangeConfig, ExchangeSide, PartData};
use crate::invoke;
use crate::message::{ResultPayload, WorkerMetrics, WorkerResult};
use crate::scan::{scan_table, ScanConfig, ScanItem};
use crate::table::TableFile;
use crate::transport::{EdgeWriteStats, ExchangeTransport};

/// Standalone exchange task (Table 3 / Fig 13 experiments).
#[derive(Clone)]
pub struct ExchangeTask {
    pub cfg: ExchangeConfig,
    pub total: usize,
    /// Bytes this worker holds, split evenly over all destinations
    /// (modeled payloads).
    pub data_bytes: u64,
    /// Optional input object to read first (the "Read input" phase of
    /// Fig 13).
    pub input: Option<(String, String)>,
    pub side: ExchangeSide,
}

/// The scan half of a scan stage, shared across its fleet.
#[derive(Clone, Debug)]
pub struct TableScan {
    pub base_schema: Schema,
    /// Base-schema column indices the scan must produce (ascending).
    pub scan_columns: Vec<usize>,
    /// Base-schema predicate used for row-group pruning.
    pub prune_predicate: Option<Expr>,
    pub scan: ScanConfig,
}

/// One in-edge of a consumer stage: worker `p` reads co-partition `p`
/// of every sender's file.
#[derive(Clone)]
pub struct EdgeIn {
    /// Key prefix namespacing the producer stage's edge (e.g. `x0/q3/s1`).
    pub channel: String,
    /// Producer worker count (how many sender files to await).
    pub senders: usize,
    pub transport: Rc<dyn ExchangeTransport>,
}

/// The out-edge a stage's output leaves on.
#[derive(Clone)]
pub struct EdgeOut {
    /// Key prefix namespacing this stage's edge.
    pub channel: String,
    pub transport: Rc<dyn ExchangeTransport>,
}

/// The two in-edges of a join stage: worker `p` builds a hash table from
/// co-partition `p` of the build edge and probes it with co-partition `p`
/// of the probe edge.
#[derive(Clone)]
pub struct JoinInput {
    pub probe: EdgeIn,
    pub build: EdgeIn,
    pub probe_schema: SchemaRef,
    pub build_schema: SchemaRef,
    pub probe_keys: Vec<usize>,
    pub build_keys: Vec<usize>,
    /// Which rows the probe emits (inner / left-outer / semi / anti).
    pub variant: JoinVariant,
}

/// The in-edge of an agg-merge stage: worker `p` merges shard `p` of
/// every producer's partial-aggregate state. Producers shard by group-key
/// hash, so the fleet's group ranges are disjoint.
#[derive(Clone)]
pub struct MergeInput {
    pub edge: EdgeIn,
    /// Accumulator shapes, to build the empty initial state.
    pub funcs: Vec<(AggFunc, Option<DataType>)>,
}

/// Where a stage's rows come from.
#[derive(Clone)]
pub enum StageInput {
    /// This worker's share of a table's files (scan stages).
    Table { scan: Rc<TableScan>, files: Vec<TableFile> },
    /// One edge of rows, concatenated into one batch (sort stages).
    Rows(Rc<EdgeIn>),
    /// One edge of agg shards, merged and finalized into one batch
    /// (agg-merge stages; left unfinalized for a [`StageSink::Carry`]).
    AggShards(Rc<MergeInput>),
    /// Two edges that build and probe; the joined rows feed the pipeline
    /// (join stages).
    Join(Rc<JoinInput>),
}

/// Producer-side configuration of a *sort-exchange* edge: how a stage's
/// locally sorted run is range-partitioned into the consumer sort fleet.
///
/// Producers agree on the partition function with zero coordination
/// beyond storage: each writes a small sample of its run's sort keys to
/// the edge's sample channel (`{channel}smp`), LIST-polls until all
/// `senders` samples are visible, and computes boundaries from the pooled
/// sample deterministically — same pool, same boundaries, everywhere
/// (speculative duplicate samples are harmless: a backup's run is
/// bit-identical to the original's).
#[derive(Clone)]
pub struct SortEdgeSpec {
    /// Sort keys over `schema`.
    pub keys: Vec<SortKey>,
    /// Top-k truncation pushed into producers and sorters.
    pub limit: Option<usize>,
    /// Schema of the rows on the edge.
    pub schema: SchemaRef,
    /// Consumer sort-fleet size (= range partition count).
    pub partitions: usize,
    /// Producer fleet size (how many sample files to await).
    pub senders: usize,
}

/// Where a stage's pipeline output goes.
#[derive(Clone)]
pub enum StageSink {
    /// Report to the driver: agg state inline, batches stored under
    /// `{prefix}/w{worker}` in `bucket` (empty output skips the PUT).
    Driver { bucket: String, prefix: String },
    /// Hash partitions ([`Terminal::HashPartition`]) or agg shards
    /// ([`Terminal::PartitionedAggregate`]) onto an exchange edge, in one
    /// write-combined send.
    Edge(EdgeOut),
    /// A locally sorted run ([`Terminal::SortPartition`]) range-partitioned
    /// onto a sort edge through the sample protocol.
    Sort { out: EdgeOut, edge: SortEdgeSpec },
    /// Report the agg state *unfinalized*. Set for streaming queries,
    /// whose driver carries the state across micro-batches and finalizes
    /// only at window close (an averaged Avg cannot re-merge).
    Carry,
}

/// One stage assignment (§3.3's plan fragment): input → pipeline → sink.
/// Worker `p` of a consumer fleet owns co-partition `p` of its in-edges.
#[derive(Clone)]
pub struct StageTask {
    pub input: StageInput,
    pub pipeline: Rc<PipelineSpec>,
    pub sink: Rc<StageSink>,
}

/// What a worker is asked to do.
#[derive(Clone)]
pub enum WorkerTask {
    /// Return immediately (invocation benchmarks, Table 1 / Fig 5).
    Noop,
    /// Fixed amount of number crunching on N threads (Fig 4).
    Compute { vcpu_seconds: f64, threads: usize },
    /// Repartition data through cloud storage.
    Exchange(ExchangeTask),
    /// Run one worker's share of a query stage.
    Stage(StageTask),
}

/// The invocation payload (the "event" of the Lambda function).
#[derive(Clone)]
pub struct WorkerPayload {
    pub worker_id: u64,
    /// 0 for the original invocation; speculative backups of a straggler
    /// carry 1.. so their exchange writes and result reports stay
    /// distinguishable from the original's.
    pub attempt: u32,
    /// Driver-assigned query id this worker belongs to. With the query
    /// service running many queries concurrently on one installation,
    /// this is what lets fault injection (and debugging) target exactly
    /// one query's fleets.
    pub query: u64,
    pub task: WorkerTask,
    /// Second-generation workers to invoke before running `task` (§4.2).
    pub children: Vec<Rc<WorkerPayload>>,
    pub result_queue: String,
}

impl WorkerPayload {
    /// The same assignment re-issued as a speculative backup: next
    /// attempt id, no children (every missing worker is re-invoked
    /// individually, so a dead first-generation worker's subtree is
    /// recovered leaf by leaf).
    pub fn backup(&self, attempt: u32) -> WorkerPayload {
        WorkerPayload {
            worker_id: self.worker_id,
            attempt,
            query: self.query,
            task: self.task.clone(),
            children: Vec::new(),
            result_queue: self.result_queue.clone(),
        }
    }
}

/// Register the Lambada worker function on the cloud. Re-registering
/// replaces the function and drops warm containers ("freshly created
/// function", §5.2).
pub fn register_worker_function(
    cloud: &Cloud,
    name: &str,
    memory_mib: u32,
    timeout: std::time::Duration,
    costs: ComputeCostModel,
) {
    let cloud2 = cloud.clone();
    let fname = name.to_string();
    let handler = move |ctx: InstanceCtx, payload: InvokePayload| {
        let cloud = cloud2.clone();
        let fname = fname.clone();
        Box::pin(async move {
            let Ok(payload) = payload.downcast::<WorkerPayload>() else {
                return; // not a Lambada payload; nothing to report to
            };
            run_handler(cloud, fname, ctx, payload, costs).await;
        }) as std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>
    };
    cloud.faas.register(FunctionSpec::new(name, memory_mib, timeout), Rc::new(handler));
}

/// Shortcut used by the installer.
pub fn faas(cloud: &Cloud) -> &FaasService {
    &cloud.faas
}

/// Install a per-worker fault injector on the cloud's FaaS service:
/// `decide(worker_id, attempt)` picks the fault (if any) for each
/// Lambada worker invocation. Straggler/failure experiments use this to
/// make worker *k* slow or kill it mid-flight through the real dispatch
/// path — e.g. `(wid == 3 && attempt == 0).then(|| InjectedFault::slowdown(10.0))`
/// slows only the original attempt, so the speculative backup recovers.
pub fn inject_worker_faults<F>(cloud: &Cloud, decide: F)
where
    F: Fn(u64, u32) -> Option<lambada_sim::InjectedFault> + 'static,
{
    cloud.faas.set_fault_injector(Rc::new(move |payload: &dyn std::any::Any| {
        payload.downcast_ref::<WorkerPayload>().and_then(|p| decide(p.worker_id, p.attempt))
    }));
}

/// Like [`inject_worker_faults`], but `decide` sees the whole payload —
/// the driver-assigned query id, the task, the attempt — so concurrency
/// experiments can fault the fleets of exactly one query (or only
/// particular stage kinds) while its neighbors on the same installation
/// run clean.
pub fn inject_query_worker_faults<F>(cloud: &Cloud, decide: F)
where
    F: Fn(&WorkerPayload) -> Option<lambada_sim::InjectedFault> + 'static,
{
    cloud.faas.set_fault_injector(Rc::new(move |payload: &dyn std::any::Any| {
        payload.downcast_ref::<WorkerPayload>().and_then(&decide)
    }));
}

async fn run_handler(
    cloud: Cloud,
    function: String,
    ctx: InstanceCtx,
    payload: Rc<WorkerPayload>,
    costs: ComputeCostModel,
) {
    let wid = payload.worker_id;
    let now = cloud.handle.now();
    cloud.trace.record(wid, invoke::labels::RUNNING, now, now);
    let mut env = WorkerEnv::new(&cloud, ctx, wid, costs);
    env.attempt = payload.attempt;

    // Invoke second-generation workers first (§4.2).
    if !payload.children.is_empty() {
        let caller = cloud.worker_invoker();
        if let Err(e) =
            invoke::invoke_children(&cloud, &caller, &function, wid, &payload.children).await
        {
            let msg = WorkerResult::error(
                wid,
                format!("child invocation failed: {e}"),
                WorkerMetrics::default(),
            )
            .with_attempt(payload.attempt);
            let _ = env.sqs.send(&payload.result_queue, msg.encode()).await;
            return;
        }
    }

    let start = cloud.handle.now();
    let outcome = run_task(&env, &payload.task).await;
    let processing = (cloud.handle.now() - start).as_secs_f64();
    cloud.trace.record(wid, "worker_processing", start, cloud.handle.now());

    let msg = match outcome {
        Ok((result, mut metrics)) => {
            metrics.processing_secs = processing;
            metrics.cold_start = env.ctx.cold;
            WorkerResult::ok(wid, result, metrics)
        }
        Err(e) => {
            let metrics = WorkerMetrics {
                processing_secs: processing,
                cold_start: env.ctx.cold,
                ..WorkerMetrics::default()
            };
            WorkerResult::error(wid, e.to_string(), metrics)
        }
    }
    .with_attempt(payload.attempt);
    // Success or error, the handler posts a message to the result queue
    // from which the driver polls (§3.3).
    let _ = env.sqs.send(&payload.result_queue, msg.encode()).await;
}

async fn run_task(env: &WorkerEnv, task: &WorkerTask) -> Result<(ResultPayload, WorkerMetrics)> {
    match task {
        WorkerTask::Noop => Ok((ResultPayload::Empty, WorkerMetrics::default())),
        WorkerTask::Compute { vcpu_seconds, threads } => {
            let threads = (*threads).max(1);
            let share = vcpu_seconds / threads as f64;
            let mut joins = Vec::with_capacity(threads);
            for _ in 0..threads {
                let env2 = env.clone();
                joins.push(env.cloud.handle.spawn(async move { env2.compute(share).await }));
            }
            for j in joins {
                j.await;
            }
            Ok((ResultPayload::Empty, WorkerMetrics::default()))
        }
        WorkerTask::Exchange(x) => run_exchange_task(env, x).await,
        WorkerTask::Stage(task) => run_stage(env, task).await,
    }
}

/// Rows of each producer's sample kept per worker. Samples only steer
/// partition *balance*, never correctness — every row lands in exactly
/// one range either way — so a small constant suffices.
const SORT_SAMPLE_ROWS: usize = 32;

/// Fold one stage-edge send's request accounting into the worker metrics.
fn fold_write_stats(metrics: &mut WorkerMetrics, stats: EdgeWriteStats) {
    metrics.bytes_written += stats.bytes_written;
    metrics.put_requests += stats.put_requests;
    metrics.p2p_requests += stats.p2p_requests;
    metrics.p2p_bytes += stats.p2p_bytes;
}

/// Fold one stage-edge receive's request accounting into the metrics.
fn fold_read_stats(metrics: &mut WorkerMetrics, stats: &EdgeReadStats) {
    metrics.bytes_read += stats.bytes_read;
    metrics.get_requests += stats.get_requests;
    metrics.list_requests += stats.list_requests;
    metrics.p2p_requests += stats.p2p_requests;
    metrics.p2p_bytes += stats.p2p_bytes;
    metrics.exchange_wait_secs += stats.wait_secs;
}

/// Receive this worker's co-partition of `edge`.
async fn recv_edge(
    env: &WorkerEnv,
    edge: &EdgeIn,
    metrics: &mut WorkerMetrics,
) -> Result<Vec<Vec<u8>>> {
    let (parts, stats) =
        edge.transport.recv(env, &edge.channel, env.worker_id as usize, edge.senders).await?;
    fold_read_stats(metrics, &stats);
    real_parts(parts)
}

/// The non-empty payloads of a receive. Stage edges carry real payloads;
/// modeled parts belong to the standalone exchange benchmarks only.
fn real_parts(parts: Vec<PartData>) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(parts.len());
    for part in parts {
        match part {
            PartData::Real(bytes) if bytes.is_empty() => {}
            PartData::Real(bytes) => out.push(bytes),
            PartData::Modeled(_) => {
                return Err(CoreError::Unsupported(
                    "stage edges need real exchange payloads".to_string(),
                ))
            }
        }
    }
    Ok(out)
}

/// Ship one producer's locally sorted run onto a sort-exchange edge.
///
/// The purely serverless range-partitioning protocol (§4.4 applied to
/// sort): (1) PUT a small, evenly spaced sample of the run's sort keys
/// onto the edge's sample channel; (2) LIST-poll until every producer's
/// sample is visible and read them all back; (3) compute range boundaries
/// from the pooled sample — deterministic, so all producers agree without
/// any coordinator; (4) range-partition the run and write it onto the
/// data edge like any other stage edge. Updates `metrics` with the
/// requests spent and returns the exchanged (rows, bytes).
async fn sort_exchange_out(
    env: &WorkerEnv,
    out: &EdgeOut,
    edge: &SortEdgeSpec,
    run: &RecordBatch,
    metrics: &mut WorkerMetrics,
) -> Result<(u64, u64)> {
    // ---- Sample write ---------------------------------------------------
    let key_cols = sort_key_columns(run, &edge.keys)?;
    let rows = run.num_rows();
    let sample_count = SORT_SAMPLE_ROWS.min(rows);
    let sample_bytes = if sample_count == 0 {
        Vec::new()
    } else {
        let idx: Vec<usize> = (0..sample_count).map(|i| i * rows / sample_count).collect();
        let mut fields = Vec::with_capacity(edge.keys.len());
        let mut cols = Vec::with_capacity(edge.keys.len());
        for (j, c) in key_cols.iter().enumerate() {
            let gathered = c.gather(&idx);
            fields.push(lambada_engine::Field::new(format!("k{j}"), gathered.dtype()));
            cols.push(gathered);
        }
        let sample = RecordBatch::new(lambada_engine::Schema::arc(fields), cols)?;
        crate::partition::encode_batches(&[sample])?
    };
    let smp_channel = format!("{}smp", out.channel);
    let write_stats = out
        .transport
        .send(env, &smp_channel, env.worker_id as usize, vec![PartData::Real(sample_bytes)])
        .await?;
    fold_write_stats(metrics, write_stats);

    // ---- Sample read: every producer reads the whole pool ---------------
    let (sample_parts, stats) = out.transport.recv(env, &smp_channel, 0, edge.senders).await?;
    fold_read_stats(metrics, &stats);
    let mut pooled: Vec<Vec<Scalar>> = Vec::new();
    for bytes in real_parts(sample_parts)? {
        for batch in crate::partition::decode_batches(&bytes)? {
            for row in 0..batch.num_rows() {
                pooled.push(batch.row(row));
            }
        }
    }
    let boundaries = range_boundaries(pooled, &edge.keys, edge.partitions);

    // ---- Range partition + data write -----------------------------------
    env.compute(env.costs.partition_seconds((rows * run.num_columns() * 8) as u64)).await;
    let partitioned = range_partition_batch(run, &edge.keys, &boundaries)?;
    let mut parts = Vec::with_capacity(edge.partitions);
    for b in &partitioned {
        if b.num_rows() == 0 {
            parts.push(PartData::Real(Vec::new()));
        } else {
            parts.push(PartData::Real(crate::partition::encode_batches(std::slice::from_ref(b))?));
        }
    }
    // The consumer fleet is sized before launch; boundaries can be fewer
    // than partitions - 1 only when the pooled sample is tiny, leaving
    // trailing partitions empty — pad the part list to the fleet size.
    parts.resize(edge.partitions, PartData::Real(Vec::new()));
    send_parts(env, out, parts, rows as u64, metrics).await
}

/// One write-combined send onto `out`; returns the exchanged (rows,
/// bytes), whichever wire carried them.
async fn send_parts(
    env: &WorkerEnv,
    out: &EdgeOut,
    parts: Vec<PartData>,
    rows: u64,
    metrics: &mut WorkerMetrics,
) -> Result<(u64, u64)> {
    let stats = out.transport.send(env, &out.channel, env.worker_id as usize, parts).await?;
    let bytes = stats.bytes_written + stats.p2p_bytes;
    fold_write_stats(metrics, stats);
    metrics.rows_exchanged += rows;
    Ok((rows, bytes))
}

/// Run one stage assignment: drain the input into the pipeline, then
/// hand the pipeline's output to the sink. Each input charges its own
/// engine compute and keeps its own out-of-memory check (§3.3: reported,
/// never a silent death).
async fn run_stage(env: &WorkerEnv, task: &StageTask) -> Result<(ResultPayload, WorkerMetrics)> {
    let budget = env.engine_memory_budget();
    let mut pipeline = Pipeline::new(PipelineSpec::clone(&task.pipeline))?;
    let mut metrics = WorkerMetrics::default();
    let output = match &task.input {
        StageInput::Table { scan, files } => {
            let (scan_metrics, modeled_rows) = drive_scan(env, scan, files, &mut pipeline).await?;
            if modeled_rows > 0 && matches!(*task.sink, StageSink::Edge(_) | StageSink::Sort { .. })
            {
                return Err(CoreError::Unsupported(
                    "exchange edges need real table files (descriptor-backed tables carry no rows to repartition)"
                        .to_string(),
                ));
            }
            let (rows_in, rows_out) = pipeline.row_counts();
            metrics = WorkerMetrics {
                rows_in: rows_in + modeled_rows,
                rows_out,
                bytes_read: scan_metrics.bytes_read,
                get_requests: scan_metrics.get_requests,
                row_groups_pruned: scan_metrics.row_groups_pruned,
                row_groups_scanned: scan_metrics.row_groups_total - scan_metrics.row_groups_pruned,
                ..WorkerMetrics::default()
            };
            pipeline.finish()?
        }
        StageInput::Rows(edge) => {
            // The sort stage of a distributed sort: range partition `p` of
            // every producer's run, sorted by the pipeline's terminal.
            let mut batches = Vec::new();
            let mut state_bytes = 0u64;
            for bytes in recv_edge(env, edge, &mut metrics).await? {
                for batch in crate::partition::decode_batches(&bytes)? {
                    state_bytes += (batch.num_rows() * batch.num_columns() * 8) as u64;
                    if state_bytes > budget / 2 {
                        return Err(CoreError::Engine(format!(
                            "out of memory: sort partition exceeds half the budget {budget} B"
                        )));
                    }
                    batches.push(batch);
                }
            }
            let rows_in: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            metrics.rows_in = rows_in;
            metrics.rows_exchanged = rows_in;
            env.compute(env.costs.process_seconds(rows_in)).await;
            pipeline.push(&RecordBatch::concat(task.pipeline.input_schema.clone(), &batches)?)?;
            pipeline.finish()?
        }
        StageInput::AggShards(merge) => {
            let state = merge_shards(env, merge, budget, &mut metrics).await?;
            if matches!(*task.sink, StageSink::Carry) {
                metrics.rows_out = state.num_groups() as u64;
                PipelineOutput::Aggregate(state)
            } else {
                pipeline.push(&agg_state_to_batch(&state, &task.pipeline.input_schema)?)?;
                metrics.rows_out = pipeline.row_counts().1;
                pipeline.finish()?
            }
        }
        StageInput::Join(join) => {
            for batch in &build_and_probe(env, join, budget, &mut metrics).await? {
                env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
                pipeline.push(batch)?;
            }
            metrics.rows_out = pipeline.row_counts().1;
            pipeline.finish()?
        }
    };
    write_sink(env, &task.sink, output, metrics).await
}

/// Hand a finished pipeline's output to the stage's sink.
async fn write_sink(
    env: &WorkerEnv,
    sink: &StageSink,
    output: PipelineOutput,
    mut metrics: WorkerMetrics,
) -> Result<(ResultPayload, WorkerMetrics)> {
    match (sink, output) {
        (StageSink::Driver { .. } | StageSink::Carry, PipelineOutput::Aggregate(state)) => {
            Ok((ResultPayload::AggState(state.encode()), metrics))
        }
        (StageSink::Driver { bucket, prefix }, PipelineOutput::Batches(batches)) => {
            let rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            metrics.rows_out = rows;
            if rows == 0 {
                return Ok((ResultPayload::Empty, metrics));
            }
            // Large results go to cloud storage, not through the queue.
            let bytes = crate::partition::encode_batches(&batches)?;
            let key = format!("{prefix}/w{}", env.worker_id);
            metrics.bytes_written += bytes.len() as u64;
            metrics.put_requests += 1;
            env.s3.put(bucket, &key, Body::from_vec(bytes)).await?;
            Ok((ResultPayload::StoredBatches { bucket: bucket.clone(), key, rows }, metrics))
        }
        (StageSink::Edge(out), PipelineOutput::Partitions(partitions)) => {
            let mut parts = Vec::with_capacity(partitions.len());
            for batches in &partitions {
                if batches.is_empty() {
                    parts.push(PartData::Real(Vec::new()));
                } else {
                    parts.push(PartData::Real(crate::partition::encode_batches(batches)?));
                }
            }
            let rows = partitions.iter().flatten().map(|b| b.num_rows() as u64).sum();
            let (rows, bytes) = send_parts(env, out, parts, rows, &mut metrics).await?;
            Ok((ResultPayload::Exchanged { rows, bytes }, metrics))
        }
        (StageSink::Edge(out), PipelineOutput::AggShards(shards)) => {
            // Empty shards become zero-length parts, so receivers learn
            // from the file name that they have nothing to fetch.
            let parts = shards
                .iter()
                .map(|s| PartData::Real(if s.num_groups() == 0 { Vec::new() } else { s.encode() }))
                .collect();
            let groups = shards.iter().map(|s| s.num_groups() as u64).sum();
            let (rows, bytes) = send_parts(env, out, parts, groups, &mut metrics).await?;
            Ok((ResultPayload::Exchanged { rows, bytes }, metrics))
        }
        (StageSink::Sort { out, edge }, PipelineOutput::Batches(run)) => {
            let run = RecordBatch::concat(edge.schema.clone(), &run)?;
            let (rows, bytes) = sort_exchange_out(env, out, edge, &run, &mut metrics).await?;
            Ok((ResultPayload::Exchanged { rows, bytes }, metrics))
        }
        _ => Err(CoreError::Engine(
            "stage pipeline terminal does not agree with its sink".to_string(),
        )),
    }
}

/// Run the scan pipeline of one worker, feeding items into `pipeline`
/// with OOM accounting; returns the scan metrics and modeled row count.
async fn drive_scan(
    env: &WorkerEnv,
    scan: &Rc<TableScan>,
    files: &[TableFile],
    pipeline: &mut Pipeline,
) -> Result<(crate::scan::ScanMetrics, u64)> {
    let budget = env.engine_memory_budget();
    let (tx, mut rx) = mpsc::channel::<ScanItem>();
    let scan_handle = {
        let env2 = env.clone();
        let files = files.to_vec();
        let scan = Rc::clone(scan);
        env.cloud.handle.spawn(async move {
            scan_table(
                &env2,
                &scan.scan,
                &files,
                &scan.base_schema,
                &scan.scan_columns,
                scan.prune_predicate.as_ref(),
                tx,
            )
            .await
        })
    };

    let mut modeled_rows = 0u64;
    while let Some(item) = rx.recv().await {
        match item {
            ScanItem::Batch(batch) => {
                env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
                let batch_bytes = (batch.num_rows() * batch.num_columns() * 8) as u64;
                pipeline.push(&batch)?;
                let state = pipeline.approx_state_bytes() as u64;
                if state + 3 * batch_bytes > budget {
                    // §3.3: report out-of-memory instead of dying silently.
                    return Err(CoreError::Engine(format!(
                        "out of memory: engine state {state} B + working set exceeds budget {budget} B"
                    )));
                }
            }
            ScanItem::Modeled { rows, bytes } => {
                env.compute(env.costs.process_seconds(rows)).await;
                modeled_rows += rows;
                if 3 * bytes > budget {
                    return Err(CoreError::Engine(format!(
                        "out of memory: row group of {bytes} B exceeds budget {budget} B"
                    )));
                }
            }
        }
    }
    let scan_metrics = scan_handle.await?;
    Ok((scan_metrics, modeled_rows))
}

/// Read shard `p` of every producer's partial-aggregate state and merge
/// them — this fleet owns disjoint group ranges, so the merge is local
/// (the driver-side merge of §3.2 moved into the serverless scope).
async fn merge_shards(
    env: &WorkerEnv,
    merge: &MergeInput,
    budget: u64,
    metrics: &mut WorkerMetrics,
) -> Result<GroupedAggState> {
    let mut state = GroupedAggState::new(&merge.funcs)?;
    for bytes in recv_edge(env, &merge.edge, metrics).await? {
        let shard = GroupedAggState::decode(&bytes)?;
        metrics.rows_in += shard.num_groups() as u64;
        env.compute(env.costs.process_seconds(shard.num_groups() as u64)).await;
        state.merge(&shard)?;
        if state.approx_bytes() as u64 > budget {
            return Err(CoreError::Engine(format!(
                "out of memory: merged aggregate state {} B exceeds budget {budget} B",
                state.approx_bytes()
            )));
        }
    }
    metrics.rows_exchanged = metrics.rows_in;
    Ok(state)
}

/// Read both co-partitions from the exchange edges, build a hash table
/// from the build side, and probe it with the probe side (§4.4's
/// "operators that repartition data" — executed with no infrastructure
/// beyond storage and functions). Returns the joined rows.
async fn build_and_probe(
    env: &WorkerEnv,
    join: &JoinInput,
    budget: u64,
    metrics: &mut WorkerMetrics,
) -> Result<Vec<RecordBatch>> {
    // ---- Build side -----------------------------------------------------
    let mut build_batches = Vec::new();
    for bytes in recv_edge(env, &join.build, metrics).await? {
        build_batches.extend(crate::partition::decode_batches(&bytes)?);
    }
    let build_rows: u64 = build_batches.iter().map(|b| b.num_rows() as u64).sum();
    env.compute(env.costs.process_seconds(build_rows)).await;
    let build =
        JoinState::build(join.build_schema.clone(), join.build_keys.clone(), &build_batches)?;
    drop(build_batches);
    if build.approx_bytes() as u64 > budget / 2 {
        return Err(CoreError::Engine(format!(
            "out of memory: build-side hash table of {} B exceeds half the budget {budget} B",
            build.approx_bytes()
        )));
    }

    // ---- Probe side -----------------------------------------------------
    let mut probe = Pipeline::new(PipelineSpec {
        input_schema: join.probe_schema.clone(),
        predicate: None,
        projection: None,
        terminal: Terminal::Probe {
            build: Rc::new(build),
            probe_keys: join.probe_keys.clone(),
            variant: join.variant,
        },
    })?;
    for bytes in recv_edge(env, &join.probe, metrics).await? {
        for batch in crate::partition::decode_batches(&bytes)? {
            env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
            probe.push(&batch)?;
            if probe.approx_state_bytes() as u64 > budget / 2 {
                return Err(CoreError::Engine(format!(
                    "out of memory: joined rows exceed half the budget {budget} B"
                )));
            }
        }
    }
    let (probe_rows, _) = probe.row_counts();
    metrics.rows_in = probe_rows + build_rows;
    metrics.rows_exchanged = probe_rows + build_rows;
    match probe.finish()? {
        PipelineOutput::Batches(joined) => Ok(joined),
        _ => Err(CoreError::Engine("probe terminal must collect joined batches".to_string())),
    }
}

async fn run_exchange_task(
    env: &WorkerEnv,
    task: &ExchangeTask,
) -> Result<(ResultPayload, WorkerMetrics)> {
    let mut metrics = WorkerMetrics::default();
    if let Some((bucket, key)) = &task.input {
        let start = env.cloud.handle.now();
        let body = env.s3.get(bucket, key).await?;
        metrics.bytes_read += body.len();
        metrics.get_requests += 1;
        env.cloud.trace.record(env.worker_id, "exchange_input", start, env.cloud.handle.now());
    }
    let per_dest = task.data_bytes / task.total as u64;
    let parts: Vec<PartData> = (0..task.total).map(|_| PartData::Modeled(per_dest)).collect();
    let outcome =
        run_exchange(env, &task.cfg, env.worker_id as usize, task.total, parts, &task.side).await?;
    metrics.rows_in = outcome.received.len() as u64;
    Ok((ResultPayload::Empty, metrics))
}

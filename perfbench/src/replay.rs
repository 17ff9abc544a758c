//! Host-time replays of the public kernels on a workload's own generated
//! data, next to the `ComputeCostModel` constants that bill the same
//! work in virtual time. Host speed varies between machines, so the
//! model-over-measured ratios are reported, never gated.

use std::hint::black_box;
use std::time::Instant;

use lambada_core::{decode_bundle, encode_bundle_into, ComputeCostModel, PartData};
use lambada_engine::logical::{JoinVariant, SortKey};
use lambada_engine::{
    col, AggFunc, Column, DataType, GroupedAggState, JoinState, Pipeline, PipelineSpec,
    RecordBatch, Terminal,
};
use lambada_format::Compression;
use lambada_sim::services::object_store::Body;
use lambada_workloads::lineitem::cols;

use crate::data::Table;
use crate::ledger::{Metric, MIB};
use crate::spans::Spans;
use crate::stats::median;

/// Minimum host seconds each kernel is repeated for.
const MIN_SECS: f64 = 0.2;
/// Partitions of the hash-partition replay (a mid-sized consumer fleet).
const PARTITIONS: usize = 16;

/// Repeat `f` (which returns the units of work it did) for at least
/// [`MIN_SECS`] and at least three times; median units per host second.
fn rate(spans: &Spans, call: &'static str, mut f: impl FnMut() -> f64) -> f64 {
    let mut rates = Vec::new();
    let begin = Instant::now();
    while rates.len() < 3 || begin.elapsed().as_secs_f64() < MIN_SECS {
        let t0 = Instant::now();
        let units = f();
        let t1 = Instant::now();
        spans.record("replay", call, 0, t0, t1);
        rates.push(units / t1.duration_since(t0).as_secs_f64().max(1e-9));
    }
    median(&rates)
}

fn bytes_of(batch: &RecordBatch) -> f64 {
    (batch.num_rows() * batch.num_columns() * 8) as f64
}

/// Replay every kernel over `lineitem` (and `orders` as the build side)
/// and report throughputs plus cost-model ratios.
pub fn replay(lineitem: &Table, orders: &Table, spans: &Spans) -> Vec<Metric> {
    let costs = ComputeCostModel::default();
    let li = lineitem.batches();
    let ord = orders.batches();
    let li_rows: f64 = li.iter().map(|b| b.num_rows() as f64).sum();
    let ord_rows: f64 = ord.iter().map(|b| b.num_rows() as f64).sum();
    let li_bytes: f64 = li.iter().map(bytes_of).sum();

    // format: decode every staged file; the model bills decompression of
    // the compressed chunks plus light decode of the encoded bytes.
    let files: Vec<&[u8]> =
        lineitem.files.iter().filter_map(|(_, b)| b.as_real().map(|b| &b[..])).collect();
    let file_bytes: f64 = files.iter().map(|f| f.len() as f64).sum();
    let model_decode_s: f64 = files
        .iter()
        .map(|f| {
            let meta = lambada_format::read_footer(f).expect("staged footer");
            meta.row_groups
                .iter()
                .flat_map(|rg| rg.columns.iter())
                .map(|c| {
                    costs.chunk_decode_seconds(
                        c.compressed_len,
                        c.uncompressed_len,
                        c.compression == Compression::Lz,
                    )
                })
                .sum::<f64>()
        })
        .sum();
    let decode_bps = rate(spans, "read_all", || {
        for f in &files {
            black_box(lambada_format::read_all(black_box(f)).expect("staged file decodes"));
        }
        file_bytes
    });

    // engine: Q1's grouped aggregation kernel.
    let funcs = [
        (AggFunc::Sum, Some(DataType::Float64)),
        (AggFunc::Sum, Some(DataType::Float64)),
        (AggFunc::Count, None),
    ];
    let agg_rps = rate(spans, "update_batch", || {
        let mut st = GroupedAggState::new(&funcs).expect("agg state");
        for b in &li {
            let groups = [b.column(cols::RETURNFLAG).clone(), b.column(cols::LINESTATUS).clone()];
            let args: [Option<Column>; 3] = [
                Some(b.column(cols::QUANTITY).clone()),
                Some(b.column(cols::EXTENDEDPRICE).clone()),
                None,
            ];
            st.update_batch(&groups, &args, b.num_rows()).expect("agg update");
        }
        black_box(st.num_groups());
        li_rows
    });

    // engine: build ORDERS, probe with LINEITEM on the order key.
    let join_rps = rate(spans, "join_push_probe", || {
        let mut st = JoinState::new(ord[0].schema().clone(), vec![0]).expect("join state");
        for b in &ord {
            st.push(b).expect("join build");
        }
        for b in &li {
            black_box(
                st.probe_variant(b, &[cols::ORDERKEY], JoinVariant::Inner).expect("join probe"),
            );
        }
        ord_rows + li_rows
    });

    // engine: a scan fragment feeding an exchange edge.
    let spec = PipelineSpec {
        input_schema: li[0].schema().clone(),
        predicate: None,
        projection: None,
        terminal: Terminal::HashPartition { keys: vec![cols::ORDERKEY], partitions: PARTITIONS },
    };
    let mut partitioned = None;
    let partition_bps = rate(spans, "hash_partition", || {
        let mut p = Pipeline::new(spec.clone()).expect("pipeline");
        for b in &li {
            p.push(b).expect("pipeline push");
        }
        partitioned = Some(p.finish().expect("pipeline finish"));
        li_bytes
    });
    black_box(partitioned);

    // engine: the sort stage's kernel.
    let keys = [SortKey::desc(col(cols::EXTENDEDPRICE)), SortKey::asc(col(cols::ORDERKEY))];
    let sort_rps = rate(spans, "sort_batch", || {
        for b in &li {
            black_box(lambada_engine::physical::sort_batch(b, &keys).expect("sort"));
        }
        li_rows
    });

    // core::exchange: write-combine the staged bytes into one bundle per
    // file (PARTITIONS sections each) and decode it again.
    let bundles: Vec<Vec<(u32, PartData)>> = files
        .iter()
        .map(|f| {
            f.chunks(f.len().div_ceil(PARTITIONS).max(1))
                .enumerate()
                .map(|(d, c)| (d as u32, PartData::Real(c.to_vec())))
                .collect()
        })
        .collect();
    let mut scratch = Vec::new();
    let codec_bps = rate(spans, "bundle_codec", || {
        for parts in &bundles {
            scratch.clear();
            encode_bundle_into(&mut scratch, parts).expect("encode bundle");
            black_box(
                decode_bundle(Body::from_vec(scratch.clone()), Vec::new()).expect("decode bundle"),
            );
        }
        file_bytes
    });

    let rows = |r: f64| r * li_rows / li_bytes;
    vec![
        Metric::new(
            "format.decode_mib_per_host_s",
            decode_bps / MIB,
            "MiB/s",
            format!("read_all over {} staged files", files.len()),
        ),
        Metric::new(
            "engine.agg_mrows_per_host_s",
            agg_rps / 1e6,
            "Mrows/s",
            "GroupedAggState::update_batch, Q1 groups",
        ),
        Metric::new(
            "engine.join_mrows_per_host_s",
            join_rps / 1e6,
            "Mrows/s",
            "JoinState::push + probe_variant, orders x lineitem",
        ),
        Metric::new(
            "engine.partition_mrows_per_host_s",
            rows(partition_bps) / 1e6,
            "Mrows/s",
            format!("Pipeline + HashPartition x{PARTITIONS}"),
        ),
        Metric::new(
            "engine.sort_mrows_per_host_s",
            sort_rps / 1e6,
            "Mrows/s",
            "sort_batch per file",
        ),
        Metric::new(
            "exchange.codec_mib_per_host_s",
            codec_bps / MIB,
            "MiB/s",
            "encode_bundle_into + decode_bundle",
        ),
        Metric::new(
            "costmodel.agg_model_over_measured",
            costs.process_rows_per_s / agg_rps,
            "ratio",
            format!("process_rows_per_s {:.3e}", costs.process_rows_per_s),
        ),
        Metric::new(
            "costmodel.decode_model_over_measured",
            (file_bytes / decode_bps) / model_decode_s,
            "ratio",
            format!(
                "decompress_bytes_per_s {:.3e}, decode_bytes_per_s {:.3e}",
                costs.decompress_bytes_per_s, costs.decode_bytes_per_s
            ),
        ),
        Metric::new(
            "costmodel.partition_model_over_measured",
            costs.partition_bytes_per_s / partition_bps,
            "ratio",
            format!("partition_bytes_per_s {:.3e}", costs.partition_bytes_per_s),
        ),
    ]
}

//! The stream tenant: a continuous windowed aggregation that pushes one
//! micro-batch per virtual second through a `QueryService`, timed from
//! each batch's due time, with its concatenated emissions checked
//! against the reference executor over the kept events.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use lambada_core::streaming::windowed_event_schema;
use lambada_core::{
    events_to_batch, ContinuousQuery, QueryReport, QueryService, StreamSpec, WINDOW_COLUMN,
};
use lambada_engine::logical::LogicalPlan;
use lambada_engine::{
    assign_windows, col, execute_into_batch, AggExpr, AggFunc, Catalog, MemTable, RecordBatch,
    WindowSpec,
};
use lambada_sim::{secs, EventSource, SourceConfig, SourceEvent};

use crate::spans::Spans;

/// Window size and allowed lateness, in event-time ticks.
const WINDOW: i64 = 10;
const LATENESS: i64 = 5;

/// The per-batch plan: per (window, key) sum and count, all `i64`, so
/// the streamed result is exact and independent of merge order.
fn windowed_plan(table: &str) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Scan {
            table: table.to_string(),
            schema: Arc::new(windowed_event_schema()),
            projection: None,
            predicate: None,
        }),
        group_by: vec![(col(3), WINDOW_COLUMN.to_string()), (col(1), "key".to_string())],
        aggs: vec![
            AggExpr::new(AggFunc::Sum, Some(col(2)), "sum_value"),
            AggExpr::new(AggFunc::Count, None, "n"),
        ],
    }
}

/// The stream's input, fixed before any batch runs.
pub struct StreamInput {
    pub batches: Vec<Vec<SourceEvent>>,
    pub spec: StreamSpec,
    /// Reference emissions over every event the watermark keeps.
    pub reference: RecordBatch,
    /// Events the watermark must classify as late.
    pub expected_late: u64,
}

impl StreamInput {
    /// `batches` micro-batches of `per_batch` events from a source seeded
    /// with `seed`; 2% of events arrive beyond the lateness bound.
    pub fn generate(seed: u64, batches: usize, per_batch: usize) -> StreamInput {
        let mut source = EventSource::new(SourceConfig {
            seed,
            events_per_tick: per_batch as f64 / 2.0,
            key_domain: 64,
            max_delay: LATENESS,
            late_probability: 0.02,
            ..SourceConfig::default()
        });
        let batches: Vec<Vec<SourceEvent>> =
            (0..batches).map(|_| source.next_events(per_batch)).collect();
        let spec = StreamSpec {
            window: WindowSpec::tumbling(WINDOW),
            lateness: LATENESS,
            ..StreamSpec::default()
        };
        // The runtime's watermark fold: each batch is filtered against the
        // watermark the previous batches established.
        let (mut kept, mut late) = (Vec::new(), 0u64);
        let (mut watermark, mut max_ts) = (i64::MIN, i64::MIN);
        for batch in &batches {
            for e in batch {
                if e.ts >= watermark {
                    max_ts = max_ts.max(e.ts);
                    kept.push(*e);
                } else {
                    late += 1;
                }
            }
            if max_ts > i64::MIN {
                watermark = max_ts.saturating_sub(LATENESS);
            }
        }
        let windowed = assign_windows(
            &events_to_batch(&kept).expect("events batch"),
            0,
            &spec.window,
            WINDOW_COLUMN,
        )
        .expect("window assignment");
        let mut cat = Catalog::new();
        cat.register("stream_ref", Rc::new(MemTable::from_batch(windowed)));
        let reference =
            execute_into_batch(&windowed_plan("stream_ref"), &cat).expect("reference stream");
        StreamInput { batches, spec, reference, expected_late: late }
    }
}

/// What one stream run measured.
#[derive(Default)]
pub struct StreamRun {
    /// Per batch: virtual seconds from its due time to its emission.
    pub lags: Vec<f64>,
    /// Per batch query.
    pub reports: Vec<QueryReport>,
    pub late_events: u64,
    /// Window groups carried after each batch.
    pub carried_groups: Vec<f64>,
    /// `None` when the emissions matched the reference.
    pub error: Option<String>,
}

/// Push every batch of `input` through `service` as tenant `stream`, one
/// per `period_s` virtual seconds, never earlier than due.
pub async fn run_stream(
    service: &QueryService,
    input: &StreamInput,
    period_s: f64,
    spans: &Spans,
) -> StreamRun {
    let mut run = StreamRun::default();
    let handle = service.system().cloud().handle.clone();
    let mut cq =
        match ContinuousQuery::new(service, "stream", "events", input.spec, |_sys, table| {
            Ok(windowed_plan(table))
        }) {
            Ok(cq) => cq,
            Err(e) => {
                run.error = Some(format!("stream plan rejected: {e}"));
                return run;
            }
        };
    let start = handle.now();
    let mut parts = Vec::new();
    for (k, events) in input.batches.iter().enumerate() {
        let due = start + secs(period_s * k as f64);
        if handle.now() < due {
            handle.sleep_until(due).await;
        }
        let t0 = Instant::now();
        let pushed = cq.push_batch(events).await;
        spans.record("core::streaming", "push_batch", 0, t0, Instant::now());
        match pushed {
            Ok(r) => {
                run.lags.push((handle.now() - due).as_secs_f64());
                run.carried_groups.push(cq.carried_groups() as f64);
                if r.emitted.num_rows() > 0 {
                    parts.push(r.emitted);
                }
                run.reports.extend(r.query);
            }
            Err(e) => {
                run.error = Some(format!("micro-batch {k} failed: {e}"));
                return run;
            }
        }
    }
    run.late_events = cq.late_events();
    let check = cq.finish().map_err(|e| e.to_string()).and_then(|tail| {
        parts.push(tail);
        RecordBatch::concat(cq.agg_schema().clone(), &parts).map_err(|e| e.to_string())
    });
    run.error = match check {
        Err(e) => Some(format!("stream finish failed: {e}")),
        Ok(out) if out != input.reference => {
            Some("stream emissions differ from the reference".to_string())
        }
        Ok(_) if run.late_events != input.expected_late => {
            Some(format!("late events {} != expected {}", run.late_events, input.expected_late))
        }
        Ok(_) => None,
    };
    run
}

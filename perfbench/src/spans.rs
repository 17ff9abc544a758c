//! The benchmark's own spans: host wall time around every call it makes
//! into a layer, kept in memory and written out as Chrome trace-event
//! JSON when a traced run ends (open it in `chrome://tracing` or
//! Perfetto). Virtual-time spans the simulator recorded (`cloud.trace`)
//! can be attached too; they land in one process track per pass.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use lambada_sim::TraceEvent;

/// One host-time span.
struct HostSpan {
    layer: &'static str,
    call: &'static str,
    /// Query the call served (0 when it served no single query).
    query: u64,
    start_us: f64,
    dur_us: f64,
}

/// One virtual-time span copied from the simulator's trace.
struct VirtSpan {
    pass: u64,
    worker: u64,
    label: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// In-memory span recorder. When inactive, [`Spans::time`] only runs the
/// closure, so untraced work pays nothing beyond a branch.
pub struct Spans {
    on: Cell<bool>,
    origin: Instant,
    host: RefCell<Vec<HostSpan>>,
    virt: RefCell<Vec<VirtSpan>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on: Cell::new(on),
            origin: Instant::now(),
            host: RefCell::new(Vec::new()),
            virt: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.get()
    }

    /// Switch recording on or off (traced runs alternate passes).
    pub fn set_active(&self, on: bool) {
        self.on.set(on);
    }

    /// Run `f` and, when tracing, record its host wall time as a span.
    pub fn time<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on.get() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, call, query, start, Instant::now());
        out
    }

    /// Record a span measured by the caller (used around `.await`s).
    pub fn record(
        &self,
        layer: &'static str,
        call: &'static str,
        query: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on.get() {
            return;
        }
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.host.borrow_mut().push(HostSpan { layer, call, query, start_us, dur_us });
    }

    /// Attach the simulator's virtual-time spans of one pass.
    pub fn add_virtual(&self, pass: u64, events: &[TraceEvent]) {
        if !self.on.get() {
            return;
        }
        let mut virt = self.virt.borrow_mut();
        for e in events {
            virt.push(VirtSpan {
                pass,
                worker: e.worker,
                label: e.label,
                start_us: e.start.as_secs_f64() * 1e6,
                dur_us: e.duration_secs() * 1e6,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.host.borrow().len() + self.virt.borrow().len()
    }

    /// Chrome trace-event JSON: host spans in process 1 (one thread, so
    /// nested calls stack), virtual spans in process `2 + pass` with one
    /// thread per simulated worker (thread 0 is the driver).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for s in self.host.borrow().iter() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"query\":{}}}}}",
                s.call, s.layer, s.start_us, s.dur_us, s.query
            );
        }
        for s in self.virt.borrow().iter() {
            sep(&mut out);
            // Driver-side spans carry worker id u64::MAX; give them tid 0.
            let tid = if s.worker == TraceEvent::DRIVER { 0 } else { s.worker + 1 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"virtual\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}",
                s.label,
                s.start_us,
                s.dur_us,
                2 + s.pass,
                tid
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

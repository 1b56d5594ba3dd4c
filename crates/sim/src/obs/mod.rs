//! # Observability: metrics, events, attribution, time series
//!
//! The paper's evaluation is aggregate tables; this layer makes the same
//! information available mechanically and at finer grain:
//!
//! - [`MetricsRegistry`] — every simulator counter under a stable dotted
//!   name, with JSON export ([`RegisterMetrics`] is implemented for
//!   [`crate::SimStats`], [`fac_mem::CacheStats`], [`fac_mem::TlbStats`],
//!   [`fac_core::LtbStats`] and friends);
//! - [`Event`] — a cycle-stamped structured event stream (speculations,
//!   verifications, replays, stalls, cache misses, injected faults) behind
//!   the zero-cost-when-disabled [`Observer`] trait, with a JSONL exporter
//!   ([`JsonlWriter`]) here and a Chrome-trace exporter
//!   ([`crate::chrome_trace`]) next to the Figure-1 renderer;
//! - [`PcAttribution`] — per-PC speculation attribution, the per-site
//!   analogue of the paper's Tables 3–4;
//! - [`IntervalSampler`] — event counts bucketed every K cycles, so replay
//!   storms and cache warm-up are visible over time.
//!
//! Run a machine with any observer via [`crate::Machine::run_observed`];
//! [`Recorder`] bundles the lot for CLI use:
//!
//! ```
//! use fac_asm::{Asm, SoftwareSupport};
//! use fac_isa::Reg;
//! use fac_sim::obs::Recorder;
//! use fac_sim::{Machine, MachineConfig};
//!
//! let mut a = Asm::new();
//! a.far_array("arr", 4096, 4);
//! a.la(Reg::S0, "arr", 28);
//! a.lw(Reg::T0, 8, Reg::S0); // 28+8 crosses the block: replays
//! a.halt();
//! let p = a.link("demo", &SoftwareSupport::on()).unwrap();
//!
//! let mut rec = Recorder::new().with_sampler(64);
//! let report = Machine::new(MachineConfig::paper_baseline().with_fac())
//!     .run_observed(&p, &mut rec)
//!     .unwrap();
//! assert_eq!(rec.attribution.total_replays(), report.stats.pred_loads.fails());
//! ```

mod attr;
mod events;
pub mod json;
mod metrics;
mod sampler;

pub use attr::{PcAttribution, SiteStats};
pub use events::{CacheKind, Event, JsonlWriter, NullObserver, Observer, StallKind, VecObserver};
pub use json::{Json, JsonError};
pub use metrics::{Metric, MetricsRegistry, RegisterMetrics};
pub use sampler::{IntervalSampler, Sample};

use std::io::Write;

/// The kitchen-sink observer the CLI uses: per-PC attribution, optional
/// interval sampling, and an optional JSONL event sink, in one pass.
#[derive(Default)]
pub struct Recorder {
    /// Per-PC attribution table (always on).
    pub attribution: PcAttribution,
    /// Interval time series, when sampling was requested.
    pub sampler: Option<IntervalSampler>,
    sink: Option<JsonlWriter<Box<dyn Write + Send>>>,
    /// Total events observed (whether or not a sink is attached).
    pub events_seen: u64,
}

impl Recorder {
    /// A recorder with attribution only.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Adds interval sampling with the given window (cycles).
    pub fn with_sampler(mut self, interval: u64) -> Recorder {
        self.sampler = Some(IntervalSampler::new(interval));
        self
    }

    /// Streams events as JSONL into `sink`.
    pub fn with_sink(mut self, sink: Box<dyn Write + Send>) -> Recorder {
        self.sink = Some(JsonlWriter::new(sink));
        self
    }

    /// Flushes the event sink; returns the number of events written, or
    /// the first I/O error message. A recorder without a sink reports 0.
    pub fn finish_sink(&mut self) -> Result<u64, String> {
        match self.sink.take() {
            Some(w) => w.finish(),
            None => Ok(0),
        }
    }

    /// The recorder's run document fragment: attribution (top `top_sites`
    /// sites) and, when sampling, the time series.
    pub fn to_json(&self, top_sites: usize) -> Json {
        let mut o = Json::obj();
        o.set("events", Json::U64(self.events_seen));
        o.set("attribution", self.attribution.to_json(top_sites));
        if let Some(s) = &self.sampler {
            o.set("samples", s.to_json());
        }
        o
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &Event) {
        self.events_seen += 1;
        self.attribution.on_event(event);
        if let Some(s) = &mut self.sampler {
            s.on_event(event);
        }
        if let Some(w) = &mut self.sink {
            w.on_event(event);
        }
    }
}

//! What one run measured, and the run's own parameters.

use crate::stats::{label, median, tail};
use crate::trace::Tracer;
use std::path::PathBuf;

/// One measured value with its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value, in the unit `BENCHMARK.json` gives it.
    pub value: f64,
    /// Samples the value summarises (runs, sweeps, cells or calls).
    pub samples: usize,
    /// A qualifier for the human summary, such as the tail percentile.
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (grid cells) attempted, set-up included.
    pub attempted: u64,
    /// Operations that failed the gate, errored or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced sweeps only).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Raw samples behind the metrics (sweep walls, cell latencies, set-up
    /// times), kept for the result file.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.push(Metric {
            name,
            value,
            samples,
            note: String::new(),
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.push(Metric {
            name,
            value,
            samples,
            note: String::new(),
        });
    }

    /// Keeps raw samples for the result file.
    pub fn keep(&mut self, name: &'static str, samples: &[f64]) {
        self.raw.push((name, samples.to_vec()));
    }

    /// `latency_p50_ms` and `latency_tail_ms` from per-cell samples, ms.
    pub fn latency(&mut self, ms: &[f64]) {
        self.e2e("latency_p50_ms", median(ms), ms.len());
        let (q, v) = tail(ms);
        self.e2e.push(Metric {
            name: "latency_tail_ms",
            value: v,
            samples: ms.len(),
            note: label(q),
        });
    }

    /// Tracing overhead: the traced sweeps' medians minus the untraced
    /// sweeps' of the same run.
    pub fn overhead(&mut self, walls: &[f64], traced_walls: &[f64], ms: &[f64], traced_ms: &[f64]) {
        self.layer(
            "trace.overhead_sweep_s",
            median(traced_walls) - median(walls),
            traced_walls.len(),
        );
        self.layer(
            "trace.overhead_p50_ms",
            median(traced_ms) - median(ms),
            traced_ms.len(),
        );
    }
}

/// The parameters every workload runs under.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed: cell orders and pool submission order derive from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Pool workers and client connections: the host's parallelism.
    pub jobs: usize,
    /// Scratch directory for stores, sockets, logs and span files.
    pub work: PathBuf,
    /// Directory holding `campaign_server` and `campaign_supervisor`.
    pub bins: PathBuf,
}

impl Run {
    /// Writes a traced run's spans to the work directory.
    pub fn write_spans(&self, tr: &Tracer, tag: &str) {
        let path = self
            .work
            .join(format!("spans-{}-{tag}.jsonl", self.workload));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

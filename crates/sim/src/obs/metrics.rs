//! The metrics registry: every quantity the simulator measures, under a
//! stable dotted name.
//!
//! Naming scheme (documented in DESIGN.md §7): `<subsystem>.<counter>`,
//! lowercase with underscores inside a segment —
//! `sim.cycles`, `dcache.misses`, `pred.loads.fails_const`,
//! `fail_cause.overflow`, `offsets.stack.bits4`. Derived rates are gauges
//! and end in `_rate`, `_ratio` or a similarly unambiguous suffix; they are
//! always finite (0.0 when the denominator is zero), so exported JSON stays
//! valid.

use super::json::{Json, JsonError};
use crate::stats::{OffsetHistogram, PredCounters, RefClass, SimStats};
use fac_core::{FailureCause, LtbStats};
use fac_mem::{CacheStats, TlbStats};
use std::collections::HashMap;

/// One registered metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A monotonic event count (exact).
    Counter(u64),
    /// A derived quantity (rate, ratio, IPC); always finite.
    Gauge(f64),
}

/// An ordered collection of named metrics.
///
/// Registration order is preserved in the export, so JSON key order is
/// deterministic and diffs cleanly between runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
    index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets (or overwrites) a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.set(name, Metric::Counter(value));
    }

    /// Sets (or overwrites) a gauge. Non-finite values are recorded as 0.0
    /// so exports never produce invalid JSON.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.set(name, Metric::Gauge(v));
    }

    fn set(&mut self, name: &str, metric: Metric) {
        if let Some(&i) = self.index.get(name) {
            self.entries[i].1 = metric;
        } else {
            self.index.insert(name.to_string(), self.entries.len());
            self.entries.push((name.to_string(), metric));
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.index.get(name).map(|&i| self.entries[i].1)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, metric)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Metric)> + '_ {
        self.entries.iter().map(|(n, m)| (n.as_str(), *m))
    }

    /// A flat JSON object: `{"name": value, ...}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, metric) in self.iter() {
            match metric {
                Metric::Counter(v) => obj.set(name, Json::U64(v)),
                Metric::Gauge(v) => obj.set(name, Json::F64(v)),
            };
        }
        obj
    }

    /// Rebuilds a registry from the output of [`MetricsRegistry::to_json`].
    /// Integer values become counters, fractional ones gauges.
    pub fn from_json(text: &str) -> Result<MetricsRegistry, JsonError> {
        let doc = super::json::parse(text)?;
        let Json::Obj(fields) = doc else {
            return Err(JsonError { message: "expected a metrics object".to_string(), at: 0 });
        };
        let mut reg = MetricsRegistry::new();
        for (name, value) in &fields {
            match value {
                Json::U64(v) => reg.counter(name, *v),
                Json::F64(v) => reg.gauge(name, *v),
                Json::I64(v) => reg.gauge(name, *v as f64),
                other => {
                    return Err(JsonError {
                        message: format!("metric {name} is not numeric: {other:?}"),
                        at: 0,
                    })
                }
            }
        }
        Ok(reg)
    }
}

/// Types that can publish themselves into a [`MetricsRegistry`] under a
/// name prefix.
pub trait RegisterMetrics {
    /// Registers every quantity of `self` under `prefix`.
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str);
}

impl RegisterMetrics for CacheStats {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.accesses"), self.accesses);
        reg.counter(&format!("{prefix}.reads"), self.reads);
        reg.counter(&format!("{prefix}.writes"), self.writes);
        reg.counter(&format!("{prefix}.misses"), self.misses);
        reg.counter(&format!("{prefix}.read_misses"), self.read_misses);
        reg.counter(&format!("{prefix}.writebacks"), self.writebacks);
        reg.gauge(&format!("{prefix}.miss_ratio"), self.miss_ratio());
    }
}

impl RegisterMetrics for TlbStats {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.accesses"), self.accesses);
        reg.counter(&format!("{prefix}.misses"), self.misses);
        reg.gauge(&format!("{prefix}.miss_ratio"), self.miss_ratio());
    }
}

impl RegisterMetrics for LtbStats {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.predictions"), self.predictions);
        reg.counter(&format!("{prefix}.correct"), self.correct);
        reg.counter(&format!("{prefix}.no_prediction"), self.no_prediction);
        reg.gauge(&format!("{prefix}.accuracy"), self.accuracy());
    }
}

impl RegisterMetrics for PredCounters {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.attempts_const"), self.attempts_const);
        reg.counter(&format!("{prefix}.fails_const"), self.fails_const);
        reg.counter(&format!("{prefix}.attempts_rr"), self.attempts_rr);
        reg.counter(&format!("{prefix}.fails_rr"), self.fails_rr);
        reg.counter(&format!("{prefix}.not_speculated"), self.not_speculated);
        reg.gauge(&format!("{prefix}.fail_rate"), self.fail_rate_all());
        reg.gauge(&format!("{prefix}.fail_rate_no_rr"), self.fail_rate_no_rr());
    }
}

impl RegisterMetrics for OffsetHistogram {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.neg"), self.neg);
        for (bits, &count) in self.by_bits.iter().enumerate() {
            reg.counter(&format!("{prefix}.bits{bits}"), count);
        }
        reg.counter(&format!("{prefix}.more"), self.more);
    }
}

impl RegisterMetrics for SimStats {
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let p = |n: &str| format!("{prefix}.{n}");
        reg.counter(&p("insts"), self.insts);
        reg.counter(&p("cycles"), self.cycles);
        reg.gauge(&p("ipc"), self.ipc());
        reg.counter(&p("loads"), self.loads);
        reg.counter(&p("stores"), self.stores);
        reg.counter(&p("loads_reg_reg"), self.loads_reg_reg);
        for class in RefClass::ALL {
            reg.counter(&p(&format!("loads.class.{}", class.label())), self.loads_by_class[class.index()]);
            reg.counter(&p(&format!("stores.class.{}", class.label())), self.stores_by_class[class.index()]);
        }
        reg.counter(&p("branches"), self.branches);
        reg.counter(&p("branch_mispredicts"), self.branch_mispredicts);
        reg.counter(&p("extra_accesses"), self.extra_accesses);
        reg.gauge(&p("bandwidth_overhead"), self.bandwidth_overhead());
        reg.counter(&p("store_buffer_stalls"), self.store_buffer_stalls);
        reg.counter(&p("verify_catches"), self.verify_catches);
        reg.counter(&p("mem_footprint"), self.mem_footprint);
        self.pred_loads.register_metrics(reg, &p("pred.loads"));
        self.pred_stores.register_metrics(reg, &p("pred.stores"));
        for cause in FailureCause::ALL {
            reg.counter(
                &p(&format!("fail_cause.{}", cause.label())),
                self.fail_causes[cause.index()],
            );
        }
        self.icache.register_metrics(reg, &p("icache"));
        self.dcache.register_metrics(reg, &p("dcache"));
        if let Some(tlb) = &self.tlb {
            tlb.register_metrics(reg, &p("tlb"));
        }
        if let Some(ltb) = &self.ltb {
            ltb.register_metrics(reg, &p("ltb"));
        }
        for class in RefClass::ALL {
            self.load_offsets[class.index()]
                .register_metrics(reg, &p(&format!("offsets.{}", class.label())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrite_and_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b", 1);
        reg.counter("a", 2);
        reg.counter("b", 3);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(reg.get("b"), Some(Metric::Counter(3)));
        assert_eq!(reg.get("a"), Some(Metric::Counter(2)));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn non_finite_gauges_are_zeroed() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("nan", f64::NAN);
        reg.gauge("inf", f64::NEG_INFINITY);
        assert_eq!(reg.get("nan"), Some(Metric::Gauge(0.0)));
        assert_eq!(reg.get("inf"), Some(Metric::Gauge(0.0)));
    }

    #[test]
    fn json_and_text_exports() {
        let mut reg = MetricsRegistry::new();
        reg.counter("sim.cycles", 100);
        reg.gauge("sim.ipc", 2.5);
        assert_eq!(reg.to_json().to_string(), r#"{"sim.cycles":100,"sim.ipc":2.5}"#);
        let back = MetricsRegistry::from_json(&reg.to_json().to_string()).unwrap();
        assert_eq!(back, reg);
    }

    #[test]
    fn simstats_registration_covers_the_report() {
        let mut stats = SimStats { insts: 10, cycles: 5, loads: 3, ..SimStats::default() };
        stats.record_cause(fac_core::FailureCause::Overflow);
        let mut reg = MetricsRegistry::new();
        stats.register_metrics(&mut reg, "sim");
        assert_eq!(reg.get("sim.insts"), Some(Metric::Counter(10)));
        assert_eq!(reg.get("sim.ipc"), Some(Metric::Gauge(2.0)));
        assert_eq!(reg.get("sim.fail_cause.overflow"), Some(Metric::Counter(1)));
        assert_eq!(reg.get("sim.pred.loads.fail_rate"), Some(Metric::Gauge(0.0)));
        assert!(reg.get("sim.tlb.accesses").is_none(), "no TLB modelled");
        assert!(reg.len() > 60, "got {}", reg.len());
    }
}

//! The experiment implementations, one per paper table/figure.
//!
//! Every experiment is a [`Spec`]: a set of named (config × workload)
//! jobs for the [`crate::par`] harness plus a pure render step that turns
//! the job results — in submission order — into the human table and the
//! JSON document ([`crate::Exp`]). Because rendering never looks at
//! anything but the ordered results, both output lanes are bit-identical
//! at any `--jobs` count, and `all_experiments` can merge every
//! experiment's jobs into **one** pool ([`run_all`]) so a slow table
//! never leaves workers idle; `all_experiments --only <name>` runs one
//! experiment of the registry ([`only`]). Simulation failures propagate as typed
//! [`SimError`]s instead of panicking; a panic inside a job surfaces as
//! [`SimError::Panic`] naming the job.

use crate::par::JobSet;
use crate::{
    build_suite, pct, pct_change, pct_change_json, profile, rule, run, weighted_mean, Bench, Cx,
    Exp,
};
use fac_core::{IndexCompose, PredictorConfig};
use fac_sim::obs::Json;
use fac_sim::{ConfigError, MachineConfig, RefClass, SimError};
use fac_workloads::Scale;
use std::sync::OnceLock;

/// Appends a line (or a blank line) to a table buffer, `println!`-style.
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// Appends a partial line to a table buffer, `print!`-style.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($out, $($arg)*);
    }};
}

fn doc(experiment: &str, rows: Vec<Json>) -> Json {
    let mut d = Json::obj();
    d.set("experiment", Json::Str(experiment.to_string()));
    d.set("rows", Json::Arr(rows));
    d
}

fn row(program: &str) -> Json {
    let mut r = Json::obj();
    r.set("program", Json::Str(program.to_string()));
    r
}

// ---------------------------------------------------------------------------
// Job-result envelopes
//
// Each job returns one `Json` cell: the artifact row under "row", the
// rendered table line under "human", and whatever render-side extras the
// artifact doesn't carry (weights for the paper's cycle-weighted averages,
// the int/fp grouping flag). The render step unwraps the envelope; the
// exported document only ever contains the rows.
// ---------------------------------------------------------------------------

fn cell(human: String, row: Json) -> Json {
    let mut c = Json::obj();
    c.set("human", Json::Str(human));
    c.set("row", row);
    c
}

fn take_human(c: &mut Json) -> String {
    match c.take("human") {
        Some(Json::Str(s)) => s,
        _ => String::new(),
    }
}

fn take_row(c: &mut Json) -> Json {
    c.take("row").unwrap_or_else(Json::obj)
}

fn cell_bool(c: &Json, key: &str) -> bool {
    matches!(c.get(key), Some(Json::Bool(true)))
}

fn cell_u64(c: &Json, key: &str) -> u64 {
    c.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn cell_f64(c: &Json, key: &str) -> f64 {
    c.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn cell_str<'c>(c: &'c Json, key: &str) -> &'c str {
    c.get(key).and_then(Json::as_str).unwrap_or("")
}

fn cell_vals(c: &Json, key: &str) -> Vec<f64> {
    match c.get(key) {
        Some(Json::Arr(a)) => a.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn f64_arr(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().map(|v| Json::F64(*v)).collect())
}

/// One planned experiment: its name (the key in the `all_experiments`
/// bundle), its job grid, and the pure render step.
pub struct Spec<'a> {
    /// The experiment name (`"fig2"`, `"table3"`, …).
    pub name: &'static str,
    jobs: JobSet<'a, Json>,
    render: Box<dyn FnOnce(Vec<Json>) -> Exp + 'a>,
}

impl<'a> Spec<'a> {
    fn new(
        name: &'static str,
        jobs: JobSet<'a, Json>,
        render: impl FnOnce(Vec<Json>) -> Exp + 'a,
    ) -> Spec<'a> {
        Spec { name, jobs, render: Box::new(render) }
    }

    /// Runs the experiment's grid under the context's worker count and
    /// robustness policy (resume cache included) and renders.
    ///
    /// # Errors
    ///
    /// The lowest-indexed job failure, per [`crate::par::strict`].
    pub fn run(self, cx: &Cx) -> Result<Exp, SimError> {
        let cells = crate::par::strict(self.jobs.run_cached(cx.jobs, &cx.opts, cx.cache))?;
        Ok((self.render)(cells))
    }
}

/// The shape every experiment's spec builder shares.
pub type SpecFn = for<'a> fn(&'a [Bench], Scale) -> Spec<'a>;

/// Every experiment by name, in paper order (the order `all_experiments`
/// prints and bundles them).
pub const ALL: &[(&str, SpecFn)] = &[
    ("fig2", spec_fig2),
    ("table1", spec_table1),
    ("table2", spec_table2),
    ("fig3", spec_fig3),
    ("table3", spec_table3),
    ("table4", spec_table4),
    ("table5", spec_table5),
    ("fig6", spec_fig6),
    ("table6", spec_table6),
    ("ablate_or_xor", spec_ablate_or_xor),
    ("ablate_full_tag", spec_ablate_full_tag),
    ("ablate_store_spec", spec_ablate_store_spec),
    ("ablate_store_buffer", spec_ablate_store_buffer),
    ("ablate_mshr", spec_ablate_mshr),
    ("ablate_array_align", spec_ablate_array_align),
    ("ablate_associativity", spec_ablate_associativity),
    ("compare_ltb", spec_compare_ltb),
    ("compare_pipelines", spec_compare_pipelines),
    ("tiered_run", spec_tiered_run),
];

/// The whole evaluation — every experiment of [`ALL`] over one job pool,
/// bundled into one table stream and one JSON object keyed by experiment
/// name.
///
/// Under `--keep-going` a failed experiment degrades instead of sinking
/// the sweep: its key carries `null`, its table slot a one-line notice,
/// and the bundle gains an `errors` block naming every failed job —
/// experiments whose cells all succeeded render exactly as they would
/// have in a clean run.
///
/// # Errors
///
/// The lowest-indexed job failure across the merged pool (strict mode
/// only; `--keep-going` reports failures in the artifact instead).
pub fn run_all(cx: &Cx) -> Result<Exp, SimError> {
    let suite = build_suite(cx.scale);
    let mut pool = JobSet::new();
    let mut tails = Vec::new();
    for (_, spec_fn) in ALL {
        let spec = spec_fn(&suite, cx.scale);
        tails.push((spec.name, spec.render, spec.jobs.len()));
        pool.append(spec.jobs);
    }
    let results = pool.run_cached(cx.jobs, &cx.opts, cx.cache);

    if !cx.opts.keep_going {
        let mut cells = crate::par::strict(results)?.into_iter();
        let mut human = String::new();
        let mut json = Json::obj();
        for (name, render, n) in tails {
            let exp = render(cells.by_ref().take(n).collect());
            human.push_str(&exp.human);
            json.set(name, exp.json);
        }
        return Ok(Exp { human, json });
    }

    // Keep-going: degrade at whole-experiment granularity. Render steps
    // index into their cell grids, so one failed cell voids its
    // experiment's document — never the other experiments'.
    let mut results = results.into_iter();
    let mut human = String::new();
    let mut json = Json::obj();
    let mut all_errors = Vec::new();
    for (name, render, n) in tails {
        let chunk: Vec<_> = results.by_ref().take(n).collect();
        let (lanes, errors) = crate::par::degrade(chunk);
        if errors.is_empty() {
            let exp = render(lanes);
            human.push_str(&exp.human);
            json.set(name, exp.json);
        } else {
            human.push_str(&degraded_note(name, &errors, n));
            json.set(name, Json::Null);
            all_errors.extend(errors);
        }
    }
    if !all_errors.is_empty() {
        json.set("errors", crate::par::errors_json(&all_errors));
    }
    Ok(Exp { human, json })
}

/// The one-line table notice for a degraded experiment.
fn degraded_note(name: &str, errors: &[(String, SimError)], cells: usize) -> String {
    let (job, first) = &errors[0];
    format!(
        "[{name}] degraded: {} of {cells} cells failed; first: {job}: {first}\n\n",
        errors.len()
    )
}

/// Runs the experiment named `name` (`"fig2"`, `"table3"`, …) on its own
/// job pool: the table and the JSON document have the per-experiment
/// shape (`{"experiment": "fig2", "rows": [...]}`), not the bundle's.
///
/// # Errors
///
/// A [`ConfigError::BadFlagValue`] for `--only` listing the valid names
/// when `name` is not in [`ALL`] (before any simulation starts);
/// otherwise the lowest-indexed job failure, as [`run_all`].
pub fn only(name: &str, cx: &Cx) -> Result<Exp, SimError> {
    static NAMES: OnceLock<String> = OnceLock::new();
    match ALL.iter().find(|(n, _)| *n == name) {
        Some((_, spec)) => single(*spec, cx),
        None => Err(ConfigError::BadFlagValue {
            flag: "--only".to_string(),
            value: name.to_string(),
            expected: NAMES.get_or_init(|| {
                let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
                format!("one of {}", names.join(", "))
            }),
        }
        .into()),
    }
}

fn single(spec: SpecFn, cx: &Cx) -> Result<Exp, SimError> {
    let suite = build_suite(cx.scale);
    let s = spec(&suite, cx.scale);
    let name = s.name;
    let n = s.jobs.len();
    let results = s.jobs.run_cached(cx.jobs, &cx.opts, cx.cache);
    if !cx.opts.keep_going {
        return Ok((s.render)(crate::par::strict(results)?));
    }
    let (lanes, errors) = crate::par::degrade(results);
    if errors.is_empty() {
        return Ok((s.render)(lanes));
    }
    let mut json = Json::obj();
    json.set(name, Json::Null);
    json.set("errors", crate::par::errors_json(&errors));
    Ok(Exp { human: degraded_note(name, &errors, n), json })
}

/// Figure 2: IPC with 2-cycle loads (baseline), 1-cycle loads, perfect
/// cache, and 1-cycle + perfect.
fn spec_fig2<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    const COLS: [&str; 4] = ["baseline", "one_cycle", "perfect", "one_cycle_perfect"];
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("fig2:{}", b.workload.name), move || {
            let configs = [
                MachineConfig::paper_baseline(),
                MachineConfig::paper_baseline().with_one_cycle_loads(),
                MachineConfig::paper_baseline().with_perfect_dcache(),
                MachineConfig::paper_baseline().with_one_cycle_loads().with_perfect_dcache(),
            ];
            let mut ipc = [0.0; 4];
            let mut weight = 0;
            for (i, cfg) in configs.iter().enumerate() {
                let r = run(&b.plain, *cfg)?;
                ipc[i] = r.stats.ipc();
                if i == 0 {
                    weight = r.stats.cycles;
                }
            }
            let human = format!(
                "{:10} {:>9.2} {:>13.2} {:>13.2} {:>15.2}",
                b.workload.name, ipc[0], ipc[1], ipc[2], ipc[3]
            );
            let mut j = row(b.workload.name);
            for (name, v) in COLS.iter().zip(ipc) {
                j.set(&format!("ipc.{name}"), Json::F64(v));
            }
            let mut c = cell(human, j);
            c.set("fp", Json::Bool(b.workload.fp));
            c.set("weight", Json::U64(weight));
            c.set("vals", f64_arr(&ipc));
            Ok(c)
        });
    }
    Spec::new("fig2", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Figure 2: Impact of Load Latency on IPC ==");
        say!(
            out,
            "{:10} {:>9} {:>13} {:>13} {:>15}",
            "program",
            "baseline",
            "1-cyc loads",
            "perfect $",
            "1-cyc+perfect"
        );
        say!(out, "{}", rule(64));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        say!(out, "{}", rule(64));
        let mut d = doc("fig2", rows);
        for (label, key, fp) in [("Int-Avg", "int_avg", false), ("FP-Avg", "fp_avg", true)] {
            let group: Vec<&Json> = cells.iter().filter(|c| cell_bool(c, "fp") == fp).collect();
            let weights: Vec<u64> = group.iter().map(|c| cell_u64(c, "weight")).collect();
            let avg: Vec<f64> = (0..4)
                .map(|i| {
                    let vals: Vec<f64> = group.iter().map(|c| cell_vals(c, "vals")[i]).collect();
                    weighted_mean(&vals, &weights)
                })
                .collect();
            say!(
                out,
                "{:10} {:>9.2} {:>13.2} {:>13.2} {:>15.2}",
                label,
                avg[0],
                avg[1],
                avg[2],
                avg[3]
            );
            let mut j = Json::obj();
            for (name, v) in COLS.iter().zip(&avg) {
                j.set(&format!("ipc.{name}"), Json::F64(*v));
            }
            d.set(key, j);
        }
        Exp { human: out, json: d }
    })
}

/// Table 1: program reference behavior (without software support).
fn spec_table1<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("table1:{}", b.workload.name), move || {
            let p = profile(&b.plain, 32, PredictorConfig::default())?;
            let refs = p.refs();
            let human = format!(
                "{:10} {:>8} {:>9} {:>7} {:>7} | {:>7} {:>7} {:>8}",
                b.workload.name,
                p.insts,
                refs,
                pct(p.loads as f64 / refs.max(1) as f64),
                pct(p.stores as f64 / refs.max(1) as f64),
                pct(p.loads_by_class[0] as f64 / p.loads.max(1) as f64),
                pct(p.loads_by_class[1] as f64 / p.loads.max(1) as f64),
                pct(p.loads_by_class[2] as f64 / p.loads.max(1) as f64),
            );
            let mut j = row(b.workload.name);
            j.set("insts", Json::U64(p.insts));
            j.set("refs", Json::U64(refs));
            j.set("loads", Json::U64(p.loads));
            j.set("stores", Json::U64(p.stores));
            for class in RefClass::ALL {
                j.set(
                    &format!("load_fraction.{}", class.label()),
                    Json::F64(p.load_class_fraction(class)),
                );
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("table1", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Table 1: Program Reference Behavior ==");
        say!(
            out,
            "{:10} {:>8} {:>9} {:>7} {:>7} | {:>7} {:>7} {:>8}",
            "program",
            "insts",
            "refs",
            "%loads",
            "%store",
            "%global",
            "%stack",
            "%general"
        );
        say!(out, "{}", rule(76));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("table1", rows) }
    })
}

/// Figure 3: cumulative load-offset size distributions for gcc, sc, doduc
/// and spice.
fn spec_fig3<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let names = ["gcc", "sc", "doduc", "spice"];
    let mut jobs = JobSet::new();
    // Class-major job order matches the printed table: one block per
    // reference class, one line per program within it.
    for class in RefClass::ALL {
        for name in names {
            let b = suite.iter().find(|b| b.workload.name == name).expect("known program");
            jobs.push(format!("fig3:{}:{name}", class.label()), move || {
                let p = profile(&b.plain, 32, PredictorConfig::default())?;
                let h = &p.load_offsets[class.index()];
                let mut line = String::new();
                put!(line, "{name:8}");
                for bits in 0..=15u32 {
                    put!(line, "{:>6.1}", h.cumulative_at(bits) * 100.0);
                }
                let total = h.total().max(1) as f64;
                put!(
                    line,
                    "{:>6.1} {:>6.1}",
                    (h.more as f64 / total) * 100.0,
                    h.neg_fraction() * 100.0
                );
                let mut j = row(name);
                j.set("class", Json::Str(class.label().to_string()));
                j.set(
                    "cumulative",
                    Json::Arr((0..=15u32).map(|b| Json::F64(h.cumulative_at(b))).collect()),
                );
                j.set("more", Json::U64(h.more));
                j.set("neg_fraction", Json::F64(h.neg_fraction()));
                Ok(cell(line, j))
            });
        }
    }
    Spec::new("fig3", jobs, move |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Figure 3: Load Offset Cumulative Distributions ==");
        let mut rows = Vec::new();
        for (ci, class) in RefClass::ALL.into_iter().enumerate() {
            say!(out, "\n-- {} pointer offsets (cumulative % by bits) --", class.label());
            put!(out, "{:8}", "bits");
            for bits in 0..=15 {
                put!(out, "{bits:>6}");
            }
            say!(out, "{:>6} {:>6}", ">15", "neg");
            for c in &mut cells[ci * names.len()..(ci + 1) * names.len()] {
                say!(out, "{}", take_human(c));
                rows.push(take_row(c));
            }
        }
        Exp { human: out, json: doc("fig3", rows) }
    })
}

/// Table 2: the benchmark programs and their inputs (our scaled analogue
/// of the paper's table).
fn spec_table2<'a>(_suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for wl in fac_workloads::suite() {
        jobs.push(format!("table2:{}", wl.name), move || {
            let human = format!(
                "{:10} {:>4}  {}",
                wl.name,
                if wl.fp { "fp" } else { "int" },
                wl.description
            );
            let mut j = row(wl.name);
            j.set("kind", Json::Str(if wl.fp { "fp" } else { "int" }.to_string()));
            j.set("description", Json::Str(wl.description.to_string()));
            Ok(cell(human, j))
        });
    }
    Spec::new("table2", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Table 2: Benchmark Programs and Inputs (scaled) ==");
        say!(out, "{:10} {:>4}  input / model", "program", "kind");
        say!(out, "{}", rule(86));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("table2", rows) }
    })
}

/// Table 3: program statistics without software support, including the
/// prediction failure rates for 16- and 32-byte blocks.
fn spec_table3<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("table3:{}", b.workload.name), move || {
            let r = run(&b.plain, MachineConfig::paper_baseline())?;
            let p16 = profile(&b.plain, 16, PredictorConfig::default())?;
            let p32 = profile(&b.plain, 32, PredictorConfig::default())?;
            let human = format!(
                "{:10} {:>9} {:>10} {:>9} {:>8} {:>6} {:>6} {:>8} | {:>6} {:>6} {:>6} {:>6}",
                b.workload.name,
                r.stats.insts,
                r.stats.cycles,
                r.stats.loads,
                r.stats.stores,
                pct(r.stats.icache.miss_ratio()),
                pct(r.stats.dcache.miss_ratio()),
                r.stats.mem_footprint / 1024,
                pct(p16.pred_loads.fail_rate_all()),
                pct(p16.pred_stores.fail_rate_all()),
                pct(p32.pred_loads.fail_rate_all()),
                pct(p32.pred_stores.fail_rate_all()),
            );
            let mut j = row(b.workload.name);
            j.set("insts", Json::U64(r.stats.insts));
            j.set("cycles", Json::U64(r.stats.cycles));
            j.set("loads", Json::U64(r.stats.loads));
            j.set("stores", Json::U64(r.stats.stores));
            j.set("icache_miss_ratio", Json::F64(r.stats.icache.miss_ratio()));
            j.set("dcache_miss_ratio", Json::F64(r.stats.dcache.miss_ratio()));
            j.set("mem_footprint", Json::U64(r.stats.mem_footprint));
            j.set("load_fail_rate.b16", Json::F64(p16.pred_loads.fail_rate_all()));
            j.set("store_fail_rate.b16", Json::F64(p16.pred_stores.fail_rate_all()));
            j.set("load_fail_rate.b32", Json::F64(p32.pred_loads.fail_rate_all()));
            j.set("store_fail_rate.b32", Json::F64(p32.pred_stores.fail_rate_all()));
            Ok(cell(human, j))
        });
    }
    Spec::new("table3", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Table 3: Program Statistics Without Software Support ==");
        say!(
            out,
            "{:10} {:>9} {:>10} {:>9} {:>8} {:>6} {:>6} {:>8} | {:>6} {:>6} {:>6} {:>6}",
            "program",
            "insts",
            "cycles",
            "loads",
            "stores",
            "i$m%",
            "d$m%",
            "mem(KB)",
            "L16%",
            "S16%",
            "L32%",
            "S32%"
        );
        say!(out, "{}", rule(110));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("table3", rows) }
    })
}

/// Table 4: program statistics with software support — percentage changes
/// against the unoptimized build, and failure rates All / No-R+R. The
/// JSON lane carries the same derived percent-changes as the human lane
/// (via [`pct_change_json`]: `null` where the table shows `"-"`), plus
/// the raw counts.
fn spec_table4<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("table4:{}", b.workload.name), move || {
            let base = run(&b.plain, MachineConfig::paper_baseline())?;
            let opt = run(&b.tuned, MachineConfig::paper_baseline())?;
            let p = profile(&b.tuned, 32, PredictorConfig::default())?;
            let human = format!(
                "{:10} {:>7} {:>7} {:>7} {:>7} {:>7.2} {:>7.2} {:>7} | {:>6} {:>6} {:>6} {:>6}",
                b.workload.name,
                pct_change(opt.stats.insts as f64, base.stats.insts as f64),
                pct_change(opt.stats.cycles as f64, base.stats.cycles as f64),
                pct_change(opt.stats.loads as f64, base.stats.loads as f64),
                pct_change(opt.stats.stores as f64, base.stats.stores as f64),
                (opt.stats.icache.miss_ratio() - base.stats.icache.miss_ratio()) * 100.0,
                (opt.stats.dcache.miss_ratio() - base.stats.dcache.miss_ratio()) * 100.0,
                pct_change(opt.stats.mem_footprint as f64, base.stats.mem_footprint as f64),
                pct(p.pred_loads.fail_rate_all()),
                pct(p.pred_loads.fail_rate_no_rr()),
                pct(p.pred_stores.fail_rate_all()),
                pct(p.pred_stores.fail_rate_no_rr()),
            );
            let mut j = row(b.workload.name);
            j.set("insts.base", Json::U64(base.stats.insts));
            j.set("insts.sw", Json::U64(opt.stats.insts));
            j.set("cycles.base", Json::U64(base.stats.cycles));
            j.set("cycles.sw", Json::U64(opt.stats.cycles));
            for (key, new, old) in [
                ("insts.pct_change", opt.stats.insts, base.stats.insts),
                ("cycles.pct_change", opt.stats.cycles, base.stats.cycles),
                ("loads.pct_change", opt.stats.loads, base.stats.loads),
                ("stores.pct_change", opt.stats.stores, base.stats.stores),
                ("mem_footprint.pct_change", opt.stats.mem_footprint, base.stats.mem_footprint),
            ] {
                j.set(key, pct_change_json(new as f64, old as f64));
            }
            j.set("load_fail_rate.all", Json::F64(p.pred_loads.fail_rate_all()));
            j.set("load_fail_rate.no_rr", Json::F64(p.pred_loads.fail_rate_no_rr()));
            j.set("store_fail_rate.all", Json::F64(p.pred_stores.fail_rate_all()));
            j.set("store_fail_rate.no_rr", Json::F64(p.pred_stores.fail_rate_no_rr()));
            Ok(cell(human, j))
        });
    }
    Spec::new("table4", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Table 4: Program Statistics With Software Support (32-byte blocks) ==");
        say!(
            out,
            "{:10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} {:>6}",
            "program",
            "insts%",
            "cycle%",
            "loads%",
            "store%",
            "di$m",
            "dd$m",
            "mem%",
            "L-all",
            "L-nRR",
            "S-all",
            "S-nRR"
        );
        say!(out, "{}", rule(108));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("table4", rows) }
    })
}

/// Table 5: the baseline machine model.
fn spec_table5<'a>(_suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    jobs.push("table5", || {
        let c = MachineConfig::paper_baseline();
        let mut out = String::new();
        say!(out, "fetch width            {} instructions (any contiguous, one I-cache block)", c.fetch_width);
        say!(
            out,
            "i-cache                {}k direct-mapped, {}B blocks, {}-cycle miss",
            c.icache.size_bytes / 1024,
            c.icache.block_bytes,
            c.miss_latency
        );
        say!(out, "branch predictor       {}-entry direct-mapped BTB, 2-bit counters, {}-cycle mispredict", c.btb_entries, c.branch_mispredict_penalty);
        say!(out, "issue                  in-order, {} ops/cycle, out-of-order completion", c.issue_width);
        say!(
            out,
            "mem issue              up to {} loads or {} store per cycle",
            c.max_loads_per_cycle,
            c.max_stores_per_cycle
        );
        say!(
            out,
            "functional units       {} int ALU, {} ld/st, {} FP add, {} int mul/div, {} FP mul/div",
            c.fu.int_alu_units,
            c.fu.load_store_units,
            c.fu.fp_add_units,
            c.fu.int_mul_units,
            c.fu.fp_mul_units
        );
        say!(
            out,
            "latencies (tot/issue)  ALU {}/{}, ld/st 2/1, int mul {}/{}, int div {}/{}, FP add {}/{}, FP mul {}/{}, FP div {}/{}",
            c.fu.int_alu.latency, c.fu.int_alu.interval,
            c.fu.int_mul.latency, c.fu.int_mul.interval,
            c.fu.int_div.latency, c.fu.int_div.interval,
            c.fu.fp_add.latency, c.fu.fp_add.interval,
            c.fu.fp_mul.latency, c.fu.fp_mul.interval,
            c.fu.fp_div.latency, c.fu.fp_div.interval,
        );
        say!(
            out,
            "d-cache                {}k direct-mapped write-back write-allocate, {}B blocks, {}-cycle miss, {} read ports / {} write port, non-blocking",
            c.dcache.size_bytes / 1024,
            c.dcache.block_bytes,
            c.miss_latency,
            c.dcache_read_ports,
            c.dcache_write_ports
        );
        say!(out, "store buffer           {} entries, non-merging", c.store_buffer_entries);

        let mut j = Json::obj();
        j.set("experiment", Json::Str("table5".to_string()));
        j.set("fetch_width", Json::U64(c.fetch_width as u64));
        j.set("issue_width", Json::U64(c.issue_width as u64));
        j.set("icache_bytes", Json::U64(c.icache.size_bytes as u64));
        j.set("dcache_bytes", Json::U64(c.dcache.size_bytes as u64));
        j.set("block_bytes", Json::U64(c.dcache.block_bytes as u64));
        j.set("miss_latency", Json::U64(c.miss_latency));
        j.set("btb_entries", Json::U64(c.btb_entries as u64));
        j.set("store_buffer_entries", Json::U64(c.store_buffer_entries as u64));
        Ok(cell(out, j))
    });
    Spec::new("table5", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Table 5: Baseline Simulation Model ==");
        let c = &mut cells[0];
        out.push_str(&take_human(c));
        Exp { human: out, json: take_row(c) }
    })
}

/// Figure 6's six (block size, sw support, reg+reg) combinations, in
/// column order. The (32, hw-only, reg+reg) column doubles as the
/// weighting base for the averages.
const FIG6_COMBOS: [(u32, bool, bool); 6] = [
    (16, false, true),
    (16, true, true),
    (32, false, true),
    (32, true, true),
    (32, false, false),
    (32, true, false),
];

/// Figure 6: speedups over the baseline, with and without software support,
/// for 16- and 32-byte blocks, with and without reg+reg speculation.
fn spec_fig6<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    const COLS: [&str; 6] = ["hw16", "hwsw16", "hw32", "hwsw32", "hw32_no_rr", "hwsw32_no_rr"];
    let mut jobs = JobSet::new();
    // One job per (workload × combo) cell: the finest grid in the sweep,
    // which keeps every worker busy through the whole figure.
    for b in suite {
        for (block, tuned, rr) in FIG6_COMBOS {
            jobs.push(format!("fig6:{}:b{block}{}{}", b.workload.name, if tuned { ":sw" } else { "" }, if rr { "" } else { ":no_rr" }), move || {
                let base = run(&b.plain, MachineConfig::paper_baseline().with_block_size(block))?;
                let pred =
                    PredictorConfig { speculate_reg_reg: rr, ..PredictorConfig::default() };
                let cfg = MachineConfig::paper_baseline()
                    .with_block_size(block)
                    .with_fac_config(pred);
                let fac = run(if tuned { &b.tuned } else { &b.plain }, cfg)?;
                let mut c = Json::obj();
                c.set("speedup", Json::F64(base.stats.cycles as f64 / fac.stats.cycles as f64));
                c.set("base_cycles", Json::U64(base.stats.cycles));
                c.set("program", Json::Str(b.workload.name.to_string()));
                c.set("fp", Json::Bool(b.workload.fp));
                Ok(c)
            });
        }
    }
    Spec::new("fig6", jobs, |cells| {
        let mut out = String::new();
        say!(out, "\n== Figure 6: Speedups over baseline (same block size) ==");
        say!(
            out,
            "{:10} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9}",
            "program",
            "HW,16",
            "HW+SW,16",
            "HW,32",
            "HW+SW,32",
            "HW32,nRR",
            "HWSW32,nRR"
        );
        say!(out, "{}", rule(78));
        let mut rows = Vec::new();
        let mut stats: Vec<(bool, Vec<f64>, u64)> = Vec::new();
        for chunk in cells.chunks(FIG6_COMBOS.len()) {
            let name = cell_str(&chunk[0], "program");
            let vals: Vec<f64> = chunk.iter().map(|c| cell_f64(c, "speedup")).collect();
            // Weight by baseline cycles of the (32, hw, reg+reg) column.
            let weight = cell_u64(&chunk[2], "base_cycles");
            say!(
                out,
                "{:10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>9.3} {:>9.3}",
                name,
                vals[0],
                vals[1],
                vals[2],
                vals[3],
                vals[4],
                vals[5]
            );
            let mut j = row(name);
            for (col, v) in COLS.iter().zip(&vals) {
                j.set(&format!("speedup.{col}"), Json::F64(*v));
            }
            rows.push(j);
            stats.push((cell_bool(&chunk[0], "fp"), vals, weight));
        }
        say!(out, "{}", rule(78));
        let mut d = doc("fig6", rows);
        for (label, key, fp) in [("Int-Avg", "int_avg", false), ("FP-Avg", "fp_avg", true)] {
            let group: Vec<&(bool, Vec<f64>, u64)> =
                stats.iter().filter(|r| r.0 == fp).collect();
            let weights: Vec<u64> = group.iter().map(|r| r.2).collect();
            let avg: Vec<f64> = (0..6)
                .map(|i| {
                    let vals: Vec<f64> = group.iter().map(|r| r.1[i]).collect();
                    weighted_mean(&vals, &weights)
                })
                .collect();
            say!(
                out,
                "{:10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>9.3} {:>9.3}",
                label,
                avg[0],
                avg[1],
                avg[2],
                avg[3],
                avg[4],
                avg[5]
            );
            let mut j = Json::obj();
            for (col, v) in COLS.iter().zip(&avg) {
                j.set(&format!("speedup.{col}"), Json::F64(*v));
            }
            d.set(key, j);
        }
        Exp { human: out, json: d }
    })
}

/// Table 6: memory bandwidth overhead — failed speculative accesses as a
/// percentage of total references.
fn spec_table6<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    const COLS: [&str; 4] = ["hw_rr", "sw_rr", "hw_no_rr", "sw_no_rr"];
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("table6:{}", b.workload.name), move || {
            let mut vals = [0.0f64; 4];
            for (i, (tuned, rr)) in
                [(false, true), (true, true), (false, false), (true, false)].iter().enumerate()
            {
                let pred =
                    PredictorConfig { speculate_reg_reg: *rr, ..PredictorConfig::default() };
                let cfg = MachineConfig::paper_baseline().with_fac_config(pred);
                let r = run(if *tuned { &b.tuned } else { &b.plain }, cfg)?;
                vals[i] = r.stats.bandwidth_overhead();
            }
            let human = format!(
                "{:10} {:>9} {:>9} | {:>9} {:>9}",
                b.workload.name,
                pct(vals[0]),
                pct(vals[1]),
                pct(vals[2]),
                pct(vals[3])
            );
            let mut j = row(b.workload.name);
            for (name, v) in COLS.iter().zip(vals) {
                j.set(&format!("bandwidth_overhead.{name}"), Json::F64(v));
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("table6", jobs, |mut cells| {
        let mut out = String::new();
        say!(
            out,
            "\n== Table 6: Memory Bandwidth Overhead (failed speculative accesses, % of refs) =="
        );
        say!(
            out,
            "{:10} {:>9} {:>9} | {:>9} {:>9}",
            "program",
            "HW,R+R",
            "SW,R+R",
            "HW,noRR",
            "SW,noRR"
        );
        say!(out, "{}", rule(56));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("table6", rows) }
    })
}

/// Ablation: OR vs XOR carry-free composition (paper footnote 1).
fn spec_ablate_or_xor<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_or_xor:{}", b.workload.name), move || {
            let or = profile(&b.plain, 32, PredictorConfig::default())?;
            let xor = profile(
                &b.plain,
                32,
                PredictorConfig { compose: IndexCompose::Xor, ..PredictorConfig::default() },
            )?;
            let human = format!(
                "{:10} {:>10} {:>10}",
                b.workload.name,
                pct(or.pred_loads.fail_rate_all()),
                pct(xor.pred_loads.fail_rate_all())
            );
            let mut j = row(b.workload.name);
            j.set("load_fail_rate.or", Json::F64(or.pred_loads.fail_rate_all()));
            j.set("load_fail_rate.xor", Json::F64(xor.pred_loads.fail_rate_all()));
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_or_xor", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: OR vs XOR index composition ==");
        say!(out, "{:10} {:>10} {:>10}", "program", "OR fail%", "XOR fail%");
        say!(out, "{}", rule(34));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_or_xor", rows) }
    })
}

/// Ablation: full tag adder vs carry-free tag (§3.1).
fn spec_ablate_full_tag<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_full_tag:{}", b.workload.name), move || {
            let full = profile(&b.tuned, 32, PredictorConfig::default())?;
            let ortag = profile(
                &b.tuned,
                32,
                PredictorConfig { full_tag_add: false, ..PredictorConfig::default() },
            )?;
            let human = format!(
                "{:10} {:>12} {:>12}",
                b.workload.name,
                pct(full.pred_loads.fail_rate_all()),
                pct(ortag.pred_loads.fail_rate_all())
            );
            let mut j = row(b.workload.name);
            j.set("load_fail_rate.full_tag", Json::F64(full.pred_loads.fail_rate_all()));
            j.set("load_fail_rate.or_tag", Json::F64(ortag.pred_loads.fail_rate_all()));
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_full_tag", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: full tag addition vs carry-free tag ==");
        say!(out, "{:10} {:>12} {:>12}", "program", "full-tag f%", "or-tag f%");
        say!(out, "{}", rule(38));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_full_tag", rows) }
    })
}

/// Ablation: store speculation on/off (§3.1's store discussion).
fn spec_ablate_store_spec<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_store_spec:{}", b.workload.name), move || {
            let base = run(&b.tuned, MachineConfig::paper_baseline())?;
            let on = run(&b.tuned, MachineConfig::paper_baseline().with_fac())?;
            let off_cfg = MachineConfig::paper_baseline().with_fac_config(PredictorConfig {
                speculate_stores: false,
                ..PredictorConfig::default()
            });
            let off = run(&b.tuned, off_cfg)?;
            let human = format!(
                "{:10} {:>10.3} {:>10.3}",
                b.workload.name,
                base.stats.cycles as f64 / on.stats.cycles as f64,
                base.stats.cycles as f64 / off.stats.cycles as f64
            );
            let mut j = row(b.workload.name);
            j.set("speedup.spec", Json::F64(base.stats.cycles as f64 / on.stats.cycles as f64));
            j.set(
                "speedup.no_spec",
                Json::F64(base.stats.cycles as f64 / off.stats.cycles as f64),
            );
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_store_spec", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: store speculation on/off (speedup over baseline) ==");
        say!(out, "{:10} {:>10} {:>10}", "program", "spec", "no-spec");
        say!(out, "{}", rule(34));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_store_spec", rows) }
    })
}

/// Related work (§6): fast address calculation vs a load target buffer
/// (Golden & Mudge). FAC predicts from the operands, the LTB from the load
/// PC — and needs a real table to do it.
fn spec_compare_ltb<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("compare_ltb:{}", b.workload.name), move || {
            let base = run(&b.tuned, MachineConfig::paper_baseline())?;
            let fac = run(&b.tuned, MachineConfig::paper_baseline().with_fac())?;
            let ltb_s = run(&b.tuned, MachineConfig::paper_baseline().with_ltb(512))?;
            let ltb_l = run(&b.tuned, MachineConfig::paper_baseline().with_ltb(4096))?;
            let s = ltb_l.stats.ltb.expect("ltb stats");
            let cover = s.predictions as f64 / (s.predictions + s.no_prediction).max(1) as f64;
            let vals = [
                base.stats.cycles as f64 / fac.stats.cycles as f64,
                base.stats.cycles as f64 / ltb_s.stats.cycles as f64,
                base.stats.cycles as f64 / ltb_l.stats.cycles as f64,
            ];
            let human = format!(
                "{:10} {:>8.3} {:>8.3} {:>8.3} {:>9.1} {:>10.1}",
                b.workload.name,
                vals[0],
                vals[1],
                vals[2],
                s.accuracy() * 100.0,
                cover * 100.0
            );
            let mut j = row(b.workload.name);
            j.set("speedup.fac", Json::F64(vals[0]));
            j.set("speedup.ltb512", Json::F64(vals[1]));
            j.set("speedup.ltb4096", Json::F64(vals[2]));
            j.set("ltb_accuracy", Json::F64(s.accuracy()));
            j.set("ltb_coverage", Json::F64(cover));
            let mut c = cell(human, j);
            c.set("fp", Json::Bool(b.workload.fp));
            c.set("weight", Json::U64(base.stats.cycles));
            c.set("vals", f64_arr(&vals));
            Ok(c)
        });
    }
    Spec::new("compare_ltb", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Related work: FAC vs load target buffer (speedup over baseline) ==");
        say!(
            out,
            "{:10} {:>8} {:>8} {:>8} {:>9} {:>10}",
            "program",
            "FAC",
            "LTB-512",
            "LTB-4096",
            "ltb-acc%",
            "ltb-cover%"
        );
        say!(out, "{}", rule(60));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        say!(out, "{}", rule(60));
        let mut d = doc("compare_ltb", rows);
        for (label, key, fp) in [("Int-Avg", "int_avg", false), ("FP-Avg", "fp_avg", true)] {
            let group: Vec<&Json> = cells.iter().filter(|c| cell_bool(c, "fp") == fp).collect();
            let weights: Vec<u64> = group.iter().map(|c| cell_u64(c, "weight")).collect();
            let avg: Vec<f64> = (0..3)
                .map(|i| {
                    weighted_mean(
                        &group.iter().map(|c| cell_vals(c, "vals")[i]).collect::<Vec<_>>(),
                        &weights,
                    )
                })
                .collect();
            say!(out, "{:10} {:>8.3} {:>8.3} {:>8.3}", label, avg[0], avg[1], avg[2]);
            let mut j = Json::obj();
            j.set("speedup.fac", Json::F64(avg[0]));
            j.set("speedup.ltb512", Json::F64(avg[1]));
            j.set("speedup.ltb4096", Json::F64(avg[2]));
            d.set(key, j);
        }
        Exp { human: out, json: d }
    })
}

/// Related work (§6): LUI vs AGI pipeline organizations (Golden & Mudge),
/// each compared with fast address calculation on the LUI pipe.
fn spec_compare_pipelines<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("compare_pipelines:{}", b.workload.name), move || {
            let lui = run(&b.plain, MachineConfig::paper_baseline())?;
            let agi = run(&b.plain, MachineConfig::paper_baseline().with_agi_pipeline())?;
            let fac = run(&b.plain, MachineConfig::paper_baseline().with_fac())?;
            let human = format!(
                "{:10} {:>10} {:>10} {:>10} {:>10.3}x",
                b.workload.name,
                lui.stats.cycles,
                agi.stats.cycles,
                fac.stats.cycles,
                lui.stats.cycles as f64 / agi.stats.cycles as f64
            );
            let mut j = row(b.workload.name);
            j.set("cycles.lui", Json::U64(lui.stats.cycles));
            j.set("cycles.agi", Json::U64(agi.stats.cycles));
            j.set("cycles.lui_fac", Json::U64(fac.stats.cycles));
            Ok(cell(human, j))
        });
    }
    Spec::new("compare_pipelines", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Related work: pipeline organizations (cycles, lower is better) ==");
        say!(
            out,
            "{:10} {:>10} {:>10} {:>10} {:>11}",
            "program",
            "LUI",
            "AGI",
            "LUI+FAC",
            "AGI-vs-LUI"
        );
        say!(out, "{}", rule(56));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("compare_pipelines", rows) }
    })
}

/// Ablation: data-cache associativity. Associativity shrinks the set index
/// (fewer bits to compose carry-free), shifting which accesses fail.
fn spec_ablate_associativity<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_associativity:{}", b.workload.name), move || {
            let mut rates = Vec::new();
            for ways in [1u32, 2, 4] {
                let fields = fac_core::AddrFields::for_set_associative(16 * 1024, 32, ways);
                let rep = fac_sim::profile_predictions(
                    &b.plain,
                    fields,
                    PredictorConfig::default(),
                    crate::MAX_INSTS,
                )?;
                rates.push(rep.pred_loads.fail_rate_all());
            }
            let human = format!(
                "{:10} {:>8} {:>8} {:>8}",
                b.workload.name,
                pct(rates[0]),
                pct(rates[1]),
                pct(rates[2])
            );
            let mut j = row(b.workload.name);
            for (ways, rate) in [1u32, 2, 4].iter().zip(&rates) {
                j.set(&format!("load_fail_rate.ways{ways}"), Json::F64(*rate));
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_associativity", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: D-cache associativity (profile failure rates, 32B blocks) ==");
        say!(out, "{:10} {:>8} {:>8} {:>8}", "program", "1-way", "2-way", "4-way");
        say!(out, "{}", rule(40));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_associativity", rows) }
    })
}

/// Extension (§5.4 footnote 3): the large-array placement strategy the
/// paper proposes to eliminate array-index failures.
fn spec_ablate_array_align<'a>(_suite: &'a [Bench], scale: Scale) -> Spec<'a> {
    use fac_asm::SoftwareSupport;
    const COLS: [&str; 3] = ["none", "sw", "sw_arrays"];
    let mut jobs = JobSet::new();
    // This ablation rebuilds each workload under a third software policy,
    // so it works from the workload descriptors rather than the prebuilt
    // suite.
    for wl in fac_workloads::suite() {
        jobs.push(format!("ablate_array_align:{}", wl.name), move || {
            let mut rates = Vec::new();
            for sw in [
                SoftwareSupport::off(),
                SoftwareSupport::on(),
                SoftwareSupport::on_with_array_alignment(),
            ] {
                let p = wl.build(&sw, scale);
                let rep = profile(&p, 32, PredictorConfig::default())?;
                rates.push(rep.pred_loads.fail_rate_all());
            }
            let human = format!(
                "{:10} {:>8} {:>10} {:>10}",
                wl.name,
                pct(rates[0]),
                pct(rates[1]),
                pct(rates[2])
            );
            let mut j = row(wl.name);
            for (name, rate) in COLS.iter().zip(&rates) {
                j.set(&format!("load_fail_rate.{name}"), Json::F64(*rate));
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_array_align", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Extension: §5.4 large-array alignment (load failure %, profile) ==");
        say!(out, "{:10} {:>8} {:>10} {:>10}", "program", "no sw", "sw (§4)", "sw+arrays");
        say!(out, "{}", rule(42));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_array_align", rows) }
    })
}

/// Ablation: miss-status-holding-register count (non-blocking depth).
fn spec_ablate_mshr<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_mshr:{}", b.workload.name), move || {
            let mut cycles = Vec::new();
            for mshrs in [1u32, 8, 32] {
                let mut cfg = MachineConfig::paper_baseline().with_fac();
                cfg.mshr_entries = mshrs;
                cycles.push(run(&b.tuned, cfg)?.stats.cycles);
            }
            let human = format!(
                "{:10} {:>10} {:>10} {:>10}",
                b.workload.name, cycles[0], cycles[1], cycles[2]
            );
            let mut j = row(b.workload.name);
            for (mshrs, c) in [1u32, 8, 32].iter().zip(&cycles) {
                j.set(&format!("cycles.mshr{mshrs}"), Json::U64(*c));
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_mshr", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: MSHR count (cycles, FAC machine) ==");
        say!(out, "{:10} {:>10} {:>10} {:>10}", "program", "mshr=1", "mshr=8", "mshr=32");
        say!(out, "{}", rule(44));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_mshr", rows) }
    })
}

/// Ablation: store-buffer depth sensitivity.
fn spec_ablate_store_buffer<'a>(suite: &'a [Bench], _scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("ablate_store_buffer:{}", b.workload.name), move || {
            let mut cycles = Vec::new();
            for depth in [2usize, 4, 16, 64] {
                let mut cfg = MachineConfig::paper_baseline().with_fac();
                cfg.store_buffer_entries = depth;
                cycles.push(run(&b.tuned, cfg)?.stats.cycles);
            }
            let human = format!(
                "{:10} {:>10} {:>10} {:>10} {:>10}",
                b.workload.name, cycles[0], cycles[1], cycles[2], cycles[3]
            );
            let mut j = row(b.workload.name);
            for (depth, c) in [2usize, 4, 16, 64].iter().zip(&cycles) {
                j.set(&format!("cycles.sb{depth}"), Json::U64(*c));
            }
            Ok(cell(human, j))
        });
    }
    Spec::new("ablate_store_buffer", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Ablation: store buffer depth (cycles, FAC machine) ==");
        say!(
            out,
            "{:10} {:>10} {:>10} {:>10} {:>10}",
            "program",
            "sb=2",
            "sb=4",
            "sb=16",
            "sb=64"
        );
        say!(out, "{}", rule(56));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("ablate_store_buffer", rows) }
    })
}

/// The sampling plan `tiered_run` uses at each scale. Windows must be
/// long enough that pipeline fill and drain do not dominate the measured
/// CPI (the cold-start bias of DESIGN.md §13); the Paper plan measures
/// ~10% of instructions in detail, the Smoke plan 50% because smoke
/// kernels only retire a few thousand instructions.
pub fn tiered_sample_spec(scale: Scale) -> fac_sim::tier::SampleSpec {
    match scale {
        Scale::Smoke => fac_sim::tier::SampleSpec { every: 4_000, window: 2_000 },
        _ => fac_sim::tier::SampleSpec { every: 100_000, window: 10_000 },
    }
}

/// Tiered execution: the fast functional tier differentially checked
/// against the detailed machine, plus the SMARTS-style sampled timing
/// estimate and its error against full detail (DESIGN.md §13).
fn spec_tiered_run<'a>(suite: &'a [Bench], scale: Scale) -> Spec<'a> {
    let mut jobs = JobSet::new();
    for b in suite {
        jobs.push(format!("tiered_run:{}", b.workload.name), move || {
            let cfg = MachineConfig::paper_baseline().with_fac();
            let full = run(&b.tuned, cfg)?;
            let fast = fac_sim::tier::run_fast(&cfg, &b.tuned, crate::MAX_INSTS)?;
            // The fast tier must reproduce the detailed machine's
            // architectural outcome exactly; a mismatch fails the cell
            // with a typed divergence, never a silently wrong row.
            if fast.insts != full.stats.insts
                || fast.final_state.regs != full.final_state.regs
                || fast.final_state.mem != full.final_state.mem
            {
                return Err(SimError::Divergence {
                    step: fast.insts.min(full.stats.insts),
                    pc: fast.final_state.pc,
                    expected: format!("detailed machine retired {} insts", full.stats.insts),
                    actual: format!("fast tier retired {} insts", fast.insts),
                });
            }
            let spec = tiered_sample_spec(scale);
            let s = fac_sim::tier::run_sampled(&cfg, &b.tuned, spec, crate::MAX_INSTS)?;
            let full_cpi = full.stats.cycles as f64 / full.stats.insts.max(1) as f64;
            let rel_err = (s.cpi - full_cpi) / full_cpi;
            let human = format!(
                "{:10} {:>9} {:>10} {:>7.3} {:>10} {:>7.3} {:>7.4} {:>7} {:>5}",
                b.workload.name,
                full.stats.insts,
                full.stats.cycles,
                full_cpi,
                s.est_cycles,
                s.cpi,
                s.cpi_stderr,
                pct_change(s.cpi, full_cpi),
                s.windows.len(),
            );
            let mut j = row(b.workload.name);
            j.set("insts", Json::U64(full.stats.insts));
            j.set("cycles.detail", Json::U64(full.stats.cycles));
            j.set("cpi.detail", Json::F64(full_cpi));
            j.set("est_cycles.sampled", Json::U64(s.est_cycles));
            j.set("cpi.sampled", Json::F64(s.cpi));
            j.set("cpi_stderr.sampled", Json::F64(s.cpi_stderr));
            j.set("cpi_rel_err", Json::F64(rel_err));
            j.set("windows", Json::U64(s.windows.len() as u64));
            j.set("measured_insts", Json::U64(s.measured_insts));
            j.set("sample_every", Json::U64(spec.every));
            j.set("sample_window", Json::U64(spec.window));
            j.set("fast_verified", Json::Bool(true));
            Ok(cell(human, j))
        });
    }
    Spec::new("tiered_run", jobs, |mut cells| {
        let mut out = String::new();
        say!(out, "\n== Tiered execution: sampled timing vs full detail (FAC machine) ==");
        say!(
            out,
            "{:10} {:>9} {:>10} {:>7} {:>10} {:>7} {:>7} {:>7} {:>5}",
            "program",
            "insts",
            "cycles",
            "CPI",
            "est.cyc",
            "sCPI",
            "stderr",
            "err%",
            "win"
        );
        say!(out, "{}", rule(80));
        let mut rows = Vec::new();
        for c in &mut cells {
            say!(out, "{}", take_human(c));
            rows.push(take_row(c));
        }
        Exp { human: out, json: doc("tiered_run", rows) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rendering from job results in submission order is pure: the same
    /// cells give the same table and document whatever ran them.
    #[test]
    fn spec_render_is_pure_and_ordered() {
        let suite = build_suite(Scale::Smoke);
        let workers_variants = [1usize, 4];
        let mut outputs = Vec::new();
        for workers in workers_variants {
            let spec = spec_table2(&suite, Scale::Smoke);
            assert_eq!(spec.name, "table2");
            let exp = spec.run(&crate::Cx::simple(Scale::Smoke, workers)).unwrap();
            outputs.push((exp.human, exp.json.to_string()));
        }
        assert_eq!(outputs[0], outputs[1], "table2 must not depend on worker count");
        assert!(outputs[0].0.starts_with("\n== Table 2"));
    }

    /// An unknown `--only` name is a typed config error naming every
    /// valid experiment, raised before anything runs.
    #[test]
    fn only_rejects_unknown_names_with_the_valid_list() {
        let err = only("fig9", &crate::Cx::simple(Scale::Smoke, 1)).err().expect("fig9 is no experiment");
        assert!(
            matches!(&err, SimError::InvalidConfig(ConfigError::BadFlagValue { flag, .. }) if flag == "--only"),
            "{err:?}"
        );
        let msg = err.to_string();
        for (name, _) in ALL {
            assert!(msg.contains(name), "message must list {name}: {msg}");
        }
    }

    /// The registry covers the full evaluation, in paper order.
    #[test]
    fn registry_names_are_in_paper_order() {
        let suite = build_suite(Scale::Smoke);
        for (name, spec_fn) in ALL {
            assert_eq!(*name, spec_fn(&suite, Scale::Smoke).name, "registry key names its spec");
        }
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "fig2",
                "table1",
                "table2",
                "fig3",
                "table3",
                "table4",
                "table5",
                "fig6",
                "table6",
                "ablate_or_xor",
                "ablate_full_tag",
                "ablate_store_spec",
                "ablate_store_buffer",
                "ablate_mshr",
                "ablate_array_align",
                "ablate_associativity",
                "compare_ltb",
                "compare_pipelines",
                "tiered_run",
            ]
        );
    }
}

//! The differential fuzzing campaign: seeded program generation, lockstep
//! oracle checking across a config matrix, and automatic failure shrinking.
//!
//! Each seed drives [`fac_asm::fuzz_source`] to a small, valid, halting
//! program stressing the four FAC failure classes, then runs it under the
//! [`Lockstep`] differential checker against every machine configuration in
//! [`config_matrix`]: the paper baseline, FAC, and FAC under each built-in
//! fault plan. The per-seed work — generation, checking, shrinking — is
//! self-contained, so seeds fan out over the [`crate::par::JobSet`] harness
//! and the campaign artifact is **byte-identical at any `--jobs` count**.
//!
//! A failing seed is shrunk on the spot by [`shrink`], a deterministic
//! delta-debugging loop (delete lines, halve constants, neutralize
//! registers) that re-checks every candidate against the same configuration
//! and keeps only changes that preserve the failure, yielding a minimal
//! `.fasm` repro ready to commit to `crates/sim/tests/corpus/`.
//!
//! The campaign also self-tests: [`CampaignConfig::escape`] wires the
//! lockstep's escaped-speculation saboteur in, modelling a verification
//! circuit that silently fails to repair bad speculations. In that mode a
//! seed that does *not* diverge is the failure — the oracle would have
//! missed real architectural corruption.
//!
//! Campaigns are crash-safe: each seed's work is committed to the
//! `--resume` result [`Cache`] the moment it finishes (see
//! [`run_campaign_with`]), so a killed campaign resumed with the same
//! parameters skips finished seeds and still produces a byte-identical
//! artifact. Under the keep-going policy a seed whose *job* fails (panic,
//! deadline) degrades to a `null` lane in the artifact instead of
//! aborting the campaign.

use crate::par::{self, Cache, JobSet, RunOptions};
use fac_asm::{assemble_and_link, fuzz_source, SoftwareSupport};
use fac_core::FaultPlan;
use fac_sim::obs::Json;
use fac_sim::{Lockstep, MachineConfig, SimError};

/// Default per-program instruction budget. Generated programs retire a few
/// thousand instructions; anything near this bound is a runaway.
pub const FUZZ_MAX_STEPS: u64 = 2_000_000;

/// Candidate-evaluation budget for one [`shrink`] call. Bounds the worst
/// case (every pass keeps finding reductions) without affecting typical
/// shrinks, which converge in a few hundred candidates.
const SHRINK_BUDGET: usize = 4_000;

/// What one fuzzing campaign runs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Number of consecutive seeds.
    pub count: u64,
    /// Per-program instruction budget for both the machine and the oracle.
    pub max_steps: u64,
    /// When set, runs the self-test instead: the lockstep's
    /// escaped-speculation saboteur is armed with this plan and every seed
    /// is *expected* to diverge.
    pub escape: Option<FaultPlan>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { start: 0, count: 100, max_steps: FUZZ_MAX_STEPS, escape: None }
    }
}

/// One divergence (or other check failure) found for a seed, with its
/// shrunk repro.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Label of the machine configuration that failed (see
    /// [`config_matrix`]), or `"assemble"` when the generated source did
    /// not build.
    pub config: String,
    /// The rendered [`SimError`].
    pub error: String,
    /// Line count of the generated program.
    pub original_lines: usize,
    /// Line count after shrinking.
    pub shrunk_lines: usize,
    /// The minimal reproducing source (assembles, still fails the same
    /// way under the same configuration).
    pub shrunk: String,
}

/// Everything the campaign learned about one seed.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The generator seed.
    pub seed: u64,
    /// Retired instructions of the longest clean run (0 when nothing ran
    /// clean). Pinning this in the artifact makes silent nondeterminism in
    /// the generator or the simulator visible as an artifact diff.
    pub insts: u64,
    /// Check failures, in config-matrix order.
    pub failures: Vec<Failure>,
}

/// The campaign result: per-seed outcomes in seed order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign parameters.
    pub config: CampaignConfig,
    /// One outcome per seed, ordered by seed.
    pub outcomes: Vec<SeedOutcome>,
}

impl CampaignReport {
    /// Every failure across the campaign, with its seed.
    pub fn failures(&self) -> impl Iterator<Item = (u64, &Failure)> {
        self.outcomes.iter().flat_map(|o| o.failures.iter().map(move |f| (o.seed, f)))
    }

    /// Seeds that found no failure (in escape mode these are the *bad*
    /// seeds: the saboteur went unnoticed).
    pub fn clean_seeds(&self) -> impl Iterator<Item = u64> + '_ {
        self.outcomes.iter().filter(|o| o.failures.is_empty()).map(|o| o.seed)
    }

    /// The machine-readable campaign artifact. Deterministic: identical
    /// for identical campaign parameters at any worker count.
    pub fn to_json(&self) -> Json {
        campaign_doc(&self.config, self.outcomes.iter().map(seed_json).collect(), &[])
    }
}

/// The per-seed artifact cell — exactly the object that appears in the
/// campaign document's `seeds` array, and exactly what the resume cache
/// stores per finished seed.
fn seed_json(o: &SeedOutcome) -> Json {
    let mut s = Json::obj();
    s.set("seed", Json::U64(o.seed));
    s.set("insts", Json::U64(o.insts));
    let mut fails = Vec::new();
    for f in &o.failures {
        let mut j = Json::obj();
        j.set("config", Json::Str(f.config.clone()));
        j.set("error", Json::Str(f.error.clone()));
        j.set("original_lines", Json::U64(f.original_lines as u64));
        j.set("shrunk_lines", Json::U64(f.shrunk_lines as u64));
        j.set("shrunk", Json::Str(f.shrunk.clone()));
        fails.push(j);
    }
    s.set("failures", Json::Arr(fails));
    s
}

/// Inverse of [`seed_json`]; the only way malformed cells arrive here is
/// through a resume cache entry that verified but holds the wrong shape,
/// so failures are typed [`SimError::Checkpoint`].
fn parse_seed(cell: &Json) -> Result<SeedOutcome, SimError> {
    let bad = |what: &str| SimError::Checkpoint {
        path: "campaign cell".to_string(),
        reason: format!("missing or malformed '{what}'"),
    };
    let seed = cell.get("seed").and_then(Json::as_u64).ok_or_else(|| bad("seed"))?;
    let insts = cell.get("insts").and_then(Json::as_u64).ok_or_else(|| bad("insts"))?;
    let Some(Json::Arr(fails)) = cell.get("failures") else {
        return Err(bad("failures"));
    };
    let mut failures = Vec::new();
    for f in fails {
        let s = |k: &'static str| {
            f.get(k).and_then(Json::as_str).map(str::to_string).ok_or_else(|| bad(k))
        };
        let n = |k: &'static str| f.get(k).and_then(Json::as_u64).ok_or_else(|| bad(k));
        failures.push(Failure {
            config: s("config")?,
            error: s("error")?,
            original_lines: n("original_lines")? as usize,
            shrunk_lines: n("shrunk_lines")? as usize,
            shrunk: s("shrunk")?,
        });
    }
    Ok(SeedOutcome { seed, insts, failures })
}

/// Assembles the campaign document from per-seed cells (possibly with
/// `null` lanes for degraded seeds) and the errors behind those lanes.
fn campaign_doc(cc: &CampaignConfig, seeds: Vec<Json>, errors: &[(String, SimError)]) -> Json {
    let mut doc = Json::obj();
    doc.set("start", Json::U64(cc.start));
    doc.set("count", Json::U64(cc.count));
    doc.set("max_steps", Json::U64(cc.max_steps));
    doc.set(
        "escape",
        match cc.escape {
            Some(p) => Json::Str(p.to_string()),
            None => Json::Null,
        },
    );
    doc.set("configs", Json::Arr(
        config_matrix(cc.escape).into_iter().map(|(label, _)| Json::Str(label)).collect(),
    ));
    let failure_count: u64 = seeds
        .iter()
        .map(|s| match s.get("failures") {
            Some(Json::Arr(v)) => v.len() as u64,
            _ => 0,
        })
        .sum();
    doc.set("failure_count", Json::U64(failure_count));
    doc.set("seeds", Json::Arr(seeds));
    if !errors.is_empty() {
        doc.set("errors", par::errors_json(errors));
    }
    doc
}

/// One campaign run through the crash-safety harness.
#[derive(Debug)]
pub struct Campaign {
    /// The campaign parameters.
    pub config: CampaignConfig,
    /// One artifact cell per seed, in seed order; [`Json::Null`] where the
    /// seed's job failed under the keep-going policy (the lane is kept so
    /// seed positions stay stable across runs).
    pub cells: Vec<Json>,
    /// The job failures behind the `null` lanes — always empty in strict
    /// mode, where the first failure aborts the campaign instead.
    pub errors: Vec<(String, SimError)>,
}

impl Campaign {
    /// The machine-readable campaign artifact, with `null` lanes for
    /// degraded seeds and an `errors` block when any seed degraded.
    /// Byte-identical at any worker count, and byte-identical whether the
    /// campaign ran straight through or was killed and resumed.
    pub fn to_json(&self) -> Json {
        campaign_doc(&self.config, self.cells.clone(), &self.errors)
    }

    /// The structured report over the seeds that did run (degraded lanes
    /// are skipped).
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] when a cell restored from the resume
    /// cache does not have the campaign cell shape.
    pub fn report(&self) -> Result<CampaignReport, SimError> {
        let mut outcomes = Vec::new();
        for cell in &self.cells {
            if *cell == Json::Null {
                continue;
            }
            outcomes.push(parse_seed(cell)?);
        }
        Ok(CampaignReport { config: self.config, outcomes })
    }
}

/// The configurations every fuzzed program is checked under.
///
/// Normal mode: the paper baseline, FAC, and FAC under each of the
/// [`FaultPlan::builtin`] campaigns — the full fault matrix must stay
/// architecturally invisible. Escape mode checks a single FAC config; the
/// corruption is injected by the lockstep saboteur, not the fault plan
/// (whose faults the pipeline's own verification circuit repairs).
pub fn config_matrix(escape: Option<FaultPlan>) -> Vec<(String, MachineConfig)> {
    if let Some(plan) = escape {
        return vec![(format!("fac+escape:{plan}"), MachineConfig::paper_baseline().with_fac())];
    }
    let mut matrix = vec![
        ("baseline".to_string(), MachineConfig::paper_baseline()),
        ("fac".to_string(), MachineConfig::paper_baseline().with_fac()),
    ];
    for plan in FaultPlan::builtin() {
        matrix.push((
            format!("fac+{plan}"),
            MachineConfig::paper_baseline().with_fac().with_fault_plan(plan),
        ));
    }
    matrix
}

/// Builds the lockstep checker for one cell of the matrix.
fn lockstep(cfg: MachineConfig, cc: &CampaignConfig) -> Lockstep {
    let mut ls = Lockstep::new(cfg).with_max_insts(cc.max_steps);
    if let Some(plan) = cc.escape {
        ls = ls.with_escaped_speculation(plan);
    }
    ls
}

/// Runs the whole campaign across `jobs` worker threads with the default
/// robustness policy and no resume cache.
///
/// Check failures do **not** abort the campaign — they are shrunk and
/// reported in the [`CampaignReport`]; only infrastructure failures (a
/// panicking job) propagate as errors.
///
/// # Errors
///
/// [`SimError::Panic`] if a seed's job panicked.
pub fn run_campaign(cc: &CampaignConfig, jobs: usize) -> Result<CampaignReport, SimError> {
    run_campaign_with(cc, jobs, &RunOptions::default(), None)?.report()
}

/// Runs the campaign under an explicit robustness policy, committing each
/// finished seed to `cache` (when resuming) and skipping seeds it
/// already holds. Under `opts.keep_going`, failed seed jobs become `null`
/// lanes in [`Campaign::cells`] instead of aborting.
///
/// # Errors
///
/// In strict mode (no `keep_going`), the lowest-seed job failure —
/// [`SimError::Panic`], [`SimError::Timeout`], or whatever the job
/// returned after its retries were exhausted.
pub fn run_campaign_with(
    cc: &CampaignConfig,
    jobs: usize,
    opts: &RunOptions,
    cache: Option<&Cache>,
) -> Result<Campaign, SimError> {
    let mut set = JobSet::new();
    for seed in cc.start..cc.start.saturating_add(cc.count) {
        set.push(format!("fuzz:{seed}"), move || Ok(seed_json(&run_seed(seed, cc))));
    }
    let results = set.run_cached(jobs, opts, cache);
    let (cells, errors) = if opts.keep_going {
        par::degrade(results)
    } else {
        (par::strict(results)?, Vec::new())
    };
    Ok(Campaign { config: *cc, cells, errors })
}

/// Generates, checks and (on failure) shrinks one seed.
fn run_seed(seed: u64, cc: &CampaignConfig) -> SeedOutcome {
    let source = fuzz_source(seed);
    let original_lines = source.lines().count();
    let name = format!("fuzz-{seed}");
    let program = match assemble_and_link(&source, &name, &SoftwareSupport::on()) {
        Ok(p) => p,
        Err(e) => {
            // A generator bug: report it as a failure of the "assemble"
            // pseudo-config, unshrunk (there is no failing run to preserve).
            return SeedOutcome {
                seed,
                insts: 0,
                failures: vec![Failure {
                    config: "assemble".to_string(),
                    error: e.to_string(),
                    original_lines,
                    shrunk_lines: original_lines,
                    shrunk: source,
                }],
            };
        }
    };
    let mut insts = 0;
    let mut failures = Vec::new();
    for (label, cfg) in config_matrix(cc.escape) {
        match lockstep(cfg, cc).run(&program) {
            Ok(report) => insts = insts.max(report.stats.insts),
            Err(err) => {
                let kind = std::mem::discriminant(&err);
                let shrunk = shrink(&source, |candidate| {
                    let Ok(p) = assemble_and_link(candidate, &name, &SoftwareSupport::on())
                    else {
                        return false;
                    };
                    matches!(lockstep(cfg, cc).run(&p),
                             Err(e) if std::mem::discriminant(&e) == kind)
                });
                failures.push(Failure {
                    config: label,
                    error: err.to_string(),
                    original_lines,
                    shrunk_lines: shrunk.lines().count(),
                    shrunk,
                });
            }
        }
    }
    SeedOutcome { seed, insts, failures }
}

/// Shrinks `source` to a (locally) minimal program for which `reproduces`
/// still returns `true`.
///
/// Deterministic delta debugging over source lines, iterated to a
/// fixpoint under a fixed candidate budget:
///
/// 1. **delete** each line, last to first;
/// 2. **halve** each integer constant toward zero (and try zero first);
/// 3. **neutralize** each register operand to `$zero`.
///
/// `reproduces` must treat a non-assembling candidate as `false`; the
/// shrinker itself is syntax-agnostic and relies on that rejection.
pub fn shrink(source: &str, reproduces: impl Fn(&str) -> bool) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let mut budget = SHRINK_BUDGET;
    let check = |candidate: &[String], budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        reproduces(&(candidate.join("\n") + "\n"))
    };
    loop {
        let mut changed = false;

        // Pass 1: line deletion, back to front (later lines depend on
        // earlier definitions more often than the reverse).
        let mut i = lines.len();
        while i > 0 {
            i -= 1;
            let mut candidate = lines.clone();
            candidate.remove(i);
            if check(&candidate, &mut budget) {
                lines = candidate;
                changed = true;
            }
        }

        // Pass 2: constant shrinking. Retry a line until no rewrite of it
        // reproduces, so a constant can halve all the way to zero.
        for i in 0..lines.len() {
            loop {
                let mut applied = false;
                for rewritten in constant_shrinks(&lines[i]) {
                    let mut candidate = lines.clone();
                    candidate[i] = rewritten.clone();
                    if check(&candidate, &mut budget) {
                        lines[i] = rewritten;
                        applied = true;
                        changed = true;
                        break;
                    }
                }
                if !applied {
                    break;
                }
            }
        }

        // Pass 3: register neutralization.
        for i in 0..lines.len() {
            for rewritten in register_neutralizations(&lines[i]) {
                let mut candidate = lines.clone();
                candidate[i] = rewritten.clone();
                if check(&candidate, &mut budget) {
                    lines[i] = rewritten;
                    changed = true;
                }
            }
        }

        if !changed || budget == 0 {
            break;
        }
    }
    lines.join("\n") + "\n"
}

/// The decimal integer literals of a line as `(start, end, value)` spans.
/// Skips digits embedded in identifiers and register names (`$t0`, `L3`,
/// `glob_a`) by requiring the literal not to follow an alphanumeric, `_`
/// or `$`.
fn integer_spans(line: &str) -> Vec<(usize, usize, i64)> {
    let bytes = line.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let neg = bytes[i] == b'-';
        let digits_at = if neg { i + 1 } else { i };
        if digits_at < bytes.len() && bytes[digits_at].is_ascii_digit() {
            let prev = if i == 0 { None } else { Some(bytes[i - 1]) };
            let embedded =
                matches!(prev, Some(p) if p.is_ascii_alphanumeric() || p == b'_' || p == b'$');
            let mut end = digits_at;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            // `0x...` hex literals: the leading zero is not a shrinkable
            // decimal constant.
            let hex = end < bytes.len() && (bytes[end] | 0x20) == b'x';
            if !embedded && !hex {
                if let Ok(v) = line[i..end].parse::<i64>() {
                    spans.push((i, end, v));
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// Candidate rewrites of one line with one constant moved toward zero.
fn constant_shrinks(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (start, end, v) in integer_spans(line) {
        if v == 0 {
            continue;
        }
        for smaller in [0, v / 2] {
            if smaller == v {
                continue;
            }
            out.push(format!("{}{}{}", &line[..start], smaller, &line[end..]));
        }
    }
    out
}

/// Candidate rewrites of one line with one register operand replaced by
/// `$zero`. `$gp` and `$sp` are left alone — they anchor the data and
/// stack segments, and rewriting them only burns shrink budget on
/// candidates that fail for unrelated reasons.
fn register_neutralizations(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            let mut end = i + 1;
            while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
            {
                end += 1;
            }
            let name = &line[i..end];
            if !matches!(name, "$zero" | "$gp" | "$sp") && end > i + 1 {
                out.push(format!("{}$zero{}", &line[..i], &line[end..]));
            }
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_spans_skip_registers_and_identifiers() {
        let spans = integer_spans("    lw      $t0, 4064($s1)   ; glob_a+32, L3");
        assert_eq!(spans.iter().map(|&(_, _, v)| v).collect::<Vec<_>>(), vec![4064, 32]);
        let spans = integer_spans("    addiu   $s3, $sp, -256");
        assert_eq!(spans.iter().map(|&(_, _, v)| v).collect::<Vec<_>>(), vec![-256]);
        // Hex literals are left alone (the trailing digits are "embedded").
        assert!(integer_spans("  li $t0, 0x1f").is_empty());
    }

    #[test]
    fn constant_shrinks_halve_toward_zero() {
        let c = constant_shrinks("    lw      $t0, 4064($s1)");
        assert_eq!(c[0], "    lw      $t0, 0($s1)");
        assert_eq!(c[1], "    lw      $t0, 2032($s1)");
        let c = constant_shrinks("    addiu   $t1, $t1, -64");
        assert_eq!(c[0], "    addiu   $t1, $t1, 0");
        assert_eq!(c[1], "    addiu   $t1, $t1, -32");
    }

    #[test]
    fn register_neutralizations_spare_anchors() {
        let c = register_neutralizations("    addu    $t0, $gp, $t9");
        assert_eq!(c, vec![
            "    addu    $zero, $gp, $t9".to_string(),
            "    addu    $t0, $gp, $zero".to_string(),
        ]);
        assert!(register_neutralizations("    lw $zero, 0($sp)").is_empty());
    }

    /// The shrinker minimizes a synthetic "failure": any program still
    /// containing a magic token. Everything else must be deleted.
    #[test]
    fn shrink_reaches_local_minimum() {
        let source = "a\nb\nMAGIC 128\nc\nd\n";
        let shrunk = shrink(source, |s| s.contains("MAGIC"));
        assert_eq!(shrunk, "MAGIC 0\n");
    }

    /// Same input and predicate, same shrink result: the shrinker has no
    /// hidden state.
    #[test]
    fn shrink_is_deterministic() {
        let source = fuzz_source(3);
        let a = shrink(&source, |s| s.lines().count() > 40);
        let b = shrink(&source, |s| s.lines().count() > 40);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_covers_baseline_fac_and_every_builtin_plan() {
        let m = config_matrix(None);
        assert_eq!(m.len(), 2 + FaultPlan::builtin().len());
        assert_eq!(m[0].0, "baseline");
        assert_eq!(m[1].0, "fac");
        assert!(m[2..].iter().all(|(label, cfg)| {
            label.starts_with("fac+") && cfg.fac.is_some() && cfg.fault_plan.is_some()
        }));
        let e = config_matrix(Some(FaultPlan::parse("silent-wrong").unwrap()));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].0, "fac+escape:silent-wrong");
        assert!(e[0].1.fault_plan.is_none(), "escape corrupts via the saboteur, not the plan");
    }

    /// A tiny clean campaign: every seed runs the full matrix with zero
    /// divergences, and the artifact is byte-identical at any job count.
    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cc = CampaignConfig { start: 0, count: 4, ..CampaignConfig::default() };
        let serial = run_campaign(&cc, 1).unwrap();
        assert_eq!(serial.failures().count(), 0, "divergence in clean campaign");
        assert!(serial.outcomes.iter().all(|o| o.insts > 0));
        let parallel = run_campaign(&cc, 8).unwrap();
        assert_eq!(serial.to_json().to_pretty(2), parallel.to_json().to_pretty(2));
    }

    /// The self-test: with the saboteur armed, seeds diverge and shrink to
    /// a repro that still diverges and still assembles.
    #[test]
    fn escape_campaign_diverges_and_shrinks() {
        let cc = CampaignConfig {
            start: 0,
            count: 2,
            escape: Some(FaultPlan::parse("silent-wrong").unwrap()),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cc, 2).unwrap();
        let failures: Vec<_> = report.failures().collect();
        assert!(!failures.is_empty(), "saboteur went unnoticed by the oracle");
        for (seed, f) in failures {
            assert!(f.error.contains("divergence"), "seed {seed}: {}", f.error);
            assert!(f.shrunk_lines <= f.original_lines);
            // The repro assembles and still diverges under the same setup.
            let p = assemble_and_link(&f.shrunk, "repro", &SoftwareSupport::on()).unwrap();
            let (_, cfg) = config_matrix(cc.escape).remove(0);
            let err = lockstep(cfg, &cc).run(&p).unwrap_err();
            assert!(matches!(err, SimError::Divergence { .. }), "seed {seed}: {err}");
        }
    }
}

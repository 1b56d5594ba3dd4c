//! Runs every experiment in paper order, fanned out over one parallel
//! job pool (`--jobs N`; results and output are bit-identical at any
//! worker count).
//!
//! With `--json <path>` (or `--json -` for stdout) the individual experiment
//! documents are bundled into one object keyed by experiment name.
//!
//! `--only <name>` runs a single experiment (`fig2`, `table3`,
//! `ablate_mshr`, `tiered_run`, …) and prints and exports it in its own
//! per-experiment shape; an unknown name is rejected with the list of
//! valid ones.

fn main() -> std::process::ExitCode {
    fac_bench::conclude_with(&[], &["--only"], |cx, args| match args.value("--only") {
        Some(name) => fac_bench::experiments::only(name, cx),
        None => fac_bench::experiments::run_all(cx),
    })
}

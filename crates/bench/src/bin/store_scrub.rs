//! Offline store scrubber: one anti-entropy pass over a campaign store.
//!
//! ```sh
//! cargo run --release -p fac-bench --bin store_scrub -- --store-dir /tmp/fac-store
//! ```
//!
//! Re-verifies every FACCELL frame with the same checks the read path
//! applies (magic, version, length, FNV-1a content digest, JSON shape)
//! and quarantines corrupt frames with `component=scrubber` provenance
//! in their `.reason` notes. A running server checks each frame the
//! same way when it reads it (`component=read-path`); this tool checks
//! every frame at once, on demand.
//!
//! Exit status: 0 when every frame scanned clean, 1 when anything was
//! corrupt or missing (CI's scrub smoke asserts a clean second pass
//! after recompute), 2 on usage errors.

use fac_bench::serve::store::{Scrub, Store};
use fac_bench::Args;
use fac_sim::SimError;

fn usage() -> ! {
    eprintln!("usage: store_scrub --store-dir <dir>");
    std::process::exit(2);
}

fn or_usage<T>(result: Result<T, SimError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

fn main() -> std::process::ExitCode {
    let args = or_usage(Args::parse(&[], &["--store-dir"]));
    or_usage(args.no_positionals("--store-dir"));
    let Some(dir) = args.value("--store-dir") else { usage() };

    let run = || -> Result<(u64, u64, u64), SimError> {
        let store = Store::open(std::path::Path::new(dir))?;
        let (mut clean, mut corrupt, mut missing) = (0u64, 0u64, 0u64);
        for key in store.keys()? {
            match store.scrub_key(key)? {
                Scrub::Clean => clean += 1,
                Scrub::Missing => missing += 1,
                Scrub::Corrupt(fault) => {
                    corrupt += 1;
                    eprintln!(
                        "store_scrub: key {key:#018x} failed check {}: {} (quarantined)",
                        fault.check, fault.error
                    );
                }
            }
        }
        Ok((clean, corrupt, missing))
    };
    match run() {
        Ok((clean, corrupt, missing)) => {
            println!(
                "store_scrub: {} scanned, {clean} clean, {corrupt} corrupt, {missing} missing",
                clean + corrupt + missing
            );
            if corrupt == 0 && missing == 0 {
                std::process::ExitCode::SUCCESS
            } else {
                std::process::ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

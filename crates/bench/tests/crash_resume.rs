//! Crash-safety integration tests: a campaign binary killed mid-run (real
//! SIGKILL — no destructors, no flushes) and resumed with `--resume` must
//! produce a final artifact byte-identical to an uninterrupted run, at any
//! worker count. Also pins the failure modes: a corrupted resume entry is
//! quarantined and recomputed, never trusted, and a resume directory
//! filled by a campaign with different result-shaping flags serves none
//! of its results.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fac_crash_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The committed `*.cell` frames in a resume directory, sorted.
fn cells(dir: &Path) -> Vec<PathBuf> {
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|iter| {
            iter.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "cell"))
                .collect()
        })
        .unwrap_or_default();
    cells.sort();
    cells
}

/// Runs `bin` with `args`, exporting to `json` and, when given, resuming
/// from `resume`; returns whether it exited 0.
fn run(bin: &str, args: &[&str], json: &Path, resume: Option<&Path>) -> bool {
    let mut cmd = Command::new(bin);
    cmd.args(args).arg("--json").arg(json).stdout(Stdio::null()).stderr(Stdio::null());
    if let Some(dir) = resume {
        cmd.arg("--resume").arg(dir);
    }
    cmd.status().unwrap().success()
}

/// Kill `bench_snapshot` partway through a sweep, then resume at a
/// different worker count: the final JSON must be byte-identical to an
/// uninterrupted run.
#[test]
fn killed_sweep_resumes_byte_identically() {
    let bin = env!("CARGO_BIN_EXE_bench_snapshot");
    let base = temp_dir("sweep");
    let straight = base.join("straight.json");
    let resumed = base.join("resumed.json");
    let campaign = base.join("campaign");

    // Reference: one uninterrupted run (no cache involved at all).
    let status = Command::new(bin)
        .args(["--smoke", "--jobs", "2", "--json"])
        .arg(&straight)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference run failed");

    // Interrupted run: serial, so the store grows one cell at a time.
    // SIGKILL the child as soon as a couple of cells are committed — the
    // process gets no chance to flush or clean up anything.
    let mut child = Command::new(bin)
        .args(["--smoke", "--jobs", "1", "--json"])
        .arg(&resumed)
        .arg("--resume")
        .arg(&campaign)
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if cells(&campaign).len() >= 2 {
            break;
        }
        // The child racing to completion before we can kill it still
        // exercises the resume merge below, just not the kill itself.
        if child.try_wait().unwrap().is_some() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().unwrap();
    let committed = cells(&campaign).len();

    // Resume at a different worker count. Committed cells are re-merged,
    // the rest run live; the artifact must match the reference exactly.
    let status = Command::new(bin)
        .args(["--smoke", "--jobs", "4", "--json"])
        .arg(&resumed)
        .arg("--resume")
        .arg(&campaign)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "resumed run failed");

    let a = std::fs::read(&straight).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(
        a, b,
        "resumed artifact differs from the uninterrupted run \
         ({committed} cells were committed at kill time)"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The fuzz campaign resumes byte-identically too — in escape mode, so
/// the stored cells carry shrunk multi-line sources and exercise the
/// render → parse → render round-trip on escaped strings.
#[test]
fn fuzz_campaign_resumes_byte_identically() {
    let bin = env!("CARGO_BIN_EXE_fuzz_programs");
    let base = temp_dir("fuzz");
    let straight = base.join("straight.json");
    let resumed = base.join("resumed.json");
    let campaign = base.join("campaign");
    let args = ["--seeds", "2", "--escape", "silent-wrong", "--jobs", "2", "--json"];

    let status = Command::new(bin)
        .args(args)
        .arg(&straight)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference campaign failed");

    // First resumed run populates the store; second re-merges every
    // cell from the store without running a single seed.
    for _ in 0..2 {
        let status = Command::new(bin)
            .args(args)
            .arg(&resumed)
            .arg("--resume")
            .arg(&campaign)
            .stdout(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "resumed campaign failed");
        let a = std::fs::read(&straight).unwrap();
        let b = std::fs::read(&resumed).unwrap();
        assert_eq!(a, b, "resumed fuzz artifact differs from the straight run");
    }
    assert_eq!(cells(&campaign).len(), 2);
    std::fs::remove_dir_all(&base).ok();
}

/// A resume entry with one flipped byte is quarantined and recomputed:
/// the run exits 0, the artifact equals the straight run, and the damaged
/// frame waits in `quarantine/` beside its reason note. No unverified
/// result reaches an artifact.
#[test]
fn corrupted_resume_entry_is_quarantined_and_recomputed() {
    let bin = env!("CARGO_BIN_EXE_bench_snapshot");
    let base = temp_dir("corrupt");
    let straight = base.join("straight.json");
    let resumed = base.join("resumed.json");
    let campaign = base.join("campaign");
    let args = ["--smoke", "--jobs", "2"];
    assert!(run(bin, &args, &straight, None), "reference run failed");
    assert!(run(bin, &args, &resumed, Some(&campaign)), "filling run failed");

    let victim = cells(&campaign).into_iter().next().expect("the fill committed cells");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    assert!(run(bin, &args, &resumed, Some(&campaign)), "a corrupt entry must be recomputed");
    assert!(
        std::fs::read(&straight).unwrap() == std::fs::read(&resumed).unwrap(),
        "resumed artifact differs from the straight run"
    );
    let quarantine = campaign.join("quarantine");
    let name = victim.file_name().unwrap();
    assert_eq!(std::fs::read(quarantine.join(name)).unwrap(), bytes, "frame not quarantined");
    assert!(quarantine.join(Path::new(name).with_extension("reason")).exists());
    assert!(victim.exists(), "the recomputed cell is committed again");
    std::fs::remove_dir_all(&base).ok();
}

/// A resume directory filled by a sampled-tier sweep serves nothing to a
/// detailed sweep: the detailed artifact equals a straight detailed run.
#[test]
fn sampled_fill_does_not_leak_into_a_detailed_resume() {
    let bin = env!("CARGO_BIN_EXE_bench_snapshot");
    let base = temp_dir("tier");
    let straight = base.join("straight.json");
    let resumed = base.join("resumed.json");
    let campaign = base.join("campaign");
    let detailed = ["--smoke", "--jobs", "2"];
    assert!(run(bin, &detailed, &straight, None), "reference run failed");
    let sampled = ["--smoke", "--jobs", "2", "--tier", "sampled"];
    assert!(run(bin, &sampled, &base.join("sampled.json"), Some(&campaign)), "fill failed");

    assert!(run(bin, &detailed, &resumed, Some(&campaign)), "resumed run failed");
    assert!(
        std::fs::read(&straight).unwrap() == std::fs::read(&resumed).unwrap(),
        "a detailed resume served sampled-tier cells"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A resume directory filled by a plain fuzz campaign serves nothing to an
/// escape-mode campaign: exit code and artifact match a straight escape run.
#[test]
fn plain_fuzz_fill_does_not_leak_into_an_escape_resume() {
    let bin = env!("CARGO_BIN_EXE_fuzz_programs");
    let base = temp_dir("escape");
    let straight = base.join("straight.json");
    let resumed = base.join("resumed.json");
    let campaign = base.join("campaign");
    let escape = ["--seeds", "2", "--jobs", "2", "--escape", "silent-wrong"];
    let straight_ok = run(bin, &escape, &straight, None);
    assert!(run(bin, &["--seeds", "2", "--jobs", "2"], &base.join("plain.json"), Some(&campaign)));

    let resumed_ok = run(bin, &escape, &resumed, Some(&campaign));
    assert_eq!(resumed_ok, straight_ok, "exit status differs from the straight escape run");
    assert!(
        std::fs::read(&straight).unwrap() == std::fs::read(&resumed).unwrap(),
        "an escape resume served plain-campaign seeds"
    );
    std::fs::remove_dir_all(&base).ok();
}

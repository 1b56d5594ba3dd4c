//! The correctness gate: every row the benchmark produces is compared with
//! a committed reference before any of its timings count.
//!
//! - `ref/detail.json` is the detailed-pipeline snapshot (`BENCH_pr10.json`,
//!   rows byte-identical to `BENCH_pr2.json`);
//! - `ref/sampled.json` is `bench_snapshot --tier sampled` with its default
//!   regime, generated from the commit that added this benchmark;
//! - `ref/server_sweep.json` is the `campaign_client --json` artifact of a
//!   Paper-scale sweep from that same commit.

use fac_sim::obs::json::parse;
use fac_sim::obs::Json;
use std::path::Path;

/// The reference rows of one artifact, each kept in its compact rendering
/// so a comparison is a byte comparison.
#[derive(Debug, Clone)]
pub struct RowGate {
    rows: Vec<String>,
}

fn load(path: &Path) -> Result<(String, Json), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reference {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("reference {}: {e}", path.display()))?;
    Ok((text, doc))
}

fn rows_of(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|rows| rows.iter().map(Json::to_string).collect())
        .ok_or_else(|| format!("reference has no `{key}` array"))
}

impl RowGate {
    /// Loads the `rows` of a committed reference artifact.
    ///
    /// # Errors
    ///
    /// A message naming the file when it is missing or malformed.
    pub fn load(path: &Path) -> Result<RowGate, String> {
        RowGate::from_doc(&load(path)?.1)
    }

    /// The gate for an already-parsed artifact.
    ///
    /// # Errors
    ///
    /// When the document has no `rows` array.
    pub fn from_doc(doc: &Json) -> Result<RowGate, String> {
        Ok(RowGate {
            rows: rows_of(doc, "rows")?,
        })
    }

    /// Rows in the reference.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when `row` renders byte-identically to reference row `i`.
    pub fn check(&self, i: usize, row: &Json) -> bool {
        self.rows.get(i).is_some_and(|r| *r == row.to_string())
    }
}

/// The file form of an artifact, as `fac_bench::write_json` writes it.
pub fn artifact_bytes(doc: &Json) -> String {
    doc.to_pretty(2) + "\n"
}

/// A whole `server_sweep` artifact: its bytes, rows and trace ids.
#[derive(Debug, Clone)]
pub struct ArtifactGate {
    bytes: String,
    rows: RowGate,
    trace_ids: Vec<String>,
}

impl ArtifactGate {
    /// Loads a committed `server_sweep` artifact.
    ///
    /// # Errors
    ///
    /// A message naming the file when it is missing or malformed.
    pub fn load(path: &Path) -> Result<ArtifactGate, String> {
        let (bytes, doc) = load(path)?;
        Ok(ArtifactGate {
            rows: RowGate::from_doc(&doc)?,
            trace_ids: rows_of(&doc, "trace_ids")?,
            bytes,
        })
    }

    /// Cells in the reference sweep.
    pub fn cells(&self) -> usize {
        self.rows.len()
    }

    /// `true` when a served row and its trace id match reference cell `i`.
    pub fn check_cell(&self, i: usize, row: &Json, trace_id: &Json) -> bool {
        self.rows.check(i, row) && self.trace_ids.get(i) == Some(&trace_id.to_string())
    }

    /// Failed cells of one served sweep: the cells whose row or trace id
    /// differ from the reference, or one failure when every cell matches
    /// but the artifact's bytes still differ.
    pub fn failures(&self, artifact: &Json) -> usize {
        if artifact_bytes(artifact) == self.bytes {
            return 0;
        }
        let empty = Vec::new();
        let rows = artifact
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        let ids = artifact
            .get("trace_ids")
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        let bad = (0..self.cells())
            .filter(|&i| match (rows.get(i), ids.get(i)) {
                (Some(row), Some(id)) => !self.check_cell(i, row, id),
                _ => true,
            })
            .count();
        bad.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("ref")
    }

    /// `doc` with the value under `key` replaced in place (`Json::set`
    /// appends, which would change the bytes for the wrong reason).
    fn replaced(doc: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = doc else {
            panic!("not an object: {doc:?}")
        };
        let fields = fields
            .iter()
            .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
            .collect();
        Json::Obj(fields)
    }

    /// `row` with its numeric lane `key` nudged by one part in 10^12.
    fn perturbed(row: &Json, key: &str) -> Json {
        let v = row.get(key).and_then(Json::as_f64).expect("numeric lane");
        replaced(row, key, Json::F64(v * (1.0 + 1e-12)))
    }

    #[test]
    fn row_gate_rejects_a_perturbed_row() {
        for (file, key) in [("detail.json", "ipc.fac"), ("sampled.json", "cpi.fac")] {
            let path = reference().join(file);
            let (_, doc) = load(&path).unwrap();
            let gate = RowGate::load(&path).unwrap();
            assert_eq!(gate.len(), 19, "{file}");
            let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[3];
            assert!(
                gate.check(3, row),
                "{file}: the reference passes its own gate"
            );
            assert!(!gate.check(4, row), "{file}: a row in the wrong slot fails");
            assert!(
                !gate.check(3, &perturbed(row, key)),
                "{file}: a perturbed row fails"
            );
        }
    }

    #[test]
    fn artifact_gate_counts_perturbed_cells() {
        let path = reference().join("server_sweep.json");
        let (_, doc) = load(&path).unwrap();
        let gate = ArtifactGate::load(&path).unwrap();
        assert_eq!(gate.cells(), 38);
        assert_eq!(gate.failures(&doc), 0, "the reference passes its own gate");

        let mut rows = doc.get("rows").and_then(Json::as_arr).unwrap().to_vec();
        rows[5] = perturbed(&rows[5], "ipc");
        rows[9] = replaced(&rows[9], "cycles", Json::U64(1));
        assert_eq!(gate.failures(&replaced(&doc, "rows", Json::Arr(rows))), 2);

        // Same rows, different bytes elsewhere: still a failure.
        let renamed = replaced(&doc, "scale", Json::Str("smoke".to_string()));
        assert_eq!(gate.failures(&renamed), 1);
    }
}

//! Checkpointed, resumable evaluation runs: the on-disk run manifest.
//!
//! A harness run (`tgc eval`) persists per-cell results as cells
//! complete:
//!
//! ```text
//! <checkpoint-dir>/
//!   manifest.txt          the run manifest (this module's format)
//!   cells/<name>.txt      rendered output of each completed cell
//! ```
//!
//! The manifest is a line-oriented plain-text format — the workspace is
//! hermetic (no serde), and a format the operator can read and edit with
//! `grep` beats an opaque blob during an incident:
//!
//! ```text
//! tgc-eval-manifest v1
//! config 00f1e2d3c4b5a697          # fingerprint of the run configuration
//! git 78de924                      # best-effort `git rev-parse` at run time
//! fault-seed 42                    # or `-` when no faults were injected
//! cell table1 done 8a1b... 1       # name, status, output digest, attempts
//! cell fig6@4u failed 0 3
//! cell fig8@4u pending 0 0
//! ```
//!
//! `tgc eval --resume <manifest>` reloads the manifest, verifies the
//! config fingerprint (resuming under a different configuration is a hard
//! error — silently merging incompatible cells would corrupt the report),
//! re-verifies each `done` cell's stored output against its digest, and
//! re-runs only `failed`/`pending` cells. Digests are FNV-1a 64 over the
//! rendered cell text; a digest mismatch (truncated write, manual edit)
//! demotes the cell to `pending` rather than trusting stale bytes.
//!
//! Since PR 6 every directive line is sealed with the
//! [`crate::records`] checksum suffix (` ~<fnv1a hex>`). The strict
//! parser ignores trailing tokens, so sealed manifests stay readable by
//! older readers; [`RunManifest::load_recovering`] uses the seals to
//! survive a torn or corrupted tail (a crash mid-append) by dropping
//! only the damaged lines instead of refusing to resume.

use crate::records;
use std::fmt;
use std::path::{Path, PathBuf};
use treegion_chaos::shim;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// FNV-1a 64-bit digest — the checkpoint/quarantine fingerprint. Stable
/// across platforms and runs (unlike `DefaultHasher`, which is randomly
/// keyed per process and must never reach disk).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Lifecycle state of one harness cell within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed and its output is checkpointed.
    Done,
    /// Every attempt failed; the cell was quarantined.
    Failed,
    /// The cell has not run yet (or its checkpoint did not verify).
    Pending,
}

impl CellStatus {
    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Failed => "failed",
            CellStatus::Pending => "pending",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "done" => Ok(CellStatus::Done),
            "failed" => Ok(CellStatus::Failed),
            "pending" => Ok(CellStatus::Pending),
            other => Err(format!("unknown cell status `{other}`")),
        }
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One cell's manifest record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Canonical cell name (e.g. `fig8@4u`).
    pub name: String,
    /// Lifecycle state.
    pub status: CellStatus,
    /// FNV-1a 64 digest of the rendered output (0 when not `done`).
    pub digest: u64,
    /// Attempts consumed so far.
    pub attempts: u32,
}

/// The persisted state of one evaluation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Fingerprint of the run configuration (suite size, cell list);
    /// resuming requires an exact match.
    pub config_hash: u64,
    /// Best-effort `git rev-parse --short HEAD` at run time.
    pub git_rev: String,
    /// Fault seed the run was started with (informational — faults are
    /// injection knobs, not result configuration, so they are *not* part
    /// of `config_hash` and a resume may drop them).
    pub fault_seed: Option<u64>,
    /// Per-cell records, in canonical cell order.
    pub cells: Vec<CellRecord>,
}

impl RunManifest {
    /// Renders the manifest in its on-disk format. Directive lines carry
    /// a [`crate::seal_record`] seal; the header stays bare so old readers
    /// (which match it exactly) still recognize the file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("tgc-eval-manifest v1\n");
        let mut put = |line: String| {
            out.push_str(&records::seal(&line));
            out.push('\n');
        };
        put(format!("config {:016x}", self.config_hash));
        put(format!("git {}", self.git_rev));
        match self.fault_seed {
            Some(s) => put(format!("fault-seed {s}")),
            None => put("fault-seed -".to_string()),
        }
        for c in &self.cells {
            put(format!(
                "cell {} {} {:016x} {}",
                c.name, c.status, c.digest, c.attempts
            ));
        }
        out
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on any malformed line — a
    /// corrupted manifest must fail loudly, not resume quietly wrong.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("tgc-eval-manifest v1") => {}
            other => {
                return Err(format!(
                    "not a tgc eval manifest (bad header {:?})",
                    other.unwrap_or("")
                ))
            }
        }
        let mut config_hash = None;
        let mut git_rev = String::from("unknown");
        let mut fault_seed = None;
        let mut cells = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let ctx = |m: &str| format!("manifest line {}: {m}", i + 2);
            match parts.next() {
                Some("config") => {
                    let v = parts.next().ok_or_else(|| ctx("missing config hash"))?;
                    config_hash = Some(
                        u64::from_str_radix(v, 16)
                            .map_err(|_| ctx(&format!("bad config hash `{v}`")))?,
                    );
                }
                Some("git") => {
                    git_rev = parts.next().unwrap_or("unknown").to_string();
                }
                Some("fault-seed") => match parts.next() {
                    Some("-") | None => fault_seed = None,
                    Some(v) => {
                        fault_seed = Some(
                            v.parse()
                                .map_err(|_| ctx(&format!("bad fault seed `{v}`")))?,
                        )
                    }
                },
                Some("cell") => {
                    let name = parts.next().ok_or_else(|| ctx("missing cell name"))?;
                    let status =
                        CellStatus::parse(parts.next().ok_or_else(|| ctx("missing status"))?)
                            .map_err(|e| ctx(&e))?;
                    let digest = parts.next().ok_or_else(|| ctx("missing digest"))?;
                    let digest = u64::from_str_radix(digest, 16)
                        .map_err(|_| ctx(&format!("bad digest `{digest}`")))?;
                    let attempts = parts.next().ok_or_else(|| ctx("missing attempts"))?;
                    let attempts = attempts
                        .parse()
                        .map_err(|_| ctx(&format!("bad attempt count `{attempts}`")))?;
                    cells.push(CellRecord {
                        name: name.to_string(),
                        status,
                        digest,
                        attempts,
                    });
                }
                Some(other) => return Err(ctx(&format!("unknown directive `{other}`"))),
                None => unreachable!("empty lines are skipped"),
            }
        }
        Ok(RunManifest {
            config_hash: config_hash.ok_or("manifest is missing its config hash")?,
            git_rev,
            fault_seed,
            cells,
        })
    }

    /// Writes the manifest into `dir` (atomically: temp file, `sync_all`,
    /// rename, best-effort directory fsync — so a crash or power loss at
    /// any point leaves either the previous manifest or the complete new
    /// one, never a torn file published under the manifest name).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as strings.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        self.save_chaos(dir, &None)
    }

    /// [`RunManifest::save`] with a chaos handle: the create → write →
    /// fsync → rename sequence is journaled on (and may be perturbed by)
    /// the armed [`treegion_chaos::FaultPlan`]. `None` is the plain save.
    ///
    /// # Errors
    ///
    /// As [`RunManifest::save`], plus injected faults.
    pub fn save_chaos(&self, dir: &Path, chaos: &treegion_chaos::Chaos) -> Result<PathBuf, String> {
        shim::create_dir_all(dir, chaos, "checkpoint.save")
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join(".manifest.tmp");
        {
            let mut f = shim::ChaosFile::create(&tmp, chaos, "checkpoint.save")
                .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
            f.write_all(self.render().as_bytes())
                .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
            // The fsync before the rename is what makes the rename an
            // atomic *publish*: without it a power loss can rename a
            // file whose bytes never reached the platter, publishing a
            // torn manifest under the real name (the crash-point sweep
            // proves this model catches exactly that).
            f.sync_all()
                .map_err(|e| format!("cannot sync `{}`: {e}", tmp.display()))?;
        }
        shim::rename(&tmp, &path, chaos, "checkpoint.save")
            .map_err(|e| format!("cannot move manifest into place: {e}"))?;
        // Directory fsync makes the rename itself durable. Best-effort:
        // the data is already safe under either name, and not every
        // platform lets a directory be opened for sync.
        let _ = shim::sync_dir(dir, chaos, "checkpoint.save");
        Ok(path)
    }

    /// Loads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest `{}`: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Looks up a cell record by name.
    pub fn cell(&self, name: &str) -> Option<&CellRecord> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Loads a manifest leniently: the checksummed-record recovery scan
    /// (shared with the serve disk cache) truncates a torn or corrupt
    /// tail, and any surviving line that still fails to parse is dropped
    /// instead of failing the whole load. Cells lost this way simply
    /// re-run — resume loses one cell, not the run.
    ///
    /// # Errors
    ///
    /// Still fails when the file is unreadable, is not a manifest at
    /// all, or lost its config fingerprint (resuming without one could
    /// silently merge incompatible runs).
    pub fn load_recovering(path: &Path) -> Result<(Self, ManifestRecovery), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest `{}`: {e}", path.display()))?;
        let rec = records::recover(&text);
        let mut recovery = ManifestRecovery {
            dropped: rec.dropped,
            torn_tail: rec.torn_tail,
        };
        let mut survivors = rec.lines;
        // Shed still-unparsable lines from the tail first (crash damage
        // lives there), then anywhere, until the remainder parses.
        loop {
            let joined = if survivors.is_empty() {
                String::new()
            } else {
                format!("{}\n", survivors.join("\n"))
            };
            match Self::parse(&joined) {
                Ok(m) => return Ok((m, recovery)),
                Err(e) => {
                    // `parse` reports "manifest line N: ..." — drop that
                    // line and retry; anything else is structural.
                    let line_no = e
                        .strip_prefix("manifest line ")
                        .and_then(|r| r.split(':').next())
                        .and_then(|n| n.parse::<usize>().ok());
                    match line_no {
                        Some(n) if n >= 1 && n <= survivors.len() => {
                            survivors.remove(n - 1);
                            recovery.dropped += 1;
                        }
                        _ => return Err(e),
                    }
                }
            }
        }
    }
}

/// What [`RunManifest::load_recovering`] had to repair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManifestRecovery {
    /// Lines dropped (torn tail, corrupt seal, or unparsable).
    pub dropped: usize,
    /// Whether the file ended mid-append.
    pub torn_tail: bool,
}

impl ManifestRecovery {
    /// `true` when anything was repaired.
    pub fn needed_repair(&self) -> bool {
        self.dropped > 0 || self.torn_tail
    }
}

/// Path of a cell's checkpointed output inside a checkpoint directory.
pub fn cell_path(dir: &Path, name: &str) -> PathBuf {
    dir.join("cells").join(format!("{}.txt", sanitize(name)))
}

/// Maps a cell name onto a safe file stem: alphanumerics, `.`, `_`, `-`
/// pass through, everything else (`@`, `/`, spaces) becomes `-`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Best-effort current git revision (short), `"unknown"` outside a repo
/// or without a `git` binary. Never fails.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            config_hash: 0x00f1e2d3c4b5a697,
            git_rev: "abc1234".into(),
            fault_seed: Some(42),
            cells: vec![
                CellRecord {
                    name: "table1".into(),
                    status: CellStatus::Done,
                    digest: fnv1a(b"output"),
                    attempts: 1,
                },
                CellRecord {
                    name: "fig6@4u".into(),
                    status: CellStatus::Failed,
                    digest: 0,
                    attempts: 3,
                },
                CellRecord {
                    name: "fig8@8u".into(),
                    status: CellStatus::Pending,
                    digest: 0,
                    attempts: 0,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let m = sample();
        let parsed = RunManifest::parse(&m.render()).unwrap();
        assert_eq!(m, parsed);
        // And without a fault seed.
        let m2 = RunManifest {
            fault_seed: None,
            ..m
        };
        assert_eq!(RunManifest::parse(&m2.render()).unwrap(), m2);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("tgc-manifest-test-{}", std::process::id()));
        let m = sample();
        let path = m.save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), MANIFEST_FILE);
        let loaded = RunManifest::load(&path).unwrap();
        assert_eq!(m, loaded);
        assert_eq!(loaded.cell("fig6@4u").unwrap().status, CellStatus::Failed);
        assert!(loaded.cell("nope").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_manifests_fail_loudly() {
        assert!(RunManifest::parse("").is_err());
        assert!(RunManifest::parse("not a manifest\n").is_err());
        // Missing config hash.
        assert!(RunManifest::parse("tgc-eval-manifest v1\ngit abc\n").is_err());
        // Bad status.
        let bad = "tgc-eval-manifest v1\nconfig 0\ncell x wedged 0 1\n";
        let err = RunManifest::parse(bad).unwrap_err();
        assert!(err.contains("wedged"), "{err}");
        // Bad digest.
        let bad = "tgc-eval-manifest v1\nconfig 0\ncell x done zzzz 1\n";
        assert!(RunManifest::parse(bad).is_err());
        // Unknown directive.
        let bad = "tgc-eval-manifest v1\nconfig 0\nfrobnicate yes\n";
        assert!(RunManifest::parse(bad).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text =
            "tgc-eval-manifest v1\n\nconfig ff  # fingerprint\n# a comment\ncell a done 1 1\n";
        let m = RunManifest::parse(text).unwrap();
        assert_eq!(m.config_hash, 0xff);
        assert_eq!(m.cells.len(), 1);
    }

    #[test]
    fn rendered_lines_are_sealed() {
        let m = sample();
        for line in m.render().lines().skip(1) {
            assert!(
                matches!(records::check(line), records::LineCheck::Sealed(_)),
                "unsealed directive: {line}"
            );
        }
    }

    #[test]
    fn load_recovering_survives_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("tgc-manifest-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        let path = dir.join(MANIFEST_FILE);
        // Simulate a crash mid-append: the final cell line loses its tail
        // (including the newline), ending mid-status.
        let text = m.render();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();

        // The strict loader refuses...
        assert!(RunManifest::load(&path).is_err());
        // ...the recovering loader drops only the torn cell.
        let (got, rec) = RunManifest::load_recovering(&path).unwrap();
        assert_eq!(rec.dropped, 1);
        assert!(rec.torn_tail);
        assert_eq!(got.config_hash, m.config_hash);
        assert_eq!(got.cells.len(), m.cells.len() - 1);
        assert!(got.cell("fig8@8u").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_recovering_drops_corrupt_line() {
        let dir = std::env::temp_dir().join(format!("tgc-manifest-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        let path = dir.join(MANIFEST_FILE);
        // Flip a byte inside a sealed cell line: the seal catches it and
        // recovery truncates from there (append-log semantics).
        std::fs::write(&path, m.render().replacen("fig6@4u", "fig6@4X", 1)).unwrap();
        let (got, rec) = RunManifest::load_recovering(&path).unwrap();
        assert!(rec.needed_repair());
        assert!(got.cell("table1").is_some());
        assert!(got.cell("fig6@4u").is_none());
        assert!(got.cell("fig6@4X").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_recovering_accepts_legacy_unsealed_manifests() {
        let dir = std::env::temp_dir().join(format!("tgc-manifest-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        // A pre-PR-6 manifest: no seals anywhere.
        std::fs::write(
            &path,
            "tgc-eval-manifest v1\nconfig ff\ngit abc\nfault-seed -\ncell a done 1 1\n",
        )
        .unwrap();
        let (got, rec) = RunManifest::load_recovering(&path).unwrap();
        assert!(!rec.needed_repair());
        assert_eq!(got.cells.len(), 1);
        // An unparsable-but-checksummed line is dropped, not fatal.
        let sealed_junk = records::seal("cell broken");
        std::fs::write(
            &path,
            format!("tgc-eval-manifest v1\nconfig ff\n{sealed_junk}\ncell a done 1 1\n"),
        )
        .unwrap();
        let (got, rec) = RunManifest::load_recovering(&path).unwrap();
        assert_eq!(rec.dropped, 1);
        assert_eq!(got.cells.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"table1"), fnv1a(b"table1"));
    }

    #[test]
    fn sanitize_keeps_names_filesystem_safe() {
        assert_eq!(sanitize("fig8@4u"), "fig8-4u");
        assert_eq!(sanitize("table1"), "table1");
        assert_eq!(sanitize("../evil name"), "..-evil-name");
    }

    #[test]
    fn git_rev_never_fails() {
        let r = git_rev();
        assert!(!r.is_empty());
    }
}

//! Content-addressed snapshots of the registry.
//!
//! A snapshot is a **manifest** (`manifest.json`) naming every
//! registered case — its full version history, each version's content
//! hash and timestamp — plus an **object store** (`objects/<hash>.json`)
//! holding one serialized case document per distinct content hash.
//! Because objects are keyed by `Case::content_hash()`, a case that did
//! not change between snapshots is written once, ever: successive
//! snapshots re-reference the same object file instead of copying the
//! document again, and two names registering identical documents share
//! one object.
//!
//! The write protocol keeps every intermediate state recoverable:
//!
//! 1. write each *missing* object to `objects/<hash>.json.tmp`, sync,
//!    rename into place (objects are immutable once named — a rename
//!    either lands the whole document or leaves the old state);
//! 2. write the manifest the same tmp-then-rename way, recording the
//!    WAL sequence number it covers;
//! 3. only then does the caller truncate the WAL.
//!
//! A crash between (2) and (3) leaves WAL records the manifest already
//! covers; replay skips records with `seq` at or below the manifest's,
//! so double-application is impossible. A crash before (2) leaves the
//! previous manifest intact and the WAL untouched — the new objects
//! are garbage that the next snapshot simply reuses.

use crate::protocol::{format_hash, parse_hash};
use crate::storage_io::{RealIo, StorageIo};
use serde::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One recorded version of a named case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionRecord {
    /// Registry version (1-based, monotonic per name).
    pub version: u64,
    /// Content hash of the case at that version.
    pub hash: u64,
    /// Wall-clock milliseconds when the version was created.
    pub ts_ms: u64,
}

/// A named case's entry in the manifest: its whole history, oldest
/// first; the last record is the current version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestCase {
    /// Registry name.
    pub name: String,
    /// Every version ever recorded, oldest first.
    pub history: Vec<VersionRecord>,
}

/// The snapshot manifest: which cases existed, at which versions, as of
/// which WAL sequence number.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Highest WAL sequence number this snapshot covers; replay skips
    /// records at or below it.
    pub seq: u64,
    /// Every registered case, sorted by name for stable output.
    pub cases: Vec<ManifestCase>,
}

impl Manifest {
    /// The manifest's JSON text, written field by field: the bytes a
    /// serialized `Value` tree of it would have, without building one.
    fn to_text(&self) -> String {
        // Reserved up front: growth by doubling leaves old copies resident.
        let size = self.cases.iter().map(|c| 32 + c.name.len() + 80 * c.history.len());
        let mut out = String::with_capacity(size.sum());
        let _ = write!(out, r#"{{"seq":{},"cases":["#, self.seq);
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"name":"#);
            serde_json::push_string(&mut out, &case.name);
            out.push_str(r#","history":["#);
            for (j, v) in case.history.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // `{:016x}` is `format_hash`'s spelling, without its String.
                let _ = write!(
                    out,
                    r#"{{"version":{},"hash":"{:016x}","ts_ms":{}}}"#,
                    v.version, v.hash, v.ts_ms
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn from_value(value: &Value) -> Result<Manifest, String> {
        let seq = value
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| "manifest `seq` must be a non-negative integer".to_string())?;
        let cases_value = value
            .get("cases")
            .and_then(Value::as_array)
            .ok_or_else(|| "manifest `cases` must be an array".to_string())?;
        let mut cases = Vec::with_capacity(cases_value.len());
        for case in cases_value {
            let name = case
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| "case `name` must be a string".to_string())?
                .to_string();
            let history_value = case
                .get("history")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("case `{name}` history must be an array"))?;
            let mut history = Vec::with_capacity(history_value.len());
            for entry in history_value {
                history.push(VersionRecord {
                    version: entry
                        .get("version")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("case `{name}` has a bad version"))?,
                    hash: entry
                        .get("hash")
                        .and_then(Value::as_str)
                        .and_then(parse_hash)
                        .ok_or_else(|| format!("case `{name}` has a bad hash"))?,
                    ts_ms: entry
                        .get("ts_ms")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("case `{name}` has a bad timestamp"))?,
                });
            }
            if history.is_empty() {
                return Err(format!("case `{name}` has an empty history"));
            }
            cases.push(ManifestCase { name, history });
        }
        Ok(Manifest { seq, cases })
    }
}

/// The on-disk layout rooted at `--data-dir`: WAL, manifest, objects,
/// and a `quarantine/` pen for corrupt objects awaiting repair.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    objects: PathBuf,
    io: Arc<dyn StorageIo>,
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Store {
    /// Opens (creating directories as needed) the store rooted at
    /// `root`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        Store::open_with_io(root, RealIo::shared())
    }

    /// [`Store::open`] against an explicit [`StorageIo`] — the hook the
    /// fault-injecting and crash-simulating disks plug into.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the directories cannot be created.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        io: Arc<dyn StorageIo>,
    ) -> std::io::Result<Store> {
        let root = root.into();
        let objects = root.join("objects");
        io.create_dir_all(&objects)?;
        Ok(Store { root, objects, io })
    }

    /// The [`StorageIo`] this store (and its WAL) runs against.
    #[must_use]
    pub fn io(&self) -> &Arc<dyn StorageIo> {
        &self.io
    }

    /// Path of the write-ahead log inside this store.
    #[must_use]
    pub fn wal_path(&self) -> PathBuf {
        self.root.join("wal.log")
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    fn object_path(&self, hash: u64) -> PathBuf {
        self.objects.join(format!("{}.json", format_hash(hash)))
    }

    /// Reads the manifest, or `None` when no snapshot has been taken.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on read failure, with kind `InvalidData` when
    /// the manifest exists but does not parse — a store that corrupt
    /// needs operator attention, not silent re-initialization.
    pub fn load_manifest(&self) -> std::io::Result<Option<Manifest>> {
        let bytes = match self.io.read_file(&self.manifest_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let text =
            String::from_utf8(bytes).map_err(|e| invalid(format!("manifest is not UTF-8: {e}")))?;
        let value = serde_json::value_from_str(&text)
            .map_err(|e| invalid(format!("manifest does not parse: {e}")))?;
        Manifest::from_value(&value).map(Some).map_err(invalid)
    }

    /// Writes the manifest atomically (tmp, sync, rename).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on write failure.
    pub fn write_manifest(&self, manifest: &Manifest) -> std::io::Result<()> {
        write_atomic(&self.io, &self.manifest_path(), manifest.to_text().as_bytes())
    }

    /// True when the object for `hash` is already stored.
    #[must_use]
    pub fn has_object(&self, hash: u64) -> bool {
        self.io.exists(&self.object_path(hash))
    }

    /// Writes one case document under its content hash, atomically.
    /// Returns `false` without touching disk when the object already
    /// exists — that is the deduplication: identical content is stored
    /// once no matter how many names or snapshots reference it.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on write failure.
    pub fn write_object(&self, hash: u64, doc: &Value) -> std::io::Result<bool> {
        self.write_object_text(hash, &serde_json::value_to_string(doc))
    }

    /// [`Store::write_object`] of a document already serialized — the
    /// canonical text the engine keeps for every committed case.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on write failure.
    pub(crate) fn write_object_text(&self, hash: u64, text: &str) -> std::io::Result<bool> {
        if self.has_object(hash) {
            return Ok(false);
        }
        self.rewrite_object_text(hash, text)?;
        Ok(true)
    }

    /// Writes one serialized case document under its content hash
    /// *unconditionally* — the repair path, which must replace a corrupt
    /// object rather than dedup against its existence.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on write failure.
    pub(crate) fn rewrite_object_text(&self, hash: u64, text: &str) -> std::io::Result<()> {
        write_atomic(&self.io, &self.object_path(hash), text.as_bytes())
    }

    /// Reads the case document stored under `hash`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the object is missing or unreadable,
    /// with kind `InvalidData` when it does not parse.
    pub fn read_object(&self, hash: u64) -> std::io::Result<Value> {
        serde_json::value_from_str(&self.read_object_text(hash)?)
            .map_err(|e| invalid(format!("object {} does not parse: {e}", format_hash(hash))))
    }

    /// [`Store::read_object`]'s text, for decoding straight into a case.
    pub(crate) fn read_object_text(&self, hash: u64) -> std::io::Result<String> {
        let bytes = self.io.read_file(&self.object_path(hash))?;
        String::from_utf8(bytes)
            .map_err(|e| invalid(format!("object {} is not UTF-8: {e}", format_hash(hash))))
    }

    /// Every content hash with an object file currently stored, parsed
    /// from the `objects/` listing — what scrub iterates. Files that do
    /// not look like `<16-hex>.json` (stray tmp files, editor droppings)
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the directory cannot be listed.
    pub fn object_hashes(&self) -> std::io::Result<Vec<u64>> {
        let mut hashes = Vec::new();
        for path in self.io.list_dir(&self.objects)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = name.strip_suffix(".json") else { continue };
            if let Some(hash) = parse_hash(stem) {
                hashes.push(hash);
            }
        }
        hashes.sort_unstable();
        Ok(hashes)
    }

    /// Moves a corrupt object file into `quarantine/`, where it stops
    /// being served but stays available for forensics. Returns the
    /// quarantine path.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the rename fails.
    pub fn quarantine_object(&self, hash: u64) -> std::io::Result<PathBuf> {
        let pen = self.root.join("quarantine");
        self.io.create_dir_all(&pen)?;
        let target = pen.join(format!("{}.json", format_hash(hash)));
        self.io.rename(&self.object_path(hash), &target)?;
        Ok(target)
    }
}

/// Write-to-tmp, sync, rename-into-place. The rename is atomic on every
/// platform the service targets, so readers see either the old file or
/// the complete new one, never a prefix.
fn write_atomic(io: &Arc<dyn StorageIo>, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    io.write_new(&tmp, bytes)?;
    io.rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let mut root = std::env::temp_dir();
        root.push(format!("depcase_snap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        (root, store)
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            seq: 17,
            cases: vec![
                ManifestCase {
                    name: "pump".into(),
                    history: vec![VersionRecord { version: 1, hash: 0xdead_beef, ts_ms: 5 }],
                },
                ManifestCase {
                    name: "reactor".into(),
                    history: vec![
                        VersionRecord { version: 1, hash: 0xdead_beef, ts_ms: 1 },
                        VersionRecord { version: 2, hash: 0xcafe_f00d, ts_ms: 2 },
                    ],
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let (root, store) = tmp_store("manifest");
        assert!(store.load_manifest().unwrap().is_none(), "fresh store has no manifest");
        store.write_manifest(&sample_manifest()).unwrap();
        assert_eq!(store.load_manifest().unwrap().unwrap(), sample_manifest());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn corrupt_manifests_are_an_error_not_a_reset() {
        let (root, store) = tmp_store("corrupt");
        std::fs::write(root.join("manifest.json"), b"{ not json").unwrap();
        let err = store.load_manifest().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn object_listings_quarantine_and_rewrite_support_scrub() {
        let (root, store) = tmp_store("scrub");
        let doc = Value::Object(vec![("title".into(), Value::Str("t".into()))]);
        store.write_object(0xaa, &doc).unwrap();
        store.write_object(0xbb, &doc).unwrap();
        // A stray tmp file must not confuse the listing.
        std::fs::write(root.join("objects").join("leftover.tmp"), b"junk").unwrap();
        assert_eq!(store.object_hashes().unwrap(), vec![0xaa, 0xbb]);

        let pen = store.quarantine_object(0xaa).unwrap();
        assert!(pen.to_string_lossy().contains("quarantine"));
        assert!(!store.has_object(0xaa), "a quarantined object is no longer served");
        assert_eq!(store.object_hashes().unwrap(), vec![0xbb]);

        let repaired = Value::Object(vec![("title".into(), Value::Str("fixed".into()))]);
        store.rewrite_object_text(0xbb, &serde_json::value_to_string(&repaired)).unwrap();
        assert_eq!(store.read_object(0xbb).unwrap(), repaired, "rewrite must replace, not dedup");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn objects_deduplicate_by_content_hash() {
        let (root, store) = tmp_store("objects");
        let doc = Value::Object(vec![("title".into(), Value::Str("t".into()))]);
        assert!(!store.has_object(42));
        assert!(store.write_object(42, &doc).unwrap(), "first write stores the object");
        assert!(!store.write_object(42, &doc).unwrap(), "second write is a dedup no-op");
        assert!(store.has_object(42));
        assert_eq!(store.read_object(42).unwrap(), doc);
        assert!(store.read_object(7).is_err(), "missing objects are an error");
        std::fs::remove_dir_all(root).unwrap();
    }
}

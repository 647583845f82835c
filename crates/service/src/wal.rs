//! Write-ahead log of registry mutations.
//!
//! Every acknowledged `load` and `edit` appends one record **before**
//! the response goes out, so a restart can rebuild exactly the acked
//! state: replay is O(mutations since the last snapshot), never
//! O(cases × size). The on-disk format is length-prefixed, checksummed
//! NDJSON — one record per line:
//!
//! ```text
//! W1 <payload-bytes> <fnv64-hex> <payload-json>\n
//! ```
//!
//! The prefix makes framing self-describing (a reader never has to
//! guess where a record ends), the FNV-1a checksum catches torn writes
//! and bit rot, and the payload stays human-greppable JSON. A crash can
//! leave at most one torn record at the tail; [`Wal::open`] detects it
//! (bad frame, short payload, or checksum mismatch), truncates the file
//! back to the last good record, and reports the drop — recovery is
//! then a pure replay of intact records.
//!
//! Fsync policy is configurable: [`FsyncPolicy::Always`] makes every
//! acked mutation durable against power loss at one `fdatasync` per
//! append; [`FsyncPolicy::Never`] leaves flushing to the OS page cache
//! (still safe against process crashes — each record is a single
//! `write(2)` — but not against power failure). Graceful drain calls
//! [`Wal::sync`] regardless of policy.
//!
//! Payloads carry everything replay needs and nothing it must invent:
//! the mutation sequence number, the wall-clock timestamp recorded at
//! append time (replay reuses it, so `history` timestamps survive
//! restarts), and for edits the **base** content hash the action was
//! applied to — replay re-applies the action to that exact stored
//! version, so concurrent-edit interleavings recover bit-identically —
//! plus the resulting hash, which doubles as an end-to-end check that
//! replay reproduced the original state.

use crate::protocol::{format_hash, parse_hash, EditAction, ErrorCode, WireError};
use crate::storage_io::{AppendFile, RealIo, StorageIo};
use serde::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic + version tag opening every record line.
const MAGIC: &str = "W1";

/// When the WAL flushes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record: acked mutations survive
    /// power loss.
    Always,
    /// Never sync on append; the OS flushes when it pleases. Acked
    /// mutations survive a process kill (the bytes are in the page
    /// cache) but not a power failure.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        })
    }
}

impl FsyncPolicy {
    /// Parses the wire/CLI spelling (`always` | `never`).
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("fsync policy must be \"always\" or \"never\", got \"{other}\"")),
        }
    }
}

/// The mutation a WAL record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A `load`: the full case document as received on the wire.
    Load {
        /// The raw case document; replay deserializes it exactly like
        /// the original request did.
        doc: Value,
    },
    /// An `edit`: the action, plus the content hash of the case state
    /// it was applied to.
    Edit {
        /// Content hash of the pre-edit case (the replay base).
        base_hash: u64,
        /// The mutation, in its wire spelling.
        action: EditAction,
    },
}

/// One durable registry mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic mutation sequence number (1-based, never reused).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at append time.
    pub ts_ms: u64,
    /// Registry name of the mutated case.
    pub name: String,
    /// Registry version this mutation produced.
    pub version: u64,
    /// Content hash of the resulting case state.
    pub hash: u64,
    /// What happened.
    pub op: WalOp,
}

/// A record as [`Wal::append_ref`] writes it: a [`WalRecord`] borrowing
/// its name and mutation, so a `load` is logged straight from the
/// request's own case document instead of from a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordRef<'a> {
    pub seq: u64,
    pub ts_ms: u64,
    pub name: &'a str,
    pub version: u64,
    pub hash: u64,
    pub op: OpRef<'a>,
}

/// A [`WalOp`] by reference.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpRef<'a> {
    Load { doc: &'a Value },
    Edit { base_hash: u64, action: &'a EditAction },
}

impl RecordRef<'_> {
    /// Appends the record's JSON payload to `out`, field by field, in
    /// the order replay has always read: `seq`, `ts_ms`, `op`, `name`,
    /// `version`, `hash`, then `case` or `base_hash` + `action`.
    fn write_payload(&self, out: &mut String) {
        let op = match self.op {
            OpRef::Load { .. } => "load",
            OpRef::Edit { .. } => "edit",
        };
        let _ = write!(out, r#"{{"seq":{},"ts_ms":{},"op":"{op}","name":"#, self.seq, self.ts_ms);
        serde_json::push_string(out, self.name);
        let _ = write!(out, r#","version":{},"hash":"{}""#, self.version, format_hash(self.hash));
        match self.op {
            OpRef::Load { doc } => {
                out.push_str(r#","case":"#);
                serde_json::push_value(out, doc);
            }
            OpRef::Edit { base_hash, action } => {
                let _ = write!(out, r#","base_hash":"{}","action":"#, format_hash(base_hash));
                serde_json::push_value(out, &action.to_value());
            }
        }
        out.push('}');
    }
}

impl WalRecord {
    fn borrowed(&self) -> RecordRef<'_> {
        RecordRef {
            seq: self.seq,
            ts_ms: self.ts_ms,
            name: &self.name,
            version: self.version,
            hash: self.hash,
            op: match &self.op {
                WalOp::Load { doc } => OpRef::Load { doc },
                WalOp::Edit { base_hash, action } => OpRef::Edit { base_hash: *base_hash, action },
            },
        }
    }

    /// Rebuilds a record from its parsed payload, moving a `load`'s case
    /// document out of it rather than copying it.
    fn from_value(mut value: Value) -> Result<WalRecord, String> {
        let doc = match value.get("op").and_then(Value::as_str) {
            Some("load") => Some(take_field(&mut value, "case").ok_or("missing `case`")?),
            _ => None,
        };
        let field = |name: &str| value.get(name).ok_or_else(|| format!("missing `{name}`"));
        let u64_field = |name: &str| {
            field(name)?.as_u64().ok_or_else(|| format!("`{name}` must be a non-negative integer"))
        };
        let hash_field = |name: &str| {
            field(name)?
                .as_str()
                .and_then(parse_hash)
                .ok_or_else(|| format!("`{name}` must be a 16-hex-digit hash"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| "`name` must be a string".to_string())?
            .to_string();
        let op = match (field("op")?.as_str(), doc) {
            (Some("load"), Some(doc)) => WalOp::Load { doc },
            (Some("edit"), _) => WalOp::Edit {
                base_hash: hash_field("base_hash")?,
                action: EditAction::from_fields(
                    field("action")?
                        .as_object()
                        .ok_or_else(|| "`action` not an object".to_string())?,
                )
                .map_err(|e| e.message)?,
            },
            _ => return Err("`op` must be \"load\" or \"edit\"".to_string()),
        };
        Ok(WalRecord {
            seq: u64_field("seq")?,
            ts_ms: u64_field("ts_ms")?,
            name,
            version: u64_field("version")?,
            hash: hash_field("hash")?,
            op,
        })
    }
}

/// Moves the first `name` entry out of an object, leaving `null` behind.
fn take_field(value: &mut Value, name: &str) -> Option<Value> {
    let Value::Object(fields) = value else { return None };
    fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| std::mem::replace(v, Value::Null))
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// True when a torn or corrupt tail was truncated away.
    pub torn_tail_dropped: bool,
    /// Bytes removed by the truncation (0 when the log was clean).
    pub bytes_dropped: u64,
}

/// An open, append-ready write-ahead log.
///
/// The log tracks its own logical length so a *partial* append — a
/// write that failed after landing a prefix (EIO mid-write, ENOSPC,
/// short write) — can be rolled back with a truncation. Without the
/// rollback, garbage bytes would sit between intact records; a later
/// successful append would land *after* them, and recovery's
/// longest-valid-prefix scan would stop at the garbage, silently
/// dropping acked records. When the rollback itself fails the log is
/// marked dirty and every subsequent append retries the rollback
/// first, refusing new records until the tail is clean again.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn AppendFile>,
    path: PathBuf,
    policy: FsyncPolicy,
    appended: u64,
    fsyncs: u64,
    /// Logical length of the intact log: every byte at or past this
    /// offset is rollback debt, not data.
    len: u64,
    /// True when a failed append's partial bytes could not be truncated
    /// away; cleared once a retry succeeds.
    dirty: bool,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Maps a durability I/O failure to its stable wire code.
pub fn storage_error(context: &str, e: &std::io::Error) -> WireError {
    WireError::new(ErrorCode::StorageError, format!("{context}: {e}"))
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans every intact
    /// record, truncates a torn tail if the last crash left one, and
    /// positions the file for appending.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the file cannot be read, created, or
    /// truncated.
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Wal, WalReplay)> {
        Wal::open_with_io(path, policy, &RealIo::shared())
    }

    /// [`Wal::open`] against an explicit [`StorageIo`] — the hook the
    /// fault-injecting and crash-simulating disks plug into.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the file cannot be read, created, or
    /// truncated.
    pub fn open_with_io(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        io: &Arc<dyn StorageIo>,
    ) -> std::io::Result<(Wal, WalReplay)> {
        let path = path.into();
        let bytes = match io.read_file(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, good_len) = scan(&bytes);
        let torn = good_len < bytes.len();
        let mut file = io.open_append(&path)?;
        if torn {
            // Drop the torn tail once, for good: the next open sees a
            // clean log ending at the last intact record.
            file.truncate(good_len as u64)?;
        }
        let replay = WalReplay {
            records,
            torn_tail_dropped: torn,
            bytes_dropped: (bytes.len() - good_len) as u64,
        };
        let wal =
            Wal { file, path, policy, appended: 0, fsyncs: 0, len: good_len as u64, dirty: false };
        Ok((wal, replay))
    }

    /// Appends one record (a single `write(2)`), then syncs per policy.
    /// Returns whether this append was fsynced.
    ///
    /// A failed append rolls its partial bytes back out (see the type
    /// docs), so the log never holds garbage between records: either
    /// the whole record is in the log, or none of it is. A failed
    /// *fsync* rolls the record back too — a record we cannot promise
    /// is durable must not reach a state where its sequence number gets
    /// reused by the next mutation.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the write or sync fails; the caller must
    /// not ack the mutation (the engine answers `read_only` with a
    /// retry hint and flips to read-only mode until an append lands).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<bool> {
        self.append_ref(&record.borrowed())
    }

    /// [`Wal::append`] of a borrowed record.
    ///
    /// # Errors
    ///
    /// As for [`Wal::append`].
    pub(crate) fn append_ref(&mut self, record: &RecordRef<'_>) -> std::io::Result<bool> {
        if self.dirty {
            // A previous rollback failed; clean the tail before letting
            // anything new in, or the scan would stop at the garbage.
            self.file.truncate(self.len)?;
            self.dirty = false;
        }
        let mut payload = String::new();
        record.write_payload(&mut payload);
        let line =
            format!("{MAGIC} {} {:016x} {payload}\n", payload.len(), fnv64(payload.as_bytes()));
        let started = std::time::Instant::now();
        if let Err(e) = self.file.append(line.as_bytes()) {
            self.rollback();
            return Err(e);
        }
        crate::telemetry::phase_event("wal_append", started.elapsed());
        let synced = self.policy == FsyncPolicy::Always;
        if synced {
            let started = std::time::Instant::now();
            if let Err(e) = self.file.sync() {
                self.rollback();
                return Err(e);
            }
            crate::telemetry::phase_event("fsync", started.elapsed());
            self.fsyncs += 1;
        }
        self.len += line.len() as u64;
        self.appended += 1;
        Ok(synced)
    }

    /// Truncates a failed append's partial bytes back out; a failed
    /// truncation marks the log dirty for the next append to retry.
    fn rollback(&mut self) {
        if self.file.truncate(self.len).is_err() {
            self.dirty = true;
        }
    }

    /// Forces everything appended so far to stable storage, regardless
    /// of policy (graceful drain calls this).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the sync fails.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync()?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Empties the log after a snapshot has captured everything in it.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the truncation fails.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.truncate(0)?;
        self.len = 0;
        self.dirty = false;
        Ok(())
    }

    /// Records appended through this handle (not counting replay).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Fsyncs issued through this handle.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The log's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses intact records off the front of `bytes`; returns them plus
/// the byte length of the intact prefix. Anything after the first bad
/// frame — torn write, checksum mismatch, unparseable payload,
/// non-monotonic sequence — is untrusted and excluded.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = 0u64;
    while pos < bytes.len() {
        let Some(record_len) = parse_record(&bytes[pos..], &mut records, &mut last_seq) else {
            break;
        };
        pos += record_len;
    }
    (records, pos)
}

/// Parses one record at the start of `bytes`, pushing it on success and
/// returning its total byte length (`None` = bad frame, stop here).
fn parse_record(bytes: &[u8], records: &mut Vec<WalRecord>, last_seq: &mut u64) -> Option<usize> {
    // "W1 <len> <checksum> " — header fields are space-delimited ASCII.
    let header_end = bytes.iter().position(|&b| b == b' ')?;
    if &bytes[..header_end] != MAGIC.as_bytes() {
        return None;
    }
    let rest = &bytes[header_end + 1..];
    let len_end = rest.iter().position(|&b| b == b' ')?;
    let len: usize = std::str::from_utf8(&rest[..len_end]).ok()?.parse().ok()?;
    let rest = &rest[len_end + 1..];
    let sum_end = rest.iter().position(|&b| b == b' ')?;
    let checksum = parse_hash(std::str::from_utf8(&rest[..sum_end]).ok()?)?;
    let payload_start = header_end + 1 + len_end + 1 + sum_end + 1;
    // Payload + trailing newline must both be present and intact.
    let total = payload_start + len + 1;
    if bytes.len() < total || bytes[total - 1] != b'\n' {
        return None;
    }
    let payload = &bytes[payload_start..payload_start + len];
    if fnv64(payload) != checksum {
        return None;
    }
    let value = serde_json::value_from_str(std::str::from_utf8(payload).ok()?).ok()?;
    let record = WalRecord::from_value(value).ok()?;
    if record.seq <= *last_seq {
        return None;
    }
    *last_seq = record.seq;
    records.push(record);
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("depcase_wal_{tag}_{}", std::process::id()));
        path
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                ts_ms: 1_700_000_000_000,
                name: "reactor".into(),
                version: 1,
                hash: 0xaaaa_bbbb_cccc_dddd,
                op: WalOp::Load {
                    doc: Value::Object(vec![("title".into(), Value::Str("t".into()))]),
                },
            },
            WalRecord {
                seq: 2,
                ts_ms: 1_700_000_000_123,
                name: "reactor".into(),
                version: 2,
                hash: 0x1111_2222_3333_4444,
                op: WalOp::Edit {
                    base_hash: 0xaaaa_bbbb_cccc_dddd,
                    action: EditAction::SetConfidence { node: "E1".into(), confidence: 0.97 },
                },
            },
            WalRecord {
                seq: 3,
                ts_ms: 1_700_000_000_456,
                name: "reactor".into(),
                version: 3,
                hash: 0x5555_6666_7777_8888,
                op: WalOp::Edit {
                    base_hash: 0x1111_2222_3333_4444,
                    action: EditAction::AddLeaf {
                        parent: "G".into(),
                        node: "E9".into(),
                        statement: None,
                        kind: crate::protocol::WireLeafKind::Evidence,
                        confidence: 0.8,
                    },
                },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_append_and_replay() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, replay) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert!(replay.records.is_empty() && !replay.torn_tail_dropped);
        for record in sample_records() {
            assert!(wal.append(&record).unwrap(), "Always policy must fsync");
        }
        assert_eq!((wal.appended(), wal.fsyncs()), (3, 3));
        drop(wal);

        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn_tail_dropped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_exactly_once() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for record in sample_records() {
            assert!(!wal.append(&record).unwrap(), "Never policy must not fsync");
        }
        drop(wal);

        // Tear the final record mid-payload, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records, sample_records()[..2]);
        assert!(replay.torn_tail_dropped);
        assert!(replay.bytes_dropped > 0);

        // The truncation already happened: a second open is clean.
        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.torn_tail_dropped, "the torn tail must be dropped exactly once");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_and_garbage_tails_are_dropped() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);

        // Flip one payload byte of the last record: frame intact,
        // checksum wrong.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn_tail_dropped);

        // Pure garbage appended after good records is dropped too.
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(&sample_records()[2]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not a record at all");
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert!(replay.torn_tail_dropped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = tmp_path("trunc");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        wal.truncate().unwrap();
        wal.append(&WalRecord { seq: 9, ..sample_records()[0].clone() }).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].seq, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_monotonic_sequences_stop_the_scan() {
        let path = tmp_path("seq");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let records = sample_records();
        wal.append(&records[1]).unwrap(); // seq 2
        wal.append(&records[0]).unwrap(); // seq 1 — must not replay
        drop(wal);
        let (_, replay) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].seq, 2);
        assert!(replay.torn_tail_dropped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_appends_roll_their_partial_bytes_back_out() {
        use crate::storage_io::{FaultyIo, SimIo};
        let sim = SimIo::new();
        let faulty =
            FaultyIo::parse(Arc::new(sim.clone()), "seed=3,short_write=1.0,short_write_cap=1")
                .unwrap();
        let io: Arc<dyn StorageIo> = Arc::new(faulty);
        let path = PathBuf::from("/wal.log");
        let (mut wal, _) = Wal::open_with_io(&path, FsyncPolicy::Never, &io).unwrap();
        let records = sample_records();
        let err = wal.append(&records[0]).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        // The partial prefix was rolled back: retries land cleanly and
        // the log holds exactly the acked records, no garbage between.
        wal.append(&records[0]).unwrap();
        wal.append(&records[1]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open_with_io(&path, FsyncPolicy::Never, &io).unwrap();
        assert_eq!(replay.records, records[..2]);
        assert!(!replay.torn_tail_dropped, "rollback must leave nothing to truncate");
    }

    /// A record payload as a tree-building writer rendered it.
    fn tree_payload(record: &WalRecord) -> String {
        let mut fields = vec![
            ("seq".to_string(), Value::U64(record.seq)),
            ("ts_ms".to_string(), Value::U64(record.ts_ms)),
        ];
        let op = match record.op {
            WalOp::Load { .. } => "load",
            WalOp::Edit { .. } => "edit",
        };
        fields.push(("op".to_string(), Value::Str(op.to_string())));
        fields.push(("name".to_string(), Value::Str(record.name.clone())));
        fields.push(("version".to_string(), Value::U64(record.version)));
        fields.push(("hash".to_string(), Value::Str(format_hash(record.hash))));
        match &record.op {
            WalOp::Load { doc } => fields.push(("case".to_string(), doc.clone())),
            WalOp::Edit { base_hash, action } => {
                fields.push(("base_hash".to_string(), Value::Str(format_hash(*base_hash))));
                fields.push(("action".to_string(), action.to_value()));
            }
        }
        serde_json::to_string(&crate::protocol::Json(Value::Object(fields))).unwrap()
    }

    #[test]
    fn payloads_are_written_byte_identically_to_the_value_tree() {
        let mut records = sample_records();
        let odd = "re\"act\\or\n\u{1}é😀";
        records.extend(sample_records().into_iter().map(|r| WalRecord { name: odd.into(), ..r }));
        records.push(WalRecord {
            op: WalOp::Load {
                doc: Value::Object(vec![(odd.into(), Value::Array(vec![Value::F64(0.1)]))]),
            },
            ..sample_records()[0].clone()
        });
        for record in &records {
            let mut direct = String::new();
            record.borrowed().write_payload(&mut direct);
            assert_eq!(direct, tree_payload(record));
            let parsed = serde_json::value_from_str(&direct).unwrap();
            assert_eq!(&WalRecord::from_value(parsed).unwrap(), record);
        }
    }

    #[test]
    fn fsync_policy_parses_its_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}

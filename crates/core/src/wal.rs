//! Write-ahead log and on-disk store layout for the durable
//! [`crate::SearchService`].
//!
//! A durable service directory holds exactly two files:
//!
//! * `snapshot.kb` — the latest checkpoint: a versioned header carrying the
//!   epoch, then the [`Database`] and [`InvertedIndex`] snapshots as
//!   length-prefixed, CRC-checksummed sections. Replaced atomically
//!   (write temp → fsync → rename), so it is always a complete, valid
//!   snapshot of *some* epoch.
//! * `wal.kb` — the write-ahead log: a magic header followed by CRC-framed
//!   records, one per ingested batch, each fsynced *before* the batch's
//!   epoch is published. A record is `[len u32][crc u32][seq u64 + encoded
//!   RowBatch]`; `seq` is the epoch the batch produces, which lets recovery
//!   skip records already folded into the snapshot (the post-checkpoint /
//!   pre-truncate crash window) without ever applying a batch twice.
//!
//! Recovery ([`crate::SearchService::open`]) loads the snapshot, replays the
//! WAL tail, and *discards* a torn final record: a crash mid-append leaves a
//! frame whose length, checksum, or payload is incomplete, and the scanner
//! truncates the log back to the last whole record. `insert_batch`
//! atomicity is the replay unit, so a batch is either fully visible after
//! recovery or not at all.
//!
//! Every fallible step of the append/checkpoint path carries a
//! [`FaultPoint`] hook keyed by an injectable [`FaultPlan`], so the
//! recovery suite can deterministically "kill" the process at each point
//! and assert crash-equivalence.

use keybridge_index::InvertedIndex;
use keybridge_relstore::snapshot::{
    crc32, decode_batch, encode_batch, put_section, put_u32, put_u64, Cursor, SnapshotError,
};
use keybridge_relstore::{Database, RowBatch};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Snapshot file name inside a durable service directory.
pub const SNAPSHOT_FILE: &str = "snapshot.kb";
/// Temp file the checkpoint writes before the atomic rename.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Write-ahead log file name inside a durable service directory.
pub const WAL_FILE: &str = "wal.kb";

const WAL_MAGIC: &[u8; 8] = b"KBWAL001";
const SNAP_MAGIC: &[u8; 8] = b"KBSNAP01";
const SNAP_VERSION: u32 = 1;
const SEC_DB: u8 = 1;
const SEC_INDEX: u8 = 2;

/// A point in the WAL/checkpoint path where the fault-injection harness can
/// simulate a crash. Each fault leaves the on-disk state exactly as a
/// process death at that instant would (including a *torn* partial write
/// for the `Mid*` points) and poisons the service's durability, modeling
/// that the process is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Die halfway through writing a WAL frame: the log gains a torn tail.
    MidWalAppend,
    /// Die after the WAL record is durable but before the epoch swap: the
    /// batch is on disk yet was never served.
    PostWalAppendPreSwap,
    /// Die halfway through writing the checkpoint temp file: a partial
    /// `snapshot.tmp` survives; the real snapshot is untouched.
    MidCheckpoint,
    /// Die after the snapshot rename but before the WAL truncation: the log
    /// still holds records the snapshot already contains.
    PostCheckpointPreTruncate,
    /// A WAL append dies halfway through its frame *and* the rollback
    /// truncation fails too: a durable torn tail remains that this handle
    /// cannot clear, so the log must poison itself.
    WalRollbackFail,
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultPoint::MidWalAppend => "mid-wal-append",
            FaultPoint::PostWalAppendPreSwap => "post-wal-append-pre-swap",
            FaultPoint::MidCheckpoint => "mid-checkpoint",
            FaultPoint::PostCheckpointPreTruncate => "post-checkpoint-pre-truncate",
            FaultPoint::WalRollbackFail => "wal-rollback-fail",
        };
        f.write_str(name)
    }
}

/// Deterministic fault injector. Arm a [`FaultPoint`] and the next time the
/// durability path passes that point it fails exactly as a crash there
/// would. One-shot: firing disarms the plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    armed: Mutex<Option<FaultPoint>>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the plan to fire at `point`.
    pub fn arm(&self, point: FaultPoint) {
        *self.armed.lock().unwrap() = Some(point);
    }

    /// Consume the armed fault if it matches `point`.
    pub(crate) fn fire(&self, point: FaultPoint) -> bool {
        let mut armed = self.armed.lock().unwrap();
        if *armed == Some(point) {
            *armed = None;
            true
        } else {
            false
        }
    }
}

/// Errors of the durability layer: the WAL, the checkpoint/snapshot files,
/// and recovery.
#[derive(Debug)]
pub enum DurabilityError {
    /// Filesystem failure; the message names the operation and cause.
    Io(String),
    /// A snapshot file failed to decode.
    Snapshot(SnapshotError),
    /// On-disk state is internally inconsistent (WAL sequence gap, replayed
    /// batch rejected, store directory already occupied, …).
    Corrupt(String),
    /// An armed [`FaultPoint`] fired (testing only).
    FaultInjected(FaultPoint),
    /// The service's durability was poisoned by an earlier failure; restart
    /// via [`crate::SearchService::open`] to recover.
    Poisoned,
    /// The service was started without a durable directory.
    NotDurable,
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(msg) => write!(f, "durability io error: {msg}"),
            DurabilityError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            DurabilityError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            DurabilityError::FaultInjected(p) => write!(f, "injected fault at {p}"),
            DurabilityError::Poisoned => {
                f.write_str("durability poisoned by an earlier failure; reopen to recover")
            }
            DurabilityError::NotDurable => {
                f.write_str("service has no durable directory (started with `start`)")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e.to_string())
    }
}

impl From<SnapshotError> for DurabilityError {
    fn from(e: SnapshotError) -> Self {
        DurabilityError::Snapshot(e)
    }
}

fn io_ctx(op: &str, path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io(format!("{op} {}: {e}", path.display()))
}

/// An open write-ahead log positioned at its good end.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Length of the validated prefix; appends start here.
    good_len: u64,
    /// Set when a failed append could not be rolled back: the file may end
    /// in a durable torn frame this handle cannot clear, so any further
    /// append through it would land *past* the tear and be silently dropped
    /// by the recovery scan. A poisoned log refuses all appends; reopen via
    /// [`Wal::open_at`] (which truncates the tear) to recover.
    poisoned: bool,
}

impl Wal {
    /// Create a fresh, empty log (truncating any existing file).
    pub fn create(dir: &Path) -> Result<Wal, DurabilityError> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_ctx("create", &path, e))?;
        file.write_all(WAL_MAGIC)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_ctx("init", &path, e))?;
        Ok(Wal {
            file,
            path,
            good_len: WAL_MAGIC.len() as u64,
            poisoned: false,
        })
    }

    /// Open an existing log for appending at `good_len` — the validated
    /// prefix a [`scan_wal`] returned. Any torn tail beyond it is truncated
    /// away so new records land on a clean boundary.
    pub fn open_at(dir: &Path, good_len: u64) -> Result<Wal, DurabilityError> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_ctx("open", &path, e))?;
        file.set_len(good_len)
            .and_then(|()| file.sync_all())
            .and_then(|()| file.seek(SeekFrom::Start(good_len)))
            .map_err(|e| io_ctx("truncate torn tail of", &path, e))?;
        Ok(Wal {
            file,
            path,
            good_len,
            poisoned: false,
        })
    }

    /// Whether a failed rollback has poisoned this log (see [`Wal::append`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one record — `seq` plus the encoded batch — and fsync it.
    /// Returns the frame size in bytes. On failure the file is rolled back
    /// to the previous good length; if that rollback *itself* fails the log
    /// poisons itself and every later append returns
    /// [`DurabilityError::Poisoned`], because appending past a torn frame
    /// would produce records the recovery scan silently discards. The
    /// service poisons its durability on any append error, so a torn tail
    /// left by a genuine mid-write crash is only ever seen by recovery.
    pub fn append(
        &mut self,
        seq: u64,
        batch: &RowBatch,
        faults: &FaultPlan,
    ) -> Result<u64, DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        let mut payload = Vec::new();
        put_u64(&mut payload, seq);
        payload.extend_from_slice(&encode_batch(batch)?);
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);

        if faults.fire(FaultPoint::MidWalAppend) {
            // Simulate dying halfway through the frame: write a torn prefix,
            // make it durable, and fail. Recovery must discard it.
            let torn = &frame[..frame.len() / 2];
            let _ = self
                .file
                .write_all(torn)
                .and_then(|()| self.file.sync_data());
            return Err(DurabilityError::FaultInjected(FaultPoint::MidWalAppend));
        }
        if faults.fire(FaultPoint::WalRollbackFail) {
            // Simulate the worst append failure: the frame write dies midway
            // AND the rollback truncation fails, leaving a durable torn tail
            // this handle cannot clear. The log must poison itself.
            let torn = &frame[..frame.len() / 2];
            let _ = self
                .file
                .write_all(torn)
                .and_then(|()| self.file.sync_data());
            self.poisoned = true;
            return Err(DurabilityError::FaultInjected(FaultPoint::WalRollbackFail));
        }

        let write = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = write {
            // Roll back to the previous good length. If the rollback fails
            // the file may end in a torn frame a later append would sit
            // *past* — recovery would then silently drop that record — so
            // the log refuses all further appends until reopened.
            let rollback = self
                .file
                .set_len(self.good_len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.good_len)).map(|_| ()));
            if rollback.is_err() {
                self.poisoned = true;
            }
            return Err(io_ctx("append to", &self.path, e));
        }
        self.good_len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Drop every record: the checkpoint has folded them into the snapshot.
    pub fn truncate(&mut self) -> Result<(), DurabilityError> {
        let header = WAL_MAGIC.len() as u64;
        self.file
            .set_len(header)
            .and_then(|()| self.file.sync_all())
            .and_then(|()| self.file.seek(SeekFrom::Start(header)))
            .map_err(|e| io_ctx("truncate", &self.path, e))?;
        self.good_len = header;
        Ok(())
    }
}

/// Result of scanning a write-ahead log.
#[derive(Debug)]
pub struct WalScan {
    /// The whole records, in file order: `(seq, batch)`.
    pub records: Vec<(u64, RowBatch)>,
    /// Byte length of the validated prefix (torn bytes excluded).
    pub good_len: u64,
    /// Bytes discarded past `good_len` — a torn final record, if any.
    pub torn_bytes: u64,
    /// Whether the file existed with a valid header. When false the log
    /// must be recreated rather than opened for append.
    pub header_valid: bool,
}

/// Scan `wal.kb` in `dir`, validating frame lengths and checksums. A record
/// whose frame is incomplete, whose CRC mismatches, or whose payload fails
/// to decode ends the scan: everything before it is the durable prefix,
/// everything from it on is a torn tail to discard. A missing file scans as
/// empty. A present file with the wrong magic is an error — it is not ours
/// to truncate.
pub fn scan_wal(dir: &Path) -> Result<WalScan, DurabilityError> {
    let path = dir.join(WAL_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_ctx("read", &path, e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                good_len: 0,
                torn_bytes: 0,
                header_valid: false,
            });
        }
        Err(e) => return Err(io_ctx("open", &path, e)),
    }
    if bytes.len() < WAL_MAGIC.len() {
        // Torn header: the log died during creation, before any record
        // could exist. Recreate it.
        return Ok(WalScan {
            records: Vec::new(),
            good_len: 0,
            torn_bytes: bytes.len() as u64,
            header_valid: false,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DurabilityError::Corrupt(format!(
            "{} is not a keybridge WAL",
            path.display()
        )));
    }

    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if pos + 8 > bytes.len() {
            break; // torn frame header (or clean EOF at pos == len)
        }
        let mut hc = Cursor::new(&bytes[pos..pos + 8]);
        let len = hc.u32().expect("8 bytes present") as usize;
        let stored_crc = hc.u32().expect("8 bytes present");
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // torn payload
        };
        let payload = &bytes[start..end];
        if crc32(payload) != stored_crc {
            break; // torn or bit-flipped payload
        }
        let mut pc = Cursor::new(payload);
        let Ok(seq) = pc.u64() else { break };
        let Ok(batch) = decode_batch(&payload[8..]) else {
            break; // undecodable payload: treat as torn
        };
        records.push((seq, batch));
        pos = end;
    }
    Ok(WalScan {
        records,
        good_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        header_valid: true,
    })
}

/// Write the combined `snapshot.kb` (epoch + database + index) atomically:
/// temp file, fsync, rename, best-effort directory sync. Returns the
/// snapshot size in bytes. The [`FaultPoint::MidCheckpoint`] hook dies
/// halfway through the temp write, leaving the previous snapshot intact.
pub fn write_snapshot_file(
    dir: &Path,
    epoch: u64,
    db: &Database,
    index: &InvertedIndex,
    faults: &FaultPlan,
) -> Result<u64, DurabilityError> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut out, SNAP_VERSION);
    put_u64(&mut out, epoch);
    put_section(&mut out, SEC_DB, &db.snapshot_bytes()?);
    put_section(&mut out, SEC_INDEX, &index.snapshot_bytes()?);

    let tmp = dir.join(SNAPSHOT_TMP);
    let path = dir.join(SNAPSHOT_FILE);
    if faults.fire(FaultPoint::MidCheckpoint) {
        // Simulate dying mid-checkpoint: a partial temp file survives.
        let torn = &out[..out.len() / 2];
        let _ = std::fs::write(&tmp, torn);
        return Err(DurabilityError::FaultInjected(FaultPoint::MidCheckpoint));
    }
    let mut f = File::create(&tmp).map_err(|e| io_ctx("create", &tmp, e))?;
    f.write_all(&out)
        .and_then(|()| f.sync_all())
        .map_err(|e| io_ctx("write", &tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| io_ctx("rename into", &path, e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // make the rename durable where supported
    }
    Ok(out.len() as u64)
}

/// Read and decode `snapshot.kb` from `dir`, returning `(epoch, db, index)`.
/// A stale `snapshot.tmp` left by a mid-checkpoint crash is deleted.
pub fn read_snapshot_file(dir: &Path) -> Result<(u64, Database, InvertedIndex), DurabilityError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    if tmp.exists() {
        let _ = std::fs::remove_file(&tmp);
    }
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    File::open(&path)
        .map_err(|e| io_ctx("open", &path, e))?
        .read_to_end(&mut bytes)
        .map_err(|e| io_ctx("read", &path, e))?;
    let mut c = Cursor::new(&bytes);
    if c.take(8).map_err(DurabilityError::Snapshot)? != SNAP_MAGIC {
        return Err(DurabilityError::Snapshot(SnapshotError::BadMagic));
    }
    let version = c.u32().map_err(DurabilityError::Snapshot)?;
    if version != SNAP_VERSION {
        return Err(DurabilityError::Snapshot(
            SnapshotError::UnsupportedVersion(version),
        ));
    }
    let epoch = c.u64().map_err(DurabilityError::Snapshot)?;
    let db_bytes = c.section(SEC_DB).map_err(DurabilityError::Snapshot)?;
    let idx_bytes = c.section(SEC_INDEX).map_err(DurabilityError::Snapshot)?;
    let db = Database::from_snapshot_bytes(db_bytes)?;
    let index = InvertedIndex::from_snapshot_bytes(idx_bytes)?;
    Ok((epoch, db, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_relstore::{SchemaBuilder, TableKind, Value};

    fn tiny_db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("doc", TableKind::Entity).pk("id").text_attr("body");
        let mut db = Database::new(b.finish().unwrap());
        let doc = db.schema().table_id("doc").unwrap();
        db.insert(doc, vec![Value::Int(1), Value::text("hello wal")])
            .unwrap();
        db
    }

    fn batch(db: &Database, ids: &[i64]) -> RowBatch {
        let doc = db.schema().table_id("doc").unwrap();
        ids.iter()
            .map(|&i| (doc, vec![Value::Int(i), Value::text(format!("row {i}"))]))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("keybridge-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let db = tiny_db();
        let faults = FaultPlan::new();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &batch(&db, &[10, 11]), &faults).unwrap();
        wal.append(2, &batch(&db, &[12]), &faults).unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert!(scan.header_valid);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].0, 1);
        assert_eq!(scan.records[0].1, batch(&db, &[10, 11]));
        assert_eq!(scan.records[1].0, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_empties_log() {
        let dir = tmp_dir("truncate");
        let db = tiny_db();
        let faults = FaultPlan::new();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &batch(&db, &[10]), &faults).unwrap();
        wal.truncate().unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.header_valid);
        // Appends continue cleanly after a truncation.
        wal.append(5, &batch(&db, &[20]), &faults).unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_discarded_at_every_byte() {
        let dir = tmp_dir("torn");
        let db = tiny_db();
        let faults = FaultPlan::new();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &batch(&db, &[10]), &faults).unwrap();
        let keep = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        wal.append(2, &batch(&db, &[11]), &faults).unwrap();
        drop(wal);
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        for cut in keep as usize..full.len() {
            std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
            let scan = scan_wal(&dir).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.good_len, keep, "cut at {cut}");
            assert_eq!(scan.torn_bytes, (cut as u64) - keep, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_append_fault_leaves_torn_tail() {
        let dir = tmp_dir("fault");
        let db = tiny_db();
        let faults = FaultPlan::new();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &batch(&db, &[10]), &faults).unwrap();
        faults.arm(FaultPoint::MidWalAppend);
        let err = wal.append(2, &batch(&db, &[11]), &faults).unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::FaultInjected(FaultPoint::MidWalAppend)
        ));
        drop(wal);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 1, "torn record discarded");
        assert!(scan.torn_bytes > 0);
        // Reopening at the good length clears the tail for new appends.
        let mut wal = Wal::open_at(&dir, scan.good_len).unwrap();
        wal.append(2, &batch(&db, &[11]), &FaultPlan::new())
            .unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rollback_poisons_log_until_reopen() {
        let dir = tmp_dir("rollbackfail");
        let db = tiny_db();
        let faults = FaultPlan::new();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(1, &batch(&db, &[10]), &faults).unwrap();
        let good = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();

        faults.arm(FaultPoint::WalRollbackFail);
        let err = wal.append(2, &batch(&db, &[11]), &faults).unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::FaultInjected(FaultPoint::WalRollbackFail)
        ));
        assert!(wal.is_poisoned());

        // The poisoned handle refuses further appends — were it to accept
        // one, the record would land past the durable torn frame and the
        // recovery scan would silently drop it.
        let err = wal
            .append(3, &batch(&db, &[12]), &FaultPlan::new())
            .unwrap_err();
        assert!(matches!(err, DurabilityError::Poisoned));

        // Recovery sees the good prefix, discards the tear…
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.good_len, good);
        assert!(scan.torn_bytes > 0);

        // …and a reopen at the good length clears the tear and serves
        // appends again.
        drop(wal);
        let mut wal = Wal::open_at(&dir, scan.good_len).unwrap();
        assert!(!wal.is_poisoned());
        wal.append(2, &batch(&db, &[11]), &FaultPlan::new())
            .unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_foreign_files() {
        let dir = tmp_dir("missing");
        let scan = scan_wal(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.header_valid);
        std::fs::write(dir.join(WAL_FILE), b"definitely not a wal").unwrap();
        assert!(matches!(
            scan_wal(&dir).unwrap_err(),
            DurabilityError::Corrupt(_)
        ));
        // A header shorter than the magic is a torn creation, not foreign.
        std::fs::write(dir.join(WAL_FILE), b"KBW").unwrap();
        assert!(!scan_wal(&dir).unwrap().header_valid);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_file_roundtrip_and_tmp_cleanup() {
        let dir = tmp_dir("snapfile");
        let db = tiny_db();
        let index = InvertedIndex::build(&db);
        let faults = FaultPlan::new();
        let n = write_snapshot_file(&dir, 7, &db, &index, &faults).unwrap();
        assert!(n > 0);
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp renamed away");
        // A stale tmp from a crashed checkpoint is swept on read.
        std::fs::write(dir.join(SNAPSHOT_TMP), b"partial").unwrap();
        let (epoch, db2, index2) = read_snapshot_file(&dir).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(db2.snapshot_bytes(), db.snapshot_bytes());
        assert_eq!(index2.snapshot_bytes(), index.snapshot_bytes());
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_checkpoint_fault_preserves_previous_snapshot() {
        let dir = tmp_dir("midckpt");
        let db = tiny_db();
        let index = InvertedIndex::build(&db);
        let faults = FaultPlan::new();
        write_snapshot_file(&dir, 1, &db, &index, &faults).unwrap();
        let before = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        faults.arm(FaultPoint::MidCheckpoint);
        let err = write_snapshot_file(&dir, 2, &db, &index, &faults).unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::FaultInjected(FaultPoint::MidCheckpoint)
        ));
        assert!(dir.join(SNAPSHOT_TMP).exists(), "partial tmp left behind");
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            before,
            "real snapshot untouched"
        );
        let (epoch, ..) = read_snapshot_file(&dir).unwrap();
        assert_eq!(epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

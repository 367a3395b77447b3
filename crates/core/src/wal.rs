//! Durable write-ahead logging and crash recovery for [`LogicalDatabase`].
//!
//! The paper's §4 observes that "simply keeping a record of past updates
//! and recomputing the state of the theory on each new query" is the
//! strawman alternative to GUA-plus-simplification. A *write-ahead log* is
//! that record put to honest work: every LDML update (and every schema
//! change) is journaled — length-prefixed, CRC32-checksummed, versioned —
//! **before** GUA applies it, so that after a crash the database state can
//! be reconstructed by loading the latest [`TheoryDump`] snapshot and
//! replaying the WAL suffix. A record is an [`Op`] or a marker:
//! [`TxnSettle`] decides which ops take effect and in what order, and
//! [`apply_op`] applies each one in place; recovery, the compaction swap,
//! transaction workspaces and replicas all replay through this pair.
//! Recovery truncates at the first
//! torn or corrupt record, which gives the atomicity guarantee the
//! fault-injection tests enforce: whatever byte a crash lands on, the
//! recovered theory's alternative-world set equals the world set after
//! some *prefix* of the acknowledged operations — never a third state.
//!
//! Layout on storage (two named files behind the [`Storage`] trait):
//!
//! ```text
//! snapshot.json   { version, lsn, theory: TheoryDump }      (atomic replace)
//! wal.log         "WWAL" ++ u32 version ++ record*          (append-only)
//! record        = u32 payload_len ++ u32 crc32(payload) ++ payload
//! payload       = JSON of { lsn, record: WalRecord }
//! ```
//!
//! Records carry monotonically increasing LSNs; the snapshot stores the
//! LSN up to which it is current, so a crash *between* writing a new
//! snapshot and resetting the WAL is harmless — recovery skips records
//! the snapshot already covers. The snapshot folds in only committed
//! state: a transaction open across a checkpoint is re-journaled past
//! the boundary (its begin marker, then its intents), so the new log
//! alone commits or rolls it back. Snapshot-triggered log compaction is
//! keyed off [`Theory::store_nodes`] growth (the §3.6 store-size
//! measure): when the live store has grown past a configurable factor of
//! its size at the last snapshot, a checkpoint folds the log into a new
//! snapshot.

use crate::db::{DbOptions, LogicalDatabase};
use crate::error::DbError;
use crate::op::{apply_op, Op, Resolved};
use crate::persist::{self, TheoryDump};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use winslett_gua::{SimplifyLevel, SimplifyReport, UpdateReport};
use winslett_ldml::Update;
use winslett_logic::{AtomId, PredId};
use winslett_theory::{Theory, TheoryError};

/// WAL file name within a [`Storage`].
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name within a [`Storage`].
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"WWAL";
/// The newest WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;
/// The newest snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Upper bound on a single record's payload, enforced when the record is
/// minted (a typed [`DbError::RecordTooLarge`] refusal, before anything is
/// journaled) and used by `parse_wal` as the corruption bound (a larger
/// length prefix is treated as tail corruption, not an allocation
/// request). Deliberately held 1 KiB under the server's 4 MiB wire-frame
/// cap so any single record — JSON-wrapped into a replication batch —
/// always fits in one frame; without the headroom a near-cap record would
/// kill the subscription stream with a frame error instead of being
/// refused up front at write time.
pub const MAX_RECORD_LEN: u32 = (1 << 22) - 1024;

// ----- CRC32 (IEEE, table-driven; no external dependency) -------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----- storage abstraction --------------------------------------------------

/// A tiny named-file layer under the WAL: enough surface for an
/// append-only log plus an atomically replaced snapshot, and small enough
/// to shim with a deterministic fault injector ([`FailpointStorage`]).
pub trait Storage {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError>;
    /// Appends `data` to `name`, creating it if missing.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError>;
    /// Durably flushes `name` (fsync; no-op if it does not exist).
    fn sync(&mut self, name: &str) -> Result<(), DbError>;
    /// Atomically replaces the contents of `name` with `data`: after a
    /// crash either the old or the new contents are visible, never a mix.
    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError>;
}

/// In-memory storage (tests, and the substrate of [`FailpointStorage`]).
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    files: HashMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to a file's bytes (test corruption helpers).
    pub fn get(&self, name: &str) -> Option<&Vec<u8>> {
        self.files.get(name)
    }

    /// Overwrites a file's bytes wholesale (test corruption helpers).
    pub fn put(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(name.to_string(), data);
    }

    /// Deletes a file (test helpers).
    pub fn remove(&mut self, name: &str) {
        self.files.remove(name);
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        Ok(self.files.get(name).cloned())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> Result<(), DbError> {
        Ok(())
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        self.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }
}

/// Directory-backed storage: each name is a file under `dir`. Appends go
/// through `O_APPEND`; [`Storage::sync`] is a real fsync;
/// [`Storage::replace`] writes a temp file, fsyncs it, renames it into
/// place, and fsyncs the directory.
#[derive(Clone, Debug)]
pub struct DirStorage {
    dir: std::path::PathBuf,
}

impl DirStorage {
    /// Opens (creating if needed) the directory.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Result<Self, DbError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStorage { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

impl Storage for DirStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), DbError> {
        match std::fs::File::open(self.path(name)) {
            Ok(f) => Ok(f.sync_all()?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, data)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, self.path(name))?;
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Deterministic fault injection: behaves like [`MemStorage`] until a
/// byte budget is exhausted, then tears the in-flight write at exactly
/// that byte and fails every subsequent operation — a crash at a chosen
/// kill point.
///
/// State is shared across clones (`Arc<Mutex<…>>`), so a test can keep a
/// sibling handle, hand the storage to a [`DurableDatabase`] — or to a
/// server's writer thread — and, even if the crash fires inside `open`
/// itself, read the surviving on-disk image back out with
/// [`FailpointStorage::survivor`].
///
/// `replace` is modeled as atomic (temp-file-plus-rename semantics): its
/// bytes are charged against the budget, but if the budget runs out the
/// old contents survive untouched rather than being half-overwritten.
#[derive(Clone, Debug)]
pub struct FailpointStorage {
    state: Arc<Mutex<FailState>>,
}

#[derive(Debug)]
struct FailState {
    inner: MemStorage,
    /// The durable image: what the platters hold. Appends land only in
    /// `inner` (the OS page cache); `sync` copies the named file down,
    /// and `replace` is durable by construction (temp file + fsync +
    /// rename + directory fsync).
    durable: MemStorage,
    budget: u64,
    bytes_written: u64,
    dead: bool,
}

impl FailState {
    fn injected(&self) -> DbError {
        DbError::Storage {
            message: format!("injected crash after {} bytes", self.bytes_written),
        }
    }
}

impl FailpointStorage {
    /// Storage that crashes once `kill_after_bytes` bytes have been
    /// written (appends tear mid-record; replaces fail atomically).
    pub fn new(kill_after_bytes: u64) -> Self {
        FailpointStorage {
            state: Arc::new(Mutex::new(FailState {
                inner: MemStorage::new(),
                durable: MemStorage::new(),
                budget: kill_after_bytes,
                bytes_written: 0,
                dead: false,
            })),
        }
    }

    /// Storage that never crashes (the probe run that measures how many
    /// bytes a script writes in total).
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// The shared state (a panic while holding it cannot leave it
    /// half-updated, so a poisoned lock still holds a consistent value).
    fn state(&self) -> MutexGuard<'_, FailState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total bytes accepted so far (torn prefixes included).
    pub fn bytes_written(&self) -> u64 {
        self.state().bytes_written
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state().dead
    }

    /// A copy of the surviving on-disk state, as recovery would see it
    /// after a **process** crash (the OS lived on, so buffered appends
    /// reached the files even if never fsynced).
    pub fn survivor(&self) -> MemStorage {
        self.state().inner.clone()
    }

    /// A copy of the surviving on-disk state after a **power loss**: only
    /// what a [`Storage::sync`] or an atomic [`Storage::replace`] made
    /// durable. Appends that were never synced are gone.
    pub fn power_loss_survivor(&self) -> MemStorage {
        self.state().durable.clone()
    }
}

impl Storage for FailpointStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        let st = self.state();
        if st.dead {
            return Err(st.injected());
        }
        st.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let mut st = self.state();
        if st.dead {
            return Err(st.injected());
        }
        if (data.len() as u64) <= st.budget {
            st.budget -= data.len() as u64;
            st.bytes_written += data.len() as u64;
            st.inner.append(name, data)
        } else {
            let keep = st.budget as usize;
            st.inner.append(name, &data[..keep])?;
            st.bytes_written += keep as u64;
            st.budget = 0;
            st.dead = true;
            Err(st.injected())
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), DbError> {
        let mut st = self.state();
        if st.dead {
            return Err(st.injected());
        }
        // fsync: the cached file becomes the durable file.
        match st.inner.get(name).cloned() {
            Some(bytes) => st.durable.put(name, bytes),
            None => st.durable.remove(name),
        }
        Ok(())
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let mut st = self.state();
        if st.dead {
            return Err(st.injected());
        }
        if (data.len() as u64) <= st.budget {
            st.budget -= data.len() as u64;
            st.bytes_written += data.len() as u64;
            st.inner.replace(name, data)?;
            // temp file + fsync + rename + dir fsync: durable on return.
            st.durable.replace(name, data)
        } else {
            // The rename never happens: old contents survive.
            st.bytes_written += st.budget;
            st.budget = 0;
            st.dead = true;
            Err(st.injected())
        }
    }
}

// ----- record format --------------------------------------------------------

/// One WAL record: an [`Op`] or a marker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// Annuls the record at the given LSN: the live database journaled
    /// the intent but GUA refused the operation, so recovery must skip
    /// it instead of replaying a state the live system never reached.
    Abort(u64),
    /// Opens a transaction. The id is the LSN of the transaction's first
    /// begin record, so ids are unique across the log's lifetime without
    /// extra bookkeeping. A checkpoint re-appends this record, id
    /// unchanged, for every transaction open across it.
    TxnBegin(u64),
    /// Commits a transaction: every intact [`WalRecord::TxnOp`] carrying
    /// this id becomes effective. The commit marker's durability *is* the
    /// transaction's durability — a WAL whose tail lacks it rolls the
    /// transaction back on recovery.
    TxnCommit(u64),
    /// Aborts a transaction: every [`WalRecord::TxnOp`] carrying this id
    /// is annulled. Written by explicit rollback, by a failed commit
    /// re-application, and by recovery itself as the compensation record
    /// for a transaction left unfinished by a crash.
    TxnAbort(u64),
    /// One op journaled inside an open transaction, as `(owning txn id,
    /// op)` — an intent that replay holds until the transaction's commit
    /// marker and then applies, in journal order, at the commit point
    /// ([`TxnSettle`]). That is where the live database installs the
    /// transaction; the lock table makes everything journaled between an
    /// intent and its commit footprint-disjoint from it, hence
    /// commutative with it (Theorems 3/4).
    TxnOp(u64, Op),
    /// One op outside any transaction, journaled as the op alone (an
    /// `Execute` as its effective `Apply`).
    #[serde(untagged)]
    Op(Op),
}

/// A WAL entry: an operation stamped with its log sequence number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Position in the logical log (monotonic across compactions).
    pub lsn: u64,
    /// The journaled operation.
    pub record: WalRecord,
}

/// The snapshot file: a theory dump plus the LSN it is current through.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Records with `lsn < self.lsn` are already folded into the dump.
    pub lsn: u64,
    /// The folded theory.
    pub theory: TheoryDump,
}

/// What a replication follower needs to catch up from a given LSN cursor
/// ([`DurableDatabase::catchup_from`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Catchup {
    /// The cursor is at or past the checkpoint: replaying the effective
    /// log suffix (aborted pairs already removed) is enough.
    Suffix(Vec<WalEntry>),
    /// The cursor predates the checkpoint, so the intervening records are
    /// gone from the log: bootstrap from the snapshot, then replay the
    /// effective suffix from the snapshot's LSN onward.
    Snapshot(Box<WalSnapshot>, Vec<WalEntry>),
}

/// Drops abort records and the records they annul: what remains is the
/// *effective* log — exactly the records recovery would replay. Shipping
/// only effective records means a follower never applies a state the
/// primary refused; the resulting LSN holes are harmless because they
/// correspond to operations with no effect.
fn effective_entries(entries: Vec<WalEntry>) -> Vec<WalEntry> {
    let aborted: HashSet<u64> = entries
        .iter()
        .filter_map(|e| match e.record {
            WalRecord::Abort(lsn) => Some(lsn),
            _ => None,
        })
        .collect();
    entries
        .into_iter()
        .filter(|e| !aborted.contains(&e.lsn) && !matches!(e.record, WalRecord::Abort(_)))
        .collect()
}

/// The one rule for which records of an effective log take effect, and
/// in what order — shared by recovery, the compaction swap, replicas and
/// catch-up followers. Fed the entries of an effective log
/// (`effective_entries`: no `Abort` records, nothing they annul) in
/// log order, it releases a plain op at once and holds a transaction's
/// [`WalRecord::TxnOp`] intents until its [`WalRecord::TxnCommit`],
/// where it releases them in journal order under their own LSNs — the
/// point where the live database installs the transaction. A
/// [`WalRecord::TxnAbort`] drops them, and so does a
/// commit whose begin was never fed. A begin for a transaction already
/// held starts its intents over: a checkpoint re-journals each open
/// transaction as its begin followed by every intent it holds. A
/// streaming consumer keeps one instance across batches.
#[derive(Debug, Default)]
pub struct TxnSettle {
    /// Unsettled transactions by id, with their held intents.
    open: BTreeMap<u64, Vec<(u64, Op)>>,
}

/// What feeding one entry to a [`TxnSettle`] settled.
#[derive(Debug, PartialEq)]
pub enum Settled {
    /// Ops that take effect now, in replay order, each with its own LSN:
    /// a plain op alone, or a committed transaction's intents.
    Release(Vec<(u64, Op)>),
    /// Nothing takes effect: a begin marker, a held intent, an abort, or
    /// a commit whose begin was never fed.
    Hold,
}

impl TxnSettle {
    /// Settles one entry.
    pub fn feed(&mut self, entry: WalEntry) -> Settled {
        match entry.record {
            WalRecord::Op(op) => Settled::Release(vec![(entry.lsn, op)]),
            WalRecord::TxnBegin(t) => {
                self.open.insert(t, Vec::new());
                Settled::Hold
            }
            WalRecord::TxnOp(t, op) => {
                if let Some(intents) = self.open.get_mut(&t) {
                    intents.push((entry.lsn, op));
                }
                Settled::Hold
            }
            WalRecord::TxnCommit(t) => self.open.remove(&t).map_or(Settled::Hold, Settled::Release),
            WalRecord::TxnAbort(t) => {
                self.open.remove(&t);
                Settled::Hold
            }
            WalRecord::Abort(_) => Settled::Hold,
        }
    }

    /// Transactions begun but not yet settled, in id order.
    pub fn open(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.keys().copied()
    }
}

/// Reads and validates the snapshot file, without restoring the theory.
fn read_snapshot<S: Storage>(storage: &S) -> Result<Option<WalSnapshot>, DbError> {
    let Some(bytes) = storage.read(SNAPSHOT_FILE)? else {
        return Ok(None);
    };
    let text = String::from_utf8(bytes).map_err(|e| DbError::Corrupt {
        message: format!("snapshot is not UTF-8: {e}"),
    })?;
    let snap: WalSnapshot = serde_json::from_str(&text).map_err(|e| DbError::Corrupt {
        message: format!("snapshot does not parse: {e}"),
    })?;
    if snap.version == 0 || snap.version > SNAPSHOT_VERSION {
        return Err(DbError::UnsupportedVersion {
            what: "wal snapshot",
            found: snap.version,
            supported: SNAPSHOT_VERSION,
        });
    }
    Ok(Some(snap))
}

fn wal_header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

fn encode_entry(entry: &WalEntry) -> Result<Vec<u8>, DbError> {
    let payload = serde_json::to_string(entry)
        .map_err(|e| DbError::Query {
            message: format!("wal record serialization failed: {e}"),
        })?
        .into_bytes();
    if payload.len() > MAX_RECORD_LEN as usize {
        return Err(DbError::RecordTooLarge {
            len: payload.len(),
            max: MAX_RECORD_LEN as usize,
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

struct ParsedWal {
    entries: Vec<WalEntry>,
    /// `Some(reason)` if the tail was torn or corrupt and records were
    /// dropped there.
    truncated: Option<String>,
}

/// Decodes a WAL image, truncating at the first torn or corrupt record.
/// Structural damage *before* any record can be read (bad magic, future
/// version) is an error, not a truncation.
fn parse_wal(bytes: &[u8]) -> Result<ParsedWal, DbError> {
    let header = wal_header();
    if bytes.len() < 8 {
        return if header.starts_with(bytes) {
            Ok(ParsedWal {
                entries: Vec::new(),
                truncated: Some(format!("wal header torn at byte {}", bytes.len())),
            })
        } else {
            Err(DbError::Corrupt {
                message: "wal header does not carry the WWAL magic".into(),
            })
        };
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(DbError::Corrupt {
            message: "wal header does not carry the WWAL magic".into(),
        });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version == 0 || version > WAL_VERSION {
        return Err(DbError::UnsupportedVersion {
            what: "wal",
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut entries = Vec::new();
    let mut truncated = None;
    let mut offset = 8usize;
    let mut prev_lsn: Option<u64> = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            truncated = Some(format!("record header torn at offset {offset}"));
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN {
            truncated = Some(format!(
                "implausible record length {len} at offset {offset}"
            ));
            break;
        }
        let len = len as usize;
        if rest.len() - 8 < len {
            truncated = Some(format!("record payload torn at offset {offset}"));
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            truncated = Some(format!("checksum mismatch at offset {offset}"));
            break;
        }
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                truncated = Some(format!("non-UTF-8 payload at offset {offset}"));
                break;
            }
        };
        let entry: WalEntry = match serde_json::from_str(text) {
            Ok(e) => e,
            Err(e) => {
                truncated = Some(format!("undecodable payload at offset {offset}: {e}"));
                break;
            }
        };
        if let Some(p) = prev_lsn {
            if entry.lsn != p + 1 {
                truncated = Some(format!(
                    "lsn discontinuity at offset {offset}: {} after {p}",
                    entry.lsn
                ));
                break;
            }
        }
        prev_lsn = Some(entry.lsn);
        entries.push(entry);
        offset += 8 + len;
    }
    Ok(ParsedWal { entries, truncated })
}

/// Reads and decodes the WAL file (an absent file is an empty log), and
/// enforces the boundary contract: the log must *meet* the checkpoint
/// current through `snapshot_lsn`. `parse_wal` enforces LSN contiguity
/// only within the file, so a log whose first surviving record skips past
/// the checkpoint (a spliced or mis-rotated log) would otherwise replay a
/// wrong-state suffix silently; it is a typed [`DbError::LsnGap`]. A
/// first LSN at or below the checkpoint's is fine — that is the normal
/// old-WAL-beside-new-snapshot window, whose covered records replay
/// skips.
fn read_log<S: Storage>(storage: &S, snapshot_lsn: u64) -> Result<ParsedWal, DbError> {
    let parsed = match storage.read(WAL_FILE)? {
        Some(bytes) => parse_wal(&bytes)?,
        None => ParsedWal {
            entries: Vec::new(),
            truncated: None,
        },
    };
    if let Some(first) = parsed.entries.first() {
        if first.lsn > snapshot_lsn {
            return Err(DbError::LsnGap {
                expected: snapshot_lsn,
                found: first.lsn,
            });
        }
    }
    Ok(parsed)
}

// ----- options, stats, reports ----------------------------------------------

/// When WAL appends are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync every record an acknowledgment can promise is durable: each
    /// plain op, commit, rollback and abort marker as it is appended. A
    /// transaction's begin marker and intents are not synced on their
    /// own — they are durable only through the transaction's commit,
    /// whose fsync covers them — so a transaction of k statements costs
    /// one fsync, and a plain op one.
    EveryRecord,
    /// fsync only on explicit [`DurableDatabase::sync`] and checkpoints:
    /// the owner syncs before it acknowledges anything, commits included
    /// (the server syncs once per writer pass).
    Manual,
}

/// WAL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Commit durability policy.
    pub policy: SyncPolicy,
    /// Auto-checkpoint when the live store's node count exceeds this
    /// factor of its count at the last snapshot; `None` disables
    /// compaction.
    pub compact_growth_factor: Option<f64>,
    /// Node floor below which auto-compaction never triggers.
    pub compact_min_nodes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            policy: SyncPolicy::EveryRecord,
            compact_growth_factor: Some(4.0),
            compact_min_nodes: 256,
        }
    }
}

/// Counters kept by a [`DurableDatabase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (aborts included).
    pub records: u64,
    /// fsync calls issued.
    pub syncs: u64,
    /// Checkpoints taken (explicit and auto-compaction).
    pub checkpoints: u64,
    /// Bytes appended to the log.
    pub bytes_appended: u64,
    /// Background-compaction swaps installed.
    pub compactions: u64,
}

/// What [`DurableDatabase::open`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN the snapshot was current through (0 if no snapshot).
    pub snapshot_lsn: u64,
    /// Intact records decoded from the WAL.
    pub records_seen: usize,
    /// Records replayed into the recovered state.
    pub replayed: usize,
    /// Records seen but not replayed (`records_seen - replayed`): already
    /// covered by the snapshot, annulled by an abort record, the abort
    /// records themselves, transaction markers, intents of transactions
    /// that did not commit, and — after a replay error — every record the
    /// replay did not reach.
    pub skipped: usize,
    /// `Some(reason)` if a torn/corrupt tail was dropped.
    pub truncated: Option<String>,
    /// `Some(error)` if replay stopped early at a failing record; the
    /// recovered state is the longest replayable prefix.
    pub replay_error: Option<String>,
    /// Whether `open` took a repair checkpoint (truncation or replay
    /// error observed) to make the on-storage files consistent again.
    pub repaired: bool,
    /// Transactions found unfinished at the end of the log (begun, never
    /// committed or aborted) and rolled back by `open`, which appends a
    /// compensating [`WalRecord::TxnAbort`] for each.
    pub rolled_back: usize,
    /// What the post-replay simplification pass accomplished. Replay runs
    /// unsimplified (the §4 configuration), so recovery folds the store
    /// back down afterwards; this is that pass's report — all zeros when
    /// `open` initialized fresh storage and never replayed.
    pub simplify: SimplifyReport,
}

impl RecoveryReport {
    /// Store nodes reclaimed by the post-replay simplification pass.
    pub fn nodes_reclaimed(&self) -> usize {
        self.simplify
            .nodes_before
            .saturating_sub(self.simplify.nodes_after)
    }
}

/// What one background-compaction swap accomplished
/// ([`DurableDatabase::install_compacted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// First LSN that was *not* reflected in the captured theory; the
    /// swap replayed every retained record at or past it.
    pub from_lsn: u64,
    /// Records replayed onto the compacted copy during the swap.
    pub replayed: usize,
    /// Live store nodes at swap time (§3.6 measure).
    pub nodes_before: usize,
    /// Store nodes after the swap.
    pub nodes_after: usize,
    /// Live theory generation the swap retired.
    pub generation_before: u64,
    /// Generation of the installed theory — strictly greater than
    /// `generation_before`, always.
    pub generation_after: u64,
}

impl CompactionOutcome {
    /// Net store nodes reclaimed by the swap (zero if the suffix replay
    /// out-grew the simplification savings).
    pub fn nodes_reclaimed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

// ----- the durable database -------------------------------------------------

/// A [`LogicalDatabase`] whose every state transition is journaled to a
/// [`Storage`] before GUA applies it, with snapshot-based log compaction
/// and crash recovery.
#[derive(Clone, Debug)]
pub struct DurableDatabase<S: Storage> {
    db: LogicalDatabase,
    storage: S,
    wal_options: WalOptions,
    next_lsn: u64,
    snapshot_lsn: u64,
    /// The synced-LSN watermark: every record below it is durable (an
    /// fsync or a checkpoint's atomic replace covered it). Shipping and
    /// catch-up release nothing at or above it, so no follower holds a
    /// record a power loss can take back — recovery would reuse its LSN.
    /// After [`DurableDatabase::open`] the recovered log tail counts as
    /// unsynced: a process crash leaves unsynced appends in the page
    /// cache, and recovery replays them.
    synced_lsn: u64,
    nodes_at_snapshot: usize,
    /// `Some` while a background-compaction capture is outstanding: the
    /// capture's LSN, and the records
    /// [`DurableDatabase::install_compacted`] replays at swap time
    /// without re-reading (and re-parsing) the whole on-storage log under
    /// the writer lock — the open transactions as of the capture, then
    /// every record appended since. Bounded by the capture→install window.
    compaction_tail: Option<(u64, Vec<WalEntry>)>,
    /// `Some` once [`DurableDatabase::enable_shipping`] armed WAL
    /// shipping: every appended record is also retained here until the
    /// next [`DurableDatabase::drain_shipping`], which hands the batch to
    /// the replication fan-out. Bounded by the append→drain window (one
    /// write batch on the server).
    shipping_tail: Option<Vec<WalEntry>>,
    /// Open transactions, keyed by id (= their first begin record's
    /// LSN). Each holds a read-your-writes workspace and the redo list
    /// its commit re-applies to the live database.
    txns: HashMap<u64, OpenTxn>,
    /// Bumped whenever the *live* database mutates (plain journaled
    /// writes, transaction commits, compaction swaps) — the staleness
    /// stamp transaction workspaces are rebuilt against.
    applied_version: u64,
    /// The records behind the most recent `applied_version` bumps,
    /// tagged with the version each one produced — the delta a stale
    /// transaction workspace catches up on without cloning the live
    /// database (everything here is footprint-disjoint from any open
    /// transaction's held atoms, hence commutative with its ops —
    /// Theorems 3/4). Bounded by [`RECENT_CAP`]; compaction swaps clear
    /// it (the delta cannot express a re-encoding).
    recent: VecDeque<(u64, Op)>,
    /// Highest version evicted from (or never covered by) `recent`: the
    /// deque covers exactly `(recent_floor, applied_version]`. A
    /// workspace whose basis fell below the floor takes the full
    /// clone-and-redo rebuild instead.
    recent_floor: u64,
    /// `Some(cause)` once a sync has failed. The OS may have dropped the
    /// unsynced pages, and a retried fsync can report success without
    /// writing them, so the database stops there (fail-stop): every
    /// later append, sync, checkpoint and compaction install is refused,
    /// and only a reopen, which recovers from what storage holds, writes
    /// again.
    failed: Option<String>,
    stats: WalStats,
}

/// How many live-mutation records [`DurableDatabase::recent`] retains
/// for delta workspace refreshes before falling back to full rebuilds.
const RECENT_CAP: usize = 256;

/// One open transaction's private state.
#[derive(Clone, Debug)]
struct OpenTxn {
    /// The live database as of `basis_version`, plus this transaction's
    /// own ops — what its statements parse and apply against, giving
    /// read-your-writes without touching the shared state.
    workspace: LogicalDatabase,
    /// [`DurableDatabase::applied_version`] the workspace was built at;
    /// when the live database has advanced past it, the workspace is
    /// rebuilt (fresh clone + redo replay) before the next statement.
    basis_version: u64,
    /// Journaled intents in order — the redo list commit re-applies to
    /// the live database.
    ops: Vec<Op>,
}

impl<S: Storage> DurableDatabase<S> {
    /// Opens a durable database on `storage`: recovers if a snapshot or
    /// WAL is present, otherwise initializes a fresh one. When recovery
    /// observes a torn tail or a replay error, `open` takes a repair
    /// checkpoint so the storage is consistent with the recovered state.
    pub fn open(
        mut storage: S,
        db_options: DbOptions,
        wal_options: WalOptions,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let have_snapshot = storage.read(SNAPSHOT_FILE)?.is_some();
        let wal_missing = storage.read(WAL_FILE)?.is_none();
        if !have_snapshot && wal_missing {
            storage.append(WAL_FILE, &wal_header())?;
            let db = LogicalDatabase::with_options(db_options);
            let nodes = db.theory().store_nodes();
            let me = DurableDatabase {
                db,
                storage,
                wal_options,
                next_lsn: 0,
                snapshot_lsn: 0,
                synced_lsn: 0,
                nodes_at_snapshot: nodes,
                compaction_tail: None,
                shipping_tail: None,
                txns: HashMap::new(),
                applied_version: 0,
                recent: VecDeque::new(),
                recent_floor: 0,
                failed: None,
                stats: WalStats::default(),
            };
            return Ok((me, RecoveryReport::default()));
        }
        let (db, next_lsn, snapshot_lsn, mut report, unfinished) =
            Self::recover(&storage, db_options)?;
        if wal_missing {
            // Snapshot-only storage (e.g. the WAL was lost with the
            // snapshot intact): start a fresh log.
            storage.append(WAL_FILE, &wal_header())?;
        }
        let mut me = DurableDatabase {
            db,
            storage,
            wal_options,
            next_lsn,
            snapshot_lsn,
            synced_lsn: snapshot_lsn,
            nodes_at_snapshot: 0,
            compaction_tail: None,
            shipping_tail: None,
            txns: HashMap::new(),
            applied_version: 0,
            recent: VecDeque::new(),
            recent_floor: 0,
            failed: None,
            stats: WalStats::default(),
        };
        me.nodes_at_snapshot = me.db.theory().store_nodes();
        // Roll back transactions the crash left in flight: append the
        // compensating abort marker so the *next* recovery skips their
        // intents without rescanning for an unfinished tail.
        for txn in &unfinished {
            me.append_entry(WalRecord::TxnAbort(*txn))?;
        }
        if !unfinished.is_empty() {
            me.sync()?;
            report.rolled_back = unfinished.len();
        }
        if report.truncated.is_some() || report.replay_error.is_some() {
            me.checkpoint()?;
            report.repaired = true;
        }
        Ok((me, report))
    }

    /// Loads the snapshot (if any) and replays the settled WAL suffix,
    /// stopping at the first failing record.
    #[allow(clippy::type_complexity)]
    fn recover(
        storage: &S,
        db_options: DbOptions,
    ) -> Result<(LogicalDatabase, u64, u64, RecoveryReport, Vec<u64>), DbError> {
        // Replay runs unsimplified (the §4 configuration) and folds once
        // at the end.
        let replay_options = DbOptions {
            simplify: SimplifyLevel::None,
            ..db_options
        };
        let (mut db, snapshot_lsn) = match read_snapshot(storage)? {
            Some(snap) => {
                let theory = persist::restore_theory(&snap.theory)?;
                (
                    LogicalDatabase::from_theory(theory, replay_options),
                    snap.lsn,
                )
            }
            None => (LogicalDatabase::with_options(replay_options), 0),
        };
        let parsed = read_log(storage, snapshot_lsn)?;
        let mut report = RecoveryReport {
            snapshot_lsn,
            records_seen: parsed.entries.len(),
            truncated: parsed.truncated,
            ..RecoveryReport::default()
        };
        let next_lsn = parsed
            .entries
            .last()
            .map(|e| e.lsn + 1)
            .unwrap_or(0)
            .max(snapshot_lsn);
        let mut settle = TxnSettle::default();
        for entry in effective_entries(parsed.entries) {
            if entry.lsn < snapshot_lsn {
                continue; // already folded into the snapshot
            }
            let Settled::Release(records) = settle.feed(entry) else {
                continue;
            };
            // After a replay error the rest of the log is still settled,
            // so every unfinished transaction is found.
            if report.replay_error.is_some() {
                continue;
            }
            for (_, op) in records {
                if let Err(err) = apply_op(&mut db, &op) {
                    report.replay_error = Some(err.to_string());
                    break;
                }
                report.replayed += 1;
            }
        }
        report.skipped = report.records_seen - report.replayed;
        // Anything begun but neither committed nor aborted is an
        // in-flight transaction the crash interrupted — its intents were
        // never released, and `open` appends the compensating abort.
        let unfinished = settle.open().collect();
        // Fold the store back down to what the live database would carry
        // and surface that pass's report, then serve at the live level.
        // The theory is the database's whole state, so rebuilding around
        // it loses nothing.
        report.simplify = db.simplify(db_options.simplify);
        let db = LogicalDatabase::from_theory(db.engine.theory, db_options);
        Ok((db, next_lsn, snapshot_lsn, report, unfinished))
    }
}

impl<S: Storage> DurableDatabase<S> {
    // ----- journaling core --------------------------------------------------

    /// The fail-stop gate: after a failed sync, a typed
    /// [`DbError::Storage`] naming that first failure.
    fn writable(&self) -> Result<(), DbError> {
        match &self.failed {
            Some(cause) => Err(DbError::Storage {
                message: format!(
                    "writes refused after a failed wal sync ({cause}); reopen to recover"
                ),
            }),
            None => Ok(()),
        }
    }

    fn append_entry(&mut self, record: WalRecord) -> Result<u64, DbError> {
        self.writable()?;
        // An intent promises nothing until its transaction commits.
        let intent = matches!(record, WalRecord::TxnBegin(_) | WalRecord::TxnOp(..));
        let entry = WalEntry {
            lsn: self.next_lsn,
            record,
        };
        let bytes = encode_entry(&entry)?;
        self.storage.append(WAL_FILE, &bytes)?;
        self.stats.bytes_appended += bytes.len() as u64;
        let lsn = self.logged(entry);
        if self.wal_options.policy == SyncPolicy::EveryRecord && !intent {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// The sync an acknowledgment needs — after a commit, a rollback, or
    /// the abort marker that compensates a refused op — unless the owner
    /// syncs ([`SyncPolicy::Manual`]). Syncing right after a compensation
    /// keeps an intent and its abort marker on the same side of the
    /// synced watermark, so a drain never ships one without the other.
    fn ack_point(&mut self) -> Result<(), DbError> {
        match self.wal_options.policy {
            SyncPolicy::Manual => Ok(()),
            SyncPolicy::EveryRecord => self.sync(),
        }
    }

    /// Books an entry that reached the log: retained for an outstanding
    /// compaction capture and for shipping, and counted.
    fn logged(&mut self, entry: WalEntry) -> u64 {
        let lsn = entry.lsn;
        if let Some((_, tail)) = self.compaction_tail.as_mut() {
            tail.push(entry.clone());
        }
        if let Some(tail) = self.shipping_tail.as_mut() {
            tail.push(entry);
        }
        self.next_lsn = lsn + 1;
        self.stats.records += 1;
        lsn
    }

    /// Journals the resolved op, then applies it to the inner database.
    /// A refused op changed nothing ([`apply_op`]'s rule), so only the log
    /// needs undoing: [`DurableDatabase::annul`] appends its abort.
    fn journaled(&mut self, resolved: Resolved) -> Result<UpdateReport, DbError> {
        let lsn = self.append_entry(WalRecord::Op(resolved.journal.clone()))?;
        match resolved.apply(&mut self.db) {
            Ok(report) => {
                self.applied_version += 1;
                self.push_recent(self.applied_version, resolved.journal);
                self.maybe_compact()?;
                Ok(report)
            }
            Err(e) => {
                self.annul(lsn);
                Err(e)
            }
        }
    }

    /// Appends the [`WalRecord::Abort`] that annuls the refused intent at
    /// `lsn` (best-effort), so recovery will not replay a state the live
    /// database never reached. If that append is lost in a crash, the
    /// refused record is the WAL tail, and recovery's replay stops at the
    /// same error when the refusal is deterministic.
    fn annul(&mut self, lsn: u64) {
        if self.append_entry(WalRecord::Abort(lsn)).is_ok() {
            let _ = self.ack_point();
        }
    }

    fn maybe_compact(&mut self) -> Result<(), DbError> {
        let Some(factor) = self.wal_options.compact_growth_factor else {
            return Ok(());
        };
        let nodes = self.db.theory().store_nodes();
        if nodes >= self.wal_options.compact_min_nodes
            && nodes as f64 >= factor * self.nodes_at_snapshot.max(1) as f64
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ----- public API -------------------------------------------------------

    /// Journals `op` before it takes effect — an `Execute` as its
    /// effective (§3.5-widened) `Apply`, parsed against the live
    /// database — then applies it.
    pub fn apply(&mut self, op: Op) -> Result<UpdateReport, DbError> {
        let resolved = Resolved::new(op, &mut self.db)?;
        self.journaled(resolved)
    }

    /// Executes an update AST, journaling its effective (widened) form
    /// before GUA applies it.
    pub fn update(&mut self, update: &Update) -> Result<UpdateReport, DbError> {
        let resolved = Resolved::update(update, &mut self.db)?;
        self.journaled(resolved)
    }

    /// Parses and executes one LDML statement ([`Op::Execute`]).
    pub fn execute(&mut self, src: &str) -> Result<UpdateReport, DbError> {
        self.apply(Op::Execute(src.to_owned()))
    }

    /// Declares an untyped relation ([`Op::DeclareRelation`]).
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<PredId, DbError> {
        self.apply(Op::DeclareRelation(name.to_owned(), arity))?;
        let found = self.db.theory().vocab.find_predicate(name);
        Ok(found.ok_or_else(|| TheoryError::UnknownPredicate { name: name.into() })?)
    }

    /// Loads a ground fact as certainly true ([`Op::LoadFact`]).
    pub fn load_fact(&mut self, pred: &str, args: &[&str]) -> Result<AtomId, DbError> {
        let owned = args.iter().map(|a| a.to_string()).collect();
        self.apply(Op::LoadFact(pred.to_owned(), owned))?;
        Ok(self.db.theory_mut().atom_by_name(pred, args)?)
    }

    // ----- multi-statement transactions -------------------------------------
    //
    // A transaction is a private workspace (clone of the live database)
    // plus a redo list of journaled `TxnOp` intents. Statements parse and
    // apply against the workspace — read-your-writes, with no effect on
    // the live state — and commit re-applies the redo list to the live
    // database under the caller's writer lock, then appends the commit
    // marker whose durability *is* the transaction's durability.
    //
    // Correctness of deferred re-application rests on the server's lock
    // discipline: every statement's footprint atoms are locked (strict
    // 2PL) before its intent is journaled, and every non-transactional
    // write checks the lock table under the same writer lock before it
    // applies. Everything that commits between a statement's workspace
    // application and its transaction's commit is therefore
    // footprint-disjoint from it, hence commutative with it (Theorems
    // 3/4) — so replaying the redo list at commit lands the same state
    // the workspace computed.

    /// Opens a transaction, returning its id (its begin record's LSN).
    pub fn txn_begin(&mut self) -> Result<u64, DbError> {
        let id = self.next_lsn;
        self.append_entry(WalRecord::TxnBegin(id))?;
        self.txns.insert(
            id,
            OpenTxn {
                workspace: self.db.clone(),
                basis_version: self.applied_version,
                ops: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Number of open transactions.
    pub fn txn_active(&self) -> usize {
        self.txns.len()
    }

    /// Whether `txn` is open.
    pub fn txn_open(&self, txn: u64) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Ids of every open transaction (the drain path aborts them all).
    pub fn txn_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.txns.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The transaction's read-your-writes view, if it is open. The
    /// workspace may lag the live database by concurrently committed
    /// footprint-disjoint writes until the next statement rebuilds it.
    pub fn txn_view(&self, txn: u64) -> Option<&LogicalDatabase> {
        self.txns.get(&txn).map(|s| &s.workspace)
    }

    /// Retains one live-mutation record for delta refreshes, evicting
    /// whole version groups (a transaction commit lands several records
    /// under one version; covering a version partially is useless) and
    /// advancing the floor past what was evicted.
    fn push_recent(&mut self, version: u64, op: Op) {
        self.recent.push_back((version, op));
        while self.recent.len() > RECENT_CAP {
            let Some(&(v, _)) = self.recent.front() else {
                break;
            };
            while self.recent.front().is_some_and(|(f, _)| *f == v) {
                self.recent.pop_front();
            }
            self.recent_floor = v;
        }
    }

    /// Brings the workspace current when the live database has advanced
    /// under it. Fast path: replay just the foreign delta from
    /// [`DurableDatabase::recent`] onto the workspace in place — sound
    /// because everything committed while this transaction is open is
    /// footprint-disjoint from every atom it holds (the server's lock
    /// discipline), hence commutative with its ops (Theorems 3/4).
    /// Fallback when the delta was evicted (or a delta op refuses):
    /// fresh clone plus redo replay. Either way the refreshed view
    /// agrees with the old one on every atom the transaction touches.
    fn refresh_workspace(&mut self, state: &mut OpenTxn) -> Result<(), DbError> {
        if state.basis_version == self.applied_version {
            return Ok(());
        }
        let delta_len = if state.basis_version >= self.recent_floor {
            self.recent
                .iter()
                .filter(|(v, _)| *v > state.basis_version)
                .count()
        } else {
            usize::MAX
        };
        // Both paths cost one replayed op per record; take the shorter
        // list (the rebuild's clone is worth about one op).
        if delta_len <= state.ops.len() + 1 {
            let mut ok = true;
            for (v, r) in &self.recent {
                if *v <= state.basis_version {
                    continue;
                }
                if apply_op(&mut state.workspace, r).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                state.basis_version = self.applied_version;
                return Ok(());
            }
            // A refused delta op leaves the workspace partially caught
            // up; the full rebuild replaces it wholesale.
        }
        self.rebuild_workspace(state)
    }

    /// Replaces the workspace with a clone of the live database plus the
    /// transaction's redo list.
    fn rebuild_workspace(&self, state: &mut OpenTxn) -> Result<(), DbError> {
        let mut ws = self.db.clone();
        for op in &state.ops {
            apply_op(&mut ws, op)?;
        }
        state.workspace = ws;
        state.basis_version = self.applied_version;
        Ok(())
    }

    /// Journals `op` as an intent of `txn` — an `Execute` as its
    /// effective `Apply`, parsed against the transaction's workspace —
    /// and applies it to the workspace only. The workspace is first
    /// brought current unless `covered`: the statement's entire lock
    /// footprint was already held by `txn` (see
    /// [`crate::txn::LockTable::holds_all`]). Held atoms cannot have been
    /// changed by another writer since they were first locked — and the
    /// statement that first locked each atom ran through the refreshing
    /// path — so the workspace is current on every atom the op reads or
    /// writes and the clone-and-redo rebuild can be skipped even when
    /// other transactions committed in between. A refused op leaves the
    /// workspace as it was ([`apply_op`]'s rule) and the transaction
    /// open; as on the plain path, an op refused after journaling is
    /// annulled by a [`WalRecord::Abort`] for its own LSN, so recovery
    /// and followers drop it even when the transaction later commits.
    pub fn txn_apply(&mut self, txn: u64, op: Op, covered: bool) -> Result<UpdateReport, DbError> {
        let mut state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        let result = self.txn_statement(&mut state, txn, op, covered);
        self.txns.insert(txn, state);
        result
    }

    /// The body of [`DurableDatabase::txn_apply`], with the transaction's
    /// state taken out of the table.
    fn txn_statement(
        &mut self,
        state: &mut OpenTxn,
        txn: u64,
        op: Op,
        covered: bool,
    ) -> Result<UpdateReport, DbError> {
        if !covered {
            self.refresh_workspace(state)?;
        }
        let resolved = Resolved::new(op, &mut state.workspace)?;
        let lsn = self.append_entry(WalRecord::TxnOp(txn, resolved.journal.clone()))?;
        match resolved.apply(&mut state.workspace) {
            Ok(report) => {
                state.ops.push(resolved.journal);
                Ok(report)
            }
            Err(e) => {
                self.annul(lsn);
                Err(e)
            }
        }
    }

    /// Executes one LDML statement inside `txn` ([`Op::Execute`]).
    pub fn txn_execute(&mut self, txn: u64, src: &str) -> Result<UpdateReport, DbError> {
        self.txn_apply(txn, Op::Execute(src.to_owned()), false)
    }

    /// Commits `txn`: brings the workspace current (a no-op unless a
    /// foreign commit landed since its last rebuild — then it is one
    /// clone-and-redo refresh), installs it as the live database, appends
    /// the commit marker, and makes it durable (the transaction's single
    /// fsync point, which covers its begin and intents; under
    /// [`SyncPolicy::Manual`] the owner takes it). The install is sound
    /// because every live mutation bumps `applied_version`, so a current-basis workspace *is* the
    /// live database plus this transaction's redo list — the same state
    /// the old re-apply-at-commit loop computed, without cloning the
    /// live theory on the happy path. Returns the commit LSN and the
    /// number of ops made effective. A redo re-application failure
    /// during the refresh (possible only if the lock discipline was
    /// bypassed, or at the store's capacity ceiling) leaves the live
    /// state untouched and aborts the transaction instead.
    pub fn txn_commit(&mut self, txn: u64) -> Result<(u64, usize), DbError> {
        let mut state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        if let Err(e) = self.refresh_workspace(&mut state) {
            if self.append_entry(WalRecord::TxnAbort(txn)).is_ok() {
                let _ = self.ack_point();
            }
            return Err(e);
        }
        let ops = state.ops.len();
        // A workspace cloned this version shares the retired theory's
        // generation counters; force the installed generation strictly
        // past it so snapshot readers keyed on the old generation can
        // never mistake one encoding for the other (same discipline as
        // the compaction swap).
        let generation_before = self.db.theory().generation();
        state
            .workspace
            .theory_mut()
            .advance_generation_past(generation_before);
        let before = std::mem::replace(&mut self.db, state.workspace);
        let lsn = match self.append_entry(WalRecord::TxnCommit(txn)) {
            Ok(lsn) => lsn,
            Err(e) => {
                // Unacknowledged and unmarked: recovery rolls it back, so
                // the live view must match.
                self.db = before;
                return Err(e);
            }
        };
        self.ack_point()?;
        self.applied_version += 1;
        // The redo list is the delta other open workspaces need to catch
        // up on this commit — one version group.
        for op in state.ops {
            self.push_recent(self.applied_version, op);
        }
        self.maybe_compact()?;
        Ok((lsn, ops))
    }

    /// Rolls `txn` back: the workspace is dropped, the abort marker is
    /// journaled, and the live database is untouched (nothing to undo —
    /// intents never applied to it). Under [`SyncPolicy::Manual`] the
    /// marker is left unsynced: recovery rolls back a transaction that
    /// has no commit marker anyway.
    pub fn txn_rollback(&mut self, txn: u64) -> Result<(), DbError> {
        let state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        drop(state);
        self.append_entry(WalRecord::TxnAbort(txn))?;
        self.ack_point()
    }

    /// Durably flushes every record below [`DurableDatabase::next_lsn`]
    /// — those appended since the last sync, and after `open` the
    /// recovered log tail — and advances the synced watermark, releasing
    /// them to shipping and catch-up. A no-op when nothing is unsynced.
    /// A failed sync is final: from then on this and every append,
    /// checkpoint and compaction install fail with [`DbError::Storage`]
    /// until the database is reopened.
    pub fn sync(&mut self) -> Result<(), DbError> {
        self.writable()?;
        if self.synced_lsn < self.next_lsn {
            if let Err(e) = self.storage.sync(WAL_FILE) {
                self.failed = Some(e.to_string());
                return Err(e);
            }
            self.stats.syncs += 1;
            self.synced_lsn = self.next_lsn;
        }
        Ok(())
    }

    /// Each open transaction, in id order, as the entries that reopen it
    /// on replay: its begin marker, then the intents it holds in journal
    /// order — all stamped with its id, the LSN of its first begin record.
    fn open_txn_entries(&self) -> Vec<WalEntry> {
        let mut entries = Vec::new();
        for txn in self.txn_ids() {
            let ops = self.txns[&txn].ops.iter();
            let records = std::iter::once(WalRecord::TxnBegin(txn))
                .chain(ops.map(|op| WalRecord::TxnOp(txn, op.clone())));
            entries.extend(records.map(|record| WalEntry { lsn: txn, record }));
        }
        entries
    }

    /// Takes a snapshot of the live (committed) theory and resets the log
    /// to the open transactions, re-journaled under fresh LSNs: the
    /// compaction step. Crash-safe in every window — both files are
    /// replaced atomically, and the snapshot carries the LSN through
    /// which it is current, so an old WAL alongside a new snapshot merely
    /// replays zero records (the transactions it held open died with the
    /// crash).
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.sync()?;
        let lsn = self.next_lsn;
        let snap = WalSnapshot {
            version: SNAPSHOT_VERSION,
            lsn,
            theory: persist::dump_theory(self.db.theory()),
        };
        let json = serde_json::to_string(&snap).map_err(|e| DbError::Query {
            message: format!("snapshot serialization failed: {e}"),
        })?;
        let mut log = wal_header().to_vec();
        let mut reopened = self.open_txn_entries();
        for (entry, at) in reopened.iter_mut().zip(lsn..) {
            entry.lsn = at;
            log.extend(encode_entry(entry)?);
        }
        self.storage.replace(SNAPSHOT_FILE, json.as_bytes())?;
        if let Err(e) = self.storage.replace(WAL_FILE, &log) {
            // The snapshot now skips the old log, and with it every open
            // transaction's records: none of them can commit durably.
            for txn in self.txn_ids() {
                let _ = self.txn_rollback(txn);
            }
            return Err(e);
        }
        self.stats.bytes_appended += (log.len() - wal_header().len()) as u64;
        for entry in reopened {
            self.logged(entry);
        }
        self.snapshot_lsn = lsn;
        // Both files were replaced atomically: everything is durable.
        self.synced_lsn = self.next_lsn;
        self.nodes_at_snapshot = self.db.theory().store_nodes();
        self.stats.checkpoints += 1;
        Ok(())
    }

    // ----- wal shipping (replication) ---------------------------------------

    /// Arms WAL shipping: from now on every appended record is also
    /// retained in memory until the next
    /// [`DurableDatabase::drain_shipping`]. Idempotent; an already-armed
    /// tail is left in place (retained but undrained records are not
    /// dropped).
    pub fn enable_shipping(&mut self) {
        if self.shipping_tail.is_none() {
            self.shipping_tail = Some(Vec::new());
        }
    }

    /// Takes the retained records below the synced watermark, reduced to
    /// the *effective* log (abort records and the records they annul are
    /// removed — a refused operation completes its journal pair, and
    /// syncs after it unless the owner syncs, before the owning write
    /// returns, so pairs never straddle a drain). Records not yet
    /// synced stay retained for a later drain: a follower must never
    /// hold a record a power loss can take back. The caller fans these
    /// out to subscribed followers. Empty when shipping is not armed or
    /// nothing synced was appended.
    pub fn drain_shipping(&mut self) -> Vec<WalEntry> {
        let synced = self.synced_lsn;
        match self.shipping_tail.as_mut() {
            Some(tail) => {
                let ready = tail.partition_point(|e| e.lsn < synced);
                if ready == 0 {
                    return Vec::new();
                }
                effective_entries(tail.drain(..ready).collect())
            }
            None => Vec::new(),
        }
    }

    /// Computes what a follower whose next-expected LSN is `from_lsn`
    /// needs in order to catch up: the effective log suffix alone if the
    /// cursor is at or past the on-storage checkpoint, or the checkpoint
    /// snapshot plus the suffix when the log no longer reaches back that
    /// far. The suffix stops at the synced watermark, like
    /// [`DurableDatabase::drain_shipping`]. Enforces the same boundary
    /// contract as recovery — a log whose first surviving record skips
    /// past the checkpoint's LSN is a typed [`DbError::LsnGap`], never a
    /// silently wrong suffix — and refuses a cursor from the future (a
    /// follower of some other primary) the same way.
    pub fn catchup_from(&self, from_lsn: u64) -> Result<Catchup, DbError> {
        if from_lsn > self.next_lsn {
            return Err(DbError::LsnGap {
                expected: self.next_lsn,
                found: from_lsn,
            });
        }
        let parsed = read_log(self.storage(), self.snapshot_lsn)?;
        if let Some(reason) = parsed.truncated {
            // A live, recovered primary has no torn tail; finding one
            // mid-flight means the storage under us is damaged.
            return Err(DbError::Corrupt {
                message: format!("wal tail unreadable during catch-up: {reason}"),
            });
        }
        let synced = self.synced_lsn;
        let mut entries = effective_entries(parsed.entries);
        entries.retain(|e| e.lsn < synced);
        if from_lsn >= self.snapshot_lsn {
            Ok(Catchup::Suffix(
                entries.into_iter().filter(|e| e.lsn >= from_lsn).collect(),
            ))
        } else {
            let snap = read_snapshot(self.storage())?.ok_or_else(|| DbError::Corrupt {
                message: format!(
                    "catch-up from lsn {from_lsn} needs the checkpoint snapshot \
                     (current through lsn {}), but no snapshot file exists",
                    self.snapshot_lsn
                ),
            })?;
            let suffix = entries.into_iter().filter(|e| e.lsn >= snap.lsn).collect();
            Ok(Catchup::Snapshot(Box::new(snap), suffix))
        }
    }

    // ----- background compaction --------------------------------------------
    //
    // The LSM-style three-phase protocol. Phase 1 (`begin_compaction`,
    // under the writer lock) captures a deep copy of the live theory and
    // starts retaining every subsequently journaled record in memory.
    // Phase 2 (off-lock, owned by the caller) runs full `gua::simplify`
    // on the copy while the writer keeps committing. Phase 3
    // (`install_compacted`, under the writer lock again) replays the
    // retained LSN delta onto the compacted copy and swaps it in — so the
    // swap pause is proportional to the capture→install write volume,
    // never to the theory or log size.

    /// Phase 1: captures a deep copy of the live theory plus the first
    /// LSN not reflected in it, and starts retaining appended records so
    /// [`DurableDatabase::install_compacted`] can replay the delta. The
    /// retained tail opens with every open transaction's begin and held
    /// intents, stamped with its id (which precedes the capture, so no
    /// abort in the tail can name them): a commit inside the window then
    /// replays the whole transaction. The copy costs the same as one
    /// snapshot publication. A previously outstanding capture is silently
    /// superseded.
    pub fn begin_compaction(&mut self) -> (Theory, u64) {
        self.compaction_tail = Some((self.next_lsn, self.open_txn_entries()));
        (self.db.theory().clone(), self.next_lsn)
    }

    /// Abandons an outstanding capture, releasing the retained tail.
    /// Harmless when none is outstanding.
    pub fn abort_compaction(&mut self) {
        self.compaction_tail = None;
    }

    /// Whether a [`DurableDatabase::begin_compaction`] capture is
    /// outstanding (and records are being retained for it).
    pub fn compaction_pending(&self) -> bool {
        self.compaction_tail.is_some()
    }

    /// Phase 3: atomically swaps `compacted` (the
    /// [`DurableDatabase::begin_compaction`] copy after the caller's
    /// simplification pass) in for the live theory, first replaying the
    /// records journaled since the capture onto it — a transaction open
    /// at the capture replays whole at its commit. On any replay error
    /// the live database is untouched and the round is simply abandoned.
    ///
    /// The installed theory's [`Theory::generation`] is forced strictly
    /// past the retired theory's, so cached entailment sessions and
    /// per-snapshot readers keyed on the old generation can never mistake
    /// the swapped encoding for the one they saw. With `checkpoint` set,
    /// the on-storage snapshot is rewritten from the compacted theory in
    /// the same critical section — checkpoints shrink with the theory.
    pub fn install_compacted(
        &mut self,
        compacted: Theory,
        from_lsn: u64,
        checkpoint: bool,
    ) -> Result<CompactionOutcome, DbError> {
        self.writable()?;
        let (captured, tail) = self
            .compaction_tail
            .take()
            .ok_or_else(|| DbError::Compaction {
                message: "install_compacted without an outstanding begin_compaction capture".into(),
            })?;
        if captured != from_lsn {
            return Err(DbError::Compaction {
                message: format!(
                    "install_compacted for a capture at lsn {from_lsn}, but the outstanding \
                     capture was taken at lsn {captured}"
                ),
            });
        }
        let generation_before = self.db.theory().generation();
        let nodes_before = self.db.theory().store_nodes();
        // Unlike crash recovery, replay at the live level (inline
        // simplify), so the installed theory is never bulkier than the
        // one it replaces.
        let mut scratch = LogicalDatabase::from_theory(compacted, self.db.options());
        let mut settle = TxnSettle::default();
        let mut replayed = 0usize;
        for entry in effective_entries(tail) {
            if let Settled::Release(records) = settle.feed(entry) {
                for (_, op) in records {
                    apply_op(&mut scratch, &op)?;
                    replayed += 1;
                }
            }
        }
        scratch
            .theory_mut()
            .advance_generation_past(generation_before);
        self.db = scratch;
        self.applied_version += 1;
        // A compaction swap re-encodes the whole theory; no record delta
        // can express it, so stale workspaces must take the full rebuild.
        self.recent.clear();
        self.recent_floor = self.applied_version;
        let nodes_after = self.db.theory().store_nodes();
        let generation_after = self.db.theory().generation();
        debug_assert!(generation_after > generation_before);
        if checkpoint {
            self.checkpoint()?;
        }
        self.stats.compactions += 1;
        Ok(CompactionOutcome {
            from_lsn,
            replayed,
            nodes_before,
            nodes_after,
            generation_before,
            generation_after,
        })
    }

    /// The inner database, read-only.
    pub fn db(&self) -> &LogicalDatabase {
        &self.db
    }

    /// The inner database, mutable — **for queries only** (textual query
    /// paths intern atoms and need `&mut`). Mutating state through this
    /// handle bypasses the journal and will not survive recovery.
    pub fn db_mut(&mut self) -> &mut LogicalDatabase {
        &mut self.db
    }

    /// WAL counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The LSN the next record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN the on-storage snapshot is current through.
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// The storage, read-only.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consumes the database, returning the storage (fault-injection
    /// tests recover from the survivor of a crashed instance). Unlike
    /// [`DurableDatabase::close`] this deliberately does **not** flush —
    /// it models pulling the plug on a live instance.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Graceful shutdown: durably flushes any unsynced records, then
    /// returns the storage. Under [`SyncPolicy::Manual`] records appended
    /// since the last sync are only in the OS cache, and dropping the
    /// database does not sync them: call `close` on every orderly
    /// shutdown path. Fails, like every sync, once a sync has failed.
    pub fn close(mut self) -> Result<S, DbError> {
        self.sync()?;
        Ok(self.storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::UpdateDump;
    use crate::persist::DependencyDump;
    use std::collections::BTreeSet;
    use winslett_gua::SimplifyLevel;

    fn opts_nocompact() -> WalOptions {
        WalOptions {
            policy: SyncPolicy::EveryRecord,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        }
    }

    fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
        db.world_names().unwrap().into_iter().collect()
    }

    /// Opens a fresh MemStorage database with the paper's Orders/InStock
    /// schema journaled, plus two facts.
    fn seeded(wal_options: WalOptions) -> DurableDatabase<MemStorage> {
        let (mut ddb, report) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal_options).unwrap();
        assert_eq!(report, RecoveryReport::default());
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.declare_relation("InStock", 2).unwrap();
        ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
        ddb.load_fact("InStock", &["32", "1"]).unwrap();
        ddb
    }

    fn reopen(storage: MemStorage) -> (DurableDatabase<MemStorage>, RecoveryReport) {
        DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn entry_roundtrip_through_wire_format() {
        let entry = WalEntry {
            lsn: 7,
            record: WalRecord::Op(Op::Apply(UpdateDump::Modify(
                "Orders(700,32,9)".into(),
                "Orders(700,32,1)".into(),
                "InStock(32,1)".into(),
            ))),
        };
        let mut bytes = wal_header().to_vec();
        bytes.extend_from_slice(&encode_entry(&entry).unwrap());
        let parsed = parse_wal(&bytes).unwrap();
        assert!(parsed.truncated.is_none());
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].lsn, 7);
        match &parsed.entries[0].record {
            WalRecord::Op(Op::Apply(UpdateDump::Modify(t, o, p))) => {
                assert_eq!(t, "Orders(700,32,9)");
                assert_eq!(o, "Orders(700,32,1)");
                assert_eq!(p, "InStock(32,1)");
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    /// Every record kind's literal JSON, as the log has always stored it:
    /// each decodes and re-encodes byte-identically, so logs written
    /// before `Op` existed replay unchanged.
    #[test]
    fn every_record_kind_keeps_its_json() {
        let pinned = [
            r#"{"lsn":0,"record":{"DeclareAttribute":"Part"}}"#,
            r#"{"lsn":2,"record":{"DeclareTypedRelation":["Price",["Part","Cost"]]}}"#,
            r#"{"lsn":3,"record":{"AddDependency":{"name":"fd","num_vars":3,"body":[["Price",[{"V":0},{"V":1}]],["Price",[{"V":0},{"V":2}]]],"head":{"Eq":[{"V":1},{"V":2}]}}}}"#,
            r#"{"lsn":4,"record":{"DeclareRelation":["R",1]}}"#,
            r#"{"lsn":5,"record":{"LoadFact":["R",["1"]]}}"#,
            r#"{"lsn":6,"record":{"LoadWff":"R(2) | R(3)"}}"#,
            r#"{"lsn":2,"record":{"Apply":{"Insert":["R(2)","T"]}}}"#,
            r#"{"lsn":8,"record":{"Apply":{"Delete":["R(1)","R(2)"]}}}"#,
            r#"{"lsn":9,"record":{"Apply":{"Modify":["R(4)","R(5)","T"]}}}"#,
            r#"{"lsn":10,"record":{"Apply":{"Assert":"R(5)"}}}"#,
            r#"{"lsn":11,"record":{"Apply":{"Insert":["Price(a,10) & Part(a) & Cost(10)","T"]}}}"#,
            r#"{"lsn":6,"record":{"Abort":1}}"#,
            r#"{"lsn":14,"record":{"TxnBegin":14}}"#,
            r#"{"lsn":4,"record":{"TxnOp":[3,{"LoadFact":["R",["1"]]}]}}"#,
            r#"{"lsn":16,"record":{"TxnOp":[14,{"Apply":{"Insert":["R(7)","T"]}}]}}"#,
            r#"{"lsn":17,"record":{"TxnOp":[14,{"DeclareRelation":["S",1]}]}}"#,
            r#"{"lsn":18,"record":{"TxnOp":[14,{"DeclareAttribute":"A"}]}}"#,
            r#"{"lsn":19,"record":{"TxnOp":[14,{"LoadWff":"S(1)"}]}}"#,
            r#"{"lsn":20,"record":{"TxnCommit":14}}"#,
            r#"{"lsn":22,"record":{"TxnAbort":21}}"#,
        ];
        for json in pinned {
            let entry: WalEntry = serde_json::from_str(json).expect(json);
            assert_eq!(serde_json::to_string(&entry).unwrap(), json);
        }
        // A marker nested in a transaction intent no longer type-checks.
        let nested = r#"{"lsn":4,"record":{"TxnOp":[3,{"Abort":1}]}}"#;
        assert!(serde_json::from_str::<WalEntry>(nested).is_err());
    }

    #[test]
    fn reopen_recovers_schema_facts_and_updates() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE InStock(32,1)")
            .unwrap();
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let live = world_set(ddb.db());
        assert!(live.len() > 1); // the disjunctive insert branched
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.replayed, 6); // 2 declares + 2 facts + 2 updates
        assert_eq!(report.truncated, None);
        assert_eq!(report.replay_error, None);
        assert!(!report.repaired);
    }

    #[test]
    fn appends_after_reopen_continue_the_log() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let (mut ddb2, _) = reopen(ddb.into_storage());
        ddb2.execute("INSERT InStock(33,5) WHERE T").unwrap();
        let live = world_set(ddb2.db());
        let (recovered, report) = reopen(ddb2.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 6);
        assert_eq!(report.replayed, 6);
    }

    #[test]
    fn checkpoint_folds_log_into_snapshot() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        ddb.execute("INSERT Orders(800,32,5) WHERE T").unwrap();
        let live = world_set(ddb.db());
        assert_eq!(ddb.stats().checkpoints, 1);
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.snapshot_lsn, 5);
        assert_eq!(report.records_seen, 1); // only the post-checkpoint update
        assert_eq!(report.replayed, 1);
    }

    #[test]
    fn old_wal_alongside_new_snapshot_is_skipped() {
        // Simulates a crash between snapshot replace and WAL reset: the
        // snapshot is current but the log still holds folded records.
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let wal_before = ddb.storage().get(WAL_FILE).unwrap().clone();
        ddb.checkpoint().unwrap();
        let live = world_set(ddb.db());
        let mut storage = ddb.into_storage();
        storage.put(WAL_FILE, wal_before); // undo the WAL reset only
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 5);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.skipped, 5);
    }

    #[test]
    fn empty_wal_recovers_to_empty_database() {
        let (ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.records_seen, 0);
        assert_eq!(report.replayed, 0);
        assert!(!report.repaired);
        assert_eq!(world_set(recovered.db()).len(), 1); // the one empty world
    }

    #[test]
    fn snapshot_only_storage_recovers() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let live = world_set(ddb.db());
        let mut storage = ddb.into_storage();
        storage.remove(WAL_FILE); // the log is lost; the snapshot survives
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 0);
        assert!(!report.repaired);
        // And the reopened database can keep journaling.
        let mut recovered = recovered;
        recovered.execute("INSERT InStock(40,1) WHERE T").unwrap();
        let live2 = world_set(recovered.db());
        let (again, _) = reopen(recovered.into_storage());
        assert_eq!(world_set(again.db()), live2);
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_repaired() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let before = world_set(ddb.db());
        ddb.execute("INSERT Orders(900,40,1) WHERE T").unwrap();
        let mut storage = ddb.into_storage();
        // Tear the final record: drop its last 3 bytes.
        let mut wal = storage.get(WAL_FILE).unwrap().clone();
        let n = wal.len();
        wal.truncate(n - 3);
        storage.put(WAL_FILE, wal);
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), before); // last update dropped
        assert!(report.truncated.is_some(), "{report:?}");
        assert!(report.repaired);
        // The repair checkpoint made storage clean: reopening is quiet.
        let (again, report2) = reopen(recovered.into_storage());
        assert_eq!(report2.truncated, None);
        assert!(!report2.repaired);
        assert_eq!(world_set(again.db()), before);
    }

    #[test]
    fn mid_file_checksum_damage_truncates_the_suffix() {
        let mut ddb = seeded(opts_nocompact());
        let after_schema = world_set(ddb.db());
        let wal_schema_only = ddb.storage().get(WAL_FILE).unwrap().clone();
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let mut storage = ddb.into_storage();
        let mut wal = storage.get(WAL_FILE).unwrap().clone();
        // Flip one payload byte in the first post-schema record.
        wal[wal_schema_only.len() + 10] ^= 0x01;
        storage.put(WAL_FILE, wal);
        let (recovered, report) = reopen(storage);
        assert!(report
            .truncated
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        assert_eq!(world_set(recovered.db()), after_schema);
    }

    #[test]
    fn replay_error_mid_suffix_keeps_the_prefix() {
        // Hand-build a WAL whose third update is refused by GUA (it
        // mentions a predicate constant, which §3.1 excludes from L′):
        // recovery must keep the two-record prefix and report the error.
        let mut storage = MemStorage::new();
        storage.append(WAL_FILE, &wal_header()).unwrap();
        let records = [
            Op::DeclareRelation("R".into(), 1),
            Op::Apply(UpdateDump::Insert("R(a)".into(), "T".into())),
            Op::Apply(UpdateDump::Insert("__pc_bad".into(), "T".into())),
            Op::Apply(UpdateDump::Insert("R(b)".into(), "T".into())),
        ]
        .map(WalRecord::Op);
        for (lsn, record) in records.into_iter().enumerate() {
            let entry = WalEntry {
                lsn: lsn as u64,
                record,
            };
            storage
                .append(WAL_FILE, &encode_entry(&entry).unwrap())
                .unwrap();
        }
        let (recovered, report) = reopen(storage);
        assert!(report.replay_error.is_some(), "{report:?}");
        assert_eq!(report.replayed, 2);
        assert!(report.repaired);
        let mut db = recovered;
        assert!(db.db_mut().is_certain("R(a)").unwrap());
        // The constant `b` never arrived: the suffix was not replayed.
        assert!(db.db_mut().is_possible("R(b)").is_err());
    }

    /// A library-supplied `Apply` that GUA refuses only after its intent
    /// was journaled: an update may not mention a predicate constant, and
    /// the journaled form is not validated before it applies.
    fn refused_apply() -> Op {
        Op::Apply(UpdateDump::Insert("__pc_refused".into(), "T".into()))
    }

    #[test]
    fn refused_update_is_annulled_by_an_abort_record() {
        let mut ddb = seeded(opts_nocompact());
        // GUA fails *after* the intent was journaled — the compensation
        // path.
        let err = ddb.apply(refused_apply());
        assert!(err.is_err());
        let live = world_set(ddb.db());
        // Keep going; the aborted record must not be replayed on
        // recovery.
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let live2 = world_set(ddb.db());
        assert_ne!(live, live2);
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live2);
        assert_eq!(report.replay_error, None);
        assert!(report.skipped >= 2); // the refused record and its abort
    }

    #[test]
    fn auto_compaction_triggers_on_store_growth() {
        let wal_options = WalOptions {
            policy: SyncPolicy::Manual,
            compact_growth_factor: Some(1.1),
            compact_min_nodes: 1,
        };
        let mut ddb = seeded(wal_options);
        // A transaction open throughout does not hold the checkpoints
        // back: each one re-journals it.
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(1,2,3) WHERE T")
            .unwrap();
        for i in 0..6 {
            ddb.execute(&format!("INSERT InStock({}, {}) WHERE T", 50 + i, i))
                .unwrap();
        }
        assert!(ddb.stats().checkpoints >= 1, "{:?}", ddb.stats());
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn bad_magic_is_corrupt_not_truncated() {
        let mut storage = MemStorage::new();
        storage.put(WAL_FILE, b"NOPE0000".to_vec());
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert!(matches!(err, DbError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn future_wal_version_rejected() {
        let mut storage = MemStorage::new();
        let mut header = wal_header().to_vec();
        header[4..].copy_from_slice(&99u32.to_le_bytes());
        storage.put(WAL_FILE, header);
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert_eq!(
            err,
            DbError::UnsupportedVersion {
                what: "wal",
                found: 99,
                supported: WAL_VERSION,
            }
        );
    }

    #[test]
    fn future_snapshot_version_rejected() {
        let mut ddb = seeded(opts_nocompact());
        ddb.checkpoint().unwrap();
        let mut storage = ddb.into_storage();
        let snap = String::from_utf8(storage.get(SNAPSHOT_FILE).unwrap().clone()).unwrap();
        let snap = snap.replacen("\"version\":1", "\"version\":42", 1);
        storage.put(SNAPSHOT_FILE, snap.into_bytes());
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert_eq!(
            err,
            DbError::UnsupportedVersion {
                what: "wal snapshot",
                found: 42,
                supported: SNAPSHOT_VERSION,
            }
        );
    }

    #[test]
    fn widening_is_journaled_not_reapplied() {
        // The journaled form is the §3.5-widened update; recovery must
        // reach the same worlds without widening twice.
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        for op in [
            Op::DeclareAttribute("PartNo".into()),
            Op::DeclareAttribute("Quan".into()),
            Op::DeclareTypedRelation("InStock".into(), vec!["PartNo".into(), "Quan".into()]),
        ] {
            ddb.apply(op).unwrap();
        }
        ddb.execute("INSERT InStock(32,5) WHERE T").unwrap();
        assert!(ddb.db().is_consistent());
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        let mut recovered = recovered;
        assert!(recovered.db_mut().is_certain("PartNo(32)").unwrap());
    }

    #[test]
    fn a_typed_wff_recovers_with_its_type_axiom_instances() {
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        for op in [
            Op::DeclareAttribute("Part".into()),
            Op::DeclareAttribute("Cost".into()),
            Op::DeclareTypedRelation("Price".into(), vec!["Part".into(), "Cost".into()]),
            Op::LoadWff("Price(gear,10) | Price(gear,12)".into()),
        ] {
            ddb.apply(op).unwrap();
        }
        let live = world_set(ddb.db());
        assert!(live.iter().all(|w| w.contains(&"Part(gear)".to_string())));
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        let mut recovered = recovered;
        assert!(recovered.db_mut().is_certain("Part(gear)").unwrap());
        assert!(recovered
            .db_mut()
            .is_certain("Price(gear,10) -> Cost(10)")
            .unwrap());
    }

    #[test]
    fn dependencies_and_wffs_are_journaled() {
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        ddb.declare_relation("Price", 2).unwrap();
        let fd = DependencyDump::functional("price-fd", "Price", 2, &[0]).unwrap();
        ddb.apply(Op::AddDependency(fd)).unwrap();
        ddb.apply(Op::LoadWff("Price(widget,10) | Price(widget,12)".into()))
            .unwrap();
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(recovered.db().theory().deps.len(), 1);
        // The restored FD still bites: a second price for the same part
        // violates it in every world (rule 3 weeds them all out).
        let mut recovered = recovered;
        recovered
            .execute("INSERT Price(widget,11) WHERE T")
            .unwrap();
        assert!(!recovered.db().is_consistent());
    }

    #[test]
    fn a_wff_under_a_dependency_recovers_with_its_instances() {
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        ddb.declare_relation("Price", 2).unwrap();
        let fd = DependencyDump::functional("price-fd", "Price", 2, &[0]).unwrap();
        ddb.apply(Op::AddDependency(fd)).unwrap();
        ddb.apply(Op::LoadWff("Price(gear,11) | Price(gear,12)".into()))
            .unwrap();
        let live = world_set(ddb.db());
        assert_eq!(live.len(), 2, "the FD leaves one price per world");
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn dir_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("winslett-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = DirStorage::new(&dir).unwrap();
        let (mut ddb, _) =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap();
        ddb.declare_relation("R", 1).unwrap();
        ddb.execute("INSERT R(a) | R(b) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        ddb.execute("ASSERT R(a)").unwrap();
        let live = world_set(ddb.db());
        drop(ddb);
        let storage = DirStorage::new(&dir).unwrap();
        let (recovered, report) =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap();
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_simplifies_to_live_size_class() {
        let mut ddb = seeded(WalOptions {
            policy: SyncPolicy::Manual,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        });
        for i in 0..4 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        ddb.sync().unwrap();
        let live_nodes = ddb.db().theory().store_nodes();
        let (recovered, _) = DurableDatabase::open(
            ddb.into_storage(),
            DbOptions {
                simplify: SimplifyLevel::Fast,
                ..DbOptions::default()
            },
            opts_nocompact(),
        )
        .unwrap();
        // Replay runs unsimplified; the post-recovery pass folds the
        // store back to the same order of magnitude as the live run.
        assert!(
            recovered.db().theory().store_nodes() <= live_nodes.max(1) * 4,
            "recovered {} vs live {}",
            recovered.db().theory().store_nodes(),
            live_nodes
        );
    }

    fn manual_opts() -> WalOptions {
        WalOptions {
            policy: SyncPolicy::Manual,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        }
    }

    fn fp_seeded(fp: &FailpointStorage) -> DurableDatabase<FailpointStorage> {
        let (mut ddb, _) =
            DurableDatabase::open(fp.clone(), DbOptions::default(), manual_opts()).unwrap();
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        ddb
    }

    #[test]
    fn manual_tail_lost_to_power_loss_kept_by_close() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());

        // Power loss before any sync point: the whole buffered tail —
        // every record since open — never reached the platters.
        let (cold, _) = reopen(fp.power_loss_survivor());
        assert_ne!(world_set(cold.db()), live);

        // Graceful shutdown flushes the unsynced tail; the same
        // power-loss image now recovers the full state.
        ddb.close().unwrap();
        let (recovered, report) = reopen(fp.power_loss_survivor());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.truncated, None);
    }

    #[test]
    fn dropping_without_close_syncs_nothing() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());
        // No retried fsync on drop: after a failed sync one could report
        // success for pages the OS already dropped.
        drop(ddb);
        let (cold, _) = reopen(fp.power_loss_survivor());
        assert_ne!(world_set(cold.db()), live);
        let (recovered, _) = reopen(fp.survivor());
        assert_eq!(world_set(recovered.db()), live);
    }

    /// [`MemStorage`] whose next sync fails once `fail` is set.
    #[derive(Clone, Debug, Default)]
    struct FailOneSync {
        inner: MemStorage,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Storage for FailOneSync {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
            self.inner.read(name)
        }

        fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
            self.inner.append(name, data)
        }

        fn sync(&mut self, name: &str) -> Result<(), DbError> {
            if self.fail.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(DbError::Storage {
                    message: "injected fsync failure".into(),
                });
            }
            self.inner.sync(name)
        }

        fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
            self.inner.replace(name, data)
        }
    }

    #[test]
    fn a_failed_sync_stops_every_later_write() {
        let storage = FailOneSync::default();
        let fail = Arc::clone(&storage.fail);
        let (mut ddb, _) =
            DurableDatabase::open(storage, DbOptions::default(), manual_opts()).expect("open");
        ddb.enable_shipping();
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.sync().unwrap();
        assert_eq!(ddb.drain_shipping().len(), 1);
        ddb.execute("INSERT Orders(1,1,1) WHERE T").unwrap();
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(ddb.sync(), Err(DbError::Storage { .. })));
        // The storage works again, but the database does not retry: the
        // failed sync may have lost the pages it was to flush.
        let (syncs, log) = (
            ddb.stats().syncs,
            ddb.storage().inner.get(WAL_FILE).cloned(),
        );
        let (copy, from_lsn) = ddb.begin_compaction();
        let refusals = [
            ddb.execute("INSERT Orders(2,2,2) WHERE T").map(drop),
            ddb.txn_begin().map(drop),
            ddb.sync(),
            ddb.checkpoint(),
            ddb.install_compacted(copy, from_lsn, false).map(drop),
        ];
        for refusal in refusals {
            match refusal {
                Err(DbError::Storage { message }) => {
                    assert!(message.contains("injected fsync failure"), "{message}")
                }
                other => panic!("expected the fail-stop refusal, got {other:?}"),
            }
        }
        assert_eq!(ddb.stats().syncs, syncs);
        assert_eq!(ddb.storage().inner.get(WAL_FILE).cloned(), log);
        assert!(ddb.drain_shipping().is_empty(), "nothing unsynced ships");
        // A reopen recovers from what storage holds and writes again.
        let storage = ddb.into_storage();
        let (mut reopened, _) =
            DurableDatabase::open(storage, DbOptions::default(), manual_opts()).expect("reopen");
        reopened.execute("INSERT Orders(2,2,2) WHERE T").unwrap();
        reopened.sync().unwrap();
    }

    /// A database on `fp` under `policy`, holding one relation and one
    /// fact.
    fn fp_open(fp: &FailpointStorage, policy: SyncPolicy) -> DurableDatabase<FailpointStorage> {
        let options = WalOptions {
            policy,
            ..opts_nocompact()
        };
        let (mut ddb, _) =
            DurableDatabase::open(fp.clone(), DbOptions::default(), options).unwrap();
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
        ddb
    }

    #[test]
    fn every_record_syncs_a_transaction_once_at_its_commit() {
        let fp = FailpointStorage::unlimited();
        let mut ddb = fp_open(&fp, SyncPolicy::EveryRecord);
        let syncs = ddb.stats().syncs;
        ddb.execute("INSERT Orders(1,1,1) WHERE T").unwrap();
        assert_eq!(ddb.stats().syncs, syncs + 1, "a plain op costs one sync");
        let base = world_set(ddb.db());

        let txn = ddb.txn_begin().unwrap();
        for i in 2..5 {
            ddb.txn_execute(txn, &format!("INSERT Orders({i},{i},{i}) WHERE T"))
                .unwrap();
        }
        assert_eq!(ddb.stats().syncs, syncs + 1, "intents are not synced");
        // Power loss before the commit: whatever of the transaction
        // survived, recovery rolls it back.
        for image in [fp.power_loss_survivor(), fp.survivor()] {
            let (cold, report) = reopen(image);
            assert_eq!(world_set(cold.db()), base);
            assert!(report.rolled_back <= 1);
        }
        ddb.txn_commit(txn).unwrap();
        assert_eq!(ddb.stats().syncs, syncs + 2, "k statements, one sync");
        // Power loss after the commit: all of it survives.
        let live = world_set(ddb.db());
        let (cold, report) = reopen(fp.power_loss_survivor());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(world_set(cold.db()), live);
    }

    #[test]
    fn shipping_and_catchup_stop_at_the_synced_watermark() {
        let fp = FailpointStorage::unlimited();
        let mut ddb = fp_open(&fp, SyncPolicy::Manual);
        ddb.enable_shipping();
        ddb.sync().unwrap();
        let synced = ddb.next_lsn();
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(1,1,1) WHERE T")
            .unwrap();
        ddb.txn_commit(txn).unwrap();
        ddb.execute("INSERT Orders(2,2,2) WHERE T").unwrap();
        // Nothing appended since the last sync is released.
        assert_eq!(ddb.synced_lsn, synced);
        assert!(ddb.drain_shipping().is_empty());
        let suffix = |ddb: &DurableDatabase<FailpointStorage>| match ddb.catchup_from(0).unwrap() {
            Catchup::Suffix(entries) => entries,
            other => panic!("no checkpoint, expected Suffix: {other:?}"),
        };
        assert!(suffix(&ddb).iter().all(|e| e.lsn < synced));
        assert_eq!(suffix(&ddb).len() as u64, synced);
        // After one sync, all of it.
        ddb.sync().unwrap();
        let shipped = ddb.drain_shipping();
        assert_eq!(
            shipped.iter().map(|e| e.lsn).collect::<Vec<_>>(),
            (synced..ddb.next_lsn()).collect::<Vec<_>>()
        );
        assert_eq!(suffix(&ddb).len() as u64, ddb.next_lsn());

        // A process crash with an unsynced tail: the reopened database
        // withholds the recovered tail until its first sync.
        ddb.execute("INSERT Orders(3,3,3) WHERE T").unwrap();
        let tail = ddb.next_lsn();
        let live = world_set(ddb.db());
        let _ = ddb.into_storage();
        let (mut warm, _) = DurableDatabase::open(
            fp.survivor(),
            DbOptions::default(),
            WalOptions {
                policy: SyncPolicy::Manual,
                ..opts_nocompact()
            },
        )
        .unwrap();
        assert_eq!(world_set(warm.db()), live);
        warm.enable_shipping();
        assert_eq!(warm.synced_lsn, 0);
        assert_eq!(warm.catchup_from(0).unwrap(), Catchup::Suffix(vec![]));
        warm.sync().unwrap();
        match warm.catchup_from(0).unwrap() {
            Catchup::Suffix(entries) => assert_eq!(entries.len() as u64, tail),
            other => panic!("expected Suffix: {other:?}"),
        }
        // The recovered tail was never retained for shipping: catch-up
        // serves it, and the shipping tail starts after it.
        assert!(warm.drain_shipping().is_empty());
    }

    #[test]
    fn into_storage_still_models_pulling_the_plug() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());
        let _ = ddb.into_storage(); // crash simulation: must NOT flush
        let (cold, _) = reopen(fp.power_loss_survivor());
        assert_ne!(world_set(cold.db()), live);
        // ...but the process-crash survivor (OS cache intact) has it all.
        let (warm, _) = reopen(fp.survivor());
        assert_eq!(world_set(warm.db()), live);
    }

    // ----- background compaction -------------------------------------------

    #[test]
    fn recovery_report_surfaces_simplification() {
        let mut ddb = seeded(opts_nocompact());
        for i in 0..4 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        let (_, report) = reopen(ddb.into_storage());
        // The replay produced an unsimplified store; the post-replay pass
        // must have seen it and its report must be visible, not discarded.
        assert!(report.simplify.nodes_before > 0, "{report:?}");
        assert!(report.simplify.nodes_after <= report.simplify.nodes_before);
        assert_eq!(
            report.nodes_reclaimed(),
            report.simplify.nodes_before - report.simplify.nodes_after
        );
    }

    #[test]
    fn compaction_swap_preserves_worlds_and_replays_racing_writes() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let (mut copy, from_lsn) = ddb.begin_compaction();
        assert!(ddb.compaction_pending());
        // Writes racing the off-lock simplification...
        ddb.execute("INSERT InStock(40,2) WHERE T").unwrap();
        ddb.execute("DELETE Orders(100,32,7) WHERE InStock(40,2)")
            .unwrap();
        let live = world_set(ddb.db());
        let nodes_live = ddb.db().theory().store_nodes();
        // ...while the copy gets the full pass.
        winslett_gua::simplify(&mut copy, SimplifyLevel::Full);
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert!(!ddb.compaction_pending());
        assert_eq!(outcome.replayed, 2);
        assert_eq!(outcome.nodes_before, nodes_live);
        assert!(outcome.nodes_after <= outcome.nodes_before);
        assert_eq!(world_set(ddb.db()), live);
        assert_eq!(ddb.stats().compactions, 1);
        // The swapped theory must still recover identically.
        ddb.sync().unwrap();
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn compaction_generation_strictly_advances_across_swap() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        // No racing writes at all: the compacted clone's component
        // counters tie the live theory's, the worst case for stale-session
        // detection — only the epoch can break the tie.
        let (copy, from_lsn) = ddb.begin_compaction();
        let before = ddb.db().theory().generation();
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert_eq!(outcome.generation_before, before);
        assert!(outcome.generation_after > outcome.generation_before);
        assert_eq!(ddb.db().theory().generation(), outcome.generation_after);
    }

    #[test]
    fn compaction_checkpoint_shrinks_snapshot() {
        let mut ddb = seeded(opts_nocompact());
        for i in 0..6 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        ddb.checkpoint().unwrap();
        let fat = ddb.storage().get(SNAPSHOT_FILE).unwrap().len();
        let (mut copy, from_lsn) = ddb.begin_compaction();
        winslett_gua::simplify(&mut copy, SimplifyLevel::Full);
        let live = world_set(ddb.db());
        ddb.install_compacted(copy, from_lsn, true).unwrap();
        assert_eq!(ddb.stats().checkpoints, 2, "the swap checkpointed");
        let slim = ddb.storage().get(SNAPSHOT_FILE).unwrap().len();
        assert!(
            slim <= fat,
            "checkpoint grew across compaction: {fat} -> {slim}"
        );
        // The compacted snapshot alone (log was just reset) recovers the
        // same worlds.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replayed, 0);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn compaction_swap_skips_aborted_suffix_records() {
        let mut ddb = seeded(opts_nocompact());
        let (copy, from_lsn) = ddb.begin_compaction();
        // A refused update journals an intent then a compensating abort;
        // neither may replay onto the compacted copy.
        assert!(ddb.apply(refused_apply()).is_err());
        ddb.execute("INSERT InStock(50,5) WHERE T").unwrap();
        let live = world_set(ddb.db());
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert_eq!(outcome.replayed, 1); // only the surviving insert
        assert_eq!(world_set(ddb.db()), live);
    }

    #[test]
    fn compaction_replays_a_transaction_straddling_the_capture() {
        let mut ddb = seeded(opts_nocompact());
        for name in ["R", "S", "U"] {
            ddb.declare_relation(name, 1).unwrap();
        }
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT R(a) WHERE T").unwrap();
        // A second transaction is still open when the swap checkpoints.
        let late = ddb.txn_begin().unwrap();
        ddb.txn_execute(late, "INSERT U(a) WHERE T").unwrap();
        let (copy, from_lsn) = ddb.begin_compaction();
        ddb.txn_execute(txn, "INSERT S(b) WHERE T").unwrap();
        ddb.txn_commit(txn).unwrap();
        // The tail opens with each transaction's begin and pre-capture
        // intents, so the commit replays `INSERT R(a)` too.
        let outcome = ddb.install_compacted(copy, from_lsn, true).unwrap();
        assert_eq!(outcome.replayed, 2);
        assert_eq!(ddb.stats().compactions, 1);
        assert_eq!(ddb.stats().checkpoints, 1, "the swap checkpointed");
        for wff in ["R(a)", "S(b)"] {
            assert!(ddb.db_mut().is_certain(wff).unwrap(), "{wff} live");
        }
        assert!(!ddb.db_mut().is_certain("U(a)").unwrap());
        ddb.txn_commit(late).unwrap();
        let live = world_set(ddb.db());
        let (mut recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(world_set(recovered.db()), live);
        for wff in ["R(a)", "S(b)", "U(a)"] {
            assert!(
                recovered.db_mut().is_certain(wff).unwrap(),
                "{wff} recovered"
            );
        }
    }

    #[test]
    fn install_for_a_superseded_capture_is_a_typed_error() {
        let mut ddb = seeded(opts_nocompact());
        let (copy, stale) = ddb.begin_compaction();
        ddb.execute("INSERT InStock(60,6) WHERE T").unwrap();
        let (_, current) = ddb.begin_compaction();
        assert!(current > stale);
        let err = ddb.install_compacted(copy, stale, false).unwrap_err();
        assert!(matches!(err, DbError::Compaction { .. }), "{err:?}");
        assert!(ddb.db_mut().is_certain("InStock(60,6)").unwrap());
    }

    #[test]
    fn install_without_capture_is_a_typed_error() {
        let mut ddb = seeded(opts_nocompact());
        let copy = ddb.db().theory().clone();
        let err = ddb.install_compacted(copy, 0, false).unwrap_err();
        assert!(matches!(err, DbError::Compaction { .. }), "{err:?}");
        // abort_compaction on an idle database is harmless.
        ddb.abort_compaction();
        assert!(!ddb.compaction_pending());
    }

    // ----- recovery-boundary and replication tests --------------------------

    /// Splits a WAL image into (header, record byte ranges).
    fn record_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut off = 8usize;
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            spans.push(off..off + 8 + len);
            off += 8 + len;
        }
        spans
    }

    #[test]
    fn spliced_suffix_past_the_checkpoint_is_a_typed_lsn_gap() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(33,1) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let boundary = ddb.snapshot_lsn();
        ddb.execute("INSERT InStock(34,1) WHERE T").unwrap();
        ddb.execute("INSERT InStock(35,1) WHERE T").unwrap();
        let mut storage = ddb.close().unwrap();
        // Splice out the first post-checkpoint record: the survivor now
        // starts one LSN past what the snapshot is current through —
        // within-file contiguity holds, so only the boundary check can
        // catch it.
        let bytes = storage.get(WAL_FILE).unwrap().clone();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        let mut spliced = bytes[..8].to_vec();
        spliced.extend_from_slice(&bytes[spans[1].clone()]);
        storage.put(WAL_FILE, spliced);
        let err = match DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()) {
            Err(e) => e,
            Ok(_) => panic!("gap must be rejected"),
        };
        assert_eq!(
            err,
            DbError::LsnGap {
                expected: boundary,
                found: boundary + 1,
            }
        );
    }

    #[test]
    fn spliced_log_without_a_snapshot_is_also_rejected() {
        let ddb = seeded(opts_nocompact());
        let mut storage = ddb.close().unwrap();
        let bytes = storage.get(WAL_FILE).unwrap().clone();
        let spans = record_spans(&bytes);
        // Drop the first record (lsn 0): the survivor starts at lsn 1 but
        // no snapshot covers lsn 0.
        let mut spliced = bytes[..8].to_vec();
        for span in &spans[1..] {
            spliced.extend_from_slice(&bytes[span.clone()]);
        }
        storage.put(WAL_FILE, spliced);
        let err = match DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()) {
            Err(e) => e,
            Ok(_) => panic!("gap must be rejected"),
        };
        assert_eq!(
            err,
            DbError::LsnGap {
                expected: 0,
                found: 1
            }
        );
    }

    #[test]
    fn old_wal_with_kill_byte_tails_still_recovers_after_checkpoint() {
        // A torn tail (kill-byte damage) is *truncation*, not a gap: the
        // surviving prefix still meets the checkpoint, so recovery must
        // keep accepting it.
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(33,1) WHERE T").unwrap();
        let mut storage = ddb.close().unwrap();
        let mut bytes = storage.get(WAL_FILE).unwrap().clone();
        bytes.truncate(bytes.len() - 3); // tear the last record
        storage.put(WAL_FILE, bytes);
        let (recovered, report) = reopen(storage);
        assert!(report.truncated.is_some());
        assert!(report.repaired);
        drop(recovered);
    }

    #[test]
    fn record_cap_is_exact_at_the_mint_boundary() {
        let overhead = {
            let probe = WalEntry {
                lsn: 0,
                record: WalRecord::Op(Op::LoadWff(String::new())),
            };
            serde_json::to_string(&probe).unwrap().len()
        };
        let entry = |n: usize| WalEntry {
            lsn: 0,
            record: WalRecord::Op(Op::LoadWff("x".repeat(n))),
        };
        let fits = MAX_RECORD_LEN as usize - overhead;
        assert!(encode_entry(&entry(fits)).is_ok());
        match encode_entry(&entry(fits + 1)) {
            Err(DbError::RecordTooLarge { len, max }) => {
                assert_eq!(len, MAX_RECORD_LEN as usize + 1);
                assert_eq!(max, MAX_RECORD_LEN as usize);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_record_is_refused_before_anything_is_journaled() {
        let mut ddb = seeded(opts_nocompact());
        let before = ddb.next_lsn();
        let wal_len = ddb.storage().get(WAL_FILE).unwrap().len();
        let huge = format!("InStock({},1)", "9".repeat(MAX_RECORD_LEN as usize));
        let err = ddb.apply(Op::LoadWff(huge)).unwrap_err();
        assert!(matches!(err, DbError::RecordTooLarge { .. }), "{err:?}");
        // Nothing was appended, no LSN burned, and the database stays
        // fully usable.
        assert_eq!(ddb.next_lsn(), before);
        assert_eq!(ddb.storage().get(WAL_FILE).unwrap().len(), wal_len);
        ddb.execute("INSERT InStock(36,1) WHERE T").unwrap();
    }

    #[test]
    fn drain_shipping_carries_only_effective_records() {
        let mut ddb = seeded(opts_nocompact());
        ddb.enable_shipping();
        // Records journaled before arming were not retained; the first
        // drain starts empty.
        assert!(ddb.drain_shipping().is_empty());
        ddb.execute("INSERT InStock(40,1) WHERE T").unwrap();
        // GUA refuses after journaling the intent: the Apply/Abort pair
        // must be filtered out of the shipped batch.
        assert!(ddb.apply(refused_apply()).is_err());
        ddb.execute("INSERT InStock(41,1) WHERE T").unwrap();
        let batch = ddb.drain_shipping();
        assert_eq!(batch.len(), 2, "{batch:?}");
        assert!(batch
            .iter()
            .all(|e| matches!(e.record, WalRecord::Op(Op::Apply(_)))));
        // Drained means gone.
        assert!(ddb.drain_shipping().is_empty());
        // A follower replaying the batch (plus the pre-arm prefix via
        // catch-up) reaches the primary's exact world set.
        let mut follower = LogicalDatabase::with_options(DbOptions::default());
        match ddb.catchup_from(0).unwrap() {
            Catchup::Suffix(entries) => {
                for e in entries {
                    let WalRecord::Op(op) = e.record else {
                        panic!("a plain log holds only ops: {e:?}");
                    };
                    apply_op(&mut follower, &op).unwrap();
                }
            }
            other => panic!("no checkpoint yet, expected Suffix: {other:?}"),
        }
        follower.simplify(DbOptions::default().simplify);
        assert_eq!(world_set(&follower), world_set(ddb.db()));
    }

    #[test]
    fn catchup_serves_suffix_or_snapshot_depending_on_cursor() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(42,1) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let boundary = ddb.snapshot_lsn();
        ddb.execute("INSERT InStock(43,1) WHERE T").unwrap();
        let live = world_set(ddb.db());

        // A cursor at/past the checkpoint gets the bare suffix.
        match ddb.catchup_from(boundary).unwrap() {
            Catchup::Suffix(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].lsn, boundary);
            }
            other => panic!("expected Suffix: {other:?}"),
        }
        // A cursor from before the checkpoint needs the snapshot, and the
        // rebuilt follower matches the live world set exactly.
        match ddb.catchup_from(0).unwrap() {
            Catchup::Snapshot(snap, entries) => {
                assert_eq!(snap.lsn, boundary);
                let theory = persist::restore_theory(&snap.theory).unwrap();
                let mut follower = LogicalDatabase::from_theory(theory, DbOptions::default());
                for e in entries {
                    assert!(e.lsn >= boundary);
                    let WalRecord::Op(op) = e.record else {
                        panic!("a plain log holds only ops: {e:?}");
                    };
                    apply_op(&mut follower, &op).unwrap();
                }
                follower.simplify(DbOptions::default().simplify);
                assert_eq!(world_set(&follower), live);
            }
            other => panic!("expected Snapshot: {other:?}"),
        }
        // A cursor from the future is a typed gap (wrong primary).
        let next = ddb.next_lsn();
        assert_eq!(
            ddb.catchup_from(next + 5).unwrap_err(),
            DbError::LsnGap {
                expected: next,
                found: next + 5,
            }
        );
        // Catch-up at exactly next_lsn is an empty suffix, not an error.
        assert_eq!(ddb.catchup_from(next).unwrap(), Catchup::Suffix(vec![]));
    }

    // ----- transactions -----------------------------------------------------

    #[test]
    fn txn_commit_applies_and_rollback_discards() {
        let mut ddb = seeded(opts_nocompact());
        let before = world_set(ddb.db());

        // A rolled-back transaction leaves no trace on the live state.
        let t1 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t1, "INSERT Orders(1,1,1) WHERE T").unwrap();
        assert_eq!(world_set(ddb.db()), before, "intents stay in the workspace");
        ddb.txn_rollback(t1).unwrap();
        assert_eq!(world_set(ddb.db()), before);
        assert_eq!(ddb.txn_active(), 0);

        // A committed transaction lands atomically, and its workspace gave
        // read-your-writes along the way.
        let t2 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t2, "INSERT Orders(2,2,2) WHERE T").unwrap();
        ddb.txn_execute(t2, "DELETE Orders(2,2,2) WHERE T").unwrap();
        ddb.txn_execute(t2, "INSERT Orders(3,3,3) WHERE T").unwrap();
        let view = ddb.txn_view(t2).unwrap();
        assert_ne!(world_set(view), before, "workspace sees own writes");
        let (lsn, ops) = ddb.txn_commit(t2).unwrap();
        assert_eq!(ops, 3);
        assert!(lsn > t2);
        let committed = world_set(ddb.db());
        assert_ne!(committed, before);

        // Recovery reconstructs exactly the committed state.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), committed);
        assert_eq!(report.rolled_back, 0);
    }

    #[test]
    fn txn_interleaves_with_plain_writes_on_disjoint_atoms() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(5,5,5) WHERE T")
            .unwrap();
        // A disjoint plain write commits mid-transaction; the next
        // statement rebuilds the workspace over it.
        ddb.execute("INSERT InStock(9,9) WHERE T").unwrap();
        ddb.txn_execute(txn, "INSERT Orders(6,6,6) WHERE InStock(9,9)")
            .unwrap();
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        let mut probe = recovered;
        for wff in ["Orders(5,5,5)", "Orders(6,6,6)", "InStock(9,9)"] {
            assert!(
                probe.db_mut().is_certain(wff).unwrap(),
                "{wff} must be certain after commit"
            );
        }
    }

    #[test]
    fn recovery_rolls_back_unfinished_transaction() {
        let mut ddb = seeded(opts_nocompact());
        let base = world_set(ddb.db());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(7,7,7) WHERE T")
            .unwrap();
        ddb.txn_execute(txn, "DELETE Orders(700,32,9) WHERE T")
            .unwrap();
        // Crash before commit: the storage holds begin + two intents and
        // no marker.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 1, "one in-flight txn rolled back");
        assert_eq!(world_set(recovered.db()), base);
        // The compensation marker is durable: a second recovery sees a
        // finished (aborted) transaction, not another rollback.
        let (again, report2) = reopen(recovered.into_storage());
        assert_eq!(report2.rolled_back, 0);
        assert_eq!(world_set(again.db()), base);
    }

    #[test]
    fn txn_statement_refusal_journals_compensation_inside_txn() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(8,8,8) WHERE T")
            .unwrap();
        // An unparseable statement refuses without killing the txn.
        assert!(ddb.txn_execute(txn, "INSERT nonsense((").is_err());
        assert!(ddb.txn_open(txn));
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn a_ceiling_refusal_journals_nothing() {
        let mut ddb = seeded(opts_nocompact());
        // The workspace inherits the live store's ceiling at begin.
        let len = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
        let txn = ddb.txn_begin().unwrap();
        let update = Op::Apply(UpdateDump::Insert("Orders(9,9,9)".into(), "T".into()));
        for op in [Op::Execute("INSERT Orders(9,9,9) WHERE T".into()), update] {
            let next_lsn = ddb.next_lsn();
            let bytes = ddb.storage().read(WAL_FILE).unwrap();
            let plain = ddb.apply(op.clone());
            assert!(
                matches!(
                    plain,
                    Err(DbError::Theory(TheoryError::StoreCapacity { .. }))
                ),
                "{op:?}: {plain:?}"
            );
            let in_txn = ddb.txn_apply(txn, op.clone(), false);
            assert!(
                matches!(
                    in_txn,
                    Err(DbError::Theory(TheoryError::StoreCapacity { .. }))
                ),
                "{op:?}: {in_txn:?}"
            );
            assert_eq!(ddb.next_lsn(), next_lsn, "{op:?} was journaled");
            assert_eq!(ddb.storage().read(WAL_FILE).unwrap(), bytes, "{op:?}");
            assert!(ddb.txn_open(txn));
        }
        // A crash now recovers the state before the refusals: the open
        // transaction rolls back and nothing refused replays.
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.storage().clone());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn every_refused_kind_leaves_the_txn_view_and_the_txn_committable() {
        let mut ddb = seeded(opts_nocompact());
        // The workspace inherits the live store's ceiling at begin.
        let len = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
        let txn = ddb.txn_begin().unwrap();
        ddb.db_mut()
            .theory_mut()
            .store
            .set_capacity(u32::MAX, u32::MAX);
        let load = Op::LoadFact("Orders".into(), vec!["8".into(), "8".into(), "8".into()]);
        ddb.txn_apply(txn, load, false).unwrap();
        let view = |ddb: &DurableDatabase<MemStorage>| {
            let ws = ddb.txn_view(txn).expect("open");
            (persist::dump_theory(ws.theory()), world_set(ws))
        };
        // Each refused op and the records it journals: a ceiling refusal
        // none, any other refusal its intent and the abort.
        let refused = [
            (Op::Execute("INSERT Orders(9,9,9) WHERE T".into()), 0),
            (
                Op::Apply(UpdateDump::Insert("Orders(9,9,9)".into(), "T".into())),
                0,
            ),
            (Op::LoadFact("Ghost".into(), vec!["1".into()]), 2),
            (
                Op::DeclareTypedRelation("Ledger".into(), vec!["Orders".into()]),
                2,
            ),
            (Op::DeclareRelation("Orders".into(), 2), 2),
        ];
        for (op, records) in refused {
            let (before, next_lsn) = (view(&ddb), ddb.next_lsn());
            assert!(ddb.txn_apply(txn, op.clone(), false).is_err(), "{op:?}");
            assert_eq!(view(&ddb), before, "{op:?}");
            assert_eq!(ddb.next_lsn(), next_lsn + records, "{op:?}");
            assert!(ddb.txn_open(txn));
        }
        ddb.txn_commit(txn).unwrap();
        ddb.db_mut()
            .theory_mut()
            .store
            .set_capacity(u32::MAX, u32::MAX);
        assert!(ddb.db_mut().is_certain("Orders(8,8,8)").unwrap());
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn txn_open_across_a_checkpoint_commits_durably() {
        let mut ddb = seeded(opts_nocompact());
        let base = world_set(ddb.db());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(9,9,9) WHERE T")
            .unwrap();
        ddb.checkpoint().unwrap();
        // The snapshot holds only committed state.
        let (at_checkpoint, _) = reopen(ddb.storage().clone());
        assert_eq!(world_set(at_checkpoint.db()), base);
        ddb.txn_execute(txn, "INSERT Orders(9,9,8) WHERE T")
            .unwrap();
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (mut recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(report.replayed, 2, "both intents replay at the commit");
        assert_eq!(world_set(recovered.db()), live);
        for wff in ["Orders(9,9,9)", "Orders(9,9,8)"] {
            assert!(recovered.db_mut().is_certain(wff).unwrap(), "{wff}");
        }
    }

    #[test]
    fn txn_open_across_a_checkpoint_rolls_back_on_crash() {
        let mut ddb = seeded(opts_nocompact());
        let base = world_set(ddb.db());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(9,9,9) WHERE T")
            .unwrap();
        ddb.checkpoint().unwrap();
        ddb.txn_execute(txn, "DELETE Orders(700,32,9) WHERE T")
            .unwrap();
        // Crash before commit.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 1);
        assert_eq!(world_set(recovered.db()), base);
    }

    #[test]
    fn txn_unknown_ids_are_typed_errors() {
        let mut ddb = seeded(opts_nocompact());
        assert!(matches!(
            ddb.txn_commit(999),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        assert!(matches!(
            ddb.txn_rollback(999),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        assert!(matches!(
            ddb.txn_execute(999, "INSERT Orders(1,1,1) WHERE T"),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        // Double-commit: the first consumes the txn.
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_commit(txn).unwrap();
        assert!(matches!(
            ddb.txn_commit(txn),
            Err(DbError::TxnUnknown { .. })
        ));
    }

    #[test]
    fn concurrent_txns_with_disjoint_footprints_both_commit() {
        let mut ddb = seeded(opts_nocompact());
        let t1 = ddb.txn_begin().unwrap();
        let t2 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t1, "INSERT Orders(10,1,1) WHERE T")
            .unwrap();
        ddb.txn_execute(t2, "INSERT InStock(20,2) WHERE T").unwrap();
        ddb.txn_execute(t1, "INSERT Orders(11,1,1) WHERE T")
            .unwrap();
        ddb.txn_commit(t2).unwrap();
        ddb.txn_commit(t1).unwrap();
        let live = world_set(ddb.db());
        let (mut recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(world_set(recovered.db()), live);
        for wff in ["Orders(10,1,1)", "Orders(11,1,1)", "InStock(20,2)"] {
            assert!(recovered.db_mut().is_certain(wff).unwrap(), "{wff}");
        }
    }

    // ----- replay fidelity and the settle rule ------------------------------

    /// `Price/2` under a functional dependency, then four branching
    /// inserts: every insert instantiates the dependency (GUA Step 6).
    fn priced(db_options: DbOptions) -> DurableDatabase<MemStorage> {
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), db_options, opts_nocompact()).unwrap();
        ddb.declare_relation("Price", 2).unwrap();
        let fd = DependencyDump::functional("price-fd", "Price", 2, &[0]).unwrap();
        ddb.apply(Op::AddDependency(fd)).unwrap();
        for i in 0..4 {
            ddb.execute(&format!("INSERT Price(w{i},10) | Price(w{i},12) WHERE T"))
                .unwrap();
        }
        ddb
    }

    fn reprice<S: Storage>(ddb: &mut DurableDatabase<S>) {
        for i in 0..4 {
            ddb.execute(&format!(
                "MODIFY Price(w{i},10) TO BE Price(w{i},11) WHERE T"
            ))
            .unwrap();
        }
    }

    /// The live record of which axiom instances GUA inserted is the
    /// theory itself: Step 5 asks whether an instance is present in the
    /// store as it stands, and the engine remembers nothing across
    /// updates. So replaying the journaled updates must rebuild the live
    /// store exactly, and a restart mid-stream must leave later updates
    /// no bigger than a straight run.
    #[test]
    fn recovery_keeps_the_live_record_of_axiom_instances() {
        // Unsimplified on both sides, replay must rebuild exactly the
        // live store, dependency instances included.
        let none = DbOptions {
            simplify: SimplifyLevel::None,
            ..DbOptions::default()
        };
        let mut ddb = priced(none);
        reprice(&mut ddb);
        let live_nodes = ddb.db().theory().store_nodes();
        let (_, report) =
            DurableDatabase::open(ddb.into_storage(), none, opts_nocompact()).unwrap();
        assert_eq!(report.simplify.nodes_before, live_nodes);

        // At the default level, a restart between the inserts and the
        // modifies must not leave the store bigger than never restarting.
        let mut straight = priced(DbOptions::default());
        reprice(&mut straight);
        let (mut restarted, _) = reopen(priced(DbOptions::default()).into_storage());
        reprice(&mut restarted);
        let size = |d: &DurableDatabase<MemStorage>| {
            (d.db().theory().store_nodes(), d.db().theory().store.len())
        };
        assert_eq!(size(&restarted), size(&straight));
        assert_eq!(world_set(restarted.db()), world_set(straight.db()));
    }

    fn at(lsn: u64, record: WalRecord) -> WalEntry {
        WalEntry { lsn, record }
    }

    fn relation(name: &str) -> Op {
        Op::DeclareRelation(name.into(), 1)
    }

    fn intent(txn: u64, name: &str) -> WalRecord {
        WalRecord::TxnOp(txn, relation(name))
    }

    #[test]
    fn settle_releases_intents_at_commit_after_interleaved_plain_records() {
        let mut settle = TxnSettle::default();
        assert_eq!(settle.feed(at(0, WalRecord::TxnBegin(0))), Settled::Hold);
        assert_eq!(settle.feed(at(1, intent(0, "A"))), Settled::Hold);
        // A plain record journaled inside the transaction's window takes
        // effect at once, before the transaction's intents.
        assert_eq!(
            settle.feed(at(2, WalRecord::Op(relation("P")))),
            Settled::Release(vec![(2, relation("P"))])
        );
        assert_eq!(settle.feed(at(3, intent(0, "B"))), Settled::Hold);
        assert_eq!(
            settle.feed(at(4, WalRecord::TxnCommit(0))),
            Settled::Release(vec![(1, relation("A")), (3, relation("B"))])
        );
        assert_eq!(settle.open().count(), 0);
    }

    #[test]
    fn settle_drops_aborted_intents() {
        let mut settle = TxnSettle::default();
        settle.feed(at(0, WalRecord::TxnBegin(0)));
        settle.feed(at(1, intent(0, "A")));
        assert_eq!(settle.feed(at(2, WalRecord::TxnAbort(0))), Settled::Hold);
        assert_eq!(settle.open().count(), 0);
        // A commit after the abort has nothing left to release.
        assert_eq!(settle.feed(at(3, WalRecord::TxnCommit(0))), Settled::Hold);
    }

    #[test]
    fn settle_drops_a_transaction_whose_begin_it_never_saw() {
        let mut settle = TxnSettle::default();
        // Transaction 5 began before the first fed entry.
        assert_eq!(settle.feed(at(7, intent(5, "A"))), Settled::Hold);
        assert_eq!(settle.open().count(), 0);
        assert_eq!(settle.feed(at(8, WalRecord::TxnCommit(5))), Settled::Hold);
    }

    #[test]
    fn settle_restarts_a_transaction_at_its_rejournaled_begin() {
        let mut settle = TxnSettle::default();
        settle.feed(at(0, WalRecord::TxnBegin(0)));
        settle.feed(at(1, intent(0, "A")));
        // A checkpoint re-journals the open transaction: begin under the
        // original id, then every intent it holds.
        settle.feed(at(5, WalRecord::TxnBegin(0)));
        settle.feed(at(6, intent(0, "A")));
        settle.feed(at(7, intent(0, "B")));
        assert_eq!(
            settle.feed(at(8, WalRecord::TxnCommit(0))),
            Settled::Release(vec![(6, relation("A")), (7, relation("B"))])
        );
    }

    #[test]
    fn settle_lists_begun_but_unsettled_transactions() {
        let mut settle = TxnSettle::default();
        for t in [0, 1, 2] {
            settle.feed(at(t, WalRecord::TxnBegin(t)));
        }
        settle.feed(at(3, intent(2, "A")));
        settle.feed(at(4, WalRecord::TxnCommit(1)));
        assert_eq!(settle.open().collect::<Vec<_>>(), vec![0, 2]);
    }
}

//! The in-process side of every round: the §4 oracle the served and
//! recovered states are checked against, and — with `--trace 1` — the
//! per-layer replay, which pushes the round's statement stream through
//! each layer the server uses with one timed span around every layer call.

use crate::gen::{Probe, SeedTheory};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use winslett_analyze::ConflictAnalyzer;
use winslett_core::snapshot::{SnapshotReader, TheorySnapshot};
use winslett_core::{
    DbError, DbOptions, DirStorage, DurableDatabase, LogicalDatabase, Storage, WalOptions,
};
use winslett_serve::Client;

/// Named samples (µs for spans, plain numbers for counters). A per-layer
/// metric is the median of its samples over the whole run.
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Records the µs elapsed since `start` under `name`.
    pub fn since(&mut self, name: &'static str, start: Instant) {
        self.push(name, micros(start));
    }

    /// Median of `name`'s samples; 0 when the workload never reached that
    /// layer (e.g. the wire on the in-process workload).
    pub fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |v| crate::percentile(&mut v.clone(), 0.5))
    }
}

pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Anything the seed theory can be loaded into: the oracle, a durable
/// database, or a server over the wire.
pub trait SeedTarget {
    fn declare(&mut self, name: &str, arity: u64) -> Result<(), String>;
    fn fact(&mut self, pred: &str, args: &[&str]) -> Result<(), String>;
    fn exec(&mut self, src: &str) -> Result<(), String>;
}

impl SeedTarget for LogicalDatabase {
    fn declare(&mut self, name: &str, arity: u64) -> Result<(), String> {
        self.declare_relation(name, arity as usize)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn fact(&mut self, pred: &str, args: &[&str]) -> Result<(), String> {
        self.load_fact(pred, args)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn exec(&mut self, src: &str) -> Result<(), String> {
        self.execute(src).map(drop).map_err(|e| e.to_string())
    }
}

impl<S: Storage> SeedTarget for DurableDatabase<S> {
    fn declare(&mut self, name: &str, arity: u64) -> Result<(), String> {
        self.declare_relation(name, arity as usize)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn fact(&mut self, pred: &str, args: &[&str]) -> Result<(), String> {
        self.load_fact(pred, args)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn exec(&mut self, src: &str) -> Result<(), String> {
        self.execute(src).map(drop).map_err(|e| e.to_string())
    }
}

impl SeedTarget for Client {
    fn declare(&mut self, name: &str, arity: u64) -> Result<(), String> {
        self.declare_relation(name, arity)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn fact(&mut self, pred: &str, args: &[&str]) -> Result<(), String> {
        self.load_fact(pred, args)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn exec(&mut self, src: &str) -> Result<(), String> {
        self.execute(src).map(drop).map_err(|e| e.to_string())
    }
}

pub fn load_seed(target: &mut impl SeedTarget, seed: &SeedTheory) -> Result<(), String> {
    for (name, arity) in &seed.relations {
        target.declare(name, *arity)?;
    }
    for (pred, args) in &seed.facts {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        target.fact(pred, &args)?;
    }
    for src in &seed.branches {
        target.exec(src)?;
    }
    Ok(())
}

/// WAL options of every durable database here: the defaults (an fsync
/// per record, as `winslett-serve` deploys) with auto-checkpointing off.
/// An automatic checkpoint lands wherever the store's growth crosses its
/// trigger, which differs from seed to seed and made recovery cost jump
/// between two levels; instead every round takes one explicit checkpoint
/// at a fixed point of its work, so recovery always restores a snapshot
/// and replays the same share of the log.
pub fn wal_options() -> WalOptions {
    WalOptions {
        compact_growth_factor: None,
        ..WalOptions::default()
    }
}

/// A directory for one durable database's files under the package's
/// `target/`, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("rounds")
            .join(format!(
                "{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    pub fn storage(&self) -> DirStorage {
        DirStorage::new(&self.0).expect("scratch directory opens")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn open_durable<S: Storage>(storage: S) -> DurableDatabase<S> {
    DurableDatabase::open(storage, DbOptions::default(), wal_options())
        .expect("fresh durable database opens")
        .0
}

/// A storage that adds up the µs its appends and syncs take: the WAL
/// write share of a journaled update.
struct Timed<S> {
    inner: S,
    write_us: f64,
}

impl<S: Storage> Storage for Timed<S> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let t = Instant::now();
        let r = self.inner.append(name, data);
        self.write_us += micros(t);
        r
    }
    fn sync(&mut self, name: &str) -> Result<(), DbError> {
        let t = Instant::now();
        let r = self.inner.sync(name);
        self.write_us += micros(t);
        r
    }
    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        self.inner.replace(name, data)
    }
}

/// The oracle: the seed theory, then `statements` applied serially through
/// the library (the paper's §4 path). With `spans`, every statement is also
/// timed layer by layer — parse, lock footprint, GUA apply, snapshot
/// capture, and the same statement journaled on a shadow durable database
/// in its own directory (the whole journaled update, and its WAL write).
pub fn oracle(
    seed: &SeedTheory,
    statements: &[&str],
    spans: Option<&mut Spans>,
) -> LogicalDatabase {
    let mut db = LogicalDatabase::new();
    load_seed(&mut db, seed).expect("seed loads into the oracle");
    let Some(spans) = spans else {
        for src in statements {
            db.execute(src).expect("oracle statement applies");
        }
        return db;
    };
    let dir = Scratch::new();
    let mut shadow = open_durable(Timed {
        inner: dir.storage(),
        write_us: 0.0,
    });
    load_seed(&mut shadow, seed).expect("seed loads into the shadow database");
    let before = shadow.stats();
    for src in statements {
        let t = Instant::now();
        let parsed = db.parse_update(src).expect("oracle statement parses");
        spans.since("parse_us", t);
        // A fresh analyzer per statement, as the server's lock extractor
        // builds one.
        let t = Instant::now();
        std::hint::black_box(ConflictAnalyzer::default().lock_profile(src));
        spans.since("footprint_us", t);
        let t = Instant::now();
        db.update(&parsed).expect("oracle statement applies");
        spans.since("gua_apply_us", t);
        let t = Instant::now();
        std::hint::black_box(TheorySnapshot::capture(db.theory()));
        spans.since("snapshot_capture_us", t);
        let shadow_parsed = shadow
            .db_mut()
            .parse_update(src)
            .expect("shadow statement parses");
        let written = shadow.storage().write_us;
        let t = Instant::now();
        shadow
            .update(&shadow_parsed)
            .expect("shadow statement applies");
        spans.since("durable_update_us", t);
        spans.push("wal_write_us", shadow.storage().write_us - written);
    }
    let after = shadow.stats();
    let records = after.records - before.records;
    if records > 0 {
        spans.push(
            "wal_bytes_per_record",
            (after.bytes_appended - before.bytes_appended) as f64 / records as f64,
        );
    }
    spans.push("store_nodes", db.theory().store_nodes() as f64);
    db
}

/// One read's answer, in a form the served and in-process paths share.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Truth(bool, bool),
    Rows(Vec<Vec<String>>, Vec<Vec<String>>),
}

pub fn rows(mut certain: Vec<Vec<String>>, mut possible: Vec<Vec<String>>) -> Answer {
    certain.sort();
    possible.sort();
    Answer::Rows(certain, possible)
}

/// The oracle's answer to every probe, asked directly of the library.
pub fn answers(db: &mut LogicalDatabase, probes: &[Probe]) -> Vec<Answer> {
    probes
        .iter()
        .map(|p| match p {
            Probe::Check(src) => Answer::Truth(
                db.is_possible(src).expect("oracle check"),
                db.is_certain(src).expect("oracle check"),
            ),
            Probe::Query(src) => {
                let a = db.query(src).expect("oracle query");
                rows(a.certain, a.possible)
            }
        })
        .collect()
}

/// `(possible, certain)` of each wff, asked directly of `db`.
pub fn verdicts(db: &mut LogicalDatabase, wffs: &[String]) -> Vec<(bool, bool)> {
    wffs.iter()
        .map(|w| {
            (
                db.is_possible(w).expect("verdict check"),
                db.is_certain(w).expect("verdict check"),
            )
        })
        .collect()
}

/// Times the snapshot session layer the server answers reads from:
/// building a reader (the whole theory encoded once per snapshot), then
/// every probe twice, timing the second, warm pass — a pinned served
/// reader repeats its probes the same way.
pub fn trace_reads(db: &LogicalDatabase, probes: &[Probe], spans: &mut Spans) {
    let snapshot = TheorySnapshot::capture(db.theory());
    let t = Instant::now();
    let mut reader = SnapshotReader::new(snapshot);
    spans.since("session_build_us", t);
    for pass in 0..2 {
        for p in probes {
            let t = Instant::now();
            let name = match p {
                Probe::Check(src) => {
                    std::hint::black_box(reader.decide(src).expect("session check"));
                    "session_check_us"
                }
                Probe::Query(src) => {
                    std::hint::black_box(reader.query(src).expect("session query"));
                    "session_query_us"
                }
            };
            if pass == 1 {
                spans.since(name, t);
            }
        }
    }
}

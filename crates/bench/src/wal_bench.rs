//! The `wal` experiment behind `BENCH_wal.json`: per-update commit
//! latency of [`DurableDatabase`] under the two sync policies, on real
//! fsync-backed [`DirStorage`].
//!
//! A fixed script of `n` ground inserts over the Orders schema runs once
//! with [`SyncPolicy::EveryRecord`] (one fsync per acknowledged update —
//! the §4 "journal everything" discipline taken literally) and once as a
//! group commit: under [`SyncPolicy::Manual`], with one
//! [`DurableDatabase::sync`] every `group` updates and one at the end, as
//! the server's writer syncs once per pass. Both runs land in fresh temp
//! directories. The
//! result records wall times, the WAL's own
//! [`WalStats`](winslett_core::wal::WalStats) counters, and a recovery
//! check: the `EveryRecord` directory is reopened and its recovered
//! alternative-world set must equal the live run's.
//!
//! Everything is (de)serializable, so the harness validates the emitted
//! JSON by re-parsing it into [`WalBench`] — the shape check behind
//! `make bench-smoke`.

use crate::kernel;
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Instant;
use winslett_core::wal::{DirStorage, DurableDatabase, SyncPolicy, WalOptions};
use winslett_core::{DbOptions, LogicalDatabase};
use winslett_logic::ModelLimit;
use winslett_worlds::WorldsEngine;

/// One sync policy's measured run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WalRun {
    /// Human-readable policy label (`"every-record"` / `"group-commit"`).
    pub policy: String,
    /// Wall time of the full update script including the trailing sync, µs.
    pub total_us: f64,
    /// `total_us / updates` — the per-update commit latency.
    pub per_update_us: f64,
    /// WAL records appended (updates plus schema/fact journaling).
    pub records: u64,
    /// fsync calls issued.
    pub syncs: u64,
    /// Bytes appended to the log.
    pub bytes_appended: u64,
}

/// The complete `BENCH_wal.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WalBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"wal"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Number of journaled updates in the script.
    pub updates: u64,
    /// Group-commit batch size of the second run.
    pub group_size: u64,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// fsync latency dominates here, but single-CPU containers also slow
    /// the GUA apply between commits, so record it for honesty.
    pub host_parallelism: u64,
    /// Whether reopening the `EveryRecord` directory recovered exactly
    /// the live run's alternative-world set. Must be `true`.
    pub recovery_matches: bool,
    /// Wall time of that recovery (snapshot load + WAL replay), µs.
    pub recovery_us: f64,
    /// EveryRecord per-update latency / group-commit per-update latency.
    pub commit_speedup: f64,
    /// The one-fsync-per-update run.
    pub every_record: WalRun,
    /// The batched run.
    pub group_commit: WalRun,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The alternative-world set rendered name-based, so images recovered
/// through a fresh symbol table compare equal to the live database.
fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
    let engine = WorldsEngine::from_theory(db.theory(), ModelLimit::default())
        .expect("bench workload materializes");
    engine
        .worlds()
        .iter()
        .map(|w| db.theory().format_world(w))
        .collect()
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("winslett-wal-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the `n`-insert script in a fresh directory — under
/// [`SyncPolicy::EveryRecord`], or with `group` set under
/// [`SyncPolicy::Manual`] with a sync every `group` updates — and returns
/// the run record, the final world set, and the directory (kept on disk
/// so the caller can time recovery from it).
fn run_policy(
    n: usize,
    group: Option<usize>,
    label: &str,
    tag: &str,
) -> (WalRun, BTreeSet<Vec<String>>, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let storage = DirStorage::new(&dir).expect("create bench scratch dir");
    let wal_options = WalOptions {
        policy: match group {
            Some(_) => SyncPolicy::Manual,
            None => SyncPolicy::EveryRecord,
        },
        // No auto-compaction: the measurement is append+fsync latency,
        // not snapshot cost.
        compact_growth_factor: None,
        compact_min_nodes: 0,
    };
    let (mut ddb, _) =
        DurableDatabase::open(storage, DbOptions::default(), wal_options).expect("bench open");
    ddb.declare_relation("Orders", 3).expect("declare Orders");
    ddb.declare_relation("InStock", 2).expect("declare InStock");
    ddb.load_fact("Orders", &["700", "32", "9"])
        .expect("seed fact");

    let start = Instant::now();
    for i in 0..n {
        let src = format!("INSERT InStock(p{i},{}) WHERE T", i % 10);
        ddb.execute(&src).expect("bench update");
        if group.is_some_and(|g| (i + 1) % g == 0) {
            ddb.sync().expect("group sync");
        }
    }
    ddb.sync().expect("trailing sync");
    let total_us = start.elapsed().as_secs_f64() * 1e6;

    let stats = ddb.stats();
    let worlds = world_set(ddb.db());
    let run = WalRun {
        policy: label.to_owned(),
        total_us,
        per_update_us: total_us / n as f64,
        records: stats.records,
        syncs: stats.syncs,
        bytes_appended: stats.bytes_appended,
    };
    (run, worlds, dir)
}

/// Measures both sync policies over `n` updates (batch size `group`) and
/// assembles the `BENCH_wal.json` document.
pub fn run_wal_bench(n: usize, group: usize) -> WalBench {
    let (every_record, live_worlds, every_dir) = run_policy(n, None, "every-record", "every");
    let (group_commit, group_worlds, group_dir) =
        run_policy(n, Some(group), "group-commit", "grouped");

    // Recovery: reopen the EveryRecord image cold and time snapshot load
    // plus WAL replay; the recovered world set must equal the live one.
    let storage = DirStorage::new(&every_dir).expect("reopen bench dir");
    let start = Instant::now();
    let (recovered, _report) = DurableDatabase::open(
        storage,
        DbOptions::default(),
        WalOptions {
            policy: SyncPolicy::EveryRecord,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        },
    )
    .expect("bench recovery");
    let recovery_us = start.elapsed().as_secs_f64() * 1e6;
    let recovery_matches = world_set(recovered.db()) == live_worlds && group_worlds == live_worlds;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&every_dir);
    let _ = std::fs::remove_dir_all(&group_dir);

    let host_parallelism = kernel::host_parallelism();
    let commit_speedup = every_record.per_update_us / group_commit.per_update_us;
    let notes = vec![
        format!(
            "{n} ground inserts over Orders/InStock; every-record issues one \
             fsync per acknowledged update, group-commit batches {group}."
        ),
        "Latency is fsync-bound: absolute numbers track the host's storage \
         stack, and on throttled CI filesystems the speedup can compress \
         toward 1; the durable invariant (recovery_matches) is \
         host-independent."
            .to_owned(),
    ];
    WalBench {
        version: 1,
        experiment: "wal".to_owned(),
        workload: format!("{n} ground INSERTs journaled to fsync-backed DirStorage"),
        updates: n as u64,
        group_size: group as u64,
        host_parallelism,
        recovery_matches,
        recovery_us,
        commit_speedup,
        every_record,
        group_commit,
        notes,
    }
}

/// Shape-validates `BENCH_wal.json` text by re-parsing it into
/// [`WalBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_wal_bench(text: &str) -> Result<WalBench, String> {
    let b: WalBench = kernel::parse(text, "wal", 1)?;
    if b.updates == 0 {
        return Err("updates is 0 — nothing was measured".to_owned());
    }
    if b.group_size < 2 {
        return Err(format!(
            "group_size is {} — group commit needs a batch of at least 2",
            b.group_size
        ));
    }
    if !b.recovery_matches {
        return Err("recovered world set differs from the live run".to_owned());
    }
    for (label, run) in [
        ("every-record", &b.every_record),
        ("group-commit", &b.group_commit),
    ] {
        if run.policy != label {
            return Err(format!("run labeled {:?}, expected {label:?}", run.policy));
        }
        kernel::positive(run.per_update_us, &format!("{label} per_update_us"))?;
        if run.records < b.updates {
            return Err(format!(
                "{label} journaled {} records for {} updates",
                run.records, b.updates
            ));
        }
        if run.syncs == 0 {
            return Err(format!("{label} issued no fsyncs"));
        }
        if run.bytes_appended == 0 {
            return Err(format!("{label} appended no bytes"));
        }
    }
    // EveryRecord fsyncs once per record; group commit must do strictly
    // fewer for the same script (it still syncs at batch edges + trailer).
    if b.group_commit.syncs >= b.every_record.syncs {
        return Err(format!(
            "group commit issued {} fsyncs vs every-record's {} — batching is not batching",
            b.group_commit.syncs, b.every_record.syncs
        ));
    }
    kernel::positive(b.commit_speedup, "commit_speedup")?;
    kernel::positive(b.recovery_us, "recovery_us")?;
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn wal_table(b: &WalBench) -> Table {
    let mut t = Table::new(
        "WAL",
        "durable commit latency: fsync-per-update vs group commit (DirStorage)",
        &[
            "policy",
            "per-update µs",
            "total µs",
            "records",
            "fsyncs",
            "bytes",
        ],
    );
    for r in [&b.every_record, &b.group_commit] {
        t.row(vec![
            r.policy.clone(),
            format!("{:.1}", r.per_update_us),
            format!("{:.1}", r.total_us),
            r.records.to_string(),
            r.syncs.to_string(),
            r.bytes_appended.to_string(),
        ]);
    }
    t.note(format!(
        "{} updates, group size {}; commit speedup ×{:.2}",
        b.updates, b.group_size, b.commit_speedup
    ));
    t.note(format!(
        "cold recovery replayed the log in {:.1} µs; worlds match: {}; host parallelism {}",
        b.recovery_us, b.recovery_matches, b.host_parallelism
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_wal_bench(12, 4);
        assert_eq!(b.updates, 12);
        assert!(b.recovery_matches);
        assert!(b.every_record.syncs > b.group_commit.syncs);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_wal_bench(&text).expect("validates");
        assert_eq!(back.updates, 12);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_wal_bench(8, 4);
        let mut bad = b.clone();
        bad.recovery_matches = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_wal_bench(&text).unwrap_err().contains("differs"));
        let mut bad = b.clone();
        bad.group_commit.syncs = bad.every_record.syncs + 1;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_wal_bench(&text)
            .unwrap_err()
            .contains("not batching"));
        assert!(validate_wal_bench("{").is_err());
    }

    #[test]
    fn table_renders_both_rows() {
        let b = run_wal_bench(8, 4);
        let rendered = wal_table(&b).render();
        assert!(rendered.contains("every-record"));
        assert!(rendered.contains("group-commit"));
    }
}

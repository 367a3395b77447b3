//! The `conflicts` experiment behind `BENCH_conflicts.json` (E13):
//! does the server's conflict-aware write batcher pay off, and does it
//! preserve semantics?
//!
//! Two identical `winslett-serve` instances run the same workload — `w`
//! writer connections committing toggling updates over *disjoint* atom
//! pools (so the statements are pairwise independent by footprint) while
//! reader connections run pin → check → unpin loops — one instance with
//! [`winslett_serve::ServerOptions::batch_writes`] on, one with it off.
//! The writer thread coalesces queued independent writes into group
//! commits: one sync and one snapshot publication per batch instead of
//! one per write.
//!
//! After the timed window a deterministic reconciliation phase drives
//! both databases to the same intended final state, and the bench then
//! checks **verdict identity** twice per side: the server's final pinned
//! snapshot must agree with direct library calls on the reopened
//! post-shutdown storage (recovery *is* the §4 replay of the journaled
//! update dumps), and the two sides must agree with each other. Batching
//! that changed any verdict would fail the shape gate in
//! `make bench-smoke`.

use crate::report::{percentile, Table};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use winslett_core::{DbOptions, DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett_serve::{Client, Server, ServerOptions};

/// Reader connections per side: enough to keep snapshot reads live
/// without drowning the writers on small CI hosts.
const READERS: usize = 2;

/// Entailment checks per pinned snapshot.
const CHECKS_PER_PIN: usize = 8;

/// Pause between a reader's pin cycles. The readers are a *fixed
/// background load*, not a competitor: left flat-out on a small host
/// they absorb every cycle the write path frees up (batching makes
/// follow-the-latest reads cheaper by publishing fewer generations), and
/// the writer column would measure reader appetite instead of write
/// cost.
const READER_PACE: Duration = Duration::from_millis(5);

/// Atoms in each writer's private pool (writer `w` touches only
/// `Pool(w, 0..POOL)` — disjoint footprints across writers).
const POOL: usize = 4;

/// Inert facts seeded up front to give the theory realistic bulk.
/// Snapshot publication deep-clones the theory, so its cost scales with
/// theory size — this is exactly the per-write cost that coalescing
/// amortizes, while the footprint analysis a batch adds stays O(one
/// statement). A near-empty theory would understate the payoff.
const FILLER: usize = 256;

/// One side of the comparison (batching on or off).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SideResult {
    /// Whether `batch_writes` was enabled.
    pub batched: bool,
    /// Updates acknowledged across all writers in the window.
    pub writer_updates: u64,
    /// Aggregate acknowledged writes per second.
    pub writes_per_sec: f64,
    /// Per-update ack latency percentiles, µs.
    pub write_p50_us: f64,
    /// 95th percentile, µs.
    pub write_p95_us: f64,
    /// Entailment checks answered across all readers in the window.
    pub total_reads: u64,
    /// Aggregate reads per second.
    pub reads_per_sec: f64,
    /// Snapshots the writer published over the whole run (stats counter;
    /// includes seeding and reconciliation).
    pub snapshots_published: u64,
    /// Batches the writer thread flushed (0 when batching is off).
    pub write_batches: u64,
    /// Writes that shared a batch with at least one other write.
    pub coalesced_writes: u64,
    /// Whether the server's final pinned verdicts equal direct library
    /// calls on the reopened storage (WAL recovery = §4 replay).
    pub replay_matches: bool,
}

/// The complete `BENCH_conflicts.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConflictsBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"conflicts"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Measurement window per side, milliseconds.
    pub window_ms: u64,
    /// Concurrent writer connections per side.
    pub writers: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: u64,
    /// The classic one-publication-per-write path.
    pub unbatched: SideResult,
    /// The conflict-aware group-commit path.
    pub batched: SideResult,
    /// Whether the two sides' post-reconciliation probe verdicts are
    /// identical. Must be `true`: batching may only change *when*
    /// snapshots appear, never what is true in them.
    pub verdicts_match: bool,
    /// `batched.writes_per_sec / unbatched.writes_per_sec`.
    pub speedup: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The probe checklist: one certain atom per writer pool after
/// reconciliation, plus the seeded branch (kept uncertain so checks do
/// real SAT work).
fn probes(writers: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..writers).map(|w| format!("Pool({w},0)")).collect();
    v.push("Branch(1)".to_owned());
    v.push("Branch(2)".to_owned());
    v
}

/// Writer `w`'s bounded update script: toggles membership over its
/// private pool, so concurrent writers' statements have disjoint
/// footprints and the batcher can legally coalesce them.
fn writer_statement(w: usize, i: usize) -> String {
    let k = i % POOL;
    if (i / POOL).is_multiple_of(2) {
        format!("INSERT Pool({w},{k}) WHERE T")
    } else {
        format!("DELETE Pool({w},{k}) WHERE T")
    }
}

/// Runs one side: same seed, same workload, batching on or off.
fn run_side(batch: bool, writers: usize, window: Duration) -> (SideResult, Vec<(bool, bool)>) {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions {
            policy: SyncPolicy::GroupCommit(8),
            ..WalOptions::default()
        },
        ServerOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            batch_writes: batch,
            // This experiment isolates the batching effect; the compactor
            // would add its own publications to the counts under test.
            compaction: None,
            ..ServerOptions::default()
        },
    )
    .expect("bench server bind");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let mut setup = Client::connect(addr).expect("setup connect");
    setup.declare_relation("Pool", 2).expect("declare Pool");
    setup.declare_relation("Branch", 1).expect("declare Branch");
    setup.declare_relation("Filler", 1).expect("declare Filler");
    for i in 0..FILLER {
        setup
            .load_fact("Filler", &[&(1000 + i).to_string()])
            .expect("seed filler fact");
    }
    // Seed every pool atom true so all probe constants exist before the
    // readers start checking them.
    for w in 0..writers {
        for k in 0..POOL {
            setup
                .load_fact("Pool", &[&w.to_string(), &k.to_string()])
                .expect("seed pool fact");
        }
    }
    setup
        .execute("INSERT Branch(1) | Branch(2) WHERE T")
        .expect("seed branch");

    let probe_list = probes(writers);
    let stop = Arc::new(AtomicBool::new(false));
    let mut reader_handles = Vec::new();
    for _ in 0..READERS {
        let stop = Arc::clone(&stop);
        let probe_list = probe_list.clone();
        reader_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                client.pin().expect("pin");
                for i in 0..CHECKS_PER_PIN {
                    client
                        .check(&probe_list[i % probe_list.len()])
                        .expect("check");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                client.unpin().expect("unpin");
                std::thread::sleep(READER_PACE);
            }
            reads
        }));
    }
    let mut writer_handles = Vec::new();
    for w in 0..writers {
        let stop = Arc::clone(&stop);
        writer_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut latencies_us = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                client
                    .execute(&writer_statement(w, i))
                    .expect("bench update");
                latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                i += 1;
            }
            latencies_us
        }));
    }

    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut write_latencies: Vec<f64> = Vec::new();
    for h in writer_handles {
        write_latencies.extend(h.join().expect("writer thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut total_reads = 0u64;
    for h in reader_handles {
        total_reads += h.join().expect("reader thread");
    }

    // Reconciliation: the writers stopped at arbitrary toggle phases, so
    // drive every pool atom to a fixed final state. Both sides end at
    // the same intended theory regardless of how far each writer got.
    for w in 0..writers {
        for k in 0..POOL {
            setup
                .execute(&format!("INSERT Pool({w},{k}) WHERE T"))
                .expect("reconcile");
        }
    }

    // Final verdicts over a pinned server snapshot, plus the counters.
    let server_verdicts: Vec<(bool, bool)> = {
        let mut client = Client::connect(addr).expect("verdict connect");
        client.pin().expect("pin final");
        probe_list
            .iter()
            .map(|p| {
                let t = client.check(p).expect("final check");
                (t.possible, t.certain)
            })
            .collect()
    };
    let stats = setup.stats().expect("stats");

    setup.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("server run");

    // Reopen the flushed storage: recovery replays the journaled §4
    // update dumps. Direct library verdicts are the ground truth.
    let (reopened, _) = DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
        .expect("bench reopen");
    let mut direct = reopened;
    let direct_verdicts: Vec<(bool, bool)> = probe_list
        .iter()
        .map(|p| {
            let possible = direct.db_mut().is_possible(p).expect("direct possible");
            let certain = direct.db_mut().is_certain(p).expect("direct certain");
            (possible, certain)
        })
        .collect();

    write_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let side = SideResult {
        batched: batch,
        writer_updates: write_latencies.len() as u64,
        writes_per_sec: write_latencies.len() as f64 / elapsed,
        write_p50_us: percentile(&write_latencies, 0.50),
        write_p95_us: percentile(&write_latencies, 0.95),
        total_reads,
        reads_per_sec: total_reads as f64 / elapsed,
        snapshots_published: stats.snapshots_published,
        write_batches: stats.write_batches,
        coalesced_writes: stats.coalesced_writes,
        replay_matches: server_verdicts == direct_verdicts,
    };
    (side, server_verdicts)
}

/// Runs both sides and assembles the `BENCH_conflicts.json` document.
pub fn run_conflicts_bench(writers: usize, window_ms: u64) -> ConflictsBench {
    let window = Duration::from_millis(window_ms);
    let (unbatched, verdicts_off) = run_side(false, writers, window);
    let (batched, verdicts_on) = run_side(true, writers, window);
    let verdicts_match = verdicts_off == verdicts_on;
    let speedup = if unbatched.writes_per_sec > 0.0 {
        batched.writes_per_sec / unbatched.writes_per_sec
    } else {
        0.0
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let notes = vec![
        format!(
            "{writers} writers toggle disjoint Pool(w, 0..{POOL}) atoms — pairwise \
             independent by footprint, so the batching leader may coalesce them; \
             {READERS} readers run pin → {CHECKS_PER_PIN} checks → unpin throughout."
        ),
        "A deterministic reconciliation phase drives both sides to the same \
         intended theory before verdicts are compared, so the timed window can \
         stop writers at any phase."
            .to_owned(),
        "replay_matches compares each server's final pinned snapshot against \
         direct library calls on its reopened storage — WAL recovery replays \
         the journaled §4 update dumps."
            .to_owned(),
        "Coalescing requires writes to actually queue up; on single-core hosts \
         or with few writers, write_batches ≈ writer_updates and the two sides \
         converge. The validation threshold is tolerant of that."
            .to_owned(),
    ];
    ConflictsBench {
        version: 1,
        experiment: "conflicts".to_owned(),
        workload: format!(
            "{writers} disjoint-pool writers + {READERS} snapshot readers for \
             {window_ms} ms against winslett-serve (MemStorage, group commit 8), \
             batch_writes off vs on"
        ),
        window_ms,
        writers: writers as u64,
        host_parallelism,
        unbatched,
        batched,
        verdicts_match,
        speedup,
        notes,
    }
}

/// Shape-validates `BENCH_conflicts.json` text by re-parsing it into
/// [`ConflictsBench`] and checking the cross-field invariants. Returns
/// the parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_conflicts_bench(text: &str) -> Result<ConflictsBench, String> {
    let b: ConflictsBench = serde_json::from_str(text)
        .map_err(|e| format!("BENCH_conflicts.json does not parse: {e}"))?;
    if b.version != 1 {
        return Err(format!("unknown version {}", b.version));
    }
    if b.experiment != "conflicts" {
        return Err(format!(
            "experiment is {:?}, expected \"conflicts\"",
            b.experiment
        ));
    }
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    if b.writers == 0 {
        return Err("no writers recorded".to_owned());
    }
    for (side, name) in [(&b.unbatched, "unbatched"), (&b.batched, "batched")] {
        if side.batched != (name == "batched") {
            return Err(format!("side {name} has batched = {}", side.batched));
        }
        if side.writer_updates == 0 {
            return Err(format!("{name}: no writes acknowledged"));
        }
        if !(side.writes_per_sec.is_finite() && side.writes_per_sec > 0.0) {
            return Err(format!("{name}: writes_per_sec is not positive finite"));
        }
        if !(side.write_p50_us > 0.0 && side.write_p95_us >= side.write_p50_us) {
            return Err(format!(
                "{name}: write percentiles are not ordered positive"
            ));
        }
        if side.total_reads == 0 {
            return Err(format!("{name}: readers were starved"));
        }
        if side.snapshots_published == 0 {
            return Err(format!("{name}: no snapshots published"));
        }
        if !side.replay_matches {
            return Err(format!(
                "{name}: server snapshot verdicts differ from the reopened \
                 storage — replay identity broken"
            ));
        }
    }
    if b.unbatched.write_batches != 0 {
        return Err("unbatched side reports write batches".to_owned());
    }
    if b.batched.write_batches == 0 {
        return Err("batched side flushed no batches".to_owned());
    }
    // A batch publishes at most one snapshot: coalescing can only reduce
    // publications per acknowledged write, never add them.
    if b.batched.snapshots_published > b.batched.write_batches + 1 {
        return Err(format!(
            "batched side published {} snapshots from {} batches",
            b.batched.snapshots_published, b.batched.write_batches
        ));
    }
    if !b.verdicts_match {
        return Err("batched and unbatched final verdicts differ".to_owned());
    }
    // The payoff claim, with slack for scheduler noise on small CI hosts:
    // batching must not *cost* throughput.
    if b.batched.writes_per_sec < 0.85 * b.unbatched.writes_per_sec {
        return Err(format!(
            "batched writer throughput regressed: {:.0}/s vs {:.0}/s unbatched",
            b.batched.writes_per_sec, b.unbatched.writes_per_sec
        ));
    }
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn conflicts_table(b: &ConflictsBench) -> Table {
    let mut t = Table::new(
        "CONFLICTS",
        "conflict-aware write batching: group-commit of pairwise-independent writes, on vs off",
        &[
            "mode",
            "writes/s",
            "write p50 µs",
            "write p95 µs",
            "reads/s",
            "snapshots",
            "batches",
            "coalesced",
        ],
    );
    for side in [&b.unbatched, &b.batched] {
        t.row(vec![
            if side.batched { "batched" } else { "unbatched" }.to_owned(),
            format!("{:.0}", side.writes_per_sec),
            format!("{:.1}", side.write_p50_us),
            format!("{:.1}", side.write_p95_us),
            format!("{:.0}", side.reads_per_sec),
            side.snapshots_published.to_string(),
            side.write_batches.to_string(),
            side.coalesced_writes.to_string(),
        ]);
    }
    t.note(format!(
        "{} writers × {} ms window; speedup {:.2}×; verdicts identical across \
         sides: {}; replay identity: {} / {}",
        b.writers,
        b.window_ms,
        b.speedup,
        b.verdicts_match,
        b.unbatched.replay_matches,
        b.batched.replay_matches
    ));
    for n in &b.notes {
        t.note(n.clone());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_conflicts_bench(3, 80);
        assert!(b.verdicts_match);
        assert!(b.unbatched.replay_matches && b.batched.replay_matches);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_conflicts_bench(&text).expect("validates");
        assert_eq!(back.writers, 3);
        assert!(back.batched.write_batches > 0);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_conflicts_bench(3, 60);
        let mut bad = b.clone();
        bad.verdicts_match = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("differ"));
        let mut bad = b.clone();
        bad.batched.replay_matches = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("replay identity"));
        let mut bad = b.clone();
        bad.batched.writes_per_sec = 0.1 * bad.unbatched.writes_per_sec;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("regressed"));
        assert!(validate_conflicts_bench("{").is_err());
    }
}

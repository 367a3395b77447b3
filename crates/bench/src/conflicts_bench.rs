//! The `conflicts` experiment behind `BENCH_conflicts.json` (E13): does
//! the server's conflict-aware write batcher pay off, and does it
//! preserve semantics?
//!
//! Every plain write takes the one batched write path. Two identical
//! `winslett-serve` instances run the same seed and the same closed loop
//! with reader connections running pin → check → unpin throughout; only
//! the writers' footprints differ:
//!
//! * **disjoint** — `w` writer connections toggle atoms of private pools,
//!   so their statements are pairwise independent by footprint and the
//!   writer thread may coalesce queued writes into one batch: one
//!   snapshot publication and one sync per batch instead of one per
//!   write.
//! * **hot** — the same writers all toggle one atom, so every write
//!   conflicts with the one before it and runs in a batch of its own:
//!   the one-publication-per-write baseline.
//!
//! Each side ends with the kernel's final-state check: the server's
//! final pinned verdicts must equal the reopened storage's and those of
//! the §4 serial replay of the acknowledged writes in LSN order. Batching
//! that changed any verdict would fail the shape gate in
//! `make bench-smoke`.

use crate::kernel::{self, FinalCheck, Seed};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use winslett_serve::ServerOptions;

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
/// `Pool(w, 0..POOL)` on the disjoint side). Shared with the txn bench.
pub(crate) const POOL: usize = 4;

/// Inert facts seeded up front to give the theory realistic bulk.
/// Snapshot publication deep-clones the theory, so its cost scales with
/// theory size — this is exactly the per-write cost that coalescing
/// amortizes, while the footprint analysis a batch adds stays O(one
/// statement). A near-empty theory would understate the payoff.
const FILLER: usize = 256;

/// One side of the comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SideResult {
    /// `"disjoint"` or `"hot"`.
    pub workload: String,
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
    /// includes seeding).
    pub snapshots_published: u64,
    /// Batches the writer thread flushed.
    pub write_batches: u64,
    /// Writes that shared a batch with at least one other write.
    pub coalesced_writes: u64,
    /// The kernel's final-state check of this side's server.
    pub final_state: FinalCheck,
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
    /// Pairwise-independent writers, free to share batches.
    pub disjoint: SideResult,
    /// Writers whose writes all touch one atom: one batch per write.
    pub hot: SideResult,
    /// `disjoint.writes_per_sec / hot.writes_per_sec`.
    pub speedup: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The seed this bench and the txn bench start from: every writer pool
/// atom `Pool(w, 0..POOL)` and `atoms` atoms of the one-place relation
/// `shared`, all true (so every probe constant exists before the readers
/// start), an uncertain branch, and the filler.
pub(crate) fn pool_seed(writers: usize, shared: &str, atoms: usize) -> Seed {
    let mut seed = Seed::default();
    seed.relation("Pool", 2)
        .relation(shared, 1)
        .relation("Branch", 1)
        .relation("Filler", 1);
    for i in 0..FILLER {
        seed.fact("Filler", [1000 + i]);
    }
    for w in 0..writers {
        for k in 0..POOL {
            seed.fact("Pool", [w, k]);
        }
    }
    for k in 0..atoms {
        seed.fact(shared, [k]);
    }
    seed.statement("INSERT Branch(1) | Branch(2) WHERE T");
    seed
}

/// The final-state probes of a [`pool_seed`] run: one atom per writer
/// pool, the first `shared` atom, and the seeded branch (kept uncertain
/// so checks do real SAT work).
pub(crate) fn pool_probes(writers: usize, shared: &str) -> Vec<String> {
    let mut v: Vec<String> = (0..writers).map(|w| format!("Pool({w},0)")).collect();
    v.extend([
        format!("{shared}(0)"),
        "Branch(1)".into(),
        "Branch(2)".into(),
    ]);
    v
}

/// The toggle of statement `i`: inserts for `POOL` statements, then
/// deletes for `POOL`, so a writer's theory stays bounded.
pub(crate) fn toggle(i: usize) -> &'static str {
    if (i / POOL).is_multiple_of(2) {
        "INSERT"
    } else {
        "DELETE"
    }
}

/// Statement `i` of writer `w`: a toggle over its private pool, or over
/// the one hot atom.
fn writer_statement(hot: bool, w: usize, i: usize) -> String {
    if hot {
        format!("{} Hot(0) WHERE T", toggle(i))
    } else {
        format!("{} Pool({w},{}) WHERE T", toggle(i), i % POOL)
    }
}

/// Runs one side: same seed, same closed loop, disjoint or hot writers.
fn run_side(hot: bool, writers: usize, window: Duration) -> SideResult {
    let seed = pool_seed(writers, "Hot", 1);
    // The compactor would add its own publications to the counts under
    // test.
    let options = ServerOptions {
        compaction: None,
        ..ServerOptions::default()
    };
    let served = kernel::boot(options, &seed);
    let probes = pool_probes(writers, "Hot");
    let addr = served.addr;
    let w = kernel::closed_loop(
        window,
        (0..READERS)
            .map(|_| kernel::reader(addr, &probes, CHECKS_PER_PIN, READER_PACE))
            .collect(),
        (0..writers)
            .map(|w| kernel::writer(addr, 0, move |i| writer_statement(hot, w, i)))
            .collect(),
    );
    let finished = kernel::finish(served, &seed, &w.writes.acked, &probes);
    SideResult {
        workload: if hot { "hot" } else { "disjoint" }.to_owned(),
        writer_updates: w.writes.count(),
        writes_per_sec: w.writes.per_sec(w.elapsed_s),
        write_p50_us: w.writes.p(0.50),
        write_p95_us: w.writes.p(0.95),
        total_reads: w.reads.count(),
        reads_per_sec: w.reads.per_sec(w.elapsed_s),
        snapshots_published: finished.stats.snapshots_published,
        write_batches: finished.stats.write_batches,
        coalesced_writes: finished.stats.coalesced_writes,
        final_state: finished.check,
    }
}

/// Runs both sides and assembles the `BENCH_conflicts.json` document.
pub fn run_conflicts_bench(writers: usize, window_ms: u64) -> ConflictsBench {
    let window = Duration::from_millis(window_ms);
    let hot = run_side(true, writers, window);
    let disjoint = run_side(false, writers, window);
    let speedup = if hot.writes_per_sec > 0.0 {
        disjoint.writes_per_sec / hot.writes_per_sec
    } else {
        0.0
    };
    let notes = vec![
        format!(
            "{writers} writers toggle atoms flat out: disjoint Pool(w, 0..{POOL}) \
             pools on one side (pairwise independent by footprint, so queued \
             writes may share a batch), the single Hot(0) atom on the other \
             (every write conflicts with the last, one batch each); {READERS} \
             readers run pin → {CHECKS_PER_PIN} checks → unpin throughout."
        ),
        "final_state compares each server's final pinned snapshot against \
         direct library calls on its reopened storage and against the §4 \
         serial replay of the acknowledged writes in LSN order."
            .to_owned(),
        "Coalescing requires writes to actually queue up; on single-core hosts \
         or with few writers, write_batches ≈ writer_updates and the two sides \
         converge. The validation threshold is tolerant of that."
            .to_owned(),
    ];
    ConflictsBench {
        version: 2,
        experiment: "conflicts".to_owned(),
        workload: format!(
            "{writers} writers + {READERS} snapshot readers for {window_ms} ms \
             against winslett-serve (MemStorage, one sync per writer pass), disjoint \
             pools vs one hot atom"
        ),
        window_ms,
        writers: writers as u64,
        host_parallelism: kernel::host_parallelism(),
        disjoint,
        hot,
        speedup,
        notes,
    }
}

/// Shape-validates `BENCH_conflicts.json` text by re-parsing it into
/// [`ConflictsBench`] and checking the cross-field invariants. Returns
/// the parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_conflicts_bench(text: &str) -> Result<ConflictsBench, String> {
    let b: ConflictsBench = kernel::parse(text, "conflicts", 2)?;
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    if b.writers == 0 {
        return Err("no writers recorded".to_owned());
    }
    for (side, name) in [(&b.disjoint, "disjoint"), (&b.hot, "hot")] {
        if side.workload != name {
            return Err(format!("side {name} is labeled {:?}", side.workload));
        }
        if side.writer_updates == 0 {
            return Err(format!("{name}: no writes acknowledged"));
        }
        kernel::positive(side.writes_per_sec, &format!("{name}: writes_per_sec"))?;
        kernel::ordered(
            &[side.write_p50_us, side.write_p95_us],
            &format!("{name}: write"),
        )?;
        if side.total_reads == 0 {
            return Err(format!("{name}: readers were starved"));
        }
        if side.snapshots_published == 0 {
            return Err(format!("{name}: no snapshots published"));
        }
        if side.write_batches == 0 {
            return Err(format!("{name}: flushed no batches"));
        }
        // A batch publishes at most one snapshot (plus the one at boot):
        // coalescing can only reduce publications per write.
        if side.snapshots_published > side.write_batches + 1 {
            return Err(format!(
                "{name}: published {} snapshots from {} batches",
                side.snapshots_published, side.write_batches
            ));
        }
        kernel::final_state(&side.final_state, name)?;
    }
    if b.hot.coalesced_writes != 0 {
        return Err(format!(
            "hot writes conflict pairwise, yet {} shared a batch",
            b.hot.coalesced_writes
        ));
    }
    if b.disjoint.coalesced_writes == 0 {
        return Err("no disjoint write shared a batch".to_owned());
    }
    // The payoff claim, with slack for scheduler noise on small CI hosts:
    // batching must not *cost* throughput.
    if b.disjoint.writes_per_sec < 0.85 * b.hot.writes_per_sec {
        return Err(format!(
            "disjoint writer throughput regressed: {:.0}/s vs {:.0}/s hot",
            b.disjoint.writes_per_sec, b.hot.writes_per_sec
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
        "conflict-aware write batching: pairwise-independent writers vs writers of one hot atom",
        &[
            "workload",
            "writes/s",
            "write p50 µs",
            "write p95 µs",
            "reads/s",
            "snapshots",
            "batches",
            "coalesced",
        ],
    );
    for side in [&b.hot, &b.disjoint] {
        t.row(vec![
            side.workload.clone(),
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
        "{} writers × {} ms window; speedup {:.2}×; final state matches storage \
         and serial replay: hot {} / {}, disjoint {} / {}",
        b.writers,
        b.window_ms,
        b.speedup,
        b.hot.final_state.matches_storage,
        b.hot.final_state.matches_replay,
        b.disjoint.final_state.matches_storage,
        b.disjoint.final_state.matches_replay
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_conflicts_bench(3, 80);
        assert!(kernel::final_state(&b.hot.final_state, "hot").is_ok());
        assert!(kernel::final_state(&b.disjoint.final_state, "disjoint").is_ok());
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_conflicts_bench(&text).expect("validates");
        assert_eq!(back.writers, 3);
        assert!(back.disjoint.coalesced_writes > 0);
        assert_eq!(back.hot.coalesced_writes, 0);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_conflicts_bench(3, 60);
        let mut bad = b.clone();
        bad.hot.final_state.matches_replay = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("serial replay"));
        let mut bad = b.clone();
        bad.disjoint.final_state.matches_storage = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("reopened storage"));
        let mut bad = b.clone();
        bad.hot.coalesced_writes = 2;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("shared a batch"));
        let mut bad = b.clone();
        bad.disjoint.snapshots_published = bad.disjoint.write_batches + 2;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("snapshots from"));
        let mut bad = b.clone();
        bad.disjoint.writes_per_sec = 0.1 * bad.hot.writes_per_sec;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_conflicts_bench(&text)
            .unwrap_err()
            .contains("regressed"));
        assert!(validate_conflicts_bench("{").is_err());
    }
}

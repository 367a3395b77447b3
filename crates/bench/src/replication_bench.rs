//! The `replication` experiment behind `BENCH_replication.json`: read
//! throughput scaling across WAL-shipping replicas, verdict identity at
//! every sampled LSN, and an exhaustive kill-byte catch-up sweep.
//!
//! Three claims, three sections:
//!
//! 1. **Scaling** — for each level `r`, the bench boots `r` replicas of
//!    one live primary and runs one reader per replica (pin → checks →
//!    unpin) concurrently with a flat-out writer on the primary, for a
//!    fixed window. Aggregate replica read throughput per level is the
//!    scaling curve; `writer_updates > 0` per level is the witness that
//!    replica reads never touch the primary's writer.
//! 2. **Verdict identity** — readers record the probe verdicts of every
//!    distinct replica state they pin, tagged with its LSN. After the
//!    run, each sampled LSN's verdicts are compared against the kernel's
//!    §4 serial replay of the acknowledged statement prefix through that
//!    LSN — the same serialization witness the linearizability tests
//!    use — and the primary ends with the kernel's final-state check.
//!    One mismatch anywhere fails validation.
//! 3. **Catch-up sweep** — a scripted history is re-run on
//!    [`FailpointStorage`] killing the primary at **every** byte
//!    offset; after each kill the torn storage is recovered and a
//!    follower rebuilt from `catchup_from(0)` must denote exactly the
//!    recovered primary's world set. Spliced logs with an LSN gap at
//!    the checkpoint boundary must be *refused*, not absorbed.

use crate::kernel::{self, FinalCheck, Seed, SerialReplay, Tally, Unit, Verdict, Worker};
use crate::report::Table;
use crate::server_bench::{orders_seed, probes, writer_statement};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use winslett_core::wal::{SNAPSHOT_FILE, WAL_FILE};
use winslett_core::{
    apply_op, restore_theory, Catchup, DbError, DbOptions, DurableDatabase, FailpointStorage,
    LogicalDatabase, Settled, Storage, TxnSettle, WalOptions,
};
use winslett_serve::{Client, ClientError, ErrorKindWire, Replica, ReplicaOptions, ServerOptions};

/// Checks issued per pinned replica snapshot before re-pinning.
const CHECKS_PER_PIN: usize = 16;

/// Cap on verified verdict samples (evenly spaced over the distinct
/// sampled LSNs), bounding the ground-truth replay work.
const MAX_VERIFIED_SAMPLES: usize = 32;

/// One replica-count level of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicaLevel {
    /// Concurrent replicas, one reader connection each.
    pub replicas: u64,
    /// Entailment checks answered across all replica readers.
    pub total_reads: u64,
    /// Aggregate replica reads per second.
    pub reads_per_sec: f64,
    /// Per-check latency percentiles, µs.
    pub read_p50_us: f64,
    /// 95th percentile, µs.
    pub read_p95_us: f64,
    /// 99th percentile, µs.
    pub read_p99_us: f64,
    /// Updates the primary's writer committed during the window — must
    /// be > 0: replica reads never touch the primary's writer lock.
    pub writer_updates: u64,
    /// `LagBehind` refusals readers absorbed while their replica caught
    /// up (informational; retries are the protocol).
    pub lag_refusals: u64,
}

/// One verified verdict sample: a replica state pinned at `lsn` whose
/// probe verdicts were compared against the library replay of the
/// acknowledged prefix through `lsn`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VerdictSample {
    /// The LSN the replica snapshot had applied through.
    pub lsn: u64,
    /// Whether every probe's `(possible, certain)` matched the replay.
    pub matches: bool,
}

/// The kill-byte catch-up sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CatchupSweep {
    /// Kill offsets exercised — every byte of the scripted history.
    pub kill_points: u64,
    /// Whether a follower rebuilt via `catchup_from(0)` matched the
    /// recovered primary's world set at every kill point.
    pub all_consistent: bool,
    /// Spliced logs (LSN gap at the checkpoint boundary) refused with
    /// the typed `LsnGap` error instead of being absorbed.
    pub gap_splices_rejected: u64,
}

/// The complete `BENCH_replication.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicationBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"replication"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Measurement window per replica level, milliseconds.
    pub window_ms: u64,
    /// `std::thread::available_parallelism()` on the measuring host; on
    /// 1 the scaling column is a non-collapse check, not a speedup.
    pub host_parallelism: u64,
    /// The sweep, in increasing replica count.
    pub levels: Vec<ReplicaLevel>,
    /// Verified verdict samples, in increasing LSN.
    pub verdict_samples: Vec<VerdictSample>,
    /// Whether every sampled replica state matched the serial prefix.
    pub verdicts_match: bool,
    /// The kernel's final-state check of the primary.
    pub final_state: FinalCheck,
    /// The kill-byte sweep results.
    pub catchup: CatchupSweep,
    /// Free-form observations.
    pub notes: Vec<String>,
}

fn boot_replica(
    primary: std::net::SocketAddr,
) -> (
    winslett_serve::ReplicaHandle,
    std::thread::JoinHandle<()>,
    std::net::SocketAddr,
) {
    let replica = Replica::bind(
        ("127.0.0.1", 0),
        primary,
        DbOptions::default(),
        ReplicaOptions {
            idle_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(10),
            ..ReplicaOptions::default()
        },
    )
    .expect("bench replica bind");
    let addr = replica.local_addr();
    let handle = replica.handle();
    let thread = std::thread::spawn(move || {
        let _ = replica.run();
    });
    (handle, thread, addr)
}

/// One raw sampled replica state: the LSN it had applied through and
/// its probe verdicts.
type RawSample = (u64, Vec<Verdict>);

/// A replica reader: pin at the seed boundary → checks → unpin, timing
/// each check and recording every distinct post-seed state it pinned in
/// `samples`. `LagBehind` refusals count as the tally's refusals.
fn replica_reader(
    addr: SocketAddr,
    seed_writes: u64,
    samples: Arc<Mutex<Vec<RawSample>>>,
) -> Worker {
    let probes = probes();
    Box::new(move |stop| {
        let mut client = Client::connect(addr).expect("reader connect");
        let mut tally = Tally::default();
        let mut last_sampled = 0u64;
        while !stop.load(Ordering::Relaxed) {
            // Pin at the seed boundary: every probe constant is interned
            // once the seed writes (LSNs 0..seed_writes) have applied, so
            // checks never hit a younger snapshot's strict-parse refusal.
            let snap = match client.pin_at(seed_writes - 1) {
                Ok(snap) => snap,
                Err(ClientError::Server(e)) if e.kind == ErrorKindWire::LagBehind => {
                    tally.refusals += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(e) => panic!("replica pin failed: {e}"),
            };
            let mut truths = Vec::new();
            for (i, probe) in probes.iter().cycle().take(CHECKS_PER_PIN).enumerate() {
                let start = Instant::now();
                let t = client.check(probe).expect("replica check");
                tally.latencies_us.push(kernel::micros(start));
                if i < probes.len() {
                    truths.push((t.possible, t.certain));
                }
            }
            client.unpin().expect("unpin");
            // Record each distinct post-seed state once per reader.
            if snap.last_lsn + 1 > seed_writes && snap.last_lsn != last_sampled {
                last_sampled = snap.last_lsn;
                let mut guard = samples.lock().expect("samples lock");
                guard.push((snap.last_lsn, truths));
            }
        }
        tally
    })
}

/// Runs one replica level: `replicas` followers each with one reader,
/// plus a flat-out writer on the primary whose script continues where
/// the previous levels' `acked` statements stopped. Readers append every
/// distinct pinned state to `samples`; the writer's acknowledged units
/// are appended to `acked`.
fn run_level(
    primary: SocketAddr,
    seed_writes: u64,
    replicas: usize,
    window: Duration,
    acked: &mut Vec<Unit>,
    samples: &Arc<Mutex<Vec<RawSample>>>,
) -> ReplicaLevel {
    let fleet: Vec<_> = (0..replicas).map(|_| boot_replica(primary)).collect();
    let readers = fleet
        .iter()
        .map(|(_, _, addr)| replica_reader(*addr, seed_writes, Arc::clone(samples)))
        .collect();
    let writer = kernel::writer(primary, acked.len(), writer_statement);
    let mut w = kernel::closed_loop(window, readers, vec![writer]);
    for (handle, thread, _) in fleet {
        handle.request_shutdown();
        thread.join().expect("replica thread");
    }
    acked.append(&mut w.writes.acked);
    ReplicaLevel {
        replicas: replicas as u64,
        total_reads: w.reads.count(),
        reads_per_sec: w.reads.per_sec(w.elapsed_s),
        read_p50_us: w.reads.p(0.50),
        read_p95_us: w.reads.p(0.95),
        read_p99_us: w.reads.p(0.99),
        writer_updates: w.writes.count(),
        lag_refusals: w.reads.refusals,
    }
}

/// Verifies the sampled replica states against the serial replay of the
/// acknowledged statements, in LSN order.
fn verify_samples(seed: &Seed, acked: &[Unit], raw: Vec<RawSample>) -> Vec<VerdictSample> {
    // Distinct sampled LSNs, evenly subsampled down to the cap.
    let mut lsns: Vec<u64> = raw.iter().map(|(lsn, _)| *lsn).collect();
    lsns.sort_unstable();
    lsns.dedup();
    let step = lsns.len().div_ceil(MAX_VERIFIED_SAMPLES).max(1);

    // One representative sample per chosen LSN (readers that pinned the
    // same LSN saw the same snapshot; any representative will do — a
    // divergence between them would already be a consistency bug the
    // comparison below catches against the replay).
    let probes = probes();
    let mut replay = SerialReplay::new(seed, acked);
    let mut verified = Vec::new();
    for lsn in lsns.into_iter().step_by(step) {
        let Some((_, truths)) = raw.iter().find(|(at, _)| *at == lsn) else {
            continue;
        };
        let matches = kernel::verdicts(replay.through(lsn), &probes) == *truths;
        verified.push(VerdictSample { lsn, matches });
    }
    verified
}

// ----- the kill-byte catch-up sweep -----------------------------------------

/// The scripted history the sweep tears at every byte: declares, a
/// branching insert, a mid-script checkpoint (so kills land on both
/// sides of the boundary), then suffix writes.
fn sweep_script(db: &mut DurableDatabase<FailpointStorage>) -> Result<(), DbError> {
    db.declare_relation("R", 1)?;
    db.declare_relation("S", 1)?;
    db.execute("INSERT R(1) WHERE T")?;
    db.execute("INSERT R(2) | R(3) WHERE T")?;
    db.checkpoint()?;
    db.execute("INSERT S(1) WHERE R(1)")?;
    db.execute("DELETE R(1) WHERE T")?;
    db.execute("MODIFY R(2) TO BE R(4) WHERE T")?;
    Ok(())
}

fn world_set(db: &LogicalDatabase) -> std::collections::BTreeSet<Vec<String>> {
    db.world_names().expect("worlds").into_iter().collect()
}

/// Rebuilds a follower database from a primary's catch-up material,
/// replaying what the settle rule releases.
fn follower_from_catchup(catchup: Catchup) -> LogicalDatabase {
    let (mut db, entries) = match catchup {
        Catchup::Suffix(entries) => (LogicalDatabase::new(), entries),
        Catchup::Snapshot(snap, entries) => {
            let theory = restore_theory(&snap.theory).expect("snapshot restores");
            (
                LogicalDatabase::from_theory(theory, DbOptions::default()),
                entries,
            )
        }
    };
    let mut settle = TxnSettle::default();
    for entry in entries {
        if let Settled::Release(records) = settle.feed(entry) {
            for (_, op) in records {
                apply_op(&mut db, &op).expect("catch-up record replays");
            }
        }
    }
    db
}

/// Drops the leading `drop` records from a serialized WAL, keeping the
/// header — the splice a buggy archiver could produce.
fn strip_head_records(wal: &[u8], drop: usize) -> Vec<u8> {
    let mut out = wal[..8].to_vec(); // "WWAL" + version
    let mut offset = 8usize;
    for _ in 0..drop {
        let len = u32::from_le_bytes(wal[offset..offset + 4].try_into().expect("len"));
        offset += 8 + len as usize;
    }
    out.extend_from_slice(&wal[offset..]);
    out
}

/// Runs the sweep: every kill byte, plus the splice-rejection cases.
pub fn run_catchup_sweep() -> CatchupSweep {
    // Probe run: how many bytes does the full script write?
    let probe = FailpointStorage::unlimited();
    {
        let (mut db, _) =
            DurableDatabase::open(probe.clone(), DbOptions::default(), WalOptions::default())
                .expect("probe open");
        sweep_script(&mut db).expect("probe script");
        db.close().expect("probe close");
    }
    let total_bytes = probe.bytes_written();

    let mut kill_points = 0u64;
    let mut all_consistent = true;
    for kill in 0..=total_bytes {
        kill_points += 1;
        let fp = FailpointStorage::new(kill);
        // Drive the script until the injected crash (or completion, at
        // kill == total_bytes).
        let script_result =
            DurableDatabase::open(fp.clone(), DbOptions::default(), WalOptions::default()).map(
                |(mut db, _)| {
                    let r = sweep_script(&mut db);
                    if r.is_ok() {
                        let _ = db.close();
                    }
                    r
                },
            );
        let _ = script_result; // errors are the point
                               // Recover the torn storage, then prove a follower catching up
                               // from 0 lands on exactly the recovered primary's worlds.
        let survivor = fp.survivor();
        let (mut recovered, _report) =
            DurableDatabase::open(survivor, DbOptions::default(), WalOptions::default())
                .expect("recovery tolerates every torn tail");
        // The recovered log tail is released to catch-up once synced.
        recovered.sync().expect("sync after recovery");
        let catchup = recovered.catchup_from(0).expect("catch-up after recovery");
        let follower = follower_from_catchup(catchup);
        if world_set(&follower) != world_set(recovered.db()) {
            all_consistent = false;
        }
    }

    // Splice rejection: an LSN gap at the checkpoint boundary must be a
    // typed refusal, in both recovery and the catch-up API.
    let mut gap_splices_rejected = 0u64;
    let full = FailpointStorage::unlimited();
    {
        let (mut db, _) =
            DurableDatabase::open(full.clone(), DbOptions::default(), WalOptions::default())
                .expect("splice open");
        sweep_script(&mut db).expect("splice script");
        db.close().expect("splice close");
    }
    let mut spliced = full.survivor();
    let wal = spliced
        .read(WAL_FILE)
        .expect("wal readable")
        .expect("wal exists");
    let snapshot_present = spliced
        .read(SNAPSHOT_FILE)
        .expect("snapshot readable")
        .is_some();
    assert!(
        snapshot_present,
        "the mid-script checkpoint wrote a snapshot"
    );
    // The mid-script checkpoint truncated the log, so the WAL holds only
    // the suffix (LSNs 4..=6); dropping its first record leaves a gap at
    // the checkpoint boundary the recovery check must refuse.
    spliced
        .replace(WAL_FILE, &strip_head_records(&wal, 1))
        .expect("splice replace");
    match DurableDatabase::open(spliced, DbOptions::default(), WalOptions::default()) {
        Err(DbError::LsnGap { .. }) => gap_splices_rejected += 1,
        other => panic!("spliced log must be a typed LsnGap refusal, got {other:?}"),
    }
    // A future cursor (subscriber claiming records the primary never
    // wrote) is the same typed refusal through the catch-up API.
    let (intact, _) =
        DurableDatabase::open(full.survivor(), DbOptions::default(), WalOptions::default())
            .expect("intact reopen");
    match intact.catchup_from(intact.next_lsn() + 1) {
        Err(DbError::LsnGap { .. }) => gap_splices_rejected += 1,
        other => panic!("future cursor must be a typed LsnGap refusal, got {other:?}"),
    }

    CatchupSweep {
        kill_points,
        all_consistent,
        gap_splices_rejected,
    }
}

/// Runs the full experiment and assembles `BENCH_replication.json`.
pub fn run_replication_bench(replica_levels: &[usize], window_ms: u64) -> ReplicationBench {
    let catchup = run_catchup_sweep();

    let seed = orders_seed();
    let served = kernel::boot(ServerOptions::default(), &seed);
    let mut setup = Client::connect(served.addr).expect("setup connect");
    let window = Duration::from_millis(window_ms);
    let samples = Arc::new(Mutex::new(Vec::new()));
    let mut acked: Vec<Unit> = Vec::new();
    let mut levels: Vec<ReplicaLevel> = Vec::new();
    for &r in replica_levels {
        // Checkpoint between levels so each level's fresh replicas
        // bootstrap from the checkpoint-plus-suffix path instead of
        // replaying every prior level's full write history.
        setup.checkpoint().expect("checkpoint between levels");
        levels.push(run_level(
            served.addr,
            seed.writes(),
            r,
            window,
            &mut acked,
            &samples,
        ));
    }
    drop(setup);
    let final_state = kernel::finish(served, &seed, &acked, &probes()).check;

    let raw = std::mem::take(&mut *samples.lock().expect("samples"));
    let verdict_samples = verify_samples(&seed, &acked, raw);
    let verdicts_match = !verdict_samples.is_empty() && verdict_samples.iter().all(|s| s.matches);

    let notes = vec![
        format!(
            "Each level boots that many replicas of one primary; one reader per \
             replica loops pin_at → {CHECKS_PER_PIN} checks → unpin while one \
             writer commits flat-out on the primary."
        ),
        "Every sampled replica state is verified against the §4 serial \
         replay of the acknowledged statement prefix through its LSN — \
         replicas only ever expose serial prefixes."
            .to_owned(),
        "The catch-up sweep kills a FailpointStorage primary at every byte \
         of a scripted history; after recovery a follower rebuilt from \
         catchup_from(0) must match the primary's world set exactly."
            .to_owned(),
        "On host_parallelism 1 the levels time-share one core, so judge \
         scaling by non-collapse of aggregate throughput, not speedup."
            .to_owned(),
    ];
    ReplicationBench {
        version: 2,
        experiment: "replication".to_owned(),
        workload: format!(
            "{} replica levels × {window_ms} ms against one winslett-serve \
             primary (MemStorage, one sync per writer pass); kill-byte catch-up sweep",
            replica_levels.len()
        ),
        window_ms,
        host_parallelism: kernel::host_parallelism(),
        levels,
        verdict_samples,
        verdicts_match,
        final_state,
        catchup,
        notes,
    }
}

/// Shape-validates `BENCH_replication.json` text by re-parsing it into
/// [`ReplicationBench`] and checking the cross-field invariants.
pub fn validate_replication_bench(text: &str) -> Result<ReplicationBench, String> {
    let b: ReplicationBench = kernel::parse(text, "replication", 2)?;
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    let rates = b.levels.iter().map(|l| (l.replicas, l.reads_per_sec));
    kernel::non_collapse(rates, "replica")?;
    for level in &b.levels {
        let at = format!("level {}", level.replicas);
        let reads = [level.read_p50_us, level.read_p95_us, level.read_p99_us];
        if level.total_reads == 0 {
            return Err(format!("{at} served no reads"));
        }
        kernel::positive(level.reads_per_sec, &format!("{at} reads_per_sec"))?;
        kernel::ordered(&reads, &format!("{at} read"))?;
        if level.writer_updates == 0 {
            return Err(format!(
                "{at} starved the primary's writer — replica reads must \
                 never touch the writer lock"
            ));
        }
    }
    if b.verdict_samples.is_empty() {
        return Err("no verdict samples recorded — nothing proved identity".to_owned());
    }
    if let Some(bad) = b.verdict_samples.iter().find(|s| !s.matches) {
        return Err(format!(
            "replica verdicts diverged from the serial prefix at lsn {}",
            bad.lsn
        ));
    }
    if !b.verdicts_match {
        return Err("verdicts_match is false".to_owned());
    }
    kernel::final_state(&b.final_state, "primary")?;
    if b.catchup.kill_points == 0 {
        return Err("catch-up sweep exercised no kill points".to_owned());
    }
    if !b.catchup.all_consistent {
        return Err("a follower diverged from the recovered primary after a kill".to_owned());
    }
    if b.catchup.gap_splices_rejected < 2 {
        return Err(format!(
            "expected both splice-rejection cases, saw {}",
            b.catchup.gap_splices_rejected
        ));
    }
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn replication_table(b: &ReplicationBench) -> Table {
    let mut t = Table::new(
        "REPLICATION",
        "WAL-shipping replicas: aggregate read throughput vs replica count under a live writer",
        &[
            "replicas",
            "reads/s",
            "read p50 µs",
            "read p95 µs",
            "read p99 µs",
            "writer upd",
            "lag refusals",
        ],
    );
    for level in &b.levels {
        t.row(vec![
            level.replicas.to_string(),
            format!("{:.0}", level.reads_per_sec),
            format!("{:.1}", level.read_p50_us),
            format!("{:.1}", level.read_p95_us),
            format!("{:.1}", level.read_p99_us),
            level.writer_updates.to_string(),
            level.lag_refusals.to_string(),
        ]);
    }
    t.note(format!(
        "{} ms window per level; {} verdict samples all match the serial \
         prefix: {}; catch-up sweep: {} kill points, all consistent: {}, \
         gap splices rejected: {}",
        b.window_ms,
        b.verdict_samples.len(),
        b.verdicts_match,
        b.catchup.kill_points,
        b.catchup.all_consistent,
        b.catchup.gap_splices_rejected
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catchup_sweep_is_consistent_at_every_kill_byte() {
        let sweep = run_catchup_sweep();
        assert!(sweep.kill_points > 100, "the script writes real bytes");
        assert!(sweep.all_consistent);
        assert_eq!(sweep.gap_splices_rejected, 2);
    }

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_replication_bench(&[1, 2], 150);
        assert!(b.verdicts_match, "sampled verdicts match the replay");
        assert_eq!(b.levels.len(), 2);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_replication_bench(&text).expect("validates");
        assert_eq!(back.levels[0].replicas, 1);
        assert!(back.levels.iter().all(|l| l.writer_updates > 0));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_replication_bench(&[1], 100);
        let mut bad = b.clone();
        bad.verdict_samples[0].matches = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_replication_bench(&text)
            .unwrap_err()
            .contains("diverged"));
        let mut bad = b.clone();
        bad.catchup.all_consistent = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_replication_bench(&text)
            .unwrap_err()
            .contains("follower diverged"));
        let mut bad = b.clone();
        bad.final_state.matches_replay = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_replication_bench(&text)
            .unwrap_err()
            .contains("serial replay"));
        let mut bad = b.clone();
        bad.levels[0].writer_updates = 0;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_replication_bench(&text)
            .unwrap_err()
            .contains("starved"));
        assert!(validate_replication_bench("{").is_err());
    }
}

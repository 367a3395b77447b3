//! The `txn` experiment behind `BENCH_txn.json` (E17): what do
//! multi-statement transactions cost, and what does footprint-granular
//! locking buy?
//!
//! Three identical `winslett-serve` instances run the same statement
//! budget in three shapes:
//!
//! * **plain** — the PR-6 baseline: `w` writers issue single-statement
//!   writes with conflict-aware batching on (`batch_writes`), one ack
//!   per statement.
//! * **disjoint** — the same writers group statements into transactions
//!   of `TXN_LEN` over *private* atom pools. Footprints are pairwise
//!   disjoint (Theorem 4: the updates commute), so the lock table admits
//!   every transaction concurrently: no waits, no timeouts, and one
//!   snapshot publication per *commit* instead of per statement.
//! * **contended** — the adversarial shape: every writer's transactions
//!   fight over one shared pool, with per-writer phase offsets that
//!   manufacture lock-order cycles. The lock table serializes what it
//!   can and breaks cycles with deadlock-avoidance timeouts; timed-out
//!   transactions abort and retry as fresh transactions.
//!
//! After the timed window a deterministic reconciliation drives all
//! three databases to the same intended state; the bench then checks
//! verdict identity per side against its reopened post-shutdown storage
//! (recovery = §4 replay, transaction markers honored) and across
//! sides. The headline claim gated by `make txn-smoke`: disjoint
//! transactional throughput sustains the plain batched baseline.

use crate::report::{percentile, Table};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use winslett_core::{DbOptions, DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett_serve::{Client, ClientError, ErrorKindWire, Server, ServerOptions};

/// Statements per transaction in the transactional shapes.
const TXN_LEN: usize = 8;

/// Atoms in each pool (private per writer for `disjoint`, one shared
/// pool for `contended`).
const POOL: usize = 4;

/// Inert facts seeded up front so snapshot publication — the per-commit
/// cost transactions amortize — operates on a realistically sized theory.
const FILLER: usize = 256;

/// Lock-wait deadline. Short enough that the contended shape's
/// manufactured deadlock cycles resolve many times per window.
const LOCK_TIMEOUT: Duration = Duration::from_millis(50);

/// One workload shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Plain,
    Disjoint,
    Contended,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Disjoint => "disjoint",
            Mode::Contended => "contended",
        }
    }
}

/// One side of the three-way comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnSide {
    /// `"plain"`, `"disjoint"`, or `"contended"`.
    pub mode: String,
    /// Transactions committed in the window (for `plain`, each
    /// acknowledged statement counts as a one-statement unit).
    pub committed_txns: u64,
    /// Transactions aborted by a lock-wait timeout in the window.
    pub aborted_txns: u64,
    /// Statements that landed via committed transactions.
    pub statements: u64,
    /// Committed statements per second — the cross-mode throughput axis.
    pub statements_per_sec: f64,
    /// Latency percentiles per acknowledged unit, µs (a statement for
    /// `plain`, a whole begin→commit transaction otherwise).
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// Lock-table waits observed by the server over the run.
    pub lock_waits: u64,
    /// Lock waits that hit the deadlock-avoidance deadline.
    pub lock_timeouts: u64,
    /// Plain writes refused because a transaction held their footprint.
    pub txn_conflicts: u64,
    /// Whether the server's final pinned verdicts equal direct library
    /// calls on the reopened storage (WAL recovery = §4 replay).
    pub replay_matches: bool,
}

/// The complete `BENCH_txn.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"txn"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Measurement window per side, milliseconds.
    pub window_ms: u64,
    /// Concurrent writer connections per side.
    pub writers: u64,
    /// Statements per transaction in the transactional shapes.
    pub txn_len: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: u64,
    /// The single-statement batched baseline.
    pub plain: TxnSide,
    /// Disjoint-footprint concurrent transactions.
    pub disjoint: TxnSide,
    /// Deliberately colliding transactions.
    pub contended: TxnSide,
    /// Whether all three sides' post-reconciliation verdicts agree.
    pub verdicts_match: bool,
    /// `disjoint.statements_per_sec / plain.statements_per_sec` — the
    /// headline "transactions sustain the batching baseline" ratio.
    pub relative_throughput: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The probe checklist after reconciliation: one atom per private pool,
/// one shared atom, and the seeded branch (kept uncertain so checks do
/// real SAT work).
fn probes(writers: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..writers).map(|w| format!("Pool({w},0)")).collect();
    v.push("Shared(0)".to_owned());
    v.push("Branch(1)".to_owned());
    v.push("Branch(2)".to_owned());
    v
}

/// Statement `i` of writer `w` under `mode`: toggling membership over
/// the writer's private pool, or over the one shared pool with a
/// per-writer phase offset (which manufactures lock-order cycles).
fn statement(mode: Mode, w: usize, i: usize) -> String {
    let insert = if (i / POOL).is_multiple_of(2) {
        "INSERT"
    } else {
        "DELETE"
    };
    match mode {
        Mode::Contended => {
            let k = (w + i) % POOL;
            format!("{insert} Shared({k}) WHERE T")
        }
        _ => {
            let k = i % POOL;
            format!("{insert} Pool({w},{k}) WHERE T")
        }
    }
}

/// Runs one shape on a fresh server; returns the side result and its
/// final probe verdicts for the cross-side identity check.
fn run_side(mode: Mode, writers: usize, window: Duration) -> (TxnSide, Vec<(bool, bool)>) {
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
            // All three shapes keep the write batcher on so the plain
            // side *is* the batching baseline and the transactional
            // sides differ only in how statements are grouped.
            batch_writes: true,
            compaction: None,
            lock_timeout: LOCK_TIMEOUT,
        },
    )
    .expect("bench server bind");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let mut setup = Client::connect(addr).expect("setup connect");
    setup.declare_relation("Pool", 2).expect("declare Pool");
    setup.declare_relation("Shared", 1).expect("declare Shared");
    setup.declare_relation("Branch", 1).expect("declare Branch");
    setup.declare_relation("Filler", 1).expect("declare Filler");
    for i in 0..FILLER {
        setup
            .load_fact("Filler", &[&(1000 + i).to_string()])
            .expect("seed filler fact");
    }
    for w in 0..writers {
        for k in 0..POOL {
            setup
                .load_fact("Pool", &[&w.to_string(), &k.to_string()])
                .expect("seed pool fact");
        }
    }
    for k in 0..POOL {
        setup
            .load_fact("Shared", &[&k.to_string()])
            .expect("seed shared fact");
    }
    setup
        .execute("INSERT Branch(1) | Branch(2) WHERE T")
        .expect("seed branch");

    let stop = Arc::new(AtomicBool::new(false));
    let mut writer_handles = Vec::new();
    for w in 0..writers {
        let stop = Arc::clone(&stop);
        writer_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut latencies_us: Vec<f64> = Vec::new();
            let mut committed = 0u64;
            let mut aborted = 0u64;
            let mut statements = 0u64;
            let mut i = w; // contended phase offset; harmless elsewhere
            while !stop.load(Ordering::Relaxed) {
                if mode == Mode::Plain {
                    let start = Instant::now();
                    client.execute(&statement(mode, w, i)).expect("bench write");
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                    committed += 1;
                    statements += 1;
                    i += 1;
                    continue;
                }
                // One whole transaction per iteration; a lock-wait
                // timeout aborts it server-side and the writer simply
                // starts the next transaction.
                let start = Instant::now();
                client.begin().expect("begin");
                let mut alive = true;
                for _ in 0..TXN_LEN {
                    match client.execute(&statement(mode, w, i)) {
                        Ok(_) => i += 1,
                        Err(ClientError::Server(e)) if e.kind == ErrorKindWire::TxnTimeout => {
                            alive = false;
                            aborted += 1;
                            break;
                        }
                        Err(e) => panic!("txn statement failed: {e}"),
                    }
                }
                if alive {
                    client.commit().expect("commit");
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                    committed += 1;
                    statements += TXN_LEN as u64;
                }
            }
            (latencies_us, committed, aborted, statements)
        }));
    }

    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<f64> = Vec::new();
    let (mut committed, mut aborted, mut statements) = (0u64, 0u64, 0u64);
    for h in writer_handles {
        let (l, c, a, s) = h.join().expect("writer thread");
        latencies.extend(l);
        committed += c;
        aborted += a;
        statements += s;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Reconciliation: writers stopped at arbitrary toggle phases; drive
    // every atom to a fixed final state so the three sides end at the
    // same intended theory.
    for w in 0..writers {
        for k in 0..POOL {
            setup
                .execute(&format!("INSERT Pool({w},{k}) WHERE T"))
                .expect("reconcile pool");
        }
    }
    for k in 0..POOL {
        setup
            .execute(&format!("INSERT Shared({k}) WHERE T"))
            .expect("reconcile shared");
    }

    let probe_list = probes(writers);
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
    assert_eq!(stats.txn_active, 0, "bench left a transaction open");

    setup.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("server run");

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

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let side = TxnSide {
        mode: mode.name().to_owned(),
        committed_txns: committed,
        aborted_txns: aborted,
        statements,
        statements_per_sec: statements as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        lock_waits: stats.lock_waits,
        lock_timeouts: stats.lock_timeouts,
        txn_conflicts: stats.txn_conflicts,
        replay_matches: server_verdicts == direct_verdicts,
    };
    (side, server_verdicts)
}

/// Runs all three shapes and assembles the `BENCH_txn.json` document.
pub fn run_txn_bench(writers: usize, window_ms: u64) -> TxnBench {
    let window = Duration::from_millis(window_ms);
    let (plain, v_plain) = run_side(Mode::Plain, writers, window);
    let (disjoint, v_disjoint) = run_side(Mode::Disjoint, writers, window);
    let (contended, v_contended) = run_side(Mode::Contended, writers, window);
    let verdicts_match = v_plain == v_disjoint && v_disjoint == v_contended;
    let relative_throughput = if plain.statements_per_sec > 0.0 {
        disjoint.statements_per_sec / plain.statements_per_sec
    } else {
        0.0
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let notes = vec![
        format!(
            "{writers} writers; transactional shapes group {TXN_LEN} statements per \
             begin→commit. disjoint: private Pool(w, 0..{POOL}) footprints, admitted \
             concurrently by the lock table. contended: one Shared(0..{POOL}) pool with \
             per-writer phase offsets, so lock-order cycles form and the \
             {}-ms deadline breaks them.",
            LOCK_TIMEOUT.as_millis()
        ),
        "statements_per_sec counts only statements that landed via committed \
         units, so the contended column pays for its aborts."
            .to_owned(),
        "A transaction publishes one snapshot per commit instead of one per \
         statement — the same amortization the PR-6 batching leader buys for \
         plain writes, which is why disjoint transactions sustain that baseline."
            .to_owned(),
        "replay_matches compares each server's final pinned snapshot against \
         direct library calls on its reopened storage: recovery honors \
         commit/abort markers, so no aborted transaction may resurface."
            .to_owned(),
    ];
    TxnBench {
        version: 1,
        experiment: "txn".to_owned(),
        workload: format!(
            "{writers} writers × {window_ms} ms per shape against winslett-serve \
             (MemStorage, group commit 8, batch_writes on, lock timeout \
             {} ms): plain statements vs {TXN_LEN}-statement transactions over \
             disjoint vs contended footprints",
            LOCK_TIMEOUT.as_millis()
        ),
        window_ms,
        writers: writers as u64,
        txn_len: TXN_LEN as u64,
        host_parallelism,
        plain,
        disjoint,
        contended,
        verdicts_match,
        relative_throughput,
        notes,
    }
}

/// Shape-validates `BENCH_txn.json` text by re-parsing it into
/// [`TxnBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make txn-smoke` fails on `Err`.
pub fn validate_txn_bench(text: &str) -> Result<TxnBench, String> {
    let b: TxnBench =
        serde_json::from_str(text).map_err(|e| format!("BENCH_txn.json does not parse: {e}"))?;
    if b.version != 1 {
        return Err(format!("unknown version {}", b.version));
    }
    if b.experiment != "txn" {
        return Err(format!(
            "experiment is {:?}, expected \"txn\"",
            b.experiment
        ));
    }
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    if b.writers == 0 || b.txn_len == 0 {
        return Err("writers/txn_len not recorded".to_owned());
    }
    for (side, name) in [
        (&b.plain, "plain"),
        (&b.disjoint, "disjoint"),
        (&b.contended, "contended"),
    ] {
        if side.mode != name {
            return Err(format!("side {name} is labeled {:?}", side.mode));
        }
        if side.committed_txns == 0 || side.statements == 0 {
            return Err(format!("{name}: nothing committed"));
        }
        if !(side.statements_per_sec.is_finite() && side.statements_per_sec > 0.0) {
            return Err(format!("{name}: statements_per_sec is not positive finite"));
        }
        if !(side.p50_us > 0.0 && side.p95_us >= side.p50_us) {
            return Err(format!(
                "{name}: latency percentiles are not ordered positive"
            ));
        }
        if !side.replay_matches {
            return Err(format!(
                "{name}: server snapshot verdicts differ from the reopened \
                 storage — transactional replay identity broken"
            ));
        }
    }
    // Disjoint footprints are Theorem-4 commutative: the lock table must
    // admit them all without a single deadline abort.
    if b.disjoint.aborted_txns != 0 || b.disjoint.lock_timeouts != 0 {
        return Err(format!(
            "disjoint transactions hit the lock table: {} aborts, {} timeouts",
            b.disjoint.aborted_txns, b.disjoint.lock_timeouts
        ));
    }
    // The contended shape exists to exercise the conflict machinery;
    // a run where nothing ever waited, timed out, or aborted measured
    // nothing.
    if b.contended.lock_waits + b.contended.lock_timeouts + b.contended.aborted_txns == 0 {
        return Err("contended side recorded no lock contention at all".to_owned());
    }
    if !b.verdicts_match {
        return Err("final verdicts differ across the three shapes".to_owned());
    }
    // The headline claim: grouping disjoint statements into transactions
    // sustains the plain batched-write baseline (slack for scheduler
    // noise on small CI hosts).
    if b.disjoint.statements_per_sec < 0.9 * b.plain.statements_per_sec {
        return Err(format!(
            "disjoint transactional throughput fell below the batching \
             baseline: {:.0} st/s vs {:.0} st/s plain",
            b.disjoint.statements_per_sec, b.plain.statements_per_sec
        ));
    }
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn txn_table(b: &TxnBench) -> Table {
    let mut t = Table::new(
        "TXN",
        "multi-statement transactions: plain batched writes vs disjoint vs contended txns",
        &[
            "mode",
            "committed",
            "aborted",
            "stmts/s",
            "p50 µs",
            "p95 µs",
            "waits",
            "timeouts",
        ],
    );
    for side in [&b.plain, &b.disjoint, &b.contended] {
        t.row(vec![
            side.mode.clone(),
            side.committed_txns.to_string(),
            side.aborted_txns.to_string(),
            format!("{:.0}", side.statements_per_sec),
            format!("{:.1}", side.p50_us),
            format!("{:.1}", side.p95_us),
            side.lock_waits.to_string(),
            side.lock_timeouts.to_string(),
        ]);
    }
    t.note(format!(
        "{} writers × {} ms per shape, {} statements per txn; disjoint/plain \
         throughput ratio {:.2}×; verdicts identical across shapes: {}",
        b.writers, b.window_ms, b.txn_len, b.relative_throughput, b.verdicts_match
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
        // The throughput gate compares two 100 ms timed windows, which
        // can flake when the whole workspace's test binaries share the
        // host; one retry keeps the correctness checks strict without
        // making the test load-sensitive.
        let mut last_err = String::new();
        for _ in 0..2 {
            let b = run_txn_bench(3, 100);
            assert!(b.verdicts_match);
            assert!(
                b.plain.replay_matches && b.disjoint.replay_matches && b.contended.replay_matches
            );
            let text = serde_json::to_string_pretty(&b).expect("serializes");
            match validate_txn_bench(&text) {
                Ok(back) => {
                    assert_eq!(back.writers, 3);
                    assert_eq!(back.txn_len, TXN_LEN as u64);
                    return;
                }
                Err(e) => last_err = e,
            }
        }
        panic!("validates (after retry): {last_err}");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_txn_bench(3, 80);
        let mut bad = b.clone();
        bad.verdicts_match = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text).unwrap_err().contains("differ"));
        let mut bad = b.clone();
        bad.disjoint.replay_matches = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text)
            .unwrap_err()
            .contains("replay identity"));
        let mut bad = b.clone();
        bad.disjoint.aborted_txns = 7;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text)
            .unwrap_err()
            .contains("hit the lock table"));
        let mut bad = b.clone();
        bad.disjoint.statements_per_sec = 0.1 * bad.plain.statements_per_sec;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text)
            .unwrap_err()
            .contains("fell below"));
        assert!(validate_txn_bench("{").is_err());
    }
}

//! The `txn` experiment behind `BENCH_txn.json` (E17): what do
//! multi-statement transactions cost, and what does footprint-granular
//! locking buy?
//!
//! Three identical `winslett-serve` instances run the same statement
//! budget in three shapes:
//!
//! * **plain** — the baseline: `w` writers issue single-statement writes
//!   through the conflict-aware write batcher, one ack per statement.
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
//! Each side ends with the kernel's final-state check: the server's final
//! pinned verdicts must equal its reopened post-shutdown storage's
//! (recovery honors commit/abort markers) and those of the §4 serial
//! replay of the committed units in commit-LSN order. The headline claim
//! gated by `make txn-smoke`: disjoint transactional throughput sustains
//! the plain batched baseline.

use crate::conflicts_bench::{pool_probes, pool_seed, toggle, POOL};
use crate::kernel::{self, FinalCheck, Tally, Worker};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use winslett_serve::{Client, ClientError, ErrorKindWire, ServerOptions};

/// Statements per transaction in the transactional shapes.
const TXN_LEN: usize = 8;

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
    /// The kernel's final-state check of this side's server.
    pub final_state: FinalCheck,
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
    /// `disjoint.statements_per_sec / plain.statements_per_sec` — the
    /// headline "transactions sustain the batching baseline" ratio.
    pub relative_throughput: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// Statement `i` of writer `w` under `mode`: toggling membership over
/// the writer's private pool, or over the one shared pool with a
/// per-writer phase offset (which manufactures lock-order cycles).
fn statement(mode: Mode, w: usize, i: usize) -> String {
    match mode {
        Mode::Contended => format!("{} Shared({}) WHERE T", toggle(i), (w + i) % POOL),
        _ => format!("{} Pool({w},{}) WHERE T", toggle(i), i % POOL),
    }
}

/// Writer `w` under `mode`: plain statements through the kernel's
/// writer, or whole transactions of `TXN_LEN` statements, each timed
/// begin → commit and acknowledged at its commit LSN. A lock-wait
/// timeout aborts the transaction server-side; the writer counts it and
/// starts the next one.
fn txn_writer(addr: SocketAddr, mode: Mode, w: usize) -> Worker {
    // The phase offset `w` manufactures the contended shape's lock-order
    // cycles; it is harmless elsewhere.
    if mode == Mode::Plain {
        return kernel::writer(addr, w, move |i| statement(mode, w, i));
    }
    Box::new(move |stop| {
        let mut client = Client::connect(addr).expect("writer connect");
        let mut tally = Tally::default();
        let mut i = w;
        while !stop.load(Ordering::Relaxed) {
            let start = Instant::now();
            client.begin().expect("begin");
            let mut statements = Vec::with_capacity(TXN_LEN);
            while statements.len() < TXN_LEN {
                let src = statement(mode, w, i);
                match client.execute(&src) {
                    Ok(_) => {
                        statements.push(src);
                        i += 1;
                    }
                    Err(ClientError::Server(e)) if e.kind == ErrorKindWire::TxnTimeout => break,
                    Err(e) => panic!("txn statement failed: {e}"),
                }
            }
            if statements.len() < TXN_LEN {
                tally.refusals += 1;
                continue;
            }
            let commit = client.commit().expect("commit");
            tally.latencies_us.push(kernel::micros(start));
            tally.acked.push((commit.lsn, statements));
        }
        tally
    })
}

/// Runs one shape on a fresh server.
fn run_side(mode: Mode, writers: usize, window: Duration) -> TxnSide {
    let seed = pool_seed(writers, "Shared", POOL);
    let options = ServerOptions {
        compaction: None,
        lock_timeout: LOCK_TIMEOUT,
        ..ServerOptions::default()
    };
    let served = kernel::boot(options, &seed);
    let addr = served.addr;
    let w = kernel::closed_loop(
        window,
        Vec::new(),
        (0..writers).map(|w| txn_writer(addr, mode, w)).collect(),
    );
    let probes = pool_probes(writers, "Shared");
    let finished = kernel::finish(served, &seed, &w.writes.acked, &probes);
    assert_eq!(
        finished.stats.txn_active, 0,
        "bench left a transaction open"
    );
    let statements: u64 = w.writes.acked.iter().map(|(_, s)| s.len() as u64).sum();
    TxnSide {
        mode: mode.name().to_owned(),
        committed_txns: w.writes.count(),
        aborted_txns: w.writes.refusals,
        statements,
        statements_per_sec: statements as f64 / w.elapsed_s,
        p50_us: w.writes.p(0.50),
        p95_us: w.writes.p(0.95),
        lock_waits: finished.stats.lock_waits,
        lock_timeouts: finished.stats.lock_timeouts,
        txn_conflicts: finished.stats.txn_conflicts,
        final_state: finished.check,
    }
}

/// Runs all three shapes and assembles the `BENCH_txn.json` document.
pub fn run_txn_bench(writers: usize, window_ms: u64) -> TxnBench {
    let window = Duration::from_millis(window_ms);
    let plain = run_side(Mode::Plain, writers, window);
    let disjoint = run_side(Mode::Disjoint, writers, window);
    let contended = run_side(Mode::Contended, writers, window);
    let relative_throughput = if plain.statements_per_sec > 0.0 {
        disjoint.statements_per_sec / plain.statements_per_sec
    } else {
        0.0
    };
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
         statement — the same amortization the write batcher buys for plain \
         writes, which is why disjoint transactions sustain that baseline."
            .to_owned(),
        "final_state compares each server's final pinned snapshot against \
         direct library calls on its reopened storage (recovery honors \
         commit/abort markers, so no aborted transaction may resurface) and \
         against the §4 serial replay of the committed units in commit-LSN \
         order."
            .to_owned(),
    ];
    TxnBench {
        version: 2,
        experiment: "txn".to_owned(),
        workload: format!(
            "{writers} writers × {window_ms} ms per shape against winslett-serve \
             (MemStorage, one sync per writer pass, lock timeout \
             {} ms): plain statements vs {TXN_LEN}-statement transactions over \
             disjoint vs contended footprints",
            LOCK_TIMEOUT.as_millis()
        ),
        window_ms,
        writers: writers as u64,
        txn_len: TXN_LEN as u64,
        host_parallelism: kernel::host_parallelism(),
        plain,
        disjoint,
        contended,
        relative_throughput,
        notes,
    }
}

/// Shape-validates `BENCH_txn.json` text by re-parsing it into
/// [`TxnBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make txn-smoke` fails on `Err`.
pub fn validate_txn_bench(text: &str) -> Result<TxnBench, String> {
    let b: TxnBench = kernel::parse(text, "txn", 2)?;
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
        kernel::positive(
            side.statements_per_sec,
            &format!("{name}: statements_per_sec"),
        )?;
        kernel::ordered(&[side.p50_us, side.p95_us], &format!("{name}: latency"))?;
        kernel::final_state(&side.final_state, name)?;
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
    let checked = [&b.plain, &b.disjoint, &b.contended]
        .iter()
        .all(|s| s.final_state.matches_storage && s.final_state.matches_replay);
    t.note(format!(
        "{} writers × {} ms per shape, {} statements per txn; disjoint/plain \
         throughput ratio {:.2}×; every final state matches storage and serial \
         replay: {checked}",
        b.writers, b.window_ms, b.txn_len, b.relative_throughput
    ));
    t.notes.extend(b.notes.iter().cloned());
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
            for side in [&b.plain, &b.disjoint, &b.contended] {
                assert!(kernel::final_state(&side.final_state, &side.mode).is_ok());
            }
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
        bad.contended.final_state.matches_storage = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text).unwrap_err().contains("differ"));
        let mut bad = b.clone();
        bad.disjoint.final_state.matches_replay = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_txn_bench(&text)
            .unwrap_err()
            .contains("serial replay"));
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

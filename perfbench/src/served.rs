//! The two served shapes. Each round boots a fresh `winslett-serve`
//! instance set up as the binary deploys it — epoll reactor, write
//! batching, directory storage with an fsync per record (WAL options of
//! [`crate::replay::wal_options`]) — loads the seed theory over the wire,
//! runs a fixed amount of closed-loop client work with one checkpoint at a
//! fixed point, checks every answer and the final state against the §4
//! oracle, shuts the server down, and recovers its storage.
//!
//! The traffic follows the repository's recorded experiments:
//! `served_read` is the one-reader level of `BENCH_server.json` (pin,
//! 16 reads, unpin; one write for every 8 reads), and `served_write` has
//! the four writers and 8-statement transactions of `BENCH_txn.json`, with
//! its three shapes — plain statements, transactions over private pools,
//! transactions over one shared pool — in equal statement shares.

use crate::gen::{
    contended_txns, mix, read_probes, seed_theory, state_probes, state_reads, writer_script, Probe,
    Rng, SeedTheory, Unit,
};
use crate::replay::{
    answers, load_seed, micros, oracle, rows, trace_reads, verdicts, wal_options, Answer, Scratch,
};
use crate::Tally;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use winslett_core::{DbError, DbOptions, DirStorage};
use winslett_serve::{Client, ClientError, Server, ServerOptions, StatsReply};

/// Closed-loop reader connections in `served_read`. One keeps the
/// client, the reactor and a solver worker within two CPUs.
const READERS: usize = 1;
/// Reads each reader issues per round.
const READS_PER_READER: usize = 2304;
/// Reads per pinned snapshot before the reader re-pins.
const READS_PER_PIN: usize = 16;
/// Reads per trickled write (9 089 reads to 1 188 writes in
/// `BENCH_server.json`). The writes are paced by the reader's progress,
/// not by time, so their count is fixed.
const READS_PER_WRITE: usize = 8;
/// Pools the trickle spreads over (see `ingest` for why many short
/// scripts).
const TRICKLE_POOLS: usize = 12;
/// Closed-loop writer connections in `served_write`.
const WRITERS: usize = 4;
/// Private pools per writer.
const POOLS_PER_WRITER: usize = 4;
/// Per private pool: single statements and 8-statement transactions.
const SINGLES: usize = 8;
const TXNS: usize = 1;
/// Shared-pool transactions per writer.
const CONTENDED: usize = 4;
/// Idle round trips timed per traced round (the bare wire layer).
const PINGS: usize = 64;

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    op_us: Vec<f64>,
    /// Each acknowledged write unit: the LSN it landed at (a statement's
    /// record, a transaction's commit marker) and its statements.
    acked: Vec<(u64, Vec<String>)>,
    /// Requests the server refused or the transport lost.
    errors: Vec<String>,
    /// Answers that differ from the oracle's.
    wrong: Vec<String>,
}

struct Running {
    addr: SocketAddr,
    admin: Client,
    server: JoinHandle<Result<DirStorage, DbError>>,
    /// Server counters when the measured phase starts.
    before: StatsReply,
    _dir: Scratch,
}

/// Boots a server and loads the seed theory through the wire: the
/// round's set-up.
fn boot(seed: &SeedTheory, options: ServerOptions) -> Running {
    let dir = Scratch::new();
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        dir.storage(),
        DbOptions::default(),
        wal_options(),
        options,
    )
    .expect("server binds");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());
    let mut admin = Client::connect(addr).expect("admin connects");
    load_seed(&mut admin, seed).expect("seed loads over the wire");
    let before = admin.stats().expect("stats");
    Running {
        addr,
        admin,
        server,
        before,
        _dir: dir,
    }
}

/// The round's one checkpoint, taken at a fixed point of its work.
fn checkpoint(c: &mut Client, tally: &mut Tally) {
    let t = Instant::now();
    tally.attempted += 1;
    match c.checkpoint() {
        Ok(_) => tally.spans.push("checkpoint_ms", micros(t) / 1e3),
        Err(e) => tally.fail(format!("checkpoint: {e}")),
    }
}

/// Per-write ratios of the server's counters over the measured phase.
fn trace_counters(before: &StatsReply, after: &StatsReply, tally: &mut Tally) {
    let updates = (after.updates - before.updates) as f64;
    if updates > 0.0 {
        let per_write = |a: u64, b: u64| (a - b) as f64 / updates;
        let s = &mut tally.spans;
        s.push(
            "snapshots_per_write",
            per_write(after.snapshots_published, before.snapshots_published),
        );
        s.push(
            "syncs_per_write",
            per_write(after.wal_syncs, before.wal_syncs),
        );
        s.push(
            "coalesced_write_share",
            per_write(after.coalesced_writes, before.coalesced_writes),
        );
    }
    let txns = after.txn_committed - before.txn_committed;
    if txns > 0 {
        tally.spans.push(
            "lock_waits_per_txn",
            (after.lock_waits - before.lock_waits) as f64 / txns as f64,
        );
    }
}

/// Checks the served final state and, traced, times the wire and the
/// in-process layers; then shuts the server down and recovers its storage.
fn finish(
    mut run: Running,
    seed: &SeedTheory,
    pools: usize,
    statements: &[&str],
    probes: &[Probe],
    trace: bool,
    tally: &mut Tally,
) {
    let wffs = state_probes(seed, pools);
    let mut want_db = oracle(seed, statements, trace.then_some(&mut tally.spans));
    let want = verdicts(&mut want_db, &wffs);
    let served: Result<Vec<(bool, bool)>, ClientError> = run.admin.pin().and_then(|_| {
        wffs.iter()
            .map(|w| run.admin.check(w).map(|t| (t.possible, t.certain)))
            .collect()
    });
    match served {
        Ok(got) => tally.expect("served final state", &got, &want),
        Err(e) => tally.mismatch(format!("served final state unreadable: {e}")),
    }
    run.admin.unpin().expect("unpin");
    if trace {
        let after = run.admin.stats().expect("stats");
        trace_counters(&run.before, &after, tally);
        trace_reads(&want_db, probes, &mut tally.spans);
        for _ in 0..PINGS {
            let t = Instant::now();
            run.admin.ping().expect("ping");
            tally.spans.since("wire_ping_us", t);
        }
    }
    run.admin.shutdown().expect("shutdown request");
    let storage = run
        .server
        .join()
        .expect("server thread")
        .expect("server shuts down cleanly");
    crate::recover(storage, &wffs, &want, tally);
}

/// `served_read`: pinned snapshot reads (entailment checks and conjunctive
/// queries) from one connection while another trickles writes into pools
/// no probe touches — so every read has one right answer.
pub fn read_round(rng: &mut Rng, trace: bool, tally: &mut Tally) {
    let seed = seed_theory(rng, TRICKLE_POOLS);
    let probes = Arc::new(read_probes(rng, &seed));
    let total = READERS * READS_PER_READER;
    let per_pool = total / READS_PER_WRITE / TRICKLE_POOLS;
    let scripts = (0..TRICKLE_POOLS)
        .map(|p| writer_script(rng, p, per_pool, 0))
        .collect();
    let trickle: Vec<String> = mix(rng, scripts)
        .iter()
        .flat_map(|u| u.statements().to_vec())
        .collect();
    let expected = Arc::new(answers(&mut oracle(&seed, &[], None), &probes));

    let t = Instant::now();
    let run = boot(&seed, no_compactor());
    tally.setup_s.push(t.elapsed().as_secs_f64());

    let reads_done = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let readers: Vec<JoinHandle<(ClientOut, f64)>> = (0..READERS)
        .map(|r| {
            let (probes, expected, done) = (probes.clone(), expected.clone(), reads_done.clone());
            let addr = run.addr;
            std::thread::spawn(move || {
                let out = reader(addr, r, &probes, &expected, &done);
                (out, start.elapsed().as_secs_f64())
            })
        })
        .collect();
    let mut writer = Client::connect(run.addr).expect("writer connects");
    for (i, src) in trickle.iter().enumerate() {
        if i == trickle.len() / 2 {
            checkpoint(&mut writer, tally);
        }
        let due = (i + 1) * total / (trickle.len() + 1);
        while reads_done.load(Ordering::Relaxed) < due && !readers.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_micros(100));
        }
        tally.attempted += 1;
        if let Err(e) = writer.execute(src) {
            tally.fail(format!("trickle write `{src}`: {e}"));
        }
    }
    // The measured phase is the readers'; a trickle that falls behind
    // finishes after it.
    let mut busy_s: f64 = 0.0;
    for h in readers {
        let (out, elapsed) = h.join().expect("reader thread");
        busy_s = busy_s.max(elapsed);
        tally.absorb(out);
    }
    tally.busy_s += busy_s;
    drop(writer);

    let statements: Vec<&str> = trickle.iter().map(String::as_str).collect();
    finish(
        run,
        &seed,
        TRICKLE_POOLS,
        &statements,
        &probes,
        trace,
        tally,
    );
}

fn reader(
    addr: SocketAddr,
    r: usize,
    probes: &[Probe],
    expected: &[Answer],
    done: &AtomicUsize,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut c = Client::connect(addr).expect("reader connects");
    let mut i = r * probes.len() / READERS;
    for _ in 0..READS_PER_READER / READS_PER_PIN {
        c.pin().expect("pin");
        for _ in 0..READS_PER_PIN {
            let p = i % probes.len();
            i += 1;
            let t = Instant::now();
            let got = match &probes[p] {
                Probe::Check(src) => c.check(src).map(|x| Answer::Truth(x.possible, x.certain)),
                Probe::Query(src) => c.query(src).map(|x| rows(x.certain, x.possible)),
            };
            out.op_us.push(micros(t));
            match got {
                Ok(a) if a == expected[p] => {}
                Ok(a) => out
                    .wrong
                    .push(format!("read {p}: got {a:?}, want {:?}", expected[p])),
                Err(e) => out.errors.push(format!("read {p}: {e}")),
            }
            done.fetch_add(1, Ordering::Relaxed);
        }
        c.unpin().expect("unpin");
    }
    out
}

/// `served_write`: several connections commit single statements and
/// transactions flat out. Statements and private-pool transactions have
/// disjoint footprints, so the batching writer and the lock table admit
/// them concurrently; shared-pool transactions queue in the lock table.
/// The final state must equal the serial replay of every acknowledged
/// unit in LSN (commit) order. Halfway, once every writer is idle, the
/// round takes its checkpoint.
///
/// The background compactor is off in this shape. `compact_once` captures
/// the theory without waiting for open transactions, while
/// `install_compacted` assumes no transaction straddles the capture, so a
/// transaction open across a capture loses the statements it journaled
/// before the capture once the swap installs — and this shape's theory
/// grows past the compactor's trigger. With it on, the final-state check
/// fails.
pub fn write_round(rng: &mut Rng, trace: bool, tally: &mut Tally) {
    let pools = WRITERS * POOLS_PER_WRITER;
    let seed = seed_theory(rng, pools);
    let scripts: Vec<Vec<Unit>> = (0..WRITERS)
        .map(|w| {
            let mut parts: Vec<Vec<Unit>> = (w * POOLS_PER_WRITER..(w + 1) * POOLS_PER_WRITER)
                .map(|p| writer_script(rng, p, SINGLES, TXNS))
                .collect();
            parts.push(contended_txns(rng, CONTENDED));
            mix(rng, parts)
        })
        .collect();

    let t = Instant::now();
    let mut run = boot(&seed, no_compactor());
    tally.setup_s.push(t.elapsed().as_secs_f64());

    let mut acked: Vec<(u64, Vec<String>)> = Vec::new();
    for half in 0..2 {
        if half == 1 {
            checkpoint(&mut run.admin, tally);
        }
        let start = Instant::now();
        let writers: Vec<JoinHandle<ClientOut>> = scripts
            .iter()
            .map(|script| {
                let mid = script.len() / 2;
                let part = if half == 0 {
                    script[..mid].to_vec()
                } else {
                    script[mid..].to_vec()
                };
                let addr = run.addr;
                std::thread::spawn(move || writer(addr, &part))
            })
            .collect();
        for h in writers {
            let mut out = h.join().expect("writer thread");
            acked.append(&mut out.acked);
            tally.absorb(out);
        }
        tally.busy_s += start.elapsed().as_secs_f64();
    }

    acked.sort_by_key(|(lsn, _)| *lsn);
    let statements: Vec<&str> = acked
        .iter()
        .flat_map(|(_, stmts)| stmts)
        .map(String::as_str)
        .collect();
    finish(
        run,
        &seed,
        pools,
        &statements,
        &state_reads(&seed, pools),
        trace,
        tally,
    );
}

fn writer(addr: SocketAddr, script: &[Unit]) -> ClientOut {
    let mut out = ClientOut::default();
    let mut c = Client::connect(addr).expect("writer connects");
    for unit in script {
        let t = Instant::now();
        let r = match unit {
            Unit::Single(src) => c.execute(src).map(|x| x.lsn),
            Unit::Txn(stmts) => transaction(&mut c, stmts),
        };
        out.op_us.push(micros(t));
        match r {
            Ok(lsn) => out.acked.push((lsn, unit.statements().to_vec())),
            Err(e) => out
                .errors
                .push(format!("write unit {:?}: {e}", unit.statements())),
        }
    }
    out
}

/// Runs one transaction; its commit LSN.
fn transaction(c: &mut Client, stmts: &[String]) -> Result<u64, ClientError> {
    c.begin()?;
    for src in stmts {
        if let Err(e) = c.execute(src) {
            let _ = c.rollback();
            return Err(e);
        }
    }
    c.commit().map(|x| x.lsn)
}

impl Tally {
    fn absorb(&mut self, out: ClientOut) {
        self.attempted += out.op_us.len() as u64;
        self.op_us.extend(out.op_us);
        for e in out.errors {
            self.fail(e);
        }
        for w in out.wrong {
            self.mismatch(w);
        }
    }
}

/// Server options of both shapes: the defaults with the background
/// compactor off. A compaction swap checkpoints at a point that depends
/// on timing, which would move recovery cost from round to round; and in
/// `served_write` it loses transaction statements (see [`write_round`]).
fn no_compactor() -> ServerOptions {
    ServerOptions {
        compaction: None,
        ..ServerOptions::default()
    }
}

//! Serializability of multi-statement transactions, plus crash
//! atomicity of the transactional WAL.
//!
//! **Serializability** (the Theorem 3/4 claim behind footprint locking):
//! random interleaved transactions from concurrent writer threads must
//! leave the database in the state produced by replaying the *committed*
//! transactions' statements, grouped by transaction, in commit-LSN
//! order, through the §4 `replay_updates` strawman — a deliberately
//! different code path from the server's GUA writer. Transactions that
//! rolled back, timed out, or never committed contribute nothing. This
//! holds because the lock table serializes conflicting footprints while
//! Theorem 4 makes the concurrently-interleaved disjoint ones commute.
//!
//! **Crash atomicity**: a WAL carrying a committed transaction and an
//! unfinished one is truncated at *every* byte boundary; recovery must
//! always succeed, must land on a legal prefix state, must expose the
//! committed transaction's effects atomically (all statements or none,
//! depending on whether its commit marker survived), and must never
//! expose the unfinished transaction's effects — it gets a compensating
//! abort instead.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;
use winslett::db::persist::DependencyDump;
use winslett::db::wal::FailpointStorage;
use winslett::db::{
    replay_updates, DbError, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, Op, Storage,
    SyncPolicy, WalOptions,
};
use winslett_serve::{Client, ClientError, ErrorKindWire, Server, ServerOptions};

/// The statement pool: consistent-by-construction LDML over a tiny
/// universe (same pool as the linearizability suite), so any committed
/// combination is satisfiable and the SAT work stays trivial.
const POOL: &[&str] = &[
    "INSERT R(1) WHERE T",
    "INSERT R(2) | R(3) WHERE T",
    "DELETE R(1) WHERE T",
    "MODIFY R(2) TO BE R(4) WHERE T",
    "INSERT S(1) WHERE R(1)",
    "DELETE S(1) WHERE T",
    "INSERT R(3) WHERE S(1)",
];

/// One scripted transaction: which pool statements, and whether the
/// writer asks to commit (it may still abort on a lock timeout).
type TxnScript = (Vec<usize>, bool);

fn boot() -> (JoinHandle<Result<MemStorage, DbError>>, SocketAddr) {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
        ServerOptions {
            max_connections: 32,
            idle_timeout: Duration::from_secs(10),
            // Short enough that adversarial interleavings (mutual waits)
            // resolve quickly; timed-out transactions simply abort.
            lock_timeout: Duration::from_millis(500),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (std::thread::spawn(move || server.run()), addr)
}

fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
    db.world_names().expect("worlds").into_iter().collect()
}

/// Replays committed transactions (sorted by commit LSN) through the §4
/// path and returns the resulting world set.
fn replayed_commits(committed: &[(u64, Vec<usize>)]) -> BTreeSet<Vec<String>> {
    let mut order: Vec<&(u64, Vec<usize>)> = committed.iter().collect();
    order.sort_by_key(|(lsn, _)| *lsn);
    let mut parse_db = LogicalDatabase::new();
    parse_db.declare_relation("R", 1).expect("declare R");
    parse_db.declare_relation("S", 1).expect("declare S");
    let updates: Vec<_> = order
        .iter()
        .flat_map(|(_, stmts)| stmts.iter())
        .map(|&idx| parse_db.parse_update(POOL[idx]).expect("parse committed"))
        .collect();
    let theory = replay_updates(parse_db.theory(), &updates).expect("replay committed");
    world_set(&LogicalDatabase::from_theory(theory, DbOptions::default()))
}

/// Runs one writer's transaction scripts; returns `(commit_lsn,
/// statements)` for every transaction the server acknowledged committed.
fn run_writer(addr: SocketAddr, scripts: Vec<TxnScript>) -> Vec<(u64, Vec<usize>)> {
    let mut client = Client::connect(addr).expect("connect writer");
    let mut committed = Vec::new();
    for (stmts, want_commit) in scripts {
        client.begin().expect("begin");
        let mut alive = true;
        for &idx in &stmts {
            match client.execute(POOL[idx]) {
                Ok(_) => {}
                // A lock-wait deadline fired: the server rolled the
                // transaction back; it committed nothing.
                Err(ClientError::Server(e)) if e.kind == ErrorKindWire::TxnTimeout => {
                    alive = false;
                    break;
                }
                Err(e) => panic!("txn statement {:?}: {e}", POOL[idx]),
            }
        }
        if !alive {
            continue;
        }
        if want_commit {
            let reply = client.commit().expect("commit");
            committed.push((reply.lsn, stmts));
        } else {
            client.rollback().expect("rollback");
        }
    }
    committed
}

/// The serializability check: interleave the scripts from concurrent
/// connections, then compare the reopened post-shutdown database against
/// the §4 replay of exactly the committed transactions in commit order.
fn run_scenario(writer_scripts: Vec<Vec<TxnScript>>) {
    let (running, addr) = boot();
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");
    setup.declare_relation("S", 1).expect("declare S");

    let barrier = Arc::new(Barrier::new(writer_scripts.len()));
    let handles: Vec<_> = writer_scripts
        .into_iter()
        .map(|scripts| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run_writer(addr, scripts)
            })
        })
        .collect();
    let mut committed = Vec::new();
    for handle in handles {
        committed.extend(handle.join().expect("writer thread"));
    }

    let stats = setup.stats().expect("stats");
    assert_eq!(stats.txn_active, 0, "stray open transaction: {stats:?}");
    assert_eq!(stats.txn_committed, committed.len() as u64);
    setup.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("run");

    let (recovered, report) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen");
    assert_eq!(
        report.rolled_back, 0,
        "all txns were resolved before shutdown"
    );
    let expect = replayed_commits(&committed);
    let got = world_set(recovered.db());
    assert_eq!(
        got, expect,
        "recovered state is not the serial commit-order replay of the \
         committed transactions: {committed:?}"
    );
}

#[test]
fn interleaved_txns_serialize_in_commit_order() {
    // A deterministic adversarial scenario: heavy overlap on R(1)/S(1)
    // footprints plus a rollback and an uncontended transaction.
    run_scenario(vec![
        vec![(vec![0, 4], true), (vec![2], true)],
        vec![(vec![1, 3], true), (vec![0, 6], false)],
        vec![(vec![5], true), (vec![4, 2], true)],
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random concurrent transaction mixes on the reactor core.
    #[test]
    fn random_interleaved_txns_serialize(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (prop::collection::vec(0..POOL.len(), 1..4), 0u8..4).prop_map(
                    |(stmts, c)| (stmts, c > 0) // commit ~75% of the time
                ),
                1..4,
            ),
            2..4,
        ),
    ) {
        run_scenario(scripts);
    }
}

// ----- crash atomicity of the transactional WAL ------------------------------

/// One scripted operation; transactions are named by slot index.
#[derive(Clone, Copy, Debug)]
enum TOp {
    Declare(&'static str, usize),
    DeclareAttribute(&'static str),
    /// A relation typed by the named attributes, one per column.
    DeclareTyped(&'static str, &'static [&'static str]),
    /// A functional dependency on the named relation's key columns.
    AddFd(&'static str, &'static [usize]),
    Load(&'static str, &'static [&'static str]),
    Exec(&'static str),
    Begin(usize),
    TxnExec(usize, &'static str),
    Commit(usize),
    Checkpoint,
}

fn apply_top<S: Storage>(
    ddb: &mut DurableDatabase<S>,
    slots: &mut [Option<u64>],
    op: &TOp,
) -> Result<(), DbError> {
    match op {
        TOp::Declare(name, arity) => ddb.declare_relation(name, *arity).map(|_| ()),
        TOp::DeclareAttribute(name) => ddb.apply(Op::DeclareAttribute(name.to_string())).map(drop),
        TOp::DeclareTyped(name, attrs) => {
            let attrs = attrs.iter().map(|a| a.to_string()).collect();
            ddb.apply(Op::DeclareTypedRelation(name.to_string(), attrs))
                .map(drop)
        }
        TOp::AddFd(name, key) => {
            // The script declares a relation before naming it, and a run
            // stops at its first failed op, so the lookup cannot miss.
            let vocab = &ddb.db().theory().vocab;
            let p = vocab
                .find_predicate(name)
                .expect("declared earlier in the script");
            let fd = DependencyDump::functional("fd", name, vocab.predicate(p).arity, key)?;
            ddb.apply(Op::AddDependency(fd)).map(drop)
        }
        TOp::Load(pred, args) => ddb.load_fact(pred, args).map(|_| ()),
        TOp::Exec(src) => ddb.execute(src).map(|_| ()),
        TOp::Begin(slot) => {
            slots[*slot] = Some(ddb.txn_begin()?);
            Ok(())
        }
        TOp::TxnExec(slot, src) => {
            let txn = slots[*slot].expect("begin precedes txn exec");
            ddb.txn_execute(txn, src).map(|_| ())
        }
        TOp::Commit(slot) => {
            let txn = slots[*slot].take().expect("begin precedes commit");
            ddb.txn_commit(txn).map(|_| ())
        }
        TOp::Checkpoint => ddb.checkpoint(),
    }
}

/// Setup (with `Price` typed by two attributes and under a functional
/// dependency), plain writes, a committed three-statement transaction,
/// then a transaction that is *never* finished — the WAL ends with its
/// begin and two ops, no marker. Each transaction is open across a
/// checkpoint taken after its second statement, so kill points land
/// inside checkpoints that re-journal an open transaction.
const CRASH_SCRIPT: &[TOp] = &[
    TOp::Declare("R", 1),
    TOp::Declare("S", 1),
    TOp::DeclareAttribute("Part"),
    TOp::DeclareAttribute("Cost"),
    TOp::DeclareTyped("Price", &["Part", "Cost"]),
    TOp::AddFd("Price", &[0]),
    TOp::Load("R", &["9"]),
    TOp::Exec("INSERT S(5) WHERE T"),
    TOp::Exec("INSERT Price(1,10) | Price(1,12) WHERE T"),
    TOp::Begin(0),
    TOp::TxnExec(0, "INSERT R(1) WHERE T"),
    TOp::TxnExec(0, "INSERT Price(1,12) WHERE R(1)"),
    TOp::Checkpoint,
    TOp::TxnExec(0, "INSERT S(1) WHERE R(1)"),
    TOp::Commit(0),
    TOp::Begin(1),
    TOp::TxnExec(1, "INSERT R(2) WHERE T"),
    TOp::TxnExec(1, "MODIFY Price(1,12) TO BE Price(1,11) WHERE T"),
    TOp::Checkpoint,
];

fn crash_wal_options() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

/// Crash-free probe: the world set after each op (the legal recovery
/// outcomes — note open-transaction ops leave the durable state
/// unchanged, so the committed transaction appears atomically at its
/// `Commit` step and the unfinished one never appears at all), plus the
/// total bytes written.
fn probe() -> (Vec<BTreeSet<Vec<String>>>, u64) {
    let storage = FailpointStorage::unlimited();
    let handle = storage.clone();
    let (mut ddb, _) = DurableDatabase::open(storage, DbOptions::default(), crash_wal_options())
        .expect("probe open");
    let mut slots = [None, None];
    let mut states = vec![world_set(ddb.db())];
    for op in CRASH_SCRIPT {
        apply_top(&mut ddb, &mut slots, op).expect("probe op");
        states.push(world_set(ddb.db()));
    }
    ddb.sync().expect("probe sync");
    (states, handle.bytes_written())
}

fn run_with_kill(kill: u64) -> MemStorage {
    let storage = FailpointStorage::new(kill);
    let handle = storage.clone();
    if let Ok((mut ddb, _)) =
        DurableDatabase::open(storage, DbOptions::default(), crash_wal_options())
    {
        let mut slots = [None, None];
        for op in CRASH_SCRIPT {
            if apply_top(&mut ddb, &mut slots, op).is_err() {
                break;
            }
        }
        let _ = ddb.sync();
    }
    handle.survivor()
}

#[test]
fn exhaustive_kill_points_with_unfinished_txn_recover_atomically() {
    let (legal, total) = probe();
    assert!(total > 0);
    for kill in 0..=total {
        let survivor = run_with_kill(kill);
        let (recovered, report) =
            DurableDatabase::open(survivor, DbOptions::default(), crash_wal_options())
                .unwrap_or_else(|e| panic!("kill at byte {kill}: recovery failed: {e}"));
        let worlds = world_set(recovered.db());
        assert!(
            legal.contains(&worlds),
            "kill at byte {kill}: recovered a third state.\n report: {report:?}\n worlds: {worlds:?}"
        );
        // Unfinished-transaction effects must never be visible: R(2)
        // exists in no legal state, but assert it directly for clarity.
        for world in &worlds {
            assert!(
                !world.iter().any(|f| f == "R(2)"),
                "kill at byte {kill}: unfinished txn leaked R(2): {worlds:?}"
            );
        }
    }

    // The clean-shutdown survivor: the committed transaction's full
    // effects, the unfinished one compensated with exactly one abort.
    let survivor = run_with_kill(total);
    let (mut recovered, report) =
        DurableDatabase::open(survivor, DbOptions::default(), crash_wal_options())
            .expect("reopen full");
    assert_eq!(report.rolled_back, 1, "the unfinished txn gets one abort");
    assert_eq!(&world_set(recovered.db()), legal.last().expect("states"));
    assert!(recovered.db_mut().is_certain("R(1)").expect("R(1)"));
    assert!(recovered.db_mut().is_certain("S(1)").expect("S(1)"));

    // And the compensating abort makes recovery idempotent: reopening
    // the recovered image again rolls back nothing further.
    let storage = recovered.into_storage();
    let (again, report2) =
        DurableDatabase::open(storage, DbOptions::default(), crash_wal_options())
            .expect("reopen twice");
    assert_eq!(report2.rolled_back, 0, "abort compensation is durable");
    assert_eq!(&world_set(again.db()), legal.last().expect("states"));
}

//! Wire-level multi-statement transactions, end to end.
//!
//! `Begin` / `Commit` / `Rollback` group `Write` requests on
//! one connection into an atomic, isolated unit: effects are invisible to
//! every other connection until the commit marker lands, and a rollback
//! (or any abort path) leaves no trace. Transactions with disjoint
//! §2 update footprints (Theorem 4: commutative) run concurrently;
//! conflicting ones block on the lock table and give up with a typed
//! `TxnTimeout` at the deadlock-avoidance deadline. Every scenario runs
//! against the epoll reactor, whose writer thread parks contended
//! statements and retries them until their deadline.

use std::time::{Duration, Instant};
use winslett_core::persist::DependencyDump;
use winslett_core::{
    apply_op, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, Op, WalOptions,
};
use winslett_serve::{Client, ClientError, ErrorKindWire, Server, ServerHandle, ServerOptions};

type Running = std::thread::JoinHandle<Result<MemStorage, winslett_core::DbError>>;

fn boot(lock_timeout: Duration) -> (Running, ServerHandle, std::net::SocketAddr) {
    boot_on(MemStorage::new(), lock_timeout)
}

fn boot_on(
    storage: MemStorage,
    lock_timeout: Duration,
) -> (Running, ServerHandle, std::net::SocketAddr) {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        storage,
        DbOptions::default(),
        WalOptions::default(),
        ServerOptions {
            max_connections: 16,
            idle_timeout: Duration::from_secs(10),
            compaction: None,
            lock_timeout,
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    (std::thread::spawn(move || server.run()), handle, addr)
}

fn kind_of(err: ClientError) -> ErrorKindWire {
    match err {
        ClientError::Server(e) => e.kind,
        other => panic!("expected a typed server error, got {other:?}"),
    }
}

/// A probe for "this fact never escaped": either the fact is not even
/// possible, or its constants never entered the vocabulary at all (a
/// strict-parse refusal — the strongest form of invisibility).
fn assert_never_seen(client: &mut Client, wff: &str) {
    match client.check(wff) {
        Ok(t) => assert!(!t.possible, "{wff} leaked: {t:?}"),
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::Parse, "{wff}: {e}"),
        Err(e) => panic!("check {wff}: {e}"),
    }
}

// ----- atomicity and isolation ----------------------------------------------

fn atomic_commit_and_rollback() {
    let (running, _handle, addr) = boot(Duration::from_secs(2));
    let mut txn_conn = Client::connect(addr).expect("connect");
    let mut observer = Client::connect(addr).expect("connect observer");
    txn_conn.declare_relation("R", 1).expect("declare R");
    txn_conn.declare_relation("S", 1).expect("declare S");

    // Committed transaction: two statements, the second reading the
    // first's workspace effects (read-your-writes at statement level),
    // invisible to the observer until the commit, then visible atomically.
    let begun = txn_conn.begin().expect("begin");
    assert!(begun.txn > 0, "txn id is the begin record's LSN");
    txn_conn.execute("INSERT R(1) WHERE T").expect("txn insert");
    txn_conn
        .execute("INSERT S(1) WHERE R(1)")
        .expect("txn insert over own effects");
    assert_never_seen(&mut observer, "R(1)");
    assert_never_seen(&mut observer, "S(1)");
    let committed = txn_conn.commit().expect("commit");
    assert_eq!(committed.txn, begun.txn);
    assert_eq!(committed.statements, 2);
    assert!(committed.lsn > begun.txn, "commit marker lands past begin");
    for wff in ["R(1)", "S(1)"] {
        let t = observer.check(wff).expect("post-commit check");
        assert!(t.certain, "{wff} must be certain after the commit");
    }

    // Rolled-back transaction: nothing escapes, ever.
    let begun = txn_conn.begin().expect("begin 2");
    txn_conn.execute("INSERT R(2) WHERE T").expect("txn insert");
    let rolled = txn_conn.rollback().expect("rollback");
    assert_eq!(rolled.txn, begun.txn);
    assert_never_seen(&mut observer, "R(2)");
    assert_never_seen(&mut txn_conn, "R(2)");

    // Transaction-state protocol errors are typed, not hangs.
    assert_eq!(
        kind_of(txn_conn.commit().unwrap_err()),
        ErrorKindWire::BadRequest
    );
    assert_eq!(
        kind_of(txn_conn.rollback().unwrap_err()),
        ErrorKindWire::BadRequest
    );
    txn_conn.begin().expect("begin 3");
    assert_eq!(
        kind_of(txn_conn.begin().unwrap_err()),
        ErrorKindWire::BadRequest
    );
    txn_conn.rollback().expect("rollback 3");

    let stats = observer.stats().expect("stats");
    assert_eq!(stats.txn_begun, 3);
    assert_eq!(stats.txn_committed, 1);
    assert_eq!(stats.txn_aborted, 2);
    assert_eq!(stats.txn_active, 0);

    // Durability: the committed transaction survives a restart; the
    // rolled-back one left no trace in the recovered state.
    observer.shutdown().expect("shutdown");
    drop(txn_conn);
    let storage = running.join().expect("server thread").expect("run");
    let (mut db, report) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen");
    assert_eq!(report.rolled_back, 0, "no unfinished txns at shutdown");
    assert!(db.db_mut().is_certain("R(1)").expect("recovered R(1)"));
    assert!(db.db_mut().is_certain("S(1)").expect("recovered S(1)"));
    // An Err means its constant never entered the vocabulary: even better.
    if let Ok(p) = db.db_mut().is_possible("R(2)") {
        assert!(!p, "rolled-back R(2) resurfaced after recovery");
    }
}

#[test]
fn txn_atomic_commit_and_rollback_reactor() {
    atomic_commit_and_rollback();
}

/// On a fresh database the first record is LSN 0, so a transaction that
/// the first request opens has id 0. It must still be a transaction:
/// its statements stay invisible until the commit, and a dropped
/// connection rolls it back.
#[test]
fn first_request_on_a_fresh_database_opens_a_real_transaction() {
    for commit in [true, false] {
        let (running, _handle, addr) = boot(Duration::from_secs(2));
        let mut txn_conn = Client::connect(addr).expect("connect");
        let mut observer = Client::connect(addr).expect("connect observer");
        assert_eq!(txn_conn.begin().expect("begin").txn, 0);
        txn_conn.declare_relation("R", 1).expect("txn declare");
        txn_conn.execute("INSERT R(1) WHERE T").expect("txn insert");
        assert_never_seen(&mut observer, "R(1)");
        if commit {
            let committed = txn_conn.commit().expect("commit");
            assert_eq!((committed.txn, committed.statements), (0, 2));
        }
        // Without a commit, the dropped connection abandons the
        // transaction and the server rolls it back.
        drop(txn_conn);
        let start = std::time::Instant::now();
        while observer.stats().expect("stats").txn_active > 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the abandoned transaction was never rolled back"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        if commit {
            assert!(observer.check("R(1)").expect("check").certain);
        } else {
            assert_never_seen(&mut observer, "R(1)");
        }
        let stats = observer.stats().expect("stats");
        assert_eq!(stats.txn_committed, u64::from(commit));
        assert_eq!(stats.txn_aborted, u64::from(!commit));
        observer.shutdown().expect("shutdown");
        let storage = running.join().expect("server thread").expect("run");
        let (mut db, report) =
            DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
                .expect("reopen");
        assert_eq!(report.rolled_back, 0);
        let recovered = db.db_mut().is_certain("R(1)").unwrap_or(false);
        assert_eq!(recovered, commit, "recovered R(1) against commit={commit}");
    }
}

// ----- concurrency control ---------------------------------------------------

fn conflicting_txns_time_out() {
    let (running, _handle, addr) = boot(Duration::from_millis(150));
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    let mut plain = Client::connect(addr).expect("connect plain");
    a.declare_relation("R", 1).expect("declare R");
    a.declare_relation("S", 1).expect("declare S");

    a.begin().expect("a begin");
    a.execute("INSERT R(1) WHERE T").expect("a insert");

    // A plain (non-transactional) write on the locked atom is refused
    // immediately with the typed conflict — it never queues behind the
    // open transaction.
    assert_eq!(
        kind_of(plain.execute("INSERT R(1) WHERE T").unwrap_err()),
        ErrorKindWire::TxnConflict
    );
    // A disjoint-footprint plain write proceeds concurrently.
    plain
        .execute("INSERT S(3) WHERE T")
        .expect("disjoint plain");

    // A second transaction on the same footprint waits, then gives up at
    // the deadlock-avoidance deadline — and the timeout rolled it back.
    b.begin().expect("b begin");
    assert_eq!(
        kind_of(b.execute("INSERT R(1) WHERE T").unwrap_err()),
        ErrorKindWire::TxnTimeout
    );
    assert_eq!(kind_of(b.commit().unwrap_err()), ErrorKindWire::BadRequest);

    // The holder is unaffected and commits.
    let committed = a.commit().expect("a commit");
    assert_eq!(committed.statements, 1);
    assert!(a.check("R(1)").expect("check").certain);

    // Once the lock is gone, the same statements sail through.
    b.begin().expect("b begin again");
    b.execute("INSERT R(1) WHERE T").expect("now unlocked");
    b.commit().expect("b commit");

    let stats = plain.stats().expect("stats");
    assert!(stats.lock_timeouts >= 1, "timeout counted: {stats:?}");
    assert!(
        stats.txn_conflicts >= 1,
        "plain conflict counted: {stats:?}"
    );
    assert_eq!(stats.txn_active, 0);

    plain.shutdown().expect("shutdown");
    drop(a);
    drop(b);
    running.join().expect("server thread").expect("run");
}

#[test]
fn conflicting_txns_time_out_reactor() {
    conflicting_txns_time_out();
}

fn disjoint_txns_run_concurrently() {
    let (running, _handle, addr) = boot(Duration::from_secs(2));
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");
    setup.declare_relation("S", 1).expect("declare S");

    // Two open transactions with disjoint footprints (Theorem 4:
    // commutative updates) hold locks simultaneously; neither waits.
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    a.begin().expect("a begin");
    b.begin().expect("b begin");
    a.execute("INSERT R(1) WHERE T").expect("a insert");
    b.execute("INSERT S(2) WHERE T").expect("b insert");
    let stats = setup.stats().expect("stats");
    assert_eq!(stats.txn_active, 2, "both transactions hold locks at once");
    assert_eq!(stats.lock_waits, 0, "disjoint footprints never wait");
    b.commit().expect("b commit");
    a.commit().expect("a commit");
    assert!(setup.check("R(1)").expect("check R").certain);
    assert!(setup.check("S(2)").expect("check S").certain);

    setup.shutdown().expect("shutdown");
    drop(a);
    drop(b);
    running.join().expect("server thread").expect("run");
}

#[test]
fn disjoint_txns_run_concurrently_reactor() {
    disjoint_txns_run_concurrently();
}

// ----- abort paths -----------------------------------------------------------

/// A connection that disappears mid-transaction (client crash) must not
/// leave its locks behind: the teardown rolls the transaction back and a
/// new transaction on the same footprint proceeds immediately.
fn dropped_connection_releases_locks() {
    let (running, _handle, addr) = boot(Duration::from_secs(5));
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");

    let mut doomed = Client::connect(addr).expect("connect doomed");
    doomed.begin().expect("begin");
    doomed.execute("INSERT R(1) WHERE T").expect("insert");
    drop(doomed); // vanish without commit or rollback

    // The replacement would deadlock for the full 5s lock timeout if the
    // teardown leaked the lock; give the server a moment to notice the
    // hangup, then demand the statement completes promptly.
    let mut fresh = Client::connect(addr).expect("connect fresh");
    let start = std::time::Instant::now();
    let acquired = loop {
        fresh.begin().expect("begin fresh");
        match fresh.execute("INSERT R(1) WHERE T") {
            Ok(_) => break true,
            Err(ClientError::Server(e))
                if matches!(
                    e.kind,
                    ErrorKindWire::TxnTimeout | ErrorKindWire::TxnConflict
                ) =>
            {
                // Teardown raced us; the rolled-back txn must be re-begun.
                if fresh.rollback().is_err() {
                    // TxnTimeout already rolled it back server-side.
                }
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "lock never released after the owner vanished"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("fresh insert: {e}"),
        }
    };
    assert!(acquired);
    fresh.commit().expect("commit fresh");
    assert_never_seen(&mut setup, "R(2)");
    assert!(setup.check("R(1)").expect("check").certain);
    let stats = setup.stats().expect("stats");
    assert_eq!(stats.txn_active, 0, "no orphaned transaction survives");

    setup.shutdown().expect("shutdown");
    drop(fresh);
    running.join().expect("server thread").expect("run");
}

#[test]
fn dropped_connection_releases_locks_reactor() {
    dropped_connection_releases_locks();
}

/// Satellite regression: the drain (protocol `Shutdown` or SIGTERM →
/// `request_shutdown`) aborts in-flight transactions with a typed
/// refusal, releases their locks, and the WAL the server leaves behind
/// carries the compensating abort — recovery resurrects nothing.
fn drain_aborts_open_transactions() {
    let (running, handle, addr) = boot(Duration::from_secs(2));
    let mut txn_conn = Client::connect(addr).expect("connect");
    txn_conn.declare_relation("R", 1).expect("declare R");
    txn_conn.execute("INSERT R(7) WHERE T").expect("seed");

    txn_conn.begin().expect("begin");
    txn_conn.execute("INSERT R(1) WHERE T").expect("txn insert");

    handle.request_shutdown();
    // The next transactional request is answered with the typed drain
    // refusal — the transaction is already rolled back server-side.
    let err = loop {
        match txn_conn.execute("INSERT R(2) WHERE T") {
            Err(e) => break e,
            // The drain flag may not be visible to this connection yet;
            // statements that slip in before it are part of the txn that
            // is about to be aborted anyway.
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, ErrorKindWire::ShuttingDown, "typed refusal: {e}");
            assert!(
                e.message.contains("transaction aborted"),
                "refusal names the aborted transaction: {}",
                e.message
            );
        }
        // The drain may also close the socket under the request once the
        // refusal has been flushed.
        ClientError::Frame(_) => {}
        other => panic!("unexpected drain outcome: {other:?}"),
    }
    drop(txn_conn);
    let storage = running.join().expect("server thread").expect("run");

    // Recovery: the seed survives, nothing transactional does, and the
    // log is balanced (the abort was journaled before exit, so recovery
    // itself had nothing left to roll back).
    let (mut db, report) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen");
    assert_eq!(report.rolled_back, 0, "drain journaled the abort itself");
    assert!(db.db_mut().is_certain("R(7)").expect("seed survives"));
    if let Ok(p) = db.db_mut().is_possible("R(1)") {
        assert!(!p, "aborted txn effects resurfaced after the drain");
    }
}

#[test]
fn drain_aborts_open_transactions_reactor() {
    drain_aborts_open_transactions();
}

// ----- §3.5 axioms under the lock table ----------------------------------------

/// `Price/2` under a functional dependency on column 0, holding
/// `Price(a,10)`.
fn priced_seed() -> Vec<Op> {
    let fd = DependencyDump::functional("fd", "Price", 2, &[0]).expect("fd");
    vec![
        Op::DeclareRelation("Price".into(), 2),
        Op::AddDependency(fd),
        Op::LoadFact("Price".into(), vec!["a".into(), "10".into()]),
    ]
}

const PRICE_PROBES: [&str; 3] = ["Price(a,10)", "Price(a,12)", "Price(a,10) | Price(a,12)"];

/// Every probe's `(possible, certain)` verdict on `db`.
fn verdicts(db: &mut LogicalDatabase) -> Vec<(bool, bool)> {
    let verdict = |db: &mut LogicalDatabase, p| (db.is_possible(p), db.is_certain(p));
    PRICE_PROBES
        .iter()
        .map(|p| match verdict(db, p) {
            (Ok(possible), Ok(certain)) => (possible, certain),
            other => panic!("verdict on {p}: {other:?}"),
        })
        .collect()
}

/// Shuts the server down and checks its final served verdicts against
/// both the reopened storage and the §4 serial replay of the seed and
/// the acknowledged units in LSN order.
fn assert_final_state(
    running: Running,
    mut client: Client,
    seed: &[Op],
    mut acked: Vec<(u64, &str)>,
) -> Vec<(bool, bool)> {
    let served: Vec<(bool, bool)> = PRICE_PROBES
        .iter()
        .map(|p| {
            client
                .check(p)
                .map(|t| (t.possible, t.certain))
                .expect("check")
        })
        .collect();
    client.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("run");
    let (mut reopened, _) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen");
    assert_eq!(served, verdicts(reopened.db_mut()), "served vs reopened");
    let mut replay = LogicalDatabase::new();
    for op in seed {
        apply_op(&mut replay, op).expect("seed replays");
    }
    acked.sort_by_key(|(lsn, _)| *lsn);
    for (_, src) in acked {
        replay.execute(src).expect("acknowledged unit replays");
    }
    assert_eq!(served, verdicts(&mut replay), "served vs serial replay");
    served
}

/// Serves the priced seed from storage the library wrote.
fn boot_priced(lock_timeout: Duration) -> (Running, std::net::SocketAddr) {
    let (mut db, _) = DurableDatabase::open(
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
    )
    .expect("open");
    for op in priced_seed() {
        db.apply(op).expect("seed");
    }
    let (running, _handle, addr) = boot_on(db.close().expect("close"), lock_timeout);
    (running, addr)
}

/// A plain write into a predicate an FD constrains collides with an open
/// transaction's write into the same predicate, although their atoms
/// differ: rule 3 couples them, so commit order must be their order.
/// Admitting it let the live state replay the two in an order the log
/// does not, and recovery reached a different state.
#[test]
fn fd_coupled_plain_write_conflicts_with_an_open_transaction() {
    let (running, addr) = boot_priced(Duration::from_secs(2));
    let mut txn_conn = Client::connect(addr).expect("connect");
    let mut plain = Client::connect(addr).expect("connect plain");
    txn_conn.begin().expect("begin");
    let delete = "DELETE Price(a,10) WHERE T";
    assert_eq!(txn_conn.execute(delete).expect("txn delete").lsn, 4);
    let insert = "INSERT Price(a,12) WHERE T";
    assert_eq!(
        kind_of(plain.execute(insert).unwrap_err()),
        ErrorKindWire::TxnConflict
    );
    let committed = txn_conn.commit().expect("commit");
    // Once the transaction is gone, the same write is admitted after it.
    let retried = plain.execute(insert).expect("retry after commit");
    assert!(retried.lsn > committed.lsn);
    let acked = vec![(committed.lsn, delete), (retried.lsn, insert)];
    let served = assert_final_state(running, plain, &priced_seed(), acked);
    assert_eq!(served, [(false, false), (true, true), (true, true)]);
}

/// Two transactions writing FD-coupled atoms: the second one's statement
/// waits for the first one's commit, and commit order is the serial order.
#[test]
fn fd_coupled_transaction_waits_for_the_first_commit() {
    let (running, addr) = boot_priced(Duration::from_secs(5));
    let mut first = Client::connect(addr).expect("connect first");
    first.begin().expect("begin first");
    first.execute("DELETE Price(a,10) WHERE T").expect("delete");
    let second = std::thread::spawn(move || {
        let mut second = Client::connect(addr).expect("connect second");
        second.begin().expect("begin second");
        second
            .execute("INSERT Price(a,12) WHERE T")
            .expect("insert");
        second.commit().expect("commit second")
    });
    await_parked(&mut first);
    let committed = first.commit().expect("commit first");
    let later = second.join().expect("second thread");
    assert!(later.lsn > committed.lsn);
    assert_eq!(first.stats().expect("stats").lock_waits, 1);
    let acked = vec![
        (committed.lsn, "DELETE Price(a,10) WHERE T"),
        (later.lsn, "INSERT Price(a,12) WHERE T"),
    ];
    let served = assert_final_state(running, first, &priced_seed(), acked);
    assert_eq!(served, [(false, false), (true, true), (true, true)]);
}

/// Returns once some statement has parked behind a held lock.
fn await_parked(client: &mut Client) {
    let start = Instant::now();
    while client.stats().expect("stats").lock_waits == 0 {
        assert!(start.elapsed() < Duration::from_secs(10), "nothing parked");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `lock_waits` counts statements that had to wait, not the writer's
/// retries: one statement parked for about 100 ms is one wait.
#[test]
fn a_parked_statement_counts_one_lock_wait() {
    let (running, _handle, addr) = boot(Duration::from_secs(5));
    let mut holder = Client::connect(addr).expect("connect holder");
    holder.declare_relation("R", 1).expect("declare R");
    holder.begin().expect("begin holder");
    holder
        .execute("INSERT R(1) WHERE T")
        .expect("holder insert");
    let waiter = std::thread::spawn(move || {
        let mut waiter = Client::connect(addr).expect("connect waiter");
        waiter.begin().expect("begin waiter");
        waiter
            .execute("DELETE R(1) WHERE T")
            .expect("parked delete");
        waiter.commit().expect("commit waiter");
    });
    await_parked(&mut holder);
    // The writer retries a parked statement every few milliseconds.
    std::thread::sleep(Duration::from_millis(100));
    holder.commit().expect("commit holder");
    waiter.join().expect("waiter thread");
    let stats = holder.stats().expect("stats");
    assert_eq!(stats.lock_waits, 1, "{stats:?}");
    assert_eq!(stats.txn_committed, 2);
    holder.shutdown().expect("shutdown");
    running.join().expect("server thread").expect("run");
}

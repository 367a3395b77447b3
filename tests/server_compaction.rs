//! The background compactor end to end over TCP: the server must bound
//! theory growth under a sustained client update stream without changing
//! one answer — also while transactions straddle every round — and a
//! client that pins a snapshot and goes silent must not keep its
//! generation alive past the idle-timeout reap.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use winslett::db::persist::DependencyDump;
use winslett::db::{
    apply_op, DbError, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, Op, SyncPolicy,
    WalOptions,
};
use winslett_serve::{Client, CompactionPolicy, Server, ServerOptions};

struct Running {
    handle: JoinHandle<Result<MemStorage, DbError>>,
    addr: SocketAddr,
}

fn wal_options() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::Manual,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

fn boot(options: ServerOptions) -> Running {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        wal_options(),
        options,
    )
    .expect("bind");
    let addr = server.local_addr();
    Running {
        handle: std::thread::spawn(move || server.run()),
        addr,
    }
}

fn shut_down(running: Running) -> MemStorage {
    let mut c = Client::connect(running.addr).expect("shutdown connect");
    c.shutdown().expect("shutdown");
    running.handle.join().expect("join").expect("run")
}

/// An eager compactor: no size floor, tiny poll interval, so a test-sized
/// theory triggers rounds within milliseconds.
fn eager_compaction() -> CompactionPolicy {
    CompactionPolicy {
        growth_factor: 1.2,
        min_nodes: 8,
        max_lsn_lag: 64,
        poll_interval: Duration::from_millis(2),
    }
}

/// Two clients run overlapping transactions, so one is always open
/// whenever the compactor captures, swaps or checkpoints, while a third
/// sends plain writes. Every round must install and checkpoint, and the
/// served and recovered verdicts must equal a serial replay of the
/// committed units in commit order.
#[test]
fn compaction_installs_and_checkpoints_under_overlapping_transactions() {
    let running = boot(ServerOptions {
        compaction: Some(eager_compaction()),
        ..ServerOptions::default()
    });
    let connect = || Client::connect(running.addr).expect("connect");
    let (mut x, mut y, mut plain) = (connect(), connect(), connect());
    let relations = [("A", 2), ("B", 2), ("P", 2)];
    for (name, arity) in relations {
        plain.declare_relation(name, arity as u64).expect("declare");
    }
    let first = |rel: &str, i: usize| format!("INSERT {rel}({i},0) | {rel}({i},1) WHERE T");
    let second = |rel: &str, i: usize| format!("MODIFY {rel}({i},0) TO BE {rel}({i},2) WHERE T");
    // Committed units as (acknowledged LSN, statements).
    let mut units: Vec<(u64, Vec<String>)> = Vec::new();
    let (mut in_x, mut in_y) = (Vec::new(), Vec::new());
    x.begin().expect("begin x");
    txn_exec(&mut x, first("A", 0), &mut in_x);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut laps = 0;
    let stats = loop {
        // `x` is open on entry; `y` opens before `x` commits, and `x`
        // reopens before `y` commits.
        y.begin().expect("begin y");
        txn_exec(&mut y, first("B", laps), &mut in_y);
        let src = first("P", laps);
        units.push((plain.execute(&src).expect("plain").lsn, vec![src]));
        txn_exec(&mut x, second("A", laps), &mut in_x);
        units.push((x.commit().expect("commit x").lsn, std::mem::take(&mut in_x)));
        x.begin().expect("begin x");
        txn_exec(&mut x, first("A", laps + 1), &mut in_x);
        let src = second("P", laps);
        units.push((plain.execute(&src).expect("plain").lsn, vec![src]));
        txn_exec(&mut y, second("B", laps), &mut in_y);
        units.push((y.commit().expect("commit y").lsn, std::mem::take(&mut in_y)));
        laps += 1;
        let stats = plain.stats().expect("stats");
        if (laps >= 8 && stats.compactions >= 3) || Instant::now() > deadline {
            break stats;
        }
    };
    assert!(stats.compactions > 0, "compactor never installed");
    assert_eq!(stats.compaction_aborts, 0, "a swap was refused");
    // Auto-checkpoints are off, so every checkpoint is a swap's.
    assert_eq!(
        stats.wal_checkpoints, stats.compactions,
        "a swap skipped its checkpoint"
    );
    txn_exec(&mut x, second("A", laps), &mut in_x);
    units.push((x.commit().expect("commit x").lsn, in_x));

    let mut replay = LogicalDatabase::new();
    for (name, arity) in relations {
        replay.declare_relation(name, arity).expect("declare");
    }
    units.sort_by_key(|(lsn, _)| *lsn);
    for src in units.iter().flat_map(|(_, stmts)| stmts) {
        replay.execute(src).expect("serial replay");
    }
    // An atom over a constant the database never saw is a parse error on
    // every side; it reads as (not certain, not possible).
    let probes: Vec<String> = ["A", "B", "P"]
        .iter()
        .flat_map(|rel| {
            (0..=laps).flat_map(move |i| (0..3).map(move |v| format!("{rel}({i},{v})")))
        })
        .collect();
    let want: Vec<_> = probes.iter().map(|wff| verdict(&mut replay, wff)).collect();
    let served: Vec<_> = probes
        .iter()
        .map(|wff| {
            plain
                .check(wff)
                .map_or((false, false), |t| (t.certain, t.possible))
        })
        .collect();
    assert_eq!(
        served, want,
        "served verdicts differ from the serial replay"
    );
    drop((x, y, plain));
    let (mut reopened, report) =
        DurableDatabase::open(shut_down(running), DbOptions::default(), wal_options())
            .expect("reopen");
    assert_eq!(report.rolled_back, 0);
    let recovered: Vec<_> = probes
        .iter()
        .map(|wff| verdict(reopened.db_mut(), wff))
        .collect();
    assert_eq!(
        recovered, want,
        "recovered verdicts differ from the serial replay"
    );
}

/// A relation typed by two attributes under a functional dependency,
/// declared over the wire: every round compacts a theory carrying GUA's
/// Step 5–6 axiom instances, and its answers must not move.
#[test]
fn compaction_of_an_fd_typed_relation_matches_serial_replay() {
    let running = boot(ServerOptions {
        compaction: Some(eager_compaction()),
        ..ServerOptions::default()
    });
    let mut c = Client::connect(running.addr).expect("connect");
    let setup = vec![
        Op::DeclareRelation("Flag".into(), 1),
        Op::DeclareAttribute("Part".into()),
        Op::DeclareAttribute("Cost".into()),
        Op::DeclareTypedRelation("Price".into(), vec!["Part".into(), "Cost".into()]),
        Op::AddDependency(DependencyDump::functional("fd", "Price", 2, &[0]).expect("fd")),
    ];
    for op in &setup {
        c.write(op.clone()).expect("setup write");
    }
    let mut units: Vec<(u64, Vec<String>)> = Vec::new();
    let src = "INSERT Flag(0) | Flag(1) WHERE T".to_owned();
    units.push((c.execute(&src).expect("flag").lsn, vec![src]));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut laps = 0;
    let stats = loop {
        let k = laps;
        let src = format!("INSERT Price({k},10) | Price({k},12) WHERE Flag({})", k % 2);
        units.push((c.execute(&src).expect("priced insert").lsn, vec![src]));
        c.begin().expect("begin");
        let mut stmts = Vec::new();
        txn_exec(
            &mut c,
            format!("MODIFY Price({k},10) TO BE Price({k},11) WHERE T"),
            &mut stmts,
        );
        txn_exec(
            &mut c,
            format!("DELETE Price({k},12) WHERE Flag(0)"),
            &mut stmts,
        );
        units.push((c.commit().expect("commit").lsn, stmts));
        laps += 1;
        let stats = c.stats().expect("stats");
        if (laps >= 6 && stats.compactions >= 2) || Instant::now() > deadline {
            break stats;
        }
    };
    assert!(stats.compactions > 0, "compactor never installed");
    assert_eq!(stats.compaction_aborts, 0, "a swap was refused");

    let mut replay = LogicalDatabase::new();
    for op in &setup {
        apply_op(&mut replay, op).expect("setup replays");
    }
    units.sort_by_key(|(lsn, _)| *lsn);
    for src in units.iter().flat_map(|(_, stmts)| stmts) {
        replay.execute(src).expect("serial replay");
    }
    let probes: Vec<String> = (0..laps)
        .flat_map(|k| {
            let cost = |v| format!("Price({k},{v})");
            [
                cost(10),
                cost(11),
                cost(12),
                format!("Part({k})"),
                format!("Flag({})", k % 2),
            ]
        })
        .collect();
    let want: Vec<_> = probes.iter().map(|wff| verdict(&mut replay, wff)).collect();
    let served: Vec<_> = probes
        .iter()
        .map(|wff| {
            c.check(wff)
                .map_or((false, false), |t| (t.certain, t.possible))
        })
        .collect();
    assert_eq!(
        served, want,
        "served verdicts differ from the serial replay"
    );
    drop(c);
    let (mut reopened, _) =
        DurableDatabase::open(shut_down(running), DbOptions::default(), wal_options())
            .expect("reopen");
    let recovered: Vec<_> = probes
        .iter()
        .map(|wff| verdict(reopened.db_mut(), wff))
        .collect();
    assert_eq!(
        recovered, want,
        "recovered verdicts differ from the serial replay"
    );
}

/// Executes `src` inside `c`'s open transaction and records it.
fn txn_exec(c: &mut Client, src: String, stmts: &mut Vec<String>) {
    c.execute(&src).expect("transactional statement");
    stmts.push(src);
}

/// (certain, possible) for `wff`, both false when it does not parse.
fn verdict(db: &mut LogicalDatabase, wff: &str) -> (bool, bool) {
    (
        db.is_certain(wff).unwrap_or(false),
        db.is_possible(wff).unwrap_or(false),
    )
}

#[test]
fn compactor_bounds_growth_under_client_load_without_changing_answers() {
    let running = boot(ServerOptions {
        compaction: Some(eager_compaction()),
        ..ServerOptions::default()
    });
    let mut c = Client::connect(running.addr).expect("connect");
    c.declare_relation("Item", 2).expect("declare");
    c.declare_relation("Flag", 1).expect("declare");
    c.execute("INSERT Flag(0) | Flag(1) WHERE T").expect("seed");

    // The growth workload: conditional churn under persistent uncertainty,
    // with a known certain resolution at the end of each lap.
    for lap in 0..6 {
        for k in 0..4 {
            c.execute(&format!("INSERT Item({k},v0) WHERE Flag({})", k % 2))
                .expect("insert");
            c.execute(&format!(
                "MODIFY Item({k},v0) TO BE Item({k},v1) WHERE Flag({})",
                k % 2
            ))
            .expect("modify");
        }
        c.execute(&format!("ASSERT Flag({})", lap % 2))
            .expect("assert");
        c.execute(&format!(
            "INSERT Flag({}) | !Flag({}) WHERE T",
            lap % 2,
            (lap + 1) % 2
        ))
        .expect("reopen");
    }

    // ASSERT Flag(lap) resolved every conditional on that flag: the final
    // lap's items must have become certainly v1.
    let verdict = c.check("Item(0,v1)").expect("check");
    assert!(verdict.certain, "resolved MODIFY must be certain");
    let verdict = c.check("Item(0,v0)").expect("check");
    assert!(!verdict.possible, "overwritten value must be impossible");

    // The compactor runs on its own clock; give it a bounded window to
    // observe the growth and swap at least once.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = c.stats().expect("stats");
        if stats.compactions > 0 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(stats.compactions > 0, "compactor never ran");
    assert!(stats.compaction_nodes_reclaimed > 0, "no nodes reclaimed");
    assert_eq!(stats.compaction_aborts, 0, "a swap aborted");

    // Same verdicts from the compacted theory.
    let verdict = c.check("Item(0,v1)").expect("check after compaction");
    assert!(verdict.certain);
    let verdict = c.check("Item(0,v0)").expect("check after compaction");
    assert!(!verdict.possible);
    drop(c);
    shut_down(running);
}

#[test]
fn silent_pinned_client_is_reaped_and_releases_its_generation() {
    let running = boot(ServerOptions {
        idle_timeout: Duration::from_millis(300),
        compaction: None,
        ..ServerOptions::default()
    });
    let mut watcher = Client::connect(running.addr).expect("watcher connect");
    watcher.declare_relation("R", 1).expect("declare");
    watcher
        .execute("INSERT R(a) | R(b) WHERE T")
        .expect("write");

    let mut pinner = Client::connect(running.addr).expect("pinner connect");
    let snap = pinner.pin().expect("pin");
    assert!(snap.generation > 0);
    let stats = watcher.stats().expect("stats");
    assert_eq!(stats.pinned_generations, 1, "pin must raise the gauge");

    // The pinner goes silent without Unpin. The idle reaper must close the
    // connection and its Drop must release the pinned generation.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = watcher.stats().expect("stats");
        if stats.pinned_generations == 0 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        stats.pinned_generations, 0,
        "reaped connection left its snapshot pinned"
    );
    assert!(stats.idle_closes >= 1, "idle reaper never fired");
    drop(pinner);
    drop(watcher);
    shut_down(running);
}

#[test]
fn explicit_unpin_lowers_the_gauge_and_repin_does_not_double_count() {
    let running = boot(ServerOptions {
        compaction: None,
        ..ServerOptions::default()
    });
    let mut c = Client::connect(running.addr).expect("connect");
    c.declare_relation("R", 1).expect("declare");
    c.execute("INSERT R(a) WHERE T").expect("write");

    c.pin().expect("pin");
    c.pin().expect("re-pin replaces, not stacks");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.pinned_generations, 1);

    c.unpin().expect("unpin");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.pinned_generations, 0);

    // Unpin when nothing is pinned must not underflow the gauge.
    c.unpin().expect("idempotent unpin");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.pinned_generations, 0);
    drop(c);
    shut_down(running);
}

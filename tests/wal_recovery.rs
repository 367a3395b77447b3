//! Fault-injection tests for the WAL: the atomicity invariant.
//!
//! A [`FailpointStorage`] kills writes at a chosen byte. For a fixed
//! multi-update script we crash at **every** byte boundary the script ever
//! writes, recover from the surviving image, and check — via
//! [`WorldsEngine`] — that the recovered theory's alternative-world set
//! equals the world set after some *prefix* of the acknowledged
//! operations: pre-update or post-update for each update, never a third
//! state. A proptest repeats the check over randomized scripts and kill
//! points, including with aggressive auto-compaction so crashes land
//! inside checkpoints too. The scripts declare a relation typed by
//! attributes and under a functional dependency, so recovery also
//! replays GUA's type- and dependency-axiom steps (§3.5). Random scripts
//! also carry ops the database journals and then refuses: each must
//! leave the theory as it found it, and a crash between such an intent
//! and its abort record must still recover a prefix state.

use proptest::prelude::*;
use std::collections::BTreeSet;
use winslett::db::persist::{dump_theory, DependencyDump, TheoryDump};
use winslett::db::wal::{
    DurableDatabase, FailpointStorage, MemStorage, Storage, SyncPolicy, WalOptions,
};
use winslett::db::{DbOptions, LogicalDatabase};
use winslett::logic::ModelLimit;
use winslett::worlds::WorldsEngine;

/// One scripted operation against a durable database.
#[derive(Clone, Copy, Debug)]
enum Op {
    DeclareRelation(&'static str, usize),
    DeclareAttribute(&'static str),
    /// A relation typed by the named attributes, one per column.
    DeclareTypedRelation(&'static str, &'static [&'static str]),
    /// A functional dependency on the named relation's key columns.
    AddFd(&'static str, &'static [usize]),
    LoadFact(&'static str, &'static [&'static str]),
    Exec(&'static str),
    /// An LDML statement run with the formula store at its capacity
    /// ceiling, lifted again right after.
    ExecAtCeiling(&'static str),
    Checkpoint,
    /// An op the database journals and then refuses.
    Refused(&'static Op),
}

fn apply_op<S: Storage>(
    ddb: &mut DurableDatabase<S>,
    op: &Op,
) -> Result<(), winslett::db::DbError> {
    use winslett::db::Op as Write;
    match op {
        Op::DeclareRelation(name, arity) => ddb.declare_relation(name, *arity).map(|_| ()),
        Op::DeclareAttribute(name) => ddb
            .apply(Write::DeclareAttribute(name.to_string()))
            .map(drop),
        Op::DeclareTypedRelation(name, attrs) => {
            let attrs = attrs.iter().map(|a| a.to_string()).collect();
            ddb.apply(Write::DeclareTypedRelation(name.to_string(), attrs))
                .map(drop)
        }
        Op::AddFd(name, key) => {
            // Scripts declare a relation before naming it, and a run
            // stops at its first failed op, so the lookup cannot miss.
            let vocab = &ddb.db().theory().vocab;
            let p = vocab
                .find_predicate(name)
                .expect("declared earlier in the script");
            let fd = DependencyDump::functional("fd", name, vocab.predicate(p).arity, key)?;
            ddb.apply(Write::AddDependency(fd)).map(drop)
        }
        Op::LoadFact(pred, args) => ddb.load_fact(pred, args).map(|_| ()),
        Op::Exec(src) => ddb.execute(src).map(|_| ()),
        Op::ExecAtCeiling(src) => {
            let len = ddb.db().theory().store.len() as u32;
            ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
            let result = ddb.execute(src).map(|_| ());
            ddb.db_mut()
                .theory_mut()
                .store
                .set_capacity(u32::MAX, u32::MAX);
            result
        }
        Op::Checkpoint => ddb.checkpoint(),
        Op::Refused(op) => apply_op(ddb, op),
    }
}

/// The alternative-world set, materialized through the worlds engine and
/// rendered name-based (atom ids differ across restores).
fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
    let engine = WorldsEngine::from_theory(db.theory(), ModelLimit::default())
        .expect("world materialization");
    engine
        .worlds()
        .iter()
        .map(|w| db.theory().format_world(w))
        .collect()
}

/// What a refused op must leave as it found it: the store's wffs, the
/// registry, the schema and the dependencies (all in the dump), and the
/// worlds.
fn fingerprint(db: &LogicalDatabase) -> (TheoryDump, BTreeSet<Vec<String>>) {
    (dump_theory(db.theory()), world_set(db))
}

/// Crash-free probe run: returns every prefix state's world set (the set
/// of *legal* recovery outcomes) and the total bytes the script writes.
/// A refused op's state is the one before it. The store's ceiling lives
/// in the process, not in the log, so a crash between an
/// [`Op::ExecAtCeiling`] intent and its abort record leaves the intent as
/// the log's tail, and recovery applies it like any op in flight at a
/// crash: that state is legal too.
fn probe(script: &[Op], wal_options: WalOptions) -> (Vec<BTreeSet<Vec<String>>>, u64) {
    let storage = FailpointStorage::unlimited();
    let handle = storage.clone();
    let (mut ddb, _) =
        DurableDatabase::open(storage, DbOptions::default(), wal_options).expect("probe open");
    let mut states = vec![world_set(ddb.db())];
    for op in script {
        let before = fingerprint(ddb.db());
        let result = apply_op(&mut ddb, op);
        match op {
            Op::Refused(inner) => {
                assert!(result.is_err(), "{inner:?} was not refused");
                assert_eq!(
                    fingerprint(ddb.db()),
                    before,
                    "refused {inner:?} changed the theory"
                );
                if let Op::ExecAtCeiling(src) = inner {
                    let mut in_flight = ddb.db().clone();
                    in_flight.execute(src).expect("applies without the ceiling");
                    states.push(world_set(&in_flight));
                }
            }
            _ => result.expect("probe op"),
        }
        states.push(world_set(ddb.db()));
    }
    ddb.sync().expect("probe sync");
    (states, handle.bytes_written())
}

/// Runs the script against storage that crashes after `kill` bytes and
/// returns the surviving on-disk image.
fn run_with_kill(script: &[Op], kill: u64, wal_options: WalOptions) -> MemStorage {
    let storage = FailpointStorage::new(kill);
    let handle = storage.clone();
    if let Ok((mut ddb, _)) = DurableDatabase::open(storage, DbOptions::default(), wal_options) {
        for op in script {
            if apply_op(&mut ddb, op).is_err() && !matches!(op, Op::Refused(_)) {
                break;
            }
        }
        let _ = ddb.sync();
    }
    handle.survivor()
}

/// The invariant: recovery from the survivor of a crash at `kill` bytes
/// must land on some prefix state — never a third state — and the
/// recovered database must keep working.
fn assert_atomic_at(
    script: &[Op],
    kill: u64,
    wal_options: WalOptions,
    legal: &[BTreeSet<Vec<String>>],
) {
    let survivor = run_with_kill(script, kill, wal_options);
    let (recovered, report) = DurableDatabase::open(survivor, DbOptions::default(), wal_options)
        .unwrap_or_else(|e| panic!("kill at byte {kill}: recovery failed: {e}"));
    let recovered_worlds = world_set(recovered.db());
    assert!(
        legal.contains(&recovered_worlds),
        "kill at byte {kill}: recovered a third state.\n report: {report:?}\n worlds: {recovered_worlds:?}\n legal: {legal:?}"
    );
}

/// The fixed multi-update script of the exhaustive sweep: schema (with
/// `Price` typed by two attributes and under a functional dependency),
/// facts, then updates of all four LDML operators, including branching
/// inserts and updates that instantiate the type and dependency axioms.
const SCRIPT: &[Op] = &[
    Op::DeclareRelation("Orders", 3),
    Op::DeclareRelation("InStock", 2),
    Op::DeclareAttribute("Part"),
    Op::DeclareAttribute("Cost"),
    Op::DeclareTypedRelation("Price", &["Part", "Cost"]),
    Op::AddFd("Price", &[0]),
    Op::LoadFact("Orders", &["700", "32", "9"]),
    Op::LoadFact("InStock", &["32", "1"]),
    Op::Exec("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T"),
    Op::Exec("INSERT Price(32,10) | Price(32,12) WHERE T"),
    Op::Exec("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE InStock(32,1)"),
    Op::Exec("INSERT Price(32,12) WHERE InStock(32,1)"),
    Op::Exec("ASSERT !Orders(100,32,7)"),
    Op::Exec("MODIFY Price(32,12) TO BE Price(32,11) WHERE T"),
    Op::Exec("DELETE Cost(10) WHERE T"),
    Op::Exec("DELETE InStock(32,1) WHERE T"),
];

/// The leading ops of [`SCRIPT`] that declare the schema and axioms and
/// load the facts.
const SETUP: usize = 8;

fn nocompact() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

fn compact_aggressively() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::Manual,
        compact_growth_factor: Some(1.05),
        compact_min_nodes: 1,
    }
}

#[test]
fn exhaustive_kill_points_recover_to_a_prefix_state() {
    let (legal, total) = probe(SCRIPT, nocompact());
    assert!(total > 0);
    // Every byte boundary the script ever writes, kill point 0 (nothing
    // survives) through total (clean shutdown) inclusive.
    for kill in 0..=total {
        assert_atomic_at(SCRIPT, kill, nocompact(), &legal);
    }
}

#[test]
fn kill_points_inside_checkpoints_recover_to_a_prefix_state() {
    // Aggressive auto-compaction interleaves snapshot replaces and WAL
    // resets with the appends; crashes land in every checkpoint window.
    // Coarser stride (plus both endpoints) keeps the debug-build runtime
    // reasonable; the windows are hundreds of bytes wide, so stride 7
    // still lands several kills inside each.
    let wal_options = compact_aggressively();
    let (legal, total) = probe(SCRIPT, wal_options);
    let mut kills: Vec<u64> = (0..=total).step_by(7).collect();
    kills.push(total);
    for kill in kills {
        assert_atomic_at(SCRIPT, kill, wal_options, &legal);
    }
}

#[test]
fn explicit_checkpoint_mid_script_is_crash_safe() {
    // The checkpoint falls between the two `Price` inserts, so recovery
    // replays the second one onto the restored snapshot.
    let script: Vec<Op> = {
        let mut v = SCRIPT[..SETUP + 2].to_vec();
        v.push(Op::Checkpoint);
        v.extend_from_slice(&SCRIPT[SETUP + 2..]);
        v
    };
    let (legal, total) = probe(&script, nocompact());
    let mut kills: Vec<u64> = (0..=total).step_by(5).collect();
    kills.push(total);
    for kill in kills {
        assert_atomic_at(&script, kill, nocompact(), &legal);
    }
}

#[test]
fn kill_points_around_refused_ops_recover_to_a_prefix_state() {
    // Every kill byte, so crashes land between each refused op's intent
    // and its abort record.
    let mut script: Vec<Op> = SCRIPT[..SETUP].to_vec();
    script.extend(OP_POOL.iter().filter(|op| matches!(op, Op::Refused(_))));
    script.push(Op::Exec("INSERT InStock(33,5) WHERE T"));
    let (legal, total) = probe(&script, nocompact());
    for kill in 0..=total {
        assert_atomic_at(&script, kill, nocompact(), &legal);
    }
}

/// Pool of independent operations for randomized scripts (each is valid,
/// or refused, whatever subset precedes it, so every prefix is a legal
/// state).
const OP_POOL: &[Op] = &[
    Op::Exec("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T"),
    Op::Exec("INSERT InStock(33,5) WHERE T"),
    Op::Exec("DELETE Orders(700,32,9) WHERE T"),
    Op::Exec("MODIFY InStock(32,1) TO BE InStock(32,0) WHERE T"),
    Op::Exec("ASSERT Orders(700,32,9) | !Orders(700,32,9)"),
    Op::Exec("INSERT Orders(200,40,2) WHERE InStock(32,1)"),
    Op::Exec("INSERT Price(32,10) | Price(32,12) WHERE T"),
    Op::Exec("INSERT Price(32,12) WHERE InStock(32,1)"),
    Op::Exec("MODIFY Price(32,12) TO BE Price(32,11) WHERE T"),
    Op::Exec("DELETE Cost(10) WHERE T"),
    Op::Checkpoint,
    Op::Refused(&Op::LoadFact("Ghost", &["1"])),
    Op::Refused(&Op::DeclareTypedRelation("Ledger", &["Orders"])),
    Op::Refused(&Op::DeclareRelation("Orders", 2)),
    Op::Refused(&Op::ExecAtCeiling("INSERT InStock(33,6) WHERE T")),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The atomicity invariant over random scripts, kill points, sync
    /// policies, and compaction settings.
    #[test]
    fn any_crash_recovers_to_a_prefix_state(
        ops in prop::collection::vec(0..OP_POOL.len(), 1..6),
        kill_permille in 0u64..=1000,
        manual in any::<bool>(),
        compact in any::<bool>(),
    ) {
        let mut script: Vec<Op> = SCRIPT[..SETUP].to_vec(); // schema, axioms, facts
        script.extend(ops.iter().map(|&i| OP_POOL[i]));
        let wal_options = WalOptions {
            policy: if manual { SyncPolicy::Manual } else { SyncPolicy::EveryRecord },
            compact_growth_factor: if compact { Some(1.1) } else { None },
            compact_min_nodes: 1,
        };
        let (legal, total) = probe(&script, wal_options);
        let kill = total * kill_permille / 1000;
        assert_atomic_at(&script, kill, wal_options, &legal);
    }
}

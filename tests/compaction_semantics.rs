//! Compaction must be semantically invisible: a database that runs the
//! three-phase swap (`begin_compaction` → off-line `Full` simplify →
//! `install_compacted`) mid-stream — with writes racing the capture
//! window — must be observationally indistinguishable from one that ran
//! the same statements with no compaction at all. Randomized over LDML
//! scripts, compaction points, and racing-write counts. The vocabulary
//! includes a relation typed by attributes and under a functional
//! dependency, so the replayed tail runs GUA's axiom steps (§3.5).
//!
//! "Indistinguishable" is checked three ways per case: identical
//! alternative-world sets (name-based), identical certain/possible
//! verdicts over a probe panel covering the whole vocabulary, and
//! statement-by-statement agreement on which updates were accepted.
//! The swap must also strictly advance the theory generation, so pinned
//! stale sessions can never alias a compacted snapshot.

use proptest::prelude::*;
use std::collections::BTreeSet;
use winslett::db::persist::DependencyDump;
use winslett::db::wal::{DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett::db::DbOptions;
use winslett::db::Op as Write;
use winslett::gua::{simplify, SimplifyLevel};

const ITEMS: usize = 4;
const FLAGS: usize = 2;
/// Keys and costs of the typed `Price(Part, Cost)` relation, whose key
/// determines its cost.
const PRICES: usize = 2;

/// One statement of the random script, realized against the fixed
/// Item/Flag/Price vocabulary.
#[derive(Clone, Debug)]
enum Op {
    InsertWhere(usize, usize),
    InsertEither(usize, usize),
    Delete(usize, usize),
    Modify(usize, usize, usize),
    Assert(usize),
    Reopen(usize, usize),
    PriceWhere(usize, usize, usize),
    PriceEither(usize, usize, usize),
    Uncost(usize, usize),
}

impl Op {
    fn render(&self) -> String {
        match *self {
            Op::InsertWhere(k, f) => format!("INSERT Item({k}) WHERE Flag({f})"),
            Op::InsertEither(k, k2) => format!("INSERT Item({k}) | Item({k2}) WHERE T"),
            Op::Delete(k, f) => format!("DELETE Item({k}) WHERE Flag({f})"),
            Op::Modify(k, k2, f) => format!("MODIFY Item({k}) TO BE Item({k2}) WHERE Flag({f})"),
            Op::Assert(f) => format!("ASSERT Flag({f})"),
            Op::Reopen(f, f2) => format!("INSERT Flag({f}) | !Flag({f2}) WHERE T"),
            Op::PriceWhere(k, c, f) => format!("INSERT Price({k},{c}) WHERE Flag({f})"),
            Op::PriceEither(k, c, c2) => format!("INSERT Price({k},{c}) | Price({k},{c2}) WHERE T"),
            Op::Uncost(c, f) => format!("DELETE Cost({c}) WHERE Flag({f})"),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ITEMS, 0..FLAGS).prop_map(|(k, f)| Op::InsertWhere(k, f)),
        (0..ITEMS, 0..ITEMS).prop_map(|(k, k2)| Op::InsertEither(k, k2)),
        (0..ITEMS, 0..FLAGS).prop_map(|(k, f)| Op::Delete(k, f)),
        (0..ITEMS, 0..ITEMS, 0..FLAGS).prop_map(|(k, k2, f)| Op::Modify(k, k2, f)),
        (0..FLAGS).prop_map(Op::Assert),
        (0..FLAGS, 0..FLAGS).prop_map(|(f, f2)| Op::Reopen(f, f2)),
        (0..PRICES, 0..PRICES, 0..FLAGS).prop_map(|(k, c, f)| Op::PriceWhere(k, c, f)),
        (0..PRICES, 0..PRICES, 0..PRICES).prop_map(|(k, c, c2)| Op::PriceEither(k, c, c2)),
        (0..PRICES, 0..FLAGS).prop_map(|(c, f)| Op::Uncost(c, f)),
    ]
}

fn open_db() -> DurableDatabase<MemStorage> {
    let options = WalOptions {
        policy: SyncPolicy::Manual,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    };
    let (mut ddb, _) =
        DurableDatabase::open(MemStorage::new(), DbOptions::default(), options).unwrap();
    ddb.declare_relation("Item", 1).unwrap();
    ddb.declare_relation("Flag", 1).unwrap();
    let fd = DependencyDump::functional("fd", "Price", 2, &[0]).unwrap();
    for op in [
        Write::DeclareAttribute("Part".into()),
        Write::DeclareAttribute("Cost".into()),
        Write::DeclareTypedRelation("Price".into(), vec!["Part".into(), "Cost".into()]),
        Write::AddDependency(fd),
    ] {
        ddb.apply(op).unwrap();
    }
    for k in 0..ITEMS {
        ddb.db_mut().theory_mut().constant(&k.to_string());
    }
    // Seed uncertainty so conditional updates have something to split on.
    ddb.execute("INSERT Flag(0) | Flag(1) WHERE T").unwrap();
    ddb
}

/// Certain/possible verdicts over every Item, Flag, Price and attribute
/// atom.
fn panel_verdicts(ddb: &mut DurableDatabase<MemStorage>) -> Vec<(bool, bool)> {
    let mut out = Vec::new();
    for src in (0..ITEMS)
        .map(|k| format!("Item({k})"))
        .chain((0..FLAGS).map(|f| format!("Flag({f})")))
        .chain((0..PRICES * PRICES).map(|i| format!("Price({},{})", i / PRICES, i % PRICES)))
        .chain((0..PRICES).flat_map(|c| [format!("Part({c})"), format!("Cost({c})")]))
    {
        out.push((
            ddb.db_mut().is_certain(&src).unwrap(),
            ddb.db_mut().is_possible(&src).unwrap(),
        ));
    }
    out
}

fn world_set(ddb: &DurableDatabase<MemStorage>) -> BTreeSet<Vec<String>> {
    ddb.db().world_names().unwrap().into_iter().collect()
}

/// A compaction must never install a bigger store than it captured. This
/// workload is the adversarial case for the spanning predicate-constant
/// pass: every update is conditioned on a disjunction that is never
/// resolved, so the chained history constants are genuinely entangled and
/// their Shannon expansions do not fold. `simplify` must detect that the
/// cascade went net-negative and revert to the best state it saw, making
/// the whole round a no-op rather than a pessimization.
#[test]
fn compaction_never_installs_a_bigger_store() {
    let mut ddb = open_db();
    for i in 0..40 {
        ddb.execute(&format!(
            "INSERT Item({}) WHERE Flag({})",
            i % ITEMS,
            i % FLAGS
        ))
        .unwrap();
        ddb.execute(&format!(
            "DELETE Item({}) WHERE Flag({})",
            i % ITEMS,
            (i + 1) % FLAGS
        ))
        .unwrap();
    }
    let worlds_before = world_set(&ddb);
    let (mut copy, from_lsn) = ddb.begin_compaction();
    simplify(&mut copy, SimplifyLevel::Full);
    let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
    assert!(
        outcome.nodes_after <= outcome.nodes_before,
        "compaction grew the store: {} -> {}",
        outcome.nodes_before,
        outcome.nodes_after
    );
    assert_eq!(
        world_set(&ddb),
        worlds_before,
        "compaction changed the worlds"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compaction_is_observationally_invisible(
        script in prop::collection::vec(op_strategy(), 1..20),
        split in 0..20usize,
        racing in 0..3usize,
    ) {
        let statements: Vec<String> = script.iter().map(Op::render).collect();
        let split = split.min(statements.len());
        let racing = racing.min(statements.len() - split);

        // Reference: the whole script, no compaction.
        let mut reference = open_db();
        let ref_accepted: Vec<bool> = statements
            .iter()
            .map(|s| reference.execute(s).is_ok())
            .collect();

        // Compacted: prefix, then a swap whose capture window admits
        // `racing` further statements, then the rest of the script.
        let mut compacted = open_db();
        let mut accepted = Vec::new();
        for s in &statements[..split] {
            accepted.push(compacted.execute(s).is_ok());
        }
        let generation_before = compacted.db().theory().generation();
        let (mut copy, from_lsn) = compacted.begin_compaction();
        for s in &statements[split..split + racing] {
            accepted.push(compacted.execute(s).is_ok());
        }
        simplify(&mut copy, SimplifyLevel::Full);
        let outcome = compacted.install_compacted(copy, from_lsn, false).unwrap();
        prop_assert!(
            outcome.generation_after > generation_before,
            "swap did not advance the generation: {generation_before} -> {}",
            outcome.generation_after
        );
        for s in &statements[split + racing..] {
            accepted.push(compacted.execute(s).is_ok());
        }

        prop_assert_eq!(
            &accepted, &ref_accepted,
            "accept/refuse decisions diverged on {:?}", statements
        );
        prop_assert_eq!(
            panel_verdicts(&mut compacted),
            panel_verdicts(&mut reference),
            "query verdicts diverged on {:?}", statements
        );
        prop_assert_eq!(
            world_set(&compacted),
            world_set(&reference),
            "alternative worlds diverged on {:?}", statements
        );
    }
}

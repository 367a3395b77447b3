//! End-to-end scenarios through the `LogicalDatabase` façade: textual DML,
//! incomplete information, queries, nulls, dependencies, and the replay
//! baseline — the workflows a downstream adopter would run.

use winslett::db::{
    DbOptions, DurableDatabase, LogicalDatabase, MemStorage, NullCatalog, NullableArg,
    ReplayDatabase, WalOptions,
};
use winslett::gua::SimplifyLevel;
use winslett::ldml::Update;
use winslett::logic::Wff;
use winslett::theory::Dependency;

fn order_db() -> LogicalDatabase {
    let mut db = LogicalDatabase::new();
    db.declare_relation("Orders", 3).unwrap();
    db.declare_relation("InStock", 2).unwrap();
    db.load_fact("Orders", &["700", "32", "9"]).unwrap();
    db.load_fact("Orders", &["701", "33", "2"]).unwrap();
    db.load_fact("InStock", &["32", "1"]).unwrap();
    db
}

#[test]
fn order_lifecycle() {
    let mut db = order_db();

    // A new order arrives, quantity uncertain between 10 and 100.
    db.execute("INSERT Orders(800,32,10) | Orders(800,32,100) WHERE T")
        .unwrap();
    assert!(db.is_possible("Orders(800,32,10)").unwrap());
    assert!(!db.is_certain("Orders(800,32,10)").unwrap());

    // Order 700 is amended where stock allows.
    db.execute("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE InStock(32,1)")
        .unwrap();
    assert!(db.is_certain("Orders(700,32,1)").unwrap());

    // The uncertainty resolves: it was 100 (and not 10).
    db.execute("ASSERT Orders(800,32,100) & !Orders(800,32,10)")
        .unwrap();
    assert!(db.is_certain("Orders(800,32,100)").unwrap());

    // All orders for part 32, now certain.
    let ans = db.query("Orders(?o, 32, ?q)").unwrap();
    assert_eq!(
        ans.certain,
        vec![
            vec!["700".to_string(), "1".to_string()],
            vec!["800".to_string(), "100".to_string()],
        ]
    );

    // Integrity-style constraint: no order without stock for its part.
    db.execute("INSERT F WHERE Orders(701,33,2) & !InStock(33,2)")
        .unwrap();
    // There's no InStock(33,2): every world had Orders(701,33,2), so the
    // database collapses to inconsistency — detected, not silent.
    assert!(!db.is_consistent());
}

#[test]
fn disjunctive_info_narrowing() {
    let mut db = order_db();
    // "one or more of a set of tuples holds true, without knowing which"
    db.load_wff("Orders(900,40,1) | Orders(900,41,1) | Orders(900,42,1)")
        .unwrap();
    let possible = db.query("Orders(900, ?p, 1)").unwrap().possible.len();
    assert_eq!(possible, 3);
    db.execute("ASSERT !Orders(900,41,1)").unwrap();
    let ans = db.query("Orders(900, ?p, 1)").unwrap();
    assert_eq!(ans.possible.len(), 2);
    assert!(ans.certain.is_empty());
    db.execute("ASSERT !Orders(900,42,1)").unwrap();
    let ans = db.query("Orders(900, ?p, 1)").unwrap();
    assert_eq!(ans.certain, vec![vec!["40".to_string()]]);
}

#[test]
fn null_value_workflow() {
    let mut db = order_db();
    let mut nulls = NullCatalog::new();
    nulls.declare("qty", &["5", "6", "7"]).unwrap();
    let update = nulls
        .expand_insert(
            db.theory_mut(),
            "Orders",
            &[
                NullableArg::parse("801"),
                NullableArg::parse("34"),
                NullableArg::parse("@qty"),
            ],
            Wff::t(),
        )
        .unwrap();
    db.update(&update).unwrap();
    let ans = db.query("Orders(801, 34, ?q)").unwrap();
    assert_eq!(ans.possible.len(), 3);
    assert!(ans.certain.is_empty());
    // Exactly-one semantics: the order certainly exists with *some* qty.
    assert!(db
        .is_certain("Orders(801,34,5) | Orders(801,34,6) | Orders(801,34,7)")
        .unwrap());
    assert!(!db
        .is_possible("Orders(801,34,5) & Orders(801,34,6)")
        .unwrap());
    // The null resolves.
    db.execute("ASSERT Orders(801,34,6)").unwrap();
    assert_eq!(
        db.query("Orders(801, 34, ?q)").unwrap().certain,
        vec![vec!["6".to_string()]]
    );
}

#[test]
fn functional_dependency_enforcement() {
    let mut db = LogicalDatabase::new();
    let p = db.declare_relation("Price", 2).unwrap();
    db.add_dependency(Dependency::functional("price-fd", p, 2, &[0]).unwrap());
    db.load_fact("Price", &["widget", "10"]).unwrap();
    // Inserting a conflicting price without removing the old one wipes
    // every world (rule 3 semantics; the paper's "weed out impossible
    // alternative worlds").
    let mut conflicted = db.clone();
    conflicted
        .execute("INSERT Price(widget,12) WHERE T")
        .unwrap();
    assert!(!conflicted.is_consistent());
    // The correct amendment replaces the tuple atomically.
    db.execute("INSERT Price(widget,12) & !Price(widget,10) WHERE T")
        .unwrap();
    assert!(db.is_consistent());
    assert!(db.is_certain("Price(widget,12)").unwrap());
    assert!(db.is_certain("!Price(widget,10)").unwrap());
}

#[test]
fn replay_database_agrees_with_eager() {
    let mut db = LogicalDatabase::with_options(DbOptions {
        simplify: SimplifyLevel::Full,
        ..DbOptions::default()
    });
    db.declare_relation("R", 1).unwrap();
    db.load_fact("R", &["a"]).unwrap();
    let initial = db.theory().clone();
    let mut replay = ReplayDatabase::new(initial);

    let scripts = [
        "INSERT R(b) | R(c) WHERE T",
        "DELETE R(a) WHERE T",
        "ASSERT R(b) | R(a)",
        "INSERT R(a) WHERE R(b)",
    ];
    for s in scripts {
        let update = db.parse_update(s).unwrap();
        db.update(&update).unwrap();
        replay.update_synced(update, db.theory()).unwrap();
    }
    for probe in ["R(a)", "R(b)", "R(c)", "R(a) & R(b)", "R(c) | R(b)"] {
        let wff = db.parse_wff_strict(probe).unwrap();
        assert_eq!(
            db.is_certain(probe).unwrap(),
            replay.is_certain(&wff).unwrap(),
            "certainty mismatch on {probe}"
        );
        assert_eq!(
            db.is_possible(probe).unwrap(),
            replay.is_possible(&wff).unwrap(),
            "possibility mismatch on {probe}"
        );
    }
    // The replayed theory (no simplification) is far larger than the
    // eagerly simplified one — the very gap E8 measures.
    let eager_nodes = db.stats().store_nodes;
    let replay_nodes = replay.materialized_stats().unwrap().store_nodes;
    assert!(
        replay_nodes > eager_nodes,
        "replay {replay_nodes} vs eager {eager_nodes}"
    );
}

#[test]
fn inconsistent_database_answers_are_degenerate() {
    let mut db = order_db();
    db.execute("ASSERT F").unwrap();
    assert!(!db.is_consistent());
    // Everything is certain, nothing is possible — the logic convention.
    assert!(db.is_certain("Orders(700,32,9)").unwrap());
    assert!(db.is_certain("!Orders(700,32,9)").unwrap());
    assert!(!db.is_possible("Orders(700,32,9)").unwrap());
    assert!(db.query("Orders(?o, ?p, ?q)").unwrap().possible.is_empty());
}

#[test]
fn update_errors_leave_log_clean() {
    let mut db = order_db();
    let before = db.stats();
    assert!(db.execute("INSERT Nope(1) WHERE T").is_err());
    assert!(db.execute("INSERT Orders(1,2) WHERE T").is_err()); // arity
    assert!(db.execute("FROBNICATE x WHERE T").is_err());
    // Refused statements add nothing to the theory (parsing may still
    // intern their constants and atoms).
    let after = db.stats();
    assert_eq!(after.store_nodes, before.store_nodes);
    assert_eq!(after.num_formulas, before.num_formulas);
    assert!(db.is_consistent());
}

#[test]
fn refused_statements_declare_no_predicate() {
    // The first statement carries a new constant, the second none: an
    // unknown predicate must be refused either way, and must not be
    // declared by the refusal so that a later statement could use it.
    const UNKNOWN: [&str; 2] = ["INSERT R(newc) WHERE Nope(a)", "INSERT R(a) WHERE Nope(a)"];
    let mut db = LogicalDatabase::new();
    db.declare_relation("R", 1).unwrap();
    db.load_fact("R", &["a"]).unwrap();
    let preds = db.theory().vocab.num_predicates();
    for src in UNKNOWN {
        assert!(db.execute(src).is_err(), "{src} was accepted");
        assert_eq!(db.theory().vocab.num_predicates(), preds, "{src}");
    }
    assert!(db.load_wff("Ghost(a) | R(a)").is_err());
    assert_eq!(db.theory().vocab.num_predicates(), preds);
    assert!(db.is_certain("Ghost(a)").is_err(), "Ghost/1 was declared");

    // The same through the journaled write path the server uses.
    let (mut ddb, _) = DurableDatabase::open(
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
    )
    .unwrap();
    ddb.declare_relation("R", 1).unwrap();
    ddb.load_fact("R", &["a"]).unwrap();
    let preds = ddb.db().theory().vocab.num_predicates();
    for src in UNKNOWN {
        assert!(ddb.execute(src).is_err(), "{src} was accepted");
        assert_eq!(ddb.db().theory().vocab.num_predicates(), preds, "{src}");
    }
}

#[test]
fn world_names_render_sorted() {
    let mut db = LogicalDatabase::new();
    db.declare_relation("R", 1).unwrap();
    db.load_wff("R(x) | R(y)").unwrap();
    let worlds = db.world_names().unwrap();
    assert_eq!(worlds.len(), 3);
    for w in &worlds {
        let mut sorted = w.clone();
        sorted.sort();
        assert_eq!(*w, sorted);
    }
}

#[test]
fn variable_updates_expand_and_apply_simultaneously() {
    let mut db = order_db();
    db.load_fact("Orders", &["702", "32", "4"]).unwrap();

    // Variable DELETE: remove all orders for part 32 at once.
    let (n, _) = db
        .execute_variable("DELETE Orders(?o, 32, ?q) WHERE T")
        .unwrap();
    assert_eq!(n, 2); // orders 700 and 702
    assert!(db.is_certain("!Orders(700,32,9)").unwrap());
    assert!(db.is_certain("!Orders(702,32,4)").unwrap());
    assert!(db.is_certain("Orders(701,33,2)").unwrap()); // untouched

    // Variable INSERT ranging over WHERE: flag every remaining order's
    // part as in stock at level 0. Bindings range over *registered* atoms
    // (3 instances — the deleted orders are still in the completion
    // axioms), but each instance's grounded φ guards applicability, so
    // only part 33 actually gets the flag.
    let (n, _) = db
        .execute_variable("INSERT InStock(?p, 0) WHERE Orders(?o, ?p, ?q)")
        .unwrap();
    assert_eq!(n, 3);
    assert!(db.is_certain("InStock(33,0)").unwrap());
    assert!(db.is_certain("!InStock(32,0)").unwrap());

    // Simultaneity matters: a swap-like MODIFY pair. Set up two tuples and
    // swap their quantities through a variable MODIFY — sequential
    // application would clobber.
    let mut db = LogicalDatabase::new();
    db.declare_relation("Q", 2).unwrap();
    db.load_fact("Q", &["a", "1"]).unwrap();
    db.load_fact("Q", &["b", "2"]).unwrap();
    let (n, _) = db
        .execute_variable("MODIFY Q(?x, 1) TO BE Q(?x, one) WHERE T")
        .unwrap();
    assert_eq!(n, 1);
    assert!(db.is_certain("Q(a,one)").unwrap());
    assert!(db.is_certain("!Q(a,1)").unwrap());
    assert!(db.is_certain("Q(b,2)").unwrap());
}

#[test]
fn variable_update_with_no_matches_is_noop() {
    let mut db = order_db();
    let before = db.world_names().unwrap();
    let (n, _) = db
        .execute_variable("DELETE Orders(?o, 99, ?q) WHERE T")
        .unwrap();
    assert_eq!(n, 0);
    assert_eq!(db.world_names().unwrap(), before);
}

#[test]
fn ast_level_updates_match_textual() {
    let mut db1 = order_db();
    let mut db2 = order_db();
    db1.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
    let t = db2
        .theory_mut()
        .atom_by_name("Orders", &["700", "32", "9"])
        .unwrap();
    db2.update(&Update::delete(t, Wff::t())).unwrap();
    assert_eq!(db1.world_names().unwrap(), db2.world_names().unwrap());
}

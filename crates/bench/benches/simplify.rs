//! E6 — the cost and payoff of §4 simplification.
//!
//! `churn/{level}` runs a fixed insert-disjunction + ASSERT churn at each
//! simplification level (the update-side price). `query_after_churn/{level}`
//! measures entailment latency on the resulting theory (the query-side
//! payoff: simplified theories answer much faster). `recovery_pass/fast`
//! times the one whole-store `Fast` pass WAL recovery runs after replay,
//! on a store of about 450 formulas and 2 800 nodes built unsimplified
//! from a fixed stream of pool statements — big enough for the pass's
//! per-formula costs to show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use winslett_core::{DbOptions, LogicalDatabase};
use winslett_gua::{simplify, GuaEngine, GuaOptions, SimplifyLevel};
use winslett_ldml::Update;
use winslett_logic::{AtomId, Formula, Wff};
use winslett_theory::Theory;

fn build() -> (Theory, Vec<AtomId>) {
    let mut t = Theory::new();
    let r = t.declare_relation("R", 1).expect("fresh");
    let mut ids = Vec::new();
    for i in 0..6 {
        let c = t.constant(&format!("c{i}"));
        let id = t.atom(r, &[c]);
        if i == 0 {
            t.assert_atom(id);
        } else {
            t.assert_not_atom(id);
        }
        ids.push(id);
    }
    (t, ids)
}

fn churn(engine: &mut GuaEngine, ids: &[AtomId], steps: usize) {
    for i in 0..steps {
        let a = ids[i % ids.len()];
        let b = ids[(i + 1) % ids.len()];
        engine
            .apply(&Update::insert(
                Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]),
                Wff::t(),
            ))
            .expect("applies");
        engine
            .apply(&Update::assert(Wff::Atom(ids[i % ids.len()])))
            .expect("applies");
    }
}

fn levels() -> [(&'static str, SimplifyLevel); 3] {
    [
        ("none", SimplifyLevel::None),
        ("fast", SimplifyLevel::Fast),
        ("full", SimplifyLevel::Full),
    ]
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn20");
    group.sample_size(20);
    for (label, level) in levels() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &level, |b, &level| {
            let (t, ids) = build();
            b.iter(|| {
                let mut engine = GuaEngine::new(t.clone(), GuaOptions::simplify_always(level));
                churn(&mut engine, &ids, 20);
                engine.theory.store.size_nodes()
            });
        });
    }
    group.finish();
}

fn bench_query_after_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_after_churn20");
    for (label, level) in levels() {
        let (t, ids) = build();
        let mut engine = GuaEngine::new(t, GuaOptions::simplify_always(level));
        churn(&mut engine, &ids, 20);
        let probe = Wff::or2(Wff::Atom(ids[0]), Wff::Atom(ids[1]));
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            b.iter(|| engine.theory.entails(&probe));
        });
    }
    group.finish();
}

/// Pools and atoms per pool of the recovery-shaped store.
const POOLS: usize = 4;
const POOL: usize = 6;
/// Pool statements replayed into it.
const STATEMENTS: usize = 216;

/// The unsimplified store WAL recovery replays before its one pass: every
/// pool atom loaded true, then [`STATEMENTS`] statements of six kinds
/// (plain, branching and conditional inserts and deletes, and MODIFY) in a
/// fixed pseudo-random order, applied at `SimplifyLevel::None`.
fn recovery_store() -> Theory {
    let mut db = LogicalDatabase::with_options(DbOptions {
        simplify: SimplifyLevel::None,
        ..DbOptions::default()
    });
    db.declare_relation("Pool", 2).expect("fresh");
    for w in 0..POOLS {
        for k in 0..POOL {
            db.load_fact("Pool", &[&w.to_string(), &k.to_string()])
                .expect("loads");
        }
    }
    // splitmix64 over a fixed seed.
    let mut state = 0x5EED_u64;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    for _ in 0..STATEMENTS {
        let w = below(POOLS);
        let k = below(POOL);
        let k2 = (k + 1 + below(POOL - 1)) % POOL;
        let src = match below(6) {
            0 | 1 => format!("INSERT Pool({w},{k}) WHERE T"),
            2 => format!("DELETE Pool({w},{k}) WHERE T"),
            3 => format!("INSERT Pool({w},{k}) | Pool({w},{k2}) WHERE T"),
            4 => format!("MODIFY Pool({w},{k}) TO BE Pool({w},{k2}) WHERE T"),
            _ => format!("DELETE Pool({w},{k}) WHERE Pool({w},{k2})"),
        };
        db.execute(&src).expect("applies");
    }
    db.theory().clone()
}

fn bench_recovery_pass(c: &mut Criterion) {
    let theory = recovery_store();
    println!(
        "recovery_pass store: {} formulas, {} nodes",
        theory.store.len(),
        theory.store.size_nodes()
    );
    let mut group = c.benchmark_group("recovery_pass");
    group.sample_size(20);
    group.bench_function("fast", |b| {
        b.iter(|| {
            let mut t = theory.clone();
            simplify(&mut t, SimplifyLevel::Fast).nodes_after
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_churn,
    bench_query_after_churn,
    bench_recovery_pass
);
criterion_main!(benches);

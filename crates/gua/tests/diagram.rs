//! Theorem 1 and Theorem 5 as randomized executable properties:
//! GUA's output theory must represent exactly the alternative worlds
//! obtained by updating every alternative world individually (the §3.2
//! commutative diagram), with and without type/dependency axioms.

use winslett_gua::{GuaEngine, GuaOptions, SimplifyLevel};
use winslett_ldml::Update;
use winslett_logic::{AtomId, Formula, ModelLimit, Wff};
use winslett_theory::{Dependency, Theory};
use winslett_worlds::check_commutes;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_wff(rng: &mut Rng, ids: &[AtomId], depth: usize) -> Wff {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(8) {
            0 => Wff::t(),
            1 => Wff::f(),
            _ => {
                let a = Wff::Atom(ids[rng.below(ids.len())]);
                if rng.below(2) == 0 {
                    a
                } else {
                    a.not()
                }
            }
        };
    }
    match rng.below(5) {
        0 => random_wff(rng, ids, depth - 1).not(),
        1 => Formula::And(vec![
            random_wff(rng, ids, depth - 1),
            random_wff(rng, ids, depth - 1),
        ]),
        2 => Formula::Or(vec![
            random_wff(rng, ids, depth - 1),
            random_wff(rng, ids, depth - 1),
        ]),
        3 => Wff::implies(
            random_wff(rng, ids, depth - 1),
            random_wff(rng, ids, depth - 1),
        ),
        _ => Wff::iff(
            random_wff(rng, ids, depth - 1),
            random_wff(rng, ids, depth - 1),
        ),
    }
}

fn random_update(rng: &mut Rng, ids: &[AtomId]) -> Update {
    match rng.below(4) {
        0 => Update::insert(random_wff(rng, ids, 2), random_wff(rng, ids, 2)),
        1 => Update::delete(ids[rng.below(ids.len())], random_wff(rng, ids, 1)),
        2 => Update::modify(
            ids[rng.below(ids.len())],
            random_wff(rng, ids, 1),
            random_wff(rng, ids, 1),
        ),
        _ => Update::assert(random_wff(rng, ids, 2)),
    }
}

/// Builds a random untyped theory over one binary relation.
fn random_theory(rng: &mut Rng, num_atoms: usize, num_wffs: usize) -> (Theory, Vec<AtomId>) {
    let mut t = Theory::new();
    let r = t.declare_relation("R", 2).unwrap();
    let mut ids = Vec::new();
    for i in 0..num_atoms {
        let c1 = t.constant(&format!("k{}", i / 3));
        let c2 = t.constant(&format!("v{i}"));
        ids.push(t.atom(r, &[c1, c2]));
    }
    for _ in 0..num_wffs {
        let w = random_wff(rng, &ids, 3);
        t.assert_wff(&w);
    }
    (t, ids)
}

fn run_trials(simplify: SimplifyLevel, seed: u64, trials: usize) {
    let mut rng = Rng(seed);
    for trial in 0..trials {
        let n_atoms = 3 + rng.below(4);
        let n_wffs = 1 + rng.below(4);
        let (theory, ids) = random_theory(&mut rng, n_atoms, n_wffs);
        if !theory.is_consistent() {
            continue;
        }
        let before = theory.clone();
        let mut engine = GuaEngine::new(theory, GuaOptions::simplify_always(simplify));
        let n_updates = 1 + rng.below(3);
        let mut updates = Vec::new();
        for _ in 0..n_updates {
            let u = random_update(&mut rng, &ids);
            updates.push(u.clone());
            engine.apply(&u).expect("update applies");
        }
        let report = check_commutes(&before, &updates, &engine.theory, ModelLimit::default())
            .expect("diagram check runs");
        assert!(
            report.commutes,
            "trial {trial} (simplify={simplify:?}): {}\nupdates: {updates:?}",
            report.describe(&engine.theory)
        );
    }
}

#[test]
fn diagram_commutes_without_simplification() {
    run_trials(SimplifyLevel::None, 0xA5A5_0001, 120);
}

#[test]
fn diagram_commutes_with_fast_simplification() {
    run_trials(SimplifyLevel::Fast, 0xA5A5_0002, 120);
}

#[test]
fn diagram_commutes_with_full_simplification() {
    run_trials(SimplifyLevel::Full, 0xA5A5_0003, 60);
}

/// The simultaneous-update generalization (§4 reduction target): GUA's
/// `apply_simultaneous` must match the per-world simultaneous semantics.
#[test]
fn diagram_commutes_for_simultaneous_updates() {
    use winslett_ldml::canonicalize;
    use winslett_worlds::WorldsEngine;

    let mut rng = Rng(0xC0FFEE);
    for trial in 0..120 {
        let n_atoms = 3 + rng.below(3);
        let n_wffs = 1 + rng.below(3);
        let (theory, ids) = random_theory(&mut rng, n_atoms, n_wffs);
        if !theory.is_consistent() {
            continue;
        }
        let before = theory.clone();
        let level = match trial % 3 {
            0 => SimplifyLevel::None,
            1 => SimplifyLevel::Fast,
            _ => SimplifyLevel::Full,
        };
        let mut engine = GuaEngine::new(theory, GuaOptions::simplify_always(level));
        let batch: Vec<Update> = (0..(1 + rng.below(3)))
            .map(|_| random_update(&mut rng, &ids))
            .collect();
        engine
            .apply_simultaneous(&batch)
            .expect("simultaneous update applies");

        let mut baseline =
            WorldsEngine::from_theory(&before, ModelLimit::default()).expect("materializes");
        baseline
            .apply_simultaneous(&batch, &engine.theory)
            .expect("baseline applies");
        let expected = canonicalize(baseline.worlds().to_vec());
        let actual = canonicalize(
            engine
                .theory
                .alternative_worlds(ModelLimit::default())
                .expect("enumerable"),
        );
        assert_eq!(
            expected, actual,
            "trial {trial} (simplify={level:?}) batch {batch:?}"
        );
    }
}

/// For updates whose ω-atoms are pairwise disjoint AND whose selections
/// don't mention any other update's ω-atoms, simultaneous application
/// coincides with sequential application in any order — the independence
/// property one expects of a set-oriented DML.
#[test]
fn disjoint_simultaneous_equals_sequential_any_order() {
    use winslett_ldml::canonicalize;

    let mut rng = Rng(0xD15);
    for trial in 0..80 {
        // Partition 6 atoms into two blocks of 3; each update works only
        // within its own block.
        let n_wffs = 1 + rng.below(3);
        let (theory, ids) = random_theory(&mut rng, 6, n_wffs);
        if !theory.is_consistent() || ids.len() < 6 {
            continue;
        }
        let block_a = &ids[0..3];
        let block_b = &ids[3..6];
        let u1 = random_update(&mut rng, block_a);
        let u2 = random_update(&mut rng, block_b);

        let run_simultaneous = |level: SimplifyLevel| {
            let mut e = GuaEngine::new(theory.clone(), GuaOptions::simplify_always(level));
            e.apply_simultaneous(&[u1.clone(), u2.clone()]).unwrap();
            canonicalize(e.theory.alternative_worlds(ModelLimit::default()).unwrap())
        };
        let run_sequential = |first: &Update, second: &Update| {
            let mut e = GuaEngine::new(
                theory.clone(),
                GuaOptions::simplify_always(SimplifyLevel::Fast),
            );
            e.apply(first).unwrap();
            e.apply(second).unwrap();
            canonicalize(e.theory.alternative_worlds(ModelLimit::default()).unwrap())
        };

        let sim = run_simultaneous(SimplifyLevel::Fast);
        let seq12 = run_sequential(&u1, &u2);
        let seq21 = run_sequential(&u2, &u1);
        assert_eq!(sim, seq12, "trial {trial}: sim vs 1;2 for {u1:?}, {u2:?}");
        assert_eq!(sim, seq21, "trial {trial}: sim vs 2;1 for {u1:?}, {u2:?}");
    }
}

/// Theorem 5 over update sequences: builds a legal start state with
/// `setup`, applies 1–4 random updates to it one after another, and
/// checks the diagram and Theorem 5's legality clause after the whole
/// sequence. Every axiom instance GUA generates mentions an atom of the
/// current ω, so a sequence is what exercises Step 5's "if it is not
/// already present" against instances earlier updates renamed.
fn run_axiom_sequences(seed: u64, trials: usize, setup: impl Fn() -> (Theory, Vec<AtomId>)) {
    let mut rng = Rng(seed);
    for trial in 0..trials {
        let (mut t, ids) = setup();
        assert!(t.check_axioms_redundant().is_ok(), "start state legal");
        let before = t.clone();
        let mut engine = GuaEngine::new(
            t,
            GuaOptions::simplify_always(if trial % 2 == 0 {
                SimplifyLevel::None
            } else {
                SimplifyLevel::Fast
            }),
        );
        let updates: Vec<Update> = (0..1 + rng.below(4))
            .map(|_| random_update(&mut rng, &ids))
            .collect();
        for u in &updates {
            engine.apply(u).expect("update applies");
        }
        let report = check_commutes(&before, &updates, &engine.theory, ModelLimit::default())
            .expect("diagram check runs");
        assert!(
            report.commutes,
            "trial {trial}: {}\nupdates: {updates:?}",
            report.describe(&engine.theory)
        );
        // Theorem 5's legality clause: the output is a legal extended
        // relational theory — in particular the type and dependency
        // axioms remain redundant (removable without changing models).
        engine.theory.check_axioms_redundant().unwrap_or_else(|e| {
            panic!("trial {trial}: output theory illegal: {e}\nupdates: {updates:?}")
        });
    }
}

#[test]
fn diagram_commutes_with_dependencies() {
    run_axiom_sequences(0xBEEF_0001, 1_000, || {
        let mut t = Theory::new();
        let p = t.declare_relation("P", 2).unwrap();
        let q = t.declare_relation("Q", 1).unwrap();
        t.add_dependency(Dependency::functional("fd", p, 2, &[0]).unwrap());
        t.add_dependency(Dependency::inclusion("inc", p, 2, q, &[0]).unwrap());
        let mut ids = Vec::new();
        let mut key_consts = Vec::new();
        for i in 0..2 {
            key_consts.push(t.constant(&format!("k{i}")));
        }
        let mut val_consts = Vec::new();
        for i in 0..2 {
            val_consts.push(t.constant(&format!("v{i}")));
        }
        for &k in &key_consts {
            for &v in &val_consts {
                ids.push(t.atom(p, &[k, v]));
            }
            ids.push(t.atom(q, &[k]));
        }
        // Build a dependency-respecting start state: one P tuple + its Q.
        let pk = ids[0];
        let qk = ids[2];
        t.assert_atom(pk);
        t.assert_atom(qk);
        for &other in &[ids[1], ids[3], ids[4], ids[5]] {
            t.assert_not_atom(other);
        }
        (t, ids)
    });
}

#[test]
fn diagram_commutes_with_type_axioms() {
    run_axiom_sequences(0xBEEF_0002, 1_000, || {
        let mut t = Theory::new();
        let part = t.declare_attribute("PartNo").unwrap();
        let quan = t.declare_attribute("Quan").unwrap();
        let instock = t.declare_typed_relation("InStock", &[part, quan]).unwrap();
        let c32 = t.constant("32");
        let c5 = t.constant("5");
        let c9 = t.constant("9");
        let tup1 = t.atom(instock, &[c32, c5]);
        let tup2 = t.atom(instock, &[c32, c9]);
        let a32 = t.atom(part, &[c32]);
        let a5 = t.atom(quan, &[c5]);
        let a9 = t.atom(quan, &[c9]);
        // Legal start: tup1 present with its attributes; tup2 absent.
        t.assert_atom(tup1);
        t.assert_atom(a32);
        t.assert_atom(a5);
        t.assert_not_atom(tup2);
        t.assert_not_atom(a9);
        (t, vec![tup1, tup2, a32, a5, a9])
    });
}

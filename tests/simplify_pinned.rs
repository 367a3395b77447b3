//! Pins the §4 simplifier's output byte for byte.
//!
//! Three seeded statement streams run through the library, and after every
//! step the stored theory (`store.wffs()`, in store order, rendered with
//! `display_wff`) is folded into a CRC-32 digest. The digests, the final
//! renderings (`tests/pins/*.txt`) and the `SimplifyReport` of every
//! explicit pass are pinned, so a rewrite of the simplifier's loops that
//! changes any stored formula, its shape or its order fails here.
//! `SimplifyReport::units_propagated` is not pinned: it counts work, not
//! output.
//!
//! * (a) a perfbench-shaped stream at `Fast`, so every update is followed
//!   by the inline whole-store pass;
//! * (b) the same stream at `None`, then one explicit `Fast` pass and one
//!   explicit `Full` pass, each on its own copy (the recovery and
//!   compaction shapes);
//! * (c) a relation typed by two attributes under a functional dependency,
//!   with inserts, modifies and deletes over it.
//!
//! No stream loads a wff over a typed relation: `load_wff` asserts the
//! §3.5 type-axiom instances of such a wff, which is a theory change of its
//! own.

use winslett::db::wal::crc32;
use winslett::db::{DbOptions, LogicalDatabase};
use winslett::gua::{SimplifyLevel, SimplifyReport};
use winslett::logic::display_wff;
use winslett::theory::Dependency;

/// splitmix64, as perfbench's generator uses.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_B0A7_5EED)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Private pools in the perfbench-shaped stream.
const POOLS: usize = 4;
/// Atoms per pool.
const POOL: usize = 6;
/// Certain filler facts; with the pool atoms, 64 certain facts.
const FILLER: usize = 64 - POOLS * POOL;
/// Branching order inserts.
const BRANCHES: usize = 8;
/// Pool statements, of the six kinds in equal shares.
const POOL_STATEMENTS: usize = 204;

/// One step of a stream.
enum Step {
    Fact(&'static str, Vec<String>),
    Statement(String),
}

/// The perfbench-shaped stream: certain facts, branching inserts, then
/// pool statements of the six kinds of `perfbench/src/gen.rs` in a seeded
/// order.
fn pool_stream(seed: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut steps: Vec<Step> = (0..FILLER)
        .map(|i| Step::Fact("Filler", vec![(1000 + i).to_string()]))
        .collect();
    for w in 0..POOLS {
        for k in 0..POOL {
            steps.push(Step::Fact("Pool", vec![w.to_string(), k.to_string()]));
        }
    }
    for o in 0..BRANCHES {
        steps.push(Step::Statement(format!(
            "INSERT Order({o},1) | Order({o},2) WHERE T"
        )));
    }
    let mut kinds: Vec<usize> = (0..POOL_STATEMENTS).map(|i| i % 6).collect();
    rng.shuffle(&mut kinds);
    for kind in kinds {
        let w = rng.below(POOLS);
        let k = rng.below(POOL);
        let k2 = (k + 1 + rng.below(POOL - 1)) % POOL;
        steps.push(Step::Statement(match kind {
            0 | 1 => format!("INSERT Pool({w},{k}) WHERE T"),
            2 => format!("DELETE Pool({w},{k}) WHERE T"),
            3 => format!("INSERT Pool({w},{k}) | Pool({w},{k2}) WHERE T"),
            4 => format!("MODIFY Pool({w},{k}) TO BE Pool({w},{k2}) WHERE T"),
            _ => format!("DELETE Pool({w},{k}) WHERE Pool({w},{k2})"),
        }));
    }
    steps
}

/// Parts and costs of the typed stream.
const PARTS: usize = 3;
const COSTS: [u32; 4] = [10, 11, 12, 13];
/// Statements of the typed stream.
const TYPED_STATEMENTS: usize = 60;

/// The typed stream: `Price(Part, Cost)` under an FD on the part. An
/// insert only asks for a price where the part has none, so no world is
/// refused by the FD outright and the stream stays consistent.
fn typed_stream(seed: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut steps = vec![Step::Fact("Price", vec!["p0".into(), "10".into()])];
    for _ in 0..TYPED_STATEMENTS {
        let p = format!("p{}", rng.below(PARTS));
        let c = COSTS[rng.below(COSTS.len())];
        let c2 = COSTS[(COSTS.iter().position(|&x| x == c).unwrap_or(0)
            + 1
            + rng.below(COSTS.len() - 1))
            % COSTS.len()];
        let unpriced = COSTS
            .iter()
            .map(|x| format!("!Price({p},{x})"))
            .collect::<Vec<_>>()
            .join(" & ");
        steps.push(Step::Statement(match rng.below(5) {
            0 => format!("INSERT Price({p},{c}) WHERE {unpriced}"),
            1 => format!("INSERT Price({p},{c}) | Price({p},{c2}) WHERE {unpriced}"),
            2 => format!("MODIFY Price({p},{c}) TO BE Price({p},{c2}) WHERE T"),
            3 => format!("DELETE Price({p},{c}) WHERE T"),
            _ => format!("DELETE Price({p},{c}) WHERE Price({p},{c})"),
        }));
    }
    steps
}

/// The stored theory, one rendered formula per line, in store order.
fn render(db: &LogicalDatabase) -> String {
    let theory = db.theory();
    theory
        .store
        .wffs()
        .iter()
        .map(|w| format!("{}\n", display_wff(w, &theory.vocab, &theory.atoms)))
        .collect()
}

/// Folds one rendering into the running digest.
fn fold(digest: u32, rendering: &str) -> u32 {
    let mut bytes = digest.to_le_bytes().to_vec();
    bytes.extend_from_slice(rendering.as_bytes());
    crc32(&bytes)
}

/// Runs `steps` on `db`, folding the store after every step.
fn drive(db: &mut LogicalDatabase, steps: &[Step]) -> u32 {
    let mut digest = 0;
    for step in steps {
        match step {
            Step::Fact(pred, args) => {
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                db.load_fact(pred, &args).expect("fact loads");
            }
            Step::Statement(src) => {
                db.execute(src).expect("statement applies");
            }
        }
        digest = fold(digest, &render(db));
    }
    digest
}

fn db_at(level: SimplifyLevel) -> LogicalDatabase {
    LogicalDatabase::with_options(DbOptions {
        simplify: level,
        ..DbOptions::default()
    })
}

fn pool_db(level: SimplifyLevel) -> LogicalDatabase {
    let mut db = db_at(level);
    for (name, arity) in [("Filler", 1), ("Order", 2), ("Pool", 2)] {
        db.declare_relation(name, arity).expect("fresh relation");
    }
    db
}

fn typed_db() -> LogicalDatabase {
    let mut db = db_at(SimplifyLevel::Fast);
    let part = db.declare_attribute("Part").expect("fresh attribute");
    let cost = db.declare_attribute("Cost").expect("fresh attribute");
    let price = db
        .declare_typed_relation("Price", &[part, cost])
        .expect("fresh relation");
    db.add_dependency(Dependency::functional("fd", price, 2, &[0]).expect("fd"));
    db
}

/// The report fields a pass's output determines (all but
/// `units_propagated`): nodes before and after, formulas before and after,
/// predicate constants eliminated, redundant formulas removed.
fn output_fields(r: &SimplifyReport) -> [usize; 6] {
    [
        r.nodes_before,
        r.nodes_after,
        r.formulas_before,
        r.formulas_after,
        r.pcs_eliminated,
        r.redundant_removed,
    ]
}

const SEED: u64 = 23;

#[test]
fn inline_fast_passes_keep_their_output() {
    let mut db = pool_db(SimplifyLevel::Fast);
    let digest = drive(&mut db, &pool_stream(SEED));
    assert!(db.is_consistent());
    assert_eq!(render(&db), include_str!("pins/simplify_inline_fast.txt"));
    assert_eq!(digest, 0x1d36_e085);
}

#[test]
fn explicit_passes_over_an_unsimplified_store_keep_their_output() {
    let mut db = pool_db(SimplifyLevel::None);
    let digest = drive(&mut db, &pool_stream(SEED));
    assert_eq!(digest, 0xc856_6ee1);

    let mut fast = db.clone();
    let report = fast.simplify(SimplifyLevel::Fast);
    assert_eq!(output_fields(&report), [2834, 864, 504, 192, 188, 0]);
    assert_eq!(
        render(&fast),
        include_str!("pins/simplify_recovery_fast.txt")
    );

    let mut full = db.clone();
    let report = full.simplify(SimplifyLevel::Full);
    assert_eq!(output_fields(&report), [2834, 98, 504, 68, 287, 1]);
    assert_eq!(
        render(&full),
        include_str!("pins/simplify_compaction_full.txt")
    );
}

#[test]
fn typed_fd_stream_keeps_its_output() {
    let mut db = typed_db();
    let digest = drive(&mut db, &typed_stream(SEED));
    assert!(db.is_consistent());
    assert_eq!(render(&db), include_str!("pins/simplify_typed_fd.txt"));
    assert_eq!(digest, 0x1d41_cf95);
}

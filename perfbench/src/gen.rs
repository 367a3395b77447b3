//! Seeded inputs. The schema, the seed theory, every statement script and
//! every probe list are pure functions of `--seed`; the program under test
//! only ever sees the generated text.

/// Certain filler facts in the seed theory (realistic store size).
const FILLER: usize = 64;
/// Branching inserts in the seed theory: each leaves one order with
/// three alternative worlds, so entailment checks do real SAT work.
const BRANCHES: usize = 8;
/// Atoms in each private pool. Pools never share an atom, so scripts over
/// different pools have disjoint footprints and any interleaving of them
/// reaches the same final state (Theorems 3/4).
const POOL: usize = 6;
/// Atoms of the one shared pool contended transactions fight over (the
/// shared pool size of `BENCH_txn.json`).
const SHARED: usize = 4;
/// Statements per transaction (`BENCH_txn.json`'s `txn_len`).
const TXN_LEN: usize = 8;

/// splitmix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_B0A7_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// The schema plus the initial state every round starts from.
pub struct SeedTheory {
    pub relations: Vec<(&'static str, u64)>,
    /// Ground facts loaded as certainly true.
    pub facts: Vec<(&'static str, Vec<String>)>,
    /// Branching LDML inserts run after the facts.
    pub branches: Vec<String>,
    /// Order ids the branches created (probe material).
    pub orders: Vec<u64>,
    /// Filler ids (probe material).
    pub fillers: Vec<u64>,
}

/// The seed theory for `pools` private pools and the shared pool. Every
/// pool atom starts true, so every probe names only registered symbols.
pub fn seed_theory(rng: &mut Rng, pools: usize) -> SeedTheory {
    let base = 1000 + rng.below(9000) as u64 * 100;
    let fillers: Vec<u64> = (0..FILLER as u64).map(|i| base + i).collect();
    let order_base = 10 + rng.below(80) as u64 * 10;
    let orders: Vec<u64> = (0..BRANCHES as u64).map(|j| order_base + j).collect();
    let mut facts: Vec<(&'static str, Vec<String>)> = fillers
        .iter()
        .map(|f| ("Filler", vec![f.to_string()]))
        .collect();
    for w in 0..pools {
        for k in 0..POOL {
            facts.push(("Pool", vec![w.to_string(), k.to_string()]));
        }
    }
    for k in 0..SHARED {
        facts.push(("Shared", vec![k.to_string()]));
    }
    let branches = orders
        .iter()
        .map(|o| format!("INSERT Order({o},1) | Order({o},2) WHERE T"))
        .collect();
    SeedTheory {
        relations: vec![("Filler", 1), ("Order", 2), ("Pool", 2), ("Shared", 1)],
        facts,
        branches,
        orders,
        fillers,
    }
}

/// One write unit: a single statement, or a multi-statement transaction
/// that must land atomically.
#[derive(Clone)]
pub enum Unit {
    Single(String),
    Txn(Vec<String>),
}

impl Unit {
    pub fn statements(&self) -> &[String] {
        match self {
            Unit::Single(s) => std::slice::from_ref(s),
            Unit::Txn(v) => v,
        }
    }
}

/// Statement kinds of [`pool_statement`].
const KINDS: usize = 6;

/// One statement of `kind` over pool `w`: the kinds cover
/// plain and conditional inserts and deletes, branching (disjunctive)
/// inserts, and MODIFY, all of which GUA accepts on any state of the pool.
fn pool_statement(rng: &mut Rng, w: usize, kind: usize) -> String {
    let k = rng.below(POOL);
    let k2 = (k + 1 + rng.below(POOL - 1)) % POOL;
    match kind {
        0 | 1 => format!("INSERT Pool({w},{k}) WHERE T"),
        2 => format!("DELETE Pool({w},{k}) WHERE T"),
        3 => format!("INSERT Pool({w},{k}) | Pool({w},{k2}) WHERE T"),
        4 => format!("MODIFY Pool({w},{k}) TO BE Pool({w},{k2}) WHERE T"),
        _ => format!("DELETE Pool({w},{k}) WHERE Pool({w},{k2})"),
    }
}

/// The script over pool `w`: `singles` single statements and `txns`
/// transactions of [`TXN_LEN`] statements, in a seeded order. Statement
/// kinds come in fixed proportions and only their order and atoms vary
/// with the seed, so every seed asks for the same amount of work.
pub fn writer_script(rng: &mut Rng, w: usize, singles: usize, txns: usize) -> Vec<Unit> {
    let mut lens = vec![1; singles];
    lens.extend(std::iter::repeat_n(TXN_LEN, txns));
    rng.shuffle(&mut lens);
    let mut kinds: Vec<usize> = (0..lens.iter().sum()).map(|i| i % KINDS).collect();
    rng.shuffle(&mut kinds);
    let mut kinds = kinds.into_iter();
    lens.into_iter()
        .map(|len| {
            let stmts: Vec<String> = kinds
                .by_ref()
                .take(len)
                .map(|kind| pool_statement(rng, w, kind))
                .collect();
            match &stmts[..] {
                [single] => Unit::Single(single.clone()),
                _ => Unit::Txn(stmts),
            }
        })
        .collect()
}

/// `n` transactions over the shared pool, each of [`TXN_LEN`] plain
/// inserts and deletes (half of each) touching every shared atom. A
/// transaction names its atoms in ascending order, so all of them take
/// their locks in one global order: they queue for each other's locks
/// but never deadlock, and no wait runs into the server's lock timeout.
pub fn contended_txns(rng: &mut Rng, n: usize) -> Vec<Unit> {
    (0..n)
        .map(|_| {
            let mut verbs: Vec<&str> = (0..TXN_LEN)
                .map(|i| if i % 2 == 0 { "INSERT" } else { "DELETE" })
                .collect();
            rng.shuffle(&mut verbs);
            Unit::Txn(
                verbs
                    .into_iter()
                    .enumerate()
                    .map(|(i, verb)| format!("{verb} Shared({}) WHERE T", i * SHARED / TXN_LEN))
                    .collect(),
            )
        })
        .collect()
}

/// Several scripts merged into one stream in a seeded order. Any order
/// is valid: every check replays the units in the order they landed.
pub fn mix(rng: &mut Rng, scripts: Vec<Vec<Unit>>) -> Vec<Unit> {
    let mut units: Vec<Unit> = scripts.into_iter().flatten().collect();
    rng.shuffle(&mut units);
    units
}

/// A read request.
#[derive(Clone)]
pub enum Probe {
    /// Entailment check of a ground wff: `(possible, certain)`.
    Check(String),
    /// Conjunctive query: certain and possible rows.
    Query(String),
}

/// Checks over the seed's orders and fillers, none touching a writer pool,
/// so their answers hold for the whole round whatever the writers do.
pub fn read_probes(rng: &mut Rng, seed: &SeedTheory) -> Vec<Probe> {
    let mut probes = Vec::new();
    for (i, o) in seed.orders.iter().enumerate() {
        let f = seed.fillers[i * 7 % seed.fillers.len()];
        probes.push(Probe::Check(format!("Order({o},1)")));
        probes.push(Probe::Check(format!("Order({o},1) | Order({o},2)")));
        probes.push(Probe::Check(format!("Order({o},1) & Order({o},2)")));
        probes.push(Probe::Check(format!("!Order({o},1) & !Order({o},2)")));
        probes.push(Probe::Check(format!("Filler({f}) & Order({o},2)")));
    }
    // About one read in ten is a query, so the p95 falls well inside the
    // query latencies rather than on the edge between checks and queries.
    for q in [
        "Order(?o, 1)",
        "Order(?o, ?q)",
        "Filler(?f)",
        "Order(?o, 2)",
    ] {
        probes.push(Probe::Query(q.to_owned()));
    }
    rng.shuffle(&mut probes);
    probes
}

/// The final-state checklist: every pool atom, every shared atom, and a
/// few seed probes.
pub fn state_probes(seed: &SeedTheory, pools: usize) -> Vec<String> {
    let mut v = Vec::new();
    for w in 0..pools {
        for k in 0..POOL {
            v.push(format!("Pool({w},{k})"));
        }
        v.push(format!("Pool({w},0) | Pool({w},1)"));
    }
    for k in 0..SHARED {
        v.push(format!("Shared({k})"));
    }
    v.push(format!("Order({},1)", seed.orders[0]));
    v.push(format!("Filler({})", seed.fillers[0]));
    v
}

/// The final-state checklist as reads, plus a query over every pool: what
/// the traced session replay times for the write-only workloads.
pub fn state_reads(seed: &SeedTheory, pools: usize) -> Vec<Probe> {
    let mut reads: Vec<Probe> = state_probes(seed, pools)
        .into_iter()
        .map(Probe::Check)
        .collect();
    reads.push(Probe::Query("Pool(?w, ?k)".to_owned()));
    reads
}

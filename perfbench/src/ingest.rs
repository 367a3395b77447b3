//! `ingest_recover`: the embedded library path, no server. Each round opens
//! a fresh durable database in a scratch directory (WAL options of
//! [`crate::replay::wal_options`]), loads the seed theory, journals a fixed
//! seeded stream of statements and transactions with one checkpoint
//! halfway, closes it, and recovers the storage — checking the live and
//! the recovered state against the §4 oracle.

use crate::gen::{mix, seed_theory, state_probes, state_reads, writer_script, Rng, Unit};
use crate::replay::{load_seed, micros, open_durable, oracle, trace_reads, verdicts, Scratch};
use crate::Tally;
use std::time::Instant;
use winslett_core::{DbError, DurableDatabase, Storage};

/// Independent pools whose units are mixed into one stream. Many short
/// scripts rather than a few long ones: how far GUA's store grows depends
/// on each script's order, and summing over many pools keeps the round's
/// cost nearly the same from seed to seed.
const POOLS: usize = 12;
/// Per pool and per half of the round: single statements and 8-statement
/// transactions, in equal statement shares — the plain and disjoint shapes
/// of `BENCH_txn.json` (its contended shape needs concurrent clients; see
/// `served_write`).
const SINGLES: usize = 8;
const TXNS: usize = 1;

pub fn round(rng: &mut Rng, trace: bool, tally: &mut Tally) {
    let seed = seed_theory(rng, POOLS);
    // Two halves of the same make-up with the checkpoint between them, so
    // recovery replays the same number of records on every seed.
    let mut half = || {
        let scripts = (0..POOLS)
            .map(|w| writer_script(rng, w, SINGLES, TXNS))
            .collect();
        mix(rng, scripts)
    };
    let mut units = half();
    let checkpoint_at = units.len();
    units.extend(half());
    let dir = Scratch::new();

    let t = Instant::now();
    let mut db = open_durable(dir.storage());
    load_seed(&mut db, &seed).expect("seed loads into the durable database");
    tally.setup_s.push(t.elapsed().as_secs_f64());

    for (i, unit) in units.iter().enumerate() {
        if i == checkpoint_at {
            let t = Instant::now();
            tally.attempted += 1;
            match db.checkpoint() {
                Ok(()) => tally.spans.push("checkpoint_ms", micros(t) / 1e3),
                Err(e) => tally.fail(format!("checkpoint: {e}")),
            }
        }
        let t = Instant::now();
        let r = apply(&mut db, unit);
        let us = micros(t);
        tally.op_us.push(us);
        tally.busy_s += us / 1e6;
        tally.attempted += 1;
        if let Err(e) = r {
            tally.fail(format!("unit {:?}: {e}", unit.statements()));
        }
    }

    let statements: Vec<&str> = units
        .iter()
        .flat_map(|u| u.statements())
        .map(String::as_str)
        .collect();
    let wffs = state_probes(&seed, POOLS);
    let mut want_db = oracle(&seed, &statements, trace.then_some(&mut tally.spans));
    let want = verdicts(&mut want_db, &wffs);
    let live = verdicts(db.db_mut(), &wffs);
    tally.expect("live state", &live, &want);
    if trace {
        trace_reads(&want_db, &state_reads(&seed, POOLS), &mut tally.spans);
    }
    let storage = db.close().expect("durable database closes");
    crate::recover(storage, &wffs, &want, tally);
}

/// One unit through the library: a journaled statement, or a transaction
/// (begin, journaled intents, commit marker).
fn apply<S: Storage>(db: &mut DurableDatabase<S>, unit: &Unit) -> Result<(), DbError> {
    match unit {
        Unit::Single(src) => db.execute(src).map(drop),
        Unit::Txn(stmts) => {
            let txn = db.txn_begin()?;
            for src in stmts {
                if let Err(e) = db.txn_execute(txn, src) {
                    let _ = db.txn_rollback(txn);
                    return Err(e);
                }
            }
            db.txn_commit(txn).map(drop)
        }
    }
}

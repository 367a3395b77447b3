//! The served-bench kernel: what the five served drivers (`server`,
//! `conflicts`, `txn`, `replication`, `connections`) share.
//!
//! Each driver keeps its own workload, pacing and [`ServerOptions`], so
//! its numbers stay comparable across runs. The kernel boots the server
//! (MemStorage, one sync per writer pass), applies one [`Seed`]
//! description both over the wire and to the oracle, runs the timed
//! closed-loop window,
//! summarizes latencies, and ends every run with one final-state check:
//! the pinned served verdicts must equal both the reopened storage's and
//! those of the paper's §4 strawman, a serial replay of the acknowledged
//! units in LSN order ([`SerialReplay`]). It also holds the checks every
//! `BENCH_*.json` validator repeats.

use crate::report::percentile;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use winslett_core::{
    apply_op, DbError, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, Op, WalOptions,
};
use winslett_serve::{Client, Server, ServerOptions, StatsReply};

/// One acknowledged unit: the LSN its acknowledgement carried (a plain
/// statement's own LSN, a transaction's commit LSN) and its statements.
pub type Unit = (u64, Vec<String>);

/// A probe's `(possible, certain)` verdict.
pub type Verdict = (bool, bool);

/// The writes a run starts from, applied in order both to the served
/// database (with [`Client::write`]) and to the oracle (with
/// [`apply_op`]).
#[derive(Debug, Default)]
pub struct Seed(Vec<Op>);

impl Seed {
    /// Appends one write.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.0.push(op);
        self
    }

    /// Declares a relation.
    pub fn relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.op(Op::DeclareRelation(name.to_owned(), arity))
    }

    /// Loads one ground fact.
    pub fn fact(&mut self, pred: &str, args: impl IntoIterator<Item = impl ToString>) -> &mut Self {
        let args = args.into_iter().map(|a| a.to_string()).collect();
        self.op(Op::LoadFact(pred.to_owned(), args))
    }

    /// Executes one LDML statement.
    pub fn statement(&mut self, src: &str) -> &mut Self {
        self.op(Op::Execute(src.to_owned()))
    }

    /// Number of writes; over the wire they take LSNs `0..writes()`.
    pub fn writes(&self) -> u64 {
        self.0.len() as u64
    }

    fn load_client(&self, client: &mut Client) {
        for op in &self.0 {
            client
                .write(op.clone())
                .expect("seed write applies over the wire");
        }
    }

    fn load_db(&self, db: &mut LogicalDatabase) {
        for op in &self.0 {
            apply_op(db, op).expect("seed write applies to the oracle");
        }
    }
}

/// A served database booted by [`boot`].
pub struct Served {
    /// The server's ephemeral address.
    pub addr: SocketAddr,
    running: JoinHandle<Result<MemStorage, DbError>>,
}

/// Boots one server on an ephemeral port (MemStorage, the calling
/// bench's own `options`) and loads `seed` through the wire.
pub fn boot(options: ServerOptions, seed: &Seed) -> Served {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
        options,
    )
    .expect("bench server bind");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    seed.load_client(&mut Client::connect(addr).expect("seed connect"));
    Served { addr, running }
}

/// What closed-loop workers did in one window.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-operation latency, µs; ascending once merged by [`closed_loop`].
    pub latencies_us: Vec<f64>,
    /// Units the server acknowledged.
    pub acked: Vec<Unit>,
    /// Typed refusals the workers absorbed before going on (transaction
    /// lock timeouts, replica lag).
    pub refusals: u64,
}

impl Tally {
    /// Operations timed.
    pub fn count(&self) -> u64 {
        self.latencies_us.len() as u64
    }

    /// Timed operations per second over `elapsed_s`.
    pub fn per_sec(&self, elapsed_s: f64) -> f64 {
        self.latencies_us.len() as f64 / elapsed_s
    }

    /// The `q`-quantile latency, µs.
    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies_us, q)
    }
}

/// A closed-loop worker: works until the flag is set, then reports.
pub type Worker = Box<dyn FnOnce(&AtomicBool) -> Tally + Send>;

/// The merged outcome of one timed window.
pub struct Window {
    /// The readers' tallies, merged.
    pub reads: Tally,
    /// The writers' tallies, merged.
    pub writes: Tally,
    /// Seconds from start until every worker had stopped.
    pub elapsed_s: f64,
}

/// Runs `readers` and `writers` concurrently for `window`, then stops
/// them and merges what each side did.
pub fn closed_loop(window: Duration, readers: Vec<Worker>, writers: Vec<Worker>) -> Window {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (reads, writes) = std::thread::scope(|s| {
        let spawn = |workers: Vec<Worker>| -> Vec<_> {
            let stop = &stop;
            workers
                .into_iter()
                .map(|work| s.spawn(move || work(stop)))
                .collect()
        };
        let (readers, writers) = (spawn(readers), spawn(writers));
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let join = |hs: Vec<std::thread::ScopedJoinHandle<'_, Tally>>| {
            merge(hs.into_iter().map(|h| h.join().expect("worker thread")))
        };
        (join(readers), join(writers))
    });
    Window {
        reads,
        writes,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

fn merge(tallies: impl Iterator<Item = Tally>) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.latencies_us.extend(t.latencies_us);
        all.acked.extend(t.acked);
        all.refusals += t.refusals;
    }
    all.latencies_us.sort_by(f64::total_cmp);
    all
}

/// Microseconds since `start`.
pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// A reader: pin → `checks` entailment checks cycling through `probes`
/// → unpin, then a `pace` pause; each check is timed.
pub fn reader(addr: SocketAddr, probes: &[String], checks: usize, pace: Duration) -> Worker {
    let probes = probes.to_vec();
    Box::new(move |stop| {
        let mut client = Client::connect(addr).expect("reader connect");
        let mut tally = Tally::default();
        while !stop.load(Ordering::Relaxed) {
            client.pin().expect("pin");
            for probe in probes.iter().cycle().take(checks) {
                let start = Instant::now();
                client.check(probe).expect("check");
                tally.latencies_us.push(micros(start));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            client.unpin().expect("unpin");
            std::thread::sleep(pace);
        }
        tally
    })
}

/// A writer of plain statements: executes `statement(i)` for
/// `i = start, start + 1, …` flat out, timing each acknowledgement and
/// recording it as a unit.
pub fn writer(
    addr: SocketAddr,
    start: usize,
    statement: impl Fn(usize) -> String + Send + 'static,
) -> Worker {
    Box::new(move |stop| {
        let mut client = Client::connect(addr).expect("writer connect");
        let mut tally = Tally::default();
        let mut i = start;
        while !stop.load(Ordering::Relaxed) {
            let src = statement(i);
            let t = Instant::now();
            let reply = client.execute(&src).expect("bench write");
            tally.latencies_us.push(micros(t));
            tally.acked.push((reply.lsn, vec![src]));
            i += 1;
        }
        tally
    })
}

/// The paper's §4 strawman as the oracle: the seed, then acknowledged
/// units applied serially through the library in LSN order, whatever
/// order they were handed over in.
pub struct SerialReplay {
    db: LogicalDatabase,
    units: Vec<Unit>,
    applied: usize,
}

impl SerialReplay {
    /// The seed applied, no unit yet.
    pub fn new(seed: &Seed, acked: &[Unit]) -> Self {
        let mut db = LogicalDatabase::new();
        seed.load_db(&mut db);
        let mut units = acked.to_vec();
        units.sort_by_key(|(lsn, _)| *lsn);
        SerialReplay {
            db,
            units,
            applied: 0,
        }
    }

    /// Applies every unit acknowledged at or before `lsn`; the database
    /// then holds that serial prefix.
    pub fn through(&mut self, lsn: u64) -> &mut LogicalDatabase {
        while let Some((at, statements)) = self.units.get(self.applied) {
            if *at > lsn {
                break;
            }
            for src in statements {
                self.db
                    .execute(src)
                    .expect("acknowledged statement replays");
            }
            self.applied += 1;
        }
        &mut self.db
    }
}

/// Every probe's verdict on `db`.
pub fn verdicts(db: &mut LogicalDatabase, probes: &[String]) -> Vec<Verdict> {
    probes
        .iter()
        .map(|p| {
            let possible = db.is_possible(p).expect("possibility of a probe");
            let certain = db.is_certain(p).expect("certainty of a probe");
            (possible, certain)
        })
        .collect()
}

/// The final-state check every served run ends with.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FinalCheck {
    /// Probes asked of the pinned final state.
    pub probes: u64,
    /// Acknowledged units the serial replay applied after the seed.
    pub acked_units: u64,
    /// Whether every pinned served verdict equals the reopened storage's.
    pub matches_storage: bool,
    /// Whether every pinned served verdict equals the §4 serial replay's.
    pub matches_replay: bool,
}

impl FinalCheck {
    /// Compares the pinned served verdicts with the reopened storage's
    /// and the serial replay's, probe by probe.
    pub fn new(pinned: &[Verdict], storage: &[Verdict], replay: &[Verdict], acked: usize) -> Self {
        FinalCheck {
            probes: pinned.len() as u64,
            acked_units: acked as u64,
            matches_storage: pinned == storage,
            matches_replay: pinned == replay,
        }
    }
}

/// What [`finish`] hands back.
pub struct Finished {
    /// The final-state check.
    pub check: FinalCheck,
    /// The server's counters, read just before shutdown.
    pub stats: StatsReply,
    /// Mean latency of one direct library verdict on the reopened
    /// storage, µs — the no-protocol baseline.
    pub direct_check_us: f64,
}

/// Ends a served run: pins the final state and asks every probe, reads
/// the counters, shuts the server down, reopens the storage it flushed,
/// and checks the pinned verdicts against the storage and against the
/// serial replay of `acked`.
pub fn finish(served: Served, seed: &Seed, acked: &[Unit], probes: &[String]) -> Finished {
    let mut client = Client::connect(served.addr).expect("final connect");
    client.pin().expect("pin the final state");
    let pinned: Vec<Verdict> = probes
        .iter()
        .map(|p| {
            let t = client.check(p).expect("final check");
            (t.possible, t.certain)
        })
        .collect();
    let stats = client.stats().expect("final stats");
    client.shutdown().expect("shutdown");
    let storage = served
        .running
        .join()
        .expect("server thread")
        .expect("server run");
    let (mut reopened, _) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen the flushed storage");
    let start = Instant::now();
    let stored = verdicts(reopened.db_mut(), probes);
    let direct_check_us = micros(start) / (2 * probes.len().max(1)) as f64;
    let replayed = verdicts(SerialReplay::new(seed, acked).through(u64::MAX), probes);
    Finished {
        check: FinalCheck::new(&pinned, &stored, &replayed, acked.len()),
        stats,
        direct_check_us,
    }
}

/// `std::thread::available_parallelism()`, recorded with every result.
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

// ----- validator checks -------------------------------------------------------

/// The fields every `BENCH_*.json` document starts with.
#[derive(Deserialize)]
struct Header {
    version: u32,
    experiment: String,
}

/// Parses a `BENCH_<experiment>.json` text after checking its version
/// and experiment id.
pub fn parse<T: Deserialize>(text: &str, experiment: &str, version: u32) -> Result<T, String> {
    let unparsed = |e: serde_json::Error| format!("BENCH_{experiment}.json does not parse: {e}");
    let header: Header = serde_json::from_str(text).map_err(unparsed)?;
    if (header.version, header.experiment.as_str()) != (version, experiment) {
        return Err(format!(
            "unknown version {} of experiment {:?}; expected {version} of {experiment:?}",
            header.version, header.experiment
        ));
    }
    serde_json::from_str(text).map_err(unparsed)
}

/// Fails with `what` unless `x` is positive and finite.
pub fn positive(x: f64, what: &str) -> Result<(), String> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} is not positive finite"))
    }
}

/// Fails unless the percentiles `ps` (ascending quantiles) are positive,
/// finite and non-decreasing.
pub fn ordered(ps: &[f64], what: &str) -> Result<(), String> {
    let finite = ps.iter().all(|p| p.is_finite() && *p > 0.0);
    if finite && ps.windows(2).all(|w| w[0] <= w[1]) {
        Ok(())
    } else {
        Err(format!(
            "{what} percentiles are not ordered positive finite"
        ))
    }
}

/// Fails unless `what`'s final-state check asked probes and its pinned
/// served verdicts equal both the reopened storage's and the replay's.
pub fn final_state(c: &FinalCheck, what: &str) -> Result<(), String> {
    if c.probes == 0 {
        return Err(format!("{what}: the final-state check asked no probes"));
    }
    if !c.matches_storage {
        return Err(format!(
            "{what}: pinned served verdicts differ from the reopened storage"
        ));
    }
    if !c.matches_replay {
        return Err(format!(
            "{what}: pinned served verdicts differ from the §4 serial replay of \
             {} acknowledged units",
            c.acked_units
        ));
    }
    Ok(())
}

/// Fails unless `levels` (as `(level, reads/s)`) strictly increase and
/// throughput at the deepest level stays within a constant factor of
/// the first level's: true scaling on multi-core hosts, fair
/// time-sharing on one core.
pub fn non_collapse(levels: impl Iterator<Item = (u64, f64)>, what: &str) -> Result<(), String> {
    let levels: Vec<(u64, f64)> = levels.collect();
    let (Some(&(first, r0)), Some(&(last, r1))) = (levels.first(), levels.last()) else {
        return Err(format!("no {what} levels recorded"));
    };
    if levels.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(format!("{what} levels must strictly increase"));
    }
    if r1 < 0.3 * r0 {
        return Err(format!(
            "aggregate {what} read throughput collapsed: {r1:.0}/s at {last} vs {r0:.0}/s at {first}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_core::persist::DependencyDump;

    fn toggle_seed() -> Seed {
        let mut seed = Seed::default();
        seed.relation("R", 1).fact("R", ["a"]);
        seed
    }

    #[test]
    fn replay_applies_units_in_lsn_order() {
        // Handed over insert-then-delete, acknowledged delete (LSN 2)
        // then insert (LSN 9): only LSN order ends with R(a) true.
        let acked: Vec<Unit> = vec![
            (9, vec!["INSERT R(a) WHERE T".to_owned()]),
            (2, vec!["DELETE R(a) WHERE T".to_owned()]),
        ];
        let probes = vec!["R(a)".to_owned()];
        let mut replay = SerialReplay::new(&toggle_seed(), &acked);
        assert_eq!(verdicts(replay.through(1), &probes), vec![(true, true)]);
        assert_eq!(verdicts(replay.through(2), &probes), vec![(false, false)]);
        assert_eq!(
            verdicts(replay.through(u64::MAX), &probes),
            vec![(true, true)]
        );
    }

    #[test]
    fn a_served_verdict_the_oracle_disagrees_with_is_a_mismatch() {
        let acked: Vec<Unit> = vec![(2, vec!["DELETE R(a) WHERE T".to_owned()])];
        let probes = vec!["R(a)".to_owned()];
        let replayed = verdicts(
            SerialReplay::new(&toggle_seed(), &acked).through(u64::MAX),
            &probes,
        );
        let agreeing = FinalCheck::new(&replayed, &replayed, &replayed, acked.len());
        assert!(final_state(&agreeing, "side").is_ok());
        // The server claims R(a) is still certain; the storage agrees,
        // the serial replay does not.
        let served = vec![(true, true)];
        let check = FinalCheck::new(&served, &served, &replayed, acked.len());
        assert!(check.matches_storage && !check.matches_replay);
        let err = final_state(&check, "side").unwrap_err();
        assert!(
            err.contains("serial replay of 1 acknowledged units"),
            "{err}"
        );
        let check = FinalCheck::new(&served, &replayed, &served, acked.len());
        assert!(final_state(&check, "side")
            .unwrap_err()
            .contains("reopened storage"));
    }

    #[test]
    fn a_served_run_matches_storage_and_replay() {
        let seed = toggle_seed();
        let served = boot(ServerOptions::default(), &seed);
        let w = closed_loop(
            Duration::from_millis(50),
            vec![reader(served.addr, &["R(a)".to_owned()], 4, Duration::ZERO)],
            vec![writer(served.addr, 0, |i| {
                let op = if i % 2 == 0 { "DELETE" } else { "INSERT" };
                format!("{op} R(a) WHERE T")
            })],
        );
        assert!(w.writes.count() > 0 && w.reads.count() > 0);
        assert!(w.writes.acked.iter().all(|(lsn, _)| *lsn >= seed.writes()));
        let done = finish(served, &seed, &w.writes.acked, &["R(a)".to_owned()]);
        assert_eq!(done.check.acked_units, w.writes.count());
        assert!(final_state(&done.check, "run").is_ok(), "{:?}", done.check);
    }

    /// The same check with the §3.5 axioms in the seed: a relation typed
    /// by two attributes under a functional dependency, declared over the
    /// wire with `Op`s.
    #[test]
    fn a_served_fd_typed_run_matches_storage_and_replay() {
        let fd = DependencyDump::functional("fd", "Price", 2, &[0]).expect("fd");
        let mut seed = Seed::default();
        seed.op(Op::DeclareAttribute("Part".into()))
            .op(Op::DeclareAttribute("Cost".into()))
            .op(Op::DeclareTypedRelation(
                "Price".into(),
                vec!["Part".into(), "Cost".into()],
            ))
            .op(Op::AddDependency(fd))
            .fact("Price", ["a", "10"])
            .statement("INSERT Price(b,12) WHERE T");
        let probes = ["Price(a,10)", "Price(a,12)", "Cost(12)"].map(str::to_owned);
        let served = boot(ServerOptions::default(), &seed);
        let w = closed_loop(
            Duration::from_millis(50),
            vec![reader(served.addr, &probes, 4, Duration::ZERO)],
            vec![writer(served.addr, 0, |i| {
                let (from, to) = if i % 2 == 0 { (10, 12) } else { (12, 10) };
                format!("MODIFY Price(a,{from}) TO BE Price(a,{to}) WHERE T")
            })],
        );
        assert!(w.writes.count() > 0 && w.reads.count() > 0);
        let done = finish(served, &seed, &w.writes.acked, &probes);
        assert!(final_state(&done.check, "run").is_ok(), "{:?}", done.check);
    }

    #[test]
    fn every_committed_document_passes_its_validator() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut committed: Vec<String> = std::fs::read_dir(root)
            .expect("repository root")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        committed.sort();
        let mut known: Vec<String> = crate::DOCUMENTS
            .iter()
            .map(|(name, _)| format!("BENCH_{name}.json"))
            .collect();
        known.sort();
        assert_eq!(committed, known, "every committed document has a validator");
        for (name, validate) in crate::DOCUMENTS {
            let text = std::fs::read_to_string(format!("{root}/BENCH_{name}.json"))
                .expect("committed document");
            if let Err(e) = validate(&text) {
                panic!("BENCH_{name}.json: {e}");
            }
        }
    }
}

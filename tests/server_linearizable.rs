//! Linearizability of `winslett-serve`: random interleaved client
//! scripts against a live server must be explainable as ONE serial order
//! of the acknowledged writes.
//!
//! The server acknowledges every write with its WAL LSN — the claimed
//! serialization order. The test fans writer threads (and snapshot-read
//! threads) against a live server, then:
//!
//! 1. replays the acknowledged updates in LSN order through the existing
//!    [`replay_updates`] path (the §4 strawman, deliberately a different
//!    code path from the server's GUA-with-simplification writer) and
//!    checks the reopened post-shutdown database denotes **exactly** the
//!    same set of alternative worlds;
//! 2. checks every snapshot read (pinned at `updates_applied = k`)
//!    returned exactly what the LSN-order prefix of length `k` entails —
//!    snapshot reads are reads of a serial prefix, never a torn state.
//!
//! The server journals under `SyncPolicy::Manual` and syncs once per
//! writer pass, so the final comparison also exercises the sync-on-close
//! path: without it the reopened database could miss the unsynced tail.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;
use winslett::db::persist::DependencyDump;
use winslett::db::{
    apply_op, replay_updates, DbError, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, Op,
    WalOptions,
};
use winslett_serve::{Client, Replica, ReplicaHandle, ReplicaOptions, Server, ServerOptions};

/// The write pool: consistent-by-construction LDML over a tiny universe,
/// so any interleaving is legal and the SAT work stays trivial.
const POOL: &[&str] = &[
    "INSERT R(1) WHERE T",
    "INSERT R(2) | R(3) WHERE T",
    "DELETE R(1) WHERE T",
    "MODIFY R(2) TO BE R(4) WHERE T",
    "INSERT S(1) WHERE R(1)",
    "DELETE S(1) WHERE T",
    "INSERT R(3) WHERE S(1)",
];

/// Wffs every snapshot read asks about.
const PROBES: &[&str] = &["R(1)", "S(1)"];

/// Writes acknowledged before the concurrent phase (the two declares).
const SETUP_WRITES: u64 = 2;

/// The setup writes of the untyped pool: `R/1` and `S/1`.
fn untyped_setup() -> Vec<Op> {
    let relation = |name: &str| Op::DeclareRelation(name.into(), 1);
    vec![relation("R"), relation("S")]
}

/// A relation typed by two attributes under a functional dependency,
/// declared over the wire, so the served writer runs GUA Steps 2′ and
/// 5–7.
fn priced_setup() -> Vec<Op> {
    let fd = DependencyDump::functional("fd", "Price", 2, &[0]).expect("fd");
    vec![
        Op::DeclareAttribute("Part".into()),
        Op::DeclareAttribute("Cost".into()),
        Op::DeclareTypedRelation("Price".into(), vec!["Part".into(), "Cost".into()]),
        Op::AddDependency(fd),
    ]
}

/// FD-coupled writes that keep the theory consistent in any order.
const PRICED_POOL: &[&str] = &[
    "INSERT Price(a,10) WHERE !Price(a,12)",
    "INSERT Price(a,12) | Price(a,10) WHERE T",
    "DELETE Price(a,10) WHERE T",
    "MODIFY Price(a,12) TO BE Price(a,10) WHERE T",
    "INSERT Price(b,12) WHERE T",
    "DELETE Price(b,12) WHERE Price(a,10)",
];

const PRICED_PROBES: &[&str] = &["Price(a,10)", "Price(a,12)", "Part(a)", "Price(b,12)"];

fn boot() -> (JoinHandle<Result<MemStorage, DbError>>, SocketAddr) {
    boot_on(([127, 0, 0, 1], 0).into(), MemStorage::new())
}

/// A primary on `addr` over `storage` (recovered if non-empty).
fn boot_on(
    addr: SocketAddr,
    storage: MemStorage,
) -> (JoinHandle<Result<MemStorage, DbError>>, SocketAddr) {
    let (server, _report) = Server::bind(
        addr,
        storage,
        DbOptions::default(),
        WalOptions::default(),
        ServerOptions {
            max_connections: 32,
            idle_timeout: Duration::from_secs(10),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (std::thread::spawn(move || server.run()), addr)
}

/// One pinned snapshot read: the prefix length it was promised and what
/// it answered for each probe — `None` when the snapshot's vocabulary
/// does not even contain the probe's constants yet (a strict parse
/// error, which the serial prefix must reproduce too).
#[derive(Debug)]
struct PinnedRead {
    updates_applied: u64,
    truths: Vec<Option<(bool, bool)>>,
}

/// Replays the setup, then the first `prefix` acknowledged updates in
/// LSN order (§3.5-widened, as the server executes them) through the §4
/// path, and returns a queryable database.
fn replayed_prefix(setup: &[Op], sources: &[&str], prefix: usize) -> LogicalDatabase {
    let mut parse_db = LogicalDatabase::new();
    for op in setup {
        apply_op(&mut parse_db, op).expect("setup replays");
    }
    let updates: Vec<_> = sources[..prefix]
        .iter()
        .map(|src| {
            let update = parse_db.parse_update(src).expect("parse acked update");
            parse_db.effective_update(&update)
        })
        .collect();
    let theory = replay_updates(parse_db.theory(), &updates).expect("replay acked updates");
    LogicalDatabase::from_theory(theory, DbOptions::default())
}

fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
    db.world_names().expect("worlds").into_iter().collect()
}

/// Runs one full scenario: the `setup` writes, then `writer_scripts` of
/// `pool` statements against `readers` pinned readers of `probes`.
/// Returns nothing, panics on any violation.
fn run_scenario(
    setup_ops: &[Op],
    pool: &'static [&'static str],
    probes: &'static [&'static str],
    writer_scripts: Vec<Vec<usize>>,
    readers: usize,
) {
    let (running, addr) = boot();

    let mut setup = Client::connect(addr).expect("connect setup");
    for op in setup_ops {
        setup.write(op.clone()).expect("setup write");
    }
    let setup_writes = setup_ops.len() as u64;

    let barrier = Arc::new(Barrier::new(writer_scripts.len() + readers));
    let mut writer_handles = Vec::new();
    for script in writer_scripts {
        let barrier = Arc::clone(&barrier);
        writer_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect writer");
            barrier.wait();
            let mut acked: Vec<(u64, usize)> = Vec::new();
            for idx in script {
                let reply = client.execute(pool[idx]).expect("execute");
                acked.push((reply.lsn, idx));
            }
            acked
        }));
    }
    let mut reader_handles = Vec::new();
    for _ in 0..readers {
        let barrier = Arc::clone(&barrier);
        reader_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect reader");
            barrier.wait();
            let mut reads = Vec::new();
            for _ in 0..3 {
                let pin = client.pin().expect("pin");
                let mut truths = Vec::new();
                for probe in probes {
                    match client.check(probe) {
                        Ok(t) => {
                            assert_eq!(
                                t.generation, pin.generation,
                                "pinned read answered at a different generation"
                            );
                            truths.push(Some((t.possible, t.certain)));
                        }
                        Err(winslett_serve::ClientError::Server(e)) => {
                            assert_eq!(
                                e.kind,
                                winslett_serve::ErrorKindWire::Parse,
                                "only strict-parse errors are legal: {e}"
                            );
                            truths.push(None);
                        }
                        Err(e) => panic!("check transport failure: {e}"),
                    }
                }
                client.unpin().expect("unpin");
                reads.push(PinnedRead {
                    updates_applied: pin.updates_applied,
                    truths,
                });
            }
            reads
        }));
    }

    let mut acked: Vec<(u64, usize)> = Vec::new();
    for h in writer_handles {
        acked.extend(h.join().expect("writer thread"));
    }
    let reads: Vec<PinnedRead> = reader_handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread"))
        .collect();

    setup.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("run");

    // The acknowledged LSNs are the serialization witness: unique and
    // contiguous after the setup writes.
    acked.sort();
    let lsns: Vec<u64> = acked.iter().map(|&(lsn, _)| lsn).collect();
    let expected: Vec<u64> = (setup_writes..setup_writes + acked.len() as u64).collect();
    assert_eq!(lsns, expected, "acked LSNs must be a contiguous sequence");
    let sources: Vec<&str> = acked.iter().map(|&(_, idx)| pool[idx]).collect();

    // (1) Final state == serial replay of the acked updates in LSN order.
    // Reopening from the returned storage also proves the graceful
    // shutdown synced the tail.
    let (reopened, report) =
        DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
            .expect("reopen");
    assert_eq!(report.truncated, None, "shutdown must not tear the WAL");
    let serial = replayed_prefix(setup_ops, &sources, sources.len());
    assert_eq!(
        world_set(reopened.db()),
        world_set(&serial),
        "final state is not the serial replay of the acknowledged updates"
    );

    // (2) Every pinned read saw exactly the LSN-prefix state it pinned.
    for read in &reads {
        assert!(read.updates_applied >= setup_writes);
        let prefix = (read.updates_applied - setup_writes) as usize;
        let mut at_pin = replayed_prefix(setup_ops, &sources, prefix);
        for (probe, got) in probes.iter().zip(&read.truths) {
            let want = match (at_pin.is_possible(probe), at_pin.is_certain(probe)) {
                (Ok(p), Ok(c)) => Some((p, c)),
                _ => None,
            };
            assert_eq!(
                *got, want,
                "snapshot read of {probe} at prefix {prefix} diverged from the serial prefix"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interleaved_clients_linearize(
        writer_scripts in prop::collection::vec(
            prop::collection::vec(0..POOL.len(), 1..4),
            1..4,
        ),
        readers in 1..3usize,
    ) {
        run_scenario(&untyped_setup(), POOL, PROBES, writer_scripts, readers);
    }
}

/// A deterministic worst-case shape on top of the random sweep: maximum
/// writer fan-in with every pool statement in play.
#[test]
fn dense_interleaving_linearizes() {
    let scripts = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 0], vec![2, 1, 0, 5]];
    run_scenario(&untyped_setup(), POOL, PROBES, scripts, 2);
}

/// The same witness with the §3.5 axioms on the served path: a typed
/// relation under an FD, declared over the wire, and FD-coupled writers.
#[test]
fn fd_typed_relation_linearizes_over_the_wire() {
    let scripts = vec![vec![0, 1, 2, 3], vec![4, 5, 0, 1], vec![3, 2, 5, 4]];
    run_scenario(&priced_setup(), PRICED_POOL, PRICED_PROBES, scripts, 2);
}

// ----- cross-replica consistency --------------------------------------------
//
// The same serialization witness, extended over WAL-shipping replicas:
// every state a replica ever publishes (observed by sampling `PinAt`
// during the live run) must answer the probes exactly as the LSN-order
// prefix through its pinned LSN — replicas never expose a torn or
// reordered state, only (possibly stale) serial prefixes.

/// How long a replica may lag before the test calls it broken.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(10);

/// One sampled replica read: the LSN the pin actually landed on and the
/// probe verdicts at that snapshot (`None` per probe = strict-parse
/// error, legal on a snapshot whose vocabulary predates the probe).
#[derive(Debug)]
struct ReplicaRead {
    last_lsn: u64,
    truths: Vec<Option<(bool, bool)>>,
}

fn boot_replica(primary: SocketAddr) -> (ReplicaHandle, JoinHandle<()>, SocketAddr) {
    let replica = Replica::bind(
        ("127.0.0.1", 0),
        primary,
        DbOptions::default(),
        ReplicaOptions {
            idle_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(10),
            ..ReplicaOptions::default()
        },
    )
    .expect("bind replica");
    let addr = replica.local_addr();
    let handle = replica.handle();
    let thread = std::thread::spawn(move || {
        let _ = replica.run();
    });
    (handle, thread, addr)
}

/// Retries `pin_at(min_lsn)` until the replica catches up (or the
/// deadline calls it broken). Returns the pinned snapshot reply; the pin
/// is left held so the caller's reads stay on it.
fn pin_when_caught_up(client: &mut Client, min_lsn: u64) -> winslett_serve::SnapshotReply {
    let start = std::time::Instant::now();
    loop {
        match client.pin_at(min_lsn) {
            Ok(snap) => return snap,
            Err(winslett_serve::ClientError::Server(e))
                if e.kind == winslett_serve::ErrorKindWire::LagBehind =>
            {
                assert!(
                    start.elapsed() < CATCHUP_DEADLINE,
                    "replica never reached lsn {min_lsn}: {e}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("pin_at({min_lsn}) failed: {e}"),
        }
    }
}

/// Probes the replica's pinned snapshot. A probe whose constants the
/// young snapshot has not interned yet is a strict-parse error — legal,
/// recorded as `None` per probe, and the serial prefix must reproduce
/// it. Returns `None` overall only when the replica disappears mid-read
/// (the mid-stream restart).
fn probe_pinned(client: &mut Client, generation: u64) -> Option<Vec<Option<(bool, bool)>>> {
    let mut truths = Vec::new();
    for probe in PROBES {
        match client.check(probe) {
            Ok(t) => {
                assert_eq!(
                    t.generation, generation,
                    "pinned replica read answered at a different generation"
                );
                truths.push(Some((t.possible, t.certain)));
            }
            Err(winslett_serve::ClientError::Server(e)) => {
                assert_eq!(
                    e.kind,
                    winslett_serve::ErrorKindWire::Parse,
                    "only strict-parse errors are legal on a replica read: {e}"
                );
                truths.push(None);
            }
            Err(winslett_serve::ClientError::Frame(_)) => return None,
            Err(e) => panic!("check on replica failed: {e}"),
        }
    }
    Some(truths)
}

/// Asserts one sampled replica state against the serial prefix through
/// its LSN.
fn assert_read_matches_prefix(sources: &[&str], read: &ReplicaRead) {
    assert!(
        read.last_lsn + 1 >= SETUP_WRITES,
        "a pinned replica state predates the setup declares"
    );
    let prefix = (read.last_lsn + 1 - SETUP_WRITES) as usize;
    assert!(
        prefix <= sources.len(),
        "replica pinned lsn {} beyond the acknowledged history",
        read.last_lsn
    );
    let mut at_pin = replayed_prefix(&untyped_setup(), sources, prefix);
    for (probe, got) in PROBES.iter().zip(&read.truths) {
        let want = match (at_pin.is_possible(probe), at_pin.is_certain(probe)) {
            (Ok(p), Ok(c)) => Some((p, c)),
            _ => None,
        };
        assert_eq!(
            *got, want,
            "replica verdict for {probe} at lsn {} diverged from the serial prefix",
            read.last_lsn
        );
    }
}

/// Runs writers against a primary with two live replicas sampling reads
/// throughout; optionally restarts the second follower mid-stream (fresh
/// process, checkpoint-forced snapshot bootstrap). Verifies every sampled
/// replica state, final convergence on both replicas, and the typed
/// `LagBehind` refusal for an LSN from the future.
fn run_replica_scenario(writer_scripts: Vec<Vec<usize>>, restart_follower: bool) {
    let (running, addr) = boot();
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");
    setup.declare_relation("S", 1).expect("declare S");

    let (handle_a, thread_a, addr_a) = boot_replica(addr);
    let (mut handle_b, mut thread_b, mut addr_b) = boot_replica(addr);

    // Samplers: race the live stream on both replicas, recording every
    // distinct state they manage to pin.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut samplers = Vec::new();
    for replica_addr in [addr_a, addr_b] {
        let stop = Arc::clone(&stop);
        // Connect before spawning: once spawned, the sampler may first
        // run after the restart below has shut its follower down.
        let mut client = Client::connect(replica_addr).expect("connect sampler");
        samplers.push(std::thread::spawn(move || {
            let mut reads: Vec<ReplicaRead> = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match client.pin_at(1) {
                    Ok(snap) => {
                        let Some(truths) = probe_pinned(&mut client, snap.generation) else {
                            break; // replica went away mid-read
                        };
                        if client.unpin().is_err() {
                            break;
                        }
                        if reads.last().map(|r| r.last_lsn) != Some(snap.last_lsn) {
                            reads.push(ReplicaRead {
                                last_lsn: snap.last_lsn,
                                truths,
                            });
                        }
                    }
                    Err(winslett_serve::ClientError::Server(e))
                        if e.kind == winslett_serve::ErrorKindWire::LagBehind => {}
                    // The follower this sampler watched was shut down
                    // (the mid-stream restart): stop sampling, everything
                    // recorded so far still gets verified.
                    Err(winslett_serve::ClientError::Frame(_)) => break,
                    Err(e) => panic!("sampler pin failed: {e}"),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            reads
        }));
    }

    // Phase 1 writes.
    let mut acked: Vec<(u64, usize)> = Vec::new();
    let mut writer = Client::connect(addr).expect("connect writer");
    let split = writer_scripts.len() / 2;
    for script in &writer_scripts[..split.max(1).min(writer_scripts.len())] {
        for &idx in script {
            let reply = writer.execute(POOL[idx]).expect("execute");
            acked.push((reply.lsn, idx));
        }
    }

    if restart_follower {
        // Kill follower B mid-stream, then force the snapshot bootstrap
        // path for its replacement: the checkpoint folds the whole log,
        // so a fresh subscription from 0 predates it.
        handle_b.request_shutdown();
        thread_b.join().expect("replica b thread");
        setup.checkpoint().expect("checkpoint");
        let (hb, tb, ab) = boot_replica(addr);
        handle_b = hb;
        thread_b = tb;
        addr_b = ab;
    }

    // Phase 2 writes.
    for script in &writer_scripts[split.max(1).min(writer_scripts.len())..] {
        for &idx in script {
            let reply = writer.execute(POOL[idx]).expect("execute");
            acked.push((reply.lsn, idx));
        }
    }

    acked.sort();
    let lsns: Vec<u64> = acked.iter().map(|&(lsn, _)| lsn).collect();
    let expected: Vec<u64> = (SETUP_WRITES..SETUP_WRITES + acked.len() as u64).collect();
    assert_eq!(lsns, expected, "acked LSNs must be a contiguous sequence");
    let sources: Vec<&str> = acked.iter().map(|&(_, idx)| POOL[idx]).collect();
    let final_lsn = lsns.last().copied().unwrap_or(SETUP_WRITES - 1);

    // Final convergence: both replicas reach the last acknowledged LSN
    // and answer exactly as the full serial replay (the restarted
    // follower included — its bootstrap ran through the checkpoint
    // snapshot plus the suffix).
    for replica_addr in [addr_a, addr_b] {
        let mut client = Client::connect(replica_addr).expect("connect verifier");
        let snap = pin_when_caught_up(&mut client, final_lsn);
        let truths =
            probe_pinned(&mut client, snap.generation).expect("replica died during verification");
        client.unpin().expect("unpin verifier");
        assert_read_matches_prefix(
            &sources,
            &ReplicaRead {
                last_lsn: snap.last_lsn,
                truths,
            },
        );
        // An LSN from the future is a typed refusal, not a hang or a lie.
        match client.pin_at(final_lsn + 1000) {
            Err(winslett_serve::ClientError::Server(e)) => {
                assert_eq!(e.kind, winslett_serve::ErrorKindWire::LagBehind);
            }
            other => panic!("expected LagBehind for a future LSN, got {other:?}"),
        }
    }
    if restart_follower {
        let mut client = Client::connect(addr_b).expect("connect stats");
        let stats = client.stats().expect("replica stats");
        assert_eq!(
            stats.replica_snapshots_loaded, 1,
            "the restarted follower must have bootstrapped from the checkpoint snapshot"
        );
    }

    // Every state either replica ever exposed was a serial prefix.
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for sampler in samplers {
        let reads = sampler.join().expect("sampler thread");
        for read in &reads {
            assert_read_matches_prefix(&sources, read);
        }
    }

    handle_a.request_shutdown();
    handle_b.request_shutdown();
    thread_a.join().expect("replica a thread");
    thread_b.join().expect("replica b thread");
    drop(writer);
    setup.shutdown().expect("shutdown");
    running.join().expect("server thread").expect("run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replicas_only_expose_serial_prefixes(
        writer_scripts in prop::collection::vec(
            prop::collection::vec(0..POOL.len(), 1..4),
            1..4,
        ),
        restart_follower in any::<bool>(),
    ) {
        run_replica_scenario(writer_scripts, restart_follower);
    }
}

/// Deterministic dense shape with a follower restart mid-stream.
#[test]
fn follower_restart_mid_stream_converges() {
    let scripts = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 0], vec![2, 1, 0, 5]];
    run_replica_scenario(scripts, true);
}

/// Followers never expose uncommitted transaction effects. A follower
/// streaming live from before the transaction opened, and a follower
/// bootstrapped *mid-transaction* from a checkpoint taken while the
/// transaction was open (whose catch-up suffix begins with the
/// transaction's re-journaled begin and ops), must both keep serving
/// non-transactional writes that land while the transaction is open —
/// the buffered intents stay invisible until the commit marker arrives,
/// then appear atomically.
#[test]
fn follower_restart_mid_txn_never_exposes_uncommitted_effects() {
    let (running, addr) = boot();
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");
    setup.declare_relation("S", 1).expect("declare S");
    let seed_lsn = setup.execute("INSERT R(9) WHERE T").expect("seed").lsn;

    // Follower A streams live from before the transaction opens.
    let (handle_a, thread_a, addr_a) = boot_replica(addr);
    let mut on_a = Client::connect(addr_a).expect("connect a");
    pin_when_caught_up(&mut on_a, seed_lsn);
    on_a.unpin().expect("unpin a");

    // Replicas refuse transaction control outright: they are read-only.
    match on_a.begin() {
        Err(winslett_serve::ClientError::Server(e)) => {
            assert_eq!(e.kind, winslett_serve::ErrorKindWire::ReadOnly, "{e}");
        }
        other => panic!("begin on a replica: {other:?}"),
    }

    // Open a transaction on the primary and leave it open.
    let mut txn_conn = Client::connect(addr).expect("connect txn");
    txn_conn.begin().expect("begin");
    txn_conn.execute("INSERT R(1) WHERE T").expect("txn insert");
    txn_conn
        .execute("INSERT S(1) WHERE R(1)")
        .expect("txn insert 2");

    // A disjoint-footprint plain write proceeds despite the open
    // transaction and must reach the followers without the txn intents.
    let plain_lsn = setup.execute("INSERT S(7) WHERE T").expect("plain").lsn;

    // A checkpoint taken while the transaction is open snapshots only
    // committed state and re-journals the transaction past it.
    setup.checkpoint().expect("checkpoint during open txn");

    // "Not exposed" on a follower is either not-possible or a strict
    // parse error (the intent's constants never entered its vocabulary).
    let assert_not_exposed = |client: &mut Client, wff: &str| match client.check(wff) {
        Ok(t) => assert!(!t.possible, "{wff} leaked to a follower: {t:?}"),
        Err(winslett_serve::ClientError::Server(e)) => {
            assert_eq!(e.kind, winslett_serve::ErrorKindWire::Parse, "{wff}: {e}");
        }
        Err(e) => panic!("follower check {wff}: {e}"),
    };

    // Follower A advances past the plain write (its published LSN is not
    // held back by the open transaction) yet hides the intents.
    let snap = pin_when_caught_up(&mut on_a, plain_lsn);
    assert!(snap.last_lsn >= plain_lsn);
    assert_not_exposed(&mut on_a, "R(1)");
    assert_not_exposed(&mut on_a, "S(1)");
    assert!(on_a.check("S(7)").expect("S(7) on a").certain);
    on_a.unpin().expect("unpin a");

    // Follower B boots mid-transaction from the checkpoint snapshot: its
    // catch-up suffix starts with the open transaction's re-journaled
    // records; it must buffer the intents and still publish everything
    // non-transactional up to the plain write.
    let (handle_b, thread_b, addr_b) = boot_replica(addr);
    let mut on_b = Client::connect(addr_b).expect("connect b");
    let snap = pin_when_caught_up(&mut on_b, plain_lsn);
    let stats = on_b.stats().expect("replica b stats");
    assert_eq!(
        stats.replica_snapshots_loaded, 1,
        "follower b must have bootstrapped from the mid-transaction checkpoint"
    );
    assert!(snap.last_lsn >= plain_lsn);
    assert_not_exposed(&mut on_b, "R(1)");
    assert_not_exposed(&mut on_b, "S(1)");
    assert!(on_b.check("S(7)").expect("S(7) on b").certain);
    on_b.unpin().expect("unpin b");

    // Commit: both followers expose the whole transaction atomically.
    let commit_lsn = txn_conn.commit().expect("commit").lsn;
    for client in [&mut on_a, &mut on_b] {
        let snap = pin_when_caught_up(client, commit_lsn);
        assert!(snap.last_lsn >= commit_lsn);
        for wff in ["R(1)", "S(1)", "R(9)", "S(7)"] {
            assert!(
                client.check(wff).expect("post-commit check").certain,
                "{wff} not certain on a follower after the commit"
            );
        }
        client.unpin().expect("unpin");
    }

    setup.checkpoint().expect("checkpoint after commit");

    // Close the replica readers before the drain: a live idle reader
    // would otherwise hold each follower's drain open until its read
    // deadline.
    drop(on_a);
    drop(on_b);
    handle_a.request_shutdown();
    handle_b.request_shutdown();
    thread_a.join().expect("replica a thread");
    thread_b.join().expect("replica b thread");
    drop(txn_conn);
    setup.shutdown().expect("shutdown");
    running.join().expect("server thread").expect("run");
}

/// A follower whose stream dies while it holds an open transaction's
/// intents keeps holding them across the reconnect: the primary shuts
/// down with the transaction open (the drain ends the stream first, then
/// aborts the transaction), and comes back on the same address and
/// storage. The follower must never expose the intents — before the
/// shutdown, while the primary is down, or after the reconnect — and
/// must converge on the rebound primary's later writes.
#[test]
fn follower_reconnect_while_holding_intents_never_exposes_them() {
    let (running, addr) = boot();
    let mut setup = Client::connect(addr).expect("connect setup");
    setup.declare_relation("R", 1).expect("declare R");
    setup.declare_relation("S", 1).expect("declare S");
    setup.execute("INSERT R(9) WHERE T").expect("seed");
    let (handle, thread, replica_addr) = boot_replica(addr);
    let mut on_replica = Client::connect(replica_addr).expect("connect replica");

    let mut txn_conn = Client::connect(addr).expect("connect txn");
    txn_conn.begin().expect("begin");
    txn_conn.execute("INSERT R(1) WHERE T").expect("txn insert");
    txn_conn
        .execute("INSERT S(1) WHERE R(1)")
        .expect("txn insert 2");
    let plain_lsn = setup.execute("INSERT S(7) WHERE T").expect("plain").lsn;
    // The intents were shipped ahead of the plain write: the follower
    // holds them once it has caught up through it.
    pin_when_caught_up(&mut on_replica, plain_lsn);
    on_replica.unpin().expect("unpin");
    let assert_hidden = |client: &mut Client| {
        for wff in ["R(1)", "S(1)"] {
            match client.check(wff) {
                Ok(t) => assert!(!t.possible, "{wff} leaked to the follower: {t:?}"),
                Err(winslett_serve::ClientError::Server(e)) => {
                    assert_eq!(e.kind, winslett_serve::ErrorKindWire::Parse, "{wff}: {e}");
                }
                Err(e) => panic!("follower check {wff}: {e}"),
            }
        }
    };
    assert_hidden(&mut on_replica);

    // The drain ends the subscription stream at once; the transaction is
    // aborted only at its connection's next request.
    setup.shutdown().expect("shutdown");
    assert!(
        txn_conn.commit().is_err(),
        "a draining primary aborts the commit"
    );
    drop(txn_conn);
    drop(setup);
    let storage = running.join().expect("server thread").expect("run");
    assert_hidden(&mut on_replica);

    let (running, rebound) = boot_on(addr, storage);
    assert_eq!(rebound, addr);
    let mut writer = Client::connect(addr).expect("connect rebound");
    let lsn = writer
        .execute("INSERT R(2) WHERE T")
        .expect("write after rebind")
        .lsn;
    pin_when_caught_up(&mut on_replica, lsn);
    assert_hidden(&mut on_replica);
    for wff in ["R(2)", "R(9)", "S(7)"] {
        let primary = writer.check(wff).expect("primary check");
        let follower = on_replica.check(wff).expect("follower check");
        assert!(primary.certain, "{wff} on the primary");
        assert_eq!(
            (follower.certain, follower.possible),
            (primary.certain, primary.possible),
            "{wff}: the follower did not converge"
        );
    }
    on_replica.unpin().expect("unpin");
    // R(2) reached the follower, so it resubscribed, and counted it; it
    // did so from its cursor, still holding the intents, not from a
    // snapshot.
    let stats = on_replica.stats().expect("replica stats");
    assert!(stats.replica_reconnects >= 1, "{stats:?}");
    assert_eq!(stats.replica_snapshots_loaded, 0, "{stats:?}");

    drop(on_replica);
    handle.request_shutdown();
    thread.join().expect("replica thread");
    writer.shutdown().expect("shutdown rebound");
    running.join().expect("rebound server thread").expect("run");
}

//! The `winslett-serve` binary: serve a durable LDML database over TCP,
//! talk to one from a line-oriented REPL, or run the CI smoke script.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use winslett_core::persist::DependencyDump;
use winslett_core::{
    DbOptions, DirStorage, DurableDatabase, MemStorage, Op, UpdateDump, WalOptions,
};
use winslett_serve::{Client, ClientError, CompactionPolicy, ErrorKindWire, Server, ServerOptions};

const USAGE: &str = "\
winslett-serve — a concurrent LDML database server

USAGE:
  winslett-serve serve --dir PATH [--addr HOST:PORT] [--idle-secs N]
                       [--max-conns N] [--compact | --no-compact]
                       [--lock-timeout-ms N]
  winslett-serve serve --replica-of HOST:PORT [--addr HOST:PORT]
                       [--idle-secs N] [--max-conns N]
  winslett-serve repl  --addr HOST:PORT
  winslett-serve smoke

serve   Serve a durable database from PATH (created if missing).
        Default --addr 127.0.0.1:7171. SIGTERM/SIGINT and the protocol
        Shutdown request both drain connections and flush the WAL.
        One epoll reactor thread serves every connection; writes go to
        a single writer thread, SAT reads to a small worker pool.
        The writer serves the requests that queued while it was busy
        as one group: it fsyncs the WAL once, publishes one snapshot,
        then acknowledges every write and commit of the group
        (conflicting writes publish apart).
        --no-compact disables the background compactor (on by default /
        --compact): a thread that snapshots the theory, runs full
        simplification off the writer lock, and atomically swaps the
        compacted theory back in, replaying the writes that raced it.
        --lock-timeout-ms bounds how long a transaction statement waits
        for a contended footprint lock before the transaction is rolled
        back with a typed TxnTimeout (default 2000; doubles as the
        deadlock-avoidance bound).
        With --replica-of, serve a read-only WAL-shipping replica of the
        primary at HOST:PORT instead: the database is rebuilt in memory
        from the primary's checkpoint and WAL stream, reads (query /
        check / explain / pin) are served locally, PinAt gives
        pinned-LSN consistency, and every write is a typed ReadOnly
        refusal. --dir is not used in replica mode.
repl    Interactive client. Lines are LDML statements; prefixed
        commands: query / check / explain / pin / unpin / begin /
        commit / rollback / stats / checkpoint / shutdown / quit.
smoke   In-process end-to-end session against an ephemeral-port server
        (the `make serve-smoke` gate). Exits non-zero on any mismatch.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("smoke") => cmd_smoke(),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("winslett-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {raw}")),
    }
}

// ----- serve ----------------------------------------------------------------

/// Set by the signal handler; a watcher thread turns it into a graceful
/// shutdown request.
static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // `std` already links the platform libc; declaring `signal` directly
    // avoids a vendored libc crate for two constants.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7171");
    let idle_secs: u64 = parsed_flag(args, "--idle-secs")?.unwrap_or(30);
    let max_conns: usize = parsed_flag(args, "--max-conns")?.unwrap_or(64);
    if let Some(primary) = flag_value(args, "--replica-of") {
        return cmd_replica(primary, addr, idle_secs, max_conns);
    }
    let dir = flag_value(args, "--dir").ok_or("serve requires --dir PATH (or --replica-of)")?;
    let storage = DirStorage::new(dir).map_err(|e| e.to_string())?;
    // `--compact` is the (default) explicit opt-in, `--no-compact`
    // disables the background compactor thread.
    let compaction = if args.iter().any(|a| a == "--no-compact") {
        None
    } else {
        Some(CompactionPolicy::default())
    };
    let lock_timeout_ms: u64 = parsed_flag(args, "--lock-timeout-ms")?.unwrap_or(2000);
    let server_options = ServerOptions {
        max_connections: max_conns,
        idle_timeout: Duration::from_secs(idle_secs.max(1)),
        compaction,
        lock_timeout: Duration::from_millis(lock_timeout_ms.max(1)),
    };
    let (server, report) = Server::bind(
        addr,
        storage,
        DbOptions::default(),
        WalOptions::default(),
        server_options,
    )
    .map_err(|e| e.to_string())?;
    if report.records_seen > 0 || report.snapshot_lsn > 0 {
        eprintln!(
            "recovered: snapshot lsn {}, {} wal records ({} replayed, {} nodes reclaimed by the post-replay simplify)",
            report.snapshot_lsn,
            report.records_seen,
            report.replayed,
            report.nodes_reclaimed()
        );
    }
    eprintln!("serving on {}", server.local_addr());

    install_signal_handlers();
    let handle = server.handle();
    std::thread::spawn(move || loop {
        if SIGNALED.load(Ordering::SeqCst) {
            eprintln!("signal received: draining");
            handle.request_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    server.run().map(|_storage| ()).map_err(|e| e.to_string())?;
    eprintln!("shut down cleanly; WAL flushed");
    Ok(())
}

/// `serve --replica-of`: a read-only WAL-shipping follower. The database
/// lives in memory, rebuilt from the primary's catch-up material and
/// shipped batches; the tailer reconnects through primary restarts.
fn cmd_replica(primary: &str, addr: &str, idle_secs: u64, max_conns: usize) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let primary_addr = primary
        .to_socket_addrs()
        .map_err(|e| format!("bad --replica-of address {primary}: {e}"))?
        .next()
        .ok_or_else(|| format!("--replica-of {primary} resolved to no address"))?;
    let replica = winslett_serve::Replica::bind(
        addr,
        primary_addr,
        DbOptions::default(),
        winslett_serve::ReplicaOptions {
            max_connections: max_conns,
            idle_timeout: Duration::from_secs(idle_secs.max(1)),
            ..winslett_serve::ReplicaOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "replica of {primary_addr}: serving reads on {}",
        replica.local_addr()
    );

    install_signal_handlers();
    let handle = replica.handle();
    std::thread::spawn(move || loop {
        if SIGNALED.load(Ordering::SeqCst) {
            eprintln!("signal received: draining");
            handle.request_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    replica.run().map_err(|e| e.to_string())?;
    eprintln!("replica shut down cleanly");
    Ok(())
}

// ----- repl -----------------------------------------------------------------

fn cmd_repl(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").ok_or("repl requires --addr HOST:PORT")?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    eprintln!("connected to {addr}; `quit` to leave, `help` for commands");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        use std::io::BufRead;
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Ok(()); // EOF
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        let (cmd, rest) = match input.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (input, ""),
        };
        let outcome = match (cmd.to_ascii_lowercase().as_str(), rest) {
            ("quit" | "exit", _) => return Ok(()),
            ("help", _) => {
                eprintln!(
                    "  <LDML statement>      journaled update\n  \
                     query <pattern>       certain/possible rows\n  \
                     check <wff>           entailment check\n  \
                     explain <wff>         verdict + witness worlds\n  \
                     pin | unpin           snapshot isolation\n  \
                     begin | commit | rollback  multi-statement transaction\n  \
                     stats | checkpoint | shutdown | quit"
                );
                continue;
            }
            ("query", src) => client.query(src).map(|r| {
                format!(
                    "certain: {:?}\npossible: {:?}  (gen {})",
                    r.certain, r.possible, r.generation
                )
            }),
            ("check", src) => client.check(src).map(|r| {
                format!(
                    "possible: {}, certain: {}  (gen {})",
                    r.possible, r.certain, r.generation
                )
            }),
            ("explain", src) => client.explain(src).map(|r| {
                let mut out = format!("{:?}  (gen {})", r.verdict, r.generation);
                if let Some(w) = r.witness {
                    out.push_str(&format!("\n  witness: {{{}}}", w.join(", ")));
                }
                if let Some(c) = r.counterexample {
                    out.push_str(&format!("\n  counterexample: {{{}}}", c.join(", ")));
                }
                out
            }),
            ("pin", _) => client.pin().map(|s| {
                format!(
                    "pinned generation {} ({} updates, last lsn {})",
                    s.generation, s.updates_applied, s.last_lsn
                )
            }),
            ("unpin", _) => client.unpin().map(|()| "unpinned".to_string()),
            ("begin", _) => client
                .begin()
                .map(|t| format!("transaction {} open", t.txn)),
            ("commit", _) => client.commit().map(|t| {
                format!(
                    "transaction {} committed: {} statements, lsn {}",
                    t.txn, t.statements, t.lsn
                )
            }),
            ("rollback", _) => client
                .rollback()
                .map(|t| format!("transaction {} rolled back", t.txn)),
            ("stats", _) => client.stats().map(|s| format!("{s:#?}")),
            ("checkpoint", _) => client
                .checkpoint()
                .map(|c| format!("checkpointed through lsn {}", c.lsn)),
            ("shutdown", _) => {
                let r = client.shutdown().map(|()| "server draining".to_string());
                print_outcome(r);
                return Ok(());
            }
            ("declare", spec) => match spec.rsplit_once('/') {
                Some((name, arity)) => match arity.parse::<u64>() {
                    Ok(a) => client
                        .declare_relation(name.trim(), a)
                        .map(|x| format!("declared (lsn {})", x.lsn)),
                    Err(_) => Err(ClientError::Unexpected(format!(
                        "bad arity in `{spec}` (want name/arity)"
                    ))),
                },
                None => Err(ClientError::Unexpected(format!(
                    "bad declare `{spec}` (want name/arity)"
                ))),
            },
            _ => client.execute(input).map(|x| {
                format!(
                    "ok: lsn {}, generation {}, {} nodes added",
                    x.lsn, x.generation, x.nodes_added
                )
            }),
        };
        print_outcome(outcome);
    }
}

fn print_outcome(outcome: Result<String, ClientError>) {
    match outcome {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("error: {e}"),
    }
}

// ----- smoke ----------------------------------------------------------------

/// The `make serve-smoke` gate: an in-process server on an ephemeral
/// port, one scripted session sending every op kind — the §3.5 axiom
/// declarations included — plus pins, reads, stats, a checkpoint, a
/// transaction and refused writes, with exact assertions on the replies,
/// then a reopen of the flushed storage that must agree.
fn cmd_smoke() -> Result<(), String> {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
        ServerOptions {
            max_connections: 8,
            idle_timeout: Duration::from_secs(10),
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let mut c = call("connect", Client::connect(addr))?;
    call("ping", c.ping())?;

    // Schema + facts + a branching update through the journaled writer.
    call("declare", c.declare_relation("Orders", 3))?;
    call("declare", c.declare_relation("InStock", 2))?;
    call("load", c.load_fact("Orders", &["700", "32", "9"]))?;
    call("load", c.load_fact("InStock", &["32", "1"]))?;
    let exec = call(
        "insert",
        c.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T"),
    )?;
    expect(exec.lsn == 4, "disjunctive insert should be lsn 4")?;

    // Pin a snapshot, then change the world under it.
    let pinned = call("pin", c.pin())?;
    expect(pinned.updates_applied == 5, "5 acknowledged writes")?;
    let mut writer = call("connect2", Client::connect(addr))?;
    call(
        "assert",
        writer.execute("ASSERT Orders(100,32,7) & !Orders(100,32,1)"),
    )?;

    // The pinned connection still sees the pre-ASSERT uncertainty...
    let t = call("check", c.check("Orders(100,32,1)"))?;
    expect(
        t.possible && !t.certain && t.generation == pinned.generation,
        "pinned read must see the branching state at its generation",
    )?;
    let rows = call("query", c.query("Orders(?o, 32, ?q)"))?;
    expect(
        rows.certain.len() == 1 && rows.possible.len() == 3,
        "pinned query: 1 certain, 3 possible rows",
    )?;

    // ...while an unpinned connection sees the ASSERT's pruning.
    let now = call("check2", writer.check("Orders(100,32,7)"))?;
    expect(
        now.certain && now.generation > pinned.generation,
        "latest read must see the ASSERT",
    )?;
    let ex = call("explain", writer.explain("Orders(100,32,1)"))?;
    expect(
        ex.verdict == winslett_serve::WireVerdict::Impossible,
        "ASSERT made Orders(100,32,1) impossible",
    )?;

    call("unpin", c.unpin())?;
    let after = call("check3", c.check("Orders(100,32,7)"))?;
    expect(after.certain, "after unpin the read follows the latest")?;

    let stats = call("stats", c.stats())?;
    expect(stats.updates == 6, "6 acknowledged writes in stats")?;
    expect(stats.accepted == 2, "two connections accepted")?;

    let ckpt = call("checkpoint", c.checkpoint())?;
    expect(ckpt.lsn == 6, "checkpoint current through lsn 6")?;

    // A multi-statement transaction: invisible until commit, atomic and
    // durable after.
    let txn = call("begin", c.begin())?;
    call("txn insert", c.execute("INSERT InStock(700,9) WHERE T"))?;
    let peek = call("txn peek", writer.check("InStock(700,9)"))?;
    expect(
        !peek.possible,
        "uncommitted transaction effects must be invisible to other connections",
    )?;
    let committed = call("commit", c.commit())?;
    expect(
        committed.txn == txn.txn && committed.statements == 1,
        "commit acknowledges the one-statement transaction",
    )?;
    let seen = call("post-commit check", writer.check("InStock(700,9)"))?;
    expect(seen.certain, "committed transaction effects are visible")?;

    // The §3.5 axioms over the wire: two attributes, a relation typed by
    // them under a functional dependency, and a raw disjunctive wff.
    let fd = DependencyDump::functional("fd", "Price", 2, &[0]).map_err(|e| e.to_string())?;
    for op in [
        Op::DeclareAttribute("Part".into()),
        Op::DeclareAttribute("Cost".into()),
        Op::DeclareTypedRelation("Price".into(), vec!["Part".into(), "Cost".into()]),
        Op::AddDependency(fd),
        Op::LoadWff("InStock(33,1) | InStock(33,2)".into()),
    ] {
        call("axiom write", c.write(op))?;
    }
    // Step 2′: the typed tuples' attribute atoms enter the completion
    // axioms beside the tuples — two tuples, three attribute atoms.
    let priced = call(
        "typed insert",
        c.execute("INSERT Price(gear,10) | Price(gear,12) WHERE T"),
    )?;
    expect(
        priced.completion_added == 5,
        "a typed insert registers its attribute atoms",
    )?;
    // Only the FD rules out the world holding both prices.
    let probes = [
        "Price(gear,10) & Price(gear,12)",
        "Price(gear,10)",
        "Part(gear) & Cost(12)",
        "InStock(33,1)",
    ];
    let mut served = Vec::new();
    for probe in probes {
        let t = call("axiom check", c.check(probe))?;
        served.push((t.possible, t.certain));
    }
    expect(
        served == [(false, false), (true, false), (true, true), (true, false)],
        "the FD prunes the two-price world; attributes are certain",
    )?;
    // The journal form of a statement is not a client write.
    let apply = Op::Apply(UpdateDump::Insert("Price(gear,11)".into(), "T".into()));
    match c.write(apply) {
        Err(ClientError::Server(e)) if e.kind == ErrorKindWire::BadRequest => {}
        other => return Err(format!("a wire Apply must be a BadRequest, got {other:?}")),
    }
    // Writes journaled and then refused change nothing: the typed
    // relation over a non-attribute leaves its name free.
    for (step, op) in [
        (
            "typed relation over a non-attribute",
            Op::DeclareTypedRelation("Ledger".into(), vec!["Orders".into()]),
        ),
        (
            "fact on an undeclared predicate",
            Op::LoadFact("Ghost".into(), vec!["1".into()]),
        ),
    ] {
        match c.write(op) {
            Err(ClientError::Server(e)) if e.kind == ErrorKindWire::Refused => {}
            other => return Err(format!("a {step} must be Refused, got {other:?}")),
        }
    }
    call("declare the refused name", c.declare_relation("Ledger", 2))?;

    call("shutdown", c.shutdown())?;
    let storage = running
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("run: {e}"))?;

    // Shutdown synced whatever no pass had: a reopen sees the full
    // state.
    let (mut db, _) = DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
        .map_err(|e| format!("reopen: {e}"))?;
    let mut certain = |wff: &str| db.db_mut().is_certain(wff).map_err(|e| e.to_string());
    expect(
        certain("Orders(100,32,7)")?,
        "reopened database remembers the ASSERT",
    )?;
    expect(
        certain("InStock(700,9)")?,
        "reopened database remembers the committed transaction",
    )?;
    for (probe, verdict) in probes.iter().zip(served) {
        let possible = db.db_mut().is_possible(probe).map_err(|e| e.to_string())?;
        let certain = db.db_mut().is_certain(probe).map_err(|e| e.to_string())?;
        expect(
            (possible, certain) == verdict,
            "reopened storage agrees with the served verdicts",
        )?;
    }
    let vocab = &db.db().theory().vocab;
    expect(
        vocab
            .find_predicate("Ledger")
            .map(|p| vocab.predicate(p).arity)
            == Some(2),
        "reopened storage declares Ledger at the arity served",
    )?;
    expect(
        vocab.find_predicate("Ghost").is_none(),
        "reopened storage never declared the refused fact's predicate",
    )?;

    println!("serve-smoke: ok");
    Ok(())
}

/// One client call's result, its error named after the step.
fn call<T>(step: &str, result: Result<T, ClientError>) -> Result<T, String> {
    result.map_err(|e| format!("{step}: {e}"))
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("smoke assertion failed: {what}"))
    }
}

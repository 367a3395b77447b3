//! Power loss under a served, group-committed write load.
//!
//! A primary runs over [`FailpointStorage`], whose power-loss image holds
//! only what an fsync or an atomic replace made durable. Three writers
//! mix plain statements, private-pool transactions and shared-pool
//! transactions (which queue in the lock table), and one `Subscribe`
//! stream follows the log. After every reply and every shipped batch the
//! test receives, it takes the power-loss image; once the load is done it
//! recovers each image and checks two things:
//!
//! 1. every unit acknowledged before the image was taken is in the
//!    recovered state, which equals the §4 serial replay of exactly the
//!    units whose LSN the recovered log reaches (a plain statement's own
//!    LSN, a transaction's commit LSN), in LSN order;
//! 2. every record shipped before the image was taken is in the
//!    recovered log at its LSN — no follower holds a record a power loss
//!    can take back.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use winslett::db::wal::{Catchup, FailpointStorage, WalEntry};
use winslett::db::{DbOptions, DurableDatabase, LogicalDatabase, MemStorage, WalOptions};
use winslett_serve::protocol::{read_frame, recv, send};
use winslett_serve::{Client, Request, Response, Server, ServerOptions};

const WRITERS: usize = 3;
const ROUNDS: usize = 3;

/// WAL options with auto-checkpointing off, so every image's log reaches
/// back to LSN 0 and a shipped record can be looked up at its LSN.
fn wal_options() -> WalOptions {
    WalOptions {
        compact_growth_factor: None,
        ..WalOptions::default()
    }
}

/// The seed every database starts from: `P` for plain statements, `Q`
/// for private-pool transactions, `H` for the shared pool.
fn seed(db: &mut LogicalDatabase) {
    for name in ["P", "Q", "H"] {
        db.declare_relation(name, 1).expect("declare");
    }
    db.execute("INSERT H(0) | H(1) WHERE T").expect("seed");
}

/// What one writer sends, as units: a plain statement, or a
/// transaction's statements.
fn script(w: usize) -> Vec<(bool, Vec<String>)> {
    let mut units = Vec::new();
    for r in 0..ROUNDS {
        for k in 0..2 {
            let atom = format!("P(w{w}r{r}k{k})");
            units.push((false, vec![format!("INSERT {atom} WHERE T")]));
        }
        let a = format!("Q(w{w}r{r}a)");
        let b = format!("Q(w{w}r{r}b)");
        units.push((
            true,
            vec![
                format!("INSERT {a} WHERE T"),
                format!("INSERT {b} WHERE {a}"),
                format!("DELETE {a} WHERE {b}"),
            ],
        ));
        // Ascending atom order: the shared transactions queue on each
        // other's locks but never deadlock.
        units.push((
            true,
            vec![
                "INSERT H(0) WHERE T".into(),
                format!("DELETE H(1) WHERE H(0) & P(w{w}r{r}k0)"),
                "MODIFY H(2) TO BE H(3) WHERE T".into(),
            ],
        ));
    }
    units
}

/// What the test saw, shared by the writer and subscriber threads.
#[derive(Default)]
struct Seen {
    /// Each power-loss image, with the LSNs of the units acknowledged
    /// and the records shipped before it was taken.
    images: Vec<(MemStorage, Vec<u64>, Vec<WalEntry>)>,
    /// Every acknowledged unit: its LSN and its statements.
    units: Vec<(u64, Vec<String>)>,
    shipped: Vec<WalEntry>,
}

impl Seen {
    fn image(&mut self, fp: &FailpointStorage) {
        let acked = self.units.iter().map(|(lsn, _)| *lsn).collect();
        let image = fp.power_loss_survivor();
        self.images.push((image, acked, self.shipped.clone()));
    }
}

fn writer(addr: SocketAddr, w: usize, fp: FailpointStorage, seen: Arc<Mutex<Seen>>) {
    let mut client = Client::connect(addr).expect("writer connects");
    let image = || seen.lock().unwrap().image(&fp);
    for (txn, statements) in script(w) {
        if !txn {
            let reply = client.execute(&statements[0]).expect("plain statement");
            seen.lock().unwrap().units.push((reply.lsn, statements));
            image();
            continue;
        }
        client.begin().expect("begin");
        image();
        for src in &statements {
            client.execute(src).expect("transactional statement");
            image();
        }
        let reply = client.commit().expect("commit");
        seen.lock().unwrap().units.push((reply.lsn, statements));
        image();
    }
}

fn subscriber(addr: SocketAddr, fp: FailpointStorage, seen: Arc<Mutex<Seen>>, stop: &AtomicBool) {
    let client = Client::connect(addr).expect("subscriber connects");
    let mut stream = client.into_stream();
    // An idle primary heartbeats every 250 ms, so the loop below wakes
    // to see `stop`; a silent stream this long means the primary died.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    send(&mut stream, &Request::Subscribe(0)).expect("subscribe");
    match recv::<Response>(&mut stream).expect("catch-up") {
        Response::Catchup(c) => assert!(!c.chunked && c.snapshot.is_none(), "no checkpoint"),
        other => panic!("expected Catchup, got {other:?}"),
    }
    while !stop.load(Ordering::SeqCst) {
        let payload = read_frame(&mut stream).expect("stream frame");
        let batch = match winslett_serve::protocol::decode::<Response>(&payload) {
            Ok(Response::WalBatch(b)) => b,
            other => panic!("expected WalBatch, got {other:?}"),
        };
        if batch.entries.is_empty() {
            continue; // heartbeat
        }
        let mut seen = seen.lock().unwrap();
        seen.shipped.extend(batch.entries);
        seen.image(&fp);
    }
}

/// An image's recovered worlds, the first LSN its log does not reach,
/// and its effective records by LSN.
struct Recovered {
    worlds: BTreeSet<Vec<String>>,
    reach: u64,
    log: HashMap<u64, WalEntry>,
}

fn recover(image: MemStorage) -> Recovered {
    let (mut db, report) =
        DurableDatabase::open(image, DbOptions::default(), wal_options()).expect("recovers");
    assert_eq!(report.truncated, None, "a synced image holds whole records");
    // `open` appended one compensating abort per unfinished transaction.
    let reach = db.next_lsn() - report.rolled_back as u64;
    let worlds = db.db().world_names().expect("worlds").into_iter().collect();
    db.sync().expect("sync");
    let log = match db.catchup_from(0).expect("catch-up") {
        Catchup::Suffix(entries) => entries.into_iter().map(|e| (e.lsn, e)).collect(),
        other => panic!("no checkpoint was taken: {other:?}"),
    };
    Recovered { worlds, reach, log }
}

#[test]
fn every_acknowledged_unit_and_shipped_record_survives_power_loss() {
    let fp = FailpointStorage::unlimited();
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        fp.clone(),
        DbOptions::default(),
        wal_options(),
        ServerOptions {
            compaction: None,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    let mut admin = Client::connect(addr).expect("admin connects");
    for name in ["P", "Q", "H"] {
        admin.declare_relation(name, 1).expect("declare");
    }
    let seed_lsn = admin
        .execute("INSERT H(0) | H(1) WHERE T")
        .expect("seed")
        .lsn;

    let seen = Arc::new(Mutex::new(Seen::default()));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let follower = {
            let (fp, seen, stop) = (fp.clone(), Arc::clone(&seen), &stop);
            s.spawn(move || subscriber(addr, fp, seen, stop))
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (fp, seen) = (fp.clone(), Arc::clone(&seen));
                s.spawn(move || writer(addr, w, fp, seen))
            })
            .collect();
        for handle in writers {
            handle.join().expect("writer");
        }
        stop.store(true, Ordering::SeqCst);
        follower.join().expect("subscriber");
    });
    admin.shutdown().expect("shutdown");
    running
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    let seen = Arc::try_unwrap(seen).ok().unwrap().into_inner().unwrap();
    assert_eq!(seen.units.len(), WRITERS * ROUNDS * 4);
    assert!(!seen.shipped.is_empty(), "the stream shipped records");
    // The serial oracle, one prefix per distinct reach.
    let mut units = seen.units.clone();
    units.sort_by_key(|(lsn, _)| *lsn);
    let mut recovered: BTreeMap<u64, Recovered> = BTreeMap::new();
    let mut checks = Vec::new();
    // An image only grows between syncs (no checkpoint): its log length
    // names it.
    let mut by_len: HashMap<usize, u64> = HashMap::new();
    for (image, acked, shipped) in seen.images {
        let len = image.get("wal.log").map_or(0, Vec::len);
        let reach = match by_len.get(&len) {
            Some(&reach) => reach,
            None => {
                let r = recover(image);
                let reach = r.reach;
                by_len.insert(len, reach);
                recovered.insert(reach, r);
                reach
            }
        };
        checks.push((reach, acked, shipped));
    }
    for (reach, acked, shipped) in &checks {
        assert!(
            *reach > seed_lsn,
            "the seed was acknowledged before the load"
        );
        for lsn in acked {
            assert!(
                lsn < reach,
                "unit acknowledged at lsn {lsn} lost (log reaches {reach})"
            );
        }
        let log = &recovered[reach].log;
        for entry in shipped {
            assert_eq!(
                log.get(&entry.lsn),
                Some(entry),
                "shipped record at lsn {} is not in the recovered log",
                entry.lsn
            );
        }
    }
    let mut oracle = LogicalDatabase::new();
    seed(&mut oracle);
    let mut applied = 0;
    for (reach, r) in &recovered {
        while let Some((lsn, statements)) = units.get(applied) {
            if lsn >= reach {
                break;
            }
            for src in statements {
                oracle.execute(src).expect("acknowledged statement replays");
            }
            applied += 1;
        }
        let want: BTreeSet<Vec<String>> =
            oracle.world_names().expect("worlds").into_iter().collect();
        assert_eq!(r.worlds, want, "image reaching lsn {reach}");
    }
    assert_eq!(applied, units.len(), "the last image holds every unit");
}

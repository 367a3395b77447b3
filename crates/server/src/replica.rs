//! WAL-shipping read replicas.
//!
//! A replica connects to a primary `winslett-serve`, subscribes to its
//! WAL stream, and rebuilds the logical database by settling shipped
//! records with [`TxnSettle`] and applying the ops it releases through
//! [`apply_op`] — the pair recovery uses. It then serves the
//! read half of the protocol (query / check / explain / pin) from its own
//! snapshot chain; every write-shaped request is refused with a typed
//! `ReadOnly` error.
//!
//! ## Catch-up and the stream
//!
//! On (re)connect the replica sends `Subscribe(next_lsn)` — the first LSN
//! it has not yet seen. The primary answers, atomically against its
//! writer lock, with a [`CatchupReply`]: either just a cursor (the
//! backlog follows as `WalBatch` frames read straight from the WAL
//! suffix) or a full checkpoint snapshot plus the suffix past it, when
//! the replica's cursor predates the primary's checkpoint. After the
//! backlog, live batches arrive in commit order, one shipped batch per
//! flushed write batch, with empty heartbeats while the primary is idle.
//!
//! The shipped stream is the *effective* log: aborted journal pairs are
//! filtered at the primary, so the replica tolerates LSN holes — any
//! entry at or past its cursor is settled, anything below it (a
//! resubscription overlap) is skipped. The tailer keeps one
//! [`TxnSettle`] across reconnects, so intents held for an open
//! transaction survive a lost stream; a snapshot bootstrap starts it
//! over, because the primary re-journals every open transaction past
//! each checkpoint.
//!
//! ## Pinned-LSN consistency
//!
//! `PinAt(min_lsn)` succeeds only once the replica's published snapshot
//! has applied every shipped record through `min_lsn`; until then the
//! client gets a typed `LagBehind` refusal and retries (or falls back to
//! the primary). Because apply order is commit order, a successful
//! `PinAt(x)` pins a state that agrees with the primary's history at `x`
//! on every verdict.

use crate::client::Client;
use crate::protocol::{
    assemble_snapshot, read_frame, recv, send, CatchupReply, ErrorKindWire, FrameError, Request,
    Response, StatsReply, WalBatchReply, WireError,
};
use crate::reactor::{
    Completions, NetCounters, PublishedView, Reactor, ReactorConfig, Role, RoleAction,
};
use crate::server::HEARTBEAT_INTERVAL;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;
use winslett_core::snapshot::TheorySnapshot;
use winslett_core::{
    apply_op, restore_theory, DbError, DbOptions, LogicalDatabase, Settled, TxnSettle,
};
use winslett_gua::SimplifyLevel;

/// Replica tunables.
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Hard cap on concurrently served read connections.
    pub max_connections: usize,
    /// A read connection idle this long is closed.
    pub idle_timeout: Duration,
    /// Pause between reconnection attempts to the primary.
    pub reconnect_backoff: Duration,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

/// Monotone counters plus the replication cursor, updated lock-free.
#[derive(Debug, Default)]
pub struct ReplicaStats {
    /// Read connections accepted into service.
    pub accepted: AtomicU64,
    /// Read connections refused at the admission gate.
    pub rejected_busy: AtomicU64,
    /// Requests served, all kinds.
    pub requests: AtomicU64,
    /// Read requests (query/check/explain) served.
    pub reads: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closes: AtomicU64,
    /// Malformed frames / undecodable requests observed.
    pub protocol_errors: AtomicU64,
    /// Snapshot generations currently pinned by connections.
    pub pinned_generations: AtomicU64,
    /// `WalBatch` frames applied (heartbeats excluded).
    pub replica_batches: AtomicU64,
    /// Shipped records applied.
    pub replica_records: AtomicU64,
    /// Catch-up bootstraps that carried a full checkpoint snapshot.
    pub replica_snapshots_loaded: AtomicU64,
    /// Subscriptions the tailer re-established after its first one: each
    /// accepted `Subscribe` handshake but the first.
    pub replica_reconnects: AtomicU64,
    /// Shipped records the replayer had to skip because applying them
    /// failed — mirrors recovery's deterministic-error accounting and
    /// should stay zero against an honest primary.
    pub replica_apply_errors: AtomicU64,
    /// `PinAt` requests refused because the replica had not yet applied
    /// the demanded LSN.
    pub lag_refusals: AtomicU64,
    /// The next LSN the tailer expects (= 1 + the highest shipped LSN
    /// the published state agrees with).
    pub next_lsn: AtomicU64,
}

/// What the tailer last published.
struct ReplicaPublished {
    snapshot: TheorySnapshot,
    /// Highest shipped LSN folded into `snapshot` (0 before the first
    /// applied record).
    last_lsn: u64,
}

struct ReplicaShared {
    published: RwLock<Arc<ReplicaPublished>>,
    stats: Arc<ReplicaStats>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    options: ReplicaOptions,
    addr: SocketAddr,
    primary: SocketAddr,
}

/// A cheap, clonable handle for poking a running replica from outside
/// its event loop.
#[derive(Clone)]
pub struct ReplicaHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ReplicaStats>,
    active: Arc<AtomicUsize>,
}

impl ReplicaHandle {
    /// The address the replica is serving reads on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Read connections currently in service.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown of the event loop and the tailer.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A read replica: a bound listener, a WAL tailer thread, and the shared
/// snapshot chain between them.
pub struct Replica {
    listener: TcpListener,
    shared: Arc<ReplicaShared>,
    db_options: DbOptions,
}

impl Replica {
    /// Binds `addr` for read service and records `primary` as the WAL
    /// source. The database starts empty and in memory; the first
    /// subscription's catch-up material populates it before any read can
    /// observe a non-initial generation.
    pub fn bind(
        addr: impl ToSocketAddrs,
        primary: SocketAddr,
        db_options: DbOptions,
        options: ReplicaOptions,
    ) -> Result<Self, DbError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let db = LogicalDatabase::with_options(db_options);
        let snapshot = TheorySnapshot::capture(db.theory());
        let shared = Arc::new(ReplicaShared {
            published: RwLock::new(Arc::new(ReplicaPublished {
                snapshot,
                last_lsn: 0,
            })),
            stats: Arc::new(ReplicaStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            options,
            addr,
            primary,
        });
        Ok(Replica {
            listener,
            shared,
            db_options,
        })
    }

    /// The bound read-service address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads (shutdown, stats).
    pub fn handle(&self) -> ReplicaHandle {
        ReplicaHandle {
            addr: self.shared.addr,
            shutdown: Arc::clone(&self.shared.shutdown),
            stats: Arc::clone(&self.shared.stats),
            active: Arc::clone(&self.shared.active),
        }
    }

    /// Serves reads until shutdown is requested, then drains live
    /// connections and joins the tailer. The I/O core is the same epoll
    /// reactor the primary uses; the tailer is its own thread — it is a
    /// client of the primary, not a served connection.
    pub fn run(self) -> Result<(), DbError> {
        let Replica {
            listener,
            shared,
            db_options,
        } = self;
        let tailer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_tailer(&shared, db_options))
        };
        let run_result = Completions::new().and_then(|completions| {
            Reactor::new(
                listener,
                ReplicaRole {
                    shared: Arc::clone(&shared),
                },
                completions,
                ReactorConfig {
                    max_connections: shared.options.max_connections,
                    idle_timeout: shared.options.idle_timeout,
                },
                Arc::clone(&shared.shutdown),
                Arc::clone(&shared.active),
            )
            .and_then(Reactor::run)
        });
        shared.shutdown.store(true, Ordering::SeqCst);
        let _ = tailer.join();
        run_result?;
        Ok(())
    }
}

/// The replica half of the reactor: reads, pins, and liveness are the
/// reactor's own; everything the role sees is either `Stats` (answered
/// inline — all counters are atomics) or write-shaped, refused with the
/// typed `ReadOnly` error. No writer thread exists on a replica, so no
/// request is ever deferred.
struct ReplicaRole {
    shared: Arc<ReplicaShared>,
}

impl Role for ReplicaRole {
    fn counters(&self) -> NetCounters<'_> {
        let s = &self.shared.stats;
        NetCounters {
            accepted: &s.accepted,
            rejected_busy: &s.rejected_busy,
            requests: &s.requests,
            reads: &s.reads,
            idle_closes: &s.idle_closes,
            protocol_errors: &s.protocol_errors,
            pinned_generations: &s.pinned_generations,
            lag_refusals: &s.lag_refusals,
        }
    }

    fn published(&self) -> PublishedView {
        let p = published(&self.shared);
        PublishedView {
            snapshot: p.snapshot.clone(),
            updates_applied: self.shared.stats.replica_records.load(Ordering::Relaxed),
            last_lsn: p.last_lsn,
        }
    }

    fn busy_message(&self, active: usize, cap: usize) -> String {
        format!("replica busy: {active} connections, cap {cap}")
    }

    fn lag_message(&self, have: u64, want: u64) -> String {
        format!("replica applied through lsn {have} but the pin demands lsn {want}")
    }

    fn handle(&self, _token: u64, _seq: u64, _draining: bool, request: Request) -> RoleAction {
        RoleAction::Reply(match request {
            Request::Stats => Response::Stats(Box::new(stats_reply(&self.shared))),
            Request::Write(_)
            | Request::Checkpoint
            | Request::Begin
            | Request::Commit
            | Request::Rollback
            | Request::Subscribe(_) => read_only(),
            other => Response::Error(WireError {
                kind: ErrorKindWire::BadRequest,
                message: format!("unroutable request: {other:?}"),
            }),
        })
    }

    fn generation_moved(&self) {}
}

// ----- the tailer -----------------------------------------------------------

/// The WAL tailer: subscribe, catch up, apply, republish; reconnect from
/// the next unseen LSN on any stream failure until shutdown.
///
/// A follower must never expose effects the primary has not committed:
/// one [`TxnSettle`], kept for the tailer's whole lifetime, settles the
/// shipped records and holds a transaction's intents until its commit
/// marker, across reconnects. Only a snapshot bootstrap starts it over:
/// the primary's log past a checkpoint re-journals every transaction
/// open across it.
fn run_tailer(shared: &ReplicaShared, db_options: DbOptions) {
    // Replay runs unsimplified (the §4 configuration, as in recovery);
    // each batch folds once at the configured level.
    let replay_options = DbOptions {
        simplify: SimplifyLevel::None,
        ..db_options
    };
    let mut db = LogicalDatabase::with_options(replay_options);
    let mut next_lsn: u64 = 0;
    let mut settle = TxnSettle::default();
    let mut subscribed = false;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match tail_once(
            shared,
            &db_options,
            &mut db,
            &mut next_lsn,
            &mut settle,
            &mut subscribed,
        ) {
            TailExit::Shutdown => return,
            TailExit::Redial => {}
        }
        // Backoff before redialing; shutdown cuts the wait short.
        let backoff = shared.options.reconnect_backoff;
        let step = Duration::from_millis(10).min(backoff);
        let mut waited = Duration::ZERO;
        while waited < backoff && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(step);
            waited += step;
        }
    }
}

enum TailExit {
    /// Shutdown was requested; do not reconnect.
    Shutdown,
    /// The dial, the handshake or the stream failed; reconnect.
    Redial,
}

/// One subscription lifetime: dial, handshake, apply until the stream
/// dies or shutdown lands. `subscribed` records that a handshake was
/// ever accepted; each accepted one after the first is a reconnect.
fn tail_once(
    shared: &ReplicaShared,
    db_options: &DbOptions,
    db: &mut LogicalDatabase,
    next_lsn: &mut u64,
    settle: &mut TxnSettle,
    subscribed: &mut bool,
) -> TailExit {
    // The primary heartbeats every HEARTBEAT_INTERVAL while idle; four
    // missed beats means the stream (or the primary) is gone — the
    // client's read deadline turns that into a typed `TimedOut` below.
    let mut stream = match Client::connect_with_timeout(
        shared.primary,
        Duration::from_secs(2),
        Some(HEARTBEAT_INTERVAL * 4),
    ) {
        Ok(c) => c.into_stream(),
        Err(_) => return TailExit::Redial,
    };
    if send(&mut stream, &Request::Subscribe(*next_lsn)).is_err() {
        return TailExit::Redial;
    }
    let catchup: CatchupReply = match recv::<Response>(&mut stream) {
        Ok(Response::Catchup(c)) => *c,
        Ok(Response::Error(_)) | Ok(_) | Err(_) => return TailExit::Redial,
    };
    if std::mem::replace(subscribed, true) {
        shared
            .stats
            .replica_reconnects
            .fetch_add(1, Ordering::Relaxed);
    }
    // A snapshot past the frame cap arrives as CatchupChunk frames after
    // a `chunked: true` announcement; reassemble before restoring.
    let snapshot = if catchup.chunked {
        let mut parts = Vec::new();
        loop {
            match recv::<Response>(&mut stream) {
                Ok(Response::CatchupChunk(c)) => {
                    let done = c.done;
                    parts.push(c.part);
                    if done {
                        break;
                    }
                }
                Ok(_) | Err(_) => return TailExit::Redial,
            }
        }
        match assemble_snapshot(&parts) {
            Ok(s) => Some(s),
            Err(_) => return TailExit::Redial,
        }
    } else {
        catchup.snapshot
    };
    if let Some(snap) = snapshot {
        // Our cursor predates the primary's checkpoint: restart from the
        // checkpoint image, exactly as recovery would.
        match restore_theory(&snap.theory) {
            Ok(theory) => {
                // The restored theory's generation counters start over;
                // readers cache sessions by generation, so force it past
                // the published one.
                let generation = published(shared).snapshot.generation();
                *db = LogicalDatabase::from_theory(theory, db.options());
                db.theory_mut().advance_generation_past(generation);
                *next_lsn = snap.lsn;
                // The snapshot holds only committed state, and the log
                // past it re-journals every transaction still open.
                *settle = TxnSettle::default();
                shared
                    .stats
                    .replica_snapshots_loaded
                    .fetch_add(1, Ordering::Relaxed);
                republish(shared, db, *next_lsn);
            }
            Err(_) => return TailExit::Redial,
        }
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return TailExit::Shutdown;
        }
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::TimedOut) => {
                // Heartbeats stopped: treat the stream as lost.
                return TailExit::Redial;
            }
            Err(_) => return TailExit::Redial,
        };
        let batch: WalBatchReply = match crate::protocol::decode::<Response>(&payload) {
            Ok(Response::WalBatch(b)) => b,
            Ok(_) | Err(_) => return TailExit::Redial,
        };
        if batch.entries.is_empty() {
            continue; // heartbeat
        }
        let mut replayed = 0u64;
        for entry in batch.entries {
            if entry.lsn < *next_lsn {
                continue; // resubscription overlap, already settled
            }
            *next_lsn = entry.lsn + 1;
            let Settled::Release(records) = settle.feed(entry) else {
                continue;
            };
            for (_, op) in records {
                // The stream is the effective log: holes at abort sites
                // are expected. An op that still refuses mirrors
                // recovery's deterministic-refusal accounting — it was
                // journaled but deterministically refused, and a refused
                // op changes nothing (`apply_op`), so skipping keeps us
                // aligned with the primary.
                if apply_op(db, &op).is_err() {
                    shared
                        .stats
                        .replica_apply_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                replayed += 1;
            }
        }
        if replayed == 0 {
            continue;
        }
        db.simplify(db_options.simplify);
        shared
            .stats
            .replica_records
            .fetch_add(replayed, Ordering::Relaxed);
        shared.stats.replica_batches.fetch_add(1, Ordering::Relaxed);
        // The published state agrees with the primary's durable history
        // at every processed LSN, held-back intents included (an
        // uncommitted intent has no effects there either), so pins need
        // not wait for an unrelated open transaction.
        republish(shared, db, *next_lsn);
    }
}

/// The current published snapshot.
fn published(shared: &ReplicaShared) -> Arc<ReplicaPublished> {
    Arc::clone(
        &shared
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Publishes the tailer's current state. Replay mutates the database in
/// place, so its generation only grows between publications (a snapshot
/// bootstrap forces it past the published one). `next_lsn` is the
/// resubscription point; the published state agrees with every shipped
/// LSN below it.
fn republish(shared: &ReplicaShared, db: &LogicalDatabase, next_lsn: u64) {
    let snapshot = TheorySnapshot::capture(db.theory());
    shared.stats.next_lsn.store(next_lsn, Ordering::Relaxed);
    let last_lsn = next_lsn.saturating_sub(1);
    *shared
        .published
        .write()
        .unwrap_or_else(PoisonError::into_inner) =
        Arc::new(ReplicaPublished { snapshot, last_lsn });
}

/// Builds the replica's stats reply — everything is an atomic or the
/// published snapshot, so no lock beyond the publication slot is taken.
fn stats_reply(shared: &ReplicaShared) -> StatsReply {
    let s = &shared.stats;
    let p = published(shared);
    StatsReply {
        accepted: s.accepted.load(Ordering::Relaxed),
        rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
        requests: s.requests.load(Ordering::Relaxed),
        reads: s.reads.load(Ordering::Relaxed),
        idle_closes: s.idle_closes.load(Ordering::Relaxed),
        protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        pinned_generations: s.pinned_generations.load(Ordering::Relaxed),
        replica_batches: s.replica_batches.load(Ordering::Relaxed),
        replica_records: s.replica_records.load(Ordering::Relaxed),
        replica_snapshots_loaded: s.replica_snapshots_loaded.load(Ordering::Relaxed),
        replica_reconnects: s.replica_reconnects.load(Ordering::Relaxed),
        lag_refusals: s.lag_refusals.load(Ordering::Relaxed),
        generation: p.snapshot.generation(),
        next_lsn: s.next_lsn.load(Ordering::Relaxed),
        ..StatsReply::default()
    }
}

fn read_only() -> Response {
    Response::Error(WireError {
        kind: ErrorKindWire::ReadOnly,
        message: "replica is read-only; send writes to the primary".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::server::{Server, ServerOptions};
    use std::time::Instant;
    use winslett_core::{MemStorage, WalOptions};

    fn boot_primary() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let (server, _report) = Server::bind(
            ("127.0.0.1", 0),
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
            ServerOptions {
                compaction: None,
                ..ServerOptions::default()
            },
        )
        .expect("bind primary");
        let addr = server.local_addr();
        let h = std::thread::spawn(move || {
            let _ = server.run();
        });
        (addr, h)
    }

    fn boot_replica(primary: std::net::SocketAddr) -> (Replica, ReplicaHandle) {
        let replica = Replica::bind(
            ("127.0.0.1", 0),
            primary,
            DbOptions::default(),
            ReplicaOptions {
                reconnect_backoff: Duration::from_millis(10),
                ..ReplicaOptions::default()
            },
        )
        .expect("bind replica");
        let handle = replica.handle();
        (replica, handle)
    }

    /// Retries `pin_at(min_lsn)` against the replica until it stops
    /// refusing with `LagBehind` or the deadline passes.
    fn pin_until_caught_up(
        client: &mut Client,
        min_lsn: u64,
        deadline: Duration,
    ) -> crate::protocol::SnapshotReply {
        let start = Instant::now();
        loop {
            match client.pin_at(min_lsn) {
                Ok(snap) => return snap,
                Err(ClientError::Server(e)) if e.kind == ErrorKindWire::LagBehind => {
                    assert!(
                        start.elapsed() < deadline,
                        "replica never caught up to lsn {min_lsn}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("pin_at failed: {other}"),
            }
        }
    }

    #[test]
    fn replica_tails_the_primary_and_serves_pinned_reads() {
        let (primary_addr, primary_thread) = boot_primary();
        let mut writer = Client::connect(primary_addr).expect("connect primary");
        writer.declare_relation("R", 1).expect("declare");
        let first = writer.execute("INSERT R(a) WHERE T").expect("first insert");

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });

        let mut reader = Client::connect(replica_addr).expect("connect replica");
        // Pinned-LSN consistency: once the pin succeeds, the verdict must
        // match the primary's history at that LSN.
        let snap = pin_until_caught_up(&mut reader, first.lsn, Duration::from_secs(5));
        assert!(snap.last_lsn >= first.lsn);
        let truth = reader.check("R(a)").expect("check on replica");
        assert!(truth.certain, "R(a) is certain at lsn {}", first.lsn);
        reader.unpin().expect("unpin");

        // A later write becomes visible after a later pin.
        let second = writer.execute("DELETE R(a) WHERE T").expect("second write");
        let _ = pin_until_caught_up(&mut reader, second.lsn, Duration::from_secs(5));
        let truth = reader.check("R(a)").expect("check after delete");
        assert!(!truth.possible, "R(a) is gone at lsn {}", second.lsn);
        reader.unpin().expect("unpin");

        // An LSN from the future refuses instead of blocking or lying.
        match reader.pin_at(second.lsn + 1000) {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::LagBehind),
            other => panic!("expected LagBehind, got {other:?}"),
        }

        // Every write-shaped request is a typed ReadOnly refusal.
        match reader.execute("INSERT R(b) WHERE T") {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::ReadOnly),
            other => panic!("expected ReadOnly, got {other:?}"),
        }
        match reader.checkpoint() {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::ReadOnly),
            other => panic!("expected ReadOnly, got {other:?}"),
        }

        // Close the read connection so the replica's drain is immediate.
        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        writer.shutdown().expect("shutdown primary");
        primary_thread.join().expect("primary thread");
    }

    #[test]
    fn replica_assembles_a_chunked_catchup_bootstrap() {
        use crate::protocol::{CatchupChunkReply, CatchupReply};
        use winslett_core::wal::{Catchup, DurableDatabase};
        use winslett_core::{MemStorage, WalOptions};

        // Real checkpoint material to serve, prepared in-process.
        let (mut db, _) = DurableDatabase::open(
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
        )
        .expect("open");
        db.declare_relation("R", 1).expect("declare");
        db.execute("INSERT R(a) WHERE T").expect("insert");
        db.checkpoint().expect("checkpoint");
        let next_lsn = db.next_lsn();
        let snap = match db.catchup_from(0).expect("catchup") {
            Catchup::Snapshot(snap, _) => *snap,
            Catchup::Suffix(_) => panic!("checkpoint must force the snapshot path"),
        };
        let pin_lsn = snap.lsn.saturating_sub(1);

        // A hand-rolled primary: one subscription, answered with the
        // snapshot split into deliberately tiny CatchupChunk parts — the
        // exact wire shape a >4 MiB bootstrap produces, without the 4 MiB.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind fake primary");
        let primary_addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            match recv::<Request>(&mut s) {
                Ok(Request::Subscribe(0)) => {}
                other => panic!("expected Subscribe(0), got {other:?}"),
            }
            send(
                &mut s,
                &Response::Catchup(Box::new(CatchupReply {
                    snapshot: None,
                    next_lsn,
                    chunked: true,
                })),
            )
            .expect("announce");
            let json = serde_json::to_string(&snap).expect("encode");
            let bytes = json.as_bytes();
            let mut at = 0usize;
            while at < bytes.len() {
                let mut cut = (at + 64).min(bytes.len());
                while !json.is_char_boundary(cut) {
                    cut -= 1;
                }
                let part = json[at..cut].to_string();
                at = cut;
                send(
                    &mut s,
                    &Response::CatchupChunk(CatchupChunkReply {
                        part,
                        done: at == bytes.len(),
                    }),
                )
                .expect("chunk");
            }
            // Heartbeats until the replica hangs up.
            while send(
                &mut s,
                &Response::WalBatch(WalBatchReply {
                    entries: Vec::new(),
                }),
            )
            .is_ok()
            {
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });
        let mut reader = Client::connect(replica_addr).expect("connect replica");
        let _ = pin_until_caught_up(&mut reader, pin_lsn, Duration::from_secs(5));
        let truth = reader.check("R(a)").expect("check");
        assert!(truth.certain, "R(a) folded into the chunked snapshot");
        reader.unpin().expect("unpin");
        let stats = reader.stats().expect("stats");
        assert_eq!(stats.replica_snapshots_loaded, 1, "snapshot path taken");

        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        fake.join().expect("fake primary thread");
    }

    #[test]
    fn replica_bootstraps_from_a_checkpoint_snapshot() {
        let (primary_addr, primary_thread) = boot_primary();
        let mut writer = Client::connect(primary_addr).expect("connect primary");
        writer.declare_relation("S", 1).expect("declare");
        writer.execute("INSERT S(x) WHERE T").expect("insert");
        // Checkpoint folds everything into the snapshot; a fresh replica
        // subscribing from 0 now predates the checkpoint and must take
        // the snapshot-plus-suffix path.
        writer.checkpoint().expect("checkpoint");
        let last = writer.execute("INSERT S(y) WHERE T").expect("suffix write");

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });
        let mut reader = Client::connect(replica_addr).expect("connect replica");
        let _ = pin_until_caught_up(&mut reader, last.lsn, Duration::from_secs(5));
        for probe in ["S(x)", "S(y)"] {
            let truth = reader.check(probe).expect("check");
            assert!(truth.certain, "{probe} must be certain after bootstrap");
        }
        reader.unpin().expect("unpin");
        let stats = reader.stats().expect("stats");
        assert_eq!(stats.replica_snapshots_loaded, 1, "snapshot path taken");
        assert!(stats.replica_records >= 1, "suffix replayed");

        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        writer.shutdown().expect("shutdown primary");
        primary_thread.join().expect("primary thread");
    }
}

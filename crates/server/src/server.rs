//! The server: an epoll reactor owning every socket, one writer thread,
//! a small snapshot-read worker pool, bounded admission, idle timeouts,
//! graceful drain.
//!
//! ## Concurrency model
//!
//! * **Writes** are handed by the reactor to a single writer thread,
//!   which applies them under the `Mutex<DurableDatabase>` writer lock
//!   (shared only with the background compactor). Each acknowledged
//!   update is journaled (WAL) *before* GUA applies it, and its reply
//!   carries the WAL LSN — the serialization order.
//! * **Group commit**: the database journals under
//!   [`SyncPolicy::Manual`], and the writer's *pass*, not the WAL
//!   record, is the unit of durability. The writer takes every request
//!   that queued while it was busy as one run and serves it in two
//!   passes: first the plain writes, commits and rollbacks of
//!   connections with nothing earlier waiting in the run, then the
//!   begins, transactional statements and whatever queued behind them.
//!   No item of a run has been answered, so every order that keeps each
//!   connection's own order is a legal serial order. A pass ends in at
//!   most one *durability point* — one `fsync`, one snapshot
//!   publication, one ship to subscribers, then the held acks — and
//!   every ack that promises durability (a plain write, a commit) waits
//!   for it. Begin, statement and rollback replies promise nothing
//!   durable and go out at once. Plain `Execute` statements pass
//!   through [`winslett_analyze::ConflictAnalyzer`]: a write that
//!   conflicts with the open batch, or that the analyzer cannot judge,
//!   closes it with a durability point of its own, so conflicting plain
//!   writes still publish apart. A lone request costs what it always
//!   did: one apply, one fsync, one capture, one reply.
//! * **Reads** never take the writer lock. After every update the writer
//!   publishes a [`TheorySnapshot`] (theory cloned once behind an `Arc`)
//!   into an `RwLock` slot; each connection answers from a private
//!   [`winslett_core::snapshot::SnapshotReader`] whose entailment session
//!   is encoded once per snapshot and reused across queries. A
//!   connection may `Pin` its snapshot, keeping a long analytical
//!   session on one generation while the writer commits on.
//! * **Admission** is a hard cap on live connections: the connection over
//!   the cap receives a typed `Busy` error frame and a close — never a
//!   silent hang.
//! * **Shutdown** (protocol request or [`ServerHandle::request_shutdown`])
//!   stops accepting, drains live connections (bounded by the idle
//!   timeout), then closes the durable database — syncing any records
//!   no pass has synced yet — and hands the storage back.

use crate::protocol::{
    catchup_frames, CheckpointReply, ErrorKindWire, ExecReply, Request, Response, StatsReply,
    TxnReply, WalBatchReply, WireError, WireVerdict, MAX_FRAME_LEN,
};
use crate::reactor::{
    Completions, Done, NetCounters, PublishedView, Reactor, ReactorConfig, Role, RoleAction,
    TOKEN_NONE,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, Weak};
use std::time::{Duration, Instant};
use winslett_analyze::{constrained_predicates, ConflictAnalyzer};
use winslett_core::explain::Verdict;
use winslett_core::snapshot::TheorySnapshot;
use winslett_core::wal::{
    Catchup, DurableDatabase, RecoveryReport, Storage, SyncPolicy, WalOptions,
};
use winslett_core::{DbError, DbOptions, LockRequest, LockTable, Op, WalEntry};
use winslett_gua::{SimplifyLevel, UpdateReport};
use winslett_logic::AccessSet;
use winslett_theory::Theory;

/// How often an idle subscription stream emits an empty heartbeat batch,
/// proving liveness to the follower (whose read timeout is a multiple of
/// this).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Tunables.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Hard cap on concurrently served connections; the next connection
    /// is refused with a typed `Busy` error.
    pub max_connections: usize,
    /// A connection idle (or stalled mid-frame) this long is closed.
    pub idle_timeout: Duration,
    /// Background-compaction policy; `None` disables the compactor
    /// thread. On by default — the trigger thresholds keep it dormant on
    /// small databases.
    pub compaction: Option<CompactionPolicy>,
    /// How long a transactional statement may wait for its footprint
    /// locks before the transaction is aborted with a typed `TxnTimeout`.
    /// The timeout doubles as deadlock avoidance: two transactions that
    /// wait on each other both die at the deadline instead of hanging.
    pub lock_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            compaction: Some(CompactionPolicy::default()),
            lock_timeout: Duration::from_secs(2),
        }
    }
}

/// When the background compactor runs. Every round simplifies at
/// `Full` and checkpoints from the compacted theory.
///
/// A round fires when the published theory is past `min_nodes` *and*
/// either its store has grown by `growth_factor` over the size left by
/// the previous round, or `max_lsn_lag` records have committed since the
/// previous round (so sustained small writes still get folded down even
/// when each one barely grows the store).
#[derive(Clone, Debug)]
pub struct CompactionPolicy {
    /// Trigger when live store nodes ≥ this factor × the post-compaction
    /// baseline (§3.6 store-size measure).
    pub growth_factor: f64,
    /// Node floor below which the compactor never runs.
    pub min_nodes: usize,
    /// Trigger regardless of growth once this many records have
    /// committed since the last round.
    pub max_lsn_lag: u64,
    /// How often the trigger is evaluated.
    pub poll_interval: Duration,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            growth_factor: 2.0,
            min_nodes: 512,
            max_lsn_lag: 4096,
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// Monotone counters, updated lock-free by the reactor, writer and
/// compactor threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted into service.
    pub accepted: AtomicU64,
    /// Connections refused at the admission gate.
    pub rejected_busy: AtomicU64,
    /// Requests served, all kinds.
    pub requests: AtomicU64,
    /// Updates acknowledged.
    pub updates: AtomicU64,
    /// Read requests (query/check/explain) served.
    pub reads: AtomicU64,
    /// Snapshots published by the writer.
    pub snapshots_published: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closes: AtomicU64,
    /// Malformed frames / undecodable requests observed.
    pub protocol_errors: AtomicU64,
    /// Write batches flushed (each = one sync + one snapshot publication).
    pub write_batches: AtomicU64,
    /// Writes that shared a batch with at least one other write.
    pub coalesced_writes: AtomicU64,
    /// Snapshot generations currently pinned by connections (gauge:
    /// `Pin` raises it, `Unpin` and pinned-connection teardown lower it).
    pub pinned_generations: AtomicU64,
    /// Superseded published generations whose `Arc<Theory>` is still
    /// alive (gauge, refreshed on publication and stats reads).
    pub retained_generations: AtomicU64,
    /// Background-compaction swaps installed.
    pub compactions: AtomicU64,
    /// Compaction rounds abandoned at swap time.
    pub compaction_aborts: AtomicU64,
    /// Store nodes reclaimed across all swaps.
    pub compaction_nodes_reclaimed: AtomicU64,
    /// Cumulative writer-lock pause across swaps, µs.
    pub compaction_swap_pause_us: AtomicU64,
    /// Longest single swap pause, µs.
    pub compaction_swap_pause_max_us: AtomicU64,
    /// WAL records shipped to subscribers (summed over subscribers).
    pub records_shipped: AtomicU64,
    /// `PinAt` requests refused because the published snapshot had not
    /// reached the demanded LSN.
    pub lag_refusals: AtomicU64,
    /// Transactions opened with `Begin`.
    pub txn_begun: AtomicU64,
    /// Transactions committed.
    pub txn_committed: AtomicU64,
    /// Transactions rolled back — client `Rollback`, lock timeout,
    /// drain abort, or connection teardown.
    pub txn_aborted: AtomicU64,
    /// Transactions currently open (gauge).
    pub txn_active: AtomicU64,
    /// Plain (non-transactional) writes refused because they collided
    /// with locks held by an open transaction.
    pub txn_conflicts: AtomicU64,
}

/// What the writer last published: an immutable snapshot plus its place
/// in the acknowledged-update order.
struct Published {
    snapshot: TheorySnapshot,
    updates_applied: u64,
    last_lsn: u64,
}

struct Shared<S: Storage> {
    writer: Mutex<Option<DurableDatabase<S>>>,
    published: RwLock<Arc<Published>>,
    /// Live WAL subscribers: each holds the sending half of its
    /// subscription channel. Registration happens under the writer lock
    /// (atomically with the catch-up computation), so no committed record
    /// can fall between the backlog and the stream. Dead subscribers are
    /// pruned when a send fails.
    subscribers: Mutex<Vec<mpsc::Sender<Vec<WalEntry>>>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    options: ServerOptions,
    addr: SocketAddr,
    /// The reactor's completion queue: the writer thread posts every
    /// reply through it, and [`ship`] wakes the event loop through it
    /// when records land for streaming subscribers.
    completions: Arc<Completions>,
    /// Weak handles on superseded published generations, backing the
    /// `retained_generations` gauge: an entry whose upgrade fails has
    /// been fully released (no pin, cached session, or in-flight read
    /// holds its `Arc<Theory>` anymore) and is pruned.
    retained: Mutex<Vec<(u64, Weak<Theory>)>>,
    /// The lock table: S/X locks at footprint-atom granularity, held by
    /// open transactions under strict two-phase locking.
    locks: LockTable,
    /// Which connection token owns which open transaction. `None`
    /// reserves the slot while the `Begin` is in flight to the writer
    /// thread.
    txn_by_token: Mutex<HashMap<u64, Option<u64>>>,
}

impl<S: Storage> Shared<S> {
    /// Shared state around an opened database, publishing its current
    /// theory as the first snapshot.
    fn new(
        db: DurableDatabase<S>,
        options: ServerOptions,
        addr: SocketAddr,
        completions: Arc<Completions>,
    ) -> Arc<Self> {
        let snapshot = TheorySnapshot::capture(db.db().theory());
        let last_lsn = db.next_lsn().saturating_sub(1);
        Arc::new(Shared {
            writer: Mutex::new(Some(db)),
            published: RwLock::new(Arc::new(Published {
                snapshot,
                updates_applied: 0,
                last_lsn,
            })),
            subscribers: Mutex::new(Vec::new()),
            stats: Arc::new(ServerStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            options,
            addr,
            completions,
            retained: Mutex::new(Vec::new()),
            locks: LockTable::new(),
            txn_by_token: Mutex::new(HashMap::new()),
        })
    }

    /// The `txn_by_token` map (its lock only guards map edits, so a
    /// poisoned lock still holds a consistent value).
    fn txn_slots(&self) -> MutexGuard<'_, HashMap<u64, Option<u64>>> {
        self.txn_by_token
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Upper bound on writes coalesced into one batch, so ack latency stays
/// bounded under a deep queue.
const MAX_BATCH: usize = 32;

/// Where a write's reply goes: the reactor connection awaiting it.
#[derive(Clone, Copy)]
struct WriteDone {
    token: u64,
    seq: u64,
}

impl WriteDone {
    /// Posts the reply to the reactor, tagged for the awaiting connection.
    fn fill<S: Storage>(self, shared: &Shared<S>, r: Response) {
        shared.completions.post(self.token, self.seq, Done::Resp(r));
    }
}

/// One queued write plus the connection its reply goes back to.
struct WriteJob {
    op: Op,
    done: WriteDone,
}

/// A reply held for its durability point: the response to post once the
/// fsync covering it succeeds, or the item's own error.
type HeldAck = (WriteDone, Result<Response, WireError>);

/// A cheap, clonable handle for poking a running server from outside its
/// event loop (signal handlers, tests, sibling threads).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    active: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Connections currently in service.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown: sets the flag and pokes the event
    /// loop awake with a throwaway connection.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Make the listener readable so the reactor's epoll wait returns
        // and observes the flag. Errors are fine — the listener may
        // already be gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// The server: a bound listener plus the shared state its reactor,
/// writer and compactor threads work against.
pub struct Server<S: Storage + Send + 'static> {
    listener: TcpListener,
    shared: Arc<Shared<S>>,
}

impl<S: Storage + Send + 'static> Server<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and opens (or
    /// recovers) the durable database on `storage`.
    ///
    /// The database journals under [`SyncPolicy::Manual`] whatever policy
    /// `wal_options` names: the server owns durability and syncs once per
    /// writer pass, before any ack that promises it. The other options
    /// (auto-checkpointing) apply as given.
    pub fn bind(
        addr: impl ToSocketAddrs,
        storage: S,
        db_options: DbOptions,
        wal_options: WalOptions,
        options: ServerOptions,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let wal_options = WalOptions {
            policy: SyncPolicy::Manual,
            ..wal_options
        };
        let (mut db, report) = DurableDatabase::open(storage, db_options, wal_options)?;
        // Arm WAL shipping up front: the retained tail is drained to
        // subscribers (or discarded when there are none) at every
        // durability point, so the cost of arming before any replica
        // connects is one Vec push per record.
        db.enable_shipping();
        let shared = Shared::new(db, options, addr, Completions::new()?);
        Ok((Server { listener, shared }, report))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads (shutdown, stats).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.shared.addr,
            shutdown: Arc::clone(&self.shared.shutdown),
            stats: Arc::clone(&self.shared.stats),
            active: Arc::clone(&self.shared.active),
        }
    }

    /// Serves until shutdown is requested, drains live connections, then
    /// closes the durable database — **flushing buffered WAL records** —
    /// and returns the storage (tests reopen it to inspect final state).
    ///
    /// The I/O core is the nonblocking epoll reactor: one thread owning
    /// every socket, writes funneled to a single writer thread, SAT reads
    /// on a small worker pool.
    pub fn run(self) -> Result<S, DbError> {
        let Server { listener, shared } = self;
        let compactor = shared.options.compaction.clone().map(|policy| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_compactor(&shared, &policy))
        });
        let chan = Arc::new(WriterChan::default());
        let writer_thread = {
            let shared = Arc::clone(&shared);
            let chan = Arc::clone(&chan);
            std::thread::spawn(move || run_writer(&shared, &chan))
        };
        let role = PrimaryRole {
            shared: Arc::clone(&shared),
            chan: Arc::clone(&chan),
        };
        let config = ReactorConfig {
            max_connections: shared.options.max_connections,
            idle_timeout: shared.options.idle_timeout,
        };
        let run_result = Reactor::new(
            listener,
            role,
            Arc::clone(&shared.completions),
            config,
            Arc::clone(&shared.shutdown),
            Arc::clone(&shared.active),
        )
        .and_then(Reactor::run);
        // Whether the reactor drained cleanly or died on an epoll error,
        // the teardown discipline is the same: flag the shutdown so the
        // compactor exits, stop the writer thread after it finishes the
        // queued work, then close the database.
        shared.shutdown.store(true, Ordering::SeqCst);
        chan.close();
        let _ = writer_thread.join();
        if let Some(handle) = compactor {
            let _ = handle.join();
        }
        rollback_orphans(&shared);
        run_result?;
        // Even if a write panicked and poisoned the lock, closing is the
        // best effort left: the WAL only ever holds intact records.
        let db = shared
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match db {
            Some(db) => db.close(),
            None => Err(DbError::Storage {
                message: "writer already closed".into(),
            }),
        }
    }
}

// ----- the write path -------------------------------------------------------

/// Builds the stats reply from the shared counters, plus the durable
/// figures when the caller could reach the database (pass `None` when the
/// writer is closed or its lock unavailable).
fn stats_reply<S: Storage>(shared: &Shared<S>, db: Option<&DurableDatabase<S>>) -> StatsReply {
    refresh_retained(shared);
    let s = &shared.stats;
    let mut reply = StatsReply {
        accepted: s.accepted.load(Ordering::Relaxed),
        rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
        requests: s.requests.load(Ordering::Relaxed),
        updates: s.updates.load(Ordering::Relaxed),
        reads: s.reads.load(Ordering::Relaxed),
        snapshots_published: s.snapshots_published.load(Ordering::Relaxed),
        idle_closes: s.idle_closes.load(Ordering::Relaxed),
        protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        write_batches: s.write_batches.load(Ordering::Relaxed),
        coalesced_writes: s.coalesced_writes.load(Ordering::Relaxed),
        pinned_generations: s.pinned_generations.load(Ordering::Relaxed),
        retained_generations: s.retained_generations.load(Ordering::Relaxed),
        compactions: s.compactions.load(Ordering::Relaxed),
        compaction_aborts: s.compaction_aborts.load(Ordering::Relaxed),
        compaction_nodes_reclaimed: s.compaction_nodes_reclaimed.load(Ordering::Relaxed),
        compaction_swap_pause_us: s.compaction_swap_pause_us.load(Ordering::Relaxed),
        compaction_swap_pause_max_us: s.compaction_swap_pause_max_us.load(Ordering::Relaxed),
        records_shipped: s.records_shipped.load(Ordering::Relaxed),
        lag_refusals: s.lag_refusals.load(Ordering::Relaxed),
        txn_begun: s.txn_begun.load(Ordering::Relaxed),
        txn_committed: s.txn_committed.load(Ordering::Relaxed),
        txn_aborted: s.txn_aborted.load(Ordering::Relaxed),
        txn_active: s.txn_active.load(Ordering::Relaxed),
        txn_conflicts: s.txn_conflicts.load(Ordering::Relaxed),
        lock_waits: shared.locks.stats.waits.load(Ordering::Relaxed),
        lock_timeouts: shared.locks.stats.timeouts.load(Ordering::Relaxed),
        subscribers: shared
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64,
        ..StatsReply::default()
    };
    if let Some(db) = db {
        let wal = db.stats();
        reply.generation = db.db().theory().generation();
        reply.next_lsn = db.next_lsn();
        reply.wal_records = wal.records;
        reply.wal_syncs = wal.syncs;
        reply.wal_checkpoints = wal.checkpoints;
    }
    reply
}

/// The current published snapshot (the lock only ever guards an `Arc`
/// swap, so a poisoned lock still holds a consistent value).
fn read_published<S: Storage>(shared: &Shared<S>) -> Arc<Published> {
    Arc::clone(
        &shared
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Swaps in a new published snapshot and counts the publication. The
/// superseded generation is recorded as a weak reference so the
/// `retained_generations` gauge can report how many old `Arc<Theory>`
/// allocations are still pinned alive by readers or cached sessions.
fn publish<S: Storage>(shared: &Shared<S>, p: Published) {
    let current = p.snapshot.generation();
    let superseded = {
        let mut slot = shared
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Arc::new(p))
    };
    shared
        .stats
        .snapshots_published
        .fetch_add(1, Ordering::Relaxed);
    let old_gen = superseded.snapshot.generation();
    if old_gen != current {
        let mut retained = shared
            .retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if retained.iter().all(|(g, _)| *g != old_gen) {
            retained.push((old_gen, superseded.snapshot.theory_weak()));
        }
    }
    refresh_retained(shared);
}

/// Prunes the superseded-generation registry of entries whose theory has
/// actually been dropped (or that became current again after a no-op
/// publication) and refreshes the `retained_generations` gauge.
fn refresh_retained<S: Storage>(shared: &Shared<S>) -> u64 {
    let current = read_published(shared).snapshot.generation();
    let mut retained = shared
        .retained
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    retained.retain(|(g, w)| *g != current && w.strong_count() > 0);
    let count = retained.len() as u64;
    shared
        .stats
        .retained_generations
        .store(count, Ordering::Relaxed);
    count
}

/// The open batch of one writer pass: what the pass applied to the live
/// database since its last durability point, and the acks that wait for
/// it. One analyzer per pass: footprints only need to be comparable
/// within it, and a long-lived analyzer would intern atoms forever.
#[derive(Default)]
struct Batch {
    analyzer: ConflictAnalyzer,
    /// Footprints of the plain `Execute` writes in the open batch.
    feet: Vec<AccessSet>,
    /// Plain writes in the open batch, applied or refused.
    writes: usize,
    /// Updates applied to the live database since the last durability
    /// point (a commit counts its statements).
    applied: u64,
    /// LSN of the last unit made live, if any: the batch then needs an
    /// fsync and a publication before its acks.
    last_lsn: Option<u64>,
    /// Replies that promise durability, in the order they were computed.
    acks: Vec<HeldAck>,
}

impl Batch {
    /// Applies one plain write. Consecutive pairwise-independent
    /// `Execute` statements share the open batch; a write that conflicts
    /// with one of them closes it first, and one the analyzer cannot
    /// judge (any other op changes the language itself) runs in a batch
    /// of its own, so no publication skips the state between two
    /// conflicting plain writes. A write may share a batch with a commit
    /// it follows: every publication is still a serial prefix of the
    /// acknowledged (LSN) order, and both acks wait for it.
    fn write<S: Storage>(
        &mut self,
        shared: &Shared<S>,
        db: &mut DurableDatabase<S>,
        job: WriteJob,
    ) {
        let footprint = match &job.op {
            Op::Execute(src) => self.analyzer.footprint(src),
            _ => None,
        };
        let joins = footprint.as_ref().is_some_and(|fp| {
            self.feet.len() < MAX_BATCH && self.feet.iter().all(|f| f.independent(fp))
        });
        if !joins {
            self.close(shared, db);
        }
        self.writes += 1;
        let result = match plain_write_conflict(shared, db.db().theory(), &job.op) {
            Some(e) => Err(wire_error(&e)),
            None => {
                let lsn = db.next_lsn();
                match db.apply(job.op) {
                    Ok(report) => {
                        self.applied += 1;
                        self.last_lsn = Some(lsn);
                        let generation = db.db().theory().generation();
                        Ok(Response::Executed(exec_reply(lsn, generation, &report)))
                    }
                    Err(e) => Err(wire_error(&e)),
                }
            }
        };
        self.acks.push((job.done, result));
        match footprint {
            Some(fp) => self.feet.push(fp),
            None => self.close(shared, db),
        }
    }

    /// Commits `txn` into the open batch: its ack waits for the batch's
    /// durability point like a plain write's.
    ///
    /// Early lock release: the transaction's locks go now, before that
    /// fsync, so a plain write later in the pass passes the conflict gate
    /// and a statement parked on those locks can take them in the same
    /// run. This is safe: whatever takes them journals after this commit
    /// marker — a plain write's ack waits for the same fsync, and a
    /// statement's transaction commits in a later pass — so no ack leaves
    /// before the fsync that covers both.
    fn commit<S: Storage>(
        &mut self,
        shared: &Shared<S>,
        db: &mut DurableDatabase<S>,
        done: WriteDone,
        txn: u64,
    ) {
        if !txn_mapping_current(shared, done.token, txn) {
            self.acks.push((done, Err(no_open_txn())));
            return;
        }
        shared.txn_slots().remove(&done.token);
        let result = match db.txn_commit(txn) {
            Ok((lsn, ops)) => {
                self.applied += ops as u64;
                self.last_lsn = Some(lsn);
                shared.stats.txn_committed.fetch_add(1, Ordering::Relaxed);
                Ok(Response::TxnCommitted(TxnReply {
                    txn,
                    lsn,
                    statements: ops as u64,
                }))
            }
            Err(e) => {
                // The core rolled the transaction back (reapply or
                // journaling failure): surface the typed refusal.
                shared.stats.txn_aborted.fetch_add(1, Ordering::Relaxed);
                Err(wire_error(&e))
            }
        };
        shared.locks.release_all(txn);
        gauge_dec(&shared.stats.txn_active);
        self.acks.push((done, result));
    }

    /// The durability point: one sync, one snapshot capture and
    /// publication, one ship, then every held ack. If the sync fails no
    /// ack may claim success and nothing ships: the batch is applied in
    /// memory but not guaranteed on storage, and the database refuses
    /// every later write (fail-stop), so no later pass publishes or
    /// ships it.
    fn close<S: Storage>(&mut self, shared: &Shared<S>, db: &mut DurableDatabase<S>) {
        let acks = std::mem::take(&mut self.acks);
        let (writes, applied) = (self.writes, self.applied);
        let last_lsn = self.last_lsn.take();
        self.feet.clear();
        self.writes = 0;
        self.applied = 0;
        if acks.is_empty() {
            return;
        }
        if let Some(last_lsn) = last_lsn {
            if let Err(e) = db.sync() {
                let failure = wire_error(&e);
                for (done, result) in acks {
                    done.fill(
                        shared,
                        Response::Error(result.err().unwrap_or_else(|| failure.clone())),
                    );
                }
                return;
            }
            let snapshot = TheorySnapshot::capture(db.db().theory());
            let updates_applied = read_published(shared).updates_applied + applied;
            publish(
                shared,
                Published {
                    snapshot,
                    updates_applied,
                    last_lsn,
                },
            );
            shared.stats.updates.fetch_add(applied, Ordering::Relaxed);
        }
        shared.stats.write_batches.fetch_add(1, Ordering::Relaxed);
        if writes > 1 {
            shared
                .stats
                .coalesced_writes
                .fetch_add(writes as u64, Ordering::Relaxed);
        }
        // In commit order: the writer lock is still held.
        ship(shared, db);
        for (done, result) in acks {
            done.fill(shared, result.unwrap_or_else(Response::Error));
        }
    }
}

/// Drains the shipping tail and fans it out to every live subscriber,
/// pruning subscribers whose stream side is gone. Must be called with the
/// writer lock held so batches are delivered in commit order. When no
/// subscriber is registered the drained records are simply discarded — a
/// later subscriber gets them from storage via catch-up.
fn ship<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>) {
    let entries = db.drain_shipping();
    if entries.is_empty() {
        return;
    }
    let mut subs = shared
        .subscribers
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if subs.is_empty() {
        return;
    }
    let shipped = (entries.len() * subs.len()) as u64;
    subs.retain(|tx| tx.send(entries.clone()).is_ok());
    drop(subs);
    shared
        .stats
        .records_shipped
        .fetch_add(shipped, Ordering::Relaxed);
    // The subscriber channels are drained by the event loop: poke it
    // awake so it pumps the entries out to streaming connections.
    shared.completions.post(TOKEN_NONE, 0, Done::Shipped);
}

/// Splits a shipped batch into frame-sized chunks: entries are packed
/// greedily by serialized size against the frame cap (minus wrapper
/// headroom). A single entry always fits — [`winslett_core::MAX_RECORD_LEN`]
/// is enforced at mint time precisely so this holds.
pub(crate) fn chunk_entries(entries: Vec<WalEntry>) -> Vec<Vec<WalEntry>> {
    let budget = MAX_FRAME_LEN as usize - 1024;
    let mut chunks = Vec::new();
    let mut chunk: Vec<WalEntry> = Vec::new();
    let mut used = 0usize;
    for entry in entries {
        // Serialized size plus the array comma; cheap relative to the
        // frame send that follows.
        let cost = serde_json::to_string(&entry)
            .map(|s| s.len() + 1)
            .unwrap_or(budget);
        if !chunk.is_empty() && used + cost > budget {
            chunks.push(std::mem::take(&mut chunk));
            used = 0;
        }
        used += cost;
        chunk.push(entry);
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    chunks
}

// ----- transactions ----------------------------------------------------------

/// Lock requests for one write op against the live `theory`, at
/// footprint-atom granularity where the analyzer can prove them
/// (Theorem 4: updates with disjoint footprints commute) and the global
/// key where it cannot. Keys are the atoms' textual rendering, stable
/// across analyzer instances, so a `LoadFact` and an `Execute` touching
/// the same ground atom contend. An op that writes a predicate the
/// theory's §3.5 axioms constrain takes the global key: rule 3 filtering
/// couples it to atoms it never names (an FD makes `DELETE Price(a,10)`
/// and `INSERT Price(a,12)` order-sensitive), so no finer lock is sound —
/// the analyzer's own widening (`winslett_analyze::statement_footprint`).
/// `Execute` is judged by its write atoms, `LoadFact` by its predicate.
/// The constrained set is read from `theory` on every call.
fn lock_requests(op: &Op, theory: &Theory) -> Vec<LockRequest> {
    let constrained = constrained_predicates(theory);
    let coupled = |pred: &str| {
        let found = theory.vocab.find_predicate(pred);
        found.is_some_and(|p| constrained.contains(&p))
    };
    match op {
        Op::Execute(src) => {
            let profile = ConflictAnalyzer::default().lock_profile(src);
            // A key renders its atom as `Pred(args)`.
            let coupled_key = |k: &String| coupled(k.split('(').next().unwrap_or(k));
            let writes_coupled = profile.writes.iter().any(coupled_key);
            if profile.global || writes_coupled {
                return vec![LockRequest::global()];
            }
            profile
                .writes
                .iter()
                .map(|k| LockRequest::exclusive(k.clone()))
                .chain(profile.reads.iter().map(|k| LockRequest::shared(k.clone())))
                .collect()
        }
        Op::LoadFact(pred, args) if !coupled(pred) && args.is_empty() => {
            vec![LockRequest::exclusive(pred.clone())]
        }
        Op::LoadFact(pred, args) if !coupled(pred) => {
            vec![LockRequest::exclusive(format!(
                "{pred}({})",
                args.join(",")
            ))]
        }
        // Declarations and raw wffs change the language itself.
        _ => vec![LockRequest::global()],
    }
}

/// Refuses a plain (non-transactional) write that would collide with
/// locks held by an open transaction. Waiting is not an option here:
/// plain writes are applied by the writer thread, the same thread that
/// processes the commits that would release the locks.
fn plain_write_conflict<S: Storage>(
    shared: &Shared<S>,
    theory: &Theory,
    op: &Op,
) -> Option<DbError> {
    if shared.locks.holders() == 0 {
        return None; // fast path: no transaction holds anything
    }
    let key = shared.locks.would_block(&lock_requests(op, theory))?;
    shared.stats.txn_conflicts.fetch_add(1, Ordering::Relaxed);
    Some(DbError::TxnConflict {
        message: format!(
            "write collides with lock `{key}` held by an open transaction; \
             retry after it finishes"
        ),
    })
}

/// The acknowledgement of one applied write.
fn exec_reply(lsn: u64, generation: u64, report: &UpdateReport) -> ExecReply {
    ExecReply {
        lsn,
        generation,
        nodes_added: report.nodes_added as i64,
        completion_added: report.completion_added as u64,
    }
}

/// Decrements a gauge without wrapping below zero (teardown paths can
/// race each other harmlessly).
fn gauge_dec(gauge: &AtomicU64) {
    let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
}

fn no_open_txn() -> WireError {
    WireError {
        kind: ErrorKindWire::BadRequest,
        message: "no transaction is open on this connection".into(),
    }
}

fn drain_abort() -> WireError {
    WireError {
        kind: ErrorKindWire::ShuttingDown,
        message: "server is draining; transaction aborted".into(),
    }
}

/// Opens a transaction: journals the begin marker (unsynced — it
/// promises nothing until the commit) and bumps the gauges. The reply
/// carries the new id (its `TxnBegin` record's LSN).
fn txn_begin<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>) -> Response {
    match db.txn_begin() {
        Ok(txn) => {
            shared.stats.txn_begun.fetch_add(1, Ordering::Relaxed);
            shared.stats.txn_active.fetch_add(1, Ordering::Relaxed);
            Response::TxnBegun(TxnReply {
                txn,
                lsn: 0,
                statements: 0,
            })
        }
        Err(e) => Response::Error(wire_error(&e)),
    }
}

/// Applies one op inside an open transaction. The caller already holds
/// the transaction's locks on the op's footprint; this journals the
/// intent and grows the private workspace — the live database (and
/// published snapshot) are untouched until commit. `covered` means every
/// footprint lock was held *before* this statement acquired anything, so
/// the workspace is provably current on every atom it touches and the
/// clone-and-redo refresh is skipped.
fn txn_apply<S: Storage>(db: &mut DurableDatabase<S>, txn: u64, op: Op, covered: bool) -> Response {
    let lsn = db.next_lsn();
    match db.txn_apply(txn, op, covered) {
        Ok(report) => {
            let generation = db
                .txn_view(txn)
                .map(|w| w.theory().generation())
                .unwrap_or_default();
            Response::Executed(exec_reply(lsn, generation, &report))
        }
        // A refused statement does not kill the transaction: its
        // compensation is journaled and the workspace is unchanged.
        Err(e) => Response::Error(wire_error(&e)),
    }
}

/// Rolls `txn` back — journals the abort marker and discards the
/// workspace (the live database never saw the intents) — then releases
/// its locks. The marker needs no fsync of its own: recovery rolls back a
/// transaction that has no commit marker.
fn txn_rollback<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>, txn: u64) -> Response {
    let resp = match db.txn_rollback(txn) {
        Ok(()) => {
            shared.stats.txn_aborted.fetch_add(1, Ordering::Relaxed);
            Response::TxnRolledBack(TxnReply {
                txn,
                lsn: 0,
                statements: 0,
            })
        }
        Err(e) => Response::Error(wire_error(&e)),
    };
    shared.locks.release_all(txn);
    gauge_dec(&shared.stats.txn_active);
    resp
}

/// Rolls back every transaction still open on the writer — the teardown
/// safety net, run after connections have drained so an in-flight
/// transaction's journaled intents are compensated before the final
/// close (recovery would do the same, but doing it live keeps the WAL's
/// final state self-describing).
fn rollback_orphans<S: Storage>(shared: &Shared<S>) {
    let Ok(mut guard) = shared.writer.lock() else {
        return;
    };
    let Some(db) = guard.as_mut() else {
        return;
    };
    for txn in db.txn_ids() {
        txn_rollback(shared, db, txn);
    }
}

// ----- the writer thread -----------------------------------------------------

/// One unit of work for the server's single writer thread.
enum WriterWork {
    /// A write bound for the conflict-aware batcher.
    Write(WriteJob),
    /// `Stats` — a control op that must see the post-write counters, so
    /// it acts as a barrier: pending writes flush first.
    Stats { token: u64, seq: u64 },
    /// `Checkpoint` — barrier for the same reason.
    Checkpoint { token: u64, seq: u64 },
    /// `Subscribe` — registered under the writer lock so the catch-up
    /// point is exact; also a barrier.
    Subscribe { token: u64, seq: u64, from_lsn: u64 },
    /// `Begin` — opens a transaction and binds it to the connection's
    /// reserved `txn_by_token` slot.
    TxnBegin { token: u64, seq: u64 },
    /// A statement inside an open transaction. The writer thread must
    /// never block on locks (it is the only thread that releases
    /// them), so a contended statement parks and retries until
    /// `deadline`, then aborts the transaction with a typed timeout.
    /// `waited` is set once it has parked, so a statement counts as one
    /// lock wait however often it retries.
    TxnStatement {
        token: u64,
        seq: u64,
        txn: u64,
        op: Op,
        deadline: Instant,
        waited: bool,
    },
    /// `Commit`.
    TxnCommit { token: u64, seq: u64, txn: u64 },
    /// `Rollback`.
    TxnRollback { token: u64, seq: u64, txn: u64 },
    /// The connection is gone (drained, errored, idle-closed) with a
    /// transaction open or pending: roll it back, release its locks,
    /// no reply.
    TxnAbandon { token: u64 },
}

/// The channel the reactor pushes [`WriterWork`] into: a mutex-guarded
/// deque with a condvar, so the writer thread batches everything that
/// accumulated while it was applying (group commit for free).
#[derive(Default)]
struct WriterChan {
    queue: Mutex<VecDeque<WriterWork>>,
    cv: Condvar,
    exit: AtomicBool,
}

impl WriterChan {
    fn push(&self, work: WriterWork) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(work);
        self.cv.notify_one();
    }

    /// Signals the writer thread to exit once the queue is empty.
    fn close(&self) {
        self.exit.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Blocks for the next run of work; `None` means closed and empty.
    fn pop_all(&self) -> Option<Vec<WriterWork>> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !q.is_empty() {
                return Some(q.drain(..).collect());
            }
            if self.exit.load(Ordering::SeqCst) {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`WriterChan::pop_all`], but gives up after `wait` and
    /// returns an empty run, so a caller with parked transactional
    /// statements can retry them (and fire their deadlines) even when no
    /// new work arrives. `None` still means closed-and-empty.
    fn pop_all_within(&self, wait: Duration) -> Option<Vec<WriterWork>> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.is_empty() && !self.exit.load(Ordering::SeqCst) {
            let (guard, _) = self
                .cv
                .wait_timeout(q, wait)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        if !q.is_empty() {
            return Some(q.drain(..).collect());
        }
        if self.exit.load(Ordering::SeqCst) {
            return None;
        }
        Some(Vec::new())
    }
}

impl WriterWork {
    /// The connection the work came from.
    fn token(&self) -> u64 {
        match self {
            WriterWork::Write(job) => job.done.token,
            WriterWork::Stats { token, .. }
            | WriterWork::Checkpoint { token, .. }
            | WriterWork::Subscribe { token, .. }
            | WriterWork::TxnBegin { token, .. }
            | WriterWork::TxnStatement { token, .. }
            | WriterWork::TxnCommit { token, .. }
            | WriterWork::TxnRollback { token, .. }
            | WriterWork::TxnAbandon { token } => *token,
        }
    }

    /// Where the reply goes; `None` for an abandon, which has none.
    fn sink(&self) -> Option<WriteDone> {
        match self {
            WriterWork::Write(job) => Some(job.done),
            WriterWork::TxnAbandon { .. } => None,
            WriterWork::Stats { token, seq }
            | WriterWork::Checkpoint { token, seq }
            | WriterWork::Subscribe { token, seq, .. }
            | WriterWork::TxnBegin { token, seq }
            | WriterWork::TxnStatement { token, seq, .. }
            | WriterWork::TxnCommit { token, seq, .. }
            | WriterWork::TxnRollback { token, seq, .. } => Some(WriteDone {
                token: *token,
                seq: *seq,
            }),
        }
    }

    /// `Stats`, `Checkpoint` and `Subscribe`: barriers that keep their
    /// place in the run, with a durability point before each.
    fn is_control(&self) -> bool {
        matches!(
            self,
            WriterWork::Stats { .. } | WriterWork::Checkpoint { .. } | WriterWork::Subscribe { .. }
        )
    }

    /// Whether the work belongs to a segment's first pass: a plain write,
    /// a commit or a rollback (an abandon is one). These never wait on a
    /// lock, and commits and rollbacks release the locks the second
    /// pass's statements may be parked on.
    fn is_first_pass(&self) -> bool {
        matches!(
            self,
            WriterWork::Write(_)
                | WriterWork::TxnCommit { .. }
                | WriterWork::TxnRollback { .. }
                | WriterWork::TxnAbandon { .. }
        )
    }
}

/// The server's writer thread: consumes [`WriterWork`] runs through
/// [`serve_run`]. A panic while applying fails every sink in the run
/// with a typed `Internal` error instead of wedging the connections
/// awaiting completions.
fn run_writer<S: Storage>(shared: &Arc<Shared<S>>, chan: &WriterChan) {
    let completions = &shared.completions;
    // Contended transactional statements waiting for another
    // transaction's commit/rollback (processed by this same thread) to
    // release their locks.
    let mut parked: Vec<WriterWork> = Vec::new();
    loop {
        let run = if parked.is_empty() {
            match chan.pop_all() {
                Some(r) => r,
                None => break,
            }
        } else {
            // Poll with a short wait so parked deadlines fire even when
            // no new work arrives.
            match chan.pop_all_within(Duration::from_millis(3)) {
                Some(r) => r,
                None => break,
            }
        };
        // Parked statements first (their locks may have been released by
        // work in the previous run), then the new arrivals.
        let work: Vec<WriterWork> = parked.drain(..).chain(run).collect();
        // Sinks copied out so the panic path can still reach them.
        let sinks: Vec<WriteDone> = work.iter().filter_map(WriterWork::sink).collect();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve_run(shared, work)));
        match outcome {
            Ok(still_parked) => parked = still_parked,
            Err(_) => {
                for sink in sinks {
                    sink.fill(shared, Response::Error(poisoned_writer()));
                }
            }
        }
    }
    // The writer is exiting: parked statements can never be served.
    for work in parked {
        if let WriterWork::TxnStatement { token, seq, .. } = work {
            completions.post(token, seq, Done::Resp(Response::Error(closed_writer())));
        }
    }
}

/// Serves one run: control ops split it into segments, and each
/// segment runs as two passes. The first holds every plain write,
/// commit and rollback whose connection has nothing earlier still
/// waiting in the segment; the second holds the begins, the
/// transactional statements and whatever queued behind them. No item of
/// a run has been answered, so all its items are concurrent and any
/// order that keeps each connection's own order is a legal serial order.
/// Running the plain writes first keeps their acks from waiting on the
/// statements' work, and commits first release the locks the statements
/// wait on. Returns the statements still parked on contended locks.
fn serve_run<S: Storage>(shared: &Shared<S>, work: Vec<WriterWork>) -> Vec<WriterWork> {
    let mut parked = Vec::new();
    let mut segment = Vec::new();
    for item in work {
        if item.is_control() {
            run_segment(shared, std::mem::take(&mut segment), &mut parked);
            run_control(shared, item);
        } else {
            segment.push(item);
        }
    }
    run_segment(shared, segment, &mut parked);
    parked
}

/// Splits a segment into its two passes and serves them in order.
fn run_segment<S: Storage>(
    shared: &Shared<S>,
    items: Vec<WriterWork>,
    parked: &mut Vec<WriterWork>,
) {
    // A connection's items stay behind its earliest deferred item.
    let mut deferred: HashSet<u64> = HashSet::new();
    let (first, second): (Vec<_>, Vec<_>) = items.into_iter().partition(|item| {
        let first = item.is_first_pass() && !deferred.contains(&item.token());
        if !first {
            deferred.insert(item.token());
        }
        first
    });
    run_pass(shared, first, parked);
    run_pass(shared, second, parked);
}

/// Serves one pass under one writer-lock hold, in order, and ends it in
/// at most one durability point (more only where a conflicting or
/// unanalyzable plain write closes a batch early). Acks that promise
/// durability wait for it; begin, statement and rollback replies go out
/// as soon as they are computed.
fn run_pass<S: Storage>(shared: &Shared<S>, items: Vec<WriterWork>, parked: &mut Vec<WriterWork>) {
    if items.is_empty() {
        return;
    }
    let mut guard = match shared.writer.lock() {
        Ok(guard) => guard,
        Err(_) => return refuse_pass(shared, items, poisoned_writer()),
    };
    let Some(db) = guard.as_mut() else {
        return refuse_pass(shared, items, closed_writer());
    };
    let mut batch = Batch::default();
    for item in items {
        match item {
            WriterWork::Write(job) => batch.write(shared, db, job),
            WriterWork::TxnCommit { token, seq, txn } => {
                batch.commit(shared, db, WriteDone { token, seq }, txn);
            }
            other => serve_txn_work(shared, db, other, parked),
        }
    }
    batch.close(shared, db);
}

/// Answers every item of a pass the writer cannot serve (closed or
/// poisoned) with `e`, releasing the transaction slots its begins
/// reserved.
fn refuse_pass<S: Storage>(shared: &Shared<S>, items: Vec<WriterWork>, e: WireError) {
    for item in items {
        if let WriterWork::TxnBegin { token, .. } = item {
            shared.txn_slots().remove(&token);
        }
        if let Some(sink) = item.sink() {
            sink.fill(shared, Response::Error(e.clone()));
        }
    }
}

/// One begin, statement, rollback or abandon inside a pass; its reply
/// goes out at once. This thread is the only one that releases locks,
/// so acquisition here is strictly non-blocking: contended statements go
/// back to `parked`.
fn serve_txn_work<S: Storage>(
    shared: &Shared<S>,
    db: &mut DurableDatabase<S>,
    work: WriterWork,
    parked: &mut Vec<WriterWork>,
) {
    let completions = &shared.completions;
    match work {
        WriterWork::TxnBegin { token, seq } => {
            let resp = txn_begin(shared, db);
            let orphan = {
                let mut map = shared.txn_slots();
                match &resp {
                    // Fill the slot the reactor reserved — unless the
                    // connection already died and `TxnAbandon` cleared it
                    // (impossible before this runs, since the abandon is
                    // queued behind us; the guard is cheap regardless).
                    Response::TxnBegun(r) if map.contains_key(&token) => {
                        map.insert(token, Some(r.txn));
                        None
                    }
                    Response::TxnBegun(r) => Some(r.txn),
                    _ => {
                        map.remove(&token);
                        None
                    }
                }
            };
            if let Some(txn) = orphan {
                txn_rollback(shared, db, txn);
            }
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::TxnStatement {
            token,
            seq,
            txn,
            op,
            deadline,
            waited,
        } => {
            if !txn_mapping_current(shared, token, txn) {
                // Aborted underneath us (drain or timeout on an earlier
                // parked statement of the same transaction).
                let e = DbError::TxnUnknown { txn };
                completions.post(token, seq, Done::Resp(Response::Error(wire_error(&e))));
                return;
            }
            let requests = lock_requests(&op, db.db().theory());
            // Checked before acquisition: locks taken for *this*
            // statement must not count as "already held" (refresh skip).
            let covered = shared.locks.holds_all(txn, &requests);
            match shared.locks.try_lock(txn, &requests) {
                Ok(()) => {
                    let resp = txn_apply(db, txn, op, covered);
                    completions.post(token, seq, Done::Resp(resp));
                }
                Err(_) if Instant::now() < deadline => {
                    if !waited {
                        shared.locks.stats.waits.fetch_add(1, Ordering::Relaxed);
                    }
                    parked.push(WriterWork::TxnStatement {
                        token,
                        seq,
                        txn,
                        op,
                        deadline,
                        waited: true,
                    });
                }
                Err(key) => {
                    // Deadline passed: abort the transaction so its held
                    // locks cannot wedge the system (deadlock avoidance).
                    shared.locks.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    shared.txn_slots().remove(&token);
                    txn_rollback(shared, db, txn);
                    let e = DbError::TxnTimeout {
                        message: format!(
                            "lock `{key}` still contended at the deadline; \
                             transaction {txn} rolled back"
                        ),
                    };
                    completions.post(token, seq, Done::Resp(Response::Error(wire_error(&e))));
                }
            }
        }
        WriterWork::TxnRollback { token, seq, txn } => {
            let resp = if txn_mapping_current(shared, token, txn) {
                shared.txn_slots().remove(&token);
                txn_rollback(shared, db, txn)
            } else {
                Response::Error(no_open_txn())
            };
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::TxnAbandon { token } => {
            // Queue order guarantees the `TxnBegin` that reserved the
            // slot ran before us, so a pending (`None`) mapping cannot be
            // observed here.
            let slot = shared.txn_slots().remove(&token);
            if let Some(Some(txn)) = slot {
                txn_rollback(shared, db, txn);
            }
        }
        // Plain writes and commits join the pass's batch; control ops
        // split the run into segments.
        _ => {}
    }
}

/// Whether `token` still owns `txn` — false once a drain abort, timeout
/// abort, or abandon has dissolved the binding.
fn txn_mapping_current<S: Storage>(shared: &Shared<S>, token: u64, txn: u64) -> bool {
    shared.txn_slots().get(&token) == Some(&Some(txn))
}

/// One control op on the writer thread; the reply goes back to the
/// reactor as a completion.
fn run_control<S: Storage>(shared: &Shared<S>, work: WriterWork) {
    let completions = &shared.completions;
    match work {
        WriterWork::Stats { token, seq } => {
            let guard = shared.writer.lock().ok();
            let db = guard.as_ref().and_then(|g| g.as_ref());
            let reply = stats_reply(shared, db);
            completions.post(token, seq, Done::Resp(Response::Stats(Box::new(reply))));
        }
        WriterWork::Checkpoint { token, seq } => {
            let resp = with_writer(shared, |db| match db.checkpoint() {
                Ok(()) => Response::Checkpointed(CheckpointReply {
                    lsn: db.snapshot_lsn(),
                }),
                Err(e) => Response::Error(wire_error(&e)),
            })
            .unwrap_or_else(Response::Error);
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::Subscribe {
            token,
            seq,
            from_lsn,
        } => match subscription_start(shared, from_lsn) {
            Ok((frames, rx)) => completions.post(token, seq, Done::SubStart { frames, rx }),
            Err(e) => completions.post(token, seq, Done::RespClose(Response::Error(e))),
        },
        // Writes and transaction work are served in passes.
        _ => {}
    }
}

/// Registers a subscription under the writer lock. A sync first makes
/// every appended record shippable — the intents no pass has synced, and
/// after a restart the recovered log tail, which was never retained for
/// shipping. Then it ships the tail to the existing subscribers, so the
/// registration point is exactly the storage state the catch-up reads,
/// and plans the opening frames (catch-up, chunked if oversized, plus
/// the backlog batches).
fn subscription_start<S: Storage>(
    shared: &Shared<S>,
    from_lsn: u64,
) -> Result<(Vec<Response>, mpsc::Receiver<Vec<WalEntry>>), WireError> {
    let (catchup, next_lsn, rx) = with_writer(shared, |db| {
        db.sync().map_err(|e| wire_error(&e))?;
        ship(shared, db);
        let catchup = db.catchup_from(from_lsn).map_err(|e| wire_error(&e))?;
        let (tx, rx) = mpsc::channel();
        shared
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(tx);
        Ok((catchup, db.next_lsn(), rx))
    })??;
    let (snapshot, backlog) = match catchup {
        Catchup::Suffix(entries) => (None, entries),
        Catchup::Snapshot(snap, entries) => (Some(*snap), entries),
    };
    let mut frames = catchup_frames(snapshot, next_lsn).map_err(|_| WireError {
        kind: ErrorKindWire::Internal,
        message: "catch-up snapshot serialization failed".into(),
    })?;
    for chunk in chunk_entries(backlog) {
        frames.push(Response::WalBatch(WalBatchReply { entries: chunk }));
    }
    Ok((frames, rx))
}

// ----- the primary's reactor role ---------------------------------------------

/// A typed refusal, answered on the reactor thread.
fn refuse(kind: ErrorKindWire, message: impl Into<String>) -> RoleAction {
    let message = message.into();
    RoleAction::Reply(Response::Error(WireError { kind, message }))
}

/// The primary half of the reactor: writes, stats, checkpoints, and
/// subscriptions go to the writer thread; everything else the reactor
/// already owns.
struct PrimaryRole<S: Storage> {
    shared: Arc<Shared<S>>,
    chan: Arc<WriterChan>,
}

impl<S: Storage> PrimaryRole<S> {
    fn defer_write(&self, token: u64, seq: u64, draining: bool, op: Op) -> RoleAction {
        let txn = self.open_txn(token);
        if draining {
            if txn.is_some() {
                // Satellite drain discipline: a statement inside an open
                // transaction aborts it, releasing its locks now rather
                // than at connection teardown.
                self.chan.push(WriterWork::TxnAbandon { token });
                return RoleAction::Reply(Response::Error(drain_abort()));
            }
            return refuse(
                ErrorKindWire::ShuttingDown,
                "server is draining; write refused",
            );
        }
        if let Some(txn) = txn {
            self.chan.push(WriterWork::TxnStatement {
                token,
                seq,
                txn,
                op,
                deadline: Instant::now() + self.shared.options.lock_timeout,
                waited: false,
            });
            return RoleAction::Deferred;
        }
        self.chan.push(WriterWork::Write(WriteJob {
            op,
            done: WriteDone { token, seq },
        }));
        RoleAction::Deferred
    }

    /// The transaction bound to `token`, if its `Begin` has completed.
    /// A reserved (`None`) slot cannot be observed here: the connection
    /// is parked in `Await` until the `TxnBegin` completion fills it.
    fn open_txn(&self, token: u64) -> Option<u64> {
        self.shared.txn_slots().get(&token).copied().flatten()
    }
}

impl<S: Storage> Role for PrimaryRole<S> {
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
        let p = read_published(&self.shared);
        PublishedView {
            snapshot: p.snapshot.clone(),
            updates_applied: p.updates_applied,
            last_lsn: p.last_lsn,
        }
    }

    fn busy_message(&self, active: usize, cap: usize) -> String {
        format!("server busy: {active} connections, cap {cap}")
    }

    fn lag_message(&self, have: u64, want: u64) -> String {
        format!("snapshot covers lsn {have} but the pin demands lsn {want}")
    }

    fn handle(&self, token: u64, seq: u64, draining: bool, request: Request) -> RoleAction {
        match request {
            Request::Write(Op::Apply(_)) => refuse(
                ErrorKindWire::BadRequest,
                "`Apply` is the log's form of an `Execute`; send the statement",
            ),
            Request::Write(op) => self.defer_write(token, seq, draining, op),
            Request::Begin => {
                if draining {
                    return refuse(
                        ErrorKindWire::ShuttingDown,
                        "server is draining; transaction refused",
                    );
                }
                let mut map = self.shared.txn_slots();
                if map.contains_key(&token) {
                    return refuse(
                        ErrorKindWire::BadRequest,
                        "a transaction is already open on this connection",
                    );
                }
                // Reserve the slot on the reactor thread so a close that
                // races the writer's `TxnBegin` still finds (and can
                // abandon) the binding.
                map.insert(token, None);
                drop(map);
                self.chan.push(WriterWork::TxnBegin { token, seq });
                RoleAction::Deferred
            }
            Request::Commit => match self.open_txn(token) {
                None => RoleAction::Reply(Response::Error(no_open_txn())),
                Some(_) if draining => {
                    self.chan.push(WriterWork::TxnAbandon { token });
                    RoleAction::Reply(Response::Error(drain_abort()))
                }
                Some(txn) => {
                    self.chan.push(WriterWork::TxnCommit { token, seq, txn });
                    RoleAction::Deferred
                }
            },
            // Rollback is honored even mid-drain: it only releases state.
            Request::Rollback => match self.open_txn(token) {
                None => RoleAction::Reply(Response::Error(no_open_txn())),
                Some(txn) => {
                    self.chan.push(WriterWork::TxnRollback { token, seq, txn });
                    RoleAction::Deferred
                }
            },
            // Stats and checkpoints are answered even mid-drain — a
            // draining operator still wants the final counters.
            Request::Stats => {
                self.chan.push(WriterWork::Stats { token, seq });
                RoleAction::Deferred
            }
            Request::Checkpoint => {
                self.chan.push(WriterWork::Checkpoint { token, seq });
                RoleAction::Deferred
            }
            Request::Subscribe(from_lsn) => {
                if draining {
                    return refuse(
                        ErrorKindWire::ShuttingDown,
                        "server is draining; subscription refused",
                    );
                }
                self.chan.push(WriterWork::Subscribe {
                    token,
                    seq,
                    from_lsn,
                });
                RoleAction::Deferred
            }
            // Reads, pins, liveness, and shutdown never reach the role.
            other => refuse(
                ErrorKindWire::BadRequest,
                format!("unroutable request: {other:?}"),
            ),
        }
    }

    fn generation_moved(&self) {
        refresh_retained(&self.shared);
    }

    fn closed(&self, token: u64) {
        // A connection that dies with a transaction open (or a `Begin`
        // in flight — the slot is reserved before the push) hands it to
        // the writer thread for rollback; FIFO queue order guarantees
        // the abandon runs after any in-flight op of the same token.
        let open = self.shared.txn_slots().contains_key(&token);
        if open {
            self.chan.push(WriterWork::TxnAbandon { token });
        }
    }
}

// ----- the background compactor ---------------------------------------------

/// The compactor thread: polls the published snapshot (never touching the
/// writer lock to *decide*), and when the trigger fires runs one
/// capture → off-lock full-simplify → swap round. The baseline for the
/// growth trigger is the store size the previous round left behind.
fn run_compactor<S: Storage>(shared: &Shared<S>, policy: &CompactionPolicy) {
    let mut baseline = read_published(shared).snapshot.theory().store_nodes();
    let mut last_round_lsn = read_published(shared).last_lsn;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(policy.poll_interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let published = read_published(shared);
        let nodes = published.snapshot.theory().store_nodes();
        let lag = published.last_lsn.saturating_sub(last_round_lsn);
        let grown = nodes as f64 >= policy.growth_factor * baseline.max(1) as f64;
        if nodes < policy.min_nodes || !(grown || lag >= policy.max_lsn_lag) {
            continue;
        }
        match compact_once(shared) {
            Some(post_nodes) => baseline = post_nodes,
            // Swap abandoned (replay failure) or writer gone: don't spin
            // on the same trigger every poll tick.
            None => baseline = nodes,
        }
        last_round_lsn = read_published(shared).last_lsn;
    }
}

/// One compaction round: a `Full` simplification off-lock, then a swap
/// that checkpoints, so the on-storage snapshot shrinks with the theory.
/// Returns the post-swap store size, or `None` if the round was abandoned
/// (writer closed/poisoned, or the swap-time replay failed — in which
/// case the live database is untouched).
fn compact_once<S: Storage>(shared: &Shared<S>) -> Option<usize> {
    // Phase 1: capture under the writer lock (cost: one theory clone).
    let (mut copy, from_lsn) = {
        let mut guard = shared.writer.lock().ok()?;
        let db = guard.as_mut()?;
        db.begin_compaction()
    };
    // Phase 2: simplify off-lock; the writer keeps committing and every
    // record it journals is retained for the swap-time replay.
    winslett_gua::simplify(&mut copy, SimplifyLevel::Full);
    // Phase 3: replay the delta and swap, under the writer lock.
    let mut guard = shared.writer.lock().ok()?;
    let db = guard.as_mut()?;
    // A shutdown may have begun while we simplified off-lock. Installing
    // now would race the drain/close sequence (the final sync could land
    // after the compacted swap republished a stale view), so abandon the
    // round instead — the live database is untouched.
    if shared.shutdown.load(Ordering::SeqCst) {
        db.abort_compaction();
        shared
            .stats
            .compaction_aborts
            .fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let swap_started = Instant::now();
    match db.install_compacted(copy, from_lsn, true) {
        Ok(outcome) => {
            let pause = swap_started.elapsed().as_micros() as u64;
            // Republish so readers move to the compacted generation even
            // if no write follows for a while. `updates_applied` is
            // untouched: compaction applies no updates.
            let updates_applied = read_published(shared).updates_applied;
            let snapshot = TheorySnapshot::capture(db.db().theory());
            publish(
                shared,
                Published {
                    snapshot,
                    updates_applied,
                    last_lsn: db.next_lsn().saturating_sub(1),
                },
            );
            let s = &shared.stats;
            s.compactions.fetch_add(1, Ordering::Relaxed);
            s.compaction_nodes_reclaimed
                .fetch_add(outcome.nodes_reclaimed() as u64, Ordering::Relaxed);
            s.compaction_swap_pause_us
                .fetch_add(pause, Ordering::Relaxed);
            s.compaction_swap_pause_max_us
                .fetch_max(pause, Ordering::Relaxed);
            Some(outcome.nodes_after)
        }
        Err(_) => {
            db.abort_compaction();
            shared
                .stats
                .compaction_aborts
                .fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Runs `f` on the live database under the writer lock. A poisoned lock
/// and a closed writer become their typed wire errors.
fn with_writer<S: Storage, R>(
    shared: &Shared<S>,
    f: impl FnOnce(&mut DurableDatabase<S>) -> R,
) -> Result<R, WireError> {
    let mut guard = shared.writer.lock().map_err(|_| poisoned_writer())?;
    let db = guard.as_mut().ok_or_else(closed_writer)?;
    Ok(f(db))
}

fn closed_writer() -> WireError {
    WireError {
        kind: ErrorKindWire::ShuttingDown,
        message: "database already closed".into(),
    }
}

fn poisoned_writer() -> WireError {
    WireError {
        kind: ErrorKindWire::Internal,
        message: "writer state poisoned by a previous panic".into(),
    }
}

pub(crate) fn wire_verdict(v: Verdict) -> WireVerdict {
    match v {
        Verdict::Certain => WireVerdict::Certain,
        Verdict::Uncertain => WireVerdict::Uncertain,
        Verdict::Impossible => WireVerdict::Impossible,
        Verdict::Inconsistent => WireVerdict::Inconsistent,
    }
}

pub(crate) fn wire_error(e: &DbError) -> WireError {
    let kind = match e {
        DbError::Ldml(_)
        | DbError::Logic(_)
        | DbError::Query { .. }
        | DbError::Gua(winslett_gua::GuaError::Ldml(_)) => ErrorKindWire::Parse,
        DbError::Theory(_) | DbError::Gua(_) => ErrorKindWire::Refused,
        DbError::RecordTooLarge { .. } => ErrorKindWire::TooLarge,
        DbError::LsnGap { .. } => ErrorKindWire::BadRequest,
        DbError::Storage { .. } | DbError::Corrupt { .. } => ErrorKindWire::Storage,
        DbError::TxnConflict { .. } => ErrorKindWire::TxnConflict,
        DbError::TxnTimeout { .. } => ErrorKindWire::TxnTimeout,
        DbError::TxnUnknown { .. } => ErrorKindWire::BadRequest,
        _ => ErrorKindWire::Internal,
    };
    WireError {
        kind,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_core::wal::MemStorage;
    use winslett_core::WalRecord;

    /// A `Shared` around a database opened on `storage` the way
    /// [`Server::bind`] opens it, no listener attached — enough to drive
    /// the writer thread's passes directly.
    fn shared_on<S: Storage>(
        storage: S,
        completions: Arc<Completions>,
        relations: &[(&str, usize)],
    ) -> Arc<Shared<S>> {
        let wal_options = WalOptions {
            policy: SyncPolicy::Manual,
            ..WalOptions::default()
        };
        let (mut db, _report) =
            DurableDatabase::open(storage, DbOptions::default(), wal_options).expect("open");
        for (name, arity) in relations {
            db.declare_relation(name, *arity).expect("declare");
        }
        db.sync().expect("sync");
        db.enable_shipping();
        let addr = "127.0.0.1:0".parse().expect("addr");
        Shared::new(db, ServerOptions::default(), addr, completions)
    }

    fn shared_with_db(relations: &[(&str, usize)]) -> Arc<Shared<MemStorage>> {
        let completions = Completions::new().expect("completions");
        shared_on(MemStorage::new(), completions, relations)
    }

    /// Every reply posted so far, by connection token.
    fn replies<S: Storage>(shared: &Shared<S>) -> Vec<(u64, Response)> {
        let mut replies: Vec<(u64, Response)> = shared
            .completions
            .drain()
            .into_iter()
            .filter_map(|c| match c.done {
                Done::Resp(r) => Some((c.token, r)),
                _ => None, // shipping wake-ups
            })
            .collect();
        replies.sort_by_key(|(token, _)| *token);
        replies
    }

    /// Runs `ops` through the writer thread as one accumulated run (one
    /// connection token per op) and returns the replies in op order,
    /// read back from the completion queue.
    fn flush(shared: &Arc<Shared<MemStorage>>, ops: Vec<Op>) -> Vec<Response> {
        let run = (1..)
            .zip(ops)
            .map(|(token, op)| {
                WriterWork::Write(WriteJob {
                    op,
                    done: WriteDone { token, seq: 0 },
                })
            })
            .collect();
        assert!(serve_run(shared, run).is_empty());
        replies(shared).into_iter().map(|(_, r)| r).collect()
    }

    fn execute(src: &str) -> Op {
        Op::Execute(src.into())
    }

    #[test]
    fn superseded_generations_release_eagerly() {
        let shared = shared_with_db(&[("R", 1)]);
        // Hold a session on the initial generation — the pin-shaped
        // retention the gauge must report.
        let held = read_published(&shared).snapshot.clone();
        let weak_held = held.theory_weak();
        let reader = held.reader();
        drop(held);

        // Two separate publications: the middle generation has no holder
        // and must be released the moment it is superseded.
        flush(&shared, vec![execute("INSERT R(a) WHERE T")]);
        let weak_mid = read_published(&shared).snapshot.theory_weak();
        flush(&shared, vec![execute("INSERT R(b) WHERE T")]);

        assert_eq!(
            weak_mid.strong_count(),
            0,
            "unheld superseded generation must drop eagerly"
        );
        assert_eq!(refresh_retained(&shared), 1, "only the held generation");
        assert_eq!(shared.stats.retained_generations.load(Ordering::Relaxed), 1);

        // Releasing the last session releases the generation's theory.
        drop(reader);
        assert_eq!(weak_held.strong_count(), 0, "released with the session");
        assert_eq!(refresh_retained(&shared), 0);
        assert_eq!(shared.stats.retained_generations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn compactor_round_swaps_invisibly_and_republishes() {
        let shared = shared_with_db(&[("R", 1), ("S", 1)]);
        let ops = (0..6)
            .map(|i| execute(&format!("INSERT R(a{i}) | S(b{i}) WHERE T")))
            .collect();
        let replies = flush(&shared, ops);
        assert_eq!(replies.len(), 6);
        for reply in &replies {
            assert!(matches!(reply, Response::Executed(_)), "{reply:?}");
        }
        let before = read_published(&shared);
        let before_gen = before.snapshot.generation();
        let mut reader = before.snapshot.reader();
        let probes = ["R(a0)", "R(a0) | S(b0)", "S(b5)", "R(a3) & S(b3)"];
        let want: Vec<_> = probes.iter().map(|p| reader.decide(p).unwrap()).collect();

        let post_nodes = compact_once(&shared).expect("round must install");
        let after = read_published(&shared);
        // Strictly advanced generation: no reader can confuse the
        // compacted encoding with the one it pinned.
        assert!(after.snapshot.generation() > before_gen);
        assert_eq!(after.updates_applied, before.updates_applied);
        assert!(post_nodes <= before.snapshot.theory().store_nodes());
        let mut compacted = after.snapshot.reader();
        for (probe, expected) in probes.iter().zip(&want) {
            assert_eq!(&compacted.decide(probe).unwrap(), expected, "{probe}");
        }
        let s = &shared.stats;
        assert_eq!(s.compactions.load(Ordering::Relaxed), 1);
        assert_eq!(s.compaction_aborts.load(Ordering::Relaxed), 0);
        // The checkpointing swap rewrote the on-storage snapshot from the
        // compacted theory.
        let guard = shared.writer.lock().unwrap();
        let db = guard.as_ref().unwrap();
        assert_eq!(db.stats().checkpoints, 1);
        assert_eq!(db.snapshot_lsn(), db.next_lsn());
    }

    #[test]
    fn independent_writes_coalesce_into_one_publication() {
        let shared = shared_with_db(&[("R", 1)]);
        let ops = ["a", "b", "c"]
            .iter()
            .map(|c| execute(&format!("INSERT R({c}) WHERE T")))
            .collect();
        let replies = flush(&shared, ops);
        assert_eq!(replies.len(), 3);
        for reply in &replies {
            assert!(matches!(reply, Response::Executed(_)), "{reply:?}");
        }
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 1);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 3);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 1);
        assert_eq!(stats.updates.load(Ordering::Relaxed), 3);
        // The one published snapshot reflects every write in the batch.
        let published = read_published(&shared);
        assert_eq!(published.updates_applied, 3);
        let mut reader = published.snapshot.reader();
        for c in ["a", "b", "c"] {
            let (_possible, certain) = reader.decide(&format!("R({c})")).expect("decide");
            assert!(certain, "R({c}) must be certain after the batch");
        }
    }

    #[test]
    fn conflicting_writes_split_batches() {
        let shared = shared_with_db(&[("R", 1)]);
        // The second statement reads R(a), which the first writes:
        // order-sensitive pair, so the writer must publish between them.
        let replies = flush(
            &shared,
            vec![
                execute("INSERT R(a) WHERE T"),
                execute("INSERT R(b) WHERE R(a)"),
            ],
        );
        assert!(matches!(
            replies[..],
            [Response::Executed(_), Response::Executed(_)]
        ));
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 0);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn barriers_and_errors_flush_correctly() {
        let shared = shared_with_db(&[("R", 1)]);
        // Independent, barrier (declare), independent again, one bad op.
        let replies = flush(
            &shared,
            vec![
                execute("INSERT R(a) WHERE T"),
                execute("INSERT R(b) WHERE T"),
                Op::DeclareRelation("S".into(), 1),
                execute("INSERT S(x) WHERE T"),
                execute("INSERT nonsense(("),
            ],
        );
        assert_eq!(replies.len(), 5);
        for reply in &replies[..4] {
            assert!(matches!(reply, Response::Executed(_)), "{reply:?}");
        }
        match &replies[4] {
            Response::Error(e) => assert_eq!(e.kind, ErrorKindWire::Parse),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Batches: [w1, w2], [declare], [w3], [bad]. The bad batch
        // applies nothing, so it publishes no snapshot.
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 2);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 3);
        assert_eq!(stats.updates.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn flushed_batches_fan_out_to_subscribers_in_commit_order() {
        let shared = shared_with_db(&[("R", 1)]);
        {
            let mut guard = shared.writer.lock().unwrap();
            guard.as_mut().unwrap().enable_shipping();
        }
        let (tx, rx) = mpsc::channel();
        let (dead_tx, dead_rx) = mpsc::channel::<Vec<WalEntry>>();
        drop(dead_rx);
        shared.subscribers.lock().unwrap().push(tx);
        shared.subscribers.lock().unwrap().push(dead_tx);
        let ops = ["a", "b"]
            .iter()
            .map(|c| execute(&format!("INSERT R({c}) WHERE T")))
            .collect();
        flush(&shared, ops);
        let batch = rx.try_recv().expect("one shipped batch");
        assert_eq!(batch.len(), 2, "both applies ship in one batch");
        assert!(
            batch.windows(2).all(|w| w[0].lsn < w[1].lsn),
            "commit order preserved"
        );
        // The dead subscriber was pruned; the live one survived.
        assert_eq!(shared.subscribers.lock().unwrap().len(), 1);
        // Both entries went to both subscribers before the prune.
        assert_eq!(shared.stats.records_shipped.load(Ordering::Relaxed), 4);
        // A refused op leaves nothing in the shipping tail.
        flush(&shared, vec![execute("INSERT nonsense((")]);
        assert!(rx.try_recv().is_err(), "refused op ships nothing");
    }

    #[test]
    fn shutdown_between_compaction_phases_abandons_the_swap() {
        let shared = shared_with_db(&[("R", 1)]);
        flush(&shared, vec![execute("INSERT R(a) WHERE T")]);
        let before = read_published(&shared).snapshot.generation();
        // Shutdown lands while phase 2 runs off-lock; the gate in phase 3
        // must abandon the round instead of installing over the drain.
        shared.shutdown.store(true, Ordering::SeqCst);
        assert_eq!(compact_once(&shared), None);
        assert_eq!(shared.stats.compactions.load(Ordering::Relaxed), 0);
        assert_eq!(shared.stats.compaction_aborts.load(Ordering::Relaxed), 1);
        assert_eq!(
            read_published(&shared).snapshot.generation(),
            before,
            "no republish after an abandoned round"
        );
        // The live database is untouched and still writable.
        shared.shutdown.store(false, Ordering::SeqCst);
        let replies = flush(&shared, vec![execute("INSERT R(b) WHERE T")]);
        assert!(matches!(replies[..], [Response::Executed(_)]));
    }

    /// The replies posted before each sync, one list per sync.
    type BeforeSync = Arc<Mutex<Vec<Vec<(u64, Response)>>>>;

    /// In-memory storage that, at every sync, takes the replies posted
    /// so far (so a test can tell which left before an fsync), and fails
    /// its syncs while `fail` is set.
    struct SyncProbe {
        inner: MemStorage,
        completions: Arc<Completions>,
        before_sync: BeforeSync,
        fail: Arc<AtomicBool>,
    }

    impl Storage for SyncProbe {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
            self.inner.append(name, data)
        }
        fn sync(&mut self, name: &str) -> Result<(), DbError> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(DbError::Storage {
                    message: "injected fsync failure".into(),
                });
            }
            let posted = self
                .completions
                .drain()
                .into_iter()
                .filter_map(|c| match c.done {
                    Done::Resp(r) => Some((c.token, r)),
                    _ => None,
                })
                .collect();
            self.before_sync.lock().unwrap().push(posted);
            self.inner.sync(name)
        }
        fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
            self.inner.replace(name, data)
        }
    }

    type Probed = (Arc<Shared<SyncProbe>>, BeforeSync, Arc<AtomicBool>);

    fn probed(relations: &[(&str, usize)]) -> Probed {
        let completions = Completions::new().expect("completions");
        let before_sync = Arc::new(Mutex::new(Vec::new()));
        let fail = Arc::new(AtomicBool::new(false));
        let storage = SyncProbe {
            inner: MemStorage::new(),
            completions: Arc::clone(&completions),
            before_sync: Arc::clone(&before_sync),
            fail: Arc::clone(&fail),
        };
        (
            shared_on(storage, completions, relations),
            before_sync,
            fail,
        )
    }

    fn syncs<S: Storage>(shared: &Shared<S>) -> u64 {
        shared
            .writer
            .lock()
            .unwrap()
            .as_ref()
            .unwrap()
            .stats()
            .syncs
    }

    fn write(token: u64, src: &str) -> WriterWork {
        WriterWork::Write(WriteJob {
            op: execute(src),
            done: WriteDone { token, seq: 0 },
        })
    }

    fn statement(token: u64, txn: u64, src: &str) -> WriterWork {
        WriterWork::TxnStatement {
            token,
            seq: 0,
            txn,
            op: execute(src),
            deadline: Instant::now() + Duration::from_secs(5),
            waited: false,
        }
    }

    /// Opens a transaction for `token` the way the reactor does (slot
    /// reserved, then the writer's begin) and runs `statements` in it.
    fn open_txn<S: Storage>(shared: &Shared<S>, token: u64, statements: &[&str]) -> u64 {
        shared.txn_slots().insert(token, None);
        serve_run(shared, vec![WriterWork::TxnBegin { token, seq: 0 }]);
        let txn = shared.txn_slots()[&token].expect("begun");
        let run = statements
            .iter()
            .map(|src| statement(token, txn, src))
            .collect();
        assert!(serve_run(shared, run).is_empty());
        txn
    }

    #[test]
    fn lone_writes_cost_one_sync_and_one_publication_each() {
        let shared = shared_with_db(&[("R", 1)]);
        let (syncs_before, published_before) = (
            syncs(&shared),
            shared.stats.snapshots_published.load(Ordering::Relaxed),
        );
        const N: u64 = 5;
        for i in 0..N {
            let replies = flush(&shared, vec![execute(&format!("INSERT R(c{i}) WHERE T"))]);
            assert!(
                matches!(replies[..], [Response::Executed(_)]),
                "{replies:?}"
            );
        }
        assert_eq!(syncs(&shared) - syncs_before, N);
        let published = shared.stats.snapshots_published.load(Ordering::Relaxed);
        assert_eq!(published - published_before, N);
    }

    #[test]
    fn one_run_of_writes_commits_and_statements_syncs_once() {
        let (shared, before_sync, _) = probed(&[("R", 1), ("S", 1), ("U", 1)]);
        let t1 = open_txn(&shared, 11, &["INSERT S(1) WHERE T"]);
        let t2 = open_txn(&shared, 12, &["INSERT S(2) WHERE T"]);
        let t3 = open_txn(&shared, 13, &[]);
        let t4 = open_txn(&shared, 14, &[]);
        replies(&shared);
        before_sync.lock().unwrap().clear();
        let (syncs_before, published_before) = (
            syncs(&shared),
            shared.stats.snapshots_published.load(Ordering::Relaxed),
        );
        let run = vec![
            write(1, "INSERT R(a) WHERE T"),
            write(2, "INSERT R(b) WHERE T"),
            write(3, "INSERT R(c) WHERE T"),
            WriterWork::TxnCommit {
                token: 11,
                seq: 0,
                txn: t1,
            },
            WriterWork::TxnCommit {
                token: 12,
                seq: 0,
                txn: t2,
            },
            statement(13, t3, "INSERT U(p) WHERE T"),
            statement(14, t4, "INSERT U(q) WHERE T"),
        ];
        assert!(serve_run(&shared, run).is_empty());
        assert_eq!(syncs(&shared) - syncs_before, 1, "one fsync for the run");
        let published = shared.stats.snapshots_published.load(Ordering::Relaxed);
        assert_eq!(published - published_before, 1, "one publication");
        // Nothing was answered before that fsync.
        let at_sync = before_sync.lock().unwrap().clone();
        assert_eq!(at_sync.len(), 1);
        assert!(at_sync[0].is_empty(), "{:?}", at_sync[0]);
        let replies = replies(&shared);
        let tokens: Vec<u64> = replies.iter().map(|(t, _)| *t).collect();
        assert_eq!(tokens, [1, 2, 3, 11, 12, 13, 14]);
        for (token, reply) in &replies {
            let ok = match token {
                11 | 12 => matches!(reply, Response::TxnCommitted(_)),
                _ => matches!(reply, Response::Executed(_)),
            };
            assert!(ok, "token {token}: {reply:?}");
        }
        // The published snapshot holds every write and both commits.
        let mut reader = read_published(&shared).snapshot.reader();
        for atom in ["R(a)", "R(b)", "R(c)", "S(1)", "S(2)"] {
            assert!(reader.decide(atom).unwrap().1, "{atom} must be certain");
        }
    }

    #[test]
    fn a_failed_sync_fails_every_held_ack_and_ships_nothing() {
        let (shared, _, fail) = probed(&[("R", 1), ("S", 1)]);
        let (tx, rx) = mpsc::channel();
        shared.subscribers.lock().unwrap().push(tx);
        let t1 = open_txn(&shared, 11, &["INSERT S(1) WHERE T"]);
        replies(&shared);
        while rx.try_recv().is_ok() {}
        let published = read_published(&shared).snapshot.generation();
        fail.store(true, Ordering::SeqCst);
        let run = vec![
            write(1, "INSERT R(a) WHERE T"),
            WriterWork::TxnCommit {
                token: 11,
                seq: 0,
                txn: t1,
            },
        ];
        serve_run(&shared, run);
        for (token, reply) in replies(&shared) {
            match reply {
                Response::Error(e) => assert_eq!(e.kind, ErrorKindWire::Storage, "{token}"),
                other => panic!("token {token} acked without a sync: {other:?}"),
            }
        }
        assert!(rx.try_recv().is_err(), "nothing ships before it is synced");
        assert_eq!(read_published(&shared).snapshot.generation(), published);
        // The failed sync is final, even once the storage works again:
        // the next write is refused, and the failed batch never ships
        // or publishes.
        fail.store(false, Ordering::SeqCst);
        serve_run(&shared, vec![write(2, "INSERT R(b) WHERE T")]);
        match replies(&shared).as_slice() {
            [(2, Response::Error(e))] => assert_eq!(e.kind, ErrorKindWire::Storage),
            other => panic!("the write after a failed sync was not refused: {other:?}"),
        }
        assert!(rx.try_recv().is_err(), "nothing ships after a failed sync");
        assert_eq!(read_published(&shared).snapshot.generation(), published);
    }

    #[test]
    fn chunking_packs_greedily_and_never_splits_an_entry() {
        assert!(chunk_entries(Vec::new()).is_empty());
        let entries: Vec<WalEntry> = (0..5)
            .map(|i| WalEntry {
                lsn: i,
                record: WalRecord::Op(Op::LoadFact("R".into(), vec![format!("{i}")])),
            })
            .collect();
        let chunks = chunk_entries(entries.clone());
        assert_eq!(chunks.len(), 1, "small entries pack into one chunk");
        assert_eq!(chunks[0], entries);
        // A payload near the record cap forces one entry per chunk.
        let big = "x".repeat((MAX_FRAME_LEN as usize - 1024) / 2);
        let entries: Vec<WalEntry> = (0..3)
            .map(|i| WalEntry {
                lsn: i,
                record: WalRecord::Op(Op::LoadFact(big.clone(), Vec::new())),
            })
            .collect();
        let chunks = chunk_entries(entries);
        assert_eq!(chunks.len(), 3, "near-cap entries go one per frame");
        for chunk in &chunks {
            let wire = serde_json::to_string(&Response::WalBatch(WalBatchReply {
                entries: chunk.clone(),
            }))
            .expect("serialize");
            assert!(wire.len() <= MAX_FRAME_LEN as usize);
        }
    }
}

//! The nonblocking epoll reactor shared by the primary and the replica.
//!
//! One thread owns every socket. Connections are level-triggered epoll
//! registrations driving a per-connection state machine (reading →
//! dispatching → writing), with frames decoded **in place** from a
//! per-connection grow buffer ([`crate::protocol::FrameBuf`]) — the only
//! copy a request makes is the kernel's copy into that buffer.
//!
//! The reactor itself never blocks on anything but `epoll_wait`:
//!
//! * **Writes** (and other writer-lock work: stats, checkpoints,
//!   subscription registration) are enqueued to the single writer thread
//!   and complete asynchronously through the [`Completions`] queue, which
//!   wakes the reactor via an `eventfd`.
//! * **Reads** that need a SAT solve are handed to a small worker pool;
//!   the connection parks in `Await` mode until its completion arrives.
//!   The per-snapshot entailment session travels with the job and is
//!   reinstalled on the connection afterwards, so session reuse — the
//!   MVCC read-path optimization — survives the handoff.
//! * **Timers** (idle reaping, write-stall reaping, stream heartbeats)
//!   live in a binary heap consulted for the `epoll_wait` timeout.
//!
//! The FFI below is the same no-new-dependencies style as the SIGTERM
//! handling in the binary: `std` already links the platform libc, so the
//! five syscall wrappers we need are just `extern "C"` declarations.

use crate::protocol::{
    decode, ErrorKindWire, ExplainReply, FrameBuf, FrameError, OutBuf, QueryReply, Request,
    Response, SnapshotReply, TruthReply, WalBatchReply, WireError,
};
use crate::server::{chunk_entries, wire_error, wire_verdict, HEARTBEAT_INTERVAL};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use winslett_core::snapshot::{SnapshotReader, TheorySnapshot};
use winslett_core::WalEntry;

/// Raw libc surface. `std` links libc already; these declarations add no
/// dependency, exactly like the `signal` handler in the serve binary.
mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;

    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    /// Mirror of `struct epoll_event`. The kernel ABI packs it on x86-64
    /// (12 bytes); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Thin owner of an epoll instance.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved; a negative return is errno.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for events, retrying on `EINTR`. Returns how many entries of
    /// `events` were filled.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer is valid for `events.len()` entries.
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { sys::close(self.epfd) };
    }
}

/// An `eventfd`-based wakeup: worker threads poke the reactor out of
/// `epoll_wait` when a completion lands.
struct Waker {
    fd: RawFd,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall, negative return is errno.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 bytes from a live stack value; an eventfd write either
        // succeeds or fails with EAGAIN when the counter is saturated —
        // in which case the reactor is already due to wake.
        unsafe {
            sys::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: 8 writable bytes; loops until EAGAIN.
        while unsafe { sys::read(self.fd, (&mut buf as *mut u64).cast(), 8) } > 0 {}
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { sys::close(self.fd) };
    }
}

// ----- completion plumbing ---------------------------------------------------

/// Synthetic token for completions not addressed to a connection (WAL
/// shipping notifications).
pub(crate) const TOKEN_NONE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_WAKER: u64 = 2;
const TOKEN_FIRST_CONN: u64 = 3;

/// Where a deferred read's session came from, so the completion knows
/// which slot to reinstall the reader into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadOrigin {
    /// The connection's pinned snapshot.
    Pinned,
    /// The follow-the-latest slot.
    Latest,
}

/// What an off-reactor worker finished.
pub(crate) enum Done {
    /// A plain reply; the connection returns to `Idle`.
    Resp(Response),
    /// A reply after which the connection must close (writer-side fatal
    /// errors on a subscription handshake).
    RespClose(Response),
    /// A solved read: the reply plus the session to give back.
    Read {
        /// Which slot lent the session out.
        origin: ReadOrigin,
        /// The session, unless the worker panicked mid-solve.
        reader: Option<Box<SnapshotReader>>,
        /// The answer (or a typed error).
        resp: Response,
    },
    /// A subscription registered: the opening frames (catch-up + backlog)
    /// and the live channel to stream from.
    SubStart {
        /// `Catchup` (+ chunks) and backlog `WalBatch` frames, in order.
        frames: Vec<Response>,
        /// The shipping channel this subscriber was registered under.
        rx: mpsc::Receiver<Vec<WalEntry>>,
    },
    /// The writer shipped WAL records: every streaming connection should
    /// drain its channel. Posted with [`TOKEN_NONE`].
    Shipped,
}

pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) seq: u64,
    pub(crate) done: Done,
}

/// The queue worker threads post results into, plus the waker that makes
/// the reactor notice. Shared as an `Arc` with the writer thread and the
/// read pool.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    pub(crate) fn new() -> io::Result<Arc<Completions>> {
        Ok(Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        }))
    }

    /// Posts one result and wakes the reactor.
    pub(crate) fn post(&self, token: u64, seq: u64, done: Done) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion { token, seq, done });
        self.waker.wake();
    }

    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

// ----- the read worker pool --------------------------------------------------

/// The solve a worker runs.
pub(crate) enum ReadKind {
    /// Conjunctive query.
    Query(String),
    /// Entailment check.
    Check(String),
    /// Three-valued EXPLAIN.
    Explain(String),
}

/// The session material a read job carries: a warmed-up reader when the
/// connection had one for the right generation, else the snapshot to
/// encode a fresh session from (the expensive part — exactly why it runs
/// off-reactor).
pub(crate) enum ReadSource {
    /// Reuse this session.
    Reader(Box<SnapshotReader>),
    /// Encode a fresh session from this snapshot.
    Snapshot(TheorySnapshot),
}

/// One deferred read.
pub(crate) struct ReadTask {
    token: u64,
    seq: u64,
    origin: ReadOrigin,
    source: ReadSource,
    kind: ReadKind,
}

/// Evaluates one read against a session — the same replies, generation
/// stamping, and error mapping as the blocking dispatch path.
fn eval_read(reader: &mut SnapshotReader, kind: &ReadKind) -> Response {
    let generation = reader.generation();
    let result = match kind {
        ReadKind::Query(src) => reader.query(src).map(|a| {
            Response::Rows(QueryReply {
                certain: a.certain,
                possible: a.possible,
                generation,
            })
        }),
        ReadKind::Check(src) => reader.decide(src).map(|(possible, certain)| {
            Response::Truth(TruthReply {
                possible,
                certain,
                generation,
            })
        }),
        ReadKind::Explain(src) => reader.explain(src).map(|e| {
            Response::Explained(ExplainReply {
                verdict: wire_verdict(e.verdict),
                witness: e.witness,
                counterexample: e.counterexample,
                generation,
            })
        }),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => Response::Error(wire_error(&e)),
    }
}

/// One pool worker: pulls tasks, solves, posts completions. A panic in
/// the solver costs that task its session (the connection rebuilds one)
/// and answers typed `Internal` — the reactor and the pool survive.
fn run_read_worker(rx: Arc<Mutex<mpsc::Receiver<ReadTask>>>, completions: Arc<Completions>) {
    loop {
        let task = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        let Ok(task) = task else {
            return; // sender gone: reactor is shutting down
        };
        let ReadTask {
            token,
            seq,
            origin,
            source,
            kind,
        } = task;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut reader = match source {
                ReadSource::Reader(r) => r,
                ReadSource::Snapshot(s) => Box::new(s.reader()),
            };
            let resp = eval_read(&mut reader, &kind);
            (Some(reader), resp)
        }));
        let (reader, resp) = outcome.unwrap_or_else(|_| {
            (
                None,
                Response::Error(WireError {
                    kind: ErrorKindWire::Internal,
                    message: "read worker panicked evaluating the request".into(),
                }),
            )
        });
        completions.post(
            token,
            seq,
            Done::Read {
                origin,
                reader,
                resp,
            },
        );
    }
}

// ----- the role: what differs between primary and replica --------------------

/// Borrowed references to the network-side counters both node kinds keep.
pub(crate) struct NetCounters<'a> {
    pub accepted: &'a AtomicU64,
    pub rejected_busy: &'a AtomicU64,
    pub requests: &'a AtomicU64,
    pub reads: &'a AtomicU64,
    pub idle_closes: &'a AtomicU64,
    pub protocol_errors: &'a AtomicU64,
    pub pinned_generations: &'a AtomicU64,
    pub lag_refusals: &'a AtomicU64,
}

/// The published snapshot plus its place in the acknowledged order.
pub(crate) struct PublishedView {
    pub snapshot: TheorySnapshot,
    pub updates_applied: u64,
    pub last_lsn: u64,
}

/// What the role did with a request the reactor handed over.
pub(crate) enum RoleAction {
    /// Answer now.
    Reply(Response),
    /// The work went to a writer/worker thread; a completion tagged with
    /// the given `(token, seq)` will arrive.
    Deferred,
}

/// The node-specific half of the reactor: the primary routes writes,
/// stats, checkpoints, and subscriptions to its writer thread; the
/// replica answers everything inline (reads are common-path for both and
/// handled by the reactor itself).
pub(crate) trait Role {
    /// The network-side counters to bump.
    fn counters(&self) -> NetCounters<'_>;
    /// The current published snapshot.
    fn published(&self) -> PublishedView;
    /// The admission-refusal message.
    fn busy_message(&self, active: usize, cap: usize) -> String;
    /// The `PinAt` lag-refusal message.
    fn lag_message(&self, have: u64, want: u64) -> String;
    /// Handles a request the reactor does not own (writes, `Stats`,
    /// `Checkpoint`, `Subscribe`). `seq` tags the completion if the role
    /// defers.
    fn handle(&self, token: u64, seq: u64, draining: bool, request: Request) -> RoleAction;
    /// The published generation moved: prune retention bookkeeping.
    fn generation_moved(&self);
    /// An admitted connection is gone (drained, errored, or idle-reaped).
    /// Roles with per-connection server-side state (the primary's open
    /// transactions) release it here.
    fn closed(&self, _token: u64) {}
}

// ----- per-connection state --------------------------------------------------

/// A connection's read-session slot. `Lent` marks a session currently out
/// with a read worker; it comes home in the completion (or dies with a
/// worker panic, in which case the next read re-encodes).
enum ReaderSlot {
    /// No session held.
    Empty,
    /// A pin taken but not yet materialized into a session: the snapshot
    /// waits here so `Pin` itself never pays the encode cost on the
    /// reactor thread — the first read's worker builds the session.
    Lazy(TheorySnapshot),
    /// A warmed-up session.
    Ready(Box<SnapshotReader>),
    /// The session is out with a worker.
    Lent,
}

impl ReaderSlot {
    fn holds_pin(&self) -> bool {
        !matches!(self, ReaderSlot::Empty)
    }
}

/// What the connection is doing.
enum Mode {
    /// Parsing requests as they arrive.
    Idle,
    /// A request is out with the writer thread or the read pool; input
    /// stays buffered until the completion lands.
    Await,
    /// Turned into a one-way WAL subscription stream.
    Streaming {
        rx: mpsc::Receiver<Vec<WalEntry>>,
        next_heartbeat: Instant,
    },
}

struct Conn {
    stream: TcpStream,
    rbuf: FrameBuf,
    wbuf: OutBuf,
    mode: Mode,
    pinned: ReaderSlot,
    latest: ReaderSlot,
    /// Tag of the most recent deferred job; completions carrying any
    /// other value are stale (a panic-path double post) and dropped.
    seq: u64,
    /// Read-side deadline: reset when a complete frame arrives (stricter
    /// than a per-byte socket read timeout — a dribbling peer cannot stay
    /// alive on one byte per timeout).
    idle_deadline: Instant,
    /// Last time the socket accepted bytes; bounds write-side stalls.
    last_progress: Instant,
    /// Close as soon as the transmit buffer drains.
    close_after_flush: bool,
    /// Set when a request was accepted during a drain: close after its
    /// reply flushes (one answered request per connection, then out).
    drain_close: bool,
    /// Counted against the admission cap (a `Busy` rejection is not).
    admitted: bool,
    /// `EPOLLOUT` currently armed.
    want_write: bool,
    /// Events beyond `EPOLLOUT` this connection is registered for.
    base_events: u32,
    /// Peer closed its write side.
    eof: bool,
    /// Version stamp of this connection's live timer-heap entry. Each
    /// re-arm bumps it, so superseded heap entries are recognized (and
    /// dropped) on pop instead of resolving against stale state — the
    /// heap holds at most one live entry per connection regardless of
    /// how often deadlines move.
    timer_gen: u64,
}

impl Conn {
    /// When this connection next needs timer attention, if ever.
    fn due(&self, idle: Duration) -> Option<Instant> {
        let write_stall = if self.wbuf.is_empty() {
            None
        } else {
            Some(self.last_progress + idle)
        };
        match &self.mode {
            Mode::Idle => Some(match write_stall {
                Some(w) => w.min(self.idle_deadline),
                None => self.idle_deadline,
            }),
            // Never reap a connection whose request is in flight; check
            // back after a grace period.
            Mode::Await => None,
            Mode::Streaming { next_heartbeat, .. } => Some(match write_stall {
                Some(w) => w.min(*next_heartbeat),
                None => *next_heartbeat,
            }),
        }
    }
}

// ----- the reactor -----------------------------------------------------------

/// Reactor tunables (a slice of `ServerOptions` / `ReplicaOptions`).
pub(crate) struct ReactorConfig {
    pub max_connections: usize,
    pub idle_timeout: Duration,
}

/// The event loop: owns the listener, every connection, the timer heap,
/// and the read pool; consumes completions from the writer thread.
pub(crate) struct Reactor<R: Role> {
    poller: Poller,
    listener: Option<TcpListener>,
    role: R,
    completions: Arc<Completions>,
    config: ReactorConfig,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    conns: HashMap<u64, Conn>,
    /// `(deadline, token, timer_gen)` — entries whose gen no longer
    /// matches their connection's are stale and dropped on pop.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    /// Tokens currently in `Mode::Streaming`, so a shipped batch pumps
    /// only subscribers instead of scanning every connection.
    streaming: HashSet<u64>,
    /// Tokens whose follow-the-latest slot holds a `Ready` session, so a
    /// generation move sweeps only the connections that cached one.
    cached_latest: HashSet<u64>,
    read_tx: Option<mpsc::Sender<ReadTask>>,
    read_workers: Vec<std::thread::JoinHandle<()>>,
    next_token: u64,
    draining: bool,
    /// Generation of the published snapshot at the last sweep, to detect
    /// movement and drop superseded cached sessions eagerly.
    seen_generation: u64,
}

/// How many solver workers serve deferred reads. Two keeps a second read
/// moving while one solves, without oversubscribing small containers.
const READ_WORKERS: usize = 2;

impl<R: Role> Reactor<R> {
    pub(crate) fn new(
        listener: TcpListener,
        role: R,
        completions: Arc<Completions>,
        config: ReactorConfig,
        shutdown: Arc<AtomicBool>,
        active: Arc<AtomicUsize>,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        poller.add(completions.waker.fd, sys::EPOLLIN, TOKEN_WAKER)?;
        let (read_tx, read_rx) = mpsc::channel::<ReadTask>();
        let read_rx = Arc::new(Mutex::new(read_rx));
        let read_workers = (0..READ_WORKERS)
            .map(|i| {
                let rx = Arc::clone(&read_rx);
                let completions = Arc::clone(&completions);
                std::thread::Builder::new()
                    .name(format!("winslett-read-{i}"))
                    .spawn(move || run_read_worker(rx, completions))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let seen_generation = role.published().snapshot.generation();
        Ok(Reactor {
            poller,
            listener: Some(listener),
            role,
            completions,
            config,
            shutdown,
            active,
            conns: HashMap::new(),
            timers: BinaryHeap::new(),
            streaming: HashSet::new(),
            cached_latest: HashSet::new(),
            read_tx: Some(read_tx),
            read_workers,
            next_token: TOKEN_FIRST_CONN,
            draining: false,
            seen_generation,
        })
    }

    /// Serves until a drain completes: accepts, pumps, reaps, streams.
    pub(crate) fn run(mut self) -> io::Result<()> {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let timeout = self.next_timeout();
            let n = self.poller.wait(&mut events, timeout)?;
            for ev in events.iter().take(n) {
                // Field copies out of the (possibly packed) struct; no
                // references into it are formed.
                let mask = ev.events;
                let token = ev.data;
                match token {
                    TOKEN_LISTENER => self.on_listener(),
                    TOKEN_WAKER => self.completions.waker.drain(),
                    _ => self.on_conn_event(token, mask),
                }
            }
            self.apply_completions();
            self.fire_timers();
            self.sweep_stale_sessions();
        }
        // Detach the pool: workers exit when the channel closes.
        drop(self.read_tx.take());
        for handle in self.read_workers.drain(..) {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Milliseconds until the nearest timer, or a heartbeat-scale default.
    fn next_timeout(&mut self) -> i32 {
        // Skip entries that are dead (connection gone) or superseded (a
        // newer re-arm bumped the gen) so they can't cause spurious
        // zero-timeouts.
        while let Some(Reverse((_, token, gen))) = self.timers.peek() {
            if self.conns.get(token).map(|c| c.timer_gen) == Some(*gen) {
                break;
            }
            self.timers.pop();
        }
        let default = HEARTBEAT_INTERVAL.as_millis() as i32;
        match self.timers.peek() {
            Some(Reverse((t, _, _))) => match t.checked_duration_since(Instant::now()) {
                Some(d) => (d.as_millis() as i32).saturating_add(1).min(default),
                None => 0,
            },
            None => default,
        }
    }

    /// (Re-)arms `token`'s single live timer entry at `due`, superseding
    /// any entry already in the heap for it.
    fn arm_timer(&mut self, token: u64, due: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.timer_gen += 1;
        self.timers.push(Reverse((due, token, conn.timer_gen)));
    }

    // ----- accept path -----

    fn on_listener(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // The shutdown poke (or a late arrival); the drain begins
                // at the top of the next loop iteration.
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let counters = self.role.counters();
            let live = self.active.load(Ordering::SeqCst);
            if live >= self.config.max_connections {
                counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
                let message = self
                    .role
                    .busy_message(live + 1, self.config.max_connections);
                self.install_conn(stream, false, Some(message));
            } else {
                self.active.fetch_add(1, Ordering::SeqCst);
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                self.install_conn(stream, true, None);
            }
        }
    }

    /// Registers a new connection. A non-admitted one exists only to
    /// flush its typed `Busy` refusal: it is registered write-only so its
    /// input is never read, and closes once the refusal drains (or the
    /// idle deadline reaps it).
    fn install_conn(&mut self, stream: TcpStream, admitted: bool, refusal: Option<String>) {
        let token = self.next_token;
        self.next_token += 1;
        let now = Instant::now();
        let mut conn = Conn {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: OutBuf::new(),
            mode: Mode::Idle,
            pinned: ReaderSlot::Empty,
            latest: ReaderSlot::Empty,
            seq: 0,
            idle_deadline: now + self.config.idle_timeout,
            last_progress: now,
            close_after_flush: !admitted,
            drain_close: false,
            admitted,
            want_write: !admitted,
            base_events: if admitted {
                sys::EPOLLIN | sys::EPOLLRDHUP
            } else {
                0
            },
            eof: false,
            timer_gen: 0,
        };
        if let Some(message) = refusal {
            let _ = conn.wbuf.push_value(&Response::Error(WireError {
                kind: ErrorKindWire::Busy,
                message,
            }));
        }
        let events = conn.base_events | if conn.want_write { sys::EPOLLOUT } else { 0 };
        if self
            .poller
            .add(conn.stream.as_raw_fd(), events, token)
            .is_err()
        {
            if admitted {
                self.active.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        let due = conn
            .due(self.config.idle_timeout)
            .unwrap_or(now + self.config.idle_timeout);
        self.conns.insert(token, conn);
        self.arm_timer(token, due);
        if !admitted {
            self.flush_conn(token);
        }
    }

    // ----- event dispatch -----

    fn on_conn_event(&mut self, token: u64, mask: u32) {
        if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if mask & sys::EPOLLOUT != 0 {
            self.flush_conn(token);
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.on_readable(token);
        }
    }

    fn on_readable(&mut self, token: u64) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.admitted {
                return; // rejected connections never get their input read
            }
            let Conn { stream, rbuf, .. } = conn;
            match rbuf.fill_nonblocking(stream) {
                Ok(status) => {
                    if status.eof {
                        conn.eof = true;
                    }
                }
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.pump(token);
        self.settle_eof(token);
        self.flush_conn(token);
    }

    /// Parses and serves every complete frame buffered on an `Idle`
    /// connection. Stops when bytes run out, the connection defers
    /// (writer/read-pool handoff), or a framing error poisons the stream.
    fn pump(&mut self, token: u64) {
        enum Step {
            Request(Request),
            DecodeError(FrameError),
            Poisoned(FrameError),
        }
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if !matches!(conn.mode, Mode::Idle) || conn.close_after_flush {
                    break;
                }
                match conn.rbuf.next_frame() {
                    Ok(None) => break,
                    Ok(Some(range)) => {
                        // A whole frame arrived: the peer is live.
                        conn.idle_deadline = Instant::now() + self.config.idle_timeout;
                        match decode::<Request>(conn.rbuf.payload(range)) {
                            Ok(request) => Step::Request(request),
                            Err(e) => Step::DecodeError(e),
                        }
                    }
                    Err(e) => Step::Poisoned(e),
                }
            };
            match step {
                Step::Request(request) => {
                    self.role
                        .counters()
                        .requests
                        .fetch_add(1, Ordering::Relaxed);
                    self.handle_request(token, request);
                }
                Step::DecodeError(e) => {
                    // Intact frame, bad content: the stream stays
                    // synchronized, answer typed and keep serving.
                    self.role
                        .counters()
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.reply(
                        token,
                        Response::Error(WireError {
                            kind: ErrorKindWire::BadRequest,
                            message: e.to_string(),
                        }),
                    );
                }
                Step::Poisoned(e) => {
                    // Bad length or checksum: not resynchronizable.
                    self.role
                        .counters()
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let _ = conn.wbuf.push_value(&Response::Error(WireError {
                            kind: ErrorKindWire::BadRequest,
                            message: e.to_string(),
                        }));
                        conn.close_after_flush = true;
                    }
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.rbuf.compact();
        }
    }

    /// One decoded request. The reactor owns the generic kinds (reads,
    /// pins, liveness, shutdown); everything else goes to the role.
    fn handle_request(&mut self, token: u64, request: Request) {
        match request {
            Request::Ping => self.reply(token, Response::Pong),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.reply(token, Response::ShuttingDown);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                }
                self.begin_drain();
            }
            Request::Pin => self.do_pin(token, 0),
            Request::PinAt(min_lsn) => self.do_pin(token, min_lsn),
            Request::Unpin => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    if conn.pinned.holds_pin() {
                        self.role
                            .counters()
                            .pinned_generations
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                    conn.pinned = ReaderSlot::Empty;
                }
                self.reply(token, Response::Unpinned);
            }
            Request::Query(src) => self.do_read(token, ReadKind::Query(src)),
            Request::Check(src) => self.do_read(token, ReadKind::Check(src)),
            Request::Explain(src) => self.do_read(token, ReadKind::Explain(src)),
            other => {
                let seq = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    conn.seq += 1;
                    conn.seq
                };
                match self.role.handle(token, seq, self.draining, other) {
                    RoleAction::Reply(resp) => self.reply(token, resp),
                    RoleAction::Deferred => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.mode = Mode::Await;
                            if self.draining {
                                conn.drain_close = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `Pin` / `PinAt` — same contract as the blocking path, but the
    /// session encode is deferred to the first read's worker: only the
    /// snapshot `Arc` is grabbed here.
    fn do_pin(&mut self, token: u64, min_lsn: u64) {
        let view = self.role.published();
        if min_lsn > 0 && view.last_lsn < min_lsn {
            self.role
                .counters()
                .lag_refusals
                .fetch_add(1, Ordering::Relaxed);
            let message = self.role.lag_message(view.last_lsn, min_lsn);
            self.reply(
                token,
                Response::Error(WireError {
                    kind: ErrorKindWire::LagBehind,
                    message,
                }),
            );
            return;
        }
        let reply = SnapshotReply {
            generation: view.snapshot.generation(),
            updates_applied: view.updates_applied,
            last_lsn: view.last_lsn,
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.pinned.holds_pin() {
                self.role
                    .counters()
                    .pinned_generations
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.pinned = ReaderSlot::Lazy(view.snapshot);
        }
        self.reply(token, Response::Pinned(reply));
    }

    /// Hands a read to the worker pool, lending out whichever session the
    /// blocking path would have used: the pinned one if held, else the
    /// follow-the-latest session when its generation still matches, else
    /// a fresh encode from the published snapshot.
    fn do_read(&mut self, token: u64, kind: ReadKind) {
        self.role.counters().reads.fetch_add(1, Ordering::Relaxed);
        let view = self.role.published();
        let current = view.snapshot.generation();
        let task = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.seq += 1;
            let (origin, source) = if conn.pinned.holds_pin() {
                let source = match std::mem::replace(&mut conn.pinned, ReaderSlot::Lent) {
                    ReaderSlot::Ready(reader) => ReadSource::Reader(reader),
                    ReaderSlot::Lazy(snapshot) => ReadSource::Snapshot(snapshot),
                    // `Lent` is unreachable: `Await` mode blocks requests
                    // while a session is out. Recover with a re-encode.
                    ReaderSlot::Lent | ReaderSlot::Empty => {
                        ReadSource::Snapshot(view.snapshot.clone())
                    }
                };
                (ReadOrigin::Pinned, source)
            } else {
                self.cached_latest.remove(&token);
                let source = match std::mem::replace(&mut conn.latest, ReaderSlot::Lent) {
                    ReaderSlot::Ready(reader) if reader.generation() == current => {
                        ReadSource::Reader(reader)
                    }
                    _ => ReadSource::Snapshot(view.snapshot.clone()),
                };
                (ReadOrigin::Latest, source)
            };
            conn.mode = Mode::Await;
            if self.draining {
                conn.drain_close = true;
            }
            ReadTask {
                token,
                seq: conn.seq,
                origin,
                source,
                kind,
            }
        };
        let sent = match self.read_tx.as_ref() {
            Some(tx) => tx.send(task).is_ok(),
            None => false,
        };
        if !sent {
            // Pool gone (teardown race): answer typed instead of wedging.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.mode = Mode::Idle;
            }
            self.reply(
                token,
                Response::Error(WireError {
                    kind: ErrorKindWire::Internal,
                    message: "read pool unavailable".into(),
                }),
            );
        }
    }

    /// Queues a reply on an `Idle` connection. During a drain the reply
    /// is the connection's last: it closes once flushed.
    fn reply(&mut self, token: u64, resp: Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.wbuf.push_value(&resp).is_err() {
                // Only an over-cap or unserializable reply lands here;
                // nothing recoverable to say on this stream.
                conn.close_after_flush = true;
                return;
            }
            if self.draining {
                conn.close_after_flush = true;
            }
        }
    }

    // ----- completions -----

    fn apply_completions(&mut self) {
        let completions = self.completions.drain();
        let mut shipped = false;
        let mut touched: Vec<u64> = Vec::new();
        for completion in completions {
            let Completion { token, seq, done } = completion;
            if token == TOKEN_NONE {
                if matches!(done, Done::Shipped) {
                    shipped = true;
                }
                continue;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // closed while the job ran; session drops here
            };
            if seq != conn.seq || !matches!(conn.mode, Mode::Await) {
                // Stale or duplicate (a writer-panic recovery path posts
                // failure to every sink in its batch, including jobs that
                // already completed): only the completion the connection
                // is actually waiting for gets delivered.
                continue;
            }
            match done {
                Done::Resp(resp) => {
                    conn.mode = Mode::Idle;
                    if conn.drain_close {
                        conn.close_after_flush = true;
                    }
                    let _ = conn.wbuf.push_value(&resp);
                }
                Done::RespClose(resp) => {
                    conn.mode = Mode::Idle;
                    let _ = conn.wbuf.push_value(&resp);
                    conn.close_after_flush = true;
                }
                Done::Read {
                    origin,
                    reader,
                    resp,
                } => {
                    conn.mode = Mode::Idle;
                    match origin {
                        ReadOrigin::Pinned => {
                            conn.pinned = match reader {
                                Some(r) => ReaderSlot::Ready(r),
                                // Worker panic ate the session; the pin
                                // survives as a lazy re-encode. The gauge
                                // is untouched — the pin is still held.
                                None => ReaderSlot::Lazy(self.role.published().snapshot),
                            };
                        }
                        ReadOrigin::Latest => {
                            // Reinstall only a still-current session —
                            // a superseded generation is dropped right
                            // here, releasing its `Arc<Theory>` eagerly.
                            conn.latest = match reader {
                                Some(r) if r.generation() == self.seen_generation => {
                                    self.cached_latest.insert(token);
                                    ReaderSlot::Ready(r)
                                }
                                _ => {
                                    self.cached_latest.remove(&token);
                                    ReaderSlot::Empty
                                }
                            };
                        }
                    }
                    if conn.drain_close {
                        conn.close_after_flush = true;
                    }
                    let _ = conn.wbuf.push_value(&resp);
                }
                Done::SubStart { frames, rx } => {
                    let mut ok = true;
                    for frame in &frames {
                        if conn.wbuf.push_value(frame).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        let next_heartbeat = Instant::now() + HEARTBEAT_INTERVAL;
                        conn.mode = Mode::Streaming { rx, next_heartbeat };
                        conn.timer_gen += 1;
                        self.timers
                            .push(Reverse((next_heartbeat, token, conn.timer_gen)));
                        self.streaming.insert(token);
                    } else {
                        conn.mode = Mode::Idle;
                        conn.close_after_flush = true;
                    }
                }
                Done::Shipped => {}
            }
            touched.push(token);
        }
        if shipped {
            self.pump_streams();
        }
        for token in touched {
            // A pipelined request may already be buffered behind the one
            // that just completed.
            self.pump(token);
            self.settle_eof(token);
            self.flush_conn(token);
        }
    }

    /// Drains every streaming connection's shipping channel into
    /// frame-sized `WalBatch` responses.
    fn pump_streams(&mut self) {
        // The `streaming` index keeps this from scanning every socket:
        // at 10k mostly-idle connections a full `conns` walk per shipped
        // batch dominated the reactor's tail latency.
        let tokens: Vec<u64> = self.streaming.iter().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                self.streaming.remove(&token);
                continue;
            };
            {
                let Mode::Streaming { rx, next_heartbeat } = &mut conn.mode else {
                    self.streaming.remove(&token);
                    continue;
                };
                loop {
                    match rx.try_recv() {
                        Ok(entries) => {
                            *next_heartbeat = Instant::now() + HEARTBEAT_INTERVAL;
                            for chunk in chunk_entries(entries) {
                                if conn
                                    .wbuf
                                    .push_value(&Response::WalBatch(WalBatchReply {
                                        entries: chunk,
                                    }))
                                    .is_err()
                                {
                                    conn.close_after_flush = true;
                                    break;
                                }
                            }
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            conn.close_after_flush = true;
                            break;
                        }
                    }
                    if conn.close_after_flush {
                        break;
                    }
                }
            }
            self.flush_conn(token);
        }
    }

    // ----- timers -----

    /// Pops due timer entries; each resolves lazily against the
    /// connection's *current* deadline — reap if genuinely due, re-arm
    /// otherwise. Dead tokens fall out silently.
    fn fire_timers(&mut self) {
        enum TimerAction {
            Reap { counted: bool },
            Heartbeat,
            Rearm(Instant),
        }
        let now = Instant::now();
        let idle = self.config.idle_timeout;
        loop {
            match self.timers.peek() {
                Some(Reverse((t, _, _))) if *t <= now => {}
                _ => break,
            }
            let Some(Reverse((_, token, gen))) = self.timers.pop() else {
                break;
            };
            let action = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if conn.timer_gen != gen {
                    // Superseded by a later re-arm; the live entry for
                    // this connection is still in the heap.
                    continue;
                }
                match &conn.mode {
                    Mode::Idle => {
                        if now >= conn.idle_deadline {
                            // Read-side idle (or a mid-frame staller):
                            // the reap the stats call an idle close.
                            TimerAction::Reap { counted: true }
                        } else if !conn.wbuf.is_empty() && now >= conn.last_progress + idle {
                            TimerAction::Reap { counted: false }
                        } else {
                            match conn.due(idle) {
                                Some(due) => TimerAction::Rearm(due),
                                None => TimerAction::Rearm(now + idle),
                            }
                        }
                    }
                    // In-flight request: never reap; check back later.
                    Mode::Await => TimerAction::Rearm(now + idle),
                    Mode::Streaming { next_heartbeat, .. } => {
                        if !conn.wbuf.is_empty() && now >= conn.last_progress + idle {
                            TimerAction::Reap { counted: false }
                        } else if now >= *next_heartbeat {
                            TimerAction::Heartbeat
                        } else {
                            match conn.due(idle) {
                                Some(due) => TimerAction::Rearm(due),
                                None => TimerAction::Rearm(now + idle),
                            }
                        }
                    }
                }
            };
            match action {
                TimerAction::Reap { counted } => {
                    if counted {
                        self.role
                            .counters()
                            .idle_closes
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.close_conn(token);
                }
                TimerAction::Heartbeat => {
                    if self.draining {
                        // Streams end at drain; `begin_drain` marked them.
                        self.close_conn(token);
                        continue;
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let _ = conn.wbuf.push_value(&Response::WalBatch(WalBatchReply {
                            entries: Vec::new(),
                        }));
                        if let Mode::Streaming { next_heartbeat, .. } = &mut conn.mode {
                            *next_heartbeat = now + HEARTBEAT_INTERVAL;
                        }
                    }
                    self.arm_timer(token, now + HEARTBEAT_INTERVAL);
                    self.flush_conn(token);
                }
                TimerAction::Rearm(due) => {
                    self.arm_timer(token, due);
                }
            }
        }
    }

    // ----- EOF / flush / close -----

    /// Decides what a half-closed peer means for this connection.
    fn settle_eof(&mut self, token: u64) {
        enum EofAction {
            Nothing,
            Torn,
            CloseNow,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.eof {
                return;
            }
            match conn.mode {
                Mode::Idle => {
                    if conn.rbuf.pending() > 0 {
                        // EOF inside a frame: a torn-frame close,
                        // counted as a protocol error.
                        EofAction::Torn
                    } else {
                        conn.close_after_flush = true;
                        if conn.wbuf.is_empty() {
                            EofAction::CloseNow
                        } else {
                            EofAction::Nothing
                        }
                    }
                }
                // The in-flight request still gets served; the completion
                // path revisits EOF afterwards.
                Mode::Await => EofAction::Nothing,
                // A subscriber that closed its write side is done reading
                // too — the stream has no one left to talk to.
                Mode::Streaming { .. } => EofAction::CloseNow,
            }
        };
        match action {
            EofAction::Nothing => {}
            EofAction::Torn => {
                self.role
                    .counters()
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.close_conn(token);
            }
            EofAction::CloseNow => self.close_conn(token),
        }
    }

    /// Writes what the socket will take; arms/disarms `EPOLLOUT` to match
    /// the buffer; closes flushed-out connections marked for it.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.wbuf.is_empty() {
            let Conn { stream, wbuf, .. } = conn;
            match wbuf.flush_nonblocking(stream) {
                Ok(n) => {
                    if n > 0 {
                        conn.last_progress = Instant::now();
                    }
                }
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if conn.wbuf.is_empty() {
            if conn.close_after_flush {
                self.close_conn(token);
                return;
            }
            if conn.want_write {
                conn.want_write = false;
                let fd = conn.stream.as_raw_fd();
                let events = conn.base_events;
                let _ = self.poller.modify(fd, events, token);
            }
        } else if !conn.want_write {
            conn.want_write = true;
            let fd = conn.stream.as_raw_fd();
            let events = conn.base_events | sys::EPOLLOUT;
            let _ = self.poller.modify(fd, events, token);
        }
    }

    /// Tears one connection down: deregisters, releases its admission
    /// slot and pin gauge entry, drops its sessions (freeing whatever
    /// `Arc<Theory>` generations they held).
    fn close_conn(&mut self, token: u64) {
        self.streaming.remove(&token);
        self.cached_latest.remove(&token);
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if conn.admitted {
                self.active.fetch_sub(1, Ordering::SeqCst);
                // Let the role reclaim per-connection state (an open
                // transaction's locks, for one) now that no further
                // requests can arrive on this token.
                self.role.closed(token);
            }
            if conn.pinned.holds_pin() {
                self.role
                    .counters()
                    .pinned_generations
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Starts the drain: stop accepting, end subscription streams, leave
    /// request connections to finish on their own terms (one more
    /// answered request or their idle deadline).
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        let streaming: Vec<u64> = self.streaming.iter().copied().collect();
        for token in streaming {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.flush_conn(token);
        }
    }

    /// Detects publication movement and drops cached follow-the-latest
    /// sessions for superseded generations, so an idle connection cannot
    /// keep an old `Arc<Theory>` alive between requests.
    fn sweep_stale_sessions(&mut self) {
        let current = self.role.published().snapshot.generation();
        if current == self.seen_generation {
            return;
        }
        self.seen_generation = current;
        // Only connections actually holding a cached session are visited
        // — the index spares the 10k-idle-socket scan on every publish.
        self.cached_latest.retain(|token| {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            match &conn.latest {
                ReaderSlot::Ready(reader) if reader.generation() != current => {
                    conn.latest = ReaderSlot::Empty;
                    false
                }
                ReaderSlot::Ready(_) => true,
                _ => false,
            }
        });
        self.role.generation_moved();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn poller_sees_readable_listener_and_waker() {
        let poller = Poller::new().expect("epoll_create1");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)
            .expect("add listener");
        let waker = Waker::new().expect("eventfd");
        poller
            .add(waker.fd, sys::EPOLLIN, TOKEN_WAKER)
            .expect("add waker");

        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);

        waker.wake();
        let n = poller.wait(&mut events, 1000).expect("wait");
        let tokens: Vec<u64> = events.iter().take(n).map(|e| e.data).collect();
        assert!(tokens.contains(&TOKEN_WAKER));
        waker.drain();
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0, "drained");

        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client.write_all(b"x").expect("write");
        let n = poller.wait(&mut events, 1000).expect("wait");
        let tokens: Vec<u64> = events.iter().take(n).map(|e| e.data).collect();
        assert!(tokens.contains(&TOKEN_LISTENER));
    }

    #[test]
    fn completions_post_wakes_and_drains_in_order() {
        let completions = Completions::new().expect("completions");
        completions.post(7, 1, Done::Resp(Response::Pong));
        completions.post(TOKEN_NONE, 0, Done::Shipped);
        let drained = completions.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].token, 7);
        assert_eq!(drained[0].seq, 1);
        assert!(matches!(drained[0].done, Done::Resp(Response::Pong)));
        assert!(matches!(drained[1].done, Done::Shipped));
        assert!(completions.drain().is_empty());
    }
}

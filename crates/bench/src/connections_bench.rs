//! The `connections` experiment behind `BENCH_connections.json`: how
//! many concurrent sockets one `winslett-serve` instance's epoll reactor
//! can hold, and what a read costs once they are all held.
//!
//! For each tier size `n`, the bench boots one in-process server
//! (MemStorage, compaction off), dials `n` connections from a single
//! pacing thread — a connection counts as *held* only once its Ping
//! round-trips — then sends entailment-check probes through a stride
//! sample of the held sockets and records p50/p99 per-check latency.
//! `accept_per_sec` is the admission rate: one nonblocking accept plus
//! an epoll registration per socket. Each tier's server ends with the
//! kernel's final-state check.
//!
//! File-descriptor budget: `n` held sockets cost `2n` descriptors in
//! this one process (client end + server end). The bench asks the
//! kernel to raise `RLIMIT_NOFILE` first and, where the limit still
//! binds, honestly shrinks the tier and says so in `notes` rather than
//! reporting a tier it could not actually hold.

use crate::kernel::{self, FinalCheck, Seed};
use crate::report::{percentile, Table};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use winslett_serve::{Client, ServerOptions};

/// The entailment probe every sampled connection asks.
const PROBE: &str = "R(a)";

/// Descriptors reserved for everything that is not a held socket pair
/// (listener, WAL, epoll/eventfd, stdio, the allocator's spares).
const FD_SLACK: u64 = 512;

/// Raising and reading `RLIMIT_NOFILE` without a libc crate — the
/// kernel interface is three words, and `std` already links libc.
mod fdlimit {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Tries to raise the soft (and, with privilege, hard) fd limit to
    /// `want`; returns the soft limit actually in force afterwards.
    pub fn raise(want: u64) -> u64 {
        unsafe {
            let mut cur = RLimit { cur: 0, max: 0 };
            if getrlimit(RLIMIT_NOFILE, &mut cur) != 0 {
                return 1024; // conservative guess; never happens on Linux
            }
            if cur.cur >= want {
                return cur.cur;
            }
            // First try raising both limits (works as root), then fall
            // back to soft-up-to-hard (works everywhere).
            let both = RLimit {
                cur: want,
                max: want.max(cur.max),
            };
            if setrlimit(RLIMIT_NOFILE, &both) == 0 {
                return want;
            }
            let soft = RLimit {
                cur: want.min(cur.max),
                max: cur.max,
            };
            if setrlimit(RLIMIT_NOFILE, &soft) == 0 {
                return soft.cur;
            }
            cur.cur
        }
    }
}

/// Closes a client socket with an RST instead of FIN so tearing down a
/// 10 000-socket tier does not strand 10 000 TIME_WAIT ports and starve
/// the next tier of ephemeral ports. (`TcpStream::set_linger` is not
/// stable; the setsockopt is four words.)
mod hardclose {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        onoff: i32,
        linger: i32,
    }

    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }

    pub fn mark(stream: &TcpStream) {
        let linger = Linger {
            onoff: 1,
            linger: 0,
        };
        unsafe {
            // Best-effort: a failure just means FIN + TIME_WAIT.
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                &linger,
                std::mem::size_of::<Linger>() as u32,
            );
        }
    }
}

/// One tier of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConnTier {
    /// Connections this tier tried to hold (already fd-capped).
    pub target: u64,
    /// Connections actually held — Ping round-tripped and the socket
    /// stayed open for the probe phase.
    pub held: u64,
    /// Wall-clock to establish all held connections, milliseconds.
    pub establish_ms: f64,
    /// Held connections per second of establish time — the admission
    /// rate under a single pacing dialer.
    pub accept_per_sec: f64,
    /// Entailment checks probed through the held sockets.
    pub probes: u64,
    /// Median per-check latency with all sockets held, µs.
    pub read_p50_us: f64,
    /// 99th percentile, µs.
    pub read_p99_us: f64,
    /// The kernel's final-state check of this tier's server.
    pub final_state: FinalCheck,
}

/// The complete `BENCH_connections.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConnectionsBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"connections"`.
    pub experiment: String,
    /// Soft `RLIMIT_NOFILE` in force during the run (after the bench's
    /// raise attempt); each held connection costs two descriptors.
    pub fd_limit: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: u64,
    /// The sweep: one row per tier size, in increasing tier order.
    pub tiers: Vec<ConnTier>,
    /// Free-form observations, including any fd-forced tier shrinks.
    pub notes: Vec<String>,
}

/// Runs one tier against a fresh server.
fn run_tier(target: usize, probe_budget: usize) -> (ConnTier, Vec<String>) {
    let mut notes = Vec::new();
    let mut seed = Seed::default();
    seed.relation("R", 1).fact("R", ["a"]);
    let options = ServerOptions {
        max_connections: target + 64,
        idle_timeout: Duration::from_secs(120),
        compaction: None,
        ..ServerOptions::default()
    };
    let served = kernel::boot(options, &seed);
    let addr = served.addr;

    // Dial until the tier is full or the host refuses; a connection is
    // held only once its Ping answer arrives.
    let started = Instant::now();
    let mut held: Vec<Client> = Vec::with_capacity(target);
    while held.len() < target {
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                notes.push(format!(
                    "tier {target}: dial failed after {} held: {e}",
                    held.len()
                ));
                break;
            }
        };
        if let Err(e) = client.ping() {
            notes.push(format!(
                "tier {target}: ping failed after {} held: {e}",
                held.len()
            ));
            break;
        }
        held.push(client);
    }
    let establish = started.elapsed();

    // Probe a stride sample of the held sockets while all of them stay
    // open — the latency numbers include whatever bookkeeping cost the
    // reactor pays for the other `held - 1` connections.
    let mut latencies_us = Vec::new();
    if !held.is_empty() {
        let stride = (held.len() / probe_budget.max(1)).max(1);
        let mut i = 0;
        while latencies_us.len() < probe_budget && !held.is_empty() {
            let idx = (i * stride) % held.len();
            let start = Instant::now();
            match held[idx].check(PROBE) {
                Ok(_) => latencies_us.push(kernel::micros(start)),
                Err(e) => {
                    notes.push(format!("tier {target}: probe failed: {e}"));
                    break;
                }
            }
            i += 1;
        }
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    // RST-close the herd so back-to-back tiers do not fight over
    // TIME_WAIT ephemeral ports (and no lingering connection stalls the
    // drain until the idle reaper gets it), then end through the kernel.
    let held_count = held.len() as u64;
    for c in &held {
        hardclose::mark(c.stream());
    }
    drop(held);
    let finished = kernel::finish(served, &seed, &[], &[PROBE.to_owned()]);
    let tier = ConnTier {
        target: target as u64,
        held: held_count,
        establish_ms: establish.as_secs_f64() * 1e3,
        accept_per_sec: held_count as f64 / establish.as_secs_f64().max(1e-9),
        probes: latencies_us.len() as u64,
        read_p50_us: percentile(&latencies_us, 0.50),
        read_p99_us: percentile(&latencies_us, 0.99),
        final_state: finished.check,
    };
    (tier, notes)
}

/// Runs the full sweep and assembles the `BENCH_connections.json`
/// document. `targets` are tier sizes in increasing order; each runs
/// against its own fresh server.
pub fn run_connections_bench(targets: &[usize], probe_budget: usize) -> ConnectionsBench {
    let fd_limit = fdlimit::raise(65_536);
    let mut notes = vec![
        "A connection is held only after its Ping round-trips; probes are \
         entailment checks asked through a stride sample of the held sockets."
            .to_owned(),
        "The reactor holds every tier with a constant thread count \
         (reactor + writer + solver pool)."
            .to_owned(),
    ];
    let fd_room = (fd_limit.saturating_sub(FD_SLACK) / 2) as usize;

    let mut tiers = Vec::new();
    for &want in targets {
        let target = want.min(fd_room);
        if target < want {
            notes.push(format!(
                "tier {want} shrunk to {target}: RLIMIT_NOFILE {fd_limit} leaves room \
                 for {fd_room} socket pairs"
            ));
        }
        if target == 0 {
            continue;
        }
        let (tier, mut tier_notes) = run_tier(target, probe_budget);
        tiers.push(tier);
        notes.append(&mut tier_notes);
    }

    ConnectionsBench {
        version: 3,
        experiment: "connections".to_owned(),
        fd_limit,
        host_parallelism: kernel::host_parallelism(),
        tiers,
        notes,
    }
}

/// Shape-validates `BENCH_connections.json` text by re-parsing it into
/// [`ConnectionsBench`] and checking the cross-field invariants.
/// `make connections-smoke` fails on `Err`.
pub fn validate_connections_bench(text: &str) -> Result<ConnectionsBench, String> {
    let b: ConnectionsBench = kernel::parse(text, "connections", 3)?;
    if b.tiers.is_empty() {
        return Err("no tiers recorded".to_owned());
    }
    if b.fd_limit == 0 || b.host_parallelism == 0 {
        return Err("fd_limit / host_parallelism must be positive".to_owned());
    }
    if b.tiers.windows(2).any(|w| w[0].target >= w[1].target) {
        return Err("tier targets must strictly increase".to_owned());
    }
    for tier in &b.tiers {
        // The reactor must actually hold every socket the tier asked
        // for (the fd budget already shrank the target where needed).
        if tier.held == 0 || tier.held != tier.target {
            return Err(format!(
                "tier {} held only {} sockets",
                tier.target, tier.held
            ));
        }
        let at = format!("tier {}", tier.target);
        kernel::positive(tier.establish_ms, &format!("{at} establish_ms"))?;
        kernel::positive(tier.accept_per_sec, &format!("{at} accept_per_sec"))?;
        if tier.probes == 0 {
            return Err(format!("{at} recorded no probes"));
        }
        kernel::ordered(&[tier.read_p50_us, tier.read_p99_us], &format!("{at} read"))?;
        kernel::final_state(&tier.final_state, &at)?;
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn connections_table(b: &ConnectionsBench) -> Table {
    let mut t = Table::new(
        "CONNECTIONS",
        "concurrent-socket capacity and read latency of the epoll reactor",
        &[
            "target",
            "held",
            "establish ms",
            "accept/s",
            "probes",
            "read p50 µs",
            "read p99 µs",
        ],
    );
    for tier in &b.tiers {
        t.row(vec![
            tier.target.to_string(),
            tier.held.to_string(),
            format!("{:.1}", tier.establish_ms),
            format!("{:.0}", tier.accept_per_sec),
            tier.probes.to_string(),
            format!("{:.1}", tier.read_p50_us),
            format!("{:.1}", tier.read_p99_us),
        ]);
    }
    t.note(format!(
        "RLIMIT_NOFILE {} (each held socket costs two fds in-process); host parallelism {}",
        b.fd_limit, b.host_parallelism
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_connections_bench(&[4, 8], 24);
        assert_eq!(b.tiers.len(), 2);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_connections_bench(&text).expect("validates");
        assert!(back.tiers.iter().all(|t| t.held == t.target));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_connections_bench(&[3, 5], 12);
        let mut bad = b.clone();
        bad.tiers[0].held = bad.tiers[0].target - 1;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_connections_bench(&text)
            .unwrap_err()
            .contains("held only"));
        let mut bad = b.clone();
        bad.tiers.reverse();
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_connections_bench(&text)
            .unwrap_err()
            .contains("strictly increase"));
        let mut bad = b.clone();
        bad.tiers[1].read_p99_us = -1.0;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_connections_bench(&text)
            .unwrap_err()
            .contains("percentiles"));
        let mut bad = b.clone();
        bad.tiers[0].final_state.matches_replay = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_connections_bench(&text)
            .unwrap_err()
            .contains("serial replay"));
        let mut bad = b.clone();
        bad.version = 2;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_connections_bench(&text)
            .unwrap_err()
            .contains("version"));
        assert!(validate_connections_bench("{").is_err());
    }

    #[test]
    fn table_renders_one_row_per_tier() {
        let b = run_connections_bench(&[2], 8);
        let table = connections_table(&b);
        assert_eq!(table.rows.len(), 1);
        assert!(table.render().contains("CONNECTIONS"));
    }
}

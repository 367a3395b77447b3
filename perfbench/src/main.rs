//! Fixed-work end-to-end benchmark for the Winslett logical database.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of identical-size rounds, repeated until `--seconds`
//! have passed (after one unmeasured warm-up round). Every round builds its
//! own state from scratch, so the work per operation does not drift with
//! run length, and every round checks its outputs against the paper's §4
//! oracle (a plain `LogicalDatabase` fed the same statements serially).
//!
//! Workloads:
//!
//! * `served_read` — pinned snapshot reads against a server taking a
//!   trickle of writes (see [`served::read_round`]);
//! * `served_write` — concurrent statements and transactions, disjoint
//!   and contended, against a server (see [`served::write_round`]);
//! * `ingest_recover` — journaled ingest, then WAL recovery, through the
//!   library with no server (see [`ingest::round`]).
//!
//! The last line of standard output is one JSON object. With `--trace 0` it
//! carries the end-to-end metrics; with `--trace 1` the same rounds also
//! replay their statements through each layer in-process, with a span
//! around every layer call, and the object carries the per-layer metrics.

mod gen;
mod ingest;
mod replay;
mod served;

use replay::{verdicts, Spans};
use std::time::{Duration, Instant};
use winslett_core::{DbOptions, DurableDatabase, Storage};

/// Mismatch and failure messages printed per run.
const MAX_REPORTED: u64 = 5;

const USAGE: &str =
    "usage: perfbench --workload <served_read|served_write|ingest_recover> --seed <n> --seconds <s> --trace <0|1>";

/// Everything a run measures and checks, summed over its rounds.
#[derive(Default)]
pub struct Tally {
    /// Per-round set-up time, s.
    setup_s: Vec<f64>,
    /// Client-observed latency of each operation of the current round, µs.
    op_us: Vec<f64>,
    /// Wall time of the current round's measured phase, s.
    busy_s: f64,
    /// Time to reopen (recover) each round's final storage, ms.
    recover_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    spans: Spans,
}

impl Tally {
    fn fail(&mut self, what: String) {
        if self.failed + self.mismatches < MAX_REPORTED {
            eprintln!("perfbench: failed: {what}");
        }
        self.failed += 1;
    }

    fn mismatch(&mut self, what: String) {
        if self.failed + self.mismatches < MAX_REPORTED {
            eprintln!("perfbench: wrong output: {what}");
        }
        self.mismatches += 1;
    }

    fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        if got != want {
            self.mismatch(format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// Per-round summaries of the measured operations. A run reports the
/// median round, so a burst of load from outside the benchmark moves a few
/// rounds and not the result.
#[derive(Default)]
struct Rounds {
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    /// Operations per second of measured-phase wall time.
    rate: Vec<f64>,
    ops: usize,
}

impl Rounds {
    /// Summarises the round `tally` just measured and clears it for the next.
    fn close(&mut self, tally: &mut Tally) {
        let mut op_us = std::mem::take(&mut tally.op_us);
        let busy_s = std::mem::take(&mut tally.busy_s);
        self.ops += op_us.len();
        self.rate.push(op_us.len() as f64 / busy_s);
        self.p50_ms.push(percentile(&mut op_us, 0.50) / 1e3);
        self.p95_ms.push(percentile(&mut op_us, 0.95) / 1e3);
    }
}

/// Reopens of one round's storage. A round yields far fewer recoveries
/// than operations, so each round recovers several times to give
/// `recover_ms` enough samples for a steady median.
const RECOVERIES: usize = 6;

/// Reopens `storage` through WAL recovery (the round's checkpoint, then
/// the log written after it) [`RECOVERIES`] times, timing each, and checks
/// every recovered state against the oracle's verdicts. A clean shutdown
/// leaves nothing for `open` to repair, so each reopen reads the same
/// files and does the same work.
fn recover<S: Storage>(mut storage: S, wffs: &[String], want: &[(bool, bool)], tally: &mut Tally) {
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let opened = DurableDatabase::open(storage, DbOptions::default(), replay::wal_options());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (mut db, report) = match opened {
            Ok(x) => x,
            Err(e) => return tally.mismatch(format!("recovery failed: {e}")),
        };
        tally.recover_ms.push(ms);
        // Per replayed record, the snapshot restore and the post-replay
        // simplify included.
        if report.replayed > 0 {
            tally
                .spans
                .push("replay_us_per_record", ms * 1e3 / report.replayed as f64);
        }
        if report.truncated.is_some() || report.replay_error.is_some() {
            tally.mismatch(format!("recovery of a clean shutdown repaired: {report:?}"));
        }
        let got = verdicts(db.db_mut(), wffs);
        tally.expect("recovered state", &got.as_slice(), &want);
        storage = match db.close() {
            Ok(s) => s,
            Err(e) => return tally.mismatch(format!("recovered database closes: {e}")),
        };
    }
}

/// Linear-interpolated quantile `q` of `v` (sorts in place).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let round: fn(&mut gen::Rng, bool, &mut Tally) = match args.workload.as_str() {
        "served_read" => served::read_round,
        "served_write" => served::write_round,
        "ingest_recover" => ingest::round,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut rng = gen::Rng::new(args.seed);

    // Warm-up: fills allocator pools and code caches. Its outputs are
    // checked like any other round's; its timings are dropped.
    let mut warm = Tally::default();
    round(&mut rng, args.trace, &mut warm);

    let mut tally = Tally {
        attempted: warm.attempted,
        failed: warm.failed,
        mismatches: warm.mismatches,
        ..Tally::default()
    };
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = Rounds::default();
    while rounds.rate.is_empty() || start.elapsed() < window {
        round(&mut rng, args.trace, &mut tally);
        rounds.close(&mut tally);
    }
    println!(
        "{}: {} rounds, {} ops, host parallelism {}",
        args.workload,
        rounds.rate.len(),
        rounds.ops,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let s = &tally.spans;
        [
            ("parse_us", "us"),
            ("footprint_us", "us"),
            ("gua_apply_us", "us"),
            ("durable_update_us", "us"),
            ("wal_write_us", "us"),
            ("snapshot_capture_us", "us"),
            ("session_check_us", "us"),
            ("session_query_us", "us"),
            ("session_build_us", "us"),
            ("wire_ping_us", "us"),
            ("checkpoint_ms", "ms"),
            ("replay_us_per_record", "us"),
            ("wal_bytes_per_record", "B"),
            ("store_nodes", "count"),
            ("snapshots_per_write", "ratio"),
            ("syncs_per_write", "ratio"),
            ("coalesced_write_share", "ratio"),
            ("lock_waits_per_txn", "ratio"),
        ]
        .into_iter()
        .map(|(name, unit)| (name, s.median(name), unit))
        .collect()
    } else {
        vec![
            ("op_p50_ms", percentile(&mut rounds.p50_ms, 0.5), "ms"),
            ("op_p95_ms", percentile(&mut rounds.p95_ms, 0.5), "ms"),
            ("ops_per_s", percentile(&mut rounds.rate, 0.5), "1/s"),
            ("recover_ms", percentile(&mut tally.recover_ms, 0.5), "ms"),
            ("setup_s", percentile(&mut tally.setup_s, 0.5), "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.mismatches == 0 && tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # winslett-serve
//!
//! A concurrent LDML database server over the Winslett (PODS 1986)
//! reproduction: one journaled writer, MVCC-style snapshot readers, and a
//! length-prefixed CRC-checked wire protocol on plain `std::net` TCP.
//!
//! * [`protocol`] — the frame format and request/response vocabulary,
//!   including the WAL-subscription kinds (`Subscribe` / `Catchup` /
//!   `WalBatch`).
//! * [`server`] — [`Server`]: the epoll reactor's primary role, admission
//!   control, the single writer thread, snapshot publication, WAL
//!   shipping to subscribers, graceful drain.
//! * [`replica`] — [`Replica`]: a WAL-shipping read replica serving
//!   pinned-LSN consistent reads (see `docs/replication.md`).
//! * [`client`] — [`Client`]: a blocking request/response client.
//!
//! ```no_run
//! use winslett_core::{DbOptions, MemStorage, WalOptions};
//! use winslett_serve::{Client, Server, ServerOptions};
//!
//! let (server, _report) = Server::bind(
//!     ("127.0.0.1", 0),
//!     MemStorage::new(),
//!     DbOptions::default(),
//!     WalOptions::default(),
//!     ServerOptions::default(),
//! )?;
//! let addr = server.local_addr();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! client.declare_relation("Orders", 3)?;
//! client.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")?;
//! let snap = client.pin()?;
//! let answer = client.check("Orders(100,32,1)")?;
//! assert!(answer.possible && !answer.certain);
//! assert_eq!(answer.generation, snap.generation);
//! client.shutdown()?;
//! running.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod protocol;
mod reactor;
pub mod replica;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    CatchupReply, CheckpointReply, ErrorKindWire, ExecReply, ExplainReply, FrameError, QueryReply,
    Request, Response, SnapshotReply, StatsReply, TruthReply, TxnReply, WalBatchReply, WireError,
    WireVerdict, MAX_FRAME_LEN,
};
pub use replica::{Replica, ReplicaHandle, ReplicaOptions, ReplicaStats};
pub use server::{
    CompactionPolicy, Server, ServerHandle, ServerOptions, ServerStats, HEARTBEAT_INTERVAL,
};

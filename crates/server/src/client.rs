//! A blocking client for the `winslett-serve` protocol.

use crate::protocol::{
    recv, send, CheckpointReply, ExecReply, ExplainReply, FrameError, QueryReply, Request,
    Response, SnapshotReply, StatsReply, TruthReply, TxnReply, WireError,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use winslett_core::Op;

/// What a client call can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Transport-level failure (connect, frame, decode).
    Frame(FrameError),
    /// The server answered with a typed error.
    Server(WireError),
    /// The server answered, but not with the response kind the call
    /// expected (a protocol bug, not a user error).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One connection to a server; requests run strictly in order.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects (with Nagle disabled — requests are small and latency
    /// matters more than throughput here).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| FrameError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Connects with a bounded dial, then installs `read` as the
    /// socket-level response deadline (`SO_RCVTIMEO`; `None` blocks
    /// forever). A response that misses the deadline surfaces as the
    /// typed [`FrameError::TimedOut`] instead of hanging the caller —
    /// this is how the replica's tailer notices a dead primary.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect: Duration,
        read: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| FrameError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| FrameError::Io("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, connect)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(read)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        Ok(Client { stream })
    }

    /// Surrenders the underlying stream — for protocol flows that leave
    /// request/response framing (the replica's subscription stream).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Borrows the underlying stream, e.g. to tune socket options the
    /// typed API does not cover.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sets the read timeout for responses (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| FrameError::Io(e.to_string()).into())
    }

    /// Sends one request, reads one response. The typed-error response is
    /// passed through — use the convenience wrappers to turn it into
    /// `Err`.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        send(&mut self.stream, request)?;
        Ok(recv(&mut self.stream)?)
    }

    fn expect<T>(
        &mut self,
        request: Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.request(&request)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => pick(other).map_err(|r| ClientError::Unexpected(format!("{r:?}"))),
        }
    }

    /// Sends one write — a statement, declaration or load — to the
    /// writer; the reply carries the LSN that orders it.
    pub fn write(&mut self, op: Op) -> Result<ExecReply, ClientError> {
        self.expect(Request::Write(op), |r| match r {
            Response::Executed(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Executes one LDML statement ([`Op::Execute`]).
    pub fn execute(&mut self, src: &str) -> Result<ExecReply, ClientError> {
        self.write(Op::Execute(src.to_owned()))
    }

    /// Declares an untyped relation ([`Op::DeclareRelation`]).
    pub fn declare_relation(&mut self, name: &str, arity: u64) -> Result<ExecReply, ClientError> {
        self.write(Op::DeclareRelation(name.to_owned(), arity as usize))
    }

    /// Loads a ground fact as certainly true ([`Op::LoadFact`]).
    pub fn load_fact(&mut self, pred: &str, args: &[&str]) -> Result<ExecReply, ClientError> {
        let args = args.iter().map(|s| s.to_string()).collect();
        self.write(Op::LoadFact(pred.to_owned(), args))
    }

    /// Runs a conjunctive query.
    pub fn query(&mut self, src: &str) -> Result<QueryReply, ClientError> {
        self.expect(Request::Query(src.to_string()), |r| match r {
            Response::Rows(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Entailment check: `(possible, certain)` plus the generation read.
    pub fn check(&mut self, src: &str) -> Result<TruthReply, ClientError> {
        self.expect(Request::Check(src.to_string()), |r| match r {
            Response::Truth(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Three-valued EXPLAIN.
    pub fn explain(&mut self, src: &str) -> Result<ExplainReply, ClientError> {
        self.expect(Request::Explain(src.to_string()), |r| match r {
            Response::Explained(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Pins the connection's reads to the current snapshot.
    pub fn pin(&mut self) -> Result<SnapshotReply, ClientError> {
        self.expect(Request::Pin, |r| match r {
            Response::Pinned(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Pins only if the server's snapshot has acknowledged `min_lsn`;
    /// otherwise the call fails with a typed `LagBehind` server error.
    /// Against a replica this is the pinned-LSN consistency primitive:
    /// retry (or fall back to the primary) until the replica catches up.
    pub fn pin_at(&mut self, min_lsn: u64) -> Result<SnapshotReply, ClientError> {
        self.expect(Request::PinAt(min_lsn), |r| match r {
            Response::Pinned(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Releases the pinned snapshot.
    pub fn unpin(&mut self) -> Result<(), ClientError> {
        self.expect(Request::Unpin, |r| match r {
            Response::Unpinned => Ok(()),
            other => Err(other),
        })
    }

    /// Server + WAL counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.expect(Request::Stats, |r| match r {
            Response::Stats(x) => Ok(*x),
            other => Err(other),
        })
    }

    /// Opens a multi-statement transaction on this connection. Until
    /// [`Client::commit`] or [`Client::rollback`], every write-shaped
    /// request on this connection joins the transaction: effects are
    /// visible to the transaction's own statements (read-your-writes on
    /// the server side) but to no other connection, and the whole group
    /// lands atomically at commit.
    pub fn begin(&mut self) -> Result<TxnReply, ClientError> {
        self.expect(Request::Begin, |r| match r {
            Response::TxnBegun(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Commits the connection's open transaction; the reply carries the
    /// commit LSN and the number of statements applied.
    pub fn commit(&mut self) -> Result<TxnReply, ClientError> {
        self.expect(Request::Commit, |r| match r {
            Response::TxnCommitted(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Rolls back the connection's open transaction, discarding every
    /// statement since [`Client::begin`].
    pub fn rollback(&mut self) -> Result<TxnReply, ClientError> {
        self.expect(Request::Rollback, |r| match r {
            Response::TxnRolledBack(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Forces a WAL checkpoint.
    pub fn checkpoint(&mut self) -> Result<CheckpointReply, ClientError> {
        self.expect(Request::Checkpoint, |r| match r {
            Response::Checkpointed(x) => Ok(x),
            other => Err(other),
        })
    }

    /// Requests graceful shutdown (the server drains, flushes, exits).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(Request::Shutdown, |r| match r {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }
}

//! Protocol robustness: a hostile or half-dead peer must produce typed
//! errors or clean connection closes — never a panic, never a wedged
//! accept loop.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use winslett::db::{DbError, DbOptions, MemStorage, Op, UpdateDump, WalOptions};
use winslett_core::wal::crc32;
use winslett_serve::protocol::{recv, write_frame};
use winslett_serve::{Client, ClientError, ErrorKindWire, Response, Server, ServerOptions};

struct Running {
    handle: JoinHandle<Result<MemStorage, DbError>>,
    addr: SocketAddr,
}

fn boot(options: ServerOptions) -> Running {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
        options,
    )
    .expect("bind");
    let addr = server.local_addr();
    Running {
        handle: std::thread::spawn(move || server.run()),
        addr,
    }
}

fn default_options() -> ServerOptions {
    ServerOptions {
        max_connections: 8,
        idle_timeout: Duration::from_secs(2),
        ..ServerOptions::default()
    }
}

/// The accept loop is alive iff a fresh client gets a Pong.
fn assert_serving(addr: SocketAddr) {
    let mut probe = Client::connect(addr).expect("probe connect");
    probe.ping().expect("probe ping");
}

fn shut_down(running: Running) {
    let mut c = Client::connect(running.addr).expect("shutdown connect");
    c.shutdown().expect("shutdown");
    running.handle.join().expect("join").expect("run");
}

#[test]
fn torn_header_closes_cleanly() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    raw.write_all(&[0x13, 0x37, 0x00]).expect("partial header");
    drop(raw); // disconnect mid-header
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn torn_payload_closes_cleanly() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    let payload = br#""Ping""#;
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(&payload[..4]); // cut inside the payload
    raw.write_all(&frame).expect("torn frame");
    drop(raw);
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    raw.write_all(&u32::MAX.to_le_bytes()).expect("len");
    raw.write_all(&0u32.to_le_bytes()).expect("crc");
    let resp: Response = recv(&mut raw).expect("typed error expected");
    match resp {
        Response::Error(e) => assert_eq!(e.kind, ErrorKindWire::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
    // The server closed the unsynchronizable stream.
    assert!(recv::<Response>(&mut raw).is_err());
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn bad_crc_gets_typed_error_then_close() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    let payload = br#""Ping""#;
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(crc32(payload) ^ 0xDEAD_BEEF).to_le_bytes());
    frame.extend_from_slice(payload);
    raw.write_all(&frame).expect("bad-crc frame");
    let resp: Response = recv(&mut raw).expect("typed error expected");
    match resp {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKindWire::BadRequest);
            assert!(e.message.contains("checksum"), "message: {}", e.message);
        }
        other => panic!("expected error, got {other:?}"),
    }
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn unknown_request_kind_keeps_connection_usable() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    // A perfectly framed request the server has never heard of.
    write_frame(&mut raw, br#"{"FlushAllCaches":["now"]}"#).expect("send");
    let resp: Response = recv(&mut raw).expect("typed error expected");
    match resp {
        Response::Error(e) => assert_eq!(e.kind, ErrorKindWire::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
    // The frame layer stayed synchronized: the same connection still works.
    write_frame(&mut raw, br#""Ping""#).expect("send ping");
    let resp: Response = recv(&mut raw).expect("pong");
    assert_eq!(resp, Response::Pong);
    shut_down(running);
}

/// `Apply` is the log's form of an `Execute`, and its parse admits
/// GUA's predicate constants: a client sending it gets a typed
/// `BadRequest`, inside a transaction too, and nothing is journaled.
#[test]
fn wire_apply_is_refused_as_a_bad_request() {
    let running = boot(default_options());
    let mut c = Client::connect(running.addr).expect("connect");
    c.declare_relation("R", 1).expect("declare");
    let mut raw = TcpStream::connect(running.addr).expect("connect raw");
    write_frame(&mut raw, br#"{"Apply":{"Insert":["R(1)","T"]}}"#).expect("send");
    match recv::<Response>(&mut raw).expect("typed error expected") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKindWire::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
    let apply = || Op::Apply(UpdateDump::Insert("__p0_R_1_".into(), "T".into()));
    let refused = |r: Result<_, ClientError>| match r {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    };
    refused(c.write(apply()));
    c.begin().expect("begin");
    refused(c.write(apply()));
    c.commit().expect("commit");
    let stats = c.stats().expect("stats");
    assert_eq!((stats.next_lsn, stats.updates), (3, 1), "{stats:?}");
    drop((raw, c));
    shut_down(running);
}

#[test]
fn garbage_json_keeps_connection_usable() {
    let running = boot(default_options());
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    write_frame(&mut raw, b"}}}not json at all{{{").expect("send");
    let resp: Response = recv(&mut raw).expect("typed error expected");
    assert!(matches!(resp, Response::Error(ref e) if e.kind == ErrorKindWire::BadRequest));
    write_frame(&mut raw, br#""Ping""#).expect("send ping");
    assert_eq!(recv::<Response>(&mut raw).expect("pong"), Response::Pong);
    shut_down(running);
}

#[test]
fn admission_cap_rejects_with_typed_busy() {
    let running = boot(ServerOptions {
        max_connections: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerOptions::default()
    });
    let mut first = Client::connect(running.addr).expect("first");
    first.ping().expect("first ping");
    // The second connection is over the cap: typed Busy, then close.
    let mut second = Client::connect(running.addr).expect("second connect");
    match second.ping() {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(second);
    // Shutdown through the admitted connection.
    first.shutdown().expect("shutdown");
    running.handle.join().expect("join").expect("run");
}

#[test]
fn idle_connections_are_reaped() {
    let running = boot(ServerOptions {
        max_connections: 8,
        idle_timeout: Duration::from_millis(150),
        ..ServerOptions::default()
    });
    let mut lazy = Client::connect(running.addr).expect("connect");
    lazy.ping().expect("ping");
    std::thread::sleep(Duration::from_millis(500));
    // The server hung up on us while we slept.
    assert!(lazy.ping().is_err(), "idle connection should be closed");
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn slow_loris_dribbler_is_reaped_and_frees_its_slot() {
    // max_connections: 1 makes the follow-up probe a proof that the
    // reaped connection's admission slot was released, not leaked.
    let running = boot(ServerOptions {
        max_connections: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServerOptions::default()
    });
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    // A perfectly valid Ping frame — dribbled one byte per write, too
    // slowly to ever complete before the idle deadline.
    let payload = br#""Ping""#;
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    for b in frame {
        if raw.write_all(&[b]).is_err() {
            break; // the server already hung up on us
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    // The reaper killed the stalled connection without an answer.
    assert!(recv::<Response>(&mut raw).is_err(), "dribbler must be cut");
    drop(raw);
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn mid_length_prefix_stall_is_reaped_and_frees_its_slot() {
    let running = boot(ServerOptions {
        max_connections: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServerOptions::default()
    });
    let mut raw = TcpStream::connect(running.addr).expect("connect");
    // Two bytes of the length prefix, then silence.
    raw.write_all(&[0x06, 0x00]).expect("partial length");
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        recv::<Response>(&mut raw).is_err(),
        "stalled peer must be cut"
    );
    drop(raw);
    // The slot is free again (cap is 1) and the loop is not wedged.
    assert_serving(running.addr);
    shut_down(running);
}

#[test]
fn writes_during_drain_are_refused_typed() {
    let running = boot(default_options());
    let mut setup = Client::connect(running.addr).expect("connect");
    setup.declare_relation("R", 1).expect("declare");
    let mut bystander = Client::connect(running.addr).expect("bystander");
    bystander.ping().expect("ping");
    setup.shutdown().expect("shutdown");
    // The drain waits for the bystander; its write must be refused, not
    // hung and not silently dropped.
    match bystander.execute("INSERT R(1) WHERE T") {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::ShuttingDown),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    drop(bystander);
    running.handle.join().expect("join").expect("run");
}

//! Transport paths that steady request/response traffic never takes: a
//! reply the socket cannot take at once (short writes finished by the
//! I/O thread), a client that stops reading, a client that hangs up
//! while its request is still being computed, and the drain deadline
//! cutting off a client whose request is unfinished.

use depcase::prelude::*;
use depcase_service::protocol::Json;
use depcase_service::{Client, Engine, FaultPlan, Server, ServerConfig};
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A goal over one conjunctive strategy with `legs` evidence leaves, so
/// an `eval` answer runs to several kilobytes.
fn wide_case(legs: usize) -> Case {
    let mut case = Case::new("wide argument");
    let g = case.add_goal("G", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S", "diverse legs", Combination::AllOf).unwrap();
    case.support(g, s).unwrap();
    for i in 0..legs {
        let confidence = 0.9 + i as f64 / (legs as f64 * 20.0);
        let e = case.add_evidence(format!("E{i}"), format!("leg {i}"), confidence).unwrap();
        case.support(s, e).unwrap();
    }
    case
}

fn load_line(name: &str, case: &Case) -> String {
    let body = Value::Object(vec![
        ("op".to_string(), Value::Str("load".to_string())),
        ("name".to_string(), Value::Str(name.to_string())),
        ("case".to_string(), case.to_value()),
    ]);
    serde_json::to_string(&Json(body)).unwrap()
}

/// A v2 `batch` of sixteen `eval`s of `wide`, tagged with `id`.
fn batch_line(id: usize) -> String {
    let items = vec![r#"{"op":"eval","name":"wide"}"#; 16].join(",");
    format!(r#"{{"id":{id},"v":2,"op":"batch","items":[{items}]}}"#)
}

fn id_of(line: &str) -> Value {
    let Json(v) = serde_json::from_str::<Json>(line).unwrap();
    v.get("id").cloned().unwrap_or(Value::Null)
}

/// A server with `wide` loaded.
fn serve_wide(config: ServerConfig) -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let loaded = client.round_trip(&load_line("wide", &wide_case(60))).unwrap();
    assert!(loaded.contains(r#""ok":true"#), "{loaded}");
    (engine, server)
}

/// Sends `lines` on a thread of its own, so a client can pipeline more
/// than the socket buffers hold without reading first.
fn send_in_background(stream: &TcpStream, lines: &[String]) -> std::thread::JoinHandle<()> {
    let mut writer = stream.try_clone().unwrap();
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::thread::spawn(move || {
        let _ = writer.write_all(burst.as_bytes());
    })
}

/// The `batch` requests `engine` has handled so far.
fn batches_handled(engine: &Engine) -> u64 {
    let stats = engine.stats_value();
    let batch = stats.get("ops").and_then(|ops| ops.get("batch")).cloned();
    batch.and_then(|b| b.get("requests").and_then(Value::as_u64)).unwrap_or(0)
}

/// One client pipelines `asked` bytes of answers, far past what the
/// kernel buffers plus the 4 MiB unsent bound hold, and reads nothing
/// until every batch is computed and `meanwhile` has run. Returns what
/// it then finds waiting before the end of the stream: what the kernel
/// had buffered when the server disconnected it.
fn stalled_client_receives(
    engine: &Engine,
    addr: SocketAddr,
    answer_len: usize,
    asked: usize,
    meanwhile: impl FnOnce(),
) -> usize {
    let count = asked / answer_len;
    let lines: Vec<String> = (1..=count).map(batch_line).collect();
    let before = batches_handled(engine);
    let stalled = TcpStream::connect(addr).unwrap();
    let sender = send_in_background(&stalled, &lines);
    meanwhile();
    let deadline = Instant::now() + Duration::from_secs(60);
    while batches_handled(engine) < before + count as u64 {
        assert!(Instant::now() < deadline, "the pipelined batches were never all handled");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(200));
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut received = 0usize;
    let mut chunk = vec![0u8; 64 << 10];
    loop {
        match (&stalled).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => received += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stalled client was never disconnected: {e}"),
        }
    }
    sender.join().unwrap();
    received
}

/// One connection pipelines more batch answers than the kernel buffers
/// hold and reads them on a throttled reader, so the workers' writes
/// come up short and the rest goes out on `EPOLLOUT` edges. Every answer
/// arrives, in request order, byte-identical to the same line sent alone.
#[test]
fn short_writes_deliver_every_pipelined_answer_in_order_and_intact() {
    let (engine, server) = serve_wide(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.local_addr();
    let mut solo = Client::connect(addr).unwrap();
    let probe = solo.round_trip(&batch_line(0)).unwrap();
    assert!(probe.contains(r#""items":"#), "{probe}");

    // 2 MiB past what the kernel buffers for a reader that does not
    // read: enough for short writes, and under the 4 MiB unsent bound.
    let buffered = stalled_client_receives(&engine, addr, probe.len(), 24 << 20, || {});
    let count = (buffered + (2 << 20)) / probe.len();
    let lines: Vec<String> = (1..=count).map(batch_line).collect();
    let expected: Vec<String> = lines.iter().map(|l| solo.round_trip(l).unwrap()).collect();

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let sender = send_in_background(&stream, &lines);
    // Let the workers run into a full socket before anything is read.
    std::thread::sleep(Duration::from_millis(300));
    let mut throttled = BufReader::with_capacity(8 << 10, &stream);
    for (i, want) in expected.iter().enumerate() {
        let mut got = String::new();
        while !got.ends_with('\n') {
            let chunk = throttled.fill_buf().unwrap();
            assert!(!chunk.is_empty(), "the stream ended after {i} of {count} answers");
            let take = chunk.iter().position(|&b| b == b'\n').map_or(chunk.len(), |at| at + 1);
            got.push_str(std::str::from_utf8(&chunk[..take]).unwrap());
            throttled.consume(take);
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(got.trim_end(), want, "answer {i} differs from the line sent alone");
    }
    sender.join().unwrap();
    server.shutdown();
}

/// A client that pipelines past the kernel buffers plus the 4 MiB
/// unsent bound and never reads is disconnected, while a second client
/// is served meanwhile.
#[test]
fn a_client_that_stops_reading_is_disconnected_and_others_are_served() {
    let (engine, server) = serve_wide(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.local_addr();
    let answer_len = Client::connect(addr).unwrap().round_trip(&batch_line(0)).unwrap().len();
    let mut other = Client::connect(addr).unwrap();
    let asked = 24 << 20;
    let received = stalled_client_receives(&engine, addr, answer_len, asked, || {
        let served = other.round_trip(r#"{"id":"other","op":"eval","name":"wide"}"#).unwrap();
        assert!(served.contains(r#""ok":true"#), "{served}");
    });
    assert!(
        received < asked / 2,
        "{received} of {asked} bytes reached a client that stopped reading"
    );
    let again = other.round_trip(r#"{"id":"again","op":"eval","name":"wide"}"#).unwrap();
    assert!(again.contains(r#""ok":true"#), "{again}");
    server.shutdown();
}

/// A client hangs up, unread answer and all, while a worker is still
/// computing its second request. A connection opened meanwhile (likely
/// on the same fd number) gets exactly its own answers.
#[test]
fn a_hang_up_mid_request_leaks_nothing_into_the_next_connection() {
    let config = ServerConfig {
        workers: 2,
        faults: Some(Arc::new(FaultPlan::parse("seed=9,delay=1.0,delay_ms=300").unwrap())),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(Engine::new(8)), ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();

    let gone = TcpStream::connect(addr).unwrap();
    (&gone).write_all(b"{\"id\":\"gone-1\",\"op\":\"stats\"}\n").unwrap();
    // Wait for the first answer without consuming it, then leave a
    // second request with a worker and hang up. The unread answer makes
    // the close a reset, so the server drops the connection at once.
    gone.peek(&mut [0u8; 1]).unwrap();
    (&gone).write_all(b"{\"id\":\"gone-2\",\"op\":\"stats\"}\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(gone);

    let fresh = TcpStream::connect(addr).unwrap();
    (&fresh)
        .write_all(b"{\"id\":\"mine-1\",\"op\":\"stats\"}\n{\"id\":\"mine-2\",\"op\":\"stats\"}\n")
        .unwrap();
    fresh.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(&fresh);
    for want in ["mine-1", "mine-2"] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(id_of(&line), Value::Str(want.to_string()), "{line}");
    }
    // The hung-up request finished long ago; nothing more may arrive.
    fresh.set_read_timeout(Some(Duration::from_millis(700))).unwrap();
    let mut stray = String::new();
    match reader.read_line(&mut stray) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a stray answer reached the new connection: {other:?} {stray:?}"),
    }
    server.shutdown();
}

/// Past `drain_deadline`, a client still waiting on an unfinished
/// request reads the end of the stream, not a late answer.
#[test]
fn the_drain_deadline_cuts_off_a_client_waiting_on_an_unfinished_request() {
    let config = ServerConfig {
        workers: 1,
        drain_deadline: Duration::from_millis(200),
        faults: Some(Arc::new(FaultPlan::parse("seed=4,delay=1.0,delay_ms=1500").unwrap())),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(Engine::new(8)), ("127.0.0.1", 0), config).unwrap();
    let mut waiting = TcpStream::connect(server.local_addr()).unwrap();
    waiting.write_all(b"{\"id\":1,\"op\":\"stats\"}\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let stopping = std::thread::spawn(move || server.shutdown());
    waiting.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut late = Vec::new();
    waiting.read_to_end(&mut late).unwrap();
    let cut_off = started.elapsed();
    assert!(late.is_empty(), "a late answer arrived: {}", String::from_utf8_lossy(&late));
    assert!(
        cut_off < Duration::from_millis(1000),
        "the client must be cut off at the drain deadline, not when the request ends ({cut_off:?})"
    );
    stopping.join().unwrap();
}

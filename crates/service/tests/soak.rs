//! Readiness soak: a thousand mostly-idle connections on the epoll
//! transport must cost no per-connection threads and answer trickled
//! requests bit-identically to a lone client.

use depcase::prelude::*;
use depcase_service::{Client, Engine, Server, ServerConfig};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn reactor_case() -> Case {
    let mut case = Case::new("reactor protection");
    let g = case.add_goal("G1", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S1", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", 0.95).unwrap();
    let e2 = case.add_evidence("E2", "static analysis", 0.90).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case
}

fn load_line(name: &str, case: &Case) -> String {
    let body = serde::Value::Object(vec![
        ("op".to_string(), serde::Value::Str("load".to_string())),
        ("name".to_string(), serde::Value::Str(name.to_string())),
        ("case".to_string(), case.to_value()),
    ]);
    serde_json::to_string(&depcase_service::protocol::Json(body)).unwrap()
}

/// OS threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("/proc/self/status lists Threads:")
        .trim()
        .parse()
        .unwrap()
}

const CONNS: usize = 1000;
const EVAL: &str = "{\"op\":\"eval\",\"name\":\"reactor\"}\n";

/// One test, two phases in sequence (the thread counting makes the
/// phases order-sensitive, so they share a body instead of racing as
/// separate tests):
///
/// 1. open 1k connections and hold them idle — the process thread
///    count must not move with the connection count;
/// 2. trickle requests through a spread of those connections — every
///    answer must be byte-identical to a lone client's.
#[test]
fn a_thousand_idle_connections_cost_no_threads_and_answer_bit_identically() {
    let engine = Arc::new(Engine::new(8));
    let config =
        ServerConfig { workers: 2, max_connections: CONNS + 16, ..ServerConfig::default() };
    let server = Server::start(engine, ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();

    let mut seed = Client::connect(addr).unwrap();
    let loaded = seed.round_trip(&load_line("reactor", &reactor_case())).unwrap();
    assert!(loaded.contains("\"ok\":true"), "{loaded}");
    let expected = seed.round_trip(EVAL.trim_end()).unwrap();
    assert!(expected.contains("\"root_confidence\""), "{expected}");

    // Phase 1: a wall of idle connections.
    let before = thread_count();
    let conns: Vec<TcpStream> = (0..CONNS)
        .map(|i| {
            let stream =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("connection {i} refused: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            stream
        })
        .collect();
    let after = thread_count();
    assert!(
        after <= before + 2,
        "{CONNS} idle connections must not grow the thread pool: {before} -> {after} threads"
    );

    // Phase 2: trickle a request through every 50th connection; each
    // answer must be the exact bytes the lone client saw.
    for (i, stream) in conns.iter().enumerate().step_by(50) {
        let mut write_half = stream.try_clone().unwrap();
        write_half.write_all(EVAL.as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), expected, "connection {i} diverged from the lone client");
    }
    let after_trickle = thread_count();
    assert!(
        after_trickle <= before + 2,
        "trickled requests must not grow the thread pool: {before} -> {after_trickle} threads"
    );

    drop(conns);
    server.shutdown();
}

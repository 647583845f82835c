//! Chaos tests: deterministic fault injection against a live server.
//!
//! Every test here runs with a fixed [`FaultPlan`] seed, so the faults
//! it provokes are reproducible — the assertions are exact invariants
//! (ids echoed, counters consistent, answers bit-identical to the
//! library), not "usually survives". The injected panics unwind
//! through real worker threads, so `cargo test` output for this file
//! legitimately contains panic backtraces from *passing* tests.

use depcase::prelude::*;
use depcase_service::protocol::Json;
use depcase_service::{
    Client, Engine, ErrorCode, FaultPlan, RetryPolicy, RetryingClient, Server, ServerConfig,
};
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn reactor_case() -> Case {
    let mut case = Case::new("reactor protection");
    let g = case.add_goal("G1", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S1", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", 0.95).unwrap();
    let e2 = case.add_evidence("E2", "static analysis", 0.90).unwrap();
    let a = case.add_assumption("A1", "environment stable", 0.99).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case.support(g, a).unwrap();
    case
}

fn interlock_case() -> Case {
    let mut case = Case::new("interlock");
    let g = case.add_goal("G1", "pfd < 1e-2").unwrap();
    let s = case.add_strategy("S1", "conjunctive decomposition", Combination::AllOf).unwrap();
    let e1 = case.add_evidence("E1", "proof of absence of runtime errors", 0.97).unwrap();
    let e2 = case.add_evidence("E2", "field history", 0.88).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
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

fn parse_any(line: &str) -> Value {
    let Json(v) = serde_json::from_str::<Json>(line).unwrap();
    v
}

fn parse_ok(line: &str) -> Value {
    let v = parse_any(line);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "request failed: {line}");
    v.get("result").cloned().unwrap()
}

fn error_code(line: &str) -> String {
    let v = parse_any(line);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "expected an error: {line}");
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("error without code: {line}"))
        .to_string()
}

fn faulty_config(workers: usize, spec: &str) -> ServerConfig {
    ServerConfig {
        workers,
        faults: Some(Arc::new(FaultPlan::parse(spec).unwrap())),
        ..ServerConfig::default()
    }
}

/// Polls `predicate` for up to two seconds; panics with `what` on
/// timeout. Counter updates race the response that provoked them
/// (worker retirement happens after the reply is sent), so tests wait
/// instead of asserting instantly.
fn eventually(what: &str, predicate: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if predicate() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Acceptance: a worker panic mid-request answers `internal_error`
/// echoing the original id, the worker is respawned (and counted), and
/// the same connection keeps working afterwards.
#[test]
fn injected_panic_answers_internal_error_and_the_connection_survives() {
    // panic=1.0,panic_cap=1: exactly the first request panics.
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        faulty_config(2, "seed=1,panic=1.0,panic_cap=1"),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let crashed = client.round_trip(r#"{"id":"victim-7","op":"stats"}"#).unwrap();
    let v = parse_any(&crashed);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("id").and_then(Value::as_str),
        Some("victim-7"),
        "internal_error must echo the id of the request that panicked: {crashed}"
    );
    assert_eq!(error_code(&crashed), "internal_error");

    // Same connection, next request: a healthy worker answers, and the
    // answer is bit-identical to the library.
    parse_ok(&client.round_trip(&load_line("r", &reactor_case())).unwrap());
    let result = parse_ok(&client.round_trip(r#"{"op":"eval","name":"r"}"#).unwrap());
    let direct = reactor_case().propagate().unwrap().top().unwrap().independent;
    assert_eq!(
        result.get("root_confidence").and_then(Value::as_f64).unwrap().to_bits(),
        direct.to_bits()
    );

    eventually("panic + respawn counters", || {
        let r = engine.robustness();
        r.panics == 1 && r.respawns == 1
    });

    // The stats op surfaces the same robustness counters on the wire.
    let stats = parse_ok(&client.round_trip(r#"{"op":"stats"}"#).unwrap());
    let robustness = stats.get("robustness").expect("stats must carry a robustness block");
    assert_eq!(robustness.get("panics").and_then(Value::as_u64), Some(1));
    assert_eq!(robustness.get("respawns").and_then(Value::as_u64), Some(1));

    server.shutdown();
}

/// Acceptance: with the queue full and every worker stalled, the next
/// request is shed with a fast `overloaded` + `retry_after_ms` rather
/// than queued without bound — and a retrying client eventually gets
/// through.
#[test]
fn overload_sheds_fast_and_a_retrying_client_eventually_succeeds() {
    // One worker, queue of two, every request delayed 300 ms: three
    // in-flight requests saturate the pool and the queue.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        retry_after_ms: 25,
        faults: Some(Arc::new(FaultPlan::parse("seed=3,delay=1.0,delay_ms=300").unwrap())),
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();

    // Stall the worker and fill the queue from separate connections
    // (responses are per-connection FIFO, so a shared connection would
    // delay the rejection we want to time). The first staller goes in
    // alone so the worker claims it before the queue fillers arrive —
    // otherwise one of them could race into the rejection slot.
    let staller = |i: usize| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.round_trip(&format!(r#"{{"id":{i},"op":"stats"}}"#)).unwrap()
        })
    };
    let mut stallers = vec![staller(0)];
    std::thread::sleep(Duration::from_millis(100));
    stallers.push(staller(1));
    stallers.push(staller(2));
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let mut shed = Client::connect(addr).unwrap();
    let rejection = shed.round_trip(r#"{"id":"q+1","op":"stats"}"#).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(error_code(&rejection), "overloaded");
    let v = parse_any(&rejection);
    assert_eq!(v.get("id").and_then(Value::as_str), Some("q+1"), "{rejection}");
    assert_eq!(
        v.get("error").and_then(|e| e.get("retry_after_ms")).and_then(Value::as_u64),
        Some(25),
        "{rejection}"
    );
    assert!(
        elapsed < Duration::from_millis(250),
        "overload rejection must be fast, took {elapsed:?}"
    );

    // A retrying client pointed at the same overloaded server backs
    // off, honors retry_after_ms, and eventually succeeds.
    let policy = RetryPolicy { max_attempts: 40, base_ms: 10, cap_ms: 200, seed: 7 };
    let mut retrying = RetryingClient::connect(addr, policy).unwrap();
    let response = retrying.round_trip(r#"{"op":"stats"}"#).unwrap();
    parse_ok(&response);
    assert!(retrying.retries() > 0, "the first attempts must have been shed");
    assert!(retrying.retried_codes().iter().any(|c| c == "overloaded"));

    for staller in stallers {
        parse_ok(&staller.join().unwrap());
    }
    assert!(engine.robustness().overloaded >= 1);
    server.shutdown();
}

/// Slow-client defense: an oversized request line answers
/// `request_too_large`, the connection survives, and shed lines never
/// touch the latency histograms.
#[test]
fn oversized_lines_are_rejected_without_killing_the_connection() {
    let config = ServerConfig { workers: 2, max_line_bytes: 1024, ..ServerConfig::default() };
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    parse_ok(&client.round_trip(r#"{"op":"stats"}"#).unwrap());
    let handled_before =
        histogram_total(&parse_ok(&client.round_trip(r#"{"op":"stats"}"#).unwrap()));

    let huge = format!(r#"{{"op":"stats","pad":"{}"}}"#, "x".repeat(4096));
    let rejection = client.round_trip(&huge).unwrap();
    assert_eq!(error_code(&rejection), "request_too_large");

    // Same connection still answers, and the rejected line left no
    // trace in the histograms (it was never a request).
    let stats = parse_ok(&client.round_trip(r#"{"op":"stats"}"#).unwrap());
    let handled_after = histogram_total(&stats);
    assert_eq!(
        handled_after,
        handled_before + 1,
        "only the follow-up stats call may appear in the histograms"
    );
    assert_eq!(
        stats.get("robustness").and_then(|r| r.get("request_too_large")).and_then(Value::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// Sums the per-op histogram request counts out of a stats result.
fn histogram_total(stats: &Value) -> u64 {
    let Some(Value::Object(ops)) = stats.get("ops").cloned() else { return 0 };
    ops.iter().filter_map(|(_, op)| op.get("requests").and_then(Value::as_u64)).sum()
}

/// Deadlines: a request whose budget expires answers
/// `deadline_exceeded` and bumps the counter; a roomy budget on the
/// same connection succeeds. The config-level default applies to
/// requests that carry no `deadline_ms` of their own.
#[test]
fn deadlines_expire_per_request_and_by_config_default() {
    let config = ServerConfig {
        workers: 2,
        default_deadline_ms: Some(10),
        faults: Some(Arc::new(FaultPlan::parse("seed=5,delay=1.0,delay_ms=60").unwrap())),
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Inherits the 10 ms default; the injected 60 ms delay devours it.
    let expired = client.round_trip(r#"{"id":1,"op":"stats"}"#).unwrap();
    assert_eq!(error_code(&expired), "deadline_exceeded");

    // An explicit roomy deadline overrides the default and survives
    // the same injected delay.
    let roomy = client.round_trip(r#"{"id":2,"op":"stats","deadline_ms":5000}"#).unwrap();
    parse_ok(&roomy);

    // An explicit tight deadline expires even though the default would
    // not have (per-request beats config).
    let tight = client.round_trip(r#"{"id":3,"op":"stats","deadline_ms":1}"#).unwrap();
    assert_eq!(error_code(&tight), "deadline_exceeded");

    eventually("deadline counter", || engine.robustness().deadline_exceeded == 2);
    server.shutdown();
}

/// Deadlines interrupt Monte-Carlo sampling between chunks: an `mc`
/// whose sample budget would run for minutes answers
/// `deadline_exceeded` within one chunk of its budget instead of
/// pinning a worker for the whole run — and a same-parameter run with
/// a roomy budget still answers bit-identically to the library.
#[test]
fn mc_deadline_interrupts_sampling_within_one_chunk() {
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    parse_ok(&client.round_trip(&load_line("reactor", &reactor_case())).unwrap());

    // A sample count that would take far longer than the 50 ms budget.
    let started = Instant::now();
    let expired = client
        .round_trip(
            r#"{"id":1,"op":"mc","name":"reactor","samples":500000000,"seed":3,"threads":2,"deadline_ms":50}"#,
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(error_code(&expired), "deadline_exceeded");
    assert!(
        elapsed < Duration::from_secs(30),
        "mc must stop at a chunk boundary, not run its full budget; took {elapsed:?}"
    );
    eventually("deadline counter", || engine.robustness().deadline_exceeded == 1);

    // The worker that refused the long run is free for real work, and a
    // deadline that does not expire never changes the bits.
    let direct = MonteCarlo::new(2_000)
        .seed(11)
        .threads(2)
        .run(&reactor_case())
        .unwrap()
        .estimate(reactor_case().node_by_name("G1").unwrap())
        .unwrap();
    let ok = parse_ok(
        &client
            .round_trip(
                r#"{"id":2,"op":"mc","name":"reactor","samples":2000,"seed":11,"threads":2,"deadline_ms":60000}"#,
            )
            .unwrap(),
    );
    let estimate = ok
        .get("estimates")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|v| v.get("name").and_then(Value::as_str) == Some("G1"))
        .and_then(|v| v.get("estimate"))
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(estimate.to_bits(), direct.to_bits());
    server.shutdown();
}

/// Backpressure on connections: over the cap, a connection gets one
/// `overloaded` line and is closed; once an existing connection goes
/// away, new ones are admitted again.
#[test]
fn connection_cap_sheds_excess_connections_then_recovers() {
    let config = ServerConfig { workers: 1, max_connections: 2, ..ServerConfig::default() };
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    parse_ok(&first.round_trip(r#"{"op":"stats"}"#).unwrap());
    parse_ok(&second.round_trip(r#"{"op":"stats"}"#).unwrap());

    // The third connection is told to back off; its next read sees the
    // server-side close (the shed line has no id to echo).
    let mut third = Client::connect(addr).unwrap();
    let shed = third.round_trip(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(error_code(&shed), "overloaded");
    assert!(third.round_trip(r#"{"op":"stats"}"#).is_err(), "shed connection must be closed");

    drop(first);
    eventually("freed connection slot", || {
        Client::connect(addr).is_ok_and(|mut c| {
            c.round_trip(r#"{"op":"stats"}"#)
                .is_ok_and(|line| parse_any(&line).get("ok").and_then(Value::as_bool) == Some(true))
        })
    });
    server.shutdown();
}

/// A final request line without a trailing newline is still a request:
/// a client that sends one and half-closes gets its answer before the
/// server closes the connection.
#[test]
fn final_unterminated_line_is_answered_at_half_close() {
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let server = Server::start(Arc::new(Engine::new(8)), ("127.0.0.1", 0), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(br#"{"id":1,"op":"stats"}"#).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one answer before the close: {answer:?}");
    assert_eq!(parse_any(lines[0]).get("id").and_then(Value::as_u64), Some(1), "{answer}");
    parse_ok(lines[0]);
    server.shutdown();
}

/// Shutdown spends one drain window, not two: with 60 requests queued
/// behind two workers that each take 200 ms, the queue cannot empty
/// inside the 1 s `drain_deadline`, so `Server::shutdown` must give up
/// after that window plus the requests already executing.
#[test]
fn shutdown_gives_up_after_one_drain_window() {
    let config = ServerConfig {
        workers: 2,
        drain_deadline: Duration::from_secs(1),
        faults: Some(Arc::new(FaultPlan::parse("seed=1,delay=1.0,delay_ms=200").unwrap())),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(Engine::new(8)), ("127.0.0.1", 0), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let burst: String = (0..60).map(|i| format!("{{\"id\":{i},\"op\":\"stats\"}}\n")).collect();
    stream.write_all(burst.as_bytes()).unwrap();
    // The first answer proves the burst was framed and queued.
    let mut first = String::new();
    BufReader::new(&stream).read_line(&mut first).unwrap();
    parse_ok(&first);

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(1700),
        "shutdown must end within one drain window plus in-flight work, took {elapsed:?}"
    );
}

/// `read_timeout` is the idle reaper: a connection that sends nothing
/// is closed once it has been idle that long, and the reap is counted.
#[test]
fn idle_connections_are_reaped_after_read_timeout() {
    let config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(8));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    let mut byte = [0u8; 1];
    let read = idle.read(&mut byte).expect("an idle connection must be reaped within 2 s");
    assert_eq!(read, 0, "a reaped connection reads EOF");

    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = parse_ok(&client.round_trip(r#"{"op":"stats"}"#).unwrap());
    let reaped = stats
        .get("robustness")
        .and_then(|r| r.get("connections_reaped"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(reaped >= 1, "the reap must be counted: {reaped}");
    server.shutdown();
}

/// The headline chaos run: four retrying clients hammer a server that
/// randomly panics workers, delays requests, and drops connections at
/// 5% each from a fixed seed. Invariants:
///
/// - nothing wedges (every client thread finishes and drain is clean),
/// - every surviving answer is bit-identical to the direct library call,
/// - every error code seen is from the documented set,
/// - the robustness counters agree with what the plan actually injected.
#[test]
fn chaos_hammer_survives_with_bit_identical_answers_and_consistent_counters() {
    let plan =
        Arc::new(FaultPlan::parse("seed=42,panic=0.05,delay=0.05,delay_ms=5,drop=0.05").unwrap());
    let config = ServerConfig {
        workers: 4,
        queue_capacity: 64,
        faults: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(16));
    let server = Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).unwrap();
    let addr = server.local_addr();

    let policy = RetryPolicy { max_attempts: 20, base_ms: 2, cap_ms: 50, seed: 1 };
    let mut setup = RetryingClient::connect(addr, policy).unwrap();
    parse_ok(&setup.round_trip(&load_line("reactor", &reactor_case())).unwrap());
    parse_ok(&setup.round_trip(&load_line("interlock", &interlock_case())).unwrap());

    // Ground truth, computed in-process before the storm.
    let reactor = reactor_case();
    let reactor_root = reactor.propagate().unwrap().top().unwrap().independent;
    let interlock = interlock_case();
    let interlock_root = interlock.propagate().unwrap().top().unwrap().independent;
    let reactor_mc = MonteCarlo::new(2_000)
        .seed(11)
        .threads(2)
        .run(&reactor)
        .unwrap()
        .estimate(reactor.node_by_name("G1").unwrap())
        .unwrap();

    let mut handles = Vec::new();
    for client_idx in 0..4u64 {
        let handle = std::thread::spawn(move || {
            let policy =
                RetryPolicy { max_attempts: 20, base_ms: 2, cap_ms: 50, seed: 100 + client_idx };
            let mut client = RetryingClient::connect(addr, policy).unwrap();
            for round in 0..30 {
                let line = match round % 3 {
                    0 => r#"{"op":"eval","name":"reactor"}"#,
                    1 => r#"{"op":"eval","name":"interlock"}"#,
                    _ => r#"{"op":"mc","name":"reactor","samples":2000,"seed":11,"threads":2}"#,
                };
                let response = client
                    .round_trip(line)
                    .unwrap_or_else(|e| panic!("client {client_idx} round {round}: {e}"));
                // Every answer that survived the chaos must be
                // bit-identical to the direct library call.
                let result = parse_ok(&response);
                let got = match round % 3 {
                    0 | 1 => result.get("root_confidence").and_then(Value::as_f64).unwrap(),
                    _ => result
                        .get("estimates")
                        .and_then(Value::as_array)
                        .unwrap()
                        .iter()
                        .find(|v| v.get("name").and_then(Value::as_str) == Some("G1"))
                        .and_then(|v| v.get("estimate"))
                        .and_then(Value::as_f64)
                        .unwrap(),
                };
                let expected = match round % 3 {
                    0 => reactor_root,
                    1 => interlock_root,
                    _ => reactor_mc,
                };
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "client {client_idx} round {round} answer drifted under chaos"
                );
            }
            // Return what this client retried on, plus its last state,
            // for the documented-code assertion below.
            client.retried_codes().to_vec()
        });
        handles.push(handle);
    }

    let mut retried: Vec<String> = Vec::new();
    for handle in handles {
        retried.extend(handle.join().expect("no client thread may wedge or fail"));
    }

    // Retries only ever happened for documented transient wire codes or
    // the client's own transport pseudo-codes.
    let documented: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
    for code in &retried {
        assert!(
            documented.contains(&code.as_str()) || code == "io" || code == "connection_closed",
            "undocumented error code seen under chaos: {code}"
        );
    }

    // Counter consistency: every injected panic was caught (none
    // escaped to kill the process) and every panicked worker was
    // replaced while the server was up.
    let injected = plan.injected();
    assert!(injected.panics >= 1, "seed 42 at 5% must inject at least one panic: {injected:?}");
    eventually("robustness counters to settle", || {
        let r = engine.robustness();
        r.panics == injected.panics && r.respawns == injected.panics
    });

    // Spot-check bit-identical answers after the storm on a clean
    // client (retrying, in case the tail of the fault stream fires).
    let mut check = RetryingClient::connect(addr, policy).unwrap();
    let result = parse_ok(&check.round_trip(r#"{"op":"eval","name":"reactor"}"#).unwrap());
    assert_eq!(
        result.get("root_confidence").and_then(Value::as_f64).unwrap().to_bits(),
        reactor_root.to_bits()
    );
    let result = parse_ok(&check.round_trip(r#"{"op":"eval","name":"interlock"}"#).unwrap());
    assert_eq!(
        result.get("root_confidence").and_then(Value::as_f64).unwrap().to_bits(),
        interlock_root.to_bits()
    );
    let result = parse_ok(
        &check
            .round_trip(r#"{"op":"mc","name":"reactor","samples":2000,"seed":11,"threads":2}"#)
            .unwrap(),
    );
    let estimate = result
        .get("estimates")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|v| v.get("name").and_then(Value::as_str) == Some("G1"))
        .and_then(|v| v.get("estimate"))
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(estimate.to_bits(), reactor_mc.to_bits());

    // Clean drain: shutdown joins every thread without wedging.
    server.shutdown();
}

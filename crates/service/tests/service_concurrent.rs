//! End-to-end test of the resident service: concurrent clients over
//! real TCP sockets, answers held bit-identical to direct library
//! calls, and the plan cache observable through the stats counters.

use depcase::prelude::*;
use depcase_service::protocol::Json;
use depcase_service::{Client, Engine, Server};
use serde::{Serialize, Value};
use std::sync::Arc;

fn reactor_case() -> Case {
    reactor_case_with_testing_confidence(0.95)
}

fn reactor_case_with_testing_confidence(confidence: f64) -> Case {
    let mut case = Case::new("reactor protection");
    let g = case.add_goal("G1", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S1", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", confidence).unwrap();
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

fn parse(line: &str) -> Value {
    let Json(v) = serde_json::from_str::<Json>(line).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "request failed: {line}");
    v.get("result").cloned().unwrap()
}

fn estimate_of(result: &Value, node: &str) -> f64 {
    result
        .get("estimates")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|v| v.get("name").and_then(Value::as_str) == Some(node))
        .and_then(|v| v.get("estimate"))
        .and_then(Value::as_f64)
        .unwrap()
}

#[test]
fn concurrent_clients_get_bit_identical_answers_and_cache_hits() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 3).unwrap();
    let addr = server.local_addr();

    // Load both cases up front from one client.
    let mut setup = Client::connect(addr).unwrap();
    parse(&setup.round_trip(&load_line("reactor", &reactor_case())).unwrap());
    parse(&setup.round_trip(&load_line("interlock", &interlock_case())).unwrap());

    // Direct library answers to compare against, computed before the
    // concurrent phase so nothing about ordering can leak in.
    let reactor = reactor_case();
    let reactor_root = reactor.propagate().unwrap().top().unwrap().independent;
    let reactor_mc = MonteCarlo::new(30_000)
        .seed(11)
        .threads(2)
        .run(&reactor)
        .unwrap()
        .estimate(reactor.node_by_name("G1").unwrap())
        .unwrap();
    let interlock = interlock_case();
    let interlock_root = interlock.propagate().unwrap().top().unwrap().independent;
    let interlock_mc = MonteCarlo::new(20_000)
        .seed(5)
        .threads(3)
        .run(&interlock)
        .unwrap()
        .estimate(interlock.node_by_name("G1").unwrap())
        .unwrap();

    // Four clients hammer the service concurrently, interleaving eval
    // and mc against both cases; every answer must be bit-exact.
    let mut handles = Vec::new();
    for client_idx in 0..4 {
        let handle = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for round in 0..3 {
                let result = parse(
                    &client
                        .round_trip(&format!(r#"{{"id":{round},"op":"eval","name":"reactor"}}"#))
                        .unwrap(),
                );
                let root = result.get("root_confidence").and_then(Value::as_f64).unwrap();
                assert_eq!(root.to_bits(), reactor_root.to_bits(), "client {client_idx}");

                let result =
                    parse(&client.round_trip(r#"{"op":"eval","name":"interlock"}"#).unwrap());
                let root = result.get("root_confidence").and_then(Value::as_f64).unwrap();
                assert_eq!(root.to_bits(), interlock_root.to_bits(), "client {client_idx}");

                let result = parse(
                    &client
                        .round_trip(
                            r#"{"op":"mc","name":"reactor","samples":30000,"seed":11,"threads":2}"#,
                        )
                        .unwrap(),
                );
                assert_eq!(
                    estimate_of(&result, "G1").to_bits(),
                    reactor_mc.to_bits(),
                    "client {client_idx} reactor mc"
                );

                let result = parse(
                    &client
                        .round_trip(
                            r#"{"op":"mc","name":"interlock","samples":20000,"seed":5,"threads":3}"#,
                        )
                        .unwrap(),
                );
                assert_eq!(
                    estimate_of(&result, "G1").to_bits(),
                    interlock_mc.to_bits(),
                    "client {client_idx} interlock mc"
                );
            }
        });
        handles.push(handle);
    }
    for handle in handles {
        handle.join().unwrap();
    }

    // The bands answer matches the paper's two-point construction.
    let result = parse(
        &setup
            .round_trip(r#"{"op":"bands","name":"reactor","pfd_bound":1e-3,"mode":"low_demand"}"#)
            .unwrap(),
    );
    let belief = TwoPoint::worst_case(1e-3, 1.0 - reactor_root).unwrap();
    let direct = SilAssessment::new(&belief, DemandMode::LowDemand).confidences();
    let bands = result.get("bands").and_then(Value::as_array).unwrap();
    for (row, expected) in bands.iter().zip(direct) {
        let got = row.get("at_least").and_then(Value::as_f64).unwrap();
        assert_eq!(got.to_bits(), expected.to_bits());
    }

    // Rank answers match the library too.
    let result = parse(&setup.round_trip(r#"{"op":"rank","name":"interlock"}"#).unwrap());
    let direct = depcase::assurance::birnbaum_importance(&interlock).unwrap();
    let rows = result.get("evidence").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), direct.len());
    for (row, li) in rows.iter().zip(&direct) {
        assert_eq!(row.get("name").and_then(Value::as_str), Some(li.name.as_str()));
        let b = row.get("birnbaum").and_then(Value::as_f64).unwrap();
        assert_eq!(b.to_bits(), li.birnbaum.to_bits());
    }

    // Cache behaviour: both cases were compiled once at load; every
    // subsequent eval/mc/bands/rank hit the cache.
    let counters = engine.cache_counters();
    assert_eq!(counters.misses, 0, "loads pre-warm the cache: {counters:?}");
    // 4 clients × 3 rounds × 4 cached ops + bands + rank = 50 hits.
    assert_eq!(counters.hits, 50, "{counters:?}");

    // The stats op agrees with the counters the engine exposes.
    let stats = parse(&setup.round_trip(r#"{"op":"stats"}"#).unwrap());
    let cache = stats.get("plan_cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(counters.hits));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(0));
    assert_eq!(cache.get("hit_rate").and_then(Value::as_f64), Some(1.0));
    let mc_stats = stats.get("ops").and_then(|o| o.get("mc")).unwrap();
    assert_eq!(mc_stats.get("requests").and_then(Value::as_u64), Some(24));

    server.shutdown();
}

#[test]
fn editing_a_case_misses_the_cache_while_reloading_unchanged_hits() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 2).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let load1 = parse(&client.round_trip(&load_line("c", &reactor_case())).unwrap());
    parse(&client.round_trip(r#"{"op":"eval","name":"c"}"#).unwrap());
    let after_first = engine.cache_counters();
    assert_eq!((after_first.hits, after_first.misses), (1, 0));

    // Reloading the identical case bumps the version but keeps the
    // content hash, so evaluation still hits.
    let load2 = parse(&client.round_trip(&load_line("c", &reactor_case())).unwrap());
    assert_eq!(load2.get("version").and_then(Value::as_u64), Some(2));
    assert_eq!(
        load1.get("hash").and_then(Value::as_str),
        load2.get("hash").and_then(Value::as_str)
    );
    parse(&client.round_trip(r#"{"op":"eval","name":"c"}"#).unwrap());
    assert_eq!(engine.cache_counters().misses, 0);

    // An edited confidence changes the hash: new plan, no false hit.
    let edited = reactor_case_with_testing_confidence(0.96);
    let load3 = parse(&client.round_trip(&load_line("c", &edited)).unwrap());
    assert_ne!(
        load2.get("hash").and_then(Value::as_str),
        load3.get("hash").and_then(Value::as_str)
    );
    let result = parse(&client.round_trip(r#"{"op":"eval","name":"c"}"#).unwrap());
    let root = result.get("root_confidence").and_then(Value::as_f64).unwrap();
    let direct = edited.propagate().unwrap().top().unwrap().independent;
    assert_eq!(root.to_bits(), direct.to_bits());

    server.shutdown();
}

#[test]
fn wire_shutdown_reports_final_stats_and_stops_the_server() {
    let engine = Arc::new(Engine::new(4));
    let server = Server::bind(engine, ("127.0.0.1", 0), 2).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    parse(&client.round_trip(&load_line("c", &interlock_case())).unwrap());
    let final_stats = parse(&client.round_trip(r#"{"op":"shutdown"}"#).unwrap());
    assert!(final_stats.get("plan_cache").is_some());
    assert!(server.is_shutting_down());
    server.shutdown();
}

#[test]
fn pipelined_lines_on_one_connection_answer_in_request_order() {
    // Four workers: the eval, bands and stats behind a slow mc finish
    // first, yet must wait their turn on the connection.
    let engine = Arc::new(Engine::new(8));
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 4).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    parse(&client.round_trip(&load_line("reactor", &reactor_case())).unwrap());
    let requests = [
        r#"{"id":1,"op":"mc","name":"reactor","samples":400000,"seed":5,"threads":1}"#,
        r#"{"id":2,"op":"eval","name":"reactor"}"#,
        r#"{"id":3,"v":2,"op":"bands","name":"reactor","pfd_bound":1e-3}"#,
        r#"{"id":4,"op":"stats"}"#,
    ];
    let alone: Vec<String> = requests.iter().map(|r| client.round_trip(r).unwrap()).collect();

    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    std::io::Write::write_all(&mut stream, format!("{}\n", requests.join("\n")).as_bytes())
        .unwrap();
    let mut reader = std::io::BufReader::new(stream);
    for (request, want) in requests.iter().zip(&alone) {
        let mut got = String::new();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        let got = got.trim_end();
        if request.contains("stats") {
            // Its counters moved since it ran alone; its place did not.
            assert!(got.starts_with(r#"{"id":4,"ok":true,"result":{"requests":"#), "{got}");
        } else {
            assert_eq!(got, want, "answer to {request}");
        }
    }
    server.shutdown();
}

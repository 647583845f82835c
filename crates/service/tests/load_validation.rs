//! A `load` whose leaf confidences fall outside `[0, 1]` — including a
//! `null`, which the JSON reader turns into NaN — or whose edges break a
//! rule `Case::support` enforces is refused at the door with `bad_case`
//! and leaves the registry untouched.

use depcase_service::protocol::{ProtocolVersion, Response};
use depcase_service::{Client, DurabilityConfig, Engine, FsyncPolicy, Request, Server};
use std::sync::Arc;

fn load_line(name: &str, confidence: &str) -> String {
    format!(
        r#"{{"id":1,"op":"load","name":"{name}","case":{{"schema":1,"title":"t","nodes":[{{"name":"G","statement":"claim","kind":"Goal"}},{{"name":"E","statement":"test","kind":{{"Evidence":{{"confidence":{confidence}}}}}}}],"children":[[1],[]]}}}}"#
    )
}

#[test]
fn out_of_range_confidences_are_rejected_at_load() {
    let engine = Arc::new(Engine::new(8));
    let server = Server::bind(engine, ("127.0.0.1", 0), 2).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (i, bad) in ["1.5", "-2", "null", "-0.1"].iter().enumerate() {
        let name = format!("bad{i}");
        let answer = client.round_trip(&load_line(&name, bad)).unwrap();
        assert!(answer.contains(r#""ok":false"#), "{bad}: {answer}");
        assert!(answer.contains(r#""code":"bad_case""#), "{bad}: {answer}");
        assert!(answer.contains("invalid confidence"), "{bad}: {answer}");
        let eval =
            client.round_trip(&format!(r#"{{"id":2,"op":"eval","name":"{name}"}}"#)).unwrap();
        assert!(eval.contains(r#""code":"unknown_case""#), "{bad} was registered: {eval}");
    }
    // The closed interval's ends load.
    for (i, good) in ["0", "1", "0.5"].iter().enumerate() {
        let answer = client.round_trip(&load_line(&format!("good{i}"), good)).unwrap();
        assert!(answer.contains(r#""ok":true"#), "{good}: {answer}");
    }
    server.shutdown();
}

/// A case document with nodes G (goal), E (evidence), C (context) and
/// the given adjacency rows.
fn gec_case(children: &str) -> String {
    format!(
        r#"{{"schema":1,"title":"t","nodes":[{{"name":"G","statement":"claim","kind":"Goal"}},{{"name":"E","statement":"test","kind":{{"Evidence":{{"confidence":0.9}}}}}},{{"name":"C","statement":"ctx","kind":"Context"}}],"children":{children}}}"#
    )
}

#[test]
fn documents_breaking_the_edge_rules_are_rejected_at_load() {
    let engine = Arc::new(Engine::new(8));
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 2).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (i, (children, reason)) in [
        ("[[1,2],[],[]]", "context nodes do not support claims"),
        ("[[1,1],[],[]]", "edge G → E is repeated"),
        ("[[1],[2],[]]", "leaf node E cannot be supported"),
        ("[[0,1],[],[]]", "a node cannot support itself"),
    ]
    .into_iter()
    .enumerate()
    {
        let line = format!(r#"{{"id":1,"op":"load","name":"e{i}","case":{}}}"#, gec_case(children));
        let answer = client.round_trip(&line).unwrap();
        assert!(answer.contains(r#""code":"bad_case""#), "{children}: {answer}");
        assert!(answer.contains(reason), "{children}: {answer}");
        let eval = client.round_trip(&format!(r#"{{"id":2,"op":"eval","name":"e{i}"}}"#)).unwrap();
        assert!(eval.contains(r#""code":"unknown_case""#), "{children} was registered: {eval}");
    }
    let robustness = engine.robustness();
    assert_eq!((robustness.panics, robustness.respawns), (0, 0), "{robustness:?}");
    server.shutdown();
}

/// A stored object the edge rules refuse restores as `data_corrupted`,
/// like any other object that fails verification.
#[test]
fn a_stored_object_breaking_the_edge_rules_restores_as_data_corrupted() {
    let dir = std::env::temp_dir().join(format!("depcase_edge_rules_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        DurabilityConfig { data_dir: dir.clone(), fsync: FsyncPolicy::Never, snapshot_every: 1 };
    let eval = |engine: &Engine| {
        let request = Request::Eval { name: "x".into(), at: None };
        Response::from(engine.handle(&request)).render(ProtocolVersion::V1, &None)
    };
    {
        let engine = Engine::open(1, &config).unwrap();
        let line = format!(r#"{{"op":"load","name":"x","case":{}}}"#, gec_case("[[1],[],[]]"));
        let request = depcase_service::protocol::parse_request(&line).unwrap().request;
        engine.handle(&request).unwrap();
        assert!(eval(&engine).contains(r#""ok":true"#));
    }
    let objects: Vec<_> =
        std::fs::read_dir(dir.join("objects")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(objects.len(), 1, "the snapshot wrote one object");
    let stored = std::fs::read_to_string(&objects[0]).unwrap();
    let repeated = stored.replace(r#""children":[[1],[],[]]"#, r#""children":[[1,1],[],[]]"#);
    assert_ne!(stored, repeated, "{stored}");
    std::fs::write(&objects[0], repeated).unwrap();

    let engine = Engine::open(1, &config).unwrap();
    let answer = eval(&engine);
    assert!(answer.contains(r#""code":"data_corrupted""#), "{answer}");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

//! A `load` whose leaf confidences fall outside `[0, 1]` — including a
//! `null`, which the JSON reader turns into NaN — is refused at the
//! door with `bad_case` and leaves the registry untouched.

use depcase_service::{Client, Engine, Server};
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

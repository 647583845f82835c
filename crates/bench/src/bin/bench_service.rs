//! Emits `BENCH_service.json`: throughput, client-side latency
//! quantiles, and plan-cache hit rate of the resident assessment
//! service under concurrent load.
//!
//! ```sh
//! cargo run --release -p depcase-bench --bin bench_service -- \
//!     [OUT.json] [--clients N] [--requests N] [--workers N] [--conns N] \
//!     [--tenants N] [--faults SPEC] [--storage-faults SPEC]
//! ```
//!
//! The harness starts the service in-process on an ephemeral localhost
//! port, preloads two cases, then drives N clients each issuing a fixed
//! mix of `eval`, `rank`, `mc`, and `bands` requests over their own TCP
//! connection. Latency is measured at the client (full round trip,
//! including the wire), and quantiles are exact — computed from the
//! sorted per-request samples, not histogram buckets.
//!
//! A second, faulted scenario then repeats the run against a server
//! injecting worker panics, request delays, and connection drops at 5%
//! each from a fixed seed, driven through retrying clients — its
//! goodput (completed requests per second, retries included in the
//! cost) and retry counts land in the report's `faulted` block.
//!
//! A concurrency scenario measures what the readiness loop buys:
//! it opens a wall of idle connections against the epoll transport,
//! records how many OS threads the wall cost (none), spot-checks that
//! the idle connections still answer, and compares a busy client's
//! eval latency with and without the wall. Capacity is reported as a
//! ratio against the thread-per-connection default cap of 128
//! connections the earlier artefacts were recorded under.
//!
//! An observability scenario prices the tracing subsystem: the same
//! single-client eval loop is timed with per-request tracing on (the
//! default) and off, and the `observability` block reports eval p99
//! and req/s for both plus the relative p99 overhead.
//!
//! A durability scenario measures what the write-ahead log
//! costs and what recovery buys. The standard request mix is re-run
//! against a durable engine at `--fsync never` and compared to the
//! in-memory baseline (the serving overhead: reads are never logged,
//! so this should be near zero). A pure mutation storm is then timed
//! against an in-memory engine, a durable engine at `--fsync never`,
//! and one at `--fsync always` (the worst-case per-mutation WAL
//! cost), and finally the storm's data dir is re-opened cold to time
//! the startup replay. All of it lands in the report's `durability`
//! block.
//!
//! A storage-faults scenario re-runs the mutation storm against a
//! durable engine whose file operations pass through the deterministic
//! storage fault injector (2% EIO, 2% read-side bit-rot by default):
//! failed appends open read-only windows the retrying clients ride
//! out, and a closing `scrub` repairs the decay. Goodput, window
//! counts, injected-fault tallies, and the repair report land in the
//! `storage_faults` block.
//!
//! A multi-tenant scenario (`--tenants N`, default 100 000) registers a
//! fleet of template-stamped case variants against a sharded engine
//! with the global content-addressed memo store, then drives a
//! zipf-distributed eval mix over the fleet. The `multi_tenant` block
//! reports the cross-tenant subtree-dedup ratio from the compile
//! counters, resident bytes per registered variant against the cost of
//! one cold privately-memoized case, and the zipf eval p50/p99.

use depcase::assurance::templates::{stamp, TEMPLATE_COUNT};
use depcase::prelude::*;
use depcase_service::protocol::{Json, Request};
use depcase_service::{
    Client, DurabilityConfig, Engine, EngineConfig, FaultPlan, FaultyIo, FsyncPolicy, RealIo,
    RetryPolicy, RetryingClient, Server, ServerConfig, StorageIo, DEFAULT_SHARDS,
};
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_CLIENTS: usize = 4;
const DEFAULT_REQUESTS: usize = 50;
const DEFAULT_WORKERS: usize = 4;
const MC_SAMPLES: u32 = 16_384;
/// Idle connections the concurrency scenario holds open.
const DEFAULT_CONNS: usize = 1400;
/// The thread-per-connection connection cap the pre-epoll artefacts
/// were recorded under (`ServerConfig::default().max_connections`) —
/// the denominator of the capacity ratio.
const BASELINE_MAX_CONNECTIONS: usize = 128;
/// Fault mix for the faulted scenario: 5% of requests panic their
/// worker, 5% are delayed, 5% of lines drop the connection.
const DEFAULT_FAULTS: &str = "seed=42,panic=0.05,delay=0.05,delay_ms=2,drop=0.05";
/// Storage fault mix for the storage scenario: 2% of writes/fsyncs fail
/// with EIO (each failed WAL append opens a read-only window the
/// retrying clients must ride out), and 2% of reads flip-and-persist a
/// bit (bit-rot for the closing scrub to find and repair).
const DEFAULT_STORAGE_FAULTS: &str = "seed=42,eio=0.02,bitrot=0.02";
/// Registered template variants in the multi-tenant scenario.
const DEFAULT_TENANTS: usize = 100_000;
/// Zipf-mix eval requests driven over the registered fleet.
const ZIPF_REQUESTS: usize = 20_000;

fn demo_case(title: &str, strong: f64, weak: f64) -> Case {
    let mut case = Case::new(title);
    let g = case.add_goal("G1", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S1", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", strong).unwrap();
    let e2 = case.add_evidence("E2", "static analysis", weak).unwrap();
    let a = case.add_assumption("A1", "environment stable", 0.99).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case.support(g, a).unwrap();
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

/// The request mix one client cycles through: mostly cheap evals with
/// periodic Monte-Carlo cross-checks, the shape of an assessment UI
/// polling a live case.
fn request_for(case_name: &str, idx: usize) -> (&'static str, String) {
    match idx % 5 {
        0 | 1 => ("eval", format!(r#"{{"op":"eval","name":"{case_name}"}}"#)),
        2 => ("rank", format!(r#"{{"op":"rank","name":"{case_name}"}}"#)),
        3 => (
            "mc",
            format!(
                r#"{{"op":"mc","name":"{case_name}","samples":{MC_SAMPLES},"seed":{idx},"threads":1}}"#
            ),
        ),
        _ => (
            "bands",
            format!(
                r#"{{"op":"bands","name":"{case_name}","pfd_bound":1e-3,"mode":"low_demand"}}"#
            ),
        ),
    }
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latency_value(sorted: &[u64]) -> Value {
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
    };
    Value::Object(vec![
        ("p50_us".to_string(), Value::U64(quantile_us(sorted, 0.50))),
        ("p99_us".to_string(), Value::U64(quantile_us(sorted, 0.99))),
        ("mean_us".to_string(), Value::F64(mean)),
        ("max_us".to_string(), Value::U64(sorted.last().copied().unwrap_or(0))),
    ])
}

/// OS threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Sorted eval round-trip latencies (µs) for `n` requests on `client`.
fn eval_latencies(client: &mut Client, n: usize) -> Vec<u64> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let sent = Instant::now();
        let response = client.round_trip(r#"{"op":"eval","name":"reactor"}"#).expect("eval");
        assert!(response.contains(r#""ok":true"#), "eval failed: {response}");
        samples.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    samples.sort_unstable();
    samples
}

/// The concurrency scenario: idle-connection capacity of the epoll
/// transport and the busy-path latency cost of holding that capacity
/// open. Returns the report block.
fn concurrency_run(workers: usize, conns: usize) -> Value {
    let engine = Arc::new(Engine::new(16));
    let config = ServerConfig { workers, max_connections: conns + 16, ..ServerConfig::default() };
    let server =
        Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).expect("bind localhost");
    let addr = server.local_addr();

    let mut probe = Client::connect(addr).expect("connect");
    probe
        .round_trip(&load_line("reactor", &demo_case("reactor protection", 0.95, 0.90)))
        .expect("load reactor");
    let solo = eval_latencies(&mut probe, 200);

    eprintln!("concurrency scenario: opening {conns} idle connection(s)…");
    let threads_before = thread_count();
    let wall: Vec<TcpStream> = (0..conns)
        .map(|i| {
            let stream =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("connection {i} refused: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
            stream
        })
        .collect();
    let threads_after = thread_count();

    // The wall must be live, not just accepted: trickle a request
    // through a spread of the idle connections and count the answers.
    let mut live = 0u64;
    for stream in wall.iter().step_by(conns.div_ceil(16).max(1)) {
        let mut write_half = stream.try_clone().expect("clone stream");
        write_half.write_all(b"{\"op\":\"eval\",\"name\":\"reactor\"}\n").expect("write");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("read");
        assert!(line.contains(r#""ok":true"#), "idle connection went dead: {line}");
        live += 1;
    }

    let at_capacity = eval_latencies(&mut probe, 200);
    drop(wall);
    server.shutdown();

    let capacity_ratio = conns as f64 / BASELINE_MAX_CONNECTIONS as f64;
    eprintln!(
        "  {conns} idle conns cost {} thread(s) ({threads_before} -> {threads_after}); \
         {live} spot-checked live; capacity {capacity_ratio:.1}x the threaded cap of \
         {BASELINE_MAX_CONNECTIONS}",
        threads_after.saturating_sub(threads_before)
    );
    eprintln!(
        "  eval p99: {}µs solo, {}µs at capacity",
        quantile_us(&solo, 0.99),
        quantile_us(&at_capacity, 0.99)
    );
    Value::Object(vec![
        ("io".to_string(), Value::Str("epoll".to_string())),
        ("idle_connections".to_string(), Value::U64(conns as u64)),
        (
            "threads_added_by_idle_connections".to_string(),
            Value::U64(threads_after.saturating_sub(threads_before) as u64),
        ),
        ("live_spot_checks".to_string(), Value::U64(live)),
        ("baseline_max_connections".to_string(), Value::U64(BASELINE_MAX_CONNECTIONS as u64)),
        ("capacity_ratio".to_string(), Value::F64(capacity_ratio)),
        ("eval_latency_solo".to_string(), latency_value(&solo)),
        ("eval_latency_at_capacity".to_string(), latency_value(&at_capacity)),
    ])
}

/// The observability scenario: what per-request tracing costs on the
/// hot path. One client's eval loop is timed twice against otherwise
/// identical servers — tracing on (the default) and tracing off
/// (`--no-trace`) — and the block reports eval p99 and req/s for both
/// plus the relative p99 overhead, the number the "within 2%"
/// acceptance bound reads.
fn observability_run(workers: usize) -> Value {
    const WARMUP: usize = 100;
    const MEASURED: usize = 2000;
    let run = |enabled: bool| -> (Vec<u64>, f64) {
        let engine = Arc::new(Engine::new(16));
        engine.telemetry().set_enabled(enabled);
        let server =
            Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), workers).expect("bind localhost");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .round_trip(&load_line("reactor", &demo_case("reactor protection", 0.95, 0.90)))
            .expect("load reactor");
        let _ = eval_latencies(&mut client, WARMUP);
        let started = Instant::now();
        let samples = eval_latencies(&mut client, MEASURED);
        let rps = MEASURED as f64 / started.elapsed().as_secs_f64();
        server.shutdown();
        (samples, rps)
    };
    eprintln!("observability scenario: {MEASURED} eval(s), tracing off vs on…");
    let (off, off_rps) = run(false);
    let (on, on_rps) = run(true);
    let off_p99 = quantile_us(&off, 0.99);
    let on_p99 = quantile_us(&on, 0.99);
    let overhead_percent =
        if off_p99 == 0 { 0.0 } else { (on_p99 as f64 / off_p99 as f64 - 1.0) * 100.0 };
    eprintln!(
        "  eval p99: {off_p99}µs off, {on_p99}µs on ({overhead_percent:+.1}%); \
         req/s: {off_rps:.0} off, {on_rps:.0} on"
    );
    Value::Object(vec![
        (
            "tracing_off".to_string(),
            Value::Object(vec![
                ("eval_latency".to_string(), latency_value(&off)),
                ("requests_per_second".to_string(), Value::F64(off_rps)),
            ]),
        ),
        (
            "tracing_on".to_string(),
            Value::Object(vec![
                ("eval_latency".to_string(), latency_value(&on)),
                ("requests_per_second".to_string(), Value::F64(on_rps)),
            ]),
        ),
        ("p99_overhead_percent".to_string(), Value::F64(overhead_percent)),
    ])
}

/// Runs the faulted scenario: same request mix, retrying clients, a
/// server injecting faults per `spec`. Returns the report block.
fn faulted_run(clients: usize, requests: usize, workers: usize, spec: &str) -> Value {
    let plan = Arc::new(FaultPlan::parse(spec).expect("fault spec"));
    let config =
        ServerConfig { workers, faults: Some(Arc::clone(&plan)), ..ServerConfig::default() };
    let engine = Arc::new(Engine::new(16));
    let server =
        Server::start(Arc::clone(&engine), ("127.0.0.1", 0), config).expect("bind localhost");
    let addr = server.local_addr();

    let policy = RetryPolicy { max_attempts: 20, base_ms: 2, cap_ms: 50, seed: 1 };
    let mut setup = RetryingClient::connect(addr, policy).expect("connect");
    setup
        .round_trip(&load_line("reactor", &demo_case("reactor protection", 0.95, 0.90)))
        .expect("load reactor");
    setup
        .round_trip(&load_line("interlock", &demo_case("interlock", 0.97, 0.85)))
        .expect("load interlock");

    eprintln!("faulted scenario: {clients} retrying client(s) x {requests} request(s), {spec}…");
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..clients {
        handles.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 20,
                base_ms: 2,
                cap_ms: 50,
                seed: 1000 + client_idx as u64,
            };
            let mut client = RetryingClient::connect(addr, policy).expect("connect");
            let case_name = if client_idx % 2 == 0 { "reactor" } else { "interlock" };
            let mut completed = 0u64;
            let mut failed = 0u64;
            let mut samples: Vec<u64> = Vec::with_capacity(requests);
            for idx in 0..requests {
                let (_, line) = request_for(case_name, idx);
                let sent = Instant::now();
                match client.round_trip(&line) {
                    Ok(response) if response.contains(r#""ok":true"#) => {
                        completed += 1;
                        samples.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                    _ => failed += 1,
                }
            }
            (completed, failed, client.retries(), samples)
        }));
    }
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut retries = 0u64;
    let mut sorted: Vec<u64> = Vec::new();
    for handle in handles {
        let (c, f, r, samples) = handle.join().expect("client thread");
        completed += c;
        failed += f;
        retries += r;
        sorted.extend(samples);
    }
    let elapsed = started.elapsed().as_secs_f64();
    sorted.sort_unstable();
    server.shutdown();

    let injected = plan.injected();
    let robustness = engine.robustness();
    let goodput = completed as f64 / elapsed;
    eprintln!(
        "  {completed} completed ({failed} failed) in {elapsed:.3}s = {goodput:.0} good req/s; \
         {retries} retries; injected {} panics / {} delays / {} drops",
        injected.panics, injected.delays, injected.drops
    );
    Value::Object(vec![
        ("fault_spec".to_string(), Value::Str(spec.to_string())),
        ("completed_requests".to_string(), Value::U64(completed)),
        ("failed_requests".to_string(), Value::U64(failed)),
        ("retries".to_string(), Value::U64(retries)),
        ("elapsed_seconds".to_string(), Value::F64(elapsed)),
        ("goodput_requests_per_second".to_string(), Value::F64(goodput)),
        ("latency".to_string(), latency_value(&sorted)),
        (
            "injected".to_string(),
            Value::Object(vec![
                ("panics".to_string(), Value::U64(injected.panics)),
                ("delays".to_string(), Value::U64(injected.delays)),
                ("drops".to_string(), Value::U64(injected.drops)),
            ]),
        ),
        (
            "robustness".to_string(),
            Value::Object(vec![
                ("panics".to_string(), Value::U64(robustness.panics)),
                ("respawns".to_string(), Value::U64(robustness.respawns)),
                ("overloaded".to_string(), Value::U64(robustness.overloaded)),
            ]),
        ),
    ])
}

/// Drives the standard request mix against `engine` and returns the
/// observed requests per second — the same traffic shape as the main
/// scenario, so durable and in-memory engines compare directly.
fn mixed_throughput(engine: &Arc<Engine>, clients: usize, requests: usize, workers: usize) -> f64 {
    let server =
        Server::bind(Arc::clone(engine), ("127.0.0.1", 0), workers).expect("bind localhost");
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect");
    setup
        .round_trip(&load_line("reactor", &demo_case("reactor protection", 0.95, 0.90)))
        .expect("load reactor");
    setup
        .round_trip(&load_line("interlock", &demo_case("interlock", 0.97, 0.85)))
        .expect("load interlock");
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let case_name = if client_idx % 2 == 0 { "reactor" } else { "interlock" };
            for idx in 0..requests {
                let (_, line) = request_for(case_name, idx);
                let response = client.round_trip(&line).expect("round trip");
                assert!(response.contains(r#""ok":true"#), "request failed: {response}");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("mixed client thread");
    }
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    (clients * requests) as f64 / elapsed
}

/// Drives `clients` concurrent connections each issuing `requests`
/// `set_confidence` edits against its own case on `engine`; returns
/// completed mutations per second.
fn mutation_storm(engine: &Arc<Engine>, clients: usize, requests: usize, workers: usize) -> f64 {
    let server =
        Server::bind(Arc::clone(engine), ("127.0.0.1", 0), workers).expect("bind localhost");
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect");
    for client_idx in 0..clients {
        let name = format!("storm{client_idx}");
        setup
            .round_trip(&load_line(&name, &demo_case("storm case", 0.95, 0.90)))
            .expect("load storm case");
    }
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let name = format!("storm{client_idx}");
            for idx in 0..requests {
                let confidence = 0.5 + 0.4 * ((idx % 97) as f64 / 96.0);
                let line = format!(
                    r#"{{"op":"edit","name":"{name}","action":"set_confidence","node":"E1","confidence":{confidence}}}"#
                );
                let response = client.round_trip(&line).expect("edit round trip");
                assert!(response.contains(r#""ok":true"#), "edit failed: {response}");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("storm client thread");
    }
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    (clients * requests) as f64 / elapsed
}

/// The storage-faults scenario: a mutation storm against a durable
/// engine whose every file operation passes through the deterministic
/// storage fault injector — failed appends open read-only windows the
/// retrying clients ride out, and read-side bit-rot decays the object
/// store for the closing `scrub` to detect and repair. Reports goodput
/// under storage failure, the window count, and the repair tally.
fn storage_faults_run(clients: usize, requests: usize, workers: usize, spec: &str) -> Value {
    let data_dir =
        std::env::temp_dir().join(format!("depcase_bench_storage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let faulty = Arc::new(FaultyIo::parse(RealIo::shared(), spec).expect("storage fault spec"));
    let config = DurabilityConfig {
        data_dir: data_dir.clone(),
        // Every append syncs, so every mutation exposes both a write
        // and an fsync to the injector — the maximal fault surface.
        fsync: FsyncPolicy::Always,
        // Snapshots land mid-storm, putting object writes and manifest
        // renames inside the blast radius too.
        snapshot_every: 64,
    };
    let engine = Arc::new(
        Engine::open_with_io(16, &config, Arc::clone(&faulty) as Arc<dyn StorageIo>)
            .expect("open faulted data dir"),
    );
    let server =
        Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), workers).expect("bind localhost");
    let addr = server.local_addr();

    let setup_policy = RetryPolicy { max_attempts: 50, base_ms: 2, cap_ms: 50, seed: 7 };
    let mut setup = RetryingClient::connect(addr, setup_policy).expect("connect");
    for client_idx in 0..clients {
        let name = format!("storm{client_idx}");
        setup
            .round_trip(&load_line(&name, &demo_case("storm case", 0.95, 0.90)))
            .expect("load storm case");
    }

    eprintln!(
        "storage-faults scenario: {clients} retrying client(s) x {requests} edit(s), {spec}…"
    );
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..clients {
        handles.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 50,
                base_ms: 2,
                cap_ms: 50,
                seed: 2000 + client_idx as u64,
            };
            let mut client = RetryingClient::connect(addr, policy).expect("connect");
            let name = format!("storm{client_idx}");
            let mut completed = 0u64;
            let mut failed = 0u64;
            for idx in 0..requests {
                let confidence = 0.5 + 0.4 * ((idx % 97) as f64 / 96.0);
                let line = format!(
                    r#"{{"op":"edit","name":"{name}","action":"set_confidence","node":"E1","confidence":{confidence}}}"#
                );
                match client.round_trip(&line) {
                    Ok(response) if response.contains(r#""ok":true"#) => completed += 1,
                    _ => failed += 1,
                }
            }
            let read_only_retries =
                client.retried_codes().iter().filter(|c| c.as_str() == "read_only").count() as u64;
            (completed, failed, client.retries(), read_only_retries)
        }));
    }
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut retries = 0u64;
    let mut read_only_retries = 0u64;
    for handle in handles {
        let (c, f, r, ro) = handle.join().expect("storm client thread");
        completed += c;
        failed += f;
        retries += r;
        read_only_retries += ro;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let goodput = completed as f64 / elapsed;

    // Close with a scrub: whatever the injected bit-rot decayed, the
    // pipeline must find and (with the registry live) repair.
    let scrub = engine.handle(&Request::Scrub).expect("scrub");
    let health = engine.storage_health();
    let injected = faulty.injected();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    eprintln!(
        "  {completed} mutations ({failed} failed) in {elapsed:.3}s = {goodput:.0} good mut/s; \
         {retries} retries ({read_only_retries} on read_only); \
         {} read-only window(s); injected {} EIO / {} bit-rot",
        health.read_only_entered, injected.eio, injected.bitrot
    );
    eprintln!(
        "  scrub: {} object(s) checked, {} corrupt, {} repaired, {} quarantined",
        scrub.get("objects_checked").and_then(Value::as_u64).unwrap_or(0),
        scrub.get("corrupt_detected").and_then(Value::as_u64).unwrap_or(0),
        scrub.get("repaired").and_then(Value::as_u64).unwrap_or(0),
        scrub.get("quarantined").and_then(Value::as_u64).unwrap_or(0),
    );
    Value::Object(vec![
        ("fault_spec".to_string(), Value::Str(spec.to_string())),
        ("completed_mutations".to_string(), Value::U64(completed)),
        ("failed_mutations".to_string(), Value::U64(failed)),
        ("retries".to_string(), Value::U64(retries)),
        ("read_only_retries".to_string(), Value::U64(read_only_retries)),
        ("elapsed_seconds".to_string(), Value::F64(elapsed)),
        ("goodput_mutations_per_second".to_string(), Value::F64(goodput)),
        (
            "injected".to_string(),
            Value::Object(vec![
                ("eio".to_string(), Value::U64(injected.eio)),
                ("enospc".to_string(), Value::U64(injected.enospc)),
                ("short_writes".to_string(), Value::U64(injected.short_writes)),
                ("torn".to_string(), Value::U64(injected.torn)),
                ("bitrot".to_string(), Value::U64(injected.bitrot)),
            ]),
        ),
        (
            "read_only_windows".to_string(),
            Value::Object(vec![
                ("entered".to_string(), Value::U64(health.read_only_entered)),
                ("exited".to_string(), Value::U64(health.read_only_exited)),
                ("append_failures".to_string(), Value::U64(health.append_failures)),
            ]),
        ),
        ("scrub".to_string(), scrub),
        (
            "repairs".to_string(),
            Value::Object(vec![
                ("from_memory".to_string(), Value::U64(health.repaired_from_memory)),
                ("from_wal".to_string(), Value::U64(health.repaired_from_wal)),
                ("quarantined".to_string(), Value::U64(health.quarantined)),
            ]),
        ),
    ])
}

/// The durability scenario: serving overhead of the durable engine on
/// the standard mix, mutation throughput in-memory vs durable (both
/// fsync policies), then a cold re-open of the storm's data dir to
/// time startup replay. Snapshots are disabled for the storm so the
/// replay measures pure WAL throughput.
fn durability_run(clients: usize, requests: usize, workers: usize, baseline_rps: f64) -> Value {
    let data_dir = std::env::temp_dir().join(format!("depcase_bench_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mutations = (clients * requests) as u64;

    // Serving overhead: the read-heavy mix against a durable engine at
    // `--fsync never`. Reads bypass the WAL entirely, so this isolates
    // the cost of durability plumbing on the hot path.
    eprintln!("durability scenario: {clients} client(s) x {requests} mixed request(s)…");
    let mix_config = DurabilityConfig {
        data_dir: data_dir.join("mix"),
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    };
    let engine = Arc::new(Engine::open(16, &mix_config).expect("open data dir"));
    let mixed_rps = mixed_throughput(&engine, clients, requests, workers);
    drop(engine);
    let mixed_overhead_percent = (baseline_rps / mixed_rps - 1.0) * 100.0;
    eprintln!(
        "  mixed req/s: {baseline_rps:.0} in-memory, {mixed_rps:.0} wal+never \
         ({mixed_overhead_percent:+.1}%)"
    );

    eprintln!("durability scenario: {clients} client(s) x {requests} edit(s)…");
    let baseline = mutation_storm(&Arc::new(Engine::new(16)), clients, requests, workers);

    let config = DurabilityConfig {
        data_dir: data_dir.clone(),
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    };
    let engine = Arc::new(Engine::open(16, &config).expect("open data dir"));
    let wal_never = mutation_storm(&engine, clients, requests, workers);
    drop(engine);
    let overhead_percent = (baseline / wal_never - 1.0) * 100.0;

    // Cold restart: how long does replaying the storm's WAL take?
    let recovery_started = Instant::now();
    let recovered = Engine::open(16, &config).expect("recover data dir");
    let recovery_seconds = recovery_started.elapsed().as_secs_f64();
    let replayed = recovered.durability_counters().records_replayed;
    drop(recovered);

    let always_dir = data_dir.join("always");
    let always_config =
        DurabilityConfig { data_dir: always_dir, fsync: FsyncPolicy::Always, snapshot_every: 0 };
    let engine = Arc::new(Engine::open(16, &always_config).expect("open data dir"));
    let wal_always = mutation_storm(&engine, clients, requests, workers);
    drop(engine);
    let _ = std::fs::remove_dir_all(&data_dir);

    eprintln!(
        "  mutations/s: {baseline:.0} in-memory, {wal_never:.0} wal+never \
         ({overhead_percent:+.1}%), {wal_always:.0} wal+always"
    );
    eprintln!(
        "  recovery: {replayed} records replayed in {recovery_seconds:.3}s \
         ({:.1} µs/record)",
        if replayed == 0 { 0.0 } else { recovery_seconds * 1e6 / replayed as f64 }
    );
    Value::Object(vec![
        (
            "serving".to_string(),
            Value::Object(vec![
                ("in_memory_requests_per_second".to_string(), Value::F64(baseline_rps)),
                ("wal_never_requests_per_second".to_string(), Value::F64(mixed_rps)),
                ("overhead_percent".to_string(), Value::F64(mixed_overhead_percent)),
            ]),
        ),
        ("mutations".to_string(), Value::U64(mutations)),
        ("in_memory_mutations_per_second".to_string(), Value::F64(baseline)),
        ("wal_never_mutations_per_second".to_string(), Value::F64(wal_never)),
        ("wal_never_overhead_percent".to_string(), Value::F64(overhead_percent)),
        ("wal_always_mutations_per_second".to_string(), Value::F64(wal_always)),
        (
            "recovery".to_string(),
            Value::Object(vec![
                ("records_replayed".to_string(), Value::U64(replayed)),
                ("elapsed_seconds".to_string(), Value::F64(recovery_seconds)),
                (
                    "microseconds_per_record".to_string(),
                    Value::F64(if replayed == 0 {
                        0.0
                    } else {
                        recovery_seconds * 1e6 / replayed as f64
                    }),
                ),
            ]),
        ),
    ])
}

/// Resident-set size of this process in bytes, from `/proc/self/statm`.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok()))
        .map_or(0, |pages| pages * 4096)
}

/// SplitMix64 step — the same generator the template stamper uses, so
/// the zipf mix is reproducible without a rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The multi-tenant scenario: register `tenants` template-stamped
/// variants against a sharded engine sharing one content-addressed
/// memo store, then drive a zipf-distributed eval mix over the fleet.
///
/// Three numbers matter. The **subtree-dedup ratio** from the compile
/// counters is the headline: nodes answered per node actually
/// recomputed across every registration — the work the global store
/// deduplicates across tenants. **Bytes per variant** is the marginal
/// resident cost of one more registered tenant at fleet scale,
/// compared against the resident cost of one cold case compiled with
/// a private memo and a live session (what every tenant would cost
/// without sharing). The **zipf eval latency** shows the fleet serves
/// a realistic skewed read mix from the sharded plan caches.
///
/// Requests go through [`Engine::handle`] directly — this measures the
/// sharded engine, not the wire.
fn multi_tenant_run(tenants: usize) -> Value {
    // Small enough that its freed allocations don't meaningfully
    // deflate the fleet's RSS delta, big enough to average out
    // allocator slack.
    const COLD_SAMPLE: usize = 256;
    eprintln!(
        "multi-tenant scenario: {tenants} variant(s) of {TEMPLATE_COUNT} template(s), \
         {ZIPF_REQUESTS} zipf eval(s)…"
    );

    // Cold reference: private memos, one shard, a cache big enough
    // that every compiled session stays resident — the full per-case
    // cost the fleet amortises away.
    let cold = Engine::with_config(&EngineConfig {
        cache_capacity: COLD_SAMPLE,
        shards: 1,
        memo_entries: 0,
    });
    let rss_cold_before = rss_bytes();
    for i in 0..COLD_SAMPLE {
        let template = i % TEMPLATE_COUNT;
        let case = stamp(template, (i / TEMPLATE_COUNT) as u64);
        let name = format!("cold-t{template}-v{}", i / TEMPLATE_COUNT);
        cold.handle(&Request::Load { name, case: Serialize::to_value(&case) }).expect("cold load");
    }
    let cold_case_bytes = rss_bytes().saturating_sub(rss_cold_before) / COLD_SAMPLE as u64;
    drop(cold);

    let engine = Engine::with_config(&EngineConfig {
        cache_capacity: 1024,
        shards: DEFAULT_SHARDS,
        memo_entries: depcase_service::DEFAULT_MEMO_ENTRIES,
    });
    let rss_fleet_before = rss_bytes();
    let registration_started = Instant::now();
    for i in 0..tenants {
        let template = i % TEMPLATE_COUNT;
        let variant = (i / TEMPLATE_COUNT) as u64;
        let case = stamp(template, variant);
        let name = format!("t{template}-v{variant}");
        engine
            .handle(&Request::Load { name, case: Serialize::to_value(&case) })
            .expect("fleet load");
    }
    let registration_seconds = registration_started.elapsed().as_secs_f64();
    let bytes_per_variant = rss_bytes().saturating_sub(rss_fleet_before) / tenants.max(1) as u64;

    let compile = engine.compile_counters();
    let dedup_ratio = compile.dedup_ratio();

    // Zipf-ish tenant popularity: log-uniform over [0, tenants), so
    // rank-k tenants are hit with probability ~1/k — a few hot
    // tenants, a long cold tail.
    let mut rng = 0xdead_beef_u64;
    let ln_n = (tenants.max(2) as f64).ln();
    let mut samples = Vec::with_capacity(ZIPF_REQUESTS);
    let zipf_started = Instant::now();
    for _ in 0..ZIPF_REQUESTS {
        let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let i = ((u * ln_n).exp() as usize).saturating_sub(1).min(tenants - 1);
        let name = format!("t{}-v{}", i % TEMPLATE_COUNT, i / TEMPLATE_COUNT);
        let sent = Instant::now();
        engine.handle(&Request::Eval { name, at: None }).expect("zipf eval");
        samples.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    let zipf_seconds = zipf_started.elapsed().as_secs_f64();
    samples.sort_unstable();

    let memo = engine.memo_stats().expect("memo store enabled");
    let memo_lookups = memo.hits + memo.misses;
    let bytes_ratio =
        if cold_case_bytes == 0 { 0.0 } else { bytes_per_variant as f64 / cold_case_bytes as f64 };
    eprintln!(
        "  registered {tenants} in {registration_seconds:.3}s \
         ({:.0} loads/s); subtree dedup {dedup_ratio:.1}x \
         ({} recomputed / {} reused over {} compiles)",
        tenants as f64 / registration_seconds,
        compile.nodes_recomputed,
        compile.nodes_reused,
        compile.compiles
    );
    eprintln!(
        "  resident: {bytes_per_variant} B/variant vs {cold_case_bytes} B cold case \
         ({:.2}x); memo store {} entr(ies), {:.3} hit rate",
        bytes_ratio,
        memo.entries,
        if memo_lookups == 0 { 0.0 } else { memo.hits as f64 / memo_lookups as f64 }
    );
    eprintln!(
        "  zipf evals: {:.0} req/s, p50 {}µs p99 {}µs",
        ZIPF_REQUESTS as f64 / zipf_seconds,
        quantile_us(&samples, 0.50),
        quantile_us(&samples, 0.99)
    );
    Value::Object(vec![
        ("tenants".to_string(), Value::U64(tenants as u64)),
        ("templates".to_string(), Value::U64(TEMPLATE_COUNT as u64)),
        ("shards".to_string(), Value::U64(engine.shard_count() as u64)),
        ("registration_seconds".to_string(), Value::F64(registration_seconds)),
        ("registrations_per_second".to_string(), Value::F64(tenants as f64 / registration_seconds)),
        ("subtree_dedup_ratio".to_string(), Value::F64(dedup_ratio)),
        (
            "compile".to_string(),
            Value::Object(vec![
                ("compiles".to_string(), Value::U64(compile.compiles)),
                ("nodes_recomputed".to_string(), Value::U64(compile.nodes_recomputed)),
                ("nodes_reused".to_string(), Value::U64(compile.nodes_reused)),
            ]),
        ),
        ("bytes_per_variant".to_string(), Value::U64(bytes_per_variant)),
        ("cold_case_bytes".to_string(), Value::U64(cold_case_bytes)),
        ("bytes_per_variant_over_cold_case".to_string(), Value::F64(bytes_ratio)),
        (
            "memo_store".to_string(),
            Value::Object(vec![
                ("entries".to_string(), Value::U64(memo.entries)),
                ("capacity".to_string(), Value::U64(memo.capacity)),
                ("hits".to_string(), Value::U64(memo.hits)),
                ("misses".to_string(), Value::U64(memo.misses)),
                ("insertions".to_string(), Value::U64(memo.insertions)),
                ("evictions".to_string(), Value::U64(memo.evictions)),
                (
                    "hit_rate".to_string(),
                    Value::F64(if memo_lookups == 0 {
                        0.0
                    } else {
                        memo.hits as f64 / memo_lookups as f64
                    }),
                ),
            ]),
        ),
        ("zipf_requests".to_string(), Value::U64(ZIPF_REQUESTS as u64)),
        ("zipf_evals_per_second".to_string(), Value::F64(ZIPF_REQUESTS as f64 / zipf_seconds)),
        ("eval_latency".to_string(), latency_value(&samples)),
    ])
}

fn main() {
    let mut out = String::from("BENCH_service.json");
    let mut clients = DEFAULT_CLIENTS;
    let mut requests = DEFAULT_REQUESTS;
    let mut workers = DEFAULT_WORKERS;
    let mut faults = DEFAULT_FAULTS.to_string();
    let mut storage_faults = DEFAULT_STORAGE_FAULTS.to_string();
    let mut conns = DEFAULT_CONNS;
    let mut tenants = DEFAULT_TENANTS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = next_count(&mut args, "--clients"),
            "--requests" => requests = next_count(&mut args, "--requests"),
            "--workers" => workers = next_count(&mut args, "--workers"),
            "--conns" => conns = next_count(&mut args, "--conns"),
            "--tenants" => tenants = next_count(&mut args, "--tenants"),
            "--faults" => {
                faults = args.next().unwrap_or_else(|| usage("--faults needs a spec"));
            }
            "--storage-faults" => {
                storage_faults =
                    args.next().unwrap_or_else(|| usage("--storage-faults needs a spec"));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            path => out = path.to_string(),
        }
    }

    let engine = Arc::new(Engine::new(16));
    let server =
        Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), workers).expect("bind localhost");
    let addr = server.local_addr();

    let mut setup = Client::connect(addr).expect("connect");
    setup
        .round_trip(&load_line("reactor", &demo_case("reactor protection", 0.95, 0.90)))
        .expect("load reactor");
    setup
        .round_trip(&load_line("interlock", &demo_case("interlock", 0.97, 0.85)))
        .expect("load interlock");

    eprintln!(
        "driving {clients} client(s) x {requests} request(s) against {addr} ({workers} workers)…"
    );
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let case_name = if client_idx % 2 == 0 { "reactor" } else { "interlock" };
            // (op, latency µs) per request, in issue order.
            let mut samples: Vec<(&'static str, u64)> = Vec::with_capacity(requests);
            for idx in 0..requests {
                let (op, line) = request_for(case_name, idx);
                let sent = Instant::now();
                let response = client.round_trip(&line).expect("round trip");
                let us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                assert!(response.contains(r#""ok":true"#), "request failed: {response}");
                samples.push((op, us));
            }
            samples
        }));
    }
    let mut all: Vec<(&'static str, u64)> = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Final stats from the service itself: cache hit rate and the
    // server-side view of the same traffic.
    let stats_line = setup.round_trip(r#"{"op":"stats"}"#).expect("stats");
    let Json(stats) = serde_json::from_str(&stats_line).expect("stats parse");
    let cache = stats.get("result").and_then(|r| r.get("plan_cache")).cloned().unwrap();
    server.shutdown();

    let total = all.len();
    let throughput = total as f64 / elapsed;
    let mut sorted_all: Vec<u64> = all.iter().map(|(_, us)| *us).collect();
    sorted_all.sort_unstable();

    let mut per_op: Vec<(String, Value)> = Vec::new();
    for op in ["eval", "rank", "mc", "bands"] {
        let mut sorted: Vec<u64> =
            all.iter().filter(|(o, _)| *o == op).map(|(_, us)| *us).collect();
        if sorted.is_empty() {
            continue;
        }
        sorted.sort_unstable();
        per_op.push((
            op.to_string(),
            Value::Object(vec![
                ("requests".to_string(), Value::U64(sorted.len() as u64)),
                ("latency".to_string(), latency_value(&sorted)),
            ]),
        ));
    }

    let multi_tenant = multi_tenant_run(tenants);
    let concurrency = concurrency_run(workers, conns);
    let observability = observability_run(workers);
    let faulted = faulted_run(clients, requests, workers, &faults);
    let durability = durability_run(clients, requests, workers, throughput);
    let storage = storage_faults_run(clients, requests, workers, &storage_faults);

    let report = Value::Object(vec![
        ("bench".to_string(), Value::Str("service".to_string())),
        (
            "config".to_string(),
            Value::Object(vec![
                ("clients".to_string(), Value::U64(clients as u64)),
                ("requests_per_client".to_string(), Value::U64(requests as u64)),
                ("workers".to_string(), Value::U64(workers as u64)),
                ("mc_samples".to_string(), Value::U64(u64::from(MC_SAMPLES))),
            ]),
        ),
        ("total_requests".to_string(), Value::U64(total as u64)),
        ("elapsed_seconds".to_string(), Value::F64(elapsed)),
        ("requests_per_second".to_string(), Value::F64(throughput)),
        ("latency".to_string(), latency_value(&sorted_all)),
        ("per_op".to_string(), Value::Object(per_op)),
        ("plan_cache".to_string(), cache.clone()),
        ("multi_tenant".to_string(), multi_tenant),
        ("concurrency".to_string(), concurrency),
        ("observability".to_string(), observability),
        ("faulted".to_string(), faulted),
        ("durability".to_string(), durability),
        ("storage_faults".to_string(), storage),
    ]);

    eprintln!(
        "  {total} requests in {elapsed:.3}s = {throughput:.0} req/s; p50 {}µs p99 {}µs",
        quantile_us(&sorted_all, 0.50),
        quantile_us(&sorted_all, 0.99)
    );
    if let Some(rate) = cache.get("hit_rate").and_then(Value::as_f64) {
        eprintln!("  plan-cache hit rate {rate:.3}");
    }

    let json = serde_json::to_string_pretty(&Json(report)).expect("report serializes");
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}

fn next_count(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| usage(&format!("{flag} needs a positive number")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: bench_service [OUT.json] [--clients N] [--requests N] [--workers N] \
         [--conns N] [--tenants N] [--faults SPEC] [--storage-faults SPEC]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

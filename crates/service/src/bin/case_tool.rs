//! `case_tool` — evaluate serialized dependability cases from the
//! command line, or run the resident assessment service.
//!
//! ```text
//! case_tool eval  case.json      # propagate and print per-node confidence
//! case_tool dot   case.json      # annotated Graphviz DOT on stdout
//! case_tool rank  case.json      # evidence ranked by improvement value
//! case_tool demo                 # print a sample case.json to start from
//! case_tool stamp TEMPLATE COUNT  # NDJSON load lines for COUNT stamped
//!                                 # variants of template TEMPLATE (0..9)
//! case_tool serve [--addr HOST:PORT] [--stdio]
//!                 [--workers N] [--cache N] [--shards N] [--memo-cap N]
//!                 [--queue N] [--conns N]
//!                 [--deadline MS] [--drain MS] [--faults SPEC]
//!                 [--data-dir PATH] [--fsync always|never]
//!                 [--snapshot-every N] [--storage-faults SPEC]
//!                 [--trace-dir DIR] [--slow-ms MS] [--no-trace]
//! ```
//!
//! `serve` speaks newline-delimited JSON (see the `depcase-service`
//! crate docs for the protocol) on a localhost TCP listener, or on
//! stdin/stdout with `--stdio`; one readiness-driven `epoll` I/O thread
//! multiplexes every TCP connection. `--queue` bounds the job queue
//! (overflow answers `overloaded`), `--conns` caps concurrent
//! connections, `--deadline` sets the default per-request budget,
//! `--drain` bounds how long shutdown waits for queued work, and
//! `--faults` enables deterministic fault injection from a spec like
//! `seed=42,panic=0.05,delay=0.1,delay_ms=20,drop=0.02` (see
//! [`depcase_service::FaultPlan`]).
//!
//! `--data-dir` makes the registry durable: every acked `load`/`edit`
//! is written ahead to a checksummed WAL in that directory and a
//! restart recovers exactly the acked state, including version
//! history. `--fsync always` additionally syncs each append (safe
//! against power loss, slower); the default `never` leaves syncing to
//! the OS and graceful drain (safe against process crashes).
//! `--snapshot-every N` compacts the WAL behind a content-addressed
//! snapshot every N mutations (default 256; 0 disables).
//!
//! `--shards` stripes the registry and plan cache into independent
//! locks (default 8) for multi-tenant workloads; `--memo-cap` sizes the
//! global content-addressed memo store that shares subtree results
//! across every compile (entries, default 262144; 0 disables it).
//! `stamp` emits ready-to-pipe `load` lines for deterministic template
//! variants — the multi-tenant smoke test's workload generator.
//!
//! `--storage-faults` (requires `--data-dir`) routes every WAL and
//! snapshot file operation through a deterministic seeded fault
//! injector — EIO, ENOSPC budgets, short writes, torn tails, read-side
//! bit-rot — from a spec like `seed=42,eio=0.02,bitrot=0.01` (see
//! [`depcase_service::StorageFaultPlan`]): a chaos rig for exercising
//! read-only degradation and the `scrub` repair pipeline end to end.
//!
//! Every request is traced end to end (queue wait, parse, engine
//! phases, WAL append/fsync, reply flush); recent traces and the
//! per-op latency decomposition come back over the wire via the
//! `trace` op, and the `metrics` op exposes the unified registry
//! (JSON or Prometheus text). `--trace-dir DIR` additionally streams
//! every completed trace into rotating Chrome trace-event JSON files
//! that load directly in Perfetto or `chrome://tracing`. `--slow-ms
//! MS` logs any request slower than the threshold to stderr with its
//! full span tree, and `--no-trace` turns per-request tracing off
//! (the metrics registry stays live).

use depcase::assurance::{importance, templates, Case};
use depcase_service::{
    serve_stdio_with, DurabilityConfig, Engine, EngineConfig, FaultPlan, FaultyIo, FsyncPolicy,
    RealIo, Server, ServerConfig, StorageIo,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:4676";
const DEFAULT_CACHE: usize = 64;

fn load(path: &str) -> Result<Case, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut stdio = false;
    let mut engine_config = EngineConfig::new(DEFAULT_CACHE);
    let mut config = ServerConfig::default();
    let mut durability: Option<DurabilityConfig> = None;
    let mut storage_faults: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut no_trace = false;
    let mut it = args.iter();
    let int_flag = |name: &str, it: &mut std::slice::Iter<String>| -> Result<u64, String> {
        it.next()
            .ok_or(format!("{name} needs a value"))?
            .parse()
            .map_err(|_| format!("{name} needs an integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--addr" => {
                addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--workers" => config.workers = int_flag("--workers", &mut it)? as usize,
            "--cache" => engine_config.cache_capacity = int_flag("--cache", &mut it)? as usize,
            "--shards" => {
                engine_config.shards = int_flag("--shards", &mut it)? as usize;
                if engine_config.shards == 0 {
                    return Err("--shards needs at least 1".into());
                }
            }
            "--memo-cap" => engine_config.memo_entries = int_flag("--memo-cap", &mut it)? as usize,
            "--queue" => config.queue_capacity = int_flag("--queue", &mut it)? as usize,
            "--conns" => config.max_connections = int_flag("--conns", &mut it)? as usize,
            "--deadline" => {
                config.default_deadline_ms = Some(int_flag("--deadline", &mut it)?);
            }
            "--drain" => {
                config.drain_deadline = Duration::from_millis(int_flag("--drain", &mut it)?);
            }
            "--faults" => {
                let spec = it.next().ok_or("--faults needs a spec like seed=42,panic=0.05")?;
                config.faults = Some(Arc::new(FaultPlan::parse(spec)?));
            }
            "--data-dir" => {
                let dir = it.next().ok_or("--data-dir needs a directory path")?;
                durability.get_or_insert_with(|| DurabilityConfig::new(dir.clone())).data_dir =
                    dir.into();
            }
            "--fsync" => {
                let policy = FsyncPolicy::parse(it.next().ok_or("--fsync needs always|never")?)?;
                durability.get_or_insert_with(|| DurabilityConfig::new("")).fsync = policy;
            }
            "--snapshot-every" => {
                let every = int_flag("--snapshot-every", &mut it)?;
                durability.get_or_insert_with(|| DurabilityConfig::new("")).snapshot_every = every;
            }
            "--storage-faults" => {
                let spec = it
                    .next()
                    .ok_or("--storage-faults needs a spec like seed=42,eio=0.02,bitrot=0.01")?;
                storage_faults = Some(spec.clone());
            }
            "--trace-dir" => {
                trace_dir = Some(it.next().ok_or("--trace-dir needs a directory path")?.clone());
            }
            "--slow-ms" => slow_ms = Some(int_flag("--slow-ms", &mut it)?),
            "--no-trace" => no_trace = true,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let engine = Arc::new(match &durability {
        Some(dc) => {
            if dc.data_dir.as_os_str().is_empty() {
                return Err("--fsync/--snapshot-every require --data-dir".into());
            }
            let io: Arc<dyn StorageIo> = match &storage_faults {
                Some(spec) => Arc::new(FaultyIo::parse(RealIo::shared(), spec)?),
                None => RealIo::shared(),
            };
            Engine::open_config_with_io(&engine_config, dc, io)
                .map_err(|e| format!("opening data dir {}: {e}", dc.data_dir.display()))?
        }
        None => {
            if storage_faults.is_some() {
                return Err("--storage-faults requires --data-dir".into());
            }
            Engine::with_config(&engine_config)
        }
    });
    if no_trace {
        if trace_dir.is_some() || slow_ms.is_some() {
            return Err("--no-trace conflicts with --trace-dir/--slow-ms".into());
        }
        engine.telemetry().set_enabled(false);
    }
    if let Some(dir) = &trace_dir {
        engine
            .telemetry()
            .set_trace_dir(dir)
            .map_err(|e| format!("opening trace dir {dir}: {e}"))?;
    }
    if let Some(ms) = slow_ms {
        engine.telemetry().set_slow_ms(ms);
    }
    if stdio {
        serve_stdio_with(&engine, &config);
        return Ok(());
    }
    eprintln!(
        "case_tool serve: epoll io, {} workers, plan cache {} over {} shards, memo store {}, \
         queue {}, conns {}{}{}{}{}{}{}{}",
        config.workers,
        engine_config.cache_capacity,
        engine.shard_count(),
        if engine_config.memo_entries == 0 {
            "off".to_string()
        } else {
            format!("{} entries", engine_config.memo_entries)
        },
        config.queue_capacity,
        config.max_connections,
        match config.default_deadline_ms {
            Some(ms) => format!(", default deadline {ms} ms"),
            None => String::new(),
        },
        if config.faults.is_some() { ", fault injection ON" } else { "" },
        match &durability {
            Some(dc) => format!(
                ", durable at {} (fsync {}, snapshot every {})",
                dc.data_dir.display(),
                dc.fsync,
                dc.snapshot_every
            ),
            None => String::new(),
        },
        if storage_faults.is_some() { ", storage fault injection ON" } else { "" },
        if no_trace { ", tracing OFF" } else { "" },
        match &trace_dir {
            Some(dir) => format!(", chrome traces to {dir}"),
            None => String::new(),
        },
        match slow_ms {
            Some(ms) => format!(", slow log over {ms} ms"),
            None => String::new(),
        },
    );
    let server =
        Server::start(Arc::clone(&engine), addr.as_str(), config).map_err(|e| e.to_string())?;
    eprintln!("case_tool serve: listening on {}", server.local_addr());
    let engine_for_dump = engine;
    server.wait();
    eprintln!(
        "case_tool serve: final stats {}",
        serde_json::value_to_string(&engine_for_dump.stats_value())
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => {
            let (case, _) = templates::multi_leg(
                "pfd < 1e-2",
                &[("statistical testing", 0.95), ("static analysis", 0.90)],
                Some(("requirements spec is right", 0.98)),
            )
            .map_err(|e| e.to_string())?;
            println!("{}", serde_json::to_string_pretty(&case).map_err(|e| e.to_string())?);
            Ok(())
        }
        Some("eval") => {
            let path = args.get(1).ok_or("usage: case_tool eval <case.json>")?;
            let case = load(path)?;
            let report = case.propagate().map_err(|e| e.to_string())?;
            println!("case: {}", case.title());
            for (id, node) in case.iter() {
                if let Some(c) = report.confidence(id) {
                    println!(
                        "  {:<6} {:<40} conf {:.4}  [{:.4}, {:.4}]",
                        node.name,
                        truncate(&node.statement, 40),
                        c.independent,
                        c.worst_case,
                        c.best_case
                    );
                }
            }
            Ok(())
        }
        Some("dot") => {
            let path = args.get(1).ok_or("usage: case_tool dot <case.json>")?;
            let case = load(path)?;
            let report = case.propagate().ok();
            print!("{}", case.to_dot(report.as_ref()));
            Ok(())
        }
        Some("rank") => {
            let path = args.get(1).ok_or("usage: case_tool rank <case.json>")?;
            let case = load(path)?;
            let ranking = importance::birnbaum_importance(&case).map_err(|e| e.to_string())?;
            println!("evidence by improvement value (case: {}):", case.title());
            for li in ranking {
                println!(
                    "  {:<6} conf {:.3}  birnbaum {:.4}  gain-if-certain {:.4}",
                    li.name, li.confidence, li.birnbaum, li.gain_if_certain
                );
            }
            Ok(())
        }
        Some("stamp") => stamp(&args[1..]),
        Some("serve") => serve(&args[1..]),
        _ => Err(
            "usage: case_tool {eval|dot|rank} <case.json> | case_tool demo | case_tool stamp {TEMPLATE|all} COUNT [--eval] | case_tool serve [--addr HOST:PORT|--stdio] [--workers N] [--cache N] [--shards N] [--memo-cap N] [--queue N] [--conns N] [--deadline MS] [--drain MS] [--faults SPEC] [--data-dir PATH] [--fsync always|never] [--snapshot-every N] [--storage-faults SPEC] [--trace-dir DIR] [--slow-ms MS] [--no-trace]"
                .into(),
        ),
    }
}

/// `stamp {TEMPLATE|all} COUNT [--eval]`: deterministic NDJSON `load`
/// lines for COUNT stamped template variants, ready to pipe into
/// `serve --stdio` — the multi-tenant smoke test's workload generator.
/// `all` round-robins the variants across every template; `--eval`
/// appends one `eval` line per registered name after the loads, so one
/// pipe both registers the fleet and reads every answer back.
fn stamp(args: &[String]) -> Result<(), String> {
    let which = args.first().ok_or("usage: case_tool stamp {TEMPLATE|all} COUNT [--eval]")?;
    let count: u64 = args
        .get(1)
        .ok_or("stamp needs a COUNT")?
        .parse()
        .map_err(|_| "COUNT needs to be an integer".to_string())?;
    let with_eval = match args.get(2).map(String::as_str) {
        None => false,
        Some("--eval") => true,
        Some(other) => return Err(format!("unknown stamp flag `{other}`")),
    };
    let template_count = templates::TEMPLATE_COUNT as u64;
    let pick = |i: u64| -> Result<(u64, u64), String> {
        match which.as_str() {
            "all" => Ok((i % template_count, i / template_count)),
            t => {
                let t: u64 =
                    t.parse().map_err(|_| format!("TEMPLATE needs 0..{template_count} or all"))?;
                if t >= template_count {
                    return Err(format!("TEMPLATE needs 0..{template_count} or all"));
                }
                Ok((t, i))
            }
        }
    };
    let out = std::io::stdout();
    let mut out = std::io::BufWriter::new(out.lock());
    use std::io::Write;
    let mut id = 0u64;
    for i in 0..count {
        let (template, variant) = pick(i)?;
        let case = templates::stamp(template as usize, variant);
        id += 1;
        let doc = serde_json::to_string(&case).map_err(|e| e.to_string())?;
        writeln!(out, r#"{{"id":{id},"op":"load","name":"t{template}-v{variant}","case":{doc}}}"#)
            .map_err(|e| e.to_string())?;
    }
    if with_eval {
        for i in 0..count {
            let (template, variant) = pick(i)?;
            id += 1;
            writeln!(out, r#"{{"id":{id},"op":"eval","name":"t{template}-v{variant}"}}"#)
                .map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("case_tool: {msg}");
            ExitCode::from(2)
        }
    }
}

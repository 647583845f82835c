//! Benchmark of the `case_tool serve` assessment service.
//!
//! ```text
//! depcase-perfbench --workload hot_read|fleet_churn|deep_analysis
//!                   --seed N --seconds S --trace 0|1
//!                   --server PATH/TO/case_tool --work DIR
//! ```
//!
//! Every run sets the workload up on a fresh server several times
//! (`setup_s` is the median), drives it over TCP from two closed-loop
//! clients for `--seconds`, reads the server's own counters, restarts
//! it (`restart_s`), and re-checks a seeded sample of answers against
//! in-process library calls. `--trace 1` then replays the same stream
//! in-process with a benchmark-owned trace installed around the engine
//! and reports the per-layer metrics. The last stdout line is the
//! result object; the full report, fingerprint and spans land in
//! `--work`.

mod json;
mod replay;
mod verify;
mod wire;
mod workload;

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{Conn, Server};
use workload::{Kind, Workload, CLIENTS, OPS};

/// The metrics a user of the service sees, reported by every run with
/// `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("eval_p50_us", "us"),
    ("restart_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Run-level settings that differ by workload.
struct Plan {
    setups: usize,
    restarts: usize,
    /// One answer in this many is re-checked by the oracle.
    sample_every: u64,
}

fn plan(kind: Kind) -> Plan {
    match kind {
        Kind::HotRead => Plan { setups: 11, restarts: 11, sample_every: 64 },
        Kind::FleetChurn => Plan { setups: 3, restarts: 5, sample_every: 16 },
        Kind::DeepAnalysis => Plan { setups: 5, restarts: 11, sample_every: 6 },
    }
}

/// Collected metrics: name → (value, unit), plus notes for the report.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.values.insert(name.into(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let int = |k: &str| get(k)?.parse::<u64>().map_err(|_| format!("{k} needs an integer"));
    Ok(Args {
        kind: Kind::parse(&get("--workload")?).ok_or("unknown --workload")?,
        seed: int("--seed")?,
        seconds: int("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace needs 0 or 1".into()),
        },
        server: get("--server")?.into(),
        work: get("--work")?.into(),
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A counter out of a `stats` snapshot, by path.
fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// What the timed phase measured, for the trace-1 replay to build on.
pub struct Timed {
    pub logs: Vec<wire::ClientLog>,
    pub stats_end: Value,
    pub data_dir: Option<PathBuf>,
    pub attempted: u64,
    pub failed: u64,
    pub property_ok: bool,
}

fn run_timed(args: &Args, w: &Workload, dir: &Path, m: &mut Metrics) -> Result<Timed, String> {
    let plan = plan(args.kind);
    let data_dir = |k: usize| w.durable().then(|| dir.join(format!("data-{k}")));
    let log = dir.join("server.log");
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for k in 0..plan.setups {
        let data = data_dir(k);
        if let Some(d) = &data {
            wire::fresh_dir(d.clone())?;
        }
        let s = Server::spawn(&args.server, data.as_deref(), &log)?;
        failed += wire::setup(w, s.addr)?;
        attempted += w.tenants.len() as u64;
        setup_s.push(secs(s.spawned.elapsed()));
        if k + 1 < plan.setups {
            s.shutdown()?;
            if let Some(d) = &data {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let data = data_dir(plan.setups - 1);
    m.set("setup_s", median(&setup_s), "s");

    let mut admin = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let stats_setup = admin.call(r#"{"id":1,"op":"stats"}"#)?;
    let (logs, measure_from) = wire::drive(
        w,
        server.addr,
        Duration::from_secs(1),
        Duration::from_secs(args.seconds),
        plan.sample_every,
    )?;
    let stats_end = admin.call(r#"{"id":2,"op":"stats"}"#)?;
    let metrics_end = admin.call(r#"{"id":3,"op":"metrics"}"#)?;
    let hwm_kib = server.vm_kib("VmHWM:").unwrap_or(0);
    let rss_kib = server.vm_kib("VmRSS:").unwrap_or(0);
    drop(admin);
    server.shutdown()?;

    let mut restart_s = Vec::new();
    for _ in 0..plan.restarts {
        let s = Server::spawn(&args.server, data.as_deref(), &log)?;
        let mut conn = Conn::connect(s.addr).map_err(|e| e.to_string())?;
        conn.call(r#"{"id":1,"op":"stats"}"#)?;
        restart_s.push(secs(s.spawned.elapsed()));
        drop(conn);
        s.shutdown()?;
    }
    m.set("restart_s", median(&restart_s), "s");
    println!("# setup_s samples {setup_s:?}, restart_s samples {restart_s:?}");

    // Client-side latency and throughput over the measured window.
    let mut all = Vec::new();
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last_done = measure_from;
    for log in &logs {
        attempted += log.reqs.len() as u64;
        failed += log.errors;
        for (req, ns) in log.reqs[log.measured_from..].iter().zip(&log.lat_ns) {
            let us = *ns as f64 / 1e3;
            all.push(us);
            by_op.entry(req.op()).or_default().push(us);
        }
        if let Some(done) = log.last_done {
            last_done = last_done.max(done);
        }
    }
    let window = secs(last_done - measure_from).max(1e-9);

    m.set("throughput_rps", all.len() as f64 / window, "req/s");
    m.set("p50_us", median(&all), "us");
    m.set("p99_us", quantile(&all, 0.99), "us");
    m.set("requests_measured", all.len() as f64, "count");
    let busy: f64 = all.iter().sum();
    for op in OPS {
        let lat = by_op.get(op).map(Vec::as_slice).unwrap_or(&[]);
        m.set(format!("{op}_time_share"), lat.iter().sum::<f64>() / busy.max(1.0), "ratio");
        m.set(format!("{op}_p50_us"), median(lat), "us");
        m.set(format!("{op}_p99_us"), quantile(lat, 0.99), "us");
        m.set(format!("{op}_count"), lat.len() as f64, "count");
    }
    m.set("rss_peak_mb", hwm_kib as f64 / 1024.0, "MiB");

    let verdict = verify::verify(w, &logs);
    failed += verdict.mismatches;
    for note in logs.iter().flat_map(|l| &l.error_notes).chain(&verdict.notes) {
        println!("# mismatch or error: {note}");
    }
    m.set("failed_frac", failed as f64 / attempted.max(1) as f64, "ratio");
    m.set("oracle.checked", verdict.checked as f64, "count");

    // Counters from the server's own `stats`, over the traffic phase.
    let delta = |path: &[&str]| stat(&stats_end, path) - stat(&stats_setup, path);
    let hits = delta(&["plan_cache", "hits"]);
    let misses = delta(&["plan_cache", "misses"]);
    m.set("cache.hit_rate", hits / (hits + misses).max(1.0), "ratio");
    m.set("cache.evictions", delta(&["plan_cache", "evictions"]), "count");
    m.set("memo.hit_rate", stat(&stats_end, &["memo_store", "hit_rate"]), "ratio");
    m.set("memo.evictions", stat(&stats_end, &["memo_store", "evictions"]), "count");
    let traffic: f64 = logs.iter().map(|l| l.reqs.len() as f64).sum();
    m.set("compile.per_request", delta(&["compile", "compiles"]) / traffic.max(1.0), "ratio");
    let recomputed = stat(&stats_end, &["compile", "nodes_recomputed"]);
    let reused = stat(&stats_end, &["compile", "nodes_reused"]);
    m.set("compile.recomputed_share", recomputed / (recomputed + reused).max(1.0), "ratio");
    m.set("snapshot.writes", delta(&["durability", "snapshots_written"]), "count");
    let objects: f64 = stats_end
        .get("shards")
        .and_then(|s| s.get("per_shard"))
        .and_then(Value::as_array)
        .map_or(0.0, |shards| shards.iter().map(|s| stat(s, &["objects"])).sum());
    m.set("engine.versions_retained", objects, "count");
    m.set("engine.rss_bytes_per_version", rss_kib as f64 * 1024.0 / objects.max(1.0), "bytes");
    let disk = data.as_deref().map_or(0, wire::dir_bytes);
    m.set("snapshot.disk_bytes_per_version", disk as f64 / objects.max(1.0), "bytes");
    m.set("server.queue_wait_us", queue_wait_p50(&metrics_end), "us");
    let joins = metric_value(&metrics_end, "depcase_mc_coalesced_joins_total");
    m.set("monte_carlo.coalesced_joins", joins, "count");

    // Each workload proves the property it exists for.
    let (property, property_ok) = match args.kind {
        Kind::HotRead => (
            format!(
                "plan-cache hit rate {:.4}, evictions {}",
                m.get("cache.hit_rate").unwrap_or(0.0),
                delta(&["plan_cache", "evictions"])
            ),
            misses == 0.0 && delta(&["plan_cache", "evictions"]) == 0.0,
        ),
        Kind::FleetChurn => (
            format!(
                "plan-cache miss share {:.4}, snapshots {}",
                misses / (hits + misses).max(1.0),
                delta(&["durability", "snapshots_written"])
            ),
            misses > 0.0 && delta(&["durability", "snapshots_written"]) >= 1.0,
        ),
        Kind::DeepAnalysis => (format!("coalesced MC joins {joins}"), joins == 0.0),
    };
    println!(
        "# property ({}): {property} -> {}",
        args.kind.name(),
        if property_ok { "holds" } else { "FAILS" }
    );

    Ok(Timed { logs, stats_end, data_dir: data, attempted, failed, property_ok })
}

/// A plain counter or gauge from the `metrics` op, summed over series.
fn metric_value(metrics: &Value, name: &str) -> f64 {
    families(metrics, name).flat_map(series).map(|s| stat(s, &["value"])).sum()
}

fn families<'a>(metrics: &'a Value, name: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
    metrics
        .get("metrics")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter(move |f| f.get("name").and_then(Value::as_str) == Some(name))
}

fn series(family: &Value) -> impl Iterator<Item = &Value> {
    family.get("series").and_then(Value::as_array).into_iter().flatten()
}

/// The server's `queue_wait` p50 in µs: its log2-µs histograms of the
/// `queue_wait` phase merged over every op, interpolated within the
/// bucket holding the median.
fn queue_wait_p50(metrics: &Value) -> f64 {
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for s in families(metrics, "depcase_phase_latency_us").flat_map(series) {
        if s.get("labels").and_then(|l| l.get("phase")).and_then(Value::as_str)
            != Some("queue_wait")
        {
            continue;
        }
        for b in s.get("buckets").and_then(Value::as_array).into_iter().flatten() {
            if let Some([le, n]) = b.as_array() {
                *buckets.entry(le.as_u64().unwrap_or(0)).or_default() += n.as_u64().unwrap_or(0);
            }
        }
    }
    let total: u64 = buckets.values().sum();
    let rank = total.div_ceil(2).max(1);
    let mut seen = 0;
    for (&le, &n) in &buckets {
        if seen + n >= rank {
            let lo = if le <= 1 { 0.0 } else { (le / 2) as f64 };
            return lo + (le as f64 - lo) * (rank - seen) as f64 / n as f64;
        }
        seen += n;
    }
    0.0
}

fn host_fingerprint(stats: &Value) -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let cmd = |c: &str, a: &[&str]| {
        std::process::Command::new(c)
            .args(a)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev =
        cmd("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into());
    let dirty = cmd("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let s = |v: String| Value::Str(v);
    Value::Object(vec![
        (
            "available_parallelism".into(),
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model".into(), s(cpu)),
        ("kernel_release".into(), s(read("/proc/sys/kernel/osrelease").trim().to_string())),
        ("rustc".into(), s(cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))),
        (
            "build_profile".into(),
            s(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("git_rev".into(), s(rev)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("server_build".into(), stats.get("build").cloned().unwrap_or(Value::Null)),
        ("server_shards".into(), shards_summary(stats)),
        ("server_memo_store".into(), stats.get("memo_store").cloned().unwrap_or(Value::Null)),
    ])
}

fn shards_summary(stats: &Value) -> Value {
    let Some(shards) = stats.get("shards") else { return Value::Null };
    let capacity: f64 = shards
        .get("per_shard")
        .and_then(Value::as_array)
        .map_or(0.0, |s| s.iter().map(|x| stat(x, &["cache_capacity"])).sum());
    Value::Object(vec![
        ("count".into(), shards.get("count").cloned().unwrap_or(Value::Null)),
        ("plan_cache_capacity".into(), Value::F64(capacity)),
    ])
}

fn json(v: &Value) -> String {
    serde_json::to_string(&depcase_service::protocol::Json(v.clone())).unwrap_or_default()
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let dir = wire::fresh_dir(args.work.join(format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    )))?;
    let started = Instant::now();
    let w = Workload::new(args.kind, args.seed);
    let mut m = Metrics::default();
    let timed = run_timed(args, &w, &dir, &mut m)?;
    let mut correct = timed.failed == 0 && timed.property_ok;
    if args.trace {
        correct &= replay::run(&w, &timed, &dir, &mut m)?;
    }
    if let Some(d) = &timed.data_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let fingerprint = host_fingerprint(&timed.stats_end);
    let report = Value::Object(vec![
        ("workload".into(), Value::Str(args.kind.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("clients".into(), Value::U64(CLIENTS as u64)),
        ("wall_s".into(), Value::F64(secs(started.elapsed()))),
        ("fingerprint".into(), fingerprint.clone()),
        (
            "metrics".into(),
            Value::Object(
                m.values
                    .iter()
                    .map(|(k, (v, u))| {
                        (
                            k.clone(),
                            Value::Object(vec![
                                ("value".into(), Value::F64(*v)),
                                ("unit".into(), Value::Str(u.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(dir.join("report.json"), json(&report)).map_err(|e| e.to_string())?;
    println!("# fingerprint {}", json(&fingerprint));
    for (name, (value, unit)) in &m.values {
        println!("# {name} = {value} {unit}");
    }
    Ok((correct, timed.attempted, timed.failed, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("depcase-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, m)) => {
            let names: Vec<(String, String)> = if args.trace {
                replay::PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
            } else {
                END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
            };
            let mut fields = Vec::new();
            let mut complete = true;
            for (name, unit) in names {
                let value = m.get(&name).filter(|v| v.is_finite());
                complete &= value.is_some();
                fields.push((
                    name,
                    Value::Object(vec![
                        ("value".into(), Value::F64(value.unwrap_or(0.0))),
                        ("unit".into(), Value::Str(unit)),
                    ]),
                ));
            }
            let result = Value::Object(vec![
                ("correct".into(), Value::Bool(correct && complete)),
                ("attempted".into(), Value::U64(attempted.max(1))),
                ("failed".into(), Value::U64(failed)),
                ("metrics".into(), Value::Object(fields)),
            ]);
            println!("{}", json(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("depcase-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

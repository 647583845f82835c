//! The traced side (`--trace 1`): the timed run's seeded stream
//! replayed in-process, on the same two threads, against an `Engine`
//! built with the server's defaults, plus direct timings of the layers
//! the engine does not report.
//!
//! Each replayed request is timed at ns resolution as
//! `parse_request` → `Engine::handle` → `Response::render`. Around
//! `Engine::handle` a benchmark-owned `TraceBuilder` is installed
//! through the public `telemetry::install` / `take_current`, so the
//! phases the engine already reports (`plan_compile`, `full_propagate`,
//! `batch_propagate`, `batch_assembly`, `dirty_spine`, `mc_sample_loop`,
//! `wal_append`, `snapshot_write`) arrive as child spans. Spans stay in
//! memory and are written to `spans.jsonl` when the run ends.
//!
//! A per-layer metric comes from the engine's spans where the workload
//! exercises that layer, and otherwise from its public entry point
//! called on the workload's own cases; which one is fixed per workload
//! and recorded in the report as `source.<metric>`.

use crate::workload::{generate_case, leaves, mix, Req, Rng, Workload, CLIENTS};
use crate::{median, Metrics, Timed};
use depcase::assurance::{
    birnbaum_importance, Case, EvalPlan, Incremental, MemoStore, MonteCarlo, NodeConfidence,
    SharedMemo,
};
use depcase_service::protocol::{parse_request, Response};
use depcase_service::snapshot::{Manifest, ManifestCase, Store, VersionRecord};
use depcase_service::trace::{Trace, TraceBuilder};
use depcase_service::wal::{FsyncPolicy, Wal, WalOp, WalRecord};
use depcase_service::{telemetry, DurabilityConfig, Engine, EngineConfig, Telemetry};
use serde::Deserialize;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// The per-layer metrics every `--trace 1` run reports, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("failed_frac", "ratio"),
    ("server.wire_overhead_us", "us"),
    ("server.queue_wait_us", "us"),
    ("protocol.parse_ns", "ns"),
    ("protocol.render_ns", "ns"),
    ("protocol.response_bytes", "bytes"),
    ("engine.handle_ns", "ns"),
    ("engine.self_ns", "ns"),
    ("engine.handle_ns.eval", "ns"),
    ("engine.self_ns.eval", "ns"),
    ("engine.batch_assembly_ns", "ns"),
    ("engine.kernel_share", "ratio"),
    ("engine.versions_retained", "count"),
    ("engine.rss_bytes_per_version", "bytes"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("memo.hit_rate", "ratio"),
    ("memo.evictions", "count"),
    ("memo.hit_ns_per_node.low", "ns"),
    ("memo.hit_ns_per_node.high", "ns"),
    ("compile.ns", "ns"),
    ("compile.per_request", "ratio"),
    ("compile.recomputed_share", "ratio"),
    ("graph.from_json_ns_per_node", "ns"),
    ("propagation.ns_per_node", "ns"),
    ("propagation.ns_per_node.n256", "ns"),
    ("propagation.ns_per_node.n1024", "ns"),
    ("propagation.ns_per_node.n4096", "ns"),
    ("incremental.spine_ns", "ns"),
    ("incremental.spine_nodes", "count"),
    ("incremental.spine_ns.d4", "ns"),
    ("incremental.spine_ns.d8", "ns"),
    ("incremental.spine_ns.d12", "ns"),
    ("incremental.speedup_vs_full", "ratio"),
    ("importance.ns_per_leaf", "ns"),
    ("importance.ns_per_leaf.n256", "ns"),
    ("importance.ns_per_leaf.n1024", "ns"),
    ("importance.ns_per_leaf.n4096", "ns"),
    ("monte_carlo.ns_per_sample_node", "ns"),
    ("monte_carlo.ns_per_sample_node.n256", "ns"),
    ("monte_carlo.ns_per_sample_node.n1024", "ns"),
    ("monte_carlo.ns_per_sample_node.n4096", "ns"),
    ("monte_carlo.coalesced_joins", "count"),
    ("plan.batch_ns_per_lane_node", "ns"),
    ("plan.batch_lanes", "count"),
    ("wal.append_ns", "ns"),
    ("wal.replay_us_per_record", "us"),
    ("wal.read_overhead_pct", "%"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.writes", "count"),
    ("snapshot.restore_us_per_object", "us"),
    ("snapshot.disk_bytes_per_version", "bytes"),
    ("telemetry.trace_ns", "ns"),
    ("telemetry.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.reconciled_share", "ratio"),
    ("trace.requests", "count"),
];

/// How long each client's replay of its stream runs.
const REPLAY_BUDGET: Duration = Duration::from_secs(4);

/// The kernel phases: work done by the assurance crate.
const KERNEL_SPANS: [&str; 4] =
    ["full_propagate", "dirty_spine", "batch_propagate", "mc_sample_loop"];

/// One span of a replayed request, copied out of its trace.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: u64,
    /// The count the phase reported with it (nodes, lanes, samples).
    count: u64,
}

const NO_SPAN: Span = Span { name: "", parent: None, start_ns: 0, dur_ns: 0, count: 0 };

/// Spans a replay thread can hold before its arena grows. The arena is
/// written once up front, so copying spans out never touches a fresh
/// page inside a timed interval, and the trace itself is dropped at
/// once, so the next request's trace reuses its memory.
const ARENA_SPANS: usize = 1 << 17;

/// One replayed request.
struct Rec {
    client: usize,
    index: usize,
    setup: bool,
    op: &'static str,
    req: Req,
    parse_ns: u64,
    handle_ns: u64,
    render_ns: u64,
    total_ns: u64,
    /// The same request's total on the untraced engine.
    plain_total_ns: u64,
    ok: bool,
    bytes: usize,
    /// Engine time attributed to `birnbaum_importance` (`rank`).
    importance_ns: u64,
    /// This request's spans in its thread's arena.
    spans: std::ops::Range<usize>,
}

impl Rec {
    fn children_ns(&self, arena: &[Span]) -> u64 {
        arena[self.spans.clone()].iter().filter(|s| s.parent == Some(0)).map(|s| s.dur_ns).sum()
    }

    fn self_ns(&self, arena: &[Span]) -> u64 {
        self.handle_ns.saturating_sub(self.children_ns(arena) + self.importance_ns)
    }

    fn kernel_ns(&self, arena: &[Span]) -> u64 {
        self.importance_ns + self.named(arena, &KERNEL_SPANS).map(|s| s.dur_ns).sum::<u64>()
    }

    fn named<'a>(
        &self,
        arena: &'a [Span],
        names: &'a [&'a str],
    ) -> impl Iterator<Item = &'a Span> + 'a {
        arena[self.spans.clone()].iter().filter(move |s| names.contains(&s.name))
    }
}

/// Copies a finished trace into `arena`, pairing each kernel phase with
/// the count it reported right after it.
fn keep(trace: &Trace, arena: &mut Vec<Span>) -> std::ops::Range<usize> {
    let start = arena.len();
    let count_name = |phase: &str| match phase {
        "full_propagate" => "case_nodes",
        "dirty_spine" => "spine_nodes",
        "batch_propagate" => "batch_lanes",
        "mc_sample_loop" => "mc_samples",
        _ => "",
    };
    let mut used = [0usize; 4];
    for s in &trace.spans {
        let want = count_name(s.name);
        let slot = KERNEL_SPANS.iter().position(|k| *k == s.name);
        let count = slot.map_or(0, |k| {
            used[k] += 1;
            trace.counts.iter().filter(|(c, _)| *c == want).nth(used[k] - 1).map_or(0, |(_, n)| *n)
        });
        arena.push(Span {
            name: s.name,
            parent: s.parent,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            count,
        });
    }
    start..arena.len()
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An engine at the server's defaults: in memory, or durable on `dir`.
fn engine(durable: bool, dir: &Path) -> Result<Engine, String> {
    let config = EngineConfig::new(64);
    if durable {
        let _ = std::fs::remove_dir_all(dir);
        Engine::open_config(&config, &DurabilityConfig::new(dir)).map_err(|e| e.to_string())
    } else {
        Ok(Engine::with_config(&config))
    }
}

/// The `version` an answer names (the first one in the line).
fn answered_version(text: &str) -> Option<u64> {
    let rest = &text[text.find(r#""version":"#)? + 10..];
    rest.split([',', '}']).next()?.parse().ok()
}

/// Replays one request: parse → handle → render. With `traced`, the
/// benchmark's trace is installed before the clock starts and taken
/// back after it stops, so the request's total covers the service's
/// work and the engine's own span recording, not the trace's set-up.
fn replay_one(
    engine: &Engine,
    line: &str,
    traced: bool,
) -> (u64, u64, u64, u64, usize, Option<Trace>, String) {
    if traced {
        let mut tb = Box::new(TraceBuilder::new(0, Instant::now()));
        tb.begin("engine");
        telemetry::install(tb);
    }
    let t0 = Instant::now();
    let envelope = parse_request(line).expect("benchmark request lines parse");
    let t1 = Instant::now();
    let result = engine.handle(&envelope.request);
    let t2 = Instant::now();
    let ok = result.is_ok();
    let text = Response::from(result).render(envelope.version, &envelope.id);
    let t3 = Instant::now();
    let trace = if traced { telemetry::take_current() } else { None }.map(|mut tb| {
        tb.set_op(envelope.request.op_name());
        tb.set_ok(ok);
        tb.finish()
    });
    (ns(t1 - t0), ns(t2 - t1), ns(t3 - t2), ns(t3 - t0), text.len(), trace, text)
}

/// One client's replay: its set-up share, then (once every client is
/// set up) its stream until the time budget. Every request runs on both
/// engines back to back — traced and untraced, the side going first
/// alternating — so the two see the same sequence and their totals
/// pair up request by request.
fn replay_client(
    w: &Workload,
    engines: [&Engine; 2],
    client: usize,
    set_up: &Barrier,
) -> (Vec<Rec>, Vec<Span>) {
    let mut recs = Vec::with_capacity(1 << 16);
    let mut arena = vec![NO_SPAN; ARENA_SPANS];
    arena.clear();
    let mut line = String::new();
    let mut importance = std::collections::HashMap::new();
    let setup: Vec<Req> = w.setup_share(client).map(|t| Req::Load { t }).collect();
    let setup_len = setup.len();
    let mut stream = w.stream(client);
    let mut started = Instant::now();
    let reqs = setup.into_iter().chain(std::iter::from_fn(|| stream.next()));
    for (i, req) in reqs.enumerate() {
        let setup = i < setup_len;
        if i == setup_len {
            set_up.wait();
            started = Instant::now();
        }
        if !setup && started.elapsed() >= REPLAY_BUDGET {
            break;
        }
        let index = if setup { usize::MAX } else { i - setup_len };
        w.render(&req, crate::wire::request_id(client, i), &mut line);
        let traced_first = i % 2 == 0;
        let plain_before = if traced_first { 0 } else { replay_one(engines[1], &line, false).3 };
        let (parse_ns, handle_ns, render_ns, total_ns, bytes, trace, text) =
            replay_one(engines[0], &line, true);
        let plain_total_ns =
            if traced_first { replay_one(engines[1], &line, false).3 } else { plain_before };
        let spans = trace.map_or(arena.len()..arena.len(), |t| keep(&t, &mut arena));
        // `rank` runs importance inside the engine without a span of its
        // own: it is attributed the cost of the same call on the same
        // case, timed here once per case (the fastest of three) and
        // capped at the engine time its spans leave unexplained.
        let importance_ns = match req {
            Req::Rank { t } => {
                let side = *importance.entry(t).or_insert_with(|| {
                    let case = w.case_at(t, answered_version(&text).unwrap_or(1));
                    (0..3)
                        .map(|_| {
                            let started = Instant::now();
                            std::hint::black_box(birnbaum_importance(&case).ok());
                            ns(started.elapsed())
                        })
                        .min()
                        .unwrap_or(0)
                });
                let children: u64 = arena[spans.clone()]
                    .iter()
                    .filter(|s| s.parent == Some(0))
                    .map(|s| s.dur_ns)
                    .sum();
                side.min(handle_ns.saturating_sub(children))
            }
            _ => 0,
        };
        recs.push(Rec {
            client,
            index,
            setup,
            op: req.op(),
            req,
            parse_ns,
            handle_ns,
            render_ns,
            total_ns,
            plain_total_ns,
            ok: !text.contains(r#""ok":false"#),
            bytes,
            importance_ns,
            spans,
        });
    }
    (recs, arena)
}

/// Both clients' replays on their own threads, against the traced and
/// the untraced engine; the spans of every request in one arena.
fn replay(w: &Workload, engines: [&Engine; 2]) -> (Vec<Rec>, Vec<Span>) {
    let set_up = Barrier::new(CLIENTS);
    let parts: Vec<(Vec<Rec>, Vec<Span>)> = thread::scope(|s| {
        let set_up = &set_up;
        let handles: Vec<_> =
            (0..CLIENTS).map(|c| s.spawn(move || replay_client(w, engines, c, set_up))).collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let (mut recs, mut arena) = (Vec::new(), Vec::new());
    for (part, spans) in parts {
        let shift = arena.len();
        arena.extend(spans);
        recs.extend(part.into_iter().map(|mut r| {
            r.spans = r.spans.start + shift..r.spans.end + shift;
            r
        }));
    }
    (recs, arena)
}

fn median_u64(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = values.map(|x| x as f64).collect();
    median(&v)
}

/// Median of `f` over `reps` timed calls, in ns.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            ns(started.elapsed()) as f64
        })
        .collect();
    median(&samples)
}

/// Up to `n` tenants spread evenly over the workload.
fn sample_tenants(w: &Workload, n: usize) -> Vec<usize> {
    let step = w.tenants.len().div_ceil(n).max(1);
    (0..w.tenants.len()).step_by(step).collect()
}

/// Dirty-spine edits timed directly: (median ns, mean spine nodes).
fn spine_probe(
    cases: &[Case],
    edit_leaves: &[Vec<depcase::assurance::NodeId>],
    rng: &mut Rng,
) -> (f64, f64) {
    let mut times = Vec::new();
    let mut nodes = Vec::new();
    for (case, leaves) in cases.iter().zip(edit_leaves) {
        let mut session = Incremental::new(case.clone()).expect("workload cases evaluate");
        for _ in 0..64 {
            let leaf = leaves[rng.below(leaves.len())];
            let conf = rng.confidence();
            let started = Instant::now();
            let stats = session.set_confidence(leaf, conf).expect("edit leaves carry confidence");
            times.push(ns(started.elapsed()) as f64);
            nodes.push((stats.nodes_recomputed + stats.nodes_reused) as f64);
        }
    }
    (median(&times), nodes.iter().sum::<f64>() / nodes.len().max(1) as f64)
}

/// The trace-1 pass. Returns whether its own checks held.
pub fn run(w: &Workload, timed: &Timed, dir: &Path, m: &mut Metrics) -> Result<bool, String> {
    let durable = w.durable();
    let mut source = Vec::<(String, &str)>::new();

    // The traced replay, in lockstep with an untraced one.
    let traced_engine = engine(durable, &dir.join("replay-traced"))?;
    let plain_engine = engine(durable, &dir.join("replay-plain"))?;
    let (traced, arena) = replay(w, [&traced_engine, &plain_engine]);
    drop(plain_engine);
    let traffic: Vec<&Rec> = traced.iter().filter(|r| !r.setup).collect();
    let paired: Vec<f64> =
        traffic.iter().map(|r| r.total_ns as f64 / r.plain_total_ns.max(1) as f64).collect();
    m.set("trace.overhead_pct", 100.0 * (median(&paired) - 1.0), "%");
    let replay_errors = traced.iter().filter(|r| !r.ok).count();
    m.set("trace.errors", replay_errors as f64, "count");
    m.set("trace.requests", traffic.len() as f64, "count");
    let a = arena.as_slice();
    let spans_of = |recs: &[&Rec], names: &'static [&'static str]| -> Vec<Span> {
        recs.iter().flat_map(|r| r.named(a, names).copied().collect::<Vec<_>>()).collect()
    };

    // Layer times of the traffic.
    m.set("protocol.parse_ns", median_u64(traffic.iter().map(|r| r.parse_ns)), "ns");
    m.set("protocol.render_ns", median_u64(traffic.iter().map(|r| r.render_ns)), "ns");
    let bytes: usize = traffic.iter().map(|r| r.bytes).sum();
    m.set("protocol.response_bytes", bytes as f64 / traffic.len().max(1) as f64, "bytes");
    m.set("engine.handle_ns", median_u64(traffic.iter().map(|r| r.handle_ns)), "ns");
    m.set("engine.self_ns", median_u64(traffic.iter().map(|r| r.self_ns(a))), "ns");
    for op in crate::workload::OPS {
        let of: Vec<&&Rec> = traffic.iter().filter(|r| r.op == op).collect();
        m.set(format!("engine.handle_ns.{op}"), median_u64(of.iter().map(|r| r.handle_ns)), "ns");
        m.set(format!("engine.self_ns.{op}"), median_u64(of.iter().map(|r| r.self_ns(a))), "ns");
    }
    let handle_sum: u64 = traffic.iter().map(|r| r.handle_ns).sum();
    let kernel_sum: u64 = traffic.iter().map(|r| r.kernel_ns(a)).sum();
    m.set("engine.kernel_share", kernel_sum as f64 / handle_sum.max(1) as f64, "ratio");
    m.set("trace.kernel_ns_per_request", kernel_sum as f64 / traffic.len().max(1) as f64, "ns");

    // Per-request reconciliation: the layers against the request's own
    // in-process total.
    let reconciled = traced
        .iter()
        .filter(|r| {
            let layers =
                r.parse_ns + r.self_ns(a) + r.children_ns(a) + r.importance_ns + r.render_ns;
            (layers as f64 - r.total_ns as f64).abs() <= 0.05 * r.total_ns as f64
        })
        .count();
    let reconciled_share = reconciled as f64 / traced.len().max(1) as f64;
    m.set("trace.reconciled_share", reconciled_share, "ratio");

    // Wire overhead: timed round trips against the untraced in-process
    // totals of the same stream.
    let wire: Vec<f64> =
        timed.logs.iter().flat_map(|l| l.lat_ns.iter().map(|&n| n as f64)).collect();
    let inproc: Vec<f64> = traffic.iter().map(|r| r.plain_total_ns as f64).collect();
    m.set("server.wire_overhead_us", (median(&wire) - median(&inproc)) / 1e3, "us");

    // Engine-reported phases over every request, set-up included.
    let all: Vec<&Rec> = traced.iter().collect();
    m.set(
        "compile.ns",
        median_u64(spans_of(&all, &["plan_compile"]).iter().map(|s| s.dur_ns)),
        "ns",
    );
    let full: Vec<f64> = spans_of(&all, &["full_propagate"])
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| s.dur_ns as f64 / s.count as f64)
        .collect();
    m.set("propagation.ns_per_node", median(&full), "ns");

    let mut probe_rng = Rng::new(mix(&[w.seed, 0x9e0be]));
    let picked = sample_tenants(w, 16);
    let cases: Vec<Case> = picked.iter().map(|&t| w.tenants[t].base.clone()).collect();

    let spines = spans_of(&traffic, &["dirty_spine"]);
    if spines.is_empty() {
        let edit_leaves: Vec<_> =
            picked.iter().map(|&t| w.tenants[t].edit_leaves.clone()).collect();
        let (spine_ns, spine_nodes) = spine_probe(&cases, &edit_leaves, &mut probe_rng);
        m.set("incremental.spine_ns", spine_ns, "ns");
        m.set("incremental.spine_nodes", spine_nodes, "count");
        source.push(("incremental.spine_ns".into(), "probe"));
    } else {
        m.set("incremental.spine_ns", median_u64(spines.iter().map(|s| s.dur_ns)), "ns");
        let nodes: u64 = spines.iter().map(|s| s.count).sum();
        m.set("incremental.spine_nodes", nodes as f64 / spines.len() as f64, "count");
        source.push(("incremental.spine_ns".into(), "span"));
    }

    // Kernel spans normalised by the size of the case they ran on.
    let per_node = |name: &'static str, nodes: &dyn Fn(&Req) -> u64| -> Vec<f64> {
        traffic
            .iter()
            .flat_map(|r| {
                let n = nodes(&r.req);
                r.named(a, &[name][..])
                    .map(move |s| s.dur_ns as f64 / (s.count * n).max(1) as f64)
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let mcs = per_node("mc_sample_loop", &|req| match req {
        Req::Mc { t, .. } => w.tenants[*t].base.len() as u64,
        _ => 0,
    });
    if mcs.is_empty() {
        let per: Vec<f64> = cases
            .iter()
            .map(|case| {
                let plan = EvalPlan::compile(case).expect("workload cases compile");
                let samples = 4096u32;
                let seed = probe_rng.next_u64();
                time_median(3, || MonteCarlo::new(samples).seed(seed).threads(1).run_plan(&plan))
                    / (f64::from(samples) * case.len() as f64)
            })
            .collect();
        m.set("monte_carlo.ns_per_sample_node", median(&per), "ns");
        source.push(("monte_carlo.ns_per_sample_node".into(), "probe"));
    } else {
        m.set("monte_carlo.ns_per_sample_node", median(&mcs), "ns");
        source.push(("monte_carlo.ns_per_sample_node".into(), "span"));
    }

    let batches = per_node("batch_propagate", &|req| match req {
        Req::Batch { ts } => w.tenants[ts[0]].base.len() as u64,
        _ => 0,
    });
    if batches.is_empty() {
        // Sixteen versions of each case share its shape: one SoA pass.
        let mut per = Vec::new();
        for &t in picked.iter().take(8) {
            let plans: Vec<EvalPlan> = (1..=16)
                .map(|v| EvalPlan::compile(&w.case_at(t, v)).expect("workload cases compile"))
                .collect();
            let refs: Vec<&EvalPlan> = plans.iter().collect();
            let nodes = w.tenants[t].base.len() as f64;
            per.push(time_median(5, || EvalPlan::propagate_batch(&refs)) / (16.0 * nodes));
        }
        m.set("plan.batch_ns_per_lane_node", median(&per), "ns");
        m.set("plan.batch_lanes", 16.0, "count");
        source.push(("plan.batch_ns_per_lane_node".into(), "probe"));
    } else {
        let lanes = spans_of(&traffic, &["batch_propagate"]);
        m.set("plan.batch_ns_per_lane_node", median(&batches), "ns");
        let total: u64 = lanes.iter().map(|s| s.count).sum();
        m.set("plan.batch_lanes", total as f64 / lanes.len() as f64, "count");
        source.push(("plan.batch_ns_per_lane_node".into(), "span"));
    }

    let mut assembly: Vec<u64> =
        spans_of(&traffic, &["batch_assembly"]).iter().map(|s| s.dur_ns).collect();
    if assembly.is_empty() {
        // 16-eval v2 batches over the workload's own cases, through the
        // same traced engine path.
        let n = w.tenants.len();
        let mut line = String::new();
        for i in 0..32 {
            w.render(&Req::Batch { ts: (0..16).map(|j| (i + j) % n).collect() }, 1, &mut line);
            let (.., trace, _) = replay_one(&traced_engine, &line, true);
            let spans = trace.map(|t| t.spans).unwrap_or_default();
            assembly.extend(spans.iter().filter(|s| s.name == "batch_assembly").map(|s| s.dur_ns));
        }
        source.push(("engine.batch_assembly_ns".into(), "probe"));
    } else {
        source.push(("engine.batch_assembly_ns".into(), "span"));
    }
    m.set("engine.batch_assembly_ns", median_u64(assembly.into_iter()), "ns");
    drop(traced_engine);
    for replayed in ["replay-traced", "replay-plain"] {
        let _ = std::fs::remove_dir_all(dir.join(replayed));
    }

    // Layers the engine does not report: their entry points, on the
    // workload's own inputs.
    let importance: Vec<f64> = cases
        .iter()
        .map(|case| time_median(3, || birnbaum_importance(case)) / leaves(case).len() as f64)
        .collect();
    m.set("importance.ns_per_leaf", median(&importance), "ns");

    let from_json: Vec<f64> = picked
        .iter()
        .zip(&cases)
        .map(|(&t, case)| {
            let doc = &w.tenants[t].doc;
            let reps = if doc.len() > 100_000 { 1 } else { 5 };
            time_median(reps, || {
                let depcase_service::protocol::Json(value) =
                    serde_json::from_str(doc).expect("benchmark documents parse");
                Case::from_value(&value).expect("benchmark documents are cases")
            }) / case.len() as f64
        })
        .collect();
    m.set("graph.from_json_ns_per_node", median(&from_json), "ns");

    let speedups: Vec<f64> = cases
        .iter()
        .zip(&picked)
        .map(|(case, &t)| {
            let full = time_median(5, || Incremental::new(case.clone()));
            let mut session = Incremental::new(case.clone()).expect("workload cases evaluate");
            let leaf = w.tenants[t].edit_leaves[0];
            let mut flip = false;
            let spine = time_median(64, || {
                flip = !flip;
                session.set_confidence(leaf, if flip { 0.75 } else { 0.8 })
            });
            full / spine.max(1.0)
        })
        .collect();
    m.set("incremental.speedup_vs_full", median(&speedups), "ratio");

    let sink = Telemetry::new();
    let per_trace: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..500 {
                let tb = sink.start_trace(Instant::now()).expect("tracing is on");
                sink.finish(*tb);
            }
            ns(started.elapsed()) as f64 / 500.0
        })
        .collect();
    m.set("telemetry.trace_ns", median(&per_trace), "ns");

    durability_layers(w, timed, &traced, a, dir, m, &mut source)?;
    claims(w, dir, m)?;
    ladder(w.seed, m);

    write_spans(&traced, a, &dir.join("spans.jsonl"))?;
    for (metric, from) in source {
        m.set(format!("source.{metric}.{from}"), 1.0, "count");
    }
    if reconciled_share < 0.99 {
        println!("# only {:.2}% of traced requests reconcile within ±5%", 100.0 * reconciled_share);
    }
    if replay_errors > 0 {
        println!("# {replay_errors} replayed requests answered an error");
    }
    Ok(reconciled_share >= 0.99 && replay_errors == 0)
}

/// WAL and snapshot layers: engine spans of the durable replay
/// (`fleet_churn`), else the entry points on the workload's own cases.
fn durability_layers(
    w: &Workload,
    timed: &Timed,
    traced: &[Rec],
    arena: &[Span],
    dir: &Path,
    m: &mut Metrics,
    source: &mut Vec<(String, &'static str)>,
) -> Result<(), String> {
    let durations = |name: &'static str| -> Vec<u64> {
        traced
            .iter()
            .flat_map(|r| r.named(arena, &[name][..]).map(|s| s.dur_ns).collect::<Vec<_>>())
            .collect()
    };
    let appends = durations("wal_append");
    let snapshots = durations("snapshot_write");

    // A WAL of the workload's own mutations: set-up loads, then the
    // first edit of each tenant (at most `limit` of each).
    let probe = crate::wire::fresh_dir(dir.join("probe-store"))?;
    let wal_path = probe.join("wal.log");
    let (mut wal, _) = Wal::open(&wal_path, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    let mut append_ns = Vec::new();
    let mut seq = 0u64;
    let mut push =
        |wal: &mut Wal, name: &str, version: u64, hash: u64, op: WalOp| -> Result<(), String> {
            seq += 1;
            let record = WalRecord { seq, ts_ms: 0, name: name.to_string(), version, hash, op };
            let started = Instant::now();
            wal.append(&record).map_err(|e| e.to_string())?;
            append_ns.push(ns(started.elapsed()));
            Ok(())
        };
    let limit = 512usize;
    for tenant in w.tenants.iter().take(limit) {
        let doc = crate::json::parse(&tenant.doc)?;
        push(&mut wal, &tenant.name, 1, tenant.base.content_hash(), WalOp::Load { doc })?;
    }
    for t in 0..w.tenants.len().min(limit) {
        let (leaf, confidence) = w.edit_of(t, 0);
        let node = w.tenants[t].base.node(leaf).expect("own leaf").name.clone();
        let action = depcase_service::EditAction::SetConfidence { node, confidence };
        let base_hash = w.tenants[t].base.content_hash();
        push(
            &mut wal,
            &w.tenants[t].name,
            2,
            w.case_at(t, 2).content_hash(),
            WalOp::Edit { base_hash, action },
        )?;
    }
    drop(wal);
    let records = seq as f64;
    let opened = time_median(3, || {
        Wal::open(&wal_path, FsyncPolicy::Never).map(|(_, replay)| replay.records.len())
    });
    m.set("wal.replay_us_per_record", opened / 1e3 / records.max(1.0), "us");
    if appends.is_empty() {
        m.set("wal.append_ns", median_u64(append_ns.into_iter()), "ns");
        source.push(("wal.append_ns".into(), "probe"));
    } else {
        m.set("wal.append_ns", median_u64(appends.into_iter()), "ns");
        source.push(("wal.append_ns".into(), "span"));
    }

    // Snapshot write: the engine's span, else a full snapshot of the
    // workload's registry written through the store.
    let store = Store::open(&probe).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut cases = Vec::new();
    for tenant in w.tenants.iter().take(limit) {
        let hash = tenant.base.content_hash();
        store.write_object(hash, &crate::json::parse(&tenant.doc)?).map_err(|e| e.to_string())?;
        cases.push(ManifestCase {
            name: tenant.name.clone(),
            history: vec![VersionRecord { version: 1, hash, ts_ms: 0 }],
        });
    }
    store.write_manifest(&Manifest { seq, cases }).map_err(|e| e.to_string())?;
    let probe_write_ms = ns(started.elapsed()) as f64 / 1e6;
    if snapshots.is_empty() {
        m.set("snapshot.write_ms", probe_write_ms, "ms");
        source.push(("snapshot.write_ms".into(), "probe"));
    } else {
        m.set("snapshot.write_ms", median_u64(snapshots.into_iter()) / 1e6, "ms");
        source.push(("snapshot.write_ms".into(), "span"));
    }

    // Restore: manifest plus every object, from the run's own data dir
    // when the workload is durable, else from the probe store.
    let restore_dir = timed.data_dir.clone().unwrap_or(probe.clone());
    let store = Store::open(&restore_dir).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let manifest = store.load_manifest().map_err(|e| e.to_string())?.unwrap_or_default();
    let mut objects = 0usize;
    for case in &manifest.cases {
        for record in &case.history {
            std::hint::black_box(store.read_object(record.hash).map_err(|e| e.to_string())?);
            objects += 1;
        }
    }
    m.set(
        "snapshot.restore_us_per_object",
        ns(started.elapsed()) as f64 / 1e3 / objects.max(1) as f64,
        "us",
    );
    let _ = std::fs::remove_dir_all(&probe);
    Ok(())
}

/// The re-measured ROADMAP claims, on current-version reads (`eval`,
/// `bands`, `batch`) of the workload's stream: with the server's
/// per-request telemetry sequence against without it, and on a durable
/// engine against an in-memory one.
fn claims(w: &Workload, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let reads: Vec<Req> = w
        .stream(0)
        .filter(|req| matches!(req, Req::Eval { .. } | Req::Bands { .. } | Req::Batch { .. }))
        .take(400)
        .collect();
    let mut used: Vec<usize> = reads
        .iter()
        .flat_map(|req| match req {
            Req::Eval { t } | Req::Bands { t, .. } => vec![*t],
            Req::Batch { ts } => ts.clone(),
            _ => Vec::new(),
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    // Two pairs of engines holding the same cases, each pair seeing the
    // same request sequence: in-memory with and without telemetry, and
    // in-memory against durable.
    let engines = [
        engine(false, dir)?,
        engine(false, dir)?,
        engine(false, dir)?,
        engine(true, &dir.join("claims-durable"))?,
    ];
    let mut line = String::new();
    for t in used {
        w.render(&Req::Load { t }, 1, &mut line);
        for e in &engines {
            let request = parse_request(&line).expect("load lines parse").request;
            e.handle(&request).map_err(|e| e.message)?;
        }
    }
    let lines: Vec<String> = reads
        .iter()
        .map(|req| {
            w.render(req, 1, &mut line);
            line.clone()
        })
        .collect();
    let once = |engine: &Engine, line: &str, with_telemetry: bool| -> f64 {
        let started = Instant::now();
        if with_telemetry {
            server_sequence(engine, line);
        } else {
            let envelope = parse_request(line).expect("benchmark lines parse");
            let result = engine.handle(&envelope.request);
            std::hint::black_box(Response::from(result).render(envelope.version, &envelope.id));
        }
        ns(started.elapsed()) as f64
    };
    // Each read runs on both sides of a pair back to back, the side
    // going first alternating; a claim is the median paired ratio.
    let paired = |a: &Engine, a_tel: bool, b: &Engine, b_tel: bool| -> f64 {
        let mut ratios = Vec::new();
        for round in 0..4 {
            for (i, line) in lines.iter().enumerate() {
                let (x, y) = if (round + i) % 2 == 0 {
                    let x = once(a, line, a_tel);
                    (x, once(b, line, b_tel))
                } else {
                    let y = once(b, line, b_tel);
                    (once(a, line, a_tel), y)
                };
                ratios.push(y / x);
            }
        }
        100.0 * (median(&ratios) - 1.0)
    };
    m.set("telemetry.overhead_pct", paired(&engines[0], false, &engines[1], true), "%");
    m.set("wal.read_overhead_pct", paired(&engines[2], false, &engines[3], false), "%");
    let _ = std::fs::remove_dir_all(dir.join("claims-durable"));
    Ok(())
}

/// The server's per-request telemetry sequence around one request:
/// `start_trace` → root phases → `install` → `handle` → `take_current`
/// → `finish`.
fn server_sequence(engine: &Engine, line: &str) {
    let accepted = Instant::now();
    let mut tb = engine.telemetry().start_trace(accepted);
    if let Some(tb) = tb.as_mut() {
        tb.begin_at("queue_wait", accepted);
        tb.end();
        tb.begin("parse");
    }
    let envelope = parse_request(line).expect("benchmark lines parse");
    if let Some(tb) = tb.as_mut() {
        tb.end();
        tb.set_op(envelope.request.op_name());
        tb.begin("engine");
    }
    if let Some(tb) = tb.take() {
        telemetry::install(tb);
    }
    let result = engine.handle(&envelope.request);
    let mut tb = telemetry::take_current();
    if let Some(tb) = tb.as_mut() {
        tb.end_open();
        tb.set_ok(result.is_ok());
        tb.begin("reply_flush");
    }
    std::hint::black_box(Response::from(result).render(envelope.version, &envelope.id));
    if let Some(tb) = tb {
        engine.telemetry().finish(*tb);
    }
}

/// The kernel size ladder (Diemert & Weber's scalability questions):
/// per-node propagation, per-sample·node Monte-Carlo and per-leaf
/// importance cost at 256, 1024 and 4096 nodes; dirty-spine cost at
/// depths 4, 8 and 12; and the cost of a fully memoised compile at low
/// and high memo-store occupancy.
fn ladder(seed: u64, m: &mut Metrics) {
    for nodes in [256usize, 1024, 4096] {
        let case =
            generate_case(&mut Rng::new(mix(&[seed, 0x1add, nodes as u64])), "ladder", nodes, 8, 4);
        let n = case.len() as f64;
        let full = time_median(5, || Incremental::new(case.clone()));
        m.set(format!("propagation.ns_per_node.n{nodes}"), full / n, "ns");
        let plan = EvalPlan::compile(&case).expect("ladder cases compile");
        let samples = 4096u32;
        let mc = time_median(3, || MonteCarlo::new(samples).seed(seed).threads(1).run_plan(&plan));
        m.set(
            format!("monte_carlo.ns_per_sample_node.n{nodes}"),
            mc / (f64::from(samples) * n),
            "ns",
        );
        let imp = time_median(3, || birnbaum_importance(&case));
        m.set(format!("importance.ns_per_leaf.n{nodes}"), imp / leaves(&case).len() as f64, "ns");
    }
    for depth in [4usize, 8, 12] {
        let case = generate_case(
            &mut Rng::new(mix(&[seed, 0xdee9, depth as u64])),
            "ladder",
            1024,
            depth,
            8,
        );
        let depths = crate::workload::depths(&case);
        let deepest = leaves(&case)
            .into_iter()
            .max_by_key(|id| depths[id])
            .expect("ladder cases have leaves");
        let mut session = Incremental::new(case).expect("ladder cases evaluate");
        let mut rng = Rng::new(mix(&[seed, depth as u64]));
        let spine = time_median(201, || session.set_confidence(deepest, rng.confidence()));
        m.set(format!("incremental.spine_ns.d{depth}"), spine, "ns");
    }
    let store = Arc::new(SharedMemo::new(depcase_service::DEFAULT_MEMO_ENTRIES));
    let case = generate_case(&mut Rng::new(mix(&[seed, 0x3e30])), "ladder", 1024, 8, 4);
    let n = case.len() as f64;
    let memoised = |store: &Arc<SharedMemo>| {
        let shared = Arc::clone(store) as Arc<dyn MemoStore>;
        Incremental::with_memo(case.clone(), Arc::clone(&shared)).expect("ladder cases evaluate");
        time_median(5, || Incremental::with_memo(case.clone(), Arc::clone(&shared))) / n
    };
    m.set("memo.hit_ns_per_node.low", memoised(&store), "ns");
    // Fill the store to ~90% with unrelated subtree results.
    let mut rng = Rng::new(mix(&[seed, 0xf111]));
    let fill = depcase_service::DEFAULT_MEMO_ENTRIES * 9 / 10;
    let value = NodeConfidence { independent: 0.9, worst_case: 0.8, best_case: 0.95 };
    for _ in 0..fill {
        store.insert(rng.next_u64(), value);
    }
    m.set("memo.hit_ns_per_node.high", memoised(&store), "ns");
}

fn write_spans(recs: &[Rec], arena: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(recs.len() * 160);
    for r in recs {
        let _ = write!(
            out,
            r#"{{"client":{},"index":{},"setup":{},"op":"{}","parse_ns":{},"handle_ns":{},"render_ns":{},"total_ns":{},"untraced_total_ns":{},"importance_ns":{},"spans":["#,
            r.client,
            if r.setup { -1 } else { r.index as i64 },
            r.setup,
            r.op,
            r.parse_ns,
            r.handle_ns,
            r.render_ns,
            r.total_ns,
            r.plain_total_ns,
            r.importance_ns
        );
        for (i, s) in arena[r.spans.clone()].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                r#"{sep}{{"name":"{}","parent":{parent},"start_ns":{},"dur_ns":{},"count":{}}}"#,
                s.name, s.start_ns, s.dur_ns, s.count
            );
        }
        out.push_str("]}\n");
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

//! The answer oracle: sampled answers are recomputed in-process with
//! the library and compared `to_bits`.
//!
//! - `eval`, `eval` at a version, `batch` items and `bands` against
//!   `Case::propagate` of the case at the version the answer names;
//! - `rank` against `birnbaum_importance`;
//! - `mc` against `MonteCarlo::run_plan` with the request's seed;
//! - `edit` against an `Incremental` mirror of the client's own
//!   tenants, which replays every edit the client sent, in order;
//! - `history` against the version count and hash the client knows.

use crate::wire::{parse, ClientLog};
use crate::workload::{Req, Workload};
use depcase::assurance::{birnbaum_importance, Case, EvalPlan, Incremental, MonteCarlo};
use depcase_service::protocol::format_hash;
use serde::Value;
use std::collections::HashMap;

#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn record(&mut self, outcome: Result<(), String>) {
        self.checked += 1;
        if let Err(note) = outcome {
            self.mismatches += 1;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

fn f64_bits(v: Option<&Value>) -> Option<u64> {
    v.and_then(Value::as_f64).map(f64::to_bits)
}

fn same(what: &str, got: Option<u64>, want: f64) -> Result<(), String> {
    match got {
        Some(bits) if bits == want.to_bits() => Ok(()),
        _ => Err(format!("{what}: got {:?}, want {want:e}", got.map(f64::from_bits))),
    }
}

fn version_of(result: &Value) -> Result<u64, String> {
    result.get("version").and_then(Value::as_u64).ok_or("answer names no version".to_string())
}

fn check_hash(result: &Value, case: &Case) -> Result<(), String> {
    let want = format_hash(case.content_hash());
    match result.get("hash").and_then(Value::as_str) {
        Some(h) if h == want => Ok(()),
        other => Err(format!("hash {other:?}, want {want}")),
    }
}

/// An `eval` result body against `Case::propagate` of `case`.
fn check_eval(result: &Value, case: &Case) -> Result<(), String> {
    check_hash(result, case)?;
    let report = case.propagate().map_err(|e| e.to_string())?;
    if let Some(top) = report.top() {
        same("root_confidence", f64_bits(result.get("root_confidence")), top.independent)?;
    }
    let nodes = result.get("nodes").and_then(Value::as_array).ok_or("no nodes")?;
    let expected = case.iter().filter(|(id, _)| report.confidence(*id).is_some()).count();
    if nodes.len() != expected {
        return Err(format!("{} nodes, want {expected}", nodes.len()));
    }
    for node in nodes {
        let name = node.get("name").and_then(Value::as_str).ok_or("unnamed node")?;
        let id = case.node_by_name(name).ok_or(format!("unknown node {name}"))?;
        let c = report.confidence(id).ok_or(format!("{name} does not participate"))?;
        same(name, f64_bits(node.get("confidence")), c.independent)?;
        same(name, f64_bits(node.get("worst_case")), c.worst_case)?;
        same(name, f64_bits(node.get("best_case")), c.best_case)?;
    }
    Ok(())
}

fn check_rank(result: &Value, case: &Case) -> Result<(), String> {
    check_hash(result, case)?;
    let ranking = birnbaum_importance(case).map_err(|e| e.to_string())?;
    let rows = result.get("evidence").and_then(Value::as_array).ok_or("no evidence")?;
    if rows.len() != ranking.len() {
        return Err(format!("{} rows, want {}", rows.len(), ranking.len()));
    }
    for (row, want) in rows.iter().zip(&ranking) {
        if row.get("name").and_then(Value::as_str) != Some(want.name.as_str()) {
            return Err(format!("rank order differs at {}", want.name));
        }
        same(&want.name, f64_bits(row.get("confidence")), want.confidence)?;
        same(&want.name, f64_bits(row.get("birnbaum")), want.birnbaum)?;
        same(&want.name, f64_bits(row.get("gain_if_certain")), want.gain_if_certain)?;
    }
    Ok(())
}

fn check_mc(result: &Value, case: &Case, samples: u32, seed: u64) -> Result<(), String> {
    check_hash(result, case)?;
    let plan = EvalPlan::compile(case).map_err(|e| e.to_string())?;
    let report = MonteCarlo::new(samples)
        .seed(seed)
        .threads(1)
        .run_plan(&plan)
        .map_err(|e| e.to_string())?;
    let rows = result.get("estimates").and_then(Value::as_array).ok_or("no estimates")?;
    let expected = case.iter().filter(|(id, _)| report.estimate(*id).is_some()).count();
    if rows.len() != expected {
        return Err(format!("{} estimates, want {expected}", rows.len()));
    }
    for row in rows {
        let name = row.get("name").and_then(Value::as_str).ok_or("unnamed estimate")?;
        let id = case.node_by_name(name).ok_or(format!("unknown node {name}"))?;
        same(name, f64_bits(row.get("estimate")), report.estimate(id).ok_or("no estimate")?)?;
    }
    Ok(())
}

/// The result body of a sampled answer, or why it has none.
fn result_of(answer: &str) -> Result<Value, String> {
    let value = parse(answer)?;
    value.get("result").cloned().ok_or_else(|| format!("no result: {answer:.200}"))
}

/// Checks one sampled answer that needs no mirror state.
fn check_read(w: &Workload, req: &Req, result: &Value) -> Result<(), String> {
    match req {
        Req::Eval { t } => check_eval(result, &w.case_at(*t, version_of(result)?)),
        Req::EvalAt { t, version } => {
            if version_of(result)? != *version {
                return Err(format!("eval at version {version} answered another version"));
            }
            check_eval(result, &w.case_at(*t, *version))
        }
        Req::Bands { t, .. } => {
            let case = w.case_at(*t, version_of(result)?);
            check_hash(result, &case)?;
            let top = case.propagate().map_err(|e| e.to_string())?.top().ok_or("no root")?;
            same("root_confidence", f64_bits(result.get("root_confidence")), top.independent)
        }
        Req::Batch { ts } => {
            let items = result.get("items").and_then(Value::as_array).ok_or("no items")?;
            if items.len() != ts.len() {
                return Err(format!("{} items for {} evals", items.len(), ts.len()));
            }
            for (item, t) in items.iter().zip(ts) {
                let body = item.get("result").ok_or("batch item without result")?;
                check_eval(body, &w.case_at(*t, version_of(body)?))?;
            }
            Ok(())
        }
        Req::History { t, version } => {
            let current = result.get("current_version").and_then(Value::as_u64);
            let versions = result.get("versions").and_then(Value::as_array).map(<[Value]>::len);
            if current != Some(*version) || versions != Some(*version as usize) {
                return Err(format!("history {current:?}/{versions:?}, want {version}"));
            }
            let want = format_hash(w.case_at(*t, *version).content_hash());
            match result.get("current_hash").and_then(Value::as_str) {
                Some(h) if h == want => Ok(()),
                other => Err(format!("current_hash {other:?}, want {want}")),
            }
        }
        Req::Rank { t } => check_rank(result, &w.case_at(*t, version_of(result)?)),
        Req::Mc { t, samples, seed } => {
            check_mc(result, &w.case_at(*t, version_of(result)?), *samples, *seed)
        }
        Req::LoadVariant { t, client, k } => {
            let (_, case) = w.variant(*t, *client, *k);
            if version_of(result)? != 1 {
                return Err("fresh variant load is not version 1".into());
            }
            check_hash(result, &case)
        }
        Req::Load { .. } | Req::Edit { .. } => {
            unreachable!("set-up loads are checked at set-up, edits against the mirror")
        }
    }
}

/// Re-checks every sampled answer of every client.
pub fn verify(w: &Workload, logs: &[ClientLog]) -> Verdict {
    let mut verdict = Verdict::default();
    for log in logs {
        let answers: HashMap<usize, &str> =
            log.sampled.iter().map(|(i, a)| (*i, a.as_str())).collect();
        let mut mirrors: HashMap<usize, Incremental> = HashMap::new();
        for (index, req) in log.reqs.iter().enumerate() {
            let answer = answers.get(&index);
            if let Req::Edit { t, k } = req {
                // Every edit advances the mirror; sampled ones are checked.
                let mirror = mirrors.entry(*t).or_insert_with(|| {
                    Incremental::new(w.tenants[*t].base.clone()).expect("set-up cases evaluate")
                });
                let (leaf, conf) = w.edit_of(*t, *k);
                mirror.set_confidence(leaf, conf).expect("edit leaves carry confidence");
                if let Some(answer) = answer {
                    verdict.record(result_of(answer).and_then(|r| check_edit(&r, mirror, *k)));
                }
                continue;
            }
            if let Some(answer) = answer {
                let outcome = result_of(answer).and_then(|r| check_read(w, req, &r));
                verdict.record(outcome.map_err(|e| format!("{} #{index}: {e}", req.op())));
            }
        }
    }
    verdict
}

fn check_edit(result: &Value, mirror: &Incremental, k: u64) -> Result<(), String> {
    if version_of(result)? != k + 2 {
        return Err(format!("edit #{k} answered version {:?}", result.get("version")));
    }
    let want = format_hash(mirror.case_hash());
    if result.get("hash").and_then(Value::as_str) != Some(want.as_str()) {
        return Err(format!("edit #{k} hash differs from the mirror's {want}"));
    }
    let top = mirror.report().top().ok_or("mirror has no single root")?;
    same("edit root_confidence", f64_bits(result.get("root_confidence")), top.independent)
}

//! Service clients: the plain one-line-in, one-line-out [`Client`] and
//! a [`RetryingClient`] that rides out transient faults.
//!
//! Transport failures surface as typed [`depcase::Error::Service`]
//! values with stable codes — `io` for socket errors, and
//! `connection_closed` when the server hangs up mid-exchange — so
//! callers can branch on the failure class instead of string-matching
//! an `io::Error`.
//!
//! [`RetryingClient`] implements the client half of the fault model
//! (DESIGN §11): reconnect on transport errors, resend on the
//! retryable wire codes (`overloaded`, `internal_error`,
//! `deadline_exceeded`, `read_only` — the full classification lives in
//! [`code_is_retryable`]), honor the server's `retry_after_ms` hint when
//! present, and otherwise back off with exponential, decorrelated
//! jitter so a thundering herd of retries does not re-create the
//! overload it is retrying around. The jitter is seeded — the same
//! seed replays the same backoff schedule, matching the determinism
//! discipline of the rest of the crate.

use crate::protocol::{ErrorCode, MAX_BATCH_ITEMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Blocking NDJSON client for the assessment service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let write_half = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer: BufWriter::new(write_half) })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// [`depcase::Error::Service`] with code `io` when the transport
    /// fails, or `connection_closed` when the server closes the
    /// connection before answering.
    pub fn round_trip(&mut self, line: &str) -> depcase::Result<String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| depcase::Error::service("io", format!("send failed: {e}")))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| depcase::Error::service("io", format!("receive failed: {e}")))?;
        if n == 0 {
            return Err(depcase::Error::service(
                "connection_closed",
                "server closed the connection before answering",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// [`Client::round_trip`], then parses the response: `Ok(result)`
    /// for a success line, or the wire error mapped back to a typed
    /// [`depcase::Error::Service`] carrying its stable code.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; `bad_response`
    /// when the line is not a well-formed response; otherwise the wire
    /// error's own code and message.
    pub fn round_trip_value(&mut self, line: &str) -> depcase::Result<Value> {
        let response = self.round_trip(line)?;
        let value = serde_json::value_from_str(&response).map_err(|e| {
            depcase::Error::service("bad_response", format!("unparseable response line: {e}"))
        })?;
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => value.get("result").cloned().ok_or_else(|| {
                depcase::Error::service("bad_response", "success line without a result")
            }),
            Some(false) => {
                let error = value.get("error");
                let code = error
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("bad_response");
                let message = error
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap_or("error line without a message");
                Err(depcase::Error::service(code, message))
            }
            None => Err(depcase::Error::service(
                "bad_response",
                "response line carries no boolean `ok`",
            )),
        }
    }

    /// Fetches the server's recent span trees plus the per-op latency
    /// decomposition (the `trace` op). `limit` caps how many trace
    /// trees come back, newest first.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; the wire error
    /// (e.g. `bad_request` for an out-of-range limit) otherwise.
    pub fn trace(&mut self, limit: usize) -> depcase::Result<Value> {
        let request = Value::Object(vec![
            ("op".to_string(), Value::Str("trace".to_string())),
            ("limit".to_string(), Value::U64(limit as u64)),
        ]);
        self.round_trip_value(&serde_json::value_to_string(&request))
    }

    /// Fetches the unified metrics registry as structured JSON (the
    /// `metrics` op without a format override).
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; the wire error
    /// otherwise.
    pub fn metrics(&mut self) -> depcase::Result<Value> {
        self.round_trip_value(r#"{"op":"metrics"}"#)
    }

    /// Fetches the metrics registry rendered as Prometheus text
    /// exposition, ready to serve to a scraper.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; `bad_response`
    /// when the reply does not carry the expected `text` field.
    pub fn metrics_prometheus(&mut self) -> depcase::Result<String> {
        let value = self.round_trip_value(r#"{"op":"metrics","format":"prometheus"}"#)?;
        value.get("text").and_then(Value::as_str).map(str::to_string).ok_or_else(|| {
            depcase::Error::service("bad_response", "metrics reply without a text field")
        })
    }

    /// Evaluates many cases in one wire exchange: the names are packed
    /// into `"v":2` `batch` requests ([`MAX_BATCH_ITEMS`] per line, so
    /// any number of names works), sent with **one write syscall per
    /// batch**, and answered positionally — `result[i]` is the eval of
    /// `names[i]`, success or its own typed error.
    ///
    /// Identical names in one batch coalesce server-side into a single
    /// evaluation, and distinct same-shape cases run the vectorized
    /// batch kernel; either way the answers are bit-identical to
    /// one-at-a-time `eval` calls.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; `bad_response`
    /// when the batch envelope itself cannot be parsed. Per-item
    /// failures (e.g. `unknown_case`) land in their own slot instead of
    /// failing the call.
    pub fn eval_many(&mut self, names: &[&str]) -> depcase::Result<Vec<depcase::Result<Value>>> {
        let mut results = Vec::with_capacity(names.len());
        for chunk in names.chunks(MAX_BATCH_ITEMS.max(1)) {
            let items: Vec<Value> = chunk.iter().map(|name| eval_item(name)).collect();
            results.extend(self.batch_round_trip(&items)?);
        }
        Ok(results)
    }

    /// Sends one `"v":2` `batch` of raw item objects (each shaped like
    /// a request body without an id, e.g. `{"op":"eval","name":"x"}`)
    /// in a single write syscall, and returns the per-item outcomes in
    /// item order.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Client::round_trip`]; the batch-level
    /// wire error (e.g. `invalid_batch`, `overloaded`) when the server
    /// rejects the envelope as a whole.
    pub fn batch_round_trip(
        &mut self,
        items: &[Value],
    ) -> depcase::Result<Vec<depcase::Result<Value>>> {
        Ok(self.batch_raw(items)?.iter().map(item_outcome).collect())
    }

    /// One batch exchange returning the raw per-item objects, so
    /// callers that need wire detail (the retrying client reads each
    /// item's `retry_after_ms` hint) can keep it.
    pub(crate) fn batch_raw(&mut self, items: &[Value]) -> depcase::Result<Vec<Value>> {
        let envelope = Value::Object(vec![
            ("v".to_string(), Value::U64(2)),
            ("op".to_string(), Value::Str("batch".to_string())),
            ("items".to_string(), Value::Array(items.to_vec())),
        ]);
        let response = self.round_trip(&serde_json::value_to_string(&envelope))?;
        parse_batch_response(&response, items.len())
    }
}

/// One positional `eval` item for a batch envelope.
fn eval_item(name: &str) -> Value {
    Value::Object(vec![
        ("op".to_string(), Value::Str("eval".to_string())),
        ("name".to_string(), Value::Str(name.to_string())),
    ])
}

/// Splits a batch response line into raw per-item objects, enforcing
/// that the server answered every item positionally.
fn parse_batch_response(response: &str, expected: usize) -> depcase::Result<Vec<Value>> {
    let value = serde_json::value_from_str(response).map_err(|e| {
        depcase::Error::service("bad_response", format!("unparseable response line: {e}"))
    })?;
    match value.get("ok").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => {
            let error = value.get("error");
            let code =
                error.and_then(|e| e.get("code")).and_then(Value::as_str).unwrap_or("bad_response");
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("error line without a message");
            return Err(depcase::Error::service(code, message));
        }
        None => {
            return Err(depcase::Error::service(
                "bad_response",
                "response line carries no boolean `ok`",
            ))
        }
    }
    let items =
        value.get("result").and_then(|r| r.get("items")).and_then(Value::as_array).ok_or_else(
            || depcase::Error::service("bad_response", "batch success line without an items array"),
        )?;
    if items.len() != expected {
        return Err(depcase::Error::service(
            "bad_response",
            format!("batch answered {} items for {expected} requests", items.len()),
        ));
    }
    Ok(items.to_vec())
}

/// Maps one batch item object to the outcome its standalone request
/// would have produced.
fn item_outcome(item: &Value) -> depcase::Result<Value> {
    match item.get("ok").and_then(Value::as_bool) {
        Some(true) => item.get("result").cloned().ok_or_else(|| {
            depcase::Error::service("bad_response", "success item without a result")
        }),
        Some(false) => {
            let error = item.get("error");
            let code =
                error.and_then(|e| e.get("code")).and_then(Value::as_str).unwrap_or("bad_response");
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("error item without a message");
            Err(depcase::Error::service(code, message))
        }
        None => Err(depcase::Error::service("bad_response", "item carries no boolean `ok`")),
    }
}

/// Retry tunables for [`RetryingClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Smallest backoff sleep in milliseconds.
    pub base_ms: u64,
    /// Largest backoff sleep in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream; a fixed seed replays a fixed
    /// backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, base_ms: 5, cap_ms: 500, seed: 0x5EED }
    }
}

/// A [`Client`] wrapper that retries transient failures.
///
/// Retries happen on transport errors (the connection is re-dialed)
/// and on the wire codes [`code_is_retryable`] marks transient —
/// `overloaded`, `internal_error`, `deadline_exceeded`, and the
/// storage-degradation signal `read_only`. Anything else — application
/// errors like `unknown_case`, but also `storage_error` and
/// `data_corrupted`, which a resend cannot fix — returns to the caller
/// untouched on the first attempt.
pub struct RetryingClient {
    addr: SocketAddr,
    client: Option<Client>,
    policy: RetryPolicy,
    rng: StdRng,
    retries: u64,
    retried_codes: Vec<String>,
}

impl RetryingClient {
    /// Resolves `addr` and prepares a client; the first connection is
    /// dialed lazily on the first request.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when `addr` does not resolve.
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(RetryingClient {
            addr,
            client: None,
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            retries: 0,
            retried_codes: Vec::new(),
        })
    }

    /// How many retry attempts (beyond first sends) this client has
    /// made across all requests so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Every wire error code (or transport pseudo-code) that triggered
    /// a retry, in order.
    #[must_use]
    pub fn retried_codes(&self) -> &[String] {
        &self.retried_codes
    }

    /// Sends one request line, retrying transient failures, and
    /// returns the final response line.
    ///
    /// # Errors
    ///
    /// The last transient [`depcase::Error::Service`] once the attempt
    /// budget is exhausted.
    pub fn round_trip(&mut self, line: &str) -> depcase::Result<String> {
        let mut prev_sleep = self.policy.base_ms;
        let mut last_err =
            depcase::Error::service("retry_exhausted", "no attempt was made (max_attempts = 0)");
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.retries += 1;
            }
            match self.try_once(line) {
                Ok(response) => match retryable(&response) {
                    None => return Ok(response),
                    Some((code, retry_after_ms)) => {
                        self.retried_codes.push(code.clone());
                        last_err = depcase::Error::service(
                            code,
                            "service answered a retryable error on the final attempt",
                        );
                        let backoff = self.next_backoff(&mut prev_sleep);
                        thread::sleep(Duration::from_millis(retry_after_ms.unwrap_or(backoff)));
                    }
                },
                Err(err) => {
                    // Transport trouble: whatever the socket state is,
                    // it is not worth diagnosing — drop it and re-dial
                    // on the next attempt.
                    self.client = None;
                    if let depcase::Error::Service { code, .. } = &err {
                        self.retried_codes.push(code.clone());
                    }
                    last_err = err;
                    let backoff = self.next_backoff(&mut prev_sleep);
                    thread::sleep(Duration::from_millis(backoff));
                }
            }
        }
        Err(last_err)
    }

    /// [`Client::eval_many`] with the retry discipline applied **per
    /// item**: each round resends only the items that answered a
    /// retryable code, sleeping the largest `retry_after_ms` hint any
    /// retried item carried (decorrelated backoff when no item offered
    /// a hint). Settled items keep their first final answer — a
    /// `unknown_case` in slot 2 never causes slot 3 to be re-sent.
    ///
    /// # Errors
    ///
    /// A batch-level or transport error that is not transient; or, once
    /// the attempt budget is exhausted, the last transient error (items
    /// already settled are lost with it — the call is all-or-nothing).
    pub fn eval_many(&mut self, names: &[&str]) -> depcase::Result<Vec<depcase::Result<Value>>> {
        let mut slots: Vec<Option<depcase::Result<Value>>> = names.iter().map(|_| None).collect();
        let mut open: Vec<usize> = (0..names.len()).collect();
        let mut prev_sleep = self.policy.base_ms;
        let mut last_err =
            depcase::Error::service("retry_exhausted", "no attempt was made (max_attempts = 0)");
        for attempt in 0..self.policy.max_attempts.max(1) {
            if open.is_empty() {
                break;
            }
            if attempt > 0 {
                self.retries += 1;
            }
            match self.try_eval_batch(names, &open) {
                Ok(raw_items) => {
                    let mut still_open = Vec::new();
                    let mut hint: Option<u64> = None;
                    for (&slot, item) in open.iter().zip(&raw_items) {
                        if let Some((code, item_hint)) = retryable_item(item) {
                            self.retried_codes.push(code.clone());
                            hint = hint.max(item_hint);
                            last_err = depcase::Error::service(
                                code,
                                "service answered a retryable error on the final attempt",
                            );
                            still_open.push(slot);
                        } else {
                            slots[slot] = Some(item_outcome(item));
                        }
                    }
                    open = still_open;
                    if open.is_empty() {
                        break;
                    }
                    let backoff = self.next_backoff(&mut prev_sleep);
                    thread::sleep(Duration::from_millis(hint.unwrap_or(backoff)));
                }
                Err(err) => {
                    let code = match &err {
                        depcase::Error::Service { code, .. } => code.clone(),
                        _ => return Err(err),
                    };
                    let transport = transport_code(&code);
                    let transient =
                        transport || ErrorCode::parse(&code).is_some_and(code_is_retryable);
                    if !transient {
                        return Err(err);
                    }
                    if transport {
                        self.client = None;
                    }
                    self.retried_codes.push(code);
                    last_err = err;
                    let backoff = self.next_backoff(&mut prev_sleep);
                    thread::sleep(Duration::from_millis(backoff));
                }
            }
        }
        if !open.is_empty() {
            return Err(last_err);
        }
        Ok(slots.into_iter().map(|slot| slot.expect("every settled slot is filled")).collect())
    }

    /// One chunked batch exchange covering exactly the open slots,
    /// returning their raw item objects in `open` order.
    fn try_eval_batch(&mut self, names: &[&str], open: &[usize]) -> depcase::Result<Vec<Value>> {
        if self.client.is_none() {
            let client = Client::connect(self.addr)
                .map_err(|e| depcase::Error::service("io", format!("connect failed: {e}")))?;
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("client was just connected");
        let mut raw = Vec::with_capacity(open.len());
        for chunk in open.chunks(MAX_BATCH_ITEMS.max(1)) {
            let items: Vec<Value> = chunk.iter().map(|&slot| eval_item(names[slot])).collect();
            raw.extend(client.batch_raw(&items)?);
        }
        Ok(raw)
    }

    fn try_once(&mut self, line: &str) -> depcase::Result<String> {
        if self.client.is_none() {
            let client = Client::connect(self.addr)
                .map_err(|e| depcase::Error::service("io", format!("connect failed: {e}")))?;
            self.client = Some(client);
        }
        self.client.as_mut().expect("client was just connected").round_trip(line)
    }

    /// Decorrelated jitter: sleep a uniform draw from
    /// `[base, prev * 3]`, capped. Independent clients seeded
    /// differently spread out instead of retrying in lockstep.
    fn next_backoff(&mut self, prev_sleep: &mut u64) -> u64 {
        let base = self.policy.base_ms.max(1);
        let high = (prev_sleep.saturating_mul(3)).clamp(base, self.policy.cap_ms.max(base));
        let span = (high - base) as f64;
        let sleep = base + (self.rng.gen::<f64>() * span).round() as u64;
        *prev_sleep = sleep;
        sleep
    }
}

/// The retryability table: whether a resend can possibly change the
/// answer for each wire code. This is the **single** classification
/// every retry path in this module consults — [`RetryingClient::round_trip`],
/// [`RetryingClient::eval_many`]'s per-item loop, and its batch-level
/// error handling — so a code can never be retryable in one path and
/// final in another. The match is exhaustive on purpose: adding an
/// [`ErrorCode`] forces a classification decision here.
#[must_use]
pub const fn code_is_retryable(code: ErrorCode) -> bool {
    match code {
        // Transient server states: shed load, a caught panic, a spent
        // budget, and the read-only degradation window (every mutation
        // attempt probes the disk, so retrying after `retry_after_ms`
        // is exactly how the client rides the window out).
        ErrorCode::Overloaded
        | ErrorCode::InternalError
        | ErrorCode::DeadlineExceeded
        | ErrorCode::ReadOnly => true,
        // Final: the request itself is wrong, the named state does not
        // exist, or the stored bytes are damaged — `storage_error` and
        // `data_corrupted` need an operator (or a scrub), not a resend.
        ErrorCode::BadJson
        | ErrorCode::BadRequest
        | ErrorCode::UnknownOp
        | ErrorCode::UnknownCase
        | ErrorCode::BadCase
        | ErrorCode::Case
        | ErrorCode::Confidence
        | ErrorCode::Distribution
        | ErrorCode::Numerics
        | ErrorCode::RequestTooLarge
        | ErrorCode::NoSuchVersion
        | ErrorCode::StorageError
        | ErrorCode::UnsupportedVersion
        | ErrorCode::DataCorrupted => false,
    }
}

/// The transport pseudo-codes this crate's clients emit ([`Client`]
/// docs): both mean the socket, not the request, failed — retryable
/// after a re-dial.
fn transport_code(code: &str) -> bool {
    matches!(code, "io" | "connection_closed")
}

/// Extracts `(code, retry_after_ms)` from one wire error object when
/// its code is retryable per [`code_is_retryable`].
fn retryable_error(error: &Value) -> Option<(String, Option<u64>)> {
    let code = error.get("code").and_then(Value::as_str)?;
    if !ErrorCode::parse(code).is_some_and(code_is_retryable) {
        return None;
    }
    Some((code.to_string(), error.get("retry_after_ms").and_then(Value::as_u64)))
}

/// Extracts `(code, retry_after_ms)` when `response` is an error reply
/// carrying one of the retryable wire codes; `None` means the response
/// is final (success or a non-transient error).
fn retryable(response: &str) -> Option<(String, Option<u64>)> {
    let value = serde_json::value_from_str(response).ok()?;
    if value.get("ok").and_then(Value::as_bool) != Some(false) {
        return None;
    }
    retryable_error(value.get("error")?)
}

/// The per-item spelling of [`retryable`]: extracts
/// `(code, retry_after_ms)` when a batch item answered a retryable
/// error; `None` means the item is settled (success or final error).
fn retryable_item(item: &Value) -> Option<(String, Option<u64>)> {
    if item.get("ok").and_then(Value::as_bool) != Some(false) {
        return None;
    }
    retryable_error(item.get("error")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Json;

    #[test]
    fn retryable_spots_transient_codes_and_the_hint() {
        let overloaded = r#"{"id":1,"ok":false,"error":{"code":"overloaded","message":"m","retry_after_ms":40}}"#;
        assert_eq!(retryable(overloaded), Some(("overloaded".to_string(), Some(40))));
        let panic = r#"{"id":1,"ok":false,"error":{"code":"internal_error","message":"m"}}"#;
        assert_eq!(retryable(panic), Some(("internal_error".to_string(), None)));
        let fatal = r#"{"id":1,"ok":false,"error":{"code":"unknown_case","message":"m"}}"#;
        assert_eq!(retryable(fatal), None);
        let success = r#"{"id":1,"ok":true,"result":{}}"#;
        assert_eq!(retryable(success), None);
        // The storage triple: `read_only` retries on the server's hint,
        // while damaged-data answers are final.
        let degraded = r#"{"id":1,"ok":false,"error":{"code":"read_only","message":"m","retry_after_ms":250}}"#;
        assert_eq!(retryable(degraded), Some(("read_only".to_string(), Some(250))));
        let rot = r#"{"id":1,"ok":false,"error":{"code":"data_corrupted","message":"m"}}"#;
        assert_eq!(retryable(rot), None);
        let disk = r#"{"id":1,"ok":false,"error":{"code":"storage_error","message":"m"}}"#;
        assert_eq!(retryable(disk), None);
    }

    #[test]
    fn the_retryability_table_classifies_every_wire_code() {
        // Pin the table's full output: exactly these four codes are
        // worth a resend, every other code is final. `ErrorCode::ALL`
        // makes this sweep — and the `const fn`'s exhaustive match —
        // break loudly whenever a code is added without classifying it.
        let transient = [
            ErrorCode::Overloaded,
            ErrorCode::InternalError,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ReadOnly,
        ];
        for code in ErrorCode::ALL {
            assert_eq!(
                code_is_retryable(code),
                transient.contains(&code),
                "{} is misclassified",
                code.as_str()
            );
        }
        // Transport pseudo-codes are retryable too (with a re-dial),
        // but only the two this crate's clients emit.
        assert!(transport_code("io"));
        assert!(transport_code("connection_closed"));
        assert!(!transport_code("overloaded"));
        assert!(!transport_code("read_only"));
    }

    #[test]
    fn retryable_item_reads_batch_items_not_response_lines() {
        let parse = |s: &str| {
            let Json(v) = serde_json::from_str::<Json>(s).unwrap();
            v
        };
        let shed = parse(
            r#"{"ok":false,"error":{"code":"overloaded","message":"m","retry_after_ms":15}}"#,
        );
        assert_eq!(retryable_item(&shed), Some(("overloaded".to_string(), Some(15))));
        let fatal = parse(r#"{"ok":false,"error":{"code":"unknown_case","message":"m"}}"#);
        assert_eq!(retryable_item(&fatal), None);
        let settled = parse(r#"{"ok":true,"result":{"root_confidence":0.5}}"#);
        assert_eq!(retryable_item(&settled), None);
    }

    #[test]
    fn batch_responses_must_answer_positionally() {
        let two_for_three = r#"{"id":1,"v":2,"ok":true,"result":{"items":[{"ok":true,"result":1},{"ok":true,"result":2}]}}"#;
        let err = parse_batch_response(two_for_three, 3).unwrap_err();
        assert!(matches!(err, depcase::Error::Service { ref code, .. } if code == "bad_response"));
        let envelope_error =
            r#"{"id":1,"ok":false,"error":{"code":"invalid_batch","message":"m"}}"#;
        let err = parse_batch_response(envelope_error, 1).unwrap_err();
        assert!(matches!(err, depcase::Error::Service { ref code, .. } if code == "invalid_batch"));
    }

    #[test]
    fn backoff_is_seeded_bounded_and_reproducible() {
        let policy = RetryPolicy { max_attempts: 4, base_ms: 10, cap_ms: 120, seed: 99 };
        let schedule = |policy: RetryPolicy| {
            let mut client = RetryingClient::connect(("127.0.0.1", 1), policy).unwrap();
            let mut prev = policy.base_ms;
            (0..6).map(|_| client.next_backoff(&mut prev)).collect::<Vec<_>>()
        };
        let first = schedule(policy);
        let second = schedule(policy);
        assert_eq!(first, second, "same seed must replay the same backoff schedule");
        assert!(first.iter().all(|&ms| (10..=120).contains(&ms)), "backoff must stay in bounds");
        let other = schedule(RetryPolicy { seed: 100, ..policy });
        assert_ne!(first, other, "different seeds should decorrelate retry timing");
    }
}

//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, always in request order
//! even when the engine completes them out of order. Every request is a
//! JSON object with an `"op"` field and an optional client-chosen
//! `"id"`, echoed verbatim in the response so pipelined clients can
//! match answers to questions:
//!
//! ```text
//! → {"id":1,"op":"load","name":"reactor","case":{...}}
//! ← {"id":1,"ok":true,"result":{"name":"reactor","version":1,"hash":"9f2d…","nodes":5}}
//! → {"id":2,"op":"eval","name":"reactor"}
//! ← {"id":2,"ok":true,"result":{...per-node confidences...}}
//! → {"id":3,"op":"edit","name":"reactor","action":"set_confidence","node":"E1","confidence":0.97}
//! ← {"id":3,"ok":true,"result":{"name":"reactor","version":2,...,"nodes_recomputed":3,"nodes_reused":0}}
//! → {"id":4,"op":"nope"}
//! ← {"id":4,"ok":false,"error":{"code":"unknown_op","message":"unknown op `nope`"}}
//! ```
//!
//! Failures carry a stable machine-readable `code`; codes originating in
//! the library map one-to-one from [`depcase::Error`] variants (`case`,
//! `confidence`, `distribution`, `numerics`), while the transport adds
//! `bad_json`, `bad_request`, `unknown_op`, `unknown_case`, `bad_case`,
//! the fault-tolerance codes `internal_error`, `deadline_exceeded`,
//! `overloaded` (with a `retry_after_ms` hint), and `request_too_large`,
//! and the durability codes `no_such_version` (a `history`/time-travel
//! lookup named an unrecorded version), `storage_error` (a WAL or
//! snapshot write failed; the mutation is not durable), `read_only`
//! (the engine degraded to read-only after an unrecoverable append
//! failure — retry after the attached `retry_after_ms`), and
//! `data_corrupted` (the requested version's stored object failed its
//! content-hash check and could not be repaired; it is quarantined,
//! never served silently).
//!
//! Observability rides the same grammar: `stats` snapshots per-op
//! latency (with interpolated p50/p90/p99/p999 summaries next to the
//! raw log2-µs buckets) and a `build` block (version, schema, uptime,
//! transport); `trace` returns the most recent traced requests as span
//! trees plus the per-op latency decomposition (queue wait vs parse vs
//! engine phases vs fsync vs reply flush); `metrics` dumps the unified
//! metrics registry as JSON, or as Prometheus text exposition with
//! `"format":"prometheus"`.
//!
//! The parser is strict about request framing: a line must hold exactly
//! one JSON object — trailing garbage after the object and duplicate
//! keys anywhere in it are rejected as `bad_request`, with whatever `id`
//! could be recovered still echoed so pipelined clients never lose their
//! place. Any request may carry a `"deadline_ms"` budget; the service
//! answers `deadline_exceeded` once it is spent.
//!
//! # Protocol versions
//!
//! A request may stamp a protocol version with `"v": N`. Lines without
//! the stamp (or with `"v": 1`) speak **v1** — the grammar above,
//! answered byte-for-byte as every pre-versioning release did. `"v": 2`
//! selects **v2**: responses echo the stamp (`{"id":…,"v":2,"ok":…}`)
//! and the `batch` op becomes available, carrying up to
//! [`MAX_BATCH_ITEMS`] sub-requests under one id with per-item
//! results and errors:
//!
//! ```text
//! → {"id":5,"v":2,"op":"batch","items":[{"op":"eval","name":"reactor"},{"op":"stats"}]}
//! ← {"id":5,"v":2,"ok":true,"result":{"items":[{"ok":true,"result":{…}},{"ok":true,"result":{…}}]}}
//! ```
//!
//! Any other version answers the `unsupported_version` error code, so
//! old servers and new clients fail loudly instead of misparsing each
//! other.

use serde::{Deserialize, Serialize, Value};

/// A raw [`Value`] viewed as a (de)serializable document.
///
/// The vendored `serde` implements its traits on typed data, not on
/// `Value` itself; this newtype closes the gap for callers of the typed
/// `serde_json` API. Both directions copy the whole tree, so the
/// service's own paths use the value-level entry points
/// (`serde_json::value_from_str`, `serde_json::push_value`) instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// Default Monte-Carlo sample count when a `mc` request omits it.
pub const DEFAULT_MC_SAMPLES: u32 = 65_536;

/// Machine-readable failure category on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was valid but the request shape was not.
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The named case has never been loaded.
    UnknownCase,
    /// The case document in a `load` did not deserialize.
    BadCase,
    /// The library rejected the argument graph ([`depcase::Error::Case`]).
    Case,
    /// The claim calculus failed ([`depcase::Error::Confidence`]).
    Confidence,
    /// A belief distribution failed ([`depcase::Error::Distribution`]).
    Distribution,
    /// A numerical routine failed ([`depcase::Error::Numerics`]).
    Numerics,
    /// The worker handling the request panicked; the request may or may
    /// not have taken effect. The service survives and the worker is
    /// respawned.
    InternalError,
    /// The request's time budget (`deadline_ms` or the server default)
    /// was spent before the answer was ready.
    DeadlineExceeded,
    /// The service shed the request under load (full queue or connection
    /// cap); the error carries a `retry_after_ms` hint.
    Overloaded,
    /// The request line exceeded the configured maximum length; the
    /// oversized line was discarded but the connection survives.
    RequestTooLarge,
    /// A `history` lookup or time-travel `eval` named a version (or
    /// content hash) the registry has never recorded for that case.
    NoSuchVersion,
    /// The durability layer failed (WAL append, fsync, or snapshot
    /// I/O); the mutation was **not** acknowledged as durable.
    StorageError,
    /// The request stamped a protocol version (`"v"`) this server does
    /// not speak; only versions 1 and 2 exist.
    UnsupportedVersion,
    /// The engine is in read-only degraded mode after an unrecoverable
    /// append failure (disk full, dead disk): mutations are refused
    /// with a `retry_after_ms` hint while evals keep being served from
    /// memory. The engine probes the log on every refused mutation and
    /// exits read-only mode by itself once appends land again.
    ReadOnly,
    /// The requested version's stored object failed its content-hash
    /// check and could not be repaired; it is quarantined, never served
    /// silently. Not retryable — operator attention (or a fresh `load`)
    /// is required.
    DataCorrupted,
}

impl ErrorCode {
    /// Every code the service can put on the wire, in documentation
    /// order. Chaos tests assert observed codes stay inside this set.
    pub const ALL: [ErrorCode; 18] = [
        ErrorCode::BadJson,
        ErrorCode::BadRequest,
        ErrorCode::UnknownOp,
        ErrorCode::UnknownCase,
        ErrorCode::BadCase,
        ErrorCode::Case,
        ErrorCode::Confidence,
        ErrorCode::Distribution,
        ErrorCode::Numerics,
        ErrorCode::InternalError,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Overloaded,
        ErrorCode::RequestTooLarge,
        ErrorCode::NoSuchVersion,
        ErrorCode::StorageError,
        ErrorCode::UnsupportedVersion,
        ErrorCode::ReadOnly,
        ErrorCode::DataCorrupted,
    ];

    /// The stable wire spelling of this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownCase => "unknown_case",
            ErrorCode::BadCase => "bad_case",
            ErrorCode::Case => "case",
            ErrorCode::Confidence => "confidence",
            ErrorCode::Distribution => "distribution",
            ErrorCode::Numerics => "numerics",
            ErrorCode::InternalError => "internal_error",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RequestTooLarge => "request_too_large",
            ErrorCode::NoSuchVersion => "no_such_version",
            ErrorCode::StorageError => "storage_error",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::ReadOnly => "read_only",
            ErrorCode::DataCorrupted => "data_corrupted",
        }
    }

    /// The code whose wire spelling is `s`, if any.
    #[must_use]
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|code| code.as_str() == s)
    }
}

/// A wire-reportable failure: code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint for load-shedding errors, serialized when present.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Builds a wire error from a code and any displayable message.
    pub fn new(code: ErrorCode, message: impl std::fmt::Display) -> Self {
        WireError { code, message: message.to_string(), retry_after_ms: None }
    }

    /// Attaches a `retry_after_ms` backoff hint.
    #[must_use]
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl From<depcase::Error> for WireError {
    fn from(e: depcase::Error) -> Self {
        let code = match &e {
            depcase::Error::Case(_) => ErrorCode::Case,
            depcase::Error::Confidence(_) => ErrorCode::Confidence,
            depcase::Error::Distribution(_) => ErrorCode::Distribution,
            depcase::Error::Numerics(_) => ErrorCode::Numerics,
            // A service error round-trips its own wire code when it has
            // one; anything else is a transport-level bad exchange.
            depcase::Error::Service { code, .. } => {
                ErrorCode::parse(code).unwrap_or(ErrorCode::BadJson)
            }
        };
        WireError::new(code, e)
    }
}

/// A library error in its wire spelling.
pub(crate) fn lib_error(e: impl Into<depcase::Error>) -> WireError {
    WireError::from(e.into())
}

/// Leaf kind named on the wire by `edit`'s `add_leaf` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireLeafKind {
    /// `"evidence"` — an evidence leaf (the default).
    Evidence,
    /// `"assumption"` — an assumption leaf.
    Assumption,
}

impl WireLeafKind {
    fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "evidence" => Ok(WireLeafKind::Evidence),
            "assumption" => Ok(WireLeafKind::Assumption),
            other => Err(WireError::new(
                ErrorCode::BadRequest,
                format!("kind must be \"evidence\" or \"assumption\", got \"{other}\""),
            )),
        }
    }

    /// The library's leaf kind for this wire spelling.
    #[must_use]
    pub fn to_lib(self) -> depcase::assurance::LeafKind {
        match self {
            WireLeafKind::Evidence => depcase::assurance::LeafKind::Evidence,
            WireLeafKind::Assumption => depcase::assurance::LeafKind::Assumption,
        }
    }
}

/// One mutation applied by the `edit` op, named by its `action` field.
#[derive(Debug, Clone, PartialEq)]
pub enum EditAction {
    /// `"set_confidence"` — replace a leaf's elicited confidence.
    SetConfidence {
        /// Name of the evidence or assumption leaf.
        node: String,
        /// The new confidence in `[0, 1]`.
        confidence: f64,
    },
    /// `"add_leaf"` — grow a new leaf under an existing claim.
    AddLeaf {
        /// Name of the goal or strategy gaining the leaf.
        parent: String,
        /// Name for the new leaf (must be unused).
        node: String,
        /// Statement text; defaults to empty when omitted.
        statement: Option<String>,
        /// Evidence (default) or assumption.
        kind: WireLeafKind,
        /// Elicited confidence in `[0, 1]`.
        confidence: f64,
    },
    /// `"retarget"` — replace the support edge `parent → from` with
    /// `parent → to`, preserving the edge's position.
    Retarget {
        /// Name of the supported claim.
        parent: String,
        /// Name of the current supporter.
        from: String,
        /// Name of the replacement supporter.
        to: String,
    },
}

impl EditAction {
    /// Parses the action fields out of a JSON object carrying the same
    /// spellings as the `edit` op (`action`, `node`, `confidence`, …).
    /// Shared by the request parser and the WAL replay path, so a
    /// logged edit round-trips through exactly the wire grammar.
    ///
    /// # Errors
    ///
    /// `bad_request` for unknown actions or missing/mistyped fields.
    pub fn from_fields(obj: &[(String, Value)]) -> Result<EditAction, WireError> {
        match str_field(obj, "action")?.as_str() {
            "set_confidence" => Ok(EditAction::SetConfidence {
                node: str_field(obj, "node")?,
                confidence: f64_field(obj, "confidence")?,
            }),
            "add_leaf" => Ok(EditAction::AddLeaf {
                parent: str_field(obj, "parent")?,
                node: str_field(obj, "node")?,
                statement: opt_str_field(obj, "statement")?,
                kind: match opt_str_field(obj, "kind")? {
                    None => WireLeafKind::Evidence,
                    Some(s) => WireLeafKind::parse(&s)?,
                },
                confidence: f64_field(obj, "confidence")?,
            }),
            "retarget" => Ok(EditAction::Retarget {
                parent: str_field(obj, "parent")?,
                from: str_field(obj, "from")?,
                to: str_field(obj, "to")?,
            }),
            other => Err(WireError::new(
                ErrorCode::BadRequest,
                format!(
                    "action must be \"set_confidence\", \"add_leaf\" or \
                     \"retarget\", got \"{other}\""
                ),
            )),
        }
    }

    /// The action as a standalone JSON object in the wire spelling;
    /// [`EditAction::from_fields`] on the result is the identity.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        match self {
            EditAction::SetConfidence { node, confidence } => Value::Object(vec![
                ("action".to_string(), s("set_confidence")),
                ("node".to_string(), s(node)),
                ("confidence".to_string(), Value::F64(*confidence)),
            ]),
            EditAction::AddLeaf { parent, node, statement, kind, confidence } => {
                let mut fields = vec![
                    ("action".to_string(), s("add_leaf")),
                    ("parent".to_string(), s(parent)),
                    ("node".to_string(), s(node)),
                ];
                if let Some(statement) = statement {
                    fields.push(("statement".to_string(), s(statement)));
                }
                fields.push((
                    "kind".to_string(),
                    s(match kind {
                        WireLeafKind::Evidence => "evidence",
                        WireLeafKind::Assumption => "assumption",
                    }),
                ));
                fields.push(("confidence".to_string(), Value::F64(*confidence)));
                Value::Object(fields)
            }
            EditAction::Retarget { parent, from, to } => Value::Object(vec![
                ("action".to_string(), s("retarget")),
                ("parent".to_string(), s(parent)),
                ("from".to_string(), s(from)),
                ("to".to_string(), s(to)),
            ]),
        }
    }
}

/// SIL demand mode named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDemandMode {
    /// `"low_demand"` — bands constrain pfd.
    LowDemand,
    /// `"high_demand"` — bands constrain pfh.
    HighDemand,
}

impl WireDemandMode {
    fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "low_demand" => Ok(WireDemandMode::LowDemand),
            "high_demand" => Ok(WireDemandMode::HighDemand),
            other => Err(WireError::new(
                ErrorCode::BadRequest,
                format!("mode must be \"low_demand\" or \"high_demand\", got \"{other}\""),
            )),
        }
    }

    /// The library's demand mode for this wire spelling.
    #[must_use]
    pub fn to_lib(self) -> depcase::sil::DemandMode {
        match self {
            WireDemandMode::LowDemand => depcase::sil::DemandMode::LowDemand,
            WireDemandMode::HighDemand => depcase::sil::DemandMode::HighDemand,
        }
    }
}

/// Most sub-requests one `batch` envelope may carry.
pub const MAX_BATCH_ITEMS: usize = 64;

/// The protocol generation a request line speaks, from its `"v"` stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolVersion {
    /// No stamp or `"v": 1`: the legacy line grammar, answered
    /// byte-for-byte as before versioning existed.
    #[default]
    V1,
    /// `"v": 2`: responses echo the stamp and `batch` is available.
    V2,
}

/// One sub-request inside a `batch` envelope. Shape problems are kept
/// *per item* — a bad sibling answers its own error entry instead of
/// poisoning the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// Per-item deadline override, like the envelope's `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// The parsed sub-request, or the shape error to report in its slot.
    pub request: Result<Box<Request>, WireError>,
}

/// Which stored state of a case a time-travel `eval` addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalAt {
    /// `"version": N` — the registry version number.
    Version(u64),
    /// `"at_hash": "…"` — the 16-hex-digit content hash.
    Hash(u64),
}

/// A parsed request, ready for the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or replace) a named case from an inline JSON document.
    Load {
        /// Registry name for the case.
        name: String,
        /// The case document, still raw; the engine deserializes it.
        case: Value,
    },
    /// Analytic confidence propagation over a named case — the current
    /// version, or any recorded version via `version`/`at_hash`.
    Eval {
        /// Registry name of the case.
        name: String,
        /// Historical version to assess instead of the current one.
        at: Option<EvalAt>,
    },
    /// Incremental mutation of a loaded case, bumping its version.
    Edit {
        /// Registry name of the case.
        name: String,
        /// The mutation to apply.
        action: EditAction,
    },
    /// Version history (versions, content hashes, timestamps) of a
    /// named case, oldest first.
    History {
        /// Registry name of the case.
        name: String,
    },
    /// Evidence ranked by Birnbaum importance and gain-if-certain.
    Rank {
        /// Registry name of the case.
        name: String,
    },
    /// Monte-Carlo cross-check with the deterministic parallel engine.
    Mc {
        /// Registry name of the case.
        name: String,
        /// Sample count (default [`DEFAULT_MC_SAMPLES`]).
        samples: u32,
        /// RNG seed (default 0); fixes every estimate bit-for-bit.
        seed: u64,
        /// Worker threads, 0 = auto (default 0).
        threads: usize,
    },
    /// SIL band membership for the root claim confidence.
    Bands {
        /// Registry name of the case.
        name: String,
        /// The claimed failure-measure bound (pfd or pfh).
        pfd_bound: f64,
        /// Which IEC 61508 band table applies.
        mode: WireDemandMode,
    },
    /// Observability snapshot: per-op latency, cache counters.
    Stats,
    /// The most recent traced requests as span trees, plus the per-op
    /// latency decomposition accumulated since startup.
    Trace {
        /// Most traces to return (clamped to the ring capacity).
        limit: usize,
    },
    /// The unified metrics registry — every counter, gauge, and
    /// histogram the service tracks.
    Metrics {
        /// `true` renders Prometheus text exposition instead of JSON.
        prometheus: bool,
    },
    /// Re-hash every stored snapshot object against its content
    /// address, quarantining and repairing corrupt ones; the response
    /// reports what was checked, repaired, and quarantined (durable
    /// engines only).
    Scrub,
    /// Stop the service; the response carries the final stats snapshot.
    Shutdown,
    /// Up to [`MAX_BATCH_ITEMS`] sub-requests under one id, answered
    /// with per-item results/errors in item order (v2 only).
    Batch {
        /// The sub-requests, in wire order.
        items: Vec<BatchItem>,
    },
}

/// The client-supplied `id`, echoed back verbatim (any JSON scalar).
pub type RequestId = Option<Value>;

/// A fully parsed request line: the echoed id, the per-request time
/// budget, and the operation itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen id, echoed in the response.
    pub id: RequestId,
    /// The protocol generation the line spoke; responses must answer in
    /// the same generation.
    pub version: ProtocolVersion,
    /// Per-request deadline in milliseconds, when the client set one;
    /// overrides the server's configured default.
    pub deadline_ms: Option<u64>,
    /// The operation to execute.
    pub request: Request,
}

fn str_field(obj: &[(String, Value)], name: &str) -> Result<String, WireError> {
    match serde::field(obj, name) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(_) => {
            Err(WireError::new(ErrorCode::BadRequest, format!("field `{name}` must be a string")))
        }
        Err(e) => Err(WireError::new(ErrorCode::BadRequest, e)),
    }
}

fn f64_field(obj: &[(String, Value)], name: &str) -> Result<f64, WireError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => v.as_f64().ok_or_else(|| {
            WireError::new(ErrorCode::BadRequest, format!("field `{name}` must be a number"))
        }),
        None => Err(WireError::new(ErrorCode::BadRequest, format!("missing field `{name}`"))),
    }
}

fn opt_str_field(obj: &[(String, Value)], name: &str) -> Result<Option<String>, WireError> {
    match obj.iter().find(|(k, _)| k == name) {
        None => Ok(None),
        Some((_, Value::Str(s))) => Ok(Some(s.clone())),
        Some(_) => {
            Err(WireError::new(ErrorCode::BadRequest, format!("field `{name}` must be a string")))
        }
    }
}

fn opt_u64(obj: &[(String, Value)], name: &str, default: u64) -> Result<u64, WireError> {
    match obj.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        Some((_, v)) => v.as_u64().ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("field `{name}` must be a non-negative integer"),
            )
        }),
    }
}

/// First duplicated key anywhere in `value`, searched depth-first.
///
/// JSON with duplicate keys is ambiguous — parsers disagree on which
/// copy wins — so the protocol rejects it outright rather than letting
/// a smuggled second `op` or `id` silently shadow the first.
fn find_duplicate_key(value: &Value) -> Option<&str> {
    match value {
        Value::Object(entries) => find_duplicate_entry(entries),
        Value::Array(items) => items.iter().find_map(find_duplicate_key),
        _ => None,
    }
}

/// [`find_duplicate_key`] over one object's entries.
fn find_duplicate_entry(entries: &[(String, Value)]) -> Option<&str> {
    let mut seen = std::collections::HashSet::with_capacity(entries.len());
    for (key, child) in entries {
        if !seen.insert(key.as_str()) {
            return Some(key);
        }
        if let Some(dup) = find_duplicate_key(child) {
            return Some(dup);
        }
    }
    None
}

/// Best-effort recovery of the `id` from a request line, for error
/// paths that must echo it without a full (or successful) parse.
#[must_use]
pub fn recover_id(line: &str) -> RequestId {
    serde_json::value_from_str_prefix(line).ok().and_then(|(value, _)| value.get("id").cloned())
}

/// Parses one request line into its envelope (id, deadline, operation).
///
/// # Errors
///
/// [`WireError`] with code `bad_json`, `bad_request`, or `unknown_op`,
/// paired with whatever `id` could be recovered from the line so the
/// error response still echoes it ([`None`] when the line was not even
/// a JSON object).
pub fn parse_request(line: &str) -> Result<Envelope, (RequestId, WireError)> {
    let (mut value, consumed) = serde_json::value_from_str_prefix(line)
        .map_err(|e| (None, WireError::new(ErrorCode::BadJson, e)))?;
    let id = value.get("id").cloned();
    if !line[consumed..].trim().is_empty() {
        return Err((
            id,
            WireError::new(
                ErrorCode::BadRequest,
                "trailing garbage after the request object on this line",
            ),
        ));
    }
    let Value::Object(obj) = &mut value else {
        return Err((id, WireError::new(ErrorCode::BadRequest, "request must be a JSON object")));
    };
    if let Some(key) = find_duplicate_entry(obj) {
        return Err((
            id,
            WireError::new(ErrorCode::BadRequest, format!("duplicate key `{key}` in request")),
        ));
    }
    let parsed = parse_version(obj).and_then(|version| {
        let request = parse_op(obj, version)?;
        let deadline_ms = match obj.iter().find(|(k, _)| k == "deadline_ms") {
            None => None,
            Some((_, v)) => Some(v.as_u64().ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    "field `deadline_ms` must be a non-negative integer",
                )
            })?),
        };
        Ok(Envelope { id: id.clone(), version, deadline_ms, request })
    });
    parsed.map_err(|err| (id, err))
}

/// Reads the `"v"` protocol stamp: absent/1 → v1, 2 → v2, anything
/// else → `unsupported_version`.
fn parse_version(obj: &[(String, Value)]) -> Result<ProtocolVersion, WireError> {
    match obj.iter().find(|(k, _)| k == "v") {
        None => Ok(ProtocolVersion::V1),
        Some((_, v)) => match v.as_u64() {
            Some(1) => Ok(ProtocolVersion::V1),
            Some(2) => Ok(ProtocolVersion::V2),
            _ => Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                "this server speaks protocol versions 1 and 2 only",
            )),
        },
    }
}

/// Parses the operation named by `op`. A `load` moves its case document
/// out of `obj` rather than copying it.
fn parse_op(obj: &mut [(String, Value)], version: ProtocolVersion) -> Result<Request, WireError> {
    let op = str_field(obj, "op")?;
    let request = match op.as_str() {
        // `batch` exists only in v2 — v1 keeps its exact op surface, so
        // the spelling stays `unknown_op` there.
        "batch" if version == ProtocolVersion::V2 => parse_batch(obj)?,
        "load" => {
            let case = obj
                .iter()
                .position(|(k, _)| k == "case")
                .ok_or_else(|| WireError::new(ErrorCode::BadRequest, "missing field `case`"))?;
            Request::Load {
                name: str_field(obj, "name")?,
                case: std::mem::replace(&mut obj[case].1, Value::Null),
            }
        }
        "eval" => {
            let version = obj.iter().find(|(k, _)| k == "version");
            let at_hash = obj.iter().find(|(k, _)| k == "at_hash");
            let at = match (version, at_hash) {
                (Some(_), Some(_)) => {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        "give `version` or `at_hash`, not both",
                    ))
                }
                (Some((_, v)), None) => Some(EvalAt::Version(v.as_u64().ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "field `version` must be a non-negative integer",
                    )
                })?)),
                (None, Some((_, v))) => {
                    let text = v.as_str().ok_or_else(|| {
                        WireError::new(ErrorCode::BadRequest, "field `at_hash` must be a string")
                    })?;
                    Some(EvalAt::Hash(parse_hash(text).ok_or_else(|| {
                        WireError::new(
                            ErrorCode::BadRequest,
                            "field `at_hash` must be a 16-hex-digit content hash",
                        )
                    })?))
                }
                (None, None) => None,
            };
            Request::Eval { name: str_field(obj, "name")?, at }
        }
        "edit" => {
            Request::Edit { name: str_field(obj, "name")?, action: EditAction::from_fields(obj)? }
        }
        "history" => Request::History { name: str_field(obj, "name")? },
        "rank" => Request::Rank { name: str_field(obj, "name")? },
        "mc" => Request::Mc {
            name: str_field(obj, "name")?,
            samples: u32::try_from(opt_u64(obj, "samples", u64::from(DEFAULT_MC_SAMPLES))?)
                .map_err(|_| WireError::new(ErrorCode::BadRequest, "field `samples` too large"))?,
            seed: opt_u64(obj, "seed", 0)?,
            threads: usize::try_from(opt_u64(obj, "threads", 0)?)
                .map_err(|_| WireError::new(ErrorCode::BadRequest, "field `threads` too large"))?,
        },
        "bands" => {
            let pfd_bound = match obj.iter().find(|(k, _)| k == "pfd_bound") {
                Some((_, v)) => v.as_f64().ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "field `pfd_bound` must be a number")
                })?,
                None => {
                    return Err(WireError::new(ErrorCode::BadRequest, "missing field `pfd_bound`"))
                }
            };
            let mode = match serde::field(obj, "mode").ok() {
                None => WireDemandMode::LowDemand,
                Some(Value::Str(s)) => WireDemandMode::parse(s)?,
                Some(_) => {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        "field `mode` must be a string",
                    ))
                }
            };
            Request::Bands { name: str_field(obj, "name")?, pfd_bound, mode }
        }
        "stats" => Request::Stats,
        "trace" => Request::Trace {
            limit: usize::try_from(opt_u64(
                obj,
                "limit",
                crate::telemetry::DEFAULT_TRACE_LIMIT as u64,
            )?)
            .map_err(|_| WireError::new(ErrorCode::BadRequest, "field `limit` too large"))?,
        },
        "metrics" => Request::Metrics {
            prometheus: match opt_str_field(obj, "format")?.as_deref() {
                None | Some("json") => false,
                Some("prometheus") => true,
                Some(other) => {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        format!("unknown metrics format `{other}` (json|prometheus)"),
                    ))
                }
            },
        },
        "scrub" => Request::Scrub,
        "shutdown" => Request::Shutdown,
        other => return Err(WireError::new(ErrorCode::UnknownOp, format!("unknown op `{other}`"))),
    };
    Ok(request)
}

/// Parses the `items` of a v2 `batch` request. The batch shape itself
/// (array present, non-empty, within [`MAX_BATCH_ITEMS`]) must be
/// right; each item then parses independently, with its failures stored
/// in its own slot.
fn parse_batch(obj: &mut [(String, Value)]) -> Result<Request, WireError> {
    let items = match obj.iter_mut().find(|(k, _)| k == "items") {
        Some((_, Value::Array(items))) => items,
        Some(_) => {
            return Err(WireError::new(ErrorCode::BadRequest, "field `items` must be an array"))
        }
        None => return Err(WireError::new(ErrorCode::BadRequest, "missing field `items`")),
    };
    if items.is_empty() {
        return Err(WireError::new(ErrorCode::BadRequest, "a batch needs at least one item"));
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            format!("a batch carries at most {MAX_BATCH_ITEMS} items, got {}", items.len()),
        ));
    }
    let items = items.iter_mut().map(parse_batch_item).collect();
    Ok(Request::Batch { items })
}

fn parse_batch_item(item: &mut Value) -> BatchItem {
    let failed = |err: WireError| BatchItem { deadline_ms: None, request: Err(err) };
    let Value::Object(obj) = item else {
        return failed(WireError::new(ErrorCode::BadRequest, "batch items must be JSON objects"));
    };
    if obj.iter().any(|(k, _)| k == "id") {
        // The batch id covers every item; per-item ids would make the
        // response's positional matching ambiguous.
        return failed(WireError::new(ErrorCode::BadRequest, "batch items must not carry ids"));
    }
    let deadline_ms = match obj.iter().find(|(k, _)| k == "deadline_ms") {
        None => None,
        Some((_, v)) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => {
                return failed(WireError::new(
                    ErrorCode::BadRequest,
                    "field `deadline_ms` must be a non-negative integer",
                ))
            }
        },
    };
    let request = match str_field(obj, "op").as_deref() {
        Ok("batch") => Err(WireError::new(ErrorCode::BadRequest, "batches do not nest")),
        _ => parse_op(obj, ProtocolVersion::V2).map(Box::new),
    };
    BatchItem { deadline_ms, request }
}

impl Request {
    /// The operation name, as spelled on the wire (for stats bucketing).
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Eval { .. } => "eval",
            Request::Edit { .. } => "edit",
            Request::History { .. } => "history",
            Request::Rank { .. } => "rank",
            Request::Mc { .. } => "mc",
            Request::Bands { .. } => "bands",
            Request::Stats => "stats",
            Request::Trace { .. } => "trace",
            Request::Metrics { .. } => "metrics",
            Request::Scrub => "scrub",
            Request::Shutdown => "shutdown",
            Request::Batch { .. } => "batch",
        }
    }
}

/// A typed response, ready to render in either protocol generation.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `"ok": true` with a result document.
    Ok(Value),
    /// `"ok": false` with a wire error.
    Err(WireError),
}

impl Response {
    /// Renders the response as one wire line (no trailing newline):
    /// `{"id":…,"ok":…}` for v1 — byte-identical to the pre-versioning
    /// grammar — and `{"id":…,"v":2,"ok":…}` for v2. The envelope is
    /// written around the borrowed result, which is never copied.
    #[must_use]
    pub fn render(&self, version: ProtocolVersion, id: &RequestId) -> String {
        let mut out = String::from("{");
        if let Some(id) = id {
            out.push_str("\"id\":");
            serde_json::push_value(&mut out, id);
            out.push(',');
        }
        if version == ProtocolVersion::V2 {
            out.push_str("\"v\":2,");
        }
        match self {
            Response::Ok(result) => {
                out.push_str("\"ok\":true,\"result\":");
                serde_json::push_value(&mut out, result);
            }
            Response::Err(err) => {
                out.push_str("\"ok\":false,\"error\":");
                serde_json::push_value(&mut out, &error_value(err));
            }
        }
        out.push('}');
        out
    }

    /// The response as a bare `{"ok":…}` object — the per-item shape
    /// inside a `batch` result's `items` array. Moves the result in.
    #[must_use]
    pub fn into_item_value(self) -> Value {
        match self {
            Response::Ok(result) => Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("result".to_string(), result),
            ]),
            Response::Err(err) => Value::Object(vec![
                ("ok".to_string(), Value::Bool(false)),
                ("error".to_string(), error_value(&err)),
            ]),
        }
    }
}

impl From<Result<Value, WireError>> for Response {
    fn from(outcome: Result<Value, WireError>) -> Self {
        match outcome {
            Ok(result) => Response::Ok(result),
            Err(err) => Response::Err(err),
        }
    }
}

/// The `{"code":…,"message":…[,"retry_after_ms":…]}` error object.
fn error_value(err: &WireError) -> Value {
    let mut error_fields = vec![
        ("code".to_string(), Value::Str(err.code.as_str().to_string())),
        ("message".to_string(), Value::Str(err.message.clone())),
    ];
    if let Some(ms) = err.retry_after_ms {
        error_fields.push(("retry_after_ms".to_string(), Value::U64(ms)));
    }
    Value::Object(error_fields)
}

/// Renders a success response line in the v1 grammar (no trailing
/// newline). Version-aware callers use [`Response::render`].
#[must_use]
pub fn ok_line(id: &RequestId, result: Value) -> String {
    Response::Ok(result).render(ProtocolVersion::V1, id)
}

/// Renders a failure response line in the v1 grammar (no trailing
/// newline). Version-aware callers use [`Response::render`].
#[must_use]
pub fn err_line(id: &RequestId, err: &WireError) -> String {
    Response::Err(err.clone()).render(ProtocolVersion::V1, id)
}

/// Formats a case content hash the way every response spells it.
#[must_use]
pub fn format_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a content hash in its wire spelling ([`format_hash`]): exactly
/// 16 lowercase hex digits.
#[must_use]
pub fn parse_hash(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults() {
        let env = parse_request(r#"{"id":7,"op":"mc","name":"c"}"#).unwrap();
        assert_eq!(env.id, Some(Value::I64(7)));
        assert_eq!(env.deadline_ms, None);
        assert_eq!(
            env.request,
            Request::Mc { name: "c".into(), samples: DEFAULT_MC_SAMPLES, seed: 0, threads: 0 }
        );

        let env = parse_request(r#"{"op":"bands","name":"c","pfd_bound":1e-3}"#).unwrap();
        assert_eq!(env.id, None);
        assert_eq!(
            env.request,
            Request::Bands { name: "c".into(), pfd_bound: 1e-3, mode: WireDemandMode::LowDemand }
        );
    }

    #[test]
    fn edit_requests_parse_each_action() {
        let env = parse_request(
            r#"{"op":"edit","name":"c","action":"set_confidence","node":"E1","confidence":0.97}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Edit {
                name: "c".into(),
                action: EditAction::SetConfidence { node: "E1".into(), confidence: 0.97 },
            }
        );

        let env = parse_request(
            r#"{"op":"edit","name":"c","action":"add_leaf","parent":"G","node":"E9","kind":"assumption","confidence":0.8}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Edit {
                name: "c".into(),
                action: EditAction::AddLeaf {
                    parent: "G".into(),
                    node: "E9".into(),
                    statement: None,
                    kind: WireLeafKind::Assumption,
                    confidence: 0.8,
                },
            }
        );

        let env = parse_request(
            r#"{"op":"edit","name":"c","action":"retarget","parent":"G","from":"E1","to":"E2"}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Edit {
                name: "c".into(),
                action: EditAction::Retarget {
                    parent: "G".into(),
                    from: "E1".into(),
                    to: "E2".into(),
                },
            }
        );
    }

    #[test]
    fn eval_parses_time_travel_addressing() {
        let env = parse_request(r#"{"op":"eval","name":"c"}"#).unwrap();
        assert_eq!(env.request, Request::Eval { name: "c".into(), at: None });

        let env = parse_request(r#"{"op":"eval","name":"c","version":3}"#).unwrap();
        assert_eq!(env.request, Request::Eval { name: "c".into(), at: Some(EvalAt::Version(3)) });

        let env =
            parse_request(r#"{"op":"eval","name":"c","at_hash":"00ff00ff00ff00ff"}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Eval { name: "c".into(), at: Some(EvalAt::Hash(0x00ff_00ff_00ff_00ff)) }
        );

        // Both addresses at once, malformed hashes, mistyped versions.
        for line in [
            r#"{"op":"eval","name":"c","version":1,"at_hash":"00ff00ff00ff00ff"}"#,
            r#"{"op":"eval","name":"c","at_hash":"zz"}"#,
            r#"{"op":"eval","name":"c","at_hash":"00FF00FF00FF00FF"}"#,
            r#"{"op":"eval","name":"c","version":-1}"#,
        ] {
            let (_, err) = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn history_parses_and_needs_a_name() {
        let env = parse_request(r#"{"id":1,"op":"history","name":"c"}"#).unwrap();
        assert_eq!(env.request, Request::History { name: "c".into() });
        let (_, err) = parse_request(r#"{"op":"history"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn edit_actions_round_trip_through_their_wire_value() {
        let actions = [
            EditAction::SetConfidence { node: "E1".into(), confidence: 0.97 },
            EditAction::AddLeaf {
                parent: "G".into(),
                node: "E9".into(),
                statement: Some("field data".into()),
                kind: WireLeafKind::Assumption,
                confidence: 0.8,
            },
            EditAction::AddLeaf {
                parent: "G".into(),
                node: "E9".into(),
                statement: None,
                kind: WireLeafKind::Evidence,
                confidence: 0.8,
            },
            EditAction::Retarget { parent: "G".into(), from: "E1".into(), to: "E2".into() },
        ];
        for action in actions {
            let value = action.to_value();
            let obj = value.as_object().unwrap();
            assert_eq!(EditAction::from_fields(obj).unwrap(), action);
        }
    }

    #[test]
    fn hashes_round_trip_and_reject_sloppy_spellings() {
        for hash in [0u64, 1, 0xdead_beef_dead_beef, u64::MAX] {
            assert_eq!(parse_hash(&format_hash(hash)), Some(hash));
        }
        for bad in ["", "abc", "00FF00FF00FF00FF", "0123456789abcdef0", "xyzw456789abcdef"] {
            assert_eq!(parse_hash(bad), None, "{bad}");
        }
    }

    #[test]
    fn malformed_edits_are_bad_request() {
        // Unknown action, missing confidence, bad leaf kind.
        for line in [
            r#"{"op":"edit","name":"c","action":"rename","node":"E1"}"#,
            r#"{"op":"edit","name":"c","action":"set_confidence","node":"E1"}"#,
            r#"{"op":"edit","name":"c","action":"add_leaf","parent":"G","node":"E9","kind":"goal","confidence":0.8}"#,
        ] {
            let (_, err) = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn deadline_ms_is_parsed_on_any_request() {
        let env = parse_request(r#"{"id":1,"op":"eval","name":"c","deadline_ms":250}"#).unwrap();
        assert_eq!(env.deadline_ms, Some(250));
        let (id, err) =
            parse_request(r#"{"id":1,"op":"eval","name":"c","deadline_ms":"soon"}"#).unwrap_err();
        assert_eq!((id, err.code), (Some(Value::I64(1)), ErrorCode::BadRequest));
    }

    #[test]
    fn trailing_garbage_is_bad_request_and_echoes_the_id() {
        // One full object then junk: the object parsed, so the id is
        // recoverable and the error pins the stable `bad_request` code.
        let (id, err) = parse_request(r#"{"id":9,"op":"stats"} extra"#).unwrap_err();
        assert_eq!(id, Some(Value::I64(9)));
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("trailing garbage"), "{}", err.message);

        // A second object on the same line is trailing garbage too.
        let (id, err) = parse_request(r#"{"id":9,"op":"stats"}{"op":"shutdown"}"#).unwrap_err();
        assert_eq!((id, err.code), (Some(Value::I64(9)), ErrorCode::BadRequest));

        // Pure trailing whitespace is fine.
        let env = parse_request("{\"id\":9,\"op\":\"stats\"}  \t").unwrap();
        assert_eq!(env.request, Request::Stats);
    }

    #[test]
    fn duplicate_keys_are_bad_request_and_echo_the_id() {
        let (id, err) = parse_request(r#"{"id":4,"op":"stats","op":"shutdown"}"#).unwrap_err();
        assert_eq!(id, Some(Value::I64(4)));
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("duplicate key `op`"), "{}", err.message);

        // Nested duplicates (e.g. inside a `load` case document) are
        // caught too — ambiguity anywhere poisons the whole request.
        let (_, err) =
            parse_request(r#"{"id":4,"op":"load","name":"c","case":{"a":1,"a":2}}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("duplicate key `a`"), "{}", err.message);
    }

    #[test]
    fn recover_id_survives_malformed_tails() {
        assert_eq!(recover_id(r#"{"id":3,"op":"stats"} junk"#), Some(Value::I64(3)));
        assert_eq!(recover_id("not json"), None);
        assert_eq!(recover_id(r#"{"op":"stats"}"#), None);
    }

    #[test]
    fn bad_lines_carry_stable_codes() {
        let (id, err) = parse_request("not json").unwrap_err();
        assert_eq!((id, err.code), (None, ErrorCode::BadJson));
        let (id, err) = parse_request("[1,2]").unwrap_err();
        assert_eq!((id, err.code), (None, ErrorCode::BadRequest));
        let (id, err) = parse_request(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert_eq!((id, err.code), (None, ErrorCode::UnknownOp));
        let (id, err) = parse_request(r#"{"op":"eval"}"#).unwrap_err();
        assert_eq!((id, err.code), (None, ErrorCode::BadRequest));
        let (id, err) = parse_request(r#"{"op":"bands","name":"c"}"#).unwrap_err();
        assert_eq!((id, err.code), (None, ErrorCode::BadRequest));
    }

    #[test]
    fn errors_after_the_id_parsed_still_echo_it() {
        // The docs promise the id comes back even on failure, so
        // pipelined clients can match error responses to requests.
        let (id, err) = parse_request(r#"{"id":3,"op":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(Value::I64(3)));
        assert_eq!(err.code, ErrorCode::UnknownOp);
        let line = err_line(&id, &err);
        assert!(line.starts_with(r#"{"id":3,"ok":false"#), "{line}");
    }

    #[test]
    fn retry_after_hint_is_serialized_when_present() {
        let err = WireError::new(ErrorCode::Overloaded, "queue full").with_retry_after(25);
        let line = err_line(&None, &err);
        assert!(line.contains(r#""retry_after_ms":25"#), "{line}");
        // And stays out when absent.
        let err = WireError::new(ErrorCode::Overloaded, "queue full");
        assert!(!err_line(&None, &err).contains("retry_after_ms"));
    }

    #[test]
    fn every_wire_code_round_trips_through_its_spelling() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        // Service-layer facade errors keep their wire code.
        let e = depcase::Error::service("overloaded", "try later");
        assert_eq!(WireError::from(e).code, ErrorCode::Overloaded);
    }

    #[test]
    fn library_errors_map_to_their_layer_code() {
        let case_err: depcase::Error =
            depcase::assurance::CaseError::DuplicateName("G".into()).into();
        assert_eq!(WireError::from(case_err).code, ErrorCode::Case);
        let num_err: depcase::Error = depcase::numerics::NumericsError::Domain("x".into()).into();
        assert_eq!(WireError::from(num_err).code, ErrorCode::Numerics);
    }

    #[test]
    fn version_stamp_selects_the_generation() {
        let env = parse_request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(env.version, ProtocolVersion::V1);
        let env = parse_request(r#"{"v":1,"op":"stats"}"#).unwrap();
        assert_eq!(env.version, ProtocolVersion::V1);
        let env = parse_request(r#"{"v":2,"op":"stats"}"#).unwrap();
        assert_eq!(env.version, ProtocolVersion::V2);

        for line in [
            r#"{"id":8,"v":3,"op":"stats"}"#,
            r#"{"id":8,"v":0,"op":"stats"}"#,
            r#"{"id":8,"v":"2","op":"stats"}"#,
            r#"{"id":8,"v":-1,"op":"stats"}"#,
        ] {
            let (id, err) = parse_request(line).unwrap_err();
            assert_eq!(id, Some(Value::I64(8)), "{line}");
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{line}");
        }
    }

    #[test]
    fn batch_is_v2_only_and_parses_items_independently() {
        // In v1 the op does not exist at all.
        let (_, err) = parse_request(r#"{"op":"batch","items":[]}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownOp);

        let env = parse_request(
            r#"{"id":1,"v":2,"op":"batch","items":[{"op":"stats"},{"op":"nope"},{"op":"eval","name":"c","deadline_ms":40}]}"#,
        )
        .unwrap();
        let Request::Batch { items } = env.request else { panic!("not a batch") };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].request.as_deref(), Ok(&Request::Stats));
        assert_eq!(items[1].request.as_ref().unwrap_err().code, ErrorCode::UnknownOp);
        assert_eq!(items[2].deadline_ms, Some(40));
        assert_eq!(items[2].request.as_deref(), Ok(&Request::Eval { name: "c".into(), at: None }));
    }

    #[test]
    fn batch_shape_errors_reject_the_whole_request() {
        for line in [
            r#"{"v":2,"op":"batch"}"#,
            r#"{"v":2,"op":"batch","items":{}}"#,
            r#"{"v":2,"op":"batch","items":[]}"#,
        ] {
            let (_, err) = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
        let too_many = format!(
            r#"{{"v":2,"op":"batch","items":[{}]}}"#,
            vec![r#"{"op":"stats"}"#; MAX_BATCH_ITEMS + 1].join(",")
        );
        let (_, err) = parse_request(&too_many).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("at most"), "{}", err.message);
    }

    #[test]
    fn batch_items_must_be_plain_idless_requests() {
        let env = parse_request(
            r#"{"v":2,"op":"batch","items":[7,{"id":1,"op":"stats"},{"op":"batch","items":[{"op":"stats"}]}]}"#,
        )
        .unwrap();
        let Request::Batch { items } = env.request else { panic!("not a batch") };
        let messages: Vec<&str> =
            items.iter().map(|i| i.request.as_ref().unwrap_err().message.as_str()).collect();
        assert!(messages[0].contains("JSON objects"), "{}", messages[0]);
        assert!(messages[1].contains("must not carry ids"), "{}", messages[1]);
        assert!(messages[2].contains("do not nest"), "{}", messages[2]);
    }

    #[test]
    fn v2_responses_carry_the_stamp_and_v1_stays_byte_identical() {
        let id = Some(Value::I64(7));
        let result = Value::Object(vec![("n".into(), Value::U64(1))]);
        assert_eq!(
            Response::Ok(result.clone()).render(ProtocolVersion::V1, &id),
            r#"{"id":7,"ok":true,"result":{"n":1}}"#
        );
        assert_eq!(
            Response::Ok(result).render(ProtocolVersion::V2, &id),
            r#"{"id":7,"v":2,"ok":true,"result":{"n":1}}"#
        );
        let err = WireError::new(ErrorCode::Overloaded, "shed").with_retry_after(25);
        assert_eq!(
            Response::Err(err).render(ProtocolVersion::V2, &None),
            r#"{"v":2,"ok":false,"error":{"code":"overloaded","message":"shed","retry_after_ms":25}}"#
        );
    }

    #[test]
    fn batch_item_values_mirror_response_bodies() {
        let ok = Response::Ok(Value::U64(3)).into_item_value();
        assert_eq!(serde_json::to_string(&Json(ok)).unwrap(), r#"{"ok":true,"result":3}"#);
        let err = Response::Err(WireError::new(ErrorCode::UnknownCase, "nope")).into_item_value();
        assert_eq!(
            serde_json::to_string(&Json(err)).unwrap(),
            r#"{"ok":false,"error":{"code":"unknown_case","message":"nope"}}"#
        );
    }

    #[test]
    fn response_lines_echo_the_id() {
        let id = Some(Value::Str("req-1".into()));
        let line = ok_line(&id, Value::Object(vec![("n".into(), Value::U64(1))]));
        assert_eq!(line, r#"{"id":"req-1","ok":true,"result":{"n":1}}"#);
        let line = err_line(&None, &WireError::new(ErrorCode::UnknownCase, "no such case"));
        assert_eq!(
            line,
            r#"{"ok":false,"error":{"code":"unknown_case","message":"no such case"}}"#
        );
    }
}

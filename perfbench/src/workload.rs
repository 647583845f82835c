//! Seeded workloads: the cases each workload registers, and the
//! deterministic per-client request streams sent against them.
//!
//! Everything here is a pure function of the workload seed, so the
//! timed run, the traced replay and the answer oracle all see the same
//! cases, the same edit chains and the same request sequence. The
//! server only ever receives the rendered request lines.

use depcase::assurance::{templates, Case, Combination, NodeId, NodeKind};
use serde::Serialize;
use std::fmt::Write as _;

/// Load-generator clients per workload (one TCP connection each).
pub const CLIENTS: usize = 2;

/// The shipped server's plan-cache capacity and shard count; `hot_read`
/// picks cases that fit it, `fleet_churn` registers 32× more.
pub const PLAN_CACHE: usize = 64;
pub const CACHE_SHARDS: u64 = 8;

/// Items in one v2 `batch`.
pub const BATCH_ITEMS: usize = 16;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A confidence on the templates' coarse grid, so perturbed values
    /// stay plausible and sometimes coincide.
    pub fn confidence(&mut self) -> f64 {
        0.5 + (self.next_u64() % 100) as f64 * 0.005
    }
}

/// Derives an independent stream seed from a seed and a tag tuple.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0x005e_ed0f_bea7);
    let mut h = 0u64;
    for &p in parts {
        rng.0 ^= p.wrapping_add(h);
        h = rng.next_u64();
    }
    h
}

/// Zipf(s) over `n` ranks by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotRead,
    FleetChurn,
    DeepAnalysis,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "hot_read" => Some(Kind::HotRead),
            "fleet_churn" => Some(Kind::FleetChurn),
            "deep_analysis" => Some(Kind::DeepAnalysis),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotRead => "hot_read",
            Kind::FleetChurn => "fleet_churn",
            Kind::DeepAnalysis => "deep_analysis",
        }
    }
}

/// One registered case name. Tenant `t` is edited only by client
/// `t % CLIENTS`, so its version chain is a function of that client's
/// stream alone.
#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    /// Version 1, as loaded at set-up.
    pub base: Case,
    /// `base` serialized: the set-up `load` document.
    pub doc: String,
    /// Leaves edits pick from (every evidence leaf, or for the deep
    /// cases the leaves on the two deepest levels).
    pub edit_leaves: Vec<NodeId>,
}

/// One request of a stream, with everything the oracle needs to
/// recompute its answer.
#[derive(Debug, Clone)]
pub enum Req {
    /// Set-up `load` of a tenant's base case.
    Load {
        t: usize,
    },
    /// `load` of a freshly perturbed variant of tenant `t` under a new
    /// name (`deep_analysis`).
    LoadVariant {
        t: usize,
        client: usize,
        k: u64,
    },
    Eval {
        t: usize,
    },
    EvalAt {
        t: usize,
        version: u64,
    },
    Bands {
        t: usize,
        pfd_bound: f64,
        high: bool,
    },
    Batch {
        ts: Vec<usize>,
    },
    /// The `k`-th edit of tenant `t`, producing version `k + 2`.
    Edit {
        t: usize,
        k: u64,
    },
    /// `history` of an own tenant whose current version is known.
    History {
        t: usize,
        version: u64,
    },
    Rank {
        t: usize,
    },
    Mc {
        t: usize,
        samples: u32,
        seed: u64,
    },
}

impl Req {
    /// The wire op name (a `batch` counts as one request).
    pub fn op(&self) -> &'static str {
        match self {
            Req::Load { .. } | Req::LoadVariant { .. } => "load",
            Req::Eval { .. } => "eval",
            Req::EvalAt { .. } => "eval_at",
            Req::Bands { .. } => "bands",
            Req::Batch { .. } => "batch",
            Req::Edit { .. } => "edit",
            Req::History { .. } => "history",
            Req::Rank { .. } => "rank",
            Req::Mc { .. } => "mc",
        }
    }
}

/// Every op the workloads send, in report order.
pub const OPS: [&str; 9] =
    ["eval", "eval_at", "bands", "batch", "history", "edit", "rank", "mc", "load"];

/// A seeded workload: its cases and the parameters of its streams.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
    /// Zipf over tenant ranks (`fleet_churn` only).
    zipf_all: Option<Zipf>,
    zipf_own: Option<Zipf>,
    /// Monte-Carlo samples per `mc` request (`deep_analysis`).
    pub mc_samples: u32,
}

/// Node count, depth and maximum fan-out of the `deep_analysis` cases.
const DEEP_SHAPES: [(usize, usize, usize); 8] = [
    (256, 4, 8),
    (384, 5, 6),
    (512, 6, 4),
    (768, 8, 3),
    (1024, 10, 2),
    (1536, 7, 5),
    (2048, 12, 2),
    (4096, 6, 16),
];

/// Fixes the structure of the `deep_analysis` cases.
const DEEP_SHAPE_SEED: u64 = 0xdee9_ca5e;

/// Tenants registered by `fleet_churn`: 32× the plan cache.
const FLEET_TENANTS: usize = 2048;

fn serialize(case: &Case) -> String {
    serde_json::to_string(&depcase_service::protocol::Json(Serialize::to_value(case)))
        .expect("a built case serializes")
}

/// Every evidence and assumption leaf.
pub fn leaves(case: &Case) -> Vec<NodeId> {
    case.iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Evidence { .. } | NodeKind::Assumption { .. }))
        .map(|(id, _)| id)
        .collect()
}

fn evidence_leaves(case: &Case) -> Vec<NodeId> {
    case.iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Evidence { .. }))
        .map(|(id, _)| id)
        .collect()
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(mix(&[seed, kind as u64]));
        let mut tenants = Vec::new();
        let (mut zipf_all, mut zipf_own, mut mc_samples) = (None, None, 0);
        match kind {
            Kind::HotRead => {
                // Sixteen content-distinct stamped cases that fit the
                // plan cache without overflowing any of its shards.
                let per_shard = PLAN_CACHE as u64 / CACHE_SHARDS;
                let mut load = [0u64; CACHE_SHARDS as usize];
                let mut hashes = std::collections::HashSet::new();
                while tenants.len() < 16 {
                    let template = tenants.len() % templates::TEMPLATE_COUNT;
                    let case = templates::stamp(template, rng.next_u64() >> 16);
                    let hash = case.content_hash();
                    let shard = (hash % CACHE_SHARDS) as usize;
                    if load[shard] == per_shard || !hashes.insert(hash) {
                        continue;
                    }
                    load[shard] += 1;
                    tenants.push(tenant(format!("h{}", tenants.len()), case));
                }
            }
            Kind::FleetChurn => {
                for i in 0..FLEET_TENANTS {
                    let case =
                        templates::stamp(i % templates::TEMPLATE_COUNT, rng.next_u64() >> 16);
                    tenants.push(tenant(format!("f{i}"), case));
                }
                zipf_all = Some(Zipf::new(FLEET_TENANTS, 1.0));
                zipf_own = Some(Zipf::new(FLEET_TENANTS / CLIENTS, 1.0));
            }
            Kind::DeepAnalysis => {
                for (i, &(nodes, depth, fanout)) in DEEP_SHAPES.iter().enumerate() {
                    // The shapes are the same for every seed, so runs with
                    // different seeds do the same work; the seed draws the
                    // leaf confidences and the request stream.
                    let mut case = generate_case(
                        &mut Rng::new(mix(&[DEEP_SHAPE_SEED, i as u64])),
                        &format!("deep-{i}"),
                        nodes,
                        depth,
                        fanout,
                    );
                    for leaf in leaves(&case) {
                        case.set_leaf_confidence(leaf, rng.confidence())
                            .expect("leaves carry confidence");
                    }
                    let mut t = tenant(format!("d{i}"), case);
                    t.edit_leaves = deep_leaves(&t.base);
                    tenants.push(t);
                }
                mc_samples = 4096;
            }
        }
        Workload { kind, seed, tenants, zipf_all, zipf_own, mc_samples }
    }

    pub fn durable(&self) -> bool {
        self.kind == Kind::FleetChurn
    }

    /// Parameters of the `k`-th edit of tenant `t`: which leaf, and its
    /// new confidence.
    pub fn edit_of(&self, t: usize, k: u64) -> (NodeId, f64) {
        let leaves = &self.tenants[t].edit_leaves;
        let mut rng = Rng::new(mix(&[self.seed, 0xed17, t as u64, k]));
        (leaves[rng.below(leaves.len())], rng.confidence())
    }

    /// Tenant `t` at registry version `version` (1 = as loaded).
    pub fn case_at(&self, t: usize, version: u64) -> Case {
        let mut case = self.tenants[t].base.clone();
        for k in 0..version.saturating_sub(1) {
            let (leaf, conf) = self.edit_of(t, k);
            case.set_leaf_confidence(leaf, conf).expect("edit leaves carry confidence");
        }
        case
    }

    /// The `k`-th perturbed variant of tenant `t` loaded by `client`.
    pub fn variant(&self, t: usize, client: usize, k: u64) -> (String, Case) {
        let mut rng = Rng::new(mix(&[self.seed, 0x10ad, t as u64, client as u64, k]));
        let mut case = self.tenants[t].base.clone();
        let leaves = evidence_leaves(&case);
        for _ in 0..1 + rng.below(4) {
            let leaf = leaves[rng.below(leaves.len())];
            let conf = rng.confidence();
            case.set_leaf_confidence(leaf, conf).expect("evidence leaves carry confidence");
        }
        (format!("{}-p{client}-{k}", self.tenants[t].name), case)
    }

    /// Client `client`'s request stream.
    pub fn stream(&self, client: usize) -> Stream<'_> {
        Stream {
            w: self,
            client,
            rng: Rng::new(mix(&[self.seed, 0x57e4, client as u64])),
            edits: vec![0; self.tenants.len()],
            deck: Vec::new(),
            decks: 0,
            loads: 0,
            queued: None,
        }
    }

    /// Tenants client `client` loads at set-up (an even split).
    pub fn setup_share(&self, client: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.tenants.len()).filter(move |t| t % CLIENTS == client)
    }

    /// Renders `req` as a wire line (no newline) into `out`.
    pub fn render(&self, req: &Req, id: u64, out: &mut String) {
        out.clear();
        let name = |t: usize| self.tenants[t].name.as_str();
        let _ = match req {
            Req::Load { t } => write!(
                out,
                r#"{{"id":{id},"op":"load","name":"{}","case":{}}}"#,
                name(*t),
                self.tenants[*t].doc
            ),
            Req::LoadVariant { t, client, k } => {
                let (variant, case) = self.variant(*t, *client, *k);
                write!(
                    out,
                    r#"{{"id":{id},"op":"load","name":"{variant}","case":{}}}"#,
                    serialize(&case)
                )
            }
            Req::Eval { t } => write!(out, r#"{{"id":{id},"op":"eval","name":"{}"}}"#, name(*t)),
            Req::EvalAt { t, version } => write!(
                out,
                r#"{{"id":{id},"op":"eval","name":"{}","version":{version}}}"#,
                name(*t)
            ),
            Req::Bands { t, pfd_bound, high } => write!(
                out,
                r#"{{"id":{id},"op":"bands","name":"{}","pfd_bound":{pfd_bound},"mode":"{}"}}"#,
                name(*t),
                if *high { "high_demand" } else { "low_demand" }
            ),
            Req::Batch { ts } => {
                let _ = write!(out, r#"{{"id":{id},"v":2,"op":"batch","items":["#);
                for (i, t) in ts.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, r#"{sep}{{"op":"eval","name":"{}"}}"#, name(*t));
                }
                write!(out, "]}}")
            }
            Req::Edit { t, k } => {
                let (leaf, conf) = self.edit_of(*t, *k);
                let node = &self.tenants[*t].base.node(leaf).expect("own leaf").name;
                write!(
                    out,
                    r#"{{"id":{id},"op":"edit","name":"{}","action":"set_confidence","node":"{node}","confidence":{conf}}}"#,
                    name(*t)
                )
            }
            Req::History { t, .. } => {
                write!(out, r#"{{"id":{id},"op":"history","name":"{}"}}"#, name(*t))
            }
            Req::Rank { t } => write!(out, r#"{{"id":{id},"op":"rank","name":"{}"}}"#, name(*t)),
            Req::Mc { t, samples, seed } => write!(
                out,
                r#"{{"id":{id},"op":"mc","name":"{}","samples":{samples},"seed":{seed},"threads":1}}"#,
                name(*t)
            ),
        };
    }
}

fn tenant(name: String, base: Case) -> Tenant {
    let doc = serialize(&base);
    let edit_leaves = evidence_leaves(&base);
    Tenant { name, base, doc, edit_leaves }
}

/// An endless, deterministic request stream for one client.
#[derive(Debug)]
pub struct Stream<'w> {
    w: &'w Workload,
    client: usize,
    rng: Rng,
    /// Edits this client has issued per tenant (own tenants only).
    edits: Vec<u64>,
    /// `deep_analysis` draws still to come from the current deck.
    deck: Vec<Card>,
    decks: usize,
    loads: u64,
    /// The `eval` that follows a `deep_analysis` edit.
    queued: Option<Req>,
}

/// One draw of a stream; the tenant is picked when the card is played
/// unless the deck fixed it.
#[derive(Debug, Clone, Copy)]
enum Card {
    Eval,
    Bands,
    Batch,
    EvalAt,
    Edit,
    History,
    Rank(usize),
    Mc(usize),
    EditThenEval(usize),
    Load(usize),
}

/// Each client plays its mix from shuffled decks: every run then sends
/// the workload's op mix exactly, up to one partial deck, instead of a
/// random draw whose share of expensive ops would move the run-to-run
/// spread. `deep_analysis` also fixes each card's case, rotating the
/// cases across decks, because its case costs differ a hundredfold.
const HOT_DECK: [(Card, usize); 3] = [(Card::Eval, 12), (Card::Bands, 4), (Card::Batch, 4)];
const FLEET_DECK: [(Card, usize); 5] =
    [(Card::Eval, 9), (Card::Batch, 2), (Card::EvalAt, 2), (Card::Edit, 6), (Card::History, 1)];
/// `deep_analysis`: 35% `rank`, 35% `mc`, 20% edit then eval, 10% load.
const DEEP_DECK: (usize, usize, usize, usize) = (14, 14, 8, 4);

/// Cases whose fresh variants `deep_analysis` loads: the four smallest.
/// Parsing a case document costs time quadratic in its size in the
/// shipped JSON reader, so variants of the 4096-node case would take
/// seconds each and turn the run into a count of those loads; the big
/// documents are parsed at set-up, where `setup_s` measures them.
pub const DEEP_LOAD_CASES: usize = 4;

impl Stream<'_> {
    fn deal(&mut self) {
        let n = self.w.tenants.len();
        self.deck.clear();
        let fill = |deck: &mut Vec<Card>, cards: &[(Card, usize)]| {
            for &(card, count) in cards {
                deck.extend(std::iter::repeat_n(card, count));
            }
        };
        match self.w.kind {
            Kind::HotRead => fill(&mut self.deck, &HOT_DECK),
            Kind::FleetChurn => fill(&mut self.deck, &FLEET_DECK),
            Kind::DeepAnalysis => {
                let (ranks, mcs, edits, loads) = DEEP_DECK;
                let base = self.decks;
                let own: Vec<usize> = (0..n).filter(|t| t % CLIENTS == self.client).collect();
                self.deck.extend((0..ranks).map(|j| Card::Rank((base * ranks + j) % n)));
                self.deck.extend((0..mcs).map(|j| Card::Mc((base * mcs + j + n / 2) % n)));
                self.deck.extend(
                    (0..edits).map(|j| Card::EditThenEval(own[(base * edits + j) % own.len()])),
                );
                self.deck
                    .extend((0..loads).map(|j| Card::Load((base * loads + j) % DEEP_LOAD_CASES)));
            }
        }
        self.decks += 1;
        for i in (1..self.deck.len()).rev() {
            let j = self.rng.below(i + 1);
            self.deck.swap(i, j);
        }
    }

    /// A zipf-skewed own tenant (`t % CLIENTS == client`).
    fn own(&mut self) -> usize {
        let zipf = self.w.zipf_own.as_ref().expect("fleet zipf");
        zipf.sample(&mut self.rng) * CLIENTS + self.client
    }

    fn edit(&mut self, t: usize) -> Req {
        let k = self.edits[t];
        self.edits[t] += 1;
        Req::Edit { t, k }
    }

    fn version(&self, t: usize) -> u64 {
        self.edits[t] + 1
    }
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if let Some(req) = self.queued.take() {
            return Some(req);
        }
        if self.deck.is_empty() {
            self.deal();
        }
        let w = self.w;
        let n = w.tenants.len();
        let fleet = w.kind == Kind::FleetChurn;
        // Zipf ranks map to tenants through a fixed stride, so the hot
        // tenants spread over every template.
        let any = |s: &mut Self| match &w.zipf_all {
            Some(zipf) => (zipf.sample(&mut s.rng) * 1031) % n,
            None => s.rng.below(n),
        };
        let req = match self.deck.pop().expect("a freshly dealt deck") {
            Card::Eval => Req::Eval { t: any(self) },
            Card::Bands => Req::Bands {
                t: any(self),
                pfd_bound: [1e-2, 1e-3, 1e-4][self.rng.below(3)],
                high: self.rng.below(4) == 0,
            },
            Card::Batch if fleet => {
                // Sixteen variants of one template: one plan shape.
                let template = self.rng.below(templates::TEMPLATE_COUNT);
                let per = n / templates::TEMPLATE_COUNT;
                let ts = (0..BATCH_ITEMS)
                    .map(|_| self.rng.below(per) * templates::TEMPLATE_COUNT + template)
                    .collect();
                Req::Batch { ts }
            }
            Card::Batch => Req::Batch { ts: (0..BATCH_ITEMS).map(|_| self.rng.below(n)).collect() },
            Card::EvalAt => {
                let t = self.own();
                let version = 1 + self.rng.below(self.version(t) as usize) as u64;
                Req::EvalAt { t, version }
            }
            Card::Edit => {
                let t = self.own();
                self.edit(t)
            }
            Card::History => {
                let t = self.own();
                Req::History { t, version: self.version(t) }
            }
            Card::Rank(t) => Req::Rank { t },
            Card::Mc(t) => Req::Mc {
                t,
                samples: w.mc_samples,
                seed: mix(&[w.seed, 0x3c, self.client as u64, self.rng.next_u64()]),
            },
            Card::EditThenEval(t) => {
                self.queued = Some(Req::Eval { t });
                self.edit(t)
            }
            Card::Load(t) => {
                self.loads += 1;
                Req::LoadVariant { t, client: self.client, k: self.loads - 1 }
            }
        };
        Some(req)
    }
}

/// Leaves on the two deepest levels of a generated case: the targets
/// of `deep_analysis` edits, whose dirty spine is the longest.
fn deep_leaves(case: &Case) -> Vec<NodeId> {
    let depth = depths(case);
    let leaves: Vec<(NodeId, usize)> =
        evidence_leaves(case).into_iter().map(|id| (id, depth[&id])).collect();
    let max = leaves.iter().map(|&(_, d)| d).max().unwrap_or(0);
    leaves.into_iter().filter(|&(_, d)| d + 1 >= max).map(|(id, _)| id).collect()
}

/// Depth of every node from the root (generated cases are trees).
pub fn depths(case: &Case) -> std::collections::HashMap<NodeId, usize> {
    let mut depth = std::collections::HashMap::with_capacity(case.len());
    let mut stack: Vec<(NodeId, usize)> = case.roots().into_iter().map(|r| (r, 0)).collect();
    while let Some((id, d)) = stack.pop() {
        depth.insert(id, d);
        for child in case.supporters(id).expect("node of this case") {
            stack.push((child, d + 1));
        }
    }
    depth
}

/// A seeded argument tree of exactly `nodes` nodes whose deepest leaf
/// sits at `depth`, with at most `fanout` supporters per node: AnyOf /
/// AllOf strategies and sub-goals inside, evidence and assumptions at
/// the leaves. Built through the public `Case` API only.
pub fn generate_case(
    rng: &mut Rng,
    title: &str,
    nodes: usize,
    depth: usize,
    fanout: usize,
) -> Case {
    struct Slot {
        id: NodeId,
        depth: usize,
        children: usize,
        internal: bool,
    }
    let mut case = Case::new(title);
    let mut slots: Vec<Slot> = Vec::with_capacity(nodes);
    let mut open: Vec<usize> = Vec::new();
    let add_internal = |case: &mut Case, rng: &mut Rng, i: usize| -> NodeId {
        let name = format!("N{i}");
        match rng.below(3) {
            0 => case.add_goal(name, "s"),
            1 => case.add_strategy(name, "s", Combination::AnyOf),
            _ => case.add_strategy(name, "s", Combination::AllOf),
        }
        .expect("fresh node name")
    };
    let root = case.add_goal("G", "s").expect("fresh node name");
    slots.push(Slot { id: root, depth: 0, children: 0, internal: true });
    open.push(0);
    // A spine of internal nodes down to `depth - 1` pins the depth.
    for d in 1..depth {
        let id = add_internal(&mut case, rng, slots.len());
        let parent = slots.len() - 1;
        case.support(slots[parent].id, id).expect("tree edge");
        slots[parent].children += 1;
        slots.push(Slot { id, depth: d, children: 0, internal: true });
        open.push(slots.len() - 1);
    }
    let p_internal = (1.5 / fanout as f64 + 0.1).min(0.9);
    loop {
        let undeveloped = slots.iter().filter(|s| s.internal && s.children == 0).count();
        if slots.len() + undeveloped >= nodes || open.is_empty() {
            break;
        }
        let pick = rng.below(open.len());
        let p = open[pick];
        let d = slots[p].depth + 1;
        let internal = d < depth && (open.len() < 8 || rng.unit() < p_internal);
        let i = slots.len();
        let id = if internal {
            add_internal(&mut case, rng, i)
        } else if slots[p].children > 0 && rng.below(10) == 0 {
            case.add_assumption(format!("N{i}"), "s", rng.confidence()).expect("fresh node name")
        } else {
            case.add_evidence(format!("N{i}"), "s", rng.confidence()).expect("fresh node name")
        };
        case.support(slots[p].id, id).expect("tree edge");
        slots[p].children += 1;
        if slots[p].children == fanout {
            open.swap_remove(pick);
        }
        slots.push(Slot { id, depth: d, children: 0, internal });
        if internal {
            open.push(slots.len() - 1);
        }
    }
    // Develop every internal node still without support.
    for slot in slots.iter_mut().filter(|s| s.internal && s.children == 0) {
        let i = case.len();
        let leaf =
            case.add_evidence(format!("N{i}"), "s", rng.confidence()).expect("fresh node name");
        case.support(slot.id, leaf).expect("tree edge");
        slot.children += 1;
    }
    case
}

//! The argument graph: nodes, edges, structural validation.

use crate::error::{CaseError, Result};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// Version stamped into serialized case files as the `"schema"` field.
///
/// Files without the field are accepted as legacy (pre-versioning)
/// saves; files with a *newer* version than this library understands
/// are rejected instead of being silently misread.
pub const CASE_SCHEMA_VERSION: u64 = 1;

/// Opaque handle to a node in a [`Case`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Wraps an arena index. The IR and the case share indexing, so
    /// this is the bridge back from dense structures to handles.
    pub(crate) fn from_index(i: usize) -> Self {
        NodeId(i)
    }

    /// The arena index behind the handle.
    pub(crate) fn to_index(self) -> usize {
        self.0
    }
}

/// How a node's supporting children combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Combination {
    /// The claim holds only if **every** child holds (conjunctive
    /// decomposition): doubts accumulate.
    AllOf,
    /// The claim holds if **any** child's argument is sound (independent
    /// legs, the paper's Section 4.2): doubts multiply.
    AnyOf,
}

/// The kind of an argument node, following GSN vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A claim to be supported (GSN goal).
    Goal,
    /// A reasoning step joining a goal to its support, with an explicit
    /// combination rule.
    Strategy(Combination),
    /// Leaf evidence (GSN solution) carrying elicited confidence that the
    /// evidence soundly establishes its parent.
    Evidence {
        /// `P(evidence is sound)`.
        confidence: f64,
    },
    /// An assumption the argument rests on, carrying the confidence that
    /// it is true. Assumptions attach to any non-leaf node and combine
    /// conjunctively with its support.
    Assumption {
        /// `P(assumption holds)`.
        confidence: f64,
    },
    /// Contextual information; ignored by propagation.
    Context,
}

/// One node of the case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Short reference label, unique in the case (e.g. "G1").
    pub name: String,
    /// Free-text statement.
    pub statement: String,
    /// The node's kind and payload.
    pub kind: NodeKind,
}

/// A dependability case: a directed acyclic argument graph.
///
/// See the crate-level example for typical construction.
///
/// # Serialized form
///
/// Cases serialize as a versioned JSON object: `{"schema": 1, "title":
/// …, "nodes": […], "children": […]}`. The name index is not stored:
/// loading checks the names are unique, and the first lookup by name
/// rebuilds it. Legacy files that predate the `"schema"` field (which
/// stored the index as `"by_name"`) are still accepted. Confidence
/// values survive a save/load round trip bit-for-bit (the
/// `float_roundtrip` JSON guarantee).
///
/// The compact text of that object is the *packed case document*, the
/// form a stored case version is kept in. [`Case::to_json`] writes it
/// and [`Case::from_json`] reads it straight from and into the case's
/// arrays, with no [`Value`] tree between: the same bytes as
/// `serde_json::to_string(&case)` and the same cases, bit for bit, as
/// [`Case::from_value`] of the parsed text, legacy form included.
#[derive(Debug, Clone)]
pub struct Case {
    title: String,
    nodes: Vec<Node>,
    /// children[i] = nodes supporting node i.
    children: Vec<Vec<usize>>,
    /// Name → index, built by the first lookup by name: a decoded case
    /// that is only evaluated never needs it.
    by_name: OnceLock<HashMap<String, usize>>,
}

impl PartialEq for Case {
    fn eq(&self, other: &Self) -> bool {
        (&self.title, &self.nodes, &self.children) == (&other.title, &other.nodes, &other.children)
    }
}

impl Serialize for Case {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::U64(CASE_SCHEMA_VERSION)),
            ("title".to_string(), self.title.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("children".to_string(), self.children.to_value()),
        ])
    }
}

impl Deserialize for Case {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| serde::Error::custom("expected object for Case"))?;
        if let Some(schema) = v.get("schema") {
            check_schema(schema)?;
        }
        let title = String::from_value(serde::field(obj, "title")?)?;
        let nodes = Vec::<Node>::from_value(serde::field(obj, "nodes")?)?;
        let children = Vec::<Vec<usize>>::from_value(serde::field(obj, "children")?)?;
        Case::from_parts(title, nodes, children)
    }
}

/// Accepts a stored `"schema"` stamp this library can read.
pub(crate) fn check_schema(schema: &Value) -> std::result::Result<(), serde::Error> {
    let version =
        schema.as_u64().ok_or_else(|| serde::Error::custom("case `schema` must be an integer"))?;
    if version == 0 || version > CASE_SCHEMA_VERSION {
        return Err(serde::Error::custom(format!(
            "unsupported case schema version {version} (this library reads ≤ {CASE_SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

impl Case {
    /// Assembles a decoded case, checking what its serialized form
    /// cannot express: one adjacency row per node, child indices in
    /// range, then — one pass over the nodes against one pre-reserved
    /// name set and one edge-marker array — unique names, leaf
    /// confidences in `[0, 1]`, and the edge rules [`Case::support`]
    /// enforces, each refused with its reason: no self-support, no child
    /// under evidence or context, no context child, no repeated edge.
    /// Cycles are left to evaluation, as for built cases. Both decoders,
    /// [`Case::from_value`] and [`Case::from_json`], end here.
    pub(crate) fn from_parts(
        title: String,
        nodes: Vec<Node>,
        children: Vec<Vec<usize>>,
    ) -> std::result::Result<Self, serde::Error> {
        if children.len() != nodes.len() {
            return Err(serde::Error::custom(format!(
                "case has {} nodes but {} adjacency rows",
                nodes.len(),
                children.len()
            )));
        }
        if let Some(&bad) = children.iter().flatten().find(|&&c| c >= nodes.len()) {
            return Err(serde::Error::custom(format!(
                "child index {bad} out of range for {} nodes",
                nodes.len()
            )));
        }
        let mut names = HashSet::with_capacity(nodes.len());
        // `marked[c] == p + 1` once row `p` has listed child `c`.
        let mut marked = vec![0usize; nodes.len()];
        for (p, (node, row)) in nodes.iter().zip(&children).enumerate() {
            if !names.insert(node.name.as_str()) {
                return Err(serde::Error::custom(format!("duplicate node name: {}", node.name)));
            }
            if let NodeKind::Evidence { confidence: c } | NodeKind::Assumption { confidence: c } =
                node.kind
            {
                check_confidence(c)
                    .map_err(|e| serde::Error::custom(format!("node {}: {e}", node.name)))?;
            }
            for &c in row {
                check_edge(&nodes, p, c).map_err(serde::Error::custom)?;
                if std::mem::replace(&mut marked[c], p + 1) == p + 1 {
                    let reason = format!("edge {} → {} is repeated", node.name, nodes[c].name);
                    return Err(serde::Error::custom(CaseError::InvalidEdge { reason }));
                }
            }
        }
        drop(names);
        Ok(Self { title, nodes, children, by_name: OnceLock::new() })
    }
}

impl Case {
    /// Creates an empty case.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            nodes: Vec::new(),
            children: Vec::new(),
            by_name: OnceLock::new(),
        }
    }

    /// The case title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the case has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn add_node(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
        kind: NodeKind,
    ) -> Result<NodeId> {
        let name = name.into();
        if self.name_index().contains_key(&name) {
            return Err(CaseError::DuplicateName(name));
        }
        let idx = self.nodes.len();
        self.by_name.get_mut().expect("built by the check above").insert(name.clone(), idx);
        self.nodes.push(Node { name, statement: statement.into(), kind });
        self.children.push(Vec::new());
        Ok(NodeId(idx))
    }

    /// Adds a goal (claim) node.
    ///
    /// # Errors
    ///
    /// [`CaseError::DuplicateName`] when the name is taken.
    pub fn add_goal(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
    ) -> Result<NodeId> {
        self.add_node(name, statement, NodeKind::Goal)
    }

    /// Adds a strategy node with its combination rule.
    ///
    /// # Errors
    ///
    /// [`CaseError::DuplicateName`] when the name is taken.
    pub fn add_strategy(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
        combination: Combination,
    ) -> Result<NodeId> {
        self.add_node(name, statement, NodeKind::Strategy(combination))
    }

    /// Adds a leaf evidence node carrying elicited confidence.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidConfidence`] outside `[0, 1]`,
    /// [`CaseError::DuplicateName`] when the name is taken.
    pub fn add_evidence(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
        confidence: f64,
    ) -> Result<NodeId> {
        check_confidence(confidence)?;
        self.add_node(name, statement, NodeKind::Evidence { confidence })
    }

    /// Adds an assumption node carrying the confidence it holds.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidConfidence`] outside `[0, 1]`,
    /// [`CaseError::DuplicateName`] when the name is taken.
    pub fn add_assumption(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
        confidence: f64,
    ) -> Result<NodeId> {
        check_confidence(confidence)?;
        self.add_node(name, statement, NodeKind::Assumption { confidence })
    }

    /// Adds a context node (ignored by propagation).
    ///
    /// # Errors
    ///
    /// [`CaseError::DuplicateName`] when the name is taken.
    pub fn add_context(
        &mut self,
        name: impl Into<String>,
        statement: impl Into<String>,
    ) -> Result<NodeId> {
        self.add_node(name, statement, NodeKind::Context)
    }

    /// Declares that `child` supports `parent`.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidEdge`] for self-support, support *by* a goal
    /// of a leaf, support attached to leaves, or an edge that would close
    /// a cycle; [`CaseError::UnknownNode`] for dangling handles.
    pub fn support(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        let p = self.index(parent)?;
        let c = self.index(child)?;
        check_edge(&self.nodes, p, c)?;
        if self.reaches(c, p) {
            return Err(CaseError::InvalidEdge {
                reason: format!(
                    "edge {} → {} would create a cycle",
                    self.nodes[p].name, self.nodes[c].name
                ),
            });
        }
        if self.children[p].contains(&c) {
            return Ok(()); // idempotent
        }
        self.children[p].push(c);
        Ok(())
    }

    /// Updates the elicited confidence of an evidence or assumption
    /// leaf — the hook used by what-if and importance analyses.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidConfidence`] outside `[0, 1]`,
    /// [`CaseError::UnknownNode`] for a foreign handle, and
    /// [`CaseError::InvalidStructure`] when the node is not a leaf that
    /// carries confidence.
    pub fn set_leaf_confidence(&mut self, id: NodeId, confidence: f64) -> Result<()> {
        check_confidence(confidence)?;
        let i = self.index(id)?;
        match &mut self.nodes[i].kind {
            NodeKind::Evidence { confidence: c } | NodeKind::Assumption { confidence: c } => {
                *c = confidence;
                Ok(())
            }
            _ => Err(CaseError::InvalidStructure(format!(
                "node {} does not carry elicited confidence",
                self.nodes[i].name
            ))),
        }
    }

    /// Replaces the support edge `parent → from` with `parent → to`,
    /// preserving the edge's position — and therefore the combination
    /// order of `parent`'s supporters.
    ///
    /// Retargeting to the current child (`from == to`) is a no-op.
    ///
    /// # Errors
    ///
    /// [`CaseError::UnknownNode`] for dangling handles;
    /// [`CaseError::InvalidEdge`] when `from` does not currently support
    /// `parent`, when `to` is the parent itself, a context node or
    /// already a supporter, or when the new edge would close a cycle.
    pub fn retarget_support(&mut self, parent: NodeId, from: NodeId, to: NodeId) -> Result<()> {
        let p = self.index(parent)?;
        let f = self.index(from)?;
        let t = self.index(to)?;
        let Some(pos) = self.children[p].iter().position(|&c| c == f) else {
            return Err(CaseError::InvalidEdge {
                reason: format!("{} does not support {}", self.nodes[f].name, self.nodes[p].name),
            });
        };
        if f == t {
            return Ok(());
        }
        check_edge(&self.nodes, p, t)?;
        if self.children[p].contains(&t) {
            return Err(CaseError::InvalidEdge {
                reason: format!("{} already supports {}", self.nodes[t].name, self.nodes[p].name),
            });
        }
        if self.reaches(t, p) {
            return Err(CaseError::InvalidEdge {
                reason: format!(
                    "edge {} → {} would create a cycle",
                    self.nodes[p].name, self.nodes[t].name
                ),
            });
        }
        self.children[p][pos] = t;
        Ok(())
    }

    /// Looks a node up by its reference label.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index().get(name).map(|&i| NodeId(i))
    }

    fn name_index(&self) -> &HashMap<String, usize> {
        self.by_name.get_or_init(|| {
            self.nodes.iter().enumerate().map(|(i, n)| (n.name.clone(), i)).collect()
        })
    }

    /// The node payload behind a handle.
    ///
    /// # Errors
    ///
    /// [`CaseError::UnknownNode`] for a handle from another case.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or_else(|| CaseError::UnknownNode(format!("#{}", id.0)))
    }

    /// The direct supporters of a node.
    ///
    /// # Errors
    ///
    /// [`CaseError::UnknownNode`] for a handle from another case.
    pub fn supporters(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let i = self.index(id)?;
        Ok(self.children[i].iter().map(|&c| NodeId(c)).collect())
    }

    /// All nodes, in insertion order, paired with their handles.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// The root goals: goal nodes no other node is supported by.
    #[must_use]
    pub fn roots(&self) -> Vec<NodeId> {
        let mut supported = vec![false; self.nodes.len()];
        for cs in &self.children {
            for &c in cs {
                supported[c] = true;
            }
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| matches!(n.kind, NodeKind::Goal) && !supported[*i])
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Structural validation: at least one root goal, and every non-leaf
    /// node on a path from a root is developed (has supporters).
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        let roots = self.roots();
        if roots.is_empty() {
            return Err(CaseError::InvalidStructure("no root goal".into()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            match n.kind {
                NodeKind::Goal | NodeKind::Strategy(_) if self.children[i].is_empty() => {
                    return Err(CaseError::InvalidStructure(format!(
                        "node {} is undeveloped (no support)",
                        n.name
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Evaluates the case: validates, then propagates confidence.
    ///
    /// # Errors
    ///
    /// Structural errors from [`Case::validate`].
    pub fn propagate(&self) -> Result<crate::propagation::ConfidenceReport> {
        crate::propagation::propagate(self)
    }

    /// A stable 64-bit content hash of exactly what evaluation depends
    /// on: the fold of every node's Merkle-style subtree hash
    /// ([`crate::CaseIr::case_hash`]) — kind tags, confidence bit
    /// patterns, combination rules and the support edges. Titles, names
    /// and statements are *not* hashed: relabelling a case cannot change
    /// an answer, so it does not change the hash either.
    ///
    /// Two cases hash equal iff they evaluate identically, so the hash
    /// is a safe key for caches of compiled [`crate::EvalPlan`]s,
    /// propagation reports and incremental memo tables — the
    /// `depcase-service` engine keys its plan cache on it. (FNV-1a; not
    /// cryptographic, collision chance for a registry of thousands of
    /// cases is ~2⁻⁴⁰.)
    ///
    /// A cyclic graph (only constructible by hand-editing a save file;
    /// it can never evaluate) falls back to a flat structural hash.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        match crate::ir::CaseIr::build(self) {
            Ok(ir) => ir.case_hash(),
            Err(_) => self.flat_structure_hash(),
        }
    }

    /// Non-Merkle fallback for graphs the IR refuses to lower: the raw
    /// node payloads and adjacency rows, hashed flat.
    fn flat_structure_hash(&self) -> u64 {
        let mut h = crate::ir::Fnv::new();
        h.write_u64(CASE_SCHEMA_VERSION);
        h.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            let (tag, confidence) = match node.kind {
                NodeKind::Goal => (0u8, None),
                NodeKind::Strategy(Combination::AllOf) => (1, None),
                NodeKind::Strategy(Combination::AnyOf) => (2, None),
                NodeKind::Evidence { confidence } => (3, Some(confidence)),
                NodeKind::Assumption { confidence } => (4, Some(confidence)),
                NodeKind::Context => (5, None),
            };
            h.write(&[tag]);
            if let Some(c) = confidence {
                h.write_u64(c.to_bits());
            }
        }
        for kids in &self.children {
            h.write_u64(kids.len() as u64);
            for &c in kids {
                h.write_u64(c as u64);
            }
        }
        h.0
    }

    pub(crate) fn index(&self, id: NodeId) -> Result<usize> {
        if id.0 < self.nodes.len() {
            Ok(id.0)
        } else {
            Err(CaseError::UnknownNode(format!("#{}", id.0)))
        }
    }

    pub(crate) fn children_of(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    pub(crate) fn node_at(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Is `to` reachable from `from` along support edges?
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            stack.extend(self.children[n].iter().copied());
        }
        false
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "case: {} ({} nodes)", self.title, self.nodes.len())?;
        for (i, n) in self.nodes.iter().enumerate() {
            let kids: Vec<&str> =
                self.children[i].iter().map(|&c| self.nodes[c].name.as_str()).collect();
            writeln!(f, "  {} [{:?}] ← {:?}", n.name, n.kind, kids)?;
        }
        Ok(())
    }
}

/// The rules every edge `p → c` keeps, however the case was built: no
/// self-support, nothing under evidence or context, no context child.
fn check_edge(nodes: &[Node], p: usize, c: usize) -> Result<()> {
    let reason = if p == c {
        "a node cannot support itself".to_string()
    } else if matches!(nodes[p].kind, NodeKind::Evidence { .. } | NodeKind::Context) {
        format!("leaf node {} cannot be supported", nodes[p].name)
    } else if matches!(nodes[c].kind, NodeKind::Context) {
        "context nodes do not support claims; attach them as context".to_string()
    } else {
        return Ok(());
    };
    Err(CaseError::InvalidEdge { reason })
}

fn check_confidence(c: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&c) {
        return Err(CaseError::InvalidConfidence(format!("{c} outside [0, 1]")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case() -> (Case, NodeId, NodeId, NodeId) {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "top claim").unwrap();
        let e1 = case.add_evidence("E1", "testing", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "analysis", 0.8).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        (case, g, e1, e2)
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut case = Case::new("t");
        case.add_goal("G1", "a").unwrap();
        assert!(matches!(case.add_goal("G1", "b"), Err(CaseError::DuplicateName(_))));
    }

    #[test]
    fn confidence_validation() {
        let mut case = Case::new("t");
        assert!(case.add_evidence("E1", "x", 1.5).is_err());
        assert!(case.add_evidence("E1", "x", -0.1).is_err());
        assert!(case.add_assumption("A1", "x", f64::NAN).is_err());
    }

    #[test]
    fn self_support_rejected() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "a").unwrap();
        assert!(case.support(g, g).is_err());
    }

    #[test]
    fn leaves_cannot_be_supported() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "a").unwrap();
        let e = case.add_evidence("E1", "x", 0.9).unwrap();
        let c = case.add_context("C1", "env").unwrap();
        assert!(case.support(e, g).is_err());
        assert!(case.support(c, g).is_err());
    }

    #[test]
    fn context_cannot_support() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "a").unwrap();
        let c = case.add_context("C1", "env").unwrap();
        assert!(case.support(g, c).is_err());
    }

    #[test]
    fn cycles_rejected() {
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "a").unwrap();
        let g2 = case.add_goal("G2", "b").unwrap();
        let g3 = case.add_goal("G3", "c").unwrap();
        case.support(g1, g2).unwrap();
        case.support(g2, g3).unwrap();
        let err = case.support(g3, g1);
        assert!(matches!(err, Err(CaseError::InvalidEdge { .. })));
    }

    #[test]
    fn support_is_idempotent() {
        let (mut case, g, e1, _) = small_case();
        case.support(g, e1).unwrap();
        assert_eq!(case.supporters(g).unwrap().len(), 2);
    }

    #[test]
    fn roots_are_unsupported_goals() {
        let (case, g, ..) = small_case();
        assert_eq!(case.roots(), vec![g]);
    }

    #[test]
    fn lookup_by_name() {
        let (case, g, ..) = small_case();
        assert_eq!(case.node_by_name("G1"), Some(g));
        assert_eq!(case.node_by_name("ZZ"), None);
        assert_eq!(case.node(g).unwrap().statement, "top claim");
    }

    #[test]
    fn validate_catches_undeveloped() {
        let mut case = Case::new("t");
        case.add_goal("G1", "a").unwrap();
        assert!(matches!(case.validate(), Err(CaseError::InvalidStructure(_))));
        let (good, ..) = small_case();
        assert!(good.validate().is_ok());
    }

    #[test]
    fn validate_requires_root_goal() {
        let mut case = Case::new("t");
        case.add_evidence("E1", "x", 0.9).unwrap();
        assert!(matches!(case.validate(), Err(CaseError::InvalidStructure(_))));
    }

    #[test]
    fn foreign_handles_rejected() {
        let (case, ..) = small_case();
        let other = Case::new("o");
        let bad = NodeId(42);
        assert!(case.node(bad).is_err());
        assert!(other.node(bad).is_err());
    }

    #[test]
    fn iter_and_display() {
        let (case, ..) = small_case();
        assert_eq!(case.iter().count(), 3);
        assert_eq!(case.len(), 3);
        assert!(!case.is_empty());
        let s = case.to_string();
        assert!(s.contains("G1") && s.contains("E2"), "{s}");
    }

    #[test]
    fn serde_round_trip() {
        let (case, ..) = small_case();
        let json = serde_json::to_string(&case).unwrap();
        let back: Case = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn serialized_cases_are_schema_stamped() {
        let (case, ..) = small_case();
        let json = serde_json::to_string(&case).unwrap();
        assert!(json.starts_with("{\"schema\":1,"), "{json}");
        assert!(!json.contains("by_name"), "name index must be rebuilt, not stored: {json}");
    }

    #[test]
    fn legacy_files_without_schema_field_load() {
        // The pre-versioning on-disk shape: no "schema", stored "by_name".
        let legacy = r#"{"title":"t","nodes":[{"name":"G1","statement":"top claim","kind":"Goal"},{"name":"E1","statement":"testing","kind":{"Evidence":{"confidence":0.9}}}],"children":[[1],[]],"by_name":{"E1":1,"G1":0}}"#;
        let case: Case = serde_json::from_str(legacy).unwrap();
        assert_eq!(case.title(), "t");
        assert_eq!(case.len(), 2);
        let g = case.node_by_name("G1").unwrap();
        assert_eq!(case.supporters(g).unwrap().len(), 1);
        // Re-saving upgrades the file to the stamped schema.
        assert!(serde_json::to_string(&case).unwrap().contains("\"schema\":1"));
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let future = r#"{"schema":2,"title":"t","nodes":[],"children":[]}"#;
        assert!(serde_json::from_str::<Case>(future).is_err());
        let zero = r#"{"schema":0,"title":"t","nodes":[],"children":[]}"#;
        assert!(serde_json::from_str::<Case>(zero).is_err());
    }

    #[test]
    fn malformed_case_files_are_rejected() {
        // Adjacency row count must match the node count.
        let short = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"}],"children":[]}"#;
        assert!(serde_json::from_str::<Case>(short).is_err());
        // Child indices must be in range.
        let dangling = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"}],"children":[[7]]}"#;
        assert!(serde_json::from_str::<Case>(dangling).is_err());
        // Duplicate names would corrupt the rebuilt index.
        let dup = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"},{"name":"G1","statement":"b","kind":"Goal"}],"children":[[],[]]}"#;
        assert!(serde_json::from_str::<Case>(dup).is_err());
    }

    #[test]
    fn decoded_leaf_confidences_must_lie_in_the_unit_interval() {
        // `null` decodes to NaN; every leaf kind is checked, with the
        // same message `add_evidence` gives.
        for (kind, bad) in
            [("Evidence", "1.5"), ("Evidence", "-0.1"), ("Evidence", "null"), ("Assumption", "2")]
        {
            let doc = format!(
                r#"{{"schema":1,"title":"t","nodes":[{{"name":"G1","statement":"a","kind":"Goal"}},{{"name":"L1","statement":"b","kind":{{"{kind}":{{"confidence":{bad}}}}}}}],"children":[[1],[]]}}"#
            );
            let err = serde_json::from_str::<Case>(&doc).unwrap_err().to_string();
            assert!(err.contains("node L1: invalid confidence"), "{kind} {bad}: {err}");
        }
        let ok = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"},{"name":"E1","statement":"b","kind":{"Evidence":{"confidence":1.0}}}],"children":[[1],[]]}"#;
        assert!(serde_json::from_str::<Case>(ok).is_ok(), "the unit interval is closed");
    }

    #[test]
    fn decoded_edges_obey_the_builders_rules() {
        // Each document breaks one rule `support` enforces, and both
        // decoders refuse it with `support`'s reason, so no decoded case
        // can mean what no built case can.
        let doc = |nodes: &[&str], children: &str| {
            format!(
                r#"{{"schema":1,"title":"t","nodes":[{}],"children":{children}}}"#,
                nodes.join(",")
            )
        };
        let g = r#"{"name":"G","statement":"c","kind":"Goal"}"#;
        let s = r#"{"name":"S","statement":"s","kind":{"Strategy":"AllOf"}}"#;
        let e = r#"{"name":"E","statement":"e","kind":{"Evidence":{"confidence":0.9}}}"#;
        let c = r#"{"name":"C","statement":"x","kind":"Context"}"#;
        for (text, reason) in [
            (doc(&[g, e], "[[0,1],[]]"), "a node cannot support itself"),
            (doc(&[g, e, s], "[[1],[2],[]]"), "leaf node E cannot be supported"),
            (doc(&[g, e, c], "[[1],[],[1]]"), "leaf node C cannot be supported"),
            (doc(&[g, e, c], "[[1,2],[],[]]"), "context nodes do not support claims"),
            (doc(&[g, e], "[[1,1],[]]"), "edge G → E is repeated"),
        ] {
            let by_value = serde_json::from_str::<Case>(&text).unwrap_err().to_string();
            let by_codec = Case::from_json(&text).unwrap_err().to_string();
            for err in [by_value, by_codec] {
                assert!(err.contains(&format!("invalid edge: {reason}")), "{text}: {err}");
            }
        }
        let mut built = Case::new("t");
        let (g1, e1) =
            (built.add_goal("G", "c").unwrap(), built.add_evidence("E", "e", 0.9).unwrap());
        let err = built.support(g1, g1).unwrap_err().to_string();
        assert!(err.contains("invalid edge: a node cannot support itself"), "{err}");
        let err = built.support(e1, g1).unwrap_err().to_string();
        assert!(err.contains("invalid edge: leaf node E cannot be supported"), "{err}");
        // A child shared by two parents is one edge in each row.
        let shared = doc(&[g, s, e], "[[1,2],[2],[]]");
        assert!(serde_json::from_str::<Case>(&shared).is_ok() && Case::from_json(&shared).is_ok());
    }

    #[test]
    fn retarget_preserves_position_and_validates() {
        let (mut case, g, e1, e2) = small_case();
        let e3 = case.add_evidence("E3", "audit", 0.7).unwrap();
        let c1 = case.add_context("C1", "env").unwrap();
        // E3 replaces E1 in E1's slot.
        case.retarget_support(g, e1, e3).unwrap();
        assert_eq!(case.supporters(g).unwrap(), vec![e3, e2]);
        // `from` must currently support the parent.
        assert!(case.retarget_support(g, e1, e2).is_err());
        // Duplicates, self-support and context targets are rejected.
        assert!(case.retarget_support(g, e3, e2).is_err());
        assert!(case.retarget_support(g, e3, g).is_err());
        assert!(case.retarget_support(g, e3, c1).is_err());
        // Retargeting onto the current child is a no-op.
        case.retarget_support(g, e3, e3).unwrap();
        assert_eq!(case.supporters(g).unwrap(), vec![e3, e2]);
    }

    #[test]
    fn retarget_rejects_cycles() {
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "a").unwrap();
        let g2 = case.add_goal("G2", "b").unwrap();
        let e = case.add_evidence("E1", "x", 0.9).unwrap();
        case.support(g1, g2).unwrap();
        case.support(g2, e).unwrap();
        // g2 → e must not become g2 → g1.
        assert!(case.retarget_support(g2, e, g1).is_err());
    }

    #[test]
    fn content_hash_ignores_labels_but_not_structure() {
        let (case, ..) = small_case();
        let mut relabelled = Case::new("different title");
        let g = relabelled.add_goal("Root", "reworded claim").unwrap();
        let e1 = relabelled.add_evidence("Ev1", "reworded", 0.9).unwrap();
        let e2 = relabelled.add_evidence("Ev2", "reworded", 0.8).unwrap();
        relabelled.support(g, e1).unwrap();
        relabelled.support(g, e2).unwrap();
        assert_eq!(case.content_hash(), relabelled.content_hash());

        // Swapping combination order is evaluation-relevant for MC
        // (leaf slot order fixes the RNG stream) and changes the hash.
        let mut reordered = Case::new("t");
        let g = reordered.add_goal("G1", "top claim").unwrap();
        let e2 = reordered.add_evidence("E2", "analysis", 0.8).unwrap();
        let e1 = reordered.add_evidence("E1", "testing", 0.9).unwrap();
        reordered.support(g, e1).unwrap();
        reordered.support(g, e2).unwrap();
        assert_ne!(case.content_hash(), reordered.content_hash());
    }

    #[test]
    fn cyclic_file_hash_is_stable_and_distinct() {
        let cyclic = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"},{"name":"G2","statement":"b","kind":"Goal"}],"children":[[1],[0]]}"#;
        let case: Case = serde_json::from_str(cyclic).unwrap();
        let h = case.content_hash();
        assert_eq!(h, case.clone().content_hash());
        let acyclic = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"},{"name":"G2","statement":"b","kind":"Goal"}],"children":[[1],[]]}"#;
        let other: Case = serde_json::from_str(acyclic).unwrap();
        assert_ne!(h, other.content_hash());
    }

    #[test]
    fn content_hash_tracks_evaluation_relevant_state() {
        let (case, _, e1, _) = small_case();
        let baseline = case.content_hash();
        assert_eq!(baseline, case.clone().content_hash(), "hash is deterministic");

        // A confidence nudge by one ULP changes the hash.
        let mut tweaked = case.clone();
        tweaked.set_leaf_confidence(e1, 0.9 + f64::EPSILON).unwrap();
        assert_ne!(baseline, tweaked.content_hash());

        // A structural change (extra edge) changes the hash.
        let mut grown = case.clone();
        let e3 = grown.add_evidence("E3", "more", 0.5).unwrap();
        let g = grown.node_by_name("G1").unwrap();
        grown.support(g, e3).unwrap();
        assert_ne!(baseline, grown.content_hash());

        // Serialization round-trips preserve the hash bit-for-bit.
        let json = serde_json::to_string(&case).unwrap();
        let back: Case = serde_json::from_str(&json).unwrap();
        assert_eq!(baseline, back.content_hash());
    }
}

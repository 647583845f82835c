//! The packed case document: [`Case`]'s canonical JSON text, written
//! and read in one pass with no [`serde::Value`] tree between the text
//! and the case's arrays.
//!
//! [`Case::to_json`] prints the bytes `serde_json::to_string(&case)`
//! prints. [`Case::from_json`] accepts exactly the texts
//! [`Case::from_value`] of the parsed text accepts, and builds the same
//! case bit for bit: fields in any order, unknown fields skipped, the
//! first of duplicate fields used, numbers read by the JSON reader's own
//! integer and float rules (`null` reads as NaN, which validation then
//! rejects), and the legacy form without `"schema"` and with a stored
//! `"by_name"`. Strings, numbers and skipped values go through
//! `serde_json`'s scanners via its [`Cursor`], so there is one JSON
//! grammar, and a decoded case is checked by the routine
//! [`Case::from_value`] ends in.

use crate::graph::{check_schema, Case, Combination, Node, NodeKind, CASE_SCHEMA_VERSION};
use serde::Deserialize;
use serde_json::{Cursor, Result};
use std::fmt::Write as _;

impl Case {
    /// The packed case document: the compact text of the serialized
    /// form, byte-identical to `serde_json::to_string(self)`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.len());
        let _ = write!(out, r#"{{"schema":{CASE_SCHEMA_VERSION},"title":"#);
        serde_json::push_string(&mut out, self.title());
        out.push_str(r#","nodes":["#);
        for (i, (_, node)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"name":"#);
            serde_json::push_string(&mut out, &node.name);
            out.push_str(r#","statement":"#);
            serde_json::push_string(&mut out, &node.statement);
            out.push_str(r#","kind":"#);
            match node.kind {
                NodeKind::Goal => out.push_str(r#""Goal""#),
                NodeKind::Strategy(Combination::AllOf) => out.push_str(r#"{"Strategy":"AllOf"}"#),
                NodeKind::Strategy(Combination::AnyOf) => out.push_str(r#"{"Strategy":"AnyOf"}"#),
                NodeKind::Evidence { confidence } => {
                    push_leaf(&mut out, r#"{"Evidence":{"confidence":"#, confidence);
                }
                NodeKind::Assumption { confidence } => {
                    push_leaf(&mut out, r#"{"Assumption":{"confidence":"#, confidence);
                }
                NodeKind::Context => out.push_str(r#""Context""#),
            }
            out.push('}');
        }
        out.push_str(r#"],"children":["#);
        for i in 0..self.len() {
            out.push_str(if i > 0 { ",[" } else { "[" });
            for (j, &c) in self.children_of(i).iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Reads a case document, packed or not: the case
    /// [`Case::from_value`] builds from the parsed text, without
    /// building the parsed text.
    ///
    /// # Errors
    ///
    /// [`serde_json::Error`] for text that is not JSON, is not a case
    /// document, or fails the case's validation.
    pub fn from_json(text: &str) -> Result<Case> {
        let mut c = Cursor::new(text);
        let (mut schema, mut title, mut nodes, mut children) = (false, None, None, None);
        object(&mut c, &["schema", "title", "nodes", "children"], |c, key| {
            match key {
                "schema" if !schema => {
                    schema = true;
                    check_schema(&c.value()?)?;
                }
                "title" if title.is_none() => title = Some(c.string()?.into_owned()),
                "nodes" if nodes.is_none() => nodes = Some(array(c, node)?),
                "children" if children.is_none() => {
                    children =
                        Some(array(c, |c| array(c, |c| Ok(usize::from_value(&c.value()?)?)))?);
                }
                _ => drop(c.value()?),
            }
            Ok(())
        })?;
        c.end()?;
        let (title, nodes) = (required(title, "title")?, required(nodes, "nodes")?);
        Ok(Case::from_parts(title, nodes, required(children, "children")?)?)
    }
}

/// A leaf kind's externally tagged form, `{"<variant>":{"confidence":<c>}}`.
fn push_leaf(out: &mut String, head: &str, confidence: f64) {
    out.push_str(head);
    serde_json::push_f64(out, confidence);
    out.push_str("}}");
}

/// Walks one object, handing each key to `entry`, which consumes the
/// value that follows it. A key spelled exactly as one of `keys` is
/// matched in place, with no string decoded for it.
fn object<'a>(
    c: &mut Cursor<'a>,
    keys: &[&str],
    mut entry: impl FnMut(&mut Cursor<'a>, &str) -> Result<()>,
) -> Result<()> {
    c.expect(b'{')?;
    if c.eat(b'}') {
        return Ok(());
    }
    loop {
        match keys.iter().find(|key| c.key(key)) {
            Some(key) => entry(c, key)?,
            None => {
                let key = c.string()?;
                c.expect(b':')?;
                entry(c, &key)?;
            }
        }
        if !c.eat(b',') {
            return c.expect(b'}');
        }
    }
}

/// Reads one array, each element through `item`.
fn array<'a, T>(
    c: &mut Cursor<'a>,
    mut item: impl FnMut(&mut Cursor<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    c.expect(b'[')?;
    let mut out = Vec::new();
    if c.eat(b']') {
        return Ok(out);
    }
    loop {
        out.push(item(c)?);
        if !c.eat(b',') {
            c.expect(b']')?;
            return Ok(out);
        }
    }
}

fn node(c: &mut Cursor<'_>) -> Result<Node> {
    let (mut name, mut statement, mut kind) = (None, None, None);
    object(c, &["name", "statement", "kind"], |c, key| {
        match key {
            "name" if name.is_none() => name = Some(c.string()?.into_owned()),
            "statement" if statement.is_none() => statement = Some(c.string()?.into_owned()),
            "kind" if kind.is_none() => kind = Some(node_kind(c)?),
            _ => drop(c.value()?),
        }
        Ok(())
    })?;
    let (name, statement) = (required(name, "name")?, required(statement, "statement")?);
    Ok(Node { name, statement, kind: required(kind, "kind")? })
}

/// An externally tagged [`NodeKind`]: a unit variant's name, or an
/// object of exactly one entry naming a data variant.
fn node_kind(c: &mut Cursor<'_>) -> Result<NodeKind> {
    let unknown = |c: &Cursor<'_>| c.error("unknown variant of NodeKind");
    if c.peek() == Some(b'"') {
        return match &*c.string()? {
            "Goal" => Ok(NodeKind::Goal),
            "Context" => Ok(NodeKind::Context),
            _ => Err(unknown(c)),
        };
    }
    let mut kind = None;
    object(c, &["Strategy", "Evidence", "Assumption"], |c, key| {
        if kind.is_some() {
            return Err(c.error("expected a variant of NodeKind"));
        }
        kind = Some(match key {
            "Strategy" => NodeKind::Strategy(match &*c.string()? {
                "AllOf" => Combination::AllOf,
                "AnyOf" => Combination::AnyOf,
                _ => return Err(c.error("unknown variant of Combination")),
            }),
            "Evidence" => NodeKind::Evidence { confidence: confidence(c)? },
            "Assumption" => NodeKind::Assumption { confidence: confidence(c)? },
            _ => return Err(unknown(c)),
        });
        Ok(())
    })?;
    kind.ok_or_else(|| c.error("expected a variant of NodeKind"))
}

/// A leaf variant's `{"confidence": …}` body.
fn confidence(c: &mut Cursor<'_>) -> Result<f64> {
    let mut confidence = None;
    object(c, &["confidence"], |c, key| {
        match key {
            "confidence" if confidence.is_none() => {
                confidence = Some(f64::from_value(&c.value()?)?)
            }
            _ => drop(c.value()?),
        }
        Ok(())
    })?;
    required(confidence, "confidence")
}

fn required<T>(field: Option<T>, name: &str) -> Result<T> {
    field.ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")).into())
}

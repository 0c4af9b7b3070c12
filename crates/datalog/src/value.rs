//! The value domain of tuple fields.

use snp_crypto::keys::NodeId;
use std::fmt;

/// A single field of a tuple.
///
/// The domain is deliberately small: integers, strings, node identifiers and
/// opaque digests cover every application in the paper (routing costs,
/// prefixes/AS paths, Chord identifiers, MapReduce keys and values, file
/// hashes).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A signed integer (costs, counts, Chord ids, offsets…).
    Int(i64),
    /// A string (prefixes, words, task names…).
    Str(String),
    /// A node identifier.
    Node(NodeId),
    /// A list of values (e.g. a BGP AS path).
    List(Vec<Value>),
    /// A wildcard, used only in query *patterns* (negative provenance asks
    /// "why is there no `route(@i, P, …)` at all?" — the AS path and next
    /// hop of the missing route are unknown by construction).  A wildcard
    /// matches any concrete value; it never appears in stored tuples.
    Wild,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a node value.
    pub fn node(n: impl Into<NodeId>) -> Value {
        Value::Node(n.into())
    }

    /// Integer content, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String content, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Node content, if this is a [`Value::Node`].
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Value::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// List content, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Whether this value is the query wildcard.
    pub fn is_wild(&self) -> bool {
        matches!(self, Value::Wild)
    }

    /// Whether this (pattern) value matches a concrete value: wildcards match
    /// anything, lists match element-wise, everything else by equality.
    pub fn matches(&self, concrete: &Value) -> bool {
        match (self, concrete) {
            (Value::Wild, _) => true,
            (Value::List(p), Value::List(c)) => p.len() == c.len() && p.iter().zip(c).all(|(a, b)| a.matches(b)),
            (a, b) => a == b,
        }
    }

    /// Stable byte encoding used for hashing tuples into digests, handed to
    /// `write` piece by piece: the one definition of the format behind
    /// [`Value::encode`], [`Value::encoded_len`] and streamed hashing.
    pub fn encode_with<W: FnMut(&[u8])>(&self, write: &mut W) {
        match self {
            Value::Int(i) => {
                write(&[0x01]);
                write(&i.to_be_bytes());
            }
            Value::Str(s) => {
                write(&[0x02]);
                write(&(s.len() as u64).to_be_bytes());
                write(s.as_bytes());
            }
            Value::Node(n) => {
                write(&[0x03]);
                write(&n.to_bytes());
            }
            Value::List(items) => {
                write(&[0x04]);
                write(&(items.len() as u64).to_be_bytes());
                for item in items {
                    item.encode_with(write);
                }
            }
            Value::Wild => write(&[0x05]),
        }
    }

    /// Append the stable byte encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_with(&mut |bytes| out.extend_from_slice(bytes));
    }

    /// Length of the stable byte encoding, without building it.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.encode_with(&mut |bytes| len += bytes.len());
        len
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Node(n) => write!(f, "{n}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
            Value::Wild => write!(f, "*"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Str(value.to_string())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::Str(value)
    }
}

impl From<NodeId> for Value {
    fn from(value: NodeId) -> Self {
        Value::Node(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::node(3u64).as_node(), Some(NodeId(3)));
        assert_eq!(Value::Int(5).as_str(), None);
        let list = Value::List(vec![Value::Int(1)]);
        assert_eq!(list.as_list().unwrap().len(), 1);
    }

    #[test]
    fn wildcards_match_anything() {
        assert!(Value::Wild.matches(&Value::Int(5)));
        assert!(Value::Wild.matches(&Value::str("x")));
        assert!(Value::Wild.matches(&Value::List(vec![Value::Int(1)])));
        assert!(Value::Int(5).matches(&Value::Int(5)));
        assert!(!Value::Int(5).matches(&Value::Int(6)));
        // Lists match element-wise, so wildcards work inside paths.
        let pattern = Value::List(vec![Value::node(1u64), Value::Wild]);
        assert!(pattern.matches(&Value::List(vec![Value::node(1u64), Value::node(2u64)])));
        assert!(!pattern.matches(&Value::List(vec![Value::node(3u64), Value::node(2u64)])));
        assert!(!pattern.matches(&Value::List(vec![Value::node(1u64)])));
        assert!(Value::Wild.is_wild());
        assert!(!Value::Int(1).is_wild());
    }

    #[test]
    fn encoding_distinguishes_types_and_boundaries() {
        let mut a = Vec::new();
        Value::str("ab").encode(&mut a);
        let mut b = Vec::new();
        Value::str("a").encode(&mut b);
        Value::str("b").encode(&mut b);
        assert_ne!(a, b);

        let mut int_enc = Vec::new();
        Value::Int(3).encode(&mut int_enc);
        let mut node_enc = Vec::new();
        Value::node(3u64).encode(&mut node_enc);
        assert_ne!(int_enc, node_enc);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Value::str("hello")), "hello");
        assert_eq!(format!("{:?}", Value::str("hello")), "\"hello\"");
        assert_eq!(format!("{}", Value::Int(7)), "7");
        assert_eq!(
            format!("{:?}", Value::List(vec![Value::Int(1), Value::Int(2)])),
            "[1,2]"
        );
    }

    #[test]
    fn conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v, Value::Int(42));
        let v: Value = "s".into();
        assert_eq!(v, Value::str("s"));
        let v: Value = NodeId(9).into();
        assert_eq!(v, Value::Node(NodeId(9)));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut values = vec![Value::str("b"), Value::Int(2), Value::Int(1), Value::str("a")];
        values.sort();
        assert_eq!(
            values,
            vec![Value::Int(1), Value::Int(2), Value::str("a"), Value::str("b")]
        );
    }
}

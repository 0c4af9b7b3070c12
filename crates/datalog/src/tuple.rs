//! Tuples: the unit of state in the system model.

use crate::value::Value;
use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use std::fmt;

/// A tuple `rel(@loc, a1, …, ak)`.
///
/// Following the paper's notation, every tuple is homed at a specific node
/// (`@loc`); the location is stored explicitly rather than as the first
/// argument so that code cannot accidentally treat it as data.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    /// Relation name, e.g. `link`, `route`, `bestCost`.
    pub relation: String,
    /// The node the tuple lives on (`@loc`).
    pub location: NodeId,
    /// The remaining arguments.
    pub args: Vec<Value>,
}

impl Tuple {
    /// Construct a tuple.
    pub fn new(relation: impl Into<String>, location: NodeId, args: Vec<Value>) -> Tuple {
        Tuple {
            relation: relation.into(),
            location,
            args,
        }
    }

    /// Stable byte encoding (used for hashing and for wire-size accounting),
    /// handed to `write` piece by piece: the one definition of the format
    /// behind [`Tuple::encode`], [`Tuple::encoded_len`] and streamed hashing.
    pub fn encode_with<W: FnMut(&[u8])>(&self, write: &mut W) {
        write(&(self.relation.len() as u64).to_be_bytes());
        write(self.relation.as_bytes());
        write(&self.location.to_bytes());
        write(&(self.args.len() as u64).to_be_bytes());
        for arg in &self.args {
            arg.encode_with(write);
        }
    }

    /// The stable byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.args.len() * 12);
        self.encode_with(&mut |bytes| out.extend_from_slice(bytes));
        out
    }

    /// Length of the stable byte encoding, without building it.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.encode_with(&mut |bytes| len += bytes.len());
        len
    }

    /// Content digest of the tuple; used as a compact unique identifier
    /// (the paper's Hadoop instrumentation assigns tuples UIDs "based on
    /// content and execution context", §6.2).
    pub fn digest(&self) -> Digest {
        snp_crypto::hash(&self.encode())
    }

    /// Approximate wire size of the tuple in bytes.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Argument `i` as an integer, if present and of that type.
    pub fn int_arg(&self, i: usize) -> Option<i64> {
        self.args.get(i).and_then(Value::as_int)
    }

    /// Argument `i` as a string, if present and of that type.
    pub fn str_arg(&self, i: usize) -> Option<&str> {
        self.args.get(i).and_then(Value::as_str)
    }

    /// Argument `i` as a node id, if present and of that type.
    pub fn node_arg(&self, i: usize) -> Option<NodeId> {
        self.args.get(i).and_then(Value::as_node)
    }

    /// Whether any argument is a [`Value::Wild`] wildcard, i.e. the tuple is
    /// a query *pattern* rather than concrete state.
    pub fn is_pattern(&self) -> bool {
        fn any_wild(v: &Value) -> bool {
            match v {
                Value::Wild => true,
                Value::List(items) => items.iter().any(any_wild),
                _ => false,
            }
        }
        self.args.iter().any(any_wild)
    }

    /// Whether this tuple, read as a pattern, covers a concrete tuple: same
    /// relation, same location, and every argument matches (wildcards match
    /// anything).  A fully concrete tuple covers exactly itself.
    pub fn covers(&self, concrete: &Tuple) -> bool {
        self.relation == concrete.relation
            && self.location == concrete.location
            && self.args.len() == concrete.args.len()
            && self.args.iter().zip(&concrete.args).all(|(p, c)| p.matches(c))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.relation, self.location)?;
        for arg in &self.args {
            write!(f, ",{arg:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Shorthand constructor: `tuple!("link", at NodeId(1), [2i64, 5i64])` style
/// helper used pervasively in tests and applications.
pub fn tuple(relation: &str, location: NodeId, args: Vec<Value>) -> Tuple {
    Tuple::new(relation, location, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new("link", NodeId(1), vec![Value::node(2u64), Value::Int(5)])
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample();
        c.args[1] = Value::Int(6);
        assert_ne!(a.digest(), c.digest());
        let mut d = sample();
        d.location = NodeId(9);
        assert_ne!(a.digest(), d.digest());
        let mut e = sample();
        e.relation = "route".into();
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn typed_arg_accessors() {
        let t = sample();
        assert_eq!(t.node_arg(0), Some(NodeId(2)));
        assert_eq!(t.int_arg(1), Some(5));
        assert_eq!(t.str_arg(0), None);
        assert_eq!(t.int_arg(7), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", sample()), "link(@n1,n2,5)");
    }

    #[test]
    fn wire_size_grows_with_args() {
        let small = Tuple::new("r", NodeId(0), vec![]);
        let big = Tuple::new("r", NodeId(0), vec![Value::str("x".repeat(100))]);
        assert!(big.wire_size() > small.wire_size() + 100);
    }

    #[test]
    fn patterns_cover_concrete_tuples() {
        let concrete = sample();
        let mut pattern = sample();
        pattern.args[1] = Value::Wild;
        assert!(pattern.is_pattern());
        assert!(!concrete.is_pattern());
        assert!(pattern.covers(&concrete));
        assert!(concrete.covers(&concrete), "a concrete tuple covers itself");
        let mut other = sample();
        other.args[0] = Value::node(9u64);
        assert!(!pattern.covers(&other), "non-wild args still constrain");
        let mut elsewhere = sample();
        elsewhere.location = NodeId(7);
        assert!(!pattern.covers(&elsewhere), "location is never a wildcard");
        let mut short = sample();
        short.args.pop();
        assert!(!pattern.covers(&short));
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut ts = [
            Tuple::new("b", NodeId(0), vec![]),
            Tuple::new("a", NodeId(1), vec![]),
            Tuple::new("a", NodeId(0), vec![Value::Int(2)]),
            Tuple::new("a", NodeId(0), vec![Value::Int(1)]),
        ];
        ts.sort();
        assert_eq!(ts[0].relation, "a");
        assert_eq!(ts[3].relation, "b");
    }
}

//! The multi-index, copy-on-write tuple store behind [`crate::engine::Engine`].
//!
//! The scan-based engine paid O(store) per body atom per trigger: every rule
//! firing walked the entire `BTreeMap<Tuple, Support>`.  This module replaces
//! that flat map with a [`TupleStore`] that keeps, behind one `Arc`-swapped
//! [`StoreSnapshot`]:
//!
//! * an **arena** holding each stored tuple once with its support
//!   (`TupleId = u32`), so index entries are dense integers instead of
//!   cloned tuples; a slot lives exactly as long as its support entry and is
//!   reused afterwards, so the arena is bounded by the node's peak *state*,
//!   not by its history;
//! * a string **interner** mapping relation names and `Value::Str` constants
//!   to `u32` symbols, so index keys compare as integer ops;
//! * a **per-relation index** over all present tuples (serves `tuples_of`,
//!   `current_tuples` and snapshot encoding);
//! * a **per-relation index over locally homed tuples** (the NDlog
//!   localization rule: only tuples homed at the evaluation site are
//!   joinable);
//! * a **per-(relation, column, value) index** over locally homed tuples,
//!   which is what turns a join probe into an O(k) candidate lookup.
//!
//! Readers ([`TupleStore::reader`]) clone the `Arc` — one atomic increment,
//! no lock — and see an immutable snapshot for as long as they hold it.
//! The single writer mutates through `Arc::make_mut`: in place when no reader
//! holds the snapshot (the common case on the maintenance path), and via one
//! copy-on-write clone when a reader does.  This is the RuleTable shape that
//! composes with the parallel audit workers: each worker replays on its own
//! engine, and any handle it takes on the store stays valid while the engine
//! advances.
//!
//! ## Determinism
//!
//! Index buckets are `BTreeSet<TupleId>`, iterated in id order, and every
//! index probe is a *prefilter*: `Atom::matches` still runs per candidate,
//! the engine's derivation sets are sorted before use, and an aggregate's
//! witness is the least tuple among equals.  Candidate **sets** — never
//! enumeration order — determine engine outputs, so the store only has to
//! guarantee it returns a superset-free candidate set, not any particular
//! order.  That is also why reusing a freed slot is invisible: which id a
//! tuple gets decides where it sits in a bucket's enumeration and nothing
//! else, an id is in a bucket only while its slot is live, and a reader
//! resolves ids against the arena of its own snapshot, which a later reuse
//! (a write, hence copy-on-write) cannot touch.  `Value::List` keys hash to
//! a 64-bit digest: a collision only adds a candidate that `matches`
//! rejects.

use crate::tuple::Tuple;
use crate::value::Value;
use snp_crypto::keys::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// An interned symbol (relation name or string constant).
pub type Sym = u32;

/// Dense id of a tuple in the store's arena.
pub type TupleId = u32;

/// FNV-1a over a byte string; used to key composite (`Value::List`) index
/// entries.  Collisions are harmless: a probe bucket is a candidate
/// *prefilter*, and `Atom::matches` rejects false positives.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Interns strings to dense [`Sym`]s so index keys are integer comparisons.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    ids: HashMap<String, Sym>,
    next: Sym,
}

impl Interner {
    /// Intern `s`, allocating a fresh symbol on first sight.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.ids.get(s) {
            return sym;
        }
        let sym = self.next;
        self.next = self.next.checked_add(1).expect("interner overflow");
        self.ids.insert(s.to_string(), sym);
        sym
    }

    /// Look up a symbol without interning.  `None` means the string was never
    /// stored — and therefore no stored tuple can contain it.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.ids.get(s).copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// An exact-equality index key for one column value.
///
/// The join path (`Term::unify` with a bound variable or constant) requires
/// *strict equality* with the stored value, so every value maps to a key and
/// a probe either hits the exact bucket or proves there is no candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum ValueKey {
    /// An integer, by value.
    Int(i64),
    /// A node id, by value.
    Node(u64),
    /// An interned string constant.
    Str(Sym),
    /// A composite value (list), by 64-bit digest of its stable encoding.
    Composite(u64),
    /// The literal wildcard value (never stored by well-formed inputs, but
    /// the store indexes whatever the log feeds it).
    Wild,
}

impl ValueKey {
    /// Key for a value being *inserted* (interns new string constants).
    fn of(value: &Value, interner: &mut Interner) -> ValueKey {
        match value {
            Value::Int(i) => ValueKey::Int(*i),
            Value::Node(n) => ValueKey::Node(n.0),
            Value::Str(s) => ValueKey::Str(interner.intern(s)),
            Value::List(_) => {
                let mut bytes = Vec::new();
                value.encode(&mut bytes);
                ValueKey::Composite(fnv1a(&bytes))
            }
            Value::Wild => ValueKey::Wild,
        }
    }

    /// Key for a value being *probed*.  `None` means the value (a string
    /// constant never interned) cannot occur in any stored tuple.
    fn probe(value: &Value, interner: &Interner) -> Option<ValueKey> {
        match value {
            Value::Int(i) => Some(ValueKey::Int(*i)),
            Value::Node(n) => Some(ValueKey::Node(n.0)),
            Value::Str(s) => interner.lookup(s).map(ValueKey::Str),
            Value::List(_) => {
                let mut bytes = Vec::new();
                value.encode(&mut bytes);
                Some(ValueKey::Composite(fnv1a(&bytes)))
            }
            Value::Wild => Some(ValueKey::Wild),
        }
    }
}

/// Why a tuple is present on the node (reference counts per support kind).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Support {
    /// Base insertions (`ins(β)`).
    pub(crate) base_count: u32,
    /// Local rule derivations.
    pub(crate) derivation_count: u32,
    /// Believed copies per sender (`+τ` notifications).
    pub(crate) believed: BTreeMap<NodeId, u32>,
}

impl Support {
    /// Total support; the tuple is present iff this is positive.
    pub(crate) fn total(&self) -> u32 {
        self.base_count + self.derivation_count + self.believed.values().sum::<u32>()
    }
}

/// One arena slot: a stored tuple and its support entry.
#[derive(Clone)]
struct Slot {
    tuple: Arc<Tuple>,
    /// May be zero-total (a restored snapshot encodes whatever the node
    /// committed); only positive-support entries are indexed.
    support: Support,
}

/// One immutable, fully self-contained view of the store: arena, interner
/// and all indexes.  Obtained lock-free via [`TupleStore::reader`]; see the
/// module docs for the copy-on-write contract.
#[derive(Clone, Default)]
pub struct StoreSnapshot {
    node: u64,
    interner: Interner,
    /// Arena: one slot per support entry, by [`TupleId`].  Dropping the entry
    /// empties the slot and queues its id on `free` for the next tuple.
    arena: Vec<Option<Slot>>,
    free: Vec<TupleId>,
    /// The id of every live slot, by tuple.
    ids: HashMap<Arc<Tuple>, TupleId>,
    /// All present tuples per relation (any home location).
    by_relation: HashMap<Sym, BTreeSet<TupleId>>,
    /// Present tuples homed at this node, per relation (the joinable set).
    local_by_relation: HashMap<Sym, BTreeSet<TupleId>>,
    /// Present locally-homed tuples per (relation, column, value key).
    local_by_column: HashMap<(Sym, usize, ValueKey), BTreeSet<TupleId>>,
}

// Manual impl: dumping the arena and every bucket swamps test output; the
// shape counters are the useful part (`arena` far above `live` is a leak).
impl std::fmt::Debug for StoreSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSnapshot")
            .field("live", &self.ids.len())
            .field("arena", &self.arena.len())
            .field("relations", &self.by_relation.len())
            .field("column_buckets", &self.local_by_column.len())
            .finish()
    }
}

impl StoreSnapshot {
    /// Resolve a live tuple id to its tuple.
    fn tuple(&self, id: TupleId) -> &Arc<Tuple> {
        &self.arena[id as usize]
            .as_ref()
            .expect("ids and buckets name live slots")
            .tuple
    }

    fn support_mut(&mut self, id: TupleId) -> &mut Support {
        &mut self.arena[id as usize].as_mut().expect("ids name live slots").support
    }

    /// Live slots, in no particular order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.arena.iter().flatten()
    }

    /// The tuple's slot, created with an empty support entry (in a freed
    /// slot when there is one) on first sight.
    fn intern_tuple(&mut self, tuple: &Tuple) -> TupleId {
        if let Some(&id) = self.ids.get(tuple) {
            return id;
        }
        let arc = Arc::new(tuple.clone());
        let slot = Some(Slot {
            tuple: Arc::clone(&arc),
            support: Support::default(),
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.arena[id as usize] = slot;
                id
            }
            None => {
                let id = TupleId::try_from(self.arena.len()).expect("tuple arena overflow");
                self.arena.push(slot);
                id
            }
        };
        self.ids.insert(arc, id);
        id
    }

    /// Drop an unlinked tuple's support entry: its slot and `ids` entry go
    /// with it, and the id is free for reuse.
    fn release(&mut self, id: TupleId) {
        if let Some(slot) = self.arena[id as usize].take() {
            self.ids.remove(&slot.tuple);
            self.free.push(id);
        }
    }

    /// Add a (newly present) tuple to every index it belongs in.
    fn link(&mut self, id: TupleId) {
        let tuple = Arc::clone(self.tuple(id));
        let rel = self.interner.intern(&tuple.relation);
        self.by_relation.entry(rel).or_default().insert(id);
        if tuple.location.0 != self.node {
            return;
        }
        self.local_by_relation.entry(rel).or_default().insert(id);
        for (col, value) in tuple.args.iter().enumerate() {
            let key = ValueKey::of(value, &mut self.interner);
            self.local_by_column.entry((rel, col, key)).or_default().insert(id);
        }
    }

    /// Remove a (no longer present) tuple from every index.  Tolerates ids
    /// that were never linked (zero-support restore artifacts).
    fn unlink(&mut self, id: TupleId) {
        let tuple = Arc::clone(self.tuple(id));
        let Some(rel) = self.interner.lookup(&tuple.relation) else {
            return;
        };
        if let Some(set) = self.by_relation.get_mut(&rel) {
            set.remove(&id);
            if set.is_empty() {
                self.by_relation.remove(&rel);
            }
        }
        if tuple.location.0 != self.node {
            return;
        }
        if let Some(set) = self.local_by_relation.get_mut(&rel) {
            set.remove(&id);
            if set.is_empty() {
                self.local_by_relation.remove(&rel);
            }
        }
        for (col, value) in tuple.args.iter().enumerate() {
            let Some(key) = ValueKey::probe(value, &self.interner) else {
                continue;
            };
            if let Some(set) = self.local_by_column.get_mut(&(rel, col, key)) {
                set.remove(&id);
                if set.is_empty() {
                    self.local_by_column.remove(&(rel, col, key));
                }
            }
        }
    }

    /// Whether `tuple` is present (positive support).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.ids
            .get(tuple)
            .and_then(|id| self.arena[*id as usize].as_ref())
            .is_some_and(|slot| slot.support.total() > 0)
    }

    /// Number of support entries (present tuples, plus any zero-support
    /// entries carried by a restored snapshot).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Arena slots allocated, live or free for reuse: the peak of
    /// [`StoreSnapshot::len`] so far, however many tuples came and went.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// Candidate tuples for a local join probe: present tuples of `relation`
    /// homed at this node, optionally restricted to those whose column
    /// `col` equals `value` exactly.  O(k) in the candidate count — this is
    /// the lookup that replaces the full-store scan.
    pub fn local_candidates<'a>(
        &'a self,
        relation: &str,
        bound: Option<(usize, &Value)>,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        let ids: Option<&BTreeSet<TupleId>> = match (self.interner.lookup(relation), bound) {
            (None, _) => None,
            (Some(rel), Some((col, value))) => {
                ValueKey::probe(value, &self.interner).and_then(|key| self.local_by_column.get(&(rel, col, key)))
            }
            (Some(rel), None) => self.local_by_relation.get(&rel),
        };
        ids.into_iter().flatten().map(move |id| self.tuple(*id).as_ref())
    }

    /// Visit every present tuple of `relation` (any home location) in
    /// ascending [`Tuple`] order — the order the flat `BTreeMap` used to
    /// iterate in, so callers observe byte-identical sequences.
    pub fn for_each_of(&self, relation: &str, mut f: impl FnMut(&Tuple)) {
        let Some(ids) = self
            .interner
            .lookup(relation)
            .and_then(|rel| self.by_relation.get(&rel))
        else {
            return;
        };
        let mut members: Vec<&Arc<Tuple>> = ids.iter().map(|id| self.tuple(*id)).collect();
        members.sort_unstable();
        for tuple in members {
            f(tuple);
        }
    }

    /// All present tuples of `relation`, sorted (cloned; prefer
    /// [`StoreSnapshot::for_each_of`] when a reference suffices).
    pub fn tuples_of(&self, relation: &str) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.for_each_of(relation, |t| out.push(t.clone()));
        out
    }

    /// All present tuples, sorted in ascending [`Tuple`] order.
    pub fn current_tuples(&self) -> Vec<Tuple> {
        let mut out: Vec<&Arc<Tuple>> = self
            .slots()
            .filter(|slot| slot.support.total() > 0)
            .map(|slot| &slot.tuple)
            .collect();
        out.sort_unstable();
        out.into_iter().map(|t| (**t).clone()).collect()
    }

    /// Every support entry (including zero-total restore artifacts), sorted
    /// by tuple — exactly the iteration order of the scan engine's
    /// `BTreeMap`, so snapshot bytes stay identical.
    pub(crate) fn entries_sorted(&self) -> Vec<(&Tuple, &Support)> {
        let mut out: Vec<(&Tuple, &Support)> = self.slots().map(|slot| (slot.tuple.as_ref(), &slot.support)).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }
}

/// The copy-on-write, multi-index tuple store: single writer, lock-free
/// readers.  See the module docs for the design.
#[derive(Clone, Debug)]
pub struct TupleStore {
    snap: Arc<StoreSnapshot>,
}

impl TupleStore {
    /// An empty store for a node (local indexes cover tuples homed there).
    pub fn new(node: NodeId) -> TupleStore {
        TupleStore {
            snap: Arc::new(StoreSnapshot {
                node: node.0,
                ..StoreSnapshot::default()
            }),
        }
    }

    /// Borrow the current snapshot (no refcount traffic; for `&self` use).
    pub fn view(&self) -> &StoreSnapshot {
        &self.snap
    }

    /// Take a lock-free reader handle: one atomic increment, and the
    /// returned snapshot stays immutable while the writer advances
    /// (copy-on-write).
    pub fn reader(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.snap)
    }

    fn write(&mut self) -> &mut StoreSnapshot {
        Arc::make_mut(&mut self.snap)
    }

    /// Apply `f` to the tuple's support entry (creating it empty first).
    /// Returns whether the tuple *appeared* (support went 0 → positive), in
    /// which case it was linked into the indexes.
    pub(crate) fn add_support(&mut self, tuple: &Tuple, f: impl FnOnce(&mut Support)) -> bool {
        let snap = self.write();
        let id = snap.intern_tuple(tuple);
        let entry = snap.support_mut(id);
        let was_absent = entry.total() == 0;
        f(entry);
        let appeared = was_absent && entry.total() > 0;
        if appeared {
            snap.link(id);
        }
        appeared
    }

    /// Apply `f` to the tuple's support entry if one exists.  Returns
    /// whether the tuple *disappeared* (support went positive → 0).  An entry
    /// left without support is dropped: unlinked from the indexes, its arena
    /// slot freed.
    pub(crate) fn remove_support(&mut self, tuple: &Tuple, f: impl FnOnce(&mut Support)) -> bool {
        let snap = self.write();
        let Some(&id) = snap.ids.get(tuple) else {
            return false;
        };
        let entry = snap.support_mut(id);
        let was_present = entry.total() > 0;
        f(entry);
        let now_absent = entry.total() == 0;
        if now_absent {
            snap.unlink(id);
            snap.release(id);
        }
        was_present && now_absent
    }

    /// Install a decoded `(tuple, support)` entry verbatim (snapshot
    /// restore), rebuilding the indexes the snapshot does not carry.
    pub(crate) fn insert_restored(&mut self, tuple: Tuple, support: Support) {
        let snap = self.write();
        let id = snap.intern_tuple(&tuple);
        let present = support.total() > 0;
        let was_present = std::mem::replace(snap.support_mut(id), support).total() > 0;
        match (was_present, present) {
            (false, true) => snap.link(id),
            (true, false) => snap.unlink(id),
            _ => {}
        }
    }
}

/// Per-rule evaluation counters (fires, index probes, candidates enumerated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleEval {
    /// Complete rule firings (instantiations that passed all constraints).
    pub fires: u64,
    /// Index probes issued while joining the rule's body.
    pub probes: u64,
    /// Candidate tuples enumerated across those probes (what a scan engine
    /// would have inspected store-wide per probe).
    pub candidates: u64,
}

impl RuleEval {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &RuleEval) {
        self.fires += other.fires;
        self.probes += other.probes;
        self.candidates += other.candidates;
    }
}

/// Evaluation metrics accumulated by an engine, keyed by rule id.
///
/// Deterministic: counts depend only on the candidate sets the rules joined
/// over, never on enumeration order, so serial and parallel replays of the
/// same history report identical metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Counters per rule id.
    pub rules: BTreeMap<String, RuleEval>,
}

impl EvalMetrics {
    /// Fold another metrics set into this one.
    pub fn merge(&mut self, other: &EvalMetrics) {
        for (id, eval) in &other.rules {
            self.rules.entry(id.clone()).or_default().merge(eval);
        }
    }

    /// The work counted since `earlier`, an earlier reading of the same
    /// machine's counters.  A rule that did no work in between has no entry,
    /// as in a reading taken from a fresh or restored machine.
    pub fn since(&self, earlier: &EvalMetrics) -> EvalMetrics {
        let rules = self.rules.iter().filter_map(|(id, now)| {
            let before = earlier.rules.get(id).copied().unwrap_or_default();
            let delta = RuleEval {
                fires: now.fires.saturating_sub(before.fires),
                probes: now.probes.saturating_sub(before.probes),
                candidates: now.candidates.saturating_sub(before.candidates),
            };
            (delta != RuleEval::default()).then(|| (id.clone(), delta))
        });
        EvalMetrics { rules: rules.collect() }
    }

    /// Total rule firings across all rules.
    pub fn total_fires(&self) -> u64 {
        self.rules.values().map(|r| r.fires).sum()
    }

    /// Total index probes across all rules.
    pub fn total_probes(&self) -> u64 {
        self.rules.values().map(|r| r.probes).sum()
    }

    /// Total candidates enumerated across all rules.
    pub fn total_candidates(&self) -> u64 {
        self.rules.values().map(|r| r.candidates).sum()
    }

    /// Whether no counter was ever incremented.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: &str, node: u64, args: Vec<Value>) -> Tuple {
        Tuple::new(rel, NodeId(node), args)
    }

    #[test]
    fn add_remove_roundtrip_maintains_indexes() {
        let mut store = TupleStore::new(NodeId(1));
        let a = t("edge", 1, vec![Value::Int(1), Value::Int(2)]);
        let b = t("edge", 1, vec![Value::Int(1), Value::Int(3)]);
        let remote = t("edge", 2, vec![Value::Int(1), Value::Int(4)]);
        assert!(store.add_support(&a, |s| s.base_count += 1));
        assert!(store.add_support(&b, |s| s.base_count += 1));
        assert!(store.add_support(&remote, |s| s.base_count += 1));
        // Second support does not re-appear.
        assert!(!store.add_support(&a, |s| s.base_count += 1));

        let view = store.view();
        assert!(view.contains(&a) && view.contains(&remote));
        // Column probe: both local edges share column 0 = 1.
        let probed: Vec<&Tuple> = view.local_candidates("edge", Some((0, &Value::Int(1)))).collect();
        assert_eq!(probed.len(), 2, "remote tuple must not be a local candidate");
        let probed: Vec<&Tuple> = view.local_candidates("edge", Some((1, &Value::Int(3)))).collect();
        assert_eq!(probed, vec![&b]);
        // Relation index covers all locations.
        assert_eq!(view.tuples_of("edge").len(), 3);

        // First removal only decrements; second removal unlinks.
        assert!(!store.remove_support(&a, |s| s.base_count -= 1));
        assert!(store.remove_support(&a, |s| s.base_count -= 1));
        let view = store.view();
        assert!(!view.contains(&a));
        let probed: Vec<&Tuple> = view.local_candidates("edge", Some((0, &Value::Int(1)))).collect();
        assert_eq!(probed, vec![&b]);
    }

    #[test]
    fn readers_are_isolated_from_later_writes() {
        let mut store = TupleStore::new(NodeId(1));
        let a = t("edge", 1, vec![Value::Int(1)]);
        let b = t("edge", 1, vec![Value::Int(2)]);
        store.add_support(&a, |s| s.base_count += 1);
        let reader = store.reader();
        store.add_support(&b, |s| s.base_count += 1);
        store.remove_support(&a, |s| s.base_count -= 1);
        // The reader still sees the old state (copy-on-write)…
        assert!(reader.contains(&a));
        assert!(!reader.contains(&b));
        // …while the writer sees the new one.
        assert!(!store.view().contains(&a));
        assert!(store.view().contains(&b));
    }

    #[test]
    fn arena_is_bounded_by_live_tuples_not_history() {
        const LIVE: i64 = 64;
        let mut store = TupleStore::new(NodeId(1));
        let edge = |i: i64| {
            t(
                "edge",
                if i % 5 == 0 { 2 } else { 1 },
                vec![Value::Int(i % 7), Value::Int(i)],
            )
        };
        for i in 0..10_000 {
            assert!(store.add_support(&edge(i), |s| s.base_count += 1));
            if i >= LIVE {
                assert!(store.remove_support(&edge(i - LIVE), |s| s.base_count -= 1));
            }
        }
        let view = store.view();
        assert_eq!(view.len(), LIVE as usize);
        assert_eq!(view.ids.len(), LIVE as usize, "{view:?}");
        assert!(view.arena.len() <= LIVE as usize + 1, "{view:?}");
        // The indexes still name exactly the live tuples.
        let expected: Vec<Tuple> = (10_000 - LIVE..10_000).map(edge).collect();
        let mut sorted = expected.clone();
        sorted.sort();
        assert_eq!(view.current_tuples(), sorted);
        let local: BTreeSet<&Tuple> = view.local_candidates("edge", None).collect();
        assert_eq!(local, expected.iter().filter(|t| t.location == NodeId(1)).collect());
        for tuple in &expected {
            let probed = view.local_candidates("edge", Some((1, &tuple.args[1]))).count();
            assert_eq!(probed, usize::from(tuple.location == NodeId(1)));
        }
    }

    #[test]
    fn reader_resolves_its_own_tuples_after_a_slot_is_reused() {
        let mut store = TupleStore::new(NodeId(1));
        let a = t("edge", 1, vec![Value::Int(1)]);
        let b = t("edge", 1, vec![Value::Int(2)]);
        let c = t("edge", 1, vec![Value::Int(3)]);
        store.add_support(&a, |s| s.base_count += 1);
        store.add_support(&b, |s| s.base_count += 1);
        let reader = store.reader();
        store.remove_support(&a, |s| s.base_count -= 1);
        store.add_support(&c, |s| s.base_count += 1);
        assert_eq!(store.view().ids[&c], reader.ids[&a], "c took over a's slot");
        assert_eq!(store.view().arena.len(), 2);
        // The reader's ids still resolve to the tuples it was taken with.
        assert!(reader.contains(&a) && !reader.contains(&c));
        assert_eq!(reader.tuples_of("edge"), vec![a.clone(), b.clone()]);
        let probed: Vec<&Tuple> = reader.local_candidates("edge", Some((0, &Value::Int(1)))).collect();
        assert_eq!(probed, vec![&a]);
        assert_eq!(store.view().tuples_of("edge"), vec![b, c]);
    }

    #[test]
    fn probing_a_never_interned_string_is_empty_not_wrong() {
        let mut store = TupleStore::new(NodeId(1));
        store.add_support(&t("r", 1, vec![Value::str("x")]), |s| s.base_count += 1);
        let view = store.view();
        assert_eq!(view.local_candidates("r", Some((0, &Value::str("y")))).count(), 0);
        assert_eq!(view.local_candidates("r", Some((0, &Value::str("x")))).count(), 1);
        assert_eq!(view.local_candidates("missing", None).count(), 0);
    }

    #[test]
    fn list_values_index_by_digest_and_wild_is_its_own_key() {
        let mut store = TupleStore::new(NodeId(1));
        let l1 = Value::List(vec![Value::Int(1), Value::str("a")]);
        let l2 = Value::List(vec![Value::Int(2)]);
        store.add_support(&t("r", 1, vec![l1.clone()]), |s| s.base_count += 1);
        store.add_support(&t("r", 1, vec![l2.clone()]), |s| s.base_count += 1);
        store.add_support(&t("r", 1, vec![Value::Wild]), |s| s.base_count += 1);
        let view = store.view();
        assert_eq!(view.local_candidates("r", Some((0, &l1))).count(), 1);
        assert_eq!(view.local_candidates("r", Some((0, &Value::Wild))).count(), 1);
        assert_eq!(view.local_candidates("r", None).count(), 3);
    }

    #[test]
    fn sorted_views_match_btreemap_order() {
        let mut store = TupleStore::new(NodeId(1));
        let mut expected = Vec::new();
        // Insert in deliberately unsorted order.
        for i in [5i64, 1, 9, 3, 7] {
            let tup = t("edge", 1, vec![Value::Int(i)]);
            store.add_support(&tup, |s| s.base_count += 1);
            expected.push(tup);
        }
        expected.sort();
        assert_eq!(store.view().current_tuples(), expected);
        assert_eq!(store.view().tuples_of("edge"), expected);
        let sorted: Vec<&Tuple> = store.view().entries_sorted().into_iter().map(|(t, _)| t).collect();
        assert_eq!(sorted, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn metrics_merge_and_totals() {
        let metrics = |rules: &[(&str, RuleEval)]| EvalMetrics {
            rules: rules.iter().map(|(id, eval)| (id.to_string(), *eval)).collect(),
        };
        let eval = |fires, probes, candidates| RuleEval {
            fires,
            probes,
            candidates,
        };
        let mut a = metrics(&[("R1", eval(2, 5, 0))]);
        let b = metrics(&[("R1", eval(1, 0, 0)), ("R2", eval(0, 0, 7))]);
        a.merge(&b);
        assert_eq!(a.rules["R1"].fires, 3);
        assert_eq!(a.total_fires(), 3);
        assert_eq!(a.total_probes(), 5);
        assert_eq!(a.total_candidates(), 7);
    }
}

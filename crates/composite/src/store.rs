//! Flat, deterministic stores for the recovery runtime's hot path.
//!
//! The descriptor-tracking tables and the per-edge stub map used to be
//! `BTreeMap`s, paying a pointer-chasing tree walk on every invocation.
//! Live descriptor ids sit close together and component ids are small,
//! so the common lookups collapse to array indexing:
//!
//! * [`IdSlab`] — a table keyed by `i64` descriptor id. Ids in a dense
//!   window index a flat vector; all others spill to a `BTreeMap`. The
//!   window restarts at the next id inserted whenever its last live
//!   entry is removed, so a service that issues ids in ascending order
//!   and closes what it opens keeps a window of a few slots however
//!   large its ids grow: the footprint follows the span of the live
//!   ids, not the largest id ever issued. Ordered iteration (ascending
//!   by id, exactly the old `BTreeMap` order — behavior-visible in eager
//!   recovery sweeps) stitches the spill ranges around the window.
//! * [`EdgeMap`] — a dense `(client, server) → stub` table indexed by
//!   the two component ids, with O(1) checkout/checkin per call instead
//!   of a tree `remove` + `insert` pair.
//!
//! Both are deterministic: layout and iteration order depend only on the
//! sequence of keys, never on addresses.

use std::collections::BTreeMap;

use crate::ids::ComponentId;

/// Most slots the dense window spans; ids beyond it spill.
const DENSE_LIMIT: i64 = 1 << 16;

/// A table keyed by `i64` descriptor id, ascending in iteration.
///
/// Ids in the dense window `[base, base + dense.len())` index a flat
/// vector; every other id spills to a `BTreeMap`. The window restarts
/// whenever it empties: removing its last live entry clears it (keeping
/// its capacity, so create/close cycles do not allocate), and the next
/// insert sets `base` to its own id. An id at or above `base` and less
/// than 65,536 slots past it grows the window up to itself; an id below
/// `base` or farther above spills. MM's ids are page addresses, so an
/// alias, far from its root, spills while the root holds the window. No
/// spill key ever lies inside the window, so a lookup is one subtraction
/// and a bounds check before it falls back to the spill.
///
/// A window that never empties, because a long-lived descriptor or
/// always-overlapping lifetimes keep an entry in it, keeps its `base`:
/// it grows to at most 65,536 slots and later ids spill, so the table
/// costs what a slab sized by the largest id did. No shipped workload
/// holds a window open this way.
#[derive(Debug, Clone, Default)]
pub struct IdSlab<T> {
    base: i64,
    dense: Vec<Option<T>>,
    /// Occupied slots of `dense`.
    live: usize,
    spill: BTreeMap<i64, T>,
}

impl<T> IdSlab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self {
            base: 0,
            dense: Vec::new(),
            live: 0,
            spill: BTreeMap::new(),
        }
    }

    /// The window slot of `id`, if the window covers it.
    #[inline]
    fn slot(&self, id: i64) -> Option<usize> {
        let off = id.wrapping_sub(self.base) as u64;
        (off < self.dense.len() as u64).then_some(off as usize)
    }

    /// One past the window's last id (saturating: the window may end at
    /// `i64::MAX`, which then is not a spill key).
    fn end(&self) -> i64 {
        self.base.saturating_add(self.dense.len() as i64)
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    /// True when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert (or replace) the entry for `id`, returning the old value.
    pub fn insert(&mut self, id: i64, value: T) -> Option<T> {
        if self.dense.is_empty() {
            self.base = id;
        }
        // `id >= base` keeps the window from wrapping past `i64::MAX`,
        // which is what makes `slot`'s wrapping subtraction exact.
        let off = id.wrapping_sub(self.base) as u64;
        if id < self.base || off >= DENSE_LIMIT as u64 {
            return self.spill.insert(id, value);
        }
        let i = off as usize;
        if i >= self.dense.len() {
            let end = self.end();
            self.dense.resize_with(i + 1, || None);
            // Keys in the range the window just grew over move into it.
            if !self.spill.is_empty() {
                while let Some((&k, _)) = self.spill.range(end..=id).next() {
                    let v = self.spill.remove(&k);
                    self.dense[(k - self.base) as usize] = v;
                    self.live += 1;
                }
            }
        }
        let old = self.dense[i].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// The entry for `id`, if present.
    #[must_use]
    #[inline]
    pub fn get(&self, id: i64) -> Option<&T> {
        match self.slot(id) {
            Some(i) => self.dense[i].as_ref(),
            None => self.spill.get(&id),
        }
    }

    /// Mutable access to the entry for `id`.
    #[must_use]
    #[inline]
    pub fn get_mut(&mut self, id: i64) -> Option<&mut T> {
        match self.slot(id) {
            Some(i) => self.dense[i].as_mut(),
            None => self.spill.get_mut(&id),
        }
    }

    /// Whether an entry for `id` exists.
    #[must_use]
    #[inline]
    pub fn contains_key(&self, id: i64) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the entry for `id`.
    pub fn remove(&mut self, id: i64) -> Option<T> {
        let Some(i) = self.slot(id) else {
            return self.spill.remove(&id);
        };
        let old = self.dense[i].take();
        if old.is_some() {
            self.live -= 1;
            if self.live == 0 {
                self.dense.clear();
            }
        }
        old
    }

    /// Iterate entries ascending by id (the `BTreeMap` order the eager
    /// recovery sweep relies on: low spill, window, high spill).
    pub fn iter(&self) -> impl Iterator<Item = (i64, &T)> {
        let base = self.base;
        self.spill
            .range(..base)
            .map(|(&k, v)| (k, v))
            .chain(
                self.dense
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, s)| s.as_ref().map(|v| (base + i as i64, v))),
            )
            .chain(self.spill.range(self.end()..).map(|(&k, v)| (k, v)))
    }

    /// Iterate values in ascending-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate values mutably (ascending-id order).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let base = self.base;
        let mut spill = self.spill.iter_mut().peekable();
        let mut dense = self.dense.iter_mut().filter_map(Option::as_mut);
        // Spill keys below the window come first; the rest follow it.
        std::iter::from_fn(move || match spill.peek() {
            Some((&k, _)) if k < base => spill.next().map(|(_, v)| v),
            _ => dense.next().or_else(|| spill.next().map(|(_, v)| v)),
        })
    }
}

/// Dense `(client, server) → T` edge table indexed by component ids.
/// Rows grow on demand; the component universe is small (a dozen or so),
/// so the table stays tiny while every hot operation is two indexes.
#[derive(Debug, Default)]
pub struct EdgeMap<T> {
    rows: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> EdgeMap<T> {
    /// An empty edge map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no edges are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert (or replace) the entry on edge `(client, server)`.
    pub fn insert(&mut self, client: ComponentId, server: ComponentId, value: T) -> Option<T> {
        let (c, s) = (client.0 as usize, server.0 as usize);
        if c >= self.rows.len() {
            self.rows.resize_with(c + 1, Vec::new);
        }
        let row = &mut self.rows[c];
        if s >= row.len() {
            row.resize_with(s + 1, || None);
        }
        let old = row[s].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Check the edge's entry out (O(1)); pair with [`EdgeMap::insert`]
    /// to check it back in.
    #[inline]
    pub fn take(&mut self, client: ComponentId, server: ComponentId) -> Option<T> {
        let old = self
            .rows
            .get_mut(client.0 as usize)?
            .get_mut(server.0 as usize)?
            .take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The entry on edge `(client, server)`, if present.
    #[must_use]
    #[inline]
    pub fn get(&self, client: ComponentId, server: ComponentId) -> Option<&T> {
        self.rows
            .get(client.0 as usize)?
            .get(server.0 as usize)?
            .as_ref()
    }

    /// Apply `f` to every stored entry whose server is `server`, in
    /// ascending client order (the old `BTreeMap` iteration order).
    pub fn for_server_mut(&mut self, server: ComponentId, mut f: impl FnMut(&mut T)) {
        let s = server.0 as usize;
        for row in &mut self.rows {
            if let Some(Some(v)) = row.get_mut(s) {
                f(v);
            }
        }
    }

    /// Clients with a stored edge to `server`, ascending (the order the
    /// eager recovery sweep visits edges in).
    #[must_use]
    pub fn clients_of(&self, server: ComponentId) -> Vec<ComponentId> {
        let s = server.0 as usize;
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| matches!(row.get(s), Some(Some(_))))
            .map(|(c, _)| ComponentId(c as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn slab_roundtrip_and_len() {
        let mut s = IdSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(3, "a"), None);
        assert_eq!(s.insert(3, "b"), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(3), Some(&"b"));
        assert!(s.contains_key(3));
        *s.get_mut(3).unwrap() = "c";
        assert_eq!(s.remove(3), Some("c"));
        assert_eq!(s.remove(3), None);
        assert!(s.is_empty());
    }

    #[test]
    fn slab_spills_outliers_and_iterates_ascending() {
        let mut s = IdSlab::new();
        s.insert(DENSE_LIMIT + 7, "big");
        s.insert(5, "five");
        s.insert(-2, "neg");
        s.insert(1, "one");
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(DENSE_LIMIT + 7), Some(&"big"));
        assert_eq!(s.get(-2), Some(&"neg"));
        let keys: Vec<i64> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![-2, 1, 5, DENSE_LIMIT + 7]);
        let vals: Vec<&str> = s.values().copied().collect();
        assert_eq!(vals, vec!["neg", "one", "five", "big"]);
        for v in s.values_mut() {
            *v = "x";
        }
        assert!(s.values().all(|&v| v == "x"));
    }

    #[test]
    fn slab_matches_btreemap_order() {
        // The slab's iteration order is the contract the recovery sweep
        // depends on: identical to a BTreeMap over the same keys.
        let ids = [9, 0, DENSE_LIMIT + 1, -5, 40, 3];
        let mut slab = IdSlab::new();
        let mut tree = BTreeMap::new();
        for id in ids {
            slab.insert(id, id * 10);
            tree.insert(id, id * 10);
        }
        let a: Vec<(i64, i64)> = slab.iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(i64, i64)> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b);
    }

    /// Checks the window's own invariants: its live count is right and
    /// no spill key lies inside it.
    fn assert_window_invariants<T>(s: &IdSlab<T>) {
        assert_eq!(s.live, s.dense.iter().filter(|v| v.is_some()).count());
        assert!(s.dense.len() <= DENSE_LIMIT as usize);
        assert_eq!(
            s.dense.is_empty(),
            s.live == 0,
            "an empty window is cleared"
        );
        assert!(s.spill.range(s.base..s.end()).next().is_none());
    }

    #[test]
    fn slab_matches_btreemap_model() {
        // One seeded stream drives the slab and a BTreeMap in lock-step:
        // ascending ids far past DENSE_LIMIT with a few live, one
        // long-lived pinned id, ids below the window, outliers at both
        // ends of i64, and re-inserts and removes of ids seen before.
        enum Op {
            Insert(i64),
            Remove(i64),
        }
        const OPS: u64 = 20_000;
        const LIVE: usize = 4;
        let pick = |rng: &mut SplitMix64, ids: &[i64]| ids[rng.gen_index(ids.len())];
        let mut rng = SplitMix64::new(0x51ab);
        let mut slab = IdSlab::new();
        let mut tree = BTreeMap::new();
        let (mut next, mut pin) = (0_i64, None);
        let mut seen = vec![0_i64];
        let (mut restarts, mut past_window, mut moved) = (0, 0, 0);
        for step in 0..OPS {
            let removable: Vec<i64> = tree.keys().copied().filter(|&k| Some(k) != pin).collect();
            let op = if step == OPS / 4 {
                next += 1;
                pin = Some(next);
                Op::Insert(next)
            } else if step == 3 * OPS / 4 {
                Op::Remove(pin.take().expect("pinned at a quarter"))
            } else {
                match rng.gen_range(16) {
                    0..=9
                        if removable.is_empty()
                            || (removable.len() < LIVE && rng.gen_bool(1, 2)) =>
                    {
                        next += 1 + rng.gen_range(96) as i64;
                        Op::Insert(next)
                    }
                    10 => Op::Insert(next - 1 - rng.gen_range(3 * DENSE_LIMIT as u64) as i64),
                    11 => Op::Insert(match rng.gen_range(3) {
                        0 => -1 - rng.gen_range(1_000) as i64,
                        1 => i64::MIN + rng.gen_range(4) as i64,
                        _ => i64::MAX - rng.gen_range(4) as i64,
                    }),
                    12 | 13 => Op::Insert(pick(&mut rng, &seen)),
                    14 => Op::Remove(pick(&mut rng, &seen)),
                    _ if removable.is_empty() => Op::Remove(pick(&mut rng, &seen)),
                    _ => Op::Remove(pick(&mut rng, &removable)),
                }
            };
            let id = match op {
                Op::Insert(id) => {
                    let (was_empty, spilled) = (slab.dense.is_empty(), slab.spill.len());
                    assert_eq!(slab.insert(id, step), tree.insert(id, step), "insert {id}");
                    let in_window = slab.slot(id).is_some();
                    restarts += usize::from(was_empty);
                    past_window += usize::from(!in_window && id > slab.base);
                    moved += usize::from(in_window && slab.spill.len() < spilled);
                    seen.push(id);
                    id
                }
                Op::Remove(id) => {
                    assert_eq!(slab.remove(id), tree.remove(&id), "remove {id}");
                    id
                }
            };
            assert_eq!(slab.len(), tree.len());
            for probe in [id, id.wrapping_add(1), id.wrapping_sub(1)] {
                assert_eq!(slab.get(probe), tree.get(&probe), "get {probe}");
            }
            // A pinned window spans up to DENSE_LIMIT slots: scan it
            // only now and then, so the test stays fast in debug builds.
            if slab.dense.len() <= 1_024 || step % 1_024 == 0 {
                assert_window_invariants(&slab);
                assert!(slab
                    .iter()
                    .map(|(k, &v)| (k, v))
                    .eq(tree.iter().map(|(&k, &v)| (k, v))));
                assert!(slab.values_mut().map(|v| *v).eq(tree.values().copied()));
            }
        }
        assert!(next > 3 * DENSE_LIMIT, "ids ran to {next}");
        assert!(restarts > 500, "{restarts} window restarts");
        assert!(past_window > 0, "no id spilled past a pinned window");
        assert!(moved > 0, "no spill key moved into a growing window");
    }

    #[test]
    fn slab_footprint_follows_live_ids_not_largest_id() {
        // Ascending create/close cycles with at most two live ids, as a
        // stub edge sees them: the window restarts at each create and
        // never spills, whatever the largest id so far.
        let mut s = IdSlab::new();
        for id in 0..200_000 {
            s.insert(id, id);
            assert!(
                s.dense.len() <= 2,
                "window of {} slots at {id}",
                s.dense.len()
            );
            if id % 2 == 1 {
                s.remove(id - 1);
                s.remove(id);
            }
        }
        assert!(s.is_empty());
        assert!(s.dense.len() <= 2 && s.spill.is_empty());
    }

    #[test]
    fn edge_map_take_and_reinsert() {
        let (a, b, c) = (ComponentId(1), ComponentId(2), ComponentId(3));
        let mut m = EdgeMap::new();
        assert!(m.is_empty());
        m.insert(a, c, "ac");
        m.insert(b, c, "bc");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a, c), Some(&"ac"));
        let taken = m.take(a, c).unwrap();
        assert_eq!(m.get(a, c), None);
        assert_eq!(m.len(), 1);
        m.insert(a, c, taken);
        assert_eq!(m.len(), 2);
        assert_eq!(m.take(c, a), None, "missing edge takes nothing");
    }

    #[test]
    fn edge_map_server_queries_ascend_by_client() {
        let mut m = EdgeMap::new();
        let srv = ComponentId(9);
        m.insert(ComponentId(4), srv, 4);
        m.insert(ComponentId(1), srv, 1);
        m.insert(ComponentId(1), ComponentId(2), 0);
        assert_eq!(m.clients_of(srv), vec![ComponentId(1), ComponentId(4)]);
        let mut seen = Vec::new();
        m.for_server_mut(srv, |v| seen.push(*v));
        assert_eq!(seen, vec![1, 4]);
    }
}

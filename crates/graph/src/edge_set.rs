//! Compact subsets of a parent graph's edges.

use crate::EdgeId;
use std::fmt;

/// A subset of the edges of a parent [`Graph`](crate::Graph), stored as a
/// bitset over dense edge identifiers.
///
/// Spanners are represented as `EdgeSet`s throughout the workspace: the
/// conversion theorem takes unions of edge sets over iterations, and the
/// verification oracles interpret an `EdgeSet` together with its parent graph.
///
/// # Example
///
/// ```
/// use ftspan_graph::{EdgeSet, EdgeId};
///
/// let mut s = EdgeSet::new(10);
/// s.insert(EdgeId::new(3));
/// s.insert(EdgeId::new(7));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(EdgeId::new(3)));
/// assert!(!s.contains(EdgeId::new(4)));
/// let ids: Vec<usize> = s.iter().map(|e| e.index()).collect();
/// assert_eq!(ids, vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct EdgeSet {
    blocks: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl EdgeSet {
    /// Creates an empty edge set able to hold edges `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        EdgeSet {
            blocks: vec![0u64; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// The number of edge slots (`m` of the parent graph).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of edges currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if edge `e` is in the set.
    ///
    /// Out-of-range identifiers are reported as absent.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        let i = e.index();
        if i >= self.capacity {
            return false;
        }
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts edge `e`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside the capacity of the set.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        let i = e.index();
        assert!(
            i < self.capacity,
            "edge {i} out of range for capacity {}",
            self.capacity
        );
        let mask = 1u64 << (i % 64);
        let block = &mut self.blocks[i / 64];
        if *block & mask == 0 {
            *block |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes edge `e`; returns `true` if it was present.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        let i = e.index();
        if i >= self.capacity {
            return false;
        }
        let mask = 1u64 << (i % 64);
        let block = &mut self.blocks[i / 64];
        if *block & mask != 0 {
            *block &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Adds every edge of `other` to `self` (set union in place), a word at
    /// a time, and returns the number of edges that were new to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different capacities.
    pub fn union_with(&mut self, other: &EdgeSet) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "cannot union edge sets of different capacities"
        );
        let mut added = 0;
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            added += (*b & !*a).count_ones() as usize;
            *a |= *b;
        }
        self.len += added;
        added
    }

    /// Keeps only edges present in both sets (set intersection in place).
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different capacities.
    pub fn intersect_with(&mut self, other: &EdgeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "cannot intersect edge sets of different capacities"
        );
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= *b;
        }
        self.recount();
    }

    /// Returns `true` if every edge of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        if self.capacity != other.capacity {
            return false;
        }
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// This set carried across a compaction of its parent graph's edge ids:
    /// the edges `removed` leave, every later edge moves down by the number
    /// of removed ids below it, and the result has `capacity` slots (ids past
    /// the survivors belong to appended edges and start absent). Works a
    /// word at a time, not an edge at a time.
    ///
    /// # Panics
    ///
    /// Panics if `removed` is not strictly increasing and within the
    /// capacity, or if `capacity` is smaller than the number of survivors.
    pub fn compacted(&self, removed: &[EdgeId], capacity: usize) -> EdgeSet {
        let survivors = self.capacity.checked_sub(removed.len());
        assert!(
            survivors.is_some_and(|s| s <= capacity),
            "cannot compact {} slots minus {} removed into {capacity}",
            self.capacity,
            removed.len()
        );
        let mut blocks = vec![0u64; capacity.div_ceil(64)];
        let mut len = self.len;
        let mut from = 0;
        for (shift, &r) in removed.iter().enumerate() {
            let r = r.index();
            assert!(
                from <= r && r < self.capacity,
                "removed edge ids must be increasing and below {}",
                self.capacity
            );
            copy_bits(&self.blocks, from, &mut blocks, from - shift, r - from);
            len -= usize::from(self.contains(EdgeId::new(r)));
            from = r + 1;
        }
        let tail = self.capacity - from;
        copy_bits(&self.blocks, from, &mut blocks, from - removed.len(), tail);
        EdgeSet {
            blocks,
            capacity,
            len,
        }
    }

    /// Iterator over the edge identifiers in the set, in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    fn recount(&mut self) {
        self.len = self.blocks.iter().map(|b| b.count_ones() as usize).sum();
    }
}

/// ORs the `len` bits of `src` starting at bit `from` into `dst` starting at
/// bit `to`, up to 64 bits per step.
fn copy_bits(src: &[u64], from: usize, dst: &mut [u64], to: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(64);
        let (word, offset) = ((from + done) / 64, (from + done) % 64);
        let mut bits = src[word] >> offset;
        if offset > 0 && offset + n > 64 {
            bits |= src[word + 1] << (64 - offset);
        }
        if n < 64 {
            bits &= (1u64 << n) - 1;
        }
        let (word, offset) = ((to + done) / 64, (to + done) % 64);
        dst[word] |= bits << offset;
        if offset > 0 && offset + n > 64 {
            dst[word + 1] |= bits >> (64 - offset);
        }
        done += n;
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("capacity", &self.capacity)
            .field("len", &self.len)
            .field("edges", &self.iter().map(|e| e.index()).collect::<Vec<_>>())
            .finish()
    }
}

impl Extend<EdgeId> for EdgeSet {
    fn extend<T: IntoIterator<Item = EdgeId>>(&mut self, iter: T) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Iterator over the edges of an [`EdgeSet`], produced by [`EdgeSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a EdgeSet,
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(EdgeId::new(self.block_idx * 64 + bit));
            }
            self.block_idx += 1;
            if self.block_idx >= self.set.blocks.len() {
                return None;
            }
            self.current = self.set.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = EdgeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = EdgeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(EdgeId::new(0)));
        assert!(s.insert(EdgeId::new(64)));
        assert!(s.insert(EdgeId::new(129)));
        assert!(!s.insert(EdgeId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(EdgeId::new(129)));
        assert!(!s.contains(EdgeId::new(128)));
        assert!(s.remove(EdgeId::new(64)));
        assert!(!s.remove(EdgeId::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = EdgeSet::new(5);
        assert!(!s.contains(EdgeId::new(100)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        let mut s = EdgeSet::new(5);
        s.insert(EdgeId::new(5));
    }

    #[test]
    fn union_and_intersection() {
        let mut a = EdgeSet::new(100);
        let mut b = EdgeSet::new(100);
        for i in 0..50 {
            a.insert(EdgeId::new(i));
        }
        for i in 25..75 {
            b.insert(EdgeId::new(i));
        }
        let mut u = a.clone();
        assert_eq!(u.union_with(&b), 25);
        assert_eq!(u.len(), 75);
        assert_eq!(u.union_with(&b), 0);
        assert_eq!(u.len(), 75);
        let mut x = a.clone();
        x.intersect_with(&b);
        assert_eq!(x.len(), 25);
        assert!(x.is_subset_of(&a));
        assert!(x.is_subset_of(&b));
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let mut s = EdgeSet::new(300);
        let picks = [0usize, 1, 63, 64, 65, 127, 128, 200, 299];
        for &i in picks.iter().rev() {
            s.insert(EdgeId::new(i));
        }
        let got: Vec<usize> = s.iter().map(|e| e.index()).collect();
        assert_eq!(got, picks);
        let got2: Vec<usize> = (&s).into_iter().map(|e| e.index()).collect();
        assert_eq!(got2, picks);
    }

    #[test]
    fn extend_collects_edges() {
        let mut s = EdgeSet::new(10);
        s.extend([EdgeId::new(1), EdgeId::new(2), EdgeId::new(1)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_output_lists_edges() {
        let mut s = EdgeSet::new(8);
        s.insert(EdgeId::new(3));
        let d = format!("{s:?}");
        assert!(d.contains("capacity"));
        assert!(d.contains('3'));
    }

    #[test]
    fn compaction_matches_an_edge_by_edge_remap() {
        let mut s = EdgeSet::new(300);
        for i in (0..300).filter(|i| i % 3 == 0 || i % 7 == 1 || (60..70).contains(i)) {
            s.insert(EdgeId::new(i));
        }
        let cases: [&[usize]; 5] = [
            &[],
            &[0],
            &[0, 1, 63, 64, 65],
            &[5, 127, 128, 200, 299],
            &[299],
        ];
        for removed in cases {
            for extra in [0, 1, 70] {
                let capacity = 300 - removed.len() + extra;
                let ids: Vec<EdgeId> = removed.iter().map(|&r| EdgeId::new(r)).collect();
                let got = s.compacted(&ids, capacity);
                let mut want = EdgeSet::new(capacity);
                for e in s.iter().filter(|e| !removed.contains(&e.index())) {
                    let below = removed.iter().filter(|&&r| r < e.index()).count();
                    want.insert(EdgeId::new(e.index() - below));
                }
                assert_eq!(got, want, "removed {removed:?}, {extra} appended");
            }
        }
    }

    #[test]
    #[should_panic]
    fn compaction_rejects_unsorted_removals() {
        EdgeSet::new(10).compacted(&[EdgeId::new(4), EdgeId::new(2)], 8);
    }

    #[test]
    fn subset_with_mismatched_capacity_is_false() {
        let a = EdgeSet::new(5);
        let b = EdgeSet::new(6);
        assert!(!a.is_subset_of(&b));
    }
}

//! Dense word bitsets over small, dense ids.
//!
//! The dataflow facts of [`crate::dataflow`] are sets over a universe
//! fixed per program: statement ids (reaching definitions) or the
//! program's interned abstract locations (memory liveness). A bit per
//! member makes join, kill and equality a pass over a few words, and
//! [`Clone::clone_from`] reuses the destination's buffer, so the solver
//! recomputes a fact without allocating.

use std::fmt;
use std::marker::PhantomData;

use gist_ir::InstrId;

/// An id with a one-to-one mapping onto a dense `usize` index.
pub trait BitIndex: Copy {
    /// The id's bit position.
    fn to_index(self) -> usize;
    /// The id at a bit position.
    fn from_index(index: usize) -> Self;
}

impl BitIndex for usize {
    fn to_index(self) -> usize {
        self
    }

    fn from_index(index: usize) -> Self {
        index
    }
}

impl BitIndex for InstrId {
    fn to_index(self) -> usize {
        self.index()
    }

    fn from_index(index: usize) -> Self {
        InstrId(u32::try_from(index).expect("statement ids fit in u32"))
    }
}

/// A set of ids drawn from a fixed universe `0..universe`, one bit each.
/// Sets combined by [`BitSet::union_with`] and friends must share their
/// universe.
pub struct BitSet<I = usize> {
    words: Vec<u64>,
    _id: PhantomData<fn(I) -> I>,
}

/// A set of statements.
pub type StmtSet = BitSet<InstrId>;

impl<I: BitIndex> BitSet<I> {
    /// The empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            _id: PhantomData,
        }
    }

    /// True if `id` is a member. Ids outside the universe never are.
    pub fn contains(&self, id: I) -> bool {
        let i = id.to_index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `id`, which must lie inside the universe.
    pub fn insert(&mut self, id: I) {
        let i = id.to_index();
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `id`, if present.
    pub fn remove(&mut self, id: I) {
        let i = id.to_index();
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Adds every member of `other`; true if `self` grew.
    pub fn union_with(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// Removes every member of `other`.
    pub fn subtract(&mut self, other: &Self) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// True if the two sets share a member.
    pub fn intersects(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(I::from_index(wi * 64 + bit))
            })
        })
    }
}

impl<I> Clone for BitSet<I> {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            _id: PhantomData,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl<I> PartialEq for BitSet<I> {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl<I> Eq for BitSet<I> {}

impl<I: BitIndex + fmt::Debug> fmt::Debug for BitSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations_match_their_definitions() {
        let mut a: BitSet = BitSet::new(130);
        let mut b: BitSet = BitSet::new(130);
        for i in [0, 63, 64, 129] {
            a.insert(i);
        }
        b.insert(64);
        b.insert(100);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(a.contains(129) && !a.contains(128) && !a.contains(5000));
        assert!(a.intersects(&b));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "a second union adds nothing");
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 63, 129]);
        assert!(!a.intersects(&b));
        let mut c = BitSet::new(130);
        c.clone_from(&a);
        assert_eq!(c, a);
        assert_eq!(BitSet::<usize>::new(0).iter().next(), None);
        assert_eq!(format!("{a:?}"), "{0, 63, 129}");
    }
}

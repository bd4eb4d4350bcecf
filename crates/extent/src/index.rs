//! A two-level sorted index keyed by `u64` sectors: the storage beneath
//! [`ExtentMap`](crate::ExtentMap).
//!
//! Entries live in chunks of at most [`CHUNK_CAP`] `(key, value)` pairs,
//! each chunk a sorted `Vec`, plus one flat `Vec` holding every chunk's
//! first key. A search is a binary search over the chunk heads followed by
//! one inside a chunk, both over contiguous memory, and an edit shifts at
//! most one chunk. Callers navigate with [`Pos`] cursors
//! ([`lower_bound`](SortedIndex::lower_bound), [`prev`](SortedIndex::prev),
//! [`next`](SortedIndex::next)) and edit in place at a cursor
//! ([`set`](SortedIndex::set), [`insert_at`](SortedIndex::insert_at),
//! [`remove_at`](SortedIndex::remove_at)), so an interval update does one
//! search and then touches its neighbours directly.
//!
//! Equality and `Debug` depend only on the entries, never on how they
//! happen to be chunked.

use std::fmt;

/// Most entries one chunk holds. A full chunk splits in half on insert;
/// a chunk that falls below a quarter of this merges into a neighbour
/// when the two fit in one chunk.
pub const CHUNK_CAP: usize = 128;

/// A cursor into a [`SortedIndex`]: an entry, or the end position one past
/// the last entry. Any edit other than [`SortedIndex::set`] invalidates
/// every cursor except the one the edit returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    chunk: usize,
    slot: usize,
}

/// An ordered map from `u64` keys to `Copy` values, stored as a two-level
/// array of sorted chunks (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use smrseek_extent::SortedIndex;
///
/// let mut index = SortedIndex::new();
/// let end = index.end();
/// let at = index.insert_at(end, 10, 'a');
/// index.insert_at(at, 5, 'b'); // before the entry at `at`
/// let pos = index.lower_bound(7);
/// assert_eq!(index.get(pos), Some((10, 'a')));
/// assert_eq!(index.prev(pos).and_then(|p| index.get(p)), Some((5, 'b')));
/// ```
#[derive(Clone)]
pub struct SortedIndex<V> {
    /// `heads[c]` is the key of `chunks[c][0]`.
    heads: Vec<u64>,
    /// Non-empty sorted chunks, each holding at most [`CHUNK_CAP`] entries;
    /// every key in chunk `c` is below every key in chunk `c + 1`.
    chunks: Vec<Vec<(u64, V)>>,
    len: usize,
}

impl<V> Default for SortedIndex<V> {
    fn default() -> Self {
        SortedIndex {
            heads: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<V: Copy> SortedIndex<V> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.chunks.clear();
        self.len = 0;
    }

    /// The end position, one past the last entry.
    pub fn end(&self) -> Pos {
        Pos {
            chunk: self.chunks.len(),
            slot: 0,
        }
    }

    /// Position of the first entry whose key is `>= key`, or
    /// [`end`](Self::end) if there is none.
    pub fn lower_bound(&self, key: u64) -> Pos {
        let c = self.heads.partition_point(|&h| h <= key);
        if c == 0 {
            return Pos { chunk: 0, slot: 0 };
        }
        let chunk = &self.chunks[c - 1];
        let slot = chunk.partition_point(|&(k, _)| k < key);
        if slot == chunk.len() {
            Pos { chunk: c, slot: 0 }
        } else {
            Pos { chunk: c - 1, slot }
        }
    }

    /// The entry at `pos`, or `None` at the end position.
    pub fn get(&self, pos: Pos) -> Option<(u64, V)> {
        self.chunks.get(pos.chunk).map(|c| c[pos.slot])
    }

    /// Position of the entry after `pos` (possibly the end position).
    /// `pos` must not be the end position.
    pub fn next(&self, pos: Pos) -> Pos {
        debug_assert!(pos.chunk < self.chunks.len(), "next() past the end");
        if pos.slot + 1 < self.chunks[pos.chunk].len() {
            Pos {
                chunk: pos.chunk,
                slot: pos.slot + 1,
            }
        } else {
            Pos {
                chunk: pos.chunk + 1,
                slot: 0,
            }
        }
    }

    /// Position of the entry before `pos`, or `None` at the first entry.
    pub fn prev(&self, pos: Pos) -> Option<Pos> {
        if pos.slot > 0 {
            Some(Pos {
                chunk: pos.chunk,
                slot: pos.slot - 1,
            })
        } else if pos.chunk > 0 {
            let chunk = pos.chunk - 1;
            Some(Pos {
                chunk,
                slot: self.chunks[chunk].len() - 1,
            })
        } else {
            None
        }
    }

    /// Replaces the entry at `pos`. The new key must keep the order: above
    /// the previous entry's key and below the next one's.
    pub fn set(&mut self, pos: Pos, key: u64, value: V) {
        debug_assert!(
            self.fits(pos, self.next(pos), key),
            "set() breaks key order"
        );
        self.chunks[pos.chunk][pos.slot] = (key, value);
        if pos.slot == 0 {
            self.heads[pos.chunk] = key;
        }
    }

    /// Inserts `(key, value)` just before `pos` (at the end for the end
    /// position) and returns the new entry's position. `key` must lie
    /// between the keys of the neighbours it lands between.
    pub fn insert_at(&mut self, pos: Pos, key: u64, value: V) -> Pos {
        debug_assert!(self.fits(pos, pos, key), "insert_at() breaks key order");
        self.len += 1;
        if self.chunks.is_empty() {
            self.heads.push(key);
            self.chunks.push(vec![(key, value)]);
            return Pos { chunk: 0, slot: 0 };
        }
        let Pos {
            mut chunk,
            mut slot,
        } = pos;
        if chunk == self.chunks.len() {
            chunk -= 1;
            slot = self.chunks[chunk].len();
        }
        if self.chunks[chunk].len() == CHUNK_CAP {
            if slot == CHUNK_CAP {
                // Appending past a full chunk opens a new one, so ascending
                // inserts leave full chunks behind instead of half-full ones.
                self.heads.insert(chunk + 1, key);
                self.chunks.insert(chunk + 1, vec![(key, value)]);
                return Pos {
                    chunk: chunk + 1,
                    slot: 0,
                };
            }
            let tail = self.chunks[chunk].split_off(CHUNK_CAP / 2);
            self.heads.insert(chunk + 1, tail[0].0);
            self.chunks.insert(chunk + 1, tail);
            if slot > CHUNK_CAP / 2 {
                chunk += 1;
                slot -= CHUNK_CAP / 2;
            }
        }
        self.chunks[chunk].insert(slot, (key, value));
        if slot == 0 {
            self.heads[chunk] = key;
        }
        Pos { chunk, slot }
    }

    /// Removes the entry at `pos` and returns the position of the entry
    /// that followed it (possibly the end position).
    pub fn remove_at(&mut self, pos: Pos) -> Pos {
        let Pos { chunk, mut slot } = pos;
        self.chunks[chunk].remove(slot);
        self.len -= 1;
        let n = self.chunks[chunk].len();
        if n == 0 {
            self.heads.remove(chunk);
            self.chunks.remove(chunk);
            return Pos { chunk, slot: 0 };
        }
        if slot == 0 {
            self.heads[chunk] = self.chunks[chunk][0].0;
        }
        let mut chunk = chunk;
        if n < CHUNK_CAP / 4 {
            if chunk + 1 < self.chunks.len() && n + self.chunks[chunk + 1].len() <= CHUNK_CAP {
                let next = self.chunks.remove(chunk + 1);
                self.heads.remove(chunk + 1);
                self.chunks[chunk].extend_from_slice(&next);
            } else if chunk > 0 && self.chunks[chunk - 1].len() + n <= CHUNK_CAP {
                let cur = self.chunks.remove(chunk);
                self.heads.remove(chunk);
                chunk -= 1;
                slot += self.chunks[chunk].len();
                self.chunks[chunk].extend_from_slice(&cur);
            }
        }
        if slot == self.chunks[chunk].len() {
            Pos {
                chunk: chunk + 1,
                slot: 0,
            }
        } else {
            Pos { chunk, slot }
        }
    }

    /// Iterates the entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.chunks.iter().flatten().copied()
    }

    /// Iterates the entries in key order, starting at `pos`.
    pub fn iter_from(&self, pos: Pos) -> impl Iterator<Item = (u64, V)> + '_ {
        let first = self
            .chunks
            .get(pos.chunk)
            .map_or(&[][..], |c| &c[pos.slot..]);
        let rest = &self.chunks[(pos.chunk + 1).min(self.chunks.len())..];
        first.iter().chain(rest.iter().flatten()).copied()
    }

    /// Whether `key` sorts above the entry before `pos` and below the entry
    /// at `after`.
    fn fits(&self, pos: Pos, after: Pos, key: u64) -> bool {
        let above = self.prev(pos).and_then(|p| self.get(p));
        above.is_none_or(|(k, _)| k < key) && self.get(after).is_none_or(|(k, _)| key < k)
    }
}

impl<V: Copy + PartialEq> PartialEq for SortedIndex<V> {
    /// Content equality: the same entries, whatever the chunk layout.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Copy + Eq> Eq for SortedIndex<V> {}

impl<V: Copy + fmt::Debug> fmt::Debug for SortedIndex<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every invariant the cursor arithmetic relies on.
    fn check(index: &SortedIndex<u32>) {
        assert_eq!(index.heads.len(), index.chunks.len());
        let mut total = 0;
        for (head, chunk) in index.heads.iter().zip(&index.chunks) {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK_CAP);
            assert_eq!(*head, chunk[0].0);
            total += chunk.len();
        }
        assert_eq!(total, index.len());
        let keys: Vec<u64> = index.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
    }

    fn insert(index: &mut SortedIndex<u32>, key: u64) -> Pos {
        let pos = index.lower_bound(key);
        index.insert_at(pos, key, key as u32)
    }

    /// Removes the entry at `pos` and checks that the returned cursor holds
    /// the removed key's successor in `reference`.
    fn remove(
        index: &mut SortedIndex<u32>,
        reference: &mut std::collections::BTreeSet<u64>,
        pos: Pos,
    ) {
        let (key, _) = index.get(pos).expect("entry");
        let next = index.remove_at(pos);
        reference.remove(&key);
        let want = reference.range(key..).next().copied();
        assert_eq!(index.get(next).map(|(k, _)| k), want, "successor of {key}");
    }

    #[test]
    fn empty_index() {
        let index = SortedIndex::<u32>::new();
        assert!(index.is_empty());
        assert_eq!(index.lower_bound(0), index.end());
        assert_eq!(index.get(index.end()), None);
        assert_eq!(index.prev(index.end()), None);
        check(&index);
    }

    #[test]
    fn ascending_inserts_fill_chunks() {
        let mut index = SortedIndex::new();
        for k in 0..(4 * CHUNK_CAP as u64) {
            let end = index.end();
            index.insert_at(end, k, k as u32);
        }
        check(&index);
        assert_eq!(index.chunks.len(), 4, "appends leave full chunks");
    }

    #[test]
    fn random_inserts_and_removes_keep_invariants() {
        let mut index = SortedIndex::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4096;
            let pos = index.lower_bound(key);
            let present = index.get(pos).is_some_and(|(k, _)| k == key);
            if round % 3 == 2 && present {
                remove(&mut index, &mut reference, pos);
            } else if !present {
                index.insert_at(pos, key, key as u32);
                reference.insert(key);
            }
        }
        check(&index);
        assert!(index.len() > 2 * CHUNK_CAP, "spans several chunks");
        assert!(index.iter().map(|(k, _)| k).eq(reference.iter().copied()));
        while !index.is_empty() {
            let pos = index.lower_bound(x % 4096);
            let pos = if index.get(pos).is_some() {
                pos
            } else {
                index.prev(pos).expect("non-empty")
            };
            remove(&mut index, &mut reference, pos);
            check(&index);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
    }

    #[test]
    fn cursors_walk_both_ways_across_chunks() {
        let mut index = SortedIndex::new();
        for k in (0..1000u64).rev() {
            insert(&mut index, k * 2);
        }
        check(&index);
        let mut pos = index.lower_bound(0);
        for k in 0..1000u64 {
            assert_eq!(index.get(pos), Some((k * 2, (k * 2) as u32)));
            pos = index.next(pos);
        }
        assert_eq!(pos, index.end());
        for k in (0..1000u64).rev() {
            pos = index.prev(pos).expect("entry");
            assert_eq!(index.get(pos).map(|(k, _)| k), Some(k * 2));
        }
        assert_eq!(index.prev(pos), None);
        assert_eq!(index.get(index.lower_bound(7)).map(|(k, _)| k), Some(8));
        assert_eq!(index.lower_bound(5000), index.end());
        let from: Vec<u64> = index
            .iter_from(index.lower_bound(1990))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(from, vec![1990, 1992, 1994, 1996, 1998]);
        assert_eq!(index.iter_from(index.end()).count(), 0);
    }

    #[test]
    fn remove_at_returns_the_successor() {
        let mut index = SortedIndex::new();
        for k in 0..(3 * CHUNK_CAP as u64) {
            insert(&mut index, k);
        }
        // Remove every other key from the front: chunks shrink and merge.
        let mut pos = index.lower_bound(0);
        let mut expect = 0u64;
        while index.get(pos).is_some() {
            assert_eq!(index.get(pos).map(|(k, _)| k), Some(expect));
            pos = index.remove_at(pos);
            check(&index);
            if index.get(pos).is_none() {
                break;
            }
            pos = index.next(pos);
            expect += 2;
        }
        assert_eq!(index.len(), 3 * CHUNK_CAP / 2);
        assert!(index.iter().all(|(k, _)| k % 2 == 1));
    }

    #[test]
    fn set_updates_the_chunk_head() {
        let mut index = SortedIndex::new();
        for k in 0..(2 * CHUNK_CAP as u64) {
            insert(&mut index, k * 10);
        }
        let pos = index.lower_bound(CHUNK_CAP as u64 * 10);
        assert_eq!(pos.slot, 0, "the second chunk's head");
        index.set(pos, CHUNK_CAP as u64 * 10 - 5, 7);
        check(&index);
        let found = index.lower_bound(CHUNK_CAP as u64 * 10 - 6);
        assert_eq!(index.get(found), Some((CHUNK_CAP as u64 * 10 - 5, 7)));
    }

    #[test]
    fn equality_ignores_chunking() {
        let keys: Vec<u64> = (0..700u64).map(|k| k * 3).collect();
        let mut ascending = SortedIndex::new();
        for &k in &keys {
            let end = ascending.end();
            ascending.insert_at(end, k, k as u32);
        }
        let mut descending = SortedIndex::new();
        for &k in keys.iter().rev() {
            insert(&mut descending, k);
        }
        assert_ne!(ascending.chunks.len(), descending.chunks.len());
        assert_eq!(ascending, descending);
        assert_eq!(format!("{ascending:?}"), format!("{descending:?}"));
        check(&ascending);
        check(&descending);
    }
}

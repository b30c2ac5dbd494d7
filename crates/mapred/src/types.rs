//! Mapper / Reducer traits and associated data bounds.
//!
//! The APIs mirror the paper's §2:
//!
//! ```text
//! map(K1, V1)      -> [(K2, V2)]
//! reduce(K2, {V2}) -> [(K3, V3)]
//! ```
//!
//! Keys must be `Ord` (the shuffle sorts by K2, which the MRBG-Store's
//! sequential-window optimization depends on, paper §3.4), `Hash` (grouping
//! and partitioning), and `Codec` (byte metering and persistence).

use i2mr_common::codec::Codec;
use i2mr_common::hash::MapKey;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Index;

/// Bound bundle for key positions (K1, K2, K3, SK, DK).
pub trait KeyData: Clone + Ord + Hash + Send + Sync + Debug + Codec + 'static {}
impl<T: Clone + Ord + Hash + Send + Sync + Debug + Codec + 'static> KeyData for T {}

/// Bound bundle for value positions (V1, V2, V3, SV, DV).
pub trait ValueData: Clone + Send + Sync + Debug + Codec + 'static {}
impl<T: Clone + Send + Sync + Debug + Codec + 'static> ValueData for T {}

/// Collection context handed to map/reduce functions.
///
/// Emitted pairs are buffered in emission order; the engine partitions and
/// sorts them afterwards.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    /// Fresh, empty emitter.
    pub fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emit one intermediate/output pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consume the emitter, returning emitted pairs in emission order.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }

    /// Drain emitted pairs, leaving the emitter reusable.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.pairs.drain(..)
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The user Map function: `map(K1, V1) -> [(K2, V2)]`.
pub trait Mapper<K1, V1, K2, V2>: Send + Sync {
    /// Process one input record, emitting intermediate pairs.
    fn map(&self, key: &K1, value: &V1, out: &mut Emitter<K2, V2>);
}

impl<F, K1, V1, K2, V2> Mapper<K1, V1, K2, V2> for F
where
    F: Fn(&K1, &V1, &mut Emitter<K2, V2>) + Send + Sync,
{
    fn map(&self, key: &K1, value: &V1, out: &mut Emitter<K2, V2>) {
        self(key, value, out)
    }
}

/// Borrowed, zero-copy view of one reduce group's values.
///
/// Reducers used to receive `&[V2]`, which forced every engine to clone a
/// group's values into a scratch `Vec` before each call. `Values` instead
/// borrows straight from wherever the group already lives:
///
/// * [`Values::group`] — a contiguous `(K2, MK, V2)` slice of a sorted
///   shuffle run (the hot path: no copy, no allocation);
/// * [`Values::slice`] — a plain `&[V2]` (values decoded from the
///   MRBG-Store during incremental reduce, or test fixtures);
/// * [`Values::gather`] — values scattered over several source vectors,
///   read in the order a slot list names them (a full pass replaying its
///   shuffle plan: each map task's values stay where the task left them).
///
/// The view is `Copy`, indexable, and iterable (`for v in vals`,
/// `vals.iter().sum()`, `vals[0]`), so most reducer bodies read exactly as
/// they did against a slice.
#[derive(Debug)]
pub struct Values<'a, K, V> {
    repr: ValuesRepr<'a, K, V>,
}

#[derive(Debug)]
enum ValuesRepr<'a, K, V> {
    Group(&'a [(K, MapKey, V)]),
    Slice(&'a [V]),
    Gather(&'a [Vec<V>], &'a [(u32, u32)]),
}

// Manual Clone/Copy: the view only holds references, so it is copyable
// regardless of whether K/V are (derive would add `K: Copy, V: Copy`).
impl<K, V> Clone for Values<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for Values<'_, K, V> {}
impl<K, V> Clone for ValuesRepr<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for ValuesRepr<'_, K, V> {}

impl<'a, K, V> Values<'a, K, V> {
    /// View the values of one sorted-run group (records sharing one K2).
    #[inline]
    pub fn group(records: &'a [(K, MapKey, V)]) -> Self {
        Values {
            repr: ValuesRepr::Group(records),
        }
    }

    /// View a plain value slice.
    #[inline]
    pub fn slice(values: &'a [V]) -> Self {
        Values {
            repr: ValuesRepr::Slice(values),
        }
    }

    /// View `sources[s][i]` for each `(s, i)` of `slots`, in slot order.
    /// No value is cloned; an out-of-range slot panics on access.
    #[inline]
    pub fn gather(sources: &'a [Vec<V>], slots: &'a [(u32, u32)]) -> Self {
        Values {
            repr: ValuesRepr::Gather(sources, slots),
        }
    }

    /// The empty view (a key with no intermediate values this iteration).
    #[inline]
    pub fn empty() -> Self {
        Values {
            repr: ValuesRepr::Slice(&[]),
        }
    }

    /// Number of values in the group.
    #[inline]
    pub fn len(&self) -> usize {
        match self.repr {
            ValuesRepr::Group(r) => r.len(),
            ValuesRepr::Slice(s) => s.len(),
            ValuesRepr::Gather(_, slots) => slots.len(),
        }
    }

    /// True when the group is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a V> {
        match self.repr {
            ValuesRepr::Group(r) => r.get(i).map(|(_, _, v)| v),
            ValuesRepr::Slice(s) => s.get(i),
            ValuesRepr::Gather(sources, slots) => {
                slots.get(i).map(|&(s, j)| &sources[s as usize][j as usize])
            }
        }
    }

    /// The first value, if any.
    #[inline]
    pub fn first(&self) -> Option<&'a V> {
        self.get(0)
    }

    /// Iterate the borrowed values.
    #[inline]
    pub fn iter(&self) -> ValuesIter<'a, K, V> {
        ValuesIter {
            values: *self,
            next: 0,
        }
    }

    /// Clone the values into an owned `Vec` (escape hatch for reducers
    /// that genuinely need ownership).
    pub fn to_vec(&self) -> Vec<V>
    where
        V: Clone,
    {
        self.iter().cloned().collect()
    }
}

impl<'a, K, V> Index<usize> for Values<'a, K, V> {
    type Output = V;
    #[inline]
    fn index(&self, i: usize) -> &V {
        self.get(i).expect("Values index out of bounds")
    }
}

/// Iterator over a [`Values`] view.
#[derive(Clone, Debug)]
pub struct ValuesIter<'a, K, V> {
    values: Values<'a, K, V>,
    next: usize,
}

impl<'a, K, V> Iterator for ValuesIter<'a, K, V> {
    type Item = &'a V;
    #[inline]
    fn next(&mut self) -> Option<&'a V> {
        let v = self.values.get(self.next)?;
        self.next += 1;
        Some(v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.values.len().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl<K, V> ExactSizeIterator for ValuesIter<'_, K, V> {}

impl<'a, K, V> IntoIterator for Values<'a, K, V> {
    type Item = &'a V;
    type IntoIter = ValuesIter<'a, K, V>;
    fn into_iter(self) -> ValuesIter<'a, K, V> {
        self.iter()
    }
}

impl<'a, K, V> IntoIterator for &Values<'a, K, V> {
    type Item = &'a V;
    type IntoIter = ValuesIter<'a, K, V>;
    fn into_iter(self) -> ValuesIter<'a, K, V> {
        self.iter()
    }
}

/// The user Reduce function: `reduce(K2, {V2}) -> [(K3, V3)]`.
///
/// Values arrive ascending by the MK of the map instance that emitted
/// them; values sharing one `(K2, MK)` (a map instance that emitted the
/// same key twice) have **unspecified relative order** — the same
/// contract as Hadoop, where reduce values order is undefined.
/// Implementations must not depend on the order of such duplicates.
pub trait Reducer<K2, V2, K3, V3>: Send + Sync {
    /// Process one key group. `values` is a borrowed view of every V2
    /// shuffled to this K2 (see [`Values`]).
    fn reduce(&self, key: &K2, values: Values<'_, K2, V2>, out: &mut Emitter<K3, V3>);
}

impl<F, K2, V2, K3, V3> Reducer<K2, V2, K3, V3> for F
where
    F: for<'a> Fn(&K2, Values<'a, K2, V2>, &mut Emitter<K3, V3>) + Send + Sync,
{
    fn reduce(&self, key: &K2, values: Values<'_, K2, V2>, out: &mut Emitter<K3, V3>) {
        self(key, values, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_preserves_emission_order() {
        let mut e: Emitter<u32, &str> = Emitter::new();
        assert!(e.is_empty());
        e.emit(2, "b");
        e.emit(1, "a");
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![(2, "b"), (1, "a")]);
    }

    #[test]
    fn emitter_drain_reuses_buffer() {
        let mut e: Emitter<u32, u32> = Emitter::new();
        e.emit(1, 1);
        let drained: Vec<_> = e.drain().collect();
        assert_eq!(drained, vec![(1, 1)]);
        assert!(e.is_empty());
        e.emit(2, 2);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn closures_are_mappers_and_reducers() {
        let mapper = |k: &u64, v: &u64, out: &mut Emitter<u64, u64>| out.emit(*k, *v * 2);
        let mut e = Emitter::new();
        Mapper::map(&mapper, &3, &4, &mut e);
        assert_eq!(e.into_pairs(), vec![(3, 8)]);

        let reducer = |k: &u64, vs: Values<u64, u64>, out: &mut Emitter<u64, u64>| {
            out.emit(*k, vs.iter().sum())
        };
        let mut e = Emitter::new();
        Reducer::reduce(&reducer, &1, Values::slice(&[1, 2, 3]), &mut e);
        assert_eq!(e.into_pairs(), vec![(1, 6)]);
    }

    #[test]
    fn values_views_agree_across_representations() {
        let records: Vec<(u64, MapKey, u32)> =
            vec![(7, MapKey(0), 10), (7, MapKey(1), 11), (7, MapKey(2), 12)];
        let flat = [10u32, 11, 12];
        let sources = vec![vec![12u32, 99], vec![], vec![0, 10, 11]];
        let slots = [(2u32, 1u32), (2, 2), (0, 0)];
        let a: Values<u64, u32> = Values::group(&records);
        let b: Values<u64, u32> = Values::slice(&flat);
        let c: Values<u64, u32> = Values::gather(&sources, &slots);
        for v in [a, b, c] {
            assert_eq!(v.len(), 3);
            assert!(!v.is_empty());
            assert_eq!(v[0], 10);
            assert_eq!(v.first(), Some(&10));
            assert_eq!(v.get(2), Some(&12));
            assert_eq!(v.get(3), None);
            assert_eq!(v.iter().len(), 3);
            assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![10, 11, 12]);
            assert_eq!(v.to_vec(), vec![10, 11, 12]);
            let mut seen = Vec::new();
            for x in v {
                seen.push(*x);
            }
            assert_eq!(seen, vec![10, 11, 12]);
        }
        let e: Values<u64, u32> = Values::empty();
        assert!(e.is_empty());
        assert_eq!(e.iter().next(), None);
    }
}

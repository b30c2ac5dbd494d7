//! Delta input (paper §3.3).
//!
//! i2MapReduce expects *delta input* describing how the dataset changed
//! since the last job: newly inserted kv-pairs marked `'+'`, deleted kv-pairs
//! marked `'-'`, and a modification represented as a deletion of the old
//! record followed by an insertion of the new one. (Identifying the changes
//! is the data-acquisition layer's job — here, `i2mr-datagen`'s delta
//! generators.)

use i2mr_mapred::types::{KeyData, ValueData};

/// `'+'` or `'-'` mark on a delta record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Newly inserted kv-pair.
    Insert,
    /// Deleted kv-pair (must match an existing record exactly).
    Delete,
}

/// One marked record of delta input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRecord<K, V> {
    pub key: K,
    pub value: V,
    pub op: Op,
}

/// A whole delta input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta<K, V> {
    records: Vec<DeltaRecord<K, V>>,
}

impl<K: KeyData, V: ValueData> Delta<K, V> {
    /// Empty delta.
    pub fn new() -> Self {
        Delta {
            records: Vec::new(),
        }
    }

    /// Build from raw records.
    pub fn from_records(records: Vec<DeltaRecord<K, V>>) -> Self {
        Delta { records }
    }

    /// Mark `(key, value)` as newly inserted.
    pub fn insert(&mut self, key: K, value: V) {
        self.records.push(DeltaRecord {
            key,
            value,
            op: Op::Insert,
        });
    }

    /// Mark `(key, value)` as deleted.
    pub fn delete(&mut self, key: K, value: V) {
        self.records.push(DeltaRecord {
            key,
            value,
            op: Op::Delete,
        });
    }

    /// Record an update: delete the old record, insert the new one
    /// (paper: "an update is represented as a deletion followed by an
    /// insertion").
    pub fn update(&mut self, key: K, old_value: V, new_value: V) {
        self.delete(key.clone(), old_value);
        self.insert(key, new_value);
    }

    /// All records in emission order.
    pub fn records(&self) -> &[DeltaRecord<K, V>] {
        &self.records
    }

    /// Number of delta records (an update counts as two).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True when every record is an insertion — the precondition for the
    /// accumulator-reduce fast path (paper §3.5).
    pub fn is_insert_only(&self) -> bool {
        self.records.iter().all(|r| r.op == Op::Insert)
    }

    /// Apply this delta to a materialized dataset, producing the new input
    /// `D' = D + ΔD`, with multiset semantics: records are applied in delta
    /// order, and each deletion removes the *first live* record with an
    /// equal key and an equal value — base records in base order, then the
    /// records inserted earlier by this same delta, in delta order. A
    /// deletion that matches nothing live is a no-op.
    ///
    /// The output order is fixed: the surviving base records in base order,
    /// then the surviving inserts in delta order.
    ///
    /// Runs in O(|D| + |ΔD|) expected time: only the keys this delta deletes
    /// are indexed (one hash probe per base record), and a deletion compares
    /// values among the live records of its own key only — so the bound
    /// degrades towards O(|D| · |ΔD|) only when most records share one key.
    ///
    /// Used by re-computation baselines (which need the full new input) and
    /// by equivalence tests.
    pub fn apply_to(&self, base: &[(K, V)]) -> Vec<(K, V)>
    where
        V: PartialEq,
    {
        // Per deleted key, the live records a deletion may remove, in
        // first-match order. Position `i < n` is `base[i]`, `n + j` is
        // `self.records[j]`.
        let n = base.len();
        let deletes = self.records.iter().filter(|r| r.op == Op::Delete);
        let mut live: std::collections::HashMap<&K, Vec<(usize, &V)>> =
            deletes.map(|r| (&r.key, Vec::new())).collect();
        for (i, (k, v)) in base.iter().enumerate() {
            if let Some(candidates) = live.get_mut(k) {
                candidates.push((i, v));
            }
        }
        let mut removed = vec![false; n + self.records.len()];
        for (j, r) in self.records.iter().enumerate() {
            let Some(candidates) = live.get_mut(&r.key) else {
                continue; // an insert under a key nothing deletes
            };
            match r.op {
                Op::Insert => candidates.push((n + j, &r.value)),
                Op::Delete => {
                    if let Some(at) = candidates.iter().position(|(_, v)| **v == r.value) {
                        removed[candidates.remove(at).0] = true;
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        let survivors = base.iter().zip(&removed).filter(|(_, gone)| !**gone);
        out.extend(survivors.map(|(kv, _)| kv.clone()));
        let inserts = self.records.iter().zip(&removed[n..]);
        let inserts = inserts.filter(|(r, gone)| r.op == Op::Insert && !**gone);
        out.extend(inserts.map(|(r, _)| (r.key.clone(), r.value.clone())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_is_delete_then_insert() {
        let mut d: Delta<u64, String> = Delta::new();
        d.update(7, "old".into(), "new".into());
        assert_eq!(d.len(), 2);
        assert_eq!(d.records()[0].op, Op::Delete);
        assert_eq!(d.records()[0].value, "old");
        assert_eq!(d.records()[1].op, Op::Insert);
        assert_eq!(d.records()[1].value, "new");
        assert!(!d.is_insert_only());
    }

    #[test]
    fn insert_only_detection() {
        let mut d: Delta<u64, u64> = Delta::new();
        assert!(d.is_insert_only(), "vacuously true when empty");
        d.insert(1, 1);
        d.insert(2, 2);
        assert!(d.is_insert_only());
        d.delete(1, 1);
        assert!(!d.is_insert_only());
    }

    #[test]
    fn apply_to_realizes_new_dataset() {
        let base = vec![(1u64, 10u64), (2, 20), (3, 30)];
        let mut d = Delta::new();
        d.delete(2, 20);
        d.insert(4, 40);
        d.update(1, 10, 11);
        let mut new = d.apply_to(&base);
        new.sort_unstable();
        assert_eq!(new, vec![(1, 11), (3, 30), (4, 40)]);
    }

    #[test]
    fn apply_to_ignores_nonmatching_delete() {
        let base = vec![(1u64, 10u64)];
        let mut d = Delta::new();
        d.delete(1, 999); // value mismatch: no-op
        assert_eq!(d.apply_to(&base), base);
    }

    #[test]
    fn apply_to_deletes_only_one_duplicate() {
        let base = vec![(1u64, 10u64), (1, 10)];
        let mut d = Delta::new();
        d.delete(1, 10);
        assert_eq!(d.apply_to(&base).len(), 1);
    }

    #[test]
    fn apply_to_keeps_base_order_then_insert_order() {
        let base = vec![(5u64, b'a'), (1, b'b'), (5, b'a'), (3, b'c')];
        let mut d = Delta::new();
        d.insert(9, b'x');
        d.delete(5, b'a'); // first live match: base[0], not base[2]
        d.insert(1, b'y');
        d.delete(9, b'x'); // an insert of this same delta
        d.delete(9, b'x'); // nothing live any more: no-op
        d.insert(9, b'x');
        assert_eq!(
            d.apply_to(&base),
            vec![(1, b'b'), (5, b'a'), (3, b'c'), (1, b'y'), (9, b'x')]
        );
    }

    /// Scale guard: one position scan per delete (the old loop) is 10¹⁰
    /// comparisons here; the keyed index is a few tens of milliseconds. The
    /// bound is generous so that a loaded machine cannot flake it.
    #[test]
    fn apply_to_is_linear_in_base_plus_delta() {
        let base: Vec<(u64, u64)> = (0..200_000).map(|i| (i, i)).collect();
        let mut d = Delta::new();
        for i in (0..200_000u64).step_by(2) {
            d.update(i, i, i + 1);
        }
        assert_eq!(d.len(), 200_000);
        let t = std::time::Instant::now();
        let out = d.apply_to(&base);
        let wall = t.elapsed();
        assert_eq!(out.len(), base.len());
        assert_eq!(out[0], (1, 1), "odd keys survive in base order");
        assert_eq!(out[100_000], (0, 1), "then the updates in delta order");
        assert!(
            wall < std::time::Duration::from_secs(20),
            "apply_to took {wall:?}"
        );
    }
}

//! Partitioners.
//!
//! i2MapReduce leans on one specific property (paper §4.3): using the *same*
//! hash function for
//!
//! * state kv-pairs:      `partition = hash(DK) mod n`
//! * structure kv-pairs:  `partition = hash(project(SK)) mod n`
//! * prime-reduce shuffle: `partition = hash(K2) mod n` with `K2 = DK`
//!
//! guarantees interdependent structure/state pairs co-locate and that a
//! reduce task's output *is* the next iteration's local state file. The
//! default [`HashPartitioner`] hashes the key's canonical `Codec` encoding
//! with the workspace's stable xxhash64, so partition decisions are
//! reproducible across jobs and across process restarts — a prerequisite for
//! finding preserved MRBG-Store chunks again. The encoding goes through a
//! reused per-thread buffer ([`with_encoding`]), so routing a record
//! allocates nothing.

use i2mr_common::codec::{with_encoding, Codec};
use i2mr_common::hash::stable_hash64;

/// Maps a key to one of `n` partitions.
pub trait Partitioner<K>: Send + Sync {
    /// Partition index in `0..n` for `key`. Must be deterministic.
    fn partition(&self, key: &K, n: usize) -> usize;
}

/// The default stable hash partitioner (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl<K: Codec> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, n: usize) -> usize {
        debug_assert!(n > 0, "partition count must be positive");
        (Self::key_hash(key) % n as u64) as usize
    }
}

impl HashPartitioner {
    /// The stable hash a key is partitioned by (`partition = hash mod n`),
    /// for callers that also want the hash itself.
    #[inline]
    pub fn key_hash<K: Codec>(key: &K) -> u64 {
        with_encoding(key, stable_hash64)
    }

    /// Partition pre-encoded key bytes; used where keys are already at rest.
    pub fn partition_bytes(key_bytes: &[u8], n: usize) -> usize {
        debug_assert!(n > 0, "partition count must be positive");
        (stable_hash64(key_bytes) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_common::codec::encode_to;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for key in 0u64..1000 {
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn typed_and_byte_partitions_agree() {
        let p = HashPartitioner;
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                p.partition(&key, 13),
                HashPartitioner::partition_bytes(&encode_to(&key), 13)
            );
        }
    }

    #[test]
    fn partitions_spread_reasonably() {
        let p = HashPartitioner;
        let n = 8;
        let mut counts = vec![0usize; n];
        for key in 0u64..8000 {
            counts[p.partition(&key, n)] += 1;
        }
        // Each bucket should be within 25% of the mean for a decent hash.
        for &c in &counts {
            assert!((750..=1250).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn string_keys_partition_stably() {
        let p = HashPartitioner;
        let k = "the-word".to_string();
        assert_eq!(p.partition(&k, 3), p.partition(&k, 3));
    }
}

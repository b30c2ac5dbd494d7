//! Job and cluster configuration.

use i2mr_common::error::{Error, Result};

/// Configuration shared by every engine in the workspace. Attempt budgets
/// and failure-detection delay belong to the executor, not the job: see
/// [`PoolConfig`](crate::pool::PoolConfig).
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Number of map tasks (and input splits). Paper §2: one per block;
    /// here chosen by the driver.
    pub n_map: usize,
    /// Number of reduce tasks / partitions. Iterative engines require
    /// `n_map == n_reduce` for the co-location scheme (paper §4.3).
    pub n_reduce: usize,
    /// Worker threads simulating cluster nodes.
    pub n_workers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            n_map: 4,
            n_reduce: 4,
            n_workers: 4,
        }
    }
}

impl JobConfig {
    /// Convenience constructor with equal map/reduce/worker counts.
    pub fn symmetric(n: usize) -> Self {
        JobConfig {
            n_map: n,
            n_reduce: n,
            n_workers: n,
        }
    }

    /// Validate invariants; call before running a job.
    pub fn validate(&self) -> Result<()> {
        if self.n_map == 0 || self.n_reduce == 0 || self.n_workers == 0 {
            return Err(Error::config("n_map, n_reduce, n_workers must be > 0"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        JobConfig::default().validate().unwrap();
    }

    #[test]
    fn symmetric_sets_all_three() {
        let c = JobConfig::symmetric(8);
        assert_eq!((c.n_map, c.n_reduce, c.n_workers), (8, 8, 8));
        c.validate().unwrap();
    }

    #[test]
    fn zero_fields_rejected() {
        let c = JobConfig {
            n_map: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}

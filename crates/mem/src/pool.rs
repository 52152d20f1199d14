//! The per-cluster memory pool chiplet (paper §3.5, §4.1).
//!
//! Each uManycore cluster includes a fast, read-mostly SRAM chiplet holding
//! *snapshots* of initialized service instances. Creating a new instance in
//! a village of that cluster reads the snapshot instead of re-running the
//! boot/initialization path, cutting instance creation from ~300 ms to
//! under 10 ms (paper, citing Catalyzer-style snapshot restore).

use std::collections::BTreeMap;
use um_sim::{Cycles, Frequency};

/// Why a snapshot could not be stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The snapshot alone exceeds the pool's total capacity.
    SnapshotTooLarge {
        /// Requested snapshot size.
        bytes: u64,
        /// Pool capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::SnapshotTooLarge { bytes, capacity } => write!(
                f,
                "snapshot of {bytes} bytes exceeds pool capacity of {capacity} bytes"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// A cluster's snapshot memory pool.
///
/// Stores per-service snapshots with LRU eviction when capacity is
/// exceeded, and models instance boot time with and without a snapshot.
///
/// # Examples
///
/// ```
/// use um_mem::pool::MemoryPool;
/// use um_sim::Frequency;
///
/// let mut pool = MemoryPool::new(256 * 1024 * 1024);
/// pool.store(7, 16 * 1024 * 1024).unwrap();
/// let f = Frequency::ghz(2.0);
/// let warm = pool.boot_latency(7, f);
/// let cold = pool.boot_latency(99, f); // no snapshot stored
/// assert!(warm < cold);
/// assert!(warm.as_millis(f) < 10.0); // paper: < 10 ms with snapshot
/// ```
#[derive(Clone, Debug)]
pub struct MemoryPool {
    capacity_bytes: u64,
    used_bytes: u64,
    /// service id -> (snapshot bytes, LRU stamp)
    snapshots: BTreeMap<u32, (u64, u64)>,
    clock: u64,
}

/// Cold instance boot time without a snapshot (paper: "over 300 ms").
pub const COLD_BOOT_MS: f64 = 300.0;
/// Fixed restore overhead when reading a snapshot (mapping, fixups).
pub const RESTORE_BASE_MS: f64 = 1.0;
/// Pool read bandwidth in bytes per millisecond (16 GB/s on-package SRAM).
pub const POOL_BYTES_PER_MS: f64 = 16.0 * 1024.0 * 1024.0;

impl MemoryPool {
    /// Creates an empty pool with `capacity_bytes` of SRAM.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "pool needs nonzero capacity");
        Self {
            capacity_bytes,
            used_bytes: 0,
            snapshots: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently holding snapshots.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Stores (or refreshes) the snapshot for `service`, evicting
    /// least-recently-used snapshots if needed.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::SnapshotTooLarge`] if the snapshot cannot fit
    /// even in an empty pool.
    pub fn store(&mut self, service: u32, bytes: u64) -> Result<(), PoolError> {
        if bytes > self.capacity_bytes {
            return Err(PoolError::SnapshotTooLarge {
                bytes,
                capacity: self.capacity_bytes,
            });
        }
        self.clock += 1;
        if let Some((old, _)) = self.snapshots.remove(&service) {
            self.used_bytes -= old;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = *self
                .snapshots
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
                .expect("over capacity implies nonempty");
            let (vbytes, _) = self.snapshots.remove(&victim).expect("victim exists");
            self.used_bytes -= vbytes;
        }
        self.snapshots.insert(service, (bytes, self.clock));
        self.used_bytes += bytes;
        #[cfg(feature = "sim-sanitizer")]
        self.check_accounting();
        Ok(())
    }

    /// Sanitizer hook: the resident snapshot sizes must sum to `used_bytes`
    /// and stay within capacity, or the LRU bookkeeping has drifted.
    #[cfg(feature = "sim-sanitizer")]
    fn check_accounting(&self) {
        let sum: u64 = self.snapshots.values().map(|(bytes, _)| *bytes).sum();
        if sum != self.used_bytes || self.used_bytes > self.capacity_bytes {
            um_sim::sanitizer::report(
                "pool-accounting",
                format!(
                    "snapshot bytes sum to {sum} but used_bytes is {} (capacity {})",
                    self.used_bytes, self.capacity_bytes
                ),
            );
        }
    }

    /// Whether a snapshot for `service` is resident.
    pub fn contains(&self, service: u32) -> bool {
        self.snapshots.contains_key(&service)
    }

    /// Number of resident snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Models the latency of booting a new instance of `service` at clock
    /// frequency `freq`: a snapshot restore when resident, a full cold boot
    /// otherwise. Updates the LRU order.
    pub fn boot_latency(&mut self, service: u32, freq: Frequency) -> Cycles {
        self.clock += 1;
        match self.snapshots.get_mut(&service) {
            Some((bytes, stamp)) => {
                *stamp = self.clock;
                let ms = RESTORE_BASE_MS + *bytes as f64 / POOL_BYTES_PER_MS;
                Cycles::from_micros(ms * 1_000.0, freq)
            }
            None => Cycles::from_micros(COLD_BOOT_MS * 1_000.0, freq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn store_and_boot_fast() {
        let mut p = MemoryPool::new(64 * MB);
        p.store(1, 16 * MB).unwrap();
        let f = Frequency::ghz(2.0);
        let warm = p.boot_latency(1, f);
        assert!(
            warm.as_millis(f) < 10.0,
            "warm boot {} ms",
            warm.as_millis(f)
        );
    }

    #[test]
    fn cold_boot_is_300ms() {
        let mut p = MemoryPool::new(64 * MB);
        let f = Frequency::ghz(2.0);
        let cold = p.boot_latency(9, f);
        assert!((cold.as_millis(f) - 300.0).abs() < 1.0);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut p = MemoryPool::new(32 * MB);
        p.store(1, 16 * MB).unwrap();
        p.store(2, 16 * MB).unwrap();
        // Touch 1 so that 2 becomes LRU.
        let f = Frequency::ghz(2.0);
        p.boot_latency(1, f);
        p.store(3, 16 * MB).unwrap();
        assert!(p.contains(1));
        assert!(!p.contains(2));
        assert!(p.contains(3));
        assert!(p.used_bytes() <= p.capacity_bytes());
    }

    #[test]
    fn restore_overwrites_same_service() {
        let mut p = MemoryPool::new(32 * MB);
        p.store(1, 8 * MB).unwrap();
        p.store(1, 16 * MB).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.used_bytes(), 16 * MB);
    }

    #[test]
    fn oversized_snapshot_rejected() {
        let mut p = MemoryPool::new(MB);
        let err = p.store(1, 2 * MB).unwrap_err();
        assert!(matches!(err, PoolError::SnapshotTooLarge { .. }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn bigger_snapshot_takes_longer_to_restore() {
        let mut p = MemoryPool::new(128 * MB);
        p.store(1, 4 * MB).unwrap();
        p.store(2, 64 * MB).unwrap();
        let f = Frequency::ghz(2.0);
        assert!(p.boot_latency(2, f) > p.boot_latency(1, f));
    }
}

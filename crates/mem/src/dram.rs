//! Main-memory (DRAM) latency model.
//!
//! The paper attaches DRAMSim2 to SST; we substitute a first-order
//! channel/bank queueing model: each access maps to a (channel, bank) by
//! address interleaving, pays a fixed device latency, and queues behind
//! earlier accesses to the same bank. This captures the two behaviours the
//! evaluation depends on — a ~tens-of-ns base latency and bandwidth
//! saturation under load — without cycle-accurate DDR state machines.

use um_sim::Cycles;

/// A DRAM main-memory model with per-bank queueing.
///
/// # Examples
///
/// ```
/// use um_mem::dram::DramModel;
/// use um_sim::Cycles;
///
/// let mut d = DramModel::ddr4_server();
/// let idle = d.access(0x0, Cycles::ZERO);
/// assert!(idle >= Cycles::new(100)); // device latency
/// ```
#[derive(Clone, Debug)]
pub struct DramModel {
    channels: usize,
    banks_per_channel: usize,
    /// Fixed device access latency (row activate + CAS + transfer).
    device_latency: Cycles,
    /// Minimum gap between two accesses to the same bank (cycle time).
    bank_occupancy: Cycles,
    /// Per-bank earliest next service time.
    bank_free_at: Vec<Cycles>,
    queued: u64,
}

impl DramModel {
    /// Table 2 main memory: 4 channels, 8 banks each, 1 GHz DDR. At the
    /// 2 GHz core clock this is ~120 cycles of device latency and ~40
    /// cycles of bank occupancy per access.
    pub fn ddr4_server() -> Self {
        Self::new(4, 8, Cycles::new(120), Cycles::new(40))
    }

    /// Creates a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `banks_per_channel` is zero.
    pub fn new(
        channels: usize,
        banks_per_channel: usize,
        device_latency: Cycles,
        bank_occupancy: Cycles,
    ) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(banks_per_channel > 0, "need at least one bank");
        Self {
            channels,
            banks_per_channel,
            device_latency,
            bank_occupancy,
            bank_free_at: vec![Cycles::ZERO; channels * banks_per_channel],
            queued: 0,
        }
    }

    /// Total number of banks.
    pub fn banks(&self) -> usize {
        self.channels * self.banks_per_channel
    }

    fn bank_of(&self, addr: u64) -> usize {
        // Interleave at 4 KB row granularity across channels then banks.
        let row = addr >> 12;
        (row % self.banks() as u64) as usize
    }

    /// Services an access arriving at `now`; returns its total latency
    /// (queueing + device).
    pub fn access(&mut self, addr: u64, now: Cycles) -> Cycles {
        let bank = self.bank_of(addr);
        let start = now.max(self.bank_free_at[bank]);
        if start > now {
            self.queued += 1;
        }
        self.bank_free_at[bank] = start + self.bank_occupancy;
        (start - now) + self.device_latency
    }

    /// Number of accesses that experienced bank queueing.
    pub fn queued_count(&self) -> u64 {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_pays_device_latency() {
        let mut d = DramModel::new(1, 1, Cycles::new(100), Cycles::new(10));
        assert_eq!(d.access(0, Cycles::ZERO), Cycles::new(100));
    }

    #[test]
    fn same_bank_back_to_back_queues() {
        let mut d = DramModel::new(1, 1, Cycles::new(100), Cycles::new(50));
        let first = d.access(0, Cycles::ZERO);
        let second = d.access(0, Cycles::ZERO);
        assert_eq!(first, Cycles::new(100));
        assert_eq!(second, Cycles::new(150)); // 50 queue + 100 device
        assert_eq!(d.queued_count(), 1);
    }

    #[test]
    fn different_banks_parallel() {
        let mut d = DramModel::new(2, 1, Cycles::new(100), Cycles::new(50));
        let a = d.access(0, Cycles::ZERO); // bank 0
        let b = d.access(0x1000, Cycles::ZERO); // bank 1 (next 4K row)
        assert_eq!(a, Cycles::new(100));
        assert_eq!(b, Cycles::new(100));
        assert_eq!(d.queued_count(), 0);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut d = DramModel::new(1, 1, Cycles::new(100), Cycles::new(50));
        d.access(0, Cycles::ZERO);
        // Arrive after the bank freed: no queueing.
        let late = d.access(0, Cycles::new(60));
        assert_eq!(late, Cycles::new(100));
    }

    #[test]
    fn sustained_same_bank_throughput_is_occupancy_bound() {
        let mut d = DramModel::new(1, 1, Cycles::new(100), Cycles::new(50));
        let mut total_queue = Cycles::ZERO;
        for i in 0..10 {
            let lat = d.access(0, Cycles::new(i)); // near-simultaneous burst
            total_queue += lat - Cycles::new(100);
        }
        // The 10th request waits ~9 x 50 cycles.
        assert!(total_queue > Cycles::new(1_000));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        DramModel::new(0, 1, Cycles::ZERO, Cycles::ZERO);
    }
}

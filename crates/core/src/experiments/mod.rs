//! Experiment drivers: one function per paper figure/table.
//!
//! Each driver returns plain data rows; `um-sweep`'s results table renders
//! them as tables, and the integration tests assert the paper's *shapes*
//! (who wins, by roughly what factor, where crossovers fall) on reduced
//! scales.

pub mod cluster;
pub mod evaluation;
pub mod motivation;
pub mod parallel;
pub mod resilience;

use crate::report::RunReport;
use crate::system::SimConfig;
use crate::workload::Workload;
use um_arch::MachineConfig;
use um_sim::rng;

/// Simulation scale shared across experiment drivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Arrival horizon per run, microseconds.
    pub horizon_us: f64,
    /// Warm-up cut-off, microseconds.
    pub warmup_us: f64,
    /// Servers per cluster.
    pub servers: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scale {
    /// The figure-quality scale the committed results use: 0.2 s of
    /// arrivals (thousands of requests per run).
    fn default() -> Self {
        Self {
            horizon_us: 200_000.0,
            warmup_us: 20_000.0,
            servers: 1,
            seed: 42,
        }
    }
}

impl Scale {
    /// A fast scale for unit/integration tests (tens of milliseconds).
    pub fn quick() -> Self {
        Self {
            horizon_us: 30_000.0,
            warmup_us: 3_000.0,
            servers: 1,
            seed: 42,
        }
    }

    /// This scale with sweep row `index`'s seed, derived from the master
    /// seed, so rows are statistically independent.
    pub fn row(self, index: usize) -> Self {
        Self {
            seed: rng::derive_seed(self.seed, index as u64),
            ..self
        }
    }

    /// A run of `workload` at `rps_per_server` on this scale's servers,
    /// horizon, warm-up and seed. The machine is the default; a
    /// [`sweep`] column replaces it.
    pub fn config(self, workload: Workload, rps_per_server: f64) -> SimConfig {
        SimConfig {
            workload,
            rps_per_server,
            servers: self.servers,
            horizon_us: self.horizon_us,
            warmup_us: self.warmup_us,
            seed: self.seed,
            ..SimConfig::default()
        }
    }
}

/// Every `rows` × `machines` config, row by row: each row's settings on
/// each column's machine.
fn grid(rows: &[SimConfig], machines: &[MachineConfig]) -> Vec<SimConfig> {
    rows.iter()
        .flat_map(|row| {
            machines.iter().map(move |machine| SimConfig {
                machine: machine.clone(),
                ..row.clone()
            })
        })
        .collect()
}

/// Runs every `rows` × `machines` pair through [`parallel::run_reports`]
/// and returns the reports grouped by row, in `machines` order.
///
/// Each row fixes the workload, load and seed; each column only swaps the
/// machine. The columns of one row therefore share its seed (common
/// random numbers), so ratios within a row are paired.
pub fn sweep(rows: &[SimConfig], machines: &[MachineConfig]) -> Vec<Vec<RunReport>> {
    let mut reports = parallel::run_reports(grid(rows, machines)).into_iter();
    rows.iter()
        .map(|_| reports.by_ref().take(machines.len()).collect())
        .collect()
}

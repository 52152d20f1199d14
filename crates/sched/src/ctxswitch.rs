//! Context-switch cost models (paper §3.3, §4.4, Figure 6).
//!
//! A service request blocks on I/O several times per invocation (median 4.2
//! RPCs in the Alibaba traces); each block forces a context switch. The
//! paper measures ~5 K cycles per switch under Linux, ~1–2 K under
//! state-of-the-art software schedulers, and targets 128–256 cycles with
//! the uManycore hardware mechanism.

use um_sim::Cycles;

/// Which mechanism performs context switches, with its per-switch cost.
///
/// The cycle costs are the markers on Figure 6's x-axis.
///
/// # Examples
///
/// ```
/// use um_sched::CtxSwitchModel;
///
/// assert!(CtxSwitchModel::Hardware.cost() < CtxSwitchModel::Shenango.cost());
/// assert!(CtxSwitchModel::Linux.cost().raw() >= 4096);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtxSwitchModel {
    /// uManycore's hardware save/restore (§4.4): the paper targets
    /// 128–256 cycles; we use 192.
    Hardware,
    /// Shenango-class software scheduling (dedicated scheduling core).
    Shenango,
    /// Shinjuku-class software scheduling (centralized preemptive).
    Shinjuku,
    /// ZygOS-class software scheduling (work stealing over sockets).
    ZygOs,
    /// Stock Linux kernel scheduling.
    Linux,
    /// An arbitrary cost, for Figure 6's sweep.
    Custom(u64),
}

impl CtxSwitchModel {
    /// Per-switch cost in cycles.
    pub fn cost(self) -> Cycles {
        Cycles::new(match self {
            CtxSwitchModel::Hardware => 192,
            CtxSwitchModel::Shenango => 1024,
            CtxSwitchModel::Shinjuku => 1536,
            CtxSwitchModel::ZygOs => 2048,
            CtxSwitchModel::Linux => 5000,
            CtxSwitchModel::Custom(c) => c,
        })
    }

    /// The save (or restore) half of a switch: a block pays the save half
    /// on the outgoing side and the restore half when the request is
    /// re-dispatched. Rounds down; the halves are attribution quantities
    /// (the request-path restore vs the core-path save), not timing — the
    /// full [`CtxSwitchModel::cost`] still governs total switch time.
    pub fn half_cost(self) -> Cycles {
        Cycles::new(self.cost().raw() / 2)
    }

    /// Whether switches are mediated by a centralized software dispatcher
    /// (and therefore contend for it).
    pub fn is_software(self) -> bool {
        !matches!(self, CtxSwitchModel::Hardware)
    }

    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CtxSwitchModel::Hardware => "hardware",
            CtxSwitchModel::Shenango => "shenango",
            CtxSwitchModel::Shinjuku => "shinjuku",
            CtxSwitchModel::ZygOs => "zygos",
            CtxSwitchModel::Linux => "linux",
            CtxSwitchModel::Custom(_) => "custom",
        }
    }
}

impl std::fmt::Display for CtxSwitchModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtxSwitchModel::Custom(c) => write!(f, "custom({c})"),
            other => f.write_str(other.name()),
        }
    }
}

/// A centralized software scheduling dispatcher (§4.4).
///
/// Shinjuku-style schedulers run on a dedicated core: every context switch
/// funnels through it, so under load switches queue behind one another.
/// This is the "centralized software easily becomes a bottleneck" effect
/// the paper measures. Hardware context switching has no dispatcher; model
/// that by simply not routing switches through one.
///
/// # Examples
///
/// ```
/// use um_sched::Dispatcher;
/// use um_sim::Cycles;
///
/// let mut d = Dispatcher::new(Cycles::new(100));
/// let a = d.dispatch(Cycles::ZERO);
/// let b = d.dispatch(Cycles::ZERO); // queues behind a
/// assert_eq!(a, Cycles::new(100));
/// assert_eq!(b, Cycles::new(200));
/// ```
#[derive(Clone, Debug)]
pub struct Dispatcher {
    op_cost: Cycles,
    busy_until: Cycles,
}

impl Dispatcher {
    /// Creates a dispatcher whose each operation occupies it for `op_cost`.
    pub fn new(op_cost: Cycles) -> Self {
        Self {
            op_cost,
            busy_until: Cycles::ZERO,
        }
    }

    /// Dispatcher occupancy derived from a context-switch model on a
    /// machine with `cores` cores: the dedicated scheduling core is
    /// occupied for the whole switch — it detects the block, saves or
    /// restores the context and scans the run queues (§4.4's five steps) —
    /// and its per-operation cost grows with the square root of the core
    /// count (queue scanning and cross-core cache traffic). This is why
    /// "this centralized software easily becomes a bottleneck" on the
    /// 1024-core ScaleOut (§4.4).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn for_model(model: CtxSwitchModel, cores: usize) -> Option<Self> {
        assert!(cores > 0, "need at least one core");
        model.is_software().then(|| {
            let scale = (cores as f64 / 64.0).sqrt().clamp(1.0, 2.0);
            Self::new(Cycles::new((model.cost().raw() as f64 * scale) as u64))
        })
    }

    /// Requests a dispatch at `now`; returns when the dispatcher completes
    /// this operation (start-of-switch time for the caller).
    pub fn dispatch(&mut self, now: Cycles) -> Cycles {
        self.busy_until = now.max(self.busy_until) + self.op_cost;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_matches_paper() {
        // HW << Shenango < Shinjuku < ZygOS < Linux.
        let costs: Vec<u64> = [
            CtxSwitchModel::Hardware,
            CtxSwitchModel::Shenango,
            CtxSwitchModel::Shinjuku,
            CtxSwitchModel::ZygOs,
            CtxSwitchModel::Linux,
        ]
        .iter()
        .map(|m| m.cost().raw())
        .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
        assert!((128..=256).contains(&costs[0]), "hardware target range");
        assert!((1000..=2500).contains(&costs[2]), "software ~2K");
        assert!((4000..=8000).contains(&costs[4]), "linux ~5K");
    }

    #[test]
    fn custom_cost() {
        assert_eq!(CtxSwitchModel::Custom(777).cost(), Cycles::new(777));
        assert_eq!(CtxSwitchModel::Custom(777).to_string(), "custom(777)");
    }

    #[test]
    fn half_cost_splits_the_switch() {
        assert_eq!(CtxSwitchModel::Hardware.half_cost(), Cycles::new(96));
        assert_eq!(CtxSwitchModel::Custom(777).half_cost(), Cycles::new(388));
        for m in [
            CtxSwitchModel::Hardware,
            CtxSwitchModel::Shenango,
            CtxSwitchModel::Linux,
        ] {
            assert!(m.half_cost() * 2 <= m.cost());
        }
    }

    #[test]
    fn hardware_has_no_dispatcher() {
        assert!(Dispatcher::for_model(CtxSwitchModel::Hardware, 1024).is_none());
        assert!(Dispatcher::for_model(CtxSwitchModel::Shinjuku, 1024).is_some());
    }

    #[test]
    fn dispatcher_cost_scales_with_cores_up_to_clamp() {
        let mut small = Dispatcher::for_model(CtxSwitchModel::Shinjuku, 40).expect("software");
        let mut big = Dispatcher::for_model(CtxSwitchModel::Shinjuku, 1024).expect("software");
        let s = small.dispatch(Cycles::ZERO);
        let b = big.dispatch(Cycles::ZERO);
        assert!(
            b > s,
            "1024-core dispatch {b} should cost more than 40-core {s}"
        );
        assert!(b <= s * 2, "scaling is clamped at 2x: {b} vs {s}");
    }

    #[test]
    fn dispatcher_serializes() {
        let mut d = Dispatcher::new(Cycles::new(10));
        let mut last = Cycles::ZERO;
        for i in 0..5 {
            let done = d.dispatch(Cycles::ZERO);
            assert_eq!(done, Cycles::new(10 * (i + 1)));
            assert!(done > last);
            last = done;
        }
    }

    #[test]
    fn idle_dispatcher_does_not_queue() {
        let mut d = Dispatcher::new(Cycles::new(10));
        d.dispatch(Cycles::ZERO);
        let done = d.dispatch(Cycles::new(1_000));
        assert_eq!(done, Cycles::new(1_010));
    }

    #[test]
    fn display_names() {
        assert_eq!(CtxSwitchModel::Hardware.to_string(), "hardware");
        assert_eq!(CtxSwitchModel::Linux.to_string(), "linux");
    }
}

//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a *schedule-time* description of everything that will
//! go wrong during a run: cores that fail-stop at a given cycle, cores that
//! fail-slow (a service-time multiplier over a window), fabric links that
//! degrade or black out, and a per-hop message-drop probability. Plans are
//! data, not behaviour — the system simulator queries the plan while it
//! runs and applies the faults itself, so a plan adds no hidden RNG draws
//! and a healthy plan leaves a run bit-identical to one with no plan at
//! all.
//!
//! Determinism contract: a plan is a pure function of its construction
//! inputs. The only sanctioned constructors are [`FaultPlan::none`] and the
//! seeded [`FaultPlanBuilder`] (whose randomized scenario helpers draw from
//! a private stream derived from the builder seed), so a plan built at
//! sweep point `i` from `derive_seed(master, i)` is identical no matter
//! how many worker threads evaluate the sweep. The plan's fields are
//! private, so no other constructor can exist outside this module.
//!
//! # Examples
//!
//! ```
//! use um_sim::fault::{FaultPlan, FaultWindow};
//! use um_sim::Cycles;
//!
//! let plan = FaultPlan::builder(42)
//!     .core_fail_slow(0, 3, 1, FaultWindow::new(Cycles::ZERO, Cycles::new(1_000_000), 4.0))
//!     .message_drops(0.01)
//!     .build();
//! assert_eq!(plan.len(), 2);
//! assert!(plan.fail_slow(0, 3, Cycles::new(500)).is_some());
//! assert!(plan.fail_slow(0, 2, Cycles::new(500)).is_none());
//! ```

use crate::rng;
use crate::time::Cycles;
use rand::rngs::SmallRng;
use rand::Rng;

/// A cycle interval `[from, until)` during which a fault is active, plus
/// the severity of the fault while it lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// First cycle at which the fault is active.
    pub from: Cycles,
    /// First cycle at which the fault is no longer active (exclusive).
    pub until: Cycles,
    /// Service-/serialization-time multiplier while active. Must be at
    /// least 1; [`f64::INFINITY`] means a full outage (work stalls until
    /// the window closes).
    pub slowdown: f64,
}

impl FaultWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `until < from`, or if `slowdown` is NaN or below 1.
    pub fn new(from: Cycles, until: Cycles, slowdown: f64) -> Self {
        assert!(until >= from, "fault window ends before it starts");
        assert!(slowdown >= 1.0, "slowdown must be >= 1 (got {slowdown})");
        Self {
            from,
            until,
            slowdown,
        }
    }

    /// Whether the window covers cycle `at`.
    pub fn contains(&self, at: Cycles) -> bool {
        self.from <= at && at < self.until
    }

    /// Whether this window is a full outage rather than a degradation.
    pub fn is_outage(&self) -> bool {
        self.slowdown.is_infinite()
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A core in `(server, village)` permanently stops at cycle `at`.
    CoreFailStop {
        /// Server index within the fleet.
        server: usize,
        /// Village index within the server.
        village: usize,
        /// Cycle at which the core dies.
        at: Cycles,
    },
    /// `cores` cores in `(server, village)` run `window.slowdown`× slower
    /// while the window is active (a straggler, not a corpse).
    CoreFailSlow {
        /// Server index within the fleet.
        server: usize,
        /// Village index within the server.
        village: usize,
        /// How many of the village's cores are degraded.
        cores: u32,
        /// When, and how badly.
        window: FaultWindow,
    },
    /// An on-package interconnect link on `server` serializes
    /// `window.slowdown`× slower (or not at all, for an outage window).
    LinkFault {
        /// Server index within the fleet.
        server: usize,
        /// Link index; applied modulo the machine's link count.
        link: usize,
        /// When, and how badly.
        window: FaultWindow,
    },
    /// Every RPC message leg is independently lost with `probability`.
    MessageDrops {
        /// Per-leg drop probability in `[0, 1)`.
        probability: f64,
    },
}

/// A deterministic schedule of faults for one run.
///
/// Construct with [`FaultPlan::none`] or [`FaultPlan::builder`]; the
/// fields are private precisely so that every plan flows through a seeded
/// constructor.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The healthy plan: no faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Starts building a plan whose randomized helpers draw from a stream
    /// derived from `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            rng: rng::stream(seed, "fault-plan"),
            events: Vec::new(),
        }
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Combined per-leg message-drop probability: independent loss across
    /// all [`FaultEvent::MessageDrops`] entries.
    pub fn drop_probability(&self) -> f64 {
        let survive: f64 = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::MessageDrops { probability } => Some(1.0 - probability),
                _ => None,
            })
            .product();
        1.0 - survive
    }

    /// Fail-slow state of `(server, village)` at cycle `at`: the number of
    /// degraded cores (summed over active windows) and the worst active
    /// slowdown, or `None` when the village is healthy at `at`.
    pub fn fail_slow(&self, server: usize, village: usize, at: Cycles) -> Option<(u32, f64)> {
        let mut cores = 0u32;
        let mut slowdown = 1.0f64;
        for e in &self.events {
            if let FaultEvent::CoreFailSlow {
                server: s,
                village: v,
                cores: c,
                window,
            } = e
            {
                if *s == server && *v == village && window.contains(at) {
                    cores += c;
                    slowdown = slowdown.max(window.slowdown);
                }
            }
        }
        (cores > 0).then_some((cores, slowdown))
    }

    /// Whether `(server, village)` has any fail-slow window active at `at`
    /// (used by straggler-aware steering).
    pub fn is_degraded(&self, server: usize, village: usize, at: Cycles) -> bool {
        self.fail_slow(server, village, at).is_some()
    }

    /// Whether any village of `server` has a fail-slow window active at
    /// `at` — the cluster load balancer's node-level straggler signal
    /// (node index = the plan's server index).
    pub fn is_degraded_server(&self, server: usize, at: Cycles) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::CoreFailSlow {
                server: s, window, ..
            } if *s == server && window.contains(at))
        })
    }

    /// Projects the plan onto one fleet member: events aimed at `server`
    /// are remapped to server 0 (the index a single-package node sees),
    /// global [`FaultEvent::MessageDrops`] entries are kept, and
    /// everything else is dropped. The cluster layer hands each node
    /// `for_server(node)` so a rack-level plan splits deterministically
    /// into per-package plans; the derived seed keeps distinct nodes'
    /// plans distinct as plan values.
    pub fn for_server(&self, server: usize) -> FaultPlan {
        let events = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CoreFailStop {
                    server: s,
                    village,
                    at,
                } if s == server => Some(FaultEvent::CoreFailStop {
                    server: 0,
                    village,
                    at,
                }),
                FaultEvent::CoreFailSlow {
                    server: s,
                    village,
                    cores,
                    window,
                } if s == server => Some(FaultEvent::CoreFailSlow {
                    server: 0,
                    village,
                    cores,
                    window,
                }),
                FaultEvent::LinkFault {
                    server: s,
                    link,
                    window,
                } if s == server => Some(FaultEvent::LinkFault {
                    server: 0,
                    link,
                    window,
                }),
                FaultEvent::MessageDrops { probability } => {
                    Some(FaultEvent::MessageDrops { probability })
                }
                _ => None,
            })
            .collect();
        FaultPlan {
            seed: rng::derive_seed(self.seed, server as u64),
            events,
        }
    }

    /// Fail-stop events on `server`, as `(village, at)` pairs in insertion
    /// order.
    pub fn fail_stops(&self, server: usize) -> impl Iterator<Item = (usize, Cycles)> + '_ {
        self.events.iter().filter_map(move |e| match e {
            FaultEvent::CoreFailStop {
                server: s,
                village,
                at,
            } if *s == server => Some((*village, *at)),
            _ => None,
        })
    }

    /// Link faults on `server`, as `(link, window)` pairs in insertion
    /// order. Link indices are raw; apply them modulo the machine's link
    /// count.
    pub fn link_faults(&self, server: usize) -> impl Iterator<Item = (usize, FaultWindow)> + '_ {
        self.events.iter().filter_map(move |e| match e {
            FaultEvent::LinkFault {
                server: s,
                link,
                window,
            } if *s == server => Some((*link, *window)),
            _ => None,
        })
    }
}

/// Builds a [`FaultPlan`]; see [`FaultPlan::builder`].
///
/// Deterministic methods append exactly the event described; `random_*`
/// scenario helpers draw parameters from the builder's private seeded
/// stream, so the same seed and call sequence always yield the same plan.
#[derive(Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    rng: SmallRng,
    events: Vec<FaultEvent>,
}

impl FaultPlanBuilder {
    /// Schedules a fail-stop of one core in `(server, village)` at `at`.
    pub fn core_fail_stop(mut self, server: usize, village: usize, at: Cycles) -> Self {
        self.events.push(FaultEvent::CoreFailStop {
            server,
            village,
            at,
        });
        self
    }

    /// Schedules `cores` fail-slow cores in `(server, village)` over
    /// `window`.
    pub fn core_fail_slow(
        mut self,
        server: usize,
        village: usize,
        cores: u32,
        window: FaultWindow,
    ) -> Self {
        self.events.push(FaultEvent::CoreFailSlow {
            server,
            village,
            cores,
            window,
        });
        self
    }

    /// Schedules a link degradation/outage on `server`.
    pub fn link_fault(mut self, server: usize, link: usize, window: FaultWindow) -> Self {
        self.events.push(FaultEvent::LinkFault {
            server,
            link,
            window,
        });
        self
    }

    /// Sets an independent per-leg message-drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `probability` is in `[0, 1)`.
    pub fn message_drops(mut self, probability: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "drop probability must be in [0, 1), got {probability}"
        );
        self.events.push(FaultEvent::MessageDrops { probability });
        self
    }

    /// The canonical straggler scenario: `cores` fail-slow cores in every
    /// village of `servers` servers × `villages` villages, over `window`.
    pub fn fail_slow_every_village(
        mut self,
        servers: usize,
        villages: usize,
        cores: u32,
        window: FaultWindow,
    ) -> Self {
        for server in 0..servers {
            for village in 0..villages {
                self.events.push(FaultEvent::CoreFailSlow {
                    server,
                    village,
                    cores,
                    window,
                });
            }
        }
        self
    }

    /// Schedules `count` fail-stops at seeded-random `(server, village)`
    /// positions and seeded-random times in `[0, horizon)`.
    pub fn random_fail_stops(
        mut self,
        count: usize,
        servers: usize,
        villages: usize,
        horizon: Cycles,
    ) -> Self {
        for _ in 0..count {
            let server = self.rng.gen_range(0..servers.max(1));
            let village = self.rng.gen_range(0..villages.max(1));
            let at = Cycles::new(self.rng.gen_range(0..horizon.raw().max(1)));
            self.events.push(FaultEvent::CoreFailStop {
                server,
                village,
                at,
            });
        }
        self
    }

    /// Schedules `count` link faults at seeded-random links and times;
    /// each window starts uniformly in `[0, horizon)`, lasts an
    /// exponential duration of mean `mean_duration`, and degrades by
    /// `slowdown` (pass [`f64::INFINITY`] for outages).
    pub fn random_link_faults(
        mut self,
        count: usize,
        servers: usize,
        links: usize,
        horizon: Cycles,
        mean_duration: Cycles,
        slowdown: f64,
    ) -> Self {
        for _ in 0..count {
            let server = self.rng.gen_range(0..servers.max(1));
            let link = self.rng.gen_range(0..links.max(1));
            let from = Cycles::new(self.rng.gen_range(0..horizon.raw().max(1)));
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let duration = mean_duration.scale(-u.ln());
            self.events.push(FaultEvent::LinkFault {
                server,
                link,
                window: FaultWindow::new(from, from + duration, slowdown),
            });
        }
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            events: self.events,
        }
    }

    /// Applies one [`FaultRecipe`] (the serializable description of a
    /// builder call) to this builder.
    pub fn apply(self, recipe: FaultRecipe) -> Self {
        match recipe {
            FaultRecipe::MessageDrops { probability } => self.message_drops(probability),
            FaultRecipe::CoreFailStop {
                server,
                village,
                at_cycles,
            } => self.core_fail_stop(server, village, Cycles::new(at_cycles)),
            FaultRecipe::CoreFailSlow {
                server,
                village,
                cores,
                from_cycles,
                until_cycles,
                slowdown,
            } => self.core_fail_slow(
                server,
                village,
                cores,
                FaultWindow::new(
                    Cycles::new(from_cycles),
                    Cycles::new(until_cycles),
                    slowdown,
                ),
            ),
            FaultRecipe::LinkFault {
                server,
                link,
                from_cycles,
                until_cycles,
                slowdown,
            } => self.link_fault(
                server,
                link,
                FaultWindow::new(
                    Cycles::new(from_cycles),
                    Cycles::new(until_cycles),
                    slowdown,
                ),
            ),
            FaultRecipe::FailSlowEveryVillage {
                servers,
                villages,
                cores,
                from_cycles,
                until_cycles,
                slowdown,
            } => self.fail_slow_every_village(
                servers,
                villages,
                cores,
                FaultWindow::new(
                    Cycles::new(from_cycles),
                    Cycles::new(until_cycles),
                    slowdown,
                ),
            ),
            FaultRecipe::RandomFailStops {
                count,
                servers,
                villages,
                horizon_cycles,
            } => self.random_fail_stops(count, servers, villages, Cycles::new(horizon_cycles)),
            FaultRecipe::RandomLinkFaults {
                count,
                servers,
                links,
                horizon_cycles,
                mean_duration_cycles,
                slowdown,
            } => self.random_link_faults(
                count,
                servers,
                links,
                Cycles::new(horizon_cycles),
                Cycles::new(mean_duration_cycles),
                slowdown,
            ),
        }
    }
}

/// A serializable description of one [`FaultPlanBuilder`] call.
///
/// Plans themselves stay behind the seeded-builder discipline (private
/// fields, no raw-event constructor outside tests); a recipe list plus a
/// seed is the *serialization format* for a plan. Replaying the recipes
/// through [`FaultPlan::from_recipes`] reconstructs the plan exactly —
/// including the randomized helpers, whose draws come from the builder's
/// private seed-derived stream — so scenario files can round-trip fault
/// plans without ever touching raw events.
///
/// All times are raw cycle counts (the builder's own unit), so a recipe
/// is a pure value with no frequency dependence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultRecipe {
    /// [`FaultPlanBuilder::message_drops`].
    MessageDrops {
        /// Per-leg drop probability in `[0, 1)`.
        probability: f64,
    },
    /// [`FaultPlanBuilder::core_fail_stop`].
    CoreFailStop {
        /// Server index within the fleet.
        server: usize,
        /// Village index within the server.
        village: usize,
        /// Cycle at which the core dies.
        at_cycles: u64,
    },
    /// [`FaultPlanBuilder::core_fail_slow`].
    CoreFailSlow {
        /// Server index within the fleet.
        server: usize,
        /// Village index within the server.
        village: usize,
        /// Degraded cores in the village.
        cores: u32,
        /// Window start, cycles.
        from_cycles: u64,
        /// Window end (exclusive), cycles.
        until_cycles: u64,
        /// Service-time multiplier while active.
        slowdown: f64,
    },
    /// [`FaultPlanBuilder::link_fault`].
    LinkFault {
        /// Server index within the fleet.
        server: usize,
        /// Link index; applied modulo the machine's link count.
        link: usize,
        /// Window start, cycles.
        from_cycles: u64,
        /// Window end (exclusive), cycles.
        until_cycles: u64,
        /// Serialization-time multiplier while active.
        slowdown: f64,
    },
    /// [`FaultPlanBuilder::fail_slow_every_village`].
    FailSlowEveryVillage {
        /// Servers covered.
        servers: usize,
        /// Villages per server covered.
        villages: usize,
        /// Degraded cores per village.
        cores: u32,
        /// Window start, cycles.
        from_cycles: u64,
        /// Window end (exclusive), cycles.
        until_cycles: u64,
        /// Service-time multiplier while active.
        slowdown: f64,
    },
    /// [`FaultPlanBuilder::random_fail_stops`].
    RandomFailStops {
        /// Fail-stops scheduled.
        count: usize,
        /// Server index space.
        servers: usize,
        /// Village index space.
        villages: usize,
        /// Fail times drawn uniformly in `[0, horizon)`, cycles.
        horizon_cycles: u64,
    },
    /// [`FaultPlanBuilder::random_link_faults`].
    RandomLinkFaults {
        /// Link faults scheduled.
        count: usize,
        /// Server index space.
        servers: usize,
        /// Link index space.
        links: usize,
        /// Start times drawn uniformly in `[0, horizon)`, cycles.
        horizon_cycles: u64,
        /// Mean of the exponential window duration, cycles.
        mean_duration_cycles: u64,
        /// Degradation factor ([`f64::INFINITY`] for outages).
        slowdown: f64,
    },
}

impl FaultPlan {
    /// Reconstructs a plan by replaying `recipes` through the seeded
    /// builder — the deserialization half of the recipe format. An empty
    /// recipe list yields an empty plan carrying `seed`.
    ///
    /// # Panics
    ///
    /// Panics where the replayed builder calls would: out-of-range drop
    /// probabilities, inverted windows, sub-1 slowdowns.
    pub fn from_recipes(seed: u64, recipes: &[FaultRecipe]) -> FaultPlan {
        recipes
            .iter()
            .fold(FaultPlan::builder(seed), |b, &r| b.apply(r))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(from: u64, until: u64, slowdown: f64) -> FaultWindow {
        FaultWindow::new(Cycles::new(from), Cycles::new(until), slowdown)
    }

    #[test]
    fn none_is_empty_and_default() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan, FaultPlan::default());
        assert_eq!(plan.drop_probability(), 0.0);
        assert!(plan.fail_slow(0, 0, Cycles::ZERO).is_none());
        assert_eq!(plan.fail_stops(0).count(), 0);
        assert_eq!(plan.link_faults(0).count(), 0);
    }

    #[test]
    fn window_containment_is_half_open() {
        let w = window(10, 20, 2.0);
        assert!(!w.contains(Cycles::new(9)));
        assert!(w.contains(Cycles::new(10)));
        assert!(w.contains(Cycles::new(19)));
        assert!(!w.contains(Cycles::new(20)));
        assert!(!w.is_outage());
        assert!(window(0, 1, f64::INFINITY).is_outage());
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn window_rejects_speedups() {
        let _ = window(0, 10, 0.5);
    }

    #[test]
    fn builder_records_events_in_order() {
        let plan = FaultPlan::builder(7)
            .core_fail_stop(0, 1, Cycles::new(100))
            .core_fail_slow(0, 2, 1, window(0, 1_000, 4.0))
            .link_fault(0, 3, window(50, 60, f64::INFINITY))
            .message_drops(0.02)
            .build();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.events()[0],
            FaultEvent::CoreFailStop {
                server: 0,
                village: 1,
                at: Cycles::new(100)
            }
        );
    }

    #[test]
    fn fail_slow_sums_cores_and_takes_worst_slowdown() {
        let plan = FaultPlan::builder(1)
            .core_fail_slow(0, 0, 1, window(0, 100, 2.0))
            .core_fail_slow(0, 0, 2, window(50, 200, 8.0))
            .build();
        assert_eq!(plan.fail_slow(0, 0, Cycles::new(10)), Some((1, 2.0)));
        assert_eq!(plan.fail_slow(0, 0, Cycles::new(60)), Some((3, 8.0)));
        assert_eq!(plan.fail_slow(0, 0, Cycles::new(150)), Some((2, 8.0)));
        assert!(plan.fail_slow(0, 0, Cycles::new(300)).is_none());
        assert!(plan.fail_slow(1, 0, Cycles::new(60)).is_none());
        assert!(plan.is_degraded(0, 0, Cycles::new(60)));
        assert!(!plan.is_degraded(0, 1, Cycles::new(60)));
    }

    #[test]
    fn drop_probability_composes_independently() {
        let plan = FaultPlan::builder(1)
            .message_drops(0.5)
            .message_drops(0.5)
            .build();
        assert!((plan.drop_probability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn per_server_queries_filter() {
        let plan = FaultPlan::builder(1)
            .core_fail_stop(0, 1, Cycles::new(5))
            .core_fail_stop(2, 3, Cycles::new(9))
            .link_fault(2, 0, window(0, 10, 2.0))
            .build();
        assert_eq!(
            plan.fail_stops(0).collect::<Vec<_>>(),
            vec![(1, Cycles::new(5))]
        );
        assert_eq!(
            plan.fail_stops(2).collect::<Vec<_>>(),
            vec![(3, Cycles::new(9))]
        );
        assert_eq!(plan.link_faults(2).count(), 1);
        assert_eq!(plan.link_faults(0).count(), 0);
    }

    #[test]
    fn server_projection_remaps_and_keeps_global_events() {
        let plan = FaultPlan::builder(9)
            .core_fail_stop(1, 2, Cycles::new(5))
            .core_fail_slow(0, 1, 1, window(0, 100, 4.0))
            .link_fault(1, 7, window(10, 20, 2.0))
            .message_drops(0.01)
            .build();
        let node1 = plan.for_server(1);
        assert_eq!(node1.len(), 3, "fail-stop + link + global drops");
        assert_eq!(
            node1.fail_stops(0).collect::<Vec<_>>(),
            vec![(2, Cycles::new(5))]
        );
        assert_eq!(node1.link_faults(0).count(), 1);
        assert_eq!(node1.drop_probability(), plan.drop_probability());
        let node0 = plan.for_server(0);
        assert!(node0.is_degraded(0, 1, Cycles::new(50)));
        assert_ne!(node0.seed(), node1.seed(), "derived seeds stay distinct");
        assert!(plan.is_degraded_server(0, Cycles::new(50)));
        assert!(!plan.is_degraded_server(1, Cycles::new(50)));
        assert!(!plan.is_degraded_server(0, Cycles::new(200)));
    }

    #[test]
    fn random_helpers_are_seed_deterministic_and_injective() {
        let build = |seed| {
            FaultPlan::builder(seed)
                .random_fail_stops(4, 2, 8, Cycles::new(1_000_000))
                .random_link_faults(4, 2, 16, Cycles::new(1_000_000), Cycles::new(10_000), 4.0)
                .build()
        };
        assert_eq!(build(11), build(11));
        assert_ne!(build(11).events(), build(12).events());
    }

    #[test]
    fn fail_slow_every_village_covers_the_grid() {
        let plan = FaultPlan::builder(1)
            .fail_slow_every_village(2, 3, 1, window(0, 100, 4.0))
            .build();
        assert_eq!(plan.len(), 6);
        for server in 0..2 {
            for village in 0..3 {
                assert!(plan.is_degraded(server, village, Cycles::new(1)));
            }
        }
    }

    #[test]
    fn recipes_replay_every_builder_call_exactly() {
        let direct = FaultPlan::builder(7)
            .message_drops(0.02)
            .core_fail_stop(0, 3, Cycles::new(500))
            .core_fail_slow(1, 2, 2, window(10, 90, 4.0))
            .link_fault(0, 5, window(20, 40, f64::INFINITY))
            .fail_slow_every_village(2, 3, 1, window(0, 100, 2.0))
            .random_fail_stops(3, 2, 8, Cycles::new(1_000_000))
            .random_link_faults(2, 2, 16, Cycles::new(1_000_000), Cycles::new(10_000), 4.0)
            .build();
        let recipes = [
            FaultRecipe::MessageDrops { probability: 0.02 },
            FaultRecipe::CoreFailStop {
                server: 0,
                village: 3,
                at_cycles: 500,
            },
            FaultRecipe::CoreFailSlow {
                server: 1,
                village: 2,
                cores: 2,
                from_cycles: 10,
                until_cycles: 90,
                slowdown: 4.0,
            },
            FaultRecipe::LinkFault {
                server: 0,
                link: 5,
                from_cycles: 20,
                until_cycles: 40,
                slowdown: f64::INFINITY,
            },
            FaultRecipe::FailSlowEveryVillage {
                servers: 2,
                villages: 3,
                cores: 1,
                from_cycles: 0,
                until_cycles: 100,
                slowdown: 2.0,
            },
            FaultRecipe::RandomFailStops {
                count: 3,
                servers: 2,
                villages: 8,
                horizon_cycles: 1_000_000,
            },
            FaultRecipe::RandomLinkFaults {
                count: 2,
                servers: 2,
                links: 16,
                horizon_cycles: 1_000_000,
                mean_duration_cycles: 10_000,
                slowdown: 4.0,
            },
        ];
        assert_eq!(FaultPlan::from_recipes(7, &recipes), direct);
        // The randomized helpers draw from the builder's private stream,
        // so a different seed reconstructs a different plan.
        assert_ne!(FaultPlan::from_recipes(8, &recipes), direct);
    }

    #[test]
    fn empty_recipe_list_is_an_empty_plan_with_the_seed() {
        let plan = FaultPlan::from_recipes(9, &[]);
        assert!(plan.is_empty());
        assert_eq!(plan.seed(), 9);
    }
}

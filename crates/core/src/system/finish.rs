//! Finishing: a request's completion — its RQ entry, its response to the
//! client or the waiting parent, and the conservation check — and the end
//! of a run, which turns the counters into a [`RunReport`].

use super::*;
use crate::report::{BreakdownReport, RunReport};

impl SystemSim {
    pub(super) fn complete_request(&mut self, req: ReqId, now: Cycles) {
        let r = &mut self.requests[req];
        r.phase = Phase::Done;
        let (server, village) = (r.server, r.village);
        self.completed += 1;

        // The Complete instruction / software completion bookkeeping.
        let free_at = now + self.cfg.machine.sched_op_cost;
        if let Some(slot) = r.rq_slot.take() {
            self.servers[server].villages[village]
                .queue
                .complete(slot, &mut self.requests);
        }

        // Deliver the response, close the final span, and check the
        // conservation invariant against the request's whole lifetime.
        match self.requests[req].origin {
            Origin::Client { sent_at } => self.respond_to_client(req, sent_at, now),
            Origin::Parent { req: parent, gen } => self.respond_to_parent(req, parent, gen, now),
        }
        self.events
            .schedule_at(free_at, Event::CoreFree { server, village });
        self.release_if_idle(req);
    }

    /// A root request's response leaves the package: its latency is
    /// recorded, or, for an injected request, its completion goes to the
    /// cluster layer's outbox.
    fn respond_to_client(&mut self, req: ReqId, sent_at: Cycles, now: Cycles) {
        let egress = self.servers[self.requests[req].server].icn.hop_latency();
        let token = self.requests[req].cluster_token;
        // An injected request's client is the load balancer: the
        // rack-fabric legs (and any client RTT beyond the rack) are charged
        // by the cluster layer, not here.
        let rtt_us = token.map_or(params::CLIENT_RTT_US, |_| 0.0);
        let rtt = self.wall_cycles(rtt_us);
        let r = &mut self.requests[req];
        debug_assert_eq!(r.spawned_at, sent_at);
        r.breakdown.charge(Component::IcnTransit, egress);
        r.breakdown.charge(Component::ExternalNet, rtt);
        let (bd, gave_up) = (r.breakdown, r.gave_up);
        self.breakdown.check(&bd, (now + egress - sent_at) + rtt);
        let latency_us = (now + egress - sent_at).as_micros(self.freq()) + rtt_us;
        if let Some(token) = token {
            self.completions.push(NodeCompletion {
                token,
                finished_at: now + egress,
                breakdown: bd,
                gave_up,
            });
        }
        if gave_up {
            // An abandoned request's "latency" is an error response, not a
            // service time: count it, don't sample it.
            self.faults.gave_up_requests += 1;
        } else if sent_at >= self.warmup {
            let freq = self.freq();
            self.breakdown.record(&bd, freq);
            self.latency.record(latency_us);
            self.recorded += 1;
        }
    }

    /// A child request's response travels back to the parent's core; if
    /// it wins the parent's open operation, its breakdown folds into the
    /// parent's, which then unblocks.
    fn respond_to_parent(&mut self, req: ReqId, parent: ReqId, gen: u32, now: Cycles) {
        let (server, village) = (self.requests[req].server, self.requests[req].village);
        let parent_village = self.requests[parent].village;
        let dst_cluster = self.core_cluster(server, parent_village);
        let src_cluster = self.core_cluster(server, village);
        let arrive =
            self.servers[server]
                .icn
                .send(src_cluster, dst_cluster, params::RESPONSE_BYTES, now);
        let r = &mut self.requests[req];
        r.breakdown.charge(Component::IcnTransit, arrive - now);
        let (bd, spawned_at, child_gave_up) = (r.breakdown, r.spawned_at, r.gave_up);
        self.breakdown.check(&bd, arrive - spawned_at);
        if !self.requests[parent].op_open(gen) {
            // A losing attempt's child: conservation-checked above, but its
            // operation already resolved (or was abandoned) — never merged
            // into the parent.
            self.faults.wasted_attempts += 1;
        } else if self.drop_p > 0.0 && self.fault_rng.gen::<f64>() < self.drop_p {
            // The response leg is lost; the parent recovers through its
            // timeout.
            self.faults.drops += 1;
        } else {
            // The winning attempt: the child's components cover
            // [spawned_at, arrive]; the issue delay back to the operation
            // start (zero for an unhedged primary) is resilience. Fold both
            // into the parent, whose blocked interval they exactly tile.
            let p = &mut self.requests[parent];
            p.breakdown.merge(&bd);
            let resilience = spawned_at - p.op_started_at;
            p.breakdown.charge(Component::Resilience, resilience);
            p.gave_up |= child_gave_up;
            p.op_resolved = true;
            self.events
                .schedule_at(arrive, Event::Unblock { req: parent });
        }
        self.unpin(parent);
    }

    /// Finalizes a step-driven run: sanitizer end-of-run checks plus the
    /// report. [`SystemSim::run`] calls this after draining the queue.
    pub fn finish(self) -> RunReport {
        #[cfg(feature = "sim-sanitizer")]
        self.check_drained();
        let total_core_cycles = (self.cfg.machine.total_cores() as u128)
            * (self.horizon.raw() as u128)
            * (self.cfg.servers as u128);
        let busy: u128 = self.servers.iter().map(|s| s.busy_cycles).sum();
        let icn_stats: Vec<um_net::NetworkStats> =
            self.servers.iter().map(|s| s.icn.stats()).collect();
        let icn_messages: u64 = icn_stats.iter().map(|s| s.messages).sum();
        let icn_queue: u64 = icn_stats.iter().map(|s| s.queue_cycles).sum();
        let conservation = self.breakdown.stats();
        let breakdown = self
            .cfg
            .trace
            .then(|| BreakdownReport::from_samples(&self.breakdown.samples));
        RunReport {
            latency: self.latency.summary(),
            queue_wait_us: if self.dispatches == 0 {
                0.0
            } else {
                self.queue_wait.as_micros(self.freq()) / self.dispatches as f64
            },
            latency_samples: self.latency,
            completed: self.completed,
            recorded: self.recorded,
            stranded: self.admitted - self.completed,
            utilization: (busy as f64 / total_core_cycles as f64).min(1.0),
            ctx_switches: self.ctx_switches,
            steals: self.steals,
            rq_overflows: self.rq_overflows,
            instance_boots: self.instance_boots,
            icn_messages,
            icn_mean_queue_cycles: if icn_messages == 0 {
                0.0
            } else {
                icn_queue as f64 / icn_messages as f64
            },
            conservation,
            faults: self.faults,
            breakdown,
        }
    }

    /// The sanitizer's end-of-run checks on a drained run.
    #[cfg(feature = "sim-sanitizer")]
    fn check_drained(&self) {
        // Request conservation: with the event queue drained, every admitted
        // request must have reached Done and been counted exactly once.
        for (id, r) in self.requests.iter().enumerate() {
            if r.phase != Phase::Done {
                um_sim::sanitizer::report(
                    "request-conservation",
                    format!(
                        "request {id} ended the run in phase {:?}, not Done",
                        r.phase
                    ),
                );
            }
        }
        if self.completed != self.admitted {
            um_sim::sanitizer::report(
                "request-conservation",
                format!(
                    "{} completions recorded for {} admitted requests",
                    self.completed, self.admitted
                ),
            );
        } else {
            // Request slots: a drained run holds nothing, so every slot is
            // back on the free list exactly once (a slot still held is a
            // leaked pin).
            let mut freed = vec![false; self.requests.len()];
            for &id in self.requests.free_list() {
                if std::mem::replace(&mut freed[id], true) {
                    um_sim::sanitizer::report(
                        "request-slots",
                        format!("slot {id} sits on the free list twice"),
                    );
                }
            }
            for id in (0..freed.len()).filter(|&id| !freed[id]) {
                um_sim::sanitizer::report(
                    "request-slots",
                    format!(
                        "slot {id} still held at the end of a drained run ({} pins)",
                        self.requests[id].pins
                    ),
                );
            }
        }
        // Fault accounting: every plan event must have either taken effect
        // or been explicitly masked — never silently vanished.
        let planned = self.cfg.fault_plan.len() as u64;
        if self.faults.faults_applied + self.faults.faults_masked != planned {
            um_sim::sanitizer::report(
                "fault-accounting",
                format!(
                    "{} applied + {} masked != {planned} planned fault events",
                    self.faults.faults_applied, self.faults.faults_masked
                ),
            );
        }
        um_sim::sanitizer::assert_clean(&format!(
            "SystemSim run (seed {}, {} requests)",
            self.cfg.seed, self.admitted
        ));
    }

    /// Unbalances the fault-accounting totals so the `fault-accounting`
    /// sanitizer checker trips at the end of the run. Deliberate-violation
    /// tests only.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn corrupt_fault_accounting_for_sanitizer_test(&mut self) {
        self.faults.faults_applied += 1;
    }

    /// Pins request slot 0 once more than anything will unpin it, so the
    /// `request-slots` checker reports a leaked slot at the end of the
    /// run. Call after the first [`SystemSim::step`] has admitted a
    /// request. Deliberate-violation tests only.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn leak_request_pin_for_sanitizer_test(&mut self) {
        self.pin(0);
    }
}

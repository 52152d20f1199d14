//! Blocking RPC operations: storage reads over the external fabric and
//! synchronous calls to other services, each issued as one or more
//! attempts under the mitigation policies (hedges, timeouts and retries);
//! the first winning delivery resolves the operation.

use super::*;
use um_workload::RpcKind;

/// A storage attempt's response legs: the shares of the blocked interval
/// an attempt that wins its operation charges at delivery.
#[derive(Clone, Copy, Debug)]
pub(super) struct StorageLegs {
    /// On-package egress+ingress share.
    icn: Cycles,
    /// External-fabric share.
    ext: Cycles,
    /// Storage service-time share.
    storage: Cycles,
    /// Issue delay relative to the operation start (0 for a primary
    /// attempt), charged to `Component::Resilience`.
    resilience: Cycles,
}

impl SystemSim {
    /// Starts a blocking RPC operation: issues the primary attempt and
    /// arms the mitigation machinery (hedge point, retry/liveness
    /// timeout) around it. With mitigation off and no drops this reduces
    /// to exactly one attempt and no extra events.
    pub(super) fn begin_rpc_op(&mut self, req: ReqId, kind: RpcKind, now: Cycles) {
        let gen = {
            let r = &mut self.requests[req];
            r.op_gen += 1;
            r.op_resolved = false;
            r.op_attempts = 0;
            r.op_started_at = now;
            r.op_rpc = Some(kind);
            r.op_gen
        };
        self.faults.rpc_ops += 1;
        if self.cfg.mitigation.retry.is_some() {
            // Adaptive budget: every operation earns a fraction of one
            // retry, capping the retry rate cluster-wide.
            self.retry_budget.earn();
        }
        self.issue_attempt(req, now);
        if let Some(h) = self.cfg.mitigation.hedge {
            let at = now + self.wall_cycles(h.delay_us);
            self.schedule_pinned(at, req, Event::HedgeFire { req, gen });
        }
        // Without a retry policy a liveness timeout still turns an
        // operation whose legs were lost into a give-up instead of a hang.
        let timeout_us = match self.cfg.mitigation.retry {
            Some(rc) => Some(rc.timeout_for_attempt_us(1)),
            None => (self.drop_p > 0.0).then_some(params::DEFAULT_RPC_TIMEOUT_US),
        };
        if let Some(us) = timeout_us {
            let at = now + self.wall_cycles(us);
            self.schedule_pinned(at, req, Event::RpcTimeout { req, gen });
        }
    }

    /// Issues one attempt of the request's current operation (the primary,
    /// a hedge, or a retry).
    fn issue_attempt(&mut self, req: ReqId, now: Cycles) {
        let kind = self.requests[req].op_rpc.expect("operation in progress");
        let backup = self.requests[req].op_attempts > 0;
        self.requests[req].op_attempts += 1;
        self.faults.rpc_attempts += 1;
        match kind {
            RpcKind::Storage { bytes } => self.issue_storage_attempt(req, bytes, now),
            RpcKind::Call { service } => self.issue_call_attempt(req, service, backup, now),
        }
    }

    /// Storage RPC attempt: on-package egress, external fabric to the
    /// storage tier, exponential storage service, and the journey back.
    /// The leg decomposition rides in the `StorageDone` event and is
    /// charged only if this attempt wins its operation.
    fn issue_storage_attempt(&mut self, req: ReqId, bytes: u64, now: Cycles) {
        let server = self.requests[req].server;
        let storage = self.cfg.servers; // the storage tier's index
        let egress = self.servers[server].icn.hop_latency() * 2;
        let at_storage = self.external.send(server, storage, bytes, now + egress);
        // In-memory key-value stores serve GETs with low variance: a
        // lognormal with scv 0.25 around the mean (a long exponential tail
        // here would put an identical latency floor under every machine
        // and mask the architectural differences the paper isolates).
        let service_us =
            um_workload::ServiceTimeDist::lognormal_with_mean(params::STORAGE_MEAN_US, 0.25)
                .sample(&mut self.rng);
        let done = at_storage + self.wall_cycles(service_us);
        let back = self
            .external
            .send(storage, server, params::RESPONSE_BYTES, done);
        let ingress = self.servers[server].icn.hop_latency() * 2;
        // Injected message drops: the legs still occupy the fabric (the
        // message is lost at the receiver), the response just never
        // arrives; the operation recovers through its timeout.
        if self.drop_p > 0.0 {
            let lost_request = self.fault_rng.gen::<f64>() < self.drop_p;
            let lost_response = self.fault_rng.gen::<f64>() < self.drop_p;
            let lost = u64::from(lost_request) + u64::from(lost_response);
            if lost > 0 {
                self.faults.drops += lost;
                return;
            }
        }
        // The attempt's span [now, back + ingress] decomposes exactly
        // into the on-package legs, the external-fabric legs and the
        // storage service time; the issue delay back to the operation
        // start is resilience overhead.
        let r = &self.requests[req];
        let legs = StorageLegs {
            icn: egress + ingress,
            ext: (at_storage - (now + egress)) + (back - done),
            storage: done - at_storage,
            resilience: now - r.op_started_at,
        };
        let gen = r.op_gen;
        self.schedule_pinned(back + ingress, req, Event::StorageDone { req, gen, legs });
    }

    /// Synchronous downstream call attempt: spawn a child request on this
    /// server; the parent unblocks when the first winning response
    /// returns. `backup` attempts (hedges, retries) prefer a village other
    /// than the primary's.
    fn issue_call_attempt(&mut self, req: ReqId, service: ServiceId, backup: bool, now: Cycles) {
        let server = self.requests[req].server;
        // Injected drops can lose the request leg: the child is never
        // spawned and the parent recovers through its timeout.
        if self.drop_p > 0.0 && self.fault_rng.gen::<f64>() < self.drop_p {
            self.faults.drops += 1;
            return;
        }
        let village = self.requests[req].village;
        let src_cluster = self.core_cluster(server, village);
        let child_village = if backup {
            let avoid = self.requests[req].op_village;
            self.pick_hedge_village(server, service, avoid, now)
        } else {
            let v = self.pick_village(server, service, now);
            self.requests[req].op_village = v;
            v
        };
        let dst_cluster = self.core_cluster(server, child_village);
        let gen = self.requests[req].op_gen;
        let child = self.admit(service, Origin::Parent { req, gen }, server, child_village);
        // The child's completion reads this request: pin it until then.
        self.pin(req);
        let arrive =
            self.servers[server]
                .icn
                .send(src_cluster, dst_cluster, params::REQUEST_BYTES, now);
        // The child's lifetime starts at the parent's call issue; the
        // parent's blocked interval is exactly this lifetime, so the
        // downstream wait lands in the *child's* components and folds into
        // the parent when the response is delivered — never double-counted
        // as caller queue wait.
        {
            let r = &mut self.requests[child];
            r.spawned_at = now;
            r.breakdown.charge(Component::IcnTransit, arrive - now);
            r.breakdown
                .charge(Component::SchedOp, self.cfg.machine.sched_op_cost);
        }
        let at = arrive + self.cfg.machine.sched_op_cost;
        self.events.schedule_at(at, Event::Enqueue { req: child });
    }

    /// A storage attempt's response arrives: if its operation is still
    /// open, charge the winning legs and unblock; otherwise it lost.
    pub(super) fn on_storage_done(&mut self, req: ReqId, gen: u32, legs: StorageLegs, now: Cycles) {
        let r = &mut self.requests[req];
        if !r.op_open(gen) {
            // A losing attempt: its operation already resolved (or was
            // abandoned and the request moved on).
            self.faults.wasted_attempts += 1;
            return;
        }
        let bd = &mut r.breakdown;
        bd.charge(Component::IcnTransit, legs.icn);
        bd.charge(Component::ExternalNet, legs.ext);
        bd.charge(Component::StorageService, legs.storage);
        bd.charge(Component::Resilience, legs.resilience);
        r.op_resolved = true;
        self.on_unblock(req, now);
    }

    /// The hedging policy's backup-issue point: if the operation is still
    /// open past the hedge delay, issue a backup attempt.
    pub(super) fn on_hedge_fire(&mut self, req: ReqId, gen: u32, now: Cycles) {
        if !self.requests[req].op_open(gen) {
            return; // resolved before the hedge point
        }
        self.faults.hedges += 1;
        self.issue_attempt(req, now);
    }

    /// An attempt timeout: retry (with exponential backoff, against the
    /// retry budget) or abandon the operation.
    pub(super) fn on_rpc_timeout(&mut self, req: ReqId, gen: u32, now: Cycles) {
        if !self.requests[req].op_open(gen) {
            return; // resolved in time
        }
        if let Some(rc) = self.cfg.mitigation.retry {
            if self.requests[req].op_attempts < rc.max_attempts && self.retry_budget.try_spend() {
                self.faults.retries += 1;
                self.issue_attempt(req, now);
                let attempt = self.requests[req].op_attempts;
                let at = now + self.wall_cycles(rc.timeout_for_attempt_us(attempt));
                self.schedule_pinned(at, req, Event::RpcTimeout { req, gen });
                return;
            }
        }
        // Out of attempts (or no retry policy at all): the operation is
        // abandoned. No attempt's legs were ever charged, so the whole
        // blocked span is resilience overhead; the request winds down
        // through a synthetic final segment and is excluded from the
        // latency samples.
        self.faults.gave_up_ops += 1;
        let r = &mut self.requests[req];
        r.gave_up = true;
        r.op_resolved = true;
        let span = now - r.op_started_at;
        r.breakdown.charge(Component::Resilience, span);
        self.on_unblock(req, now);
    }
}

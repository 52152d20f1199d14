//! Running a segment: what a core pays to start a request's next compute
//! segment — the dispatch charges, the software RPC tax (§4.3),
//! interference, fail-slow cores, coherence (§4.1) and memory traffic on
//! the ICN (§4.2) — and what it pays when the segment ends in a blocking
//! RPC (the context save, §4.4).

use super::*;
use um_workload::Segment;

impl SystemSim {
    /// Begins the request's next segment on a core of its village at
    /// `now`: charges dequeue, context-restore, RPC-processing, coherence
    /// and steal costs, then schedules the segment's completion. A request
    /// resumed `in_place` (run-to-completion mode) kept its core: no
    /// dequeue, no restore, no migration.
    pub(super) fn start_segment(&mut self, req: ReqId, now: Cycles, stolen: bool, in_place: bool) {
        let r = &self.requests[req];
        let (server, village) = (r.server, r.village);
        // An abandoned request does not execute the rest of its plan: it
        // runs a synthetic zero-compute segment (the error-response path)
        // and completes.
        let seg = if r.gave_up {
            Segment {
                compute_us: 0.0,
                rpc: None,
            }
        } else {
            r.plan.segments[r.next_segment]
        };
        let first = r.next_segment == 0;
        let resumed = r.has_run && !in_place;
        // A request may be claimed by a core whose dispatch attempt began
        // before the request's (lock-serialized) insertion completed; it
        // cannot start before it is actually in the queue.
        let now = now.max(r.enqueued_at);
        let t = if in_place {
            now
        } else {
            self.dispatch(req, now, resumed)
        };

        let [rpc_tax_us, sched_tax_us, tax_us] =
            self.core_tax_us(first, resumed, seg.rpc.is_some(), stolen);
        let handler = self.handler_cycles(req, seg.compute_us, now);
        let tax = self.wall_cycles(tax_us);
        let compute = handler + tax;
        {
            let rpc = self.wall_cycles(rpc_tax_us);
            let sched = self.wall_cycles(sched_tax_us);
            let bd = &mut self.requests[req].breakdown;
            bd.charge(Component::Compute, handler);
            bd.charge(Component::RpcProcessing, rpc);
            bd.charge(Component::SchedOp, sched - rpc);
            bd.charge(Component::Interference, tax - sched);
        }
        let coherent = self.coherence_stall(req, resumed, compute);
        let mem_stall = self.memory_stall(server, village, compute, t);

        let end = t + compute + coherent + mem_stall;
        {
            let r = &mut self.requests[req];
            r.breakdown.charge(Component::CoherenceStall, coherent);
            r.breakdown.charge(Component::MemStall, mem_stall);
            r.phase = Phase::Running;
            r.has_run = true;
        }
        self.servers[server].busy_cycles += (end - now).raw() as u128;
        self.events.schedule_at(end, Event::SegmentDone { req });
    }

    /// Takes `req` off its queue at `now`: charges its queue residence
    /// (from the lock-serialized insert), the Dequeue operation (behind
    /// the queue lock on software machines, the Dequeue instruction against
    /// the RQ on hardware ones) and, for a resumed request, the context
    /// restore — the other half of the switch whose save ran at block
    /// time. Returns when the core can start the segment.
    fn dispatch(&mut self, req: ReqId, now: Cycles, resumed: bool) -> Cycles {
        let r = &mut self.requests[req];
        let waited = now - r.enqueued_at;
        self.queue_wait += waited;
        self.dispatches += 1;
        let lock_done =
            self.servers[r.server].villages[r.village].queue_op(now, self.costs.queue_lock);
        let op = self.cfg.machine.sched_op_cost;
        let bd = &mut r.breakdown;
        bd.charge(Component::QueueWait, waited);
        bd.charge(Component::QueueWait, lock_done - now);
        bd.charge(Component::SchedOp, op);
        let mut t = lock_done + op;
        if resumed {
            bd.charge(Component::CtxSwitch, self.costs.ctx_half);
            t += self.costs.ctx_half;
            self.ctx_switches += 1;
        }
        t
    }

    /// The wall-clock microseconds a segment occupies its core beyond its
    /// handler, as running prefix sums `[rpc, rpc + steal, rpc + steal +
    /// interference]`. The RPC-layer work is on-core processing around the
    /// segment (§4.3): frequency-insensitive NIC/kernel latency that
    /// nevertheless occupies the core. Converting each prefix with the same
    /// rounding as the total and differencing telescopes exactly, so the
    /// component charges sum to the one `wall_cycles(total)` the timing
    /// uses (each prefix is a monotone f64 accumulation, so the differences
    /// cannot underflow).
    fn core_tax_us(&mut self, first: bool, resumed: bool, calls: bool, stolen: bool) -> [f64; 3] {
        let mut tax_us = 0.0;
        if first {
            tax_us += self.costs.rpc_proc_us; // incoming request processing
        }
        if resumed {
            tax_us += self.costs.rpc_msg_us; // response receipt processing
        }
        if calls {
            tax_us += self.costs.rpc_msg_us; // call issue processing
        }
        let rpc_tax_us = tax_us;
        if stolen {
            tax_us += params::STEAL_COST_US;
        }
        let sched_tax_us = tax_us;
        tax_us += self.interference_us();
        [rpc_tax_us, sched_tax_us, tax_us]
    }

    /// Tail-at-scale software interference [16]: a rare core-occupying
    /// hiccup (kernel preemption, interrupts, daemons), in wall-clock µs;
    /// zero when the segment escapes it.
    fn interference_us(&mut self) -> f64 {
        let p = self.costs.hiccup_p;
        if p > 0.0 && self.rng.gen::<f64>() < p {
            um_workload::dist::sample_exponential(&mut self.rng, params::SW_HICCUP_MEAN_US)
        } else {
            0.0
        }
    }

    /// The segment's handler compute on a core of the request's village.
    /// While the village carries fail-slow cores, a dispatch lands on one
    /// with probability slow/cores and the handler stretches by the
    /// slowdown; the draw comes from the fault stream, so a healthy run's
    /// draws are untouched.
    fn handler_cycles(&mut self, req: ReqId, compute_us: f64, now: Cycles) -> Cycles {
        let (server, village) = (self.requests[req].server, self.requests[req].village);
        let v = &self.servers[server].villages[village];
        let handler = v.core.compute_cycles(compute_us);
        let Some((slow, slowdown)) = self.cfg.fault_plan.fail_slow(server, village, now) else {
            return handler;
        };
        let p = f64::from(slow).min(v.cores as f64) / v.cores.max(1) as f64;
        if self.fault_rng.gen::<f64>() < p {
            handler.scale(slowdown)
        } else {
            handler
        }
    }

    /// Coherence overhead of `compute` cycles: a resumed request may land
    /// on a different core of its domain and refetch its warm state (§4.1).
    fn coherence_stall(&mut self, req: ReqId, resumed: bool, compute: Cycles) -> Cycles {
        let r = &self.requests[req];
        let cores = self.servers[r.server].villages[r.village].cores;
        let migrated =
            resumed && cores > 1 && self.rng.gen::<f64>() < (cores - 1) as f64 / cores as f64;
        if migrated {
            self.coherence.overhead_migrated(compute)
        } else {
            self.coherence.overhead(compute)
        }
    }

    /// Memory-system traffic on the ICN for a segment occupying its core
    /// `compute` cycles from `t`: the working-set refetch, write-backs and
    /// directory messages. Global coherence spreads it across the package
    /// (random LLC/directory/controller cluster); village coherence with
    /// the cluster memory pool keeps it local. Returns the stall link
    /// queueing adds to the segment (stalled misses).
    fn memory_stall(
        &mut self,
        server: usize,
        village: usize,
        compute: Cycles,
        t: Cycles,
    ) -> Cycles {
        let occupied_us = compute.as_micros(self.freq());
        let mem_bytes = (occupied_us * self.costs.mem_bytes_per_us) as u64;
        if mem_bytes == 0 {
            return Cycles::ZERO;
        }
        let src = self.core_cluster(server, village);
        // Without the per-cluster memory pool, even village-coherent
        // machines fetch read-mostly state from wherever it lives in the
        // package; the pool (§4.1) is what localizes the traffic.
        let dst = if self.costs.local_pool {
            src
        } else {
            self.rng.gen_range(0..self.cfg.machine.shape.clusters)
        };
        // Pipelined chunks: redundant leaf-spine paths can carry them in
        // parallel, a tree serializes them through its one route.
        let chunk = (mem_bytes / params::MEM_TRAFFIC_CHUNKS).max(1);
        let icn = &mut self.servers[server].icn;
        let queued = icn.send_burst(src, dst, chunk, t, params::MEM_TRAFFIC_CHUNKS);
        // The request stalls for the mean chunk's queueing, not the sum
        // (chunks overlap with compute).
        Cycles::new(queued.raw() / params::MEM_TRAFFIC_CHUNKS)
    }

    pub(super) fn on_segment_done(&mut self, req: ReqId, now: Cycles) {
        if self.requests[req].gave_up {
            // The synthetic wind-down segment of an abandoned request just
            // finished: skip the rest of the plan and send the (error)
            // response.
            self.complete_request(req, now);
            return;
        }
        let r = &mut self.requests[req];
        let seg = r.plan.segments[r.next_segment];
        r.next_segment += 1;
        match seg.rpc {
            Some(kind) => {
                self.begin_rpc_op(req, kind, now);
                self.block_request(req, now);
            }
            None => {
                debug_assert!(self.requests[req].is_complete());
                self.complete_request(req, now);
            }
        }
    }

    /// Context-save path: the core holds the request's state save, then
    /// frees; the request is marked blocked (its RQ entry persists). In
    /// run-to-completion mode the core simply stays with the request.
    fn block_request(&mut self, req: ReqId, now: Cycles) {
        let r = &mut self.requests[req];
        r.phase = Phase::Blocked;
        if self.cfg.hold_core_while_blocked {
            return;
        }
        let (server, village) = (r.server, r.village);
        self.ctx_switches += 1;
        let srv = &mut self.servers[server];
        srv.villages[village].queue.block(r.rq_slot);
        let mut free_at = now;
        if let Some(d) = &mut srv.dispatcher {
            free_at = d.dispatch(free_at);
        }
        free_at += self.costs.ctx_half;
        srv.busy_cycles += (free_at - now).raw() as u128;
        self.events
            .schedule_at(free_at, Event::CoreFree { server, village });
    }
}

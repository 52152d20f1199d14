//! Spans for the traced run: recorded in memory around the calls into
//! each crate, written out at the end as Chrome `traceEvents` (open the
//! file in Perfetto or `chrome://tracing`).

use std::time::{Duration, Instant};

use um_bench::benchjson::{obj, Json};

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `sim.setup`.
    pub name: String,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// An in-memory span recorder. Spans opened with [`Tracer::begin`] nest
/// under the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.since_origin(Instant::now()),
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration.
    pub fn end(&mut self, id: usize) -> Duration {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let now = self.since_origin(Instant::now());
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        Duration::from_nanos(span.dur_ns)
    }

    /// Times `f` as span `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Records a span measured elsewhere (another thread) with an explicit
    /// parent; returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.since_origin(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            dur_ns: self.since_origin(end).saturating_sub(start_ns),
            parent,
        });
        self.spans.len() - 1
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The Chrome `traceEvents` document: one complete (`"X"`) event per
    /// span with its id, parent and self time in `args`. Top-level spans
    /// that overlap (concurrent jobs) get separate lanes; children share
    /// their root's lane, so nesting shows as stacking.
    pub fn chrome_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        roots.sort_by_key(|&i| self.spans[i].start_ns);
        let mut lane_of = vec![0usize; self.spans.len()];
        let mut lane_ends: Vec<u64> = Vec::new();
        for &r in &roots {
            let span = &self.spans[r];
            let lane = match lane_ends.iter().position(|&end| end <= span.start_ns) {
                Some(l) => l,
                None => {
                    lane_ends.push(0);
                    lane_ends.len() - 1
                }
            };
            lane_ends[lane] = span.end_ns();
            lane_of[r] = lane;
        }
        // Parents always precede their children, so one forward pass
        // propagates the root lane down.
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                lane_of[i] = lane_of[p];
            }
        }
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    (
                        "cat",
                        Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(lane_of[i] as f64 + 1.0)),
                    (
                        "args",
                        obj(vec![
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(selfs[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
        .render()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns().min(parent.end_ns());
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            dur_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 30, Some(0)),      // 10..40
            span("b", 30, 20, Some(0)),      // 30..50, overlaps a by 10
            span("a.inner", 15, 5, Some(1)), // inside a
            span("late", 90, 30, Some(0)),   // clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 25, 20, 5, 30]);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut t = Tracer::default();
        let root = t.begin("run");
        let ((), first) = t.time("sim.setup", || ());
        let ((), _) = t.time("sim.setup", || ());
        let total = t.end(root);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(first, Duration::from_nanos(t.spans[1].dur_ns));
        assert!(total >= first);
        let doc = Json::parse(&t.chrome_json()).expect("chrome trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn overlapping_roots_get_their_own_lanes() {
        let mut t = Tracer::default();
        let base = t.origin;
        let at = |us: u64| base + Duration::from_micros(us);
        let a = t.record("job", at(0), at(10), None);
        t.record("job.submit", at(0), at(2), Some(a));
        t.record("job", at(5), at(15), None);
        t.record("job", at(12), at(20), None);
        let doc = Json::parse(&t.chrome_json()).expect("chrome trace is JSON");
        let tids: Vec<f64> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events")
            .iter()
            .map(|e| e.get("tid").and_then(Json::as_num).expect("tid"))
            .collect();
        assert_eq!(tids, vec![1.0, 1.0, 2.0, 1.0]);
    }
}

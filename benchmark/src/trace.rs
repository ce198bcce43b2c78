//! The benchmark's own span recorder. Spans sit around calls into each
//! layer's public functions (nothing inside the program is
//! instrumented), are kept in memory, and are written once at exit as
//! Chrome `trace_event` JSON with each span's self time = duration minus
//! the part its children cover.

use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Lane: 0 = the benchmark's main thread, 1.. = serve clients.
    pub tid: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn lane(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Fold a finished lane into this recorder; its root spans become
    /// children of this recorder's innermost open span.
    pub fn absorb(&mut self, lane: Tracer) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        self.spans.extend(lane.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tid: self.tid,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end_ns = self.now_ns();
            self.open.retain(|&o| o != id);
        }
    }

    /// Time one call inside a span; returns its wall seconds (measured
    /// whether or not tracing is on, so probes share one code path).
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        self.end(id);
        (r, dt)
    }

    /// Self time of every span: duration minus the union of its
    /// same-lane children. Children on other lanes (serve clients under
    /// the mix span) run concurrently and are not subtracted.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    covered[p] += s.end_ns - s.start_ns;
                }
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Chrome `trace_event` JSON (complete events, microseconds).
    pub fn chrome_json(&self, workload: &str) -> String {
        let selfs = self.self_ns();
        let events: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"id\": {id}, \"parent\": {parent}, \"workload\": \"{workload}\", \"self_us\": {:.3}}}}}",
                    s.name,
                    s.tid,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    *self_ns as f64 / 1e3,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_lane_children_only() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        let mut lane = tr.lane(1);
        let c = lane.begin("client");
        std::thread::sleep(std::time::Duration::from_millis(2));
        lane.end(c);
        tr.absorb(lane);
        tr.end(outer);
        let selfs = tr.self_ns();
        let dur = |i: usize| tr.spans[i].end_ns - tr.spans[i].start_ns;
        assert_eq!(selfs[0], dur(0) - dur(1));
        assert_eq!(selfs[1], dur(1));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!(selfs[2], dur(2));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, dt) = tr.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert_eq!(tr.len(), 0);
    }
}

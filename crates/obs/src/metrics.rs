//! A registry of named counters, gauges, and fixed-bucket histograms.
//!
//! Registration (name → integer handle) happens at setup time and may
//! allocate; the update paths ([`MetricsRegistry::inc`],
//! [`MetricsRegistry::set_gauge`], [`MetricsRegistry::observe`]) are
//! handle-indexed array stores — no string hashing, no float formatting,
//! no allocation. Histograms use fixed power-of-two buckets (bucket *k*
//! holds values with bit length *k*), so observation is a `leading_zeros`
//! and an increment.

use crate::json::JOut;

/// Number of histogram buckets: bucket `k` counts values `v` with
/// `bit_length(v) == k` (bucket 0 counts `v == 0`), covering all of
/// `u64`.
pub const NBUCKETS: usize = 65;

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        let k = (64 - v.leading_zeros()) as usize;
        self.buckets[k] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket counts (`NBUCKETS` entries).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Named metrics for one run. See the module docs for the hot-path
/// contract; [`MetricsRegistry::to_json`] renders the flat JSON object
/// merged into the `BENCH_*.json` artifacts.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or find) the counter `name`. Setup path: may allocate.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(k) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(k);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Add `by` to a counter. Hot path: a plain indexed add.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Register (or find) the gauge `name`. Setup path: may allocate.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(k) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(k);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Set a gauge. Hot path: a plain indexed store.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].1
    }

    /// Register (or find) the histogram `name`. Setup path: may allocate.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(k) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(k);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Record one sample into a histogram. Hot path: `leading_zeros` +
    /// increments.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.histograms[id.0].1.observe(v);
    }

    /// Read back a histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].1
    }

    /// Fold another registry into this one by metric name: counters and
    /// histogram buckets add, gauges keep the larger magnitude (a merge
    /// across ranks wants the worst case).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.inc(id, *v);
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            if v.abs() > self.gauges[id.0].1.abs() {
                self.set_gauge(id, *v);
            }
        }
        for (name, h) in &other.histograms {
            let id = self.histogram(name);
            let mine = &mut self.histograms[id.0].1;
            for (b, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                *b += o;
            }
            mine.count += h.count;
            mine.sum += h.sum;
            mine.max = mine.max.max(h.max);
        }
    }

    /// Render the registry as one flat JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}` —
    /// the shape the `BENCH_*.json` artifacts embed. Histogram buckets
    /// are emitted sparsely as `"bitlen_K": count`. Export path only.
    pub fn to_json(&self) -> String {
        let mut counters = JOut::spaced();
        for (name, v) in &self.counters {
            counters = counters.u64(name, *v);
        }
        let mut gauges = JOut::spaced();
        for (name, v) in &self.gauges {
            gauges = gauges.f64(name, *v);
        }
        let mut histograms = JOut::spaced();
        for (name, h) in &self.histograms {
            let mut buckets = JOut::spaced();
            for (bit, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                buckets = buckets.u64(&format!("bitlen_{bit}"), *n);
            }
            let hist = JOut::spaced()
                .u64("count", h.count)
                .u64("sum", h.sum)
                .u64("max", h.max)
                .raw("buckets", &buckets.finish());
            histograms = histograms.raw(name, &hist.finish());
        }
        JOut::spaced()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("sends");
        let b = m.counter("sends");
        assert_eq!(a, b);
        m.inc(a, 3);
        m.inc(b, 2);
        assert_eq!(m.counter_value(a), 5);
        let g = m.gauge("residual");
        m.set_gauge(g, 0.25);
        assert_eq!(m.gauge_value(g), 0.25);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("bytes");
        m.observe(h, 0); // bucket 0
        m.observe(h, 1); // bucket 1
        m.observe(h, 7); // bucket 3
        m.observe(h, 8); // bucket 4
        m.observe(h, u64::MAX); // bucket 64
        let hv = m.histogram_value(h);
        assert_eq!(hv.count(), 5);
        assert_eq!(hv.max(), u64::MAX);
        assert_eq!(hv.buckets()[0], 1);
        assert_eq!(hv.buckets()[1], 1);
        assert_eq!(hv.buckets()[3], 1);
        assert_eq!(hv.buckets()[4], 1);
        assert_eq!(hv.buckets()[64], 1);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let ca = a.counter("n");
        a.inc(ca, 1);
        let ha = a.histogram("h");
        a.observe(ha, 4);
        let mut b = MetricsRegistry::new();
        let cb = b.counter("n");
        b.inc(cb, 2);
        let hb = b.histogram("h");
        b.observe(hb, 5);
        a.merge(&b);
        assert_eq!(a.counter_value(ca), 3);
        assert_eq!(a.histogram_value(ha).count(), 2);
        assert_eq!(a.histogram_value(ha).buckets()[3], 2);
    }

    #[test]
    fn json_shape_is_flat_and_escaped() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("msgs \"halo\"");
        m.inc(c, 7);
        let g = m.gauge("imbalance");
        m.set_gauge(g, 1.5);
        let h = m.histogram("lat");
        m.observe(h, 2);
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"msgs \\\"halo\\\"\": 7"));
        assert!(j.contains("\"imbalance\": 1.5"));
        assert!(j.contains("\"bitlen_2\": 1"));
        m.set_gauge(g, 2.0);
        assert!(
            m.to_json().contains("\"imbalance\": 2.0"),
            "gauges stay floats"
        );
        m.set_gauge(g, f64::NAN);
        assert!(m.to_json().contains("\"imbalance\": null"));
    }
}

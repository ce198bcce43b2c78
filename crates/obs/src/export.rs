//! Exporters: Chrome `trace_event` JSON and the human summary table.
//!
//! Both run strictly after the traced run, on snapshots — allocation and
//! float formatting are fine here. All output is a pure function of the
//! recorded events, so identical runs export byte-identical artifacts.

use crate::json::JOut;
use crate::tracer::{Event, Shape, Stamped};

/// One trace lane: a rank (distributed) or the driver thread
/// (serial/shared), with the events its tracer retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// Lane id — the Chrome `tid` (virtual rank id, or 0 for a serial
    /// driver).
    pub id: u32,
    /// Human lane name shown by the viewer (e.g. `"rank 3"`).
    pub name: String,
    /// The retained events, in recording order.
    pub events: Vec<Stamped>,
    /// Events the lane's ring dropped (drop-oldest overflow).
    pub dropped: u64,
}

impl Lane {
    /// The lane of a serial/shared run: take the calling thread's
    /// tracer (armed by [`crate::install`]) and wrap what it retained as
    /// lane 0, `"driver"`. `None` when no tracer was installed.
    pub fn take_driver() -> Option<Lane> {
        let tr = crate::take()?;
        Some(Lane {
            id: 0,
            name: "driver".to_string(),
            events: tr.snapshot(),
            dropped: tr.dropped(),
        })
    }
}

/// Microsecond timestamp with fixed 3-digit nanosecond fraction —
/// integer formatting only, so exports never depend on float printing.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// The opening fields every Chrome event on lane `tid` shares; `cat` is
/// absent on metadata (`ph` `M`) records, and instants are
/// thread-scoped.
fn chrome_head(name: &str, cat: Option<&str>, ph: &str, tid: u32) -> JOut {
    let mut o = JOut::spaced().str("name", name);
    if let Some(cat) = cat {
        o = o.str("cat", cat);
    }
    o = o.str("ph", ph);
    if ph == "i" {
        o = o.str("s", "t");
    }
    o.u64("pid", 0).u64("tid", tid.into())
}

/// One stamped event as a Chrome record, straight from its vocabulary
/// row: a phase span is named by its label and needs no `args`; every
/// other event carries its fields as `args`, `*_bits` payloads shown as
/// the floats they encode.
fn chrome_event(tid: u32, s: &Stamped, phase_names: &[&str]) -> String {
    s.ev.describe(|row, fields| {
        let ph = match row.shape {
            Shape::Begin => "B",
            Shape::End => "E",
            Shape::Instant => "i",
        };
        let head = |name| chrome_head(name, Some(row.cat), ph, tid).raw("ts", &ts_us(s.ts_ns));
        if let Some(phase) = phase_of(s.ev) {
            return head(phase_name(phase, phase_names)).finish();
        }
        let mut args = JOut::spaced();
        for &(name, value) in fields {
            args = match name.strip_suffix("_bits") {
                Some(float) => args.f64(float, f64::from_bits(value)),
                None => args.u64(name, value),
            };
        }
        head(row.name).raw("args", &args.finish()).finish()
    })
}

/// The phase index of a phase-span event; `None` for every other event.
fn phase_of(ev: Event) -> Option<u8> {
    match ev {
        Event::PhaseBegin { phase } | Event::PhaseEnd { phase } => Some(phase),
        _ => None,
    }
}

fn phase_name<'a>(phase: u8, phase_names: &[&'a str]) -> &'a str {
    phase_names
        .get(usize::from(phase))
        .copied()
        .unwrap_or("phase?")
}

/// Render `lanes` as Chrome `trace_event` JSON (object form), one
/// `tid` per lane under `pid` 0, openable in Perfetto /
/// `chrome://tracing`. `phase_names` maps dense phase indices to span
/// names (pass the core `Phase::ALL` labels).
pub fn chrome_trace(lanes: &[Lane], phase_names: &[&str]) -> String {
    let mut records: Vec<String> = Vec::new();
    for lane in lanes {
        let meta = |name: &str, args: JOut| {
            chrome_head(name, None, "M", lane.id)
                .raw("args", &args.finish())
                .finish()
        };
        records.push(meta("thread_name", JOut::spaced().str("name", &lane.name)));
        records.push(meta(
            "thread_sort_index",
            JOut::spaced().u64("sort_index", lane.id.into()),
        ));
        records.extend(
            lane.events
                .iter()
                .map(|s| chrome_event(lane.id, s, phase_names)),
        );
        if lane.dropped > 0 {
            let last_ts = lane.events.last().map_or(0, |s| s.ts_ns);
            records.push(
                chrome_head("dropped-events", Some("meta"), "i", lane.id)
                    .raw("ts", &ts_us(last_ts))
                    .raw("args", &JOut::spaced().u64("count", lane.dropped).finish())
                    .finish(),
            );
        }
    }
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\"}}\n",
        records.join(",\n")
    )
}

/// One completed span, for ranking.
struct SpanRec {
    lane: usize,
    /// Span name from the vocabulary; a phase span also keeps its index.
    name: &'static str,
    phase: Option<u8>,
    begin_ns: u64,
    dur_ns: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render the human `--trace-summary` table: top-`top_n` slowest spans,
/// per-lane busy time and imbalance, and sent bytes by tag.
pub fn summary_table(lanes: &[Lane], phase_names: &[&str], top_n: usize) -> String {
    let mut spans: Vec<SpanRec> = Vec::new();
    // (tag, bytes, msgs) for sends, aggregated across lanes.
    let mut by_tag: Vec<(u32, u64, u64)> = Vec::new();
    let mut busy_ns: Vec<u64> = vec![0; lanes.len()];
    let nevents: usize = lanes.iter().map(|l| l.events.len()).sum();
    let ndropped: u64 = lanes.iter().map(|l| l.dropped).sum();

    for (li, lane) in lanes.iter().enumerate() {
        // Open spans as (key, begin stamp), innermost last; a span's key
        // is its name — plus the phase index for phase spans, which pair
        // up per phase.
        let mut open: Vec<((&'static str, u8), u64)> = Vec::new();
        for s in &lane.events {
            let (name, shape) = s.ev.describe(|row, _| (row.name, row.shape));
            let phase = phase_of(s.ev);
            let key = (name, phase.unwrap_or(0));
            match (shape, s.ev) {
                (Shape::Begin, _) => open.push((key, s.ts_ns)),
                (Shape::End, _) => {
                    if let Some(at) = open.iter().rposition(|(k, _)| *k == key) {
                        let (_, begin_ns) = open.remove(at);
                        spans.push(SpanRec {
                            lane: li,
                            name: key.0,
                            phase,
                            begin_ns,
                            dur_ns: s.ts_ns - begin_ns,
                        });
                        if phase.is_some() {
                            busy_ns[li] += s.ts_ns - begin_ns;
                        }
                    }
                }
                (Shape::Instant, Event::MsgSend { tag, bytes, .. }) => {
                    match by_tag.iter_mut().find(|(t, _, _)| *t == tag) {
                        Some(e) => {
                            e.1 += bytes;
                            e.2 += 1;
                        }
                        None => by_tag.push((tag, bytes, 1)),
                    }
                }
                (Shape::Instant, _) => {}
            }
        }
    }

    let mut out = format!(
        "trace summary: {} lane(s), {} event(s), {} dropped\n",
        lanes.len(),
        nevents,
        ndropped
    );

    spans.sort_by(|a, b| {
        b.dur_ns
            .cmp(&a.dur_ns)
            .then(a.begin_ns.cmp(&b.begin_ns))
            .then(a.lane.cmp(&b.lane))
    });
    out.push_str(&format!(
        "  top {} slowest spans:\n",
        top_n.min(spans.len())
    ));
    for s in spans.iter().take(top_n) {
        let name = s.phase.map_or(s.name, |p| phase_name(p, phase_names));
        out.push_str(&format!(
            "    {:<10} {:<12} {:>12.3} ms  @ {:.3} ms\n",
            lanes[s.lane].name,
            name,
            ms(s.dur_ns),
            ms(s.begin_ns)
        ));
    }

    if !lanes.is_empty() {
        let total: u64 = busy_ns.iter().sum();
        let mean = total as f64 / lanes.len() as f64;
        out.push_str("  per-lane busy time (phase spans):\n");
        for (li, lane) in lanes.iter().enumerate() {
            let rel = if mean > 0.0 {
                busy_ns[li] as f64 / mean
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {:<10} {:>12.3} ms  ({:.2}x mean)\n",
                lane.name,
                ms(busy_ns[li]),
                rel
            ));
        }
    }

    if !by_tag.is_empty() {
        by_tag.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str("  sent bytes by tag:\n");
        for (tag, bytes, msgs) in by_tag.iter().take(top_n.max(8)) {
            out.push_str(&format!(
                "    tag {:<10} {:>12} B in {} msg(s)\n",
                tag, bytes, msgs
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(events: Vec<Stamped>) -> Lane {
        Lane {
            id: 0,
            name: "rank 0".to_string(),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn chrome_trace_emits_lanes_and_span_pairs() {
        let l = lane(vec![
            Stamped {
                ts_ns: 1000,
                ev: Event::PhaseBegin { phase: 0 },
            },
            Stamped {
                ts_ns: 2500,
                ev: Event::PhaseEnd { phase: 0 },
            },
            Stamped {
                ts_ns: 2500,
                ev: Event::MsgSend {
                    peer: 1,
                    tag: 100,
                    bytes: 64,
                },
            },
        ]);
        let json = chrome_trace(&[l], &["exchange"]);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\": \"exchange\", \"cat\": \"phase\", \"ph\": \"B\""));
        assert!(json.contains("\"ts\": 1.000"));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ts\": 2.500"));
        assert!(json.contains("\"tag\": 100, \"bytes\": 64"));
    }

    #[test]
    fn chrome_trace_reports_drops_and_unknown_phases() {
        let mut l = lane(vec![Stamped {
            ts_ns: 10,
            ev: Event::PhaseBegin { phase: 9 },
        }]);
        l.dropped = 42;
        let json = chrome_trace(&[l], &["only-one"]);
        assert!(json.contains("\"phase?\""));
        assert!(json.contains("\"dropped-events\""));
        assert!(json.contains("\"count\": 42"));
    }

    #[test]
    fn cfl_change_formats_bits_as_numbers() {
        let l = lane(vec![Stamped {
            ts_ns: 0,
            ev: Event::CflChange {
                from_bits: 30.0f64.to_bits(),
                to_bits: 7.5f64.to_bits(),
            },
        }]);
        let json = chrome_trace(&[l], &[]);
        assert!(json.contains("\"from\": 30.0, \"to\": 7.5"), "{json}");
    }

    #[test]
    fn repartition_spans_export_and_summarize() {
        let l = lane(vec![
            Stamped {
                ts_ns: 1_000,
                ev: Event::RepartitionBegin { cycle: 20 },
            },
            Stamped {
                ts_ns: 4_000_000,
                ev: Event::RepartitionEnd { cycle: 20 },
            },
        ]);
        let json = chrome_trace(std::slice::from_ref(&l), &["exchange"]);
        assert!(json.contains("\"name\": \"repartition\", \"cat\": \"repart\", \"ph\": \"B\""));
        assert!(json.contains("\"cycle\": 20"));
        let table = summary_table(&[l], &["exchange"], 3);
        assert!(table.contains("repartition"), "{table}");
    }

    #[test]
    fn summary_ranks_spans_and_aggregates_tags() {
        let l0 = lane(vec![
            Stamped {
                ts_ns: 0,
                ev: Event::PhaseBegin { phase: 0 },
            },
            Stamped {
                ts_ns: 5_000_000,
                ev: Event::PhaseEnd { phase: 0 },
            },
            Stamped {
                ts_ns: 5_000_000,
                ev: Event::MsgSend {
                    peer: 1,
                    tag: 7,
                    bytes: 100,
                },
            },
            Stamped {
                ts_ns: 6_000_000,
                ev: Event::MsgSend {
                    peer: 1,
                    tag: 7,
                    bytes: 50,
                },
            },
        ]);
        let mut l1 = lane(vec![
            Stamped {
                ts_ns: 0,
                ev: Event::RecoveryBegin { epoch: 1 },
            },
            Stamped {
                ts_ns: 9_000_000,
                ev: Event::RecoveryEnd { epoch: 1 },
            },
        ]);
        l1.id = 1;
        l1.name = "rank 1".to_string();
        let table = summary_table(&[l0, l1], &["exchange"], 2);
        assert!(table.contains("2 lane(s)"));
        let recovery_pos = table.find("recovery").expect("recovery span listed");
        let exchange_pos = table.find("exchange").expect("exchange span listed");
        assert!(recovery_pos < exchange_pos, "slowest span first:\n{table}");
        assert!(table.contains("tag 7"));
        assert!(table.contains("150 B in 2 msg(s)"));
        assert!(table.contains("per-lane busy time"));
    }
}

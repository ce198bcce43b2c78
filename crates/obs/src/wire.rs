//! Wire encoding for stamped events: one JSON object per line, so a
//! [`crate::Stamped`] stream travels over the service layer's
//! line-delimited protocol and decodes back losslessly.
//!
//! The encoding is deliberately flat — every field is an unsigned
//! integer and the event kind is a kebab-case string — so external
//! consumers (`jq`, log shippers) read it directly:
//!
//! ```text
//! {"ts":1200,"ev":"msg-send","peer":1,"tag":7,"bytes":4096}
//! ```
//!
//! Kinds and field names come from the [`Event`] vocabulary table
//! (`Event::describe` / `Event::from_fields`); the text itself is written
//! and read by the shared codec ([`crate::json`]). [`encode`] ∘
//! [`decode`] is the identity on every event variant (see the
//! round-trip test), and the output for a given stream is byte-stable:
//! field order is fixed, integers carry no padding, floats never appear
//! (CFL values travel as `f64::to_bits`, exactly as they are stamped).

use crate::json::{JObj, JOut};
use crate::tracer::{Event, Stamped};

/// Encode one stamped event as a single JSON line (no trailing newline).
pub fn encode(s: &Stamped) -> String {
    s.ev.describe(|row, fields| {
        let mut out = JOut::line().u64("ts", s.ts_ns).str("ev", row.kind);
        for &(name, value) in fields {
            out = out.u64(name, value);
        }
        out.finish()
    })
}

/// Decode one line produced by [`encode`]. Returns `None` for anything
/// else — not one flat JSON object, an unknown kind, a missing field, a
/// value that is not a plain in-range unsigned integer — so a stream
/// reader can skip foreign lines without failing.
pub fn decode(line: &str) -> Option<Stamped> {
    let o = JObj::parse(line).ok()?;
    let ev = Event::from_fields(o.str_of("ev")?, |name| o.u64_of(name))?;
    Some(Stamped {
        ts_ns: o.u64_of("ts")?,
        ev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event per variant, every field at its type's maximum — past
    /// the 2^53 where a float-typed reader starts rounding.
    fn every_variant() -> Vec<Stamped> {
        let (b, w, q) = (u8::MAX, u32::MAX, u64::MAX);
        let evs = [
            Event::PhaseBegin { phase: b },
            Event::PhaseEnd { phase: b },
            Event::MsgSend {
                peer: w,
                tag: w,
                bytes: q,
            },
            Event::MsgRecv {
                peer: w,
                tag: w,
                bytes: q,
            },
            Event::PoolAlloc { bytes: q },
            Event::CheckpointBegin { cycle: q },
            Event::CheckpointEnd { cycle: q },
            Event::RecoveryBegin { epoch: w },
            Event::RecoveryEnd { epoch: w },
            Event::RepartitionBegin { cycle: q },
            Event::RepartitionEnd { cycle: q },
            Event::GuardVerdict {
                cycle: q,
                severity: b,
            },
            Event::CflChange {
                from_bits: q,
                to_bits: q - 1,
            },
        ];
        evs.iter()
            .enumerate()
            .map(|(k, &ev)| Stamped {
                ts_ns: q - k as u64,
                ev,
            })
            .collect()
    }

    #[test]
    fn every_variant_round_trips() {
        for s in every_variant() {
            let line = encode(&s);
            let back = decode(&line).unwrap_or_else(|| panic!("decode failed for {line}"));
            assert_eq!(s, back, "{line}");
        }
    }

    #[test]
    fn cfl_bits_survive_exactly() {
        let from = 0.1_f64 + 0.2_f64; // a value with no short decimal form
        let s = Stamped {
            ts_ns: 1,
            ev: Event::CflChange {
                from_bits: from.to_bits(),
                to_bits: (from * 0.25).to_bits(),
            },
        };
        let Some(Stamped {
            ev: Event::CflChange { from_bits, .. },
            ..
        }) = decode(&encode(&s))
        else {
            panic!("decode failed");
        };
        assert_eq!(f64::from_bits(from_bits), from);
    }
}

//! The pinned text of every flat-JSON line the tree emits — trace wire,
//! job journal, service protocol, Chrome trace, metrics JSON — one
//! sample per `Event` variant, `JournalRecord` variant and protocol
//! constructor. All of them are written by the one codec in
//! `eul3d_obs::json`; this table holds it to the bytes on the wire and
//! on disk.
//!
//! The expected strings in [`GOLDEN`] were not produced by the code
//! under test: they were printed by the parent commit (36a258b, before
//! the codecs were merged) running [`emitted`] verbatim in a scratch
//! checkout, where the ~50 hand-rolled `format!` sites still existed.
//! Stored result blobs, journals, `result_hash`es and trace goldens stay
//! valid exactly as long as this test passes unmodified.
//!
//! The second half pins what the merged reader now owes that the old
//! substring scanner did not: strict `wire::decode`, exact wide
//! integers, and `null` for non-finite floats.

use eul3d_core::health::{GuardOutcome, HealthVerdict, RetryEvent};
use eul3d_core::{JobArtifacts, JobMode};
use eul3d_obs::json::JObj;
use eul3d_obs::{chrome_trace, wire, Event, Lane, MetricsRegistry, Stamped};
use eul3d_serve::engine::{CancelOutcome, EngineStats, JobState};
use eul3d_serve::{protocol, CacheKey, JobBlob, JournalRecord, Request};

/// Every flat-JSON text the tree emits, one sample per constructor, as
/// `(label, text)`.
fn emitted() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    // obs::wire — one line per Event variant.
    for (k, ev) in every_event().into_iter().enumerate() {
        let s = Stamped {
            ts_ns: k as u64 * 1_000 + 17,
            ev,
        };
        out.push(("wire", wire::encode(&s)));
    }
    // serve::journal — one frame payload per JournalRecord variant.
    for rec in every_record() {
        out.push(("journal", rec.to_line()));
    }
    // serve::protocol — requests, then events.
    for req in [
        Request::Submit {
            config: NASTY.to_string(),
            mode: JobMode::Distributed,
            force: true,
            artifacts: false,
        },
        Request::Cancel { job: 9 },
        Request::Stats,
        Request::Shutdown,
    ] {
        out.push(("request", req.to_line()));
    }
    let stats = EngineStats {
        submitted: 1,
        rejected: 2,
        done: 3,
        cancelled: 4,
        failed: 5,
        queued: 6,
        running: 7,
        cache_hits: 8,
        cache_misses: 9,
        cache_len: 10,
        cache_bytes: 11,
        cache_evicted_bytes: 12,
    };
    let plain = blob(None);
    let guarded = blob(Some(GuardOutcome {
        transcript: vec![RetryEvent {
            cycle: 5,
            rollback_to: Some(4),
            verdict: HealthVerdict::Diverging { ratio: 60.0 },
            cfl_before: 30.0,
            cfl_after: 7.5,
        }],
        final_cfl: 7.5,
        target_cfl: 30.0,
        exhausted: None,
    }));
    let trace = Some("{\"traceEvents\": [\n]}\n");
    out.extend(
        [
            protocol::ev_accepted(1, CacheKey(0xabc)),
            protocol::ev_rejected(300),
            protocol::ev_error("bad \"config\"\tat line 2"),
            protocol::ev_started(1),
            protocol::ev_progress(3, 11, 0.1 + 0.2),
            protocol::ev_progress(3, 12, 2.0),
            protocol::ev_progress(3, 13, 1e-7),
            protocol::ev_done(4, false, &plain, None, None),
            protocol::ev_done(4, true, &plain, None, Some(VTK)),
            protocol::ev_done(5, false, &guarded, None, None),
            protocol::ev_done(5, true, &guarded, trace, Some(VTK)),
            protocol::ev_cancelled(1),
            protocol::ev_failed(1, "solver.mach must be positive\r\n"),
            protocol::ev_stats(&stats),
            protocol::ev_cancel_ack(1, CancelOutcome::WasRunning, Some(JobState::Running)),
            protocol::ev_cancel_ack(2, CancelOutcome::WasQueued, Some(JobState::Queued)),
            protocol::ev_cancel_ack(7, CancelOutcome::Unknown, None),
            protocol::ev_shutdown_ack(),
        ]
        .map(|l| ("event", l)),
    );
    // obs::export — one small Chrome trace (every variant on lane 0, a
    // lane with drops and an out-of-table phase) and one metrics object.
    let lanes = [
        Lane {
            id: 0,
            name: "rank 0".to_string(),
            events: every_event()
                .into_iter()
                .enumerate()
                .map(|(k, ev)| Stamped {
                    ts_ns: k as u64 * 1_500 + 7,
                    ev,
                })
                .collect(),
            dropped: 0,
        },
        Lane {
            id: 3,
            name: "rank \"3\"".to_string(),
            events: vec![Stamped {
                ts_ns: 10,
                ev: Event::PhaseBegin { phase: 9 },
            }],
            dropped: 42,
        },
    ];
    out.push((
        "chrome",
        chrome_trace(&lanes, &["exchange", "smooth", "flux", "transfer"]),
    ));
    let mut m = MetricsRegistry::new();
    let c = m.counter("msgs \"halo\"");
    m.inc(c, 7);
    let c = m.counter("bytes");
    m.inc(c, u64::MAX);
    for (name, v) in [
        ("imbalance", 1.5),
        ("whole", 2.0),
        ("tiny", 1e-7),
        ("neg", -0.25),
    ] {
        let g = m.gauge(name);
        m.set_gauge(g, v);
    }
    let h = m.histogram("lat");
    for v in [0, 2, 3, 900] {
        m.observe(h, v);
    }
    m.histogram("empty");
    out.push(("metrics", m.to_json()));
    out
}

const NASTY: &str = "[run]\ncycles = 3\n# \"quoted\" back\\slash\ttab \u{1} ünïcode\r\n";

fn every_event() -> Vec<Event> {
    vec![
        Event::PhaseBegin { phase: 3 },
        Event::PhaseEnd { phase: 3 },
        Event::MsgSend {
            peer: 7,
            tag: 1044,
            bytes: 40960,
        },
        Event::MsgRecv {
            peer: 0,
            tag: u32::MAX,
            bytes: u64::MAX,
        },
        Event::PoolAlloc { bytes: 0 },
        Event::CheckpointBegin { cycle: 12 },
        Event::CheckpointEnd { cycle: 12 },
        Event::RecoveryBegin { epoch: 2 },
        Event::RecoveryEnd { epoch: 2 },
        Event::RepartitionBegin { cycle: 40 },
        Event::RepartitionEnd { cycle: 40 },
        Event::GuardVerdict {
            cycle: 9,
            severity: 255,
        },
        Event::CflChange {
            from_bits: 30.0_f64.to_bits(),
            to_bits: (0.1_f64 + 0.2_f64).to_bits(),
        },
    ]
}

fn every_record() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Submitted {
            job: 1,
            key: CacheKey(0xABCD),
            mode: JobMode::Solve,
            force: false,
            config: NASTY.to_string(),
        },
        JournalRecord::Started { job: 1 },
        JournalRecord::Checkpointed { job: 1, cycle: 2 },
        JournalRecord::Resumed { job: 1, cycle: 2 },
        JournalRecord::Done {
            job: 1,
            result_hash: 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788,
        },
        JournalRecord::Cancelled { job: 2 },
        JournalRecord::Failed {
            job: 3,
            error: "solver exploded: \"boom\"".to_string(),
        },
    ]
}

/// The VTK text a `done` line inlines: rendered per request from the
/// blob's Mach field, which the line itself never prints.
const VTK: &str = "# vtk DataFile Version 3.0\n";

fn blob(guard: Option<GuardOutcome>) -> JobBlob {
    JobBlob {
        artifacts: JobArtifacts {
            history: vec![1.5, 0.25, 0.1 + 0.2],
            table: "cycle\tresidual\n0\t1.5\n".to_string(),
            lanes: Vec::new(),
            mach: vec![0.675, 1.25],
            guard,
            result_hash: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
        },
    }
}

/// What the parent commit printed for [`emitted`].
const GOLDEN: &[(&str, &str)] = &[
    ("wire", "{\"ts\":17,\"ev\":\"phase-begin\",\"phase\":3}"),
    ("wire", "{\"ts\":1017,\"ev\":\"phase-end\",\"phase\":3}"),
    ("wire", "{\"ts\":2017,\"ev\":\"msg-send\",\"peer\":7,\"tag\":1044,\"bytes\":40960}"),
    ("wire", "{\"ts\":3017,\"ev\":\"msg-recv\",\"peer\":0,\"tag\":4294967295,\"bytes\":18446744073709551615}"),
    ("wire", "{\"ts\":4017,\"ev\":\"pool-alloc\",\"bytes\":0}"),
    ("wire", "{\"ts\":5017,\"ev\":\"checkpoint-begin\",\"cycle\":12}"),
    ("wire", "{\"ts\":6017,\"ev\":\"checkpoint-end\",\"cycle\":12}"),
    ("wire", "{\"ts\":7017,\"ev\":\"recovery-begin\",\"epoch\":2}"),
    ("wire", "{\"ts\":8017,\"ev\":\"recovery-end\",\"epoch\":2}"),
    ("wire", "{\"ts\":9017,\"ev\":\"repartition-begin\",\"cycle\":40}"),
    ("wire", "{\"ts\":10017,\"ev\":\"repartition-end\",\"cycle\":40}"),
    ("wire", "{\"ts\":11017,\"ev\":\"guard-verdict\",\"cycle\":9,\"severity\":255}"),
    ("wire", "{\"ts\":12017,\"ev\":\"cfl-change\",\"from_bits\":4629137466983448576,\"to_bits\":4599075939470750516}"),
    ("journal", "{\"rec\":\"submitted\",\"job\":1,\"key\":\"0000000000000000000000000000abcd\",\"mode\":\"solve\",\"force\":false,\"config\":\"[run]\\ncycles = 3\\n# \\\"quoted\\\" back\\\\slash\\ttab \\u0001 ünïcode\\r\\n\"}"),
    ("journal", "{\"rec\":\"started\",\"job\":1}"),
    ("journal", "{\"rec\":\"checkpointed\",\"job\":1,\"cycle\":2}"),
    ("journal", "{\"rec\":\"resumed\",\"job\":1,\"cycle\":2}"),
    ("journal", "{\"rec\":\"done\",\"job\":1,\"result_hash\":\"123456789abcdef01122334455667788\"}"),
    ("journal", "{\"rec\":\"cancelled\",\"job\":2}"),
    ("journal", "{\"rec\":\"failed\",\"job\":3,\"error\":\"solver exploded: \\\"boom\\\"\"}"),
    ("request", "{\"op\":\"submit\",\"mode\":\"distributed\",\"force\":true,\"artifacts\":false,\"config\":\"[run]\\ncycles = 3\\n# \\\"quoted\\\" back\\\\slash\\ttab \\u0001 ünïcode\\r\\n\"}"),
    ("request", "{\"op\":\"cancel\",\"job\":9}"),
    ("request", "{\"op\":\"stats\"}"),
    ("request", "{\"op\":\"shutdown\"}"),
    ("event", "{\"event\":\"accepted\",\"job\":1,\"key\":\"00000000000000000000000000000abc\"}"),
    ("event", "{\"event\":\"rejected\",\"reason\":\"queue-full\",\"retry_after_ms\":300}"),
    ("event", "{\"event\":\"error\",\"msg\":\"bad \\\"config\\\"\\tat line 2\"}"),
    ("event", "{\"event\":\"started\",\"job\":1}"),
    ("event", "{\"event\":\"progress\",\"job\":3,\"cycle\":11,\"residual\":0.30000000000000004}"),
    ("event", "{\"event\":\"progress\",\"job\":3,\"cycle\":12,\"residual\":2}"),
    ("event", "{\"event\":\"progress\",\"job\":3,\"cycle\":13,\"residual\":0.0000001}"),
    ("event", "{\"event\":\"done\",\"job\":4,\"cache\":\"miss\",\"result_hash\":\"deadbeef0123456789abcdef00112233\",\"cycles\":3,\"final_residual\":0.30000000000000004}"),
    ("event", "{\"event\":\"done\",\"job\":4,\"cache\":\"hit\",\"result_hash\":\"deadbeef0123456789abcdef00112233\",\"cycles\":3,\"final_residual\":0.30000000000000004,\"table\":\"cycle\\tresidual\\n0\\t1.5\\n\",\"vtk\":\"# vtk DataFile Version 3.0\\n\"}"),
    ("event", "{\"event\":\"done\",\"job\":5,\"cache\":\"miss\",\"result_hash\":\"deadbeef0123456789abcdef00112233\",\"cycles\":3,\"final_residual\":0.30000000000000004,\"guard_backoffs\":1,\"guard_final_cfl\":7.5}"),
    ("event", "{\"event\":\"done\",\"job\":5,\"cache\":\"hit\",\"result_hash\":\"deadbeef0123456789abcdef00112233\",\"cycles\":3,\"final_residual\":0.30000000000000004,\"guard_backoffs\":1,\"guard_final_cfl\":7.5,\"table\":\"cycle\\tresidual\\n0\\t1.5\\n\",\"trace\":\"{\\\"traceEvents\\\": [\\n]}\\n\",\"vtk\":\"# vtk DataFile Version 3.0\\n\"}"),
    ("event", "{\"event\":\"cancelled\",\"job\":1}"),
    ("event", "{\"event\":\"failed\",\"job\":1,\"msg\":\"solver.mach must be positive\\r\\n\"}"),
    ("event", "{\"event\":\"stats\",\"submitted\":1,\"rejected\":2,\"done\":3,\"cancelled\":4,\"failed\":5,\"queued\":6,\"running\":7,\"cache_hits\":8,\"cache_misses\":9,\"cache_len\":10,\"cache_bytes\":11,\"cache_evicted_bytes\":12}"),
    ("event", "{\"event\":\"cancel\",\"job\":1,\"ok\":true,\"state\":\"running\"}"),
    ("event", "{\"event\":\"cancel\",\"job\":2,\"ok\":true,\"state\":\"queued\"}"),
    ("event", "{\"event\":\"cancel\",\"job\":7,\"ok\":false,\"state\":\"unknown\"}"),
    ("event", "{\"event\":\"shutdown\",\"ok\":true}"),
    ("chrome", "{\"traceEvents\": [\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {\"name\": \"rank 0\"}},\n{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {\"sort_index\": 0}},\n{\"name\": \"transfer\", \"cat\": \"phase\", \"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 0.007},\n{\"name\": \"transfer\", \"cat\": \"phase\", \"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 1.507},\n{\"name\": \"send\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 3.007, \"args\": {\"peer\": 7, \"tag\": 1044, \"bytes\": 40960}},\n{\"name\": \"recv\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 4.507, \"args\": {\"peer\": 0, \"tag\": 4294967295, \"bytes\": 18446744073709551615}},\n{\"name\": \"pool-alloc\", \"cat\": \"alloc\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 6.007, \"args\": {\"bytes\": 0}},\n{\"name\": \"checkpoint\", \"cat\": \"ckpt\", \"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 7.507, \"args\": {\"cycle\": 12}},\n{\"name\": \"checkpoint\", \"cat\": \"ckpt\", \"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 9.007, \"args\": {\"cycle\": 12}},\n{\"name\": \"recovery\", \"cat\": \"recovery\", \"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 10.507, \"args\": {\"epoch\": 2}},\n{\"name\": \"recovery\", \"cat\": \"recovery\", \"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 12.007, \"args\": {\"epoch\": 2}},\n{\"name\": \"repartition\", \"cat\": \"repart\", \"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 13.507, \"args\": {\"cycle\": 40}},\n{\"name\": \"repartition\", \"cat\": \"repart\", \"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 15.007, \"args\": {\"cycle\": 40}},\n{\"name\": \"guard-verdict\", \"cat\": \"guard\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 16.507, \"args\": {\"cycle\": 9, \"severity\": 255}},\n{\"name\": \"cfl-change\", \"cat\": \"guard\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 18.007, \"args\": {\"from\": 30.0, \"to\": 0.30000000000000004}},\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 3, \"args\": {\"name\": \"rank \\\"3\\\"\"}},\n{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 0, \"tid\": 3, \"args\": {\"sort_index\": 3}},\n{\"name\": \"phase?\", \"cat\": \"phase\", \"ph\": \"B\", \"pid\": 0, \"tid\": 3, \"ts\": 0.010},\n{\"name\": \"dropped-events\", \"cat\": \"meta\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 3, \"ts\": 0.010, \"args\": {\"count\": 42}}\n], \"displayTimeUnit\": \"ms\"}\n"),
    ("metrics", "{\"counters\": {\"msgs \\\"halo\\\"\": 7, \"bytes\": 18446744073709551615}, \"gauges\": {\"imbalance\": 1.5, \"whole\": 2.0, \"tiny\": 0.0000001, \"neg\": -0.25}, \"histograms\": {\"lat\": {\"count\": 4, \"sum\": 905, \"max\": 900, \"buckets\": {\"bitlen_0\": 1, \"bitlen_2\": 2, \"bitlen_10\": 1}}, \"empty\": {\"count\": 0, \"sum\": 0, \"max\": 0, \"buckets\": {}}}}"),
];

#[test]
fn every_emitted_line_matches_the_parent_commit() {
    let got = emitted();
    assert_eq!(got.len(), GOLDEN.len());
    for ((label, text), (want_label, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label);
        assert_eq!(text, want, "{label}");
    }
}

#[test]
fn every_emitted_line_reads_back_through_the_one_parser() {
    for (label, text) in emitted() {
        match label {
            "wire" => assert!(wire::decode(&text).is_some(), "{text}"),
            "journal" => {
                let rec = JournalRecord::parse(&text).unwrap_or_else(|| panic!("{text}"));
                assert_eq!(rec.to_line(), text);
            }
            "request" => {
                let req = Request::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(req.to_line(), text);
            }
            "event" => assert!(JObj::parse(&text).is_ok(), "{text}"),
            // Nested export documents: outside the flat-object reader.
            _ => {}
        }
    }
}

/// A diverging run passes through huge finite residuals before it
/// reaches inf/NaN. Rust prints those without an exponent — 1.9e19 is a
/// 20-digit run past `u64::MAX` — and every one must still read back as
/// the float it was, not fail the line.
#[test]
fn huge_finite_residuals_read_back() {
    for v in [1e19, 1.9e19, 1e20, -1e20, 1e300, f64::MAX] {
        let line = protocol::ev_progress(1, 2, v);
        let o = JObj::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(o.f64_of("residual"), Some(v), "{line}");
        assert_eq!(o.u64_of("cycle"), Some(2));
    }
}

#[test]
fn wire_decode_is_strict() {
    let good = "{\"ts\":5,\"ev\":\"msg-send\",\"peer\":1,\"tag\":7,\"bytes\":64}";
    assert!(wire::decode(good).is_some());
    for bad in [
        // leading / trailing garbage around a well-formed line
        "x{\"ts\":5,\"ev\":\"msg-send\",\"peer\":1,\"tag\":7,\"bytes\":64}",
        "{\"ts\":5,\"ev\":\"msg-send\",\"peer\":1,\"tag\":7,\"bytes\":64}x",
        // a key the substring scanner would have found inside a string
        "{\"note\":\"\\\"ts\\\":5\",\"ev\":\"pool-alloc\",\"bytes\":1}",
        // duplicate key
        "{\"ts\":5,\"ts\":6,\"ev\":\"pool-alloc\",\"bytes\":1}",
        // fractional, negative, exponent and over-range integers
        "{\"ts\":5,\"ev\":\"pool-alloc\",\"bytes\":1.5}",
        "{\"ts\":5,\"ev\":\"pool-alloc\",\"bytes\":-1}",
        "{\"ts\":5,\"ev\":\"pool-alloc\",\"bytes\":1e3}",
        "{\"ts\":5,\"ev\":\"pool-alloc\",\"bytes\":18446744073709551616}",
        "{\"ts\":18446744073709551616,\"ev\":\"pool-alloc\",\"bytes\":1}",
        // in-range for u64, beyond the field's own width
        "{\"ts\":5,\"ev\":\"phase-begin\",\"phase\":256}",
        "{\"ts\":5,\"ev\":\"recovery-end\",\"epoch\":4294967296}",
        // not an object, no fields, no kind
        "",
        "{}",
        "{\"ts\":5}",
        "{\"ts\":x,\"ev\":\"pool-alloc\",\"bytes\":1}",
        // unknown kind, missing field, wrong value type
        "{\"ts\":5,\"ev\":\"warp-drive\"}",
        "{\"ts\":5,\"ev\":\"msg-send\",\"peer\":1,\"tag\":7}",
        "{\"ts\":5,\"ev\":\"pool-alloc\",\"bytes\":\"1\"}",
        "{\"ts\":5,\"ev\":7,\"bytes\":1}",
    ] {
        assert!(wire::decode(bad).is_none(), "{bad}");
    }
}

#[test]
fn wide_integers_survive_exactly() {
    // 2^53 + 1 is the first integer an f64-typed reader rounds.
    for job in [(1u64 << 53) + 1, u64::MAX] {
        for rec in [
            JournalRecord::Started { job },
            JournalRecord::Checkpointed { job, cycle: job },
            JournalRecord::Done {
                job,
                result_hash: u128::MAX,
            },
        ] {
            assert_eq!(JournalRecord::parse(&rec.to_line()), Some(rec.clone()));
        }
        let req = Request::Cancel { job };
        assert_eq!(Request::parse(&req.to_line()), Ok(req));
    }
    // One past u64::MAX is a typed request error, not job u64::MAX.
    let err = Request::parse("{\"op\":\"cancel\",\"job\":18446744073709551616}").unwrap_err();
    assert!(err.contains("integer 'job' field"), "{err}");
    assert_eq!(
        JournalRecord::parse("{\"rec\":\"started\",\"job\":18446744073709551616}"),
        None
    );
}

#[test]
fn non_finite_floats_are_emitted_as_null() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let line = protocol::ev_progress(1, 2, bad);
        assert_eq!(
            line,
            "{\"event\":\"progress\",\"job\":1,\"cycle\":2,\"residual\":null}"
        );
        let mut diverged = blob(None);
        diverged.artifacts.history.push(bad);
        let done = protocol::ev_done(1, false, &diverged, None, None);
        assert!(
            done.ends_with("\"cycles\":4,\"final_residual\":null}"),
            "{done}"
        );
        for l in [line, done] {
            let o = JObj::parse(&l).unwrap_or_else(|e| panic!("{l}: {e}"));
            assert!(o.str_of("event").is_some());
        }
    }
}

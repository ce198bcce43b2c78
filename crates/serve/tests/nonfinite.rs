//! A run whose residual history goes non-finite is still a finished
//! job, and its stream must stay inside the protocol: NaN is not a JSON
//! number, so the residuals travel as `null` and every line parses with
//! the same reader every client uses. Before the one-codec change the
//! server streamed `"residual":NaN`, its own parser rejected the lines,
//! and the resilient client — seeing no terminal event it could read —
//! called the finished job broken and resubmitted it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_serve::engine::EngineConfig;
use eul3d_serve::json::{JObj, JVal};
use eul3d_serve::{client, server, ClientConfig};

/// Diverges within a few V-cycles at CFL 30 on the tapered mesh (no
/// guard armed), well before cycle 40.
const DIVERGING: &str = "[solver]\ncfl = 30.0\nmach = 0.5\n\
     [run]\nstrategy = \"v\"\nlevels = 2\ncycles = 40\n\
     [mesh]\nnx = 10\nny = 4\nnz = 3\ntaper = 0.6\n";

#[test]
fn a_diverged_job_streams_parsable_lines_and_a_terminal_event() {
    let mut path = std::env::temp_dir();
    path.push(format!("eul3d-serve-nonfinite-{}", std::process::id()));
    let mut server = server::spawn(
        &path,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // `retries: 0`: a stream without a readable terminal event is an
    // error here, not a silent resubmission.
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let lines = client::submit_resilient(&path, DIVERGING, "solve", false, false, &cfg)
        .expect("the finished job's stream carries a terminal event the client can read");
    let parsed: Vec<JObj> = lines
        .iter()
        .map(|l| JObj::parse(l).unwrap_or_else(|e| panic!("unparsable reply line {l}: {e}")))
        .collect();
    let done = parsed.last().unwrap();
    assert_eq!(done.str_of("event"), Some("done"));
    assert_eq!(done.u64_of("cycles"), Some(40));
    assert_eq!(done.get("final_residual"), Some(&JVal::Null));
    let null_residuals = parsed
        .iter()
        .filter(|o| o.str_of("event") == Some("progress"))
        .filter(|o| o.get("residual") == Some(&JVal::Null))
        .count();
    assert!(null_residuals > 0, "the fixture must actually diverge");
    assert!(
        !lines.iter().any(|l| l.contains("NaN") || l.contains("inf")),
        "{lines:?}"
    );
    server.shutdown();
}

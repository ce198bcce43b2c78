//! Run sets: `run` / `trace` execute every workload in its own child
//! process and collect the result lines; `compare` holds two sets
//! against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{metrics_from, metrics_object, Json, Metric};
use crate::spec::WORKLOADS;
use crate::stats::quartiles;

/// One child's result: the contract's result line plus the detail line
/// (`# detail {...}`) the child prints just before it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub cycles_to_drop: u64,
    pub history_fnv: String,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The last line of a driver-mode run, exactly the contract's keys.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_object(&self.metrics)
        )
    }

    pub fn detail_line(&self) -> String {
        format!(
            "# detail {{\"workload\": \"{}\", \"seed\": {}, \"cycles_to_drop\": {}, \"history_fnv\": \"{}\"}}",
            self.workload, self.seed, self.cycles_to_drop, self.history_fnv
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"cycles_to_drop\": {}, \"history_fnv\": \"{}\", \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            self.cycles_to_drop,
            self.history_fnv,
            metrics_object(&self.metrics)
        )
    }

    fn from_json(j: &Json) -> Option<RunResult> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64).map(|x| x as u64);
        Some(RunResult {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: num("seed")?,
            correct: j.get("correct")?.as_bool()?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            cycles_to_drop: num("cycles_to_drop")?,
            history_fnv: j.get("history_fnv")?.as_str()?.to_string(),
            metrics: metrics_from(j.get("metrics")?),
        })
    }

    /// Parse a child's standard output: the detail line and the result
    /// line together carry every field of [`RunResult::from_json`].
    fn from_stdout(out: &str) -> Option<RunResult> {
        let Json::Obj(mut fields) = Json::parse(out.lines().last()?).ok()? else {
            return None;
        };
        let detail = out
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("# detail "))?;
        if let Json::Obj(more) = Json::parse(detail).ok()? {
            fields.extend(more);
        }
        RunResult::from_json(&Json::Obj(fields))
    }

    pub fn print_table(&self) {
        println!(
            "{}  seed {}  correct {}  attempted {}  failed {}  fail_frac {}  cycles_to_drop {}  history_fnv {}",
            self.workload,
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.cycles_to_drop,
            self.history_fnv
        );
        for m in &self.metrics {
            println!("  {:<36} {:>16.6e} {}", m.name, m.value, m.unit);
        }
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub smoke: bool,
    pub trace: bool,
    pub only: Vec<String>,
    pub out: Option<String>,
}

/// Run every workload `runs` times, each in its own child process, and
/// write the set. Returns false when any run was incorrect, any child
/// failed, or the two distributed backends disagree on the history.
pub fn run_set(args: &RunArgs) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| panic!("cannot find own binary: {e}"));
    let mut results: Vec<RunResult> = Vec::new();
    let mut ok = true;
    for run in 0..args.runs {
        for w in WORKLOADS {
            if !args.only.is_empty() && !args.only.iter().any(|o| o == w) {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .unwrap_or_else(|e| panic!("cannot run {}: {e}", exe.display()));
            let stdout = String::from_utf8_lossy(&out.stdout);
            match RunResult::from_stdout(&stdout) {
                Some(r) if out.status.success() => {
                    println!("run {run}:");
                    r.print_table();
                    ok &= r.correct;
                    results.push(r);
                }
                _ => {
                    eprintln!("{w}: child exited with {} and no result", out.status);
                    ok = false;
                }
            }
        }
        // One mesh, one partition, one cycle count: the two transports
        // must produce the same bits.
        let fnv_of = |w: &str| {
            results
                .iter()
                .rev()
                .find(|r| r.workload == w)
                .map(|r| r.history_fnv.clone())
        };
        if let (Some(d), Some(h)) = (fnv_of("delta_w64"), fnv_of("hybrid_w64")) {
            let same = d == h;
            println!(
                "run {run}: delta_w64.history_fnv {} hybrid_w64.history_fnv",
                if same { "==" } else { "!=" }
            );
            ok &= same;
        }
    }
    let default_out = if args.trace {
        "benchmark/out/layers.json".to_string()
    } else {
        format!("benchmark/out/run_seed{}.json", args.seed)
    };
    let path = args.out.clone().unwrap_or(default_out);
    let body: Vec<String> = results
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let text = format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"trace\": {}, \"nproc\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        args.smoke,
        args.trace,
        crate::host::nproc(),
        body.join(",\n")
    );
    if let Some(dir) = Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    ok
}

fn load_set(path: &str) -> Result<(u64, Vec<RunResult>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = j.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let runs = j
        .get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(RunResult::from_json)
        .collect();
    Ok((seed, runs))
}

/// (better, bound) of every end-to-end metric in `BENCHMARK.json`.
fn load_bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut bounds = BTreeMap::new();
    for m in j.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err(format!("{path}: malformed end_to_end entry"));
        };
        bounds.insert(name.to_string(), (better == "lower", bound));
    }
    Ok(bounds)
}

/// Units whose values are counts made by the program: they must repeat
/// exactly between two sets of one commit at one seed.
const EXACT_UNITS: [&str; 3] = ["count", "flop", "B"];

/// Per (workload, metric): both medians with quartiles, the relative
/// change in the worse direction, and the bound. Returns false on any
/// excess, any count that differs at equal seeds, or more failures in B.
pub fn compare(a_path: &str, b_path: &str, manifest: &str) -> Result<bool, String> {
    let (seed_a, a) = load_set(a_path)?;
    let (seed_b, b) = load_set(b_path)?;
    let bounds = load_bounds(manifest)?;
    let mut ok = true;
    let samples = |set: &[RunResult], w: &str, name: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w)
            .flat_map(|r| r.metrics.iter().filter(|m| m.name == name).map(|m| m.value))
            .collect()
    };
    println!(
        "{:<12} {:<28} {:>12} {:>24} {:>12} {:>24} {:>9} {:>7}",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "worse by",
        "bound"
    );
    for w in WORKLOADS {
        let Some(first) = a.iter().find(|r| r.workload == w) else {
            continue;
        };
        for m in &first.metrics {
            let (xa, xb) = (samples(&a, w, &m.name), samples(&b, w, &m.name));
            if xb.is_empty() {
                println!("{w:<12} {:<28} missing from B", m.name);
                ok = false;
                continue;
            }
            let ((a1, a2, a3), (b1, b2, b3)) = (quartiles(&xa), quartiles(&xb));
            let verdict = if let Some(&(lower_better, bound)) = bounds.get(&m.name) {
                let worse_by = if lower_better {
                    b2 / a2 - 1.0
                } else {
                    a2 / b2 - 1.0
                };
                let excess = worse_by > bound;
                ok &= !excess;
                format!(
                    "{:>+8.2}% {:>6.1}%{}",
                    100.0 * worse_by,
                    100.0 * bound,
                    if excess { "  EXCESS" } else { "" }
                )
            } else if EXACT_UNITS.contains(&m.unit.as_str()) && seed_a == seed_b {
                let same = xa.iter().chain(&xb).all(|x| *x == xa[0]);
                ok &= same;
                if same { "exact" } else { "DIFFERS" }.to_string()
            } else {
                String::new()
            };
            println!(
                "{w:<12} {:<28} {a2:>12.5e} [{a1:>10.4e}, {a3:>10.4e}] {b2:>12.5e} [{b1:>10.4e}, {b3:>10.4e}] {verdict}",
                m.name
            );
        }
        let fails = |set: &[RunResult]| -> (u64, u64) {
            set.iter()
                .filter(|r| r.workload == w)
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
        };
        let ((fa, na), (fb, nb)) = (fails(&a), fails(&b));
        let worse = fb as f64 / nb.max(1) as f64 > fa as f64 / na.max(1) as f64;
        ok &= !worse;
        println!(
            "{w:<12} {:<28} {fa}/{na} -> {fb}/{nb}{}",
            "fail_frac",
            if worse {
                "  EXCESS (no increase allowed)"
            } else {
                ""
            }
        );
        if seed_a == seed_b {
            let ids = |set: &[RunResult]| -> Vec<(u64, String)> {
                let mut v: Vec<_> = set
                    .iter()
                    .filter(|r| r.workload == w)
                    .map(|r| (r.cycles_to_drop, r.history_fnv.clone()))
                    .collect();
                v.sort();
                v.dedup();
                v
            };
            let same = ids(&a) == ids(&b) && ids(&a).len() == 1;
            ok &= same;
            println!(
                "{w:<12} {:<28} {}",
                "cycles_to_drop, history_fnv",
                if same { "exact" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}

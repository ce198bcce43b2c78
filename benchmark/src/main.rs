//! The repo's wall-clock referee. See `benchmark/README.md` for the
//! workload and metric dictionary.
//!
//! ```text
//! eul3d-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
//! eul3d-benchmark run   [--seed S] [--seconds N] [--runs R] [--smoke] [--workload W]... [--out F]
//! eul3d-benchmark trace [same flags]
//! eul3d-benchmark compare A.json B.json [--manifest BENCHMARK.json]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one
//! workload in this process, the result as one JSON object on the last
//! line of standard output. Run everything from the repository root:
//! scratch files and reports go to `benchmark/out/`.

mod dist;
mod host;
mod json;
mod probes;
mod report;
mod serve;
mod solver;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Metric;
use report::{RunArgs, RunResult};
use spec::{Size, END_TO_END, WORKLOADS};
use trace::Tracer;

/// `--flag value` pairs and bare words of a command line.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            pairs: Vec::new(),
            bare: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => f.pairs.push(("smoke".into(), "1".into())),
                Some(name) => {
                    let v = it.next().ok_or(format!("--{name} takes a value"))?;
                    f.pairs.push((name.to_string(), v.clone()));
                }
                None => f.bare.push(a.clone()),
            }
        }
        Ok(f)
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
            None => Ok(default),
        }
    }

    fn has(&self, name: &str) -> bool {
        !self.all(name).is_empty()
    }
}

/// One workload in this process: the mode the driver invokes.
fn driver(flags: &Flags) -> Result<bool, String> {
    let workload: String = flags.get("workload", String::new())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = flags.get("seed", 42)?;
    let seconds: f64 = flags.get("seconds", spec::SIZED_FOR_SECONDS)?;
    let trace = flags.get("trace", 0u8)? != 0;
    let size = if flags.has("smoke") {
        Size::smoke()
    } else {
        Size::full(seconds)
    };
    let mut tr = Tracer::new(trace);
    let (m, mut metrics) = if trace {
        let (m, values) = workloads::traced(&workload, seed, &size, &mut tr);
        let metrics = spec::per_layer()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: values.get(&name).copied().unwrap_or(f64::NAN),
                name,
                unit: unit.to_string(),
            })
            .collect::<Vec<_>>();
        (m, metrics)
    } else {
        let m = workloads::measure(&workload, seed, &size, None, &mut tr);
        let values = [m.setup_s, m.cycle_s, m.solve_s, host::peak_rss_mb()];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            })
            .collect::<Vec<_>>();
        (m, metrics)
    };
    // A value that could not be measured must not read as a number.
    let mut correct = m.failed == 0;
    for metric in &mut metrics {
        if !metric.value.is_finite() || (!trace && metric.value <= 0.0) {
            eprintln!("{workload}: {} was not measured", metric.name);
            metric.value = 0.0;
            correct = false;
        }
    }
    if trace {
        let path = format!("benchmark/out/trace_{workload}.json");
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, tr.chrome_json(&workload)))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("{workload}: {} spans -> {path}", tr.len());
    }
    let result = RunResult {
        workload,
        seed,
        correct,
        attempted: m.attempted as u64,
        failed: m.failed as u64,
        cycles_to_drop: m.cycles as u64,
        history_fnv: format!("{:016x}", m.fnv),
        metrics,
    };
    println!("{}", result.detail_line());
    println!("{}", result.result_line());
    Ok(true)
}

fn run_or_trace(flags: &Flags, trace: bool) -> Result<bool, String> {
    let only = flags.all("workload");
    if let Some(bad) = only.iter().find(|w| !WORKLOADS.contains(&w.as_str())) {
        return Err(format!("unknown workload '{bad}'"));
    }
    Ok(report::run_set(&RunArgs {
        seed: flags.get("seed", 42)?,
        seconds: flags.get("seconds", spec::SIZED_FOR_SECONDS)?,
        runs: flags.get("runs", 1)?,
        smoke: flags.has("smoke"),
        trace,
        only,
        out: flags.all("out").pop(),
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Flags::parse(&args).and_then(|flags| match flags.bare.first().map(String::as_str) {
            Some("run") => run_or_trace(&flags, false),
            Some("trace") => run_or_trace(&flags, true),
            Some("compare") => match &flags.bare[1..] {
                [a, b] => {
                    report::compare(a, b, &flags.get("manifest", "BENCHMARK.json".to_string())?)
                }
                _ => Err("compare takes two run-set files".to_string()),
            },
            Some(other) => Err(format!("unknown subcommand '{other}'")),
            None => driver(&flags),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("eul3d-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

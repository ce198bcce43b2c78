//! The one configuration loader of every command line — the `eul3d`
//! CLI and the paper's reproduction bins. A small, dependency-free flag
//! parser (`--key value` and `--switch` forms, typed accessors, an
//! unknown-flag check), the alias table that maps configuration flags
//! onto [`RunConfig`] keys, and [`Args::run_config`], which layers a
//! caller's base, a `--config` file and the flags into one validated
//! [`RunConfig`].

use std::collections::HashMap;

use crate::{Eul3dError, RunConfig};
use Scope::{Distributed, Mesh, Solve};

/// Which commands read a configuration flag. A command reads the rows
/// of its own scope and of every scope before it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum Scope {
    /// `mesh`, `partition` and up: the mesh family.
    Mesh,
    /// `solve` and `distributed`.
    Solve,
    /// `distributed` only.
    Distributed,
}

/// Every configuration flag is another spelling of one `RunConfig` key,
/// set through `RunConfig::set` exactly as a `--config` file entry or a
/// `--set key=value` would set it.
pub const ALIASES: &[(&str, &str, Scope)] = &[
    ("nx", "mesh.nx", Mesh),
    ("ny", "mesh.ny", Mesh),
    ("nz", "mesh.nz", Mesh),
    ("bump", "mesh.bump_height", Mesh),
    ("taper", "mesh.taper", Mesh),
    ("jitter", "mesh.jitter", Mesh),
    ("seed", "mesh.seed", Mesh),
    ("levels", "run.levels", Solve),
    ("coarse", "run.coarsening", Solve),
    ("cycles", "run.cycles", Solve),
    ("strategy", "run.strategy", Solve),
    ("scheme", "solver.scheme", Solve),
    ("mach", "solver.mach", Solve),
    ("alpha", "solver.alpha_deg", Solve),
    ("cfl", "solver.cfl", Solve),
    ("max-retries", "guard.max_retries", Solve),
    ("cfl-backoff", "guard.cfl_backoff", Solve),
    ("health-window", "guard.window", Solve),
    ("trace-capacity", "trace.capacity", Solve),
    ("trace-top", "trace.top_n", Solve),
    ("ranks", "run.nranks", Distributed),
    ("backend", "run.backend", Distributed),
    ("threads", "run.threads", Distributed),
    ("checkpoint-every", "run.checkpoint_every", Distributed),
    ("fault-timeout-ms", "run.fault_timeout_ms", Distributed),
    ("faults", "run.faults", Distributed),
    ("partition-method", "partition.method", Distributed),
    ("partition-mapping", "partition.mapping", Distributed),
    (
        "repartition-every",
        "partition.repartition_every",
        Distributed,
    ),
];

/// Parsed command line: a subcommand plus flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: Option<String>,
    values: HashMap<String, String>,
    switches: Vec<String>,
    /// `--set section.key=value` pairs, in command-line order.
    sets: Vec<(String, String)>,
    /// Flags consumed by accessors, each with whether it was read as a
    /// value (`true`) or a switch, for unknown-flag reporting.
    seen: std::cell::RefCell<Vec<(String, bool)>>,
}

impl Args {
    /// Parse `argv[1..]`: the first non-flag token is the subcommand;
    /// `--key value` pairs and bare `--switch`es follow. A flag given
    /// twice is an error, except the repeatable `--set`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty flag '--'".into());
                }
                // A flag followed by a non-flag token is a key/value pair.
                let value = it.next_if(|next| !next.starts_with("--"));
                if name == "set" {
                    let pair = value.and_then(|v| v.split_once('='));
                    let (key, v) = pair.ok_or("--set takes section.key=value")?;
                    args.sets.push((key.trim().to_string(), v.to_string()));
                    continue;
                }
                if args.values.contains_key(name) || args.switches.iter().any(|s| s == name) {
                    return Err(format!("--{name} given twice"));
                }
                match value {
                    Some(v) => {
                        args.values.insert(name.to_string(), v.clone());
                    }
                    None => args.switches.push(name.to_string()),
                }
            } else if args.command.is_none() {
                args.command = Some(tok.clone());
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(args)
    }

    fn note(&self, key: &str, value: bool) {
        self.seen.borrow_mut().push((key.to_string(), value));
    }

    /// Typed value with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.note(key, true);
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    /// Optional string value.
    pub fn get_str(&self, key: &str) -> Option<String> {
        self.note(key, true);
        self.values.get(key).cloned()
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.note(key, false);
        self.switches.iter().any(|s| s == key)
    }

    /// The configuration this command line sets, as `(flag, key, value)`
    /// rows: the alias flags `scope` reads, then (past [`Scope::Mesh`])
    /// every `--set`, whose flag is `set`. Two spellings of one key are
    /// the same error as a repeated flag.
    pub fn settings(&self, scope: Scope) -> Result<Vec<(String, String, String)>, String> {
        let mut rows = Vec::new();
        for &(flag, key, _) in ALIASES.iter().filter(|row| row.2 <= scope) {
            if let Some(v) = self.get_str(flag) {
                rows.push((flag.to_string(), key.to_string(), v));
            }
        }
        if scope > Scope::Mesh {
            self.note("set", true);
            for (key, v) in &self.sets {
                rows.push(("set".to_string(), key.clone(), v.clone()));
            }
        }
        for (i, (flag, key, _)) in rows.iter().enumerate() {
            if let Some((first, ..)) = rows[..i].iter().find(|row| &row.1 == key) {
                return Err(format!("{key} given twice (--{first} and --{flag})"));
            }
        }
        Ok(rows)
    }

    /// Apply the configuration flags `scope` reads, and every `--set`,
    /// to `rc`: each is one [`RunConfig::set`].
    pub fn apply(&self, scope: Scope, rc: &mut RunConfig) -> Result<(), String> {
        let rows = self.settings(scope)?;
        let entries: Vec<(&str, &str)> = rows
            .iter()
            .map(|(_, k, v)| (k.as_str(), v.as_str()))
            .collect();
        rc.set_all(&entries)
            .map_err(|(i, e)| format!("--{}: {e}", rows[i].0))
    }

    /// The [`RunConfig`] of this command line: `base`, then the
    /// `--config run.toml` file when given, then [`Args::apply`], then
    /// the [`RunConfig::validate`] every entry point shares. A key of
    /// `owned`, which the caller sets itself or does not read (paired
    /// with how, e.g. `"swept by --ranks"`), is refused from every layer;
    /// an owned `[section]` refuses its header and every key in it.
    pub fn run_config(
        &self,
        scope: Scope,
        mut rc: RunConfig,
        owned: &[(&str, &str)],
    ) -> Result<RunConfig, String> {
        let covers = |o: &str, key: &str| {
            o == key
                || o.strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .and_then(|s| key.strip_prefix(s))
                    .is_some_and(|rest| rest.starts_with('.'))
        };
        let refuse = |key: &str, from: String| match owned.iter().find(|o| covers(o.0, key)) {
            Some((_, how)) => Err(format!("{from}: {key} is {how}")),
            None => Ok(()),
        };
        if let Some(path) = self.get_str("config") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("--config {path}: {e}"))?;
            let keys = rc
                .merge_toml(&text)
                .map_err(|e| format!("--config {path}: {e}"))?;
            for key in keys {
                refuse(&key, format!("--config {path}"))?;
            }
        }
        for (flag, key, _) in self.settings(scope)? {
            refuse(&key, format!("--{flag}"))?;
        }
        self.apply(scope, &mut rc)?;
        rc.validate().map_err(|e| match e {
            // The only Delta error `validate` raises is the fault plan's.
            Eul3dError::Delta(d) => format!("--faults: {d}"),
            other => other.to_string(),
        })?;
        Ok(rc)
    }

    /// After all accessors ran: error on any flag the command ignored,
    /// and on a switch given a value (`--no-incremental 0`) or a value
    /// flag given none (`--nx --levels 2`), which it would ignore too.
    pub fn check_unknown(&self) -> Result<(), String> {
        let seen = self.seen.borrow();
        let read_as = |k: &str, value: bool| seen.iter().any(|s| s.0 == k && s.1 == value);
        let set = self.sets.first().map(|_| "set".to_string());
        let values = self.values.keys().chain(&set).map(|k| (k, true));
        for (k, value) in values.chain(self.switches.iter().map(|k| (k, false))) {
            if !read_as(k, value) {
                return Err(match (read_as(k, !value), value) {
                    (false, _) => format!("unknown flag --{k}"),
                    (true, true) => format!("--{k} is a switch; it takes no value"),
                    (true, false) => format!("--{k} takes a value"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_values_switches() {
        let a = Args::parse(&sv(&["solve", "--nx", "24", "--fmg", "--mach", "0.7"])).unwrap();
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.get::<usize>("nx", 0).unwrap(), 24);
        assert_eq!(a.get::<f64>("mach", 0.0).unwrap(), 0.7);
        assert!(a.has("fmg"));
        assert!(!a.has("vtk"));
        a.check_unknown().unwrap();
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&sv(&["mesh"])).unwrap();
        assert_eq!(a.get::<usize>("nx", 16).unwrap(), 16);
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = Args::parse(&sv(&["solve", "--nx", "abc"])).unwrap();
        assert!(a.get::<usize>("nx", 0).is_err());
    }

    #[test]
    fn unknown_flags_are_reported() {
        let a = Args::parse(&sv(&["solve", "--bogus", "1"])).unwrap();
        let _ = a.get::<usize>("nx", 0);
        assert!(a.check_unknown().is_err());
    }

    #[test]
    fn a_switch_takes_no_value_and_a_value_flag_needs_one() {
        let a = Args::parse(&sv(&["distributed", "--no-incremental", "0"])).unwrap();
        assert!(!a.has("no-incremental"));
        let err = a.check_unknown().unwrap_err();
        assert!(err.contains("--no-incremental is a switch"), "{err}");

        let a = Args::parse(&sv(&["solve", "--nx", "--fmg"])).unwrap();
        assert_eq!(a.get_str("nx"), None);
        a.has("fmg");
        assert_eq!(a.check_unknown().unwrap_err(), "--nx takes a value");

        // A flag read both ways (`--trace [out.json]`) takes either form.
        for argv in [&["solve", "--trace"][..], &["solve", "--trace", "t.json"]] {
            let a = Args::parse(&sv(argv)).unwrap();
            a.get_str("trace");
            a.has("trace");
            a.check_unknown().unwrap();
        }
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(Args::parse(&sv(&["solve", "extra"])).is_err());
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        for argv in [
            &["solve", "--nx", "8", "--nx", "12"][..],
            &["solve", "--cycles", "1", "--cycles", "0"],
            &["solve", "--fmg", "--fmg"],
            &["solve", "--trace", "--trace", "t.json"],
        ] {
            let err = Args::parse(&sv(argv)).unwrap_err();
            assert!(err.contains("given twice"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn set_repeats_but_not_onto_a_key_already_set() {
        let a = Args::parse(&sv(&[
            "solve",
            "--nx",
            "8",
            "--set",
            "solver.k4=0.02",
            "--set",
            "solver.coarse_k2=0.25",
        ]))
        .unwrap();
        let rows = a.settings(Scope::Solve).unwrap();
        let keys: Vec<&str> = rows.iter().map(|r| r.1.as_str()).collect();
        assert_eq!(keys, ["mesh.nx", "solver.k4", "solver.coarse_k2"]);
        a.check_unknown().unwrap();

        for argv in [
            &["solve", "--nx", "8", "--set", "mesh.nx=12"][..],
            &["solve", "--set", "mesh.nx=8", "--set", "mesh.nx=12"],
        ] {
            let a = Args::parse(&sv(argv)).unwrap();
            let err = a.settings(Scope::Solve).unwrap_err();
            assert!(err.contains("mesh.nx given twice"), "{argv:?}: {err}");
        }
        assert!(Args::parse(&sv(&["solve", "--set", "mesh.nx"])).is_err());
        assert!(Args::parse(&sv(&["solve", "--set"])).is_err());
    }

    #[test]
    fn scopes_gate_the_alias_rows() {
        let a = Args::parse(&sv(&["mesh", "--ranks", "4", "--set", "mesh.nx=8"])).unwrap();
        assert!(a.settings(Scope::Mesh).unwrap().is_empty());
        assert!(
            a.check_unknown().is_err(),
            "mesh takes neither --ranks nor --set"
        );
        let a = Args::parse(&sv(&["distributed", "--ranks", "4"])).unwrap();
        assert_eq!(a.settings(Scope::Distributed).unwrap().len(), 1);
        a.check_unknown().unwrap();
    }

    #[test]
    fn every_alias_names_a_key_of_the_file_format() {
        for (flag, key, _) in ALIASES {
            assert!(RunConfig::keys().any(|k| k == *key), "--{flag} -> {key}");
        }
    }

    #[test]
    fn switch_before_pair() {
        let a = Args::parse(&sv(&["run", "--quiet", "--n", "3"])).unwrap();
        assert!(a.has("quiet"));
        assert_eq!(a.get::<u32>("n", 0).unwrap(), 3);
    }
}

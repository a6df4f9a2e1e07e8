//! Hand-rolled argument parsing for the `zatel` binary (kept
//! dependency-free; the grammar is small and fully unit-tested).

use std::collections::HashMap;

/// A parsed command line: subcommand, `--key value` options and flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs.
    options: HashMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
}

/// Error produced when the command line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Option keys that take a value; everything else with a `--` prefix is a
/// boolean flag.
const VALUE_KEYS: [&str; 42] = [
    "scene",
    "config",
    "res",
    "spp",
    "seed",
    "percent",
    "cap",
    "k",
    "division",
    "dist",
    "out",
    "jobs",
    "trace-out",
    "run-out",
    "run",
    "history",
    "pgm",
    "prom",
    "percents",
    "ks",
    "spec",
    "cache-dir",
    "runs-out",
    "root",
    "baseline",
    "url",
    "addr",
    "workers",
    "queue",
    "sim-jobs",
    "deadline-ms",
    "log-out",
    "request-id",
    "cache-budget-mb",
    "record",
    "replay",
    "requests",
    "unique",
    "scenes",
    "qps",
    "concurrency",
    "bench-out",
];

impl Args {
    /// Parses the given argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on a missing subcommand, a value key
    /// without a value, or repeated keys.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ParseArgsError> {
        let mut it = argv.into_iter().peekable();
        let command = it
            .next()
            .filter(|c| !c.starts_with("--"))
            .ok_or_else(|| ParseArgsError("expected a subcommand first".into()))?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ParseArgsError(format!(
                    "unexpected positional argument '{token}'"
                )));
            };
            if VALUE_KEYS.contains(&key) {
                let value = it
                    .next()
                    .ok_or_else(|| ParseArgsError(format!("--{key} requires a value")))?;
                if args.options.insert(key.to_owned(), value).is_some() {
                    return Err(ParseArgsError(format!("--{key} given twice")));
                }
            } else {
                args.flags.push(key.to_owned());
            }
        }
        Ok(args)
    }

    /// Raw string value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--key` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("--{key} value '{v}' is not valid"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ParseArgsError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("predict --scene PARK --res 128 --reference --json").unwrap();
        assert_eq!(a.command, "predict");
        assert_eq!(a.get("scene"), Some("PARK"));
        assert_eq!(a.get_parsed("res", 0u32).unwrap(), 128);
        assert!(a.flag("reference"));
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn jobs_takes_a_value_and_progress_is_a_flag() {
        let a = parse("predict --jobs 3 --progress").unwrap();
        assert_eq!(a.get_parsed("jobs", 0usize).unwrap(), 3);
        assert!(a.flag("progress"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("predict").unwrap();
        assert_eq!(a.get_parsed("res", 96u32).unwrap(), 96);
        assert_eq!(a.get("scene"), None);
    }

    #[test]
    fn missing_subcommand_is_error() {
        assert!(parse("").is_err());
        assert!(parse("--scene PARK").is_err());
    }

    #[test]
    fn value_key_without_value_is_error() {
        assert!(parse("predict --scene").is_err());
    }

    #[test]
    fn duplicate_key_is_error() {
        assert!(parse("predict --scene A --scene B").is_err());
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse("predict --res twelve").unwrap();
        assert!(a.get_parsed("res", 0u32).is_err());
    }

    #[test]
    fn positional_after_command_is_error() {
        assert!(parse("predict PARK").is_err());
    }
}

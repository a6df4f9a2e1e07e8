//! Hand-rolled argument parsing for the `zatel` binary (kept
//! dependency-free; the grammar is small and fully unit-tested).

use std::collections::HashMap;

/// A parsed command line: subcommand, `--key value` options and flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs.
    options: HashMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
}

/// Error produced when the command line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl From<ParseArgsError> for String {
    fn from(e: ParseArgsError) -> String {
        e.to_string()
    }
}

/// Option keys that take a value (`zatel help` lists which command reads
/// each).
#[rustfmt::skip]
const VALUE_KEYS: [&str; 32] = [
    "scene", "config", "res", "spp", "seed", "percent", "cap", "k", "division", "dist", "jobs",
    "url", "trace-out", "run-out", "log-out", "request-id", "percents", "ks", "spec", "runs-out",
    "cache-dir", "addr", "workers", "queue", "sim-jobs", "deadline-ms", "cache-budget-mb",
    "run", "history", "pgm", "prom", "out",
];

/// Bare `--flag` switches; any other `--` argument is an error.
const FLAGS: [&str; 5] = [
    "json",
    "no-downscale",
    "progress",
    "reference",
    "regression",
];

impl Args {
    /// Parses the given argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on a missing subcommand, an unknown
    /// option, a value key without a value, or repeated keys.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ParseArgsError> {
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
            } else if FLAGS.contains(&key) {
                args.flags.push(key.to_owned());
            } else {
                return Err(ParseArgsError(format!("unknown option '--{key}'")));
            }
        }
        Ok(args)
    }

    /// Raw string value of `--key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean `--flag` was given.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--key` as `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the value does not parse.
    pub(crate) fn parsed<T: std::str::FromStr>(
        &self,
        key: &str,
    ) -> Result<Option<T>, ParseArgsError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{key} value '{v}' is not valid"))
        };
        self.get(key).map(parse).transpose().map_err(ParseArgsError)
    }

    /// Parses `--key` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the value does not parse.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        Ok(self.parsed(key)?.unwrap_or(default))
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
    fn unknown_option_is_error() {
        let err = parse("predict --scene SPRNG --refrence").unwrap_err();
        assert!(err.0.contains("unknown option '--refrence'"), "{err}");
        // Keys no command reads are unknown too, with or without a value.
        assert!(parse("predict --qps 5").is_err());
        assert!(parse("predict --quiet").is_err());
    }

    #[test]
    fn positional_after_command_is_error() {
        assert!(parse("predict PARK").is_err());
    }
}

//! Hand-rolled argument parsing for the `zatel` binary (kept
//! dependency-free; the grammar is small and fully unit-tested). Each
//! [`Command`] lists the options it reads once; its parser and its usage
//! text both read that list.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One usage line of a command's options: the option as written
/// (`--res N` takes a value, `--json` is a flag) and its help. A line with
/// an empty head continues the help above it.
pub(crate) type Opt = (&'static str, &'static str);

/// A subcommand: what it does, the options it reads and the function that
/// runs it.
pub(crate) struct Command {
    pub name: &'static str,
    /// Usage lines printed before the options.
    pub about: &'static str,
    pub options: &'static [&'static [Opt]],
    pub run: fn(&Args) -> Result<(), String>,
}

/// The key of an option's usage head: `res` for `--res N`.
fn key_of(head: &str) -> Option<&str> {
    head.strip_prefix("--")?.split(' ').next()
}

impl Command {
    fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.options.iter().flat_map(|group| group.iter())
    }

    /// The head of `--key`'s usage line, if the command reads it.
    fn option(&self, key: &str) -> Option<&'static str> {
        let mut heads = self.options().map(|(head, _)| *head);
        heads.find(|head| key_of(head) == Some(key))
    }

    /// The usage `zatel <command> --help` prints.
    pub(crate) fn usage(&self) -> String {
        let mut out = format!("usage: zatel {}", self.name);
        if !self.options.is_empty() {
            out.push_str(" [options]");
        }
        out.push('\n');
        for line in self.about.lines() {
            let _ = writeln!(out, "  {line}");
        }
        for (head, help) in self.options() {
            let _ = writeln!(out, "  {head:<19} {help}");
        }
        out
    }
}

/// A parsed command line: subcommand, `--key value` options and flags.
pub(crate) struct Args {
    /// The subcommand (the first argument).
    pub command: &'static Command,
    /// `--help` or `-h` came after the subcommand.
    pub help: bool,
    /// `--key value` pairs; a bare `--flag` maps to an empty value.
    options: HashMap<String, String>,
}

/// Whether `arg` asks for usage.
pub(crate) fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// The error a command line that cannot be parsed gets.
fn invalid(message: String) -> String {
    format!("invalid arguments: {message}")
}

impl Args {
    /// Parses the given argument list (without the program name) against
    /// the options its subcommand in `commands` reads. With `--help` or
    /// `-h` anywhere after the subcommand nothing else is parsed.
    ///
    /// # Errors
    ///
    /// Returns a message on a missing or unknown subcommand, an option the
    /// subcommand does not read, a value key without a value, or repeated
    /// keys.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(
        commands: &'static [Command],
        argv: I,
    ) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let name = it
            .next()
            .filter(|c| !c.starts_with("--"))
            .ok_or_else(|| invalid("expected a subcommand first".into()))?;
        let command = commands
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| invalid(format!("unknown subcommand '{name}'; try 'zatel help'")))?;
        let rest: Vec<String> = it.collect();
        let mut args = Args {
            command,
            help: rest.iter().any(|a| is_help(a)),
            options: HashMap::new(),
        };
        if args.help {
            return Ok(args);
        }
        let mut it = rest.into_iter();
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(invalid(format!("unexpected positional argument '{token}'")));
            };
            let Some(head) = command.option(key) else {
                return Err(invalid(format!("unknown option '--{key}'")));
            };
            let value = if head.contains(' ') {
                let missing = || invalid(format!("--{key} requires a value"));
                it.next().ok_or_else(missing)?
            } else {
                String::new()
            };
            if args.options.insert(key.to_owned(), value).is_some() {
                return Err(invalid(format!("--{key} given twice")));
            }
        }
        Ok(args)
    }

    /// Raw string value of `--key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.command.option(key).is_some(),
            "zatel {} reads --{key} but does not list it",
            self.command.name
        );
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean `--flag` was given.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parses `--key` as `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub(crate) fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| invalid(format!("--{key} value '{v}' is not valid")))
        };
        self.get(key).map(parse).transpose()
    }

    /// Parses `--key` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::COMMANDS;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&COMMANDS, s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("predict --scene PARK --res 128 --reference --json").unwrap();
        assert_eq!(a.command.name, "predict");
        assert_eq!(a.get("scene"), Some("PARK"));
        assert_eq!(a.get_parsed("res", 0u32).unwrap(), 128);
        assert!(a.flag("reference"));
        assert!(a.flag("json"));
        assert!(!a.flag("progress"));
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
        let Err(err) = parse("predict --scene SPRNG --refrence") else {
            panic!("a misspelt option parsed");
        };
        assert!(err.contains("unknown option '--refrence'"), "{err}");
        // Keys no command reads are unknown too, with or without a value.
        assert!(parse("predict --qps 5").is_err());
        assert!(parse("predict --quiet").is_err());
    }

    #[test]
    fn positional_after_command_is_error() {
        assert!(parse("predict PARK").is_err());
    }

    #[test]
    fn every_usage_lists_exactly_the_keys_its_parser_accepts() {
        let keys: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(Command::options)
            .filter_map(|(head, _)| key_of(head))
            .collect();
        for command in &COMMANDS {
            let usage = command.usage();
            let listed: BTreeSet<&str> = usage
                .lines()
                .filter_map(|line| line.strip_prefix("  --")?.split_whitespace().next())
                .collect();
            // A flag parses alone, a value key with a value after it.
            let accepts = |key: &str| {
                [None, Some("1")].into_iter().any(|value| {
                    let argv = [command.name.to_owned(), format!("--{key}")];
                    let argv = argv.into_iter().chain(value.map(String::from));
                    Args::parse(&COMMANDS, argv).is_ok()
                })
            };
            let accepted: BTreeSet<&str> = keys.iter().copied().filter(|k| accepts(k)).collect();
            assert_eq!(listed, accepted, "zatel {}", command.name);
        }
    }
}

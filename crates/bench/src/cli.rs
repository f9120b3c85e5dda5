//! Shared command-line conventions for the workspace binaries.
//!
//! Every CLI (`salam_report`, `salam_lint`, `salam_serve`, `salam_client`
//! and the benchmark driver) speaks the same dialect:
//!
//! * `--help` / `-h` prints usage to stdout and exits [`EXIT_OK`];
//! * unknown flags and malformed values print usage to stderr and exit
//!   [`EXIT_USAGE`];
//! * a run that completes but has findings (lint errors, violated
//!   invariants, a server-side rejection) exits [`EXIT_FINDINGS`];
//! * `--json` selects machine-readable output where the tool has one.
//!
//! [`Args`] is a deliberately small remove-as-you-match parser: binaries
//! pull out their flags and options, then call [`Args::finish`] to collect
//! positionals — anything left that still looks like a flag is a usage
//! error, so typos can't silently become positional arguments.

/// Successful run, no findings.
pub const EXIT_OK: i32 = 0;
/// The tool ran to completion and found problems (lint errors, a violated
/// invariant, a rejected submission).
pub const EXIT_FINDINGS: i32 = 1;
/// Bad invocation: unknown flag, missing value, malformed argument.
pub const EXIT_USAGE: i32 = 2;

/// One binary's argument list, consumed flag-by-flag.
pub struct Args {
    program: &'static str,
    usage: &'static str,
    args: Vec<String>,
}

impl Args {
    /// Captures `std::env::args`, handling `--help`/`-h` immediately
    /// (usage to stdout, exit 0).
    pub fn parse(program: &'static str, usage: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("usage: {program} {usage}");
            std::process::exit(EXIT_OK);
        }
        Args {
            program,
            usage,
            args,
        }
    }

    /// A parser over an explicit argument list (tests).
    pub fn from_vec(program: &'static str, usage: &'static str, args: Vec<String>) -> Self {
        Args {
            program,
            usage,
            args,
        }
    }

    /// Prints an error plus usage to stderr and exits [`EXIT_USAGE`].
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.program);
        eprintln!("usage: {} {}", self.program, self.usage);
        std::process::exit(EXIT_USAGE);
    }

    /// Consumes a boolean flag; `true` if it was present (any number of
    /// times).
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Consumes `name VALUE`; usage error when the value is missing.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let i = self.args.iter().position(|a| a == name)?;
        if i + 1 >= self.args.len() {
            self.fail(&format!("{name} needs a value"));
        }
        let value = self.args.remove(i + 1);
        self.args.remove(i);
        Some(value)
    }

    /// Consumes every `name VALUE` occurrence, in order (repeatable
    /// options like `--limit FU=N`).
    pub fn opts(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        while let Some(v) = self.opt(name) {
            values.push(v);
        }
        values
    }

    /// Consumes `name VALUE` and parses it; usage error on a bad number.
    pub fn opt_u64(&mut self, name: &str) -> Option<u64> {
        self.opt(name).map(|v| {
            v.parse::<u64>()
                .unwrap_or_else(|_| self.fail(&format!("{name} expects a number, got '{v}'")))
        })
    }

    /// Returns the remaining positional arguments; any leftover `-`-prefixed
    /// token is a usage error (an unknown flag, not a positional).
    pub fn finish(self) -> Vec<String> {
        if let Some(stray) = self.args.iter().find(|a| a.starts_with('-')) {
            self.fail(&format!("unknown flag '{stray}'"));
        }
        self.args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_vec("t", "u", v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_options_and_positionals_separate() {
        let mut a = args(&[
            "gemm", "--json", "--out", "x.json", "--limit", "a=1", "--limit", "b=2",
        ]);
        assert!(a.flag("--json"));
        assert!(!a.flag("--json"), "consumed");
        assert_eq!(a.opt("--out").as_deref(), Some("x.json"));
        assert_eq!(a.opts("--limit"), vec!["a=1", "b=2"]);
        assert_eq!(a.finish(), vec!["gemm"]);
    }

    #[test]
    fn numeric_options_parse() {
        let mut a = args(&["--ports", "4"]);
        assert_eq!(a.opt_u64("--ports"), Some(4));
        assert_eq!(a.opt_u64("--absent"), None);
        assert!(a.finish().is_empty());
    }
}

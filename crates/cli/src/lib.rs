//! Library backing the `kecss` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; everything else lives here so
//! that argument parsing and command execution are unit-tested. Instance and
//! solution files are read and written by [`graphs::io`].
//!
//! Supported commands (see `kecss help`):
//!
//! * `generate` — write a synthetic k-edge-connected instance to a `.graph`
//!   (text) or `.graphb` (`KGB1` binary, DESIGN.md §10) file; the format is
//!   picked from the extension everywhere an instance is read or written.
//! * `solve` — read an instance (either format), run one of the paper's
//!   algorithms (`2ecss`, `kecss`, `3ecss`, `3ecss-weighted`, or the
//!   baselines), print the solution summary and optionally write the chosen
//!   edges.
//! * `verify` — check a solution file for k-edge-connectivity against its
//!   instance.
//! * `convert` — translate an instance between the text and binary formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use graphs::io::GraphIoError;
use std::fmt;

/// Errors surfaced to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be parsed.
    Usage(String),
    /// An input file could not be read or parsed.
    Io(std::io::Error),
    /// An instance or solution file was malformed.
    Format(String),
    /// The solver rejected the instance.
    Solver(kecss::Error),
    /// A service interaction (`kecss submit`) failed: connection trouble, a
    /// protocol violation, a failed job, or a result that did not verify.
    Service(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Format(msg) => write!(f, "format error: {msg}"),
            CliError::Solver(e) => write!(f, "solver error: {e}"),
            CliError::Service(msg) => write!(f, "service error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(value: std::io::Error) -> Self {
        CliError::Io(value)
    }
}

impl From<kecss::Error> for CliError {
    fn from(value: kecss::Error) -> Self {
        CliError::Solver(value)
    }
}

/// Instance and solution files are read and written by [`graphs::io`]
/// (shared with the service's `file:` instances); `?` turns its errors into
/// these.
impl From<GraphIoError> for CliError {
    fn from(value: GraphIoError) -> Self {
        match value {
            GraphIoError::Io(e) => CliError::Io(e),
            GraphIoError::Format(msg) => CliError::Format(msg),
        }
    }
}

/// Parses the arguments and runs the corresponding command, writing its
/// report to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; the binary prints it and
/// exits non-zero.
pub fn run<W: std::io::Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let command = args::parse(argv)?;
    commands::execute(command, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_help_succeeds() {
        let mut out = Vec::new();
        run(&["help".to_string()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("generate"));
        assert!(text.contains("solve"));
        assert!(text.contains("verify"));
    }

    #[test]
    fn text_in_a_graphb_file_is_a_format_error() {
        // The binary reader refuses a text file rather than mis-parsing it,
        // and the command surfaces that as a format error.
        let dir = std::env::temp_dir().join("kecss-cli-lib-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (input, output) = (dir.join("textual.graphb"), dir.join("converted.graph"));
        std::fs::write(&input, "3\n0 1 5\n").unwrap();
        let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
        let argv = ["convert", "--input", input, "--output", output].map(String::from);
        let err = run(&argv, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CliError::Format(_)), "{err:?}");
    }

    #[test]
    fn run_unknown_command_is_a_usage_error() {
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("usage"));
    }
}

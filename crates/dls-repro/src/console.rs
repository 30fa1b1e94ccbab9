//! Console output that cannot panic.
//!
//! `println!` and `eprintln!` panic when their stream is a closed pipe
//! (`repro list | head -1`), and a heartbeat printed from a campaign
//! worker would kill that worker. Every line the harness prints goes
//! through this module instead:
//!
//! * [`outln!`](crate::outln) writes to stdout and returns a `Result`: a
//!   closed stdout ends the command with [`ReproError::StdoutClosed`]
//!   (exit 141, what a shell reports for a writer that SIGPIPE killed), any
//!   other write failure is [`ReproError::Io`];
//! * [`errln!`](crate::errln) writes a diagnostic to stderr on a best-effort
//!   basis: a failed write is ignored, because a lost warning must never
//!   end a campaign.
//!
//! SIGPIPE keeps Rust's ignored disposition on purpose: `repro serve`
//! writes to client sockets, and a client that hangs up must not kill the
//! server.

use crate::error::ReproError;
use std::io::Write;

/// Writes `args` and a newline to stdout and flushes, so a closed pipe is
/// reported by the line that hit it. Use through [`outln!`](crate::outln).
pub fn out_line(args: std::fmt::Arguments<'_>) -> Result<(), ReproError> {
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_fmt(args).and_then(|()| stdout.write_all(b"\n"));
    written.and_then(|()| stdout.flush()).map_err(|e| match e.kind() {
        std::io::ErrorKind::BrokenPipe => ReproError::StdoutClosed,
        _ => ReproError::io(format!("stdout: {e}")),
    })
}

/// Writes `args` and a newline to stderr, ignoring a failed write. Use
/// through [`errln!`](crate::errln).
pub fn err_line(args: std::fmt::Arguments<'_>) {
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_fmt(args).and_then(|()| stderr.write_all(b"\n"));
}

/// `println!` that returns `Result<(), ReproError>` instead of panicking
/// on a closed stdout.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::console::out_line(format_args!($($arg)*))
    };
}

/// `eprintln!` that ignores a closed stderr instead of panicking.
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::console::err_line(format_args!($($arg)*))
    };
}

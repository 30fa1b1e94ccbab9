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
//! Library diagnostics (a quarantined journal line, a degraded artifact, a
//! cache warm-up) go through `eprintln!` until a binary calls
//! [`direct_stderr`]: that is the path the test harness captures, so a
//! passing test prints nothing. `repro` calls [`direct_stderr`] first
//! thing, and from then on every line goes straight to the stderr handle
//! and a closed stderr cannot panic.
//!
//! SIGPIPE keeps Rust's ignored disposition on purpose: `repro serve`
//! writes to client sockets, and a client that hangs up must not kill the
//! server.

use crate::error::ReproError;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`err_line`] writes straight to the stderr handle.
static DIRECT_STDERR: AtomicBool = AtomicBool::new(false);

/// Sends every later [`errln!`](crate::errln) line straight to the
/// process's stderr handle, ignoring a failed write. A binary calls this
/// at the top of `main`.
pub fn direct_stderr() {
    DIRECT_STDERR.store(true, Ordering::Relaxed);
}

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

/// Writes `args` and a newline to stderr: after [`direct_stderr`] straight
/// to the handle, ignoring a failed write; before it through `eprintln!`,
/// which the test harness captures. Use through [`errln!`](crate::errln).
pub fn err_line(args: std::fmt::Arguments<'_>) {
    if DIRECT_STDERR.load(Ordering::Relaxed) {
        let mut stderr = std::io::stderr().lock();
        let _ = stderr.write_fmt(args).and_then(|()| stderr.write_all(b"\n"));
    } else {
        eprintln!("{args}");
    }
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

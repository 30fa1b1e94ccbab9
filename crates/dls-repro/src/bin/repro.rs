//! `repro` — regenerate the paper's tables and figures from the command
//! line. `repro` without arguments prints the usage text, generated from
//! the command and option tables in [`dls_repro::cli`]; failures exit
//! with the classified codes of [`dls_repro::error`].

use dls_repro::runner::CancelFlag;
use std::process::ExitCode;
use std::sync::OnceLock;

/// The process-wide cancellation flag, set from the SIGINT handler and
/// shared by every campaign the command runs.
static GLOBAL_CANCEL: OnceLock<CancelFlag> = OnceLock::new();

/// Graceful-interrupt plumbing. The first Ctrl-C only raises the shared
/// [`CancelFlag`] (an atomic store, which is async-signal-safe); campaigns
/// notice it between runs, flush their journal, and exit 130. A second
/// Ctrl-C aborts immediately for users who really mean it.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SEEN: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if SEEN.swap(true, Ordering::SeqCst) {
            std::process::abort();
        }
        if let Some(flag) = super::GLOBAL_CANCEL.get() {
            flag.cancel();
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

fn main() -> ExitCode {
    dls_repro::console::direct_stderr();
    // Initialized before the handler can fire.
    let cancel = GLOBAL_CANCEL.get_or_init(CancelFlag::new).clone();
    #[cfg(unix)]
    sigint::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    dls_repro::cli::main(&args, cancel)
}

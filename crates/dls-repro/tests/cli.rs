//! Runs the `repro` binary itself: exit codes, closed console streams, the
//! generated usage text, and stdout goldens of the table commands.

use dls_repro::cli::{COMMANDS, OPTIONS};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

/// A fresh scratch directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The write end of a pipe whose read end is already closed: every write
/// to it fails with `EPIPE`, like `repro … | head -1` after `head` exits.
fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer.into()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn closed_stdout_exits_141_without_a_panic() {
    let out = repro(&["list"]).stdout(closed_pipe()).output().unwrap();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `repro fig9 --log f 2>&1 | head -1`: the usage text goes to a closed
/// stream, and the usage error still decides the exit code.
#[test]
fn a_usage_error_on_closed_streams_still_exits_2() {
    let out = repro(&["fig9", "--log", "f"])
        .stdout(closed_pipe())
        .stderr(closed_pipe())
        .status()
        .unwrap();
    assert_eq!(out.code(), Some(2));
}

#[test]
fn closed_stderr_leaves_a_campaign_and_its_outputs_unchanged() {
    let args = ["fig5", "--runs", "4", "--log", "f.jsonl", "--csv", "c"];
    let run = |name: &str, stderr: Stdio| {
        let dir = scratch(name);
        let out = repro(&args).current_dir(&dir).stderr(stderr).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr_of(&out));
        let csv = std::fs::read(dir.join("c/fig5.csv")).unwrap();
        assert!(dir.join("f.jsonl").exists(), "{name}: the log landed");
        let _ = std::fs::remove_dir_all(&dir);
        (out.stdout, csv)
    };
    let normal = run("stderr-open", Stdio::piped());
    let closed = run("stderr-closed", closed_pipe());
    assert_eq!(String::from_utf8_lossy(&closed.0), String::from_utf8_lossy(&normal.0));
    assert_eq!(closed.1, normal.1, "the CSV does not depend on stderr");
}

/// Library warnings stay quiet under `cargo test` but the binary still
/// prints them: a log that cannot land is a degraded artifact (exit 6),
/// named on stderr.
#[test]
fn the_binary_prints_library_warnings() {
    let dir = scratch("warning");
    let out = repro(&["fig5", "--runs", "2", "--pes", "2", "--log", "missing/f.jsonl"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(6), "{stderr}");
    assert!(stderr.contains("warning: degraded artifact missing/f.jsonl"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_names_every_command_and_option() {
    let out = repro(&[]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr_of(&out);
    for c in COMMANDS {
        assert!(usage.contains(&format!("\n  {} ", c.name)), "usage lacks command {}", c.name);
    }
    for o in OPTIONS {
        assert!(usage.contains(&format!("\n  {} ", o.name)), "usage lacks option {}", o.name);
    }
}

#[test]
fn unknown_commands_and_unread_options_exit_2() {
    for (args, message) in [
        (&["nonsense"][..], "unknown command `nonsense`"),
        (&["fig9", "--log", "f.jsonl"], "`fig9` does not read option `--log`"),
        (&["serve", "--threads", "2"], "`serve` does not read option `--threads`"),
        (&["fig5", "--pes", "0"], "--pes must be at least 1"),
        (&["fig5", "--pes", "2,0"], "--pes must be at least 1"),
        (&["sweep", "--pes", "0"], "--pes must be at least 1"),
        (&["faults", "--pes", "0"], "--pes must be at least 1"),
        (&["verify", "--pes", "0"], "--pes must be at least 1"),
        (&["fig5", "--runs", "0"], "--runs must be at least 1"),
        (&["fig6", "--threads", "0"], "--threads must be at least 1"),
    ] {
        let out = repro(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr_of(&out).contains(message), "{args:?}: {}", stderr_of(&out));
    }
}

#[test]
fn table_commands_match_their_goldens() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in ["list", "table2"] {
        let out = repro(&[name]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}");
        let want = std::fs::read(golden.join(format!("{name}.txt"))).unwrap();
        assert!(out.stdout == want, "{name} stdout differs from tests/golden/{name}.txt");
    }
}

/// The build identity in a journal header is the revision of the tree the
/// binary was built from, whichever directory it runs in.
#[test]
fn the_journal_header_names_the_build_wherever_it_runs() {
    let header_rev = |cwd: &Path, name: &str| {
        let dir = scratch(name);
        let out = repro(&["fig5", "--runs", "1", "--pes", "2", "--techniques", "SS", "--resume"])
            .arg(&dir)
            .current_dir(cwd)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let header = journal.lines().next().unwrap();
        let rev = header.split(r#""git_rev":""#).nth(1).unwrap().split('"').next().unwrap();
        let rev = rev.to_string();
        let _ = std::fs::remove_dir_all(&dir);
        rev
    };
    let in_repo = header_rev(Path::new(env!("CARGO_MANIFEST_DIR")), "rev-in-repo");
    let outside = header_rev(&std::env::temp_dir(), "rev-outside");
    assert_eq!(in_repo, outside);
}

/// Figure 9 is Figure 8's FAC p=2 cell: at a given seed, the mean `fig9`
/// prints is the `msgsim` column of that cell of `fig8`.
#[test]
fn fig9_prints_the_mean_of_fig8s_fac_p2_cell() {
    let stdout = |args: &[&str]| {
        let out = repro(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr_of(&out));
        String::from_utf8(out.stdout).unwrap()
    };
    let seed = ["--runs", "8", "--seed", "4242", "--threads", "2"];
    let fig9 = stdout(&[&["fig9"], &seed[..]].concat());
    let fig8 = stdout(&[&["fig8", "--pes", "2", "--techniques", "FAC"], &seed[..]].concat());
    let fig9_mean = fig9.lines().find_map(|l| l.strip_prefix("mean wasted:")).unwrap();
    let fig8_cell = fig8
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cols| cols.starts_with(&["FAC", "2"]))
        .unwrap();
    assert_eq!(fig9_mean.trim(), format!("{} s", fig8_cell[2]), "fig9:\n{fig9}\nfig8:\n{fig8}");
}

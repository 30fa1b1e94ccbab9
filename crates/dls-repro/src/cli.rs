//! The `repro` command line: one table of commands ([`COMMANDS`]) and one
//! of options ([`OPTIONS`]). Parsing, the check that a command reads each
//! option it is given, the usage text and dispatch are all derived from
//! them, so a command's contract is written down once.

mod commands;

use crate::artifacts::ArtifactSink;
use crate::error::{
    ReproError, EXIT_DEGRADED, EXIT_INTERRUPTED, EXIT_INVALID_SPEC, EXIT_IO, EXIT_REGRESSION,
    EXIT_STDOUT_CLOSED, EXIT_USAGE,
};
use crate::runner::CancelFlag;
use crate::server::ServeConfig;
use commands::{hagerup, tss};
use dls_core::Technique;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Parsed command-line options shared by all `repro` commands. Every field
/// starts unset; each command applies its own defaults.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Runs per configuration (1000 for Figures 5–9 and `spec`; sweep,
    /// faults, verify and chaos have smaller defaults).
    pub runs: Option<u32>,
    /// Campaign worker threads (default: all cores).
    pub threads: Option<usize>,
    /// Campaign seed override.
    pub seed: Option<u64>,
    /// Directory for CSV output.
    pub csv_dir: Option<String>,
    /// PE sweep override.
    pub pes: Option<Vec<usize>>,
    /// Technique subset override.
    pub techniques: Option<Vec<Technique>>,
    /// Path to a fault-plan JSON file (`faults`).
    pub fault_plan: Option<String>,
    /// Path to a host-I/O fault-plan JSON file (`chaos`, `serve`).
    pub host_fault_plan: Option<String>,
    /// Output directory for trace artifacts (`trace`).
    pub out_dir: Option<String>,
    /// Also trace one representative run of a campaign into this directory.
    pub trace_dir: Option<String>,
    /// Print a host-side telemetry summary after the command.
    pub telemetry: bool,
    /// Also dump the telemetry snapshot as JSON to this path.
    pub telemetry_json: Option<String>,
    /// Also dump the telemetry snapshot in Prometheus text format here.
    pub telemetry_prom: Option<String>,
    /// Write structured JSONL log events to this path; also enables
    /// progress heartbeats on stderr.
    pub log_file: Option<String>,
    /// Use the reduced campaign sizes (`chaos`).
    pub quick: bool,
    /// Checkpoint directory: completed runs are journaled there and a
    /// rerun with the same options replays them.
    pub resume: Option<String>,
    /// Test hook: inject a cooperative cancellation after this many newly
    /// executed runs, simulating a mid-campaign kill deterministically.
    pub cancel_after: Option<u64>,
    /// The `serve` options, parsed straight into the server configuration
    /// (its defaults are [`ServeConfig::default`]).
    pub serve: ServeConfig,
}

/// One option: its flag, the placeholder of its value (empty for a
/// switch) and a one-line help for the usage text.
pub struct OptionSpec {
    /// The flag, e.g. `--runs`.
    pub name: &'static str,
    /// Placeholder of the value; empty for a switch, which takes none.
    pub metavar: &'static str,
    /// One-line help.
    pub help: &'static str,
}

const fn opt(name: &'static str, metavar: &'static str, help: &'static str) -> OptionSpec {
    OptionSpec { name, metavar, help }
}

/// Every option `repro` accepts.
pub const OPTIONS: &[OptionSpec] = &[
    opt("--runs", "N", "runs per configuration (figures: 1000; other commands: fewer)"),
    opt("--threads", "N", "campaign worker threads (default: all cores)"),
    opt("--seed", "S", "campaign seed"),
    opt("--csv", "DIR", "write each result table as DIR/<name>.csv (spec: the JSON specs)"),
    opt("--pes", "a,b,c", "PE counts to sweep (faults: a single value)"),
    opt("--techniques", "SS,FAC2,GSS(80)", "techniques to run"),
    opt("--fault-plan", "FILE", "run one JSON FaultPlan instead of the default scenarios"),
    opt("--host-fault-plan", "FILE", "JSON HostFaultPlan for chaos storms and serve's cache"),
    opt("--out", "DIR", "trace artifact directory (default: traces)"),
    opt("--trace", "DIR", "also record one representative run of the campaign into DIR"),
    opt("--telemetry", "", "print the host-side metrics snapshot"),
    opt("--telemetry-json", "FILE", "dump the metrics snapshot as JSON"),
    opt("--telemetry-prom", "FILE", "dump the metrics snapshot in Prometheus text format"),
    opt("--log", "FILE", "write structured JSONL events; print progress heartbeats"),
    opt("--quick", "", "reduced campaign sizes (the CI smoke configuration)"),
    opt("--resume", "DIR", "journal runs in DIR; a rerun replays them bit-identically"),
    opt("--cancel-after", "N", "testing: cancel after N new runs, like a mid-campaign kill"),
    opt("--addr", "HOST:PORT", "listen address (port 0 picks a free port)"),
    opt("--cache", "DIR", "result-cache directory; corrupt entries move to DIR/quarantine/"),
    opt("--workers", "N", "concurrent campaign executions"),
    opt("--queue-depth", "N", "requests that may wait for a worker; beyond them, 429"),
    opt("--max-requests", "N", "exit 0 after N handled connections"),
    opt("--hold-ms", "MS", "testing: hold each cold run's worker slot MS longer (latency)"),
    opt("--deadline-ms", "MS", "default request deadline (X-Deadline-Ms overrides); 504"),
    opt("--read-timeout-ms", "MS", "per-connection socket read timeout (0 disables)"),
    opt("--write-timeout-ms", "MS", "per-connection socket write timeout (0 disables)"),
    opt("--max-connections", "N", "open-connection bound; beyond it, 503"),
];

/// One option's value as given, named for error messages.
struct Arg<'a> {
    name: &'static str,
    text: &'a str,
}

impl<'a> Arg<'a> {
    fn parse<T: FromStr<Err = E>, E: Display>(&self) -> Result<T, String> {
        self.text.parse().map_err(|e| format!("{}: {e}", self.name))
    }

    fn at_least_1<T: FromStr<Err = E> + PartialOrd + From<u8>, E: Display>(
        &self,
    ) -> Result<T, String> {
        let n: T = self.parse()?;
        if n < T::from(1) {
            return Err(format!("{} must be at least 1", self.name));
        }
        Ok(n)
    }

    /// Reads each comma-separated item with `item` (e.g. [`Arg::parse`]).
    fn each<T>(&self, item: impl Fn(&Arg<'a>) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.text.split(',').map(|s| item(&Arg { name: self.name, text: s })).collect()
    }
}

/// Stores one option's value in its field.
fn set(o: &mut Options, a: Arg) -> Result<(), String> {
    let text = || Some(a.text.to_string());
    match a.name {
        "--runs" => o.runs = Some(a.at_least_1()?),
        "--threads" => o.threads = Some(a.at_least_1()?),
        "--seed" => o.seed = Some(a.parse()?),
        "--csv" => o.csv_dir = text(),
        "--pes" => o.pes = Some(a.each(Arg::at_least_1)?),
        "--techniques" => o.techniques = Some(a.each(Arg::parse)?),
        "--fault-plan" => o.fault_plan = text(),
        "--host-fault-plan" => o.host_fault_plan = text(),
        "--out" => o.out_dir = text(),
        "--trace" => o.trace_dir = text(),
        "--telemetry" => o.telemetry = true,
        "--telemetry-json" => o.telemetry_json = text(),
        "--telemetry-prom" => o.telemetry_prom = text(),
        "--log" => o.log_file = text(),
        "--quick" => o.quick = true,
        "--resume" => o.resume = text(),
        "--cancel-after" => o.cancel_after = Some(a.parse()?),
        "--addr" => o.serve.addr = a.text.into(),
        "--cache" => o.serve.cache_dir = a.text.into(),
        "--workers" => o.serve.workers = a.at_least_1()?,
        "--queue-depth" => o.serve.queue_depth = a.parse()?,
        "--max-requests" => o.serve.max_requests = Some(a.parse()?),
        "--hold-ms" => o.serve.hold_ms = a.parse()?,
        "--deadline-ms" => o.serve.deadline_ms = Some(a.at_least_1()?),
        "--read-timeout-ms" => o.serve.read_timeout_ms = a.parse()?,
        "--write-timeout-ms" => o.serve.write_timeout_ms = a.parse()?,
        "--max-connections" => o.serve.max_connections = a.at_least_1()?,
        other => unreachable!("option `{other}` has no field"),
    }
    Ok(())
}

/// A parsed command line, handed to the command's handler.
pub struct Invocation {
    /// The command being run (for `all`, the member currently running).
    pub command: &'static str,
    /// The positional target of a command that takes one; empty otherwise.
    pub target: String,
    /// The options given.
    pub options: Options,
    /// Collects degraded secondary artifacts across the whole command.
    pub sink: ArtifactSink,
    /// The process-wide cancellation flag (raised by Ctrl-C).
    pub cancel: CancelFlag,
}

/// What a command runs.
pub enum Run {
    /// One handler.
    Handler(fn(&Invocation) -> Result<(), ReproError>),
    /// Other commands, in order, with the same options.
    Sequence(&'static [&'static str]),
}

/// One `repro` command.
pub struct Command {
    /// The command name.
    pub name: &'static str,
    /// Placeholder of the positional target the command takes before its
    /// options, if it takes one.
    pub target: Option<&'static str>,
    /// The options the command reads, as space-separated groups; any other
    /// option is a usage error.
    pub reads: &'static [&'static str],
    /// One-line help for the usage text.
    pub help: &'static str,
    /// What the command runs.
    pub run: Run,
}

impl Command {
    /// The options the command reads, one by one.
    pub fn reads(&self) -> impl Iterator<Item = &'static str> {
        self.reads.iter().flat_map(|group| group.split_whitespace())
    }
}

const fn cmd(
    name: &'static str,
    target: Option<&'static str>,
    reads: &'static [&'static str],
    help: &'static str,
    handler: fn(&Invocation) -> Result<(), ReproError>,
) -> Command {
    Command { name, target, reads, help, run: Run::Handler(handler) }
}

/// Option groups, shared between commands and listed one per line in the
/// usage text.
const RUN: &str = "--runs --threads --seed --csv";
const SWEEP: &str = "--pes --techniques --trace --log --cancel-after";
const TELEMETRY: &str = "--telemetry --telemetry-json --telemetry-prom";
const CAMPAIGN: &[&str] = &[RUN, SWEEP, TELEMETRY, "--resume"];
const FAULTS: &[&str] = &[RUN, SWEEP, TELEMETRY, "--resume --fault-plan"];
const SERVE: &[&str] = &[
    "--addr --cache --workers --queue-depth --max-requests",
    "--hold-ms --deadline-ms --read-timeout-ms",
    "--write-timeout-ms --max-connections --host-fault-plan --log",
];

/// Every `repro` command, in the order the usage text lists them.
pub const COMMANDS: &[Command] = &[
    cmd("list", None, &[], "Table III: the experiments this suite reproduces", commands::list),
    cmd("table2", None, &[], "Table II: the parameters each technique requires", commands::table2),
    cmd("fig3", None, &["--csv"], "Figure 3: TSS experiment 1 speedups", tss),
    cmd("fig3a", None, &["--csv"], "Figure 3 with the BBN GP-1000 contention model", tss),
    cmd("fig4", None, &["--csv"], "Figure 4: TSS experiment 2 speedups", tss),
    cmd("fig4a", None, &["--csv"], "Figure 4 with the BBN GP-1000 contention model", tss),
    cmd("fig5", None, CAMPAIGN, "Figure 5: wasted time and discrepancy, n=1,024", hagerup),
    cmd("fig6", None, CAMPAIGN, "Figure 6: wasted time and discrepancy, n=8,192", hagerup),
    cmd("fig7", None, CAMPAIGN, "Figure 7: wasted time and discrepancy, n=65,536", hagerup),
    cmd("fig8", None, CAMPAIGN, "Figure 8: wasted time and discrepancy, n=524,288", hagerup),
    cmd("fig9", None, &[RUN], "Figure 9: the runs of Figure 8's FAC p=2 cell", commands::fig9),
    cmd("spec", None, &["--runs --seed --csv"], "write Figure-2 JSON specs", commands::spec),
    cmd("verify", None, &["--runs --seed --pes"], "msgsim vs Hagerup replica", commands::verify),
    cmd("sweep", None, CAMPAIGN, "sweep task-time families, PEs, techniques", commands::sweep),
    cmd("faults", None, FAULTS, "fault-injection sweep: techniques x scenarios", commands::faults),
    cmd(
        "trace",
        Some("<hagerup|faults|TECHNIQUE>"),
        &["--seed --out", TELEMETRY],
        "record one run: Chrome trace_event JSON and per-PE timeline, utilization and \
         chunk-size CSVs (default dir: traces)",
        commands::trace,
    ),
    cmd(
        "chaos",
        Some("<fig5|sweep|faults|serve>"),
        &["--quick --runs --seed --host-fault-plan"],
        "crash at every host-I/O boundary of a reduced journaled campaign or of the service, \
         recover, and require byte-identical results",
        commands::chaos,
    ),
    cmd(
        "report",
        Some("DIR"),
        &[],
        "join the journal, telemetry JSON, trace CSVs and JSONL logs in DIR into DIR/report.md \
         and DIR/report.csv",
        commands::report,
    ),
    cmd(
        "serve",
        None,
        SERVE,
        "campaign service with a content-addressed result cache: POST /run; GET /metrics, \
         /metrics.json, /progress, /requests, /healthz, /readyz",
        commands::serve,
    ),
    Command {
        name: "all",
        target: None,
        // Figures 3–9 in one process: one journal cannot serve them all.
        reads: &[RUN, SWEEP, TELEMETRY],
        help: "everything, in paper order",
        run: Run::Sequence(&[
            "list", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        ]),
    },
];

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Parses a command line (without the program name) in one pass: the
/// command, its positional target, and its options, rejecting an option
/// the command does not read.
pub fn parse(args: &[String]) -> Result<(&'static Command, String, Options), String> {
    let name = args.first().ok_or("missing command")?;
    let cmd = command(name).ok_or_else(|| format!("unknown command `{name}`"))?;
    let (target, rest) = match (cmd.target, args.get(1)) {
        (None, _) => (String::new(), &args[1..]),
        (Some(_), Some(t)) if !t.starts_with("--") => (t.clone(), &args[2..]),
        (Some(_), _) => return Err(format!("{name} requires a target")),
    };
    let mut o = Options::default();
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let Some(spec) = OPTIONS.iter().find(|s| s.name == flag) else {
            return Err(format!("unknown option `{flag}`"));
        };
        if !cmd.reads().any(|r| r == flag) {
            let reads = cmd.reads().collect::<Vec<_>>().join(" ");
            let reads = if reads.is_empty() { "none" } else { &reads };
            return Err(format!("`{name}` does not read option `{flag}` (it reads: {reads})"));
        }
        let text = match spec.metavar {
            "" => "",
            _ => rest.next().ok_or_else(|| format!("{flag} requires a value"))?,
        };
        set(&mut o, Arg { name: spec.name, text })?;
    }
    Ok((cmd, target, o))
}

/// Column the help text starts at, and the line width it wraps to.
const HELP_COLUMN: usize = 28;
const WIDTH: usize = 80;

/// Appends `words` to `out` from column `col`, wrapping to [`WIDTH`] with
/// continuation lines indented to `indent`.
fn wrap<'a>(out: &mut String, mut col: usize, indent: usize, words: impl Iterator<Item = &'a str>) {
    for (i, word) in words.enumerate() {
        if i > 0 && col + 1 + word.len() > WIDTH {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
}

/// The usage text, generated from [`COMMANDS`] and [`OPTIONS`]: each
/// entry's head in the left column, its help wrapped beside it.
pub fn usage() -> String {
    let mut out = String::from("usage: repro <command> [target] [options]\n\ncommands:\n");
    let indent = " ".repeat(HELP_COLUMN);
    let entry = |out: &mut String, head: String, help: &str| {
        out.push_str(&format!("  {:w$} ", head.trim_end(), w = HELP_COLUMN - 3));
        let col = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
        wrap(out, col, HELP_COLUMN, help.split_whitespace());
    };
    for c in COMMANDS {
        entry(&mut out, format!("{} {}", c.name, c.target.unwrap_or("")), c.help);
        for (i, group) in c.reads.iter().enumerate() {
            out.push_str(&format!("{indent}{:7}{group}\n", if i == 0 { "reads:" } else { "" }));
        }
        if let Run::Sequence(names) = c.run {
            out.push_str(&format!("{indent}{:7}{}\n", "runs:", names.join(" ")));
        }
    }
    out.push_str("\noptions:\n");
    for o in OPTIONS {
        entry(&mut out, format!("{} {}", o.name, o.metavar), o.help);
    }
    out.push_str("\nAn option the command does not read is a usage error naming it.\n");
    let codes = format!(
        "exit codes: 0 ok; {EXIT_USAGE} usage; {EXIT_IO} host I/O; {EXIT_INVALID_SPEC} invalid \
         spec; {EXIT_REGRESSION} failed check; {EXIT_DEGRADED} degraded secondary artifacts; \
         {EXIT_INTERRUPTED} interrupted; {EXIT_STDOUT_CLOSED} stdout closed"
    );
    wrap(&mut out, 0, 12, codes.split_whitespace());
    out.pop();
    out
}

fn execute(cmd: &'static Command, inv: &mut Invocation) -> Result<(), ReproError> {
    inv.command = cmd.name;
    match cmd.run {
        Run::Handler(handler) => handler(inv),
        Run::Sequence(names) => names.iter().try_for_each(|name| {
            execute(command(name).expect("a sequence names only table commands"), inv)
        }),
    }
}

/// Parses and runs one command line, and reports the outcome as the
/// process exit code: the error on stderr (usage errors add the usage
/// text), nothing when stdout was closed, like a writer SIGPIPE killed.
/// Degraded secondary artifacts surface after a command succeeds: its
/// primary results are safe on disk, and the exit code (6) still tells CI.
pub fn main(args: &[String], cancel: CancelFlag) -> ExitCode {
    let outcome = parse(args).map_err(ReproError::usage).and_then(|(cmd, target, options)| {
        let sink = ArtifactSink::new();
        let mut inv = Invocation { command: cmd.name, target, options, sink, cancel };
        execute(cmd, &mut inv).and_then(|()| inv.sink.finish())
    });
    let Err(e) = outcome else { return ExitCode::SUCCESS };
    match &e {
        ReproError::StdoutClosed => {}
        e if e.is_usage() => crate::errln!("error: {e}\n{}", usage()),
        _ => crate::errln!("error: {e}"),
    }
    ExitCode::from(e.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parses `line`, a command line without the program name.
    fn parse_line(line: &str) -> Result<Options, String> {
        parse(&args(line)).map(|(_, _, o)| o)
    }

    /// Parses `line` as the options of `command`, giving a placeholder
    /// target to a command that takes one.
    fn parse_for(command: &str, line: &str) -> Result<Options, String> {
        let target = if super::command(command).is_some_and(|c| c.target.is_some()) {
            " target"
        } else {
            ""
        };
        parse_line(&format!("{command}{target} {line}"))
    }

    #[test]
    fn defaults() {
        let o = parse_line("fig5").unwrap();
        assert_eq!(o.runs, None);
        assert_eq!(o.threads, None);
        assert!(o.seed.is_none() && o.pes.is_none() && o.techniques.is_none());
        let d = ServeConfig::default();
        assert_eq!((o.serve.addr, o.serve.workers), (d.addr, d.workers));
    }

    #[test]
    fn full_option_set() {
        let o = parse_line(
            "faults --runs 50 --threads 2 --seed 9 --csv out --pes 2,8 --techniques SS,BOLD \
             --fault-plan plan.json --trace tdir",
        )
        .unwrap();
        assert_eq!(o.runs, Some(50));
        assert_eq!(o.threads, Some(2));
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.csv_dir.as_deref(), Some("out"));
        assert_eq!(o.fault_plan.as_deref(), Some("plan.json"));
        assert_eq!(o.trace_dir.as_deref(), Some("tdir"));
        assert_eq!(o.pes, Some(vec![2, 8]));
        assert_eq!(o.techniques, Some(vec![Technique::SS, Technique::Bold]));
        let (cmd, target, o) = parse(&args("trace TSS --out traces")).unwrap();
        assert_eq!((cmd.name, target.as_str()), ("trace", "TSS"));
        assert_eq!(o.out_dir.as_deref(), Some("traces"));
    }

    #[test]
    fn parameterized_techniques() {
        let o = parse_line("fig5 --techniques GSS(80),CSS(1389),TSS").unwrap();
        let ts = o.techniques.unwrap();
        assert_eq!(ts[0], Technique::Gss { min_chunk: 80 });
        assert_eq!(ts[1], Technique::Css { k: 1389 });
        assert_eq!(ts[2], Technique::Tss { first: None, last: None });
        // A comma inside TSS(a,b) would be split by the list separator;
        // the parser rejects it rather than misparsing (CLI limitation).
        assert!(parse_line("fig5 --techniques TSS(695,1)").is_err());
    }

    /// `--runs 1000` is an explicit value like any other: commands whose
    /// own default differs (sweep, faults, verify, chaos) must see it.
    #[test]
    fn explicit_runs_is_distinguished_from_absent() {
        assert_eq!(parse_line("sweep").unwrap().runs, None);
        assert_eq!(parse_line("sweep --runs 1000").unwrap().runs, Some(1000));
    }

    #[test]
    fn telemetry_and_quick_options() {
        let o = parse_line("fig5 --telemetry --telemetry-json tel.json").unwrap();
        assert!(o.telemetry);
        assert_eq!(o.telemetry_json.as_deref(), Some("tel.json"));
        assert!(parse_line("chaos fig5 --quick").unwrap().quick);
    }

    #[test]
    fn observability_options_parse() {
        let o = parse_line("sweep --telemetry-prom tel.prom --log run.log.jsonl").unwrap();
        assert_eq!(o.telemetry_prom.as_deref(), Some("tel.prom"));
        assert_eq!(o.log_file.as_deref(), Some("run.log.jsonl"));
        assert!(parse_line("sweep --log").unwrap_err().contains("requires a value"));
        assert!(parse_line("sweep --telemetry-prom").unwrap_err().contains("requires"));
    }

    #[test]
    fn host_fault_plan_takes_a_path() {
        let o = parse_line("chaos serve --host-fault-plan storm.json").unwrap();
        assert_eq!(o.host_fault_plan.as_deref(), Some("storm.json"));
        assert!(parse_line("serve --host-fault-plan").unwrap_err().contains("requires"));
    }

    #[test]
    fn resume_and_cancel_after() {
        let o = parse_line("sweep --resume ckpt --cancel-after 12").unwrap();
        assert_eq!(o.resume.as_deref(), Some("ckpt"));
        assert_eq!(o.cancel_after, Some(12));
        assert!(parse_line("sweep --resume").unwrap_err().contains("requires a value"));
        assert!(parse_line("sweep --cancel-after x").unwrap_err().contains("--cancel-after"));
    }

    #[test]
    fn serve_options_parse() {
        let o = parse_line(
            "serve --addr 127.0.0.1:0 --cache cdir --workers 3 --queue-depth 4 \
             --max-requests 10 --hold-ms 250",
        )
        .unwrap();
        assert_eq!(o.serve.addr, "127.0.0.1:0");
        assert_eq!(o.serve.cache_dir, PathBuf::from("cdir"));
        assert_eq!(o.serve.workers, 3);
        assert_eq!(o.serve.queue_depth, 4);
        assert_eq!(o.serve.max_requests, Some(10));
        assert_eq!(o.serve.hold_ms, 250);
        assert!(parse_line("serve --workers 0").unwrap_err().contains("at least 1"));
        assert!(parse_line("serve --queue-depth x").unwrap_err().contains("--queue-depth"));
    }

    #[test]
    fn serve_robustness_options_parse() {
        let o = parse_line(
            "serve --deadline-ms 500 --read-timeout-ms 2000 --write-timeout-ms 3000 \
             --max-connections 16",
        )
        .unwrap();
        assert_eq!(o.serve.deadline_ms, Some(500));
        assert_eq!(o.serve.read_timeout_ms, 2000);
        assert_eq!(o.serve.write_timeout_ms, 3000);
        assert_eq!(o.serve.max_connections, 16);
        // Zero is rejected where it would be meaningless, accepted where it
        // means "disabled" (socket timeouts).
        assert!(parse_line("serve --deadline-ms 0").unwrap_err().contains("at least 1"));
        assert!(parse_line("serve --max-connections 0").unwrap_err().contains("at least 1"));
        assert_eq!(parse_line("serve --read-timeout-ms 0").unwrap().serve.read_timeout_ms, 0);
    }

    /// Each of these used to exit 0 without writing the named files.
    #[test]
    fn options_a_command_does_not_read_are_rejected_by_name() {
        for (command, line, option) in [
            ("fig9", "--runs 3 --log f9.jsonl --telemetry-json f9.json --trace f9t", "--log"),
            (
                "verify",
                "--runs 1 --pes 2 --telemetry-json v.json --log v.jsonl",
                "--telemetry-json",
            ),
            ("trace", "--log tr.jsonl --telemetry-prom tr.prom", "--log"),
            ("fig3", "--telemetry-json f3.json --log f3.jsonl", "--telemetry-json"),
            ("serve", "--threads 2", "--threads"),
            ("all", "--resume ckpt", "--resume"),
        ] {
            let err = parse_for(command, line).unwrap_err();
            assert!(err.contains(&format!("`{command}` does not read option `{option}`")), "{err}");
        }
        assert!(parse_for("trace", "--telemetry-prom t.prom").is_ok());
        // An unknown command is refused before its options are looked at.
        assert_eq!(parse_for("nonsense", "--runs 3").unwrap_err(), "unknown command `nonsense`");
    }

    /// The flags the repository benchmark passes stay accepted.
    #[test]
    fn benchmark_command_lines_are_accepted() {
        for (command, line) in [
            ("fig6", "--runs 20 --threads 2 --seed 1 --csv csv --telemetry-json telemetry.json"),
            ("sweep", "--runs 8 --threads 2 --seed 1 --resume journal --csv csv"),
            ("serve", "--addr 127.0.0.1:0 --cache cache --workers 2"),
        ] {
            assert!(parse_for(command, line).is_ok(), "{command} {line}");
        }
        assert_eq!(parse_line("fig6 --threads 2").unwrap().threads, Some(2));
        assert_eq!(parse_line("fig6").unwrap().threads, None);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_line("fig5 --runs").unwrap_err().contains("requires a value"));
        assert!(parse_line("fig5 --runs x").unwrap_err().contains("--runs"));
        assert!(parse_line("fig5 --bogus 1").unwrap_err().contains("unknown option"));
        assert!(parse_line("fig5 --pes 2,x").unwrap_err().contains("--pes"));
        assert!(parse_line("fig5 --techniques XYZ").unwrap_err().contains("--techniques"));
        for line in ["fig5 --runs 0", "fig6 --threads 0", "fig5 --pes 2,0", "sweep --pes 0"] {
            assert!(parse_line(line).unwrap_err().contains("must be at least 1"), "{line}");
        }
        assert_eq!(parse_line("").unwrap_err(), "missing command");
        assert_eq!(parse_line("chaos --quick").unwrap_err(), "chaos requires a target");
    }

    #[test]
    fn every_table_entry_is_consistent() {
        for c in COMMANDS {
            assert_eq!(COMMANDS.iter().filter(|d| d.name == c.name).count(), 1, "{}", c.name);
            for r in c.reads() {
                assert!(OPTIONS.iter().any(|o| o.name == r), "{} reads unknown {r}", c.name);
            }
            if let Run::Sequence(names) = c.run {
                for n in names {
                    assert!(command(n).is_some(), "{} runs unknown {n}", c.name);
                }
            }
        }
        for o in OPTIONS {
            assert!(
                COMMANDS.iter().any(|c| c.reads().any(|r| r == o.name)),
                "{} is unread",
                o.name
            );
            // Panics when the option has no field to go to.
            let _ = set(&mut Options::default(), Arg { name: o.name, text: "1" });
        }
        assert_eq!(OPTIONS.len(), 27);
    }
}

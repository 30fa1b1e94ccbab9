//! Option parsing for the `repro` binary, kept in the library so it can be
//! unit-tested.

use dls_core::Technique;

/// Parsed command-line options shared by all `repro` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Runs per configuration; each command applies its own default when
    /// absent (1000 for Figures 5–9 and `spec`).
    pub runs: Option<u32>,
    /// Campaign worker threads.
    pub threads: usize,
    /// Campaign seed override.
    pub seed: Option<u64>,
    /// Directory for CSV output.
    pub csv_dir: Option<String>,
    /// PE sweep override (Figures 5–8).
    pub pes: Option<Vec<usize>>,
    /// Technique subset override (Figures 5–8).
    pub techniques: Option<Vec<Technique>>,
    /// Path to a fault-plan JSON file (`faults` subcommand).
    pub fault_plan: Option<String>,
    /// Path to a host-I/O fault-plan JSON file (`chaos` subcommand).
    pub host_fault_plan: Option<String>,
    /// Output directory for trace artifacts (`trace` subcommand).
    pub out_dir: Option<String>,
    /// When set on fig5–fig8/sweep/faults: also trace one representative
    /// run and write its artifacts into this directory.
    pub trace_dir: Option<String>,
    /// Print a host-side telemetry summary after the command.
    pub telemetry: bool,
    /// Also dump the telemetry snapshot as JSON to this path.
    pub telemetry_json: Option<String>,
    /// Also dump the telemetry snapshot in Prometheus text-exposition
    /// format to this path.
    pub telemetry_prom: Option<String>,
    /// Write structured JSONL log events to this path (fig5–fig8, sweep,
    /// faults, serve); also enables progress heartbeats on stderr.
    pub log_file: Option<String>,
    /// Use the reduced campaign sizes (`chaos` subcommand).
    pub quick: bool,
    /// Checkpoint directory: completed runs are journaled there and a
    /// rerun with the same options skips them (fig5–fig8, sweep, faults).
    pub resume: Option<String>,
    /// Test hook: inject a cooperative cancellation after this many newly
    /// executed runs, simulating a mid-campaign kill deterministically.
    pub cancel_after: Option<u64>,
    /// Listen address for `serve` (default `127.0.0.1:7878`).
    pub addr: Option<String>,
    /// On-disk result-cache directory for `serve` (default `repro-cache`).
    pub cache_dir: Option<String>,
    /// Concurrent campaign executions `serve` allows (default 2).
    pub workers: Option<usize>,
    /// Admission queue depth for `serve`; requests beyond it are shed with
    /// HTTP 429 (default 8).
    pub queue_depth: Option<usize>,
    /// Stop `serve` cleanly after this many handled requests (smoke tests).
    pub max_requests: Option<u64>,
    /// Testing/latency-injection knob for `serve`: hold each cold
    /// computation's worker slot for at least this many extra milliseconds.
    pub hold_ms: Option<u64>,
    /// Server-wide default request deadline for `serve`, milliseconds; a
    /// client `X-Deadline-Ms` header overrides it per request.
    pub deadline_ms: Option<u64>,
    /// Per-connection socket read timeout for `serve`, milliseconds
    /// (default 10000; 0 disables).
    pub read_timeout_ms: Option<u64>,
    /// Per-connection socket write timeout for `serve`, milliseconds
    /// (default 10000; 0 disables).
    pub write_timeout_ms: Option<u64>,
    /// Concurrent-connection bound for `serve`; the accept loop sheds
    /// beyond it with HTTP 503 (default 64).
    pub max_connections: Option<usize>,
    /// Every option given, in order — [`check_options`] reads it, and it
    /// records whether an option with a default (`--threads`) was given.
    pub given: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            runs: None,
            threads: crate::runner::default_threads(),
            seed: None,
            csv_dir: None,
            pes: None,
            techniques: None,
            fault_plan: None,
            host_fault_plan: None,
            out_dir: None,
            trace_dir: None,
            telemetry: false,
            telemetry_json: None,
            telemetry_prom: None,
            log_file: None,
            quick: false,
            resume: None,
            cancel_after: None,
            addr: None,
            cache_dir: None,
            workers: None,
            queue_depth: None,
            max_requests: None,
            hold_ms: None,
            deadline_ms: None,
            read_timeout_ms: None,
            write_timeout_ms: None,
            max_connections: None,
            given: Vec::new(),
        }
    }
}

/// The options a journaled campaign command (fig5–fig8, sweep) reads.
const CAMPAIGN: &[&str] = &[
    "--runs",
    "--threads",
    "--seed",
    "--csv",
    "--pes",
    "--techniques",
    "--trace",
    "--telemetry",
    "--telemetry-json",
    "--telemetry-prom",
    "--log",
    "--resume",
    "--cancel-after",
];

/// The options `command` reads, or `None` for an unknown command.
fn command_options(command: &str) -> Option<Vec<&'static str>> {
    let only = |options: &[&'static str]| Some(options.to_vec());
    match command {
        "list" | "table2" | "report" => only(&[]),
        "fig3" | "fig4" | "fig3a" | "fig4a" => only(&["--csv"]),
        "fig5" | "fig6" | "fig7" | "fig8" | "sweep" => only(CAMPAIGN),
        "faults" => Some([CAMPAIGN, &["--fault-plan"]].concat()),
        // Figures 3–9 in one process: one journal cannot serve them all.
        "all" => Some(CAMPAIGN.iter().copied().filter(|o| *o != "--resume").collect()),
        "fig9" => only(&["--runs", "--threads", "--seed", "--csv"]),
        "spec" => only(&["--runs", "--seed", "--csv"]),
        "verify" => only(&["--runs", "--seed", "--pes"]),
        "trace" => {
            only(&["--seed", "--out", "--telemetry", "--telemetry-json", "--telemetry-prom"])
        }
        "chaos" => only(&["--quick", "--runs", "--seed", "--host-fault-plan"]),
        "serve" => only(&[
            "--addr",
            "--cache",
            "--workers",
            "--queue-depth",
            "--max-requests",
            "--hold-ms",
            "--deadline-ms",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--max-connections",
            "--host-fault-plan",
            "--log",
        ]),
        _ => None,
    }
}

/// Fails naming the first given option that `command` does not read (an
/// unknown command is left to the dispatcher).
pub fn check_options(command: &str, o: &Options) -> Result<(), String> {
    let Some(reads) = command_options(command) else { return Ok(()) };
    match o.given.iter().find(|g| !reads.contains(&g.as_str())) {
        Some(option) => Err(format!(
            "`{command}` does not read option `{option}` (it reads: {})",
            if reads.is_empty() { "none".to_string() } else { reads.join(" ") }
        )),
        None => Ok(()),
    }
}

/// Parses the option list that follows the subcommand.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--runs" => {
                o.runs = Some(value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?)
            }
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--seed" => {
                o.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--csv" => o.csv_dir = Some(value("--csv")?),
            "--fault-plan" => o.fault_plan = Some(value("--fault-plan")?),
            "--host-fault-plan" => o.host_fault_plan = Some(value("--host-fault-plan")?),
            "--out" => o.out_dir = Some(value("--out")?),
            "--trace" => o.trace_dir = Some(value("--trace")?),
            "--pes" => {
                let list = value("--pes")?;
                let pes: Result<Vec<usize>, _> = list.split(',').map(|s| s.parse()).collect();
                o.pes = Some(pes.map_err(|e| format!("--pes: {e}"))?);
            }
            "--techniques" => {
                let list = value("--techniques")?;
                let ts: Result<Vec<Technique>, _> = list.split(',').map(|s| s.parse()).collect();
                o.techniques = Some(ts.map_err(|e| format!("--techniques: {e}"))?);
            }
            "--telemetry" => o.telemetry = true,
            "--telemetry-json" => o.telemetry_json = Some(value("--telemetry-json")?),
            "--telemetry-prom" => o.telemetry_prom = Some(value("--telemetry-prom")?),
            "--log" => o.log_file = Some(value("--log")?),
            "--quick" => o.quick = true,
            "--resume" => o.resume = Some(value("--resume")?),
            "--cancel-after" => {
                o.cancel_after = Some(
                    value("--cancel-after")?.parse().map_err(|e| format!("--cancel-after: {e}"))?,
                )
            }
            "--addr" => o.addr = Some(value("--addr")?),
            "--cache" => o.cache_dir = Some(value("--cache")?),
            "--workers" => {
                let n: usize =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                o.workers = Some(n);
            }
            "--queue-depth" => {
                o.queue_depth = Some(
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?,
                )
            }
            "--max-requests" => {
                o.max_requests = Some(
                    value("--max-requests")?.parse().map_err(|e| format!("--max-requests: {e}"))?,
                )
            }
            "--hold-ms" => {
                o.hold_ms =
                    Some(value("--hold-ms")?.parse().map_err(|e| format!("--hold-ms: {e}"))?)
            }
            "--deadline-ms" => {
                let ms: u64 =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be at least 1".into());
                }
                o.deadline_ms = Some(ms);
            }
            "--read-timeout-ms" => {
                o.read_timeout_ms = Some(
                    value("--read-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--read-timeout-ms: {e}"))?,
                )
            }
            "--write-timeout-ms" => {
                o.write_timeout_ms = Some(
                    value("--write-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--write-timeout-ms: {e}"))?,
                )
            }
            "--max-connections" => {
                let n: usize = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
                if n == 0 {
                    return Err("--max-connections must be at least 1".into());
                }
                o.max_connections = Some(n);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        o.given.push(a.clone());
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.runs, None);
        assert!(o.seed.is_none() && o.pes.is_none() && o.techniques.is_none());
    }

    #[test]
    fn full_option_set() {
        let o = parse_options(&args(
            "--runs 50 --threads 2 --seed 9 --csv out --pes 2,8 --techniques SS,BOLD \
             --fault-plan plan.json --out traces --trace tdir",
        ))
        .unwrap();
        assert_eq!(o.runs, Some(50));
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.csv_dir.as_deref(), Some("out"));
        assert_eq!(o.fault_plan.as_deref(), Some("plan.json"));
        assert_eq!(o.out_dir.as_deref(), Some("traces"));
        assert_eq!(o.trace_dir.as_deref(), Some("tdir"));
        assert_eq!(o.pes, Some(vec![2, 8]));
        assert_eq!(o.techniques, Some(vec![Technique::SS, Technique::Bold]));
    }

    #[test]
    fn parameterized_techniques() {
        let o = parse_options(&args("--techniques GSS(80),CSS(1389),TSS")).unwrap();
        let ts = o.techniques.unwrap();
        assert_eq!(ts[0], Technique::Gss { min_chunk: 80 });
        assert_eq!(ts[1], Technique::Css { k: 1389 });
        assert_eq!(ts[2], Technique::Tss { first: None, last: None });
        // A comma inside TSS(a,b) would be split by the list separator;
        // the parser rejects it rather than misparsing (CLI limitation).
        assert!(parse_options(&args("--techniques TSS(695,1)")).is_err());
    }

    /// `--runs 1000` is an explicit value like any other: commands whose
    /// own default differs (sweep, faults, verify, chaos) must see it.
    #[test]
    fn explicit_runs_is_distinguished_from_absent() {
        assert_eq!(parse_options(&[]).unwrap().runs, None);
        assert_eq!(parse_options(&args("--runs 1000")).unwrap().runs, Some(1000));
    }

    #[test]
    fn telemetry_and_quick_options() {
        let o = parse_options(&args("--telemetry --telemetry-json tel.json --quick")).unwrap();
        assert!(o.telemetry && o.quick);
        assert_eq!(o.telemetry_json.as_deref(), Some("tel.json"));
    }

    #[test]
    fn observability_options_parse() {
        let o = parse_options(&args("--telemetry-prom tel.prom --log run.log.jsonl")).unwrap();
        assert_eq!(o.telemetry_prom.as_deref(), Some("tel.prom"));
        assert_eq!(o.log_file.as_deref(), Some("run.log.jsonl"));
        assert!(parse_options(&args("--log")).unwrap_err().contains("requires a value"));
        assert!(parse_options(&args("--telemetry-prom")).unwrap_err().contains("requires"));
    }

    #[test]
    fn host_fault_plan_takes_a_path() {
        let o = parse_options(&args("--host-fault-plan storm.json")).unwrap();
        assert_eq!(o.host_fault_plan.as_deref(), Some("storm.json"));
        assert!(parse_options(&args("--host-fault-plan")).unwrap_err().contains("requires"));
    }

    #[test]
    fn resume_and_cancel_after() {
        let o = parse_options(&args("--resume ckpt --cancel-after 12")).unwrap();
        assert_eq!(o.resume.as_deref(), Some("ckpt"));
        assert_eq!(o.cancel_after, Some(12));
        assert!(parse_options(&args("--resume")).unwrap_err().contains("requires a value"));
        assert!(parse_options(&args("--cancel-after x")).unwrap_err().contains("--cancel-after"));
    }

    #[test]
    fn serve_options_parse() {
        let o = parse_options(&args(
            "--addr 127.0.0.1:0 --cache cdir --workers 3 --queue-depth 4 \
             --max-requests 10 --hold-ms 250",
        ))
        .unwrap();
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.cache_dir.as_deref(), Some("cdir"));
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.queue_depth, Some(4));
        assert_eq!(o.max_requests, Some(10));
        assert_eq!(o.hold_ms, Some(250));
        assert!(parse_options(&args("--workers 0")).unwrap_err().contains("at least 1"));
        assert!(parse_options(&args("--queue-depth x")).unwrap_err().contains("--queue-depth"));
    }

    #[test]
    fn serve_robustness_options_parse() {
        let o = parse_options(&args(
            "--deadline-ms 500 --read-timeout-ms 2000 --write-timeout-ms 3000 \
             --max-connections 16",
        ))
        .unwrap();
        assert_eq!(o.deadline_ms, Some(500));
        assert_eq!(o.read_timeout_ms, Some(2000));
        assert_eq!(o.write_timeout_ms, Some(3000));
        assert_eq!(o.max_connections, Some(16));
        // Zero is rejected where it would be meaningless, accepted where it
        // means "disabled" (socket timeouts).
        assert!(parse_options(&args("--deadline-ms 0")).unwrap_err().contains("at least 1"));
        assert!(parse_options(&args("--max-connections 0")).unwrap_err().contains("at least 1"));
        assert_eq!(parse_options(&args("--read-timeout-ms 0")).unwrap().read_timeout_ms, Some(0));
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
            let err = check_options(command, &parse_options(&args(line)).unwrap()).unwrap_err();
            assert!(err.contains(&format!("`{command}` does not read option `{option}`")), "{err}");
        }
        assert!(check_options("trace", &parse_options(&args("--telemetry-prom t.prom")).unwrap())
            .is_ok());
        assert!(check_options("nonsense", &parse_options(&args("--runs 3")).unwrap()).is_ok());
    }

    /// The flags the repository benchmark passes stay accepted.
    #[test]
    fn benchmark_command_lines_are_accepted() {
        for (command, line) in [
            ("fig6", "--runs 20 --threads 2 --seed 1 --csv csv --telemetry-json telemetry.json"),
            ("sweep", "--runs 8 --threads 2 --seed 1 --resume journal --csv csv"),
            ("serve", "--addr 127.0.0.1:0 --cache cache --workers 2"),
        ] {
            let o = parse_options(&args(line)).unwrap();
            assert_eq!(check_options(command, &o), Ok(()), "{command} {line}");
        }
        assert_eq!(parse_options(&args("--threads 2")).unwrap().given, ["--threads"]);
        assert!(parse_options(&[]).unwrap().given.is_empty());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_options(&args("--runs")).unwrap_err().contains("requires a value"));
        assert!(parse_options(&args("--runs x")).unwrap_err().contains("--runs"));
        assert!(parse_options(&args("--bogus 1")).unwrap_err().contains("unknown option"));
        assert!(parse_options(&args("--pes 2,x")).unwrap_err().contains("--pes"));
        assert!(parse_options(&args("--techniques XYZ")).unwrap_err().contains("--techniques"));
    }
}

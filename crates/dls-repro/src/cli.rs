//! Option parsing for the `repro` binary, kept in the library so it can be
//! unit-tested.

use dls_core::Technique;

/// Parsed command-line options shared by all `repro` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Runs per configuration (Figures 5–9).
    pub runs: u32,
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
    /// Use the reduced bench suite sizes (`bench` subcommand).
    pub quick: bool,
    /// Timed repetitions per bench entry (`bench`; default 3 quick/5 full).
    pub reps: Option<u32>,
    /// Tag written into the bench file name and metadata (`bench`).
    pub tag: Option<String>,
    /// Compare two bench files instead of running (`bench`): (baseline,
    /// current).
    pub compare: Option<(String, String)>,
    /// Regression tolerance band for `--compare`, percent.
    pub tolerance_pct: f64,
    /// Report regressions but exit successfully (`bench --compare`).
    pub warn_only: bool,
    /// Validate a bench file's schema instead of running (`bench`).
    pub validate: Option<String>,
    /// Restrict `bench` to these suite entry ids, both when running and
    /// when comparing (CI's bench smoke gates only the low-noise engine
    /// cells this way).
    pub entries: Option<Vec<String>>,
    /// Checkpoint directory: completed runs are journaled there and a
    /// rerun with the same options skips them (fig5–fig8, sweep, faults,
    /// bench).
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
}

impl Default for Options {
    fn default() -> Self {
        Options {
            runs: 1000,
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
            reps: None,
            tag: None,
            compare: None,
            tolerance_pct: crate::bench::DEFAULT_TOLERANCE_PCT,
            warn_only: false,
            validate: None,
            entries: None,
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
        }
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
            "--runs" => o.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
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
            "--reps" => {
                o.reps = Some(value("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?)
            }
            "--tag" => o.tag = Some(value("--tag")?),
            "--compare" => {
                let baseline = value("--compare")?;
                let current = value("--compare (second file)")?;
                o.compare = Some((baseline, current));
            }
            "--tolerance" => {
                o.tolerance_pct =
                    value("--tolerance")?.parse().map_err(|e| format!("--tolerance: {e}"))?;
                if !(o.tolerance_pct.is_finite() && o.tolerance_pct >= 0.0) {
                    return Err("--tolerance must be a non-negative percentage".into());
                }
            }
            "--warn-only" => o.warn_only = true,
            "--validate" => o.validate = Some(value("--validate")?),
            "--entries" => {
                let list = value("--entries")?;
                let ids: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(Into::into)
                    .collect();
                if ids.is_empty() {
                    return Err("--entries requires at least one entry id".into());
                }
                o.entries = Some(ids);
            }
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
        assert_eq!(o.runs, 1000);
        assert!(o.seed.is_none() && o.pes.is_none() && o.techniques.is_none());
    }

    #[test]
    fn full_option_set() {
        let o = parse_options(&args(
            "--runs 50 --threads 2 --seed 9 --csv out --pes 2,8 --techniques SS,BOLD \
             --fault-plan plan.json --out traces --trace tdir",
        ))
        .unwrap();
        assert_eq!(o.runs, 50);
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

    #[test]
    fn telemetry_and_bench_options() {
        let o = parse_options(&args(
            "--telemetry --telemetry-json tel.json --quick --reps 7 --tag pr3 \
             --tolerance 10 --warn-only --validate B.json",
        ))
        .unwrap();
        assert!(o.telemetry && o.quick && o.warn_only);
        assert_eq!(o.telemetry_json.as_deref(), Some("tel.json"));
        assert_eq!(o.reps, Some(7));
        assert_eq!(o.tag.as_deref(), Some("pr3"));
        assert_eq!(o.tolerance_pct, 10.0);
        assert_eq!(o.validate.as_deref(), Some("B.json"));
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
    fn entries_filter_parses_and_rejects_empty() {
        let o = parse_options(&args("--entries engine_churn,engine_fanout")).unwrap();
        assert_eq!(o.entries, Some(vec!["engine_churn".to_string(), "engine_fanout".to_string()]));
        assert!(parse_options(&args("--entries ,")).unwrap_err().contains("at least one"));
        assert!(parse_options(&args("--entries")).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn compare_takes_two_files() {
        let o = parse_options(&args("--compare A.json B.json")).unwrap();
        assert_eq!(o.compare, Some(("A.json".into(), "B.json".into())));
        let err = parse_options(&args("--compare A.json")).unwrap_err();
        assert!(err.contains("second file"));
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        assert!(parse_options(&args("--tolerance -5")).is_err());
        assert!(parse_options(&args("--tolerance nan")).is_err());
        assert!(parse_options(&args("--tolerance x")).unwrap_err().contains("--tolerance"));
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

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_options(&args("--runs")).unwrap_err().contains("requires a value"));
        assert!(parse_options(&args("--runs x")).unwrap_err().contains("--runs"));
        assert!(parse_options(&args("--bogus 1")).unwrap_err().contains("unknown option"));
        assert!(parse_options(&args("--pes 2,x")).unwrap_err().contains("--pes"));
        assert!(parse_options(&args("--techniques XYZ")).unwrap_err().contains("--techniques"));
    }
}

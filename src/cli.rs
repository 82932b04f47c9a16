//! Command-line interface of the `tcms` binary.
//!
//! ```text
//! tcms schedule <design> [--all-global ρ] [--global TYPE=ρ]... [--gantt] [--verify N]
//! tcms dot <design>
//! tcms summary <design>
//! ```
//!
//! `<design>` is either a structural `.dfg` file or a behavioral source
//! (detected by the `:=` assignment operator; compiled with
//! [`crate::ir::frontend`] against the paper's add/sub/mul library).
//!
//! The parsing and execution live here (and are unit tested); the binary
//! in `src/bin/tcms.rs` only wires stdin/stdout.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::ir::{display, dot, System};
use crate::modulo::{check_execution, random_activations, ScheduleError};
use crate::obs::{sink, NoopRecorder, Recorder, TraceRecorder};
use crate::serve::cache::SchedCache;
use crate::serve::pipeline::{self, ExecContext, ScheduleOptions, SimulateOptions};
use crate::serve::{persist, Client, FleetConfig, ServeConfig, ServeError, Server};

/// A typed CLI failure. Every class maps to a stable process exit code
/// (see [`CliError::exit_code`]) so scripts can branch on *why* a run
/// failed, not only that it did.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad command line: unknown flag, missing argument, malformed value.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying OS error text.
        message: String,
    },
    /// The input text failed to parse or compile (either language).
    Malformed(String),
    /// The sharing specification is invalid for the design.
    Spec(String),
    /// The scheduler failed with a typed [`ScheduleError`].
    Schedule(ScheduleError),
    /// A produced or loaded schedule failed verification.
    Verify(String),
    /// Binding / RTL generation failed after a valid schedule.
    Backend(String),
    /// A request to a `tcms serve` daemon failed remotely; carries the
    /// wire class and code (see [`crate::serve::ServeError`]).
    Service {
        /// The stable wire class, e.g. `overloaded`.
        class: String,
        /// The wire code (CLI exit codes, or 4xx/5xx for service-only
        /// classes).
        code: u16,
        /// The daemon's error message.
        message: String,
    },
}

impl CliError {
    /// The stable process exit code for this failure class.
    ///
    /// | code | class |
    /// |------|-------|
    /// | 2 | usage |
    /// | 3 | I/O |
    /// | 4 | malformed input |
    /// | 5 | invalid sharing spec |
    /// | 6 | infeasible time constraint |
    /// | 7 | run budget exhausted |
    /// | 8 | period grid overflow |
    /// | 9 | schedule verification failure |
    /// | 10 | backend (binding/RTL) failure |
    /// | 11 | remote service failure (unless the daemon's code is 2–10) |
    /// | 12 | daemon-internal failure (worker panic, wire code 500) |
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Malformed(_) => 4,
            CliError::Spec(_) | CliError::Schedule(ScheduleError::Spec(_)) => 5,
            CliError::Schedule(ScheduleError::Infeasible { .. }) => 6,
            CliError::Schedule(ScheduleError::BudgetExhausted(_)) => 7,
            CliError::Schedule(ScheduleError::PeriodGridOverflow { .. }) => 8,
            CliError::Verify(_) | CliError::Schedule(ScheduleError::VerificationFailed { .. }) => 9,
            CliError::Backend(_) => 10,
            // A remote scheduling failure keeps its one-shot exit code;
            // a daemon-internal failure (500) gets its own code so
            // operators can tell "the daemon crashed on this job" from
            // ordinary service pushback; the remaining service-only
            // classes (429/408/413/503) fold to 11.
            CliError::Service { code: 500, .. } => 12,
            CliError::Service { code, .. } => u8::try_from(*code)
                .ok()
                .filter(|c| (2..=10).contains(c))
                .unwrap_or(11),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, message } => write!(f, "cannot access `{path}`: {message}"),
            CliError::Malformed(msg) => write!(f, "malformed input: {msg}"),
            CliError::Spec(msg) => write!(f, "invalid sharing spec: {msg}"),
            CliError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            CliError::Verify(msg) => write!(f, "schedule verification failed: {msg}"),
            CliError::Backend(msg) => write!(f, "backend failed: {msg}"),
            CliError::Service {
                class,
                code,
                message,
            } => write!(f, "service error [{class}/{code}]: {message}"),
        }
    }
}

/// Maps a serving-pipeline error onto the CLI's error classes; the
/// scheduling classes translate one-to-one, the service-only classes
/// become [`CliError::Service`].
fn serve_to_cli(e: ServeError) -> CliError {
    match e {
        ServeError::BadRequest(m) => CliError::Usage(m),
        ServeError::Malformed(m) => CliError::Malformed(m),
        ServeError::Spec(m) => CliError::Spec(m),
        ServeError::Schedule(e) => CliError::Schedule(e),
        ServeError::Verify(m) => CliError::Verify(m),
        other @ (ServeError::UnknownAction(_)
        | ServeError::Overloaded { .. }
        | ServeError::DeadlineExpired { .. }
        | ServeError::ShuttingDown
        | ServeError::PeerUnavailable { .. }
        | ServeError::TooLarge { .. }
        | ServeError::Internal(_)) => CliError::Service {
            class: other.class().to_owned(),
            code: other.code(),
            message: other.to_string(),
        },
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

/// Connects to a daemon honouring `--timeout-ms`: when given, the value
/// bounds both the connect and every read; when absent, connects under
/// the default 5 s timeout and reads without one (scheduling jobs may
/// legitimately take a while).
fn connect_client(addr: &str, timeout_ms: Option<u64>) -> std::io::Result<Client> {
    match timeout_ms {
        Some(ms) => {
            let t = std::time::Duration::from_millis(ms.max(1));
            Client::connect_with(addr, Some(t), Some(t))
        }
        None => Client::connect(addr),
    }
}

/// Sends one request line to a daemon address that may be a
/// comma-separated failover list. A single address keeps the plain
/// pipelining client (and its historical timeout semantics); a list is
/// wrapped in [`crate::serve::ServeClient`] so transport failures and
/// typed `peer-unavailable` answers rotate to the next fleet member.
fn daemon_request(
    addr: &str,
    line: &str,
    timeout_ms: Option<u64>,
) -> Result<crate::serve::Response, CliError> {
    let io = |e: std::io::Error| CliError::Io {
        path: addr.to_owned(),
        message: e.to_string(),
    };
    let addrs: Vec<String> = addr
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if addrs.len() <= 1 {
        let mut client = connect_client(addr, timeout_ms).map_err(io)?;
        client.request(line).map_err(io)
    } else {
        let t = timeout_ms.map(|ms| std::time::Duration::from_millis(ms.max(1)));
        let policy = crate::serve::RetryPolicy {
            connect_timeout: t.or(Some(crate::serve::DEFAULT_CONNECT_TIMEOUT)),
            read_timeout: t,
            ..crate::serve::RetryPolicy::default()
        };
        let mut client = crate::serve::ServeClient::with_addrs(addrs, policy);
        client.request(line).map_err(io)
    }
}

impl From<ScheduleError> for CliError {
    fn from(e: ScheduleError) -> Self {
        CliError::Schedule(e)
    }
}

impl From<crate::modulo::CoreError> for CliError {
    fn from(e: crate::modulo::CoreError) -> Self {
        CliError::Schedule(ScheduleError::from(e))
    }
}

/// A parsed command line. The request options live in the pipeline's
/// own types ([`ScheduleOptions`], [`SimulateOptions`], [`ServeConfig`]),
/// so one-shot runs, `tcms client` and the daemon read the same values;
/// only the flags that make sense locally sit beside them.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Schedule a design and print the report.
    Schedule {
        /// Path of the design input.
        input: String,
        /// The request options (shared with `tcms client … schedule`).
        opts: ScheduleOptions,
        /// Write the schedule in `.sched` format to this path
        /// (from `--save`).
        save: Option<String>,
        /// Write a Chrome `trace_event` JSON file to this path
        /// (from `--trace`; open with Perfetto / about:tracing).
        trace: Option<String>,
        /// Print the metrics-registry summary table (from `--metrics`).
        metrics: bool,
        /// Write the JSONL event/timeline stream to this path
        /// (from `--timeline`).
        timeline: Option<String>,
        /// Worker-thread count override (from `--threads`; 0 = auto).
        threads: Option<usize>,
        /// Persistent content-addressed result cache directory
        /// (from `--cache-dir`).
        cache_dir: Option<String>,
    },
    /// Simulate a scheduled design under reactive workloads, optionally
    /// with deterministic fault injection.
    Simulate {
        /// Path of the design input.
        input: String,
        /// The request options (shared with `tcms client … simulate`).
        opts: SimulateOptions,
        /// Enable fault injection (from `--faults`).
        faults: bool,
        /// The fault plan used when `faults` is set; knob flags
        /// (`--fault-seed`, `--jitter`, `--drop-prob`, `--outage-rate`,
        /// `--repair`, `--slack`) override the moderate defaults.
        plan: crate::sim::FaultPlan,
        /// Worker-thread count override (from `--threads`; 0 = auto).
        threads: Option<usize>,
    },
    /// Re-check a saved `.sched` file against a design.
    Check {
        /// Path of the design input.
        input: String,
        /// Path of the `.sched` file.
        sched: String,
        /// Uniform period for all shareable types.
        all_global: Option<u32>,
        /// Per-type global assignments.
        globals: Vec<(String, u32)>,
    },
    /// Emit structural VHDL for a scheduled design.
    Vhdl {
        /// Path of the design input.
        input: String,
        /// Uniform period for all shareable types.
        all_global: Option<u32>,
        /// Per-type global assignments.
        globals: Vec<(String, u32)>,
        /// Data-path width in bits.
        width: u32,
    },
    /// Convert a (behavioral) design to the structural `.dfg` format.
    Dfg {
        /// Path of the design input.
        input: String,
    },
    /// Run the scheduling daemon until a client requests shutdown.
    Serve {
        /// The daemon configuration: [`ServeConfig::default`] listening
        /// on `127.0.0.1:7733`, with the serve and fleet flags applied.
        config: ServeConfig,
        /// Worker-thread count for the scheduler itself
        /// (from `--threads`; 0 = auto).
        threads: Option<usize>,
    },
    /// Send one request to a running daemon and print the response.
    Client {
        /// Daemon address, e.g. `127.0.0.1:7733`. A comma-separated
        /// list enables fleet failover: transport errors and typed
        /// `peer-unavailable` answers rotate to the next address.
        addr: String,
        /// The request to send.
        action: ClientCommand,
        /// Connect *and* read timeout in ms (from `--timeout-ms`;
        /// absent = 5 s connect timeout, unlimited read).
        timeout_ms: Option<u64>,
    },
    /// Fetch a daemon's statistics and render them human-readably
    /// (`tcms client <addr> stats` prints the raw JSON instead).
    Stats {
        /// Daemon address, e.g. `127.0.0.1:7733` (comma-separated for
        /// fleet failover, as for `tcms client`).
        addr: String,
        /// Connect *and* read timeout in ms (from `--timeout-ms`;
        /// absent = 5 s connect timeout, unlimited read).
        timeout_ms: Option<u64>,
    },
    /// Print the Graphviz rendering of a design.
    Dot {
        /// Path of the `.dfg` input.
        input: String,
    },
    /// Print a one-line summary of a design.
    Summary {
        /// Path of the `.dfg` input.
        input: String,
    },
    /// Print usage information.
    Help,
}

/// What `tcms client` asks a daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientCommand {
    /// Remote `schedule`: the design file is read locally and sent over
    /// the wire.
    Schedule {
        /// Path of the design input.
        input: String,
        /// Schedule options (the same flags as one-shot `schedule`).
        opts: ScheduleOptions,
        /// Per-job deadline in ms (from `--deadline-ms`).
        deadline_ms: Option<u64>,
    },
    /// Remote `simulate`.
    Simulate {
        /// Path of the design input.
        input: String,
        /// Simulation options (the same flags as one-shot `simulate`).
        opts: SimulateOptions,
        /// Per-job deadline in ms (from `--deadline-ms`).
        deadline_ms: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Daemon statistics (cache hit rate, queue depth, counters).
    Stats,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

/// Usage text printed by `tcms help`.
pub const USAGE: &str = "\
tcms — time-constrained modulo scheduling with global resource sharing

USAGE:
  tcms schedule <design> [OPTIONS]     schedule and report resources/area
  tcms simulate <design> [OPTIONS]     schedule, then simulate reactive load
  tcms check <design> <file.sched>     re-verify a saved schedule
  tcms vhdl <design> [OPTIONS]         schedule and emit structural VHDL
  tcms dfg <design>                    convert behavioral input to .dfg
  tcms dot <design>                    emit Graphviz
  tcms summary <design>                one-line design summary
  tcms serve [OPTIONS]                 run the NDJSON-over-TCP scheduling daemon
  tcms client <addr> <request>         talk to a running daemon
  tcms stats <addr>                    render a daemon's live statistics
  tcms help                            this text

Inputs may be structural (.dfg) or behavioral (`process p time=9 { y := a*b + c; }`).

SCHEDULE OPTIONS:
  --all-global <ρ>        share every multi-user type globally, period ρ
  --global <TYPE=ρ>       share one type globally over all its users
  --gantt                 print ASCII Gantt charts per block
  --verify <N>            check N randomized grid-aligned executions
  --save <file.sched>     write the schedule to disk
  --degrade               on failure, retry through the degradation ladder
                          (relax periods, demote groups, widen time, rc fallback)
  --threads <N>           worker threads for candidate-force evaluation
                          (0 = auto; also via the TCMS_THREADS env var);
                          results are bit-identical at every thread count
  --cache-dir <DIR>       persistent content-addressed result cache:
                          isomorphic designs re-use earlier schedules

SIMULATE OPTIONS:
  --all-global / --global as above, plus:
  --horizon <N>           simulated steps (default 5000)
  --seed <N>              workload seed (default 0)
  --mean-gap <N>          mean trigger gap of the random workload (default 50)
  --threads <N>           worker threads as above
  --faults                inject deterministic faults (moderate defaults)
  --fault-seed <N>        seed of the fault stream (default 0)
  --jitter <N>            max trigger delay in steps
  --drop-prob <P>         per-attempt authorization-slot drop probability
  --outage-rate <P>       per-step pool outage probability
  --repair <N>            outage repair time in steps
  --slack <N>             deadline allowance beyond the nominal span

OBSERVABILITY OPTIONS (schedule):
  --trace <file.json>     write a Chrome trace_event file (Perfetto/about:tracing)
  --metrics               print the metrics-registry summary table
  --timeline <file.jsonl> write the JSONL span/event/timeline stream

VHDL OPTIONS: --all-global / --global as above, plus --width <bits>

SERVE OPTIONS:
  --listen <addr>         listen address (default 127.0.0.1:7733; :0 = any port)
  --workers <N>           job worker threads (default auto)
  --queue <N>             bounded job-queue capacity (default 256)
  --cache-capacity <N>    result-cache entries (default 1024; 0 disables)
  --cache-dir <DIR>       load/save the cache snapshot across restarts
  --deadline-ms <N>       default per-job deadline
  --journal-dir <DIR>     capture an append-only workload journal
                          (JSONL; replayable with the repro_replay bench)
  --journal-rotate-bytes <N>
                          seal and rotate the journal when the live file
                          exceeds N bytes (default 0 = never rotate)
  --threads <N>           scheduler worker threads, as for schedule
  --http <addr>           also serve HTTP/1.1 (POST /schedule, GET /stats,
                          GET /healthz); responses carry the NDJSON line

FLEET OPTIONS (serve; all but --http require --peers):
  --peers <a,b,c>         the fleet's advertised addresses, incl. this node;
                          a consistent-hash ring routes each request to its
                          owner and anti-entropy converges the caches
  --advertise <addr>      this node's address as the peers list it
                          (default: the --listen address); a node whose
                          address is not in --peers refuses to start
  --replicas <N>          replica-set size, owner + backups (default 2)
  --sync-interval-ms <N>  anti-entropy period (default 2000; 0 disables)

CLIENT REQUESTS:
  tcms client <addr> schedule <design> [schedule opts] [--deadline-ms N]
  tcms client <addr> simulate <design> [simulate opts] [--deadline-ms N]
  tcms client <addr> ping | stats | shutdown
  (`--stats` is accepted as an alias for `stats`; `tcms stats <addr>`
  renders the same data as a summary instead of raw JSON)
  [--timeout-ms N]        bound the connect and each read; without it
                          connects time out after 5 s and reads block
                          (also accepted by `tcms stats`)
  <addr> may be a comma-separated list (typically a fleet's --peers):
  transport failures and `peer-unavailable` answers fail over to the
  next address automatically
";

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, missing
/// arguments and malformed options.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let it = &mut it;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "dot" => Ok(Command::Dot {
            input: word(it, "dot needs an input file")?,
        }),
        "summary" => Ok(Command::Summary {
            input: word(it, "summary needs an input file")?,
        }),
        "dfg" => Ok(Command::Dfg {
            input: word(it, "dfg needs an input file")?,
        }),
        "schedule" => {
            let input = word(it, "schedule needs an input file")?;
            let (mut save, mut trace, mut metrics, mut timeline) = (None, None, false, None);
            let (mut threads, mut cache_dir) = (None, None);
            let opts = schedule_options(it, |opt, it| {
                match opt {
                    "--save" => save = Some(value(it, opt)?),
                    "--trace" => trace = Some(value(it, opt)?),
                    "--metrics" => metrics = true,
                    "--timeline" => timeline = Some(value(it, opt)?),
                    "--threads" => threads = Some(num(it, opt)?),
                    "--cache-dir" => cache_dir = Some(value(it, opt)?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Schedule {
                input,
                opts,
                save,
                trace,
                metrics,
                timeline,
                threads,
                cache_dir,
            })
        }
        "simulate" => {
            let input = word(it, "simulate needs an input file")?;
            let (mut faults, mut threads) = (false, None);
            let mut plan = crate::sim::FaultPlan::moderate(0);
            let opts = simulate_options(it, |opt, it| {
                match opt {
                    "--threads" => threads = Some(num(it, opt)?),
                    "--faults" => faults = true,
                    "--fault-seed" => plan.seed = num(it, opt)?,
                    "--jitter" => plan.trigger_jitter = num(it, opt)?,
                    "--drop-prob" => plan.drop_slot_prob = num(it, opt)?,
                    "--outage-rate" => plan.outage_rate = num(it, opt)?,
                    "--repair" => plan.repair_time = num(it, opt)?,
                    "--slack" => plan.deadline_slack = num(it, opt)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            for (name, p) in [
                ("--drop-prob", plan.drop_slot_prob),
                ("--outage-rate", plan.outage_rate),
            ] {
                if !(p.is_finite() && (0.0..1.0).contains(&p)) {
                    return Err(format!("{name} must be a probability in [0, 1), got {p}"));
                }
            }
            Ok(Command::Simulate {
                input,
                opts,
                faults,
                plan,
                threads,
            })
        }
        "check" => {
            let input = word(it, "check needs a design file")?;
            let sched = word(it, "check needs a .sched file")?;
            let (mut all_global, mut globals) = (None, Vec::new());
            each_flag(it, |opt, it| {
                spec_flag(opt, it, &mut all_global, &mut globals)
            })?;
            Ok(Command::Check {
                input,
                sched,
                all_global,
                globals,
            })
        }
        "vhdl" => {
            let input = word(it, "vhdl needs an input file")?;
            let (mut all_global, mut globals, mut width) = (None, Vec::new(), 16);
            each_flag(it, |opt, it| match opt {
                "--width" => {
                    width = num(it, opt)?;
                    Ok(true)
                }
                _ => spec_flag(opt, it, &mut all_global, &mut globals),
            })?;
            Ok(Command::Vhdl {
                input,
                all_global,
                globals,
                width,
            })
        }
        "serve" => parse_serve(it),
        "stats" => {
            let addr = word(it, "stats needs a daemon address")?;
            let mut timeout_ms = None;
            each_flag(it, |opt, it| timeout_flag(opt, it, &mut timeout_ms))?;
            Ok(Command::Stats { addr, timeout_ms })
        }
        "client" => parse_client(it),
        other => Err(format!("unknown command `{other}` (try `tcms help`)")),
    }
}

/// The remaining command-line words.
type Args<'a> = std::slice::Iter<'a, String>;

/// The next word, or `missing` as the error.
fn word(it: &mut Args<'_>, missing: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| missing.to_owned())
}

/// The value of `flag`.
fn value(it: &mut Args<'_>, flag: &str) -> Result<String, String> {
    word(it, &format!("{flag} needs a value"))
}

/// The value of `flag`, parsed.
fn num<T: std::str::FromStr>(it: &mut Args<'_>, flag: &str) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
}

/// Feeds every remaining word to `flag`, which consumes the option's
/// value and returns `false` for an option it does not take.
fn each_flag<'a>(
    it: &mut Args<'a>,
    mut flag: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<(), String> {
    while let Some(opt) = it.next() {
        if !flag(opt, it)? {
            return Err(format!("unknown option `{opt}`"));
        }
    }
    Ok(())
}

/// The `--all-global` / `--global TYPE=ρ` flags of every scheduling
/// command.
fn spec_flag(
    opt: &str,
    it: &mut Args<'_>,
    all_global: &mut Option<u32>,
    globals: &mut Vec<(String, u32)>,
) -> Result<bool, String> {
    match opt {
        "--all-global" => *all_global = Some(num(it, opt)?),
        "--global" => {
            let v = value(it, opt)?;
            let (name, period) = v
                .split_once('=')
                .ok_or_else(|| format!("bad assignment `{v}` for --global (TYPE=PERIOD)"))?;
            let period = period.parse().map_err(|_| format!("bad period in `{v}`"))?;
            globals.push((name.to_owned(), period));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// `--timeout-ms`, accepted by `tcms stats` and anywhere in `tcms client`.
fn timeout_flag(
    opt: &str,
    it: &mut Args<'_>,
    timeout_ms: &mut Option<u64>,
) -> Result<bool, String> {
    if opt != "--timeout-ms" {
        return Ok(false);
    }
    *timeout_ms = Some(num(it, opt)?);
    Ok(true)
}

/// The schedule request flags, shared by `tcms schedule` and
/// `tcms client … schedule`; `local` takes the form's own flags first.
fn schedule_options<'a>(
    it: &mut Args<'a>,
    mut local: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<ScheduleOptions, String> {
    let mut opts = ScheduleOptions::default();
    each_flag(it, |opt, it| {
        if local(opt, it)? {
            return Ok(true);
        }
        match opt {
            "--gantt" => opts.gantt = true,
            "--degrade" => opts.degrade = true,
            "--verify" => opts.verify = num(it, opt)?,
            _ => return spec_flag(opt, it, &mut opts.all_global, &mut opts.globals),
        }
        Ok(true)
    })?;
    Ok(opts)
}

/// The simulate request flags, shared by `tcms simulate` and
/// `tcms client … simulate`; `local` takes the form's own flags first.
fn simulate_options<'a>(
    it: &mut Args<'a>,
    mut local: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<SimulateOptions, String> {
    let mut opts = SimulateOptions::default();
    each_flag(it, |opt, it| {
        if local(opt, it)? {
            return Ok(true);
        }
        match opt {
            "--horizon" => opts.horizon = num(it, opt)?,
            "--seed" => opts.seed = num(it, opt)?,
            "--mean-gap" => opts.mean_gap = num(it, opt)?,
            _ => return spec_flag(opt, it, &mut opts.all_global, &mut opts.globals),
        }
        Ok(true)
    })?;
    opts.validate()?;
    Ok(opts)
}

/// Parses the `serve` flags onto [`ServeConfig::default`] listening on
/// `127.0.0.1:7733`.
fn parse_serve(it: &mut Args<'_>) -> Result<Command, String> {
    let mut config = ServeConfig {
        listen: "127.0.0.1:7733".into(),
        ..ServeConfig::default()
    };
    let mut threads = None;
    // The fleet's own address is resolved last: `--advertise`, else the
    // final `--listen`.
    let mut fleet = FleetConfig::new(String::new(), Vec::new());
    let mut advertise = None;
    let mut fleet_flag = None;
    each_flag(it, |opt, it| {
        match opt {
            "--listen" => config.listen = value(it, opt)?,
            "--workers" => config.workers = num(it, opt)?,
            "--queue" => config.queue_capacity = num(it, opt)?,
            "--cache-capacity" => config.cache_capacity = num(it, opt)?,
            "--cache-dir" => config.cache_dir = Some(value(it, opt)?.into()),
            "--deadline-ms" => config.default_deadline_ms = Some(num(it, opt)?),
            "--journal-dir" => config.journal_dir = Some(value(it, opt)?.into()),
            "--journal-rotate-bytes" => config.journal_rotate_bytes = num(it, opt)?,
            "--http" => config.http_listen = Some(value(it, opt)?),
            "--threads" => threads = Some(num(it, opt)?),
            "--peers" => {
                fleet.peers = value(it, opt)?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if fleet.peers.is_empty() {
                    return Err("--peers needs at least one address".to_owned());
                }
            }
            "--advertise" => advertise = Some(value(it, opt)?),
            "--sync-interval-ms" => {
                let ms: u64 = num(it, opt)?;
                fleet.sync_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--replicas" => fleet.replicas = num(it, opt)?,
            _ => return Ok(false),
        }
        if matches!(opt, "--advertise" | "--sync-interval-ms" | "--replicas") {
            fleet_flag.get_or_insert_with(|| opt.to_owned());
        }
        Ok(true)
    })?;
    if config.queue_capacity == 0 {
        return Err("--queue must be positive".to_owned());
    }
    if fleet.peers.is_empty() {
        if let Some(flag) = fleet_flag {
            return Err(format!("{flag} requires --peers"));
        }
    } else {
        fleet.self_addr = advertise.unwrap_or_else(|| config.listen.clone());
        // `Server::start` refuses this too; refusing here makes it a
        // usage error.
        fleet.check_self_listed().map_err(|e| e.to_string())?;
        config.fleet = Some(fleet);
    }
    Ok(Command::Serve { config, threads })
}

/// Parses `tcms client <addr> [--timeout-ms N] <request> …`.
fn parse_client(it: &mut Args<'_>) -> Result<Command, String> {
    let addr = word(it, "client needs a daemon address")?;
    let mut timeout_ms = None;
    // `--timeout-ms` may come before the request verb, among the
    // schedule/simulate options, or after a control verb.
    let request = loop {
        let w = word(it, "client needs a request")?;
        if !timeout_flag(&w, it, &mut timeout_ms)? {
            break w;
        }
    };
    let mut deadline_ms = None;
    let mut wire = |opt: &str, it: &mut Args<'_>| match opt {
        "--deadline-ms" => {
            deadline_ms = Some(num(it, opt)?);
            Ok(true)
        }
        _ => timeout_flag(opt, it, &mut timeout_ms),
    };
    let action = match request.as_str() {
        "ping" => ClientCommand::Ping,
        "stats" | "--stats" => ClientCommand::Stats,
        "shutdown" => ClientCommand::Shutdown,
        "schedule" => {
            let input = word(it, "client schedule needs a design file")?;
            let opts = schedule_options(it, &mut wire)?;
            ClientCommand::Schedule {
                input,
                opts,
                deadline_ms,
            }
        }
        "simulate" => {
            let input = word(it, "client simulate needs a design file")?;
            let opts = simulate_options(it, &mut wire)?;
            ClientCommand::Simulate {
                input,
                opts,
                deadline_ms,
            }
        }
        other => {
            return Err(format!(
                "unknown client request `{other}` (schedule, simulate, ping, stats, shutdown)"
            ));
        }
    };
    // schedule/simulate consumed every word above; only a control verb
    // leaves a tail here.
    each_flag(it, |opt, it| timeout_flag(opt, it, &mut timeout_ms))?;
    Ok(Command::Client {
        addr,
        action,
        timeout_ms,
    })
}

/// Loads a system from either input language (delegates to the shared
/// serving pipeline so the daemon and the CLI accept identical inputs).
fn load_system(source: &str) -> Result<System, CliError> {
    pipeline::load_system(source).map_err(serve_to_cli)
}

/// An I/O failure on `path`.
fn io_error(path: &str, e: impl fmt::Display) -> CliError {
    CliError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    }
}

/// Executes a parsed command, reading inputs from disk.
///
/// # Errors
///
/// Returns a typed [`CliError`]; the binary maps it to a stable exit
/// code via [`CliError::exit_code`].
pub fn run(cmd: &Command) -> Result<String, CliError> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| io_error(path, e));
    let write =
        |path: &str, text: String| std::fs::write(path, text).map_err(|e| io_error(path, e));
    let set_threads = |threads: &Option<usize>| {
        if let Some(n) = threads {
            crate::fds::threads::set(*n);
        }
    };
    match cmd {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Dot { input } => {
            let system = load_system(&read(input)?)?;
            Ok(dot::to_dot(&system))
        }
        Command::Summary { input } => {
            let system = load_system(&read(input)?)?;
            Ok(format!("{}\n", display::summary(&system)))
        }
        Command::Schedule {
            input,
            opts,
            save,
            trace,
            metrics,
            timeline,
            threads,
            cache_dir,
        } => {
            set_threads(threads);
            let recorder =
                (trace.is_some() || *metrics || timeline.is_some()).then(TraceRecorder::new);
            let rec: &dyn Recorder = match &recorder {
                Some(r) => r,
                None => &NoopRecorder,
            };
            // With --cache-dir, warm a content-addressed cache sized like
            // the daemon's from disk and persist it (including this run's
            // result) after.
            let cache = cache_dir
                .as_deref()
                .map(|dir| {
                    let sizing = ServeConfig::default();
                    let cache = SchedCache::new(sizing.cache_capacity, sizing.cache_shards);
                    persist::load_snapshot(Path::new(dir), &cache).map_err(|e| io_error(dir, e))?;
                    Ok::<_, CliError>(cache)
                })
                .transpose()?;
            let ctx = ExecContext {
                cache: cache.as_ref(),
                rec,
                ..ExecContext::default()
            };
            let arts =
                pipeline::schedule_request(&read(input)?, opts, &ctx).map_err(serve_to_cli)?;
            if let (Some(cache), Some(dir)) = (&cache, cache_dir.as_deref()) {
                persist::save_snapshot(Path::new(dir), &cache.entries())
                    .map_err(|e| io_error(dir, e))?;
            }
            let mut out = arts.text;
            if let Some(path) = save {
                write(
                    path,
                    crate::fds::schedule_io::to_sched(&arts.system, &arts.schedule),
                )?;
                let _ = writeln!(out, "schedule saved to {path}");
            }
            if let Some(recorder) = recorder {
                let data = recorder.finish();
                if let Some(path) = trace {
                    write(path, sink::to_chrome_trace(&data))?;
                    let _ = writeln!(out, "chrome trace written to {path}");
                }
                if let Some(path) = timeline {
                    write(path, sink::to_jsonl(&data))?;
                    let _ = writeln!(out, "timeline written to {path}");
                }
                if *metrics {
                    out.push('\n');
                    out.push_str(&data.metrics.render_summary());
                }
            }
            Ok(out)
        }
        Command::Simulate {
            input,
            opts,
            faults,
            plan,
            threads,
        } => {
            set_threads(threads);
            let arts = pipeline::schedule_request(
                &read(input)?,
                &opts.schedule_options(),
                &ExecContext::default(),
            )
            .map_err(serve_to_cli)?;
            let (mut out, metrics) =
                pipeline::simulate_schedule(&arts, opts, faults.then_some(plan));
            if let Some(m) = metrics {
                let _ = writeln!(
                    out,
                    "fault injection (seed {}): jitter<={} drop-prob={} outage-rate={} \
                     repair={} slack={}",
                    plan.seed,
                    plan.trigger_jitter,
                    plan.drop_slot_prob,
                    plan.outage_rate,
                    plan.repair_time,
                    plan.deadline_slack
                );
                let _ = writeln!(out, "  jitter injected:          {}", m.jitter_injected);
                let _ = writeln!(out, "  dropped slots:            {}", m.dropped_slots);
                let _ = writeln!(
                    out,
                    "  outages:                  {} ({} instance-steps)",
                    m.outages, m.outage_instance_steps
                );
                let _ = writeln!(
                    out,
                    "  authorization violations: {}",
                    m.authorization_violations
                );
                let _ = writeln!(out, "  missed deadlines:         {}", m.missed_deadlines);
                let _ = writeln!(out, "  time to drain:            {}", m.time_to_drain);
            }
            Ok(out)
        }
        Command::Check {
            input,
            sched,
            all_global,
            globals,
        } => {
            let system = load_system(&read(input)?)?;
            let spec = pipeline::build_spec(&system, *all_global, globals).map_err(serve_to_cli)?;
            let schedule = crate::fds::schedule_io::from_sched(&system, &read(sched)?)
                .map_err(|e| CliError::Malformed(e.to_string()))?;
            schedule
                .verify(&system)
                .map_err(|e| CliError::Verify(e.to_string()))?;
            let report = crate::modulo::compute_report(&system, &spec, &schedule);
            for seed in 0..10 {
                let acts = random_activations(&system, &spec, &schedule, 3, seed);
                check_execution(&system, &spec, &schedule, &report, &acts)
                    .map_err(|e| CliError::Verify(e.to_string()))?;
            }
            Ok(format!(
                "schedule valid: precedence, deadlines and 10 randomized executions pass; total area {}\n",
                report.total_area()
            ))
        }
        Command::Vhdl {
            input,
            all_global,
            globals,
            width,
        } => {
            let opts = ScheduleOptions {
                all_global: *all_global,
                globals: globals.clone(),
                ..ScheduleOptions::default()
            };
            let arts = pipeline::schedule_request(&read(input)?, &opts, &ExecContext::default())
                .map_err(serve_to_cli)?;
            let backend = |e: &dyn fmt::Display| CliError::Backend(e.to_string());
            let binding = crate::alloc::bind_system(&arts.system, &arts.spec, &arts.schedule)
                .map_err(|e| backend(&e))?;
            let registers = crate::alloc::allocate_registers(&arts.system, &arts.schedule);
            crate::alloc::emit_vhdl(
                &arts.system,
                &arts.spec,
                &arts.schedule,
                &binding,
                &registers,
                &crate::alloc::RtlOptions {
                    width: *width,
                    entity: "tcms_top".into(),
                },
            )
            .map_err(|e| backend(&e))
        }
        Command::Dfg { input } => {
            let system = load_system(&read(input)?)?;
            Ok(display::to_dfg(&system))
        }
        Command::Serve { config, threads } => {
            set_threads(threads);
            let server = Server::start(config.clone()).map_err(|e| io_error(&config.listen, e))?;
            // Announce the bound address immediately (":0" resolves to a
            // real port) so harnesses can connect, then block until a
            // client's shutdown request drains the daemon.
            println!("tcms-serve listening on {}", server.local_addr());
            if let Some(http_addr) = server.local_http_addr() {
                println!("tcms-serve http on {http_addr}");
            }
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait().map_err(|e| io_error(&config.listen, e))?;
            Ok("tcms-serve shut down\n".to_owned())
        }
        Command::Client {
            addr,
            action,
            timeout_ms,
        } => {
            let line = match action {
                ClientCommand::Schedule {
                    input,
                    opts,
                    deadline_ms,
                } => crate::serve::client::schedule_request_line(
                    "cli",
                    &read(input)?,
                    opts,
                    *deadline_ms,
                ),
                ClientCommand::Simulate {
                    input,
                    opts,
                    deadline_ms,
                } => crate::serve::client::simulate_request_line(
                    "cli",
                    &read(input)?,
                    opts,
                    *deadline_ms,
                ),
                ClientCommand::Ping => crate::serve::client::control_request_line("cli", "ping"),
                ClientCommand::Stats => crate::serve::client::control_request_line("cli", "stats"),
                ClientCommand::Shutdown => {
                    crate::serve::client::control_request_line("cli", "shutdown")
                }
            };
            let response = daemon_request(addr, &line, *timeout_ms)?;
            if let Some((class, code, message)) = response.error {
                return Err(CliError::Service {
                    class,
                    code,
                    message,
                });
            }
            match response.output() {
                // schedule/simulate responses carry the report verbatim.
                Some(output) => Ok(output.to_owned()),
                // Control responses print as their JSON body.
                None => Ok(format!("{}\n", crate::obs::json::to_string(&response.body))),
            }
        }
        Command::Stats { addr, timeout_ms } => {
            let line = crate::serve::client::control_request_line("cli", "stats");
            let response = daemon_request(addr, &line, *timeout_ms)?;
            if let Some((class, code, message)) = response.error {
                return Err(CliError::Service {
                    class,
                    code,
                    message,
                });
            }
            let body = response.body.as_object().ok_or_else(|| CliError::Service {
                class: "bad-request".into(),
                code: 2,
                message: "stats response body is not an object".into(),
            })?;
            Ok(crate::serve::render_stats(body))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The report `tcms schedule` prints for `source`.
    fn schedule_text(
        source: &str,
        all_global: Option<u32>,
        globals: &[(String, u32)],
        gantt: bool,
        verify: usize,
    ) -> Result<String, CliError> {
        let opts = ScheduleOptions {
            all_global,
            globals: globals.to_vec(),
            gantt,
            verify,
            ..ScheduleOptions::default()
        };
        pipeline::schedule_request(source, &opts, &ExecContext::default())
            .map(|arts| arts.text)
            .map_err(serve_to_cli)
    }

    const SAMPLE: &str = "
resource add delay=1 area=1
resource mul delay=2 area=4 pipelined
process A
block body time=8
op m0 mul
op a0 add
edge m0 a0
process B
block body time=8
op m0 mul
op a0 add
edge m0 a0
";

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_schedule_options() {
        let cmd = parse_args(&args(&[
            "schedule",
            "x.dfg",
            "--all-global",
            "4",
            "--global",
            "mul=2",
            "--gantt",
            "--verify",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Schedule {
                input: "x.dfg".into(),
                opts: ScheduleOptions {
                    all_global: Some(4),
                    globals: vec![("mul".into(), 2)],
                    gantt: true,
                    verify: 7,
                    ..ScheduleOptions::default()
                },
                save: None,
                trace: None,
                metrics: false,
                timeline: None,
                threads: None,
                cache_dir: None,
            }
        );
    }

    #[test]
    fn parse_threads_option() {
        let cmd = parse_args(&args(&["schedule", "x.dfg", "--threads", "4"])).unwrap();
        match cmd {
            Command::Schedule { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse_args(&args(&["simulate", "x.dfg", "--threads", "2"])).unwrap();
        match cmd {
            Command::Simulate { threads, .. } => assert_eq!(threads, Some(2)),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_args(&args(&["schedule", "x.dfg", "--threads"])).is_err());
        assert!(parse_args(&args(&["schedule", "x.dfg", "--threads", "many"])).is_err());
    }

    #[test]
    fn parse_simulate_options() {
        let cmd = parse_args(&args(&[
            "simulate",
            "x.dfg",
            "--all-global",
            "5",
            "--horizon",
            "2000",
            "--faults",
            "--drop-prob",
            "0.1",
            "--repair",
            "40",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate {
                opts, faults, plan, ..
            } => {
                assert_eq!(opts.horizon, 2000);
                assert_eq!(opts.all_global, Some(5));
                assert!(faults);
                assert!((plan.drop_slot_prob - 0.1).abs() < 1e-12);
                assert_eq!(plan.repair_time, 40);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn one_shot_and_client_forms_parse_the_same_request_options() {
        let one_shot =
            |verb: &str, flags: &[&str]| parse_args(&args(&[&[verb, "x.dfg"], flags].concat()));
        let client = |verb: &str, flags: &[&str]| {
            let tail = ["--deadline-ms", "250", "--timeout-ms", "90"];
            parse_args(&args(
                &[&["client", "a:1", verb, "x.dfg"], flags, &tail].concat(),
            ))
        };
        let flags = [
            "--all-global",
            "4",
            "--global",
            "mul=2",
            "--gantt",
            "--verify",
            "3",
            "--degrade",
        ];
        match (one_shot("schedule", &flags), client("schedule", &flags)) {
            (
                Ok(Command::Schedule { opts, .. }),
                Ok(Command::Client {
                    action: ClientCommand::Schedule { opts: remote, .. },
                    ..
                }),
            ) => {
                assert_eq!(opts, remote);
                assert_eq!(
                    opts,
                    ScheduleOptions {
                        all_global: Some(4),
                        globals: vec![("mul".into(), 2)],
                        gantt: true,
                        verify: 3,
                        degrade: true,
                    }
                );
            }
            other => panic!("unexpected commands {other:?}"),
        }
        let flags = [
            "--global",
            "add=3",
            "--horizon",
            "800",
            "--seed",
            "9",
            "--mean-gap",
            "20",
        ];
        match (one_shot("simulate", &flags), client("simulate", &flags)) {
            (
                Ok(Command::Simulate { opts, .. }),
                Ok(Command::Client {
                    action: ClientCommand::Simulate { opts: remote, .. },
                    ..
                }),
            ) => {
                assert_eq!(opts, remote);
                assert_eq!(
                    opts,
                    SimulateOptions {
                        all_global: None,
                        globals: vec![("add".into(), 3)],
                        horizon: 800,
                        seed: 9,
                        mean_gap: 20,
                    }
                );
            }
            other => panic!("unexpected commands {other:?}"),
        }
        // Both forms refuse the same degenerate values with one message.
        for bad in [["--horizon", "0"], ["--mean-gap", "0"]] {
            let err = one_shot("simulate", &bad).unwrap_err();
            assert_eq!(client("simulate", &bad).unwrap_err(), err);
        }
    }

    #[test]
    fn parse_simulate_rejects_degenerate_values() {
        assert!(parse_args(&args(&["simulate", "x.dfg", "--drop-prob", "1.5"])).is_err());
        assert!(parse_args(&args(&["simulate", "x.dfg", "--horizon", "0"])).is_err());
        assert!(parse_args(&args(&["simulate", "x.dfg", "--mean-gap", "0"])).is_err());
        assert!(parse_args(&args(&["simulate", "x.dfg", "--outage-rate", "nan"])).is_err());
    }

    #[test]
    fn parse_observability_options() {
        let cmd = parse_args(&args(&[
            "schedule",
            "x.dfg",
            "--trace",
            "t.json",
            "--metrics",
            "--timeline",
            "tl.jsonl",
        ]))
        .unwrap();
        match cmd {
            Command::Schedule {
                trace,
                metrics,
                timeline,
                ..
            } => {
                assert_eq!(trace.as_deref(), Some("t.json"));
                assert!(metrics);
                assert_eq!(timeline.as_deref(), Some("tl.jsonl"));
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse_args(&args(&["schedule", "x", "--trace"])).is_err());
        assert!(parse_args(&args(&["schedule", "x", "--timeline"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&args(&["frob"])).is_err());
        assert!(parse_args(&args(&["schedule"])).is_err());
        assert!(parse_args(&args(&["schedule", "x", "--global", "mul"])).is_err());
        assert!(parse_args(&args(&["schedule", "x", "--all-global", "x"])).is_err());
        assert!(parse_args(&args(&["schedule", "x", "--bogus"])).is_err());
    }

    #[test]
    fn schedule_source_local_and_global() {
        let local = schedule_text(SAMPLE, None, &[], false, 0).unwrap();
        assert!(local.contains("mul        2 instances"), "{local}");
        let global = schedule_text(SAMPLE, None, &[("mul".into(), 2)], false, 3).unwrap();
        assert!(global.contains("shared pool 1"), "{global}");
        assert!(global.contains("conflict-free"));
    }

    #[test]
    fn schedule_source_gantt() {
        let out = schedule_text(SAMPLE, Some(2), &[], true, 0).unwrap();
        assert!(out.contains("A :: body"));
        assert!(out.contains("B :: body"));
    }

    #[test]
    fn schedule_source_reports_unknown_type() {
        let err = schedule_text(SAMPLE, None, &[("div".into(), 2)], false, 0).unwrap_err();
        assert!(err.to_string().contains("unknown resource type"));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn malformed_source_is_typed() {
        let err = schedule_text("resource add delay=zero", None, &[], false, 0).unwrap_err();
        assert!(matches!(err, CliError::Malformed(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        use crate::modulo::CoreError;
        let errors = [
            CliError::Usage("u".into()),
            CliError::Io {
                path: "p".into(),
                message: "m".into(),
            },
            CliError::Malformed("m".into()),
            CliError::Spec("s".into()),
            CliError::Schedule(ScheduleError::Infeasible {
                block: "P::b".into(),
                slack: -5,
                binding_resource: "mul".into(),
            }),
            CliError::Schedule(ScheduleError::PeriodGridOverflow {
                process: "P".into(),
            }),
            CliError::Verify("v".into()),
            CliError::Backend("b".into()),
        ];
        let codes: Vec<u8> = errors.iter().map(CliError::exit_code).collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 8, 9, 10]);
        for e in &errors {
            assert!(!e.to_string().is_empty());
            assert_ne!(e.exit_code(), 0, "failures must not exit 0");
        }
        // A wrapped spec error shares the spec class.
        let wrapped = CliError::Schedule(ScheduleError::Spec(CoreError::GroupTooSmall {
            rtype: "mul".into(),
        }));
        assert_eq!(wrapped.exit_code(), 5);
    }

    #[test]
    fn every_core_error_variant_round_trips_to_an_exit_code() {
        use crate::modulo::CoreError;
        // One constructor per CoreError variant: each must display
        // something, convert into a CliError via ScheduleError, and land
        // on its documented exit code (5 for spec problems, 8 for the
        // promoted period-grid overflow).
        let variants: Vec<(CoreError, u8)> = vec![
            (
                CoreError::GroupTooSmall {
                    rtype: "mul".into(),
                },
                5,
            ),
            (
                CoreError::ProcessDoesNotUseType {
                    rtype: "mul".into(),
                    process: "P1".into(),
                },
                5,
            ),
            (
                CoreError::DuplicateProcessInGroup {
                    rtype: "mul".into(),
                    process: "P1".into(),
                },
                5,
            ),
            (
                CoreError::MissingPeriod {
                    rtype: "mul".into(),
                },
                5,
            ),
            (
                CoreError::ZeroPeriod {
                    rtype: "mul".into(),
                },
                5,
            ),
            (
                CoreError::ResourceInfeasible {
                    block: "body".into(),
                    time_range: 15,
                },
                5,
            ),
            (
                CoreError::ZeroInstances {
                    rtype: "mul".into(),
                },
                5,
            ),
            (
                CoreError::PeriodGridOverflow {
                    process: "P1".into(),
                },
                8,
            ),
        ];
        for (core, expected) in variants {
            let display = core.to_string();
            assert!(!display.is_empty());
            let cli: CliError = core.into();
            assert_eq!(cli.exit_code(), expected, "{cli}");
            assert!(!cli.to_string().is_empty());
        }
        // The ScheduleError variants not derived from CoreError.
        let verification = CliError::Schedule(ScheduleError::VerificationFailed {
            detail: "pool overflow at t=3".into(),
        });
        assert_eq!(verification.exit_code(), 9);
        assert!(verification.to_string().contains("re-verification"));
    }

    #[test]
    fn dfg_with_assignment_in_comment_stays_structural() {
        let src = format!("# note: y := a+b comes later\n{SAMPLE}");
        let out = schedule_text(&src, None, &[], false, 0).unwrap();
        assert!(out.contains("2 processes"), "{out}");
    }

    #[test]
    fn behavioral_sources_detected_and_scheduled() {
        let src = "
process a time=8 { y := p * q + r; }
process b time=8 { z := p * q; }
";
        let out = schedule_text(src, Some(4), &[], false, 2).unwrap();
        assert!(out.contains("shared pool 1"), "{out}");
        assert!(out.contains("conflict-free"));
    }

    #[test]
    fn run_reads_missing_file_gracefully() {
        let err = run(&Command::Summary {
            input: "/nonexistent/x.dfg".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot access"));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn run_help() {
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn parse_new_commands() {
        let v = parse_args(&args(&[
            "vhdl",
            "x.dfg",
            "--all-global",
            "3",
            "--width",
            "8",
        ]))
        .unwrap();
        assert_eq!(
            v,
            Command::Vhdl {
                input: "x.dfg".into(),
                all_global: Some(3),
                globals: vec![],
                width: 8,
            }
        );
        let c = parse_args(&args(&["check", "x.dfg", "x.sched", "--global", "mul=2"])).unwrap();
        assert!(matches!(c, Command::Check { .. }));
        assert!(parse_args(&args(&["check", "x.dfg"])).is_err());
        assert!(matches!(
            parse_args(&args(&["dfg", "x.hls"])).unwrap(),
            Command::Dfg { .. }
        ));
    }

    #[test]
    fn schedule_save_then_check_round_trip() {
        let dir = std::env::temp_dir().join("tcms_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let design = dir.join("d.dfg");
        let sched = dir.join("d.sched");
        std::fs::write(&design, SAMPLE).unwrap();
        let out = run(&Command::Schedule {
            input: design.to_string_lossy().into_owned(),
            opts: ScheduleOptions {
                all_global: Some(2),
                ..ScheduleOptions::default()
            },
            save: Some(sched.to_string_lossy().into_owned()),
            trace: None,
            metrics: false,
            timeline: None,
            threads: None,
            cache_dir: None,
        })
        .unwrap();
        assert!(out.contains("schedule saved"));
        let check = run(&Command::Check {
            input: design.to_string_lossy().into_owned(),
            sched: sched.to_string_lossy().into_owned(),
            all_global: Some(2),
            globals: vec![],
        })
        .unwrap();
        assert!(check.contains("schedule valid"), "{check}");
    }

    #[test]
    fn schedule_with_observability_writes_valid_sinks() {
        let dir = std::env::temp_dir().join("tcms_cli_test_obs");
        std::fs::create_dir_all(&dir).unwrap();
        let design = dir.join("d.dfg");
        let trace = dir.join("d.trace.json");
        let timeline = dir.join("d.timeline.jsonl");
        std::fs::write(&design, SAMPLE).unwrap();
        let out = run(&Command::Schedule {
            input: design.to_string_lossy().into_owned(),
            opts: ScheduleOptions {
                all_global: Some(2),
                ..ScheduleOptions::default()
            },
            save: None,
            trace: Some(trace.to_string_lossy().into_owned()),
            metrics: true,
            timeline: Some(timeline.to_string_lossy().into_owned()),
            threads: None,
            cache_dir: None,
        })
        .unwrap();
        assert!(out.contains("chrome trace written"), "{out}");
        assert!(out.contains("timeline written"), "{out}");
        assert!(out.contains("ifds.iterations"), "{out}");
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(sink::validate_chrome_trace(&chrome).unwrap() > 0);
        let jsonl = std::fs::read_to_string(&timeline).unwrap();
        assert!(sink::validate_jsonl(&jsonl).unwrap() > 0);
    }

    #[test]
    fn vhdl_command_emits_entity() {
        let dir = std::env::temp_dir().join("tcms_cli_test_vhdl");
        std::fs::create_dir_all(&dir).unwrap();
        let design = dir.join("d.dfg");
        std::fs::write(&design, SAMPLE).unwrap();
        let out = run(&Command::Vhdl {
            input: design.to_string_lossy().into_owned(),
            all_global: Some(2),
            globals: vec![],
            width: 8,
        })
        .unwrap();
        assert!(out.contains("entity tcms_top is"));
        assert!(out.contains("unsigned(7 downto 0)"));
    }

    #[test]
    fn dfg_command_converts_behavioral() {
        let dir = std::env::temp_dir().join("tcms_cli_test_dfg");
        std::fs::create_dir_all(&dir).unwrap();
        let design = dir.join("d.hls");
        std::fs::write(&design, "process p time=9 { y := a*b + c; }").unwrap();
        let out = run(&Command::Dfg {
            input: design.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("process p"));
        assert!(out.contains("op mul1 mul"));
        assert!(out.contains("edge mul1 add2"));
    }

    #[test]
    fn parse_serve_options() {
        let cmd = parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "32",
            "--cache-capacity",
            "64",
            "--cache-dir",
            "/tmp/c",
            "--deadline-ms",
            "500",
            "--journal-dir",
            "/tmp/j",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                config: ServeConfig {
                    listen: "127.0.0.1:0".into(),
                    workers: 3,
                    queue_capacity: 32,
                    cache_capacity: 64,
                    cache_dir: Some("/tmp/c".into()),
                    default_deadline_ms: Some(500),
                    journal_dir: Some("/tmp/j".into()),
                    ..ServeConfig::default()
                },
                threads: None,
            }
        );
        // Unset flags keep the daemon's own defaults; only the listen
        // address differs from `ServeConfig::default()`.
        assert_eq!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve {
                config: ServeConfig {
                    listen: "127.0.0.1:7733".into(),
                    ..ServeConfig::default()
                },
                threads: None,
            }
        );
        assert!(parse_args(&args(&["serve", "--queue", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&args(&["serve", "--journal-dir"])).is_err());
        assert!(matches!(
            parse_args(&args(&["serve", "--journal-rotate-bytes", "65536"])).unwrap(),
            Command::Serve { config, .. } if config.journal_rotate_bytes == 65536
        ));
        assert!(parse_args(&args(&["serve", "--journal-rotate-bytes", "x"])).is_err());
    }

    #[test]
    fn parse_serve_fleet_options() {
        let cmd = parse_args(&args(&[
            "serve",
            "--listen",
            "10.0.0.1:7733",
            "--peers",
            "10.0.0.1:7733, 10.0.0.2:7733,10.0.0.3:7733",
            "--advertise",
            "10.0.0.1:7733",
            "--http",
            "0.0.0.0:8080",
            "--sync-interval-ms",
            "500",
            "--replicas",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Serve { config, .. } => {
                assert_eq!(config.http_listen.as_deref(), Some("0.0.0.0:8080"));
                let fleet = config.fleet.expect("--peers makes a fleet node");
                // Whitespace around the commas is forgiven.
                assert_eq!(
                    fleet.peers,
                    vec!["10.0.0.1:7733", "10.0.0.2:7733", "10.0.0.3:7733"]
                );
                assert_eq!(fleet.self_addr, "10.0.0.1:7733");
                assert_eq!(fleet.sync_interval, Some(Duration::from_millis(500)));
                assert_eq!(fleet.replicas, 3);
            }
            other => panic!("unexpected command {other:?}"),
        }
        // Without `--advertise` the node is named by its final `--listen`.
        match parse_args(&args(&["serve", "--peers", "a:1,b:2", "--listen", "b:2"])).unwrap() {
            Command::Serve { config, .. } => {
                assert_eq!(config.fleet.unwrap().self_addr, "b:2");
            }
            other => panic!("unexpected command {other:?}"),
        }
        // `--http` stands alone; every other fleet flag needs `--peers`.
        assert!(parse_args(&args(&["serve", "--http", "0.0.0.0:8080"])).is_ok());
        for flags in [
            &["serve", "--advertise", "a:1"][..],
            &["serve", "--sync-interval-ms", "100"],
            &["serve", "--replicas", "2"],
        ] {
            assert!(parse_args(&args(flags)).is_err(), "{flags:?}");
        }
        assert!(parse_args(&args(&["serve", "--peers", " , "])).is_err());
        // A node outside its own peer list is refused, naming the fix.
        let err =
            parse_args(&args(&["serve", "--peers", "a:1", "--advertise", "b:2"])).unwrap_err();
        assert!(err.contains("--advertise"), "{err}");
    }

    #[test]
    fn parse_stats_subcommand() {
        assert_eq!(
            parse_args(&args(&["stats", "127.0.0.1:7733"])).unwrap(),
            Command::Stats {
                addr: "127.0.0.1:7733".into(),
                timeout_ms: None,
            }
        );
        assert_eq!(
            parse_args(&args(&["stats", "a:1", "--timeout-ms", "750"])).unwrap(),
            Command::Stats {
                addr: "a:1".into(),
                timeout_ms: Some(750),
            }
        );
        assert!(parse_args(&args(&["stats"])).is_err());
        assert!(parse_args(&args(&["stats", "a:1", "--timeout-ms"])).is_err());
        assert!(parse_args(&args(&["stats", "a:1", "--bogus"])).is_err());
    }

    #[test]
    fn parse_client_requests() {
        let cmd = parse_args(&args(&[
            "client",
            "127.0.0.1:7733",
            "schedule",
            "x.dfg",
            "--all-global",
            "4",
            "--verify",
            "2",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        match cmd {
            Command::Client { addr, action, .. } => {
                assert_eq!(addr, "127.0.0.1:7733");
                match action {
                    ClientCommand::Schedule {
                        input,
                        opts,
                        deadline_ms,
                    } => {
                        assert_eq!(input, "x.dfg");
                        assert_eq!(opts.all_global, Some(4));
                        assert_eq!(opts.verify, 2);
                        assert_eq!(deadline_ms, Some(250));
                    }
                    other => panic!("unexpected action {other:?}"),
                }
            }
            other => panic!("unexpected command {other:?}"),
        }
        for request in ["ping", "stats", "shutdown"] {
            assert!(matches!(
                parse_args(&args(&["client", "a:1", request])).unwrap(),
                Command::Client { .. }
            ));
        }
        // `--stats` is a flag-spelled alias for the `stats` request.
        assert!(matches!(
            parse_args(&args(&["client", "a:1", "--stats"])).unwrap(),
            Command::Client {
                action: ClientCommand::Stats,
                ..
            }
        ));
        assert!(parse_args(&args(&["client", "a:1", "frob"])).is_err());
        assert!(parse_args(&args(&["client", "a:1"])).is_err());
        assert!(parse_args(&args(&["client", "a:1", "simulate", "x", "--horizon", "0"])).is_err());
        // `--timeout-ms` is accepted before the request verb, after a
        // control verb, and among schedule/simulate options.
        for argv in [
            vec!["client", "a:1", "--timeout-ms", "250", "ping"],
            vec!["client", "a:1", "ping", "--timeout-ms", "250"],
            vec![
                "client",
                "a:1",
                "schedule",
                "x.dfg",
                "--all-global",
                "4",
                "--timeout-ms",
                "250",
            ],
        ] {
            assert!(matches!(
                parse_args(&args(&argv)).unwrap(),
                Command::Client {
                    timeout_ms: Some(250),
                    ..
                }
            ));
        }
        assert!(parse_args(&args(&["client", "a:1", "ping", "--timeout-ms"])).is_err());
        assert!(parse_args(&args(&["client", "a:1", "ping", "--bogus"])).is_err());
    }

    #[test]
    fn service_errors_map_to_exit_codes() {
        // Remote scheduling classes keep their one-shot exit codes.
        let remote = CliError::Service {
            class: "infeasible".into(),
            code: 6,
            message: "m".into(),
        };
        assert_eq!(remote.exit_code(), 6);
        // Service-only classes fold to the dedicated code 11.
        for code in [429u16, 408, 413, 503] {
            let e = CliError::Service {
                class: "overloaded".into(),
                code,
                message: "m".into(),
            };
            assert_eq!(e.exit_code(), 11);
            assert!(e.to_string().contains("service error"));
        }
        // A daemon-internal failure (worker panic, wire 500) gets its
        // own exit code so operators can distinguish "the daemon
        // crashed on this job" from ordinary service pushback.
        let internal = serve_to_cli(ServeError::Internal("scheduler panicked".into()));
        assert_eq!(internal.exit_code(), 12);
        assert!(internal.to_string().contains("internal/500"));
        let too_large = serve_to_cli(ServeError::TooLarge { limit: 1024 });
        assert_eq!(too_large.exit_code(), 11);
        assert!(too_large.to_string().contains("too-large/413"));
        // An unknown-action rejection (wire code 404) is pinned to the
        // same fold: a version-skewed daemon exits 11, never something
        // that collides with a scheduling failure.
        let skew = serve_to_cli(ServeError::UnknownAction("frobnicate".into()));
        assert_eq!(skew.exit_code(), 11);
        assert!(skew.to_string().contains("unknown-action/404"));
    }

    #[test]
    fn schedule_cache_dir_round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("tcms_cli_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let design = dir.join("d.dfg");
        std::fs::write(&design, SAMPLE).unwrap();
        let cmd = |cache: bool| Command::Schedule {
            input: design.to_string_lossy().into_owned(),
            opts: ScheduleOptions {
                all_global: Some(2),
                verify: 1,
                ..ScheduleOptions::default()
            },
            save: None,
            trace: None,
            metrics: false,
            timeline: None,
            threads: None,
            cache_dir: cache.then(|| dir.join("cache").to_string_lossy().into_owned()),
        };
        let plain = run(&cmd(false)).unwrap();
        let miss = run(&cmd(true)).unwrap();
        let hit = run(&cmd(true)).unwrap();
        assert_eq!(plain, miss, "cache miss output matches cache-less run");
        assert_eq!(plain, hit, "cache hit output matches cache-less run");
        assert!(
            crate::serve::persist::snapshot_path(&dir.join("cache")).exists(),
            "snapshot persisted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

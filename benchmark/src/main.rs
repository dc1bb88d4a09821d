//! `benchmark run` and `benchmark compare` — see `README.md`.

use benchmark::compare;
use benchmark::run::{self, Options};
use benchmark::spec::{self, Size, Workload};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  benchmark compare A.jsonl B.jsonl
workloads: pace-session, cempar-session, bulk-learn, peerd-loopback (default: each, one process per workload)";

struct RunArgs {
    workload: Option<Workload>,
    options: Options,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        options: Options {
            seed: spec::DEFAULT_SEED,
            seconds: 10.0,
            size: Size::Full,
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                parsed.options.seconds = seconds;
            }
            // `--trace` alone is the traced run; the driver passes 0 or 1.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    parsed.trace = true;
                }
                _ => parsed.trace = true,
            },
            "--quick" => parsed.options.size = Size::Quick,
            "--out" => parsed.out = Some(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

/// Runs every workload, each in a process of its own so that `peak_rss_mb`
/// is that workload's peak and nothing else's.
fn run_each(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload.name()])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("{}: run failed ({status:?})", workload.name());
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn cmd_run(args: &[String]) -> ExitCode {
    let parsed = match parse_run(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(workload) = parsed.workload else {
        return run_each(args);
    };
    parallel::schedule::set_thread_override(Some(spec::PINNED_THREADS));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "benchmark: workload {} seed {} seconds {} | nproc {cores}, vendor/parallel pinned to {} \
         threads | peerd runs over the loopback interface, not a real link",
        workload.name(),
        parsed.options.seed,
        parsed.options.seconds,
        parallel::effective_threads(usize::MAX),
    );
    let result = if parsed.trace {
        run::traced(workload, &parsed.options)
    } else {
        run::end_to_end(workload, &parsed.options)
    };
    eprint!("{}", result.table());
    if let Some(path) = &parsed.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{}", result.result_line()));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.contract_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` sits at the repository root: the working directory when
/// the command is run as the contract gives it, else next to this package.
fn read_benchmark_json() -> Result<String, String> {
    let beside_package = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside_package))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let rows = read_benchmark_json()
        .and_then(|text| compare::read_bounds(&text))
        .and_then(|bounds| compare::compare(&bounds, &read(a)?, &read(b)?));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            let (regressed, unresolved) = (
                count(compare::Verdict::Regressed),
                count(compare::Verdict::Unresolved),
            );
            println!(
                "{} rows: {regressed} regressed, {unresolved} unresolved (changes are shares of A's median)",
                rows.len()
            );
            if regressed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

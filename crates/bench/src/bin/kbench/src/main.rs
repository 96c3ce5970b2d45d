//! `kbench`: four named workloads over the keybridge serving stack,
//! open-loop end-to-end metrics, and an outside-in per-layer trace.
//! See `README.md` beside this package for what each number means.

mod affinity;
mod driver;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod schedule;
mod stats;
mod trace;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  kbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  kbench --all [--seed N] [--seconds S] [--out FILE]
  kbench --compare A.json B.json
  kbench --emit-benchmark-json
workloads: hot_interactive scale_search durable_mixed sharded_mixed";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    emit: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        out: None,
        all: false,
        compare: None,
        emit: false,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--all" => cli.all = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut it, arg)?);
                let b = PathBuf::from(value(&mut it, arg)?);
                cli.compare = Some((a, b));
            }
            "--emit-benchmark-json" => cli.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn read_json(path: &PathBuf) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let spec = workload::spec(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let args = run::RunArgs {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    println!("{}", run::describe(&args));
    let outcome = run::run(&args);
    print!("{}", report::lines(&outcome, cli.trace));
    if let Some(path) = &cli.out {
        let members = report::result_members(&outcome, cli.trace);
        std::fs::write(path, report::results_file(&[(name.to_string(), members)]))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if outcome.correct {
        for dir in &outcome.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    } else {
        eprintln!("verify FAILED; scratch stores kept:");
        for dir in &outcome.dirs {
            eprintln!("  {}", dir.display());
        }
    }
    println!("{}", report::contract_line(&outcome, cli.trace));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a child process of its own
/// (so `rss_peak_mb` is per workload); one merged results file.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = workload::bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut merged = Vec::new();
    let mut ok = true;
    for spec in &workload::SPECS {
        let mut members = Vec::new();
        for trace in ["0", "1"] {
            let part = dir.join(format!("{}.{trace}.json", spec.name));
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
            if let Ok(file) = read_json(&part) {
                members.extend(report::members_of(&file, spec.name));
            }
            let _ = std::fs::remove_file(&part);
        }
        merged.push((spec.name.to_string(), members));
    }
    let out = cli.out.clone().unwrap_or_else(|| dir.join("results.json"));
    std::fs::write(&out, report::results_file(&merged))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results: {}", out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cli.emit {
        print!("{}", report::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &cli.compare {
        let diffs = report::compare(&read_json(a)?, &read_json(b)?);
        print!("{}", report::render_diffs(&diffs));
        let flagged = diffs.iter().filter(|d| d.flagged).count();
        println!("{flagged} metric(s) beyond their bound");
        return Ok(if flagged == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if cli.all {
        return run_all(&cli);
    }
    match &cli.workload {
        Some(name) => run_one(&cli, name),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

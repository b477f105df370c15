//! Command line of the dosco benchmark:
//!
//! ```text
//! dosco-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint and human-readable notes as `#` lines,
//! then, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! without a result line on bad arguments.
//!
//! `--workload all` runs every workload in turn, each in a child process
//! of its own (so `peak_rss_mb` and the span registry stay per workload),
//! printing each one's lines and result line.

use dosco_perfbench::{host, run, Opts, Scale, WORKLOADS};
use std::process::{Command, ExitCode};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dosco-perfbench: {e}");
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    println!(
        "# host {}",
        host::fingerprint(&workload, opts.seed, opts.trace)
    );
    let report = match run(&workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dosco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for failure in &report.checks.failures {
        println!("# CHECK FAILED: {failure}");
    }
    println!("{}", report.result_line(opts.trace));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process with the same arguments.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dosco-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed arguments name a workload");
        child_args[at + 1] = workload.to_string();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("dosco-perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

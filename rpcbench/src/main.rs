//! Pinned loopback RPC benchmark for bSOAP-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path rpcbench/Cargo.toml -- \
//!     --workload small_rpc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client thread drives one keep-alive connection in a closed loop
//! against a server in the same process, over the loopback interface,
//! with client and server on separate pinned CPUs. Every response is
//! checked against the value the benchmark predicts from its own request.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! one JSON object; the exit code is 0 only when every check passed.

mod placement;
mod rig;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Variables through which the environment could move a workload onto
/// another server core, wire lane, store mode or byte kernel.
const STEERING_VARS: [&str; 4] = [
    "BSOAP_SERVER_CORE",
    "BSOAP_WIRE_FORMAT",
    "BSOAP_STORE_MODE",
    "BSOAP_KERNEL",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: rpcbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Remove the steering variables so that only the explicit configuration
/// of each workload applies. Must run before any thread starts.
fn clear_steering_env() -> String {
    let mut msg = String::from("cleared");
    for var in STEERING_VARS {
        match std::env::var(var) {
            Ok(v) => {
                let _ = write!(msg, " {var} (was {v:?})");
            }
            Err(_) => {
                let _ = write!(msg, " {var}");
            }
        }
        std::env::remove_var(var);
    }
    msg
}

/// A finite number as JSON (non-finite values cannot be measured values).
fn json_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// The result line: exactly the metrics of `table`, by name and unit.
fn result_line(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    if out.correct() {
        if out.metrics.len() != table.len() {
            return Err(format!(
                "run produced {} metrics, expected {}",
                out.metrics.len(),
                table.len()
            ));
        }
        for ((name, value), (want, unit)) in out.metrics.iter().zip(table) {
            if name != want {
                return Err(format!("metric {name} where {want} was expected"));
            }
            let v = json_number(*value).ok_or_else(|| format!("{name} is not finite"))?;
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rpcbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("rpcbench: {}", clear_steering_env());
    let allowed = match placement::allowed_cpus() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rpcbench: cannot read the CPU affinity mask: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(place) = placement::plan(&allowed) else {
        eprintln!("rpcbench: empty CPU affinity mask");
        return ExitCode::FAILURE;
    };
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Err(e) = placement::pin_current_thread(place.client_cpu) {
        eprintln!("rpcbench: cannot pin the client thread: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "rpcbench: placement: client thread on cpu {}, server threads on cpu {}{} (allowed {:?}; {} available)",
        place.client_cpu,
        place.server_cpu,
        if place.shared() { " (one-CPU fallback: shared)" } else { "" },
        allowed,
        available,
    );
    let w = args.workload;
    println!(
        "rpcbench: workload {} seed {}: {} lane, {:?} core, closed loop, 1 client thread, 1 keep-alive connection over loopback{}",
        w.name(),
        args.seed,
        w.lane().name(),
        w.core(),
        if w.streamed() { ", chunked streamed requests" } else { "" },
    );

    let (outcome, table) = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", w.name()));
        (
            run::traced(w, args.seed, args.seconds, place, &spans),
            PER_LAYER,
        )
    } else {
        (
            run::end_to_end(w, args.seed, args.seconds, place),
            END_TO_END,
        )
    };
    for note in &outcome.notes {
        println!("rpcbench: {note}");
    }
    for problem in &outcome.problems {
        println!("rpcbench: FAILED: {problem}");
    }
    if outcome.correct() {
        for ((name, value), (_, unit)) in outcome.metrics.iter().zip(table) {
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
    match result_line(&outcome, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("rpcbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "store_churn",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::StoreChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, true));
        assert!(parse_args(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect(),
            ..Outcome::default()
        };
        let line = result_line(&out, END_TO_END).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // A failed run reports no metrics.
        let bad = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        assert!(result_line(&bad, END_TO_END)
            .unwrap()
            .ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn benchmark_manifest_names_every_metric_and_workload() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}

//! Child processes: the placements of a two-thread run, every workload
//! in a fresh process (so set-up time and peak memory are each
//! workload's own), and the A/A self-check that the bounds in
//! `BENCHMARK.json` were set from.

use crate::estimator::{iqr_share, mean, median};
use crate::report::{parse_values, Outcome, END_TO_END};
use crate::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// What a child run printed.
struct ChildRun {
    /// Exit status: outputs correct and at most 0.001 of requests failed.
    ok: bool,
    stdout: String,
    /// Every `name → value` of its report.
    values: BTreeMap<String, f64>,
}

/// This same executable, asked for one workload.
fn child_command(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    cmd
}

/// Run a child to its end and read back what it printed.
fn run_child(mut cmd: Command, workload: Workload) -> Result<ChildRun, String> {
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let values = parse_values(workload.name(), &stdout);
    if values.is_empty() {
        return Err(format!(
            "{} printed no report; stderr: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(ChildRun {
        ok: output.status.success(),
        stdout,
        values,
    })
}

/// The untraced run of a two-thread workload. First the workload with
/// one worker, in this process: `one_worker_ops_s`, and `setup_s` from
/// its 15 builds. Then `placements` fresh child processes one after the
/// other, each measuring its share of the remaining time with both
/// workers and reporting the quiet quantile of its own slices; the run
/// reports their mean.
pub fn run_placements(
    workload: Workload,
    args: &crate::Args,
    placements: usize,
) -> Result<Outcome, String> {
    let solo_args = crate::Args {
        seconds: args.seconds * crate::ONE_WORKER_SHARE,
        ..args.clone()
    };
    let solo = crate::measure(workload, &solo_args, 1);
    let solo_value = |name: &str| {
        let found = solo.metrics.iter().find(|m| m.name == name);
        found
            .cloned()
            .expect("the one-worker pass reports every end-to-end metric")
    };
    let mut out = Outcome {
        attempted: solo.attempted,
        failed: solo.failed,
        check_failures: solo.check_failures.clone(),
        ..Outcome::default()
    };
    let mut runs = Vec::new();
    for index in 0..placements {
        let share = args.seconds * (1.0 - crate::ONE_WORKER_SHARE) / placements as f64;
        let mut cmd = child_command(workload, args.seed, share, false, args.quick);
        cmd.args(["--placement", &format!("{index}/{placements}")]);
        let run = run_child(cmd, workload)?;
        if !run.ok {
            print!("{}", run.stdout);
            out.fail_check(format!("placement {index} failed its checks"));
        }
        runs.push(run);
    }
    let of = |name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.values.get(name))
            .copied()
            .collect()
    };
    out.attempted += of("attempted").iter().sum::<f64>() as u64;
    out.failed += of("failed").iter().sum::<f64>() as u64;
    for d in &END_TO_END {
        if ["one_worker_ops_s", "setup_s"].contains(&d.name) {
            out.metrics.push(solo_value(d.name));
            continue;
        }
        let values = of(d.name);
        if values.len() != placements {
            out.fail_check(format!("{} missing from a placement", d.name));
            continue;
        }
        let m = out.end_to_end(d.name, mean(&values));
        let basis = |slices: &str, per_slice: &str| {
            let first = |name| runs[0].values.get(name).map_or(0, |v| *v as usize);
            (of(slices).iter().sum::<f64>() as usize, first(per_slice))
        };
        match d.name {
            "throughput_ops_s" => {
                (m.slices, m.samples) = basis("throughput_slices", "ops_per_slice")
            }
            "latency_p50_us" => {
                (m.slices, m.samples) = basis("latency_slices", "latency_samples_per_slice")
            }
            _ => {}
        }
        out.notes.push(format!(
            "{} per placement: {}",
            d.name,
            values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    for name in runs[0].values.keys() {
        if name == "latency_p99_us" || name.starts_with("throughput_ops_s@") {
            out.diagnostics.push((name.clone(), mean(&of(name))));
        }
    }
    out.notes.extend(
        runs[0]
            .stdout
            .lines()
            .filter_map(|l| l.split_once(": inputs: "))
            .map(|(_, inputs)| format!("inputs: {inputs}")),
    );
    out.notes.push(format!(
        "{placements} placements (fresh processes), each metric the mean of theirs; \
         one_worker_ops_s and setup_s from this process's one-worker pass"
    ));
    Ok(out)
}

/// The one command: every workload in turn, its report passed through.
pub fn run_all(seed: u64, seconds: f64, trace: bool, quick: bool) -> ExitCode {
    let mut failed = Vec::new();
    for w in Workload::ALL {
        match run_child(child_command(w, seed, seconds, trace, quick), w) {
            Ok(run) => {
                print!("{}", run.stdout);
                if !run.ok {
                    failed.push(w.name());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed.push(w.name());
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// `--aa K`: run the whole benchmark 2K times as two alternating sets of
/// identical code (each run its own seed, as the driver does) and print,
/// per workload and metric, both medians, their relative difference, the
/// spread of all 2K runs and the bound. Exits non-zero when a
/// difference exceeds its bound. The Markdown it prints is the tables of
/// `benchmark/NOISE.md`.
pub fn self_check(k: usize, seed: u64, seconds: f64, quick: bool) -> ExitCode {
    // (workload, metric or diagnostic name) → per set, the values.
    let mut values: BTreeMap<(usize, String), [Vec<f64>; 2]> = BTreeMap::new();
    for run in 0..2 * k {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "aa: run {}/{} set {} {}",
                run + 1,
                2 * k,
                ["A", "B"][run % 2],
                w.name()
            );
            let cmd = child_command(w, seed + run as u64, seconds, false, quick);
            let child = match run_child(cmd, w) {
                Ok(c) if c.ok => c,
                Ok(c) => {
                    eprint!("{}", c.stdout);
                    eprintln!("aa: {} failed its checks", w.name());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for (name, v) in &child.values {
                values.entry((wi, name.clone())).or_default()[run % 2].push(*v);
            }
        }
    }
    let sets = |wi: usize, name: &str| values.get(&(wi, name.to_string()));
    let spread = |wi: usize, name: &str| -> String {
        sets(wi, name).map_or("n/a".into(), |[a, b]| {
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            format!("{:.2} %", 100.0 * iqr_share(&all))
        })
    };

    let length = if quick {
        "--quick".to_string()
    } else {
        format!("{seconds} s per run")
    };
    println!("## A/A: two alternating sets of {k} runs of the same code, {length}\n");
    println!("`diff` is |median B − median A| ÷ median A. `spread` is the distance between the");
    println!(
        "quartiles of all {} runs ÷ their median, the figure the driver computes.\n",
        2 * k
    );
    println!("| workload | metric | median A | median B | diff | spread | bound | verdict |");
    println!("|---|---|---:|---:|---:|---:|---:|---|");
    let mut violations = 0;
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let Some([a, b]) = sets(wi, d.name) else {
                println!(
                    "| {} | {} | missing | | | | | VIOLATION |",
                    w.name(),
                    d.name
                );
                violations += 1;
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let diff = (mb - ma).abs() / ma.abs();
            let verdict = if diff > bound {
                violations += 1;
                "VIOLATION"
            } else if diff > bound / 2.0 {
                "within the bound, above half of it"
            } else {
                "ok"
            };
            println!(
                "| {} | {} ({}) | {ma:.6} | {mb:.6} | {:.2} % | {} | {:.0} % | {verdict} |",
                w.name(),
                d.name,
                d.unit,
                100.0 * diff,
                spread(wi, d.name),
                100.0 * bound,
            );
        }
    }

    println!(
        "\n## Demoted: `latency_p99_us` over the same {} runs\n",
        2 * k
    );
    println!("| workload | median A | median B | diff | spread |");
    println!("|---|---:|---:|---:|---:|");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        if let Some([a, b]) = sets(wi, "latency_p99_us") {
            let (ma, mb) = (median(a), median(b));
            println!(
                "| {} | {ma:.6} | {mb:.6} | {:.2} % | {} |",
                w.name(),
                100.0 * (mb - ma).abs() / ma.abs(),
                spread(wi, "latency_p99_us")
            );
        }
    }

    println!(
        "\n## Which quantile of the slices: spread of `throughput_ops_s` over the same {} runs\n",
        2 * k
    );
    println!("The quartile distance ÷ median of the run-level value, when a run reports the mean");
    println!(
        "slice, the median slice, the best-quartile slice or the best-decile slice (reported).\n"
    );
    println!("| workload | whole-run mean | p50 slice | p75 slice | p90 slice |");
    println!("|---|---:|---:|---:|---:|");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let at = |label: &str| spread(wi, &format!("throughput_ops_s@{label}"));
        println!(
            "| {} | {} | {} | {} | {} |",
            w.name(),
            at("mean"),
            at("p50"),
            at("p75"),
            at("p90")
        );
    }
    if violations == 0 {
        println!("\nNo A/A difference exceeds its bound.");
        ExitCode::SUCCESS
    } else {
        println!("\n{violations} A/A difference(s) exceed their bound.");
        ExitCode::FAILURE
    }
}

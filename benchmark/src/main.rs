//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//!     every workload, end-to-end metrics (tracing and telemetry off)
//! ... -- --seed 1 --trace
//!     the separate traced run: per-layer metrics, span files
//! ... -- --workload cia_1t --seed 1 --seconds 20 --trace 0
//!     one workload; the last line of standard output is the JSON result
//! ... -- --aa 5        A/A self-check against the bounds in BENCHMARK.json
//! ... -- --quick       40 slices per run, for a CI smoke job
//! ```

mod aa;
mod cia;
mod estimator;
mod inputs;
mod layers;
mod report;
mod server;
mod slices;
mod trace;

use estimator::median;
use inputs::{ServerShape, SERVER_HOT, SERVER_UNIFORM, SERVER_VECTOR_LEN};
use interp::Engine;
use report::{Outcome, END_TO_END, PER_LAYER};
use semlock::retry::RetryPolicy;
use slices::{Budget, Slice};
use std::process::ExitCode;
use std::time::Instant;
use workloads::SyncKind;

/// The five workloads. Names are final: later PRs are judged by them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cia1t,
    Cia2t,
    CiaTelemetry,
    ServerUniform,
    ServerHot,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Cia1t,
        Workload::Cia2t,
        Workload::CiaTelemetry,
        Workload::ServerUniform,
        Workload::ServerHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cia1t => "cia_1t",
            Workload::Cia2t => "cia_2t",
            Workload::CiaTelemetry => "cia_telemetry",
            Workload::ServerUniform => "server_uniform",
            Workload::ServerHot => "server_hot",
        }
    }

    /// Why the workload is in the benchmark, as `BENCHMARK.json` says it.
    fn why(self) -> &'static str {
        match self {
            Workload::Cia1t => "Fig. 21 at one thread, 2^10 keys: select + Txn::acquire + unlock_all is most of the 87 ns op; interp, retry and synth idle",
            Workload::Cia2t => "the same keys split over 2 pinned threads on one SemLock: shared admission/stats/txn-id lines halve throughput; a backend or layout change must show here",
            Workload::CiaTelemetry => "cia_1t with semlock::telemetry on (2.4x slower): the only workload where the telemetry layer works",
            Workload::ServerUniform => "closed loop, 2 workers, run_with_retry over 1024 shards / 2^16 uniform keys: no contention, so interp exec is the cost and semlock under 10%",
            Workload::ServerHot => "same sections, 2 shards, 64 Zipf(0.99) keys, 20% scans: admission refusal, park/wake and retry do the work; 2 workers complete half of what 1 does",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads; the calling thread blocks while they run, so this
    /// is also the number of runnable threads.
    fn threads(self) -> usize {
        match self {
            Workload::Cia1t | Workload::CiaTelemetry => 1,
            Workload::Cia2t | Workload::ServerUniform | Workload::ServerHot => 2,
        }
    }

    /// Operations per slice of the `cia_*` workloads: slices of 10–20 ms.
    fn cia_ops_per_slice(self) -> usize {
        match self {
            Workload::Cia1t => 160_000,
            _ => 80_000,
        }
    }

    /// Fresh processes the two-worker part of an untraced run is spread
    /// over. Two threads
    /// bounce cache lines between the vCPUs, and what a bounced line
    /// costs on this machine depends on where it lies in physical memory,
    /// which is drawn anew for every process: identical processes hold
    /// levels that differ by 15 % (`cia_2t`, quartile distance; four or
    /// five contended lines per operation) or 5–6 % (`server_*`), each
    /// steady to 1–2 % from its first slice to its last (NOISE.md). No
    /// quantile inside one process can see that, so a two-thread run
    /// measures in several child processes, the time left after its
    /// one-worker pass split evenly among them, and reports each
    /// metric's mean over the placements;
    /// the counts bring both kinds to about 2 %. A one-thread workload
    /// bounces nothing (1.3 % from process to process) and measures in
    /// its own process.
    fn placements(self) -> usize {
        match self {
            Workload::Cia1t | Workload::CiaTelemetry => 1,
            Workload::Cia2t => 40,
            Workload::ServerUniform | Workload::ServerHot => 8,
        }
    }

    fn server_shape(self) -> Option<ServerShape> {
        match self {
            Workload::ServerUniform => Some(SERVER_UNIFORM),
            Workload::ServerHot => Some(SERVER_HOT),
            _ => None,
        }
    }
}

/// Cold builds behind `setup_s`: it is their median.
const SETUP_BUILDS: usize = 15;

/// Slices an untraced run records at least, over all its placements.
const MIN_SLICES: usize = 400;

/// How one run of one workload was asked for.
#[derive(Clone, Debug)]
pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    /// Set by the coordinating process on the children it starts:
    /// `(index, of)`. `--seconds` is then this placement's own share.
    placement: Option<(usize, usize)>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let whys: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("  {:<15} {}", w.name(), w.why()))
        .collect();
    format!(
        "usage: semlock-benchmark [--workload <{}>] [--seed N] [--seconds S] \
         [--trace [0|1]] [--quick] [--aa K]\n{}",
        names.join("|"),
        whys.join("\n")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        aa: None,
        placement: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = s;
            }
            "--aa" => {
                let k: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if !(1..=50).contains(&k) {
                    return Err("--aa must be in 1..=50".into());
                }
                args.aa = Some(k);
            }
            "--placement" => {
                let spec = value("index/of")?;
                let parsed = spec
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
                    .filter(|&(i, n)| i < n && n <= 64);
                args.placement =
                    Some(parsed.ok_or_else(|| format!("--placement: bad spec {spec}"))?);
            }
            "--quick" => args.quick = true,
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes
                // `--trace 0` or `--trace 1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Build the workload's state `builds` times, cold; returns the last
/// build and the median build time in seconds.
fn timed_builds<T>(builds: usize, build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(builds);
    let mut last = None;
    for _ in 0..builds {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one build"), median(&times))
}

/// Builds a run times: `setup_s` is the coordinating process's business
/// when the run is spread over placements, and not a traced run's.
fn setup_builds(args: &Args) -> usize {
    if args.trace || args.placement.is_some() {
        1
    } else {
        SETUP_BUILDS
    }
}

/// The end-to-end metrics of an untraced run, and beside them what
/// `--aa` tabulates: the demoted `latency_p99_us` and the same
/// throughput at other quantiles.
fn push_end_to_end(
    out: &mut Outcome,
    workers: usize,
    throughput: &[Slice],
    latency: &[Slice],
    ops_per_slice: usize,
    setup_s: f64,
    rss_mb: f64,
) {
    let t = slices::summarize(throughput, ops_per_slice);
    let l = slices::summarize(latency, ops_per_slice);
    let m = out.end_to_end("throughput_ops_s", t.ops_per_s);
    (m.slices, m.samples) = (t.slices, ops_per_slice);
    if workers == 1 {
        let m = out.end_to_end("one_worker_ops_s", t.ops_per_s);
        (m.slices, m.samples) = (t.slices, ops_per_slice);
    }
    let m = out.end_to_end("latency_p50_us", l.p50_ns / 1e3);
    (m.slices, m.samples) = (l.slices, l.samples_per_slice);
    out.end_to_end("setup_s", setup_s);
    out.end_to_end("peak_rss_mb", rss_mb);

    let mut diagnostic = |name: &str, value: f64| out.diagnostics.push((name.into(), value));
    diagnostic("latency_p99_us", l.p99_ns / 1e3);
    for (label, q) in [("p50", 0.50), ("p75", 0.25), ("p90", 0.10)] {
        let alt = slices::summarize_at(throughput, ops_per_slice, q);
        diagnostic(&format!("throughput_ops_s@{label}"), alt.ops_per_s);
    }
    let mean_ns = throughput.iter().map(|s| s.ns as f64).sum::<f64>() / throughput.len() as f64;
    diagnostic(
        "throughput_ops_s@mean",
        1e9 * ops_per_slice as f64 / mean_ns,
    );
    diagnostic("throughput_slices", t.slices as f64);
    diagnostic("latency_slices", l.slices as f64);
    diagnostic("ops_per_slice", ops_per_slice as f64);
    diagnostic("latency_samples_per_slice", l.samples_per_slice as f64);
}

/// Slices of a part of this process's run that gets `share` of
/// `--seconds`.
fn budget(args: &Args, share: f64) -> Budget {
    let placements = args.placement.map_or(1, |(_, of)| of);
    if args.quick {
        Budget::exactly(40 / placements)
    } else if args.trace {
        Budget::at_least(40, args.seconds * share)
    } else {
        Budget::at_least(MIN_SLICES.div_ceil(placements), args.seconds * share)
    }
}

/// Seconds a layer measured beside a traced run gets.
fn layer_seconds(args: &Args, share: f64) -> f64 {
    if args.quick {
        0.0
    } else {
        args.seconds * share
    }
}

/// Share of `--seconds` the untraced run of a two-thread workload gives
/// its one-worker pass (`one_worker_ops_s`); its placements share the
/// rest.
pub const ONE_WORKER_SHARE: f64 = 0.25;

/// What every traced run reports of its own workload: tracing overhead,
/// the demoted end-to-end metrics from the untraced blocks, contention.
fn push_traced(
    out: &mut Outcome,
    untraced: (&[Slice], &[Slice]),
    traced: &[Slice],
    ops_per_slice: usize,
    (acquisitions, contended): (u64, u64),
    backend: &str,
) {
    let (throughput, latency) = untraced;
    out.layer(
        "trace.overhead_ratio",
        slices::summarize(traced, ops_per_slice).ops_per_s
            / slices::summarize(throughput, ops_per_slice).ops_per_s,
    );
    let l = slices::summarize(latency, ops_per_slice);
    let m = out.layer("latency_p99_us", l.p99_ns / 1e3);
    (m.slices, m.samples) = (l.slices, l.samples_per_slice);
    out.layer("semlock.acquisitions", acquisitions as f64);
    out.layer("semlock.contended", contended as f64);
    out.layer(
        "semlock.contended_share",
        contended as f64 / acquisitions.max(1) as f64,
    );
    out.notes.push(format!("semlock.backend = {backend}"));
}

fn write_trace(out: &mut Outcome, workload: Workload, seed: u64, spans: &[trace::Span]) {
    match trace::write(workload.name(), seed, spans) {
        Ok(path) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail_check(format!("could not write the span file: {e}")),
    }
}

fn measure_cia(workload: Workload, args: &Args, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let ops = workload.cia_ops_per_slice();
    let keys = inputs::cia_keys(args.seed);
    out.notes.push(format!(
        "inputs: {} keys over {}, fingerprint {:016x}",
        keys.len(),
        inputs::CIA_KEY_RANGE,
        inputs::fingerprint(&keys)
    ));

    let (bench, setup_s) = timed_builds(setup_builds(args), || cia::build(SyncKind::Semantic));
    if workload == Workload::CiaTelemetry {
        semlock::telemetry::reset();
        semlock::telemetry::set_enabled(true);
    }
    let pre = cia::prepopulate(|k| bench.invoke(k));

    if !args.trace {
        let (slices, issued) = cia::run(&bench, &keys, threads, ops, budget(args, 1.0));
        semlock::telemetry::set_enabled(false);
        let rss = report::peak_rss_mb();
        out.attempted = issued;
        let (throughput, latency) = cia::split(&slices);
        push_end_to_end(&mut out, threads, &throughput, &latency, ops, setup_s, rss);
        if let Err(e) = cia::check(&bench, pre + issued) {
            out.fail_check(e);
        }
        return out;
    }

    // Share of `--seconds` for the workload's own block design; the
    // layers this workload's traced run measures get the rest.
    let own = if workload == Workload::Cia1t {
        0.40
    } else {
        0.50
    };
    let twin = cia::Twin::build();
    let twin_pre = cia::prepopulate(|k| twin.op(k));
    let run = cia::run_traced(&bench, &twin, &keys, threads, ops, budget(args, own));
    semlock::telemetry::set_enabled(false);
    out.attempted = run.issued_untraced + run.issued_twin;
    if let Err(e) = cia::check(&bench, pre + run.issued_untraced) {
        out.fail_check(e);
    }
    let touched = vec![true; inputs::CIA_KEY_RANGE as usize];
    if let Err(e) = twin.check(&touched, twin_pre + run.issued_twin) {
        out.fail_check(e);
    }
    let variant = |v| slices::slices_of_variant(&run.slices, cia::TRACE_BLOCK, 2, v);
    let (throughput, latency) = cia::split(&variant(0));
    let (a0, c0) = bench.contention();
    let (a1, c1) = twin.lock().contention();
    push_traced(
        &mut out,
        (&throughput, &latency),
        &variant(1),
        ops,
        (a0 + a1, c0 + c1),
        twin.lock().backend().name(),
    );
    let names = trace::by_name(&run.spans);
    for (metric, span) in [
        ("trace.select_ns", "semlock.select"),
        ("trace.acquire_ns", "semlock.acquire"),
        ("trace.body_ns", "adts.body"),
        ("trace.release_ns", "semlock.release"),
    ] {
        out.layer(metric, names.get(span).map_or(0.0, |s| s.median_ns));
    }
    write_trace(&mut out, workload, args.seed, &run.spans);
    let beside = 1.0 - own;
    match workload {
        Workload::Cia1t => {
            layers::semlock_ladder(&mut out, &keys, layer_seconds(args, beside * 0.7));
            layers::baselines(&mut out, &keys, 1, layer_seconds(args, beside * 0.3));
        }
        Workload::Cia2t => layers::baselines(&mut out, &keys, 2, layer_seconds(args, beside)),
        _ => layers::telemetry(&mut out, &keys, layer_seconds(args, beside)),
    }
    out
}

fn measure_server(workload: Workload, shape: ServerShape, args: &Args, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let per_slice = workers * server::REQUESTS_PER_WORKER_SLICE;
    let vectors: Vec<_> = (0..workers)
        .map(|w| inputs::requests(args.seed, w, &shape, SERVER_VECTOR_LEN))
        .collect();
    for (w, v) in vectors.iter().enumerate() {
        out.notes.push(format!(
            "inputs: worker {w}: {} requests, fingerprint {:016x}",
            v.len(),
            inputs::fingerprint(v)
        ));
    }
    let policy = RetryPolicy::new(args.seed);

    let (srv, setup_s) = timed_builds(setup_builds(args), || {
        server::Server::build(&shape, Engine::Compiled)
    });
    srv.prepopulate();

    // `server_uniform`'s traced run also measures the interp ladder and
    // the set-up stages, so its own block design gets less.
    let own = if args.trace && workload == Workload::ServerUniform {
        0.55
    } else {
        1.0
    };
    let retries_before = semlock::telemetry::retry_counters();

    let run = server::run(&srv, &vectors, &policy, budget(args, own), args.trace);
    let rss = report::peak_rss_mb();
    let mut total = server::Ledger::default();
    run.ledgers.iter().for_each(|l| total.add(l));
    out.attempted = total.offered;
    out.failed = total.offered - total.completed;
    if let Err(e) = server::check(&srv, &run, 0) {
        out.fail_check(e);
    }
    // The independent reference: the first 20 000 requests, replayed
    // single-threaded under both engines, against a plain-Rust model.
    // It depends on the seed alone, so one placement checks it.
    if args.placement.is_none_or(|(index, _)| index == 0) {
        let head: Vec<_> = vectors
            .iter()
            .flat_map(|v| &v[..20_000 / workers])
            .copied()
            .collect();
        if let Err(e) = server::check_replay(&shape, &head, args.seed) {
            out.fail_check(e);
        }
    }

    if !args.trace {
        push_end_to_end(
            &mut out,
            workers,
            &run.slices,
            &run.slices,
            per_slice,
            setup_s,
            rss,
        );
        return out;
    }

    let variant = |v| slices::slices_of_variant(&run.slices, server::TRACE_BLOCK, 2, v);
    let untraced = variant(0);
    push_traced(
        &mut out,
        (&untraced, &untraced),
        &variant(1),
        per_slice,
        srv.contention(),
        srv.backend(),
    );
    let completed = total.completed.max(1) as f64;
    let retries_after = semlock::telemetry::retry_counters();
    out.layer("retry.retried_share", total.retried as f64 / completed);
    out.layer(
        "retry.attempts_per_request",
        total.attempts as f64 / completed,
    );
    out.layer("retry.escalations", total.escalations as f64);
    out.layer(
        "retry.exhausted",
        (retries_after.exhausted - retries_before.exhausted) as f64,
    );
    let names = trace::by_name(&run.spans);
    for (metric, span) in [
        ("trace.balance_us", "balance"),
        ("trace.transfer_us", "transfer"),
        ("trace.scan_mutate_us", "scan_mutate"),
    ] {
        out.layer(metric, names.get(span).map_or(0.0, |s| s.median_ns / 1e3));
    }
    write_trace(&mut out, workload, args.seed, &run.spans);
    if workload == Workload::ServerUniform {
        layers::interp_ladder(&mut out, args.seed, layer_seconds(args, 1.0 - own));
        layers::setup_stages(&mut out, if args.quick { 2 } else { 7 });
    }
    out
}

/// One run of `workload` with `workers` worker threads, in this process.
pub fn measure(workload: Workload, args: &Args, workers: usize) -> Outcome {
    match workload.server_shape() {
        Some(shape) => measure_server(workload, shape, args, workers),
        None => measure_cia(workload, args, workers),
    }
}

/// Run one workload and print its report; the JSON result is the last
/// line. The untraced run of a two-thread workload is spread over child
/// processes; every other run, and each of those children, measures in
/// this process.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let placements = if args.trace || args.placement.is_some() {
        1
    } else if args.quick {
        workload.placements().min(2)
    } else {
        workload.placements()
    };
    let mut out = if placements > 1 {
        match aa::run_placements(workload, args, placements) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        measure(workload, args, workload.threads())
    };
    if args.trace {
        let failed_share = out.failed_share();
        out.layer("failed_share", failed_share);
        out.complete(&PER_LAYER);
    } else {
        out.complete(&END_TO_END);
    }
    out.notes.push(format!(
        "worker threads: {} of {} available; seed {}",
        workload.threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed
    ));
    out.print_human(workload.name());
    println!("{}", out.json_line());
    if out.correct() && out.failed_share() <= 0.001 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.aa {
        return aa::self_check(k, args.seed, args.seconds, args.quick);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        // Every workload, each in a fresh process so that set-up time
        // and peak memory are its own.
        None => aa::run_all(args.seed, args.seconds, args.trace, args.quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Declared;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_and_human_spellings_of_trace_both_parse() {
        let a = parse("--workload cia_2t --seed 9 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::Cia2t));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, false));
        assert!(parse("--trace 1 --seed 2").unwrap().trace);
        assert!(parse("--seed 2 --trace").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().quick);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn workload_names_are_the_final_ones() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "cia_1t",
                "cia_2t",
                "cia_telemetry",
                "server_uniform",
                "server_hot"
            ]
        );
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.threads() <= 2, "{} would oversubscribe 2 vCPUs", w.name());
            assert_eq!(w.placements() > 1, w.threads() > 1);
            assert!(w.why().len() <= 200);
        }
    }

    /// `BENCHMARK.json` as the program's own tables spell it.
    fn rendered_benchmark_json() -> String {
        let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
        let metric = |d: &Declared| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "{{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}{bound}}}",
                d.name, d.unit, d.better
            )
        };
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
             \"paths\": [\"benchmark\"],\n  \"run_seconds\": 20,\n  \
             \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            list(
                Workload::ALL
                    .iter()
                    .map(|w| format!("{{\"name\": {:?}, \"why\": {:?}}}", w.name(), w.why()))
                    .collect()
            ),
            list(END_TO_END.iter().map(metric).collect()),
            list(PER_LAYER.iter().map(metric).collect()),
        )
    }

    /// `BENCHMARK.json` and the program must name the same workloads and
    /// metrics with the same units and bounds, or the driver's runs fail
    /// and `--aa` checks bounds nobody is held to. The file is the
    /// rendering of the program's tables, byte for byte.
    #[test]
    fn benchmark_json_is_the_programs_own_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        let rendered = rendered_benchmark_json();
        assert!(
            on_disk == rendered,
            "BENCHMARK.json differs from the program's tables; it should read:\n{rendered}"
        );
    }
}

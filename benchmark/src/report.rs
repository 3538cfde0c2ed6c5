//! What one run reports: named metrics with units, the attempted/failed
//! ledger, and the one-line JSON result.

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Declared {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Declared {
    Declared {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Declared {
    Declared {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the system sees; printed by the untraced run and
/// gated by their bounds. `NOISE.md` has the measurements the bounds
/// were set from.
pub const END_TO_END: [Declared; 5] = [
    gated("throughput_ops_s", "1/s", "higher", 0.20),
    gated("one_worker_ops_s", "1/s", "higher", 0.10),
    gated("latency_p50_us", "us", "lower", 0.20),
    gated("setup_s", "s", "lower", 0.25),
    gated("peak_rss_mb", "MB", "lower", 0.10),
];

/// Metrics of single layers; printed by the traced run, never gated.
pub const PER_LAYER: [Declared; 47] = [
    // Demoted from end-to-end (NOISE.md says why): the untraced blocks
    // of the traced run measure them.
    layer("latency_p99_us", "us", "lower"),
    layer("failed_share", "ratio", "lower"),
    layer("ladder.raw_cas_ns", "ns", "lower"),
    layer("semlock.select_ns", "ns", "lower"),
    layer("semlock.lock_unlock_ns", "ns", "lower"),
    layer("semlock.txn_acquire_unlock_all_ns", "ns", "lower"),
    layer("semlock.txn_deadline_acquire_ns", "ns", "lower"),
    layer("adts.cia_body_ns", "ns", "lower"),
    layer("interp.balance_ns", "ns", "lower"),
    layer("interp.transfer_ns", "ns", "lower"),
    layer("interp.scan_mutate_ns", "ns", "lower"),
    layer("interp.retry_wrapper_ns", "ns", "lower"),
    layer("interp.treewalk_balance_ns", "ns", "lower"),
    layer("semlock.acquisitions", "count", "higher"),
    layer("semlock.contended", "count", "lower"),
    layer("semlock.contended_share", "ratio", "lower"),
    layer("retry.retried_share", "ratio", "lower"),
    layer("retry.attempts_per_request", "ratio", "lower"),
    layer("retry.escalations", "count", "lower"),
    layer("retry.exhausted", "count", "lower"),
    layer("telemetry.events", "count", "higher"),
    layer("telemetry.dropped", "count", "lower"),
    layer("telemetry.drop_ratio", "ratio", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "lower"),
    layer("synth.synthesize_ms", "ms", "lower"),
    layer("synth.lower_ms", "ms", "lower"),
    layer("synth.tape_opt_ms", "ms", "lower"),
    layer("interp.compile_ms", "ms", "lower"),
    layer("interp.env_instances_ms", "ms", "lower"),
    layer("synth.modes", "count", "lower"),
    layer("synth.tape_ops", "count", "lower"),
    layer("synth.fused", "count", "higher"),
    layer("synth.batches", "count", "higher"),
    layer("synth.hoisted", "count", "higher"),
    layer("baselines.manual_ns", "ns", "lower"),
    layer("baselines.twopl_ns", "ns", "lower"),
    layer("baselines.global_ns", "ns", "lower"),
    layer("baselines.speedup_vs_2pl", "ratio", "higher"),
    layer("baselines.cost_vs_manual", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.select_ns", "ns", "lower"),
    layer("trace.acquire_ns", "ns", "lower"),
    layer("trace.body_ns", "ns", "lower"),
    layer("trace.release_ns", "ns", "lower"),
    layer("trace.balance_us", "us", "lower"),
    layer("trace.transfer_us", "us", "lower"),
    layer("trace.scan_mutate_us", "us", "lower"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Slices behind the value, and operations (throughput) or latency
    /// samples (latencies) per slice; 0 = not sliced.
    pub slices: usize,
    pub samples: usize,
}

/// The result of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Requests issued, and how many returned `Err`, were left unsettled
    /// or belong to a run whose output check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty means the outputs are correct.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report only.
    pub notes: Vec<String>,
    /// Named values that are not metrics: the same throughput under other
    /// estimators and the demoted `latency_p99_us`, which `--aa`
    /// tabulates as the evidence for the estimator and the bounds.
    pub diagnostics: Vec<(String, f64)>,
}

/// A value as the report prints it: `<workload> <name> <value> <unit> …`,
/// the value with all its digits. A coordinating process reads its
/// children's values back from these lines.
fn value_line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    format!("{workload:<15} {name:<36} {value:>22} {unit}")
}

/// Every `name → value` that `workload`'s report in `stdout` printed.
pub fn parse_values(workload: &str, stdout: &str) -> std::collections::BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next() == Some(workload)).then_some(())?;
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect()
}

impl Outcome {
    /// Record a value under a name from `table`; the unit comes from the
    /// table so a name cannot be printed with two units.
    fn push_from(&mut self, table: &[Declared], name: &str, value: f64) -> &mut Metric {
        let d = table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"));
        self.metrics.push(Metric {
            name: d.name,
            value,
            unit: d.unit,
            slices: 0,
            samples: 0,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    pub fn end_to_end(&mut self, name: &str, value: f64) -> &mut Metric {
        self.push_from(&END_TO_END, name, value)
    }

    pub fn layer(&mut self, name: &str, value: f64) -> &mut Metric {
        self.push_from(&PER_LAYER, name, value)
    }

    /// Add an output-check failure. A failed check fails the whole run:
    /// every request counts as failed.
    pub fn fail_check(&mut self, what: String) {
        self.check_failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Requests that failed ÷ requests attempted; 1 when a check failed.
    pub fn failed_share(&self) -> f64 {
        if !self.correct() {
            return 1.0;
        }
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn failed_count(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted.max(1)
        }
    }

    /// Fill in every name of `table` the run did not measure with 0 (a
    /// layer the workload never enters did no work), in table order.
    pub fn complete(&mut self, table: &[Declared]) {
        let mut ordered = Vec::with_capacity(table.len());
        for d in table {
            let found = self.metrics.iter().find(|m| m.name == d.name).cloned();
            ordered.push(found.unwrap_or(Metric {
                name: d.name,
                value: 0.0,
                unit: d.unit,
                slices: 0,
                samples: 0,
            }));
        }
        self.metrics = ordered;
    }

    /// The human-readable report: one line per metric, name and unit.
    pub fn print_human(&self, workload: &str) {
        for m in &self.metrics {
            let basis = if m.slices > 0 {
                format!("  [{} slices, {} per slice]", m.slices, m.samples)
            } else {
                String::new()
            };
            println!("{}{basis}", value_line(workload, m.name, m.value, m.unit));
        }
        let line = |name: &str, value: f64, unit: &str| {
            println!("{}", value_line(workload, name, value, unit));
        };
        line("attempted", self.attempted as f64, "count");
        line("failed", self.failed_count() as f64, "count");
        // A traced run reports `failed_share` among its metrics.
        if !self.metrics.iter().any(|m| m.name == "failed_share") {
            line("failed_share", self.failed_share(), "ratio");
        }
        for (name, value) in &self.diagnostics {
            line(name, *value, "diagnostic");
        }
        for n in &self.notes {
            println!("note {workload}: {n}");
        }
        for c in &self.check_failures {
            println!("CHECK FAILED {workload}: {c}");
        }
    }

    /// The result line: one JSON object, last on standard output. Names
    /// and units are plain ASCII, which `{:?}` quotes as JSON does.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value has no JSON spelling; -1 is outside
                // every metric's range and fails any comparison loudly.
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_count(),
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(["higher", "lower"].contains(&d.better));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn failed_share_counts_requests_and_a_failed_check_fails_them_all() {
        let mut o = Outcome {
            attempted: 2000,
            failed: 3,
            ..Outcome::default()
        };
        o.end_to_end("throughput_ops_s", 1234.5);
        assert!(o.correct());
        assert!((o.failed_share() - 0.0015).abs() < 1e-12);
        let line = o.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 2000, \"failed\": 3, "),
            "{line}"
        );

        o.fail_check("shard 3 leaked 1 mode hold".into());
        assert!(!o.correct());
        assert_eq!(o.failed_share(), 1.0);
        let line = o.json_line();
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 2000, \"failed\": 2000, "),
            "{line}"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_metrics() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.layer("semlock.select_ns", 9.5);
        o.complete(&PER_LAYER);
        let line = o.json_line();
        assert_eq!(line.matches("\"value\": ").count(), PER_LAYER.len());
        assert!(line.contains("\"semlock.select_ns\": {\"value\": 9.5, \"unit\": \"ns\"}"));
        assert!(line.contains("\"retry.exhausted\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.ends_with("}}}"));
        let keys: Vec<&str> = line
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|k| ["correct", "attempted", "failed", "metrics"].contains(k))
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn printed_values_are_read_back_with_all_their_digits() {
        let text = format!(
            "{}  [400 slices, 160000 per slice]\n{}\nnote cia_1t: 40 placements\n\
             cia_2t          throughput_ops_s 5.0 1/s\n{{\"correct\": true}}\n",
            value_line("cia_1t", "throughput_ops_s", 11543877.277630111, "1/s"),
            value_line("cia_1t", "failed", 0.0, "count"),
        );
        let values = parse_values("cia_1t", &text);
        assert_eq!(values["throughput_ops_s"], 11543877.277630111);
        assert_eq!(values["failed"], 0.0);
        assert_eq!(values.len(), 2);
    }
}

//! `semlockc` — the semantic-locking compiler driver.
//!
//! Reads a program of atomic sections in the surface language (see
//! `synth::parse`), synthesizes deadlock-free semantic locking for it,
//! and prints the instrumented sections plus the generated locking
//! modes. With `check`, instead runs the static OS2PL audit
//! (`synth::audit`) and the tape lints (`synth::tape_audit`) over the
//! synthesized program and reports SL001–SL008 findings.
//!
//! ```text
//! semlockc program.sl                # compile and print
//! semlockc --no-opt program.sl      # skip Appendix-A optimizations
//! semlockc --no-refine program.sl   # generic lock(+) sites (§3 only)
//! semlockc --phi 16 program.sl      # abstract-value count (default 64)
//! semlockc -                        # read from stdin
//! semlockc check a.sl b.sl          # audit synthesized output
//! semlockc check --json a.sl       # machine-readable findings
//! semlockc check --dump-tape a.sl  # the lowered op tape, per section
//! ```
//!
//! Check-mode exit codes: 0 — audit clean (warnings allowed); 1 — lint
//! errors found; 2 — usage, I/O, or parse errors.
//!
//! `--json` emits the `semlock-audit/v2` schema: a top-level object with
//! a `schema` tag, the per-file reports under `files`, and the runtime's
//! machine-checked memory-ordering audit table (`semlock::mech::
//! ORDERING_AUDIT`, the contract the `model` crate verifies) under
//! `ordering_audit`. v1 was a bare array of the per-file objects; the
//! per-file shape is unchanged.
//!
//! Supported ADT classes: Map, Set, Queue, Multimap, WeakMap (and any
//! number of instances of each).

use std::io::Read;
use std::process::ExitCode;
use synth::diag::Diagnostic;
use synth::restrictions::RestrictionsGraph;
use synth::{ClassRegistry, Synthesizer};

fn usage() -> ExitCode {
    eprintln!("usage: semlockc [--no-opt] [--no-refine] [--phi N] <program.sl | ->");
    eprintln!(
        "       semlockc check [--json] [--dump-tape] [--no-opt] [--no-refine] [--phi N] \
         <program.sl...>"
    );
    ExitCode::from(2)
}

struct Options {
    no_opt: bool,
    no_refine: bool,
    phi_n: u16,
}

impl Options {
    fn synthesizer(&self, registry: ClassRegistry) -> Synthesizer {
        let mut synth = Synthesizer::new(registry).phi(semlock::phi::Phi::fib(self.phi_n));
        if self.no_opt {
            synth = synth.without_optimizations();
        }
        if self.no_refine {
            synth = synth.without_refinement();
        }
        synth
    }
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut check = false;
    let mut json = false;
    let mut dump_tape = false;
    let mut opts = Options {
        no_opt: false,
        no_refine: false,
        phi_n: 64,
    };

    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("check") {
        check = true;
        args.next();
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--dump-tape" => dump_tape = true,
            "--no-opt" => opts.no_opt = true,
            "--no-refine" => opts.no_refine = true,
            "--phi" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.phi_n = n,
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') || other == "-" => paths.push(other.to_string()),
            _ => return usage(),
        }
    }
    // Flags are collected before they are judged, so `--json --check` and
    // `--check --json` mean the same thing.
    if !check && (json || dump_tape) {
        let flag = if json { "--json" } else { "--dump-tape" };
        eprintln!("semlockc: {flag} only applies to check mode (`semlockc check {flag} ...`)");
        return ExitCode::from(2);
    }
    if paths.is_empty() || (!check && paths.len() > 1) {
        return usage();
    }

    if check {
        check_files(&paths, &opts, json, dump_tape)
    } else {
        compile_one(&paths[0], &opts)
    }
}

fn read_source(path: &str) -> Result<String, ExitCode> {
    if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("semlockc: failed to read stdin");
            return Err(ExitCode::from(2));
        }
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("semlockc: cannot read {path}: {e}");
            ExitCode::from(2)
        })
    }
}

fn registry() -> ClassRegistry {
    let mut registry = ClassRegistry::new();
    for class in KNOWN {
        registry.register(class, adts::schema_of(class), adts::spec_of(class));
    }
    registry
}

const KNOWN: [&str; 5] = ["Map", "Set", "Queue", "Multimap", "WeakMap"];

/// Parse a source file and verify all its ADT classes are supported.
fn load_sections(src: &str) -> Result<Vec<synth::ir::AtomicSection>, Box<Diagnostic>> {
    let sections = synth::parse::parse_program(src).map_err(|e| Box::new(Diagnostic::from(e)))?;
    let reg = registry();
    for section in &sections {
        for (var, class) in section.pointer_vars() {
            if !reg.contains(class) {
                return Err(Box::new(
                    Diagnostic::error(format!(
                        "variable {var} has unknown ADT class {class} (supported: {})",
                        KNOWN.join(", ")
                    ))
                    .in_section(&section.name),
                ));
            }
        }
    }
    Ok(sections)
}

/// `semlockc check`: synthesize each file and audit the result.
fn check_files(paths: &[String], opts: &Options, json: bool, dump_tape: bool) -> ExitCode {
    let mut worst = ExitCode::SUCCESS;
    let mut json_entries = Vec::new();
    for path in paths {
        let src = match read_source(path) {
            Ok(s) => s,
            Err(c) => return c,
        };
        let sections = match load_sections(&src) {
            Ok(s) => s,
            Err(d) => {
                if json {
                    json_entries.push(format!(
                        "{{\"file\":\"{}\",\"errors\":1,\"warnings\":0,\"diagnostics\":[{}]}}",
                        synth::diag::json_escape(path),
                        d.render_json()
                    ));
                } else {
                    eprintln!("semlockc: {path}:\n{}", d.render_text());
                }
                worst = ExitCode::from(2);
                continue;
            }
        };
        let (out, report) = opts.synthesizer(registry()).synthesize_and_audit(&sections);
        if dump_tape {
            // Under `--json` the dump goes to stderr so the JSON document
            // on stdout stays parseable.
            dump_tapes(path, &out, json);
        }
        if json {
            let diags: Vec<String> = report.diagnostics.iter().map(|d| d.render_json()).collect();
            json_entries.push(format!(
                "{{\"file\":\"{}\",\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
                synth::diag::json_escape(path),
                report.error_count(),
                report.warning_count(),
                diags.join(",")
            ));
        } else if report.diagnostics.is_empty() {
            println!("{path}: audit clean");
        } else {
            print!("{path}:\n{}", report.render_text());
        }
        if !report.is_clean() && worst == ExitCode::SUCCESS {
            worst = ExitCode::FAILURE;
        }
    }
    if json {
        println!(
            "{{\"schema\":\"semlock-audit/v2\",\"files\":[{}],\"ordering_audit\":[{}]}}",
            json_entries.join(","),
            ordering_audit_json()
        );
    }
    worst
}

/// `--dump-tape`: for every synthesized section, print the lowered op
/// tape — the one tape the compiled engine runs and SL006–SL008 audit.
fn dump_tapes(path: &str, out: &synth::SynthOutput, to_stderr: bool) {
    use std::fmt::Write as _;
    let mut buf = String::new();
    for section in &out.sections {
        let tape = synth::lower::lower_section(section, &out.tables);
        let _ = writeln!(
            buf,
            "{path}: section {}: {} ops",
            tape.section,
            tape.ops.len()
        );
        for (pc, op) in tape.ops.iter().enumerate() {
            let _ = writeln!(buf, "  {pc:3}: {}", render_op(&tape, op));
        }
    }
    if to_stderr {
        eprint!("{buf}");
    } else {
        print!("{buf}");
    }
}

/// One lowered op, compactly: slots as `rN`, jump offsets relative to
/// the next op, lock sites as `site<Class>[key slots]`.
fn render_op(t: &synth::lower::Tape, op: &synth::lower::LowOp) -> String {
    use synth::lower::{LowOp, NO_SLOT};
    let site = |s: u16| {
        let d = &t.sites[s as usize];
        let keys: Vec<String> = d.key_slots.iter().map(|k| format!("r{k}")).collect();
        format!("site{s}<{}>[{}]", d.class, keys.join(","))
    };
    let group = |start: u32, len: u16| {
        let entries: Vec<String> = t.group_pool[start as usize..start as usize + len as usize]
            .iter()
            .map(|&(recv, s)| format!("r{recv} {}", site(s)))
            .collect();
        entries.join("; ")
    };
    match op {
        LowOp::Const { dst, val } => format!("r{dst} = const {val:?}"),
        LowOp::Copy { dst, src } => format!("r{dst} = r{src}"),
        LowOp::IsNull { dst, src } => format!("r{dst} = is_null r{src}"),
        LowOp::Not { dst, src } => format!("r{dst} = not r{src}"),
        LowOp::Eq { dst, a, b } => format!("r{dst} = r{a} == r{b}"),
        LowOp::Lt { dst, a, b } => format!("r{dst} = r{a} < r{b}"),
        LowOp::Add { dst, a, b } => format!("r{dst} = r{a} + r{b}"),
        LowOp::New { dst, class } => format!("r{dst} = new {}", t.classes[*class as usize]),
        LowOp::Call {
            call,
            ret,
            recv,
            args_start,
            args_len,
        } => {
            let c = &t.calls[*call as usize];
            let args: Vec<String> = t.arg_pool
                [*args_start as usize..*args_start as usize + *args_len as usize]
                .iter()
                .map(|s| format!("r{s}"))
                .collect();
            let dst = if *ret == NO_SLOT {
                String::new()
            } else {
                format!("r{ret} = ")
            };
            format!("{dst}r{recv}.{}({})", c.method, args.join(", "))
        }
        LowOp::Jump { off } => format!("jump {off:+}"),
        LowOp::JumpIfFalse { cond, off } => format!("jump_if_false r{cond} {off:+}"),
        LowOp::Lock { recv, site: s } => format!("lock r{recv} {}", site(*s)),
        LowOp::LockGroup { start, len } => format!("lock_group [{}]", group(*start, *len)),
        LowOp::UnlockAllOf { recv } => format!("unlock_all_of r{recv}"),
        LowOp::UnlockAll => "unlock_all".to_string(),
    }
}

/// The runtime's `ORDERING_AUDIT` table as JSON objects: one per audited
/// atomic-access site of the admission protocol, with the shipped
/// ordering, the seeded mutant the model checker must refute (or null),
/// and the safety claim.
fn ordering_audit_json() -> String {
    use semlock::mech::{ordering_name, ORDERING_AUDIT};
    let entries: Vec<String> = ORDERING_AUDIT
        .iter()
        .map(|e| {
            format!(
                "{{\"site\":\"{}\",\"ordering\":\"{}\",\"mutant\":{},\"claim\":\"{}\"}}",
                synth::diag::json_escape(e.site),
                ordering_name(e.ordering),
                match e.mutant {
                    Some(m) => format!("\"{}\"", ordering_name(m)),
                    None => "null".to_string(),
                },
                synth::diag::json_escape(e.claim)
            )
        })
        .collect();
    entries.join(",")
}

/// Classic compile-and-print mode.
fn compile_one(path: &str, opts: &Options) -> ExitCode {
    let src = match read_source(path) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let sections = match load_sections(&src) {
        Ok(s) => s,
        Err(d) => {
            eprintln!("semlockc: {path}:\n{}", d.render_text());
            return ExitCode::from(2);
        }
    };

    // Diagnostics: restrictions-graph of the input.
    let graph = RestrictionsGraph::build(&sections);
    println!("// restrictions-graph:");
    let classes = graph.classes();
    if graph.edge_count() == 0 {
        println!("//   (no ordering constraints)");
    }
    for u in 0..classes.len() {
        for v in graph.succ(u) {
            println!("//   [{}] -> [{}]", classes.name(u), classes.name(v));
        }
    }
    for comp in graph.cyclic_components() {
        let names: Vec<&str> = comp.iter().map(|&c| classes.name(c)).collect();
        println!(
            "//   cyclic component {{{}}} -> global wrapper",
            names.join(", ")
        );
    }

    let out = opts.synthesizer(registry()).synthesize(&sections);

    println!("// lock order: {}", out.class_order.join(" < "));
    for w in &out.wrappers {
        println!(
            "// wrapper {} (pointer {}) wraps {}",
            w.name,
            w.pointer,
            w.wrapped_classes.join(", ")
        );
    }
    println!();
    for section in &out.sections {
        print!("{section}");
        println!();
    }

    println!("// locking modes:");
    let mut classes: Vec<&str> = out.tables.classes().collect();
    classes.sort();
    for class in classes {
        let t = out.tables.table(class);
        println!(
            "//   {class}: {} modes, {} partitions (φ n = {})",
            t.mode_count(),
            t.partition_count(),
            t.phi().n()
        );
    }
    ExitCode::SUCCESS
}

//! `eve-cli` — command-line front end to the EVE view synchronizer.
//!
//! ```text
//! eve-cli mkb <mkb.misd>                          # parse + validate + summarise an MKB
//! eve-cli dot <mkb.misd>                          # hypergraph H(MKB) as Graphviz DOT
//! eve-cli views <views.esql> [--mkb <mkb.misd>]   # parse/validate/typecheck E-SQL views
//! eve-cli sync --mkb <mkb.misd> --views <views.esql> \
//!          (--change "delete-relation Customer" [--change ...] | --snapshot <new.misd>)
//!          [--at-version <n>] [--cost] [--require-p3] [--explain]
//!          [--trace] [--trace-out <trace.jsonl>] [--faults "<plan>"] [--fail-fast]
//! eve-cli history --mkb <mkb.misd> --views <views.esql> \
//!          --change "<op> ..." [--change ...]     # version chain + delta summaries
//! eve-cli metrics-serve [--addr 127.0.0.1:9187] [--requests <n>] \
//!          [--mkb <mkb.misd> --views <views.esql> --change "<op> ..." [--change ...]]
//! eve-cli simulate [--seed <n>] [--steps <n>] [--profile smoke|standard|soak] \
//!          [--destructive] [--canary <n>] [--artifact <file>] [--no-shrink] \
//!          [--replay <artifact>]
//! ```
//!
//! `sync --at-version <n>` time-travels after the changes apply: instead
//! of the final surviving views it prints the views as recorded at chain
//! version `n` (0 = the initial state, `i` = after the `i`-th change),
//! reconstructed from the synchronizer's structurally-shared version
//! chain. `history` applies the changes and renders the whole chain —
//! one line per version with the change that produced it and the delta
//! summary of what the incremental index maintenance did (constraints
//! dropped, maps shared vs patched).
//!
//! `--trace` prints the per-phase timing tree (apply → per-view sync →
//! index build → tree enumeration → ranking) and a metrics summary after
//! the sync report; `--trace-out <file>` additionally streams every span
//! and final metric as JSON lines to `<file>`. Either flag enables the
//! telemetry pipeline for the run.
//!
//! `--faults "<plan>"` installs a deterministic fault plan for the run
//! (grammar: `[scope/]site[#hit][%permille]=panic|transient|budget|`
//! `delay[:millis]`, entries separated by `;`, plus an optional
//! `seed=N` entry) and switches the synchronizer to the
//! `Degrade` failure policy, so injected view failures are contained,
//! retried, and reported instead of aborting the process. `--fail-fast`
//! keeps the default fail-fast policy even under a fault plan. A fault
//! report (sites fired, faults injected) is printed after the run.
//!
//! `--flight-recorder <dump.jsonl>` arms the telemetry flight recorder
//! for the sync: recent spans, counter deltas, and fault firings are
//! kept in bounded per-thread rings, and when a view fails — `FailFast`
//! surfacing a `SyncPanic` or `Degrade` landing a failed view — the
//! merged window is written to `<dump.jsonl>` as a canonical (sorted,
//! timing-free) JSONL crash dump that is byte-identical across reruns
//! and worker counts for the same pinned fault seed.
//!
//! `simulate` runs the deterministic whole-system simulator: a seeded
//! schedule of capability changes, queries, previews, rollbacks,
//! virtual-clock ticks, and fault episodes, with invariants checked
//! continuously. The seed is echoed first (a fresh one is drawn from
//! the system clock when `--seed` is omitted) and the outcome digest
//! printed last — the same seed, steps, and profile reproduce the
//! digest byte-for-byte, whatever `EVE_PARALLELISM` is. On an invariant
//! violation the exit code is 1 and a self-contained repro artifact
//! (config + schedule + flight-recorder dump) is written; unless
//! `--no-shrink` is given the schedule is then delta-debugged to a
//! minimal failing core, saved next to the artifact as `<file>.min`.
//! `--replay <artifact>` re-executes a saved artifact's schedule
//! instead of generating one.
//!
//! `metrics-serve` exposes the telemetry registry over HTTP
//! (`/metrics` in Prometheus text format, `/snapshot` as JSON,
//! `/health`); with a workload (`--mkb`/`--views`/`--change`) it runs
//! one sync first so there is something to scrape, and `--requests <n>`
//! exits after `n` requests (for smoke tests).
//!
//! File formats: the MISD textual format (`RELATION`/`JOIN`/`FUNCOF`/
//! `PC`/`ORDER` statements) and E-SQL (`CREATE VIEW …` statements,
//! semicolon-separated). Changes use the paper's operator notation, e.g.
//! `delete-attribute Customer.Addr` or `rename-relation Tour -> Trip`.
//!
//! Exit codes: 0 on success; 1 when the run completed but found a
//! problem — `sync` disabled a view, `mkb`/`views` found type errors,
//! `simulate` found an invariant violation; 2 when the run could not
//! go on — an unknown subcommand, a missing or bad flag value, an
//! unreadable file, a parse error, a rejected view, a change the MKB
//! cannot take, or an output file or address that cannot be opened.

use eve::cvs::{
    explain_rewriting_with_stats, CostModel, CvsOptions, FailurePolicy, SynchronizerBuilder,
    ViewOutcome,
};
use eve::esql::{parse_views, validate_view};
use eve::hypergraph::{dot, Hypergraph};
use eve::misd::{check_mkb, check_view, parse_misd, CapabilityChange, MetaKnowledgeBase};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("mkb") => cmd_mkb(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("views") => cmd_views(&args[1..]),
        Some("sync") => cmd_sync(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("metrics-serve") => cmd_metrics_serve(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  eve-cli mkb <mkb.misd>\n  eve-cli dot <mkb.misd>\n  \
                 eve-cli views <views.esql> [--mkb <mkb.misd>]\n  \
                 eve-cli sync --mkb <mkb.misd> --views <views.esql> \
                 (--change \"<op> ...\" [--change ...] | --snapshot <new.misd>) \
                 [--at-version <n>] \
                 [--cost] [--require-p3] [--explain] [--trace] [--trace-out <trace.jsonl>] \
                 [--faults \"<plan>\"] [--fail-fast] [--flight-recorder <dump.jsonl>]\n  \
                 eve-cli history --mkb <mkb.misd> --views <views.esql> \
                 --change \"<op> ...\" [--change ...]\n  \
                 eve-cli metrics-serve [--addr <host:port>] [--requests <n>] \
                 [--mkb <mkb.misd> --views <views.esql> --change \"<op> ...\" [--change ...]]\n  \
                 eve-cli simulate [--seed <n>] [--steps <n>] \
                 [--profile smoke|standard|soak] [--destructive] [--canary <n>] \
                 [--artifact <file>] [--no-shrink] [--replay <artifact>]"
            );
            ExitCode::from(2)
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_mkb(path: &str) -> Result<MetaKnowledgeBase, String> {
    let text = read(path)?;
    parse_misd(&text).map_err(|e| format!("{path}: {e}"))
}

/// Report an error the run cannot go on from: exit code 2.
fn fail(msg: String) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

fn cmd_mkb(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("mkb: missing file argument".into());
    };
    let mkb = match load_mkb(path) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let type_errors = check_mkb(&mkb);
    println!(
        "{path}: {} relations, {} join constraints, {} function-of, {} PC, {} order",
        mkb.relation_count(),
        mkb.joins().len(),
        mkb.function_ofs().len(),
        mkb.pcs().len(),
        mkb.orders().len()
    );
    let h = Hypergraph::build(&mkb);
    print!("{}", dot::component_summary(&h));
    if type_errors.is_empty() {
        println!("type check: ok");
        ExitCode::SUCCESS
    } else {
        for e in &type_errors {
            eprintln!("type error: {e}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_dot(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("dot: missing file argument".into());
    };
    match load_mkb(path) {
        Ok(mkb) => {
            print!("{}", dot::mkb_to_dot(&mkb));
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_views(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("views: missing file argument".into());
    };
    let mkb = match flag_value(args, "--mkb") {
        Some(p) => match load_mkb(&p) {
            Ok(m) => Some(m),
            Err(e) => return fail(e),
        },
        None => None,
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let views = match parse_views(&text) {
        Ok(v) => v,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let mut bad = false;
    for v in &views {
        let mut problems: Vec<String> = validate_view(v).iter().map(|e| e.to_string()).collect();
        if let Some(m) = &mkb {
            problems.extend(check_view(v, m).iter().map(|e| e.to_string()));
        }
        if problems.is_empty() {
            println!(
                "{}: ok ({} columns, {} relations)",
                v.name,
                v.select.len(),
                v.from.len()
            );
        } else {
            bad = true;
            for p in problems {
                eprintln!("{}: {p}", v.name);
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// `history`: apply a change sequence and render the resulting version
/// chain — one line per version with the producing change and, when the
/// index was maintained incrementally, the delta summary.
fn cmd_history(args: &[String]) -> ExitCode {
    let Some(mkb_path) = flag_value(args, "--mkb") else {
        return fail("history: missing --mkb <file>".into());
    };
    let Some(views_path) = flag_value(args, "--views") else {
        return fail("history: missing --views <file>".into());
    };
    let change_texts = flag_values(args, "--change");
    if change_texts.is_empty() {
        return fail("history: at least one --change \"<op> ...\" required".into());
    }
    let mkb = match load_mkb(&mkb_path) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let views_text = match read(&views_path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let views = match parse_views(&views_text) {
        Ok(v) => v,
        Err(e) => return fail(format!("{views_path}: {e}")),
    };
    let changes: Vec<CapabilityChange> = match change_texts
        .iter()
        .map(|t| CapabilityChange::parse(t).map_err(|e| format!("--change {t:?}: {e}")))
        .collect()
    {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let mut builder = SynchronizerBuilder::new(mkb);
    for v in views {
        builder = match builder.with_view(v.clone()) {
            Ok(b) => b,
            Err(e) => return fail(format!("view {}: {e}", v.name)),
        };
    }
    let mut sync = builder.build();
    if let Err(e) = sync.apply_all(&changes) {
        return fail(format!("MKB evolution failed: {e}"));
    }
    println!("version chain (head v{}):", sync.version());
    for entry in sync.chain() {
        let label = match entry.change() {
            Some(c) => c.to_string(),
            None => "initial".to_string(),
        };
        println!(
            "v{}: {label} ({} relations, {} views, {} disabled)",
            entry.version,
            entry.snapshot.mkb.relation_count(),
            entry.snapshot.views.len(),
            entry.snapshot.disabled.len()
        );
        if let Some(d) = &entry.delta {
            println!("    delta {d}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_sync(args: &[String]) -> ExitCode {
    let Some(mkb_path) = flag_value(args, "--mkb") else {
        return fail("sync: missing --mkb <file>".into());
    };
    let Some(views_path) = flag_value(args, "--views") else {
        return fail("sync: missing --views <file>".into());
    };
    let change_texts = flag_values(args, "--change");
    let snapshot_path = flag_value(args, "--snapshot");
    if change_texts.is_empty() && snapshot_path.is_none() {
        return fail(
            "sync: at least one --change \"<op> ...\" or a --snapshot <mkb.misd> required".into(),
        );
    }
    let at_version = match flag_value(args, "--at-version") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                return fail(format!(
                    "sync: --at-version {v:?}: expected a version number"
                ))
            }
        },
        None => None,
    };
    let use_cost = args.iter().any(|a| a == "--cost");
    let require_p3 = args.iter().any(|a| a == "--require-p3");
    let explain = args.iter().any(|a| a == "--explain");
    let trace = args.iter().any(|a| a == "--trace");
    let trace_out = flag_value(args, "--trace-out");
    let faults_plan = flag_value(args, "--faults");
    let fail_fast = args.iter().any(|a| a == "--fail-fast");
    let flight_path = flag_value(args, "--flight-recorder");

    let mkb = match load_mkb(&mkb_path) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let views_text = match read(&views_path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let views = match parse_views(&views_text) {
        Ok(v) => v,
        Err(e) => return fail(format!("{views_path}: {e}")),
    };
    let changes: Vec<CapabilityChange> = match change_texts
        .iter()
        .map(|t| CapabilityChange::parse(t).map_err(|e| format!("--change {t:?}: {e}")))
        .collect()
    {
        Ok(c) => c,
        Err(e) => return fail(e),
    };

    // A fault plan without --fail-fast switches to the Degrade policy so
    // injected failures are contained per view instead of aborting.
    let mut options = CvsOptions::default();
    if faults_plan.is_some() && !fail_fast {
        options.failure = FailurePolicy::degrade();
    }
    let faults_active = if let Some(plan_text) = &faults_plan {
        let plan = match eve::faults::FaultPlan::parse(plan_text) {
            Ok(p) => p,
            Err(e) => return fail(format!("--faults: {e}")),
        };
        if eve::faults::install(plan).is_err() {
            return fail("--faults: a fault plan is already installed".into());
        }
        // Under Degrade, injected faults are caught at the parpool task
        // boundary, but the default panic hook would still print a
        // backtrace for each one — silence those while letting organic
        // panics report as usual. Under --fail-fast the injected panic
        // is the diagnostic for the abort, so the hook stays.
        if !fail_fast {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if eve::faults::injected(info.payload()).is_none() {
                    default_hook(info);
                }
            }));
        }
        true
    } else {
        false
    };

    let mut builder = SynchronizerBuilder::new(mkb)
        .with_options(options)
        .require_p3(require_p3);
    if use_cost {
        builder = builder.with_cost_model(CostModel::default());
    }
    for v in views {
        builder = match builder.with_view(v.clone()) {
            Ok(b) => b,
            Err(e) => return fail(format!("view {}: {e}", v.name)),
        };
    }
    // Telemetry is installed before the synchronizer runs so every span —
    // apply, per-view sync, index build, tree enumeration, ranking — lands
    // in the collector and (with --trace-out) the JSONL file.
    let collector = if trace || trace_out.is_some() {
        let collector = eve::telemetry::Collector::new();
        let mut sinks: Vec<std::sync::Arc<dyn eve::telemetry::Sink>> = vec![collector.clone()];
        if let Some(path) = &trace_out {
            match eve::telemetry::JsonlSink::create(path) {
                Ok(sink) => sinks.push(std::sync::Arc::new(sink)),
                Err(e) => return fail(format!("cannot create {path}: {e}")),
            }
        }
        if eve::telemetry::install(sinks).is_err() {
            return fail("trace: telemetry pipeline already installed".into());
        }
        Some(collector)
    } else {
        None
    };
    // The flight recorder rides on the telemetry hooks, so it needs a
    // pipeline even when no trace sink was requested: install a
    // sink-less one just for the recorder's benefit.
    let flight_pipeline = flight_path.is_some() && collector.is_none() && {
        if eve::telemetry::install(vec![]).is_err() {
            return fail("--flight-recorder: telemetry pipeline already installed".into());
        }
        true
    };
    if let Some(path) = &flight_path {
        if eve::telemetry::flight_install(4096, Some(path.into())).is_err() {
            return fail("--flight-recorder: a flight recorder is already installed".into());
        }
    }

    let mut sync = builder.build();
    // Snapshot originals so explanations can diff against them — cheap
    // Arc handles into the synchronizer's copy-on-write state.
    let originals = sync.view_snapshots();
    let applied = if let Some(snap_path) = snapshot_path {
        match load_mkb(&snap_path) {
            Ok(snapshot) => sync.sync_to(&snapshot),
            Err(e) => return fail(e),
        }
    } else {
        sync.apply_all(&changes)
    };
    let code = match applied {
        Ok(report) => {
            for outcome in &report.outcomes {
                println!("{outcome}");
                println!(
                    "  index cache: {} hits, {} misses",
                    outcome.cache.hits, outcome.cache.misses
                );
                for (name, view_outcome) in &outcome.views {
                    if let ViewOutcome::Rewritten { stats, .. } = view_outcome {
                        println!(
                            "  search {name}: {} generated, {} pruned, {} kept, {} trees{}",
                            stats.generated,
                            stats.pruned,
                            stats.kept,
                            stats.trees_enumerated,
                            if stats.budget_exhausted {
                                " (budget exhausted)"
                            } else {
                                ""
                            }
                        );
                    }
                }
                if explain {
                    for (name, view_outcome) in &outcome.views {
                        if let ViewOutcome::Rewritten { chosen, stats, .. } = view_outcome {
                            if let Some((_, orig)) = originals.iter().find(|(n, _)| n == name) {
                                println!("explanation for {name}:");
                                print!(
                                    "{}",
                                    explain_rewriting_with_stats(orig, chosen, Some(stats))
                                );
                            }
                        }
                    }
                    println!();
                }
            }
            match at_version {
                Some(n) => {
                    // Time-travel: reconstruct the requested chain version
                    // and print its views instead of the final state.
                    let Some(past) = sync.at_version(n) else {
                        return fail(format!(
                            "sync: --at-version {n} out of range (head is v{})",
                            sync.version()
                        ));
                    };
                    match past.chain().last().and_then(|e| e.change()) {
                        Some(c) => println!("views at version {n} (after {c}):"),
                        None => println!("views at version {n} (initial state):"),
                    }
                    for v in past.views() {
                        println!("\n{v}");
                    }
                }
                None => {
                    println!("surviving views:");
                    for v in sync.views() {
                        println!("\n{v}");
                    }
                }
            }
            let failed: usize = report.outcomes.iter().map(|o| o.failed()).sum();
            if report.disabled() > 0 {
                eprintln!(
                    "\n{} view(s) disabled ({} of them failed)",
                    report.disabled(),
                    failed
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(format!("MKB evolution failed: {e}")),
    };
    if faults_active {
        if let Some(fault_report) = eve::faults::uninstall() {
            println!(
                "\nfault report: {} fault(s) injected",
                fault_report.injected
            );
            for f in &fault_report.fired {
                if f.scope.is_empty() {
                    println!("  {} at {} (hit {})", f.kind, f.site, f.hit);
                } else {
                    println!("  {} at {}/{} (hit {})", f.kind, f.scope, f.site, f.hit);
                }
            }
        }
    }
    if let Some(path) = &flight_path {
        if eve::telemetry::flight_last_dump().is_some() {
            eprintln!("flight dump written to {path}");
        }
        eve::telemetry::flight_uninstall();
    }
    if let Some(collector) = collector {
        // Uninstall flushes the final metric lines into the JSONL sink
        // and hands back the registry snapshot for the summary.
        let snapshot = eve::telemetry::uninstall();
        if trace {
            println!("\ntrace:");
            print!("{}", eve::telemetry::render_tree(&collector.spans()));
            if let Some(snapshot) = &snapshot {
                println!("metrics:");
                print!("{}", eve::telemetry::render_metrics(snapshot));
            }
        }
    } else if flight_pipeline {
        eve::telemetry::uninstall();
    }
    code
}

/// `metrics-serve`: expose the telemetry registry over HTTP. With a
/// workload (`--mkb`/`--views`/`--change`) one sync runs first so the
/// registry has counters, gauges, and histograms to scrape; without
/// one, the endpoint serves an empty (but valid) registry.
fn cmd_metrics_serve(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:9187".to_string());
    let requests = match flag_value(args, "--requests") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return fail(format!("metrics-serve: --requests {v:?}: expected a count")),
        },
        None => None,
    };
    if eve::telemetry::install(vec![]).is_err() {
        return fail("metrics-serve: telemetry pipeline already installed".into());
    }

    // Optional workload: populate the registry with one real sync.
    if let Some(mkb_path) = flag_value(args, "--mkb") {
        let Some(views_path) = flag_value(args, "--views") else {
            return fail("metrics-serve: --mkb requires --views <file>".into());
        };
        let change_texts = flag_values(args, "--change");
        if change_texts.is_empty() {
            return fail("metrics-serve: --mkb requires at least one --change \"<op> ...\"".into());
        }
        let mkb = match load_mkb(&mkb_path) {
            Ok(m) => m,
            Err(e) => return fail(e),
        };
        let views_text = match read(&views_path) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let views = match parse_views(&views_text) {
            Ok(v) => v,
            Err(e) => return fail(format!("{views_path}: {e}")),
        };
        let changes: Vec<CapabilityChange> = match change_texts
            .iter()
            .map(|t| CapabilityChange::parse(t).map_err(|e| format!("--change {t:?}: {e}")))
            .collect()
        {
            Ok(c) => c,
            Err(e) => return fail(e),
        };
        let mut builder = SynchronizerBuilder::new(mkb);
        for v in views {
            builder = match builder.with_view(v.clone()) {
                Ok(b) => b,
                Err(e) => return fail(format!("view {}: {e}", v.name)),
            };
        }
        let mut sync = builder.build();
        if let Err(e) = sync.apply_all(&changes) {
            return fail(format!("MKB evolution failed: {e}"));
        }
    }

    let server = match eve::telemetry::serve::MetricsServer::bind(addr.as_str()) {
        Ok(s) => s,
        Err(e) => return fail(format!("metrics-serve: cannot bind {addr}: {e}")),
    };
    match server.local_addr() {
        Ok(local) => println!("eve-cli metrics-serve: listening on http://{local}"),
        Err(_) => println!("eve-cli metrics-serve: listening on http://{addr}"),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match requests {
        Some(n) => {
            for _ in 0..n {
                if let Err(e) = server.handle_one() {
                    eprintln!("metrics-serve: connection error: {e}");
                }
            }
        }
        None => {
            // serve() only returns on a fatal accept error.
            if let Err(e) = server.serve() {
                eve::telemetry::uninstall();
                return fail(format!("metrics-serve: {e}"));
            }
        }
    }
    eve::telemetry::uninstall();
    ExitCode::SUCCESS
}

/// `simulate`: deterministic whole-system simulation with repro
/// artifacts and schedule shrinking on invariant violations.
fn cmd_simulate(args: &[String]) -> ExitCode {
    use eve::sim::{parse_artifact, render_artifact, run, run_trace, shrink, Profile, SimConfig};

    // Replay mode: the artifact carries the whole config.
    if let Some(path) = flag_value(args, "--replay") {
        let text = match read(&path) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let artifact = match parse_artifact(&text) {
            Ok(a) => a,
            Err(e) => return fail(format!("{path}: {e}")),
        };
        println!(
            "sim replay: seed={} profile={} trace={} actions (expecting [{}] at step {})",
            artifact.config.seed,
            artifact.config.profile.name(),
            artifact.trace.len(),
            artifact.violation.invariant,
            artifact.violation.step,
        );
        let report = run_trace(&artifact.config, &artifact.trace);
        println!("sim digest={}", report.digest_hex());
        return match report.violation {
            Some(v) if v.invariant == artifact.violation.invariant => {
                println!("sim replay: reproduced: {v}");
                ExitCode::FAILURE
            }
            Some(v) => {
                println!("sim replay: DIFFERENT violation: {v}");
                ExitCode::FAILURE
            }
            None => {
                println!("sim replay: did NOT reproduce (clean run)");
                ExitCode::SUCCESS
            }
        };
    }

    let seed = match flag_value(args, "--seed") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => return fail(format!("simulate: --seed {v:?}: expected an integer")),
        },
        // Fresh seed from the wall clock — echoed below so any run can
        // be reproduced exactly.
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED),
    };
    let steps = match flag_value(args, "--steps") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return fail(format!("simulate: --steps {v:?}: expected a count")),
        },
        None => 1000,
    };
    let profile = match flag_value(args, "--profile") {
        Some(v) => match Profile::parse(&v) {
            Some(p) => p,
            None => {
                return fail(format!(
                    "simulate: --profile {v:?}: expected smoke|standard|soak"
                ))
            }
        },
        None => Profile::Standard,
    };
    let mut config = SimConfig::new(seed, steps);
    config.profile = profile;
    config.destructive = args.iter().any(|a| a == "--destructive");
    config.canary = match flag_value(args, "--canary") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return fail(format!("simulate: --canary {v:?}: expected a count")),
        },
        None => None,
    };
    println!(
        "sim seed={seed} steps={steps} profile={}{}{}",
        profile.name(),
        if config.destructive {
            " destructive"
        } else {
            ""
        },
        match config.canary {
            Some(n) => format!(" canary={n}"),
            None => String::new(),
        },
    );

    // Arm the flight recorder so a violation comes with recent spans,
    // counters, and fault firings for post-mortem context.
    let flight_armed = eve::telemetry::flight_install(4096, None).is_ok();
    let report = run(&config);
    let flight_lines: Vec<String> = if report.violation.is_some() {
        eve::telemetry::flight_dump()
            .map(|d| d.lines().map(str::to_string).collect())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    if flight_armed {
        let _ = eve::telemetry::flight_uninstall();
    }

    let s = &report.stats;
    println!(
        "sim executed {} steps: {} changes, {} view registrations, {} queries, {} previews, \
         {} rollbacks, {} fault episodes ({} faults fired), {} replay checks, {} full sweeps, \
         {} skipped",
        report.steps_executed,
        s.changes,
        s.registrations,
        s.queries,
        s.previews,
        s.rollbacks,
        s.fault_episodes,
        s.faults_fired,
        s.replays,
        s.full_checks,
        s.skipped,
    );
    println!("sim digest={}", report.digest_hex());

    let Some(violation) = report.violation else {
        return ExitCode::SUCCESS;
    };
    eprintln!("sim INVARIANT VIOLATION: {violation}");

    let artifact_path =
        flag_value(args, "--artifact").unwrap_or_else(|| format!("sim-repro-{seed}.txt"));
    let text = render_artifact(&config, &report.trace, &violation, &flight_lines);
    if let Err(e) = std::fs::write(&artifact_path, &text) {
        return fail(format!("simulate: cannot write {artifact_path}: {e}"));
    }
    println!(
        "sim repro artifact: {artifact_path} ({} actions)",
        report.trace.len()
    );

    if !args.iter().any(|a| a == "--no-shrink") {
        let shrunk = shrink(&config, &report.trace, &violation, 500);
        println!(
            "sim shrunk schedule: {} -> {} actions ({} oracle runs): {}",
            report.trace.len(),
            shrunk.trace.len(),
            shrunk.runs,
            shrunk.violation,
        );
        let min_path = format!("{artifact_path}.min");
        let min_text = render_artifact(&config, &shrunk.trace, &shrunk.violation, &[]);
        if let Err(e) = std::fs::write(&min_path, &min_text) {
            return fail(format!("simulate: cannot write {min_path}: {e}"));
        }
        println!("sim shrunk artifact: {min_path}");
    }
    ExitCode::FAILURE
}

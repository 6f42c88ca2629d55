//! `cvsbench` — the repository benchmark for the CVS view synchronizer.
//!
//! ```text
//! cvsbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload; the last stdout line is the JSON result
//! cvsbench [--seed N] [--runs R] [--seconds S] [--out DIR] [--quick]
//!          [--ledger FILE --ts T --rev REV]
//!     R rounds of every workload, each run in its own child process
//! cvsbench compare A.json B.json
//!     do two result files agree within BENCHMARK.json's bounds?
//! ```
//!
//! See README.md next to this file for the workloads and metrics.

mod agree;
mod alloc;
mod json;
mod layers;
mod stats;
mod workload;

use layers::{Layers, Metric};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Reference, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// `setup_s` is the median of at least this many set-ups, repeated for
/// at least [`SETUP_TIME`].
const SETUP_REPS: usize = 9;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// The result of one run.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Rendered per-layer attribution table (traced runs only).
    pub table: Option<String>,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Percentile `p` over the distinct changes of a phase, of each change's
/// median latency over its replays.
fn change_percentile(s: &workload::Samples, p: f64) -> Result<f64, String> {
    let medians = stats::medians_by_key(&s.change_key, &s.change_ms);
    stats::percentile(&medians, p)
        .ok_or_else(|| format!("{} distinct changes are too few for p{p}", medians.len()))
}

/// One run: generate inputs from `seed`, set up, take the reference pass,
/// measure for `seconds` (untraced) or for two halves of it (untraced,
/// then traced) when `trace` is set, and finish with the rebuild oracle.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let t = Instant::now();
    let inputs = Inputs::generate(workload, seed, quick);
    let gen_s = t.elapsed().as_secs_f64();
    let (setup_s, protos) = workload::setup(
        &inputs,
        SETUP_REPS,
        if quick { Duration::ZERO } else { SETUP_TIME },
    );

    // Correctness gate, untimed: the reference pass checks Def. 1 on
    // every rewriting and doubles as the warm-up; every timed outcome
    // below must match it; the rebuild oracle, last, pins the
    // delta-maintained outcomes.
    let t = Instant::now();
    let reference = Reference::run(&inputs, &protos)?;
    let reference_s = t.elapsed().as_secs_f64();

    let phase = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let untraced = workload::measure(
        &inputs,
        &protos,
        &reference,
        Instant::now() + phase,
        seed,
        None,
    )?;
    let peak_rss = peak_rss_mb()?;
    let mut result = RunResult {
        metrics: Vec::new(),
        attempted: untraced.changes,
        failed: untraced.failed,
        digest: reference.digest,
        table: None,
    };
    if trace {
        let mut layers = Layers::new(&inputs);
        layers.start()?;
        let traced = workload::measure(
            &inputs,
            &protos,
            &reference,
            Instant::now() + phase,
            seed,
            Some(&mut layers),
        );
        layers.stop();
        let traced = traced?;
        result.attempted += traced.changes;
        result.failed += traced.failed;
        let (mut metrics, table) = layers.report(&untraced, &traced, gen_s)?;
        // Rewritten ÷ affected views over the reference pass. It is exact
        // for a seed but varies across seeds by more than any end-to-end
        // bound allows, so it is reported here; the outcome digest pins it.
        let survival = if reference.affected == 0 {
            1.0
        } else {
            reference.rewritten as f64 / reference.affected as f64
        };
        metrics.push(("engine.view_survival_ratio", survival, "ratio"));
        result.metrics = metrics;
        result.table = Some(table);
    } else {
        result.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("change_p50_ms", change_percentile(&untraced, 50.0)?, "ms"),
            ("change_p95_ms", change_percentile(&untraced, 95.0)?, "ms"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ];
    }

    let t = Instant::now();
    reference.check_against_rebuild(&inputs, &protos)?;
    eprintln!(
        "cvsbench: {}: generate {gen_s:.2} s, set-up {setup_s:.3} s, reference pass {reference_s:.2} s, rebuild oracle {:.2} s",
        workload.name(),
        t.elapsed().as_secs_f64()
    );
    Ok(result)
}

/// The result line, printed last on stdout; `None` for a run that failed.
pub fn result_json(r: Option<&RunResult>) -> String {
    let metrics = r
        .map(|r| {
            r.metrics
                .iter()
                .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.is_some(),
        r.map_or(0, |r| r.attempted),
        r.map_or(0, |r| r.failed),
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<String>,
    ledger: Option<(String, String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        ledger: None,
    };
    let (mut ledger, mut ts, mut rev) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => a.seconds = Some(num(value()?)?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--runs" => a.runs = value()?.parse().map_err(|_| "--runs: not an integer")?,
            "--out" => a.out = Some(value()?),
            "--ledger" => ledger = Some(value()?),
            "--ts" => ts = Some(value()?),
            "--rev" => rev = Some(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    a.ledger = match (ledger, ts, rev) {
        (Some(l), Some(t), Some(r)) => Some((l, t, r)),
        (None, None, None) => None,
        _ => return Err("--ledger needs --ts and --rev".to_string()),
    };
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => agree::compare(a, b),
            _ => {
                eprintln!("usage: cvsbench compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cvsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return agree::rounds(
            args.seed,
            args.runs,
            args.seconds,
            args.quick,
            args.out.as_deref(),
            args.ledger.as_ref(),
        );
    };
    let Some(workload) = Workload::parse(name) else {
        eprintln!("cvsbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or_else(|| {
        agree::definition()
            .expect("the compiled-in BENCHMARK.json parses")
            .run_seconds
    });
    match run(workload, args.seed, seconds, args.trace, args.quick) {
        Ok(r) => {
            for (metric, value, unit) in &r.metrics {
                println!("{} {metric} {value} {unit}", workload.name());
            }
            if let Some(table) = &r.table {
                print!("{table}");
            }
            println!("digest {} {:016x}", workload.name(), r.digest);
            println!("{}", result_json(Some(&r)));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cvsbench: {}: {e}", workload.name());
            println!("{}", result_json(None));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in workload::ALL {
            let a = Inputs::generate(w, 7, true).digest();
            assert_eq!(a, Inputs::generate(w, 7, true).digest(), "{}", w.name());
            assert_ne!(a, Inputs::generate(w, 8, true).digest(), "{}", w.name());
        }
    }

    /// Every workload in quick mode, untraced and traced: the metrics
    /// emitted, with their units, are exactly those `BENCHMARK.json`
    /// declares.
    #[test]
    fn quick_runs_emit_exactly_the_declared_names() {
        let def = agree::definition().expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(def.workloads, workloads);
        let started = Instant::now();
        for w in workload::ALL {
            for (trace, declared) in [(false, &def.end_to_end), (true, &def.per_layer)] {
                let r = run(w, 3, 0.2, trace, true)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                assert!(r.attempted > 0 && r.failed == 0, "{}", w.name());
                let mut got: Vec<(String, String)> = r
                    .metrics
                    .iter()
                    .map(|m| (m.0.to_string(), m.2.to_string()))
                    .collect();
                let mut want: Vec<(String, String)> = declared
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.clone()))
                    .collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "{} trace={trace}", w.name());
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "quick smoke took {:?}",
            started.elapsed()
        );
    }
}

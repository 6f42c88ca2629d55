//! Agreement tooling: repeated rounds of every workload (each run in its
//! own child process), their spread against `BENCHMARK.json`'s bounds,
//! the comparison of two result files, and the per-layer ledger.

use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use crate::workload::{Workload, ALL};
use eve_bench::history::{append_rows, HistoryRow};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The benchmark definition, compiled in so the tooling and the tests
/// judge against the same file the runs are defined by.
pub const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Definition {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub fn definition() -> Result<Definition, String> {
    let doc = json::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names =
        |key: &str| -> Vec<&Json> { doc.get(key).map_or(&[][..], Json::as_arr).iter().collect() };
    let metric = |m: &Json| -> Result<MetricDef, String> {
        let field = |k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: metric without {k}"))
        };
        Ok(MetricDef {
            name: field("name")?,
            unit: field("unit")?,
            bound: m.get("bound").and_then(Json::as_f64),
        })
    };
    Ok(Definition {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: names("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: names("end_to_end")
            .into_iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: names("per_layer")
            .into_iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// One child run as recorded in a result file.
struct Row {
    round: usize,
    workload: String,
    seed: u64,
    trace: bool,
    digest: String,
    result: Json,
}

/// The values of `metric` over the runs of `workload` (traced or not).
fn values(rows: &[Row], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.result.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    for l in &lines[..lines.len().saturating_sub(1)] {
        println!("  {l}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) exited with {}",
            w.name(),
            out.status
        ));
    }
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("digest {} ", w.name())))
        .unwrap_or("-")
        .to_string();
    let result = json::parse(lines.last().unwrap_or(&""))
        .map_err(|e| format!("{}: result line: {e}", w.name()))?;
    Ok((digest, result))
}

fn summarize(def: &Definition, rows: &[Row]) -> (String, bool) {
    let mut text = String::new();
    let mut steady = true;
    let _ = writeln!(
        text,
        "{:<11} {:<34} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for w in &def.workloads {
        for (trace, metrics) in [(false, &def.end_to_end), (true, &def.per_layer)] {
            for m in metrics.iter() {
                let values = values(rows, w, trace, &m.name);
                if values.is_empty() {
                    continue;
                }
                let (q1, q3) = quartiles(&values).map_or(("-".into(), "-".into()), |(a, b)| {
                    (format!("{a:.4}"), format!("{b:.4}"))
                });
                let s = spread(&values).unwrap_or(0.0);
                let flag = match m.bound {
                    Some(b) if m.name != "setup_s" && s > b => {
                        steady = false;
                        " SPREAD>BOUND"
                    }
                    _ => "",
                };
                let bound = m.bound.map_or("-".to_string(), |b| format!("{b:.3}"));
                let _ = writeln!(
                    text,
                    "{w:<11} {:<34} {:>12.4} {q1:>12} {q3:>12} {s:>8.4} {bound:>7}{flag}",
                    m.name,
                    median(&values)
                );
            }
        }
    }
    (text, steady)
}

fn to_json(seed: u64, seconds: f64, rows: &[Row]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"round\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{}\", \"result\": {}}}",
                r.round,
                r.workload,
                r.seed,
                u8::from(r.trace),
                r.digest,
                render(&r.result)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"rows\": [\n{body}\n  ]\n}}\n")
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        Json::Arr(a) => format!("[{}]", a.iter().map(render).collect::<Vec<_>>().join(", ")),
        Json::Obj(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("\"{k}\": {}", render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("rows")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|r| {
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: row without {k}"))
            };
            let text = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{path}: row without {k}"))
            };
            Ok(Row {
                round: num("round")? as usize,
                workload: text("workload")?,
                seed: num("seed")? as u64,
                trace: num("trace")? != 0.0,
                digest: text("digest")?,
                result: r
                    .get("result")
                    .cloned()
                    .ok_or(format!("{path}: row without result"))?,
            })
        })
        .collect()
}

/// `--runs N`: N rounds; round r uses seed `seed + r` and starts its
/// workload order r places further along, so a drift in host speed over
/// the session does not always land on the same workload. Each workload
/// runs untraced and then traced.
pub fn rounds(
    seed: u64,
    runs: usize,
    seconds: Option<f64>,
    quick: bool,
    out: Option<&str>,
    ledger: Option<&(String, String, String)>,
) -> ExitCode {
    let def = match definition() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cvsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = seconds.unwrap_or(def.run_seconds);
    let mut rows = Vec::new();
    let mut failures = 0;
    for round in 0..runs {
        let s = seed + round as u64;
        for i in 0..ALL.len() {
            let w = ALL[(i + round) % ALL.len()];
            for trace in [false, true] {
                match run_child(w, s, seconds, trace, quick) {
                    Ok((digest, result)) => {
                        println!(
                            "round {round} {} seed {s} trace {} digest {digest}",
                            w.name(),
                            u8::from(trace)
                        );
                        rows.push(Row {
                            round,
                            workload: w.name().to_string(),
                            seed: s,
                            trace,
                            digest,
                            result,
                        });
                    }
                    Err(e) => {
                        eprintln!("cvsbench: {e}");
                        failures += 1;
                    }
                }
            }
        }
    }
    let (table, steady) = summarize(&def, &rows);
    print!("{table}");
    if let Some(dir) = out {
        let path = Path::new(dir).join("run.json");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, to_json(seed, seconds, &rows)));
        if let Err(e) = written {
            eprintln!("cvsbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if let Some((file, ts, rev)) = ledger {
        let mut ledger_rows = Vec::new();
        for w in &def.workloads {
            for m in def
                .per_layer
                .iter()
                .filter(|m| ["us", "ms", "s"].contains(&m.unit.as_str()))
            {
                let values = values(&rows, w, true, &m.name);
                if values.is_empty() {
                    continue;
                }
                let scale = match m.unit.as_str() {
                    "us" => 1e3,
                    "ms" => 1e6,
                    _ => 1e9,
                };
                ledger_rows.push(HistoryRow {
                    ts: ts.clone(),
                    rev: rev.clone(),
                    scenario: format!("{w}/{}", m.name),
                    median_ns: (median(&values) * scale).max(0.0).round() as u128,
                });
            }
        }
        if let Err(e) = append_rows(Path::new(file), &ledger_rows) {
            eprintln!("cvsbench: appending to {file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("appended {} rows to {file}", ledger_rows.len());
    }
    if failures > 0 {
        eprintln!("cvsbench: {failures} run(s) failed");
        return ExitCode::FAILURE;
    }
    if !steady {
        eprintln!("cvsbench: some end-to-end spread exceeds its bound");
    }
    ExitCode::SUCCESS
}

/// `compare A B`: for every workload and end-to-end metric, do the
/// untraced medians of the two files agree within the metric's bound?
/// Digests of runs with the same seed must be identical.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let loaded = definition().and_then(|d| Ok((d, read_rows(a)?, read_rows(b)?)));
    let (def, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cvsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut agree = true;
    for w in &def.workloads {
        for m in &def.end_to_end {
            let (va, vb) = (
                values(&ra, w, false, &m.name),
                values(&rb, w, false, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{w} {} missing", m.name);
                agree = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let rel = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let bound = m.bound.unwrap_or(0.0);
            let ok = rel.abs() <= bound + 1e-12;
            agree &= ok;
            println!(
                "{w} {} {ma:.4} {mb:.4} {:+.2}% bound {:.0}% {}",
                m.name,
                rel * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    let digests = |rows: &[Row]| -> BTreeMap<(String, u64), String> {
        rows.iter()
            .map(|r| ((r.workload.clone(), r.seed), r.digest.clone()))
            .collect()
    };
    let (da, db) = (digests(&ra), digests(&rb));
    let mut same_seed = 0;
    for (key, d) in &da {
        if let Some(other) = db.get(key) {
            same_seed += 1;
            if d != other {
                println!("{} seed {} digest {d} != {other}", key.0, key.1);
                agree = false;
            }
        }
    }
    let rounds = |rows: &[Row]| rows.iter().map(|r| r.round).max().map_or(0, |m| m + 1);
    println!(
        "{} ({} rounds) vs {} ({} rounds): {same_seed} seed/workload pairs with identical digests required; {}",
        a,
        rounds(&ra),
        b,
        rounds(&rb),
        if agree { "AGREE" } else { "DISAGREE" }
    );
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

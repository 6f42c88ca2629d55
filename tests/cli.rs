//! Integration tests for the `eve-cli` binary, exercising the fixture
//! files under `fixtures/`.

use std::process::Command;

fn cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mkb_summary() {
    let (ok, stdout, stderr) = cli(&["mkb", "fixtures/travel.misd"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("8 relations"), "{stdout}");
    assert!(stdout.contains("7 join constraints"), "{stdout}");
    assert!(stdout.contains("type check: ok"), "{stdout}");
    assert!(stdout.contains("component 2"), "{stdout}");
}

#[test]
fn dot_output() {
    let (ok, stdout, _) = cli(&["dot", "fixtures/travel.misd"]);
    assert!(ok);
    assert!(stdout.starts_with("graph H {"));
    assert!(stdout.contains("cluster_Customer"));
}

#[test]
fn views_validate() {
    let (ok, stdout, stderr) = cli(&[
        "views",
        "fixtures/travel_views.esql",
        "--mkb",
        "fixtures/travel.misd",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Asia-Customer: ok"), "{stdout}");
    assert!(stdout.contains("Tour-Catalog: ok"), "{stdout}");
}

#[test]
fn sync_delete_relation() {
    let (ok, stdout, _) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "delete-relation Customer",
        "--cost",
    ]);
    // Customer-Passengers-Asia is rewritten onto Accident-Ins/FlightRes.
    assert!(
        stdout.contains("Customer-Passengers-Asia: rewritten"),
        "{stdout}"
    );
    assert!(stdout.contains("Accident-Ins.Holder"), "{stdout}");
    // Asia-Customer is genuinely incurable here: its indispensable Addr
    // is covered only by Person, which is unreachable from FlightRes in
    // H'(MKB') — so the run reports a disabled view (non-zero exit).
    assert!(stdout.contains("Asia-Customer: DISABLED"), "{stdout}");
    assert!(!ok);
}

#[test]
fn sync_rename_is_transparent() {
    let (ok, stdout, _) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "rename-relation Tour -> Excursion",
    ]);
    assert!(ok);
    assert!(stdout.contains("Excursion.TourName"), "{stdout}");
}

#[test]
fn sync_reports_disabled_views_with_nonzero_exit() {
    // Deleting Addr first reroutes Asia-Customer through Person; deleting
    // Customer afterwards strands Person from FlightRes — incurable.
    let (ok, stdout, stderr) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "delete-attribute Customer.Addr",
        "--change",
        "delete-relation Customer",
    ]);
    assert!(!ok);
    assert!(stdout.contains("DISABLED"), "{stdout}");
    assert!(stderr.contains("disabled"), "{stderr}");
}

#[test]
fn library_fixture_certified_rewrite() {
    let (ok, stdout, stderr) = cli(&[
        "sync",
        "--mkb",
        "fixtures/library.misd",
        "--views",
        "fixtures/library_views.esql",
        "--change",
        "delete-relation Book",
        "--explain",
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    // Cited-Books rerouted through Publication with the PC certificate.
    assert!(
        stdout.contains("Cited-Books: rewritten (V' ⊇ V"),
        "{stdout}"
    );
    assert!(stdout.contains("Publication.PubTitle"), "{stdout}");
    assert!(
        stdout.contains("satisfies the view-extent parameter"),
        "{stdout}"
    );
    assert!(stdout.contains("explanation for Cited-Books"), "{stdout}");
}

#[test]
fn snapshot_sync_infers_changes() {
    let (_, stdout, _) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--snapshot",
        "fixtures/travel_v2.misd",
    ]);
    assert!(
        stdout.contains("change: delete-relation Customer"),
        "{stdout}"
    );
    assert!(
        stdout.contains("change: add-relation CruiseLine"),
        "{stdout}"
    );
    assert!(
        stdout.contains("Customer-Passengers-Asia: rewritten"),
        "{stdout}"
    );
}

/// Pin the `--trace` phase-tree format: structure, span names, labels,
/// field values and sibling order are golden; only the timing column is
/// normalized (durations vary run to run). Runs sequentially via
/// `EVE_PARALLELISM=1` so span ordering is deterministic.
#[test]
fn trace_tree_format_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
        .args([
            "sync",
            "--mkb",
            "fixtures/travel.misd",
            "--views",
            "fixtures/travel_views.esql",
            "--change",
            "delete-relation Customer",
            "--trace",
        ])
        .env("EVE_PARALLELISM", "1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let tree_start = stdout.find("trace:\n").expect("trace section present") + "trace:\n".len();
    let tree_end = stdout.find("metrics:\n").expect("metrics section present");
    // Replace each line's right-aligned duration column with a fixed
    // token so the golden file pins everything except the timings.
    let normalized: String = stdout[tree_start..tree_end]
        .lines()
        .map(|line| {
            let structure = line
                .trim_end()
                .rsplit_once(char::is_whitespace)
                .map(|(s, _)| s);
            format!("{} <DUR>\n", structure.unwrap_or(line).trim_end())
        })
        .collect();

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tree.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &normalized).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p eve --test cli",
            golden.display()
        )
    });
    assert_eq!(
        expected, normalized,
        "trace tree drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// `--trace-out` writes one JSON object per line, covering spans for
/// every pipeline phase plus the final counter/histogram read-outs.
#[test]
fn trace_out_emits_jsonl_spans_and_metrics() {
    let dir = std::env::temp_dir().join(format!("eve-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
        .args([
            "sync",
            "--mkb",
            "fixtures/travel.misd",
            "--views",
            "fixtures/travel_views.esql",
            "--change",
            "delete-relation Customer",
            "--trace-out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "run reports the disabled view");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_dir_all(&dir).ok();
    let mut span_names = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    let mut gauge_names = Vec::new();
    for line in text.lines() {
        // Every line is a JSON object with "type" and "name" keys.
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let field = |key: &str| {
            let tag = format!("\"{key}\":\"");
            line.split_once(tag.as_str())
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(v, _)| v.to_string())
        };
        let name = field("name").expect("line has a name");
        match field("type").expect("line has a type").as_str() {
            "span" => {
                assert!(line.contains("\"dur_ns\":"), "{line}");
                span_names.push(name);
            }
            "counter" => {
                let value = line
                    .split_once("\"value\":")
                    .and_then(|(_, rest)| rest.trim_end_matches('}').parse::<u64>().ok())
                    .expect("counter line has an integer value");
                counters.insert(name, value);
            }
            "gauge" => gauge_names.push(name),
            "histogram" => {}
            other => panic!("unexpected record type {other}: {line}"),
        }
    }
    for phase in [
        "apply",
        "view-sync",
        "index-from-cores",
        "tree-enumeration",
        "ranking",
    ] {
        assert!(
            span_names.iter().any(|n| n == phase),
            "no {phase} span in {span_names:?}"
        );
    }
    // The CLI runs in its own process, so these counters see exactly
    // this one change: one delta-built index, at least one candidate
    // searched, and memo traffic.
    let counter = |n: &str| counters.get(n).copied();
    assert_eq!(counter("sync.changes"), Some(1), "{counters:?}");
    assert_eq!(counter("index.delta_builds"), Some(1), "{counters:?}");
    assert_eq!(counter("index.delta_applies"), Some(1), "{counters:?}");
    assert!(
        counter("search.candidates_generated").unwrap_or(0) > 0,
        "{counters:?}"
    );
    let hits = counter("index.cache.hits").expect("cache hits counter present");
    assert!(
        hits + counter("index.cache.misses").unwrap_or(0) > 0,
        "{counters:?}"
    );
    assert!(gauge_names.iter().any(|n| n == "sync.views_active"));
}

#[test]
fn history_renders_version_chain_with_deltas() {
    let (ok, stdout, stderr) = cli(&[
        "history",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "delete-attribute Customer.Addr",
        "--change",
        "delete-relation Customer",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("version chain (head v2):"), "{stdout}");
    assert!(stdout.contains("v0: initial (8 relations"), "{stdout}");
    assert!(
        stdout.contains("v1: delete-attribute Customer.Addr"),
        "{stdout}"
    );
    assert!(stdout.contains("v2: delete-relation Customer"), "{stdout}");
    // Every non-initial version carries an incremental-maintenance delta
    // summary (the index is delta-maintained by default).
    assert!(stdout.contains("delta delete-attribute:"), "{stdout}");
    assert!(stdout.contains("delta delete-relation:"), "{stdout}");
    assert!(stdout.contains("join(s)"), "{stdout}");
}

#[test]
fn history_requires_a_change() {
    let (ok, _, stderr) = cli(&[
        "history",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--change"), "{stderr}");
}

#[test]
fn sync_at_version_time_travels() {
    // After deleting Addr then Customer, version 1 still has the
    // Addr-less rewriting of Asia-Customer routed through Person.
    let (_, stdout, _) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "delete-attribute Customer.Addr",
        "--change",
        "delete-relation Customer",
        "--at-version",
        "1",
    ]);
    assert!(
        stdout.contains("views at version 1 (after delete-attribute Customer.Addr):"),
        "{stdout}"
    );
    assert!(stdout.contains("Person.PAddr"), "{stdout}");
    // The final state (Customer deleted) is not what gets printed.
    assert!(!stdout.contains("surviving views:"), "{stdout}");
}

#[test]
fn sync_at_version_zero_is_initial_state() {
    let (ok, stdout, _) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "rename-relation Tour -> Excursion",
        "--at-version",
        "0",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("views at version 0 (initial state):"),
        "{stdout}"
    );
    assert!(stdout.contains("Tour.TourName"), "{stdout}");
    assert!(!stdout.contains("Excursion.TourName"), "{stdout}");
}

#[test]
fn sync_at_version_out_of_range_rejected() {
    let (ok, _, stderr) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "rename-relation Tour -> Excursion",
        "--at-version",
        "9",
    ]);
    assert!(!ok);
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn bad_change_rejected() {
    let (ok, _, stderr) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        "fixtures/travel_views.esql",
        "--change",
        "obliterate-everything Now",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--change"), "{stderr}");
}

/// Two views named `V` are rejected before any change runs, with the
/// message runtime registration gives, instead of both being
/// synchronized and listed.
#[test]
fn sync_rejects_duplicate_view_names() {
    let dir = std::env::temp_dir().join(format!("eve-cli-dup-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let views = dir.join("views.esql");
    std::fs::write(
        &views,
        "CREATE VIEW V AS SELECT C.Name, C.Age FROM Customer C;\n\
         CREATE VIEW V AS SELECT T.TourID, T.TourName FROM Tour T;\n",
    )
    .expect("write views");
    let (ok, stdout, stderr) = cli(&[
        "sync",
        "--mkb",
        "fixtures/travel.misd",
        "--views",
        views.to_str().expect("utf-8 temp path"),
        "--change",
        "delete-relation Customer",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ok);
    assert!(
        stderr.contains("error: view V: view name already registered: V"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "nothing is synchronized: {stdout}");
}

/// A script can tell rejected input (exit 2) from a run that disabled
/// a view (exit 1).
#[test]
fn exit_codes_tell_bad_input_from_a_disabled_view() {
    let code = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("binary runs");
        out.status.code()
    };
    let dir = std::env::temp_dir().join(format!("eve-cli-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dup = dir.join("views.esql");
    let text = "CREATE VIEW V AS SELECT C.Name FROM Customer C;\n\
                CREATE VIEW V AS SELECT T.TourID FROM Tour T;\n";
    std::fs::write(&dup, text).expect("write views");
    let dup = dup.to_str().expect("utf-8 temp path");
    let (mkb, views, del) = (
        "fixtures/travel.misd",
        "fixtures/travel_views.esql",
        "delete-relation Customer",
    );
    for (want, mkb, views, change, more) in [
        (1, mkb, views, del, [].as_slice()),
        (2, mkb, views, "delete-relation", &[]),
        (2, mkb, views, "delete-relation Nowhere", &[]),
        (2, mkb, views, del, &["--at-version", "x"]),
        (2, "no-such-file.misd", views, del, &[]),
        (2, mkb, dup, del, &[]),
    ] {
        let mut args = vec!["sync", "--mkb", mkb, "--views", views, "--change", change];
        args.extend_from_slice(more);
        assert_eq!(code(&args), Some(want), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code(&["simulate", "--steps", "many"]), Some(2));
}

#[test]
fn missing_file_rejected() {
    let (ok, _, stderr) = cli(&["mkb", "no-such-file.misd"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn usage_on_no_args() {
    let (ok, _, stderr) = cli(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

/// A pinned-seed injected `SyncPanic` leaves a flight-recorder dump
/// that is byte-identical across reruns and worker counts.
#[test]
fn flight_recorder_dump_is_deterministic_across_workers() {
    let dir = std::env::temp_dir().join(format!("eve-cli-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |parallelism: &str, dump: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
            .args([
                "sync",
                "--mkb",
                "fixtures/travel.misd",
                "--views",
                "fixtures/travel_views.esql",
                "--change",
                "delete-relation Customer",
                "--faults",
                "seed=7;view.sync#0=panic",
                "--fail-fast",
                "--flight-recorder",
                dump.to_str().expect("utf-8 temp path"),
            ])
            .env("EVE_PARALLELISM", parallelism)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("binary runs");
        assert!(
            !out.status.success(),
            "fail-fast run aborts on the SyncPanic"
        );
        std::fs::read_to_string(dump).expect("flight dump written")
    };
    let d1 = run("1", &dir.join("d1.jsonl"));
    let d2 = run("4", &dir.join("d2.jsonl"));
    let d3 = run("1", &dir.join("d3.jsonl"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(d1, d2, "dump differs across worker counts");
    assert_eq!(d1, d3, "dump differs across reruns");
    let header = d1.lines().next().expect("dump has a header");
    assert!(header.contains("\"type\":\"flight-dump\""), "{header}");
    assert!(header.contains("\"reason\":\"sync-panic\""), "{header}");
    assert!(header.contains("\"dropped\":0"), "{header}");
    assert!(d1.contains("\"type\":\"fault\""), "{d1}");
    assert!(d1.contains("\"kind\":\"panic\""), "{d1}");
    // canonical dump carries no scheduling-dependent timing
    assert!(!d1.contains("dur_ns"), "{d1}");
}

/// `metrics-serve` exposes `/metrics`, `/snapshot`, and `/health` over
/// plain HTTP after running the fixture workload.
#[test]
fn metrics_serve_answers_scrapes() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    let mut child = Command::new(env!("CARGO_BIN_EXE_eve-cli"))
        .args([
            "metrics-serve",
            "--addr",
            "127.0.0.1:0",
            "--requests",
            "3",
            "--mkb",
            "fixtures/travel.misd",
            "--views",
            "fixtures/travel_views.esql",
            "--change",
            "delete-attribute Customer.Addr",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("listening line");
    let addr = line
        .trim()
        .rsplit_once("http://")
        .map(|(_, a)| a.to_string())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    let get = |path: &str| {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let health = get("/health");
    let metrics = get("/metrics");
    let snapshot = get("/snapshot");
    assert!(child.wait().expect("child exits").success());
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(
        metrics.contains("# TYPE eve_sync_changes_total counter"),
        "{metrics}"
    );
    assert!(metrics.contains("eve_sync_changes_total 1"), "{metrics}");
    assert!(
        metrics.contains("# TYPE eve_sync_views_active gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("eve_span_apply_ns_bucket{le=\"+Inf\"} 1"),
        "{metrics}"
    );
    let body = snapshot.split("\r\n\r\n").nth(1).expect("snapshot body");
    assert!(body.starts_with("{\"counters\":{"), "{body}");
    assert!(body.contains("\"gauges\":{"), "{body}");
    assert!(body.contains("\"sync.changes\":1"), "{body}");
}

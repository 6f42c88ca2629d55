//! The experiment driver: regenerates every figure, table and worked
//! example of the CVS paper, plus the quantitative sweeps.
//!
//! ```text
//! cargo run -p eve-bench --bin experiments -- <id> [--out DIR]
//!
//! ids: fig1 fig2 fig3 fig4 ex3 ex4 ex5_10
//!      sweep-chain sweep-scale sweep-covers sweep-extent
//!      sweep-lifecycle cost-rank all
//! ```
//!
//! With `--out DIR` (default `results/`), reports are also written to
//! `<DIR>/<id>.txt` and the Fig. 4 DOT files to `<DIR>/fig4*.dot`.

use eve_bench::{cost_rank, examples, figures, sweeps};
use std::io::Write;
use std::path::{Path, PathBuf};

const IDS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "ex3",
    "ex4",
    "ex5_10",
    "sweep-chain",
    "sweep-scale",
    "sweep-covers",
    "sweep-extent",
    "sweep-lifecycle",
    "cost-rank",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).map(String::as_str).unwrap_or("results"));
            }
            "--quick" => quick = true,
            "all" => selected.extend(IDS.iter().map(|s| s.to_string())),
            id if IDS.contains(&id) => selected.push(id.to_string()),
            other => {
                eprintln!("unknown experiment `{other}`; known: {} all", IDS.join(" "));
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        eprintln!("usage: experiments <id>... | all  [--out DIR] [--quick]");
        eprintln!("ids: {} all", IDS.join(" "));
        std::process::exit(2);
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for id in selected {
        let report = run(&id, quick, &out_dir);
        println!("{report}");
        println!("{}", "=".repeat(72));
        write_out(&out_dir, &format!("{id}.txt"), &report);
    }
}

fn run(id: &str, quick: bool, out_dir: &Path) -> String {
    match id {
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(),
        "fig3" => figures::fig3(),
        "fig4" => {
            let f = figures::fig4();
            write_out(out_dir, "fig4_h.dot", &f.dot_h);
            write_out(out_dir, "fig4_h_prime.dot", &f.dot_h_prime);
            format!(
                "{}\n(DOT written to {}/fig4_h.dot and fig4_h_prime.dot)\n",
                f.summary,
                out_dir.display()
            )
        }
        "ex3" => examples::ex3(),
        "ex4" => examples::ex4(),
        "ex5_10" => examples::ex5_10(),
        "sweep-chain" => sweeps::render_chain(&sweeps::sweep_chain(if quick { 4 } else { 8 })),
        "sweep-scale" => {
            let sizes: &[usize] = if quick {
                &[10, 50]
            } else {
                &[10, 50, 100, 200, 500, 1000]
            };
            sweeps::render_scale(&sweeps::sweep_scale(sizes, if quick { 3 } else { 10 }))
        }
        "sweep-covers" => sweeps::render_covers(&sweeps::sweep_covers(
            if quick { 4 } else { 8 },
            if quick { 5 } else { 25 },
        )),
        "sweep-extent" => sweeps::render_extent(&sweeps::sweep_extent(if quick { 5 } else { 50 })),
        "sweep-lifecycle" => {
            sweeps::render_lifecycle(&sweeps::sweep_lifecycle(if quick { 5 } else { 30 }, 6))
        }
        "cost-rank" => cost_rank::cost_rank(),
        other => unreachable!("id {other} validated in main"),
    }
}

fn write_out(dir: &Path, file: &str, content: &str) {
    let path = dir.join(file);
    let mut f = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(content.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

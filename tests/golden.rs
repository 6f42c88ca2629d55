//! Snapshot tests: the deterministic experiment reports are pinned as
//! golden files under `tests/golden/`. Any behavioural drift in the
//! paper reproductions shows up as a diff here.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p eve --test golden
//! ```

use eve_bench::{cost_rank, examples, figures};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p eve --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_fig1() {
    check("fig1", &figures::fig1());
}

#[test]
fn golden_fig2() {
    check("fig2", &figures::fig2());
}

#[test]
fn golden_fig3() {
    check("fig3", &figures::fig3());
}

#[test]
fn golden_fig4_summary() {
    check("fig4_summary", &figures::fig4().summary);
}

#[test]
fn golden_fig4_dot() {
    check("fig4_h", &figures::fig4().dot_h);
}

#[test]
fn golden_ex3() {
    check("ex3", &examples::ex3());
}

#[test]
fn golden_ex4() {
    check("ex4", &examples::ex4());
}

#[test]
fn golden_ex5_10() {
    check("ex5_10", &examples::ex5_10());
}

#[test]
fn golden_cost_rank() {
    check("cost_rank", &cost_rank::cost_rank());
}

#[test]
fn golden_sweep_chain() {
    check(
        "sweep_chain_d6",
        &eve_bench::sweeps::render_chain(&eve_bench::sweeps::sweep_chain(6)),
    );
}

#[test]
fn golden_sweep_extent() {
    check(
        "sweep_extent_s5",
        &eve_bench::sweeps::render_extent(&eve_bench::sweeps::sweep_extent(5)),
    );
}

#[test]
fn golden_sweep_covers() {
    check(
        "sweep_covers_c4",
        &eve_bench::sweeps::render_covers(&eve_bench::sweeps::sweep_covers(4, 5)),
    );
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One line per (case, options): the search's [`eve::cvs::SearchStats`]
/// (or its error) and an FNV-1a digest of every rewriting it returned,
/// in order — verdict, relation set, join ids and rendered view.
fn search_lines(
    out: &mut String,
    id: &str,
    view: &eve::esql::ViewDefinition,
    target: &eve::relational::RelName,
    mkb: &eve::misd::MetaKnowledgeBase,
) {
    use eve::cvs::{cvs_delete_relation_searched, CvsOptions, MkbIndex, SearchBudget};
    use eve::misd::{evolve, CapabilityChange};
    use std::fmt::Write as _;

    let mkb2 = evolve(mkb, &CapabilityChange::DeleteRelation(target.clone())).expect("evolves");
    let top1 = CvsOptions {
        budget: SearchBudget::top_k(1),
        ..CvsOptions::default()
    };
    for (label, opts, require_p3) in [
        ("default", CvsOptions::default(), false),
        ("top1", top1, false),
        ("p3", CvsOptions::default(), true),
    ] {
        let index = MkbIndex::new(mkb, &mkb2, &opts);
        let _ = write!(out, "{id} {label}: ");
        match cvs_delete_relation_searched(view, target, &index, &opts, require_p3, None) {
            Err(e) => {
                let _ = writeln!(out, "error {e}");
            }
            Ok(res) => {
                let mut hash = 0xcbf2_9ce4_8422_2325;
                for lr in &res.rewritings {
                    let rels: Vec<&str> = lr
                        .replacement
                        .relations
                        .iter()
                        .map(|r| r.as_str())
                        .collect();
                    let joins: Vec<&str> =
                        lr.replacement.joins.iter().map(|j| j.id.as_str()).collect();
                    let entry = format!(
                        "{}|{}|{}|{}\n",
                        lr.verdict,
                        rels.join(","),
                        joins.join(","),
                        lr.view.rendered()
                    );
                    hash = fnv1a(hash, entry.as_bytes());
                }
                let _ = writeln!(
                    out,
                    "{:?} rewritings={} digest={hash:016x}",
                    res.stats,
                    res.rewritings.len()
                );
            }
        }
    }
}

/// The rewriting search's full ordered output, pinned: every relation
/// of the travel fixture deleted under its views (constant selections,
/// and `JC2` carries `Customer.Age > 1`), the wide MKB (several trees
/// per cover combination), and random MKBs of four topologies with
/// fan-out views of 3 and 4 relations, each also with a constant
/// selection on a non-target relation. Every case runs under the
/// default options, `top_k = 1` and `require_p3`.
#[test]
fn golden_search_outputs() {
    use eve::esql::{parse_views, CondItem, EvolutionParams};
    use eve::misd::parse_misd;
    use eve::relational::{Clause, CompareOp, ScalarExpr, Value};
    use eve::workload::{views_touching, SynthConfig, SynthWorkload, Topology};

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let read = |f: &str| std::fs::read_to_string(root.join(f)).expect("fixture readable");
    let mut out = String::new();

    let travel = parse_misd(&read("fixtures/travel.misd")).expect("travel MKB parses");
    let travel_views = parse_views(&read("fixtures/travel_views.esql")).expect("views parse");
    for target in travel.relation_names() {
        for view in travel_views.iter().filter(|v| v.uses_relation(target)) {
            let id = format!("travel/{target}/{}", view.name);
            search_lines(&mut out, &id, view, target, &travel);
        }
    }

    let wide = SynthWorkload::wide_mkb(4, 3);
    search_lines(&mut out, "wide_4_3", &wide.view, &wide.target, &wide.mkb);

    for (name, topology) in [
        ("chain", Topology::Chain),
        ("star", Topology::Star),
        ("ring", Topology::Ring),
        ("random8", Topology::Random { extra: 8 }),
    ] {
        let cfg = SynthConfig {
            n_relations: 12,
            topology,
            ..SynthConfig::default()
        };
        for seed in 1..=3u64 {
            let w = SynthWorkload::random(&cfg, seed);
            // The generated view has `VE = superset`, so `require_p3`
            // filters it; the fan-out views are `VE = any`.
            search_lines(
                &mut out,
                &format!("{name}/s{seed}/view"),
                &w.view,
                &w.target,
                &w.mkb,
            );
            for width in [3, 4] {
                for view in views_touching(&w.mkb, &w.target, 2, width, seed) {
                    let id = format!("{name}/s{seed}/w{width}/{}", view.name);
                    search_lines(&mut out, &id, &view, &w.target, &w.mkb);
                    let Some(other) = view.relations().into_iter().find(|r| *r != w.target) else {
                        continue;
                    };
                    let mut selected = view.clone();
                    selected.conditions.push(CondItem {
                        clause: Clause::new(
                            ScalarExpr::attr(other, "k"),
                            CompareOp::Gt,
                            ScalarExpr::Const(Value::Int(2)),
                        ),
                        params: EvolutionParams::new(false, true),
                    });
                    search_lines(&mut out, &format!("{id}+sel"), &selected, &w.target, &w.mkb);
                }
            }
        }
    }
    check("search_outputs", &out);
}

/// The administrator-facing explanation of a chosen rewriting including
/// the search summary ([`eve::cvs::SearchStats`]) from the engine — pins
/// both the narrative and the candidates-generated/pruned/kept counters
/// the streaming search reports.
#[test]
fn golden_explain_with_search_stats() {
    use eve::cvs::{explain_rewriting_with_stats, CvsOptions, SynchronizerBuilder, ViewOutcome};
    use eve::esql::parse_view;
    use eve::misd::CapabilityChange;
    use eve::relational::RelName;
    use eve::workload::TravelFixture;

    let fixture = TravelFixture::new();
    let view = parse_view(
        "CREATE VIEW Customer-Passengers-Asia AS
         SELECT C.Name (false, true), C.Age (true, true), F.PName (true, true),
                P.Participant (true, true), P.TourID (true, true)
         FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
         WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia') (CD = true)
           AND (P.StartDate = F.Date) (CD = true) AND (P.Loc = 'Asia') (CD = true)",
    )
    .expect("view parses");
    let original = view.clone();
    let mut sync = SynchronizerBuilder::new(fixture.mkb().clone())
        .with_options(CvsOptions::default())
        .with_view(view)
        .unwrap_or_else(|e| panic!("{e}"))
        .build();
    let outcome = sync
        .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
        .expect("MKB evolves");
    let (_, view_outcome) = &outcome.views[0];
    let ViewOutcome::Rewritten { chosen, stats, .. } = view_outcome else {
        panic!("expected rewriting, got {view_outcome:?}");
    };
    check(
        "explain_search_stats",
        &explain_rewriting_with_stats(&original, chosen, Some(stats)),
    );
}

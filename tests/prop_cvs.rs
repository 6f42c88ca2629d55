//! Property-based tests of the CVS pipeline's invariants over synthetic
//! workloads: every produced rewriting is *legal* (Def. 1), prints to
//! valid E-SQL, and its symbolic extent verdict never contradicts the
//! empirically observed extent.

use eve::cvs::{
    cvs_delete_relation_indexed, empirical_extent, r_mapping_with_index,
    svs_delete_relation_indexed, CvsError, CvsOptions, ExtentVerdict, LegalRewriting, MkbIndex,
};
use eve::esql::{parse_view, ViewDefinition};
use eve::misd::{evolve, JoinConstraint, MetaKnowledgeBase};
use eve::relational::{FuncRegistry, RelName};
use eve::workload::{views_touching, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;
use std::sync::Arc;

/// Run CVS delete-relation the way [`eve::cvs::Synchronizer::apply`]
/// does: build one [`MkbIndex`] for the change, then synchronize.
fn cvs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let index = MkbIndex::new(mkb, mkb_prime, opts);
    cvs_delete_relation_indexed(view, target, &index, opts)
}

/// The SVS baseline over a fresh per-change index.
fn svs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let opts = CvsOptions::default();
    let index = MkbIndex::new(mkb, mkb_prime, &opts);
    svs_delete_relation_indexed(view, target, &index, &opts)
}

fn config() -> impl Strategy<Value = SynthConfig> {
    (
        4usize..24,
        prop_oneof![
            Just(Topology::Chain),
            Just(Topology::Star),
            Just(Topology::Ring),
            (0usize..12).prop_map(|extra| Topology::Random { extra }),
        ],
        1usize..4,
        0.0f64..=1.0,
        2usize..4,
    )
        .prop_map(
            |(n_relations, topology, cover_count, pc_fraction, view_relations)| SynthConfig {
                n_relations,
                topology,
                cover_count,
                pc_fraction,
                view_relations,
                ..SynthConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Def. 1 legality (P1, P2, P4) holds for every rewriting CVS emits,
    /// on every workload where it succeeds.
    #[test]
    fn rewritings_are_legal(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let change = w.delete_change();
        let mkb2 = evolve(&w.mkb, &change).expect("target described");
        let Ok(rewritings) =
            cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default())
        else {
            return Ok(()); // some random MKBs are genuinely incurable
        };
        prop_assert!(!rewritings.is_empty());
        for r in &rewritings {
            prop_assert!(r.check_p1(&change), "P1 violated:\n{}", r.view);
            prop_assert!(r.check_p2(&mkb2), "P2 violated:\n{}", r.view);
            prop_assert!(r.check_p4(&w.view), "P4 violated:\n{}", r.view);
            // Def. 3 (II): the target never reappears.
            prop_assert!(!r.view.uses_relation(&w.target));
            // The WHERE clause is consistent.
            prop_assert!(r.view.where_conjunction().is_consistent());
            // The output is valid E-SQL text.
            let printed = r.view.to_string();
            parse_view(&printed)
                .unwrap_or_else(|e| panic!("unparseable rewriting: {e}\n{printed}"));
        }
    }

    /// SVS (one-step-away) never succeeds where CVS fails, and any SVS
    /// rewriting is also in spirit a CVS rewriting (CVS finds at least as
    /// many candidates).
    #[test]
    fn cvs_dominates_svs(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let cvs = cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
        let svs = svs_dr(&w.view, &w.target, &w.mkb, &mkb2);
        if let Ok(svs_rw) = &svs {
            let cvs_rw = cvs.as_ref().unwrap_or_else(|e| {
                panic!("SVS succeeded but CVS failed ({e})")
            });
            prop_assert!(cvs_rw.len() >= svs_rw.len());
        }
    }

    /// The symbolic extent verdict is sound: a certified relationship is
    /// observed empirically on constraint-respecting states.
    #[test]
    fn extent_verdicts_sound(seed in 0u64..500, distance in 1usize..4, with_pc in any::<bool>()) {
        let w = SynthWorkload::chain(distance, with_pc);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let Ok(rewritings) =
            cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default())
        else {
            return Ok(());
        };
        let funcs = FuncRegistry::new();
        let db = w.database(seed, 40, 0.6);
        for r in rewritings.iter().take(2) {
            let observed = empirical_extent(&r.view, &w.view, &db, &funcs)
                .expect("both views evaluate");
            let ok = match r.verdict {
                ExtentVerdict::Equivalent => observed.is_equivalent(),
                ExtentVerdict::Superset => observed.is_superset(),
                ExtentVerdict::Subset => observed.is_subset(),
                ExtentVerdict::Unknown => true,
            };
            prop_assert!(
                ok,
                "verdict {} contradicted by observation {} (seed {seed}, d {distance}):\n{}",
                r.verdict, observed, r.view
            );
        }
    }

    /// Determinism: the same workload always yields the same rewritings
    /// in the same order.
    #[test]
    fn cvs_is_deterministic(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let a = cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
        let b = cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
        match (a, b) {
            (Ok(x), Ok(y)) => {
                let xs: Vec<String> = x.iter().map(|r| r.view.to_string()).collect();
                let ys: Vec<String> = y.iter().map(|r| r.view.to_string()).collect();
                prop_assert_eq!(xs, ys);
            }
            (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
            (x, y) => prop_assert!(false, "nondeterministic outcome: {x:?} vs {y:?}"),
        }
    }

    /// The search shares the MKB's join constraints and never copies
    /// one: every join of `Min(H_R)` and of every rewriting's
    /// replacement is an `Arc` the old MKB holds. Tree joins come from
    /// `H'(MKB')`, and MKB' shares every join the change left alone.
    #[test]
    fn rewritings_share_the_mkb_join_constraints(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let shared = |j: &Arc<JoinConstraint>| w.mkb.joins().iter().any(|m| Arc::ptr_eq(m, j));
        for view in views_touching(&w.mkb, &w.target, 8, cfg.view_relations, seed) {
            let rm = r_mapping_with_index(&view, &w.target, &index, &opts);
            for j in &rm.min_joins {
                prop_assert!(shared(j), "{}: Min(H_R) join {} is a copy", view.name, j.id);
            }
            let Ok(rewritings) = cvs_delete_relation_indexed(&view, &w.target, &index, &opts)
            else {
                continue;
            };
            for r in &rewritings {
                for j in &r.replacement.joins {
                    prop_assert!(shared(j), "{}: join {} is a copy:\n{}", view.name, j.id, r.view);
                }
            }
        }
    }
}

/// An independent reimplementation of the Def. 1–3 curability predicate,
/// written directly from the paper (not sharing code with the CVS
/// pipeline): a view is curable under `delete-relation R` iff
///
/// * no indispensable, non-replaceable component references `R`;
/// * every attribute of `R` used by an indispensable (replaceable)
///   component has a cover whose source survives; and
/// * the surviving `Min` relations plus one choice of covers are
///   mutually connected in `H'(MKB')`.
mod oracle {
    use eve::esql::ViewDefinition;
    use eve::hypergraph::Hypergraph;
    use eve::misd::MetaKnowledgeBase;
    use eve::relational::{AttrRef, RelName};
    use std::collections::{BTreeMap, BTreeSet};

    pub fn curable(
        view: &ViewDefinition,
        target: &RelName,
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
    ) -> bool {
        // Classify target attributes per component annotations.
        let mut required: BTreeSet<AttrRef> = BTreeSet::new();
        for item in &view.select {
            for a in item
                .expr
                .attrs()
                .into_iter()
                .filter(|a| &a.relation == target)
            {
                if !item.params.dispensable && !item.params.replaceable {
                    return false; // frozen
                }
                if !item.params.dispensable {
                    required.insert(a);
                }
            }
        }
        for cond in &view.conditions {
            for a in cond
                .clause
                .attrs()
                .into_iter()
                .filter(|a| &a.relation == target)
            {
                if !cond.params.dispensable && !cond.params.replaceable {
                    return false;
                }
                if !cond.params.dispensable {
                    required.insert(a);
                }
            }
        }

        let h_prime = Hypergraph::build(mkb_prime);
        // Covers per required attribute (usable sources only).
        let mut options: BTreeMap<AttrRef, Vec<RelName>> = BTreeMap::new();
        for a in &required {
            let sources: Vec<RelName> = mkb
                .covers_of(a)
                .filter_map(|f| f.source_relation())
                .filter(|s| s != target && h_prime.contains(s))
                .collect();
            if sources.is_empty() {
                return false;
            }
            options.insert(a.clone(), sources);
        }

        // Survivors of Min(H_R): recompute via the public R-mapping.
        let opts = eve::cvs::CvsOptions::default();
        let index = eve::cvs::MkbIndex::new(mkb, mkb, &opts);
        let rm = eve::cvs::r_mapping_with_index(view, target, &index, &opts);
        let survivors = rm.surviving_relations();

        // Some combination of covers must connect with the survivors.
        // (Cartesian search; the generated MKBs keep this tiny.)
        fn search(
            h: &Hypergraph,
            base: &BTreeSet<RelName>,
            attrs: &[(&AttrRef, &Vec<RelName>)],
        ) -> bool {
            match attrs.split_first() {
                None => {
                    if base.is_empty() {
                        return true;
                    }
                    h.is_connected_set(base)
                }
                Some(((_, sources), rest)) => sources.iter().any(|s| {
                    let mut next = base.clone();
                    next.insert(s.clone());
                    search(h, &next, rest)
                }),
            }
        }
        let attrs: Vec<(&AttrRef, &Vec<RelName>)> = options.iter().collect();
        search(&h_prime, &survivors, &attrs)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CVS succeeds exactly when the independently implemented paper
    /// predicate says a legal rewriting exists.
    #[test]
    fn cvs_matches_independent_oracle(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let expected = oracle::curable(&w.view, &w.target, &w.mkb, &mkb2);
        let got = cvs_dr(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
        prop_assert_eq!(
            got.is_ok(),
            expected,
            "oracle disagrees with CVS: {:?}",
            got.err().map(|e| e.to_string())
        );
    }
}

//! Property-based equivalence of incremental index maintenance and
//! from-scratch rebuilds.
//!
//! The contract of `IndexCore::apply_delta` + `MkbIndex::from_cores` is
//! *rebuild equivalence*: a synchronizer that maintains its index by
//! typed deltas (the default `IndexMaintenance::Incremental`) must
//! produce **byte-identical outcomes** — rewritings, search statistics,
//! disabled sets, evolved MKBs — to one that rebuilds the index from
//! scratch on every change (`IndexMaintenance::Rebuild`, whose index
//! path is the original `MkbIndex::new`). The streams come from
//! [`eve::workload::change_stream`], which mixes all six capability
//! change operators, and equivalence is asserted after **every prefix**
//! of the stream, not just at the end.
//!
//! The version chain rides the same harness: `at_version(v)` on the
//! delta-maintained synchronizer must reproduce exactly the state the
//! rebuild-mode synchronizer passed through at prefix `v`.
//!
//! The cores keep each graph as one shard per connected component. The
//! shards are checked against an oracle that does not go through the
//! shard builder: after every change, each shard of the delta-maintained
//! `H` and join graph equals the component a whole-graph build of the
//! evolved MKB gives its relations, and no other shard is left. The
//! index must also serve every relation's component of the pre-change
//! `H(MKB)`.
//!
//! The synthetic MKBs declare every relation join-capable, so each
//! property also runs on MKBs re-declared with every k-th relation NOJOIN,
//! with NOJOIN add-relations interleaved in the streams
//! (`support::with_nojoin`, `support::stream_with_nojoin_adds`).

mod support;

use eve::cvs::{
    CvsOptions, IndexCore, IndexMaintenance, MkbDelta, MkbIndex, ShardedGraph, Synchronizer,
    SynchronizerBuilder,
};
use eve::hypergraph::Hypergraph;
use eve::misd::chunkmap::CHUNK;
use eve::misd::{evolve, CapabilityChange, MetaKnowledgeBase};
use eve::workload::{change_stream, random_views, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;
use support::{stream_with_nojoin_adds, with_nojoin};

fn build(mkb: &MetaKnowledgeBase, mode: IndexMaintenance, seed: u64) -> Synchronizer {
    let mut b = SynchronizerBuilder::new(mkb.clone()).with_options(CvsOptions {
        index_maintenance: mode,
        ..CvsOptions::default()
    });
    for v in random_views(mkb, 3, 3, seed) {
        b = b.with_view(v).expect("synthetic view is valid");
    }
    b.build()
}

/// Observable synchronizer state, for prefix-by-prefix comparison.
fn observe(s: &Synchronizer) -> (MetaKnowledgeBase, Vec<String>, Vec<String>) {
    (
        s.mkb().clone(),
        s.views().map(|v| v.to_string()).collect(),
        s.disabled_views().map(|(n, _)| n.to_string()).collect(),
    )
}

fn config() -> impl Strategy<Value = SynthConfig> {
    sized_config(6usize..14)
}

/// Federations of 4–8 map chunks, so the MKB's relation map and the
/// hypergraph interners split into several chunks.
fn multi_chunk_config() -> impl Strategy<Value = SynthConfig> {
    sized_config(4 * CHUNK..8 * CHUNK + 1)
}

fn sized_config(n_relations: std::ops::Range<usize>) -> impl Strategy<Value = SynthConfig> {
    (
        n_relations,
        prop_oneof![
            Just(Topology::Chain),
            Just(Topology::Ring),
            (0usize..8).prop_map(|extra| Topology::Random { extra }),
            (3usize..7, 0usize..3).prop_map(|(size, extra)| Topology::Clusters { size, extra }),
        ],
        1usize..4,
        // Covers on the target only, or on about half of all relations,
        // so streams delete and rename cover sources, targets and PC
        // sides all over the MKB.
        prop_oneof![Just(0.0), Just(0.5)],
    )
        .prop_map(
            |(n_relations, topology, cover_count, global_cover_prob)| SynthConfig {
                n_relations,
                topology,
                cover_count,
                view_relations: 3,
                global_cover_prob,
                ..SynthConfig::default()
            },
        )
}

/// A random workload's MKB and a change stream over it; with `nojoin`
/// `Some(k)`, the MKB has every k-th relation NOJOIN and the stream adds
/// NOJOIN relations.
fn inputs(
    cfg: &SynthConfig,
    seed: u64,
    len: usize,
    nojoin: Option<usize>,
) -> (MetaKnowledgeBase, Vec<CapabilityChange>) {
    let w = SynthWorkload::random(cfg, seed);
    match nojoin {
        None => {
            let stream = change_stream(&w.mkb, len, seed);
            (w.mkb, stream)
        }
        Some(k) => {
            let mkb = with_nojoin(&w.mkb, k);
            let stream = stream_with_nojoin_adds(&mkb, len, seed);
            (mkb, stream)
        }
    }
}

/// After every prefix of a random change stream, both index maintenance
/// modes agree on the full `ChangeOutcome` (rewritings, per-view search
/// stats, disabled sets) and on the evolved state.
fn check_modes_agree(
    cfg: &SynthConfig,
    seed: u64,
    len: usize,
    nojoin: Option<usize>,
) -> Result<(), TestCaseError> {
    let (mkb, stream) = inputs(cfg, seed, len, nojoin);
    let mut rebuild = build(&mkb, IndexMaintenance::Rebuild, seed);
    let mut inc = build(&mkb, IndexMaintenance::Incremental, seed);
    for (i, c) in stream.iter().enumerate() {
        let a = rebuild.apply(c);
        let b = inc.apply(c);
        prop_assert!(a.is_ok(), "prefix {i} ({c}): rebuild rejected: {a:?}");
        let (a, b) = (a.unwrap(), b.unwrap());
        // ChangeOutcome equality covers every view's outcome,
        // including byte-identical SearchStats (cache counters are
        // deliberately excluded from its PartialEq).
        prop_assert_eq!(&a, &b, "prefix {} ({}): incremental diverged", i, c);
        prop_assert_eq!(
            observe(&rebuild),
            observe(&inc),
            "prefix {} ({}): state diverged",
            i,
            c
        );
    }
    Ok(())
}

/// `at_version(v)` on the delta-maintained synchronizer reproduces, for
/// every `v`, exactly the state an independent rebuild-mode synchronizer
/// passed through after the same `v`-change prefix.
fn check_history(cfg: &SynthConfig, seed: u64, len: usize) -> Result<(), TestCaseError> {
    let w = SynthWorkload::random(cfg, seed);
    let stream = change_stream(&w.mkb, len, seed);
    let mut rebuild = build(&w.mkb, IndexMaintenance::Rebuild, seed);
    let mut inc = build(&w.mkb, IndexMaintenance::Incremental, seed);
    let mut trail = vec![observe(&rebuild)];
    for c in &stream {
        rebuild.apply(c).expect("stream change applies");
        inc.apply(c).expect("stream change applies");
        trail.push(observe(&rebuild));
    }
    prop_assert_eq!(inc.version(), stream.len());
    for (v, expected) in trail.iter().enumerate() {
        let fork = inc.at_version(v).expect("recorded version");
        prop_assert_eq!(&observe(&fork), expected, "version {} drifted", v);
        // The fork is a live synchronizer at that version.
        prop_assert_eq!(fork.version(), v);
    }
    Ok(())
}

/// Each shard of `graph` is the component of `whole` holding its
/// relations, and `graph` keeps no other shard. `whole` is a graph of
/// the whole MKB, built without the shard builder, and its components
/// are gathered by a walk from each relation.
fn check_shards(graph: &ShardedGraph, whole: &Hypergraph, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        graph.shards().len(),
        whole.component_count(),
        "{} shard count",
        what
    );
    for r in whole.relations() {
        let want = whole.component_of(r);
        prop_assert_eq!(
            graph.shard_of(r).map(|s| &**s),
            want.as_ref(),
            "{}: shard of {}",
            what,
            r
        );
    }
    Ok(())
}

/// After every change of a random stream, the delta-maintained core's
/// shards are the components of a whole-graph build of the evolved MKB
/// (`H`, and `H` over the join-capable relations), and the index
/// assembled from the cores gives each relation of the pre-change MKB
/// the component a whole-graph build of `H(MKB)` gives it.
fn check_components(
    cfg: &SynthConfig,
    seed: u64,
    len: usize,
    nojoin: Option<usize>,
) -> Result<(), TestCaseError> {
    let (mut mkb, stream) = inputs(cfg, seed, len, nojoin);
    let mut core = IndexCore::build(&mkb);
    for (i, c) in stream.iter().enumerate() {
        let mkb_prime = evolve(&mkb, c).expect("stream change applies");
        let next = core.apply_delta(&MkbDelta::compute(&mkb, &mkb_prime, c));
        let index = MkbIndex::from_cores(&mkb, &mkb_prime, &core, &next);
        let h = Hypergraph::build(&mkb);
        for r in mkb.relation_names() {
            let (got, want) = (index.component_of(r), h.component_of(r));
            prop_assert_eq!(
                got.as_deref(),
                want.as_ref(),
                "prefix {} ({}): {} diverged",
                i,
                c,
                r
            );
        }
        let what = format!("prefix {i} ({c})");
        let whole = Hypergraph::build(&mkb_prime);
        check_shards(next.graph(), &whole, &format!("{what}: H"))?;
        let whole_join = Hypergraph::build_filtered(&mkb_prime, |d| d.capabilities.join);
        check_shards(
            next.join_graph(),
            &whole_join,
            &format!("{what}: join graph"),
        )?;
        (mkb, core) = (mkb_prime, next);
    }
    Ok(())
}

/// Every k-th relation NOJOIN, k in 2..5.
fn nojoin_k() -> impl Strategy<Value = usize> {
    2usize..5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both maintenance modes agree after every prefix of a stream.
    #[test]
    fn all_maintenance_modes_agree_on_every_prefix(
        cfg in config(),
        seed in 0u64..500,
        len in 4usize..14,
    ) {
        check_modes_agree(&cfg, seed, len, None)?;
    }

    /// [`all_maintenance_modes_agree_on_every_prefix`] with NOJOIN
    /// relations in the MKB and in the stream.
    #[test]
    fn all_maintenance_modes_agree_with_nojoin_relations(
        cfg in config(),
        seed in 0u64..500,
        len in 4usize..14,
        k in nojoin_k(),
    ) {
        check_modes_agree(&cfg, seed, len, Some(k))?;
    }

    /// `at_version` replays the rebuild-mode history.
    #[test]
    fn at_version_reproduces_rebuild_history(
        cfg in config(),
        seed in 0u64..500,
        len in 3usize..10,
    ) {
        check_history(&cfg, seed, len)?;
    }

    /// Every shard, and `H_R`, equals the rebuilt component.
    #[test]
    fn component_of_matches_rebuilt_components(
        cfg in config(),
        seed in 0u64..500,
        len in 4usize..14,
    ) {
        check_components(&cfg, seed, len, None)?;
    }

    /// [`component_of_matches_rebuilt_components`] with NOJOIN relations
    /// in the MKB and in the stream.
    #[test]
    fn shards_match_rebuilt_components_with_nojoin_relations(
        cfg in config(),
        seed in 0u64..500,
        len in 4usize..14,
        k in nojoin_k(),
    ) {
        check_components(&cfg, seed, len, Some(k))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// [`all_maintenance_modes_agree_on_every_prefix`] over several
    /// chunks.
    #[test]
    fn all_maintenance_modes_agree_on_every_prefix_multi_chunk(
        cfg in multi_chunk_config(),
        seed in 0u64..500,
        len in 4usize..14,
    ) {
        check_modes_agree(&cfg, seed, len, None)?;
    }

    /// [`at_version_reproduces_rebuild_history`] over several chunks.
    #[test]
    fn at_version_reproduces_rebuild_history_multi_chunk(
        cfg in multi_chunk_config(),
        seed in 0u64..500,
        len in 3usize..10,
    ) {
        check_history(&cfg, seed, len)?;
    }
}

/// One long seeded stream: 64 changes over a redundant information
/// space, both modes, prefix-by-prefix.
#[test]
fn long_stream_smoke() {
    let cfg = SynthConfig {
        n_relations: 16,
        topology: Topology::Random { extra: 8 },
        cover_count: 3,
        global_cover_prob: 0.5,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, 7);
    let stream = change_stream(&w.mkb, 64, 7);
    let mut rebuild = build(&w.mkb, IndexMaintenance::Rebuild, 7);
    let mut inc = build(&w.mkb, IndexMaintenance::Incremental, 7);
    for (i, c) in stream.iter().enumerate() {
        let a = rebuild.apply(c).expect("stream change applies");
        let b = inc.apply(c).expect("stream change applies");
        assert_eq!(a, b, "prefix {i} ({c}) diverged");
    }
    assert_eq!(observe(&rebuild), observe(&inc));
}

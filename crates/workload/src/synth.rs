//! Parameterised synthetic workloads.
//!
//! The paper's evaluation is qualitative (worked examples); its claims —
//! CVS finds rewritings through *chains* of join constraints where the
//! one-step-away approach fails, in *large-scale* information spaces —
//! imply quantitative questions the experiment harness measures on the
//! workloads generated here:
//!
//! * [`SynthWorkload::chain`] — a cover at a controlled join-constraint
//!   distance `d` from the surviving view fragment (drives `sweep-chain`:
//!   CVS succeeds for any reachable `d`, SVS only for `d = 1`);
//! * [`SynthWorkload::random`] — random MKBs of configurable size,
//!   topology and constraint density (drives `sweep-scale` and
//!   `sweep-covers`);
//! * [`SynthWorkload::database`] — constraint-respecting IS states
//!   (drives `sweep-extent`: empirical validation of the symbolic P3
//!   checker).
//!
//! ## Data-consistency scheme
//!
//! All synthetic relations share an integer key attribute `k`; every join
//! constraint equates keys and every function-of constraint is an
//! identity on a shared payload attribute whose value is a fixed global
//! function of the key. Declared PC constraints are enforced by key-set
//! containment. Consequently *every* generated instance satisfies *all*
//! declared MKB constraints by construction, which is exactly the
//! semantics the MKB claims for real ISs.

use eve_esql::{CondItem, EvolutionParams, FromItem, SelectItem, ViewDefinition, ViewExtent};
use eve_misd::{
    CapabilityChange, ExtentOp, FunctionOf, JoinConstraint, MetaKnowledgeBase, MisdError,
    PartialComplete, ProjSel, RelationDescription,
};
use eve_relational::{
    AttrName, AttrRef, AttributeDef, Clause, Conjunction, DataType, Database, RelName, Relation,
    ScalarExpr, Schema, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// MKB topology of the relation graph (join-constraint edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `R0 — R1 — … — R(n-1)`.
    Chain,
    /// `R0` joined with every other relation.
    Star,
    /// Chain plus the closing edge `R(n-1) — R0`.
    Ring,
    /// Chain plus `extra` random chords (connected by construction).
    Random {
        /// Number of extra chord edges.
        extra: usize,
    },
    /// `⌈n / size⌉` independent clusters with **no cross-cluster
    /// joins** — each cluster is a chain of up to `size` consecutive
    /// relations plus `extra` random chords drawn inside the cluster.
    /// This models the paper's federated setting: a large evolvable
    /// information space made of autonomous IS groups, where one
    /// capability change perturbs a single group. Touched-component
    /// work (and so incremental index maintenance) stays `O(size)`
    /// however large the whole space grows.
    Clusters {
        /// Relations per cluster (clamped to ≥ 2; the last cluster may
        /// be smaller).
        size: usize,
        /// Random chord edges added inside each cluster.
        extra: usize,
    },
}

/// Configuration for [`SynthWorkload::random`].
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of relations (≥ 2).
    pub n_relations: usize,
    /// Payload attributes per relation (`v0..`), beyond the key.
    pub payload_attrs: usize,
    /// Relation-graph topology.
    pub topology: Topology,
    /// Number of cover relations (function-of constraints defining the
    /// target's attributes from other relations).
    pub cover_count: usize,
    /// Probability that a cover also gets a certifying PC constraint
    /// (`S(k, v0) ⊇ R0(k, v0)`).
    pub pc_fraction: f64,
    /// Number of relations in the generated view (target + neighbours).
    pub view_relations: usize,
    /// The view-extent parameter of the generated view.
    pub extent: ViewExtent,
    /// Probability that each non-target relation also gets function-of
    /// covers (from a random other relation), making the whole
    /// information space redundant — used by the lifecycle sweep where
    /// any relation may be deleted. `0.0` (the default) restricts covers
    /// to the designated target.
    pub global_cover_prob: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_relations: 16,
            payload_attrs: 2,
            topology: Topology::Random { extra: 8 },
            cover_count: 2,
            pc_fraction: 0.5,
            view_relations: 3,
            extent: ViewExtent::Superset,
            global_cover_prob: 0.0,
        }
    }
}

/// A generated workload: an MKB, one affected view, and the relation
/// whose deletion drives the experiment.
#[derive(Debug, Clone)]
pub struct SynthWorkload {
    /// The meta knowledge base.
    pub mkb: MetaKnowledgeBase,
    /// The view to synchronize.
    pub view: ViewDefinition,
    /// The relation to delete.
    pub target: RelName,
}

fn rel_name(i: usize) -> RelName {
    RelName::new(format!("R{i}"))
}

fn describe(name: &RelName, payload_attrs: usize) -> RelationDescription {
    let mut attrs = vec![AttributeDef::new("k", DataType::Int)];
    for j in 0..payload_attrs {
        attrs.push(AttributeDef::new(format!("v{j}"), DataType::Int));
    }
    RelationDescription::new(format!("IS_{name}"), name.clone(), attrs)
}

fn key_join(id: &str, a: &RelName, b: &RelName) -> JoinConstraint {
    JoinConstraint::new(
        id,
        a.clone(),
        b.clone(),
        Conjunction::new(vec![Clause::eq_attrs(
            AttrRef::new(a.clone(), "k"),
            AttrRef::new(b.clone(), "k"),
        )]),
    )
}

/// A declaration the MKB rejected while building a synthetic workload:
/// which kind, which id, and the underlying reason. Surfaced by the
/// `try_*` generators so misuse (e.g. a naming scheme that collides for
/// some fanout/depth combination) reports the exact colliding
/// declaration instead of panicking mid-bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthError {
    /// Declaration kind: `"relation"`, `"join"`, `"function-of"`, `"PC"`.
    pub kind: &'static str,
    /// Name of the relation or id of the constraint that was rejected.
    pub id: String,
    /// The underlying MKB rejection.
    pub source: MisdError,
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "declaring {} {:?}: {}", self.kind, self.id, self.source)
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// `?`-friendly wrapper over [`MetaKnowledgeBase`]'s fallible mutators
/// that attributes every rejection to the declaration that caused it.
struct MkbBuilder {
    mkb: MetaKnowledgeBase,
}

impl MkbBuilder {
    fn new() -> MkbBuilder {
        MkbBuilder {
            mkb: MetaKnowledgeBase::new(),
        }
    }

    fn relation(&mut self, desc: RelationDescription) -> Result<(), SynthError> {
        let id = desc.name.to_string();
        self.mkb.add_relation(desc).map_err(|source| SynthError {
            kind: "relation",
            id,
            source,
        })
    }

    fn join(&mut self, jc: JoinConstraint) -> Result<(), SynthError> {
        let id = jc.id.clone();
        self.mkb.add_join(jc).map_err(|source| SynthError {
            kind: "join",
            id,
            source,
        })
    }

    fn function_of(&mut self, f: FunctionOf) -> Result<(), SynthError> {
        let id = f.id.clone();
        self.mkb.add_function_of(f).map_err(|source| SynthError {
            kind: "function-of",
            id,
            source,
        })
    }

    fn pc(&mut self, pc: PartialComplete) -> Result<(), SynthError> {
        let id = pc.id.clone();
        self.mkb.add_pc(pc).map_err(|source| SynthError {
            kind: "PC",
            id,
            source,
        })
    }

    fn finish(self) -> MetaKnowledgeBase {
        self.mkb
    }
}

impl SynthWorkload {
    /// The controlled-distance chain workload of `sweep-chain`.
    ///
    /// Relations: target `T(k, v)`, witness `W(k, w)` (in the view),
    /// intermediates `C1..C(d-1)` and the cover `Cov(k, v)`, connected
    /// `W — C1 — … — C(d-1) — Cov`. The only covers of `T.v` and `T.k`
    /// live on `Cov`, exactly `distance` join-constraint hops from `W`.
    /// With `with_pc`, a PC constraint `Cov(k, v) ⊇ T(k, v)` certifies
    /// the swap.
    pub fn chain(distance: usize, with_pc: bool) -> SynthWorkload {
        Self::try_chain(distance, with_pc).unwrap_or_else(|e| panic!("chain workload: {e}"))
    }

    /// Fallible form of [`SynthWorkload::chain`]: reports which
    /// declaration the MKB rejected instead of panicking.
    pub fn try_chain(distance: usize, with_pc: bool) -> Result<SynthWorkload, SynthError> {
        assert!(distance >= 1, "distance must be at least 1");
        let mut b = MkbBuilder::new();
        let t = RelName::new("T");
        let w = RelName::new("W");
        let cov = RelName::new("Cov");

        b.relation(RelationDescription::new(
            "IS_T",
            t.clone(),
            vec![
                AttributeDef::new("k", DataType::Int),
                AttributeDef::new("v", DataType::Int),
            ],
        ))?;
        b.relation(RelationDescription::new(
            "IS_W",
            w.clone(),
            vec![
                AttributeDef::new("k", DataType::Int),
                AttributeDef::new("w", DataType::Int),
            ],
        ))?;
        let mut chain: Vec<RelName> = vec![w.clone()];
        for i in 1..distance {
            let c = RelName::new(format!("C{i}"));
            b.relation(RelationDescription::new(
                "IS_C",
                c.clone(),
                vec![AttributeDef::new("k", DataType::Int)],
            ))?;
            chain.push(c);
        }
        b.relation(RelationDescription::new(
            "IS_Cov",
            cov.clone(),
            vec![
                AttributeDef::new("k", DataType::Int),
                AttributeDef::new("v", DataType::Int),
            ],
        ))?;
        chain.push(cov.clone());

        b.join(key_join("JT", &t, &w))?;
        for (i, pair) in chain.windows(2).enumerate() {
            b.join(key_join(&format!("J{i}"), &pair[0], &pair[1]))?;
        }
        b.function_of(FunctionOf::new(
            "Fv",
            AttrRef::new(t.clone(), "v"),
            ScalarExpr::Attr(AttrRef::new(cov.clone(), "v")),
        ))?;
        b.function_of(FunctionOf::new(
            "Fk",
            AttrRef::new(t.clone(), "k"),
            ScalarExpr::Attr(AttrRef::new(cov.clone(), "k")),
        ))?;
        if with_pc {
            b.pc(PartialComplete::new(
                "PCcov",
                ProjSel::new(cov.clone(), vec![AttrName::new("k"), AttrName::new("v")]),
                ExtentOp::Superset,
                ProjSel::new(t.clone(), vec![AttrName::new("k"), AttrName::new("v")]),
            ))?;
            // The intermediates must also be complete w.r.t. T's keys —
            // otherwise joining through them could lose tuples and no
            // superset certificate would be sound.
            for (i, c) in chain[1..chain.len() - 1].iter().enumerate() {
                b.pc(PartialComplete::new(
                    format!("PCc{i}"),
                    ProjSel::new(c.clone(), vec![AttrName::new("k")]),
                    ExtentOp::Superset,
                    ProjSel::new(t.clone(), vec![AttrName::new("k")]),
                ))?;
            }
        }

        let view = build_view(
            "ChainView",
            ViewExtent::Superset,
            &[(t.clone(), vec!["k", "v"]), (w.clone(), vec!["k", "w"])],
            &[Clause::eq_attrs(
                AttrRef::new(t.clone(), "k"),
                AttrRef::new(w.clone(), "k"),
            )],
        );
        Ok(SynthWorkload {
            mkb: b.finish(),
            view,
            target: t,
        })
    }

    /// The wide-MKB/high-fanout workload of the rewriting search: many
    /// cover combinations, several connection trees each.
    ///
    /// Relations: target `T(k, v)`, witness `W(k, w)` (in the view), one
    /// *shallow* cover `S0(k, v)` a single join hop from `W`, and
    /// `fanout` *deep* covers `C1..Cf(k, v)`, each at the end of its own
    /// chain `W — Bi1 — … — Bi{depth} — Ci` with a **parallel** join
    /// constraint on the last hop (so each deep cover contributes
    /// several connection-tree variants). Both of `T`'s attributes are
    /// covered by every cover relation, so the cover-combination space
    /// is `(1 + fanout)²` wide — the shallow×shallow combination is
    /// declared first and strictly dominates structurally.
    ///
    /// The search expands every combination (up to
    /// `MAX_COVER_COMBINATIONS`) and ranks the shallow candidate first.
    /// `tests/golden.rs` pins its full output for `wide_mkb(4, 3)`, and
    /// `tests/prop_search.rs` its cover-combination cap on
    /// `wide_mkb(6, 1)`.
    pub fn wide_mkb(fanout: usize, depth: usize) -> SynthWorkload {
        Self::try_wide_mkb(fanout, depth).unwrap_or_else(|e| panic!("wide_mkb workload: {e}"))
    }

    /// Fallible form of [`SynthWorkload::wide_mkb`]: reports which
    /// declaration the MKB rejected instead of panicking.
    pub fn try_wide_mkb(fanout: usize, depth: usize) -> Result<SynthWorkload, SynthError> {
        assert!(fanout >= 1, "fanout must be at least 1");
        assert!(depth >= 1, "depth must be at least 1");
        let mut b = MkbBuilder::new();
        let t = RelName::new("T");
        let w = RelName::new("W");
        let s0 = RelName::new("S0");

        let kv = |name: &RelName, second: &str| {
            RelationDescription::new(
                format!("IS_{name}"),
                name.clone(),
                vec![
                    AttributeDef::new("k", DataType::Int),
                    AttributeDef::new(second, DataType::Int),
                ],
            )
        };
        b.relation(kv(&t, "v"))?;
        b.relation(kv(&w, "w"))?;
        b.relation(kv(&s0, "v"))?;
        b.join(key_join("JT", &t, &w))?;
        b.join(key_join("JS0", &w, &s0))?;

        // Declared first: the shallow cover, so the first cover
        // combination the search tries is the dominant one.
        let add_cover = |b: &mut MkbBuilder, idx: usize, src: &RelName| -> Result<(), SynthError> {
            b.function_of(FunctionOf::new(
                format!("Fk{idx}"),
                AttrRef::new(t.clone(), "k"),
                ScalarExpr::Attr(AttrRef::new(src.clone(), "k")),
            ))?;
            b.function_of(FunctionOf::new(
                format!("Fv{idx}"),
                AttrRef::new(t.clone(), "v"),
                ScalarExpr::Attr(AttrRef::new(src.clone(), "v")),
            ))?;
            Ok(())
        };
        add_cover(&mut b, 0, &s0)?;

        for i in 1..=fanout {
            let mut prev = w.clone();
            for j in 1..=depth {
                let mid = RelName::new(format!("B{i}_{j}"));
                b.relation(RelationDescription::new(
                    format!("IS_B{i}"),
                    mid.clone(),
                    vec![AttributeDef::new("k", DataType::Int)],
                ))?;
                b.join(key_join(&format!("J{i}_{j}"), &prev, &mid))?;
                prev = mid;
            }
            let c = RelName::new(format!("C{i}"));
            b.relation(kv(&c, "v"))?;
            // Parallel last-hop constraints: each deep cover combination
            // enumerates several connection-tree variants.
            b.join(key_join(&format!("J{i}_last_a"), &prev, &c))?;
            b.join(key_join(&format!("J{i}_last_b"), &prev, &c))?;
            add_cover(&mut b, i, &c)?;
        }

        let view = build_view(
            "WideView",
            ViewExtent::Any,
            &[(t.clone(), vec!["k", "v"]), (w.clone(), vec!["k", "w"])],
            &[Clause::eq_attrs(
                AttrRef::new(t.clone(), "k"),
                AttrRef::new(w.clone(), "k"),
            )],
        );
        Ok(SynthWorkload {
            mkb: b.finish(),
            view,
            target: t,
        })
    }

    /// A random workload per `cfg`, deterministic in `seed`.
    pub fn random(cfg: &SynthConfig, seed: u64) -> SynthWorkload {
        Self::try_random(cfg, seed).unwrap_or_else(|e| panic!("random workload: {e}"))
    }

    /// Fallible form of [`SynthWorkload::random`]: reports which
    /// declaration the MKB rejected instead of panicking.
    pub fn try_random(cfg: &SynthConfig, seed: u64) -> Result<SynthWorkload, SynthError> {
        assert!(cfg.n_relations >= 2);
        assert!(cfg.payload_attrs >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = MkbBuilder::new();
        let names: Vec<RelName> = (0..cfg.n_relations).map(rel_name).collect();
        for n in &names {
            b.relation(describe(n, cfg.payload_attrs))?;
        }

        // Topology edges.
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        match cfg.topology {
            Topology::Chain => {
                for i in 0..cfg.n_relations - 1 {
                    edges.insert((i, i + 1));
                }
            }
            Topology::Star => {
                for i in 1..cfg.n_relations {
                    edges.insert((0, i));
                }
            }
            Topology::Ring => {
                for i in 0..cfg.n_relations - 1 {
                    edges.insert((i, i + 1));
                }
                edges.insert((0, cfg.n_relations - 1));
            }
            Topology::Random { extra } => {
                for i in 0..cfg.n_relations - 1 {
                    edges.insert((i, i + 1));
                }
                let mut added = 0;
                let mut attempts = 0;
                while added < extra && attempts < extra * 20 {
                    attempts += 1;
                    let a = rng.gen_range(0..cfg.n_relations);
                    let b = rng.gen_range(0..cfg.n_relations);
                    if a != b && edges.insert((a.min(b), a.max(b))) {
                        added += 1;
                    }
                }
            }
            Topology::Clusters { size, extra } => {
                let size = size.max(2);
                for start in (0..cfg.n_relations).step_by(size) {
                    let end = (start + size).min(cfg.n_relations);
                    for i in start..end.saturating_sub(1) {
                        edges.insert((i, i + 1));
                    }
                    if end - start < 2 {
                        continue; // singleton tail cluster: no chords possible
                    }
                    let mut added = 0;
                    let mut attempts = 0;
                    while added < extra && attempts < extra * 20 {
                        attempts += 1;
                        let a = rng.gen_range(start..end);
                        let b = rng.gen_range(start..end);
                        if a != b && edges.insert((a.min(b), a.max(b))) {
                            added += 1;
                        }
                    }
                }
            }
        }
        for (idx, (x, y)) in edges.iter().enumerate() {
            b.join(key_join(&format!("J{idx}"), &names[*x], &names[*y]))?;
        }

        // Adjacency for the view construction.
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
            adj.entry(*b).or_default().push(*a);
        }

        // Covers of the target's key and first payload.
        let target = names[0].clone();
        let mut cover_sources: BTreeSet<usize> = BTreeSet::new();
        let mut attempts = 0;
        while cover_sources.len() < cfg.cover_count.min(cfg.n_relations - 1)
            && attempts < cfg.cover_count * 20 + 20
        {
            attempts += 1;
            cover_sources.insert(rng.gen_range(1..cfg.n_relations));
        }
        for (c, src) in cover_sources.iter().enumerate() {
            let s = &names[*src];
            b.function_of(FunctionOf::new(
                format!("Fk{c}"),
                AttrRef::new(target.clone(), "k"),
                ScalarExpr::Attr(AttrRef::new(s.clone(), "k")),
            ))?;
            b.function_of(FunctionOf::new(
                format!("Fv{c}"),
                AttrRef::new(target.clone(), "v0"),
                ScalarExpr::Attr(AttrRef::new(s.clone(), "v0")),
            ))?;
            if rng.gen_bool(cfg.pc_fraction) {
                b.pc(PartialComplete::new(
                    format!("PC{c}"),
                    ProjSel::new(s.clone(), vec![AttrName::new("k"), AttrName::new("v0")]),
                    ExtentOp::Superset,
                    ProjSel::new(
                        target.clone(),
                        vec![AttrName::new("k"), AttrName::new("v0")],
                    ),
                ))?;
            }
        }

        // Optional information-space redundancy: covers for non-target
        // relations too.
        if cfg.global_cover_prob > 0.0 {
            for i in 1..cfg.n_relations {
                if !rng.gen_bool(cfg.global_cover_prob) {
                    continue;
                }
                let mut j = rng.gen_range(0..cfg.n_relations);
                if j == i {
                    j = (j + 1) % cfg.n_relations;
                }
                let (t, s) = (&names[i], &names[j]);
                b.function_of(FunctionOf::new(
                    format!("GFk{i}"),
                    AttrRef::new(t.clone(), "k"),
                    ScalarExpr::Attr(AttrRef::new(s.clone(), "k")),
                ))?;
                b.function_of(FunctionOf::new(
                    format!("GFv{i}"),
                    AttrRef::new(t.clone(), "v0"),
                    ScalarExpr::Attr(AttrRef::new(s.clone(), "v0")),
                ))?;
            }
        }

        // The view: target plus BFS neighbours joined along JC edges.
        let mut view_rels: Vec<usize> = vec![0];
        let mut clauses: Vec<Clause> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::from([0]);
        let mut seen: BTreeSet<usize> = [0].into_iter().collect();
        'bfs: while let Some(cur) = queue.pop_front() {
            for &next in adj.get(&cur).into_iter().flatten() {
                if seen.insert(next) {
                    view_rels.push(next);
                    clauses.push(Clause::eq_attrs(
                        AttrRef::new(names[cur].clone(), "k"),
                        AttrRef::new(names[next].clone(), "k"),
                    ));
                    if view_rels.len() >= cfg.view_relations {
                        break 'bfs;
                    }
                    queue.push_back(next);
                }
            }
        }

        let rels: Vec<(RelName, Vec<&str>)> = view_rels
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let attrs = if pos == 0 { vec!["k", "v0"] } else { vec!["k"] };
                (names[i].clone(), attrs)
            })
            .collect();
        let view = build_view("SynthView", cfg.extent, &rels, &clauses);

        Ok(SynthWorkload {
            mkb: b.finish(),
            view,
            target,
        })
    }

    /// The capability change this workload studies.
    pub fn delete_change(&self) -> CapabilityChange {
        CapabilityChange::DeleteRelation(self.target.clone())
    }

    /// Generate a constraint-respecting database state.
    ///
    /// * `universe` — size of the shared key domain;
    /// * `coverage` — probability a relation holds a given key.
    ///
    /// Declared PC constraints are enforced by intersecting the
    /// subset-side key set into the superset side's (iterated to a
    /// fixpoint).
    pub fn database(&self, seed: u64, universe: usize, coverage: f64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        // Key sets per relation.
        let mut keysets: BTreeMap<RelName, BTreeSet<i64>> = BTreeMap::new();
        for desc in self.mkb.relations() {
            let mut ks = BTreeSet::new();
            for k in 0..universe as i64 {
                if rng.gen_bool(coverage) {
                    ks.insert(k);
                }
            }
            keysets.insert(desc.name.clone(), ks);
        }
        // Enforce PCs: π(S) ⊇ π(R) (as generated, left is the superset
        // side) → keyset(R) ⊆ keyset(S).
        for _ in 0..self.mkb.pcs().len() + 1 {
            for pc in self.mkb.pcs() {
                let (sup, sub) = match pc.op {
                    ExtentOp::Superset | ExtentOp::ProperSuperset => {
                        (pc.left.relation.clone(), pc.right.relation.clone())
                    }
                    ExtentOp::Subset | ExtentOp::ProperSubset => {
                        (pc.right.relation.clone(), pc.left.relation.clone())
                    }
                    ExtentOp::Equivalent => {
                        // intersect both ways
                        let l = keysets[&pc.left.relation].clone();
                        let r = keysets[&pc.right.relation].clone();
                        let both: BTreeSet<i64> = l.intersection(&r).cloned().collect();
                        keysets.insert(pc.left.relation.clone(), both.clone());
                        keysets.insert(pc.right.relation.clone(), both);
                        continue;
                    }
                };
                let sup_keys = keysets[&sup].clone();
                let sub_keys = keysets.get_mut(&sub).expect("relation described");
                sub_keys.retain(|k| sup_keys.contains(k));
            }
        }

        // Materialise tuples: payload j of key k is a fixed global
        // function, so identity function-of constraints hold on every
        // join.
        let payload = |k: i64, j: usize| -> i64 { (k * (j as i64 + 3) + 11) % 97 };
        let mut db = Database::new();
        for desc in self.mkb.relations() {
            let schema = Schema::of_relation(&desc.name, &desc.attrs);
            let mut rel = Relation::new(schema);
            for &k in &keysets[&desc.name] {
                let mut vals = Vec::with_capacity(desc.attrs.len());
                for (j, a) in desc.attrs.iter().enumerate() {
                    if a.name.as_str() == "k" {
                        vals.push(Value::Int(k));
                    } else {
                        vals.push(Value::Int(payload(k, j)));
                    }
                }
                rel.insert(Tuple::new(vals)).expect("arity");
            }
            db.put(desc.name.clone(), rel);
        }
        db
    }
}

/// Generate `count` views over an existing synthetic MKB, each rooted at
/// a different relation and joined to `view_relations - 1` BFS
/// neighbours along the MKB's join constraints. Views are named
/// `View0, View1, …` and satisfy the §4 well-formedness assumptions
/// (validated by construction). Relations with no join partner yield
/// single-relation views.
pub fn random_views(
    mkb: &MetaKnowledgeBase,
    count: usize,
    view_relations: usize,
    seed: u64,
) -> Vec<ViewDefinition> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_u64);
    let names: Vec<RelName> = mkb.relation_names().cloned().collect();
    if names.is_empty() {
        return Vec::new();
    }
    // Adjacency over join constraints.
    let mut adj: BTreeMap<RelName, Vec<RelName>> = BTreeMap::new();
    for jc in mkb.joins() {
        adj.entry(jc.left.clone())
            .or_default()
            .push(jc.right.clone());
        adj.entry(jc.right.clone())
            .or_default()
            .push(jc.left.clone());
    }
    let mut roots: Vec<RelName> = Vec::new();
    let mut attempts = 0;
    while roots.len() < count && attempts < count * 20 + 20 {
        attempts += 1;
        let cand = names[rng.gen_range(0..names.len())].clone();
        if !roots.contains(&cand) {
            roots.push(cand);
        }
    }

    roots
        .into_iter()
        .enumerate()
        .map(|(i, root)| {
            // BFS from the root.
            let mut rels: Vec<RelName> = vec![root.clone()];
            let mut clauses: Vec<Clause> = Vec::new();
            let mut seen: BTreeSet<RelName> = [root.clone()].into_iter().collect();
            let mut queue: VecDeque<RelName> = VecDeque::from([root]);
            'bfs: while let Some(cur) = queue.pop_front() {
                for next in adj.get(&cur).into_iter().flatten() {
                    if seen.insert(next.clone()) {
                        rels.push(next.clone());
                        clauses.push(Clause::eq_attrs(
                            AttrRef::new(cur.clone(), "k"),
                            AttrRef::new(next.clone(), "k"),
                        ));
                        if rels.len() >= view_relations {
                            break 'bfs;
                        }
                        queue.push_back(next.clone());
                    }
                }
            }
            build_view(
                &format!("View{i}"),
                ViewExtent::Any,
                &selection(mkb, &rels),
                &clauses,
            )
        })
        .collect()
}

/// Generate `count` views that all reference `target` — the fan-out
/// workload of the parallel synchronizer (every view is
/// *affected* by `delete-relation target`). Each view starts at `target`
/// and grows by `view_relations - 1` randomized steps along the MKB's
/// join constraints. The steps stay in `target`'s neighbourhood, so when
/// that is small many views share one body (relation set, joins and
/// terminal sets alike): 64 views of 3 relations over a 64-relation
/// `Topology::Random { extra: 16 }` MKB have a median of 2 distinct
/// bodies (mean ≈4, max 25, over 1,280 generated MKBs). Views are named
/// `Fan0, Fan1, …` and are well-formed by construction.
pub fn views_touching(
    mkb: &MetaKnowledgeBase,
    target: &RelName,
    count: usize,
    view_relations: usize,
    seed: u64,
) -> Vec<ViewDefinition> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11_u64);
    let mut adj: BTreeMap<RelName, Vec<RelName>> = BTreeMap::new();
    for jc in mkb.joins() {
        adj.entry(jc.left.clone())
            .or_default()
            .push(jc.right.clone());
        adj.entry(jc.right.clone())
            .or_default()
            .push(jc.left.clone());
    }
    (0..count)
        .map(|i| {
            let mut rels: Vec<RelName> = vec![target.clone()];
            let mut clauses: Vec<Clause> = Vec::new();
            while rels.len() < view_relations {
                // Frontier: (attached relation, unvisited neighbour).
                let frontier: Vec<(RelName, RelName)> = rels
                    .iter()
                    .flat_map(|r| {
                        adj.get(r)
                            .into_iter()
                            .flatten()
                            .filter(|n| !rels.contains(n))
                            .map(|n| (r.clone(), n.clone()))
                    })
                    .collect();
                if frontier.is_empty() {
                    break;
                }
                let (cur, next) = frontier[rng.gen_range(0..frontier.len())].clone();
                clauses.push(Clause::eq_attrs(
                    AttrRef::new(cur, "k"),
                    AttrRef::new(next.clone(), "k"),
                ));
                rels.push(next);
            }
            build_view(
                &format!("Fan{i}"),
                ViewExtent::Any,
                &selection(mkb, &rels),
                &clauses,
            )
        })
        .collect()
}

/// What a generated view selects of each of `rels`: the key `k`, and of
/// the first (the root) one payload attribute. On an MKB that names its
/// payload attributes as [`SynthWorkload::random`] does (`k, v0, …`),
/// that is `v0`. On any other MKB it is the root's first attribute other
/// than `k`, if it has one: `v` or `w` on [`SynthWorkload::chain`] and
/// [`SynthWorkload::wide_mkb`].
///
/// An evolved `random` MKB keeps the `v0` convention while any relation
/// has a `v0`, even where the root lost or renamed its own. So a view
/// drawn over a `random` MKB, fresh or evolved, is the view it always
/// was, and the simulator's runtime registrations, which draw views over
/// the evolved MKB, still meet a refusal for an attribute the root lost.
fn selection<'a>(mkb: &'a MetaKnowledgeBase, rels: &[RelName]) -> Vec<(RelName, Vec<&'a str>)> {
    let names = |d: &'a RelationDescription| d.attrs.iter().map(|a| a.name.as_str());
    let payload = if mkb.relations().any(|d| names(d).any(|a| a == "v0")) {
        Some("v0")
    } else {
        let root = rels.first().and_then(|r| mkb.relation(r));
        root.and_then(|d| names(d).find(|a| *a != "k"))
    };
    rels.iter()
        .enumerate()
        .map(|(pos, r)| {
            let mut attrs = vec!["k"];
            if pos == 0 {
                attrs.extend(payload);
            }
            (r.clone(), attrs)
        })
        .collect()
}

/// Build a view over `rels` (relation, selected attrs) joined by
/// `clauses`. The first relation's items are `(false, true)`
/// (indispensable, replaceable); the others' are `(true, true)`.
fn build_view(
    name: &str,
    extent: ViewExtent,
    rels: &[(RelName, Vec<&str>)],
    clauses: &[Clause],
) -> ViewDefinition {
    let mut select = Vec::new();
    for (pos, (rel, attrs)) in rels.iter().enumerate() {
        for a in attrs {
            // Qualify output names: k of R1 exports as "R1_k".
            let alias = AttrName::new(format!("{}_{}", rel.as_str().replace('-', "_"), a));
            select.push(SelectItem {
                expr: ScalarExpr::Attr(AttrRef::new(rel.clone(), *a)),
                alias: Some(alias),
                params: EvolutionParams::new(pos != 0, true),
            });
        }
    }
    ViewDefinition {
        name: name.to_string(),
        interface: None,
        extent,
        select,
        from: rels
            .iter()
            .map(|(r, _)| FromItem {
                relation: r.clone(),
                alias: None,
                params: EvolutionParams::new(true, true),
            })
            .collect(),
        conditions: clauses
            .iter()
            .map(|c| CondItem {
                clause: c.clone(),
                params: EvolutionParams::new(false, true),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_core::{
        cvs_delete_relation_indexed, svs_delete_relation_indexed, CvsError, CvsOptions,
        LegalRewriting, MkbIndex,
    };
    use eve_misd::evolve;

    // Test-local shims: build one per-change MkbIndex, then synchronize
    // (the shape `Synchronizer::apply` uses).
    fn cvs_delete_relation(
        view: &ViewDefinition,
        target: &RelName,
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
        opts: &CvsOptions,
    ) -> Result<Vec<LegalRewriting>, CvsError> {
        let index = MkbIndex::new(mkb, mkb_prime);
        cvs_delete_relation_indexed(view, target, &index, opts)
    }

    fn svs_delete_relation(
        view: &ViewDefinition,
        target: &RelName,
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
    ) -> Result<Vec<LegalRewriting>, CvsError> {
        let opts = CvsOptions::default();
        let index = MkbIndex::new(mkb, mkb_prime);
        svs_delete_relation_indexed(view, target, &index, &opts)
    }

    #[test]
    fn chain_structure() {
        let w = SynthWorkload::chain(3, true);
        // T, W, C1, C2, Cov = 5 relations; JT + 3 chain joins.
        assert_eq!(w.mkb.relation_count(), 5);
        assert_eq!(w.mkb.joins().len(), 4);
        assert_eq!(w.mkb.function_ofs().len(), 2);
        // PCcov plus one completeness PC per intermediate (C1, C2).
        assert_eq!(w.mkb.pcs().len(), 3);
        assert!(SynthWorkload::chain(1, false).mkb.relation_count() == 3);
    }

    #[test]
    fn chain_cvs_succeeds_svs_fails_beyond_one_hop() {
        for d in 1..=4 {
            let w = SynthWorkload::chain(d, false);
            let mkb2 = evolve(&w.mkb, &w.delete_change()).unwrap();
            let cvs =
                cvs_delete_relation(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
            assert!(cvs.is_ok(), "CVS failed at distance {d}: {cvs:?}");
            let svs = svs_delete_relation(&w.view, &w.target, &w.mkb, &mkb2);
            if d == 1 {
                assert!(svs.is_ok(), "SVS must succeed at distance 1");
            } else {
                assert!(svs.is_err(), "SVS must fail at distance {d}");
            }
        }
    }

    #[test]
    fn chain_pc_certifies_superset() {
        let w = SynthWorkload::chain(2, true);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).unwrap();
        let rewritings =
            cvs_delete_relation(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default()).unwrap();
        assert!(
            rewritings.iter().any(|r| r.satisfies_p3),
            "PC certificate not picked up: {:?}",
            rewritings.iter().map(|r| r.verdict).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wide_mkb_structure_and_search() {
        let w = SynthWorkload::wide_mkb(3, 2);
        // T, W, S0 + 3 × (2 intermediates + 1 cover) = 12 relations.
        assert_eq!(w.mkb.relation_count(), 12);
        // JT + JS0 + 3 × (2 chain + 2 parallel last-hop) = 14 joins.
        assert_eq!(w.mkb.joins().len(), 14);
        // (1 + 3 deep covers) × 2 attributes.
        assert_eq!(w.mkb.function_ofs().len(), 8);
        let errs = eve_esql::validate_view(&w.view);
        assert!(errs.is_empty(), "{errs:?}");

        // The shallow S0 candidate must win: it is the structurally
        // smallest rewriting (two relations, one join).
        let mkb2 = evolve(&w.mkb, &w.delete_change()).unwrap();
        let reps =
            cvs_delete_relation(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default()).unwrap();
        assert!(reps.len() > 1, "deep covers must contribute alternatives");
        assert!(
            reps[0].replacement.relations.contains(&RelName::new("S0")),
            "{:?}",
            reps[0].replacement.relations
        );
        assert_eq!(reps[0].replacement.relations.len(), 2);
    }

    #[test]
    fn random_workload_is_deterministic_and_valid() {
        let cfg = SynthConfig::default();
        let a = SynthWorkload::random(&cfg, 42);
        let b = SynthWorkload::random(&cfg, 42);
        assert_eq!(a.mkb, b.mkb);
        assert_eq!(a.view, b.view);
        // View is structurally valid.
        let errs = eve_esql::validate_view(&a.view);
        assert!(errs.is_empty(), "{errs:?}");
        // Workload is synchronizable end to end (covers exist).
        let mkb2 = evolve(&a.mkb, &a.delete_change()).unwrap();
        let res = cvs_delete_relation(&a.view, &a.target, &a.mkb, &mkb2, &CvsOptions::default());
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn topologies_produce_expected_edge_counts() {
        for (topo, expect) in [
            (Topology::Chain, 9),
            (Topology::Star, 9),
            (Topology::Ring, 10),
        ] {
            let cfg = SynthConfig {
                n_relations: 10,
                topology: topo,
                ..SynthConfig::default()
            };
            let w = SynthWorkload::random(&cfg, 1);
            assert_eq!(w.mkb.joins().len(), expect, "{topo:?}");
        }
        let cfg = SynthConfig {
            n_relations: 10,
            topology: Topology::Random { extra: 5 },
            ..SynthConfig::default()
        };
        let w = SynthWorkload::random(&cfg, 1);
        assert!(w.mkb.joins().len() >= 9 && w.mkb.joins().len() <= 14);
    }

    #[test]
    fn random_views_are_valid_and_distinctly_rooted() {
        let cfg = SynthConfig {
            n_relations: 12,
            ..SynthConfig::default()
        };
        let w = SynthWorkload::random(&cfg, 3);
        let views = random_views(&w.mkb, 5, 3, 9);
        assert_eq!(views.len(), 5);
        let mut roots = BTreeSet::new();
        for v in &views {
            let errs = eve_esql::validate_view(v);
            assert!(errs.is_empty(), "{}: {errs:?}", v.name);
            roots.insert(v.from[0].relation.clone());
        }
        assert_eq!(roots.len(), 5, "roots must differ");
        // Deterministic per seed.
        let again = random_views(&w.mkb, 5, 3, 9);
        assert_eq!(views, again);
    }

    /// Every view either generator draws passes the builder on every MKB
    /// shape: the root selects an attribute it has (`T(k, v)` on `chain`
    /// and `wide_mkb`), and on `random` MKBs that is `v0`, as it always
    /// was.
    #[test]
    fn generated_views_pass_the_builder() {
        let random = SynthConfig {
            topology: Topology::Random { extra: 12 },
            ..SynthConfig::default()
        };
        for (shape, w) in [
            ("chain", SynthWorkload::chain(3, true)),
            ("wide_mkb", SynthWorkload::wide_mkb(4, 3)),
            ("random", SynthWorkload::random(&random, 11)),
        ] {
            for seed in 0..8 {
                let mut builder = eve_core::SynchronizerBuilder::new(w.mkb.clone());
                let views = views_touching(&w.mkb, &w.target, 8, 3, seed)
                    .into_iter()
                    .chain(random_views(&w.mkb, 8, 3, seed));
                for v in views {
                    let root = v.from[0].relation.clone();
                    let want = match shape {
                        "random" => Some("v0"),
                        _ => (root == w.target).then_some("v"),
                    };
                    if let Some(attr) = want.map(|a| AttrRef::new(root, a)) {
                        assert!(v.uses_attr(&attr), "{shape}: {} selects no {attr}", v.name);
                    }
                    let name = v.name.clone();
                    builder = builder
                        .with_view(v)
                        .unwrap_or_else(|e| panic!("{shape} seed {seed}: {name} refused: {e}"));
                }
            }
        }
    }

    #[test]
    fn views_touching_all_reference_target() {
        let cfg = SynthConfig {
            n_relations: 16,
            topology: Topology::Random { extra: 6 },
            ..SynthConfig::default()
        };
        let w = SynthWorkload::random(&cfg, 7);
        let views = views_touching(&w.mkb, &w.target, 8, 3, 11);
        assert_eq!(views.len(), 8);
        for v in &views {
            let errs = eve_esql::validate_view(v);
            assert!(errs.is_empty(), "{}: {errs:?}", v.name);
            assert_eq!(
                v.from[0].relation, w.target,
                "{} must root at target",
                v.name
            );
        }
        // Relation sets must actually diverge across views.
        let shapes: BTreeSet<Vec<RelName>> = views
            .iter()
            .map(|v| v.from.iter().map(|f| f.relation.clone()).collect())
            .collect();
        assert!(shapes.len() > 1, "fan-out views must not all be identical");
        // Deterministic per seed.
        assert_eq!(views, views_touching(&w.mkb, &w.target, 8, 3, 11));
    }

    /// End-to-end coverage of the `RelSet` heap fallback: a relation
    /// universe beyond the inline bitset capacity (256 ids) must flow
    /// through index build, the CVS search and the synchronizer exactly
    /// like a small one — same outcomes, no panics, no silent clamping.
    #[test]
    fn relset_heap_fallback_synchronizes_large_universe() {
        use eve_core::{SynchronizerBuilder, ViewOutcome};
        use eve_hypergraph::{RelSet, INLINE_BITS};

        let cfg = SynthConfig {
            n_relations: 300,
            topology: Topology::Random { extra: 24 },
            cover_count: 3,
            view_relations: 3,
            ..SynthConfig::default()
        };
        let w = SynthWorkload::random(&cfg, 11);
        assert!(w.mkb.relation_count() > INLINE_BITS);
        assert!(
            !RelSet::with_universe(w.mkb.relation_count()).is_inline(),
            "a {}-relation universe must use the heap representation",
            w.mkb.relation_count()
        );

        // The low-level search path.
        let mkb2 = evolve(&w.mkb, &w.delete_change()).unwrap();
        let reps = cvs_delete_relation(&w.view, &w.target, &w.mkb, &mkb2, &CvsOptions::default());
        assert!(reps.is_ok(), "{reps:?}");
        assert!(!reps.unwrap().is_empty());

        // The full synchronizer pipeline (default incremental index
        // maintenance) on the same workload.
        let mut s = SynchronizerBuilder::new(w.mkb.clone())
            .with_view(w.view.clone())
            .expect("synthetic view is valid")
            .build();
        let outcome = s.apply(&w.delete_change()).expect("change applies");
        assert!(
            matches!(outcome.views[0].1, ViewOutcome::Rewritten { .. }),
            "{:?}",
            outcome.views[0].1
        );
        assert!(!s.views().next().unwrap().uses_relation(&w.target));
    }

    #[test]
    fn builder_reports_colliding_declaration() {
        let mut b = MkbBuilder::new();
        b.relation(describe(&RelName::new("R0"), 1)).unwrap();
        let err = b.relation(describe(&RelName::new("R0"), 1)).unwrap_err();
        assert_eq!(err.kind, "relation");
        assert_eq!(err.id, "R0");
        assert!(err.to_string().contains("R0"), "{err}");

        b.relation(describe(&RelName::new("R1"), 1)).unwrap();
        b.join(key_join("J0", &RelName::new("R0"), &RelName::new("R1")))
            .unwrap();
        let err = b
            .join(key_join("J0", &RelName::new("R1"), &RelName::new("R0")))
            .unwrap_err();
        assert_eq!((err.kind, err.id.as_str()), ("join", "J0"));
    }

    #[test]
    fn try_generators_match_panicking_forms() {
        let a = SynthWorkload::try_chain(3, true).expect("chain builds");
        let b = SynthWorkload::chain(3, true);
        assert_eq!(a.view, b.view);
        assert_eq!(a.target, b.target);
        let a = SynthWorkload::try_wide_mkb(2, 2).expect("wide builds");
        assert_eq!(a.target, RelName::new("T"));
        let cfg = SynthConfig::default();
        let a = SynthWorkload::try_random(&cfg, 7).expect("random builds");
        let b = SynthWorkload::random(&cfg, 7);
        assert_eq!(a.view, b.view);
    }

    #[test]
    fn database_respects_pc_and_funcofs() {
        let w = SynthWorkload::chain(2, true);
        let db = w.database(9, 50, 0.7);
        let t = db.get(&RelName::new("T")).unwrap();
        let cov = db.get(&RelName::new("Cov")).unwrap();
        // PC enforced: T's keys ⊆ Cov's keys; and since payloads are a
        // global function of the key, (k, v) tuples are subset too.
        assert!(t.row_set().is_subset(cov.row_set()));
        assert!(!cov.is_empty());
    }

    #[test]
    fn database_coverage_scales() {
        let w = SynthWorkload::chain(1, false);
        let sparse = w.database(1, 100, 0.2);
        let dense = w.database(1, 100, 0.9);
        let name = RelName::new("W");
        assert!(sparse.get(&name).unwrap().len() < dense.get(&name).unwrap().len());
    }
}

//! The **R-mapping** of a view into the sub-hypergraph `H_R(MKB)`
//! (Def. 2 of the paper).
//!
//! Given a view `V` referring to relation `R`, the R-mapping splits `V`
//! into
//!
//! ```text
//! V = π_{B_V}( σ_{C_Max/Min}( Min(H_R) ) ⋈_{C_Rest} Rest )
//!     └────────────────┬────────────────┘
//!                  Max(V_R)
//! ```
//!
//! * `Max(V_R)` — the *maximal* join of FROM-clause relations containing
//!   `R` whose join conditions imply corresponding MKB join constraints
//!   (property III: `Max(V_R) ⊆ Min(H_R)`);
//! * `Min(H_R)` — the *minimal* MKB join expression over those relations
//!   (a spanning tree of implied join constraints);
//! * `C_Max/Min` — the residual selection (Eq. 9) applied on top of
//!   `Min(H_R)` to recover `Max(V_R)`;
//! * `Rest`, `C_Rest` — the rest of the view, untouched by the rewriting.
//!
//! As the paper notes after Def. 2, it suffices that each join constraint
//! `JC_{S,S'}` of `Min(H_R)` is implied by the view's join condition
//! `C_{S,S'}`. We test implication against the *full* WHERE conjunction
//! (a sound, strictly more complete premise that also recognises
//! transitive equality chains); the implication strength is configurable
//! ([`crate::options::ImplicationMode`]).

use crate::options::{CvsOptions, ImplicationMode};
use eve_esql::{CondItem, ViewDefinition};
use eve_hypergraph::{Hypergraph, RelId};
use eve_misd::JoinConstraint;
use eve_relational::{Clause, RelName};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// The computed R-mapping (Def. 2): `(Max(V_R), Min(H_R))` plus the
/// partition of the view's conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct RMapping {
    /// The relation being dropped, `R`.
    pub target: RelName,
    /// Relations of `Max(V_R)` / `Min(H_R)` (they share the relation set;
    /// includes `R`).
    pub max_relations: BTreeSet<RelName>,
    /// The join constraints of `Min(H_R)` — a spanning tree of the
    /// implied-constraint graph over `max_relations`. Each is the MKB's
    /// own `Arc` (held by `H_R`), shared, not copied.
    pub min_joins: Vec<Arc<JoinConstraint>>,
    /// `C_Max/Min`: the view's conditions over `max_relations` that are
    /// not absorbed by (identical to) a clause of `min_joins`. Evolution
    /// parameters are preserved for Step 4/5.
    pub c_max_min: Vec<CondItem>,
    /// FROM-clause relations outside `Max(V_R)`.
    pub rest_relations: BTreeSet<RelName>,
    /// `C_Rest`: every other view condition (conditions over `Rest` and
    /// conditions crossing the `Max`/`Rest` boundary).
    pub c_rest: Vec<CondItem>,
}

/// Does the view's WHERE conjunction imply `target` under the given mode?
///
/// `Interval` mode uses the full conjunction machinery (clause
/// implication with interval subsumption plus equality-congruence
/// closure: `A = B AND B = C ⊢ A = C`); `Syntactic` restricts to
/// normalised-equality matching, the weakest sufficient test of Def. 2.
fn clause_implied(
    facts: &eve_relational::Conjunction,
    congruence: &eve_relational::Congruence<'_>,
    target: &Clause,
    mode: ImplicationMode,
) -> bool {
    match mode {
        ImplicationMode::Syntactic => {
            let t = target.normalized_parts();
            facts.clauses().iter().any(|c| c.normalized_parts() == t)
        }
        ImplicationMode::Interval => facts.implies_clause_cached(congruence, target),
    }
}

/// Compute the R-mapping of `view` with respect to dropping `target`,
/// searching the connected sub-hypergraph `h_r = H_R(MKB)`.
///
/// `h_r` must be the component of `H(MKB)` containing `target`
/// ([`Hypergraph::component_of`]); view relations outside `h_r` can never
/// be part of `Max(V_R)` and fall into `Rest`.
pub fn compute_r_mapping(
    view: &ViewDefinition,
    target: &RelName,
    h_r: &Hypergraph,
    opts: &CvsOptions,
) -> RMapping {
    let from_rels: Vec<RelName> = view.relations();

    // 1. Build the implied-edge graph over the view's FROM relations:
    //    (S, S') is an edge when some MKB join constraint between S and S'
    //    is implied by the view's WHERE conjunction. (Def. 2 states the
    //    per-pair condition C_{S,S'} ⊢ JC_{S,S'} as *sufficient*; the
    //    full conjunction is a sound, strictly more complete premise —
    //    it recognises transitive joins like A.x = B.y AND B.y = C.z
    //    implying JC_{A,C}: A.x = C.z.)
    let facts = view.where_conjunction();
    // Equality closure of the WHERE conjunction, built once for every
    // pair × constraint-clause implication probe below.
    let congruence = facts.congruence();
    let mut edges: BTreeMap<(RelName, RelName), Arc<JoinConstraint>> = BTreeMap::new();
    // Each FROM relation is interned into `H_R` once; relations outside
    // it have no id and join nothing.
    let ids: Vec<Option<RelId>> = from_rels.iter().map(|r| h_r.rel_id(r)).collect();
    for (i, s1) in from_rels.iter().enumerate() {
        for (j, s2) in from_rels.iter().enumerate().skip(i + 1) {
            let (Some(a), Some(b)) = (ids[i], ids[j]) else {
                continue;
            };
            if facts.is_empty() {
                continue;
            }
            // The constraints between the pair, in declaration order:
            // `a`'s CSR edges to `b`, so a pair costs `a`'s degree, not
            // a scan of every join in the component.
            let between = h_r
                .neighbors(a)
                .filter(|&(n, _)| n == b)
                .map(|(_, e)| &h_r.joins()[e as usize]);
            for jc in between {
                let all_implied = jc
                    .predicate
                    .clauses()
                    .iter()
                    .all(|c| clause_implied(&facts, &congruence, c, opts.implication));
                if all_implied {
                    edges.insert((s1.clone(), s2.clone()), Arc::clone(jc));
                    break; // first implied constraint wins (deterministic)
                }
            }
        }
    }

    // 2. BFS closure from R over implied edges → Max(V_R); the BFS tree
    //    edges are Min(H_R) (minimal by construction: removing any tree
    //    edge disconnects the relation set).
    let mut max_relations: BTreeSet<RelName> = BTreeSet::new();
    let mut min_joins: Vec<Arc<JoinConstraint>> = Vec::new();
    max_relations.insert(target.clone());
    let mut queue = VecDeque::from([target.clone()]);
    while let Some(cur) = queue.pop_front() {
        for ((a, b), jc) in &edges {
            let next = if a == &cur {
                b
            } else if b == &cur {
                a
            } else {
                continue;
            };
            if max_relations.insert(next.clone()) {
                min_joins.push(Arc::clone(jc));
                queue.push_back(next.clone());
            }
        }
    }

    // 3. Partition the view's conditions. A clause is absorbed when its
    //    normalisation equals that of a Min(H_R) clause.
    let absorbed: Vec<_> = min_joins
        .iter()
        .flat_map(|j| j.predicate.clauses().iter().map(Clause::normalized_parts))
        .collect();
    let mut c_max_min = Vec::new();
    let mut c_rest = Vec::new();
    for cond in &view.conditions {
        if cond
            .clause
            .all_attrs(&mut |a| max_relations.contains(&a.relation))
        {
            if absorbed.contains(&cond.clause.normalized_parts()) {
                continue; // already expressed by Min(H_R)
            }
            c_max_min.push(cond.clone());
        } else {
            c_rest.push(cond.clone());
        }
    }

    let rest_relations = from_rels
        .into_iter()
        .filter(|r| !max_relations.contains(r))
        .collect();

    RMapping {
        target: target.clone(),
        max_relations,
        min_joins,
        c_max_min,
        rest_relations,
        c_rest,
    }
}

/// Compute the R-mapping against a prebuilt [`crate::MkbIndex`]: `H_R` is the
/// component of `H(MKB)` containing `target`, extracted once per index
/// and shared by every view, so no hypergraph is rebuilt per view.
///
/// # Panics
///
/// Panics when `target` is not described in the MKB the index was built
/// from.
pub fn r_mapping_with_index(
    view: &ViewDefinition,
    target: &RelName,
    index: &crate::index::MkbIndex<'_>,
    opts: &CvsOptions,
) -> RMapping {
    let h_r = index
        .component_of(target)
        .expect("target relation must be described in the MKB");
    compute_r_mapping(view, target, &h_r, opts)
}

impl RMapping {
    /// The relations of `Min(H'_R)`: what survives dropping `R`
    /// (Def. 3 III).
    pub fn surviving_relations(&self) -> BTreeSet<RelName> {
        self.max_relations
            .iter()
            .filter(|r| **r != self.target)
            .cloned()
            .collect()
    }

    /// The join constraints of `Min(H_R)` that do not touch `R` — these
    /// must all appear in any candidate replacement (Def. 3 III). The
    /// `Arc`s of [`RMapping::min_joins`], shared.
    pub fn surviving_joins(&self) -> Vec<Arc<JoinConstraint>> {
        self.min_joins
            .iter()
            .filter(|j| !j.touches(&self.target))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_misd::{parse_misd, MetaKnowledgeBase};

    /// The travel-agency MKB slice relevant to Examples 5–10.
    fn mkb() -> MetaKnowledgeBase {
        parse_misd(
            "RELATION IS1 Customer(Name str, Addr str, Phone str, Age int)
             RELATION IS2 Tour(TourID str, TourName str, Type str, NoDays int)
             RELATION IS3 Participant(Participant str, TourID str, StartDate date, Loc str)
             RELATION IS4 FlightRes(PName str, Airline str, FlightNo int, Source str, Dest str, Date date)
             RELATION IS5 Accident-Ins(Holder str, Type str, Amount int, Birthday date)
             RELATION IS6 Hotels(City str, Address str, PhoneNumber str)
             RELATION IS7 RentACar(Company str, City str, PhoneNumber str, Location str)
             JOIN JC1: Customer, FlightRes ON Customer.Name = FlightRes.PName
             JOIN JC2: Customer, Accident-Ins ON Customer.Name = Accident-Ins.Holder AND Customer.Age > 1
             JOIN JC3: Customer, Participant ON Customer.Name = Participant.Participant
             JOIN JC4: Participant, Tour ON Participant.TourID = Tour.TourID
             JOIN JC5: Hotels, RentACar ON Hotels.Address = RentACar.Location
             JOIN JC6: FlightRes, Accident-Ins ON FlightRes.PName = Accident-Ins.Holder",
        )
        .unwrap()
    }

    /// Eq. (5): Customer-Passengers-Asia.
    fn view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW Customer-Passengers-Asia AS
             SELECT C.Name (false, true), C.Age (true, true),
                    P.Participant (true, true), P.TourID (true, true)
             FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
             WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia')
               AND (P.StartDate = F.Date) AND (P.Loc = 'Asia')",
        )
        .unwrap()
    }

    #[test]
    fn example_8_r_mapping() {
        // Paper Ex. 8: Max(V_Customer) = FlightRes ⋈ Customer with
        // C_Max/Min = (FlightRes.Dest = 'Asia'); Participant is in Rest
        // because the view joins it on StartDate = Date, which does NOT
        // imply any MKB join constraint.
        let m = mkb();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&m);
        let h_r = h.component_of(&customer).unwrap();
        let rm = compute_r_mapping(&view(), &customer, &h_r, &CvsOptions::default());

        assert_eq!(
            rm.max_relations,
            [RelName::new("Customer"), RelName::new("FlightRes")]
                .into_iter()
                .collect()
        );
        assert_eq!(rm.min_joins.len(), 1);
        assert_eq!(rm.min_joins[0].id, "JC1");
        // C_Max/Min = (F.Dest = 'Asia') — the join clause is absorbed.
        assert_eq!(rm.c_max_min.len(), 1);
        assert!(rm.c_max_min[0].clause.to_string().contains("Dest"));
        // Rest = {Participant} with the two Participant conditions.
        assert_eq!(
            rm.rest_relations,
            [RelName::new("Participant")].into_iter().collect()
        );
        assert_eq!(rm.c_rest.len(), 2);
        // Survivors.
        assert_eq!(
            rm.surviving_relations(),
            [RelName::new("FlightRes")].into_iter().collect()
        );
        assert!(rm.surviving_joins().is_empty());
    }

    #[test]
    fn stronger_view_condition_implies_jc2() {
        // A view joining Customer with Accident-Ins using Age > 21 implies
        // JC2 (which requires Age > 1) only in Interval mode.
        let m = mkb();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&m);
        let h_r = h.component_of(&customer).unwrap();
        let v = parse_view(
            "CREATE VIEW V AS
             SELECT C.Name, C.Age, A.Amount
             FROM Customer C, Accident-Ins A
             WHERE (C.Name = A.Holder) AND (C.Age > 21)",
        )
        .unwrap();

        let rm = compute_r_mapping(&v, &customer, &h_r, &CvsOptions::default());
        assert_eq!(rm.max_relations.len(), 2);
        assert_eq!(rm.min_joins[0].id, "JC2");
        // Age > 21 is NOT absorbed (JC2 only has Age > 1) — it stays in
        // C_Max/Min to preserve Eq. (9).
        assert!(rm
            .c_max_min
            .iter()
            .any(|c| c.clause.to_string().contains("21")));

        // Syntactic-only implication misses JC2.
        let syntactic = CvsOptions {
            implication: ImplicationMode::Syntactic,
            ..CvsOptions::default()
        };
        let rm2 = compute_r_mapping(&v, &customer, &h_r, &syntactic);
        assert_eq!(rm2.max_relations.len(), 1);
        assert!(rm2.min_joins.is_empty());
    }

    #[test]
    fn isolated_relation_yields_singleton_mapping() {
        let m = mkb();
        let hotels = RelName::new("Hotels");
        let h = Hypergraph::build(&m);
        let h_r = h.component_of(&hotels).unwrap();
        let v = parse_view(
            "CREATE VIEW V AS SELECT H.City, C.Name FROM Hotels H, Customer C
             WHERE H.City = C.Addr",
        )
        .unwrap();
        // Customer is not in Hotels' component; no MKB constraint backs
        // the H.City = C.Addr join.
        let rm = compute_r_mapping(&v, &hotels, &h_r, &CvsOptions::default());
        assert_eq!(rm.max_relations.len(), 1);
        assert_eq!(rm.rest_relations.len(), 1);
        assert_eq!(rm.c_rest.len(), 1);
    }

    #[test]
    fn three_relation_chain_mapping() {
        // View joins Customer—FlightRes—Accident-Ins along JC1 and JC6;
        // dropping Customer must keep FlightRes ⋈ Accident-Ins (JC6) as
        // the surviving join.
        let m = mkb();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&m);
        let h_r = h.component_of(&customer).unwrap();
        let v = parse_view(
            "CREATE VIEW V AS
             SELECT C.Name, F.PName, A.Holder
             FROM Customer C, FlightRes F, Accident-Ins A
             WHERE (C.Name = F.PName) AND (F.PName = A.Holder)",
        )
        .unwrap();
        let rm = compute_r_mapping(&v, &customer, &h_r, &CvsOptions::default());
        assert_eq!(rm.max_relations.len(), 3);
        assert_eq!(rm.min_joins.len(), 2);
        let surviving = rm.surviving_joins();
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].id, "JC6");
        assert!(rm.c_max_min.is_empty()); // both clauses absorbed
    }
}

#[cfg(test)]
mod congruence_tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_misd::parse_misd;

    /// A view that equates A.x = B.y and B.y = C.z; the MKB's join
    /// constraint between A and C equates A.x = C.z directly. The
    /// congruence-aware implication must recognise the view's conditions
    /// as implying the constraint, pulling C into Max(V_A).
    #[test]
    fn transitive_equalities_extend_the_mapping() {
        let mkb = parse_misd(
            "RELATION IS1 A(x int)
             RELATION IS2 B(y int)
             RELATION IS3 C(z int)
             JOIN JAB: A, B ON A.x = B.y
             JOIN JAC: A, C ON A.x = C.z",
        )
        .unwrap();
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.x, B.y, C.z FROM A, B, C
             WHERE (A.x = B.y) AND (B.y = C.z)",
        )
        .unwrap();
        let a = RelName::new("A");
        let h = Hypergraph::build(&mkb);
        let h_r = h.component_of(&a).unwrap();
        let rm = compute_r_mapping(&view, &a, &h_r, &CvsOptions::default());
        assert_eq!(
            rm.max_relations.len(),
            3,
            "C must join Max(V_A) through the congruence A.x = B.y = C.z: {rm:?}"
        );
    }
}

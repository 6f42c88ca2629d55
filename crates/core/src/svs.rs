//! The **SVS baseline**: the *simple* "one-step-away" view rewriting of
//! the authors' earlier work (\[4\] CASCON'97, \[12\] KRDB'97), against which
//! the paper positions CVS:
//!
//! > "rather than just providing simple so-called 'one-step-away' view
//! > rewritings [4, 12], our solution succeeds in determining possibly
//! > complex view rewrites through multiple join constraints given in
//! > the MKB."
//!
//! SVS only considers replacements reachable by a *single* join
//! constraint from the surviving view fragment — no chains, no Steiner
//! relations. It is implemented as CVS restricted to one-hop attachment
//! paths ([`CvsOptions::svs_baseline`]), which makes the comparison
//! experiments (`sweep-chain`) an exact ablation: the two algorithms
//! differ in nothing but the search radius.

use crate::error::CvsError;
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::options::CvsOptions;
use crate::rewrite::cvs_delete_relation_searched;
use eve_esql::ViewDefinition;
use eve_relational::RelName;

/// Synchronize `view` under `delete-relation target` using only
/// one-step-away rewritings, against a prebuilt [`MkbIndex`]: `opts` is
/// the caller's configuration; only the search radius is clamped to one
/// hop and — SVS being defined as an *exhaustive* one-step search — any
/// [`CvsOptions::deadline`] is stripped, matching
/// [`CvsOptions::svs_baseline`].
pub fn svs_delete_relation_indexed(
    view: &ViewDefinition,
    target: &RelName,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let svs_opts = CvsOptions {
        max_path_edges: 1,
        deadline: None,
        ..*opts
    };
    cvs_delete_relation_searched(view, target, index, &svs_opts, false, None).map(|r| r.rewritings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_misd::{evolve, parse_misd, CapabilityChange};

    #[test]
    fn svs_finds_direct_replacements() {
        // Accident-Ins is one JC hop (JC6) from FlightRes: SVS succeeds on
        // the paper's running example.
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS SELECT C.Name (false, true), F.Dest
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName)",
        )
        .unwrap();
        assert!(crate::testutil::svs_dr(&view, &customer, &mkb, &mkb2).is_ok());
    }

    #[test]
    fn diamond_mkb_yields_alternative_rewritings() {
        // Cover D is reachable from B via two routes (B—X—D and B—Y—D):
        // CVS must propose one rewriting per route.
        let mkb = parse_misd(
            "RELATION IS1 A(x str, k str)
             RELATION IS2 B(k str, y str)
             RELATION IS3 X(k str)
             RELATION IS4 Y(k str)
             RELATION IS5 D(x str, k str)
             JOIN J0: A, B ON A.k = B.k
             JOIN J1: B, X ON B.k = X.k
             JOIN J2: X, D ON X.k = D.k
             JOIN J3: B, Y ON B.k = Y.k
             JOIN J4: Y, D ON Y.k = D.k
             FUNCOF F1: A.x = D.x
             FUNCOF F2: A.k = D.k",
        )
        .unwrap();
        let a = RelName::new("A");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(a.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.x (false, true), A.k (true, true), B.y
             FROM A, B WHERE (A.k = B.k)",
        )
        .unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &a, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let via_x = rewritings
            .iter()
            .any(|r| r.view.uses_relation(&RelName::new("X")));
        let via_y = rewritings
            .iter()
            .any(|r| r.view.uses_relation(&RelName::new("Y")));
        assert!(via_x && via_y, "{rewritings:#?}");
    }

    #[test]
    fn nojoin_cover_excluded_when_capabilities_respected() {
        // D covers A's attributes but advertises NOJOIN: D is not a
        // vertex of H', so the rewriting must fail.
        let mkb = parse_misd(
            "RELATION IS1 A(x str, k str)
             RELATION IS2 B(k str, y str)
             RELATION IS4 D(x str, k str) NOJOIN
             JOIN J1: A, B ON A.k = B.k
             JOIN J3: B, D ON B.k = D.k
             FUNCOF F1: A.x = D.x
             FUNCOF F2: A.k = D.k",
        )
        .unwrap();
        let a = RelName::new("A");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(a.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.x (false, true), A.k (true, true), B.y FROM A, B WHERE (A.k = B.k)",
        )
        .unwrap();
        let strict = crate::testutil::cvs_dr(&view, &a, &mkb, &mkb2, &CvsOptions::default());
        assert!(strict.is_err(), "{strict:?}");
    }

    #[test]
    fn svs_fails_where_cvs_succeeds_on_two_hop_chain() {
        // Chain A—B—C—D: the view joins A with B; A's attribute is covered
        // only by D, two hops from B. CVS chains JC2, JC3; SVS gives up.
        let mkb = parse_misd(
            "RELATION IS1 A(x str, k str)
             RELATION IS2 B(k str, y str)
             RELATION IS3 C(k str, z str)
             RELATION IS4 D(x str, k str)
             JOIN J1: A, B ON A.k = B.k
             JOIN J2: B, C ON B.k = C.k
             JOIN J3: C, D ON C.k = D.k
             FUNCOF F1: A.x = D.x
             FUNCOF F2: A.k = D.k",
        )
        .unwrap();
        let a = RelName::new("A");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(a.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.x (false, true), B.y FROM A, B WHERE (A.k = B.k)",
        )
        .unwrap();

        let cvs = crate::testutil::cvs_dr(&view, &a, &mkb, &mkb2, &CvsOptions::default());
        assert!(cvs.is_ok(), "{cvs:?}");
        let cvs = cvs.unwrap();
        // CVS routes B—C—D and substitutes A.x → D.x.
        assert!(cvs[0].view.to_string().contains("D.x"));

        let svs = crate::testutil::svs_dr(&view, &a, &mkb, &mkb2);
        assert!(matches!(svs, Err(CvsError::Disconnected)), "{svs:?}");
    }
}

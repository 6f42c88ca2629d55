//! The digital-library information space — the paper's second §1
//! motivation ("advanced applications such as web-based information
//! services, **digital libraries**, and data mining"). Five autonomous
//! sources: a catalog, a publisher feed, a citation index, a full-text
//! archive and an author registry.
//!
//! The MISD text is shared verbatim with `fixtures/library.misd` (the
//! CLI fixture) via `include_str!`, so the programmatic and command-line
//! views of this space can never drift apart.

use eve_esql::{parse_views, ViewDefinition};
use eve_misd::{parse_misd, MetaKnowledgeBase};

/// The MISD description of the library space (see `fixtures/library.misd`).
pub const LIBRARY_MISD: &str = include_str!("../../../fixtures/library.misd");

/// The warehouse views over the library space
/// (see `fixtures/library_views.esql`).
pub const LIBRARY_VIEWS: &str = include_str!("../../../fixtures/library_views.esql");

/// The digital-library fixture.
#[derive(Debug, Clone)]
pub struct LibraryFixture {
    mkb: MetaKnowledgeBase,
}

impl LibraryFixture {
    /// Parse the canonical MISD description.
    pub fn new() -> Self {
        LibraryFixture {
            mkb: parse_misd(LIBRARY_MISD).expect("library MISD text is well-formed"),
        }
    }

    /// The meta knowledge base.
    pub fn mkb(&self) -> &MetaKnowledgeBase {
        &self.mkb
    }

    /// The warehouse views (`Cited-Books`, `Online-Texts`).
    pub fn views() -> Vec<ViewDefinition> {
        parse_views(LIBRARY_VIEWS).expect("library views are well-formed")
    }
}

impl Default for LibraryFixture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_core::{
        cvs_delete_relation_indexed, CvsError, CvsOptions, ExtentVerdict, LegalRewriting, MkbIndex,
    };
    use eve_esql::ViewDefinition;
    use eve_misd::MetaKnowledgeBase;

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
    use eve_misd::{check_mkb, evolve, CapabilityChange};
    use eve_relational::RelName;

    #[test]
    fn fixture_is_well_formed() {
        let f = LibraryFixture::new();
        assert_eq!(f.mkb().relation_count(), 5);
        assert_eq!(f.mkb().joins().len(), 6);
        assert_eq!(f.mkb().function_ofs().len(), 4);
        assert_eq!(f.mkb().pcs().len(), 1);
        assert!(check_mkb(f.mkb()).is_empty());
        let views = LibraryFixture::views();
        assert_eq!(views.len(), 2);
        for v in &views {
            assert!(eve_esql::validate_view(v).is_empty(), "{}", v.name);
        }
    }

    #[test]
    fn cited_books_survives_catalog_withdrawal_with_certificate() {
        // The catalog IS withdraws Book; Cited-Books reroutes through the
        // publisher feed with the LP1 PC certificate (VE = ⊇).
        let f = LibraryFixture::new();
        let book = RelName::new("Book");
        let mkb2 = evolve(f.mkb(), &CapabilityChange::DeleteRelation(book.clone())).unwrap();
        let cited = LibraryFixture::views()
            .into_iter()
            .find(|v| v.name == "Cited-Books")
            .expect("fixture view");
        let rewritings =
            cvs_delete_relation(&cited, &book, f.mkb(), &mkb2, &CvsOptions::default()).unwrap();
        let best = &rewritings[0];
        assert_eq!(best.verdict, ExtentVerdict::Superset);
        assert!(best.satisfies_p3);
        let text = best.view.to_string();
        assert!(text.contains("Publication.PubTitle"), "{text}");
        assert!(
            text.contains("Publication.ISBN = Citation.CitedISBN")
                || text.contains("Citation.CitedISBN = Publication.ISBN"),
            "{text}"
        );
    }

    #[test]
    fn online_texts_frozen_uri_is_kept_verbatim() {
        // Online-Texts pins F.Uri (AD=false, AR=false): deleting FullText
        // must disable it (nothing may replace the URI), while deleting
        // Book keeps it alive (Book components are dispensable).
        let f = LibraryFixture::new();
        let online = LibraryFixture::views()
            .into_iter()
            .find(|v| v.name == "Online-Texts")
            .expect("fixture view");

        let ft = RelName::new("FullText");
        let mkb2 = evolve(f.mkb(), &CapabilityChange::DeleteRelation(ft.clone())).unwrap();
        assert!(cvs_delete_relation(&online, &ft, f.mkb(), &mkb2, &CvsOptions::default()).is_err());

        let book = RelName::new("Book");
        let mkb2 = evolve(f.mkb(), &CapabilityChange::DeleteRelation(book.clone())).unwrap();
        let rewritings =
            cvs_delete_relation(&online, &book, f.mkb(), &mkb2, &CvsOptions::default()).unwrap();
        assert!(rewritings[0].view.to_string().contains("FullText.Uri"));
    }
}

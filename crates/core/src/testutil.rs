//! Shared fixtures for the crate's unit tests: the travel-agency MKB of
//! Fig. 2 of the paper.

use eve_misd::{parse_misd, MetaKnowledgeBase};

/// The full travel-agency MKB of Fig. 2 (relations, join constraints
/// JC1–JC6 and function-of constraints F1–F7).
pub(crate) fn travel_mkb() -> MetaKnowledgeBase {
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
         JOIN JC6: FlightRes, Accident-Ins ON FlightRes.PName = Accident-Ins.Holder
         FUNCOF F1: Customer.Name = FlightRes.PName
         FUNCOF F2: Customer.Name = Accident-Ins.Holder
         FUNCOF F3: Customer.Age = (today() - Accident-Ins.Birthday) / 365
         FUNCOF F4: Customer.Name = Participant.Participant
         FUNCOF F5: Participant.TourID = Tour.TourID
         FUNCOF F6: Hotels.Address = RentACar.Location
         FUNCOF F7: Hotels.City = RentACar.City",
    )
    .unwrap()
}

use crate::error::CvsError;
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::options::CvsOptions;
use eve_esql::ViewDefinition;
use eve_relational::RelName;

/// Test shorthand: build a throwaway per-change index and run CVS
/// delete-relation (what the removed non-indexed wrapper used to do).
pub(crate) fn cvs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &eve_misd::MetaKnowledgeBase,
    mkb_prime: &eve_misd::MetaKnowledgeBase,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let index = MkbIndex::new(mkb, mkb_prime);
    crate::rewrite::cvs_delete_relation_indexed(view, target, &index, opts)
}

/// Test shorthand for the SVS baseline (one-hop search radius).
pub(crate) fn svs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &eve_misd::MetaKnowledgeBase,
    mkb_prime: &eve_misd::MetaKnowledgeBase,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let opts = CvsOptions::svs_baseline();
    let index = MkbIndex::new(mkb, mkb_prime);
    crate::svs::svs_delete_relation_indexed(view, target, &index, &opts)
}

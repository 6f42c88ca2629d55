//! Allocation probes for the id-level enumeration core and for MKB
//! evolution.
//!
//! Lives in its own test binary because `#[global_allocator]` is
//! process-global: a counting allocator here would skew every other
//! test's timing, and another binary's allocator would skew this one.
//! Counts are kept per thread, so tests running in parallel do not
//! count each other's allocations.
//!
//! Evolution: `evolve` copies only what a change mentions, so a change
//! to a payload attribute no constraint mentions allocates the same
//! bytes however many join constraints the MKB holds, and barely more
//! however many relations it describes: the relation map and the
//! hypergraph interner copy one chunk and the chunk spine per edit.
//!
//! Index maintenance: `MkbDelta::compute` and `IndexCore::apply_delta`
//! patch the cover map per touched key, so a change to one covered
//! attribute allocates about the same bytes however many function-ofs
//! the MKB holds. On a federation of small components, a relation-level
//! change or a change to a join attribute patches one shard, a chunk of
//! each map and list it edits, and their spines: `evolve`, `compute` and
//! `apply_delta` together allocate barely more at 16x the relations.
//!
//! Enumeration: `TreeCursor::advance` allocates nothing in the steady
//! state. Concretely —
//!
//! * the greedy/swap arm (≥ 3 terminals) is *strictly* zero-allocation
//!   per advance once the cursor is built: emitting a swap variant is
//!   pure index arithmetic into scratch buffers sized at construction;
//! * the two-terminal best-first arm reuses fixed-width `IdPartial`s
//!   (inline arrays + inline bitset for ≤ 256 relations) and only
//!   touches the heap when the frontier `BinaryHeap` outgrows its
//!   capacity — so once the frontier passes its high-water mark, every
//!   later advance is allocation-free.
//!
//! `TreeCursor`'s `Iterator::next` = `advance` + `materialize`; the
//! materialization boundary allocates the owned string-keyed tree by
//! design, which is why the probe pins the id-level core.

use eve_core::{IndexCore, MkbDelta};
use eve_hypergraph::{Hypergraph, Interner};
use eve_misd::{evolve, CapabilityChange, FunctionOf, JoinConstraint, MetaKnowledgeBase};
use eve_relational::{
    AttrName, AttrRef, AttributeDef, Clause, Conjunction, DataType, RelName, ScalarExpr,
};
use eve_workload::{SynthConfig, SynthWorkload, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: safe to touch from
    // inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations this thread performed while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes this thread allocated while running `f`.
fn bytes_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn rel(n: &str) -> RelName {
    RelName::new(n)
}

fn describe(name: &str) -> eve_misd::RelationDescription {
    eve_misd::RelationDescription::new(
        format!("IS_{name}"),
        rel(name),
        vec![AttributeDef::new("k", DataType::Int)],
    )
}

/// A chain of 64 relations `(k, v0)` joined on `k`, each link declared
/// `parallel` times.
fn chain_mkb(parallel: usize) -> MetaKnowledgeBase {
    let mut mkb = MetaKnowledgeBase::new();
    let names: Vec<String> = (0..64).map(|i| format!("R{i:02}")).collect();
    for name in &names {
        let mut d = describe(name);
        d.attrs.push(AttributeDef::new("v0", DataType::Str));
        mkb.add_relation(d).expect("fresh relation");
    }
    for (i, pair) in names.windows(2).enumerate() {
        for p in 0..parallel {
            mkb.add_join(jc(&format!("j{i}_{p}"), &pair[0], &pair[1]))
                .expect("fresh join");
        }
    }
    mkb
}

/// `evolve` cost does not grow with the constraint count: changes to a
/// payload attribute no join mentions allocate the same bytes on an MKB
/// with 8× the join constraints.
#[test]
fn evolve_allocation_is_independent_of_constraint_count() {
    let (sparse, dense) = (chain_mkb(1), chain_mkb(8));
    assert_eq!(dense.joins().len(), 8 * sparse.joins().len());
    let changes = [
        CapabilityChange::AddAttribute {
            relation: rel("R10"),
            attr: AttributeDef::new("v1", DataType::Int),
        },
        CapabilityChange::RenameAttribute {
            from: AttrRef::new("R10", "v0"),
            to: AttrName::new("w0"),
        },
    ];
    for change in &changes {
        let (on_sparse, _) = bytes_in(|| evolve(&sparse, change).expect("admissible"));
        let (on_dense, _) = bytes_in(|| evolve(&dense, change).expect("admissible"));
        assert!(on_sparse > 0, "{change}: the probe counted nothing");
        assert_eq!(
            on_sparse, on_dense,
            "{change}: evolve allocated more with 8x the join constraints"
        );
    }
}

/// `n` relations `R00000, R00001, …` of attributes `(k, v0)`.
fn described(n: usize) -> (MetaKnowledgeBase, Vec<RelName>) {
    let mut mkb = MetaKnowledgeBase::new();
    let names: Vec<RelName> = (0..n).map(|i| rel(&format!("R{i:05}"))).collect();
    for name in &names {
        let mut d = describe(name.as_str());
        d.attrs.push(AttributeDef::new("v0", DataType::Str));
        mkb.add_relation(d).expect("fresh relation");
    }
    (mkb, names)
}

/// Evolution and vertex-level interner maintenance cost what they touch,
/// not the relation count: with 16x the relations, an add-attribute
/// `evolve` and `Interner::with_inserted` allocate at most 2x the bytes.
#[test]
fn evolution_allocation_is_sublinear_in_relations() {
    let (small, small_names) = described(1_024);
    let (large, large_names) = described(16 * 1_024);
    let add_attr = |names: &[RelName]| CapabilityChange::AddAttribute {
        relation: names[names.len() / 2].clone(),
        attr: AttributeDef::new("v1", DataType::Int),
    };
    let change = add_attr(&small_names);
    let (on_small, _) = bytes_in(|| evolve(&small, &change).expect("admissible"));
    let change = add_attr(&large_names);
    let (on_large, _) = bytes_in(|| evolve(&large, &change).expect("admissible"));
    assert!(on_small > 0, "the probe counted nothing");
    assert!(
        on_large <= 2 * on_small,
        "add-attribute evolve: {on_large} bytes at 16x the relations, {on_small} at 1x"
    );

    // A name between two existing ones, in the middle chunk.
    let insert = |names: &[RelName]| {
        let interner = Interner::from_sorted(names.iter().cloned());
        let name = rel(&format!("{}a", names[names.len() / 2]));
        bytes_in(|| interner.with_inserted(&name).expect("fresh name")).0
    };
    let (on_small, on_large) = (insert(&small_names), insert(&large_names));
    assert!(on_small > 0, "the probe counted nothing");
    assert!(
        on_large <= 2 * on_small,
        "Interner::with_inserted: {on_large} bytes at 16x the relations, {on_small} at 1x"
    );
}

/// A ring of 128 relations `(k, v0..v7, w)` joined on `k`, where each
/// of the first `per_relation` payload attributes `v0, v1, …` of every
/// relation is covered by one function-of from the next relation's `w`.
fn covered_mkb(per_relation: usize) -> MetaKnowledgeBase {
    let n = 128;
    let names: Vec<String> = (0..n).map(|i| format!("R{i:03}")).collect();
    let mut mkb = MetaKnowledgeBase::new();
    for name in &names {
        let mut d = describe(name);
        for j in 0..8 {
            d.attrs
                .push(AttributeDef::new(format!("v{j}"), DataType::Int));
        }
        d.attrs.push(AttributeDef::new("w", DataType::Int));
        mkb.add_relation(d).expect("fresh relation");
    }
    for (i, name) in names.iter().enumerate() {
        let next = &names[(i + 1) % n];
        mkb.add_join(jc(&format!("j{i}"), name, next))
            .expect("fresh join");
        for j in 0..per_relation {
            mkb.add_function_of(FunctionOf::new(
                format!("f{i}_{j}"),
                AttrRef::new(name.as_str(), format!("v{j}")),
                ScalarExpr::attr(next.as_str(), "w"),
            ))
            .expect("fresh function-of");
        }
    }
    mkb
}

/// Index maintenance costs what the change touched: deleting a payload
/// attribute that one function-of covers and no join mentions
/// allocates, across `MkbDelta::compute` and `IndexCore::apply_delta`,
/// at most 2x the bytes on an MKB with 8x the function-ofs (and cover
/// keys). A rebuild of the cover map would allocate 8x.
#[test]
fn index_maintenance_allocation_is_independent_of_function_of_count() {
    let (sparse, dense) = (covered_mkb(1), covered_mkb(8));
    assert_eq!(dense.function_ofs().len(), 8 * sparse.function_ofs().len());
    let change = CapabilityChange::DeleteAttribute(AttrRef::new("R010", "v0"));
    let maintain = |mkb: &MetaKnowledgeBase| {
        let core = IndexCore::build(mkb);
        let next = evolve(mkb, &change).expect("admissible");
        assert_eq!(
            next.function_ofs().len() + 1,
            mkb.function_ofs().len(),
            "the change drops exactly one function-of"
        );
        bytes_in(|| core.apply_delta(&MkbDelta::compute(mkb, &next, &change))).0
    };
    let (on_sparse, on_dense) = (maintain(&sparse), maintain(&dense));
    assert!(on_sparse > 0, "the probe counted nothing");
    assert!(
        on_dense <= 2 * on_sparse,
        "compute + apply_delta: {on_dense} bytes with 8x the function-ofs, {on_sparse} at 1x"
    );
}

/// A federation of `n` relations in clusters of eight, each a chain
/// plus two chords, with covers on a tenth of the relations (the
/// benchmark's stream recipe).
fn federation(n: usize) -> MetaKnowledgeBase {
    let cfg = SynthConfig {
        n_relations: n,
        topology: Topology::Clusters { size: 8, extra: 2 },
        global_cover_prob: 0.1,
        ..SynthConfig::default()
    };
    SynthWorkload::random(&cfg, 5).mkb
}

/// The three relation operators, add-attribute, and delete- and
/// rename-attribute of a join attribute, on an interior member of the
/// middle cluster.
fn relation_and_join_changes(n: usize) -> Vec<CapabilityChange> {
    let r = rel(&format!("R{}", n / 2 + 3));
    let k = AttrRef::new(r.clone(), "k");
    vec![
        CapabilityChange::AddRelation(describe("Fresh")),
        CapabilityChange::RenameRelation {
            from: r.clone(),
            to: rel("Renamed"),
        },
        CapabilityChange::DeleteRelation(r.clone()),
        CapabilityChange::AddAttribute {
            relation: r,
            attr: AttributeDef::new("extra", DataType::Int),
        },
        CapabilityChange::DeleteAttribute(k.clone()),
        CapabilityChange::RenameAttribute {
            from: k,
            to: AttrName::new("key"),
        },
    ]
}

/// A change to one small component costs that component: `evolve`,
/// `MkbDelta::compute` and `IndexCore::apply_delta` together allocate at
/// most 2x the bytes on a federation of 16x the relations, for every
/// relation operator and for the changes that reach the join graph. A
/// copy of the join list or of a graph over the whole MKB would
/// allocate 16x.
#[test]
fn relation_level_changes_allocate_per_component() {
    let (small, large) = (1_024, 16 * 1_024);
    let cost = |n: usize| {
        let mkb = federation(n);
        let core = IndexCore::build(&mkb);
        relation_and_join_changes(n)
            .into_iter()
            .map(|change| {
                let (bytes, _) = bytes_in(|| {
                    let next = evolve(&mkb, &change).expect("admissible");
                    core.apply_delta(&MkbDelta::compute(&mkb, &next, &change))
                });
                (change.operator_name(), bytes)
            })
            .collect::<Vec<_>>()
    };
    let (a, b) = (cost(small), cost(large));
    let mut over = Vec::new();
    for ((op, on_small), (_, on_large)) in a.into_iter().zip(b) {
        assert!(on_small > 0, "{op}: the probe counted nothing");
        if on_large > 2 * on_small {
            over.push(format!(
                "{op}: {on_large} bytes at {large} relations, {on_small} at {small}"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}

fn jc(id: &str, l: &str, r: &str) -> JoinConstraint {
    JoinConstraint::new(
        id,
        l,
        r,
        Conjunction::new(vec![Clause::eq_attrs(
            AttrRef::new(l, "k"),
            AttrRef::new(r, "k"),
        )]),
    )
}

/// Star with parallel edges: HUB joined to A, B, C, with two alternative
/// join constraints on each spoke. Three terminals {A, B, C} put the
/// cursor on the greedy/swap arm; 2×2×2 = 8 trees stream out (base +
/// single-swap variants + the remaining alternative combinations).
fn star_with_alternatives() -> MetaKnowledgeBase {
    let mut mkb = MetaKnowledgeBase::new();
    for name in ["HUB", "A", "B", "C"] {
        mkb.add_relation(describe(name)).expect("fresh relation");
    }
    for (i, spoke) in ["A", "B", "C"].iter().enumerate() {
        mkb.add_join(jc(&format!("j{i}a"), "HUB", spoke))
            .expect("fresh join");
        mkb.add_join(jc(&format!("j{i}b"), "HUB", spoke))
            .expect("fresh join");
    }
    mkb
}

/// The greedy/swap arm: after construction, every `advance` (including
/// the first) performs zero heap allocations — the only allocating step
/// is the one-time growth of the scratch edge list, which construction
/// pre-sizes.
#[test]
fn greedy_arm_advance_is_allocation_free() {
    let mkb = star_with_alternatives();
    let h = Hypergraph::build(&mkb);
    let terminals: BTreeSet<RelName> = ["A", "B", "C"].into_iter().map(rel).collect();

    let mut cursor = h.tree_cursor(&terminals, 8);
    // Warm-up advance: first scratch write may grow the edge Vec from
    // its initial empty capacity.
    assert!(cursor.advance(), "base greedy tree exists");

    let mut yields = 0u32;
    loop {
        let (allocs, more) = allocations_in(|| cursor.advance());
        if !more {
            break;
        }
        yields += 1;
        assert_eq!(
            allocs, 0,
            "greedy/swap advance #{yields} after warm-up allocated"
        );
    }
    assert!(
        yields >= 2,
        "probe needs multiple steady-state yields, got {yields}"
    );
}

/// The two-terminal best-first arm: frontier pushes may grow the heap
/// early, but once the high-water mark is passed the stream drains
/// allocation-free. A complete graph on six relations has dozens of
/// vertex-simple paths between any two of them; past the last
/// path-length transition every buffer is at high-water, so the final
/// length class must drain without a single allocation.
#[test]
fn two_terminal_arm_drains_allocation_free() {
    let mut mkb = MetaKnowledgeBase::new();
    let names = ["N0", "N1", "N2", "N3", "N4", "N5"];
    for name in names {
        mkb.add_relation(describe(name)).expect("fresh relation");
    }
    for (i, a) in names.iter().enumerate() {
        for b in names.iter().skip(i + 1) {
            mkb.add_join(jc(&format!("j_{a}_{b}"), a, b))
                .expect("fresh join");
        }
    }
    let h = Hypergraph::build(&mkb);
    let terminals: BTreeSet<RelName> = [rel("N0"), rel("N5")].into_iter().collect();

    // First pass: learn the stream's length profile. Allocation can
    // legitimately happen only while buffers reach new high-water marks
    // — the frontier heap growing to its peak, the scratch edge list
    // growing to the longest path — and the stream yields in
    // nondecreasing length, so the final length class runs entirely at
    // high-water.
    let lengths: Vec<usize> = {
        let mut c = h.tree_cursor(&terminals, 8);
        let mut lens = Vec::new();
        while c.advance() {
            lens.push(c.edges().len());
        }
        lens
    };
    let total = lengths.len();
    let longest = *lengths.last().expect("K6 terminals connect");
    let steady_from = lengths
        .iter()
        .position(|&l| l == longest)
        .expect("last length exists");
    assert!(
        total - steady_from >= 4,
        "probe needs a non-trivial steady state, got {} of {total}",
        total - steady_from
    );

    // Second pass: warm up through the last length transition, then the
    // drain must be allocation-free.
    let mut cursor = h.tree_cursor(&terminals, 8);
    for _ in 0..steady_from + 1 {
        assert!(cursor.advance());
    }
    let mut step = steady_from + 1;
    loop {
        let (allocs, more) = allocations_in(|| cursor.advance());
        if !more {
            break;
        }
        step += 1;
        assert_eq!(allocs, 0, "two-terminal advance #{step} allocated");
    }
    assert_eq!(step, total, "second pass yielded a different stream length");
}

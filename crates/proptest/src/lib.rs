//! Workspace-local shim for the subset of the `proptest` 1.x API used by
//! EVE's property tests.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this miniature property-testing engine instead of the real
//! `proptest` crate. It keeps the same surface syntax — the [`proptest!`]
//! macro, [`Strategy`] combinators (`prop_map`, `prop_filter`,
//! `prop_recursive`), [`prop_oneof!`], `Just`, `any::<bool>()`, integer
//! range strategies, regex-literal string strategies, and the
//! `collection` / `option` / `sample` helper modules — but intentionally
//! omits shrinking: a failing case reports its seed and generated inputs
//! instead of minimising them. Generation is fully deterministic per
//! test-function name and case index, so failures reproduce exactly.

use std::fmt::Debug;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

/// Runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property was falsified.
    Fail(String),
    /// The case asked to be skipped (unused by the shim's combinators,
    /// kept so `Result<(), TestCaseError>` bodies match upstream).
    Reject(String),
}

impl TestCaseError {
    /// Construct a failure with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "{r}"),
            TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
        }
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike upstream proptest there is no value tree / shrinking: a
/// strategy is just a deterministic function of the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Retry generation until `pred` accepts the value.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }

    /// Build a recursive strategy: `recurse` receives a strategy for the
    /// sub-level and returns the strategy for the level above. `depth`
    /// bounds the nesting; the size hints are accepted for API
    /// compatibility but unused (no shrinking).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            // Leaf is weighted 2:1 over recursion so generation terminates
            // with shallow trees most of the time, matching upstream's
            // size-budgeted behaviour closely enough for these tests.
            strat = Union::weighted(vec![(2, leaf.clone()), (1, recurse(strat).boxed())]).boxed();
        }
        strat
    }

    /// Type-erase into a clonable, shareable strategy handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Clonable type-erased strategy (upstream's `BoxedStrategy`).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 rejections: {}", self.whence);
    }
}

/// Weighted choice among boxed alternatives (backs [`prop_oneof!`]).
pub struct Union<T> {
    variants: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Equal-weight union.
    pub fn new(variants: Vec<BoxedStrategy<T>>) -> Self {
        Union::weighted(variants.into_iter().map(|v| (1, v)).collect())
    }

    /// Union with explicit weights.
    pub fn weighted(variants: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(
            !variants.is_empty(),
            "prop_oneof! needs at least one variant"
        );
        let total = variants.iter().map(|(w, _)| *w).sum();
        Union { variants, total }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            variants: self.variants.clone(),
            total: self.total,
        }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.variants {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights exhausted")
    }
}

/// Always produce a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized + Debug {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for [`Arbitrary`] types; construct via [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// A `&'static str` is interpreted as a regex over a small supported
/// subset: literals, `[...]` classes with ranges, groups, `?`, and
/// `{n}` / `{n,m}` counted repetition. Any other metacharacter outside a
/// class (`.`, `|`, `^`, `$`, `*`, `+`, or an escaped letter or digit)
/// panics rather than generating something the pattern does not mean.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        let ast = regex::parse(self);
        let mut out = String::new();
        regex::emit(&ast, rng, &mut out);
        out
    }
}

mod regex {
    //! Just enough regex to cover the patterns the test-suite uses
    //! (e.g. `"[A-Z][a-z]{1,6}(-[A-Z][a-z]{1,4})?"`). Parsed on every
    //! generation; these patterns are a handful of bytes, so caching
    //! would be noise.

    use rand::rngs::StdRng;
    use rand::Rng;

    pub enum Node {
        Seq(Vec<Node>),
        /// One term plus its repetition bounds.
        Repeat(Box<Node>, u32, u32),
        Class(Vec<char>),
        Literal(char),
    }

    pub fn parse(pattern: &str) -> Node {
        let chars: Vec<char> = pattern.chars().collect();
        let (node, consumed) = parse_seq(&chars, 0);
        assert!(
            consumed == chars.len(),
            "regex shim: trailing input in pattern {pattern:?}"
        );
        node
    }

    fn parse_seq(chars: &[char], mut i: usize) -> (Node, usize) {
        let mut items = Vec::new();
        while i < chars.len() && chars[i] != ')' {
            let term = match chars[i] {
                '[' => {
                    let (cls, next) = parse_class(chars, i + 1);
                    i = next;
                    Node::Class(cls)
                }
                '(' => {
                    let (inner, next) = parse_seq(chars, i + 1);
                    assert!(chars.get(next) == Some(&')'), "regex shim: unclosed group");
                    i = next + 1;
                    inner
                }
                '\\' if chars.get(i + 1).is_some_and(|c| !c.is_ascii_alphanumeric()) => {
                    i += 2;
                    Node::Literal(chars[i - 1])
                }
                '\\' | '.' | '|' | '^' | '$' | '*' | '+' => {
                    let pattern: String = chars.iter().collect();
                    let len = if chars[i] == '\\' { 2 } else { 1 };
                    let term: String = chars[i..chars.len().min(i + len)].iter().collect();
                    panic!("regex shim: unsupported {term:?} in pattern {pattern:?}")
                }
                c => {
                    i += 1;
                    Node::Literal(c)
                }
            };
            let (lo, hi, next) = parse_quantifier(chars, i);
            i = next;
            if (lo, hi) == (1, 1) {
                items.push(term);
            } else {
                items.push(Node::Repeat(Box::new(term), lo, hi));
            }
        }
        (Node::Seq(items), i)
    }

    fn parse_class(chars: &[char], mut i: usize) -> (Vec<char>, usize) {
        let mut members = Vec::new();
        while chars[i] != ']' {
            if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) != Some(&']') {
                let (lo, hi) = (chars[i], chars[i + 2]);
                members.extend((lo..=hi).filter(|c| c.is_ascii()));
                i += 3;
            } else {
                members.push(chars[i]);
                i += 1;
            }
        }
        (members, i + 1)
    }

    fn parse_quantifier(chars: &[char], i: usize) -> (u32, u32, usize) {
        match chars.get(i) {
            Some('?') => (0, 1, i + 1),
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("regex shim: unclosed {")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                let (lo, hi) = match body.split_once(',') {
                    Some((lo, hi)) => (lo.parse().unwrap(), hi.parse().unwrap()),
                    None => {
                        let n = body.parse().unwrap();
                        (n, n)
                    }
                };
                (lo, hi, close + 1)
            }
            _ => (1, 1, i),
        }
    }

    pub fn emit(node: &Node, rng: &mut StdRng, out: &mut String) {
        match node {
            Node::Seq(items) => {
                for item in items {
                    emit(item, rng, out);
                }
            }
            Node::Repeat(inner, lo, hi) => {
                let n = rng.gen_range(*lo..=*hi);
                for _ in 0..n {
                    emit(inner, rng, out);
                }
            }
            Node::Class(members) => out.push(members[rng.gen_range(0..members.len())]),
            Node::Literal(c) => out.push(*c),
        }
    }
}

/// Size specifications accepted by the collection / sample strategies.
pub trait SizeBounds {
    /// Pick a concrete length.
    fn pick(&self, rng: &mut StdRng) -> usize;
}

impl SizeBounds for std::ops::Range<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeBounds for std::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Collection strategies (`proptest::collection::{vec, btree_set}`).
pub mod collection {
    use super::{SizeBounds, Strategy};
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// `Vec` of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeBounds>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// `BTreeSet` of values from `element`; the target size is a best
    /// effort since duplicates collapse.
    pub fn btree_set<S, Z>(element: S, size: Z) -> BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord,
        Z: SizeBounds,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeBounds> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S, Z> Strategy for BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord + Debug,
        Z: SizeBounds,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            // Duplicates collapse, so bound the attempts rather than loop
            // until the exact size is hit (the domain may be smaller).
            for _ in 0..target.saturating_mul(4).max(8) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// `proptest::option::of`.
pub mod option {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `None` a quarter of the time, `Some(value)` otherwise — the same
    /// default weighting as upstream.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// `proptest::sample::subsequence`.
pub mod sample {
    use super::{SizeBounds, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::fmt::Debug;

    /// A random subsequence of `elements` (order preserved) whose length
    /// is drawn from `size`.
    pub fn subsequence<T: Clone + Debug, Z: SizeBounds>(
        elements: Vec<T>,
        size: Z,
    ) -> Subsequence<T, Z> {
        Subsequence { elements, size }
    }

    /// Strategy returned by [`subsequence`].
    pub struct Subsequence<T, Z> {
        elements: Vec<T>,
        size: Z,
    }

    impl<T: Clone + Debug, Z: SizeBounds> Strategy for Subsequence<T, Z> {
        type Value = Vec<T>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.pick(rng).min(self.elements.len());
            // Reservoir-free selection: pick n distinct indices, keep order.
            let mut picked: Vec<usize> = Vec::with_capacity(n);
            while picked.len() < n {
                let idx = rng.gen_range(0..self.elements.len());
                if !picked.contains(&idx) {
                    picked.push(idx);
                }
            }
            picked.sort_unstable();
            picked
                .into_iter()
                .map(|i| self.elements[i].clone())
                .collect()
        }
    }
}

/// Deterministic case driver used by the [`proptest!`] macro expansion.
pub mod test_runner {
    use super::{ProptestConfig, TestCaseError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fnv1a(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Run `config.cases` deterministic cases; `body` returns the Debug
    /// rendering of the generated inputs plus the case outcome.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut StdRng) -> (String, Result<(), TestCaseError>),
    {
        let base = fnv1a(name);
        for case in 0..config.cases {
            let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = StdRng::seed_from_u64(seed);
            let (inputs, outcome) = body(&mut rng);
            match outcome {
                Ok(()) | Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(reason)) => panic!(
                    "property '{name}' falsified at case {case} (seed {seed:#x})\n  \
                     inputs: {inputs}\n  {reason}"
                ),
            }
        }
    }
}

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Assert a condition inside a property body, failing the case (not the
/// whole process) with file/line context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} at {}:{}",
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n    left: {:?}\n   right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n    left: {:?}\n   right: {:?}",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            // Build each strategy once, bound to the argument name; the
            // per-case closure shadows the name with a generated value.
            $(let $arg = $strat;)+
            $crate::test_runner::run(&config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::generate(&$arg, rng);)+
                let inputs = {
                    let mut s = String::new();
                    $(
                        if !s.is_empty() { s.push_str(", "); }
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&format!("{:?}", $arg));
                    )+
                    s
                };
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                (inputs, outcome)
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regex_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[A-Z][a-z]{1,6}(-[A-Z][a-z]{1,4})?", &mut rng);
            let parts: Vec<&str> = s.split('-').collect();
            assert!(parts.len() <= 2, "{s}");
            assert!(parts[0].len() >= 2 && parts[0].len() <= 7, "{s}");
            let short = crate::Strategy::generate(&"[a-d]{0,3}", &mut rng);
            assert!(short.len() <= 3 && short.chars().all(|c| ('a'..='d').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        fn combinators_compose(
            n in 1usize..5,
            flag in any::<bool>(),
            xs in crate::collection::vec(-5i64..5, 0..10),
            pick in crate::sample::subsequence(vec![1, 2, 3], 1..=3),
            opt in crate::option::of(0i64..3),
        ) {
            prop_assert!((1..5).contains(&n));
            prop_assert!(usize::from(flag) <= 1);
            prop_assert!(xs.len() < 10);
            prop_assert!(xs.iter().all(|x| (-5..5).contains(x)));
            prop_assert!(!pick.is_empty() && pick.windows(2).all(|w| w[0] < w[1]));
            if let Some(v) = opt {
                prop_assert!((0..3).contains(&v));
            }
            return Ok(());
        }

        fn oneof_and_recursive(v in prop_oneof![Just(0i64), 1i64..10].prop_map(|x| x * 2)) {
            prop_assert!(v == 0 || (2..20).contains(&v));
        }
    }

    #[test]
    fn regex_rejects_unsupported_syntax() {
        for (pattern, term) in [
            (".{0,200}", "."),
            ("a|b", "|"),
            ("^a", "^"),
            ("[a-z]$", "$"),
            ("(ab)*", "*"),
            ("a+", "+"),
            ("\\d{2}", "\\d"),
            ("a\\", "\\"),
        ] {
            let panic =
                std::panic::catch_unwind(|| drop(crate::regex::parse(pattern))).expect_err(pattern);
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(
                *message,
                format!("regex shim: unsupported {term:?} in pattern {pattern:?}")
            );
        }
        // Inside a class, and escaped, the same characters are literals.
        let mut rng = StdRng::seed_from_u64(1);
        let s = crate::Strategy::generate(&"[.|^$*+]\\.\\*", &mut rng);
        assert!(s.ends_with(".*") && ".|^$*+".contains(&s[..1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failures_report_seed() {
        let config = ProptestConfig::with_cases(16);
        crate::test_runner::run(&config, "always_fails", |_rng| {
            ("x = 1".to_string(), Err(TestCaseError::fail("boom")))
        });
    }
}

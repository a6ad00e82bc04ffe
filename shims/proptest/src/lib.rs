//! Offline stand-in for `proptest` (API subset): random sampling without
//! shrinking.
//!
//! The `proptest!` macro runs each property for `ProptestConfig::cases`
//! independently drawn samples; a failing case panics with the values
//! baked into the assertion message, and a body that panics on its own
//! is named by case number (`proptest <name>: case i/N panicked`). Supported strategies: integer
//! ranges (`a..b`, `a..=b`), `any::<T>()`, `Just`, tuples of strategies,
//! `prop_oneof![..]`, `.prop_map(..)`, and `collection::vec(..)`.

pub mod strategy;
pub mod test_runner;

/// Strategy combinators and sources, re-exported at the crate root the
/// way real proptest does for the common names.
pub use strategy::{any, BoxedStrategy, Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Collection strategies.
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// Strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size` (a range or an exact `usize`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The names `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Run a block of property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop_holds(x in 0u32..100, v in collection::vec(any::<bool>(), 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Internal recursion for [`proptest!`] — one test function per step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> = {
                    let _guard = $crate::test_runner::CaseGuard::new(
                        stringify!($name), case + 1, config.cases,
                    );
                    (|| { $body ::std::result::Result::Ok(()) })()
                };
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {}: case {}/{} failed: {}",
                        stringify!($name), case + 1, config.cases, e
                    );
                }
            }
        }
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
}

/// Fail the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($a), stringify!($b), lhs, rhs
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Fail the current case if both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a),
                stringify!($b),
                lhs
            )));
        }
    }};
}

/// Skip the current case when the assumption fails. (This shim counts a
/// skipped case as passed rather than redrawing.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniformly choose between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

//! A property body that panics (rather than failing a `prop_assert*!`)
//! must still name the case it died in.

use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

/// Set in the child process that runs the panicking property.
const CHILD: &str = "PROPTEST_SHIM_PANIC_CHILD";

static CASES_RUN: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    fn third_case_panics(x in 0u32..10) {
        let v = [x; 2];
        let i = if CASES_RUN.fetch_add(1, Ordering::Relaxed) == 2 { 2 } else { 0 };
        prop_assert!(v[i] < 10);
    }
}

#[test]
fn panicking_case_is_named() {
    if std::env::var_os(CHILD).is_some() {
        third_case_panics();
        return;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["panicking_case_is_named", "--exact", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the child must fail: {stderr}");
    assert!(
        stderr.contains("proptest third_case_panics: case 3/5 panicked"),
        "{stderr}"
    );
}

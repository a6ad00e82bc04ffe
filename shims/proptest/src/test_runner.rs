//! Test-runner plumbing for the proptest shim.

use std::io::Write;

/// Per-block configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; kept identical so un-configured
        // blocks exercise the same case volume.
        ProptestConfig { cases: 256 }
    }
}

/// Failure raised by `prop_assert*!` inside a case body.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic sample source (SplitMix64), seeded from the test name
/// so every property has a distinct but reproducible stream.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a over the bytes).
    pub fn deterministic(name: &str) -> Self {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Names the case a property body panicked in. The runner holds one
/// across each call of the body; if the call unwinds (an `assert!`, an
/// index out of bounds), the drop prints `proptest <name>: case i/N
/// panicked`. The sample stream is seeded from the test name, so that
/// line is all it takes to replay the failing case.
#[derive(Debug)]
pub struct CaseGuard {
    name: &'static str,
    case: u32,
    cases: u32,
}

impl CaseGuard {
    /// Guard for case `case` (1-based) of `cases` of property `name`.
    pub fn new(name: &'static str, case: u32, cases: u32) -> Self {
        CaseGuard { name, case, cases }
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Never panic here: this runs while the body unwinds.
            let _ = writeln!(
                std::io::stderr(),
                "proptest {}: case {}/{} panicked",
                self.name,
                self.case,
                self.cases
            );
        }
    }
}

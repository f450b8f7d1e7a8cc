//! Helpers shared by the integration tests.

/// Reader-thread counts to exercise: `PPR_TEST_THREADS` pins one (the CI matrix
/// runs 1 and 4); without it both widths run.
///
/// # Panics
///
/// Panics if `PPR_TEST_THREADS` is set to something other than an integer.
pub fn thread_counts() -> Vec<usize> {
    match std::env::var("PPR_TEST_THREADS") {
        Ok(v) => vec![v
            .trim()
            .parse()
            .expect("PPR_TEST_THREADS must be a positive integer")],
        Err(_) => vec![1, 4],
    }
}

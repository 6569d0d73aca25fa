//! Output checks: every result the program returns is compared with a
//! reference before it counts as a success.

use tpm_core::approx;

/// Relative tolerance for floating-point results whose sums the parallel
/// models reassociate. Exact kernels (Fib, BFS) are compared exactly.
pub const REL_TOL: f64 = 1e-9;

/// One kernel result, as the program returned it or as the sequential
/// reference computes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Out {
    /// A floating-point scalar (Sum, service checksums).
    Scalar(f64),
    /// A floating-point vector (Axpy, Matvec, Matmul, HotSpot, SRAD, LUD).
    Floats(Vec<f64>),
    /// An exact integer vector (BFS levels).
    Ints(Vec<i32>),
    /// An exact count (Fib).
    Count(u64),
}

/// Compares `got` with the reference `want`: exactly for integer results,
/// within [`REL_TOL`] for floating-point ones.
pub fn matches(got: &Out, want: &Out) -> Result<(), String> {
    match (got, want) {
        (Out::Scalar(g), Out::Scalar(w)) => approx::scalar_close(*g, *w, REL_TOL),
        (Out::Floats(g), Out::Floats(w)) => approx::slices_close(g, w, REL_TOL),
        (Out::Ints(g), Out::Ints(w)) if g == w => Ok(()),
        (Out::Count(g), Out::Count(w)) if g == w => Ok(()),
        (Out::Ints(g), Out::Ints(w)) => {
            let first = g.iter().zip(w).position(|(a, b)| a != b);
            Err(format!(
                "integer result differs (lengths {} vs {}, first difference at {first:?})",
                g.len(),
                w.len()
            ))
        }
        (Out::Count(g), Out::Count(w)) => Err(format!("{g} vs {w}")),
        _ => Err(format!("result kind differs: {got:?} vs {want:?}")),
    }
}

/// What the server's own counters say about one run, from its `done` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTotals {
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs that replied `ok`.
    pub completed: u64,
    /// Admitted jobs that ended in an error reply.
    pub failed: u64,
    /// Admitted jobs the watchdog cancelled past their deadline's grace.
    pub watchdog_shed: u64,
}

impl ServeTotals {
    /// Parses `[serve] done: admitted A completed C failed F shed S
    /// watchdog-shed W`.
    pub fn parse(line: &str) -> Option<ServeTotals> {
        let rest = line.strip_prefix("[serve] done:")?;
        let words: Vec<&str> = rest.split_whitespace().collect();
        let field = |key: &str| -> Option<u64> {
            let i = words.iter().position(|w| *w == key)?;
            words.get(i + 1)?.parse().ok()
        };
        Some(ServeTotals {
            admitted: field("admitted")?,
            completed: field("completed")?,
            failed: field("failed")?,
            watchdog_shed: field("watchdog-shed")?,
        })
    }

    /// Conservation, as the whole-service simulator checks it: every
    /// admitted job completed, failed, or was cancelled by the watchdog.
    /// (Requests shed for load are refused, never admitted.)
    pub fn conserved(&self) -> Result<(), String> {
        let accounted = self.completed + self.failed + self.watchdog_shed;
        if self.admitted == accounted {
            Ok(())
        } else {
            Err(format!(
                "admitted {} != completed {} + failed {} + watchdog-shed {}",
                self.admitted, self.completed, self.failed, self.watchdog_shed
            ))
        }
    }
}

/// The live scrape must count exactly the `ok` replies the generator saw.
pub fn scrape_agrees(scraped_ok: f64, generator_ok: u64) -> Result<(), String> {
    if scraped_ok == generator_ok as f64 {
        Ok(())
    } else {
        Err(format!(
            "scrape counts {scraped_ok} ok replies, the generator saw {generator_ok}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_results_pass() {
        assert!(matches(&Out::Count(46368), &Out::Count(46368)).is_ok());
        assert!(matches(&Out::Ints(vec![0, 1, 2]), &Out::Ints(vec![0, 1, 2])).is_ok());
        // A reassociated sum differs in the last bits and still passes.
        let x = 0.1 + 0.2 + 0.3;
        let y = 0.3 + 0.2 + 0.1;
        assert_ne!(x, y);
        assert!(matches(&Out::Scalar(x), &Out::Scalar(y)).is_ok());
        assert!(matches(&Out::Floats(vec![x, 1.0]), &Out::Floats(vec![y, 1.0])).is_ok());
    }

    #[test]
    fn planted_wrong_results_fail() {
        assert!(matches(&Out::Count(46369), &Out::Count(46368)).is_err());
        assert!(matches(&Out::Ints(vec![0, 1, 3]), &Out::Ints(vec![0, 1, 2])).is_err());
        assert!(matches(&Out::Ints(vec![0, 1]), &Out::Ints(vec![0, 1, 2])).is_err());
        assert!(matches(&Out::Scalar(1.0 + 1e-6), &Out::Scalar(1.0)).is_err());
        assert!(matches(&Out::Scalar(f64::NAN), &Out::Scalar(f64::NAN)).is_err());
        let mut wrong = vec![1.0; 64];
        wrong[17] = 1.001;
        assert!(matches(&Out::Floats(wrong), &Out::Floats(vec![1.0; 64])).is_err());
        assert!(matches(&Out::Floats(vec![1.0]), &Out::Scalar(1.0)).is_err());
    }

    #[test]
    fn conservation_and_scrape_guards_have_teeth() {
        let t = ServeTotals::parse(
            "[serve] done: admitted 10 completed 8 failed 1 shed 4 watchdog-shed 1",
        )
        .unwrap();
        assert_eq!(
            t,
            ServeTotals {
                admitted: 10,
                completed: 8,
                failed: 1,
                watchdog_shed: 1
            }
        );
        assert!(t.conserved().is_ok());
        let lost = ServeTotals { completed: 7, ..t };
        assert!(lost.conserved().is_err());
        assert!(ServeTotals::parse("[serve] listening on 127.0.0.1:1").is_none());
        assert!(scrape_agrees(998.0, 998).is_ok());
        assert!(scrape_agrees(0.0, 998).is_err());
    }
}

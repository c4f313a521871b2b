//! The analytic waits-versus-aborts model of paper §4.2.
//!
//! With `K` lock requests per transaction, `N` concurrent transactions,
//! `D` data items and `t` the mean time between lock requests, throughput
//! is proportional to
//!
//! ```text
//!   N / ((K+1)·t) · (1 − A·P_conflict − B·P_abort)
//! ```
//!
//! where `A` is the fraction of execution a conflicting transaction spends
//! waiting and `B` the fraction spent on doomed execution. Bamboo shrinks
//! `A·P_conflict` (early retire ⇒ `A ≈ 1/(K+1)` instead of Wound-Wait's
//! `1/2`) while adding a cascading-abort term bounded by
//! `N·P_conflict·P_deadlock`. The closed forms below are the paper's.

/// `P_conflict ≈ N·K² / (2·D)`: probability a transaction hits at least one
/// conflict during its lifetime (uniform access assumption).
pub fn p_conflict(n: f64, k: f64, d: f64) -> f64 {
    (n * k * k / (2.0 * d)).min(1.0)
}

/// `P_deadlock ≈ N·K⁴ / (4·D²)`: probability of a deadlock, approximated by
/// the probability of conflicting with a transaction already conflicting
/// with you.
pub fn p_deadlock(n: f64, k: f64, d: f64) -> f64 {
    (n * k.powi(4) / (4.0 * d * d)).min(1.0)
}

/// Wound-Wait's wait fraction: a conflicting transaction waits on average
/// half of the holder's execution.
pub fn a_wound_wait(_k: f64) -> f64 {
    0.5
}

/// Bamboo's wait fraction: wait only for the duration of one access,
/// `≈ 1/(K+1)`.
pub fn a_bamboo(k: f64) -> f64 {
    1.0 / (k + 1.0)
}

/// Upper bound on Bamboo's cascading-abort cost `B·P_cas_abort ≤
/// N·P_conflict·P_deadlock` (B bounded by 1).
pub fn cascade_cost_bound(n: f64, k: f64, d: f64) -> f64 {
    (n * p_conflict(n, k, d) * p_deadlock(n, k, d)).min(1.0)
}

/// The paper's gain condition: Bamboo beats Wound-Wait when
/// `(A_ww − A_bb)·P_conflict > B·P_cas_abort`, which reduces to
/// `N²K⁴ / (2D²) < (K−1)/(K+1)`.
pub fn bamboo_wins(n: f64, k: f64, d: f64) -> bool {
    n * n * k.powi(4) / (2.0 * d * d) < (k - 1.0) / (k + 1.0)
}

/// Estimated relative throughput gain of Bamboo over Wound-Wait:
/// `(A_ww − A_bb)·P_conflict − B·P_cas_abort` (the improvement in the
/// useful-work fraction; negative when cascading aborts dominate).
pub fn estimated_gain(n: f64, k: f64, d: f64) -> f64 {
    (a_wound_wait(k) - a_bamboo(k)) * p_conflict(n, k, d) - cascade_cost_bound(n, k, d)
}

/// Throughput proportionality `N / ((K+1)·t) · (1 − A·Pc − B·Pa)` with all
/// terms supplied explicitly; used by the `repro model` experiment to chart
/// both protocols under one parameterization.
pub fn throughput_model(n: f64, k: f64, t: f64, a: f64, p_conf: f64, b: f64, p_abort: f64) -> f64 {
    (n / ((k + 1.0) * t)) * (1.0 - a * p_conf - b * p_abort).max(0.0)
}

/// Wound-Wait throughput estimate under the model (aborts only from
/// deadlock prevention, negligible B term).
pub fn ww_throughput(n: f64, k: f64, d: f64, t: f64) -> f64 {
    throughput_model(
        n,
        k,
        t,
        a_wound_wait(k),
        p_conflict(n, k, d),
        1.0,
        p_deadlock(n, k, d),
    )
}

/// Bamboo throughput estimate under the model.
pub fn bb_throughput(n: f64, k: f64, d: f64, t: f64) -> f64 {
    throughput_model(
        n,
        k,
        t,
        a_bamboo(k),
        p_conflict(n, k, d),
        1.0,
        p_deadlock(n, k, d) + cascade_cost_bound(n, k, d),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_scale_as_documented() {
        // Doubling D halves P_conflict and quarters P_deadlock.
        let (n, k, d) = (32.0, 16.0, 1e6);
        assert!((p_conflict(n, k, d) / p_conflict(n, k, 2.0 * d) - 2.0).abs() < 1e-9);
        assert!((p_deadlock(n, k, d) / p_deadlock(n, k, 2.0 * d) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_clamped_to_one() {
        assert_eq!(p_conflict(1e9, 64.0, 10.0), 1.0);
        assert_eq!(p_deadlock(1e9, 64.0, 10.0), 1.0);
    }

    #[test]
    fn gain_condition_holds_for_database_scale() {
        // "For most databases, the data size D is orders of magnitude
        // larger than N and K; so the equation will hold."
        assert!(bamboo_wins(32.0, 16.0, 1e8));
        assert!(bamboo_wins(120.0, 64.0, 1e8));
        // Tiny database with huge transactions: condition can fail.
        assert!(!bamboo_wins(1000.0, 64.0, 1000.0));
    }

    #[test]
    fn k_one_never_wins() {
        // (K−1)/(K+1) = 0 at K=1: a single-access transaction cannot
        // benefit from early retire.
        assert!(!bamboo_wins(2.0, 1.0, 1e8));
    }

    #[test]
    fn wait_fractions_ordered() {
        for k in [2.0, 4.0, 16.0, 64.0] {
            assert!(a_bamboo(k) < a_wound_wait(k));
        }
    }

    #[test]
    fn model_predicts_bamboo_ahead_at_scale() {
        let (n, k, d, t) = (32.0, 16.0, 1e6, 1.0);
        assert!(bb_throughput(n, k, d, t) > ww_throughput(n, k, d, t));
    }

    #[test]
    fn estimated_gain_positive_at_paper_scale() {
        assert!(estimated_gain(32.0, 16.0, 1e6) > 0.0);
    }

    #[test]
    fn throughput_model_floor_at_zero() {
        assert_eq!(throughput_model(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.0);
    }
}

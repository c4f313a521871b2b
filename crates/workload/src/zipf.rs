//! YCSB's zipfian generator (Gray et al. / the YCSB reference
//! implementation). The paper controls contention through the zipfian θ
//! (§5.4): θ = 0 is uniform; at θ = 0.9 a handful of keys absorb most of
//! the accesses, which is what creates hotspots.

use rand::Rng;

/// Zipfian distribution over `0..n` where key 0 is the hottest.
///
/// The standard YCSB construction scrambles ranks; we keep rank order so
/// that "key 0 is the hotspot" is deterministic for tests and the
/// microbenchmarks, and scramble with a multiplicative hash where needed.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Precomputes the distribution for `n` items with skew `theta`
    /// (0 ≤ θ < 1; θ = 0 degenerates to uniform).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - Self::zeta(2, theta) / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // O(n) harmonic sum; computed once per benchmark configuration.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = self.eta.mul_add(u, 1.0 - self.eta);
        ((self.n as f64) * spread.powf(self.alpha)) as u64 % self.n
    }
}

/// Multiplicative scrambling of a rank into the key space, used when the
/// hottest keys should not be physically adjacent (YCSB's "scrambled
/// zipfian"). Bijective over `0..n` only when `n` is a power of two, so we
/// fold with a modulo — collisions merely merge two ranks, which does not
/// change the skew shape.
pub fn scramble(rank: u64, n: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipfian::new(1000, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[(z.sample(&mut rng) / 100) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} not uniform");
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(1_000_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(7);
        let total = 100_000;
        let hot = (0..total)
            .filter(|_| z.sample(&mut rng) < 1_000_000 / 10)
            .count();
        // The paper: at θ=0.9, 10% of the tuples receive well over 60% of
        // accesses.
        assert!(
            hot as f64 / total as f64 > 0.6,
            "only {}% of accesses hit the hot 10%",
            100 * hot / total
        );
    }

    #[test]
    fn theta_ordering_increases_concentration() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut frac = Vec::new();
        for theta in [0.5, 0.7, 0.9] {
            let z = Zipfian::new(100_000, theta);
            let total = 50_000;
            let hot = (0..total).filter(|_| z.sample(&mut rng) < 1000).count();
            frac.push(hot as f64 / total as f64);
        }
        assert!(frac[0] < frac[1] && frac[1] < frac[2], "{frac:?}");
    }

    #[test]
    fn samples_stay_in_range() {
        for theta in [0.0, 0.5, 0.99] {
            let z = Zipfian::new(97, theta);
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < 97);
            }
        }
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipfian::new(10_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut c0 = 0;
        let mut c_rest = vec![0u32; 10];
        for _ in 0..100_000 {
            let s = z.sample(&mut rng);
            if s == 0 {
                c0 += 1;
            } else if s < 11 {
                c_rest[(s - 1) as usize] += 1;
            }
        }
        for &c in &c_rest {
            assert!(c0 >= c, "rank 0 ({c0}) must dominate later ranks ({c})");
        }
    }

    #[test]
    fn scramble_stays_in_range() {
        for rank in 0..1000 {
            assert!(scramble(rank, 1000) < 1000);
        }
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_rejected() {
        Zipfian::new(10, 1.0);
    }
}

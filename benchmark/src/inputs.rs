//! Everything a run derives from `--seed`: the payload mask, and the arrival
//! schedule and route choices of `dispatch_open`. The library sees only
//! these inputs.

/// SplitMix64: small, seedable, and good enough to draw gaps and routes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Open-loop arrival rate of `dispatch_open`, requests per second.
pub const DISPATCH_RATE_PER_S: f64 = 4_000.0;
/// One request in this many goes to the route nobody serves.
pub const UNSERVED_ONE_IN: u64 = 8;

/// One request of the open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, in ns after the generator starts.
    pub due_ns: u64,
    /// False for the route nobody serves: the request must lapse.
    pub served: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Payload word of sequence number `n` is `n ^ mask`.
    pub mask: u64,
    /// Arrivals up to the horizon, in due order (empty unless asked for).
    pub schedule: Vec<Arrival>,
}

impl Inputs {
    /// Inputs for `seed`; `horizon_ns > 0` also draws an arrival schedule
    /// that long (exponential gaps, so arrivals are a Poisson process).
    pub fn generate(seed: u64, horizon_ns: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mask = rng.next_u64();
        let mean_gap_ns = 1e9 / DISPATCH_RATE_PER_S;
        let mut schedule = Vec::new();
        let mut due = 0.0f64;
        if horizon_ns > 0 {
            schedule.reserve((horizon_ns as f64 / mean_gap_ns * 1.1) as usize);
            loop {
                due += -rng.next_unit().ln() * mean_gap_ns;
                if due >= horizon_ns as f64 {
                    break;
                }
                schedule.push(Arrival {
                    due_ns: due as u64,
                    served: !rng.next_u64().is_multiple_of(UNSERVED_ONE_IN),
                });
            }
        }
        Inputs { mask, schedule }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_different_seeds_do_not() {
        let a = Inputs::generate(11, 2_000_000_000);
        let b = Inputs::generate(11, 2_000_000_000);
        let c = Inputs::generate(12, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a.mask, c.mask);
        assert_ne!(a.schedule, c.schedule);
        assert!(a.schedule.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn schedule_has_the_stated_rate_and_route_share() {
        let s = Inputs::generate(3, 10_000_000_000).schedule;
        let rate = s.len() as f64 / 10.0;
        assert!(
            (rate - DISPATCH_RATE_PER_S).abs() < 0.03 * DISPATCH_RATE_PER_S,
            "{rate}"
        );
        let unserved = s.iter().filter(|a| !a.served).count() as f64 / s.len() as f64;
        assert!(
            (unserved - 1.0 / UNSERVED_ONE_IN as f64).abs() < 0.01,
            "{unserved}"
        );
        assert!(Inputs::generate(3, 0).schedule.is_empty());
    }
}

//! Arrival processes: CBR, Poisson and bursty on-off.

use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::time::Picos;

/// `x.round() as u64` bit for bit, without `f64::round`'s out-of-line libm
/// call: rounded half away from zero, then truncated and saturated as the
/// cast does (negative and NaN to 0, past `u64::MAX` to `u64::MAX`). The
/// fraction `x - whole` is exact (Sterbenz: `whole <= x <= 2 * whole` once
/// `x >= 1`; below 1 `whole` is 0).
#[inline]
pub(crate) fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// A packet arrival process producing inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Constant bit rate: fixed inter-arrival time.
    Cbr {
        /// Spacing between packets.
        interval: Picos,
    },
    /// Poisson arrivals with the given mean inter-arrival time.
    Poisson {
        /// Mean spacing between packets.
        mean_interval: Picos,
    },
    /// On-off bursts: geometric bursts of back-to-back packets (spaced
    /// `on_interval`), separated by exponential off periods. The classic
    /// model behind the paper's "bursts of commands that may arrive
    /// simultaneously".
    OnOff {
        /// Spacing within a burst.
        on_interval: Picos,
        /// Mean burst length in packets.
        mean_burst: f64,
        /// Mean gap between bursts.
        mean_off: Picos,
    },
}

impl ArrivalProcess {
    /// CBR at `gbps` for packets of `bytes`.
    pub fn cbr_gbps(gbps: f64, bytes: u32) -> Self {
        assert!(gbps > 0.0, "rate must be positive");
        let interval_ps = round_to_u64(bytes as f64 * 8.0 / gbps * 1000.0);
        ArrivalProcess::Cbr {
            interval: Picos::new(interval_ps),
        }
    }

    /// Mean arrival rate in packets per second.
    pub fn mean_rate_pps(&self) -> f64 {
        match *self {
            ArrivalProcess::Cbr { interval } => 1e12 / interval.as_u64() as f64,
            ArrivalProcess::Poisson { mean_interval } => 1e12 / mean_interval.as_u64() as f64,
            ArrivalProcess::OnOff {
                on_interval,
                mean_burst,
                mean_off,
            } => {
                let cycle = mean_burst * on_interval.as_u64() as f64 + mean_off.as_u64() as f64;
                mean_burst * 1e12 / cycle
            }
        }
    }
}

/// Stateful generator of arrival instants.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Xoshiro256pp,
    now: Picos,
    burst_left: u64,
}

impl ArrivalGen {
    /// Creates a generator starting at time zero.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen {
            process,
            rng: Xoshiro256pp::seed_from_u64(seed),
            now: Picos::ZERO,
            burst_left: 0,
        }
    }

    /// The next arrival instant.
    pub fn next_arrival(&mut self) -> Picos {
        let delta = match self.process {
            ArrivalProcess::Cbr { interval } => interval,
            ArrivalProcess::Poisson { mean_interval } => Picos::new(round_to_u64(
                self.rng.next_exp(mean_interval.as_u64() as f64),
            )),
            ArrivalProcess::OnOff {
                on_interval,
                mean_burst,
                mean_off,
            } => {
                if self.burst_left == 0 {
                    self.burst_left = self.rng.next_geometric(1.0 - 1.0 / mean_burst.max(1.0));
                    self.burst_left -= 1;
                    Picos::new(round_to_u64(self.rng.next_exp(mean_off.as_u64() as f64)))
                } else {
                    self.burst_left -= 1;
                    on_interval
                }
            }
        };
        self.now += delta;
        self.now
    }
}

impl Iterator for ArrivalGen {
    type Item = Picos;

    fn next(&mut self) -> Option<Picos> {
        Some(self.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_spacing_is_exact() {
        // 64-byte packets at 0.512 Gbps: one per microsecond.
        let p = ArrivalProcess::cbr_gbps(0.512, 64);
        let mut g = ArrivalGen::new(p, 1);
        assert_eq!(g.next_arrival(), Picos::from_micros(1));
        assert_eq!(g.next_arrival(), Picos::from_micros(2));
        assert!((p.mean_rate_pps() - 1e6).abs() < 1.0);
    }

    #[test]
    fn poisson_mean_rate() {
        let p = ArrivalProcess::Poisson {
            mean_interval: Picos::from_nanos(1000),
        };
        let mut g = ArrivalGen::new(p, 2);
        let n = 50_000;
        let mut last = Picos::ZERO;
        for _ in 0..n {
            last = g.next_arrival();
        }
        let mean_ns = last.as_nanos_f64() / n as f64;
        assert!((mean_ns - 1000.0).abs() < 20.0, "mean {mean_ns}");
    }

    #[test]
    fn onoff_is_bursty() {
        let p = ArrivalProcess::OnOff {
            on_interval: Picos::from_nanos(10),
            mean_burst: 8.0,
            mean_off: Picos::from_nanos(10_000),
        };
        let mut g = ArrivalGen::new(p, 3);
        let arrivals: Vec<Picos> = (0..5_000).map(|_| g.next_arrival()).collect();
        // Count tight gaps (in-burst) vs long gaps.
        let mut tight = 0;
        let mut long = 0;
        for w in arrivals.windows(2) {
            let gap = (w[1] - w[0]).as_u64();
            if gap <= 10_000 {
                tight += 1;
            } else {
                long += 1;
            }
        }
        assert!(tight > 5 * long, "tight {tight} long {long}");
        // Mean rate sanity: ~8 packets per (80ns + 10us) cycle.
        let expected = p.mean_rate_pps();
        let measured = arrivals.len() as f64 / arrivals.last().unwrap().as_secs_f64();
        assert!(
            (measured / expected - 1.0).abs() < 0.15,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn iterator_interface() {
        let g = ArrivalGen::new(
            ArrivalProcess::Cbr {
                interval: Picos::from_nanos(5),
            },
            4,
        );
        let three: Vec<Picos> = g.take(3).collect();
        assert_eq!(
            three,
            vec![
                Picos::from_nanos(5),
                Picos::from_nanos(10),
                Picos::from_nanos(15)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_cbr_panics() {
        let _ = ArrivalProcess::cbr_gbps(0.0, 64);
    }
}

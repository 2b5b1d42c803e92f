//! Recordable, replayable workload traces.

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::flows::FlowMix;
use crate::size::SizeDistribution;
use npqm_core::FlowId;
use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::time::Picos;

/// One packet arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival instant.
    pub at: Picos,
    /// The flow the packet belongs to.
    pub flow: FlowId,
    /// Packet size in bytes.
    pub size: u32,
}

/// A generated workload trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Generates a trace of `n` packets from the given models.
    pub fn generate(
        n: usize,
        arrivals: ArrivalProcess,
        sizes: SizeDistribution,
        mix: &FlowMix,
        seed: u64,
    ) -> Self {
        let mut gen = ArrivalGen::new(arrivals, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x51CE);
        let records = (0..n)
            .map(|_| TraceRecord {
                at: gen.next_arrival(),
                flow: mix.sample(&mut rng),
                size: sizes.sample(&mut rng),
            })
            .collect();
        Trace { records }
    }

    /// The records, in arrival order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size as u64).sum()
    }

    /// Offered load in Gbit/s over the trace's duration.
    pub fn offered_gbps(&self) -> f64 {
        match self.records.last() {
            None => 0.0,
            Some(last) => self.total_bytes() as f64 * 8.0 / last.at.as_secs_f64() / 1e9,
        }
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_ordered() {
        let mix = FlowMix::uniform(16);
        let a = Trace::generate(
            500,
            ArrivalProcess::cbr_gbps(1.0, 64),
            SizeDistribution::Fixed(64),
            &mix,
            7,
        );
        let b = Trace::generate(
            500,
            ArrivalProcess::cbr_gbps(1.0, 64),
            SizeDistribution::Fixed(64),
            &mix,
            7,
        );
        assert_eq!(a, b);
        assert!(a.records().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.len(), 500);
        assert!(!a.is_empty());
    }

    #[test]
    fn offered_load_matches_cbr_rate() {
        let mix = FlowMix::uniform(4);
        let t = Trace::generate(
            10_000,
            ArrivalProcess::cbr_gbps(2.0, 64),
            SizeDistribution::Fixed(64),
            &mix,
            3,
        );
        let load = t.offered_gbps();
        assert!((load - 2.0).abs() < 0.05, "load {load}");
        assert_eq!(t.total_bytes(), 10_000 * 64);
    }

    #[test]
    fn collect_round_trip() {
        let mix = FlowMix::uniform(2);
        let t = Trace::generate(
            10,
            ArrivalProcess::cbr_gbps(1.0, 64),
            SizeDistribution::Fixed(64),
            &mix,
            1,
        );
        let rebuilt: Trace = t.clone().into_iter().collect();
        assert_eq!(rebuilt, t);
        assert!(Trace::default().is_empty());
        assert_eq!(Trace::default().offered_gbps(), 0.0);
    }
}

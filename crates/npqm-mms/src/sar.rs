//! The Segmentation and Reassembly blocks of Figure 2.
//!
//! "The MMS … consists of five main blocks: Data Queue Manager (DQM), Data
//! Memory Controller (DMC), Internal Scheduler, Segmentation Block and
//! Reassembly Block." The two SAR blocks sit between the network ports and
//! the command interface: segmentation turns arriving packets into
//! per-segment enqueue commands, reassembly turns dequeued segments back
//! into packets.

use crate::mms::Mms;
use crate::scheduler::Port;
use npqm_core::{FlowId, Reassembler, Segmenter};
use npqm_sim::time::Cycle;
use std::collections::HashMap;

/// The ingress segmentation block: packets in, enqueue commands out.
#[derive(Debug, Clone)]
pub struct SegmentationBlock {
    segmenter: Segmenter,
    port: Port,
    packets_in: u64,
    segments_out: u64,
    rejected: u64,
}

impl SegmentationBlock {
    /// Creates a segmentation block feeding `port` with 64-byte segments.
    pub fn new(port: Port) -> Self {
        SegmentationBlock {
            segmenter: Segmenter::new(64),
            port,
            packets_in: 0,
            segments_out: 0,
            rejected: 0,
        }
    }

    /// Segments `packet` and submits every piece as an enqueue command on
    /// `flow`. All-or-nothing: if the port FIFO cannot take the whole
    /// packet the block refuses it up front (returns `false`), so a packet
    /// is never half-submitted.
    pub fn ingest(&mut self, mms: &mut Mms, now: Cycle, flow: FlowId, packet: &[u8]) -> bool {
        let needed = self.segmenter.segments_for(packet.len());
        if needed == 0 {
            return false;
        }
        if mms.fifo_headroom(self.port) < needed {
            self.rejected += 1;
            return false;
        }
        for (chunk, pos) in self.segmenter.segment(packet) {
            let accepted = mms.submit_segment(now, self.port, flow, chunk.to_vec(), pos);
            debug_assert!(accepted, "headroom was checked");
            self.segments_out += 1;
        }
        self.packets_in += 1;
        true
    }

    /// `(packets accepted, segments submitted, packets refused)`.
    pub const fn counters(&self) -> (u64, u64, u64) {
        (self.packets_in, self.segments_out, self.rejected)
    }
}

/// The egress reassembly block: dequeued segments in, packets out.
#[derive(Debug, Default)]
pub struct ReassemblyBlock {
    per_flow: HashMap<FlowId, Reassembler>,
    packets_out: u64,
    errors: u64,
}

impl ReassemblyBlock {
    /// Creates an empty reassembly block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the MMS egress stream, returning every packet completed by
    /// this call as `(flow, packet)` pairs.
    pub fn collect(&mut self, mms: &mut Mms) -> Vec<(FlowId, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((flow, seg)) = mms.pop_egress() {
            let ras = self.per_flow.entry(flow).or_default();
            match ras.push(&seg.data, seg.sop, seg.eop) {
                Ok(Some(pkt)) => {
                    self.packets_out += 1;
                    out.push((flow, pkt));
                }
                Ok(None) => {}
                Err(_) => {
                    self.errors += 1;
                    ras.reset();
                }
            }
        }
        out
    }

    /// Packets fully reassembled so far.
    pub const fn packets_out(&self) -> u64 {
        self.packets_out
    }

    /// SOP/EOP protocol errors observed (0 in a correct system).
    pub const fn errors(&self) -> u64 {
        self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::MmsCommand;
    use crate::mms::MmsConfig;

    /// Full packet-level round trip through the timed MMS: segmentation →
    /// queueing (with DQM/DMC timing) → dequeue commands → reassembly.
    #[test]
    fn packet_round_trip_through_timed_mms() {
        let mut mms = Mms::new(MmsConfig::paper());
        let mut seg_block = SegmentationBlock::new(Port::In);
        let mut ras_block = ReassemblyBlock::new();
        let flow = FlowId::new(42);
        let packet: Vec<u8> = (0..300).map(|i| i as u8).collect(); // 5 segments

        assert!(seg_block.ingest(&mut mms, Cycle::ZERO, flow, &packet));
        let (pin, sout, rej) = seg_block.counters();
        assert_eq!((pin, sout, rej), (1, 5, 0));

        // Let the five enqueue commands execute (10 cycles each + margin).
        let now = mms.run(Cycle::ZERO, 100);
        assert_eq!(mms.engine().queue_len_segments(flow), 5);
        assert_eq!(mms.engine().complete_packets(flow), 1);

        // Issue dequeue commands for every segment.
        for i in 0..5u64 {
            assert!(mms.submit(now + i, Port::Out, MmsCommand::Dequeue, flow));
        }
        mms.run(now, 200);

        let pkts = ras_block.collect(&mut mms);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].0, flow);
        assert_eq!(pkts[0].1, packet, "byte-exact through the whole system");
        assert_eq!(ras_block.errors(), 0);
        assert_eq!(mms.stats().functional_misses.get(), 0);
        mms.engine().verify().unwrap();
    }

    #[test]
    fn interleaved_flows_reassemble_independently() {
        let mut mms = Mms::new(MmsConfig::paper());
        let mut seg_block = SegmentationBlock::new(Port::In);
        let mut ras_block = ReassemblyBlock::new();
        let a = FlowId::new(1);
        let b = FlowId::new(2);
        let pkt_a = vec![0xAA; 130];
        let pkt_b = vec![0xBB; 70];
        seg_block.ingest(&mut mms, Cycle::ZERO, a, &pkt_a);
        seg_block.ingest(&mut mms, Cycle::ZERO, b, &pkt_b);
        let now = mms.run(Cycle::ZERO, 200);
        for flow in [a, b, a, b, a] {
            mms.submit(now, Port::Out, MmsCommand::Dequeue, flow);
        }
        mms.run(now, 200);
        let mut got: Vec<_> = ras_block.collect(&mut mms);
        got.sort_by_key(|(f, _)| f.index());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, pkt_a);
        assert_eq!(got[1].1, pkt_b);
    }

    #[test]
    fn ingest_is_all_or_nothing_under_backpressure() {
        let mut cfg = MmsConfig::paper();
        cfg.fifo_capacity = 3;
        let mut mms = Mms::new(cfg);
        let mut seg_block = SegmentationBlock::new(Port::In);
        let flow = FlowId::new(0);
        // 5 segments > 3 FIFO slots: refused up front, nothing queued.
        assert!(!seg_block.ingest(&mut mms, Cycle::ZERO, flow, &[0u8; 300]));
        let (_, _, rejected) = seg_block.counters();
        assert_eq!(rejected, 1);
        mms.run(Cycle::ZERO, 50);
        assert!(mms.engine().is_empty(flow));
        // A 3-segment packet fits.
        assert!(seg_block.ingest(&mut mms, Cycle::new(50), flow, &[1u8; 150]));
    }

    #[test]
    fn empty_packet_is_refused() {
        let mut mms = Mms::new(MmsConfig::paper());
        let mut seg_block = SegmentationBlock::new(Port::In);
        assert!(!seg_block.ingest(&mut mms, Cycle::ZERO, FlowId::new(0), &[]));
    }
}

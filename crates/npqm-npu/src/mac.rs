//! The Ethernet MAC port and its dual-port BRAM staging buffer.
//!
//! "In order to measure the performance of the system when real network
//! traffic is applied to it, an Ethernet MAC port has been used. … The
//! second port is attached to a 4 Kbytes Dual Port internal Block RAM
//! (DP-BRAM), and is used to store temporarily the in-coming and out-going
//! Ethernet packets." (§5)
//!
//! The MAC serializes frames at the MII line rate; the DP-BRAM holds them
//! until the queue manager copies them out over the PLB. The staging
//! buffer's occupancy determines how much line-rate burst the system
//! absorbs while the CPU is busy.

use npqm_sim::time::Picos;

/// Ethernet physical-layer overheads.
pub const PREAMBLE_BYTES: u32 = 8;
/// Inter-frame gap in byte times.
pub const IFG_BYTES: u32 = 12;

/// A MAC port with a line rate and a DP-BRAM staging buffer.
#[derive(Debug, Clone)]
pub struct MacPort {
    line_mbps: u32,
    bram_bytes: u32,
    occupied: u32,
    rx_frames: u64,
    rx_dropped: u64,
    tx_frames: u64,
}

impl MacPort {
    /// The paper's port: 100 Mbps MII with a 4 KB DP-BRAM.
    pub fn paper() -> Self {
        Self::new(100, 4096)
    }

    /// Creates a port with the given line rate and staging-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(line_mbps: u32, bram_bytes: u32) -> Self {
        assert!(line_mbps > 0, "line rate must be non-zero");
        assert!(bram_bytes > 0, "staging buffer must be non-zero");
        MacPort {
            line_mbps,
            bram_bytes,
            occupied: 0,
            rx_frames: 0,
            rx_dropped: 0,
            tx_frames: 0,
        }
    }

    /// Time for `bytes` of payload to cross the wire (payload only — the
    /// §5.3 "available time" arithmetic, 5.12 µs for 64 bytes at 100 Mbps).
    pub fn wire_time(&self, bytes: u32) -> Picos {
        // bits * (1000 / mbps) ns; in ps: bits * 1e6 / mbps.
        Picos::new(bytes as u64 * 8 * 1_000_000 / self.line_mbps as u64)
    }

    /// Time for one full frame including preamble and inter-frame gap (the
    /// rate the line can actually sustain).
    pub fn frame_time(&self, bytes: u32) -> Picos {
        self.wire_time(bytes + PREAMBLE_BYTES + IFG_BYTES)
    }

    /// A frame of `bytes` arrives from the wire; returns `true` if the
    /// DP-BRAM had room (otherwise the frame is dropped and counted).
    pub fn rx(&mut self, bytes: u32) -> bool {
        if self.occupied + bytes > self.bram_bytes {
            self.rx_dropped += 1;
            return false;
        }
        self.occupied += bytes;
        self.rx_frames += 1;
        true
    }

    /// The queue manager drained `bytes` from the staging buffer.
    ///
    /// # Panics
    ///
    /// Panics if more is drained than is staged (an accounting bug).
    pub fn drain(&mut self, bytes: u32) {
        assert!(bytes <= self.occupied, "draining more than staged");
        self.occupied -= bytes;
    }

    /// Queues a frame for transmission (egress staging is modeled as
    /// pass-through: the MAC serializes at line rate).
    pub fn tx(&mut self, _bytes: u32) {
        self.tx_frames += 1;
    }

    /// Bytes currently staged in the DP-BRAM.
    pub const fn occupied(&self) -> u32 {
        self.occupied
    }

    /// `(received, dropped, transmitted)` frame counters.
    pub const fn counters(&self) -> (u64, u64, u64) {
        (self.rx_frames, self.rx_dropped, self.tx_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npqm_sim::time::{Cycle, Freq};

    #[test]
    fn wire_time_matches_section_5_3() {
        // "For a 100Mbps network and a minimum packet length of 64 bytes
        //  the available time to serve this packet is 5.12 usec."
        let mac = MacPort::paper();
        assert_eq!(mac.wire_time(64), Picos::from_nanos(5120));
        // The §5.3 budget: 512 cycles of a 100 MHz CPU per frame slot.
        assert_eq!(
            Freq::from_mhz(100).cycles_in(mac.wire_time(64)),
            Cycle::new(512)
        );
    }

    #[test]
    fn frame_time_includes_overheads() {
        let mac = MacPort::paper();
        // 64 + 8 + 12 = 84 byte times = 6.72 us at 100 Mbps.
        assert_eq!(mac.frame_time(64), Picos::from_nanos(6720));
        assert!(mac.frame_time(64) > mac.wire_time(64));
    }

    #[test]
    fn bram_absorbs_a_burst_then_drops() {
        let mut mac = MacPort::paper();
        let mut accepted = 0;
        for _ in 0..70 {
            if mac.rx(64) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64);
        let (rx, dropped, _) = mac.counters();
        assert_eq!((rx, dropped), (64, 6));
        assert_eq!(mac.occupied(), 4096);
    }

    #[test]
    fn draining_reopens_the_buffer() {
        let mut mac = MacPort::new(100, 128);
        assert!(mac.rx(64));
        assert!(mac.rx(64));
        assert!(!mac.rx(64));
        mac.drain(64);
        assert!(mac.rx(64));
        mac.tx(64);
        assert_eq!(mac.counters().2, 1);
    }

    #[test]
    fn gigabit_port_scales_times_down() {
        let gig = MacPort::new(1000, 4096);
        assert_eq!(gig.wire_time(64), Picos::from_nanos(512));
    }

    #[test]
    #[should_panic(expected = "draining more than staged")]
    fn overdrain_panics() {
        let mut mac = MacPort::paper();
        mac.drain(1);
    }
}

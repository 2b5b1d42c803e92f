//! End-to-end pipelines: generated traffic through the application
//! scenarios, with engine invariants checked throughout.

use npqm::core::FlowId;
use npqm::sim::rng::Xoshiro256pp;
use npqm::traffic::apps::{AtmSwitch, Lpm, Nat, PppEncapsulator, QosSwitch, Router};
use npqm::traffic::flows::FlowMix;
use npqm::traffic::packet::{EthernetFrame, Ipv4Packet, MacAddr, VlanTag};
use npqm::traffic::service::PacketStream;
use npqm::traffic::size::SizeDistribution;

/// A Zipf-skewed IMIX packet stream through a 4-port QoS switch:
/// everything that goes in comes out, in per-class FIFO order, and the
/// engine's structural invariants hold afterwards.
#[test]
fn trace_through_qos_switch() {
    let mix = FlowMix::zipf(3, 1.0); // three talkers
    let mut stream = PacketStream::new(&mix, &SizeDistribution::Imix, 11);
    let mut sw = QosSwitch::new(4).unwrap();
    let hosts: Vec<MacAddr> = (0..4).map(|i| MacAddr([0x10 + i as u8; 6])).collect();
    // Teach the switch all hosts.
    for (port, mac) in hosts.iter().enumerate() {
        sw.rx(
            port as u32,
            &EthernetFrame {
                dst: MacAddr([0xFF; 6]),
                src: *mac,
                vlan: None,
                ethertype: 0x0800,
                payload: vec![0; 46],
            }
            .to_bytes(),
        )
        .unwrap();
    }
    for p in 0..4 {
        while sw.tx(p).unwrap().is_some() {}
    }

    let mut rng = Xoshiro256pp::seed_from_u64(12);
    let mut sent = 0u32;
    for _ in 0..800 {
        let (flow, size, _) = stream.next_packet();
        let src_port = flow.index();
        let frame = EthernetFrame {
            dst: hosts[3],
            src: hosts[src_port as usize],
            vlan: Some(VlanTag {
                pcp: rng.next_below(8) as u8,
                vid: 7,
            }),
            ethertype: 0x0800,
            // Frame payload sized from the stream (bounded by segment math).
            payload: vec![0xCC; size.clamp(46, 1500) as usize],
        };
        if src_port != 3 {
            sw.rx(src_port, &frame.to_bytes()).unwrap();
            sent += 1;
        }
    }
    let mut received = 0u32;
    let mut last_pcp = 7u8;
    while let Some(bytes) = sw.tx(3).unwrap() {
        let f = EthernetFrame::parse(&bytes).unwrap();
        let pcp = f.vlan.unwrap().pcp;
        assert!(pcp <= last_pcp, "strict priority violated");
        last_pcp = pcp;
        received += 1;
    }
    assert_eq!(sent, received);
    sw.engine().verify().unwrap();
}

/// NAT → router → PPP encapsulation: a full egress pipeline over three
/// engines, byte-exact end to end.
#[test]
fn nat_router_ppp_pipeline() {
    let mut nat = Nat::new([198, 51, 100, 1]).unwrap();
    let mut lpm = Lpm::new();
    lpm.insert([0, 0, 0, 0], 0, 0);
    lpm.insert([172, 16, 0, 0], 12, 1);
    let mut router = Router::new(lpm, 2).unwrap();
    let mut ppp = PppEncapsulator::new(2).unwrap();

    let mut originals = Vec::new();
    for i in 0..40u8 {
        let pkt = Ipv4Packet {
            src: [192, 168, 1, i],
            dst: if i % 3 == 0 {
                [172, 16, 0, i]
            } else {
                [8, 8, 8, i]
            },
            protocol: 17,
            ttl: 64,
            payload: vec![i; 64 + i as usize],
        };
        nat.outbound(&pkt.to_bytes()).unwrap();
        originals.push(pkt);
    }
    while let Some(p) = nat.poll_wan().unwrap() {
        router.route(&p).unwrap();
    }
    let mut frames = 0;
    for hop in 0..2u32 {
        while let Some(p) = router.poll(hop).unwrap() {
            ppp.submit(hop, &p).unwrap();
            let frame = ppp.encapsulate(hop, 0x0021).unwrap();
            let (proto, body) = PppEncapsulator::decapsulate(&frame).unwrap();
            assert_eq!(proto, 0x0021);
            let ip = Ipv4Packet::parse(&body).expect("checksum valid after NAT+route");
            assert_eq!(ip.src, [198, 51, 100, 1], "NAT must have rewritten src");
            assert_eq!(ip.ttl, 63, "router must have decremented TTL");
            frames += 1;
        }
    }
    assert_eq!(frames, 40);
    nat.engine().verify().unwrap();
    router.engine().verify().unwrap();
    ppp.engine().verify().unwrap();
}

/// IP packets over ATM: AAL5 SAR through per-VC queues at IMIX sizes.
#[test]
fn ip_over_atm_imix() {
    let mut sw = AtmSwitch::new(64).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let sizes = SizeDistribution::Imix;
    let mut sent = Vec::new();
    for i in 0..60u16 {
        let vci = 32 + (i % 4);
        let payload_len = sizes.sample(&mut rng) as usize;
        let ip = Ipv4Packet {
            src: [10, 0, (i >> 8) as u8, i as u8],
            dst: [10, 9, 9, 9],
            protocol: 6,
            ttl: 61,
            payload: vec![i as u8; payload_len.saturating_sub(20).max(1)],
        };
        let bytes = ip.to_bytes();
        sw.send_pdu(0, vci, &bytes).unwrap();
        sent.push((vci, bytes));
    }
    for (vci, bytes) in sent {
        let got = sw.recv_pdu(0, vci).unwrap().expect("frame queued in order");
        assert_eq!(got, bytes);
        assert!(Ipv4Packet::parse(&got).is_ok());
    }
    sw.engine().verify().unwrap();
}

/// Memory exhaustion under sustained load is clean: drops are reported as
/// errors, nothing leaks, and the system recovers completely.
#[test]
fn overload_recovers_without_leaks() {
    use npqm::core::{QmConfig, QueueError, QueueManager};
    let cfg = QmConfig::builder()
        .num_flows(8)
        .num_segments(128)
        .segment_bytes(64)
        .build()
        .unwrap();
    let mut qm = QueueManager::new(cfg);
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let mut accepted = 0u32;
    for i in 0..500u32 {
        let f = FlowId::new(rng.next_below(8) as u32);
        let pkt = vec![i as u8; 1 + rng.next_below(400) as usize];
        match qm.enqueue_packet(f, &pkt) {
            Ok(()) => accepted += 1,
            Err(QueueError::OutOfSegments) => {
                // Drop policy: also drain a little to make room.
                for flow in 0..8 {
                    let _ = qm.dequeue_packet(FlowId::new(flow));
                }
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        qm.verify().unwrap();
    }
    assert!(accepted > 100, "accepted {accepted}");
    // Drain everything.
    for flow in 0..8u32 {
        while qm.dequeue_packet(FlowId::new(flow)).is_ok() {}
    }
    let report = qm.verify().unwrap();
    assert_eq!(report.segments_used, 0, "no leaked segments");
    assert_eq!(report.segments_free, 128);
}

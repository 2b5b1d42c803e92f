//! Memory timing: one packet's lifetime, priced access by access.
//!
//! The paper's point is that queue-management throughput is set by the
//! pointer-memory (ZBT SRAM) and data-memory (DDR bank) access patterns.
//! This example traces a single packet through the engine and prints
//! what every operation *really* costs under the paper's memory
//! organisation — then shows how the same operations speed up or slow
//! down when the DDR bank count or the access scheduler changes.
//!
//! Run with: `cargo run --example memory_timing`

use npqm::core::manager::SegmentPosition;
use npqm::core::timing::{PaperTiming, TimingConfig};
use npqm::core::{Command, FlowId, QmConfig, QueueManager};
use npqm::traffic::scale::{run_memory_scale, ShardScaleConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = QmConfig::builder()
        .num_flows(16)
        .num_segments(256)
        .segment_bytes(64)
        .build()?;
    let mut qm = QueueManager::new(cfg);
    let mut model = PaperTiming::new(TimingConfig::paper(8));
    let flow = FlowId::new(3);
    let other = FlowId::new(5);

    // One 150-byte packet arrives as three SAR segments, gets its header
    // peeked and rewritten, moves to another queue, and leaves segment
    // by segment — the §6 operation set, each op priced by the model.
    println!("one packet's lifetime under 8 DDR banks + reordering scheduler:");
    println!(
        "{:<28} {:>8} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "operation", "ptr-acc", "rd", "wr", "ZBT", "DDR", "op time"
    );
    let script: Vec<(&str, Command)> = vec![
        (
            "Enqueue (First, 64 B)",
            Command::Enqueue {
                flow,
                data: vec![0xAA; 64],
                pos: SegmentPosition::First,
            },
        ),
        (
            "Enqueue (Middle, 64 B)",
            Command::Enqueue {
                flow,
                data: vec![0xBB; 64],
                pos: SegmentPosition::Middle,
            },
        ),
        (
            "Enqueue (Last, 22 B)",
            Command::Enqueue {
                flow,
                data: vec![0xCC; 22],
                pos: SegmentPosition::Last,
            },
        ),
        ("Read head", Command::Read { flow }),
        (
            "Overwrite head (header)",
            Command::Overwrite {
                flow,
                data: vec![0xDD; 40],
            },
        ),
        (
            "Move to another queue",
            Command::Move {
                src: flow,
                dst: other,
            },
        ),
        ("Dequeue segment 1", Command::Dequeue { flow: other }),
        ("Dequeue segment 2", Command::Dequeue { flow: other }),
        ("Dequeue segment 3", Command::Dequeue { flow: other }),
        (
            "Delete (empty queue)",
            Command::DeleteSegment { flow: other },
        ),
    ];
    for (name, cmd) in script {
        let (result, cost) = qm.execute_costed(cmd, &mut model);
        let outcome = if result.is_ok() { "" } else { " (error)" };
        println!(
            "{:<28} {:>8} {:>7} {:>7} {:>7}ns {:>7}ns {:>7}ns{}",
            name,
            cost.ptr_accesses,
            cost.data_reads,
            cost.data_writes,
            cost.ptr_time.as_u64() / 1000,
            cost.data_time.as_u64() / 1000,
            cost.time().as_u64() / 1000,
            outcome,
        );
    }
    println!(
        "channel clocks after the lifetime: {} (ZBT and DDR run in parallel;\n\
         note Move costs no data traffic at all — it is pure pointer work,\n\
         and Delete is the cheapest command, exactly as in the paper's Table 4)",
        model.elapsed()
    );
    qm.verify()?;

    // The same engine workload under different memory organisations: the
    // closed-loop sweep behind `table8`, here at smoke size.
    println!();
    println!("memory organisation vs sustained queue throughput (smoke-size sweep):");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "banks", "scheduler", "Mops/s", "DDR loss"
    );
    let sweep = ShardScaleConfig::smoke();
    for banks in [1u32, 4, 16] {
        for (name, timing) in [
            ("naive", TimingConfig::naive(banks)),
            ("reordering", TimingConfig::paper(banks)),
        ] {
            let row = run_memory_scale(&sweep, 2, &timing);
            assert!(row.conserved);
            println!(
                "{:>6} {:>12} {:>12.2} {:>9.1}%",
                banks,
                name,
                row.ops_per_sec() / 1e6,
                row.ddr_loss() * 100.0,
            );
        }
    }
    println!("(run `cargo run --release -p npqm-bench --bin table8` for the full sweep)");
    Ok(())
}

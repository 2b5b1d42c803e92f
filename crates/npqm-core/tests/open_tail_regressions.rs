//! The open-tail regressions: commands that spliced packets or trailers
//! around a tail still mid-SAR, tearing frames while `verify` passed. Each
//! scenario is the corpus script of its name (`corpus/scripts.rs`), which
//! the crate's `model` tests hold to the model reply by reply. Here the
//! public API replays it, `verify` after every step, to its digest.

// The generator and the minimiser's accessors serve the model alone.
#[allow(dead_code)]
#[path = "../src/model/script.rs"]
mod script;

fn replay(name: &str) {
    let script = script::CORPUS.iter().find(|s| s.name == name).unwrap();
    let (mut engine, mut scheds) = (script.shape.engine(), script.shape.schedulers());
    for (tag, &step) in script.steps.iter().enumerate() {
        let _ = script::apply(&mut engine, &mut scheds, step, tag as u8);
        let verified = engine.verify();
        assert!(verified.is_ok(), "step {tag} {step:?}: {verified:?}");
    }
    assert_eq!(engine.state_digest(), script.digest);
}

#[test]
fn move_into_open_destination_is_rejected() {
    replay("move_into_open_destination_is_rejected");
}

#[test]
fn rotate_past_open_tail_is_rejected() {
    replay("rotate_past_open_tail_is_rejected");
}

#[test]
fn append_tail_on_open_packet_is_rejected() {
    replay("append_tail_on_open_packet_is_rejected");
}

#[test]
fn fused_moves_reject_open_destination() {
    replay("fused_moves_reject_open_destination");
}

#[test]
fn move_of_partially_consumed_head_is_rejected() {
    replay("move_of_partially_consumed_head_is_rejected");
}

#[test]
fn move_out_of_open_source_still_works() {
    replay("move_out_of_open_source_still_works");
}

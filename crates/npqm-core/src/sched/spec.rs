//! Text specs for schedulers: one compact string names any discipline.
//!
//! Table binaries, examples and property tests all need "a scheduler by
//! name" — previously each carried its own `Box<dyn FlowScheduler>`
//! match block. [`from_spec`] centralises that:
//!
//! | spec | discipline |
//! |------|------------|
//! | `"sp"` | [`StrictPriority`] over all flows |
//! | `"drr"` | [`DeficitRoundRobin`], 1518-byte quantum per flow |
//! | `"drr:640"` | DRR, one shared quantum |
//! | `"drr:64,640,128"` | DRR, per-flow quanta (must match flow count) |
//! | `"wrr:4,2,1"` | [`WeightedRoundRobin`] (one weight replicates) |
//! | `"htb:cap=1000;root,rate=1000;t0,parent=root,rate=500,ceil=1000,flows=0-7;…"` | [`HtbScheduler`](super::HtbScheduler) class tree |
//!
//! The HTB grammar is `cap=<units>` followed by `;`-separated classes:
//! `name[,parent=<name>][,rate=<u64>][,ceil=<u64>][,burst=<bytes>]`
//! `[,prio=<0-7>][,quantum=<bytes>][,flow=<n>|flows=<a>-<b>]`. `rate`
//! defaults to `cap`; a class with `flow=`/`flows=` is a leaf (a range
//! expands to one leaf per flow, each with the given per-leaf config).
//! Every flow in `0..flows` must be owned by exactly one leaf, since an
//! uncovered flow could never be scheduled and would strand packets.

use super::htb::{HtbClass, HtbTreeBuilder};
use super::{DeficitRoundRobin, FlowScheduler, StrictPriority, WeightedRoundRobin};
use crate::id::FlowId;
use std::fmt;

/// Error from [`from_spec`]: the spec string did not describe a valid
/// scheduler for the given flow count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError { msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad scheduler spec: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

fn parse_u64(what: &str, s: &str) -> Result<u64, SpecError> {
    s.parse()
        .map_err(|_| SpecError::new(format!("{what}: not a number: {s:?}")))
}

/// A WRR weight or DRR quantum list: zero would starve its flow, so it is
/// refused here rather than by the scheduler's constructor, which panics.
fn parse_list(what: &str, s: &str, flows: u32) -> Result<Vec<u32>, SpecError> {
    let vals: Vec<u32> = s
        .split(',')
        .map(|v| match v.trim().parse() {
            Ok(0) => Err(SpecError::new(format!("{what}: must be non-zero: {v:?}"))),
            Ok(n) => Ok(n),
            Err(_) => Err(SpecError::new(format!("{what}: not a number: {v:?}"))),
        })
        .collect::<Result<_, _>>()?;
    match vals.len() {
        1 => Ok(vec![vals[0]; flows as usize]),
        n if n == flows as usize => Ok(vals),
        n => Err(SpecError::new(format!(
            "{what}: {n} values for {flows} flows (give 1 or {flows})"
        ))),
    }
}

fn parse_htb(body: &str, flows: u32) -> Result<Box<dyn FlowScheduler + Send>, SpecError> {
    let mut segments = body.split(';').map(str::trim);
    let cap_seg = segments
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| SpecError::new("htb: expected leading cap=<units>"))?;
    let cap = match cap_seg.split_once('=') {
        Some(("cap", v)) => parse_u64("htb cap", v)?,
        _ => {
            return Err(SpecError::new(format!(
                "htb: expected cap=<units>, got {cap_seg:?}"
            )))
        }
    };
    let mut builder = HtbTreeBuilder::new(cap);
    let mut covered = vec![false; flows as usize];
    let mut any_class = false;
    for seg in segments {
        if seg.is_empty() {
            continue;
        }
        any_class = true;
        let mut parts = seg.split(',').map(str::trim);
        let name = parts
            .next()
            .filter(|n| !n.is_empty() && !n.contains('='))
            .ok_or_else(|| {
                SpecError::new(format!(
                    "htb: class segment must start with a name: {seg:?}"
                ))
            })?;
        let mut parent: Option<String> = None;
        let mut rate = cap;
        let mut ceil: Option<u64> = None;
        let mut burst: Option<u64> = None;
        let mut prio: Option<u8> = None;
        let mut quantum: Option<u32> = None;
        // First and last flow, as written (checked against `flows` below).
        let mut leaf_flows: Option<(u64, u64)> = None;
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| SpecError::new(format!("htb: expected key=value, got {kv:?}")))?;
            match k {
                "parent" => parent = Some(v.to_string()),
                "rate" => rate = parse_u64("htb rate", v)?,
                "ceil" => ceil = Some(parse_u64("htb ceil", v)?),
                "burst" => burst = Some(parse_u64("htb burst", v)?),
                "prio" => {
                    let p = parse_u64("htb prio", v)?;
                    prio = Some(p.min(u8::MAX as u64) as u8);
                }
                "quantum" => {
                    let q = parse_u64("htb quantum", v)?;
                    quantum = Some(q.min(u32::MAX as u64) as u32);
                }
                "flow" => {
                    let f = parse_u64("htb flow", v)?;
                    leaf_flows = Some((f, f));
                }
                "flows" => {
                    let (a, b) = v.split_once('-').ok_or_else(|| {
                        SpecError::new(format!("htb flows: expected <a>-<b>, got {v:?}"))
                    })?;
                    let a = parse_u64("htb flows", a)?;
                    let b = parse_u64("htb flows", b)?;
                    if b < a {
                        return Err(SpecError::new(format!("htb flows: empty range {v:?}")));
                    }
                    leaf_flows = Some((a, b));
                }
                other => {
                    return Err(SpecError::new(format!(
                        "htb: unknown key {other:?} in {seg:?}"
                    )))
                }
            }
        }
        let mut cfg = HtbClass::rate(rate);
        if let Some(c) = ceil {
            cfg = cfg.ceil(c);
        }
        if let Some(b) = burst {
            cfg = cfg.burst(b);
        }
        if let Some(p) = prio {
            cfg = cfg.priority(p);
        }
        if let Some(q) = quantum {
            cfg = cfg.quantum(q);
        }
        match leaf_flows {
            None => builder = builder.class(name, parent.as_deref(), cfg),
            Some((a, b)) => {
                if b >= u64::from(flows) {
                    return Err(SpecError::new(format!(
                        "htb: leaf flow {b} is outside 0..{flows}"
                    )));
                }
                for f in a as u32..=b as u32 {
                    covered[f as usize] = true;
                    let leaf_name = if a == b {
                        name.to_string()
                    } else {
                        format!("{name}.{f}")
                    };
                    builder = builder.leaf(&leaf_name, parent.as_deref(), FlowId::new(f), cfg);
                }
            }
        }
    }
    if !any_class {
        return Err(SpecError::new("htb: no classes"));
    }
    if let Some(f) = covered.iter().position(|c| !c) {
        return Err(SpecError::new(format!(
            "htb: flow {f} has no leaf and could never be scheduled"
        )));
    }
    let sched = builder
        .build()
        .map_err(|e| SpecError::new(format!("htb: {e}")))?;
    Ok(Box::new(sched))
}

/// Builds a scheduler over flows `0..flows` from a spec string; see the
/// [module docs](self) for the grammar.
///
/// # Example
///
/// ```
/// use npqm_core::sched::from_spec;
///
/// let mut wrr = from_spec("wrr:4,2,1,1", 4).unwrap();
/// let mut htb = from_spec("htb:cap=100;t,rate=50,ceil=100,flows=0-3", 4).unwrap();
/// assert!(from_spec("wrr:4,2", 4).is_err());
/// ```
pub fn from_spec(spec: &str, flows: u32) -> Result<Box<dyn FlowScheduler + Send>, SpecError> {
    if flows == 0 {
        return Err(SpecError::new("flow count must be non-zero"));
    }
    let spec = spec.trim();
    let (kind, body) = match spec.split_once(':') {
        Some((k, b)) => (k.trim(), Some(b.trim())),
        None => (spec, None),
    };
    match (kind, body) {
        ("sp", None) => Ok(Box::new(StrictPriority::new(flows))),
        ("sp", Some(_)) => Err(SpecError::new("sp takes no arguments")),
        ("drr", None) => Ok(Box::new(DeficitRoundRobin::new(vec![1518; flows as usize]))),
        ("drr", Some(b)) => Ok(Box::new(DeficitRoundRobin::new(parse_list(
            "drr quanta",
            b,
            flows,
        )?))),
        ("wrr", None) => Ok(Box::new(WeightedRoundRobin::new(vec![1; flows as usize]))),
        ("wrr", Some(b)) => Ok(Box::new(WeightedRoundRobin::new(parse_list(
            "wrr weights",
            b,
            flows,
        )?))),
        ("htb", Some(b)) => parse_htb(b, flows),
        ("htb", None) => Err(SpecError::new("htb needs a tree spec after the colon")),
        (other, _) => Err(SpecError::new(format!(
            "unknown discipline {other:?} (try sp, drr, wrr or htb)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::manager::QueueManager;
    use crate::sched::drain_next;

    #[test]
    fn builds_every_discipline() {
        for spec in [
            "sp",
            "drr",
            "drr:640",
            "drr:64,640,128,1518",
            "wrr",
            "wrr:4,2,1,1",
            "wrr:3",
            "htb:cap=1000;root,rate=1000;t,parent=root,rate=250,ceil=1000,flows=0-3",
        ] {
            let mut qm = QueueManager::new(QmConfig::small());
            qm.enqueue_packet(FlowId::new(2), &[0; 64]).unwrap();
            let mut sched = from_spec(spec, 4).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let (f, _) = drain_next(&mut qm, &mut sched).unwrap();
            assert_eq!(f.index(), 2, "{spec} must serve the only backlog");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(from_spec("fq", 4).is_err());
        assert!(from_spec("sp:8", 4).is_err());
        assert!(from_spec("drr:a,b", 4).is_err());
        assert!(from_spec("wrr:4,2", 4).is_err(), "2 weights for 4 flows");
        assert!(from_spec("drr", 0).is_err(), "zero flows");
        assert!(from_spec("htb", 4).is_err());
        assert!(
            from_spec("htb:t,rate=5,flows=0-3", 4).is_err(),
            "missing cap"
        );
        assert!(
            from_spec("htb:cap=100;t,rate=50,flows=0-2", 4).is_err(),
            "flow 3 uncovered"
        );
        assert!(
            from_spec("htb:cap=100;t,rate=50,flows=0-4", 4).is_err(),
            "flow 4 out of range"
        );
        assert!(
            from_spec("htb:cap=100;t,rate=50,wat=1,flows=0-3", 4).is_err(),
            "unknown key"
        );
    }

    #[test]
    fn zero_weights_and_quanta_are_errors_not_panics() {
        // Each of these once reached a constructor that panics on zero.
        assert!(from_spec("wrr:4,0,1", 3).is_err());
        assert!(from_spec("wrr:0", 2).is_err());
        assert!(from_spec("drr:0", 4).is_err());
        assert!(from_spec("drr:64,0", 2).is_err());
        // A leaf flow past u32 once overflowed (or wrapped onto flow 0).
        assert!(from_spec("htb:cap=100;t,flow=4294967295", 1).is_err());
        assert!(from_spec("htb:cap=100;t,flow=4294967296", 1).is_err());
        assert!(from_spec("htb:cap=100;t,flows=0-4294967295", 1).is_err());
    }

    /// The module doc's specs, and an HTB tree using every key of its
    /// grammar, mutated one to four times each by inserting, deleting or
    /// replacing a character, at flow counts 0 to 4: every call answers
    /// `Ok` or `Err` and none unwinds.
    #[test]
    fn mutated_specs_never_panic() {
        let seeds = [
            "sp",
            "drr",
            "drr:640",
            "drr:64,640,128",
            "wrr:4,2,1",
            "htb:cap=1000;root,rate=1000;t0,parent=root,rate=500,ceil=1000,flows=0-7",
            "htb:cap=100;r;a,parent=r,rate=50,ceil=100,burst=3036,prio=1,quantum=640,flow=0;\
             b,parent=r,rate=50,flows=1-3",
        ];
        let alphabet: Vec<char> = "0123456789,;:=- abcdefhilnopqrstuwy\u{e9}"
            .chars()
            .collect();
        let seed = proptest::seed_for(concat!(module_path!(), "::mutated_specs_never_panic"));
        let mut rng = proptest::new_rng(seed);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        for case in 0..20_000 {
            let mut spec: Vec<char> = seeds[pick(seeds.len())].chars().collect();
            for _ in 0..1 + pick(4) {
                let (at, c) = (pick(spec.len() + 1), alphabet[pick(alphabet.len())]);
                match pick(3) {
                    0 => spec.insert(at, c),
                    _ if at == spec.len() => {}
                    1 => drop(spec.remove(at)),
                    _ => spec[at] = c,
                }
            }
            let spec: String = spec.into_iter().collect();
            for flows in 0..=4 {
                let call = std::panic::catch_unwind(|| drop(from_spec(&spec, flows)));
                assert!(
                    call.is_ok(),
                    "case {case} (seed {seed:#x}): from_spec({spec:?}, {flows}) panicked"
                );
            }
        }
    }

    #[test]
    fn single_weight_replicates() {
        let mut qm = QueueManager::new(QmConfig::small());
        for f in 0..4u32 {
            for _ in 0..3 {
                qm.enqueue_packet(FlowId::new(f), &[f as u8; 64]).unwrap();
            }
        }
        let mut sched = from_spec("wrr:2", 4).unwrap();
        let mut counts = [0u32; 4];
        for _ in 0..8 {
            let (f, _) = drain_next(&mut qm, &mut sched).unwrap();
            counts[f.as_usize()] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn htb_spec_keys_reach_the_tree() {
        let sched = from_spec(
            "htb:cap=1000;root,rate=1000;\
             gold,parent=root,rate=600,ceil=1000,prio=1,quantum=640,flows=0-1;\
             bulk,parent=root,rate=400,ceil=1000,prio=6,burst=3036,flows=2-3",
            4,
        )
        .unwrap();
        // The boxed scheduler still schedules (smoke via one enqueue).
        let mut qm = QueueManager::new(QmConfig::small());
        qm.enqueue_packet(FlowId::new(3), &[0; 64]).unwrap();
        let mut sched = sched;
        let (f, _) = drain_next(&mut qm, &mut sched).unwrap();
        assert_eq!(f.index(), 3);
    }
}

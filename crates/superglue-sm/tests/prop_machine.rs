//! Property-based tests for the descriptor state machines.
//! Random machine shapes come from the repo's seeded [`SplitMix64`]
//! generator, so every case is reproducible from its index.

use composite::rng::{mix, SplitMix64};
use superglue_sm::machine::{State, StateMachineBuilder};
use superglue_sm::FnId;

const CASES: u64 = 96;

/// A random machine description: `n` functions, some creation/terminal
/// roles, and a set of follows edges.
#[derive(Debug, Clone)]
struct MachineDesc {
    n: usize,
    creations: Vec<usize>,
    terminals: Vec<usize>,
    follows: Vec<(usize, usize)>,
}

fn machine_desc(rng: &mut SplitMix64) -> MachineDesc {
    let n = 2 + rng.gen_index(5);
    let creations = (0..1 + rng.gen_index(2))
        .map(|_| rng.gen_index(n))
        .collect();
    let terminals = (0..rng.gen_index(2)).map(|_| rng.gen_index(n)).collect();
    let follows = (0..rng.gen_index(20))
        .map(|_| (rng.gen_index(n), rng.gen_index(n)))
        .collect();
    MachineDesc {
        n,
        creations,
        terminals,
        follows,
    }
}

fn build(desc: &MachineDesc) -> Option<superglue_sm::StateMachine> {
    let mut b = StateMachineBuilder::new("prop");
    let fns: Vec<FnId> = (0..desc.n).map(|i| b.function(format!("f{i}"))).collect();
    for &c in &desc.creations {
        b.creation(fns[c]);
    }
    for &t in &desc.terminals {
        b.terminal(fns[t]);
    }
    for &(f, g) in &desc.follows {
        b.transition(fns[f], fns[g]);
    }
    b.build().ok()
}

/// Building never panics, and when it succeeds, replaying the recovery
/// walk through σ from Init always lands exactly on the walk's target
/// state.
#[test]
fn walks_replay_to_their_target() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(mix(0x3a17_0001, case));
        let desc = machine_desc(&mut rng);
        let Some(sm) = build(&desc) else { continue };
        for i in 0..sm.function_count() {
            let target = State::After(FnId(i as u32));
            let Ok(walk) = sm.recovery_walk(target) else {
                continue;
            };
            let mut s = State::Init;
            for f in &walk {
                s = sm
                    .step(s, *f)
                    .expect("walk edges must be valid transitions");
            }
            assert_eq!(s, target, "case {case}");
        }
    }
}

/// Walks are shortest: no other path found by exhaustive BFS is shorter.
#[test]
fn walks_are_minimal() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(mix(0x3a17_0002, case));
        let desc = machine_desc(&mut rng);
        let Some(sm) = build(&desc) else { continue };
        // Exhaustive BFS over σ.
        use std::collections::{BTreeMap, VecDeque};
        let mut dist: BTreeMap<State, usize> = BTreeMap::new();
        dist.insert(State::Init, 0);
        let mut q = VecDeque::from([State::Init]);
        while let Some(s) = q.pop_front() {
            let d = dist[&s];
            for i in 0..sm.function_count() {
                let f = FnId(i as u32);
                if let Ok(t) = sm.step(s, f) {
                    if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(t) {
                        e.insert(d + 1);
                        q.push_back(t);
                    }
                }
            }
        }
        for (&s, &d) in &dist {
            if let Ok(walk) = sm.recovery_walk(s) {
                assert_eq!(walk.len(), d, "case {case}: walk to {s:?}");
            }
        }
    }
}

/// σ is deterministic and total on declared edges only.
#[test]
fn step_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(mix(0x3a17_0003, case));
        let desc = machine_desc(&mut rng);
        let Some(sm) = build(&desc) else { continue };
        for (s, f, t) in sm.edges() {
            assert_eq!(sm.step(s, f).expect("edge exists"), t, "case {case}");
            assert_eq!(sm.step(s, f).expect("edge exists"), t, "case {case}");
        }
    }
}

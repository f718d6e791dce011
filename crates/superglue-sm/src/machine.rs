//! Descriptor state machines `SM = (I, S, σ, s0, s_f)` (§III-B).
//!
//! SuperGlue keeps the states of a descriptor *implicit*: the IDL declares
//! pairs of functions (`sm_transition(f, g)` means "`g` may follow `f`"),
//! so a descriptor's state is simply "the last interface function applied
//! to it". This module makes those states explicit as [`State`] values and
//! builds a checked transition function σ.

use std::collections::BTreeMap;
use std::fmt;

use crate::walk::RecoveryWalks;
use crate::{Error, Result};

/// Index of an interface function inside one [`StateMachine`].
///
/// `FnId`s are dense (0..function_count) and order follows declaration
/// order, so they double as indices into per-function side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

impl FnId {
    /// The dense index of this function.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A descriptor state.
///
/// * [`State::Init`] — `s0`: the descriptor does not yet exist (or was
///   just created and no function has run on it).
/// * [`State::After`] — the descriptor's last successful interface call
///   was the given function (the paper's implicit states).
/// * [`State::Terminated`] — a terminal function destroyed the descriptor.
/// * [`State::Faulty`] — `s_f`: the server failed; there are implicit
///   transitions here from every other state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// `s0`, before/at creation.
    Init,
    /// After the given interface function last ran on the descriptor.
    After(FnId),
    /// Destroyed by a terminal function.
    Terminated,
    /// `s_f`, the special faulty state.
    Faulty,
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            State::Init => f.write_str("s0"),
            State::After(id) => write!(f, "after({id})"),
            State::Terminated => f.write_str("terminated"),
            State::Faulty => f.write_str("s_f"),
        }
    }
}

/// Role sets `I^create`, `I^terminate`, `I^block`, `I^wakeup` (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FnRoles {
    /// Returns a new descriptor in state `s0` (`sm_creation`).
    pub creates: bool,
    /// Takes a descriptor and destroys it (`sm_terminal`).
    pub terminates: bool,
    /// May block the invoking thread (`sm_block`).
    pub blocks: bool,
    /// Wakes a blocked thread (`sm_wakeup`).
    pub wakes: bool,
}

/// One interface function of the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpec {
    /// Function name as written in the IDL / C header.
    pub name: String,
    /// Role memberships.
    pub roles: FnRoles,
}

/// A fully-built, validated descriptor state machine.
///
/// Construct with [`StateMachineBuilder`]. Transition checking uses σ; the
/// precomputed shortest recovery walks are exposed via
/// [`StateMachine::recovery_walk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMachine {
    interface: String,
    functions: Vec<FnSpec>,
    /// σ as an explicit edge map: (source state, function) → target state.
    transitions: BTreeMap<(State, FnId), State>,
    walks: RecoveryWalks,
}

impl StateMachine {
    /// The interface name this machine describes (e.g. `"lock"`).
    #[must_use]
    pub fn interface(&self) -> &str {
        &self.interface
    }

    /// All interface functions `I`, indexable by [`FnId`].
    #[must_use]
    pub fn functions(&self) -> &[FnSpec] {
        &self.functions
    }

    /// Number of interface functions.
    #[must_use]
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Look up a function by name.
    #[must_use]
    pub fn function_by_name(&self, name: &str) -> Option<FnId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FnId(i as u32))
    }

    /// The name of a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this machine.
    #[must_use]
    pub fn function_name(&self, id: FnId) -> &str {
        &self.functions[id.index()].name
    }

    /// The role set of a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this machine.
    #[must_use]
    pub fn roles(&self, id: FnId) -> FnRoles {
        self.functions[id.index()].roles
    }

    /// All creation functions (`I^create`).
    pub fn creation_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.roles.creates)
            .map(|(i, _)| FnId(i as u32))
    }

    /// All terminal functions (`I^terminate`).
    pub fn terminal_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.roles.terminates)
            .map(|(i, _)| FnId(i as u32))
    }

    /// All blocking functions (`I^block`).
    pub fn blocking_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.roles.blocks)
            .map(|(i, _)| FnId(i as u32))
    }

    /// All wakeup functions (`I^wakeup`).
    pub fn wakeup_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.roles.wakes)
            .map(|(i, _)| FnId(i as u32))
    }

    /// σ: apply interface function `via` to a descriptor in `state`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidTransition`] when the machine has no such edge —
    /// which SuperGlue treats as runtime fault *detection*, and
    /// [`Error::UnknownFunction`] when `via` is not a function of this
    /// machine.
    pub fn step(&self, state: State, via: FnId) -> Result<State> {
        if via.index() >= self.functions.len() {
            return Err(Error::UnknownFunction(via));
        }
        self.transitions
            .get(&(state, via))
            .copied()
            .ok_or(Error::InvalidTransition { state, via })
    }

    /// All `(source, fn, target)` edges of σ, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (State, FnId, State)> + '_ {
        self.transitions.iter().map(|(&(s, f), &t)| (s, f, t))
    }

    /// The precomputed shortest recovery walk from `s0` to `expected`:
    /// the sequence of interface functions a stub replays (after the
    /// micro-reboot put the server into a safe state) so that the
    /// descriptor re-enters the state it held before the fault (**R0**).
    ///
    /// # Errors
    ///
    /// [`Error::Unreachable`] when the expected state cannot be reached
    /// from the initial state (a specification bug caught at build time
    /// for all `After` states; only queryable states can fail here).
    pub fn recovery_walk(&self, expected: State) -> Result<Vec<FnId>> {
        self.walks.walk_to(expected)
    }
}

/// Builder for [`StateMachine`].
///
/// Mirrors the IDL's `sm_*` declarations: register functions, declare
/// roles, declare `sm_transition(f, g)` pairs, then [`build`].
///
/// [`build`]: StateMachineBuilder::build
#[derive(Debug, Clone)]
pub struct StateMachineBuilder {
    interface: String,
    functions: Vec<FnSpec>,
    /// `(f, g)` pairs: g may follow f.
    follows: Vec<(FnId, FnId)>,
}

impl StateMachineBuilder {
    /// Start building the machine for the named interface.
    #[must_use]
    pub fn new(interface: impl Into<String>) -> Self {
        Self {
            interface: interface.into(),
            functions: Vec::new(),
            follows: Vec::new(),
        }
    }

    /// Register an interface function and return its id. Re-registering a
    /// name returns the existing id.
    pub fn function(&mut self, name: impl Into<String>) -> FnId {
        let name = name.into();
        if let Some(i) = self.functions.iter().position(|f| f.name == name) {
            return FnId(i as u32);
        }
        self.functions.push(FnSpec {
            name,
            roles: FnRoles::default(),
        });
        FnId((self.functions.len() - 1) as u32)
    }

    /// Declare `f ∈ I^create` (`sm_creation(f)`).
    pub fn creation(&mut self, f: FnId) -> &mut Self {
        self.functions[f.index()].roles.creates = true;
        self
    }

    /// Declare `f ∈ I^terminate` (`sm_terminal(f)`).
    pub fn terminal(&mut self, f: FnId) -> &mut Self {
        self.functions[f.index()].roles.terminates = true;
        self
    }

    /// Declare `f ∈ I^block` (`sm_block(f)`).
    pub fn block(&mut self, f: FnId) -> &mut Self {
        self.functions[f.index()].roles.blocks = true;
        self
    }

    /// Declare `f ∈ I^wakeup` (`sm_wakeup(f)`).
    pub fn wakeup(&mut self, f: FnId) -> &mut Self {
        self.functions[f.index()].roles.wakes = true;
        self
    }

    /// Declare that `g` may follow `f` (`sm_transition(f, g)`).
    pub fn transition(&mut self, f: FnId, g: FnId) -> &mut Self {
        if !self.follows.contains(&(f, g)) {
            self.follows.push((f, g));
        }
        self
    }

    /// Validate the declarations and build the machine.
    ///
    /// States are made explicit: every creation function gives an edge
    /// `Init --f--> After(f)` (or `Terminated` if `f` also terminates);
    /// every `sm_transition(f, g)` gives `After(f) --g--> After(g)`, with
    /// the target collapsing to [`State::Terminated`] when `g` is
    /// terminal. Recovery walks to every reachable state are precomputed
    /// by breadth-first search.
    ///
    /// # Errors
    ///
    /// * [`Error::NoCreationFunction`] if `I^create` is empty.
    /// * [`Error::UnknownFunction`] if a transition references an
    ///   unregistered function id.
    /// * [`Error::Unreachable`] if some non-terminal `After` state cannot
    ///   be reached from `Init` — descriptors could get into states the
    ///   recovery walk could never rebuild.
    pub fn build(&self) -> Result<StateMachine> {
        if !self.functions.iter().any(|f| f.roles.creates) {
            return Err(Error::NoCreationFunction);
        }
        let n = self.functions.len() as u32;
        for &(f, g) in &self.follows {
            if f.0 >= n {
                return Err(Error::UnknownFunction(f));
            }
            if g.0 >= n {
                return Err(Error::UnknownFunction(g));
            }
        }

        let mut transitions: BTreeMap<(State, FnId), State> = BTreeMap::new();
        let target_of = |g: FnId, roles: &FnRoles| {
            if roles.terminates {
                State::Terminated
            } else {
                State::After(g)
            }
        };
        for (i, f) in self.functions.iter().enumerate() {
            if f.roles.creates {
                let id = FnId(i as u32);
                transitions.insert((State::Init, id), target_of(id, &f.roles));
            }
        }
        for &(f, g) in &self.follows {
            let roles = self.functions[g.index()].roles;
            transitions.insert((State::After(f), g), target_of(g, &roles));
        }

        let walks = RecoveryWalks::compute(&transitions);

        // Every state that σ can produce (other than Terminated) must be
        // reachable so that a recovery walk exists for it.
        for (&(_, _), &target) in &transitions {
            if let State::After(_) = target {
                if walks.walk_to(target).is_err() {
                    return Err(Error::Unreachable(target));
                }
            }
        }

        Ok(StateMachine {
            interface: self.interface.clone(),
            functions: self.functions.clone(),
            transitions,
            walks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lock machine from §III-B of the paper.
    fn lock_machine() -> (StateMachine, [FnId; 4]) {
        let mut b = StateMachineBuilder::new("lock");
        let alloc = b.function("lock_alloc");
        let take = b.function("lock_take");
        let release = b.function("lock_release");
        let free = b.function("lock_free");
        b.creation(alloc);
        b.terminal(free);
        b.block(take);
        b.wakeup(release);
        b.transition(alloc, take);
        b.transition(take, release);
        b.transition(release, take);
        b.transition(release, free);
        b.transition(alloc, free);
        (b.build().unwrap(), [alloc, take, release, free])
    }

    #[test]
    fn lock_machine_builds() {
        let (sm, _) = lock_machine();
        assert_eq!(sm.interface(), "lock");
        assert_eq!(sm.function_count(), 4);
    }

    #[test]
    fn step_follows_sigma() {
        let (sm, [alloc, take, release, free]) = lock_machine();
        let s = sm.step(State::Init, alloc).unwrap();
        assert_eq!(s, State::After(alloc));
        let s = sm.step(s, take).unwrap();
        assert_eq!(s, State::After(take));
        let s = sm.step(s, release).unwrap();
        let s = sm.step(s, free).unwrap();
        assert_eq!(s, State::Terminated);
    }

    #[test]
    fn invalid_transition_is_fault_detection() {
        let (sm, [alloc, _take, release, _free]) = lock_machine();
        // Releasing a lock that was never taken is an invalid branch.
        let err = sm.step(State::After(alloc), release).unwrap_err();
        assert!(matches!(err, Error::InvalidTransition { .. }));
    }

    #[test]
    fn unknown_function_rejected_by_step() {
        let (sm, _) = lock_machine();
        assert!(matches!(
            sm.step(State::Init, FnId(99)),
            Err(Error::UnknownFunction(_))
        ));
    }

    #[test]
    fn recovery_walk_is_shortest() {
        let (sm, [alloc, take, release, _free]) = lock_machine();
        assert_eq!(sm.recovery_walk(State::After(alloc)).unwrap(), vec![alloc]);
        assert_eq!(
            sm.recovery_walk(State::After(take)).unwrap(),
            vec![alloc, take]
        );
        // "Released" is reachable only through take.
        assert_eq!(
            sm.recovery_walk(State::After(release)).unwrap(),
            vec![alloc, take, release]
        );
        // Init needs no replay.
        assert!(sm.recovery_walk(State::Init).unwrap().is_empty());
    }

    #[test]
    fn no_creation_function_is_an_error() {
        let mut b = StateMachineBuilder::new("bad");
        let f = b.function("f");
        b.transition(f, f);
        assert_eq!(b.build().unwrap_err(), Error::NoCreationFunction);
    }

    #[test]
    fn unreachable_state_is_an_error() {
        let mut b = StateMachineBuilder::new("bad");
        let a = b.function("a");
        let orphan = b.function("orphan");
        let next = b.function("next");
        b.creation(a);
        // orphan is never reachable from Init, yet has an outgoing edge
        // that makes After(next) reachable only through it.
        b.transition(orphan, next);
        let err = b.build().unwrap_err();
        assert!(matches!(err, Error::Unreachable(State::After(f)) if f == next));
    }

    #[test]
    fn function_registration_is_idempotent() {
        let mut b = StateMachineBuilder::new("x");
        let f1 = b.function("f");
        let f2 = b.function("f");
        assert_eq!(f1, f2);
    }

    #[test]
    fn role_sets_are_queryable() {
        let (sm, [alloc, take, release, free]) = lock_machine();
        assert_eq!(sm.creation_fns().collect::<Vec<_>>(), vec![alloc]);
        assert_eq!(sm.terminal_fns().collect::<Vec<_>>(), vec![free]);
        assert_eq!(sm.blocking_fns().collect::<Vec<_>>(), vec![take]);
        assert_eq!(sm.wakeup_fns().collect::<Vec<_>>(), vec![release]);
    }

    #[test]
    fn function_lookup_by_name() {
        let (sm, [alloc, ..]) = lock_machine();
        assert_eq!(sm.function_by_name("lock_alloc"), Some(alloc));
        assert_eq!(sm.function_by_name("nope"), None);
        assert_eq!(sm.function_name(alloc), "lock_alloc");
    }

    #[test]
    fn edges_iterates_sigma_deterministically() {
        let (sm, _) = lock_machine();
        let e1: Vec<_> = sm.edges().collect();
        let e2: Vec<_> = sm.edges().collect();
        assert_eq!(e1, e2);
        assert_eq!(e1.len(), 6); // 1 creation + 5 declared transitions
    }

    #[test]
    fn event_machine_from_fig3() {
        // Fig 3 of the paper: evt_split/evt_wait/evt_trigger/evt_free.
        let mut b = StateMachineBuilder::new("evt");
        let split = b.function("evt_split");
        let wait = b.function("evt_wait");
        let trigger = b.function("evt_trigger");
        let free = b.function("evt_free");
        b.creation(split);
        b.terminal(free);
        b.block(wait);
        b.wakeup(trigger);
        b.transition(split, wait);
        b.transition(wait, trigger);
        b.transition(trigger, wait);
        b.transition(trigger, free);
        b.transition(split, free);
        let sm = b.build().unwrap();
        assert_eq!(
            sm.recovery_walk(State::After(wait)).unwrap(),
            vec![split, wait]
        );
        assert_eq!(
            sm.recovery_walk(State::After(trigger)).unwrap(),
            vec![split, wait, trigger]
        );
    }

    #[test]
    fn display_of_states_and_fnids() {
        assert_eq!(State::Init.to_string(), "s0");
        assert_eq!(State::Faulty.to_string(), "s_f");
        assert_eq!(State::Terminated.to_string(), "terminated");
        assert_eq!(State::After(FnId(2)).to_string(), "after(fn#2)");
    }
}

//! The kernel's complete observable state as a plain value.
//!
//! [`KernelState`] is the left operand of the pure fold
//! `step(KernelState, Event) -> (KernelState, Effects)`. Every table a
//! transition can touch is `Arc`-shared, so `clone()` is O(1) — a
//! snapshot costs a handful of reference-count bumps, and the first
//! mutation after a snapshot pays a copy-on-write of just the table it
//! touches (`Arc::make_mut`). The model checker leans on this for
//! shrinking (replaying candidate prefixes from saved snapshots) and
//! `sgtrace replay --to` uses it for time travel.
//!
//! What is deliberately *not* here: service objects (the runtime shell
//! owns `Box<dyn Service>` images), component names (interned in the
//! shell), the flight recorder, and the counters table. The core
//! reports what those runtime facilities should record as
//! [`Effect`](crate::effect::Effect) data.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::capability::CapTable;
use crate::ids::{ComponentId, Epoch, ThreadId};
use crate::pages::PageTables;
use crate::thread::Thread;
use crate::time::{CostModel, SimTime};

/// The booter component (id 0); it owns micro-reboot authority,
/// mirroring the paper's step (2)-(3) where the hardware exception
/// handler vectors to the booter.
pub const BOOTER: ComponentId = ComponentId(0);

/// The boot thread (id 0), used for post-reboot initialization upcalls.
pub const BOOT_THREAD: ThreadId = ThreadId(0);

/// Reboot-storm escalation policy: when the booter performs more than
/// `max_reboots_in_window` micro-reboots of one component within
/// `reboot_window`, the component is marked **degraded** — clients fail
/// fast for `degraded_cooldown`, after which the booter cold-restarts it
/// (fresh image, cleared mark). Repeated reboots inside the window are
/// additionally spaced by a deterministic exponential virtual-time
/// backoff starting at `reboot_backoff`.
///
/// The default policy is **disabled** (`reboot_window == 0`): the
/// established single-fault behavior — reboot immediately, as often as
/// asked — is unchanged unless a harness opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscalationPolicy {
    /// Sliding window over which reboots of one component are counted
    /// (zero disables escalation entirely).
    pub reboot_window: SimTime,
    /// Reboots tolerated inside the window before degradation.
    pub max_reboots_in_window: u32,
    /// How long a degraded component rejects clients before the booter
    /// cold-restarts it.
    pub degraded_cooldown: SimTime,
    /// Base backoff charged before the second reboot in a window; doubles
    /// per additional reboot (capped at `base << 6`).
    pub reboot_backoff: SimTime,
}

impl EscalationPolicy {
    /// The disabled policy (no backoff, no degradation) — the default.
    #[must_use]
    pub const fn disabled() -> Self {
        Self {
            reboot_window: SimTime::ZERO,
            max_reboots_in_window: 0,
            degraded_cooldown: SimTime::ZERO,
            reboot_backoff: SimTime::ZERO,
        }
    }

    /// A calibrated storm policy: more than 3 reboots inside 5 ms marks
    /// the component degraded for 50 ms; reboots back off from 10 µs.
    #[must_use]
    pub const fn storm_defaults() -> Self {
        Self {
            reboot_window: SimTime(5_000_000),
            max_reboots_in_window: 3,
            degraded_cooldown: SimTime(50_000_000),
            reboot_backoff: SimTime(10_000),
        }
    }

    /// Whether the policy does anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.reboot_window > SimTime::ZERO && self.max_reboots_in_window > 0
    }
}

/// Lifecycle state of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentState {
    /// Serving invocations normally.
    Active,
    /// Crashed by a (detected, fail-stop) fault; every invocation fails
    /// until micro-rebooted.
    Faulty,
}

/// The core's view of one component: lifecycle state, micro-reboot
/// epoch, and whether a service image exists for it (the image itself
/// lives in the runtime shell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentMeta {
    /// Lifecycle state.
    pub state: ComponentState,
    /// Micro-reboot epoch.
    pub epoch: Epoch,
    /// Whether a service was ever installed (`false` for pure client
    /// components — application protection domains with no interface).
    pub has_service: bool,
}

/// The kernel's complete observable state. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelState {
    /// Component table, indexed by [`ComponentId`].
    pub components: Arc<Vec<ComponentMeta>>,
    /// Thread table, indexed by [`ThreadId`].
    pub threads: Arc<Vec<Thread>>,
    /// Capability table.
    pub caps: Arc<CapTable>,
    /// Simulated page tables.
    pub pages: Arc<PageTables>,
    /// Current virtual time.
    pub time: SimTime,
    /// The cost model.
    pub costs: CostModel,
    /// Reboot-storm escalation policy.
    pub escalation: EscalationPolicy,
    /// Per-invocation watchdog step budget (0 = disabled).
    pub watchdog_budget: u64,
    /// Components whose recovery is currently in flight (innermost
    /// last); a fault raised while this is non-empty is *nested*.
    pub active_recoveries: Arc<Vec<ComponentId>>,
    /// Degraded components and the virtual time at which the booter's
    /// cold restart clears the mark, keyed by component id.
    pub degraded: Arc<BTreeMap<u32, SimTime>>,
    /// Recent reboot timestamps per component (escalation window).
    pub reboot_history: Arc<BTreeMap<u32, VecDeque<SimTime>>>,
    /// One-shot fault armed to fire the moment the next recovery begins
    /// (the SWIFI during-recovery injection hook).
    pub armed_recovery_fault: Option<ComponentId>,
}

impl KernelState {
    /// An empty state (no components, no threads) with the given cost
    /// model. The runtime shell adds the booter and boot thread via
    /// events so ids stay in lockstep with its side tables.
    #[must_use]
    pub fn with_costs(costs: CostModel) -> Self {
        Self {
            components: Arc::new(Vec::new()),
            threads: Arc::new(Vec::new()),
            caps: Arc::new(CapTable::new()),
            pages: Arc::new(PageTables::new()),
            time: SimTime::ZERO,
            costs,
            escalation: EscalationPolicy::disabled(),
            watchdog_budget: 0,
            active_recoveries: Arc::new(Vec::new()),
            degraded: Arc::new(BTreeMap::new()),
            reboot_history: Arc::new(BTreeMap::new()),
            armed_recovery_fault: None,
        }
    }

    /// An empty state with the paper-calibrated cost model.
    #[must_use]
    pub fn new() -> Self {
        Self::with_costs(CostModel::paper_defaults())
    }

    // ------------------------------------------------------------------
    // Read helpers
    // ------------------------------------------------------------------

    /// A component's metadata.
    #[must_use]
    pub fn component(&self, c: ComponentId) -> Option<&ComponentMeta> {
        self.components.get(c.0 as usize)
    }

    /// A thread.
    #[must_use]
    pub fn thread(&self, t: ThreadId) -> Option<&Thread> {
        self.threads.get(t.0 as usize)
    }

    /// Whether a component is currently faulty.
    #[must_use]
    pub fn is_faulty(&self, c: ComponentId) -> bool {
        self.component(c)
            .is_some_and(|m| m.state == ComponentState::Faulty)
    }

    /// The micro-reboot epoch of a component.
    #[must_use]
    pub fn epoch_of(&self, c: ComponentId) -> Option<Epoch> {
        self.component(c).map(|m| m.epoch)
    }

    /// Whether `c` is currently degraded (clients fail fast until the
    /// booter's cold restart).
    #[must_use]
    pub fn is_degraded(&self, c: ComponentId) -> bool {
        self.degraded
            .get(&c.0)
            .is_some_and(|&until| self.time < until)
    }

    /// The virtual time at which `c`'s degraded mark clears, if marked.
    #[must_use]
    pub fn degraded_until(&self, c: ComponentId) -> Option<SimTime> {
        self.degraded.get(&c.0).copied()
    }

    /// How many recovery actions are currently in flight.
    #[must_use]
    pub fn recovery_depth(&self) -> usize {
        self.active_recoveries.len()
    }

    /// How many recovery actions are in flight *on `c`* specifically.
    #[must_use]
    pub fn recovery_depth_of(&self, c: ComponentId) -> usize {
        self.active_recoveries.iter().filter(|&&x| x == c).count()
    }

    // ------------------------------------------------------------------
    // Copy-on-write mutation helpers (Arc::make_mut)
    // ------------------------------------------------------------------

    /// Mutable component table (copy-on-write).
    pub fn components_mut(&mut self) -> &mut Vec<ComponentMeta> {
        Arc::make_mut(&mut self.components)
    }

    /// Mutable thread table (copy-on-write).
    pub fn threads_mut(&mut self) -> &mut Vec<Thread> {
        Arc::make_mut(&mut self.threads)
    }

    /// Mutable capability table (copy-on-write).
    pub fn caps_mut(&mut self) -> &mut CapTable {
        Arc::make_mut(&mut self.caps)
    }

    /// Mutable page tables (copy-on-write).
    pub fn pages_mut(&mut self) -> &mut PageTables {
        Arc::make_mut(&mut self.pages)
    }

    /// Mutable in-flight-recovery stack (copy-on-write).
    pub fn recoveries_mut(&mut self) -> &mut Vec<ComponentId> {
        Arc::make_mut(&mut self.active_recoveries)
    }

    /// Mutable degraded-mark table (copy-on-write).
    pub fn degraded_mut(&mut self) -> &mut BTreeMap<u32, SimTime> {
        Arc::make_mut(&mut self.degraded)
    }

    /// Mutable reboot-history table (copy-on-write).
    pub fn reboot_history_mut(&mut self) -> &mut BTreeMap<u32, VecDeque<SimTime>> {
        Arc::make_mut(&mut self.reboot_history)
    }
}

impl Default for KernelState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_cheap_and_independent() {
        let mut s = KernelState::with_costs(CostModel::free());
        s.components_mut().push(ComponentMeta {
            state: ComponentState::Active,
            epoch: Epoch::default(),
            has_service: true,
        });
        let snap = s.clone();
        // Shared until written…
        assert!(Arc::ptr_eq(&s.components, &snap.components));
        // …then copy-on-write isolates the snapshot.
        s.components_mut()[0].state = ComponentState::Faulty;
        assert!(s.is_faulty(ComponentId(0)));
        assert!(!snap.is_faulty(ComponentId(0)));
        assert_ne!(s, snap);
    }

    #[test]
    fn degraded_depends_on_time() {
        let mut s = KernelState::with_costs(CostModel::free());
        s.degraded_mut().insert(3, SimTime(100));
        assert!(s.is_degraded(ComponentId(3)));
        s.time = SimTime(100);
        assert!(!s.is_degraded(ComponentId(3)));
        assert_eq!(s.degraded_until(ComponentId(3)), Some(SimTime(100)));
    }

    #[test]
    fn escalation_policy_enablement() {
        assert!(!EscalationPolicy::disabled().is_enabled());
        assert!(EscalationPolicy::storm_defaults().is_enabled());
        assert_eq!(EscalationPolicy::default(), EscalationPolicy::disabled());
    }
}

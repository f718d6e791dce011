//! The generic compiled stub: one interpreter for every interface.
//!
//! Where C³ needs a hand-written stub per service
//! ([`sg_c3::stubs`]), SuperGlue needs exactly one *generic* stub whose
//! behavior is entirely driven by the compiler's
//! [`CompiledStubSpec`]:
//!
//! * descriptor tracking tables (state, metadata, parent links, last
//!   observed arguments) populated according to the spec's argument
//!   annotations;
//! * σ-checked state transitions (invalid branches are counted as
//!   detections);
//! * the Fig 4 redo loop with micro-reboot on the fault exception;
//! * **R0** recovery walks over the precomputed shortest paths, with
//!   `sm_recover_via` substitutions and per-position argument synthesis;
//! * **D1** parent-first ordering, with storage-discovered **U0** upcalls
//!   for cross-component parents;
//! * **D0**/`Y_dr` close semantics;
//! * **G0** storage records + restore upcalls for global descriptors;
//! * thread-affine deferral of blocking walk steps;
//! * client-visible→server descriptor id translation across reboots;
//! * **certified tracking elision**: when the spec carries applied
//!   elision facts ([`superglue_compiler::ElisionFacts`]), the
//!   interpreter skips the σ-table read (constant successor), dead
//!   metadata/last-argument stores, the pending-walk resume probe, the
//!   thread-affinity stamp and the id-translation probe — each skip is
//!   backed by an SG060–SG065 proof, so recovery behavior and traces
//!   are byte-identical with elision on or off.
//!
//! All per-call interpretation is precomputed at stub-build time: the
//! function-name dispatch is one hash probe ([`CompiledStubSpec`]'s
//! dispatch table), the last-observed-arguments table is a flat array of
//! inline [`ArgVec`]s indexed by the compiler-assigned `track_slot`, and
//! the σ step reads a dense table. Descriptors live in an [`IdSlab`]:
//! ids from the one that opened its dense window up to 65,536 slots
//! above it are indexed, and the window restarts at the next creation
//! once every descriptor in it is closed, so an interface whose server
//! issues ascending ids (fs, lock, evt, tmr) indexes a window of a few
//! slots however large its ids grow. Ids outside the window take a
//! `BTreeMap` lookup. MM's ids are page addresses
//! (`0x100_0000_1000` for a root, `0x208_0000_1000` for its alias), so
//! an alias always spills while its root holds the window. The
//! steady-state invoke path performs no heap allocation and no refcount
//! traffic: the interpreter runs over a private view that borrows the
//! spec and the tracking tables as disjoint fields, so the spec
//! reference is a plain (Copy) `&` rather than a per-call `Arc` clone.

use std::sync::Arc;

use composite::{
    ArgVec, CallError, IdSlab, Mechanism, ServiceError, ThreadId, TraceEventKind, Value,
};
use sg_c3::stub::{is_server_fault, InterfaceStub};
use sg_c3::StubEnv;
use superglue_compiler::{ArgSource, CompiledFn, CompiledStubSpec, RestoreArg, RetvalSpec};
use superglue_sm::{FnId, State};

/// Pass-through invocation that still honors the fault exception: the
/// server is micro-rebooted (and this stub's descriptors marked faulty)
/// before the call is redone, so untracked-descriptor calls observe
/// post-reboot semantics (e.g. NotFound) rather than the raw fault.
macro_rules! passthrough {
    ($self:ident, $env:ident, $fname:ident, $args:ident) => {
        loop {
            match $env.invoke($fname, $args) {
                Err(e) if is_server_fault(&e, $env.server) => {
                    $env.ensure_rebooted()?;
                    $self.mark_faulty();
                }
                other => return other,
            }
        }
    };
}

/// Parent id conventionally meaning "no parent" (root descriptors).
const NO_PARENT: i64 = 0;

#[derive(Debug, Clone)]
struct GenDesc {
    /// Current server-side id (translated on every call).
    server_id: i64,
    /// Expected state-machine state.
    state: State,
    /// Thread whose call produced the current state (thread affinity).
    state_thread: Option<ThreadId>,
    faulty: bool,
    /// Whether this edge created the descriptor (owns the metadata).
    creator: bool,
    /// Client-visible parent id, when any.
    parent: Option<i64>,
    children: Vec<i64>,
    /// Tracked metadata (`desc_data` arguments and return values),
    /// indexed by compiler-interned slot.
    meta: Box<[Option<Value>]>,
    /// Last observed argument vector per tracked interface function,
    /// indexed by the compiler-assigned dense `track_slot`. Inline
    /// [`ArgVec`]s: recording a call's arguments never heap-allocates.
    last_args: Box<[Option<ArgVec>]>,
    /// A recovery walk that stopped at a thread-affine step: (walk,
    /// resume index). Completed when `state_thread` next arrives.
    pending_walk: Option<(Vec<FnId>, usize)>,
}

impl GenDesc {
    fn new(
        server_id: i64,
        state: State,
        thread: ThreadId,
        creator: bool,
        parent: Option<i64>,
        meta_slots: usize,
        track_slots: usize,
    ) -> Self {
        Self {
            server_id,
            state,
            state_thread: Some(thread),
            faulty: false,
            creator,
            parent,
            children: Vec::new(),
            meta: vec![None; meta_slots].into_boxed_slice(),
            last_args: vec![None; track_slots].into_boxed_slice(),
            pending_walk: None,
        }
    }
}

/// Record the last observed arguments for a tracked function. The slot
/// holds an inline [`ArgVec`], and each value clone is an rc bump or an
/// inline copy, so the steady-state tracking write allocates nothing.
fn store_last_args(slot: &mut Option<ArgVec>, args: &[Value]) {
    match slot {
        Some(prev) if prev.len() == args.len() => prev.clone_from_slice(args),
        other => *other = Some(args.into()),
    }
}

fn parent_of_args(cf: &CompiledFn, args: &[Value]) -> Option<i64> {
    cf.parent_arg
        .and_then(|i| args.get(i))
        .and_then(|v| v.int().ok())
        .filter(|&p| p != NO_PARENT)
}

fn desc_of_args(cf: &CompiledFn, args: &[Value]) -> Option<i64> {
    cf.desc_arg
        .and_then(|i| args.get(i))
        .and_then(|v| v.int().ok())
}

/// The compiler-driven interface stub.
#[derive(Debug)]
pub struct CompiledStub {
    spec: Arc<CompiledStubSpec>,
    descs: IdSlab<GenDesc>,
    /// Closed-descriptor carcasses recycled by the next creation, so
    /// create/close workloads do not allocate tracking tables per cycle.
    pool: Vec<GenDesc>,
}

impl CompiledStub {
    /// A stub interpreting the given compiled specification.
    #[must_use]
    pub fn new(spec: Arc<CompiledStubSpec>) -> Self {
        Self {
            spec,
            descs: IdSlab::new(),
            pool: Vec::new(),
        }
    }

    /// The interface name.
    #[must_use]
    pub fn iface(&self) -> &str {
        &self.spec.interface
    }

    /// The interpreter view: disjoint borrows of the spec (shared) and
    /// the tracking tables (mutable), so spec reads never require an
    /// `Arc` refcount bump to coexist with table updates.
    fn interp(&mut self) -> Interp<'_> {
        Interp {
            spec: &self.spec,
            descs: &mut self.descs,
            pool: &mut self.pool,
        }
    }
}

/// One invocation's view of a [`CompiledStub`]: `spec` is a plain shared
/// reference (Copy — reading it does not borrow `self`), `descs`/`pool`
/// are the mutable tracking state.
struct Interp<'s> {
    spec: &'s CompiledStubSpec,
    descs: &'s mut IdSlab<GenDesc>,
    pool: &'s mut Vec<GenDesc>,
}

impl<'s> Interp<'s> {
    fn new_desc(
        &mut self,
        server_id: i64,
        state: State,
        thread: ThreadId,
        creator: bool,
        parent: Option<i64>,
    ) -> GenDesc {
        if let Some(mut d) = self.pool.pop() {
            d.server_id = server_id;
            d.state = state;
            d.state_thread = Some(thread);
            d.faulty = false;
            d.creator = creator;
            d.parent = parent;
            d.children.clear();
            d.meta.fill(None);
            d.last_args.fill_with(|| None);
            d.pending_walk = None;
            return d;
        }
        GenDesc::new(
            server_id,
            state,
            thread,
            creator,
            parent,
            self.spec.meta_names.len(),
            self.spec.track_slots,
        )
    }

    /// Return a removed descriptor's tables to the carcass pool.
    fn recycle(&mut self, d: GenDesc) {
        // Bounded so faulty workloads cannot grow the pool without
        // limit; tables are all sized by the (fixed) spec.
        if self.pool.len() < 64 {
            self.pool.push(d);
        }
    }

    /// Would [`Self::translate_args`] change anything? False in the
    /// steady state (server ids only diverge across a reboot), letting
    /// the hot path pass the caller's slice through untouched.
    fn translation_needed(&self, cf: &CompiledFn, desc: Option<i64>, args: &[Value]) -> bool {
        if let (Some(_), Some(id)) = (cf.desc_arg, desc) {
            if self.descs.get(id).is_some_and(|d| d.server_id != id) {
                return true;
            }
        }
        if cf.parent_arg.is_some() {
            if let Some(p) = parent_of_args(cf, args) {
                if self.descs.get(p).is_some_and(|pd| pd.server_id != p) {
                    return true;
                }
            }
        }
        false
    }

    /// Rewrite descriptor/parent argument positions to current server
    /// ids. Only called when the rewrite actually changes something; the
    /// copy lives in a stack [`ArgVec`] and every `Value` clone is at
    /// worst a reference-count bump.
    fn translate_args(&self, cf: &CompiledFn, desc: Option<i64>, args: &[Value]) -> ArgVec {
        let mut out: ArgVec = args.into();
        if let (Some(pos), Some(id)) = (cf.desc_arg, desc) {
            if let Some(d) = self.descs.get(id) {
                out[pos] = Value::Int(d.server_id);
            }
        }
        if let Some(pos) = cf.parent_arg {
            if let Some(p) = parent_of_args(cf, args) {
                if let Some(pd) = self.descs.get(p) {
                    out[pos] = Value::Int(pd.server_id);
                }
            }
        }
        out
    }

    /// Synthesize replay arguments for one walk step per the compiled
    /// plan, overlaying tracked state onto the last observed arguments.
    fn synth_args(&self, env: &StubEnv<'_>, fid: FnId, desc_id: i64) -> ArgVec {
        let cf = self.spec.fn_of(fid);
        let d = self.descs.get(desc_id);
        let base: Option<&[Value]> = d.and_then(|d| {
            cf.track_slot
                .and_then(|s| d.last_args.get(s))
                .and_then(|o| o.as_deref())
        });
        cf.replay_args
            .iter()
            .enumerate()
            .map(|(pos, src)| match src {
                ArgSource::ClientId => Value::from(env.client.0),
                ArgSource::DescId => Value::Int(d.map_or(desc_id, |d| d.server_id)),
                ArgSource::ParentId => {
                    let p = d.and_then(|d| d.parent);
                    match p {
                        Some(p) => Value::Int(self.descs.get(p).map_or(p, |pd| pd.server_id)),
                        None => Value::Int(NO_PARENT),
                    }
                }
                // clone(): replayed values must outlive the tracking
                // tables they come from; cheap (rc bump / inline copy).
                ArgSource::Meta(slot) => d
                    .and_then(|d| d.meta.get(*slot).and_then(|m| m.clone()))
                    .or_else(|| base.and_then(|b| b.get(pos).cloned()))
                    .unwrap_or(Value::Int(0)),
                ArgSource::LastObserved => base
                    .and_then(|b| b.get(pos).cloned())
                    .unwrap_or(Value::Int(0)),
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Tracking updates
    // -----------------------------------------------------------------

    fn harvest(
        &mut self,
        cf: &CompiledFn,
        desc_id: i64,
        args: &[Value],
        ret: &Value,
        thread: ThreadId,
    ) {
        let Some(d) = self.descs.get_mut(desc_id) else {
            return;
        };
        // live_data_args / retval_eff / store_slot are the certified
        // harvest plan: identical to data_args / retval / track_slot
        // unless the tracking-elision certifier proved a write dead
        // (never read by any replay or restore plan).
        for &(pos, slot) in &cf.live_data_args {
            if let Some(v) = args.get(pos) {
                // clone(): tracked metadata must survive the call; cheap
                // (rc bump / inline copy) under the shared-value repr.
                d.meta[slot] = Some(v.clone());
            }
        }
        match cf.retval_eff {
            RetvalSpec::None => {}
            RetvalSpec::NewDesc(slot) => {
                d.meta[slot] = Some(Value::Int(desc_id));
            }
            RetvalSpec::SetData(slot) => {
                // clone(): the return value is also handed to the caller;
                // cheap-clone repr makes this an rc bump at worst.
                d.meta[slot] = Some(ret.clone());
            }
            RetvalSpec::AccumData(slot) => {
                let add = match ret {
                    Value::Int(n) => *n,
                    Value::Bytes(b) => b.len() as i64,
                    _ => 0,
                };
                let cur = d.meta[slot]
                    .as_ref()
                    .and_then(|v| v.int().ok())
                    .unwrap_or(0);
                d.meta[slot] = Some(Value::Int(cur + add));
            }
        }
        if let Some(slot) = cf.store_slot {
            store_last_args(&mut d.last_args[slot], args);
        }
        if !self.spec.elide_affinity {
            d.state_thread = Some(thread);
        }
    }

    fn close(&mut self, env: &mut StubEnv<'_>, desc_id: i64) {
        let spec = self.spec;
        let model = spec.model;
        let mut dropped = 0u64;
        if model.close_children {
            // D0: drop the tracked subtree. take() not clone(): whenever
            // close_children is set the descriptor itself is removed
            // below, so its child list can be consumed in place.
            let mut stack = self
                .descs
                .get_mut(desc_id)
                .map(|d| std::mem::take(&mut d.children))
                .unwrap_or_default();
            while let Some(c) = stack.pop() {
                if let Some(mut cd) = self.descs.remove(c) {
                    dropped += 1;
                    stack.append(&mut cd.children);
                    self.recycle(cd);
                }
            }
            // Hand the emptied stack back, so the recycled carcass keeps
            // its child-list capacity and the next child push reuses it.
            if let Some(d) = self.descs.get_mut(desc_id) {
                d.children = stack;
            }
        }
        let remove =
            model.close_removes_tracking || model.close_children || !model.parent.has_parent();
        if remove {
            if let Some(d) = self.descs.remove(desc_id) {
                dropped += 1;
                if let Some(p) = d.parent {
                    if let Some(pd) = self.descs.get_mut(p) {
                        pd.children.retain(|&c| c != desc_id);
                    }
                }
                self.recycle(d);
            }
        }
        env.kernel.trace_instant(
            env.server,
            env.thread,
            TraceEventKind::DescriptorClosed {
                desc: desc_id,
                dropped,
            },
        );
        env.note_teardown(dropped);
        if spec.records_creations {
            if let Some(storage) = env.storage {
                let _ = env.kernel.invoke(
                    env.client,
                    env.thread,
                    storage,
                    "st_unrecord",
                    &[Value::from(spec.interface.as_str()), Value::Int(desc_id)],
                );
            }
        }
    }

    fn record_creation(
        &mut self,
        env: &mut StubEnv<'_>,
        desc_id: i64,
        parent: Option<i64>,
        args: &[Value],
        cf: &CompiledFn,
    ) {
        let spec = self.spec;
        if !spec.records_creations {
            return;
        }
        // aux = the first tracked integer argument that is neither the
        // parent nor a component id (e.g. the event group).
        let aux = cf
            .data_args
            .iter()
            .filter(|(pos, _)| {
                Some(*pos) != cf.parent_arg
                    && cf.replay_args.get(*pos) != Some(&ArgSource::ClientId)
            })
            .filter_map(|(pos, _)| args.get(*pos))
            .find_map(|v| v.int().ok())
            .unwrap_or(0);
        let _ = env.storage_record(
            &spec.interface,
            desc_id,
            env.client,
            parent.unwrap_or(NO_PARENT),
            aux,
        );
    }

    // -----------------------------------------------------------------
    // Recovery
    // -----------------------------------------------------------------

    /// Recover a parent that is not tracked on this edge: discover its
    /// creator through the storage records and upcall (U0 across edges).
    fn recover_foreign(&mut self, env: &mut StubEnv<'_>, desc_id: i64) -> Result<(), CallError> {
        let creator = env.storage_lookup_creator(&self.spec.interface, desc_id)?;
        if creator == env.client {
            // Racy self-reference: nothing more we can do.
            return Err(CallError::Service(ServiceError::NotFound));
        }
        env.upcall_recover(creator, desc_id)
    }

    fn effective_state(&self, state: State) -> State {
        match state {
            State::After(f) => match self.spec.recover_via.get(&f) {
                Some(&g) => State::After(g),
                None => state,
            },
            other => other,
        }
    }

    fn replay_walk(
        &mut self,
        env: &mut StubEnv<'_>,
        desc_id: i64,
        walk: &[FnId],
        start: usize,
    ) -> Result<(), CallError> {
        let spec = self.spec;
        for (i, &fid) in walk.iter().enumerate().skip(start) {
            let roles = spec.machine.roles(fid);
            // Thread-affine blocking steps may not be replayed verbatim
            // by a different thread: either substitute the declared
            // restore entry point (sm_recover_block) passing the recorded
            // owner, or defer the remaining walk to the owner.
            if roles.blocks {
                let owner = self.descs.get(desc_id).and_then(|d| d.state_thread);
                if owner != Some(env.thread) {
                    if let Some(&gid) = spec.recover_block.get(&fid) {
                        let gname = spec.machine.function_name(gid);
                        let owner_id = owner.map_or(0, |t| i64::from(t.0));
                        let mut args = self.synth_args(env, gid, desc_id);
                        for (pos, src) in spec.fn_of(gid).replay_args.iter().enumerate() {
                            if *src == ArgSource::LastObserved {
                                args[pos] = Value::Int(owner_id);
                            }
                        }
                        env.replay_for(gname, &args, Some(desc_id), Mechanism::T1)?;
                        // T1: the blocking step completed thread-affinely
                        // on the recorded owner's behalf, not verbatim by
                        // the recovering thread (C³ counts its
                        // `lock_restore` substitution the same way).
                        env.note_deferred_completion();
                        continue;
                    }
                    if let Some(d) = self.descs.get_mut(desc_id) {
                        // to_vec(): recovery-only path; the deferred tail
                        // must outlive this borrow of the walk.
                        d.pending_walk = Some((walk.to_vec(), i));
                    }
                    env.note_deferred_completion();
                    return Ok(());
                }
            }
            let fname = spec.machine.function_name(fid);
            let args = self.synth_args(env, fid, desc_id);
            let ret = env.replay_for(fname, &args, Some(desc_id), Mechanism::R0)?;
            if roles.creates {
                if let Ok(new_id) = ret.int() {
                    if let Some(d) = self.descs.get_mut(desc_id) {
                        d.server_id = new_id;
                    }
                }
            }
        }
        Ok(())
    }

    fn complete_pending(&mut self, env: &mut StubEnv<'_>, desc_id: i64) -> Result<(), CallError> {
        let Some(d) = self.descs.get(desc_id) else {
            return Ok(());
        };
        if d.state_thread != Some(env.thread) {
            return Ok(());
        }
        // clone(): a deferred walk is rare (one per thread-affine fault)
        // and must be detached from the tracking table while it replays.
        let Some((walk, start)) = d.pending_walk.clone() else {
            return Ok(());
        };
        if let Some(d) = self.descs.get_mut(desc_id) {
            d.pending_walk = None;
        }
        self.replay_walk(env, desc_id, &walk, start)
    }

    fn restore_args(&self, env: &StubEnv<'_>, desc_id: i64, plan: &[RestoreArg]) -> ArgVec {
        let d = self.descs.get(desc_id);
        plan.iter()
            .map(|a| match a {
                RestoreArg::Creator => Value::from(env.client.0),
                RestoreArg::DescId => Value::Int(desc_id),
                // clone(): restored metadata outlives the table; cheap.
                RestoreArg::Meta(slot) => d
                    .and_then(|d| d.meta.get(*slot).and_then(|m| m.clone()))
                    .unwrap_or(Value::Int(0)),
            })
            .collect()
    }

    fn mark_faulty(&mut self) {
        for d in self.descs.values_mut() {
            d.faulty = true;
        }
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        // Copy out the spec reference ('s outlives this borrow of self),
        // so compiled-plan reads coexist with tracking-table mutation.
        let spec = self.spec;
        let Some((fid, cf)) = spec.fn_by_name(fname) else {
            // Not part of the described interface: pass through (with
            // fault handling).
            passthrough!(self, env, fname, args);
        };

        if cf.roles.creates {
            let parent = parent_of_args(cf, args);
            let mut g0_attempted = false;
            loop {
                // D1: a faulty (or foreign, post-fault) parent recovers
                // before the creation that depends on it.
                if let Some(p) = parent {
                    if self.descs.get(p).is_some_and(|d| d.faulty) {
                        env.note_parent_first();
                        self.recover_descriptor(env, p)?;
                    }
                }
                let translated;
                let real_args: &[Value] =
                    if !spec.elide_translation && self.translation_needed(cf, None, args) {
                        translated = self.translate_args(cf, None, args);
                        &translated
                    } else {
                        args
                    };
                match env.invoke(fname, real_args) {
                    Ok(v) => {
                        let id = v.int().map_err(|e| CallError::Service(e.into()))?;
                        let state = State::After(fid);
                        let mut d = self.new_desc(id, state, env.thread, true, parent);
                        if let Some(slot) = cf.store_slot {
                            store_last_args(&mut d.last_args[slot], args);
                        }
                        self.descs.insert(id, d);
                        if let Some(p) = parent {
                            if let Some(pd) = self.descs.get_mut(p) {
                                if !pd.children.contains(&id) {
                                    pd.children.push(id);
                                }
                            }
                        }
                        self.harvest(cf, id, args, &v, env.thread);
                        env.kernel.trace_instant(
                            env.server,
                            env.thread,
                            TraceEventKind::DescriptorCreated { desc: id },
                        );
                        self.record_creation(env, id, parent, args, cf);
                        return Ok(v);
                    }
                    Err(e) if is_server_fault(&e, env.server) => {
                        env.ensure_rebooted()?;
                        self.mark_faulty();
                    }
                    // The parent vanished with the reboot and is tracked
                    // by another component: G0-style discovery (once).
                    Err(CallError::Service(ServiceError::NotFound))
                        if !g0_attempted
                            && parent.is_some()
                            && spec.records_creations
                            && !self.descs.contains_key(parent.expect("checked")) =>
                    {
                        g0_attempted = true;
                        self.recover_foreign(env, parent.expect("checked"))?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        let Some(desc_id) = desc_of_args(cf, args) else {
            passthrough!(self, env, fname, args);
        };
        if !self.descs.contains_key(desc_id) {
            if spec.model.global {
                // First use of a foreign global descriptor: track it so a
                // later fault can be recovered via G0.
                let init_state = spec
                    .machine
                    .creation_fns()
                    .next()
                    .map_or(State::Init, State::After);
                let d = self.new_desc(desc_id, init_state, env.thread, false, None);
                self.descs.insert(desc_id, d);
            } else {
                // Untracked local descriptor: pass through (with fault
                // handling so the redo observes post-reboot semantics).
                passthrough!(self, env, fname, args);
            }
        }

        let mut g0_attempted = false;
        loop {
            if self.descs.get(desc_id).is_some_and(|d| d.faulty) {
                self.recover_descriptor(env, desc_id)?;
            }
            // elide_pending: the certifier proved every blocking walk
            // step has an `sm_recover_block` substitute, so a deferred
            // walk tail can never exist and the resume probe is dead.
            if !spec.elide_pending {
                self.complete_pending(env, desc_id)?;
            }
            // Steady state: server ids equal the client-visible ids, so
            // the caller's slice passes through with no copy; after a
            // reboot the ids diverge and a stack ArgVec carries the
            // rewritten arguments until the descriptor is re-created.
            // elide_translation: recovery provably re-creates every
            // descriptor under its client-visible id, so the divergence
            // probe is dead.
            let translated;
            let call_args: &[Value] =
                if !spec.elide_translation && self.translation_needed(cf, Some(desc_id), args) {
                    translated = self.translate_args(cf, Some(desc_id), args);
                    &translated
                } else {
                    args
                };
            match env.invoke(fname, call_args) {
                Ok(v) => {
                    // One descriptor lookup covers the σ step, metadata
                    // harvest and close detection (the hot path).
                    let mut terminated = false;
                    if let Some(d) = self.descs.get_mut(desc_id) {
                        match cf.sigma_const {
                            // Certified (SG060 clean): σ(s, f) reaches
                            // the same successor from every live state,
                            // so the table read and the invalid-branch
                            // check are provably dead.
                            Some(next) => d.state = next,
                            None => match spec.step(d.state, fid) {
                                Some(next) => d.state = next,
                                None => {
                                    // Invalid σ branch: fault detection
                                    // (§III-B); tracking resynchronizes to
                                    // the observed call.
                                    env.stats.invalid_transitions += 1;
                                    d.state = if cf.roles.terminates {
                                        State::Terminated
                                    } else {
                                        State::After(fid)
                                    };
                                }
                            },
                        }
                        if d.state == State::Terminated {
                            terminated = true;
                        } else {
                            // The certified harvest plan: identical to
                            // data_args / retval / track_slot unless the
                            // elision certifier proved a write dead.
                            for &(pos, slot) in &cf.live_data_args {
                                if let Some(val) = args.get(pos) {
                                    // clone(): tracked metadata must
                                    // survive the call; rc bump at worst.
                                    d.meta[slot] = Some(val.clone());
                                }
                            }
                            match cf.retval_eff {
                                RetvalSpec::None | RetvalSpec::NewDesc(_) => {}
                                // clone(): rc bump; `v` is also returned.
                                RetvalSpec::SetData(slot) => d.meta[slot] = Some(v.clone()),
                                RetvalSpec::AccumData(slot) => {
                                    let add = match &v {
                                        Value::Int(n) => *n,
                                        Value::Bytes(b) => b.len() as i64,
                                        _ => 0,
                                    };
                                    let cur = d.meta[slot]
                                        .as_ref()
                                        .and_then(|x| x.int().ok())
                                        .unwrap_or(0);
                                    d.meta[slot] = Some(Value::Int(cur + add));
                                }
                            }
                            if let Some(slot) = cf.store_slot {
                                store_last_args(&mut d.last_args[slot], args);
                            }
                            if !spec.elide_affinity {
                                d.state_thread = Some(env.thread);
                            }
                        }
                    }
                    if terminated {
                        self.close(env, desc_id);
                    }
                    return Ok(v);
                }
                Err(CallError::WouldBlock) => return Err(CallError::WouldBlock),
                Err(e) if is_server_fault(&e, env.server) => {
                    env.ensure_rebooted()?;
                    self.mark_faulty();
                }
                Err(CallError::Service(ServiceError::NotFound)) if !g0_attempted => {
                    // Unknown id at the (possibly rebuilt) server: give
                    // recovery exactly one chance, then redo.
                    g0_attempted = true;
                    if let Some(d) = self.descs.get_mut(desc_id) {
                        d.faulty = true;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc_id: i64) -> Result<(), CallError> {
        loop {
            match self.recover_descriptor_once(env, desc_id) {
                // The server faulted again *mid-walk* (a correlated
                // fault): the parent episode's bookkeeping survives —
                // reboot, re-mark every descriptor, and re-run the walk
                // as a child recovery episode. Bounded by the env's
                // retry budget (ensure_rebooted burns one per pass).
                Err(e) if is_server_fault(&e, env.server) && env.retries_left > 0 => {
                    env.stats.nested_recoveries += 1;
                    env.ensure_rebooted()?;
                    self.mark_faulty();
                }
                other => return other,
            }
        }
    }

    fn recover_descriptor_once(
        &mut self,
        env: &mut StubEnv<'_>,
        desc_id: i64,
    ) -> Result<(), CallError> {
        let spec = self.spec;
        let Some(d) = self.descs.get(desc_id) else {
            // Untracked on this edge: only meaningful for interfaces with
            // storage-recorded creations (global / XCParent).
            if spec.records_creations {
                return self.recover_foreign(env, desc_id);
            }
            return Ok(());
        };
        if !d.faulty {
            return Ok(());
        }
        let (creator, parent, state) = (d.creator, d.parent, d.state);

        if spec.model.global && !creator {
            // G0 + U0: the creator's edge rebuilds under the original id.
            self.recover_foreign(env, desc_id)?;
            if let Some(d) = self.descs.get_mut(desc_id) {
                d.faulty = false;
            }
            env.note_descriptor_recovered();
            return Ok(());
        }

        // D1: parents recover root-first.
        if let Some(p) = parent {
            if self.descs.contains_key(p) {
                if self.descs.get(p).is_some_and(|d| d.faulty) {
                    env.note_parent_first();
                }
                self.recover_descriptor(env, p)?;
            } else if spec.records_creations {
                env.note_parent_first();
                self.recover_foreign(env, p)?;
            }
        }

        let effective = self.effective_state(state);
        let walk = match effective {
            State::Terminated | State::Faulty | State::Init => Vec::new(),
            s => spec
                .machine
                .recovery_walk(s)
                .map_err(|_| CallError::Service(ServiceError::NotFound))?,
        };

        if let Some((restore_fn, plan)) = spec.restore.as_ref() {
            // Global creator: the creation step is replaced by the
            // restore upcall, which preserves the original global id.
            let args = self.restore_args(env, desc_id, plan);
            env.replay_for(restore_fn, &args, Some(desc_id), Mechanism::R0)?;
            if spec.cursor_slot.is_some() {
                // CR0: the restore plan's final argument was the last
                // *committed* cursor, so the endpoint resumes exactly
                // where its consumer committed — peeked-but-uncommitted
                // observations are deliberately replayed.
                env.note_mechanism(Mechanism::Cr0);
            }
            if let Some(d) = self.descs.get_mut(desc_id) {
                d.faulty = false;
                d.server_id = desc_id;
            }
            // Replay any post-creation steps of the walk.
            self.replay_walk(env, desc_id, &walk, 1)?;
        } else {
            if let Some(d) = self.descs.get_mut(desc_id) {
                d.faulty = false;
            }
            self.replay_walk(env, desc_id, &walk, 0)?;
        }
        env.note_descriptor_recovered();
        Ok(())
    }

    fn recover_all(&mut self, env: &mut StubEnv<'_>) -> Result<(), CallError> {
        let ids: Vec<i64> = self
            .descs
            .iter()
            .filter(|(_, d)| d.faulty)
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            match self.recover_descriptor(env, id) {
                Ok(()) => {}
                // The descriptor no longer exists anywhere authoritative
                // (freed by another client before the fault): drop the
                // stale tracking record instead of aborting the eager
                // pass.
                Err(CallError::Service(ServiceError::NotFound)) => {
                    if let Some(d) = self.descs.remove(id) {
                        self.recycle(d);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl InterfaceStub for CompiledStub {
    fn interface(&self) -> &'static str {
        // Interface names come from the static idl table; leak-free
        // static access is not possible for dynamic specs, so map the
        // known six (falling back to a generic tag).
        match self.spec.interface.as_str() {
            "sched" => "sched",
            "mm" => "mm",
            "fs" => "fs",
            "lock" => "lock",
            "evt" => "evt",
            "tmr" => "tmr",
            "chan" => "chan",
            _ => "superglue",
        }
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        self.interp().call(env, fname, args)
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc_id: i64) -> Result<(), CallError> {
        self.interp().recover_descriptor(env, desc_id)
    }

    fn mark_faulty(&mut self) {
        self.interp().mark_faulty();
    }

    fn recover_all(&mut self, env: &mut StubEnv<'_>) -> Result<(), CallError> {
        self.interp().recover_all(env)
    }

    fn tracked_count(&self) -> usize {
        self.descs.len()
    }

    fn faulty_count(&self) -> usize {
        self.descs.values().filter(|d| d.faulty).count()
    }
}

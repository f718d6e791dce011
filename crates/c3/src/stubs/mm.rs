//! Hand-written C³ stub for the `mm` interface.
//!
//! Mapping descriptors are `(component, vaddr)` keys, deterministic
//! across recoveries (no id translation). Aliases depend on their source
//! mapping (`P_dr = XCParent`), so recovery is ordered root-first (D1):
//! before an alias is replayed, its parent chain is rebuilt — via an
//! upcall into the creating component's edge when the parent was created
//! by a different client (**U0**, §II-D: "upcalls are made into client
//! components in order to rebuild correct state between dependent
//! mappings"). Releases remove the tracked subtree (D0, recursive
//! revocation).

use std::collections::BTreeMap;

use composite::{CallError, Value};

use crate::env::StubEnv;
use crate::stub::{is_server_fault, InterfaceStub};

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

#[derive(Debug, Clone, PartialEq, Eq)]
struct MapDesc {
    /// None for root mappings; the parent's key for aliases.
    parent: Option<i64>,
    /// The creation arguments, replayed verbatim on recovery.
    create_fn: &'static str,
    create_args: Vec<Value>,
    children: Vec<i64>,
    faulty: bool,
}

/// Hand-written C³ client stub for the memory manager.
#[derive(Debug, Default)]
pub struct C3MmStub {
    descs: BTreeMap<i64, MapDesc>,
}

impl C3MmStub {
    /// An empty stub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns how many tracked descriptors the revocation dropped.
    fn remove_subtree(&mut self, root: i64) -> u64 {
        let mut dropped = 0;
        let mut stack = vec![root];
        while let Some(k) = stack.pop() {
            if let Some(d) = self.descs.remove(&k) {
                dropped += 1;
                stack.extend(d.children);
                if let Some(p) = d.parent {
                    if let Some(pd) = self.descs.get_mut(&p) {
                        pd.children.retain(|&c| c != k);
                    }
                }
            }
        }
        dropped
    }
}

impl InterfaceStub for C3MmStub {
    fn interface(&self) -> &'static str {
        "mm"
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        match fname {
            "mman_get_page" | "mman_alias_page" => loop {
                // D1 for aliases: the source mapping must be live first.
                if fname == "mman_alias_page" {
                    let parent_key = args[1].int().unwrap_or(0);
                    if self.descs.get(&parent_key).is_some_and(|d| d.faulty) {
                        env.note_parent_first();
                        self.recover_descriptor(env, parent_key)?;
                    }
                }
                match env.invoke(fname, args) {
                    Ok(v) => {
                        let key = v.int().map_err(|e| CallError::Service(e.into()))?;
                        let parent = if fname == "mman_alias_page" {
                            Some(args[1].int().unwrap_or(0))
                        } else {
                            None
                        };
                        if let Some(p) = parent {
                            if let Some(pd) = self.descs.get_mut(&p) {
                                if !pd.children.contains(&key) {
                                    pd.children.push(key);
                                }
                            }
                        }
                        self.descs.entry(key).or_insert(MapDesc {
                            parent,
                            create_fn: if fname == "mman_get_page" {
                                "mman_get_page"
                            } else {
                                "mman_alias_page"
                            },
                            create_args: args.to_vec(),
                            children: Vec::new(),
                            faulty: false,
                        });
                        return Ok(v);
                    }
                    Err(e) if is_server_fault(&e, env.server) => {
                        env.ensure_rebooted()?;
                        self.mark_faulty();
                    }
                    Err(e) => return Err(e),
                }
            },
            "mman_release_page" => {
                let key = args[1].int().unwrap_or(0);
                loop {
                    if self.descs.get(&key).is_some_and(|d| d.faulty) {
                        self.recover_descriptor(env, key)?;
                    }
                    match env.invoke(fname, args) {
                        Ok(v) => {
                            // D0: recursive revocation drops the tracked
                            // subtree.
                            let dropped = self.remove_subtree(key);
                            env.note_teardown(dropped);
                            return Ok(v);
                        }
                        Err(e) if is_server_fault(&e, env.server) => {
                            env.ensure_rebooted()?;
                            self.mark_faulty();
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            _ => passthrough!(self, env, fname, args),
        }
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc: i64) -> Result<(), CallError> {
        let Some(d) = self.descs.get(&desc) else {
            // Parent tracked by another client's edge: upcall into the
            // component that owns the mapping (encoded in the key).
            let owner = composite::ComponentId((desc >> 40) as u32);
            if owner != env.client {
                return env.upcall_recover(owner, desc);
            }
            return Ok(());
        };
        if !d.faulty {
            return Ok(());
        }
        let (parent, create_fn, create_args) = (d.parent, d.create_fn, d.create_args.clone());
        // D1: rebuild the parent chain root-first.
        if let Some(p) = parent {
            env.note_parent_first();
            self.recover_descriptor(env, p)?;
        }
        // Replay the creation; get_page/alias_page are idempotent against
        // surviving kernel mappings, so the same key comes back.
        let v = env.replay(create_fn, &create_args)?;
        debug_assert_eq!(v.int().ok(), Some(desc), "mapping keys are deterministic");
        let d = self.descs.get_mut(&desc).expect("still tracked");
        d.faulty = false;
        env.note_descriptor_recovered();
        Ok(())
    }

    fn mark_faulty(&mut self) {
        for d in self.descs.values_mut() {
            d.faulty = true;
        }
    }

    fn recover_all(&mut self, env: &mut StubEnv<'_>) -> Result<(), CallError> {
        let ids: Vec<i64> = self
            .descs
            .iter()
            .filter(|(_, d)| d.faulty)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            match self.recover_descriptor(env, id) {
                Ok(()) => {}
                // Freed elsewhere before the fault: drop the stale record.
                Err(CallError::Service(composite::ServiceError::NotFound)) => {
                    self.descs.remove(&id);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn tracked_count(&self) -> usize {
        self.descs.len()
    }

    fn faulty_count(&self) -> usize {
        self.descs.values().filter(|d| d.faulty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{
        ComponentId, CostModel, InterfaceCall as _, Kernel, KernelAccess as _, Mechanism, Priority,
        ThreadId,
    };
    use sg_services::mm::MemoryManager;

    use crate::runtime::{FtRuntime, RuntimeConfig};

    fn rig() -> (FtRuntime, ComponentId, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app1 = k.add_client_component("app1");
        let app2 = k.add_client_component("app2");
        let mm = k.add_component("mm", Box::new(MemoryManager::new()));
        let t = k.create_thread(app1, Priority(5));
        let mut rt = FtRuntime::new(k, RuntimeConfig::default());
        rt.install_stub(app1, mm, Box::new(C3MmStub::new()));
        rt.install_stub(app2, mm, Box::new(C3MmStub::new()));
        (rt, app1, app2, mm, t)
    }

    fn get_page(rt: &mut FtRuntime, app: ComponentId, mm: ComponentId, t: ThreadId, v: i64) -> i64 {
        rt.interface_call(
            app,
            t,
            mm,
            "mman_get_page",
            &[Value::from(app.0), Value::Int(v)],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    fn alias(
        rt: &mut FtRuntime,
        app: ComponentId,
        mm: ComponentId,
        t: ThreadId,
        src_key: i64,
        dst: ComponentId,
        dst_vaddr: i64,
    ) -> i64 {
        rt.interface_call(
            app,
            t,
            mm,
            "mman_alias_page",
            &[
                Value::from(app.0),
                Value::Int(src_key),
                Value::from(dst.0),
                Value::Int(dst_vaddr),
            ],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    #[test]
    fn tracks_roots_and_aliases() {
        let (mut rt, app1, app2, mm, t) = rig();
        let root = get_page(&mut rt, app1, mm, t, 0x1000);
        alias(&mut rt, app1, mm, t, root, app2, 0x8000);
        assert_eq!(rt.stub(app1, mm).unwrap().tracked_count(), 2);
    }

    #[test]
    fn root_recovers_after_fault_with_same_frame() {
        let (mut rt, app1, _a2, mm, t) = rig();
        let root = get_page(&mut rt, app1, mm, t, 0x1000);
        let frame = rt.kernel().pages().translate(app1, 0x1000).unwrap();
        rt.inject_fault(mm);
        // Releasing triggers recovery (replay get_page) then the release.
        rt.interface_call(
            app1,
            t,
            mm,
            "mman_release_page",
            &[Value::from(app1.0), Value::Int(root)],
        )
        .unwrap();
        assert_eq!(rt.stats().faults_handled, 1);
        // The replayed mapping reused the surviving frame before being
        // released.
        let _ = frame;
        assert_eq!(rt.kernel().pages().translate(app1, 0x1000), None);
    }

    #[test]
    fn alias_recovery_rebuilds_parent_first() {
        let (mut rt, app1, app2, mm, t) = rig();
        let root = get_page(&mut rt, app1, mm, t, 0x1000);
        alias(&mut rt, app1, mm, t, root, app2, 0x8000);
        rt.inject_fault(mm);
        // A fresh alias of the same source: D1 recovers the root first,
        // then the new alias is created.
        alias(&mut rt, app1, mm, t, root, app2, 0x9000);
        assert!(crate::stubs::fired(&rt, Mechanism::R0) >= 1);
        assert_eq!(
            rt.kernel().pages().translate(app1, 0x1000),
            rt.kernel().pages().translate(app2, 0x9000)
        );
    }

    #[test]
    fn release_drops_tracked_subtree() {
        let (mut rt, app1, app2, mm, t) = rig();
        let root = get_page(&mut rt, app1, mm, t, 0x1000);
        alias(&mut rt, app1, mm, t, root, app2, 0x8000);
        rt.interface_call(
            app1,
            t,
            mm,
            "mman_release_page",
            &[Value::from(app1.0), Value::Int(root)],
        )
        .unwrap();
        assert_eq!(rt.stub(app1, mm).unwrap().tracked_count(), 0);
    }

    #[test]
    fn full_workload_survives_fault() {
        use composite::{Executor, RunExit};
        use sg_services::api::ClientEnd;
        use sg_services::workloads::MmGrantAliasRevoke;

        let (mut rt, app1, app2, mm, t) = rig();
        let mut ex: Executor<FtRuntime> = Executor::new();
        ex.attach(
            t,
            Box::new(MmGrantAliasRevoke::new(
                ClientEnd::new(app1, t, mm),
                app2,
                10,
            )),
        );
        ex.run(&mut rt, 7);
        rt.inject_fault(mm);
        assert_eq!(ex.run(&mut rt, 100_000), RunExit::AllDone);
        assert_eq!(rt.stats().unrecovered, 0);
        assert_eq!(rt.kernel().pages().mapping_count(), 0);
    }
}

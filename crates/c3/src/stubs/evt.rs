//! Hand-written C³ stub for the `evt` interface — the most involved
//! baseline stub, since event descriptors are **global** (§III-C G0/U0):
//! the same event id is used from multiple client components, so after a
//! micro-reboot the descriptor must be rebuilt *under its original id*.
//!
//! On every `evt_split` the creating client's stub records
//! ⟨id → creator, parent, grp⟩ in the storage component. When recovery
//! finds a faulty descriptor, the stub either restores it directly (if
//! this client created it, using its tracked metadata) or looks up the
//! creator in storage and upcalls into the creator's edge to rebuild it
//! (**U0**), then re-pends an unconsumed trigger if one was outstanding.

use std::collections::BTreeMap;

use composite::{CallError, ServiceError, Value};

use crate::env::StubEnv;
use crate::stub::{is_server_fault, InterfaceStub};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvtState {
    /// Created / waited (nothing pending).
    Idle,
    /// A trigger may be unconsumed.
    TriggerPending,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct EvtDesc {
    /// Whether this client created the event (owns the metadata).
    creator: bool,
    parent: i64,
    grp: i64,
    state: EvtState,
    faulty: bool,
}

/// Hand-written C³ client stub for the event manager.
#[derive(Debug, Default)]
pub struct C3EvtStub {
    descs: BTreeMap<i64, EvtDesc>,
}

impl C3EvtStub {
    /// An empty stub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Track a descriptor this client did not create (first foreign use).
    fn track_foreign(&mut self, id: i64) {
        self.descs.entry(id).or_insert(EvtDesc {
            creator: false,
            parent: 0,
            grp: 0,
            state: EvtState::Idle,
            faulty: false,
        });
    }
}

impl InterfaceStub for C3EvtStub {
    fn interface(&self) -> &'static str {
        "evt"
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        if fname == "evt_split" {
            let parent = args.get(1).and_then(|v| v.int().ok()).unwrap_or(0);
            let grp = args.get(2).and_then(|v| v.int().ok()).unwrap_or(0);
            loop {
                // D1: a parented split needs its parent alive first.
                if parent != 0 && self.descs.get(&parent).is_some_and(|d| d.faulty) {
                    env.note_parent_first();
                    self.recover_descriptor(env, parent)?;
                }
                match env.invoke(fname, args) {
                    Ok(v) => {
                        let id = v.int().map_err(|e| CallError::Service(e.into()))?;
                        self.descs.insert(
                            id,
                            EvtDesc {
                                creator: true,
                                parent,
                                grp,
                                state: EvtState::Idle,
                                faulty: false,
                            },
                        );
                        // G0: record the global descriptor in storage so
                        // any client can find its creator post-reboot.
                        env.storage_record("evt", id, env.client, parent, grp)?;
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

        let desc = args.get(1).and_then(|v| v.int().ok()).unwrap_or(-1);
        self.track_foreign(desc);
        let mut g0_attempted = false;

        loop {
            if self.descs.get(&desc).is_some_and(|d| d.faulty) {
                self.recover_descriptor(env, desc)?;
            }
            match env.invoke(fname, args) {
                Ok(v) => {
                    let d = self.descs.get_mut(&desc).expect("tracked above");
                    match fname {
                        "evt_wait" => d.state = EvtState::Idle,
                        "evt_trigger" => d.state = EvtState::TriggerPending,
                        "evt_free" => {
                            self.descs.remove(&desc);
                            env.note_teardown(1);
                            if let Some(storage) = env.storage {
                                let _ = env.kernel.invoke(
                                    env.client,
                                    env.thread,
                                    storage,
                                    "st_unrecord",
                                    &[Value::from("evt"), Value::Int(desc)],
                                );
                            }
                        }
                        _ => {}
                    }
                    return Ok(v);
                }
                Err(CallError::WouldBlock) => return Err(CallError::WouldBlock),
                Err(e) if is_server_fault(&e, env.server) => {
                    env.ensure_rebooted()?;
                    self.mark_faulty();
                }
                // The server lost this global descriptor (rebuilt server,
                // record missing): give G0 recovery exactly one chance —
                // mark the descriptor faulty so the next loop iteration
                // runs recover_descriptor, then redo the invocation.
                Err(CallError::Service(ServiceError::NotFound)) if !g0_attempted => {
                    g0_attempted = true;
                    self.descs.get_mut(&desc).expect("tracked above").faulty = true;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc: i64) -> Result<(), CallError> {
        let Some(d) = self.descs.get(&desc) else {
            return Ok(());
        };
        if !d.faulty {
            return Ok(());
        }
        let (creator, parent, grp, state) = (d.creator, d.parent, d.grp, d.state);

        if creator {
            // D1: rebuild the parent first, root-first ordering.
            if parent != 0 && self.descs.get(&parent).is_some_and(|p| p.faulty) {
                env.note_parent_first();
                self.recover_descriptor(env, parent)?;
            }
            // Restore under the original global id using tracked
            // metadata.
            env.replay(
                "evt_restore",
                &[
                    Value::from(env.client.0),
                    Value::Int(desc),
                    Value::Int(parent),
                    Value::Int(grp),
                ],
            )?;
            if state == EvtState::TriggerPending {
                // Re-pend the possibly unconsumed trigger.
                env.replay(
                    "evt_trigger",
                    &[Value::from(env.client.0), Value::Int(desc)],
                )?;
            }
        } else {
            // G0: find the creator through the storage component and
            // upcall into its edge to rebuild the descriptor (U0).
            let creator_comp = env.storage_lookup_creator("evt", desc)?;
            if creator_comp == env.client || creator_comp.0 == u32::MAX {
                return Err(CallError::Service(ServiceError::NotFound));
            }
            env.upcall_recover(creator_comp, desc)?;
        }
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
        ComponentId, CostModel, InterfaceCall as _, Kernel, Mechanism, Priority, ThreadId,
    };
    use sg_services::event::EventService;
    use sg_services::storage::StorageService;

    use crate::runtime::{FtRuntime, RuntimeConfig};

    struct Rig {
        rt: FtRuntime,
        app1: ComponentId,
        app2: ComponentId,
        evt: ComponentId,
        t1: ThreadId,
        t2: ThreadId,
    }

    fn rig() -> Rig {
        let mut k = Kernel::with_costs(CostModel::free());
        let app1 = k.add_client_component("app1");
        let app2 = k.add_client_component("app2");
        let evt = k.add_component("evt", Box::new(EventService::new()));
        let storage = k.add_component("storage", Box::new(StorageService::new()));
        let t1 = k.create_thread(app1, Priority(5));
        let t2 = k.create_thread(app2, Priority(5));
        let mut rt = FtRuntime::new(
            k,
            RuntimeConfig {
                storage: Some(storage),
                ..RuntimeConfig::default()
            },
        );
        rt.install_stub(app1, evt, Box::new(C3EvtStub::new()));
        rt.install_stub(app2, evt, Box::new(C3EvtStub::new()));
        Rig {
            rt,
            app1,
            app2,
            evt,
            t1,
            t2,
        }
    }

    fn split(r: &mut Rig) -> i64 {
        r.rt.interface_call(
            r.app1,
            r.t1,
            r.evt,
            "evt_split",
            &[Value::from(r.app1.0), Value::Int(0), Value::Int(1)],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    #[test]
    fn split_records_in_storage() {
        let mut r = rig();
        let _id = split(&mut r);
        assert!(crate::stubs::fired(&r.rt, Mechanism::G0) >= 1);
    }

    #[test]
    fn creator_recovers_under_original_id() {
        let mut r = rig();
        let id = split(&mut r);
        r.rt.interface_call(
            r.app1,
            r.t1,
            r.evt,
            "evt_trigger",
            &[Value::from(r.app1.0), Value::Int(id)],
        )
        .unwrap();
        r.rt.inject_fault(r.evt);
        // The creator's next wait recovers the event under the same id;
        // the pending trigger was re-pended, so the wait succeeds
        // immediately.
        let v =
            r.rt.interface_call(
                r.app1,
                r.t1,
                r.evt,
                "evt_wait",
                &[Value::from(r.app1.0), Value::Int(id)],
            )
            .unwrap();
        assert_eq!(
            v,
            Value::Int(id),
            "global id must be stable across recovery"
        );
    }

    #[test]
    fn foreign_client_recovers_via_storage_and_upcall() {
        let mut r = rig();
        let id = split(&mut r);
        r.rt.inject_fault(r.evt);
        // app2 (not the creator) triggers: G0 storage lookup + U0 upcall
        // into app1's edge rebuild the event, then the trigger lands.
        r.rt.interface_call(
            r.app2,
            r.t2,
            r.evt,
            "evt_trigger",
            &[Value::from(r.app2.0), Value::Int(id)],
        )
        .unwrap();
        assert!(crate::stubs::fired(&r.rt, Mechanism::U0) >= 1);
        assert!(crate::stubs::fired(&r.rt, Mechanism::G0) >= 2);
        // The trigger is visible to the creator.
        let v =
            r.rt.interface_call(
                r.app1,
                r.t1,
                r.evt,
                "evt_wait",
                &[Value::from(r.app1.0), Value::Int(id)],
            )
            .unwrap();
        assert_eq!(v, Value::Int(id));
    }

    #[test]
    fn free_unrecords_from_storage() {
        let mut r = rig();
        let id = split(&mut r);
        r.rt.interface_call(
            r.app1,
            r.t1,
            r.evt,
            "evt_free",
            &[Value::from(r.app1.0), Value::Int(id)],
        )
        .unwrap();
        // A post-free recovery attempt finds no storage record.
        r.rt.inject_fault(r.evt);
        let err =
            r.rt.interface_call(
                r.app2,
                r.t2,
                r.evt,
                "evt_trigger",
                &[Value::from(r.app2.0), Value::Int(id)],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CallError::Service(ServiceError::NotFound) | CallError::Fault { .. }
        ));
    }

    #[test]
    fn unrecoverable_without_storage_record() {
        let mut r = rig();
        // app2 uses an id that was never recorded.
        r.rt.inject_fault(r.evt);
        let err =
            r.rt.interface_call(
                r.app2,
                r.t2,
                r.evt,
                "evt_wait",
                &[Value::from(r.app2.0), Value::Int(424_242)],
            )
            .unwrap_err();
        assert!(matches!(err, CallError::Service(ServiceError::NotFound)));
    }
}

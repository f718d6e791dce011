//! The storage component (`storage` interface).
//!
//! The redundant store behind the **G0** and **G1** recovery mechanisms
//! (§III-C). It keeps two kinds of records:
//!
//! * **Resource data** (`st_store`/`st_fetch`/`st_erase`) — bulk data a
//!   service (e.g. RamFS) persists so a micro-reboot does not lose it.
//!   Data may be passed inline or by cbuf reference
//!   (`st_store_ref`/`st_fetch_ref`).
//! * **Global-descriptor records** (`st_record`/`st_lookup_*`/
//!   `st_unrecord`) — the mapping from a globally addressable descriptor
//!   id to its creator component and creation arguments, consulted by the
//!   server-side stub when a rebooted server reports an unknown
//!   descriptor id.
//!
//! Per §II-E the storage component is unprotected infrastructure: it is
//! never a fault-injection target.

use std::collections::BTreeMap;

use composite::{IdSlab, Service, ServiceCtx, ServiceError, Value};

#[derive(Debug, Clone, PartialEq, Eq)]
struct DescRecord {
    creator: i64,
    parent: i64,
    aux: i64,
}

/// The storage service component.
///
/// Descriptor records are keyed interface-first: the outer map holds a
/// handful of interface names (looked up by `&str`, no per-record key
/// allocation) and the inner stores are [`IdSlab`]s keyed by descriptor
/// id — record traffic is the per-creation G0 hot path for global
/// interfaces. A record whose id falls in its slab's dense window (evt's
/// ascending ids, an MM root while its record holds the window) is one
/// array index; any other id, such as MM's address-keyed aliases, is a
/// `BTreeMap` lookup in the slab's spill. Each slab's window follows the
/// span of its live records, not the largest id ever recorded.
#[derive(Debug, Default)]
pub struct StorageService {
    data: BTreeMap<String, Vec<u8>>,
    refs: BTreeMap<String, i64>,
    descs: BTreeMap<String, IdSlab<DescRecord>>,
}

impl StorageService {
    /// A fresh, empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored data blobs (tests/reflection).
    #[must_use]
    pub fn blob_count(&self) -> usize {
        self.data.len()
    }

    /// Number of global-descriptor records (tests/reflection).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.descs.values().map(IdSlab::len).sum()
    }
}

impl Service for StorageService {
    fn interface(&self) -> &'static str {
        "storage"
    }

    fn call(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // st_store(key, bytes)
            "st_store" => {
                let key = args[0].str()?.to_owned();
                let bytes = args[1].bytes()?.to_vec();
                self.data.insert(key, bytes);
                Ok(Value::Int(0))
            }
            // st_fetch(key) -> bytes
            "st_fetch" => {
                let key = args[0].str()?;
                let bytes = self.data.get(key).ok_or(ServiceError::NotFound)?;
                Ok(Value::from(bytes.clone()))
            }
            // st_erase(key)
            "st_erase" => {
                let key = args[0].str()?;
                self.data.remove(key).ok_or(ServiceError::NotFound)?;
                self.refs.remove(key);
                Ok(Value::Int(0))
            }
            // st_store_ref(key, cbid) — remember a cbuf reference
            "st_store_ref" => {
                let key = args[0].str()?.to_owned();
                let cbid = args[1].int()?;
                self.refs.insert(key, cbid);
                Ok(Value::Int(0))
            }
            // st_fetch_ref(key) -> cbid
            "st_fetch_ref" => {
                let key = args[0].str()?;
                let cbid = self.refs.get(key).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(*cbid))
            }
            // st_record(iface, descid, creator, parent, aux) — G0 record
            "st_record" => {
                let iface = args[0].str()?;
                let descid = args[1].int()?;
                let rec = DescRecord {
                    creator: args[2].int()?,
                    parent: args[3].int()?,
                    aux: args[4].int()?,
                };
                // Borrowed lookup first: the owned key is only built the
                // first time an interface records anything.
                match self.descs.get_mut(iface) {
                    Some(m) => {
                        m.insert(descid, rec);
                    }
                    None => {
                        let mut m = IdSlab::new();
                        m.insert(descid, rec);
                        self.descs.insert(iface.to_owned(), m);
                    }
                }
                Ok(Value::Int(0))
            }
            // st_lookup_creator / st_lookup_parent / st_lookup_aux
            "st_lookup_creator" | "st_lookup_parent" | "st_lookup_aux" => {
                let iface = args[0].str()?;
                let descid = args[1].int()?;
                let rec = self
                    .descs
                    .get(iface)
                    .and_then(|m| m.get(descid))
                    .ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(match fname {
                    "st_lookup_creator" => rec.creator,
                    "st_lookup_parent" => rec.parent,
                    _ => rec.aux,
                }))
            }
            // st_unrecord(iface, descid)
            "st_unrecord" => {
                let iface = args[0].str()?;
                let descid = args[1].int()?;
                self.descs
                    .get_mut(iface)
                    .and_then(|m| m.remove(descid))
                    .ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        // Unprotected infrastructure: only reset in tests.
        self.data.clear();
        self.refs.clear();
        self.descs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, ComponentId, CostModel, Kernel, Priority, ThreadId};

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let st = k.add_component("storage", Box::new(StorageService::new()));
        k.grant(app, st);
        let t = k.create_thread(app, Priority(5));
        (k, app, st, t)
    }

    #[test]
    fn store_fetch_erase() {
        let (mut k, app, st, t) = setup();
        k.invoke(
            app,
            t,
            st,
            "st_store",
            &[Value::from("f"), Value::from(vec![1, 2])],
        )
        .unwrap();
        let r = k
            .invoke(app, t, st, "st_fetch", &[Value::from("f")])
            .unwrap();
        assert_eq!(r, Value::from(vec![1, 2]));
        k.invoke(app, t, st, "st_erase", &[Value::from("f")])
            .unwrap();
        let err = k
            .invoke(app, t, st, "st_fetch", &[Value::from("f")])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn cbuf_refs_round_trip() {
        let (mut k, app, st, t) = setup();
        k.invoke(
            app,
            t,
            st,
            "st_store_ref",
            &[Value::from("f"), Value::Int(42)],
        )
        .unwrap();
        let r = k
            .invoke(app, t, st, "st_fetch_ref", &[Value::from("f")])
            .unwrap();
        assert_eq!(r, Value::Int(42));
    }

    #[test]
    fn descriptor_records_round_trip() {
        let (mut k, app, st, t) = setup();
        k.invoke(
            app,
            t,
            st,
            "st_record",
            &[
                Value::from("evt"),
                Value::Int(7),
                Value::Int(3),
                Value::Int(0),
                Value::Int(9),
            ],
        )
        .unwrap();
        let creator = k
            .invoke(
                app,
                t,
                st,
                "st_lookup_creator",
                &[Value::from("evt"), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(creator, Value::Int(3));
        let parent = k
            .invoke(
                app,
                t,
                st,
                "st_lookup_parent",
                &[Value::from("evt"), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(parent, Value::Int(0));
        let aux = k
            .invoke(
                app,
                t,
                st,
                "st_lookup_aux",
                &[Value::from("evt"), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(aux, Value::Int(9));
        k.invoke(
            app,
            t,
            st,
            "st_unrecord",
            &[Value::from("evt"), Value::Int(7)],
        )
        .unwrap();
        let err = k
            .invoke(
                app,
                t,
                st,
                "st_lookup_creator",
                &[Value::from("evt"), Value::Int(7)],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn records_are_namespaced_by_interface() {
        let (mut k, app, st, t) = setup();
        k.invoke(
            app,
            t,
            st,
            "st_record",
            &[
                Value::from("evt"),
                Value::Int(7),
                Value::Int(1),
                Value::Int(0),
                Value::Int(0),
            ],
        )
        .unwrap();
        let err = k
            .invoke(
                app,
                t,
                st,
                "st_lookup_creator",
                &[Value::from("lock"), Value::Int(7)],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn overwrite_replaces_data() {
        let (mut k, app, st, t) = setup();
        k.invoke(
            app,
            t,
            st,
            "st_store",
            &[Value::from("f"), Value::from(vec![1])],
        )
        .unwrap();
        k.invoke(
            app,
            t,
            st,
            "st_store",
            &[Value::from("f"), Value::from(vec![2])],
        )
        .unwrap();
        let r = k
            .invoke(app, t, st, "st_fetch", &[Value::from("f")])
            .unwrap();
        assert_eq!(r, Value::from(vec![2]));
    }
}

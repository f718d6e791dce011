//! The storage component (`storage` interface).
//!
//! The redundant store behind the **G0** and **G1** recovery mechanisms
//! (§III-C). It keeps two kinds of records:
//!
//! * **Resource data** (`st_store`/`st_fetch`/`st_erase`) — bulk data a
//!   service (e.g. RamFS, or the pipeline's channel ring) persists so a
//!   micro-reboot does not lose it. Data may be passed inline or by cbuf
//!   reference (`st_store_ref`/`st_fetch_ref`).
//! * **Global-descriptor records** (`st_record`/`st_lookup_*`/
//!   `st_unrecord`) — the mapping from a globally addressable descriptor
//!   id to its creator component and creation arguments, consulted by the
//!   server-side stub when a rebooted server reports an unknown
//!   descriptor id.
//!
//! Data and cbuf-reference keys are the caller's own [`SmallStr`]
//! argument, ordered by its FNV-1a hash ([`composite::fnv1a`]) first and
//! by name only among equal hashes. A lookup's tree descent therefore
//! compares integers and compares names once, at the key it lands on; a
//! key of up to 22 bytes, such as a channel ring's keys, lives inline in
//! the tree with no allocation. Stored data is the caller's [`Bytes`]
//! buffer itself, so `st_store` and `st_fetch` each bump a refcount and
//! copy nothing — the cbuf-reference semantics `Bytes` stands for. The
//! hash is deterministic (no randomized hashing), though nothing reads
//! the maps in key order.
//!
//! Per §II-E the storage component is unprotected infrastructure: it is
//! never a fault-injection target.

use std::collections::BTreeMap;

use composite::{fnv1a, Bytes, IdSlab, Service, ServiceCtx, ServiceError, SmallStr, Value};

#[derive(Debug, Clone, PartialEq, Eq)]
struct DescRecord {
    creator: i64,
    parent: i64,
    aux: i64,
}

/// A data or cbuf-reference key: the caller's string with its FNV-1a
/// hash. The derived order compares the hash first and the name only
/// among equal hashes.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    hash: u64,
    name: SmallStr,
}

impl Key {
    /// The key named by a string argument, sharing the argument's
    /// storage rather than copying it out.
    fn of(arg: &Value) -> Result<Self, ServiceError> {
        let name = arg.small_str()?.clone();
        Ok(Key {
            hash: fnv1a(&name),
            name,
        })
    }
}

/// The storage service component.
///
/// Resource data and cbuf references live in B-trees keyed by the
/// caller's string, ordered by its FNV-1a hash and then its name (see
/// the module docs); data values are the caller's shared [`Bytes`].
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
    data: BTreeMap<Key, Bytes>,
    refs: BTreeMap<Key, i64>,
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
                let key = Key::of(&args[0])?;
                let bytes = args[1].shared_bytes()?.clone();
                self.data.insert(key, bytes);
                Ok(Value::Int(0))
            }
            // st_fetch(key) -> bytes
            "st_fetch" => {
                let key = Key::of(&args[0])?;
                let bytes = self.data.get(&key).ok_or(ServiceError::NotFound)?;
                Ok(Value::Bytes(bytes.clone()))
            }
            // st_erase(key)
            "st_erase" => {
                let key = Key::of(&args[0])?;
                self.data.remove(&key).ok_or(ServiceError::NotFound)?;
                self.refs.remove(&key);
                Ok(Value::Int(0))
            }
            // st_store_ref(key, cbid) — remember a cbuf reference
            "st_store_ref" => {
                let key = Key::of(&args[0])?;
                let cbid = args[1].int()?;
                self.refs.insert(key, cbid);
                Ok(Value::Int(0))
            }
            // st_fetch_ref(key) -> cbid
            "st_fetch_ref" => {
                let key = Key::of(&args[0])?;
                let cbid = self.refs.get(&key).ok_or(ServiceError::NotFound)?;
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
    use composite::value::TypeMismatch;
    use composite::{CallError, ComponentId, CostModel, Kernel, Priority, SplitMix64, ThreadId};

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

    #[test]
    fn equal_hashes_order_by_name() {
        let key = |hash, name: &str| Key {
            hash,
            name: SmallStr::from(name),
        };
        assert!(key(7, "ch0:m1") < key(7, "ch0:m10"));
        assert!(key(7, "") < key(7, "a"));
        assert!(key(6, "z") < key(7, "a"), "the hash orders first");
        assert_eq!(key(7, "a"), key(7, "a"));
        assert_ne!(key(7, "a"), key(8, "a"));
        // Colliding keys stay distinct entries of one tree.
        let mut map = BTreeMap::new();
        for (i, name) in ["b", "a", "c"].into_iter().enumerate() {
            map.insert(key(7, name), i);
        }
        assert_eq!(map.get(&key(7, "a")), Some(&1));
        assert_eq!(map.get(&key(7, "d")), None);
        let names: Vec<&str> = map.keys().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    /// Keys for the model test: shared prefixes, the empty key, the
    /// inline/heap boundary of `SmallStr` (22 and 23 bytes) and non-ASCII
    /// text.
    const MODEL_KEYS: [&str; 12] = [
        "ch0:m1",
        "ch0:m10",
        "ch0:m100",
        "ch1:m1",
        "ch0:tail",
        "",
        "abcdefghijklmnopqrstuv",
        "abcdefghijklmnopqrstuvw",
        "ch0:f1",
        "données/été.txt",
        "ключ",
        "键🔑",
    ];

    fn type_error(expected: &'static str, found: &'static str) -> CallError {
        CallError::Service(ServiceError::Type(TypeMismatch { expected, found }))
    }

    /// The five data and cbuf-reference functions, in lock step with
    /// `BTreeMap<String, _>` models: every result, `NotFound` and type
    /// errors included, must match.
    #[test]
    fn data_and_refs_match_a_reference_model() {
        assert_eq!(MODEL_KEYS[6].len(), 22);
        assert_eq!(MODEL_KEYS[7].len(), 23);
        let (mut k, app, st, t) = setup();
        let mut data: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut refs: BTreeMap<String, i64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0x5709_A6E0);
        let not_found = || CallError::Service(ServiceError::NotFound);
        let (mut overwrites, mut missing_erases, mut misses) = (0, 0, 0);
        for step in 0..6_000 {
            let name = MODEL_KEYS[rng.gen_index(MODEL_KEYS.len())];
            let key = Value::from(name);
            let (fname, args, expected) = match rng.gen_range(12) {
                0..=2 => {
                    let len = rng.gen_range(6);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    overwrites += u32::from(data.insert(name.to_owned(), bytes.clone()).is_some());
                    ("st_store", vec![key, Value::from(bytes)], Ok(Value::Int(0)))
                }
                3..=4 => {
                    let r = data.get(name).map(|b| Value::from(b.clone()));
                    ("st_fetch", vec![key], r.ok_or_else(not_found))
                }
                5 => {
                    let r = data.remove(name).map(|_| {
                        refs.remove(name);
                        Value::Int(0)
                    });
                    missing_erases += u32::from(r.is_none());
                    ("st_erase", vec![key], r.ok_or_else(not_found))
                }
                6..=7 => {
                    let cbid = rng.next_u64() as i64;
                    refs.insert(name.to_owned(), cbid);
                    (
                        "st_store_ref",
                        vec![key, Value::Int(cbid)],
                        Ok(Value::Int(0)),
                    )
                }
                8..=9 => {
                    let r = refs.get(name).map(|&c| Value::Int(c));
                    ("st_fetch_ref", vec![key], r.ok_or_else(not_found))
                }
                // A wrong-typed argument changes nothing; the key is
                // checked first.
                10 => match rng.gen_range(4) {
                    0 => (
                        "st_store",
                        vec![Value::Int(1), Value::from("not bytes")],
                        Err(type_error("str", "int")),
                    ),
                    1 => (
                        "st_store_ref",
                        vec![Value::Int(1), Value::from("not an int")],
                        Err(type_error("str", "int")),
                    ),
                    2 => (
                        "st_store",
                        vec![key, Value::from("not bytes")],
                        Err(type_error("bytes", "str")),
                    ),
                    _ => (
                        "st_store_ref",
                        vec![key, Value::Unit],
                        Err(type_error("int", "unit")),
                    ),
                },
                _ => {
                    let fname = ["st_fetch", "st_erase", "st_fetch_ref"][rng.gen_index(3)];
                    let found = Value::from(vec![0]);
                    (fname, vec![found], Err(type_error("str", "bytes")))
                }
            };
            let got = k.invoke(app, t, st, fname, &args);
            misses += u32::from(got == Err(not_found()));
            assert_eq!(got, expected, "step {step}: {fname}{args:?}");
        }
        // The walk must overwrite, erase missing keys and miss.
        assert!(
            overwrites > 500 && missing_erases > 50 && misses > 300,
            "{overwrites} overwrites, {missing_erases} missing erases, {misses} misses"
        );
    }
}

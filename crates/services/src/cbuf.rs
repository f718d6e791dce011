//! The zero-copy buffer (`cbuf`) manager.
//!
//! Stands in for COMPOSITE's cbuf subsystem (Ren et al., ISMM 2016): bulk
//! data is placed in a buffer once and shared by reference; only the
//! producing component may write, all others get read-only access — the
//! restriction that prevents fault propagation through shared buffers
//! (§II-C). Per §II-E this component is *not* protected by
//! SuperGlue/C³ recovery.

use std::collections::BTreeMap;

use composite::{ComponentId, Service, ServiceCtx, ServiceError, Value};

#[derive(Debug, Clone)]
struct Cbuf {
    owner: ComponentId,
    data: Vec<u8>,
}

/// The cbuf manager service component.
#[derive(Debug, Default)]
pub struct CbufService {
    bufs: BTreeMap<i64, Cbuf>,
    next_id: i64,
}

impl CbufService {
    /// A fresh cbuf manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct read-only view of a buffer (the in-process path used by
    /// consumers like the storage service).
    #[must_use]
    pub fn view(&self, cbid: i64) -> Option<&[u8]> {
        self.bufs.get(&cbid).map(|b| b.data.as_slice())
    }
}

impl Service for CbufService {
    fn interface(&self) -> &'static str {
        "cbuf"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // cb_alloc(size) -> cbid (caller becomes the producer)
            "cb_alloc" => {
                let size = args[0].int()?;
                if size < 0 {
                    return Err(ServiceError::InvalidArg);
                }
                self.next_id += 1;
                let id = self.next_id;
                self.bufs.insert(
                    id,
                    Cbuf {
                        owner: ctx.client,
                        data: vec![0; size as usize],
                    },
                );
                Ok(Value::Int(id))
            }
            // cb_write(cbid, offset, bytes) -> bytes written
            "cb_write" => {
                let id = args[0].int()?;
                let offset = args[1].int()? as usize;
                let data = args[2].bytes()?;
                let buf = self.bufs.get_mut(&id).ok_or(ServiceError::NotFound)?;
                if buf.owner != ctx.client {
                    // Read-only for everyone but the producer.
                    return Err(ServiceError::InvalidArg);
                }
                if offset + data.len() > buf.data.len() {
                    buf.data.resize(offset + data.len(), 0);
                }
                buf.data[offset..offset + data.len()].copy_from_slice(data);
                Ok(Value::Int(data.len() as i64))
            }
            // cb_read(cbid) -> bytes
            "cb_read" => {
                let id = args[0].int()?;
                let buf = self.bufs.get(&id).ok_or(ServiceError::NotFound)?;
                Ok(Value::from(buf.data.clone()))
            }
            // cb_free(cbid)
            "cb_free" => {
                let id = args[0].int()?;
                let buf = self.bufs.get(&id).ok_or(ServiceError::NotFound)?;
                if buf.owner != ctx.client {
                    return Err(ServiceError::InvalidArg);
                }
                self.bufs.remove(&id);
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        // The cbuf manager is unprotected infrastructure (§II-E); resets
        // only happen in tests.
        self.bufs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, CostModel, Kernel, Priority, ThreadId};

    fn setup() -> (
        Kernel,
        ComponentId,
        ComponentId,
        ComponentId,
        ThreadId,
        ThreadId,
    ) {
        let mut k = Kernel::with_costs(CostModel::free());
        let prod = k.add_client_component("producer");
        let cons = k.add_client_component("consumer");
        let cb = k.add_component("cbuf", Box::new(CbufService::new()));
        k.grant(prod, cb);
        k.grant(cons, cb);
        let tp = k.create_thread(prod, Priority(5));
        let tc = k.create_thread(cons, Priority(5));
        (k, prod, cons, cb, tp, tc)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let (mut k, prod, cons, cb, tp, tc) = setup();
        let id = k
            .invoke(prod, tp, cb, "cb_alloc", &[Value::Int(4)])
            .unwrap()
            .int()
            .unwrap();
        k.invoke(
            prod,
            tp,
            cb,
            "cb_write",
            &[Value::Int(id), Value::Int(0), Value::from(vec![1, 2, 3, 4])],
        )
        .unwrap();
        let r = k
            .invoke(cons, tc, cb, "cb_read", &[Value::Int(id)])
            .unwrap();
        assert_eq!(r, Value::from(vec![1, 2, 3, 4]));
    }

    #[test]
    fn only_producer_may_write() {
        let (mut k, prod, cons, cb, tp, tc) = setup();
        let id = k
            .invoke(prod, tp, cb, "cb_alloc", &[Value::Int(4)])
            .unwrap()
            .int()
            .unwrap();
        let err = k
            .invoke(
                cons,
                tc,
                cb,
                "cb_write",
                &[Value::Int(id), Value::Int(0), Value::from(vec![9])],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn write_extends_buffer() {
        let (mut k, prod, _cons, cb, tp, _tc) = setup();
        let id = k
            .invoke(prod, tp, cb, "cb_alloc", &[Value::Int(0)])
            .unwrap()
            .int()
            .unwrap();
        k.invoke(
            prod,
            tp,
            cb,
            "cb_write",
            &[Value::Int(id), Value::Int(2), Value::from(vec![7])],
        )
        .unwrap();
        let r = k
            .invoke(prod, tp, cb, "cb_read", &[Value::Int(id)])
            .unwrap();
        assert_eq!(r, Value::from(vec![0, 0, 7]));
    }

    #[test]
    fn free_requires_ownership_and_removes() {
        let (mut k, prod, cons, cb, tp, tc) = setup();
        let id = k
            .invoke(prod, tp, cb, "cb_alloc", &[Value::Int(1)])
            .unwrap()
            .int()
            .unwrap();
        let err = k
            .invoke(cons, tc, cb, "cb_free", &[Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
        k.invoke(prod, tp, cb, "cb_free", &[Value::Int(id)])
            .unwrap();
        let err = k
            .invoke(prod, tp, cb, "cb_read", &[Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn negative_alloc_rejected() {
        let (mut k, prod, _c, cb, tp, _tc) = setup();
        let err = k
            .invoke(prod, tp, cb, "cb_alloc", &[Value::Int(-1)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }
}

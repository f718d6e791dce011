//! The RAM filesystem component (`fs` interface).
//!
//! Uses COMPOSITE's torrent-style API: `tsplit` opens a file relative to
//! a parent descriptor (fd 0 is the root), `tread`/`twrite` move data and
//! advance the per-descriptor offset, `tseek` repositions, `trelease`
//! closes.
//!
//! RamFS is the paper's example of a component whose descriptors alone
//! cannot reconstruct the service: the *file contents* (resource data,
//! `D_r`) would be lost by a micro-reboot. Per §II-C and **G1**, every
//! mutation redundantly stores the file into the storage component —
//! passed by zero-copy cbuf reference — *inside the critical region* that
//! mutates RamFS structures (the one manual storage interaction the paper
//! says is not automated). On a post-reboot access to a missing file,
//! RamFS itself re-fetches the contents from storage.

use std::collections::BTreeMap;

use composite::{CallError, ComponentId, Service, ServiceCtx, ServiceError, Value};

#[derive(Debug, Clone, PartialEq, Eq)]
struct FdRec {
    path: String,
    offset: usize,
}

/// The RAM filesystem service component.
#[derive(Debug)]
pub struct RamFs {
    storage: ComponentId,
    cbuf: ComponentId,
    /// Whether mutations are persisted to storage (disabled for the
    /// no-redundancy ablation).
    persist: bool,
    files: BTreeMap<String, Vec<u8>>,
    fds: BTreeMap<i64, FdRec>,
    /// Per-path cbuf carrying its persisted contents.
    file_cbufs: BTreeMap<String, i64>,
    next_fd: i64,
}

impl RamFs {
    /// A RamFS persisting through the given storage and cbuf components.
    #[must_use]
    pub fn new(storage: ComponentId, cbuf: ComponentId) -> Self {
        let mut fs = Self {
            storage,
            cbuf,
            persist: true,
            files: BTreeMap::new(),
            fds: BTreeMap::new(),
            file_cbufs: BTreeMap::new(),
            next_fd: 0,
        };
        fs.install_root();
        fs
    }

    /// A RamFS that never persists — the ablation variant that loses file
    /// data on reboot.
    #[must_use]
    pub fn without_persistence(storage: ComponentId, cbuf: ComponentId) -> Self {
        let mut fs = Self::new(storage, cbuf);
        fs.persist = false;
        fs
    }

    fn install_root(&mut self) {
        self.fds.insert(
            0,
            FdRec {
                path: String::new(),
                offset: 0,
            },
        );
    }

    /// Load a file's contents from the storage component if RamFS lost
    /// them (post-reboot). Returns whether the file is now present.
    fn ensure_loaded(&mut self, ctx: &mut ServiceCtx<'_>, path: &str) -> bool {
        if self.files.contains_key(path) {
            return true;
        }
        if !self.persist {
            return false;
        }
        let cbid = match ctx.invoke(self.storage, "st_fetch_ref", &[Value::from(path)]) {
            Ok(Value::Int(id)) => id,
            _ => return false,
        };
        match ctx.invoke(self.cbuf, "cb_read", &[Value::Int(cbid)]) {
            Ok(Value::Bytes(data)) => {
                // G1: the redundant copy brought the lost contents back.
                ctx.note_mechanism(composite::Mechanism::G1);
                self.files.insert(path.to_owned(), data.to_vec());
                self.file_cbufs.insert(path.to_owned(), cbid);
                true
            }
            _ => false,
        }
    }

    /// Persist a file into the storage component by cbuf reference,
    /// within the mutation's critical region (**G1**).
    fn persist_file(&mut self, ctx: &mut ServiceCtx<'_>, path: &str) -> Result<(), CallError> {
        if !self.persist {
            return Ok(());
        }
        let data = self.files.get(path).cloned().unwrap_or_default();
        let cbid = match self.file_cbufs.get(path) {
            Some(&id) => id,
            None => {
                let id = ctx
                    .invoke(self.cbuf, "cb_alloc", &[Value::Int(0)])?
                    .int()
                    .unwrap_or_default();
                self.file_cbufs.insert(path.to_owned(), id);
                id
            }
        };
        ctx.invoke(
            self.cbuf,
            "cb_write",
            &[Value::Int(cbid), Value::Int(0), Value::from(data)],
        )?;
        ctx.invoke(
            self.storage,
            "st_store_ref",
            &[Value::from(path), Value::Int(cbid)],
        )?;
        Ok(())
    }
}

impl Service for RamFs {
    fn interface(&self) -> &'static str {
        "fs"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // tsplit(compid, parent_fd, path) -> fd
            "tsplit" => {
                let _compid = args[0].int()?;
                let parent = args[1].int()?;
                let rel = args[2].str()?.to_owned();
                if rel.is_empty() || rel.contains('\0') {
                    return Err(ServiceError::InvalidArg);
                }
                let parent_path = self
                    .fds
                    .get(&parent)
                    .ok_or(ServiceError::NotFound)?
                    .path
                    .clone();
                let path = format!("{parent_path}/{rel}");
                // Restore contents from storage if we lost them (G1), or
                // create the file fresh.
                if !self.ensure_loaded(ctx, &path) {
                    self.files.entry(path.clone()).or_default();
                }
                self.next_fd += 1;
                let fd = self.next_fd;
                self.fds.insert(fd, FdRec { path, offset: 0 });
                Ok(Value::Int(fd))
            }
            // tseek(compid, fd, offset) -> offset
            "tseek" => {
                let fd = args[1].int()?;
                let offset = args[2].int()?;
                if offset < 0 {
                    return Err(ServiceError::InvalidArg);
                }
                let rec = self.fds.get_mut(&fd).ok_or(ServiceError::NotFound)?;
                rec.offset = offset as usize;
                Ok(Value::Int(offset))
            }
            // tread(compid, fd, len) -> bytes (advances offset)
            "tread" => {
                let fd = args[1].int()?;
                let len = args[2].int()?.max(0) as usize;
                let rec = self.fds.get(&fd).ok_or(ServiceError::NotFound)?;
                let (path, offset) = (rec.path.clone(), rec.offset);
                if !self.ensure_loaded(ctx, &path) {
                    return Err(ServiceError::NotFound);
                }
                let data = self.files.get(&path).expect("loaded above");
                let end = (offset + len).min(data.len());
                let chunk = if offset < data.len() {
                    data[offset..end].to_vec()
                } else {
                    Vec::new()
                };
                let n = chunk.len();
                self.fds.get_mut(&fd).expect("checked above").offset = offset + n;
                Ok(Value::from(chunk))
            }
            // twrite(compid, fd, bytes) -> n written (advances offset)
            "twrite" => {
                let fd = args[1].int()?;
                let bytes = args[2].bytes()?.to_vec();
                let rec = self.fds.get(&fd).ok_or(ServiceError::NotFound)?;
                let (path, offset) = (rec.path.clone(), rec.offset);
                self.ensure_loaded(ctx, &path);
                let file = self.files.entry(path.clone()).or_default();
                if offset + bytes.len() > file.len() {
                    file.resize(offset + bytes.len(), 0);
                }
                file[offset..offset + bytes.len()].copy_from_slice(&bytes);
                let n = bytes.len();
                self.fds.get_mut(&fd).expect("checked above").offset = offset + n;
                // G1: persist inside the critical region.
                self.persist_file(ctx, &path)
                    .map_err(|_| ServiceError::Unavailable)?;
                Ok(Value::Int(n as i64))
            }
            // trelease(compid, fd)
            "trelease" => {
                let fd = args[1].int()?;
                if fd == 0 {
                    return Err(ServiceError::InvalidArg); // root is eternal
                }
                self.fds.remove(&fd).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        self.files.clear();
        self.fds.clear();
        self.file_cbufs.clear();
        self.install_root();
        // next_fd stays monotone across reboots.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CostModel, Kernel, Priority, ThreadId};

    use crate::cbuf::CbufService;
    use crate::storage::StorageService;

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let st = k.add_component("storage", Box::new(StorageService::new()));
        let cb = k.add_component("cbuf", Box::new(CbufService::new()));
        let fs = k.add_component("fs", Box::new(RamFs::new(st, cb)));
        k.grant(app, fs);
        k.grant(fs, st);
        k.grant(fs, cb);
        let t = k.create_thread(app, Priority(5));
        (k, app, fs, t)
    }

    fn tsplit(k: &mut Kernel, app: ComponentId, fs: ComponentId, t: ThreadId, path: &str) -> i64 {
        k.invoke(
            app,
            t,
            fs,
            "tsplit",
            &[Value::Int(1), Value::Int(0), Value::from(path)],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    #[test]
    fn paper_workload_open_write_read_close() {
        // §V-B FS: "A file is opened, a byte is written to it, read from
        // it, and then it is closed."
        let (mut k, app, fs, t) = setup();
        let fd = tsplit(&mut k, app, fs, t, "data.txt");
        let n = k
            .invoke(
                app,
                t,
                fs,
                "twrite",
                &[Value::Int(1), Value::Int(fd), Value::from(vec![0x42])],
            )
            .unwrap();
        assert_eq!(n, Value::Int(1));
        k.invoke(
            app,
            t,
            fs,
            "tseek",
            &[Value::Int(1), Value::Int(fd), Value::Int(0)],
        )
        .unwrap();
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![0x42]));
        k.invoke(app, t, fs, "trelease", &[Value::Int(1), Value::Int(fd)])
            .unwrap();
    }

    #[test]
    fn offsets_advance_and_seek_repositions() {
        let (mut k, app, fs, t) = setup();
        let fd = tsplit(&mut k, app, fs, t, "f");
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![1, 2, 3])],
        )
        .unwrap();
        // Offset is now 3; reading yields nothing.
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![]));
        k.invoke(
            app,
            t,
            fs,
            "tseek",
            &[Value::Int(1), Value::Int(fd), Value::Int(1)],
        )
        .unwrap();
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd), Value::Int(9)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![2, 3]));
    }

    #[test]
    fn contents_survive_micro_reboot_via_storage() {
        let (mut k, app, fs, t) = setup();
        let fd = tsplit(&mut k, app, fs, t, "persist.txt");
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![7, 8])],
        )
        .unwrap();
        k.fault(fs);
        k.micro_reboot(fs).unwrap();
        // Fresh open (as recovery would replay): contents restored from
        // the storage component through the cbuf.
        let fd2 = tsplit(&mut k, app, fs, t, "persist.txt");
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd2), Value::Int(2)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![7, 8]));
    }

    #[test]
    fn without_persistence_contents_lost_on_reboot() {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let st = k.add_component("storage", Box::new(StorageService::new()));
        let cb = k.add_component("cbuf", Box::new(CbufService::new()));
        let fs = k.add_component("fs", Box::new(RamFs::without_persistence(st, cb)));
        k.grant(app, fs);
        k.grant(fs, st);
        k.grant(fs, cb);
        let t = k.create_thread(app, Priority(5));
        let fd = tsplit(&mut k, app, fs, t, "gone.txt");
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![7])],
        )
        .unwrap();
        k.fault(fs);
        k.micro_reboot(fs).unwrap();
        let fd2 = tsplit(&mut k, app, fs, t, "gone.txt");
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd2), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![]), "ablation variant loses data");
    }

    #[test]
    fn nested_paths_resolve_through_parents() {
        let (mut k, app, fs, t) = setup();
        let dir = tsplit(&mut k, app, fs, t, "dir");
        let fd = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(dir), Value::from("leaf")],
            )
            .unwrap()
            .int()
            .unwrap();
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![5])],
        )
        .unwrap();
        // Re-opening via the same nesting reaches the same file.
        let dir2 = tsplit(&mut k, app, fs, t, "dir");
        let fd2 = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(dir2), Value::from("leaf")],
            )
            .unwrap()
            .int()
            .unwrap();
        let r = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd2), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r, Value::from(vec![5]));
    }

    #[test]
    fn split_of_unknown_parent_not_found() {
        let (mut k, app, fs, t) = setup();
        let err = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(77), Value::from("x")],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn root_cannot_be_released() {
        let (mut k, app, fs, t) = setup();
        let err = k
            .invoke(app, t, fs, "trelease", &[Value::Int(1), Value::Int(0)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn empty_path_rejected() {
        let (mut k, app, fs, t) = setup();
        let err = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("")],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn fd_ids_monotone_across_reboot() {
        let (mut k, app, fs, t) = setup();
        let fd1 = tsplit(&mut k, app, fs, t, "a");
        k.fault(fs);
        k.micro_reboot(fs).unwrap();
        let fd2 = tsplit(&mut k, app, fs, t, "a");
        assert!(fd2 > fd1);
    }
}

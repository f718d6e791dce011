//! Integration of the whole SuperGlue pipeline on a *third-party*
//! service the shipped system knows nothing about: write an IDL
//! description, compile it, install the generated stub, and get
//! transparent recovery — the adoption story of §IV.

use composite::{
    CostModel, InterfaceCall as _, Kernel, Priority, Service, ServiceCtx, ServiceError, Value,
};
use sg_c3::{FtRuntime, RuntimeConfig};
use superglue::CompiledStub;

/// A simple key-value registry service ("reg"): handles live in a table,
/// values are tracked metadata.
#[derive(Debug, Default)]
struct Registry {
    entries: std::collections::BTreeMap<i64, i64>,
    next: i64,
}

impl Service for Registry {
    fn interface(&self) -> &'static str {
        "reg"
    }
    fn call(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "reg_open" => {
                self.next += 1;
                self.entries.insert(self.next, args[1].int()?);
                Ok(Value::Int(self.next))
            }
            "reg_set" => {
                let id = args[1].int()?;
                let v = args[2].int()?;
                *self.entries.get_mut(&id).ok_or(ServiceError::NotFound)? = v;
                Ok(Value::Int(v))
            }
            "reg_get" => {
                let id = args[1].int()?;
                Ok(Value::Int(
                    *self.entries.get(&id).ok_or(ServiceError::NotFound)?,
                ))
            }
            "reg_close" => {
                let id = args[1].int()?;
                self.entries.remove(&id).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

const REG_IDL: &str = r#"
// Third-party registry service, described declaratively.
sm_transition(reg_open, reg_set);
sm_transition(reg_set,  reg_set);
sm_transition(reg_open, reg_get);
sm_transition(reg_set,  reg_get);
sm_transition(reg_get,  reg_get);
sm_transition(reg_get,  reg_set);
sm_transition(reg_open, reg_close);
sm_transition(reg_set,  reg_close);
sm_transition(reg_get,  reg_close);

sm_creation(reg_open);
sm_terminal(reg_close);
sm_recover_via(reg_get, reg_set);

desc_data_retval(long, regid)
reg_open(componentid_t compid, desc_data(long initial));
desc_data_retval(long, initial)
reg_set(componentid_t compid, desc(long regid), desc_data(long initial));
long reg_get(componentid_t compid, desc(long regid));
int reg_close(componentid_t compid, desc(long regid));
"#;

fn build() -> (
    FtRuntime,
    composite::ComponentId,
    composite::ComponentId,
    composite::ThreadId,
) {
    let mut k = Kernel::with_costs(CostModel::free());
    let app = k.add_client_component("app");
    let reg = k.add_component("reg", Box::new(Registry::default()));
    let t = k.create_thread(app, Priority(5));
    let spec = superglue_idl::compile_interface("reg", REG_IDL).expect("idl compiles");
    let compiled = superglue_compiler::compile(&spec);
    let mut rt = FtRuntime::new(k, RuntimeConfig::default());
    rt.install_stub(app, reg, Box::new(CompiledStub::new(compiled.stub_spec)));
    (rt, app, reg, t)
}

#[test]
fn third_party_service_gains_recovery_from_idl_alone() {
    let (mut rt, app, reg, t) = build();
    let id = rt
        .interface_call(app, t, reg, "reg_open", &[Value::Int(1), Value::Int(10)])
        .unwrap()
        .int()
        .unwrap();
    rt.interface_call(
        app,
        t,
        reg,
        "reg_set",
        &[Value::Int(1), Value::Int(id), Value::Int(42)],
    )
    .unwrap();

    rt.inject_fault(reg);

    // The get triggers micro-reboot + walk replay: reg_open(initial) then
    // reg_set(initial=42, tracked from the last set's argument AND
    // accumulated retval metadata).
    let v = rt
        .interface_call(app, t, reg, "reg_get", &[Value::Int(1), Value::Int(id)])
        .unwrap()
        .int()
        .unwrap();
    assert_eq!(v, 42, "recovered value must match the last set");
    assert_eq!(rt.stats().faults_handled, 1);
    assert_eq!(rt.stats().unrecovered, 0);
}

#[test]
fn id_translation_hides_changing_server_ids() {
    let (mut rt, app, reg, t) = build();
    let id1 = rt
        .interface_call(app, t, reg, "reg_open", &[Value::Int(1), Value::Int(7)])
        .unwrap()
        .int()
        .unwrap();
    let id2 = rt
        .interface_call(app, t, reg, "reg_open", &[Value::Int(1), Value::Int(8)])
        .unwrap()
        .int()
        .unwrap();
    rt.inject_fault(reg);
    // Both descriptors recover to fresh server-side ids; the client keeps
    // using the originals.
    let v1 = rt
        .interface_call(app, t, reg, "reg_get", &[Value::Int(1), Value::Int(id1)])
        .unwrap()
        .int()
        .unwrap();
    let v2 = rt
        .interface_call(app, t, reg, "reg_get", &[Value::Int(1), Value::Int(id2)])
        .unwrap()
        .int()
        .unwrap();
    assert_eq!((v1, v2), (7, 8));
}

#[test]
fn closed_descriptors_stay_closed_across_faults() {
    let (mut rt, app, reg, t) = build();
    let id = rt
        .interface_call(app, t, reg, "reg_open", &[Value::Int(1), Value::Int(5)])
        .unwrap()
        .int()
        .unwrap();
    rt.interface_call(app, t, reg, "reg_close", &[Value::Int(1), Value::Int(id)])
        .unwrap();
    rt.inject_fault(reg);
    // A closed descriptor is not resurrected by recovery.
    let err = rt
        .interface_call(app, t, reg, "reg_get", &[Value::Int(1), Value::Int(id)])
        .unwrap_err();
    assert!(matches!(
        err,
        composite::CallError::Service(ServiceError::NotFound)
    ));
}

#[test]
fn the_same_idl_reports_its_compilation_stats() {
    let spec = superglue_idl::compile_interface("reg", REG_IDL).unwrap();
    let out = superglue_compiler::compile(&spec);
    let idl = superglue_idl::idl_loc(REG_IDL);
    assert!(out.generated_loc() > 3 * idl);
    assert!(out.templates_used.len() < superglue_compiler::templates::TEMPLATE_COUNT);
}

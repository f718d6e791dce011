//! Source emission: run the template network twice — once with the
//! client-side template inputs, once with the server-side inputs —
//! exactly as §IV-B describes ("The back-end is executed twice with two
//! different sets of template inputs, once to generate the client stub,
//! and one to generate the server").

use crate::ir::CompiledStubSpec;
use crate::predicates::ModelPredicates;
use crate::templates::{templates, Ctx, Side};
use superglue_idl::InterfaceSpec;

/// Emit one side's stub source; returns the text and the names of the
/// templates whose predicates fired.
#[must_use]
pub fn emit_side(
    spec: &InterfaceSpec,
    stub: &CompiledStubSpec,
    preds: &ModelPredicates,
    side: Side,
) -> (String, Vec<&'static str>) {
    let ctx = Ctx { spec, stub, preds };
    let mut out = String::new();
    let mut used = Vec::new();
    for t in templates() {
        if t.side == side && (t.applies)(preds) {
            out.push_str(&(t.render)(&ctx));
            out.push('\n');
            used.push(t.name);
        }
    }
    (out, used)
}

/// Emit both passes; returns (client source, server source, all templates
/// used in order).
#[must_use]
pub fn emit_both(
    spec: &InterfaceSpec,
    stub: &CompiledStubSpec,
    preds: &ModelPredicates,
) -> (String, String, Vec<&'static str>) {
    let (client, mut used_c) = emit_side(spec, stub, preds, Side::Client);
    let (server, used_s) = emit_side(spec, stub, preds, Side::Server);
    used_c.extend(used_s);
    (client, server, used_c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir;

    fn lock() -> (InterfaceSpec, CompiledStubSpec, ModelPredicates) {
        let spec = superglue_idl::compile_interface(
            "lock",
            r#"
service_global_info = { desc_block = true };
sm_creation(lock_alloc);
sm_terminal(lock_free);
sm_block(lock_take);
sm_wakeup(lock_release);
sm_transition(lock_alloc, lock_take);
sm_transition(lock_take, lock_release);
sm_transition(lock_release, lock_take);
sm_transition(lock_release, lock_free);
sm_transition(lock_alloc, lock_free);
desc_data_retval(long, lockid)
lock_alloc(componentid_t compid);
int lock_take(componentid_t compid, desc(long lockid));
int lock_release(componentid_t compid, desc(long lockid));
int lock_free(componentid_t compid, desc(long lockid));
"#,
        )
        .unwrap();
        let stub = ir::lower(&spec);
        let preds = ModelPredicates::of(&spec);
        (spec, stub, preds)
    }

    fn evt() -> (InterfaceSpec, CompiledStubSpec, ModelPredicates) {
        let spec = superglue_idl::compile_interface(
            "evt",
            r#"
service_global_info = {
        desc_has_parent = parent, desc_close_remove = true,
        desc_is_global = true, desc_block = true, desc_has_data = true
};
sm_transition(evt_split, evt_wait);
sm_transition(evt_split, evt_trigger);
sm_transition(evt_wait, evt_trigger);
sm_transition(evt_trigger, evt_wait);
sm_transition(evt_trigger, evt_free);
sm_transition(evt_split, evt_free);
sm_creation(evt_split);
sm_terminal(evt_free);
sm_block(evt_wait);
sm_wakeup(evt_trigger);
desc_data_retval(long, evtid)
evt_split(desc_data(componentid_t compid),
          desc_data(parent_desc(long parent_evtid)),
          desc_data(int grp));
long evt_wait(componentid_t compid, desc(long evtid));
int evt_trigger(componentid_t compid, desc(long evtid));
int evt_free(componentid_t compid, desc(long evtid));
"#,
        )
        .unwrap();
        let stub = ir::lower(&spec);
        let preds = ModelPredicates::of(&spec);
        (spec, stub, preds)
    }

    #[test]
    fn lock_emits_fewer_templates_than_evt() {
        // The lock interface needs only R0/T0/T1, the event interface
        // additionally D1/G0/U0 — so strictly more templates fire.
        let (s1, st1, p1) = lock();
        let (_, _, used_lock) = emit_both(&s1, &st1, &p1);
        let (s2, st2, p2) = evt();
        let (_, _, used_evt) = emit_both(&s2, &st2, &p2);
        assert!(used_evt.len() > used_lock.len());
    }

    #[test]
    fn g0_templates_fire_only_for_global_interfaces() {
        let (s1, st1, p1) = lock();
        let (_, _, used) = emit_both(&s1, &st1, &p1);
        assert!(!used.contains(&"cli_g0_lookup_creator"));
        let (s2, st2, p2) = evt();
        let (_, _, used) = emit_both(&s2, &st2, &p2);
        assert!(used.contains(&"cli_g0_lookup_creator"));
        assert!(used.contains(&"srv_restore_entry"));
    }

    #[test]
    fn generated_source_mentions_every_function() {
        let (s, st, p) = evt();
        let (client, server, _) = emit_both(&s, &st, &p);
        for f in &s.fns {
            assert!(
                client.contains(&f.name),
                "client source must mention {}",
                f.name
            );
            assert!(
                server.contains(&f.name),
                "server source must mention {}",
                f.name
            );
        }
    }

    #[test]
    fn walk_table_embeds_shortest_paths() {
        let (s, st, p) = lock();
        let (client, _, _) = emit_both(&s, &st, &p);
        assert!(client.contains("WALK_AFTER_LOCK_TAKE"));
        assert!(client.contains("\"lock_alloc\", \"lock_take\""));
    }
}

//! Predicates over the descriptor-resource model — the §III-C mapping
//! from model to recovery mechanism, used to gate code templates.

use composite::Mechanism;
use superglue_idl::InterfaceSpec;

/// The evaluated predicate set for one interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelPredicates {
    /// `B_r`: threads can block in the server → **T0** eager wakeup.
    pub blocks: bool,
    /// `D_r`: the resource carries bulk data → **G1** storage redundancy.
    pub resource_data: bool,
    /// `G_dr`: descriptors are global → **G0** + **U0**.
    pub global: bool,
    /// `P_dr ≠ Solo`: parent ordering → **D1**.
    pub has_parent: bool,
    /// `P_dr = XCParent`: parents cross components → upcall-based D1,
    /// with **G0** creation records and the **U0** upcall.
    pub xc_parent: bool,
    /// `C_dr`: recursive close → **D0**.
    pub close_children: bool,
    /// `Y_dr`: close removes tracking.
    pub close_removes: bool,
    /// `D_dr`: descriptors carry metadata.
    pub desc_data: bool,
    /// The interface declares `sm_recover_via` substitutions.
    pub has_recover_via: bool,
    /// Some function accumulates its return value into metadata.
    pub has_accum: bool,
    /// Some function has a terminal role.
    pub has_terminal: bool,
    /// The interface requests `sm_elide` fast paths — gates the
    /// certified untracked-stub template.
    pub has_elisions: bool,
}

impl ModelPredicates {
    /// Evaluate the predicates for an interface.
    #[must_use]
    pub fn of(spec: &InterfaceSpec) -> Self {
        let m = &spec.model;
        Self {
            blocks: m.blocks,
            resource_data: m.resource_has_data,
            global: m.global,
            has_parent: m.parent.has_parent(),
            xc_parent: m.parent.crosses_components(),
            close_children: m.close_children,
            close_removes: m.close_removes_tracking,
            desc_data: m.descriptor_has_data,
            has_recover_via: !spec.recover_via.is_empty(),
            has_accum: spec.fns.iter().any(|f| {
                matches!(
                    f.retval_tracked,
                    Some((_, _, superglue_idl::ast::RetvalMode::Accum))
                )
            }),
            has_terminal: spec.machine.terminal_fns().next().is_some(),
            has_elisions: !spec.elide.is_empty(),
        }
    }

    /// The §III-C mechanism set implied by the predicates, in the order
    /// the server-recovery procedure of §III-D applies them. This is the
    /// one model→mechanism map; the templates it sits beside emit the
    /// code for each mechanism it names.
    #[must_use]
    pub fn mechanisms(&self) -> Vec<Mechanism> {
        let mut m = vec![Mechanism::R0];
        if self.blocks {
            m.push(Mechanism::T0);
        }
        m.push(Mechanism::T1);
        if self.close_children {
            m.push(Mechanism::D0);
        }
        if self.has_parent {
            m.push(Mechanism::D1);
        }
        // XCParent interfaces record creations in storage and rebuild a
        // parent through an upcall into its creator, as global ones do.
        if self.global || self.xc_parent {
            m.push(Mechanism::G0);
            m.push(Mechanism::U0);
        }
        if self.resource_data {
            m.push(Mechanism::G1);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superglue_sm::model::{DescriptorResourceModelBuilder, ParentPolicy};
    use superglue_sm::DescriptorResourceModel;

    fn lock_spec() -> InterfaceSpec {
        superglue_idl::compile_interface(
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
        .unwrap()
    }

    /// The mechanisms of `model`, read through the lock spec's predicates
    /// with its model swapped out (the map reads only the model fields).
    fn mechanisms_of(model: DescriptorResourceModel) -> Vec<Mechanism> {
        let mut spec = lock_spec();
        spec.model = model;
        ModelPredicates::of(&spec).mechanisms()
    }

    #[test]
    fn lock_predicates_match_paper() {
        // §V-C: "a lock descriptor only needs eager recovery (T0), base
        // recovery (R0), and on-demand recovery (T1)".
        let p = ModelPredicates::of(&lock_spec());
        assert!(p.blocks);
        assert!(!p.global && !p.has_parent && !p.resource_data);
        assert_eq!(
            p.mechanisms(),
            vec![Mechanism::R0, Mechanism::T0, Mechanism::T1]
        );
    }

    #[test]
    fn default_model_needs_only_base_recovery() {
        let m = DescriptorResourceModel::new();
        m.validate().expect("default model is consistent");
        assert_eq!(mechanisms_of(m), vec![Mechanism::R0, Mechanism::T1]);
    }

    #[test]
    fn lock_model_mechanisms() {
        // Lock: blocking, local, solo descriptors — T0 + R0 + T1 only,
        // exactly as §V-C states.
        let m = DescriptorResourceModelBuilder::new()
            .blocks(true)
            .build()
            .unwrap();
        assert_eq!(
            mechanisms_of(m),
            vec![Mechanism::R0, Mechanism::T0, Mechanism::T1]
        );
    }

    #[test]
    fn event_model_uses_all_but_d0() {
        // Event (Fig 3): parent, close_remove, global, block, desc data.
        let m = DescriptorResourceModelBuilder::new()
            .blocks(true)
            .global(true)
            .parent(ParentPolicy::Parent)
            .close_removes_tracking(true)
            .descriptor_has_data(true)
            .build()
            .unwrap();
        let mech = mechanisms_of(m);
        assert!(mech.contains(&Mechanism::G0));
        assert!(mech.contains(&Mechanism::U0));
        assert!(mech.contains(&Mechanism::D1));
        assert!(!mech.contains(&Mechanism::D0));
    }

    #[test]
    fn mm_model_has_children_dependency() {
        let m = DescriptorResourceModelBuilder::new()
            .parent(ParentPolicy::XcParent)
            .close_children(true)
            .build()
            .unwrap();
        assert_eq!(
            mechanisms_of(m),
            vec![
                Mechanism::R0,
                Mechanism::T1,
                Mechanism::D0,
                Mechanism::D1,
                Mechanism::G0,
                Mechanism::U0
            ]
        );
    }

    #[test]
    fn mechanisms_are_ordered_like_server_recovery_procedure() {
        let m = DescriptorResourceModelBuilder::new()
            .blocks(true)
            .global(true)
            .resource_has_data(true)
            .parent(ParentPolicy::Parent)
            .build()
            .unwrap();
        let mech = mechanisms_of(m);
        // R0 first, then T0 before T1, storage mechanisms last.
        assert_eq!(mech[0], Mechanism::R0);
        let t0 = mech.iter().position(|&x| x == Mechanism::T0).unwrap();
        let t1 = mech.iter().position(|&x| x == Mechanism::T1).unwrap();
        assert!(t0 < t1);
    }
}

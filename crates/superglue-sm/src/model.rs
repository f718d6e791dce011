//! The descriptor-resource model `DR = (B_r, D_r, G_dr, P_dr, C_dr, Y_dr,
//! D_dr)` (§III-A of the paper).
//!
//! Operating systems name abstract resources (threads, mappings, locks,
//! event channels, files) with opaque *descriptors*. SuperGlue decouples
//! the resource from the descriptor and parameterizes each interface with
//! seven properties that fully determine which recovery mechanisms
//! (R0/T0/T1/D0/D1/G0/G1/U0) the compiler must emit. That map lives once,
//! beside the templates it gates, as `superglue_compiler`'s
//! `ModelPredicates::mechanisms`.

use std::fmt;

use crate::{Error, Result};

/// `P_dr`: whether descriptors of a class depend on one another, and
/// whether that dependency can span components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParentPolicy {
    /// No inter-descriptor dependencies exist.
    #[default]
    Solo,
    /// Descriptor creation takes another descriptor as an argument (like
    /// POSIX `accept`); on recovery the same parent must be re-supplied.
    Parent,
    /// The parent/child relationship can span components (like memory
    /// aliases rooted in another component's mapping).
    XcParent,
}

impl ParentPolicy {
    /// True when descriptors of this class have a parent at all.
    #[must_use]
    pub fn has_parent(self) -> bool {
        !matches!(self, ParentPolicy::Solo)
    }

    /// True when the dependency may cross component boundaries.
    #[must_use]
    pub fn crosses_components(self) -> bool {
        matches!(self, ParentPolicy::XcParent)
    }
}

impl fmt::Display for ParentPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParentPolicy::Solo => "Solo",
            ParentPolicy::Parent => "Parent",
            ParentPolicy::XcParent => "XCParent",
        };
        f.write_str(s)
    }
}

/// The seven-tuple descriptor-resource model of §III-A.
///
/// Field names follow the paper's notation; the IDL surface syntax for each
/// field is listed in Table I of the paper and in the doc comment of the
/// corresponding accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DescriptorResourceModel {
    /// `B_r` — a thread can block while accessing the resource inside the
    /// server (`desc_block = true`). Blocking servers need eager wakeup
    /// recovery (**T0**).
    pub blocks: bool,
    /// `D_r` — the *resource* carries bulk data (`resc_has_data = true`,
    /// e.g. file contents) that must be redundantly stored in a storage
    /// component (**G1**).
    pub resource_has_data: bool,
    /// `G_dr` — descriptors are globally addressable across client
    /// components (`desc_is_global = true`), requiring storage-component
    /// mediation (**G0**) and upcalls (**U0**).
    pub global: bool,
    /// `P_dr` — the parent policy (`desc_has_parent = Solo|Parent|XCParent`).
    pub parent: ParentPolicy,
    /// `C_dr` — closing a descriptor recursively closes its children
    /// (`desc_close_children = true`), as in capability systems with
    /// recursive revocation (**D0**).
    pub close_children: bool,
    /// `Y_dr` — closing a descriptor removes the stub's tracking data
    /// (`desc_close_remove = true`); otherwise the metadata outlives the
    /// close so children may still consult it.
    pub close_removes_tracking: bool,
    /// `D_dr` — the *descriptor* carries recovery metadata
    /// (`desc_has_data = true`, e.g. a file path and offset).
    pub descriptor_has_data: bool,
}

impl DescriptorResourceModel {
    /// Create the all-false model (a stateless, solo, non-blocking
    /// interface needing only base recovery **R0**).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate the internal consistency constraints from §III-A.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InconsistentModel`] when
    /// * `Y_dr` is set although `P_dr = Solo` (the paper defines
    ///   `Y_dr ⇔ P_dr ≠ Solo ∧ ¬C_dr` — keeping tracking data past a close
    ///   only matters when children may consult it), or
    /// * `Y_dr` and `C_dr` are both set (children are destroyed on close,
    ///   so there is nobody left to consult retained tracking data... the
    ///   combination indicates a specification bug).
    pub fn validate(&self) -> Result<()> {
        if self.close_removes_tracking && !self.parent.has_parent() {
            return Err(Error::InconsistentModel(
                "desc_close_remove requires desc_has_parent != Solo".into(),
            ));
        }
        if self.close_removes_tracking && self.close_children {
            return Err(Error::InconsistentModel(
                "desc_close_remove conflicts with desc_close_children".into(),
            ));
        }
        if self.close_children && !self.parent.has_parent() {
            return Err(Error::InconsistentModel(
                "desc_close_children requires desc_has_parent != Solo".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`DescriptorResourceModel`] mirroring the IDL's
/// `service_global_info` block.
///
/// ```
/// use superglue_sm::model::{DescriptorResourceModelBuilder, ParentPolicy};
///
/// let event_model = DescriptorResourceModelBuilder::new()
///     .blocks(true)
///     .global(true)
///     .parent(ParentPolicy::Parent)
///     .close_removes_tracking(true)
///     .descriptor_has_data(true)
///     .build()?;
/// assert!(event_model.global && event_model.parent.has_parent());
/// # Ok::<(), superglue_sm::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DescriptorResourceModelBuilder {
    model: DescriptorResourceModel,
}

impl DescriptorResourceModelBuilder {
    /// Start from the all-false model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `B_r` (`desc_block`).
    #[must_use]
    pub fn blocks(mut self, v: bool) -> Self {
        self.model.blocks = v;
        self
    }

    /// Set `D_r` (`resc_has_data`).
    #[must_use]
    pub fn resource_has_data(mut self, v: bool) -> Self {
        self.model.resource_has_data = v;
        self
    }

    /// Set `G_dr` (`desc_is_global`).
    #[must_use]
    pub fn global(mut self, v: bool) -> Self {
        self.model.global = v;
        self
    }

    /// Set `P_dr` (`desc_has_parent`).
    #[must_use]
    pub fn parent(mut self, v: ParentPolicy) -> Self {
        self.model.parent = v;
        self
    }

    /// Set `C_dr` (`desc_close_children`).
    #[must_use]
    pub fn close_children(mut self, v: bool) -> Self {
        self.model.close_children = v;
        self
    }

    /// Set `Y_dr` (`desc_close_remove`).
    #[must_use]
    pub fn close_removes_tracking(mut self, v: bool) -> Self {
        self.model.close_removes_tracking = v;
        self
    }

    /// Set `D_dr` (`desc_has_data`).
    #[must_use]
    pub fn descriptor_has_data(mut self, v: bool) -> Self {
        self.model.descriptor_has_data = v;
        self
    }

    /// Validate and return the model.
    ///
    /// # Errors
    ///
    /// See [`DescriptorResourceModel::validate`].
    pub fn build(self) -> Result<DescriptorResourceModel> {
        self.model.validate()?;
        Ok(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_remove_without_parent_is_inconsistent() {
        let err = DescriptorResourceModelBuilder::new()
            .close_removes_tracking(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InconsistentModel(_)));
    }

    #[test]
    fn close_remove_with_close_children_is_inconsistent() {
        let err = DescriptorResourceModelBuilder::new()
            .parent(ParentPolicy::Parent)
            .close_children(true)
            .close_removes_tracking(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InconsistentModel(_)));
    }

    #[test]
    fn close_children_without_parent_is_inconsistent() {
        let err = DescriptorResourceModelBuilder::new()
            .close_children(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InconsistentModel(_)));
    }

    #[test]
    fn parent_policy_display_matches_idl_surface() {
        assert_eq!(ParentPolicy::Solo.to_string(), "Solo");
        assert_eq!(ParentPolicy::Parent.to_string(), "Parent");
        assert_eq!(ParentPolicy::XcParent.to_string(), "XCParent");
    }

    #[test]
    fn parent_policy_predicates() {
        assert!(!ParentPolicy::Solo.has_parent());
        assert!(ParentPolicy::Parent.has_parent());
        assert!(ParentPolicy::XcParent.has_parent());
        assert!(!ParentPolicy::Parent.crosses_components());
        assert!(ParentPolicy::XcParent.crosses_components());
    }
}

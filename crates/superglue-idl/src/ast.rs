//! Abstract syntax tree for SuperGlue IDL files.

use std::fmt;

use superglue_sm::ParentPolicy;

use crate::Span;

/// A parsed IDL file: global info, state-machine declarations, and
/// annotated function prototypes, in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdlFile {
    /// Key/value pairs of the `service_global_info` block (empty when the
    /// block is absent — every property then defaults to false/`Solo`).
    pub global_info: Vec<(String, GlobalValue)>,
    /// `sm_*` declarations in source order.
    pub sm_decls: Vec<SmDecl>,
    /// Source locations of the `sm_*` declarations, index-aligned with
    /// [`IdlFile::sm_decls`] (the span of each declaration's keyword).
    pub sm_spans: Vec<Span>,
    /// Function prototypes in source order.
    pub functions: Vec<FnDecl>,
}

/// Value of a `service_global_info` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalValue {
    /// `true` / `false`.
    Bool(bool),
    /// `Solo` / `Parent` / `XCParent` (case-insensitive in the surface
    /// syntax).
    Policy(ParentPolicy),
}

impl fmt::Display for GlobalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalValue::Bool(b) => write!(f, "{b}"),
            GlobalValue::Policy(p) => write!(f, "{p}"),
        }
    }
}

/// A state-machine declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmDecl {
    /// `sm_transition(f, g)` — `g` may follow `f`.
    Transition(String, String),
    /// `sm_creation(f)` — `f ∈ I^create`.
    Creation(String),
    /// `sm_terminal(f)` — `f ∈ I^terminate`.
    Terminal(String),
    /// `sm_block(f)` — `f ∈ I^block`.
    Block(String),
    /// `sm_wakeup(f)` — `f ∈ I^wakeup`.
    Wakeup(String),
    /// `sm_recover_via(f, g)` — when recovering a descriptor whose
    /// expected state is `After(f)`, rebuild to `After(g)` instead. Used
    /// for data-transfer functions (reads/writes, waits) whose replay
    /// would re-perform I/O or block, where the paper's C³ stubs
    /// hand-coded an equivalent substitution.
    RecoverVia(String, String),
    /// `sm_recover_block(f, g)` — when a recovery walk must replay the
    /// blocking function `f` on behalf of a *different* thread (the
    /// recorded state owner), invoke the recovery entry point `g`
    /// instead, passing the owner thread id. Locks need this: a taken
    /// lock must be restored to its recorded holder, not usurped by the
    /// recovering thread.
    RecoverBlock(String, String),
    /// `sm_elide(f)` — request the tracking-elision fast path for `f`:
    /// the stub compiler may drop `f`'s per-call descriptor bookkeeping
    /// (σ-table write, metadata harvest, last-argument store) *iff* the
    /// certifier proves the elision unobservable (sglint SG060–SG06x).
    /// Requesting an unprovable elision is a lint error, never a silent
    /// downgrade.
    Elide(String),
    /// `sm_channel(f)` — this interface's descriptors are channel
    /// endpoints opened by the creation function `f`; message-observing
    /// functions follow peek-before-commit semantics, so recovery must
    /// re-seat a rebooted endpoint at its last *committed* cursor rather
    /// than replaying observations.
    Channel(String),
    /// `sm_cursor(f)` — `f` is the channel's cursor-commit function: its
    /// tracked return value is the committed cursor position, harvested
    /// into descriptor metadata on every commit and passed to the
    /// restore upcall (CR0 committed-cursor replay).
    Cursor(String),
}

/// A C type as written: one or more identifier words plus pointer depth
/// (e.g. `unsigned long`, `char *`, `componentid_t`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CType {
    /// The identifier words, in order.
    pub words: Vec<String>,
    /// Number of `*` declarators.
    pub pointers: u8,
}

impl CType {
    /// Construct from words and pointer depth.
    #[must_use]
    pub fn new(words: Vec<String>, pointers: u8) -> Self {
        Self { words, pointers }
    }

    /// Shorthand for a single-word non-pointer type.
    #[must_use]
    pub fn simple(word: &str) -> Self {
        Self {
            words: vec![word.to_owned()],
            pointers: 0,
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.words.join(" "))?;
        for _ in 0..self.pointers {
            write!(f, " *")?;
        }
        Ok(())
    }
}

/// Tracking annotation attached to a parameter (Table I, "descriptor
/// state tracking" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamAnnot {
    /// Unannotated parameter — passed through, not tracked.
    None,
    /// `desc_data(type name)` — track this argument in the descriptor's
    /// metadata.
    DescData,
    /// `desc(type name)` — this argument *is* the descriptor id (lookup
    /// key).
    Desc,
    /// `parent_desc(type name)` — this argument names the parent
    /// descriptor.
    ParentDesc,
    /// `desc_data(parent_desc(type name))` — tracked metadata that is
    /// also the parent descriptor id (Fig 3's `parent_evtid`).
    DescDataParent,
}

impl ParamAnnot {
    /// Whether this annotation marks the parameter as the parent
    /// descriptor.
    #[must_use]
    pub fn is_parent(self) -> bool {
        matches!(self, ParamAnnot::ParentDesc | ParamAnnot::DescDataParent)
    }

    /// Whether the argument value is stored into descriptor metadata.
    #[must_use]
    pub fn is_tracked(self) -> bool {
        matches!(self, ParamAnnot::DescData | ParamAnnot::DescDataParent)
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Declared C type.
    pub ty: CType,
    /// Parameter name.
    pub name: String,
    /// Tracking annotation.
    pub annot: ParamAnnot,
    /// Source location of the parameter (its first token).
    pub span: Span,
}

/// How a `desc_data_retval`-style annotation treats the return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetvalMode {
    /// `desc_data_retval(type, name)` — store the return value under
    /// `name` (on a creation function, the value is also the new
    /// descriptor's id).
    Set,
    /// `desc_data_retval_accum(type, name)` — add the return value (or
    /// the byte length of a buffer return) to the metadata under `name`;
    /// how read/write offsets are derived from return values (§II-C).
    Accum,
}

/// A function prototype with its annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDecl {
    /// Declared return type; `None` when omitted (Fig 3's `evt_split`
    /// style, where `desc_data_retval` supplies the type).
    pub ret: Option<CType>,
    /// `desc_data_retval[_accum](type, name)` annotation: how the return
    /// value is tracked.
    pub retval: Option<(CType, String, RetvalMode)>,
    /// Function name.
    pub name: String,
    /// Source location of the function name token.
    pub span: Span,
    /// Parameters in order.
    pub params: Vec<Param>,
}

impl FnDecl {
    /// The parameter annotated as the descriptor lookup key, if any.
    #[must_use]
    pub fn desc_param(&self) -> Option<&Param> {
        self.params.iter().find(|p| p.annot == ParamAnnot::Desc)
    }

    /// The parameter annotated as the parent descriptor, if any.
    #[must_use]
    pub fn parent_param(&self) -> Option<&Param> {
        self.params.iter().find(|p| p.annot.is_parent())
    }

    /// All parameters whose values are tracked as descriptor metadata.
    pub fn tracked_params(&self) -> impl Iterator<Item = &Param> {
        self.params.iter().filter(|p| p.annot.is_tracked())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctype_display() {
        assert_eq!(CType::simple("long").to_string(), "long");
        assert_eq!(
            CType::new(vec!["unsigned".into(), "long".into()], 0).to_string(),
            "unsigned long"
        );
        assert_eq!(CType::new(vec!["char".into()], 2).to_string(), "char * *");
    }

    #[test]
    fn annot_predicates() {
        assert!(ParamAnnot::ParentDesc.is_parent());
        assert!(ParamAnnot::DescDataParent.is_parent());
        assert!(!ParamAnnot::Desc.is_parent());
        assert!(ParamAnnot::DescData.is_tracked());
        assert!(ParamAnnot::DescDataParent.is_tracked());
        assert!(!ParamAnnot::None.is_tracked());
    }

    #[test]
    fn fn_decl_param_queries() {
        let f = FnDecl {
            ret: Some(CType::simple("int")),
            retval: None,
            name: "evt_wait".into(),
            span: Span::default(),
            params: vec![
                Param {
                    ty: CType::simple("componentid_t"),
                    name: "compid".into(),
                    annot: ParamAnnot::None,
                    span: Span::default(),
                },
                Param {
                    ty: CType::simple("long"),
                    name: "evtid".into(),
                    annot: ParamAnnot::Desc,
                    span: Span::default(),
                },
                Param {
                    ty: CType::simple("long"),
                    name: "parent".into(),
                    annot: ParamAnnot::DescDataParent,
                    span: Span::default(),
                },
            ],
        };
        assert_eq!(f.desc_param().unwrap().name, "evtid");
        assert_eq!(f.parent_param().unwrap().name, "parent");
        assert_eq!(f.tracked_params().count(), 1);
    }

    #[test]
    fn global_value_display() {
        assert_eq!(GlobalValue::Bool(true).to_string(), "true");
        assert_eq!(
            GlobalValue::Policy(ParentPolicy::XcParent).to_string(),
            "XCParent"
        );
    }
}

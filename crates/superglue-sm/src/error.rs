use std::fmt;

use crate::machine::{FnId, State};

/// Errors produced while building or exercising descriptor state machines
/// and descriptor-resource models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A function id referenced a function not registered with the builder.
    UnknownFunction(FnId),
    /// The state machine has no creation function, so no descriptor can
    /// ever enter the machine.
    NoCreationFunction,
    /// A transition was declared twice with conflicting targets.
    DuplicateTransition { from: State, via: FnId },
    /// The requested state is unreachable from the initial state, so no
    /// recovery walk exists.
    Unreachable(State),
    /// An interface function was invoked on a descriptor whose current
    /// state has no transition for it. SuperGlue treats this as fault
    /// detection (§III-B: "formalizing valid transitions enables fault
    /// detection if invalid branches are attempted").
    InvalidTransition { state: State, via: FnId },
    /// The descriptor-resource model is internally inconsistent.
    InconsistentModel(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownFunction(id) => write!(f, "unknown interface function {id:?}"),
            Error::NoCreationFunction => {
                write!(f, "state machine has no creation function")
            }
            Error::DuplicateTransition { from, via } => {
                write!(f, "conflicting transition from {from:?} via {via:?}")
            }
            Error::Unreachable(s) => write!(f, "state {s:?} unreachable from the initial state"),
            Error::InvalidTransition { state, via } => {
                write!(f, "invalid transition from {state:?} via {via:?}")
            }
            Error::InconsistentModel(why) => {
                write!(f, "inconsistent descriptor-resource model: {why}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            Error::UnknownFunction(FnId(3)),
            Error::NoCreationFunction,
            Error::Unreachable(State::Init),
            Error::InconsistentModel("x".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}

//! Errors raised by graph validation, the fold pass and lowering.

use std::fmt;

/// Error type for the IR layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A node failed dtype/shape validation.
    Validation {
        /// Offending node index.
        node: usize,
        /// What was violated.
        what: &'static str,
    },
    /// The graph has no declared output node.
    NoOutput,
    /// Lowering met a node the fold pass should have eliminated.
    NotNormalized {
        /// Offending node index.
        node: usize,
        /// What remained unfused.
        what: &'static str,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Validation { node, what } => write!(f, "ir validation: node {node}: {what}"),
            Self::NoOutput => write!(f, "ir validation: graph has no output node"),
            Self::NotNormalized { node, what } => {
                write!(f, "ir lowering: node {node} not normalized: {what}")
            }
        }
    }
}

impl std::error::Error for IrError {}

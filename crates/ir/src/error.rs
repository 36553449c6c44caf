//! Errors raised by graph validation, the layout pass and lowering.

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
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Validation { node, what } => write!(f, "ir validation: node {node}: {what}"),
            Self::NoOutput => write!(f, "ir validation: graph has no output node"),
        }
    }
}

impl std::error::Error for IrError {}

//! Session errors.

use std::fmt;

use crate::Stage;

/// Why a pipeline stage could not be materialised.
///
/// The `Display` form is exactly the underlying stage error's message —
/// no session-specific prefix — so consumers that render errors (the
/// service's 422 bodies, the CLI) produce the same bytes whether a
/// computation ran standalone or through a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    stage: Stage,
    message: String,
}

impl SessionError {
    pub(crate) fn new(stage: Stage, message: impl fmt::Display) -> SessionError {
        SessionError {
            stage,
            message: message.to_string(),
        }
    }

    /// The stage that failed.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The underlying error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SessionError {}

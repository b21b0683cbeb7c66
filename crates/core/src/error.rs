//! Crate-wide error type.

use crate::wire::{get_str, put_str, Layout};
use crate::wire_enum;
use std::fmt;

/// Errors surfaced by the SNB crates.
#[derive(Debug)]
pub enum SnbError {
    /// A referenced entity does not exist (or is not yet visible to the
    /// reading snapshot).
    NotFound {
        /// Entity kind, e.g. `"person"`.
        entity: &'static str,
        /// Raw identifier that failed to resolve.
        id: u64,
    },
    /// An insert would violate a schema-level invariant (duplicate primary
    /// key, dangling foreign key, self-friendship, ...).
    Constraint(String),
    /// Configuration rejected (e.g. zero persons, inverted time window).
    Config(String),
    /// Underlying I/O failure (WAL, CSV serialization).
    Io(std::io::Error),
}

impl fmt::Display for SnbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnbError::NotFound { entity, id } => write!(f, "{entity} {id} not found"),
            SnbError::Constraint(msg) => write!(f, "constraint violation: {msg}"),
            SnbError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SnbError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnbError {
    fn from(e: std::io::Error) -> Self {
        SnbError::Io(e)
    }
}

wire_enum!(SnbError {
    0 => NotFound { entity as Entity, id },
    1 => Constraint(msg),
    2 => Config(msg),
    3 => Io(error as IoMessage),
});

/// A [`SnbError::NotFound`] entity on the wire: one of the names the store
/// and the router raise, any other travelling as the last, `"entity"`.
struct Entity;

const ENTITIES: [&str; 5] = ["person", "forum", "message", "message route", "entity"];

impl Layout<&'static str> for Entity {
    const MIN_BYTES: usize = 8;

    fn put(v: &&'static str, buf: &mut Vec<u8>) {
        put_str(buf, ENTITIES.iter().find(|&e| e == v).unwrap_or(&"entity"));
    }

    fn get(p: &mut &[u8]) -> Option<&'static str> {
        let name = get_str(p)?;
        ENTITIES.into_iter().find(|&e| e == name)
    }
}

/// An I/O error on the wire: its message, arriving as
/// [`std::io::Error::other`].
struct IoMessage;

impl Layout<std::io::Error> for IoMessage {
    const MIN_BYTES: usize = 8;

    fn put(v: &std::io::Error, buf: &mut Vec<u8>) {
        put_str(buf, &v.to_string());
    }

    fn get(p: &mut &[u8]) -> Option<std::io::Error> {
        get_str(p).map(std::io::Error::other)
    }
}

/// Convenience alias used throughout the workspace.
pub type SnbResult<T> = Result<T, SnbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SnbError::NotFound { entity: "person", id: 5 };
        assert_eq!(e.to_string(), "person 5 not found");
        let e = SnbError::Constraint("duplicate knows edge".into());
        assert!(e.to_string().contains("duplicate knows edge"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        use std::error::Error;
        let io = std::io::Error::other("disk gone");
        let e: SnbError = io.into();
        assert!(e.source().is_some());
    }
}

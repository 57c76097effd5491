//! Error type for runtime operations.

use crate::ids::{ObjectId, ThreadId};

/// Errors produced by [`Runtime`](crate::Runtime) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The heap could not satisfy an allocation even after garbage collection.
    HeapExhausted {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes still free after collection.
        available: u64,
    },
    /// An operation referenced a thread that was never spawned or has finished.
    UnknownThread(ThreadId),
    /// An operation referenced an object that does not exist (never allocated or already
    /// reclaimed by the garbage collector).
    UnknownObject(ObjectId),
    /// A field or element access was outside the object's bounds.
    OutOfBounds {
        /// The object being accessed.
        object: ObjectId,
        /// Byte offset of the access.
        offset: u64,
        /// Size of the object in bytes.
        size: u64,
    },
    /// A frame operation was attempted on an empty call stack.
    EmptyCallStack(ThreadId),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::HeapExhausted { requested, available } => write!(
                f,
                "heap exhausted: requested {requested} bytes but only {available} are free after GC"
            ),
            RuntimeError::UnknownThread(t) => write!(f, "unknown or finished thread {t}"),
            RuntimeError::UnknownObject(o) => write!(f, "unknown or reclaimed object {o}"),
            RuntimeError::OutOfBounds { object, offset, size } => {
                write!(f, "access at offset {offset} is out of bounds for {object} of size {size}")
            }
            RuntimeError::EmptyCallStack(t) => write!(f, "call stack of {t} is empty"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = RuntimeError::HeapExhausted { requested: 128, available: 64 };
        assert!(e.to_string().contains("128"));
        assert!(e.to_string().starts_with("heap exhausted"));
        let e = RuntimeError::OutOfBounds { object: ObjectId(1), offset: 100, size: 64 };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<RuntimeError>();
    }
}

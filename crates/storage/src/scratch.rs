//! Unique scratch directories for tests and benchmarks.
//!
//! Tests of one binary run as parallel threads of one process, so a path
//! derived from the process id and a fixed tag is shared by every test
//! that uses the tag. [`TempDir`] adds a process-wide counter, so every
//! call gets its own directory, and removes the directory when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir, unique per call and removed
/// (with everything in it) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<temp>/mmdb-<tag>-<pid>-<n>`, where `n` counts calls in this
    /// process.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("mmdb-{tag}-{}-{n}", std::process::id()));
        // A leftover from an earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_gets_its_own_directory_removed_on_drop() {
        let a = TempDir::new("scratch-selftest");
        let b = TempDir::new("scratch-selftest");
        assert_ne!(a.path(), b.path());
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }
}

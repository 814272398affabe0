//! The dataset registry: named hypergraphs loaded once, queried many
//! times.
//!
//! Datasets enter the registry at startup (CLI arguments) or at runtime
//! (`POST /datasets`), either from an edge-list file or from a generator
//! profile. They are immutable once loaded and shared behind `Arc`, so
//! long-running artifact computations never block the registry.

use hyperline_gen::Profile;
use hyperline_hypergraph::{io, Hypergraph};
use hyperline_util::FxHashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Where a registered dataset came from (reported by `GET /datasets`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSource {
    /// Loaded from an edge-list file at this path.
    File(String),
    /// Generated from a named profile with this seed.
    Profile {
        /// Profile name as the paper spells it.
        profile: String,
        /// Generator seed.
        seed: u64,
    },
    /// Inserted programmatically (tests, embedding).
    Inline,
}

/// A registered dataset.
#[derive(Clone)]
pub struct Dataset {
    /// The hypergraph itself.
    pub hypergraph: Arc<Hypergraph>,
    /// Provenance for listings.
    pub source: DatasetSource,
}

/// A concurrent name → dataset map.
#[derive(Default)]
pub struct DatasetRegistry {
    inner: RwLock<FxHashMap<String, Dataset>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `h` under `name`, replacing any previous dataset of that
    /// name. Returns whether a dataset was replaced.
    pub fn insert(&self, name: &str, h: Hypergraph, source: DatasetSource) -> bool {
        let mut inner = self.inner.write().unwrap();
        inner
            .insert(
                name.to_string(),
                Dataset {
                    hypergraph: Arc::new(h),
                    source,
                },
            )
            .is_some()
    }

    /// Loads an edge-list file and registers it. The dataset name defaults
    /// to the file stem (`data/dblp.hgr` → `dblp`) unless `name` is given.
    pub fn load_file(&self, path: &str, name: Option<&str>) -> Result<String, String> {
        let stem = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path);
        let name = name.unwrap_or(stem).to_string();
        validate_name(&name)?;
        if hyperline_util::failpoint::check("dataset.read").is_some() {
            return Err(format!(
                "cannot load {path}: {}",
                hyperline_util::failpoint::io_error("dataset.read")
            ));
        }
        // Parse errors deliberately omit the offending token: this error
        // can travel to HTTP clients, and echoing tokens would leak the
        // content of whatever file was pointed at.
        let h = io::load_edge_list(path).map_err(|e| match e {
            io::ParseError::Io(io_err) => format!("cannot load {path}: {io_err}"),
            io::ParseError::BadToken { line, .. } => {
                format!("cannot load {path}: line {line} is not a valid edge list")
            }
            io::ParseError::BadPair { line } => {
                format!("cannot load {path}: line {line} is not a valid edge list")
            }
            io::ParseError::IdSpaceTooLarge { max_id, .. } => {
                format!(
                    "cannot load {path}: ID space too large (max ID {max_id}); remap IDs densely"
                )
            }
            // IDs are numeric, not file content: safe to echo, and the
            // side/ID/space triple is the actionable part.
            io::ParseError::OutOfRange(e) => format!("cannot load {path}: {e}"),
        })?;
        self.insert(&name, h, DatasetSource::File(path.to_string()));
        Ok(name)
    }

    /// Generates a named profile and registers it (name defaults to the
    /// profile's own name).
    pub fn load_profile(
        &self,
        profile_name: &str,
        seed: u64,
        name: Option<&str>,
    ) -> Result<String, String> {
        let profile = Profile::from_name(profile_name)
            .ok_or_else(|| format!("unknown profile {profile_name:?}"))?;
        let name = name.unwrap_or(profile.name()).to_string();
        validate_name(&name)?;
        let h = profile.generate(seed);
        self.insert(
            &name,
            h,
            DatasetSource::Profile {
                profile: profile.name().to_string(),
                seed,
            },
        );
        Ok(name)
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<Dataset> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// Registered names with their datasets, sorted by name.
    pub fn list(&self) -> Vec<(String, Dataset)> {
        let inner = self.inner.read().unwrap();
        let mut out: Vec<(String, Dataset)> =
            inner.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dataset names travel in URL paths, so keep them path- and
/// query-safe: non-empty ASCII alphanumerics plus `-`, `_`, `.`.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 128 {
        return Err("dataset name must be 1..=128 characters".to_string());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err(format!(
            "dataset name {name:?} may only contain ASCII alphanumerics, '-', '_', '.'"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_list() {
        let reg = DatasetRegistry::new();
        assert!(reg.is_empty());
        assert!(!reg.insert("paper", Hypergraph::paper_example(), DatasetSource::Inline));
        assert_eq!(reg.len(), 1);
        let d = reg.get("paper").unwrap();
        assert_eq!(d.hypergraph.num_edges(), 4);
        assert!(reg.get("missing").is_none());
        // Replacing reports the overwrite.
        assert!(reg.insert("paper", Hypergraph::paper_example(), DatasetSource::Inline));
        assert_eq!(reg.list().len(), 1);
    }

    #[test]
    fn profile_loading() {
        let reg = DatasetRegistry::new();
        let name = reg.load_profile("lesMis", 42, None).unwrap();
        assert_eq!(name, "lesMis");
        assert_eq!(reg.get("lesMis").unwrap().hypergraph.num_edges(), 400);
        assert!(matches!(
            reg.get("lesMis").unwrap().source,
            DatasetSource::Profile { seed: 42, .. }
        ));
        assert!(reg.load_profile("not-a-profile", 1, None).is_err());
        // Custom name + case-insensitive profile lookup.
        let name = reg.load_profile("LESMIS", 7, Some("tiny")).unwrap();
        assert_eq!(name, "tiny");
    }

    #[test]
    fn file_loading_and_stem_naming() {
        let dir =
            std::env::temp_dir().join(format!("hyperline-registry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("example.hgr");
        io::save_edge_list(&Hypergraph::paper_example(), &path).unwrap();
        let reg = DatasetRegistry::new();
        let name = reg.load_file(path.to_str().unwrap(), None).unwrap();
        assert_eq!(name, "example");
        assert_eq!(reg.get("example").unwrap().hypergraph.num_vertices(), 6);
        assert!(reg.load_file("/does/not/exist.hgr", None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn name_validation() {
        let reg = DatasetRegistry::new();
        for bad in ["", "has space", "sla/sh", "qu?ery", &"x".repeat(200)] {
            assert!(
                reg.load_profile("lesMis", 1, Some(bad)).is_err(),
                "accepted bad name {bad:?}"
            );
        }
        assert!(reg.load_profile("lesMis", 1, Some("ok-name_1.0")).is_ok());
    }
}

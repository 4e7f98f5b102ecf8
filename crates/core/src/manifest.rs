//! The corpus manifest: a committed list of cache keys worth keeping warm.
//!
//! A manifest names the compilation cells — (circuit fingerprint, compiler
//! fingerprint) pairs, each with a human-readable label — that a service
//! should preload into its in-memory cache tier at start, so the first
//! client wave hits memory instead of paying disk rehydration per request.
//! `zac-cache`'s `CompileCache::warm_from_manifest` consumes one; `zac-serve`
//! loads the file named by `ZAC_WARM_MANIFEST`.
//!
//! Fingerprints are serialized as 16-digit hex strings for the same reason
//! the cache disk envelope uses them: the stand-in JSON number model is
//! `f64`-backed and cannot represent every `u64` exactly, and a silently
//! rounded fingerprint would warm (or miss) the wrong entry.

use serde::{DeError, Deserialize, JsonWriter, ObjectView, Serialize, Value};
use std::io;
use std::path::Path;

/// Manifest format version; files with any other version are rejected.
pub const CORPUS_MANIFEST_VERSION: u64 = 1;

/// One cell to keep warm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Human-readable label (circuit @ compiler), for logs only — identity
    /// lives in the fingerprints.
    pub name: String,
    /// `StagedCircuit::fingerprint()` of the input.
    pub circuit: u64,
    /// `Compiler::fingerprint()` of the compiler.
    pub compiler: u64,
}

impl Serialize for ManifestEntry {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("name", &self.name);
        o.field("circuit_fp", &format!("{:016x}", self.circuit));
        o.field("compiler_fp", &format!("{:016x}", self.compiler));
        o.end();
    }
}

impl Deserialize for ManifestEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        let hex = |field: &str| -> Result<u64, DeError> {
            let s: String = obj.field(field)?;
            u64::from_str_radix(&s, 16)
                .map_err(|_| DeError::msg(format!("manifest field `{field}` is not a hex u64")))
        };
        Ok(Self {
            name: obj.field("name")?,
            circuit: hex("circuit_fp")?,
            compiler: hex("compiler_fp")?,
        })
    }
}

/// A versioned, committed list of [`ManifestEntry`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusManifest {
    /// The cells to warm, in warming order.
    pub entries: Vec<ManifestEntry>,
}

impl Serialize for CorpusManifest {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("version", &CORPUS_MANIFEST_VERSION).field("entries", &self.entries);
        o.end();
    }
}

impl Deserialize for CorpusManifest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        let version: u64 = obj.field("version")?;
        if version != CORPUS_MANIFEST_VERSION {
            return Err(DeError::msg(format!(
                "unsupported corpus manifest version {version} (expected {CORPUS_MANIFEST_VERSION})"
            )));
        }
        Ok(Self { entries: obj.field("entries")? })
    }
}

impl CorpusManifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cell.
    pub fn push(&mut self, name: impl Into<String>, circuit: u64, compiler: u64) {
        self.entries.push(ManifestEntry { name: name.into(), circuit, compiler });
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the manifest lists no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to the versioned JSON document.
    ///
    /// # Errors
    ///
    /// [`serde_json::Error`] — structurally impossible for manifests (no
    /// floats), kept for interface symmetry.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// [`serde_json::Error`] on malformed JSON, a version mismatch, or a
    /// non-hex fingerprint.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }

    /// Reads a manifest from `path`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on read failure or an unparseable document.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusManifest {
        let mut m = CorpusManifest::new();
        m.push("ghz_10 @ Zoned-ZAC", 0xdead_beef_0123_4567, 0xfeed_face_89ab_cdef);
        m.push("qft_8 @ SC-Heron", u64::MAX, 1);
        m
    }

    #[test]
    fn roundtrips_including_extreme_fingerprints() {
        let m = sample();
        let back = CorpusManifest::from_json(&m.to_json().unwrap()).unwrap();
        assert_eq!(back, m, "u64::MAX survives the hex encoding exactly");
    }

    #[test]
    fn golden_shape() {
        let json = sample().to_json().unwrap();
        assert!(json.starts_with("{\"version\":1,\"entries\":[{\"name\":\"ghz_10 @ Zoned-ZAC\",\"circuit_fp\":\"deadbeef01234567\",\"compiler_fp\":\"feedface89abcdef\"}"), "{json}");
    }

    #[test]
    fn rejects_future_versions_and_bad_hex() {
        let json = sample().to_json().unwrap();
        let future = json.replacen("\"version\":1", "\"version\":9", 1);
        assert!(CorpusManifest::from_json(&future).is_err());
        let bad = json.replacen("deadbeef01234567", "not-hex-not-a-fp!", 1);
        assert!(CorpusManifest::from_json(&bad).is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let path = std::env::temp_dir().join(format!("zac-manifest-{}.json", std::process::id()));
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(CorpusManifest::load(&path).unwrap(), m);
        std::fs::remove_file(&path).ok();
        assert!(CorpusManifest::load(&path).is_err(), "missing file is an error");
    }
}

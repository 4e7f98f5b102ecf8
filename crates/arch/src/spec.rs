//! The paper's JSON architecture-specification format (Fig. 20).
//!
//! The ZAC artifact describes architectures in a JSON document with zone,
//! SLM and AOD entries plus hardware operation parameters. This module parses
//! and emits that exact format (including the artifact's misspelled keys
//! `site_seperation` and `dimenstion`, which are accepted as aliases).

use crate::architecture::{ArchError, Architecture};
use crate::geometry::Point;
use crate::model::{AodArray, SlmArray, Zone};
use std::fmt;

/// Operation durations (µs) as carried in the spec file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecDurations {
    /// Rydberg (CZ) gate duration.
    pub rydberg: f64,
    /// 1Q gate duration.
    pub one_q_gate: f64,
    /// Atom transfer (pickup or drop-off) duration.
    pub atom_transfer: f64,
}

/// Operation fidelities as carried in the spec file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFidelities {
    /// 2Q (CZ) gate fidelity.
    pub two_qubit_gate: f64,
    /// 1Q gate fidelity.
    pub single_qubit_gate: f64,
    /// Atom transfer fidelity.
    pub atom_transfer: f64,
}

/// Qubit coherence spec (`T` is T2, in µs, matching the artifact's 1.5e6).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecQubit {
    /// Coherence time T2 in µs.
    pub t2_us: f64,
}

/// A number that may appear as a scalar or an `[x, y]` pair in the spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarOrPair {
    /// Single value used for both axes.
    Scalar(f64),
    /// Distinct x/y values.
    Pair(f64, f64),
}

impl ScalarOrPair {
    /// The `(x, y)` pair this value denotes.
    pub fn as_pair(self) -> (f64, f64) {
        match self {
            Self::Scalar(v) => (v, v),
            Self::Pair(x, y) => (x, y),
        }
    }
}

/// SLM entry in the spec format.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSlm {
    /// Global SLM id.
    pub id: usize,
    /// Trap separation; the artifact spells the key `site_seperation`.
    pub site_separation: ScalarOrPair,
    /// Number of rows.
    pub r: usize,
    /// Number of columns.
    pub c: usize,
    /// Bottom-left trap position.
    pub location: (f64, f64),
}

/// Zone entry in the spec format.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecZone {
    /// Zone id.
    pub zone_id: usize,
    /// SLM arrays inside the zone.
    pub slms: Vec<SpecSlm>,
    /// Bottom-left corner of the zone.
    pub offset: (f64, f64),
    /// Width/height; the artifact sometimes spells the key `dimenstion`.
    pub dimension: (f64, f64),
}

/// AOD entry in the spec format.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecAod {
    /// AOD id.
    pub id: usize,
    /// Minimum row/column separation.
    pub site_separation: ScalarOrPair,
    /// Row capacity.
    pub r: usize,
    /// Column capacity.
    pub c: usize,
}

/// The full architecture specification document (paper Fig. 20).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Architecture name.
    pub name: String,
    /// Operation durations, if present.
    pub operation_duration: Option<SpecDurations>,
    /// Operation fidelities, if present.
    pub operation_fidelity: Option<SpecFidelities>,
    /// Qubit coherence spec, if present.
    pub qubit_spec: Option<SpecQubit>,
    /// Storage zones.
    pub storage_zones: Vec<SpecZone>,
    /// Entanglement zones.
    pub entanglement_zones: Vec<SpecZone>,
    /// Readout zones.
    pub readout_zones: Vec<SpecZone>,
    /// AOD arrays.
    pub aods: Vec<SpecAod>,
    /// Overall architecture extent `[[x0,y0],[x1,y1]]`, informational.
    pub arch_range: Option<Vec<(f64, f64)>>,
    /// Rydberg-laser coverage ranges, informational.
    pub rydberg_range: Option<Vec<Vec<(f64, f64)>>>,
}

/// Error parsing or validating a spec document.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON was malformed.
    Json(serde_json::Error),
    /// The described architecture failed validation.
    Arch(ArchError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "malformed architecture spec: {e}"),
            Self::Arch(e) => write!(f, "invalid architecture: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Json(e) => Some(e),
            Self::Arch(e) => Some(e),
        }
    }
}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

impl From<ArchError> for SpecError {
    fn from(e: ArchError) -> Self {
        Self::Arch(e)
    }
}

fn zone_from_spec(spec: &SpecZone) -> Zone {
    let slms = spec
        .slms
        .iter()
        .map(|s| {
            SlmArray::new(
                s.id,
                s.site_separation.as_pair(),
                s.c,
                s.r,
                Point::new(s.location.0, s.location.1),
            )
        })
        .collect();
    Zone::new(spec.zone_id, Point::new(spec.offset.0, spec.offset.1), spec.dimension, slms)
}

fn zone_to_spec(zone: &Zone) -> SpecZone {
    SpecZone {
        zone_id: zone.zone_id,
        slms: zone
            .slms
            .iter()
            .map(|s| SpecSlm {
                id: s.slm_id,
                site_separation: ScalarOrPair::Pair(s.sep.0, s.sep.1),
                r: s.num_row,
                c: s.num_col,
                location: (s.offset.x, s.offset.y),
            })
            .collect(),
        offset: (zone.offset.x, zone.offset.y),
        dimension: zone.dimension,
    }
}

impl ArchSpec {
    /// Parses a spec document from JSON.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serializes the spec document to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization cannot fail")
    }

    /// Builds the validated [`Architecture`] this spec describes.
    ///
    /// # Errors
    ///
    /// [`SpecError::Arch`] if the layout is inconsistent.
    pub fn build(&self) -> Result<Architecture, SpecError> {
        let aods = self
            .aods
            .iter()
            .map(|a| AodArray::new(a.id, a.site_separation.as_pair().0, a.c, a.r))
            .collect();
        Ok(Architecture::new(
            self.name.clone(),
            aods,
            self.storage_zones.iter().map(zone_from_spec).collect(),
            self.entanglement_zones.iter().map(zone_from_spec).collect(),
            self.readout_zones.iter().map(zone_from_spec).collect(),
        )?)
    }

    /// Builds a spec document from an [`Architecture`] (without hardware
    /// parameters; attach them with the public fields if needed).
    pub fn from_architecture(arch: &Architecture) -> Self {
        Self {
            name: arch.name().to_owned(),
            operation_duration: None,
            operation_fidelity: None,
            qubit_spec: None,
            storage_zones: arch.storage_zones().iter().map(zone_to_spec).collect(),
            entanglement_zones: arch.entanglement_zones().iter().map(zone_to_spec).collect(),
            readout_zones: arch.readout_zones().iter().map(zone_to_spec).collect(),
            aods: arch
                .aods()
                .iter()
                .map(|a| SpecAod {
                    id: a.aod_id,
                    site_separation: ScalarOrPair::Scalar(a.min_sep),
                    r: a.max_num_row,
                    c: a.max_num_col,
                })
                .collect(),
            arch_range: None,
            rydberg_range: None,
        }
    }
}

impl Architecture {
    /// Parses an architecture from the paper's JSON spec format (Fig. 20).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON or inconsistent layout.
    ///
    /// # Example
    ///
    /// ```
    /// use zac_arch::Architecture;
    /// let json = zac_arch::spec::ArchSpec::from_architecture(
    ///     &Architecture::reference()).to_json();
    /// let arch = Architecture::from_spec_json(&json)?;
    /// assert_eq!(arch.num_sites(), 140);
    /// # Ok::<(), zac_arch::spec::SpecError>(())
    /// ```
    pub fn from_spec_json(json: &str) -> Result<Self, SpecError> {
        ArchSpec::from_json(json)?.build()
    }

    /// Serializes this architecture in the paper's JSON spec format.
    pub fn to_spec_json(&self) -> String {
        ArchSpec::from_architecture(self).to_json()
    }
}

/// Hand-written JSON impls (the in-tree serde stand-in has no derive).
/// They encode the artifact's quirks explicitly: `1qGate` / `T` renames,
/// the misspelled `site_seperation` / `dimenstion` keys (accepted as
/// aliases, emitted in the artifact's spelling), defaulted zone lists, and
/// optional sections omitted when absent.
mod json {
    use super::*;
    use serde::{DeError, Deserialize, JsonWriter, ObjectView, Serialize, Value};

    serde::impl_serde_struct!(SpecDurations {
        rydberg,
        one_q_gate => "1qGate",
        atom_transfer,
    });

    serde::impl_serde_struct!(SpecFidelities { two_qubit_gate, single_qubit_gate, atom_transfer });

    serde::impl_serde_struct!(SpecQubit { t2_us => "T" });

    impl Serialize for ScalarOrPair {
        fn serialize(&self, w: &mut JsonWriter) {
            match *self {
                ScalarOrPair::Scalar(v) => v.serialize(w),
                ScalarOrPair::Pair(x, y) => (x, y).serialize(w),
            }
        }
    }

    impl Deserialize for ScalarOrPair {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            // Untagged: a bare number is a scalar, an [x, y] array a pair.
            if let Some(x) = v.as_f64() {
                return Ok(ScalarOrPair::Scalar(x));
            }
            let (x, y) = <(f64, f64)>::from_value(v)
                .map_err(|_| DeError::msg("expected number or [x, y] pair"))?;
            Ok(ScalarOrPair::Pair(x, y))
        }
    }

    impl Serialize for SpecSlm {
        fn serialize(&self, w: &mut JsonWriter) {
            let mut o = w.object();
            o.field("id", &self.id).field("site_seperation", &self.site_separation);
            o.field("r", &self.r).field("c", &self.c).field("location", &self.location);
            o.end();
        }
    }

    impl Deserialize for SpecSlm {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            Ok(Self {
                id: obj.field("id")?,
                site_separation: obj.field_alias("site_seperation", "site_separation")?,
                r: obj.field("r")?,
                c: obj.field("c")?,
                location: obj.field("location")?,
            })
        }
    }

    impl Serialize for SpecZone {
        fn serialize(&self, w: &mut JsonWriter) {
            let mut o = w.object();
            o.field("zone_id", &self.zone_id).field("slms", &self.slms);
            o.field("offset", &self.offset).field("dimension", &self.dimension);
            o.end();
        }
    }

    impl Deserialize for SpecZone {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            Ok(Self {
                zone_id: obj.field("zone_id")?,
                slms: obj.field_or_default("slms")?,
                offset: obj.field("offset")?,
                dimension: obj.field_alias("dimension", "dimenstion")?,
            })
        }
    }

    impl Serialize for SpecAod {
        fn serialize(&self, w: &mut JsonWriter) {
            let mut o = w.object();
            o.field("id", &self.id).field("site_seperation", &self.site_separation);
            o.field("r", &self.r).field("c", &self.c);
            o.end();
        }
    }

    impl Deserialize for SpecAod {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            Ok(Self {
                id: obj.field("id")?,
                site_separation: obj.field_alias("site_seperation", "site_separation")?,
                r: obj.field("r")?,
                c: obj.field("c")?,
            })
        }
    }

    impl Serialize for ArchSpec {
        fn serialize(&self, w: &mut JsonWriter) {
            let mut o = w.object();
            o.field("name", &self.name);
            if let Some(d) = &self.operation_duration {
                o.field("operation_duration", d);
            }
            if let Some(f) = &self.operation_fidelity {
                o.field("operation_fidelity", f);
            }
            if let Some(q) = &self.qubit_spec {
                o.field("qubit_spec", q);
            }
            o.field("storage_zones", &self.storage_zones);
            o.field("entanglement_zones", &self.entanglement_zones);
            o.field("readout_zones", &self.readout_zones);
            o.field("aods", &self.aods);
            if let Some(r) = &self.arch_range {
                o.field("arch_range", r);
            }
            if let Some(r) = &self.rydberg_range {
                o.field("rydberg_range", r);
            }
            o.end();
        }
    }

    impl Deserialize for ArchSpec {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            Ok(Self {
                name: obj.field("name")?,
                operation_duration: obj.opt_field("operation_duration")?,
                operation_fidelity: obj.opt_field("operation_fidelity")?,
                qubit_spec: obj.opt_field("qubit_spec")?,
                storage_zones: obj.field_or_default("storage_zones")?,
                entanglement_zones: obj.field_or_default("entanglement_zones")?,
                readout_zones: obj.field_or_default("readout_zones")?,
                aods: obj.field("aods")?,
                arch_range: obj.opt_field("arch_range")?,
                rydberg_range: obj.opt_field("rydberg_range")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact document of paper Fig. 20 (with the artifact's typos).
    const PAPER_SPEC: &str = r#"{
      "name": "full_compute_store_architecture",
      "operation_duration": {"rydberg": 0.36, "1qGate": 52, "atom_transfer": 15},
      "operation_fidelity": {"two_qubit_gate": 0.995, "single_qubit_gate": 0.9997, "atom_transfer": 0.999},
      "qubit_spec": {"T": 1.5e6},
      "storage_zones": [{
        "zone_id": 0,
        "slms": [{"id": 0, "site_seperation": [3, 3], "r": 100, "c": 100, "location": [0, 0]}],
        "offset": [0, 0],
        "dimenstion": [300, 300]
      }],
      "entanglement_zones": [{
        "zone_id": 0,
        "slms": [
          {"id": 1, "site_seperation": [12, 10], "r": 7, "c": 20, "location": [35, 307]},
          {"id": 2, "site_seperation": [12, 10], "r": 7, "c": 20, "location": [37, 307]}
        ],
        "offset": [35, 307],
        "dimension": [240, 70]
      }],
      "aods": [{"id": 0, "site_seperation": 2, "r": 100, "c": 100}],
      "arch_range": [[0, 0], [297, 402]],
      "rydberg_range": [[[5, 305], [292, 402]]]
    }"#;

    #[test]
    fn parses_paper_fig20_spec() {
        let arch = Architecture::from_spec_json(PAPER_SPEC).unwrap();
        assert_eq!(arch.name(), "full_compute_store_architecture");
        assert_eq!(arch.num_sites(), 140);
        assert_eq!(arch.storage_capacity(), 10_000);
        assert_eq!(arch.aods().len(), 1);
        assert_eq!(arch.aods()[0].min_sep, 2.0);
    }

    #[test]
    fn paper_spec_matches_reference_preset() {
        let from_spec = Architecture::from_spec_json(PAPER_SPEC).unwrap();
        let reference = Architecture::reference();
        // Zones and AODs coincide; the preset adds a readout zone.
        assert_eq!(from_spec.storage_zones(), reference.storage_zones());
        assert_eq!(from_spec.entanglement_zones(), reference.entanglement_zones());
        assert_eq!(from_spec.aods(), reference.aods());
    }

    #[test]
    fn spec_carries_operation_parameters() {
        let spec = ArchSpec::from_json(PAPER_SPEC).unwrap();
        let dur = spec.operation_duration.unwrap();
        assert_eq!(dur.rydberg, 0.36);
        assert_eq!(dur.one_q_gate, 52.0);
        assert_eq!(dur.atom_transfer, 15.0);
        let fid = spec.operation_fidelity.unwrap();
        assert_eq!(fid.two_qubit_gate, 0.995);
        assert_eq!(spec.qubit_spec.unwrap().t2_us, 1.5e6);
    }

    #[test]
    fn roundtrip_through_spec_json() {
        for arch in [
            Architecture::reference(),
            Architecture::monolithic(10, 10),
            Architecture::arch2_two_zones(),
        ] {
            let json = arch.to_spec_json();
            let back = Architecture::from_spec_json(&json).unwrap();
            assert_eq!(arch, back);
        }
    }

    #[test]
    fn malformed_json_is_reported() {
        let err = Architecture::from_spec_json("{not json").unwrap_err();
        assert!(matches!(err, SpecError::Json(_)));
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn invalid_layout_is_reported() {
        // No AODs → validation error.
        let json = r#"{"name": "x", "aods": []}"#;
        let err = Architecture::from_spec_json(json).unwrap_err();
        assert!(matches!(err, SpecError::Arch(ArchError::NoAod)));
    }

    #[test]
    fn scalar_or_pair_forms() {
        assert_eq!(ScalarOrPair::Scalar(2.0).as_pair(), (2.0, 2.0));
        assert_eq!(ScalarOrPair::Pair(3.0, 4.0).as_pair(), (3.0, 4.0));
    }
}

//! ZAIR instruction types (paper Sec. IX, Fig. 17).

/// Locates qubit `qubit` at (`row`, `col`) of SLM array `slm_id` — the
/// paper's `qloc` 4-tuple `(q, a, r, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QubitLoc {
    /// Qubit id.
    pub qubit: usize,
    /// SLM array id.
    pub slm_id: usize,
    /// Trap row within the SLM.
    pub row: usize,
    /// Trap column within the SLM.
    pub col: usize,
}

impl QubitLoc {
    /// Creates a qloc.
    pub const fn new(qubit: usize, slm_id: usize, row: usize, col: usize) -> Self {
        Self { qubit, slm_id, row, col }
    }
}

/// One U3 application inside a `1qGate` instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct U3Application {
    /// θ parameter.
    pub theta: f64,
    /// φ parameter.
    pub phi: f64,
    /// λ parameter.
    pub lambda: f64,
    /// Where the target qubit sits.
    pub loc: QubitLoc,
}

/// Machine-level AOD instructions inside a rearrangement job (Fig. 17b).
#[derive(Debug, Clone, PartialEq)]
pub enum AodInst {
    /// Turn on AOD rows/columns at the given coordinates, picking up the
    /// atoms at the resulting intersections.
    Activate {
        /// Activated row ids.
        row_id: Vec<usize>,
        /// y coordinate of each activated row (µm).
        row_y: Vec<f64>,
        /// Activated column ids.
        col_id: Vec<usize>,
        /// x coordinate of each activated column (µm).
        col_x: Vec<f64>,
    },
    /// Turn off AOD rows/columns, dropping atoms into the SLM traps beneath.
    Deactivate {
        /// Deactivated row ids.
        row_id: Vec<usize>,
        /// Deactivated column ids.
        col_id: Vec<usize>,
    },
    /// Continuously move activated rows/columns.
    Move {
        /// Moved row ids.
        row_id: Vec<usize>,
        /// Starting y of each row.
        row_y_begin: Vec<f64>,
        /// Final y of each row.
        row_y_end: Vec<f64>,
        /// Moved column ids.
        col_id: Vec<usize>,
        /// Starting x of each column.
        col_x_begin: Vec<f64>,
        /// Final x of each column.
        col_x_end: Vec<f64>,
    },
}

impl AodInst {
    /// Whether this is a parking move (small shift during pickup) rather
    /// than a zone-crossing transport move.
    pub fn is_move(&self) -> bool {
        matches!(self, AodInst::Move { .. })
    }
}

/// A rearrangement job: one AOD picks up a set of qubits, transports them in
/// parallel, and drops them off (Fig. 17a).
#[derive(Debug, Clone, PartialEq)]
pub struct RearrangeJob {
    /// The AOD executing the job (set during scheduling).
    pub aod_id: usize,
    /// Starting qlocs, grouped by AOD row (outer = row, inner = columns).
    pub begin_locs: Vec<Vec<QubitLoc>>,
    /// Ending qlocs, same shape as `begin_locs`.
    pub end_locs: Vec<Vec<QubitLoc>>,
    /// Machine-level expansion.
    pub insts: Vec<AodInst>,
    /// Job start time (µs).
    pub begin_time: f64,
    /// Job end time (µs).
    pub end_time: f64,
    /// Duration of the pickup phase (µs).
    pub pick_duration: f64,
    /// Duration of the transport phase (µs).
    pub move_duration: f64,
    /// Duration of the drop-off phase (µs).
    pub drop_duration: f64,
}

impl RearrangeJob {
    /// Number of qubits moved by the job.
    pub fn num_qubits(&self) -> usize {
        self.begin_locs.iter().map(Vec::len).sum()
    }

    /// Flattened (begin, end) pairs.
    pub fn moves(&self) -> impl Iterator<Item = (&QubitLoc, &QubitLoc)> + '_ {
        self.begin_locs.iter().flatten().zip(self.end_locs.iter().flatten())
    }

    /// Absolute end time of the pickup phase.
    pub fn pick_end(&self) -> f64 {
        self.begin_time + self.pick_duration
    }

    /// Absolute end time of the transport phase.
    pub fn move_end(&self) -> f64 {
        self.begin_time + self.pick_duration + self.move_duration
    }
}

/// A ZAIR instruction (Fig. 17a).
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Initial qubit locations; must appear exactly once, first.
    Init {
        /// Initial location of every qubit.
        init_locs: Vec<QubitLoc>,
    },
    /// A group of U3 gates executed sequentially (one Raman laser).
    OneQGate {
        /// The gates, in execution order.
        gates: Vec<U3Application>,
        /// Start time (µs).
        begin_time: f64,
        /// End time (µs).
        end_time: f64,
    },
    /// A global Rydberg exposure of one entanglement zone: every complete
    /// site pair in the zone performs a CZ; lone qubits suffer excitation.
    Rydberg {
        /// Which entanglement zone is exposed.
        zone_id: usize,
        /// Start time (µs).
        begin_time: f64,
        /// End time (µs).
        end_time: f64,
    },
    /// A rearrangement job.
    RearrangeJob(RearrangeJob),
}

impl Instruction {
    /// The instruction's start time (µs); `Init` is 0.
    pub fn begin_time(&self) -> f64 {
        match self {
            Instruction::Init { .. } => 0.0,
            Instruction::OneQGate { begin_time, .. } | Instruction::Rydberg { begin_time, .. } => {
                *begin_time
            }
            Instruction::RearrangeJob(j) => j.begin_time,
        }
    }

    /// The instruction's end time (µs); `Init` is 0.
    pub fn end_time(&self) -> f64 {
        match self {
            Instruction::Init { .. } => 0.0,
            Instruction::OneQGate { end_time, .. } | Instruction::Rydberg { end_time, .. } => {
                *end_time
            }
            Instruction::RearrangeJob(j) => j.end_time,
        }
    }

    /// Short type name matching the paper's JSON `type` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Instruction::Init { .. } => "init",
            Instruction::OneQGate { .. } => "1qGate",
            Instruction::Rydberg { .. } => "rydberg",
            Instruction::RearrangeJob(_) => "rearrangeJob",
        }
    }
}

/// Hand-written JSON impls (the in-tree serde stand-in has no derive),
/// matching the paper's Fig. 17/19 format: enums are internally tagged with
/// a camelCase `type` field, and `OneQGate` serializes as `1qGate`.
mod json {
    use super::*;
    use serde::{DeError, Deserialize, JsonWriter, ObjectView, Serialize, Value};

    serde::impl_serde_struct!(QubitLoc { qubit, slm_id, row, col });

    serde::impl_serde_struct!(U3Application { theta, phi, lambda, loc });

    serde::impl_serde_struct!(RearrangeJob {
        aod_id,
        begin_locs,
        end_locs,
        insts,
        begin_time,
        end_time,
        pick_duration,
        move_duration,
        drop_duration,
    });

    impl Serialize for AodInst {
        fn serialize(&self, w: &mut JsonWriter) {
            let mut o = w.object();
            match self {
                AodInst::Activate { row_id, row_y, col_id, col_x } => {
                    o.field("type", "activate");
                    o.field("row_id", row_id).field("row_y", row_y);
                    o.field("col_id", col_id).field("col_x", col_x);
                }
                AodInst::Deactivate { row_id, col_id } => {
                    o.field("type", "deactivate");
                    o.field("row_id", row_id).field("col_id", col_id);
                }
                AodInst::Move {
                    row_id,
                    row_y_begin,
                    row_y_end,
                    col_id,
                    col_x_begin,
                    col_x_end,
                } => {
                    o.field("type", "move");
                    o.field("row_id", row_id);
                    o.field("row_y_begin", row_y_begin).field("row_y_end", row_y_end);
                    o.field("col_id", col_id);
                    o.field("col_x_begin", col_x_begin).field("col_x_end", col_x_end);
                }
            }
            o.end();
        }
    }

    impl Deserialize for AodInst {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            match obj.tag("type")? {
                "activate" => Ok(AodInst::Activate {
                    row_id: obj.field("row_id")?,
                    row_y: obj.field("row_y")?,
                    col_id: obj.field("col_id")?,
                    col_x: obj.field("col_x")?,
                }),
                "deactivate" => Ok(AodInst::Deactivate {
                    row_id: obj.field("row_id")?,
                    col_id: obj.field("col_id")?,
                }),
                "move" => Ok(AodInst::Move {
                    row_id: obj.field("row_id")?,
                    row_y_begin: obj.field("row_y_begin")?,
                    row_y_end: obj.field("row_y_end")?,
                    col_id: obj.field("col_id")?,
                    col_x_begin: obj.field("col_x_begin")?,
                    col_x_end: obj.field("col_x_end")?,
                }),
                other => Err(DeError::msg(format!("unknown AOD instruction type `{other}`"))),
            }
        }
    }

    impl Serialize for Instruction {
        fn serialize(&self, w: &mut JsonWriter) {
            match self {
                Instruction::Init { init_locs } => {
                    let mut o = w.object();
                    o.field("type", "init").field("init_locs", init_locs);
                    o.end();
                }
                Instruction::OneQGate { gates, begin_time, end_time } => {
                    let mut o = w.object();
                    o.field("type", "1qGate").field("gates", gates);
                    o.field("begin_time", begin_time).field("end_time", end_time);
                    o.end();
                }
                Instruction::Rydberg { zone_id, begin_time, end_time } => {
                    let mut o = w.object();
                    o.field("type", "rydberg").field("zone_id", zone_id);
                    o.field("begin_time", begin_time).field("end_time", end_time);
                    o.end();
                }
                // Newtype variant under an internal tag: the job's own
                // serializer writes its fields next to the tag, as serde
                // does.
                Instruction::RearrangeJob(job) => {
                    w.tag_next_object("type", "rearrangeJob");
                    job.serialize(w);
                }
            }
        }
    }

    impl Deserialize for Instruction {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let obj = ObjectView::new(v)?;
            match obj.tag("type")? {
                "init" => Ok(Instruction::Init { init_locs: obj.field("init_locs")? }),
                "1qGate" => Ok(Instruction::OneQGate {
                    gates: obj.field("gates")?,
                    begin_time: obj.field("begin_time")?,
                    end_time: obj.field("end_time")?,
                }),
                "rydberg" => Ok(Instruction::Rydberg {
                    zone_id: obj.field("zone_id")?,
                    begin_time: obj.field("begin_time")?,
                    end_time: obj.field("end_time")?,
                }),
                "rearrangeJob" => Ok(Instruction::RearrangeJob(RearrangeJob::from_value(v)?)),
                other => Err(DeError::msg(format!("unknown instruction type `{other}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> RearrangeJob {
        RearrangeJob {
            aod_id: 0,
            begin_locs: vec![
                vec![QubitLoc::new(0, 0, 99, 0), QubitLoc::new(1, 0, 99, 1)],
                vec![QubitLoc::new(2, 0, 98, 0)],
            ],
            end_locs: vec![
                vec![QubitLoc::new(0, 1, 0, 2), QubitLoc::new(1, 2, 0, 2)],
                vec![QubitLoc::new(2, 1, 1, 2)],
            ],
            insts: vec![],
            begin_time: 10.0,
            end_time: 100.0,
            pick_duration: 15.0,
            move_duration: 60.0,
            drop_duration: 15.0,
        }
    }

    #[test]
    fn job_accessors() {
        let j = job();
        assert_eq!(j.num_qubits(), 3);
        assert_eq!(j.pick_end(), 25.0);
        assert_eq!(j.move_end(), 85.0);
        let moves: Vec<_> = j.moves().collect();
        assert_eq!(moves.len(), 3);
        assert_eq!(moves[2].0.qubit, 2);
    }

    #[test]
    fn instruction_kind_and_times() {
        let i = Instruction::Rydberg { zone_id: 0, begin_time: 5.0, end_time: 5.36 };
        assert_eq!(i.kind(), "rydberg");
        assert_eq!(i.begin_time(), 5.0);
        assert_eq!(i.end_time(), 5.36);
        let init = Instruction::Init { init_locs: vec![] };
        assert_eq!(init.kind(), "init");
        assert_eq!(init.end_time(), 0.0);
    }

    #[test]
    fn serde_json_uses_paper_type_tags() {
        let i = Instruction::Rydberg { zone_id: 0, begin_time: 149.16, end_time: 149.52 };
        let json = serde_json::to_string(&i).unwrap();
        assert!(json.contains("\"type\":\"rydberg\""), "{json}");
        let j = Instruction::RearrangeJob(job());
        let json = serde_json::to_string(&j).unwrap();
        assert!(json.contains("\"type\":\"rearrangeJob\""), "{json}");
        let back: Instruction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn aod_inst_tags() {
        let a = AodInst::Activate {
            row_id: vec![0],
            row_y: vec![297.0],
            col_id: vec![0, 1],
            col_x: vec![3.0, 39.0],
        };
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"type\":\"activate\""), "{json}");
        assert!(!a.is_move());
    }
}

//! The correctness gate: reference compiles and the checks every output
//! passes. Nothing here runs inside a timed interval.

use crate::gen::Source;
use std::borrow::Cow;
use zac_arch::Architecture;
use zac_circuit::qasm::parse_qasm;
use zac_circuit::{preprocess, Circuit, StagedCircuit};
use zac_core::{CompileOutput, Compiler, Zac, ZacConfig};
use zac_place::PlacementEngine;

/// Circuits up to this width are also checked by the state-vector
/// interpreter in `zac-sim`.
pub const SIM_MAX_QUBITS: usize = 12;

/// The paper configuration with the exhaustive engine pinned, so a
/// `ZAC_PLACER` setting in the environment cannot change what is measured.
pub fn zac_config() -> ZacConfig {
    let mut config = zac_bench::zac_config();
    config.placement.engine = PlacementEngine::Exhaustive;
    config
}

pub fn compiler() -> Zac {
    Zac::with_config(Architecture::reference(), zac_config())
}

/// The staged circuit the scheduler actually sees: `Zac::compile_staged`
/// splits stages wider than the Rydberg site count.
pub fn schedulable<'a>(arch: &Architecture, staged: &'a StagedCircuit) -> Cow<'a, StagedCircuit> {
    let sites = arch.num_sites();
    if staged.max_parallelism() > sites && sites > 0 {
        Cow::Owned(staged.with_max_stage_width(sites))
    } else {
        Cow::Borrowed(staged)
    }
}

/// The benchmark's own direct compile of one circuit, checked once.
pub struct Reference {
    pub staged: StagedCircuit,
    pub output: CompileOutput,
    pub digest: u64,
}

pub fn parse(source: &Source) -> Result<Circuit, String> {
    parse_qasm(&source.qasm, &source.name).map_err(|e| format!("{}: parse: {e}", source.name))
}

/// Compiles `source` directly and checks the result: the program passes
/// `verify_against`, and small circuits' staging matches the interpreter.
pub fn reference(zac: &Zac, source: &Source) -> Result<Reference, String> {
    let circuit = parse(source)?;
    let staged = preprocess(&circuit);
    let output =
        Compiler::compile(zac, &staged).map_err(|e| format!("{}: compile: {e}", source.name))?;
    reference_from(zac.arch(), &circuit, staged, output)
}

/// Checks an already compiled `output` of `circuit` and makes it a reference.
pub fn reference_from(
    arch: &Architecture,
    circuit: &Circuit,
    staged: StagedCircuit,
    output: CompileOutput,
) -> Result<Reference, String> {
    verify(arch, &staged, &output)?;
    if circuit.num_qubits() <= SIM_MAX_QUBITS
        && !zac_sim::preprocessing_preserves_semantics(circuit, &staged)
    {
        return Err(format!("{}: staging changed the circuit's semantics", staged.name));
    }
    let digest = output.semantic_digest();
    Ok(Reference { staged, output, digest })
}

fn verify(arch: &Architecture, staged: &StagedCircuit, out: &CompileOutput) -> Result<(), String> {
    let program = out.program.as_ref().ok_or_else(|| format!("{}: no program", staged.name))?;
    program
        .verify_against(arch, &schedulable(arch, staged))
        .map_err(|e| format!("{}: verify: {e}", staged.name))
}

/// Equal semantic payload: the fields `semantic_digest` covers, ignoring
/// timings and the cache marking.
pub fn same_output(a: &CompileOutput, b: &CompileOutput) -> bool {
    a.program == b.program
        && a.summary == b.summary
        && a.report == b.report
        && a.counts == b.counts
        && a.phases.is_some() == b.phases.is_some()
}

/// Checks one produced output against its reference. An output equal to the
/// reference has the reference's digest and verifies as the reference did
/// (both are functions of the same value), so only a differing output pays
/// for a digest and a verifier run.
pub fn check_output(arch: &Architecture, out: &CompileOutput, r: &Reference) -> Result<(), String> {
    if same_output(out, &r.output) {
        return Ok(());
    }
    if out.semantic_digest() != r.digest {
        return Err(format!("{}: semantic digest differs from the direct compile", r.staged.name));
    }
    verify(arch, &r.staged, out)
}

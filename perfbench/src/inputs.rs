//! Seeded input generation. The program under test only ever sees the
//! module texts and request batches built here.

use treegion_ir::{print_module, Function};
use treegion_machine::MachineModel;
use treegion_workloads::{generate, spec_suite, BenchmarkSpec};

/// GPR file size the `pressure` stressor is compiled against: small
/// enough that its wide reductions spill (hundreds of spills a pass),
/// large enough that no function's robust chain fails.
pub const PRESSURE_GPRS: u32 = 40;

/// GPR file size at which the robust chain livelocks on some seeded
/// draws of the stressor ("31 live gpr ranges against a file of 32" at
/// every fallback level). The timed passes stay clear of it; an untimed
/// probe compiles the stressor draws against it and reports how many
/// functions still fail.
pub const LIVELOCK_GPRS: u32 = 32;

/// One `compile_suite` input: a module's text and its target machine.
pub struct CompileInput {
    /// Spec name (`gcc`, `pressure`, ...).
    pub name: &'static str,
    /// The module in tir text form.
    pub text: String,
    /// Target machine (`8U`, or `4U` with a [`PRESSURE_GPRS`]-entry GPR file).
    pub machine: MachineModel,
}

/// SplitMix64 step: spreads a run seed over independent streams.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Variants of each spec per run. One draw of a spec is a handful of
/// functions whose sizes swing with the seed; eight draws steady the
/// per-function latency tail from seed to seed.
pub const VARIANTS: u64 = 8;

/// The eight SPEC-like modules on 8U plus the pressure stressor on 4U
/// with a finite GPR file, [`VARIANTS`] draws of each: the first with
/// the spec seed XOR'd with `seed`, the others with further streams of
/// `seed`.
pub fn compile_inputs(seed: u64) -> Vec<CompileInput> {
    let specs = spec_suite()
        .into_iter()
        .map(|spec| (spec, MachineModel::model_8u()))
        .chain(std::iter::once((
            BenchmarkSpec::pressure(),
            MachineModel::model_4u().with_gpr_file(PRESSURE_GPRS),
        )));
    specs
        .flat_map(|(spec, machine)| {
            (0..VARIANTS).map(move |k| {
                let mut spec = spec.clone();
                spec.seed ^= if k == 0 { seed } else { mix(seed, k) };
                CompileInput {
                    name: spec.name,
                    text: print_module(&generate(&spec)),
                    machine: machine.clone(),
                }
            })
        })
        .collect()
}

/// `n` distinct tiny modules for the serve workload, drawn from `seed`.
pub fn tiny_modules(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| print_module(&generate(&BenchmarkSpec::tiny(mix(seed, i as u64)))))
        .collect()
}

/// Source ops of a function (block bodies, terminators excluded).
pub fn static_ops(f: &Function) -> f64 {
    f.num_ops() as f64
}

/// Profile-weighted source ops: Σ block weight × block ops. The
/// denominator that makes estimated cycles comparable across seeds.
pub fn weighted_ops(f: &Function) -> f64 {
    f.blocks().map(|(_, b)| b.weight * b.ops.len() as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_module_texts() {
        let a = compile_inputs(7);
        let b = compile_inputs(7);
        assert_eq!(a.len(), 9 * VARIANTS as usize);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.text, y.text, "{}", x.name);
        }
    }

    #[test]
    fn different_seeds_different_module_texts() {
        let a = compile_inputs(7);
        let b = compile_inputs(8);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.text, y.text, "{}", x.name);
        }
    }

    #[test]
    fn serve_modules_repeat_by_seed() {
        assert_eq!(tiny_modules(3, 4), tiny_modules(3, 4));
        assert_ne!(tiny_modules(3, 4), tiny_modules(4, 4));
        let mut distinct = tiny_modules(3, 4);
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
    }
}

//! Differential test of the delay check's integer kernel against its
//! `Rational` instantiation.
//!
//! `check_delays_at_rates` relaxes connection delays scaled to `i128`;
//! `oil::cta::reference` runs the same relaxation loop on `Rational` weights.
//! Scaling by a positive common denominator preserves every comparison, so
//! the two must agree exactly: the same offsets and slacks on success, the
//! same witness cycle (ports, excess, connections) on failure, and — since
//! buffer sizing repeats the check once per enlarged cycle — the same
//! capacities, iteration count and rates from `size_buffers`.
//!
//! The models are the CTA models derived from the generated program corpus
//! (`ProgramScenario`, its SDR flavour, and a `ParallelProgram` whose chains
//! are disjoint constraint components with different denominators) and
//! from the PAL decoder, each also with randomly pre-grown buffer
//! capacities. Failure messages name the generator call that reproduces the
//! model.

use oil::compiler::derive_cta_model;
use oil::cta::buffersizing::apply_capacities;
use oil::cta::reference::{rational_delay_check, rational_size_buffers};
use oil::cta::{check_delays_at_rates, size_buffers, CtaModel, Rational};
use oil::gen::{GenRng, ParallelProgram, ProgramScenario};
use oil::lang::registry::FunctionRegistry;
use oil::pal::{pal_registry, PAL_DECODER_OIL};

fn derive(name: &str, source: &str, registry: &FunctionRegistry) -> CtaModel {
    let analyzed = oil::lang::frontend(source, registry)
        .unwrap_or_else(|d| panic!("{name}: front end rejected the program: {d:?}"));
    derive_cta_model(&analyzed, registry).cta
}

/// The derived models, each named by the call that generates its program.
fn corpus() -> Vec<(String, CtaModel)> {
    let mut models = vec![(
        "PAL_DECODER_OIL".to_string(),
        derive("PAL", PAL_DECODER_OIL, &pal_registry()),
    )];
    for seed in 0..24 {
        for (name, s) in [
            (
                format!("ProgramScenario::generate({seed})"),
                ProgramScenario::generate(seed),
            ),
            (
                format!("ProgramScenario::generate_sdr({seed})"),
                ProgramScenario::generate_sdr(seed),
            ),
        ] {
            let model = derive(&name, &s.source, &s.registry);
            models.push((name, model));
        }
    }
    let name = "ParallelProgram::generate(0, 4)".to_string();
    let p = ParallelProgram::generate(0, 4);
    let model = derive(&name, &p.source, &p.registry);
    models.push((name, model));
    models
}

/// `model` with each buffer connection's capacity enlarged by 1–8 tokens
/// with probability 1/2.
fn pregrow(model: &CtaModel, rng: &mut GenRng) -> CtaModel {
    let mut grown = model.clone();
    for c in &mut grown.connections {
        if c.buffer.is_some() && rng.chance(1, 2) {
            c.phi -= Rational::from_int(rng.range(1, 8) as i128);
        }
    }
    grown
}

/// Tallies of the outcomes compared, so the test can insist that both the
/// success and the failure path were exercised.
#[derive(Default)]
struct Compared {
    feasible: usize,
    cycles: usize,
}

/// Assert that both kernels agree on `model`: buffer sizing, the delay check
/// of the model itself at the sizing's target rates (usually a witness
/// cycle), and the delay check once the sized capacities are applied.
fn assert_kernels_agree(name: &str, model: &CtaModel, compared: &mut Compared) {
    let sized = size_buffers(model);
    assert_eq!(
        sized,
        rational_size_buffers(model),
        "{name}: buffer sizing differs between the kernels"
    );
    let Ok(sized) = sized else { return };
    let rates = &sized.rates;
    let mut fitted = model.clone();
    apply_capacities(&mut fitted, &sized.capacities);
    for (what, m) in [("as given", model), ("with sized capacities", &fitted)] {
        let check = check_delays_at_rates(m, rates);
        assert_eq!(
            check,
            rational_delay_check(m, rates),
            "{name}: delay check {what} differs between the kernels"
        );
        match check {
            Ok(_) => compared.feasible += 1,
            Err(_) => compared.cycles += 1,
        }
    }
}

#[test]
fn integer_kernel_matches_the_rational_instantiation_on_derived_models() {
    let mut rng = GenRng::new(0xD1FF);
    let mut compared = Compared::default();
    for (name, model) in corpus() {
        assert_kernels_agree(&name, &model, &mut compared);
        for round in 0..2 {
            let grown = pregrow(&model, &mut rng);
            assert_kernels_agree(
                &format!("{name}, pre-grown round {round}"),
                &grown,
                &mut compared,
            );
        }
    }
    println!(
        "delay kernels agree: {} feasible and {} cyclic checks, plus buffer sizing",
        compared.feasible, compared.cycles
    );
    assert!(
        compared.feasible >= 100 && compared.cycles >= 100,
        "{} feasible and {} cyclic checks compared",
        compared.feasible,
        compared.cycles
    );
}

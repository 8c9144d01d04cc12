//! E4 / E5 / E6 — Figs. 7, 8 and 9: CTA component construction.
//!
//! Regenerates the constructions of Section V-B: the single-rate component of
//! Fig. 7, the multi-rate component of Fig. 8 (printing the (ε, φ, γ) table
//! of Fig. 8c) and the two-while-loop module of Fig. 9, and measures the cost
//! of deriving and checking them. Buffer sizing is also timed on a generated
//! program of eight parallel chains (over 96 CTA components), where the delay
//! check it repeats once per enlarged cycle dominates.

use criterion::{criterion_group, criterion_main, Criterion};
use oil_bench::bench_registry;
use oil_compiler::{compile, derive_cta_model, CompilerOptions};
use oil_cta::{CtaModel, Rational};
use oil_gen::ParallelProgram;

/// Fig. 8: an actor consuming 4 tokens and producing 2 per firing.
fn fig8_component() -> CtaModel {
    let rho = Rational::new(1, 1_000_000);
    let (pi, psi) = (Rational::from_int(2), Rational::from_int(4));
    let zero = Rational::ZERO;
    let mut m = CtaModel::new();
    let w = m.add_component("wg", None);
    let p0 = m.add_port(w, "p0", Some(psi / rho));
    let p1 = m.add_port(w, "p1", Some(psi / rho));
    let p2 = m.add_port(w, "p2", Some(pi / rho));
    let p3 = m.add_port(w, "p3", Some(pi / rho));
    // The six connections of Fig. 8c.
    m.connect(p0, p1, rho, Rational::from_int(3), Rational::ONE);
    m.connect(p0, p2, rho, psi - psi / pi, Rational::new(2, 4));
    m.connect(p0, p3, zero, zero, Rational::new(2, 4));
    m.connect(p3, p0, zero, zero, Rational::new(4, 2));
    m.connect(p3, p1, rho, Rational::new(3, 2), Rational::new(4, 2));
    m.connect(p3, p2, rho, Rational::ONE, Rational::ONE);
    m
}

fn print_fig8c_table() {
    let m = fig8_component();
    println!("\n[Fig.8c / E5] delays and transfer rate ratios of the multi-rate component");
    println!(
        "{:>12} {:>10} {:>10} {:>8}",
        "connection", "eps", "phi", "gamma"
    );
    for c in &m.connections {
        println!(
            "{:>12} {:>10.1e} {:>10} {:>8}",
            format!("({}, {})", c.from, c.to),
            c.epsilon.to_f64(),
            c.phi.to_string(),
            c.gamma
        );
    }
}

const FIG9A: &str = r#"
    mod seq A(int x, out int o){
        loop{ y = f(x); o = f(y); } while(...);
        loop{ g(x, y, out o); } while(...);
    }
    mod par T(){
        source int s = src() @ 1 kHz;
        sink int t = snk() @ 1 kHz;
        A(s, out t)
    }
"#;

fn bench_cta_construction(c: &mut Criterion) {
    print_fig8c_table();
    let registry = bench_registry(1e-7);

    {
        let compiled = compile(FIG9A, &registry, &CompilerOptions::default()).unwrap();
        println!("\n[Fig.9 / E6] CTA model of the two-while-loop module");
        println!(
            "  components: {}, connections: {}, sized buffers: {}",
            compiled.derived.cta.component_count(),
            compiled.derived.cta.connection_count(),
            compiled.buffers.total_tokens()
        );
    }

    let mut group = c.benchmark_group("cta_construction");
    group.sample_size(30);

    group.bench_function("fig7_single_rate_consistency", |b| {
        let rho = Rational::new(1, 500_000);
        let zero = Rational::ZERO;
        let mut m = CtaModel::new();
        let w = m.add_component("wf", None);
        let bx = m.add_port(w, "bx", Some(rho.recip()));
        let by = m.add_port(w, "by", Some(rho.recip()));
        let bz = m.add_port(w, "bz", Some(rho.recip()));
        m.connect(bx, by, zero, zero, Rational::ONE);
        m.connect(by, bx, zero, zero, Rational::ONE);
        m.connect(bx, bz, rho, zero, Rational::ONE);
        m.connect(by, bz, rho, zero, Rational::ONE);
        b.iter(|| m.check_consistency().unwrap())
    });

    group.bench_function("fig8_multi_rate_consistency", |b| {
        let m = fig8_component();
        b.iter(|| m.check_consistency().unwrap())
    });

    group.bench_function("fig9_derive_and_size", |b| {
        let analyzed = oil_lang::frontend(FIG9A, &registry).unwrap();
        b.iter(|| {
            let derived = derive_cta_model(&analyzed, &registry);
            oil_cta::size_buffers(&derived.cta).unwrap()
        })
    });

    group.bench_function("parallel_program_size_buffers", |b| {
        let program = ParallelProgram::generate(1, 8);
        let analyzed = oil_lang::frontend(&program.source, &program.registry).unwrap();
        let derived = derive_cta_model(&analyzed, &program.registry);
        let components = derived.cta.component_count();
        assert!(components >= 96, "only {components} CTA components");
        b.iter(|| oil_cta::size_buffers(&derived.cta).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_cta_construction);
criterion_main!(benches);

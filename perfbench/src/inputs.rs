//! Seeded input generators. Every input a workload feeds the toolchain is a
//! pure function of `--seed`: the same seed gives byte-identical inputs, on
//! any host. The generators live here, not in `oil-gen`, so a change to the
//! repository's own generators can never silently change the benchmark's
//! inputs (and with them the golden reference).

use oil_compiler::schedule::ModeScript;
use oil_lang::registry::{FunctionRegistry, FunctionSignature};
use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed, portable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The PAL workloads' RF test signal: the composite signal's video and
/// audio tones are drawn from the seed (the decoder program and its
/// kernels stay `KernelLibrary::pal()`'s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PalSignal {
    pub video_hz: f64,
    pub audio_hz: f64,
}

pub fn pal_signal(seed: u64) -> PalSignal {
    let mut rng = Rng::new(seed, 1);
    PalSignal {
        video_hz: (rng.range(30, 80) * 1_000) as f64,
        audio_hz: (rng.range(5, 30) * 100) as f64,
    }
}

/// Gap, in modal firings, between two switches of the modal-switch
/// script: "every few dozen firings".
const SWITCH_GAP: (u64, u64) = (24, 48);

/// The modal-switch workload's mode script: starts on a seeded arm and
/// moves to a different seeded arm every 24–48 modal firings, for
/// `modal_firings` firings (the whole run).
pub fn mode_script(seed: u64, arms: u32, modal_firings: u64) -> ModeScript {
    let mut rng = Rng::new(seed, 2);
    let initial = rng.range(0, u64::from(arms) - 1) as u32;
    let mut arm = initial;
    let mut at = 0;
    let mut switches = Vec::new();
    loop {
        at += rng.range(SWITCH_GAP.0, SWITCH_GAP.1);
        if at >= modal_firings {
            break;
        }
        // A different arm every time: 1..arms steps around the ring.
        arm = (arm + rng.range(1, u64::from(arms) - 1) as u32) % arms;
        switches.push((at, arm));
    }
    ModeScript::new(initial, switches)
}

/// Parallel chains in the compile-scale program.
pub const SCALE_CHAINS: usize = 6;
/// Source rate of every compile-scale chain.
const SCALE_SOURCE_HZ: u64 = 4_000;

/// One stage of a compile-scale chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// `f(a, out b)`.
    Plain,
    /// `f(a:2, out b)`: halves the rate.
    Down,
    /// `f(a, out b:2)`: doubles the rate.
    Up,
    /// `if(...){ t = g(a); } else { t = h(a); } k(t, out b);`
    Modal,
}

/// The compile-scale program: `SCALE_CHAINS` parallel source → stages →
/// sink chains of `a:2` rate changers and modal `if` stages, each stage its
/// own module with its own coordinated functions. Returns the OIL source
/// and the registry that declares every function.
pub fn compile_scale_program(seed: u64) -> (String, FunctionRegistry) {
    let mut rng = Rng::new(seed, 3);
    let mut src = String::new();
    let mut reg = FunctionRegistry::new();
    let mut top_decls = String::new();
    let mut calls = Vec::new();
    for c in 0..SCALE_CHAINS {
        let mut hz = SCALE_SOURCE_HZ;
        let mut input = format!("x{c}");
        let _ = writeln!(
            top_decls,
            "    source int x{c} = src{c}() @ {SCALE_SOURCE_HZ} Hz;"
        );
        reg.register(FunctionSignature::pure(format!("src{c}"), 1e-7));
        reg.register(FunctionSignature::pure(format!("snk{c}"), 1e-7));
        // Every chain halves its rate first and doubles it last, with a
        // plain and a modal stage between them in a seeded order. So every
        // seed gives a program of the same size and the same rates; the
        // seed changes its structure, not the work it does.
        let mut middle = [StageKind::Plain, StageKind::Modal];
        if rng.range(0, 1) == 1 {
            middle.swap(0, 1);
        }
        let kinds = [StageKind::Down, middle[0], middle[1], StageKind::Up];
        for (s, &kind) in kinds.iter().enumerate() {
            let name = format!("S{c}_{s}");
            let (body, functions): (String, Vec<String>) = match kind {
                StageKind::Plain => (
                    format!("loop{{ f{c}_{s}(a, out b); }} while(1);"),
                    vec![format!("f{c}_{s}")],
                ),
                StageKind::Down => (
                    format!("loop{{ f{c}_{s}(a:2, out b); }} while(1);"),
                    vec![format!("f{c}_{s}")],
                ),
                StageKind::Up => (
                    format!("loop{{ f{c}_{s}(a, out b:2); }} while(1);"),
                    vec![format!("f{c}_{s}")],
                ),
                StageKind::Modal => (
                    format!(
                        "loop{{ if(...){{ t = g{c}_{s}(a); }} else {{ t = h{c}_{s}(a); }} \
                         k{c}_{s}(t, out b); }} while(1);"
                    ),
                    vec![
                        format!("g{c}_{s}"),
                        format!("h{c}_{s}"),
                        format!("k{c}_{s}"),
                    ],
                ),
            };
            let decl = if kind == StageKind::Modal {
                "int t; "
            } else {
                ""
            };
            let _ = writeln!(src, "mod seq {name}(int a, out int b){{ {decl}{body} }}");
            // Response times a tenth of the stage's firing period keep
            // every chain comfortably schedulable.
            let fire_hz = match kind {
                StageKind::Down => hz / 2,
                _ => hz,
            };
            for f in functions {
                reg.register(FunctionSignature::pure(f, 0.1 / fire_hz as f64));
            }
            hz = match kind {
                StageKind::Down => hz / 2,
                StageKind::Up => hz * 2,
                _ => hz,
            };
            let output = if s + 1 == kinds.len() {
                format!("y{c}")
            } else {
                let m = format!("m{c}_{s}");
                let _ = writeln!(top_decls, "    fifo int {m};");
                m
            };
            calls.push(format!("{name}({input}, out {output})"));
            input = output;
        }
        let _ = writeln!(top_decls, "    sink int y{c} = snk{c}() @ {hz} Hz;");
    }
    let _ = writeln!(src, "mod par Top(){{");
    src.push_str(&top_decls);
    let _ = writeln!(src, "    {}\n}}", calls.join(" || "));
    (src, reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [0, 1, 7, 1234567] {
            assert_eq!(compile_scale_program(seed).0, compile_scale_program(seed).0);
            assert_eq!(mode_script(seed, 3, 10_000), mode_script(seed, 3, 10_000));
            assert_eq!(pal_signal(seed), pal_signal(seed));
        }
        assert_ne!(compile_scale_program(1).0, compile_scale_program(2).0);
    }

    #[test]
    fn mode_script_switches_every_few_dozen_firings() {
        let script = mode_script(5, 3, 10_000);
        let mut prev = (0, script.initial);
        for &(at, arm) in &script.switches {
            assert!((SWITCH_GAP.0..=SWITCH_GAP.1).contains(&(at - prev.0)));
            assert_ne!(arm, prev.1);
            assert!(arm < 3);
            prev = (at, arm);
        }
        assert!(10_000 - prev.0 <= SWITCH_GAP.1);
    }
}

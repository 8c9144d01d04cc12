//! The golden reference: per workload and seed, the counts and digests
//! every run must reproduce. `golden.txt` is compiled into the binary; one
//! line per (workload, seed):
//!
//! ```text
//! <workload> <seed> key=value key=value ...
//! ```
//!
//! Digests are FNV-1a over the bit patterns of the values (hex), counts are
//! decimal. A run whose output differs from any key present for its
//! (workload, seed) is a failed run.

use oil_rt::SinkStream;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("../golden.txt");

pub type Entry = BTreeMap<String, String>;

/// The golden entry of `workload` at `seed`, if the file has one.
pub fn lookup(workload: &str, seed: u64) -> Option<Entry> {
    parse(GOLDEN).remove(&(workload.to_string(), seed))
}

fn parse(raw: &str) -> BTreeMap<(String, u64), Entry> {
    let mut out = BTreeMap::new();
    for line in raw.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(workload), Some(seed)) = (fields.next(), fields.next()) else {
            panic!("golden.txt: malformed line `{line}`");
        };
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|_| panic!("golden.txt: bad seed in `{line}`"));
        let entry = fields
            .map(|kv| {
                let (k, v) = kv
                    .split_once('=')
                    .unwrap_or_else(|| panic!("golden.txt: bad field `{kv}`"));
                (k.to_string(), v.to_string())
            })
            .collect();
        out.insert((workload.to_string(), seed), entry);
    }
    out
}

/// Render one golden line.
pub fn line(workload: &str, seed: u64, entry: &Entry) -> String {
    let mut s = format!("{workload} {seed}");
    for (k, v) in entry {
        s.push_str(&format!(" {k}={v}"));
    }
    s
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every sink's name, consumed count and stored sample values.
pub fn sink_digest(sinks: &[SinkStream]) -> String {
    let mut h = Fnv::new();
    for s in sinks {
        h.bytes(s.name.as_bytes());
        h.u64(s.consumed);
        h.u64(s.values.len() as u64);
        for v in &s.values {
            h.u64(v.to_bits());
        }
    }
    hex(h.finish())
}

pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// The keys of `expected` whose value differs from `actual`'s (a key
/// missing from `actual` differs).
pub fn mismatches(expected: &Entry, actual: &Entry) -> Vec<String> {
    expected
        .iter()
        .filter(|(k, v)| actual.get(*k) != Some(*v))
        .map(|(k, v)| {
            format!(
                "{k}: expected {v}, got {}",
                actual.get(k).map_or("nothing", String::as_str)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_parses_and_round_trips() {
        let all = parse(GOLDEN);
        assert!(!all.is_empty());
        for ((w, seed), entry) in &all {
            let l = line(w, *seed, entry);
            assert_eq!(parse(&l).remove(&(w.clone(), *seed)).as_ref(), Some(entry));
        }
    }

    #[test]
    fn every_workload_has_golden_seeds() {
        for w in crate::WORKLOADS {
            assert!(lookup(w, 1).is_some(), "{w} seed 1");
        }
    }
}

//! Seeded workload generation. The program under test only ever sees the
//! QASM text and request lines produced here.

use zac_circuit::qasm::to_qasm;
use zac_circuit::{bench_circuits, Circuit};

/// SplitMix64: a tiny, stable generator, so a seed names the same inputs on
/// every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for (`seed`, `stream`).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A rotation angle with a short decimal form, so it survives the QASM
    /// text round trip exactly.
    fn angle(&mut self) -> f64 {
        (self.below(6283) as f64 + 1.0) / 1000.0
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One named QASM input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Source {
    pub name: String,
    pub qasm: String,
}

const CORPUS: [(&str, &str); 10] = [
    ("adder_n4", include_str!("../../tests/corpus/adder_n4.qasm")),
    ("bell_n2", include_str!("../../tests/corpus/bell_n2.qasm")),
    ("bv_n6", include_str!("../../tests/corpus/bv_n6.qasm")),
    ("fredkin_n3", include_str!("../../tests/corpus/fredkin_n3.qasm")),
    ("ghz_n8", include_str!("../../tests/corpus/ghz_n8.qasm")),
    ("ising_n6", include_str!("../../tests/corpus/ising_n6.qasm")),
    ("qaoa_n3", include_str!("../../tests/corpus/qaoa_n3.qasm")),
    ("qft_n5", include_str!("../../tests/corpus/qft_n5.qasm")),
    ("variational_n4", include_str!("../../tests/corpus/variational_n4.qasm")),
    ("wstate_n3", include_str!("../../tests/corpus/wstate_n3.qasm")),
];

/// The 27 fixed circuits: the paper's 17-circuit suite rendered to QASM,
/// then the 10 bundled corpus files.
pub fn suite() -> Vec<Source> {
    let paper = bench_circuits::paper_suite()
        .into_iter()
        .map(|e| Source { name: e.circuit.name().to_string(), qasm: to_qasm(&e.circuit) });
    let corpus = CORPUS
        .iter()
        .map(|(name, qasm)| Source { name: (*name).to_string(), qasm: (*qasm).into() });
    paper.chain(corpus).collect()
}

/// Qubit and 2Q-gate ranges of generated circuits: inside the paper suite's
/// range (14–98 qubits, 13–306 2Q gates), kept to its lower half so a miss
/// costs about what a typical suite circuit costs.
const QUBITS: (usize, usize) = (14, 40);
const GATES_2Q: (usize, usize) = (13, 120);

/// A random circuit: 2Q gates (cx, cz, cp) on random pairs, each operand
/// preceded by a random 1Q gate half of the time.
pub fn random_circuit(rng: &mut Rng, name: &str) -> Source {
    let n = rng.range(QUBITS.0, QUBITS.1);
    let gates = rng.range(GATES_2Q.0, GATES_2Q.1.min(3 * n));
    let mut c = Circuit::new(name, n);
    for _ in 0..gates {
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        for q in [a, b] {
            match rng.below(8) {
                0 => {
                    c.h(q);
                }
                1 => {
                    let t = rng.angle();
                    c.rz(t, q);
                }
                2 => {
                    let t = rng.angle();
                    c.ry(t, q);
                }
                3 => {
                    c.t(q);
                }
                _ => {}
            }
        }
        match rng.below(3) {
            0 => {
                c.cx(a, b);
            }
            1 => {
                c.cz(a, b);
            }
            _ => {
                let t = rng.angle();
                c.cp(t, a, b);
            }
        }
    }
    Source { name: name.to_string(), qasm: to_qasm(&c) }
}

/// Distinct circuits that fill the shared store in `serve-churn`. The set
/// is the same for every run seed, so the output-quality geomeans compare
/// across seeds; the seed drives the request streams and fresh circuits.
pub fn store_circuits(count: usize) -> Vec<Source> {
    let mut rng = Rng::new(0x5AC, 0x5707E);
    (0..count).map(|i| random_circuit(&mut rng, &format!("store_{i}"))).collect()
}

/// One request entry: a circuit of the workload's fixed pool, or a fresh
/// circuit seen nowhere else in the run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pick {
    Pool(usize),
    Fresh(Source),
}

/// Entries per request.
const ENTRIES: (usize, usize) = (1, 4);
/// One entry in `FRESH_ONE_IN` is a fresh circuit (serve-churn only).
pub const FRESH_ONE_IN: usize = 5;

/// A client's seeded request stream over a pool of `pool` circuits.
#[derive(Debug, Clone)]
pub struct RequestGen {
    rng: Rng,
    pool: usize,
    fresh: bool,
    tag: String,
    made: usize,
}

impl RequestGen {
    /// Client `client`'s stream; `fresh` mixes in fresh circuits.
    pub fn new(seed: u64, client: usize, pool: usize, fresh: bool) -> Self {
        Self {
            rng: Rng::new(seed, 0xC11E47 + client as u64),
            pool,
            fresh,
            tag: format!("s{seed}c{client}"),
            made: 0,
        }
    }

    /// The next request's entries: 1–4, pool entries distinct.
    pub fn next_request(&mut self) -> Vec<Pick> {
        let k = self.rng.range(ENTRIES.0, ENTRIES.1);
        let mut picks = Vec::with_capacity(k);
        while picks.len() < k {
            if self.fresh && self.rng.below(FRESH_ONE_IN) == 0 {
                let name = format!("fresh_{}_{}", self.tag, self.made);
                self.made += 1;
                picks.push(Pick::Fresh(random_circuit(&mut self.rng, &name)));
                continue;
            }
            let p = Pick::Pool(self.rng.below(self.pool));
            if !picks.contains(&p) {
                picks.push(p);
            }
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use zac_circuit::{preprocess, qasm::parse_qasm};

    #[test]
    fn suite_has_the_27_circuits_and_they_parse() {
        let suite = suite();
        assert_eq!(suite.len(), 27);
        let names: HashSet<_> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 27);
        for s in &suite {
            parse_qasm(&s.qasm, &s.name).expect("suite QASM parses");
        }
    }

    #[test]
    fn seeded_generation_is_stable() {
        let a: Vec<_> = (0..50)
            .map({
                let mut g = RequestGen::new(7, 1, 27, true);
                move |_| g.next_request()
            })
            .collect();
        let b: Vec<_> = (0..50)
            .map({
                let mut g = RequestGen::new(7, 1, 27, true);
                move |_| g.next_request()
            })
            .collect();
        assert_eq!(a, b);
        assert_eq!(store_circuits(8), store_circuits(8));
        assert_eq!(Rng::new(9, 0).permutation(27), Rng::new(9, 0).permutation(27));
        // Another seed or client gives another stream.
        let mut other = RequestGen::new(8, 1, 27, true);
        assert_ne!(a[..10].to_vec(), (0..10).map(|_| other.next_request()).collect::<Vec<_>>());
    }

    #[test]
    fn requests_have_one_to_four_distinct_entries_and_a_fifth_are_fresh() {
        let mut g = RequestGen::new(11, 0, 27, true);
        let (mut entries, mut fresh) = (0, 0);
        for _ in 0..2000 {
            let r = g.next_request();
            assert!((1..=4).contains(&r.len()));
            let pool: Vec<_> = r.iter().filter(|p| matches!(p, Pick::Pool(_))).collect();
            let distinct: HashSet<_> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len());
            entries += r.len();
            fresh += r.len() - pool.len();
        }
        let share = fresh as f64 / entries as f64;
        assert!((0.17..0.23).contains(&share), "fresh share {share}");
        let mut hot = RequestGen::new(11, 0, 27, false);
        assert!((0..500).flat_map(|_| hot.next_request()).all(|p| matches!(p, Pick::Pool(_))));
    }

    #[test]
    fn fresh_and_store_circuits_have_distinct_fingerprints() {
        let mut g = RequestGen::new(5, 0, 128, true);
        let mut sources = store_circuits(128);
        while sources.len() < 128 + 300 {
            for p in g.next_request() {
                if let Pick::Fresh(s) = p {
                    sources.push(s);
                }
            }
        }
        let mut seen = HashSet::new();
        for s in &sources {
            let c = parse_qasm(&s.qasm, &s.name).expect("generated QASM parses");
            assert!((QUBITS.0..=QUBITS.1).contains(&c.num_qubits()));
            assert!((GATES_2Q.0..=GATES_2Q.1).contains(&c.num_2q_gates()));
            assert!(seen.insert(preprocess(&c).fingerprint()), "{} repeats a fingerprint", s.name);
        }
    }
}

//! Max-2-SAT as QUBO — the canonical Karp-problem reduction the paper's
//! introduction gestures at ("Karp's 21 NP-complete problems").
//!
//! Each clause of at most two literals contributes its *violation
//! indicator* to the objective:
//!
//! ```text
//! (x ∨ y)   violated ⇔ (1−x)(1−y)
//! (x ∨ ¬y)  violated ⇔ (1−x)·y
//! (¬x ∨ ¬y) violated ⇔ x·y
//! (x)       violated ⇔ 1−x      (unit clauses supported)
//! ```
//!
//! Summing and ×2-scaling (the QUBO double-count convention), the
//! encoded instance satisfies `violated(X) = (E(X) + offset) / 2`; a
//! satisfying assignment, when one exists, is exactly a ground state of
//! energy `−offset`.

use qubo::{BitVec, Energy, Qubo, QuboError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A literal: variable index plus polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lit {
    /// Variable index.
    pub var: usize,
    /// `true` for `¬x`.
    pub negated: bool,
}

impl Lit {
    /// Positive literal `x_var`.
    #[must_use]
    pub fn pos(var: usize) -> Self {
        Self {
            var,
            negated: false,
        }
    }

    /// Negative literal `¬x_var`.
    #[must_use]
    pub fn neg(var: usize) -> Self {
        Self { var, negated: true }
    }

    /// Value of the literal under assignment `x`.
    #[must_use]
    pub fn eval(self, x: &BitVec) -> bool {
        x.get(self.var) != self.negated
    }
}

/// A clause of one or two literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clause(pub Lit, pub Option<Lit>);

impl Clause {
    /// Binary clause `(a ∨ b)`.
    #[must_use]
    pub fn or(a: Lit, b: Lit) -> Self {
        Self(a, Some(b))
    }

    /// Unit clause `(a)`.
    #[must_use]
    pub fn unit(a: Lit) -> Self {
        Self(a, None)
    }

    /// `true` if the assignment satisfies this clause.
    #[must_use]
    pub fn satisfied(&self, x: &BitVec) -> bool {
        self.0.eval(x) || self.1.map(|l| l.eval(x)).unwrap_or(false)
    }
}

/// A Max-2-SAT instance encoded as QUBO.
#[derive(Clone, Debug)]
pub struct Max2SatQubo {
    qubo: Qubo,
    offset: i64,
    clauses: Vec<Clause>,
}

impl Max2SatQubo {
    /// The underlying QUBO.
    #[must_use]
    pub fn qubo(&self) -> &Qubo {
        &self.qubo
    }

    /// The clauses.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of violated clauses under `x` (by direct evaluation).
    #[must_use]
    pub fn violated(&self, x: &BitVec) -> usize {
        self.clauses.iter().filter(|c| !c.satisfied(x)).count()
    }

    /// Converts an energy to the violated-clause count:
    /// `violated = (E + offset) / 2`.
    #[must_use]
    pub fn energy_to_violations(&self, e: Energy) -> i64 {
        (e + self.offset) / 2
    }

    /// The energy of a fully satisfying assignment (`−offset`).
    #[must_use]
    pub fn satisfying_energy(&self) -> Energy {
        -self.offset
    }
}

/// Encodes a Max-2-SAT instance over `n_vars` variables.
///
/// # Errors
/// [`QuboError`] for out-of-range variables or too many clauses sharing
/// a pair (weight overflow). Tautologies `(x ∨ ¬x)` are accepted and
/// contribute nothing.
pub fn to_qubo(n_vars: usize, clauses: &[Clause]) -> Result<Max2SatQubo, QuboError> {
    let mut triplets = Vec::new();
    let mut offset = 0i64;
    // ×2-scaled violation terms. For a product of "falseness" factors
    // f(l) = (1 − x) for positive, x for negative:
    //   violated(clause) = f(l₁)·f(l₂)  (or f(l₁) for units).
    for c in clauses {
        let lits = match c.1 {
            Some(b2) => vec![c.0, b2],
            None => vec![c.0],
        };
        for l in &lits {
            if l.var >= n_vars {
                return Err(QuboError::IndexOutOfRange(l.var));
            }
        }
        match (c.0, c.1) {
            (a, None) => {
                // f(a): 1 − x (pos) or x (neg), ×2.
                if a.negated {
                    triplets.push((a.var, a.var, 2));
                } else {
                    triplets.push((a.var, a.var, -2));
                    offset += 2;
                }
            }
            (a, Some(bb)) if a.var == bb.var => {
                if a.negated == bb.negated {
                    // (l ∨ l) ≡ unit clause.
                    if a.negated {
                        triplets.push((a.var, a.var, 2));
                    } else {
                        triplets.push((a.var, a.var, -2));
                        offset += 2;
                    }
                }
                // (x ∨ ¬x): tautology, contributes nothing.
            }
            (a, Some(bb)) => {
                // f(a)·f(b) expanded; pair coefficient is halved into W
                // because the energy double-counts it.
                match (a.negated, bb.negated) {
                    (false, false) => {
                        // (1−x)(1−y) = 1 − x − y + xy
                        offset += 2;
                        triplets.push((a.var, a.var, -2));
                        triplets.push((bb.var, bb.var, -2));
                        triplets.push((a.var, bb.var, 1));
                    }
                    (false, true) => {
                        // (1−x)·y = y − xy
                        triplets.push((bb.var, bb.var, 2));
                        triplets.push((a.var, bb.var, -1));
                    }
                    (true, false) => {
                        // x·(1−y) = x − xy
                        triplets.push((a.var, a.var, 2));
                        triplets.push((a.var, bb.var, -1));
                    }
                    (true, true) => {
                        // x·y
                        triplets.push((a.var, bb.var, 1));
                    }
                }
            }
        }
    }
    Ok(Max2SatQubo {
        qubo: Qubo::from_triplets(n_vars, &triplets)?,
        offset,
        clauses: clauses.to_vec(),
    })
}

/// Generates a random Max-2-SAT instance with `m` binary clauses over
/// `n_vars` variables (distinct variables per clause, random polarity).
///
/// # Panics
/// Panics if `n_vars < 2`.
#[must_use]
pub fn random_instance(n_vars: usize, m: usize, seed: u64) -> Vec<Clause> {
    assert!(n_vars >= 2, "need at least two variables");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let u = rng.gen_range(0..n_vars);
            let mut v = rng.gen_range(0..n_vars);
            while v == u {
                v = rng.gen_range(0..n_vars);
            }
            let lu = Lit {
                var: u,
                negated: rng.gen(),
            };
            let lv = Lit {
                var: v,
                negated: rng.gen(),
            };
            Clause::or(lu, lv)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> impl Iterator<Item = BitVec> {
        (0u32..(1 << n)).map(move |bits| {
            BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>())
        })
    }

    #[test]
    fn energy_counts_violations_for_all_clause_shapes() {
        let clauses = vec![
            Clause::or(Lit::pos(0), Lit::pos(1)),
            Clause::or(Lit::pos(1), Lit::neg(2)),
            Clause::or(Lit::neg(0), Lit::neg(3)),
            Clause::unit(Lit::pos(2)),
            Clause::unit(Lit::neg(3)),
        ];
        let enc = to_qubo(4, &clauses).unwrap();
        for x in all_assignments(4) {
            let direct = enc.violated(&x) as i64;
            assert_eq!(
                enc.energy_to_violations(enc.qubo().energy(&x)),
                direct,
                "x={x}"
            );
        }
    }

    #[test]
    fn satisfiable_instance_reaches_satisfying_energy() {
        // (x0 ∨ x1) ∧ (¬x0 ∨ x2) ∧ (¬x1 ∨ ¬x2): satisfied by 101.
        let clauses = vec![
            Clause::or(Lit::pos(0), Lit::pos(1)),
            Clause::or(Lit::neg(0), Lit::pos(2)),
            Clause::or(Lit::neg(1), Lit::neg(2)),
        ];
        let enc = to_qubo(3, &clauses).unwrap();
        let best = all_assignments(3)
            .map(|x| enc.qubo().energy(&x))
            .min()
            .unwrap();
        assert_eq!(best, enc.satisfying_energy());
    }

    #[test]
    fn unsatisfiable_core_violates_exactly_one() {
        // (x) ∧ (¬x): one clause must break.
        let clauses = vec![Clause::unit(Lit::pos(0)), Clause::unit(Lit::neg(0))];
        let enc = to_qubo(1, &clauses).unwrap();
        let best = all_assignments(1)
            .map(|x| enc.energy_to_violations(enc.qubo().energy(&x)))
            .min()
            .unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn tautology_contributes_nothing() {
        let enc = to_qubo(2, &[Clause::or(Lit::pos(0), Lit::neg(0))]).unwrap();
        for x in all_assignments(2) {
            assert_eq!(enc.energy_to_violations(enc.qubo().energy(&x)), 0);
        }
    }

    #[test]
    fn duplicated_literal_acts_as_unit() {
        let enc = to_qubo(2, &[Clause::or(Lit::neg(1), Lit::neg(1))]).unwrap();
        for x in all_assignments(2) {
            let expect = i64::from(x.get(1));
            assert_eq!(enc.energy_to_violations(enc.qubo().energy(&x)), expect);
        }
    }

    #[test]
    fn random_instances_evaluate_consistently() {
        let clauses = random_instance(10, 40, 7);
        let enc = to_qubo(10, &clauses).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let x = BitVec::random(10, &mut rng);
            assert_eq!(
                enc.energy_to_violations(enc.qubo().energy(&x)),
                enc.violated(&x) as i64
            );
        }
    }

    #[test]
    fn out_of_range_variable_rejected() {
        assert!(matches!(
            to_qubo(2, &[Clause::unit(Lit::pos(5))]),
            Err(QuboError::IndexOutOfRange(5))
        ));
    }
}

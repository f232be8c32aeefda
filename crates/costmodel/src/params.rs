//! Model parameters (the paper's Table 2) and their Table 3 values.

/// The cost model's parameters. Field names follow Table 2; all costs are
/// in the paper's abstract units (`C_Θ` = 1 unit, `C_IO` = 1000 units in
/// Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    // --- database dependent -------------------------------------------
    /// Height of the generalization trees (root at height 0).
    pub n: usize,
    /// Fan-out of the generalization trees.
    pub k: usize,
    /// Tuple size in bytes (`v`).
    pub v: f64,
    /// Average disk-page space utilization (`l`).
    pub l: f64,
    /// Height of the selector object in its generalization tree (`h`);
    /// the paper's experiments use `h = n` (a leaf).
    pub h: usize,
    /// Total number of tuples with spatial attributes in the database
    /// (`T`), charged to join-index maintenance when indices are kept for
    /// all spatial relations.
    pub t: f64,

    // --- system dependent ----------------------------------------------
    /// Disk page size in bytes (`s`).
    pub s: f64,
    /// Join-index entries per page (`z`).
    pub z: f64,
    /// Main memory size in pages (`M`).
    pub m_mem: f64,

    // --- system performance dependent -----------------------------------
    /// Cost of one Θ- or θ-evaluation (`C_Θ`).
    pub c_theta: f64,
    /// Cost of one page I/O (`C_IO`).
    pub c_io: f64,
    /// Cost of one elementary update computation (`C_U`).
    pub c_u: f64,

    /// Height of the join-index B⁺-tree (`d`). Table 3 lists 4 as a
    /// derived variable; [`ModelParams::derive_d`] recomputes it from an
    /// entry count.
    pub d: f64,
}

impl ModelParams {
    /// The paper's Table 3 parameter values.
    pub fn paper() -> Self {
        let p = ModelParams {
            n: 6,
            k: 10,
            v: 300.0,
            l: 0.75,
            h: 6,
            t: 0.0, // set to N below
            s: 2000.0,
            z: 100.0,
            m_mem: 4000.0,
            c_theta: 1.0,
            c_io: 1000.0,
            c_u: 1.0,
            d: 4.0,
        };
        ModelParams {
            t: p.n_tuples(),
            ..p
        }
    }

    /// A reduced-scale configuration (small `k`, `n`, memory) suitable for
    /// running the *measured* executors and comparing counts against the
    /// model (`validate_model` in `sj-bench`).
    pub fn reduced(k: usize, n: usize) -> Self {
        let p = ModelParams {
            n,
            k,
            v: 300.0,
            l: 0.75,
            h: n,
            t: 0.0,
            s: 2000.0,
            z: 100.0,
            m_mem: 64.0,
            c_theta: 1.0,
            c_io: 1000.0,
            c_u: 1.0,
            d: 2.0,
        };
        ModelParams {
            t: p.n_tuples(),
            ..p
        }
    }

    /// Derived variable `N`: tuples per relation, `Σ_{i=0}^{n} k^i`
    /// (assumption S2 — every tree node is a user object).
    pub fn n_tuples(&self) -> f64 {
        let k = self.k as f64;
        (k.powi(self.n as i32 + 1) - 1.0) / (k - 1.0)
    }

    /// Derived variable `m`: tuples per disk page, `⌊l·s / v⌋`.
    pub fn m(&self) -> f64 {
        (self.l * self.s / self.v).floor()
    }

    /// Pages of a relation: `⌈N/m⌉`.
    pub fn relation_pages(&self) -> f64 {
        (self.n_tuples() / self.m()).ceil()
    }

    /// Number of nodes at tree height `i`: `k^i`.
    pub fn nodes_at(&self, i: usize) -> f64 {
        (self.k as f64).powi(i as i32)
    }

    /// Recomputes the join-index B⁺-tree height `d` for `entries` index
    /// entries at `z` entries per node: `max(1, ⌈log_z(entries)⌉)`.
    pub fn derive_d(&self, entries: f64) -> f64 {
        if entries <= 1.0 {
            1.0
        } else {
            (entries.ln() / self.z.ln()).ceil().max(1.0)
        }
    }

    /// Whether the parameters are inside the model's domain, or what
    /// puts them outside. The §4 formulas assert on (or turn into NaN)
    /// anything this rejects, so check caller-supplied parameters here
    /// before pricing with them.
    pub fn validate(&self) -> Result<(), &'static str> {
        let checks = [
            (self.k >= 2, "fan-out k must be ≥ 2"),
            (self.h <= self.n, "selector height h must be ≤ n"),
            (self.n_tuples().is_finite(), "k^n must be a finite N"),
            (self.l > 0.0 && self.l <= 1.0, "utilization l in (0,1]"),
            (self.v > 0.0 && self.s >= self.v, "page must fit a tuple"),
            (self.m() >= 1.0, "a page at utilization l must fit a tuple"),
            (self.m_mem > 10.0, "model requires M > 10 pages"),
            (self.z >= 1.0 && self.d >= 1.0, "z and d must be ≥ 1"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, why)) => Err(why),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_derived_variables_match_table_3() {
        let p = ModelParams::paper();
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.n_tuples(), 1_111_111.0);
        assert_eq!(p.m(), 5.0);
        assert_eq!(p.d, 4.0);
        assert_eq!(p.relation_pages(), 222_223.0);
    }

    #[test]
    fn derive_d_matches_paper_scale() {
        let p = ModelParams::paper();
        // A full join index at p=1 would have ~N² entries; the paper's
        // d = 4 corresponds to ~z⁴ = 10⁸ entries.
        assert_eq!(p.derive_d(1e8), 4.0);
        assert_eq!(p.derive_d(50.0), 1.0);
        assert_eq!(p.derive_d(1.0), 1.0);
    }

    #[test]
    fn nodes_at_levels() {
        let p = ModelParams::paper();
        assert_eq!(p.nodes_at(0), 1.0);
        assert_eq!(p.nodes_at(3), 1000.0);
    }

    #[test]
    #[should_panic(expected = "selector height")]
    fn invalid_h_rejected() {
        let p = ModelParams {
            h: 9,
            ..ModelParams::paper()
        };
        p.validate().unwrap();
    }

    /// The two ways N and m degenerate: 0/0 tuples, zero tuples a page.
    #[test]
    fn degenerate_derived_variables_rejected() {
        let unary = ModelParams {
            k: 1,
            ..ModelParams::paper()
        };
        assert!(unary.n_tuples().is_nan() && unary.validate().is_err());
        let oversized = ModelParams {
            v: 1_800.0,
            ..ModelParams::paper()
        };
        assert!(oversized.m() == 0.0 && oversized.validate().is_err());
    }
}

//! Dense two-phase primal simplex.
//!
//! The implementation keeps an explicit full tableau. Sizes in this workspace
//! are tiny (tens of rows, at most a few thousand columns for the Eq. 9 upper
//! bound), so clarity wins over sparsity tricks. The tableau is stored as one
//! row-major allocation with stride indexing so pivots stream through memory
//! instead of chasing per-row pointers.

use crate::error::{ProblemError, SolveError};
use crate::problem::{Direction, Problem, Relation};
use crate::solution::Solution;
use std::ops::Range;

/// Column-selection (pricing) rule used by the simplex iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pricing {
    /// Dantzig's rule (most negative reduced cost) with an automatic fallback
    /// to Bland's rule when a long degenerate streak suggests cycling.
    #[default]
    Auto,
    /// Always Dantzig's rule. May cycle on degenerate inputs.
    Dantzig,
    /// Always Bland's rule. Terminates on any input, usually slower.
    Bland,
}

/// Options controlling [`Problem::solve_with`](crate::Problem::solve_with).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Pricing rule. Defaults to [`Pricing::Auto`].
    pub pricing: Pricing,
    /// Numerical tolerance for feasibility and optimality tests.
    pub tolerance: f64,
    /// Hard cap on simplex pivots per phase; `None` picks a size-based cap.
    pub max_iterations: Option<usize>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            pricing: Pricing::Auto,
            tolerance: 1e-9,
            max_iterations: None,
        }
    }
}

/// Number of consecutive degenerate pivots after which [`Pricing::Auto`]
/// switches to Bland's rule.
const DEGENERATE_STREAK_LIMIT: usize = 40;

#[derive(Debug)]
struct Tableau {
    /// Row-major `rows x stride` storage with `stride == cols + 1`; the last
    /// entry of each row is the rhs.
    data: Vec<f64>,
    stride: usize,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack + artificial (+ appended) columns.
    cols: usize,
    tol: f64,
    /// Scratch copy of the pivot row, reused across pivots.
    scratch: Vec<f64>,
    /// Pricing scratch, reused across iterations: the reduced cost of every
    /// column, and which columns are basic.
    reduced: Vec<f64>,
    is_basic: Vec<bool>,
}

impl Tableau {
    fn num_rows(&self) -> usize {
        self.basis.len()
    }

    #[inline]
    fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.stride + col]
    }

    #[inline]
    fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.stride..(row + 1) * self.stride]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.at(row, self.cols)
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let pivot_val = self.at(pivot_row, pivot_col);
        debug_assert!(pivot_val.abs() > self.tol);
        let inv = 1.0 / pivot_val;
        let start = pivot_row * self.stride;
        for v in &mut self.data[start..start + self.stride] {
            *v *= inv;
        }
        // Re-normalize the pivot entry exactly to avoid drift.
        self.data[start + pivot_col] = 1.0;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(self.row(pivot_row));
        for r in 0..self.num_rows() {
            if r == pivot_row {
                continue;
            }
            let factor = self.at(r, pivot_col);
            // awb-audit: allow(no-float-eq) — exact-zero fast path: skipping the row
            // elimination is only sound when the factor is bit-for-bit zero.
            if factor == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.stride..(r + 1) * self.stride];
            for (v, p) in row.iter_mut().zip(&scratch) {
                *v -= factor * p;
            }
            row[pivot_col] = 0.0;
        }
        self.scratch = scratch;
        self.basis[pivot_row] = pivot_col;
        #[cfg(feature = "debug-invariants")]
        {
            invariants::tableau_finite(self);
            invariants::rhs_feasible(self);
        }
    }

    /// Pricing: the entering column among the nonbasic columns of
    /// `0..main_cols` and `extra` — the first with a reduced cost below
    /// `-tol` under Bland's rule, else the most negative (first on ties) —
    /// or `None` at optimality.
    ///
    /// Reduced costs `r_j = c_j - sum_i c_B(i) * T[i][j]` are swept row by
    /// row: `r_j -= mu_i * T[i][j]` for ascending `i`, skipping zero
    /// multipliers. Every column therefore sees the same subtraction
    /// sequence as a per-column loop, so the values are bit-identical to it,
    /// while the tableau is read along its rows instead of striding down
    /// columns.
    fn entering(
        &mut self,
        cost: &[f64],
        main_cols: usize,
        extra: Range<usize>,
        use_bland: bool,
        tol: f64,
    ) -> Option<usize> {
        self.is_basic.clear();
        self.is_basic.resize(self.cols, false);
        for &b in &self.basis {
            self.is_basic[b] = true;
        }
        self.reduced.clear();
        self.reduced
            .extend((0..self.cols).map(|j| cost.get(j).copied().unwrap_or(0.0)));
        for (i, &b) in self.basis.iter().enumerate() {
            let mu = cost.get(b).copied().unwrap_or(0.0);
            // awb-audit: allow(no-float-eq) — exact-zero sparsity skip; a tolerance
            // here would silently drop small-but-real dual contributions.
            if mu == 0.0 {
                continue;
            }
            let row = &self.data[i * self.stride..i * self.stride + self.cols];
            for range in [0..main_cols, extra.clone()] {
                for (r, &a) in self.reduced[range.clone()].iter_mut().zip(&row[range]) {
                    *r -= mu * a;
                }
            }
        }
        let mut entering: Option<(usize, f64)> = None;
        for j in (0..main_cols).chain(extra) {
            if self.is_basic[j] {
                continue;
            }
            let rc = self.reduced[j];
            if rc < -tol {
                if use_bland {
                    return Some(j);
                }
                match entering {
                    None => entering = Some((j, rc)),
                    Some((_, best)) if rc < best => entering = Some((j, rc)),
                    _ => {}
                }
            }
        }
        entering.map(|(j, _)| j)
    }

    /// Ratio test: returns the leaving row for `entering`, or `None` if the
    /// column is non-positive (unbounded direction). Ties are broken by the
    /// smallest basic variable index (lexicographic/Bland-compatible).
    fn leaving_row(&self, entering: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.num_rows() {
            let a = self.at(r, entering);
            if a > self.tol {
                let ratio = self.rhs(r) / a;
                match best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < bratio - self.tol
                            || (ratio < bratio + self.tol && self.basis[r] < self.basis[br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Removes row `r` from the tableau (redundant after phase 1).
    fn remove_row(&mut self, r: usize) {
        self.data.drain(r * self.stride..(r + 1) * self.stride);
        self.basis.remove(r);
    }

    /// Appends a column (already expressed in the current basis) just before
    /// the rhs. Grows the stride, so the storage is rebuilt once per append.
    fn push_column(&mut self, col_vals: &[f64]) {
        debug_assert_eq!(col_vals.len(), self.num_rows());
        let old_stride = self.stride;
        let mut data = Vec::with_capacity(self.num_rows() * (old_stride + 1));
        for (r, &v) in col_vals.iter().enumerate() {
            let row = &self.data[r * old_stride..(r + 1) * old_stride];
            data.extend_from_slice(&row[..self.cols]);
            data.push(v);
            data.push(row[self.cols]);
        }
        self.data = data;
        self.cols += 1;
        self.stride += 1;
    }
}

/// A pricing kernel: see [`Tableau::entering`].
type PriceFn = fn(&mut Tableau, &[f64], usize, Range<usize>, bool, f64) -> Option<usize>;

/// Runs simplex iterations to optimality for the *minimization* objective
/// `cost`, given a starting basic feasible solution already in `t`. Columns
/// `0..main_cols` and `extra` (appended columns living past the artificial
/// block) are priced; everything else is frozen out of the basis.
///
/// Returns the number of pivots performed, or
/// `Err(SolveError::Unbounded)` / `Err(SolveError::IterationLimit)`.
fn optimize(
    t: &mut Tableau,
    cost: &[f64],
    options: &SolverOptions,
    main_cols: usize,
    extra: Range<usize>,
) -> Result<usize, SolveError> {
    let m = t.num_rows();
    let priced = main_cols + extra.len();
    let limit = options.max_iterations.unwrap_or(2_000 + 200 * (m + priced));
    // Reduced-cost row maintained incrementally would be faster; recomputing
    // from the basis keeps the code simple and numerically self-correcting.
    // Unit tests may swap in the column-wise oracle kernel.
    #[cfg(not(test))]
    let price: PriceFn = Tableau::entering;
    #[cfg(test)]
    let price = tests::kernel();
    let tol = options.tolerance;
    let mut degenerate_streak = 0usize;
    for pivots in 0..limit {
        let use_bland = match options.pricing {
            Pricing::Bland => true,
            Pricing::Dantzig => false,
            Pricing::Auto => degenerate_streak >= DEGENERATE_STREAK_LIMIT,
        };
        let Some(col) = price(t, cost, main_cols, extra.clone(), use_bland, tol) else {
            return Ok(pivots); // optimal
        };
        let Some(row) = t.leaving_row(col) else {
            return Err(SolveError::Unbounded);
        };
        if t.rhs(row).abs() <= tol {
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
        t.pivot(row, col);
    }
    Err(SolveError::IterationLimit { limit })
}

/// A built simplex instance: the tableau plus the bookkeeping required to run
/// both phases, recover a [`Solution`], and append priced-in columns for the
/// incremental (column-generation) driver.
#[derive(Debug)]
pub(crate) struct Instance {
    t: Tableau,
    /// Whether each *original* row was sign-flipped during normalization.
    flips: Vec<bool>,
    /// The column holding each original row's +1 identity entry, from which
    /// dual values (and appended columns' basis representations) are
    /// recovered.
    identity_col: Vec<usize>,
    /// Original structural variable count.
    n: usize,
    artificial_start: usize,
    /// One past the last artificial column; appended columns live from here.
    artificial_end: usize,
    /// Internal minimization cost, kept in lockstep with the columns.
    cost: Vec<f64>,
    direction: Direction,
    rows_dropped: bool,
    pivots: usize,
}

impl Instance {
    pub(crate) fn build(problem: &Problem, options: &SolverOptions) -> Instance {
        let n = problem.num_vars();
        let cons = problem.constraints();
        let m = cons.len();

        // Every row gets exactly one of:
        //   Le with rhs>=0: slack; Ge with rhs>=0: surplus + artificial;
        //   Eq: artificial. Rows with negative rhs are sign-flipped first.
        let plans: Vec<(bool, Relation)> = cons
            .iter()
            .map(|c| {
                let flip = c.rhs < 0.0;
                let relation = if flip {
                    match c.relation {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    }
                } else {
                    c.relation
                };
                (flip, relation)
            })
            .collect();

        let num_slack = plans
            .iter()
            .filter(|(_, rel)| !matches!(rel, Relation::Eq))
            .count();
        let num_artificial = plans
            .iter()
            .filter(|(_, rel)| matches!(rel, Relation::Ge | Relation::Eq))
            .count();
        let cols = n + num_slack + num_artificial;
        let artificial_start = n + num_slack;
        let stride = cols + 1;

        let mut data = vec![0.0; m * stride];
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = n;
        let mut next_artificial = artificial_start;
        let mut identity_col = vec![0usize; m];
        for (r, (c, &(flip, relation))) in cons.iter().zip(&plans).enumerate() {
            let sign = if flip { -1.0 } else { 1.0 };
            let row = &mut data[r * stride..(r + 1) * stride];
            for (j, &a) in c.coeffs.iter().enumerate() {
                row[j] = sign * a;
            }
            row[cols] = sign * c.rhs;
            match relation {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    basis[r] = next_slack;
                    identity_col[r] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_artificial] = 1.0;
                    basis[r] = next_artificial;
                    identity_col[r] = next_artificial;
                    next_artificial += 1;
                }
                Relation::Eq => {
                    row[next_artificial] = 1.0;
                    basis[r] = next_artificial;
                    identity_col[r] = next_artificial;
                    next_artificial += 1;
                }
            }
        }

        // Phase-2 internal minimization cost over the original structurals.
        let mut cost = vec![0.0; cols];
        let obj = problem.objective_coeffs();
        for j in 0..n {
            cost[j] = match problem.direction() {
                Direction::Maximize => -obj[j],
                Direction::Minimize => obj[j],
            };
        }

        Instance {
            t: Tableau {
                data,
                stride,
                basis,
                cols,
                tol: options.tolerance,
                scratch: Vec::new(),
                reduced: Vec::new(),
                is_basic: Vec::new(),
            },
            flips: plans.iter().map(|&(flip, _)| flip).collect(),
            identity_col,
            n,
            artificial_start,
            artificial_end: cols,
            cost,
            direction: problem.direction(),
            rows_dropped: false,
            pivots: 0,
        }
    }

    /// Phase 1: minimize the sum of artificials, if any are present, then
    /// drive residual artificials out of the basis (dropping redundant rows).
    pub(crate) fn phase1(&mut self, options: &SolverOptions) -> Result<(), SolveError> {
        if self.artificial_end == self.artificial_start {
            return Ok(());
        }
        let mut phase1_cost = vec![0.0; self.artificial_end];
        for c in phase1_cost.iter_mut().skip(self.artificial_start) {
            *c = 1.0;
        }
        let all_cols = self.t.cols;
        self.pivots += optimize(&mut self.t, &phase1_cost, options, all_cols, 0..0)?;
        let infeasibility: f64 = self
            .t
            .basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| b >= self.artificial_start)
            .map(|(r, _)| self.t.rhs(r))
            .sum();
        if infeasibility > options.tolerance.max(1e-7) {
            return Err(SolveError::Infeasible);
        }
        // Drive any residual (zero-valued) artificials out of the basis.
        let mut r = 0;
        while r < self.t.num_rows() {
            if self.t.basis[r] >= self.artificial_start {
                let pivot_col = (0..self.artificial_start)
                    .find(|&j| self.t.at(r, j).abs() > options.tolerance.max(1e-8));
                match pivot_col {
                    Some(j) => self.t.pivot(r, j),
                    None => {
                        // Redundant row: remove it entirely.
                        self.t.remove_row(r);
                        self.rows_dropped = true;
                        continue;
                    }
                }
            }
            r += 1;
        }
        Ok(())
    }

    /// Phase 2: minimize the internal cost over structural, slack, and
    /// appended columns (artificials stay frozen out).
    pub(crate) fn phase2(&mut self, options: &SolverOptions) -> Result<(), SolveError> {
        let extra = self.artificial_end..self.t.cols;
        self.pivots += optimize(
            &mut self.t,
            &self.cost,
            options,
            self.artificial_start,
            extra,
        )?;
        Ok(())
    }

    /// Appends a structural column with the given *user-direction* objective
    /// coefficient and sparse per-original-constraint coefficients, expressed
    /// in the current basis via the identity columns. The column enters
    /// nonbasic; call [`Instance::phase2`] to re-optimize.
    ///
    /// Returns the solution-vector index of the new variable.
    pub(crate) fn add_column(
        &mut self,
        objective: f64,
        terms: &[(usize, f64)],
    ) -> Result<usize, ProblemError> {
        if self.rows_dropped {
            return Err(ProblemError::RedundantRowsEliminated);
        }
        let m = self.flips.len();
        if !objective.is_finite() {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        let mut seen = vec![false; m];
        for &(row, a) in terms {
            if row >= m {
                return Err(ProblemError::UnknownConstraint {
                    index: row,
                    declared: m,
                });
            }
            if !a.is_finite() {
                return Err(ProblemError::NonFiniteCoefficient);
            }
            if seen[row] {
                return Err(ProblemError::DuplicateConstraint { index: row });
            }
            seen[row] = true;
        }
        // The initial-tableau column is `a` with per-row sign flips; its
        // representation in the current basis is `B^{-1} a`, assembled from
        // the identity columns: `B^{-1} e_i` sits at `identity_col[i]`.
        let mut col = vec![0.0; self.t.num_rows()];
        for &(row, a) in terms {
            let signed = if self.flips[row] { -a } else { a };
            // awb-audit: allow(no-float-eq) — exact-zero sparsity skip on caller-given
            // coefficients; only bit-zero entries may be omitted from B^{-1}a.
            if signed == 0.0 {
                continue;
            }
            let ic = self.identity_col[row];
            for (r, v) in col.iter_mut().enumerate() {
                *v += signed * self.t.at(r, ic);
            }
        }
        self.t.push_column(&col);
        self.cost.push(match self.direction {
            Direction::Maximize => -objective,
            Direction::Minimize => objective,
        });
        Ok(self.n + (self.t.cols - 1 - self.artificial_end))
    }

    /// Number of variables in the solution vector (original + appended).
    pub(crate) fn num_solution_vars(&self) -> usize {
        self.n + (self.t.cols - self.artificial_end)
    }

    /// Number of original constraints (valid row indices for
    /// [`Instance::add_column`]).
    pub(crate) fn num_original_rows(&self) -> usize {
        self.flips.len()
    }

    /// Total simplex pivots performed so far, across both phases and every
    /// re-optimization.
    pub(crate) fn pivots(&self) -> usize {
        self.pivots
    }

    /// Recovers the primal/dual solution at the current (optimal) basis.
    /// `objective` must cover original + appended variables, user direction.
    pub(crate) fn extract(&self, objective: &[f64], names: Vec<String>) -> Solution {
        let mut x = vec![0.0; self.num_solution_vars()];
        for (r, &b) in self.t.basis.iter().enumerate() {
            let var = if b < self.n {
                Some(b)
            } else if b >= self.artificial_end {
                Some(self.n + (b - self.artificial_end))
            } else {
                None
            };
            if let Some(j) = var {
                // Clamp tiny negatives produced by roundoff.
                x[j] = self.t.rhs(r).max(0.0);
            }
        }
        let objective_value: f64 = objective.iter().zip(&x).map(|(c, v)| c * v).sum();

        // Dual values (shadow prices). The identity column of original row `i`
        // carries `B^{-1} e_i` in the final tableau, so the internal dual is
        // `y_i = ĉ_B · T[·][identity_col(i)]`; translate back through the
        // direction and sign normalizations. Rows dropped as redundant get 0.
        let dir_sign = match self.direction {
            Direction::Maximize => -1.0,
            Direction::Minimize => 1.0,
        };
        let multipliers: Vec<f64> = self
            .t
            .basis
            .iter()
            .map(|&b| self.cost.get(b).copied().unwrap_or(0.0))
            .collect();
        let duals: Vec<f64> = (0..self.flips.len())
            .map(|i| {
                let col = self.identity_col[i];
                let y_internal: f64 = multipliers
                    .iter()
                    .enumerate()
                    .map(|(r, &mu)| mu * self.t.at(r, col))
                    .sum();
                let flip_sign = if self.flips[i] { -1.0 } else { 1.0 };
                dir_sign * flip_sign * y_internal
            })
            .collect();
        #[cfg(feature = "debug-invariants")]
        invariants::duals_finite(&duals);
        Solution::new(x, objective_value, names, duals, self.pivots)
    }
}

/// Solves `problem`, translating to/from the internal minimization form.
pub(crate) fn solve(problem: &Problem, options: SolverOptions) -> Result<Solution, SolveError> {
    let mut inst = Instance::build(problem, &options);
    inst.phase1(&options)?;
    inst.phase2(&options)?;
    Ok(inst.extract(problem.objective_coeffs(), problem.var_names().to_vec()))
}

/// Runtime invariant guards at pivot and solve boundaries, compiled in only
/// under the `debug-invariants` feature. All checks are `debug_assert!`s, so
/// even with the feature on they vanish from release builds; enabling the
/// feature in CI's debug test leg makes the solver self-checking.
#[cfg(feature = "debug-invariants")]
mod invariants {
    use super::Tableau;

    /// Every tableau entry (including the rhs column) must stay finite: a
    /// NaN or infinity here silently corrupts every later pivot and the
    /// duals extracted from the final basis.
    pub(super) fn tableau_finite(t: &Tableau) {
        debug_assert!(
            t.data.iter().all(|v| v.is_finite()),
            "tableau contains a non-finite entry after a pivot"
        );
    }

    /// The simplex ratio test preserves primal feasibility: every basic
    /// variable's value (the rhs) stays non-negative up to tolerance.
    pub(super) fn rhs_feasible(t: &Tableau) {
        for r in 0..t.num_rows() {
            debug_assert!(
                t.rhs(r) >= -t.tol.max(1e-7),
                "pivot broke primal feasibility: rhs[{r}] = {}",
                t.rhs(r)
            );
        }
    }

    /// Extracted shadow prices feed the colgen pricing oracle; a non-finite
    /// dual would poison the reduced-cost test without failing loudly.
    pub(super) fn duals_finite(duals: &[f64]) {
        debug_assert!(
            duals.iter().all(|d| d.is_finite()),
            "extracted a non-finite dual value"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalSolver;
    use crate::problem::{Direction, Problem, Relation, VarId};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    thread_local! {
        /// The pricing kernel this thread's solves run.
        static KERNEL: Cell<PriceFn> = const { Cell::new(Tableau::entering) };
    }

    pub(super) fn kernel() -> PriceFn {
        KERNEL.with(Cell::get)
    }

    /// Runs `f` with this thread's solves priced by `kernel`.
    fn with_kernel<T>(kernel: PriceFn, f: impl FnOnce() -> T) -> T {
        let previous = KERNEL.with(|k| k.replace(kernel));
        let out = f();
        KERNEL.with(|k| k.set(previous));
        out
    }

    /// Reduced costs `(j, r_j)` of the nonbasic priced columns, computed
    /// column by column as the pricing loop did before the row-major
    /// [`Tableau::entering`].
    fn reduced_columnwise(
        t: &Tableau,
        cost: &[f64],
        main_cols: usize,
        extra: Range<usize>,
    ) -> Vec<(usize, f64)> {
        let mut multipliers = vec![0.0; t.num_rows()];
        for (i, &b) in t.basis.iter().enumerate() {
            multipliers[i] = cost.get(b).copied().unwrap_or(0.0);
        }
        (0..main_cols)
            .chain(extra)
            .filter(|j| !t.basis.contains(j))
            .map(|j| {
                let mut rc = cost.get(j).copied().unwrap_or(0.0);
                for (i, mu) in multipliers.iter().enumerate() {
                    // awb-audit: allow(no-float-eq) — exact-zero sparsity skip, as in
                    // the production kernel this oracle is diffed against.
                    if *mu != 0.0 {
                        rc -= mu * t.at(i, j);
                    }
                }
                (j, rc)
            })
            .collect()
    }

    /// The column-wise pricing kernel, kept as the oracle of
    /// [`Tableau::entering`].
    fn entering_columnwise(
        t: &mut Tableau,
        cost: &[f64],
        main_cols: usize,
        extra: Range<usize>,
        use_bland: bool,
        tol: f64,
    ) -> Option<usize> {
        let mut entering: Option<(usize, f64)> = None;
        for (j, rc) in reduced_columnwise(t, cost, main_cols, extra) {
            if rc < -tol {
                if use_bland {
                    entering = Some((j, rc));
                    break;
                }
                match entering {
                    None => entering = Some((j, rc)),
                    Some((_, best)) if rc < best => entering = Some((j, rc)),
                    _ => {}
                }
            }
        }
        entering.map(|(j, _)| j)
    }

    /// Prices every iteration with both kernels on the same tableau and
    /// panics unless each reduced cost matches bit for bit and the entering
    /// columns agree — a reduced-cost difference too small to change any
    /// pivot still fails here.
    fn entering_checked(
        t: &mut Tableau,
        cost: &[f64],
        main_cols: usize,
        extra: Range<usize>,
        use_bland: bool,
        tol: f64,
    ) -> Option<usize> {
        let expected = entering_columnwise(t, cost, main_cols, extra.clone(), use_bland, tol);
        let reference = reduced_columnwise(t, cost, main_cols, extra.clone());
        let got = t.entering(cost, main_cols, extra, use_bland, tol);
        for (j, rc) in reference {
            assert_eq!(t.reduced[j].to_bits(), rc.to_bits(), "reduced cost {j}");
        }
        assert_eq!(got, expected, "entering column");
        got
    }

    /// Runs `f` once per pricing kernel: (row-major, column-wise).
    fn both_kernels<T>(f: impl Fn() -> T) -> (T, T) {
        (f(), with_kernel(entering_columnwise, f))
    }

    /// Everything a solve reports, as bits.
    type Bits = (u64, Vec<u64>, Vec<u64>, usize);

    fn bits(s: &Solution) -> Bits {
        (
            s.objective().to_bits(),
            s.values().iter().map(|v| v.to_bits()).collect(),
            s.duals().iter().map(|v| v.to_bits()).collect(),
            s.pivots(),
        )
    }

    /// A random LP: `(direction is max, denominator, objective, rows of
    /// (coeffs, relation 0/1/2 = Le/Ge/Eq, rhs), appended columns of
    /// (objective, per-row coeffs))`, every number an integer over the
    /// denominator. Small integers with frequent zero right-hand sides make
    /// degenerate pivots and ties common; denominators 3 and 7 make pivots
    /// round, so a changed summation order shows in the bits.
    type RandomLp = (
        bool,
        i32,
        Vec<i32>,
        Vec<(Vec<i32>, usize, i32)>,
        Vec<(i32, Vec<i32>)>,
    );

    fn random_lp() -> impl Strategy<Value = RandomLp> {
        (1usize..7, 1usize..7).prop_flat_map(|(n, m)| {
            let row = (
                proptest::collection::vec(-3i32..=5, n),
                0usize..3,
                prop_oneof![Just(0i32), -4i32..=8],
            );
            let column = (-3i32..=6, proptest::collection::vec(-2i32..=4, m));
            (
                any::<bool>(),
                prop_oneof![Just(1), Just(3), Just(7)],
                proptest::collection::vec(-3i32..=6, n),
                proptest::collection::vec(row, m),
                proptest::collection::vec(column, 0..4),
            )
        })
    }

    fn build(lp: &RandomLp) -> Problem {
        let (maximize, den, objective, rows, _) = lp;
        let value = |k: i32| f64::from(k) / f64::from(*den);
        let direction = if *maximize {
            Direction::Maximize
        } else {
            Direction::Minimize
        };
        let mut p = Problem::new(direction);
        let vars: Vec<_> = objective.iter().map(|&c| p.add_var("", value(c))).collect();
        for (coeffs, relation, rhs) in rows {
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &a)| (v, value(a)))
                .collect();
            let relation = [Relation::Le, Relation::Ge, Relation::Eq][*relation];
            p.add_constraint(&terms, relation, value(*rhs)).unwrap();
        }
        p
    }

    /// Solves `lp`, then (when it solved) appends its extra columns to a
    /// warm [`IncrementalSolver`] and re-optimizes, recording every result.
    fn run(lp: &RandomLp, options: SolverOptions) -> Vec<Result<Bits, SolveError>> {
        let p = build(lp);
        let mut out = vec![p.solve_with(options).map(|s| bits(&s))];
        if let Ok(mut inc) = IncrementalSolver::new(&p, options) {
            let value = |k: i32| f64::from(k) / f64::from(lp.1);
            for (objective, coeffs) in &lp.4 {
                let terms: Vec<_> = coeffs
                    .iter()
                    .enumerate()
                    .map(|(r, &a)| (r, value(a)))
                    .collect();
                if inc.add_column("", value(*objective), &terms).is_err() {
                    break; // phase 1 dropped a redundant row
                }
                out.push(inc.reoptimize().map(|()| bits(&inc.solution())));
            }
        }
        out
    }

    /// Marshall and Suurballe's cycling example — it cycles under this
    /// solver's Dantzig rule with lowest-index ratio ties, unlike Beale's —
    /// with the objective scaled by `2^scale` (which scales every reduced
    /// cost exactly and so leaves every pricing decision unchanged).
    fn marshall_suurballe(scale: i32) -> Problem {
        let mut p = Problem::new(Direction::Minimize);
        let x: Vec<VarId> = [-10.0, 57.0, 9.0, 24.0]
            .iter()
            .map(|&c| p.add_var("", c * 2f64.powi(scale)))
            .collect();
        let rows: [([f64; 4], f64); 3] = [
            ([0.5, -5.5, -2.5, 9.0], 0.0),
            ([0.5, -1.5, -0.5, 1.0], 0.0),
            ([1.0, 0.0, 0.0, 0.0], 1.0),
        ];
        for (coeffs, rhs) in rows {
            let terms: Vec<_> = x.iter().zip(coeffs).map(|(&v, a)| (v, a)).collect();
            p.add_constraint(&terms, Relation::Le, rhs).unwrap();
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// Row-major pricing reproduces the column-wise loop bit for bit:
        /// every reduced cost, and the objective, primal, duals, pivot count
        /// and error, under every pricing rule, for cold solves and warm
        /// column appends.
        #[test]
        fn row_major_pricing_matches_columnwise(lp in random_lp(), rule in 0usize..3) {
            let pricing = [Pricing::Auto, Pricing::Dantzig, Pricing::Bland][rule];
            let options = SolverOptions {
                pricing,
                max_iterations: Some(400),
                ..SolverOptions::default()
            };
            let (rows, cols) = both_kernels(|| run(&lp, options));
            prop_assert_eq!(&rows, &cols);
            prop_assert_eq!(with_kernel(entering_checked, || run(&lp, options)), rows);
        }
    }

    /// Marshall–Suurballe instances cycle under Dantzig, so `Pricing::Auto`
    /// runs into its Bland fallback; both kernels take the same path, and
    /// pure Dantzig hits the same iteration limit.
    #[test]
    fn bland_fallback_path_is_kernel_independent() {
        for scale in -8..=8 {
            let p = marshall_suurballe(scale);
            let dantzig = SolverOptions {
                pricing: Pricing::Dantzig,
                max_iterations: Some(200),
                ..SolverOptions::default()
            };
            let (cycled, cycled_cols) = both_kernels(|| p.solve_with(dantzig).map(|s| bits(&s)));
            assert_eq!(cycled, cycled_cols);
            assert_eq!(cycled, Err(SolveError::IterationLimit { limit: 200 }));
            let (rows, cols) = both_kernels(|| p.solve().map(|s| bits(&s)));
            assert_eq!(rows, cols);
            let pivots = rows.map(|b| b.3).unwrap_or(0);
            assert!(
                pivots > DEGENERATE_STREAK_LIMIT,
                "solved in {pivots} pivots without the fallback"
            );
        }
    }

    #[test]
    fn maximize_two_vars() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 3.0);
        let y = p.add_var("y", 5.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 36.0);
        approx(s.value(x), 2.0);
        approx(s.value(y), 6.0);
    }

    #[test]
    fn minimize_with_ge_constraints_uses_phase_one() {
        // min 2x + 3y  s.t.  x + y >= 10, x >= 2  -> x=10 wait: coefficient
        // check: optimum is y=0, x=10, obj 20 (since 2 < 3).
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", 2.0);
        let y = p.add_var("y", 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 20.0);
        approx(s.value(x), 10.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + 2y = 4, x <= 2 -> x=2, y=1, obj=3.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        p.bound_var(x, 2.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 3.0);
        approx(s.value(x), 2.0);
        approx(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_is_detected() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 0.0);
        // x - y <= 1 does not bound x when y is free to grow.
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x >= 3 written as -x <= -3.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", 1.0);
        p.add_constraint(&[(x, -1.0)], Relation::Le, -3.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.value(x), 3.0);
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // Two identical equalities; phase 1 leaves a redundant artificial row.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 2.0);
    }

    #[test]
    fn degenerate_problem_terminates_with_all_pricings() {
        // Beale's classic cycling example (degenerate under naive Dantzig).
        for pricing in [Pricing::Auto, Pricing::Bland, Pricing::Dantzig] {
            let mut p = Problem::new(Direction::Minimize);
            let x1 = p.add_var("x1", -0.75);
            let x2 = p.add_var("x2", 150.0);
            let x3 = p.add_var("x3", -0.02);
            let x4 = p.add_var("x4", 6.0);
            p.add_constraint(
                &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
                Relation::Le,
                0.0,
            )
            .unwrap();
            p.add_constraint(
                &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
                Relation::Le,
                0.0,
            )
            .unwrap();
            p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0).unwrap();
            let result = p.solve_with(SolverOptions {
                pricing,
                ..SolverOptions::default()
            });
            match (pricing, result) {
                // Pure Dantzig pricing is *allowed* to cycle on Beale's
                // example; hitting the iteration cap is acceptable there.
                (Pricing::Dantzig, Err(SolveError::IterationLimit { .. })) => {}
                (_, Ok(s)) => approx(s.objective(), -0.05),
                (p, Err(e)) => panic!("{p:?} failed: {e}"),
            }
        }
    }

    #[test]
    fn zero_constraint_problem_with_bounded_objective() {
        // No constraints and a zero objective: optimum 0 at the origin.
        let mut p = Problem::new(Direction::Maximize);
        let _x = p.add_var("x", 0.0);
        let s = p.solve().unwrap();
        approx(s.objective(), 0.0);
    }

    #[test]
    fn minimization_of_nonnegative_vars_is_zero_at_origin() {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", 5.0);
        let y = p.add_var("y", 7.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 100.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 0.0);
        approx(s.value(x), 0.0);
        approx(s.value(y), 0.0);
    }

    #[test]
    fn scheduling_shaped_lp_matches_hand_solution() {
        // A miniature of the paper's Eq. 6: maximize f with two independent
        // sets of rates (54, 0) and (0, 54) serving a 2-link path:
        //   f <= 54*l1, f <= 54*l2, l1 + l2 <= 1  ->  f = 27.
        let mut p = Problem::new(Direction::Maximize);
        let f = p.add_var("f", 1.0);
        let l1 = p.add_var("l1", 0.0);
        let l2 = p.add_var("l2", 0.0);
        p.add_constraint(&[(l1, 1.0), (l2, 1.0)], Relation::Le, 1.0)
            .unwrap();
        p.add_constraint(&[(l1, 54.0), (f, -1.0)], Relation::Ge, 0.0)
            .unwrap();
        p.add_constraint(&[(l2, 54.0), (f, -1.0)], Relation::Ge, 0.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 27.0);
    }

    #[test]
    fn solution_reports_pivot_count() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 2.0).unwrap();
        let s = p.solve().unwrap();
        // One pivot brings x into the basis; no phase 1 needed.
        assert_eq!(s.pivots(), 1);
    }
}

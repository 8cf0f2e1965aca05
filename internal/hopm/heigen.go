package hopm

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// This file adds the other eigenpair flavors that rely on the STTSV
// kernel (§1 cites algorithms "for computing other types of eigenvalues
// and eigenvectors, including H-eigenvalues"):
//
//   - HEigenPowerMethod: the Ng–Qi–Zhou (NQZ) iteration for the largest
//     H-eigenvalue of a nonnegative symmetric tensor, where an H-eigenpair
//     satisfies (A ×₂x ×₃x)_i = λ·x_i² with x entrywise nonnegative;
//   - AdaptivePowerMethod: SS-HOPM with a dynamically shrinking shift,
//     which converges like the safely-shifted method but avoids the
//     slow-down of a large static shift;
//   - EnumerateEigenpairs: a multi-start driver that collects distinct
//     converged Z-eigenpairs.

// HEigenpair is an H-eigenpair candidate of a nonnegative tensor.
type HEigenpair struct {
	// Lambda is the H-eigenvalue estimate.
	Lambda float64
	// X is the eigenvector, normalized to Σx_i² ... specifically scaled so
	// that Σ x_i³ = 1 (the natural normalization for order-3 H-eigenpairs).
	X []float64
	// Iterations counts STTSV evaluations.
	Iterations int
	// Residual is ‖A×₂x×₃x − λ·x^[2]‖₂ at termination, with x^[2] the
	// entrywise square.
	Residual float64
	// Converged reports whether the λ bounds met the tolerance.
	Converged bool
}

// HEigenPowerMethod runs the NQZ iteration: starting from a positive
// vector, y = A ×₂x ×₃x (entrywise positive for an irreducible
// nonnegative tensor), next x = y^{1/2} normalized. The eigenvalue is
// bracketed by min_i y_i/x_i² <= λ <= max_i y_i/x_i², and the bracket
// width is the convergence measure. The oracle must come from a
// nonnegative tensor; nonpositive intermediate values are an error.
func HEigenPowerMethod(f STTSV, n int, maxIter int, tol float64) (*HEigenpair, error) {
	if n < 1 {
		return nil, fmt.Errorf("hopm: dimension %d", n)
	}
	if maxIter <= 0 {
		maxIter = 5000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	// Positive start.
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	normalizeCubic(x)

	pair := &HEigenpair{}
	for it := 1; it <= maxIter; it++ {
		y := f(x)
		pair.Iterations = it
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range y {
			if y[i] < 0 {
				return nil, fmt.Errorf("hopm: NQZ iterate turned negative at %d (tensor not nonnegative?)", i)
			}
			x2 := x[i] * x[i]
			if x2 == 0 {
				// Reducible tensor: component decoupled; treat ratio as
				// unconstrained.
				continue
			}
			r := y[i] / x2
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		if math.IsInf(lo, 1) {
			return nil, fmt.Errorf("hopm: NQZ iterate collapsed to zero")
		}
		pair.Lambda = (lo + hi) / 2
		pair.X = append(pair.X[:0], x...)
		res := 0.0
		for i := range y {
			d := y[i] - pair.Lambda*x[i]*x[i]
			res += d * d
		}
		pair.Residual = math.Sqrt(res)
		if hi-lo <= tol*(1+math.Abs(hi)) {
			pair.Converged = true
			return pair, nil
		}
		for i := range x {
			x[i] = math.Sqrt(y[i])
		}
		if normalizeCubic(x) == 0 {
			return nil, fmt.Errorf("hopm: NQZ iterate collapsed to zero")
		}
	}
	return pair, nil
}

// normalizeCubic scales x >= 0 so that Σ x_i³ = 1, returning the original
// cubic norm.
func normalizeCubic(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v * v
	}
	if s <= 0 {
		return 0
	}
	c := math.Cbrt(s)
	for i := range x {
		x[i] /= c
	}
	return c
}

// AdaptivePowerMethod runs SS-HOPM with a geometrically shrinking shift:
// start from the safe SuggestedShift-style value, and whenever the
// eigenvalue estimate moves monotonically for a few steps, halve the
// shift; on non-monotone behavior (the iteration would oscillate), double
// it back. In practice this converges in far fewer iterations than the
// static safe shift while retaining its robustness.
func AdaptivePowerMethod(f STTSV, n int, initialShift float64, opts Options) (*Eigenpair, error) {
	if initialShift <= 0 {
		return nil, fmt.Errorf("hopm: adaptive method needs a positive initial shift")
	}
	o := opts.withDefaults()
	x := make([]float64, n)
	if o.X0 != nil {
		if len(o.X0) != n {
			return nil, fmt.Errorf("hopm: X0 length %d, want %d", len(o.X0), n)
		}
		copy(x, o.X0)
	} else {
		for i := range x {
			x[i] = math.Sin(float64(i+1) + float64(o.Seed))
		}
	}
	if la.Normalize(x) == 0 {
		return nil, fmt.Errorf("hopm: zero starting vector")
	}

	shift := initialShift
	pair := &Eigenpair{X: x}
	prev := math.Inf(1)
	lastDelta := math.Inf(1)
	calm := 0
	for it := 1; it <= o.MaxIter; it++ {
		y := f(x)
		lambda := la.Dot(x, y)
		pair.Lambda = lambda
		pair.Iterations = it
		res := 0.0
		for i := range y {
			d := y[i] - lambda*x[i]
			res += d * d
		}
		pair.Residual = math.Sqrt(res)
		delta := math.Abs(lambda - prev)
		if delta <= o.Tol*(1+math.Abs(lambda)) {
			pair.Converged = true
			break
		}
		// Shrink the shift while progress is smooth; back off on
		// oscillation (eigenvalue estimate bouncing).
		if delta < lastDelta {
			calm++
			if calm >= 3 && shift > o.Tol {
				shift /= 2
				calm = 0
			}
		} else {
			shift = math.Min(shift*4, initialShift)
			calm = 0
		}
		lastDelta = delta
		prev = lambda
		la.Axpy(shift, x, y)
		if la.Normalize(y) == 0 {
			pair.Singular = true
			break
		}
		copy(x, y)
	}
	return pair, nil
}

// EnumerateEigenpairs runs the (shifted) power method from many seeds and
// returns the distinct converged Z-eigenpairs found, sorted by decreasing
// |λ|. Two pairs are considered the same when their eigenvalues agree to
// within matchTol and their eigenvectors align up to sign.
func EnumerateEigenpairs(f STTSV, n, restarts int, opts Options, matchTol float64) ([]*Eigenpair, error) {
	if matchTol <= 0 {
		matchTol = 1e-6
	}
	var found []*Eigenpair
	for s := 0; s < restarts; s++ {
		o := opts
		o.Seed = opts.Seed + int64(s)*7919
		pair, err := PowerMethod(f, n, o)
		if err != nil {
			return nil, err
		}
		if !pair.Converged {
			continue
		}
		dup := false
		for _, g := range found {
			if math.Abs(g.Lambda-pair.Lambda) <= matchTol*(1+math.Abs(g.Lambda)) &&
				math.Abs(math.Abs(la.Dot(g.X, pair.X))-1) <= matchTol {
				dup = true
				break
			}
		}
		if !dup {
			found = append(found, pair)
		}
	}
	// Sort by |λ| descending (insertion sort; the list is short).
	for i := 1; i < len(found); i++ {
		p := found[i]
		j := i - 1
		for j >= 0 && math.Abs(found[j].Lambda) < math.Abs(p.Lambda) {
			found[j+1] = found[j]
			j--
		}
		found[j+1] = p
	}
	return found, nil
}

package symbolic

// This file implements Algorithm 1 of the paper: predicate reduction.
// A DNF's conjuncts are first reduced independently (which our
// representation does by construction — per-term constraints are always
// normalized interval/categorical sets), then pairs of conjuncts are
// repeatedly combined when one is a subset of the other in at least
// N−1 of the N dimensions of their union, mirroring the three
// two-dimensional cases of Fig. 2:
//
//	(i)   full subset            → drop the smaller conjunct
//	(ii)  equal in all but one   → union the remaining dimension
//	(iii) subset in all but one  → carve the overlap out of the larger
//	                               region's remaining dimension, making
//	                               the pair disjoint
//
// The loop runs until a fixpoint or until the iteration budget is
// exhausted (the paper uses a wall-clock timeout; a deterministic
// iteration budget keeps runs reproducible).

// ReduceBudget bounds the pairwise-reduction work per Reduce call.
// The default is generous for the predicate sizes exploratory queries
// produce (tens of atoms).
const ReduceBudget = 10_000

// Reduce simplifies the predicate per Algorithm 1 and returns the
// reduced DNF. Reduction preserves semantics exactly.
func Reduce(d DNF) DNF {
	return ReduceWithBudget(d, ReduceBudget)
}

// ReduceWithBudget is Reduce with an explicit pairwise-work budget.
func ReduceWithBudget(d DNF, budget int) DNF {
	// Step 1-2: drop unsatisfiable conjuncts (per-conjunct reduction is
	// inherent in the normalized constraint representation).
	conjs := make([]Conjunct, 0, len(d.conjs))
	for _, c := range d.conjs {
		if !c.Empty() {
			conjs = append(conjs, c)
		}
	}

	// Step 3: pairwise cross-conjunct reduction until fixpoint/budget.
	changed := true
	for changed && budget > 0 {
		changed = false
		for i := 0; i < len(conjs) && budget > 0; i++ {
			for j := i + 1; j < len(conjs) && budget > 0; j++ {
				budget--
				a, b, act := reduceUnionConjunctives(conjs[i], conjs[j])
				switch act {
				case actNone:
					continue
				case actMerged:
					conjs[i] = a
					conjs = append(conjs[:j], conjs[j+1:]...)
					changed = true
					j--
				case actRewrote:
					conjs[i], conjs[j] = a, b
					if conjs[j].Empty() {
						conjs = append(conjs[:j], conjs[j+1:]...)
						j--
					}
					changed = true
				}
			}
		}
	}
	return DNF{conjs: conjs}
}

type reduceAction int

const (
	actNone reduceAction = iota
	actMerged
	actRewrote
)

// reduceUnionConjunctives implements ReduceUnionConjunctives of
// Algorithm 1 for a pair of conjuncts: it looks for a dimension such
// that one conjunct is a subset of the other in every *other* dimension,
// then reduces the union along the remaining dimension.
func reduceUnionConjunctives(c1, c2 Conjunct) (a, b Conjunct, act reduceAction) {
	// Classify each dimension of the union in one walk; a dimension
	// differs when neither side is a subset of the other.
	var (
		diffs, c1Out, c2Out      int // dims that differ; where c1 ⊄ c2; where c2 ⊄ c1
		diff1, diff2             *Term
		c1NotSubDim, c2NotSubDim string
		typeConflict             bool
	)
	zip(c1.terms, c2.terms, nameOf, func(x, y *Term) bool {
		if x != nil && y != nil && x.Con.typeMismatch(y.Con) {
			typeConflict = true
			return false
		}
		t := x
		if t == nil {
			t = y
		}
		sub12, sub21 := subset(x, y), subset(y, x)
		if !sub12 || !sub21 {
			diffs++
			diff1, diff2 = x, y
		}
		if !sub12 {
			c1Out++
			c1NotSubDim = t.Name
		}
		if !sub21 {
			c2Out++
			c2NotSubDim = t.Name
		}
		return true
	})
	if typeConflict {
		return c1, c2, actNone
	}

	// Case (i): full containment — drop the contained conjunct.
	if c1Out == 0 {
		return c2, c1, actMerged
	}
	if c2Out == 0 {
		return c1, c2, actMerged
	}

	// Case (ii): equal in all dims but one — union the differing dim.
	// Both conjuncts constrain it: an unconstrained side would contain
	// the other there, and case (i) would have taken the pair.
	if diffs == 1 {
		u, err := diff1.Con.Union(diff2.Con)
		if err != nil {
			// Mixed-kind constraints on one term: leave the pair
			// unreduced. Reduction is an optimization, so skipping a
			// step preserves semantics. (The typeConflict check above
			// makes this unreachable in practice.)
			return c1, c2, actNone
		}
		return c1.with(diff1.Name, u), c2, actMerged
	}

	// Case (iii): c2 ⊆ c1 in all dims except exactly one — make the
	// conjuncts disjoint by removing c1's overlap from c2 along that
	// dimension (and symmetrically). Only worthwhile if they overlap.
	if c2Out == 1 {
		return carveOverlap(c1, c2, c2NotSubDim)
	}
	if c1Out == 1 {
		b2, a2, act := carveOverlap(c2, c1, c1NotSubDim)
		return a2, b2, act
	}
	return c1, c2, actNone
}

// carveOverlap handles case (iii): small ⊆ big in every dimension
// except dim; shrink small's dim-constraint by subtracting big's, which
// preserves the union while making the pair disjoint.
func carveOverlap(big, small Conjunct, dim string) (a, b Conjunct, act reduceAction) {
	// small ⊄ big along dim, so big constrains it.
	bigDim, _ := big.Constraint(dim)
	smallDim, ok := small.Constraint(dim)
	if !ok {
		smallDim = fullLike(bigDim)
	}
	inter := smallDim.Intersect(bigDim)
	if inter.Empty() {
		return big, small, actNone // already disjoint along dim
	}
	var carved Constraint
	if smallDim.Numeric {
		carved = NumConstraint(smallDim.Ivs.Minus(bigDim.Ivs))
	} else {
		carved = CatConstraint(smallDim.Cat.Intersect(bigDim.Cat.Complement()))
	}
	// Reduction must be monotone in formula size: keep the carve only if
	// it does not inflate the conjunct (it always preserves semantics,
	// but carving an unconstrained dimension would add atoms).
	if !carved.Empty() && carved.AtomCount() > smallDim.AtomCount() {
		return big, small, actNone
	}
	return big, small.with(dim, carved), actRewrote
}

// Inter returns the reduced intersection predicate INTER(p1, p2) = p1 ∧ p2:
// the tuples where a new invocation may reuse materialized results (§3.2).
func Inter(p1, p2 DNF) DNF { return Reduce(p1.And(p2)) }

// Diff returns the reduced difference predicate DIFF(p1, p2) = ¬p1 ∧ p2:
// the tuples where reuse is not possible and the UDF must run (§3.2).
func Diff(p1, p2 DNF) DNF { return Reduce(p1.Not().And(p2)) }

// Union returns the reduced union predicate UNION(p1, p2) = p1 ∨ p2:
// the tuples with materialized results after both invocations (§3.2).
func Union(p1, p2 DNF) DNF { return Reduce(p1.Or(p2)) }

package symbolic

// Stats supplies per-term value distributions for selectivity
// estimation. The catalog implements it with histograms built at load
// time (for table columns) and with profiled output distributions (for
// UDF result terms), following the paper's use of histogram-based
// selectivity estimation from traditional DBMSs (§4.2).
type Stats interface {
	// SelNumeric estimates the fraction of tuples whose value for term
	// falls in the interval set.
	SelNumeric(term string, ivs IntervalSet) float64
	// SelCategorical estimates the fraction of tuples whose value for
	// term satisfies the categorical constraint.
	SelCategorical(term string, cat CatSet) float64
}

// Selectivity estimates the fraction of tuples satisfying the predicate
// under the usual attribute-independence assumption: conjunct
// selectivity is the product of per-term selectivities, and — because
// Reduce leaves conjuncts (nearly) disjoint — the DNF selectivity is
// the capped sum over conjuncts with a first-order overlap correction
// for small disjunct counts.
func Selectivity(d DNF, stats Stats) float64 {
	if d.IsFalse() {
		return 0
	}
	sels := make([]float64, len(d.conjs))
	for i, c := range d.conjs {
		sels[i] = conjunctSelectivity(c, stats)
	}
	total := 0.0
	for _, s := range sels {
		total += s
	}
	// First-order inclusion-exclusion correction, affordable for the
	// small disjunct counts reduction produces.
	if len(d.conjs) > 1 && len(d.conjs) <= 8 {
		for i := 0; i < len(d.conjs); i++ {
			for j := i + 1; j < len(d.conjs); j++ {
				inter := d.conjs[i].Intersect(d.conjs[j])
				if !inter.Empty() {
					total -= conjunctSelectivity(inter, stats)
				}
			}
		}
	}
	return clamp01(total)
}

func conjunctSelectivity(c Conjunct, stats Stats) float64 {
	sel := 1.0
	for _, t := range c.terms {
		var s float64
		if t.Con.Numeric {
			s = stats.SelNumeric(t.Name, t.Con.Ivs)
		} else {
			s = stats.SelCategorical(t.Name, t.Con.Cat)
		}
		sel *= clamp01(s)
	}
	return sel
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// UniformStats is a Stats implementation over a uniform numeric range
// and a uniform categorical domain; useful for tests and as a fallback
// when no histogram exists for a term.
type UniformStats struct {
	// Lo, Hi bound the assumed numeric domain.
	Lo, Hi float64
	// DomainSize is the assumed number of distinct categorical values.
	DomainSize int
}

// SelNumeric implements Stats assuming a uniform distribution on [Lo, Hi].
func (u UniformStats) SelNumeric(_ string, ivs IntervalSet) float64 {
	width := u.Hi - u.Lo
	if width <= 0 {
		return 1
	}
	covered := 0.0
	for _, iv := range ivs.Intervals() {
		lo, hi := iv.Lo, iv.Hi
		if lo < u.Lo {
			lo = u.Lo
		}
		if hi > u.Hi {
			hi = u.Hi
		}
		if hi > lo {
			covered += hi - lo
		}
	}
	return clamp01(covered / width)
}

// SelCategorical implements Stats assuming DomainSize equally likely values.
func (u UniformStats) SelCategorical(_ string, cat CatSet) float64 {
	n := u.DomainSize
	if n <= 0 {
		n = 10
	}
	frac := float64(len(cat.Vals)) / float64(n)
	if cat.Negated {
		return clamp01(1 - frac)
	}
	return clamp01(frac)
}

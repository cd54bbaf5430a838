// Package udf implements the UDF runtime and the UDFManager of §3.1:
// UDF signatures, the per-signature aggregated predicate p_u, the
// binding from signatures to materialized views, cost-charged model
// evaluation, the FunCache tuple-level result cache baseline, and the
// demand/reuse counters behind Table 2 (hit percentage) and Table 3
// (#DI / #TI).
package udf

import (
	"fmt"
	"sort"
	"strings"

	"eva/internal/expr"
)

// Signature is a UDF's unique fingerprint S_u = [N_u; I_u]: the UDF
// name plus the set of sources (columns of the input video or outputs
// of other UDFs) it reads (§3.1 step ②), qualified by the source
// table the inputs come from. EVA reuses results across UDF
// occurrences with identical signatures; qualification by table keeps
// invocations over different videos — and different sessions'
// private tables — in disjoint views and aggregated predicates, so a
// frame id from one video can never serve a lookup against another.
type Signature struct {
	Table  string
	Name   string
	Inputs []string
}

// NewSignature builds a signature from the source table, a UDF name
// and the argument expressions of one of its invocations. Argument
// columns are normalized (lower-cased, sorted) so that syntactic
// argument order does not split signatures. An empty table yields an
// unqualified signature (unit-test convenience).
func NewSignature(table, name string, args []expr.Expr) Signature {
	inputSet := map[string]struct{}{}
	for _, a := range args {
		for _, c := range expr.CollectColumns(a) {
			inputSet[strings.ToLower(c)] = struct{}{}
		}
		for _, call := range expr.CollectCalls(a) {
			inputSet[strings.ToLower(call.Fn)] = struct{}{}
		}
	}
	inputs := make([]string, 0, len(inputSet))
	for c := range inputSet {
		inputs = append(inputs, c)
	}
	sort.Strings(inputs)
	return Signature{Table: strings.ToLower(table), Name: strings.ToLower(name), Inputs: inputs}
}

// Key returns the canonical string form used as a map key and as the
// materialized view name, qualified by the source table when set.
func (s Signature) Key() string {
	base := s.Name + "[" + strings.Join(s.Inputs, ",") + "]"
	if s.Table == "" {
		return base
	}
	return s.Table + "." + base
}

// String implements fmt.Stringer.
func (s Signature) String() string { return s.Key() }

// KeyColumns maps the signature's inputs to the view key columns that
// identify one invocation: the frame payload column is identified by
// the frame id, every other input column keys as itself, and the frame
// id is a key column of every view (storage.Engine.CreateView), so a
// call without a frame argument is keyed per frame too. Inputs are
// sorted, so a detector invoked as f(frame) keys by [id],
// CarType(frame, bbox) by [bbox, id] and Area(bbox) by [bbox, id].
func (s Signature) KeyColumns() []string {
	out := make([]string, 0, len(s.Inputs))
	seen := map[string]struct{}{}
	for _, in := range s.Inputs {
		col := in
		if col == "frame" {
			col = "id"
		}
		if _, dup := seen[col]; dup {
			continue
		}
		seen[col] = struct{}{}
		out = append(out, col)
	}
	if _, keyed := seen["id"]; !keyed {
		out = append(out, "id")
	}
	return out
}

// ViewName returns the storage name of the signature's view.
func (s Signature) ViewName() string {
	return fmt.Sprintf("udf_%s", strings.NewReplacer("[", "_", "]", "", ",", "_", ".", "_").Replace(s.Key()))
}

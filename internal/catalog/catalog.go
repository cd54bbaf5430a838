// Package catalog maintains EVA's metadata: video tables and their
// schemas, UDF definitions (logical type, accuracy, profiled cost,
// output schema), and the statistics the optimizer's selectivity
// estimation consumes.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"eva/internal/types"
	"eva/internal/vision"
)

// VideoSchema is the schema of a loaded video table: a frame id, a
// timestamp in seconds, and the frame payload.
var VideoSchema = types.MustSchema(
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "seconds", Kind: types.KindFloat},
	types.Column{Name: "frame", Kind: types.KindBytes},
)

// DetectorSchema is the output schema of object-detection UDFs: one row
// per detection, joined against the input frame by the Apply operator.
var DetectorSchema = types.MustSchema(
	types.Column{Name: "label", Kind: types.KindString},
	types.Column{Name: "bbox", Kind: types.KindString},
	types.Column{Name: "score", Kind: types.KindFloat},
	types.Column{Name: "area", Kind: types.KindFloat},
)

// Table describes a video table registered with the catalog.
type Table struct {
	Name    string
	Schema  types.Schema
	Dataset vision.Dataset
	Stats   *Stats
}

// RowCount returns the number of frames.
func (t *Table) RowCount() int64 { return int64(t.Dataset.Frames) }

// UDFKind distinguishes how a UDF is applied.
type UDFKind int

// UDF kinds.
const (
	// KindTableUDF produces multiple output rows per input row and is
	// bound with CROSS APPLY (e.g. object detectors).
	KindTableUDF UDFKind = iota
	// KindScalarUDF produces one value per input row and appears inside
	// predicates or projections (e.g. CarType, ColorDet).
	KindScalarUDF
)

// UDF is a registered user-defined function wrapping a vision model.
type UDF struct {
	Name        string
	Kind        UDFKind
	LogicalType string
	Accuracy    vision.AccuracyLevel
	Cost        time.Duration // profiled per-tuple evaluation cost (c_e)
	Device      string
	Inputs      []string     // input column names
	Outputs     types.Schema // output columns added by the UDF
	Impl        string       // implementation path (CREATE UDF ... IMPL)
	// Expensive marks the UDF as a materialization candidate; the
	// optimizer profiles cost against a threshold (§3.1 step ①).
	Expensive bool

	key string // Name lower-cased; fixed by RegisterUDF
}

// Key returns the UDF's canonical name — Name in lower case, the form
// every per-UDF table (counters, breakers, fault sites) is keyed by —
// fixed at registration so the evaluation path never folds case.
func (u *UDF) Key() string { return u.key }

// OutputColumn returns the single output column name of a scalar UDF.
func (u *UDF) OutputColumn() string {
	if len(u.Outputs) == 0 {
		return ""
	}
	return u.Outputs[0].Name
}

// Catalog is the metadata store. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table // guarded by mu
	udfs   map[string]*UDF   // guarded by mu
}

// New returns a catalog pre-populated with the built-in model zoo
// (the physical UDFs of Table 3 and Table 5 plus the specialized
// filter), mirroring the CREATE UDF statements of Listing 2.
func New() *Catalog {
	c := &Catalog{tables: map[string]*Table{}, udfs: map[string]*UDF{}}
	for _, name := range []string{vision.YoloTiny, vision.FasterRCNN50, vision.FasterRCNN101} {
		p, _ := vision.ProfileFor(name)
		c.mustRegister(&UDF{
			Name: name, Kind: KindTableUDF, LogicalType: p.LogicalType,
			Accuracy: p.Accuracy, Cost: p.Cost, Device: p.Device,
			Inputs: []string{"frame"}, Outputs: DetectorSchema,
			Impl: "builtin:" + name, Expensive: true,
		})
	}
	scalarOut := func(name string, kind types.Kind) types.Schema {
		return types.MustSchema(types.Column{Name: name, Kind: kind})
	}
	for _, s := range []struct {
		model string
		out   types.Schema
	}{
		{vision.CarTypeModel, scalarOut("cartype_out", types.KindString)},
		{vision.ColorDetModel, scalarOut("colordet_out", types.KindString)},
		{vision.LicenseModel, scalarOut("license_out", types.KindString)},
	} {
		p, _ := vision.ProfileFor(s.model)
		c.mustRegister(&UDF{
			Name: s.model, Kind: KindScalarUDF, LogicalType: p.LogicalType,
			Accuracy: p.Accuracy, Cost: p.Cost, Device: p.Device,
			Inputs: []string{"frame", "bbox"}, Outputs: s.out,
			Impl: "builtin:" + s.model, Expensive: true,
		})
	}
	fp, _ := vision.ProfileFor(vision.VehicleFilter)
	c.mustRegister(&UDF{
		Name: vision.VehicleFilter, Kind: KindScalarUDF, LogicalType: fp.LogicalType,
		Accuracy: fp.Accuracy, Cost: fp.Cost, Device: fp.Device,
		Inputs: []string{"frame"}, Outputs: scalarOut("vehiclefilter_out", types.KindBool),
		Impl: "builtin:" + vision.VehicleFilter, Expensive: true,
	})
	// AREA is the canonical inexpensive UDF the optimizer filters out
	// of materialization candidates (§3.1).
	c.mustRegister(&UDF{
		Name: "Area", Kind: KindScalarUDF, LogicalType: "Area",
		Cost: 2 * time.Microsecond, Device: "CPU",
		Inputs: []string{"bbox"}, Outputs: scalarOut("area_out", types.KindFloat),
		Impl: "builtin:Area", Expensive: false,
	})
	return c
}

func (c *Catalog) mustRegister(u *UDF) {
	if err := c.RegisterUDF(u); err != nil {
		panic(err)
	}
}

// RegisterUDF adds or replaces a UDF definition.
func (c *Catalog) RegisterUDF(u *UDF) error {
	if u.Name == "" {
		return fmt.Errorf("catalog: UDF with empty name")
	}
	u.key = strings.ToLower(u.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.udfs[u.key] = u
	return nil
}

// UDF returns the named UDF definition. A canonical name (UDF.Key,
// which is what bound expressions and the apply operator pass on every
// evaluated row) is found as it is; any other spelling is folded.
func (c *Catalog) UDF(name string) (*UDF, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.udfs[name]
	if !ok {
		u, ok = c.udfs[strings.ToLower(name)]
	}
	if !ok {
		return nil, fmt.Errorf("catalog: unknown UDF %q", name)
	}
	return u, nil
}

// HasUDF reports whether the name is a registered UDF.
func (c *Catalog) HasUDF(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.udfs[strings.ToLower(name)]
	return ok
}

// UDFsForLogical returns every UDF implementing the logical type with
// accuracy ≥ min, ascending by cost with name as tiebreaker. The
// tiebreaker matters: candidates come out of a map, and equal-cost
// UDFs in map order would leak iteration nondeterminism into plan
// choice (and therefore into simulated time).
func (c *Catalog) UDFsForLogical(logical string, min vision.AccuracyLevel) []*UDF {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*UDF
	for _, u := range c.udfs {
		if strings.EqualFold(u.LogicalType, logical) && u.Accuracy >= min {
			out = append(out, u)
		}
	}
	slices.SortFunc(out, func(a, b *UDF) int {
		return cmp.Or(cmp.Compare(a.Cost, b.Cost), strings.Compare(a.Name, b.Name))
	})
	return out
}

// RegisterVideo creates a table over the dataset, computing statistics
// by sampling the synthetic world (the moral equivalent of LOAD VIDEO
// followed by ANALYZE).
func (c *Catalog) RegisterVideo(name string, ds vision.Dataset) (*Table, error) {
	return c.RegisterVideoStats(name, ds, BuildStats(ds))
}

// RegisterVideoStats creates a table over the dataset with statistics
// the caller already holds: BuildStats' for this dataset, or their
// decoded copy from the table's record.
func (c *Catalog) RegisterVideoStats(name string, ds vision.Dataset, stats *Stats) (*Table, error) {
	t := &Table{Name: name, Schema: VideoSchema.Clone(), Dataset: ds, Stats: stats}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[strings.ToLower(name)]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Tables returns all registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

package catalog

import (
	"math"
	"testing"
	"time"

	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/vision"
)

func TestBuiltinUDFs(t *testing.T) {
	c := New()
	for _, name := range []string{vision.YoloTiny, vision.FasterRCNN50, vision.FasterRCNN101, "CarType", "ColorDet", "License", "Area", "VehicleFilter"} {
		u, err := c.UDF(name)
		if err != nil {
			t.Fatalf("missing builtin %s: %v", name, err)
		}
		if u.Name != name {
			t.Errorf("name mismatch: %q", u.Name)
		}
	}
	// Case-insensitive lookup.
	if !c.HasUDF("cartype") || c.HasUDF("ghost") {
		t.Error("HasUDF misbehaves")
	}
	u, _ := c.UDF("FasterRCNNResnet50")
	if u.Kind != KindTableUDF || u.Cost != 99*time.Millisecond || !u.Expensive {
		t.Errorf("FRCNN50 definition wrong: %+v", u)
	}
	area, _ := c.UDF("Area")
	if area.Expensive {
		t.Error("Area must be inexpensive (the §3.1 candidate filter)")
	}
	ct, _ := c.UDF("CarType")
	if ct.Kind != KindScalarUDF || ct.OutputColumn() != "cartype_out" {
		t.Errorf("CarType definition wrong: %+v", ct)
	}
}

func TestUDFsForLogical(t *testing.T) {
	c := New()
	all := c.UDFsForLogical("ObjectDetector", vision.AccuracyLow)
	if len(all) != 3 || all[0].Name != vision.YoloTiny {
		t.Fatalf("detectors = %v", names(all))
	}
	med := c.UDFsForLogical("ObjectDetector", vision.AccuracyMedium)
	if len(med) != 2 || med[0].Name != vision.FasterRCNN50 {
		t.Fatalf("medium+ detectors = %v", names(med))
	}
	high := c.UDFsForLogical("ObjectDetector", vision.AccuracyHigh)
	if len(high) != 1 || high[0].Name != vision.FasterRCNN101 {
		t.Fatalf("high detectors = %v", names(high))
	}
}

func names(us []*UDF) []string {
	out := make([]string, len(us))
	for i, u := range us {
		out[i] = u.Name
	}
	return out
}

func TestRegisterUDFValidation(t *testing.T) {
	c := New()
	if err := c.RegisterUDF(&UDF{}); err == nil {
		t.Error("empty name should error")
	}
	custom := &UDF{Name: "RedSUV", Kind: KindScalarUDF, LogicalType: "RedSUV",
		Cost: 7 * time.Millisecond, Outputs: types.MustSchema(types.Column{Name: "redsuv_out", Kind: types.KindBool})}
	if err := c.RegisterUDF(custom); err != nil {
		t.Fatal(err)
	}
	got, err := c.UDF("redsuv")
	if err != nil || got.Name != "RedSUV" {
		t.Errorf("custom UDF: %v, %v", got, err)
	}
	if _, err := c.UDF("nothere"); err == nil {
		t.Error("unknown UDF should error")
	}
}

func TestRegisterVideo(t *testing.T) {
	c := New()
	tbl, err := c.RegisterVideo("video", vision.Jackson)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 14000 {
		t.Errorf("RowCount = %d", tbl.RowCount())
	}
	if !tbl.Schema.Equal(VideoSchema) {
		t.Errorf("schema = %s", tbl.Schema)
	}
	if _, err := c.RegisterVideo("video", vision.Jackson); err == nil {
		t.Error("duplicate table should error")
	}
	got, err := c.Table("VIDEO")
	if err != nil || got != tbl {
		t.Error("case-insensitive table lookup failed")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if len(c.Tables()) != 1 {
		t.Errorf("Tables = %v", c.Tables())
	}
}

func TestHistogramFraction(t *testing.T) {
	samples := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		samples = append(samples, float64(i)/1000) // uniform [0,1)
	}
	h := NewHistogram(0, 1, 20, samples)
	iv := symbolic.NewIntervalSet(symbolic.Interval{Lo: 0.25, Hi: 0.75})
	if got := h.Fraction(iv); math.Abs(got-0.5) > 0.05 {
		t.Errorf("Fraction([0.25,0.75]) = %v, want 0.5", got)
	}
	if got := h.Fraction(symbolic.FullIntervalSet()); math.Abs(got-1) > 0.01 {
		t.Errorf("Fraction(full) = %v", got)
	}
	if got := h.Fraction(symbolic.IntervalSet{}); got != 0 {
		t.Errorf("Fraction(empty) = %v", got)
	}
	// Point predicate gets a small nonzero fraction.
	pt := symbolic.NewIntervalSet(symbolic.Point(0.5))
	if got := h.Fraction(pt); got <= 0 || got > 0.01 {
		t.Errorf("Fraction(point) = %v", got)
	}
	// Empty histogram falls back to 0.5.
	empty := &Histogram{}
	if got := empty.Fraction(iv); got != 0.5 {
		t.Errorf("empty histogram fraction = %v", got)
	}
}

func TestBuildStatsSelectivities(t *testing.T) {
	stats := BuildStats(vision.MediumUADetrac)

	// id < 7000 over 14000 frames ≈ 0.5.
	half := symbolic.NewIntervalSet(symbolic.Interval{Lo: math.Inf(-1), LoOpen: true, Hi: 7000, HiOpen: true})
	if got := stats.SelNumeric("id", half); math.Abs(got-0.5) > 0.02 {
		t.Errorf("sel(id<7000) = %v, want 0.5", got)
	}

	// label = 'car' ≈ 0.85.
	if got := stats.SelCategorical("label", symbolic.NewCatSet("car")); math.Abs(got-0.85) > 0.05 {
		t.Errorf("sel(label=car) = %v, want ≈ 0.85", got)
	}
	// Negation.
	if got := stats.SelCategorical("label", symbolic.NewCatSetNot("car")); math.Abs(got-0.15) > 0.05 {
		t.Errorf("sel(label!=car) = %v, want ≈ 0.15", got)
	}

	// UDF output stats resolve through the call-term normalization.
	sel := stats.SelCategorical("cartype(frame, bbox)", symbolic.NewCatSet("Nissan"))
	if math.Abs(sel-0.25) > 0.05 {
		t.Errorf("sel(CarType=Nissan) = %v, want ≈ 0.25", sel)
	}

	// area > 0.3 should be moderately selective (u² law ⇒ ≈ 0.3).
	gt3 := symbolic.NewIntervalSet(symbolic.Interval{Lo: 0.3, LoOpen: true, Hi: math.Inf(1), HiOpen: true})
	if got := stats.SelNumeric("area", gt3); got < 0.15 || got > 0.45 {
		t.Errorf("sel(area>0.3) = %v, want ≈ 0.3", got)
	}

	// Unknown terms use the fallback rather than failing.
	if got := stats.SelNumeric("mystery", half); got <= 0 || got > 1 {
		t.Errorf("fallback numeric sel = %v", got)
	}
	if got := stats.SelCategorical("mystery", symbolic.NewCatSet("x")); got < 0 || got > 1 {
		t.Errorf("fallback categorical sel = %v", got)
	}
}

// TestSelCategoricalIsDeterministic: the frequencies of a value set sum
// in one order every time. 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in
// the last bit, which summing in map order turned into run-to-run
// differences in Eq. 3 costs and Eq. 4 ranks. (Regression: a 30-query
// generated session reported a different DIFF selectivity on a rerun.)
func TestSelCategoricalIsDeterministic(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	stats := NewStats(symbolic.UniformStats{})
	stats.SetCategorical("colordet", map[string]float64{"a": a, "b": b, "c": c})
	want := a + b + c
	for range 64 {
		if got := stats.SelCategorical("colordet", symbolic.NewCatSet("c", "b", "a")); got != want {
			t.Fatalf("sel = %v, want %v summed in value order", got, want)
		}
	}
}

func TestStatsIntegrationWithSymbolicSelectivity(t *testing.T) {
	stats := BuildStats(vision.MediumUADetrac)
	// sel(id < 10000 ∧ label = 'car') ≈ (10000/14000) × 0.85 ≈ 0.607.
	e := andExpr(t)
	d, err := symbolic.FromExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	got := symbolic.Selectivity(d, stats)
	want := (10000.0 / 14000.0) * 0.85
	if math.Abs(got-want) > 0.05 {
		t.Errorf("combined selectivity = %v, want ≈ %v", got, want)
	}
}

func andExpr(t *testing.T) exprT {
	t.Helper()
	return mkAnd(
		mkCmpLtIntCol("id", 10000),
		mkCmpEqStrCol("label", "car"),
	)
}

package vision

import (
	"math"
	"testing"
)

func TestDatasetStatisticsMatchPaper(t *testing.T) {
	// §5.1: UA-DETRAC ≈ 8.3 vehicles/frame, JACKSON ≈ 0.1.
	if got := MediumUADetrac.AvgObjectsPerFrame(2000); math.Abs(got-8.3) > 0.5 {
		t.Errorf("medium-ua-detrac density = %v, want ≈ 8.3", got)
	}
	if got := Jackson.AvgObjectsPerFrame(2000); math.Abs(got-0.1) > 0.05 {
		t.Errorf("jackson density = %v, want ≈ 0.1", got)
	}
	if ShortUADetrac.Frames != 7500 || MediumUADetrac.Frames != 14000 || LongUADetrac.Frames != 28000 {
		t.Error("UA-DETRAC frame counts diverge from §5.1")
	}
	if Jackson.Width != 600 || Jackson.Height != 400 {
		t.Error("jackson resolution diverges from §5.1")
	}
	// Fig. 12: LONG has slightly more vehicles per frame than MEDIUM.
	if LongUADetrac.AvgObjectsPerFrame(2000) <= MediumUADetrac.AvgObjectsPerFrame(2000) {
		t.Error("long-ua-detrac should be denser than medium")
	}
}

func TestObjectsDeterministic(t *testing.T) {
	a := MediumUADetrac.Objects(123)
	b := MediumUADetrac.Objects(123)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("object %d differs between calls", i)
		}
	}
	// Different frames should (almost always) differ.
	c := MediumUADetrac.Objects(124)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("frames 123 and 124 identical")
		}
	}
}

func TestObjectFieldsValid(t *testing.T) {
	for f := int64(0); f < 50; f++ {
		for _, o := range MediumUADetrac.Objects(f) {
			if o.X < 0 || o.Y < 0 || o.X+o.W > 1.0001 || o.Y+o.H > 1.0001 {
				t.Fatalf("frame %d object %d out of bounds: %+v", f, o.ID, o)
			}
			if o.Area() <= 0 || o.Area() > 0.61 {
				t.Fatalf("frame %d object %d bad area %v", f, o.ID, o.Area())
			}
			if indexOf(Labels, o.Label) < 0 || indexOf(VehicleTypes, o.VType) < 0 {
				t.Fatalf("bad categorical fields: %+v", o)
			}
			if len(o.Plate) != 5 {
				t.Fatalf("plate length %d", len(o.Plate))
			}
		}
	}
}

func TestDistributionsRoughlyMatchWeights(t *testing.T) {
	counts := map[string]int{}
	total := 0
	for f := int64(0); f < 3000; f++ {
		for _, o := range MediumUADetrac.Objects(f) {
			counts[o.VType]++
			counts["color:"+o.Color]++
			counts["label:"+o.Label]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no objects generated")
	}
	frac := func(k string) float64 { return float64(counts[k]) / float64(total) }
	if got := frac("Nissan"); math.Abs(got-0.25) > 0.03 {
		t.Errorf("P(Nissan) = %v, want ≈ 0.25", got)
	}
	if got := frac("color:Gray"); math.Abs(got-0.30) > 0.03 {
		t.Errorf("P(Gray) = %v, want ≈ 0.30", got)
	}
	if got := frac("label:car"); math.Abs(got-0.85) > 0.03 {
		t.Errorf("P(car) = %v, want ≈ 0.85", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, f := range []int64{0, 1, 999, 13999} {
		payload := MediumUADetrac.EncodeFrame(f)
		df, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if df.Frame != f || df.Width != 960 || df.Height != 540 {
			t.Errorf("frame %d header: %+v", f, df)
		}
		want := MediumUADetrac.Objects(f)
		if len(df.Objects) != len(want) {
			t.Fatalf("frame %d: %d objects decoded, want %d", f, len(df.Objects), len(want))
		}
		for i := range want {
			g, w := df.Objects[i], want[i]
			if g.Label != w.Label || g.VType != w.VType || g.Color != w.Color || g.Plate != w.Plate {
				t.Errorf("frame %d obj %d categorical mismatch: %+v vs %+v", f, i, g, w)
			}
			if math.Abs(g.X-w.X) > 1e-4 || math.Abs(g.W-w.W) > 1e-4 {
				t.Errorf("frame %d obj %d coords drift", f, i)
			}
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 19), // zero magic
	}
	for i, c := range cases {
		if _, err := DecodeFrame(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Corrupt a valid payload's version byte.
	p := MediumUADetrac.EncodeFrame(0)
	p[4] = 99
	if _, err := DecodeFrame(p); err == nil {
		t.Error("bad version should error")
	}
	// Truncate mid-objects.
	p = MediumUADetrac.EncodeFrame(0)
	if len(p) > 30 {
		if _, err := DecodeFrame(p[:25]); err == nil {
			t.Error("truncated payload should error")
		}
	}
}

func TestProfilesMatchPaperTables(t *testing.T) {
	// Table 5 costs and boxAP; Table 3 costs.
	cases := []struct {
		model string
		ms    int64
		boxAP float64
	}{
		{YoloTiny, 9, 17.6},
		{FasterRCNN50, 99, 37.9},
		{FasterRCNN101, 120, 42.0},
		{CarTypeModel, 6, 0},
		{ColorDetModel, 5, 0},
	}
	for _, c := range cases {
		p, err := ProfileFor(c.model)
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost.Milliseconds() != c.ms {
			t.Errorf("%s cost = %v, want %dms", c.model, p.Cost, c.ms)
		}
		if c.boxAP > 0 && p.BoxAP != c.boxAP {
			t.Errorf("%s boxAP = %v, want %v", c.model, p.BoxAP, c.boxAP)
		}
	}
	if _, err := ProfileFor("nope"); err == nil {
		t.Error("unknown model should error")
	}
	// Case-insensitive lookup.
	if _, err := ProfileFor("fasterrcnnresnet50"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
}

func TestProfilesForLogical(t *testing.T) {
	dets := ProfilesForLogical(LogicalObjectDetector)
	if len(dets) != 3 {
		t.Fatalf("detectors = %d, want 3", len(dets))
	}
	// Ascending cost: YoloTiny, FRCNN50, FRCNN101.
	if dets[0].Name != YoloTiny || dets[2].Name != FasterRCNN101 {
		t.Errorf("order = %v, %v, %v", dets[0].Name, dets[1].Name, dets[2].Name)
	}
	if got := ProfilesForLogical("nothing"); len(got) != 0 {
		t.Error("unknown logical type should return empty")
	}
}

func TestDetectRecallOrdering(t *testing.T) {
	totals := map[string]int{}
	ground := 0
	for f := int64(0); f < 300; f++ {
		payload := MediumUADetrac.EncodeFrame(f)
		ground += len(MediumUADetrac.Objects(f))
		for _, m := range []string{YoloTiny, FasterRCNN50, FasterRCNN101} {
			dets, err := Detect(m, payload)
			if err != nil {
				t.Fatal(err)
			}
			totals[m] += len(dets)
		}
	}
	if !(totals[YoloTiny] < totals[FasterRCNN50] && totals[FasterRCNN50] < totals[FasterRCNN101]) {
		t.Errorf("recall ordering violated: %v", totals)
	}
	if totals[FasterRCNN101] > ground {
		t.Errorf("detected more than ground truth: %d > %d", totals[FasterRCNN101], ground)
	}
	// Recall rates near profiles.
	for _, m := range []string{YoloTiny, FasterRCNN50, FasterRCNN101} {
		p, _ := ProfileFor(m)
		got := float64(totals[m]) / float64(ground)
		if math.Abs(got-p.Recall) > 0.05 {
			t.Errorf("%s recall = %v, want ≈ %v", m, got, p.Recall)
		}
	}
}

func TestDetectDeterministicAndValidated(t *testing.T) {
	payload := MediumUADetrac.EncodeFrame(7)
	a, err := Detect(FasterRCNN50, payload)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Detect(FasterRCNN50, payload)
	if len(a) != len(b) {
		t.Fatal("nondeterministic detect")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic detection fields")
		}
	}
	if _, err := Detect(CarTypeModel, payload); err == nil {
		t.Error("classifier used as detector should error")
	}
	if _, err := Detect(FasterRCNN50, []byte("junk payload")); err == nil {
		t.Error("junk payload should error")
	}
	for _, d := range a {
		if d.Score < 0.5 || d.Score > 1 {
			t.Errorf("score out of range: %v", d.Score)
		}
		if _, _, _, _, err := ParseBBox(d.BBox()); err != nil {
			t.Errorf("bbox round trip: %v", err)
		}
	}
}

func mustModel(t *testing.T, name string) Model {
	t.Helper()
	m, err := ModelFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// classify is one classifier call with a Decoder of its own.
func classify(t *testing.T, model string, payload []byte, bbox string) (string, error) {
	t.Helper()
	return mustModel(t, model).Classify(new(Decoder), payload, bbox)
}

func TestClassifiersMatchGroundTruthMostly(t *testing.T) {
	correctType, correctColor, total := 0, 0, 0
	for f := int64(0); f < 400; f++ {
		payload := MediumUADetrac.EncodeFrame(f)
		for _, o := range MediumUADetrac.Objects(f) {
			bbox := FormatBBox(o.X, o.Y, o.W, o.H)
			vt, err := classify(t, CarTypeModel, payload, bbox)
			if err != nil {
				t.Fatal(err)
			}
			if vt == o.VType {
				correctType++
			}
			col, err := classify(t, ColorDetModel, payload, bbox)
			if err != nil {
				t.Fatal(err)
			}
			if col == o.Color {
				correctColor++
			}
			total++
		}
	}
	typeAcc := float64(correctType) / float64(total)
	colorAcc := float64(correctColor) / float64(total)
	if math.Abs(typeAcc-0.93) > 0.04 {
		t.Errorf("CarType accuracy = %v, want ≈ 0.93", typeAcc)
	}
	if math.Abs(colorAcc-0.91) > 0.04 {
		t.Errorf("ColorDet accuracy = %v, want ≈ 0.91", colorAcc)
	}
}

func TestClassifyTolerantOfJitteredBoxes(t *testing.T) {
	// A detector's jittered bbox must still resolve to the same object.
	for f := int64(0); f < 100; f++ {
		payload := MediumUADetrac.EncodeFrame(f)
		dets, err := Detect(FasterRCNN101, payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dets {
			vt, err := classify(t, CarTypeModel, payload, d.BBox())
			if err != nil {
				t.Fatal(err)
			}
			if vt == "unknown" {
				t.Fatalf("frame %d: jittered bbox %s failed to match", f, d.BBox())
			}
		}
	}
}

func TestClassifyUnknownForFarBBox(t *testing.T) {
	// A bbox far from every object returns "unknown".
	var frame int64 = -1
	for f := int64(0); f < 100; f++ {
		objs := Jackson.Objects(f)
		if len(objs) == 1 && objs[0].X < 0.3 && objs[0].Y < 0.3 {
			frame = f
			break
		}
	}
	if frame < 0 {
		t.Skip("no suitable frame found")
	}
	payload := Jackson.EncodeFrame(frame)
	got, err := classify(t, CarTypeModel, payload, FormatBBox(0.9, 0.9, 0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if got != "unknown" {
		t.Errorf("far bbox classified as %q", got)
	}
}

func TestReadLicenseFindsPlantedPlate(t *testing.T) {
	found := 0
	for f := int64(0); f < 5000 && found == 0; f++ {
		for _, o := range MediumUADetrac.Objects(f) {
			if o.Plate == PlantedPlate {
				payload := MediumUADetrac.EncodeFrame(f)
				got, err := classify(t, LicenseModel, payload, FormatBBox(o.X, o.Y, o.W, o.H))
				if err != nil {
					t.Fatal(err)
				}
				if got == PlantedPlate {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Error("planted plate never found in 5000 frames")
	}
}

func TestFilterVehicles(t *testing.T) {
	skippedEmpty, empty := 0, 0
	for f := int64(0); f < 2000; f++ {
		payload := Jackson.EncodeFrame(f)
		got, err := mustModel(t, VehicleFilter).FilterVehicles(new(Decoder), payload)
		if err != nil {
			t.Fatal(err)
		}
		hasVehicle := len(Jackson.Objects(f)) > 0
		if hasVehicle && !got {
			// The filter's contract: never drop a frame with vehicles.
			t.Fatalf("frame %d: filter dropped a vehicle frame", f)
		}
		if !hasVehicle {
			empty++
			if !got {
				skippedEmpty++
			}
		}
	}
	if empty == 0 {
		t.Fatal("no empty frames sampled")
	}
	// Roughly filterSkipConfidence of empty frames are skipped.
	frac := float64(skippedEmpty) / float64(empty)
	if math.Abs(frac-filterSkipConfidence) > 0.05 {
		t.Errorf("empty-frame skip rate = %v, want ≈ %v", frac, filterSkipConfidence)
	}
}

func TestParseAccuracy(t *testing.T) {
	for s, want := range map[string]AccuracyLevel{"low": AccuracyLow, "Medium": AccuracyMedium, "HIGH": AccuracyHigh} {
		got, err := ParseAccuracy(s)
		if err != nil || got != want {
			t.Errorf("ParseAccuracy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAccuracy("ultra"); err == nil {
		t.Error("bad accuracy should error")
	}
	if AccuracyHigh.String() != "HIGH" {
		t.Error("accuracy rendering")
	}
	if !(AccuracyLow < AccuracyMedium && AccuracyMedium < AccuracyHigh) {
		t.Error("accuracy ordering")
	}
}

func TestParseBBoxErrors(t *testing.T) {
	for _, s := range []string{"", "1,2,3", "a,b,c,d", "1,2,3,4,5"} {
		if _, _, _, _, err := ParseBBox(s); err == nil {
			t.Errorf("ParseBBox(%q) should error", s)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	d, err := DatasetByName("jackson")
	if err != nil || d.Name != "jackson" {
		t.Errorf("DatasetByName: %v, %v", d, err)
	}
	if _, err := DatasetByName("ghost"); err == nil {
		t.Error("unknown dataset should error")
	}
	if MediumUADetrac.VirtualFrameBytes() != 960*540*3 {
		t.Error("virtual frame bytes")
	}
}

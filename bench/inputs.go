package main

import (
	"fmt"
	"math"
	"math/rand"

	"eva/internal/catalog"
	"eva/internal/symbolic"
	"eva/internal/vision"
)

// The benchmark owns its inputs. Everything the engine sees — the
// dataset descriptor and eight SQL strings — is derived here from the
// seed; nothing is imported from internal/vbench, so a change to the
// repo's experiment harness cannot silently change what is measured.

// Dataset shapes at -scale 1. The dense shape is MEDIUM-UA-DETRAC's
// (960×540, 8.3 vehicles per frame) cut to denseFrames so that a cold
// or no-reuse session (~0.5 s on the 2-core sandbox) yields more than
// 100 query samples inside the driver's 12 s run; the sparse shape is
// JACKSON's (600×400, 0.1 vehicles per frame) at its full length.
// 4200 sits in the middle of 4000–4500, where no hash map of the UDF
// runtime's demand keys is near a doubling: between 4600 and 5200
// frames a third of the seeds cross one, and live_heap_mb on
// high-noreuse (3.5 MiB in all) jumps by 0.3–0.5 MiB with the seed.
const (
	denseFrames  = 4200
	sparseFrames = 14000
)

// query is one generated statement.
type query struct {
	Label string
	SQL   string
}

// inputs is everything one run feeds the engine.
type inputs struct {
	Seed    uint64
	Dataset vision.Dataset
	Queries []query
}

// minMargin is the least gap between the selectivities the catalog's
// statistics give the session's colour and vehicle-type predicates.
// The optimizer ranks the two scalar UDFs by those estimates, and the
// statistics are sampled from 1000 frames — about 100 objects on the
// sparse dataset, so the estimates are off by ±0.04. Over 200 seeds
// every world whose gap was at least 0.10 planned Q3, Q7 and Q8 with
// CarType first; a sixth of the others flipped one or all of them,
// which changes the aggregated predicates and moves sparse-warm's
// allocations per query by 3–19 %.
const minMargin = 0.10

// genInputs derives the dataset and the VBENCH-HIGH session from the
// seed: the dataset's world seed, the vehicle-type and colour
// constants, and a ±2 % jitter of every distinct frame-range bound of
// the eight Table-1 templates. Types are drawn from the three rarest
// (Ford, Honda, BMW: 0.20–0.15 of vehicles) and the colour from the two
// most common (Gray, Black: 0.30–0.25), as Table 1 does (Nissan 0.25,
// Gray 0.30); world and constants are drawn again until the catalog's
// own statistics separate the two predicates by minMargin, so that the
// shape of the plans is the same at every seed.
func genInputs(seed uint64, sparse bool, scale float64) inputs {
	// math/rand's seeded generator is the benchmark's only source of
	// randomness; Go keeps its sequence stable, so a seed always gives
	// the same inputs.
	r := rand.New(rand.NewSource(int64(seed)))
	ds := vision.Dataset{Name: "bench-dense", Frames: scaled(denseFrames, scale), Width: 960, Height: 540, Density: 8.3}
	if sparse {
		ds = vision.Dataset{Name: "bench-sparse", Frames: scaled(sparseFrames, scale), Width: 600, Height: 400, Density: 0.1}
	}
	var typeA, typeB, colour string
	// The cap is for a -scale so small that no world holds enough
	// vehicles to pass; the last draw is then used as it is.
	for try := 0; try < 64; try++ {
		ds.Seed = r.Uint64()
		types := r.Perm(3) // two distinct of VehicleTypes[2:]
		typeA, typeB = vision.VehicleTypes[2+types[0]], vision.VehicleTypes[2+types[1]]
		colour = vision.Colors[r.Intn(2)]
		stats := catalog.BuildStats(ds)
		if stats.SelCategorical("colordet", symbolic.NewCatSet(colour))-stats.SelCategorical("cartype", symbolic.NewCatSet(typeA)) >= minMargin {
			break
		}
	}

	n := ds.Frames
	// bound places a reference fraction of the video, jittered ±2 %.
	// Each of Table 1's five distinct bounds is placed once: Q1–Q4
	// refine one region and Q6/Q7 share a start, as in the paper, so
	// the shape of the aggregated predicates (and the planning work)
	// is the same at every seed while the frames touched differ.
	bound := func(f float64) int64 {
		b := int64(math.Round(f * (1 + 0.04*(r.Float64()-0.5)) * float64(n)))
		if b < 1 {
			b = 1
		}
		if b > int64(n)-1 {
			b = int64(n) - 1
		}
		return b
	}
	b286, b357, b536, b714, b857 := bound(0.286), bound(0.357), bound(0.536), bound(0.714), bound(0.857)

	sel := "SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE "
	carType := func(t string) string { return fmt.Sprintf("CarType(frame, bbox) = '%s'", t) }
	colourIs := fmt.Sprintf("ColorDet(frame, bbox) = '%s'", colour)
	// Q1–Q4 refine one region (reference bound id < 10000 of 14000);
	// Q5–Q8 shift and widen (Table 1).
	qs := []query{
		{"Q1", sel + fmt.Sprintf("id < %d AND label = 'car' AND area > 0.3 AND %s", b714, carType(typeA))},
		{"Q2-zoom-out", sel + fmt.Sprintf("id < %d AND label = 'car' AND %s", b714, carType(typeA))},
		{"Q3-zoom-in", sel + fmt.Sprintf("id < %d AND area > 0.25 AND label = 'car' AND %s AND %s", b714, carType(typeA), colourIs)},
		{"Q4-switch", sel + fmt.Sprintf("id < %d AND label = 'car' AND area > 0.25 AND %s", b714, colourIs)},
		{"Q5-shift", sel + fmt.Sprintf("id >= %d AND id < %d AND label = 'car' AND %s", b357, b857, carType(typeB))},
		{"Q6-shift", sel + fmt.Sprintf("id >= %d AND label = 'car' AND %s", b536, colourIs)},
		{"Q7-zoom-in", sel + fmt.Sprintf("id >= %d AND label = 'car' AND area > 0.2 AND %s AND %s", b536, carType(typeA), colourIs)},
		{"Q8-wide", sel + fmt.Sprintf("id >= %d AND label = 'car' AND %s AND %s", b286, colourIs, carType(typeA))},
	}
	return inputs{Seed: seed, Dataset: ds, Queries: qs}
}

func scaled(frames int, scale float64) int {
	n := int(math.Round(float64(frames) * scale))
	if n < 64 {
		n = 64
	}
	return n
}

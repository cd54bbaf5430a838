package vbench

import "testing"

// TestRunIngestBenchSmall drives a scaled-down streaming run through
// both recovery stops: every frame must land, every reopen must
// resume from the frames it stopped at, and the run must perform
// incremental work.
func TestRunIngestBenchSmall(t *testing.T) {
	cfg := IngestBenchConfig{
		Frames:        32,
		Batch:         5,
		Window:        4,
		Cadence:       4,
		Workers:       1,
		RecoveryStops: []int{16, 32},
	}
	res, err := RunIngestBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovery) != 2 {
		t.Fatalf("recovery points = %d, want 2", len(res.Recovery))
	}
	for i, rp := range res.Recovery {
		if rp.WatermarkFrames != int64(cfg.RecoveryStops[i]) {
			t.Errorf("recovery %d at watermark %d, want %d", i, rp.WatermarkFrames, cfg.RecoveryStops[i])
		}
		if rp.ResumedLSN != rp.WatermarkFrames {
			t.Errorf("recovery %d resumed from %d, want %d (drained before close)", i, rp.ResumedLSN, rp.WatermarkFrames)
		}
	}
	if res.Increments == 0 {
		t.Error("no increments ran")
	}
	if res.SimNs == 0 {
		t.Error("no simulated time charged")
	}
	if res.FramesPerSec <= 0 {
		t.Error("no throughput measured")
	}
}

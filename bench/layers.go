package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
	"unsafe"

	"eva"
	"eva/internal/expr"
	"eva/internal/parser"
	"eva/internal/server"
	"eva/internal/storage"
	"eva/internal/symbolic"
	"eva/internal/types"
	"eva/internal/vision"
	"eva/internal/xxhash"
)

// Direct-call micro-runs: each times one layer's public functions from
// outside, fed with the rows and keys one cold EVA session on the
// workload's dataset materialised. They are the same on every workload
// that shares a dataset; the driver asks for every per-layer metric on
// every run, so every traced run makes them.

// layerBench is the state the micro-runs share.
type layerBench struct {
	in    inputs
	dir   string        // scratch space the caller removes
	slice time.Duration // time one micro-run may take
	out   []metric

	// d is the engine the cold session ran on: its views are
	// materialised and its optimizer's aggregated predicates filled
	// ("warm manager"). det and scalar are its largest detector view
	// (keyed by id) and scalar-UDF view (keyed by id and bbox).
	d           *directEngine
	popDir      string
	det, scalar *storage.View
	detRows     *types.Batch
	scalarRows  *types.Batch
	// hits are encoded keys the scalar view holds, misses the same
	// boxes on frames past the end of the video.
	hits, misses [][]byte
}

func (l *layerBench) emit(name string, v float64, unit string) {
	l.out = append(l.out, metric{Name: name, Value: v, Unit: unit})
}

// layerRuns measures the per-layer micro metrics within roughly the
// given time.
func layerRuns(in inputs, ref []uint64, dir string, seconds float64) ([]metric, error) {
	const runs = 16 // timed slices in the steps below
	l := &layerBench{in: in, dir: dir, slice: time.Duration(seconds / runs * float64(time.Second)), popDir: filepath.Join(dir, "populated")}
	var err error
	if l.d, err = openDirect(l.popDir, in, workload{Kind: kindSteady, Mode: eva.ModeEVA}); err != nil {
		return nil, err
	}
	defer l.d.store.Close() // idempotent; replay closes it earlier
	if err := l.populate(ref); err != nil {
		return nil, err
	}
	for _, step := range []func() error{l.planning, l.expression, l.viewAppend, l.viewProbe, l.udfs, l.fixedCost, l.viewReplay, l.videoScan} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// populate runs the cold session and picks the views and keys the
// other steps feed on.
func (l *layerBench) populate(ref []uint64) error {
	rec := newRecorder()
	l.d.tracedSession(nil, l.in.Queries, ref, 0, rec)
	if rec.failed > 0 {
		return fmt.Errorf("layer set-up session failed: %v", rec.errs)
	}
	for _, name := range l.d.store.Views() {
		v := l.d.store.View(name)
		switch {
		case len(v.KeyColumns()) == 1 && (l.det == nil || v.Rows() > l.det.Rows()):
			l.det = v
		case len(v.KeyColumns()) == 2 && (l.scalar == nil || v.Rows() > l.scalar.Rows()):
			l.scalar = v
		}
	}
	if l.det == nil || l.scalar == nil || l.det.Rows() == 0 || l.scalar.Rows() == 0 {
		return fmt.Errorf("cold session left no detector and scalar view to feed the layer runs")
	}
	l.detRows, l.scalarRows = l.det.Scan(), l.scalar.Scan()

	sch := l.scalarRows.Schema()
	if sch.IndexOf("id") < 0 || sch.IndexOf("bbox") < 0 {
		return fmt.Errorf("scalar view %s is not keyed by id and bbox: %s", l.scalar.Name(), sch)
	}
	key := make([]types.Datum, len(l.scalar.KeyColumns()))
	for r := 0; r < l.scalarRows.Len() && r < 4096; r++ {
		for _, miss := range []bool{false, true} {
			for i, kc := range l.scalar.KeyColumns() {
				key[i] = l.scalarRows.At(r, sch.IndexOf(kc))
				if miss && kc == "id" {
					key[i] = types.NewInt(key[i].Int() + int64(l.in.Dataset.Frames))
				}
			}
			if miss {
				l.misses = append(l.misses, storage.AppendKey(nil, key))
			} else {
				l.hits = append(l.hits, storage.AppendKey(nil, key))
			}
		}
	}
	return nil
}

// planning: parser, symbolic and optimizer, per statement.
func (l *layerBench) planning() error {
	var stmts []*parser.SelectStmt
	for _, q := range l.in.Queries {
		st, err := parser.Parse(q.SQL)
		if err != nil {
			return err
		}
		stmts = append(stmts, st.(*parser.SelectStmt))
	}
	l.emit("parser.parse_us", timeLoop(l.slice, func() int {
		for _, q := range l.in.Queries {
			parser.Parse(q.SQL)
		}
		return len(l.in.Queries)
	})/1e3, "us")

	// What the UDF manager does per signature, here over whole WHERE
	// clauses: the query's predicate against the aggregate so far.
	var agg symbolic.DNF
	var failed error
	l.emit("symbolic.analyze_us", timeLoop(l.slice, func() int {
		agg = symbolic.False()
		for _, st := range stmts {
			p, err := symbolic.FromExpr(st.Where)
			if err != nil {
				failed = err
			}
			_ = symbolic.Inter(agg, p)
			_ = symbolic.Diff(agg, p)
			agg = symbolic.Union(agg, p)
		}
		return len(stmts)
	})/1e3, "us")
	l.emit("symbolic.atoms_after_reduce", float64(agg.AtomCount()), "count")

	l.emit("optimizer.plan_us", timeLoop(l.slice, func() int {
		for _, st := range stmts {
			if _, err := l.d.eng.Plan(st, l.d.mode); err != nil {
				failed = err
			}
		}
		return len(stmts)
	})/1e3, "us")
	return failed
}

// batchRow resolves column names against one row of a batch by name,
// per row, as the executor's own resolver does.
type batchRow struct {
	schema types.Schema
	batch  *types.Batch
	row    int
}

func (r *batchRow) Resolve(name string) (types.Datum, bool) {
	i := r.schema.IndexOf(name)
	if i < 0 {
		return types.Null, false
	}
	return r.batch.At(r.row, i), true
}

func (r *batchRow) CallFn(fn string, _ []types.Datum) (types.Datum, error) {
	return types.Null, fmt.Errorf("bench: unexpected call %s in filter predicate", fn)
}

// expression: the detector-output filter of Q3/Q4 over the detector
// view's rows.
func (l *layerBench) expression() error {
	st, err := parser.Parse("SELECT id FROM video WHERE label = 'car' AND area > 0.25")
	if err != nil {
		return err
	}
	pred := st.(*parser.SelectStmt).Where
	res := &batchRow{schema: l.detRows.Schema(), batch: l.detRows}
	var failed error
	l.emit("expr.evalbool_ns_per_row", timeLoop(l.slice, func() int {
		for r := 0; r < l.detRows.Len(); r++ {
			res.row = r
			if _, err := expr.EvalBool(pred, res); err != nil {
				failed = err
			}
		}
		return l.detRows.Len()
	}), "ns")
	return failed
}

// appendChunk mirrors the executor's flush threshold (viewFlushRows).
const appendChunk = 8192

// viewAppend writes the detector view's rows into fresh views, in the
// chunks the executor flushes, with each chunk's processed frame ids.
func (l *layerBench) viewAppend() error {
	se, err := storage.Open(filepath.Join(l.dir, "append"))
	if err != nil {
		return err
	}
	defer se.Close()
	rows := l.detRows
	idCol := rows.Schema().IndexOf("id")
	var chunks []*types.Batch
	var chunkKeys [][][]types.Datum
	for lo := 0; lo < rows.Len(); lo += appendChunk {
		hi := lo + appendChunk
		if hi > rows.Len() {
			hi = rows.Len()
		}
		chunks = append(chunks, rows.Slice(lo, hi))
		var keys [][]types.Datum
		last := int64(-1)
		for r := lo; r < hi; r++ {
			if id := rows.At(r, idCol).Int(); id != last {
				keys = append(keys, []types.Datum{types.NewInt(id)})
				last = id
			}
		}
		chunkKeys = append(chunkKeys, keys)
	}
	var ns, logBytes, passes int64
	for start := time.Now(); time.Since(start) < l.slice || passes == 0; passes++ {
		v, err := se.CreateView(fmt.Sprintf("append_%d", passes), l.det.Schema(), l.det.KeyColumns())
		if err != nil {
			return err
		}
		t := time.Now()
		for i, c := range chunks {
			if _, err := v.Append(c, chunkKeys[i]); err != nil {
				return err
			}
		}
		ns += time.Since(t).Nanoseconds()
		logBytes += v.Footprint()
		if err := se.DropViews(); err != nil {
			return err
		}
	}
	passNS, passBytes := float64(ns)/float64(passes), float64(logBytes)/float64(passes)
	l.emit("storage.view_append_us_per_krow", passNS/float64(rows.Len()), "us")
	l.emit("storage.view_append_mb_per_s", passBytes/(1<<20)/(passNS/1e9), "MiB/s")
	l.emit("storage.write_amp", passBytes/float64(rows.EncodedSize()), "ratio")
	l.emit("storage.view_bytes_per_row", passBytes/float64(rows.Len()), "B")
	return nil
}

// viewProbe does what the apply operator does per input row: encoded
// key, HasKeyBytes, then RowsForKeyBytes on a hit.
func (l *layerBench) viewProbe() error {
	var hitRows, missHits int
	l.emit("storage.view_probe_hit_ns", timeLoop(l.slice, func() int {
		for _, k := range l.hits {
			if l.scalar.HasKeyBytes(k) {
				hitRows += len(l.scalar.RowsForKeyBytes(k))
			}
		}
		return len(l.hits)
	}), "ns")
	l.emit("storage.view_probe_miss_ns", timeLoop(l.slice, func() int {
		for _, k := range l.misses {
			if l.scalar.HasKeyBytes(k) {
				missHits++
			}
		}
		return len(l.misses)
	}), "ns")
	if hitRows == 0 || missHits > 0 {
		return fmt.Errorf("probe keys did not behave: %d rows from hit keys, %d miss keys found", hitRows, missHits)
	}
	return nil
}

// udfs: rendering one frame, evaluating the detector on it, one scalar
// call on one of its boxes, and the per-row demand bookkeeping of every
// probe.
func (l *layerBench) udfs() error {
	ds := l.in.Dataset
	nFrames := 256
	if nFrames > ds.Frames {
		nFrames = ds.Frames
	}
	payloads := make([][]byte, nFrames)
	next := 0
	l.emit("vision.encode_frame_us", timeLoop(l.slice, func() int {
		payloads[next%nFrames] = ds.EncodeFrame(int64(next % nFrames))
		next++
		return 1
	})/1e3, "us")
	for f := range payloads {
		payloads[f] = ds.EncodeFrame(int64(f))
	}
	rt := l.d.eng.Runtime
	var failed error
	l.emit("udf.detector_eval_us", timeLoop(l.slice, func() int {
		for _, p := range payloads {
			if _, err := rt.EvalDetector(vision.FasterRCNN50, p); err != nil {
				failed = err
			}
		}
		return len(payloads)
	})/1e3, "us")

	sch := l.scalarRows.Schema()
	idCol, bboxCol := sch.IndexOf("id"), sch.IndexOf("bbox")
	var args [][]types.Datum
	for r := 0; r < l.scalarRows.Len() && len(args) < 1024; r++ {
		if id := l.scalarRows.At(r, idCol).Int(); id < int64(nFrames) || len(args) == 0 {
			args = append(args, []types.Datum{types.NewBytes(ds.EncodeFrame(id)), l.scalarRows.At(r, bboxCol)})
		}
	}
	l.emit("udf.scalar_eval_us", timeLoop(l.slice, func() int {
		for _, a := range args {
			if _, err := rt.EvalScalar("CarType", a); err != nil {
				failed = err
			}
		}
		return len(args)
	})/1e3, "us")

	lower := strings.ToLower(vision.FasterRCNN50)
	l.emit("udf.record_demand_ns", timeLoop(l.slice, func() int {
		for _, k := range l.hits {
			rt.RecordDemandKey(lower, k)
		}
		return len(l.hits)
	}), "ns")
	return failed
}

// fixedCost: the checksum behind every view record, the width of one
// datum (every column is a []Datum), and an uncontended admission.
func (l *layerBench) fixedCost() error {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var sink uint64
	perCall := timeLoop(l.slice, func() int {
		sink += xxhash.Sum64(buf, sink)
		return 1
	})
	l.emit("xxhash.sum64_mb_per_s", float64(len(buf))/(1<<20)/(perCall/1e9), "MiB/s")

	l.emit("types.datum_size_bytes", float64(unsafe.Sizeof(types.Datum{})), "B")

	// A fixed count: the controller keeps one wait sample per admit.
	ctl := server.NewController(server.Config{MaxConcurrent: 2, QueueDepth: 2})
	const admits = 20000
	t := time.Now()
	for i := 0; i < admits; i++ {
		g, err := ctl.Admit()
		if err != nil {
			return err
		}
		g.Release(0)
	}
	l.emit("server.admit_ns", float64(time.Since(t).Nanoseconds())/admits, "ns")
	return nil
}

// viewReplay closes the populated engine (a clean close) and reopens
// the detector view's log repeatedly, as reopen-warm's first query does.
func (l *layerBench) viewReplay() error {
	name, schema, keys, bytes := l.det.Name(), l.det.Schema(), l.det.KeyColumns(), l.det.Footprint()
	if err := l.d.store.Close(); err != nil {
		return err
	}
	var failed error
	ns := timeLoop(l.slice, func() int {
		e, err := storage.Open(l.popDir)
		if err == nil {
			_, err = e.CreateView(name, schema, keys)
			e.Close()
		}
		if err != nil {
			failed = err
		}
		return 1
	})
	l.emit("storage.view_replay_ms", ns/1e6, "ms")
	l.emit("storage.view_replay_mb_per_s", float64(bytes)/(1<<20)/(ns/1e9), "MiB/s")
	return failed
}

// videoScan reads up to four segments of the video three ways: cold
// (render, write, read back), from disk (a new engine on the same
// directory) and warm (the segment cache).
func (l *layerBench) videoScan() error {
	ds := l.in.Dataset
	frames := int64(2000)
	if frames > int64(ds.Frames) {
		frames = int64(ds.Frames)
	}
	dir := filepath.Join(l.dir, "scan")
	// scanNew opens a fresh engine on dir and scans `times` times.
	scanNew := func(times int) ([]time.Duration, error) {
		e, err := storage.Open(dir)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		v, err := e.CreateVideo("video", ds)
		if err != nil {
			return nil, err
		}
		walls := make([]time.Duration, times)
		for i := range walls {
			t := time.Now()
			if _, err := v.Scan(0, frames); err != nil {
				return nil, err
			}
			walls[i] = time.Since(t)
		}
		return walls, nil
	}
	var cold, disk, warm time.Duration
	passes := 0
	for start := time.Now(); time.Since(start) < 2*l.slice || passes == 0; passes++ {
		os.RemoveAll(dir)
		first, err := scanNew(1)
		if err != nil {
			return err
		}
		again, err := scanNew(2)
		if err != nil {
			return err
		}
		cold, disk, warm = cold+first[0], disk+again[0], warm+again[1]
	}
	perK := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(passes) / (float64(frames) / 1e3)
	}
	l.emit("storage.video_scan_cold_us_per_kframe", perK(cold), "us")
	l.emit("storage.video_scan_disk_us_per_kframe", perK(disk), "us")
	l.emit("storage.video_scan_warm_us_per_kframe", perK(warm), "us")
	return nil
}

package storage

import (
	"bytes"
	"testing"

	"eva/internal/types"
)

// fuzzView returns a fresh unpublished view skeleton for replay.
func fuzzView() *View {
	schema := viewSchema()
	v := &View{
		name:    "fuzz",
		schema:  schema.Clone(),
		keyCols: []string{"id"},
		keyIdx:  []int{schema.IndexOf("id")},
	}
	v.resetReplayState()
	return v
}

// FuzzViewReplay throws arbitrary bytes at the view-log replay path.
// The invariants: replay never panics, never claims a valid prefix
// longer than the input, and the prefix it accepts replays to the same
// state — rows, processed keys and the aggregated-predicate snapshot —
// when fed back alone (recovery is a fixed point). A predicate record
// is opaque here: whatever its payload, torn, flipped, repeated or out
// of order, it can cost the snapshot (the previous one, or none, stands)
// but never the open.
func FuzzViewReplay(f *testing.F) {
	// Seed with a well-formed log: header plus one append of each
	// record kind, and a torn copy of the same.
	v := fuzzView()
	rows := types.NewBatch(viewSchema())
	rows.MustAppendRow(types.NewInt(1), types.NewString("car"), types.NewString("a"))
	var payload []byte
	for _, d := range rows.Row(0) {
		payload = d.AppendBinary(payload)
	}
	var key []byte
	key = types.NewInt(2).AppendBinary(key)
	log := v.encodeHeader()
	log = sealRecord(log, recRows, 1, payload)
	log = sealRecord(log, recKeys, 1, key)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(log[:len(v.encodeHeader())])
	f.Add([]byte{})
	// Logs holding predicate records: in order, torn, bit-flipped in the
	// payload and in the checksum, duplicated, out of order (a snapshot
	// ahead of the rows it describes), empty, and undecodable to its
	// owner (storage cannot tell).
	rec := len(log)
	p1 := sealRecord(nil, recPred, 0, []byte{1, 1, 1, 2, 'i', 'd', 0, 1})
	p2 := sealRecord(nil, recPred, 0, []byte("not a predicate at all"))
	withPred := append(append([]byte(nil), log...), p1...)
	f.Add(withPred)
	f.Add(withPred[:len(withPred)-3])
	for _, at := range []int{rec + recHeaderLen + 2, len(withPred) - 1, rec} {
		flipped := append([]byte(nil), withPred...)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	f.Add(append(append([]byte(nil), withPred...), p1...))
	f.Add(append(append(append([]byte(nil), withPred...), p2...), log[len(v.encodeHeader()):]...))
	f.Add(append(append(v.encodeHeader(), p2...), sealRecord(nil, recPred, 0, nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		v1 := fuzzView()
		valid, err := v1.replay(data, 0)
		if err != nil {
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		// Replaying just the accepted prefix must accept all of it and
		// reconstruct the identical state — that is what reopening
		// after truncation does.
		v2 := fuzzView()
		valid2, err := v2.replay(data[:valid], 0)
		if err != nil || valid2 != valid {
			t.Fatalf("prefix replay diverged: valid=%d/%d err=%v", valid2, valid, err)
		}
		if v1.rows.len() != v2.rows.len() || v1.index.len() != v2.index.len() || !bytes.Equal(v1.pred, v2.pred) {
			t.Fatalf("prefix replay state mismatch: rows %d/%d processed %d/%d predicate %x/%x",
				v1.rows.len(), v2.rows.len(), v1.index.len(), v2.index.len(), v1.pred, v2.pred)
		}
	})
}

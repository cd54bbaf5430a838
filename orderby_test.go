package eva

import "testing"

func TestOrderByEndToEnd(t *testing.T) {
	sys := openLoaded(t, Config{})
	res, err := sys.Exec(`SELECT id, area FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 400 AND label = 'car' ORDER BY area DESC, id ASC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() == 0 {
		t.Skip("no cars in range")
	}
	for r := 1; r < res.Rows.Len(); r++ {
		if res.Rows.At(r-1, 1).Float() < res.Rows.At(r, 1).Float() {
			t.Fatalf("row %d: areas not descending", r)
		}
	}
	// ORDER BY after GROUP BY orders the aggregate output.
	res, err = sys.Exec(`SELECT id, COUNT(*) AS n FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 400 AND label = 'car' GROUP BY id ORDER BY n DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < res.Rows.Len(); r++ {
		if res.Rows.At(r-1, 1).Int() < res.Rows.At(r, 1).Int() {
			t.Fatalf("group counts not descending at row %d", r)
		}
	}
	// Unknown ORDER BY column errors at plan time.
	if _, err := sys.Exec("SELECT id FROM video WHERE id < 5 ORDER BY ghost"); err == nil {
		t.Error("unknown ORDER BY column should error")
	}
}

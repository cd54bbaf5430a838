package eva

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite golden script outputs")

// TestGoldenScripts runs every testdata/scripts/*.sql through a fresh
// EVA system and compares each SELECT's formatted result set against
// the checked-in golden file. The synthetic world and virtual clock
// are fully deterministic, so outputs are byte-stable across machines.
func TestGoldenScripts(t *testing.T) {
	eachScript(t, func(t *testing.T, sc script) {
		sys := openAt(t, Config{})
		stmts, err := parser.ParseAll(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for i, stmt := range stmts {
			res, err := sys.ExecStmt(stmt)
			if err != nil {
				t.Fatalf("statement %d: %v", i+1, err)
			}
			if res.Rows == nil || len(res.Rows.Schema()) == 0 {
				continue
			}
			fmt.Fprintf(&out, "-- statement %d (simulated %s)\n", i+1, res.SimTime.Round(1e6))
			out.WriteString(Format(res.Rows))
			out.WriteByte('\n')
		}

		golden := filepath.Join("testdata", "scripts", strings.TrimSuffix(sc.name, ".sql")+".golden")
		if *updateGolden {
			if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		same(t, "output against "+golden, string(want), out.String())
	})
}

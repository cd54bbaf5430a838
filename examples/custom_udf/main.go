// Custom UDFs: modular vs monolithic (§3.3). The analyst defines a
// monolithic GrayNissan UDF with CREATE UDF (Listing 2) plus a Go
// implementation, runs it, and then gets full reuse on a repeat — but
// the modular composition (CarType + ColorDet) is what lets a later
// "gray Toyota" query reuse half its work.
//
//	go run ./examples/custom_udf
package main

import (
	"errors"
	"fmt"
	"log"

	"eva"
)

func main() {
	sys, err := eva.Open(eva.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Exec(`LOAD VIDEO 'medium-ua-detrac' INTO video`); err != nil {
		log.Fatal(err)
	}

	// Define the monolithic UDF per Listing 2 and register its Go
	// implementation (composing the two builtin classifiers). The
	// executor calls it from several workers at once: it keeps no state
	// of its own, and EvalScalarUDF is safe for concurrent use.
	_, err = sys.Exec(`CREATE UDF GrayNissan
		INPUT  = (frame NDARRAY UINT8(3, ANYDIM, ANYDIM), bbox TEXT)
		OUTPUT = (graynissan_out BOOLEAN)
		IMPL   = 'examples/custom_udf/main.go'
		LOGICAL_TYPE = GrayNissan
		PROPERTIES = ('COST_MS' = '11')`)
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterScalarImpl("GrayNissan", func(args []eva.Datum) (eva.Datum, error) {
		if len(args) != 2 {
			return eva.Datum{}, errors.New("GrayNissan expects (frame, bbox)")
		}
		// A monolithic model would answer both questions in one pass;
		// the simulation composes the two ground-truth classifiers.
		frame, bbox := args[0], args[1]
		vt, err := classify(sys, "CarType", frame, bbox)
		if err != nil {
			return eva.Datum{}, err
		}
		color, err := classify(sys, "ColorDet", frame, bbox)
		if err != nil {
			return eva.Datum{}, err
		}
		return eva.NewBool(vt == "Nissan" && color == "Gray"), nil
	})

	run := func(label, sql string) {
		res, err := sys.Exec(sql)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-22s %5d rows, simulated %8s\n", label, res.Rows.Len(), res.SimTime.Round(1e9))
	}

	fmt.Println("monolithic UDF: reused only on exact repeats")
	run("GrayNissan #1", `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 1500 AND label = 'car' AND GrayNissan(frame, bbox) = TRUE`)
	run("GrayNissan #2", `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 1500 AND label = 'car' AND GrayNissan(frame, bbox) = TRUE`)

	fmt.Println("\nmodular UDFs: gray Nissans now, gray Toyotas later — ColorDet reused")
	run("modular gray Nissan", `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 1500 AND label = 'car' AND CarType(frame, bbox) = 'Nissan'
		AND ColorDet(frame, bbox) = 'Gray'`)
	run("modular gray Toyota", `SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < 1500 AND label = 'car' AND CarType(frame, bbox) = 'Toyota'
		AND ColorDet(frame, bbox) = 'Gray'`)

	fmt.Printf("\nhit percentage: %.1f%%\n", sys.HitPercentage())
}

// classify runs a builtin classifier through a throwaway query-less
// path: here we simply call the UDF implementations the same way the
// engine would. (A production monolithic UDF would run its own model.)
func classify(sys *eva.System, udf string, frame, bbox eva.Datum) (string, error) {
	out, err := sys.EvalScalarUDF(udf, []eva.Datum{frame, bbox})
	if err != nil {
		return "", err
	}
	return out.Str(), nil
}

package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.csv from the current figures")

// TestFiguresGolden pins every figure, value for value, at Fast quality:
// the DES is deterministic, so any change to a strategy, driver or model
// that moves a simulated number shows up here as a CSV diff. Regenerate
// with `go test ./internal/bench -run TestFiguresGolden -update` only
// when a figure is meant to change.
func TestFiguresGolden(t *testing.T) {
	for _, id := range FigureIDs() {
		fig, err := Build(id, Fast())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got bytes.Buffer
		fig.WriteCSV(&got)
		path := filepath.Join("testdata", id+".csv")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", id, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", id, path, got.Bytes(), want)
		}
	}
}

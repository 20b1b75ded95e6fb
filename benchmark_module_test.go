package ordxml_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests the nested module under benchmark/.
// Root `go build ./...` and `go test ./...` stop at its go.mod, so without
// this an engine API change can break benchmark/run.sh unseen.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on the nested module; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", args[0], err, out)
		}
	}
}
